//! The DoC server and its mock recursive-resolver upstream.
//!
//! The server terminates DoC requests (FETCH/GET/POST), resolves them
//! against an upstream, applies a [`CachePolicy`] to align TTLs with
//! CoAP freshness, and supports ETag revalidation with `2.03 Valid`
//! responses and Block2 slicing of large responses.
//!
//! The upstream mirrors the paper's setup: "The recursive resolver is
//! mocked up to generate the desired responses" — a programmable zone
//! whose records refresh their TTLs on expiry (uniformly drawn from a
//! configured range, e.g. the 2–8 s of §6.1), which is precisely the
//! behaviour that makes DoH-like ETags churn.
//!
//! Both the server and the mock upstream are **thread-safe**: every
//! public method takes `&self`, so an `Arc<DocServer>` can back the
//! workers of a [`crate::pool`] front-end. The upstream's resource
//! table (zone + per-RRset TTL state) is lock-striped behind a
//! [`ShardedCache`], its xorshift state is an atomic (the draw
//! sequence is unchanged for single-threaded drivers, so seeded
//! experiments stay bit-identical), the block-wise transfer tables are
//! sharded by `(peer, token)`, and the statistics are atomics exposed
//! through snapshot accessors.

use crate::method::extract_query_view;
use crate::policy::{prepare_response, CachePolicy, PreparedResponse};
use crate::{DocError, CONTENT_FORMAT_DNS_MESSAGE};
use doc_coap::block::{Block2Server, BlockAssembler, BlockOpt};
use doc_coap::msg::{CoapMessage, Code};
use doc_coap::opt::{CoapOption, OptionNumber};
use doc_coap::shard::ShardedCache;
use doc_coap::view::CoapView;
use doc_coap::CoapError;
use doc_dns::name::{encode_labels_compressed, CompressionMap, MAX_LABELS, MAX_NAME_LEN};
use doc_dns::view::MessageView;
use doc_dns::{Header, Message, Name, Rcode, Record, RecordClass, RecordData, RecordType};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// One RRset of the mock zone: the records plus the TTL state machine
/// (absolute expiry of the current TTL draw; 0 = not yet drawn).
struct Rrset {
    data: Vec<RecordData>,
    expires_at_ms: u64,
}

/// One xorshift64 step (shared by the upstream's atomic RNG).
fn xorshift64(mut x: u64) -> u64 {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    x
}

/// Longest zone key: a maximal uncompressed wire name plus the qtype.
const ZONE_KEY_CAP: usize = MAX_NAME_LEN + 2;

/// A zone key built on the stack: the lowercase uncompressed wire name
/// followed by the 2-byte big-endian qtype. The zone stores the same
/// bytes as owned `Vec<u8>` keys, so a lookup from a borrowed
/// [`doc_dns::NameRef`] probes the zone by `&[u8]` without allocating.
struct ZoneKey {
    buf: [u8; ZONE_KEY_CAP],
    len: usize,
}

impl ZoneKey {
    /// Lowercase `labels` into a key for `qtype`. `None` if they do not
    /// fit a DNS name, which a parsed [`Name`] or view never does.
    fn new<'a>(labels: impl IntoIterator<Item = &'a [u8]>, qtype: RecordType) -> Option<Self> {
        let mut key = ZoneKey {
            buf: [0; ZONE_KEY_CAP],
            len: 0,
        };
        for label in labels {
            key.push(label.len() as u8)?;
            for &b in label {
                key.push(b.to_ascii_lowercase())?;
            }
        }
        key.push(0)?;
        for b in qtype.to_u16().to_be_bytes() {
            key.push(b)?;
        }
        Some(key)
    }

    fn push(&mut self, b: u8) -> Option<()> {
        *self.buf.get_mut(self.len)? = b;
        self.len += 1;
        Some(())
    }

    fn as_bytes(&self) -> &[u8] {
        &self.buf[..self.len]
    }

    /// Split the key's wire name into `labels`; returns the label count.
    fn labels<'a>(&'a self, labels: &mut [&'a [u8]; MAX_LABELS]) -> usize {
        let mut n = 0;
        let mut at = 0;
        while let Some(&len) = self.buf.get(at).filter(|&&len| len != 0) {
            let (Some(slot), Some(label)) = (
                labels.get_mut(n),
                self.buf.get(at + 1..at + 1 + len as usize),
            ) else {
                break;
            };
            *slot = label;
            n += 1;
            at += 1 + len as usize;
        }
        n
    }
}

/// Append the question section of `query`, lowercased and compressed
/// exactly as [`Message::encode`] writes the questions of the owned
/// query. Answers never register suffixes (their owner is a pointer to
/// the first question, their RDATA is uncompressed), so the
/// compression table lives only for this section.
fn encode_questions(query: &MessageView<'_>, out: &mut Vec<u8>) {
    let mut table = CompressionMap::new();
    for q in query.questions() {
        if let Some(key) = ZoneKey::new(q.qname.labels(), q.qtype) {
            let mut labels = [&[][..]; MAX_LABELS];
            let n = key.labels(&mut labels);
            encode_labels_compressed(&labels[..n], out, &mut table);
        }
        out.extend_from_slice(&q.qtype.to_u16().to_be_bytes());
        out.extend_from_slice(&q.qclass.to_u16().to_be_bytes());
    }
}

/// A programmable mock recursive resolver.
pub struct MockUpstream {
    /// The resource table: zone data + TTL state, keyed by the
    /// lowercase uncompressed wire name plus the 2-byte qtype, and
    /// lock-striped so concurrent workers resolving different names
    /// never contend.
    zone: ShardedCache<Vec<u8>, Rrset>,
    ttl_min: u32,
    ttl_max: u32,
    rng: AtomicU64,
    ns_queries: AtomicU32,
    cache_hits: AtomicU32,
}

impl MockUpstream {
    /// Create an upstream whose record TTLs refresh uniformly within
    /// `[ttl_min, ttl_max]` seconds.
    pub fn new(seed: u64, ttl_min: u32, ttl_max: u32) -> Self {
        Self::with_shards(seed, ttl_min, ttl_max, 8)
    }

    /// Like [`MockUpstream::new`], with the resource table striped over
    /// `shards` locks (rounded up to a power of two) — the scale-out
    /// knob for multi-worker front-ends.
    pub fn with_shards(seed: u64, ttl_min: u32, ttl_max: u32, shards: usize) -> Self {
        assert!(ttl_min <= ttl_max && ttl_min > 0);
        MockUpstream {
            zone: ShardedCache::new(shards),
            ttl_min,
            ttl_max,
            rng: AtomicU64::new(seed.wrapping_mul(0x9E3779B97F4A7C15) | 1),
            ns_queries: AtomicU32::new(0),
            cache_hits: AtomicU32::new(0),
        }
    }

    /// Number of resolutions that had to "contact the name server"
    /// (TTL expired) — the NS-query events of Fig. 3.
    pub fn ns_queries(&self) -> u32 {
        self.ns_queries.load(Ordering::Relaxed)
    }

    /// Number of resolutions served from the mock's own cache.
    pub fn cache_hits(&self) -> u32 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Draw the next xorshift64* value. Same sequence as the historical
    /// single-threaded RNG; under concurrency each draw is still unique
    /// and uniform, just non-deterministically interleaved.
    fn rand(&self) -> u64 {
        let prev = self
            .rng
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |x| {
                Some(xorshift64(x))
            })
            .expect("fetch_update closure never fails");
        xorshift64(prev).wrapping_mul(0x2545F4914F6CDD1D)
    }

    /// Register an RRset. Re-registering an existing `(name, rtype)`
    /// replaces the record data but keeps the in-flight TTL window,
    /// matching the historical behaviour where record data and TTL
    /// state lived in separate maps.
    pub fn add_rrset(&self, name: Name, rtype: RecordType, data: Vec<RecordData>) {
        let key = ZoneKey::new(name.labels().iter().map(Vec::as_slice), rtype)
            .expect("a Name always fits a zone key");
        let key = key.as_bytes();
        self.zone
            .with_shard_mut(key, |shard| match shard.get_mut(key) {
                Some(rrset) => rrset.data = data,
                None => {
                    shard.insert(
                        key.to_vec(),
                        Rrset {
                            data,
                            expires_at_ms: 0,
                        },
                    );
                }
            });
    }

    /// Convenience: register `n` AAAA records `2001:db8::i` for a name.
    pub fn add_aaaa(&self, name: Name, n: u16) {
        let data = (1..=n)
            .map(|i| RecordData::Aaaa(std::net::Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, i)))
            .collect();
        self.add_rrset(name, RecordType::Aaaa, data);
    }

    /// Convenience: register `n` A records `192.0.2.i` for a name.
    pub fn add_a(&self, name: Name, n: u8) {
        let data = (1..=n)
            .map(|i| RecordData::A(std::net::Ipv4Addr::new(192, 0, 2, i)))
            .collect();
        self.add_rrset(name, RecordType::A, data);
    }

    /// Look up the RRset under `key` (a [`ZoneKey`]'s bytes) and run
    /// the TTL state machine: a live TTL window is a mock-cache hit, an
    /// expired one is an NS query that draws a fresh TTL. One shard
    /// lock covers the whole read-check-refresh sequence *and* `emit`,
    /// so two workers cannot both decide to refresh the same RRset.
    /// `emit` gets the records and their remaining TTL in seconds;
    /// `None` means the name/type is not in the zone (NXDOMAIN).
    fn lookup<R>(
        &self,
        key: &[u8],
        now_ms: u64,
        emit: impl FnOnce(&[RecordData], u32) -> R,
    ) -> Option<R> {
        self.zone.with_shard_mut(key, |shard| {
            let rrset = shard.get_mut(key)?;
            let remaining_ms = if rrset.expires_at_ms > now_ms {
                bump(&self.cache_hits);
                rrset.expires_at_ms - now_ms
            } else {
                bump(&self.ns_queries);
                let span = (self.ttl_max - self.ttl_min) as u64;
                let ttl_s = self.ttl_min as u64
                    + if span == 0 {
                        0
                    } else {
                        self.rand() % (span + 1)
                    };
                rrset.expires_at_ms = now_ms + ttl_s * 1000;
                ttl_s * 1000
            };
            Some(emit(&rrset.data, remaining_ms.div_ceil(1000) as u32))
        })
    }

    /// Resolve a DNS query at virtual time `now_ms`. Returns a response
    /// with *remaining* TTLs (the decrementing behaviour of a real
    /// recursive cache).
    pub fn resolve(&self, query: &Message, now_ms: u64) -> Message {
        let Some(q) = query.questions.first() else {
            return Message::response(query, Rcode::FormErr, vec![]);
        };
        let answers =
            ZoneKey::new(q.qname.labels().iter().map(Vec::as_slice), q.qtype).and_then(|key| {
                self.lookup(key.as_bytes(), now_ms, |data, ttl| {
                    data.iter()
                        .map(|d| Record {
                            name: q.qname.clone(),
                            rtype: q.qtype,
                            rclass: RecordClass::In,
                            ttl,
                            data: d.clone(),
                        })
                        .collect()
                })
            });
        match answers {
            Some(answers) => Message::response(query, Rcode::NoError, answers),
            None => Message::response(query, Rcode::NxDomain, vec![]),
        }
    }

    /// [`MockUpstream::resolve`] on a borrowed query, writing the wire
    /// response straight into `out` (cleared first): the header, the
    /// question section (lowercased and compressed), and one answer per
    /// record whose owner is the pointer `C0 0C` to the first question.
    /// The bytes equal `resolve(&query.to_owned(), now_ms).encode()`,
    /// and with a reused `out` nothing is allocated: the zone key and
    /// label slices live on the stack.
    pub fn resolve_into(&self, query: &MessageView<'_>, now_ms: u64, out: &mut Vec<u8>) {
        out.clear();
        let header = query.header();
        let Some(q) = query.question() else {
            Header::response_to(&header, Rcode::FormErr).encode_into([0; 4], out);
            return;
        };
        let qdcount = query.question_count() as u16;
        let answered = ZoneKey::new(q.qname.labels(), q.qtype).and_then(|key| {
            self.lookup(key.as_bytes(), now_ms, |data, ttl| {
                Header::response_to(&header, Rcode::NoError)
                    .encode_into([qdcount, data.len() as u16, 0, 0], out);
                encode_questions(query, out);
                // The first question's name starts right after the
                // 12-byte header; the root name is its own single byte.
                let owner: &[u8] = if key.as_bytes()[0] == 0 {
                    &[0]
                } else {
                    &[0xC0, 0x0C]
                };
                for d in data {
                    out.extend_from_slice(owner);
                    d.encode_after_owner(q.qtype, RecordClass::In, ttl, out);
                }
            })
        });
        if answered.is_none() {
            Header::response_to(&header, Rcode::NxDomain).encode_into([qdcount, 0, 0, 0], out);
            encode_questions(query, out);
        }
    }
}

/// Server-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// DoC requests handled.
    pub requests: u32,
    /// Requests answered with `2.03 Valid` (successful revalidations —
    /// Fig. 3 step 5 / the EOL-TTLs win in step 4).
    pub validations: u32,
    /// Full `2.05 Content` responses.
    pub full_responses: u32,
    /// Malformed requests rejected.
    pub errors: u32,
}

/// Lock-free counters behind the [`ServerStats`] snapshot.
#[derive(Default)]
struct AtomicServerStats {
    requests: AtomicU32,
    validations: AtomicU32,
    full_responses: AtomicU32,
    errors: AtomicU32,
}

impl AtomicServerStats {
    fn snapshot(&self) -> ServerStats {
        ServerStats {
            requests: self.requests.load(Ordering::Relaxed),
            validations: self.validations.load(Ordering::Relaxed),
            full_responses: self.full_responses.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }
}

/// Bump a counter by one (relaxed: counters are advisory statistics).
fn bump(c: &AtomicU32) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// The DoC server.
pub struct DocServer {
    policy: CachePolicy,
    /// The mock upstream resolver.
    pub upstream: MockUpstream,
    /// Block2 slicing threshold (None = never slice proactively).
    block_size: Option<usize>,
    /// Recent prepared responses for Block2 continuation, keyed by
    /// (peer, request token) — clients reuse one token per block-wise
    /// transaction.
    block_state: ShardedCache<(u64, Vec<u8>), Vec<u8>>,
    /// In-progress Block1 query reassembly, keyed by (peer, token).
    block1_assembly: ShardedCache<(u64, Vec<u8>), BlockAssembler>,
    stats: AtomicServerStats,
}

impl DocServer {
    /// Create a server with the given policy and upstream.
    pub fn new(policy: CachePolicy, upstream: MockUpstream) -> Self {
        Self::with_shards(policy, upstream, 8)
    }

    /// Like [`DocServer::new`], with the block-wise transfer tables
    /// striped over `shards` locks (rounded up to a power of two). The
    /// upstream's own resource-table striping is configured on
    /// [`MockUpstream::with_shards`].
    pub fn with_shards(policy: CachePolicy, upstream: MockUpstream, shards: usize) -> Self {
        DocServer {
            policy,
            upstream,
            block_size: None,
            block_state: ShardedCache::new(shards),
            block1_assembly: ShardedCache::new(shards),
            stats: AtomicServerStats::default(),
        }
    }

    /// A snapshot of the server statistics.
    pub fn stats(&self) -> ServerStats {
        self.stats.snapshot()
    }

    /// Account a DNS response served outside the CoAP path (the
    /// experiment harness answers UDP/DTLS transports straight from the
    /// upstream; those still count as served requests).
    pub fn count_raw_dns_response(&self) {
        bump(&self.stats.requests);
        bump(&self.stats.full_responses);
    }

    /// Enable proactive Block2 slicing of responses larger than
    /// `size` bytes.
    pub fn with_block_size(mut self, size: usize) -> Self {
        self.block_size = Some(size);
        self
    }

    /// The active cache policy.
    pub fn policy(&self) -> CachePolicy {
        self.policy
    }

    /// Handle one DoC request, producing the CoAP response
    /// (single-peer convenience wrapper of
    /// [`DocServer::handle_request_from`]).
    pub fn handle_request(&self, req: &CoapMessage, now_ms: u64) -> CoapMessage {
        self.handle_request_from(0, req, now_ms)
    }

    /// Handle one DoC request from peer `peer` (block-wise transfer
    /// state is scoped per peer).
    ///
    /// Owned-message convenience wrapper over the wire hot path: the
    /// request is encoded once and handled as a borrowed view, so both
    /// entry points exercise exactly the same logic (the serialize pass
    /// is the deliberate price for not maintaining two request
    /// handlers; latency-sensitive callers hold wire bytes already and
    /// use [`DocServer::handle_request_wire`] directly). A message that
    /// cannot be represented on the wire (e.g. a token longer than 8
    /// bytes) is answered `4.00 Bad Request` rather than processed —
    /// with the token truncated to 8 bytes so the reply itself stays
    /// encodable.
    pub fn handle_request_from(&self, peer: u64, req: &CoapMessage, now_ms: u64) -> CoapMessage {
        if req.token.len() > 8 {
            bump(&self.stats.requests);
            bump(&self.stats.errors);
            return CoapMessage::ack_reply(
                req.message_id,
                req.token[..8].to_vec(),
                Code::BAD_REQUEST,
            );
        }
        let wire = req.encode();
        match self.handle_request_wire(peer, &wire, now_ms) {
            Ok(resp) => resp,
            Err(_) => {
                bump(&self.stats.requests);
                bump(&self.stats.errors);
                CoapMessage::ack_reply(req.message_id, req.token.clone(), Code::BAD_REQUEST)
            }
        }
    }

    /// Handle one DoC request straight from its datagram bytes — the
    /// zero-copy hot path. The CoAP request is parsed as a borrowed
    /// [`CoapView`] and the DNS query inside it as a borrowed
    /// [`MessageView`] (pure validation plus field access, no per-label
    /// `Vec`s); an owned query is materialized only at the upstream
    /// resolve boundary, where the resolver builds the response from it.
    pub fn handle_request_wire(
        &self,
        peer: u64,
        wire: &[u8],
        now_ms: u64,
    ) -> Result<CoapMessage, CoapError> {
        let req = CoapView::parse(wire)?;
        bump(&self.stats.requests);
        Ok(match self.try_handle(peer, &req, now_ms) {
            Ok(resp) => resp,
            Err(e) => {
                bump(&self.stats.errors);
                let code = match e {
                    DocError::BadEncoding | DocError::BadDnsMessage => Code::BAD_REQUEST,
                    DocError::BadRequest => Code::METHOD_NOT_ALLOWED,
                    _ => Code::INTERNAL_SERVER_ERROR,
                };
                CoapMessage::ack_reply(req.message_id, req.token().to_vec(), code)
            }
        })
    }

    fn try_handle(
        &self,
        peer: u64,
        req: &CoapView<'_>,
        now_ms: u64,
    ) -> Result<CoapMessage, DocError> {
        // Block1 reassembly: a block-wise transferred query (paper
        // Fig. 12a) is accumulated per token; non-final blocks are
        // answered 2.31 Continue. The whole push-or-finish sequence
        // runs under the key's shard lock, so concurrent blocks of one
        // transaction cannot interleave mid-assembly.
        enum Block1Outcome {
            Done(Vec<u8>),
            Continue,
            Bad,
        }
        let mut reassembled: Option<Vec<u8>> = None;
        if let Some(Ok(block1)) = BlockOpt::from_view(req, OptionNumber::BLOCK1) {
            let key = (peer, req.token().to_vec());
            let outcome = self.block1_assembly.with_shard_mut(&key, |shard| {
                let assembler = shard.entry(key.clone()).or_default();
                match assembler.push(block1, req.payload()) {
                    Ok(Some(full)) => {
                        shard.remove(&key);
                        Block1Outcome::Done(full)
                    }
                    Ok(None) => Block1Outcome::Continue,
                    Err(_) => {
                        shard.remove(&key);
                        Block1Outcome::Bad
                    }
                }
            });
            match outcome {
                Block1Outcome::Done(full) => reassembled = Some(full),
                Block1Outcome::Continue => {
                    return Ok(doc_coap::block::continue_reply(
                        req.message_id,
                        req.token().to_vec(),
                        block1,
                    ));
                }
                Block1Outcome::Bad => return Err(DocError::BadRequest),
            }
        }

        // Block2 continuation: serve the next block of a response we
        // already prepared.
        if let Some(Ok(block2)) = BlockOpt::from_view(req, OptionNumber::BLOCK2) {
            if block2.num > 0 {
                if let Some(payload) = self.block_state.get_cloned(&(peer, req.token().to_vec())) {
                    let server = Block2Server::new(payload, block2.size())
                        .map_err(|_| DocError::BadRequest)?;
                    let (slice, opt) = server
                        .block(block2.num, block2.size())
                        .map_err(|_| DocError::BadRequest)?;
                    let mut resp =
                        CoapMessage::ack_reply(req.message_id, req.token().to_vec(), Code::CONTENT);
                    resp.set_option(opt.to_option(OptionNumber::BLOCK2));
                    resp.payload = slice;
                    bump(&self.stats.full_responses);
                    return Ok(resp);
                }
            }
        }

        // FETCH/POST queries stay borrowed from the datagram (or the
        // reassembled body); only GET's base64url variable is decoded
        // into an owned buffer. Any other method is rejected by
        // `extract_query_view` regardless of Block1 reassembly.
        let query_bytes: Cow<'_, [u8]> = match reassembled {
            Some(full) if matches!(req.code, Code::FETCH | Code::POST) => {
                if full.is_empty() {
                    return Err(DocError::BadRequest);
                }
                Cow::Owned(full)
            }
            _ => extract_query_view(req)?,
        };
        // Validate the DNS query in place; materialize the owned query
        // only for the upstream resolver, which builds the response
        // message from it.
        let qview = MessageView::parse(&query_bytes).map_err(|_| DocError::BadDnsMessage)?;
        let query = qview.to_owned();
        let resolved = self.upstream.resolve(&query, now_ms);
        let prepared = self.prepare(&resolved);

        // ETag revalidation: if the client presented the current ETag,
        // confirm with 2.03 Valid carrying only ETag + Max-Age.
        if let Some(etag_opt) = req.option(OptionNumber::ETAG) {
            if etag_opt.value == prepared.etag {
                bump(&self.stats.validations);
                let mut resp =
                    CoapMessage::ack_reply(req.message_id, req.token().to_vec(), Code::VALID);
                resp.set_option(CoapOption::new(OptionNumber::ETAG, prepared.etag));
                resp.set_option(CoapOption::uint(OptionNumber::MAX_AGE, prepared.max_age));
                return Ok(resp);
            }
        }

        bump(&self.stats.full_responses);
        let mut resp = CoapMessage::ack_reply(req.message_id, req.token().to_vec(), Code::CONTENT);
        resp.set_option(CoapOption::new(OptionNumber::ETAG, prepared.etag.clone()));
        resp.set_option(CoapOption::uint(OptionNumber::MAX_AGE, prepared.max_age));
        resp.set_option(CoapOption::uint(
            OptionNumber::CONTENT_FORMAT,
            CONTENT_FORMAT_DNS_MESSAGE as u32,
        ));

        // Proactive Block2 slicing.
        let requested_size = BlockOpt::from_view(req, OptionNumber::BLOCK2)
            .and_then(|r| r.ok())
            .map(|b| b.size());
        let slice_size = requested_size.or(self.block_size);
        match slice_size {
            Some(size) if prepared.payload.len() > size => {
                self.block_state
                    .insert((peer, req.token().to_vec()), prepared.payload.clone());
                let server =
                    Block2Server::new(prepared.payload, size).map_err(|_| DocError::BadRequest)?;
                let (slice, opt) = server.block(0, size).map_err(|_| DocError::BadRequest)?;
                resp.set_option(opt.to_option(OptionNumber::BLOCK2));
                resp.payload = slice;
            }
            _ => {
                resp.payload = prepared.payload;
            }
        }
        Ok(resp)
    }

    fn prepare(&self, resolved: &Message) -> PreparedResponse {
        prepare_response(self.policy, resolved)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::{build_request, DocMethod};
    use doc_coap::msg::MsgType;

    fn name() -> Name {
        Name::parse("name-01234.c.example.org").unwrap()
    }

    fn server(policy: CachePolicy) -> DocServer {
        let up = MockUpstream::new(1, 300, 300);
        up.add_aaaa(name(), 1);
        DocServer::new(policy, up)
    }

    fn query_bytes() -> Vec<u8> {
        let mut q = Message::query(0, name(), RecordType::Aaaa);
        q.canonicalize_id();
        q.encode()
    }

    fn fetch_req(mid: u16) -> CoapMessage {
        build_request(
            DocMethod::Fetch,
            &query_bytes(),
            MsgType::Con,
            mid,
            vec![mid as u8],
        )
        .unwrap()
    }

    /// A raw query wire: `flags`, then uncompressed questions whose
    /// labels keep the case they are given in.
    fn raw_query(flags: u16, questions: &[(&str, u16, u16)]) -> Vec<u8> {
        let mut w = vec![0x12, 0x34];
        w.extend_from_slice(&flags.to_be_bytes());
        w.extend_from_slice(&(questions.len() as u16).to_be_bytes());
        w.extend_from_slice(&[0; 6]);
        for &(name, qtype, qclass) in questions {
            for label in name.split('.').filter(|l| !l.is_empty()) {
                w.push(label.len() as u8);
                w.extend_from_slice(label.as_bytes());
            }
            w.push(0);
            w.extend_from_slice(&qtype.to_be_bytes());
            w.extend_from_slice(&qclass.to_be_bytes());
        }
        w
    }

    /// `resolve_into` on a view writes exactly the bytes of the owned
    /// `resolve(..).encode()`, on twin upstreams driven in lock-step
    /// across TTL expiries: mixed case, 0/1/2/3 questions (one
    /// compressed), the root name, unknown types/classes/opcodes,
    /// NXDOMAIN and name-bearing RDATA.
    #[test]
    fn resolve_into_matches_owned_resolve_encode() {
        let mk = || {
            let up = MockUpstream::new(5, 1, 3);
            up.add_aaaa(name(), 3);
            up.add_a(Name::parse("b.example.org").unwrap(), 2);
            up.add_rrset(
                Name::root(),
                RecordType::Ns,
                vec![RecordData::Ns(Name::parse("a.root-servers.net").unwrap())],
            );
            up.add_rrset(
                Name::parse("x.example.org").unwrap(),
                RecordType::Other(999),
                vec![RecordData::Raw(vec![1, 2, 3])],
            );
            up
        };
        let (ours, theirs) = (mk(), mk());
        let mut compressed = raw_query(0x0100, &[("b.example.org", 1, 1)]);
        compressed[5] = 2;
        compressed.extend_from_slice(&[0xC0, 0x0C, 0, 28, 0, 1]);
        let queries = [
            raw_query(0x0100, &[("Name-01234.C.Example.ORG", 28, 1)]),
            raw_query(0x0000, &[]),
            raw_query(0x0100, &[("", 2, 1)]),
            raw_query(0x0100, &[("missing.example.org", 28, 1)]),
            raw_query(0x2900, &[("X.example.org", 999, 3)]),
            raw_query(
                0x0100,
                &[
                    ("name-01234.c.example.org", 28, 1),
                    ("B.example.org", 1, 1),
                    ("name-01234.c.EXAMPLE.org", 28, 1),
                ],
            ),
            compressed,
        ];
        let mut out = Vec::new();
        for now_ms in [0, 400, 1_200, 2_500, 2_600, 7_000] {
            for wire in &queries {
                let view = MessageView::parse(wire).unwrap();
                ours.resolve_into(&view, now_ms, &mut out);
                let expected = theirs.resolve(&view.to_owned(), now_ms).encode();
                assert_eq!(out, expected, "t={now_ms} query {wire:02x?}");
            }
        }
        assert_eq!(ours.ns_queries(), theirs.ns_queries());
        assert!(ours.ns_queries() > 5, "TTLs expired across calls");
        assert_eq!(ours.cache_hits(), theirs.cache_hits());
    }

    #[test]
    fn resolves_fetch_request() {
        let s = server(CachePolicy::EolTtls);
        let resp = s.handle_request(&fetch_req(1), 0);
        assert_eq!(resp.code, Code::CONTENT);
        assert_eq!(resp.max_age(), 300);
        assert!(resp.option(OptionNumber::ETAG).is_some());
        let msg = Message::decode(&resp.payload).unwrap();
        assert_eq!(msg.answers.len(), 1);
        assert_eq!(msg.answers[0].ttl, 0, "EOL TTLs zeroed");
        assert_eq!(msg.header.rcode, Rcode::NoError);
    }

    /// The wire entry point (borrowed-view hot path) matches the owned
    /// one byte for byte, including error replies.
    #[test]
    fn wire_path_matches_owned_path() {
        let s1 = server(CachePolicy::EolTtls);
        let s2 = server(CachePolicy::EolTtls);
        let req = fetch_req(1);
        let owned = s1.handle_request(&req, 0);
        let via_wire = s2.handle_request_wire(0, &req.encode(), 0).unwrap();
        assert_eq!(owned, via_wire);
        // Malformed DNS payload → 4.00 via both paths.
        let bad = build_request(DocMethod::Fetch, &[1, 2, 3], MsgType::Con, 2, vec![2]).unwrap();
        assert_eq!(
            s1.handle_request(&bad, 0),
            s2.handle_request_wire(0, &bad.encode(), 0).unwrap()
        );
        // Malformed CoAP datagram is rejected, not panicked on.
        assert!(s2.handle_request_wire(0, &[0xFF], 0).is_err());
    }

    #[test]
    fn doh_like_keeps_ttls() {
        let s = server(CachePolicy::DohLike);
        let resp = s.handle_request(&fetch_req(1), 0);
        let msg = Message::decode(&resp.payload).unwrap();
        assert_eq!(msg.answers[0].ttl, 300);
    }

    #[test]
    fn get_and_post_also_work() {
        for method in [DocMethod::Get, DocMethod::Post] {
            let s = server(CachePolicy::EolTtls);
            let req = build_request(method, &query_bytes(), MsgType::Con, 5, vec![5]).unwrap();
            let resp = s.handle_request(&req, 0);
            assert_eq!(resp.code, Code::CONTENT, "{method:?}");
        }
    }

    #[test]
    fn nxdomain_for_unknown_name() {
        let up = MockUpstream::new(1, 60, 60);
        up.add_aaaa(name(), 1);
        let s = DocServer::new(CachePolicy::EolTtls, up);
        let mut q = Message::query(
            0,
            Name::parse("other.example.org").unwrap(),
            RecordType::Aaaa,
        );
        q.canonicalize_id();
        let req = build_request(DocMethod::Fetch, &q.encode(), MsgType::Con, 1, vec![1]).unwrap();
        let resp = s.handle_request(&req, 0);
        assert_eq!(resp.code, Code::CONTENT);
        let msg = Message::decode(&resp.payload).unwrap();
        assert_eq!(msg.header.rcode, Rcode::NxDomain);
        assert!(msg.answers.is_empty());
    }

    #[test]
    fn etag_revalidation_valid() {
        let s = server(CachePolicy::EolTtls);
        let resp1 = s.handle_request(&fetch_req(1), 0);
        let etag = resp1.option(OptionNumber::ETAG).unwrap().value.clone();
        // Client revalidates with the ETag (records unchanged).
        let mut req2 = fetch_req(2);
        req2.set_option(CoapOption::new(OptionNumber::ETAG, etag.clone()));
        let resp2 = s.handle_request(&req2, 1000);
        assert_eq!(resp2.code, Code::VALID);
        assert!(resp2.payload.is_empty());
        assert_eq!(resp2.option(OptionNumber::ETAG).unwrap().value, etag);
        assert_eq!(s.stats().validations, 1);
    }

    /// Fig. 3 steps 3/4: when a revalidation hits the upstream while
    /// the RRset's TTL has *decayed* (another client refreshed it
    /// earlier), DoH-like revalidation fails (TTL change ⇒ new ETag ⇒
    /// full transfer) while EOL TTLs still validates.
    #[test]
    fn revalidation_across_ttl_refresh() {
        let mk = |policy| {
            let up = MockUpstream::new(7, 5, 5);
            up.add_aaaa(name(), 1);
            DocServer::new(policy, up)
        };
        for (policy, expect_valid) in [(CachePolicy::DohLike, false), (CachePolicy::EolTtls, true)]
        {
            let s = mk(policy);
            // t=0: our client caches the response (TTL 5, ETag e1).
            let resp1 = s.handle_request(&fetch_req(1), 0);
            let etag = resp1.option(OptionNumber::ETAG).unwrap().value.clone();
            // t=7 s: another client's query refreshes the RRset.
            s.handle_request(&fetch_req(9), 7_000);
            // t=9 s: we revalidate; remaining TTL is now 3 s ≠ 5 s.
            let mut req2 = fetch_req(2);
            req2.set_option(CoapOption::new(OptionNumber::ETAG, etag));
            let resp2 = s.handle_request(&req2, 9_000);
            if expect_valid {
                assert_eq!(resp2.code, Code::VALID, "{policy:?}");
                assert_eq!(resp2.max_age(), 3);
            } else {
                assert_eq!(resp2.code, Code::CONTENT, "{policy:?}");
                assert!(!resp2.payload.is_empty());
            }
        }
    }

    #[test]
    fn upstream_ttl_decrements_between_queries() {
        let s = server(CachePolicy::DohLike);
        let r1 = s.handle_request(&fetch_req(1), 0);
        assert_eq!(r1.max_age(), 300);
        let r2 = s.handle_request(&fetch_req(2), 100_000);
        assert_eq!(r2.max_age(), 200);
        assert_eq!(s.upstream.ns_queries(), 1);
        assert_eq!(s.upstream.cache_hits(), 1);
    }

    #[test]
    fn malformed_dns_rejected() {
        let s = server(CachePolicy::EolTtls);
        let req = build_request(DocMethod::Fetch, &[1, 2, 3], MsgType::Con, 1, vec![1]).unwrap();
        let resp = s.handle_request(&req, 0);
        assert_eq!(resp.code, Code::BAD_REQUEST);
        assert_eq!(s.stats().errors, 1);
    }

    #[test]
    fn wrong_method_rejected() {
        let s = server(CachePolicy::EolTtls);
        let req =
            CoapMessage::request(Code::PUT, MsgType::Con, 1, vec![1]).with_payload(query_bytes());
        let resp = s.handle_request(&req, 0);
        assert_eq!(resp.code, Code::METHOD_NOT_ALLOWED);
    }

    /// Regression: a Block1-reassembled request must still pass method
    /// validation — a PUT carrying a final Block1 is not a DoC query.
    #[test]
    fn wrong_method_with_block1_rejected() {
        let s = server(CachePolicy::EolTtls);
        let mut req =
            CoapMessage::request(Code::PUT, MsgType::Con, 1, vec![1]).with_payload(query_bytes());
        req.set_option(
            doc_coap::block::BlockOpt::new(0, false, 64)
                .unwrap()
                .to_option(OptionNumber::BLOCK1),
        );
        let resp = s.handle_request(&req, 0);
        assert_eq!(resp.code, Code::METHOD_NOT_ALLOWED);
    }

    #[test]
    fn block2_slicing() {
        let up = MockUpstream::new(1, 300, 300);
        up.add_aaaa(name(), 4); // 4 AAAA records: >100-byte response
        let s = DocServer::new(CachePolicy::EolTtls, up).with_block_size(32);
        let resp0 = s.handle_request(&fetch_req(1), 0);
        assert_eq!(resp0.code, Code::CONTENT);
        let b0 = BlockOpt::from_message(&resp0, OptionNumber::BLOCK2)
            .unwrap()
            .unwrap();
        assert_eq!(b0.num, 0);
        assert!(b0.more);
        assert_eq!(resp0.payload.len(), 32);

        // Fetch remaining blocks and reassemble.
        let mut assembler = doc_coap::block::BlockAssembler::new();
        let mut full = assembler.push(b0, &resp0.payload).unwrap();
        let mut num = 1;
        while full.is_none() {
            // Follow-up blocks reuse the token of the transaction.
            let mut req = fetch_req(1);
            req.message_id = 10 + num as u16;
            req.set_option(
                BlockOpt::new(num, false, 32)
                    .unwrap()
                    .to_option(OptionNumber::BLOCK2),
            );
            let resp = s.handle_request(&req, 0);
            assert_eq!(resp.code, Code::CONTENT);
            let b = BlockOpt::from_message(&resp, OptionNumber::BLOCK2)
                .unwrap()
                .unwrap();
            full = assembler.push(b, &resp.payload).unwrap();
            num += 1;
        }
        let msg = Message::decode(&full.unwrap()).unwrap();
        assert_eq!(msg.answers.len(), 4);
    }

    #[test]
    fn multiple_names_tracked_independently() {
        let n2 = Name::parse("second.example.org").unwrap();
        let up = MockUpstream::new(3, 300, 300);
        up.add_aaaa(name(), 1);
        up.add_a(n2.clone(), 2);
        let s = DocServer::new(CachePolicy::EolTtls, up);
        let mut q2 = Message::query(0, n2, RecordType::A);
        q2.canonicalize_id();
        let req2 = build_request(DocMethod::Fetch, &q2.encode(), MsgType::Con, 9, vec![9]).unwrap();
        let resp = s.handle_request(&req2, 0);
        let msg = Message::decode(&resp.payload).unwrap();
        assert_eq!(msg.answers.len(), 2);
        assert!(matches!(msg.answers[0].data, RecordData::A(_)));
    }
}
