//! A DoC-agnostic caching CoAP forward proxy — the node `P` of the
//! paper's Fig. 2/3.
//!
//! The proxy never parses DNS. It works purely on the CoAP caching
//! model: cache keys over method/options/payload, Max-Age freshness,
//! and ETag revalidation towards the origin. That is the point of the
//! paper's §4.2 design — and with OSCORE the proxy caches *encrypted*
//! responses it cannot read (Fig. 4b).
//!
//! A request has one way in, [`CoapProxy::serve_wire`]: it parses the
//! datagram as a borrowed [`CoapView`], derives the cache key, and
//! probes the cache once. A fresh hit is encoded straight into the
//! caller's reply buffer; a miss, a stale entry or a non-cacheable
//! method becomes a [`WireAction::Forward`], whose upstream answer
//! comes back through [`CoapProxy::handle_upstream_response`]. The
//! paper simulation and the worker pool both drive this same path.
//!
//! The proxy is **thread-safe**: every public method takes `&self`, so
//! an `Arc<CoapProxy>` can be shared across the workers of a
//! [`crate::pool`] front-end. Internally the response cache and the
//! outstanding-exchange table are lock-striped
//! ([`ShardedResponseCache`]/[`ShardedCache`]) and the statistics are
//! atomics; single-threaded callers pay only uncontended locks, and
//! with a single shard (the [`CoapProxy::new`] default) behaviour is
//! bit-identical to the historical unsharded proxy, FIFO eviction
//! included.

use doc_coap::cache::{cache_key_view_reusing, is_cacheable_method, CacheKey, Probe};
use doc_coap::msg::{CoapMessage, Code};
use doc_coap::opt::{CoapOption, OptionNumber};
use doc_coap::shard::{ShardedCache, ShardedResponseCache};
use doc_coap::view::CoapView;
use doc_coap::CoapError;
// Model-checkable atomics (passthrough to `std` outside `check_gate`
// executions — see `crates/check`).
use doc_check::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// What [`CoapProxy::serve_wire`] did with the request.
#[derive(Debug, PartialEq, Eq)]
pub enum WireAction {
    /// The reply wire was encoded into the caller's buffer.
    Responded,
    /// Forward this request upstream. It still carries the client's
    /// MID and token (the caller's endpoint assigns fresh ones) and,
    /// when revalidating a stale entry, the cached ETag.
    Forward {
        /// Request to send upstream.
        request: Box<CoapMessage>,
        /// Correlation handle for [`CoapProxy::handle_upstream_response`].
        exchange_id: u64,
    },
}

/// Reusable per-caller scratch for [`CoapProxy::serve_wire`] — holds
/// the buffers the wire hot path would otherwise allocate per request.
#[derive(Debug, Default)]
pub struct ProxyScratch {
    /// Cache-key bytes, recycled between requests (see
    /// [`cache_key_view_reusing`]).
    key_buf: Vec<u8>,
}

/// Proxy statistics (Fig. 10/11 cache events at `P`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Client requests processed.
    pub requests: u32,
    /// Served fresh from cache without upstream traffic.
    pub cache_hits: u32,
    /// Upstream revalidations attempted.
    pub revalidations: u32,
    /// `2.03 Valid` received (revalidation succeeded).
    pub revalidated: u32,
    /// Full fetches forwarded upstream.
    pub forwards: u32,
}

/// A forwarded request's state: exactly what
/// [`CoapProxy::handle_upstream_response`] needs to answer the client.
struct Outstanding {
    key: CacheKey,
    client_mid: u16,
    client_token: Vec<u8>,
    /// Whether the request method's responses may be cached.
    cacheable: bool,
    /// The client's own ETag — not the one the proxy revalidates with.
    client_etag: Option<Vec<u8>>,
    revalidating: bool,
}

/// Lock-free statistics counters behind the [`ProxyStats`] snapshot.
#[derive(Default)]
struct AtomicProxyStats {
    requests: AtomicU32,
    cache_hits: AtomicU32,
    revalidations: AtomicU32,
    revalidated: AtomicU32,
    forwards: AtomicU32,
}

impl AtomicProxyStats {
    fn snapshot(&self) -> ProxyStats {
        ProxyStats {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            revalidations: self.revalidations.load(Ordering::Relaxed),
            revalidated: self.revalidated.load(Ordering::Relaxed),
            forwards: self.forwards.load(Ordering::Relaxed),
        }
    }
}

/// Bump a counter by one (relaxed: counters are advisory statistics).
fn bump(c: &AtomicU32) {
    c.fetch_add(1, Ordering::Relaxed);
}

/// The caching forward proxy.
pub struct CoapProxy {
    cache: ShardedResponseCache,
    outstanding: ShardedCache<u64, Outstanding>,
    next_exchange: AtomicU64,
    stats: AtomicProxyStats,
}

impl Default for CoapProxy {
    fn default() -> Self {
        Self::new(50)
    }
}

impl CoapProxy {
    /// Create a proxy with a cache of `capacity` entries (the paper's
    /// proxy uses `CONFIG_NANOCOAP_CACHE_ENTRIES = 50`, Table 6) on a
    /// single shard — observationally identical to the historical
    /// unsharded proxy, which the paper-reproduction experiments rely
    /// on.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, 1)
    }

    /// Create a proxy whose response cache and exchange table are
    /// striped over `shards` locks — the scale-out configuration used
    /// by the [`crate::pool`] worker front-end. `capacity` is the
    /// *total* cache budget, split evenly across shards.
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        CoapProxy {
            cache: ShardedResponseCache::new(capacity, shards),
            outstanding: ShardedCache::new(shards),
            next_exchange: AtomicU64::new(0),
            stats: AtomicProxyStats::default(),
        }
    }

    /// A snapshot of the proxy statistics.
    pub fn stats(&self) -> ProxyStats {
        self.stats.snapshot()
    }

    /// Cache statistics from the underlying response cache.
    pub fn cache_stats(&self) -> doc_coap::cache::CacheStats {
        self.cache.stats()
    }

    /// Handle a client request at time `now_ms`, straight from its
    /// datagram bytes. The request is parsed as a borrowed
    /// [`CoapView`] and its cache key is derived into `scratch`'s
    /// recycled buffer. A cacheable request then probes the cache
    /// once, under one shard lock: a fresh hit encodes the reply into
    /// `out` (cleared first) and allocates nothing; a stale entry is
    /// revalidated upstream with its ETag; a miss is fetched in full.
    /// Non-cacheable methods (POST) always pass through. The request
    /// is materialized with `to_owned()` only when it is forwarded.
    /// A malformed datagram is an `Err` and is not counted.
    pub fn serve_wire(
        &self,
        wire: &[u8],
        now_ms: u64,
        scratch: &mut ProxyScratch,
        out: &mut Vec<u8>,
    ) -> Result<WireAction, CoapError> {
        let req = CoapView::parse(wire)?;
        bump(&self.stats.requests);
        let key = cache_key_view_reusing(&req, std::mem::take(&mut scratch.key_buf));
        if !is_cacheable_method(req.code) {
            bump(&self.stats.forwards);
            return Ok(self.forward(key, &req, false, None));
        }
        let client_etag = req.option(OptionNumber::ETAG).map(|o| o.value);
        let probe =
            self.cache
                .serve_hit_into(&key, now_ms, req.message_id, req.token(), client_etag, out);
        Ok(match probe {
            Probe::Served => {
                bump(&self.stats.cache_hits);
                scratch.key_buf = key.into_bytes();
                WireAction::Responded
            }
            Probe::Stale => {
                bump(&self.stats.revalidations);
                // The probe left the cached ETag in `out`.
                let action = self.forward(key, &req, true, Some(out.as_slice()));
                out.clear();
                action
            }
            Probe::Miss => {
                bump(&self.stats.forwards);
                self.forward(key, &req, true, None)
            }
        })
    }

    /// Park the exchange state and hand the request upstream; with
    /// `revalidate`, the proxy's cached ETag replaces the client's on
    /// the upstream request (the client's own is kept for the reply).
    fn forward(
        &self,
        key: CacheKey,
        req: &CoapView<'_>,
        cacheable: bool,
        revalidate: Option<&[u8]>,
    ) -> WireAction {
        let mut request = req.to_owned();
        let client_etag = request.option(OptionNumber::ETAG).map(|o| o.value.clone());
        let revalidating = revalidate.is_some();
        if let Some(etag) = revalidate {
            request.set_option(CoapOption::new(OptionNumber::ETAG, etag.to_vec()));
        }
        let id = self.next_exchange.fetch_add(1, Ordering::Relaxed);
        self.outstanding.insert(
            id,
            Outstanding {
                key,
                client_mid: req.message_id,
                client_token: req.token().to_vec(),
                cacheable,
                client_etag,
                revalidating,
            },
        );
        WireAction::Forward {
            request: Box::new(request),
            exchange_id: id,
        }
    }

    /// Handle the upstream's response for `exchange_id`; returns the
    /// response to relay to the client (None if the exchange is
    /// unknown).
    pub fn handle_upstream_response(
        &self,
        exchange_id: u64,
        resp: &CoapMessage,
        now_ms: u64,
    ) -> Option<CoapMessage> {
        // The exchange state is consumed here: its identifiers move
        // into the reply instead of being cloned.
        let Outstanding {
            key,
            client_mid,
            client_token,
            cacheable,
            client_etag,
            revalidating,
        } = self.outstanding.remove(&exchange_id)?;
        match resp.code {
            Code::VALID if revalidating => {
                bump(&self.stats.revalidated);
                match self.cache.revalidate(&key, resp, now_ms) {
                    Some(entry) => Some(Self::reply_from_entry(
                        client_mid,
                        client_token,
                        &entry,
                        client_etag.as_deref(),
                    )),
                    // Entry evicted meanwhile: degrade to an error the
                    // client will retry.
                    None => Some(CoapMessage::ack_reply(
                        client_mid,
                        client_token,
                        Code::BAD_GATEWAY,
                    )),
                }
            }
            code if code.is_success() => {
                if cacheable && code == Code::CONTENT {
                    self.cache.insert(key, resp.clone(), now_ms);
                }
                Some(Self::reply_from_entry(
                    client_mid,
                    client_token,
                    resp,
                    client_etag.as_deref(),
                ))
            }
            _ => {
                // Error responses pass through unchanged (re-keyed to
                // the client's exchange).
                let mut relay = resp.clone();
                relay.message_id = client_mid;
                relay.token = client_token;
                Some(relay)
            }
        }
    }

    /// Build the client-facing reply from an upstream or refreshed
    /// entry, downgrading to `2.03 Valid` when the client already holds
    /// the same representation (its ETag matches). The client token is
    /// moved from the consumed exchange state, never cloned.
    fn reply_from_entry(
        client_mid: u16,
        client_token: Vec<u8>,
        entry: &CoapMessage,
        client_etag: Option<&[u8]>,
    ) -> CoapMessage {
        let entry_etag = entry.option(OptionNumber::ETAG).map(|o| o.value.clone());
        if client_etag.is_some() && client_etag == entry_etag.as_deref() {
            let mut v = CoapMessage::ack_reply(client_mid, client_token, Code::VALID);
            if let Some(e) = entry_etag {
                v.set_option(CoapOption::new(OptionNumber::ETAG, e));
            }
            v.set_option(CoapOption::uint(OptionNumber::MAX_AGE, entry.max_age()));
            v
        } else {
            let mut full = entry.clone();
            full.message_id = client_mid;
            full.token = client_token;
            full.mtype = doc_coap::msg::MsgType::Ack;
            full
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::{build_request, DocMethod};
    use crate::policy::CachePolicy;
    use crate::server::{DocServer, MockUpstream};
    use doc_coap::msg::MsgType;
    use doc_dns::{Message, Name, RecordType};

    fn name() -> Name {
        Name::parse("name-01234.c.example.org").unwrap()
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
            vec![mid as u8, 0xCC],
        )
        .unwrap()
    }

    fn doc_server(policy: CachePolicy, ttl: u32) -> DocServer {
        let up = MockUpstream::new(5, ttl, ttl);
        up.add_aaaa(name(), 1);
        DocServer::new(policy, up)
    }

    /// Serve `req` through the wire entry point with fresh scratch.
    fn serve(proxy: &CoapProxy, req: &CoapMessage, now: u64, out: &mut Vec<u8>) -> WireAction {
        let mut scratch = ProxyScratch::default();
        proxy
            .serve_wire(&req.encode(), now, &mut scratch, out)
            .expect("well-formed request")
    }

    /// The upstream request and exchange of a request that must miss.
    fn forwarded(proxy: &CoapProxy, req: &CoapMessage, now: u64) -> (Box<CoapMessage>, u64) {
        match serve(proxy, req, now, &mut Vec::new()) {
            WireAction::Forward {
                request,
                exchange_id,
            } => (request, exchange_id),
            other => panic!("{other:?}"),
        }
    }

    /// Drive request → proxy → server → proxy → response.
    fn via_proxy(
        proxy: &CoapProxy,
        server: &DocServer,
        req: &CoapMessage,
        now: u64,
    ) -> CoapMessage {
        let mut out = Vec::new();
        match serve(proxy, req, now, &mut out) {
            WireAction::Responded => CoapMessage::decode(&out).expect("reply decodes"),
            WireAction::Forward {
                request,
                exchange_id,
            } => {
                let upstream_resp = server.handle_request(&request, now);
                proxy
                    .handle_upstream_response(exchange_id, &upstream_resp, now)
                    .expect("known exchange")
            }
        }
    }

    #[test]
    fn miss_then_hit() {
        let proxy = CoapProxy::new(8);
        let server = doc_server(CachePolicy::EolTtls, 300);
        let r1 = via_proxy(&proxy, &server, &fetch_req(1), 0);
        assert_eq!(r1.code, Code::CONTENT);
        assert_eq!(proxy.stats().forwards, 1);
        // Second client request: cache hit, no upstream traffic.
        let r2 = via_proxy(&proxy, &server, &fetch_req(2), 10_000);
        assert_eq!(r2.code, Code::CONTENT);
        assert_eq!(proxy.stats().cache_hits, 1);
        assert_eq!(server.stats().requests, 1, "server not contacted again");
        // Max-Age was decremented by the proxy.
        assert_eq!(r2.max_age(), 290);
        // Token/MID belong to the second client exchange.
        assert_eq!(r2.token, fetch_req(2).token);
    }

    /// Miss → hit → ETag-match `2.03` → POST pass-through on the wire
    /// entry point: each reply keyed to its own client exchange, and
    /// every outcome counted exactly once in both statistics surfaces.
    #[test]
    fn miss_then_hit_on_wire_path() {
        let proxy = CoapProxy::new(8);
        let server = doc_server(CachePolicy::EolTtls, 300);
        let r1 = via_proxy(&proxy, &server, &fetch_req(1), 0);
        assert_eq!(
            (r1.code, r1.message_id, r1.token.as_slice(), r1.max_age()),
            (Code::CONTENT, 1, &[1, 0xCC][..], 300)
        );
        assert_eq!(r1.mtype, MsgType::Ack);
        let etag = r1.option(OptionNumber::ETAG).unwrap().value.clone();
        // Hit: the cached body under the second client's identifiers.
        let r2 = via_proxy(&proxy, &server, &fetch_req(2), 10_000);
        assert_eq!(
            (r2.code, r2.message_id, r2.token.as_slice(), r2.max_age()),
            (Code::CONTENT, 2, &[2, 0xCC][..], 290)
        );
        assert_eq!(r2.payload, r1.payload);
        // The client already holds the representation: `2.03`.
        let mut req3 = fetch_req(3);
        req3.set_option(CoapOption::new(OptionNumber::ETAG, etag.clone()));
        let r3 = via_proxy(&proxy, &server, &req3, 20_000);
        assert_eq!(
            (r3.code, r3.message_id, r3.token.as_slice(), r3.max_age()),
            (Code::VALID, 3, &[3, 0xCC][..], 280)
        );
        assert!(r3.payload.is_empty());
        assert_eq!(r3.option(OptionNumber::ETAG).unwrap().value, etag);
        // POST is never cached: it reaches the origin.
        let post = build_request(
            DocMethod::Post,
            &query_bytes(),
            MsgType::Con,
            4,
            vec![4, 0xCC],
        )
        .unwrap();
        let r4 = via_proxy(&proxy, &server, &post, 21_000);
        assert_eq!(
            (r4.code, r4.message_id, r4.token.as_slice()),
            (Code::CONTENT, 4, &[4, 0xCC][..])
        );
        // Malformed datagrams error out, not panic, and are not counted.
        let mut scratch = ProxyScratch::default();
        assert!(proxy
            .serve_wire(&[0xFF, 0x01], 0, &mut scratch, &mut Vec::new())
            .is_err());
        assert_eq!(
            proxy.stats(),
            ProxyStats {
                requests: 4,
                cache_hits: 2,
                revalidations: 0,
                revalidated: 0,
                forwards: 2,
            }
        );
        assert_eq!(
            proxy.cache_stats(),
            doc_coap::cache::CacheStats {
                hits: 2,
                misses: 1,
                ..Default::default()
            }
        );
        assert_eq!(server.stats().requests, 2);
    }

    /// `serve_wire` threading one recycled [`ProxyScratch`] and one
    /// reply buffer through a whole sequence must be observationally
    /// identical to the wire entry point driven with fresh state per
    /// request: byte-identical replies, same statistics, same upstream
    /// traffic. Covers miss, hit, ETag-match `2.03`, POST pass-through,
    /// a malformed datagram mid-sequence and a stale revalidation.
    #[test]
    fn serve_wire_matches_wire_entry_point() {
        let mk = || (CoapProxy::new(8), doc_server(CachePolicy::EolTtls, 300));
        let (p_ref, s_ref) = mk();
        let (p_new, s_new) = mk();
        let mut scratch = ProxyScratch::default();
        let mut out = Vec::new();
        // The ETag the client of request 3 already holds.
        let (p_etag, s_etag) = mk();
        let r1 = via_proxy(&p_etag, &s_etag, &fetch_req(1), 0);
        let etag = r1.option(OptionNumber::ETAG).unwrap().value.clone();
        let mut req3 = fetch_req(3);
        req3.set_option(CoapOption::new(OptionNumber::ETAG, etag));
        let post = build_request(
            DocMethod::Post,
            &query_bytes(),
            MsgType::Con,
            4,
            vec![4, 0xCC],
        )
        .unwrap();
        let reqs = [
            (fetch_req(1), 0u64),
            (fetch_req(2), 10_000),
            (req3, 20_000),
            (post, 21_000),
            (fetch_req(5), 400_000),
            (fetch_req(6), 401_000),
        ];
        for (i, (req, now)) in reqs.iter().enumerate() {
            if i == 3 {
                // A malformed datagram must leave the recycled state usable.
                assert!(p_new
                    .serve_wire(&[0xFF, 0x01], *now, &mut scratch, &mut out)
                    .is_err());
            }
            match p_new
                .serve_wire(&req.encode(), *now, &mut scratch, &mut out)
                .unwrap()
            {
                WireAction::Responded => {}
                WireAction::Forward {
                    request,
                    exchange_id,
                } => {
                    let up = s_new.handle_request(&request, *now);
                    let reply = p_new
                        .handle_upstream_response(exchange_id, &up, *now)
                        .expect("known exchange");
                    out.clear();
                    reply.encode_into(&mut out);
                }
            }
            let expect = via_proxy(&p_ref, &s_ref, req, *now);
            assert_eq!(out, expect.encode(), "now {now}");
        }
        assert_eq!(p_new.stats(), p_ref.stats());
        assert_eq!(p_new.stats().revalidations, 1, "stale path exercised");
        assert_eq!(s_new.stats().requests, s_ref.stats().requests);
        assert_eq!(p_new.cache_stats(), p_ref.cache_stats());
    }

    #[test]
    fn stale_entry_revalidates_eol() {
        let proxy = CoapProxy::new(8);
        let server = doc_server(CachePolicy::EolTtls, 5);
        via_proxy(&proxy, &server, &fetch_req(1), 0);
        // Another client refreshes the RRset at the origin at t=7 s.
        server.handle_request(&fetch_req(9), 7_000);
        // At t=9 s the proxy entry is stale; EOL TTLs lets the upstream
        // confirm with 2.03 and the proxy serves the cached body.
        let r = via_proxy(&proxy, &server, &fetch_req(2), 9_000);
        assert_eq!(r.code, Code::CONTENT);
        assert!(!r.payload.is_empty());
        assert_eq!(proxy.stats().revalidations, 1);
        assert_eq!(proxy.stats().revalidated, 1);
        assert_eq!(server.stats().validations, 1);
        // Fresh (decayed) Max-Age propagated: 3 s remaining.
        assert_eq!(r.max_age(), 3);
    }

    /// Revalidating a stale entry sends the proxy's cached ETag
    /// upstream, but the relayed reply is judged against the client's
    /// own ETag: a client holding another representation gets the full
    /// body, a client holding the cached one gets `2.03`.
    #[test]
    fn stale_revalidation_answers_the_clients_own_etag() {
        for client_holds_entry in [false, true] {
            let proxy = CoapProxy::new(8);
            let server = doc_server(CachePolicy::EolTtls, 5);
            let r1 = via_proxy(&proxy, &server, &fetch_req(1), 0);
            let cached = r1.option(OptionNumber::ETAG).unwrap().value.clone();
            server.handle_request(&fetch_req(9), 7_000);
            let own = if client_holds_entry {
                cached.clone()
            } else {
                vec![0xEE, 0xEE]
            };
            let mut req = fetch_req(2);
            req.set_option(CoapOption::new(OptionNumber::ETAG, own));
            let (upstream_req, id) = forwarded(&proxy, &req, 9_000);
            assert_eq!(
                upstream_req.option(OptionNumber::ETAG).unwrap().value,
                cached,
                "the proxy revalidates its own entry"
            );
            let valid = server.handle_request(&upstream_req, 9_000);
            assert_eq!(valid.code, Code::VALID);
            let r = proxy.handle_upstream_response(id, &valid, 9_000).unwrap();
            let expect = if client_holds_entry {
                Code::VALID
            } else {
                Code::CONTENT
            };
            assert_eq!(r.code, expect);
            assert_eq!(r.payload.is_empty(), client_holds_entry);
            assert_eq!(r.option(OptionNumber::ETAG).unwrap().value, cached);
            assert_eq!((r.message_id, r.token.as_slice()), (2, &[2, 0xCC][..]));
            assert_eq!(
                (proxy.stats().revalidations, proxy.stats().revalidated),
                (1, 1)
            );
        }
    }

    #[test]
    fn stale_entry_full_fetch_doh_like() {
        let proxy = CoapProxy::new(8);
        let server = doc_server(CachePolicy::DohLike, 5);
        via_proxy(&proxy, &server, &fetch_req(1), 0);
        // Upstream TTL decays via another client's refresh (Fig. 3
        // step 3): the DoH-like payload changes.
        server.handle_request(&fetch_req(9), 7_000);
        let r = via_proxy(&proxy, &server, &fetch_req(2), 9_000);
        assert_eq!(r.code, Code::CONTENT);
        assert_eq!(proxy.stats().revalidations, 1);
        assert_eq!(proxy.stats().revalidated, 0, "DoH-like ETag broke");
        assert_eq!(server.stats().validations, 0);
        assert_eq!(server.stats().full_responses, 3);
    }

    /// Fig. 3 step 5: a client that already holds the representation
    /// (same ETag) gets a tiny 2.03 from the proxy cache.
    #[test]
    fn client_etag_match_gets_203_from_proxy() {
        let proxy = CoapProxy::new(8);
        let server = doc_server(CachePolicy::EolTtls, 300);
        let r1 = via_proxy(&proxy, &server, &fetch_req(1), 0);
        let etag = r1.option(OptionNumber::ETAG).unwrap().value.clone();
        let mut req2 = fetch_req(2);
        req2.set_option(CoapOption::new(OptionNumber::ETAG, etag));
        let r2 = via_proxy(&proxy, &server, &req2, 5_000);
        assert_eq!(r2.code, Code::VALID);
        assert!(r2.payload.is_empty());
        assert_eq!(r2.max_age(), 295);
    }

    #[test]
    fn post_bypasses_cache() {
        let proxy = CoapProxy::new(8);
        let server = doc_server(CachePolicy::EolTtls, 300);
        let mk = |mid: u16| {
            build_request(
                DocMethod::Post,
                &query_bytes(),
                MsgType::Con,
                mid,
                vec![mid as u8],
            )
            .unwrap()
        };
        via_proxy(&proxy, &server, &mk(1), 0);
        via_proxy(&proxy, &server, &mk(2), 1000);
        assert_eq!(proxy.stats().cache_hits, 0);
        assert_eq!(server.stats().requests, 2, "every POST reaches the origin");
    }

    #[test]
    fn error_responses_pass_through() {
        let proxy = CoapProxy::new(8);
        let req = fetch_req(1);
        let (fwd, id) = forwarded(&proxy, &req, 0);
        let err = CoapMessage::ack_response(&fwd, Code::NOT_FOUND);
        let relay = proxy.handle_upstream_response(id, &err, 0).unwrap();
        assert_eq!(relay.code, Code::NOT_FOUND);
        assert_eq!(relay.token, req.token);
    }

    #[test]
    fn unknown_exchange_ignored() {
        let proxy = CoapProxy::new(8);
        let resp = CoapMessage::ack_response(&fetch_req(1), Code::CONTENT);
        assert!(proxy.handle_upstream_response(99, &resp, 0).is_none());
    }

    #[test]
    fn different_queries_different_entries() {
        let proxy = CoapProxy::new(8);
        let server = doc_server(CachePolicy::EolTtls, 300);
        server
            .upstream
            .add_aaaa(Name::parse("other.example.org").unwrap(), 1);
        via_proxy(&proxy, &server, &fetch_req(1), 0);
        // A query for a different name must miss.
        let mut q2 = Message::query(
            0,
            Name::parse("other.example.org").unwrap(),
            RecordType::Aaaa,
        );
        q2.canonicalize_id();
        let req2 = build_request(DocMethod::Fetch, &q2.encode(), MsgType::Con, 2, vec![2]).unwrap();
        via_proxy(&proxy, &server, &req2, 100);
        assert_eq!(proxy.stats().forwards, 2);
        assert_eq!(proxy.stats().cache_hits, 0);
    }
}
