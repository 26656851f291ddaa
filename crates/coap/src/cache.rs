//! CoAP response caching (RFC 7252 §5.6) with ETag validation.
//!
//! This is the mechanism the whole §4.2/§6 evaluation of the paper
//! turns on:
//!
//! * The **cache key** is the request method plus all options that are
//!   not NoCacheKey — and, for FETCH (RFC 8132 §2.1), the request
//!   payload. GET keys on the URI options (which for DoC carry the
//!   base64url `dns=` variable). POST responses are not cacheable,
//!   which is why POST "does not allow for caching" (Table 5).
//! * **Freshness**: a cached response is fresh while its age is below
//!   the `Max-Age` option value (default 60 s). Serving a cached
//!   response rewrites `Max-Age` to the remaining freshness — the
//!   behaviour DoC clients rely on to restore DNS TTLs.
//! * **Validation**: a stale entry with an ETag can be revalidated; a
//!   `2.03 Valid` response refreshes the entry (new Max-Age) without
//!   re-transferring the payload.

use crate::msg::{encode_raw_option_into, CoapMessage, Code, MsgType};
use crate::opt::{CoapOption, OptionNumber};
use crate::shard::{BuildPassThrough, Fnv1a};
use crate::view::CoapView;
use std::collections::{HashMap, VecDeque};

/// A computed cache key: opaque bytes plus their FNV-1a hash, computed
/// once at derivation time. The hash does double duty — it selects the
/// shard in [`crate::shard::ShardedResponseCache`] and, through a
/// pass-through hasher, indexes the per-shard map — so key bytes are
/// never hashed a second time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    hash: u64,
    data: Vec<u8>,
}

impl CacheKey {
    fn from_bytes(data: Vec<u8>) -> Self {
        CacheKey {
            hash: Fnv1a::hash_bytes(&data),
            data,
        }
    }

    /// The FNV-1a hash computed when the key was derived.
    pub fn precomputed_hash(&self) -> u64 {
        self.hash
    }

    /// Recover the key's byte buffer for reuse. Pairs with
    /// [`cache_key_view_reusing`]: a caller that derives keys in a loop
    /// hands the same buffer back and forth and allocates nothing in
    /// steady state.
    pub fn into_bytes(self) -> Vec<u8> {
        self.data
    }
}

impl std::hash::Hash for CacheKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Emit only the precomputed value; paired with a pass-through
        // hasher this makes map operations hash-free.
        state.write_u64(self.hash);
    }
}

/// Does this method allow response caching?
///
/// Table 5 of the paper: GET ✓, POST ✘, FETCH ✓.
pub fn is_cacheable_method(code: Code) -> bool {
    matches!(code, Code::GET | Code::FETCH)
}

/// Compute the cache key of a request (RFC 7252 §5.6 / RFC 8132 §2.1).
pub fn cache_key(msg: &CoapMessage) -> CacheKey {
    let mut data = Vec::with_capacity(32 + msg.payload.len());
    data.push(msg.code.0);
    let mut opts: Vec<&CoapOption> = msg
        .options
        .iter()
        .filter(|o| is_cache_key_option(o.number))
        .collect();
    // Stable sort by option *number only*: repeatable options (Uri-Path,
    // Uri-Query) keep their relative order, because that order is
    // semantic — `/a/b` and `/b/a` are different resources. Sorting by
    // (number, value) collapsed such permutations into one key, a
    // cross-resource cache-poisoning bug.
    opts.sort_by_key(|o| o.number.0);
    for o in opts {
        data.extend_from_slice(&o.number.0.to_be_bytes());
        data.extend_from_slice(&(o.value.len() as u16).to_be_bytes());
        data.extend_from_slice(&o.value);
    }
    if msg.code == Code::FETCH {
        data.extend_from_slice(&msg.payload);
    }
    CacheKey::from_bytes(data)
}

/// Whether an option participates in the cache key (shared between the
/// owned and view key derivations so they can never diverge).
fn is_cache_key_option(number: OptionNumber) -> bool {
    // NoCacheKey options and the ETag used for revalidation are not
    // part of the key; Block options describe transfer, not content
    // identity.
    !number.is_no_cache_key()
        && number != OptionNumber::ETAG
        && number != OptionNumber::BLOCK1
        && number != OptionNumber::BLOCK2
        && number != OptionNumber::MAX_AGE
}

/// Compute the cache key of a borrowed request view — byte-identical to
/// [`cache_key`] of the equivalent owned message — into a
/// caller-supplied buffer (cleared at entry, capacity preserved).
/// Combined with [`CacheKey::into_bytes`] this makes per-request key
/// derivation allocation-free once the buffer is warm — the proxy's hot
/// path.
///
/// No sort is needed: wire options are already in ascending number
/// order (deltas are unsigned), and repeatable options keep their wire
/// order, which is exactly the stable-by-number order the owned path
/// produces.
pub fn cache_key_view_reusing(msg: &CoapView<'_>, mut data: Vec<u8>) -> CacheKey {
    data.clear();
    data.push(msg.code.0);
    for o in msg.options().filter(|o| is_cache_key_option(o.number)) {
        data.extend_from_slice(&o.number.0.to_be_bytes());
        data.extend_from_slice(&(o.value.len() as u16).to_be_bytes());
        data.extend_from_slice(o.value);
    }
    if msg.code == Code::FETCH {
        data.extend_from_slice(msg.payload());
    }
    CacheKey::from_bytes(data)
}

/// One cached response.
#[derive(Debug, Clone)]
struct Entry {
    response: CoapMessage,
    stored_at_ms: u64,
    max_age_ms: u64,
}

impl Entry {
    fn age_ms(&self, now: u64) -> u64 {
        now.saturating_sub(self.stored_at_ms)
    }
    fn is_fresh(&self, now: u64) -> bool {
        self.age_ms(now) < self.max_age_ms
    }
    fn remaining_s(&self, now: u64) -> u32 {
        ((self.max_age_ms.saturating_sub(self.age_ms(now))) / 1000) as u32
    }
}

/// Result of a cache lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// No entry.
    Miss,
    /// Fresh entry: a response ready to serve, with `Max-Age` already
    /// rewritten to the remaining freshness.
    Fresh(CoapMessage),
    /// Stale entry carrying this ETag — eligible for revalidation.
    Stale {
        /// The ETag to send in the revalidation request.
        etag: Vec<u8>,
        /// The stale response body (served again on `2.03 Valid`).
        response: CoapMessage,
    },
    /// Stale entry without an ETag — must be re-fetched in full.
    StaleNoEtag,
}

/// Result of [`ResponseCache::serve_hit_into`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Probe {
    /// Fresh entry: the reply was encoded into the caller's buffer.
    Served,
    /// Stale entry with an ETag, eligible for revalidation; the ETag
    /// was written into the caller's buffer.
    Stale,
    /// No entry, or a stale one without an ETag: fetch in full.
    Miss,
}

/// Cache statistics (the counters behind Fig. 11's cache-hit events).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Fresh hits served without network traffic.
    pub hits: u32,
    /// Lookups that found nothing.
    pub misses: u32,
    /// Lookups that found a stale entry (revalidation possible).
    pub stale: u32,
    /// Successful `2.03 Valid` revalidations.
    pub revalidations: u32,
    /// Entries evicted due to capacity.
    pub evictions: u32,
}

/// An LRU-ish response cache (FIFO eviction, matching the small
/// fixed-size caches of `CONFIG_NANOCOAP_CACHE_ENTRIES` in Table 6).
pub struct ResponseCache {
    entries: HashMap<CacheKey, Entry, BuildPassThrough>,
    /// Keys in insertion order, oldest first: the eviction queue.
    order: VecDeque<CacheKey>,
    capacity: usize,
    stats: CacheStats,
}

impl ResponseCache {
    /// Create a cache bounded to `capacity` entries (the paper's
    /// clients use 8, the proxy 50 — Table 6).
    pub fn new(capacity: usize) -> Self {
        ResponseCache {
            entries: HashMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
            stats: CacheStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up a request's cache key.
    pub fn lookup(&mut self, key: &CacheKey, now: u64) -> Lookup {
        match self.entries.get(key) {
            None => {
                self.stats.misses += 1;
                Lookup::Miss
            }
            Some(e) if e.is_fresh(now) => {
                self.stats.hits += 1;
                let mut resp = e.response.clone();
                resp.set_option(CoapOption::uint(OptionNumber::MAX_AGE, e.remaining_s(now)));
                Lookup::Fresh(resp)
            }
            Some(e) => {
                self.stats.stale += 1;
                match e.response.option(OptionNumber::ETAG) {
                    Some(etag) => Lookup::Stale {
                        etag: etag.value.clone(),
                        response: e.response.clone(),
                    },
                    None => Lookup::StaleNoEtag,
                }
            }
        }
    }

    /// The proxy's one cache probe per request: classify `key` and
    /// count the outcome, like [`ResponseCache::lookup`], but serve a
    /// fresh hit without cloning the entry. A fresh hit encodes the
    /// client-facing reply straight into `out` (cleared at entry): the
    /// cached response re-keyed to the client's MID/token, `mtype`
    /// forced to Ack, `Max-Age` rewritten to the remaining freshness —
    /// or a payload-free `2.03 Valid` when `client_etag` matches the
    /// entry's ETag. A stale entry hands back the ETag to revalidate
    /// with in `out` (so nothing is allocated under the shard lock); a
    /// miss or a stale entry without an ETag leaves `out` untouched.
    pub fn serve_hit_into(
        &mut self,
        key: &CacheKey,
        now: u64,
        client_mid: u16,
        client_token: &[u8],
        client_etag: Option<&[u8]>,
        out: &mut Vec<u8>,
    ) -> Probe {
        let Some(e) = self.entries.get(key) else {
            self.stats.misses += 1;
            return Probe::Miss;
        };
        if !e.is_fresh(now) {
            self.stats.stale += 1;
            return match e.response.option(OptionNumber::ETAG) {
                Some(etag) => {
                    out.clear();
                    out.extend_from_slice(&etag.value);
                    Probe::Stale
                }
                None => Probe::Miss,
            };
        }
        self.stats.hits += 1;
        let remaining = e.remaining_s(now);
        out.clear();
        let entry_etag = e
            .response
            .option(OptionNumber::ETAG)
            .map(|o| o.value.as_slice());
        if client_etag.is_some() && client_etag == entry_etag {
            // The client already holds the representation: a tiny
            // `2.03 Valid` carrying only ETag + decayed Max-Age.
            debug_assert!(client_token.len() <= 8);
            out.push(0x40 | (MsgType::Ack.to_bits() << 4) | client_token.len() as u8);
            out.push(Code::VALID.0);
            out.extend_from_slice(&client_mid.to_be_bytes());
            out.extend_from_slice(client_token);
            let mut prev = 0u16;
            if let Some(etag) = entry_etag {
                prev = encode_raw_option_into(prev, OptionNumber::ETAG.0, etag, out);
            }
            let mut scratch = [0u8; 4];
            encode_raw_option_into(
                prev,
                OptionNumber::MAX_AGE.0,
                uint_value_bytes(remaining, &mut scratch),
                out,
            );
        } else {
            encode_entry_reply_into(&e.response, client_mid, client_token, remaining, out);
        }
        Probe::Served
    }

    /// Store a (success) response under `key`. Non-success responses
    /// and responses to non-cacheable methods should not be inserted by
    /// the caller.
    pub fn insert(&mut self, key: CacheKey, response: CoapMessage, now: u64) {
        let max_age_ms = response.max_age() as u64 * 1000;
        if !self.entries.contains_key(&key) {
            if self.entries.len() >= self.capacity {
                // FIFO eviction.
                if let Some(victim) = self.order.pop_front() {
                    self.entries.remove(&victim);
                    self.stats.evictions += 1;
                }
            }
            self.order.push_back(key.clone());
        }
        self.entries.insert(
            key,
            Entry {
                response,
                stored_at_ms: now,
                max_age_ms,
            },
        );
    }

    /// Refresh a stale entry after a `2.03 Valid`: the entry's timer is
    /// reset and the options carried by the 2.03 response replace their
    /// counterparts on the cached response (RFC 7252 §5.9.1.3 — in
    /// particular Max-Age *and* ETag, so a server that rotated the ETag
    /// while confirming the payload leaves us revalidating with the new
    /// tag, not a dead one). Returns the refreshed cached response
    /// (full payload) or `None` if the entry vanished.
    pub fn revalidate(
        &mut self,
        key: &CacheKey,
        valid: &CoapMessage,
        now: u64,
    ) -> Option<CoapMessage> {
        debug_assert_eq!(valid.code, Code::VALID);
        let e = self.entries.get_mut(key)?;
        e.stored_at_ms = now;
        e.max_age_ms = valid.max_age() as u64 * 1000;
        // Replace whole option runs: drop every cached instance of a
        // number the 2.03 carries, then adopt the 2.03's instances (so
        // repeatable options keep all their values and their order).
        for opt in &valid.options {
            e.response.remove_option(opt.number);
        }
        for opt in &valid.options {
            e.response.options.push(opt.clone());
        }
        // A 2.03 without an explicit Max-Age means the default 60 s
        // (RFC 7252 §5.10.5); make the served copy say so.
        e.response
            .set_option(CoapOption::uint(OptionNumber::MAX_AGE, valid.max_age()));
        self.stats.revalidations += 1;
        Some(e.response.clone())
    }

    /// Remove an entry (e.g. after the origin replaced the payload).
    pub fn invalidate(&mut self, key: &CacheKey) {
        self.entries.remove(key);
        self.order.retain(|k| k != key);
    }

    /// Drop every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
        self.order.clear();
    }
}

/// Shortest-form big-endian bytes of a uint option value, borrowed
/// from a caller stack buffer — the non-allocating sibling of the
/// owned uint-option constructor (`0` encodes as the empty string).
fn uint_value_bytes(v: u32, buf: &mut [u8; 4]) -> &[u8] {
    *buf = v.to_be_bytes();
    let skip = buf.iter().take_while(|&&b| b == 0).count();
    &buf[skip..]
}

/// Encode the client-facing reply for a fresh cached response directly
/// into `out`: the cached message with the client's MID and token,
/// `mtype` forced to Ack, and every `Max-Age` instance replaced by one
/// carrying `remaining_s`. Byte-identical to cloning the entry,
/// calling `set_option(Max-Age)` and re-encoding, without owning
/// anything: the substituted Max-Age is emitted at its stable-sorted
/// position (after every option numbered below it, before any above),
/// which is exactly where the owned path's remove-then-append plus
/// stable sort lands it.
fn encode_entry_reply_into(
    resp: &CoapMessage,
    client_mid: u16,
    client_token: &[u8],
    remaining_s: u32,
    out: &mut Vec<u8>,
) {
    debug_assert!(client_token.len() <= 8);
    out.push(0x40 | (MsgType::Ack.to_bits() << 4) | client_token.len() as u8);
    out.push(resp.code.0);
    out.extend_from_slice(&client_mid.to_be_bytes());
    out.extend_from_slice(client_token);
    let mut scratch = [0u8; 4];
    let max_age_value = uint_value_bytes(remaining_s, &mut scratch);
    // Stream the options in stable (number, original index) order via
    // repeated minimum scans — option lists are a handful of entries,
    // so this beats building a sorted copy and allocates nothing.
    let mut prev = 0u16;
    let mut max_age_emitted = false;
    let mut last: Option<(u16, usize)> = None;
    loop {
        let mut next: Option<(u16, usize)> = None;
        for (i, o) in resp.options.iter().enumerate() {
            if o.number == OptionNumber::MAX_AGE {
                continue;
            }
            let cand = (o.number.0, i);
            if Some(cand) > last && (next.is_none() || Some(cand) < next) {
                next = Some(cand);
            }
        }
        let Some((num, idx)) = next else {
            break;
        };
        if !max_age_emitted && num > OptionNumber::MAX_AGE.0 {
            prev = encode_raw_option_into(prev, OptionNumber::MAX_AGE.0, max_age_value, out);
            max_age_emitted = true;
        }
        prev = encode_raw_option_into(prev, num, &resp.options[idx].value, out);
        last = Some((num, idx));
    }
    if !max_age_emitted {
        encode_raw_option_into(prev, OptionNumber::MAX_AGE.0, max_age_value, out);
    }
    if !resp.payload.is_empty() {
        out.push(0xFF);
        out.extend_from_slice(&resp.payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::MsgType;

    fn fetch_req(payload: &[u8]) -> CoapMessage {
        CoapMessage::request(Code::FETCH, MsgType::Con, 1, vec![1])
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
            .with_payload(payload.to_vec())
    }

    fn get_req(query: &str) -> CoapMessage {
        CoapMessage::request(Code::GET, MsgType::Con, 1, vec![1])
            .with_option(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()))
            .with_option(CoapOption::new(
                OptionNumber::URI_QUERY,
                format!("dns={query}").into_bytes(),
            ))
    }

    fn response(max_age: u32, etag: Option<&[u8]>, payload: &[u8]) -> CoapMessage {
        let mut r = CoapMessage {
            mtype: MsgType::Ack,
            code: Code::CONTENT,
            message_id: 1,
            token: vec![1],
            options: vec![CoapOption::uint(OptionNumber::MAX_AGE, max_age)],
            payload: payload.to_vec(),
        };
        if let Some(e) = etag {
            r.set_option(CoapOption::new(OptionNumber::ETAG, e.to_vec()));
        }
        r
    }

    /// A `2.03 Valid` revalidation response (ETag + Max-Age, no body).
    fn valid_response(max_age: u32, etag: Option<&[u8]>) -> CoapMessage {
        let mut r = response(max_age, etag, b"");
        r.code = Code::VALID;
        r
    }

    #[test]
    fn method_cacheability_table5() {
        assert!(is_cacheable_method(Code::GET));
        assert!(is_cacheable_method(Code::FETCH));
        assert!(!is_cacheable_method(Code::POST));
        assert!(!is_cacheable_method(Code::PUT));
    }

    #[test]
    fn fetch_key_includes_payload() {
        let k1 = cache_key(&fetch_req(b"query-a"));
        let k2 = cache_key(&fetch_req(b"query-b"));
        let k3 = cache_key(&fetch_req(b"query-a"));
        assert_ne!(k1, k2);
        assert_eq!(k1, k3);
    }

    #[test]
    fn post_key_ignores_payload() {
        // POST bodies are not part of the cache key — the formal reason
        // POST cannot use response caches (paper §4.1).
        let mut p1 = fetch_req(b"query-a");
        p1.code = Code::POST;
        let mut p2 = fetch_req(b"query-b");
        p2.code = Code::POST;
        assert_eq!(cache_key(&p1), cache_key(&p2));
    }

    #[test]
    fn get_key_includes_uri_query() {
        let k1 = cache_key(&get_req("AAAA"));
        let k2 = cache_key(&get_req("BBBB"));
        assert_ne!(k1, k2);
        assert_eq!(k1, cache_key(&get_req("AAAA")));
    }

    /// The view-based key derivation must be byte-identical to the
    /// owned one — same key, same cache entry.
    #[test]
    fn view_key_matches_owned_key() {
        let mut with_extras = fetch_req(b"query-a");
        with_extras.set_option(CoapOption::new(OptionNumber::ETAG, vec![9, 9]));
        with_extras.set_option(CoapOption::uint(OptionNumber::MAX_AGE, 5));
        with_extras.set_option(CoapOption::uint(OptionNumber::SIZE1, 99));
        let mut get = get_req("AAAA");
        get.options.push(CoapOption::new(
            OptionNumber::URI_QUERY,
            b"extra=1".to_vec(),
        ));
        for msg in [fetch_req(b"q"), with_extras, get] {
            let wire = msg.encode();
            let view = crate::view::CoapView::parse(&wire).unwrap();
            assert_eq!(
                cache_key_view_reusing(&view, Vec::new()),
                cache_key(&msg),
                "{msg:?}"
            );
        }
    }

    #[test]
    fn method_distinguishes_keys() {
        let f = fetch_req(b"x");
        let mut g = fetch_req(b"x");
        g.code = Code::GET;
        assert_ne!(cache_key(&f), cache_key(&g));
    }

    #[test]
    fn etag_block_maxage_not_in_key() {
        let base = fetch_req(b"q");
        let mut with_extras = base.clone();
        with_extras.set_option(CoapOption::new(OptionNumber::ETAG, vec![9, 9]));
        with_extras.set_option(CoapOption::uint(OptionNumber::MAX_AGE, 5));
        with_extras.set_option(CoapOption::new(OptionNumber::BLOCK2, vec![0x06]));
        with_extras.set_option(CoapOption::uint(OptionNumber::SIZE1, 99));
        assert_eq!(cache_key(&base), cache_key(&with_extras));
    }

    #[test]
    fn fresh_hit_rewrites_max_age() {
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        cache.insert(key.clone(), response(10, None, b"data"), 0);
        match cache.lookup(&key, 4_000) {
            Lookup::Fresh(resp) => {
                assert_eq!(resp.max_age(), 6);
                assert_eq!(resp.payload, b"data");
            }
            other => panic!("expected fresh, got {other:?}"),
        }
        assert_eq!(cache.stats().hits, 1);
    }

    #[test]
    fn expiry_goes_stale() {
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        cache.insert(key.clone(), response(5, Some(&[0xE1]), b"data"), 0);
        match cache.lookup(&key, 5_000) {
            Lookup::Stale { etag, .. } => assert_eq!(etag, vec![0xE1]),
            other => panic!("expected stale, got {other:?}"),
        }
        assert_eq!(cache.stats().stale, 1);
    }

    #[test]
    fn stale_without_etag() {
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        cache.insert(key.clone(), response(5, None, b"data"), 0);
        assert_eq!(cache.lookup(&key, 6_000), Lookup::StaleNoEtag);
    }

    #[test]
    fn revalidation_resets_timer() {
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        cache.insert(key.clone(), response(5, Some(&[0xE1]), b"data"), 0);
        assert!(matches!(cache.lookup(&key, 6_000), Lookup::Stale { .. }));
        // 2.03 Valid arrives with new Max-Age 7.
        let refreshed = cache
            .revalidate(&key, &valid_response(7, Some(&[0xE1])), 6_000)
            .unwrap();
        assert_eq!(refreshed.payload, b"data");
        assert_eq!(refreshed.max_age(), 7);
        match cache.lookup(&key, 9_000) {
            Lookup::Fresh(r) => assert_eq!(r.max_age(), 4),
            other => panic!("expected fresh after revalidation, got {other:?}"),
        }
        assert_eq!(cache.stats().revalidations, 1);
    }

    /// Regression for the cache-key collision: two permutations of the
    /// same Uri-Path segments are different resources and must key
    /// differently (`/a/b` vs `/b/a`).
    #[test]
    fn uri_path_permutations_key_distinctly() {
        let path = |segs: &[&str]| {
            let mut m = CoapMessage::request(Code::GET, MsgType::Con, 1, vec![1]);
            for s in segs {
                m.options.push(CoapOption::new(
                    OptionNumber::URI_PATH,
                    s.as_bytes().to_vec(),
                ));
            }
            m
        };
        assert_ne!(cache_key(&path(&["a", "b"])), cache_key(&path(&["b", "a"])));
        assert_eq!(cache_key(&path(&["a", "b"])), cache_key(&path(&["a", "b"])));
        // Insertion order of *different* option numbers still does not
        // matter (the sort by number is what RFC 7252 §5.6 wants).
        let mut q1 = path(&["dns"]);
        q1.options.push(CoapOption::new(
            OptionNumber::URI_QUERY,
            b"dns=AAAA".to_vec(),
        ));
        let mut q2 = CoapMessage::request(Code::GET, MsgType::Con, 1, vec![1]);
        q2.options.push(CoapOption::new(
            OptionNumber::URI_QUERY,
            b"dns=AAAA".to_vec(),
        ));
        q2.options
            .push(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()));
        assert_eq!(cache_key(&q1), cache_key(&q2));
        // Repeated Uri-Query permutations are likewise distinct keys.
        let query = |a: &str, b: &str| {
            let mut m = CoapMessage::request(Code::GET, MsgType::Con, 1, vec![1]);
            for q in [a, b] {
                m.options.push(CoapOption::new(
                    OptionNumber::URI_QUERY,
                    q.as_bytes().to_vec(),
                ));
            }
            m
        };
        assert_ne!(
            cache_key(&query("x=1", "y=2")),
            cache_key(&query("y=2", "x=1"))
        );
    }

    /// Regression for dead-ETag revalidation: a server may answer
    /// `2.03 Valid` *and* rotate the ETag; the refreshed entry must
    /// carry the new tag so the next revalidation can succeed.
    #[test]
    fn revalidation_adopts_rotated_etag() {
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        cache.insert(key.clone(), response(5, Some(&[0xE1]), b"data"), 0);
        // Stale at t=6 s; server confirms payload but rotates to 0xE2.
        let etag1 = match cache.lookup(&key, 6_000) {
            Lookup::Stale { etag, .. } => etag,
            other => panic!("expected stale, got {other:?}"),
        };
        assert_eq!(etag1, vec![0xE1]);
        let refreshed = cache
            .revalidate(&key, &valid_response(5, Some(&[0xE2])), 6_000)
            .unwrap();
        assert_eq!(refreshed.payload, b"data", "payload survives refresh");
        assert_eq!(
            refreshed.option(OptionNumber::ETAG).unwrap().value,
            vec![0xE2]
        );
        // Next staleness exposes the *new* tag for revalidation.
        match cache.lookup(&key, 12_000) {
            Lookup::Stale { etag, .. } => assert_eq!(etag, vec![0xE2]),
            other => panic!("expected stale with rotated etag, got {other:?}"),
        }
    }

    #[test]
    fn revalidation_without_max_age_defaults_to_60s() {
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        cache.insert(key.clone(), response(5, Some(&[0xE1]), b"data"), 0);
        let mut valid = valid_response(0, Some(&[0xE1]));
        valid.remove_option(OptionNumber::MAX_AGE);
        let refreshed = cache.revalidate(&key, &valid, 6_000).unwrap();
        assert_eq!(refreshed.max_age(), 60);
        assert!(matches!(cache.lookup(&key, 60_000), Lookup::Fresh(_)));
    }

    #[test]
    fn zero_max_age_is_immediately_stale() {
        // EOL-TTLs responses whose records expired carry Max-Age 0.
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        cache.insert(key.clone(), response(0, Some(&[1]), b"x"), 0);
        assert!(matches!(cache.lookup(&key, 0), Lookup::Stale { .. }));
    }

    #[test]
    fn capacity_eviction_fifo() {
        let mut cache = ResponseCache::new(2);
        let k1 = cache_key(&fetch_req(b"1"));
        let k2 = cache_key(&fetch_req(b"2"));
        let k3 = cache_key(&fetch_req(b"3"));
        cache.insert(k1.clone(), response(60, None, b"1"), 0);
        cache.insert(k2.clone(), response(60, None, b"2"), 0);
        cache.insert(k3.clone(), response(60, None, b"3"), 0);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(&k1, 1), Lookup::Miss);
        assert!(matches!(cache.lookup(&k2, 1), Lookup::Fresh(_)));
        assert!(matches!(cache.lookup(&k3, 1), Lookup::Fresh(_)));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut cache = ResponseCache::new(2);
        let k = cache_key(&fetch_req(b"1"));
        cache.insert(k.clone(), response(60, None, b"old"), 0);
        cache.insert(k.clone(), response(60, None, b"new"), 10);
        assert_eq!(cache.len(), 1);
        match cache.lookup(&k, 20) {
            Lookup::Fresh(r) => assert_eq!(r.payload, b"new"),
            other => panic!("{other:?}"),
        }
    }

    /// The wire-direct hit path must produce byte-identical replies to
    /// the owned path (lookup → clone → re-key → encode) in every
    /// shape: plain hit, decayed Max-Age, options above/below Max-Age,
    /// ETag-match 2.03, empty payload, zero remaining seconds.
    #[test]
    fn serve_hit_into_matches_owned_path_bytes() {
        let mut shaped = response(300, Some(&[0xE7, 0x01]), b"payload-bytes");
        // Options straddling Max-Age (14): Uri-Path (11) below... and
        // Proxy-Uri (35) / Size1 (60) above, plus a repeatable option.
        shaped
            .options
            .push(CoapOption::new(OptionNumber::URI_PATH, b"dns".to_vec()));
        shaped
            .options
            .push(CoapOption::new(OptionNumber::URI_PATH, b"sub".to_vec()));
        shaped.set_option(CoapOption::uint(OptionNumber::SIZE1, 99));
        let cases = [
            response(300, None, b"data"),
            response(300, Some(&[0xE1]), b"data"),
            response(10, Some(&[0xE1]), b""),
            shaped,
        ];
        for (i, resp) in cases.into_iter().enumerate() {
            for (now, client_etag) in [
                (0u64, None),
                (4_000, None),
                (9_999, Some(vec![0xE1])),
                (0, Some(vec![0x99])), // non-matching ETag: full reply
            ] {
                let mut cache = ResponseCache::new(8);
                let key = cache_key(&fetch_req(b"q"));
                cache.insert(key.clone(), resp.clone(), 0);
                let mut wire = vec![0xAA; 7]; // stale garbage must be cleared
                let probe = cache.serve_hit_into(
                    &key,
                    now,
                    0x1234,
                    &[9, 8, 7],
                    client_etag.as_deref(),
                    &mut wire,
                );
                assert_eq!(probe, Probe::Served, "case {i} now {now}");
                // Owned reference: lookup's Fresh arm + the proxy's
                // reply construction.
                let cached = match cache.lookup(&key, now) {
                    Lookup::Fresh(c) => c,
                    other => panic!("case {i}: {other:?}"),
                };
                let entry_etag = cached.option(OptionNumber::ETAG).map(|o| o.value.clone());
                let expect = if client_etag.is_some() && client_etag == entry_etag {
                    let mut v = CoapMessage::ack_reply(0x1234, vec![9, 8, 7], Code::VALID);
                    if let Some(e) = entry_etag {
                        v.set_option(CoapOption::new(OptionNumber::ETAG, e));
                    }
                    v.set_option(CoapOption::uint(OptionNumber::MAX_AGE, cached.max_age()));
                    v
                } else {
                    let mut full = cached.clone();
                    full.message_id = 0x1234;
                    full.token = vec![9, 8, 7];
                    full.mtype = MsgType::Ack;
                    full
                };
                assert_eq!(wire, expect.encode(), "case {i} now {now}");
                assert_eq!(cache.stats().hits, 2, "hit path and lookup each count");
            }
        }
    }

    /// Miss and stale outcomes are classified and counted once, like
    /// `lookup`; only a stale entry's ETag is written to the buffer.
    #[test]
    fn serve_hit_into_counts_miss_and_stale_once() {
        let mut cache = ResponseCache::new(8);
        let key = cache_key(&fetch_req(b"q"));
        let bare = cache_key(&fetch_req(b"no-etag"));
        let mut out = vec![0xAA];
        assert_eq!(
            cache.serve_hit_into(&key, 0, 1, &[1], None, &mut out),
            Probe::Miss
        );
        cache.insert(key.clone(), response(5, Some(&[0xE1]), b"data"), 0);
        cache.insert(bare.clone(), response(5, None, b"data"), 0);
        assert_eq!(out, vec![0xAA]);
        assert_eq!(
            cache.serve_hit_into(&key, 6_000, 1, &[1], None, &mut out),
            Probe::Stale
        );
        assert_eq!(out, vec![0xE1]);
        assert_eq!(
            cache.serve_hit_into(&bare, 6_000, 1, &[1], None, &mut out),
            Probe::Miss
        );
        assert_eq!(out, vec![0xE1]);
        let expect = CacheStats {
            misses: 1,
            stale: 2,
            ..CacheStats::default()
        };
        assert_eq!(cache.stats(), expect);
    }

    /// Key derivation into a recycled buffer matches the owned
    /// derivation, and the buffer round-trips through the key.
    #[test]
    fn reused_key_buffer_matches_and_round_trips() {
        let mut buf = Vec::new();
        for msg in [fetch_req(b"query-a"), get_req("AAAA")] {
            let wire = msg.encode();
            let view = crate::view::CoapView::parse(&wire).unwrap();
            let key = cache_key_view_reusing(&view, std::mem::take(&mut buf));
            assert_eq!(key, cache_key(&msg));
            buf = key.into_bytes();
            assert!(!buf.is_empty());
        }
    }

    #[test]
    fn invalidate_and_clear() {
        let mut cache = ResponseCache::new(4);
        let k = cache_key(&fetch_req(b"1"));
        cache.insert(k.clone(), response(60, None, b"x"), 0);
        cache.invalidate(&k);
        assert!(cache.is_empty());
        cache.insert(k.clone(), response(60, None, b"x"), 0);
        cache.clear();
        assert_eq!(cache.lookup(&k, 0), Lookup::Miss);
    }
}
