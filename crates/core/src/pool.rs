//! Multi-worker datagram front-end: one bounded injector ring fanning
//! request datagrams onto N worker threads.
//!
//! The paper's evaluation is single-node and the whole protocol stack
//! is sans-IO, so scaling across cores is purely a front-end concern:
//! workers pull raw datagrams off the ring and run the *existing*
//! borrowed-view hot path — [`CoapProxy::serve_wire`] for the proxy
//! leg and [`DocServer::handle_request_wire`] for the origin leg, or,
//! in the DoQ/DoH/DoT [`ServeMode`]s, an unframe → [`MessageView`] →
//! [`MockUpstream::resolve_into`] → frame pass that writes the reply
//! straight into the worker's reply buffer — against state that is
//! lock-striped per shard ([`doc_coap::shard`]). Nothing in the
//! protocol logic knows it is being run concurrently.
//!
//! * [`SpmcRing`] — a bounded single-producer/multi-consumer ring of
//!   fixed power-of-two capacity, the pool's shared **injector**. The
//!   producer blocks when the ring is full (closed-loop backpressure:
//!   in-flight work is bounded by the ring), consumers drain in
//!   batches to amortize lock/wake traffic and sleep on the ring's own
//!   condvar while it is empty.
//! * [`ProxyPool`] — N workers sharing one `Arc<CoapProxy>` and one
//!   `Arc<DocServer>`; each datagram runs the full client → proxy →
//!   (origin, on a cache miss) → client exchange. A worker serves a
//!   whole drain, then moves its replies into the pump's outbox under
//!   one lock: each reply takes the worker's spare buffer, and the
//!   request's wire becomes the next spare, so buffers circulate
//!   instead of being allocated (see `BENCH_proxy.json`'s
//!   `allocs_per_req`).
//!
//! [`ProxyPool::run_io`] (in [`crate::io`]) is the one way to drive
//! the workers: the calling thread pumps an [`crate::io::IoProvider`]
//! — a replayed query mix, a `doc-netsim` drain or a real UDP socket —
//! into the ring and the outbox back out through the same provider.
//!
//! [`MockUpstream::resolve_into`]: crate::server::MockUpstream::resolve_into

use crate::proxy::{CoapProxy, ProxyScratch, WireAction};
use crate::server::DocServer;
use crate::transport::TransportKind;
use doc_dns::MessageView;
use doc_quic::doq;
// The sync primitives come from `doc-check`: outside a model execution
// they are passthroughs to `std::sync`, inside one every operation is
// a scheduling point — so `check_gate` explores the interleavings of
// *this* ring, not a copy (see `crates/check`).
use doc_check::sync::{Arc, Condvar, Mutex};

/// What wire format the pool's workers speak.
///
/// The CoAP mode runs the full client → proxy → origin exchange (the
/// paper's DoC deployment). The stream modes serve the DoQ/DoH/DoT
/// application layer — unframe the DNS message in place, resolve the
/// borrowed [`MessageView`] against the origin's upstream straight
/// into wire bytes, frame the response into the reply buffer — which is
/// the per-request hot path those transports add on top of QUIC-lite
/// (connection crypto is per-session, not per-request, and is measured
/// by the `doc-quic` crate itself). Like the CoAP mode, it allocates
/// nothing per request once the worker's buffers are warm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeMode {
    /// CoAP proxy + origin view path (default).
    Coap,
    /// RFC 9250 2-byte length-prefixed DNS (also the DoT framing).
    Doq,
    /// DoH-lite HEADERS+DATA framing.
    DohLite,
    /// RFC 7858 length-prefixed DNS, one message per datagram.
    Dot,
}

impl ServeMode {
    /// The pool mode serving a transport's application framing.
    pub fn for_transport(kind: TransportKind) -> ServeMode {
        match kind {
            TransportKind::Quic => ServeMode::Doq,
            TransportKind::DohLite => ServeMode::DohLite,
            TransportKind::Dot => ServeMode::Dot,
            _ => ServeMode::Coap,
        }
    }

    /// Artifact label (`BENCH_proxy.json` `transport` field).
    pub fn label(self) -> &'static str {
        match self {
            ServeMode::Coap => "coap",
            ServeMode::Doq => "doq",
            ServeMode::DohLite => "doh",
            ServeMode::Dot => "dot",
        }
    }
}

/// A bounded single-producer/multi-consumer ring buffer.
///
/// Fixed storage allocated once at construction; `push` blocks while
/// the ring is full, `pop`/`pop_batch` block while it is empty. After
/// [`SpmcRing::close`], pushes fail and pops drain the remaining items
/// before returning `None`.
pub struct SpmcRing<T> {
    state: Mutex<RingState<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

struct RingState<T> {
    /// `capacity` slots; `None` = empty slot.
    slots: Box<[Option<T>]>,
    /// Next slot to pop (wraps with the power-of-two mask).
    head: u64,
    /// Next slot to push.
    tail: u64,
    closed: bool,
}

impl<T> RingState<T> {
    fn len(&self) -> usize {
        (self.tail - self.head) as usize
    }
    fn mask(&self) -> u64 {
        self.slots.len() as u64 - 1
    }
}

impl<T> SpmcRing<T> {
    /// Create a ring with `capacity` slots (rounded up to a power of
    /// two, at least 2).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        SpmcRing {
            state: Mutex::new(RingState {
                slots: (0..cap).map(|_| None).collect(),
                head: 0,
                tail: 0,
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        }
    }

    /// Slot count.
    pub fn capacity(&self) -> usize {
        self.state.lock().unwrap().slots.len()
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().len()
    }

    /// Whether the ring is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Push an item, blocking while the ring is full. Returns the item
    /// back if the ring was closed.
    pub fn push(&self, item: T) -> Result<(), T> {
        let mut st = self.state.lock().unwrap();
        while st.len() == st.slots.len() && !st.closed {
            st = self.not_full.wait(st).unwrap();
        }
        if st.closed {
            return Err(item);
        }
        let idx = (st.tail & st.mask()) as usize;
        st.slots[idx] = Some(item);
        st.tail += 1;
        drop(st);
        self.not_empty.notify_one();
        Ok(())
    }

    /// Pop one item, blocking while the ring is empty. Returns `None`
    /// once the ring is closed *and* drained.
    pub fn pop(&self) -> Option<T> {
        let mut st = self.state.lock().unwrap();
        loop {
            if st.len() > 0 {
                let idx = (st.head & st.mask()) as usize;
                let item = st.slots[idx].take();
                st.head += 1;
                drop(st);
                self.not_full.notify_one();
                return item;
            }
            if st.closed {
                return None;
            }
            st = self.not_empty.wait(st).unwrap();
        }
    }

    /// Pop up to `max` items into `out`, blocking while the ring is
    /// empty. **`out` is cleared at entry**: the batch a call returns
    /// is exactly the batch it drained, so a caller reusing a scratch
    /// buffer across drains can never silently reprocess stale items.
    /// Returns the number of items drained — 0 only once the ring is
    /// closed and drained. Batch draining takes the lock once per
    /// batch instead of once per datagram.
    pub fn pop_batch(&self, out: &mut Vec<T>, max: usize) -> usize {
        out.clear();
        let mut st = self.state.lock().unwrap();
        loop {
            let n = st.len().min(max.max(1));
            if n > 0 {
                for _ in 0..n {
                    let idx = (st.head & st.mask()) as usize;
                    out.push(st.slots[idx].take().expect("occupied slot"));
                    st.head += 1;
                }
                drop(st);
                // Several slots freed: there may be room for more than
                // one producer push and other consumers may still find
                // items.
                self.not_full.notify_all();
                return n;
            }
            if st.closed {
                return 0;
            }
            st = self.not_empty.wait(st).unwrap();
        }
    }

    /// Close the ring: subsequent pushes fail, pops drain what is left.
    /// Idempotent.
    pub fn close(&self) {
        self.state.lock().unwrap().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }

    /// Whether [`SpmcRing::close`] has been called.
    pub fn is_closed(&self) -> bool {
        self.state.lock().unwrap().closed
    }
}

/// Closes the injector when dropped — including when a worker or the
/// pump unwinds. Without this, a panicking participant would leave
/// the others blocked on the ring forever instead of letting the scope
/// join and propagate the panic.
pub(crate) struct CloseGuard<'a>(pub(crate) &'a SpmcRing<Datagram>);

impl Drop for CloseGuard<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// One request datagram entering the pool.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Datagram {
    /// Peer (client) identifier — scopes block-wise transfer state.
    pub peer: u64,
    /// Caller-chosen sequence number, carried through to the reply.
    pub seq: u64,
    /// Virtual receive time (drives cache freshness).
    pub at: doc_time::Instant,
    /// The CoAP request wire bytes.
    pub wire: Vec<u8>,
}

/// One reply datagram leaving the pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// Peer the reply goes back to.
    pub peer: u64,
    /// Sequence number of the request this answers.
    pub seq: u64,
    /// The CoAP response wire bytes (`None`: the datagram was
    /// malformed and dropped, like a real UDP front-end would).
    pub wire: Option<Vec<u8>>,
}

/// Counters aggregated over one [`ProxyPool::run_io`] call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolRunStats {
    /// Datagrams pulled off the ring.
    pub processed: u64,
    /// Replies produced.
    pub replies: u64,
    /// Malformed datagrams dropped.
    pub errors: u64,
}

/// Where workers leave finished replies for the pump. A worker takes
/// the lock once per drain, to move the drain's replies in and add its
/// counts; the pump swaps `replies` out to send them.
#[derive(Default)]
pub(crate) struct Outbox {
    pub(crate) replies: Vec<Reply>,
    pub(crate) stats: PoolRunStats,
}

/// A multi-worker proxy front-end: N threads sharing one thread-safe
/// [`CoapProxy`] and [`DocServer`].
pub struct ProxyPool {
    /// The shared (sharded) caching proxy.
    pub proxy: Arc<CoapProxy>,
    /// The shared origin server.
    pub server: Arc<DocServer>,
    workers: usize,
    mode: ServeMode,
}

/// How many datagrams a worker grabs from the injector per lock
/// acquisition.
const INJECTOR_GRAB: usize = 128;

impl ProxyPool {
    /// Create a pool of `workers` threads (at least 1) over shared
    /// proxy/server state, speaking CoAP.
    pub fn new(workers: usize, proxy: Arc<CoapProxy>, server: Arc<DocServer>) -> Self {
        Self::with_mode(workers, proxy, server, ServeMode::Coap)
    }

    /// Like [`ProxyPool::new`] with an explicit wire format.
    pub fn with_mode(
        workers: usize,
        proxy: Arc<CoapProxy>,
        server: Arc<DocServer>,
        mode: ServeMode,
    ) -> Self {
        ProxyPool {
            proxy,
            server,
            workers: workers.max(1),
            mode,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The wire format the workers speak.
    pub fn mode(&self) -> ServeMode {
        self.mode
    }

    /// Serve one request datagram end to end on the calling thread:
    /// proxy view path, then (on miss/revalidation) the origin's view
    /// path, then the upstream response re-entering the proxy. Returns
    /// the reply wire bytes, or `None` for malformed datagrams.
    ///
    /// `upstream_buf` is a scratch buffer reused across calls for the
    /// re-encoded upstream request.
    pub fn serve(&self, d: &Datagram, upstream_buf: &mut Vec<u8>) -> Option<Vec<u8>> {
        let mut scratch = ProxyScratch::default();
        let mut out = Vec::new();
        self.serve_into(d, &mut scratch, upstream_buf, &mut out)
            .then_some(out)
    }

    /// The allocation-free serve core: the reply wire is written into
    /// `out` (cleared first), `scratch`/`upstream_buf` are reused
    /// across calls. Returns whether a reply was produced.
    fn serve_into(
        &self,
        d: &Datagram,
        scratch: &mut ProxyScratch,
        upstream_buf: &mut Vec<u8>,
        out: &mut Vec<u8>,
    ) -> bool {
        out.clear();
        if self.mode != ServeMode::Coap {
            return self.serve_stream(d, upstream_buf, out).is_some();
        }
        match self
            .proxy
            .serve_wire(&d.wire, d.at.as_millis(), scratch, out)
        {
            Ok(WireAction::Responded) => true,
            Ok(WireAction::Forward {
                request,
                exchange_id,
            }) => {
                upstream_buf.clear();
                request.encode_into(upstream_buf);
                let Ok(upstream_resp) =
                    self.server
                        .handle_request_wire(d.peer, upstream_buf, d.at.as_millis())
                else {
                    return false;
                };
                match self.proxy.handle_upstream_response(
                    exchange_id,
                    &upstream_resp,
                    d.at.as_millis(),
                ) {
                    Some(resp) => {
                        out.clear();
                        resp.encode_into(out);
                        true
                    }
                    None => false,
                }
            }
            Err(_) => false,
        }
    }

    /// Serve one framed DNS request in a stream mode, on borrowed views
    /// from unframe to framed reply: unframe the datagram in place,
    /// parse the DNS query as a [`MessageView`], resolve it against the
    /// origin's upstream straight into the `dns` scratch
    /// ([`MockUpstream::resolve_into`]), and frame that into `out`.
    /// With warm buffers nothing is allocated. Malformed framing, a
    /// non-DNS body, or a reply too large to frame drops the datagram
    /// (`None`), like the CoAP path.
    ///
    /// [`MockUpstream::resolve_into`]: crate::server::MockUpstream::resolve_into
    fn serve_stream(&self, d: &Datagram, dns: &mut Vec<u8>, out: &mut Vec<u8>) -> Option<()> {
        let body = match self.mode {
            ServeMode::Doq | ServeMode::Dot => doq::decode_doq(&d.wire),
            ServeMode::DohLite => doq::decode_doh(&d.wire),
            ServeMode::Coap => unreachable!("handled by serve_into"),
        };
        let query = MessageView::parse(body.ok()?).ok()?;
        self.server
            .upstream
            .resolve_into(&query, d.at.as_millis(), dns);
        // Every stream transport carries a DNS message behind a 16-bit
        // length (RFC 1035 §4.2.2), so a larger reply cannot go out.
        if dns.len() > usize::from(u16::MAX) {
            return None;
        }
        match self.mode {
            ServeMode::Doq | ServeMode::Dot => doq::encode_doq_into(dns, out).ok()?,
            ServeMode::DohLite => doq::encode_doh_response_into(dns, out),
            ServeMode::Coap => unreachable!("handled by serve_into"),
        }
        self.server.count_raw_dns_response();
        Some(())
    }

    /// One worker thread of [`ProxyPool::run_io`]: drain the injector
    /// until it is closed and empty, serving each drain into the
    /// outbox.
    pub(crate) fn work(&self, injector: &SpmcRing<Datagram>, outbox: &Mutex<Outbox>) {
        // If this worker unwinds, the guard closes the injector so the
        // pump stops feeding it and the scope can join and propagate
        // the panic instead of deadlocking.
        let _close_guard = CloseGuard(injector);
        let mut batch: Vec<Datagram> = Vec::with_capacity(INJECTOR_GRAB);
        let mut scratch = WorkerScratch::default();
        while injector.pop_batch(&mut batch, INJECTOR_GRAB) > 0 {
            self.serve_batch(&mut batch, &mut scratch, outbox);
        }
    }

    /// Serve one drain, then move its replies and counts into the
    /// outbox under one lock. Each reply takes the worker's spare
    /// buffer and leaves the request's wire as the next spare; a
    /// dropped datagram keeps the spare and frees its wire.
    fn serve_batch(
        &self,
        batch: &mut Vec<Datagram>,
        scratch: &mut WorkerScratch,
        outbox: &Mutex<Outbox>,
    ) {
        let WorkerScratch {
            spare,
            replies,
            proxy,
            upstream,
        } = scratch;
        let processed = batch.len() as u64;
        let mut served = 0;
        for d in batch.drain(..) {
            let wire = self
                .serve_into(&d, proxy, upstream, spare)
                .then(|| std::mem::replace(spare, d.wire));
            served += u64::from(wire.is_some());
            replies.push(Reply {
                peer: d.peer,
                seq: d.seq,
                wire,
            });
        }
        let mut out = outbox.lock().unwrap();
        out.replies.append(replies);
        out.stats.processed += processed;
        out.stats.replies += served;
        out.stats.errors += processed - served;
    }
}

/// Per-worker reusable scratch state: the spare reply buffer, the
/// drain's replies before they move to the outbox, and the
/// proxy/upstream encode buffers. Everything here is grown during
/// warmup and reused for the rest of the run.
#[derive(Default)]
struct WorkerScratch {
    spare: Vec<u8>,
    replies: Vec<Reply>,
    proxy: ProxyScratch,
    upstream: Vec<u8>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::{IoProvider, RecvSlot, ReplayProvider};
    use crate::method::{build_request, DocMethod};
    use crate::policy::CachePolicy;
    use crate::server::MockUpstream;
    use doc_coap::msg::{Code, MsgType};
    use doc_coap::view::CoapView;
    use doc_dns::{Message, Name, RecordType};
    use doc_time::{Instant, Millis};

    #[test]
    fn ring_is_bounded_fifo() {
        let ring = SpmcRing::new(4);
        assert_eq!(ring.capacity(), 4);
        for i in 0..4 {
            ring.push(i).unwrap();
        }
        assert_eq!(ring.len(), 4);
        assert_eq!(ring.pop(), Some(0));
        assert_eq!(ring.pop(), Some(1));
        ring.push(4).unwrap();
        let mut batch = Vec::new();
        assert_eq!(ring.pop_batch(&mut batch, 8), 3);
        assert_eq!(batch, vec![2, 3, 4]);
        ring.close();
        assert_eq!(ring.pop(), None);
        assert!(ring.push(9).is_err());
    }

    #[test]
    fn ring_full_push_blocks_until_pop() {
        let ring = Arc::new(SpmcRing::new(2));
        ring.push(1u32).unwrap();
        ring.push(2).unwrap();
        let r2 = Arc::clone(&ring);
        let producer = std::thread::spawn(move || r2.push(3).is_ok());
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(ring.pop(), Some(1), "push of 3 must still be parked");
        assert!(producer.join().unwrap());
        assert_eq!(ring.pop(), Some(2));
        assert_eq!(ring.pop(), Some(3));
    }

    #[test]
    fn ring_multi_consumer_partitions_items() {
        let ring = Arc::new(SpmcRing::new(8));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let consumers: Vec<_> = (0..3)
            .map(|_| {
                let ring = Arc::clone(&ring);
                let seen = Arc::clone(&seen);
                std::thread::spawn(move || {
                    let mut batch = Vec::new();
                    while ring.pop_batch(&mut batch, 4) > 0 {
                        seen.lock().unwrap().append(&mut batch);
                    }
                })
            })
            .collect();
        for i in 0..100u32 {
            ring.push(i).unwrap();
        }
        ring.close();
        for c in consumers {
            c.join().unwrap();
        }
        let mut got = seen.lock().unwrap().clone();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>(), "exactly-once delivery");
    }

    fn fetch_wire(name: &str, seq: u64) -> Vec<u8> {
        let mut q = Message::query(0, Name::parse(name).unwrap(), RecordType::Aaaa);
        q.canonicalize_id();
        build_request(
            DocMethod::Fetch,
            &q.encode(),
            MsgType::Con,
            seq as u16,
            vec![seq as u8, (seq >> 8) as u8],
        )
        .unwrap()
        .encode()
    }

    fn pool(workers: usize, names: &[&str]) -> ProxyPool {
        let up = MockUpstream::new(7, 3600, 3600);
        for n in names {
            up.add_aaaa(Name::parse(n).unwrap(), 1);
        }
        ProxyPool::new(
            workers,
            Arc::new(CoapProxy::with_shards(256, 8)),
            Arc::new(DocServer::new(CachePolicy::EolTtls, up)),
        )
    }

    /// Serve `requests` through `run_io` and an in-memory replay; the
    /// replies come back in completion order.
    fn replay<W: AsRef<[u8]>>(
        pool: &ProxyPool,
        ring: usize,
        requests: impl IntoIterator<Item = (u64, Instant, W)>,
    ) -> (PoolRunStats, Vec<Reply>) {
        let mut replies = Vec::new();
        let mut provider = ReplayProvider::new(requests, |r: &Reply| replies.push(r.clone()));
        let stats = pool.run_io(&mut provider, ring, 8, Millis::from_millis(1));
        (stats, replies)
    }

    #[test]
    fn pool_serves_all_datagrams_with_matching_exchanges() {
        let names = ["a.example.org", "b.example.org", "c.example.org"];
        let pool = pool(4, &names);
        let total = 300u64;
        let (stats, replies) = replay(
            &pool,
            16,
            (0..total).map(|seq| {
                let wire = fetch_wire(names[(seq % 3) as usize], seq);
                (seq % 5, Instant::from_millis(seq), wire)
            }),
        );
        assert_eq!(stats.processed, total);
        assert_eq!(stats.replies, total);
        assert_eq!(stats.errors, 0);
        assert_eq!(replies.len(), total as usize);
        for r in replies.iter() {
            // Each reply carries its own request's token and MID — no
            // cross-exchange mix-ups under concurrency.
            let wire = r.wire.as_ref().expect("reply present");
            let v = CoapView::parse(wire).unwrap();
            assert_eq!(v.code, Code::CONTENT, "seq {}", r.seq);
            assert_eq!(v.message_id, r.seq as u16);
            assert_eq!(v.token(), &[r.seq as u8, (r.seq >> 8) as u8]);
        }
        // 3 distinct names with 1-hour TTLs: all but the first touches
        // are proxy cache hits. Concurrent first touches can each miss
        // before the insert lands, so the miss count is bounded by
        // names × workers, not names.
        let p = pool.proxy.stats();
        assert_eq!(p.requests, total as u32);
        assert!(p.cache_hits >= total as u32 - 12, "hits {}", p.cache_hits);
    }

    /// A stream-mode pool over one upstream, plus a twin upstream with
    /// the same seed and zone for computing expected replies.
    fn stream_pool(mode: ServeMode, zone: &[(&str, u16)]) -> (ProxyPool, MockUpstream) {
        let mk = || {
            let up = MockUpstream::new(7, 3600, 3600);
            for &(name, n) in zone {
                up.add_aaaa(Name::parse(name).unwrap(), n);
            }
            up
        };
        let pool = ProxyPool::with_mode(
            2,
            Arc::new(CoapProxy::with_shards(64, 4)),
            Arc::new(DocServer::new(CachePolicy::EolTtls, mk())),
            mode,
        );
        (pool, mk())
    }

    fn frame_request(mode: ServeMode, dns: &[u8]) -> Vec<u8> {
        match mode {
            ServeMode::DohLite => doc_quic::doq::encode_doh_request(dns),
            _ => doc_quic::doq::encode_doq(dns),
        }
    }

    #[test]
    fn stream_modes_serve_framed_dns() {
        use doc_quic::doq;
        for mode in [ServeMode::Doq, ServeMode::DohLite, ServeMode::Dot] {
            let (pool, reference) = stream_pool(mode, &[("a.example.org", 1)]);
            assert_eq!(pool.mode(), mode);
            let query = |name: &str| {
                let mut q = Message::query(9, Name::parse(name).unwrap(), RecordType::Aaaa);
                q.header.rd = true;
                q.encode()
            };
            let hit = query("a.example.org");
            let nxdomain = query("missing.example.org");
            let wire_for = |seq: u64| match seq {
                13 => vec![0xFF; 3], // malformed framing is dropped
                _ if seq % 7 == 3 => frame_request(mode, &nxdomain),
                _ => frame_request(mode, &hit),
            };
            let (stats, replies) = replay(
                &pool,
                8,
                (0..50u64).map(|seq| (0, Instant::from_millis(1), wire_for(seq))),
            );
            assert_eq!(stats.processed, 50, "{mode:?}");
            assert_eq!(stats.replies, 49, "{mode:?}");
            assert_eq!(stats.errors, 1, "{mode:?}");
            // Every reply is byte-equal to the owned composition: decode
            // the query into a `Message`, `resolve`, `encode`, frame.
            // The TTL is fixed and every request arrives at t=1 ms, so
            // the twin upstream's answers do not depend on arrival order.
            let expected = |seq: u64| {
                let framed = wire_for(seq);
                let dns = match mode {
                    ServeMode::DohLite => doq::decode_doh(&framed).unwrap(),
                    _ => doq::decode_doq(&framed).unwrap(),
                };
                let resp = reference
                    .resolve(&Message::decode(dns).unwrap(), 1)
                    .encode();
                match mode {
                    ServeMode::DohLite => doq::encode_doh_response(&resp),
                    _ => doq::encode_doq(&resp),
                }
            };
            assert_eq!(replies.len(), 50, "{mode:?}");
            for r in replies.iter() {
                match r.seq {
                    13 => assert_eq!(r.wire, None, "{mode:?}"),
                    seq => assert_eq!(r.wire, Some(expected(seq)), "{mode:?} seq {seq}"),
                }
            }
            let nx = replies.iter().find(|r| r.seq == 3).unwrap();
            let dns = match mode {
                ServeMode::DohLite => doq::decode_doh(nx.wire.as_ref().unwrap()).unwrap(),
                _ => doq::decode_doq(nx.wire.as_ref().unwrap()).unwrap(),
            };
            let resp = Message::decode(dns).unwrap();
            assert_eq!(resp.header.id, 9, "{mode:?}: response echoes the query ID");
            assert_eq!(resp.header.rcode, doc_dns::Rcode::NxDomain, "{mode:?}");
        }
    }

    /// A DNS reply over 65535 bytes cannot be framed on any stream
    /// transport: it is dropped and counted as an error, and the pool
    /// keeps serving (it used to panic a worker and take down the run).
    #[test]
    fn stream_modes_drop_oversized_replies() {
        for mode in [ServeMode::Doq, ServeMode::DohLite, ServeMode::Dot] {
            // 2400 AAAA records: 2400 × 28 answer bytes > 65535.
            let (pool, _) = stream_pool(mode, &[("big.example.org", 2400), ("a.example.org", 1)]);
            let query = |name: &str| {
                Message::query(1, Name::parse(name).unwrap(), RecordType::Aaaa).encode()
            };
            let wires = [
                frame_request(mode, &query("big.example.org")),
                frame_request(mode, &query("a.example.org")),
            ];
            let (stats, replies) = replay(
                &pool,
                4,
                wires.iter().map(|w| (0, Instant::from_millis(1), w)),
            );
            assert_eq!(stats.processed, 2, "{mode:?}");
            assert_eq!(stats.errors, 1, "{mode:?}");
            assert_eq!(stats.replies, 1, "{mode:?}");
            let mut replies: Vec<_> = replies.iter().map(|r| (r.seq, r.wire.is_some())).collect();
            replies.sort_unstable();
            assert_eq!(replies, vec![(0, false), (1, true)], "{mode:?}");
        }
    }

    #[test]
    fn pool_drops_malformed_datagrams() {
        let pool = pool(2, &["a.example.org"]);
        let (stats, replies) = replay(
            &pool,
            4,
            (0..10u64).map(|seq| {
                let wire = match seq % 2 {
                    0 => fetch_wire("a.example.org", seq),
                    _ => vec![0xFF, 0x00, 0x01], // not a CoAP datagram
                };
                (0, Instant::from_millis(0), wire)
            }),
        );
        assert_eq!(stats.processed, 10);
        assert_eq!(stats.replies, 5);
        assert_eq!(stats.errors, 5);
        assert_eq!(replies.iter().filter(|r| r.wire.is_none()).count(), 5);
    }

    /// A provider panicking in `send_batch` must propagate out of
    /// `run_io` (via the scope join), not leave the workers parked on
    /// the ring.
    #[test]
    fn sink_panic_propagates_instead_of_deadlocking() {
        let pool = pool(1, &["a.example.org"]);
        // Far more datagrams than ring slots, so the pump is still
        // feeding when the first flush panics.
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let requests = (0..1000u64)
                .map(|seq| (0, Instant::from_millis(0), fetch_wire("a.example.org", seq)));
            let mut provider =
                ReplayProvider::new(requests, |_: &Reply| panic!("reply sink failure"));
            pool.run_io(&mut provider, 4, 8, Millis::from_millis(1))
        }));
        assert!(result.is_err(), "panic must propagate");
    }

    /// A provider panicking in `recv_batch` mid-run must propagate out
    /// of `run_io` the same way — not leave the workers parked on the
    /// open ring's condvar.
    #[test]
    fn producer_panic_propagates_instead_of_deadlocking() {
        let pool = pool(2, &["a.example.org"]);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let requests = (0..100u64).map(|seq| {
                if seq == 50 {
                    panic!("load source failure");
                }
                (0, Instant::from_millis(0), fetch_wire("a.example.org", seq))
            });
            let mut provider = ReplayProvider::new(requests, |_: &Reply| {});
            pool.run_io(&mut provider, 4, 8, Millis::from_millis(1))
        }));
        assert!(result.is_err(), "panic must propagate");
    }

    #[test]
    fn single_and_multi_worker_agree_on_totals() {
        let names = ["x.example.org", "y.example.org"];
        let total = 200u64;
        let run = |workers| {
            let pool = pool(workers, &names);
            // Prime the cache single-threaded so the measured run has
            // no first-touch races; after that, totals are exact and
            // identical for every worker count.
            let mut buf = Vec::new();
            for (i, n) in names.iter().enumerate() {
                pool.serve(
                    &Datagram {
                        peer: 9,
                        seq: 1000 + i as u64,
                        at: doc_time::Instant::from_millis(0),
                        wire: fetch_wire(n, 1000 + i as u64),
                    },
                    &mut buf,
                );
            }
            // A single instant: no TTL churn.
            let (stats, _) = replay(
                &pool,
                8,
                (0..total).map(|seq| {
                    let wire = fetch_wire(names[(seq % 2) as usize], seq);
                    (0, Instant::from_millis(5), wire)
                }),
            );
            (stats, pool.proxy.stats(), pool.server.stats())
        };
        let (s1, p1, sv1) = run(1);
        let (s4, p4, sv4) = run(4);
        // The serve totals must agree across worker counts.
        assert_eq!(s1.processed, s4.processed);
        assert_eq!(s1.replies, s4.replies);
        assert_eq!(s1.errors, s4.errors);
        assert_eq!(p1.requests, p4.requests);
        assert_eq!(p1.cache_hits, p4.cache_hits);
        assert_eq!(p1.cache_hits, total as u32, "every measured request hits");
        assert_eq!(sv1.full_responses, sv4.full_responses);
    }

    /// Wraps a replay and checks what the pump leaves in the slots.
    struct SlotProbe<P> {
        inner: P,
        /// Datagrams received into a buffer that had never held one.
        fresh: usize,
    }

    impl<P: IoProvider> IoProvider for SlotProbe<P> {
        fn recv_batch(&mut self, slots: &mut [RecvSlot], timeout: Millis) -> usize {
            let unused: Vec<bool> = slots
                .iter()
                .map(|slot| {
                    let d = slot.datagram.as_ref().expect("the pump fills every slot");
                    assert!(d.wire.is_empty(), "spent buffers come back cleared");
                    d.wire.capacity() == 0
                })
                .collect();
            let n = self.inner.recv_batch(slots, timeout);
            self.fresh += unused.iter().take(n).filter(|&&u| u).count();
            n
        }

        fn send_batch(&mut self, replies: &[Reply]) -> usize {
            self.inner.send_batch(replies)
        }
    }

    /// Buffers circulate: every slot reaches the provider with a
    /// cleared spent datagram, and new buffers are only needed until
    /// the in-flight bound is covered, not once per request. When the
    /// pump refills the slots, what is in flight was in flight at its
    /// last flush: at most 8 ring entries plus 8 drained by each of the
    /// two workers. With the 8 slots and a spare per worker, 34
    /// buffers carry the whole run.
    #[test]
    fn spent_buffers_return_to_recv_slots() {
        let pool = pool(2, &["a.example.org"]);
        let total = 2_000u64;
        let requests =
            (0..total).map(|seq| (0, Instant::from_millis(1), fetch_wire("a.example.org", seq)));
        let mut probe = SlotProbe {
            inner: ReplayProvider::new(requests, |_: &Reply| {}),
            fresh: 0,
        };
        let stats = pool.run_io(&mut probe, 8, 8, Millis::from_millis(1));
        assert_eq!(stats.replies, total);
        assert!(probe.fresh <= 34, "{} fresh buffers", probe.fresh);
    }
}
