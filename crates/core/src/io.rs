//! I/O providers: the pluggable front door of the worker pool.
//!
//! The pool ([`crate::pool::ProxyPool`]) is transport-agnostic — it
//! consumes [`Datagram`]s and emits [`Reply`]s. An [`IoProvider`] is
//! where those datagrams come from and where the replies go:
//!
//! * [`ReplayProvider`] replays a caller-given request sequence from
//!   memory and hands every reply to a caller closure — the
//!   closed-loop throughput harness (`doc-bench`) and the pool tests.
//! * [`SimProvider`] feeds the pool from a `doc-netsim` event drain,
//!   so the paper's simulated workloads run through the *same* worker
//!   code as production traffic — and stay bit-identical, because the
//!   provider only re-plumbs `Sim::drain_due`, it does not reinterpret
//!   the schedule.
//! * [`UdpProvider`] serves real datagrams from a
//!   [`std::net::UdpSocket`] with a batched receive loop (block for
//!   the first datagram, then drain the socket non-blocking —
//!   `recvmmsg` shaped, one syscall per datagram but one *blocking
//!   point* per batch).
//!
//! The split follows the provider pattern of s2n-quic's platform
//! layer: protocol code never touches a socket, so a test harness, a
//! simulator and a production front-end are interchangeable at one
//! seam. Deadlines are [`Millis`]-typed; providers never see protocol
//! state.
//!
//! [`ProxyPool::run_io`] is the pump and the only way to drive the
//! workers. The calling thread alternates `send_batch` flushes of the
//! workers' outbox and `recv_batch` fills pushed into the injector
//! ring. Buffers circulate instead of being allocated: a received
//! wire becomes a worker's spare reply buffer, a sent reply's wire
//! becomes a spare the pump leaves in an empty [`RecvSlot`], and a
//! provider may receive into it.

use crate::pool::{CloseGuard, Datagram, Outbox, PoolRunStats, ProxyPool, Reply, SpmcRing};
use doc_check::sync::Mutex;
use doc_netsim::{NodeId, Sim, SimEvent, Tag};
use doc_time::{Instant, Millis};
use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};

/// One receive slot a provider fills: `recv_batch` writes at most one
/// datagram per slot, front-to-back.
///
/// Before each `recv_batch`, [`ProxyPool::run_io`] leaves a spent
/// datagram with an empty `wire` in every slot; a provider may receive
/// into that buffer instead of allocating one, or replace the datagram
/// outright.
#[derive(Debug, Default)]
pub struct RecvSlot {
    /// The received datagram, if this slot was filled.
    pub datagram: Option<Datagram>,
}

/// A source/sink of request datagrams — the pool's view of "the
/// network".
pub trait IoProvider {
    /// Fill `slots` front-to-back with received datagrams, waiting up
    /// to `timeout` for the first one. Returns the number of slots
    /// filled; 0 means the source is idle (timeout expired or the
    /// workload is exhausted) and ends a [`ProxyPool::run_io`] pump
    /// once no reply is in flight.
    fn recv_batch(&mut self, slots: &mut [RecvSlot], timeout: Millis) -> usize;

    /// Send a batch of replies back to their peers. Replies whose
    /// `wire` is `None` (dropped datagrams) are skipped. Returns the
    /// number actually sent.
    fn send_batch(&mut self, replies: &[Reply]) -> usize;
}

/// The slot's datagram with its wire cleared: the spent datagram
/// [`ProxyPool::run_io`] left there, or a new empty one.
fn slot_wire(slot: &mut RecvSlot) -> &mut Datagram {
    let d = slot.datagram.get_or_insert_with(Datagram::default);
    d.wire.clear();
    d
}

/// [`IoProvider`] over memory: replays a request sequence into the
/// slot buffers and hands every reply — dropped ones too, with no
/// `wire` — to a closure on the pump thread. Requests are numbered
/// 0, 1, … in replay order as their `seq`. Once the sequence is
/// exhausted `recv_batch` yields the thread and reports idle.
pub struct ReplayProvider<I, F> {
    requests: I,
    seq: u64,
    on_reply: F,
}

impl<I, F> ReplayProvider<I, F> {
    /// Replay `requests`, `(peer, at, wire)` triples, and hand each
    /// reply to `on_reply`.
    pub fn new<R: IntoIterator<IntoIter = I>>(requests: R, on_reply: F) -> Self {
        ReplayProvider {
            requests: requests.into_iter(),
            seq: 0,
            on_reply,
        }
    }
}

impl<I, W, F> IoProvider for ReplayProvider<I, F>
where
    I: Iterator<Item = (u64, Instant, W)>,
    W: AsRef<[u8]>,
    F: FnMut(&Reply),
{
    fn recv_batch(&mut self, slots: &mut [RecvSlot], _timeout: Millis) -> usize {
        let mut n = 0;
        for slot in slots.iter_mut() {
            let Some((peer, at, wire)) = self.requests.next() else {
                break;
            };
            let d = slot_wire(slot);
            d.wire.extend_from_slice(wire.as_ref());
            d.peer = peer;
            d.seq = self.seq;
            d.at = at;
            self.seq += 1;
            n += 1;
        }
        if n == 0 {
            // Nothing left to replay: let the workers finish.
            std::thread::yield_now();
        }
        n
    }

    fn send_batch(&mut self, replies: &[Reply]) -> usize {
        replies.iter().for_each(&mut self.on_reply);
        replies.iter().filter(|r| r.wire.is_some()).count()
    }
}

/// [`IoProvider`] over a `doc-netsim` simulation: events addressed to
/// `node` become pool datagrams, replies are sent back into the
/// simulation along its installed routes.
///
/// The provider is a pure re-plumbing of [`Sim::drain_due`] — event
/// order, timestamps and bytes pass through untouched, which is what
/// keeps the paper sims bit-identical whether they run through the
/// pool or through the original experiment harness.
pub struct SimProvider<'a> {
    sim: &'a mut Sim,
    node: NodeId,
    window_us: u64,
    seq: u64,
    backlog: VecDeque<Datagram>,
    scratch: Vec<(Instant, SimEvent)>,
    delivered: Vec<(NodeId, Vec<u8>)>,
}

impl<'a> SimProvider<'a> {
    /// Serve `node` from `sim`, draining events in windows of
    /// `window_us` past the earliest pending event (the batching knob:
    /// bigger windows, bigger drains).
    pub fn new(sim: &'a mut Sim, node: NodeId, window_us: u64) -> Self {
        SimProvider {
            sim,
            node,
            window_us,
            seq: 0,
            backlog: VecDeque::new(),
            scratch: Vec::new(),
            delivered: Vec::new(),
        }
    }

    /// Datagrams the simulation delivered to nodes *other* than the
    /// served one (e.g. pool replies arriving back at their clients),
    /// in delivery order. Drained by the caller.
    pub fn take_delivered(&mut self) -> Vec<(NodeId, Vec<u8>)> {
        std::mem::take(&mut self.delivered)
    }
}

impl IoProvider for SimProvider<'_> {
    fn recv_batch(&mut self, slots: &mut [RecvSlot], _timeout: Millis) -> usize {
        // Virtual time: the "timeout" is the simulation going idle.
        while self.backlog.is_empty() && !self.sim.is_idle() {
            self.scratch.clear();
            self.sim
                .drain_next_window(self.window_us, &mut self.scratch);
            for (at, ev) in self.scratch.drain(..) {
                match ev {
                    SimEvent::Datagram { from, to, bytes } if to == self.node => {
                        let seq = self.seq;
                        self.seq += 1;
                        self.backlog.push_back(Datagram {
                            peer: from as u64,
                            seq,
                            at,
                            wire: bytes,
                        });
                    }
                    SimEvent::Datagram { to, bytes, .. } => self.delivered.push((to, bytes)),
                    SimEvent::Timer { .. } => {}
                }
            }
        }
        let mut n = 0;
        for slot in slots.iter_mut() {
            match self.backlog.pop_front() {
                Some(d) => {
                    slot.datagram = Some(d);
                    n += 1;
                }
                None => break,
            }
        }
        n
    }

    fn send_batch(&mut self, replies: &[Reply]) -> usize {
        let mut n = 0;
        for r in replies {
            if let Some(wire) = &r.wire {
                self.sim
                    .send_datagram(self.node, r.peer as usize, wire.clone(), Tag::Response);
                n += 1;
            }
        }
        n
    }
}

/// Largest datagram the UDP provider accepts (CoAP over UDP fits
/// comfortably). A longer one is dropped, never truncated: it is
/// received into a buffer one byte larger, which tells the two apart.
const UDP_RECV_BUF: usize = 2048;

/// [`IoProvider`] over a real [`std::net::UdpSocket`]: block for the
/// first datagram (up to the deadline), then drain whatever else the
/// socket already holds without blocking — a `recvmmsg`-shaped batch
/// per wakeup. Each datagram is received straight into its slot's
/// buffer.
///
/// Peers are keyed by source address: the first datagram from an
/// address allocates the next peer id, and replies are routed back by
/// that id. Receive timestamps are pinned to a caller-set virtual
/// instant ([`UdpProvider::with_virtual_time`]) so loopback runs are
/// reproducible against sim runs; production callers would advance it
/// from a wall clock.
pub struct UdpProvider {
    socket: UdpSocket,
    /// peer id → address.
    peers: Vec<SocketAddr>,
    /// address → peer id.
    peer_ids: HashMap<SocketAddr, u64>,
    seq: u64,
    at: Instant,
}

impl UdpProvider {
    /// Bind a socket (e.g. `"127.0.0.1:0"` for an ephemeral loopback
    /// port).
    pub fn bind<A: ToSocketAddrs>(addr: A) -> std::io::Result<Self> {
        Ok(UdpProvider {
            socket: UdpSocket::bind(addr)?,
            peers: Vec::new(),
            peer_ids: HashMap::new(),
            seq: 0,
            at: Instant::EPOCH,
        })
    }

    /// The bound local address (where clients send).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Pin the virtual receive timestamp stamped on every datagram
    /// (drives cache freshness deterministically).
    pub fn with_virtual_time(mut self, at: Instant) -> Self {
        self.at = at;
        self
    }

    fn peer_id(&mut self, addr: SocketAddr) -> u64 {
        match self.peer_ids.get(&addr) {
            Some(&id) => id,
            None => {
                let id = self.peers.len() as u64;
                self.peers.push(addr);
                self.peer_ids.insert(addr, id);
                id
            }
        }
    }

    /// Receive one datagram into `slot`, skipping any longer than
    /// [`UDP_RECV_BUF`]. Returns `false` once the socket has nothing
    /// (timeout, would-block or an error).
    fn recv_into(&mut self, slot: &mut RecvSlot) -> bool {
        let d = slot_wire(slot);
        loop {
            d.wire.resize(UDP_RECV_BUF + 1, 0);
            let Ok((len, addr)) = self.socket.recv_from(&mut d.wire) else {
                d.wire.clear();
                return false;
            };
            if len > UDP_RECV_BUF {
                continue;
            }
            d.wire.truncate(len);
            d.peer = self.peer_id(addr);
            d.seq = self.seq;
            d.at = self.at;
            self.seq += 1;
            return true;
        }
    }
}

impl IoProvider for UdpProvider {
    fn recv_batch(&mut self, slots: &mut [RecvSlot], timeout: Millis) -> usize {
        let Some((first, rest)) = slots.split_first_mut() else {
            return 0;
        };
        // Blocking wait (bounded by the deadline) for the first
        // datagram of the batch.
        let wait = std::time::Duration::from_millis(timeout.as_millis().max(1));
        if self.socket.set_read_timeout(Some(wait)).is_err() || !self.recv_into(first) {
            return 0;
        }
        let mut n = 1;
        // Non-blocking drain of whatever is already queued.
        if self.socket.set_nonblocking(true).is_ok() {
            for slot in rest {
                if !self.recv_into(slot) {
                    break;
                }
                n += 1;
            }
            let _ = self.socket.set_nonblocking(false);
        }
        n
    }

    fn send_batch(&mut self, replies: &[Reply]) -> usize {
        let mut n = 0;
        for r in replies {
            let Some(wire) = &r.wire else { continue };
            let Some(&addr) = self.peers.get(r.peer as usize) else {
                continue;
            };
            if self.socket.send_to(wire, addr).is_ok() {
                n += 1;
            }
        }
        n
    }
}

impl ProxyPool {
    /// Pump a provider through the pool: the calling thread alternates
    /// reply flushes (`send_batch`) and receive fills (`recv_batch`,
    /// up to `slots` datagrams per fill, waiting up to `recv_timeout`
    /// for the first), feeding the worker threads through a bounded
    /// injector of `ring_capacity` slots. Returns once the provider
    /// reports idle (a `recv_batch` of 0) and every in-flight datagram
    /// has been served and flushed back out.
    ///
    /// A panic in the provider or in a worker closes the injector, so
    /// the others stop and the panic propagates out of this call.
    pub fn run_io<P: IoProvider>(
        &self,
        provider: &mut P,
        ring_capacity: usize,
        slots: usize,
        recv_timeout: Millis,
    ) -> PoolRunStats {
        let injector: SpmcRing<Datagram> = SpmcRing::new(ring_capacity);
        let outbox = Mutex::new(Outbox::default());
        std::thread::scope(|scope| {
            // Closes the injector when the pump returns or unwinds, so
            // the workers drain it and the scope can join them.
            let _close_guard = CloseGuard(&injector);
            for _ in 0..self.workers() {
                scope.spawn(|| self.work(&injector, &outbox));
            }
            pump(provider, &injector, &outbox, slots, recv_timeout);
        });
        let stats = std::mem::take(&mut outbox.lock().unwrap().stats);
        stats
    }
}

/// The pump loop of [`ProxyPool::run_io`] on the calling thread.
fn pump<P: IoProvider>(
    provider: &mut P,
    injector: &SpmcRing<Datagram>,
    outbox: &Mutex<Outbox>,
    slots: usize,
    recv_timeout: Millis,
) {
    let mut slots: Vec<RecvSlot> = (0..slots.max(1)).map(|_| RecvSlot::default()).collect();
    // Swapped with the outbox's reply list on every flush, so both
    // keep their capacity.
    let mut sending: Vec<Reply> = Vec::new();
    // Sent replies' wires, waiting to become receive buffers.
    let mut spares: Vec<Vec<u8>> = Vec::new();
    // Datagrams pushed into the injector minus replies flushed. A recv
    // timeout with exchanges still in flight means the peers may be
    // waiting on *us* (serial clients), so keep flushing instead of
    // declaring the source idle.
    let mut in_flight: usize = 0;
    loop {
        // Flush finished replies before blocking in recv — a serial
        // client is waiting for them before it sends its next query.
        std::mem::swap(&mut outbox.lock().unwrap().replies, &mut sending);
        if !sending.is_empty() {
            in_flight -= sending.len();
            provider.send_batch(&sending);
            spares.extend(sending.drain(..).filter_map(|r| r.wire));
        }
        for slot in &mut slots {
            let d = slot.datagram.get_or_insert_with(|| Datagram {
                wire: spares.pop().unwrap_or_default(),
                ..Datagram::default()
            });
            d.wire.clear();
        }
        // While replies are still in flight, poll with a short wait so
        // a finished reply gets flushed promptly — a serial peer won't
        // send again until it lands. Only a fully-flushed pump waits
        // out the real deadline.
        let wait = if in_flight > 0 {
            Millis::from_millis(1).min(recv_timeout)
        } else {
            recv_timeout
        };
        let n = provider.recv_batch(&mut slots, wait);
        if n == 0 {
            // A closed injector means a worker panicked: stop, so the
            // scope joins it and propagates the panic.
            if in_flight == 0 || injector.is_closed() {
                return;
            }
            continue;
        }
        for slot in slots.iter_mut().take(n) {
            let Some(d) = slot.datagram.take() else {
                continue;
            };
            if injector.push(d).is_err() {
                return;
            }
            in_flight += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::{build_request, DocMethod};
    use crate::policy::CachePolicy;
    use crate::proxy::CoapProxy;
    use crate::server::{DocServer, MockUpstream};
    use doc_check::sync::Arc;
    use doc_coap::msg::MsgType;
    use doc_dns::{Message, Name, RecordType};
    use doc_netsim::LinkKind;

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

    fn pool(workers: usize) -> ProxyPool {
        let up = MockUpstream::new(7, 3600, 3600);
        up.add_aaaa(Name::parse("a.example.org").unwrap(), 1);
        up.add_aaaa(Name::parse("b.example.org").unwrap(), 1);
        ProxyPool::new(
            workers,
            Arc::new(CoapProxy::with_shards(64, 4)),
            Arc::new(DocServer::new(CachePolicy::EolTtls, up)),
        )
    }

    #[test]
    fn sim_provider_serves_pool_and_replies_reach_clients() {
        let mut sim = Sim::new(42);
        let proxy_node: NodeId = 0;
        let client: NodeId = 1;
        sim.add_link(proxy_node, client, LinkKind::Wired { latency_us: 100 });
        sim.add_route(&[client, proxy_node]);
        let total = 20u64;
        for seq in 0..total {
            let name = if seq % 2 == 0 {
                "a.example.org"
            } else {
                "b.example.org"
            };
            sim.send_datagram(client, proxy_node, fetch_wire(name, seq), Tag::Query);
        }
        let pool = pool(2);
        let mut provider = SimProvider::new(&mut sim, proxy_node, 1_000);
        let stats = pool.run_io(&mut provider, 16, 8, Millis::from_millis(10));
        assert_eq!(stats.processed, total);
        assert_eq!(stats.replies, total);
        // Pump the sim dry so the replies sent back actually arrive
        // (the tail of the final flush is still in the event queue).
        let mut none: [RecvSlot; 1] = Default::default();
        assert_eq!(provider.recv_batch(&mut none, Millis::from_millis(1)), 0);
        let delivered = provider.take_delivered();
        assert_eq!(delivered.len(), total as usize, "every reply delivered");
        assert!(delivered.iter().all(|(node, _)| *node == client));
    }

    #[test]
    fn udp_provider_times_out_when_idle() {
        let pool = pool(1);
        let mut provider = UdpProvider::bind("127.0.0.1:0").unwrap();
        let stats = pool.run_io(&mut provider, 8, 4, Millis::from_millis(20));
        assert_eq!(stats.processed, 0);
    }

    #[test]
    fn udp_provider_serves_loopback_queries() {
        let pool = pool(2);
        let mut provider = UdpProvider::bind("127.0.0.1:0")
            .unwrap()
            .with_virtual_time(Instant::from_millis(1));
        let server_addr = provider.local_addr().unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        client
            .set_read_timeout(Some(std::time::Duration::from_millis(2000)))
            .unwrap();
        let total = 10u64;
        let handle = std::thread::spawn(move || {
            let mut replies = Vec::new();
            let mut buf = [0u8; 2048];
            for seq in 0..total {
                client
                    .send_to(&fetch_wire("a.example.org", seq), server_addr)
                    .unwrap();
                let (len, _) = client.recv_from(&mut buf).unwrap();
                replies.push(buf[..len].to_vec());
            }
            replies
        });
        let stats = pool.run_io(&mut provider, 8, 4, Millis::from_millis(500));
        let replies = handle.join().unwrap();
        assert_eq!(stats.processed, total);
        assert_eq!(stats.replies, total);
        assert_eq!(replies.len(), total as usize);
        for (seq, wire) in replies.iter().enumerate() {
            let v = doc_coap::view::CoapView::parse(wire).unwrap();
            assert_eq!(v.message_id, seq as u16, "reply for query {seq}");
        }
    }

    /// A datagram longer than the receive limit is dropped whole, not
    /// truncated to the limit and served as if it were complete.
    #[test]
    fn udp_provider_drops_oversized_datagrams() {
        let pool = pool(1);
        let mut provider = UdpProvider::bind("127.0.0.1:0")
            .unwrap()
            .with_virtual_time(Instant::from_millis(1));
        let server_addr = provider.local_addr().unwrap();
        let client = UdpSocket::bind("127.0.0.1:0").unwrap();
        let handle = std::thread::spawn(move || {
            // A valid query padded to 3000 bytes: its first 2048 bytes
            // start like a request.
            let mut big = fetch_wire("b.example.org", 7);
            big.resize(3000, 0);
            client.send_to(&big, server_addr).unwrap();
            client
                .send_to(&fetch_wire("a.example.org", 1), server_addr)
                .unwrap();
            let mut buf = [0u8; 4096];
            let mut replies = Vec::new();
            client
                .set_read_timeout(Some(std::time::Duration::from_millis(2000)))
                .unwrap();
            let (len, _) = client.recv_from(&mut buf).unwrap();
            replies.push(buf[..len].to_vec());
            client
                .set_read_timeout(Some(std::time::Duration::from_millis(200)))
                .unwrap();
            if let Ok((len, _)) = client.recv_from(&mut buf) {
                replies.push(buf[..len].to_vec());
            }
            replies
        });
        let stats = pool.run_io(&mut provider, 8, 4, Millis::from_millis(500));
        let replies = handle.join().unwrap();
        assert_eq!(stats.processed, 1);
        assert_eq!(stats.replies, 1);
        assert_eq!(replies.len(), 1, "only the valid query is answered");
        let v = doc_coap::view::CoapView::parse(&replies[0]).unwrap();
        assert_eq!(v.message_id, 1);
    }
}
