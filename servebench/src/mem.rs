//! The in-memory [`IoProvider`]: the benchmark's own network. It
//! issues seeded requests to `ProxyPool::run_io` on an open-loop
//! Poisson schedule (latency phase) or under a fixed in-flight window
//! (saturation phase), and checks every reply with the oracle.

use crate::common::{check_coap, check_doq, patch_coap, Fault, Rng, Tally, Zipf, Zone};
use doc_core::pool::{Datagram, Reply};
use doc_core::{IoProvider, RecvSlot};
use doc_time::{Instant as VInstant, Millis};
use std::time::{Duration, Instant};

/// How request datagrams are framed.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Framing {
    /// CoAP DoC, FETCH or GET.
    Coap,
    /// RFC 9250 DoQ stream framing.
    Doq,
}

/// The static half of a workload: zone, request templates, framing.
pub struct Catalog {
    pub zone: Zone,
    /// CoAP: `entry * 2 + method` (0 FETCH, 1 GET). DoQ: `entry`.
    pub templates: Vec<Vec<u8>>,
    pub framing: Framing,
    /// Largest TTL the upstream hands out (oracle bound on Max-Age).
    pub ttl_max: u32,
}

impl Catalog {
    pub fn new(zone: Zone, framing: Framing, ttl_max: u32) -> Self {
        let mut templates = Vec::new();
        for i in 0..zone.entries.len() {
            match framing {
                Framing::Coap => {
                    for m in [doc_core::DocMethod::Fetch, doc_core::DocMethod::Get] {
                        templates.push(crate::common::coap_template(&zone, i, m));
                    }
                }
                Framing::Doq => templates.push(doc_quic::doq::encode_doq(&zone.dns_query(i))),
            }
        }
        Catalog {
            zone,
            templates,
            framing,
            ttl_max,
        }
    }

    /// Template index of a request for `entry` with `get` set for GET.
    pub fn key(&self, entry: usize, get: bool) -> usize {
        match self.framing {
            Framing::Coap => entry * 2 + get as usize,
            Framing::Doq => entry,
        }
    }

    /// The wire of request `seq` for template `key`.
    pub fn wire(&self, key: usize, seq: u64) -> Vec<u8> {
        let mut w = self.templates[key].clone();
        if self.framing == Framing::Coap {
            patch_coap(&mut w, seq as u16, seq as u32);
        }
        w
    }

    /// Check the reply to request `seq` for template `key`.
    pub fn check(&self, key: usize, seq: u64, reply: &[u8]) -> Result<(), Fault> {
        match self.framing {
            Framing::Coap => check_coap(
                &self.zone,
                key / 2,
                seq as u16,
                seq as u32,
                reply,
                self.ttl_max,
            ),
            Framing::Doq => check_doq(&self.zone, key, reply, self.ttl_max),
        }
    }
}

/// One generated request.
#[derive(Clone, Copy, Debug, Default)]
pub struct Req {
    pub key: u32,
    /// Wall due time, ns after the phase epoch (open loop only).
    pub due_ns: u64,
    /// Virtual receive time stamped on the datagram.
    pub at_ms: u64,
}

/// The seeded request stream: Zipf names, a 70/30 FETCH/GET mix, a
/// Poisson wall schedule and a Poisson virtual clock.
pub struct ReqStream<'a> {
    catalog: &'a Catalog,
    zipf: &'a Zipf,
    keys: Rng,
    wall: Rng,
    wall_gap_ns: f64,
    virt_gap_ns: f64,
    wall_ns: f64,
    virt_ns: f64,
    virt_start_ms: u64,
}

impl<'a> ReqStream<'a> {
    /// `rate` wall requests/s; `virt_rate` requests per virtual second
    /// (0 pins the virtual clock at `virt_start_ms`).
    pub fn new(
        catalog: &'a Catalog,
        zipf: &'a Zipf,
        seed: u64,
        rate: f64,
        virt_rate: f64,
        virt_start_ms: u64,
    ) -> Self {
        ReqStream {
            catalog,
            zipf,
            keys: Rng::new(crate::common::derive(seed, 2)),
            wall: Rng::new(crate::common::derive(seed, 3)),
            wall_gap_ns: 1e9 / rate.max(1e-9),
            virt_gap_ns: if virt_rate > 0.0 {
                1e9 / virt_rate
            } else {
                0.0
            },
            wall_ns: 0.0,
            virt_ns: 0.0,
            virt_start_ms,
        }
    }

    pub fn next_req(&mut self) -> Req {
        let entry = self.zipf.sample(&mut self.keys);
        let get = self.keys.below(10) < 3;
        if self.virt_gap_ns > 0.0 {
            self.virt_ns += self.keys.exp(self.virt_gap_ns);
        }
        self.wall_ns += self.wall.exp(self.wall_gap_ns);
        Req {
            key: self.catalog.key(entry, get) as u32,
            due_ns: self.wall_ns as u64,
            at_ms: self.virt_start_ms + (self.virt_ns / 1e6) as u64,
        }
    }

    /// Virtual time the stream has reached.
    pub fn virt_ms(&self) -> u64 {
        self.virt_start_ms + (self.virt_ns / 1e6) as u64
    }
}

/// Load shape of one phase.
pub enum Load {
    /// Poisson arrivals until `duration` of schedule is issued.
    Open { duration: Duration },
    /// Keep `window` requests in flight until `duration` has passed.
    Closed { window: usize, duration: Duration },
}

const SLOT_BITS: u32 = 16;
const SLOT_MASK: u64 = (1 << SLOT_BITS) - 1;

#[derive(Clone, Copy, Default)]
struct Slot {
    seq: u64,
    key: u32,
    due_ns: u64,
    handed_ns: u64,
    live: bool,
}

/// What one phase measured.
#[derive(Default)]
pub struct PhaseResult {
    pub tally: Tally,
    /// Open loop only: due → reply.
    pub latency_ns: Vec<u64>,
    /// Due time of each `latency_ns` sample (same order).
    pub due_ns: Vec<u64>,
    /// Open loop only: hand-off to the pool → reply leaving through
    /// `send_batch`.
    pub sojourn_ns: Vec<u64>,
    /// Open loop: hand-off − due.
    pub lag_ns: Vec<u64>,
    pub wall: Duration,
    /// Time spent inside the provider's own code (generating, waiting
    /// by spinning, checking) — subtracted from server CPU.
    pub gen_ns: u64,
    pub bytes: u64,
    pub virt_end_ms: u64,
    /// Correct replies per `SLICE_NS` slice of the phase clock.
    pub ok_per_slice: Vec<u64>,
    /// Closed loop: server CPU over the measured window (after the
    /// first slice, until issuing stops), split by thread.
    pub window: Option<CpuWindow>,
}

/// Server-thread CPU over a measured window of a closed-loop phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuWindow {
    /// Correct replies inside the window.
    pub ok: u64,
    /// CPU of the pool worker thread(s), summed.
    pub worker_ns: u64,
    /// CPU of the busiest worker thread.
    pub worker_max_ns: u64,
    /// CPU of the pump thread minus the provider's own time.
    pub pump_ns: u64,
}

impl CpuWindow {
    /// The window over two parts of a phase.
    pub fn add(&self, o: &CpuWindow) -> CpuWindow {
        CpuWindow {
            ok: self.ok + o.ok,
            worker_ns: self.worker_ns + o.worker_ns,
            worker_max_ns: self.worker_max_ns + o.worker_max_ns,
            pump_ns: self.pump_ns + o.pump_ns,
        }
    }

    /// Server CPU per correct reply, µs.
    pub fn cpu_us_per_req(&self) -> f64 {
        (self.worker_ns + self.pump_ns) as f64 / self.ok.max(1) as f64 / 1e3
    }

    /// Replies per second of CPU of the busiest server thread — the
    /// rate the bottleneck thread sustains when it gets a whole core,
    /// unaffected by time the host takes the core away.
    pub fn capacity_rps(&self) -> f64 {
        self.ok as f64 * 1e9 / self.worker_max_ns.max(self.pump_ns).max(1) as f64
    }
}

/// Throughput slice length.
pub const SLICE_NS: u64 = 100_000_000;

impl PhaseResult {
    /// Append the next part of the same phase: samples concatenated,
    /// the part's due times shifted past this result's wall time, and
    /// counts and CPU windows summed.
    pub fn append(&mut self, part: PhaseResult) {
        let offset = self.wall.as_nanos() as u64;
        self.tally.merge(&part.tally);
        self.latency_ns.extend(part.latency_ns);
        self.due_ns.extend(part.due_ns.iter().map(|d| d + offset));
        self.sojourn_ns.extend(part.sojourn_ns);
        self.lag_ns.extend(part.lag_ns);
        self.wall += part.wall;
        self.gen_ns += part.gen_ns;
        self.bytes += part.bytes;
        self.virt_end_ms = part.virt_end_ms;
        self.ok_per_slice.extend(part.ok_per_slice);
        self.window = match (self.window, part.window) {
            (Some(a), Some(b)) => Some(a.add(&b)),
            (a, b) => a.or(b),
        };
    }

    /// The `p` quantile of the full slices' rates, per second.
    pub fn slice_rate(&self, p: f64) -> f64 {
        let n = self.ok_per_slice.len();
        if n <= 2 {
            return 0.0;
        }
        let mut v = self.ok_per_slice[1..n - 1].to_vec();
        v.sort_unstable();
        crate::common::percentile(&v, p) as f64 * 1e9 / SLICE_NS as f64
    }

    /// Median correct-reply rate over the phase's full slices (the
    /// first and the last slice are partial and dropped).
    pub fn median_rate(&self) -> f64 {
        let n = self.ok_per_slice.len();
        let full: Vec<f64> = if n > 2 {
            self.ok_per_slice[1..n - 1]
                .iter()
                .map(|&c| c as f64)
                .collect()
        } else {
            vec![self.tally.ok as f64 / self.wall.as_secs_f64().max(1e-9) * SLICE_NS as f64 / 1e9]
        };
        crate::common::median(&full) * 1e9 / SLICE_NS as f64
    }
}

/// Start of a closed-loop CPU window: the task CPU snapshot, `gen_ns`
/// and the correct-reply count at that moment.
type Mark = (Vec<(u32, u64)>, u64, u64);

/// The in-memory provider for one phase.
pub struct MemProvider<'a> {
    stream: ReqStream<'a>,
    catalog: &'a Catalog,
    load: Load,
    epoch: Instant,
    next_seq: u64,
    pending: Option<Req>,
    slots: Vec<Slot>,
    inflight: usize,
    done_issuing: bool,
    mark: Option<Mark>,
    pump_tid: u32,
    pub result: PhaseResult,
}

impl<'a> MemProvider<'a> {
    pub fn new(stream: ReqStream<'a>, catalog: &'a Catalog, load: Load, first_seq: u64) -> Self {
        let mut result = PhaseResult::default();
        if let Load::Open { duration } = load {
            // Sized up front so sample buffers never regrow mid-phase.
            let n = (duration.as_secs_f64() * 1e9 / stream.wall_gap_ns * 1.2) as usize + 1024;
            result.latency_ns.reserve(n);
            result.due_ns.reserve(n);
            result.sojourn_ns.reserve(n);
            result.lag_ns.reserve(n);
        }
        result.ok_per_slice.reserve(1024);
        MemProvider {
            stream,
            catalog,
            load,
            epoch: Instant::now(),
            next_seq: first_seq,
            pending: None,
            slots: vec![Slot::default(); 1 << SLOT_BITS],
            inflight: 0,
            done_issuing: false,
            mark: None,
            pump_tid: 0,
            result,
        }
    }

    /// Restart the phase clock (call right before `run_io`).
    pub fn start(&mut self) {
        self.epoch = Instant::now();
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn hand_off(&mut self, req: Req, slot: &mut RecvSlot, now_ns: u64) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let wire = self.catalog.wire(req.key as usize, seq);
        self.result.bytes += wire.len() as u64;
        let s = &mut self.slots[(seq & SLOT_MASK) as usize];
        if s.live {
            // The window outgrew the slot table: the old request is
            // reported lost rather than silently overwritten.
            self.result.tally.lost += 1;
            self.inflight -= 1;
        }
        *s = Slot {
            seq,
            key: req.key,
            due_ns: req.due_ns,
            handed_ns: now_ns,
            live: true,
        };
        self.inflight += 1;
        self.result.tally.attempted += 1;
        slot.datagram = Some(Datagram {
            peer: 0,
            seq,
            at: VInstant::from_millis(req.at_ms),
            wire,
        });
    }

    fn peek(&mut self) -> Req {
        match self.pending {
            Some(r) => r,
            None => {
                let r = self.stream.next_req();
                self.pending = Some(r);
                r
            }
        }
    }

    /// Wait until `due_ns`: sleep while far away, spin for the rest.
    /// Returns the time slept (not CPU).
    fn wait_until(&self, due_ns: u64) -> u64 {
        let mut slept = 0;
        loop {
            let now = self.now_ns();
            if now >= due_ns {
                return slept;
            }
            let left = due_ns - now;
            if left > 150_000 {
                let t = Instant::now();
                std::thread::sleep(Duration::from_nanos(left - 100_000));
                slept += t.elapsed().as_nanos() as u64;
            } else {
                std::hint::spin_loop();
            }
        }
    }
}

impl IoProvider for MemProvider<'_> {
    fn recv_batch(&mut self, slots: &mut [RecvSlot], _timeout: Millis) -> usize {
        let t0 = Instant::now();
        let mut slept = 0;
        let mut n = 0;
        match self.load {
            Load::Open { duration } => {
                let end_ns = duration.as_nanos() as u64;
                while n < slots.len() && !self.done_issuing {
                    let req = self.peek();
                    if req.due_ns >= end_ns {
                        self.done_issuing = true;
                        break;
                    }
                    let now = self.now_ns();
                    if req.due_ns > now {
                        if n > 0 || self.inflight > 0 {
                            // Let the pump flush replies; come back soon.
                            break;
                        }
                        slept += self.wait_until(req.due_ns);
                    }
                    self.pending = None;
                    let now = self.now_ns();
                    self.result.lag_ns.push(now - req.due_ns.min(now));
                    self.hand_off(req, &mut slots[n], now);
                    n += 1;
                }
            }
            Load::Closed { window, duration } => {
                let at = t0.duration_since(self.epoch);
                if self.mark.is_none() && at.as_nanos() as u64 >= SLICE_NS {
                    self.pump_tid = crate::common::tid();
                    let snap = crate::common::task_cpu();
                    self.mark = Some((snap, self.result.gen_ns, self.result.tally.ok));
                }
                if at >= duration && !self.done_issuing {
                    self.done_issuing = true;
                    if let Some((snap, gen0, ok0)) = self.mark.take() {
                        let d = crate::common::cpu_delta(&snap, &crate::common::task_cpu());
                        let pump = d.iter().find(|t| t.0 == self.pump_tid).map_or(0, |t| t.1);
                        let workers = d.iter().filter(|t| t.0 != self.pump_tid);
                        let gen = self.result.gen_ns - gen0;
                        self.result.window = Some(CpuWindow {
                            ok: self.result.tally.ok - ok0,
                            worker_ns: workers.clone().map(|t| t.1).sum(),
                            worker_max_ns: workers.map(|t| t.1).max().unwrap_or(0),
                            pump_ns: pump.saturating_sub(gen),
                        });
                    }
                }
                while n < slots.len() && !self.done_issuing && self.inflight < window {
                    let mut req = self.peek();
                    self.pending = None;
                    let now = self.now_ns();
                    req.due_ns = now;
                    self.hand_off(req, &mut slots[n], now);
                    n += 1;
                }
                if n == 0 && !self.done_issuing {
                    // Window full: spin briefly, then let the pump flush.
                    // Spinning rather than sleeping keeps both cores busy,
                    // so neither thread pays a wake-up from idle.
                    let t = Instant::now();
                    while t.elapsed() < Duration::from_micros(20) {
                        std::hint::spin_loop();
                    }
                }
            }
        }
        self.result.gen_ns += (t0.elapsed().as_nanos() as u64).saturating_sub(slept);
        n
    }

    fn send_batch(&mut self, replies: &[Reply]) -> usize {
        let t0 = Instant::now();
        let now = self.now_ns();
        let closed = matches!(self.load, Load::Closed { .. });
        for r in replies {
            let s = &mut self.slots[(r.seq & SLOT_MASK) as usize];
            if !s.live || s.seq != r.seq {
                self.result.tally.unmatched += 1;
                continue;
            }
            s.live = false;
            let Slot {
                key,
                due_ns,
                handed_ns,
                ..
            } = *s;
            self.inflight -= 1;
            match &r.wire {
                None => self.result.tally.lost += 1,
                Some(wire) => {
                    self.result.bytes += wire.len() as u64;
                    let verdict = self.catalog.check(key as usize, r.seq, wire);
                    if verdict.is_ok() {
                        let slice = (now / SLICE_NS) as usize;
                        if self.result.ok_per_slice.len() <= slice {
                            self.result.ok_per_slice.resize(slice + 1, 0);
                        }
                        self.result.ok_per_slice[slice] += 1;
                    }
                    self.result.tally.record(verdict);
                }
            }
            if !closed {
                // Closed-loop latency is window / throughput; only the
                // open loop keeps per-request samples.
                self.result.latency_ns.push(now.saturating_sub(due_ns));
                self.result.due_ns.push(due_ns);
                self.result.sojourn_ns.push(now.saturating_sub(handed_ns));
            }
        }
        self.result.gen_ns += t0.elapsed().as_nanos() as u64;
        replies.len()
    }
}

impl MemProvider<'_> {
    /// Close the phase: anything still in flight is lost.
    pub fn finish(mut self) -> PhaseResult {
        self.result.wall = self.epoch.elapsed();
        self.result.tally.lost += self.inflight as u64;
        self.result.virt_end_ms = self.stream.virt_ms();
        self.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{prime_all, PoolSystem};
    use doc_core::policy::CachePolicy;
    use doc_core::pool::ProxyPool;
    use doc_core::server::{DocServer, MockUpstream};
    use doc_core::CoapProxy;
    use std::sync::Arc;

    /// Sits between the pool and the provider like a faulty network:
    /// corrupts the 3rd reply, swallows the 5th, and hands the pool's
    /// "dropped" marker (no wire) for the 7th.
    struct Faulty<'a, 'b> {
        inner: &'a mut MemProvider<'b>,
        seen: u64,
    }

    impl IoProvider for Faulty<'_, '_> {
        fn recv_batch(&mut self, slots: &mut [RecvSlot], timeout: Millis) -> usize {
            self.inner.recv_batch(slots, timeout)
        }

        fn send_batch(&mut self, replies: &[Reply]) -> usize {
            let mut out = Vec::new();
            for r in replies {
                self.seen += 1;
                let mut r = r.clone();
                match self.seen {
                    3 => {
                        let w = r.wire.as_mut().expect("served");
                        // Last byte of the last answer's address.
                        *w.last_mut().expect("non-empty") ^= 0x40;
                    }
                    5 => continue,
                    7 => r.wire = None,
                    _ => {}
                }
                out.push(r);
            }
            self.inner.send_batch(&out)
        }
    }

    fn system() -> PoolSystem {
        let zone = Zone::new(5, 64);
        let up = MockUpstream::new(1, 3600, 3600);
        zone.install(&up);
        let pool = ProxyPool::new(
            1,
            Arc::new(CoapProxy::with_shards(512, 4)),
            Arc::new(DocServer::new(CachePolicy::EolTtls, up)),
        );
        let mut sys = PoolSystem {
            catalog: Catalog::new(zone, Framing::Coap, 3600),
            zipf: Zipf::new(64, 1.0),
            pool,
            virt_ms: 1,
            virt_rate: 0.0,
            seed: 5,
        };
        prime_all(&mut sys);
        sys
    }

    fn run(sys: &PoolSystem, faulty: bool) -> PhaseResult {
        let stream = ReqStream::new(&sys.catalog, &sys.zipf, 9, 20_000.0, 0.0, 1);
        let load = Load::Closed {
            window: 4,
            duration: Duration::from_millis(50),
        };
        let mut p = MemProvider::new(stream, &sys.catalog, load, 0);
        p.start();
        if faulty {
            let mut f = Faulty {
                inner: &mut p,
                seen: 0,
            };
            sys.pool.run_io(&mut f, 64, 8, Millis::from_millis(20));
        } else {
            sys.pool.run_io(&mut p, 64, 8, Millis::from_millis(20));
        }
        p.finish()
    }

    #[test]
    fn healthy_run_has_no_failures() {
        let sys = system();
        let r = run(&sys, false);
        assert!(r.tally.attempted > 10);
        assert_eq!(r.tally.failed(), 0, "{}", r.tally.line());
        assert!(r.tally.correct(), "{}", r.tally.line());
    }

    #[test]
    fn corrupted_and_dropped_replies_are_counted() {
        let sys = system();
        let r = run(&sys, true);
        let t = &r.tally;
        assert_eq!(t.wrong + t.malformed, 1, "{}", t.line());
        // One reply swallowed in flight, one dropped by the "pool".
        assert_eq!(t.lost, 2, "{}", t.line());
        assert_eq!(t.failed(), 3, "{}", t.line());
        assert!(t.fail_ratio() > 0.0);
        // No network on this path: the losses are the program's.
        assert!(!t.correct(), "{}", t.line());
    }
}
