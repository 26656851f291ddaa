//! The traced run (`--trace 1`): per-layer metrics, timed from outside
//! the layers.
//!
//! * A provider wrapper ([`Timed`]) times every `recv_batch` and
//!   `send_batch` of a live `run_io` phase and follows each datagram
//!   from hand-off to reply (pool sojourn).
//! * A stage replay feeds the workload's seeded requests, on one
//!   thread, through the public stage functions in the order the pool
//!   calls them (`CoapView::parse`, `cache_key_view_reusing`,
//!   `serve_wire`, `handle_request_wire`, `handle_upstream_response`,
//!   the encoders; for DoQ `decode_doq`, `Message::decode`, `resolve`,
//!   `encode`, `encode_doq`), recording a span around each call.
//! * Layers a workload does not route through (OSCORE, DTLS, the
//!   simulator on the pool workloads; the pool on `paper-sim`) are
//!   measured by the same stage calls on inputs derived from the same
//!   seed, and the report says which layers were on the path.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written out at exit as TSV next to the build output.

use crate::alloc::thread_allocs;
use crate::common::{derive, percentile, Tally, Zone};
use crate::mem::{Load, MemProvider, ReqStream};
use crate::workloads::{self, m, Metric, PoolSystem, RunOut, UdpSystem};
use doc_coap::cache::cache_key_view_reusing;
use doc_coap::msg::CoapMessage;
use doc_coap::view::CoapView;
use doc_core::pool::{Datagram, PoolRunStats, Reply};
use doc_core::proxy::{ProxyScratch, WireAction};
use doc_core::{IoProvider, RecvSlot};
use doc_dns::{Message, MessageView};
use doc_time::{Instant as VInstant, Millis};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the recorder, or `u32::MAX`.
    pub parent: u32,
    pub req: u64,
}

/// In-memory span recorder with per-name totals.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// name → (count, total ns, total allocs)
    totals: HashMap<&'static str, (u64, u64, u64)>,
    keep: usize,
}

impl Recorder {
    pub fn new(keep: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::with_capacity(keep),
            totals: HashMap::new(),
            keep,
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Time `f` as span `name` of request `req`; returns its result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u32,
        f: impl FnOnce() -> R,
    ) -> R {
        let a0 = thread_allocs();
        let start = self.now();
        let r = f();
        let end = self.now();
        let allocs = thread_allocs() - a0;
        self.add(name, req, parent, start, end, allocs);
        r
    }

    /// Open a parent span; close it with [`Recorder::close`].
    pub fn open(&mut self, name: &'static str, req: u64) -> (u32, u64, u64) {
        let idx = self.spans.len().min(u32::MAX as usize - 1) as u32;
        if self.spans.len() < self.keep {
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent: u32::MAX,
                req,
            });
        }
        (idx, self.now(), thread_allocs())
    }

    pub fn close(&mut self, name: &'static str, open: (u32, u64, u64)) {
        let (idx, start, a0) = open;
        let end = self.now();
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.start_ns = start;
            s.end_ns = end;
        }
        let t = self.totals.entry(name).or_default();
        t.0 += 1;
        t.1 += end - start;
        t.2 += thread_allocs() - a0;
    }

    pub fn add(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u32,
        start: u64,
        end: u64,
        allocs: u64,
    ) {
        if self.spans.len() < self.keep {
            self.spans.push(Span {
                name,
                start_ns: start,
                end_ns: end,
                parent,
                req,
            });
        }
        let t = self.totals.entry(name).or_default();
        t.0 += 1;
        t.1 += end - start;
        t.2 += allocs;
    }

    /// Mean ns per call of `name` (0 when never called).
    pub fn mean_ns(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |&(n, ns, _)| ns as f64 / n.max(1) as f64)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |t| t.0)
    }

    pub fn allocs_per_call(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |&(n, _, a)| a as f64 / n.max(1) as f64)
    }

    /// Write the spans as TSV: name, start_ns, end_ns, parent, req.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "name\tstart_ns\tend_ns\tparent\treq")?;
        for s in &self.spans {
            let parent = if s.parent == u32::MAX {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                f,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            )?;
        }
        Ok(())
    }
}

/// The `io` probe's gate on a [`Timed`] wrapper: the generator's count
/// of datagrams sent, its done flag, and its burst size.
pub struct BurstGate<'a> {
    pub sent: &'a AtomicU64,
    pub done: &'a AtomicBool,
    pub burst: u64,
}

/// A gated `recv_batch` that ran this long waited on an empty socket
/// (`UdpProvider` waits at least 1 ms): a datagram was lost.
const WAITED: Duration = Duration::from_millis(1);

/// Provider wrapper: times `recv_batch`/`send_batch` and follows each
/// datagram (by its pool sequence number) from hand-off to reply.
/// Allocations are counted on the calling (pump) thread only.
pub struct Timed<'a, P: IoProvider> {
    pub inner: &'a mut P,
    gate: Option<BurstGate<'a>>,
    epoch: Instant,
    /// Time, allocations and datagrams of the timed `recv_batch` calls
    /// (with a gate, the calls that did not wait).
    recv_ns: u64,
    recv_allocs: u64,
    recv_timed: u64,
    recv_calls: u64,
    datagrams: u64,
    /// Gated only: datagrams received, resynchronised to the sent
    /// count after a lost datagram.
    received: u64,
    empty_polls: u64,
    send_ns: u64,
    replies: u64,
    handed: HashMap<u64, u64>,
    sojourn_ns: Vec<u64>,
}

impl<'a, P: IoProvider> Timed<'a, P> {
    pub fn new(inner: &'a mut P) -> Self {
        Timed {
            inner,
            gate: None,
            epoch: Instant::now(),
            recv_ns: 0,
            recv_allocs: 0,
            recv_timed: 0,
            recv_calls: 0,
            datagrams: 0,
            received: 0,
            empty_polls: 0,
            send_ns: 0,
            replies: 0,
            handed: HashMap::with_capacity(4096),
            sojourn_ns: Vec::new(),
        }
    }

    /// Call the inner `recv_batch` only once a whole burst sits in the
    /// socket, so every timed call drains and none waits. While
    /// nothing is queued, an idle pump sleeps and a pump with replies
    /// in flight gets 0 back at once, to flush them.
    pub fn gated(mut self, gate: BurstGate<'a>) -> Self {
        self.gate = Some(gate);
        self
    }

    /// Wait, outside the timing, for the gate to open; `false` means
    /// return 0 to the pump.
    fn wait_for_burst(&self) -> bool {
        let Some(g) = &self.gate else { return true };
        loop {
            let queued = g.sent.load(Ordering::Acquire).saturating_sub(self.received);
            let done = g.done.load(Ordering::Acquire);
            if queued >= g.burst || (queued > 0 && done) {
                return true;
            }
            if !self.handed.is_empty() {
                std::thread::yield_now();
                return false;
            }
            if done {
                return false;
            }
            std::thread::sleep(Duration::from_micros(20));
        }
    }
}

impl<P: IoProvider> IoProvider for Timed<'_, P> {
    fn recv_batch(&mut self, slots: &mut [RecvSlot], timeout: Millis) -> usize {
        if !self.wait_for_burst() {
            return 0;
        }
        let a0 = thread_allocs();
        let t = Instant::now();
        let n = self.inner.recv_batch(slots, timeout);
        let took = t.elapsed();
        let allocs = thread_allocs() - a0;
        self.recv_calls += 1;
        self.datagrams += n as u64;
        self.received += n as u64;
        if n == 0 && !self.handed.is_empty() {
            self.empty_polls += 1;
        }
        match &self.gate {
            Some(g) if took >= WAITED => {
                self.received = self.received.max(g.sent.load(Ordering::Acquire));
            }
            _ => {
                self.recv_ns += took.as_nanos() as u64;
                self.recv_allocs += allocs;
                self.recv_timed += n as u64;
            }
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        for s in slots.iter().take(n) {
            if let Some(d) = &s.datagram {
                self.handed.insert(d.seq, now);
            }
        }
        n
    }

    fn send_batch(&mut self, replies: &[Reply]) -> usize {
        let now = self.epoch.elapsed().as_nanos() as u64;
        for r in replies {
            if let Some(h) = self.handed.remove(&r.seq) {
                self.sojourn_ns.push(now.saturating_sub(h));
            }
        }
        let t = Instant::now();
        let n = self.inner.send_batch(replies);
        self.send_ns += t.elapsed().as_nanos() as u64;
        self.replies += replies.len() as u64;
        n
    }
}

/// What a live traced phase measured at the `io` and `pool` layers.
pub struct IoLayer {
    pub recv_ns_per_datagram: f64,
    pub send_ns_per_reply: f64,
    pub datagrams_per_recv_batch: f64,
    pub empty_polls_per_1k: f64,
    pub allocs_per_datagram: f64,
    pub sojourn_p50_us: f64,
    pub sojourn_p99_us: f64,
    pub errors: u64,
}

impl IoLayer {
    fn from<P: IoProvider>(t: &Timed<'_, P>, stats: &PoolRunStats) -> Self {
        let mut soj = t.sojourn_ns.clone();
        soj.sort_unstable();
        let timed = t.recv_timed.max(1) as f64;
        IoLayer {
            recv_ns_per_datagram: t.recv_ns as f64 / timed,
            send_ns_per_reply: t.send_ns as f64 / t.replies.max(1) as f64,
            datagrams_per_recv_batch: t.datagrams as f64 / t.recv_calls.max(1) as f64,
            empty_polls_per_1k: t.empty_polls as f64 * 1000.0 / t.datagrams.max(1) as f64,
            allocs_per_datagram: t.recv_allocs as f64 / timed,
            sojourn_p50_us: percentile(&soj, 0.5) as f64 / 1e3,
            sojourn_p99_us: percentile(&soj, 0.99) as f64 / 1e3,
            errors: stats.errors,
        }
    }
}

/// Datagrams per burst of the `io` probe.
const IO_BURST: usize = 16;

/// The `io` layer probe: loopback UDP through `UdpProvider` → `run_io`
/// on the hot-cache CoAP system. The generator sends bursts of
/// `IO_BURST` pre-built requests, the bursts spaced so the mean rate is
/// the open-loop rate, and a gated [`Timed`] wrapper times each
/// `recv_batch` as a drain of datagrams already in the socket.
fn io_probe(seed: u64, seconds: f64) -> (UdpSystem, IoLayer, Tally) {
    let mut u = workloads::setup_hot_udp(seed, seconds);
    for burst in u.schedule.chunks_mut(IO_BURST) {
        let due = burst[0].1;
        for r in burst {
            r.1 = due;
        }
    }
    let server = u.provider.local_addr().expect("bound");
    let pump_tid = crate::common::tid();
    let (sent, done) = (AtomicU64::new(0), AtomicBool::new(false));
    let (mut load, io) = std::thread::scope(|s| {
        let gen = s.spawn(|| {
            workloads::udp_generate(&u.sys.catalog, &u.schedule, server, pump_tid, &sent, &done)
        });
        let mut timed = Timed::new(&mut u.provider).gated(BurstGate {
            sent: &sent,
            done: &done,
            burst: IO_BURST as u64,
        });
        let stats = u
            .sys
            .pool
            .run_io(&mut timed, 1024, 32, Millis::from_millis(200));
        let io = IoLayer::from(&timed, &stats);
        (gen.join().expect("generator"), io)
    });
    load.tally.blame_network(io.errors);
    (u, io, load.tally)
}

/// Live open-loop phase of a pool system through the [`Timed`] wrapper.
fn live_mem(sys: &mut PoolSystem, seconds: f64) -> (IoLayer, crate::mem::PhaseResult) {
    let stream = ReqStream::new(
        &sys.catalog,
        &sys.zipf,
        derive(sys.seed, 40),
        workloads::OPEN_RATE,
        sys.virt_rate,
        sys.virt_ms,
    );
    let load = Load::Open {
        duration: Duration::from_secs_f64(seconds),
    };
    let mut provider = MemProvider::new(stream, &sys.catalog, load, 3 << 32);
    provider.start();
    let io = {
        let mut timed = Timed::new(&mut provider);
        let stats = sys
            .pool
            .run_io(&mut timed, 1024, 32, Millis::from_millis(100));
        IoLayer::from(&timed, &stats)
    };
    let r = provider.finish();
    sys.virt_ms = r.virt_end_ms.max(sys.virt_ms);
    (io, r)
}

/// Closed-loop capacity (replies per busiest-thread CPU second) of a
/// short phase, traced or not — the tracing overhead is the relative
/// drop.
fn closed_rate(sys: &mut PoolSystem, seconds: f64, traced: bool, stream_id: u64) -> f64 {
    let stream = ReqStream::new(
        &sys.catalog,
        &sys.zipf,
        derive(sys.seed, stream_id),
        workloads::OPEN_RATE,
        sys.virt_rate,
        sys.virt_ms,
    );
    let load = Load::Closed {
        window: 512,
        duration: Duration::from_secs_f64(seconds),
    };
    let mut provider = MemProvider::new(stream, &sys.catalog, load, stream_id << 32);
    provider.start();
    if traced {
        let mut timed = Timed::new(&mut provider);
        sys.pool
            .run_io(&mut timed, 1024, 32, Millis::from_millis(100));
    } else {
        sys.pool
            .run_io(&mut provider, 1024, 32, Millis::from_millis(100));
    }
    let r = provider.finish();
    sys.virt_ms = r.virt_end_ms.max(sys.virt_ms);
    r.window.unwrap_or_default().capacity_rps()
}

/// Replay `n` requests of `sys`'s stream through the CoAP stage
/// functions on one thread, starting from a cold cache.
fn replay_coap(sys: &PoolSystem, n: usize, rec: &mut Recorder) {
    let mut stream = ReqStream::new(
        &sys.catalog,
        &sys.zipf,
        derive(sys.seed, 50),
        1.0,
        sys.virt_rate,
        sys.virt_ms,
    );
    let proxy = &sys.pool.proxy;
    let server = &sys.pool.server;
    let mut scratch = ProxyScratch::default();
    let mut out = Vec::new();
    let mut up = Vec::new();
    let mut key_buf = Vec::new();
    for i in 0..n as u64 {
        let r = stream.next_req();
        let seq = (5 << 32) + i;
        let wire = sys.catalog.wire(r.key as usize, seq);
        let now = r.at_ms;
        // The layers serve_wire runs first, timed on their own.
        let view = rec.span("coap.parse", seq, u32::MAX, || CoapView::parse(&wire));
        let Ok(view) = view else { continue };
        let key = rec.span("cache.key", seq, u32::MAX, || {
            cache_key_view_reusing(&view, std::mem::take(&mut key_buf))
        });
        key_buf = key.into_bytes();
        let a0 = thread_allocs();
        let root = rec.open("pool.serve", seq);
        let t = Instant::now();
        let action = proxy.serve_wire(&wire, now, &mut scratch, &mut out);
        let serve_ns = t.elapsed().as_nanos() as u64;
        let end = rec.now();
        match action {
            Ok(WireAction::Responded) => {
                rec.add("proxy.serve_wire_hit", seq, root.0, end - serve_ns, end, 0);
            }
            Ok(WireAction::Forward {
                request,
                exchange_id,
            }) => {
                rec.add(
                    "proxy.serve_wire_forward",
                    seq,
                    root.0,
                    end - serve_ns,
                    end,
                    0,
                );
                up.clear();
                rec.span("coap.encode", seq, root.0, || request.encode_into(&mut up));
                let resp = rec.span("server.handle_request_wire", seq, root.0, || {
                    server.handle_request_wire(0, &up, now)
                });
                let Ok(resp) = resp else { continue };
                let relay = rec.span("proxy.upstream_response", seq, root.0, || {
                    proxy.handle_upstream_response(exchange_id, &resp, now)
                });
                if let Some(relay) = relay {
                    out.clear();
                    rec.span("coap.encode", seq, root.0, || relay.encode_into(&mut out));
                }
                rec.add(
                    "proxy.miss_path",
                    seq,
                    root.0,
                    end - serve_ns,
                    rec.now(),
                    thread_allocs() - a0,
                );
            }
            Err(_) => {}
        }
        rec.close("pool.serve", root);
    }
}

/// Replay DNS-layer and DoQ stage functions on the workload's names:
/// unframe, decode (view and owned), resolve, encode, frame, and the
/// whole `ProxyPool::serve` in `ServeMode::Doq` for allocations.
fn replay_doq(seed: u64, n: usize, rec: &mut Recorder) {
    // The `doq-stream-mem` system of this seed, on every workload.
    let doq = workloads::setup_doq(seed);
    let mut stream = ReqStream::new(
        &doq.catalog,
        &doq.zipf,
        derive(seed, 51),
        1.0,
        0.0,
        doq.virt_ms,
    );
    let upstream = &doq.pool.server.upstream;
    let mut scratch = Vec::new();
    for i in 0..n as u64 {
        let r = stream.next_req();
        let seq = (6 << 32) + i;
        let wire = doq.catalog.wire(r.key as usize, seq);
        let root = rec.open("doq.serve", seq);
        let dns = rec.span("quic.unframe", seq, root.0, || {
            doc_quic::doq::decode_doq(&wire)
        });
        let Ok(dns) = dns else { continue };
        let ok = rec.span("dns.decode_view", seq, root.0, || {
            MessageView::parse(dns).is_ok()
        });
        let q = rec.span("dns.decode_owned", seq, root.0, || Message::decode(dns));
        let Ok(q) = q else { continue };
        let resp = rec.span("server.resolve", seq, root.0, || {
            upstream.resolve(&q, r.at_ms)
        });
        let bytes = rec.span("dns.encode", seq, root.0, || resp.encode());
        let framed = rec.span("quic.frame", seq, root.0, || {
            doc_quic::doq::encode_doq(&bytes)
        });
        rec.close("doq.serve", root);
        let d = Datagram {
            peer: 0,
            seq,
            at: VInstant::from_millis(r.at_ms),
            wire,
        };
        let served = rec.span("doq.pool_serve", seq, u32::MAX, || {
            doq.pool.serve(&d, &mut scratch)
        });
        std::hint::black_box((ok, framed, served));
    }
}

/// OSCORE, DTLS record and raw CCM costs on the workload's requests.
fn replay_crypto(zone: &Zone, n: usize, rec: &mut Recorder) {
    use doc_oscore::context::SecurityContext;
    use doc_oscore::protect::OscoreEndpoint;
    let secret = b"0123456789abcdef";
    let salt = b"doc-salt";
    let mut client =
        OscoreEndpoint::new(SecurityContext::derive(secret, salt, &[], &[0x01]), false);
    let mut server =
        OscoreEndpoint::new(SecurityContext::derive(secret, salt, &[0x01], &[]), false);
    let cipher = doc_dtls::record::CipherState::new(&[7u8; 16], [1, 2, 3, 4]);
    let ccm = doc_crypto::ccm::AesCcm::cose_ccm_16_64_128(&[9u8; 16]);
    let block = [0x5au8; 64];
    let nonce = [3u8; 13];
    for i in 0..n {
        let e = i % zone.entries.len();
        let seq = (7 << 32) + i as u64;
        let wire = crate::common::coap_template(zone, e, doc_core::DocMethod::Fetch);
        let Ok(req) = CoapMessage::decode(&wire) else {
            continue;
        };
        let Ok((outer, binding)) = rec.span("oscore.protect_request", seq, u32::MAX, || {
            client.protect_request(&req)
        }) else {
            continue;
        };
        let Ok((inner, sbinding)) = rec.span("oscore.unprotect_request", seq, u32::MAX, || {
            server.unprotect_request(&outer)
        }) else {
            continue;
        };
        let mut reply = CoapMessage::ack_reply(
            inner.message_id,
            inner.token.clone(),
            doc_coap::msg::Code::CONTENT,
        );
        reply.payload = zone.dns_query(e);
        let Ok(oresp) = rec.span("oscore.protect_response", seq, u32::MAX, || {
            server.protect_response(&reply, &sbinding, &outer)
        }) else {
            continue;
        };
        let back = rec.span("oscore.unprotect_response", seq, u32::MAX, || {
            client.unprotect_response(&oresp, &binding)
        });
        let ct = doc_dtls::record::ContentType::ApplicationData;
        let sealed = rec.span("dtls.seal_record", seq, u32::MAX, || {
            cipher.seal(ct, 1, i as u64, &wire)
        });
        if let Ok(sealed) = &sealed {
            let opened = rec.span("dtls.open_record", seq, u32::MAX, || {
                cipher.open(ct, 1, i as u64, sealed)
            });
            std::hint::black_box(opened.is_ok());
        }
        let c = rec.span("crypto.ccm_seal_64b", seq, u32::MAX, || {
            ccm.seal(&nonce, &[], &block)
        });
        if let Ok(c) = &c {
            let p = rec.span("crypto.ccm_open_64b", seq, u32::MAX, || {
                ccm.open(&nonce, &[], c)
            });
            std::hint::black_box(p.is_ok());
        }
        std::hint::black_box(back.is_ok());
    }
}

/// Simulator layer: µs of wall time per simulated query for every
/// matrix row, plus the deterministic link-layer figures.
fn replay_sim(seed: u64, rounds: usize, queries: usize, rec: &mut Recorder) -> Vec<Metric> {
    let rows = doc_core::transport::TRANSPORT_MATRIX.len();
    let mut acc = vec![workloads::SimRow::default(); rows];
    for round in 0..rounds {
        for (row, a) in acc.iter_mut().enumerate() {
            let cfg = workloads::sim_config(seed, round, row, queries);
            let t = rec.now();
            let r = doc_core::experiment::run(&cfg);
            let end = rec.now();
            rec.add("sim.experiment_run", row as u64, u32::MAX, t, end, 0);
            workloads::sim_row_add(a, &r, end - t);
        }
    }
    let mut out = Vec::new();
    for (row, a) in acc.iter().enumerate() {
        out.push(m(
            SIM_ROW_METRICS[row],
            a.wall_ns as f64 / a.queries.max(1) as f64 / 1e3,
            "us",
        ));
    }
    let q: u64 = acc.iter().map(|a| a.queries).sum();
    let mut lat: Vec<u64> = acc.iter().flat_map(|a| a.latencies_ms.clone()).collect();
    lat.sort_unstable();
    out.push(m(
        "sim.frames_per_query",
        acc.iter().map(|a| a.frames).sum::<u64>() as f64 / q.max(1) as f64,
        "count",
    ));
    out.push(m(
        "sim.dropped_datagrams",
        acc.iter().map(|a| a.dropped).sum::<u64>() as f64,
        "count",
    ));
    out.push(m(
        "sim.air_bytes_per_query",
        acc.iter().map(|a| a.air_bytes).sum::<u64>() as f64 / q.max(1) as f64,
        "B",
    ));
    out.push(m(
        "sim.virtual_resolution_p50_ms",
        percentile(&lat, 0.5) as f64,
        "ms",
    ));
    out.push(m(
        "sim.virtual_resolution_p99_ms",
        percentile(&lat, 0.99) as f64,
        "ms",
    ));
    out
}

/// One metric name per `TRANSPORT_MATRIX` row, in matrix order.
pub const SIM_ROW_METRICS: [&str; 12] = [
    "sim.us_per_query.udp",
    "sim.us_per_query.dtls",
    "sim.us_per_query.coap_fetch",
    "sim.us_per_query.coap_get",
    "sim.us_per_query.coap_post",
    "sim.us_per_query.coaps_fetch",
    "sim.us_per_query.coaps_get",
    "sim.us_per_query.coaps_post",
    "sim.us_per_query.oscore",
    "sim.us_per_query.doq",
    "sim.us_per_query.doh",
    "sim.us_per_query.dot",
];

/// The CoAP system the stage replay runs on: the primed churn system
/// for `coap-churn-mem` (so the replay sees the live run's hit, miss
/// and revalidation mix), otherwise the hot-cache shape with an empty
/// cache, so the replay covers both the miss and the hit path.
fn coap_replay_system(workload: &str, seed: u64) -> PoolSystem {
    match workload {
        "coap-churn-mem" => workloads::setup_churn(seed),
        _ => workloads::hot_system(seed),
    }
}

const REPLAY_REQUESTS: usize = 20_000;
const CRYPTO_REQUESTS: usize = 2_000;

/// The traced run of `workload`.
pub fn run_traced(workload: &str, seed: u64, seconds: f64) -> RunOut {
    let t_all = Instant::now();
    let live_s = (seconds / 4.0).clamp(0.5, 5.0);
    let mut rec = Recorder::new(200_000);
    let mut notes = Vec::new();
    let mut tally = crate::common::Tally::default();

    // io layer: a short loopback UDP probe through `UdpProvider` on
    // every workload — the in-memory provider is the benchmark's own
    // code, so only the socket path says anything about `io`.
    let (io, overhead) = {
        let (mut u, io, probe) = io_probe(seed, live_s);
        notes.push(format!(
            "io probe (loopback UDP, {live_s:.2}s, bursts of {IO_BURST}): {}",
            probe.line()
        ));
        tally.merge(&probe);
        // Overhead: capacity of traced and untraced in-memory
        // closed-loop phases over the same system, in the order
        // untraced, traced, traced, untraced so a drift of the host's
        // speed cancels.
        let q = live_s / 4.0;
        let mut rate = |traced, id| closed_rate(&mut u.sys, q, traced, id);
        let (b1, t1, t2, b2) = (
            rate(false, 60),
            rate(true, 61),
            rate(true, 62),
            rate(false, 63),
        );
        (io, 1.0 - (t1 + t2) / (b1 + b2))
    };

    // pool layer (and the mix the run reached): the workload's own
    // live phase through the wrapper; `paper-sim` has no pool and uses
    // an in-memory CoAP probe.
    let (pool, mix, srv_val, up_refresh) = {
        let mut sys = match workload {
            "coap-churn-mem" => workloads::setup_churn(seed),
            "doq-stream-mem" => workloads::setup_doq(seed),
            _ => {
                let mut sys = workloads::hot_system(seed);
                workloads::prime_all(&mut sys);
                sys
            }
        };
        if workload == "paper-sim" {
            notes.push("pool/proxy/cache layers measured on an in-memory CoAP probe (paper-sim has no pool)".into());
        }
        let before = (sys.pool.proxy.stats(), sys.pool.proxy.cache_stats());
        let srv0 = sys.pool.server.stats();
        let ns0 = sys.pool.server.upstream.ns_queries();
        let hits0 = sys.pool.server.upstream.cache_hits();
        let (pool, r) = live_mem(&mut sys, live_s);
        tally.merge(&r.tally);
        let mix = workloads::mix_since(&sys.pool, before);
        let srv = sys.pool.server.stats();
        let val = (srv.validations - srv0.validations) as f64
            / (srv.requests - srv0.requests).max(1) as f64;
        let ns = (sys.pool.server.upstream.ns_queries() - ns0) as f64;
        let hits = (sys.pool.server.upstream.cache_hits() - hits0) as f64;
        (pool, mix, val, ns / (ns + hits).max(1.0))
    };

    // Stage replay: CoAP stages on a CoAP system of this seed, DoQ and
    // DNS stages on the `doq-stream-mem` system of this seed.
    let coap_sys = coap_replay_system(workload, seed);
    replay_coap(&coap_sys, REPLAY_REQUESTS, &mut rec);
    replay_doq(seed, REPLAY_REQUESTS, &mut rec);
    replay_crypto(&coap_sys.catalog.zone, CRYPTO_REQUESTS, &mut rec);
    let (rounds, queries) = if workload == "paper-sim" {
        (workloads::SIM_FIXED_ROUNDS, workloads::SIM_QUERIES)
    } else {
        (1, 10)
    };
    let sim = replay_sim(seed, rounds, queries, &mut rec);

    let serve_mean_ns = {
        let hits = rec.count("proxy.serve_wire_hit") as f64;
        let miss = rec.count("proxy.miss_path") as f64;
        let total = hits + miss;
        if workload == "doq-stream-mem" {
            rec.mean_ns("doq.pool_serve")
        } else {
            (rec.mean_ns("proxy.serve_wire_hit") * hits + rec.mean_ns("proxy.miss_path") * miss)
                / total.max(1.0)
        }
    };
    let on_path: &[&str] = match workload {
        "coap-hot-udp" => &["io", "pool", "coap", "cache", "proxy (hit path)"],
        "coap-churn-mem" => &["pool", "coap", "cache", "proxy", "server", "dns"],
        "doq-stream-mem" => &["pool", "server.resolve", "dns", "quic (doq framing)"],
        _ => &["oscore", "dtls", "crypto", "sim", "coap", "dns", "quic"],
    };
    notes.push(format!(
        "layers on this workload's path: {}",
        on_path.join(", ")
    ));
    notes.push(format!(
        "stage replay: {REPLAY_REQUESTS} requests per framing, {CRYPTO_REQUESTS} crypto rounds; self time serve_wire_hit - parse - key = {:.1} ns",
        rec.mean_ns("proxy.serve_wire_hit") - rec.mean_ns("coap.parse") - rec.mean_ns("cache.key")
    ));
    notes.push(format!(
        "aes backend: {}; io.* come from recv_batch calls that drained a queued burst, allocations counted on the pump thread",
        doc_crypto::backend::Backend::active().label()
    ));

    let mut metrics = vec![
        m("io.recv_ns_per_datagram", io.recv_ns_per_datagram, "ns"),
        m("io.send_ns_per_reply", io.send_ns_per_reply, "ns"),
        m(
            "io.datagrams_per_recv_batch",
            io.datagrams_per_recv_batch,
            "count",
        ),
        m("io.empty_polls_per_1k", io.empty_polls_per_1k, "count"),
        m("io.allocs_per_datagram", io.allocs_per_datagram, "count"),
        m("pool.sojourn_p50_us", pool.sojourn_p50_us, "us"),
        m("pool.sojourn_p99_us", pool.sojourn_p99_us, "us"),
        m(
            "pool.queue_wait_us",
            (pool.sojourn_p50_us - serve_mean_ns / 1e3).max(0.0),
            "us",
        ),
        m("pool.errors", (pool.errors + io.errors) as f64, "count"),
        m("coap.parse_ns", rec.mean_ns("coap.parse"), "ns"),
        m("coap.encode_ns", rec.mean_ns("coap.encode"), "ns"),
        m("cache.key_ns", rec.mean_ns("cache.key"), "ns"),
        m("cache.hit_ratio", mix.hit, "ratio"),
        m("cache.miss_ratio", mix.miss, "ratio"),
        m("cache.stale_ratio", mix.stale_per_req, "ratio"),
        m("cache.evictions_per_req", mix.evictions_per_req, "ratio"),
        m(
            "proxy.serve_wire_hit_ns",
            rec.mean_ns("proxy.serve_wire_hit"),
            "ns",
        ),
        m(
            "proxy.serve_wire_forward_ns",
            rec.mean_ns("proxy.serve_wire_forward"),
            "ns",
        ),
        m(
            "proxy.upstream_response_ns",
            rec.mean_ns("proxy.upstream_response"),
            "ns",
        ),
        m(
            "proxy.allocs_per_miss",
            rec.allocs_per_call("proxy.miss_path"),
            "count",
        ),
        m(
            "server.handle_request_wire_ns",
            rec.mean_ns("server.handle_request_wire"),
            "ns",
        ),
        m("server.resolve_ns", rec.mean_ns("server.resolve"), "ns"),
        m("server.validation_ratio", srv_val, "ratio"),
        m("upstream.refresh_ratio", up_refresh, "ratio"),
        m("dns.decode_view_ns", rec.mean_ns("dns.decode_view"), "ns"),
        m("dns.decode_owned_ns", rec.mean_ns("dns.decode_owned"), "ns"),
        m("dns.encode_ns", rec.mean_ns("dns.encode"), "ns"),
        m("quic.unframe_ns", rec.mean_ns("quic.unframe"), "ns"),
        m("quic.frame_ns", rec.mean_ns("quic.frame"), "ns"),
        m(
            "doq.allocs_per_req",
            rec.allocs_per_call("doq.pool_serve"),
            "count",
        ),
    ];
    for name in [
        "oscore.protect_request",
        "oscore.unprotect_request",
        "oscore.protect_response",
        "oscore.unprotect_response",
        "dtls.seal_record",
        "dtls.open_record",
        "crypto.ccm_seal_64b",
        "crypto.ccm_open_64b",
    ] {
        metrics.push(m(ns_name(name), rec.mean_ns(name), "ns"));
    }
    metrics.extend(sim);
    metrics.push(m("trace.overhead_ratio", overhead, "ratio"));
    metrics.push(m("trace.spans", rec.spans.len() as f64, "count"));

    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("servebench/target"));
    let path = dir.join(format!("servebench-spans-{workload}-{seed}.tsv"));
    match std::fs::create_dir_all(&dir).and_then(|_| rec.write(&path)) {
        Ok(()) => notes.push(format!(
            "spans written: {} ({} spans)",
            path.display(),
            rec.spans.len()
        )),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }
    notes.push(format!(
        "tracing overhead: closed-loop capacity {:.2}% lower with the provider wrapper; traced run took {:.2}s",
        overhead * 100.0,
        t_all.elapsed().as_secs_f64()
    ));
    notes.push(format!("fail_ratio={:.6}", tally.fail_ratio()));
    RunOut {
        tally,
        metrics,
        report: Vec::new(),
        notes,
    }
}

/// `oscore.protect_request` → `oscore.protect_request_ns`.
fn ns_name(name: &'static str) -> &'static str {
    match name {
        "oscore.protect_request" => "oscore.protect_request_ns",
        "oscore.unprotect_request" => "oscore.unprotect_request_ns",
        "oscore.protect_response" => "oscore.protect_response_ns",
        "oscore.unprotect_response" => "oscore.unprotect_response_ns",
        "dtls.seal_record" => "dtls.seal_record_ns",
        "dtls.open_record" => "dtls.open_record_ns",
        "crypto.ccm_seal_64b" => "crypto.ccm_seal_64b_ns",
        _ => "crypto.ccm_open_64b_ns",
    }
}
