//! Shared pieces of every workload: the seeded generator, the zone the
//! generator and the upstream both know, request templates, the reply
//! oracle, percentiles and the `/proc` readers.

use doc_coap::msg::{Code, MsgType};
use doc_coap::opt::OptionNumber;
use doc_coap::view::CoapView;
use doc_core::server::MockUpstream;
use doc_core::DocMethod;
use doc_dns::view::MessageView;
use doc_dns::{Message, Name, RecordType};

/// SplitMix64: small, seedable, good enough for schedules and draws.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x6A09_E667_F3BC_C909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// Exponential gap with the given mean (Poisson arrivals).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }
}

/// Derive an independent seed for a sub-stream.
pub fn derive(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03)).next_u64()
}

/// Zipf(`s`) popularity over `n` ranks, sampled by CDF inversion.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += 1.0 / (rank as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One zone entry: a name, its queried type and how many records the
/// upstream holds for it.
pub struct ZoneEntry {
    pub name: Name,
    pub rtype: RecordType,
    pub count: u8,
}

/// The names the generator queries and the upstream serves. The
/// oracle checks every answer against this table, not against what the
/// upstream happens to return.
pub struct Zone {
    pub entries: Vec<ZoneEntry>,
}

impl Zone {
    /// `n` seeded names. The shape of entry `i` — label length 3–12,
    /// A or AAAA, 1–3 records — is a function of its popularity rank
    /// `i`, so every seed offers the same mix of sizes and the seed
    /// changes only the names themselves (and, through their hashes,
    /// the shard placement).
    pub fn new(seed: u64, n: usize) -> Self {
        let mut rng = Rng::new(derive(seed, 1));
        let entries = (0..n)
            .map(|i| {
                let len = 3 + i % 10;
                let label: String = (0..len)
                    .map(|_| (b'a' + rng.below(26) as u8) as char)
                    .collect();
                let name = Name::parse(&format!("{label}-{i}.bench.example.org"))
                    .expect("generated names are valid");
                let rtype = if i % 2 == 0 {
                    RecordType::A
                } else {
                    RecordType::Aaaa
                };
                ZoneEntry {
                    name,
                    rtype,
                    count: 1 + (i / 2 % 3) as u8,
                }
            })
            .collect();
        Zone { entries }
    }

    /// Load every entry into an upstream.
    pub fn install(&self, upstream: &MockUpstream) {
        for e in &self.entries {
            match e.rtype {
                RecordType::A => upstream.add_a(e.name.clone(), e.count),
                _ => upstream.add_aaaa(e.name.clone(), e.count as u16),
            }
        }
    }

    /// Canonical DNS query (ID 0) for entry `i`.
    pub fn dns_query(&self, i: usize) -> Vec<u8> {
        let e = &self.entries[i];
        let mut q = Message::query(0, e.name.clone(), e.rtype);
        q.canonicalize_id();
        q.encode()
    }
}

/// Token length of every generated CoAP request.
pub const TOKEN_LEN: usize = 4;

/// A CoAP request template: MID 0 and a zero token, patched per
/// request by [`patch_coap`].
pub fn coap_template(zone: &Zone, i: usize, method: DocMethod) -> Vec<u8> {
    doc_core::method::build_request(
        method,
        &zone.dns_query(i),
        MsgType::Con,
        0,
        vec![0; TOKEN_LEN],
    )
    .expect("generated queries are well-formed")
    .encode()
}

/// Write a request's MID and token into a copy of its template.
pub fn patch_coap(wire: &mut [u8], mid: u16, token: u32) {
    wire[2..4].copy_from_slice(&mid.to_be_bytes());
    wire[4..4 + TOKEN_LEN].copy_from_slice(&token.to_be_bytes());
}

/// What is wrong with a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Not parseable as the expected framing or DNS message.
    Malformed,
    /// Parseable but not the right answer (echo, code, RRset, Max-Age).
    Wrong,
}

/// Check a DNS response against the zone: it answers entry `i`'s
/// question with exactly entry `i`'s RRset, every TTL at most `ttl_max`.
pub fn check_dns(zone: &Zone, i: usize, dns: &[u8], ttl_max: u32) -> Result<(), Fault> {
    let msg = MessageView::parse(dns).map_err(|_| Fault::Malformed)?;
    let e = &zone.entries[i];
    let q = msg.question().ok_or(Fault::Wrong)?;
    if !q.qname.eq_name(&e.name) || q.qtype != e.rtype || !msg.header().qr {
        return Err(Fault::Wrong);
    }
    // The zone's RRset is records 1..=count of one fixed prefix, so an
    // answer is right iff it has `count` distinct records, each with an
    // index in that range.
    let mut seen = 0u8;
    let mut n = 0;
    for (_, r) in msg.records().take(msg.answer_count()) {
        if !r.name.eq_name(&e.name) || r.rtype != e.rtype || r.ttl > ttl_max {
            return Err(Fault::Wrong);
        }
        let k = match (e.rtype, r.rdata()) {
            (RecordType::A, &[192, 0, 2, k]) => k,
            (RecordType::Aaaa, d) if d.len() == 16 && d[..15] == AAAA_PREFIX => d[15],
            _ => return Err(Fault::Wrong),
        };
        if k == 0 || k > e.count || seen & (1 << k) != 0 {
            return Err(Fault::Wrong);
        }
        seen |= 1 << k;
        n += 1;
    }
    if n != e.count {
        return Err(Fault::Wrong);
    }
    Ok(())
}

/// `2001:db8::k` for k < 256, minus its last byte.
const AAAA_PREFIX: [u8; 15] = [0x20, 0x01, 0x0d, 0xb8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0];

/// The CoAP reply oracle: MID and token echo, an ACK with 2.05 Content
/// (the generator sends no ETags, so 2.03 Valid is never right),
/// Max-Age at most `ttl_max`, and a DNS payload equal to the zone's
/// RRset for the request.
pub fn check_coap(
    zone: &Zone,
    i: usize,
    mid: u16,
    token: u32,
    reply: &[u8],
    ttl_max: u32,
) -> Result<(), Fault> {
    let v = CoapView::parse(reply).map_err(|_| Fault::Malformed)?;
    if v.message_id != mid || v.token() != token.to_be_bytes() || v.mtype != MsgType::Ack {
        return Err(Fault::Wrong);
    }
    if v.code != Code::CONTENT {
        return Err(Fault::Wrong);
    }
    let max_age = v
        .option(OptionNumber::MAX_AGE)
        .map(|o| o.as_uint())
        .unwrap_or(60);
    if max_age > ttl_max {
        return Err(Fault::Wrong);
    }
    check_dns(zone, i, v.payload(), ttl_max)
}

/// The DoQ reply oracle: a well-framed DNS response answering entry `i`.
pub fn check_doq(zone: &Zone, i: usize, reply: &[u8], ttl_max: u32) -> Result<(), Fault> {
    let dns = doc_quic::doq::decode_doq(reply).map_err(|_| Fault::Malformed)?;
    check_dns(zone, i, dns, ttl_max)
}

/// Outcome counts over one run.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub ok: u64,
    pub malformed: u64,
    pub wrong: u64,
    /// Requests with no reply by the end of the run (lost or timed out).
    pub lost: u64,
    /// The part of `lost` a lossy network accounts for: loopback UDP
    /// datagrams the pool never saw. Always 0 on the in-memory paths,
    /// where every request reaches the pool.
    pub network_lost: u64,
    /// Replies that matched no outstanding request (duplicates, or a
    /// corrupted echo that happened to decode).
    pub unmatched: u64,
}

impl Tally {
    pub fn record(&mut self, r: Result<(), Fault>) {
        match r {
            Ok(()) => self.ok += 1,
            Err(Fault::Malformed) => self.malformed += 1,
            Err(Fault::Wrong) => self.wrong += 1,
        }
    }

    pub fn failed(&self) -> u64 {
        self.attempted.saturating_sub(self.ok)
    }

    pub fn fail_ratio(&self) -> f64 {
        self.failed() as f64 / self.attempted.max(1) as f64
    }

    /// The program's output is correct when something was answered,
    /// no reply matched a request it did not belong to, and every
    /// failure is a datagram the network lost: a wrong, malformed or
    /// missing reply the pool is to blame for makes the run incorrect.
    pub fn correct(&self) -> bool {
        self.ok > 0 && self.unmatched == 0 && self.failed() == self.network_lost.min(self.lost)
    }

    /// Over UDP a missing reply is either a datagram the loopback
    /// network dropped or one the pool failed to serve; the pool counts
    /// the latter as `pool_errors`, and the rest are the network's.
    pub fn blame_network(&mut self, pool_errors: u64) {
        self.network_lost = self.lost.saturating_sub(pool_errors);
    }

    pub fn merge(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.ok += o.ok;
        self.malformed += o.malformed;
        self.wrong += o.wrong;
        self.lost += o.lost;
        self.network_lost += o.network_lost;
        self.unmatched += o.unmatched;
    }

    pub fn line(&self) -> String {
        format!(
            "attempted={} ok={} lost={} (network {}) malformed={} wrong={} unmatched={} fail_ratio={:.6}",
            self.attempted,
            self.ok,
            self.lost,
            self.network_lost,
            self.malformed,
            self.wrong,
            self.unmatched,
            self.fail_ratio()
        )
    }
}

/// Nearest-rank percentile of a sorted sample (`p` in `[0, 1]`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median of a float sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

/// Linux `CLOCK_THREAD_CPUTIME_ID`.
const CLOCK_THREAD_CPUTIME_ID: std::os::raw::c_int = 3;

/// The calling thread's on-CPU time in ns. `clock_gettime` brings the
/// running thread's time up to date; `/proc/thread-self/schedstat`
/// would lag by up to a scheduler tick, too coarse for a set-up of a
/// few milliseconds.
pub fn thread_cpu_ns() -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two C longs
    // on Linux), and the clock id is a constant the kernel knows.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// The calling thread's id.
pub fn tid() -> u32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// On-CPU ns of every live thread of the process, by thread id, from
/// `schedstat` (current to the last scheduler tick of each thread:
/// fine for windows of seconds).
pub fn task_cpu() -> Vec<(u32, u64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| {
            let tid: u32 = e.file_name().to_str()?.parse().ok()?;
            let s = std::fs::read_to_string(e.path().join("schedstat")).ok()?;
            Some((tid, s.split_whitespace().next()?.parse().ok()?))
        })
        .collect()
}

/// Per-thread CPU between two [`task_cpu`] snapshots, for threads
/// alive at both.
pub fn cpu_delta(a: &[(u32, u64)], b: &[(u32, u64)]) -> Vec<(u32, u64)> {
    b.iter()
        .filter_map(|&(t, nb)| {
            let (_, na) = a.iter().find(|&&(ta, _)| ta == t)?;
            Some((t, nb.saturating_sub(*na)))
        })
        .collect()
}

/// Peak resident set size of the process, KiB (`VmHWM`).
pub fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next()?.parse().ok())
        .unwrap_or(0)
}

/// `nproc`, the AES backend `doc-crypto` selected and the compiler.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let backend = doc_crypto::backend::Backend::active().label();
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    format!("nproc={nproc} aes_backend={backend} rustc=\"{rustc}\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use doc_core::policy::CachePolicy;
    use doc_core::pool::{Datagram, ProxyPool};
    use doc_core::server::DocServer;
    use doc_core::CoapProxy;
    use std::sync::Arc;

    fn served(zone: &Zone, i: usize, mid: u16, token: u32) -> Vec<u8> {
        let up = MockUpstream::new(1, 60, 60);
        zone.install(&up);
        let pool = ProxyPool::new(
            1,
            Arc::new(CoapProxy::new(64)),
            Arc::new(DocServer::new(CachePolicy::EolTtls, up)),
        );
        let mut wire = coap_template(zone, i, DocMethod::Fetch);
        patch_coap(&mut wire, mid, token);
        let d = Datagram {
            peer: 0,
            seq: 0,
            at: doc_time::Instant::from_millis(1),
            wire,
        };
        pool.serve(&d, &mut Vec::new()).expect("served")
    }

    #[test]
    fn healthy_reply_passes() {
        let zone = Zone::new(7, 8);
        let reply = served(&zone, 3, 0x1234, 0xdead_beef);
        assert_eq!(
            check_coap(&zone, 3, 0x1234, 0xdead_beef, &reply, 60),
            Ok(())
        );
    }

    #[test]
    fn corrupted_reply_is_counted() {
        let zone = Zone::new(7, 8);
        let reply = served(&zone, 3, 9, 10);
        let mut tally = Tally {
            attempted: 4,
            ..Tally::default()
        };
        // Wrong MID echo.
        tally.record(check_coap(&zone, 3, 8, 10, &reply, 60));
        // Answer for another name.
        tally.record(check_coap(&zone, 4, 9, 10, &reply, 60));
        // Flipped address byte in the last answer record.
        let mut flipped = reply.clone();
        *flipped.last_mut().unwrap() ^= 0x40;
        tally.record(check_coap(&zone, 3, 9, 10, &flipped, 60));
        // Truncated datagram.
        tally.record(check_coap(&zone, 3, 9, 10, &reply[..3], 60));
        assert_eq!(tally.ok, 0);
        assert_eq!(tally.wrong + tally.malformed, 4);
        assert_eq!(tally.failed(), 4);
        assert!((tally.fail_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn only_network_loss_keeps_a_run_correct() {
        let healthy = Tally {
            attempted: 10,
            ok: 10,
            ..Tally::default()
        };
        assert!(healthy.correct());
        // Two datagrams lost on loopback UDP: failed, but not the
        // program's fault.
        let udp = Tally {
            attempted: 10,
            ok: 8,
            lost: 2,
            network_lost: 2,
            ..Tally::default()
        };
        assert!(udp.correct());
        assert_eq!(udp.failed(), 2);
        // A request the pool never answered on an in-memory path.
        let dropped = Tally {
            attempted: 10,
            ok: 9,
            lost: 1,
            ..Tally::default()
        };
        assert!(!dropped.correct());
        let wrong = Tally {
            attempted: 10,
            ok: 9,
            wrong: 1,
            network_lost: 1,
            ..Tally::default()
        };
        assert!(!wrong.correct());
    }

    #[test]
    fn max_age_above_ttl_is_wrong() {
        let zone = Zone::new(7, 8);
        let reply = served(&zone, 2, 5, 6);
        assert_eq!(check_coap(&zone, 2, 5, 6, &reply, 1), Err(Fault::Wrong));
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let z = Zipf::new(1024, 1.0);
        let mut rng = Rng::new(3);
        let hits = (0..10_000).filter(|_| z.sample(&mut rng) < 10).count();
        assert!(hits > 2_500 && hits < 5_000, "{hits}");
    }
}
