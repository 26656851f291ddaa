//! The shipped serve path allocates nothing per request once warm:
//! `ProxyPool::run_io` fed by the in-memory `ReplayProvider`, counted
//! by the process-wide allocation counter.
//!
//! This binary holds a single test so no other test's allocations land
//! in the count.

use doc_bench::alloc_counter::{alloc_count, CountingAllocator};
use doc_bench::throughput::{build_mix, LoadSpec};
use doc_repro::doc::io::ReplayProvider;
use doc_repro::doc::policy::CachePolicy;
use doc_repro::doc::pool::{Datagram, PoolRunStats, ProxyPool, Reply, ServeMode};
use doc_repro::doc::server::{DocServer, MockUpstream};
use doc_repro::doc::CoapProxy;
use doc_repro::time::{Instant, Millis};
use std::sync::Arc;

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Requests in the measured run of each mode.
const MEASURED: u64 = 4_000;

/// Replay `total` requests cycling through `wires` through `run_io`.
/// Returns the run's counters and the replies that carried a wire.
fn replay(pool: &ProxyPool, wires: &[Vec<u8>], total: u64) -> (PoolRunStats, u64) {
    let mut answered = 0u64;
    let requests = (0..total).map(|seq| {
        let wire = &wires[(seq % wires.len() as u64) as usize];
        (seq % 16, Instant::from_millis(1), wire)
    });
    let mut provider = ReplayProvider::new(requests, |r: &Reply| {
        answered += u64::from(r.wire.is_some());
    });
    let stats = pool.run_io(&mut provider, 64, 16, Millis::from_millis(1));
    (stats, answered)
}

/// A 2-worker pool in `mode` with every mix entry primed, then warmed
/// once through `run_io`; returns the measured allocations per request
/// and the share of requests answered from a cache.
fn allocs_per_request(mode: ServeMode) -> (f64, f64) {
    let spec = LoadSpec {
        unique_names: 64,
        mode,
        ..LoadSpec::default()
    };
    let upstream = MockUpstream::new(1, spec.ttl_s, spec.ttl_s);
    let mix = build_mix(&spec, &upstream);
    let pool = ProxyPool::with_mode(
        2,
        Arc::new(CoapProxy::with_shards(1024, spec.shards)),
        Arc::new(DocServer::new(CachePolicy::EolTtls, upstream)),
        mode,
    );
    let mut scratch = Vec::new();
    for (seq, wire) in mix.wires().iter().enumerate() {
        let d = Datagram {
            peer: 0,
            seq: seq as u64,
            at: Instant::from_millis(1),
            wire: wire.clone(),
        };
        assert!(
            pool.serve(&d, &mut scratch).is_some(),
            "{mode:?} mix entry {seq}"
        );
    }
    replay(&pool, mix.wires(), 1_000);

    let hits = || match mode {
        ServeMode::Coap => pool.proxy.cache_stats().hits,
        _ => pool.server.upstream.cache_hits(),
    };
    let hits_before = hits();
    let before = alloc_count();
    let (stats, answered) = replay(&pool, mix.wires(), MEASURED);
    let allocs = alloc_count() - before;
    assert_eq!(stats.processed, MEASURED, "{mode:?}");
    assert_eq!(stats.replies, MEASURED, "{mode:?}");
    assert_eq!(answered, MEASURED, "{mode:?}");
    let hit_share = f64::from(hits() - hits_before) / MEASURED as f64;
    (allocs as f64 / MEASURED as f64, hit_share)
}

#[test]
fn run_io_serves_coap_hits_and_doq_without_allocating() {
    let (coap, coap_hits) = allocs_per_request(ServeMode::Coap);
    assert_eq!(coap_hits, 1.0, "every measured CoAP request is a cache hit");
    assert!(coap < 1.0, "CoAP: {coap} allocations per request");
    let (doq, doq_hits) = allocs_per_request(ServeMode::Doq);
    assert_eq!(
        doq_hits, 1.0,
        "every measured DoQ request hits the upstream cache"
    );
    assert!(doq < 1.0, "DoQ: {doq} allocations per request");
}
