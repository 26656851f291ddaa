//! End-to-end tests of the scale-out front-end: the sharded
//! proxy/server behind the SPMC-ring worker pool, pumped by `run_io`
//! from both the throughput harness's replay mix and the network
//! simulator's batched event drain.

use doc_bench::throughput::{build_mix, LoadSpec};
use doc_repro::doc::io::{IoProvider, RecvSlot, ReplayProvider, SimProvider};
use doc_repro::doc::policy::CachePolicy;
use doc_repro::doc::pool::{PoolRunStats, ProxyPool, Reply};
use doc_repro::doc::server::{DocServer, MockUpstream};
use doc_repro::doc::CoapProxy;
use doc_repro::netsim::{LinkKind, Sim, Tag};
use doc_repro::time::{Instant, Millis};
use std::sync::Arc;

fn sharded_pool(workers: usize, spec: &LoadSpec) -> (ProxyPool, Vec<Vec<u8>>) {
    let upstream = MockUpstream::new(1, spec.ttl_s, spec.ttl_s);
    let mix = build_mix(spec, &upstream);
    let pool = ProxyPool::new(
        workers,
        Arc::new(CoapProxy::with_shards(1024, spec.shards)),
        Arc::new(DocServer::new(CachePolicy::EolTtls, upstream)),
    );
    (pool, mix.wires().to_vec())
}

/// Replay `total` requests cycling through `wires` (peer `peer(seq)`,
/// all at t = 1 ms) through `run_io`, handing each reply to `on_reply`.
fn replay(
    pool: &ProxyPool,
    ring: usize,
    wires: &[Vec<u8>],
    total: u64,
    peer: impl Fn(u64) -> u64,
    on_reply: impl FnMut(&Reply),
) -> PoolRunStats {
    let requests = (0..total).map(|seq| {
        let wire = &wires[(seq % wires.len() as u64) as usize];
        (peer(seq), Instant::from_millis(1), wire)
    });
    let mut provider = ReplayProvider::new(requests, on_reply);
    pool.run_io(&mut provider, ring, 8, Millis::from_millis(1))
}

/// The full replay mix through 4 workers: every datagram answered,
/// every reply well-formed, proxy/server accounting adds up.
#[test]
fn pool_replays_query_mix_end_to_end() {
    let spec = LoadSpec {
        unique_names: 32,
        ..LoadSpec::default()
    };
    let (pool, wires) = sharded_pool(4, &spec);
    let total = 2_000u64;
    let mut replies = 0u64;
    let stats = replay(
        &pool,
        64,
        &wires,
        total,
        |seq| seq % 16,
        |r| {
            assert!(r.wire.is_some(), "seq {} dropped", r.seq);
            replies += 1;
        },
    );
    assert_eq!(stats.processed, total);
    assert_eq!(stats.replies, total);
    assert_eq!(replies, total);
    let p = pool.proxy.stats();
    assert_eq!(p.requests, total as u32);
    // Steady state after the 32 first touches (racing first touches
    // are bounded by names × workers).
    assert!(p.cache_hits >= (total as u32) - 32 * 4);
    // Every forward reached the origin.
    assert_eq!(pool.server.stats().requests, p.forwards + p.revalidations);
}

/// The simulator feeds the ring in batched virtual-time windows:
/// clients transmit queries over the simulated 802.15.4 topology,
/// `SimProvider` harvests each window's arrivals for `run_io`, the pool
/// serves them, and the replies are sent back into the simulator
/// toward the clients. Every client ends up with a reply datagram.
#[test]
fn netsim_batched_drain_feeds_the_pool() {
    const CLIENTS: usize = 8;
    const PROXY_NODE: usize = 100;
    let spec = LoadSpec {
        unique_names: CLIENTS as u32,
        ..LoadSpec::default()
    };
    let (pool, wires) = sharded_pool(2, &spec);

    // Star topology: every client one lossless wireless hop from the
    // proxy node.
    let mut sim = Sim::new(42);
    for (c, wire) in wires.iter().enumerate().take(CLIENTS) {
        sim.add_link(
            c,
            PROXY_NODE,
            LinkKind::Wireless {
                channel: 0,
                loss_permille: 0,
            },
        );
        sim.add_route(&[c, PROXY_NODE]);
        sim.send_datagram(c, PROXY_NODE, wire.clone(), Tag::Query);
    }

    // Drain the simulator in 50 ms windows through the pool.
    let mut provider = SimProvider::new(&mut sim, PROXY_NODE, 50_000);
    let stats = pool.run_io(&mut provider, 16, 8, Millis::from_millis(10));
    assert_eq!(stats.errors, 0);
    // Run the simulation dry so the last replies reach their clients.
    let mut none: [RecvSlot; 1] = Default::default();
    assert_eq!(provider.recv_batch(&mut none, Millis::from_millis(1)), 0);
    let mut client_replies = vec![0u32; CLIENTS];
    for (to, _) in provider.take_delivered() {
        client_replies[to] += 1;
    }
    assert_eq!(client_replies, vec![1; CLIENTS], "one reply per client");
    assert_eq!(pool.proxy.stats().requests, CLIENTS as u32);
}

/// A skewed arrival pattern: every datagram comes from one hot peer,
/// and four workers share it through the one injector ring. Every
/// request is still answered exactly once.
#[test]
fn hot_peer_served_exactly_once_from_shared_ring() {
    const WORKERS: usize = 4;
    let spec = LoadSpec {
        unique_names: 16,
        ..LoadSpec::default()
    };
    let (pool, wires) = sharded_pool(WORKERS, &spec);
    let total = 1_000u64;
    let mut served = vec![0u32; total as usize];
    let stats = replay(
        &pool,
        64,
        &wires,
        total,
        |_| 1,
        |r| {
            assert!(r.wire.is_some(), "seq {} dropped", r.seq);
            served[r.seq as usize] += 1;
        },
    );
    assert_eq!(stats.processed, total);
    assert_eq!(stats.replies, total);
    assert!(
        served.iter().all(|&n| n == 1),
        "every request served exactly once"
    );
}

/// Four workers draining the same mix from the shared ring report the
/// same totals as a 1-worker run.
#[test]
fn four_workers_match_single_worker_totals() {
    let spec = LoadSpec {
        unique_names: 16,
        ..LoadSpec::default()
    };
    let total = 800u64;
    let mut totals = Vec::new();
    for workers in [1usize, 4] {
        let (pool, wires) = sharded_pool(workers, &spec);
        let stats = replay(&pool, 32, &wires, total, |seq| seq % 7, |_| {});
        totals.push((stats.processed, stats.replies, stats.errors));
    }
    assert_eq!(totals[0], totals[1], "worker count must not change totals");
    assert_eq!(totals[0], (total, total, 0));
}
