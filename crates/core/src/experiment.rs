//! The testbed-in-a-crate: drives DoC clients, the forwarder/proxy and
//! the DoC server over the `doc-netsim` simulator, reproducing the
//! paper's experiment setups:
//!
//! * **§5.1/§5.4 (Fig. 7)** — two clients, two wireless hops, opaque
//!   forwarder; 50 queries per run, Poisson λ = 5 /s; transports UDP,
//!   DTLSv1.2, CoAP (FETCH/GET/POST), CoAPSv1.2 (FETCH/GET/POST),
//!   OSCORE (FETCH); DTLS sessions and OSCORE replay windows are
//!   pre-initialized exactly as the paper does.
//! * **§6 (Fig. 10/11)** — 50 queries over 8 distinct names, 4 AAAA
//!   records per answer, TTLs uniform in [2 s, 8 s]; caching knobs:
//!   client DNS cache, client CoAP cache, caching forward proxy;
//!   policies DoH-like vs EOL TTLs.
//! * **Appendix D (Fig. 15)** — block-wise FETCH with block sizes
//!   16/32/64 over CoAP and CoAPS.
//!
//! The driver owns all node state machines and pumps the simulator's
//! event loop; every run is deterministic in its seed.

use crate::client::{DocClient, QueryOutcome};
use crate::method::DocMethod;
use crate::policy::CachePolicy;
use crate::proxy::{CoapProxy, ProxyScratch, WireAction};
use crate::server::{DocServer, MockUpstream};
use crate::transport::{
    experiment_name, frame_stream_query, frame_stream_response, TransportKind, QUIC_PSK,
};
use doc_coap::block::{Block1Sender, BlockAssembler, BlockOpt};
use doc_coap::msg::{CoapMessage, Code, MsgType};
use doc_coap::opt::OptionNumber;
use doc_coap::reliability::{Endpoint, Event as EpEvent};
use doc_dns::{Message, Question, RecordType};
use doc_netsim::{LinkKind, NodeId, Sim, SimEvent, Tag};
use doc_oscore::context::SecurityContext;
use doc_oscore::protect::OscoreEndpoint;
use doc_oscore::RequestBinding;
use std::collections::HashMap;

/// Experiment configuration. Defaults reproduce the Fig. 7 FETCH/CoAP
/// setup.
#[derive(Debug, Clone)]
pub struct ExperimentConfig {
    /// DNS transport under test.
    pub transport: TransportKind,
    /// CoAP method (CoAP-based transports only).
    pub method: DocMethod,
    /// TTL↔Max-Age policy.
    pub policy: CachePolicy,
    /// Forwarder runs as caching CoAP proxy (vs. opaque IPv6 router).
    pub proxy_cache: bool,
    /// Clients keep a CoAP response cache.
    pub client_coap_cache: bool,
    /// Clients keep a DNS cache.
    pub client_dns_cache: bool,
    /// Queried record type.
    pub record_type: RecordType,
    /// Number of clients (paper: 2).
    pub num_clients: usize,
    /// Total queries across all clients (paper: 50).
    pub num_queries: usize,
    /// Number of distinct names queried (Fig. 7: 50; Fig. 10: 8).
    pub num_names: usize,
    /// Answer records per response (Fig. 7: 1; Fig. 10: 4).
    pub answers_per_response: u16,
    /// Upstream TTL range in seconds (Fig. 10: 2..=8).
    pub ttl_range: (u32, u32),
    /// Poisson query rate per second (paper: 5.0).
    pub lambda: f64,
    /// Per-frame wireless loss in permille.
    pub loss_permille: u32,
    /// Block-wise transfer size (Fig. 15), None = off.
    pub block_size: Option<usize>,
    /// RNG seed; equal seeds give identical runs.
    pub seed: u64,
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        ExperimentConfig {
            transport: TransportKind::Coap,
            method: DocMethod::Fetch,
            policy: CachePolicy::EolTtls,
            proxy_cache: false,
            client_coap_cache: false,
            client_dns_cache: false,
            record_type: RecordType::Aaaa,
            num_clients: 2,
            num_queries: 50,
            num_names: 50,
            answers_per_response: 1,
            ttl_range: (300, 300),
            lambda: 5.0,
            loss_permille: 100,
            block_size: None,
            seed: 0xD0C,
        }
    }
}

/// What happened to one query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryRecord {
    /// Which client issued it.
    pub client: usize,
    /// Issue time (virtual ms).
    pub issued_ms: u64,
    /// Completion time, None = never resolved.
    pub resolved_ms: Option<u64>,
}

impl QueryRecord {
    /// Resolution latency if resolved.
    pub fn latency_ms(&self) -> Option<u64> {
        self.resolved_ms.map(|r| r.saturating_sub(self.issued_ms))
    }
}

/// Kinds of client/proxy events tracked for Fig. 11.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// First transmission of a CoAP message for this query.
    Transmission,
    /// A CoAP retransmission.
    Retransmission,
    /// A cache hit (client or proxy) answered the query.
    CacheHit,
    /// A cache revalidation completed (2.03 observed).
    CacheValidation,
}

/// One Fig. 11 scatter point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxEvent {
    /// The absolute issue time of the query this event belongs to.
    pub query_start_ms: u64,
    /// Offset of the event from the query start.
    pub offset_ms: u64,
    /// Event kind.
    pub kind: EventKind,
}

/// Aggregated outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Per-query records in issue order.
    pub queries: Vec<QueryRecord>,
    /// Client↔proxy link (2 hops from sink), both directions,
    /// aggregated over clients.
    pub client_proxy: doc_netsim::LinkStats,
    /// Proxy↔border-router link (1 hop from sink).
    pub proxy_br: doc_netsim::LinkStats,
    /// Fig. 11 event scatter.
    pub events: Vec<TxEvent>,
    /// Summed client stats.
    pub client_stats: crate::client::ClientStats,
    /// Proxy stats (zero when the forwarder was opaque).
    pub proxy_stats: crate::proxy::ProxyStats,
    /// Server stats.
    pub server_stats: crate::server::ServerStats,
}

impl ExperimentResult {
    /// Sorted resolution times of completed queries (CDF input).
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.queries.iter().filter_map(|q| q.latency_ms()).collect();
        v.sort_unstable();
        v
    }

    /// Fraction of queries resolving within `limit_ms`.
    pub fn fraction_within(&self, limit_ms: u64) -> f64 {
        let done = self
            .queries
            .iter()
            .filter(|q| q.latency_ms().is_some_and(|l| l <= limit_ms))
            .count();
        done as f64 / self.queries.len().max(1) as f64
    }

    /// Fraction of queries that resolved at all.
    pub fn success_rate(&self) -> f64 {
        let done = self
            .queries
            .iter()
            .filter(|q| q.resolved_ms.is_some())
            .count();
        done as f64 / self.queries.len().max(1) as f64
    }
}

// ---------------------------------------------------------------------
// Driver internals
// ---------------------------------------------------------------------

/// CoAP-style retransmitter for the non-CoAP transports (the paper:
/// "we support the retransmission algorithm of CoAP for DNS over UDP,
/// i.e., 4 retransmissions using an exponential back-off").
struct RawRetrans {
    entries: Vec<RawEntry>,
    rng: u64,
}

struct RawEntry {
    dns_id: u16,
    query_idx: usize,
    dns_bytes: Vec<u8>,
    retries: u32,
    backoff_ms: u64,
    timeout_at: u64,
}

impl RawRetrans {
    fn new(seed: u64) -> Self {
        RawRetrans {
            entries: Vec::new(),
            rng: seed | 1,
        }
    }
    fn rand(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.rng = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }
    fn arm(&mut self, dns_id: u16, query_idx: usize, dns_bytes: Vec<u8>, now: u64) {
        let backoff = 2000 + self.rand() % 1001; // [2.0, 3.0] s
        self.entries.push(RawEntry {
            dns_id,
            query_idx,
            dns_bytes,
            retries: 0,
            backoff_ms: backoff,
            timeout_at: now + backoff,
        });
    }
    fn complete(&mut self, dns_id: u16) -> Option<usize> {
        let idx = self.entries.iter().position(|e| e.dns_id == dns_id)?;
        Some(self.entries.remove(idx).query_idx)
    }
    /// Returns ((dns_bytes, query_idx) to resend, failed query idxs).
    fn poll(&mut self, now: u64) -> (Vec<(Vec<u8>, usize)>, Vec<usize>) {
        let mut resend = Vec::new();
        let mut failed = Vec::new();
        let mut i = 0;
        while i < self.entries.len() {
            if self.entries[i].timeout_at <= now {
                if self.entries[i].retries >= 4 {
                    failed.push(self.entries.remove(i).query_idx);
                    continue;
                }
                let e = &mut self.entries[i];
                e.retries += 1;
                e.backoff_ms *= 2;
                e.timeout_at = now + e.backoff_ms;
                resend.push((e.dns_bytes.clone(), e.query_idx));
            }
            i += 1;
        }
        (resend, failed)
    }
    fn next_timeout(&self) -> Option<u64> {
        self.entries.iter().map(|e| e.timeout_at).min()
    }
}

/// Per-query block-wise state (Fig. 15 runs).
struct BlockwiseState {
    sender: Option<Block1Sender>,
    assembler: BlockAssembler,
    first_response: Option<CoapMessage>,
    size: usize,
}

/// Everything one client owns.
struct ClientNode {
    endpoint: Endpoint<NodeId>,
    doc: DocClient,
    token_query: HashMap<Vec<u8>, usize>,
    bindings: HashMap<Vec<u8>, RequestBinding>,
    blockwise: HashMap<Vec<u8>, BlockwiseState>,
    oscore: Option<OscoreEndpoint>,
    dtls: Option<doc_dtls::DtlsClient>,
    /// QUIC-lite connection (stream transports: DoQ/DoH/DoT).
    quic: Option<doc_quic::Connection>,
    /// Stream ID → query index (DoQ/DoH: one query per stream).
    stream_query: HashMap<u64, usize>,
    /// Per-stream response bytes accumulated until FIN (DoQ/DoH).
    stream_rx: HashMap<u64, Vec<u8>>,
    /// The pipelined DoT response stream splitter.
    dot_rx: doc_quic::doq::DotReassembler,
    /// DNS message ID → query index (DoT matches by ID, like UDP).
    dns_id_query: HashMap<u16, usize>,
    raw: RawRetrans,
    scheduled_poll: Option<u64>,
}

impl ClientNode {
    /// Wrap outgoing bytes in DTLS when the transport demands it.
    fn wrap(&mut self, kind: TransportKind, bytes: Vec<u8>) -> Vec<u8> {
        match kind {
            TransportKind::Coaps | TransportKind::Dtls => self
                .dtls
                .as_mut()
                .expect("dtls client present")
                .send_application_data(&bytes)
                .expect("session established"),
            _ => bytes,
        }
    }

    /// Unwrap incoming bytes (returns None when the record was
    /// dropped, e.g. replay).
    fn unwrap(&mut self, kind: TransportKind, now: u64, bytes: &[u8]) -> Option<Vec<u8>> {
        match kind {
            TransportKind::Coaps | TransportKind::Dtls => {
                let mut out = None;
                for ev in self
                    .dtls
                    .as_mut()
                    .expect("dtls client present")
                    .handle_datagram(now, bytes)
                {
                    if let doc_dtls::DtlsEvent::ApplicationData(d) = ev {
                        out = Some(d);
                    }
                }
                out
            }
            _ => Some(bytes.to_vec()),
        }
    }
}

const QUERY_TOKEN_BASE: u64 = 1_000_000;
const POLL_TOKEN: u64 = 1;

/// Run one experiment.
pub fn run(cfg: &ExperimentConfig) -> ExperimentResult {
    Driver::new(cfg).run()
}

struct Driver<'a> {
    cfg: &'a ExperimentConfig,
    sim: Sim,
    clients: Vec<ClientNode>,
    server: DocServer,
    server_ep: Endpoint<NodeId>,
    server_oscore: Vec<Option<OscoreEndpoint>>,
    server_dtls: Vec<Option<doc_dtls::DtlsServer>>,
    server_quic: Vec<Option<doc_quic::Connection>>,
    /// Per-(client, stream) request bytes accumulated until FIN.
    server_stream_rx: HashMap<(NodeId, u64), Vec<u8>>,
    /// Per-client pipelined DoT request splitters.
    server_dot_rx: Vec<doc_quic::doq::DotReassembler>,
    proxy: CoapProxy,
    proxy_ep: Endpoint<NodeId>,
    proxy_exchanges: HashMap<Vec<u8>, (u64, NodeId)>,
    /// (client, client-token) attribution snapshot for proxy events.
    proxy_attribution: HashMap<u64, (NodeId, Vec<u8>)>,
    names: Vec<doc_dns::Name>,
    queries: Vec<QueryRecord>,
    events: Vec<TxEvent>,
    n: usize,
    proxy_id: NodeId,
    br_id: NodeId,
    server_id: NodeId,
}

impl<'a> Driver<'a> {
    fn new(cfg: &'a ExperimentConfig) -> Self {
        assert!(
            cfg.transport.coap_based() || cfg.block_size.is_none(),
            "block-wise requires a CoAP transport"
        );
        assert!(
            cfg.transport == TransportKind::Coap
                || (!cfg.proxy_cache && !cfg.client_coap_cache && !cfg.client_dns_cache),
            "caching scenarios use unencrypted CoAP (paper §6.1)"
        );
        let n = cfg.num_clients;
        let proxy_id = n;
        let br_id = n + 1;
        let server_id = n + 2;

        let mut sim = Sim::new(cfg.seed);
        for c in 0..n {
            sim.add_link(
                c,
                proxy_id,
                LinkKind::Wireless {
                    channel: 0,
                    loss_permille: cfg.loss_permille,
                },
            );
        }
        sim.add_link(
            proxy_id,
            br_id,
            LinkKind::Wireless {
                channel: 0,
                loss_permille: cfg.loss_permille,
            },
        );
        sim.add_link(br_id, server_id, LinkKind::Wired { latency_us: 1000 });
        for c in 0..n {
            if cfg.proxy_cache {
                sim.add_route(&[c, proxy_id]);
            } else {
                sim.add_route(&[c, proxy_id, br_id, server_id]);
            }
        }
        sim.add_route(&[proxy_id, br_id, server_id]);

        let upstream = MockUpstream::new(cfg.seed ^ 0x5e4, cfg.ttl_range.0, cfg.ttl_range.1);
        let names: Vec<doc_dns::Name> = (0..cfg.num_names as u32).map(experiment_name).collect();
        for nm in &names {
            match cfg.record_type {
                RecordType::A => upstream.add_a(nm.clone(), cfg.answers_per_response as u8),
                _ => upstream.add_aaaa(nm.clone(), cfg.answers_per_response),
            }
        }
        let mut server = DocServer::new(cfg.policy, upstream);
        if let Some(bs) = cfg.block_size {
            server = server.with_block_size(bs);
        }

        let mut server_oscore = Vec::new();
        let mut server_dtls = Vec::new();
        let mut server_quic = Vec::new();
        let clients: Vec<ClientNode> = (0..n)
            .map(|c| {
                let mut doc = DocClient::new(cfg.method, cfg.policy);
                if cfg.client_dns_cache {
                    doc = doc.with_dns_cache();
                }
                if cfg.client_coap_cache {
                    doc = doc.with_coap_cache();
                }
                let (oscore, dtls, quic) = match cfg.transport {
                    TransportKind::Oscore => {
                        let secret = b"0123456789abcdef";
                        let salt = b"doc-salt";
                        let kid = [c as u8 + 1];
                        let cctx = SecurityContext::derive(secret, salt, &kid, &[0x00]);
                        let sctx = SecurityContext::derive(secret, salt, &[0x00], &kid);
                        server_oscore.push(Some(OscoreEndpoint::new(sctx, false)));
                        server_dtls.push(None);
                        server_quic.push(None);
                        (Some(OscoreEndpoint::new(cctx, false)), None, None)
                    }
                    TransportKind::Dtls | TransportKind::Coaps => {
                        // Pre-establish DTLS (paper §5.1: "we
                        // pre-initialize DTLS sessions … before starting
                        // experiments").
                        let (dc, ds) = establish_dtls(cfg.seed ^ ((c as u64 + 1) << 8));
                        server_oscore.push(None);
                        server_dtls.push(Some(ds));
                        server_quic.push(None);
                        (None, Some(dc), None)
                    }
                    TransportKind::Quic | TransportKind::DohLite | TransportKind::Dot => {
                        // Pre-establish the QUIC-lite session the same
                        // way (the 1-RTT handshake cost is measured
                        // separately by `session_setup` and the
                        // conformance test).
                        let (qc, qs) =
                            doc_quic::establish_pair(cfg.seed ^ ((c as u64 + 1) << 8), QUIC_PSK);
                        server_oscore.push(None);
                        server_dtls.push(None);
                        server_quic.push(Some(qs));
                        (None, None, Some(qc))
                    }
                    _ => {
                        server_oscore.push(None);
                        server_dtls.push(None);
                        server_quic.push(None);
                        (None, None, None)
                    }
                };
                ClientNode {
                    endpoint: Endpoint::new(cfg.seed ^ ((c as u64 + 1) << 32)),
                    doc,
                    token_query: HashMap::new(),
                    bindings: HashMap::new(),
                    blockwise: HashMap::new(),
                    oscore,
                    dtls,
                    quic,
                    stream_query: HashMap::new(),
                    stream_rx: HashMap::new(),
                    dot_rx: doc_quic::doq::DotReassembler::new(),
                    dns_id_query: HashMap::new(),
                    raw: RawRetrans::new(cfg.seed ^ 0xAB00 ^ c as u64),
                    scheduled_poll: None,
                }
            })
            .collect();

        let arrivals =
            doc_netsim::poisson_arrivals(cfg.seed ^ 0x90155, cfg.lambda, cfg.num_queries);
        let mut queries = Vec::with_capacity(cfg.num_queries);
        for (i, &t) in arrivals.iter().enumerate() {
            let client = i % n;
            queries.push(QueryRecord {
                client,
                issued_ms: t.as_millis(),
                resolved_ms: None,
            });
            sim.set_timer(client, t, QUERY_TOKEN_BASE + i as u64);
        }

        Driver {
            cfg,
            sim,
            clients,
            server,
            server_ep: Endpoint::new(cfg.seed ^ 0x1111),
            server_oscore,
            server_dtls,
            server_quic,
            server_stream_rx: HashMap::new(),
            server_dot_rx: (0..n)
                .map(|_| doc_quic::doq::DotReassembler::new())
                .collect(),
            proxy: CoapProxy::new(50),
            proxy_ep: Endpoint::new(cfg.seed ^ 0x2222),
            proxy_exchanges: HashMap::new(),
            proxy_attribution: HashMap::new(),
            names,
            queries,
            events: Vec::new(),
            n,
            proxy_id,
            br_id,
            server_id,
        }
    }

    fn client_dest(&self) -> NodeId {
        if self.cfg.proxy_cache {
            self.proxy_id
        } else {
            self.server_id
        }
    }

    fn record_event(&mut self, qidx: usize, now: u64, kind: EventKind) {
        let start = self.queries[qidx].issued_ms;
        self.events.push(TxEvent {
            query_start_ms: start,
            offset_ms: now.saturating_sub(start),
            kind,
        });
    }

    fn run(mut self) -> ExperimentResult {
        let deadline_ms = 600_000;
        while let Some((now, ev)) = self.sim.next_event() {
            // The protocol stack below keeps raw millisecond counts;
            // the typed boundary is the simulator/QUIC surface.
            let now = u64::from(now);
            if now > deadline_ms {
                break;
            }
            match ev {
                SimEvent::Timer { node, token } if token >= QUERY_TOKEN_BASE => {
                    self.issue_query(node, (token - QUERY_TOKEN_BASE) as usize, now);
                }
                SimEvent::Timer { node, .. } => {
                    self.handle_poll(node, now);
                }
                SimEvent::Datagram { from, to, bytes } => {
                    if to == self.server_id {
                        self.handle_server_datagram(from, bytes, now);
                    } else if to == self.proxy_id && self.cfg.proxy_cache {
                        self.handle_proxy_datagram(from, bytes, now);
                    } else if to < self.n {
                        self.handle_client_datagram(to, from, bytes, now);
                    }
                }
            }
            self.rearm_timers();
        }
        self.collect()
    }

    fn rearm_timers(&mut self) {
        for c in 0..self.n {
            let next = self.clients[c]
                .endpoint
                .next_timeout()
                .into_iter()
                .chain(self.clients[c].raw.next_timeout())
                .chain(
                    self.clients[c]
                        .quic
                        .as_ref()
                        .and_then(|q| q.next_timeout())
                        .map(u64::from),
                )
                .min();
            if let Some(t) = next {
                if self.clients[c].scheduled_poll.is_none_or(|s| t < s) {
                    self.clients[c].scheduled_poll = Some(t);
                    self.sim.set_timer(c, t.into(), POLL_TOKEN);
                }
            }
        }
        if let Some(t) = self.proxy_ep.next_timeout() {
            self.sim.set_timer(self.proxy_id, t.into(), POLL_TOKEN);
        }
        let server_next = self
            .server_ep
            .next_timeout()
            .into_iter()
            .chain(
                self.server_quic
                    .iter()
                    .flatten()
                    .filter_map(|q| q.next_timeout().map(u64::from)),
            )
            .min();
        if let Some(t) = server_next {
            self.sim.set_timer(self.server_id, t.into(), POLL_TOKEN);
        }
    }

    // -- query issue ---------------------------------------------------

    fn issue_query(&mut self, c: NodeId, qidx: usize, now: u64) {
        let name = self.names[qidx % self.names.len()].clone();
        let question = Question::new(name.clone(), self.cfg.record_type);
        match self.cfg.transport {
            TransportKind::Udp | TransportKind::Dtls => {
                let mut q = Message::query(qidx as u16 + 1, name, self.cfg.record_type);
                q.header.rd = true;
                let bytes = q.encode();
                self.clients[c]
                    .raw
                    .arm(qidx as u16 + 1, qidx, bytes.clone(), now);
                let wire = self.clients[c].wrap(self.cfg.transport, bytes);
                self.sim.send_datagram(c, self.server_id, wire, Tag::Query);
                self.record_event(qidx, now, EventKind::Transmission);
            }
            TransportKind::Quic | TransportKind::DohLite | TransportKind::Dot => {
                // Stream transports: the DNS ID doubles as the match
                // key (like the raw UDP path); loss recovery lives in
                // the QUIC-lite connection, not in an app-level
                // retransmitter.
                let mut q = Message::query(qidx as u16 + 1, name, self.cfg.record_type);
                q.header.rd = true;
                let dns = q.encode();
                let framed = frame_stream_query(self.cfg.transport, &dns);
                let node = &mut self.clients[c];
                let conn = node.quic.as_mut().expect("quic connection present");
                let datagrams = if self.cfg.transport == TransportKind::Dot {
                    // One pipelined stream for the whole session.
                    node.dns_id_query.insert(qidx as u16 + 1, qidx);
                    conn.send_stream(0, &framed, false, now.into())
                } else {
                    // RFC 9250: one query per stream, FIN after it.
                    let sid = conn.open_stream();
                    node.stream_query.insert(sid, qidx);
                    conn.send_stream(sid, &framed, true, now.into())
                }
                .expect("session pre-established");
                for d in datagrams {
                    self.sim.send_datagram(c, self.server_id, d, Tag::Query);
                }
                self.record_event(qidx, now, EventKind::Transmission);
            }
            _ => {
                let mid = self.clients[c].endpoint.alloc_mid();
                let tok = self.clients[c].endpoint.alloc_token();
                match self.clients[c]
                    .doc
                    .begin_query(question, mid, tok.clone(), now)
                {
                    Ok(QueryOutcome::Answered(_)) => {
                        self.queries[qidx].resolved_ms = Some(now);
                        self.record_event(qidx, now, EventKind::CacheHit);
                    }
                    Ok(QueryOutcome::SendRequest(req)) => {
                        self.clients[c].token_query.insert(tok.clone(), qidx);
                        let mut outgoing = *req;
                        if let Some(bs) = self.cfg.block_size {
                            if outgoing.payload.len() > bs && self.cfg.method.blockwise_query() {
                                let mut sender = Block1Sender::new(outgoing.payload.clone(), bs)
                                    .expect("valid block size");
                                let (slice, block) = sender.next_block().expect("non-empty body");
                                doc_coap::block::apply_block1(&mut outgoing, slice, block);
                                self.clients[c].blockwise.insert(
                                    tok.clone(),
                                    BlockwiseState {
                                        sender: Some(sender),
                                        assembler: BlockAssembler::new(),
                                        first_response: None,
                                        size: bs,
                                    },
                                );
                            } else {
                                self.clients[c].blockwise.insert(
                                    tok.clone(),
                                    BlockwiseState {
                                        sender: None,
                                        assembler: BlockAssembler::new(),
                                        first_response: None,
                                        size: bs,
                                    },
                                );
                            }
                        }
                        let final_msg = if self.clients[c].oscore.is_some() {
                            let osc = self.clients[c].oscore.as_mut().expect("checked");
                            let (outer, binding) =
                                osc.protect_request(&outgoing).expect("oscore protect");
                            self.clients[c].bindings.insert(tok.clone(), binding);
                            outer
                        } else {
                            outgoing
                        };
                        let dest = self.client_dest();
                        let evs = self.clients[c].endpoint.send_request(now, dest, &final_msg);
                        self.dispatch_client_events(c, evs, now);
                    }
                    Err(_) => {}
                }
            }
        }
    }

    // -- timers ----------------------------------------------------------

    fn handle_poll(&mut self, node: NodeId, now: u64) {
        if node < self.n {
            self.clients[node].scheduled_poll = None;
            let evs = self.clients[node].endpoint.poll(now);
            // Timeouts first (they clear state).
            for e in &evs {
                if let EpEvent::TimedOut { token, .. } = e {
                    self.clients[node].doc.fail_exchange(token);
                    self.clients[node].token_query.remove(token);
                    self.clients[node].blockwise.remove(token);
                    self.clients[node].bindings.remove(token);
                }
            }
            self.dispatch_client_events(node, evs, now);
            let (resend, _failed) = self.clients[node].raw.poll(now);
            for (bytes, qidx) in resend {
                let wire = self.clients[node].wrap(self.cfg.transport, bytes);
                self.sim
                    .send_datagram(node, self.server_id, wire, Tag::Query);
                self.record_event(qidx, now, EventKind::Retransmission);
            }
            if let Some(conn) = self.clients[node].quic.as_mut() {
                for d in conn.poll(now.into()).datagrams {
                    self.sim.send_datagram(node, self.server_id, d, Tag::Query);
                }
            }
        } else if node == self.proxy_id {
            let evs = self.proxy_ep.poll(now);
            for e in evs {
                if let EpEvent::Transmit { to, datagram, .. } = e {
                    let tag = if to == self.server_id {
                        Tag::Query
                    } else {
                        Tag::Response
                    };
                    self.sim.send_datagram(self.proxy_id, to, datagram, tag);
                }
            }
        } else if node == self.server_id {
            let evs = self.server_ep.poll(now);
            for e in evs {
                if let EpEvent::Transmit { to, datagram, .. } = e {
                    let wire = self.server_wrap(to, datagram);
                    self.sim
                        .send_datagram(self.server_id, to, wire, Tag::Response);
                }
            }
            for c in 0..self.server_quic.len() {
                let Some(conn) = self.server_quic[c].as_mut() else {
                    continue;
                };
                for d in conn.poll(now.into()).datagrams {
                    self.sim.send_datagram(self.server_id, c, d, Tag::Response);
                }
            }
        }
    }

    // -- client events ---------------------------------------------------

    fn dispatch_client_events(&mut self, c: usize, evs: Vec<EpEvent<NodeId>>, now: u64) {
        for e in evs {
            match e {
                EpEvent::Transmit {
                    to,
                    datagram,
                    retransmission,
                } => {
                    if let Ok(msg) = CoapMessage::decode(&datagram) {
                        if let Some(&qidx) = self.clients[c].token_query.get(&msg.token) {
                            self.record_event(
                                qidx,
                                now,
                                if retransmission {
                                    EventKind::Retransmission
                                } else {
                                    EventKind::Transmission
                                },
                            );
                        }
                    }
                    let wire = self.clients[c].wrap(self.cfg.transport, datagram);
                    self.sim.send_datagram(c, to, wire, Tag::Query);
                }
                EpEvent::Response { msg, .. } => {
                    self.complete_client_response(c, msg, now);
                }
                EpEvent::TimedOut { token, .. } => {
                    self.clients[c].doc.fail_exchange(&token);
                    self.clients[c].token_query.remove(&token);
                    self.clients[c].blockwise.remove(&token);
                    self.clients[c].bindings.remove(&token);
                }
                _ => {}
            }
        }
    }

    fn handle_client_datagram(&mut self, c: usize, from: NodeId, bytes: Vec<u8>, now: u64) {
        if self.cfg.transport.stream_based() {
            let evs = self.clients[c]
                .quic
                .as_mut()
                .expect("quic connection present")
                .handle_datagram(now.into(), &bytes);
            self.process_client_quic_events(c, evs, now);
            return;
        }
        match self.cfg.transport {
            TransportKind::Udp | TransportKind::Dtls => {
                let Some(dns_bytes) = self.clients[c].unwrap(self.cfg.transport, now, &bytes)
                else {
                    return;
                };
                let Ok(msg) = Message::decode(&dns_bytes) else {
                    return;
                };
                if let Some(qidx) = self.clients[c].raw.complete(msg.header.id) {
                    if self.queries[qidx].resolved_ms.is_none() {
                        self.queries[qidx].resolved_ms = Some(now);
                    }
                }
            }
            _ => {
                let Some(datagram) = self.clients[c].unwrap(self.cfg.transport, now, &bytes) else {
                    return;
                };
                let evs = self.clients[c]
                    .endpoint
                    .handle_datagram(now, from, &datagram);
                self.dispatch_client_events(c, evs, now);
            }
        }
    }

    fn process_client_quic_events(&mut self, c: usize, evs: Vec<doc_quic::QuicEvent>, now: u64) {
        for ev in evs {
            match ev {
                doc_quic::QuicEvent::Transmit(d) => {
                    // ACKs and other connection maintenance.
                    self.sim.send_datagram(c, self.server_id, d, Tag::Query);
                }
                doc_quic::QuicEvent::Stream { id, data, fin } => {
                    if self.cfg.transport == TransportKind::Dot {
                        // Pipelined responses: split on the 2-byte
                        // length prefix, match by DNS message ID.
                        for msg in self.clients[c].dot_rx.push(&data) {
                            let Ok(resp) = Message::decode(&msg) else {
                                continue;
                            };
                            let Some(qidx) = self.clients[c].dns_id_query.remove(&resp.header.id)
                            else {
                                continue;
                            };
                            if self.queries[qidx].resolved_ms.is_none() {
                                self.queries[qidx].resolved_ms = Some(now);
                            }
                        }
                    } else {
                        self.clients[c]
                            .stream_rx
                            .entry(id)
                            .or_default()
                            .extend_from_slice(&data);
                        if !fin {
                            continue;
                        }
                        let buf = self.clients[c].stream_rx.remove(&id).unwrap_or_default();
                        let Some(qidx) = self.clients[c].stream_query.remove(&id) else {
                            continue;
                        };
                        let dns = match self.cfg.transport {
                            TransportKind::Quic => doc_quic::doq::decode_doq(&buf),
                            _ => doc_quic::doq::decode_doh(&buf),
                        };
                        if dns.ok().and_then(|d| Message::decode(d).ok()).is_some()
                            && self.queries[qidx].resolved_ms.is_none()
                        {
                            self.queries[qidx].resolved_ms = Some(now);
                        }
                    }
                }
                doc_quic::QuicEvent::Established => {}
            }
        }
    }

    fn complete_client_response(&mut self, c: usize, outer: CoapMessage, now: u64) {
        let token = outer.token.clone();
        // OSCORE unprotect (responses bound to the stored binding).
        let msg = if let Some(binding) = self.clients[c].bindings.get(&token) {
            let osc = self.clients[c].oscore.as_ref().expect("binding ⇒ oscore");
            match osc.unprotect_response(&outer, binding) {
                Ok(inner) => inner,
                Err(_) => return,
            }
        } else {
            outer
        };
        let Some(&qidx) = self.clients[c].token_query.get(&token) else {
            return;
        };

        // Block-wise continuation.
        if self.clients[c].blockwise.contains_key(&token) {
            if msg.code == Code::CONTINUE {
                let next = self.clients[c]
                    .blockwise
                    .get_mut(&token)
                    .and_then(|bw| bw.sender.as_mut())
                    .and_then(|s| s.next_block());
                if let Some((slice, block)) = next {
                    let mid = self.clients[c].endpoint.alloc_mid();
                    let mut req = crate::method::build_request(
                        self.cfg.method,
                        &[],
                        MsgType::Con,
                        mid,
                        token.clone(),
                    )
                    .expect("request construction");
                    doc_coap::block::apply_block1(&mut req, slice, block);
                    let dest = self.client_dest();
                    let evs = self.clients[c].endpoint.send_request(now, dest, &req);
                    self.dispatch_client_events(c, evs, now);
                }
                return;
            }
            if let Some(Ok(block2)) = BlockOpt::from_message(&msg, OptionNumber::BLOCK2) {
                let (result, size) = {
                    let bw = self.clients[c].blockwise.get_mut(&token).expect("present");
                    if bw.first_response.is_none() {
                        bw.first_response = Some(msg.clone());
                    }
                    (bw.assembler.push(block2, &msg.payload), bw.size)
                };
                match result {
                    Ok(Some(full)) => {
                        let first = self.clients[c]
                            .blockwise
                            .remove(&token)
                            .and_then(|bw| bw.first_response)
                            .expect("first response recorded");
                        let mut synthesized = first;
                        synthesized.payload = full;
                        synthesized.remove_option(OptionNumber::BLOCK2);
                        self.finish_query(c, &token, &synthesized, now, qidx);
                    }
                    Ok(None) => {
                        let mid = self.clients[c].endpoint.alloc_mid();
                        let mut follow = CoapMessage::request(
                            self.cfg.method.code(),
                            MsgType::Con,
                            mid,
                            token.clone(),
                        );
                        follow.options.push(doc_coap::opt::CoapOption::new(
                            OptionNumber::URI_PATH,
                            crate::DEFAULT_RESOURCE.as_bytes().to_vec(),
                        ));
                        follow.set_option(
                            BlockOpt::new(block2.num + 1, false, size)
                                .expect("valid block")
                                .to_option(OptionNumber::BLOCK2),
                        );
                        let dest = self.client_dest();
                        let evs = self.clients[c].endpoint.send_request(now, dest, &follow);
                        self.dispatch_client_events(c, evs, now);
                    }
                    Err(_) => {
                        self.clients[c].blockwise.remove(&token);
                    }
                }
                return;
            }
            // Response without a Block2 option: the body fit one
            // exchange after all.
            self.clients[c].blockwise.remove(&token);
        }
        self.finish_query(c, &token, &msg, now, qidx);
    }

    fn finish_query(&mut self, c: usize, token: &[u8], msg: &CoapMessage, now: u64, qidx: usize) {
        let was_validation = msg.code == Code::VALID;
        if self.clients[c].doc.handle_response(token, msg, now).is_ok()
            && self.queries[qidx].resolved_ms.is_none()
        {
            self.queries[qidx].resolved_ms = Some(now);
            if was_validation {
                self.record_event(qidx, now, EventKind::CacheValidation);
            }
        }
        self.clients[c].token_query.remove(token);
        self.clients[c].bindings.remove(token);
    }

    // -- server ----------------------------------------------------------

    fn server_wrap(&mut self, to: NodeId, bytes: Vec<u8>) -> Vec<u8> {
        match self.cfg.transport {
            TransportKind::Coaps | TransportKind::Dtls => self.server_dtls[to]
                .as_mut()
                .expect("dtls server present")
                .send_application_data(&bytes)
                .expect("session established"),
            _ => bytes,
        }
    }

    fn handle_server_datagram(&mut self, from: NodeId, bytes: Vec<u8>, now: u64) {
        if self.cfg.transport.stream_based() {
            self.handle_server_stream_datagram(from, bytes, now);
            return;
        }
        match self.cfg.transport {
            TransportKind::Udp | TransportKind::Dtls => {
                let dns_bytes = match self.cfg.transport {
                    TransportKind::Dtls => {
                        let Some(ds) = self.server_dtls.get_mut(from).and_then(|d| d.as_mut())
                        else {
                            return;
                        };
                        let mut out = None;
                        for ev in ds.handle_datagram(now, &bytes) {
                            if let doc_dtls::DtlsEvent::ApplicationData(d) = ev {
                                out = Some(d);
                            }
                        }
                        match out {
                            Some(d) => d,
                            None => return,
                        }
                    }
                    _ => bytes,
                };
                let Ok(query) = Message::decode(&dns_bytes) else {
                    return;
                };
                let resp = self.server.upstream.resolve(&query, now);
                self.server.count_raw_dns_response();
                let wire = self.server_wrap(from, resp.encode());
                self.sim
                    .send_datagram(self.server_id, from, wire, Tag::Response);
            }
            _ => {
                let datagram = match self.cfg.transport {
                    TransportKind::Coaps => {
                        let Some(ds) = self.server_dtls.get_mut(from).and_then(|d| d.as_mut())
                        else {
                            return;
                        };
                        let mut out = None;
                        for ev in ds.handle_datagram(now, &bytes) {
                            if let doc_dtls::DtlsEvent::ApplicationData(d) = ev {
                                out = Some(d);
                            }
                        }
                        match out {
                            Some(d) => d,
                            None => return,
                        }
                    }
                    _ => bytes,
                };
                let evs = self.server_ep.handle_datagram(now, from, &datagram);
                for e in evs {
                    match e {
                        EpEvent::Transmit { to, datagram, .. } => {
                            let wire = self.server_wrap(to, datagram);
                            self.sim
                                .send_datagram(self.server_id, to, wire, Tag::Response);
                        }
                        EpEvent::Request { from, msg } => {
                            let (inner, binding) =
                                match self.server_oscore.get_mut(from).and_then(|o| o.as_mut()) {
                                    Some(osc) => match osc.unprotect_request(&msg) {
                                        Ok((inner, binding)) => (inner, Some(binding)),
                                        Err(_) => continue,
                                    },
                                    None => (msg.clone(), None),
                                };
                            let mut resp =
                                self.server.handle_request_from(from as u64, &inner, now);
                            if let Some(binding) = &binding {
                                let osc = self.server_oscore[from].as_ref().expect("present");
                                match osc.protect_response(&resp, binding, &msg) {
                                    Ok(outer) => resp = outer,
                                    Err(_) => continue,
                                }
                            }
                            let evs2 = self.server_ep.send_response(now, from, &resp);
                            for e2 in evs2 {
                                if let EpEvent::Transmit { to, datagram, .. } = e2 {
                                    let wire = self.server_wrap(to, datagram);
                                    self.sim
                                        .send_datagram(self.server_id, to, wire, Tag::Response);
                                }
                            }
                        }
                        _ => {}
                    }
                }
            }
        }
    }

    /// Stream-transport server leg: pump the per-client QUIC-lite
    /// connection, reassemble request streams, resolve each DNS query
    /// against the upstream and write the framed response back on the
    /// same stream.
    fn handle_server_stream_datagram(&mut self, from: NodeId, bytes: Vec<u8>, now: u64) {
        let Some(conn) = self.server_quic.get_mut(from).and_then(|c| c.as_mut()) else {
            return;
        };
        let evs = conn.handle_datagram(now.into(), &bytes);
        for ev in evs {
            match ev {
                doc_quic::QuicEvent::Transmit(d) => {
                    self.sim
                        .send_datagram(self.server_id, from, d, Tag::Response);
                }
                doc_quic::QuicEvent::Stream { id, data, fin } => {
                    if self.cfg.transport == TransportKind::Dot {
                        let msgs = self.server_dot_rx[from].push(&data);
                        for dns in msgs {
                            self.answer_stream_query(from, 0, &dns, false, now);
                        }
                    } else {
                        self.server_stream_rx
                            .entry((from, id))
                            .or_default()
                            .extend_from_slice(&data);
                        if !fin {
                            continue;
                        }
                        let buf = self
                            .server_stream_rx
                            .remove(&(from, id))
                            .unwrap_or_default();
                        let dns = match self.cfg.transport {
                            TransportKind::Quic => doc_quic::doq::decode_doq(&buf),
                            _ => doc_quic::doq::decode_doh(&buf),
                        };
                        if let Ok(dns) = dns {
                            let dns = dns.to_vec();
                            self.answer_stream_query(from, id, &dns, true, now);
                        }
                    }
                }
                doc_quic::QuicEvent::Established => {}
            }
        }
    }

    fn answer_stream_query(&mut self, from: NodeId, sid: u64, dns: &[u8], fin: bool, now: u64) {
        let Ok(query) = Message::decode(dns) else {
            return;
        };
        let resp = self.server.upstream.resolve(&query, now);
        self.server.count_raw_dns_response();
        let framed = frame_stream_response(self.cfg.transport, &resp.encode());
        let conn = self.server_quic[from].as_mut().expect("stream transport");
        let datagrams = conn
            .send_stream(sid, &framed, fin, now.into())
            .expect("session pre-established");
        for d in datagrams {
            self.sim
                .send_datagram(self.server_id, from, d, Tag::Response);
        }
    }

    // -- proxy -----------------------------------------------------------

    fn handle_proxy_datagram(&mut self, from: NodeId, bytes: Vec<u8>, now: u64) {
        let evs = self.proxy_ep.handle_datagram(now, from, &bytes);
        for e in evs {
            match e {
                EpEvent::Transmit { to, datagram, .. } => {
                    let tag = if to == self.server_id {
                        Tag::Query
                    } else {
                        Tag::Response
                    };
                    self.sim.send_datagram(self.proxy_id, to, datagram, tag);
                }
                EpEvent::Request { from: client, msg } => {
                    let mut reply = Vec::new();
                    let action = self.proxy.serve_wire(
                        &msg.encode(),
                        now,
                        &mut ProxyScratch::default(),
                        &mut reply,
                    );
                    match action {
                        Ok(WireAction::Responded) => {
                            let Ok(resp) = CoapMessage::decode(&reply) else {
                                continue;
                            };
                            if let Some(&qidx) = self.clients[client].token_query.get(&msg.token) {
                                let kind = if resp.code == Code::VALID {
                                    EventKind::CacheValidation
                                } else {
                                    EventKind::CacheHit
                                };
                                self.record_event(qidx, now, kind);
                            }
                            let evs2 = self.proxy_ep.send_response(now, client, &resp);
                            for e2 in evs2 {
                                if let EpEvent::Transmit { to, datagram, .. } = e2 {
                                    self.sim.send_datagram(
                                        self.proxy_id,
                                        to,
                                        datagram,
                                        Tag::Response,
                                    );
                                }
                            }
                        }
                        Ok(WireAction::Forward {
                            mut request,
                            exchange_id,
                        }) => {
                            let mid = self.proxy_ep.alloc_mid();
                            let tok = self.proxy_ep.alloc_token();
                            request.message_id = mid;
                            request.token = tok.clone();
                            self.proxy_exchanges.insert(tok, (exchange_id, client));
                            self.proxy_attribution
                                .insert(exchange_id, (client, msg.token.clone()));
                            let evs2 = self.proxy_ep.send_request(now, self.server_id, &request);
                            for e2 in evs2 {
                                if let EpEvent::Transmit { to, datagram, .. } = e2 {
                                    self.sim
                                        .send_datagram(self.proxy_id, to, datagram, Tag::Query);
                                }
                            }
                        }
                        // The endpoint decoded this request, so it
                        // re-encodes to a well-formed datagram.
                        Err(_) => {}
                    }
                }
                EpEvent::Response { msg, .. } => {
                    let Some((exchange_id, client)) = self.proxy_exchanges.remove(&msg.token)
                    else {
                        continue;
                    };
                    self.proxy_attribution.remove(&exchange_id);
                    if let Some(resp) = self.proxy.handle_upstream_response(exchange_id, &msg, now)
                    {
                        let evs2 = self.proxy_ep.send_response(now, client, &resp);
                        for e2 in evs2 {
                            if let EpEvent::Transmit { to, datagram, .. } = e2 {
                                self.sim
                                    .send_datagram(self.proxy_id, to, datagram, Tag::Response);
                            }
                        }
                    }
                }
                _ => {}
            }
        }
    }

    // -- results ---------------------------------------------------------

    fn collect(self) -> ExperimentResult {
        let mut client_proxy = doc_netsim::LinkStats::default();
        for c in 0..self.n {
            let s = self.sim.link_stats_bidir(c, self.proxy_id);
            client_proxy.frames += s.frames;
            client_proxy.bytes += s.bytes;
            for k in 0..3 {
                client_proxy.frames_by_tag[k] += s.frames_by_tag[k];
                client_proxy.bytes_by_tag[k] += s.bytes_by_tag[k];
            }
            client_proxy.dropped_datagrams += s.dropped_datagrams;
        }
        let proxy_br = self.sim.link_stats_bidir(self.proxy_id, self.br_id);
        let mut client_stats = crate::client::ClientStats::default();
        for c in &self.clients {
            let s = c.doc.stats;
            client_stats.queries += s.queries;
            client_stats.dns_cache_hits += s.dns_cache_hits;
            client_stats.coap_cache_hits += s.coap_cache_hits;
            client_stats.revalidations_sent += s.revalidations_sent;
            client_stats.revalidated += s.revalidated;
            client_stats.full_responses += s.full_responses;
        }
        ExperimentResult {
            queries: self.queries,
            client_proxy,
            proxy_br,
            events: self.events,
            client_stats,
            proxy_stats: self.proxy.stats(),
            server_stats: self.server.stats(),
        }
    }
}

/// Establish one DTLS session out-of-band (paper-style
/// pre-initialization; the handshake cost is measured separately in
/// Fig. 6).
fn establish_dtls(seed: u64) -> (doc_dtls::DtlsClient, doc_dtls::DtlsServer) {
    let mut client = doc_dtls::DtlsClient::new(seed | 1, b"Client_ID", b"123456789");
    let mut server = doc_dtls::DtlsServer::new((seed ^ 0xF00D) | 1, b"123456789");
    let mut c2s: Vec<Vec<u8>> = Vec::new();
    for ev in client.start(0) {
        if let doc_dtls::DtlsEvent::Transmit { datagram, .. } = ev {
            c2s.push(datagram);
        }
    }
    for _ in 0..8 {
        let mut s2c = Vec::new();
        for d in c2s.drain(..) {
            for ev in server.handle_datagram(0, &d) {
                if let doc_dtls::DtlsEvent::Transmit { datagram, .. } = ev {
                    s2c.push(datagram);
                }
            }
        }
        for d in s2c {
            for ev in client.handle_datagram(0, &d) {
                if let doc_dtls::DtlsEvent::Transmit { datagram, .. } = ev {
                    c2s.push(datagram);
                }
            }
        }
        if client.is_connected() && server.is_connected() {
            break;
        }
    }
    assert!(client.is_connected() && server.is_connected());
    (client, server)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_cfg() -> ExperimentConfig {
        ExperimentConfig {
            num_queries: 20,
            num_names: 20,
            loss_permille: 50,
            ..Default::default()
        }
    }

    #[test]
    fn coap_fetch_resolves_queries() {
        let r = run(&base_cfg());
        assert!(r.success_rate() > 0.9, "success {}", r.success_rate());
        assert!(r.server_stats.requests >= 18);
        // Resolution times well below a second for unfragmented queries.
        let lat = r.sorted_latencies();
        assert!(lat[lat.len() / 2] < 1000, "median {:?}", lat);
    }

    #[test]
    fn udp_resolves_queries() {
        let mut cfg = base_cfg();
        cfg.transport = TransportKind::Udp;
        let r = run(&cfg);
        assert!(r.success_rate() > 0.9, "success {}", r.success_rate());
    }

    #[test]
    fn dtls_resolves_queries() {
        let mut cfg = base_cfg();
        cfg.transport = TransportKind::Dtls;
        let r = run(&cfg);
        assert!(r.success_rate() > 0.85, "success {}", r.success_rate());
    }

    #[test]
    fn coaps_resolves_queries() {
        let mut cfg = base_cfg();
        cfg.transport = TransportKind::Coaps;
        let r = run(&cfg);
        assert!(r.success_rate() > 0.85, "success {}", r.success_rate());
    }

    #[test]
    fn oscore_resolves_queries() {
        let mut cfg = base_cfg();
        cfg.transport = TransportKind::Oscore;
        let r = run(&cfg);
        assert!(r.success_rate() > 0.85, "success {}", r.success_rate());
    }

    #[test]
    fn quic_resolves_queries() {
        let mut cfg = base_cfg();
        cfg.transport = TransportKind::Quic;
        let r = run(&cfg);
        assert!(r.success_rate() > 0.85, "success {}", r.success_rate());
        assert!(r.server_stats.requests >= 18);
    }

    #[test]
    fn doh_resolves_queries() {
        let mut cfg = base_cfg();
        cfg.transport = TransportKind::DohLite;
        let r = run(&cfg);
        assert!(r.success_rate() > 0.85, "success {}", r.success_rate());
    }

    #[test]
    fn dot_resolves_queries() {
        let mut cfg = base_cfg();
        cfg.transport = TransportKind::Dot;
        let r = run(&cfg);
        assert!(r.success_rate() > 0.85, "success {}", r.success_rate());
    }

    /// QUIC loss recovery really runs over the event queue: with heavy
    /// loss, queries still resolve via stream retransmission (no
    /// app-level retransmitter exists for stream transports).
    #[test]
    fn quic_recovers_from_heavy_loss() {
        let mut cfg = base_cfg();
        cfg.transport = TransportKind::Quic;
        cfg.loss_permille = 200;
        let r = run(&cfg);
        assert!(r.success_rate() > 0.7, "success {}", r.success_rate());
    }

    #[test]
    fn stream_transports_deterministic() {
        for transport in [
            TransportKind::Quic,
            TransportKind::DohLite,
            TransportKind::Dot,
        ] {
            let mut cfg = base_cfg();
            cfg.transport = transport;
            let a = run(&cfg);
            let b = run(&cfg);
            assert_eq!(a.queries, b.queries, "{transport:?}");
            assert_eq!(a.client_proxy, b.client_proxy, "{transport:?}");
        }
    }

    /// Fig. 7 shape: UDP A-record resolution beats transports whose
    /// packets fragment.
    #[test]
    fn udp_a_faster_than_coaps() {
        let mut cfg = base_cfg();
        cfg.record_type = RecordType::A;
        cfg.loss_permille = 100;
        cfg.transport = TransportKind::Udp;
        let udp = run(&cfg);
        cfg.transport = TransportKind::Coaps;
        let coaps = run(&cfg);
        assert!(
            udp.fraction_within(250) > coaps.fraction_within(250),
            "udp {} vs coaps {}",
            udp.fraction_within(250),
            coaps.fraction_within(250)
        );
    }

    /// Fig. 10 effect: a caching proxy cuts proxy↔BR traffic roughly in
    /// half when 50 queries target only 8 names.
    #[test]
    fn proxy_cache_reduces_upstream_traffic() {
        let mut cfg = base_cfg();
        cfg.num_queries = 50;
        cfg.num_names = 8;
        cfg.answers_per_response = 4;
        cfg.ttl_range = (2, 8);
        cfg.loss_permille = 20;
        cfg.proxy_cache = false;
        let opaque = run(&cfg);
        cfg.proxy_cache = true;
        let proxied = run(&cfg);
        assert!(proxied.proxy_stats.cache_hits > 0, "proxy never hit");
        assert!(
            (proxied.proxy_br.bytes as f64) < 0.8 * opaque.proxy_br.bytes as f64,
            "proxied {} vs opaque {}",
            proxied.proxy_br.bytes,
            opaque.proxy_br.bytes
        );
        assert!(proxied.success_rate() > 0.9);
    }

    /// EOL TTLs revalidates where DoH-like must re-transfer: fewer
    /// upstream bytes.
    #[test]
    fn eol_beats_doh_like_with_proxy() {
        let mut cfg = base_cfg();
        cfg.num_queries = 50;
        cfg.num_names = 8;
        cfg.answers_per_response = 4;
        cfg.ttl_range = (2, 8);
        cfg.loss_permille = 20;
        cfg.proxy_cache = true;
        cfg.policy = CachePolicy::DohLike;
        let doh = run(&cfg);
        cfg.policy = CachePolicy::EolTtls;
        let eol = run(&cfg);
        assert!(
            eol.server_stats.validations > doh.server_stats.validations,
            "eol {} vs doh {}",
            eol.server_stats.validations,
            doh.server_stats.validations
        );
        assert!(
            eol.proxy_br.bytes < doh.proxy_br.bytes,
            "eol {} vs doh {} bytes upstream",
            eol.proxy_br.bytes,
            doh.proxy_br.bytes
        );
    }

    /// Fig. 15: smaller blocks mean more exchanges and slower
    /// resolution.
    #[test]
    fn blockwise_slows_resolution() {
        let mut cfg = base_cfg();
        cfg.loss_permille = 20;
        cfg.num_queries = 10;
        let plain = run(&cfg);
        cfg.block_size = Some(16);
        let b16 = run(&cfg);
        assert!(
            b16.success_rate() > 0.7,
            "b16 success {}",
            b16.success_rate()
        );
        let p50_plain = plain.sorted_latencies()[plain.sorted_latencies().len() / 2];
        let lat16 = b16.sorted_latencies();
        let p50_16 = lat16[lat16.len() / 2];
        assert!(
            p50_16 > p50_plain,
            "16-byte blocks {} ms vs plain {} ms",
            p50_16,
            p50_plain
        );
    }

    #[test]
    fn deterministic_runs() {
        let cfg = base_cfg();
        let a = run(&cfg);
        let b = run(&cfg);
        assert_eq!(a.queries, b.queries);
        assert_eq!(a.client_proxy, b.client_proxy);
    }

    #[test]
    fn client_dns_cache_reduces_queries_to_server() {
        let mut cfg = base_cfg();
        cfg.num_queries = 40;
        cfg.num_names = 4;
        cfg.ttl_range = (30, 30); // long TTLs: cache always hits
        cfg.client_dns_cache = true;
        cfg.loss_permille = 0;
        let r = run(&cfg);
        assert!(r.client_stats.dns_cache_hits > 20);
        assert!(r.server_stats.requests < 20);
        assert!(r.success_rate() > 0.95);
    }
}

#[cfg(test)]
mod debug_tests {
    use super::*;

    #[test]
    fn blockwise_zero_loss_all_resolve() {
        let cfg = ExperimentConfig {
            num_queries: 10,
            num_names: 10,
            loss_permille: 0,
            block_size: Some(16),
            ..Default::default()
        };
        let r = run(&cfg);
        let unresolved: Vec<usize> = r
            .queries
            .iter()
            .enumerate()
            .filter(|(_, q)| q.resolved_ms.is_none())
            .map(|(i, _)| i)
            .collect();
        assert!(
            r.success_rate() > 0.99,
            "success {} with zero loss; unresolved {:?}; server {:?}; issued {:?}",
            r.success_rate(),
            unresolved,
            r.server_stats,
            r.queries.iter().map(|q| q.issued_ms).collect::<Vec<_>>()
        );
    }
}
