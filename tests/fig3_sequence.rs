//! Integration test reproducing the paper's Fig. 3 message sequence:
//! two DoC clients, a DoC-agnostic caching proxy, the DoC server and
//! its (mock) name server — asserting each numbered event of the
//! figure for the DoH-like scheme, and the EOL-TTLs improvement.

use doc_repro::coap::msg::{CoapMessage, Code, MsgType};
use doc_repro::coap::opt::{CoapOption, OptionNumber};
use doc_repro::dns::{Message, Name, RecordType};
use doc_repro::doc::method::{build_request, DocMethod};
use doc_repro::doc::policy::CachePolicy;
use doc_repro::doc::proxy::{CoapProxy, ProxyScratch, WireAction};
use doc_repro::doc::server::{DocServer, MockUpstream};

fn fetch(name: &Name, mid: u16, token: u8) -> CoapMessage {
    let mut q = Message::query(0, name.clone(), RecordType::Aaaa);
    q.canonicalize_id();
    build_request(
        DocMethod::Fetch,
        &q.encode(),
        MsgType::Con,
        mid,
        vec![token],
    )
    .unwrap()
}

struct Testbed {
    server: DocServer,
    proxy: CoapProxy,
}

impl Testbed {
    fn new(policy: CachePolicy) -> (Self, Name) {
        let name = Name::parse("example.org").unwrap();
        let up = MockUpstream::new(5, 10, 10);
        up.add_aaaa(name.clone(), 1);
        (
            Testbed {
                server: DocServer::new(policy, up),
                proxy: CoapProxy::new(8),
            },
            name,
        )
    }

    /// Returns (response, hit_proxy_cache).
    fn query(&mut self, req: &CoapMessage, now: u64) -> (CoapMessage, bool) {
        let mut out = Vec::new();
        let action = self
            .proxy
            .serve_wire(&req.encode(), now, &mut ProxyScratch::default(), &mut out)
            .expect("well-formed request");
        match action {
            WireAction::Responded => (CoapMessage::decode(&out).unwrap(), true),
            WireAction::Forward {
                request,
                exchange_id,
            } => {
                let upstream = self.server.handle_request(&request, now);
                (
                    self.proxy
                        .handle_upstream_response(exchange_id, &upstream, now)
                        .expect("known exchange"),
                    false,
                )
            }
        }
    }
}

/// The full DoH-like sequence of Fig. 3, steps 1–5.
#[test]
fn fig3_doh_like_sequence() {
    let (mut tb, name) = Testbed::new(CachePolicy::DohLike);

    // Step 1: C2's query is answered by S (DNS cache of S fills; the
    // NS is consulted).
    let (r1, hit) = tb.query(&fetch(&name, 1, 2), 0);
    assert!(!hit);
    assert_eq!(r1.code, Code::CONTENT);
    assert_eq!(tb.server.upstream.ns_queries(), 1);
    let e1 = r1.option(OptionNumber::ETAG).unwrap().value.clone();
    assert_eq!(r1.max_age(), 10);

    // Step 2: C1's query at t=4 s is answered from P's CoAP cache with
    // a decremented Max-Age.
    let (r2, hit) = tb.query(&fetch(&name, 2, 1), 4_000);
    assert!(hit, "step 2 must be a proxy cache hit");
    assert_eq!(r2.code, Code::CONTENT);
    assert_eq!(r2.max_age(), 6);
    assert_eq!(r2.option(OptionNumber::ETAG).unwrap().value, e1);
    assert_eq!(tb.server.stats().requests, 1, "server untouched in step 2");

    // Step 3: at t=12 s the RRset expired; a background query (a
    // client outside the proxy path) reaches the NS and refreshes the
    // RRset — from here on the upstream TTL decays relative to e1.
    tb.server.handle_request(&fetch(&name, 3, 9), 12_000);
    assert_eq!(tb.server.upstream.ns_queries(), 2, "NS queried again");

    // Step 4: C1 revalidates e1 at t=15 s. The proxy's entry is stale
    // (expired at 10 s), so it revalidates upstream — but the remaining
    // TTL is now 7 s, the payload changed, and the server must answer
    // with a full 2.05 instead of 2.03.
    let mut reval = fetch(&name, 5, 1);
    reval.set_option(CoapOption::new(OptionNumber::ETAG, e1.clone()));
    let (r4, hit) = tb.query(&reval, 15_000);
    assert!(!hit, "stale entry goes upstream");
    assert_eq!(r4.code, Code::CONTENT, "Fig. 3 step 4: revalidation fails");
    assert!(!r4.payload.is_empty(), "full retransfer");
    assert_eq!(tb.server.stats().validations, 0);
    let e2 = r4.option(OptionNumber::ETAG).unwrap().value.clone();
    assert_ne!(e2, e1, "TTL decay changed the DoH-like ETag");

    // Step 5: C2, holding the fresh ETag e2, *can* revalidate — served
    // as a tiny 2.03 straight from the (now fresh) proxy entry.
    let mut reval = fetch(&name, 6, 2);
    reval.set_option(CoapOption::new(OptionNumber::ETAG, e2));
    let (r5, hit) = tb.query(&reval, 15_100);
    assert!(hit, "fresh proxy entry");
    assert_eq!(r5.code, Code::VALID, "Fig. 3 step 5: 2.03 Valid");
    assert!(r5.payload.is_empty(), "2.03 saves constrained bandwidth");
}

/// Under EOL TTLs the step-4 revalidation succeeds even after TTL
/// decay: the upstream confirms with 2.03, and because the client's
/// ETag is still current the proxy forwards the tiny 2.03 as well.
#[test]
fn fig3_eol_ttls_fixes_step_4() {
    let (mut tb, name) = Testbed::new(CachePolicy::EolTtls);
    let (r1, _) = tb.query(&fetch(&name, 1, 1), 0);
    let e1 = r1.option(OptionNumber::ETAG).unwrap().value.clone();
    // Background refresh at t=12 s (outside the proxy path): the
    // upstream TTL decays relative to t=0.
    tb.server.handle_request(&fetch(&name, 2, 9), 12_000);
    // C1 revalidates its original ETag at t=15 s (remaining TTL 7 s).
    let mut reval = fetch(&name, 3, 1);
    reval.set_option(CoapOption::new(OptionNumber::ETAG, e1));
    let (r4, hit) = tb.query(&reval, 15_000);
    assert!(!hit, "stale proxy entry revalidates upstream");
    // Upstream confirmed with 2.03 — no full transfer anywhere, and
    // the client's copy is still valid too.
    assert_eq!(tb.server.stats().validations, 1);
    assert_eq!(r4.code, Code::VALID, "EOL TTLs: revalidation succeeds");
    assert!(r4.payload.is_empty());
    // The propagated Max-Age reflects the decayed TTL.
    assert_eq!(r4.max_age(), 7);
}

/// The EOL payload TTLs are zero on the wire and restored on the client.
#[test]
fn eol_wire_ttls_are_zero() {
    let (mut tb, name) = Testbed::new(CachePolicy::EolTtls);
    let (r, _) = tb.query(&fetch(&name, 1, 1), 0);
    let msg = Message::decode(&r.payload).unwrap();
    assert!(msg.answers.iter().all(|rec| rec.ttl == 0));
    // Client-side restoration.
    let mut restored = msg.clone();
    doc_repro::doc::policy::restore_ttls(CachePolicy::EolTtls, &mut restored, r.max_age());
    assert!(restored.answers.iter().all(|rec| rec.ttl == 10));
}
