//! Regenerates the Fig. 3 message sequence: two DoC clients resolving
//! the same name via a caching proxy under the DoH-like scheme, showing
//! the failed revalidation after a TTL change (steps 3/4) — and the
//! same timeline under EOL TTLs, where the revalidation succeeds.

use doc_coap::msg::{CoapMessage, Code, MsgType};
use doc_coap::opt::OptionNumber;
use doc_core::method::{build_request, DocMethod};
use doc_core::policy::CachePolicy;
use doc_core::proxy::{CoapProxy, ProxyScratch, WireAction};
use doc_core::server::{DocServer, MockUpstream};
use doc_dns::{Message, Name, RecordType};

fn query_bytes(name: &Name) -> Vec<u8> {
    let mut q = Message::query(0, name.clone(), RecordType::Aaaa);
    q.canonicalize_id();
    q.encode()
}

fn fetch(name: &Name, mid: u16, tok: u8) -> CoapMessage {
    build_request(
        DocMethod::Fetch,
        &query_bytes(name),
        MsgType::Con,
        mid,
        vec![tok],
    )
    .unwrap()
}

fn via_proxy(
    proxy: &CoapProxy,
    server: &DocServer,
    req: &CoapMessage,
    now: u64,
    log: &mut Vec<String>,
    who: &str,
) -> CoapMessage {
    let mut out = Vec::new();
    let action = proxy
        .serve_wire(&req.encode(), now, &mut ProxyScratch::default(), &mut out)
        .expect("well-formed request");
    match action {
        WireAction::Responded => {
            let resp = CoapMessage::decode(&out).expect("proxy reply decodes");
            log.push(format!(
                "t={now:>5}ms  {who} <- P   : {} served from CoAP cache (Max-Age={})",
                code_name(resp.code),
                resp.max_age()
            ));
            resp
        }
        WireAction::Forward {
            request,
            exchange_id,
        } => {
            let reval = request.option(OptionNumber::ETAG).is_some();
            log.push(format!(
                "t={now:>5}ms  P -> S    : forward {}{}",
                if reval {
                    "revalidation (ETag)"
                } else {
                    "full fetch"
                },
                ""
            ));
            let upstream = server.handle_request(&request, now);
            log.push(format!(
                "t={now:>5}ms  S -> P    : {} (Max-Age={}, payload={}B)",
                code_name(upstream.code),
                upstream.max_age(),
                upstream.payload.len()
            ));
            let resp = proxy
                .handle_upstream_response(exchange_id, &upstream, now)
                .expect("known exchange");
            log.push(format!(
                "t={now:>5}ms  {who} <- P   : {} (Max-Age={}, payload={}B)",
                code_name(resp.code),
                resp.max_age(),
                resp.payload.len()
            ));
            resp
        }
    }
}

fn code_name(c: Code) -> String {
    match c {
        Code::CONTENT => "2.05 Content".into(),
        Code::VALID => "2.03 Valid".into(),
        other => other.to_string(),
    }
}

fn run(policy: CachePolicy) {
    println!("--- {} ---", policy.name());
    let name = Name::parse("example.org").unwrap();
    let up = MockUpstream::new(3, 10, 10);
    up.add_aaaa(name.clone(), 1);
    let server = DocServer::new(policy, up);
    let proxy = CoapProxy::new(8);
    let mut log = Vec::new();

    // 1: C2's query is answered by S (filling caches).
    log.push("t=    0ms  C2 -> P   : DoC FETCH example.org AAAA".into());
    let r1 = via_proxy(&proxy, &server, &fetch(&name, 1, 2), 0, &mut log, "C2");
    let e1 = r1.option(OptionNumber::ETAG).unwrap().value.clone();

    // 2: C1's query hits the proxy cache.
    log.push("t= 4000ms  C1 -> P   : DoC FETCH example.org AAAA".into());
    via_proxy(&proxy, &server, &fetch(&name, 2, 1), 4_000, &mut log, "C1");

    // 3: TTL expires; a background query refreshes the RRset at the NS
    // (changing TTLs and, under DoH-like, the ETag).
    server.handle_request(&fetch(&name, 3, 9), 12_000);
    log.push("t=12000ms  (NS)      : RRset refreshed, TTLs changed".into());

    // 4: C1 revalidates its stale copy (ETag e1) through the proxy.
    let mut req = fetch(&name, 4, 1);
    req.set_option(doc_coap::opt::CoapOption::new(OptionNumber::ETAG, e1));
    log.push("t=14000ms  C1 -> P   : DoC FETCH w/ ETag e1 (revalidation)".into());
    let r4 = via_proxy(&proxy, &server, &req, 14_000, &mut log, "C1");

    for l in &log {
        println!("  {l}");
    }
    println!(
        "  => revalidation {}",
        if r4.code == Code::VALID {
            "SUCCEEDED (2.03, no payload transfer)"
        } else {
            "FAILED (full 2.05 transfer, the Fig. 3 step-4 problem)"
        }
    );
    println!(
        "  server stats: {} validations, {} full responses",
        server.stats().validations,
        server.stats().full_responses
    );
    println!();
}

fn main() {
    println!("Fig. 3. Name resolution with caching proxy: DoH-like vs EOL TTLs\n");
    run(CachePolicy::DohLike);
    run(CachePolicy::EolTtls);
}
