//! The Fig. 2/3 deployment in miniature: two DoC clients behind a
//! DoC-agnostic caching CoAP forward proxy, demonstrating how the
//! paper's EOL-TTLs scheme keeps ETag revalidation working while the
//! DoH-like baseline breaks on TTL decay.
//!
//! ```sh
//! cargo run --example caching_proxy
//! ```

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
    .expect("request construction")
}

fn via_proxy(
    proxy: &CoapProxy,
    server: &DocServer,
    req: &CoapMessage,
    now: u64,
) -> (CoapMessage, bool) {
    let mut out = Vec::new();
    let action = proxy
        .serve_wire(&req.encode(), now, &mut ProxyScratch::default(), &mut out)
        .expect("well-formed request");
    match action {
        WireAction::Responded => (
            CoapMessage::decode(&out).expect("proxy reply decodes"),
            false,
        ),
        WireAction::Forward {
            request,
            exchange_id,
        } => {
            let upstream = server.handle_request(&request, now);
            (
                proxy
                    .handle_upstream_response(exchange_id, &upstream, now)
                    .expect("known exchange"),
                true,
            )
        }
    }
}

fn scenario(policy: CachePolicy) {
    println!("--- policy: {} ---", policy.name());
    let name = Name::parse("hub.smart-home.example.org").expect("valid name");
    let upstream = MockUpstream::new(11, 10, 10);
    upstream.add_aaaa(name.clone(), 4);
    let server = DocServer::new(policy, upstream);
    let proxy = CoapProxy::new(16);

    // t=0: C1 populates the proxy cache.
    let (r, upstream_used) = via_proxy(&proxy, &server, &fetch(&name, 1, 1), 0);
    println!(
        "t= 0s C1: {} via {} ({} B payload, Max-Age {})",
        r.code,
        if upstream_used {
            "server"
        } else {
            "proxy cache"
        },
        r.payload.len(),
        r.max_age()
    );
    let etag = r
        .option(OptionNumber::ETAG)
        .expect("ETag set")
        .value
        .clone();

    // t=4s: C2 asks the same name — served from the proxy cache.
    let (r, upstream_used) = via_proxy(&proxy, &server, &fetch(&name, 2, 2), 4_000);
    println!(
        "t= 4s C2: {} via {} (Max-Age {})",
        r.code,
        if upstream_used {
            "server"
        } else {
            "proxy cache"
        },
        r.max_age()
    );

    // t=12s: TTL expired; a background client refreshes the RRset so
    // its TTLs decayed relative to C1's copy.
    server.handle_request(&fetch(&name, 3, 9), 12_000);

    // t=14s: C1 revalidates with its old ETag.
    let mut reval = fetch(&name, 4, 1);
    reval.set_option(CoapOption::new(OptionNumber::ETAG, etag));
    let (r, _) = via_proxy(&proxy, &server, &reval, 14_000);
    match r.code {
        Code::VALID => println!(
            "t=14s C1: revalidation OK — 2.03 Valid, 0 payload bytes (saved {} B)",
            120
        ),
        Code::CONTENT => println!(
            "t=14s C1: revalidation FAILED — full 2.05 retransfer of {} B",
            r.payload.len()
        ),
        other => println!("t=14s C1: unexpected {other}"),
    }
    println!(
        "proxy: {} hits, {} revalidations ({} succeeded); server: {} validations, {} full responses\n",
        proxy.stats().cache_hits,
        proxy.stats().revalidations,
        proxy.stats().revalidated,
        server.stats().validations,
        server.stats().full_responses
    );
}

fn main() {
    println!("Two clients + caching CoAP forward proxy (the Fig. 3 scenario)\n");
    scenario(CachePolicy::DohLike);
    scenario(CachePolicy::EolTtls);
}
