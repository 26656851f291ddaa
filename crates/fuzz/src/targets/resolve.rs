//! Resolve: the borrowed serve path [`MockUpstream::resolve_into`] vs
//! the owned composition `resolve(&view.to_owned(), now).encode()`.
//!
//! The stream transports (DoQ/DoH/DoT) answer straight from a
//! [`MessageView`] into the reply buffer: a stack-built lowercase zone
//! key, the question section re-encoded through the label-slice
//! compressor, and answers whose owner is a pointer to the first
//! question. This family holds that writer to the owned resolver byte
//! for byte. Each input is a DNS query; two upstreams with the same
//! seed and zone are driven in lock-step through a fixed sequence of
//! virtual times that crosses the zone's 1–2 s TTL windows, so the
//! refresh draws, TTL decay and expiry are compared too. The seeds
//! cover mixed-case labels, 0, 1 and 2+ questions (with a compression
//! pointer between them), the root name, unknown types, classes and
//! opcodes, and NXDOMAIN.
//!
//! Inputs the view rejects are [`Outcome::Rejected`]; the `dns` family
//! already holds the view's accept/reject decision to the owned
//! decoder's.

use doc_core::server::MockUpstream;
use doc_dns::{Message, MessageView, Name, RecordData, RecordType};

use crate::target::{DifferentialTarget, Outcome};

pub struct ResolveTarget;

/// Virtual times (ms) every input is resolved at, in order: inside the
/// first TTL window, across the 1–2 s expiries, and far past them.
const TIMES_MS: [u64; 5] = [0, 900, 2_100, 2_200, 9_000];

/// The zone both upstreams serve.
fn upstream() -> MockUpstream {
    let up = MockUpstream::new(0xD0C, 1, 2);
    let name = |s: &str| Name::parse(s).expect("valid name");
    up.add_aaaa(name("name-01234.c.example.org"), 3);
    up.add_a(name("name-01234.c.example.org"), 1);
    up.add_a(name("b.example.org"), 2);
    up.add_rrset(
        Name::root(),
        RecordType::Ns,
        vec![RecordData::Ns(name("a.root-servers.net"))],
    );
    up.add_rrset(
        name("_coap._udp.local"),
        RecordType::Ptr,
        vec![RecordData::Ptr(name("sensor-1a2b._coap._udp.local"))],
    );
    up.add_rrset(
        name("x.example.org"),
        RecordType::Other(999),
        vec![RecordData::Raw(vec![1, 2, 3])],
    );
    up
}

/// A query wire with header `flags` and uncompressed questions whose
/// labels keep their case.
fn raw_query(id: u16, flags: u16, questions: &[(&str, u16, u16)]) -> Vec<u8> {
    let mut w = Vec::new();
    w.extend_from_slice(&id.to_be_bytes());
    w.extend_from_slice(&flags.to_be_bytes());
    w.extend_from_slice(&(questions.len() as u16).to_be_bytes());
    w.extend_from_slice(&[0; 6]);
    for &(name, qtype, qclass) in questions {
        for label in name.split('.').filter(|l| !l.is_empty()) {
            w.push(label.len() as u8);
            w.extend_from_slice(label.as_bytes());
        }
        w.push(0);
        w.extend_from_slice(&qtype.to_be_bytes());
        w.extend_from_slice(&qclass.to_be_bytes());
    }
    w
}

impl DifferentialTarget for ResolveTarget {
    fn name(&self) -> &'static str {
        "resolve"
    }

    fn seeds(&self) -> Vec<Vec<u8>> {
        const RD: u16 = 0x0100;
        let mut two = raw_query(7, RD, &[("B.Example.org", 1, 1)]);
        // A second question that compresses onto the first.
        two[5] = 2;
        two.extend_from_slice(&[0xC0, 0x0C, 0, 28, 0, 1]);
        vec![
            raw_query(0, RD, &[("Name-01234.C.Example.ORG", 28, 1)]),
            raw_query(1, RD, &[("name-01234.c.example.org", 1, 1)]),
            raw_query(2, 0, &[]),
            raw_query(3, RD, &[("", 2, 1)]),
            raw_query(4, RD, &[("missing.example.org", 28, 1)]),
            raw_query(5, 0x2900, &[("X.EXAMPLE.org", 999, 3)]),
            raw_query(6, RD, &[("_coap._UDP.local", 12, 1)]),
            raw_query(
                8,
                RD,
                &[
                    ("b.example.org", 1, 1),
                    ("NAME-01234.c.example.org", 28, 1),
                    ("b.EXAMPLE.org", 1, 1),
                ],
            ),
            two,
            Message::query(
                9,
                Name::parse("b.example.org").expect("valid"),
                RecordType::A,
            )
            .encode(),
        ]
    }

    fn check(&self, input: &[u8]) -> Result<Outcome, String> {
        let Ok(view) = MessageView::parse(input) else {
            return Ok(Outcome::Rejected);
        };
        let owned = view.to_owned();
        let (ours, theirs) = (upstream(), upstream());
        let mut out = Vec::new();
        for now_ms in TIMES_MS {
            ours.resolve_into(&view, now_ms, &mut out);
            let expected = theirs.resolve(&owned, now_ms).encode();
            if out != expected {
                return Err(format!(
                    "t={now_ms} ms: resolve_into wrote {out:02x?}, \
                     resolve(..).encode() wrote {expected:02x?}"
                ));
            }
        }
        if (ours.ns_queries(), ours.cache_hits()) != (theirs.ns_queries(), theirs.cache_hits()) {
            return Err(format!(
                "TTL state machines diverged: ns_queries/cache_hits {}/{} vs {}/{}",
                ours.ns_queries(),
                ours.cache_hits(),
                theirs.ns_queries(),
                theirs.cache_hits()
            ));
        }
        Ok(Outcome::Accepted)
    }
}
