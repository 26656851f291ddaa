//! DNS message framings carried on QUIC-lite streams:
//!
//! * **DoQ** (RFC 9250): one query per bidirectional stream, the DNS
//!   message prefixed by a 2-byte big-endian length, stream FIN after
//!   exactly one message. [`decode_doq`] enforces the "exactly one" —
//!   trailing bytes after the framed message are a protocol error.
//! * **DoH-lite** (HTTP/3-flavoured): one request per stream, a
//!   varint-framed HEADERS frame carrying a fixed header block followed
//!   by a varint-framed DATA frame with the DNS message — the
//!   structural overhead a DoH exchange adds over DoQ.
//! * **DoT-lite** (RFC 7858): the whole session multiplexed on one
//!   stream; each message 2-byte length-prefixed, pipelined back to
//!   back. [`DotReassembler`] splits the byte stream back into
//!   messages.

use crate::{varint, QuicError};

/// DoH-lite HEADERS frame type (HTTP/3 §7.2.2).
const H3_HEADERS: u64 = 0x01;
/// DoH-lite DATA frame type (HTTP/3 §7.2.1).
const H3_DATA: u64 = 0x00;
/// The static header block of a DoH-lite request — the serialized
/// pseudo-headers a DoH POST carries (uncompressed; QPACK is out of
/// scope, the *byte count* is what matters for the transport
/// comparison).
pub const DOH_REQUEST_HEADERS: &[u8] =
    b":method POST :path /dns-query content-type application/dns-message";
/// The static header block of a DoH-lite response.
pub const DOH_RESPONSE_HEADERS: &[u8] = b":status 200 content-type application/dns-message";

/// Frame a DNS message for a DoQ stream (2-byte BE length prefix).
///
/// # Panics
/// Panics if the message exceeds the 65535-byte field (DNS messages
/// cannot); [`encode_doq_into`] reports that case instead.
pub fn encode_doq(dns: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + dns.len());
    // lint:allow(no-panic-in-parsers): encode-side precondition documented above; wire input never reaches this
    encode_doq_into(dns, &mut out).expect("DNS message fits 16-bit length");
    out
}

/// Append the DoQ framing of `dns` (2-byte BE length prefix, then the
/// message) to `out`. A message longer than the 65535-byte length
/// field is [`QuicError::Malformed`] and leaves `out` untouched.
pub fn encode_doq_into(dns: &[u8], out: &mut Vec<u8>) -> Result<(), QuicError> {
    let len = u16::try_from(dns.len()).map_err(|_| QuicError::Malformed)?;
    out.extend_from_slice(&len.to_be_bytes());
    out.extend_from_slice(dns);
    Ok(())
}

/// Decode the single DoQ message of a finished stream. Rejects
/// truncation *and* trailing garbage: RFC 9250 allows exactly one
/// message per stream.
pub fn decode_doq(stream: &[u8]) -> Result<&[u8], QuicError> {
    let (len_bytes, rest) = stream
        .split_first_chunk::<2>()
        .ok_or(QuicError::Truncated)?;
    let len = u16::from_be_bytes(*len_bytes) as usize;
    let body = rest.get(..len).ok_or(QuicError::Truncated)?;
    if rest.len() != len {
        return Err(QuicError::TrailingData);
    }
    Ok(body)
}

fn encode_h3(headers: &[u8], dns: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(headers.len() + dns.len() + 6);
    encode_h3_into(headers, dns, &mut out);
    out
}

fn encode_h3_into(headers: &[u8], dns: &[u8], out: &mut Vec<u8>) {
    varint::encode_into(H3_HEADERS, out);
    varint::encode_into(headers.len() as u64, out);
    out.extend_from_slice(headers);
    varint::encode_into(H3_DATA, out);
    varint::encode_into(dns.len() as u64, out);
    out.extend_from_slice(dns);
}

/// Frame a DNS query as a DoH-lite request stream.
pub fn encode_doh_request(dns: &[u8]) -> Vec<u8> {
    encode_h3(DOH_REQUEST_HEADERS, dns)
}

/// Frame a DNS response as a DoH-lite response stream.
pub fn encode_doh_response(dns: &[u8]) -> Vec<u8> {
    encode_h3(DOH_RESPONSE_HEADERS, dns)
}

/// Append the DoH-lite response framing of `dns` to `out` — the
/// allocation-free form of [`encode_doh_response`].
pub fn encode_doh_response_into(dns: &[u8], out: &mut Vec<u8>) {
    encode_h3_into(DOH_RESPONSE_HEADERS, dns, out);
}

/// Decode a DoH-lite stream: HEADERS frame then DATA frame, nothing
/// else. Returns the DNS message bytes.
pub fn decode_doh(stream: &[u8]) -> Result<&[u8], QuicError> {
    let rest = |at: usize| stream.get(at..).ok_or(QuicError::Truncated);
    let (t, mut at) = varint::decode(stream)?;
    if t != H3_HEADERS {
        return Err(QuicError::Malformed);
    }
    let (hlen, n) = varint::decode(rest(at)?)?;
    at += n;
    let hend = at.checked_add(hlen as usize).ok_or(QuicError::Malformed)?;
    stream.get(at..hend).ok_or(QuicError::Truncated)?;
    at = hend;
    let (t, n) = varint::decode(rest(at)?)?;
    if t != H3_DATA {
        return Err(QuicError::Malformed);
    }
    at += n;
    let (dlen, n) = varint::decode(rest(at)?)?;
    at += n;
    let dend = at.checked_add(dlen as usize).ok_or(QuicError::Malformed)?;
    let dns = stream.get(at..dend).ok_or(QuicError::Truncated)?;
    if stream.len() != dend {
        return Err(QuicError::TrailingData);
    }
    Ok(dns)
}

/// Frame a DNS message for the pipelined DoT-lite stream (same 2-byte
/// prefix as DoQ, but messages are concatenated on one stream).
pub fn encode_dot(dns: &[u8]) -> Vec<u8> {
    encode_doq(dns)
}

/// Incremental splitter for the DoT-lite byte stream: push whatever
/// contiguous bytes arrived, pop every complete length-prefixed
/// message.
#[derive(Debug, Default)]
pub struct DotReassembler {
    buf: Vec<u8>,
}

impl DotReassembler {
    /// An empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bytes buffered awaiting a complete message.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// Append stream bytes and return every message they complete.
    pub fn push(&mut self, bytes: &[u8]) -> Vec<Vec<u8>> {
        self.buf.extend_from_slice(bytes);
        let mut out = Vec::new();
        loop {
            let Some((len_bytes, rest)) = self.buf.split_first_chunk::<2>() else {
                return out;
            };
            let len = u16::from_be_bytes(*len_bytes) as usize;
            let Some(msg) = rest.get(..len) else {
                return out;
            };
            out.push(msg.to_vec());
            self.buf.drain(..2 + len);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn doq_roundtrip_rejects_trailing_and_truncation() {
        let dns = vec![0xAB; 44];
        let framed = encode_doq(&dns);
        assert_eq!(decode_doq(&framed).unwrap(), dns.as_slice());
        let mut trailing = framed.clone();
        trailing.push(0);
        assert_eq!(decode_doq(&trailing), Err(QuicError::TrailingData));
        for cut in 0..framed.len() {
            assert!(decode_doq(&framed[..cut]).is_err(), "cut {cut}");
        }
        // Empty message is legal framing (2 zero bytes).
        assert_eq!(decode_doq(&encode_doq(&[])).unwrap(), &[] as &[u8]);
    }

    #[test]
    fn into_framers_append_and_doq_rejects_oversized() {
        let dns = vec![0x5A; 300];
        let mut out = vec![0xEE];
        encode_doq_into(&dns, &mut out).unwrap();
        assert_eq!(out[1..], encode_doq(&dns)[..]);
        let mut out = vec![0xEE];
        encode_doh_response_into(&dns, &mut out);
        assert_eq!(out[1..], encode_doh_response(&dns)[..]);
        // 65535 bytes is the largest frameable message; one more is
        // rejected without touching the buffer.
        let mut out = Vec::new();
        encode_doq_into(&vec![0; 65_535], &mut out).unwrap();
        assert_eq!(out.len(), 65_537);
        out.clear();
        assert_eq!(
            encode_doq_into(&vec![0; 65_536], &mut out),
            Err(QuicError::Malformed)
        );
        assert!(out.is_empty());
    }

    #[test]
    fn doh_roundtrip_both_directions() {
        let dns = vec![0x42; 70];
        for framed in [encode_doh_request(&dns), encode_doh_response(&dns)] {
            assert_eq!(decode_doh(&framed).unwrap(), dns.as_slice());
            let mut trailing = framed.clone();
            trailing.push(0);
            assert_eq!(decode_doh(&trailing), Err(QuicError::TrailingData));
            for cut in 0..framed.len() {
                assert!(decode_doh(&framed[..cut]).is_err(), "cut {cut}");
            }
        }
        // A DATA-first stream is not a DoH exchange.
        assert!(decode_doh(&encode_h3(b"", b"x")[3..]).is_err());
    }

    #[test]
    fn dot_reassembler_splits_pipelined_messages() {
        let msgs: Vec<Vec<u8>> = (1..4u8).map(|i| vec![i; i as usize * 10]).collect();
        let mut wire = Vec::new();
        for m in &msgs {
            wire.extend_from_slice(&encode_dot(m));
        }
        let mut r = DotReassembler::new();
        let mut got = Vec::new();
        // Feed in awkward 7-byte chunks.
        for chunk in wire.chunks(7) {
            got.extend(r.push(chunk));
        }
        assert_eq!(got, msgs);
        assert_eq!(r.pending(), 0);
    }
}
