//! QUIC-lite packets: a long-header-shaped handshake packet (plaintext
//! CRYPTO flights) and a short-header 1-RTT packet protected with
//! AES-128-CCM (16-byte tag) — the same crypto substrate the DTLS
//! record layer uses ([`doc_crypto::ccm::AesCcm`]), keyed via HKDF.
//!
//! Wire layouts (CIDs fixed at 2 bytes, packet numbers varint-encoded
//! in the clear — header protection is out of scope for a simulated
//! transport; the *byte counts* are what the paper's Fig. 9 model
//! sweeps, and the short-header overhead lands inside its 1-RTT
//! envelope):
//!
//! ```text
//! handshake: 0xC5 || dcid(2) || pn varint || frames…          (plaintext)
//! 1-RTT:     0x45 || dcid(2) || pn varint || AEAD(frames…)    (protected)
//! ```

use crate::{varint, QuicError};
use doc_crypto::ccm::AesCcm;
use doc_crypto::hkdf;

/// First byte of a QUIC-lite long-header (handshake) packet.
pub const FLAGS_HANDSHAKE: u8 = 0xC5;
/// First byte of a QUIC-lite short-header (1-RTT) packet.
pub const FLAGS_ONE_RTT: u8 = 0x45;
/// Connection-ID length (fixed).
pub const CID_LEN: usize = 2;
/// AEAD tag length of the 1-RTT packet protection (QUIC uses 16-byte
/// tags; this is what puts the short-header overhead inside the
/// analytical model's 24–64-byte 1-RTT envelope).
pub const TAG_LEN: usize = 16;

/// Which packet-number space / protection level a packet belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Space {
    /// Plaintext handshake packet (CRYPTO flights).
    Handshake,
    /// Protected application packet.
    OneRtt,
}

/// A parsed packet header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Header {
    /// Packet space.
    pub space: Space,
    /// Destination connection ID.
    pub cid: [u8; CID_LEN],
    /// Packet number.
    pub pn: u64,
    /// Bytes the header occupies on the wire.
    pub len: usize,
}

impl Header {
    /// Append the header for (`space`, `cid`, `pn`) to `out`.
    pub fn encode_into(space: Space, cid: [u8; CID_LEN], pn: u64, out: &mut Vec<u8>) {
        out.push(match space {
            Space::Handshake => FLAGS_HANDSHAKE,
            Space::OneRtt => FLAGS_ONE_RTT,
        });
        out.extend_from_slice(&cid);
        varint::encode_into(pn, out);
    }

    /// Parse the header at the front of `datagram`.
    pub fn decode(datagram: &[u8]) -> Result<Header, QuicError> {
        let flags = *datagram.first().ok_or(QuicError::Truncated)?;
        let space = match flags {
            FLAGS_HANDSHAKE => Space::Handshake,
            FLAGS_ONE_RTT => Space::OneRtt,
            _ => return Err(QuicError::Malformed),
        };
        let cid: [u8; CID_LEN] = datagram
            .get(1..1 + CID_LEN)
            .ok_or(QuicError::Truncated)?
            .try_into()
            .expect("slice length checked");
        let (pn, n) = varint::decode(&datagram[1 + CID_LEN..])?;
        Ok(Header {
            space,
            cid,
            pn,
            len: 1 + CID_LEN + n,
        })
    }
}

/// One direction of 1-RTT packet protection: AES-128-CCM with a
/// 16-byte tag, nonce = IV XOR packet number (RFC 9001 §5.3 shape).
pub struct PacketKeys {
    ccm: AesCcm,
    iv: [u8; 12],
}

impl PacketKeys {
    /// Derive a directional key/IV from the handshake secret material.
    /// `secret` is `psk || client_random || server_random`; `label`
    /// separates the client-write and server-write directions.
    pub fn derive(secret: &[u8], label: &str) -> Self {
        let key_bytes = hkdf::hkdf(b"doq-lite key", secret, label.as_bytes(), 16);
        let iv_bytes = hkdf::hkdf(b"doq-lite iv", secret, label.as_bytes(), 12);
        let key: [u8; 16] = key_bytes.as_slice().try_into().expect("16 bytes");
        let iv: [u8; 12] = iv_bytes.as_slice().try_into().expect("12 bytes");
        PacketKeys {
            // The schedule cache makes rederivation cheap: both
            // directions of a connection (and any re-established pair
            // under the same PSK) share one key expansion per thread.
            ccm: AesCcm::new_cached(&key, TAG_LEN, 3).expect("static parameters are valid"),
            iv,
        }
    }

    fn nonce(&self, pn: u64) -> [u8; 12] {
        let mut nonce = self.iv;
        for (i, b) in pn.to_be_bytes().iter().enumerate() {
            nonce[4 + i] ^= b;
        }
        nonce
    }

    /// Seal `plaintext` for packet `pn`, authenticating the header
    /// bytes, appending `ciphertext || tag` to `out`.
    pub fn seal_into(
        &self,
        pn: u64,
        header: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), QuicError> {
        self.ccm
            .seal_into(&self.nonce(pn), header, plaintext, out)
            .map_err(|_| QuicError::Crypto)
    }

    /// Open a protected packet body for packet `pn` under its header.
    pub fn open(&self, pn: u64, header: &[u8], body: &[u8]) -> Result<Vec<u8>, QuicError> {
        self.ccm
            .open(&self.nonce(pn), header, body)
            .map_err(|_| QuicError::Crypto)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip_both_spaces() {
        for (space, pn) in [(Space::Handshake, 0u64), (Space::OneRtt, 70_000)] {
            let mut wire = Vec::new();
            Header::encode_into(space, [0xD0, 0xC1], pn, &mut wire);
            let h = Header::decode(&wire).unwrap();
            assert_eq!(h.space, space);
            assert_eq!(h.cid, [0xD0, 0xC1]);
            assert_eq!(h.pn, pn);
            assert_eq!(h.len, wire.len());
        }
    }

    #[test]
    fn header_rejects_garbage() {
        assert_eq!(Header::decode(&[]), Err(QuicError::Truncated));
        assert_eq!(Header::decode(&[0xFF, 0, 0, 0]), Err(QuicError::Malformed));
        assert_eq!(
            Header::decode(&[FLAGS_ONE_RTT, 1]),
            Err(QuicError::Truncated)
        );
    }

    #[test]
    fn protection_roundtrips_and_binds_header() {
        let secret = b"psk-0123456789abcdef-randoms";
        let tx = PacketKeys::derive(secret, "client write");
        let rx = PacketKeys::derive(secret, "client write");
        let other = PacketKeys::derive(secret, "server write");
        let header = [FLAGS_ONE_RTT, 0xD0, 0xC1, 0x07];
        let mut sealed = Vec::new();
        tx.seal_into(7, &header, b"stream bytes", &mut sealed)
            .unwrap();
        assert_eq!(sealed.len(), b"stream bytes".len() + TAG_LEN);
        assert_eq!(rx.open(7, &header, &sealed).unwrap(), b"stream bytes");
        // Wrong direction, pn or header must all fail.
        assert!(other.open(7, &header, &sealed).is_err());
        assert!(rx.open(8, &header, &sealed).is_err());
        assert!(rx.open(7, &[0u8; 4], &sealed).is_err());
    }

    /// Rederiving packet keys for the same secret hits the AES
    /// schedule cache instead of re-expanding the key.
    #[test]
    fn derive_reuses_cached_key_schedule() {
        let secret = b"psk-cache-check-0123456789abcdef";
        let _warm = PacketKeys::derive(secret, "client write");
        let hits_before = doc_crypto::aes::schedule_cache_hits();
        let again = PacketKeys::derive(secret, "client write");
        assert!(
            doc_crypto::aes::schedule_cache_hits() > hits_before,
            "rederivation must hit the per-thread schedule cache"
        );
        // And the cached schedule still produces working keys.
        let header = [FLAGS_ONE_RTT, 1, 2, 3];
        let mut sealed = Vec::new();
        again.seal_into(3, &header, b"check", &mut sealed).unwrap();
        assert_eq!(again.open(3, &header, &sealed).unwrap(), b"check");
    }
}
