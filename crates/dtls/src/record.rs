//! DTLS record layer (RFC 6347 §4.1) and AES-128-CCM-8 protection
//! (RFC 6655).
//!
//! Record header (13 bytes):
//! `type(1) || version(2) || epoch(2) || sequence_number(6) || length(2)`.
//!
//! For CCM cipher suites the record payload of a protected record is
//! `explicit_nonce(8) || ciphertext || tag(8)`; the nonce is
//! `client/server_write_IV(4) || explicit_nonce(8)` and the AAD is
//! `epoch(2) || seq(6) || type(1) || version(2) || plaintext_length(2)`.

use crate::DtlsError;
use doc_crypto::ccm::AesCcm;

/// DTLS 1.2 on-the-wire version bytes ({254, 253}).
pub const VERSION_DTLS12: [u8; 2] = [254, 253];

/// Record content types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContentType {
    /// ChangeCipherSpec (20).
    ChangeCipherSpec,
    /// Alert (21).
    Alert,
    /// Handshake (22).
    Handshake,
    /// ApplicationData (23).
    ApplicationData,
}

impl ContentType {
    /// Numeric value.
    pub fn to_u8(self) -> u8 {
        match self {
            ContentType::ChangeCipherSpec => 20,
            ContentType::Alert => 21,
            ContentType::Handshake => 22,
            ContentType::ApplicationData => 23,
        }
    }
    /// From numeric value.
    pub fn from_u8(v: u8) -> Result<Self, DtlsError> {
        Ok(match v {
            20 => ContentType::ChangeCipherSpec,
            21 => ContentType::Alert,
            22 => ContentType::Handshake,
            23 => ContentType::ApplicationData,
            _ => return Err(DtlsError::Malformed),
        })
    }
}

/// The 13-byte record header.
pub const RECORD_HEADER_LEN: usize = 13;
/// Explicit-nonce bytes prefixed to CCM-protected payloads (RFC 6655).
pub const EXPLICIT_NONCE_LEN: usize = 8;
/// CCM-8 tag length.
pub const TAG_LEN: usize = 8;

/// One DTLS record (possibly protected payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Content type.
    pub ctype: ContentType,
    /// Epoch (increments at ChangeCipherSpec).
    pub epoch: u16,
    /// 48-bit sequence number.
    pub seq: u64,
    /// Record payload (plaintext in epoch 0, protected afterwards).
    pub payload: Vec<u8>,
}

impl Record {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(RECORD_HEADER_LEN + self.payload.len());
        self.encode_into(&mut out);
        out
    }

    /// Append the wire form to `out` — allocation-free with a reused
    /// buffer, and appendable, so a multi-record datagram (flight) can
    /// be assembled in one buffer.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let [_, _, s2, s3, s4, s5, s6, s7] = self.seq.to_be_bytes();
        out.push(self.ctype.to_u8());
        out.extend_from_slice(&VERSION_DTLS12);
        out.extend_from_slice(&self.epoch.to_be_bytes());
        out.extend_from_slice(&[s2, s3, s4, s5, s6, s7]); // 48 bits
        out.extend_from_slice(&(self.payload.len() as u16).to_be_bytes());
        out.extend_from_slice(&self.payload);
    }

    /// Decode one record from the front of `data`; returns the record
    /// and the number of bytes consumed (datagrams may carry several
    /// records).
    pub fn decode(data: &[u8]) -> Result<(Self, usize), DtlsError> {
        let (header, _) = data
            .split_first_chunk::<RECORD_HEADER_LEN>()
            .ok_or(DtlsError::Malformed)?;
        let &[ct, v0, v1, e0, e1, s0, s1, s2, s3, s4, s5, l0, l1] = header;
        let ctype = ContentType::from_u8(ct)?;
        // Initial ClientHellos may use {254,255}; accept it too.
        if [v0, v1] != VERSION_DTLS12 && [v0, v1] != [254, 255] {
            return Err(DtlsError::Malformed);
        }
        let epoch = u16::from_be_bytes([e0, e1]);
        let seq = u64::from_be_bytes([0, 0, s0, s1, s2, s3, s4, s5]);
        let len = u16::from_be_bytes([l0, l1]) as usize;
        let payload = data
            .get(RECORD_HEADER_LEN..RECORD_HEADER_LEN + len)
            .ok_or(DtlsError::Malformed)?
            .to_vec();
        Ok((
            Record {
                ctype,
                epoch,
                seq,
                payload,
            },
            RECORD_HEADER_LEN + len,
        ))
    }

    /// Decode every record in a datagram.
    pub fn decode_all(mut data: &[u8]) -> Result<Vec<Record>, DtlsError> {
        let mut out = Vec::new();
        while !data.is_empty() {
            let (rec, used) = Record::decode(data)?;
            out.push(rec);
            data = data.get(used..).ok_or(DtlsError::Malformed)?;
        }
        Ok(out)
    }
}

/// A borrowed DTLS record: header fields decoded, payload left as a
/// slice of the datagram — the unprotect path's zero-copy counterpart
/// of [`Record::decode`], which copies every payload into a `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecordView<'a> {
    /// Content type.
    pub ctype: ContentType,
    /// Epoch (increments at ChangeCipherSpec).
    pub epoch: u16,
    /// 48-bit sequence number.
    pub seq: u64,
    /// Record payload (borrowed; protected in epochs > 0).
    pub payload: &'a [u8],
}

impl<'a> RecordView<'a> {
    /// Decode one record from the front of `data` without copying the
    /// payload; returns the view and the number of bytes consumed.
    /// Accepts and rejects exactly the inputs [`Record::decode`] does.
    pub fn decode(data: &'a [u8]) -> Result<(Self, usize), DtlsError> {
        let (header, _) = data
            .split_first_chunk::<RECORD_HEADER_LEN>()
            .ok_or(DtlsError::Malformed)?;
        let &[ct, v0, v1, e0, e1, s0, s1, s2, s3, s4, s5, l0, l1] = header;
        let ctype = ContentType::from_u8(ct)?;
        if [v0, v1] != VERSION_DTLS12 && [v0, v1] != [254, 255] {
            return Err(DtlsError::Malformed);
        }
        let epoch = u16::from_be_bytes([e0, e1]);
        let seq = u64::from_be_bytes([0, 0, s0, s1, s2, s3, s4, s5]);
        let len = u16::from_be_bytes([l0, l1]) as usize;
        let payload = data
            .get(RECORD_HEADER_LEN..RECORD_HEADER_LEN + len)
            .ok_or(DtlsError::Malformed)?;
        Ok((
            RecordView {
                ctype,
                epoch,
                seq,
                payload,
            },
            RECORD_HEADER_LEN + len,
        ))
    }

    /// Iterate every record in a datagram lazily. A malformed record
    /// surfaces as a final `Err` item; iteration stops after it.
    pub fn iter(datagram: &'a [u8]) -> RecordViewIter<'a> {
        RecordViewIter { rest: datagram }
    }

    /// Materialize an owned [`Record`].
    pub fn to_owned(&self) -> Record {
        Record {
            ctype: self.ctype,
            epoch: self.epoch,
            seq: self.seq,
            payload: self.payload.to_vec(),
        }
    }
}

/// Lazy iterator over the records of a datagram.
#[derive(Debug, Clone)]
pub struct RecordViewIter<'a> {
    rest: &'a [u8],
}

impl<'a> Iterator for RecordViewIter<'a> {
    type Item = Result<RecordView<'a>, DtlsError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.rest.is_empty() {
            return None;
        }
        match RecordView::decode(self.rest) {
            Ok((view, used)) => {
                self.rest = self.rest.get(used..).unwrap_or(&[]);
                Some(Ok(view))
            }
            Err(e) => {
                self.rest = &[];
                Some(Err(e))
            }
        }
    }
}

/// Write-direction cipher state for `TLS_PSK_WITH_AES_128_CCM_8`.
pub struct CipherState {
    ccm: AesCcm,
    /// 4-byte implicit IV (from the key block).
    fixed_iv: [u8; 4],
}

impl CipherState {
    /// Create from the key-block material.
    pub fn new(key: &[u8; 16], fixed_iv: [u8; 4]) -> Self {
        CipherState {
            ccm: AesCcm::dtls_ccm8(key),
            fixed_iv,
        }
    }

    fn nonce(&self, explicit: &[u8; 8]) -> [u8; 12] {
        let [f0, f1, f2, f3] = self.fixed_iv;
        let [e0, e1, e2, e3, e4, e5, e6, e7] = *explicit;
        [f0, f1, f2, f3, e0, e1, e2, e3, e4, e5, e6, e7]
    }

    fn aad(ctype: ContentType, epoch: u16, seq: u64, len: usize) -> [u8; 13] {
        let [e0, e1] = epoch.to_be_bytes();
        let [_, _, s2, s3, s4, s5, s6, s7] = seq.to_be_bytes();
        let [v0, v1] = VERSION_DTLS12;
        let [l0, l1] = (len as u16).to_be_bytes();
        [
            e0,
            e1,
            s2,
            s3,
            s4,
            s5,
            s6,
            s7,
            ctype.to_u8(),
            v0,
            v1,
            l0,
            l1,
        ]
    }

    /// Protect a plaintext into a record payload
    /// (`explicit_nonce || ciphertext || tag`). The explicit nonce is
    /// the epoch+sequence (a common, RFC-sanctioned choice).
    pub fn seal(
        &self,
        ctype: ContentType,
        epoch: u16,
        seq: u64,
        plaintext: &[u8],
    ) -> Result<Vec<u8>, DtlsError> {
        let [e0, e1] = epoch.to_be_bytes();
        let [_, _, s2, s3, s4, s5, s6, s7] = seq.to_be_bytes();
        let explicit = [e0, e1, s2, s3, s4, s5, s6, s7];
        let nonce = self.nonce(&explicit);
        let aad = Self::aad(ctype, epoch, seq, plaintext.len());
        // Seal straight after the explicit nonce: one output buffer,
        // no intermediate ciphertext allocation.
        let mut out = Vec::with_capacity(EXPLICIT_NONCE_LEN + plaintext.len() + TAG_LEN);
        out.extend_from_slice(&explicit);
        self.ccm
            .seal_into(&nonce, &aad, plaintext, &mut out)
            .map_err(|_| DtlsError::Crypto)?;
        Ok(out)
    }

    /// Unprotect a record payload.
    pub fn open(
        &self,
        ctype: ContentType,
        epoch: u16,
        seq: u64,
        payload: &[u8],
    ) -> Result<Vec<u8>, DtlsError> {
        let mut out = Vec::with_capacity(payload.len().saturating_sub(Self::OVERHEAD));
        self.open_into(ctype, epoch, seq, payload, &mut out)?;
        Ok(out)
    }

    /// Unprotect a record payload, appending the plaintext to a
    /// caller-owned buffer — with a reused `out` the whole record
    /// unprotect allocates nothing. Pairs with [`RecordView`] for the
    /// zero-copy receive path: `RecordView::decode` borrows the payload
    /// from the datagram, `open_into` decrypts it into the reused
    /// buffer. On failure `out` is left at its original length.
    pub fn open_into(
        &self,
        ctype: ContentType,
        epoch: u16,
        seq: u64,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), DtlsError> {
        if payload.len() < EXPLICIT_NONCE_LEN + TAG_LEN {
            return Err(DtlsError::Malformed);
        }
        let (explicit, ct) = payload
            .split_first_chunk::<EXPLICIT_NONCE_LEN>()
            .ok_or(DtlsError::Malformed)?;
        let nonce = self.nonce(explicit);
        let plain_len = ct.len() - TAG_LEN;
        let aad = Self::aad(ctype, epoch, seq, plain_len);
        self.ccm
            .open_into(&nonce, &aad, ct, out)
            .map_err(|_| DtlsError::Crypto)
    }

    /// Unprotect a borrowed record in one step (view decode + AEAD
    /// open into the reused buffer).
    pub fn open_record_into(
        &self,
        record: &RecordView<'_>,
        out: &mut Vec<u8>,
    ) -> Result<(), DtlsError> {
        self.open_into(record.ctype, record.epoch, record.seq, record.payload, out)
    }

    /// Unprotect an owned record payload **in place**: on success the
    /// `Vec` that held `explicit_nonce || ciphertext || tag` becomes
    /// the plaintext; on authentication failure it is left byte-exactly
    /// as it was. Built on [`AesCcm::open_suffix_in_place`], so the
    /// ciphertext is never copied into a scratch buffer — this is the
    /// receive-path mirror of [`CipherState::seal`] for callers holding
    /// an owned [`Record`].
    pub fn open_payload_in_place(
        &self,
        ctype: ContentType,
        epoch: u16,
        seq: u64,
        payload: &mut Vec<u8>,
    ) -> Result<(), DtlsError> {
        if payload.len() < EXPLICIT_NONCE_LEN + TAG_LEN {
            return Err(DtlsError::Malformed);
        }
        let (explicit, _) = payload
            .split_first_chunk::<EXPLICIT_NONCE_LEN>()
            .ok_or(DtlsError::Malformed)?;
        let nonce = self.nonce(explicit);
        let plain_len = payload.len() - Self::OVERHEAD;
        let aad = Self::aad(ctype, epoch, seq, plain_len);
        self.ccm
            .open_suffix_in_place(&nonce, &aad, payload, EXPLICIT_NONCE_LEN)
            .map_err(|_| DtlsError::Crypto)?;
        payload.drain(..EXPLICIT_NONCE_LEN);
        Ok(())
    }

    /// Per-record protection overhead in bytes (nonce + tag) — the
    /// quantity that inflates every DTLS frame in the paper's Fig. 6.
    pub const OVERHEAD: usize = EXPLICIT_NONCE_LEN + TAG_LEN;
}

/// Sliding anti-replay window (RFC 6347 §4.1.2.6), 64 entries.
///
/// The paper notes "we increase … the OSCORE replay window size" for
/// long experiment runs; the window size here is configurable for the
/// same reason.
#[derive(Debug, Clone)]
pub struct ReplayWindow {
    window: u128,
    highest: u64,
    bits: u32,
    initialized: bool,
}

impl ReplayWindow {
    /// A window covering `bits` sequence numbers (max 128).
    pub fn new(bits: u32) -> Self {
        ReplayWindow {
            window: 0,
            highest: 0,
            bits: bits.clamp(1, 128),
            initialized: false,
        }
    }

    /// Check whether `seq` is fresh and mark it seen. Returns `false`
    /// for replays or records older than the window.
    pub fn check_and_update(&mut self, seq: u64) -> bool {
        if !self.initialized {
            self.initialized = true;
            self.highest = seq;
            self.window = 1;
            return true;
        }
        if seq > self.highest {
            let shift = seq - self.highest;
            if shift >= self.bits as u64 {
                self.window = 1;
            } else {
                self.window = (self.window << shift) | 1;
            }
            self.highest = seq;
            true
        } else {
            let offset = self.highest - seq;
            if offset >= self.bits as u64 {
                return false; // too old
            }
            let mask = 1u128 << offset;
            if self.window & mask != 0 {
                return false; // replay
            }
            self.window |= mask;
            true
        }
    }

    /// Highest sequence number accepted so far.
    pub fn highest(&self) -> u64 {
        self.highest
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_roundtrip() {
        let r = Record {
            ctype: ContentType::Handshake,
            epoch: 0,
            seq: 5,
            payload: vec![1, 2, 3],
        };
        let wire = r.encode();
        assert_eq!(wire.len(), RECORD_HEADER_LEN + 3);
        let (back, used) = Record::decode(&wire).unwrap();
        assert_eq!(back, r);
        assert_eq!(used, wire.len());
    }

    #[test]
    fn multi_record_datagram() {
        let r1 = Record {
            ctype: ContentType::ChangeCipherSpec,
            epoch: 0,
            seq: 1,
            payload: vec![1],
        };
        let r2 = Record {
            ctype: ContentType::Handshake,
            epoch: 1,
            seq: 0,
            payload: vec![9; 20],
        };
        let mut wire = r1.encode();
        wire.extend_from_slice(&r2.encode());
        let records = Record::decode_all(&wire).unwrap();
        assert_eq!(records, vec![r1, r2]);
    }

    #[test]
    fn seq_is_48_bits() {
        let r = Record {
            ctype: ContentType::ApplicationData,
            epoch: 2,
            seq: 0x0000_FFFF_FFFF_FFFF,
            payload: vec![],
        };
        let (back, _) = Record::decode(&r.encode()).unwrap();
        assert_eq!(back.seq, 0x0000_FFFF_FFFF_FFFF);
        assert_eq!(back.epoch, 2);
    }

    #[test]
    fn reject_bad_content_type() {
        let mut wire = Record {
            ctype: ContentType::Alert,
            epoch: 0,
            seq: 0,
            payload: vec![],
        }
        .encode();
        wire[0] = 99;
        assert_eq!(Record::decode(&wire), Err(DtlsError::Malformed));
    }

    #[test]
    fn reject_truncated() {
        assert!(Record::decode(&[22, 254, 253, 0]).is_err());
        let r = Record {
            ctype: ContentType::Handshake,
            epoch: 0,
            seq: 0,
            payload: vec![1, 2, 3, 4],
        };
        let wire = r.encode();
        assert!(Record::decode(&wire[..wire.len() - 1]).is_err());
    }

    #[test]
    fn cipher_roundtrip() {
        let cs = CipherState::new(&[7u8; 16], [1, 2, 3, 4]);
        let sealed = cs
            .seal(ContentType::ApplicationData, 1, 42, b"dns response")
            .unwrap();
        assert_eq!(sealed.len(), b"dns response".len() + CipherState::OVERHEAD);
        let plain = cs
            .open(ContentType::ApplicationData, 1, 42, &sealed)
            .unwrap();
        assert_eq!(plain, b"dns response");
    }

    #[test]
    fn record_view_agrees_with_owned() {
        let r1 = Record {
            ctype: ContentType::ChangeCipherSpec,
            epoch: 0,
            seq: 1,
            payload: vec![1],
        };
        let r2 = Record {
            ctype: ContentType::ApplicationData,
            epoch: 1,
            seq: 0x0000_FFFF_FFFF_FFFF,
            payload: vec![9; 20],
        };
        let mut wire = r1.encode();
        wire.extend_from_slice(&r2.encode());
        let views: Vec<RecordView> = RecordView::iter(&wire).map(|r| r.unwrap()).collect();
        assert_eq!(views.len(), 2);
        assert_eq!(views[0].to_owned(), r1);
        assert_eq!(views[1].to_owned(), r2);
        // Rejection parity with the owned decoder on truncations.
        for cut in 0..wire.len() {
            assert_eq!(
                RecordView::decode(&wire[..cut]).is_ok(),
                Record::decode(&wire[..cut]).is_ok(),
                "divergence at cut {cut}"
            );
        }
    }

    #[test]
    fn open_into_reuses_buffer_and_rolls_back() {
        let cs = CipherState::new(&[7u8; 16], [1, 2, 3, 4]);
        let sealed_rec = Record {
            ctype: ContentType::ApplicationData,
            epoch: 1,
            seq: 42,
            payload: cs
                .seal(ContentType::ApplicationData, 1, 42, b"dns response")
                .unwrap(),
        };
        let wire = sealed_rec.encode();
        let (view, _) = RecordView::decode(&wire).unwrap();
        let mut buf = Vec::new();
        for _ in 0..3 {
            buf.clear();
            cs.open_record_into(&view, &mut buf).unwrap();
            assert_eq!(buf, b"dns response");
        }
        // Tampered ciphertext leaves the buffer untouched.
        let mut bad = view.payload.to_vec();
        let n = bad.len();
        bad[n - 1] ^= 1;
        buf.clear();
        buf.push(0x77);
        assert_eq!(
            cs.open_into(ContentType::ApplicationData, 1, 42, &bad, &mut buf),
            Err(DtlsError::Crypto)
        );
        assert_eq!(buf, vec![0x77]);
    }

    #[test]
    fn open_payload_in_place_roundtrip_and_restore() {
        let cs = CipherState::new(&[7u8; 16], [1, 2, 3, 4]);
        let mut payload = cs
            .seal(ContentType::ApplicationData, 1, 42, b"dns response")
            .unwrap();
        let sealed = payload.clone();
        cs.open_payload_in_place(ContentType::ApplicationData, 1, 42, &mut payload)
            .unwrap();
        assert_eq!(payload, b"dns response");
        // Tampered: buffer untouched, byte-exactly.
        let mut bad = sealed.clone();
        let n = bad.len();
        bad[n - 1] ^= 1;
        let snapshot = bad.clone();
        assert_eq!(
            cs.open_payload_in_place(ContentType::ApplicationData, 1, 42, &mut bad),
            Err(DtlsError::Crypto)
        );
        assert_eq!(bad, snapshot);
        // Too short for nonce + tag.
        let mut tiny = sealed[..10].to_vec();
        assert_eq!(
            cs.open_payload_in_place(ContentType::ApplicationData, 1, 42, &mut tiny),
            Err(DtlsError::Malformed)
        );
    }

    #[test]
    fn cipher_binds_aad() {
        let cs = CipherState::new(&[7u8; 16], [1, 2, 3, 4]);
        let sealed = cs
            .seal(ContentType::ApplicationData, 1, 42, b"payload")
            .unwrap();
        // Wrong sequence number in AAD fails.
        assert_eq!(
            cs.open(ContentType::ApplicationData, 1, 43, &sealed),
            Err(DtlsError::Crypto)
        );
        // Wrong content type fails.
        assert_eq!(
            cs.open(ContentType::Handshake, 1, 42, &sealed),
            Err(DtlsError::Crypto)
        );
    }

    #[test]
    fn cipher_rejects_short_payload() {
        let cs = CipherState::new(&[7u8; 16], [0; 4]);
        assert_eq!(
            cs.open(ContentType::ApplicationData, 1, 0, &[0u8; 10]),
            Err(DtlsError::Malformed)
        );
    }

    #[test]
    fn replay_window_basics() {
        let mut w = ReplayWindow::new(64);
        assert!(w.check_and_update(5));
        assert!(!w.check_and_update(5)); // replay
        assert!(w.check_and_update(6));
        assert!(w.check_and_update(4)); // in-window, unseen
        assert!(!w.check_and_update(4)); // now a replay
        assert_eq!(w.highest(), 6);
    }

    #[test]
    fn replay_window_too_old() {
        let mut w = ReplayWindow::new(8);
        assert!(w.check_and_update(100));
        assert!(!w.check_and_update(92)); // 8 behind, outside window
        assert!(w.check_and_update(93)); // 7 behind, inside
    }

    #[test]
    fn replay_window_big_jump() {
        let mut w = ReplayWindow::new(64);
        assert!(w.check_and_update(1));
        assert!(w.check_and_update(1000));
        assert!(!w.check_and_update(1000));
        assert!(!w.check_and_update(1)); // far outside the shifted window
        assert!(w.check_and_update(999));
    }

    #[test]
    fn out_of_order_within_window() {
        let mut w = ReplayWindow::new(64);
        for seq in [10u64, 8, 9, 12, 11, 7] {
            assert!(w.check_and_update(seq), "seq {seq} should be fresh");
        }
        for seq in [10u64, 8, 9, 12, 11, 7] {
            assert!(!w.check_and_update(seq), "seq {seq} should be replay");
        }
    }
}
