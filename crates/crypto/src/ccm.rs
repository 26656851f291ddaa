//! AES-CCM authenticated encryption (RFC 3610 / NIST SP 800-38C).
//!
//! CCM is parameterized by the tag length `M` and the length-field size
//! `L` (nonce length is `15 - L`). The paper's two configurations:
//!
//! * **`AES-128-CCM-8`** (RFC 6655, used by DTLS): `M = 8`, `L = 3`,
//!   12-byte nonce.
//! * **`AES-CCM-16-64-128`** (RFC 8152 COSE, used by OSCORE): `M = 8`
//!   (64-bit tag), `L = 2`, 13-byte nonce.
//!
//! Both directions (seal/open) are implemented; CCM only needs the AES
//! forward transform.
//!
//! Every path is built from two shared pieces so the fast and slow
//! lanes cannot diverge: [`MacStream`] derives the exact CBC-MAC block
//! sequence (`B_0`, length-prefixed AAD, message) for both the
//! sequential MAC and the batch-interleaved MAC, and `ctr_stream`
//! produces the whole CTR keystream (`S_0` for the tag plus the data
//! blocks) through one multi-block [`Aes128::encrypt_blocks`] call, so
//! even a single-packet seal keeps 8 counter blocks in flight on
//! AES-NI. [`AesCcm::seal_suffix_batch`] goes further and interleaves
//! the CBC-MAC chains of *many* packets through the same wide encrypt
//! (the `crypto` bench measures it; the `crypto` fuzz family
//! cross-checks it against sequential sealing).

use crate::aes::Aes128;
use crate::backend::Backend;
use crate::{ct_eq, CryptoError};

/// A CCM mode instance: AES-128 key plus (tag length, length-field size).
pub struct AesCcm {
    aes: Aes128,
    /// Tag length in bytes (4..=16, even).
    tag_len: usize,
    /// Length-field size `L` in bytes (2..=8); nonce length is `15 - L`.
    l: usize,
}

/// One packet of a batched seal: the suffix `buf[start..]` holds the
/// plaintext and becomes `ciphertext || tag` in place, byte-exactly
/// what [`AesCcm::seal_suffix_in_place`] would have produced.
pub struct SealRequest<'a> {
    /// AEAD nonce; must be [`AesCcm::nonce_len`] bytes.
    pub nonce: &'a [u8],
    /// Additional authenticated data.
    pub aad: &'a [u8],
    /// Buffer whose suffix is sealed; the tag is appended to it.
    pub buf: &'a mut Vec<u8>,
    /// Offset where the plaintext suffix begins.
    pub start: usize,
}

/// Validate the CCM mode parameters (tag length 4..=16 and even,
/// `L` in 2..=8) shared by every constructor.
fn check_mode_params(tag_len: usize, l: usize) -> Result<(), CryptoError> {
    if !(4..=16).contains(&tag_len) || !tag_len.is_multiple_of(2) || !(2..=8).contains(&l) {
        return Err(CryptoError::InvalidParameter);
    }
    Ok(())
}

impl AesCcm {
    /// Create a CCM instance with explicit parameters on the
    /// process-wide active backend.
    pub fn new(key: &[u8; 16], tag_len: usize, l: usize) -> Result<Self, CryptoError> {
        Self::with_backend(key, tag_len, l, Backend::active())
    }

    /// Create a CCM instance pinned to a specific AES backend — for
    /// known-answer tests and benchmarks covering every implementation.
    pub fn with_backend(
        key: &[u8; 16],
        tag_len: usize,
        l: usize,
        backend: Backend,
    ) -> Result<Self, CryptoError> {
        check_mode_params(tag_len, l)?;
        Ok(AesCcm {
            aes: Aes128::with_backend(key, backend),
            tag_len,
            l,
        })
    }

    /// Like [`AesCcm::new`], but fetches the expanded AES key schedule
    /// from the per-thread cache ([`Aes128::cached`]): re-deriving the
    /// same traffic key (e.g. `PacketKeys::derive` rebuilding both
    /// directions of a QUIC connection) skips the key expansion.
    pub fn new_cached(key: &[u8; 16], tag_len: usize, l: usize) -> Result<Self, CryptoError> {
        check_mode_params(tag_len, l)?;
        Ok(AesCcm {
            aes: Aes128::cached(key),
            tag_len,
            l,
        })
    }

    /// `AES-128-CCM-8` as used by the DTLS cipher suite
    /// `TLS_PSK_WITH_AES_128_CCM_8` (RFC 6655): 8-byte tag, 12-byte nonce.
    pub fn dtls_ccm8(key: &[u8; 16]) -> Self {
        Self::new(key, 8, 3).expect("static parameters are valid")
    }

    /// `AES-CCM-16-64-128` as used by COSE/OSCORE (RFC 8152 §10.2):
    /// 8-byte (64-bit) tag, 13-byte nonce.
    pub fn cose_ccm_16_64_128(key: &[u8; 16]) -> Self {
        Self::new(key, 8, 2).expect("static parameters are valid")
    }

    /// Nonce length implied by the `L` parameter.
    pub fn nonce_len(&self) -> usize {
        15 - self.l
    }

    /// Tag length in bytes.
    pub fn tag_len(&self) -> usize {
        self.tag_len
    }

    /// The AES backend this instance dispatches to.
    pub fn backend(&self) -> Backend {
        self.aes.backend()
    }

    /// Encrypt `plaintext` with additional authenticated data `aad`,
    /// returning `ciphertext || tag`.
    pub fn seal(&self, nonce: &[u8], aad: &[u8], plaintext: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut out = Vec::with_capacity(plaintext.len() + self.tag_len);
        self.seal_into(nonce, aad, plaintext, &mut out)?;
        Ok(out)
    }

    /// Encrypt `plaintext`, appending `ciphertext || tag` to `out` —
    /// lets callers seal into a buffer that already carries framing
    /// (e.g. a DTLS explicit nonce) without an intermediate ciphertext
    /// allocation.
    pub fn seal_into(
        &self,
        nonce: &[u8],
        aad: &[u8],
        plaintext: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        let start = out.len();
        out.extend_from_slice(plaintext);
        self.seal_suffix_in_place(nonce, aad, out, start)
            .inspect_err(|_| out.truncate(start))
    }

    /// Encrypt `buf` in place and append the tag: the buffer holding
    /// the plaintext *becomes* the `ciphertext || tag` — the zero-copy
    /// path OSCORE uses so a serialized inner message is protected
    /// without ever being copied.
    pub fn seal_in_place(
        &self,
        nonce: &[u8],
        aad: &[u8],
        buf: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        self.seal_suffix_in_place(nonce, aad, buf, 0)
    }

    /// [`AesCcm::seal_in_place`] over only the tail `buf[start..]`: the
    /// suffix holding the plaintext becomes `ciphertext || tag` while
    /// everything before `start` (outer headers, options, markers) is
    /// left untouched. This is what lets OSCORE serialize a whole outer
    /// message into one buffer and protect the inner part at the end.
    pub fn seal_suffix_in_place(
        &self,
        nonce: &[u8],
        aad: &[u8],
        buf: &mut Vec<u8>,
        start: usize,
    ) -> Result<(), CryptoError> {
        debug_assert!(start <= buf.len());
        self.check_seal_params(nonce, buf.len() - start)?;
        let mut tag = self.cbc_mac(nonce, aad, &buf[start..]);
        self.ctr_stream(nonce, &mut tag, &mut buf[start..]);
        buf.extend_from_slice(&tag[..self.tag_len]);
        Ok(())
    }

    /// Seal many packets in one batched pass: the CBC-MAC chains of all
    /// packets advance in lockstep through one wide
    /// [`Aes128::encrypt_blocks`] per block round, then every packet's
    /// CTR keystream (including `S_0`) is generated in a single batch.
    /// Validation is all-or-nothing: if any packet has a bad nonce or
    /// an oversized payload, no buffer is modified.
    pub fn seal_suffix_batch(&self, reqs: &mut [SealRequest<'_>]) -> Result<(), CryptoError> {
        for r in reqs.iter() {
            let Some(len) = r.buf.len().checked_sub(r.start) else {
                return Err(CryptoError::InvalidParameter);
            };
            self.check_seal_params(r.nonce, len)?;
        }
        let tags = self.cbc_mac_batch(reqs);

        // Every packet's counter blocks (A_0 .. A_n), flattened into
        // one keystream batch.
        let mut spans = Vec::with_capacity(reqs.len());
        let mut ks: Vec<[u8; 16]> = Vec::new();
        for r in reqs.iter() {
            spans.push(ks.len());
            let nblocks = (r.buf.len() - r.start).div_ceil(16) as u64;
            for ctr in 0..=nblocks {
                ks.push(self.counter_block(r.nonce, ctr));
            }
        }
        self.aes.encrypt_blocks(&mut ks);

        for (r, (&off, tag)) in reqs.iter_mut().zip(spans.iter().zip(tags.iter())) {
            let payload = &mut r.buf[r.start..];
            for (chunk, key) in payload.chunks_mut(16).zip(ks[off + 1..].iter()) {
                for (b, k) in chunk.iter_mut().zip(key.iter()) {
                    *b ^= k;
                }
            }
            let s0 = &ks[off];
            for (t, k) in tag.iter().zip(s0.iter()).take(self.tag_len) {
                r.buf.push(t ^ k);
            }
        }
        Ok(())
    }

    fn check_seal_params(&self, nonce: &[u8], plaintext_len: usize) -> Result<(), CryptoError> {
        if nonce.len() != self.nonce_len() {
            return Err(CryptoError::InvalidParameter);
        }
        if self.l < 8 && (plaintext_len as u64) >= (1u64 << (8 * self.l)) {
            return Err(CryptoError::InvalidParameter);
        }
        Ok(())
    }

    /// Decrypt and verify `ciphertext || tag`; returns the plaintext.
    pub fn open(
        &self,
        nonce: &[u8],
        aad: &[u8],
        ciphertext_and_tag: &[u8],
    ) -> Result<Vec<u8>, CryptoError> {
        let mut plain = Vec::with_capacity(ciphertext_and_tag.len().saturating_sub(self.tag_len));
        self.open_into(nonce, aad, ciphertext_and_tag, &mut plain)?;
        Ok(plain)
    }

    /// Decrypt and verify `ciphertext || tag`, appending the plaintext
    /// to `out` — the allocation-free unprotect counterpart of
    /// [`AesCcm::seal_into`] for callers with a reusable buffer. On
    /// authentication failure `out` is restored to its original length.
    pub fn open_into(
        &self,
        nonce: &[u8],
        aad: &[u8],
        ciphertext_and_tag: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        if nonce.len() != self.nonce_len() {
            return Err(CryptoError::InvalidParameter);
        }
        if ciphertext_and_tag.len() < self.tag_len {
            return Err(CryptoError::AuthFailed);
        }
        let split = ciphertext_and_tag.len() - self.tag_len;
        let (ct, recv_tag_enc) = ciphertext_and_tag.split_at(split);
        let start = out.len();
        out.extend_from_slice(ct);
        let mut s0 = [0u8; 16];
        self.ctr_stream(nonce, &mut s0, &mut out[start..]);
        let expect_tag = self.cbc_mac(nonce, aad, &out[start..]);
        let mut recv_tag = [0u8; 16];
        for i in 0..self.tag_len {
            recv_tag[i] = recv_tag_enc[i] ^ s0[i];
        }
        if !ct_eq(&recv_tag[..self.tag_len], &expect_tag[..self.tag_len]) {
            out.truncate(start);
            return Err(CryptoError::AuthFailed);
        }
        Ok(())
    }

    /// Decrypt and verify `buf` (holding `ciphertext || tag`) in place:
    /// on success the buffer *becomes* the plaintext (tag truncated
    /// off); on failure it is restored byte-exactly. The zero-copy
    /// mirror of [`AesCcm::seal_in_place`] for the receive paths.
    pub fn open_in_place(
        &self,
        nonce: &[u8],
        aad: &[u8],
        buf: &mut Vec<u8>,
    ) -> Result<(), CryptoError> {
        self.open_suffix_in_place(nonce, aad, buf, 0)
    }

    /// [`AesCcm::open_in_place`] over only the tail `buf[start..]`: the
    /// suffix holding `ciphertext || tag` becomes the plaintext while
    /// everything before `start` is left untouched — the mirror of
    /// [`AesCcm::seal_suffix_in_place`]. On authentication failure the
    /// whole buffer is restored byte-exactly (CTR is an XOR involution,
    /// so re-applying the keystream undoes the trial decryption).
    pub fn open_suffix_in_place(
        &self,
        nonce: &[u8],
        aad: &[u8],
        buf: &mut Vec<u8>,
        start: usize,
    ) -> Result<(), CryptoError> {
        if nonce.len() != self.nonce_len() {
            return Err(CryptoError::InvalidParameter);
        }
        let Some(suffix_len) = buf.len().checked_sub(start) else {
            return Err(CryptoError::InvalidParameter);
        };
        let Some(pt_len) = suffix_len.checked_sub(self.tag_len) else {
            return Err(CryptoError::AuthFailed);
        };
        let split = start + pt_len;
        let mut s0 = [0u8; 16];
        self.ctr_stream(nonce, &mut s0, &mut buf[start..split]);
        let expect_tag = self.cbc_mac(nonce, aad, &buf[start..split]);
        let mut recv_tag = [0u8; 16];
        for i in 0..self.tag_len {
            recv_tag[i] = buf[split + i] ^ s0[i];
        }
        if !ct_eq(&recv_tag[..self.tag_len], &expect_tag[..self.tag_len]) {
            // Re-XOR the keystream: restores the original ciphertext
            // bytes exactly, leaving no plaintext of a forged packet.
            let mut discard = [0u8; 16];
            self.ctr_stream(nonce, &mut discard, &mut buf[start..split]);
            return Err(CryptoError::AuthFailed);
        }
        buf.truncate(split);
        Ok(())
    }

    /// Compute the raw (unencrypted) CBC-MAC tag over the block
    /// sequence [`MacStream`] yields.
    fn cbc_mac(&self, nonce: &[u8], aad: &[u8], msg: &[u8]) -> [u8; 16] {
        let mut stream = MacStream::new(self, nonce, aad, msg);
        let mut x = [0u8; 16];
        while stream.xor_next(&mut x) {
            self.aes.encrypt_block(&mut x);
        }
        x
    }

    /// CBC-MAC many packets at once: each packet's chain is the same
    /// sequential recurrence, but the block encryptions of all packets
    /// still alive at round `k` run through one wide
    /// [`Aes128::encrypt_blocks`] call. Packets whose streams are
    /// exhausted drop out; the survivors keep batching.
    fn cbc_mac_batch(&self, reqs: &[SealRequest<'_>]) -> Vec<[u8; 16]> {
        let mut streams: Vec<MacStream<'_>> = reqs
            .iter()
            .map(|r| MacStream::new(self, r.nonce, r.aad, &r.buf[r.start..]))
            .collect();
        let n = streams.len();
        let mut states = vec![[0u8; 16]; n];
        let mut scratch = vec![[0u8; 16]; n];
        let mut live: Vec<usize> = (0..n).collect();
        loop {
            live.retain(|&i| streams[i].xor_next(&mut states[i]));
            if live.is_empty() {
                return states;
            }
            for (slot, &i) in scratch.iter_mut().zip(live.iter()) {
                *slot = states[i];
            }
            self.aes.encrypt_blocks(&mut scratch[..live.len()]);
            for (slot, &i) in scratch.iter().zip(live.iter()) {
                states[i] = *slot;
            }
        }
    }

    /// Build counter block A_i.
    fn counter_block(&self, nonce: &[u8], counter: u64) -> [u8; 16] {
        let mut a = [0u8; 16];
        a[0] = (self.l - 1) as u8;
        a[1..1 + nonce.len()].copy_from_slice(nonce);
        let ctr = counter.to_be_bytes();
        a[16 - self.l..].copy_from_slice(&ctr[8 - self.l..]);
        a
    }

    /// Generate the whole CTR keystream in multi-block batches: `S_0`
    /// (counter 0) is XORed into `tag`, counters `1..` into `data`.
    /// Allocation-free; on AES-NI this keeps 8 counter blocks in
    /// flight even for a single packet.
    fn ctr_stream(&self, nonce: &[u8], tag: &mut [u8; 16], data: &mut [u8]) {
        const BATCH: usize = 8;
        let nblocks = data.len().div_ceil(16) as u64;
        let mut ks = [[0u8; 16]; BATCH];
        let mut next = 0u64;
        while next <= nblocks {
            let m = usize::min(BATCH, (nblocks - next + 1) as usize);
            for (i, block) in ks[..m].iter_mut().enumerate() {
                *block = self.counter_block(nonce, next + i as u64);
            }
            self.aes.encrypt_blocks(&mut ks[..m]);
            for (i, key) in ks[..m].iter().enumerate() {
                match next + i as u64 {
                    0 => {
                        for (t, k) in tag.iter_mut().zip(key.iter()) {
                            *t ^= k;
                        }
                    }
                    ctr => {
                        let off = (ctr - 1) as usize * 16;
                        let end = usize::min(off + 16, data.len());
                        for (b, k) in data[off..end].iter_mut().zip(key.iter()) {
                            *b ^= k;
                        }
                    }
                }
            }
            next += m as u64;
        }
    }
}

/// The CBC-MAC block sequence of one packet: `B_0`, then the
/// length-prefixed zero-padded AAD blocks, then the zero-padded message
/// blocks (RFC 3610 §2.2). Both the sequential and the batched MAC pull
/// blocks from this one derivation, so they cannot diverge.
struct MacStream<'a> {
    b0: [u8; 16],
    /// AAD length prefix (2, 6 or 10 bytes, RFC 3610 §2.2).
    prefix: [u8; 10],
    prefix_len: usize,
    aad: &'a [u8],
    msg: &'a [u8],
    /// Number of 16-byte blocks the AAD region occupies.
    aad_blocks: usize,
    /// Next block index to yield; `total` blocks overall.
    next: usize,
    total: usize,
}

impl<'a> MacStream<'a> {
    fn new(ccm: &AesCcm, nonce: &[u8], aad: &'a [u8], msg: &'a [u8]) -> Self {
        // B_0: flags || nonce || message length.
        let mut b0 = [0u8; 16];
        let adata_flag = if aad.is_empty() { 0 } else { 0x40 };
        let m_enc = ((ccm.tag_len - 2) / 2) as u8;
        let l_enc = (ccm.l - 1) as u8;
        b0[0] = adata_flag | (m_enc << 3) | l_enc;
        b0[1..1 + nonce.len()].copy_from_slice(nonce);
        let len_bytes = (msg.len() as u64).to_be_bytes();
        b0[16 - ccm.l..].copy_from_slice(&len_bytes[8 - ccm.l..]);

        let mut prefix = [0u8; 10];
        let alen = aad.len() as u64;
        let prefix_len = if aad.is_empty() {
            0
        } else if alen < 0xFF00 {
            prefix[..2].copy_from_slice(&(alen as u16).to_be_bytes());
            2
        } else if alen <= 0xFFFF_FFFF {
            prefix[..2].copy_from_slice(&[0xff, 0xfe]);
            prefix[2..6].copy_from_slice(&(alen as u32).to_be_bytes());
            6
        } else {
            prefix[..2].copy_from_slice(&[0xff, 0xff]);
            prefix[2..10].copy_from_slice(&alen.to_be_bytes());
            10
        };
        let aad_blocks = (prefix_len + aad.len()).div_ceil(16);
        let msg_blocks = msg.len().div_ceil(16);
        MacStream {
            b0,
            prefix,
            prefix_len,
            aad,
            msg,
            aad_blocks,
            next: 0,
            total: 1 + aad_blocks + msg_blocks,
        }
    }

    /// Byte `i` of the AAD region (prefix || aad || zero padding).
    #[inline]
    fn aad_byte(&self, i: usize) -> u8 {
        if i < self.prefix_len {
            self.prefix[i]
        } else {
            self.aad.get(i - self.prefix_len).copied().unwrap_or(0)
        }
    }

    /// XOR the next block of the sequence into `x`; `false` once the
    /// stream is exhausted.
    fn xor_next(&mut self, x: &mut [u8; 16]) -> bool {
        if self.next == self.total {
            return false;
        }
        let idx = self.next;
        self.next += 1;
        if idx == 0 {
            for (xb, b) in x.iter_mut().zip(self.b0.iter()) {
                *xb ^= b;
            }
        } else if idx <= self.aad_blocks {
            let base = (idx - 1) * 16;
            for (j, xb) in x.iter_mut().enumerate() {
                *xb ^= self.aad_byte(base + j);
            }
        } else {
            let base = (idx - 1 - self.aad_blocks) * 16;
            let chunk = &self.msg[base..usize::min(base + 16, self.msg.len())];
            for (xb, b) in x.iter_mut().zip(chunk.iter()) {
                *xb ^= b;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// RFC 3610 packet vector #1: M=8, L=2, 13-byte nonce — exactly the
    /// COSE AES-CCM-16-64-128 configuration. Run on every backend.
    #[test]
    fn rfc3610_vector_1() {
        let key: [u8; 16] = unhex("C0C1C2C3C4C5C6C7C8C9CACBCCCDCECF")
            .try_into()
            .unwrap();
        let nonce = unhex("00000003020100A0A1A2A3A4A5");
        // Total packet 00..1E; first 8 bytes are AAD, rest plaintext.
        let packet = unhex("000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E");
        let (aad, plain) = packet.split_at(8);
        let expect = unhex("588C979A61C663D2F066D0C2C0F989806D5F6B61DAC38417E8D12CFDF926E0");
        for backend in Backend::available() {
            let ccm = AesCcm::with_backend(&key, 8, 2, backend).unwrap();
            let sealed = ccm.seal(&nonce, aad, plain).unwrap();
            assert_eq!(sealed, expect, "{}", backend.label());
            let opened = ccm.open(&nonce, aad, &sealed).unwrap();
            assert_eq!(opened, plain, "{}", backend.label());
        }
    }

    /// `seal_in_place` / `seal_into` / `seal_suffix_in_place` /
    /// single-packet `seal_suffix_batch` are byte-identical to `seal`.
    #[test]
    fn seal_variants_agree() {
        let ccm = AesCcm::new(&[7u8; 16], 8, 2).unwrap();
        let nonce = [9u8; 13];
        let aad = b"binding";
        let plain = b"a plaintext spanning multiple AES blocks for good measure";
        let sealed = ccm.seal(&nonce, aad, plain).unwrap();

        let mut in_place = plain.to_vec();
        ccm.seal_in_place(&nonce, aad, &mut in_place).unwrap();
        assert_eq!(in_place, sealed);

        let mut framed = vec![0xEE, 0xFF]; // pre-existing framing bytes
        ccm.seal_into(&nonce, aad, plain, &mut framed).unwrap();
        assert_eq!(&framed[..2], &[0xEE, 0xFF]);
        assert_eq!(&framed[2..], &sealed[..]);

        let mut suffixed = vec![0xEE, 0xFF];
        suffixed.extend_from_slice(plain);
        ccm.seal_suffix_in_place(&nonce, aad, &mut suffixed, 2)
            .unwrap();
        assert_eq!(&suffixed[..2], &[0xEE, 0xFF]);
        assert_eq!(&suffixed[2..], &sealed[..]);

        let mut batched = vec![0xEE, 0xFF];
        batched.extend_from_slice(plain);
        let mut reqs = [SealRequest {
            nonce: &nonce,
            aad,
            buf: &mut batched,
            start: 2,
        }];
        ccm.seal_suffix_batch(&mut reqs).unwrap();
        assert_eq!(&batched[..2], &[0xEE, 0xFF]);
        assert_eq!(&batched[2..], &sealed[..]);

        assert_eq!(ccm.open(&nonce, aad, &sealed).unwrap(), plain);
    }

    /// Batched sealing is byte-exact with the sequential path across a
    /// spread of packet sizes (empty, sub-block, block-aligned, multi-
    /// block), mixed AADs, and every backend.
    #[test]
    fn batch_matches_sequential() {
        let key = [0x21u8; 16];
        let sizes = [0usize, 1, 15, 16, 17, 47, 48, 64, 200];
        for backend in Backend::available() {
            let ccm = AesCcm::with_backend(&key, 8, 2, backend).unwrap();
            let mut bufs: Vec<Vec<u8>> = sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| (0..n).map(|j| (i * 31 + j) as u8).collect())
                .collect();
            let nonces: Vec<[u8; 13]> = (0..sizes.len())
                .map(|i| core::array::from_fn(|j| (i * 17 + j) as u8))
                .collect();
            let aads: Vec<Vec<u8>> = (0..sizes.len())
                .map(|i| vec![i as u8; i * 7 % 40])
                .collect();

            let expect: Vec<Vec<u8>> = bufs
                .iter()
                .enumerate()
                .map(|(i, buf)| ccm.seal(&nonces[i], &aads[i], buf).unwrap())
                .collect();

            let mut reqs: Vec<SealRequest<'_>> = bufs
                .iter_mut()
                .enumerate()
                .map(|(i, buf)| SealRequest {
                    nonce: &nonces[i],
                    aad: &aads[i],
                    buf,
                    start: 0,
                })
                .collect();
            ccm.seal_suffix_batch(&mut reqs).unwrap();
            assert_eq!(bufs, expect, "{}", backend.label());
        }
    }

    /// A bad packet anywhere in a batch leaves every buffer untouched.
    #[test]
    fn batch_validation_is_all_or_nothing() {
        let ccm = AesCcm::cose_ccm_16_64_128(&[1u8; 16]);
        let mut good = b"fine".to_vec();
        let mut bad = b"doomed".to_vec();
        let good_nonce = [2u8; 13];
        let bad_nonce = [3u8; 12]; // wrong length
        let mut reqs = [
            SealRequest {
                nonce: &good_nonce,
                aad: b"",
                buf: &mut good,
                start: 0,
            },
            SealRequest {
                nonce: &bad_nonce,
                aad: b"",
                buf: &mut bad,
                start: 0,
            },
        ];
        assert_eq!(
            ccm.seal_suffix_batch(&mut reqs),
            Err(CryptoError::InvalidParameter)
        );
        assert_eq!(good, b"fine");
        assert_eq!(bad, b"doomed");
    }

    /// `new_cached` builds the same cipher as `new` (through the
    /// per-thread schedule cache) and rejects the same bad parameters.
    #[test]
    fn cached_constructor_matches_fresh() {
        let key = [0x37u8; 16];
        let nonce = [5u8; 13];
        let sealed = AesCcm::new(&key, 8, 2)
            .unwrap()
            .seal(&nonce, b"aad", b"hello")
            .unwrap();
        let cached = AesCcm::new_cached(&key, 8, 2).unwrap();
        assert_eq!(cached.seal(&nonce, b"aad", b"hello").unwrap(), sealed);
        assert_eq!(cached.open(&nonce, b"aad", &sealed).unwrap(), b"hello");
        assert!(AesCcm::new_cached(&key, 3, 2).is_err());
        assert!(AesCcm::new_cached(&key, 8, 1).is_err());
    }

    /// `open_into` appends after existing bytes, and restores the
    /// buffer on authentication failure.
    #[test]
    fn open_into_appends_and_rolls_back() {
        let ccm = AesCcm::cose_ccm_16_64_128(&[7u8; 16]);
        let nonce = [9u8; 13];
        let sealed = ccm.seal(&nonce, b"aad", b"payload").unwrap();
        let mut out = vec![0xAB];
        ccm.open_into(&nonce, b"aad", &sealed, &mut out).unwrap();
        assert_eq!(out, b"\xABpayload");
        let mut bad = sealed.clone();
        bad[0] ^= 1;
        let mut out = vec![0xAB];
        assert_eq!(
            ccm.open_into(&nonce, b"aad", &bad, &mut out),
            Err(CryptoError::AuthFailed)
        );
        assert_eq!(out, vec![0xAB], "buffer restored on failure");
    }

    /// `open_in_place` / `open_suffix_in_place` mirror the seal side:
    /// success leaves the plaintext, failure restores the ciphertext
    /// byte-exactly.
    #[test]
    fn open_in_place_roundtrip_and_restore() {
        let ccm = AesCcm::cose_ccm_16_64_128(&[7u8; 16]);
        let nonce = [9u8; 13];
        let plain = b"plaintext across blocks, in place this time";
        let sealed = ccm.seal(&nonce, b"aad", plain).unwrap();

        let mut buf = sealed.clone();
        ccm.open_in_place(&nonce, b"aad", &mut buf).unwrap();
        assert_eq!(buf, plain);

        let mut framed = vec![0xEE, 0xFF];
        framed.extend_from_slice(&sealed);
        ccm.open_suffix_in_place(&nonce, b"aad", &mut framed, 2)
            .unwrap();
        assert_eq!(&framed[..2], &[0xEE, 0xFF]);
        assert_eq!(&framed[2..], plain);

        // Tampered: buffer must be restored byte-exactly.
        let mut bad = sealed.clone();
        bad[3] ^= 0x80;
        let snapshot = bad.clone();
        assert_eq!(
            ccm.open_in_place(&nonce, b"aad", &mut bad),
            Err(CryptoError::AuthFailed)
        );
        assert_eq!(bad, snapshot, "ciphertext restored on failure");

        // Truncated input (shorter than the tag) fails cleanly.
        let mut tiny = sealed[..4].to_vec();
        assert_eq!(
            ccm.open_in_place(&nonce, b"aad", &mut tiny),
            Err(CryptoError::AuthFailed)
        );
        // `start` beyond the buffer is a parameter error, not a panic.
        let mut buf = sealed.clone();
        assert_eq!(
            ccm.open_suffix_in_place(&nonce, b"aad", &mut buf, sealed.len() + 1),
            Err(CryptoError::InvalidParameter)
        );
    }

    /// RFC 3610 packet vector #2 (plaintext not block-aligned).
    #[test]
    fn rfc3610_vector_2() {
        let key: [u8; 16] = unhex("C0C1C2C3C4C5C6C7C8C9CACBCCCDCECF")
            .try_into()
            .unwrap();
        let nonce = unhex("00000004030201A0A1A2A3A4A5");
        let packet = unhex("000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F");
        let (aad, plain) = packet.split_at(8);
        let ccm = AesCcm::new(&key, 8, 2).unwrap();
        let sealed = ccm.seal(&nonce, aad, plain).unwrap();
        let expect = unhex("72C91A36E135F8CF291CA894085C87E3CC15C439C9E43A3BA091D56E10400916");
        assert_eq!(sealed, expect);
    }

    /// RFC 3610 packet vector #3.
    #[test]
    fn rfc3610_vector_3() {
        let key: [u8; 16] = unhex("C0C1C2C3C4C5C6C7C8C9CACBCCCDCECF")
            .try_into()
            .unwrap();
        let nonce = unhex("00000005040302A0A1A2A3A4A5");
        let packet = unhex("000102030405060708090A0B0C0D0E0F101112131415161718191A1B1C1D1E1F20");
        let (aad, plain) = packet.split_at(8);
        let ccm = AesCcm::new(&key, 8, 2).unwrap();
        let sealed = ccm.seal(&nonce, aad, plain).unwrap();
        let expect = unhex("51B1E5F44A197D1DA46B0F8E2D282AE871E838BB64DA8596574ADAA76FBD9FB0C5");
        assert_eq!(sealed, expect);
    }

    /// DTLS-style CCM-8 with 12-byte nonce round-trips.
    #[test]
    fn dtls_ccm8_roundtrip() {
        let key = [0x42u8; 16];
        let ccm = AesCcm::dtls_ccm8(&key);
        assert_eq!(ccm.nonce_len(), 12);
        let nonce = [7u8; 12];
        let aad = b"record header";
        let plain = b"application data of arbitrary length, hello DoC";
        let sealed = ccm.seal(&nonce, aad, plain).unwrap();
        assert_eq!(sealed.len(), plain.len() + 8);
        assert_eq!(ccm.open(&nonce, aad, &sealed).unwrap(), plain);
    }

    /// Tampering with ciphertext, tag, or AAD must fail authentication.
    #[test]
    fn tamper_detection() {
        let key = [3u8; 16];
        let ccm = AesCcm::cose_ccm_16_64_128(&key);
        let nonce = [9u8; 13];
        let sealed = ccm.seal(&nonce, b"aad", b"payload").unwrap();

        let mut bad = sealed.clone();
        bad[0] ^= 1;
        assert_eq!(ccm.open(&nonce, b"aad", &bad), Err(CryptoError::AuthFailed));

        let mut bad = sealed.clone();
        let last = bad.len() - 1;
        bad[last] ^= 1;
        assert_eq!(ccm.open(&nonce, b"aad", &bad), Err(CryptoError::AuthFailed));

        assert_eq!(
            ccm.open(&nonce, b"axd", &sealed),
            Err(CryptoError::AuthFailed)
        );
    }

    /// Wrong nonce fails authentication.
    #[test]
    fn wrong_nonce_fails() {
        let key = [3u8; 16];
        let ccm = AesCcm::cose_ccm_16_64_128(&key);
        let sealed = ccm.seal(&[1u8; 13], b"", b"payload").unwrap();
        assert_eq!(
            ccm.open(&[2u8; 13], b"", &sealed),
            Err(CryptoError::AuthFailed)
        );
    }

    /// Empty plaintext is legal: output is just the tag.
    #[test]
    fn empty_plaintext() {
        let key = [3u8; 16];
        let ccm = AesCcm::cose_ccm_16_64_128(&key);
        let nonce = [0u8; 13];
        let sealed = ccm.seal(&nonce, b"aad only", b"").unwrap();
        assert_eq!(sealed.len(), 8);
        assert_eq!(ccm.open(&nonce, b"aad only", &sealed).unwrap(), b"");
    }

    /// Empty AAD path (no adata flag) round-trips.
    #[test]
    fn empty_aad() {
        let key = [5u8; 16];
        let ccm = AesCcm::dtls_ccm8(&key);
        let nonce = [1u8; 12];
        let sealed = ccm.seal(&nonce, b"", b"data").unwrap();
        assert_eq!(ccm.open(&nonce, b"", &sealed).unwrap(), b"data");
    }

    /// Invalid parameters are rejected at construction.
    #[test]
    fn invalid_params() {
        let key = [0u8; 16];
        assert!(AesCcm::new(&key, 3, 2).is_err()); // odd tag
        assert!(AesCcm::new(&key, 2, 2).is_err()); // tag too short
        assert!(AesCcm::new(&key, 8, 1).is_err()); // L too small
        assert!(AesCcm::new(&key, 8, 9).is_err()); // L too large
    }

    /// Wrong nonce length is rejected.
    #[test]
    fn wrong_nonce_len() {
        let key = [0u8; 16];
        let ccm = AesCcm::dtls_ccm8(&key);
        assert_eq!(
            ccm.seal(&[0u8; 13], b"", b"x"),
            Err(CryptoError::InvalidParameter)
        );
    }

    /// Large AAD (>= 0xFF00 bytes) exercises the extended length encoding.
    #[test]
    fn large_aad_roundtrip() {
        let key = [1u8; 16];
        let ccm = AesCcm::cose_ccm_16_64_128(&key);
        let nonce = [4u8; 13];
        let aad = vec![0xA5u8; 0x1_0000];
        let sealed = ccm.seal(&nonce, &aad, b"tiny").unwrap();
        assert_eq!(ccm.open(&nonce, &aad, &sealed).unwrap(), b"tiny");
    }
}
