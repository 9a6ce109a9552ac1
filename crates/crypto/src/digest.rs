//! SHA-256 (FIPS 180-4) and the [`Digest`] type.
//!
//! Implemented from scratch (no external crypto crates are available in
//! this environment). Verified against the NIST test vectors in the unit
//! tests below.
//!
//! # Performance
//!
//! Every hot path of the middleware — W-OTS chain steps, Merkle node
//! hashes, evidence-record chaining, canonical-encoding signatures —
//! funnels through this module, so the compression function has two
//! implementations selected at runtime:
//!
//! * an x86-64 SHA-NI path using the `sha256rnds2` / `sha256msg1` /
//!   `sha256msg2` instructions (detected once, cached), and
//! * a portable scalar path with a rolling 16-word message schedule and
//!   the round loop unrolled eight-at-a-time.
//!
//! On top of the block function sit allocation-free fast paths:
//! [`sha256`] streams full blocks directly from the input slice (no
//! copy into a staging buffer), [`sha256_short`] hashes any message that
//! fits one padded block with a single compression, and [`sha256_pair`]
//! hashes the tag+digest+digest shape used by every Merkle node and
//! evidence chain link as exactly two compressions over stack blocks.
//!
//! For workloads with many *independent* messages (W-OTS chain walks,
//! Merkle levels, batched HMAC derivation), the [`mb`] submodule
//! compresses up to sixteen of them in lockstep across AVX-512 lanes.

use std::fmt;

use nonrep_types::codec::{with_scratch, CodecError, Decode, Encode, Reader, Writer};

pub mod mb;

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Digest(pub [u8; 32]);

const HEX: &[u8; 16] = b"0123456789abcdef";

impl Digest {
    /// The all-zero digest (used as the chain head of an empty evidence log).
    pub const ZERO: Digest = Digest([0u8; 32]);

    /// The raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Builds a digest from raw bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        Self(bytes)
    }

    /// Lowercase hex rendering of the digest.
    pub fn to_hex(&self) -> String {
        let mut out = [0u8; 64];
        for (i, &b) in self.0.iter().enumerate() {
            out[i * 2] = HEX[(b >> 4) as usize];
            out[i * 2 + 1] = HEX[(b & 0x0F) as usize];
        }
        // SAFETY-free: the LUT only emits ASCII.
        String::from_utf8(out.to_vec()).expect("hex is ASCII")
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}..)", &self.to_hex()[..12])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl AsRef<[u8]> for Digest {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Encode for Digest {
    fn encode(&self, w: &mut Writer) {
        w.put_raw(&self.0);
    }
}

impl Decode for Digest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let raw = r.get_raw(32)?;
        let mut arr = [0u8; 32];
        arr.copy_from_slice(raw);
        Ok(Self(arr))
    }
}

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Compresses every 64-byte block of `data` (whose length must be a
/// multiple of 64) into `state`, dispatching to the best available
/// implementation.
#[inline]
fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    {
        if shani::available() {
            // SAFETY: `available` confirmed the sha/ssse3/sse4.1 features.
            unsafe { shani::compress_blocks(state, data) };
            return;
        }
    }
    scalar::compress_blocks(state, data);
}

/// Portable scalar compression: rolling 16-word schedule, 8 rounds per
/// unrolled step.
mod scalar {
    use super::K;

    macro_rules! round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
         $k:expr, $w:expr) => {{
            let s1 = $e.rotate_right(6) ^ $e.rotate_right(11) ^ $e.rotate_right(25);
            let ch = ($e & $f) ^ (!$e & $g);
            let t1 = $h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add($k)
                .wrapping_add($w);
            let s0 = $a.rotate_right(2) ^ $a.rotate_right(13) ^ $a.rotate_right(22);
            let maj = ($a & $b) ^ ($a & $c) ^ ($b & $c);
            $d = $d.wrapping_add(t1);
            $h = t1.wrapping_add(s0).wrapping_add(maj);
        }};
    }

    /// Eight rounds with the register rotation hard-coded, so the
    /// compiler keeps the working variables in registers.
    macro_rules! rounds8 {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
         $t:expr, $w:expr) => {{
            round!($a, $b, $c, $d, $e, $f, $g, $h, K[$t], $w[($t) & 15]);
            round!($h, $a, $b, $c, $d, $e, $f, $g, K[$t + 1], $w[($t + 1) & 15]);
            round!($g, $h, $a, $b, $c, $d, $e, $f, K[$t + 2], $w[($t + 2) & 15]);
            round!($f, $g, $h, $a, $b, $c, $d, $e, K[$t + 3], $w[($t + 3) & 15]);
            round!($e, $f, $g, $h, $a, $b, $c, $d, K[$t + 4], $w[($t + 4) & 15]);
            round!($d, $e, $f, $g, $h, $a, $b, $c, K[$t + 5], $w[($t + 5) & 15]);
            round!($c, $d, $e, $f, $g, $h, $a, $b, K[$t + 6], $w[($t + 6) & 15]);
            round!($b, $c, $d, $e, $f, $g, $h, $a, K[$t + 7], $w[($t + 7) & 15]);
        }};
    }

    #[inline]
    fn schedule_step(w: &mut [u32; 16], t: usize) {
        let w15 = w[(t + 1) & 15];
        let w2 = w[(t + 14) & 15];
        let s0 = w15.rotate_right(7) ^ w15.rotate_right(18) ^ (w15 >> 3);
        let s1 = w2.rotate_right(17) ^ w2.rotate_right(19) ^ (w2 >> 10);
        w[t & 15] = w[t & 15]
            .wrapping_add(s0)
            .wrapping_add(w[(t + 9) & 15])
            .wrapping_add(s1);
    }

    pub(super) fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
        let [mut a0, mut b0, mut c0, mut d0, mut e0, mut f0, mut g0, mut h0] = *state;
        for block in data.chunks_exact(64) {
            let mut w = [0u32; 16];
            for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
                *wi = u32::from_be_bytes(chunk.try_into().expect("4-byte chunk"));
            }
            let (mut a, mut b, mut c, mut d) = (a0, b0, c0, d0);
            let (mut e, mut f, mut g, mut h) = (e0, f0, g0, h0);
            rounds8!(a, b, c, d, e, f, g, h, 0, w);
            rounds8!(a, b, c, d, e, f, g, h, 8, w);
            for t in (16..64).step_by(8) {
                for i in 0..8 {
                    schedule_step(&mut w, t + i);
                }
                rounds8!(a, b, c, d, e, f, g, h, t, w);
            }
            a0 = a0.wrapping_add(a);
            b0 = b0.wrapping_add(b);
            c0 = c0.wrapping_add(c);
            d0 = d0.wrapping_add(d);
            e0 = e0.wrapping_add(e);
            f0 = f0.wrapping_add(f);
            g0 = g0.wrapping_add(g);
            h0 = h0.wrapping_add(h);
        }
        *state = [a0, b0, c0, d0, e0, f0, g0, h0];
    }
}

/// x86-64 SHA-NI compression (runtime-detected).
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use core::arch::x86_64::*;

    /// Whether the sha/ssse3/sse4.1 features are present (cached).
    #[inline]
    pub(super) fn available() -> bool {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            is_x86_feature_detected!("sha")
                && is_x86_feature_detected!("ssse3")
                && is_x86_feature_detected!("sse4.1")
        })
    }

    /// # Safety
    ///
    /// Caller must ensure the sha, ssse3 and sse4.1 target features are
    /// available and `data.len()` is a multiple of 64.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) unsafe fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
        // Byte shuffle turning little-endian loads into big-endian words.
        let mask = _mm_set_epi64x(
            0x0c0d_0e0f_0809_0a0bu64 as i64,
            0x0405_0607_0001_0203u64 as i64,
        );

        // Pack the state into the ABEF / CDGH register layout SHA-NI uses.
        let tmp = _mm_loadu_si128(state.as_ptr().cast());
        let state1_init = _mm_loadu_si128(state.as_ptr().add(4).cast());
        let tmp = _mm_shuffle_epi32(tmp, 0xB1); // CDAB
        let state1_init = _mm_shuffle_epi32(state1_init, 0x1B); // EFGH
        let mut state0 = _mm_alignr_epi8(tmp, state1_init, 8); // ABEF
        let mut state1 = _mm_blend_epi16(state1_init, tmp, 0xF0); // CDGH

        macro_rules! k4 {
            ($i:expr) => {
                _mm_loadu_si128(K.as_ptr().add($i).cast())
            };
        }

        for block in data.chunks_exact(64) {
            let abef_save = state0;
            let cdgh_save = state1;

            // Rounds 0..=3.
            let mut msg0 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().cast()), mask);
            let mut msg = _mm_add_epi32(msg0, k4!(0));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            msg = _mm_shuffle_epi32(msg, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

            // Rounds 4..=7.
            let mut msg1 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(16).cast()), mask);
            msg = _mm_add_epi32(msg1, k4!(4));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            msg = _mm_shuffle_epi32(msg, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
            msg0 = _mm_sha256msg1_epu32(msg0, msg1);

            // Rounds 8..=11.
            let mut msg2 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(32).cast()), mask);
            msg = _mm_add_epi32(msg2, k4!(8));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            msg = _mm_shuffle_epi32(msg, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
            msg1 = _mm_sha256msg1_epu32(msg1, msg2);

            // Rounds 12..=15.
            let mut msg3 = _mm_shuffle_epi8(_mm_loadu_si128(block.as_ptr().add(48).cast()), mask);
            msg = _mm_add_epi32(msg3, k4!(12));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            let mut tmp = _mm_alignr_epi8(msg3, msg2, 4);
            msg0 = _mm_add_epi32(msg0, tmp);
            msg0 = _mm_sha256msg2_epu32(msg0, msg3);
            msg = _mm_shuffle_epi32(msg, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
            msg2 = _mm_sha256msg1_epu32(msg2, msg3);

            // Rounds 16..=59: the schedule pipeline in steady state.
            // Each step consumes msgN and refreshes it for round t+16.
            macro_rules! steady4 {
                ($t:expr, $cur:ident, $prev:ident, $next:ident) => {
                    msg = _mm_add_epi32($cur, k4!($t));
                    state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
                    tmp = _mm_alignr_epi8($cur, $prev, 4);
                    $next = _mm_add_epi32($next, tmp);
                    $next = _mm_sha256msg2_epu32($next, $cur);
                    msg = _mm_shuffle_epi32(msg, 0x0E);
                    state0 = _mm_sha256rnds2_epu32(state0, state1, msg);
                    $prev = _mm_sha256msg1_epu32($prev, $cur);
                };
            }

            steady4!(16, msg0, msg3, msg1);
            steady4!(20, msg1, msg0, msg2);
            steady4!(24, msg2, msg1, msg3);
            steady4!(28, msg3, msg2, msg0);
            steady4!(32, msg0, msg3, msg1);
            steady4!(36, msg1, msg0, msg2);
            steady4!(40, msg2, msg1, msg3);
            steady4!(44, msg3, msg2, msg0);
            steady4!(48, msg0, msg3, msg1);
            steady4!(52, msg1, msg0, msg2);
            steady4!(56, msg2, msg1, msg3);
            let _ = (msg0, msg1, msg2);

            // Rounds 60..=63.
            msg = _mm_add_epi32(msg3, k4!(60));
            state1 = _mm_sha256rnds2_epu32(state1, state0, msg);
            msg = _mm_shuffle_epi32(msg, 0x0E);
            state0 = _mm_sha256rnds2_epu32(state0, state1, msg);

            state0 = _mm_add_epi32(state0, abef_save);
            state1 = _mm_add_epi32(state1, cdgh_save);
        }

        // Unpack ABEF / CDGH back to the linear state layout.
        let tmp = _mm_shuffle_epi32(state0, 0x1B); // FEBA
        let state1 = _mm_shuffle_epi32(state1, 0xB1); // DCHG
        let out0 = _mm_blend_epi16(tmp, state1, 0xF0); // DCBA
        let out1 = _mm_alignr_epi8(state1, tmp, 8); // HGFE
        _mm_storeu_si128(state.as_mut_ptr().cast(), out0);
        _mm_storeu_si128(state.as_mut_ptr().add(4).cast(), out1);
    }
}

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use nonrep_crypto::digest::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"hello ");
/// h.update(b"world");
/// let d = h.finalize();
/// assert_eq!(d, nonrep_crypto::digest::sha256(b"hello world"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_len: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self {
            state: H0,
            buf: [0u8; 64],
            buf_len: 0,
            total_len: 0,
        }
    }

    /// Absorbs `data` into the hash state.
    ///
    /// Full 64-byte blocks are compressed straight from `data`; only a
    /// sub-block tail is staged in the internal buffer.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut rest = data;
        if self.buf_len > 0 {
            let need = 64 - self.buf_len;
            let take = need.min(rest.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&rest[..take]);
            self.buf_len += take;
            rest = &rest[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress_blocks(&mut self.state, &block);
                self.buf_len = 0;
            }
        }
        let whole = rest.len() - rest.len() % 64;
        if whole > 0 {
            compress_blocks(&mut self.state, &rest[..whole]);
            rest = &rest[whole..];
        }
        if !rest.is_empty() {
            self.buf[..rest.len()].copy_from_slice(rest);
            self.buf_len = rest.len();
        }
    }

    /// Completes the hash, returning the digest.
    pub fn finalize(mut self) -> Digest {
        pad_and_finish(&mut self.state, &self.buf[..self.buf_len], self.total_len)
    }
}

/// Pads the sub-block remainder `rem` (0x80, zeros, 64-bit big-endian bit
/// length — at most two blocks, built on the stack), compresses it, and
/// extracts the digest. Shared tail of the streaming and one-shot paths.
fn pad_and_finish(state: &mut [u32; 8], rem: &[u8], total_len: u64) -> Digest {
    debug_assert!(rem.len() < 64);
    let bit_len = total_len.wrapping_mul(8);
    let mut tail = [0u8; 128];
    tail[..rem.len()].copy_from_slice(rem);
    tail[rem.len()] = 0x80;
    let tail_len = if rem.len() + 1 > 56 { 128 } else { 64 };
    tail[tail_len - 8..tail_len].copy_from_slice(&bit_len.to_be_bytes());
    compress_blocks(state, &tail[..tail_len]);
    state_to_digest(state)
}

#[inline]
fn state_to_digest(state: &[u32; 8]) -> Digest {
    let mut out = [0u8; 32];
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
    Digest(out)
}

/// One-shot SHA-256 of `data`, compressing full blocks directly from the
/// input slice.
pub fn sha256(data: &[u8]) -> Digest {
    if data.len() <= 55 {
        return sha256_short(data);
    }
    let mut state = H0;
    let whole = data.len() - data.len() % 64;
    compress_blocks(&mut state, &data[..whole]);
    pad_and_finish(&mut state, &data[whole..], data.len() as u64)
}

/// SHA-256 of what `encode` writes, built in the thread's scratch writer
/// ([`with_scratch`]) instead of a buffer of its own.
pub fn sha256_encoded(encode: impl FnOnce(&mut Writer)) -> Digest {
    with_scratch(|w| {
        encode(w);
        sha256(w.as_slice())
    })
}

/// SHA-256 of a message short enough (≤ 55 bytes) to fit one padded
/// block: exactly one compression, no buffering.
///
/// This is the W-OTS chain-step shape (36 bytes) — the single hottest
/// call site in the codebase during key generation and signing.
///
/// # Panics
///
/// Panics if `data` exceeds 55 bytes.
pub fn sha256_short(data: &[u8]) -> Digest {
    assert!(
        data.len() <= 55,
        "sha256_short: message does not fit one padded block"
    );
    let mut block = [0u8; 64];
    block[..data.len()].copy_from_slice(data);
    block[data.len()] = 0x80;
    let bit_len = (data.len() as u64) * 8;
    block[56..].copy_from_slice(&bit_len.to_be_bytes());
    let mut state = H0;
    compress_blocks(&mut state, &block);
    state_to_digest(&state)
}

/// SHA-256 over the concatenation of two byte strings (domain-separated by
/// a tag byte), used for Merkle node hashing and evidence chain links.
///
/// The ubiquitous 32+32-byte shape (65 bytes of input) takes a dedicated
/// two-compression path over stack blocks; other shapes fall back to the
/// streaming hasher.
pub fn sha256_pair(tag: u8, left: &[u8], right: &[u8]) -> Digest {
    if left.len() == 32 && right.len() == 32 {
        // Block 0: tag ‖ left ‖ right[..31]; block 1: right[31] ‖ pad ‖ len.
        let mut block0 = [0u8; 64];
        block0[0] = tag;
        block0[1..33].copy_from_slice(left);
        block0[33..].copy_from_slice(&right[..31]);
        let mut block1 = [0u8; 64];
        block1[0] = right[31];
        block1[1] = 0x80;
        block1[56..].copy_from_slice(&(65u64 * 8).to_be_bytes());
        let mut state = H0;
        compress_blocks(&mut state, &block0);
        compress_blocks(&mut state, &block1);
        return state_to_digest(&state);
    }
    let mut h = Sha256::new();
    h.update(&[tag]);
    h.update(left);
    h.update(right);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_to_vec_inside_sha256_encoded_matches_a_fresh_writer() {
        let value: Vec<u8> = (0u8..200).collect();
        let mut fresh = Writer::new();
        value.encode(&mut fresh);
        let fresh = fresh.into_vec();
        let mut inner = Vec::new();
        let outer = sha256_encoded(|w| {
            value.encode(w);
            // The scratch is taken: this nested encode uses a fresh writer.
            inner = value.encode_to_vec();
        });
        assert_eq!(inner, fresh);
        assert_eq!(outer, sha256(&fresh));
    }

    // NIST FIPS 180-4 test vectors.
    #[test]
    fn nist_empty() {
        assert_eq!(
            sha256(b"").to_hex(),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn nist_abc() {
        assert_eq!(
            sha256(b"abc").to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn nist_448_bits() {
        assert_eq!(
            sha256(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq").to_hex(),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn nist_896_bits() {
        let msg = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
        assert_eq!(
            sha256(msg).to_hex(),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let msg = vec![b'a'; 1_000_000];
        assert_eq!(
            sha256(&msg).to_hex(),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn scalar_abc_vector() {
        let mut block = [0u8; 64];
        block[..3].copy_from_slice(b"abc");
        block[3] = 0x80;
        block[56..].copy_from_slice(&(24u64).to_be_bytes());
        let mut state = H0;
        scalar::compress_blocks(&mut state, &block);
        assert_eq!(
            state_to_digest(&state).to_hex(),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn shani_matches_scalar_single_block() {
        if !shani::available() {
            return;
        }
        let mut block = [0u8; 64];
        block[..3].copy_from_slice(b"abc");
        block[3] = 0x80;
        block[56..].copy_from_slice(&(24u64).to_be_bytes());
        let mut s1 = H0;
        let mut s2 = H0;
        scalar::compress_blocks(&mut s1, &block);
        unsafe { shani::compress_blocks(&mut s2, &block) };
        assert_eq!(s1, s2, "scalar {s1:08x?} vs shani {s2:08x?}");
    }

    #[test]
    fn scalar_and_dispatch_agree() {
        // Exercise the scalar path explicitly so both implementations are
        // covered on SHA-NI hardware.
        for len in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 129, 1000] {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            let whole = len - len % 64;
            let mut state = H0;
            scalar::compress_blocks(&mut state, &data[..whole]);
            let rem = &data[whole..];
            let mut tail = [0u8; 128];
            tail[..rem.len()].copy_from_slice(rem);
            tail[rem.len()] = 0x80;
            let tail_len = if rem.len() + 1 > 56 { 128 } else { 64 };
            tail[tail_len - 8..tail_len].copy_from_slice(&((len as u64) * 8).to_be_bytes());
            scalar::compress_blocks(&mut state, &tail[..tail_len]);
            assert_eq!(state_to_digest(&state), sha256(&data), "len {len}");
        }
    }

    #[test]
    fn incremental_matches_oneshot_at_all_split_points() {
        let data: Vec<u8> = (0u8..=255).cycle().take(300).collect();
        let expected = sha256(&data);
        for split in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 200, 300] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    #[test]
    fn streaming_equals_oneshot_at_every_length_around_block_boundaries() {
        // Satellite coverage: every total length 0..=130 hashed one byte
        // at a time, three bytes at a time, and in two chunks around each
        // boundary offset (63/64/65 especially).
        let data: Vec<u8> = (0u8..=255).cycle().take(131).collect();
        for len in 0..=130usize {
            let expected = sha256(&data[..len]);
            let mut one = Sha256::new();
            for b in &data[..len] {
                one.update(std::slice::from_ref(b));
            }
            assert_eq!(one.finalize(), expected, "bytewise len {len}");
            let mut three = Sha256::new();
            for chunk in data[..len].chunks(3) {
                three.update(chunk);
            }
            assert_eq!(three.finalize(), expected, "3-chunk len {len}");
            for split in [
                len.saturating_sub(1),
                len / 2,
                63.min(len),
                64.min(len),
                65.min(len),
            ] {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..len]);
                assert_eq!(h.finalize(), expected, "len {len} split {split}");
            }
        }
    }

    #[test]
    fn sha256_short_matches_generic() {
        for len in 0..=55usize {
            let data: Vec<u8> = (0..len).map(|i| i as u8 ^ 0x5A).collect();
            let mut h = Sha256::new();
            h.update(&data);
            assert_eq!(sha256_short(&data), h.finalize(), "len {len}");
        }
    }

    #[test]
    #[should_panic(expected = "does not fit one padded block")]
    fn sha256_short_rejects_long_input() {
        let _ = sha256_short(&[0u8; 56]);
    }

    #[test]
    fn pair_fast_path_matches_streaming() {
        let left = sha256(b"left");
        let right = sha256(b"right");
        for tag in [0u8, 1, 2, 0xFF] {
            let mut h = Sha256::new();
            h.update(&[tag]);
            h.update(left.as_bytes());
            h.update(right.as_bytes());
            assert_eq!(
                sha256_pair(tag, left.as_bytes(), right.as_bytes()),
                h.finalize()
            );
        }
        // Non-32-byte operands use the generic path.
        let mut h = Sha256::new();
        h.update(&[7]);
        h.update(b"ab");
        h.update(b"cdef");
        assert_eq!(sha256_pair(7, b"ab", b"cdef"), h.finalize());
    }

    #[test]
    fn hex_roundtrip() {
        let d = sha256(b"roundtrip");
        let hex = d.to_hex();
        assert_eq!(hex.len(), 64);
        assert_eq!(hex, hex.to_lowercase());
        let back: Vec<u8> = (0..32)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap())
            .collect();
        assert_eq!(back, d.as_bytes());
    }

    #[test]
    fn digest_codec_roundtrip() {
        use nonrep_types::codec::{Decode, Encode};
        let d = sha256(b"codec");
        assert_eq!(Digest::decode_from_slice(&d.encode_to_vec()).unwrap(), d);
    }

    #[test]
    fn pair_hash_is_domain_separated() {
        assert_ne!(sha256_pair(0, b"a", b"b"), sha256_pair(1, b"a", b"b"));
        assert_ne!(sha256_pair(0, b"a", b"b"), sha256_pair(0, b"b", b"a"));
    }

    #[test]
    fn debug_is_truncated_not_empty() {
        let s = format!("{:?}", Digest::ZERO);
        assert!(s.starts_with("Digest("));
        assert!(!s.is_empty());
    }
}
