//! Lane-interleaved multi-buffer SHA-256.
//!
//! The W-OTS chain walk hashes 67 *independent* chains and Merkle level
//! construction hashes independent node pairs — embarrassingly
//! data-parallel work that the single-message paths in [`super`] feed
//! through one compression at a time. This module compresses up to
//! eight independent single-block messages in lockstep with an AVX2
//! kernel over a *transposed* state layout: eight vectors hold the
//! working variables `a..h`, each vector carrying one 32-bit word per
//! lane, so every round of the compression advances all lanes at once.
//!
//! # Dispatch
//!
//! Two tiers sit behind one API:
//!
//! * [`Dispatch::Avx2`] — the 8-lane intrinsics kernel (`x86_64`,
//!   runtime-detected).
//! * [`Dispatch::Single`] — multi-buffer off: every lane compresses on
//!   its own through [`super`]'s SHA-NI / scalar dispatch. What every
//!   host without AVX2 runs.
//!
//! [`Dispatch::active`] picks the tier once per process: the
//! `NONREP_DISPATCH` environment variable (`avx2|single|auto`, mirroring
//! `NONREP_WORKERS`) pins a tier for benches and tests; `auto` (or
//! unset) *measures* the AVX2 kernel against the single-lane path on
//! chain-step-shaped work and picks the faster — so dispatch never
//! selects a tier slower than measured single-lane SHA-NI. A pinned
//! `avx2` on a host without AVX2 falls back to `single`; pinning
//! bypasses calibration by design.
//!
//! Every lane-batched entry point lays out its blocks the same way for
//! both tiers; only the private `compress_lanes` branches on the tier.
//!
//! # API shape
//!
//! * [`hash_lanes`] / [`hash_lanes_with`] — N short (≤ 55-byte)
//!   messages to N digests; the differential-test anchor.
//! * [`chain_steps_with`] — one W-OTS chain step per lane *in place*:
//!   each padded block's value field (bytes 4..36) is replaced by its
//!   digest, implementing `value ← H(header ‖ value)` without copies.
//! * [`pair_lanes_with`] — the 65-byte `tag ‖ left ‖ right` Merkle-node
//!   shape, two lockstep compressions per lane batch.
//! * [`Midstate`] + [`finish_short_lanes_with`] — shared-prefix hashing
//!   (HMAC under one key across many short messages: the W-OTS secret
//!   derivation).
//!
//! All lane-batched paths are bit-identical to their sequential
//! counterparts in [`super`]; `scripts/check.sh` additionally runs the
//! crypto suite under `NONREP_DISPATCH=single`, so both tiers run on
//! every AVX2 host.

use std::sync::OnceLock;

use super::{compress_blocks, state_to_digest, Digest, H0};

/// Lane count of the AVX2 kernel.
pub const MAX_LANES: usize = 8;

/// Longest message that fits one padded SHA-256 block.
const SHORT_MAX: usize = 55;

/// A multi-buffer dispatch tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// 8 lanes, AVX2 transposed-state intrinsics kernel (`x86_64`,
    /// detected).
    Avx2,
    /// Multi-buffer off: one lane through [`super`]'s runtime dispatch
    /// (SHA-NI where the host has it, scalar otherwise). What a host
    /// without AVX2 runs, and what `auto` picks when one lane measures
    /// faster than the AVX2 kernel.
    Single,
}

impl Dispatch {
    /// Every tier, widest first.
    pub fn all() -> [Dispatch; 2] {
        [Dispatch::Avx2, Dispatch::Single]
    }

    /// Lanes the tier advances per compression.
    pub fn lanes(self) -> usize {
        match self {
            Dispatch::Avx2 => MAX_LANES,
            Dispatch::Single => 1,
        }
    }

    /// Whether this host can run the tier.
    pub fn is_available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Dispatch::Avx2 => avx2::available(),
            #[cfg(not(target_arch = "x86_64"))]
            Dispatch::Avx2 => false,
            Dispatch::Single => true,
        }
    }

    /// The process-wide tier: `NONREP_DISPATCH` if set (clamped to what
    /// the host can run), otherwise the calibrated auto choice. Decided
    /// once and cached.
    ///
    /// # Panics
    ///
    /// Panics on an unrecognized `NONREP_DISPATCH` value. A tier pin
    /// exists to *guarantee* which kernel runs (the pinned `single`
    /// pass in `scripts/check.sh` relies on it); a typo silently falling
    /// back to auto would void that guarantee while reporting green.
    pub fn active() -> Dispatch {
        static ACTIVE: OnceLock<Dispatch> = OnceLock::new();
        *ACTIVE.get_or_init(|| match std::env::var("NONREP_DISPATCH").as_deref() {
            Ok("avx2") => clamp(Dispatch::Avx2),
            Ok("single") => Dispatch::Single,
            Ok("auto") | Ok("") | Err(_) => auto_select(),
            Ok(other) => panic!(
                "NONREP_DISPATCH={other:?} is not a dispatch tier \
                 (expected avx2|single|auto)"
            ),
        })
    }
}

/// A pinned tier the host cannot run falls back to [`Dispatch::Single`].
fn clamp(want: Dispatch) -> Dispatch {
    if want.is_available() {
        want
    } else {
        Dispatch::Single
    }
}

/// Picks the auto tier: where the host has AVX2, the kernel is timed
/// against the single-lane path (SHA-NI on capable hosts) on
/// chain-step-shaped work and selected only when it measured *strictly
/// faster* — so dispatch can never pick a tier slower than measured
/// SHA-NI. The measurement runs once, on first use.
fn auto_select() -> Dispatch {
    if Dispatch::Avx2.is_available() && time_tier(Dispatch::Avx2) < time_tier(Dispatch::Single) {
        Dispatch::Avx2
    } else {
        Dispatch::Single
    }
}

/// Picoseconds per hash for `d` on the 36-byte chain-step shape, best
/// of three runs.
fn time_tier(d: Dispatch) -> u128 {
    use std::hint::black_box;
    use std::time::Instant;

    const STEPS: usize = 128;
    let width = d.lanes();
    let mut blocks = [[0u8; 64]; MAX_LANES];
    for (l, block) in blocks.iter_mut().take(width).enumerate() {
        for (i, byte) in block.iter_mut().take(36).enumerate() {
            *byte = (l as u8).wrapping_mul(31) ^ i as u8;
        }
        block[36] = 0x80;
        block[56..].copy_from_slice(&(36u64 * 8).to_be_bytes());
    }
    let mut best = u128::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..STEPS {
            chain_steps_with(d, &mut blocks[..width]);
        }
        best = best.min(start.elapsed().as_nanos());
        black_box(&blocks);
    }
    best.saturating_mul(1000) / (STEPS * width) as u128
}

/// AVX2 backend: 8 lanes per `__m256i` vector.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::super::K;
    use core::arch::x86_64::*;

    /// Whether the avx2 feature is present (cached).
    pub(super) fn available() -> bool {
        use std::sync::OnceLock;
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| is_x86_feature_detected!("avx2"))
    }

    type V = __m256i;

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn splat(x: u32) -> V {
        _mm256_set1_epi32(x as i32)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn add(a: V, b: V) -> V {
        _mm256_add_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn xor(a: V, b: V) -> V {
        _mm256_xor_si256(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn and(a: V, b: V) -> V {
        _mm256_and_si256(a, b)
    }

    /// `!a & b`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn andnot(a: V, b: V) -> V {
        _mm256_andnot_si256(a, b)
    }

    macro_rules! rotr_fn {
        ($name:ident, $r:literal) => {
            #[inline]
            #[target_feature(enable = "avx2")]
            unsafe fn $name(v: V) -> V {
                _mm256_or_si256(
                    _mm256_srli_epi32::<$r>(v),
                    _mm256_slli_epi32::<{ 32 - $r }>(v),
                )
            }
        };
    }
    rotr_fn!(rotr_2, 2);
    rotr_fn!(rotr_6, 6);
    rotr_fn!(rotr_7, 7);
    rotr_fn!(rotr_11, 11);
    rotr_fn!(rotr_13, 13);
    rotr_fn!(rotr_17, 17);
    rotr_fn!(rotr_18, 18);
    rotr_fn!(rotr_19, 19);
    rotr_fn!(rotr_22, 22);
    rotr_fn!(rotr_25, 25);

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn shr_3(v: V) -> V {
        _mm256_srli_epi32::<3>(v)
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn shr_10(v: V) -> V {
        _mm256_srli_epi32::<10>(v)
    }

    /// Message word `t` of every lane, big-endian, transposed.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn gather(blocks: &[[u8; 64]; 8], t: usize) -> V {
        let mut tmp = [0u32; 8];
        for (slot, block) in tmp.iter_mut().zip(blocks) {
            *slot = u32::from_be_bytes(block[4 * t..4 * t + 4].try_into().expect("4-byte word"));
        }
        _mm256_loadu_si256(tmp.as_ptr().cast())
    }

    /// State word `w` of every lane, transposed.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_state(states: &[[u32; 8]; 8], w: usize) -> V {
        let mut tmp = [0u32; 8];
        for (slot, state) in tmp.iter_mut().zip(states) {
            *slot = state[w];
        }
        _mm256_loadu_si256(tmp.as_ptr().cast())
    }

    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn store_state(states: &mut [[u32; 8]; 8], w: usize, v: V) {
        let mut tmp = [0u32; 8];
        _mm256_storeu_si256(tmp.as_mut_ptr().cast(), v);
        for (state, slot) in states.iter_mut().zip(tmp) {
            state[w] = slot;
        }
    }

    /// One round of the compression for every lane at once; identical
    /// structure to the scalar `round!` in `digest`, over lane vectors.
    macro_rules! mb_round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
         $k:expr, $w:expr) => {{
            let s1 = xor(xor(rotr_6($e), rotr_11($e)), rotr_25($e));
            let ch = xor(and($e, $f), andnot($e, $g));
            let t1 = add(add(add(add($h, s1), ch), splat($k)), $w);
            let s0 = xor(xor(rotr_2($a), rotr_13($a)), rotr_22($a));
            let maj = xor(xor(and($a, $b), and($a, $c)), and($b, $c));
            $d = add($d, t1);
            $h = add(add(t1, s0), maj);
        }};
    }

    /// Eight rounds with the register rotation hard-coded (mirrors the
    /// scalar `rounds8!`).
    macro_rules! mb_rounds8 {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
         $t:expr, $w:ident) => {{
            mb_round!($a, $b, $c, $d, $e, $f, $g, $h, K[$t], $w[($t) & 15]);
            mb_round!($h, $a, $b, $c, $d, $e, $f, $g, K[$t + 1], $w[($t + 1) & 15]);
            mb_round!($g, $h, $a, $b, $c, $d, $e, $f, K[$t + 2], $w[($t + 2) & 15]);
            mb_round!($f, $g, $h, $a, $b, $c, $d, $e, K[$t + 3], $w[($t + 3) & 15]);
            mb_round!($e, $f, $g, $h, $a, $b, $c, $d, K[$t + 4], $w[($t + 4) & 15]);
            mb_round!($d, $e, $f, $g, $h, $a, $b, $c, K[$t + 5], $w[($t + 5) & 15]);
            mb_round!($c, $d, $e, $f, $g, $h, $a, $b, K[$t + 6], $w[($t + 6) & 15]);
            mb_round!($b, $c, $d, $e, $f, $g, $h, $a, K[$t + 7], $w[($t + 7) & 15]);
        }};
    }

    /// One rolling message-schedule step for every lane at once.
    macro_rules! mb_schedule_step {
        ($w:ident, $t:expr) => {{
            let w15 = $w[($t + 1) & 15];
            let w2 = $w[($t + 14) & 15];
            let s0 = xor(xor(rotr_7(w15), rotr_18(w15)), shr_3(w15));
            let s1 = xor(xor(rotr_17(w2), rotr_19(w2)), shr_10(w2));
            $w[$t & 15] = add(add(add($w[$t & 15], s0), $w[($t + 9) & 15]), s1);
        }};
    }

    /// Compresses one 64-byte block per lane into its lane's state:
    /// load lane-transposed state and message vectors, 64 rounds,
    /// feed-forward, store.
    ///
    /// # Safety
    ///
    /// Caller must ensure the avx2 target feature is available.
    #[target_feature(enable = "avx2")]
    unsafe fn compress(states: &mut [[u32; 8]; 8], blocks: &[[u8; 64]; 8]) {
        let mut a = load_state(states, 0);
        let mut b = load_state(states, 1);
        let mut c = load_state(states, 2);
        let mut d = load_state(states, 3);
        let mut e = load_state(states, 4);
        let mut f = load_state(states, 5);
        let mut g = load_state(states, 6);
        let mut h = load_state(states, 7);
        let (a0, b0, c0, d0, e0, f0, g0, h0) = (a, b, c, d, e, f, g, h);
        let mut w = [
            gather(blocks, 0),
            gather(blocks, 1),
            gather(blocks, 2),
            gather(blocks, 3),
            gather(blocks, 4),
            gather(blocks, 5),
            gather(blocks, 6),
            gather(blocks, 7),
            gather(blocks, 8),
            gather(blocks, 9),
            gather(blocks, 10),
            gather(blocks, 11),
            gather(blocks, 12),
            gather(blocks, 13),
            gather(blocks, 14),
            gather(blocks, 15),
        ];
        mb_rounds8!(a, b, c, d, e, f, g, h, 0, w);
        mb_rounds8!(a, b, c, d, e, f, g, h, 8, w);
        let mut t = 16;
        while t < 64 {
            mb_schedule_step!(w, t);
            mb_schedule_step!(w, t + 1);
            mb_schedule_step!(w, t + 2);
            mb_schedule_step!(w, t + 3);
            mb_schedule_step!(w, t + 4);
            mb_schedule_step!(w, t + 5);
            mb_schedule_step!(w, t + 6);
            mb_schedule_step!(w, t + 7);
            mb_rounds8!(a, b, c, d, e, f, g, h, t, w);
            t += 8;
        }
        store_state(states, 0, add(a, a0));
        store_state(states, 1, add(b, b0));
        store_state(states, 2, add(c, c0));
        store_state(states, 3, add(d, d0));
        store_state(states, 4, add(e, e0));
        store_state(states, 5, add(f, f0));
        store_state(states, 6, add(g, g0));
        store_state(states, 7, add(h, h0));
    }

    /// Compresses one 64-byte block per lane for any number of lanes,
    /// eight per kernel call, padding a final partial batch with dummy
    /// lanes whose results are dropped.
    ///
    /// # Safety
    ///
    /// Caller must ensure the avx2 target feature is available.
    pub(super) unsafe fn compress_lanes(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
        let mut schunks = states.chunks_exact_mut(8);
        let mut bchunks = blocks.chunks_exact(8);
        for (s, b) in (&mut schunks).zip(&mut bchunks) {
            compress(
                s.try_into().expect("exact state chunk"),
                b.try_into().expect("exact block chunk"),
            );
        }
        let srem = schunks.into_remainder();
        let brem = bchunks.remainder();
        if !srem.is_empty() {
            let mut ps = [[0u32; 8]; 8];
            let mut pb = [[0u8; 64]; 8];
            ps[..srem.len()].copy_from_slice(srem);
            pb[..brem.len()].copy_from_slice(brem);
            compress(&mut ps, &pb);
            srem.copy_from_slice(&ps[..srem.len()]);
        }
    }
}

/// Compresses one 64-byte block per lane into its lane's state under
/// `d` — the one place the tier is decided.
fn compress_lanes(d: Dispatch, states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    debug_assert_eq!(states.len(), blocks.len());
    match d {
        Dispatch::Single => {
            for (state, block) in states.iter_mut().zip(blocks) {
                compress_blocks(state, &block[..]);
            }
        }
        Dispatch::Avx2 => {
            assert!(
                d.is_available(),
                "dispatch tier {d:?} is not available on this host"
            );
            // SAFETY: the kernel's one requirement, AVX2 on this host, is
            // asserted above.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx2::compress_lanes(states, blocks)
            };
        }
    }
}

/// Pads a ≤ 55-byte message into one compression block.
fn pad_short(msg: &[u8], block: &mut [u8; 64]) {
    assert!(
        msg.len() <= SHORT_MAX,
        "mb: message does not fit one padded block"
    );
    block[..msg.len()].copy_from_slice(msg);
    block[msg.len()] = 0x80;
    block[56..].copy_from_slice(&((msg.len() as u64) * 8).to_be_bytes());
}

/// Writes a lane's final state over `out` as the big-endian digest.
fn state_to_bytes(state: &[u32; 8], out: &mut [u8]) {
    for (chunk, word) in out.chunks_exact_mut(4).zip(state) {
        chunk.copy_from_slice(&word.to_be_bytes());
    }
}

/// Hashes N independent short (≤ 55-byte) messages in lockstep under
/// the active dispatch. Equivalent to mapping [`super::sha256_short`]
/// over `msgs`, at up to [`Dispatch::lanes`] messages per compression.
///
/// # Panics
///
/// Panics if any message exceeds 55 bytes.
pub fn hash_lanes(msgs: &[&[u8]]) -> Vec<Digest> {
    hash_lanes_with(Dispatch::active(), msgs)
}

/// [`hash_lanes`] under an explicit dispatch tier.
///
/// # Panics
///
/// Panics if any message exceeds 55 bytes or `d` is unavailable here.
pub fn hash_lanes_with(d: Dispatch, msgs: &[&[u8]]) -> Vec<Digest> {
    let mut out = Vec::with_capacity(msgs.len());
    for chunk in msgs.chunks(MAX_LANES) {
        let mut blocks = [[0u8; 64]; MAX_LANES];
        let mut states = [H0; MAX_LANES];
        for (block, msg) in blocks.iter_mut().zip(chunk) {
            pad_short(msg, block);
        }
        compress_lanes(d, &mut states[..chunk.len()], &blocks[..chunk.len()]);
        out.extend(states[..chunk.len()].iter().map(state_to_digest));
    }
    out
}

/// Hashes N *equal-length* messages of any length in lockstep under
/// `d` — the multi-block generalisation of [`hash_lanes_with`] for
/// shapes like the W-OTS public-key compression (`tag ‖ 67 chain ends`
/// = 2145 bytes, 34 blocks per lane). Equivalent to mapping the
/// streaming [`super::Sha256`] over `msgs`.
///
/// # Panics
///
/// Panics if the messages do not all share one length or `d` is
/// unavailable on this host.
pub fn hash_eq_lanes_with(d: Dispatch, msgs: &[&[u8]]) -> Vec<Digest> {
    let Some(len) = msgs.first().map(|m| m.len()) else {
        return Vec::new();
    };
    assert!(
        msgs.iter().all(|m| m.len() == len),
        "mb: lockstep lanes need equal-length messages"
    );
    let total_blocks = (len + 9).div_ceil(64);
    let mut out = Vec::with_capacity(msgs.len());
    for chunk in msgs.chunks(MAX_LANES) {
        let mut states = [H0; MAX_LANES];
        for b in 0..total_blocks {
            let mut blocks = [[0u8; 64]; MAX_LANES];
            let lo = b * 64;
            for (block, msg) in blocks.iter_mut().zip(chunk) {
                fill_eq_block(block, msg, lo, b + 1 == total_blocks);
            }
            compress_lanes(d, &mut states[..chunk.len()], &blocks[..chunk.len()]);
        }
        out.extend(states[..chunk.len()].iter().map(state_to_digest));
    }
    out
}

/// Lays out bytes `lo..lo + 64` of `msg`'s SHA-256 padded form: message
/// bytes, the 0x80 terminator where it falls in range, and (in the final
/// block) the big-endian bit length.
fn fill_eq_block(block: &mut [u8; 64], msg: &[u8], lo: usize, last: bool) {
    let len = msg.len();
    if lo + 64 <= len {
        block.copy_from_slice(&msg[lo..lo + 64]);
        return;
    }
    if lo < len {
        block[..len - lo].copy_from_slice(&msg[lo..]);
    }
    if (lo..lo + 64).contains(&len) {
        block[len - lo] = 0x80;
    }
    if last {
        block[56..].copy_from_slice(&((len as u64) * 8).to_be_bytes());
    }
}

/// One W-OTS chain step per lane, in place: every block must be a
/// pre-padded 36-byte message (`header ‖ value`, 0x80 at byte 36, the
/// 288-bit length in bytes 56..64); each block's value field (bytes
/// 4..36) is replaced by the block's digest, implementing
/// `value ← H(header ‖ value)` with no copies. The caller advances the
/// step byte between calls.
///
/// # Panics
///
/// Panics if `blocks` exceeds [`MAX_LANES`] entries or `d` is
/// unavailable on this host.
pub fn chain_steps_with(d: Dispatch, blocks: &mut [[u8; 64]]) {
    assert!(blocks.len() <= MAX_LANES, "mb: too many chain lanes");
    let mut states = [H0; MAX_LANES];
    compress_lanes(d, &mut states[..blocks.len()], blocks);
    for (block, state) in blocks.iter_mut().zip(&states) {
        state_to_bytes(state, &mut block[4..36]);
    }
}

/// Hashes `tag ‖ left_i ‖ right_i` (the 65-byte Merkle-node / chain-link
/// shape of [`super::sha256_pair`]) for every pair, two lockstep
/// compressions per lane batch.
///
/// # Panics
///
/// Panics if `d` is unavailable on this host.
pub fn pair_lanes_with(d: Dispatch, tag: u8, pairs: &[(Digest, Digest)]) -> Vec<Digest> {
    let mut out = Vec::with_capacity(pairs.len());
    for chunk in pairs.chunks(MAX_LANES) {
        let mut block0 = [[0u8; 64]; MAX_LANES];
        let mut block1 = [[0u8; 64]; MAX_LANES];
        let mut states = [H0; MAX_LANES];
        for (i, (left, right)) in chunk.iter().enumerate() {
            let mut both = [0u8; 128];
            fill_pair_blocks(tag, left, right, &mut both);
            block0[i].copy_from_slice(&both[..64]);
            block1[i].copy_from_slice(&both[64..]);
        }
        compress_lanes(d, &mut states[..chunk.len()], &block0[..chunk.len()]);
        compress_lanes(d, &mut states[..chunk.len()], &block1[..chunk.len()]);
        out.extend(states[..chunk.len()].iter().map(state_to_digest));
    }
    out
}

/// Lays out `tag ‖ left ‖ right` with SHA-256 padding over two blocks.
fn fill_pair_blocks(tag: u8, left: &Digest, right: &Digest, blocks: &mut [u8; 128]) {
    blocks[0] = tag;
    blocks[1..33].copy_from_slice(left.as_bytes());
    blocks[33..65].copy_from_slice(right.as_bytes());
    blocks[65] = 0x80;
    blocks[120..].copy_from_slice(&(65u64 * 8).to_be_bytes());
}

/// SHA-256 state after absorbing a block-aligned prefix; the shared
/// seed of [`finish_short_lanes_with`]. Lets HMAC under one key hash
/// many short messages without re-compressing the key pad every time.
#[derive(Debug, Clone, Copy)]
pub struct Midstate {
    state: [u32; 8],
    prefix_len: u64,
}

impl Midstate {
    /// Absorbs `prefix`, whose length must be a multiple of 64.
    ///
    /// # Panics
    ///
    /// Panics if `prefix.len()` is not block-aligned.
    pub fn new(prefix: &[u8]) -> Self {
        assert!(
            prefix.len().is_multiple_of(64),
            "midstate prefix must be block-aligned"
        );
        let mut state = H0;
        compress_blocks(&mut state, prefix);
        Self {
            state,
            prefix_len: prefix.len() as u64,
        }
    }
}

/// Finishes `prefix ‖ msg_i` for many short tails in lockstep: each
/// `msg` (≤ 55 bytes) is padded into the prefix's final block and all
/// lanes compress from the shared midstate at once.
///
/// # Panics
///
/// Panics if any message exceeds 55 bytes or `d` is unavailable here.
pub fn finish_short_lanes_with(d: Dispatch, mid: &Midstate, msgs: &[&[u8]]) -> Vec<Digest> {
    let mut out = Vec::with_capacity(msgs.len());
    for chunk in msgs.chunks(MAX_LANES) {
        let mut blocks = [[0u8; 64]; MAX_LANES];
        let mut states = [mid.state; MAX_LANES];
        for (block, msg) in blocks.iter_mut().zip(chunk) {
            assert!(
                msg.len() <= SHORT_MAX,
                "mb: message does not fit one padded block"
            );
            block[..msg.len()].copy_from_slice(msg);
            block[msg.len()] = 0x80;
            let bit_len = (mid.prefix_len + msg.len() as u64) * 8;
            block[56..].copy_from_slice(&bit_len.to_be_bytes());
        }
        compress_lanes(d, &mut states[..chunk.len()], &blocks[..chunk.len()]);
        out.extend(states[..chunk.len()].iter().map(state_to_digest));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::{sha256_pair, sha256_short, Sha256};
    use super::*;

    fn available_tiers() -> Vec<Dispatch> {
        Dispatch::all()
            .into_iter()
            .filter(|t| t.is_available())
            .collect()
    }

    /// Asserts `f` panics under every tier this host runs, then re-raises
    /// the last panic so the test's `should_panic` checks its message.
    fn panics_under_every_tier(f: impl Fn(Dispatch)) {
        let mut last = None;
        for tier in available_tiers() {
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(tier)));
            last = Some(caught.expect_err(&format!("tier {tier:?} accepted the input")));
        }
        std::panic::resume_unwind(last.expect("Single is always available"));
    }

    #[test]
    fn hash_lanes_matches_short_for_all_tiers_and_counts() {
        // Every tier, every batch size from a single lone message up to
        // two full batches plus a partial tail, every length class.
        for tier in available_tiers() {
            for n in 1..=(2 * MAX_LANES + 1) {
                let msgs: Vec<Vec<u8>> = (0..n)
                    .map(|i| {
                        let len = (i * 7 + n) % (SHORT_MAX + 1);
                        (0..len).map(|j| (i * 31 + j) as u8).collect()
                    })
                    .collect();
                let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
                let got = hash_lanes_with(tier, &refs);
                for (msg, digest) in msgs.iter().zip(&got) {
                    assert_eq!(*digest, sha256_short(msg), "tier {tier:?} n {n}");
                }
            }
        }
    }

    #[test]
    fn nist_abc_through_every_tier() {
        for tier in available_tiers() {
            let digests = hash_lanes_with(tier, &[b"abc".as_slice(); 8]);
            for d in digests {
                assert_eq!(
                    d.to_hex(),
                    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
                    "tier {tier:?}"
                );
            }
        }
    }

    #[test]
    fn hash_eq_lanes_matches_streaming_for_all_tiers_and_lengths() {
        // Every padding-boundary length class: empty, one block with and
        // without room for the length, exact multiples, the 0x80-fits-
        // but-length-does-not window (56..64), and the 34-block W-OTS
        // public-key shape (2145).
        for len in [0usize, 1, 55, 56, 63, 64, 65, 119, 120, 128, 2145] {
            for n in [1usize, MAX_LANES - 1, MAX_LANES, MAX_LANES + 3] {
                let msgs: Vec<Vec<u8>> = (0..n)
                    .map(|i| (0..len).map(|j| (i * 83 + j) as u8).collect())
                    .collect();
                let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
                for tier in available_tiers() {
                    let got = hash_eq_lanes_with(tier, &refs);
                    for (msg, digest) in msgs.iter().zip(&got) {
                        let mut h = Sha256::new();
                        h.update(msg);
                        assert_eq!(*digest, h.finalize(), "tier {tier:?} len {len} n {n}");
                    }
                }
            }
        }
        assert!(hash_eq_lanes_with(Dispatch::active(), &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "equal-length messages")]
    fn hash_eq_lanes_rejects_ragged_lengths() {
        panics_under_every_tier(|tier| {
            let _ = hash_eq_lanes_with(tier, &[b"aa".as_slice(), b"b".as_slice()]);
        });
    }

    #[test]
    fn chain_step_shape_matches_sequential_all_tiers() {
        // The exact W-OTS shape: 36-byte message, digest written back
        // over the value field, step byte advanced by the caller.
        for tier in available_tiers() {
            let mut blocks = [[0u8; 64]; MAX_LANES];
            let mut reference = [[0u8; 32]; MAX_LANES];
            for (l, block) in blocks.iter_mut().enumerate() {
                block[0] = 0x02;
                block[1..3].copy_from_slice(&(l as u16).to_le_bytes());
                block[3] = 0;
                for (j, byte) in block[4..36].iter_mut().enumerate() {
                    *byte = (l * 17 + j) as u8;
                }
                block[36] = 0x80;
                block[56..].copy_from_slice(&(36u64 * 8).to_be_bytes());
                reference[l].copy_from_slice(&block[4..36]);
            }
            for step in 0u8..5 {
                for (l, r) in reference.iter_mut().enumerate() {
                    let mut buf = [0u8; 36];
                    buf[0] = 0x02;
                    buf[1..3].copy_from_slice(&(l as u16).to_le_bytes());
                    buf[3] = step;
                    buf[4..].copy_from_slice(r);
                    *r = *sha256_short(&buf).as_bytes();
                }
                for block in blocks.iter_mut() {
                    block[3] = step;
                }
                chain_steps_with(tier, &mut blocks);
                for (l, block) in blocks.iter().enumerate() {
                    assert_eq!(
                        &block[4..36],
                        &reference[l][..],
                        "tier {tier:?} step {step} lane {l}"
                    );
                }
            }
        }
    }

    #[test]
    fn fixed_width_wrappers_match_sequential() {
        // A full 8-lane batch and a 4-lane one (half a vector on avx2)
        // under whatever tier this process dispatches to.
        for n in [8usize, 4] {
            let mut blocks = vec![[0u8; 64]; n];
            for (l, block) in blocks.iter_mut().enumerate() {
                for (j, byte) in block[..36].iter_mut().enumerate() {
                    *byte = (l * 13 + j) as u8;
                }
                block[36] = 0x80;
                block[56..].copy_from_slice(&(36u64 * 8).to_be_bytes());
            }
            let expected: Vec<Digest> = blocks.iter().map(|b| sha256_short(&b[..36])).collect();
            chain_steps_with(Dispatch::active(), &mut blocks);
            for (block, exp) in blocks.iter().zip(&expected) {
                assert_eq!(&block[4..36], exp.as_bytes(), "{n} lanes");
            }
        }
    }

    #[test]
    fn pair_lanes_matches_sha256_pair_all_tiers() {
        let pairs: Vec<(Digest, Digest)> = (0u64..11)
            .map(|i| {
                (
                    super::super::sha256(&i.to_le_bytes()),
                    super::super::sha256(&(i * 31).to_le_bytes()),
                )
            })
            .collect();
        for tier in available_tiers() {
            for tag in [0u8, 1, 0xFF] {
                let got = pair_lanes_with(tier, tag, &pairs);
                for ((left, right), digest) in pairs.iter().zip(&got) {
                    assert_eq!(
                        *digest,
                        sha256_pair(tag, left.as_bytes(), right.as_bytes()),
                        "tier {tier:?} tag {tag}"
                    );
                }
            }
        }
    }

    #[test]
    fn finish_short_lanes_matches_streaming_all_tiers() {
        for prefix_blocks in [1usize, 2] {
            let prefix: Vec<u8> = (0..prefix_blocks * 64).map(|i| i as u8 ^ 0x3C).collect();
            let mid = Midstate::new(&prefix);
            let msgs: Vec<Vec<u8>> = (0..9usize)
                .map(|i| (0..(i * 6) % 56).map(|j| (i + j) as u8).collect())
                .collect();
            let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
            for tier in available_tiers() {
                let got = finish_short_lanes_with(tier, &mid, &refs);
                for (msg, digest) in msgs.iter().zip(&got) {
                    let mut h = Sha256::new();
                    h.update(&prefix);
                    h.update(msg);
                    assert_eq!(*digest, h.finalize(), "tier {tier:?}");
                }
            }
        }
    }

    #[test]
    fn dispatch_invariants() {
        assert_eq!(Dispatch::all(), [Dispatch::Avx2, Dispatch::Single]);
        assert_eq!(Dispatch::Avx2.lanes(), MAX_LANES);
        assert!(Dispatch::Single.is_available());
        let active = Dispatch::active();
        assert!(active.is_available());
        // `scripts/check.sh` shows this line in every CI log.
        println!(
            "digest::mb dispatch in this process: {active:?} ({} lanes)",
            active.lanes()
        );
        // A pinned tier always lands somewhere runnable.
        assert!(clamp(Dispatch::Avx2).is_available());
    }

    #[test]
    #[should_panic(expected = "does not fit one padded block")]
    fn hash_lanes_rejects_long_messages() {
        let long = [0u8; 56];
        panics_under_every_tier(|tier| {
            let _ = hash_lanes_with(tier, &[&long]);
        });
    }
}
