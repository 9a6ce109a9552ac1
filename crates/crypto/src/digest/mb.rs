//! Lane-interleaved multi-buffer SHA-256.
//!
//! The W-OTS chain walk hashes 67 *independent* chains and Merkle level
//! construction hashes independent node pairs — data-parallel work that
//! the single-message paths in [`super`] feed through one compression at
//! a time. This module compresses up to `MAX_LANES` (16) independent
//! messages in lockstep with an AVX-512 kernel over a *transposed* state
//! layout: eight vectors hold the working variables `a..h`, one 32-bit
//! word per lane — the multi-buffer technique of Gueron and Krasnov
//! ("Simultaneous hashing of multiple messages", 2012). With `vprord`
//! and `vpternlogd` a round is about 17 instructions for all 16 lanes.
//!
//! # Dispatch
//!
//! Two tiers sit behind one API: [`Dispatch::Avx512`], the 16-lane
//! kernel (`x86_64`, runtime-detected `avx512f`), and
//! [`Dispatch::Single`], every lane on its own through [`super`]'s
//! SHA-NI / scalar dispatch — what every host without AVX-512 runs.
//! [`Dispatch::active`] picks the tier once per process: the
//! `NONREP_DISPATCH` environment variable (`avx512|single|auto`) pins one
//! for benches and tests, clamped to what the host can run; `auto` (or
//! unset) *times* both on the chain walk and picks the faster, so
//! dispatch never selects a tier slower than measured single-lane SHA-NI.
//! Only the private `compress_lanes` and [`walk_chains_with`] branch on
//! the tier.
//!
//! # API shape
//!
//! * [`hash_lanes`] / [`hash_lanes_with`] — N short (≤ 55-byte)
//!   messages to N digests; the differential-test anchor.
//! * [`walk_chains_with`] — W-OTS hash chains, many steps per call: a
//!   step hashes the 36-byte `head ‖ value`, so under `Avx512` the
//!   chain values stay transposed in registers from step to step.
//! * [`pair_lanes_with`] / [`hash_eq_lanes_with`] — Merkle nodes, and
//!   equal-length messages of any length (public-key compression).
//! * [`Midstate`] + [`finish_short_lanes_with`] — shared-prefix hashing
//!   (HMAC under one key: the W-OTS secret derivation).
//!
//! All lane-batched paths are bit-identical to their sequential
//! counterparts in [`super`]; `scripts/check.sh` runs the crypto suite
//! once pinned to each tier.

use std::sync::OnceLock;

use super::{compress_blocks, state_to_digest, Digest, H0};

/// Lane count of the AVX-512 kernel.
const MAX_LANES: usize = 16;

/// Steps between the chain values [`walk_chains_with`] can capture.
pub const CHECKPOINT_STRIDE: u8 = 4;

/// Chain values [`walk_chains_with`] captures per chain: after 0, 4, 8
/// and 12 steps.
pub const CHAIN_CHECKPOINTS: usize = 4;

/// Longest message that fits one padded SHA-256 block.
const SHORT_MAX: usize = 55;

/// Length of a chain-step message: a 4-byte head and a 32-byte value.
const CHAIN_MSG_LEN: usize = 36;

/// A multi-buffer dispatch tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dispatch {
    /// 16 lanes, AVX-512 transposed-state intrinsics kernel (`x86_64`,
    /// detected).
    Avx512,
    /// Multi-buffer off: one lane through [`super`]'s runtime dispatch
    /// (SHA-NI where the host has it, scalar otherwise). What a host
    /// without AVX-512 runs, and what `auto` picks when one lane measures
    /// faster than the AVX-512 kernel.
    Single,
}

impl Dispatch {
    /// Every tier, widest first.
    pub fn all() -> [Dispatch; 2] {
        [Dispatch::Avx512, Dispatch::Single]
    }

    /// Lanes the tier advances per compression.
    pub fn lanes(self) -> usize {
        match self {
            Dispatch::Avx512 => MAX_LANES,
            Dispatch::Single => 1,
        }
    }

    /// Whether this host can run the tier.
    pub fn is_available(self) -> bool {
        match self {
            #[cfg(target_arch = "x86_64")]
            Dispatch::Avx512 => is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            Dispatch::Avx512 => false,
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
    /// exists to *guarantee* which kernel runs (the pinned passes in
    /// `scripts/check.sh` rely on it); a typo silently falling back to
    /// auto would void that guarantee while reporting green.
    pub fn active() -> Dispatch {
        static ACTIVE: OnceLock<Dispatch> = OnceLock::new();
        *ACTIVE.get_or_init(|| match std::env::var("NONREP_DISPATCH").as_deref() {
            Ok("avx512") => clamp(Dispatch::Avx512),
            Ok("single") => Dispatch::Single,
            Ok("auto") | Ok("") | Err(_) => auto_select(),
            Ok(other) => panic!(
                "NONREP_DISPATCH={other:?} is not a dispatch tier \
                 (expected avx512|single|auto)"
            ),
        })
    }

    /// Panics unless this host can run the tier: the check every
    /// tier-explicit entry point makes before it reaches a kernel.
    fn assert_available(self) {
        assert!(
            self.is_available(),
            "dispatch tier {self:?} is not available on this host"
        );
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

/// Picks the auto tier: where the host has AVX-512, the kernel is timed
/// against the single-lane path (SHA-NI on capable hosts) on the chain
/// walk and selected only when it measured *strictly faster* — so
/// dispatch can never pick a tier slower than measured SHA-NI. The
/// measurement runs once, on first use.
fn auto_select() -> Dispatch {
    if Dispatch::Avx512.is_available() && time_tier(Dispatch::Avx512) < time_tier(Dispatch::Single)
    {
        Dispatch::Avx512
    } else {
        Dispatch::Single
    }
}

/// Picoseconds per chain step for `d` on the keygen shape — 16 chains
/// walked 15 steps by [`walk_chains_with`] — best of three runs.
fn time_tier(d: Dispatch) -> u128 {
    use std::hint::black_box;
    use std::time::Instant;

    const WALKS: usize = 8;
    const STEPS: u8 = 15;
    let heads: [[u8; 4]; MAX_LANES] = std::array::from_fn(|l| [0x02, l as u8, 0, 0]);
    let steps = [STEPS; MAX_LANES];
    let mut values: [[u8; 32]; MAX_LANES] =
        std::array::from_fn(|l| std::array::from_fn(|i| (l as u8).wrapping_mul(31) ^ i as u8));
    let mut best = u128::MAX;
    for _ in 0..3 {
        let start = Instant::now();
        for _ in 0..WALKS {
            walk_chains_with(d, &heads, &steps, &mut values, &mut []);
        }
        best = best.min(start.elapsed().as_nanos());
        black_box(&values);
    }
    best.saturating_mul(1000) / (WALKS * MAX_LANES * usize::from(STEPS)) as u128
}

/// AVX-512 backend: 16 lanes per `__m512i` vector.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::super::{H0, K};
    use super::{CHAIN_CHECKPOINTS, CHAIN_MSG_LEN, CHECKPOINT_STRIDE, MAX_LANES};
    use core::arch::x86_64::*;

    type V = __m512i;

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn splat(x: u32) -> V {
        _mm512_set1_epi32(x as i32)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn add(a: V, b: V) -> V {
        _mm512_add_epi32(a, b)
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load(words: &[u32; MAX_LANES]) -> V {
        // SAFETY: `words` is 64 readable bytes; the load is unaligned.
        unsafe { _mm512_loadu_si512(words.as_ptr().cast()) }
    }

    /// `x ⋙ A ^ x ⋙ B ^ x ⋙ C`: the round functions Σ0 and Σ1.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn big_sigma<const A: i32, const B: i32, const C: i32>(x: V) -> V {
        let (a, b, c) = (
            _mm512_ror_epi32::<A>(x),
            _mm512_ror_epi32::<B>(x),
            _mm512_ror_epi32::<C>(x),
        );
        _mm512_ternarylogic_epi32::<0x96>(a, b, c)
    }

    /// `x ⋙ A ^ x ⋙ B ^ x ≫ C`: the schedule functions σ0 and σ1.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn small_sigma<const A: i32, const B: i32, const C: u32>(x: V) -> V {
        let (a, b, c) = (
            _mm512_ror_epi32::<A>(x),
            _mm512_ror_epi32::<B>(x),
            _mm512_srli_epi32::<C>(x),
        );
        _mm512_ternarylogic_epi32::<0x96>(a, b, c)
    }

    /// One round of the compression for every lane at once; identical
    /// structure to the scalar `round!` in `digest`, over lane vectors,
    /// with Ch (0xCA), Maj (0xE8) and each three-way xor one
    /// `vpternlogd`.
    macro_rules! mb_round {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
         $k:expr, $w:expr) => {{
            let ch = _mm512_ternarylogic_epi32::<0xCA>($e, $f, $g);
            let t1 = add(
                add($h, big_sigma::<6, 11, 25>($e)),
                add(ch, add(splat($k), $w)),
            );
            let maj = _mm512_ternarylogic_epi32::<0xE8>($a, $b, $c);
            $d = add($d, t1);
            $h = add(t1, add(big_sigma::<2, 13, 22>($a), maj));
        }};
    }

    /// Eight rounds with the register rotation hard-coded (mirrors the
    /// scalar `rounds8!`).
    macro_rules! mb_rounds8 {
        ($a:ident, $b:ident, $c:ident, $d:ident, $e:ident, $f:ident, $g:ident, $h:ident,
         $k:ident, $t:expr, $w:ident) => {{
            mb_round!($a, $b, $c, $d, $e, $f, $g, $h, $k[$t], $w[$t]);
            mb_round!($h, $a, $b, $c, $d, $e, $f, $g, $k[$t + 1], $w[$t + 1]);
            mb_round!($g, $h, $a, $b, $c, $d, $e, $f, $k[$t + 2], $w[$t + 2]);
            mb_round!($f, $g, $h, $a, $b, $c, $d, $e, $k[$t + 3], $w[$t + 3]);
            mb_round!($e, $f, $g, $h, $a, $b, $c, $d, $k[$t + 4], $w[$t + 4]);
            mb_round!($d, $e, $f, $g, $h, $a, $b, $c, $k[$t + 5], $w[$t + 5]);
            mb_round!($c, $d, $e, $f, $g, $h, $a, $b, $k[$t + 6], $w[$t + 6]);
            mb_round!($b, $c, $d, $e, $f, $g, $h, $a, $k[$t + 7], $w[$t + 7]);
        }};
    }

    /// The next sixteen words of the rolling message schedule, every
    /// lane at once: word `t` of `w` becomes W[16 + t] of the pass. The
    /// steps are spelled out so every index is a constant.
    macro_rules! mb_schedule16 {
        ($w:ident, $($t:literal)*) => {{
            $(
                let (w15, w2) = ($w[($t + 1) & 15], $w[($t + 14) & 15]);
                let sum = add(small_sigma::<7, 18, 3>(w15), small_sigma::<17, 19, 10>(w2));
                $w[$t] = add(add($w[$t], $w[($t + 9) & 15]), sum);
            )*
        }};
    }

    /// Compresses one transposed block per lane into `state`: 64 rounds
    /// over the message vectors `w`, then the feed-forward. Rounds 16..64
    /// run as three passes of sixteen, so every schedule index is a
    /// constant (`w` stays in registers) while the code stays small
    /// enough for the decoded-instruction cache.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn compress(state: &mut [V; 8], mut w: [V; 16]) {
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        mb_rounds8!(a, b, c, d, e, f, g, h, K, 0, w);
        mb_rounds8!(a, b, c, d, e, f, g, h, K, 8, w);
        let mut t = 16;
        while t < 64 {
            mb_schedule16!(w, 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15);
            let k = &K[t..t + 16];
            mb_rounds8!(a, b, c, d, e, f, g, h, k, 0, w);
            mb_rounds8!(a, b, c, d, e, f, g, h, k, 8, w);
            t += 16;
        }
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = add(*s, v);
        }
    }

    /// Compresses one 64-byte block per lane, up to sixteen lanes,
    /// gathered straight into transposed vectors; spare lanes repeat the
    /// last one and are never written back.
    ///
    /// # Safety
    ///
    /// Caller must ensure the avx512f target feature is available, and
    /// that `states` and `blocks` each hold at least one lane.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn compress_lanes(states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
        let last = states.len().min(blocks.len()).min(MAX_LANES) - 1;
        let lane = _mm512_min_epu32(
            _mm512_set_epi32(15, 14, 13, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0),
            splat(last as u32),
        );
        let (block_at, state_at) = (_mm512_slli_epi32::<4>(lane), _mm512_slli_epi32::<3>(lane));
        let mut w = [splat(0); 16];
        for (t, v) in (0..).zip(w.iter_mut()) {
            *v = bswap(gather(blocks.as_ptr().cast(), add(block_at, splat(t))));
        }
        let mut state = [splat(0); 8];
        for (i, v) in (0..).zip(state.iter_mut()) {
            *v = gather(states.as_ptr().cast(), add(state_at, splat(i)));
        }
        compress(&mut state, w);
        let live = live_lanes(last + 1);
        for (i, &v) in (0..).zip(&state) {
            scatter(states.as_mut_ptr().cast(), live, add(state_at, splat(i)), v);
        }
    }

    /// The mask of the first `n` (1..=16) lanes.
    fn live_lanes(n: usize) -> __mmask16 {
        (u32::MAX >> (32 - n)) as __mmask16
    }

    /// Reverses the bytes of every 32-bit lane: big-endian words to
    /// numbers and back.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn bswap(v: V) -> V {
        _mm512_ternarylogic_epi32::<0xCA>(
            splat(0xFF00_FF00),
            _mm512_ror_epi32::<8>(v),
            _mm512_rol_epi32::<8>(v),
        )
    }

    /// Word `at[l]` of `base` in lane `l`.
    ///
    /// # Safety
    ///
    /// Every `at[l]` must index a word of `base`'s allocation.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn gather(base: *const u32, at: V) -> V {
        _mm512_i32gather_epi32::<4>(at, base.cast())
    }

    /// Writes lane `l` of `v` to word `at[l]` of `base`, for the lanes
    /// in `live`.
    ///
    /// # Safety
    ///
    /// Every live `at[l]` must index a word of `base`'s allocation.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn scatter(base: *mut u32, live: __mmask16, at: V, v: V) {
        _mm512_mask_i32scatter_epi32::<4>(base.cast(), live, at, v);
    }

    /// The 16-lane chain walk behind [`super::walk_chains_with`]:
    /// chains are grouped by remaining steps, deepest first, so each
    /// group of sixteen runs about as many steps as its lanes need.
    /// A group's values are gathered straight into transposed vectors
    /// and scattered back, with its checkpoints, when it is done.
    ///
    /// # Safety
    ///
    /// Caller must ensure the avx512f target feature is available, that
    /// `heads`, `steps` and `values` have one entry per chain, and that
    /// `checkpoints` is empty or holds [`CHAIN_CHECKPOINTS`] per chain.
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn walk_chains(
        heads: &[[u8; 4]],
        steps: &[u8],
        values: &mut [[u8; 32]],
        checkpoints: &mut [[u8; 32]],
    ) {
        // Gather and scatter offsets are signed 32-bit word indices.
        assert!(
            (checkpoints.len().max(values.len()) as u64) * 8 <= i32::MAX as u64,
            "mb: too many chains for one walk"
        );
        let capture = !checkpoints.is_empty();
        // A chain with no steps to walk needs a lane only to have its
        // checkpoints written.
        let mut order: Vec<usize> = (0..values.len())
            .filter(|&i| capture || steps[i] > 0)
            .collect();
        order.sort_unstable_by_key(|&i| std::cmp::Reverse(steps[i]));
        for group in order.chunks(MAX_LANES) {
            // Spare lanes repeat the group's first chain with no steps,
            // and are never written back.
            let mut chain = [group[0] as u32; MAX_LANES];
            let mut head = [0u32; MAX_LANES];
            let mut left = [0u32; MAX_LANES];
            for (l, &i) in group.iter().enumerate() {
                chain[l] = i as u32;
                head[l] = u32::from_be_bytes(heads[i]);
                left[l] = u32::from(steps[i]);
            }
            walk16(
                values.as_mut_ptr(),
                load(&chain),
                live_lanes(group.len()),
                &head,
                &left,
                capture.then_some(checkpoints.as_mut_ptr()),
            );
        }
    }

    /// Walks up to sixteen chains of `values`, chain `chain[l]` in lane
    /// `l`: the lane hashes `head[l] + k ‖ value` at its step `k` while
    /// `k < left[l]`, then keeps its value (mask blend). The message
    /// needs no transpose, byte swap or padding per step: word 0 is the
    /// head, words 1..8 the previous state, words 9..15 the fixed
    /// padding of a 36-byte message. Given `checkpoints`, every live
    /// lane's value at steps 0, 4, 8 and 12 (or its final value, if it
    /// stops sooner) is written there, and no later step's.
    ///
    /// # Safety
    ///
    /// Every lane's chain must index `values`, and `checkpoints`, if
    /// given, [`CHAIN_CHECKPOINTS`] values per chain.
    #[target_feature(enable = "avx512f")]
    unsafe fn walk16(
        values: *mut [u8; 32],
        chain: V,
        live: __mmask16,
        head: &[u32; MAX_LANES],
        left: &[u32; MAX_LANES],
        checkpoints: Option<*mut [u8; 32]>,
    ) {
        let max = left.iter().copied().max().unwrap_or(0);
        let head = load(head);
        let left = load(left);
        let at = _mm512_slli_epi32::<3>(chain);
        let saved_at = _mm512_slli_epi32::<5>(chain);
        let mut iv = [splat(0); 8];
        for (v, &h) in iv.iter_mut().zip(&H0) {
            *v = splat(h);
        }
        let zero = splat(0);
        let pad = splat(0x8000_0000);
        let bits = splat(CHAIN_MSG_LEN as u32 * 8);
        let mut value = [zero; 8];
        for (w, v) in (0..).zip(value.iter_mut()) {
            *v = bswap(gather(values.cast(), add(at, splat(w))));
        }
        let stride = u32::from(CHECKPOINT_STRIDE);
        let saves = CHAIN_CHECKPOINTS as u32 * stride;
        for k in 0..max {
            if let (Some(checkpoints), 0, true) = (checkpoints, k % stride, k < saves) {
                save(checkpoints, live, saved_at, k / stride, &value);
            }
            let mut w = [zero; 16];
            w[0] = add(head, splat(k));
            w[1..9].copy_from_slice(&value);
            (w[9], w[15]) = (pad, bits);
            let mut next = iv;
            compress(&mut next, w);
            let stepping = _mm512_cmplt_epu32_mask(splat(k), left);
            for (v, n) in value.iter_mut().zip(next) {
                *v = _mm512_mask_blend_epi32(stepping, *v, n);
            }
        }
        if let Some(checkpoints) = checkpoints {
            for j in max.div_ceil(stride)..CHAIN_CHECKPOINTS as u32 {
                save(checkpoints, live, saved_at, j, &value);
            }
        }
        for (w, &v) in (0..).zip(&value) {
            scatter(values.cast(), live, add(at, splat(w)), bswap(v));
        }
    }

    /// Writes every live lane's `value` as checkpoint `j` of its chain
    /// (`saved_at`: the chain's first checkpoint word).
    ///
    /// # Safety
    ///
    /// As for [`walk16`]'s `checkpoints`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn save(
        checkpoints: *mut [u8; 32],
        live: __mmask16,
        saved_at: V,
        j: u32,
        value: &[V; 8],
    ) {
        let at = add(saved_at, splat(8 * j));
        for (w, &v) in (0..).zip(value) {
            scatter(checkpoints.cast(), live, add(at, splat(w)), bswap(v));
        }
    }
}

/// Compresses one 64-byte block per lane (at most [`MAX_LANES`]) into
/// its lane's state under `d`. The kernel costs as much for one lane as
/// for sixteen, so a batch that fills less than half of it (a Merkle
/// tree's top levels, a one-frame batch tree) runs lane by lane.
fn compress_lanes(d: Dispatch, states: &mut [[u32; 8]], blocks: &[[u8; 64]]) {
    debug_assert!(states.len() == blocks.len() && states.len() <= MAX_LANES);
    if d == Dispatch::Avx512 {
        d.assert_available();
        if states.len() >= MAX_LANES / 2 {
            // SAFETY: AVX-512 on this host is asserted above, and the
            // batch holds at least half the lanes.
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx512::compress_lanes(states, blocks)
            };
            return;
        }
    }
    for (state, block) in states.iter_mut().zip(blocks) {
        compress_blocks(state, &block[..]);
    }
}

/// Walks independent hash chains of the W-OTS shape, in place: a step
/// hashes the 36-byte `head ‖ value` into the new value, then increments
/// the head's last (step) byte; chain `i` starts from `values[i]` under
/// `heads[i]` and advances `steps[i]` steps. Given a non-empty
/// `checkpoints` ([`CHAIN_CHECKPOINTS`] per chain, chain after chain),
/// chain `i`'s value after `min(4j, steps[i])` steps lands in
/// `checkpoints[i * CHAIN_CHECKPOINTS + j]`.
///
/// Under [`Dispatch::Avx512`] the chains go through the lanes sixteen at
/// a time, deepest first, each group held in registers across its steps;
/// under [`Dispatch::Single`] they walk one after another. Both give the
/// same values bit for bit.
///
/// # Panics
///
/// Panics if `heads`, `steps` and `values` differ in length, if
/// `checkpoints` is neither empty nor [`CHAIN_CHECKPOINTS`] per chain, if
/// a chain's step byte would pass 255, or if `d` is unavailable here.
pub fn walk_chains_with(
    d: Dispatch,
    heads: &[[u8; 4]],
    steps: &[u8],
    values: &mut [[u8; 32]],
    checkpoints: &mut [[u8; 32]],
) {
    assert!(
        heads.len() == values.len() && steps.len() == values.len(),
        "mb: one head and one step count per chain"
    );
    assert!(
        checkpoints.is_empty() || checkpoints.len() == values.len() * CHAIN_CHECKPOINTS,
        "mb: checkpoints for every chain or none"
    );
    assert!(
        heads
            .iter()
            .zip(steps)
            .all(|(head, &n)| usize::from(head[3]) + usize::from(n) <= 256),
        "mb: a chain's step byte passes 255"
    );
    match d {
        Dispatch::Single => {
            let mut saved = checkpoints.chunks_exact_mut(CHAIN_CHECKPOINTS);
            for ((head, &n), value) in heads.iter().zip(steps).zip(values.iter_mut()) {
                walk_one(*head, n, value, saved.next().unwrap_or_default());
            }
        }
        Dispatch::Avx512 => {
            d.assert_available();
            // SAFETY: asserted above: AVX-512 here, one head and step count per
            // chain, no checkpoints or all `CHAIN_CHECKPOINTS` (the most it writes).
            #[cfg(target_arch = "x86_64")]
            unsafe {
                avx512::walk_chains(heads, steps, values, checkpoints)
            };
        }
    }
}

/// One chain of [`walk_chains_with`] on the single lane: the message
/// block is padded once and each step's digest is written back over its
/// value field.
fn walk_one(head: [u8; 4], steps: u8, value: &mut [u8; 32], saved: &mut [[u8; 32]]) {
    let mut block = [0u8; 64];
    block[..4].copy_from_slice(&head);
    block[4..CHAIN_MSG_LEN].copy_from_slice(value);
    block[CHAIN_MSG_LEN] = 0x80;
    block[56..].copy_from_slice(&(CHAIN_MSG_LEN as u64 * 8).to_be_bytes());
    for k in 0..steps {
        if k % CHECKPOINT_STRIDE == 0 {
            if let Some(slot) = saved.get_mut(usize::from(k / CHECKPOINT_STRIDE)) {
                slot.copy_from_slice(&block[4..CHAIN_MSG_LEN]);
            }
        }
        let mut state = H0;
        compress_blocks(&mut state, &block);
        for (chunk, word) in block[4..CHAIN_MSG_LEN].chunks_exact_mut(4).zip(state) {
            chunk.copy_from_slice(&word.to_be_bytes());
        }
        block[3] = block[3].wrapping_add(1);
    }
    value.copy_from_slice(&block[4..CHAIN_MSG_LEN]);
    for slot in saved
        .iter_mut()
        .skip(usize::from(steps.div_ceil(CHECKPOINT_STRIDE)))
    {
        *slot = *value;
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
    finish_short_lanes_with(d, &Midstate::new(&[]), msgs)
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

/// Hashes `tag ‖ left_i ‖ right_i` (the 65-byte Merkle-node / chain-link
/// shape of [`super::sha256_pair`]) for every pair: two lockstep
/// compressions per lane batch through [`hash_eq_lanes_with`].
///
/// # Panics
///
/// Panics if `d` is unavailable on this host.
pub fn pair_lanes_with(d: Dispatch, tag: u8, pairs: &[(Digest, Digest)]) -> Vec<Digest> {
    let msgs: Vec<[u8; 65]> = pairs
        .iter()
        .map(|(left, right)| {
            let mut msg = [tag; 65];
            msg[1..33].copy_from_slice(left.as_bytes());
            msg[33..].copy_from_slice(right.as_bytes());
            msg
        })
        .collect();
    let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
    hash_eq_lanes_with(d, &refs)
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
        // The exact W-OTS shape: 36-byte `head ‖ value` messages, the
        // step byte advancing each step. A full 16-lane group and a
        // partial one, every lane starting at its own step and walking
        // its own count, so lanes stop at different steps; then every
        // chain walking past the last checkpoint (steps 16..20 save
        // nothing). Each pattern runs with and without checkpoints.
        let chains = MAX_LANES + 3;
        let heads: Vec<[u8; 4]> = (0..chains)
            .map(|l| [0x02, l as u8, (l >> 8) as u8, (l % 5) as u8])
            .collect();
        let init: Vec<[u8; 32]> = (0..chains)
            .map(|l| std::array::from_fn(|j| (l * 17 + j) as u8))
            .collect();
        let skewed: Vec<u8> = (0..chains).map(|l| ((l * 7) % 9) as u8).collect();
        let long: Vec<u8> = (0..chains).map(|l| 17 + (l % 4) as u8).collect();
        for steps in [skewed, long] {
            let mut want = init.clone();
            let mut want_saved = vec![[0u8; 32]; chains * CHAIN_CHECKPOINTS];
            for (i, ((head, &n), value)) in heads.iter().zip(&steps).zip(&mut want).enumerate() {
                let mut msg = [0u8; 36];
                msg[..4].copy_from_slice(head);
                for k in 0..n {
                    if k % CHECKPOINT_STRIDE == 0
                        && usize::from(k / CHECKPOINT_STRIDE) < CHAIN_CHECKPOINTS
                    {
                        want_saved[i * CHAIN_CHECKPOINTS + usize::from(k / CHECKPOINT_STRIDE)] =
                            *value;
                    }
                    msg[3] = head[3] + k;
                    msg[4..].copy_from_slice(value);
                    *value = *sha256_short(&msg).as_bytes();
                }
                for j in usize::from(n.div_ceil(CHECKPOINT_STRIDE))..CHAIN_CHECKPOINTS {
                    want_saved[i * CHAIN_CHECKPOINTS + j] = *value;
                }
            }
            for tier in available_tiers() {
                let mut got = init.clone();
                walk_chains_with(tier, &heads, &steps, &mut got, &mut []);
                assert_eq!(got, want, "tier {tier:?} steps {steps:?}");
                let mut got = init.clone();
                let mut saved = vec![[0u8; 32]; chains * CHAIN_CHECKPOINTS];
                walk_chains_with(tier, &heads, &steps, &mut got, &mut saved);
                assert_eq!(got, want, "tier {tier:?} steps {steps:?} with checkpoints");
                assert_eq!(saved, want_saved, "tier {tier:?} steps {steps:?}");
            }
        }
    }

    #[test]
    fn pair_lanes_matches_sha256_pair_all_tiers() {
        let pairs: Vec<(Digest, Digest)> = (0u64..2 * MAX_LANES as u64 + 3)
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
            let msgs: Vec<Vec<u8>> = (0..MAX_LANES + 3)
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
        assert_eq!(Dispatch::all(), [Dispatch::Avx512, Dispatch::Single]);
        assert_eq!(Dispatch::Avx512.lanes(), 16);
        assert_eq!(Dispatch::Avx512.lanes(), MAX_LANES);
        assert!(Dispatch::Single.is_available());
        let active = Dispatch::active();
        assert!(active.is_available());
        // `scripts/check.sh` shows this line in every CI log.
        println!(
            "digest::mb dispatch in this process: {active:?} ({} lanes)",
            active.lanes()
        );
        // A pinned tier always lands somewhere runnable.
        assert!(clamp(Dispatch::Avx512).is_available());
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
