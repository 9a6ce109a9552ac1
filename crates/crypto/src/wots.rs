//! Winternitz one-time signatures (W-OTS) over SHA-256.
//!
//! The one-time building block of the many-time Merkle signature scheme
//! ([`crate::mss`]). Parameters: `w = 16` (4 bits per chunk), so a 256-bit
//! message digest is cut into 64 chunks plus 3 checksum chunks — 67 hash
//! chains of length 15.
//!
//! Chain steps are domain-separated by chain index and step number so that
//! values from one chain/step can never be replayed in another.
//!
//! **One-time** means exactly that: signing two different messages with the
//! same key reveals enough chain preimages to forge. The MSS layer enforces
//! single use; this module documents and tests the primitive in isolation.
//!
//! # Where the leaf secret lives
//!
//! A key is a 32-byte seed; the 67 chain secrets are HMACs of it. Signing
//! from the seed ([`WotsKeyPair::sign_from_seed_with`]) re-derives those
//! secrets and walks every chain up to its digest chunk: ≈ 630
//! compressions. Batch keygen ([`WotsKeyPair::public_keys_and_checkpoints_with`])
//! can instead keep each chain's value at steps 0, 4, 8 and 12
//! ([`KEY_CHECKPOINTS`] values, 8 576 B per key), which it computes anyway
//! on its way to the chain ends; signing from those
//! ([`WotsKeyPair::sign_from_checkpoints_with`]) starts each chain at the
//! highest stored step not above its chunk and walks the remaining 0–3
//! steps: ≈ 100 compressions. Both give the same signature bit for bit.
//! The caller keeps the checkpoints as secret as the seed, and destroys
//! them on use.
//!
//! # Performance
//!
//! The 67 chains are *independent*, so key generation, signing and
//! verification walk them lane-batched through the multi-buffer engine
//! ([`crate::digest::mb`]): up to eight chains advance per compression,
//! scheduled deepest-remaining-first so lanes stay full as chains finish
//! at different steps, and the per-chain secrets are derived with the
//! batched HMAC path ([`crate::hmac::hmac_short_lanes_with`]). Every
//! public entry point has a `_with` variant taking an explicit
//! [`mb::Dispatch`] tier: [`mb::Dispatch::Avx2`] walks eight chains per
//! compression, and [`mb::Dispatch::Single`] runs one chain at a time;
//! both produce the same keys and signatures bit for bit. The per-key
//! paths under `Single` ([`WotsKeyPair::from_seed_with`],
//! [`WotsKeyPair::sign_from_seed_with`]) step through
//! [`crate::digest::sha256_short`] and are the sequential reference the
//! lane walks are tested against.

use crate::digest::{mb, sha256_short, Digest, Sha256};
use crate::hmac::{hmac_sha256, hmac_short_lanes_with};

/// Chunks carrying message digest bits (256 / 4).
pub const MSG_CHUNKS: usize = 64;
/// Chunks carrying the checksum (max checksum 64*15 = 960 < 16^3).
pub const CSUM_CHUNKS: usize = 3;
/// Total number of hash chains.
pub const CHAINS: usize = MSG_CHUNKS + CSUM_CHUNKS;
/// Maximum chain step (w - 1).
pub const MAX_STEP: u8 = 15;
/// Chain steps between stored checkpoints: keygen keeps steps 0, 4, 8
/// and 12, so signing from them walks at most 3 steps per chain.
const CHECKPOINT_STRIDE: u8 = 4;
/// Checkpoints kept per chain.
const CHAIN_CHECKPOINTS: usize = (MAX_STEP / CHECKPOINT_STRIDE) as usize + 1;
/// Checkpoint values kept per key: each chain's values at steps 0, 4, 8
/// and 12, chain after chain. 268 values, 8 576 bytes.
pub const KEY_CHECKPOINTS: usize = CHAINS * CHAIN_CHECKPOINTS;

const CHAIN_TAG: u8 = 0x02;
const PK_TAG: u8 = 0x03;

/// A W-OTS signature: one 32-byte chain value per chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WotsSignature {
    /// Chain values, one per chain, in chain order.
    pub chains: [[u8; 32]; CHAINS],
}

impl WotsSignature {
    /// Serialized size in bytes.
    pub const BYTE_LEN: usize = CHAINS * 32;

    /// Flattens the signature to bytes (for transport/evidence encoding).
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::BYTE_LEN);
        for chain in &self.chains {
            out.extend_from_slice(chain);
        }
        out
    }

    /// Parses a signature from bytes produced by [`WotsSignature::to_bytes`].
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        if bytes.len() != Self::BYTE_LEN {
            return None;
        }
        let mut chains = [[0u8; 32]; CHAINS];
        for (i, chunk) in bytes.chunks(32).enumerate() {
            chains[i].copy_from_slice(chunk);
        }
        Some(Self { chains })
    }
}

/// A W-OTS key pair derived from a 32-byte seed.
///
/// Per-chain secrets are derived `sk_i = HMAC(seed, chain_index)`, so only
/// the seed needs storing; destroying the seed after use gives forward
/// security at the MSS layer.
#[derive(Clone)]
pub struct WotsKeyPair {
    seed: [u8; 32],
    public: Digest,
}

impl std::fmt::Debug for WotsKeyPair {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WotsKeyPair")
            .field("public", &self.public)
            .finish_non_exhaustive()
    }
}

/// Splits a digest into the 67 Winternitz chunk values (message + checksum).
fn chunks_of(digest: &Digest) -> [u8; CHAINS] {
    let mut out = [0u8; CHAINS];
    for (i, byte) in digest.as_bytes().iter().enumerate() {
        out[2 * i] = byte >> 4;
        out[2 * i + 1] = byte & 0x0F;
    }
    let csum: u16 = out[..MSG_CHUNKS]
        .iter()
        .map(|&c| u16::from(MAX_STEP - c))
        .sum();
    // 3 base-16 digits, most significant first.
    out[MSG_CHUNKS] = ((csum >> 8) & 0x0F) as u8;
    out[MSG_CHUNKS + 1] = ((csum >> 4) & 0x0F) as u8;
    out[MSG_CHUNKS + 2] = (csum & 0x0F) as u8;
    out
}

/// Applies the domain-separated chain function `steps` times starting at
/// step `from`: the sequential reference the lane-batched walk is tested
/// against.
fn chain(mut value: [u8; 32], chain_idx: u16, from: u8, steps: u8) -> [u8; 32] {
    // 36-byte message — fits one padded block, so each step is a single
    // compression over a stack buffer.
    let mut buf = [0u8; 36];
    buf[0] = CHAIN_TAG;
    buf[1..3].copy_from_slice(&chain_idx.to_le_bytes());
    for s in from..from + steps {
        buf[3] = s;
        buf[4..].copy_from_slice(&value);
        value = *sha256_short(&buf).as_bytes();
    }
    value
}

/// A 64-byte compression block pre-padded for the 36-byte chain-step
/// message of `chain_idx`; the step byte and value field are filled per
/// step.
fn padded_chain_block(chain_idx: u16) -> [u8; 64] {
    let mut block = [0u8; 64];
    block[0] = CHAIN_TAG;
    block[1..3].copy_from_slice(&chain_idx.to_le_bytes());
    block[36] = 0x80;
    block[56..].copy_from_slice(&(36u64 * 8).to_be_bytes());
    block
}

/// Walks all 67 chains of one key: chain `i` starts from `values[i]` at
/// step `start[i]` and advances `steps[i]` steps in place.
///
/// Under a multi-lane dispatch the walk runs lane-batched: chains are
/// scheduled deepest-remaining-first into the tier's lanes, every lane
/// advances one step per lockstep compression, and a finished lane is
/// immediately refilled with the next pending chain — so lanes stay
/// full even though chains finish at different steps (signing and
/// verification advance each chain by its digest-dependent chunk).
fn walk_chains(
    d: mb::Dispatch,
    values: &mut [[u8; 32]; CHAINS],
    start: &[u8; CHAINS],
    steps: &[u8; CHAINS],
) {
    let width = d.lanes();
    if width <= 1 {
        for i in 0..CHAINS {
            if steps[i] > 0 {
                values[i] = chain(values[i], i as u16, start[i], steps[i]);
            }
        }
        return;
    }
    // Deepest chains first: the stragglers start early, so the tail of
    // the schedule (when fewer chains remain than lanes) is short.
    let mut order: Vec<usize> = (0..CHAINS).filter(|&i| steps[i] > 0).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(steps[i]));
    let mut next = 0usize;
    let mut blocks = [[0u8; 64]; mb::MAX_LANES];
    let mut lane_chain = [usize::MAX; mb::MAX_LANES];
    let mut lane_left = [0u8; mb::MAX_LANES];
    let mut active = 0usize;
    loop {
        for l in 0..width {
            if lane_left[l] > 0 {
                continue;
            }
            if lane_chain[l] != usize::MAX {
                // Chain finished: its final value sits in the block.
                values[lane_chain[l]].copy_from_slice(&blocks[l][4..36]);
                lane_chain[l] = usize::MAX;
                active -= 1;
            }
            if next < order.len() {
                let c = order[next];
                next += 1;
                blocks[l] = padded_chain_block(c as u16);
                blocks[l][3] = start[c];
                blocks[l][4..36].copy_from_slice(&values[c]);
                lane_chain[l] = c;
                lane_left[l] = steps[c];
                active += 1;
            }
        }
        if active == 0 {
            return;
        }
        mb::chain_steps_with(d, &mut blocks[..width]);
        for l in 0..width {
            if lane_chain[l] != usize::MAX {
                lane_left[l] -= 1;
                if lane_left[l] > 0 {
                    blocks[l][3] += 1;
                }
            }
        }
    }
}

/// The keygen walk: advances every chain of `values` (67 per key,
/// key-major, so chain header `i % CHAINS`) from its secret to its end,
/// in place. Every chain runs the same 15 steps, so groups of
/// `d.lanes()` chains go through the lanes in lockstep with no
/// scheduling, and lanes stay full *across* key boundaries.
///
/// With `CAPTURE`, chain `i`'s values at steps 0, 4, 8 and 12 land in
/// `checkpoints[i * CHAIN_CHECKPOINTS..(i + 1) * CHAIN_CHECKPOINTS]`;
/// without it `checkpoints` is not touched, and the copies compile away.
fn walk_to_ends<const CAPTURE: bool>(
    d: mb::Dispatch,
    values: &mut [[u8; 32]],
    checkpoints: &mut [[u8; 32]],
) {
    let width = d.lanes();
    let mut blocks = [[0u8; 64]; mb::MAX_LANES];
    for (g, group) in values.chunks_mut(width).enumerate() {
        let first = g * width;
        let lanes = &mut blocks[..group.len()];
        for (l, (block, value)) in lanes.iter_mut().zip(group.iter()).enumerate() {
            *block = padded_chain_block(((first + l) % CHAINS) as u16);
            block[4..36].copy_from_slice(value);
        }
        for step in 0..MAX_STEP {
            if CAPTURE && step % CHECKPOINT_STRIDE == 0 {
                let j = usize::from(step / CHECKPOINT_STRIDE);
                for (l, block) in lanes.iter().enumerate() {
                    checkpoints[(first + l) * CHAIN_CHECKPOINTS + j].copy_from_slice(&block[4..36]);
                }
            }
            for block in lanes.iter_mut() {
                block[3] = step;
            }
            mb::chain_steps_with(d, lanes);
        }
        for (value, block) in group.iter_mut().zip(lanes.iter()) {
            value.copy_from_slice(&block[4..36]);
        }
    }
}

fn derive_secret(seed: &[u8; 32], chain_idx: u16) -> [u8; 32] {
    *hmac_sha256(seed, &chain_idx.to_le_bytes()).as_bytes()
}

/// Derives all 67 per-chain secrets, lane-batching the HMACs.
fn derive_secrets(d: mb::Dispatch, seed: &[u8; 32]) -> [[u8; 32]; CHAINS] {
    let mut out = [[0u8; 32]; CHAINS];
    if d.lanes() <= 1 {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = derive_secret(seed, i as u16);
        }
        return out;
    }
    let msgs: Vec<[u8; 2]> = (0..CHAINS as u16).map(|i| i.to_le_bytes()).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
    for (slot, mac) in out.iter_mut().zip(hmac_short_lanes_with(d, seed, &refs)) {
        *slot = *mac.as_bytes();
    }
    out
}

fn compress_pk(ends: &[[u8; 32]; CHAINS]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[PK_TAG]);
    for end in ends {
        h.update(end);
    }
    h.finalize()
}

/// `PK_TAG ‖ 67 chain ends`: the public-key compression message.
const PK_MSG_LEN: usize = 1 + CHAINS * 32;

/// Compresses many keys' chain ends to public keys in lockstep:
/// `values` holds the flattened chain ends (67 per key, key-major), and
/// every key's 2145-byte compression message has identical length, so
/// up to `d.lanes()` keys advance per compressed block
/// ([`mb::hash_eq_lanes_with`]). Identical to mapping [`compress_pk`]
/// over the per-key end arrays.
fn compress_pk_lanes(d: mb::Dispatch, values: &[[u8; 32]]) -> Vec<Digest> {
    debug_assert!(values.len().is_multiple_of(CHAINS), "67 ends per key");
    let bufs: Vec<[u8; PK_MSG_LEN]> = values
        .chunks_exact(CHAINS)
        .map(|ends| {
            let mut buf = [0u8; PK_MSG_LEN];
            buf[0] = PK_TAG;
            for (slot, end) in buf[1..].chunks_exact_mut(32).zip(ends) {
                slot.copy_from_slice(end);
            }
            buf
        })
        .collect();
    let refs: Vec<&[u8]> = bufs.iter().map(|b| b.as_slice()).collect();
    mb::hash_eq_lanes_with(d, &refs)
}

/// Batch keygen: the public keys of `seeds`, and with `CAPTURE` their
/// chain checkpoints (see [`walk_to_ends`]).
fn keygen<const CAPTURE: bool>(
    seeds: &[[u8; 32]],
    d: mb::Dispatch,
    checkpoints: &mut [[u8; 32]],
) -> Vec<Digest> {
    let mut values = Vec::with_capacity(seeds.len() * CHAINS);
    for seed in seeds {
        values.extend(derive_secrets(d, seed));
    }
    walk_to_ends::<CAPTURE>(d, &mut values, checkpoints);
    compress_pk_lanes(d, &values)
}

impl WotsKeyPair {
    /// Derives a key pair from a 32-byte seed under the active dispatch.
    pub fn from_seed(seed: [u8; 32]) -> Self {
        Self::from_seed_with(seed, mb::Dispatch::active())
    }

    /// [`WotsKeyPair::from_seed`] under an explicit dispatch tier. The
    /// key material is identical for every tier.
    pub fn from_seed_with(seed: [u8; 32], d: mb::Dispatch) -> Self {
        let mut values = derive_secrets(d, &seed);
        walk_chains(d, &mut values, &[0; CHAINS], &[MAX_STEP; CHAINS]);
        Self {
            seed,
            public: compress_pk(&values),
        }
    }

    /// Derives the public keys of many seeds, lane-batched *across*
    /// keys: per-chain secrets via the batched HMAC path, then one flat
    /// walk over all `67·N` chains (every chain runs the full 15 steps,
    /// so lanes stay in lockstep across key boundaries with no refill
    /// tail per key), then the public-key compressions in lockstep.
    /// Identical to mapping [`WotsKeyPair::from_seed_with`] and taking
    /// each public key — the MSS keygen path of trees that keep seeds.
    pub fn public_keys_from_seeds_with(seeds: &[[u8; 32]], d: mb::Dispatch) -> Vec<Digest> {
        keygen::<false>(seeds, d, &mut [])
    }

    /// [`WotsKeyPair::public_keys_from_seeds_with`] that also keeps what
    /// the walk passes through: key `k`'s [`KEY_CHECKPOINTS`] chain
    /// values land in `checkpoints[k * KEY_CHECKPOINTS..]`, ready for
    /// [`WotsKeyPair::sign_from_checkpoints_with`]. Costs no extra
    /// compression.
    ///
    /// # Panics
    ///
    /// Panics unless `checkpoints` holds exactly [`KEY_CHECKPOINTS`]
    /// values per seed.
    pub fn public_keys_and_checkpoints_with(
        seeds: &[[u8; 32]],
        d: mb::Dispatch,
        checkpoints: &mut [[u8; 32]],
    ) -> Vec<Digest> {
        assert_eq!(
            checkpoints.len(),
            seeds.len() * KEY_CHECKPOINTS,
            "wots: one checkpoint block per seed"
        );
        keygen::<true>(seeds, d, checkpoints)
    }

    /// Signs `digest` with the key derived from `seed` *without*
    /// deriving the public key: the signing walk stops at each chain's
    /// digest-dependent chunk, so going through [`WotsKeyPair::from_seed`]
    /// first (which walks every chain to the end for the public key)
    /// would roughly double the work. The signature is identical to
    /// `from_seed(seed).sign(digest)`. The caller owns one-time use.
    pub fn sign_from_seed_with(seed: &[u8; 32], digest: &Digest, d: mb::Dispatch) -> WotsSignature {
        let chunks = chunks_of(digest);
        let mut values = derive_secrets(d, seed);
        walk_chains(d, &mut values, &[0; CHAINS], &chunks);
        WotsSignature { chains: values }
    }

    /// Signs `digest` from one key's stored chain checkpoints (as
    /// written by [`WotsKeyPair::public_keys_and_checkpoints_with`]):
    /// each chain starts at the highest stored step not above its chunk
    /// and walks the remaining 0–3 steps. The signature is identical to
    /// [`WotsKeyPair::sign_from_seed_with`] for the seed the checkpoints
    /// came from. The caller owns one-time use, and destroys the
    /// checkpoints afterwards.
    ///
    /// # Panics
    ///
    /// Panics unless `checkpoints` holds exactly [`KEY_CHECKPOINTS`]
    /// values.
    pub fn sign_from_checkpoints_with(
        checkpoints: &[[u8; 32]],
        digest: &Digest,
        d: mb::Dispatch,
    ) -> WotsSignature {
        assert_eq!(
            checkpoints.len(),
            KEY_CHECKPOINTS,
            "wots: one key's checkpoints"
        );
        let chunks = chunks_of(digest);
        let mut values = [[0u8; 32]; CHAINS];
        let mut start = [0u8; CHAINS];
        let mut steps = [0u8; CHAINS];
        for i in 0..CHAINS {
            let j = chunks[i] / CHECKPOINT_STRIDE;
            values[i] = checkpoints[i * CHAIN_CHECKPOINTS + usize::from(j)];
            start[i] = j * CHECKPOINT_STRIDE;
            steps[i] = chunks[i] - start[i];
        }
        walk_chains(d, &mut values, &start, &steps);
        WotsSignature { chains: values }
    }

    /// The compressed public key (hash of all chain ends).
    pub fn public_key(&self) -> Digest {
        self.public
    }

    /// Signs a message digest.
    ///
    /// The caller (the MSS layer) is responsible for using the key at most
    /// once.
    pub fn sign(&self, digest: &Digest) -> WotsSignature {
        self.sign_with(digest, mb::Dispatch::active())
    }

    /// [`WotsKeyPair::sign`] under an explicit dispatch tier. The
    /// signature is identical for every tier.
    pub fn sign_with(&self, digest: &Digest, d: mb::Dispatch) -> WotsSignature {
        Self::sign_from_seed_with(&self.seed, digest, d)
    }
}

/// Recomputes the candidate public key from a signature and digest.
///
/// Verification succeeds iff the result equals the signer's public key.
pub fn recover_public_key(digest: &Digest, sig: &WotsSignature) -> Digest {
    recover_public_key_with(digest, sig, mb::Dispatch::active())
}

/// [`recover_public_key`] under an explicit dispatch tier.
pub fn recover_public_key_with(digest: &Digest, sig: &WotsSignature, d: mb::Dispatch) -> Digest {
    let chunks = chunks_of(digest);
    let mut steps = [0u8; CHAINS];
    for (step, chunk) in steps.iter_mut().zip(chunks) {
        *step = MAX_STEP - chunk;
    }
    let mut values = sig.chains;
    walk_chains(d, &mut values, &chunks, &steps);
    compress_pk(&values)
}

/// Verifies `sig` over `digest` against `public_key`.
pub fn verify(public_key: &Digest, digest: &Digest, sig: &WotsSignature) -> bool {
    recover_public_key(digest, sig) == *public_key
}

/// [`verify`] under an explicit dispatch tier.
pub fn verify_with(
    public_key: &Digest,
    digest: &Digest,
    sig: &WotsSignature,
    d: mb::Dispatch,
) -> bool {
    recover_public_key_with(digest, sig, d) == *public_key
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::sha256;

    fn keypair(seed_byte: u8) -> WotsKeyPair {
        WotsKeyPair::from_seed([seed_byte; 32])
    }

    #[test]
    fn sign_verify_roundtrip() {
        let kp = keypair(1);
        let d = sha256(b"message");
        let sig = kp.sign(&d);
        assert!(verify(&kp.public_key(), &d, &sig));
    }

    #[test]
    fn wrong_message_fails() {
        let kp = keypair(2);
        let sig = kp.sign(&sha256(b"message"));
        assert!(!verify(&kp.public_key(), &sha256(b"other"), &sig));
    }

    #[test]
    fn wrong_key_fails() {
        let kp1 = keypair(3);
        let kp2 = keypair(4);
        let d = sha256(b"message");
        let sig = kp1.sign(&d);
        assert!(!verify(&kp2.public_key(), &d, &sig));
    }

    #[test]
    fn tampered_signature_fails() {
        let kp = keypair(5);
        let d = sha256(b"message");
        let mut sig = kp.sign(&d);
        sig.chains[0][0] ^= 0xFF;
        assert!(!verify(&kp.public_key(), &d, &sig));
    }

    #[test]
    fn checksum_prevents_chunk_increase_forgery() {
        // Advancing a message chain must be detectable because the checksum
        // chains would have to be *reversed* (preimage). Simulate the naive
        // forgery: take a signature and advance one message chain one step.
        let kp = keypair(6);
        let d = sha256(b"message");
        let chunks = chunks_of(&d);
        // Find a message chunk that can be advanced.
        let i = (0..MSG_CHUNKS).find(|&i| chunks[i] < MAX_STEP).unwrap();
        let mut sig = kp.sign(&d);
        sig.chains[i] = chain(sig.chains[i], i as u16, chunks[i], 1);
        // The forged signature must not verify for any digest we can cheaply
        // construct — in particular not for the original.
        assert!(!verify(&kp.public_key(), &d, &sig));
    }

    #[test]
    fn chunks_and_checksum_are_consistent() {
        let d = sha256(b"x");
        let chunks = chunks_of(&d);
        let csum: u16 = chunks[..MSG_CHUNKS]
            .iter()
            .map(|&c| u16::from(MAX_STEP - c))
            .sum();
        let encoded = (u16::from(chunks[MSG_CHUNKS]) << 8)
            | (u16::from(chunks[MSG_CHUNKS + 1]) << 4)
            | u16::from(chunks[MSG_CHUNKS + 2]);
        assert_eq!(csum, encoded);
        assert!(chunks.iter().all(|&c| c <= MAX_STEP));
    }

    #[test]
    fn signature_bytes_roundtrip() {
        let kp = keypair(7);
        let sig = kp.sign(&sha256(b"bytes"));
        let bytes = sig.to_bytes();
        assert_eq!(bytes.len(), WotsSignature::BYTE_LEN);
        assert_eq!(WotsSignature::from_bytes(&bytes).unwrap(), sig);
        assert!(WotsSignature::from_bytes(&bytes[1..]).is_none());
    }

    #[test]
    fn deterministic_keys_from_seed() {
        assert_eq!(keypair(9).public_key(), keypair(9).public_key());
        assert_ne!(keypair(9).public_key(), keypair(10).public_key());
    }

    #[test]
    fn every_tier_matches_the_sequential_reference() {
        // Keygen, signing and verification must be bit-identical across
        // every dispatch tier the host can run; Single is the sequential
        // reference path.
        let seed = [0xC3u8; 32];
        let reference = WotsKeyPair::from_seed_with(seed, mb::Dispatch::Single);
        let digests = [sha256(b"alpha"), sha256(b"beta"), sha256(b"gamma")];
        for tier in mb::Dispatch::all() {
            if !tier.is_available() {
                continue;
            }
            let kp = WotsKeyPair::from_seed_with(seed, tier);
            assert_eq!(kp.public_key(), reference.public_key(), "{tier:?}");
            for digest in &digests {
                let sig = kp.sign_with(digest, tier);
                assert_eq!(
                    sig,
                    reference.sign_with(digest, mb::Dispatch::Single),
                    "{tier:?}"
                );
                assert_eq!(
                    recover_public_key_with(digest, &sig, tier),
                    recover_public_key(digest, &sig),
                    "{tier:?}"
                );
                assert!(
                    verify_with(&kp.public_key(), digest, &sig, tier),
                    "{tier:?}"
                );
            }
        }
    }

    #[test]
    fn lane_walk_handles_skewed_step_counts() {
        // Adversarially skewed schedules: one deep chain among shallow
        // ones, all-zero steps, single-step chains — the refill
        // scheduler must still match the sequential walk exactly.
        for tier in mb::Dispatch::all() {
            if !tier.is_available() || tier.lanes() <= 1 {
                continue;
            }
            for pattern in 0u8..4 {
                let mut start = [0u8; CHAINS];
                let mut steps = [0u8; CHAINS];
                for i in 0..CHAINS {
                    let (s, n) = match pattern {
                        0 => (0, if i == 3 { MAX_STEP } else { 1 }),
                        1 => (0, (i % 3) as u8),
                        2 => ((i % 7) as u8, (i % 5) as u8),
                        _ => (0, 0),
                    };
                    start[i] = s;
                    steps[i] = n.min(MAX_STEP - s);
                }
                let init: [[u8; 32]; CHAINS] =
                    std::array::from_fn(|i| *sha256(&[i as u8, pattern]).as_bytes());
                let mut got = init;
                walk_chains(tier, &mut got, &start, &steps);
                let mut want = init;
                for i in 0..CHAINS {
                    if steps[i] > 0 {
                        want[i] = chain(want[i], i as u16, start[i], steps[i]);
                    }
                }
                assert_eq!(got, want, "tier {tier:?} pattern {pattern}");
            }
        }
    }

    #[test]
    fn batched_public_keys_match_from_seed_for_every_tier() {
        // The cross-key flat walk + lockstep compressions must reproduce
        // the per-key path exactly, for batch sizes that leave partial
        // lane batches at both the walk and the compression stage.
        let seeds: Vec<[u8; 32]> = (0u8..5).map(|i| [i.wrapping_mul(37) ^ 0x11; 32]).collect();
        let expected: Vec<Digest> = seeds
            .iter()
            .map(|s| WotsKeyPair::from_seed_with(*s, mb::Dispatch::Single).public_key())
            .collect();
        for tier in mb::Dispatch::all() {
            if !tier.is_available() {
                continue;
            }
            for n in [0usize, 1, 2, 5] {
                assert_eq!(
                    WotsKeyPair::public_keys_from_seeds_with(&seeds[..n], tier),
                    expected[..n],
                    "tier {tier:?} n {n}"
                );
            }
        }
    }

    #[test]
    fn checkpoints_are_the_chain_values_at_every_stride() {
        // Two keys, so the second key's chains sit in lanes shared with
        // the first key's tail.
        let seeds = [[0x21u8; 32], [0x42u8; 32]];
        for tier in mb::Dispatch::all() {
            if !tier.is_available() {
                continue;
            }
            let mut checkpoints = vec![[0u8; 32]; 2 * KEY_CHECKPOINTS];
            let pks = WotsKeyPair::public_keys_and_checkpoints_with(&seeds, tier, &mut checkpoints);
            assert_eq!(pks, WotsKeyPair::public_keys_from_seeds_with(&seeds, tier));
            for (k, seed) in seeds.iter().enumerate() {
                for i in 0..CHAINS {
                    for j in 0..CHAIN_CHECKPOINTS {
                        let step = j as u8 * CHECKPOINT_STRIDE;
                        assert_eq!(
                            checkpoints[k * KEY_CHECKPOINTS + i * CHAIN_CHECKPOINTS + j],
                            chain(derive_secret(seed, i as u16), i as u16, 0, step),
                            "{tier:?} key {k} chain {i} step {step}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn sign_from_seed_matches_keypair_sign() {
        let seed = [0x77u8; 32];
        let kp = WotsKeyPair::from_seed(seed);
        let digest = sha256(b"direct");
        for tier in mb::Dispatch::all() {
            if !tier.is_available() {
                continue;
            }
            assert_eq!(
                WotsKeyPair::sign_from_seed_with(&seed, &digest, tier),
                kp.sign(&digest),
                "{tier:?}"
            );
        }
    }

    #[test]
    fn batched_secret_derivation_matches_hmac() {
        let seed = [0x5Au8; 32];
        for tier in mb::Dispatch::all() {
            if !tier.is_available() {
                continue;
            }
            let derived = derive_secrets(tier, &seed);
            for (i, secret) in derived.iter().enumerate() {
                assert_eq!(
                    *secret,
                    derive_secret(&seed, i as u16),
                    "{tier:?} chain {i}"
                );
            }
        }
    }
}
