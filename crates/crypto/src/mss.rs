//! Merkle signature scheme (MSS): a stateful, forward-secure, many-time
//! signature built from W-OTS leaves under a Merkle tree.
//!
//! * **Many-time**: a key of height `h` signs `2^h` messages.
//! * **Stateful**: the signer tracks the next unused leaf.
//! * **Forward-secure**: each leaf's secret is overwritten with zeros
//!   as it signs, so compromising the signer later cannot forge
//!   signatures for earlier indices — this mirrors the paper's interest
//!   in forward-secure schemes that "obviate the need for a third party
//!   signature on time-stamps" (§3.5, ref \[25\]).
//!
//! The public key is the 32-byte Merkle root. A signature carries the leaf
//! index, the W-OTS signature, and the authentication path.
//!
//! # Where the leaf secret lives
//!
//! A signer keeps one form of leaf secret, fixed by the tree height.
//! Trees of at most 2^8 leaves (every HSS subtree in use, and the
//! builder's default key) keep each leaf's W-OTS chain checkpoints
//! ([`wots::KEY_CHECKPOINTS`] values, 8 576 B a leaf, 2.1 MiB a tree) in
//! one contiguous buffer that the keygen workers fill as they walk the
//! chains; a signature then walks at most 3 hash steps per chain instead
//! of re-deriving all 67. Taller trees (an HSS root, a long-lived flat
//! key) keep one 32-byte seed per leaf, because checkpoints would cost
//! 8.4 MiB at height 10 and 8.4 GiB at height 20; they sign from the
//! seed. [`MssSigner::generate_sequential`] always keeps seeds: it is
//! the reference the parallel keygen is tested against. Signatures are
//! identical whichever form signs.

use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::LazyLock;

use parking_lot::Mutex;

use nonrep_types::codec::{CodecError, Decode, Encode, Reader, Writer};

use crate::digest::{mb, Digest};
use crate::merkle::{leaf_hash, leaf_hash_digests_with, AuthPath, MerkleTree, PathStep};
use crate::par;
use crate::rng::SecureRandom;
use crate::wots::{self, WotsKeyPair, WotsSignature};

/// Minimum W-OTS leaves per worker before keygen fans out to threads
/// (each leaf costs ~1300 compressions, so even small chunks amortize
/// thread spawn).
const PAR_MIN_LEAVES: usize = 8;

/// Tallest tree whose leaves keep W-OTS chain checkpoints rather than
/// seeds (see the module docs).
const CHECKPOINT_MAX_HEIGHT: u8 = 8;

/// Errors from the signing side of MSS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MssError {
    /// All `2^h` one-time leaves have been used.
    KeyExhausted,
}

impl fmt::Display for MssError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MssError::KeyExhausted => f.write_str("all one-time signature leaves used"),
        }
    }
}

impl Error for MssError {}

/// An MSS signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MssSignature {
    /// Index of the one-time leaf used.
    pub leaf_index: u32,
    /// The W-OTS signature over the message digest.
    pub wots: WotsSignature,
    /// Authentication path from the leaf to the root.
    pub path: AuthPath,
}

impl MssSignature {
    /// Serialized size in bytes: the leaf index, the length-prefixed
    /// W-OTS signature and the authentication path.
    pub fn byte_len(&self) -> usize {
        4 + 4 + WotsSignature::BYTE_LEN + self.path.byte_len()
    }
}

impl Encode for MssSignature {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.leaf_index);
        w.put_bytes(&self.wots.to_bytes());
        self.path.encode(w);
    }
}

impl Decode for MssSignature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let leaf_index = r.get_u32()?;
        let wots_bytes = r.get_bytes()?;
        let wots = WotsSignature::from_bytes(wots_bytes)
            .ok_or_else(|| CodecError::Invalid("bad wots signature length".into()))?;
        Ok(Self {
            leaf_index,
            wots,
            path: AuthPath::decode(r)?,
        })
    }
}

/// The signing half of an MSS key.
pub struct MssSigner {
    secrets: LeafSecrets,
    tree: MerkleTree,
    next_leaf: u32,
}

/// The unused leaves' secrets, in the one form the tree height picked.
/// A leaf's entry is overwritten with zeros as it signs.
enum LeafSecrets {
    /// One W-OTS seed per leaf.
    Seeds(Vec<[u8; 32]>),
    /// [`wots::KEY_CHECKPOINTS`] chain values per leaf, leaf after leaf.
    Checkpoints(Vec<[u8; 32]>),
}

impl fmt::Debug for MssSigner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MssSigner")
            .field("capacity", &self.capacity())
            .field("remaining", &self.remaining())
            .finish_non_exhaustive()
    }
}

impl MssSigner {
    /// Generates a new key of height `height` (capacity `2^height`).
    ///
    /// # Panics
    ///
    /// Panics if `height` is 0 or greater than 20 (a million-signature key
    /// already takes noticeable time to generate; anything larger is
    /// a configuration mistake).
    pub fn generate(height: u8, rng: &mut SecureRandom) -> Self {
        Self::generate_with_workers(height, rng, par::workers())
    }

    /// [`MssSigner::generate`] with an explicit worker budget.
    ///
    /// Seeds are drawn from `rng` sequentially (so the key is identical
    /// for a given seed stream regardless of the worker count); the
    /// expensive W-OTS chain walks and the Merkle levels are split
    /// across scoped threads, and inside each worker the per-leaf chain
    /// walks and the leaf hashes run lane-batched through the
    /// multi-buffer engine — thread-level and lane-level parallelism
    /// compose. A tree of at most 2^8 leaves has each worker write its
    /// leaves' chain checkpoints straight into the signer's buffer, and
    /// drops the seeds.
    ///
    /// # Panics
    ///
    /// Panics if `height` is 0 or greater than 20 (a million-signature key
    /// already takes noticeable time to generate; anything larger is
    /// a configuration mistake).
    pub fn generate_with_workers(height: u8, rng: &mut SecureRandom, workers: usize) -> Self {
        Self::generate_into(height, rng, workers, Vec::new())
    }

    /// [`MssSigner::generate_with_workers`] that writes the chain
    /// checkpoints into `checkpoints` (whatever it held is overwritten; a
    /// tree that keeps seeds drops it), so
    /// a caller that builds tree after tree can hand back a spent
    /// tree's buffer ([`MssSigner::into_buffer`]) instead of
    /// allocating 2.1 MiB per tree.
    ///
    /// # Panics
    ///
    /// Panics if `height` is 0 or greater than 20.
    pub(crate) fn generate_into(
        height: u8,
        rng: &mut SecureRandom,
        workers: usize,
        mut checkpoints: Vec<[u8; 32]>,
    ) -> Self {
        assert!((1..=20).contains(&height), "height must be in 1..=20");
        let count = 1usize << height;
        let seeds: Vec<[u8; 32]> = (0..count).map(|_| rng.secret32()).collect();
        let d = mb::Dispatch::active();
        let (leaf_hashes, secrets) = if height <= CHECKPOINT_MAX_HEIGHT {
            checkpoints.clear();
            checkpoints.resize(count * wots::KEY_CHECKPOINTS, [0; 32]);
            let leaf_hashes = par::par_map_chunks_with(
                workers,
                &mut checkpoints,
                wots::KEY_CHECKPOINTS,
                PAR_MIN_LEAVES,
                |range, out| {
                    let pks = WotsKeyPair::public_keys_and_checkpoints_with(&seeds[range], d, out);
                    leaf_hash_digests_with(d, &pks)
                },
            );
            (leaf_hashes, LeafSecrets::Checkpoints(checkpoints))
        } else {
            let leaf_hashes = par::par_map_range_with(workers, count, PAR_MIN_LEAVES, |range| {
                let pks = WotsKeyPair::public_keys_from_seeds_with(&seeds[range], d);
                leaf_hash_digests_with(d, &pks)
            });
            (leaf_hashes, LeafSecrets::Seeds(seeds))
        };
        Self {
            secrets,
            tree: MerkleTree::from_leaf_hashes_with_workers(leaf_hashes, workers),
            next_leaf: 0,
        }
    }

    /// Strictly sequential key generation: one thread, single-lane
    /// hashing, one seed per leaf whatever the height (the
    /// pre-parallel, pre-multi-buffer reference path, kept for
    /// differential tests and benchmarks).
    ///
    /// # Panics
    ///
    /// Panics if `height` is 0 or greater than 20.
    pub fn generate_sequential(height: u8, rng: &mut SecureRandom) -> Self {
        assert!((1..=20).contains(&height), "height must be in 1..=20");
        let count = 1usize << height;
        let mut seeds = Vec::with_capacity(count);
        let mut leaf_hashes = Vec::with_capacity(count);
        for _ in 0..count {
            let seed = rng.secret32();
            let kp = WotsKeyPair::from_seed_with(seed, mb::Dispatch::Single);
            leaf_hashes.push(leaf_hash(kp.public_key().as_bytes()));
            seeds.push(seed);
        }
        Self {
            secrets: LeafSecrets::Seeds(seeds),
            tree: MerkleTree::from_leaf_hashes_with_workers(leaf_hashes, 1),
            next_leaf: 0,
        }
    }

    /// The checkpoint buffer of a signer whose every leaf has signed (so
    /// it holds only zeros), for [`MssSigner::generate_into`] to reuse;
    /// empty for a signer that keeps seeds.
    pub(crate) fn into_buffer(self) -> Vec<[u8; 32]> {
        debug_assert_eq!(self.remaining(), 0, "only a spent tree gives up its buffer");
        match self.secrets {
            LeafSecrets::Checkpoints(buffer) => buffer,
            LeafSecrets::Seeds(_) => Vec::new(),
        }
    }

    /// The public key (Merkle root).
    pub fn public_key(&self) -> Digest {
        self.tree.root()
    }

    /// Remaining signature capacity.
    pub fn remaining(&self) -> u32 {
        self.capacity() - self.next_leaf
    }

    /// Total capacity (`2^height`).
    fn capacity(&self) -> u32 {
        self.tree.leaf_count() as u32
    }

    /// Signs a message digest with the next unused leaf and overwrites
    /// that leaf's secret with zeros (forward security).
    ///
    /// # Errors
    ///
    /// Returns [`MssError::KeyExhausted`] when all leaves are used.
    pub fn sign(&mut self, digest: &Digest) -> Result<MssSignature, MssError> {
        let idx = self.next_leaf as usize;
        if idx >= self.capacity() as usize {
            return Err(MssError::KeyExhausted);
        }
        self.next_leaf += 1;
        let d = mb::Dispatch::active();
        let wots = match &mut self.secrets {
            LeafSecrets::Checkpoints(all) => {
                let leaf = &mut all[idx * wots::KEY_CHECKPOINTS..][..wots::KEY_CHECKPOINTS];
                let sig = WotsKeyPair::sign_from_checkpoints_with(leaf, digest, d);
                leaf.fill([0; 32]);
                sig
            }
            // Sign straight from the seed: the full keypair derivation
            // would also walk every chain to its end for a public key
            // this path never reads (the verifier recovers it).
            LeafSecrets::Seeds(seeds) => {
                WotsKeyPair::sign_from_seed_with(&std::mem::take(&mut seeds[idx]), digest, d)
            }
        };
        let path = self.tree.auth_path(idx);
        Ok(MssSignature {
            leaf_index: idx as u32,
            wots,
            path,
        })
    }
}

/// Verifies an MSS signature over `digest` against `public_key` (root).
///
/// Besides the Merkle path check, the declared `leaf_index` must agree with
/// the direction bits of the authentication path (the index is what binds a
/// signature to *one* one-time key, so it must not be forgeable
/// independently of the path).
///
/// A triple that verified before is answered from the process-wide memo:
/// a shared certificate or batch signature costs one W-OTS recovery in all.
pub fn verify(public_key: &Digest, digest: &Digest, sig: &MssSignature) -> bool {
    MEMO.verify(public_key, digest, sig)
}

/// The full walk: what the memo caches and what its tests compare against.
fn verify_walk(public_key: &Digest, digest: &Digest, sig: &MssSignature) -> bool {
    if !index_matches_path(sig) {
        return false;
    }
    let candidate_pk = wots::recover_public_key(digest, &sig.wots);
    let leaf = leaf_hash(candidate_pk.as_bytes());
    MerkleTree::verify(public_key, &leaf, &sig.path)
}

/// Whether the declared leaf index agrees with the direction bits of
/// the authentication path: at level l the sibling is on the right iff
/// bit l of the index is 0.
fn index_matches_path(sig: &MssSignature) -> bool {
    let mut implied_index: u64 = 0;
    for (level, step) in sig.path.steps.iter().enumerate() {
        if !step.sibling_on_right {
            implied_index |= 1 << level;
        }
    }
    implied_index == u64::from(sig.leaf_index)
}

/// Slots in the process-wide memo (≈ 2.9 KiB each, ≈ 3 MiB): room for two
/// 66-record dispute windows and every live certificate of a log's signers.
const MEMO_SLOTS: usize = 1024;

/// Longest path the memo stores (the tallest tree [`MssSigner::generate`]
/// builds); a signature under a taller, hand-built tree always walks.
const MEMO_MAX_PATH: usize = 20;

static MEMO: LazyLock<Memo> = LazyLock::new(|| Memo::with_slots(MEMO_SLOTS));

/// One `(public key, digest, signature)` triple [`verify_walk`] accepted.
struct Verified {
    key: Digest,
    digest: Digest,
    leaf_index: u32,
    wots: WotsSignature,
    path: [PathStep; MEMO_MAX_PATH],
    path_len: usize,
}

/// A direct-mapped, per-slot-locked memo of verified triples.
///
/// Sound because [`verify_walk`] is a pure function of three public
/// inputs: a lookup answers `true` only when key, digest and the whole
/// signature (leaf index and path included) equal a stored triple byte
/// for byte, anything else walks, and only successes are stored — a
/// colliding triple merely overwrites its slot.
#[derive(Default)]
struct Memo {
    /// Entries sit inline in one block: boxed one by one they would lie
    /// scattered over the heap and pin it against trimming after an audit.
    slots: Box<[Mutex<Option<Verified>>]>,
    hits: AtomicU64,
    misses: AtomicU64,
    inserts: AtomicU64,
    overwrites: AtomicU64,
}

/// Counters of the verification memo since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Verifications answered from the memo.
    pub hits: u64,
    /// Verifications that took the full walk (valid or not).
    pub misses: u64,
    /// Verified triples stored.
    pub inserts: u64,
    /// Stores that displaced an earlier triple from its slot.
    pub overwrites: u64,
}

/// The process-wide memo's counters.
pub fn memo_stats() -> MemoStats {
    MEMO.stats()
}

impl Memo {
    fn with_slots(n: usize) -> Self {
        Self {
            slots: (0..n).map(|_| Mutex::new(None)).collect(),
            ..Self::default()
        }
    }

    fn verify(&self, key: &Digest, digest: &Digest, sig: &MssSignature) -> bool {
        let steps = &sig.path.steps;
        if steps.len() > MEMO_MAX_PATH {
            return verify_walk(key, digest, sig);
        }
        // Both are SHA-256 outputs, so any eight bytes spread evenly.
        let word = |d: &Digest| u64::from_le_bytes(d.as_bytes()[..8].try_into().expect("8 bytes"));
        let slot = &self.slots[(word(key) ^ word(digest)) as usize % self.slots.len()];
        let seen = slot.lock().as_ref().is_some_and(|v| {
            v.key == *key
                && v.digest == *digest
                && v.leaf_index == sig.leaf_index
                && v.wots == sig.wots
                && v.path[..v.path_len] == steps[..]
        });
        if seen {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return true;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        if !verify_walk(key, digest, sig) {
            return false;
        }
        let mut path = [PathStep {
            sibling: Digest::ZERO,
            sibling_on_right: false,
        }; MEMO_MAX_PATH];
        path[..steps.len()].copy_from_slice(steps);
        let displaced = slot.lock().replace(Verified {
            key: *key,
            digest: *digest,
            leaf_index: sig.leaf_index,
            wots: sig.wots.clone(),
            path,
            path_len: steps.len(),
        });
        self.inserts.fetch_add(1, Ordering::Relaxed);
        let overwrote = u64::from(displaced.is_some());
        self.overwrites.fetch_add(overwrote, Ordering::Relaxed);
        true
    }

    fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            overwrites: self.overwrites.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::sha256;

    fn signer(height: u8, seed: u64) -> MssSigner {
        MssSigner::generate(height, &mut SecureRandom::from_seed(seed))
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut s = signer(2, 1);
        let pk = s.public_key();
        let d = sha256(b"hello");
        let sig = s.sign(&d).unwrap();
        assert!(verify(&pk, &d, &sig));
    }

    #[test]
    fn each_signature_uses_fresh_leaf() {
        let mut s = signer(2, 2);
        let pk = s.public_key();
        let mut seen = std::collections::HashSet::new();
        for i in 0..4 {
            let d = sha256(format!("msg-{i}").as_bytes());
            let sig = s.sign(&d).unwrap();
            assert!(verify(&pk, &d, &sig));
            assert!(seen.insert(sig.leaf_index));
        }
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn key_exhaustion_reported() {
        let mut s = signer(1, 3);
        assert_eq!(s.capacity(), 2);
        s.sign(&sha256(b"a")).unwrap();
        s.sign(&sha256(b"b")).unwrap();
        assert_eq!(s.sign(&sha256(b"c")).unwrap_err(), MssError::KeyExhausted);
    }

    /// Every secret byte block the signer holds: seeds, or checkpoints.
    fn secrets(s: &MssSigner) -> &[[u8; 32]] {
        match &s.secrets {
            LeafSecrets::Seeds(v) | LeafSecrets::Checkpoints(v) => v,
        }
    }

    fn leaf_checkpoints(s: &MssSigner, leaf: usize) -> &[[u8; 32]] {
        let LeafSecrets::Checkpoints(all) = &s.secrets else {
            panic!("signer keeps seeds");
        };
        &all[leaf * wots::KEY_CHECKPOINTS..][..wots::KEY_CHECKPOINTS]
    }

    #[test]
    fn forward_security_deletes_used_seeds() {
        let mut s = MssSigner::generate_sequential(2, &mut SecureRandom::from_seed(4));
        s.sign(&sha256(b"a")).unwrap();
        let LeafSecrets::Seeds(seeds) = &s.secrets else {
            panic!("the sequential reference keeps seeds");
        };
        assert_eq!(seeds[0], [0; 32], "used leaf seed must be destroyed");
        assert_ne!(seeds[1], [0; 32]);
    }

    #[test]
    fn forward_security_zeroes_used_checkpoints() {
        let mut s = signer(3, 4);
        let fresh: Vec<Vec<[u8; 32]>> = (0..8).map(|i| leaf_checkpoints(&s, i).to_vec()).collect();
        for i in 0..8 {
            assert_eq!(leaf_checkpoints(&s, i), &fresh[i][..], "leaf {i} intact");
            s.sign(&sha256(&[i as u8])).unwrap();
            assert!(
                leaf_checkpoints(&s, i).iter().all(|v| *v == [0; 32]),
                "leaf {i} must leave nothing behind"
            );
            if i + 1 < 8 {
                assert_eq!(leaf_checkpoints(&s, i + 1), &fresh[i + 1][..]);
            }
        }
    }

    #[test]
    fn a_spent_trees_buffer_is_zero_and_rebuilds_an_identical_key() {
        let mut spent = signer(2, 14);
        for i in 0..4u8 {
            spent.sign(&sha256(&[i])).unwrap();
        }
        let buffer = spent.into_buffer();
        assert_eq!(buffer.len(), 4 * wots::KEY_CHECKPOINTS);
        assert!(buffer.iter().all(|v| *v == [0; 32]));
        // A recycled buffer, and one of the wrong size full of junk, both
        // give the key a fresh allocation would.
        for buffer in [buffer, vec![[0xA5; 32]; 7]] {
            let mut reused =
                MssSigner::generate_into(3, &mut SecureRandom::from_seed(15), 2, buffer);
            let mut fresh = signer(3, 15);
            assert_eq!(reused.public_key(), fresh.public_key());
            let d = sha256(b"reuse");
            assert_eq!(reused.sign(&d).unwrap(), fresh.sign(&d).unwrap());
        }
    }

    #[test]
    fn tree_height_picks_the_leaf_secret_form() {
        for (height, checkpoints) in [(8u8, true), (9, false)] {
            let mut s = signer(height, 12);
            let per_leaf = if checkpoints {
                wots::KEY_CHECKPOINTS
            } else {
                1
            };
            assert_eq!(
                matches!(s.secrets, LeafSecrets::Checkpoints(_)),
                checkpoints,
                "h={height}"
            );
            assert_eq!(secrets(&s).len(), (1 << height) * per_leaf, "h={height}");
            for i in 0..3u8 {
                let d = sha256(&[height, i]);
                assert!(
                    verify(&s.public_key(), &d, &s.sign(&d).unwrap()),
                    "h={height}"
                );
            }
        }
    }

    #[test]
    fn debug_output_holds_no_secret() {
        let checkpointed = signer(2, 13);
        let seeded = MssSigner::generate_sequential(2, &mut SecureRandom::from_seed(13));
        for s in [&checkpointed, &seeded] {
            let shown = format!("{s:?}");
            assert_eq!(shown, "MssSigner { capacity: 4, remaining: 4, .. }");
            for secret in secrets(s) {
                assert!(!shown.contains(&format!("{secret:?}")));
                assert!(!shown.contains(&Digest::from_bytes(*secret).to_hex()));
            }
        }
    }

    #[test]
    fn wrong_digest_fails() {
        let mut s = signer(2, 5);
        let pk = s.public_key();
        let sig = s.sign(&sha256(b"real")).unwrap();
        assert!(!verify(&pk, &sha256(b"fake"), &sig));
    }

    #[test]
    fn wrong_root_fails() {
        let mut s1 = signer(2, 6);
        let s2 = signer(2, 7);
        let d = sha256(b"msg");
        let sig = s1.sign(&d).unwrap();
        assert!(!verify(&s2.public_key(), &d, &sig));
    }

    #[test]
    fn tampered_leaf_index_fails() {
        let mut s = signer(3, 8);
        let pk = s.public_key();
        let d = sha256(b"msg");
        let mut sig = s.sign(&d).unwrap();
        sig.leaf_index = 5; // path no longer matches
        assert!(!verify(&pk, &d, &sig));
    }

    #[test]
    fn signature_codec_roundtrip() {
        let mut s = signer(2, 9);
        let d = sha256(b"codec");
        let sig = s.sign(&d).unwrap();
        let bytes = sig.encode_to_vec();
        let back = MssSignature::decode_from_slice(&bytes).unwrap();
        assert_eq!(back, sig);
        assert!(verify(&s.public_key(), &d, &back));
    }

    #[test]
    fn byte_len_matches_reported() {
        let mut s = signer(3, 10);
        let sig = s.sign(&sha256(b"len")).unwrap();
        assert_eq!(sig.encode_to_vec().len(), sig.byte_len());
    }

    #[test]
    #[should_panic(expected = "height must be in 1..=20")]
    fn zero_height_panics() {
        let _ = signer(0, 11);
    }

    #[test]
    fn parallel_and_sequential_keygen_agree() {
        // Same seed stream ⇒ identical root and identical signatures
        // (checkpoints against seeds), for every worker budget
        // (including oversubscription on a 1-core host).
        for height in [1u8, 3, 5] {
            let mut reference =
                MssSigner::generate_sequential(height, &mut SecureRandom::from_seed(42));
            let digests: Vec<Digest> = (0..2u8).map(|i| sha256(&[height, i])).collect();
            let want: Vec<MssSignature> =
                digests.iter().map(|d| reference.sign(d).unwrap()).collect();
            for workers in [1usize, 2, 4, 7] {
                let mut par = MssSigner::generate_with_workers(
                    height,
                    &mut SecureRandom::from_seed(42),
                    workers,
                );
                assert_eq!(
                    par.public_key(),
                    reference.public_key(),
                    "h={height} w={workers}"
                );
                for (d, want) in digests.iter().zip(&want) {
                    assert_eq!(&par.sign(d).unwrap(), want, "h={height} w={workers}");
                }
            }
        }
    }

    #[test]
    fn parallel_keygen_signatures_verify_against_sequential_root() {
        let mut par = MssSigner::generate_with_workers(3, &mut SecureRandom::from_seed(9), 4);
        let seq = MssSigner::generate_sequential(3, &mut SecureRandom::from_seed(9));
        let d = sha256(b"cross");
        let sig = par.sign(&d).unwrap();
        assert!(verify(&seq.public_key(), &d, &sig));
    }

    /// What [`verify`] takes: public key, digest, signature.
    type Triple = (Digest, Digest, MssSignature);

    /// A genuine signature plus every single-field mutation of the
    /// triple (each of which the walk rejects).
    fn genuine_and_mutations(seed: u64) -> (Triple, Vec<Triple>) {
        let mut s = signer(3, seed);
        let (pk, d) = (s.public_key(), sha256(&seed.to_le_bytes()));
        let sig = s.sign(&d).unwrap();
        let with = |f: &dyn Fn(&mut MssSignature)| {
            let mut m = sig.clone();
            f(&mut m);
            (pk, d, m)
        };
        let mutants = vec![
            (pk, sha256(b"another digest"), sig.clone()),
            (signer(3, seed + 1).public_key(), d, sig.clone()),
            with(&|m| m.leaf_index ^= 1),
            with(&|m| m.wots.chains[66][31] ^= 1),
            with(&|m| m.path.steps[2].sibling = sha256(b"evil")),
            with(&|m| m.path.steps[0].sibling_on_right ^= true),
            with(&|m| {
                m.path.steps.pop();
            }),
        ];
        ((pk, d, sig), mutants)
    }

    #[test]
    fn memo_answers_only_the_exact_triple() {
        // One slot, so every mutant is compared against the genuine entry.
        let memo = Memo::with_slots(1);
        let ((pk, d, sig), mutants) = genuine_and_mutations(40);
        // Cold, warm, warm again: a mutant never rides on that entry.
        for round in 0..3 {
            for (k, dg, m) in &mutants {
                assert!(!verify_walk(k, dg, m));
                assert!(!memo.verify(k, dg, m), "round {round}");
            }
            assert!(memo.verify(&pk, &d, &sig));
        }
        let stats = memo.stats();
        assert_eq!(stats.hits, 2, "only the genuine triple's repeats hit");
        assert_eq!(stats.misses, 3 * mutants.len() as u64 + 1);
        assert_eq!((stats.inserts, stats.overwrites), (1, 0));
    }

    #[test]
    fn failed_verifications_walk_every_time_and_are_never_stored() {
        let memo = Memo::with_slots(4);
        let (_, mutants) = genuine_and_mutations(41);
        let (k, d, forged) = &mutants[3];
        assert!(!memo.verify(k, d, forged));
        assert!(!memo.verify(k, d, forged));
        assert_eq!(
            memo.stats(),
            MemoStats {
                hits: 0,
                misses: 2,
                inserts: 0,
                overwrites: 0
            }
        );
        assert!(memo.slots.iter().all(|s| s.lock().is_none()));
    }

    #[test]
    fn memo_stays_at_its_bound_and_evicted_triples_reverify() {
        let memo = Memo::with_slots(2);
        let mut s = signer(4, 42);
        let pk = s.public_key();
        let signed: Vec<(Digest, MssSignature)> = (0..16u8)
            .map(|i| {
                let d = sha256(&[i, 42]);
                (d, s.sign(&d).unwrap())
            })
            .collect();
        for (d, sig) in &signed {
            assert!(memo.verify(&pk, d, sig));
        }
        let occupied = memo.slots.iter().filter(|s| s.lock().is_some()).count() as u64;
        let stats = memo.stats();
        assert_eq!(stats.inserts, 16);
        assert!(occupied <= 2);
        assert_eq!(stats.inserts - stats.overwrites, occupied);
        // Fourteen of the sixteen were displaced; each still verifies (by
        // the walk) and a tampered copy of each still fails.
        for (d, sig) in &signed {
            assert!(memo.verify(&pk, d, sig));
            let mut bad = sig.clone();
            bad.wots.chains[0][0] ^= 1;
            assert!(!memo.verify(&pk, d, &bad));
        }
        assert_eq!(memo.stats().inserts - memo.stats().overwrites, occupied);
    }

    #[test]
    fn paths_taller_than_the_memo_stores_always_walk() {
        // Graft a genuine 1-level signature under MEMO_MAX_PATH more
        // hand-built levels: valid under the grafted root, too tall to store.
        let mut s = signer(1, 43);
        let d = sha256(b"tall");
        let mut sig = s.sign(&d).unwrap();
        let mut root = s.public_key();
        for _ in 0..MEMO_MAX_PATH {
            let sibling = sha256(root.as_bytes());
            root = crate::merkle::node_hash(&root, &sibling);
            sig.path.steps.push(PathStep {
                sibling,
                sibling_on_right: true,
            });
        }
        let memo = Memo::with_slots(4);
        assert!(verify_walk(&root, &d, &sig));
        assert!(memo.verify(&root, &d, &sig) && memo.verify(&root, &d, &sig));
        assert!(!memo.verify(&root, &sha256(b"other"), &sig));
        assert_eq!(memo.stats().inserts + memo.stats().hits, 0);
    }

    #[test]
    fn concurrent_verifiers_agree_with_the_walk() {
        // Eight threads, one two-slot memo, overlapping work lists of
        // genuine and forged triples: constant eviction under contention.
        let memo = Memo::with_slots(2);
        let mut cases = Vec::new();
        for seed in 50..54 {
            let (genuine, mutants) = genuine_and_mutations(seed);
            cases.push((genuine, true));
            cases.extend(mutants.into_iter().take(3).map(|m| (m, false)));
        }
        let start = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for t in 0..8usize {
                let (memo, cases, start) = (&memo, &cases, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..4 * cases.len() {
                        let ((k, d, sig), expect) = &cases[(i * (t + 1) + t) % cases.len()];
                        assert_eq!(memo.verify(k, d, sig), *expect);
                        assert_eq!(verify_walk(k, d, sig), *expect);
                    }
                });
            }
        });
        let stats = memo.stats();
        assert_eq!(stats.hits + stats.misses, 8 * 4 * cases.len() as u64);
        assert!(stats.inserts - stats.overwrites <= 2);
    }
}
