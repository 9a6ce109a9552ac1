//! Batch commitments: amortizing one signature over many records.
//!
//! The paper's central cost is that every non-repudiable interaction
//! produces *signed* evidence, and with a hash-based scheme the signature
//! dominates the hot path. This module provides the two pieces that turn
//! N signatures into ⌈N/batch⌉:
//!
//! * [`MerkleAccumulator`] — an incremental Merkle frontier over leaf
//!   digests. Leaves are pushed one at a time in O(1) amortized work; the
//!   running [`MerkleAccumulator::root`] is available at any point in
//!   O(log n) without rebuilding, and [`MerkleAccumulator::seal`] produces
//!   the full [`MerkleTree`] (for authentication paths) when the batch is
//!   committed. The accumulator reproduces [`MerkleTree`]'s duplicate-last
//!   padding exactly, so the incremental root always equals the sealed
//!   tree's root.
//! * [`BatchSignature`] — one MSS signature over a batch root plus a
//!   per-record authentication path, so a single signature covers every
//!   record in the batch while each record stays *individually*
//!   verifiable. Batch roots are signed under a domain-separated digest
//!   ([`batch_digest`]) so a batch-root signature can never be confused
//!   with a direct message signature.
//!
//! The scheme-agnostic integration point is
//! [`crate::sig::SignaturePayload::BatchedMss`] and
//! [`crate::sig::KeyPair::sign_batch`]: verifiers need no new API — a
//! batched signature verifies through the ordinary
//! [`crate::sig::VerifyingKey::verify`] path.

use crate::digest::{Digest, Sha256};
use crate::merkle::{leaf_hash, node_hash, AuthPath, MerkleTree};
use crate::mss::MssSignature;

use nonrep_types::codec::{CodecError, Decode, Encode, Reader, Writer};

/// Domain tag under which batch roots are signed (never raw messages).
const BATCH_DOMAIN: &str = "nonrep.batch.v1";

/// The digest actually signed for a batch with Merkle root `root`.
///
/// Domain separation: a signature over `batch_digest(root)` attests "I
/// committed to this batch of records", and cannot collide with an MSS
/// signature over the SHA-256 of any direct message.
pub fn batch_digest(root: &Digest) -> Digest {
    let mut h = Sha256::new();
    h.update(BATCH_DOMAIN.as_bytes());
    h.update(root.as_bytes());
    h.finalize()
}

/// The leaf digest committed for a record whose *content digest* is `d`.
///
/// Batch leaves are the [`leaf_hash`] of the record's 32-byte digest, so
/// the accumulator never needs the record bytes themselves.
fn batch_leaf(d: &Digest) -> Digest {
    leaf_hash(d.as_bytes())
}

/// One frontier entry: a perfect subtree of `2^height` leaves.
#[derive(Debug, Clone, Copy)]
struct Subtree {
    height: u32,
    root: Digest,
}

/// An incremental Merkle accumulator.
///
/// Push leaf digests as records arrive; read the running [`root`] at any
/// time; [`seal`] the batch into a full [`MerkleTree`] when the
/// commitment is signed. Roots and paths are identical to building a
/// [`MerkleTree`] over the same leaves in one shot (differentially
/// tested).
///
/// [`root`]: MerkleAccumulator::root
/// [`seal`]: MerkleAccumulator::seal
#[derive(Debug, Clone, Default)]
pub struct MerkleAccumulator {
    /// All leaves pushed so far (needed for auth paths at seal time).
    leaves: Vec<Digest>,
    /// Binary-counter frontier: perfect subtrees in strictly decreasing
    /// height order, at most one per height.
    frontier: Vec<Subtree>,
}

impl MerkleAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes an already leaf-hashed digest, returning its leaf index.
    pub fn push(&mut self, leaf: Digest) -> u32 {
        let index = self.leaves.len() as u32;
        self.leaves.push(leaf);
        let mut carry = Subtree {
            height: 0,
            root: leaf,
        };
        while let Some(top) = self.frontier.last() {
            if top.height != carry.height {
                break;
            }
            let top = self.frontier.pop().expect("checked non-empty");
            carry = Subtree {
                height: top.height + 1,
                root: node_hash(&top.root, &carry.root),
            };
        }
        self.frontier.push(carry);
        index
    }

    /// Number of leaves pushed so far.
    pub fn len(&self) -> usize {
        self.leaves.len()
    }

    /// `true` if no leaf has been pushed.
    pub fn is_empty(&self) -> bool {
        self.leaves.is_empty()
    }

    /// The current Merkle root over all pushed leaves.
    ///
    /// Folds the frontier right-to-left, promoting the running hash by
    /// self-pairing — exactly [`MerkleTree`]'s duplicate-last padding —
    /// so this equals `MerkleTree::from_leaf_hashes(leaves).root()`
    /// without rebuilding the tree.
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty.
    pub fn root(&self) -> Digest {
        assert!(!self.leaves.is_empty(), "empty accumulator has no root");
        let mut iter = self.frontier.iter().rev();
        let first = iter.next().expect("non-empty frontier");
        let mut acc = first.root;
        let mut height = first.height;
        for left in iter {
            while height < left.height {
                acc = node_hash(&acc, &acc);
                height += 1;
            }
            acc = node_hash(&left.root, &acc);
            height += 1;
        }
        acc
    }

    /// Seals the batch into a full tree (for authentication paths),
    /// leaving the accumulator empty for the next batch.
    ///
    /// # Panics
    ///
    /// Panics if the accumulator is empty.
    pub fn seal(&mut self) -> MerkleTree {
        assert!(!self.leaves.is_empty(), "cannot seal an empty batch");
        self.frontier.clear();
        MerkleTree::from_leaf_hashes(std::mem::take(&mut self.leaves))
    }
}

/// A signature amortized over a batch: one MSS signature on the batch
/// root, plus this record's authentication path to that root.
///
/// Every record of a sealed batch carries the *same* `mss_sig` (over
/// [`batch_digest`] of the root) and its own `auth_path`; verification
/// recomputes the root implied by the record and checks the shared
/// signature against it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchSignature {
    /// The MSS signature over [`batch_digest`] of the batch root.
    pub mss_sig: MssSignature,
    /// Index of this record's leaf within the batch.
    pub leaf_index: u32,
    /// Number of leaves in the sealed batch.
    pub leaf_count: u32,
    /// Authentication path from this record's leaf to the signed root.
    pub auth_path: AuthPath,
}

impl BatchSignature {
    /// Verifies this batch signature for a record whose content hashes to
    /// `message_digest`, under the MSS key with Merkle root `key_root`.
    pub fn verify(&self, key_root: &Digest, message_digest: &Digest) -> bool {
        let implied = self.auth_path.implied_root(&batch_leaf(message_digest));
        crate::mss::verify(key_root, &batch_digest(&implied), &self.mss_sig)
    }

    /// Serialized size in bytes (space-overhead accounting): the full
    /// encoding, shared MSS signature included — every record of a batch
    /// carries its own copy.
    pub fn byte_len(&self) -> usize {
        self.mss_sig.byte_len() + 8 + self.auth_path.byte_len()
    }
}

impl Encode for BatchSignature {
    fn encode(&self, w: &mut Writer) {
        self.mss_sig.encode(w);
        w.put_u32(self.leaf_index);
        w.put_u32(self.leaf_count);
        self.auth_path.encode(w);
    }
}

impl Decode for BatchSignature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            mss_sig: MssSignature::decode(r)?,
            leaf_index: r.get_u32()?,
            leaf_count: r.get_u32()?,
            auth_path: AuthPath::decode(r)?,
        })
    }
}

/// Builds batch leaves for a slice of message digests.
pub fn batch_leaves(digests: &[Digest]) -> Vec<Digest> {
    digests.iter().map(batch_leaf).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::sha256;

    fn leaves(n: usize) -> Vec<Digest> {
        (0..n as u32).map(|i| leaf_hash(&i.to_le_bytes())).collect()
    }

    #[test]
    fn incremental_root_matches_tree_for_all_sizes() {
        for n in 1..=33usize {
            let ls = leaves(n);
            let mut acc = MerkleAccumulator::new();
            for (i, l) in ls.iter().enumerate() {
                assert_eq!(acc.push(*l), i as u32);
                // The running root must match a one-shot tree over the
                // prefix at *every* step, not just at the end.
                let tree = MerkleTree::from_leaf_hashes(ls[..=i].to_vec());
                assert_eq!(acc.root(), tree.root(), "n={n} prefix={}", i + 1);
            }
            assert_eq!(acc.len(), n);
        }
    }

    #[test]
    fn seal_produces_equivalent_tree_and_resets() {
        let ls = leaves(11);
        let mut acc = MerkleAccumulator::new();
        for l in &ls {
            acc.push(*l);
        }
        let expected_root = acc.root();
        let tree = acc.seal();
        assert_eq!(tree.root(), expected_root);
        assert_eq!(tree.leaf_count(), 11);
        assert!(acc.is_empty());
        // The accumulator is reusable after sealing.
        acc.push(ls[0]);
        assert_eq!(acc.root(), ls[0]);
    }

    #[test]
    #[should_panic(expected = "no root")]
    fn empty_root_panics() {
        MerkleAccumulator::new().root();
    }

    #[test]
    fn batch_digest_is_domain_separated() {
        let root = sha256(b"root");
        assert_ne!(batch_digest(&root), root);
        assert_ne!(batch_digest(&root), sha256(root.as_bytes()));
    }

    #[test]
    fn batch_leaves_match_accumulated_tree() {
        let digests: Vec<Digest> = (0..5u8).map(|i| sha256(&[i])).collect();
        let mut acc = MerkleAccumulator::new();
        for leaf in batch_leaves(&digests) {
            acc.push(leaf);
        }
        let tree = MerkleTree::from_leaf_hashes(batch_leaves(&digests));
        assert_eq!(acc.root(), tree.root());
    }

    #[test]
    fn batch_signature_codec_roundtrip() {
        use crate::mss::MssSigner;
        use crate::rng::SecureRandom;
        let mut rng = SecureRandom::from_seed(7);
        let mut signer = MssSigner::generate(3, &mut rng);
        let digests: Vec<Digest> = (0..4u8).map(|i| sha256(&[i])).collect();
        let tree = MerkleTree::from_leaf_hashes(batch_leaves(&digests));
        let sig = signer.sign(&batch_digest(&tree.root())).unwrap();
        let batch = BatchSignature {
            mss_sig: sig,
            leaf_index: 2,
            leaf_count: 4,
            auth_path: tree.auth_path(2),
        };
        let back = BatchSignature::decode_from_slice(&batch.encode_to_vec()).unwrap();
        assert_eq!(back, batch);
        assert!(back.verify(&signer.public_key(), &digests[2]));
        assert!(!back.verify(&signer.public_key(), &digests[1]));
    }
}
