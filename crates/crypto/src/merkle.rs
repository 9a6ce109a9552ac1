//! Merkle trees.
//!
//! Used in two places: as the key-authentication tree of the Merkle
//! signature scheme ([`crate::mss`]), and for batch commitments over
//! evidence records. Leaf and interior hashes are domain-separated
//! (`0x00` / `0x01` tags) so a leaf can never be confused with a node —
//! the classic second-preimage defence.

use crate::digest::{mb, sha256_pair, Digest, Sha256};
use crate::par;

use nonrep_types::codec::{CodecError, Decode, Encode, Reader, Writer};

const LEAF_TAG: u8 = 0x00;
const NODE_TAG: u8 = 0x01;

/// Minimum parent nodes per worker before a tree level fans out to
/// threads (a node hash is two compressions, so small levels stay
/// sequential).
const PAR_MIN_NODES: usize = 1024;

/// Hashes a leaf payload with leaf domain separation.
pub fn leaf_hash(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(&[LEAF_TAG]);
    h.update(data);
    h.finalize()
}

/// Leaf-hashes a batch of digest-sized payloads (e.g. W-OTS public
/// keys, the MSS keygen shape) through the multi-buffer engine under
/// dispatch tier `d`: each 33-byte leaf message fits one compression
/// block, so up to [`mb::Dispatch::lanes`] leaves hash per compression.
/// Identical to mapping [`leaf_hash`] over the payload bytes.
pub fn leaf_hash_digests_with(d: mb::Dispatch, payloads: &[Digest]) -> Vec<Digest> {
    let msgs: Vec<[u8; 33]> = payloads
        .iter()
        .map(|p| {
            let mut msg = [0u8; 33];
            msg[0] = LEAF_TAG;
            msg[1..].copy_from_slice(p.as_bytes());
            msg
        })
        .collect();
    let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
    mb::hash_lanes_with(d, &refs)
}

/// Hashes two child digests into their parent.
pub fn node_hash(left: &Digest, right: &Digest) -> Digest {
    sha256_pair(NODE_TAG, left.as_bytes(), right.as_bytes())
}

/// Builds one tree level: parents of `prev`, split across `workers`
/// threads, each worker hashing its contiguous node range N-pairs-at-a-
/// time through the multi-buffer engine.
fn build_level(prev: &[Digest], workers: usize, d: mb::Dispatch) -> Vec<Digest> {
    let parents = prev.len().div_ceil(2);
    par::par_map_range_with(workers, parents, PAR_MIN_NODES, |range| {
        let pairs: Vec<(Digest, Digest)> = range
            .map(|i| {
                let left = prev[2 * i];
                let right = if 2 * i + 1 < prev.len() {
                    prev[2 * i + 1]
                } else {
                    left
                };
                (left, right)
            })
            .collect();
        mb::pair_lanes_with(d, NODE_TAG, &pairs)
    })
}

/// A complete binary Merkle tree over a power-of-two number of leaves.
///
/// Odd leaf counts are padded by duplicating the final leaf *hash* at each
/// level (Bitcoin-style), which keeps proofs simple.
#[derive(Debug, Clone)]
pub struct MerkleTree {
    /// `levels[0]` = leaf hashes, last level = `[root]`.
    levels: Vec<Vec<Digest>>,
}

/// One step of an authentication path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PathStep {
    /// The sibling digest at this level.
    pub sibling: Digest,
    /// `true` if the sibling is on the right of the running hash.
    pub sibling_on_right: bool,
}

/// An authentication path from a leaf to the root.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AuthPath {
    /// Steps from the leaf level upward.
    pub steps: Vec<PathStep>,
}

impl AuthPath {
    /// Recomputes the root implied by `leaf` under this path.
    pub fn implied_root(&self, leaf: &Digest) -> Digest {
        let mut acc = *leaf;
        for step in &self.steps {
            acc = if step.sibling_on_right {
                node_hash(&acc, &step.sibling)
            } else {
                node_hash(&step.sibling, &acc)
            };
        }
        acc
    }

    /// Serialized size in bytes: the step count, then 32 sibling bytes
    /// and 1 direction byte per step.
    pub fn byte_len(&self) -> usize {
        4 + self.steps.len() * 33
    }
}

/// The canonical wire format for authentication paths, shared by every
/// signature type that carries one (`MssSignature`, `BatchSignature`):
/// `u32` step count, then 32 raw sibling bytes + one direction bool per
/// step. Depth is capped at 64 on decode.
impl Encode for AuthPath {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.steps.len() as u32);
        for step in &self.steps {
            w.put_raw(step.sibling.as_bytes());
            w.put_bool(step.sibling_on_right);
        }
    }
}

impl Decode for AuthPath {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let n = r.get_u32()? as usize;
        if n > 64 {
            return Err(CodecError::Invalid(format!("auth path too deep: {n}")));
        }
        let mut steps = Vec::with_capacity(n);
        for _ in 0..n {
            let sibling = Digest::decode(r)?;
            let sibling_on_right = r.get_bool()?;
            steps.push(PathStep {
                sibling,
                sibling_on_right,
            });
        }
        Ok(Self { steps })
    }
}

impl MerkleTree {
    /// Builds a tree over already-hashed leaves.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty.
    pub fn from_leaf_hashes(leaves: Vec<Digest>) -> Self {
        Self::from_leaf_hashes_with_workers(leaves, par::workers())
    }

    /// [`MerkleTree::from_leaf_hashes`] with an explicit worker budget:
    /// each level's node hashes are split across scoped threads once the
    /// level is wide enough to amortize them, and every worker hashes
    /// its node range lane-batched (multi-buffer pair hashing). The
    /// resulting tree is identical for every worker count and dispatch
    /// tier.
    ///
    /// # Panics
    ///
    /// Panics if `leaves` is empty.
    pub fn from_leaf_hashes_with_workers(leaves: Vec<Digest>, workers: usize) -> Self {
        assert!(!leaves.is_empty(), "merkle tree needs at least one leaf");
        let d = mb::Dispatch::active();
        let mut levels = vec![leaves];
        while levels.last().unwrap().len() > 1 {
            let next = build_level(levels.last().unwrap(), workers, d);
            levels.push(next);
        }
        Self { levels }
    }

    /// The root digest.
    pub fn root(&self) -> Digest {
        self.levels.last().unwrap()[0]
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.levels[0].len()
    }

    /// The hash of leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn leaf(&self, index: usize) -> Digest {
        self.levels[0][index]
    }

    /// Builds the authentication path for leaf `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= leaf_count()`.
    pub fn auth_path(&self, index: usize) -> AuthPath {
        assert!(index < self.leaf_count(), "leaf index out of range");
        let mut steps = Vec::new();
        let mut idx = index;
        for level in &self.levels[..self.levels.len() - 1] {
            let sibling_idx = idx ^ 1;
            let sibling = if sibling_idx < level.len() {
                level[sibling_idx]
            } else {
                level[idx]
            };
            steps.push(PathStep {
                sibling,
                sibling_on_right: idx.is_multiple_of(2),
            });
            idx /= 2;
        }
        AuthPath { steps }
    }

    /// Verifies that `leaf` at `index`'s path reproduces `root`.
    pub fn verify(root: &Digest, leaf: &Digest, path: &AuthPath) -> bool {
        path.implied_root(leaf) == *root
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn from_payloads<'a>(payloads: impl IntoIterator<Item = &'a [u8]>) -> MerkleTree {
        MerkleTree::from_leaf_hashes(payloads.into_iter().map(leaf_hash).collect())
    }

    fn payloads(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| format!("leaf-{i}").into_bytes()).collect()
    }

    #[test]
    fn single_leaf_root_is_leaf_hash() {
        let tree = from_payloads([b"only".as_slice()]);
        assert_eq!(tree.root(), leaf_hash(b"only"));
        assert_eq!(tree.leaf_count(), 1);
        let path = tree.auth_path(0);
        assert!(path.steps.is_empty());
        assert!(MerkleTree::verify(&tree.root(), &leaf_hash(b"only"), &path));
    }

    #[test]
    fn all_paths_verify_for_various_sizes() {
        for n in [1usize, 2, 3, 4, 5, 7, 8, 9, 16, 33] {
            let data = payloads(n);
            let tree = from_payloads(data.iter().map(Vec::as_slice));
            let root = tree.root();
            for (i, payload) in data.iter().enumerate() {
                let path = tree.auth_path(i);
                assert!(
                    MerkleTree::verify(&root, &leaf_hash(payload), &path),
                    "n={n} leaf={i}"
                );
            }
        }
    }

    #[test]
    fn wrong_leaf_fails_verification() {
        let data = payloads(8);
        let tree = from_payloads(data.iter().map(Vec::as_slice));
        let path = tree.auth_path(3);
        assert!(!MerkleTree::verify(
            &tree.root(),
            &leaf_hash(b"forged"),
            &path
        ));
    }

    #[test]
    fn wrong_position_fails_verification() {
        let data = payloads(8);
        let tree = from_payloads(data.iter().map(Vec::as_slice));
        let path_for_2 = tree.auth_path(2);
        // Leaf 3's hash with leaf 2's path must not verify.
        assert!(!MerkleTree::verify(
            &tree.root(),
            &leaf_hash(&data[3]),
            &path_for_2
        ));
    }

    #[test]
    fn tampered_path_fails() {
        let data = payloads(4);
        let tree = from_payloads(data.iter().map(Vec::as_slice));
        let mut path = tree.auth_path(0);
        path.steps[0].sibling = leaf_hash(b"evil");
        assert!(!MerkleTree::verify(
            &tree.root(),
            &leaf_hash(&data[0]),
            &path
        ));
    }

    #[test]
    fn leaf_and_node_domains_are_separated() {
        // A 2-leaf tree whose leaves happen to be digests should not equal
        // a node hash of those digests interpreted as leaves.
        let a = leaf_hash(b"a");
        let b = leaf_hash(b"b");
        let tree = MerkleTree::from_leaf_hashes(vec![a, b]);
        assert_eq!(tree.root(), node_hash(&a, &b));
        assert_ne!(
            tree.root(),
            leaf_hash(&[a.as_bytes().as_slice(), b.as_bytes().as_slice()].concat())
        );
    }

    #[test]
    fn deterministic_roots() {
        let data = payloads(5);
        let t1 = from_payloads(data.iter().map(Vec::as_slice));
        let t2 = from_payloads(data.iter().map(Vec::as_slice));
        assert_eq!(t1.root(), t2.root());
    }

    #[test]
    fn path_byte_len() {
        let data = payloads(8);
        let tree = from_payloads(data.iter().map(Vec::as_slice));
        assert_eq!(tree.auth_path(0).byte_len(), 4 + 3 * 33);
        assert_eq!(
            tree.auth_path(0).byte_len(),
            tree.auth_path(0).encode_to_vec().len()
        );
    }

    #[test]
    #[should_panic(expected = "at least one leaf")]
    fn empty_tree_panics() {
        let _ = MerkleTree::from_leaf_hashes(vec![]);
    }

    #[test]
    fn lane_batched_levels_match_node_hash_for_every_tier() {
        // Odd widths exercise the duplicated-last-leaf lane and partial
        // final batches at every level.
        for n in [2usize, 3, 5, 9, 17, 33] {
            let leaves: Vec<Digest> = (0..n as u32).map(|i| leaf_hash(&i.to_le_bytes())).collect();
            let mut expected = leaves.clone();
            while expected.len() > 1 {
                expected = (0..expected.len().div_ceil(2))
                    .map(|i| {
                        let left = expected[2 * i];
                        let right = *expected.get(2 * i + 1).unwrap_or(&left);
                        node_hash(&left, &right)
                    })
                    .collect();
            }
            for tier in mb::Dispatch::all() {
                if !tier.is_available() {
                    continue;
                }
                let mut level = leaves.clone();
                while level.len() > 1 {
                    level = build_level(&level, 1, tier);
                }
                assert_eq!(level[0], expected[0], "n={n} tier={tier:?}");
            }
        }
    }

    #[test]
    fn leaf_hash_digests_matches_leaf_hash() {
        let payloads: Vec<Digest> = (0u32..19).map(|i| leaf_hash(&i.to_le_bytes())).collect();
        for tier in mb::Dispatch::all() {
            if !tier.is_available() {
                continue;
            }
            let got = leaf_hash_digests_with(tier, &payloads);
            for (p, digest) in payloads.iter().zip(&got) {
                assert_eq!(*digest, leaf_hash(p.as_bytes()), "tier {tier:?}");
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_the_tree() {
        // 5000 leaves → 2500 first-level parents, enough for ≥ 2 workers
        // at PAR_MIN_NODES per worker, so the scoped-thread branch of
        // level construction genuinely runs.
        let leaves: Vec<Digest> = (0..5000u32).map(|i| leaf_hash(&i.to_le_bytes())).collect();
        let reference = MerkleTree::from_leaf_hashes_with_workers(leaves.clone(), 1);
        for workers in [2usize, 3, 8] {
            let tree = MerkleTree::from_leaf_hashes_with_workers(leaves.clone(), workers);
            assert_eq!(tree.root(), reference.root(), "workers={workers}");
            assert_eq!(tree.leaf_count(), reference.leaf_count());
            let path = tree.auth_path(4321);
            assert!(MerkleTree::verify(&reference.root(), &leaves[4321], &path));
        }
    }
}
