//! Property tests for the cryptographic primitives.

use std::sync::Arc;

use nonrep_crypto::batch::{batch_digest, BatchSignature};
use nonrep_crypto::digest::{mb, sha256, sha256_short, Digest, Sha256};
use nonrep_crypto::hmac::{hmac_sha256, hmac_short_lanes_with};
use nonrep_crypto::hss::{CertLink, HssSignature, SubtreeCert, SubtreeSig};
use nonrep_crypto::merkle::{leaf_hash, leaf_hash_digests_with, MerkleTree};
use nonrep_crypto::mss::{self, MssSignature, MssSigner};
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, Signature, SignaturePayload, SignatureScheme, VerifyingKey};
use nonrep_crypto::wots::{self, WotsKeyPair};
use nonrep_types::codec::{Decode, Encode};
use proptest::collection::vec;
use proptest::prelude::*;

/// Every dispatch tier this host can run.
fn tiers() -> Vec<mb::Dispatch> {
    mb::Dispatch::all()
        .into_iter()
        .filter(|t| t.is_available())
        .collect()
}

/// The uncached MSS verification, rebuilt from public primitives: what
/// the memoised `mss::verify` must agree with on every input.
fn reference_mss(root: &Digest, digest: &Digest, sig: &MssSignature) -> bool {
    let implied = sig.path.steps.iter().enumerate().fold(0u64, |acc, (l, s)| {
        acc | (u64::from(!s.sibling_on_right) << l)
    });
    let leaf = leaf_hash(wots::recover_public_key(digest, &sig.wots).as_bytes());
    implied == u64::from(sig.leaf_index) && MerkleTree::verify(root, &leaf, &sig.path)
}

fn reference_batch(root: &Digest, digest: &Digest, b: &BatchSignature) -> bool {
    let implied = b.auth_path.implied_root(&leaf_hash(digest.as_bytes()));
    reference_mss(root, &batch_digest(&implied), &b.mss_sig)
}

fn reference_hss(root: &Digest, digest: &Digest, h: &HssSignature) -> bool {
    let CertLink::Inline(cert) = &h.cert else {
        return false;
    };
    let cert_digest = SubtreeCert::signing_digest(cert.generation, &cert.subtree_root);
    reference_mss(root, &cert_digest, &cert.root_sig)
        && match &h.subtree_sig {
            SubtreeSig::Direct(s) => reference_mss(&cert.subtree_root, digest, s),
            SubtreeSig::Batched(b) => reference_batch(&cert.subtree_root, digest, b),
        }
}

/// Uncached `VerifyingKey::verify_digest` for Merkle keys.
fn reference(vk: &VerifyingKey, digest: &Digest, sig: &Signature) -> bool {
    let VerifyingKey::Mss { root } = vk else {
        panic!("reference covers Merkle keys only");
    };
    sig.key_id == vk.key_id()
        && match &sig.payload {
            SignaturePayload::Mss(s) => reference_mss(root, digest, s),
            SignaturePayload::BatchedMss(b) => reference_batch(root, digest, b),
            SignaturePayload::Hss(h) => reference_hss(root, digest, h),
            SignaturePayload::Arbitrated(_) => false,
        }
}

/// Every single-field mutation of `sig` a hostile submitter could try,
/// each with whether verification must reject it. A hierarchical
/// signature is also tried in its stored form, its cert replaced by a
/// reference, which never verifies on its own. (A batch signature's
/// `leaf_index` and `leaf_count` are informational — the position is
/// bound by the authentication path's direction bits — so changing
/// them alone leaves a signature that still verifies.)
fn mutations(sig: &Signature) -> Vec<(Signature, bool)> {
    fn mss(s: &mut MssSignature, which: usize) -> bool {
        match which {
            0 => s.leaf_index ^= 1,
            1 => Arc::make_mut(&mut s.wots.chains)[7][3] ^= 0x40,
            _ => s.path.steps[0].sibling = sha256(b"grafted sibling"),
        }
        true
    }
    fn batch(b: &mut BatchSignature, which: usize) -> bool {
        match which {
            0..=2 => return mss(&mut b.mss_sig, which),
            3 => b.leaf_index ^= 1,
            4 => b.leaf_count += 1,
            _ => b.auth_path.steps[0].sibling = sha256(b"grafted step"),
        }
        which > 4
    }
    fn cert(c: &mut SubtreeCert, which: usize) -> bool {
        match which {
            0..=2 => return mss(&mut c.root_sig, which),
            3 => c.generation += 1,
            _ => c.subtree_root = sha256(b"grafted subtree"),
        }
        true
    }
    let arms = match &sig.payload {
        SignaturePayload::Mss(_) => 3,
        SignaturePayload::BatchedMss(_) => 6,
        SignaturePayload::Hss(_) if sig.batch().is_some() => 6 + 6,
        SignaturePayload::Hss(_) => 6 + 3,
        SignaturePayload::Arbitrated(_) => 0,
    };
    (0..arms)
        .map(|which| {
            let mut m = sig.clone();
            let rejected = match &mut m.payload {
                SignaturePayload::Mss(s) => mss(s, which),
                SignaturePayload::BatchedMss(b) => batch(b, which),
                SignaturePayload::Hss(h) => match (which.checked_sub(6), &mut h.subtree_sig) {
                    (None, _) if which == 5 => h.detach_cert().is_some(),
                    (None, _) => match &mut h.cert {
                        CertLink::Inline(c) => cert(Arc::make_mut(c), which),
                        CertLink::Ref(_) => true,
                    },
                    (Some(w), SubtreeSig::Direct(s)) => mss(s, w),
                    (Some(w), SubtreeSig::Batched(b)) => batch(b, w),
                },
                SignaturePayload::Arbitrated(_) => true,
            };
            (m, rejected)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The verification memo is invisible: for flat, batched,
    /// hierarchical and hierarchical-batched signatures, the genuine
    /// signature, every single-field mutation of it, a different digest
    /// and a different root key presenting it all verify exactly as the
    /// uncached reference says — before the genuine triple is cached
    /// and after.
    #[test]
    fn memoised_verification_equals_the_uncached_reference(seed in any::<u64>()) {
        let key = |scheme, salt: u64| {
            KeyPair::generate(scheme, &mut SecureRandom::from_seed(seed ^ salt))
        };
        let hss = SignatureScheme::Hss { root_height: 2, subtree_height: 2 };
        let flat = key(SignatureScheme::Mss { height: 3 }, 1);
        let tree = key(hss, 2);
        let digests: Vec<Digest> = (0..3u8).map(|i| sha256(&[i, seed as u8])).collect();
        let cases = [
            (&flat, flat.sign_digest(&digests[0]).unwrap()),
            (&flat, flat.sign_batch(&digests).unwrap().swap_remove(0)),
            (&tree, tree.sign_digest(&digests[0]).unwrap()),
            (&tree, tree.sign_batch(&digests).unwrap().swap_remove(0)),
        ];
        for (kp, genuine) in &cases {
            let vk = kp.verifying_key();
            // The same signature (cert included) presented under another
            // registered root.
            let other = key(hss, 3).verifying_key();
            let mut transplanted = genuine.clone();
            transplanted.key_id = other.key_id();
            for warm in [false, true] {
                for (m, rejected) in mutations(genuine) {
                    prop_assert_eq!(reference(&vk, &digests[0], &m), !rejected);
                    prop_assert_eq!(vk.verify_digest(&digests[0], &m), !rejected, "warm {}", warm);
                }
                prop_assert!(!vk.verify_digest(&digests[1], genuine));
                prop_assert!(!reference(&vk, &digests[1], genuine));
                prop_assert!(!other.verify_digest(&digests[0], &transplanted));
                prop_assert!(!reference(&other, &digests[0], &transplanted));
                prop_assert!(vk.verify_digest(&digests[0], genuine));
                prop_assert!(reference(&vk, &digests[0], genuine));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Signing from stored chain checkpoints is signing from the seed,
    /// for random digests and the two extreme chunk patterns (all-0
    /// chunks start every message chain at step 0 and walk the checksum
    /// chains deepest; all-15 chunks take every message chain from its
    /// last checkpoint to the end). Under every tier the checkpoint
    /// signature equals the sequential seed signature, and a
    /// checkpoint-keeping MSS key signs exactly as the
    /// `generate_sequential` reference built from the same seed stream.
    #[test]
    fn checkpoint_signing_equals_seed_signing(seed in any::<u64>(),
                                              random in proptest::array::uniform32(any::<u8>())) {
        let digests = [
            Digest::from_bytes(random),
            Digest::from_bytes([0x00; 32]),
            Digest::from_bytes([0xFF; 32]),
        ];
        let key_seed = SecureRandom::from_seed(seed).secret32();
        let reference_pk = WotsKeyPair::from_seed_with(key_seed, mb::Dispatch::Single).public_key();
        for tier in tiers() {
            let mut checkpoints = vec![[0u8; 32]; wots::KEY_CHECKPOINTS];
            let pks =
                WotsKeyPair::public_keys_and_checkpoints_with(&[key_seed], tier, &mut checkpoints);
            prop_assert_eq!(pks, vec![reference_pk], "tier {:?}", tier);
            for d in &digests {
                let sig = WotsKeyPair::sign_from_checkpoints_with(&checkpoints, d, tier);
                let want = WotsKeyPair::sign_from_seed_with(&key_seed, d, mb::Dispatch::Single);
                prop_assert_eq!(&sig, &want, "tier {:?}", tier);
                prop_assert!(wots::verify_with(&reference_pk, d, &sig, tier));
            }
        }
        let mut fast = MssSigner::generate_with_workers(3, &mut SecureRandom::from_seed(seed), 2);
        let mut reference = MssSigner::generate_sequential(3, &mut SecureRandom::from_seed(seed));
        prop_assert_eq!(fast.public_key(), reference.public_key());
        for d in &digests {
            let sig = fast.sign(d).unwrap();
            prop_assert_eq!(&sig, &reference.sign(d).unwrap());
            prop_assert!(mss::verify(&fast.public_key(), d, &sig));
        }
    }
}

proptest! {
    /// `mb::hash_lanes` equals sequential `sha256_short` for every
    /// dispatch tier, every batch size (including partial final
    /// batches of 1..=lanes messages) and arbitrary short messages.
    #[test]
    fn mb_hash_lanes_matches_sequential(
        seed in any::<u64>(),
        n in 1usize..2 * mb::Dispatch::Avx512.lanes() + 2,
        len in 0usize..56,
    ) {
        let msgs: Vec<Vec<u8>> = (0..n)
            .map(|i| {
                (0..len.saturating_sub(i % 3))
                    .map(|j| (seed as usize + i * 131 + j) as u8)
                    .collect()
            })
            .collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let expected: Vec<Digest> = msgs.iter().map(|m| sha256_short(m)).collect();
        for tier in tiers() {
            prop_assert_eq!(&mb::hash_lanes_with(tier, &refs), &expected, "tier {:?}", tier);
        }
        prop_assert_eq!(&mb::hash_lanes(&refs), &expected);
    }

    /// Lane-batched W-OTS equals the sequential reference for every
    /// tier: identical keys and signatures, verification accepts the
    /// right digest and rejects a different one.
    #[test]
    fn wots_tiers_equivalent(seed in proptest::array::uniform32(any::<u8>()),
                             m1 in vec(any::<u8>(), 0..64), m2 in vec(any::<u8>(), 0..64)) {
        prop_assume!(m1 != m2);
        let d1 = sha256(&m1);
        let d2 = sha256(&m2);
        let reference = WotsKeyPair::from_seed_with(seed, mb::Dispatch::Single);
        let ref_sig = reference.sign_with(&d1, mb::Dispatch::Single);
        for tier in tiers() {
            let kp = WotsKeyPair::from_seed_with(seed, tier);
            prop_assert_eq!(kp.public_key(), reference.public_key(), "tier {:?}", tier);
            let sig = kp.sign_with(&d1, tier);
            prop_assert_eq!(&sig, &ref_sig, "tier {:?}", tier);
            prop_assert!(wots::verify_with(&kp.public_key(), &d1, &sig, tier));
            prop_assert!(!wots::verify_with(&kp.public_key(), &d2, &sig, tier));
        }
    }

    /// Batched short-message HMAC equals `hmac_sha256` per message for
    /// every tier.
    #[test]
    fn hmac_lanes_match_sequential(key in vec(any::<u8>(), 1..64), n in 1usize..20) {
        let msgs: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; (i * 5) % 56]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        let expected: Vec<Digest> = msgs.iter().map(|m| hmac_sha256(&key, m)).collect();
        for tier in tiers() {
            prop_assert_eq!(&hmac_short_lanes_with(tier, &key, &refs), &expected,
                            "tier {:?}", tier);
        }
    }

    /// Lane-batched leaf hashing equals `leaf_hash` for every tier.
    #[test]
    fn leaf_hash_lanes_match_sequential(n in 1usize..40, seed in any::<u64>()) {
        let payloads: Vec<Digest> =
            (0..n).map(|i| sha256(&(seed ^ i as u64).to_le_bytes())).collect();
        let expected: Vec<Digest> =
            payloads.iter().map(|p| leaf_hash(p.as_bytes())).collect();
        for tier in tiers() {
            prop_assert_eq!(&leaf_hash_digests_with(tier, &payloads), &expected,
                            "tier {:?}", tier);
        }
    }

    /// Incremental hashing equals one-shot hashing for any split.
    #[test]
    fn sha256_incremental_equals_oneshot(data in vec(any::<u8>(), 0..512), split in 0usize..512) {
        let split = split.min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256(&data));
    }

    /// Distinct messages produce distinct digests (collision witness test).
    #[test]
    fn sha256_no_trivial_collisions(a in vec(any::<u8>(), 0..64), b in vec(any::<u8>(), 0..64)) {
        prop_assume!(a != b);
        prop_assert_ne!(sha256(&a), sha256(&b));
    }

    /// HMAC differs under different keys.
    #[test]
    fn hmac_key_separation(k1 in vec(any::<u8>(), 1..64), k2 in vec(any::<u8>(), 1..64),
                           msg in vec(any::<u8>(), 0..128)) {
        prop_assume!(k1 != k2);
        prop_assert_ne!(hmac_sha256(&k1, &msg), hmac_sha256(&k2, &msg));
    }

    /// Every leaf of every tree size verifies against the root.
    #[test]
    fn merkle_all_leaves_verify(n in 1usize..24, seed in any::<u64>()) {
        let payloads: Vec<Vec<u8>> =
            (0..n).map(|i| format!("{seed}-{i}").into_bytes()).collect();
        let tree = MerkleTree::from_leaf_hashes(payloads.iter().map(|p| leaf_hash(p)).collect());
        for (i, p) in payloads.iter().enumerate() {
            let path = tree.auth_path(i);
            prop_assert!(MerkleTree::verify(&tree.root(), &leaf_hash(p), &path));
        }
    }

    /// A flipped bit anywhere in a leaf payload breaks verification.
    #[test]
    fn merkle_bitflip_detected(n in 2usize..16, idx in 0usize..16, byte in any::<u8>()) {
        let idx = idx % n;
        let payloads: Vec<Vec<u8>> = (0..n).map(|i| vec![i as u8; 8]).collect();
        let tree = MerkleTree::from_leaf_hashes(payloads.iter().map(|p| leaf_hash(p)).collect());
        let mut forged = payloads[idx].clone();
        forged[0] ^= byte | 1; // guarantee at least one bit flips
        let path = tree.auth_path(idx);
        prop_assert!(!MerkleTree::verify(&tree.root(), &leaf_hash(&forged), &path));
    }

    /// Signatures verify for the signed message and fail for any other.
    #[test]
    fn signature_soundness(seed in any::<u64>(), m1 in vec(any::<u8>(), 0..64),
                           m2 in vec(any::<u8>(), 0..64)) {
        prop_assume!(m1 != m2);
        let kp = KeyPair::generate(
            SignatureScheme::Mss { height: 1 },
            &mut SecureRandom::from_seed(seed),
        );
        let sig = kp.sign(&m1).unwrap();
        prop_assert!(kp.verifying_key().verify(&m1, &sig));
        prop_assert!(!kp.verifying_key().verify(&m2, &sig));
    }

    /// Signature decoding never panics on arbitrary bytes.
    #[test]
    fn signature_decode_never_panics(bytes in vec(any::<u8>(), 0..256)) {
        let _ = Signature::decode_from_slice(&bytes);
    }

    /// Encoded signatures round-trip.
    #[test]
    fn signature_codec_roundtrip(seed in any::<u64>(), msg in vec(any::<u8>(), 0..64)) {
        let kp = KeyPair::generate(SignatureScheme::Arbitrated, &mut SecureRandom::from_seed(seed));
        let sig = kp.sign(&msg).unwrap();
        let back = Signature::decode_from_slice(&sig.encode_to_vec()).unwrap();
        prop_assert_eq!(back, sig);
    }

    /// Digest hex round-trips.
    #[test]
    fn digest_hex_roundtrip(bytes in proptest::array::uniform32(any::<u8>())) {
        let hex = Digest::from_bytes(bytes).to_hex();
        prop_assert_eq!(hex.len(), 64);
        let back: Vec<u8> = (0..32)
            .map(|i| u8::from_str_radix(&hex[2 * i..2 * i + 2], 16).unwrap())
            .collect();
        prop_assert_eq!(back, bytes.to_vec());
    }
}
