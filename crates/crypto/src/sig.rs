//! Scheme-agnostic signatures.
//!
//! The middleware never hard-codes a signature algorithm: the paper's
//! framework is explicitly protocol- and mechanism-neutral ("interceptors
//! can implement different mechanisms to meet different interaction
//! requirements", §3.1). [`KeyPair`]/[`VerifyingKey`]/[`Signature`] abstract
//! over:
//!
//! * [`SignatureScheme::Mss`] — publicly verifiable, forward-secure
//!   hash-based signatures (default for inter-organisation evidence), and
//! * [`SignatureScheme::Arbitrated`] — shared-key HMAC tags whose
//!   evidentiary value rests on a trusted arbiter (for lightweight/inline
//!   TTP deployments).

use std::error::Error;
use std::fmt;

use parking_lot::Mutex;

use nonrep_types::codec::{CodecError, Decode, Encode, Reader, Writer};

use crate::arbitrated::ArbitratedKey;
use crate::batch::{batch_digest, batch_leaves, BatchSignature};
use crate::digest::{sha256, Digest};
use crate::hss::{CertLink, CertRef, HssSignature, HssSigner, SubtreeCert, SubtreeSig};
use crate::merkle::MerkleTree;
use crate::mss::{self, MssError, MssSignature, MssSigner};
use crate::rng::SecureRandom;

/// Identifies a verifying key: the SHA-256 of its canonical encoding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct KeyId(pub Digest);

impl KeyId {
    /// Derives the key id of a verifying key.
    pub fn of(key: &VerifyingKey) -> Self {
        Self(sha256(&key.encode_to_vec()))
    }
}

impl fmt::Display for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key:{}", &self.0.to_hex()[..16])
    }
}

impl Encode for KeyId {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
    }
}

impl Decode for KeyId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self(Digest::decode(r)?))
    }
}

/// Which signature scheme a key pair uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SignatureScheme {
    /// Forward-secure Merkle signature scheme with `2^height` capacity.
    Mss {
        /// Tree height; capacity is `2^height` signatures.
        height: u8,
    },
    /// Two-level hierarchical MSS (see [`crate::hss`]): a root tree of
    /// `root_height` certifies rolling subtrees of `subtree_height`,
    /// for `2^root_height · 2^subtree_height` total signatures under
    /// one unchanging public key.
    Hss {
        /// Root tree height; one leaf is spent per subtree generation.
        root_height: u8,
        /// Height of each short-lived subtree.
        subtree_height: u8,
    },
    /// Shared-key HMAC tags (arbitrated; not publicly verifiable).
    Arbitrated,
}

/// Errors from signing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignError {
    /// A stateful key ran out of one-time leaves.
    KeyExhausted,
}

impl fmt::Display for SignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignError::KeyExhausted => f.write_str("signing key exhausted"),
        }
    }
}

impl Error for SignError {}

impl From<MssError> for SignError {
    fn from(e: MssError) -> Self {
        match e {
            MssError::KeyExhausted => SignError::KeyExhausted,
        }
    }
}

/// A signature (or arbitrated tag) over a message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    /// Which key produced this signature.
    pub key_id: KeyId,
    /// Scheme-specific signature payload.
    pub payload: SignaturePayload,
}

/// Scheme-specific signature material.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SignaturePayload {
    /// MSS signature.
    Mss(MssSignature),
    /// Arbitrated HMAC tag.
    Arbitrated(Digest),
    /// One MSS signature shared by a whole batch of records, plus this
    /// record's authentication path to the signed batch root (see
    /// [`crate::batch`]).
    BatchedMss(BatchSignature),
    /// Hierarchical signature: a subtree signature (direct or batched)
    /// chained to the root key by its subtree certificate, or — in the
    /// stored form — by a reference to it (see [`crate::hss`]). Boxed:
    /// it is several times the size of the other variants, and
    /// signatures mostly live behind this enum in bulk.
    Hss(Box<HssSignature>),
}

impl Signature {
    /// Size of the signature's encoding in bytes (for the space-overhead
    /// experiment, E7): the key id, the scheme tag and the payload.
    pub fn byte_len(&self) -> usize {
        32 + 1
            + match &self.payload {
                SignaturePayload::Mss(s) => s.byte_len(),
                SignaturePayload::Arbitrated(_) => 32,
                SignaturePayload::BatchedMss(b) => b.byte_len(),
                SignaturePayload::Hss(h) => h.byte_len(),
            }
    }

    /// Turns a hierarchical signature into its stored form: the inline
    /// subtree certificate is replaced by its reference and returned.
    /// `None` (nothing changed) for other schemes and for a signature
    /// already in the stored form.
    pub fn detach_cert(&mut self) -> Option<SubtreeCert> {
        match &mut self.payload {
            SignaturePayload::Hss(h) => h.detach_cert(),
            _ => None,
        }
    }

    /// The certificate reference a stored hierarchical signature carries
    /// (`None` when the cert is inline, or the scheme has none).
    pub fn cert_ref(&self) -> Option<CertRef> {
        match &self.payload {
            SignaturePayload::Hss(h) => match h.cert {
                CertLink::Ref(r) => Some(r),
                CertLink::Inline(_) => None,
            },
            _ => None,
        }
    }

    /// Resolves a stored signature's reference with `cert` (see
    /// [`HssSignature::attach_cert`]); `false` if it names another cert.
    pub fn attach_cert(&mut self, cert: SubtreeCert) -> bool {
        match &mut self.payload {
            SignaturePayload::Hss(h) => h.attach_cert(cert),
            _ => false,
        }
    }

    /// `true` if this signature was produced by a batch seal (one
    /// underlying signature shared across the batch).
    pub fn is_batched(&self) -> bool {
        match &self.payload {
            SignaturePayload::BatchedMss(_) => true,
            SignaturePayload::Hss(h) => h.is_batched(),
            _ => false,
        }
    }
}

const SIG_TAG_MSS: u8 = 0;
const SIG_TAG_ARB: u8 = 1;
const SIG_TAG_BATCH: u8 = 2;
const SIG_TAG_HSS: u8 = 3;

impl Encode for Signature {
    fn encode(&self, w: &mut Writer) {
        self.key_id.encode(w);
        match &self.payload {
            SignaturePayload::Mss(s) => {
                w.put_u8(SIG_TAG_MSS);
                s.encode(w);
            }
            SignaturePayload::Arbitrated(d) => {
                w.put_u8(SIG_TAG_ARB);
                d.encode(w);
            }
            SignaturePayload::BatchedMss(b) => {
                w.put_u8(SIG_TAG_BATCH);
                b.encode(w);
            }
            SignaturePayload::Hss(h) => {
                w.put_u8(SIG_TAG_HSS);
                h.encode(w);
            }
        }
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let key_id = KeyId::decode(r)?;
        let payload = match r.get_u8()? {
            SIG_TAG_MSS => SignaturePayload::Mss(MssSignature::decode(r)?),
            SIG_TAG_ARB => SignaturePayload::Arbitrated(Digest::decode(r)?),
            SIG_TAG_BATCH => SignaturePayload::BatchedMss(BatchSignature::decode(r)?),
            SIG_TAG_HSS => SignaturePayload::Hss(Box::new(HssSignature::decode(r)?)),
            tag => {
                return Err(CodecError::InvalidTag {
                    ty: "Signature",
                    tag,
                })
            }
        };
        Ok(Self { key_id, payload })
    }
}

/// The public half of a key pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyingKey {
    /// MSS Merkle root: publicly verifiable.
    Mss {
        /// The Merkle root of the key's authentication tree.
        root: Digest,
    },
    /// Arbitrated shared key. **Holding this key allows forging tags**; it
    /// is distributed only to the mutually trusted arbiter. Its evidentiary
    /// value is "the arbiter vouches", which is exactly the inline-TTP trust
    /// model of paper Fig 3(a).
    Arbitrated {
        /// The shared secret (also held by the signer and the arbiter).
        secret: [u8; 32],
    },
}

const VK_TAG_MSS: u8 = 0;
const VK_TAG_ARB: u8 = 1;

impl Encode for VerifyingKey {
    fn encode(&self, w: &mut Writer) {
        match self {
            VerifyingKey::Mss { root } => {
                w.put_u8(VK_TAG_MSS);
                root.encode(w);
            }
            VerifyingKey::Arbitrated { secret } => {
                w.put_u8(VK_TAG_ARB);
                w.put_raw(secret);
            }
        }
    }
}

impl Decode for VerifyingKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        match r.get_u8()? {
            VK_TAG_MSS => Ok(VerifyingKey::Mss {
                root: Digest::decode(r)?,
            }),
            VK_TAG_ARB => {
                let raw = r.get_raw(32)?;
                let mut secret = [0u8; 32];
                secret.copy_from_slice(raw);
                Ok(VerifyingKey::Arbitrated { secret })
            }
            tag => Err(CodecError::InvalidTag {
                ty: "VerifyingKey",
                tag,
            }),
        }
    }
}

impl VerifyingKey {
    /// This key's identifier.
    pub fn key_id(&self) -> KeyId {
        KeyId::of(self)
    }

    /// Verifies `sig` over `message`.
    ///
    /// Returns `false` (never errors) on any mismatch: wrong key id, wrong
    /// scheme, bad signature. A verifier must treat all failures alike.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> bool {
        if sig.key_id != self.key_id() {
            return false;
        }
        self.verify_payload(&sha256(message), sig)
    }

    /// Verifies a signature over a precomputed digest (when the message
    /// itself is elsewhere, e.g. a state snapshot in the state store).
    pub fn verify_digest(&self, digest: &Digest, sig: &Signature) -> bool {
        if sig.key_id != self.key_id() {
            return false;
        }
        self.verify_payload(digest, sig)
    }

    /// Scheme dispatch shared by [`VerifyingKey::verify`] and
    /// [`VerifyingKey::verify_digest`] (key id already checked).
    fn verify_payload(&self, digest: &Digest, sig: &Signature) -> bool {
        match (self, &sig.payload) {
            (VerifyingKey::Mss { root }, SignaturePayload::Mss(s)) => mss::verify(root, digest, s),
            (VerifyingKey::Mss { root }, SignaturePayload::BatchedMss(b)) => b.verify(root, digest),
            (VerifyingKey::Mss { root }, SignaturePayload::Hss(h)) => h.verify(root, digest),
            (VerifyingKey::Arbitrated { secret }, SignaturePayload::Arbitrated(tag)) => {
                ArbitratedKey::from_bytes(*secret).verify(digest.as_bytes(), tag)
            }
            _ => false,
        }
    }
}

enum SignerInner {
    Mss(MssSigner),
    Hss(Box<HssSigner>),
    Arbitrated(ArbitratedKey),
}

impl fmt::Debug for SignerInner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignerInner::Mss(_) => f.write_str("Mss(..)"),
            SignerInner::Hss(_) => f.write_str("Hss(..)"),
            SignerInner::Arbitrated(_) => f.write_str("Arbitrated(..)"),
        }
    }
}

/// A signing key pair.
///
/// Signing takes `&self` (MSS statefulness is handled internally with a
/// mutex) so key pairs can be shared across middleware components.
#[derive(Debug)]
pub struct KeyPair {
    inner: Mutex<SignerInner>,
    verifying: VerifyingKey,
    key_id: KeyId,
}

impl KeyPair {
    /// Generates a key pair for `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if an MSS height outside `1..=20` is requested.
    pub fn generate(scheme: SignatureScheme, rng: &mut SecureRandom) -> Self {
        match scheme {
            SignatureScheme::Mss { height } => {
                let signer = MssSigner::generate(height, rng);
                let verifying = VerifyingKey::Mss {
                    root: signer.public_key(),
                };
                let key_id = verifying.key_id();
                Self {
                    inner: Mutex::new(SignerInner::Mss(signer)),
                    verifying,
                    key_id,
                }
            }
            SignatureScheme::Hss {
                root_height,
                subtree_height,
            } => {
                let signer = HssSigner::generate(root_height, subtree_height, rng);
                // The verifying key is the ordinary MSS root digest:
                // directories, key ids and gossip cannot tell a
                // hierarchical key from a single tree.
                let verifying = VerifyingKey::Mss {
                    root: signer.public_key(),
                };
                let key_id = verifying.key_id();
                Self {
                    inner: Mutex::new(SignerInner::Hss(Box::new(signer))),
                    verifying,
                    key_id,
                }
            }
            SignatureScheme::Arbitrated => {
                let key = ArbitratedKey::generate(rng);
                let verifying = VerifyingKey::Arbitrated {
                    secret: key.to_bytes(),
                };
                let key_id = verifying.key_id();
                Self {
                    inner: Mutex::new(SignerInner::Arbitrated(key)),
                    verifying,
                    key_id,
                }
            }
        }
    }

    /// The public verifying key.
    pub fn verifying_key(&self) -> VerifyingKey {
        self.verifying.clone()
    }

    /// This key's identifier.
    pub fn key_id(&self) -> KeyId {
        self.key_id
    }

    /// Remaining signatures, if the scheme is stateful. For a
    /// hierarchical key this is the *total* across current and future
    /// subtrees (saturated at `u32::MAX`), so `Some(0)` still means
    /// "cannot sign anything ever again".
    pub fn remaining(&self) -> Option<u32> {
        match &*self.inner.lock() {
            SignerInner::Mss(s) => Some(s.remaining()),
            SignerInner::Hss(s) => Some(u32::try_from(s.remaining_total()).unwrap_or(u32::MAX)),
            SignerInner::Arbitrated(_) => None,
        }
    }

    /// The active subtree generation of a hierarchical key (0 for
    /// every other scheme, and before the first rollover).
    pub fn generation(&self) -> u32 {
        match &*self.inner.lock() {
            SignerInner::Hss(s) => s.generation(),
            _ => 0,
        }
    }

    /// Leaves left on a hierarchical key's *active subtree* (`None`
    /// for other schemes) — the quantity exhaustion forecasting tracks.
    pub fn subtree_remaining(&self) -> Option<u32> {
        match &*self.inner.lock() {
            SignerInner::Hss(s) => Some(s.subtree_remaining()),
            _ => None,
        }
    }

    /// Signs `message`.
    ///
    /// # Errors
    ///
    /// Returns [`SignError::KeyExhausted`] if a stateful key has no leaves
    /// left.
    pub fn sign(&self, message: &[u8]) -> Result<Signature, SignError> {
        self.sign_digest(&sha256(message))
    }

    /// Signs a precomputed digest.
    ///
    /// # Errors
    ///
    /// Returns [`SignError::KeyExhausted`] if a stateful key has no leaves
    /// left.
    pub fn sign_digest(&self, digest: &Digest) -> Result<Signature, SignError> {
        let payload = match &mut *self.inner.lock() {
            SignerInner::Mss(s) => SignaturePayload::Mss(s.sign(digest)?),
            SignerInner::Hss(s) => SignaturePayload::Hss(Box::new(s.sign(digest)?)),
            SignerInner::Arbitrated(k) => SignaturePayload::Arbitrated(k.tag(digest.as_bytes())),
        };
        Ok(Signature {
            key_id: self.key_id,
            payload,
        })
    }

    /// Signs a batch of message digests with **one** underlying signature.
    ///
    /// For MSS keys this builds a Merkle tree over the digests, signs the
    /// batch root once (consuming a single one-time leaf), and returns one
    /// [`SignaturePayload::BatchedMss`] per digest — each independently
    /// verifiable through [`VerifyingKey::verify_digest`]. For arbitrated
    /// keys, HMAC tags are already cheap, so each digest gets its own tag.
    ///
    /// Returns signatures aligned index-for-index with `digests`.
    ///
    /// # Errors
    ///
    /// Returns [`SignError::KeyExhausted`] if a stateful key has no leaves
    /// left. An empty batch returns an empty vector without consuming
    /// capacity.
    pub fn sign_batch(&self, digests: &[Digest]) -> Result<Vec<Signature>, SignError> {
        if digests.is_empty() {
            return Ok(Vec::new());
        }
        match &mut *self.inner.lock() {
            SignerInner::Mss(s) => {
                // One-shot tree build: the incremental accumulator is for
                // streaming producers; here all leaves are in hand, and
                // building the tree directly hashes each node once.
                let tree = MerkleTree::from_leaf_hashes(batch_leaves(digests));
                let mss_sig = s.sign(&batch_digest(&tree.root()))?;
                Ok((0..digests.len())
                    .map(|i| Signature {
                        key_id: self.key_id,
                        payload: SignaturePayload::BatchedMss(BatchSignature {
                            mss_sig: mss_sig.clone(),
                            leaf_index: i as u32,
                            leaf_count: digests.len() as u32,
                            auth_path: tree.auth_path(i),
                        }),
                    })
                    .collect())
            }
            SignerInner::Hss(s) => {
                // Same one-shot tree as the MSS arm; the single leaf
                // signature comes from the active subtree and every
                // batched payload carries the chaining cert.
                let tree = MerkleTree::from_leaf_hashes(batch_leaves(digests));
                let (mss_sig, cert) = s.sign_leaf(&batch_digest(&tree.root()))?;
                Ok((0..digests.len())
                    .map(|i| Signature {
                        key_id: self.key_id,
                        payload: SignaturePayload::Hss(Box::new(HssSignature {
                            subtree_sig: SubtreeSig::Batched(BatchSignature {
                                mss_sig: mss_sig.clone(),
                                leaf_index: i as u32,
                                leaf_count: digests.len() as u32,
                                auth_path: tree.auth_path(i),
                            }),
                            cert: CertLink::Inline(cert.clone()),
                        })),
                    })
                    .collect())
            }
            SignerInner::Arbitrated(k) => Ok(digests
                .iter()
                .map(|d| Signature {
                    key_id: self.key_id,
                    payload: SignaturePayload::Arbitrated(k.tag(d.as_bytes())),
                })
                .collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mss_pair(seed: u64) -> KeyPair {
        KeyPair::generate(
            SignatureScheme::Mss { height: 3 },
            &mut SecureRandom::from_seed(seed),
        )
    }

    #[test]
    fn mss_sign_verify() {
        let kp = mss_pair(1);
        let sig = kp.sign(b"contract").unwrap();
        assert!(kp.verifying_key().verify(b"contract", &sig));
        assert!(!kp.verifying_key().verify(b"tampered", &sig));
    }

    #[test]
    fn arbitrated_sign_verify() {
        let kp = KeyPair::generate(SignatureScheme::Arbitrated, &mut SecureRandom::from_seed(2));
        let sig = kp.sign(b"audit").unwrap();
        assert!(kp.verifying_key().verify(b"audit", &sig));
        assert!(!kp.verifying_key().verify(b"other", &sig));
        assert_eq!(kp.remaining(), None);
    }

    #[test]
    fn cross_scheme_verification_fails() {
        let mss = mss_pair(3);
        let arb = KeyPair::generate(SignatureScheme::Arbitrated, &mut SecureRandom::from_seed(4));
        let sig = mss.sign(b"m").unwrap();
        assert!(!arb.verifying_key().verify(b"m", &sig));
    }

    #[test]
    fn key_id_binds_signature_to_key() {
        let a = mss_pair(5);
        let b = mss_pair(6);
        let mut sig = a.sign(b"m").unwrap();
        // Forge the key id: verification under b must still fail
        // (and under a too, since the id no longer matches).
        sig.key_id = b.key_id();
        assert!(!a.verifying_key().verify(b"m", &sig));
        assert!(!b.verifying_key().verify(b"m", &sig));
    }

    #[test]
    fn mss_capacity_tracked() {
        let kp = KeyPair::generate(
            SignatureScheme::Mss { height: 1 },
            &mut SecureRandom::from_seed(7),
        );
        assert_eq!(kp.remaining(), Some(2));
        kp.sign(b"a").unwrap();
        kp.sign(b"b").unwrap();
        assert_eq!(kp.remaining(), Some(0));
        assert_eq!(kp.sign(b"c").unwrap_err(), SignError::KeyExhausted);
    }

    #[test]
    fn signature_codec_roundtrip_both_schemes() {
        let mss = mss_pair(8);
        let arb = KeyPair::generate(SignatureScheme::Arbitrated, &mut SecureRandom::from_seed(9));
        for kp in [&mss, &arb] {
            let sig = kp.sign(b"wire").unwrap();
            let back = Signature::decode_from_slice(&sig.encode_to_vec()).unwrap();
            assert_eq!(back, sig);
            assert!(kp.verifying_key().verify(b"wire", &back));
            assert_eq!(sig.byte_len(), sig.encode_to_vec().len());
        }
    }

    #[test]
    fn verifying_key_codec_roundtrip() {
        let kp = mss_pair(10);
        let vk = kp.verifying_key();
        let back = VerifyingKey::decode_from_slice(&vk.encode_to_vec()).unwrap();
        assert_eq!(back, vk);
        assert_eq!(back.key_id(), kp.key_id());
    }

    #[test]
    fn sign_digest_matches_sign() {
        let kp = KeyPair::generate(
            SignatureScheme::Arbitrated,
            &mut SecureRandom::from_seed(11),
        );
        let m = b"same bytes";
        let s1 = kp.sign(m).unwrap();
        let s2 = kp.sign_digest(&sha256(m)).unwrap();
        assert_eq!(s1, s2);
        assert!(kp.verifying_key().verify_digest(&sha256(m), &s1));
    }

    #[test]
    fn signature_sizes_differ_between_schemes() {
        let mss_sig = mss_pair(12).sign(b"m").unwrap();
        let arb_sig = KeyPair::generate(
            SignatureScheme::Arbitrated,
            &mut SecureRandom::from_seed(13),
        )
        .sign(b"m")
        .unwrap();
        assert!(
            mss_sig.byte_len() > 50 * arb_sig.byte_len() / 10,
            "MSS should be much larger"
        );
    }

    #[test]
    fn batch_signing_covers_every_digest_with_one_leaf() {
        let kp = KeyPair::generate(
            SignatureScheme::Mss { height: 2 },
            &mut SecureRandom::from_seed(20),
        );
        let digests: Vec<_> = (0..7u8).map(|i| sha256(&[i])).collect();
        let before = kp.remaining().unwrap();
        let sigs = kp.sign_batch(&digests).unwrap();
        // One batch of 7 consumed exactly one one-time leaf.
        assert_eq!(kp.remaining().unwrap(), before - 1);
        assert_eq!(sigs.len(), 7);
        let vk = kp.verifying_key();
        for (d, s) in digests.iter().zip(&sigs) {
            assert!(s.is_batched());
            assert!(vk.verify_digest(d, s));
        }
        // A signature does not verify for a different digest in the batch.
        assert!(!vk.verify_digest(&digests[0], &sigs[1]));
        // Codec roundtrip preserves verifiability.
        let back = Signature::decode_from_slice(&sigs[3].encode_to_vec()).unwrap();
        assert!(vk.verify_digest(&digests[3], &back));
        assert_eq!(sigs[3].byte_len(), sigs[3].encode_to_vec().len());
    }

    #[test]
    fn batch_signing_empty_and_arbitrated() {
        let kp = mss_pair(21);
        assert!(kp.sign_batch(&[]).unwrap().is_empty());
        let arb = KeyPair::generate(
            SignatureScheme::Arbitrated,
            &mut SecureRandom::from_seed(22),
        );
        let digests = [sha256(b"a"), sha256(b"b")];
        let sigs = arb.sign_batch(&digests).unwrap();
        for (d, s) in digests.iter().zip(&sigs) {
            assert!(!s.is_batched());
            assert!(arb.verifying_key().verify_digest(d, s));
        }
    }

    #[test]
    fn batched_signature_rejects_tampered_path_and_root() {
        use crate::batch::BatchSignature;
        let kp = mss_pair(23);
        let digests: Vec<_> = (0..4u8).map(|i| sha256(&[i])).collect();
        let sigs = kp.sign_batch(&digests).unwrap();
        let vk = kp.verifying_key();
        // Tamper the auth path.
        let mut doctored = sigs[2].clone();
        if let SignaturePayload::BatchedMss(BatchSignature { auth_path, .. }) =
            &mut doctored.payload
        {
            auth_path.steps[0].sibling = sha256(b"evil");
        }
        assert!(!vk.verify_digest(&digests[2], &doctored));
        // A batched signature does not verify as a direct signature over
        // the batch digest (domain separation).
        let direct = kp.sign_digest(&sha256(b"msg")).unwrap();
        assert!(!vk.verify_digest(&sha256(b"other"), &direct));
    }

    fn hss_pair(seed: u64) -> KeyPair {
        KeyPair::generate(
            SignatureScheme::Hss {
                root_height: 2,
                subtree_height: 1,
            },
            &mut SecureRandom::from_seed(seed),
        )
    }

    #[test]
    fn hss_verifies_through_the_ordinary_verifying_key_path() {
        let kp = hss_pair(30);
        // The verifying key is a plain MSS root: key ids, directories
        // and the wire format cannot tell the schemes apart.
        assert!(matches!(kp.verifying_key(), VerifyingKey::Mss { .. }));
        let sig = kp.sign(b"contract").unwrap();
        assert!(kp.verifying_key().verify(b"contract", &sig));
        assert!(!kp.verifying_key().verify(b"tampered", &sig));
        let back = Signature::decode_from_slice(&sig.encode_to_vec()).unwrap();
        assert!(kp.verifying_key().verify(b"contract", &back));
    }

    #[test]
    fn hss_keeps_signing_across_subtree_exhaustion() {
        let kp = hss_pair(31);
        // 4 root leaves − 1 for generation 0 ⇒ 3 future subtrees of 2:
        // 8 total signatures, 3 rollovers.
        assert_eq!(kp.remaining(), Some(8));
        let vk = kp.verifying_key();
        for i in 0..8u8 {
            let m = [i];
            let sig = kp.sign(&m).unwrap();
            assert!(vk.verify(&m, &sig), "message {i}");
        }
        assert_eq!(kp.remaining(), Some(0));
        assert_eq!(kp.generation(), 3);
        assert_eq!(kp.sign(b"x").unwrap_err(), SignError::KeyExhausted);
    }

    #[test]
    fn hss_batch_signing_burns_one_subtree_leaf_and_chains_the_cert() {
        let kp = KeyPair::generate(
            SignatureScheme::Hss {
                root_height: 2,
                subtree_height: 2,
            },
            &mut SecureRandom::from_seed(32),
        );
        let digests: Vec<_> = (0..5u8).map(|i| sha256(&[i])).collect();
        let before = kp.remaining().unwrap();
        let sigs = kp.sign_batch(&digests).unwrap();
        assert_eq!(kp.remaining().unwrap(), before - 1);
        let vk = kp.verifying_key();
        for (d, s) in digests.iter().zip(&sigs) {
            assert!(s.is_batched());
            assert!(vk.verify_digest(d, s));
        }
        assert!(!vk.verify_digest(&digests[0], &sigs[1]));
        let back = Signature::decode_from_slice(&sigs[2].encode_to_vec()).unwrap();
        assert!(vk.verify_digest(&digests[2], &back));
        assert_eq!(sigs[2].byte_len(), sigs[2].encode_to_vec().len());
        // The stored form: the cert comes out, a reference stays behind,
        // and only the named cert puts it back.
        let mut stored = sigs[2].clone();
        let cert = stored.detach_cert().unwrap();
        assert_eq!(stored.cert_ref(), Some(cert.reference()));
        assert_eq!(stored.byte_len(), stored.encode_to_vec().len());
        assert!(!vk.verify_digest(&digests[2], &stored));
        assert!(stored.attach_cert(cert));
        assert_eq!(stored, sigs[2]);
        assert_eq!(stored.cert_ref(), None);
    }

    #[test]
    fn non_hierarchical_keys_report_empty_lifecycle() {
        let kp = mss_pair(33);
        assert_eq!(kp.generation(), 0);
        assert_eq!(kp.subtree_remaining(), None);
        let h = hss_pair(34);
        assert_eq!(h.subtree_remaining(), Some(2));
    }

    #[test]
    fn concurrent_signing_is_safe() {
        use std::sync::Arc;
        let kp = Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 5 },
            &mut SecureRandom::from_seed(14),
        ));
        let handles: Vec<_> = (0..4)
            .map(|t| {
                let kp = Arc::clone(&kp);
                std::thread::spawn(move || {
                    (0..8)
                        .map(|i| kp.sign(format!("{t}-{i}").as_bytes()).unwrap())
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        let mut leaf_indices = std::collections::HashSet::new();
        for h in handles {
            for sig in h.join().unwrap() {
                if let SignaturePayload::Mss(m) = sig.payload {
                    assert!(
                        leaf_indices.insert(m.leaf_index),
                        "leaf reused across threads"
                    );
                }
            }
        }
        assert_eq!(leaf_indices.len(), 32);
    }
}
