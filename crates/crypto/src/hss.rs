//! Two-level hierarchical Merkle signatures (HSS): a long-lived **root**
//! MSS key certifies short-lived **subtree** MSS keys, so an organisation
//! can keep signing evidence long after any single tree is spent.
//!
//! The paper's guarantees assume every party can always sign (§3.5); a
//! plain [`MssSigner`] is finite. Here the root key of height `R` signs
//! one [`SubtreeCert`] per subtree of height `S`, giving `2^R · 2^S`
//! total signatures while verifiers keep holding the *same* 32-byte
//! public key (the root tree's Merkle root — key directories, key ids
//! and gossip are untouched). On the wire each [`HssSignature`]
//! carries its subtree signature plus the certificate chaining it to
//! the root (RFC 8554 §6), so verification never needs signer state.
//!
//! * **Stored form.** The certificate is identical for every signature
//!   of one subtree, so an evidence log keeps it once, as its own
//!   record, and a stored signature carries a [`CertLink::Ref`] — the
//!   36-byte `(generation, subtree_root)` pair — in its place
//!   ([`HssSignature::detach_cert`]). A reader puts the certificate back
//!   ([`HssSignature::attach_cert`]) and verifies as usual; a signature
//!   still holding a reference never verifies.
//!
//! * **Rollover** is automatic: when the active subtree exhausts,
//!   [`HssSigner::sign`] activates the next one, burns a single root
//!   leaf on its certificate, and signs on. The new certificate rides
//!   on every signature of the subtree, so a generation change needs no
//!   evidence of its own: the log stores the certificate once, as a
//!   `subtree_cert` record, the first time a token references it.
//! * **Pre-generation** hides keygen latency: as soon as a subtree
//!   activates (right after its first signature), the next one is built
//!   on a background thread through the same `par` + multi-buffer
//!   machinery as ordinary keygen (the 16-lane chain walk where the host
//!   has AVX-512: every one of the subtree's 67 · 2^h chains runs 15
//!   steps, so its lanes stay full), so the build has a whole subtree's
//!   signatures to finish in. The subtree seed is drawn (and retained)
//!   *before* the thread starts, so a lost or still-running
//!   pregeneration falls back to a synchronous build of the
//!   **identical** subtree — the generation chain is a pure function of
//!   the seed chain's initial secret.
//! * **Leaf secrets.** Subtrees of at most 2^8 leaves keep their W-OTS
//!   chain checkpoints (see [`mss`]), so a message signature walks at
//!   most 3 hash steps per chain; the root tree (one certificate per
//!   subtree) is taller and keeps seeds. At most two subtrees are live
//!   at once, the active one and the one being built: 2 × 2.1 MiB at
//!   height 8. A retired subtree's (all-zero) checkpoint buffer is what
//!   the next build writes into, so a key allocates those two buffers
//!   once.
//! * **Forward security** is preserved: subtree leaves zero their
//!   secrets on use exactly as in [`mss`], retired subtrees are dropped
//!   wholesale, and subtree seeds come from a one-way hash ratchet
//!   (`SeedChain`) whose prior state is overwritten on every draw.
//!   Compromising live signer state therefore exposes the active and
//!   future subtrees but cannot re-derive a retired subtree's seeds, so
//!   signatures over already-sealed evidence stay unforgeable. (The
//!   retained pregen seed only covers a subtree that has signed nothing
//!   yet, and erasure is a best-effort overwrite — not a guarded-memory
//!   guarantee.)

use std::thread::JoinHandle;

use nonrep_types::codec::{CodecError, Decode, Encode, Reader, Writer};

use crate::batch::BatchSignature;
use crate::digest::{Digest, Sha256};
use crate::mss::{self, MssError, MssSignature, MssSigner};
use crate::par;
use crate::rng::SecureRandom;

/// Domain prefix for subtree-certificate digests: a root signature over
/// a cert can never be confused with a root signature over evidence.
const CERT_DOMAIN: &[u8] = b"nonrep.hss.cert.v1";

/// A root-key certificate over one subtree: "subtree `generation` with
/// Merkle root `subtree_root` speaks for this key".
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtreeCert {
    /// Which generation this subtree is (0 = the initial subtree).
    pub generation: u32,
    /// The certified subtree's Merkle root.
    pub subtree_root: Digest,
    /// The root key's MSS signature over
    /// [`SubtreeCert::signing_digest`].
    pub root_sig: MssSignature,
}

impl SubtreeCert {
    /// The domain-separated digest the root key signs for a cert.
    pub fn signing_digest(generation: u32, subtree_root: &Digest) -> Digest {
        let mut h = Sha256::new();
        h.update(CERT_DOMAIN);
        h.update(&generation.to_le_bytes());
        h.update(subtree_root.as_bytes());
        h.finalize()
    }

    /// Verifies this cert against the registered root public key.
    pub fn verify(&self, root: &Digest) -> bool {
        mss::verify(
            root,
            &Self::signing_digest(self.generation, &self.subtree_root),
            &self.root_sig,
        )
    }

    /// The `(generation, subtree_root)` pair a stored signature carries
    /// in place of this cert.
    pub fn reference(&self) -> CertRef {
        CertRef {
            generation: self.generation,
            subtree_root: self.subtree_root,
        }
    }

    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        4 + 32 + self.root_sig.byte_len()
    }
}

/// Names one subtree certificate: what a stored [`HssSignature`]
/// carries instead of the certificate itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CertRef {
    /// The certified subtree's generation.
    pub generation: u32,
    /// The certified subtree's Merkle root.
    pub subtree_root: Digest,
}

impl CertRef {
    /// Serialized size in bytes.
    pub const BYTE_LEN: usize = 4 + 32;
}

impl Encode for CertRef {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.generation);
        self.subtree_root.encode(w);
    }
}

impl Decode for CertRef {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            generation: r.get_u32()?,
            subtree_root: Digest::decode(r)?,
        })
    }
}

/// The certificate an [`HssSignature`] chains through: the full cert
/// (the wire form) or a reference to one stored elsewhere.
// Unboxed on purpose: every wire signature is `Inline`, and a `Ref`
// lives only between decoding a stored token and attaching its cert,
// so boxing would add an allocation to the common case to save space
// in the rare one.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertLink {
    /// The root key's certificate itself.
    Inline(SubtreeCert),
    /// A reference to a certificate the reader resolves before
    /// verifying ([`HssSignature::attach_cert`]).
    Ref(CertRef),
}

impl CertLink {
    /// The `(generation, subtree_root)` pair, whichever the form.
    pub fn reference(&self) -> CertRef {
        match self {
            CertLink::Inline(cert) => cert.reference(),
            CertLink::Ref(r) => *r,
        }
    }
}

impl Encode for SubtreeCert {
    fn encode(&self, w: &mut Writer) {
        w.put_u32(self.generation);
        self.subtree_root.encode(w);
        self.root_sig.encode(w);
    }
}

impl Decode for SubtreeCert {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            generation: r.get_u32()?,
            subtree_root: Digest::decode(r)?,
            root_sig: MssSignature::decode(r)?,
        })
    }
}

/// The subtree-level signature inside an [`HssSignature`]: either a
/// direct per-message MSS signature or one batch-sealed signature with
/// this message's authentication path (see [`crate::batch`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubtreeSig {
    /// One subtree leaf per message.
    Direct(MssSignature),
    /// One subtree leaf per *batch*; the path proves membership.
    Batched(BatchSignature),
}

const SUBTREE_TAG_DIRECT: u8 = 0;
const SUBTREE_TAG_BATCHED: u8 = 1;
/// Or'd into the subtree tag when a [`CertRef`] follows the subtree
/// signature instead of a [`SubtreeCert`], so the inline (wire) encoding
/// is the same bytes it always was.
const SUBTREE_TAG_CERT_REF: u8 = 2;

/// A hierarchical signature: the subtree's signature over the message
/// plus the root-key certificate over that subtree. With the cert
/// inline it is self-contained — a verifier holding only the root
/// public key walks the chain cert-then-signature without any signer
/// state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HssSignature {
    /// The active subtree's signature over the message digest.
    pub subtree_sig: SubtreeSig,
    /// The root key's certificate over that subtree, or a reference to
    /// it in the stored form.
    pub cert: CertLink,
}

impl HssSignature {
    /// Verifies the full chain: the cert under the registered `root`
    /// public key, then the message signature under the certified
    /// subtree root. A signature whose cert is only referenced never
    /// verifies.
    pub fn verify(&self, root: &Digest, digest: &Digest) -> bool {
        let CertLink::Inline(cert) = &self.cert else {
            return false;
        };
        if !cert.verify(root) {
            return false;
        }
        match &self.subtree_sig {
            SubtreeSig::Direct(s) => mss::verify(&cert.subtree_root, digest, s),
            SubtreeSig::Batched(b) => b.verify(&cert.subtree_root, digest),
        }
    }

    /// `true` if the subtree signature was produced by a batch seal.
    pub fn is_batched(&self) -> bool {
        matches!(self.subtree_sig, SubtreeSig::Batched(_))
    }

    /// Replaces an inline cert with its reference and returns the cert
    /// (`None`, changing nothing, if the cert is already a reference).
    pub fn detach_cert(&mut self) -> Option<SubtreeCert> {
        let reference = CertLink::Ref(self.cert.reference());
        match std::mem::replace(&mut self.cert, reference) {
            CertLink::Inline(cert) => Some(cert),
            CertLink::Ref(_) => None,
        }
    }

    /// Puts `cert` in place of the reference it answers. Returns `false`,
    /// changing nothing, if the cert is inline already or `cert` names
    /// another subtree.
    pub fn attach_cert(&mut self, cert: SubtreeCert) -> bool {
        match self.cert {
            CertLink::Ref(r) if r == cert.reference() => {
                self.cert = CertLink::Inline(cert);
                true
            }
            _ => false,
        }
    }

    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        let inner = match &self.subtree_sig {
            SubtreeSig::Direct(s) => s.byte_len(),
            SubtreeSig::Batched(b) => b.byte_len(),
        };
        let cert = match &self.cert {
            CertLink::Inline(cert) => cert.byte_len(),
            CertLink::Ref(_) => CertRef::BYTE_LEN,
        };
        1 + inner + cert
    }
}

impl Encode for HssSignature {
    fn encode(&self, w: &mut Writer) {
        let cert_tag = match self.cert {
            CertLink::Inline(_) => 0,
            CertLink::Ref(_) => SUBTREE_TAG_CERT_REF,
        };
        match &self.subtree_sig {
            SubtreeSig::Direct(s) => {
                w.put_u8(SUBTREE_TAG_DIRECT | cert_tag);
                s.encode(w);
            }
            SubtreeSig::Batched(b) => {
                w.put_u8(SUBTREE_TAG_BATCHED | cert_tag);
                b.encode(w);
            }
        }
        match &self.cert {
            CertLink::Inline(cert) => cert.encode(w),
            CertLink::Ref(r) => r.encode(w),
        }
    }
}

impl Decode for HssSignature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let tag = r.get_u8()?;
        let subtree_sig = match tag & !SUBTREE_TAG_CERT_REF {
            SUBTREE_TAG_DIRECT => SubtreeSig::Direct(MssSignature::decode(r)?),
            SUBTREE_TAG_BATCHED => SubtreeSig::Batched(BatchSignature::decode(r)?),
            _ => {
                return Err(CodecError::InvalidTag {
                    ty: "HssSignature",
                    tag,
                })
            }
        };
        let cert = if tag & SUBTREE_TAG_CERT_REF == 0 {
            CertLink::Inline(SubtreeCert::decode(r)?)
        } else {
            CertLink::Ref(CertRef::decode(r)?)
        };
        Ok(Self { subtree_sig, cert })
    }
}

/// Domain prefixes for the forward-secure subtree seed chain: from one
/// 32-byte state, `SEED` derives the next subtree's key material and
/// `RATCHET` derives the successor state.
const CHAIN_SEED_DOMAIN: &[u8] = b"nonrep.hss.chain.seed.v1";
const CHAIN_RATCHET_DOMAIN: &[u8] = b"nonrep.hss.chain.ratchet.v1";

/// Forward-secure source of subtree seeds: a one-way hash ratchet whose
/// state is overwritten on every draw. The whole generation chain is a
/// pure function of the initial secret — regenerating a signer from the
/// same key seed replays it, which is what crash recovery relies on —
/// but the *live* state only reaches forward: both derivations are
/// one-way hashes and the state that produced a retired subtree's seed
/// is destroyed the moment the next one is drawn.
struct SeedChain {
    state: [u8; 32],
}

impl SeedChain {
    fn new(secret: [u8; 32]) -> Self {
        Self { state: secret }
    }

    /// Derives the next subtree seed, then ratchets the state forward —
    /// overwriting the state that produced the seed.
    fn next_seed(&mut self) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(CHAIN_SEED_DOMAIN);
        h.update(&self.state);
        let seed = *h.finalize().as_bytes();
        let mut h = Sha256::new();
        h.update(CHAIN_RATCHET_DOMAIN);
        h.update(&self.state);
        self.state = *h.finalize().as_bytes();
        seed
    }
}

/// An in-flight (or completed) background subtree build. The seed is
/// retained so a pregeneration that never finishes — or whose thread is
/// lost — can be replayed synchronously with an identical result. (The
/// retention is forward-security-neutral: the seed covers the *next*
/// subtree, which has signed nothing yet.)
struct Pregen {
    seed: [u8; 32],
    handle: Option<JoinHandle<MssSigner>>,
}

impl Pregen {
    /// The finished subtree: joins the worker if it ran, rebuilds from
    /// the retained seed otherwise (also the panic-recovery path).
    fn into_subtree(self, height: u8, workers: usize) -> MssSigner {
        if let Some(handle) = self.handle {
            if let Ok(signer) = handle.join() {
                return signer;
            }
        }
        build_subtree(self.seed, height, workers, Vec::new())
    }
}

fn build_subtree(seed: [u8; 32], height: u8, workers: usize, buffer: Vec<[u8; 32]>) -> MssSigner {
    MssSigner::generate_into(
        height,
        &mut SecureRandom::from_seed32(seed),
        workers,
        buffer,
    )
}

/// The signing half of a hierarchical key: a root [`MssSigner`] that
/// only ever signs subtree certificates, the active subtree that signs
/// messages, and the machinery that rolls generations over without a
/// signing gap.
pub struct HssSigner {
    root: MssSigner,
    active: MssSigner,
    active_cert: SubtreeCert,
    subtree_height: u8,
    generation: u32,
    /// Forward-secure source of subtree seeds — the generation chain is
    /// a pure function of its initial secret, independent of pregen
    /// timing, but the live state cannot be rewound to retired subtrees.
    seed_chain: SeedChain,
    pregen: Option<Pregen>,
    /// The retired subtree's checkpoint buffer (all zeros: every leaf
    /// signed), which the next build writes into. A key thus allocates
    /// two buffers in its lifetime rather than one per generation, and
    /// the allocator is never left holding freed 2.1 MiB blocks in the
    /// arenas of exited pregen threads.
    spare: Vec<[u8; 32]>,
    workers: usize,
}

impl std::fmt::Debug for HssSigner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HssSigner")
            .field("generation", &self.generation)
            .field("subtree_remaining", &self.active.remaining())
            .field("root_remaining", &self.root.remaining())
            .finish_non_exhaustive()
    }
}

impl HssSigner {
    /// Generates a hierarchical key: a root tree of `root_height` (one
    /// leaf per subtree generation) over subtrees of `subtree_height`.
    ///
    /// # Panics
    ///
    /// Panics if either height is outside `1..=20` (the same bound as
    /// [`MssSigner::generate`]).
    pub fn generate(root_height: u8, subtree_height: u8, rng: &mut SecureRandom) -> Self {
        Self::generate_with_workers(root_height, subtree_height, rng, par::workers())
    }

    /// [`HssSigner::generate`] with an explicit worker budget.
    ///
    /// # Panics
    ///
    /// Panics if either height is outside `1..=20`.
    pub fn generate_with_workers(
        root_height: u8,
        subtree_height: u8,
        rng: &mut SecureRandom,
        workers: usize,
    ) -> Self {
        let mut root = MssSigner::generate_with_workers(root_height, rng, workers);
        let mut seed_chain = SeedChain::new(rng.secret32());
        let active = build_subtree(seed_chain.next_seed(), subtree_height, workers, Vec::new());
        let active_cert = certify(&mut root, 0, active.public_key())
            .expect("fresh root key certifies generation 0");
        Self {
            root,
            active,
            active_cert,
            subtree_height,
            generation: 0,
            seed_chain,
            pregen: None,
            spare: Vec::new(),
            workers,
        }
    }

    /// The public key verifiers hold: the **root** tree's Merkle root.
    pub fn public_key(&self) -> Digest {
        self.root.public_key()
    }

    /// The currently active generation (0 until the first rollover).
    pub fn generation(&self) -> u32 {
        self.generation
    }

    /// Leaves left on the active subtree.
    pub fn subtree_remaining(&self) -> u32 {
        self.active.remaining()
    }

    /// Total message signatures left across the hierarchy: the active
    /// subtree's tail plus a full subtree per remaining root leaf.
    pub fn remaining_total(&self) -> u64 {
        u64::from(self.active.remaining())
            + u64::from(self.root.remaining()) * (1u64 << self.subtree_height)
    }

    /// `true` while a background subtree build is in flight.
    #[cfg(test)]
    fn pregen_in_flight(&self) -> bool {
        self.pregen.is_some()
    }

    /// Signs a message digest, rolling over to the next subtree first
    /// if the active one is spent.
    ///
    /// # Errors
    ///
    /// Returns [`MssError::KeyExhausted`] only when the *root* key has
    /// no leaves left to certify a fresh subtree — the whole hierarchy
    /// is spent.
    pub fn sign(&mut self, digest: &Digest) -> Result<HssSignature, MssError> {
        let (sig, cert) = self.sign_leaf(digest)?;
        Ok(HssSignature {
            subtree_sig: SubtreeSig::Direct(sig),
            cert: CertLink::Inline(cert),
        })
    }

    /// Signs with one subtree leaf and returns the raw pieces — the
    /// batch pipeline wraps the leaf signature in a
    /// [`SubtreeSig::Batched`] while sharing the same rollover and
    /// pregeneration machinery.
    ///
    /// # Errors
    ///
    /// Returns [`MssError::KeyExhausted`] when the hierarchy is spent
    /// (see [`HssSigner::sign`]).
    pub fn sign_leaf(&mut self, digest: &Digest) -> Result<(MssSignature, SubtreeCert), MssError> {
        if self.active.remaining() == 0 {
            self.roll_over()?;
        }
        let sig = self.active.sign(digest)?;
        self.maybe_start_pregen();
        Ok((sig, self.active_cert.clone()))
    }

    /// Retires the active subtree and activates the next generation,
    /// burning one root leaf on its certificate.
    fn roll_over(&mut self) -> Result<(), MssError> {
        if self.root.remaining() == 0 {
            return Err(MssError::KeyExhausted);
        }
        let next = match self.pregen.take() {
            Some(p) => p.into_subtree(self.subtree_height, self.workers),
            None => build_subtree(
                self.seed_chain.next_seed(),
                self.subtree_height,
                self.workers,
                std::mem::take(&mut self.spare),
            ),
        };
        let generation = self.generation + 1;
        let cert = certify(&mut self.root, generation, next.public_key())?;
        self.spare = std::mem::replace(&mut self.active, next).into_buffer();
        self.active_cert = cert;
        self.generation = generation;
        Ok(())
    }

    /// Kicks off the background build of the next subtree as soon as a
    /// subtree activates — called after its first signature — if
    /// another generation is possible. The build then has the whole
    /// subtree's signatures to finish in. The seed is drawn — and kept —
    /// before the thread starts, so the chain stays deterministic
    /// whatever the thread's fate.
    fn maybe_start_pregen(&mut self) {
        if self.pregen.is_some() || self.root.remaining() == 0 {
            return;
        }
        let seed = self.seed_chain.next_seed();
        let height = self.subtree_height;
        let workers = self.workers;
        let buffer = std::mem::take(&mut self.spare);
        let handle = std::thread::Builder::new()
            .name("hss-pregen".into())
            .spawn(move || build_subtree(seed, height, workers, buffer))
            .ok();
        self.pregen = Some(Pregen { seed, handle });
    }
}

fn certify(
    root: &mut MssSigner,
    generation: u32,
    subtree_root: Digest,
) -> Result<SubtreeCert, MssError> {
    let root_sig = root.sign(&SubtreeCert::signing_digest(generation, &subtree_root))?;
    Ok(SubtreeCert {
        generation,
        subtree_root,
        root_sig,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::sha256;

    fn signer(root_height: u8, subtree_height: u8, seed: u64) -> HssSigner {
        HssSigner::generate(
            root_height,
            subtree_height,
            &mut SecureRandom::from_seed(seed),
        )
    }

    #[test]
    fn sign_verify_roundtrip() {
        let mut s = signer(2, 2, 1);
        let pk = s.public_key();
        let d = sha256(b"hello");
        let sig = s.sign(&d).unwrap();
        assert!(sig.verify(&pk, &d));
        assert!(!sig.verify(&pk, &sha256(b"other")));
        assert!(!sig.verify(&sha256(b"wrong root"), &d));
    }

    #[test]
    fn signing_rolls_across_generations_without_a_gap() {
        // Root height 3 (8 subtrees) over subtrees of height 1 (2 leaves):
        // 16 message signatures total, 7 rollovers along the way.
        let mut s = signer(3, 1, 2);
        let pk = s.public_key();
        let mut seen = std::collections::HashSet::new();
        for i in 0..16u8 {
            let d = sha256(&[i]);
            let sig = s.sign(&d).unwrap();
            assert!(sig.verify(&pk, &d), "message {i} failed to verify");
            if let SubtreeSig::Direct(m) = &sig.subtree_sig {
                assert!(
                    seen.insert((sig.cert.reference().generation, m.leaf_index)),
                    "leaf reused at message {i}"
                );
            }
        }
        assert_eq!(s.generation(), 7);
        assert_eq!(s.remaining_total(), 0);
        assert_eq!(s.sign(&sha256(b"x")).unwrap_err(), MssError::KeyExhausted);
    }

    #[test]
    fn generation_chain_is_deterministic_regardless_of_pregen_timing() {
        // Same rng seed ⇒ identical subtree roots and certs, whether the
        // background build finished in time or the rollover had to build
        // synchronously — both paths replay the same retained seed.
        let mut a = signer(3, 2, 4);
        let mut b = signer(3, 2, 4);
        for i in 0..12u8 {
            let d = sha256(&[i]);
            let sa = a.sign(&d).unwrap();
            // b signs in bursts so its pregen timing differs.
            let sb = b.sign(&d).unwrap();
            assert_eq!(sa, sb, "message {i}");
        }
    }

    #[test]
    fn seed_chain_is_deterministic_from_its_initial_secret() {
        let mut a = SeedChain::new([7u8; 32]);
        let mut b = SeedChain::new([7u8; 32]);
        for _ in 0..4 {
            assert_eq!(a.next_seed(), b.next_seed());
        }
    }

    #[test]
    fn seed_chain_ratchets_forward_and_destroys_prior_state() {
        let mut chain = SeedChain::new([7u8; 32]);
        let s0 = chain.next_seed();
        let s1 = chain.next_seed();
        assert_ne!(s0, s1, "each generation gets a distinct seed");
        // The live state only reaches forward: a chain resumed from it
        // produces exactly the future seeds, and no state that could
        // re-derive s0 or s1 remains anywhere in the signer.
        let mut resumed = SeedChain::new(chain.state);
        let s2 = chain.next_seed();
        assert_eq!(resumed.next_seed(), s2);
        assert_ne!(chain.state, [7u8; 32], "initial secret was overwritten");
        assert_ne!(resumed.next_seed(), s0);
        assert_ne!(resumed.next_seed(), s1);
    }

    #[test]
    fn pregen_starts_at_activation() {
        // Root height 3 (8 generations) over subtrees of 4 leaves: the
        // first signature of every generation leaves the next subtree
        // building, until the root has no leaf left to certify it.
        let mut s = signer(3, 2, 5);
        assert!(!s.pregen_in_flight());
        for generation in 0..8u32 {
            s.sign(&sha256(&[generation as u8])).unwrap();
            assert_eq!(s.generation(), generation);
            assert_eq!(s.pregen_in_flight(), generation < 7, "gen {generation}");
            for i in 1..4u8 {
                s.sign(&sha256(&[generation as u8, i])).unwrap();
            }
        }
        assert_eq!(s.remaining_total(), 0);
    }

    #[test]
    fn forged_cert_fails_verification() {
        let mut alice = signer(2, 1, 6);
        let mut mallory = signer(2, 1, 7);
        let d = sha256(b"claim");
        let mut sig = alice.sign(&d).unwrap();
        // Substitute a cert signed by mallory's root.
        sig.cert = mallory.sign(&d).unwrap().cert;
        assert!(!sig.verify(&alice.public_key(), &d));
        // Tampering the generation breaks the cert's digest binding.
        let mut sig = alice.sign(&d).unwrap();
        if let CertLink::Inline(cert) = &mut sig.cert {
            cert.generation += 1;
        }
        assert!(!sig.verify(&alice.public_key(), &d));
    }

    #[test]
    fn stored_form_verifies_only_with_its_cert_attached() {
        let mut s = signer(2, 1, 11);
        let pk = s.public_key();
        let d = sha256(b"stored");
        let wire = s.sign(&d).unwrap();
        let mut stored = wire.clone();
        let cert = stored
            .detach_cert()
            .expect("a fresh signature carries its cert");
        assert_eq!(stored.cert, CertLink::Ref(cert.reference()));
        assert_eq!(stored.detach_cert(), None, "already a reference");
        // The reference alone never verifies, and round-trips as one.
        assert!(!stored.verify(&pk, &d));
        let back = HssSignature::decode_from_slice(&stored.encode_to_vec()).unwrap();
        assert_eq!(back, stored);
        assert_eq!(
            wire.encode_to_vec().len() - stored.encode_to_vec().len(),
            cert.byte_len() - CertRef::BYTE_LEN
        );
        // Only the cert the reference names can be attached.
        let mut other = s.active_cert.clone();
        other.generation += 1;
        assert!(!stored.attach_cert(other));
        assert!(stored.attach_cert(cert.clone()));
        assert!(!stored.attach_cert(cert), "already inline");
        assert_eq!(stored, wire);
        assert!(stored.verify(&pk, &d));
    }

    #[test]
    fn attached_cert_from_another_root_fails() {
        let mut alice = signer(2, 1, 12);
        let mut other_root = MssSigner::generate(2, &mut SecureRandom::from_seed(13));
        let d = sha256(b"claim");
        let mut sig = alice.sign(&d).unwrap();
        let genuine = sig.detach_cert().unwrap();
        // Another root key certifies alice's subtree: the reference
        // matches and the cert is genuine under its own root, but the
        // chain to alice's root does not hold.
        let swapped = SubtreeCert {
            root_sig: other_root
                .sign(&SubtreeCert::signing_digest(
                    genuine.generation,
                    &genuine.subtree_root,
                ))
                .unwrap(),
            ..genuine
        };
        assert!(swapped.verify(&other_root.public_key()));
        assert!(sig.attach_cert(swapped));
        assert!(!sig.verify(&alice.public_key(), &d));
    }

    #[test]
    fn remaining_total_accounts_for_future_subtrees() {
        let mut s = signer(2, 2, 8);
        // 4 root leaves: one spent on generation 0's cert at keygen.
        assert_eq!(s.remaining_total(), 4 + 3 * 4);
        s.sign(&sha256(b"a")).unwrap();
        assert_eq!(s.remaining_total(), 3 + 3 * 4);
    }

    #[test]
    fn signature_codec_roundtrip() {
        let mut s = signer(2, 1, 9);
        let d = sha256(b"codec");
        let sig = s.sign(&d).unwrap();
        let back = HssSignature::decode_from_slice(&sig.encode_to_vec()).unwrap();
        assert_eq!(back, sig);
        assert!(back.verify(&s.public_key(), &d));
        assert_eq!(sig.encode_to_vec().len(), sig.byte_len());
        let mut stored = sig;
        stored.detach_cert();
        assert_eq!(stored.encode_to_vec().len(), stored.byte_len());
    }

    #[test]
    fn cert_codec_roundtrip() {
        let s = signer(2, 1, 10);
        let cert = s.active_cert.clone();
        let back = SubtreeCert::decode_from_slice(&cert.encode_to_vec()).unwrap();
        assert_eq!(back, cert);
        assert!(back.verify(&s.public_key()));
        assert_eq!(cert.encode_to_vec().len(), cert.byte_len());
    }
}
