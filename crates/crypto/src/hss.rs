//! Two-level hierarchical Merkle signatures (HSS): a long-lived **root**
//! MSS key certifies short-lived **subtree** MSS keys, so an organisation
//! can keep signing evidence long after any single tree is spent.
//!
//! The paper's guarantees assume every party can always sign (§3.5); a
//! plain [`MssSigner`] is finite. Here the root key of height `R` signs
//! one [`SubtreeCert`] per subtree of height `S`, giving `2^R · 2^S`
//! total signatures while verifiers keep holding the *same* 32-byte
//! public key (the root tree's Merkle root — key directories, key ids
//! and gossip are untouched). Each [`HssSignature`] carries its
//! subtree signature plus the certificate chaining it to the root, so
//! verification never needs signer state.
//!
//! * **Rollover** is automatic: when the active subtree exhausts,
//!   [`HssSigner::sign`] activates the next one, burns a single root
//!   leaf on its certificate, and records a [`RolloverEvent`] that the
//!   evidence layer seals into the log as a `key_rollover` record.
//! * **Pre-generation** hides keygen latency: as soon as a subtree
//!   activates (right after its first signature), the next one is built
//!   on a background thread through the same `par` + multi-buffer
//!   machinery as ordinary keygen, so the build has a whole subtree's
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

    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        4 + 32 + self.root_sig.byte_len()
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

/// A hierarchical signature: the subtree's signature over the message
/// plus the root-key certificate over that subtree. Self-contained — a
/// verifier holding only the root public key walks the chain
/// cert-then-signature without any signer state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HssSignature {
    /// The active subtree's signature over the message digest.
    pub subtree_sig: SubtreeSig,
    /// The root key's certificate over that subtree.
    pub subtree_root_cert: SubtreeCert,
}

impl HssSignature {
    /// Verifies the full chain: the cert under the registered `root`
    /// public key, then the message signature under the certified
    /// subtree root.
    pub fn verify(&self, root: &Digest, digest: &Digest) -> bool {
        let cert = &self.subtree_root_cert;
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

    /// Serialized size in bytes.
    pub fn byte_len(&self) -> usize {
        let inner = match &self.subtree_sig {
            SubtreeSig::Direct(s) => s.byte_len(),
            SubtreeSig::Batched(b) => b.byte_len(),
        };
        1 + inner + self.subtree_root_cert.byte_len()
    }
}

impl Encode for HssSignature {
    fn encode(&self, w: &mut Writer) {
        match &self.subtree_sig {
            SubtreeSig::Direct(s) => {
                w.put_u8(SUBTREE_TAG_DIRECT);
                s.encode(w);
            }
            SubtreeSig::Batched(b) => {
                w.put_u8(SUBTREE_TAG_BATCHED);
                b.encode(w);
            }
        }
        self.subtree_root_cert.encode(w);
    }
}

impl Decode for HssSignature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let subtree_sig = match r.get_u8()? {
            SUBTREE_TAG_DIRECT => SubtreeSig::Direct(MssSignature::decode(r)?),
            SUBTREE_TAG_BATCHED => SubtreeSig::Batched(BatchSignature::decode(r)?),
            tag => {
                return Err(CodecError::InvalidTag {
                    ty: "HssSignature",
                    tag,
                })
            }
        };
        Ok(Self {
            subtree_sig,
            subtree_root_cert: SubtreeCert::decode(r)?,
        })
    }
}

/// One subtree hand-over, kept by the signer so the evidence layer can
/// seal a `key_rollover` record per generation change (and re-seal it
/// after a crash — the history is retained for the signer's lifetime).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RolloverEvent {
    /// The generation *activated* by this rollover (≥ 1).
    pub generation: u32,
    /// Merkle root of the subtree that was retired.
    pub retired_root: Digest,
    /// Leaves the retired subtree spent (its full capacity).
    pub leaves_spent: u32,
    /// The root-key certificate over the newly activated subtree.
    pub cert: SubtreeCert,
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
    rollovers: Vec<RolloverEvent>,
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
            rollovers: Vec::new(),
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

    /// The active subtree's certificate.
    pub fn active_cert(&self) -> &SubtreeCert {
        &self.active_cert
    }

    /// Leaves left on the active subtree.
    pub fn subtree_remaining(&self) -> u32 {
        self.active.remaining()
    }

    /// Capacity of one subtree (`2^subtree_height`).
    pub fn subtree_capacity(&self) -> u32 {
        self.active.capacity()
    }

    /// Root leaves left — i.e. how many *more* subtrees can still be
    /// certified.
    pub fn root_remaining(&self) -> u32 {
        self.root.remaining()
    }

    /// Total message signatures left across the hierarchy: the active
    /// subtree's tail plus a full subtree per remaining root leaf.
    pub fn remaining_total(&self) -> u64 {
        u64::from(self.active.remaining())
            + u64::from(self.root.remaining()) * (1u64 << self.subtree_height)
    }

    /// `true` while a background subtree build is in flight.
    pub fn pregen_in_flight(&self) -> bool {
        self.pregen.is_some()
    }

    /// Every rollover since key generation, oldest first. Retained for
    /// the signer's lifetime so the evidence layer can re-seal a
    /// rollover record lost to a crash.
    pub fn rollover_history(&self) -> &[RolloverEvent] {
        &self.rollovers
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
            subtree_root_cert: cert,
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
        self.rollovers.push(RolloverEvent {
            generation,
            retired_root: self.active.public_key(),
            leaves_spent: self.active.capacity() - self.active.remaining(),
            cert: cert.clone(),
        });
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
                    seen.insert((sig.subtree_root_cert.generation, m.leaf_index)),
                    "leaf reused at message {i}"
                );
            }
        }
        assert_eq!(s.generation(), 7);
        assert_eq!(s.rollover_history().len(), 7);
        assert_eq!(s.remaining_total(), 0);
        assert_eq!(s.sign(&sha256(b"x")).unwrap_err(), MssError::KeyExhausted);
    }

    #[test]
    fn rollover_history_is_a_verifiable_generation_chain() {
        let mut s = signer(3, 1, 3);
        let pk = s.public_key();
        for i in 0..6u8 {
            s.sign(&sha256(&[i])).unwrap();
        }
        let history = s.rollover_history();
        assert_eq!(history.len(), 2);
        for (i, ev) in history.iter().enumerate() {
            assert_eq!(ev.generation, i as u32 + 1);
            assert_eq!(ev.leaves_spent, 2);
            assert!(ev.cert.verify(&pk), "generation {} cert", ev.generation);
        }
        // Each event retires the previous generation's subtree.
        assert_eq!(
            history[1].retired_root, history[0].cert.subtree_root,
            "generation chain must link"
        );
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
        assert_eq!(a.rollover_history(), b.rollover_history());
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
        sig.subtree_root_cert = mallory.sign(&d).unwrap().subtree_root_cert;
        assert!(!sig.verify(&alice.public_key(), &d));
        // Tampering the generation breaks the cert's digest binding.
        let mut sig = alice.sign(&d).unwrap();
        sig.subtree_root_cert.generation += 1;
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
        assert!(sig.encode_to_vec().len() >= sig.byte_len());
    }

    #[test]
    fn cert_codec_roundtrip() {
        let s = signer(2, 1, 10);
        let cert = s.active_cert().clone();
        let back = SubtreeCert::decode_from_slice(&cert.encode_to_vec()).unwrap();
        assert_eq!(back, cert);
        assert!(back.verify(&s.public_key()));
    }
}
