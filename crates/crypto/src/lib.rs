//! Cryptographic primitives for the non-repudiation middleware.
//!
//! Paper §3.5 requires: "a signature scheme such that signature sigA(x) by A
//! on data x is both verifiable and unforgeable; a secure (one-way and
//! collision-resistant) hash function; and a secure pseudo-random sequence
//! generator". This crate provides all three from scratch:
//!
//! * [`digest`] — SHA-256 (FIPS 180-4) and the 32-byte [`Digest`] type,
//!   plus [`digest::mb`], the lane-interleaved multi-buffer engine that
//!   hashes independent messages in SIMD lockstep (two tiers: the
//!   16-lane AVX-512 kernel, or one lane through the SHA-NI/scalar path;
//!   calibrated at first use, or pinned with
//!   `NONREP_DISPATCH=avx512|single|auto`, see
//!   [`digest::mb::Dispatch::active`]),
//! * [`hmac`] — HMAC-SHA-256,
//! * [`rng`] — a seedable secure-random facade (deterministic under test),
//! * [`merkle`] — Merkle trees (used by the signature scheme and by the
//!   evidence store's tamper-evident log),
//! * [`wots`] — Winternitz one-time signatures,
//! * [`mss`] — a stateful, **forward-secure** Merkle signature scheme (the
//!   many-time signature built from WOTS leaves; forward security matches
//!   the paper's discussion of forward-secure schemes, ref \[25\]),
//! * [`hss`] — the two-level hierarchical lifecycle over [`mss`]: a
//!   long-lived root tree certifies rolling subtrees (pre-generated in
//!   the background) so signing never stops at tree exhaustion, while
//!   verifiers keep holding one unchanging root public key,
//! * [`arbitrated`] — a shared-key HMAC "signature" for TTP-arbitrated
//!   deployments (the lightweight end of the paper's trust spectrum, §3.1),
//! * [`batch`] — incremental Merkle accumulator and [`BatchSignature`]:
//!   one signature over a batch root covers N records, each individually
//!   verifiable via its authentication path,
//! * [`par`] — scoped-thread data parallelism used by key generation,
//!   Merkle construction and batch commitments; the worker budget is
//!   detected from the host, or overridden with the `NONREP_WORKERS`
//!   environment variable (see [`par::workers`]),
//! * [`sig`] — scheme-agnostic [`Signature`]/[`KeyPair`] types and traits.
//!
//! # Example
//!
//! ```
//! use nonrep_crypto::rng::SecureRandom;
//! use nonrep_crypto::sig::{KeyPair, SignatureScheme};
//!
//! let mut rng = SecureRandom::from_seed(7);
//! let keys = KeyPair::generate(SignatureScheme::Mss { height: 4 }, &mut rng);
//! let sig = keys.sign(b"order #42").expect("fresh key has leaves left");
//! assert!(keys.verifying_key().verify(b"order #42", &sig));
//! assert!(!keys.verifying_key().verify(b"order #43", &sig));
//! ```

pub mod arbitrated;
pub mod batch;
pub mod digest;
pub mod hmac;
pub mod hss;
pub mod merkle;
pub mod mss;
pub mod par;
pub mod rng;
pub mod sig;
pub mod stream;
pub mod wots;

pub use batch::{BatchSignature, MerkleAccumulator};
pub use digest::{sha256, Digest, Sha256};
pub use hss::{HssSignature, HssSigner, SubtreeCert};
pub use rng::SecureRandom;
pub use sig::{KeyId, KeyPair, Signature, SignatureScheme, VerifyingKey};
