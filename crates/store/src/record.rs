//! Evidence records, the hash chain, and epoch commitments.
//!
//! An [`EpochCommitment`] seals a contiguous range `[lo, hi]` of the log
//! under one signed Merkle root: the signature is produced **once** per
//! epoch instead of once per record, and any record in the range remains
//! individually checkable against the root. Epoch commitments are stored
//! as ordinary chained records (kind [`EPOCH_KIND`]) so they inherit the
//! log's tamper evidence, and they let an adjudicator verify a
//! `snapshot_range` *window* of a log — the window's records recompute the
//! committed root — without replaying the chain from genesis
//! ([`ChainVerifier::resume`]).
//!
//! A hierarchical signer's subtree certificate is the same for every
//! signature of one subtree, so a log stores it once, as a
//! `CERT_KIND` record under the reserved `cert_run_id`, ahead of the
//! first token record whose signature references it.

use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

use nonrep_crypto::digest::{sha256, sha256_encoded, Digest, Sha256};
use nonrep_crypto::hss::{CertRef, SubtreeCert};
use nonrep_crypto::merkle::leaf_hash;
use nonrep_crypto::sig::{Signature, VerifyingKey};
use nonrep_crypto::MerkleAccumulator;
use nonrep_types::codec::{CodecError, Decode, Encode, Reader, Writer};
use nonrep_types::ids::{OrgId, RunId};
use nonrep_types::time::Timestamp;

use crate::log::EvidenceLog;

/// The caller-supplied part of an evidence record; the log assigns the
/// sequence number and chains it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordDraft {
    /// Protocol run this evidence belongs to.
    pub run_id: RunId,
    /// Kind of evidence, e.g. `"NRO_req"`, `"decision"`. Free-form label —
    /// the token payload itself is authoritative.
    pub kind: String,
    /// The organisation whose action this evidence records.
    pub actor: OrgId,
    /// When the evidence was produced (organisation clock).
    pub at: Timestamp,
    /// Digest of the state/content the evidence is about.
    pub content_digest: Digest,
    /// The encoded token (signature material included).
    pub payload: Vec<u8>,
}

/// A chained, persisted evidence record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvidenceRecord {
    /// Position in the log (0-based, dense).
    pub seq: u64,
    /// Hash of the previous record ([`Digest::ZERO`] for the first).
    pub prev_hash: Digest,
    /// The evidence itself.
    pub draft: RecordDraft,
}

impl EvidenceRecord {
    /// The hash of this record (over its full canonical encoding), i.e. the
    /// chain link value embedded in the successor.
    pub fn record_hash(&self) -> Digest {
        sha256_encoded(|w| self.encode(w))
    }

    /// Total serialized size in bytes (for the space-overhead experiment).
    pub fn byte_len(&self) -> usize {
        self.encode_to_vec().len()
    }

    /// `true` if this record carries an [`EpochCommitment`].
    pub fn is_epoch_commit(&self) -> bool {
        self.draft.kind == EPOCH_KIND
    }

    /// `true` if this record is of the retired `key_rollover` kind. The
    /// stack no longer writes such records, nor keeps a reader for them
    /// (the log's `subtree_cert` records hold every certificate), so an
    /// adjudicator counts one as undecodable. The predicate stays
    /// because the end-to-end benchmark's record census calls it.
    pub fn is_key_rollover(&self) -> bool {
        self.draft.kind == ROLLOVER_KIND
    }

    /// `true` if this record carries a [`RunMarker`].
    pub fn is_run_marker(&self) -> bool {
        self.draft.kind == RUN_MARKER_KIND
    }

    /// `true` if this record carries a subtree certificate
    /// ([`cert_draft`]).
    pub fn is_subtree_cert(&self) -> bool {
        self.draft.kind == CERT_KIND
    }
}

impl Encode for RecordDraft {
    fn encode(&self, w: &mut Writer) {
        self.run_id.encode(w);
        w.put_str(&self.kind);
        self.actor.encode(w);
        self.at.encode(w);
        self.content_digest.encode(w);
        w.put_bytes(&self.payload);
    }
}

impl Decode for RecordDraft {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            run_id: RunId::decode(r)?,
            kind: r.get_string()?,
            actor: OrgId::decode(r)?,
            at: Timestamp::decode(r)?,
            content_digest: Digest::decode(r)?,
            payload: r.get_bytes()?.to_vec(),
        })
    }
}

impl Encode for EvidenceRecord {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.seq);
        self.prev_hash.encode(w);
        self.draft.encode(w);
    }
}

impl Decode for EvidenceRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            seq: r.get_u64()?,
            prev_hash: Digest::decode(r)?,
            draft: RecordDraft::decode(r)?,
        })
    }
}

/// Record kind under which epoch commitments are logged.
pub const EPOCH_KIND: &str = "epoch_commit";

/// The protocol-run identifier used for epoch-commitment records (epochs
/// span runs, so they are filed under a reserved nil run).
fn epoch_run_id() -> RunId {
    RunId::from_u128(0)
}

/// A sealed epoch: one signature over the Merkle root of the records in
/// `[lo, hi]` (inclusive).
///
/// The signed message covers the range bounds as well as the root, so
/// neither the root nor the claimed coverage can be reinterpreted after
/// sealing. Leaves of the epoch tree are the covered records'
/// [`EvidenceRecord::record_hash`] values (which already bind each
/// record's position and chain link).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochCommitment {
    /// First covered sequence number.
    pub lo: u64,
    /// Last covered sequence number (inclusive).
    pub hi: u64,
    /// Merkle root over the covered records' hashes.
    pub root: Digest,
    /// The sealer's signature over [`EpochCommitment::signing_digest`].
    pub signature: Signature,
}

impl EpochCommitment {
    /// The domain-separated digest the sealer signs for `(lo, hi, root)`.
    pub fn signing_digest(lo: u64, hi: u64, root: &Digest) -> Digest {
        let mut h = Sha256::new();
        h.update(b"nonrep.epoch.v1");
        h.update(&lo.to_le_bytes());
        h.update(&hi.to_le_bytes());
        h.update(root.as_bytes());
        h.finalize()
    }

    /// The Merkle root over a slice of covered record hashes.
    ///
    /// # Panics
    ///
    /// Panics if `hashes` is empty (an epoch always covers ≥ 1 record).
    pub fn root_over_hashes(hashes: &[Digest]) -> Digest {
        let mut acc = MerkleAccumulator::new();
        for h in hashes {
            acc.push(leaf_hash(h.as_bytes()));
        }
        acc.root()
    }

    /// Verifies this commitment against the covered records.
    ///
    /// `records` must be exactly the records of `[lo, hi]` in order; the
    /// root is recomputed from their hashes and the signature checked
    /// under `key`. Any tampering — a record, the root, a range bound, or
    /// the signature — fails.
    pub fn verify(&self, key: &VerifyingKey, records: &[Arc<EvidenceRecord>]) -> bool {
        if self.hi < self.lo || records.len() as u64 != self.hi - self.lo + 1 {
            return false;
        }
        if records.first().map(|r| r.seq) != Some(self.lo)
            || records.last().map(|r| r.seq) != Some(self.hi)
        {
            return false;
        }
        let hashes: Vec<Digest> = records.iter().map(|r| r.record_hash()).collect();
        self.verify_hashes(key, &hashes)
    }

    /// [`EpochCommitment::verify`] over precomputed record hashes (the
    /// streaming adjudication path, which tracks hashes as it walks the
    /// chain instead of re-encoding records).
    pub fn verify_hashes(&self, key: &VerifyingKey, hashes: &[Digest]) -> bool {
        if self.hi < self.lo || hashes.len() as u64 != self.hi - self.lo + 1 {
            return false;
        }
        Self::root_over_hashes(hashes) == self.root
            && key.verify_digest(
                &Self::signing_digest(self.lo, self.hi, &self.root),
                &self.signature,
            )
    }

    /// Wraps this commitment as a log record draft (kind [`EPOCH_KIND`],
    /// content digest = epoch root).
    pub fn to_draft(&self, actor: OrgId, at: Timestamp) -> RecordDraft {
        RecordDraft {
            run_id: epoch_run_id(),
            kind: EPOCH_KIND.to_string(),
            actor,
            at,
            content_digest: self.root,
            payload: self.encode_to_vec(),
        }
    }

    /// Decodes the commitment carried by an epoch record, if `record` is
    /// one.
    pub fn from_record(record: &EvidenceRecord) -> Option<Self> {
        if record.draft.kind != EPOCH_KIND {
            return None;
        }
        Self::decode_from_slice(&record.draft.payload).ok()
    }
}

impl Encode for EpochCommitment {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.lo);
        w.put_u64(self.hi);
        self.root.encode(w);
        self.signature.encode(w);
    }
}

impl Decode for EpochCommitment {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            lo: r.get_u64()?,
            hi: r.get_u64()?,
            root: Digest::decode(r)?,
            signature: Signature::decode(r)?,
        })
    }
}

/// Record kind of the retired key-rollover records.
const ROLLOVER_KIND: &str = "key_rollover";

/// Record kind under which a log keeps each subtree certificate once.
const CERT_KIND: &str = "subtree_cert";

/// The reserved control run subtree-certificate records are filed under:
/// one of their own, so the run index returns the certificates alone.
/// Minted run ids are 128 random bits, so the all-ones id is never one.
fn cert_run_id() -> RunId {
    RunId::from_u128(u128::MAX)
}

/// Wraps the subtree certificate `signer`'s stored token signatures
/// reference as a log record draft (kind `CERT_KIND`, filed under
/// `cert_run_id`; content digest = the certified subtree root).
pub fn cert_draft(cert: &SubtreeCert, signer: OrgId, at: Timestamp) -> RecordDraft {
    RecordDraft {
        run_id: cert_run_id(),
        kind: CERT_KIND.to_string(),
        actor: signer,
        at,
        content_digest: cert.subtree_root,
        payload: cert.encode_to_vec(),
    }
}

/// Decodes the certificate a record carries, if `record` is a
/// certificate record whose content digest names the certified subtree.
pub fn cert_from_record(record: &EvidenceRecord) -> Option<SubtreeCert> {
    if !record.is_subtree_cert() {
        return None;
    }
    SubtreeCert::decode_from_slice(&record.draft.payload)
        .ok()
        .filter(|cert| cert.subtree_root == record.draft.content_digest)
}

/// The certificates `log` keeps for the references in `wanted`, found
/// through the run index of `cert_run_id`: what a reader re-attaches to
/// stored token signatures before it verifies or sends them.
pub fn stored_certs(log: &dyn EvidenceLog, wanted: &HashSet<CertRef>) -> Vec<SubtreeCert> {
    if wanted.is_empty() {
        return Vec::new();
    }
    let roots: HashSet<Digest> = wanted.iter().map(|r| r.subtree_root).collect();
    log.by_run(&cert_run_id())
        .iter()
        .filter(|r| roots.contains(&r.draft.content_digest))
        .filter_map(|r| cert_from_record(r))
        .filter(|c| wanted.contains(&c.reference()))
        .collect()
}

/// Record kind under which exchange progress markers are journalled.
const RUN_MARKER_KIND: &str = "run_marker";

/// Phase of an exchange recorded by a [`RunMarker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkerPhase {
    /// The run reached (completed) the marked choreography step.
    Progress,
    /// The run completed and its evidence was sealed.
    Closed,
    /// The run was closed without completing (timeout abort, crash
    /// recovery declining to resume).
    Aborted,
}

impl MarkerPhase {
    fn tag(self) -> u8 {
        match self {
            MarkerPhase::Progress => 0,
            MarkerPhase::Closed => 1,
            MarkerPhase::Aborted => 2,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        match tag {
            0 => Ok(MarkerPhase::Progress),
            1 => Ok(MarkerPhase::Closed),
            2 => Ok(MarkerPhase::Aborted),
            _ => Err(CodecError::InvalidTag {
                ty: "MarkerPhase",
                tag,
            }),
        }
    }
}

/// A progress marker for one in-flight exchange, journalled into the
/// evidence log so a crashed party can enumerate the runs it had open
/// and resume or abort each one on recovery. Markers ride the ordinary
/// hash chain (tamper-evident) but carry no signature of their own:
/// they are this party's private bookkeeping, not cross-party evidence,
/// and adjudicators skip them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMarker {
    /// The run the marker describes.
    pub run_id: RunId,
    /// The protocol variant executing the run (protocol id string).
    pub variant: String,
    /// The last choreography step this party completed (0 before any).
    pub step: u32,
    /// What the marker records.
    pub phase: MarkerPhase,
}

impl RunMarker {
    /// Wraps this marker as a log record draft (kind
    /// `RUN_MARKER_KIND`, filed under the run it describes).
    pub fn to_draft(&self, actor: OrgId, at: Timestamp) -> RecordDraft {
        let payload = self.encode_to_vec();
        RecordDraft {
            run_id: self.run_id,
            kind: RUN_MARKER_KIND.to_string(),
            actor,
            at,
            content_digest: sha256(&payload),
            payload,
        }
    }

    /// Decodes the marker carried by a record, if `record` is one.
    pub fn from_record(record: &EvidenceRecord) -> Option<Self> {
        if record.draft.kind != RUN_MARKER_KIND {
            return None;
        }
        Self::decode_from_slice(&record.draft.payload).ok()
    }
}

impl Encode for RunMarker {
    fn encode(&self, w: &mut Writer) {
        self.run_id.encode(w);
        w.put_bytes(self.variant.as_bytes());
        w.put_u32(self.step);
        w.put_u8(self.phase.tag());
    }
}

impl Decode for RunMarker {
    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        Ok(Self {
            run_id: RunId::decode(r)?,
            variant: String::from_utf8(r.get_bytes()?.to_vec())
                .map_err(|_| CodecError::InvalidUtf8)?,
            step: r.get_u32()?,
            phase: MarkerPhase::from_tag(r.get_u8()?)?,
        })
    }
}

/// Where and how a hash chain failed verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainViolation {
    /// A record's `prev_hash` does not match its predecessor's hash.
    BrokenLink {
        /// Sequence number of the offending record.
        seq: u64,
    },
    /// Sequence numbers are not dense from zero.
    BadSequence {
        /// Expected sequence number.
        expected: u64,
        /// Found sequence number.
        found: u64,
    },
    /// The first record does not start from [`Digest::ZERO`].
    BadGenesis,
    /// The submitted window's tail does not hash to the claimed chain
    /// head (windowed adjudication).
    HeadMismatch {
        /// Sequence number of the last record in the window.
        seq: u64,
    },
    /// A counterparty-corroborated epoch anchor attests a different
    /// history for `[lo, hi]` than the records the submitter produced:
    /// the submitter forked its own log.
    ForkedHistory {
        /// First sequence number the conflicting anchor covers.
        lo: u64,
        /// Last sequence number the conflicting anchor covers.
        hi: u64,
    },
    /// A counterparty-corroborated epoch anchor attests records beyond
    /// the submitted tail: the submitter withheld evidence it had
    /// previously committed to.
    WithheldRecords {
        /// Highest sequence number a verified anchor attests.
        attested: u64,
        /// Highest sequence number actually submitted.
        submitted: u64,
    },
}

impl fmt::Display for ChainViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChainViolation::BrokenLink { seq } => write!(f, "broken link at seq {seq}"),
            ChainViolation::BadSequence { expected, found } => {
                write!(f, "bad sequence: expected {expected}, found {found}")
            }
            ChainViolation::BadGenesis => f.write_str("first record does not chain from zero"),
            ChainViolation::HeadMismatch { seq } => {
                write!(
                    f,
                    "window tail at seq {seq} does not hash to the claimed head"
                )
            }
            ChainViolation::ForkedHistory { lo, hi } => {
                write!(
                    f,
                    "submitted records [{lo}, {hi}] conflict with a corroborated epoch anchor"
                )
            }
            ChainViolation::WithheldRecords {
                attested,
                submitted,
            } => {
                write!(
                    f,
                    "a corroborated epoch anchor attests records up to seq {attested} \
                     but only seq {submitted} was submitted"
                )
            }
        }
    }
}

impl std::error::Error for ChainViolation {}

/// Streaming hash-chain verifier: feed records in order with
/// [`ChainVerifier::check`], then [`ChainVerifier::finish`].
///
/// Lets log backends verify in place (via a visitor) instead of
/// snapshotting every record first.
#[derive(Debug)]
pub struct ChainVerifier {
    prev_hash: Digest,
    next_seq: u64,
    violation: Option<ChainViolation>,
}

impl Default for ChainVerifier {
    fn default() -> Self {
        Self::new()
    }
}

impl ChainVerifier {
    /// Creates a verifier expecting a chain starting at sequence 0 from
    /// [`Digest::ZERO`].
    pub fn new() -> Self {
        Self {
            prev_hash: Digest::ZERO,
            next_seq: 0,
            violation: None,
        }
    }

    /// Creates a verifier resuming mid-chain: the next record must have
    /// sequence `next_seq` and chain from `prev_hash`.
    ///
    /// This is the windowed-adjudication entry point: a
    /// `snapshot_range` window anchors at its first record's `prev_hash`
    /// (whose authenticity comes from epoch commitments and token
    /// signatures, not from replaying the chain from genesis).
    pub fn resume(next_seq: u64, prev_hash: Digest) -> Self {
        Self {
            prev_hash,
            next_seq,
            violation: None,
        }
    }

    /// Checks the next record; after the first violation further records
    /// are ignored.
    pub fn check(&mut self, rec: &EvidenceRecord) {
        if self.violation.is_some() {
            return;
        }
        if rec.seq != self.next_seq {
            self.violation = Some(ChainViolation::BadSequence {
                expected: self.next_seq,
                found: rec.seq,
            });
            return;
        }
        if rec.prev_hash != self.prev_hash {
            self.violation = Some(if self.next_seq == 0 {
                ChainViolation::BadGenesis
            } else {
                ChainViolation::BrokenLink { seq: rec.seq }
            });
            return;
        }
        self.prev_hash = rec.record_hash();
        self.next_seq += 1;
    }

    /// The running chain head (hash of the last valid record).
    pub fn head(&self) -> Digest {
        self.prev_hash
    }

    /// `true` once a violation has been recorded (further checks no-op,
    /// so callers can stop feeding records early).
    pub fn violated(&self) -> bool {
        self.violation.is_some()
    }

    /// Completes verification.
    ///
    /// # Errors
    ///
    /// Returns the first [`ChainViolation`] observed.
    pub fn finish(self) -> Result<(), ChainViolation> {
        match self.violation {
            Some(v) => Err(v),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draft(n: u64) -> RecordDraft {
        RecordDraft {
            run_id: RunId::from_u128(n as u128),
            kind: "NRO_req".into(),
            actor: OrgId::new("client"),
            at: Timestamp(n),
            content_digest: sha256(&n.to_le_bytes()),
            payload: vec![n as u8; 4],
        }
    }

    /// A value computed before the record hash moved to the thread's
    /// scratch writer: the chain link must not change a byte.
    #[test]
    fn golden_record_hash() {
        let rec = EvidenceRecord {
            seq: 3,
            prev_hash: sha256(b"prev"),
            draft: draft(3),
        };
        assert_eq!(
            rec.record_hash().to_hex(),
            "1fecf592c318e2479dd3a1f975db54b6b0c41a29bd4792f4cbbd82c7baa1051d"
        );
    }

    fn chain(n: u64) -> Vec<EvidenceRecord> {
        let mut out: Vec<EvidenceRecord> = Vec::new();
        for i in 0..n {
            let prev_hash = out
                .last()
                .map(EvidenceRecord::record_hash)
                .unwrap_or(Digest::ZERO);
            out.push(EvidenceRecord {
                seq: i,
                prev_hash,
                draft: draft(i),
            });
        }
        out
    }

    /// Feeds `records` from genesis through a fresh [`ChainVerifier`].
    fn verdict(records: &[EvidenceRecord]) -> Result<(), ChainViolation> {
        let mut verifier = ChainVerifier::new();
        for rec in records {
            verifier.check(rec);
        }
        verifier.finish()
    }

    #[test]
    fn valid_chain_verifies() {
        assert_eq!(verdict(&chain(0)), Ok(()));
        assert_eq!(verdict(&chain(1)), Ok(()));
        assert_eq!(verdict(&chain(10)), Ok(()));
    }

    #[test]
    fn tampered_payload_breaks_chain() {
        let mut records = chain(5);
        records[2].draft.payload = vec![0xFF];
        assert_eq!(
            verdict(&records),
            Err(ChainViolation::BrokenLink { seq: 3 })
        );
    }

    #[test]
    fn removed_record_detected() {
        let mut records = chain(5);
        records.remove(2);
        assert_eq!(
            verdict(&records),
            Err(ChainViolation::BadSequence {
                expected: 2,
                found: 3
            })
        );
    }

    #[test]
    fn truncation_from_end_is_still_a_valid_prefix() {
        // Chain verification alone cannot detect suffix truncation; that is
        // why the adjudicator cross-checks both parties' logs.
        let mut records = chain(5);
        records.truncate(3);
        assert_eq!(verdict(&records), Ok(()));
    }

    #[test]
    fn bad_genesis_detected() {
        let mut records = chain(2);
        records[0].prev_hash = sha256(b"evil");
        assert_eq!(verdict(&records), Err(ChainViolation::BadGenesis));
    }

    fn arc_chain(n: u64) -> Vec<Arc<EvidenceRecord>> {
        chain(n).into_iter().map(Arc::new).collect()
    }

    fn test_keys() -> nonrep_crypto::sig::KeyPair {
        nonrep_crypto::sig::KeyPair::generate(
            nonrep_crypto::sig::SignatureScheme::Mss { height: 3 },
            &mut nonrep_crypto::rng::SecureRandom::from_seed(42),
        )
    }

    fn seal(
        records: &[Arc<EvidenceRecord>],
        keys: &nonrep_crypto::sig::KeyPair,
    ) -> EpochCommitment {
        let lo = records.first().unwrap().seq;
        let hi = records.last().unwrap().seq;
        let hashes: Vec<Digest> = records.iter().map(|r| r.record_hash()).collect();
        let root = EpochCommitment::root_over_hashes(&hashes);
        let signature = keys
            .sign_digest(&EpochCommitment::signing_digest(lo, hi, &root))
            .unwrap();
        EpochCommitment {
            lo,
            hi,
            root,
            signature,
        }
    }

    #[test]
    fn epoch_commitment_verifies_and_roundtrips() {
        let records = arc_chain(6);
        let keys = test_keys();
        let commit = seal(&records[1..5], &keys);
        let vk = keys.verifying_key();
        assert!(commit.verify(&vk, &records[1..5]));
        let back = EpochCommitment::decode_from_slice(&commit.encode_to_vec()).unwrap();
        assert_eq!(back, commit);
        // As a record draft it is recognizable and decodable.
        let draft = commit.to_draft(OrgId::new("org"), Timestamp(9));
        let rec = EvidenceRecord {
            seq: 6,
            prev_hash: Digest::ZERO,
            draft,
        };
        assert!(rec.is_epoch_commit());
        assert_eq!(EpochCommitment::from_record(&rec).unwrap(), commit);
    }

    fn rolled_signer() -> nonrep_crypto::hss::HssSigner {
        let mut rng = nonrep_crypto::rng::SecureRandom::from_seed(11);
        let mut signer = nonrep_crypto::hss::HssSigner::generate(2, 1, &mut rng);
        // Burn past generation 0 (two leaves) to force a rollover.
        for i in 0..3u8 {
            signer.sign(&sha256(&[i])).unwrap();
        }
        signer
    }

    #[test]
    fn cert_record_roundtrips_and_rejects_edits() {
        let mut signer = rolled_signer();
        let signed = signer.sign(&sha256(b"m")).unwrap();
        let nonrep_crypto::hss::CertLink::Inline(cert) = signed.cert else {
            panic!("a fresh signature carries its subtree cert inline");
        };
        let rec = EvidenceRecord {
            seq: 0,
            prev_hash: Digest::ZERO,
            draft: cert_draft(&cert, OrgId::new("org"), Timestamp(1)),
        };
        assert!(rec.is_subtree_cert());
        assert!(!rec.is_key_rollover());
        assert_eq!(rec.draft.run_id, cert_run_id());
        assert_ne!(cert_run_id(), epoch_run_id());
        assert_eq!(cert_from_record(&rec), Some((*cert).clone()));
        // A payload that no longer decodes, or a content digest naming
        // another subtree, is not a certificate record.
        let mut cut = rec.clone();
        cut.draft.payload.pop();
        assert_eq!(cert_from_record(&cut), None);
        let mut renamed = rec;
        renamed.draft.content_digest = sha256(b"another subtree");
        assert_eq!(cert_from_record(&renamed), None);
        assert_eq!(cert_from_record(&chain(1)[0]), None);
    }

    #[test]
    fn epoch_commitment_rejects_all_tampering() {
        let records = arc_chain(5);
        let keys = test_keys();
        let vk = keys.verifying_key();
        let commit = seal(&records, &keys);

        // Tampered record content.
        let mut doctored = records.clone();
        Arc::make_mut(&mut doctored[2]).draft.payload = vec![0xFF];
        assert!(!commit.verify(&vk, &doctored));

        // Tampered root.
        let mut bad_root = commit.clone();
        bad_root.root = sha256(b"evil");
        assert!(!bad_root.verify(&vk, &records));

        // Tampered range bounds (signature covers lo/hi).
        let mut bad_lo = seal(&records[1..], &keys);
        bad_lo.lo = 0;
        assert!(!bad_lo.verify(&vk, &records));
        let mut bad_hi = commit.clone();
        bad_hi.hi = 3;
        assert!(!bad_hi.verify(&vk, &records[..4]));

        // Wrong key.
        let other = nonrep_crypto::sig::KeyPair::generate(
            nonrep_crypto::sig::SignatureScheme::Mss { height: 3 },
            &mut nonrep_crypto::rng::SecureRandom::from_seed(43),
        );
        assert!(!commit.verify(&other.verifying_key(), &records));

        // Dropped / reordered coverage.
        assert!(!commit.verify(&vk, &records[..4]));
        let mut swapped = records.clone();
        swapped.swap(1, 2);
        assert!(!commit.verify(&vk, &swapped));
    }

    #[test]
    fn chain_verifier_resumes_mid_chain() {
        let records = chain(8);
        let mut v = ChainVerifier::resume(records[3].seq, records[3].prev_hash);
        for rec in &records[3..] {
            v.check(rec);
        }
        assert_eq!(v.head(), records.last().unwrap().record_hash());
        v.finish().unwrap();
        // A gap inside the window is still caught.
        let mut v = ChainVerifier::resume(records[3].seq, records[3].prev_hash);
        v.check(&records[3]);
        v.check(&records[5]);
        assert!(v.violated());
    }

    #[test]
    fn record_codec_roundtrip() {
        let records = chain(3);
        for rec in &records {
            let back = EvidenceRecord::decode_from_slice(&rec.encode_to_vec()).unwrap();
            assert_eq!(&back, rec);
            assert_eq!(back.record_hash(), rec.record_hash());
        }
    }

    #[test]
    fn byte_len_matches_encoding() {
        let rec = &chain(1)[0];
        assert_eq!(rec.byte_len(), rec.encode_to_vec().len());
    }
}
