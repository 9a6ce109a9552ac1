//! Byzantine submitters.
//!
//! Every adversary here is a thin wrapper around an honest
//! [`Party`]: during protocol execution the wrapped party follows the
//! protocols faithfully (and gossips genuine epoch anchors), because the
//! attacks worth simulating against the paper's adjudication layer are
//! *evidence attacks* — what an organisation presents at dispute time, not
//! how it behaves on the wire. Each wrapper therefore overrides only
//! [`Adversary::submission`] (and, for the replayer, a one-time
//! [`Adversary::finalize`] hook that plants the crafted record).
//!
//! The catalogue:
//!
//! - [`HonestSubmitter`] — submits its full log, head claim attached.
//! - [`ForkHistorySubmitter`] — rebuilds a *divergent but internally
//!   consistent* history: one of its own tokens is re-issued over a
//!   different subject, the chain re-linked and every epoch re-sealed
//!   with its genuine key. Undetectable in isolation; the anchors it
//!   gossiped while executing convict it
//!   ([`ChainViolation::ForkedHistory`](nonrep_store::record::ChainViolation::ForkedHistory)).
//! - [`EvidenceWithholder`] — submits a one-record prefix while claiming
//!   it is the whole log ([`ChainViolation::WithheldRecords`](nonrep_store::record::ChainViolation::WithheldRecords) once a
//!   gossiped anchor attests more).
//! - [`TokenReplayer`] — re-files a counterparty's genuine token under a
//!   different run id (caught as a draft/token context mismatch).
//! - [`ForgedRolloverSubmitter`] — grafts a key-rollover record whose
//!   subtree cert was signed by a root other than its registered one onto
//!   its submission, chain intact: the byzantine move against the
//!   hierarchical key lifecycle, convicted purely by the cert
//!   cryptography (`rollovers_verified < rollovers`).
//! - [`EquivocatingTtp`] — an inline TTP that forks its history at one of
//!   its own `TtpReceipt` records: the paper's "what if the trusted third
//!   party lies" case, reduced to fork detection.

use std::sync::Arc;

use nonrep_core::dispute::WindowSubmission;
use nonrep_crypto::digest::{sha256, Digest};
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::HssSigner;
use nonrep_protocols::party::Party;
use nonrep_protocols::tokens::{NrToken, TokenKind};
use nonrep_store::record::{EpochCommitment, EvidenceRecord, KeyRollover, RecordDraft, EPOCH_KIND};
use nonrep_types::codec::{Decode, Encode};
use nonrep_types::ids::{OrgId, RunId};

/// One organisation's dispute-time conduct: an honest protocol party plus
/// a (possibly dishonest) submission strategy.
pub trait Adversary: Send + Sync {
    /// The wrapped protocol party.
    fn party(&self) -> &Arc<Party>;

    /// The organisation this adversary plays.
    fn org(&self) -> &OrgId {
        self.party().org()
    }

    /// One-time hook after all runs complete and evidence is flushed,
    /// before submissions are collected. Default: nothing.
    fn finalize(&self) {}

    /// The evidence submission this organisation presents to the
    /// adjudicator. Every strategy submits the same window for every run
    /// (the crafted histories are whole-log artefacts).
    fn submission(&self) -> WindowSubmission;
}

fn full_log_submission(party: &Party) -> WindowSubmission {
    let log = party.log();
    WindowSubmission::from_log(party.org().clone(), log.as_ref(), 0..log.len())
}

/// Submits the full log, exactly as an honest organisation would.
pub struct HonestSubmitter {
    party: Arc<Party>,
}

impl HonestSubmitter {
    /// Wraps `party`.
    pub fn new(party: Arc<Party>) -> Self {
        Self { party }
    }
}

impl Adversary for HonestSubmitter {
    fn party(&self) -> &Arc<Party> {
        &self.party
    }

    fn submission(&self) -> WindowSubmission {
        full_log_submission(&self.party)
    }
}

/// Rebuilds the party's log with one of its own token records replaced
/// (same kind, same run, different subject — genuinely re-signed), the
/// hash chain re-linked, and every epoch commitment re-sealed over the new
/// record hashes. The result passes every *internal* check; only
/// corroboration against previously gossiped anchors exposes the fork.
/// `target_kind` narrows which of the party's own records is rewritten
/// (`None` = the first own token record).
fn forked_submission(
    party: &Party,
    target_kind: Option<TokenKind>,
    forged_subject: Digest,
) -> WindowSubmission {
    let records = party.log().records();
    let target = records.iter().position(|r| {
        r.draft.actor == *party.org()
            && r.draft.kind != EPOCH_KIND
            && !r.is_subtree_cert()
            && target_kind.is_none_or(|k| r.draft.kind == k.label())
    });
    let Some(target) = target else {
        // Nothing of ours to rewrite: fall back to the honest submission.
        return full_log_submission(party);
    };
    let mut forged = Vec::with_capacity(records.len());
    let mut hashes: Vec<Digest> = Vec::with_capacity(records.len());
    let mut prev = Digest::ZERO;
    for (i, r) in records.iter().enumerate() {
        let mut draft = r.draft.clone();
        if i == target {
            let orig = NrToken::decode_from_slice(&r.draft.payload)
                .expect("target record carries a token");
            let token = party
                .issue_token(orig.kind, orig.run_id, forged_subject)
                .expect("re-issue forged token");
            // Kind, run and actor stay as logged, so the forged record is
            // context-consistent — the fork is invisible without anchors.
            draft.content_digest = token.subject;
            draft.payload = token.encode_to_vec();
        } else if draft.kind == EPOCH_KIND {
            let orig = EpochCommitment::from_record(r).expect("decodable epoch record");
            let root =
                EpochCommitment::root_over_hashes(&hashes[orig.lo as usize..=orig.hi as usize]);
            let signature = party
                .keys()
                .sign_digest(&EpochCommitment::signing_digest(orig.lo, orig.hi, &root))
                .expect("re-seal forged epoch");
            let resealed = EpochCommitment {
                lo: orig.lo,
                hi: orig.hi,
                root,
                signature,
            };
            draft = resealed.to_draft(r.draft.actor.clone(), r.draft.at);
        }
        let rec = EvidenceRecord {
            seq: r.seq,
            prev_hash: prev,
            draft,
        };
        prev = rec.record_hash();
        hashes.push(prev);
        forged.push(Arc::new(rec));
    }
    WindowSubmission {
        submitter: party.org().clone(),
        records: forged,
        head: prev,
        certs: Vec::new(),
    }
}

/// Byzantine submitter presenting a forked history (see
/// `forked_submission`).
pub struct ForkHistorySubmitter {
    party: Arc<Party>,
    forged_subject: Digest,
}

impl ForkHistorySubmitter {
    /// Wraps `party`; the rewritten token will cover `forged_subject`.
    pub fn new(party: Arc<Party>, forged_subject: Digest) -> Self {
        Self {
            party,
            forged_subject,
        }
    }
}

impl Adversary for ForkHistorySubmitter {
    fn party(&self) -> &Arc<Party> {
        &self.party
    }

    fn submission(&self) -> WindowSubmission {
        forked_submission(&self.party, None, self.forged_subject)
    }
}

/// Byzantine submitter presenting a one-record prefix of its log while
/// claiming (via the head) that the prefix is the whole thing.
pub struct EvidenceWithholder {
    party: Arc<Party>,
}

impl EvidenceWithholder {
    /// Wraps `party`.
    pub fn new(party: Arc<Party>) -> Self {
        Self { party }
    }
}

impl Adversary for EvidenceWithholder {
    fn party(&self) -> &Arc<Party> {
        &self.party
    }

    fn submission(&self) -> WindowSubmission {
        let records = self.party.log().snapshot_range(0..1);
        // The head claim is the truncated tail's hash: a well-formed lie
        // that only a counterparty-held anchor can expose.
        let head = records
            .last()
            .map(|r| r.record_hash())
            .unwrap_or(Digest::ZERO);
        WindowSubmission {
            submitter: self.party.org().clone(),
            records,
            head,
            certs: Vec::new(),
        }
    }
}

/// Byzantine submitter that re-files a counterparty's genuine token under
/// a different run id, then submits its full (now poisoned) log.
pub struct TokenReplayer {
    party: Arc<Party>,
    target_run: RunId,
}

impl TokenReplayer {
    /// Wraps `party`; the replayed token is filed under `target_run`
    /// (which must differ from the run the token was issued for).
    pub fn new(party: Arc<Party>, target_run: RunId) -> Self {
        Self { party, target_run }
    }
}

impl Adversary for TokenReplayer {
    fn party(&self) -> &Arc<Party> {
        &self.party
    }

    fn finalize(&self) {
        let records = self.party.log().records();
        let Some(foreign) = records.iter().find(|r| {
            r.draft.actor != *self.party.org() && r.draft.kind != EPOCH_KIND && !r.is_subtree_cert()
        }) else {
            return;
        };
        let Ok(token) = NrToken::decode_from_slice(&foreign.draft.payload) else {
            return;
        };
        if token.run_id == self.target_run {
            return;
        }
        // The token itself is untouched (it still verifies under its
        // issuer's key); only the surrounding draft lies about the run.
        let draft = RecordDraft {
            run_id: self.target_run,
            kind: token.kind.label().to_string(),
            actor: token.issuer.clone(),
            at: foreign.draft.at,
            content_digest: token.subject,
            payload: foreign.draft.payload.clone(),
        };
        self.party
            .log()
            .append(draft)
            .expect("append replayed record");
    }

    fn submission(&self) -> WindowSubmission {
        full_log_submission(&self.party)
    }
}

/// Byzantine submitter that grafts a forged key-rollover record onto the
/// end of its otherwise honest log window. The record decodes, chains
/// perfectly (the head claim covers it), and lands beyond every gossiped
/// anchor — but its subtree cert was signed by a hierarchy root that is
/// *not* the submitter's registered key, so the adjudicator counts an
/// unverified rollover and the report goes unclean. This is the attack
/// the certified-rollover design exists to stop: an organisation cannot
/// launder a key it does not own into its evidence history.
pub struct ForgedRolloverSubmitter {
    party: Arc<Party>,
    /// Seed of the foreign hierarchy whose rollover cert is grafted.
    cert_seed: u64,
}

impl ForgedRolloverSubmitter {
    /// Wraps `party`; the forged cert derives from `cert_seed` (kept off
    /// the party's own key material, so the cert can never verify).
    pub fn new(party: Arc<Party>, cert_seed: u64) -> Self {
        Self { party, cert_seed }
    }

    /// A genuine-looking rollover record minted by a hierarchy the
    /// submitter does not own: a fresh HSS signer is driven through its
    /// first subtree exhaustion and the resulting (correctly signed,
    /// wrong-root) event is repackaged under the submitter's name.
    fn forged_rollover(&self) -> KeyRollover {
        let mut rng = SecureRandom::from_seed(self.cert_seed);
        let mut signer = HssSigner::generate(2, 1, &mut rng);
        let mut i = 0u8;
        while signer.rollover_history().is_empty() {
            signer.sign(&sha256(&[i])).expect("fresh hierarchy signs");
            i += 1;
        }
        KeyRollover::from_event(&signer.rollover_history()[0])
    }
}

impl Adversary for ForgedRolloverSubmitter {
    fn party(&self) -> &Arc<Party> {
        &self.party
    }

    fn submission(&self) -> WindowSubmission {
        let mut submission = full_log_submission(&self.party);
        let (seq, prev_hash) = submission
            .records
            .last()
            .map(|r| (r.seq + 1, r.record_hash()))
            .unwrap_or((0, Digest::ZERO));
        let record = Arc::new(EvidenceRecord {
            seq,
            prev_hash,
            draft: self
                .forged_rollover()
                .to_draft(self.party.org().clone(), self.party.now()),
        });
        submission.head = record.record_hash();
        submission.records.push(record);
        submission
    }
}

/// An inline TTP that forks its history at one of its own `TtpReceipt`
/// records — the receipts counterparties rely on are rewritten, but the
/// anchors it gossiped while relaying convict it.
pub struct EquivocatingTtp {
    party: Arc<Party>,
    forged_subject: Digest,
}

impl EquivocatingTtp {
    /// Wraps the TTP `party`; the rewritten receipt covers
    /// `forged_subject`.
    pub fn new(party: Arc<Party>, forged_subject: Digest) -> Self {
        Self {
            party,
            forged_subject,
        }
    }
}

impl Adversary for EquivocatingTtp {
    fn party(&self) -> &Arc<Party> {
        &self.party
    }

    fn submission(&self) -> WindowSubmission {
        forked_submission(
            &self.party,
            Some(TokenKind::TtpReceipt),
            self.forged_subject,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonrep_core::dispute::{Adjudicator, Corroboration};
    use nonrep_crypto::digest::sha256;
    use nonrep_protocols::party::{KeyDirectory, StaticKeyDirectory};
    use nonrep_types::time::LogicalClock;

    /// A party on a fresh MSS key and a memory log, committing evidence
    /// in batches (the auto seal policy, 50 ms deadline on `clock`).
    fn batched_party(
        org: &str,
        seed: u64,
        clock: &LogicalClock,
        dir: &Arc<StaticKeyDirectory>,
    ) -> Arc<Party> {
        let mut rng = nonrep_crypto::rng::SecureRandom::from_seed(seed);
        let keys = Arc::new(nonrep_crypto::sig::KeyPair::generate(
            nonrep_crypto::sig::SignatureScheme::Mss { height: 8 },
            &mut rng,
        ));
        dir.insert(OrgId::new(org), keys.verifying_key());
        Party::with_commitment(
            org,
            keys,
            Arc::new(clock.clone()),
            Arc::new(nonrep_store::MemoryLog::new()),
            Arc::clone(dir) as Arc<dyn nonrep_protocols::party::KeyDirectory>,
            rng,
            nonrep_protocols::CommitmentMode::auto(50),
        )
    }

    fn batched_party_with_tokens() -> (Arc<Party>, Arc<StaticKeyDirectory>) {
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let party = batched_party("alice", 7, &clock, &dir);
        let run = RunId::from_u128(9);
        for i in 0..4u8 {
            let t = party
                .issue_token(TokenKind::NroReq, run, sha256(&[i]))
                .unwrap();
            party.store_token(&t).unwrap();
            if i % 2 == 1 {
                party.flush_evidence().unwrap();
            }
        }
        (party, dir)
    }

    fn real_anchors(party: &Party) -> Vec<EpochCommitment> {
        party
            .log()
            .records()
            .iter()
            .filter_map(|r| EpochCommitment::from_record(r))
            .collect()
    }

    /// A judge holding `anchors` as what alice gossiped.
    fn judge_holding(dir: Arc<StaticKeyDirectory>, anchors: Vec<EpochCommitment>) -> Adjudicator {
        Adjudicator::new(dir as Arc<dyn KeyDirectory>).corroborated_by(Corroboration {
            epochs: [(OrgId::new("alice"), anchors)].into(),
        })
    }

    #[test]
    fn forked_submission_is_internally_clean_but_anchors_convict_it() {
        let (party, dir) = batched_party_with_tokens();
        let anchors = real_anchors(&party);
        assert!(!anchors.is_empty());
        let adversary = ForkHistorySubmitter::new(party.clone(), sha256(b"forged"));
        let submission = adversary.submission();
        let judge = Adjudicator::new(dir.clone() as Arc<dyn KeyDirectory>);
        // Internally consistent: chain, tokens and epoch proofs all pass.
        assert!(judge.verify_window(&submission).clean());
        // The gossiped anchors attest the *real* history.
        let report = judge_holding(dir, anchors).verify_window(&submission);
        assert!(matches!(
            report.anchor_violation,
            Some(nonrep_store::record::ChainViolation::ForkedHistory { .. })
        ));
    }

    #[test]
    fn withheld_submission_claims_the_truncated_tail() {
        let (party, dir) = batched_party_with_tokens();
        let anchors = real_anchors(&party);
        let adversary = EvidenceWithholder::new(party.clone());
        let submission = adversary.submission();
        assert_eq!(submission.records.len(), 1);
        assert_ne!(submission.head, Digest::ZERO);
        let judge = Adjudicator::new(dir.clone() as Arc<dyn KeyDirectory>);
        assert!(judge.verify_window(&submission).clean());
        let report = judge_holding(dir, anchors).verify_window(&submission);
        assert!(matches!(
            report.anchor_violation,
            Some(nonrep_store::record::ChainViolation::WithheldRecords { .. })
        ));
    }

    #[test]
    fn replayer_plants_a_context_mismatched_record() {
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let alice = Party::quick("alice", 1, &clock, &dir);
        let bob = Party::quick("bob", 2, &clock, &dir);
        let run = RunId::from_u128(5);
        // Alice holds one of bob's tokens, honestly logged under its run.
        let token = bob
            .issue_token(TokenKind::NrrReq, run, sha256(b"payload"))
            .unwrap();
        alice
            .verify_and_store(&token, TokenKind::NrrReq, run, None)
            .unwrap();
        let adversary = TokenReplayer::new(alice.clone(), RunId::from_u128(6));
        adversary.finalize();
        let submission = adversary.submission();
        let judge = Adjudicator::new(dir as Arc<dyn KeyDirectory>);
        let report = judge.verify_window(&submission);
        assert_eq!(report.context_mismatches, 1);
        assert!(!report.clean());
    }

    #[test]
    fn forged_rollover_chains_cleanly_but_fails_cert_verification() {
        let (party, dir) = batched_party_with_tokens();
        let anchors = real_anchors(&party);
        let adversary = ForgedRolloverSubmitter::new(party.clone(), 0x726f_6c6c);
        let submission = adversary.submission();
        // One record beyond the honest log, head claim covering it.
        assert_eq!(submission.records.len() as u64, party.log().len() + 1);
        assert_eq!(
            submission.head,
            submission.records.last().unwrap().record_hash()
        );
        let judge = Adjudicator::new(dir.clone() as Arc<dyn KeyDirectory>);
        let report = judge.verify_window(&submission);
        // The chain holds and the record decodes — only the cert check
        // catches the graft.
        assert!(report.chain.is_ok());
        assert_eq!(report.rollovers, 1);
        assert_eq!(report.rollovers_verified, 0);
        assert!(!report.clean());
        // The grafted tail lands beyond every gossiped anchor, so anchor
        // corroboration alone would have let it through.
        let with_anchors = judge_holding(dir, anchors).verify_window(&submission);
        assert!(with_anchors.anchor_violation.is_none());
    }
}
