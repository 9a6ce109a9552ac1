//! Dispute resolution.
//!
//! Paper §3.1: "To support dispute resolution, the fact that trusted
//! interceptors mediated the interaction provides any honest party with
//! irrefutable evidence of their own actions within the domain and of the
//! observed actions of other parties" and "trusted interceptors will
//! support the conclusion of dispute resolution in favour of honest
//! parties".
//!
//! [`Adjudicator`] makes that mechanically checkable: given the evidence
//! logs the disputing organisations submit, it
//!
//! 1. verifies each log's hash chain (tampered logs are flagged and their
//!    *unverifiable* records ignored),
//! 2. verifies every epoch commitment — the batched pipeline's one
//!    signature per sealed range — against the records it claims to cover,
//! 3. decodes and cryptographically verifies every token against the key
//!    directory (per-record and batch signatures alike),
//! 4. produces the set of [`Fact`]s — token assertions that some submitted
//!    log proves and that their issuer therefore **cannot deny**,
//! 5. reduces the reports and facts, one rule at a time, to the set of
//!    [`Finding`]s against the organisations' conduct.
//!
//! # Windowed submissions
//!
//! Cloning a whole log to submit it does not scale; the batched pipeline
//! makes it unnecessary. A [`WindowSubmission`] carries a
//! `snapshot_range` window of `Arc`-backed records, the submitter's
//! claimed chain head, and (inside the window, as ordinary records) the
//! epoch commitments whose signed roots attest the window's content.
//! [`Adjudicator::adjudicate_windows`] anchors chain verification at the
//! window's first record ([`ChainVerifier::resume`]) instead of replaying
//! from genesis, checks the tail against the claimed head, and verifies
//! every in-window commitment over the records it covers. A whole log is
//! the window that starts at sequence 0. Every window is also checked
//! against the anchors its *submitter* gossiped to counterparties (one
//! [`Corroboration`], [`Adjudicator::corroborated_by`]): a forked history
//! or truncated tail the hash chain alone cannot see becomes
//! [`LogReport::anchor_violation`].
//!
//! # Subtree certificates
//!
//! A stored hierarchical token signature references its subtree
//! certificate instead of carrying it; the log keeps the certificate
//! once, as its own record, ahead of the first token that references
//! it. A window resolves a reference from the certificate records it
//! has already scanned and from the certificates the submission carries
//! ([`WindowSubmission::certs`], which [`WindowSubmission::from_log`]
//! fills from the log). The token then verifies through the ordinary
//! signature chain against its issuer's root key. A reference neither
//! resolves is an unverifiable token, exactly like a forged one.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use nonrep_crypto::digest::Digest;
use nonrep_crypto::hss::{CertRef, SubtreeCert};
pub use nonrep_protocols::gossip::Corroboration;
use nonrep_protocols::party::KeyDirectory;
use nonrep_protocols::tokens::{defection_digest, NrToken, TokenKind};
use nonrep_store::record::{
    cert_from_record, stored_certs, ChainVerifier, ChainViolation, EpochCommitment, EvidenceRecord,
    RunMarker,
};
use nonrep_store::EvidenceLog;
use nonrep_types::codec::Decode;
use nonrep_types::ids::{OrgId, RunId};

/// Verification report for one submitted log (or log window).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogReport {
    /// Who submitted the log.
    pub submitter: OrgId,
    /// Hash-chain verification result.
    pub chain: Result<(), ChainViolation>,
    /// Tokens decoded from the log: `(token, signature_valid)`.
    pub tokens: Vec<(NrToken, bool)>,
    /// Records whose payload was not a decodable token (or a decodable
    /// epoch commitment, run marker or subtree certificate).
    pub undecodable: usize,
    /// Epoch commitments encountered in the submission.
    pub epoch_commits: usize,
    /// Epoch commitments that verified (signature by the submitter, and —
    /// when the covered range lies inside the submission — the recomputed
    /// root over the covered records).
    pub epoch_verified: usize,
    /// Tokens whose decoded fields disagree with the record context they
    /// were stored under (run id, kind, actor or content digest). The
    /// middleware always records a token under its own context
    /// ([`nonrep_protocols::party::Party::store_token`]), so a mismatch
    /// means the record was hand-crafted — e.g. a token from one run
    /// replayed into another run's history.
    pub context_mismatches: usize,
    /// Violation found by corroborating the submission against the
    /// anchors the submitter previously gossiped to counterparties
    /// ([`Adjudicator::corroborated_by`]): a forked history or withheld
    /// records. `None` when no anchors were held or all agree.
    pub anchor_violation: Option<ChainViolation>,
}

impl LogReport {
    /// `true` if the chain verified, every token's signature verified,
    /// every record payload decoded, and every epoch commitment checked
    /// out.
    ///
    /// Undecodable payloads count against the submitter: the middleware
    /// only ever logs canonically-encoded tokens, so a record that fails
    /// to decode is evidence of tampering (e.g. edits to a terminal record
    /// that the hash chain alone cannot catch). Likewise an epoch
    /// commitment whose signature or recomputed root does not match is
    /// evidence of tampering with the sealed range.
    pub fn clean(&self) -> bool {
        self.chain.is_ok()
            && self.undecodable == 0
            && self.tokens.iter().all(|(_, ok)| *ok)
            && self.epoch_verified == self.epoch_commits
            && self.context_mismatches == 0
            && self.anchor_violation.is_none()
    }
}

/// One organisation's windowed evidence submission: a `snapshot_range`
/// window of its log plus its claimed chain head — never a clone of the
/// full record set.
#[derive(Debug, Clone)]
pub struct WindowSubmission {
    /// Who submitted the window.
    pub submitter: OrgId,
    /// A contiguous range of the submitter's log (epoch-commitment
    /// records included — they are the window's batch proofs).
    pub records: Vec<Arc<EvidenceRecord>>,
    /// The submitter's claimed chain head. [`Digest::ZERO`] when the
    /// window does not extend to the log's tail (the head then cannot be
    /// cross-checked against the window).
    pub head: Digest,
    /// The subtree certificates the window's token signatures
    /// reference, which the log stores once, possibly before the window
    /// starts.
    pub certs: Vec<SubtreeCert>,
}

impl WindowSubmission {
    /// Builds a submission directly from a live log: `range` is clamped,
    /// the head claim is attached automatically when the window reaches
    /// the log's tail, and every subtree certificate the window's tokens
    /// reference is attached from the log's certificate records.
    pub fn from_log(submitter: impl Into<OrgId>, log: &dyn EvidenceLog, range: Range<u64>) -> Self {
        let records = log.snapshot_range(range.start..range.end);
        // Read order matters under concurrent appenders: head before len.
        // If an append lands anywhere in between, len() comes back larger
        // than the snapshot and the head claim is dropped — the claim is
        // only ever attached when head provably hashes the window's tail
        // (len is monotonic, so a head newer than the snapshot implies a
        // larger len).
        let head = log.head();
        let reaches_tail = records.last().map(|r| r.seq + 1) == Some(log.len());
        let certs = referenced_certs(log, &records);
        Self {
            submitter: submitter.into(),
            records,
            head: if reaches_tail { head } else { Digest::ZERO },
            certs,
        }
    }
}

/// The certificates `log` holds for the references in `records`' token
/// signatures.
fn referenced_certs(log: &dyn EvidenceLog, records: &[Arc<EvidenceRecord>]) -> Vec<SubtreeCert> {
    let wanted: HashSet<CertRef> = records
        .iter()
        .filter_map(|r| NrToken::decode_from_slice(&r.draft.payload).ok())
        .filter_map(|t| t.signature.cert_ref())
        .collect();
    stored_certs(log, &wanted)
}

/// A token assertion established by the adjudication.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fact {
    /// What was attested.
    pub kind: TokenKind,
    /// Who signed (and therefore cannot deny) it.
    pub issuer: OrgId,
    /// Digest of the subject matter.
    pub subject: Digest,
    /// The protocol run.
    pub run_id: RunId,
    /// Which submitters' logs prove this fact, sorted and without
    /// repeats, whatever order the logs were submitted in.
    pub held_by: Vec<OrgId>,
}

/// What an adjudication found against an organisation's conduct; each
/// variant's doc states its rule. A finding names organisations and
/// kinds, never log positions (those depend on seal timing and stay in
/// [`LogReport::chain`] and [`LogReport::anchor_violation`]). One
/// grounded in a TTP's token names that token's issuer as `ttp`: the
/// adjudicator does not know which TTP the parties agreed on, so the
/// caller checks the name ([`Finding::ttp`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Finding {
    /// The submission is not [`LogReport::clean`].
    Suspect { submitter: OrgId },
    /// The submission's hash chain does not verify.
    BrokenChain { submitter: OrgId },
    /// The submission contradicts an epoch root its submitter gossiped,
    /// or the submitter gossiped two roots for one range.
    ForkedHistory { submitter: OrgId },
    /// The submission claims the log's tail, but its submitter gossiped
    /// anchors over records beyond it.
    WithheldRecords { submitter: OrgId },
    /// `ttp` issued both a `Resolve` and an `Abort` for the run. An
    /// honest offline TTP's escrow ledger never does, so it told the two
    /// exchange parties contradictory outcomes.
    Equivocated { ttp: OrgId },
    /// `ttp` issued a [`TokenKind::Decision`] over the
    /// [`defection_digest`] of `party` and the run: the fair-offline
    /// dispute's conviction. Every organisation the verdict saw
    /// (submitter, issuer or holder) is a candidate, so a defector that
    /// never submits is still named through the tokens it issued.
    Defected { party: OrgId, ttp: OrgId },
    /// `party`'s own submission holds a verified peer-issued
    /// [`TokenKind::NrrResp`] and `ttp`'s [`TokenKind::Abort`]: it took
    /// the receipt, then won an abort race against the client's resolve,
    /// the one unfair interleaving an offline TTP cannot prevent. An
    /// honest server refuses late receipts once it aborts, and only its
    /// own submission grounds this, so counterparties cannot frame it.
    AbortedAfterReceipt { party: OrgId, ttp: OrgId },
    /// `ttp` aborted the run, `party` issued a [`TokenKind::NroReq`], and
    /// `party` issued no [`TokenKind::NrrResp`]: the trace of a client
    /// silent inside the receipt window. Attribution, not conviction: a
    /// timeout cannot tell a crash from malice, so this names who owes
    /// the receipt — grounds to stop serving it, not to punish it.
    Stalled { party: OrgId, ttp: OrgId },
}

impl Finding {
    /// The TTP whose token grounds this finding, if one does.
    pub fn ttp(&self) -> Option<&OrgId> {
        match self {
            Self::Equivocated { ttp }
            | Self::Defected { ttp, .. }
            | Self::AbortedAfterReceipt { ttp, .. }
            | Self::Stalled { ttp, .. } => Some(ttp),
            _ => None,
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Suspect { submitter } => write!(f, "suspect submission from {submitter}"),
            Self::BrokenChain { submitter } => write!(f, "{submitter}'s hash chain is broken"),
            Self::ForkedHistory { submitter } => write!(f, "{submitter} forked its history"),
            Self::WithheldRecords { submitter } => write!(f, "{submitter} withheld records"),
            Self::Equivocated { ttp } => write!(f, "{ttp} both resolved and aborted"),
            Self::Defected { party, ttp } => write!(f, "{party} defected, decided by {ttp}"),
            Self::AbortedAfterReceipt { party, ttp } => {
                write!(f, "{party} took the receipt and aborted at {ttp}")
            }
            Self::Stalled { party, ttp } => write!(f, "{party} stalled the run {ttp} aborted"),
        }
    }
}

/// The outcome of an adjudication over one protocol run.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// The run adjudicated.
    pub run_id: RunId,
    /// Per-submission verification reports.
    pub reports: Vec<LogReport>,
    /// Established, undeniable facts.
    pub facts: Vec<Fact>,
    /// What the conduct rules found.
    pub findings: BTreeSet<Finding>,
}

impl Verdict {
    /// `true` if some verified token of `kind` was issued by `issuer` —
    /// i.e. `issuer` cannot deny the corresponding action.
    pub fn cannot_deny(&self, issuer: &OrgId, kind: TokenKind) -> bool {
        self.facts
            .iter()
            .any(|f| f.issuer == *issuer && f.kind == kind)
    }

    /// Submitters whose logs failed verification (tampering or forgery):
    /// every [`Finding::Suspect`].
    pub fn suspect_submitters(&self) -> Vec<OrgId> {
        let suspect = |f: &Finding| match f {
            Finding::Suspect { submitter } => Some(submitter.clone()),
            _ => None,
        };
        self.findings.iter().filter_map(suspect).collect()
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "verdict for run {}", self.run_id)?;
        for fact in &self.facts {
            writeln!(
                f,
                "  established: {} issued {} (held by {:?})",
                fact.issuer,
                fact.kind,
                fact.held_by.iter().map(OrgId::as_str).collect::<Vec<_>>()
            )?;
        }
        for finding in &self.findings {
            writeln!(f, "  found: {finding}")?;
        }
        Ok(())
    }
}

/// The dispute-resolution service.
pub struct Adjudicator {
    directory: Arc<dyn KeyDirectory>,
    corroboration: Corroboration,
}

impl fmt::Debug for Adjudicator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Adjudicator")
    }
}

impl Adjudicator {
    /// Creates an adjudicator trusting `directory` for key resolution,
    /// holding no anchors to corroborate submissions against.
    pub fn new(directory: Arc<dyn KeyDirectory>) -> Self {
        Self {
            directory,
            corroboration: Corroboration::default(),
        }
    }

    /// Hands the adjudicator the anchors counterparties collected over
    /// the bus while the evidence was being produced (typically
    /// `AnchorStore::snapshot`). A submitter whose window conflicts with
    /// what it gossiped itself is established as having forked or
    /// truncated its history ([`Finding::ForkedHistory`],
    /// [`Finding::WithheldRecords`]).
    pub fn corroborated_by(mut self, corroboration: Corroboration) -> Self {
        self.corroboration = corroboration;
        self
    }

    /// Verifies a windowed submission: the chain is anchored at the
    /// window's first record (genesis rules still apply when the window
    /// starts at sequence 0), in-window epoch commitments are checked
    /// over the records they cover, when a head is claimed the window's
    /// tail must hash to it, and the submitter's held anchors must agree.
    pub fn verify_window(&self, submission: &WindowSubmission) -> LogReport {
        let mut builder = ReportBuilder::new(
            submission.submitter.clone(),
            &*self.directory,
            submission.records.first().map(|r| (r.seq, r.prev_hash)),
        );
        for cert in &submission.certs {
            builder.certs.insert(cert.reference(), cert.clone());
        }
        for record in &submission.records {
            builder.check(record);
        }
        builder.check_head_claim(&submission.head);
        builder.corroborate(&self.corroboration, submission.head != Digest::ZERO);
        builder.finish()
    }

    /// Verifies a live log in place, reading it in bounded windows via
    /// [`EvidenceLog::for_each_window`] — peak memory stays one window
    /// (never a whole-log clone), and the log's internal lock is *not*
    /// held while token signatures are cryptographically verified, so
    /// concurrent appenders are not stalled behind an audit (which claims
    /// no head and is not corroborated; a dispute submits a window).
    pub fn verify_log_in_place(&self, submitter: OrgId, log: &dyn EvidenceLog) -> LogReport {
        let mut builder = ReportBuilder::new(submitter, &*self.directory, None);
        log.for_each_window(256, &mut |window| {
            for record in window {
                builder.check(record);
            }
            true
        });
        builder.finish()
    }

    /// Adjudicates `run_id` over windowed submissions: each party sends
    /// a `snapshot_range` window plus its chain head and the epoch
    /// commitments (batch proofs) sealed inside it, instead of a clone
    /// of its full log.
    ///
    /// Facts are established only from tokens that verify
    /// cryptographically; an unverifiable (forged) token contributes
    /// nothing except suspicion against its submitter.
    pub fn adjudicate_windows(&self, run_id: RunId, submissions: &[WindowSubmission]) -> Verdict {
        let reports = submissions.iter().map(|s| self.verify_window(s)).collect();
        verdict_from_reports(run_id, reports)
    }
}

/// Incremental [`LogReport`] construction shared by the windowed and
/// visitor-based verification paths.
struct ReportBuilder<'a> {
    /// The report so far. Its `chain` holds only a head mismatch until
    /// `finish` puts the chain verifier's result first.
    report: LogReport,
    directory: &'a dyn KeyDirectory,
    chain: ChainVerifier,
    /// First sequence number fed in (window offset for epoch ranges).
    first_seq: Option<u64>,
    /// Running record hashes, reused for epoch-root recomputation (32
    /// bytes per record — never a clone of the records themselves).
    hashes: Vec<Digest>,
    /// Subtree certificates stored token signatures can reference: the
    /// submission's, then each certificate record as it is scanned.
    certs: HashMap<CertRef, SubtreeCert>,
}

impl<'a> ReportBuilder<'a> {
    /// Builder for records starting at `anchor` (the first record's
    /// sequence number and claimed predecessor hash); `None`, or a first
    /// record at sequence 0, starts at genesis.
    fn new(
        submitter: OrgId,
        directory: &'a dyn KeyDirectory,
        anchor: Option<(u64, Digest)>,
    ) -> Self {
        Self {
            report: LogReport {
                submitter,
                chain: Ok(()),
                tokens: Vec::new(),
                undecodable: 0,
                epoch_commits: 0,
                epoch_verified: 0,
                context_mismatches: 0,
                anchor_violation: None,
            },
            directory,
            chain: match anchor {
                Some((seq, prev_hash)) if seq > 0 => ChainVerifier::resume(seq, prev_hash),
                _ => ChainVerifier::new(),
            },
            first_seq: None,
            hashes: Vec::new(),
            certs: HashMap::new(),
        }
    }

    fn check(&mut self, record: &EvidenceRecord) {
        self.first_seq.get_or_insert(record.seq);
        let chain_was_ok = !self.chain.violated();
        self.chain.check(record);
        // The chain verifier's running head doubles as this record's hash
        // while the chain holds; once broken, fall back to hashing the
        // record directly so epoch checks still see true content hashes.
        let hash = if chain_was_ok && !self.chain.violated() {
            self.chain.head()
        } else {
            record.record_hash()
        };
        self.hashes.push(hash);

        if record.is_epoch_commit() {
            self.report.epoch_commits += 1;
            match EpochCommitment::from_record(record) {
                Some(commitment) => self.check_epoch(&commitment),
                None => self.report.undecodable += 1,
            }
            return;
        }
        if record.is_subtree_cert() {
            // Attests nothing by itself: a token that references it
            // verifies the certificate through its own signature chain,
            // so a foreign hierarchy's genuine certificate grafted under
            // a submitter's token fails that token's check against the
            // issuer's root key. An edited one no longer decodes or
            // names its subtree.
            match cert_from_record(record) {
                Some(cert) => {
                    self.certs.insert(cert.reference(), cert);
                }
                None => self.report.undecodable += 1,
            }
            return;
        }
        if record.is_run_marker() {
            // Progress bookkeeping for crash recovery: the submitter's
            // private claim about its own run state, carried inside the
            // tamper-evident chain but attesting nothing about the peer.
            // Decodable markers are neutral; an undecodable one is an
            // edited record like any other.
            if RunMarker::from_record(record).is_none() {
                self.report.undecodable += 1;
            }
            return;
        }
        match NrToken::decode_from_slice(&record.draft.payload) {
            Ok(mut token) => {
                // A stored signature references its subtree certificate;
                // one this submission cannot resolve leaves the reference
                // in place, and a reference never verifies.
                if let Some(cert) = token.signature.cert_ref().and_then(|r| self.certs.get(&r)) {
                    token.signature.attach_cert(cert.clone());
                }
                let ok = self
                    .directory
                    .key_of(&token.issuer)
                    .map(|key| token.verify(&key, None, None, None))
                    .unwrap_or(false);
                // The middleware stores every token under the token's own
                // context (`Party::store_token` copies run id, kind label,
                // issuer and subject into the draft), so any disagreement
                // here proves a hand-crafted record — e.g. a genuine token
                // from run A replayed into run B's history.
                if token.run_id != record.draft.run_id
                    || token.kind.label() != record.draft.kind
                    || token.issuer != record.draft.actor
                    || token.subject != record.draft.content_digest
                {
                    self.report.context_mismatches += 1;
                }
                self.report.tokens.push((token, ok));
            }
            Err(_) => self.report.undecodable += 1,
        }
    }

    /// Verifies one epoch commitment. When `[lo, hi]` lies inside the
    /// submission the root is recomputed over the covered record hashes;
    /// a range reaching outside the window can only have its signature
    /// checked (the window's own integrity still rests on the chain and
    /// the in-window commitments).
    fn check_epoch(&mut self, commitment: &EpochCommitment) {
        let Some(key) = self.directory.key_of(&self.report.submitter) else {
            return; // unknown submitter key: commitment stays unverified
        };
        let first = self.first_seq.unwrap_or(0);
        let in_window = commitment.lo >= first
            && commitment.hi >= commitment.lo
            && commitment.hi - first + 1 < self.hashes.len() as u64;
        let ok = if in_window {
            let lo = (commitment.lo - first) as usize;
            let hi = (commitment.hi - first) as usize;
            commitment.verify_hashes(&key, &self.hashes[lo..=hi])
        } else {
            key.verify_digest(
                &EpochCommitment::signing_digest(commitment.lo, commitment.hi, &commitment.root),
                &commitment.signature,
            )
        };
        if ok {
            self.report.epoch_verified += 1;
        }
    }

    /// Corroborates the submission against the epoch anchors its
    /// submitter gossiped. Only anchors that verify under the
    /// submitter's own key count — a counterparty cannot frame an honest
    /// submitter with anchors the submitter never signed. The first
    /// violation found is reported:
    ///
    /// - two anchors over the same range with different roots are
    ///   themselves proof of a fork (two counterparties were told two
    ///   histories, [`ChainViolation::ForkedHistory`]);
    /// - a covered range lying inside the submission must recompute to the
    ///   anchored root, else the submitter forked its history;
    /// - when the submission claims the log's tail, an anchor attesting
    ///   records beyond it proves evidence was withheld
    ///   ([`ChainViolation::WithheldRecords`]); a partial window claims
    ///   nothing about the tail and is never flagged.
    fn corroborate(&mut self, held: &Corroboration, claims_tail: bool) {
        let Some(epochs) = held.epochs.get(&self.report.submitter) else {
            return; // nothing held against this submitter
        };
        let Some(key) = self.directory.key_of(&self.report.submitter) else {
            return; // unknown submitter key: anchors cannot be attributed
        };
        let verified: Vec<&EpochCommitment> = epochs
            .iter()
            .filter(|a| a.hi >= a.lo)
            .filter(|a| {
                key.verify_digest(
                    &EpochCommitment::signing_digest(a.lo, a.hi, &a.root),
                    &a.signature,
                )
            })
            .collect();
        let mut roots: BTreeMap<(u64, u64), Digest> = BTreeMap::new();
        for a in &verified {
            if *roots.entry((a.lo, a.hi)).or_insert(a.root) != a.root {
                self.report
                    .anchor_violation
                    .get_or_insert(ChainViolation::ForkedHistory { lo: a.lo, hi: a.hi });
            }
        }
        let first = self.first_seq.unwrap_or(0);
        let last = first + (self.hashes.len() as u64).saturating_sub(1);
        for a in verified {
            if !self.hashes.is_empty() && a.lo >= first && a.hi <= last {
                let lo_i = (a.lo - first) as usize;
                let hi_i = (a.hi - first) as usize;
                if EpochCommitment::root_over_hashes(&self.hashes[lo_i..=hi_i]) != a.root {
                    self.report
                        .anchor_violation
                        .get_or_insert(ChainViolation::ForkedHistory { lo: a.lo, hi: a.hi });
                }
            }
            if claims_tail && a.hi > last {
                self.report
                    .anchor_violation
                    .get_or_insert(ChainViolation::WithheldRecords {
                        attested: a.hi,
                        submitted: if self.hashes.is_empty() { 0 } else { last },
                    });
            }
        }
    }

    /// Cross-checks a claimed chain head against the last record fed in
    /// ([`Digest::ZERO`] claims nothing).
    fn check_head_claim(&mut self, head: &Digest) {
        if *head == Digest::ZERO {
            return;
        }
        if let Some(last) = self.hashes.last() {
            if last != head && !self.chain.violated() {
                let seq = self.first_seq.unwrap_or(0) + self.hashes.len() as u64 - 1;
                self.report.chain = Err(ChainViolation::HeadMismatch { seq });
            }
        }
    }

    fn finish(self) -> LogReport {
        LogReport {
            chain: self.chain.finish().and(self.report.chain),
            ..self.report
        }
    }
}

/// Merges verified per-log reports into the final [`Verdict`]: the facts
/// they establish, then every conduct rule's findings.
fn verdict_from_reports(run_id: RunId, reports: Vec<LogReport>) -> Verdict {
    // (kind-tag, issuer, subject) → holders.
    let mut facts: BTreeMap<(&str, &OrgId, Digest), Fact> = BTreeMap::new();
    for report in &reports {
        for (token, ok) in &report.tokens {
            if !*ok || token.run_id != run_id {
                continue;
            }
            let key = (token.kind.label(), &token.issuer, token.subject);
            let entry = facts.entry(key).or_insert_with(|| Fact {
                kind: token.kind,
                issuer: token.issuer.clone(),
                subject: token.subject,
                run_id,
                held_by: Vec::new(),
            });
            if let Err(at) = entry.held_by.binary_search(&report.submitter) {
                entry.held_by.insert(at, report.submitter.clone());
            }
        }
    }
    let facts = facts.into_values().collect();
    let mut verdict = Verdict {
        run_id,
        reports,
        facts,
        findings: BTreeSet::new(),
    };
    verdict.findings = RULES.iter().flat_map(|rule| rule(&verdict)).collect();
    verdict
}

/// The conduct rules: one pure reducer each over a verdict's reports and
/// facts, yielding the [`Finding`] variant whose doc states the rule.
/// Findings merge as a set, so neither rule nor submission order matters.
const RULES: [fn(&Verdict) -> Vec<Finding>; 7] = [
    suspects,
    broken_chains,
    anchor_violations,
    equivocations,
    defections,
    aborts_after_receipt,
    stalls,
];

/// Applies a rule over one report, given its submitter, to every report.
fn per_report(v: &Verdict, rule: fn(&LogReport, OrgId) -> Option<Finding>) -> Vec<Finding> {
    v.reports
        .iter()
        .filter_map(|r| rule(r, r.submitter.clone()))
        .collect()
}

fn suspects(v: &Verdict) -> Vec<Finding> {
    per_report(v, |r, submitter| {
        (!r.clean()).then_some(Finding::Suspect { submitter })
    })
}

fn broken_chains(v: &Verdict) -> Vec<Finding> {
    per_report(v, |r, submitter| {
        r.chain
            .is_err()
            .then_some(Finding::BrokenChain { submitter })
    })
}

fn anchor_violations(v: &Verdict) -> Vec<Finding> {
    per_report(v, |r, submitter| match r.anchor_violation.as_ref()? {
        ChainViolation::ForkedHistory { .. } => Some(Finding::ForkedHistory { submitter }),
        ChainViolation::WithheldRecords { .. } => Some(Finding::WithheldRecords { submitter }),
        _ => None,
    })
}

/// Issuers of a fact of `kind`.
fn issuers(v: &Verdict, kind: TokenKind) -> BTreeSet<&OrgId> {
    v.facts
        .iter()
        .filter(|f| f.kind == kind)
        .map(|f| &f.issuer)
        .collect()
}

fn equivocations(v: &Verdict) -> Vec<Finding> {
    let (resolved, aborted) = (issuers(v, TokenKind::Resolve), issuers(v, TokenKind::Abort));
    let both = resolved.intersection(&aborted).copied().cloned();
    both.map(|ttp| Finding::Equivocated { ttp }).collect()
}

fn defections(v: &Verdict) -> Vec<Finding> {
    let mut seen: BTreeSet<&OrgId> = v.reports.iter().map(|r| &r.submitter).collect();
    for fact in &v.facts {
        seen.insert(&fact.issuer);
        seen.extend(&fact.held_by);
    }
    let mut out = Vec::new();
    for decision in v.facts.iter().filter(|f| f.kind == TokenKind::Decision) {
        for &party in &seen {
            if defection_digest(party, v.run_id) == decision.subject {
                let (party, ttp) = (party.clone(), decision.issuer.clone());
                out.push(Finding::Defected { party, ttp });
            }
        }
    }
    out
}

fn aborts_after_receipt(v: &Verdict) -> Vec<Finding> {
    let mut out = Vec::new();
    for report in &v.reports {
        let verified = report
            .tokens
            .iter()
            .filter(|(t, ok)| *ok && t.run_id == v.run_id);
        let held = verified.map(|(t, _)| t);
        if held
            .clone()
            .any(|t| t.kind == TokenKind::NrrResp && t.issuer != report.submitter)
        {
            for abort in held.filter(|t| t.kind == TokenKind::Abort) {
                let (party, ttp) = (report.submitter.clone(), abort.issuer.clone());
                out.push(Finding::AbortedAfterReceipt { party, ttp });
            }
        }
    }
    out
}

fn stalls(v: &Verdict) -> Vec<Finding> {
    let receipted = issuers(v, TokenKind::NrrResp);
    let mut out = Vec::new();
    for ttp in issuers(v, TokenKind::Abort) {
        for party in issuers(v, TokenKind::NroReq).difference(&receipted) {
            let (party, ttp) = ((*party).clone(), ttp.clone());
            out.push(Finding::Stalled { party, ttp });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonrep_crypto::digest::sha256;
    use nonrep_protocols::party::{Party, StaticKeyDirectory};
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

    struct Pair {
        alice: Arc<Party>,
        bob: Arc<Party>,
        dir: Arc<StaticKeyDirectory>,
    }

    fn pair() -> Pair {
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        Pair {
            alice: Party::quick("alice", 1, &clock, &dir),
            bob: Party::quick("bob", 2, &clock, &dir),
            dir,
        }
    }

    fn run_exchange(p: &Pair) -> RunId {
        // Alice issues NRO, Bob verifies+stores; Bob issues NRR, Alice
        // verifies+stores — a miniature exchange.
        let run = p.alice.new_run_id();
        let subject = sha256(b"request");
        let nro = p
            .alice
            .issue_token(TokenKind::NroReq, run, subject)
            .unwrap();
        p.alice.store_token(&nro).unwrap();
        p.bob
            .verify_and_store(&nro, TokenKind::NroReq, run, Some(&subject))
            .unwrap();
        let nrr = p.bob.issue_token(TokenKind::NrrReq, run, subject).unwrap();
        p.bob.store_token(&nrr).unwrap();
        p.alice
            .verify_and_store(&nrr, TokenKind::NrrReq, run, Some(&subject))
            .unwrap();
        run
    }

    /// Logs `n` tokens of `run` under the party's own name and seals them.
    /// Issues and stores `n` tokens, sealing an epoch after every two.
    fn seal_tokens(party: &Party, run: RunId, n: u8) {
        for i in 0..n {
            let t = party
                .issue_token(TokenKind::NroReq, run, sha256(&[i]))
                .unwrap();
            party.store_token(&t).unwrap();
            if i % 2 == 1 {
                party.flush_evidence().unwrap();
            }
        }
        party.flush_evidence().unwrap();
    }

    /// Every anchor of one kind sealed into `log` — what peers collected.
    fn sealed<T>(log: &dyn EvidenceLog, decode: fn(&EvidenceRecord) -> Option<T>) -> Vec<T> {
        log.records().iter().filter_map(|r| decode(r)).collect()
    }

    /// A whole log as records: the window from sequence 0, claiming no head.
    fn full(org: &str, records: Vec<Arc<EvidenceRecord>>) -> WindowSubmission {
        WindowSubmission {
            submitter: OrgId::new(org),
            records,
            head: Digest::ZERO,
            certs: Vec::new(),
        }
    }

    /// The first `keep` records of `log` as if they were all of it: the
    /// head claim is honestly computed over the truncated tail.
    fn truncated(org: &str, log: &dyn EvidenceLog, keep: u64) -> WindowSubmission {
        let records = log.snapshot_range(0..keep);
        WindowSubmission {
            head: records.last().unwrap().record_hash(),
            ..full(org, records)
        }
    }

    /// A party's live log, disputed whole.
    fn live(party: &Party) -> WindowSubmission {
        WindowSubmission::from_log(party.org().clone(), &**party.log(), 0..party.log().len())
    }

    /// An adjudicator holding what alice gossiped.
    fn holding(dir: &Arc<StaticKeyDirectory>, epochs: &[EpochCommitment]) -> Adjudicator {
        Adjudicator::new(dir.clone() as Arc<dyn KeyDirectory>).corroborated_by(Corroboration {
            epochs: BTreeMap::from([(OrgId::new("alice"), epochs.to_vec())]),
        })
    }

    #[test]
    fn honest_logs_establish_mutual_facts() {
        let p = pair();
        let run = run_exchange(&p);
        let adjudicator = Adjudicator::new(p.dir.clone() as Arc<dyn KeyDirectory>);
        let verdict = adjudicator.adjudicate_windows(run, &[live(&p.alice), live(&p.bob)]);
        // Neither party can deny their token.
        assert!(verdict.cannot_deny(&OrgId::new("alice"), TokenKind::NroReq));
        assert!(verdict.cannot_deny(&OrgId::new("bob"), TokenKind::NrrReq));
        assert!(verdict.findings.is_empty());
        assert!(verdict.suspect_submitters().is_empty());
        // Both facts are held by both parties.
        for fact in &verdict.facts {
            assert_eq!(fact.held_by.len(), 2, "{fact:?}");
        }
        assert!(verdict.to_string().contains("established"));
    }

    #[test]
    fn denial_defeated_by_counterparty_log() {
        // Bob "loses" his log (submits nothing) and denies having received
        // the request. Alice's log alone proves Bob's NRR_req.
        let p = pair();
        let run = run_exchange(&p);
        let adjudicator = Adjudicator::new(p.dir.clone() as Arc<dyn KeyDirectory>);
        let verdict = adjudicator.adjudicate_windows(run, &[live(&p.alice)]);
        assert!(verdict.cannot_deny(&OrgId::new("bob"), TokenKind::NrrReq));
    }

    #[test]
    fn tampered_log_is_flagged() {
        let p = pair();
        let run = run_exchange(&p);
        let mut records = p.alice.log().records();
        Arc::make_mut(&mut records[0]).draft.kind = "doctored".into();
        let adjudicator = Adjudicator::new(p.dir.clone() as Arc<dyn KeyDirectory>);
        let verdict = adjudicator.adjudicate_windows(run, &[full("alice", records)]);
        assert_eq!(verdict.suspect_submitters(), vec![OrgId::new("alice")]);
        let alice = || OrgId::new("alice");
        assert_eq!(
            verdict.findings,
            BTreeSet::from([
                Finding::Suspect { submitter: alice() },
                Finding::BrokenChain { submitter: alice() },
            ])
        );
    }

    #[test]
    fn forged_token_contributes_no_fact() {
        let p = pair();
        let run = p.alice.new_run_id();
        // Alice fabricates a token claiming bob signed a receipt: she can
        // only sign with her own key, so issuer=bob + alice's signature.
        let mut forged = p
            .alice
            .issue_token(TokenKind::NrrReq, run, sha256(b"x"))
            .unwrap();
        forged.issuer = OrgId::new("bob");
        p.alice.store_token(&forged).unwrap();
        let adjudicator = Adjudicator::new(p.dir.clone() as Arc<dyn KeyDirectory>);
        let verdict =
            adjudicator.adjudicate_windows(run, &[full("alice", p.alice.log().records())]);
        assert!(!verdict.cannot_deny(&OrgId::new("bob"), TokenKind::NrrReq));
        // Alice's submission contains an unverifiable token → suspect.
        assert_eq!(verdict.suspect_submitters(), vec![OrgId::new("alice")]);
    }

    #[test]
    fn facts_are_scoped_to_the_run() {
        let p = pair();
        let run1 = run_exchange(&p);
        let run2 = run_exchange(&p);
        assert_ne!(run1, run2);
        let adjudicator = Adjudicator::new(p.dir.clone() as Arc<dyn KeyDirectory>);
        let verdict =
            adjudicator.adjudicate_windows(run1, &[full("alice", p.alice.log().records())]);
        assert!(verdict.facts.iter().all(|f| f.run_id == run1));
    }

    #[test]
    fn replayed_token_is_flagged_and_contributes_no_cross_run_fact() {
        use nonrep_store::record::RecordDraft;
        use nonrep_types::codec::Encode;
        let p = pair();
        let run1 = p.alice.new_run_id();
        let run2 = p.alice.new_run_id();
        let token = p
            .alice
            .issue_token(TokenKind::NroReq, run1, sha256(b"req"))
            .unwrap();
        p.alice.store_token(&token).unwrap();
        // Bob received the run-1 token honestly…
        p.bob
            .verify_and_store(&token, TokenKind::NroReq, run1, None)
            .unwrap();
        // …then replays it into run 2's history: a hand-crafted record
        // whose context says run 2 but whose payload is the run-1 token.
        p.bob
            .log()
            .append(RecordDraft {
                run_id: run2,
                kind: token.kind.label().to_string(),
                actor: token.issuer.clone(),
                at: p.bob.now(),
                content_digest: token.subject,
                payload: token.encode_to_vec(),
            })
            .unwrap();
        let adjudicator = Adjudicator::new(p.dir.clone() as Arc<dyn KeyDirectory>);
        let verdict = adjudicator.adjudicate_windows(run2, &[full("bob", p.bob.log().records())]);
        // The replay establishes nothing in run 2 (facts group by the
        // token's own run id)…
        assert!(verdict.facts.is_empty());
        // …and the context mismatch marks bob's submission as crafted.
        assert_eq!(verdict.suspect_submitters(), vec![OrgId::new("bob")]);
        assert_eq!(verdict.reports[0].context_mismatches, 1);
    }

    #[test]
    fn withheld_evidence_detected_via_gossiped_anchors() {
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let alice = batched_party("alice", 1, &clock, &dir);
        let run = alice.new_run_id();
        seal_tokens(&alice, run, 4);
        // Counterparties collected alice's sealed epoch anchors while the
        // evidence was produced.
        let anchors = sealed(&**alice.log(), EpochCommitment::from_record);
        assert!(anchors.len() >= 2);
        // Alice later submits a truncated "full log": a valid prefix with
        // an honestly-computed head over the truncated tail — undetectable
        // by chain verification alone.
        let submission = truncated("alice", &**alice.log(), 2);
        let adjudicator = Adjudicator::new(dir.clone() as Arc<dyn KeyDirectory>);
        assert!(adjudicator.verify_window(&submission).clean());
        let report = holding(&dir, &anchors).verify_window(&submission);
        assert!(matches!(
            report.anchor_violation,
            Some(ChainViolation::WithheldRecords { .. })
        ));
        assert!(!report.clean());
        let alice = || OrgId::new("alice");
        assert_eq!(
            holding(&dir, &anchors)
                .adjudicate_windows(run, &[submission])
                .findings,
            BTreeSet::from([
                Finding::Suspect { submitter: alice() },
                Finding::WithheldRecords { submitter: alice() },
            ])
        );
    }

    #[test]
    fn forked_history_detected_via_gossiped_anchors() {
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let alice = batched_party("alice", 1, &clock, &dir);
        let run = alice.new_run_id();
        seal_tokens(&alice, run, 2);
        let real = alice
            .log()
            .records()
            .iter()
            .find_map(|r| EpochCommitment::from_record(r))
            .unwrap();
        // Alice told another counterparty a *different* history for the
        // same epoch: same range, different root, genuinely signed.
        let other_root = sha256(b"the history alice showed bob");
        let signature = alice
            .keys()
            .sign_digest(&EpochCommitment::signing_digest(
                real.lo,
                real.hi,
                &other_root,
            ))
            .unwrap();
        let forked = EpochCommitment {
            lo: real.lo,
            hi: real.hi,
            root: other_root,
            signature,
        };
        let submission = live(&alice);
        // The divergent anchor alone: its in-window root recomputation
        // conflicts with the submitted records.
        let judge = holding(&dir, std::slice::from_ref(&forked));
        let report = judge.verify_window(&submission);
        assert!(matches!(
            report.anchor_violation,
            Some(ChainViolation::ForkedHistory { .. })
        ));
        let alice = || OrgId::new("alice");
        assert_eq!(
            judge
                .adjudicate_windows(run, std::slice::from_ref(&submission))
                .findings,
            BTreeSet::from([
                Finding::Suspect { submitter: alice() },
                Finding::ForkedHistory { submitter: alice() },
            ])
        );
        // Both anchors together: pairwise equivocation over one range.
        let report = holding(&dir, &[real.clone(), forked]).verify_window(&submission);
        assert!(matches!(
            report.anchor_violation,
            Some(ChainViolation::ForkedHistory { .. })
        ));
        // The genuine anchor alone corroborates the submission.
        assert!(holding(&dir, &[real]).verify_window(&submission).clean());
    }

    #[test]
    fn unattributable_anchors_cannot_frame_an_honest_submitter() {
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        let alice = batched_party("alice", 1, &clock, &dir);
        let mallory = Party::quick("mallory", 66, &clock, &dir);
        let run = alice.new_run_id();
        seal_tokens(&alice, run, 2);
        // Mallory fabricates an anchor accusing alice of withholding up to
        // seq 99 — but can only sign it with mallory's own key.
        let root = sha256(b"fabricated");
        let signature = mallory
            .keys()
            .sign_digest(&EpochCommitment::signing_digest(0, 99, &root))
            .unwrap();
        let fabricated = EpochCommitment {
            lo: 0,
            hi: 99,
            root,
            signature,
        };
        let report = holding(&dir, &[fabricated]).verify_window(&live(&alice));
        assert!(report.anchor_violation.is_none());
        assert!(report.clean());
    }

    #[test]
    fn retired_super_epoch_record_is_undecodable_never_clean() {
        // Sharded planes once logged `super_epoch_commit` records. With
        // that kind retired, such a record falls through to token
        // decoding and counts against the window instead of passing.
        let p = pair();
        let run = run_exchange(&p);
        let log = nonrep_store::MemoryLog::new();
        for record in p.alice.log().records() {
            log.append(record.draft.clone()).unwrap();
        }
        log.append(nonrep_store::RecordDraft {
            run_id: run,
            kind: "super_epoch_commit".into(),
            actor: OrgId::new("alice"),
            at: p.alice.now(),
            content_digest: sha256(b"super root"),
            payload: b"retired super-epoch anchor".to_vec(),
        })
        .unwrap();
        let adjudicator = Adjudicator::new(p.dir.clone() as Arc<dyn KeyDirectory>);
        let report =
            adjudicator.verify_window(&WindowSubmission::from_log("alice", &log, 0..log.len()));
        assert!(report.chain.is_ok());
        assert_eq!(report.undecodable, 1);
        assert_eq!(report.epoch_commits, 0);
        assert!(!report.clean());
    }

    #[test]
    fn one_conflicting_pair_among_thousands_of_anchors_is_named_exactly() {
        // However many epochs an organisation gossiped, the one range it
        // signed two roots for is found in a single pass and named,
        // wherever the pair sits in the list.
        let keys = nonrep_crypto::sig::KeyPair::generate(
            nonrep_crypto::sig::SignatureScheme::Arbitrated,
            &mut nonrep_crypto::rng::SecureRandom::from_seed(77),
        );
        let dir = Arc::new(StaticKeyDirectory::new());
        dir.insert(OrgId::new("alice"), keys.verifying_key());
        let anchor = |lo: u64, hi: u64, root: Digest| EpochCommitment {
            lo,
            hi,
            root,
            signature: keys
                .sign_digest(&EpochCommitment::signing_digest(lo, hi, &root))
                .unwrap(),
        };
        let honest: Vec<EpochCommitment> = (0..2_000u64)
            .map(|i| anchor(2 * i, 2 * i + 1, sha256(&i.to_le_bytes())))
            .collect();
        // An empty window claiming no tail: nothing to recompute, so only
        // the pair itself can be the violation.
        let nothing = full("alice", Vec::new());
        assert!(holding(&dir, &honest).verify_window(&nothing).clean());
        for at in [0, honest.len() / 2, honest.len()] {
            let (lo, hi) = (9_000 + at as u64, 9_001 + at as u64);
            let mut anchors = honest.clone();
            anchors.insert(at, anchor(lo, hi, sha256(b"told to bob")));
            anchors.insert(at + 1, anchor(lo, hi, sha256(b"told to carol")));
            let report = holding(&dir, &anchors).verify_window(&nothing);
            let expected = Some(ChainViolation::ForkedHistory { lo, hi });
            assert_eq!(report.anchor_violation, expected, "pair at {at}");
        }
    }

    #[test]
    fn resolve_plus_abort_facts_expose_ttp_equivocation() {
        let p = pair();
        let run = p.alice.new_run_id();
        // Alice (as an offline TTP) issues contradictory outcomes for one
        // exchange; the victims hold one token each and submit them.
        let resolve = p
            .alice
            .issue_token(TokenKind::Resolve, run, sha256(b"escrowed key"))
            .unwrap();
        let abort = p
            .alice
            .issue_token(TokenKind::Abort, run, sha256(b"abort"))
            .unwrap();
        p.bob
            .verify_and_store(&resolve, TokenKind::Resolve, run, None)
            .unwrap();
        p.bob
            .verify_and_store(&abort, TokenKind::Abort, run, None)
            .unwrap();
        let adjudicator = Adjudicator::new(p.dir.clone() as Arc<dyn KeyDirectory>);
        let verdict = adjudicator.adjudicate_windows(run, &[full("bob", p.bob.log().records())]);
        // Bob's submission itself is honest: the one finding is alice's.
        assert_eq!(
            verdict.findings,
            BTreeSet::from([Finding::Equivocated {
                ttp: OrgId::new("alice")
            }])
        );
        assert!(verdict.suspect_submitters().is_empty());
    }

    struct Trio {
        client: Arc<Party>,
        server: Arc<Party>,
        ttp: Arc<Party>,
        /// A key holder the exchange parties never agreed on as TTP.
        other: Arc<Party>,
        dir: Arc<StaticKeyDirectory>,
    }

    fn trio() -> Trio {
        let clock = LogicalClock::new();
        let dir = Arc::new(StaticKeyDirectory::new());
        Trio {
            client: Party::quick("client", 1, &clock, &dir),
            server: Party::quick("server", 2, &clock, &dir),
            ttp: Party::quick("ttp", 3, &clock, &dir),
            other: Party::quick("someone-else", 4, &clock, &dir),
            dir,
        }
    }

    impl Trio {
        fn judge(&self, run: RunId, parties: &[&Arc<Party>]) -> Verdict {
            let submissions: Vec<WindowSubmission> = parties
                .iter()
                .map(|p| full(p.org().as_str(), p.log().records()))
                .collect();
            Adjudicator::new(self.dir.clone() as Arc<dyn KeyDirectory>)
                .adjudicate_windows(run, &submissions)
        }
    }

    #[test]
    fn abort_after_receipt_convicts_the_racing_server() {
        // The fair-offline race: the server absorbs the client's step-3
        // receipt, then wins an abort race at the TTP. Its own log now
        // pairs the peer receipt with the TTP's abort token. An abort from
        // someone else grounds a finding that names that issuer, never
        // the agreed TTP.
        let t = trio();
        for issuer in [&t.ttp, &t.other] {
            let run = t.client.new_run_id();
            let digest = sha256(b"response");
            let receipt = t
                .client
                .issue_token(TokenKind::NrrResp, run, digest)
                .unwrap();
            t.client.store_token(&receipt).unwrap();
            t.server
                .verify_and_store(&receipt, TokenKind::NrrResp, run, Some(&digest))
                .unwrap();
            let abort = issuer
                .issue_token(TokenKind::Abort, run, Digest::ZERO)
                .unwrap();
            t.server
                .verify_and_store(&abort, TokenKind::Abort, run, None)
                .unwrap();

            let verdict = t.judge(run, &[&t.client, &t.server]);
            // The server is convicted by its own submission; the client,
            // holding only its self-issued receipt, is not. Both
            // submissions are internally honest — this is a conduct
            // conviction, not a tampering flag.
            assert_eq!(
                verdict.findings,
                BTreeSet::from([Finding::AbortedAfterReceipt {
                    party: OrgId::new("server"),
                    ttp: issuer.org().clone(),
                }])
            );
        }
    }

    #[test]
    fn stalled_parties_names_the_silent_client_of_a_timeout_abort() {
        // A client goes silent after the receipt window opens; the
        // server's supervisor aborts at the TTP. The adjudicator sees
        // the client's NRO_req (it provably started the run), the TTP's
        // abort, and no NRR_resp under the client's signature.
        let t = trio();
        for issuer in [&t.ttp, &t.other] {
            let run = t.client.new_run_id();
            let nro = t
                .client
                .issue_token(TokenKind::NroReq, run, sha256(b"req"))
                .unwrap();
            t.server
                .verify_and_store(&nro, TokenKind::NroReq, run, None)
                .unwrap();
            let abort = issuer
                .issue_token(TokenKind::Abort, run, Digest::ZERO)
                .unwrap();
            t.server
                .verify_and_store(&abort, TokenKind::Abort, run, None)
                .unwrap();
            let verdict = t.judge(run, &[&t.server]);
            // An abort from a non-agreed issuer names that issuer.
            assert_eq!(
                verdict.findings,
                BTreeSet::from([Finding::Stalled {
                    party: OrgId::new("client"),
                    ttp: issuer.org().clone(),
                }])
            );
            let line = format!(
                "\n  found: client stalled the run {} aborted\n",
                issuer.org()
            );
            assert!(verdict.to_string().contains(&line), "{verdict}");
        }
    }

    #[test]
    fn stalled_parties_spares_a_client_whose_receipt_exists() {
        // The abort race: the receipt DID arrive somewhere before the
        // abort won. The server is convicted for aborting after the
        // receipt; the client is not the stalled party.
        let t = trio();
        let run = t.client.new_run_id();
        let nro = t
            .client
            .issue_token(TokenKind::NroReq, run, sha256(b"req"))
            .unwrap();
        t.server
            .verify_and_store(&nro, TokenKind::NroReq, run, None)
            .unwrap();
        let receipt = t
            .client
            .issue_token(TokenKind::NrrResp, run, sha256(b"response"))
            .unwrap();
        t.server
            .verify_and_store(&receipt, TokenKind::NrrResp, run, None)
            .unwrap();
        let abort = t
            .ttp
            .issue_token(TokenKind::Abort, run, Digest::ZERO)
            .unwrap();
        t.server
            .verify_and_store(&abort, TokenKind::Abort, run, None)
            .unwrap();
        assert_eq!(
            t.judge(run, &[&t.server]).findings,
            BTreeSet::from([Finding::AbortedAfterReceipt {
                party: OrgId::new("server"),
                ttp: OrgId::new("ttp"),
            }])
        );
        // ... and without any abort at all, nobody is stalled either.
        t.client.store_token(&nro).unwrap();
        assert!(t.judge(run, &[&t.client]).findings.is_empty());
    }

    #[test]
    fn fetched_receipt_without_abort_convicts_nobody() {
        // The legitimate mirror image: after a client resolve, the server
        // fetches the deposited receipt. Peer receipt, no abort — clean.
        let t = trio();
        let run = t.client.new_run_id();
        let receipt = t
            .client
            .issue_token(TokenKind::NrrResp, run, sha256(b"response"))
            .unwrap();
        t.server
            .verify_and_store(&receipt, TokenKind::NrrResp, run, None)
            .unwrap();
        assert!(t.judge(run, &[&t.server]).findings.is_empty());
    }

    #[test]
    fn absent_defector_is_attributed_via_counterparty_logs() {
        // A real defector does not submit its log. It is still named: the
        // tokens it issued into the client's log make it a known
        // organisation, and the decision digest matches it. A decision
        // from an untrusted issuer names that issuer, never the agreed
        // TTP.
        let t = trio();
        for issuer in [&t.ttp, &t.other] {
            let run = t.client.new_run_id();
            let nrr_req = t
                .server
                .issue_token(TokenKind::NrrReq, run, sha256(b"request"))
                .unwrap();
            t.client
                .verify_and_store(&nrr_req, TokenKind::NrrReq, run, None)
                .unwrap();
            let decision = issuer
                .issue_token(
                    TokenKind::Decision,
                    run,
                    defection_digest(&OrgId::new("server"), run),
                )
                .unwrap();
            t.client
                .verify_and_store(&decision, TokenKind::Decision, run, None)
                .unwrap();
            // Only the client submits — the defector stays silent.
            assert_eq!(
                t.judge(run, &[&t.client]).findings,
                BTreeSet::from([Finding::Defected {
                    party: OrgId::new("server"),
                    ttp: issuer.org().clone(),
                }])
            );
        }
    }

    #[test]
    fn verdicts_do_not_depend_on_submission_order() {
        // Three submitters hold overlapping evidence of a stalled run.
        // Every order of their submissions draws the same facts (holders
        // included) and the same findings.
        let t = trio();
        let run = t.client.new_run_id();
        let nro = t
            .client
            .issue_token(TokenKind::NroReq, run, sha256(b"req"))
            .unwrap();
        t.client.store_token(&nro).unwrap();
        let abort = t
            .ttp
            .issue_token(TokenKind::Abort, run, Digest::ZERO)
            .unwrap();
        t.ttp.store_token(&abort).unwrap();
        for party in [&t.server, &t.ttp] {
            party
                .verify_and_store(&nro, TokenKind::NroReq, run, None)
                .unwrap();
        }
        for party in [&t.client, &t.server] {
            party
                .verify_and_store(&abort, TokenKind::Abort, run, None)
                .unwrap();
        }
        let parties = [&t.client, &t.server, &t.ttp];
        let first = t.judge(run, &parties);
        assert_eq!(first.facts.len(), 2);
        assert!(first.facts.iter().all(|f| f.held_by.len() == 3));
        assert_eq!(first.findings.len(), 1);
        for order in [[0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]] {
            let verdict = t.judge(run, &order.map(|i| parties[i]));
            assert_eq!(verdict.facts, first.facts, "{order:?}");
            assert_eq!(verdict.findings, first.findings, "{order:?}");
        }
    }

    #[test]
    fn unknown_issuer_tokens_are_unverified() {
        let clock = LogicalClock::new();
        // The stranger's key lives in a directory the adjudicator never sees.
        let private_dir = Arc::new(StaticKeyDirectory::new());
        let stranger = Party::quick("stranger", 9, &clock, &private_dir);
        let run = stranger.new_run_id();
        let token = stranger
            .issue_token(TokenKind::NroReq, run, sha256(b"x"))
            .unwrap();
        stranger.store_token(&token).unwrap();
        let adjudicator =
            Adjudicator::new(Arc::new(StaticKeyDirectory::new()) as Arc<dyn KeyDirectory>);
        let verdict =
            adjudicator.adjudicate_windows(run, &[full("stranger", stranger.log().records())]);
        assert!(verdict.facts.is_empty());
        assert_eq!(verdict.suspect_submitters(), vec![OrgId::new("stranger")]);
    }
}
