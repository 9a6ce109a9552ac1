//! The read side: reopen the logs a dropped world left on disk, audit
//! them, and dispute single runs the way two parties and an adjudicator
//! would. Every workload ends here — it is how a run's outputs are
//! checked — and `dispute_audit` measures it.

use std::collections::HashMap;
use std::ops::Range;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use nonrep_core::{Adjudicator, WindowSubmission};
use nonrep_crypto::digest::Digest;
use nonrep_protocols::party::KeyDirectory;
use nonrep_protocols::TokenKind;
use nonrep_store::record::EpochCommitment;
use nonrep_store::{EvidenceLog, EvidenceRecord, FileLog, RecordDraft, StoreError, SyncPolicy};
use nonrep_types::ids::RunId;

use crate::stack::{Config, Role, WorldRemains};
use crate::trace;
use crate::workload::OpKind;

/// Records of each log an audit covers: about a second of verifying per
/// run, whatever a verification costs. `dispute_audit` sizes its logs
/// below the cap, so there the audit is of the whole log; the load
/// workloads write far longer logs and audit this prefix.
pub fn audit_cap(config: Config) -> u64 {
    match config {
        // ≈ 70 µs per record.
        Config::HssDurable => 12_000,
        // ≈ 1.5 µs per record: a 12 000-record audit would last 20 ms,
        // too short to time steadily.
        Config::ArbDurable | Config::ArbWritethrough => 60_000,
    }
}

/// One sealed epoch of a log: records `lo..=hi`, committed at `commit`.
#[derive(Clone, Copy, Debug)]
struct Epoch {
    lo: u64,
    hi: u64,
    commit: u64,
}

/// One organisation's log, reopened from disk.
pub struct PartyLog {
    pub role: Role,
    pub log: FileLog,
    epochs: Vec<Epoch>,
}

/// Reopens `path` the way a restarted organisation would.
///
/// # Errors
///
/// If recovery refuses the file.
fn recover(path: &Path) -> Result<FileLog, String> {
    FileLog::open_recover_with(path, SyncPolicy::WriteThrough)
        .map_err(|e| format!("recover {}: {e}", path.display()))
}

impl PartyLog {
    /// Indexes the epoch commitments of a reopened log, so a window can
    /// be cut on epoch boundaries without scanning.
    pub fn new(role: Role, log: FileLog) -> Self {
        let mut epochs = Vec::new();
        log.for_each(&mut |r| {
            if r.is_epoch_commit() {
                if let Some(c) = EpochCommitment::from_record(r) {
                    epochs.push(Epoch {
                        lo: c.lo,
                        hi: c.hi,
                        commit: r.seq,
                    });
                }
            }
        });
        Self { role, log, epochs }
    }

    /// The sealed epoch that covers `seq`, if any.
    fn epoch_of(&self, seq: u64) -> Option<Epoch> {
        let i = self.epochs.partition_point(|e| e.hi < seq);
        self.epochs.get(i).copied().filter(|e| e.lo <= seq)
    }

    /// The epoch-aligned range around `run`'s records: from the first
    /// record of the epoch that holds the run's first record to the
    /// commitment of the epoch that holds its last. On a log without
    /// epochs (per-record commitment) it is the run's own span. Also
    /// returns how many records of the run the log holds.
    fn window_range(&self, run: &RunId) -> Option<(Range<u64>, u64)> {
        let records = self.log.by_run(run);
        let first = records.iter().map(|r| r.seq).min()?;
        let last = records.iter().map(|r| r.seq).max()?;
        let start = self.epoch_of(first).map_or(first, |e| e.lo);
        let end = self.epoch_of(last).map_or(last, |e| e.commit);
        Some((start..end + 1, records.len() as u64))
    }
}

/// The tokens a clean verdict over a completed run must establish:
/// who cannot deny what.
pub fn expected_tokens(kind: OpKind) -> &'static [(Role, TokenKind)] {
    match kind {
        OpKind::Direct => &[
            (Role::Client, TokenKind::NroReq),
            (Role::Server, TokenKind::NrrReq),
            (Role::Server, TokenKind::NroResp),
            (Role::Client, TokenKind::NrrResp),
        ],
        OpKind::Voluntary => &[(Role::Client, TokenKind::NroReq)],
        OpKind::InlineTtp => &[
            (Role::Client, TokenKind::NroReq),
            (Role::InlineTtp, TokenKind::TtpReceipt),
        ],
        OpKind::FairOffline => &[
            (Role::Client, TokenKind::NroReq),
            (Role::Server, TokenKind::NrrReq),
            (Role::Server, TokenKind::NroResp),
            (Role::OfflineTtp, TokenKind::Escrow),
            (Role::Client, TokenKind::NrrResp),
        ],
        OpKind::Sharing => &[
            (Role::Client, TokenKind::Proposal),
            (Role::Server, TokenKind::Vote),
            (Role::Member, TokenKind::Vote),
            (Role::Client, TokenKind::Decision),
        ],
    }
}

/// What one dispute cost.
#[derive(Clone, Copy, Debug)]
pub struct DisputeCost {
    /// Records in the submitted windows.
    pub window_records: u64,
    /// Records of the disputed run across the submitting logs.
    pub run_records: u64,
    pub ns: u64,
}

/// The reopened logs of one world plus the adjudicator that trusts the
/// world's key directory.
pub struct Court {
    adjudicator: Adjudicator,
    pub logs: Vec<PartyLog>,
    /// `NRO_req` subject → run, from the client's log.
    requests: HashMap<Digest, RunId>,
}

impl Court {
    /// Reopens every log of `remains` and indexes it. Returns the court
    /// and the time recovery alone took, in ns.
    ///
    /// # Errors
    ///
    /// If a log does not recover.
    pub fn open(remains: &WorldRemains) -> Result<(Court, u64), String> {
        let mut logs = Vec::with_capacity(remains.logs.len());
        let mut recover_ns = 0;
        for (role, path) in &remains.logs {
            let _span = trace::span("store.recover");
            let t0 = Instant::now();
            let log = recover(path)?;
            recover_ns += t0.elapsed().as_nanos() as u64;
            logs.push(PartyLog::new(*role, log));
        }
        let mut requests = HashMap::new();
        if let Some(client) = logs.iter().find(|l| l.role == Role::Client) {
            let me = Role::Client.org();
            let label = TokenKind::NroReq.label();
            client.log.for_each(&mut |r| {
                if r.draft.kind == label && r.draft.actor == me {
                    requests.insert(r.draft.content_digest, r.draft.run_id);
                }
            });
        }
        let directory: Arc<dyn KeyDirectory> = remains.dir.clone();
        Ok((
            Court {
                adjudicator: Adjudicator::new(directory),
                logs,
                requests,
            },
            recover_ns,
        ))
    }

    pub fn records(&self) -> u64 {
        self.logs.iter().map(|l| l.log.len()).sum()
    }

    /// The run whose request carried `digest`, if the client's durable
    /// log knows it.
    pub fn run_of_request(&self, digest: &Digest) -> Option<RunId> {
        self.requests.get(digest).copied()
    }

    /// Audits the first `cap` records of log `i` with
    /// `Adjudicator::verify_log_in_place`. Returns the records audited.
    ///
    /// # Errors
    ///
    /// If the report is not clean.
    pub fn audit(&self, i: usize, cap: u64) -> Result<u64, String> {
        let party = &self.logs[i];
        let _span = trace::span("core.audit");
        let view = Prefix {
            log: &party.log,
            len: party.log.len().min(cap),
        };
        let report = self
            .adjudicator
            .verify_log_in_place(party.role.org(), &view);
        if !report.clean() {
            return Err(format!(
                "audit of {}'s log is not clean: chain {:?}, {} undecodable, {}/{} epochs, {}/{} tokens",
                party.role.org_name(),
                report.chain,
                report.undecodable,
                report.epoch_verified,
                report.epoch_commits,
                report.tokens.iter().filter(|(_, ok)| *ok).count(),
                report.tokens.len(),
            ));
        }
        Ok(view.len)
    }

    /// Disputes `run`: every organisation that holds records of it cuts
    /// an epoch-aligned window, and the adjudicator must return a clean
    /// verdict that establishes every token expected of a `kind` run.
    ///
    /// # Errors
    ///
    /// What the verdict lacked.
    pub fn dispute(&self, run: RunId, kind: OpKind) -> Result<DisputeCost, String> {
        let _span = trace::span("core.dispute");
        let t0 = Instant::now();
        let mut run_records = 0;
        let submissions: Vec<WindowSubmission> = {
            let _span = trace::span("store.window");
            self.logs
                .iter()
                .filter_map(|party| {
                    let (range, held) = party.window_range(&run)?;
                    run_records += held;
                    Some(WindowSubmission::from_log(
                        party.role.org(),
                        &party.log,
                        range,
                    ))
                })
                .collect()
        };
        let verdict = {
            let _span = trace::span("core.adjudicate");
            self.adjudicator.adjudicate_windows(run, &submissions)
        };
        let ns = t0.elapsed().as_nanos() as u64;
        if submissions.len() < 2 {
            return Err(format!("run {run}: only {} submissions", submissions.len()));
        }
        if let Some(dirty) = verdict.reports.iter().find(|r| !r.clean()) {
            return Err(format!(
                "run {run}: {}'s window is not clean",
                dirty.submitter
            ));
        }
        for (role, token) in expected_tokens(kind) {
            if !verdict.cannot_deny(&role.org(), *token) {
                let facts: Vec<String> = verdict
                    .facts
                    .iter()
                    .map(|f| format!("{}:{}", f.issuer, f.kind))
                    .collect();
                return Err(format!(
                    "run {run} ({}): {} can deny {token}; established: {}",
                    kind.name(),
                    role.org_name(),
                    facts.join(" ")
                ));
            }
        }
        Ok(DisputeCost {
            window_records: submissions.iter().map(|s| s.records.len() as u64).sum(),
            run_records,
            ns,
        })
    }
}

/// A read-only view of the first `len` records of a log.
struct Prefix<'a> {
    log: &'a FileLog,
    len: u64,
}

impl EvidenceLog for Prefix<'_> {
    fn append(&self, _draft: RecordDraft) -> Result<Arc<EvidenceRecord>, StoreError> {
        Err(StoreError::Unavailable("read-only prefix view".into()))
    }
    fn for_each(&self, f: &mut dyn FnMut(&EvidenceRecord)) {
        for record in self.snapshot_range(0..self.len) {
            f(&record);
        }
    }
    fn snapshot_range(&self, range: Range<u64>) -> Vec<Arc<EvidenceRecord>> {
        self.log
            .snapshot_range(range.start..range.end.min(self.len))
    }
    fn head(&self) -> Digest {
        self.snapshot_range(self.len.saturating_sub(1)..self.len)
            .last()
            .map_or(Digest::ZERO, |r| r.record_hash())
    }
    fn len(&self) -> u64 {
        self.len
    }
}
