//! The batched evidence-commitment pipeline.
//!
//! What dominates the evidence hot path is **signing** — every token and
//! every sealed log range costs one MSS signature.
//! [`CommitmentScheduler`] is the single chokepoint all evidence
//! generation routes through ([`crate::party::Party`] delegates both
//! token issuance and log appends here), and it amortizes that cost two
//! ways when batching is enabled:
//!
//! 1. **Token batches** — [`CommitmentScheduler::sign_frame`] signs a
//!    protocol frame and the tokens its sender issues at that step with
//!    a *single* MSS signature over a Merkle batch root
//!    ([`nonrep_crypto::sig::KeyPair::sign_batch`]). Each token carries
//!    the shared signature plus its own authentication path and verifies
//!    through the ordinary [`nonrep_crypto::sig::VerifyingKey::verify`]
//!    path, so peers and adjudicators need no new machinery. A token
//!    sent without a frame of its own ([`CommitmentScheduler::issue`]) is
//!    signed directly.
//! 2. **Epoch commitments** — appended records accumulate until a seal,
//!    then one signature seals the whole range `[lo, hi]` as an
//!    [`EpochCommitment`] record. A sealed range can later be submitted
//!    for adjudication as a `snapshot_range` *window* (plus the chain
//!    head and the epoch's batch proof) instead of a clone of the full
//!    log.
//!
//! Per-record signing ([`CommitmentMode::PerRecord`]) remains the
//! compatibility mode and the default: every token and every frame gets
//! its own signature and no epoch records are written.
//!
//! In either mode the scheduler stores each hierarchical signer's
//! subtree certificate once per log: [`CommitmentScheduler::record_tokens`]
//! appends a certificate's record ahead of the first token record that
//! references it, in the same batch as the step's other records.
//!
//! # Seal policy
//!
//! A batched scheduler has one setting, its deadline
//! ([`CommitmentMode::auto`]), and seals the pending range on the first
//! of:
//!
//! - **size** — the unsealed records reach the *effective batch size*.
//!   It starts at `DEFAULT_AUTO_BATCH` and a load-driven tuner moves
//!   it within `MIN_AUTO_BATCH`..=`MAX_AUTO_BATCH`: it doubles when a
//!   batch fills in under half the deadline (high load → more
//!   amortization per signature and per fsync) and halves when the
//!   deadline fires on a less-than-half-full batch (low load → smaller
//!   loss window);
//! - **deadline** — the oldest unsealed record has waited the deadline,
//!   checked on every append and by [`CommitmentScheduler::poll`] (see
//!   [`DeadlineSealer`] for the background wakeup). The deadline bounds
//!   the unsealed tail in *time*, which is what bounds the crash-loss
//!   window of a `SyncPolicy::GroupCommit` file log (see
//!   `nonrep_store::SyncPolicy`);
//! - **overflow** — the next append would overflow a buffering
//!   backend's byte cap;
//! - **explicit** — [`CommitmentScheduler::seal`] (and
//!   [`CommitmentScheduler::seal_durable`]), for callers that need an
//!   epoch boundary at a point of their choosing.
//!
//! # Durability interaction
//!
//! The epoch is also the store's durability unit: a
//! `nonrep_store::FileLog` opened with `SyncPolicy::GroupCommit` buffers
//! appends and hands one grouped write + fsync to its sync thread
//! exactly when the sealed epoch-commitment record is appended. The
//! scheduler needs no extra hook for that — sealing *is* the flush
//! point — but [`CommitmentScheduler::seal`] additionally flushes the
//! log in per-record mode so `flush_evidence`-style calls reach the
//! device regardless of commitment mode.
//!
//! The seal is an **async handoff**: it returns once the frame is
//! queued, so append latency is decoupled from disk latency and bursts
//! of epochs coalesce into one device barrier. A barrier that later
//! fails is consumed by the **next** seal (the store surfaces the async
//! completion error from the epoch append), which then enters the
//! degraded/cooldown path — probe with a signature-free `flush()`,
//! exponential cooldown, at most one MSS leaf burned per outage
//! discovery. Callers that must *know* the evidence hit the platter use
//! [`CommitmentScheduler::seal_durable`], which seals and then waits out
//! the seal's own device barrier.

use std::collections::HashSet;
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use nonrep_crypto::digest::Digest;
use nonrep_crypto::hss::{CertRef, SubtreeCert};
use nonrep_crypto::sig::KeyPair;
use nonrep_store::record::{cert_draft, cert_from_record, EpochCommitment};
use nonrep_store::{EvidenceLog, EvidenceRecord, Fold, RecordDraft, StoreError};
use nonrep_types::ids::{OrgId, RunId};
use nonrep_types::time::{Clock, Timestamp};

use crate::message::ProtocolMessage;
use crate::session::journal::{OpenRun, OpenRuns};
use crate::tokens::{NrToken, TokenKind};
use crate::ProtocolError;

/// Initial effective batch size of a batched scheduler.
const DEFAULT_AUTO_BATCH: usize = 16;
/// Smallest effective batch size the tuner shrinks to.
const MIN_AUTO_BATCH: usize = 4;
/// Largest effective batch size the tuner grows to.
const MAX_AUTO_BATCH: usize = 4096;

/// How evidence is signed and committed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommitmentMode {
    /// Compatibility mode: one signature per token, no epoch records.
    PerRecord,
    /// One signature per signed step and one per sealed epoch, sealed by
    /// the policy in the [module docs](self).
    Batched {
        /// Maximum time, in milliseconds on the scheduler's clock, the
        /// *oldest* unsealed record may wait before a seal is forced.
        max_delay_ms: u64,
    },
}

impl CommitmentMode {
    /// Batched mode sealing within `max_delay_ms` (at least 1).
    pub fn auto(max_delay_ms: u64) -> Self {
        CommitmentMode::Batched {
            max_delay_ms: max_delay_ms.max(1),
        }
    }
}

/// One record of a protocol step: its draft and, for a token record whose
/// signature references a subtree certificate, that certificate.
pub type StepRecord = (RecordDraft, Option<Arc<SubtreeCert>>);

/// What a token should attest — the unsigned part of an [`NrToken`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TokenSpec {
    /// Token kind.
    pub kind: TokenKind,
    /// The protocol run.
    pub run_id: RunId,
    /// Digest of the subject matter.
    pub subject: Digest,
}

impl TokenSpec {
    /// Creates a spec.
    pub fn new(kind: TokenKind, run_id: RunId, subject: Digest) -> Self {
        Self {
            kind,
            run_id,
            subject,
        }
    }
}

/// What caused a seal — drives the auto-tuner (only size/deadline seals
/// are load signals; overflow and explicit seals say nothing about load).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SealTrigger {
    Size,
    Deadline,
    /// Automatic seal because the next append would overflow the
    /// backend's byte cap. Cooldown-gated, and deliberately *not* a
    /// tuner signal: it says the records are large, not that the load
    /// is high — feeding it to the tuner as a size seal would ratchet
    /// the effective batch toward its max on every cap seal.
    Overflow,
    /// User/operator-driven ([`CommitmentScheduler::seal`]): bypasses
    /// the failure cooldown.
    Explicit,
}

/// EWMA forecast of signing-key exhaustion, fed one observation per
/// sealed epoch.
///
/// Every seal burns finite forward-secure leaves — one for the epoch
/// signature plus however many the same key spent on tokens since the
/// previous seal. The forecaster smooths that *leaves-per-epoch* rate
/// with an exponentially weighted moving average and divides the key's
/// remaining capacity by it, answering "how many more seals until the
/// signer starves?". The auto-tuner uses the answer to slow seal cadence
/// (bigger batches → fewer signatures per record) *before* exhaustion
/// forces degraded mode; for hierarchical keys the capacity already
/// counts future subtrees, so a healthy rollover never looks like
/// starvation.
///
/// The EWMA (α = 0.25) deliberately under-reacts to one-epoch bursts —
/// a single spike moves the rate by a quarter of its excess — while a
/// sustained ramp converges within a handful of epochs.
#[derive(Debug, Clone, Default)]
struct ExhaustionForecaster {
    /// `None` until the first full inter-seal interval has been
    /// observed — an explicit warm-up state, so a genuinely idle epoch
    /// (rate 0.0) is a real sample and later bursts stay EWMA-dampened.
    rate: Option<f64>,
    last_remaining: Option<u32>,
}

impl ExhaustionForecaster {
    /// EWMA smoothing factor: weight of the newest leaves-per-epoch
    /// sample.
    const ALPHA: f64 = 0.25;

    /// Feeds the key's remaining-signature count as observed at an epoch
    /// seal. The first call only anchors the baseline; every later call
    /// folds `previous - current` into the smoothed rate. `None`
    /// (a scheme without exhaustion) is ignored.
    fn observe_remaining(&mut self, remaining: Option<u32>) {
        let Some(now) = remaining else { return };
        if let Some(prev) = self.last_remaining {
            let spent = f64::from(prev.saturating_sub(now));
            self.rate = Some(match self.rate {
                // First measured interval: adopt at full weight.
                None => spent,
                Some(rate) => Self::ALPHA * spent + (1.0 - Self::ALPHA) * rate,
            });
        }
        self.last_remaining = Some(now);
    }

    /// The smoothed leaves-per-epoch spend rate (0.0 until warm).
    #[cfg(test)]
    fn rate(&self) -> f64 {
        self.rate.unwrap_or(0.0)
    }

    /// Predicted epochs until the key can no longer sign, or `None`
    /// while the forecaster is cold, the measured rate is zero, or the
    /// key cannot exhaust.
    fn forecast_epochs(&self, remaining: Option<u32>) -> Option<f64> {
        let remaining = remaining?;
        let rate = self.rate?;
        if rate <= 0.0 {
            return None;
        }
        Some(f64::from(remaining) / rate)
    }
}

/// When the forecast drops below this many epochs-to-exhaustion, the
/// tuner doubles the effective batch per seal (seal cadence slows, so
/// each remaining leaf covers more records).
const EXHAUSTION_LOW_WATER_EPOCHS: f64 = 16.0;

/// The scheduler's fold over its log: where the next epoch starts, and
/// which subtree certificates the log already holds.
#[derive(Debug, Default, PartialEq, Eq)]
struct SealFold {
    /// First log sequence number not yet covered by an epoch commitment.
    sealed_next: u64,
    /// The subtree certificates the log holds a record of, whichever
    /// signer's: stored token signatures reference these.
    certs_stored: HashSet<CertRef>,
}

impl Fold for SealFold {
    fn absorb(&mut self, record: &EvidenceRecord) {
        if record.is_epoch_commit() {
            // Epochs cover ordinary records only: the next starts after it.
            self.sealed_next = record.seq + 1;
        } else if let Some(cert) = cert_from_record(record) {
            self.certs_stored.insert(cert.reference());
        }
    }
}

#[derive(Debug)]
struct SchedulerState {
    /// Seal watermark and stored certificates (a fold of the log).
    seal: SealFold,
    /// The run journal's open runs (a fold of the log).
    runs: OpenRuns,
    /// Leaves-per-epoch EWMA driving pre-exhaustion cadence slowdown.
    forecast: ExhaustionForecaster,
    /// When the oldest currently-unsealed record was appended (`None`
    /// when nothing is pending). The time trigger compares against this.
    pending_since: Option<Timestamp>,
    /// Current effective batch size (`DEFAULT_AUTO_BATCH` until the
    /// tuner moves it; 1 in per-record mode).
    effective_batch: usize,
    /// When the last seal attempt failed, and how many attempts have
    /// failed in a row. `Some` doubles as the degraded flag: the next
    /// attempt then *probes* the log with a cheap `flush()` before
    /// signing, so a broken disk does not burn one finite forward-secure
    /// signature (MSS leaf) per retry — at most one leaf is spent per
    /// outage, not one per poll. Automatic (size/deadline) retries are gated by
    /// an exponential cooldown derived from these, so an outage neither
    /// hammers the failing disk from the append path nor — when the
    /// failure is one the flush probe cannot see, e.g. ENOSPC under
    /// write-through, where fsync of already-clean pages succeeds —
    /// burns a signature per retry. Explicit seals bypass the cooldown.
    last_seal_failure: Option<Timestamp>,
    seal_failure_streak: u32,
}

/// Base cooldown after a failed seal before the next *automatic* retry
/// (doubles per consecutive failure, capped at `<< MAX_SHIFT` ≈ 8.5 min).
const SEAL_RETRY_COOLDOWN_MS: u64 = 1_000;
const SEAL_RETRY_MAX_SHIFT: u32 = 9;

impl SchedulerState {
    /// Feeds one record to both folds: the reopen pass and the two
    /// append sites call this, so replay and the live path agree.
    fn absorb(&mut self, record: &EvidenceRecord) {
        self.seal.absorb(record);
        self.runs.absorb(record);
    }
}

/// Routes all of a party's evidence generation, amortizing signatures in
/// batched mode. See the [module docs](self).
pub struct CommitmentScheduler {
    keys: Arc<KeyPair>,
    log: Arc<dyn EvidenceLog>,
    actor: OrgId,
    clock: Arc<dyn Clock>,
    /// Fixed at construction: how an organisation commits its evidence
    /// is decided once, when it is built.
    mode: CommitmentMode,
    state: Mutex<SchedulerState>,
}

impl fmt::Debug for CommitmentScheduler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CommitmentScheduler({}, {:?})", self.actor, self.mode)
    }
}

impl CommitmentScheduler {
    /// Creates a scheduler over a party's keys, log and clock.
    ///
    /// One pass over the log seeds the folds. The sealing watermark
    /// resumes from the log's last epoch-commitment record (everything
    /// after it is pending), so reopening a recovered log re-seals exactly
    /// the records whose commitment was lost — and a log with no
    /// commitments yet is sealed from the start on the first flush in
    /// batched mode.
    pub fn new(
        keys: Arc<KeyPair>,
        log: Arc<dyn EvidenceLog>,
        actor: OrgId,
        clock: Arc<dyn Clock>,
        mode: CommitmentMode,
    ) -> Self {
        let mut state = SchedulerState {
            seal: SealFold::default(),
            runs: OpenRuns::default(),
            forecast: ExhaustionForecaster::default(),
            pending_since: None,
            effective_batch: match mode {
                CommitmentMode::Batched { .. } => DEFAULT_AUTO_BATCH,
                CommitmentMode::PerRecord => 1,
            },
            last_seal_failure: None,
            seal_failure_streak: 0,
        };
        log.for_each(&mut |r| state.absorb(r));
        // Records orphaned by a crash (appended after the last surviving
        // commitment) restart their deadline countdown now: their
        // original append times are in the log, but what the deadline
        // bounds is how long they sit unsealed *from here on*.
        state.pending_since = (log.len() > state.seal.sealed_next).then(|| clock.now());
        Self {
            keys,
            log,
            actor,
            clock,
            mode,
            state: Mutex::new(state),
        }
    }

    /// The commitment mode this scheduler was built with.
    pub fn mode(&self) -> CommitmentMode {
        self.mode
    }

    /// The evidence log this scheduler appends to.
    pub fn log(&self) -> &Arc<dyn EvidenceLog> {
        &self.log
    }

    /// `true` while the scheduler is in the degraded-seal state: the
    /// last seal attempt failed to persist its commitment and retries
    /// are probing the log before signing. Evidence keeps accumulating
    /// unsealed (and, on buffered backends, un-fsynced) until a retry
    /// succeeds — deployments that must bound data loss should monitor
    /// this together with [`CommitmentScheduler::unsealed_len`].
    pub fn is_degraded(&self) -> bool {
        self.state.lock().last_seal_failure.is_some()
    }

    /// The batch size currently in force: `DEFAULT_AUTO_BATCH` as moved
    /// by the tuner (1 in per-record mode, where every record is its own
    /// signature).
    pub fn effective_batch_size(&self) -> usize {
        self.state.lock().effective_batch
    }

    /// Number of appended records not yet covered by an epoch commitment.
    pub fn unsealed_len(&self) -> u64 {
        let sealed_next = self.state.lock().seal.sealed_next;
        self.log.len().saturating_sub(sealed_next)
    }

    /// The runs the log shows open, in run order.
    pub(crate) fn unclosed_runs(&self) -> Vec<OpenRun> {
        self.state.lock().runs.0.values().cloned().collect()
    }

    /// Issues one token for `spec` under a direct signature — for a
    /// token no frame of this party carries (a carried token shares its
    /// frame's signature, see [`CommitmentScheduler::sign_frame`]).
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Signing`] if the key is exhausted.
    pub fn issue(&self, spec: TokenSpec) -> Result<NrToken, ProtocolError> {
        NrToken::issue(
            spec.kind,
            spec.run_id,
            self.actor.clone(),
            spec.subject,
            self.clock.now(),
            &self.keys,
        )
        .map_err(ProtocolError::from)
    }

    /// Signs `frame` as this party together with the tokens `specs` asks
    /// it to issue at this step; the returned frame carries them.
    ///
    /// In batched mode one batch signature covers every token digest
    /// (leaves `0..n`) and the frame digest (leaf `n`), which
    /// `ProtocolMessage::frame_digest` computes over the tokens'
    /// digests, not their signatures. Per-record mode signs each token
    /// and then the frame directly, and so does batched mode for a frame
    /// with no tokens. The caller persists the tokens.
    ///
    /// # Errors
    ///
    /// [`ProtocolError::Signing`] if the key is exhausted.
    pub fn sign_frame(
        &self,
        mut frame: ProtocolMessage,
        specs: &[TokenSpec],
    ) -> Result<ProtocolMessage, ProtocolError> {
        let at = self.clock.now();
        let mut digests: Vec<Digest> = specs
            .iter()
            .map(|s| NrToken::signing_digest(s.kind, &s.run_id, &self.actor, &s.subject, at))
            .collect();
        digests.push(frame.digest_over(&digests));
        let batched = matches!(self.mode, CommitmentMode::Batched { .. });
        let mut signatures = if batched && !specs.is_empty() {
            self.keys.sign_batch(&digests)?
        } else {
            digests
                .iter()
                .map(|d| self.keys.sign_digest(d))
                .collect::<Result<_, _>>()?
        };
        frame.signature = signatures.pop();
        frame.tokens = specs
            .iter()
            .zip(signatures)
            .map(|(s, signature)| {
                NrToken::from_parts(
                    s.kind,
                    s.run_id,
                    self.actor.clone(),
                    s.subject,
                    at,
                    signature,
                )
            })
            .collect();
        Ok(frame)
    }

    /// Appends an evidence record, sealing an epoch automatically when
    /// the effective batch size is reached or the oldest unsealed record
    /// has waited out the deadline.
    ///
    /// A *failed* auto-seal does not fail the append: the caller's
    /// record is committed either way, the records stay pending, and
    /// sealing retries on the next trigger ([`CommitmentScheduler::poll`]
    /// included). Persistent seal failures surface through the explicit
    /// paths ([`CommitmentScheduler::seal`], flush-style calls), are
    /// observable via [`CommitmentScheduler::is_degraded`] /
    /// [`CommitmentScheduler::unsealed_len`], and are ultimately bounded
    /// by the store (a buffered `FileLog` caps its unflushed buffer and
    /// fails appends beyond it, which this method *does* propagate).
    ///
    /// # Errors
    ///
    /// [`StoreError`] if persisting the record itself fails.
    pub fn record(&self, draft: RecordDraft) -> Result<Arc<EvidenceRecord>, StoreError> {
        let mut records = self.record_locked(&mut self.state.lock(), vec![draft])?;
        Ok(records.remove(0))
    }

    /// Appends one protocol step's records as one batch — one write and
    /// one device barrier on a write-through log — under one lock, with
    /// one seal check after it. A token record whose signature
    /// references a certificate the log holds no record of yet gets that
    /// record in the batch, ahead of it, so no token record ever precedes
    /// its certificate's. An empty step appends nothing.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if persisting the batch fails; none of it is then
    /// appended.
    pub fn record_tokens(
        &self,
        step: impl IntoIterator<Item = StepRecord>,
    ) -> Result<(), StoreError> {
        let mut state = self.state.lock();
        let mut drafts = Vec::new();
        let mut certs = Vec::new();
        for (draft, cert) in step {
            if let Some(cert) = cert {
                let reference = cert.reference();
                if !state.seal.certs_stored.contains(&reference) && !certs.contains(&reference) {
                    certs.push(reference);
                    drafts.push(cert_draft(&cert, draft.actor.clone(), self.clock.now()));
                }
            }
            drafts.push(draft);
        }
        if drafts.is_empty() {
            return Ok(());
        }
        self.record_locked(&mut state, drafts).map(drop)
    }

    fn record_locked(
        &self,
        state: &mut SchedulerState,
        drafts: Vec<RecordDraft>,
    ) -> Result<Vec<Arc<EvidenceRecord>>, StoreError> {
        // On a bounded-buffer backend in batched mode, seal *before* an
        // append that would overflow the byte cap: the epoch record is
        // cap-exempt and its append flushes (drains) the whole buffer.
        // Without this, large records arriving faster than the deadline
        // would wedge appends until it fires. A generous size estimate
        // errs toward sealing slightly early — never toward a spurious
        // append failure. If sealing is itself failing (cooldown, spent
        // key) the seal error propagates: buffer-full with broken
        // sealing is real backpressure.
        if matches!(self.mode, CommitmentMode::Batched { .. }) {
            if let Some(headroom) = self.log.buffer_headroom() {
                let estimate: usize = drafts
                    .iter()
                    .map(|d| d.payload.len() + d.kind.len() + d.actor.as_str().len() + 4096)
                    .sum();
                if estimate as u64 > headroom {
                    self.seal_locked(state, SealTrigger::Overflow)?;
                }
            }
        }
        let records = self.log.append_all(drafts)?;
        records.iter().for_each(|r| state.absorb(r));
        if let CommitmentMode::Batched { max_delay_ms } = self.mode {
            let now = self.clock.now();
            let since = *state.pending_since.get_or_insert(now);
            let due = if self.log.len().saturating_sub(state.seal.sealed_next)
                >= state.effective_batch as u64
            {
                Some(SealTrigger::Size)
            } else if now.since(since) >= max_delay_ms {
                Some(SealTrigger::Deadline)
            } else {
                None
            };
            if let Some(trigger) = due {
                // Deferred, not fatal (see the doc comment above): the
                // seal keeps retrying, and the degraded probe keeps the retries
                // from burning a signature each.
                let _ = self.seal_locked(state, trigger);
            }
        }
        Ok(records)
    }

    /// Deadline check: seals the pending range if the oldest unsealed
    /// record has waited out the deadline. Returns the epoch record if a
    /// seal happened. No-op when nothing is pending or in per-record
    /// mode.
    ///
    /// Call this periodically so an *idle* log still seals on time —
    /// [`DeadlineSealer`] wraps exactly that loop in a background thread.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the seal cannot be persisted.
    pub fn poll(&self) -> Result<Option<Arc<EvidenceRecord>>, StoreError> {
        let CommitmentMode::Batched { max_delay_ms } = self.mode else {
            return Ok(None);
        };
        let mut state = self.state.lock();
        let Some(since) = state.pending_since else {
            return Ok(None);
        };
        if self.clock.now().since(since) < max_delay_ms {
            return Ok(None);
        }
        self.seal_locked(&mut state, SealTrigger::Deadline)
    }

    /// Explicitly seals the pending unsealed range, if any, returning the
    /// appended epoch record. In per-record mode (no epoch commitments)
    /// there is nothing to seal, but the log is still flushed so buffered
    /// backends drain.
    ///
    /// On a group-commit backend (`SyncPolicy::GroupCommit`) this
    /// returns once the epoch's frame is *queued* to the sync thread,
    /// not when it is on disk — use
    /// [`CommitmentScheduler::seal_durable`] when the caller needs the
    /// device barrier to have completed.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if signing the root or persisting the record fails.
    pub fn seal(&self) -> Result<Option<Arc<EvidenceRecord>>, StoreError> {
        if matches!(self.mode, CommitmentMode::PerRecord) {
            self.log.flush()?;
            return Ok(None);
        }
        self.seal_locked(&mut self.state.lock(), SealTrigger::Explicit)
    }

    /// [`CommitmentScheduler::seal`], then waits for the backend's
    /// durability barrier: when this returns `Ok`, the sealed evidence
    /// (and everything enqueued before it) is on stable storage even on
    /// an async group-commit backend. On synchronous backends the seal
    /// itself already was the barrier and no extra fsync is paid.
    ///
    /// # Errors
    ///
    /// [`StoreError`] if the seal or the barrier fails.
    pub fn seal_durable(&self) -> Result<Option<Arc<EvidenceRecord>>, StoreError> {
        let record = self.seal()?;
        if self.log.durability_class() == nonrep_store::DurabilityClass::GroupCommit {
            // The seal only queued the frame; with nothing appended
            // since, flush waits on that frame's own barrier.
            self.log.flush()?;
        }
        Ok(record)
    }

    /// Seals `[sealed_next, len)` under one signature. Caller holds the
    /// state lock, serializing seals against scheduler appends.
    ///
    /// On a `SyncPolicy::GroupCommit` file log, appending the commitment
    /// record is also the durability point: the store hands the whole
    /// buffered batch to its sync thread when the epoch record lands.
    fn seal_locked(
        &self,
        state: &mut SchedulerState,
        trigger: SealTrigger,
    ) -> Result<Option<Arc<EvidenceRecord>>, StoreError> {
        if self.log.len() <= state.seal.sealed_next {
            return Ok(None);
        }
        if trigger != SealTrigger::Explicit {
            if let Some(at) = state.last_seal_failure {
                // Exponential cooldown between automatic retries of a
                // failing seal: without it, every append past the due
                // trigger would re-probe (rewriting the whole pending
                // buffer against a failing disk) or re-sign (burning a
                // finite leaf when the failure is invisible to the
                // probe). Returns an error — not Ok — so pollers like
                // [`DeadlineSealer`] keep backing off too.
                let shift = state
                    .seal_failure_streak
                    .saturating_sub(1)
                    .min(SEAL_RETRY_MAX_SHIFT);
                if self.clock.now().since(at) < (SEAL_RETRY_COOLDOWN_MS << shift) {
                    return Err(StoreError::Unavailable(
                        "epoch seal cooling down after failure".into(),
                    ));
                }
            }
        }
        let result = self.try_seal_locked(state, trigger);
        match &result {
            Ok(_) => {
                state.last_seal_failure = None;
                state.seal_failure_streak = 0;
            }
            Err(_) => {
                state.last_seal_failure = Some(self.clock.now());
                state.seal_failure_streak = state.seal_failure_streak.saturating_add(1);
            }
        }
        result
    }

    /// The fallible body of [`CommitmentScheduler::seal_locked`] — every
    /// error return here counts toward the caller's failure streak.
    fn try_seal_locked(
        &self,
        state: &mut SchedulerState,
        trigger: SealTrigger,
    ) -> Result<Option<Arc<EvidenceRecord>>, StoreError> {
        if state.last_seal_failure.is_some() {
            // The previous attempt failed. Probe the backend with a
            // signature-free flush first: if the disk is still broken
            // this fails without consuming one of the finite
            // forward-secure signatures.
            self.log.flush()?;
        }
        if self.keys.remaining() == Some(0) {
            // Exhausted forward-secure key: a terminal condition, checked
            // before hashing the pending range so retries never pay a
            // re-hash of the ever-growing unsealed tail, and visible to
            // `is_degraded` monitors. The range cannot be *sealed*
            // without a signature, but it can still be made *durable*:
            // flush the buffered tail so exhaustion does not also void
            // the crash-loss bound of a `SyncPolicy::GroupCommit` log
            // (degrading durability cadence to the retry cooldown, not
            // to never).
            self.log.flush()?;
            return Err(StoreError::Unavailable(
                "epoch seal failed: signing key exhausted".into(),
            ));
        }
        let len = self.log.len();
        let lo = state.seal.sealed_next;
        let hi = len - 1;
        let covered = self.log.snapshot_range(lo..len);
        let hashes: Vec<Digest> = covered.iter().map(|r| r.record_hash()).collect();
        let root = EpochCommitment::root_over_hashes(&hashes);
        let signature = match self
            .keys
            .sign_digest(&EpochCommitment::signing_digest(lo, hi, &root))
        {
            Ok(signature) => signature,
            Err(e) => {
                // Signing failures (exhaustion racing the check above,
                // or any other scheme error) degrade like persist
                // failures: observable, and retried cheaply.
                return Err(StoreError::Unavailable(format!("epoch seal failed: {e}")));
            }
        };
        let commitment = EpochCommitment {
            lo,
            hi,
            root,
            signature,
        };
        // A buffered (`SyncPolicy::GroupCommit`) backend rolls the epoch
        // record back out of its chain when the handoff fails, so an
        // error here leaves no orphaned commitment behind — the range
        // stays pending and the next attempt re-seals it cleanly.
        let record = self
            .log
            .append(commitment.to_draft(self.actor.clone(), self.clock.now()))?;
        state.absorb(&record);
        state.forecast.observe_remaining(self.keys.remaining());
        self.tune_locked(state, trigger, hi - lo + 1);
        state.pending_since = None;
        Ok(Some(record))
    }

    /// Load-driven batch-size update, fed by the seal that just landed.
    fn tune_locked(&self, state: &mut SchedulerState, trigger: SealTrigger, sealed: u64) {
        let CommitmentMode::Batched { max_delay_ms } = self.mode else {
            return;
        };
        // Exhaustion pressure outranks load signals: when the EWMA
        // forecast says fewer than `EXHAUSTION_LOW_WATER_EPOCHS` seals
        // remain in the key, grow the batch regardless of trigger —
        // slowing seal cadence stretches the remaining leaves so a
        // hierarchical signer reaches its next subtree (and a flat one
        // reaches operator intervention) without a starvation-forced
        // degraded-mode entry. The deadline still bounds unsealed-tail
        // latency, so this trades seal frequency, not coverage.
        if let Some(epochs) = state.forecast.forecast_epochs(self.keys.remaining()) {
            if epochs < EXHAUSTION_LOW_WATER_EPOCHS {
                state.effective_batch = (state.effective_batch * 2).min(MAX_AUTO_BATCH);
                return;
            }
        }
        let elapsed = state
            .pending_since
            .map_or(0, |since| self.clock.now().since(since));
        match trigger {
            // The batch filled in under half the deadline: load is high,
            // a bigger batch amortizes more per signature and per fsync
            // while still sealing well within the deadline.
            SealTrigger::Size if elapsed * 2 < max_delay_ms => {
                state.effective_batch = (state.effective_batch * 2).min(MAX_AUTO_BATCH);
            }
            // The deadline fired on a less-than-half-full batch: load is
            // low, a smaller batch keeps epochs (and the crash-loss
            // window of a buffered log) proportionate to actual traffic.
            SealTrigger::Deadline if sealed * 2 < state.effective_batch as u64 => {
                state.effective_batch = (state.effective_batch / 2).max(MIN_AUTO_BATCH);
            }
            // Overflow and explicit seals say nothing about load.
            _ => {}
        }
    }
}

/// Background deadline wakeups for a [`CommitmentScheduler`].
///
/// Spawns a thread that calls [`CommitmentScheduler::poll`] every quarter
/// of the deadline (clamped to 5 ms..=1 s, wall-clock), so a log that
/// goes *idle* still seals within its deadline — without a wakeup, the
/// time trigger would only ever be checked on the next append. The
/// thread reads deadlines through the scheduler's own [`Clock`], so it
/// drives simulated (`LogicalClock`) and wall-clock deployments alike;
/// only the polling cadence is wall-time.
///
/// Seal errors inside the poll loop are not fatal: the records stay
/// pending and the next poll (or append, or explicit seal) retries them.
/// Consecutive failures back the polling off exponentially (up to 64×
/// the interval) so a persistently broken disk is not hammered with
/// fsync probes; the first success restores the cadence. The thread
/// stops and joins when the handle is dropped.
pub struct DeadlineSealer {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for DeadlineSealer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("DeadlineSealer")
    }
}

impl DeadlineSealer {
    /// Spawns the polling thread over `scheduler`, or returns `None` in
    /// per-record mode, which has no deadline to keep.
    pub fn spawn(scheduler: Arc<CommitmentScheduler>) -> Option<Self> {
        let CommitmentMode::Batched { max_delay_ms } = scheduler.mode() else {
            return None;
        };
        let poll_interval = Duration::from_millis((max_delay_ms / 4).clamp(5, 1000));
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("nonrep-sealer".into())
            .spawn(move || {
                let mut delay = poll_interval;
                while !thread_stop.load(Ordering::Relaxed) {
                    std::thread::park_timeout(delay);
                    if thread_stop.load(Ordering::Relaxed) {
                        break;
                    }
                    delay = if scheduler.poll().is_err() {
                        // Failure backoff; the degraded probe already keeps
                        // the retries signature-free, this keeps them rare.
                        (delay * 2).min(poll_interval * 64)
                    } else {
                        poll_interval
                    };
                }
            })
            .expect("spawn deadline sealer thread");
        Some(Self {
            stop,
            handle: Some(handle),
        })
    }
}

impl Drop for DeadlineSealer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonrep_crypto::digest::sha256;
    use nonrep_crypto::rng::SecureRandom;
    use nonrep_crypto::sig::SignatureScheme;
    use nonrep_store::{MemoryLog, EPOCH_KIND};
    use nonrep_types::time::{LogicalClock, Timestamp};

    fn scheduler(mode: CommitmentMode) -> (CommitmentScheduler, Arc<dyn EvidenceLog>) {
        let keys = Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 6 },
            &mut SecureRandom::from_seed(1),
        ));
        let log: Arc<dyn EvidenceLog> = Arc::new(MemoryLog::new());
        let clock = Arc::new(LogicalClock::new());
        let s = CommitmentScheduler::new(keys, log.clone(), OrgId::new("org"), clock, mode);
        (s, log)
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nonrep-sched-{name}-{}.log", std::process::id()));
        p
    }

    fn draft(n: u64) -> RecordDraft {
        RecordDraft {
            run_id: RunId::from_u128(u128::from(n) + 1),
            kind: "NRO_req".into(),
            actor: OrgId::new("org"),
            at: Timestamp(n),
            content_digest: sha256(&n.to_le_bytes()),
            payload: vec![n as u8; 16],
        }
    }

    #[test]
    fn per_record_mode_writes_no_epochs() {
        let (s, log) = scheduler(CommitmentMode::PerRecord);
        for i in 0..10 {
            s.record(draft(i)).unwrap();
        }
        assert_eq!(log.len(), 10);
        assert_eq!(log.count_where(&|r| r.is_epoch_commit()), 0);
        assert_eq!(s.unsealed_len(), 10, "per-record mode never seals");
    }

    #[test]
    fn batched_mode_seals_every_batch_size_records() {
        let (s, log) = scheduler(CommitmentMode::auto(100));
        for i in 0..=DEFAULT_AUTO_BATCH as u64 {
            s.record(draft(i)).unwrap();
        }
        // The 16th record seals the first epoch; the 17th waits.
        assert_eq!(log.count_where(&|r| r.is_epoch_commit()), 1);
        assert_eq!(s.unsealed_len(), 1);
        s.seal().unwrap().unwrap();
        log.verify().unwrap();
        // Every commitment verifies against its covered range.
        let keys_vk = {
            let keys = KeyPair::generate(
                SignatureScheme::Mss { height: 6 },
                &mut SecureRandom::from_seed(1),
            );
            keys.verifying_key()
        };
        let mut checked = 0;
        for rec in log.records() {
            if let Some(commit) = EpochCommitment::from_record(&rec) {
                let covered = log.snapshot_range(commit.lo..commit.hi + 1);
                assert!(
                    commit.verify(&keys_vk, &covered),
                    "epoch [{},{}]",
                    commit.lo,
                    commit.hi
                );
                checked += 1;
            }
        }
        assert_eq!(checked, 2);
    }

    #[test]
    fn explicit_seal_covers_the_tail() {
        let (s, log) = scheduler(CommitmentMode::auto(100));
        for i in 0..3 {
            s.record(draft(i)).unwrap();
        }
        assert_eq!(s.unsealed_len(), 3);
        let epoch = s.seal().unwrap().unwrap();
        assert_eq!(epoch.draft.kind, EPOCH_KIND);
        assert_eq!(s.unsealed_len(), 0);
        assert!(s.seal().unwrap().is_none(), "nothing pending");
        log.verify().unwrap();
    }

    #[test]
    fn issue_signs_one_token_directly_in_either_mode() {
        for mode in [CommitmentMode::PerRecord, CommitmentMode::auto(100)] {
            let (s, _) = scheduler(mode);
            let run = RunId::from_u128(7);
            let before = s.keys.remaining().unwrap();
            let token = s
                .issue(TokenSpec::new(TokenKind::NrrReq, run, sha256(b"req")))
                .unwrap();
            assert_eq!(s.keys.remaining().unwrap(), before - 1);
            assert!(token.signature.batch().is_none());
            let vk = s.keys.verifying_key();
            assert!(token.verify(&vk, Some(TokenKind::NrrReq), Some(run), None));
        }
    }

    #[test]
    fn file_log_crash_mid_commitment_recovers_and_reseals() {
        use nonrep_store::FileLog;
        let path = temp_path("recover-");
        let _ = std::fs::remove_file(&path);
        let keys = Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 6 },
            &mut SecureRandom::from_seed(5),
        ));
        let clock = Arc::new(LogicalClock::new());
        {
            let log: Arc<dyn EvidenceLog> = Arc::new(FileLog::open(&path).unwrap());
            let s = CommitmentScheduler::new(
                keys.clone(),
                log.clone(),
                OrgId::new("org"),
                clock.clone(),
                CommitmentMode::auto(100),
            );
            for i in 0..7 {
                s.record(draft(i)).unwrap();
                if i % 3 == 2 {
                    s.seal().unwrap().unwrap();
                }
            }
            // 7 records → epochs sealed after 3 and 6 appends; one record
            // (seq 8) pending. Seal it so the tail is an epoch record.
            s.seal().unwrap().unwrap();
        }
        // Crash mid-append of the final epoch commitment: chop into the
        // tail record (epoch records are large — 40 bytes is mid-record).
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 40]).unwrap();
        // Recovery drops the torn commitment; the covered prefix is intact.
        let log: Arc<dyn EvidenceLog> = Arc::new(FileLog::open_recover(&path).unwrap());
        log.verify().unwrap();
        let epoch_count = log.count_where(&|r| r.is_epoch_commit());
        assert_eq!(epoch_count, 2, "torn third commitment dropped");
        // A fresh scheduler resumes from the last surviving commitment,
        // so the record whose seal was lost in the crash (seq 8) is
        // pending again and the next seal re-covers it.
        let s = CommitmentScheduler::new(
            keys.clone(),
            log.clone(),
            OrgId::new("org"),
            clock,
            CommitmentMode::auto(100),
        );
        assert_eq!(s.unsealed_len(), 1, "the orphaned record is pending again");
        s.record(draft(99)).unwrap();
        let epoch = s.seal().unwrap().unwrap();
        let commit = EpochCommitment::from_record(&epoch).unwrap();
        assert_eq!(commit.lo, 8, "re-seal covers the orphaned record");
        let covered = log.snapshot_range(commit.lo..commit.hi + 1);
        assert!(commit.verify(&keys.verifying_key(), &covered));
        log.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    fn scheduler_with_clock(
        mode: CommitmentMode,
        clock: Arc<dyn Clock>,
    ) -> (Arc<CommitmentScheduler>, Arc<dyn EvidenceLog>) {
        let keys = Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 6 },
            &mut SecureRandom::from_seed(1),
        ));
        let log: Arc<dyn EvidenceLog> = Arc::new(MemoryLog::new());
        let s = Arc::new(CommitmentScheduler::new(
            keys,
            log.clone(),
            OrgId::new("org"),
            clock,
            mode,
        ));
        (s, log)
    }

    #[test]
    fn size_or_time_seals_on_deadline_via_append() {
        let clock = Arc::new(LogicalClock::new());
        let mode = CommitmentMode::auto(50);
        let (s, log) = scheduler_with_clock(mode, clock.clone());
        s.record(draft(0)).unwrap();
        clock.advance(49);
        s.record(draft(1)).unwrap();
        assert_eq!(
            log.count_where(&|r| r.is_epoch_commit()),
            0,
            "deadline not reached yet"
        );
        clock.advance(1);
        // 50ms after the *oldest* unsealed record: this append seals.
        s.record(draft(2)).unwrap();
        assert_eq!(log.count_where(&|r| r.is_epoch_commit()), 1);
        assert_eq!(s.unsealed_len(), 0);
        log.verify().unwrap();
    }

    #[test]
    fn poll_seals_an_idle_log_after_the_deadline() {
        let clock = Arc::new(LogicalClock::new());
        let mode = CommitmentMode::auto(50);
        let (s, log) = scheduler_with_clock(mode, clock.clone());
        for i in 0..3 {
            s.record(draft(i)).unwrap();
        }
        // Idle: no more appends. Polls before the deadline do nothing.
        clock.advance(49);
        assert!(s.poll().unwrap().is_none());
        assert_eq!(s.unsealed_len(), 3);
        clock.advance(1);
        let epoch = s.poll().unwrap().expect("deadline reached");
        let commit = EpochCommitment::from_record(&epoch).unwrap();
        assert_eq!((commit.lo, commit.hi), (0, 2));
        assert_eq!(s.unsealed_len(), 0);
        // Nothing pending → poll is a no-op regardless of elapsed time.
        clock.advance(1000);
        assert!(s.poll().unwrap().is_none());
        log.verify().unwrap();
    }

    #[test]
    fn poll_is_noop_without_time_trigger_or_in_per_record_mode() {
        let clock = Arc::new(LogicalClock::new());
        let (s, _) = scheduler_with_clock(CommitmentMode::auto(50), clock.clone());
        s.record(draft(0)).unwrap();
        clock.advance(49);
        assert!(s.poll().unwrap().is_none(), "deadline not due → no trigger");
        let (s2, _) = scheduler_with_clock(CommitmentMode::PerRecord, clock.clone());
        s2.record(draft(0)).unwrap();
        clock.advance(1_000_000);
        assert!(s2.poll().unwrap().is_none());
    }

    #[test]
    fn deadline_countdown_restarts_after_each_seal() {
        let clock = Arc::new(LogicalClock::new());
        let mode = CommitmentMode::auto(50);
        let (s, log) = scheduler_with_clock(mode, clock.clone());
        s.record(draft(0)).unwrap();
        clock.advance(50);
        s.poll().unwrap().unwrap();
        // New pending record: its own 50ms window, not the old one's.
        s.record(draft(1)).unwrap();
        clock.advance(49);
        assert!(s.poll().unwrap().is_none());
        clock.advance(1);
        assert!(s.poll().unwrap().is_some());
        assert_eq!(log.count_where(&|r| r.is_epoch_commit()), 2);
    }

    #[test]
    fn deadline_sealer_seals_idle_log_in_wall_time() {
        // Real clock + real thread: an idle log seals within the
        // deadline with no further appends.
        #[derive(Debug)]
        struct WallClock(std::time::Instant);
        impl Clock for WallClock {
            fn now(&self) -> Timestamp {
                Timestamp(self.0.elapsed().as_millis() as u64)
            }
        }
        let mode = CommitmentMode::auto(30);
        let clock = Arc::new(WallClock(std::time::Instant::now()));
        let (s, log) = scheduler_with_clock(mode, clock);
        s.record(draft(0)).unwrap();
        let sealer = DeadlineSealer::spawn(Arc::clone(&s)).expect("batched mode");
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while s.unsealed_len() > 0 && std::time::Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        drop(sealer); // stops and joins the poller
        assert_eq!(s.unsealed_len(), 0, "sealer never fired");
        assert_eq!(log.count_where(&|r| r.is_epoch_commit()), 1);
        log.verify().unwrap();
    }

    #[test]
    fn deadline_sealer_spawns_only_in_batched_mode() {
        let clock = Arc::new(LogicalClock::new());
        let (per_record, _) = scheduler_with_clock(CommitmentMode::PerRecord, clock.clone());
        assert!(DeadlineSealer::spawn(per_record).is_none());
        let (batched, _) = scheduler_with_clock(CommitmentMode::auto(50), clock);
        assert!(DeadlineSealer::spawn(batched).is_some());
    }

    #[test]
    fn auto_tuner_grows_under_load_and_shrinks_when_idle() {
        let clock = Arc::new(LogicalClock::new());
        let (s, log) = scheduler_with_clock(CommitmentMode::auto(100), clock.clone());
        assert_eq!(s.effective_batch_size(), DEFAULT_AUTO_BATCH);
        // High load: fill batches with no time passing → size seals far
        // inside the deadline → effective batch doubles each epoch.
        let mut n = 0u64;
        for _ in 0..2 {
            let target = s.effective_batch_size() as u64;
            for _ in 0..target {
                s.record(draft(n)).unwrap();
                n += 1;
            }
        }
        assert_eq!(s.effective_batch_size(), 4 * DEFAULT_AUTO_BATCH);
        // Low load: one record, deadline fires → batch halves, floored.
        for _ in 0..20 {
            s.record(draft(n)).unwrap();
            n += 1;
            clock.advance(100);
            s.poll().unwrap().unwrap();
        }
        assert_eq!(s.effective_batch_size(), MIN_AUTO_BATCH);
        log.verify().unwrap();
    }

    #[test]
    fn auto_tuner_respects_max_bound() {
        let clock = Arc::new(LogicalClock::new());
        let (s, _) = scheduler_with_clock(CommitmentMode::auto(1_000_000), clock);
        let mut n = 0u64;
        // Enough full-speed epochs to hit the cap several times over.
        for _ in 0..12 {
            let target = s.effective_batch_size() as u64;
            for _ in 0..target {
                s.record(draft(n)).unwrap();
                n += 1;
            }
            assert!(s.effective_batch_size() <= MAX_AUTO_BATCH);
        }
        assert_eq!(s.effective_batch_size(), MAX_AUTO_BATCH);
    }

    #[test]
    fn forecaster_warms_up_before_forecasting() {
        let mut f = ExhaustionForecaster::default();
        assert!(f.forecast_epochs(Some(100)).is_none(), "cold start");
        f.observe_remaining(Some(100)); // anchors the baseline only
        assert!(f.forecast_epochs(Some(100)).is_none());
        f.observe_remaining(Some(98));
        assert!((f.rate() - 2.0).abs() < 1e-9);
        assert!((f.forecast_epochs(Some(98)).unwrap() - 49.0).abs() < 1e-9);
        // Schemes without exhaustion never forecast.
        assert!(f.forecast_epochs(None).is_none());
    }

    #[test]
    fn forecaster_shrugs_off_a_one_epoch_burst() {
        // Steady 2 leaves/epoch, then a single 40-leaf burst: the EWMA
        // folds in a quarter of the spike and decays back, so one burst
        // must not collapse the forecast (which would slow the seal
        // cadence prematurely).
        let mut f = ExhaustionForecaster::default();
        let mut remaining = 1000u32;
        f.observe_remaining(Some(remaining));
        for _ in 0..10 {
            remaining -= 2;
            f.observe_remaining(Some(remaining));
        }
        let steady = f.forecast_epochs(Some(remaining)).unwrap();
        remaining -= 40;
        f.observe_remaining(Some(remaining));
        let after_burst = f.forecast_epochs(Some(remaining)).unwrap();
        assert!(f.rate() < 12.0, "one burst moves the rate by alpha only");
        assert!(
            after_burst > steady / 8.0,
            "forecast dampened, not collapsed: {after_burst} vs steady {steady}"
        );
        // A few steady epochs later the rate has mostly decayed back.
        for _ in 0..6 {
            remaining -= 2;
            f.observe_remaining(Some(remaining));
        }
        assert!(f.rate() < 4.0, "burst decays, got {}", f.rate());
    }

    #[test]
    fn forecaster_converges_on_a_sustained_ramp() {
        // Load ramps from 1 to 10 leaves/epoch and stays there: the EWMA
        // must follow within a few epochs so starvation is predicted
        // while there is still slack to react.
        let mut f = ExhaustionForecaster::default();
        let mut remaining = 500u32;
        f.observe_remaining(Some(remaining));
        for spent in 1..=10u32 {
            remaining -= spent;
            f.observe_remaining(Some(remaining));
        }
        for _ in 0..10 {
            remaining -= 10;
            f.observe_remaining(Some(remaining));
        }
        assert!(
            f.rate() > 8.0,
            "rate tracks the sustained level: {}",
            f.rate()
        );
        assert!(f.forecast_epochs(Some(80)).unwrap() < EXHAUSTION_LOW_WATER_EPOCHS);
    }

    #[test]
    fn seal_cadence_slows_before_exhaustion_instead_of_degrading() {
        // A small flat key under auto-tune and trickle load: the load
        // signal alone would pin the batch at the floor (deadline seals
        // on near-empty batches), but once the forecast crosses the
        // low-water mark, exhaustion pressure regrows it so the
        // remaining leaves are stretched instead of burned one per
        // trickle seal.
        let clock = Arc::new(LogicalClock::new());
        let keys = Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 5 },
            &mut SecureRandom::from_seed(3),
        ));
        let log: Arc<dyn EvidenceLog> = Arc::new(MemoryLog::new());
        let s = CommitmentScheduler::new(
            keys.clone(),
            log.clone(),
            OrgId::new("org"),
            clock.clone(),
            CommitmentMode::auto(100),
        );
        let mut floored = false;
        for n in 0..24u64 {
            s.record(draft(n)).unwrap();
            clock.advance(100);
            s.poll().unwrap().unwrap();
            floored |= s.effective_batch_size() == MIN_AUTO_BATCH;
        }
        assert!(floored, "low load first halves the batch to the floor");
        assert!(
            s.effective_batch_size() >= 8 * MIN_AUTO_BATCH,
            "exhaustion pressure regrew the batch, got {}",
            s.effective_batch_size()
        );
        assert!(!s.is_degraded(), "the key never starved");
        assert!(keys.remaining().unwrap() > 0);
        log.verify().unwrap();
    }

    /// Appends `draft(n)` and seals after every odd `n`: epochs of two
    /// records, the layout the rollover and exhaustion tests count.
    fn record_in_pairs(s: &CommitmentScheduler, n: u64) {
        s.record(draft(n)).unwrap();
        if n % 2 == 1 {
            s.seal().unwrap().unwrap();
        }
    }

    /// Stores token `n`, signed by the scheduler's own key, the way a
    /// party stores it: certificate detached, and its record appended
    /// ahead of the token unless the log already holds one.
    fn store_own_token(s: &CommitmentScheduler, n: u64) {
        use nonrep_types::codec::Encode;
        let spec = TokenSpec::new(TokenKind::NroReq, draft(n).run_id, sha256(&n.to_le_bytes()));
        let mut token = s.issue(spec).unwrap();
        let cert = token.signature.detach_cert();
        let draft = RecordDraft {
            payload: token.encode_to_vec(),
            ..draft(n)
        };
        s.record_tokens([(draft, cert)]).unwrap();
    }

    /// What the rollover tests inspect, collected in one `for_each` pass
    /// (snapshotting inside the pass would re-enter the log's lock).
    /// Plain records decode as no token and are left out.
    #[derive(Default)]
    struct Lifecycle {
        certs: Vec<(u64, SubtreeCert)>,
        epochs: Vec<EpochCommitment>,
        tokens: Vec<(u64, NrToken)>,
    }

    impl Lifecycle {
        fn of(log: &Arc<dyn EvidenceLog>) -> Self {
            use nonrep_types::codec::Decode;
            let mut l = Lifecycle::default();
            log.for_each(&mut |r| {
                if let Some(cert) = cert_from_record(r) {
                    l.certs.push((r.seq, cert));
                } else if let Some(c) = EpochCommitment::from_record(r) {
                    l.epochs.push(c);
                } else if let Ok(token) = NrToken::decode_from_slice(&r.draft.payload) {
                    l.tokens.push((r.seq, token));
                }
            });
            l
        }

        /// The recorded certificates' generations, in log order.
        fn generations(&self) -> Vec<u32> {
            self.certs.iter().map(|(_, c)| c.generation).collect()
        }

        /// Every certificate record chains to `key`, and every stored
        /// token verifies once the record that precedes it puts its
        /// certificate back.
        fn assert_verifies(&self, key: &nonrep_crypto::sig::VerifyingKey) {
            let nonrep_crypto::sig::VerifyingKey::Mss { root } = key else {
                panic!("a hierarchical key verifies under its root digest");
            };
            for (seq, cert) in &self.certs {
                assert!(cert.verify(root), "cert record at {seq}");
            }
            for (seq, token) in &self.tokens {
                let mut token = token.clone();
                let reference = token.signature.cert_ref().expect("stored form");
                let (at, cert) = self
                    .certs
                    .iter()
                    .find(|(_, c)| c.reference() == reference)
                    .unwrap_or_else(|| panic!("token at {seq} has no cert record"));
                assert!(at < seq, "token at {seq} precedes its cert record");
                assert!(token.signature.attach_cert(cert.clone()));
                assert!(token.verify(key, None, None, None), "token at {seq}");
            }
        }
    }

    fn small_hss(root_height: u8, subtree_height: u8, seed: u64) -> Arc<KeyPair> {
        Arc::new(KeyPair::generate(
            SignatureScheme::Hss {
                root_height,
                subtree_height,
            },
            &mut SecureRandom::from_seed(seed),
        ))
    }

    /// One token then one seal per step until the key is spent (the last
    /// step may end on its token): each epoch costs two leaves.
    fn token_epochs_until_spent(s: &CommitmentScheduler, keys: &KeyPair, mut n: u64) {
        while keys.remaining().unwrap() > 0 {
            store_own_token(s, n);
            if keys.remaining().unwrap() > 0 {
                s.seal().unwrap().unwrap();
            }
            n += 1;
        }
    }

    #[test]
    fn hss_rollovers_are_sealed_into_the_chain_without_extra_leaves() {
        let keys = small_hss(2, 1, 21);
        let log: Arc<dyn EvidenceLog> = Arc::new(MemoryLog::new());
        let s = CommitmentScheduler::new(
            keys.clone(),
            log.clone(),
            OrgId::new("org"),
            Arc::new(LogicalClock::new()),
            CommitmentMode::auto(100),
        );
        // 4 subtrees x 2 leaves: a token and a seal per subtree.
        token_epochs_until_spent(&s, &keys, 0);
        assert_eq!(keys.generation(), 3);
        let l = Lifecycle::of(&log);
        assert_eq!(
            (l.epochs.len(), l.tokens.len()),
            (4, 4),
            "one leaf per epoch and per token — rollovers burned none"
        );
        assert_eq!(l.generations(), vec![0, 1, 2, 3], "one cert record each");
        let vk = keys.verifying_key();
        l.assert_verifies(&vk);
        for (seq, _) in &l.certs {
            assert!(
                l.epochs.iter().any(|c| c.lo <= *seq && *seq <= c.hi),
                "cert record at {seq} is covered by an epoch"
            );
        }
        // Epoch commitments themselves verify across generations.
        for c in &l.epochs {
            let covered = log.snapshot_range(c.lo..c.hi + 1);
            assert!(c.verify(&vk, &covered), "epoch [{},{}]", c.lo, c.hi);
        }
        log.verify().unwrap();
    }

    #[test]
    fn kill_before_rollover_record_flush_recovers_exactly_once() {
        // R1: the signer has rolled to generation 1, and the cert record
        // its first token appended is still buffered behind the next
        // seal. Kill, recover: the rescan finds no generation-1 record,
        // so the next generation-1 token appends it exactly once — and
        // signing resumes on generation 1 without reusing a leaf.
        use nonrep_store::{FileLog, SyncPolicy};
        let path = temp_path("rollover-r1-");
        let _ = std::fs::remove_file(&path);
        let keys = small_hss(2, 1, 23);
        let clock = Arc::new(LogicalClock::new());
        {
            let file = Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
            let s = CommitmentScheduler::new(
                keys.clone(),
                file.clone() as Arc<dyn EvidenceLog>,
                OrgId::new("org"),
                clock.clone(),
                CommitmentMode::auto(100),
            );
            store_own_token(&s, 0);
            s.seal().unwrap().unwrap();
            file.last_seal_ticket().unwrap().wait_durable().unwrap();
            // This token's signature rolls the signer to generation 1.
            store_own_token(&s, 1);
            assert_eq!(keys.generation(), 1);
            assert_eq!(file.count_where(&|r| r.is_subtree_cert()), 2);
            std::mem::forget(file);
        }
        let log: Arc<dyn EvidenceLog> =
            Arc::new(FileLog::open_recover_with(&path, SyncPolicy::GroupCommit).unwrap());
        assert_eq!(
            Lifecycle::of(&log).generations(),
            vec![0],
            "the generation-1 cert record died with the unsealed tail"
        );
        let s = CommitmentScheduler::new(
            keys.clone(),
            log.clone(),
            OrgId::new("org"),
            clock,
            CommitmentMode::auto(100),
        );
        token_epochs_until_spent(&s, &keys, 10);
        let l = Lifecycle::of(&log);
        assert_eq!(l.generations(), vec![0, 1, 2, 3], "one cert record each");
        let vk = keys.verifying_key();
        l.assert_verifies(&vk);
        for c in &l.epochs {
            let covered = log.snapshot_range(c.lo..c.hi + 1);
            assert!(c.verify(&vk, &covered), "epoch [{},{}]", c.lo, c.hi);
        }
        assert_eq!(
            l.epochs.len() + l.tokens.len() + 1,
            8,
            "8 leaves: stored tokens, epochs and the lost token — none double-spent"
        );
        log.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kill_mid_pregeneration_resumes_the_same_generation_chain() {
        // R2: kill while the background subtree pre-generation may still
        // be in flight. The generation chain is drawn from a dedicated
        // seed stream, so recovery continues the exact chain a
        // never-killed signer would have produced.
        use nonrep_store::{FileLog, SyncPolicy};
        let path = temp_path("rollover-r2-");
        let _ = std::fs::remove_file(&path);
        let keys = small_hss(2, 2, 29);
        let clock = Arc::new(LogicalClock::new());
        {
            let file = Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
            let s = CommitmentScheduler::new(
                keys.clone(),
                file.clone() as Arc<dyn EvidenceLog>,
                OrgId::new("org"),
                clock.clone(),
                CommitmentMode::auto(100),
            );
            // A token and a seal spend half of generation 0; the first
            // signature kicked off background pre-generation of
            // generation 1. Kill right there.
            store_own_token(&s, 0);
            s.seal().unwrap().unwrap();
            assert_eq!(keys.generation(), 0);
            file.last_seal_ticket().unwrap().wait_durable().unwrap();
            std::mem::forget(file);
        }
        let log: Arc<dyn EvidenceLog> =
            Arc::new(FileLog::open_recover_with(&path, SyncPolicy::GroupCommit).unwrap());
        let s = CommitmentScheduler::new(
            keys.clone(),
            log.clone(),
            OrgId::new("org"),
            clock,
            CommitmentMode::auto(100),
        );
        token_epochs_until_spent(&s, &keys, 10);
        let l = Lifecycle::of(&log);
        l.assert_verifies(&keys.verifying_key());
        let chain: Vec<CertRef> = l.certs.iter().map(|(_, c)| c.reference()).collect();
        // Reference: an identical signer, never killed, spent the same
        // way — the generation chain depends only on the key seed, not
        // on what was signed or when the process died.
        let reference = small_hss(2, 2, 29);
        let mut expected: Vec<CertRef> = Vec::new();
        while reference.remaining().unwrap() > 0 {
            let mut sig = reference.sign_digest(&sha256(b"ref")).unwrap();
            let cert = sig.detach_cert().unwrap().reference();
            if expected.last() != Some(&cert) {
                expected.push(cert);
            }
        }
        assert_eq!(expected.len(), 4);
        assert_eq!(chain, expected, "recovered chain forked from the reference");
        log.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn terminal_generation_rollover_record_still_lands_after_exhaustion() {
        // The hierarchy's last generation can be activated *and* fully
        // spent between two seals. Its cert record lands with the first
        // token that references it, and the exhaustion flush of the
        // failed seal makes it durable: a kill right after the failed
        // seal loses neither the record nor its tokens.
        use nonrep_store::{FileLog, SyncPolicy};
        let path = temp_path("terminal-");
        let _ = std::fs::remove_file(&path);
        let keys = small_hss(1, 1, 17);
        {
            let file = Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
            let s = CommitmentScheduler::new(
                keys.clone(),
                file.clone() as Arc<dyn EvidenceLog>,
                OrgId::new("org"),
                Arc::new(LogicalClock::new()),
                CommitmentMode::auto(100),
            );
            // Two seals spend generation 0's two leaves.
            for n in 0..4u64 {
                record_in_pairs(&s, n);
            }
            assert_eq!(keys.generation(), 0);
            // Two tokens activate and exhaust the terminal generation
            // with no seal in between.
            store_own_token(&s, 4);
            store_own_token(&s, 5);
            assert_eq!(keys.generation(), 1);
            assert_eq!(keys.remaining(), Some(0));
            assert!(s.seal().is_err(), "hierarchy is spent — the seal degrades");
            std::mem::forget(file);
        }
        let log: Arc<dyn EvidenceLog> =
            Arc::new(FileLog::open_recover_with(&path, SyncPolicy::GroupCommit).unwrap());
        let l = Lifecycle::of(&log);
        assert_eq!(
            l.generations(),
            vec![1],
            "terminal cert record reached the disk"
        );
        assert_eq!(l.tokens.len(), 2);
        l.assert_verifies(&keys.verifying_key());
        log.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn idle_epochs_complete_warmup_so_a_burst_is_still_dampened() {
        // A signer idle after its baseline anchor used to look
        // permanently cold (rate 0.0 doubled as the "unset" sentinel),
        // so the first real burst was adopted at full weight and could
        // instantly collapse the forecast. Warm-up is an explicit state
        // now: idle epochs are genuine zero-rate samples and the burst
        // folds in at ALPHA weight like any other.
        let mut f = ExhaustionForecaster::default();
        f.observe_remaining(Some(1000));
        for _ in 0..5 {
            f.observe_remaining(Some(1000)); // idle: nothing spent
        }
        assert_eq!(f.rate(), 0.0);
        f.observe_remaining(Some(960)); // 40-leaf burst
        assert!(
            (f.rate() - ExhaustionForecaster::ALPHA * 40.0).abs() < 1e-9,
            "burst folded in at ALPHA weight, got {}",
            f.rate()
        );
        assert!(f.forecast_epochs(Some(960)).unwrap() > EXHAUSTION_LOW_WATER_EPOCHS);
    }

    #[test]
    fn recovered_unsealed_tail_restarts_deadline_countdown() {
        // A scheduler constructed over a log with an orphaned (unsealed)
        // tail starts the clock on it immediately: the deadline bounds
        // time-to-seal from *now*, so poll() seals it once the delay
        // elapses even if nothing else is ever appended.
        let clock = Arc::new(LogicalClock::new());
        let log: Arc<dyn EvidenceLog> = Arc::new(MemoryLog::new());
        let keys = Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 6 },
            &mut SecureRandom::from_seed(2),
        ));
        // Simulate the recovered state: two plain records, no commitment.
        log.append(draft(0)).unwrap();
        log.append(draft(1)).unwrap();
        let s = CommitmentScheduler::new(
            keys,
            log.clone(),
            OrgId::new("org"),
            clock.clone(),
            CommitmentMode::auto(50),
        );
        assert_eq!(s.unsealed_len(), 2);
        clock.advance(49);
        assert!(s.poll().unwrap().is_none());
        clock.advance(1);
        let epoch = s.poll().unwrap().expect("orphaned tail sealed on time");
        let commit = EpochCommitment::from_record(&epoch).unwrap();
        assert_eq!((commit.lo, commit.hi), (0, 1));
    }

    #[test]
    fn per_epoch_file_log_kill_mid_epoch_loses_only_unsealed_tail() {
        use nonrep_store::{FileLog, SyncPolicy};
        let path = temp_path("epoch-kill-");
        let _ = std::fs::remove_file(&path);
        let keys = Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 6 },
            &mut SecureRandom::from_seed(7),
        ));
        let clock = Arc::new(LogicalClock::new());
        {
            let file = Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
            let s = CommitmentScheduler::new(
                keys.clone(),
                file.clone() as Arc<dyn EvidenceLog>,
                OrgId::new("org"),
                clock.clone(),
                CommitmentMode::auto(100),
            );
            // One full epoch (acked: its seal's barrier is awaited) + 2
            // unsealed, buffered records. Kill: skip FileLog's Drop flush.
            for i in 0..6 {
                s.record(draft(i)).unwrap();
                if i == 3 {
                    s.seal().unwrap().unwrap();
                }
            }
            assert_eq!(s.unsealed_len(), 2);
            file.last_seal_ticket().unwrap().wait_durable().unwrap();
            std::mem::forget(file);
        }
        // Recovery: the sealed epoch (records 0..=3 + commitment) is on
        // disk and intact; the two buffered records are gone — that IS
        // the loss window the policy documents.
        let log: Arc<dyn EvidenceLog> =
            Arc::new(FileLog::open_recover_with(&path, SyncPolicy::GroupCommit).unwrap());
        log.verify().unwrap();
        assert_eq!(log.len(), 5, "sealed epoch survives, unsealed tail lost");
        assert_eq!(log.count_where(&|r| r.is_epoch_commit()), 1);
        // A fresh scheduler resumes the watermark after the surviving
        // commitment and keeps sealing (and fsyncing) new evidence.
        let s = CommitmentScheduler::new(
            keys.clone(),
            log.clone(),
            OrgId::new("org"),
            clock,
            CommitmentMode::auto(100),
        );
        assert_eq!(s.unsealed_len(), 0);
        for i in 10..14 {
            s.record(draft(i)).unwrap();
        }
        s.seal().unwrap().unwrap();
        let commits: Vec<EpochCommitment> = {
            let mut out = Vec::new();
            log.for_each(&mut |r| {
                if let Some(c) = EpochCommitment::from_record(r) {
                    out.push(c);
                }
            });
            out
        };
        assert_eq!(commits.len(), 2);
        assert_eq!((commits[1].lo, commits[1].hi), (5, 8));
        let covered = log.snapshot_range(commits[1].lo..commits[1].hi + 1);
        assert!(commits[1].verify(&keys.verifying_key(), &covered));
        // Everything sealed is durable: a strict reopen agrees.
        drop(s);
        drop(log);
        let reopened = FileLog::open(&path).unwrap();
        assert_eq!(reopened.len(), 10);
        reopened.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// A log whose epoch-record appends and flushes fail while `fail`
    /// is set — models a buffered `FileLog` on a broken disk (which
    /// rolls the commitment back out of its chain when the handoff
    /// fails, so from the scheduler's view the epoch append simply
    /// errors).
    struct FlakyLog {
        inner: MemoryLog,
        fail: std::sync::atomic::AtomicBool,
    }

    impl FlakyLog {
        fn broken() -> Self {
            Self {
                inner: MemoryLog::new(),
                fail: std::sync::atomic::AtomicBool::new(true),
            }
        }

        fn set_fail(&self, fail: bool) {
            self.fail.store(fail, std::sync::atomic::Ordering::SeqCst);
        }

        fn failing(&self) -> bool {
            self.fail.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl EvidenceLog for FlakyLog {
        fn append(&self, draft: RecordDraft) -> Result<Arc<EvidenceRecord>, StoreError> {
            if self.failing() && draft.kind == EPOCH_KIND {
                return Err(StoreError::Corrupt("disk full".into()));
            }
            self.inner.append(draft)
        }

        fn flush(&self) -> Result<(), StoreError> {
            if self.failing() {
                return Err(StoreError::Corrupt("disk full".into()));
            }
            Ok(())
        }

        fn for_each(&self, f: &mut dyn FnMut(&EvidenceRecord)) {
            self.inner.for_each(f)
        }

        fn snapshot_range(&self, range: std::ops::Range<u64>) -> Vec<Arc<EvidenceRecord>> {
            self.inner.snapshot_range(range)
        }

        fn head(&self) -> Digest {
            self.inner.head()
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    #[test]
    fn a_rebuilt_scheduler_holds_what_the_live_one_folded() {
        // Replay equals live: a scheduler built over a log holds the
        // log-derived state of the scheduler that wrote it — token
        // records with and without certificates, explicit and size
        // seals, run markers, and a failed seal the backend refused.
        use nonrep_store::record::{MarkerPhase, RunMarker};
        let flaky = Arc::new(FlakyLog::broken());
        flaky.set_fail(false);
        let log: Arc<dyn EvidenceLog> = flaky.clone();
        let keys = small_hss(4, 2, 11);
        let clock = Arc::new(LogicalClock::new());
        let build = || {
            CommitmentScheduler::new(
                keys.clone(),
                log.clone(),
                OrgId::new("org"),
                clock.clone(),
                CommitmentMode::auto(50),
            )
        };
        let marker = |run: u128, step: u32, phase: MarkerPhase| {
            RunMarker {
                run_id: RunId::from_u128(run),
                variant: "direct".into(),
                step,
                phase,
            }
            .to_draft(OrgId::new("org"), Timestamp(0))
        };
        let live = build();
        for n in 0..6 {
            store_own_token(&live, n);
        }
        live.record_tokens([(draft(6), None)]).unwrap();
        live.record(marker(1, 1, MarkerPhase::Progress)).unwrap();
        live.record(marker(2, 1, MarkerPhase::Progress)).unwrap();
        live.record(marker(3, 1, MarkerPhase::Progress)).unwrap();
        live.record(marker(2, 3, MarkerPhase::Progress)).unwrap();
        live.seal().unwrap().expect("explicit seal");
        live.record(marker(1, 3, MarkerPhase::Closed)).unwrap();
        live.record(marker(3, 1, MarkerPhase::Aborted)).unwrap();
        flaky.set_fail(true);
        assert!(live.seal().is_err(), "the backend refuses the epoch record");
        flaky.set_fail(false);
        live.seal().unwrap().expect("explicit re-seal");
        for n in 7..60 {
            live.record(draft(n)).unwrap();
        }
        for n in 60..64 {
            store_own_token(&live, n);
        }
        let epochs = log.count_where(&|r| r.is_epoch_commit());
        assert!(epochs >= 4, "size seals landed: {epochs} epochs");
        assert!(live.unsealed_len() > 0, "the log ends on an unsealed tail");

        let rebuilt = build();
        assert_eq!(rebuilt.unsealed_len(), live.unsealed_len());
        assert_eq!(
            rebuilt.unclosed_runs(),
            vec![OpenRun {
                run: RunId::from_u128(2),
                variant: nonrep_types::ids::ProtocolId::new("direct"),
                last_step: 3,
            }]
        );
        let (live, rebuilt) = (live.state.lock(), rebuilt.state.lock());
        assert!(live.seal.certs_stored.len() > 1, "the key rolled over");
        assert_eq!(rebuilt.seal, live.seal);
        assert_eq!(rebuilt.runs, live.runs);
    }

    #[test]
    fn seal_failure_is_deferred_and_burns_at_most_one_signature() {
        let flaky = Arc::new(FlakyLog::broken());
        let log: Arc<dyn EvidenceLog> = flaky.clone();
        let keys = Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 6 },
            &mut SecureRandom::from_seed(9),
        ));
        let clock = Arc::new(LogicalClock::new());
        let s = CommitmentScheduler::new(
            keys.clone(),
            log.clone(),
            OrgId::new("org"),
            clock.clone(),
            CommitmentMode::auto(50),
        );
        let budget = keys.remaining().unwrap();
        assert!(!s.is_degraded());
        // The append that trips the deadline still succeeds even though
        // the seal behind it fails — evidence is never doubly appended
        // because a caller saw a spurious error.
        s.record(draft(0)).unwrap();
        clock.advance(50);
        s.record(draft(1)).unwrap();
        assert_eq!(log.len(), 2, "both records committed");
        assert_eq!(s.unsealed_len(), 2, "nothing sealed");
        assert!(s.is_degraded(), "outage is observable");
        let after_first_attempt = keys.remaining().unwrap();
        assert_eq!(budget - after_first_attempt, 1, "first attempt signed once");
        // Retries while the disk is down are cooldown-gated and probe
        // with flush() first — they must not consume signatures.
        for _ in 0..5 {
            assert!(s.poll().is_err(), "disk still broken");
        }
        // Past the cooldown, a real (probing) retry runs — and still
        // fails signature-free while the disk is down.
        clock.advance(1_000);
        assert!(s.poll().is_err(), "probe sees the disk still broken");
        assert_eq!(
            keys.remaining().unwrap(),
            after_first_attempt,
            "degraded retries are signature-free"
        );
        assert_eq!(log.count_where(&|r| r.is_epoch_commit()), 0, "no orphans");
        // Disk recovers: the next post-cooldown poll re-seals the range.
        flaky.set_fail(false);
        clock.advance(2_000);
        let epoch = s.poll().unwrap().expect("re-seal after recovery");
        let commit = EpochCommitment::from_record(&epoch).unwrap();
        assert_eq!((commit.lo, commit.hi), (0, 1));
        assert!(commit.verify(&keys.verifying_key(), &log.snapshot_range(0..2)));
        assert_eq!(s.unsealed_len(), 0);
        assert_eq!(keys.remaining().unwrap(), after_first_attempt - 1);
        assert!(!s.is_degraded(), "recovery clears the degraded state");
        log.verify().unwrap();
    }

    #[test]
    fn exhausted_signing_key_degrades_without_hashing_or_panicking() {
        // MSS height 2 = 4 one-time signatures. Burn them all on epoch
        // seals, then keep appending: appends must stay Ok, the outage
        // must be observable, and explicit seals must error cleanly.
        let keys = Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 2 },
            &mut SecureRandom::from_seed(11),
        ));
        let log: Arc<dyn EvidenceLog> = Arc::new(MemoryLog::new());
        let clock = Arc::new(LogicalClock::new());
        let s = CommitmentScheduler::new(
            keys.clone(),
            log.clone(),
            OrgId::new("org"),
            clock.clone(),
            CommitmentMode::auto(100),
        );
        let mut n = 0u64;
        while keys.remaining().unwrap() > 0 {
            record_in_pairs(&s, n);
            n += 1;
        }
        assert_eq!(log.count_where(&|r| r.is_epoch_commit()), 4);
        assert!(!s.is_degraded());
        // Key is spent. Further appends succeed but cannot seal, however
        // overdue the deadline.
        for _ in 0..6 {
            s.record(draft(n)).unwrap();
            clock.advance(100);
            n += 1;
        }
        assert!(s.is_degraded(), "exhaustion is observable");
        assert!(s.unsealed_len() >= 6);
        assert!(
            matches!(s.seal(), Err(StoreError::Unavailable(_))),
            "explicit seal surfaces the exhaustion"
        );
        log.verify().unwrap();
    }

    #[test]
    fn buffer_full_append_seals_and_retries() {
        // A batch that never fills, on a clock that never reaches the
        // deadline, before the byte cap: the overflowing append must
        // trigger a seal (draining the buffer) and then land, not wedge
        // the log.
        use nonrep_store::{FileLog, SyncPolicy};
        let path = temp_path("cap-retry-");
        let _ = std::fs::remove_file(&path);
        let keys = Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 3 },
            &mut SecureRandom::from_seed(17),
        ));
        let file = Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
        let s = CommitmentScheduler::new(
            keys.clone(),
            file.clone() as Arc<dyn EvidenceLog>,
            OrgId::new("org"),
            Arc::new(LogicalClock::new()),
            CommitmentMode::auto(100),
        );
        let big = |n: u64| RecordDraft {
            payload: vec![n as u8; 16 << 20],
            ..draft(n)
        };
        for i in 0..3 {
            s.record(big(i)).unwrap();
        }
        assert!(file.unflushed_len() == 3, "all buffered, far from batch");
        // The 4th 16 MiB record overflows the 64 MiB cap: the scheduler
        // seals (handing records 0..2 to the sync thread) and retries —
        // the caller just sees Ok.
        let record = s.record(big(3)).unwrap();
        assert_eq!(record.draft.payload.len(), 16 << 20);
        assert_eq!(file.count_where(&|r| r.is_epoch_commit()), 1);
        file.last_seal_ticket().unwrap().wait_durable().unwrap();
        assert_eq!(file.unflushed_len(), 1, "the retried record is buffered");
        assert!(!s.is_degraded());
        s.seal().unwrap().unwrap();
        file.verify().unwrap();
        drop(s);
        drop(file);
        let reopened = FileLog::open(&path).unwrap();
        assert_eq!(reopened.len(), 6, "4 records + 2 epoch commitments");
        reopened.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn exhausted_signer_still_flushes_buffered_evidence() {
        // Buffered file log + tiny key: once the signer is spent the
        // tail cannot be *sealed*, but seal attempts still make it
        // *durable* — the crash-loss bound degrades to the retry
        // cooldown, not to "never".
        use nonrep_store::{FileLog, SyncPolicy};
        let path = temp_path("exh-flush-");
        let _ = std::fs::remove_file(&path);
        let keys = Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 2 },
            &mut SecureRandom::from_seed(13),
        ));
        let file = Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
        let clock = Arc::new(LogicalClock::new());
        let s = CommitmentScheduler::new(
            keys.clone(),
            file.clone() as Arc<dyn EvidenceLog>,
            OrgId::new("org"),
            clock.clone(),
            CommitmentMode::auto(100),
        );
        let mut n = 0u64;
        while keys.remaining().unwrap() > 0 {
            record_in_pairs(&s, n);
            n += 1;
        }
        // Two more records trip the deadline with a spent key: the
        // failed seal attempt flushes them before reporting Unavailable.
        s.record(draft(n)).unwrap();
        clock.advance(100);
        s.record(draft(n + 1)).unwrap();
        assert!(s.is_degraded());
        assert_eq!(
            file.unflushed_len(),
            0,
            "buffered tail fsynced by the failed seal attempt"
        );
        // A crash now (no Drop flush) loses nothing: the full history —
        // including the unsealed tail — reopens strictly.
        let total = file.len();
        std::mem::forget(file);
        drop(s);
        let reopened = FileLog::open(&path).unwrap();
        assert_eq!(reopened.len(), total);
        reopened.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_seal_queues_and_seal_durable_waits() {
        use nonrep_store::{FileLog, SyncPolicy};
        let path = temp_path("gc-seal-");
        let _ = std::fs::remove_file(&path);
        let keys = Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 6 },
            &mut SecureRandom::from_seed(21),
        ));
        let file = Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
        let s = CommitmentScheduler::new(
            keys.clone(),
            file.clone() as Arc<dyn EvidenceLog>,
            OrgId::new("org"),
            Arc::new(LogicalClock::new()),
            CommitmentMode::auto(100),
        );
        // Two seals: each returns once its frame is queued.
        for i in 0..8 {
            s.record(draft(i)).unwrap();
            if i % 4 == 3 {
                s.seal().unwrap().unwrap();
            }
        }
        assert_eq!(s.unsealed_len(), 0, "both epochs sealed");
        assert_eq!(file.count_where(&|r| r.is_epoch_commit()), 2);
        // The explicit durable path waits out the barrier: everything —
        // including the async epochs queued above — is now on disk.
        s.record(draft(8)).unwrap();
        s.seal_durable().unwrap().unwrap();
        assert_eq!(file.unflushed_len(), 0);
        // Kill (no Drop drain): nothing acked is lost.
        drop(s);
        std::mem::forget(file);
        let reopened = FileLog::open(&path).unwrap();
        assert_eq!(reopened.len(), 12, "9 records + 3 epoch commitments");
        reopened.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn seal_durable_costs_one_device_barrier() {
        // A durable seal waits on the barrier of the frame it queued; it
        // does not queue a second, empty frame behind it. On an
        // otherwise idle log N durable seals are therefore exactly N
        // device barriers (it was 2 per seal when flush() always
        // submitted its own frame).
        use nonrep_store::{FileLog, SyncPolicy};
        let path = temp_path("gc-one-barrier-");
        let _ = std::fs::remove_file(&path);
        let keys = Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 6 },
            &mut SecureRandom::from_seed(27),
        ));
        let file = Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
        let s = CommitmentScheduler::new(
            keys,
            file.clone() as Arc<dyn EvidenceLog>,
            OrgId::new("org"),
            Arc::new(LogicalClock::new()),
            CommitmentMode::auto(100),
        );
        for n in 0..8u64 {
            let before = file.sync_batches();
            s.record(draft(n)).unwrap();
            s.seal_durable().unwrap().unwrap();
            assert_eq!(file.unflushed_len(), 0);
            assert_eq!(file.sync_batches(), before + 1, "durable seal {n}");
        }
        // With nothing new to seal, a durable seal has nothing to wait
        // for either.
        assert!(s.seal_durable().unwrap().is_none());
        assert_eq!(file.sync_batches(), 8);
        drop(s);
        drop(file);
        let _ = std::fs::remove_file(&path);
    }

    /// Satellite stress test: N concurrent appenders through ONE
    /// scheduler over a group-commit `FileLog`, auto-sealing under
    /// contention, then a kill. The recovered log must equal the acked
    /// prefix exactly — the buffered (never-enqueued) tail is the only
    /// loss. (The kill points *between* enqueue, coalesced write and
    /// fsync ack are pinned deterministically at the store layer by the
    /// G-matrix tests in `nonrep_store::log`.)
    #[test]
    fn group_commit_concurrent_appenders_recover_to_acked_prefix() {
        use nonrep_store::{FileLog, SyncPolicy};
        let path = temp_path("gc-stress-");
        let _ = std::fs::remove_file(&path);
        let keys = Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 6 },
            &mut SecureRandom::from_seed(23),
        ));
        let clock: Arc<dyn Clock> = Arc::new(LogicalClock::new());
        let file = Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
        let s = Arc::new(CommitmentScheduler::new(
            keys.clone(),
            file.clone() as Arc<dyn EvidenceLog>,
            OrgId::new("org"),
            clock.clone(),
            CommitmentMode::auto(100),
        ));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let s = Arc::clone(&s);
                scope.spawn(move || {
                    for i in 0..50u64 {
                        s.record(draft(t * 1000 + i)).unwrap();
                    }
                });
            }
        });
        // Seal the tail and wait out the barrier: the whole history is
        // acked now.
        s.seal_durable().unwrap();
        assert_eq!(file.unflushed_len(), 0);
        let acked = file.len();
        assert_eq!(
            file.count_where(&|r| !r.is_epoch_commit()),
            200,
            "no append lost under contention"
        );
        // A buffered, never-enqueued tail…
        for i in 0..5u64 {
            s.record(draft(9000 + i)).unwrap();
        }
        assert_eq!(file.unflushed_len(), 5);
        // …vanishes in the kill (no Drop drain, no barrier).
        drop(s);
        std::mem::forget(file);
        let recovered = FileLog::open_recover_with(&path, SyncPolicy::GroupCommit).unwrap();
        assert_eq!(
            recovered.len(),
            acked,
            "recovered log equals the acked prefix"
        );
        recovered.verify().unwrap();
        // A fresh scheduler resumes from the surviving watermark and
        // keeps sealing.
        let log: Arc<dyn EvidenceLog> = Arc::new(recovered);
        let s = CommitmentScheduler::new(
            keys,
            log.clone(),
            OrgId::new("org"),
            clock,
            CommitmentMode::auto(100),
        );
        s.record(draft(10_000)).unwrap();
        s.seal_durable().unwrap().unwrap();
        assert_eq!(s.unsealed_len(), 0);
        log.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// A log with group-commit semantics whose device can be broken:
    /// while `fail` is set, an epoch append still *succeeds* (the frame
    /// is "queued") but the barrier behind it fails asynchronously — the
    /// error surfaces on the NEXT epoch append or flush, exactly as a
    /// `SyncPolicy::GroupCommit` `FileLog` surfaces it.
    struct AsyncFlakyLog {
        inner: MemoryLog,
        fail: std::sync::atomic::AtomicBool,
        pending_error: Mutex<bool>,
    }

    impl AsyncFlakyLog {
        fn new() -> Self {
            Self {
                inner: MemoryLog::new(),
                fail: std::sync::atomic::AtomicBool::new(false),
                pending_error: Mutex::new(false),
            }
        }

        fn set_fail(&self, fail: bool) {
            self.fail.store(fail, std::sync::atomic::Ordering::SeqCst);
        }

        fn failing(&self) -> bool {
            self.fail.load(std::sync::atomic::Ordering::SeqCst)
        }

        fn barrier_error() -> StoreError {
            StoreError::Io(std::io::Error::other("async barrier failed"))
        }
    }

    impl EvidenceLog for AsyncFlakyLog {
        fn append(&self, draft: RecordDraft) -> Result<Arc<EvidenceRecord>, StoreError> {
            if draft.kind == EPOCH_KIND {
                // The next seal consumes a previous barrier's failure.
                if std::mem::take(&mut *self.pending_error.lock()) {
                    return Err(Self::barrier_error());
                }
                let record = self.inner.append(draft)?;
                if self.failing() {
                    // Enqueue "succeeded"; the barrier will fail async.
                    *self.pending_error.lock() = true;
                }
                return Ok(record);
            }
            self.inner.append(draft)
        }

        fn flush(&self) -> Result<(), StoreError> {
            if std::mem::take(&mut *self.pending_error.lock()) || self.failing() {
                return Err(Self::barrier_error());
            }
            Ok(())
        }

        fn durability_class(&self) -> nonrep_store::DurabilityClass {
            nonrep_store::DurabilityClass::GroupCommit
        }

        fn for_each(&self, f: &mut dyn FnMut(&EvidenceRecord)) {
            self.inner.for_each(f)
        }

        fn snapshot_range(&self, range: std::ops::Range<u64>) -> Vec<Arc<EvidenceRecord>> {
            self.inner.snapshot_range(range)
        }

        fn head(&self) -> Digest {
            self.inner.head()
        }

        fn len(&self) -> u64 {
            self.inner.len()
        }
    }

    #[test]
    fn async_barrier_failure_degrades_on_next_seal_and_recovers() {
        let flaky = Arc::new(AsyncFlakyLog::new());
        let log: Arc<dyn EvidenceLog> = flaky.clone();
        let keys = Arc::new(KeyPair::generate(
            SignatureScheme::Mss { height: 6 },
            &mut SecureRandom::from_seed(25),
        ));
        let clock = Arc::new(LogicalClock::new());
        let s = CommitmentScheduler::new(
            keys.clone(),
            log.clone(),
            OrgId::new("org"),
            clock.clone(),
            CommitmentMode::auto(50),
        );
        let budget = keys.remaining().unwrap();
        // Device breaks. The seal itself still succeeds — it returns
        // once the frame is queued, and the barrier fails behind it.
        flaky.set_fail(true);
        s.record(draft(0)).unwrap();
        clock.advance(50);
        s.record(draft(1)).unwrap();
        assert!(!s.is_degraded(), "async failure not visible yet");
        assert_eq!(s.unsealed_len(), 0, "epoch sealed (queued)");
        assert_eq!(budget - keys.remaining().unwrap(), 1);
        // The NEXT seal consumes the async completion error: it fails,
        // rolls its own epoch record back, and enters the degraded path.
        s.record(draft(2)).unwrap();
        clock.advance(50);
        s.record(draft(3)).unwrap();
        assert!(s.is_degraded(), "async failure consumed and observable");
        assert_eq!(s.unsealed_len(), 2, "second epoch rolled back");
        let after_discovery = keys.remaining().unwrap();
        assert_eq!(budget - after_discovery, 2, "discovery cost one leaf");
        // Cooldown-gated, signature-free retries while the device is
        // down (the probe flush fails first).
        clock.advance(2_000);
        assert!(s.poll().is_err());
        assert_eq!(keys.remaining().unwrap(), after_discovery);
        // Device recovers: the next post-cooldown retry re-seals.
        flaky.set_fail(false);
        clock.advance(4_000);
        let epoch = s.poll().unwrap().expect("re-seal after recovery");
        let commit = EpochCommitment::from_record(&epoch).unwrap();
        assert_eq!((commit.lo, commit.hi), (3, 4));
        assert!(!s.is_degraded());
        assert_eq!(s.unsealed_len(), 0);
        log.verify().unwrap();
    }
}
