//! Evidence log backends.
//!
//! The log is the local half of the paper's audit requirement (§2: "Audit
//! ensures that evidence is available in case of dispute and to inform
//! future interactions"); interceptor assumption 3 (§3.1) makes interceptors
//! responsible for persisting evidence at least until their protocol
//! obligations are met.
//!
//! # Read API
//!
//! Dispute and audit queries are hot under load, so the trait is built
//! around zero-clone access: [`EvidenceLog::for_each`] visits records in
//! place, [`EvidenceLog::snapshot_range`] clones only a window, and
//! [`EvidenceLog::by_run`] is backed by a per-run sequence index in both
//! backends. [`EvidenceLog::records`] (a full snapshot) remains for
//! callers that genuinely need an owned copy — e.g. submitting a log for
//! adjudication.
//!
//! # Append path
//!
//! Both backends cache the chain-head digest, so appending hashes only
//! the new record (encoded once, in the thread's scratch writer, for both
//! the hash and the persisted bytes) instead of re-encoding
//! and re-hashing its predecessor on every call. Records are stored as
//! `Arc<EvidenceRecord>`: [`EvidenceLog::append`] returns a handle to the
//! stored record without cloning its payload, and snapshots
//! ([`EvidenceLog::snapshot_range`], [`EvidenceLog::records`],
//! [`EvidenceLog::by_run`]) clone reference counts, never record bytes.
//!
//! # Epoch commitments and durability
//!
//! Epoch-commitment records (see [`crate::record::EpochCommitment`]) are
//! ordinary chained records; backends treat them like any other append.
//! Sealing policy lives above the store (the protocols crate's
//! `CommitmentScheduler`) — but **durability** policy lives here: a
//! [`FileLog`] opened with [`SyncPolicy::GroupCommit`] buffers appends in
//! memory and hands them to its sync thread with each epoch-commitment
//! record, making the epoch the unit of durability as well as of
//! signature amortization. [`SyncPolicy::WriteThrough`] (the default)
//! writes and fsyncs every append call before it returns. See
//! [`SyncPolicy`] for the crash-consistency contract.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{BufReader, Read, Write as IoWrite};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use nonrep_crypto::digest::{sha256, Digest};
use nonrep_types::codec::{with_scratch, Decode, Encode, Reader};
use nonrep_types::ids::RunId;

use crate::group_commit::{DurabilityTicket, GroupCommitQueue};
use crate::record::{ChainVerifier, ChainViolation, EvidenceRecord, RecordDraft, EPOCH_KIND};
use crate::StoreError;

/// When a [`FileLog`] makes appended records durable.
///
/// # Crash-consistency contract
///
/// * **`WriteThrough`** — an append that returned `Ok` survives a crash
///   (written and fsynced before the call returned). One call is one
///   write, so the torn-tail window of [`FileLog::open_recover`] is one
///   [`EvidenceLog::append_all`] batch — one protocol step's records.
/// * **`GroupCommit`** — appends buffer in memory; appending an
///   epoch-commitment record (kind [`EPOCH_KIND`]) *enqueues* the
///   buffered batch to a dedicated sync thread
///   ([`crate::group_commit::GroupCommitQueue`]) and returns once the
///   frame is queued; epochs sealed while a barrier is in flight
///   coalesce into **one** contiguous write + fsync. A crash loses at
///   most the *unsealed + unacked* tail: everything behind a completed
///   [`DurabilityTicket`] survives ([`EvidenceLog::flush`] is the
///   synchronous barrier; [`EvidenceLog::flush_async`] hands back the
///   ticket), and [`FileLog::open_recover`] drops whatever suffix of the
///   in-flight batch did not land intact. A failed barrier keeps its
///   bytes queued for retry and its error is consumed by the *next* seal
///   or flush; an unrecoverable write error poisons the queue fail-stop.
///   Recovery never masks tampering with record *content*: corruption
///   inside the retained prefix still fails the open. (Tampered length
///   *prefixes* are indistinguishable from a torn tail and truncate
///   instead — reported via [`FileLog::recovery_dropped_bytes`]; see the
///   caveat on [`FileLog::open_recover`].)
///
/// `GroupCommit` is designed to pair with the batched commitment
/// pipeline (`CommitmentScheduler` in the protocols crate): the
/// scheduler bounds the unsealed tail by batch size and/or a time
/// deadline, which in turn bounds the loss window. Running such a log
/// *without* epoch sealing (per-record commitment mode) leaves the tail
/// buffered indefinitely — the log still flushes on drop, but a kill can
/// lose an unbounded suffix, so that combination is a misconfiguration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Write and fsync every append call before returning (the default).
    #[default]
    WriteThrough,
    /// Buffer appends; the epoch seal hands the batch to a dedicated
    /// sync thread and returns immediately. Concurrent epochs coalesce
    /// into one device barrier; append latency is decoupled from disk
    /// latency entirely.
    GroupCommit,
}

/// How an [`EvidenceLog`] backend makes appends durable — the property
/// assemblies validate declarative deployment requirements against (see
/// `nonrep_container::descriptor::NrConfig`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DurabilityClass {
    /// No stable storage at all: a crash loses the whole log
    /// ([`MemoryLog`], and the default for custom backends). Distinct
    /// from [`DurabilityClass::Synchronous`] so a deployment that
    /// *requires* write-through durability cannot be satisfied by a
    /// backend that merely has nothing to flush.
    Volatile,
    /// Every append is written and fsynced before it returns: a
    /// [`FileLog`] under [`SyncPolicy::WriteThrough`].
    Synchronous,
    /// Appends buffer; the epoch seal enqueues them to a background sync
    /// thread and concurrent epochs share one device barrier
    /// ([`SyncPolicy::GroupCommit`]).
    GroupCommit,
}

/// State a party derives from its own evidence log, defined once: its
/// build feeds the fold every record of the log in one pass, then every
/// record it appends, so a restart rebuilds what the live path kept.
pub trait Fold {
    /// Folds in the next record, in sequence order.
    fn absorb(&mut self, record: &EvidenceRecord);
}

/// An append-only, hash-chained evidence log.
///
/// Object-safe so middleware holds `Arc<dyn EvidenceLog>`.
///
/// The visitor methods ([`EvidenceLog::for_each`] and the defaults built
/// on it) hold the backend's internal lock while the callback runs: the
/// callback must not call back into the same log.
pub trait EvidenceLog: Send + Sync {
    /// Appends `draft`, assigning its sequence number and chain link.
    /// Returns a handle to the stored record — the payload is not cloned.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if persisting fails (file backend).
    fn append(&self, draft: RecordDraft) -> Result<Arc<EvidenceRecord>, StoreError>;

    /// Appends `drafts` in order, all or none in the in-tree backends (a
    /// write-through [`FileLog`] writes them under one device barrier);
    /// the default appends them one by one. Fails as `append` does.
    fn append_all(&self, drafts: Vec<RecordDraft>) -> Result<Vec<Arc<EvidenceRecord>>, StoreError> {
        drafts.into_iter().map(|draft| self.append(draft)).collect()
    }

    /// Visits every record in sequence order, without cloning.
    fn for_each(&self, f: &mut dyn FnMut(&EvidenceRecord));

    /// Snapshots the records whose sequence numbers fall in `range`
    /// (clamped to the log's length). Clones reference counts only.
    fn snapshot_range(&self, range: Range<u64>) -> Vec<Arc<EvidenceRecord>>;

    /// Visits the log in bounded snapshot windows of `window_len`
    /// records: peak memory stays one window and the backend's lock is
    /// released between windows, so long scans do not stall appenders.
    /// The callback returns `false` to stop early.
    ///
    /// Coverage is bounded to the log's length at entry — records
    /// appended concurrently are not chased, so the scan terminates even
    /// under a sustained appender (it sees a consistent prefix).
    fn for_each_window(&self, window_len: u64, f: &mut dyn FnMut(&[Arc<EvidenceRecord>]) -> bool) {
        let window_len = window_len.max(1);
        let end = self.len();
        let mut start = 0u64;
        while start < end {
            let window = self.snapshot_range(start..(start + window_len).min(end));
            if window.is_empty() || !f(&window) {
                break;
            }
            start += window.len() as u64;
        }
    }

    /// All records, in sequence order (full snapshot of handles — prefer
    /// [`EvidenceLog::for_each`] or [`EvidenceLog::snapshot_range`] when
    /// the whole log is not required; this clones reference counts, not
    /// record bytes).
    fn records(&self) -> Vec<Arc<EvidenceRecord>> {
        self.snapshot_range(0..self.len())
    }

    /// Records belonging to one protocol run.
    ///
    /// The default is a full scan; backends should override it with an
    /// indexed lookup (both in-tree backends keep a `RunId → seqs` index).
    fn by_run(&self, run_id: &RunId) -> Vec<Arc<EvidenceRecord>> {
        self.records()
            .into_iter()
            .filter(|r| r.draft.run_id == *run_id)
            .collect()
    }

    /// Counts records matching `pred` without cloning any.
    fn count_where(&self, pred: &dyn Fn(&EvidenceRecord) -> bool) -> u64 {
        let mut count = 0;
        self.for_each(&mut |r| {
            if pred(r) {
                count += 1;
            }
        });
        count
    }

    /// How this backend makes appends durable. Defaults to
    /// [`DurabilityClass::Volatile`] (no stable storage); persistent
    /// backends override it.
    fn durability_class(&self) -> DurabilityClass {
        DurabilityClass::Volatile
    }

    /// `true` if appends buffer in memory until an epoch seal or an
    /// explicit [`EvidenceLog::flush`] (a [`FileLog`] under
    /// [`SyncPolicy::GroupCommit`]). Lets assemblies validate that a
    /// buffering backend is actually paired with a sealing commitment
    /// policy — without one, nothing would ever reach the disk.
    fn buffers_appends(&self) -> bool {
        self.durability_class() == DurabilityClass::GroupCommit
    }

    /// Remaining capacity, in bytes, of the append buffer — `None` when
    /// the backend does not buffer (or does not bound its buffer). Lets
    /// a scheduler seal *before* an append would overflow the cap,
    /// instead of discovering the overflow as an append error.
    fn buffer_headroom(&self) -> Option<u64> {
        None
    }

    /// Forces any buffered appends to durable storage.
    ///
    /// A no-op for backends without a durability boundary (the in-memory
    /// log, or a [`FileLog`] under [`SyncPolicy::WriteThrough`], whose
    /// appends are already synced). Under [`SyncPolicy::GroupCommit`] it
    /// **waits** for a barrier covering every appended record — the last
    /// submission's own when nothing was appended since, otherwise one it
    /// submits — the synchronous durability point of the async pipeline
    /// (and the signature-free health probe the scheduler's degraded path
    /// relies on).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the write or fsync fails; the buffered
    /// records stay pending, so a later flush retries them.
    fn flush(&self) -> Result<(), StoreError> {
        Ok(())
    }

    /// Begins making buffered appends durable *without* waiting for the
    /// device barrier, returning a [`DurabilityTicket`] to wait on (or
    /// poll) later.
    ///
    /// The default — correct for every synchronous backend — performs a
    /// plain [`EvidenceLog::flush`] and returns an already-completed
    /// ticket; only a [`SyncPolicy::GroupCommit`] file log overrides
    /// this with a real async handoff.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] if the handoff (or, for synchronous
    /// backends, the flush itself) fails. Errors of the *asynchronous*
    /// barrier are reported through the ticket and consumed by the next
    /// flush or seal.
    fn flush_async(&self) -> Result<DurabilityTicket, StoreError> {
        self.flush()?;
        Ok(DurabilityTicket::ready())
    }

    /// The chain head: the hash of the last record ([`Digest::ZERO`] for
    /// an empty log).
    fn head(&self) -> Digest;

    /// Number of records.
    fn len(&self) -> u64;

    /// `true` if the log is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Verifies the hash chain, reading the log in bounded windows so
    /// the backend's lock is not held while records are re-hashed (a
    /// concurrent appender only ever waits one window's snapshot).
    ///
    /// # Errors
    ///
    /// Returns the first [`ChainViolation`].
    fn verify(&self) -> Result<(), ChainViolation> {
        let mut verifier = ChainVerifier::new();
        self.for_each_window(256, &mut |window| {
            for record in window {
                verifier.check(record);
            }
            !verifier.violated()
        });
        verifier.finish()
    }

    /// Total serialized bytes of all records (space-overhead experiment).
    fn total_bytes(&self) -> u64 {
        let mut total = 0u64;
        self.for_each(&mut |r| total += r.byte_len() as u64);
        total
    }
}

/// Shared backend state: the records (behind `Arc`, so snapshots clone
/// reference counts only), the cached chain head, and the
/// `RunId → sequence numbers` index.
#[derive(Debug, Default)]
struct LogState {
    records: Vec<Arc<EvidenceRecord>>,
    head: Digest,
    run_index: HashMap<RunId, Vec<u64>>,
}

/// Records chained onto a [`LogState`]'s head, and the head after them.
type Chained = (Vec<Arc<EvidenceRecord>>, Digest);

impl LogState {
    /// Builds the state for already-verified records loaded from disk,
    /// with `head` as verified (so the tail record is not re-hashed).
    fn from_records(records: Vec<EvidenceRecord>, head: Digest) -> Self {
        let mut state = Self {
            head,
            ..Self::default()
        };
        records.into_iter().for_each(|r| state.push(Arc::new(r)));
        state
    }

    /// Stores and indexes `record`.
    fn push(&mut self, record: Arc<EvidenceRecord>) {
        self.run_index
            .entry(record.draft.run_id)
            .or_default()
            .push(record.seq);
        self.records.push(record);
    }

    /// Chains `drafts` onto the head, encoding each once in the thread's
    /// scratch writer for its hash and for `frame`, and returns the
    /// records and the new head unstored: nothing is stored before
    /// [`LogState::commit`], so no failed write leaves a record in memory.
    fn chain(
        &self,
        drafts: Vec<RecordDraft>,
        mut frame: impl FnMut(&[u8]) -> Result<(), StoreError>,
    ) -> Result<Chained, StoreError> {
        let mut head = self.head;
        let mut records = Vec::with_capacity(drafts.len());
        for draft in drafts {
            let record = EvidenceRecord {
                seq: (self.records.len() + records.len()) as u64,
                prev_hash: head,
                draft,
            };
            head = with_scratch(|w| {
                record.encode(w);
                frame(w.as_slice()).map(|()| sha256(w.as_slice()))
            })?;
            records.push(Arc::new(record));
        }
        Ok((records, head))
    }

    /// Stores a batch [`LogState::chain`] made, once it is persisted.
    fn commit(&mut self, (records, head): Chained) -> Vec<Arc<EvidenceRecord>> {
        self.head = head;
        records.iter().for_each(|r| self.push(Arc::clone(r)));
        records
    }

    fn snapshot_range(&self, range: Range<u64>) -> Vec<Arc<EvidenceRecord>> {
        let len = self.records.len() as u64;
        let start = range.start.min(len) as usize;
        let end = range.end.min(len) as usize;
        self.records[start..start.max(end)].to_vec()
    }

    fn by_run(&self, run_id: &RunId) -> Vec<Arc<EvidenceRecord>> {
        match self.run_index.get(run_id) {
            Some(seqs) => seqs
                .iter()
                .map(|&s| Arc::clone(&self.records[s as usize]))
                .collect(),
            None => Vec::new(),
        }
    }
}

/// In-memory evidence log.
#[derive(Debug, Default)]
pub struct MemoryLog {
    state: Mutex<LogState>,
}

impl MemoryLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EvidenceLog for MemoryLog {
    fn append(&self, draft: RecordDraft) -> Result<Arc<EvidenceRecord>, StoreError> {
        self.append_all(vec![draft]).map(|mut r| r.remove(0))
    }

    fn append_all(&self, drafts: Vec<RecordDraft>) -> Result<Vec<Arc<EvidenceRecord>>, StoreError> {
        let mut state = self.state.lock();
        let chained = state.chain(drafts, |_| Ok(()))?;
        Ok(state.commit(chained))
    }

    fn for_each(&self, f: &mut dyn FnMut(&EvidenceRecord)) {
        for rec in &self.state.lock().records {
            f(rec);
        }
    }

    fn snapshot_range(&self, range: Range<u64>) -> Vec<Arc<EvidenceRecord>> {
        self.state.lock().snapshot_range(range)
    }

    fn by_run(&self, run_id: &RunId) -> Vec<Arc<EvidenceRecord>> {
        self.state.lock().by_run(run_id)
    }

    fn head(&self) -> Digest {
        self.state.lock().head
    }

    fn len(&self) -> u64 {
        self.state.lock().records.len() as u64
    }
}

/// Append-only file-backed evidence log.
///
/// On-disk format: a sequence of `u32` little-endian length prefixes, each
/// followed by one canonically-encoded [`EvidenceRecord`]. The whole log is
/// loaded and chain-verified on open (rebuilding the head cache and run
/// index). Durability of appends is governed by [`SyncPolicy`]: written
/// and fsynced per append ([`SyncPolicy::WriteThrough`], the default) or
/// buffered and handed to the sync thread once per epoch seal
/// ([`SyncPolicy::GroupCommit`]).
#[derive(Debug)]
pub struct FileLog {
    path: PathBuf,
    policy: SyncPolicy,
    /// Bytes discarded as a torn tail by recovery at open (0 for strict
    /// opens and clean files).
    recovery_dropped: u64,
    inner: Mutex<FileLogInner>,
}

#[derive(Debug)]
struct FileLogInner {
    file: File,
    /// Committed on-disk length, tracked so the error path can truncate
    /// a partial write without a per-append stat.
    file_len: u64,
    /// Encoded-but-unwritten records: length-prefixed frames exactly as
    /// they will land on disk, so one handoff (one step's batch under
    /// [`SyncPolicy::WriteThrough`]) is a single contiguous write.
    pending: Vec<u8>,
    /// Number of records buffered in `pending` ([`SyncPolicy::GroupCommit`]).
    pending_records: u64,
    /// Fail-stop latch: set when a failed write could not be truncated
    /// away either, i.e. `file_len` may no longer describe the real
    /// file and stray bytes may sit past the committed prefix. Writing
    /// anything more would interleave with that garbage or, worse, let
    /// a later error-path truncation chop into fsynced records — so
    /// every subsequent append/flush refuses instead.
    poisoned: bool,
    /// Successful write-through `fsync`s (append batches and flushes).
    syncs: u64,
    /// The group-commit sync thread ([`SyncPolicy::GroupCommit`] only).
    /// Owns its own handle to the file; under this policy all writes go
    /// through it and `file`/`file_len` above stay at their open-time
    /// values.
    group: Option<GroupCommitQueue>,
    /// Ticket of the most recent group-commit submission (epoch seal or
    /// async flush), so callers can await the seal they just triggered.
    last_ticket: Option<DurabilityTicket>,
    state: LogState,
}

impl FileLogInner {
    fn check_poisoned(&self) -> Result<(), StoreError> {
        if self.poisoned {
            return Err(StoreError::Corrupt(
                "log poisoned: a failed write could not be rolled back; \
                 reopen with open_recover to restore the durable prefix"
                    .into(),
            ));
        }
        Ok(())
    }

    /// Write-through `flush`: nothing is ever buffered, so this is a
    /// bare fsync — `flush` doubles as a device health probe, and callers
    /// that use it to check whether a previously failing disk has
    /// recovered (the scheduler's degraded-seal probe) get a real answer.
    fn flush_pending(&mut self) -> Result<(), StoreError> {
        self.check_poisoned()?;
        self.file.sync_data()?;
        self.syncs += 1;
        Ok(())
    }

    /// Persists the `records` just framed into `pending`: one write and
    /// one barrier under write-through; under group commit they stay
    /// buffered until a batch that `seals` an epoch hands them off.
    fn persist(&mut self, policy: SyncPolicy, records: u64, seals: bool) -> Result<(), StoreError> {
        match policy {
            SyncPolicy::WriteThrough => {
                let file = &mut self.file;
                let written = file.write_all(&self.pending);
                if let Err(e) = written.and_then(|()| file.sync_data()) {
                    // Truncate the partial write so stray bytes cannot
                    // corrupt the file ahead of later appends; if even
                    // that fails, fail-stop (see `poisoned`).
                    if self.file.set_len(self.file_len).is_err() {
                        self.poisoned = true;
                    }
                    return Err(e.into());
                }
                self.file_len += self.pending.len() as u64;
                self.syncs += 1;
                self.pending.clear();
            }
            SyncPolicy::GroupCommit => {
                self.pending_records += records;
                if seals {
                    // The handoff consumes an earlier barrier's async
                    // failure, which fails this seal instead.
                    self.enqueue_pending()
                        .inspect_err(|_| self.pending_records -= records)?;
                }
            }
        }
        Ok(())
    }

    /// The group-commit durability barrier behind `flush`/`flush_async`.
    /// With nothing buffered and the last submission not known to have
    /// failed, that submission's ticket already covers every appended
    /// record (frames land in submission order, a failed frame's bytes
    /// ahead of newer ones), so it is returned instead of queueing an
    /// empty frame behind it — a durable seal costs one device barrier,
    /// not two. Otherwise the pending buffer is submitted; empty, it is
    /// the pure barrier that retries a failed frame's backlog (the probe
    /// the scheduler's degraded path relies on). Either way an earlier
    /// barrier's recorded async error is consumed first.
    fn barrier(&mut self) -> Result<DurabilityTicket, StoreError> {
        if self.pending.is_empty() {
            if let Some(ticket) = &self.last_ticket {
                if !ticket.is_complete() || ticket.wait_durable().is_ok() {
                    self.queue().take_error()?;
                    return Ok(ticket.clone());
                }
            }
        }
        self.enqueue_pending()
    }

    fn queue(&self) -> &GroupCommitQueue {
        self.group
            .as_ref()
            .expect("GroupCommit policy without queue")
    }

    /// Hands the pending buffer (possibly empty — then a pure barrier)
    /// to the group-commit sync thread, consuming any async completion
    /// error from an earlier barrier first. On failure the buffer is
    /// left exactly as it was, so the caller can roll back an epoch
    /// frame or retry later.
    fn enqueue_pending(&mut self) -> Result<DurabilityTicket, StoreError> {
        self.queue().take_error()?;
        let bytes = std::mem::take(&mut self.pending);
        let records = self.pending_records;
        self.pending_records = 0;
        match self.queue().submit(bytes, records) {
            Ok(ticket) => {
                self.last_ticket = Some(ticket.clone());
                Ok(ticket)
            }
            Err((bytes, e)) => {
                self.pending = bytes;
                self.pending_records = records;
                Err(e)
            }
        }
    }
}

impl FileLog {
    /// Upper bound on bytes buffered under [`SyncPolicy::GroupCommit`]
    /// before appends start failing. The seal policy is supposed to
    /// bound the buffer at a batch or a deadline's worth of records; a
    /// buffer anywhere near this size means sealing (or the disk under
    /// it) is broken, and failing the append surfaces that instead of
    /// growing without bound toward an OOM kill — which would lose the
    /// whole buffered tail anyway.
    const MAX_BUFFERED_BYTES: usize = 64 << 20;

    /// Opens (or creates) the log at `path`, verifying any existing
    /// chain. Opens under [`SyncPolicy::WriteThrough`] — the policy is a
    /// property of the handle, not of the file, so a `GroupCommit`
    /// deployment must reopen with [`FileLog::open_with`] to keep its
    /// grouped-fsync behaviour.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O failure, undecodable bytes or a chain
    /// violation. A file truncated mid-append fails too — use
    /// [`FileLog::open_recover`] to discard a torn tail instead.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_impl(path.as_ref(), false, SyncPolicy::WriteThrough)
    }

    /// [`FileLog::open`] with an explicit durability policy.
    ///
    /// # Errors
    ///
    /// As [`FileLog::open`].
    pub fn open_with(path: impl AsRef<Path>, policy: SyncPolicy) -> Result<Self, StoreError> {
        Self::open_impl(path.as_ref(), false, policy)
    }

    /// Opens the log, discarding a torn tail left by a crash mid-write.
    /// Like [`FileLog::open`], the handle comes back under
    /// [`SyncPolicy::WriteThrough`] (safe but fsync-per-append) — a
    /// `GroupCommit` deployment recovering after a crash should use
    /// [`FileLog::open_recover_with`] to keep its grouped-fsync policy.
    ///
    /// A process killed mid-write can leave a partial length prefix or a
    /// partial record at the end of the file; the torn region can span
    /// several records of the final write (one step's batch under
    /// [`SyncPolicy::WriteThrough`], a coalesced batch under
    /// [`SyncPolicy::GroupCommit`]). None of those bytes are
    /// covered by an acknowledged barrier, so dropping them restores
    /// the last consistent prefix: the file is truncated back to the end
    /// of the last complete record and the log reopens cleanly
    /// (subsequent appends — including a re-seal of any unsealed epoch
    /// range — continue the chain from the recovered head).
    ///
    /// Corruption *inside* the retained prefix (undecodable record
    /// bytes, a broken chain link) still fails: recovery never masks
    /// tampering with record *content*. One caveat is inherent to the
    /// framing: a corrupted **length prefix** mid-file is
    /// indistinguishable from a torn tail (both claim more bytes than
    /// remain), so recovery truncates there — possibly dropping flushed
    /// records. The store cannot tell those apart by itself, which is
    /// why the drop is *reported*
    /// ([`FileLog::recovery_dropped_bytes`]: alarm when it exceeds one
    /// buffered batch) and why such a loss cannot be hidden from a
    /// counterparty — at adjudication the shortened history contradicts
    /// the tokens and epoch roots the other side holds.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError`] on I/O failure, mid-file corruption or a
    /// chain violation.
    pub fn open_recover(path: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_impl(path.as_ref(), true, SyncPolicy::WriteThrough)
    }

    /// [`FileLog::open_recover`] with an explicit durability policy.
    ///
    /// # Errors
    ///
    /// As [`FileLog::open_recover`].
    pub fn open_recover_with(
        path: impl AsRef<Path>,
        policy: SyncPolicy,
    ) -> Result<Self, StoreError> {
        Self::open_impl(path.as_ref(), true, policy)
    }

    fn open_impl(path: &Path, recover: bool, policy: SyncPolicy) -> Result<Self, StoreError> {
        let path = path.to_path_buf();
        let mut records = Vec::new();
        let mut verifier = ChainVerifier::new();
        let mut file_len = 0u64;
        let mut original_len = 0u64;
        if path.exists() {
            let mut bytes = Vec::new();
            BufReader::new(File::open(&path)?).read_to_end(&mut bytes)?;
            file_len = bytes.len() as u64;
            original_len = file_len;
            let mut offset = 0usize;
            while offset < bytes.len() {
                if offset + 4 > bytes.len() {
                    if recover {
                        file_len = offset as u64;
                        break;
                    }
                    return Err(StoreError::Corrupt("truncated length prefix".into()));
                }
                let len = u32::from_le_bytes([
                    bytes[offset],
                    bytes[offset + 1],
                    bytes[offset + 2],
                    bytes[offset + 3],
                ]) as usize;
                if offset + 4 + len > bytes.len() {
                    if recover {
                        file_len = offset as u64;
                        break;
                    }
                    return Err(StoreError::Corrupt("truncated record".into()));
                }
                offset += 4;
                let mut r = Reader::new(&bytes[offset..offset + len]);
                let record = EvidenceRecord::decode(&mut r)
                    .map_err(|e| StoreError::Corrupt(e.to_string()))?;
                r.finish().map_err(|e| StoreError::Corrupt(e.to_string()))?;
                verifier.check(&record);
                records.push(record);
                offset += len;
            }
        }
        // The verifier's running head doubles as the cached chain head,
        // so the tail record is not re-encoded and re-hashed.
        let head = verifier.head();
        verifier.finish().map_err(StoreError::Chain)?;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        if recover {
            // Drop the torn tail so later appends extend the recovered
            // prefix instead of interleaving with garbage bytes.
            file.set_len(file_len)?;
        }
        let record_count = records.len() as u64;
        // Under group commit all writes go through a dedicated sync
        // thread, which gets its own handle (same file description — the
        // append mode keeps both cursors at the end, and only the sync
        // thread ever writes).
        let group = (policy == SyncPolicy::GroupCommit)
            .then(|| -> Result<GroupCommitQueue, StoreError> {
                let sync_handle = file.try_clone()?;
                Ok(GroupCommitQueue::spawn(sync_handle, file_len, record_count))
            })
            .transpose()?;
        Ok(Self {
            path,
            policy,
            recovery_dropped: original_len - file_len,
            inner: Mutex::new(FileLogInner {
                file,
                file_len,
                pending: Vec::new(),
                pending_records: 0,
                poisoned: false,
                syncs: 0,
                group,
                last_ticket: None,
                state: LogState::from_records(records, head),
            }),
        })
    }

    /// The path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The durability policy this log was opened with.
    pub fn sync_policy(&self) -> SyncPolicy {
        self.policy
    }

    /// Bytes [`FileLog::open_recover`] discarded as a torn tail (0 when
    /// nothing was dropped, or the log was opened strictly). A genuine
    /// crash drops at most one buffered batch; a value far beyond that
    /// suggests mid-file framing corruption and deserves an alarm (see
    /// the caveat on [`FileLog::open_recover`]).
    pub fn recovery_dropped_bytes(&self) -> u64 {
        self.recovery_dropped
    }

    /// Number of appended records not yet written + fsynced to disk
    /// (always 0 under [`SyncPolicy::WriteThrough`]). Under
    /// [`SyncPolicy::GroupCommit`] this counts both the pending
    /// (un-enqueued) buffer and frames in flight whose barrier has not
    /// completed yet — the tail a kill right now would lose.
    pub fn unflushed_len(&self) -> u64 {
        let inner = self.inner.lock();
        match &inner.group {
            Some(queue) => {
                (inner.state.records.len() as u64).saturating_sub(queue.durable_records())
            }
            None => inner.pending_records,
        }
    }

    /// The [`DurabilityTicket`] of the most recent group-commit
    /// submission (epoch seal or [`EvidenceLog::flush_async`]), if any —
    /// `None` for other policies or before the first seal. Lets a caller
    /// that just sealed await exactly that barrier instead of issuing a
    /// second one.
    pub fn last_seal_ticket(&self) -> Option<DurabilityTicket> {
        self.inner.lock().last_ticket.clone()
    }

    /// Successful device barriers since open: one per append call and per
    /// `flush` under [`SyncPolicy::WriteThrough`], one per landed batch
    /// under [`SyncPolicy::GroupCommit`] (fewer barriers than epoch seals
    /// is the coalescing win). Exposed for monitors and benches.
    pub fn sync_batches(&self) -> u64 {
        let inner = self.inner.lock();
        inner
            .group
            .as_ref()
            .map_or(inner.syncs, GroupCommitQueue::batches_synced)
    }

    /// Test hook: make the next `n` group-commit barriers fail without
    /// touching the file (models a transient device outage).
    #[cfg(test)]
    pub(crate) fn inject_barrier_failures(&self, n: u32) {
        self.inner
            .lock()
            .group
            .as_ref()
            .expect("not a GroupCommit log")
            .inject_barrier_failures(n);
    }

    /// Test hook: park (or release) the group-commit sync thread, so a
    /// burst of seals queues up behind one in-flight barrier.
    #[cfg(test)]
    pub(crate) fn hold_barriers(&self, held: bool) {
        self.inner
            .lock()
            .group
            .as_ref()
            .expect("not a GroupCommit log")
            .hold_barriers(held);
    }
}

impl Drop for FileLog {
    /// Best-effort flush of any buffered tail, so a *clean* shutdown
    /// under [`SyncPolicy::GroupCommit`] loses nothing. (A kill, by
    /// definition, skips this — that is the loss window the policy
    /// documents.) The pending buffer is enqueued and the queue's own
    /// drop then drains the channel and joins the sync thread, landing
    /// every submitted frame. Write-through logs skip it entirely: every
    /// append already fsynced, and an empty-buffer flush would pay a
    /// redundant device barrier per dropped handle.
    fn drop(&mut self) {
        match self.policy {
            SyncPolicy::WriteThrough => {}
            SyncPolicy::GroupCommit => {
                let mut inner = self.inner.lock();
                if !inner.pending.is_empty() {
                    // An unconsumed async failure must not block the
                    // final drain: the first attempt may merely consume
                    // it, so try once more — the sync thread retries its
                    // backlog together with this frame on the way out.
                    if inner.enqueue_pending().is_err() {
                        let _ = inner.enqueue_pending();
                    }
                }
                // Dropping the queue closes the channel, drains every
                // submitted frame to disk and joins the sync thread.
                inner.group.take();
            }
        }
    }
}

impl EvidenceLog for FileLog {
    fn append(&self, draft: RecordDraft) -> Result<Arc<EvidenceRecord>, StoreError> {
        self.append_all(vec![draft]).map(|mut r| r.remove(0))
    }

    fn append_all(&self, drafts: Vec<RecordDraft>) -> Result<Vec<Arc<EvidenceRecord>>, StoreError> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        inner.check_poisoned()?;
        if let Some(queue) = &inner.group {
            // Fail-stop propagates from the sync thread: once the queue
            // is poisoned nothing will ever become durable, so refusing
            // the append beats buffering toward guaranteed loss.
            queue.check_poisoned()?;
        }
        if drafts.is_empty() {
            return Ok(Vec::new());
        }
        let records = drafts.len() as u64;
        let seals = drafts.iter().any(|d| d.kind == EPOCH_KIND);
        // Only a group-commit buffer is capped, and a seal is exempt: it
        // is what *drains* a full buffer, after it spent a signature.
        let cap = match self.policy {
            SyncPolicy::GroupCommit if !seals => Self::MAX_BUFFERED_BYTES,
            _ => usize::MAX,
        };
        let start = inner.pending.len();
        let pending = &mut inner.pending;
        let chained = inner.state.chain(drafts, |encoded| {
            let len = u32::try_from(encoded.len())
                .map_err(|_| StoreError::Corrupt("record too large".into()))?;
            if pending.len() + 4 + encoded.len() > cap {
                // Backpressure, not corruption: the log on disk is intact.
                return Err(StoreError::Unavailable(format!(
                    "evidence buffer full ({cap} byte cap) — epoch sealing (or \
                     the disk under it) appears stuck; seal or flush the log"
                )));
            }
            pending.extend_from_slice(&len.to_le_bytes());
            pending.extend_from_slice(encoded);
            Ok(())
        });
        match chained.and_then(|c| inner.persist(self.policy, records, seals).map(|()| c)) {
            Ok(chained) => Ok(inner.state.commit(chained)),
            Err(e) => {
                // All or nothing: no frame stays buffered, no record chained.
                inner.pending.truncate(start);
                Err(e)
            }
        }
    }

    fn durability_class(&self) -> DurabilityClass {
        match self.policy {
            SyncPolicy::WriteThrough => DurabilityClass::Synchronous,
            SyncPolicy::GroupCommit => DurabilityClass::GroupCommit,
        }
    }

    fn buffer_headroom(&self) -> Option<u64> {
        match self.policy {
            SyncPolicy::WriteThrough => None,
            SyncPolicy::GroupCommit => Some(
                (Self::MAX_BUFFERED_BYTES as u64)
                    .saturating_sub(self.inner.lock().pending.len() as u64),
            ),
        }
    }

    fn flush(&self) -> Result<(), StoreError> {
        match self.policy {
            SyncPolicy::WriteThrough => self.inner.lock().flush_pending(),
            SyncPolicy::GroupCommit => {
                // Take the barrier's ticket, then wait *outside* the log's
                // lock so appenders keep running while the disk syncs —
                // the whole point of the group-commit design.
                let ticket = self.inner.lock().barrier()?;
                ticket.wait_durable()
            }
        }
    }

    fn flush_async(&self) -> Result<DurabilityTicket, StoreError> {
        match self.policy {
            SyncPolicy::WriteThrough => {
                self.inner.lock().flush_pending()?;
                Ok(DurabilityTicket::ready())
            }
            SyncPolicy::GroupCommit => self.inner.lock().barrier(),
        }
    }

    fn for_each(&self, f: &mut dyn FnMut(&EvidenceRecord)) {
        for rec in &self.inner.lock().state.records {
            f(rec);
        }
    }

    fn snapshot_range(&self, range: Range<u64>) -> Vec<Arc<EvidenceRecord>> {
        self.inner.lock().state.snapshot_range(range)
    }

    fn by_run(&self, run_id: &RunId) -> Vec<Arc<EvidenceRecord>> {
        self.inner.lock().state.by_run(run_id)
    }

    fn head(&self) -> Digest {
        self.inner.lock().state.head
    }

    fn len(&self) -> u64 {
        self.inner.lock().state.records.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nonrep_types::ids::OrgId;
    use nonrep_types::time::Timestamp;

    fn draft(n: u64) -> RecordDraft {
        RecordDraft {
            run_id: RunId::from_u128(u128::from(n % 3)),
            kind: format!("kind-{n}"),
            actor: OrgId::new("org"),
            at: Timestamp(n),
            content_digest: sha256(&n.to_le_bytes()),
            payload: vec![n as u8; 8],
        }
    }

    #[test]
    fn memory_log_appends_and_chains() {
        let log = MemoryLog::new();
        for i in 0..5 {
            let rec = log.append(draft(i)).unwrap();
            assert_eq!(rec.seq, i);
        }
        assert_eq!(log.len(), 5);
        assert!(!log.is_empty());
        log.verify().unwrap();
    }

    #[test]
    fn head_tracks_last_record_hash() {
        let log = MemoryLog::new();
        assert_eq!(log.head(), Digest::ZERO);
        let mut expected = Digest::ZERO;
        for i in 0..4 {
            let rec = log.append(draft(i)).unwrap();
            assert_eq!(rec.prev_hash, expected, "append chains from cached head");
            expected = rec.record_hash();
            assert_eq!(log.head(), expected);
        }
    }

    #[test]
    fn by_run_filters() {
        let log = MemoryLog::new();
        for i in 0..6 {
            log.append(draft(i)).unwrap();
        }
        let run0 = log.by_run(&RunId::from_u128(0));
        assert_eq!(run0.len(), 2);
        assert!(run0.iter().all(|r| r.draft.run_id == RunId::from_u128(0)));
    }

    #[test]
    fn by_run_index_consistent_after_interleaved_appends() {
        // Interleave appends across runs and check the indexed lookup
        // matches a full filtering scan, in order, for every run.
        let log = MemoryLog::new();
        for i in 0..40 {
            log.append(draft(i * 7 % 13)).unwrap();
        }
        for run in 0..3u128 {
            let run_id = RunId::from_u128(run);
            let indexed = log.by_run(&run_id);
            let scanned: Vec<Arc<EvidenceRecord>> = log
                .records()
                .into_iter()
                .filter(|r| r.draft.run_id == run_id)
                .collect();
            assert_eq!(indexed, scanned, "run {run}");
            assert!(
                indexed.windows(2).all(|w| w[0].seq < w[1].seq),
                "ordered by seq"
            );
        }
        assert!(log.by_run(&RunId::from_u128(99)).is_empty());
    }

    #[test]
    fn for_each_visits_in_order_without_clone() {
        let log = MemoryLog::new();
        for i in 0..7 {
            log.append(draft(i)).unwrap();
        }
        let mut seqs = Vec::new();
        log.for_each(&mut |r| seqs.push(r.seq));
        assert_eq!(seqs, (0..7).collect::<Vec<u64>>());
    }

    #[test]
    fn for_each_window_covers_log_and_stops_early() {
        let log = MemoryLog::new();
        for i in 0..10 {
            log.append(draft(i)).unwrap();
        }
        // Window of 4 over 10 records → windows of 4, 4, 2.
        let mut sizes = Vec::new();
        let mut seqs = Vec::new();
        log.for_each_window(4, &mut |w| {
            sizes.push(w.len());
            seqs.extend(w.iter().map(|r| r.seq));
            true
        });
        assert_eq!(sizes, [4, 4, 2]);
        assert_eq!(seqs, (0..10).collect::<Vec<u64>>());
        // Returning false stops after the first window.
        let mut windows = 0;
        log.for_each_window(4, &mut |_| {
            windows += 1;
            false
        });
        assert_eq!(windows, 1);
        // A zero window length is clamped, not an infinite loop.
        let mut total = 0;
        log.for_each_window(0, &mut |w| {
            total += w.len();
            true
        });
        assert_eq!(total, 10);
    }

    #[test]
    fn snapshot_range_clamps() {
        let log = MemoryLog::new();
        for i in 0..5 {
            log.append(draft(i)).unwrap();
        }
        assert_eq!(
            log.snapshot_range(1..3)
                .iter()
                .map(|r| r.seq)
                .collect::<Vec<_>>(),
            [1, 2]
        );
        assert_eq!(log.snapshot_range(3..100).len(), 2);
        assert!(log.snapshot_range(7..9).is_empty());
        assert_eq!(log.snapshot_range(0..5), log.records());
    }

    #[test]
    fn total_bytes_positive() {
        let log = MemoryLog::new();
        log.append(draft(0)).unwrap();
        assert!(log.total_bytes() > 0);
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("nonrep-test-{}-{name}", std::process::id()));
        p
    }

    #[test]
    fn write_through_counts_one_barrier_per_append_and_per_flush() {
        let path = temp_path("wt-barriers.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.sync_batches(), 0);
        for i in 0..3 {
            log.append(draft(i)).unwrap();
            assert_eq!(log.sync_batches(), i + 1);
        }
        log.flush().unwrap();
        assert_eq!(log.sync_batches(), 4);
        log.flush_async().unwrap();
        assert_eq!(log.sync_batches(), 5);
        drop(log);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_log_persists_across_reopen() {
        let path = temp_path("persist.log");
        let _ = std::fs::remove_file(&path);
        {
            let log = FileLog::open(&path).unwrap();
            for i in 0..4 {
                log.append(draft(i)).unwrap();
            }
            log.verify().unwrap();
        }
        {
            let log = FileLog::open(&path).unwrap();
            assert_eq!(log.len(), 4);
            log.verify().unwrap();
            // Appending continues the chain from the rebuilt head cache.
            let rec = log.append(draft(4)).unwrap();
            assert_eq!(rec.seq, 4);
            log.verify().unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_log_rebuilds_run_index_on_reopen() {
        let path = temp_path("reindex.log");
        let _ = std::fs::remove_file(&path);
        {
            let log = FileLog::open(&path).unwrap();
            for i in 0..9 {
                log.append(draft(i)).unwrap();
            }
        }
        let log = FileLog::open(&path).unwrap();
        let run1 = log.by_run(&RunId::from_u128(1));
        assert_eq!(run1.iter().map(|r| r.seq).collect::<Vec<_>>(), [1, 4, 7]);
        // Index keeps absorbing post-reopen appends.
        log.append(draft(1)).unwrap();
        assert_eq!(log.by_run(&RunId::from_u128(1)).len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_log_detects_tampering_on_open() {
        let path = temp_path("tamper.log");
        let _ = std::fs::remove_file(&path);
        {
            let log = FileLog::open(&path).unwrap();
            for i in 0..3 {
                log.append(draft(i)).unwrap();
            }
        }
        // Flip a byte somewhere in the middle of the file.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let err = FileLog::open(&path).unwrap_err();
        assert!(
            matches!(err, StoreError::Chain(_) | StoreError::Corrupt(_)),
            "unexpected error: {err:?}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_log_detects_truncated_record() {
        let path = temp_path("trunc.log");
        let _ = std::fs::remove_file(&path);
        {
            let log = FileLog::open(&path).unwrap();
            log.append(draft(0)).unwrap();
        }
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        assert!(matches!(
            FileLog::open(&path).unwrap_err(),
            StoreError::Corrupt(_)
        ));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn file_log_recovers_from_torn_tail() {
        for cut in [1usize, 3, 10] {
            let path = temp_path(&format!("recover-{cut}.log"));
            let _ = std::fs::remove_file(&path);
            {
                let log = FileLog::open(&path).unwrap();
                for i in 0..5 {
                    log.append(draft(i)).unwrap();
                }
            }
            // Simulate a crash mid-append: chop `cut` bytes off the tail,
            // leaving a partial record (or partial length prefix).
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() - cut]).unwrap();
            // Strict open refuses; recovery drops the torn record.
            assert!(matches!(
                FileLog::open(&path).unwrap_err(),
                StoreError::Corrupt(_)
            ));
            let log = FileLog::open_recover(&path).unwrap();
            assert_eq!(log.len(), 4, "cut={cut}: torn record 4 dropped");
            log.verify().unwrap();
            // Appends continue the recovered chain, and a strict reopen
            // then succeeds (the torn bytes are gone from disk).
            log.append(draft(99)).unwrap();
            drop(log);
            let log = FileLog::open(&path).unwrap();
            assert_eq!(log.len(), 5);
            log.verify().unwrap();
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn recovery_does_not_mask_mid_file_corruption() {
        let path = temp_path("recover-corrupt.log");
        let _ = std::fs::remove_file(&path);
        {
            let log = FileLog::open(&path).unwrap();
            for i in 0..4 {
                log.append(draft(i)).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            FileLog::open_recover(&path).is_err(),
            "tampering inside the prefix must still be rejected"
        );
        let _ = std::fs::remove_file(&path);
    }

    /// Epoch-commitment-shaped draft (kind only — these tests exercise
    /// the store's durability boundary, not commitment verification).
    fn epoch_draft(n: u64) -> RecordDraft {
        RecordDraft {
            kind: EPOCH_KIND.to_string(),
            ..draft(n)
        }
    }

    /// Simulates a kill: the buffered tail vanishes without the `Drop`
    /// flush running. Leaks the file handle — fine for a test process.
    fn kill(log: FileLog) {
        std::mem::forget(log);
    }

    #[test]
    fn per_epoch_buffers_until_epoch_record_lands() {
        // Appends buffer until an epoch commitment lands. Nothing
        // reaches the file before; the whole buffer is handed off with
        // it.
        let path = temp_path("buffered.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap();
        for i in 0..3 {
            log.append(draft(i)).unwrap();
        }
        assert_eq!(log.unflushed_len(), 3);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        assert!(log.buffer_headroom().unwrap() < FileLog::MAX_BUFFERED_BYTES as u64);
        log.append(epoch_draft(3)).unwrap();
        assert_eq!(
            log.buffer_headroom(),
            Some(FileLog::MAX_BUFFERED_BYTES as u64),
            "the epoch handed the buffer off"
        );
        log.last_seal_ticket().unwrap().wait_durable().unwrap();
        assert_eq!(log.unflushed_len(), 0);
        kill(log);
        assert_eq!(FileLog::open(&path).unwrap().len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kill_before_flush_loses_only_the_unsealed_tail() {
        // K1 with both durability points in play: a sealed epoch, then
        // an unsealed range made durable by an explicit flush(), then a
        // tail that was never flushed. The kill costs exactly that tail.
        let path = temp_path("kill-k1.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap();
        for i in 0..3 {
            log.append(draft(i)).unwrap();
        }
        log.append(epoch_draft(3)).unwrap();
        log.append(draft(4)).unwrap();
        log.flush().unwrap();
        for i in 5..8 {
            log.append(draft(i)).unwrap();
        }
        assert_eq!(log.unflushed_len(), 3);
        kill(log);
        // Even the *strict* open succeeds: the flushed prefix ends on a
        // record boundary, so there is no torn tail, just fewer records.
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.len(), 5, "exactly the flushed prefix survives");
        assert_eq!(
            log.count_where(&|r| r.is_epoch_commit()),
            1,
            "the sealed epoch survives"
        );
        log.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kill_mid_write_drops_torn_suffix_of_the_batch() {
        // K3: the contiguous write of the second batch landed partially.
        // Model *every* torn offset, from one byte of the first frame to
        // all but the last byte: recovery keeps exactly the frames that
        // landed whole and nothing of the torn one.
        let path = temp_path("kill-k3-ref.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap();
        for i in 0..3 {
            log.append(draft(i)).unwrap();
        }
        log.append(epoch_draft(3)).unwrap();
        log.last_seal_ticket().unwrap().wait_durable().unwrap();
        let sealed_len = std::fs::metadata(&path).unwrap().len() as usize;
        for i in 4..7 {
            log.append(draft(i)).unwrap();
        }
        log.append(epoch_draft(7)).unwrap(); // second epoch: a 4-frame batch
        drop(log);
        let full = std::fs::read(&path).unwrap();
        // End offset of every frame, by walking the length prefixes.
        let mut frame_ends = Vec::new();
        let mut offset = 0usize;
        while offset < full.len() {
            let len = u32::from_le_bytes(full[offset..offset + 4].try_into().unwrap());
            offset += 4 + len as usize;
            frame_ends.push(offset);
        }
        assert_eq!(frame_ends.len(), 8);
        for torn_end in sealed_len + 1..full.len() {
            std::fs::write(&path, &full[..torn_end]).unwrap();
            let whole = frame_ends.iter().filter(|&&end| end <= torn_end).count();
            if !frame_ends.contains(&torn_end) {
                assert!(
                    FileLog::open(&path).is_err(),
                    "strict open must refuse a torn tail at {torn_end}"
                );
            }
            let log = FileLog::open_recover(&path).unwrap();
            assert_eq!(
                log.len(),
                whole as u64,
                "whole frames kept (torn {torn_end})"
            );
            assert_eq!(log.count_where(&|r| r.is_epoch_commit()), 1);
            log.verify().unwrap();
        }
        // The recovered log stays usable under the policy it crashed
        // with: append + seal continue the chain.
        std::fs::write(&path, &full[..sealed_len + 7]).unwrap();
        let log = FileLog::open_recover_with(&path, SyncPolicy::GroupCommit).unwrap();
        assert_eq!(log.recovery_dropped_bytes(), 7);
        log.append(draft(99)).unwrap();
        log.append(epoch_draft(100)).unwrap();
        drop(log);
        let reopened = FileLog::open(&path).unwrap();
        assert_eq!(reopened.len(), 6);
        reopened.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn kill_after_fsync_loses_nothing() {
        // K4 for write-through, whose whole contract it is: every append
        // that returned Ok already fsynced, so a kill right after costs
        // nothing — no seal, no barrier, no Drop. (The group-commit twin
        // is group_commit_kill_after_fsync_loses_nothing.)
        let path = temp_path("kill-k4.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open(&path).unwrap();
        for i in 0..5 {
            log.append(draft(i)).unwrap();
        }
        log.append(epoch_draft(5)).unwrap();
        assert_eq!(log.unflushed_len(), 0);
        kill(log);
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.len(), 6);
        assert_eq!(log.count_where(&|r| r.is_epoch_commit()), 1);
        log.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn recovery_reports_dropped_bytes_for_framing_corruption() {
        // A corrupted length prefix mid-file cannot be told apart from a
        // torn tail (both claim more bytes than remain), so recovery
        // truncates there — but the size of the drop is reported, and a
        // drop far larger than one buffered batch is the operator's
        // alarm signal. (Content tampering, by contrast, hard-fails —
        // see recovery_does_not_mask_mid_file_corruption.)
        let path = temp_path("framing.log");
        let _ = std::fs::remove_file(&path);
        {
            let log = FileLog::open(&path).unwrap();
            for i in 0..6 {
                log.append(draft(i)).unwrap();
            }
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let total = bytes.len() as u64;
        // Record 0's length prefix is at offset 0: make it huge.
        bytes[3] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(FileLog::open(&path).is_err(), "strict open refuses");
        let log = FileLog::open_recover(&path).unwrap();
        assert_eq!(log.len(), 0, "overlong frame swallows everything after");
        assert_eq!(
            log.recovery_dropped_bytes(),
            total,
            "the whole drop is visible to monitors"
        );
        drop(log);
        // A clean log reports zero.
        let path2 = temp_path("framing-clean.log");
        let _ = std::fs::remove_file(&path2);
        {
            let log = FileLog::open(&path2).unwrap();
            log.append(draft(0)).unwrap();
        }
        let log = FileLog::open_recover(&path2).unwrap();
        assert_eq!(log.recovery_dropped_bytes(), 0);
        assert_eq!(log.len(), 1);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&path2);
    }

    #[test]
    fn per_epoch_buffer_is_capped_and_cap_failure_commits_nothing() {
        let path = temp_path("buffer-cap.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap();
        // 16 MiB payloads: the 4th would cross the 64 MiB cap.
        let big = |n: u64| RecordDraft {
            payload: vec![n as u8; 16 << 20],
            ..draft(n)
        };
        for i in 0..3 {
            log.append(big(i)).unwrap();
        }
        let head_before = log.head();
        let err = log.append(big(3)).unwrap_err();
        assert!(matches!(err, StoreError::Unavailable(_)), "{err:?}");
        // The failed append committed nothing: chain, length and buffer
        // accounting are exactly as before, and the log keeps working.
        assert_eq!(log.len(), 3);
        assert_eq!(log.head(), head_before);
        assert_eq!(log.unflushed_len(), 3);
        // An epoch record is exempt from the cap — sealing is exactly
        // what drains a full buffer, so it must never be refused.
        log.append(epoch_draft(3)).unwrap();
        assert_eq!(
            log.buffer_headroom(),
            Some(FileLog::MAX_BUFFERED_BYTES as u64),
            "seal drained the full buffer"
        );
        log.last_seal_ticket().unwrap().wait_durable().unwrap();
        assert_eq!(log.unflushed_len(), 0);
        log.append(draft(4)).unwrap();
        log.verify().unwrap();
        drop(log);
        let reopened = FileLog::open(&path).unwrap();
        assert_eq!(reopened.len(), 5);
        reopened.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn append_all_is_one_write_under_one_barrier() {
        let path = temp_path("wt-append-all.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open(&path).unwrap();
        log.append(draft(0)).unwrap();
        let before = (log.sync_batches(), std::fs::metadata(&path).unwrap().len());
        assert!(log.append_all(Vec::new()).unwrap().is_empty());
        assert_eq!(
            log.sync_batches(),
            before.0,
            "an empty batch waits on nothing"
        );
        let records = log.append_all((1..4).map(draft).collect()).unwrap();
        assert_eq!(records.iter().map(|r| r.seq).collect::<Vec<_>>(), [1, 2, 3]);
        assert_eq!(
            log.sync_batches(),
            before.0 + 1,
            "three records, one barrier"
        );
        let frames: u64 = records.iter().map(|r| 4 + r.byte_len() as u64).sum();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), before.1 + frames);
        assert_eq!(log.head(), records[2].record_hash());
        kill(log);
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.len(), 4);
        log.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    /// Length, head, run-index sizes and file length of `log`.
    fn footprint(log: &FileLog) -> (u64, Digest, Vec<usize>, u64) {
        let runs = (0..3)
            .map(|r| log.by_run(&RunId::from_u128(r)).len())
            .collect();
        let file_len = std::fs::metadata(log.path()).unwrap().len();
        (log.len(), log.head(), runs, file_len)
    }

    #[test]
    fn a_failed_append_all_leaves_the_log_unchanged() {
        // Chaining fails on the second of three records: none is stored.
        let memory = MemoryLog::new();
        memory.append(draft(0)).unwrap();
        let head = memory.head();
        let mut framed = 0;
        let state = memory.state.lock();
        let failed = state.chain((1..4).map(draft).collect(), |_| {
            framed += 1;
            match framed {
                2 => Err(StoreError::Unavailable("refused".into())),
                _ => Ok(()),
            }
        });
        assert!(failed.is_err());
        drop(state);
        assert_eq!((memory.len(), memory.head()), (1, head));

        // Write-through: the write fails (a read-only handle). Nothing
        // enters the chain; the truncate fails too, so the log fails stop.
        let path = temp_path("wt-append-all-fails.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open(&path).unwrap();
        log.append(draft(0)).unwrap();
        let before = footprint(&log);
        log.inner.lock().file = File::open(&path).unwrap();
        assert!(log.append_all((1..4).map(draft).collect()).is_err());
        assert_eq!(footprint(&log), before);
        assert!(log.inner.lock().pending.is_empty());
        assert!(log.append(draft(5)).is_err(), "poisoned");
        drop(log);
        let _ = std::fs::remove_file(&path);

        // Group commit: a sealing batch whose handoff fails (it consumes
        // an earlier barrier's failure) leaves no record and no frame.
        let path = temp_path("gc-append-all-fails.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap();
        log.inject_barrier_failures(1);
        log.append_all(vec![draft(0), epoch_draft(1)]).unwrap();
        assert!(log.last_seal_ticket().unwrap().wait_durable().is_err());
        let before = footprint(&log);
        let headroom = log.buffer_headroom();
        let batch = vec![draft(2), draft(3), epoch_draft(4)];
        assert!(log.append_all(batch).is_err());
        assert_eq!(footprint(&log), before);
        assert_eq!(log.buffer_headroom(), headroom);
        assert_eq!(log.unflushed_len(), 2);
        // The disk is back: the next seal lands the backlog and itself.
        log.append_all(vec![draft(2), epoch_draft(3)]).unwrap();
        log.flush().unwrap();
        drop(log);
        assert_eq!(FileLog::open(&path).unwrap().len(), 4);
        let _ = std::fs::remove_file(&path);
    }

    // Group-commit kill-point matrix. Timeline of one epoch under
    // `GroupCommit`:
    //
    //   appends buffer … epoch record buffers … ENQUEUE … write() … fsync() … ACK
    //      G1                  G1                 G2        G3        G3     (G4: after)
    //
    // G1 (before the enqueue): the whole unsealed batch is lost. G2
    // (enqueued, sync thread never ran): same on-disk outcome — the
    // durable prefix ends at the previous barrier. G3 (mid-write): a
    // prefix of the coalesced batch lands; recovery drops the torn
    // record and everything after. G4 (after the fsync, ack not yet
    // observed): the data is durable regardless — an ack is knowledge,
    // not durability. The on-disk states of G2/G3 are simulated by file
    // surgery (truncation): a kill is indistinguishable from the state
    // it leaves on disk. The K tests above are the same matrix from the
    // caller's side: K1 adds the explicit flush() durability point, K3
    // tears the batch at every byte offset, K4 is the write-through row.

    #[test]
    fn group_commit_seal_is_async_and_barrier_makes_it_durable() {
        let path = temp_path("gc-async.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap();
        assert_eq!(log.sync_policy(), SyncPolicy::GroupCommit);
        assert_eq!(log.durability_class(), DurabilityClass::GroupCommit);
        assert!(log.buffers_appends());
        for i in 0..3 {
            log.append(draft(i)).unwrap();
        }
        assert_eq!(log.unflushed_len(), 3);
        // The seal returns once the frame is queued; the ticket is the
        // completion path.
        log.append(epoch_draft(3)).unwrap();
        let ticket = log.last_seal_ticket().expect("seal produced a ticket");
        ticket.wait_durable().unwrap();
        assert_eq!(log.unflushed_len(), 0);
        assert!(log.sync_batches() >= 1);
        let on_disk = std::fs::metadata(&path).unwrap().len();
        assert!(on_disk > 0, "barrier landed the batch");
        // flush() is the synchronous barrier for the async pipeline.
        log.append(draft(4)).unwrap();
        assert_eq!(log.unflushed_len(), 1);
        log.flush().unwrap();
        assert_eq!(log.unflushed_len(), 0);
        assert!(std::fs::metadata(&path).unwrap().len() > on_disk);
        drop(log);
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.len(), 5);
        log.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_clean_drop_drains_everything() {
        let path = temp_path("gc-drop.log");
        let _ = std::fs::remove_file(&path);
        {
            let log = FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap();
            for i in 0..3 {
                log.append(draft(i)).unwrap();
            }
            log.append(epoch_draft(3)).unwrap(); // enqueued, not awaited
            log.append(draft(4)).unwrap(); // still buffered
        }
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.len(), 5, "clean shutdown loses nothing");
        log.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_kill_before_enqueue_loses_only_unacked_tail() {
        // G1: buffered records never enqueued — the kill loses exactly
        // them; everything behind the last completed barrier survives.
        let path = temp_path("gc-k1.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap();
        for i in 0..3 {
            log.append(draft(i)).unwrap();
        }
        log.append(epoch_draft(3)).unwrap();
        log.last_seal_ticket().unwrap().wait_durable().unwrap();
        for i in 4..7 {
            log.append(draft(i)).unwrap();
        }
        assert_eq!(log.unflushed_len(), 3);
        kill(log);
        // Strict open succeeds: the acked prefix ends on a record
        // boundary. Exactly the acked prefix survives.
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.len(), 4, "acked prefix survives, unacked tail lost");
        assert_eq!(log.count_where(&|r| r.is_epoch_commit()), 1);
        log.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_kill_between_enqueue_and_ack_recovers_acked_prefix() {
        // G2/G3: the second epoch's frame was enqueued but the barrier
        // never completed (or landed partially). Build the fully-durable
        // file first, then model every on-disk state a kill in that
        // window can leave: nothing landed (truncate to the first
        // barrier), part of the batch landed (torn offsets inside the
        // second batch).
        let path = temp_path("gc-k23.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap();
        for i in 0..3 {
            log.append(draft(i)).unwrap();
        }
        log.append(epoch_draft(3)).unwrap();
        log.last_seal_ticket().unwrap().wait_durable().unwrap();
        let acked_len = std::fs::metadata(&path).unwrap().len();
        for i in 4..7 {
            log.append(draft(i)).unwrap();
        }
        log.append(epoch_draft(7)).unwrap();
        drop(log); // drains: the full second batch is on disk
        let full = std::fs::read(&path).unwrap();
        assert!(full.len() as u64 > acked_len);
        for torn_end in [
            acked_len,
            acked_len + 1,
            acked_len + 7,
            full.len() as u64 - 1,
        ] {
            std::fs::write(&path, &full[..torn_end as usize]).unwrap();
            let log = FileLog::open_recover_with(&path, SyncPolicy::GroupCommit).unwrap();
            // At least the acked prefix; at most complete frames of the
            // unacked batch. Never a torn record, never a lost ack.
            assert!(log.len() >= 4, "acked prefix survives (torn {torn_end})");
            assert!(log.len() < 8, "torn tail dropped (torn {torn_end})");
            assert_eq!(
                log.count_where(&|r| r.is_epoch_commit()),
                1,
                "second (unacked) commitment gone (torn {torn_end})"
            );
            log.verify().unwrap();
            // The log stays usable: append + seal + barrier continue.
            log.append(draft(99)).unwrap();
            log.append(epoch_draft(100)).unwrap();
            log.flush().unwrap();
            drop(log);
            FileLog::open(&path).unwrap().verify().unwrap();
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_kill_after_fsync_loses_nothing() {
        // G4: barrier completed; the kill costs nothing acked.
        let path = temp_path("gc-k4.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap();
        for i in 0..5 {
            log.append(draft(i)).unwrap();
        }
        log.append(epoch_draft(5)).unwrap();
        log.last_seal_ticket().unwrap().wait_durable().unwrap();
        kill(log);
        let log = FileLog::open(&path).unwrap();
        assert_eq!(log.len(), 6);
        log.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_barrier_failure_surfaces_on_next_seal_and_retries() {
        // A failed async barrier: the frame's ticket errors, the bytes
        // stay in the sync thread's backlog, and the error is consumed
        // by the NEXT seal (which fails and rolls its epoch record back,
        // one epoch late). Once the "device" recovers, the next barrier
        // lands the backlog and the new frame in ONE coalesced batch.
        let path = temp_path("gc-fail.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap();
        for i in 0..3 {
            log.append(draft(i)).unwrap();
        }
        log.inject_barrier_failures(1);
        log.append(epoch_draft(3)).unwrap(); // enqueue succeeds (async!)
        let ticket = log.last_seal_ticket().unwrap();
        assert!(ticket.wait_durable().is_err(), "barrier failed");
        assert!(ticket.is_complete());
        assert_eq!(log.unflushed_len(), 4, "nothing acked");
        assert_eq!(log.sync_batches(), 0);
        // The next seal consumes the async error and fails, keeping
        // "Err ⇒ not appended": its epoch record is rolled back.
        let len_before = log.len();
        let head_before = log.head();
        assert!(log.append(epoch_draft(4)).is_err());
        assert_eq!(log.len(), len_before);
        assert_eq!(log.head(), head_before);
        // Error consumed; the device works again: one barrier lands the
        // backlog (first epoch's batch) plus the re-seal in one batch.
        log.append(epoch_draft(4)).unwrap();
        log.last_seal_ticket().unwrap().wait_durable().unwrap();
        assert_eq!(log.unflushed_len(), 0);
        assert_eq!(log.sync_batches(), 1, "backlog + retry coalesced");
        drop(log);
        let reopened = FileLog::open(&path).unwrap();
        assert_eq!(reopened.len(), 5, "3 records + 2 epoch commitments");
        assert_eq!(reopened.count_where(&|r| r.is_epoch_commit()), 2);
        reopened.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_flush_probe_consumes_async_error_then_recovers() {
        // The scheduler's degraded probe path: after an async failure,
        // flush() first consumes the recorded error (failing without new
        // work), and the following flush is the real probe-and-retry.
        let path = temp_path("gc-probe.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap();
        log.append(draft(0)).unwrap();
        log.inject_barrier_failures(1);
        let ticket = log.flush_async().unwrap();
        assert!(ticket.wait_durable().is_err());
        assert!(matches!(log.flush(), Err(StoreError::Io(_))), "consumed");
        log.flush().unwrap();
        assert_eq!(log.unflushed_len(), 0);
        drop(log);
        assert_eq!(FileLog::open(&path).unwrap().len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_clean_drop_after_transient_failure_drains_backlog() {
        // One transient barrier failure, then the device recovers but no
        // further seal runs: a CLEAN drop must still land both the sync
        // thread's backlog (the failed epoch's bytes) and the pending
        // buffer — even though the first drop-time enqueue merely
        // consumes the recorded async error.
        let path = temp_path("gc-drop-backlog.log");
        let _ = std::fs::remove_file(&path);
        {
            let log = FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap();
            for i in 0..3 {
                log.append(draft(i)).unwrap();
            }
            log.inject_barrier_failures(1);
            log.append(epoch_draft(3)).unwrap();
            assert!(log.last_seal_ticket().unwrap().wait_durable().is_err());
            // More buffered records after the failure; never sealed.
            log.append(draft(4)).unwrap();
            assert_eq!(log.unflushed_len(), 5);
            // Clean drop. Injection is exhausted, so the device works.
        }
        let reopened = FileLog::open(&path).unwrap();
        assert_eq!(reopened.len(), 5, "backlog and pending both drained");
        assert_eq!(reopened.count_where(&|r| r.is_epoch_commit()), 1);
        reopened.verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_recovery_does_not_mask_mid_file_tampering() {
        let path = temp_path("gc-tamper.log");
        let _ = std::fs::remove_file(&path);
        {
            let log = FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap();
            for i in 0..6 {
                log.append(draft(i)).unwrap();
            }
            log.append(epoch_draft(6)).unwrap();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 3;
        bytes[mid] ^= 0xFF;
        bytes.truncate(bytes.len() - 2);
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            FileLog::open_recover_with(&path, SyncPolicy::GroupCommit).is_err(),
            "tampering inside the retained prefix must still be rejected"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn group_commit_coalesces_bursts_into_fewer_barriers() {
        // Deterministic coalescing: park the sync thread (modelling a
        // slow device), seal four epochs — none of which blocks — then
        // release it: every queued frame lands under a single device
        // barrier.
        let path = temp_path("gc-coalesce.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap();
        log.hold_barriers(true);
        let mut tickets = Vec::new();
        for n in 0..4u64 {
            log.append(draft(n * 10)).unwrap();
            log.append(epoch_draft(n * 10 + 1)).unwrap();
            tickets.push(log.last_seal_ticket().unwrap());
        }
        assert_eq!(log.sync_batches(), 0, "device is held");
        assert!(tickets.iter().all(|t| !t.is_complete()));
        log.hold_barriers(false);
        for ticket in &tickets {
            ticket.wait_durable().unwrap();
        }
        assert_eq!(log.unflushed_len(), 0);
        assert_eq!(
            log.sync_batches(),
            1,
            "four epochs coalesced into one device barrier"
        );
        assert_eq!(log.count_where(&|r| r.is_epoch_commit()), 4);
        drop(log);
        FileLog::open(&path).unwrap().verify().unwrap();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_log_is_valid() {
        let path = temp_path("empty.log");
        let _ = std::fs::remove_file(&path);
        let log = FileLog::open(&path).unwrap();
        assert!(log.is_empty());
        log.verify().unwrap();
        assert_eq!(log.path(), path.as_path());
        assert_eq!(log.head(), Digest::ZERO);
        let _ = std::fs::remove_file(&path);
    }
}
