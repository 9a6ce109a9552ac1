//! Group-commit durability for [`FileLog`](crate::FileLog): one
//! dedicated sync thread per log.
//!
//! The epoch is the fsync unit, but a seal that executes the write +
//! fsync *inline* while holding the log's lock stalls every appender
//! behind it on disk latency. Classic group commit decouples the
//! two — the seal *enqueues* the epoch's frames to a dedicated sync
//! thread and returns immediately; the sync thread drains the bounded
//! handoff channel, coalescing every epoch that arrived while the
//! previous barrier was in flight into **one contiguous write + one
//! `fdatasync`**. Under bursts, many epochs share a single barrier and
//! append latency is fully decoupled from disk latency.
//!
//! The moving parts:
//!
//! * [`GroupCommitQueue`] — the bounded channel plus the sync thread. A
//!   `FileLog` under `SyncPolicy::GroupCommit` owns exactly one.
//!   Dropping it drains and joins the thread (a *clean* shutdown loses
//!   nothing).
//! * [`DurabilityTicket`] — the completion handle a submission returns.
//!   [`DurabilityTicket::wait_durable`] blocks until the frame's barrier
//!   lands (or fails); `EvidenceLog::flush` is exactly "submit a barrier
//!   frame, wait on its ticket".
//!
//! # Crash and failure contract
//!
//! * A frame whose ticket completed `Ok` is durable: its bytes were
//!   written and fsynced before the completion.
//! * A crash loses at most the *unsealed + unacked* tail: frames not
//!   yet enqueued (still in the log's pending buffer) and frames whose
//!   barrier had not completed. Everything behind a completed ticket
//!   survives; recovery (`FileLog::open_recover_with`) drops a torn
//!   suffix of the in-flight batch.
//! * A failed barrier keeps its bytes in the queue's backlog and retries
//!   them ahead of the next frame, so no on-disk chain ever skips
//!   records its in-memory chain holds. The error is recorded and
//!   **consumed by the next submission** (the scheduler's next seal),
//!   which then fails without burning a signature — mirroring the PR 3
//!   degraded-probe design; the failed frame's own ticket completes
//!   `Err` immediately.
//! * While the backlog is non-empty the sync thread also retries it on
//!   a **timer** (1 s, backing off exponentially to 64 s), so an *idle*
//!   log recovers from a transient device error without waiting for the
//!   next appender or seal to poke the queue. A successful timer retry
//!   makes the backlog durable and clears the recorded error — the
//!   failure healed itself, so the next seal proceeds normally. (The
//!   failed frames' tickets already reported `Err`; recovery narrows
//!   the loss, it cannot un-report it.)
//! * If a failed write cannot be truncated away either, the queue
//!   poisons itself fail-stop: the on-disk length no longer matches the
//!   tracked prefix, so writing anything more could interleave with
//!   stray bytes — every later submission and barrier refuses, and the
//!   operator reopens the log with recovery.

use std::fs::File;
use std::io::Write as IoWrite;
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::StoreError;

/// Default bound of the handoff channel, in frames. One frame per epoch
/// seal: 64 pending epochs means the disk is far behind the sealers, at
/// which point submission blocks (backpressure) rather than queueing
/// unboundedly.
const DEFAULT_QUEUE_DEPTH: usize = 64;

/// `StoreError` is not `Clone` (it can wrap an `io::Error`); the queue
/// needs each failure several times — once per failed frame's ticket,
/// once recorded for the next submission to consume.
fn duplicate(e: &StoreError) -> StoreError {
    match e {
        StoreError::Io(io) => StoreError::Io(std::io::Error::new(io.kind(), io.to_string())),
        StoreError::Corrupt(s) => StoreError::Corrupt(s.clone()),
        StoreError::Chain(v) => StoreError::Chain(v.clone()),
        StoreError::Unavailable(s) => StoreError::Unavailable(s.clone()),
    }
}

fn poisoned_error() -> StoreError {
    StoreError::Corrupt(
        "group-commit queue poisoned: a failed write could not be rolled back; \
         reopen with open_recover to restore the durable prefix"
            .into(),
    )
}

/// Completion slot shared between a [`DurabilityTicket`] and the sync
/// thread. Plain `std` mutex + condvar: completions are rare (one per
/// barrier, not per record) and waiters block anyway.
#[derive(Debug)]
struct Completion {
    result: Mutex<Option<Result<(), StoreError>>>,
    cv: Condvar,
}

impl Completion {
    fn pending() -> Arc<Self> {
        Arc::new(Self {
            result: Mutex::new(None),
            cv: Condvar::new(),
        })
    }

    fn complete(&self, result: Result<(), StoreError>) {
        let mut slot = self.result.lock().expect("completion lock");
        *slot = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<(), StoreError> {
        let mut slot = self.result.lock().expect("completion lock");
        loop {
            match &*slot {
                Some(Ok(())) => return Ok(()),
                Some(Err(e)) => return Err(duplicate(e)),
                None => slot = self.cv.wait(slot).expect("completion wait"),
            }
        }
    }

    fn is_complete(&self) -> bool {
        self.result.lock().expect("completion lock").is_some()
    }
}

/// Completion handle for one group-commit submission.
///
/// Returned by `FileLog::flush_async` (and retrievable for the latest
/// epoch seal via `FileLog::last_seal_ticket`). The ticket is cheap to
/// clone; all clones observe the same completion.
#[derive(Debug, Clone)]
pub struct DurabilityTicket {
    completion: Arc<Completion>,
}

impl DurabilityTicket {
    /// An already-completed ticket, for backends whose flush is
    /// synchronous (by the time the call returns, the data is durable).
    pub fn ready() -> Self {
        let completion = Completion::pending();
        completion.complete(Ok(()));
        Self { completion }
    }

    /// Blocks until the submission's device barrier lands, returning its
    /// outcome. `Ok` means every byte of the frame (and, by write
    /// ordering, of all frames submitted before it) is on stable
    /// storage. `Err` means the barrier failed — the bytes are *not*
    /// durable yet, stay queued in the backlog, and the same error is
    /// surfaced to the next seal/flush so the scheduler's degraded logic
    /// engages.
    ///
    /// # Errors
    ///
    /// The write or fsync failure of the frame's barrier.
    pub fn wait_durable(&self) -> Result<(), StoreError> {
        self.completion.wait()
    }

    /// `true` once the barrier completed (successfully or not) —
    /// non-blocking.
    pub fn is_complete(&self) -> bool {
        self.completion.is_complete()
    }
}

/// One handed-off batch: length-prefixed record frames exactly as they
/// land on disk. `bytes` may be empty — an empty frame is a *barrier*:
/// it forces the backlog out and fsyncs even with nothing new to write,
/// which is what makes `flush()` double as a device health probe.
struct Frame {
    bytes: Vec<u8>,
    records: u64,
    completion: Arc<Completion>,
}

/// State shared between the submitting side and the sync thread.
#[derive(Debug)]
struct QueueState {
    /// Most recent barrier failure not yet consumed by a submission.
    last_error: Option<StoreError>,
    /// Fail-stop latch (see the module docs).
    poisoned: bool,
    /// Absolute count of records whose barrier completed `Ok` (seeded
    /// with the record count loaded from disk at open).
    durable_records: u64,
    /// Successful device barriers since the queue spawned. Multiple
    /// submitted frames completing under one increment is the
    /// coalescing win.
    batches_synced: u64,
    /// Test hook: fail this many upcoming barriers without touching the
    /// file (models a transient device error).
    inject_failures: u32,
    /// Test hook: while set, the sync thread parks after receiving a
    /// frame (models a slow device, letting a burst of frames queue up
    /// so coalescing can be asserted deterministically).
    held: bool,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<QueueState>,
    /// Signalled when `held` clears.
    gate: Condvar,
}

impl Shared {
    fn state(&self) -> std::sync::MutexGuard<'_, QueueState> {
        self.state.lock().expect("queue state")
    }
}

/// A log file's dedicated sync thread (see the [module docs](self)).
/// Created by `FileLog` when opened under `SyncPolicy::GroupCommit`; not
/// constructible directly. Dropping the queue drains everything already
/// submitted and joins the thread.
#[derive(Debug)]
pub struct GroupCommitQueue {
    tx: Option<SyncSender<Frame>>,
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl GroupCommitQueue {
    /// Spawns the sync thread over `file`, whose committed length is
    /// `file_len` and which currently holds `durable_records` records.
    pub(crate) fn spawn(file: File, file_len: u64, durable_records: u64) -> Self {
        let (tx, rx) = sync_channel(DEFAULT_QUEUE_DEPTH);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                last_error: None,
                poisoned: false,
                durable_records,
                batches_synced: 0,
                inject_failures: 0,
                held: false,
            }),
            gate: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let io = SyncIo {
            file,
            file_len,
            backlog: Vec::new(),
            backlog_records: 0,
        };
        let handle = std::thread::Builder::new()
            .name("nonrep-group-commit".into())
            .spawn(move || run_sync_thread(rx, thread_shared, io))
            .expect("spawn group-commit sync thread");
        Self {
            tx: Some(tx),
            shared,
            handle: Some(handle),
        }
    }

    /// Fails if the queue is poisoned (fail-stop; does not consume the
    /// pending async error).
    pub(crate) fn check_poisoned(&self) -> Result<(), StoreError> {
        if self.shared.state().poisoned {
            return Err(poisoned_error());
        }
        Ok(())
    }

    /// Consumes the pending async failure, if any: the completion-error
    /// path of the async handoff. The *next* seal or flush after a
    /// failed barrier calls this first and fails with the barrier's
    /// error instead of submitting more work (and, above the store, the
    /// scheduler's degraded/cooldown logic takes over from there).
    pub(crate) fn take_error(&self) -> Result<(), StoreError> {
        let mut state = self.shared.state();
        if state.poisoned {
            return Err(poisoned_error());
        }
        match state.last_error.take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Hands `bytes` (holding `records` complete frames) to the sync
    /// thread. Returns the ticket immediately — the write and fsync
    /// happen on the sync thread. Blocks only when the bounded channel
    /// is full (the disk is `DEFAULT_QUEUE_DEPTH` epochs behind: that is
    /// backpressure, not a failure). On a dead sync thread the bytes are
    /// handed back so the caller can restore its pending buffer.
    pub(crate) fn submit(
        &self,
        bytes: Vec<u8>,
        records: u64,
    ) -> Result<DurabilityTicket, (Vec<u8>, StoreError)> {
        let completion = Completion::pending();
        let frame = Frame {
            bytes,
            records,
            completion: Arc::clone(&completion),
        };
        match self.tx.as_ref().expect("queue sender").send(frame) {
            Ok(()) => Ok(DurabilityTicket { completion }),
            Err(send_error) => Err((
                send_error.0.bytes,
                StoreError::Unavailable("group-commit sync thread is gone".into()),
            )),
        }
    }

    /// Absolute count of records whose barrier completed successfully.
    pub(crate) fn durable_records(&self) -> u64 {
        self.shared.state().durable_records
    }

    /// Successful device barriers since the queue spawned.
    pub(crate) fn batches_synced(&self) -> u64 {
        self.shared.state().batches_synced
    }

    /// Test hook: make the next `n` barriers fail without touching the
    /// file.
    #[cfg(test)]
    pub(crate) fn inject_barrier_failures(&self, n: u32) {
        self.shared.state().inject_failures = n;
    }

    /// Test hook: park the sync thread after its next receive (`true`)
    /// or release it (`false`), so a burst of frames can be queued and
    /// their coalescing into one barrier asserted deterministically.
    #[cfg(test)]
    pub(crate) fn hold_barriers(&self, held: bool) {
        self.shared.state().held = held;
        self.shared.gate.notify_all();
    }
}

impl Drop for GroupCommitQueue {
    /// Closes the channel and joins the thread. Frames submitted before
    /// the drop are still received and written — a clean shutdown
    /// drains; only a kill loses the in-flight tail.
    fn drop(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// First timer-driven retry delay after a failed barrier leaves bytes
/// in the backlog. Long enough that a test (or scheduler) acting
/// promptly on the failure observes the documented error-consumption
/// flow before any retry fires.
const RETRY_BASE: Duration = Duration::from_secs(1);
/// Exponential-backoff cap for repeated idle retries (a dead device is
/// probed at most this often).
const RETRY_CAP: Duration = Duration::from_secs(64);

/// Sync-thread-side state of the log file.
struct SyncIo {
    file: File,
    /// Committed (durable-prefix) length of the file.
    file_len: u64,
    /// Bytes (and their record count) from failed barriers, retried
    /// ahead of newer frames so the on-disk chain never skips records.
    backlog: Vec<u8>,
    backlog_records: u64,
}

/// The sync-thread loop: receive one frame (blocking), drain whatever
/// else is queued (coalescing), land the backlog plus every drained
/// frame as one contiguous write and one `fdatasync`, and complete
/// every ticket.
///
/// While a failed barrier's bytes sit in the backlog, the receive uses
/// a timeout: if no appender or seal pokes the queue, a **timer-driven
/// retry** (exponential backoff, [`RETRY_BASE`] doubling to
/// [`RETRY_CAP`]) lands the backlog on its own — an idle log recovers
/// from a transient device error without waiting for the next frame. A
/// successful retry clears the recorded async error: every byte it
/// covered is durable, so there is nothing left for the next seal to
/// consume (its tickets, if any, already reported the original
/// failure).
fn run_sync_thread(rx: Receiver<Frame>, shared: Arc<Shared>, mut io: SyncIo) {
    let mut retry_delay = RETRY_BASE;
    loop {
        let first = if io.backlog.is_empty() {
            match rx.recv() {
                Ok(frame) => Some(frame),
                Err(_) => break,
            }
        } else {
            match rx.recv_timeout(retry_delay) {
                Ok(frame) => Some(frame),
                // Timer fired with the backlog still pending: retry it
                // without a new frame.
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        };
        {
            // Test-only gate: models a device so slow that a burst of
            // seals queues up behind one in-flight barrier.
            let mut state = shared.state();
            while state.held {
                state = shared.gate.wait(state).expect("gate wait");
            }
        }
        let timer_fired = first.is_none();
        let mut bytes = Vec::new();
        let mut records = 0;
        let mut completions = Vec::new();
        for mut frame in first
            .into_iter()
            .chain(std::iter::from_fn(|| rx.try_recv().ok()))
        {
            bytes.append(&mut frame.bytes);
            records += frame.records;
            completions.push(frame.completion);
        }
        let landed = land_cycle(&mut io, bytes, records, &completions, timer_fired, &shared);
        if landed {
            retry_delay = RETRY_BASE;
        } else if timer_fired {
            // Repeated idle retries back off exponentially.
            retry_delay = (retry_delay * 2).min(RETRY_CAP);
        }
    }
    // Channel disconnected (queue dropped): every frame submitted before
    // the drop was received above. A backlog left by a failed barrier
    // gets one last attempt — the device may have recovered since the
    // failure, and a *clean* shutdown promises to drain everything it
    // can. (Its tickets already completed `Err`; this only narrows the
    // loss, it cannot un-report it.)
    if !io.backlog.is_empty() {
        land_cycle(&mut io, Vec::new(), 0, &[], false, &shared);
    }
}

/// Lands one drained cycle: the backlog plus `bytes` as one contiguous
/// write, one `fdatasync`, then ticket completion and counter updates.
/// `timer_fired` marks a pure timer retry, whose success clears the
/// recorded error. Returns `true` if anything landed durably.
fn land_cycle(
    io: &mut SyncIo,
    mut bytes: Vec<u8>,
    records: u64,
    completions: &[Arc<Completion>],
    timer_fired: bool,
    shared: &Shared,
) -> bool {
    let (poisoned, inject) = {
        let mut state = shared.state();
        let inject = state.inject_failures > 0;
        if inject {
            state.inject_failures -= 1;
        }
        (state.poisoned, inject)
    };
    if poisoned {
        for completion in completions {
            completion.complete(Err(poisoned_error()));
        }
        // Poisoned bytes can never land (the on-disk length no longer
        // matches the tracked prefix); drop the backlog so the thread
        // can go back to blocking receives.
        io.backlog.clear();
        io.backlog_records = 0;
        return false;
    }
    // The backlog goes ahead of this cycle's frames so the on-disk chain
    // never skips records.
    let mut batch = std::mem::take(&mut io.backlog);
    batch.append(&mut bytes);
    let records = io.backlog_records + records;
    io.backlog_records = 0;
    if inject {
        // Simulated device error: nothing touched the file, so no
        // truncation is needed and the committed prefix is intact.
        let e = StoreError::Io(std::io::Error::other("injected barrier failure"));
        fail_cycle(io, batch, records, completions, &e, true, shared);
        return false;
    }
    let committed = io.file_len;
    match io.file.write_all(&batch).and_then(|()| io.file.sync_data()) {
        Ok(()) => {
            io.file_len += batch.len() as u64;
            {
                let mut state = shared.state();
                state.batches_synced += 1;
                state.durable_records += records;
                if timer_fired {
                    // The failure healed itself: everything it kept
                    // un-durable is now on stable storage, so the next
                    // seal need not fail over a stale error.
                    state.last_error = None;
                }
            }
            for completion in completions {
                completion.complete(Ok(()));
            }
            true
        }
        Err(e) => {
            // Roll the committed length back; if even the truncate
            // fails, the queue poisons itself.
            let clean = io.file.set_len(committed).is_ok();
            fail_cycle(
                io,
                batch,
                records,
                completions,
                &StoreError::Io(e),
                clean,
                shared,
            );
            false
        }
    }
}

/// Books a failed cycle: backlog restore, error recording, optional
/// poisoning, ticket completion.
fn fail_cycle(
    io: &mut SyncIo,
    batch: Vec<u8>,
    records: u64,
    completions: &[Arc<Completion>],
    e: &StoreError,
    rollback_clean: bool,
    shared: &Shared,
) {
    io.backlog = batch;
    io.backlog_records = records;
    {
        let mut state = shared.state();
        state.last_error = Some(duplicate(e));
        if !rollback_clean {
            state.poisoned = true;
        }
    }
    for completion in completions {
        completion.complete(Err(duplicate(e)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn temp_file(name: &str) -> (std::path::PathBuf, File) {
        let path = std::env::temp_dir().join(format!("nonrep-gc-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&path);
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .expect("open temp file");
        (path, file)
    }

    #[test]
    fn timer_retry_lands_backlog_on_idle_queue() {
        // A failed barrier on an otherwise idle log: no appender or
        // seal ever pokes the queue again, yet the backlog must land
        // via the timer-driven retry and the stale error must clear.
        let (path, file) = temp_file("idle-retry.log");
        let queue = GroupCommitQueue::spawn(file, 0, 0);
        queue.inject_barrier_failures(1);
        let ticket = queue.submit(b"frame-bytes".to_vec(), 3).expect("submit");
        assert!(ticket.wait_durable().is_err(), "injected failure reported");
        assert_eq!(queue.durable_records(), 0);
        // No further submissions. The first retry fires after ~1s.
        let deadline = Instant::now() + Duration::from_secs(10);
        while queue.durable_records() < 3 {
            assert!(Instant::now() < deadline, "timer retry never landed");
            std::thread::sleep(Duration::from_millis(25));
        }
        assert_eq!(queue.batches_synced(), 1);
        // The failure healed itself: nothing left to consume.
        queue.take_error().expect("stale error cleared by recovery");
        drop(queue);
        assert_eq!(std::fs::read(&path).expect("read log"), b"frame-bytes");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn error_still_consumed_when_submission_beats_the_timer() {
        // A submission arriving before the first retry observes the
        // documented flow: the recorded error is consumed, the backlog
        // is retried ahead of (and coalesced with) the new frame.
        let (path, file) = temp_file("fast-consume.log");
        let queue = GroupCommitQueue::spawn(file, 0, 0);
        queue.inject_barrier_failures(1);
        let ticket = queue.submit(b"aaa".to_vec(), 1).expect("submit");
        assert!(ticket.wait_durable().is_err());
        assert!(queue.take_error().is_err(), "error consumed by next seal");
        let ticket = queue.submit(b"bbb".to_vec(), 1).expect("submit");
        ticket
            .wait_durable()
            .expect("backlog + frame land together");
        assert_eq!(queue.durable_records(), 2);
        assert_eq!(queue.batches_synced(), 1, "one coalesced barrier");
        drop(queue);
        assert_eq!(std::fs::read(&path).expect("read log"), b"aaabbb");
        let _ = std::fs::remove_file(&path);
    }
}
