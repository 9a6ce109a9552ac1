//! Group-commit durability pool for [`FileLog`](crate::FileLog) — and,
//! since PR 7, for every shard of a
//! [`ShardedEvidenceLog`](crate::ShardedEvidenceLog) at once.
//!
//! The epoch is the fsync unit, but a seal that executes the write +
//! fsync *inline* while holding the log's lock stalls every appender
//! behind it on disk latency. Classic group commit decouples the
//! two — the seal *enqueues* the epoch's frames to a dedicated sync
//! thread and returns immediately; the sync thread drains the bounded
//! handoff channel, coalescing every epoch that arrived while the
//! previous barrier was in flight into **one contiguous write per file +
//! one device barrier**. Under bursts, many epochs share a single
//! barrier and append latency is fully decoupled from disk latency.
//!
//! The moving parts:
//!
//! * [`GroupCommitPool`] — the bounded channel plus the sync thread.
//!   Several logs (*sinks*) can attach to one pool; frames carry their
//!   sink id and the thread groups each drained cycle by sink, writes
//!   each sink's contiguous batch, then issues **one** device barrier
//!   covering every touched file (`syncfs` per distinct filesystem on
//!   Linux, per-file `fdatasync` elsewhere). This is what lets N evidence
//!   shards seal concurrently and still pay ~one barrier per burst.
//! * [`GroupCommitQueue`] — one sink's handle onto a pool. A solo
//!   `FileLog` under `SyncPolicy::GroupCommit` owns a pool with a single
//!   sink; a sharded log attaches every shard to one shared pool.
//!   Dropping the last handle on a pool drains and joins the thread (a
//!   *clean* shutdown loses nothing).
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
//! * A failed barrier keeps its bytes in the owning sink's backlog and
//!   retries them ahead of that sink's next frame, so no on-disk chain
//!   ever skips records its in-memory chain holds. The error is recorded
//!   per sink and **consumed by that sink's next submission** (the
//!   scheduler's next seal), which then fails without burning a
//!   signature — mirroring the PR 3 degraded-probe design; the failed
//!   frame's own ticket completes `Err` immediately. A barrier that
//!   covered several sinks fails all of them — conservative, but a
//!   device that cannot barrier is not healthy for any shard on it.
//! * While any backlog is non-empty the sync thread also retries it on
//!   a **timer** (1 s, backing off exponentially to 64 s), so an *idle*
//!   log recovers from a transient device error without waiting for the
//!   next appender or seal to poke the queue. A successful timer retry
//!   makes the backlog durable and clears the recorded error — the
//!   failure healed itself, so the next seal proceeds normally. (The
//!   failed frames' tickets already reported `Err`; recovery narrows
//!   the loss, it cannot un-report it.)
//! * If a failed write cannot be truncated away either, the *sink*
//!   poisons itself fail-stop: its on-disk length no longer matches the
//!   tracked prefix, so writing anything more could interleave with
//!   stray bytes — every later submission and barrier on that sink
//!   refuses, and the operator reopens it with recovery. Other sinks on
//!   the same pool are unaffected.

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
pub(crate) const DEFAULT_QUEUE_DEPTH: usize = 64;

/// `StoreError` is not `Clone` (it can wrap an `io::Error`); the pool
/// needs each failure several times — once per failed frame's ticket,
/// once recorded for the sink's next submission to consume.
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
        "group-commit sink poisoned: a failed write could not be rolled back; \
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
    /// ordering, of all frames submitted to the same sink before it) is
    /// on stable storage. `Err` means the barrier failed — the bytes are
    /// *not* durable yet, stay queued in the sink's backlog, and the
    /// same error is surfaced to the sink's next seal/flush so the
    /// scheduler's degraded logic engages.
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

/// Messages handed to the sync thread. `Register` ships a sink's file
/// handle; the channel's FIFO order guarantees it arrives before any
/// frame for that sink (the handle that can submit frames is only
/// constructed after the registration send returns).
enum Msg {
    Register {
        sink: usize,
        file: File,
        file_len: u64,
    },
    /// One handed-off batch: length-prefixed record frames exactly as
    /// they land on disk. `bytes` may be empty — an empty frame is a
    /// *barrier*: it forces the sink's backlog out and fsyncs even with
    /// nothing new to write, which is what makes `flush()` double as a
    /// device health probe.
    Frame {
        sink: usize,
        bytes: Vec<u8>,
        records: u64,
        completion: Arc<Completion>,
    },
}

/// Submission-side view of one sink.
#[derive(Debug)]
struct SinkState {
    /// Most recent barrier failure not yet consumed by a submission.
    last_error: Option<StoreError>,
    /// Fail-stop latch (see the module docs).
    poisoned: bool,
    /// Absolute count of records whose barrier completed `Ok` (seeded
    /// with the record count loaded from disk at open).
    durable_records: u64,
    /// Test hook: fail this many upcoming barriers for this sink without
    /// touching the file (models a transient device error).
    inject_failures: u32,
}

/// State shared between the submitting sides and the sync thread.
#[derive(Debug)]
struct PoolState {
    sinks: Vec<SinkState>,
    /// Successful device barriers since the pool spawned. Multiple
    /// submitted frames — across *all* sinks — completing under one
    /// increment is the coalescing win.
    batches_synced: u64,
    /// Test hook: while set, the sync thread parks after receiving a
    /// frame (models a slow device, letting a burst of frames queue up
    /// so coalescing can be asserted deterministically).
    held: bool,
}

#[derive(Debug)]
struct Shared {
    state: Mutex<PoolState>,
    /// Signalled when `held` clears.
    gate: Condvar,
}

/// A dedicated sync thread shared by one or more log files (see the
/// [module docs](self)). A solo `FileLog` spawns a private pool; a
/// `ShardedEvidenceLog` attaches every shard (and its meta log) to one
/// pool so concurrent shards' epoch frames coalesce into few device
/// barriers.
///
/// The pool thread exits when the last [`GroupCommitQueue`] handle (and
/// any external `Arc` to the pool) drops; the drop drains everything
/// already submitted.
#[derive(Debug)]
pub struct GroupCommitPool {
    tx: Option<SyncSender<Msg>>,
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl GroupCommitPool {
    /// Spawns an empty pool: one sync thread, no sinks yet.
    pub fn new() -> Arc<Self> {
        let (tx, rx) = sync_channel(DEFAULT_QUEUE_DEPTH);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                sinks: Vec::new(),
                batches_synced: 0,
                held: false,
            }),
            gate: Condvar::new(),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("nonrep-group-commit".into())
            .spawn(move || run_sync_thread(rx, thread_shared))
            .expect("spawn group-commit sync thread");
        Arc::new(Self {
            tx: Some(tx),
            shared,
            handle: Some(handle),
        })
    }

    /// Registers `file` (committed length `file_len`, currently holding
    /// `durable_records` records) as a new sink and returns its handle.
    pub fn attach(
        self: &Arc<Self>,
        file: File,
        file_len: u64,
        durable_records: u64,
    ) -> GroupCommitQueue {
        let sink = {
            let mut state = self.shared.state.lock().expect("pool state");
            state.sinks.push(SinkState {
                last_error: None,
                poisoned: false,
                durable_records,
                inject_failures: 0,
            });
            state.sinks.len() - 1
        };
        // FIFO: this registration lands before any frame the returned
        // handle can submit.
        let _ = self.tx.as_ref().expect("pool sender").send(Msg::Register {
            sink,
            file,
            file_len,
        });
        GroupCommitQueue {
            pool: Arc::clone(self),
            sink,
        }
    }

    /// Successful device barriers since the pool spawned.
    pub fn batches_synced(&self) -> u64 {
        self.shared.state.lock().expect("pool state").batches_synced
    }

    /// Test hook: park the sync thread after its next receive (`true`)
    /// or release it (`false`), so a burst of frames can be queued and
    /// their coalescing into one barrier asserted deterministically.
    #[cfg(test)]
    pub(crate) fn hold_barriers(&self, held: bool) {
        self.shared.state.lock().expect("pool state").held = held;
        self.shared.gate.notify_all();
    }
}

impl Drop for GroupCommitPool {
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

/// One sink's handle onto a [`GroupCommitPool`]. Created by `FileLog`
/// when opened under `SyncPolicy::GroupCommit` (a private single-sink
/// pool) or by `ShardedEvidenceLog` (every shard attached to one shared
/// pool); not constructible directly.
#[derive(Debug)]
pub struct GroupCommitQueue {
    pool: Arc<GroupCommitPool>,
    sink: usize,
}

impl GroupCommitQueue {
    /// Spawns a private single-sink pool over `file`, whose committed
    /// length is `file_len` and which currently holds `durable_records`
    /// records.
    pub(crate) fn spawn(file: File, file_len: u64, durable_records: u64) -> Self {
        GroupCommitPool::new().attach(file, file_len, durable_records)
    }

    fn with_sink<T>(&self, f: impl FnOnce(&mut SinkState) -> T) -> T {
        let mut state = self.pool.shared.state.lock().expect("pool state");
        f(&mut state.sinks[self.sink])
    }

    /// Fails if the sink is poisoned (fail-stop; does not consume the
    /// pending async error).
    pub(crate) fn check_poisoned(&self) -> Result<(), StoreError> {
        if self.with_sink(|s| s.poisoned) {
            return Err(poisoned_error());
        }
        Ok(())
    }

    /// Consumes the sink's pending async failure, if any: the
    /// completion-error path of the async handoff. The *next* seal or
    /// flush after a failed barrier calls this first and fails with the
    /// barrier's error instead of submitting more work (and, above the
    /// store, the scheduler's degraded/cooldown logic takes over from
    /// there).
    pub(crate) fn take_error(&self) -> Result<(), StoreError> {
        self.with_sink(|s| {
            if s.poisoned {
                return Err(poisoned_error());
            }
            if let Some(e) = s.last_error.take() {
                return Err(e);
            }
            Ok(())
        })
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
        let frame = Msg::Frame {
            sink: self.sink,
            bytes,
            records,
            completion: Arc::clone(&completion),
        };
        match self.pool.tx.as_ref().expect("pool sender").send(frame) {
            Ok(()) => Ok(DurabilityTicket { completion }),
            Err(send_error) => {
                let bytes = match send_error.0 {
                    Msg::Frame { bytes, .. } => bytes,
                    Msg::Register { .. } => unreachable!("submitted a frame"),
                };
                Err((
                    bytes,
                    StoreError::Unavailable("group-commit sync thread is gone".into()),
                ))
            }
        }
    }

    /// Absolute count of this sink's records whose barrier completed
    /// successfully.
    pub(crate) fn durable_records(&self) -> u64 {
        self.with_sink(|s| s.durable_records)
    }

    /// Successful device barriers of the *pool* since it spawned.
    pub(crate) fn batches_synced(&self) -> u64 {
        self.pool.batches_synced()
    }

    /// Test hook: make the next `n` barriers of this sink fail without
    /// touching the file.
    #[cfg(test)]
    pub(crate) fn inject_barrier_failures(&self, n: u32) {
        self.with_sink(|s| s.inject_failures = n);
    }

    /// Test hook: see [`GroupCommitPool::hold_barriers`].
    #[cfg(test)]
    pub(crate) fn hold_barriers(&self, held: bool) {
        self.pool.hold_barriers(held);
    }
}

/// First timer-driven retry delay after a failed barrier leaves bytes
/// in a backlog. Long enough that a test (or scheduler) acting
/// promptly on the failure observes the documented error-consumption
/// flow before any retry fires.
const RETRY_BASE: Duration = Duration::from_secs(1);
/// Exponential-backoff cap for repeated idle retries (a dead device is
/// probed at most this often).
const RETRY_CAP: Duration = Duration::from_secs(64);

/// Sync-thread-side state of one sink.
struct SinkIo {
    file: File,
    /// Committed (durable-prefix) length of the file.
    file_len: u64,
    /// Filesystem identity (`st_dev`), for grouping the device barrier.
    #[cfg(target_os = "linux")]
    dev: u64,
    /// Bytes (and their record count) from failed barriers, retried
    /// ahead of newer frames so the on-disk chain never skips records.
    backlog: Vec<u8>,
    backlog_records: u64,
}

/// One sink's share of a drained cycle.
struct SinkCycle {
    sink: usize,
    bytes: Vec<u8>,
    records: u64,
    completions: Vec<Arc<Completion>>,
    /// Whether any frame (even an empty barrier) arrived for this sink
    /// this cycle — distinguishes a pure timer retry, whose success
    /// clears the recorded error.
    had_frames: bool,
}

/// The sync-thread loop: receive one message (blocking), drain whatever
/// else is queued (coalescing), group by sink, land every sink's batch
/// as one contiguous write, then issue one device barrier covering all
/// touched files, and complete every ticket.
///
/// While a failed barrier's bytes sit in some backlog, the receive uses
/// a timeout: if no appender or seal pokes the pool, a **timer-driven
/// retry** (exponential backoff, [`RETRY_BASE`] doubling to
/// [`RETRY_CAP`]) lands the backlog on its own — an idle log recovers
/// from a transient device error without waiting for the next frame. A
/// successful retry clears the sink's recorded async error: every byte
/// it covered is durable, so there is nothing left for the next seal to
/// consume (its tickets, if any, already reported the original
/// failure).
fn run_sync_thread(rx: Receiver<Msg>, shared: Arc<Shared>) {
    let mut sinks: Vec<Option<SinkIo>> = Vec::new();
    let mut retry_delay = RETRY_BASE;
    loop {
        let any_backlog = sinks.iter().flatten().any(|s| !s.backlog.is_empty());
        let first = if any_backlog {
            match rx.recv_timeout(retry_delay) {
                Ok(msg) => Some(msg),
                // Timer fired with a backlog still pending: retry it
                // without a new frame.
                Err(RecvTimeoutError::Timeout) => None,
                Err(RecvTimeoutError::Disconnected) => break,
            }
        } else {
            match rx.recv() {
                Ok(msg) => Some(msg),
                Err(_) => break,
            }
        };
        {
            // Test-only gate: models a device so slow that a burst of
            // seals queues up behind one in-flight barrier.
            let mut state = shared.state.lock().expect("pool state");
            while state.held {
                state = shared.gate.wait(state).expect("gate wait");
            }
        }
        let mut msgs: Vec<Msg> = Vec::new();
        msgs.extend(first);
        while let Ok(msg) = rx.try_recv() {
            msgs.push(msg);
        }
        let timer_fired = msgs.is_empty();
        // Install registrations, group frames by sink.
        let mut cycle: Vec<SinkCycle> = Vec::new();
        for msg in msgs {
            match msg {
                Msg::Register {
                    sink,
                    file,
                    file_len,
                } => {
                    if sinks.len() <= sink {
                        sinks.resize_with(sink + 1, || None);
                    }
                    #[cfg(target_os = "linux")]
                    let dev = {
                        use std::os::unix::fs::MetadataExt;
                        file.metadata().map(|m| m.dev()).unwrap_or(0)
                    };
                    sinks[sink] = Some(SinkIo {
                        file,
                        file_len,
                        #[cfg(target_os = "linux")]
                        dev,
                        backlog: Vec::new(),
                        backlog_records: 0,
                    });
                }
                Msg::Frame {
                    sink,
                    mut bytes,
                    records,
                    completion,
                } => {
                    let entry = match cycle.iter_mut().find(|c| c.sink == sink) {
                        Some(entry) => entry,
                        None => {
                            cycle.push(SinkCycle {
                                sink,
                                bytes: Vec::new(),
                                records: 0,
                                completions: Vec::new(),
                                had_frames: false,
                            });
                            cycle.last_mut().expect("just pushed")
                        }
                    };
                    entry.bytes.append(&mut bytes);
                    entry.records += records;
                    entry.completions.push(completion);
                    entry.had_frames = true;
                }
            }
        }
        // Pull sinks whose backlog needs a timer retry into the cycle.
        if timer_fired {
            for (id, sink) in sinks.iter().enumerate() {
                if let Some(io) = sink {
                    if !io.backlog.is_empty() && !cycle.iter().any(|c| c.sink == id) {
                        cycle.push(SinkCycle {
                            sink: id,
                            bytes: Vec::new(),
                            records: 0,
                            completions: Vec::new(),
                            had_frames: false,
                        });
                    }
                }
            }
        }
        if cycle.is_empty() {
            continue;
        }
        let landed = land_cycle(&mut sinks, cycle, &shared);
        if landed {
            retry_delay = RETRY_BASE;
        } else if timer_fired {
            // Repeated idle retries back off exponentially.
            retry_delay = (retry_delay * 2).min(RETRY_CAP);
        }
    }
    // Channel disconnected (pool dropped): every frame submitted before
    // the drop was received above. A backlog left by a failed barrier
    // gets one last attempt per sink — the device may have recovered
    // since the failure, and a *clean* shutdown promises to drain
    // everything it can. (Its tickets already completed `Err`; this only
    // narrows the loss, it cannot un-report it.)
    for (id, sink) in sinks.iter_mut().enumerate() {
        if let Some(io) = sink {
            let poisoned = shared.state.lock().expect("pool state").sinks[id].poisoned;
            if !io.backlog.is_empty() && !poisoned {
                let batch = std::mem::take(&mut io.backlog);
                if write_sink(io, &batch).is_ok() {
                    let _ = io.file.sync_data();
                }
            }
        }
    }
}

/// Writes `batch` to the sink and advances its committed length on
/// success; on failure truncates the partial write away (the caller
/// decides whether to poison).
fn write_sink(io: &mut SinkIo, batch: &[u8]) -> Result<(), StoreError> {
    match io.file.write_all(batch) {
        Ok(()) => {
            io.file_len += batch.len() as u64;
            Ok(())
        }
        Err(e) => Err(StoreError::Io(e)),
    }
}

/// Rolls a sink's committed length back after a failed write or barrier.
/// Returns `false` (→ poison) when the truncate itself fails.
fn roll_back(io: &mut SinkIo, committed: u64) -> bool {
    io.file_len = committed;
    io.file.set_len(committed).is_ok()
}

/// Lands one drained cycle: per-sink contiguous writes, then one device
/// barrier over every touched file, then ticket completion and counter
/// updates. Returns `true` if anything landed durably.
fn land_cycle(sinks: &mut [Option<SinkIo>], cycle: Vec<SinkCycle>, shared: &Shared) -> bool {
    // Phase 1: weed out poisoned / injected-failure / failed-write sinks.
    let mut written: Vec<SinkCycle> = Vec::new();
    for mut entry in cycle {
        let (poisoned, inject) = {
            let mut state = shared.state.lock().expect("pool state");
            let sink = &mut state.sinks[entry.sink];
            let inject = if sink.inject_failures > 0 {
                sink.inject_failures -= 1;
                true
            } else {
                false
            };
            (sink.poisoned, inject)
        };
        if poisoned {
            for completion in &entry.completions {
                completion.complete(Err(poisoned_error()));
            }
            // Poisoned bytes can never land (the on-disk length no
            // longer matches the tracked prefix); drop the backlog so
            // the pool can go back to blocking receives.
            if let Some(io) = &mut sinks[entry.sink] {
                io.backlog.clear();
                io.backlog_records = 0;
            }
            continue;
        }
        let io = match &mut sinks[entry.sink] {
            Some(io) => io,
            // Registration not yet processed — impossible by FIFO, but
            // fail safe rather than panic the sync thread.
            None => {
                let e = StoreError::Unavailable("group-commit sink not registered".into());
                for completion in &entry.completions {
                    completion.complete(Err(duplicate(&e)));
                }
                continue;
            }
        };
        // The sink's backlog goes ahead of this cycle's frames so the
        // on-disk chain never skips records.
        let mut batch = std::mem::take(&mut io.backlog);
        batch.append(&mut entry.bytes);
        let records = io.backlog_records + entry.records;
        io.backlog_records = 0;
        if inject {
            // Simulated device error: nothing touched the file, so no
            // truncation is needed and the committed prefix is intact.
            let e = StoreError::Io(std::io::Error::other("injected barrier failure"));
            fail_sink(
                io,
                entry.sink,
                batch,
                records,
                &entry.completions,
                &e,
                true,
                shared,
            );
            continue;
        }
        let committed = io.file_len;
        match write_sink(io, &batch) {
            Ok(()) => {
                entry.bytes = batch;
                entry.records = records;
                written.push(entry);
            }
            Err(e) => {
                let clean = roll_back(io, committed);
                fail_sink(
                    io,
                    entry.sink,
                    batch,
                    records,
                    &entry.completions,
                    &e,
                    clean,
                    shared,
                );
            }
        }
    }
    if written.is_empty() {
        return false;
    }
    // Phase 2: one device barrier covering every written sink.
    let barrier = device_barrier(&*sinks, &written, shared);
    match barrier {
        Ok(()) => {
            {
                let mut state = shared.state.lock().expect("pool state");
                for entry in &written {
                    let sink = &mut state.sinks[entry.sink];
                    sink.durable_records += entry.records;
                    if !entry.had_frames {
                        // The failure healed itself: everything it kept
                        // un-durable is now on stable storage, so the
                        // next seal need not fail over a stale error.
                        sink.last_error = None;
                    }
                }
            }
            for entry in &written {
                for completion in &entry.completions {
                    completion.complete(Ok(()));
                }
            }
            true
        }
        Err(e) => {
            // The barrier failed for every sink it covered: roll each
            // back, restore backlogs, record errors, fail tickets.
            for mut entry in written {
                let io = sinks[entry.sink].as_mut().expect("written sink");
                let committed = io.file_len - entry.bytes.len() as u64;
                let clean = roll_back(io, committed);
                let batch = std::mem::take(&mut entry.bytes);
                fail_sink(
                    io,
                    entry.sink,
                    batch,
                    entry.records,
                    &entry.completions,
                    &e,
                    clean,
                    shared,
                );
            }
            false
        }
    }
}

/// Books one sink's failure: backlog restore, error recording, optional
/// poisoning, ticket completion.
#[allow(clippy::too_many_arguments)]
fn fail_sink(
    io: &mut SinkIo,
    sink: usize,
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
        let mut state = shared.state.lock().expect("pool state");
        let s = &mut state.sinks[sink];
        s.last_error = Some(duplicate(e));
        if !rollback_clean {
            s.poisoned = true;
        }
    }
    for completion in completions {
        completion.complete(Err(duplicate(e)));
    }
}

/// One device barrier over every written sink, counted once on success.
///
/// With a single touched file this is a plain `fdatasync`. With several
/// (concurrent shards sealing into one pool) Linux lets us pay **one**
/// barrier per filesystem via `syncfs(2)` instead of one per file —
/// exactly the coalescing the shared pool exists for. Elsewhere we fall
/// back to per-file `fdatasync`.
fn device_barrier(
    sinks: &[Option<SinkIo>],
    written: &[SinkCycle],
    shared: &Shared,
) -> Result<(), StoreError> {
    #[cfg(target_os = "linux")]
    {
        if written.len() > 1 {
            // One syncfs per distinct filesystem covers every file on it.
            let mut devs: Vec<u64> = Vec::new();
            for entry in written {
                let io = sinks[entry.sink].as_ref().expect("written sink");
                if !devs.contains(&io.dev) {
                    devs.push(io.dev);
                    syncfs(&io.file)?;
                    shared.state.lock().expect("pool state").batches_synced += 1;
                }
            }
            return Ok(());
        }
    }
    for entry in written {
        let io = sinks[entry.sink].as_ref().expect("written sink");
        io.file.sync_data()?;
        shared.state.lock().expect("pool state").batches_synced += 1;
    }
    Ok(())
}

/// `syncfs(2)`: flush the whole filesystem containing `file` in one
/// barrier. The symbol lives in the libc every Rust binary already
/// links; no new dependency.
#[cfg(target_os = "linux")]
fn syncfs(file: &File) -> Result<(), StoreError> {
    use std::os::unix::io::AsRawFd;
    extern "C" {
        fn syncfs(fd: std::os::raw::c_int) -> std::os::raw::c_int;
    }
    // SAFETY: syncfs takes an owned, valid fd and touches no memory.
    let rc = unsafe { syncfs(file.as_raw_fd()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(StoreError::Io(std::io::Error::last_os_error()))
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

    #[test]
    fn shared_pool_isolates_sink_failures() {
        // Two sinks on one pool: an injected barrier failure on sink A
        // must not disturb sink B's durability, and A's backlog +
        // recorded error stay scoped to A.
        let (path_a, file_a) = temp_file("pool-a.log");
        let (path_b, file_b) = temp_file("pool-b.log");
        let pool = GroupCommitPool::new();
        let a = pool.attach(file_a, 0, 0);
        let b = pool.attach(file_b, 0, 0);
        a.inject_barrier_failures(1);
        let ta = a.submit(b"aaaa".to_vec(), 1).expect("submit a");
        assert!(ta.wait_durable().is_err(), "injected failure on a");
        let tb = b.submit(b"bbbb".to_vec(), 1).expect("submit b");
        tb.wait_durable().expect("b lands despite a's failure");
        assert_eq!(b.durable_records(), 1);
        assert!(a.take_error().is_err(), "a's error scoped to a");
        b.take_error().expect("b has no error");
        // A's backlog lands on the next submission to a.
        let ta = a.submit(Vec::new(), 0).expect("barrier a");
        ta.wait_durable().expect("backlog retried");
        assert_eq!(a.durable_records(), 1);
        drop(a);
        drop(b);
        drop(pool);
        assert_eq!(std::fs::read(&path_a).expect("read a"), b"aaaa");
        assert_eq!(std::fs::read(&path_b).expect("read b"), b"bbbb");
        let _ = std::fs::remove_file(&path_a);
        let _ = std::fs::remove_file(&path_b);
    }

    #[test]
    fn shared_pool_coalesces_across_sinks_into_one_barrier() {
        // Hold the sync thread, queue frames on several sinks, release:
        // all of them must land under one device barrier (syncfs groups
        // by filesystem; the temp files share one).
        let (path_a, file_a) = temp_file("coalesce-a.log");
        let (path_b, file_b) = temp_file("coalesce-b.log");
        let (path_c, file_c) = temp_file("coalesce-c.log");
        let pool = GroupCommitPool::new();
        let a = pool.attach(file_a, 0, 0);
        let b = pool.attach(file_b, 0, 0);
        let c = pool.attach(file_c, 0, 0);
        pool.hold_barriers(true);
        let ta = a.submit(b"aa".to_vec(), 1).expect("submit a");
        let tb = b.submit(b"bb".to_vec(), 1).expect("submit b");
        let tc = c.submit(b"cc".to_vec(), 1).expect("submit c");
        pool.hold_barriers(false);
        ta.wait_durable().expect("a durable");
        tb.wait_durable().expect("b durable");
        tc.wait_durable().expect("c durable");
        assert!(
            pool.batches_synced() <= 2,
            "three sinks' frames coalesced into at most two barriers, got {}",
            pool.batches_synced()
        );
        drop((a, b, c, pool));
        assert_eq!(std::fs::read(&path_a).expect("read a"), b"aa");
        assert_eq!(std::fs::read(&path_b).expect("read b"), b"bb");
        assert_eq!(std::fs::read(&path_c).expect("read c"), b"cc");
        for p in [path_a, path_b, path_c] {
            let _ = std::fs::remove_file(&p);
        }
    }
}
