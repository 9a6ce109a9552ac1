//! Outside-in tracing: spans recorded by the harness at the public seams
//! of the stack, never inside it.
//!
//! A traced client thread owns a pre-allocated span buffer. Every bus
//! call runs its handler on the caller's thread, so the open-span stack
//! of that thread gives each span its parent for free: the op span is
//! the root, the taps ([`TimedLog`], [`EndpointTap`], the timed echo
//! component) nest under it. Threads that never called [`enable`] (the
//! deadline sealers, the group-commit sync threads) record no spans;
//! [`TimedLog`] still counts and times their appends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

use nonrep_crypto::digest::Digest;
use nonrep_net::bus::BusEndpoint;
use nonrep_store::{
    DurabilityClass, DurabilityTicket, EvidenceLog, EvidenceRecord, FileLog, RecordDraft,
    StoreError,
};
use nonrep_types::ids::{OrgId, RunId};

use crate::hist::Histogram;

/// One recorded interval. `parent` is the index of the enclosing span in
/// the same thread's buffer, plus one; zero marks a root.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
}

struct ThreadTrace {
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
    dropped: u64,
}

thread_local! {
    static TRACE: RefCell<Option<ThreadTrace>> = const { RefCell::new(None) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

pub fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Starts recording spans on the calling thread into a buffer of
/// `capacity` spans (allocated here, so recording never allocates).
pub fn enable(capacity: usize) {
    epoch();
    TRACE.with(|t| {
        *t.borrow_mut() = Some(ThreadTrace {
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(32),
            op: 0,
            dropped: 0,
        })
    });
}

/// Stops recording on the calling thread and returns its spans plus the
/// number that did not fit the buffer.
pub fn take() -> (Vec<Span>, u64) {
    TRACE.with(|t| match t.borrow_mut().take() {
        Some(tt) => (tt.spans, tt.dropped),
        None => (Vec::new(), 0),
    })
}

/// Spans the calling thread has recorded so far.
pub fn recorded() -> usize {
    TRACE.with(|t| t.borrow().as_ref().map_or(0, |tt| tt.spans.len()))
}

/// Sets the op id that spans opened from now on carry.
pub fn set_op(op: u64) {
    TRACE.with(|t| {
        if let Some(tt) = t.borrow_mut().as_mut() {
            tt.op = op;
        }
    });
}

/// Closes its span when dropped.
pub struct SpanGuard(Option<u32>);

/// Opens a span named `name` under the innermost open span of this
/// thread. A no-op on threads that are not recording.
pub fn span(name: &'static str) -> SpanGuard {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let Some(tt) = t.as_mut() else {
            return SpanGuard(None);
        };
        if tt.spans.len() == tt.spans.capacity() {
            tt.dropped += 1;
            return SpanGuard(None);
        }
        let idx = tt.spans.len() as u32;
        let parent = tt.open.last().map_or(0, |p| p + 1);
        tt.spans.push(Span {
            name,
            start_ns: now_ns(),
            end_ns: 0,
            parent,
            op: tt.op,
        });
        tt.open.push(idx);
        SpanGuard(Some(idx))
    })
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        let end = now_ns();
        TRACE.with(|t| {
            if let Some(tt) = t.borrow_mut().as_mut() {
                tt.spans[idx as usize].end_ns = end;
                while let Some(top) = tt.open.pop() {
                    if top == idx {
                        break;
                    }
                }
            }
        });
    }
}

/// Each span's self time: its duration minus the time its direct
/// children cover. Children of one parent never overlap (one thread), so
/// the covered time is the sum of their durations, clipped to the parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[s.parent as usize - 1];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            covered[s.parent as usize - 1] += hi.saturating_sub(lo);
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end_ns.saturating_sub(s.start_ns)).saturating_sub(c))
        .collect()
}

/// What the spans of one name add up to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub self_ns: u64,
    pub duration_ns: u64,
    pub count: u64,
}

/// Self time, duration and span count per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let mut by_name: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = by_name.entry(s.name).or_default();
        e.self_ns += self_ns;
        e.duration_ns += s.end_ns.saturating_sub(s.start_ns);
        e.count += 1;
    }
    by_name
}

/// Writes spans as JSON lines: name, start, end, parent, op id, thread.
pub fn write_jsonl(path: &std::path::Path, threads: &[Vec<Span>]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (tid, spans) in threads.iter().enumerate() {
        for (i, s) in spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"thread\":{tid},\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.op
            )?;
        }
    }
    out.flush()
}

/// Counters and timings of one [`TimedLog`], over every thread that
/// appended through it.
#[derive(Default)]
pub struct LogStats {
    pub appends: AtomicU64,
    pub append_bytes: AtomicU64,
    pub epoch_commits: AtomicU64,
    pub flushes: AtomicU64,
    pub flush_ns: AtomicU64,
    append_hist: Mutex<Histogram>,
}

impl LogStats {
    /// Latencies of every append, over all threads.
    pub fn append_hist(&self) -> MutexGuard<'_, Histogram> {
        self.append_hist
            .lock()
            .expect("append histogram lock: a recording thread panicked")
    }
}

/// The store seam: an [`EvidenceLog`] that times every append and flush
/// of the [`FileLog`] it wraps. Passed to `MiddlewareBuilder::evidence_log`
/// in traced worlds only.
pub struct TimedLog {
    inner: Arc<FileLog>,
    pub stats: LogStats,
}

impl TimedLog {
    pub fn new(inner: Arc<FileLog>) -> Self {
        Self {
            inner,
            stats: LogStats::default(),
        }
    }

    fn timed_flush<T>(&self, f: impl FnOnce() -> T) -> T {
        let _span = span("store.flush");
        let t0 = Instant::now();
        let out = f();
        self.stats
            .flush_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        out
    }
}

impl EvidenceLog for TimedLog {
    fn append(&self, draft: RecordDraft) -> Result<Arc<EvidenceRecord>, StoreError> {
        let _span = span("store.append");
        let t0 = Instant::now();
        let out = self.inner.append(draft);
        let ns = t0.elapsed().as_nanos() as u64;
        self.stats.append_hist().record(ns);
        self.stats.appends.fetch_add(1, Ordering::Relaxed);
        if let Ok(rec) = &out {
            self.stats
                .append_bytes
                .fetch_add(rec.byte_len() as u64, Ordering::Relaxed);
            if rec.is_epoch_commit() {
                self.stats.epoch_commits.fetch_add(1, Ordering::Relaxed);
            }
        }
        out
    }

    fn for_each(&self, f: &mut dyn FnMut(&EvidenceRecord)) {
        self.inner.for_each(f)
    }
    fn snapshot_range(&self, range: Range<u64>) -> Vec<Arc<EvidenceRecord>> {
        self.inner.snapshot_range(range)
    }
    fn by_run(&self, run_id: &RunId) -> Vec<Arc<EvidenceRecord>> {
        self.inner.by_run(run_id)
    }
    fn count_where(&self, pred: &dyn Fn(&EvidenceRecord) -> bool) -> u64 {
        self.inner.count_where(pred)
    }
    fn durability_class(&self) -> DurabilityClass {
        self.inner.durability_class()
    }
    fn buffer_headroom(&self) -> Option<u64> {
        self.inner.buffer_headroom()
    }
    fn flush(&self) -> Result<(), StoreError> {
        self.timed_flush(|| self.inner.flush())
    }
    fn flush_async(&self) -> Result<DurabilityTicket, StoreError> {
        self.timed_flush(|| self.inner.flush_async())
    }
    fn head(&self) -> Digest {
        self.inner.head()
    }
    fn len(&self) -> u64 {
        self.inner.len()
    }
    fn total_bytes(&self) -> u64 {
        self.inner.total_bytes()
    }
}

/// Wire messages captured by the taps for the codec replay.
#[derive(Default)]
pub struct Capture {
    /// Ops still to capture; taps stop copying once it reaches zero.
    pub ops_left: AtomicU64,
    pub messages: Mutex<Vec<Vec<u8>>>,
}

impl Capture {
    fn keep(&self, bytes: &[u8]) {
        if self.ops_left.load(Ordering::Relaxed) > 0 {
            self.messages
                .lock()
                .expect("capture lock: a recording thread panicked")
                .push(bytes.to_vec());
        }
    }
}

/// The protocols seam: registered on the bus in place of an
/// organisation's coordinator, it opens a span around every message the
/// coordinator handles and forwards it unchanged.
pub struct EndpointTap {
    inner: Arc<dyn BusEndpoint>,
    name: &'static str,
    capture: Arc<Capture>,
}

impl EndpointTap {
    pub fn new(inner: Arc<dyn BusEndpoint>, name: &'static str, capture: Arc<Capture>) -> Self {
        Self {
            inner,
            name,
            capture,
        }
    }
}

impl BusEndpoint for EndpointTap {
    fn handle_oneway(&self, from: &OrgId, payload: &[u8]) -> Result<(), String> {
        let _span = span(self.name);
        self.capture.keep(payload);
        self.inner.handle_oneway(from, payload)
    }

    fn handle_request(&self, from: &OrgId, payload: &[u8]) -> Result<Vec<u8>, String> {
        let _span = span(self.name);
        self.capture.keep(payload);
        let out = self.inner.handle_request(from, payload);
        if let Ok(bytes) = &out {
            self.capture.keep(bytes);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 7,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // op [0,100) > server [10,60) > append [20,30); op > append [70,90)
        let spans = vec![
            s("op", 0, 100, 0),
            s("server", 10, 60, 1),
            s("append", 20, 30, 2),
            s("append", 70, 90, 1),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 10, 20]);
        let by_name = totals_by_name(&spans);
        assert_eq!(
            by_name["append"],
            NameTotals {
                self_ns: 30,
                duration_ns: 30,
                count: 2
            }
        );
        assert_eq!(
            by_name["op"],
            NameTotals {
                self_ns: 30,
                duration_ns: 100,
                count: 1
            }
        );
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn spans_nest_by_open_stack_and_carry_the_op_id() {
        enable(8);
        set_op(42);
        {
            let _a = span("a");
            {
                let _b = span("b");
            }
            let _c = span("c");
        }
        let (spans, dropped) = take();
        assert_eq!(dropped, 0);
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(names, vec![("a", 0, 42), ("b", 1, 42), ("c", 1, 42)]);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        // Not recording: a no-op.
        let _none = span("ignored");
        assert_eq!(take().0.len(), 0);
    }

    #[test]
    fn a_full_buffer_counts_drops_instead_of_growing() {
        enable(1);
        let _a = span("a");
        let _b = span("b");
        drop(_b);
        drop(_a);
        let (spans, dropped) = take();
        assert_eq!((spans.len(), dropped), (1, 1));
    }
}
