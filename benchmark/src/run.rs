//! One run of one workload: set-up, the measured part, and the checks on
//! what it left on disk. Untraced runs produce the end-to-end metrics;
//! [`crate::layers`] produces the per-layer ones.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use nonrep_types::ids::RunId;

use crate::audit::{audit_cap, Court};
use crate::hist::{median, segment_median_rate, Histogram, Segment};
use crate::host;
use crate::report::Json;
use crate::stack::{OutDir, Role, World, WorldRemains};
use crate::trace;
use crate::workload::{
    request_digest, Client, Mix, Op, OpKind, OpStream, SplitMix64, Workload, GENERATED_RUNS,
};

/// Closed-loop client threads: `min(2, nproc)`.
pub fn client_threads() -> usize {
    host::nproc().min(2)
}

/// Times the set-up is repeated; `setup_s` is the median.
const SETUP_REPS: usize = 3;
/// Segments a run of `--seconds` is cut into, per client.
const SEGMENTS: f64 = 20.0;
/// Ops of a load run whose evidence is re-read from disk and disputed.
pub const SAMPLED_OPS: u64 = 200;
/// A rate measured once over a short phase is noisy (the first recovery
/// also pays for faulting its pages in): recovery and audit each repeat at
/// least `PHASE_MIN_REPS` times, then on until they have used
/// `PHASE_BUDGET` or `PHASE_MAX_REPS`, and report the median.
const PHASE_MIN_REPS: usize = 3;
const PHASE_MAX_REPS: usize = 5;
const PHASE_BUDGET: Duration = Duration::from_millis(1200);
/// Failure reasons kept for the report.
const MAX_ERRORS: usize = 8;

pub struct RunArgs<'a> {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Scales every fixed op count (warm-up, generated runs, sampled
    /// ops); 1 except under `--smoke`.
    pub scale: f64,
    pub out: &'a OutDir,
}

impl RunArgs<'_> {
    pub fn scaled(&self, count: u64) -> u64 {
        ((count as f64 * self.scale).ceil() as u64).max(1)
    }
}

#[derive(Default)]
pub struct RunOutcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    pub notes: Vec<(&'static str, Json)>,
    pub errors: Vec<String>,
}

impl RunOutcome {
    /// An outcome nothing has failed yet.
    pub fn new() -> Self {
        Self {
            correct: true,
            ..Self::default()
        }
    }

    pub fn fail(&mut self, reason: String) {
        self.correct = false;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(reason);
        }
    }
}

/// When a closed loop ends.
#[derive(Clone, Copy)]
pub enum Stop {
    /// At the first segment boundary past `deadline` at which the loops
    /// together have reached the [`Shared`] mark.
    Deadline(Instant),
    /// After this many ops of this loop.
    Count(u64),
}

/// State the loops of one measured part share.
pub struct Shared {
    done: AtomicU64,
    mark: u64,
    /// Peak RSS (MiB, as `f64` bits) when `done` reached `mark`.
    rss_at_mark: AtomicU64,
}

impl Shared {
    pub fn new(mark: u64) -> Self {
        Self {
            done: AtomicU64::new(0),
            mark,
            rss_at_mark: AtomicU64::new(0),
        }
    }

    /// Counts one finished op; the op that reaches the mark reads RSS.
    fn op_done(&self) -> u64 {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if done == self.mark {
            self.rss_at_mark
                .store(host::peak_rss_mb().to_bits(), Ordering::Relaxed);
        }
        done
    }

    pub fn done(&self) -> u64 {
        self.done.load(Ordering::Relaxed)
    }

    /// Peak RSS at the mark, or now if the mark was never reached.
    pub fn rss_mb(&self) -> f64 {
        match self.rss_at_mark.load(Ordering::Relaxed) {
            0 => host::peak_rss_mb(),
            bits => f64::from_bits(bits),
        }
    }
}

/// What one closed loop measured.
#[derive(Default)]
pub struct LoopResult {
    pub hist: Histogram,
    pub by_kind: [Histogram; 5],
    pub segments: Vec<Segment>,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Run ids of the sharing ops, by op index (ascending).
    pub sharing_runs: Vec<(u64, RunId)>,
}

impl LoopResult {
    /// Folds a later loop of the same client into this one.
    pub fn absorb(&mut self, other: LoopResult) {
        self.hist.merge(&other.hist);
        for (mine, theirs) in self.by_kind.iter_mut().zip(&other.by_kind) {
            mine.merge(theirs);
        }
        self.segments.extend(other.segments);
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.sharing_runs.extend(other.sharing_runs);
    }

    pub fn ops(&self) -> u64 {
        self.hist.count()
    }

    fn record(&mut self, kind: OpKind, ns: u64, error: Option<String>) {
        self.hist.record(ns);
        self.by_kind[kind.index()].record(ns);
        if let Some(e) = error {
            self.failed += 1;
            if self.errors.len() < MAX_ERRORS {
                self.errors.push(e);
            }
        }
    }
}

/// Drives `step` in a closed loop, cutting it into segments of
/// `segment` wall time, until `stop`.
fn closed_loop(
    stop: Stop,
    segment: Duration,
    shared: &Shared,
    mut step: impl FnMut(&mut LoopResult),
) -> LoopResult {
    let mut result = LoopResult::default();
    let mut seg_start = Instant::now();
    let mut seg_ops = 0u64;
    loop {
        step(&mut result);
        let done = shared.op_done();
        seg_ops += 1;
        let counted_out = matches!(stop, Stop::Count(n) if result.ops() >= n);
        let now = Instant::now();
        if counted_out || now.duration_since(seg_start) >= segment {
            result.segments.push(Segment {
                ops: seg_ops,
                wall_ns: now.duration_since(seg_start).as_nanos() as u64,
            });
            seg_start = now;
            seg_ops = 0;
            match stop {
                Stop::Deadline(deadline) if now >= deadline && done >= shared.mark => break,
                Stop::Count(_) if counted_out => break,
                _ => {}
            }
        }
    }
    result
}

pub fn op_span_name(kind: OpKind) -> &'static str {
    match kind {
        OpKind::Direct => "op.direct",
        OpKind::Voluntary => "op.voluntary",
        OpKind::InlineTtp => "op.inline_ttp",
        OpKind::FairOffline => "op.fair_offline",
        OpKind::Sharing => "op.sharing",
    }
}

/// One client's closed loop over `stream` against `world`. Each op runs
/// under an `op.<kind>` span, which records only on a tracing thread.
pub fn invoke_loop(
    world: &World,
    seed: u64,
    mut stream: impl Iterator<Item = Op>,
    stop: Stop,
    segment: Duration,
    shared: &Shared,
) -> LoopResult {
    let client = Client::new(world, seed);
    closed_loop(stop, segment, shared, |result| {
        let op = stream.next().expect("op streams are endless");
        trace::set_op(u64::from(op.client) << 48 | op.index);
        let (ns, outcome) = {
            let _span = trace::span(op_span_name(op.kind));
            client.execute(&op)
        };
        match outcome {
            Ok(Some(run)) => {
                result.sharing_runs.push((op.index, run));
                result.record(op.kind, ns, None);
            }
            Ok(None) => result.record(op.kind, ns, None),
            Err(e) => result.record(op.kind, ns, Some(e)),
        }
    })
}

/// Runs `work(0..n)` on `n` threads released together by a barrier, and
/// returns their results in thread order.
pub fn on_threads<T: Send>(n: usize, work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let barrier = Barrier::new(n);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..n)
            .map(|k| {
                let (barrier, work) = (&barrier, &work);
                scope.spawn(move || {
                    barrier.wait();
                    work(k)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker thread panicked"))
            .collect()
    })
}

/// Runs `clients` closed loops over `world` at once, released together.
pub fn run_clients(
    world: &World,
    seed: u64,
    mix: Mix,
    clients: usize,
    stop: Stop,
    segment: Duration,
    shared: &Shared,
) -> Vec<LoopResult> {
    // A deadline is shared; a count is per loop.
    on_threads(clients, |c| {
        invoke_loop(
            world,
            seed,
            OpStream::new(seed, mix, c as u32),
            stop,
            segment,
            shared,
        )
    })
}

fn segment_len(seconds: f64) -> Duration {
    Duration::from_secs_f64((seconds / SEGMENTS).max(0.005))
}

/// Client id of the warm-up stream, apart from every measured client.
const WARMUP_CLIENT: u32 = 0xffff;

/// Builds a world and warms it up. The time this takes is `setup_s`.
pub fn set_up(args: &RunArgs<'_>, tag: &str, taps: bool, roles: &[Role]) -> Result<World, String> {
    let w = args.workload;
    let world = World::build(w.config(), roles, args.out, tag, args.seed, taps);
    if w.warmup_ops() > 0 {
        let warm = invoke_loop(
            &world,
            args.seed,
            OpStream::new(args.seed, w.mix(), WARMUP_CLIENT),
            Stop::Count(args.scaled(w.warmup_ops())),
            Duration::from_secs(3600),
            &Shared::new(0),
        );
        if let Some(e) = warm.errors.first() {
            return Err(format!("warm-up failed: {e}"));
        }
    }
    world.flush_all()?;
    Ok(world)
}

/// [`set_up`], [`SETUP_REPS`] times; returns the last world and the
/// median set-up time. Earlier worlds are torn down and their logs
/// removed between repetitions, outside the timed part.
pub fn set_up_repeated(
    args: &RunArgs<'_>,
    taps: bool,
    roles: &[Role],
) -> Result<(World, f64), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut world: Option<World> = None;
    for rep in 0..SETUP_REPS {
        if let Some(prev) = world.take() {
            prev.teardown().remove_logs();
        }
        let t0 = Instant::now();
        world = Some(set_up(args, &format!("w{rep}"), taps, roles)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((world.expect("SETUP_REPS > 0"), median(&times)))
}

/// Repeats `phase` (see [`PHASE_BUDGET`]) and returns the median of the
/// times, in seconds, it reports.
fn repeat_phase(mut phase: impl FnMut() -> Result<f64, String>) -> Result<f64, String> {
    let mut times = Vec::with_capacity(PHASE_MAX_REPS);
    let started = Instant::now();
    while times.len() < PHASE_MIN_REPS
        || (times.len() < PHASE_MAX_REPS && started.elapsed() < PHASE_BUDGET)
    {
        times.push(phase()?);
    }
    Ok(median(&times))
}

/// The read side every run ends with (and `dispute_audit` measures).
pub struct ReadSide {
    pub court: Court,
    pub recover_records_per_s: f64,
    pub audit_records_per_s: f64,
}

/// Reopens the logs of `remains` and audits them, each phase repeated
/// for a steady rate. Audits run on `workers` threads, a log each.
///
/// # Errors
///
/// If a log does not recover or its audit is not clean.
pub fn read_side(remains: &WorldRemains, workers: usize) -> Result<ReadSide, String> {
    // One reopened copy at a time: the previous one is dropped first, so
    // peak RSS holds the records once, as a restarted organisation would.
    let mut court = None;
    let recover_s = repeat_phase(|| {
        court = None;
        let (reopened, recover_ns) = Court::open(remains)?;
        court = Some(reopened);
        Ok(recover_ns as f64 / 1e9)
    })?;
    let court = court.expect("repeat_phase runs at least once");
    let records = court.records();

    let cap = audit_cap(remains.config);
    let mut audited = 0u64;
    let audit_s = repeat_phase(|| {
        let t0 = Instant::now();
        let next = AtomicU64::new(0);
        let counts: Vec<Result<u64, String>> = on_threads(workers, |_| {
            let mut sum = 0;
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                if i >= court.logs.len() {
                    return Ok(sum);
                }
                sum += court.audit(i, cap)?;
            }
        });
        audited = 0;
        for c in counts {
            audited += c?;
        }
        Ok(t0.elapsed().as_secs_f64())
    })?;
    Ok(ReadSide {
        court,
        recover_records_per_s: records as f64 / recover_s,
        audit_records_per_s: audited as f64 / audit_s,
    })
}

/// Draws `count` of the ops the loops executed, seeded, and
/// returns each with the run id of its sharing round if it was one.
pub fn sample_ops(
    seed: u64,
    mix: Mix,
    loops: &[LoopResult],
    count: u64,
) -> Vec<(Op, Option<RunId>)> {
    let total: u64 = loops.iter().map(LoopResult::ops).sum();
    if total == 0 {
        return Vec::new();
    }
    let mut rng = SplitMix64::new(seed ^ 0x5a4d_504c_4544_4f50);
    let mut picks: Vec<Vec<u64>> = vec![Vec::new(); loops.len()];
    for _ in 0..count {
        let mut at = rng.below(total);
        for (c, l) in loops.iter().enumerate() {
            if at < l.ops() {
                picks[c].push(at);
                break;
            }
            at -= l.ops();
        }
    }
    let mut sampled = Vec::with_capacity(count as usize);
    for (c, mut indices) in picks.into_iter().enumerate() {
        indices.sort_unstable();
        indices.dedup();
        let mut wanted = indices.into_iter().peekable();
        for op in OpStream::new(seed, mix, c as u32) {
            match wanted.peek() {
                None => break,
                Some(&i) if i == op.index => {
                    wanted.next();
                    let run = loops[c]
                        .sharing_runs
                        .binary_search_by_key(&op.index, |(i, _)| *i)
                        .ok()
                        .map(|at| loops[c].sharing_runs[at].1);
                    sampled.push((op, run));
                }
                Some(_) => {}
            }
        }
    }
    sampled
}

/// Disputes `op`'s run in `court`: the run is found through the request
/// digest in the client's durable log (sharing ops carry their run id).
///
/// # Errors
///
/// If the run is not on disk or its verdict is not clean and complete.
pub fn dispute_op(
    court: &Court,
    seed: u64,
    op: &Op,
    sharing_run: Option<RunId>,
) -> Result<crate::audit::DisputeCost, String> {
    let run = match sharing_run {
        Some(run) => run,
        None => court
            .run_of_request(&request_digest(seed, op))
            .ok_or_else(|| format!("{op:?}: no NRO_req for it in the client's reopened log"))?,
    };
    court.dispute(run, op.kind)
}

/// Fills the end-to-end metrics every untraced run reports.
#[allow(clippy::too_many_arguments)]
fn end_to_end(
    outcome: &mut RunOutcome,
    setup_s: f64,
    loops: &[LoopResult],
    cpu_us: u64,
    evidence_bytes_per_op: f64,
    rss_mb: f64,
    read: &ReadSide,
) {
    let mut hist = Histogram::new();
    loops.iter().for_each(|l| hist.merge(&l.hist));
    let ops = hist.count();
    let (tail_label, tail) = hist.tail_us(0.90, "p90");
    outcome.metrics = vec![
        ("setup_s", setup_s),
        (
            "ops_per_s",
            loops.iter().map(|l| segment_median_rate(&l.segments)).sum(),
        ),
        ("op_p50_us", hist.quantile_unchecked_us(0.5)),
        ("op_p90_us", tail),
        ("cpu_us_per_op", cpu_us as f64 / ops.max(1) as f64),
        ("evidence_bytes_per_op", evidence_bytes_per_op),
        ("peak_rss_mb", rss_mb),
        ("audit_records_per_s", read.audit_records_per_s),
    ];
    let segments: usize = loops.iter().map(|l| l.segments.len()).sum();
    outcome.notes.extend([
        ("latency_samples", Json::Num(ops as f64)),
        ("op_p90_us_is", Json::Str(tail_label.into())),
        ("op_p95_us", Json::Num(hist.quantile_unchecked_us(0.95))),
        ("op_p99_us", Json::Num(hist.quantile_unchecked_us(0.99))),
        ("segments", Json::Num(segments as f64)),
        (
            "recover_records_per_s",
            Json::Num(read.recover_records_per_s),
        ),
    ]);
    outcome.attempted = ops;
    outcome.failed += loops.iter().map(|l| l.failed).sum::<u64>();
    for e in loops.iter().flat_map(|l| l.errors.iter()) {
        outcome.fail(e.clone());
    }
}

/// An untraced run of a load workload (1–3): closed-loop clients for
/// `--seconds`, then the logs are reopened from disk, audited, and a
/// seeded sample of the ops disputed.
pub fn run_load(args: &RunArgs<'_>) -> Result<RunOutcome, String> {
    let w = args.workload;
    let clients = client_threads();
    let (world, setup_s) = set_up_repeated(args, false, w.roles())?;
    let mut outcome = RunOutcome::new();

    let bytes_before = world.disk_bytes();
    let shared = Shared::new((w.rss_mark_ops_per_second() * args.seconds).ceil() as u64);
    let cpu_before = host::cpu_time_us();
    let started = Instant::now();
    let stop = Stop::Deadline(started + Duration::from_secs_f64(args.seconds));
    let loops = run_clients(
        &world,
        args.seed,
        w.mix(),
        clients,
        stop,
        segment_len(args.seconds),
        &shared,
    );
    let flush_started = Instant::now();
    world.flush_all()?;
    let final_flush_s = flush_started.elapsed().as_secs_f64();
    let cpu_us = host::cpu_time_us() - cpu_before;
    let wall_s = started.elapsed().as_secs_f64();
    let ops = shared.done();
    let evidence = (world.disk_bytes() - bytes_before) as f64 / ops.max(1) as f64;

    if !world.keys_above_margin() {
        outcome.fail(format!(
            "a signing key ended below the margin of {} signatures: {:?}",
            crate::stack::KEY_MARGIN,
            world.keys_remaining()
        ));
    }
    let net = world.bus.stats();
    if net.dropped != 0 {
        outcome.fail(format!("the bus dropped {} messages", net.dropped));
    }
    outcome.notes.extend([
        ("ops_per_s_total", Json::Num(ops as f64 / wall_s)),
        ("final_flush_ms", Json::Num(final_flush_s * 1e3)),
        ("rss_mark_ops", Json::Num(shared.mark as f64)),
    ]);

    let remains = world.teardown();
    let read = read_side(&remains, clients)?;
    let sampled = sample_ops(args.seed, w.mix(), &loops, args.scaled(SAMPLED_OPS));
    outcome
        .notes
        .push(("sampled_ops", Json::Num(sampled.len() as f64)));
    for (op, run) in &sampled {
        if let Err(e) = dispute_op(&read.court, args.seed, op, *run) {
            outcome.failed += 1;
            outcome.fail(e);
        }
    }
    end_to_end(
        &mut outcome,
        setup_s,
        &loops,
        cpu_us,
        evidence,
        shared.rss_mb(),
        &read,
    );
    drop(read);
    remains.remove_logs();
    Ok(outcome)
}

/// One generated run of `dispute_audit`, as its disputes address it.
#[derive(Clone, Copy)]
struct Generated {
    run: RunId,
    kind: OpKind,
}

/// An untraced run of `dispute_audit`. Set-up generates
/// [`GENERATED_RUNS`] runs, flushes and drops the stacks. The measured
/// part reopens the logs, audits them whole, and then disputes seeded
/// runs from `client_threads()` workers until `--seconds` have passed.
pub fn run_dispute_audit(args: &RunArgs<'_>) -> Result<RunOutcome, String> {
    let w = args.workload;
    let workers = client_threads();
    let mut outcome = RunOutcome::new();

    // Generation is seconds of deterministic work, so one set-up is as
    // steady as a median of several — and repeating it would leave the
    // earlier worlds' freed memory in the peak RSS.
    let per_client = args.scaled(GENERATED_RUNS) / workers as u64;
    let t0 = Instant::now();
    let world = World::build(w.config(), w.roles(), args.out, "gen", args.seed, false);
    let loops = run_clients(
        &world,
        args.seed,
        w.mix(),
        workers,
        Stop::Count(per_client),
        Duration::from_secs(3600),
        &Shared::new(0),
    );
    world.flush_all()?;
    let evidence = world.disk_bytes() as f64 / (per_client * workers as u64) as f64;
    if !world.keys_above_margin() {
        return Err(format!(
            "generation exhausted a key: {:?}",
            world.keys_remaining()
        ));
    }
    let remains = world.teardown();
    let setup_s = t0.elapsed().as_secs_f64();
    if let Some(e) = loops.iter().flat_map(|l| l.errors.first()).next() {
        return Err(format!("generation failed: {e}"));
    }
    drop(loops);

    let started = Instant::now();
    let read = read_side(&remains, workers)?;
    // Harness bookkeeping, untimed by any metric: which run each
    // generated op became.
    let generated: Vec<Vec<Generated>> = (0..workers)
        .map(|c| {
            OpStream::new(args.seed, w.mix(), c as u32)
                .take(per_client as usize)
                .map(|op| {
                    read.court
                        .run_of_request(&request_digest(args.seed, &op))
                        .map(|run| Generated { run, kind: op.kind })
                        .ok_or_else(|| format!("{op:?}: generated but not in the reopened log"))
                })
                .collect::<Result<Vec<_>, _>>()
        })
        .collect::<Result<Vec<_>, _>>()?;

    let shared = Shared::new((w.rss_mark_ops_per_second() * args.seconds).ceil() as u64);
    let stop = Stop::Deadline(started + Duration::from_secs_f64(args.seconds));
    let segment = segment_len(args.seconds);
    let cpu_before = host::cpu_time_us();
    let loops = on_threads(workers, |k| {
        let mut rng =
            SplitMix64::new(args.seed ^ (k as u64 + 1).wrapping_mul(0xd6e8_feb8_6659_fd93));
        closed_loop(stop, segment, &shared, |result| {
            let of = &generated[rng.below(generated.len() as u64) as usize];
            let pick = of[rng.below(of.len() as u64) as usize];
            match read.court.dispute(pick.run, pick.kind) {
                Ok(cost) => result.record(pick.kind, cost.ns, None),
                Err(e) => result.record(pick.kind, 0, Some(e)),
            }
        })
    });
    let cpu_us = host::cpu_time_us() - cpu_before;
    outcome.notes.extend([
        (
            "generated_runs",
            Json::Num((per_client * workers as u64) as f64),
        ),
        ("log_records", Json::Num(read.court.records() as f64)),
        ("rss_mark_ops", Json::Num(shared.mark as f64)),
    ]);
    end_to_end(
        &mut outcome,
        setup_s,
        &loops,
        cpu_us,
        evidence,
        shared.rss_mb(),
        &read,
    );
    drop(read);
    remains.remove_logs();
    Ok(outcome)
}
