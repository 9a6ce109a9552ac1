//! The traced run: per-layer metrics from outside the program.
//!
//! One client drives the workload's op mix twice over the same ops: an
//! untraced pass on a plain world, then a traced pass on a world with
//! taps at the public seams (`TimedLog` under every organisation,
//! `EndpointTap` in front of every coordinator, a span inside the echo
//! component). A short probe then runs a few ops of every kind, so each
//! choreography is measured under every configuration. Layers with no
//! seam are replayed ([`crate::replay`]) and multiplied by exact counts.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

use nonrep_store::EvidenceLog;
use nonrep_types::ids::RunId;

use crate::audit::DisputeCost;
use crate::hist::{median, Histogram};
use crate::replay;
use crate::report::Json;
use crate::run::{
    dispute_op, invoke_loop, read_side, sample_ops, set_up, LoopResult, RunArgs, RunOutcome,
    Shared, Stop, SAMPLED_OPS,
};
use crate::stack::{Role, World};
use crate::trace::{self, NameTotals, Span};
use crate::workload::{Op, OpKind, OpStream};

/// Share of `--seconds` the untraced pass runs for; the traced pass
/// repeats its ops.
const PASS_SHARE: f64 = 0.25;
/// Ops at the head of the traced pass whose wire messages are kept for
/// the codec replay.
const CAPTURE_OPS: u64 = 200;
/// Ops of each kind the probe runs.
const PROBE_OPS: u64 = 40;
const PROBE_CLIENT: u32 = 0xfffe;
/// Spans an op may open; sizes the pre-allocated buffer.
const SPANS_PER_OP: u64 = 48;

/// Counters read off a world's public probes; two readings bracket a
/// pass.
#[derive(Clone, Default)]
struct Counters {
    keys_remaining: Vec<Option<u32>>,
    generations: u64,
    log_lens: Vec<u64>,
    barriers: u64,
    appends: u64,
    append_bytes: u64,
    epoch_commits: u64,
    flush_ns: u64,
    net_msgs: u64,
    net_bytes: u64,
}

impl Counters {
    fn read(world: &World) -> Counters {
        let mut c = Counters {
            keys_remaining: world.keys_remaining(),
            ..Counters::default()
        };
        for org in &world.orgs {
            c.generations += u64::from(org.mw.party().keys().generation());
            c.log_lens.push(org.file.len());
            c.barriers += org.file.sync_batches();
            if let Some(timed) = &org.timed {
                c.appends += timed.stats.appends.load(Ordering::Relaxed);
                c.append_bytes += timed.stats.append_bytes.load(Ordering::Relaxed);
                c.epoch_commits += timed.stats.epoch_commits.load(Ordering::Relaxed);
                c.flush_ns += timed.stats.flush_ns.load(Ordering::Relaxed);
            }
        }
        let net = world.bus.stats();
        c.net_msgs = net.delivered;
        c.net_bytes = net.bytes;
        c
    }
}

/// What the records appended between two readings say about signing and
/// verifying: tokens an organisation issued itself, and tokens of a peer
/// it verified before storing.
fn token_counts(world: &World, before: &Counters, after: &Counters) -> (u64, u64) {
    let (mut own, mut peer) = (0u64, 0u64);
    for (i, org) in world.orgs.iter().enumerate() {
        for r in org
            .file
            .snapshot_range(before.log_lens[i]..after.log_lens[i])
        {
            if r.is_epoch_commit() || r.is_key_rollover() || r.is_run_marker() {
                continue;
            }
            if r.draft.actor == *org.mw.org() {
                own += 1;
            } else {
                peer += 1;
            }
        }
    }
    (own, peer)
}

/// An endless stream of 1 KiB ops of one kind, for the probe.
fn probe_stream(kind: OpKind) -> impl Iterator<Item = Op> {
    (0u64..).map(move |i| Op {
        kind,
        size: 1024,
        client: PROBE_CLIENT,
        // Kinds share the probe client; disjoint index ranges keep every
        // request digest unique.
        index: (kind.index() as u64) << 32 | i,
    })
}

/// A single closed loop. A deadline is checked at segment boundaries,
/// so it gets short segments; a count needs none.
fn one_client(
    world: &World,
    seed: u64,
    stream: impl Iterator<Item = Op>,
    stop: Stop,
) -> LoopResult {
    let segment = match stop {
        Stop::Deadline(_) => Duration::from_millis(5),
        Stop::Count(_) => Duration::from_secs(3600),
    };
    invoke_loop(world, seed, stream, stop, segment, &Shared::new(0))
}

/// Ops (distinct op ids) that opened at least one span named `name`.
fn ops_with(spans: &[Span], name: &str) -> u64 {
    let mut ids: Vec<u64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.op)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    ids.len() as u64
}

/// A traced run of `args.workload`. See the module documentation.
pub fn run_traced(args: &RunArgs<'_>) -> Result<RunOutcome, String> {
    let w = args.workload;
    let (seed, mix) = (args.seed, w.mix());
    let mut outcome = RunOutcome::new();

    // Pass A: untraced, time-bounded.
    let world_a = set_up(args, "untraced", false, &Role::ALL)?;
    let started = Instant::now();
    let pass_a = one_client(
        &world_a,
        seed,
        OpStream::new(seed, mix, 0),
        Stop::Deadline(started + Duration::from_secs_f64(args.seconds * PASS_SHARE)),
    );
    let wall_a = started.elapsed().as_secs_f64();
    world_a.flush_all()?;
    world_a.teardown().remove_logs();
    let ops = pass_a.ops();

    // Pass B: the same ops with every tap installed.
    let world = set_up(args, "traced", true, &Role::ALL)?;
    for org in &world.orgs {
        if let Some(timed) = &org.timed {
            timed.stats.append_hist().clear();
        }
    }
    let before = Counters::read(&world);
    trace::enable(((ops + OpKind::ALL.len() as u64 * PROBE_OPS) * SPANS_PER_OP) as usize);
    let mut stream = OpStream::new(seed, mix, 0);
    let captured = CAPTURE_OPS.min(ops);
    world.capture.ops_left.store(captured, Ordering::Relaxed);
    let mut pass_b = one_client(&world, seed, &mut stream, Stop::Count(captured));
    world.capture.ops_left.store(0, Ordering::Relaxed);
    if ops > captured {
        pass_b.absorb(one_client(
            &world,
            seed,
            &mut stream,
            Stop::Count(ops - captured),
        ));
    }
    let after = Counters::read(&world);
    let unsealed: u64 = world
        .orgs
        .iter()
        .map(|o| o.mw.party().scheduler().unsealed_len())
        .sum();
    let effective_batch = world
        .org(Role::Client)
        .mw
        .party()
        .scheduler()
        .effective_batch_size();
    let mut append_hist = Histogram::new();
    for org in &world.orgs {
        if let Some(timed) = &org.timed {
            append_hist.merge(&timed.stats.append_hist());
        }
    }
    let (own_tokens, peer_tokens) = token_counts(&world, &before, &after);
    let pass_spans = trace::recorded();

    // The probe: every choreography under this configuration.
    let mut probe = LoopResult::default();
    let mut probe_ops: Vec<Op> = Vec::new();
    for kind in OpKind::ALL {
        let count = args.scaled(PROBE_OPS);
        probe_ops.extend(probe_stream(kind).take(count as usize));
        probe.absorb(one_client(
            &world,
            seed,
            probe_stream(kind),
            Stop::Count(count),
        ));
    }
    let flush_started = Instant::now();
    world.flush_all()?;
    let final_flush_ms = flush_started.elapsed().as_secs_f64() * 1e3;
    // Group commit moves durability off the op path, so the only
    // `flush` calls are this closing barrier's.
    let flush_ns = Counters::read(&world).flush_ns - before.flush_ns;
    let (spans, dropped_spans) = trace::take();
    if !world.keys_above_margin() {
        outcome.fail(format!(
            "a signing key ended below the margin: {:?}",
            world.keys_remaining()
        ));
    }
    let drops = world.bus.stats().dropped;
    let plain_invoke_us = replay::plain_invoke_us(&world, seed);
    let messages = std::mem::take(&mut *world.capture.messages.lock().expect("capture lock"));
    let remains = world.teardown();

    // The read side, one worker: recover, audit, dispute.
    let read = read_side(&remains, 1)?;
    let mut disputed: Vec<(OpKind, DisputeCost)> = Vec::new();
    let sampled = sample_ops(
        seed,
        mix,
        std::slice::from_ref(&pass_b),
        args.scaled(SAMPLED_OPS),
    );
    let probed = probe_ops.iter().map(|op| {
        let run: Option<RunId> = probe
            .sharing_runs
            .iter()
            .find(|(i, _)| *i == op.index)
            .map(|(_, r)| *r);
        (*op, run)
    });
    for (op, run) in sampled.into_iter().chain(probed) {
        match dispute_op(&read.court, seed, &op, run) {
            Ok(cost) => disputed.push((op.kind, cost)),
            Err(e) => {
                outcome.failed += 1;
                outcome.fail(e);
            }
        }
    }
    let recover_us_per_record = 1e6 / read.recover_records_per_s;
    let audit_us_per_record = 1e6 / read.audit_records_per_s;
    drop(read);
    remains.remove_logs();

    // Replays.
    let crypto = replay::crypto(w.config().scheme(), seed);
    let rollover = replay::rollover(seed);
    let captured_ops: Vec<Op> = OpStream::new(seed, mix, 0)
        .take(captured as usize)
        .collect();
    let codec_us = replay::codec_us_per_op(seed, &messages, &captured_ops);
    let bus_us = replay::bus_us_per_msg(seed, crate::run::client_threads());

    // Everything per op is per op of the traced pass.
    let n = ops.max(1) as f64;
    let (pass, probe_part) = spans.split_at(pass_spans.min(spans.len()));
    let in_pass = trace::totals_by_name(pass);
    let overall = trace::totals_by_name(&spans);
    let of = |map: &BTreeMap<&'static str, NameTotals>, name: &str| {
        map.get(name).copied().unwrap_or_default()
    };
    let client_self_us = OpKind::ALL
        .iter()
        .map(|k| of(&in_pass, crate::run::op_span_name(*k)).self_ns as f64 / 1e3)
        .sum::<f64>()
        / n;
    let per_reaching_op =
        |name: &str| of(&overall, name).self_ns as f64 / 1e3 / ops_with(&spans, name).max(1) as f64;
    let component = of(&overall, "container.component");
    let component_us = component.self_ns as f64 / 1e3 / component.count.max(1) as f64;

    let signed = match (
        before.keys_remaining.iter().flatten().sum::<u32>(),
        after.keys_remaining.iter().flatten().sum::<u32>(),
    ) {
        // Hash-based keys count their own signatures.
        (b, a) if b > 0 => f64::from(b - a),
        // HMAC keys are unbounded: one signature per sealed epoch and at
        // most one per issued token (a batch of tokens shares one).
        _ => (own_tokens + (after.epoch_commits - before.epoch_commits)) as f64,
    };
    let sigs_per_op = signed / n;
    let verifies_per_op = peer_tokens as f64 / n;
    let rollovers_per_kop = (after.generations - before.generations) as f64 / n * 1e3;
    let sign_verify_us = sigs_per_op * crypto.sign_us + verifies_per_op * crypto.verify_us;
    // All crypto work per op, on whichever thread it runs …
    let crypto_us = sign_verify_us + rollovers_per_kop * rollover.saturated_ms;
    // … and the part on the op's path in this one-client pass, where an
    // idle core has the next subtree built before it is needed.
    let crypto_on_path_us = sign_verify_us + rollovers_per_kop * rollover.settled_ms;
    let appends = (after.appends - before.appends) as f64;
    let msgs_per_op = (after.net_msgs - before.net_msgs) as f64 / n;
    let in_pass_us = |name: &str| of(&in_pass, name).duration_ns as f64 / 1e3 / n;
    let store_us = in_pass_us("store.append") + in_pass_us("store.flush");
    let in_op_component_us = in_pass_us("container.component");
    let attributed_us =
        store_us + in_op_component_us + crypto_on_path_us + codec_us + msgs_per_op * bus_us;
    let invoke_us_mean = pass_b.hist.mean_us();
    let p50_a = pass_a.hist.quantile_unchecked_us(0.5);
    let p50_b = pass_b.hist.quantile_unchecked_us(0.5);

    let mut by_kind: Vec<Histogram> = pass_b.by_kind.to_vec();
    for (all, probed) in by_kind.iter_mut().zip(&probe.by_kind) {
        all.merge(probed);
    }
    let records_per_op = |kind: OpKind| {
        let of_kind: Vec<f64> = disputed
            .iter()
            .filter(|(k, _)| *k == kind)
            .map(|(_, c)| c.run_records as f64)
            .collect();
        of_kind.iter().sum::<f64>() / of_kind.len().max(1) as f64
    };
    let window_records: Vec<f64> = disputed
        .iter()
        .map(|(_, c)| c.window_records as f64)
        .collect();
    let adjudicate_us_per_record = disputed.iter().map(|(_, c)| c.ns as f64).sum::<f64>()
        / 1e3
        / window_records.iter().sum::<f64>().max(1.0);

    let mut m: Vec<(&'static str, f64)> = vec![
        ("types.codec_us_per_op", codec_us),
        ("crypto.sign_us", crypto.sign_us),
        ("crypto.verify_us", crypto.verify_us),
        ("crypto.rollover_ms", rollover.saturated_ms),
        ("crypto.rollover_settled_ms", rollover.settled_ms),
        ("crypto.sigs_per_op", sigs_per_op),
        ("crypto.verifies_per_op", verifies_per_op),
        ("crypto.rollovers_per_kop", rollovers_per_kop),
        ("crypto.us_per_op", crypto_us),
        ("crypto.sig_bytes", crypto.sig_bytes),
        (
            "store.append_us_p50",
            append_hist.quantile_unchecked_us(0.5),
        ),
        ("store.append_us_p99", append_hist.tail_us(0.99, "p99").1),
        ("store.appends_per_op", appends / n),
        ("store.flush_us_per_op", flush_ns as f64 / 1e3 / n),
        (
            "store.barriers_per_kop",
            (after.barriers - before.barriers) as f64 / n * 1e3,
        ),
        (
            "store.bytes_per_record",
            (after.append_bytes - before.append_bytes) as f64 / appends.max(1.0),
        ),
        (
            "store.epochs_per_kop",
            (after.epoch_commits - before.epoch_commits) as f64 / n * 1e3,
        ),
        ("store.final_flush_ms", final_flush_ms),
        ("store.recover_us_per_record", recover_us_per_record),
        ("net.msgs_per_op", msgs_per_op),
        (
            "net.bytes_per_op",
            (after.net_bytes - before.net_bytes) as f64 / n,
        ),
        ("net.bus_us_per_msg", bus_us),
        ("net.drops", drops as f64),
    ];
    const P50_NAMES: [&str; 5] = [
        "protocols.op_p50_us.direct",
        "protocols.op_p50_us.voluntary",
        "protocols.op_p50_us.inline_ttp",
        "protocols.op_p50_us.fair_offline",
        "protocols.op_p50_us.sharing",
    ];
    const RECORD_NAMES: [&str; 5] = [
        "protocols.records_per_op.direct",
        "protocols.records_per_op.voluntary",
        "protocols.records_per_op.inline_ttp",
        "protocols.records_per_op.fair_offline",
        "protocols.records_per_op.sharing",
    ];
    for kind in OpKind::ALL {
        m.push((
            P50_NAMES[kind.index()],
            by_kind[kind.index()].quantile_unchecked_us(0.5),
        ));
    }
    for kind in OpKind::ALL {
        m.push((RECORD_NAMES[kind.index()], records_per_op(kind)));
    }
    m.extend([
        (
            "protocols.server_self_us",
            per_reaching_op("protocols.server"),
        ),
        ("protocols.ttp_self_us", per_reaching_op("protocols.ttp")),
        ("protocols.effective_batch", effective_batch as f64),
        ("protocols.unsealed_at_end", unsealed as f64),
        ("container.plain_invoke_us", plain_invoke_us),
        ("container.component_us", component_us),
        ("core.nr_overhead_x", p50_a / plain_invoke_us),
        ("core.invoke_us_p50", p50_a),
        ("core.invoke_us_p99", pass_a.hist.tail_us(0.99, "p99").1),
        ("core.invoke_us_mean", invoke_us_mean),
        ("core.client_self_us", client_self_us),
        ("core.ops_per_s_total", ops as f64 / wall_a),
        ("core.adjudicate_us_per_record", adjudicate_us_per_record),
        ("core.window_records_p50", median(&window_records)),
        ("core.audit_us_per_record", audit_us_per_record),
        ("breakdown.attributed_us", attributed_us),
        ("breakdown.coverage", attributed_us / invoke_us_mean),
        ("trace.overhead_pct", (p50_b / p50_a - 1.0) * 100.0),
    ]);
    outcome.metrics = m;

    let trace_path = args.out.root().join(format!("trace-{}.jsonl", w.name()));
    trace::write_jsonl(&trace_path, std::slice::from_ref(&spans))
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;

    outcome.attempted = pass_a.ops() + pass_b.ops() + probe.ops();
    for l in [&pass_a, &pass_b, &probe] {
        outcome.failed += l.failed;
        for e in &l.errors {
            outcome.fail(e.clone());
        }
    }
    if drops != 0 {
        outcome.fail(format!("the bus dropped {drops} messages"));
    }
    outcome.notes.extend([
        ("traced_ops", Json::Num(ops as f64)),
        (
            "probe_ops_per_kind",
            Json::Num(args.scaled(PROBE_OPS) as f64),
        ),
        ("disputed_ops", Json::Num(disputed.len() as f64)),
        ("spans", Json::Num(spans.len() as f64)),
        ("probe_spans", Json::Num(probe_part.len() as f64)),
        ("dropped_spans", Json::Num(dropped_spans as f64)),
        ("captured_messages", Json::Num(messages.len() as f64)),
        ("untraced_p50_us", Json::Num(p50_a)),
        ("traced_p50_us", Json::Num(p50_b)),
        ("breakdown_store_us", Json::Num(store_us)),
        ("breakdown_component_us", Json::Num(in_op_component_us)),
        ("breakdown_crypto_us", Json::Num(crypto_on_path_us)),
        ("breakdown_codec_us", Json::Num(codec_us)),
        ("breakdown_bus_us", Json::Num(msgs_per_op * bus_us)),
        ("trace_file", Json::Str(trace_path.display().to_string())),
    ]);
    Ok(outcome)
}
