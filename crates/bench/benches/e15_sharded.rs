//! E15: the sharded evidence plane under concurrent appenders.
//!
//! Measures what the `ShardedEvidenceLog`/`ShardedCommitmentPlane` pair
//! is for: removing the single `CommitmentScheduler` mutex + single hash
//! chain that every append of an organisation serializes on, while one
//! shared `GroupCommitPool` keeps the device-barrier count low and a
//! super-epoch on the meta shard restores the single global anchor.
//!
//! Every contender pushes N appender threads × M records each through a
//! batch-16 commitment pipeline to *stable storage* — each iteration
//! ends with the durable barrier (`seal_durable` / `flush_durable`, the
//! latter also cutting the super-epoch record), so the comparison is
//! fully-durable throughput, not deferred work:
//!
//! * `append_16x32/single_log` — the pre-sharding plane: ONE group-commit
//!   `FileLog` behind ONE scheduler; all 16 appenders contend on one
//!   mutex and one chain.
//! * `append_16x32/shards_{1,4,16}` — the sharded plane: per-run routing
//!   across N shards, one scheduler per shard, shared group-commit pool,
//!   super-epoch anchor per iteration. `shards_1` isolates the plane's
//!   own overhead (routing + meta shard) against `single_log`.
//! * `append_16x32/memory` — the no-disk, single-scheduler floor.
//! * `append_64x8/...` — the same story at 64 concurrent appenders.
//!
//! The second axis is the per-run evidence service — the reason the
//! sharded plane exists at "one org, millions of runs" scale:
//!
//! * `adjudicate_run_16x32/single_log` — adjudicating ONE run on the
//!   interleaved plane. Every epoch commitment mixes all runs, so the
//!   window that verifies (chain + epoch roots + head) is the *whole*
//!   log regardless of which run is disputed.
//! * `adjudicate_run_16x32/shards_16` — the same dispute on the sharded
//!   plane: the submission is the run's shard only, corroborated by the
//!   gossiped super-epoch anchors that tie that shard back to the single
//!   global anchor. Work shrinks with 1/shards.
//!
//! Each thread appends under its own run id, so records route to the
//! thread's hash-assigned shard (realistic collisions: 16 runs do not
//! cover 16 shards exactly). Signatures use the arbitrated (HMAC)
//! scheme as in e12/e13: the lock/chain/barrier schedule is the
//! variable under test, not hash-based signing. Logs live under the OS
//! temp dir; numbers are meaningless on tmpfs — see docs/BENCHMARKS.md.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use nonrep_core::{Adjudicator, Corroboration, WindowSubmission};
use nonrep_crypto::digest::sha256;
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, SignatureScheme};
use nonrep_protocols::plane::ShardedCommitmentPlane;
use nonrep_protocols::scheduler::{CommitmentMode, CommitmentScheduler};
use nonrep_protocols::{KeyDirectory, StaticKeyDirectory};
use nonrep_store::{
    EvidenceLog, FileLog, MemoryLog, RecordDraft, ShardedEvidenceLog, SuperEpochCommitment,
    SyncPolicy,
};
use nonrep_types::ids::{OrgId, RunId};
use nonrep_types::time::LogicalClock;

const BATCH: usize = 16;

fn bench_keys() -> Arc<KeyPair> {
    Arc::new(KeyPair::generate(
        SignatureScheme::Arbitrated,
        &mut SecureRandom::from_seed(15),
    ))
}

fn draft(run: RunId, n: u64) -> RecordDraft {
    RecordDraft {
        run_id: run,
        kind: "NRO_req".into(),
        actor: OrgId::new("org"),
        at: nonrep_types::time::Timestamp(n),
        content_digest: sha256(&n.to_le_bytes()),
        payload: vec![n as u8; 64],
    }
}

/// One iteration against a single-scheduler backend: `threads` appenders
/// push `per_thread` records each (auto-sealing every [`BATCH`]), then
/// the final barrier lands everything on stable storage.
fn push_single(s: &Arc<CommitmentScheduler>, threads: u64, per_thread: u64, round: u64) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let s = Arc::clone(s);
            scope.spawn(move || {
                let run = RunId::from_u128(u128::from(round * threads + t) + 1);
                for i in 0..per_thread {
                    let n = (round * threads + t) * per_thread + i;
                    s.record(draft(run, n)).unwrap();
                }
            });
        }
    });
    s.seal_durable().unwrap();
}

/// One iteration against the sharded plane: same appender workload, but
/// records route to each run's shard; the closing `flush_durable` seals
/// every shard, cuts the super-epoch anchor, and waits out the shared
/// pool's barrier.
fn push_sharded(p: &Arc<ShardedCommitmentPlane>, threads: u64, per_thread: u64, round: u64) {
    std::thread::scope(|scope| {
        for t in 0..threads {
            let p = Arc::clone(p);
            scope.spawn(move || {
                let run = RunId::from_u128(u128::from(round * threads + t) + 1);
                for i in 0..per_thread {
                    let n = (round * threads + t) * per_thread + i;
                    p.record(draft(run, n)).unwrap();
                }
            });
        }
    });
    p.flush_durable().unwrap();
}

fn single_scheduler(log: Arc<dyn EvidenceLog>) -> Arc<CommitmentScheduler> {
    Arc::new(CommitmentScheduler::new(
        bench_keys(),
        log,
        OrgId::new("org"),
        Arc::new(LogicalClock::new()),
        CommitmentMode::batched(BATCH),
    ))
}

fn sharded_plane(dir: &PathBuf, shards: u32) -> Arc<ShardedCommitmentPlane> {
    let log = Arc::new(ShardedEvidenceLog::open(dir, shards, SyncPolicy::GroupCommit).unwrap());
    Arc::new(ShardedCommitmentPlane::new(
        log,
        bench_keys(),
        OrgId::new("org"),
        Arc::new(LogicalClock::new()),
        CommitmentMode::batched(BATCH),
    ))
}

/// The adjudicator all contenders face: one directory entry for the
/// submitting org's (deterministic, seed-15) verifying key.
fn adjudicator() -> Adjudicator {
    let dir = StaticKeyDirectory::new();
    dir.insert(OrgId::new("org"), bench_keys().verifying_key());
    Adjudicator::new(Arc::new(dir) as Arc<dyn KeyDirectory>)
}

fn temp_path(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nonrep-e15-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    let _ = std::fs::remove_file(&p);
    p
}

fn bench_sharded(c: &mut Criterion) {
    let mut group = c.benchmark_group("e15_sharded");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    for (threads, per_thread) in [(16u64, 32u64), (64, 8)] {
        let label = format!("append_{threads}x{per_thread}");

        {
            let path = temp_path(&format!("single-{threads}"));
            let log: Arc<dyn EvidenceLog> =
                Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
            let s = single_scheduler(log);
            let mut round = 0u64;
            group.bench_function(format!("{label}/single_log"), |b| {
                b.iter(|| {
                    push_single(&s, threads, per_thread, round);
                    round += 1;
                })
            });
            let _ = std::fs::remove_file(&path);
        }
        for shards in [1u32, 4, 16] {
            // 64 appenders only contrast the endpoints (single vs 16).
            if threads == 64 && shards != 16 {
                continue;
            }
            let dir = temp_path(&format!("shards-{threads}-{shards}"));
            let p = sharded_plane(&dir, shards);
            let mut round = 0u64;
            group.bench_function(format!("{label}/shards_{shards}"), |b| {
                b.iter(|| {
                    push_sharded(&p, threads, per_thread, round);
                    round += 1;
                })
            });
            let _ = std::fs::remove_dir_all(&dir);
        }
        if threads == 16 {
            let s = single_scheduler(Arc::new(MemoryLog::new()) as Arc<dyn EvidenceLog>);
            let mut round = 0u64;
            group.bench_function(format!("{label}/memory"), |b| {
                b.iter(|| {
                    push_single(&s, threads, per_thread, round);
                    round += 1;
                })
            });
        }
    }

    // ---- per-run adjudication: the structural win of sharding ----
    //
    // Evidence is produced once in setup (16 runs × 32 records, sealed
    // and durable); each iteration then adjudicates one run, rotating
    // through all 16. On the interleaved single log the submission that
    // verifies is the whole log; on the sharded plane it is the run's
    // shard plus the gossiped super-epochs.
    let adj = adjudicator();
    let runs: Vec<RunId> = (0..16).map(|t| RunId::from_u128(t + 1)).collect();

    {
        let path = temp_path("adjudicate-single");
        let log = Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
        let s = single_scheduler(Arc::clone(&log) as Arc<dyn EvidenceLog>);
        push_single(&s, 16, 32, 0);
        let mut i = 0usize;
        group.bench_function("adjudicate_run_16x32/single_log", |b| {
            b.iter(|| {
                let run = runs[i % runs.len()];
                i += 1;
                let sub = WindowSubmission::from_log("org", &*log, 0..log.len());
                let verdict = adj.adjudicate_windows(run, &[sub]);
                assert!(verdict.reports.iter().all(|r| r.chain.is_ok()));
                black_box(verdict);
            })
        });
        let _ = std::fs::remove_file(&path);
    }
    {
        let dir = temp_path("adjudicate-shards");
        let p = sharded_plane(&dir, 16);
        push_sharded(&p, 16, 32, 0);
        let mut supers = Vec::new();
        p.log().meta().for_each(&mut |r| {
            if let Some(se) = SuperEpochCommitment::from_record(r) {
                supers.push(se);
            }
        });
        assert!(!supers.is_empty(), "setup must have cut a super-epoch");
        let adj = adjudicator().corroborated_by(Corroboration {
            supers: BTreeMap::from([(OrgId::new("org"), supers)]),
            ..Corroboration::default()
        });
        let mut i = 0usize;
        group.bench_function("adjudicate_run_16x32/shards_16", |b| {
            b.iter(|| {
                let run = runs[i % runs.len()];
                i += 1;
                let shard = p.shard_for(&run);
                let len = p.log().shard(shard).len();
                let sub = WindowSubmission::from_shard("org", p.log(), shard, 0..len);
                let verdict = adj.adjudicate_windows(run, &[sub]);
                assert!(verdict
                    .reports
                    .iter()
                    .all(|r| r.chain.is_ok() && r.anchor_violation.is_none()));
                black_box(verdict);
            })
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

criterion_group!(benches, bench_sharded);
criterion_main!(benches);
