//! E13: group-commit durability under concurrent appenders.
//!
//! Measures what `SyncPolicy::GroupCommit` is for: decoupling append
//! latency from disk latency. Every contender pushes 4 appender threads
//! × 64 records each (= 256 records, about 16 sealed epochs) through ONE
//! batched commitment scheduler, each thread sealing after every 16 of
//! its records:
//!
//! * `append_4x64/group_commit` — [`SyncPolicy::GroupCommit`]: the
//!   sealing append enqueues the batch to the dedicated sync thread and
//!   returns; appenders keep running while the disk syncs, and epochs
//!   sealed while a barrier is in flight coalesce into one fsync. The
//!   iteration ends with a durable seal so it finishes fully durable —
//!   the row is append+seal *throughput to stable storage*, not
//!   deferred work. (The inline-fsync-per-epoch contender this suite
//!   was built to beat is gone; docs/BENCHMARKS.md keeps its last
//!   measured ratio.)
//! * `append_4x64/memory` — the no-disk reference (same scheduler work
//!   on a `MemoryLog`), isolating sign/hash/lock cost from disk cost.
//!
//! Signatures use the arbitrated (HMAC) scheme as in e12: the fsync
//! schedule is the variable under test. Logs live under the OS temp dir;
//! numbers are meaningless on tmpfs (no real sync cost) — see
//! docs/BENCHMARKS.md.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use nonrep_crypto::digest::sha256;
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, SignatureScheme};
use nonrep_protocols::scheduler::{CommitmentMode, CommitmentScheduler};
use nonrep_store::{EvidenceLog, FileLog, MemoryLog, RecordDraft, SyncPolicy};
use nonrep_types::ids::{OrgId, RunId};
use nonrep_types::time::LogicalClock;

const THREADS: u64 = 4;
const RECORDS_PER_THREAD: u64 = 64;

fn scheduler_over(log: Arc<dyn EvidenceLog>) -> Arc<CommitmentScheduler> {
    let keys = Arc::new(KeyPair::generate(
        SignatureScheme::Arbitrated,
        &mut SecureRandom::from_seed(13),
    ));
    Arc::new(CommitmentScheduler::new(
        keys,
        log,
        OrgId::new("org"),
        Arc::new(LogicalClock::new()),
        CommitmentMode::auto(50),
    ))
}

/// One iteration: 4 threads push 64 records each through the shared
/// scheduler, each sealing after every 16 of its records (explicitly:
/// the logical clock never moves, so the tuner would otherwise double
/// the batch after every size seal), then a final barrier makes the
/// whole iteration durable on whatever backend is under test.
fn push_concurrent(s: &Arc<CommitmentScheduler>, round: u64) {
    std::thread::scope(|scope| {
        for t in 0..THREADS {
            let s = Arc::clone(s);
            scope.spawn(move || {
                for i in 0..RECORDS_PER_THREAD {
                    let n = (round * THREADS + t) * RECORDS_PER_THREAD + i;
                    s.record(RecordDraft {
                        run_id: RunId::from_u128(u128::from(round * THREADS + t) + 1),
                        kind: "NRO_req".into(),
                        actor: OrgId::new("org"),
                        at: nonrep_types::time::Timestamp(n),
                        content_digest: sha256(&n.to_le_bytes()),
                        payload: vec![n as u8; 64],
                    })
                    .unwrap();
                    if i % 16 == 15 {
                        s.seal().unwrap();
                    }
                }
            });
        }
    });
    // Seal any unsealed remainder and wait out the device barrier: the
    // iteration ends with every record on stable storage.
    s.seal_durable().unwrap();
}

fn temp_log(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nonrep-e13-{}-{name}.log", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn bench_group_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("e13_group_commit");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(2));

    {
        let path = temp_log("group-commit");
        let log: Arc<dyn EvidenceLog> =
            Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
        let s = scheduler_over(log);
        let mut round = 0u64;
        group.bench_function("append_4x64/group_commit", |b| {
            b.iter(|| {
                push_concurrent(&s, round);
                round += 1;
            })
        });
        let _ = std::fs::remove_file(&path);
    }
    {
        let s = scheduler_over(Arc::new(MemoryLog::new()) as Arc<dyn EvidenceLog>);
        let mut round = 0u64;
        group.bench_function("append_4x64/memory", |b| {
            b.iter(|| {
                push_concurrent(&s, round);
                round += 1;
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_group_commit);
criterion_main!(benches);
