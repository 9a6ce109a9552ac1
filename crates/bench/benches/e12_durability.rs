//! E12: epoch-grouped durability on disk-backed evidence logs.
//!
//! Measures what `SyncPolicy` is for: making the epoch the durability
//! unit. Both contenders push 16 records per iteration through a
//! batched commitment scheduler over a `FileLog` and end the iteration
//! with an explicit epoch seal, and both end the iteration durable; the
//! only difference is *when the bytes hit the platter*:
//!
//! * `append_x16/fsync_per_append` — [`SyncPolicy::WriteThrough`]: every
//!   append writes and fsyncs (17 fsyncs per iteration, counting the
//!   epoch record).
//! * `append_x16/group_commit` — [`SyncPolicy::GroupCommit`]: appends
//!   buffer in memory; the epoch seal hands one contiguous write + one
//!   fsync for the whole batch to the sync thread, and the iteration
//!   waits on that seal's own ticket.
//!
//! `append_x16/memory` is the no-disk reference (same scheduler work on
//! a `MemoryLog`), so the two file numbers decompose into sign/hash cost
//! vs disk cost. Signatures use the arbitrated (HMAC) scheme to keep the
//! signing term small — the fsync policy is the variable under test; the
//! MSS signing cost of the same pipeline is measured in `e11_batch`.
//!
//! Logs live under the OS temp dir. Numbers are meaningless on a tmpfs
//! temp dir (no real sync cost) — the checked-in BENCH numbers come from
//! an ext4 host; see docs/BENCHMARKS.md.

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

fn scheduler_over(log: Arc<dyn EvidenceLog>) -> CommitmentScheduler {
    let keys = Arc::new(KeyPair::generate(
        SignatureScheme::Arbitrated,
        &mut SecureRandom::from_seed(12),
    ));
    CommitmentScheduler::new(
        keys,
        log,
        OrgId::new("org"),
        Arc::new(LogicalClock::new()),
        CommitmentMode::auto(50),
    )
}

/// Appends 16 records through the scheduler, then seals them as one
/// epoch (and, per sync policy, fsyncs). The seal is explicit because
/// the logical clock never moves: the tuner would otherwise double the
/// batch after every size seal.
fn push16(s: &CommitmentScheduler, round: u64) {
    for i in 0..16u64 {
        let n = round * 16 + i;
        s.record(RecordDraft {
            run_id: RunId::from_u128(u128::from(round) + 1),
            kind: "NRO_req".into(),
            actor: OrgId::new("org"),
            at: nonrep_types::time::Timestamp(n),
            content_digest: sha256(&n.to_le_bytes()),
            payload: vec![n as u8; 64],
        })
        .unwrap();
    }
    s.seal().unwrap();
}

fn temp_log(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("nonrep-e12-{}-{name}.log", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

fn bench_durability(c: &mut Criterion) {
    let mut group = c.benchmark_group("e12_durability");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_secs(1));

    {
        let path = temp_log("write-through");
        let log: Arc<dyn EvidenceLog> = Arc::new(FileLog::open(&path).unwrap());
        let s = scheduler_over(log);
        let mut round = 0u64;
        group.bench_function("append_x16/fsync_per_append", |b| {
            b.iter(|| {
                push16(&s, round);
                round += 1;
            })
        });
        let _ = std::fs::remove_file(&path);
    }
    {
        let path = temp_log("group-commit");
        let file = Arc::new(FileLog::open_with(&path, SyncPolicy::GroupCommit).unwrap());
        let s = scheduler_over(file.clone() as Arc<dyn EvidenceLog>);
        let mut round = 0u64;
        group.bench_function("append_x16/group_commit", |b| {
            b.iter(|| {
                push16(&s, round);
                let ticket = file.last_seal_ticket().expect("iteration sealed");
                ticket.wait_durable().unwrap();
                round += 1;
            })
        });
        let _ = std::fs::remove_file(&path);
    }
    {
        let s = scheduler_over(Arc::new(MemoryLog::new()) as Arc<dyn EvidenceLog>);
        let mut round = 0u64;
        group.bench_function("append_x16/memory", |b| {
            b.iter(|| {
                push16(&s, round);
                round += 1;
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_durability);
criterion_main!(benches);
