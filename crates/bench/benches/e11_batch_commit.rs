//! E11: the batched evidence-commitment pipeline.
//!
//! Measures what batching is for: amortizing MSS signatures over
//! evidence batches. `evidence_x16/per_record` signs and appends 16
//! records with one signature each; `evidence_x16/batched_16` pushes the
//! same 16 records through a batched commitment scheduler — one
//! signature for a frame carrying the 16 tokens plus one sealing the
//! epoch at the end of the iteration. Same work, ⌈N/16⌉·2 signatures
//! instead of N.
//!
//! `submit_window_1k` measures building a windowed adjudication
//! submission over a 1k-record batched log: `Arc` handle clones plus the
//! chain head, never a deep copy of the record set.

use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use nonrep_core::WindowSubmission;
use nonrep_crypto::digest::sha256;
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, SignatureScheme};
use nonrep_protocols::scheduler::{CommitmentMode, CommitmentScheduler, TokenSpec};
use nonrep_protocols::tokens::TokenKind;
use nonrep_protocols::ProtocolMessage;
use nonrep_store::{EvidenceLog, MemoryLog};
use nonrep_types::codec::Encode;
use nonrep_types::ids::{OrgId, RunId};
use nonrep_types::time::LogicalClock;

fn scheduler(mode: CommitmentMode, scheme: SignatureScheme, seed: u64) -> CommitmentScheduler {
    let keys = Arc::new(KeyPair::generate(
        scheme,
        &mut SecureRandom::from_seed(seed),
    ));
    CommitmentScheduler::new(
        keys,
        Arc::new(MemoryLog::new()) as Arc<dyn EvidenceLog>,
        OrgId::new("org"),
        Arc::new(LogicalClock::new()),
        mode,
    )
}

/// Issue + store 16 evidence records through `s` (the per-record
/// evidence cost unit: sign + append, ×16). Per-record mode signs each
/// token on its own; batched mode signs all 16 with the one frame that
/// would carry them.
fn push16(s: &CommitmentScheduler, round: u64) {
    let run = RunId::from_u128(u128::from(round) + 1);
    let specs: Vec<TokenSpec> = (0..16u64)
        .map(|i| {
            TokenSpec::new(
                TokenKind::NroReq,
                run,
                sha256(&(round * 16 + i).to_le_bytes()),
            )
        })
        .collect();
    let tokens = match s.mode() {
        CommitmentMode::PerRecord => specs.iter().map(|spec| s.issue(*spec)).collect(),
        CommitmentMode::Batched { .. } => {
            let frame = ProtocolMessage::new("direct", run, 1, "org", Vec::new());
            s.sign_frame(frame, &specs).map(|frame| frame.tokens)
        }
    }
    .expect("key sized for the bench window");
    for t in tokens {
        s.record(nonrep_store::RecordDraft {
            run_id: t.run_id,
            kind: t.kind.label().to_string(),
            actor: t.issuer.clone(),
            at: t.at,
            content_digest: t.subject,
            payload: t.encode_to_vec(),
        })
        .unwrap();
    }
}

fn bench_batch_commit(c: &mut Criterion) {
    let mut group = c.benchmark_group("e11_batch");
    group
        .sample_size(20)
        .warm_up_time(Duration::from_millis(100))
        .measurement_time(Duration::from_millis(500));

    // MSS height 16: 65 536 one-time leaves — enough for the whole
    // measurement window in per-record mode (~16 signatures per iter).
    let mss = SignatureScheme::Mss { height: 16 };
    {
        let s = scheduler(CommitmentMode::PerRecord, mss, 1);
        let mut round = 0u64;
        group.bench_function("evidence_x16/per_record", |b| {
            b.iter(|| {
                push16(&s, round);
                s.seal().unwrap();
                round += 1;
            })
        });
    }
    {
        // The logical clock never moves, so the tuner would double the
        // batch after every size seal; sealing each 16 keeps one epoch
        // per iteration.
        let s = scheduler(CommitmentMode::auto(50), mss, 2);
        let mut round = 0u64;
        group.bench_function("evidence_x16/batched_16", |b| {
            b.iter(|| {
                push16(&s, round);
                s.seal().unwrap();
                round += 1;
            })
        });
    }

    // Windowed adjudication submission over a 1k-record sealed log:
    // Arc handle clones + head, no deep copy.
    {
        let s = scheduler(CommitmentMode::auto(50), SignatureScheme::Arbitrated, 3);
        for round in 0..63u64 {
            push16(&s, round);
        }
        s.seal().unwrap();
        group.bench_function("submit_window_1k", |b| {
            b.iter(|| WindowSubmission::from_log("org", &**s.log(), 0..u64::MAX))
        });
    }
    group.finish();
}

criterion_group!(benches, bench_batch_commit);
criterion_main!(benches);
