//! E16: the hierarchical key lifecycle under sustained signing.
//!
//! Measures what certified subtree rollover costs relative to a single
//! flat tree of equal capacity:
//!
//! * `sign/*` — one steady-state leaf signature per scheme (fresh key
//!   each iteration, keygen excluded): the per-signature price of the
//!   hierarchy when no rollover fires.
//! * `verify/*` — one never-seen signature verified through the
//!   ordinary `VerifyingKey` path: `hss_4x2` under a never-seen subtree
//!   certificate (the chained-cert walk at its first sight),
//!   `hss_seen_cert` under one the verification memo already holds
//!   (every later signature of that subtree), `mss_h6` the flat tree.
//! * `rollover_cycle/hss` — five signatures crossing exactly one
//!   subtree exhaustion: the throughput dip at the rollover boundary,
//!   amortised over the cycle.
//! * `sustained_60/*` — sixty signatures straight through: the HSS
//!   signer crosses fourteen subtree exhaustions (2^2-leaf subtrees)
//!   while the flat 2^6 tree never rolls. The gate guards this row:
//!   "never stop signing" must not mean "sign slowly".
//!
//! The regression gate (`scripts/bench_gate.sh`) guards these rows via
//! `scripts/bench_baseline_7.jsonl`; see docs/BENCHMARKS.md.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use nonrep_bench::FreshSignatures;
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, Signature, SignaturePayload, SignatureScheme};
use std::time::Duration;

const HSS: SignatureScheme = SignatureScheme::Hss {
    root_height: 4,
    subtree_height: 2,
};
const MSS: SignatureScheme = SignatureScheme::Mss { height: 6 };

fn scheme_name(scheme: SignatureScheme) -> &'static str {
    match scheme {
        SignatureScheme::Hss { .. } => "hss_4x2",
        SignatureScheme::Mss { .. } => "mss_h6",
        _ => "other",
    }
}

/// The subtree generation an HSS signature was issued under.
fn cert_of(sig: &Signature) -> Option<u32> {
    match &sig.payload {
        SignaturePayload::Hss(h) => Some(h.cert.reference().generation),
        _ => None,
    }
}

fn bench_rollover(c: &mut Criterion) {
    let mut group = c.benchmark_group("e16_rollover");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // Steady-state sign: fresh key per iteration (setup excluded), one
    // leaf signature, no rollover in the measured path.
    for scheme in [HSS, MSS] {
        group.bench_with_input(
            BenchmarkId::new("sign", scheme_name(scheme)),
            &scheme,
            |b, &scheme| {
                let mut seed = 0u64;
                b.iter_batched(
                    || {
                        seed += 1;
                        KeyPair::generate(scheme, &mut SecureRandom::from_seed(seed))
                    },
                    |kp| kp.sign(b"message").unwrap(),
                    BatchSize::PerIteration,
                )
            },
        );
    }

    // Verify through the ordinary VerifyingKey path, first sight: a
    // fresh key per iteration (setup excluded), so neither the signature
    // nor — for HSS — the subtree certificate is in the verification
    // memo. The HSS row walks signature -> subtree root -> rollover
    // cert -> registered root: two W-OTS recoveries to the flat row's one.
    for scheme in [HSS, MSS] {
        group.bench_with_input(
            BenchmarkId::new("verify", scheme_name(scheme)),
            &scheme,
            |b, &scheme| {
                let mut seed = 3000u64;
                b.iter_batched(
                    || {
                        seed += 1;
                        FreshSignatures::new(scheme, seed).sign(b"message")
                    },
                    |(vk, sig)| assert!(vk.verify(b"message", &sig)),
                    BatchSize::PerIteration,
                )
            },
        );
    }

    // Steady-state HSS verify: a fresh signature under a certificate the
    // verifier has already seen (the setup verifies a sibling signature of
    // the same subtree first). The cert check is a memo hit, so the row
    // should sit at the flat-MSS verify cost — what every signature after
    // the first of a subtree generation costs in a running system.
    group.bench_function("verify/hss_seen_cert", |b| {
        let roomy = SignatureScheme::Hss {
            root_height: 4,
            subtree_height: 6,
        };
        let mut fresh = FreshSignatures::new(roomy, 4000);
        b.iter_batched(
            || loop {
                let (vk, sibling) = fresh.sign(b"sibling");
                assert!(vk.verify(b"sibling", &sibling));
                let (vk2, sig) = fresh.sign(b"message");
                // A rollover (or key change) between the two: try again.
                if vk2 == vk && cert_of(&sig) == cert_of(&sibling) {
                    break (vk, sig);
                }
            },
            |(vk, sig)| assert!(vk.verify(b"message", &sig)),
            BatchSize::PerIteration,
        )
    });

    // The rollover boundary: five signatures on a fresh hierarchy of
    // 2^2-leaf subtrees — four exhaust the first subtree, the fifth
    // lands on the freshly certified second generation. The dip the
    // cycle pays (cert signature + subtree activation) is amortised
    // into this row; compare against 5x the sign/hss_4x2 row.
    group.bench_function("rollover_cycle/hss", |b| {
        let mut seed = 1000u64;
        b.iter_batched(
            || {
                seed += 1;
                KeyPair::generate(HSS, &mut SecureRandom::from_seed(seed))
            },
            |kp| {
                for _ in 0..5 {
                    kp.sign(b"message").unwrap();
                }
                assert_eq!(kp.generation(), 1);
            },
            BatchSize::PerIteration,
        )
    });

    // Sustained issuance: sixty signatures straight through one key.
    // The hierarchical signer crosses fourteen subtree exhaustions
    // (well past the acceptance bar of four); the flat tree of equal
    // capacity never rolls. Same work, so the rows compare directly.
    for scheme in [HSS, MSS] {
        group.bench_with_input(
            BenchmarkId::new("sustained_60", scheme_name(scheme)),
            &scheme,
            |b, &scheme| {
                let mut seed = 2000u64;
                b.iter_batched(
                    || {
                        seed += 1;
                        KeyPair::generate(scheme, &mut SecureRandom::from_seed(seed))
                    },
                    |kp| {
                        for i in 0..60u8 {
                            kp.sign(&[i]).unwrap();
                        }
                        if matches!(scheme, SignatureScheme::Hss { .. }) {
                            assert!(kp.generation() >= 14);
                        }
                    },
                    BatchSize::PerIteration,
                )
            },
        );
    }
    group.finish();

    println!(
        "\nE16 report — hierarchical lifecycle: compare sign/hss_4x2 vs sign/mss_h6 \
         (steady state), rollover_cycle/hss vs 5x sign (boundary dip), and \
         sustained_60 rows (14 rollovers vs none over equal capacity).\n"
    );
}

criterion_group!(benches, bench_rollover);
criterion_main!(benches);
