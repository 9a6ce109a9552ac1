//! E14: the multi-buffer SHA-256 engine under the W-OTS workloads it
//! was built for — key generation, signing and verification, plus the
//! raw chain walk (16 chains × 15 steps), under both dispatch tiers.
//!
//! Tier rows use *forced* dispatch (`Dispatch::all()` filtered by
//! availability), so one run on one host compares the two side by side:
//!
//! * `avx512` — the 16-lane AVX-512 kernel.
//! * `single` — multi-buffer off: one lane through the digest module's
//!   runtime dispatch (SHA-NI here, if present). What a host without
//!   AVX-512 runs, and the row `auto` must never do worse than.
//!
//! The regression gate (`scripts/bench_gate.sh`) guards these rows via
//! `scripts/bench_baseline_7.jsonl`; see docs/BENCHMARKS.md for how to
//! read forced-tier rows.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nonrep_crypto::digest::{mb, sha256};
use nonrep_crypto::wots::{self, WotsKeyPair};
use std::time::Duration;

fn tier_name(d: mb::Dispatch) -> &'static str {
    match d {
        mb::Dispatch::Avx512 => "avx512",
        mb::Dispatch::Single => "single",
    }
}

fn bench_multibuffer(c: &mut Criterion) {
    let mut group = c.benchmark_group("e14_multibuffer");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    let tiers: Vec<mb::Dispatch> = mb::Dispatch::all()
        .into_iter()
        .filter(|t| t.is_available())
        .collect();
    let seed = [0x77u8; 32];
    let digest = sha256(b"e14 message");

    for &tier in &tiers {
        group.bench_with_input(
            BenchmarkId::new("wots_keygen", tier_name(tier)),
            &tier,
            |b, &t| b.iter(|| WotsKeyPair::from_seed_with(seed, t)),
        );
    }

    let kp = WotsKeyPair::from_seed(seed);
    for &tier in &tiers {
        group.bench_with_input(
            BenchmarkId::new("wots_sign", tier_name(tier)),
            &tier,
            |b, &t| b.iter(|| kp.sign_with(&digest, t)),
        );
    }

    let sig = kp.sign(&digest);
    let pk = kp.public_key();
    for &tier in &tiers {
        group.bench_with_input(
            BenchmarkId::new("wots_verify", tier_name(tier)),
            &tier,
            |b, &t| b.iter(|| assert!(wots::verify_with(&pk, &digest, &sig, t))),
        );
    }

    // The raw engine: 16 chains walked 15 steps each, the keygen shape
    // `auto` calibrates on (one 16-lane group on avx512, 240 sequential
    // compressions on single).
    let heads: [[u8; 4]; 16] = std::array::from_fn(|l| [0x02, l as u8, 0, 0]);
    let steps = [15u8; 16];
    for &tier in &tiers {
        let mut values: [[u8; 32]; 16] =
            std::array::from_fn(|l| std::array::from_fn(|j| (l * 29 + j) as u8));
        group.bench_with_input(
            BenchmarkId::new("walk_16x15", tier_name(tier)),
            &tier,
            |b, &t| b.iter(|| mb::walk_chains_with(t, &heads, &steps, &mut values, &mut [])),
        );
    }
    group.finish();

    let active = mb::Dispatch::active();
    println!(
        "\nE14 report — auto dispatch on this host: {} ({} lane{})\n",
        tier_name(active),
        active.lanes(),
        if active.lanes() == 1 { "" } else { "s" },
    );
}

criterion_group!(benches, bench_multibuffer);
criterion_main!(benches);
