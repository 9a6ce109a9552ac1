//! E6 (paper §6): "the computational overhead of cryptographic
//! algorithms" — hash throughput, token signing/verification under both
//! schemes, key generation.
//!
//! Expected shape: arbitrated HMAC tags are ~2 hash compressions; MSS
//! signatures cost hundreds of compressions to sign/verify and are the
//! dominant cost of every NR protocol message; MSS key generation is
//! linear in capacity.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use nonrep_bench::FreshSignatures;
use nonrep_crypto::digest::{mb, sha256, sha256_pair, sha256_short, Digest};
use nonrep_crypto::hmac::hmac_sha256;
use nonrep_crypto::merkle::MerkleTree;
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, SignatureScheme};
use std::time::Duration;

fn bench_crypto(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_crypto");
    group
        .sample_size(30)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    // Hashing throughput.
    for size in [64usize, 1024, 65536] {
        let data = vec![0xABu8; size];
        group.throughput(Throughput::Bytes(size as u64));
        group.bench_with_input(BenchmarkId::new("sha256", size), &size, |b, _| {
            b.iter(|| sha256(&data))
        });
    }
    group.throughput(Throughput::Elements(1));

    // HMAC.
    {
        let key = [7u8; 32];
        let msg = vec![0u8; 256];
        group.bench_function("hmac_sha256_256B", |b| b.iter(|| hmac_sha256(&key, &msg)));
    }

    // Arbitrated scheme: sign + verify.
    {
        let kp = KeyPair::generate(SignatureScheme::Arbitrated, &mut SecureRandom::from_seed(1));
        group.bench_function("arbitrated_sign", |b| {
            b.iter(|| kp.sign(b"message").unwrap())
        });
        let sig = kp.sign(b"message").unwrap();
        let vk = kp.verifying_key();
        group.bench_function("arbitrated_verify", |b| {
            b.iter(|| assert!(vk.verify(b"message", &sig)))
        });
    }

    // MSS: sign (fresh key per iteration so capacity never runs out;
    // keygen happens in the excluded setup phase).
    {
        group.bench_function("mss_sign_h4", |b| {
            let mut seed = 0u64;
            b.iter_batched(
                || {
                    seed += 1;
                    KeyPair::generate(
                        SignatureScheme::Mss { height: 4 },
                        &mut SecureRandom::from_seed(seed),
                    )
                },
                |kp| kp.sign(b"message").unwrap(),
                BatchSize::PerIteration,
            )
        });
        // MSS verify: a fresh signature per iteration (signed in the
        // excluded setup phase), so the row stays one W-OTS recovery —
        // re-verifying one signature would time a verification-memo hit.
        let mut fresh = FreshSignatures::new(SignatureScheme::Mss { height: 4 }, 99);
        group.bench_function("mss_verify", |b| {
            b.iter_batched(
                || fresh.sign(b"message"),
                |(vk, sig)| assert!(vk.verify(b"message", &sig)),
                BatchSize::PerIteration,
            )
        });
    }

    // The multi-buffer engine vs the single-lane path on the same work:
    // 16 chain-step-shaped messages, lane-batched and one at a time.
    // The active dispatch is host-dependent (see e14 for forced tiers).
    {
        let msgs: Vec<Vec<u8>> = (0..16u8).map(|i| vec![i; 36]).collect();
        let refs: Vec<&[u8]> = msgs.iter().map(Vec::as_slice).collect();
        group.bench_function("mb_hash_lanes_16x36B", |b| b.iter(|| mb::hash_lanes(&refs)));
        group.bench_function("sha256_short_16x36B", |b| {
            b.iter(|| refs.iter().map(|m| sha256_short(m)).collect::<Vec<_>>())
        });
    }

    // The Merkle-node pair hash (every tree node and chain link pays this).
    {
        let left = sha256(b"left");
        let right = sha256(b"right");
        group.bench_function("sha256_pair", |b| {
            b.iter(|| sha256_pair(1, left.as_bytes(), right.as_bytes()))
        });
    }

    // Merkle-tree construction over pre-hashed leaves: pure sha256_pair
    // (the leaf clone happens in the untimed setup phase).
    {
        let leaves: Vec<Digest> = (0u64..4096).map(|i| sha256(&i.to_le_bytes())).collect();
        group.bench_function("merkle_build_4096", |b| {
            b.iter_batched(
                || leaves.clone(),
                MerkleTree::from_leaf_hashes,
                BatchSize::SmallInput,
            )
        });
    }

    // Digest hex rendering (logging / adjudication reports).
    {
        let d = sha256(b"hex");
        group.bench_function("digest_to_hex", |b| b.iter(|| d.to_hex()));
    }

    // MSS keygen across capacities (2^h signatures).
    for height in [4u8, 6, 8] {
        group.bench_with_input(BenchmarkId::new("mss_keygen", height), &height, |b, &h| {
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                KeyPair::generate(
                    SignatureScheme::Mss { height: h },
                    &mut SecureRandom::from_seed(seed),
                )
            })
        });
    }
    group.finish();

    // Signature size report.
    let arb = KeyPair::generate(SignatureScheme::Arbitrated, &mut SecureRandom::from_seed(1));
    let mss = KeyPair::generate(
        SignatureScheme::Mss { height: 8 },
        &mut SecureRandom::from_seed(2),
    );
    println!(
        "\nE6 report — signature material sizes: arbitrated {} B, MSS(h=8) {} B\n",
        arb.sign(b"m").unwrap().byte_len(),
        mss.sign(b"m").unwrap().byte_len()
    );
}

criterion_group!(benches, bench_crypto);
criterion_main!(benches);
