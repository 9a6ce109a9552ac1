//! End-to-end coverage for the hierarchical key lifecycle: a
//! differential property test pinning cross-generation adjudication
//! verdicts to single-generation ground truth, the sustained-issuance
//! acceptance run (four subtree exhaustions, zero failed seals, zero
//! degraded-mode entries), and a forged-rollover conviction.

use std::sync::Arc;

use proptest::prelude::*;

use nonrep_core::{Adjudicator, WindowSubmission};
use nonrep_crypto::digest::{sha256, Digest};
use nonrep_crypto::rng::SecureRandom;
use nonrep_crypto::sig::{KeyPair, SignatureScheme};
use nonrep_protocols::party::{KeyDirectory, Party, StaticKeyDirectory};
use nonrep_protocols::tokens::TokenKind;
use nonrep_protocols::CommitmentMode;
use nonrep_store::record::KeyRollover;
use nonrep_store::{EvidenceRecord, MemoryLog};
use nonrep_types::ids::{OrgId, RunId};
use nonrep_types::time::LogicalClock;

struct Duo {
    alice: Arc<Party>,
    bob: Arc<Party>,
    dir: Arc<StaticKeyDirectory>,
}

/// A pair of batched parties where alice's signature scheme is chosen by
/// the caller (hierarchical or flat); bob stays on a flat MSS key.
fn duo_with_alice_scheme(scheme: SignatureScheme, seed: u64) -> Duo {
    let clock = LogicalClock::new();
    let dir = Arc::new(StaticKeyDirectory::new());
    let party = |org: &str, scheme: SignatureScheme, seed: u64| {
        let mut rng = SecureRandom::from_seed(seed);
        let keys = Arc::new(KeyPair::generate(scheme, &mut rng));
        dir.insert(OrgId::new(org), keys.verifying_key());
        Party::with_commitment(
            org,
            keys,
            Arc::new(clock.clone()),
            Arc::new(MemoryLog::new()),
            Arc::clone(&dir) as Arc<dyn KeyDirectory>,
            rng,
            CommitmentMode::auto(50),
        )
    };
    let alice = party("alice", scheme, seed);
    let bob = party("bob", SignatureScheme::Mss { height: 6 }, seed ^ 0x626f62);
    Duo { alice, bob, dir }
}

/// One §3.2-style exchange: alice's NRO + bob's NRR, both cross-stored.
fn exchange(d: &Duo, payload: &[u8]) -> RunId {
    let run = d.alice.new_run_id();
    let subject = sha256(payload);
    let nro = d
        .alice
        .issue_token(TokenKind::NroReq, run, subject)
        .unwrap();
    d.alice.store_token(&nro).unwrap();
    d.bob
        .verify_and_store(&nro, TokenKind::NroReq, run, Some(&subject))
        .unwrap();
    let nrr = d.bob.issue_token(TokenKind::NrrReq, run, subject).unwrap();
    d.bob.store_token(&nrr).unwrap();
    d.alice
        .verify_and_store(&nrr, TokenKind::NrrReq, run, Some(&subject))
        .unwrap();
    run
}

/// [`exchange`], then an epoch seal on each side — every seal must
/// land. A rollover a seal's own signature triggers is persisted by the
/// next seal, so sealing per exchange keeps every generation's record in
/// the log by the time the run ends.
fn sealed_exchange(d: &Duo, payload: &[u8]) -> RunId {
    let run = exchange(d, payload);
    d.alice.scheduler().seal().unwrap();
    d.bob.scheduler().seal().unwrap();
    run
}

fn adjudicator(d: &Duo) -> Adjudicator {
    Adjudicator::new(d.dir.clone() as Arc<dyn KeyDirectory>)
}

fn full_windows(d: &Duo) -> [WindowSubmission; 2] {
    [
        WindowSubmission::from_log("alice", &**d.alice.log(), 0..u64::MAX),
        WindowSubmission::from_log("bob", &**d.bob.log(), 0..u64::MAX),
    ]
}

/// The run-independent shape of a verdict's facts, for cross-world
/// comparison (run ids differ between worlds; everything else must not).
fn fact_shape(v: &nonrep_core::Verdict) -> Vec<(String, OrgId, Digest, Vec<OrgId>)> {
    let mut out: Vec<_> = v
        .facts
        .iter()
        .map(|f| {
            let mut held = f.held_by.clone();
            held.sort();
            (
                f.kind.label().to_string(),
                f.issuer.clone(),
                f.subject,
                held,
            )
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Verdict equivalence across key generations: the same seeded
    /// workload adjudicated in an HSS world (alice's signing crosses
    /// 1–4 subtree rollovers) and in a single-generation MSS world must
    /// establish exactly the same facts, run for run — the lifecycle is
    /// invisible to adjudication outcomes.
    #[test]
    fn cross_generation_verdicts_equal_single_generation_ground_truth(
        seed in 0u64..1_000_000,
        subtree_height in 1u8..3,
        target_rollovers in 1u32..5,
    ) {
        let hss = duo_with_alice_scheme(
            SignatureScheme::Hss { root_height: 3, subtree_height },
            seed,
        );
        // Drive exchanges until alice has crossed the target number of
        // rollovers (capped well below every key's capacity).
        let mut payloads: Vec<Vec<u8>> = Vec::new();
        let mut runs_h: Vec<RunId> = Vec::new();
        for i in 0..24u64 {
            if hss.alice.keys().generation() >= target_rollovers {
                break;
            }
            let payload = [seed.to_le_bytes(), i.to_le_bytes()].concat();
            runs_h.push(sealed_exchange(&hss, &payload));
            payloads.push(payload);
        }
        prop_assert!(hss.alice.keys().generation() >= target_rollovers);
        // Ground truth: the identical workload in a world where alice
        // holds one flat tree with enough capacity to never roll.
        let mss = duo_with_alice_scheme(SignatureScheme::Mss { height: 6 }, seed);
        let runs_m: Vec<RunId> = payloads.iter().map(|p| sealed_exchange(&mss, p)).collect();
        for d in [&hss, &mss] {
            d.alice.flush_evidence().unwrap();
            d.bob.flush_evidence().unwrap();
        }
        for (run_h, run_m) in runs_h.iter().zip(&runs_m) {
            let v_h = adjudicator(&hss).adjudicate_windows(*run_h, &full_windows(&hss));
            let v_m = adjudicator(&mss).adjudicate_windows(*run_m, &full_windows(&mss));
            prop_assert_eq!(fact_shape(&v_h), fact_shape(&v_m));
            prop_assert!(v_h.suspect_submitters().is_empty());
            prop_assert!(v_m.suspect_submitters().is_empty());
            for (who, kind) in [("alice", TokenKind::NroReq), ("bob", TokenKind::NrrReq)] {
                prop_assert!(v_h.cannot_deny(&OrgId::new(who), kind));
            }
        }
        // The HSS submission carries its rollover records, all verified.
        let report = adjudicator(&hss).verify_log_in_place(OrgId::new("alice"), &**hss.alice.log());
        prop_assert!(report.clean());
        prop_assert!(report.rollovers >= target_rollovers as usize);
        prop_assert_eq!(report.rollovers_verified, report.rollovers);
    }
}

#[test]
fn sustained_issuance_crosses_four_exhaustions_with_zero_failed_seals() {
    // The acceptance run: a hierarchical org under sustained issuance
    // crosses at least 4 subtree exhaustions with zero failed seals,
    // zero degraded-mode entries, and clean cross-generation
    // adjudication at the end.
    let d = duo_with_alice_scheme(
        SignatureScheme::Hss {
            root_height: 3,
            subtree_height: 2,
        },
        42,
    );
    let mut runs = Vec::new();
    let mut i = 0u64;
    while d.alice.keys().generation() < 4 {
        runs.push(sealed_exchange(&d, &i.to_le_bytes()));
        i += 1;
        // Zero degraded-mode entries, checked after every exchange: the
        // lifecycle must never let the signer starve mid-run.
        assert!(
            !d.alice.scheduler().is_degraded(),
            "degraded mode entered at exchange {i}"
        );
        assert!(i < 64, "rollovers should arrive well within the budget");
    }
    d.alice.flush_evidence().unwrap();
    d.bob.flush_evidence().unwrap();
    assert!(!d.alice.scheduler().is_degraded());
    assert!(d.alice.keys().generation() >= 4);
    assert!(
        d.alice.keys().remaining().unwrap() > 0,
        "the hierarchy is nowhere near spent"
    );
    // Every run — first generation through fifth — adjudicates to the
    // same undeniable facts.
    for run in &runs {
        let v = adjudicator(&d).adjudicate_windows(*run, &full_windows(&d));
        assert!(v.suspect_submitters().is_empty());
        assert!(v.cannot_deny(&OrgId::new("alice"), TokenKind::NroReq));
        assert!(v.cannot_deny(&OrgId::new("bob"), TokenKind::NrrReq));
    }
    // The log carries one verified rollover record per generation.
    let report = adjudicator(&d).verify_log_in_place(OrgId::new("alice"), &**d.alice.log());
    assert!(report.clean());
    assert!(report.rollovers >= 4);
    assert_eq!(report.rollovers_verified, report.rollovers);
}

#[test]
fn forged_rollover_cert_convicts_the_submitter() {
    // An attacker grafting its own subtree cert into alice's history —
    // the byzantine-rollover move — is convicted: the record chains
    // cleanly, but its cert verifies only under the *attacker's* root,
    // so the report counts an unverified rollover and goes unclean.
    let d = duo_with_alice_scheme(
        SignatureScheme::Hss {
            root_height: 2,
            subtree_height: 1,
        },
        7,
    );
    exchange(&d, b"legit");
    d.alice.flush_evidence().unwrap();
    // Attacker key rolls once to mint a genuine-looking rollover event.
    let mut rng = SecureRandom::from_seed(666);
    let mut attacker = nonrep_crypto::HssSigner::generate(2, 1, &mut rng);
    for i in 0..3u8 {
        attacker.sign(&sha256(&[i])).unwrap();
    }
    let forged = KeyRollover::from_event(&attacker.rollover_history()[0]);
    // Graft it onto alice's log window with perfect chaining.
    let mut records: Vec<Arc<EvidenceRecord>> =
        d.alice.log().snapshot_range(0..d.alice.log().len());
    let last = records.last().unwrap();
    records.push(Arc::new(EvidenceRecord {
        seq: last.seq + 1,
        prev_hash: last.record_hash(),
        draft: forged.to_draft(OrgId::new("alice"), d.alice.now()),
    }));
    let report = adjudicator(&d).verify_window(&WindowSubmission {
        submitter: OrgId::new("alice"),
        records,
        head: Digest::ZERO,
        certs: Vec::new(),
    });
    assert!(
        report.chain.is_ok(),
        "the graft chains — crypto must catch it"
    );
    assert_eq!(report.rollovers, 1);
    assert_eq!(report.rollovers_verified, 0);
    assert!(!report.clean());
    // The untampered window stays clean.
    let honest = adjudicator(&d).verify_log_in_place(OrgId::new("alice"), &**d.alice.log());
    assert!(honest.clean());
}
