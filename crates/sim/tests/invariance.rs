//! Property sweep over seeded adversarial fleets: for every scenario the
//! adjudicated verdicts must be invariant under schedule permutation,
//! every byzantine submitter must be detected, and no honest organisation
//! may ever be accused.
//!
//! A failing case prints its `(seed, schedule)` pair; replay it with
//! `NONREP_SIM_SEED=<seed> cargo run --release --example fleet_sim`.

use std::path::PathBuf;

use proptest::prelude::*;

use nonrep_crypto::mss::memo_stats;
use nonrep_sim::engine::run_fleet;
use nonrep_sim::scenario::Scenario;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nonrep-sim-prop-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fleet_verdicts_are_schedule_invariant(
        seed in 1u64..1_000_000,
        schedule in 1u64..1_000_000,
    ) {
        let scenario = Scenario::from_seed(seed);
        let base = run_fleet(&scenario, 0, &scratch(&format!("{seed}-base")))
            .expect("base fleet failed");
        let permuted = run_fleet(&scenario, schedule, &scratch(&format!("{seed}-{schedule}")))
            .expect("permuted fleet failed");

        // Schedule invariance: the execution order changed every
        // signature and drop pattern, but not one verdict.
        prop_assert!(
            base.verdicts_match(&permuted),
            "seed {seed}: verdicts diverged under schedule {schedule}"
        );

        // Completeness: every byzantine submitter convicted in both
        // executions.
        for (org, role) in &scenario.byzantine {
            prop_assert!(
                base.detected(org) && permuted.detected(org),
                "seed {seed}: byzantine {org} ({}) escaped detection",
                role.name()
            );
        }

        // Soundness: zero false accusations, ever.
        for org in scenario.honest_orgs() {
            prop_assert!(
                !base.detected(&org) && !permuted.detected(&org),
                "seed {seed}: honest {org} falsely accused"
            );
        }
    }
}

/// Replay determinism for the seed under investigation: honours
/// `NONREP_SIM_SEED` so a failure reported elsewhere can be pinned here.
///
/// The second replay re-verifies, signature for signature, what the
/// first left in the process-wide verification memo
/// (`nonrep_crypto::mss`), so equality here — every `RunOutcome`, its
/// facts and findings — also shows that
/// verdicts and attributions do not depend on the memo's state, which
/// the sweep above, running many fleets through one table, relies on.
#[test]
fn seeded_fleet_replays_bit_for_bit() {
    let seed = std::env::var("NONREP_SIM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1u64);
    let scenario = Scenario::from_seed(seed);
    let a = run_fleet(&scenario, 0, &scratch("replay-a")).unwrap();
    let hits_before = memo_stats().hits;
    let b = run_fleet(&scenario, 0, &scratch("replay-b")).unwrap();
    assert!(memo_stats().hits > hits_before, "replay b ran warm");
    assert_eq!(a, b, "seed {seed}: replay diverged");
    assert!(
        a.runs.iter().any(|r| !r.facts.is_empty()),
        "seed {seed}: fleet established no facts at all"
    );
}
