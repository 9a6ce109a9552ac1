//! Adversarial fleet smoke run.
//!
//! Builds the showcase scenario (every byzantine role on stage) from
//! `NONREP_SIM_SEED` (default 1), executes it under two different
//! schedules, and checks the three fleet invariants: schedule-invariant
//! verdicts, every byzantine submitter detected, zero false accusations.
//!
//! With `NONREP_SIM_DISPUTE=1` it instead sweeps the *seeded family* for
//! scenarios that field a defecting fair-offline server, and checks that
//! every one of them convicts the defector from the sealed dispute
//! evidence — schedule-invariantly and with zero false accusations.
//!
//! With `NONREP_SIM_STALL=1` it drives the hundred-organisation
//! *metropolis* fleet under two schedules: every stalled run must
//! terminate in a timeout abort that attributes the staller (and only
//! the staller), the stalling server must be convicted by the TTP's
//! dispute decision, and the slow-but-honest peer must come through
//! unaccused.
//!
//! Replay a failure reported by CI or the property sweep with:
//!
//! ```sh
//! NONREP_SIM_SEED=<seed> cargo run --release --example fleet_sim
//! ```

use std::process::ExitCode;

use nonrep_sim::engine::{defector, run_fleet, staller, suspect};
use nonrep_sim::scenario::{Role, Scenario};

fn main() -> ExitCode {
    let seed: u64 = std::env::var("NONREP_SIM_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    if std::env::var("NONREP_SIM_DISPUTE").is_ok_and(|v| v != "0") {
        return dispute_sweep(seed);
    }
    if std::env::var("NONREP_SIM_STALL").is_ok_and(|v| v != "0") {
        return stall_sweep(seed);
    }
    let scenario = Scenario::showcase(seed);
    println!(
        "fleet seed {seed}: {} orgs (+ttp{}), {} byzantine, {} work items",
        scenario.regular.len(),
        if scenario.exhausted.is_some() {
            ", +exhausted"
        } else {
            ""
        },
        scenario.byzantine.len(),
        scenario.items.len(),
    );

    let scratch = std::env::temp_dir().join(format!("nonrep-fleet-sim-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let base = match run_fleet(&scenario, 0, &scratch.join("base")) {
        Ok(out) => out,
        Err(e) => return fail(seed, &format!("base fleet errored: {e}")),
    };
    let permuted = match run_fleet(&scenario, seed ^ 0x5eed, &scratch.join("permuted")) {
        Ok(out) => out,
        Err(e) => return fail(seed, &format!("permuted fleet errored: {e}")),
    };

    for run in &base.runs {
        println!(
            "  run {:>2} [{:>12}] completed={} aborted={} facts={} suspects={:?} \
             defectors={:?} stalled={:?}",
            run.index,
            run.variant,
            run.completed,
            run.aborted,
            run.facts.len(),
            run.named(suspect),
            run.named(defector),
            run.named(staller),
        );
    }

    if !base.verdicts_match(&permuted) {
        return fail(seed, "verdicts diverged under schedule permutation");
    }
    for (org, role) in &scenario.byzantine {
        if !base.detected(org) {
            return fail(
                seed,
                &format!("byzantine {org} ({}) escaped detection", role.name()),
            );
        }
    }
    for org in scenario.honest_orgs() {
        if base.detected(&org) {
            return fail(seed, &format!("honest {org} falsely accused"));
        }
    }
    println!(
        "ok: verdicts schedule-invariant, {} byzantine org(s) detected ({:?}), no false accusations",
        scenario.byzantine.len(),
        base.all_suspects(),
    );
    print_memo_summary();
    ExitCode::SUCCESS
}

/// Prints the process-wide MSS verification memo's counters to stderr
/// after every mode's summary line. They vary between two runs of one
/// seed, so they stay off stdout, which carries only the verdicts.
fn print_memo_summary() {
    let m = nonrep_crypto::mss::memo_stats();
    eprintln!(
        "verify memo {} hits / {} misses / {} inserts / {} overwrites",
        m.hits, m.misses, m.inserts, m.overwrites
    );
}

fn fail(seed: u64, what: &str) -> ExitCode {
    eprintln!("FLEET VIOLATION: {what}");
    eprintln!("repro: NONREP_SIM_SEED={seed} cargo run --release --example fleet_sim");
    ExitCode::FAILURE
}

/// Sweeps the seeded family from `base_seed` upward for scenarios that
/// draw a [`Role::DefectingServer`], and drives the first four of them
/// under two schedules each: the defector must be convicted from the
/// sealed dispute evidence in both executions, the verdicts must match,
/// and no honest organisation may be accused.
fn dispute_sweep(base_seed: u64) -> ExitCode {
    let scratch = std::env::temp_dir().join(format!("nonrep-fleet-dispute-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut checked = 0u32;
    let mut seed = base_seed.max(1);
    while checked < 4 {
        let scenario = Scenario::from_seed(seed);
        let defectors: Vec<_> = scenario
            .byzantine
            .iter()
            .filter(|(_, r)| *r == Role::DefectingServer)
            .map(|(o, _)| o.clone())
            .collect();
        if defectors.is_empty() {
            seed += 1;
            continue;
        }
        println!("==> dispute seed {seed}: defecting server(s) {defectors:?}");
        let base = match run_fleet(&scenario, 0, &scratch.join(format!("{seed}-base"))) {
            Ok(out) => out,
            Err(e) => return fail(seed, &format!("dispute base fleet errored: {e}")),
        };
        let permuted = match run_fleet(
            &scenario,
            seed ^ 0x5eed,
            &scratch.join(format!("{seed}-perm")),
        ) {
            Ok(out) => out,
            Err(e) => return fail(seed, &format!("dispute permuted fleet errored: {e}")),
        };
        if !base.verdicts_match(&permuted) {
            return fail(seed, "dispute verdicts diverged under schedule permutation");
        }
        for org in &defectors {
            let convicted = base
                .runs
                .iter()
                .any(|r| r.named(defector).contains(org.as_str()));
            if !convicted {
                return fail(seed, &format!("defecting server {org} not convicted"));
            }
        }
        for org in scenario.honest_orgs() {
            if base.detected(&org) {
                return fail(seed, &format!("honest {org} accused in dispute scenario"));
            }
        }
        checked += 1;
        seed += 1;
    }
    println!(
        "ok: {checked} dispute scenarios convicted their defectors under permuted schedules, \
         no false accusations"
    );
    print_memo_summary();
    ExitCode::SUCCESS
}

/// Drives the hundred-organisation metropolis fleet under two schedules
/// and checks the timeout-supervision invariants at scale: every run
/// terminates, the stalled run ends in a TTP abort attributing exactly
/// the staller, the stalling server is convicted by dispute decision,
/// and neither the slow peer nor any other honest organisation is ever
/// accused.
fn stall_sweep(seed: u64) -> ExitCode {
    let scenario = Scenario::metropolis(seed);
    println!(
        "metropolis seed {seed}: {} orgs (+ttp), {} byzantine ({}), {} work items",
        scenario.regular.len(),
        scenario.byzantine.len(),
        scenario
            .byzantine
            .iter()
            .map(|(o, r)| format!("{o}={}", r.name()))
            .collect::<Vec<_>>()
            .join(", "),
        scenario.items.len(),
    );
    let scratch = std::env::temp_dir().join(format!("nonrep-fleet-stall-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let base = match run_fleet(&scenario, 0, &scratch.join("base")) {
        Ok(out) => out,
        Err(e) => return stall_fail(seed, &format!("metropolis base fleet errored: {e}")),
    };
    let permuted = match run_fleet(&scenario, seed ^ 0x5eed, &scratch.join("permuted")) {
        Ok(out) => out,
        Err(e) => return stall_fail(seed, &format!("metropolis permuted fleet errored: {e}")),
    };
    for run in base.runs.iter().filter(|r| {
        r.aborted || !r.completed || !r.named(staller).is_empty() || !r.named(defector).is_empty()
    }) {
        println!(
            "  run {:>2} [{:>12}] completed={} aborted={} defectors={:?} stalled={:?}",
            run.index,
            run.variant,
            run.completed,
            run.aborted,
            run.named(defector),
            run.named(staller),
        );
    }
    if !base.verdicts_match(&permuted) {
        return stall_fail(
            seed,
            "metropolis verdicts diverged under schedule permutation",
        );
    }
    for (org, role) in &scenario.byzantine {
        if !base.detected(org) {
            return stall_fail(
                seed,
                &format!(
                    "byzantine {org} ({}) escaped detection at fleet scale",
                    role.name()
                ),
            );
        }
    }
    for org in scenario.honest_orgs() {
        if base.detected(&org) {
            return stall_fail(
                seed,
                &format!("honest {org} falsely accused at fleet scale"),
            );
        }
    }
    let aborted: Vec<_> = base.runs.iter().filter(|r| r.aborted).collect();
    if aborted.len() != 1 || aborted[0].named(staller).len() != 1 {
        return stall_fail(
            seed,
            "expected exactly one abort-closed run naming one staller",
        );
    }
    let incomplete = base.runs.iter().filter(|r| !r.completed).count();
    if incomplete != 1 {
        return stall_fail(
            seed,
            &format!("{incomplete} runs failed to terminate with an outcome (expected 1)"),
        );
    }
    println!(
        "ok: {} orgs, {} runs all terminated; timeout abort attributed {:?}; \
         verdicts schedule-invariant; no false accusations",
        scenario.regular.len(),
        base.runs.len(),
        aborted[0].named(staller),
    );
    print_memo_summary();
    ExitCode::SUCCESS
}

fn stall_fail(seed: u64, what: &str) -> ExitCode {
    eprintln!("STALL SWEEP VIOLATION: {what}");
    eprintln!(
        "repro: NONREP_SIM_STALL=1 NONREP_SIM_SEED={seed} cargo run --release --example fleet_sim"
    );
    ExitCode::FAILURE
}
