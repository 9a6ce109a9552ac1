#!/usr/bin/env bash
# Adversarial fleet smoke sweep: runs the seeded fleet simulator
# (examples/fleet_sim.rs) over a seed range and fails loudly with a
# one-line repro command if any seed violates the fleet invariants
# (schedule-invariant verdicts, all byzantine submitters detected, zero
# false accusations). A final dispute sweep then walks the seeded
# family for scenarios with a defecting fair-offline server and checks
# that every one convicts the defector from the sealed dispute
# evidence, and a stalling sweep drives the hundred-organisation
# metropolis fleet: every stalled run must terminate in a timeout abort
# that attributes exactly the staller, with zero false accusations.
# The lowest seed runs twice: its two stdout streams (the verdict lines)
# must be equal byte for byte. The last line is one sha256 over the
# stdout of every run, so two commits' fleet output compares in a line.
#
#   scripts/sim.sh                 # seeds 1..8, release build
#   scripts/sim.sh 5               # seeds 1..5
#   scripts/sim.sh 3 12            # seeds 3..12
#   NONREP_SIM_DEBUG=1 scripts/sim.sh   # dev profile (faster build)
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

LO=1
HI=8
if [[ $# -eq 1 ]]; then
    HI="$1"
elif [[ $# -ge 2 ]]; then
    LO="$1"
    HI="$2"
fi

PROFILE_FLAG="--release"
if [[ "${NONREP_SIM_DEBUG:-0}" == "1" ]]; then
    PROFILE_FLAG=""
fi

# Build once up front so per-seed runs are pure execution time.
# shellcheck disable=SC2086  # PROFILE_FLAG is intentionally word-split
cargo build $PROFILE_FLAG --quiet --example fleet_sim

# Runs fleet_sim under the environment assignments "$@", printing its
# stdout, keeping it in $out and adding it to $all; fails as fleet_sim does.
all=""
fleet_run() {
    # shellcheck disable=SC2086
    out="$(env "$@" cargo run $PROFILE_FLAG --quiet --example fleet_sim)" || {
        printf '%s\n' "$out"
        return 1
    }
    printf '%s\n' "$out"
    all+="$out"$'\n'
}

# Runs one fleet seed.
fleet_seed() {
    local seed="$1"
    if ! fleet_run NONREP_SIM_SEED="$seed"; then
        echo "sim.sh: FLEET INVARIANT VIOLATION at seed $seed" >&2
        echo "repro: NONREP_SIM_SEED=$seed cargo run --release --example fleet_sim" >&2
        exit 1
    fi
}

out=""
for seed in $(seq "$LO" "$HI"); do
    echo "==> fleet seed $seed"
    fleet_seed "$seed"
    if [[ "$seed" -eq "$LO" ]]; then
        first="$out"
    fi
done

echo "==> fleet seed $LO again (stdout must repeat)"
fleet_seed "$LO"
if [[ "$out" != "$first" ]]; then
    echo "sim.sh: fleet seed $LO printed different stdout on its second run:" >&2
    diff <(printf '%s\n' "$first") <(printf '%s\n' "$out") >&2 || true
    exit 1
fi

echo "==> dispute sweep (seeded family, defecting servers)"
if ! fleet_run NONREP_SIM_DISPUTE=1 NONREP_SIM_SEED="$LO"; then
    echo "sim.sh: DISPUTE SWEEP VIOLATION (base seed $LO)" >&2
    echo "repro: NONREP_SIM_DISPUTE=1 NONREP_SIM_SEED=$LO cargo run --release --example fleet_sim" >&2
    exit 1
fi

echo "==> stalling-adversary sweep (metropolis fleet, timeout aborts)"
if ! fleet_run NONREP_SIM_STALL=1 NONREP_SIM_SEED="$LO"; then
    echo "sim.sh: STALL SWEEP VIOLATION (base seed $LO)" >&2
    echo "repro: NONREP_SIM_STALL=1 NONREP_SIM_SEED=$LO cargo run --release --example fleet_sim" >&2
    exit 1
fi

echo "sim.sh: seeds $LO..$HI green (incl. seed $LO repeat, dispute + stall sweeps)"
echo "sim.sh: stdout sha256 $(printf '%s' "$all" | sha256sum | cut -d' ' -f1)"
