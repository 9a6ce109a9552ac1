#!/usr/bin/env bash
# The repository's benchmark. Builds benchmark/ in release mode and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run; the last line of stdout is the result object
#   benchmark/run.sh [--seed N] [--seconds S] [--runs R] [--workload W]
#       every workload (or W): R untraced runs and one traced run each,
#       written to benchmark/out/results-seed<N>.json
#   benchmark/run.sh --smoke
#       all four workloads at 1/100 of the work; checks the results' shape
#   benchmark/run.sh --agree A.json B.json
#       compares two results files against the regression bounds
#
# See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Share the repository's target directory, so the first build reuses what
# `cargo build --release` at the root already compiled.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

export NRBENCH_OUT="$here/out"
export NRBENCH_RUSTC="$(rustc --version)"
case "$CARGO_TARGET_DIR" in
    /*) bin="$CARGO_TARGET_DIR/release/nrbench" ;;
    *) bin="$root/$CARGO_TARGET_DIR/release/nrbench" ;;
esac

# The driver's form names --trace; every other form is a mode of its own
# or the full run (optionally narrowed by --workload).
case " $* " in
    *" --trace "* | *" --smoke "* | *" --agree "* | *" --all "*) exec "$bin" "$@" ;;
    *) exec "$bin" --all "$@" ;;
esac
