#!/usr/bin/env bash
# Bench-regression gate: compares the newest BENCH_<N>.json "after"
# numbers against the checked-in baseline (scripts/bench_baseline_7.jsonl)
# and fails on a >25% regression on the headline perf paths
# (e1_invocation, e11_batch, e12_durability, e13_group_commit,
# e14_multibuffer, e16_rollover, e17_supervisor). The disk-bound rows
# among these are best-of-3 numbers (scripts/bench.sh runs e12/e13
# three times), so a trip means a real slowdown, not fsync drift. See
# docs/BENCHMARKS.md.
#
#   scripts/bench_gate.sh                      # newest BENCH_*.json vs the baseline
#   scripts/bench_gate.sh BENCH_7.json         # explicit report
#   scripts/bench_gate.sh BENCH_7.json base.jsonl
#   scripts/bench_gate.sh --self-test          # gate trips on a synthetic 30% regression
#
# BENCH_GATE_THRESHOLD overrides the allowed after/baseline ratio
# (default 1.25 = 25% slower).
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

THRESHOLD="${BENCH_GATE_THRESHOLD:-1.25}"

run_gate() {
    # $1 = BENCH json, $2 = baseline jsonl
    python3 - "$1" "$2" "$THRESHOLD" <<'PY'
import json, sys

bench_path, baseline_path, threshold = sys.argv[1], sys.argv[2], float(sys.argv[3])
HEADLINE = {"e1_invocation", "e11_batch", "e12_durability", "e13_group_commit",
            "e14_multibuffer", "e16_rollover", "e17_supervisor"}

baseline = {}
with open(baseline_path) as f:
    for line in f:
        line = line.strip()
        if not line:
            continue
        row = json.loads(line)
        baseline[f"{row['group']}/{row['bench']}"] = row["ns_per_iter"]

with open(bench_path) as f:
    benches = json.load(f)["benches"]

regressions, checked, unguarded = [], 0, []
for key, entry in sorted(benches.items()):
    group = key.split("/", 1)[0]
    if group not in HEADLINE or "after_ns" not in entry:
        continue
    if key not in baseline or baseline[key] <= 0:
        unguarded.append(key)
        continue
    checked += 1
    ratio = entry["after_ns"] / baseline[key]
    status = "REGRESSION" if ratio > threshold else "ok"
    print(f"  {status:>10}  {key}: {entry['after_ns']:.0f} ns vs baseline "
          f"{baseline[key]:.0f} ns (x{ratio:.2f}, limit x{threshold:.2f})")
    if ratio > threshold:
        regressions.append(key)

for key in unguarded:
    print(f"  unguarded   {key}: no baseline entry")
if checked == 0:
    print("bench_gate: no guarded headline benches found", file=sys.stderr)
    sys.exit(2)
if regressions:
    print(f"bench_gate: {len(regressions)} regression(s) beyond "
          f"{(threshold - 1) * 100:.0f}%: {', '.join(regressions)}", file=sys.stderr)
    sys.exit(1)
print(f"bench_gate: {checked} headline benches within x{threshold} of baseline")
PY
}

if [[ "${1:-}" == "--self-test" ]]; then
    # The gate must trip on a synthetic 30% regression and pass on a
    # within-threshold fixture built from the same baseline.
    tmp="$(mktemp -d /tmp/nonrep-bench-gate-XXXX)"
    trap 'rm -rf "$tmp"' EXIT
    printf '%s\n' \
        '{"group":"e1_invocation","bench":"direct_16KiB","ns_per_iter":100000.0,"iters":100}' \
        '{"group":"e13_group_commit","bench":"append_4x64/group_commit","ns_per_iter":1000000.0,"iters":10}' \
        '{"group":"e16_rollover","bench":"sign/hss_4x2","ns_per_iter":40000.0,"iters":1000}' \
        >"$tmp/baseline.jsonl"
    printf '%s\n' \
        '{"benches":{"e1_invocation/direct_16KiB":{"after_ns":130000.0},"e13_group_commit/append_4x64/group_commit":{"after_ns":900000.0},"e16_rollover/sign/hss_4x2":{"after_ns":41000.0}}}' \
        >"$tmp/regressed.json"
    printf '%s\n' \
        '{"benches":{"e1_invocation/direct_16KiB":{"after_ns":110000.0},"e13_group_commit/append_4x64/group_commit":{"after_ns":1200000.0},"e16_rollover/sign/hss_4x2":{"after_ns":41000.0}}}' \
        >"$tmp/clean.json"
    echo "==> self-test: synthetic 30% regression must fail"
    if run_gate "$tmp/regressed.json" "$tmp/baseline.jsonl"; then
        echo "bench_gate self-test FAILED: regression fixture passed" >&2
        exit 1
    fi
    echo "==> self-test: within-threshold fixture must pass"
    run_gate "$tmp/clean.json" "$tmp/baseline.jsonl"
    echo "bench_gate: self-test passed"
    exit 0
fi

BENCH="${1:-}"
if [[ -z "$BENCH" ]]; then
    BENCH="$(find . -maxdepth 1 -name 'BENCH_*.json' -printf '%f\n' | sort -V | tail -1)"
fi
if [[ -z "$BENCH" || ! -f "$BENCH" ]]; then
    echo "bench_gate: no BENCH_*.json found (run scripts/bench.sh first)" >&2
    exit 2
fi
BASELINE="${2:-scripts/bench_baseline_7.jsonl}"
if [[ ! -f "$BASELINE" ]]; then
    echo "bench_gate: baseline $BASELINE not found" >&2
    exit 2
fi
echo "==> bench gate: $BENCH vs $BASELINE"
run_gate "$BENCH" "$BASELINE"
