#!/usr/bin/env bash
# CI gate: tier-1 verification plus formatting, lint, doc and example
# checks. This script IS the CI definition — .github/workflows/ci.yml
# just runs it, so the gate cannot drift from what developers run
# locally.
#
#   scripts/check.sh           # build + tests + fmt + clippy + rustdoc + examples
#                              # + fleet sweep + benchmark tests and smoke
#   scripts/check.sh --fast    # skip the release build and the smoke runs
#                              # (the benchmark is only type-checked)
#   scripts/check.sh --bench   # additionally run the bench-regression gate
#                              # (self-test + newest BENCH_*.json vs baseline)
#
# Tier-1 (ROADMAP): cargo build --release && cargo test -q
set -euo pipefail

cd "$(dirname "$0")/.." || exit 1

FAST=0
BENCH=0
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        --bench) BENCH=1 ;;
        *)
            echo "check.sh: unknown option '$arg' (expected --fast or --bench)" >&2
            exit 2
            ;;
    esac
done

# Names simplicity PRs deleted (append, never reuse): none may come back
# as a whole word. This file and CHANGES.md (the history) are excepted.
retired=(
    # PR 13
    PerEpoch BufferedEpoch set_mode upgrade_mode upgrade_commitment_mode apply_mode_locked
    with_batched_evidence with_evidence_deadline_ms evidence_batch evidence_deadline_ms
    spawn_many manual_many kick_sync ensure_deadline_sealer
    # PR 14
    verify_window_with_anchors verify_window_with_super_anchors adjudicate_with_anchors
    adjudicate_sharded adjudicate_gossiped adjudicate_logs snapshot_supers super_epochs_for
    anchors_for chain_steps_x8 chain_steps_x4 portable16
    # PR 26
    ShardedEvidenceLog ShardedCommitmentPlane SuperEpochCommitment ShardAnchor SUPER_EPOCH_KIND
    STEP_SUPER_EPOCH GroupCommitPool with_sharded_commitment sharded_plane sharded_log
    sharded_evidence sharded_evidence_dir submit_shard_window submit_shard_full_window from_shard
    with_evidence_shards evidence_shards record_super open_in_pool open_recover_in_pool
    showcase_sharded SimNet TimeStampAuthority TimeStampToken EvidencePlane shard_index
    validate_shard_count MAX_EVIDENCE_SHARDS ShardedRecovery StaleSuperEpoch latest_super_epoch
    is_super_epoch_commit e15_sharded
    # two multi-buffer tiers; caller-less par wrappers; test-only chain check
    Sse2 SingleScalar Dispatch::Scalar sha256_short_scalar portable4 mb_compress_body
    par_map_range par_map_indexed verify_chain
    # a frame and its sender's tokens share one signature
    issue_paired_tokens signed_bytes ProposeMsg Step1 Step2 Step3
    # one seal policy: the deadline is a batched scheduler's only setting
    BatchPolicy size_or_time sealing_on_run_end seal_on_run_end auto_tune RunEnd end_of_run
    seal_run SealOnTimeout issue_tokens sealer_poll_interval
    # one wiring: the simulator builds every org with OrgMiddleware::builder
    echo_executor
    # one definition of a finding: conduct rules are reducers into Verdict::findings
    conflicting_decisions convicted_defectors abort_after_receipt stalled_parties violation_label
    # one 16-lane AVX-512 tier replaces AVX2; W-OTS chains are walked in registers
    Avx2 chain_steps_with padded_chain_block chain_steps_8 rotr_fn load_state store_state
    fixed_width_wrappers_match_sequential
    # one public surface: the caller-less API, the settings only it could
    # set, and the two deadline layers nothing armed
    InvocationHandlerFactory handler_factory B2BInvocation KeyLifecycle with_key_lifecycle
    key_lifecycle SharedObjectConfig with_shared_object with_metadata requires_nr rolls_up
    call_with_deadline timeout_fault with_backoff with_jitter_seed with_budget_ms attuned_to
    budget_for_fault_bound backoff_before_ms charge_after_failures attempt_timeout_ms
    base_backoff_ms max_backoff_ms jitter_seed budget_ms with_clock worst_case_ms
    is_peer_fault is_transport_fault is_local_fault is_timeout commitment_mode is_aborted
    is_resolved put_u16 get_u16 find_version version_digest blob_count undeploy
    invoke_component submit_window SystemClock advance_to node_count from_hex push_payload
    leaf_hash_digests par_map par_map_with par_map_indexed_with is_hierarchical
    subtree_capacity is_crashed is_executed with_context into_string is_null as_bool as_u64
    as_list from_f64 open_runs
    # one record per subtree certificate: the rollover record, the signer's
    # history that fed it and the seal-time watermark
    KeyRollover RolloverEvent rollover_history rollover_persisted rollovers_verified
    ForgedRolloverSubmitter
    # one error type
    ExchangeError PeerFault LocalFault is_refusal Faulted
    # one answer per escalation
    fetch_receipt FetchChoreography handle_fetch STEP_FETCH STEP_FETCH_ACK
    # one framing path: sharing runs on the exchange engine
    coordinatorless_welcome_for_tests
    # one scratch writer per thread
    record_hash_with tbs
    # one record of a run: handlers read their run state from their own log
    FairRunState EscrowEntry RunEntry mark_receipt receipt_digest
    # one key resolver: KeyDirectory; the credential and access-control
    # crates, their container interceptor and what only they called
    CredentialManager CertificateAuthority RevocationList PkiError SessionManager
    AccessControlInterceptor CredentialRoleMapper AccessPolicy AccessDecision AccessDenied
    nonrep_pki nonrep_access starting_at
)
echo "==> retired names"
if grep -rnwF "${retired[@]/#/-e}" --exclude=check.sh \
    crates/ src/ examples/ docs/ scripts/ benchmark/src/; then
    echo "check.sh: a retired name is back (file:line above)" >&2
    exit 1
fi

# One public surface: every pub item of a library crate has a caller or
# an allowlist line naming the ROADMAP direction that will call it.
echo "==> public surface (scripts/surface.sh)"
scripts/surface.sh --self-test
scripts/surface.sh

# non_test_match PATTERN FILE...: prints every line of non-test code
# (loc.sh's cut: the lines before a file's `#[cfg(test)] mod`) that
# matches the awk regex PATTERN, as file:line; succeeds iff one did.
non_test_match() {
    local pattern="$1"
    shift
    awk 'FNR == 1 { test_attr = 0 }
         test_attr && /^[[:space:]]*(pub(\([a-z]+\))? )?mod / { nextfile }
         { test_attr = ($0 ~ /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) }
         $0 ~ pattern { print FILENAME ":" FNR ": " $0; found = 1 }
         END { exit !found }' pattern="$pattern" "$@"
}

# Dependency edges equal use edges: every nonrep_* crate under a
# manifest's [dependencies] is named in its package's non-test code
# (loc.sh's cut of src/ and benches/; comments do not count). An edge
# nothing uses still builds and links the crate for nothing.
echo "==> dependency edges (Cargo.toml, crates/*/Cargo.toml)"
unused_edges=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    package="$(dirname "$manifest")"
    mapfile -t package_sources < <(find "$package/src" "$package/benches" -name '*.rs' 2>/dev/null | sort)
    mapfile -t edges < <(awk '/^\[/ { deps = ($0 == "[dependencies]") }
        deps && match($0, /^nonrep_[a-z_]+/) { print substr($0, RSTART, RLENGTH) }' "$manifest")
    for dep in "${edges[@]}"; do
        if ! non_test_match "^([^/]*[^A-Za-z0-9_/])?${dep}([^A-Za-z0-9_]|\$)" \
            "${package_sources[@]}" >/dev/null; then
            echo "$manifest: $dep"
            unused_edges=1
        fi
    done
done
if [[ "$unused_edges" -eq 1 ]]; then
    echo "check.sh: a manifest depends on a crate its package's code never names" \
        "(manifest: crate above); delete the edge" >&2
    exit 1
fi

# One wiring: the simulator drives the stack a deployment builds
# (OrgMiddleware::builder), so its non-test code assembles no protocol
# stack of its own.
echo "==> one wiring (crates/sim/src)"
if non_test_match \
    'Party::with_commitment|B2BCoordinator::new|AnchorGossipHandler::new|FairServerHandler::|ExchangeSupervisor::new|AnchorGossip::new' \
    crates/sim/src/*.rs; then
    echo "check.sh: crates/sim/src wires protocol parts itself (file:line above);" \
        "build the org with OrgMiddleware::builder" >&2
    exit 1
fi

# One framing path: non-test code (loc.sh's cut) builds, signs and checks
# protocol frames only through ExchangeEngine (request_frame, open_frame,
# verify_frame_from). Only the engine, Party and the message type itself
# touch the raw constructor and signature calls.
echo "==> one framing path (crates/*/src, src)"
mapfile -t framed < <(find crates/*/src src -name '*.rs' \
    ! -path crates/protocols/src/session/engine.rs \
    ! -path crates/protocols/src/party.rs \
    ! -path crates/protocols/src/message.rs | sort)
if non_test_match 'ProtocolMessage::new|[.]sign_frame[(]|[.]verify_frame[(]' "${framed[@]}"; then
    echo "check.sh: a frame is built or checked by hand (file:line above);" \
        "use ExchangeEngine's request_frame, open_frame or verify_frame_from" >&2
    exit 1
fi

# One scratch path: non-test code hashes a canonical encoding with
# digest::sha256_encoded, which builds it in the thread's scratch writer,
# never by hashing a buffer it filled for the purpose.
echo "==> one scratch path (crates/*/src, src)"
mapfile -t sources < <(find crates/*/src src -name '*.rs' | sort)
if non_test_match 'sha256[(]&.*([.]into_vec|encode_to_vec)[(][)][)]' "${sources[@]}"; then
    echo "check.sh: an encoding is hashed from a buffer of its own (file:line above);" \
        "use digest::sha256_encoded" >&2
    exit 1
fi

# One reopen pass: a party's log-derived state is a fold (nonrep_store::Fold)
# that CommitmentScheduler::new feeds in its single pass over the log and
# that every append feeds after it. No other non-test protocol code walks
# a log to rebuild state.
echo "==> one reopen pass (crates/protocols/src)"
mapfile -t protocol_sources < <(find crates/protocols/src -name '*.rs' \
    ! -path crates/protocols/src/scheduler.rs | sort)
if non_test_match '[.](for_each|for_each_window|count_where)[(]|[.]records[(][)]' \
    "${protocol_sources[@]}"; then
    echo "check.sh: protocol code walks a log outside the scheduler's reopen pass" \
        "(file:line above); make the state a nonrep_store::Fold fed by CommitmentScheduler" >&2
    exit 1
fi

# One record of a run: a handler reads a run's facts (receipt, abort,
# outcome) from its own evidence log through the run index
# (Party::logged), never from a run-keyed map beside it. Five maps hold
# what the log cannot:
run_state_allowed=(
    # the at-most-once reply cache: reply bytes are not evidence
    'invocation/mod.rs:[0-9]+: +replies:'
    # the fair server's K, not logged until it is sealed (ROADMAP 9(b))
    'invocation/fair_offline.rs:[0-9]+: +keys:'
    # the TTP's escrowed key, client and server (ROADMAP 9(a))
    'invocation/fair_offline.rs:[0-9]+: +ledger:'
    # sharing's pending digests, not yet a log read (ROADMAP 3(b))
    'sharing/coordination.rs:[0-9]+: +pending:'
    # the supervisor's deadlines: timers, not evidence
    'session/supervisor.rs:[0-9]+: +inflight:'
)
echo "==> run state (crates/protocols/src)"
mapfile -t protocol_all < <(find crates/protocols/src -name '*.rs' | sort)
mapfile -t run_maps < <(non_test_match 'Mutex<(HashMap|BTreeMap)<RunId' "${protocol_all[@]}" |
    grep -Ev "${run_state_allowed[@]/#/-e}" || true)
if [[ ${#run_maps[@]} -gt 0 ]]; then
    printf '%s\n' "${run_maps[@]}"
    echo "check.sh: a run-keyed map keeps run state beside the log (file:line above);" \
        "read it from the party's log with Party::logged" >&2
    exit 1
fi

if [[ "$FAST" -eq 0 ]]; then
    echo "==> cargo build --release"
    cargo build --release
fi

echo "==> cargo test -q"
cargo test -q

# Session-type conformance: the suite walks every legal trace of every
# choreography against live fixtures (it already ran inside the full
# test pass above; this explicit invocation keeps the gate loud if the
# suite is ever renamed or filtered out).
echo "==> cargo test -q -p nonrep_protocols --test conformance"
cargo test -q -p nonrep_protocols --test conformance

# SIMD bugs must not hide behind a fast host or a busy one: the crypto
# differential suite (multi-buffer vs sequential hashing, W-OTS tier
# equivalence) re-runs once pinned to each tier, because what `auto`
# picked for the full pass above depends on the host and its load. The
# `single` pass is the path every host without AVX-512 runs; a host
# without AVX-512 clamps the `avx512` pin to `single`, so there both
# passes run the single lane.
echo "==> NONREP_DISPATCH=avx512 cargo test -q -p nonrep_crypto"
NONREP_DISPATCH=avx512 cargo test -q -p nonrep_crypto
echo "==> NONREP_DISPATCH=single cargo test -q -p nonrep_crypto"
NONREP_DISPATCH=single cargo test -q -p nonrep_crypto

# For the log: the kernel `auto` picks when nothing pins it, calibrated
# in a release build (the profile every benchmark runs).
echo "==> digest::mb auto dispatch in a release test process"
cargo test --release -q -p nonrep_crypto --lib dispatch_invariants -- --nocapture |
    grep 'digest::mb'

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

if command -v shellcheck >/dev/null 2>&1; then
    echo "==> shellcheck scripts/*.sh"
    shellcheck scripts/*.sh
else
    echo "==> shellcheck not installed; skipping (CI runs it)"
fi

# benchmark/ is a package of its own that calls the crates' public API,
# and no PR may edit it: a change that removes API it uses must learn so
# here. Built into the target directory benchmark/run.sh uses.
bench_target="${CARGO_TARGET_DIR:-$PWD/target}"
if [[ "$FAST" -eq 1 ]]; then
    echo "==> cargo check --manifest-path benchmark/Cargo.toml"
    CARGO_TARGET_DIR="$bench_target" \
        cargo check --offline --quiet --manifest-path benchmark/Cargo.toml
else
    echo "==> cargo test --manifest-path benchmark/Cargo.toml"
    CARGO_TARGET_DIR="$bench_target" \
        cargo test --offline --quiet --manifest-path benchmark/Cargo.toml

    echo "==> example smoke tests"
    for example in quickstart dispute_resolution contract_monitoring trust_domains \
                   virtual_enterprise; do
        echo "--> cargo run --release --example $example"
        cargo run --release --quiet --example "$example" >/dev/null
    done

    # Adversarial fleet sweep: seeded byzantine scenarios replayed under
    # permuted schedules; prints a NONREP_SIM_SEED repro line on failure.
    echo "==> adversarial fleet sweep (scripts/sim.sh)"
    scripts/sim.sh 4

    # The end-to-end benchmark at 1/100 of the work: all four workloads
    # build, run, stay correct and emit well-formed results.
    echo "==> benchmark/run.sh --smoke"
    benchmark/run.sh --smoke >/dev/null

    # Evidence stored once: a hierarchical token record references its
    # subtree certificate, which the log keeps once. Carrying the
    # certificate in every token record again puts direct_hss back at
    # ~43 KB per op.
    echo "==> direct_hss evidence_bytes_per_op <= 30000 B (smoke)"
    python3 - benchmark/out/results-smoke.json <<'PY'
import json, sys

runs = json.load(open(sys.argv[1]))["workloads"]["direct_hss"]["runs"]
worst = max(r["metrics"]["evidence_bytes_per_op"]["value"] for r in runs)
print(f"direct_hss evidence_bytes_per_op: {worst:.0f} B")
sys.exit(worst > 30000)
PY

    # Each signature once per frame: a token signed in its frame's batch
    # crosses the wire without the signature and certificate the frame
    # already carries. Writing every carried token in full again puts
    # direct_hss back at ~38 KB per op.
    echo "==> direct_hss net.bytes_per_op <= 22000 B (smoke, traced)"
    python3 - benchmark/out/results-smoke.json <<'PY'
import json, sys

layers = json.load(open(sys.argv[1]))["workloads"]["direct_hss"]["layers"]
wire = layers["metrics"]["net.bytes_per_op"]["value"]
print(f"direct_hss net.bytes_per_op: {wire:.0f} B")
sys.exit(wire > 22000)
PY
fi

if [[ "$BENCH" -eq 1 ]]; then
    echo "==> bench-regression gate"
    scripts/bench_gate.sh --self-test
    scripts/bench_gate.sh
fi

echo "==> scripts/loc.sh (non-test lines per crate; should fall)"
scripts/loc.sh

echo "check.sh: all green"
