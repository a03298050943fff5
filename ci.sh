#!/usr/bin/env bash
# The full verification gate. Everything here must pass before a PR
# merges; .github/workflows/ci.yml runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets -- -D warnings
# Static-analysis gate: the workspace's own linter (determinism,
# cast-audit, safety-comment, unsafe-containment, doc-drift,
# fault-seed) must find zero unwaived violations and refreshes LINT_report.json, which is
# diffed below like the BENCH artifacts.
run cargo run --release -q -p capsacc-lint -- --deny --json LINT_report.json
run cargo build --release
# The benchmark is a workspace of its own; build it so a serve or core
# API change that breaks it fails here, not in the benchmark run.
run cargo build --release --offline --manifest-path perfbench/Cargo.toml
# Benchmark correctness smoke run: both engine workloads, traced, at
# MNIST scale. Every call's outputs are checked against the pinned q8
# reference digests and its cycle pin, and every traced call's span
# tree is validated; the step fails unless the last line reports
# "correct": true.
for workload in engine_b16_serving engine_b1_validate; do
    echo
    echo "==> perfbench --workload $workload --seed 1 --seconds 1 --trace 1"
    last=$(cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seed 1 --seconds 1 --trace 1 | tail -n 1)
    echo "$last"
    case "$last" in
        *'"correct": true'*) ;;
        *) echo "perfbench $workload: checks failed"; exit 1 ;;
    esac
done
run cargo test --workspace -q
# Benches are excluded from `cargo test`; make sure they still compile.
run cargo bench -p capsacc-bench --no-run
# Batched-serving smoke run: refreshes BENCH_batch.json so the perf
# trajectory of the batch path is recorded with every CI run, then
# asserts run_batch bit-exactness at the tiny scale.
run cargo run --release -q -p capsacc-bench --bin exp_batch
# Memory design-space smoke run: refreshes BENCH_mem.json, then asserts
# the IdealMemory equivalence (engine ≡ closed-form memory replay, zero
# ideal stalls) and the prefetch-recovery bound.
run cargo run --release -q -p capsacc-bench --bin exp_memdse
# Serving smoke run: every sweep goes through the one serving runtime.
# Refreshes BENCH_serve.json — saturating + overload sweeps on both
# service tables (closed-form model and the engine table measured from
# parallel+SIMD functional BatchRuns at MNIST scale),
# engine_service_cycles, million-request diurnal scale point — so the
# serving-perf trajectory is recorded, and only then asserts the ≥3x
# worker-scaling bound (4 workers vs 1 at fixed max_batch) on both
# tables, monotonicity + batch amortization of the engine service
# table, the overload invariants (flash crowd sheds on the bounded
# queue — closed-form and engine-table — and the post-spike served
# fraction recovers to ≥95% of the pre-spike level), byte-identical
# determinism of every sweep (event digests included), and shard-pool
# trace bit-exactness at the tiny scale. (The runtime ≡ offline-replay
# anchor over the same sweep lives in tests/serve_equivalence.rs.)
run cargo run --release -q -p capsacc-bench --bin exp_serve
# Fault-tolerance smoke run: writes BENCH_faults.json, then asserts
# conservation under faults (no run loses a request while batches
# crash and requeue), the recovery
# headline (≥90% goodput at a 1% worker-crash rate with the standard
# retry budget), faults-off invisibility (zero-rate FaultPlan ≡
# ResilienceConfig::none(), digest-exact), hedging efficacy (hedges
# fire, win, and never worsen p99 under rare heavy stragglers),
# degradation efficacy (quality shifts serve at least as much as full
# quality under sustained overload), and byte-identical rerun
# determinism of every fault sweep.
run cargo run --release -q -p capsacc-bench --bin exp_faults
# Engine wall-clock smoke run: refreshes BENCH_engine.json (reps/min/
# median per row — the wall-clock perf trajectory; its host-time fields
# vary run to run by design). The functional-SIMD rows at threads 1 and
# auto, batch 1 and 16, are thread-scaling rows: recorded with
# available_parallelism, never asserted on. It then asserts ticked,
# functional-scalar and functional-SIMD (the parallel backend) are
# bit-identical on a full MNIST inference at the paper 16x16 design
# point, that explicit thread counts 1/2/4 produce byte-identical
# batch-16 BatchRuns (and threads 1 the same single-image run), that
# the functional backend clears the 10x wall-clock bound over ticked
# and the parallel+SIMD batch path clears 5x over the PR 5 functional
# baseline (98.20 ms/image) — both asserted on median host times.
run cargo run --release -q -p capsacc-bench --bin exp_engine_speed
# Telemetry smoke run: asserts recording is invisible (instrumented
# BatchRun/RuntimeOutcome + event digest == recording-off runs), span
# trees are well-formed and sum *exactly* to run totals (MNIST Phases
# detail; tiny Tiles detail identical across both backends), every
# exported artifact parses, and the serving timeline covers the served
# set exactly once; writes the gitignored PROFILE_* artifacts only.
run cargo run --release -q -p capsacc-bench --bin exp_profile
# The deterministic BENCH files must regenerate byte-identically (and
# exp_profile must not have touched them). BENCH_engine.json is
# excluded: its host-time fields vary run to run by design.
run git diff --exit-code -- BENCH_batch.json BENCH_mem.json BENCH_serve.json BENCH_faults.json LINT_report.json
RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps

echo
echo "ci.sh: all checks passed"
