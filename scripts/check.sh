#!/usr/bin/env bash
# Pre-PR gate: formatting, lints, and the full offline test suite.
#
# Everything runs with --offline against the vendored/shimmed
# dependencies, so the gate works without network access. Run from the
# repository root:
#
#   scripts/check.sh
#
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors) =="
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "== cargo test (workspace) =="
cargo test --workspace -q --offline

# The benchmark (`benchmark/`, a Cargo workspace of its own) builds
# against the library crates by path, so no workspace gate compiles it.
# Its tests cover the statistics, the metric registry and a `--quick`
# smoke run of every workload; an API change that breaks it fails here.
echo "== benchmark crate tests + --quick smoke run =="
cargo test -q --offline --manifest-path benchmark/Cargo.toml

# The fleet/histogram/latency tests assert worker-count invariance; run
# them again single-threaded so a scheduling-dependent bug cannot hide
# behind the default parallel test harness.
echo "== determinism-sensitive tests, --test-threads=1 =="
cargo test -q --offline -p ecl-bench fleet -- --test-threads=1
cargo test -q --offline -p ecl-telemetry -- --test-threads=1
cargo test -q --offline -p ecl-core latency -- --test-threads=1

# The figure/experiment binaries that drive every co-simulation path
# (stroboscopic, graph of delays, sequenced, conditioned through
# `EventSelect`, the lifecycle's ideal:/cal: runs) must reproduce their
# archived reports byte for byte.
echo "== co-simulation binaries reproduce their archived stdout =="
for bin in fig1_latency_trace fig2_ideal_loop fig3_graph_of_delays \
    fig4_sequencing fig5_conditioning \
    exp6_latency_sweep exp7_jitter_sweep exp8_calibration; do
    cargo run -q --offline --release -p ecl-bench --bin "$bin" | diff - "results/$bin.txt"
done

# E11-MC asserts 1-worker vs 4-worker byte-identity and archives the
# sweep report + wall-clock numbers under results/ (BENCH_exp11.json).
echo "== E11-MC determinism check + bench artifact =="
cargo run -q --offline --release -p ecl-bench --bin exp11_monte_carlo >/dev/null
test -s results/BENCH_exp11.json
test -s results/exp11_monte_carlo.txt

# E12-FAULT: the fault-injection sweep must produce byte-identical
# artifacts for any worker count (the binary also reproduces E11-MC's
# report bytes from a zero-rate fault plan — asserted internally).
echo "== E12-FAULT determinism check + bench artifact =="
ECL_FLEET_WORKERS=1 cargo run -q --offline --release -p ecl-bench --bin exp12_fault_sweep >/dev/null
cp results/BENCH_exp12.json results/BENCH_exp12.w1.json
ECL_FLEET_WORKERS=4 cargo run -q --offline --release -p ecl-bench --bin exp12_fault_sweep >/dev/null
diff results/BENCH_exp12.w1.json results/BENCH_exp12.json
rm results/BENCH_exp12.w1.json
test -s results/BENCH_exp12.json
test -s results/exp12_fault_sweep.txt

# E13-EXEC: the virtual executive must measure exactly the instants the
# graph of delays predicts (asserted internally, nominal + fault plan),
# and the validated sweep must be byte-identical for any worker count.
# The VM's own determinism is re-asserted single-threaded.
echo "== E13-EXEC cross-validation + determinism check =="
ECL_FLEET_WORKERS=1 cargo run -q --offline --release -p ecl-bench --bin exp13_executive >/dev/null
cp results/BENCH_exp13.json results/BENCH_exp13.w1.json
ECL_FLEET_WORKERS=4 cargo run -q --offline --release -p ecl-bench --bin exp13_executive >/dev/null
diff results/BENCH_exp13.w1.json results/BENCH_exp13.json
rm results/BENCH_exp13.w1.json
test -s results/BENCH_exp13.json
test -s results/exp13_executive.txt
cargo test -q --offline -p ecl-exec --lib -- --test-threads=1

# E14-VERIFY: the static verifier must lint clean (clippy on the new
# crate is pinned explicitly), report zero errors on every experiment
# schedule (verify_experiments test), and the binary asserts internally
# that the static Ls/La bounds dominate every measured VM / co-sim
# latency. Its artifact must be byte-identical for any worker count.
echo "== E14-VERIFY static gate + determinism check =="
cargo clippy -p ecl-verify --all-targets --offline -- -D warnings
cargo test -q --offline -p ecl-bench --test verify_experiments
ECL_FLEET_WORKERS=1 cargo run -q --offline --release -p ecl-bench --bin exp14_verify >/dev/null
cp results/BENCH_exp14.json results/BENCH_exp14.w1.json
ECL_FLEET_WORKERS=4 cargo run -q --offline --release -p ecl-bench --bin exp14_verify >/dev/null
diff results/BENCH_exp14.w1.json results/BENCH_exp14.json
rm results/BENCH_exp14.w1.json
test -s results/BENCH_exp14.json
test -s results/exp14_verify.txt
cargo test -q --offline -p ecl-verify --lib -- --test-threads=1

# E15-PROFILE: the fleet profiler must attribute >= 95% of worker busy
# time to named phases (asserted internally and recorded in
# BENCH_exp15.json), the fault-axis sweep must hit the schedule cache,
# and — the point of the exercise — the deterministic sweep report must
# stay byte-identical across worker counts with profiling ON (only the
# PROFILE_* / BENCH_* sidecars may carry wall-clock content).
echo "== E15-PROFILE attribution + determinism check =="
ECL_FLEET_WORKERS=1 cargo run -q --offline --release -p ecl-bench --bin exp15_profile >/dev/null
cp results/exp15_profile.txt results/exp15_profile.w1.txt
ECL_FLEET_WORKERS=4 cargo run -q --offline --release -p ecl-bench --bin exp15_profile >/dev/null
diff results/exp15_profile.w1.txt results/exp15_profile.txt
rm results/exp15_profile.w1.txt
grep -q '"attribution_ge_95":true' results/BENCH_exp15.json
test -s results/PROFILE_exp15.json
test -s results/PROFILE_exp15.txt
test -s results/PROFILE_exp15.trace.json
test -s results/exp15_profile.txt

# E16-SCALE: the allocation-free kernel + ideal-run memo must carry a
# 100k-scenario sweep: the deterministic digest report must stay
# byte-identical across worker counts, the sim-kernel hot loop must
# report zero steady-state allocations, and throughput must clear 3x
# the archived PR6 baseline (booleans recorded in BENCH_exp16.json).
echo "== E16-SCALE 100k-scenario throughput + determinism check =="
ECL_FLEET_WORKERS=1 cargo run -q --offline --release -p ecl-bench --bin exp16_scale >/dev/null
cp results/exp16_scale.txt results/exp16_scale.w1.txt
ECL_FLEET_WORKERS=4 cargo run -q --offline --release -p ecl-bench --bin exp16_scale >/dev/null
diff results/exp16_scale.w1.txt results/exp16_scale.txt
rm results/exp16_scale.w1.txt
grep -q '"hot_allocs_zero":true' results/BENCH_exp16.json
grep -q '"throughput_ge_3x":true' results/BENCH_exp16.json
grep -q '"ideal_speedup_ge_3x":true' results/BENCH_exp16.json
test -s results/PROFILE_exp16.json
test -s results/exp16_scale.txt

# E17-SCALE: the scheduled-run memo must carry a 10^6-scenario sweep:
# the deterministic digest report must stay byte-identical across worker
# counts, the memo hit rate must clear 99.9% (quantized axes bound the
# key space to <=96 digests), the hot loop must stay allocation-free,
# and throughput must clear 3x the archived E16 baseline (booleans
# recorded in BENCH_exp17.json).
echo "== E17-SCALE 10^6-scenario scheduled-memo check =="
ECL_FLEET_WORKERS=1 cargo run -q --offline --release -p ecl-bench --bin exp17_scale >/dev/null
cp results/exp17_scale.txt results/exp17_scale.w1.txt
ECL_FLEET_WORKERS=4 cargo run -q --offline --release -p ecl-bench --bin exp17_scale >/dev/null
diff results/exp17_scale.w1.txt results/exp17_scale.txt
rm results/exp17_scale.w1.txt
grep -q '"hot_allocs_zero":true' results/BENCH_exp17.json
grep -q '"throughput_ge_3x":true' results/BENCH_exp17.json
grep -q '"scheduled_hit_rate_ge_999":true' results/BENCH_exp17.json
test -s results/PROFILE_exp17.json
test -s results/exp17_scale.txt

# E18-SERVE: the resident daemon must answer concurrent clients with
# byte-identical reports whether the payload is computed cold, replayed
# from the in-memory response cache, or replayed from results/cache/
# after a full restart — for any pool worker count. The binary asserts
# the phases internally; the gate re-diffs the digest report across
# worker counts and greps the boolean verdicts out of BENCH_exp18.json.
echo "== E18-SERVE daemon cold/warm/restart + determinism check =="
ECL_FLEET_WORKERS=1 cargo run -q --offline --release -p ecl-serve --bin exp18_serve >/dev/null
cp results/exp18_serve.txt results/exp18_serve.w1.txt
ECL_FLEET_WORKERS=4 cargo run -q --offline --release -p ecl-serve --bin exp18_serve >/dev/null
diff results/exp18_serve.w1.txt results/exp18_serve.txt
rm results/exp18_serve.w1.txt
grep -q '"warm_hit_rate_100pct":true' results/BENCH_exp18.json
grep -q '"restart_all_disk":true' results/BENCH_exp18.json
grep -q '"restart_sched_computes_zero":true' results/BENCH_exp18.json
grep -q '"payload_worker_invariant":true' results/BENCH_exp18.json
grep -q '"rate_limit_enforced":true' results/BENCH_exp18.json
test -s results/BENCH_exp18.json
test -s results/exp18_serve.txt
cargo test -q --offline -p ecl-serve --lib -- --test-threads=1

# E19-ENVELOPE: the fault-envelope abstract interpretation must prune a
# 10^6-scenario sweep (pruned > 0) with zero unsound prunes under the
# sampled ground-truth audit (booleans recorded in BENCH_exp19.json),
# and the pruned sweep's deterministic digest report must stay
# byte-identical across worker counts. The VM/co-sim soundness property
# tests run single-threaded alongside.
echo "== E19-ENVELOPE static pruning + soundness audit check =="
ECL_FLEET_WORKERS=1 cargo run -q --offline --release -p ecl-bench --bin exp19_envelope >/dev/null
cp results/exp19_envelope.txt results/exp19_envelope.w1.txt
ECL_FLEET_WORKERS=4 cargo run -q --offline --release -p ecl-bench --bin exp19_envelope >/dev/null
diff results/exp19_envelope.w1.txt results/exp19_envelope.txt
rm results/exp19_envelope.w1.txt
grep -q '"pruned_gt_zero":true' results/BENCH_exp19.json
grep -q '"prune_unsound_zero":true' results/BENCH_exp19.json
test -s results/BENCH_exp19.json
test -s results/exp19_envelope.txt
cargo test -q --offline -p ecl-bench --test envelope_soundness -- --test-threads=1
cargo test -q --offline -p ecl-verify --test registry

echo "All checks passed."
