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

# Doc links left dangling by a rename or deletion fail here, not in a
# reader's browser, private items' docs included.
echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS='-D warnings' cargo doc --workspace --no-deps --offline --document-private-items

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

# E9 (adequation scaling) and E10 (the case study) must reproduce their
# archived stdout, and they write their Gantt timelines
# (`exp9_timeline.*`, `exp10_timeline.*`) under results/, diffed by the
# guard at the end; their Chrome traces carry wall-clock spans and go to
# the untracked results/timing/.
echo "== E9/E10 reports and schedule timelines =="
cargo run -q --offline --release -p ecl-bench --bin exp9_adequation | diff - results/exp9_adequation.txt
cargo run -q --offline --release -p ecl-bench --bin exp10_case_study | diff - results/exp10_case_study.txt

# The fleet experiments E11-E19 each run their sweep (E18: its daemon
# lifecycle) at 1 worker and then at 4, assert in-binary that both runs
# produce the same deterministic artifact, and write it once under
# results/. Every other claim is asserted in-binary too, before the
# artifact is written: attribution floors, memo hit rates, zero
# hot-path allocations, the VM/static-bound cross-checks, the envelope
# audit, the daemon's cold/warm/restart sources. Wall-clock sidecars
# go to the untracked results/timing/; the guard at the end diffs the
# deterministic artifacts against the committed goldens.
echo "== E11-MC Monte-Carlo sweep =="
cargo run -q --offline --release -p ecl-bench --bin exp11_monte_carlo >/dev/null

echo "== E12-FAULT fault-injection sweep =="
cargo run -q --offline --release -p ecl-bench --bin exp12_fault_sweep >/dev/null

# E13-EXEC: the virtual executive must measure exactly the instants the
# graph of delays predicts (nominal + fault plan). The VM's own
# determinism is re-asserted single-threaded.
echo "== E13-EXEC cross-validation =="
cargo run -q --offline --release -p ecl-bench --bin exp13_executive >/dev/null
cargo test -q --offline -p ecl-exec --lib -- --test-threads=1

# E14-VERIFY: the static verifier must lint clean (clippy on the crate
# is pinned explicitly), report zero errors on every experiment
# schedule (verify_experiments test), and its static Ls/La bounds must
# dominate every measured VM / co-sim latency (asserted internally).
echo "== E14-VERIFY static gate =="
cargo clippy -p ecl-verify --all-targets --offline -- -D warnings
cargo test -q --offline -p ecl-bench --test verify_experiments
cargo run -q --offline --release -p ecl-bench --bin exp14_verify >/dev/null
cargo test -q --offline -p ecl-verify --lib -- --test-threads=1

# E15-PROFILE: the profiler must attribute >= 95% of worker busy time
# to named phases, with profiling on in both runs, so the sidecar
# provably does not leak into the report.
echo "== E15-PROFILE attribution =="
cargo run -q --offline --release -p ecl-bench --bin exp15_profile >/dev/null

# E16-SCALE / E17-SCALE: 10^5 and 10^6-scenario sweeps. Their digest
# reports carry the memo hit/miss counters and a kernel_work: line
# (RHS evaluations, steps, events, spans, hot-path allocations of a
# fixed probe), so a change in the work the kernel or the memos do
# fails the golden diff.
echo "== E16-SCALE 10^5-scenario sweep =="
cargo run -q --offline --release -p ecl-bench --bin exp16_scale >/dev/null
echo "== E17-SCALE 10^6-scenario scheduled-memo sweep =="
cargo run -q --offline --release -p ecl-bench --bin exp17_scale >/dev/null

# E18-SERVE: the resident daemon must answer concurrent clients with
# byte-identical reports whether the payload is computed cold, replayed
# from memory, or replayed from results/cache/ after a restart.
echo "== E18-SERVE daemon cold/warm/restart =="
cargo run -q --offline --release -p ecl-serve --bin exp18_serve >/dev/null
cargo test -q --offline -p ecl-serve --lib -- --test-threads=1

# E19-ENVELOPE: fault-envelope pruning of a 10^6-scenario sweep with
# zero unsound prunes under the sampled ground-truth audit. The VM /
# co-sim soundness property tests run single-threaded alongside.
echo "== E19-ENVELOPE static pruning + soundness audit =="
cargo run -q --offline --release -p ecl-bench --bin exp19_envelope >/dev/null
cargo test -q --offline -p ecl-bench --test envelope_soundness -- --test-threads=1
cargo test -q --offline -p ecl-verify --test registry

# Every committed artifact under results/ must have been reproduced
# byte for byte, and nothing may land there outside results/timing/.
# A change that alters work on purpose stages its updated goldens.
echo "== results/ matches the committed goldens =="
git diff --exit-code -- results
untracked=$(git ls-files --others --exclude-standard -- results)
if [ -n "$untracked" ]; then
    echo "untracked files under results/:" >&2
    echo "$untracked" >&2
    exit 1
fi

echo "All checks passed."
