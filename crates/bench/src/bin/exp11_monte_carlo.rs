//! E11-MC — Monte-Carlo robustness sweep on the scenario fleet.
//!
//! Runs ≥64 perturbed implementations of the DC-motor loop (per-op WCET
//! jitter, mapping policy, sampling-period scale) through the full
//! adequation → graph-of-delays → co-simulation pipeline, twice: once on
//! 1 worker and once on 4. The two sweeps' deterministic artifacts must
//! be byte-identical — that comparison *is* the determinism check — and
//! the report lands in `results/exp11_monte_carlo.txt`. The wall clock
//! of both runs plus the schedule-cache statistics go to the untracked
//! sidecar `results/timing/BENCH_exp11.json`.
//!
//! Wall-clock speedup is hardware-dependent (on a single-core container
//! the 4-worker run cannot beat the serial one); the report bytes are
//! not.

use std::time::Instant;

use ecl_bench::fleet::{run_sweep, SweepConfig};
use ecl_bench::{dc_motor_loop, standard_split, worker_invariant, write_result};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E11-MC — Monte-Carlo robustness sweep (64 scenarios)\n");

    let (base, spec) = (standard_split()?, dc_motor_loop(0.5)?);
    let mut walls_ns = Vec::new();
    let (out, (md, _, _, _)) = worker_invariant(
        |workers| {
            let config = SweepConfig {
                scenario_count: 64,
                workers,
                trace_scenarios: 2,
                ..SweepConfig::default()
            };
            let t0 = Instant::now();
            let out = run_sweep(&spec, &base, &config)?;
            walls_ns.push(t0.elapsed().as_nanos() as u64);
            Ok(out)
        },
        |out| {
            (
                out.summary.render(),
                out.summary.to_json(),
                out.actuation_hist.clone(),
                out.traces.clone(),
            )
        },
    )?;
    // Quantized WCET tables make scenarios repeat adequation inputs, so
    // the content-addressed schedule cache must actually hit (64
    // scenarios over at most wcet_tables × policies distinct digests).
    assert!(
        out.summary.cache_hits > 0,
        "schedule cache recorded no hits across {} scenarios",
        out.summary.scenarios.len()
    );

    println!("{md}");
    let hs = out.actuation_hist.summary();
    println!(
        "merged La histogram: {} samples, p50 {} ns, p99 {} ns, max {} ns",
        hs.count, hs.p50_ns, hs.p99_ns, hs.max_ns
    );
    let (serial_ns, parallel_ns) = (walls_ns[0], walls_ns[1]);
    let speedup = serial_ns as f64 / parallel_ns as f64;
    println!(
        "\nwall clock: 1 worker {:.1} ms, 4 workers {:.1} ms (speedup {speedup:.2}x, \
         hardware-dependent), reports byte-identical",
        serial_ns as f64 / 1e6,
        parallel_ns as f64 / 1e6
    );

    let report_path = write_result("exp11_monte_carlo.txt", &md)?;
    let json = format!(
        "{{\"experiment\":\"exp11_monte_carlo\",\"scenarios\":{},\
         \"serial_wall_ns\":{serial_ns},\"parallel_wall_ns\":{parallel_ns},\
         \"speedup_4_workers\":{speedup:.4},\
         \"cache_hits\":{},\"cache_misses\":{},\
         \"robustness_margin\":{:.6}}}\n",
        out.summary.scenarios.len(),
        out.summary.cache_hits,
        out.summary.cache_misses,
        out.summary.robustness_margin()
    );
    let bench_path = write_result("timing/BENCH_exp11.json", &json)?;
    println!(
        "wrote {} and {}",
        report_path.display(),
        bench_path.display()
    );
    Ok(())
}
