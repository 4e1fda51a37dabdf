//! Golden byte-identity tests for the sim-kernel hot path.
//!
//! The allocation-free kernel refactor (scratch buffers, indexed route
//! iteration, integer-grid probe instants, borrowed `run` results) must
//! not change a single artifact byte. These tests pin the exp10-style
//! lifecycle case and the exp12-style fault sweep against golden files
//! blessed with the *seed* kernel; any behavioural drift in the engine
//! shows up as a byte diff here.
//!
//! To re-bless after an intentional change:
//!
//! ```text
//! ECL_GOLDEN_BLESS=1 cargo test -p ecl-bench --test golden_kernel
//! ```

use std::fmt::Write as _;
use std::path::PathBuf;

use ecl_aaa::{AdequationOptions, ArchitectureGraph, TimeNs};
use ecl_bench::fleet::{run_sweep, FaultAxes, SweepConfig};
use ecl_bench::{dc_motor_loop, standard_split};
use ecl_control::plants;
use ecl_core::cosim::{DisturbanceKind, LoopResult};
use ecl_core::lifecycle::{self, LifecycleInputs};
use ecl_core::translate::{uniform_timing, ControlLawSpec};
use ecl_linalg::Mat;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `actual` against the golden file, or rewrites the golden
/// when `ECL_GOLDEN_BLESS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("ECL_GOLDEN_BLESS").is_some() {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); bless with ECL_GOLDEN_BLESS=1",
            path.display()
        )
    });
    if actual != expected {
        let line = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map_or(expected.lines().count().min(actual.lines().count()), |i| i);
        panic!(
            "{name} diverged from the golden at line {} (expected {} bytes, got {}):\n  \
             golden: {:?}\n  actual: {:?}",
            line + 1,
            expected.len(),
            actual.len(),
            expected.lines().nth(line).unwrap_or("<eof>"),
            actual.lines().nth(line).unwrap_or("<eof>"),
        );
    }
}

/// Event-path engine counters: the hot-loop refactor must leave every
/// one unchanged (ODE step counts are pinned by the traces themselves).
fn stats_lines(tag: &str, r: &LoopResult) -> String {
    format!(
        "{tag}: events_delivered={} event_instants={} max_cascade={} calendar_peak={} \
         activations={:?}\n",
        r.stats.events_delivered,
        r.stats.event_instants,
        r.stats.max_cascade,
        r.stats.calendar_peak,
        r.stats.activation_counts(),
    )
}

fn trace_lines(tag: &str, r: &LoopResult) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "== {tag} trace: {} events, end {} ==",
        r.result.event_log().len(),
        r.result.end_time()
    );
    for (name, sig) in r.result.signals() {
        s.push_str(&sig.to_csv(name));
    }
    s
}

/// The exp10 case study at a shorter horizon: quarter-car active
/// suspension over a 3-ECU CAN network, full lifecycle (ideal +
/// implemented + calibrated co-simulations).
#[test]
fn lifecycle_quarter_car_bytes_match_seed_kernel() {
    let plant = plants::quarter_car();
    let law = ControlLawSpec::filtered("susp", 4, 1).with_data_units(8);
    let (_, io) = law.to_algorithm().expect("law translates");

    let mut arch = ArchitectureGraph::new();
    let wheel_ecu = arch.add_processor("wheel_ecu", "cortex-m");
    let body_ecu = arch.add_processor("body_ecu", "cortex-m");
    let control_ecu = arch.add_processor("control_ecu", "cortex-a");
    arch.add_bus(
        "can",
        &[wheel_ecu, body_ecu, control_ecu],
        TimeNs::from_micros(120),
        TimeNs::from_micros(8),
    )
    .expect("bus");

    let (alg, _) = law.to_algorithm().expect("law translates");
    let mut db = uniform_timing(&alg, &io, TimeNs::from_micros(80), TimeNs::from_micros(600));
    for &s in &[io.sensors[0], io.sensors[2], io.sensors[3]] {
        db.forbid(s, body_ecu);
        db.forbid(s, control_ecu);
    }
    db.forbid(io.sensors[1], wheel_ecu);
    db.forbid(io.sensors[1], control_ecu);
    let step = *io.stages.last().expect("law has stages");
    db.forbid(step, wheel_ecu);
    db.forbid(step, body_ecu);
    db.forbid(io.actuators[0], body_ecu);
    db.forbid(io.actuators[0], control_ecu);

    let inputs = LifecycleInputs {
        plant: plant.sys.clone(),
        n_controls: 1,
        x0: vec![0.05, 0.0, 0.0, 0.0],
        ts: plant.ts,
        horizon: 0.25,
        lqr_q: Mat::diag(&[1e4, 1.0, 1e3, 1.0]),
        lqr_r: Mat::diag(&[1e-6]),
        q_weight: 1.0,
        r_weight: 1e-8,
        law,
        arch,
        db,
        adequation: AdequationOptions::default(),
        disturbance: DisturbanceKind::None,
    };

    let rep = lifecycle::run(&inputs).expect("lifecycle runs");

    let mut out = String::new();
    let _ = writeln!(out, "== costs ==");
    let _ = writeln!(out, "ideal       {:.9}", rep.ideal.cost);
    let _ = writeln!(out, "implemented {:.9}", rep.implemented.cost);
    let _ = writeln!(out, "calibrated  {:.9}", rep.calibrated.cost);
    let _ = writeln!(out, "degradation {:+.3}%", rep.degradation() * 100.0);
    let _ = writeln!(out, "== latency (paper eq. 1-2) ==");
    out.push_str(&rep.latency.render());
    let _ = writeln!(out, "== engine stats (event path) ==");
    out.push_str(&stats_lines("ideal", &rep.ideal));
    out.push_str(&stats_lines("implemented", &rep.implemented));
    out.push_str(&stats_lines("calibrated", &rep.calibrated));
    out.push_str(&trace_lines("ideal", &rep.ideal));
    out.push_str(&trace_lines("implemented", &rep.implemented));
    out.push_str(&trace_lines("calibrated", &rep.calibrated));

    check_golden("lifecycle_quarter_car.txt", &out);
}

/// The exp12 case: deterministic fault-injection sweep over the fleet
/// (frame loss + retransmission, link outages, processor dropout), on
/// two workers — report and JSON bytes pinned against the seed kernel.
#[test]
fn fault_sweep_bytes_match_seed_kernel() {
    let base = standard_split().expect("scenario");
    let spec = dc_motor_loop(0.2).expect("loop spec");
    let config = SweepConfig {
        scenario_count: 12,
        workers: 2,
        trace_scenarios: 2,
        faults: FaultAxes {
            frame_loss_rates: vec![0.0, 0.10, 0.30],
            link_outage_rates: vec![0.0, 0.15],
            proc_dropout_rates: vec![0.0, 0.01],
            ..FaultAxes::default()
        },
        ..SweepConfig::default()
    };
    let out = run_sweep(&spec, &base, &config).expect("sweep runs");

    let mut s = out.summary.render();
    s.push_str("== json ==\n");
    s.push_str(&out.summary.to_json());
    let _ = writeln!(s, "== actuation histogram ==");
    let _ = writeln!(s, "{:?}", out.actuation_hist);

    check_golden("fleet_fault_sweep.txt", &s);
}
