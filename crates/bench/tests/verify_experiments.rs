//! The `ecl-verify` gate over every seeded experiment's schedule:
//! rebuilds the deployments of E9 (filter-bank scaling), E10/E13
//! (quarter-car on 3 ECUs), and E11/E12 (split DC-motor baseline) and
//! demands the static verifier reports **zero errors** on each. The
//! perturbed fleet schedules of E11–E14 are verified scenario-by-
//! scenario through `SweepConfig::verify_static` (see `fleet` tests and
//! `exp14_verify`).

use ecl_aaa::{
    adequation, AdequationOptions, AlgorithmGraph, ArchitectureGraph, Schedule, TimeNs, TimingDb,
};
use ecl_bench::{quarter_car_case, standard_split};
use ecl_core::translate::{uniform_timing, ControlLawSpec};
use ecl_verify::Severity;

/// Verifies one deployment at a period 25% above its makespan (every
/// experiment picks its period at least that loosely) and asserts zero
/// error-severity diagnostics.
fn assert_verifies(
    label: &str,
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
    db: &TimingDb,
    schedule: &Schedule,
    period: Option<TimeNs>,
) {
    let period =
        period.unwrap_or_else(|| TimeNs::from_nanos(schedule.makespan().as_nanos() * 5 / 4 + 1));
    let report = ecl_verify::verify(alg, arch, db, schedule, period, None).expect("verify runs");
    assert!(
        report.is_clean(),
        "{label}: static verifier reported errors:\n{}",
        report.render()
    );
    assert_eq!(report.count(Severity::Error), 0, "{label}");
}

/// E9 — the layered filter-bank law on 1..4 processors.
#[test]
fn exp9_filter_bank_schedules_verify() {
    let law = ControlLawSpec::filtered("bank", 12, 2).with_data_units(4);
    let (alg, io) = law.to_algorithm().expect("translate");
    let db = uniform_timing(&alg, &io, TimeNs::from_micros(40), TimeNs::from_micros(500));
    for n_procs in [1usize, 2, 3, 4] {
        let mut arch = ArchitectureGraph::new();
        let ps: Vec<_> = (0..n_procs)
            .map(|i| arch.add_processor(format!("p{i}"), "arm"))
            .collect();
        if n_procs > 1 {
            arch.add_bus("bus", &ps, TimeNs::from_micros(30), TimeNs::from_micros(1))
                .expect("valid");
        }
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).expect("ok");
        assert_verifies(&format!("E9 {n_procs}p"), &alg, &arch, &db, &schedule, None);
    }
}

/// E10/E13 — the quarter-car suspension on 3 ECUs over one CAN bus.
#[test]
fn exp10_quarter_car_schedule_verifies() {
    let (alg, arch, db, schedule, period) = quarter_car_case().expect("quarter-car case");
    assert_verifies(
        "E10/E13 quarter-car",
        &alg,
        &arch,
        &db,
        &schedule,
        Some(period),
    );
}

/// E11/E12 — the canonical split DC-motor baseline the fleet sweeps
/// perturb.
#[test]
fn exp11_split_baseline_schedule_verifies() {
    let base = standard_split().expect("scenario");
    let schedule = adequation(
        &base.alg,
        &base.arch,
        &base.db,
        AdequationOptions::default(),
    )
    .expect("ok");
    assert_verifies(
        "E11/E12 baseline",
        &base.alg,
        &base.arch,
        &base.db,
        &schedule,
        None,
    );
}
