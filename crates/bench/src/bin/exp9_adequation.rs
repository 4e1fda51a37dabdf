//! E9 — adequation quality and scaling.
//!
//! Schedules a layered filter-bank law onto 1..4 processors and compares
//! the schedule-pressure heuristic against earliest-finish-time and the
//! best of ten random mappings: makespan, speedup over one processor, and
//! average processor utilization.
//!
//! Telemetry artifacts written to `results/`: a Chrome trace of the
//! per-phase spans (`exp9_trace.json`), the 4-processor Gantt timeline
//! (`exp9_timeline.{txt,csv}`), and the per-phase wall-clock breakdown
//! (`timing/BENCH_exp9.json`, untracked).

use ecl_aaa::{
    adequation, timeline, AdequationOptions, AlgorithmGraph, ArchitectureGraph, MappingPolicy,
    TimeNs, TimingDb,
};
use ecl_bench::{bench_json, table, write_result};
use ecl_core::translate::{uniform_timing, ControlLawSpec};
use ecl_telemetry::{trace, Collector, RecordingSink};

fn target(n_procs: usize) -> ArchitectureGraph {
    let mut arch = ArchitectureGraph::new();
    let ps: Vec<_> = (0..n_procs)
        .map(|i| arch.add_processor(format!("p{i}"), "arm"))
        .collect();
    if n_procs > 1 {
        arch.add_bus("bus", &ps, TimeNs::from_micros(30), TimeNs::from_micros(1))
            .expect("valid");
    }
    arch
}

fn makespan(
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
    db: &TimingDb,
    policy: MappingPolicy,
) -> TimeNs {
    let s = adequation(alg, arch, db, AdequationOptions { policy }).expect("schedulable");
    s.validate(alg, arch).expect("valid");
    s.makespan()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut tel = Collector::new(RecordingSink::default());

    // A wide filtered law: 12 independent pre-filters then a merge step —
    // plenty of parallelism for the heuristic to find.
    let law = ControlLawSpec::filtered("bank", 12, 2).with_data_units(4);
    let (alg, io) = tel.span("translate", |_| law.to_algorithm())?;
    let db = uniform_timing(&alg, &io, TimeNs::from_micros(40), TimeNs::from_micros(500));

    println!(
        "E9 — adequation scaling on a {}-operation filter-bank law\n",
        alg.len()
    );
    let seq = makespan(&alg, &target(1), &db, MappingPolicy::SchedulePressure);
    let mut rows = Vec::new();
    let mut widest = None;
    for procs in [1usize, 2, 3, 4] {
        let arch = target(procs);
        let (sp, eft, rnd, schedule) = tel.span(&format!("adequation {procs}p"), |_| {
            let sp = makespan(&alg, &arch, &db, MappingPolicy::SchedulePressure);
            let eft = makespan(&alg, &arch, &db, MappingPolicy::EarliestFinish);
            let rnd = (0..10)
                .map(|seed| makespan(&alg, &arch, &db, MappingPolicy::Random { seed }))
                .min()
                .expect("ten runs");
            let schedule = adequation(&alg, &arch, &db, AdequationOptions::default());
            (sp, eft, rnd, schedule)
        });
        let schedule = schedule?;
        let speedup = seq.as_nanos() as f64 / sp.as_nanos() as f64;
        let util: f64 = arch
            .processors()
            .map(|p| schedule.utilization(p))
            .sum::<f64>()
            / procs as f64;
        rows.push(vec![
            procs.to_string(),
            format!("{sp}"),
            format!("{eft}"),
            format!("{rnd}"),
            format!("{speedup:.2}x"),
            format!("{:.0}%", util * 100.0),
        ]);
        widest = Some((schedule, arch));
    }
    println!(
        "{}",
        table(
            &[
                "procs",
                "pressure",
                "eft",
                "best-of-10 random",
                "speedup",
                "avg util"
            ],
            &rows
        )
    );
    println!("\nexpected shape: pressure <= best random; speedup grows with");
    println!("processors until the bus and the merge stage saturate it.");

    let (schedule, arch) = widest.expect("loop ran");
    let sink = tel.into_sink();
    write_result(
        "exp9_timeline.txt",
        &timeline::gantt_text(&schedule, &alg, &arch),
    )?;
    write_result(
        "exp9_timeline.csv",
        &timeline::gantt_csv(&schedule, &alg, &arch),
    )?;
    write_result("exp9_trace.json", &trace::chrome_trace(sink.events()))?;
    write_result(
        "timing/BENCH_exp9.json",
        &bench_json("exp9", &sink.span_durations()),
    )?;
    println!("\ntelemetry: results/exp9_timeline.{{txt,csv}}, results/exp9_trace.json,");
    println!("results/timing/BENCH_exp9.json (4-processor pressure schedule)");
    Ok(())
}
