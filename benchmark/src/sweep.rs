//! The fleet-sweep workloads: `sweep_hot`, `sweep_cold`, `sweep_faulty`.
//!
//! Each times whole `run_sweep` + `render` + `to_json` repeats of the
//! exp17 deployment (`dc_motor_loop(0.05)` on the standard 2-ECU split)
//! and checks the outputs: every repeat renders the same bytes, the
//! first 2 000 rows equal a separate 1-worker sweep, the faulty sweep's
//! pruned rows hold against an unpruned ground truth, and with the
//! default seed the archived exp17/exp19 digests (and the pinned
//! `sweep_cold` digest) are reproduced.

use std::time::Instant;

use ecl_aaa::{adequation, AdequationOptions, TimeNs};
use ecl_bench::fleet::{run_sweep, FaultAxes, Scenario, SweepConfig, SweepOutput};
use ecl_bench::{dc_motor_loop, split_scenario, SplitScenario};
use ecl_core::cosim::{self, LoopSpec, ScheduledRunCache};
use ecl_core::faults::{FaultConfig, FaultFamily, FaultPlan};
use ecl_core::report::ScenarioOutcome;
use ecl_telemetry::{Phase, ProfileReport};

use crate::report::Report;
use crate::{fnv64, layers, stats, Options, DEFAULT_SEED, WORKERS};

/// Which sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    /// Fault-free, 96 memo keys: the memos answer nearly everything.
    Hot,
    /// Nearly every scenario draws its own WCET table: nothing is shared.
    Cold,
    /// exp19's fault axes with static envelope pruning.
    Faulty,
}

impl SweepKind {
    /// Scenarios per timed repeat.
    fn scenarios(self, quick: bool) -> usize {
        match (self, quick) {
            (SweepKind::Hot, false) => 50_000,
            (SweepKind::Cold, false) => 1_000,
            (SweepKind::Faulty, false) => 6_000,
            (SweepKind::Cold, true) => 40,
            (_, true) => 500,
        }
    }

    /// The digests the default seed must reproduce: the scenario count,
    /// the `(render, json, histogram)` FNV-64 values and their source.
    fn archived(self) -> (usize, [u64; 3], &'static str) {
        match self {
            SweepKind::Hot => (
                1_000_000,
                [
                    0x4dad_6103_0f3c_16f8,
                    0x05bf_c7fb_cdb0_c492,
                    0x10c5_024c_9a5b_a2ae,
                ],
                "results/exp17_scale.txt",
            ),
            SweepKind::Faulty => (
                1_000_000,
                [
                    0x2b48_a546_611c_41df,
                    0x02c1_8d2e_f5f4_0224,
                    0xd8e3_ecbc_a75f_0765,
                ],
                "results/exp19_envelope.txt",
            ),
            SweepKind::Cold => (
                SweepKind::Cold.scenarios(false),
                [
                    0x9154_f6fd_686f_294e,
                    0x6aa1_1b11_1bd8_cd10,
                    0x4fce_8908_b104_0642,
                ],
                "the pinned sweep_cold digests",
            ),
        }
    }
}

/// Rows compared against the 1-worker reference and the unpruned audit.
const PREFIX: usize = 2_000;

/// Deployments built, after one untimed build, in each set-up burst.
const SETUP_BURST: usize = 10;

/// Timed repeats a run makes at least, whatever `--seconds` says.
const MIN_REPEATS: usize = 3;

/// Every sweep configuration of the benchmark. The memo flags are the
/// daemon's settings.
pub fn sweep_config(kind: SweepKind, seed: u64, scenarios: usize, profile: bool) -> SweepConfig {
    let mut config = SweepConfig {
        base_seed: seed,
        scenario_count: scenarios,
        workers: WORKERS,
        profile,
        memoize_scheduled: true,
        memoize_reports: true,
        ..SweepConfig::default()
    };
    match kind {
        SweepKind::Hot => {}
        SweepKind::Cold => config.wcet_tables = 1 << 30,
        SweepKind::Faulty => {
            config.faults = FaultAxes {
                frame_loss_rates: vec![0.0, 0.25],
                link_outage_rates: vec![0.0, 0.10],
                proc_dropout_rates: vec![0.0, 0.05],
                ..FaultAxes::default()
            };
            config.prune_static = true;
        }
    }
    config
}

/// The exp17 deployment.
struct Deployment {
    spec: LoopSpec,
    base: SplitScenario,
}

fn deployment() -> Deployment {
    Deployment {
        spec: dc_motor_loop(0.05).expect("the DC-motor loop builds"),
        base: split_scenario(
            2,
            1,
            TimeNs::from_micros(200),
            TimeNs::from_micros(50),
            TimeNs::from_micros(500),
        )
        .expect("the split deployment builds"),
    }
}

/// The Markdown render and the JSON document of one sweep, as a caller
/// of the fleet produces them.
struct Rendered {
    /// `(render, json, histogram)` FNV-64 digests.
    digests: [u64; 3],
    /// Bytes of both documents.
    bytes: usize,
    /// Wall seconds of `render()`.
    render_s: f64,
    /// Wall seconds of `to_json()`.
    json_s: f64,
    /// CPU seconds of both.
    cpu_s: f64,
}

fn render(out: &SweepOutput) -> Rendered {
    let cpu = crate::cpu_s();
    let t = Instant::now();
    let render = out.summary.render();
    let render_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let json = out.summary.to_json();
    let json_s = t.elapsed().as_secs_f64();
    let cpu_s = crate::cpu_s() - cpu;
    Rendered {
        digests: [
            fnv64(render.as_bytes()),
            fnv64(json.as_bytes()),
            fnv64(format!("{:?}", out.actuation_hist).as_bytes()),
        ],
        bytes: render.len() + json.len(),
        render_s,
        json_s,
        cpu_s,
    }
}

/// The median CPU time of building [`SETUP_BURST`] deployments, after
/// one untimed build that warms the caches the previous repeat evicted.
fn setup_burst() -> f64 {
    deployment();
    let times: Vec<f64> = (0..SETUP_BURST)
        .map(|_| {
            let cpu = crate::cpu_s();
            std::hint::black_box(deployment());
            crate::cpu_s() - cpu
        })
        .collect();
    stats::median(&times).expect("a burst builds at least once")
}

/// One timed repeat: the sweep, the Markdown render and the JSON
/// document.
struct Repeat {
    out: SweepOutput,
    rendered: Rendered,
    /// Wall seconds of the sweep, render and JSON.
    wall_s: f64,
    /// CPU seconds of the same, every worker's included.
    cpu_s: f64,
}

fn repeat(d: &Deployment, config: &SweepConfig) -> Repeat {
    let cpu = crate::cpu_s();
    let t = Instant::now();
    let out = run_sweep(&d.spec, &d.base, config).expect("the sweep runs");
    let sweep_s = t.elapsed().as_secs_f64();
    let sweep_cpu = crate::cpu_s() - cpu;
    let rendered = render(&out);
    Repeat {
        wall_s: sweep_s + rendered.render_s + rendered.json_s,
        cpu_s: sweep_cpu + rendered.cpu_s,
        out,
        rendered,
    }
}

/// Runs one sweep workload.
///
/// The repeats and the set-up are timed in CPU time, for the reason
/// the README's "Why CPU time" gives: on a shared host the wall clock
/// also counts the time the neighbours hold the cores.
///
/// `setup_s` is the median of bursts taken between the timed repeats:
/// a single-threaded build takes tens of microseconds, and on a shared
/// two-vCPU machine such timings split into modes about 1.8x apart
/// that last seconds, which a run of back-to-back builds would inherit
/// whole.
pub fn run(kind: SweepKind, opts: &Options) -> Report {
    let mut report = Report::new();
    let d = deployment();
    let scenarios = kind.scenarios(opts.quick);
    let config = sweep_config(kind, opts.seed, scenarios, false);

    let start = Instant::now();
    let min_repeats = if opts.quick { 1 } else { MIN_REPEATS };
    let mut cpus = Vec::new();
    let mut setups = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut first: Option<[u64; 3]> = None;
    loop {
        let r = repeat(&d, &config);
        eprintln!(
            "repeat {}: {:.4} s wall, {:.4} s CPU (render {:.4} s, json {:.4} s)",
            cpus.len() + 1,
            r.wall_s,
            r.cpu_s,
            r.rendered.render_s,
            r.rendered.json_s
        );
        cpus.push(r.cpu_s);
        report.attempted += scenarios as u64;
        let digests = r.rendered.digests;
        match first {
            Some(first) => report.check(
                digests == first,
                format!("repeat {} rendered other bytes than the first", cpus.len()),
            ),
            None => {
                first = Some(digests);
                peak_rss_mb = crate::peak_rss_mb();
                check_sweep(kind, &d, &r.out, opts, &mut report);
                if opts.trace {
                    traced(kind, &d, &r, opts, &mut report);
                    break;
                }
            }
        }
        drop(r);
        setups.push(setup_burst());
        if cpus.len() >= min_repeats && start.elapsed().as_secs_f64() >= opts.seconds {
            break;
        }
    }
    if !opts.trace {
        report.set(
            "setup_s",
            stats::median(&setups).expect("a burst followed every repeat"),
        );
        report.set(
            "scenarios_per_cpu_s",
            scenarios as f64 / stats::median(&cpus).expect("repeats were timed"),
        );
        report.set("peak_rss_mb", peak_rss_mb);
    }
    if opts.seed == DEFAULT_SEED && !opts.quick {
        check_archived(kind, &d, first.expect("one repeat ran"), &mut report);
    }
    if !report.correct {
        report.failed = report.attempted;
    }
    report
}

/// Correctness gates that hold for any seed.
fn check_sweep(
    kind: SweepKind,
    d: &Deployment,
    out: &SweepOutput,
    opts: &Options,
    report: &mut Report,
) {
    let n = out.summary.scenarios.len();
    report.check(n == kind.scenarios(opts.quick), "one row per scenario");
    let prefix = PREFIX.min(n);
    let reference = SweepConfig {
        workers: 1,
        ..sweep_config(kind, opts.seed, prefix, false)
    };
    let serial = run_sweep(&d.spec, &d.base, &reference).expect("the reference sweep runs");
    report.check(
        out.summary.scenarios[..prefix] == serial.summary.scenarios[..],
        format!("the first {prefix} rows differ from a 1-worker sweep"),
    );
    report.check(
        out.scheduled_hits + out.scheduled_misses >= n as u64,
        "at least one scheduled-memo lookup per scenario",
    );
    if kind == SweepKind::Hot {
        report.check(
            out.scheduled_misses <= 96,
            format!("{} scheduled runs for a 96-key sweep", out.scheduled_misses),
        );
    }
    if kind == SweepKind::Faulty {
        let unsound = audit(d, &out.summary.scenarios[..prefix], opts.seed);
        report.check(unsound == 0, format!("{unsound} unsound prunes"));
        if opts.trace {
            report.set("envelope.unsound", unsound as f64);
        }
    }
}

/// Holds the pruned rows of `rows` to an unpruned sweep of the same
/// indices and returns the number that contradict it. Rows that were
/// not pruned must match the ground truth exactly.
fn audit(d: &Deployment, rows: &[ScenarioOutcome], seed: u64) -> usize {
    let truth_config = SweepConfig {
        prune_static: false,
        ..sweep_config(SweepKind::Faulty, seed, rows.len(), false)
    };
    let truth = run_sweep(&d.spec, &d.base, &truth_config).expect("the audit sweep runs");
    rows.iter()
        .zip(&truth.summary.scenarios)
        .filter(|(p, g)| {
            if p.label.ends_with(" pruned:safe") {
                g.overruns != 0
            } else if p.label.ends_with(" pruned:unsafe") {
                g.overruns == 0
            } else {
                p != g
            }
        })
        .count()
}

/// With the default seed, reproduces the archived digests: from the
/// timed sweep when it has the archived size, else from a separate one.
fn check_archived(kind: SweepKind, d: &Deployment, timed: [u64; 3], report: &mut Report) {
    let (scenarios, expected, source) = kind.archived();
    let got = if scenarios == kind.scenarios(false) {
        timed
    } else {
        let config = sweep_config(kind, DEFAULT_SEED, scenarios, false);
        let out = run_sweep(&d.spec, &d.base, &config).expect("the archived sweep runs");
        render(&out).digests
    };
    let hex = |d: [u64; 3]| d.map(|x| format!("{x:#018x}")).join(" ");
    report.check(
        got == expected,
        format!(
            "digests {} differ from {source}: {}",
            hex(got),
            hex(expected)
        ),
    );
}

/// Windows `phase` recorded and their mean length in µs (zeros when it
/// never ran).
fn phase_stat(profile: &ProfileReport, phase: Phase) -> (f64, f64) {
    profile
        .phases
        .iter()
        .find(|s| s.phase == phase)
        .map_or((0.0, 0.0), |s| {
            (s.count as f64, s.total_ns as f64 / s.count as f64 / 1e3)
        })
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The traced run: one profiled repeat against the untraced one, the
/// per-layer numbers of the fleet profiler, and replays of each layer on
/// this workload's own inputs.
fn traced(kind: SweepKind, d: &Deployment, untraced: &Repeat, opts: &Options, report: &mut Report) {
    let scenarios = kind.scenarios(opts.quick);
    let config = sweep_config(kind, opts.seed, scenarios, true);
    let r = repeat(d, &config);
    report.check(
        r.rendered.digests == untraced.rendered.digests,
        "profiling changed the rendered bytes",
    );
    let out = &r.out;
    let profile = out.profile.as_ref().expect("profiling was requested");
    report.set("fleet.busy_frac", profile.utilization());
    report.set(
        "fleet.unattributed_frac",
        1.0 - profile.attributed_fraction(),
    );
    report.set("derive.us_mean", phase_stat(profile, Phase::Derive).1);

    let s = &out.summary;
    let lookups = s.cache_hits + s.cache_misses;
    report.set("aaa.lookups", lookups as f64);
    report.set("aaa.misses", s.cache_misses as f64);
    report.set("aaa.hit_rate", ratio(s.cache_hits, lookups));
    report.set("aaa.us_mean", phase_stat(profile, Phase::Adequation).1);

    let (count, mean) = phase_stat(profile, Phase::Synthesis);
    report.set("delays.synth.count", count);
    report.set("delays.synth.us_mean", mean);
    report.set("cosim.ideal.misses", out.ideal_misses as f64);

    let sched = out.scheduled_hits + out.scheduled_misses;
    report.set("cosim.sched.lookups", sched as f64);
    report.set("cosim.sched.misses", out.scheduled_misses as f64);
    report.set("cosim.sched.hit_rate", ratio(out.scheduled_hits, sched));
    report.set("cosim.sched.races", out.races[2] as f64);
    report.set("cosim.sched.us_mean", phase_stat(profile, Phase::Cosim).1);
    report.set(
        "report.memo.hit_rate",
        ratio(out.report_hits, out.report_hits + out.report_misses),
    );

    report.set(
        "report.metrics.us_mean",
        phase_stat(profile, Phase::Metrics).1,
    );
    report.set("report.render_s", r.rendered.render_s);
    report.set("report.to_json_s", r.rendered.json_s);
    report.set("report.bytes", r.rendered.bytes as f64);

    let (count, mean) = phase_stat(profile, Phase::FaultPlan);
    report.set("faults.plan.count", count);
    report.set("faults.plan.us_mean", mean);
    let (count, mean) = phase_stat(profile, Phase::Envelope);
    report.set("envelope.count", count);
    report.set("envelope.us_mean", mean);
    if let Some(p) = &s.prune {
        report.set(
            "envelope.prune_frac",
            ratio((p.pruned_safe + p.pruned_unsafe) as u64, p.evaluated as u64),
        );
    }

    let cpu = crate::cpu_s();
    let mut self_ms: Vec<(String, f64)> = profile
        .phases
        .iter()
        .map(|p| (p.phase.name().replace(' ', "_"), p.total_ns as f64 / 1e6))
        .collect();
    self_ms.push((
        "unattributed".into(),
        profile.busy_ns().saturating_sub(profile.attributed_ns()) as f64 / 1e6,
    ));
    crate::write_trace(opts, &profile.to_events(), &self_ms);
    report.set(
        "trace_overhead_frac",
        (r.cpu_s + crate::cpu_s() - cpu) / untraced.cpu_s - 1.0,
    );
    replay(&config, d, report);
}

/// Per-layer replays on the first scenario of the workload: adequation,
/// the ideal, scheduled and faulty co-simulations, a scheduled-memo hit,
/// the fault envelope and fault-plan generation.
fn replay(config: &SweepConfig, d: &Deployment, report: &mut Report) {
    let base = &d.base;
    let scenario = Scenario::derive(config, base, 0);
    let db = scenario.jittered_db(base);
    let options = AdequationOptions {
        policy: scenario.policy,
    };
    let schedule = adequation(&base.alg, &base.arch, &db, options).expect("adequation runs");
    report.set(
        "aaa.adequation_us",
        layers::time_us(|| adequation(&base.alg, &base.arch, &db, options)),
    );
    let mut spec = d.spec.clone();
    spec.ts *= scenario.period_scale;
    let makespan_s = schedule.makespan().as_secs_f64();
    if makespan_s > spec.ts {
        spec.ts = makespan_s * 1.05;
    }
    let periods = (spec.horizon / spec.ts).floor().max(1.0) as u32;
    // Fault-free scenarios replay the faulty path with exp17's probe
    // plan, so the layer has a number on every workload.
    let fault_config = if scenario.has_faults() {
        scenario.fault_config(&config.faults)
    } else {
        FaultConfig {
            seed: scenario.seed,
            frame_loss_rate: 0.25,
            link_outage_rate: 0.1,
            ..FaultConfig::default()
        }
    };
    let plan = FaultPlan::generate(&fault_config, &schedule, &base.arch, periods)
        .expect("the fault plan generates");

    let ideal = cosim::run_ideal(&spec).expect("the ideal run");
    let nominal = cosim::run_scheduled(&spec, &base.alg, &base.io, &schedule, &base.arch)
        .expect("the scheduled run");
    let faulty = cosim::run_scheduled_faulty(
        &spec,
        &base.alg,
        &base.io,
        &schedule,
        &base.arch,
        plan.clone(),
    )
    .expect("the faulty run");
    report.set(
        "sim.hot_allocs",
        (ideal.stats.hot_allocs + nominal.stats.hot_allocs + faulty.stats.hot_allocs) as f64,
    );
    report.set(
        "cosim.run_ideal_us",
        layers::time_us(|| cosim::run_ideal(&spec)),
    );
    report.set(
        "cosim.run_scheduled_us",
        layers::time_us(|| cosim::run_scheduled(&spec, &base.alg, &base.io, &schedule, &base.arch)),
    );
    report.set(
        "cosim.run_faulty_us",
        layers::time_us(|| {
            cosim::run_scheduled_faulty(
                &spec,
                &base.alg,
                &base.io,
                &schedule,
                &base.arch,
                plan.clone(),
            )
        }),
    );
    let memo = ScheduledRunCache::new();
    let digest = ecl_aaa::schedule_digest(&base.alg, &base.arch, &db, options);
    let lookup = || {
        memo.get_or_run(
            &spec, &base.alg, &base.io, &schedule, &base.arch, digest, None,
        )
    };
    lookup().expect("the memo fills");
    report.set("cosim.sched.hit_us", layers::time_us(lookup));
    let family = FaultFamily::from_config(&fault_config);
    let period = TimeNs::from_secs_f64(spec.ts);
    report.set(
        "envelope.replay_us",
        layers::time_us(|| {
            ecl_verify::fault_envelope(&base.alg, &base.arch, &schedule, period, &family, None)
        }),
    );
    report.set(
        "faults.generate_us",
        layers::time_us(|| FaultPlan::generate(&fault_config, &schedule, &base.arch, periods)),
    );
}
