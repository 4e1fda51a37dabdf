//! E19-ENVELOPE — fault-envelope abstract interpretation as a fleet
//! pre-pass: static pruning of a 10⁶-scenario sweep with a sampled
//! soundness audit.
//!
//! The envelope layer (`ecl_verify::fault_envelope`, DESIGN.md §15)
//! computes sound `[lo, hi]` completion bounds for an entire fault
//! *family* — every plan any seed can draw — in one static pass. This
//! experiment exercises it in all three integration points:
//!
//! * **Showcase** — the envelope of the standard split deployment under
//!   four families, with the EV4xx diagnostics each verdict carries
//!   (Safe / Unsafe+EV401 / Inconclusive+EV403).
//! * **Static sweep pruning** (`SweepConfig::prune_static`) — scenarios
//!   whose family resolves conclusively skip co-simulation entirely.
//!   The fault axes here carry a zero entry per class, so 1/8 of the
//!   10⁶ scenarios draw the trivial family and prune Safe (~125 000
//!   co-simulations and metric passes never run).
//! * **Sampled soundness audit** — the first `AUDIT` scenario indices
//!   are re-swept *unpruned* as ground truth: every `pruned:safe` row
//!   must be overrun-free, every `pruned:unsafe` row must overrun, and
//!   every simulated row must be byte-identical to the unpruned run.
//!   `prune_unsound` is the number of violations, asserted zero.
//!
//! Artifacts follow the E17 split: `results/exp19_envelope.txt` is the
//! deterministic digest report — the sweep digests, the prune counts,
//! the schedule, scheduled-run and envelope memo counters, and the
//! tally of fault plans (generated, trivial, and the distinct replay
//! keys of the non-trivial ones) — asserted the same at 1 and 4 workers
//! (pruning decisions are a pure function of `(config, index)`, so
//! pruned sweeps stay byte-identical on any pool size) and diffed by
//! `scripts/check.sh` against the committed copy;
//! `results/timing/BENCH_exp19.json` is the untracked wall-clock
//! evidence sidecar of the 4-worker run.

use ecl_aaa::{adequation, AdequationOptions, TimeNs};
use ecl_bench::fleet::{run_sweep, FaultAxes, SweepConfig, SweepOutput};
use ecl_bench::{
    phase_mean_ns, scale_loop, standard_split, sweep_digest, worker_invariant, write_result,
};
use ecl_core::faults::FaultFamily;
use ecl_telemetry::{Phase, ProfileReport};
use ecl_verify::EnvelopeVerdict;

/// Scenario count, matching E17-SCALE's fleet order of magnitude.
const SCENARIOS: usize = 1_000_000;

/// Unpruned ground-truth prefix re-simulated for the soundness audit.
const AUDIT: usize = 2_000;

/// Minimum pruned fraction: each of the three fault classes draws its
/// zero entry with probability 1/2, so 1/8 of scenarios are trivial and
/// every trivial family resolves Safe under the stretched period.
const PRUNE_FLOOR: f64 = 0.10;

/// Fault axes with a zero entry per class: the zero draws produce
/// trivial families (statically prunable), the non-zero draws produce
/// drop-capable families the envelope must refuse to prune.
fn axes() -> FaultAxes {
    FaultAxes {
        frame_loss_rates: vec![0.0, 0.25],
        link_outage_rates: vec![0.0, 0.10],
        proc_dropout_rates: vec![0.0, 0.05],
        ..FaultAxes::default()
    }
}

fn config(workers: usize, count: usize, prune: bool) -> SweepConfig {
    SweepConfig {
        scenario_count: count,
        workers,
        trace_scenarios: 0,
        profile: true,
        memoize_scheduled: true,
        prune_static: prune,
        faults: axes(),
        ..SweepConfig::default()
    }
}

fn sweep(
    workers: usize,
    count: usize,
    prune: bool,
) -> Result<SweepOutput, Box<dyn std::error::Error>> {
    Ok(run_sweep(
        &scale_loop()?,
        &standard_split()?,
        &config(workers, count, prune),
    )?)
}

/// The envelope of the nominal deployment under four families,
/// rendered with diagnostics — and the verdicts pinned: the abstract
/// interpretation must be exact (Safe/Unsafe) exactly when the family
/// admits no silent completion.
fn envelope_showcase() -> Result<String, Box<dyn std::error::Error>> {
    let base = standard_split()?;
    let schedule = adequation(
        &base.alg,
        &base.arch,
        &base.db,
        AdequationOptions::default(),
    )?;
    let makespan = schedule.makespan();
    let comfortable = TimeNs::from_nanos(makespan.as_nanos() * 3 / 2);
    let infeasible = TimeNs::from_nanos((makespan.as_nanos() / 2).max(1));
    let drops = FaultFamily {
        frame_loss: true,
        max_retries: 0,
        link_outage: true,
        proc_dropout: true,
    };
    let retries = FaultFamily {
        frame_loss: true,
        max_retries: 3,
        link_outage: false,
        proc_dropout: false,
    };
    let cases = [
        (
            "trivial family, feasible period",
            FaultFamily::trivial(),
            comfortable,
        ),
        (
            "trivial family, infeasible period",
            FaultFamily::trivial(),
            infeasible,
        ),
        ("retries family", retries, comfortable),
        ("drop family", drops, comfortable),
    ];
    let mut txt = String::from("== envelope showcase (nominal schedule) ==\n");
    let mut verdicts = Vec::new();
    let mut codes: Vec<Vec<&'static str>> = Vec::new();
    for (label, family, period) in cases {
        let report =
            ecl_verify::fault_envelope(&base.alg, &base.arch, &schedule, period, &family, None);
        txt.push_str(&format!(
            "-- {label} (period {period}): verdict {:?}\n",
            report.verdict()
        ));
        let mut case_codes = Vec::new();
        for d in ecl_verify::envelope_diagnostics(&base.alg, &report) {
            txt.push_str(&format!("   {} {:?}: {}\n", d.code, d.severity, d.message));
            case_codes.push(d.code);
        }
        verdicts.push(report.verdict());
        codes.push(case_codes);
    }
    assert_eq!(
        verdicts,
        [
            EnvelopeVerdict::Safe,
            EnvelopeVerdict::Unsafe,
            EnvelopeVerdict::Inconclusive,
            EnvelopeVerdict::Inconclusive,
        ],
        "showcase verdicts drifted"
    );
    assert!(
        codes[1].contains(&"EV401"),
        "an infeasible period must carry the EV401 lower-bound violation"
    );
    assert!(
        codes[2].contains(&"EV403") && codes[3].contains(&"EV403"),
        "drop-capable families must carry the EV403 absence note"
    );
    Ok(txt)
}

/// The deterministic digest report (the same at any worker count).
fn digest_report(out: &SweepOutput, showcase: &str) -> String {
    let prune = out.summary.prune.expect("sweep ran with prune_static");
    format!(
        "E19-ENVELOPE deterministic digest (identical at 1 and 4 workers)\n\
         {}\
         prune: evaluated={} safe={} unsafe={} simulated={}\n\
         schedule_cache: hits={} misses={}\n\
         scheduled_memo: hits={} misses={}\n\
         envelope_memo: hits={} misses={}\n\
         fault_plans: generated={} trivial={} distinct_faulty_keys={}\n\
         \n{showcase}",
        sweep_digest(out),
        prune.evaluated,
        prune.pruned_safe,
        prune.pruned_unsafe,
        prune.simulated,
        out.summary.cache_hits,
        out.summary.cache_misses,
        out.scheduled_hits,
        out.scheduled_misses,
        out.envelope_hits,
        out.envelope_misses,
        out.fault_plans,
        out.trivial_plans,
        out.faulty_keys,
    )
}

/// Sampled soundness audit: re-sweeps the first `AUDIT` indices with
/// pruning off and holds every pruned row to the ground truth. Returns
/// `(audited_pruned, prune_unsound)`.
fn audit(out: &SweepOutput) -> Result<(usize, usize), Box<dyn std::error::Error>> {
    let truth = sweep(4, AUDIT, false)?;
    let mut audited_pruned = 0;
    let mut unsound = 0;
    for (p, g) in out
        .summary
        .scenarios
        .iter()
        .take(AUDIT)
        .zip(&truth.summary.scenarios)
    {
        assert_eq!(p.index, g.index, "audit rows out of step");
        if p.label.ends_with(" pruned:safe") {
            audited_pruned += 1;
            if g.overruns != 0 {
                unsound += 1;
            }
        } else if p.label.ends_with(" pruned:unsafe") {
            audited_pruned += 1;
            if g.overruns == 0 {
                unsound += 1;
            }
        } else {
            assert_eq!(p, g, "an unpruned row drifted from the ground truth");
        }
    }
    Ok((audited_pruned, unsound))
}

/// Wall-clock evidence sidecar (never committed).
fn bench_json(
    out: &SweepOutput,
    profile: &ProfileReport,
    audited_pruned: usize,
    unsound: usize,
) -> String {
    let prune = out.summary.prune.expect("sweep ran with prune_static");
    let wall_s = profile.wall_ns as f64 / 1e9;
    let throughput = out.summary.scenarios.len() as f64 / wall_s;
    let pruned = prune.pruned_safe + prune.pruned_unsafe;
    format!(
        "{{\"experiment\":\"exp19_envelope\",\
         \"scenarios\":{},\
         \"workers\":{},\
         \"wall_ns\":{},\
         \"scenarios_per_s\":{throughput:.1},\
         \"prune_evaluated\":{},\
         \"pruned_safe\":{},\
         \"pruned_unsafe\":{},\
         \"simulated\":{},\
         \"prune_fraction\":{:.6},\
         \"audit_scenarios\":{AUDIT},\
         \"audited_pruned\":{audited_pruned},\
         \"prune_unsound\":{unsound},\
         \"envelope_mean_ns\":{:.1},\
         \"cosim_mean_ns\":{:.1}}}\n",
        out.summary.scenarios.len(),
        profile.workers.len(),
        profile.wall_ns,
        prune.evaluated,
        prune.pruned_safe,
        prune.pruned_unsafe,
        prune.simulated,
        pruned as f64 / prune.evaluated.max(1) as f64,
        phase_mean_ns(profile, Phase::Envelope),
        phase_mean_ns(profile, Phase::Cosim),
    )
}

/// Assertions made at every worker count.
fn check(out: &SweepOutput) {
    assert_eq!(out.summary.scenarios.len(), SCENARIOS);
    let prune = out.summary.prune.expect("sweep ran with prune_static");
    assert_eq!(prune.evaluated, SCENARIOS, "every scenario is evaluated");
    assert_eq!(
        prune.pruned_safe + prune.pruned_unsafe + prune.simulated,
        prune.evaluated,
        "prune counters must partition the sweep"
    );
    let fraction = (prune.pruned_safe + prune.pruned_unsafe) as f64 / SCENARIOS as f64;
    assert!(
        fraction >= PRUNE_FLOOR,
        "only {:.2}% of scenarios pruned (expected ~12.5% trivial draws)",
        fraction * 100.0
    );
    assert_eq!(
        prune.pruned_unsafe, 0,
        "the deterministic period stretch keeps every trivial family feasible"
    );
    let profile = out.profile.as_ref().expect("profiling was requested");
    let envelope_passes = profile
        .phases
        .iter()
        .find(|s| s.phase == Phase::Envelope)
        .map_or(0, |s| s.count);
    assert!(
        envelope_passes > 0,
        "the envelope phase must appear in the profile"
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("E19-ENVELOPE — fault-envelope pruning of a 10\u{2076}-scenario sweep\n");

    let showcase = envelope_showcase()?;
    println!("{showcase}");

    let (out, report) = worker_invariant(
        |workers| {
            let out = sweep(workers, SCENARIOS, true)?;
            check(&out);
            Ok(out)
        },
        |out| digest_report(out, &showcase),
    )?;
    println!("1-worker vs 4-worker pruned sweep: digest reports byte-identical");

    let prune = out.summary.prune.expect("sweep ran with prune_static");
    let profile = out.profile.as_ref().expect("profiling was requested");
    let wall_s = profile.wall_ns as f64 / 1e9;
    println!(
        "{} scenarios in {wall_s:.1} s on {} worker(s): {} pruned safe, {} pruned \
         unsafe, {} simulated (envelope pass mean {:.1} us)",
        out.summary.scenarios.len(),
        profile.workers.len(),
        prune.pruned_safe,
        prune.pruned_unsafe,
        prune.simulated,
        phase_mean_ns(profile, Phase::Envelope) / 1e3,
    );

    let (audited_pruned, unsound) = audit(&out)?;
    println!(
        "sampled audit: {AUDIT} ground-truth scenarios, {audited_pruned} pruned rows \
         checked, {unsound} unsound"
    );
    assert!(
        audited_pruned > 0,
        "the audit prefix must contain pruned rows"
    );
    assert_eq!(
        unsound, 0,
        "{unsound} pruned row(s) contradict ground truth"
    );

    let report_path = write_result("exp19_envelope.txt", &report)?;
    let bench_path = write_result(
        "timing/BENCH_exp19.json",
        &bench_json(&out, profile, audited_pruned, unsound),
    )?;
    println!(
        "wrote {} and {}",
        report_path.display(),
        bench_path.display()
    );
    Ok(())
}
