use std::fmt::Write as _;

use ecl_aaa::{MappingPolicy, TimeNs, TimingDb};
use ecl_core::faults::FaultConfig;
use ecl_core::report::push_fixed;
use ecl_sim::{splitmix64, SplitMix64};

use crate::SplitScenario;

/// Salt separating the WCET-table seed stream from the scenario seed
/// stream: table `t`'s factors derive from
/// [`scenario_seed`]`(base_seed ^ WCET_TABLE_SALT, t)`, so a table's
/// content depends only on the sweep seed and the table index — never on
/// which scenario drew it.
const WCET_TABLE_SALT: u64 = 0x57ce_7ab1_e5a1_7000;

/// The WCET factors of the table whose stream starts at `seed`, one per
/// operation in [`ecl_aaa::OpId`] index order: `1 + jitter·u` for
/// uniform draws `u` in `[0, 1)`.
fn wcet_factors(seed: u64, jitter: f64) -> impl Iterator<Item = f64> {
    let mut rng = SplitMix64::new(seed);
    std::iter::repeat_with(move || 1.0 + jitter * rng.next_f64())
}

/// Derives scenario `index`'s PRNG seed from the sweep seed: element
/// `index` of the splitmix64 stream starting at `base`. Workers never
/// share PRNG state, so the derivation — not scheduling order — fixes
/// every random draw.
pub fn scenario_seed(base: u64, index: usize) -> u64 {
    splitmix64(base.wrapping_add((index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)))
}

/// Fault-injection axes of a sweep (experiment E12-FAULT).
///
/// Each scenario draws one rate per fault class from these lists,
/// *after* its WCET and period draws, so all-zero axes leave historical
/// scenarios (and their report bytes) untouched.
#[derive(Debug, Clone)]
pub struct FaultAxes {
    /// Per-transmission frame-loss probabilities; each scenario draws one.
    pub frame_loss_rates: Vec<f64>,
    /// Per-period link-outage start probabilities; each scenario draws one.
    pub link_outage_rates: Vec<f64>,
    /// Per-period processor-dropout hazards; each scenario draws one.
    pub proc_dropout_rates: Vec<f64>,
    /// Retransmission budget per frame before the period's transfer drops.
    pub max_retries: u32,
    /// Length of a link-outage window, in periods.
    pub outage_periods: u32,
}

impl Default for FaultAxes {
    fn default() -> Self {
        FaultAxes {
            frame_loss_rates: vec![0.0],
            link_outage_rates: vec![0.0],
            proc_dropout_rates: vec![0.0],
            max_retries: 3,
            outage_periods: 2,
        }
    }
}

impl FaultAxes {
    /// `true` when no axis can produce a fault (the sweep is fault-free).
    pub fn is_zero(&self) -> bool {
        let all_zero = |v: &[f64]| v.iter().all(|&r| r == 0.0);
        all_zero(&self.frame_loss_rates)
            && all_zero(&self.link_outage_rates)
            && all_zero(&self.proc_dropout_rates)
    }
}

/// What a sweep varies and how large it is.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Sweep-level seed; scenario `i` uses [`scenario_seed`]`(base_seed, i)`.
    pub base_seed: u64,
    /// Number of scenarios.
    pub scenario_count: usize,
    /// Worker threads (clamped to at least 1). Must not affect results.
    pub workers: usize,
    /// Maximum fractional WCET inflation: each operation's WCET is scaled
    /// by a factor drawn uniformly from `[1, 1 + wcet_jitter]`.
    pub wcet_jitter: f64,
    /// Number of quantized WCET tables the jitter draws are binned into:
    /// each scenario draws a table *index* and the table's per-operation
    /// factors derive from `(base_seed, table)` alone. Scenarios sharing
    /// a table (and mapping policy) present identical adequation inputs,
    /// so the schedule cache can actually hit — a continuous per-scenario
    /// draw would make every schedule digest unique and starve the
    /// cache. Must be at least 1.
    pub wcet_tables: usize,
    /// Sampling-period scales; each scenario draws one uniformly.
    pub period_scales: Vec<f64>,
    /// Mapping policies, assigned round-robin by scenario index. A
    /// [`MappingPolicy::Random`] entry is re-seeded with the scenario
    /// seed.
    pub policies: Vec<MappingPolicy>,
    /// A scenario is robust when `cost / ideal cost <= cost_bound_ratio`.
    pub cost_bound_ratio: f64,
    /// Capture merged telemetry traces for the first `trace_scenarios`
    /// scenarios (they get `s<i>:`-prefixed tracks in the merged stream).
    pub trace_scenarios: usize,
    /// Fault-injection axes; the all-zero default keeps the sweep
    /// fault-free and its report byte-identical to pre-fault sweeps.
    pub faults: FaultAxes,
    /// Cross-validate every scenario: generate executives, execute them
    /// on the `ecl-exec` virtual machine (with the scenario's fault
    /// plan, if any) and compare the measured completion instants
    /// against the graph-of-delays prediction. Off by default; the
    /// report stays byte-identical when off.
    pub validate_executive: bool,
    /// Statically verify every scenario: run the `ecl-verify` passes over
    /// its schedule and check that the sound static `Ls`/`La` bounds
    /// dominate the measured latencies of the co-simulated run. Off by
    /// default; the report stays byte-identical when off.
    pub verify_static: bool,
    /// Profile the sweep: every worker records per-scenario phase spans
    /// into a private buffer, merged after the pool joins into
    /// [`SweepOutput::profile`](super::SweepOutput::profile), the only
    /// output carrying wall-clock readings.
    pub profile: bool,
    /// Memoize untraced co-simulations in the shared scheduled-run memo,
    /// keyed by the `(loop × schedule × fault-plan)` content digest: the
    /// quantized axes pigeonhole large sweeps onto a few distinct keys.
    /// The memoized result is bit-identical to a fresh run, so every
    /// deterministic artifact is byte-identical with the memo on or off.
    /// It is still a flag, off by default, only because
    /// `benchmark/src/sweep.rs` and the daemon set it; deleting it waits
    /// for a change that may edit the benchmark.
    pub memoize_scheduled: bool,
    /// Memoize per-scenario latency metrics in the shared
    /// [`ReportCache`](super::ReportCache), keyed by `(scheduled-run
    /// digest, histogram bound)`: they are pure functions of the
    /// co-simulated run's bytes, so two scenarios pricing to the same run
    /// digest share one report extraction, with identical bytes. Off by
    /// default for the same reason as
    /// [`memoize_scheduled`](SweepConfig::memoize_scheduled).
    pub memoize_reports: bool,
    /// Statically prune scenarios by fault-envelope abstract
    /// interpretation: before co-simulating, evaluate the sound
    /// `[lo, hi]` completion envelope of the scenario's *fault family*
    /// (`ecl_verify::fault_envelope`). A conclusively safe or unsafe
    /// verdict skips the ideal run and the co-simulation entirely and
    /// contributes a statically derived report row (cost 0, worst
    /// actuation = envelope upper bound) — a pure function of
    /// `(config, index)`, so pruned sweeps stay byte-identical for any
    /// worker count. Traced scenarios are never pruned (their telemetry
    /// is the point). Off by default; the report grows a `### Static
    /// pruning` section only when on.
    pub prune_static: bool,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            base_seed: 0xec1_f1ee7,
            scenario_count: 64,
            workers: 1,
            wcet_jitter: 0.30,
            wcet_tables: 16,
            period_scales: vec![1.0, 1.25, 1.5],
            policies: vec![
                MappingPolicy::SchedulePressure,
                MappingPolicy::EarliestFinish,
            ],
            cost_bound_ratio: 1.5,
            trace_scenarios: 0,
            faults: FaultAxes::default(),
            validate_executive: false,
            verify_static: false,
            profile: false,
            memoize_scheduled: false,
            memoize_reports: false,
            prune_static: false,
        }
    }
}

/// The text of a [`Scenario::label`] before its WCET bound.
const LABEL_WCET: &str = "wcet<=x";

/// The text of a [`Scenario::label`] between its WCET bound and period
/// scale.
const LABEL_PERIOD: &str = " Ts x";

/// The text before each fault rate of a faulty scenario's label: frame
/// loss, link outage, processor dropout.
const LABEL_FAULTS: [&str; 3] = [" faults fl", " ol", " pd"];

/// Decimals of each fault rate in a label, in [`LABEL_FAULTS`] order.
const FAULT_DIGITS: [usize; 3] = [3, 3, 4];

/// Appends a label's policy name.
fn push_policy(out: &mut String, policy: MappingPolicy) {
    match policy {
        MappingPolicy::SchedulePressure => out.push_str("SchedulePressure"),
        MappingPolicy::EarliestFinish => out.push_str("EarliestFinish"),
        random @ MappingPolicy::Random { .. } => {
            let _ = write!(out, "{random:?}");
        }
    }
}

/// Bytes [`push_fixed`] writes for `v` at `digits` decimals.
fn fixed_len(v: f64, digits: usize) -> usize {
    let mut s = String::new();
    push_fixed(&mut s, v, digits);
    s.len()
}

impl SweepConfig {
    /// The length of the shortest [`Scenario::label`] this sweep's axes
    /// allow: each part of a label at its narrowest. A table's largest
    /// WCET factor is at least 1, so its bound writes at least `1.000`;
    /// the period scale and the policy are the narrowest of their axes
    /// (a [`MappingPolicy::Random`] seed is at least one digit); the
    /// fault rates count only when no scenario can be fault-free, i.e.
    /// some axis holds positive rates alone. Prune suffixes only add to
    /// a label.
    pub fn shortest_label_len(&self) -> usize {
        let narrowest = |axis: &[f64], digits: usize| {
            axis.iter()
                .map(|&v| fixed_len(v, digits))
                .min()
                .unwrap_or(0)
        };
        let policy = self
            .policies
            .iter()
            .map(|&policy| {
                let mut name = String::new();
                push_policy(
                    &mut name,
                    match policy {
                        MappingPolicy::Random { .. } => MappingPolicy::Random { seed: 0 },
                        fixed => fixed,
                    },
                );
                name.len()
            })
            .min()
            .unwrap_or(0);
        let axes = &self.faults;
        let rates = [
            &axes.frame_loss_rates,
            &axes.link_outage_rates,
            &axes.proc_dropout_rates,
        ];
        let always_faulty = rates.iter().any(|axis| axis.iter().all(|&r| r > 0.0));
        let faults = if always_faulty {
            (0..3)
                .map(|k| LABEL_FAULTS[k].len() + narrowest(rates[k], FAULT_DIGITS[k]))
                .sum()
        } else {
            0
        };
        LABEL_WCET.len()
            + fixed_len(1.0, 3)
            + LABEL_PERIOD.len()
            + narrowest(&self.period_scales, 2)
            + 1
            + policy
            + faults
    }
}

/// A concrete perturbation of the baseline, fully determined by
/// `(config, index)` — deriving it never consults shared state.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Index within the sweep.
    pub index: usize,
    /// The derived PRNG seed.
    pub seed: u64,
    /// Index of the quantized WCET table this scenario drew.
    pub wcet_table: usize,
    /// Seed of table [`wcet_table`](Scenario::wcet_table)'s factor
    /// stream, a function of `(base_seed, wcet_table)` only: the table
    /// scales each operation's WCETs by `1 + wcet_jitter·u`, with one
    /// draw `u` per operation in [`ecl_aaa::OpId`] index order.
    pub wcet_seed: u64,
    /// The sweep's [`wcet_jitter`](SweepConfig::wcet_jitter).
    pub wcet_jitter: f64,
    /// The table's largest factor, and at least 1.
    pub wcet_worst: f64,
    /// Sampling-period scale.
    pub period_scale: f64,
    /// Mapping policy for this scenario's adequation.
    pub policy: MappingPolicy,
    /// Per-transmission frame-loss probability of this scenario.
    pub frame_loss_rate: f64,
    /// Per-period link-outage start probability of this scenario.
    pub link_outage_rate: f64,
    /// Per-period processor-dropout hazard of this scenario.
    pub proc_dropout_rate: f64,
}

impl Scenario {
    /// Derives scenario `index` of a sweep over `base`.
    pub fn derive(config: &SweepConfig, base: &SplitScenario, index: usize) -> Scenario {
        let seed = scenario_seed(config.base_seed, index);
        let mut rng = SplitMix64::new(seed);
        // The scenario draws a WCET *table index*; the table's content
        // comes from its own seed stream, independent of the scenario.
        // Scenarios sharing a table therefore present byte-identical
        // timing tables to the scheduler and can share a cached schedule.
        let wcet_table = rng.below(config.wcet_tables.max(1));
        let wcet_seed = scenario_seed(config.base_seed ^ WCET_TABLE_SALT, wcet_table);
        let wcet_worst = wcet_factors(wcet_seed, config.wcet_jitter)
            .take(base.alg.len())
            .fold(1.0f64, f64::max);
        let period_scale = config.period_scales[rng.below(config.period_scales.len())];
        // Fault rates are drawn after the historical axes so that an
        // all-zero `FaultAxes` reproduces pre-fault scenario draws (and
        // hence report bytes) exactly.
        let axes = &config.faults;
        let frame_loss_rate = axes.frame_loss_rates[rng.below(axes.frame_loss_rates.len())];
        let link_outage_rate = axes.link_outage_rates[rng.below(axes.link_outage_rates.len())];
        let proc_dropout_rate = axes.proc_dropout_rates[rng.below(axes.proc_dropout_rates.len())];
        let mut policy = config.policies[index % config.policies.len()];
        if let MappingPolicy::Random { .. } = policy {
            policy = MappingPolicy::Random { seed };
        }
        Scenario {
            index,
            seed,
            wcet_table,
            wcet_seed,
            wcet_jitter: config.wcet_jitter,
            wcet_worst,
            period_scale,
            policy,
            frame_loss_rate,
            link_outage_rate,
            proc_dropout_rate,
        }
    }

    /// `true` when this scenario injects at least one fault class.
    pub fn has_faults(&self) -> bool {
        self.frame_loss_rate > 0.0 || self.link_outage_rate > 0.0 || self.proc_dropout_rate > 0.0
    }

    /// The fault-injection configuration of this scenario: plan seed =
    /// scenario seed, budgets from the sweep axes.
    pub fn fault_config(&self, axes: &FaultAxes) -> FaultConfig {
        FaultConfig {
            seed: self.seed,
            frame_loss_rate: self.frame_loss_rate,
            max_retries: axes.max_retries,
            link_outage_rate: self.link_outage_rate,
            outage_periods: axes.outage_periods,
            proc_dropout_rate: self.proc_dropout_rate,
        }
    }

    /// The perturbed WCET table: every default and processor-specific
    /// entry scaled by its operation's factor (interdictions kept).
    pub fn jittered_db(&self, base: &SplitScenario) -> TimingDb {
        let scale = |t: TimeNs, f: f64| {
            TimeNs::from_nanos(((t.as_nanos() as f64 * f).round() as i64).max(1))
        };
        // The timing table iterates in unspecified (HashMap) order, so the
        // factors are drawn first, in operation order.
        let factors: Vec<f64> = wcet_factors(self.wcet_seed, self.wcet_jitter)
            .take(base.alg.len())
            .collect();
        let mut db = base.db.clone();
        for (op, t) in base.db.iter_defaults() {
            db.set_default(op, scale(t, factors[op.index()]));
        }
        for (op, p, t) in base.db.iter_specific() {
            db.set(op, p, scale(t, factors[op.index()]));
        }
        db
    }

    /// One-line description used in report rows. Fault rates appear only
    /// when non-zero, keeping fault-free labels byte-identical to
    /// pre-fault sweeps.
    pub fn label(&self) -> String {
        // Room for a fixed policy and the fault rates when present, so
        // these writes do not reallocate.
        let mut s = String::with_capacity(if self.has_faults() { 104 } else { 56 });
        self.write_label(&mut s);
        s
    }

    /// Appends [`label`](Scenario::label) to `out`.
    pub(super) fn write_label(&self, out: &mut String) {
        out.push_str(LABEL_WCET);
        push_fixed(out, self.wcet_worst, 3);
        out.push_str(LABEL_PERIOD);
        push_fixed(out, self.period_scale, 2);
        out.push(' ');
        push_policy(out, self.policy);
        if self.has_faults() {
            let rates = [
                self.frame_loss_rate,
                self.link_outage_rate,
                self.proc_dropout_rate,
            ];
            for ((text, digits), rate) in LABEL_FAULTS.into_iter().zip(FAULT_DIGITS).zip(rates) {
                out.push_str(text);
                push_fixed(out, rate, digits);
            }
        }
    }
}
