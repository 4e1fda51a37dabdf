//! Rendering lifecycle results as Markdown and CSV artifacts.
//!
//! A methodology that shortens the design cycle lives or dies by what it
//! hands back to the designer; this module turns a
//! [`LifecycleReport`] into a
//! human-readable Markdown summary and machine-readable CSV traces.

use std::fmt::Write as _;
use std::sync::Arc;

use ecl_aaa::{AlgorithmGraph, ArchitectureGraph};
use ecl_telemetry::Counts;

use crate::cosim::LoopResult;
use crate::faults::FaultPlan;
use crate::latency::LatencyReport;
use crate::lifecycle::LifecycleReport;
use crate::CoreError;

/// Renders the lifecycle report as a self-contained Markdown document.
pub fn to_markdown(
    report: &LifecycleReport,
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
) -> String {
    let mut s = String::new();
    s.push_str("# Design-lifecycle report\n\n");
    s.push_str("## Control performance\n\n");
    s.push_str("| run | quadratic cost | vs ideal |\n|---|---|---|\n");
    let base = report.ideal.cost;
    for (name, run) in [
        ("ideal (stroboscopic)", &report.ideal),
        ("implemented (co-simulated)", &report.implemented),
        ("calibrated (delay-aware redesign)", &report.calibrated),
    ] {
        s.push_str(&format!(
            "| {name} | {:.6} | {:+.2}% |\n",
            run.cost,
            (run.cost / base - 1.0) * 100.0
        ));
    }
    s.push_str(&format!(
        "\nDegradation {:+.2}%, calibration recovers {:.0}% of it.\n",
        report.degradation() * 100.0,
        report.calibration_recovery() * 100.0
    ));

    s.push_str("\n## Latencies (paper eq. 1–2)\n\n```text\n");
    s.push_str(&report.latency.render());
    s.push_str("```\n");

    s.push_str("\n## Observability\n\n");
    s.push_str("Latency percentiles of the implemented run (streaming histograms, ns):\n\n");
    s.push_str("| series | count | min | p50 | p95 | p99 | max | mean |\n");
    s.push_str("|---|---|---|---|---|---|---|---|\n");
    let mut hist_row = |label: String, h: &ecl_telemetry::Histogram| {
        let sm = h.summary();
        s.push_str(&format!(
            "| {label} | {} | {} | {} | {} | {} | {} | {:.1} |\n",
            sm.count, sm.min_ns, sm.p50_ns, sm.p95_ns, sm.p99_ns, sm.max_ns, sm.mean_ns
        ));
    };
    for (j, h) in report.implemented.sampling_hist.iter().enumerate() {
        hist_row(format!("Ls[{j}]"), h);
    }
    for (j, h) in report.implemented.actuation_hist.iter().enumerate() {
        hist_row(format!("La[{j}]"), h);
    }

    s.push_str("\nBusiest blocks of the implemented co-simulation (event deliveries):\n\n");
    s.push_str("| block | activations |\n|---|---|\n");
    for (name, count) in report.implemented.activity.iter().take(5) {
        s.push_str(&format!("| {name} | {count} |\n"));
    }
    let es = &report.implemented.stats;
    s.push_str(&format!(
        "\nEngine counters: {} event instants, {} deliveries, calendar peak {}, \
         {} ODE steps ({} rejected), {} RHS evaluations.\n",
        es.event_instants,
        es.events_delivered,
        es.calendar_peak,
        es.ode.steps_accepted,
        es.ode.steps_rejected,
        es.ode.rhs_evals
    ));

    s.push_str("\n## Static schedule\n\n```text\n");
    s.push_str(&report.schedule.render(alg, arch));
    s.push_str("```\n\n```text\n");
    s.push_str(&ecl_aaa::timeline::gantt_text(&report.schedule, alg, arch));
    s.push_str("```\n");

    s.push_str(&format!(
        "\n## Generated executives (deadlock-free: {})\n\n```text\n{}\n```\n",
        report.deadlock_free, report.executives
    ));
    s
}

/// The cost table of the report as CSV (`run,cost,relative`).
pub fn costs_csv(report: &LifecycleReport) -> String {
    let base = report.ideal.cost;
    let mut s = String::from("run,cost,relative_to_ideal\n");
    for (name, run) in [
        ("ideal", &report.ideal),
        ("implemented", &report.implemented),
        ("calibrated", &report.calibrated),
    ] {
        s.push_str(&format!("{name},{:.9},{:.6}\n", run.cost, run.cost / base));
    }
    s
}

/// Exports chosen probe signals of a run as a merged CSV, linearly
/// resampled on a uniform grid of step `dt` seconds.
///
/// # Errors
///
/// Returns [`CoreError::InvalidInput`] if `dt` is non-positive, a name is
/// unknown, or the run recorded nothing.
pub fn traces_csv(run: &LoopResult, names: &[&str], dt: f64) -> Result<String, CoreError> {
    if !(dt > 0.0) {
        return Err(CoreError::InvalidInput {
            reason: format!("resampling step must be positive, got {dt}"),
        });
    }
    let signals: Result<Vec<_>, CoreError> = names
        .iter()
        .map(|&n| {
            run.result.signal(n).ok_or_else(|| CoreError::InvalidInput {
                reason: format!("unknown probe '{n}'"),
            })
        })
        .collect();
    let signals = signals?;
    let t_end = signals
        .iter()
        .filter_map(|s| s.last().map(|(t, _)| t))
        .fold(0.0f64, f64::max);
    if t_end <= 0.0 {
        return Err(CoreError::InvalidInput {
            reason: "run recorded no samples".into(),
        });
    }
    let mut s = String::from("t");
    for n in names {
        s.push(',');
        s.push_str(n);
    }
    s.push('\n');
    let steps = (t_end / dt).floor() as usize;
    for k in 0..=steps {
        let t = k as f64 * dt;
        s.push_str(&format!("{t:.9}"));
        for sig in &signals {
            s.push_str(&format!(",{:.9}", sig.sample(t).unwrap_or(0.0)));
        }
        s.push('\n');
    }
    Ok(s)
}

/// Aggregated outcome of one scenario of a Monte-Carlo sweep.
///
/// Rows are produced by the sweep engine (`ecl-bench`'s fleet module) in
/// scenario-index order, so a [`SweepSummary`] renders byte-identically
/// regardless of how many workers ran the sweep.
///
/// Equality compares every field but [`tail`](ScenarioOutcome::tail),
/// which is a rendering of the others.
#[derive(Debug, Clone)]
pub struct ScenarioOutcome {
    /// Scenario index within the sweep (also the seed-derivation input).
    pub index: usize,
    /// The per-scenario PRNG seed actually used.
    pub seed: u64,
    /// Human-readable description of the perturbation; rows of the
    /// same label share one string.
    pub label: Arc<str>,
    /// Quadratic cost of the implemented (co-simulated) run.
    pub cost: f64,
    /// `cost / ideal cost` of the same scenario.
    pub cost_ratio: f64,
    /// Makespan of the scenario's static schedule, ns.
    pub makespan_ns: i64,
    /// Worst observed actuation latency `La_j(k)`, ns.
    pub worst_actuation_ns: i64,
    /// Number of cross-period actuations (lenient-mode overruns).
    pub overruns: usize,
    /// The row's cells after its index and seed, rendered once for both
    /// documents ([`RowTail::new`] of this row, or of a row equal to it
    /// but for index and seed); `None` renders them cell by cell. The
    /// sweep engine sets it on a row its class table serves to every
    /// scenario of the class, so a repeated row is copied, not
    /// formatted.
    pub tail: Option<RowTail>,
}

/// Field by field but the tail (named, so a new field must be placed).
impl PartialEq for ScenarioOutcome {
    fn eq(&self, other: &ScenarioOutcome) -> bool {
        let ScenarioOutcome {
            index,
            seed,
            label,
            cost,
            cost_ratio,
            makespan_ns,
            worst_actuation_ns,
            overruns,
            tail: _,
        } = self;
        *index == other.index
            && *seed == other.seed
            && *label == other.label
            && *cost == other.cost
            && *cost_ratio == other.cost_ratio
            && *makespan_ns == other.makespan_ns
            && *worst_actuation_ns == other.worst_actuation_ns
            && *overruns == other.overruns
    }
}

/// A scenario row's cells after its index and seed, pre-rendered for
/// both sweep documents: the Markdown tail ` | label | cost | vs ideal |
/// makespan | worst La | overruns |\n` and the JSON tail from
/// `, "label": …` to the `overruns` value (the row's closing brace
/// depends on whether it is the last). Both sit in one shared string,
/// which ends in a four-byte trailer holding the Markdown tail's
/// length. So a tail costs one allocation, every row that carries it
/// one reference count, and an `Option<RowTail>` is one fat pointer: it
/// adds 16 bytes to a row, which keeps a fleet result slot within two
/// cache lines.
///
/// Its only constructor renders a row with the very cell writers the
/// renderers use for a row without a tail, so a row renders the same
/// bytes with its tail as without it.
#[derive(Clone)]
pub struct RowTail {
    /// The Markdown tail, the JSON tail, then the trailer.
    text: Arc<str>,
}

/// Bytes of a [`RowTail`]'s trailer: the Markdown tail's length, seven
/// bits a byte, low bits first, so every byte is ASCII and the text
/// stays a `str`. A Markdown tail is under 2^28 bytes.
const TRAILER_BYTES: usize = 4;

impl RowTail {
    /// Renders `row`'s Markdown and JSON tails; its index, seed and own
    /// tail are not read.
    ///
    /// # Panics
    ///
    /// When the Markdown tail, label included, is 2^28 bytes or more.
    pub fn new(row: &ScenarioOutcome) -> RowTail {
        let mut spill = String::new();
        let mut cells = Cells::new(&mut spill);
        markdown_tail(&mut cells, row);
        let markdown = cells.written();
        assert!(
            markdown >> (7 * TRAILER_BYTES) == 0,
            "a {markdown}-byte Markdown tail overflows the row tail's trailer"
        );
        json_tail(&mut cells, row);
        let trailer: [u8; TRAILER_BYTES] =
            std::array::from_fn(|k| (markdown >> (7 * k)) as u8 & 0x7f);
        cells.str(std::str::from_utf8(&trailer).expect("the trailer is ASCII"));
        RowTail {
            text: cells.into_shared(),
        }
    }

    /// The Markdown tail and the JSON tail.
    #[inline(always)]
    fn parts(&self) -> (&str, &str) {
        let (tails, trailer) = self.text.split_at(self.text.len() - TRAILER_BYTES);
        let markdown = (trailer.bytes().rev()).fold(0, |len, b| len << 7 | usize::from(b));
        tails.split_at(markdown)
    }
}

impl std::fmt::Debug for RowTail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (markdown, json) = self.parts();
        f.debug_struct("RowTail")
            .field("markdown", &markdown)
            .field("json", &json)
            .finish()
    }
}

/// Verdict of a faulty run against its fault-free baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StabilityVerdict {
    /// Cost stayed within the sweep's cost-ratio bound despite the faults.
    Stable,
    /// Cost exceeded the bound but the loop still converged (finite cost
    /// within 10× the bound).
    Degraded,
    /// The loop diverged: non-finite cost, or beyond 10× the bound.
    Diverged,
}

impl StabilityVerdict {
    /// Fixed lower-case name, used by both renderers.
    pub fn as_str(self) -> &'static str {
        match self {
            StabilityVerdict::Stable => "stable",
            StabilityVerdict::Degraded => "degraded",
            StabilityVerdict::Diverged => "diverged",
        }
    }
}

/// How one faulty scenario degraded relative to its fault-free twin.
///
/// Built by [`DegradationSummary::new`] from two co-simulations of
/// the *same* scenario — one with the fault plan active, one nominal —
/// so every delta isolates the injected faults from the scenario's own
/// perturbations.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationSummary {
    /// Scenario index within the sweep.
    pub index: usize,
    /// Periods covered by the fault plan.
    pub periods: u32,
    /// Injected-fault tallies from the plan (frame losses,
    /// retransmissions, outage windows, processor dropouts, ...).
    pub injected: Counts,
    /// Sampling activations lost versus the baseline run (skipped
    /// `I_j(k)` events — the Hold block kept its previous value).
    pub skipped_samples: usize,
    /// Actuation activations lost versus the baseline run.
    pub skipped_actuations: usize,
    /// Cross-period completions of the faulty run (lenient-mode
    /// overruns), counting retransmission stretch and forced rendezvous.
    pub overruns: usize,
    /// Mean `Ls_j(k)` inflation over the baseline, ns.
    pub ls_inflation_ns: i64,
    /// Mean `La_j(k)` inflation over the baseline, ns.
    pub la_inflation_ns: i64,
    /// `faulty cost / baseline cost` of the same scenario.
    pub cost_ratio: f64,
    /// Stability classification of the faulty run.
    pub verdict: StabilityVerdict,
}

impl DegradationSummary {
    /// Compares a faulty run against its fault-free baseline, each with
    /// its lenient latency report
    /// ([`LoopResult::latency_report_lenient`]) — the one place a
    /// degradation row is computed. The reports come in beside the runs
    /// so a caller that memoizes extractions reads each run's once.
    ///
    /// `cost_bound_ratio` is the sweep's robustness bound: within it the
    /// verdict is [`Stable`](StabilityVerdict::Stable), within 10× it is
    /// [`Degraded`](StabilityVerdict::Degraded), beyond (or non-finite)
    /// [`Diverged`](StabilityVerdict::Diverged).
    pub fn new(
        index: usize,
        plan: &FaultPlan,
        (baseline, base_rep): (&LoopResult, &LatencyReport),
        (faulty, faulty_rep): (&LoopResult, &LatencyReport),
        cost_bound_ratio: f64,
    ) -> DegradationSummary {
        let skipped = |base: &[Vec<ecl_aaa::TimeNs>], faul: &[Vec<ecl_aaa::TimeNs>]| {
            base.iter()
                .zip(faul)
                .map(|(b, f)| b.len().saturating_sub(f.len()))
                .sum()
        };
        let cost_ratio = faulty.cost / baseline.cost;
        let verdict = if !cost_ratio.is_finite() || cost_ratio > 10.0 * cost_bound_ratio {
            StabilityVerdict::Diverged
        } else if cost_ratio <= cost_bound_ratio {
            StabilityVerdict::Stable
        } else {
            StabilityVerdict::Degraded
        };
        DegradationSummary {
            index,
            periods: plan.periods(),
            injected: plan.counts().clone(),
            skipped_samples: skipped(&baseline.sample_instants, &faulty.sample_instants),
            skipped_actuations: skipped(&baseline.actuation_instants, &faulty.actuation_instants),
            overruns: faulty_rep.total_overruns(),
            ls_inflation_ns: faulty_rep.mean_sampling().as_nanos()
                - base_rep.mean_sampling().as_nanos(),
            la_inflation_ns: faulty_rep.mean_actuation().as_nanos()
                - base_rep.mean_actuation().as_nanos(),
            cost_ratio,
            verdict,
        }
    }
}

/// Aggregate of a sweep's executive cross-validations (experiment
/// E13-EXEC): every validated run executed the generated code in the
/// `ecl-exec` virtual machine and diffed the measured completion
/// instants against the graph-of-delays prediction
/// (`ecl_core::xval::validate_schedule`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ValidationSummary {
    /// Executive runs cross-validated (a scenario's nominal and faulty
    /// runs count separately).
    pub validated: usize,
    /// Runs whose measured series matched the prediction exactly.
    pub exact: usize,
    /// Largest measured-vs-predicted divergence seen anywhere, ns.
    pub max_divergence_ns: i64,
}

/// Aggregate of a sweep's static verifications (experiment E14-VERIFY):
/// every verified scenario ran the `ecl-verify` passes over its schedule
/// and checked that the sound static `Ls`/`La` bounds dominate the
/// measured latencies.
///
/// Defined here (plain counts, no dependency on the verifier crate) so
/// the renderers stay in one place; the sweep engine populates it from
/// `ecl-verify` reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerificationSummary {
    /// Scenarios statically verified.
    pub verified: usize,
    /// Error-severity diagnostics across all verified scenarios.
    pub errors: usize,
    /// Warning-severity diagnostics across all verified scenarios.
    pub warnings: usize,
    /// Smallest `static bound - measured latency` margin observed
    /// anywhere, ns (non-negative iff the bounds are sound).
    pub worst_margin_ns: i64,
}

/// Aggregate of a sweep's static fault-envelope pruning (experiment
/// E19-ENVELOPE): scenarios whose envelope verdict was conclusive
/// skipped co-simulation entirely and contributed a statically derived
/// report row instead.
///
/// Defined here (plain counts, no dependency on the verifier crate) for
/// the same reason as [`VerificationSummary`]: the renderers stay in one
/// place and the sweep engine populates it from `ecl-verify` envelopes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PruneSummary {
    /// Scenarios whose fault envelope was evaluated (traced scenarios
    /// are never pruned, so they do not count here).
    pub evaluated: usize,
    /// Scenarios pruned with a conclusively *safe* envelope (no period
    /// or budget violation is possible for any plan in the family).
    pub pruned_safe: usize,
    /// Scenarios pruned with a conclusively *unsafe* envelope (every
    /// plan in the family violates the period or budget).
    pub pruned_unsafe: usize,
    /// Scenarios that went on to co-simulate (inconclusive envelope, or
    /// traced/pass-skipped).
    pub simulated: usize,
}

/// `10^k` for every precision [`push_fixed`] writes exactly.
const POW10: [u64; 10] = [
    1,
    10,
    100,
    1_000,
    10_000,
    100_000,
    1_000_000,
    10_000_000,
    100_000_000,
    1_000_000_000,
];

/// The two ASCII digits of every `n < 100`, at bytes `2n` and `2n + 1`.
const PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        table[2 * n] = b'0' + (n / 10) as u8;
        table[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    table
};

/// The widest cell the writer's exact paths produce: a sign, 20 integer
/// digits, the point and 9 decimals.
const CELL_MAX: usize = 32;

/// Bytes a [`Cells`] writer buffers before it flushes: a few dozen
/// scenario rows of the reports.
const CELLS_CAP: usize = 4096;

/// Writes the low `dst.len()` decimal digits of `n` into `dst`,
/// zero-padded, two digits per step. Eight digits at a time split into
/// four pairs that do not wait on one another.
#[inline(always)]
fn put_digits(dst: &mut [u8], mut n: u64) {
    let mut i = dst.len();
    while i >= 8 {
        i -= 8;
        put_digits_unrolled(&mut dst[i..i + 8], n % 100_000_000);
        n /= 100_000_000;
    }
    while i >= 2 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        i -= 2;
        dst[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if i == 1 {
        dst[0] = b'0' + (n % 10) as u8;
    }
}

/// [`put_digits`] for a `dst` whose length is known where it is
/// inlined: each pair divides `n` by its own constant power of 100, so
/// the pairs do not wait on one another.
#[inline(always)]
fn put_digits_unrolled(dst: &mut [u8], n: u64) {
    let mut i = dst.len();
    let mut power = 1u64;
    while i >= 2 {
        let pair = (n / power % 100) as usize * 2;
        power = power.wrapping_mul(100);
        i -= 2;
        dst[i..i + 2].copy_from_slice(&PAIRS[pair..pair + 2]);
    }
    if i == 1 {
        dst[0] = b'0' + (n / power % 10) as u8;
    }
}

/// Writes `n` at the start of `dst` (20 bytes or more) as `{}` writes
/// it; returns the bytes written.
#[inline(always)]
fn put_u64(dst: &mut [u8], n: u64) -> usize {
    if n < 10 {
        dst[0] = b'0' + n as u8;
        return 1;
    }
    let len = n.ilog10() as usize + 1;
    put_digits(&mut dst[..len], n);
    len
}

/// Writes `n` at the start of `dst` (21 bytes or more) as `{}` writes
/// it; returns the bytes written.
#[inline(always)]
fn put_i64(dst: &mut [u8], n: i64) -> usize {
    if n < 0 {
        dst[0] = b'-';
        1 + put_u64(&mut dst[1..], n.unsigned_abs())
    } else {
        put_u64(dst, n.unsigned_abs())
    }
}

/// Writes `n` at the start of `dst` as `{:#018x}` writes it — `0x` and
/// 16 lower-case hex digits, two per step; returns 18.
#[inline(always)]
fn put_hex(dst: &mut [u8], n: u64) -> usize {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    dst[..2].copy_from_slice(b"0x");
    for (k, byte) in n.to_be_bytes().into_iter().enumerate() {
        dst[2 + 2 * k] = HEX[usize::from(byte >> 4)];
        dst[3 + 2 * k] = HEX[usize::from(byte & 0xf)];
    }
    18
}

/// Writes `v` with `digits` digits after the point at the start of
/// `dst` ([`CELL_MAX`] bytes or more), byte-equal to
/// `format!("{v:.digits$}")`; returns the bytes written, or `None` where
/// [`push_fixed`] falls back to `core::fmt`. Inlined where `digits` is
/// a constant, the splits by `10^digits` are multiplications.
#[inline(always)]
fn put_fixed(dst: &mut [u8], v: f64, digits: usize) -> Option<usize> {
    let n = scaled_fixed(v, digits)?;
    let scale = POW10[digits];
    // The sign byte is overwritten by the first digit when `v` is
    // positive.
    dst[0] = b'-';
    let mut at = usize::from(v.is_sign_negative());
    at += put_u64(&mut dst[at..], n / scale);
    if digits > 0 {
        dst[at] = b'.';
        put_digits_unrolled(&mut dst[at + 1..at + 1 + digits], n % scale);
        at += 1 + digits;
    }
    Some(at)
}

/// Appends `v` with `digits` digits after the point, byte-equal to
/// `format!("{v:.digits$}")`.
///
/// A finite `v = m·2^e` with `e < 0` is written by exact integer
/// arithmetic: `m·10^digits` fits in a `u128` for `digits <= 9`, the
/// shift by `-e` leaves the exact remainder, and a tie rounds half to
/// even as `core::fmt` does (`0.0078125` at 6 digits is `0.007812`). The
/// sign of `-0.0`, and of a negative value that rounds to zero, is kept.
/// Non-finite values, magnitudes of `2^52` and up (`e >= 0`), scaled
/// values past `u64::MAX` and `digits > 9` go through `write!`.
///
/// # Examples
///
/// ```
/// use ecl_core::report::push_fixed;
///
/// let mut s = String::new();
/// push_fixed(&mut s, 0.0078125, 6);
/// s.push(' ');
/// push_fixed(&mut s, -0.0001, 3);
/// assert_eq!(s, "0.007812 -0.000");
/// ```
pub fn push_fixed(out: &mut String, v: f64, digits: usize) {
    let mut buf = [0u8; CELL_MAX];
    match put_fixed(&mut buf, v, digits) {
        Some(len) => out.push_str(std::str::from_utf8(&buf[..len]).expect("ASCII digits")),
        None => {
            let _ = write!(out, "{v:.digits$}");
        }
    }
}

/// `|v|·10^digits` rounded half to even, or `None` where [`push_fixed`]
/// falls back to `core::fmt`.
#[inline(always)]
fn scaled_fixed(v: f64, digits: usize) -> Option<u64> {
    if !v.is_finite() || digits >= POW10.len() {
        return None;
    }
    let bits = v.to_bits();
    let biased = ((bits >> 52) & 0x7ff) as i32;
    let fraction = bits & ((1 << 52) - 1);
    let (m, e) = if biased == 0 {
        (fraction, -1074)
    } else {
        (fraction | (1 << 52), biased - 1075)
    };
    if e >= 0 {
        return None;
    }
    let shift = e.unsigned_abs();
    // n < 2^53 · 10^9 < 2^83: past that shift the quotient is 0 and the
    // remainder below one half.
    if shift > 83 {
        return Some(0);
    }
    let n = u128::from(m) * u128::from(POW10[digits]);
    let q = n >> shift;
    // The bits shifted out, moved to the top: one half is the top bit
    // alone.
    let rest = n << (128 - shift);
    let half = 1 << 127;
    let q = if rest > half || (rest == half && q & 1 == 1) {
        q + 1
    } else {
        q
    };
    u64::try_from(q).ok()
}

/// The one cell writer of both sweep documents. Cells go into a stack
/// buffer, which moves into the document in one `push_str` when the
/// next cell does not fit and when the writer is dropped: one call per
/// few dozen rows. A text cell longer than the whole buffer goes
/// straight into the document, so no label or tally is ever cut. Every
/// cell is byte-equal to what `core::fmt` writes for it.
struct Cells<'a> {
    out: &'a mut String,
    buf: [u8; CELLS_CAP],
    len: usize,
}

impl Drop for Cells<'_> {
    fn drop(&mut self) {
        self.flush();
    }
}

impl<'a> Cells<'a> {
    fn new(out: &'a mut String) -> Cells<'a> {
        Cells {
            out,
            buf: [0; CELLS_CAP],
            len: 0,
        }
    }

    /// Moves the buffered cells into the document.
    fn flush(&mut self) {
        let cells = std::str::from_utf8(&self.buf[..self.len]).expect("cells are whole strings");
        self.out.push_str(cells);
        self.len = 0;
    }

    /// Bytes of the document, buffered cells included.
    fn written(&self) -> usize {
        self.out.len() + self.len
    }

    /// The document as one shared string. Written into an empty
    /// document that nothing was flushed into, it is copied straight
    /// from the buffer: one allocation.
    fn into_shared(mut self) -> Arc<str> {
        if !self.out.is_empty() {
            self.flush();
            return Arc::from(self.out.as_str());
        }
        let cells = std::str::from_utf8(&self.buf[..self.len]).expect("cells are whole strings");
        let shared = Arc::from(cells);
        self.len = 0;
        shared
    }

    /// The free end of the buffer, at least [`CELL_MAX`] bytes long.
    #[inline(always)]
    fn tail(&mut self) -> &mut [u8] {
        if CELLS_CAP - self.len < CELL_MAX {
            self.flush();
        }
        &mut self.buf[self.len..]
    }

    /// A text cell, as is.
    #[inline(always)]
    fn str(&mut self, s: &str) {
        if s.len() > CELLS_CAP - self.len {
            self.flush();
            if s.len() > CELLS_CAP {
                self.out.push_str(s);
                return;
            }
        }
        self.buf[self.len..self.len + s.len()].copy_from_slice(s.as_bytes());
        self.len += s.len();
    }

    /// `n` as `{}` writes it.
    #[inline(always)]
    fn u64(&mut self, n: u64) {
        let len = put_u64(self.tail(), n);
        self.len += len;
    }

    /// `n` as `{}` writes it.
    #[inline(always)]
    fn i64(&mut self, n: i64) {
        let len = put_i64(self.tail(), n);
        self.len += len;
    }

    /// `n` as `{:#018x}` writes it.
    #[inline(always)]
    fn hex(&mut self, n: u64) {
        let len = put_hex(self.tail(), n);
        self.len += len;
    }

    /// `v` as `{:.digits$}` writes it (see [`push_fixed`]).
    #[inline(always)]
    fn fixed(&mut self, v: f64, digits: usize) {
        match put_fixed(self.tail(), v, digits) {
            Some(len) => self.len += len,
            None => {
                self.flush();
                let _ = write!(self.out, "{v:.digits$}");
            }
        }
    }

    /// `counts` as its `Display` writes it: `name=value` pairs separated
    /// by single spaces.
    fn counts(&mut self, counts: &Counts) {
        for (k, (name, v)) in counts.iter().enumerate() {
            if k > 0 {
                self.str(" ");
            }
            self.str(name);
            self.str("=");
            self.u64(v);
        }
    }
}

/// Writes the Markdown row of `sc` after its index and seed (see
/// [`RowTail`]): the one writer of these cells, for a row with a tail
/// and without.
#[inline(always)]
fn markdown_tail(cells: &mut Cells<'_>, sc: &ScenarioOutcome) {
    cells.str(" | ");
    cells.str(&sc.label);
    cells.str(" | ");
    cells.fixed(sc.cost, 6);
    cells.str(" | ");
    cells.fixed(sc.cost_ratio, 6);
    cells.str(" | ");
    cells.i64(sc.makespan_ns);
    cells.str(" | ");
    cells.i64(sc.worst_actuation_ns);
    cells.str(" | ");
    cells.u64(sc.overruns as u64);
    cells.str(" |\n");
}

/// Writes the JSON row of `sc` after its index and seed, up to its
/// closing brace (see [`RowTail`]): the one writer of these cells, for
/// a row with a tail and without.
#[inline(always)]
fn json_tail(cells: &mut Cells<'_>, sc: &ScenarioOutcome) {
    cells.str(", \"label\": \"");
    cells.str(&sc.label);
    cells.str("\", \"cost\": ");
    cells.fixed(sc.cost, 9);
    cells.str(", \"cost_ratio\": ");
    cells.fixed(sc.cost_ratio, 9);
    cells.str(", \"makespan_ns\": ");
    cells.i64(sc.makespan_ns);
    cells.str(", \"worst_actuation_ns\": ");
    cells.i64(sc.worst_actuation_ns);
    cells.str(", \"overruns\": ");
    cells.u64(sc.overruns as u64);
}

/// Bytes a [`SweepSummary::render`] scenario row takes beyond its label:
/// the cells of a typical row (about 80 bytes), rounded up.
const RENDER_ROW_BYTES: usize = 88;

/// Bytes a [`SweepSummary::to_json`] scenario row takes beyond its label
/// (about 180 bytes), rounded up.
const JSON_ROW_BYTES: usize = 192;

/// Bytes a [`SweepSummary::render`] degradation row takes beyond its
/// injected tally (about 70 bytes), rounded up.
const RENDER_DEGRADATION_ROW_BYTES: usize = 80;

/// Bytes a [`SweepSummary::to_json`] degradation row takes beyond its
/// injected tally (about 220 bytes), rounded up.
const JSON_DEGRADATION_ROW_BYTES: usize = 240;

/// Bytes of either renderer's headers and aggregate sections.
const SECTIONS_BYTES: usize = 1024;

/// The 0-based position of the `q`-quantile of `n` ascending values by
/// the nearest-rank method; `None` when `n == 0`.
fn nearest_rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    // Nearest rank is ⌈q·n⌉, but the product must be snapped to the
    // grid first: 0.95 · 20 evaluates to 19.000000000000004 in f64,
    // whose raw ceil lands on rank 20 instead of 19.
    let pos = q * n as f64;
    let rank = if pos <= pos.floor() + 1e-9 {
        pos.floor()
    } else {
        pos.ceil()
    } as usize;
    Some(rank.clamp(1, n) - 1)
}

/// The nearest-rank `qs`-quantiles of `ratios`, for ascending `qs`, by
/// selection: each quantile is selected among the values at or above
/// the previous one, so `ratios` is reordered but never fully sorted.
fn quantiles<const N: usize>(ratios: &mut [f64], qs: [f64; N]) -> [Option<f64>; N] {
    let mut lo = 0;
    qs.map(|q| {
        let k = nearest_rank(ratios.len(), q)?;
        let (_, v, _) = ratios[lo..].select_nth_unstable_by(k - lo, |a, b| {
            a.partial_cmp(b).expect("cost ratios are finite")
        });
        lo = k;
        Some(*v)
    })
}

/// What the renderers read off a summary's rows, gathered in one pass.
struct Scan<'a> {
    /// Scenarios within the cost-ratio bound.
    met: usize,
    /// The lowest-index scenario of the largest cost ratio.
    worst: Option<&'a ScenarioOutcome>,
    /// Bytes of every label.
    label_bytes: usize,
    /// Degradation rows whose loop survived.
    survived: usize,
    /// Bytes of every rendered injected tally.
    injected_bytes: usize,
}

impl Scan<'_> {
    /// A byte budget for one document: `row_bytes` per scenario row
    /// beyond its label and `degradation_row_bytes` per degradation row
    /// beyond its tally, plus every label and tally, so the document is
    /// written without growing.
    fn budget(
        &self,
        sweep: &SweepSummary,
        row_bytes: usize,
        degradation_row_bytes: usize,
    ) -> usize {
        SECTIONS_BYTES
            + self.label_bytes
            + sweep.scenarios.len() * row_bytes
            + self.injected_bytes
            + sweep.degradations.len() * degradation_row_bytes
    }
}

/// `part / whole`, or 0 for an empty whole.
fn fraction(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The sweep-level report: per-scenario rows plus robustness statistics.
///
/// Rendering is deliberately free of wall-clock content — two sweeps over
/// the same scenarios produce identical bytes, which is what the
/// determinism check of experiment E11-MC diffs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SweepSummary {
    /// Per-scenario outcomes, ordered by scenario index.
    pub scenarios: Vec<ScenarioOutcome>,
    /// A scenario is *robust* when `cost_ratio <= cost_bound_ratio`.
    pub cost_bound_ratio: f64,
    /// Adequation-cache lookups answered from the cache.
    pub cache_hits: u64,
    /// Adequation-cache lookups that ran the scheduler.
    pub cache_misses: u64,
    /// Fault-degradation rows, ordered by scenario index; empty for a
    /// fault-free sweep, in which case neither renderer emits the
    /// degradation section (keeping fault-free output byte-identical to
    /// pre-fault sweeps).
    pub degradations: Vec<DegradationSummary>,
    /// Executive cross-validation aggregate; `None` when the sweep did
    /// not self-validate, in which case neither renderer emits the
    /// section (keeping earlier artifacts byte-identical).
    pub validation: Option<ValidationSummary>,
    /// Static-verification aggregate; `None` when the sweep did not run
    /// the verifier, in which case neither renderer emits the section
    /// (keeping earlier artifacts byte-identical).
    pub verification: Option<VerificationSummary>,
    /// Static fault-envelope pruning aggregate; `None` when the sweep
    /// did not prune, in which case neither renderer emits the section
    /// (keeping earlier artifacts byte-identical).
    pub prune: Option<PruneSummary>,
}

impl SweepSummary {
    /// Fraction of scenarios whose cost stayed within the bound
    /// (`cost_ratio <= cost_bound_ratio`); 0 for an empty sweep.
    pub fn robustness_margin(&self) -> f64 {
        fraction(self.scan(None).met, self.scenarios.len())
    }

    /// The scenario with the largest cost ratio (`None` for an empty
    /// sweep). Ties resolve to the lowest index, keeping the answer
    /// independent of worker count.
    pub fn worst(&self) -> Option<&ScenarioOutcome> {
        self.scan(None).worst
    }

    /// The `q`-quantile (`0 <= q <= 1`) of the cost ratios across
    /// scenarios, by the nearest-rank method; `None` for an empty sweep.
    /// `q = 0` returns the minimum, `q = 1` the maximum, and a
    /// single-scenario sweep returns its only element for every `q`.
    pub fn cost_ratio_quantile(&self, q: f64) -> Option<f64> {
        let mut ratios: Vec<f64> = self.scenarios.iter().map(|s| s.cost_ratio).collect();
        let [v] = quantiles(&mut ratios, [q]);
        v
    }

    /// Fraction of faulty scenarios the loop *survived* (verdict other
    /// than [`Diverged`](StabilityVerdict::Diverged)); `None` when the
    /// sweep injected no faults.
    pub fn survivable_fraction(&self) -> Option<f64> {
        if self.degradations.is_empty() {
            return None;
        }
        Some(fraction(self.scan(None).survived, self.degradations.len()))
    }

    /// Bytes to reserve for [`render`](SweepSummary::render) and
    /// [`to_json`](SweepSummary::to_json) written into one string
    /// ([`render_into`](SweepSummary::render_into), then
    /// [`to_json_into`](SweepSummary::to_json_into)), with room for a
    /// few hundred bytes more.
    pub fn documents_capacity(&self) -> usize {
        let scan = self.scan(None);
        scan.budget(self, RENDER_ROW_BYTES, RENDER_DEGRADATION_ROW_BYTES)
            + scan.budget(self, JSON_ROW_BYTES, JSON_DEGRADATION_ROW_BYTES)
    }

    /// One pass over the rows for every aggregate the renderers write,
    /// copying each cost ratio into `ratios` when given.
    fn scan(&self, mut ratios: Option<&mut Vec<f64>>) -> Scan<'_> {
        let mut scan = Scan {
            met: 0,
            worst: None,
            label_bytes: 0,
            survived: 0,
            injected_bytes: 0,
        };
        for s in &self.scenarios {
            scan.met += usize::from(s.cost_ratio <= self.cost_bound_ratio);
            if scan.worst.is_none_or(|w| s.cost_ratio > w.cost_ratio) {
                scan.worst = Some(s);
            }
            scan.label_bytes += s.label.len();
            if let Some(ratios) = ratios.as_deref_mut() {
                ratios.push(s.cost_ratio);
            }
        }
        for d in &self.degradations {
            scan.survived += usize::from(d.verdict != StabilityVerdict::Diverged);
            scan.injected_bytes += d.injected.rendered_len();
        }
        scan
    }

    /// Renders the sweep as a Markdown section (deterministic bytes, no
    /// timestamps).
    pub fn render(&self) -> String {
        let mut s = String::new();
        self.render_into(&mut s);
        s
    }

    /// Appends [`render`](SweepSummary::render)'s document to `out`,
    /// reserving its byte budget first.
    pub fn render_into(&self, out: &mut String) {
        let mut ratios = Vec::with_capacity(self.scenarios.len());
        let scan = self.scan(Some(&mut ratios));
        out.reserve(scan.budget(self, RENDER_ROW_BYTES, RENDER_DEGRADATION_ROW_BYTES));
        out.push_str("## Scenario sweep\n\n");
        let _ = write!(
            out,
            "{} scenarios, robustness margin {:.4} (cost ratio bound {:.3}), \
             schedule cache {} hits / {} misses.\n\n",
            self.scenarios.len(),
            fraction(scan.met, self.scenarios.len()),
            self.cost_bound_ratio,
            self.cache_hits,
            self.cache_misses
        );
        if let Some(w) = scan.worst {
            let _ = writeln!(
                out,
                "Worst scenario: #{} ({}), cost ratio {:.6}.",
                w.index, w.label, w.cost_ratio
            );
        }
        let [p50, p95, p99] = quantiles(&mut ratios, [0.50, 0.95, 0.99]);
        for (name, v) in [("p50", p50), ("p95", p95), ("p99", p99)] {
            if let Some(v) = v {
                let _ = writeln!(out, "Cost ratio {name}: {v:.6}");
            }
        }
        out.push_str(
            "\n| # | seed | scenario | cost | vs ideal | makespan ns | worst La ns | overruns |\n\
             |---|---|---|---|---|---|---|---|\n",
        );
        let mut cells = Cells::new(out);
        for sc in &self.scenarios {
            cells.str("| ");
            cells.u64(sc.index as u64);
            cells.str(" | ");
            cells.hex(sc.seed);
            match &sc.tail {
                Some(tail) => cells.str(tail.parts().0),
                None => markdown_tail(&mut cells, sc),
            }
        }
        if !self.degradations.is_empty() {
            cells.str("\n### Fault degradation\n\n");
            cells.u64(self.degradations.len() as u64);
            cells.str(" faulty scenarios, survivable fraction ");
            cells.fixed(fraction(scan.survived, self.degradations.len()), 4);
            cells.str(
                ".\n\n| # | periods | skipped I | skipped O | overruns | Ls infl ns | \
                 La infl ns | cost ratio | verdict | injected |\n\
                 |---|---|---|---|---|---|---|---|---|---|\n",
            );
            for d in &self.degradations {
                cells.str("| ");
                cells.u64(d.index as u64);
                cells.str(" | ");
                cells.u64(u64::from(d.periods));
                cells.str(" | ");
                cells.u64(d.skipped_samples as u64);
                cells.str(" | ");
                cells.u64(d.skipped_actuations as u64);
                cells.str(" | ");
                cells.u64(d.overruns as u64);
                cells.str(" | ");
                cells.i64(d.ls_inflation_ns);
                cells.str(" | ");
                cells.i64(d.la_inflation_ns);
                cells.str(" | ");
                cells.fixed(d.cost_ratio, 6);
                cells.str(" | ");
                cells.str(d.verdict.as_str());
                cells.str(" | ");
                cells.counts(&d.injected);
                cells.str(" |\n");
            }
        }
        drop(cells);
        if let Some(v) = &self.validation {
            out.push_str("\n### Executive cross-validation\n\n");
            let _ = writeln!(
                out,
                "{} runs validated against the graph of delays: {} exact, \
                 max divergence {} ns.",
                v.validated, v.exact, v.max_divergence_ns
            );
        }
        if let Some(v) = &self.verification {
            out.push_str("\n### Static verification\n\n");
            let _ = writeln!(
                out,
                "{} schedules verified: {} error(s), {} warning(s), worst \
                 bound margin {} ns.",
                v.verified, v.errors, v.warnings, v.worst_margin_ns
            );
        }
        if let Some(p) = &self.prune {
            out.push_str("\n### Static pruning\n\n");
            let _ = writeln!(
                out,
                "{} envelopes evaluated: {} pruned safe, {} pruned unsafe, \
                 {} co-simulated.",
                p.evaluated, p.pruned_safe, p.pruned_unsafe, p.simulated
            );
        }
    }

    /// Renders the sweep as a JSON document (deterministic bytes, no
    /// timestamps; hand-rolled, the workspace has no serialization crate).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.to_json_into(&mut s);
        s
    }

    /// Appends [`to_json`](SweepSummary::to_json)'s document to `out`,
    /// reserving its byte budget first.
    pub fn to_json_into(&self, out: &mut String) {
        let scan = self.scan(None);
        out.reserve(scan.budget(self, JSON_ROW_BYTES, JSON_DEGRADATION_ROW_BYTES));
        out.push_str("{\n");
        let _ = write!(
            out,
            "  \"scenario_count\": {},\n  \"cost_bound_ratio\": {:.6},\n  \
             \"robustness_margin\": {:.6},\n  \"cache_hits\": {},\n  \
             \"cache_misses\": {},\n  \"scenarios\": [\n",
            self.scenarios.len(),
            self.cost_bound_ratio,
            fraction(scan.met, self.scenarios.len()),
            self.cache_hits,
            self.cache_misses
        );
        let mut cells = Cells::new(out);
        let last = self.scenarios.len().saturating_sub(1);
        for (i, sc) in self.scenarios.iter().enumerate() {
            cells.str("    {\"index\": ");
            cells.u64(sc.index as u64);
            cells.str(", \"seed\": ");
            cells.u64(sc.seed);
            match &sc.tail {
                Some(tail) => cells.str(tail.parts().1),
                None => json_tail(&mut cells, sc),
            }
            cells.str(if i == last { "}\n" } else { "},\n" });
        }
        if self.degradations.is_empty() {
            cells.str("  ]");
        } else {
            cells.str("  ],\n  \"survivable_fraction\": ");
            cells.fixed(fraction(scan.survived, self.degradations.len()), 6);
            cells.str(",\n  \"degradations\": [\n");
            let last = self.degradations.len() - 1;
            for (i, d) in self.degradations.iter().enumerate() {
                cells.str("    {\"index\": ");
                cells.u64(d.index as u64);
                cells.str(", \"periods\": ");
                cells.u64(u64::from(d.periods));
                cells.str(", \"skipped_samples\": ");
                cells.u64(d.skipped_samples as u64);
                cells.str(", \"skipped_actuations\": ");
                cells.u64(d.skipped_actuations as u64);
                cells.str(", \"overruns\": ");
                cells.u64(d.overruns as u64);
                cells.str(", \"ls_inflation_ns\": ");
                cells.i64(d.ls_inflation_ns);
                cells.str(", \"la_inflation_ns\": ");
                cells.i64(d.la_inflation_ns);
                cells.str(", \"cost_ratio\": ");
                cells.fixed(d.cost_ratio, 9);
                cells.str(", \"verdict\": \"");
                cells.str(d.verdict.as_str());
                cells.str("\", \"injected\": \"");
                cells.counts(&d.injected);
                cells.str(if i == last { "\"}\n" } else { "\"},\n" });
            }
            cells.str("  ]");
        }
        drop(cells);
        if let Some(v) = &self.validation {
            let _ = write!(
                out,
                ",\n  \"validation\": {{\"validated\": {}, \"exact\": {}, \
                 \"max_divergence_ns\": {}}}",
                v.validated, v.exact, v.max_divergence_ns
            );
        }
        if let Some(v) = &self.verification {
            let _ = write!(
                out,
                ",\n  \"verification\": {{\"verified\": {}, \"errors\": {}, \
                 \"warnings\": {}, \"worst_margin_ns\": {}}}",
                v.verified, v.errors, v.warnings, v.worst_margin_ns
            );
        }
        if let Some(p) = &self.prune {
            let _ = write!(
                out,
                ",\n  \"prune\": {{\"evaluated\": {}, \"pruned_safe\": {}, \
                 \"pruned_unsafe\": {}, \"simulated\": {}}}",
                p.evaluated, p.pruned_safe, p.pruned_unsafe, p.simulated
            );
        }
        out.push_str("\n}\n");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cosim::{self, DisturbanceKind, LoopSpec};
    use crate::lifecycle::{self, LifecycleInputs};
    use crate::translate::{uniform_timing, ControlLawSpec};
    use ecl_aaa::{AdequationOptions, ArchitectureGraph, TimeNs};
    use ecl_control::{c2d_zoh, dlqr, plants};
    use ecl_linalg::Mat;

    fn quick_report() -> (LifecycleReport, AlgorithmGraph, ArchitectureGraph) {
        let plant = plants::dc_motor();
        let law = ControlLawSpec::monolithic("lqr", 2, 1);
        let (alg, io) = law.to_algorithm().unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("ecu0", "arm");
        let p1 = arch.add_processor("ecu1", "arm");
        arch.add_bus(
            "can",
            &[p0, p1],
            TimeNs::from_millis(2),
            TimeNs::from_micros(10),
        )
        .unwrap();
        let mut db = uniform_timing(&alg, &io, TimeNs::from_micros(100), TimeNs::from_millis(5));
        for &s in io.sensors.iter().chain(&io.actuators) {
            db.forbid(s, p1);
        }
        db.forbid(io.stages[0], p0);
        let inputs = LifecycleInputs {
            plant: plant.sys,
            n_controls: 1,
            x0: vec![1.0, 0.0],
            ts: plant.ts,
            horizon: 0.6,
            lqr_q: Mat::identity(2),
            lqr_r: Mat::diag(&[0.1]),
            q_weight: 1.0,
            r_weight: 0.1,
            law,
            arch: arch.clone(),
            db,
            adequation: AdequationOptions::default(),
            disturbance: DisturbanceKind::None,
        };
        (lifecycle::run(&inputs).unwrap(), alg, arch)
    }

    #[test]
    fn markdown_contains_all_sections() {
        let (rep, alg, arch) = quick_report();
        let md = to_markdown(&rep, &alg, &arch);
        for heading in [
            "# Design-lifecycle report",
            "## Control performance",
            "## Latencies",
            "## Observability",
            "## Static schedule",
            "## Generated executives",
        ] {
            assert!(md.contains(heading), "missing {heading}");
        }
        assert!(md.contains("deadlock-free: true"));
        // Observability section: latency percentile rows for every I/O,
        // busiest blocks, engine counters, and the schedule Gantt.
        for needle in [
            "| Ls[0] |",
            "| Ls[1] |",
            "| La[0] |",
            "Busiest blocks",
            "Engine counters:",
            "gantt over",
        ] {
            assert!(md.contains(needle), "missing {needle}");
        }
        // The delay-graph synchronization blocks dominate event traffic.
        assert!(md.contains("| sync_"), "busiest-block table empty");
    }

    fn sample_sweep() -> SweepSummary {
        let mk = |index: usize, cost_ratio: f64| ScenarioOutcome {
            index,
            seed: 0x1000 + index as u64,
            label: format!("jitter {index}").into(),
            cost: cost_ratio * 2.0,
            cost_ratio,
            makespan_ns: 5_000_000 + index as i64,
            worst_actuation_ns: 7_000_000,
            overruns: index % 2,
            tail: None,
        };
        SweepSummary {
            scenarios: vec![mk(0, 1.01), mk(1, 1.40), mk(2, 1.05), mk(3, 1.02)],
            cost_bound_ratio: 1.10,
            cache_hits: 3,
            cache_misses: 1,
            degradations: vec![],
            validation: None,
            verification: None,
            prune: None,
        }
    }

    #[test]
    fn sweep_summary_statistics() {
        let sweep = sample_sweep();
        assert!((sweep.robustness_margin() - 0.75).abs() < 1e-12);
        assert_eq!(sweep.worst().unwrap().index, 1);
        assert_eq!(sweep.cost_ratio_quantile(0.5), Some(1.02));
        assert_eq!(sweep.cost_ratio_quantile(1.0), Some(1.40));
        let empty = SweepSummary {
            scenarios: vec![],
            cost_bound_ratio: 1.0,
            cache_hits: 0,
            cache_misses: 0,
            degradations: vec![],
            validation: None,
            verification: None,
            prune: None,
        };
        assert_eq!(empty.robustness_margin(), 0.0);
        assert!(empty.worst().is_none());
        assert!(empty.cost_ratio_quantile(0.5).is_none());
        assert!(empty.survivable_fraction().is_none());
    }

    fn sweep_with_ratios(ratios: &[f64]) -> SweepSummary {
        SweepSummary {
            scenarios: ratios
                .iter()
                .enumerate()
                .map(|(index, &cost_ratio)| ScenarioOutcome {
                    index,
                    seed: index as u64,
                    label: "".into(),
                    cost: cost_ratio,
                    cost_ratio,
                    makespan_ns: 0,
                    worst_actuation_ns: 0,
                    overruns: 0,
                    tail: None,
                })
                .collect(),
            cost_bound_ratio: 1.10,
            cache_hits: 0,
            cache_misses: 0,
            degradations: vec![],
            validation: None,
            verification: None,
            prune: None,
        }
    }

    #[test]
    fn quantile_boundaries_return_min_max_and_only_element() {
        let sweep = sweep_with_ratios(&[1.40, 1.01, 1.05, 1.02]);
        // q = 0 clamps to rank 1 (minimum); q = 1 is rank n (maximum).
        assert_eq!(sweep.cost_ratio_quantile(0.0), Some(1.01));
        assert_eq!(sweep.cost_ratio_quantile(1.0), Some(1.40));
        let single = sweep_with_ratios(&[1.23]);
        for q in [0.0, 0.25, 0.5, 0.95, 1.0] {
            assert_eq!(single.cost_ratio_quantile(q), Some(1.23), "q={q}");
        }
    }

    #[test]
    fn quantile_nearest_rank_survives_float_dust() {
        // 0.95 · 20 = 19.000000000000004 in f64; a raw ceil picks rank 20
        // (the maximum) instead of the correct rank 19.
        let ratios: Vec<f64> = (1..=20).map(|i| 1.0 + i as f64 / 100.0).collect();
        let sweep = sweep_with_ratios(&ratios);
        assert_eq!(sweep.cost_ratio_quantile(0.95), Some(1.19));
        // Exact products keep the usual nearest-rank answers.
        assert_eq!(sweep.cost_ratio_quantile(0.50), Some(1.10));
        assert_eq!(sweep.cost_ratio_quantile(0.05), Some(1.01));
        // A genuinely fractional product still rounds up: 0.51·20 = 10.2.
        assert_eq!(sweep.cost_ratio_quantile(0.51), Some(1.11));
    }

    #[test]
    fn degradation_section_renders_only_when_present() {
        let plain = sample_sweep();
        assert!(!plain.render().contains("Fault degradation"));
        assert!(!plain.to_json().contains("degradations"));
        let mut faulty = sample_sweep();
        let mut injected = Counts::new();
        injected.add("frames_lost", 3);
        injected.add("retransmissions", 2);
        faulty.degradations.push(DegradationSummary {
            index: 1,
            periods: 120,
            injected,
            skipped_samples: 2,
            skipped_actuations: 1,
            overruns: 4,
            ls_inflation_ns: 150_000,
            la_inflation_ns: 480_000,
            cost_ratio: 1.21,
            verdict: StabilityVerdict::Degraded,
        });
        assert_eq!(faulty.survivable_fraction(), Some(1.0));
        let md = faulty.render();
        assert!(md.contains("### Fault degradation"));
        assert!(md.contains("1 faulty scenarios, survivable fraction 1.0000"));
        assert!(md.contains("frames_lost=3 retransmissions=2"));
        assert!(md.contains("| degraded |"));
        // The extra section is purely additive: the fault-free rendering
        // is a byte-exact prefix, preserving old artifacts.
        assert!(md.starts_with(&plain.render()));
        let json = faulty.to_json();
        assert!(json.contains("\"survivable_fraction\": 1.000000"));
        assert!(json.contains("\"verdict\": \"degraded\""));
        assert!(json.ends_with("  ]\n}\n"));
    }

    #[test]
    fn validation_section_renders_only_when_present() {
        let plain = sample_sweep();
        assert!(!plain.render().contains("Executive cross-validation"));
        assert!(!plain.to_json().contains("\"validation\""));
        let mut validated = sample_sweep();
        validated.validation = Some(ValidationSummary {
            validated: 8,
            exact: 8,
            max_divergence_ns: 0,
        });
        let md = validated.render();
        assert!(md.contains("### Executive cross-validation"));
        assert!(md.contains("8 runs validated against the graph of delays: 8 exact"));
        // Purely additive: the unvalidated rendering is a byte-exact
        // prefix, preserving old artifacts.
        assert!(md.starts_with(&plain.render()));
        let json = validated.to_json();
        assert!(json.contains(
            "\"validation\": {\"validated\": 8, \"exact\": 8, \"max_divergence_ns\": 0}"
        ));
        assert!(json.ends_with("}\n}\n"));
        assert!(json.starts_with(json_common_prefix(&plain.to_json())));
        // ...and it composes with the degradation section: validation
        // follows the degradations array.
        let mut both = validated.clone();
        let mut injected = Counts::new();
        injected.add("frames_lost", 1);
        both.degradations.push(DegradationSummary {
            index: 0,
            periods: 10,
            injected,
            skipped_samples: 0,
            skipped_actuations: 0,
            overruns: 0,
            ls_inflation_ns: 0,
            la_inflation_ns: 0,
            cost_ratio: 1.0,
            verdict: StabilityVerdict::Stable,
        });
        let md = both.render();
        assert!(
            md.find("Fault degradation").unwrap() < md.find("Executive cross-validation").unwrap()
        );
        assert!(both.to_json().ends_with("}\n}\n"));
    }

    /// The fault-free JSON minus its closing `\n}\n`, i.e. the prefix an
    /// additive section must preserve.
    fn json_common_prefix(json: &str) -> &str {
        json.strip_suffix("\n}\n").unwrap()
    }

    #[test]
    fn verification_section_renders_only_when_present() {
        let plain = sample_sweep();
        assert!(!plain.render().contains("Static verification"));
        assert!(!plain.to_json().contains("\"verification\""));
        let mut verified = sample_sweep();
        verified.verification = Some(VerificationSummary {
            verified: 8,
            errors: 0,
            warnings: 3,
            worst_margin_ns: 120_500,
        });
        let md = verified.render();
        assert!(md.contains("### Static verification"));
        assert!(md.contains("8 schedules verified: 0 error(s), 3 warning(s)"));
        assert!(md.contains("worst bound margin 120500 ns"));
        // Purely additive: the unverified rendering is a byte-exact
        // prefix, preserving old artifacts.
        assert!(md.starts_with(&plain.render()));
        let json = verified.to_json();
        assert!(json.contains(
            "\"verification\": {\"verified\": 8, \"errors\": 0, \"warnings\": 3, \
             \"worst_margin_ns\": 120500}"
        ));
        assert!(json.starts_with(json_common_prefix(&plain.to_json())));
        assert!(json.ends_with("}\n}\n"));
        // ...and it composes: verification renders after validation.
        let mut both = verified.clone();
        both.validation = Some(ValidationSummary {
            validated: 8,
            exact: 8,
            max_divergence_ns: 0,
        });
        let md = both.render();
        assert!(
            md.find("Executive cross-validation").unwrap()
                < md.find("Static verification").unwrap()
        );
        let json = both.to_json();
        assert!(json.find("\"validation\"").unwrap() < json.find("\"verification\"").unwrap());
        assert!(json.ends_with("}\n}\n"));
    }

    #[test]
    fn prune_section_renders_only_when_present() {
        let plain = sample_sweep();
        assert!(!plain.render().contains("Static pruning"));
        assert!(!plain.to_json().contains("\"prune\""));
        let mut pruned = sample_sweep();
        pruned.prune = Some(PruneSummary {
            evaluated: 8,
            pruned_safe: 3,
            pruned_unsafe: 1,
            simulated: 4,
        });
        let md = pruned.render();
        assert!(md.contains("### Static pruning"));
        assert!(
            md.contains("8 envelopes evaluated: 3 pruned safe, 1 pruned unsafe, 4 co-simulated")
        );
        // Purely additive: the unpruned rendering is a byte-exact prefix.
        assert!(md.starts_with(&plain.render()));
        let json = pruned.to_json();
        assert!(json.contains(
            "\"prune\": {\"evaluated\": 8, \"pruned_safe\": 3, \
             \"pruned_unsafe\": 1, \"simulated\": 4}"
        ));
        assert!(json.starts_with(json_common_prefix(&plain.to_json())));
        assert!(json.ends_with("}\n}\n"));
        // ...and it composes: pruning renders after verification.
        let mut both = pruned.clone();
        both.verification = Some(VerificationSummary {
            verified: 4,
            errors: 0,
            warnings: 0,
            worst_margin_ns: 10,
        });
        let md = both.render();
        assert!(md.find("Static verification").unwrap() < md.find("Static pruning").unwrap());
        let json = both.to_json();
        assert!(json.find("\"verification\"").unwrap() < json.find("\"prune\"").unwrap());
    }

    #[test]
    fn sweep_rendering_is_deterministic_and_complete() {
        let sweep = sample_sweep();
        let md = sweep.render();
        assert_eq!(md, sweep.render());
        assert!(md.contains("## Scenario sweep"));
        assert!(md.contains("4 scenarios, robustness margin 0.7500"));
        assert!(md.contains("Worst scenario: #1 (jitter 1)"));
        assert!(md.contains("3 hits / 1 misses"));
        assert_eq!(md.matches("| 0x").count(), 4, "one row per scenario");
        let json = sweep.to_json();
        assert_eq!(json, sweep.to_json());
        assert!(json.contains("\"scenario_count\": 4"));
        assert!(json.contains("\"robustness_margin\": 0.750000"));
        assert!(json.ends_with("]\n}\n"));
    }

    /// Every precision the reports write.
    const REPORT_DIGITS: [usize; 5] = [2, 3, 4, 6, 9];

    /// What the cell writer appends after `prefix` bytes already sit in
    /// its buffer, so a cell can land on either side of a flush.
    fn cell(prefix: usize, write: impl FnOnce(&mut Cells<'_>)) -> String {
        let mut out = String::new();
        let mut cells = Cells::new(&mut out);
        cells.str(&"#".repeat(prefix));
        write(&mut cells);
        drop(cells);
        out.split_off(prefix)
    }

    fn fixed(v: f64, digits: usize) -> String {
        let mut s = String::new();
        push_fixed(&mut s, v, digits);
        s
    }

    fn assert_matches_fmt(v: f64, digits: usize) {
        let want = format!("{v:.digits$}");
        let what = || format!("{v:e} ({:#018x}) at {digits} digits", v.to_bits());
        assert_eq!(fixed(v, digits), want, "{}", what());
        for prefix in [0, CELLS_CAP - CELL_MAX, CELLS_CAP - 3] {
            assert_eq!(cell(prefix, |c| c.fixed(v, digits)), want, "{}", what());
        }
    }

    #[test]
    fn push_fixed_matches_core_fmt_on_random_values() {
        let mut rng = ecl_sim::SplitMix64::new(0x5eed_f1ed);
        for _ in 0..200_000 {
            let v = f64::from_bits(rng.next_u64());
            assert_matches_fmt(v, REPORT_DIGITS[rng.below(REPORT_DIGITS.len())]);
        }
        for _ in 0..20_000 {
            let v = (rng.next_f64() * 2.0 - 1.0) * 1e4;
            for d in REPORT_DIGITS {
                assert_matches_fmt(v, d);
            }
        }
        // Raw bit patterns are mostly huge or tiny; a 53-bit mantissa
        // scaled by 2^-92 to 2^-13 exercises the rounding arithmetic, and
        // an odd multiple of 2^-(d+1) is an exact tie at d digits.
        for _ in 0..20_000 {
            let m = rng.next_u64() >> 11;
            let e = rng.below(80) as i32 - 92;
            for d in 0..=9 {
                assert_matches_fmt(m as f64 * 2f64.powi(e), d);
            }
            let d = rng.below(10);
            let odd = ((rng.next_u64() >> 24) | 1) as f64;
            assert_matches_fmt(odd * 2f64.powi(-(d as i32 + 1)), d);
            assert_matches_fmt(-odd * 2f64.powi(-(d as i32 + 1)), d);
        }
        // Subnormals, and values of 2^52 and up (the `core::fmt` path).
        for _ in 0..20_000 {
            let sub = f64::from_bits(rng.next_u64() >> 12);
            let big = (rng.next_u64() >> 11) as f64 * 2f64.powi(rng.below(200) as i32);
            for d in REPORT_DIGITS {
                assert_matches_fmt(sub, d);
                assert_matches_fmt(-sub, d);
                assert_matches_fmt(big.max(4_503_599_627_370_496.0), d);
            }
        }
    }

    #[test]
    fn push_fixed_matches_core_fmt_on_edges() {
        let edges = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE,
            -1e-9,
            0.0078125,
            0.0234375,
            0.125,
            0.005,
            0.0005,
            0.00005,
            0.5e-6,
            0.5e-9,
            9.9999995,
            0.9995,
            0.5,
            1.5,
            2.5,
            99.995,
            1.8e10,
            1.9e10,
            -1.9e10,
            18_446_744_073.709_553,
            4_503_599_627_370_495.5,
            4_503_599_627_370_496.0,
            9_007_199_254_740_993.0,
            18_446_744_073_709_551_616.0,
            -18_446_744_073_709_551_616.0,
            1e300,
            f64::MAX,
            f64::MIN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for v in edges {
            for d in 0..=12 {
                assert_matches_fmt(v, d);
            }
        }
        // Ties round half to even on the exact binary value.
        assert_eq!(fixed(0.0078125, 6), "0.007812");
        assert_eq!(fixed(0.0234375, 6), "0.023438");
        assert_eq!(fixed(0.125, 2), "0.12");
        // Carries roll into the integer part; signs survive rounding to 0.
        assert_eq!(fixed(0.9995, 3), "1.000");
        assert_eq!(fixed(-0.0, 6), "-0.000000");
        assert_eq!(fixed(-1e-9, 6), "-0.000000");
        // 1.8e10 · 10^9 fits in a u64, 1.9e10 · 10^9 does not.
        assert!(scaled_fixed(1.8e10, 9).is_some());
        assert!(scaled_fixed(1.9e10, 9).is_none());
        assert!(scaled_fixed(1e300, 2).is_none());
        assert!(scaled_fixed(f64::NAN, 2).is_none());
    }

    #[test]
    fn integer_writers_match_core_fmt() {
        let mut rng = ecl_sim::SplitMix64::new(7);
        let draws: Vec<u64> = (0..5_000)
            .map(|_| rng.next_u64() >> rng.below(64))
            .collect();
        let powers = (0..20).flat_map(|k| {
            let p = 10u64.pow(k);
            [p - 1, p, p + 1]
        });
        let edges = [0, 1, 9, 10, 99, 100, u64::MAX, i64::MAX as u64, 1 << 63];
        for n in edges.into_iter().chain(powers).chain(draws) {
            for prefix in [0, CELLS_CAP - CELL_MAX, CELLS_CAP - 1] {
                assert_eq!(cell(prefix, |c| c.u64(n)), n.to_string());
                assert_eq!(cell(prefix, |c| c.hex(n)), format!("{n:#018x}"));
                let signed = n as i64;
                assert_eq!(cell(prefix, |c| c.i64(signed)), signed.to_string());
                let negated = signed.wrapping_neg();
                assert_eq!(cell(prefix, |c| c.i64(negated)), negated.to_string());
            }
        }
        for n in [i64::MIN, i64::MIN + 1, i64::MAX, -1, -10, -99, -100] {
            assert_eq!(cell(0, |c| c.i64(n)), n.to_string());
        }
        let mut counts = Counts::new();
        for (name, n) in [
            ("retries", 10),
            ("frames_lost", 0),
            ("retries", 1),
            ("z", u64::MAX),
        ] {
            assert_eq!(cell(0, |c| c.counts(&counts)), counts.to_string());
            counts.add(name, n);
        }
        assert_eq!(
            cell(0, |c| c.counts(&counts)),
            "frames_lost=0 retries=11 z=18446744073709551615"
        );
    }

    /// Text and tallies of any length pass through whole, multi-byte
    /// characters included, wherever the row buffer flushes.
    #[test]
    fn cells_never_cut_long_text() {
        let mut counts = Counts::new();
        for k in 0..1_000u64 {
            counts.add(&format!("fault_class_{k}"), k * 1_000_003);
        }
        assert!(counts.rendered_len() > 4 * CELLS_CAP);
        for len in [0, 1, CELLS_CAP - 1, CELLS_CAP, CELLS_CAP + 1, 3 * CELLS_CAP] {
            let text: String = "é→a".chars().cycle().take(len).collect();
            for prefix in [0, 7, CELLS_CAP - 1] {
                let got = cell(prefix, |c| {
                    c.str(&text);
                    c.u64(42);
                    c.counts(&counts);
                    c.str(&text);
                });
                assert_eq!(
                    got,
                    format!("{text}42{counts}{text}"),
                    "{len} after {prefix}"
                );
            }
        }
    }

    /// The Markdown document as `core::fmt` writes it: the reference the
    /// cell writer must reproduce byte for byte.
    fn reference_render(s: &SweepSummary) -> String {
        let n = s.scenarios.len();
        let met = s
            .scenarios
            .iter()
            .filter(|x| x.cost_ratio <= s.cost_bound_ratio)
            .count();
        let mut out = format!(
            "## Scenario sweep\n\n{n} scenarios, robustness margin {:.4} (cost ratio bound \
             {:.3}), schedule cache {} hits / {} misses.\n\n",
            if n == 0 { 0.0 } else { met as f64 / n as f64 },
            s.cost_bound_ratio,
            s.cache_hits,
            s.cache_misses
        );
        let worst = s
            .scenarios
            .iter()
            .reduce(|w, x| if x.cost_ratio > w.cost_ratio { x } else { w });
        if let Some(w) = worst {
            out += &format!(
                "Worst scenario: #{} ({}), cost ratio {:.6}.\n",
                w.index, w.label, w.cost_ratio
            );
        }
        let mut sorted: Vec<f64> = s.scenarios.iter().map(|x| x.cost_ratio).collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (name, q) in [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)] {
            if let Some(k) = nearest_rank(n, q) {
                out += &format!("Cost ratio {name}: {:.6}\n", sorted[k]);
            }
        }
        out +=
            "\n| # | seed | scenario | cost | vs ideal | makespan ns | worst La ns | overruns |\n\
                |---|---|---|---|---|---|---|---|\n";
        for x in &s.scenarios {
            out += &format!(
                "| {} | {:#018x} | {} | {:.6} | {:.6} | {} | {} | {} |\n",
                x.index,
                x.seed,
                x.label,
                x.cost,
                x.cost_ratio,
                x.makespan_ns,
                x.worst_actuation_ns,
                x.overruns
            );
        }
        if !s.degradations.is_empty() {
            let survived = s
                .degradations
                .iter()
                .filter(|d| d.verdict != StabilityVerdict::Diverged)
                .count();
            out += &format!(
                "\n### Fault degradation\n\n{} faulty scenarios, survivable fraction {:.4}.\n\n\
                 | # | periods | skipped I | skipped O | overruns | Ls infl ns | La infl ns | \
                 cost ratio | verdict | injected |\n|---|---|---|---|---|---|---|---|---|---|\n",
                s.degradations.len(),
                survived as f64 / s.degradations.len() as f64
            );
            for d in &s.degradations {
                out += &format!(
                    "| {} | {} | {} | {} | {} | {} | {} | {:.6} | {} | {} |\n",
                    d.index,
                    d.periods,
                    d.skipped_samples,
                    d.skipped_actuations,
                    d.overruns,
                    d.ls_inflation_ns,
                    d.la_inflation_ns,
                    d.cost_ratio,
                    d.verdict.as_str(),
                    d.injected
                );
            }
        }
        out
    }

    /// The JSON document as `core::fmt` writes it.
    fn reference_json(s: &SweepSummary) -> String {
        let n = s.scenarios.len();
        let met = s
            .scenarios
            .iter()
            .filter(|x| x.cost_ratio <= s.cost_bound_ratio)
            .count();
        let mut out = format!(
            "{{\n  \"scenario_count\": {n},\n  \"cost_bound_ratio\": {:.6},\n  \
             \"robustness_margin\": {:.6},\n  \"cache_hits\": {},\n  \
             \"cache_misses\": {},\n  \"scenarios\": [\n",
            s.cost_bound_ratio,
            if n == 0 { 0.0 } else { met as f64 / n as f64 },
            s.cache_hits,
            s.cache_misses
        );
        let rows: Vec<String> = s
            .scenarios
            .iter()
            .map(|x| {
                format!(
                    "    {{\"index\": {}, \"seed\": {}, \"label\": \"{}\", \"cost\": {:.9}, \
                     \"cost_ratio\": {:.9}, \"makespan_ns\": {}, \"worst_actuation_ns\": {}, \
                     \"overruns\": {}}}",
                    x.index,
                    x.seed,
                    x.label,
                    x.cost,
                    x.cost_ratio,
                    x.makespan_ns,
                    x.worst_actuation_ns,
                    x.overruns
                )
            })
            .collect();
        if !rows.is_empty() {
            out += &rows.join(",\n");
            out += "\n";
        }
        out += "  ]";
        if !s.degradations.is_empty() {
            let survived = s
                .degradations
                .iter()
                .filter(|d| d.verdict != StabilityVerdict::Diverged)
                .count();
            out += &format!(
                ",\n  \"survivable_fraction\": {:.6},\n  \"degradations\": [\n",
                survived as f64 / s.degradations.len() as f64
            );
            let rows: Vec<String> = s
                .degradations
                .iter()
                .map(|d| {
                    format!(
                        "    {{\"index\": {}, \"periods\": {}, \"skipped_samples\": {}, \
                         \"skipped_actuations\": {}, \"overruns\": {}, \"ls_inflation_ns\": {}, \
                         \"la_inflation_ns\": {}, \"cost_ratio\": {:.9}, \"verdict\": \"{}\", \
                         \"injected\": \"{}\"}}",
                        d.index,
                        d.periods,
                        d.skipped_samples,
                        d.skipped_actuations,
                        d.overruns,
                        d.ls_inflation_ns,
                        d.la_inflation_ns,
                        d.cost_ratio,
                        d.verdict.as_str(),
                        d.injected
                    )
                })
                .collect();
            out += &rows.join(",\n");
            out += "\n  ]";
        }
        out += "\n}\n";
        out
    }

    /// A random summary: labels from empty to longer than the row
    /// buffer, multi-byte characters, extreme integers, special floats
    /// (cost ratios stay comparable) and tallies of any size.
    fn random_summary(rng: &mut ecl_sim::SplitMix64, rows: usize) -> SweepSummary {
        let float = |rng: &mut ecl_sim::SplitMix64| match rng.below(8) {
            0 => f64::from_bits(rng.next_u64()),
            1 => [0.0, -0.0, f64::INFINITY, 0.0078125, 1e300][rng.below(5)],
            _ => rng.next_f64() * 3.0,
        };
        let ratio = |rng: &mut ecl_sim::SplitMix64| {
            let v = float(rng);
            if v.is_nan() {
                1.0
            } else {
                v
            }
        };
        let int = |rng: &mut ecl_sim::SplitMix64| rng.next_u64() >> rng.below(64);
        let scenarios = (0..rows)
            .map(|index| {
                let len = [0, 3, 40, 700][rng.below(4)];
                let label: String = "wcet<=x1.2 ✓".chars().cycle().take(len).collect();
                ScenarioOutcome {
                    index,
                    seed: rng.next_u64(),
                    label: label.into(),
                    cost: float(rng),
                    cost_ratio: ratio(rng),
                    makespan_ns: int(rng) as i64,
                    worst_actuation_ns: int(rng) as i64,
                    overruns: int(rng) as usize,
                    tail: None,
                }
            })
            .collect();
        let degradations = (0..rows / 2)
            .map(|index| {
                let mut injected = Counts::new();
                for k in 0..[0, 2, 60][rng.below(3)] {
                    injected.add(&format!("class_{k}"), int(rng));
                }
                DegradationSummary {
                    index,
                    periods: int(rng) as u32,
                    injected,
                    skipped_samples: int(rng) as usize,
                    skipped_actuations: int(rng) as usize,
                    overruns: int(rng) as usize,
                    ls_inflation_ns: int(rng) as i64,
                    la_inflation_ns: int(rng) as i64,
                    cost_ratio: float(rng),
                    verdict: [
                        StabilityVerdict::Stable,
                        StabilityVerdict::Degraded,
                        StabilityVerdict::Diverged,
                    ][rng.below(3)],
                }
            })
            .collect();
        SweepSummary {
            scenarios,
            cost_bound_ratio: ratio(rng),
            cache_hits: int(rng),
            cache_misses: int(rng),
            degradations,
            ..SweepSummary::default()
        }
    }

    #[test]
    fn renderers_match_the_core_fmt_reference() {
        let mut rng = ecl_sim::SplitMix64::new(0x5eed_0027);
        for rows in [0, 1, 2, 3, 20, 21, 400] {
            for _ in 0..4 {
                let summary = random_summary(&mut rng, rows);
                assert_eq!(summary.render(), reference_render(&summary), "{rows} rows");
                assert_eq!(summary.to_json(), reference_json(&summary), "{rows} rows");
                let mut both = String::new();
                summary.render_into(&mut both);
                summary.to_json_into(&mut both);
                assert_eq!(both, summary.render() + &summary.to_json());
            }
        }
    }

    /// Both documents of `summary`, each written alone and both into one
    /// string.
    fn documents(summary: &SweepSummary) -> (String, String, String) {
        let mut both = String::new();
        summary.render_into(&mut both);
        summary.to_json_into(&mut both);
        (summary.render(), summary.to_json(), both)
    }

    /// A row renders the same bytes with its [`RowTail`] as without it:
    /// random summaries (multi-byte labels, special floats) with tails
    /// on a random subset of rows, the last JSON row among them or not,
    /// labels longer than the row buffer, and a tailed row after a
    /// first row whose label length walks its tail across the buffer's
    /// flush point, in both documents; and a tail adds 16 bytes to a
    /// row.
    #[test]
    fn row_tails_render_the_bytes_of_their_cells() {
        assert_eq!(std::mem::size_of::<Option<RowTail>>(), 16);
        let mut rng = ecl_sim::SplitMix64::new(0x5eed_7a11);
        let mut summaries = Vec::new();
        for rows in [1, 2, 3, 20, 21, 400] {
            for _ in 0..4 {
                let mut summary = random_summary(&mut rng, rows);
                for sc in &mut summary.scenarios {
                    if rng.below(8) == 0 {
                        let len = CELLS_CAP + rng.below(2 * CELLS_CAP);
                        sc.label = "é→a".chars().cycle().take(len).collect::<String>().into();
                    }
                }
                summaries.push(summary);
            }
        }
        for pad in 0..400 {
            let mut summary = random_summary(&mut rng, 3);
            summary.scenarios[0].label = "#".repeat(CELLS_CAP - 450 + pad).into();
            summaries.push(summary);
        }
        for (k, stripped) in summaries.iter().enumerate() {
            let mut tailed = stripped.clone();
            let rows = tailed.scenarios.len();
            for (i, sc) in tailed.scenarios.iter_mut().enumerate() {
                let last = i + 1 == rows;
                if i == 1 || (i > 1 && rng.below(3) > 0) || (last && k % 2 == 0) {
                    sc.tail = Some(RowTail::new(sc));
                }
            }
            // Equality ignores tails (a NaN cell is unequal either way).
            assert_eq!(
                tailed == *stripped,
                stripped.clone() == *stripped,
                "summary {k}"
            );
            assert_eq!(documents(&tailed), documents(stripped), "summary {k}");
        }
    }

    #[test]
    fn costs_csv_three_rows() {
        let (rep, _, _) = quick_report();
        let csv = costs_csv(&rep);
        assert_eq!(csv.lines().count(), 4);
        assert!(csv.starts_with("run,cost,relative_to_ideal"));
        // ideal row has relative exactly 1.
        let ideal_row = csv.lines().nth(1).unwrap();
        assert!(ideal_row.ends_with("1.000000"));
    }

    #[test]
    fn traces_csv_grid_and_headers() {
        let plant = plants::dc_motor();
        let dss = c2d_zoh(&plant.sys, plant.ts).unwrap();
        let lqr = dlqr(&dss, &Mat::identity(2), &Mat::diag(&[0.1])).unwrap();
        let spec = LoopSpec {
            plant: plant.sys,
            n_controls: 1,
            x0: vec![1.0, 0.0],
            feedback: lqr.k,
            input_memory: None,
            ts: plant.ts,
            horizon: 0.2,
            q_weight: 1.0,
            r_weight: 0.1,
            disturbance: DisturbanceKind::None,
        };
        let run = cosim::run_ideal(&spec).unwrap();
        let csv = traces_csv(&run, &["x0", "u0"], 0.05).unwrap();
        assert!(csv.starts_with("t,x0,u0\n"));
        // 0.0, 0.05, 0.1, 0.15, 0.2 -> 5 data rows.
        assert_eq!(csv.lines().count(), 6);
        assert!(traces_csv(&run, &["ghost"], 0.05).is_err());
        assert!(traces_csv(&run, &["x0"], 0.0).is_err());
    }
}
