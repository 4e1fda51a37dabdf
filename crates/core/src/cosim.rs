//! Closed-loop co-simulation: [`simulate`] runs a full-state
//! [`LoopSpec`] or an output-feedback [`OutputLoopSpec`] under either
//! [`Activation`]. [`Activation::Ideal`] is the *stroboscopic model*
//! (paper Fig. 2) control engineers design under: one clock samples,
//! computes and actuates at the same instant. [`Activation::Scheduled`] is
//! the **graph of delays** (paper Fig. 3) synthesized from a SynDEx
//! schedule: each stage is re-activated at the distributed
//! implementation's instants, exposing its impact on control performance
//! *before any code runs on a target*.

use std::borrow::Cow;
use std::ops::Deref;
use std::sync::Arc;
use std::time::Instant;

use ecl_aaa::{timeline, AlgorithmGraph, ArchitectureGraph, DigestMemo, Fnv1a, Schedule, TimeNs};
use ecl_blocks::{add_clock, Constant, DiscreteStateSpace, SampleHold, SampledNoise, StateSpaceCt};
use ecl_control::metrics;
use ecl_control::StateSpace;
use ecl_linalg::Mat;
use ecl_sim::{Block, BlockId, EngineStats, Model, SimOptions, SimResult, Simulator};
use ecl_telemetry::bytes::{ByteReader, ByteWriter, CodecError};
use ecl_telemetry::{Collector, Event, Histogram, Sink};

use crate::delays::{self, name, DelayGraphConfig};
use crate::faults::FaultPlan;
use crate::latency::{latencies, latencies_strict, period_origin, LatencyReport, LatencySeries};
use crate::translate::IoMap;
use crate::CoreError;

/// Disturbance applied to the plant's non-control inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DisturbanceKind {
    /// Disturbance inputs held at zero.
    None,
    /// Zero-order-hold Gaussian noise redrawn each period (road profile,
    /// load torque, ...), deterministically seeded.
    Noise {
        /// Standard deviation.
        std_dev: f64,
        /// PRNG seed.
        seed: u64,
    },
}

/// Description of a sampled-data regulation loop.
///
/// The plant's first `n_controls` inputs are driven by the controller; any
/// remaining inputs are disturbances. The controller samples the full
/// plant state and applies the static law `u = −K·x` (or the
/// delay-compensated law `u_k = −Kx·x_k − Ku·u_{k-1}` when `input_memory`
/// is set — the output of the calibration phase).
#[derive(Debug, Clone)]
pub struct LoopSpec {
    /// Continuous plant.
    pub plant: StateSpace,
    /// Number of control inputs (prefix of the plant inputs).
    pub n_controls: usize,
    /// Initial plant state (the regulation experiment's perturbation).
    pub x0: Vec<f64>,
    /// State-feedback gain `K` (`n_controls × n_states`).
    pub feedback: Mat,
    /// Optional previous-input gain `Ku` (`n_controls × n_controls`) for
    /// the delay-compensated law.
    pub input_memory: Option<Mat>,
    /// Sampling period (seconds).
    pub ts: f64,
    /// Simulation horizon (seconds).
    pub horizon: f64,
    /// State weight of the quadratic evaluation cost.
    pub q_weight: f64,
    /// Control weight of the quadratic evaluation cost.
    pub r_weight: f64,
    /// Disturbance on the non-control plant inputs.
    pub disturbance: DisturbanceKind,
}

impl LoopSpec {
    /// Checks the gains' shapes and builds the controller block
    /// implementing the law.
    fn controller(&self) -> Result<DiscreteStateSpace, CoreError> {
        let n = self.plant.state_dim();
        let m = self.n_controls;
        let bad = |reason: String| Err(CoreError::InvalidInput { reason });
        if self.feedback.shape() != (self.n_controls, n) {
            return bad(format!(
                "feedback gain must be {}x{n}, got {}x{}",
                self.n_controls,
                self.feedback.rows(),
                self.feedback.cols()
            ));
        }
        if let Some(ku) = &self.input_memory {
            if ku.shape() != (self.n_controls, self.n_controls) {
                return bad(format!(
                    "input-memory gain must be {0}x{0}, got {1}x{2}",
                    self.n_controls,
                    ku.rows(),
                    ku.cols()
                ));
            }
        }
        let neg_k: Vec<f64> = self.feedback.as_slice().iter().map(|v| -v).collect();
        let blk = match &self.input_memory {
            None => DiscreteStateSpace::static_gain(m, n, neg_k)?,
            Some(ku) => {
                // State x_c = u_{k-1}: u_k = −Ku·x_c − Kx·x_k, latched
                // pre-update; x_c⁺ = u_k.
                let neg_ku: Vec<f64> = ku.as_slice().iter().map(|v| -v).collect();
                DiscreteStateSpace::new(
                    m,
                    n,
                    m,
                    neg_ku.clone(),
                    neg_k.clone(),
                    neg_ku,
                    neg_k,
                    vec![0.0; m],
                )?
            }
        };
        Ok(blk)
    }
}

/// Result of a closed-loop run.
#[derive(Debug, Clone)]
pub struct LoopResult {
    /// The raw simulation output (probes `x0..`, `u0..`).
    pub result: SimResult,
    /// Quadratic cost `q·Σᵢ∫xᵢ² + r·Σⱼ∫uⱼ²`.
    pub cost: f64,
    /// Sampling instants `I_j(k)` per controller input.
    pub sample_instants: Vec<Vec<TimeNs>>,
    /// Actuation instants `O_j(k)` per controller output.
    pub actuation_instants: Vec<Vec<TimeNs>>,
    /// Sampling period used (seconds).
    pub ts: f64,
    /// Hot-loop counters of the underlying simulation (block activations,
    /// ODE steps, event-calendar peak depth).
    pub stats: EngineStats,
    /// Streaming histogram of `Ls_j(k)` per controller input, bucketed on
    /// `[0, Ts)` — fed one observation per period during the run.
    pub sampling_hist: Vec<Histogram>,
    /// Streaming histogram of `La_j(k)` per controller output.
    pub actuation_hist: Vec<Histogram>,
    /// Event deliveries per block as `(block name, count)`, busiest
    /// first (count descending, then name), zero-activity blocks omitted.
    pub activity: Vec<(String, u64)>,
}

impl LoopResult {
    /// The latency report (paper eq. 1–2) of this run.
    ///
    /// Sampling series are checked strictly (one sample per period, so
    /// `Ls_j(k) < Ts` must hold); actuation series accept cross-period
    /// completions (`La_j(k) >= Ts` under heavy communication load) and
    /// report them via [`LatencyReport::total_overruns`].
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] if a *sampling* activation
    /// misses its period (the schedule does not sustain `Ts` on the
    /// input side), or any series is unsorted or causally impossible
    /// (negative latency).
    pub fn latency_report(&self) -> Result<LatencyReport, CoreError> {
        self.report(latencies_strict)
    }

    /// Like [`latency_report`](Self::latency_report), but lenient on the
    /// sampling side too: a degraded (fault-injected) run legitimately
    /// samples at or past the period boundary when a rendezvous is forced
    /// by its timeout arm, so the strict `Ls_j(k) < Ts` invariant no
    /// longer holds. Cross-period activations are counted by
    /// [`LatencyReport::total_overruns`] instead of erroring.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidInput`] only for unsorted or causally
    /// impossible series (negative latency), or a period-origin overflow.
    pub fn latency_report_lenient(&self) -> Result<LatencyReport, CoreError> {
        self.report(latencies)
    }

    /// The report with `sampling` applied to the sampling series; the
    /// actuation series always accept cross-period completions.
    fn report(&self, sampling: LatencyFn) -> Result<LatencyReport, CoreError> {
        let period = TimeNs::from_secs_f64(self.ts);
        let series = |instants: &[Vec<TimeNs>], f: LatencyFn| {
            instants
                .iter()
                .map(|s| f(s, period))
                .collect::<Result<Vec<_>, _>>()
        };
        Ok(LatencyReport {
            sampling: series(&self.sample_instants, sampling)?,
            actuation: series(&self.actuation_instants, latencies)?,
        })
    }

    /// The run's hot-loop counters as telemetry [`Event::Counter`]s at
    /// simulated instant `at_ns` (typically the horizon): one `stats:*`
    /// track per [`EngineStats`] counter plus one `activity:*` track per
    /// active block. Every value is sim-derived and deterministic, so the
    /// events are safe to mix into byte-compared trace artifacts.
    pub fn stats_events(&self, at_ns: i64) -> Vec<Event> {
        let counter = |track: &str, value: u64| Event::Counter {
            track: format!("stats:{track}"),
            name: track.to_string(),
            at_ns,
            value_ns: value as i64,
        };
        let mut events = vec![
            counter("events_delivered", self.stats.events_delivered),
            counter("event_instants", self.stats.event_instants),
            counter("calendar_peak", self.stats.calendar_peak as u64),
            counter("max_cascade", self.stats.max_cascade as u64),
            counter("integration_spans", self.stats.integration_spans),
            counter("ode_steps_accepted", self.stats.ode.steps_accepted),
            counter("ode_steps_rejected", self.stats.ode.steps_rejected),
            counter("ode_rhs_evals", self.stats.ode.rhs_evals),
        ];
        for (block, count) in &self.activity {
            events.push(Event::Counter {
                track: format!("activity:{block}"),
                name: block.clone(),
                at_ns,
                value_ns: *count as i64,
            });
        }
        events
    }

    /// Serializes the run's *metrics-grade* state for the on-disk memo
    /// cache (`results/cache/{ideal,scheduled}/`): cost, period, the
    /// sampling/actuation instants, hot-loop counters, latency histograms
    /// and block activity — everything the untraced fleet metrics path
    /// (latency reports, degradation twins, verification margins) reads.
    /// The raw simulation trace (`result`) and the per-`BlockId`
    /// activation vector are deliberately **not** persisted: only traced
    /// scenarios read them, and traced scenarios bypass the memo caches
    /// entirely.
    pub fn to_metric_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::with_capacity(256);
        w.put_raw(LOOP_RESULT_MAGIC);
        w.put_u32(LOOP_RESULT_VERSION);
        w.put_f64(self.cost);
        w.put_f64(self.ts);
        let put_instants = |w: &mut ByteWriter, series: &[Vec<TimeNs>]| {
            w.put_seq_len(series.len());
            for s in series {
                w.put_seq_len(s.len());
                for &t in s {
                    w.put_i64(t.as_nanos());
                }
            }
        };
        put_instants(&mut w, &self.sample_instants);
        put_instants(&mut w, &self.actuation_instants);
        w.put_u64(self.stats.events_delivered);
        w.put_u64(self.stats.event_instants);
        w.put_usize(self.stats.calendar_peak);
        w.put_usize(self.stats.max_cascade);
        w.put_u64(self.stats.integration_spans);
        w.put_u64(self.stats.hot_allocs);
        w.put_u64(self.stats.ode.steps_accepted);
        w.put_u64(self.stats.ode.steps_rejected);
        w.put_u64(self.stats.ode.rhs_evals);
        let put_hists = |w: &mut ByteWriter, hists: &[Histogram]| {
            w.put_seq_len(hists.len());
            for h in hists {
                h.encode_into(w);
            }
        };
        put_hists(&mut w, &self.sampling_hist);
        put_hists(&mut w, &self.actuation_hist);
        w.put_seq_len(self.activity.len());
        for (name, count) in &self.activity {
            w.put_str(name);
            w.put_u64(*count);
        }
        w.into_bytes()
    }

    /// Reconstructs a run serialized by [`to_metric_bytes`]. The raw
    /// trace rehydrates as the empty [`SimResult`] and the per-`BlockId`
    /// activation vector as empty — callers that need either (traced
    /// scenarios) must re-simulate instead of decoding. Corruption
    /// decodes to a typed [`CodecError`], never a panic.
    ///
    /// [`to_metric_bytes`]: LoopResult::to_metric_bytes
    ///
    /// # Errors
    ///
    /// Returns the structural [`CodecError`] describing the corruption.
    pub fn from_metric_bytes(bytes: &[u8]) -> Result<LoopResult, CoreError> {
        LoopResult::decode_metric(bytes).map_err(|e| CoreError::InvalidInput {
            reason: format!("loop-result cache payload: {e}"),
        })
    }

    /// The run as the memo tables keep it: only what
    /// [`to_metric_bytes`](LoopResult::to_metric_bytes) persists, so an
    /// entry computed here and one warmed from disk are the same value.
    /// The raw trace and the per-`BlockId` activation vector are dropped.
    fn into_metric_grade(self) -> LoopResult {
        LoopResult {
            result: SimResult::default(),
            stats: self.stats.without_activations(),
            ..self
        }
    }

    // `EngineStats` keeps its per-block activation vector private, so the
    // counters are necessarily rebuilt field-by-field on a `default()`.
    #[allow(clippy::field_reassign_with_default)]
    fn decode_metric(bytes: &[u8]) -> Result<LoopResult, CodecError> {
        let mut r = ByteReader::new(bytes);
        r.expect_magic(LOOP_RESULT_MAGIC)?;
        let version = r.get_u32()?;
        if version != LOOP_RESULT_VERSION {
            return Err(CodecError::BadMagic {
                expected: format!("loop-result v{LOOP_RESULT_VERSION}"),
                found: format!("loop-result v{version}"),
            });
        }
        let cost = r.get_f64()?;
        let ts = r.get_f64()?;
        let get_instants = |r: &mut ByteReader<'_>| -> Result<Vec<Vec<TimeNs>>, CodecError> {
            let n = r.get_seq_len()?;
            let mut series = Vec::with_capacity(n);
            for _ in 0..n {
                let len = r.get_seq_len()?;
                let mut s = Vec::with_capacity(len);
                for _ in 0..len {
                    s.push(TimeNs::from_nanos(r.get_i64()?));
                }
                series.push(s);
            }
            Ok(series)
        };
        let sample_instants = get_instants(&mut r)?;
        let actuation_instants = get_instants(&mut r)?;
        let mut stats = EngineStats::default();
        stats.events_delivered = r.get_u64()?;
        stats.event_instants = r.get_u64()?;
        stats.calendar_peak = r.get_usize()?;
        stats.max_cascade = r.get_usize()?;
        stats.integration_spans = r.get_u64()?;
        stats.hot_allocs = r.get_u64()?;
        stats.ode.steps_accepted = r.get_u64()?;
        stats.ode.steps_rejected = r.get_u64()?;
        stats.ode.rhs_evals = r.get_u64()?;
        let get_hists = |r: &mut ByteReader<'_>| -> Result<Vec<Histogram>, CodecError> {
            let n = r.get_seq_len()?;
            let mut hists = Vec::with_capacity(n);
            for _ in 0..n {
                hists.push(Histogram::decode_from(r)?);
            }
            Ok(hists)
        };
        let sampling_hist = get_hists(&mut r)?;
        let actuation_hist = get_hists(&mut r)?;
        let n = r.get_seq_len()?;
        let mut activity = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.get_str()?;
            let count = r.get_u64()?;
            activity.push((name, count));
        }
        r.finish()?;
        Ok(LoopResult {
            result: SimResult::default(),
            cost,
            sample_instants,
            actuation_instants,
            ts,
            stats,
            sampling_hist,
            actuation_hist,
            activity,
        })
    }
}

/// [`latencies`] or [`latencies_strict`].
type LatencyFn = fn(&[TimeNs], TimeNs) -> Result<LatencySeries, CoreError>;

/// Magic tag of the [`LoopResult::to_metric_bytes`] layout.
const LOOP_RESULT_MAGIC: &[u8] = b"ECLR";
/// Version of the [`LoopResult::to_metric_bytes`] layout; bump on change.
const LOOP_RESULT_VERSION: u32 = 1;

/// Wall-clock split of one [`simulate`] call: model assembly plus
/// activation wiring (graph-of-delays synthesis, for a scheduled run)
/// versus the simulation itself. Measured on every call from three
/// monotonic-clock reads; profiler sidecar data that never enters a
/// deterministic artifact.
#[derive(Debug, Clone, Copy, Default)]
pub struct CosimPhases {
    /// Wall time of assembly + activation wiring.
    pub synthesis_wall_ns: u64,
    /// Wall time of the simulation (including latency extraction).
    pub simulation_wall_ns: u64,
}

/// Description of a sampled-data loop closed through *measured outputs*
/// (output feedback): the controller is an arbitrary discrete compensator
/// mapping the plant's `p` outputs to its `m` controls — typically the
/// LQG compensator from [`ecl_control::lqg::compensator`].
#[derive(Debug, Clone)]
pub struct OutputLoopSpec {
    /// Continuous plant; its real `C`/`D` define what is measured.
    pub plant: StateSpace,
    /// Number of control inputs (prefix of the plant inputs).
    pub n_controls: usize,
    /// Initial plant state.
    pub x0: Vec<f64>,
    /// The discrete compensator (`p` measurement inputs → `m` control
    /// outputs); its sampling period must equal `ts`.
    pub compensator: ecl_control::DiscreteSs,
    /// Sampling period (seconds).
    pub ts: f64,
    /// Simulation horizon (seconds).
    pub horizon: f64,
    /// Output weight of the quadratic evaluation cost.
    pub q_weight: f64,
    /// Control weight of the quadratic evaluation cost.
    pub r_weight: f64,
    /// Disturbance on the non-control plant inputs.
    pub disturbance: DisturbanceKind,
}

impl OutputLoopSpec {
    /// Checks the compensator against the loop and builds its block.
    fn controller(&self) -> Result<DiscreteStateSpace, CoreError> {
        let (comp, p, m) = (&self.compensator, self.plant.output_dim(), self.n_controls);
        let bad = |reason: String| Err(CoreError::InvalidInput { reason });
        if comp.input_dim() != p {
            return bad(format!(
                "compensator consumes {} measurements, plant produces {p}",
                comp.input_dim()
            ));
        }
        if comp.output_dim() != m {
            return bad(format!(
                "compensator produces {} controls, loop needs {m}",
                comp.output_dim()
            ));
        }
        if (comp.ts() - self.ts).abs() > 1e-12 {
            return bad(format!(
                "compensator period {} disagrees with loop period {}",
                comp.ts(),
                self.ts
            ));
        }
        Ok(DiscreteStateSpace::new(
            comp.state_dim(),
            p,
            m,
            comp.a().as_slice().to_vec(),
            comp.b().as_slice().to_vec(),
            comp.c().as_slice().to_vec(),
            comp.d().as_slice().to_vec(),
            vec![0.0; comp.state_dim()],
        )?)
    }
}

/// The loop a co-simulation closes: a borrowed [`LoopSpec`] or
/// [`OutputLoopSpec`]. Both convert with `into()`, so [`simulate`] takes
/// either spec directly.
#[derive(Debug, Clone, Copy)]
pub enum Loop<'a> {
    /// Full-state feedback.
    State(&'a LoopSpec),
    /// Output feedback through a discrete compensator.
    Output(&'a OutputLoopSpec),
}

impl<'a> From<&'a LoopSpec> for Loop<'a> {
    fn from(spec: &'a LoopSpec) -> Self {
        Loop::State(spec)
    }
}

impl<'a> From<&'a OutputLoopSpec> for Loop<'a> {
    fn from(spec: &'a OutputLoopSpec) -> Self {
        Loop::Output(spec)
    }
}

/// A field both spec flavours share, read through a [`Loop`].
macro_rules! shared {
    ($lp:expr, $field:ident) => {
        match $lp {
            Loop::State(spec) => &spec.$field,
            Loop::Output(spec) => &spec.$field,
        }
    };
}

/// Extends the model (e.g. with the block producing a condition
/// variable's value) and returns the [`DelayGraphConfig`] to synthesize
/// with: nominal, faulty, or conditioned (paper §3.2.2).
pub type Configure<'a> = Box<dyn FnOnce(&mut Model) -> Result<DelayGraphConfig, CoreError> + 'a>;

/// How [`simulate`] activates the loop's Sample/Holds and controller.
pub enum Activation<'a> {
    /// The stroboscopic model (paper Fig. 2): one clock activates
    /// sampling, control and actuation at the same instant.
    Ideal,
    /// The graph of delays synthesized from `schedule` (paper Fig. 3).
    Scheduled {
        /// The translated algorithm graph.
        alg: &'a AlgorithmGraph,
        /// Its sensors and actuators: one sensor per sampled plant signal
        /// (state or measured output), one actuator per control.
        io: &'a IoMap,
        /// The adequation's schedule of `alg` on `arch`.
        schedule: &'a Schedule,
        /// The target architecture.
        arch: &'a ArchitectureGraph,
        /// Called on the assembled model just before synthesis.
        configure: Configure<'a>,
    },
}

impl<'a> Activation<'a> {
    /// What [`wire`] adds to the model besides activating the loop's
    /// Sample/Holds and controller, at most: `(blocks, signal
    /// connections, event connections)`.
    fn growth(&self) -> (usize, usize, usize) {
        match self {
            Activation::Ideal => (0, 0, 0),
            Activation::Scheduled { alg, schedule, .. } => delays::growth_bound(alg, schedule),
        }
    }

    /// Distinct event instants per period: the tick, and for a schedule
    /// at most one more per slot end.
    fn instants_per_period(&self) -> usize {
        match self {
            Activation::Ideal => 1,
            Activation::Scheduled { schedule, .. } => {
                1 + schedule.ops().len() + schedule.comms().len()
            }
        }
    }

    /// [`Activation::Scheduled`] with the default [`DelayGraphConfig`],
    /// replayed under `faults` when given (see [`run_scheduled_faulty`]).
    pub fn scheduled(
        alg: &'a AlgorithmGraph,
        io: &'a IoMap,
        schedule: &'a Schedule,
        arch: &'a ArchitectureGraph,
        faults: Option<FaultPlan>,
    ) -> Self {
        Activation::Scheduled {
            alg,
            io,
            schedule,
            arch,
            configure: Box::new(move |_| {
                Ok(DelayGraphConfig {
                    faults,
                    ..DelayGraphConfig::default()
                })
            }),
        }
    }
}

/// Co-simulates `lp` under `activation`, returning the run and its
/// wall-clock [`CosimPhases`].
///
/// `tel` receives one latency [`Event::Counter`] per I/O per period, in
/// simulated time, on `{track_prefix}Ls[j]` / `{track_prefix}La[j]`
/// tracks: runs sharing a collector need distinct prefixes, as each
/// restarts at time 0. Call [`emit_schedule_timeline`] first to record
/// the schedule too. Tracing never changes the result.
///
/// # Errors
///
/// * [`CoreError::InvalidInput`] if the spec is malformed (shapes, or a
///   `ts`/`horizon` that is not a positive whole-nanosecond time), `io`
///   does not match the loop shape, or the schedule overruns the period.
/// * Whatever `configure` returns; propagated wiring/simulation errors.
pub fn simulate<'a, S: Sink>(
    lp: impl Into<Loop<'a>>,
    activation: Activation<'a>,
    tel: &mut Collector<S>,
    track_prefix: &str,
) -> Result<(LoopResult, CosimPhases), CoreError> {
    let start = Instant::now();
    let lp = lp.into();
    let mut lm = assemble(lp.lower()?, &activation, |plant| plant)?;
    wire(&mut lm, activation, TimeNs::from_secs_f64(*shared!(lp, ts)))?;
    let wired = Instant::now();
    let run = finish_traced(lp, lm, track_prefix, tel)?;
    let phases = CosimPhases {
        synthesis_wall_ns: (wired - start).as_nanos() as u64,
        simulation_wall_ns: wired.elapsed().as_nanos() as u64,
    };
    Ok((run, phases))
}

/// Simulates the loop under the stroboscopic model (paper Fig. 2),
/// untraced.
///
/// # Errors
///
/// Same as [`simulate`].
pub fn run_ideal(spec: &LoopSpec) -> Result<LoopResult, CoreError> {
    simulate(spec, Activation::Ideal, &mut Collector::noop(), "").map(|(run, _)| run)
}

/// Simulates the loop with the graph of delays synthesized from
/// `schedule` (paper Fig. 3), untraced: each Sample/Hold and the
/// controller are re-activated at the distributed implementation's
/// instants.
///
/// # Errors
///
/// Same as [`simulate`].
pub fn run_scheduled(
    spec: &LoopSpec,
    alg: &AlgorithmGraph,
    io: &IoMap,
    schedule: &Schedule,
    arch: &ArchitectureGraph,
) -> Result<LoopResult, CoreError> {
    let activation = Activation::scheduled(alg, io, schedule, arch, None);
    simulate(spec, activation, &mut Collector::noop(), "").map(|(run, _)| run)
}

/// Like [`run_scheduled`], but replays the schedule under a
/// [`FaultPlan`]: lost frames stretch or drop communication slots, dead
/// processors silence their operations, and every synchronization gains a
/// timeout arm so the loop degrades (Sample/Holds keep stale values, the
/// existing overrun accounting counts the damage) instead of
/// deadlocking.
///
/// A [trivial](FaultPlan::is_trivial) plan takes the exact
/// [`run_scheduled`] code path — same blocks, same wiring, bit-identical
/// results — so a zero-rate fault sweep is guaranteed to reproduce the
/// fault-free baseline, and a caller that already holds the nominal run
/// may serve a trivial plan's replay with it instead of simulating.
///
/// Use [`LoopResult::latency_report_lenient`] on the result: forced
/// rendezvous can push sampling past the period boundary, which the
/// strict report rejects.
///
/// # Errors
///
/// Same as [`simulate`].
pub fn run_scheduled_faulty(
    spec: &LoopSpec,
    alg: &AlgorithmGraph,
    io: &IoMap,
    schedule: &Schedule,
    arch: &ArchitectureGraph,
    plan: FaultPlan,
) -> Result<LoopResult, CoreError> {
    let activation = Activation::scheduled(alg, io, schedule, arch, Some(plan));
    simulate(spec, activation, &mut Collector::noop(), "").map(|(run, _)| run)
}

/// Emits the schedule's per-period timeline ([`Event::Slice`] per
/// operation and communication on `proc:*` / `bus:*` tracks, one replica
/// per period over `horizon`) into the collector. Traced callers emit it
/// before [`simulate`], so the slices precede the latency counters. A
/// no-op for a disabled collector.
///
/// # Errors
///
/// [`CoreError::InvalidInput`] if `ts` or `horizon` is not a positive
/// whole-nanosecond time.
pub fn emit_schedule_timeline<S: Sink>(
    tel: &mut Collector<S>,
    schedule: &Schedule,
    alg: &AlgorithmGraph,
    arch: &ArchitectureGraph,
    ts: f64,
    horizon: f64,
) -> Result<(), CoreError> {
    check_times(ts, horizon)?;
    if !tel.enabled() {
        return Ok(());
    }
    let periods = (horizon / ts).floor() as u32;
    let period = TimeNs::from_secs_f64(ts);
    for ev in timeline::trace_events(schedule, alg, arch, period, periods) {
        tel.emit(|| ev);
    }
    Ok(())
}

/// Checks that `ts` and `horizon` are positive whole-nanosecond
/// [`TimeNs`] values, so no later conversion of either can panic.
fn check_times(ts: f64, horizon: f64) -> Result<(), CoreError> {
    for (name, secs) in [("ts", ts), ("horizon", horizon)] {
        if TimeNs::checked_from_secs_f64(secs).is_none_or(|t| t <= TimeNs::ZERO) {
            return Err(CoreError::InvalidInput {
                reason: format!("{name} = {secs} s is not a positive whole-nanosecond time"),
            });
        }
    }
    Ok(())
}

/// Either loop flavour, lowered to one description of what [`assemble`]
/// places; the fields both flavours share are read from `lp`.
struct Lowered<'a> {
    lp: Loop<'a>,
    /// Output matrices of the plant block: its outputs are what the loop
    /// samples.
    c: Vec<f64>,
    d: Vec<f64>,
    /// Initial value of each sampling S/H.
    sample_seeds: Cow<'a, [f64]>,
    /// `sample_x` (states) or `sample_y` (measured outputs).
    sample_stem: &'static str,
    controller: DiscreteStateSpace,
    /// `controller` (state feedback) or `compensator` (output feedback).
    controller_name: &'static str,
}

impl<'a> Loop<'a> {
    /// Validates the spec and lowers it: a full-state loop samples the
    /// whole state (`C = I`, `D = 0`) into holds seeded with `x0`; an
    /// output-feedback loop samples the plant's real outputs into
    /// zero-seeded holds.
    fn lower(self) -> Result<Lowered<'a>, CoreError> {
        let plant = shared!(self, plant);
        let x0 = shared!(self, x0);
        let mc = *shared!(self, n_controls);
        let (n, m) = (plant.state_dim(), plant.input_dim());
        let bad = |reason: String| Err(CoreError::InvalidInput { reason });
        if mc == 0 || mc > m {
            return bad(format!(
                "n_controls = {mc} out of range for a plant with {m} inputs"
            ));
        }
        if x0.len() != n {
            return bad(format!("x0 has {} entries, plant has {n} states", x0.len()));
        }
        check_times(*shared!(self, ts), *shared!(self, horizon))?;
        Ok(match self {
            Loop::State(spec) => Lowered {
                lp: self,
                c: Mat::identity(n).into_vec(),
                d: vec![0.0; n * m],
                sample_seeds: Cow::Borrowed(x0),
                sample_stem: "sample_x",
                controller: spec.controller()?,
                controller_name: "controller",
            },
            Loop::Output(spec) => Lowered {
                lp: self,
                c: plant.c().as_slice().to_vec(),
                d: plant.d().as_slice().to_vec(),
                sample_seeds: Cow::Owned(vec![0.0; plant.output_dim()]),
                sample_stem: "sample_y",
                controller: spec.controller()?,
                controller_name: "compensator",
            },
        })
    }
}

/// The assembled loop: its model and the blocks activation wiring
/// targets.
struct LoopModel {
    model: Model,
    sample_sh: Vec<BlockId>,
    controller: BlockId,
    act_sh: Vec<BlockId>,
    /// Clock driving the disturbance sources (and the stroboscopic loop).
    base_clock: BlockId,
    /// Distinct event instants per period under the activation.
    instants_per_period: usize,
}

/// Places plant (as `plant_block` makes it of the state-space block),
/// sampling S/Hs, controller, output holds, disturbance sources and
/// probes, in a model sized for them and for what `activation` will add;
/// activation wiring is left to [`wire`].
fn assemble<P: Block>(
    low: Lowered<'_>,
    activation: &Activation<'_>,
    plant_block: impl FnOnce(StateSpaceCt) -> P,
) -> Result<LoopModel, CoreError> {
    let (plant_ss, x0) = (shared!(low.lp, plant), shared!(low.lp, x0));
    let (n, m_total, p) = (
        plant_ss.state_dim(),
        plant_ss.input_dim(),
        low.sample_seeds.len(),
    );
    let mc = *shared!(low.lp, n_controls);
    let noise = match shared!(low.lp, disturbance) {
        DisturbanceKind::None => 0,
        DisturbanceKind::Noise { .. } => m_total - mc,
    };
    let (blocks, signals, events) = activation.growth();
    let mut model = Model::new();
    model.reserve(
        // The clock, plant, S/Hs, controller, holds and disturbances.
        3 + p + m_total + blocks,
        // Plant to S/Hs to controller, controller to holds to plant, and
        // disturbances to plant.
        2 * p + mc + m_total + signals,
        // The clock's loop, its noise sources, and one activation per
        // S/H and the controller.
        1 + noise + p + 1 + mc + events,
        p + mc,
    );
    let period = TimeNs::from_secs_f64(*shared!(low.lp, ts));
    let base_clock = add_clock(&mut model, "base_clock", period, TimeNs::ZERO)?;
    let plant = model.add_block(
        "plant",
        plant_block(StateSpaceCt::new(
            n,
            m_total,
            p,
            plant_ss.a().as_slice().to_vec(),
            plant_ss.b().as_slice().to_vec(),
            low.c,
            low.d,
            x0.clone(),
        )?),
    );

    // Input samplers: one S/H per sampled plant output.
    let mut sample_sh = Vec::with_capacity(p);
    for (j, &seed) in low.sample_seeds.iter().enumerate() {
        let sh = model.add_block(
            name(format_args!("{}{j}", low.sample_stem)),
            SampleHold::new(seed),
        );
        model.connect(plant, j, sh, 0)?;
        sample_sh.push(sh);
    }

    let controller = model.add_block(low.controller_name, low.controller);
    for (j, &sh) in sample_sh.iter().enumerate() {
        model.connect(sh, 0, controller, j)?;
    }

    // Output holds: one per control, feeding the plant.
    let mut act_sh = Vec::with_capacity(mc);
    for j in 0..mc {
        let sh = model.add_block(name(format_args!("hold_u{j}")), SampleHold::new(0.0));
        model.connect(controller, j, sh, 0)?;
        model.connect(sh, 0, plant, j)?;
        act_sh.push(sh);
    }

    // Disturbance inputs.
    for j in mc..m_total {
        match *shared!(low.lp, disturbance) {
            DisturbanceKind::None => {
                let z = model.add_block(name(format_args!("dist{j}")), Constant::new(0.0));
                model.connect(z, 0, plant, j)?;
            }
            DisturbanceKind::Noise { std_dev, seed } => {
                let nz = model.add_block(
                    name(format_args!("dist{j}")),
                    SampledNoise::new(0.0, std_dev, seed.wrapping_add(j as u64)),
                );
                model.connect(nz, 0, plant, j)?;
                model.connect_event(base_clock, 0, nz, 0)?;
            }
        }
    }

    // Probes: the sampled outputs as `x{j}` (the cost reads them
    // uniformly for either loop flavour) and the controls.
    for j in 0..p {
        model.probe(name(format_args!("x{j}")), plant, j)?;
    }
    for (j, &sh) in act_sh.iter().enumerate() {
        model.probe(name(format_args!("u{j}")), sh, 0)?;
    }

    Ok(LoopModel {
        model,
        sample_sh,
        controller,
        act_sh,
        base_clock,
        instants_per_period: activation.instants_per_period(),
    })
}

/// Wires what activates the sampling S/Hs, the controller and the output
/// holds: the base clock, or the graph of delays' completion events.
fn wire(lm: &mut LoopModel, activation: Activation<'_>, period: TimeNs) -> Result<(), CoreError> {
    match activation {
        Activation::Ideal => {
            // Activation order at each tick: sample all inputs, run the
            // controller, apply all outputs — deliveries happen in wiring
            // order.
            for &block in lm
                .sample_sh
                .iter()
                .chain([&lm.controller])
                .chain(&lm.act_sh)
            {
                lm.model.connect_event(lm.base_clock, 0, block, 0)?;
            }
        }
        Activation::Scheduled {
            alg,
            io,
            schedule,
            arch,
            configure,
        } => {
            let (sensors, actuators) = (io.sensors.len(), io.actuators.len());
            if (sensors, actuators) != (lm.sample_sh.len(), lm.act_sh.len()) {
                return Err(CoreError::InvalidInput {
                    reason: format!(
                        "law has {sensors} sensors and {actuators} actuators, but the loop \
                         samples {} signals and drives {} controls",
                        lm.sample_sh.len(),
                        lm.act_sh.len()
                    ),
                });
            }
            let compute = *io.stages.last().ok_or_else(|| CoreError::InvalidInput {
                reason: "law has no computation stage".into(),
            })?;
            let config = configure(&mut lm.model)?;
            let dg = delays::build(&mut lm.model, alg, arch, schedule, period, config)?;
            let targets = io
                .sensors
                .iter()
                .zip(&lm.sample_sh)
                .chain([(&compute, &lm.controller)])
                .chain(io.actuators.iter().zip(&lm.act_sh));
            for (&op, &block) in targets {
                dg.activate_on_completion(&mut lm.model, op, block, 0)?;
            }
        }
    }
    Ok(())
}

/// Number of fixed-width buckets of each latency histogram (over
/// `[0, Ts)`).
const LATENCY_BUCKETS: usize = 64;

/// Runs the assembled loop and extracts cost, instants, hot-loop
/// counters and latency histograms. One latency observation per period
/// is streamed into the histograms and, when the collector is enabled,
/// emitted as an [`Event::Counter`] (simulated time — deterministic) on
/// a `track_prefix`ed track (see [`simulate`]).
fn finish_traced<S: Sink>(
    lp: Loop<'_>,
    lm: LoopModel,
    track_prefix: &str,
    tel: &mut Collector<S>,
) -> Result<LoopResult, CoreError> {
    let (ts, horizon) = (*shared!(lp, ts), *shared!(lp, horizon));
    // Each period's instants, and a delivery per event connection, over
    // the periods starting within the horizon.
    let periods = ((horizon / ts) as usize).saturating_add(1);
    let deliveries = periods.saturating_mul(lm.model.event_connections());
    let mut sim = Simulator::new(lm.model, SimOptions::default())?;
    sim.reserve_events(periods.saturating_mul(lm.instants_per_period), deliveries);
    sim.run(TimeNs::from_secs_f64(horizon))?;
    // The model's block names become the activity's; nothing is copied.
    let (model, result, stats) = sim.into_parts();

    // `assemble` registers the probes first, in this order: the sampled
    // outputs `x0..`, weighted by `q`, then the controls `u0..`, by `r`.
    let weights = std::iter::repeat_n(*shared!(lp, q_weight), lm.sample_sh.len())
        .chain(std::iter::repeat_n(*shared!(lp, r_weight), lm.act_sh.len()));
    let mut cost = 0.0;
    for ((_, sig), weight) in result.signals().zip(weights) {
        cost += weight * metrics::ise(sig.times(), sig.values(), 0.0);
    }

    // Each hold's activation instants, in delivery order; a hold has one
    // event input, so its delivery count sizes its series.
    let series = |holds: &[BlockId]| -> Vec<Vec<TimeNs>> {
        holds
            .iter()
            .map(|&sh| Vec::with_capacity(stats.activations(sh) as usize))
            .collect()
    };
    let (mut sample_instants, mut actuation_instants) = (series(&lm.sample_sh), series(&lm.act_sh));
    for e in result.event_log().iter().filter(|e| e.port == 0) {
        if let Some(j) = lm.sample_sh.iter().position(|&sh| sh == e.target) {
            sample_instants[j].push(e.time);
        } else if let Some(j) = lm.act_sh.iter().position(|&sh| sh == e.target) {
            actuation_instants[j].push(e.time);
        }
    }

    let period = TimeNs::from_secs_f64(ts);
    let bound = period.as_nanos().max(1);
    let feed = |label: &'static str,
                instants: &[Vec<TimeNs>],
                tel: &mut Collector<S>|
     -> Result<Vec<Histogram>, CoreError> {
        instants
            .iter()
            .enumerate()
            .map(|(j, series)| {
                let mut h = Histogram::new(bound, LATENCY_BUCKETS);
                for (k, &t) in series.iter().enumerate() {
                    let lat = (t - period_origin(period, k)?).as_nanos();
                    h.record(lat);
                    tel.emit(|| Event::Counter {
                        track: format!("{track_prefix}{label}[{j}]"),
                        name: label.to_string(),
                        at_ns: t.as_nanos(),
                        value_ns: lat,
                    });
                }
                Ok(h)
            })
            .collect()
    };
    let sampling_hist = feed("Ls", &sample_instants, tel)?;
    let actuation_hist = feed("La", &actuation_instants, tel)?;

    let counts = stats.activation_counts();
    let mut activity: Vec<(String, u64)> =
        Vec::with_capacity(counts.iter().filter(|&&c| c > 0).count());
    for (name, &c) in model.into_names().zip(counts) {
        if c > 0 {
            activity.push((name, c));
        }
    }
    // Equal (count, name) pairs are equal entries, so an unstable sort
    // gives the stable order.
    activity.sort_unstable_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    Ok(LoopResult {
        result,
        cost,
        sample_instants,
        actuation_instants,
        ts,
        stats,
        sampling_hist,
        actuation_hist,
        activity,
    })
}

/// Content digest of every input [`run_ideal`] reads: all [`LoopSpec`]
/// fields, floats hashed by exact bit pattern.
///
/// [`run_ideal`] is a deterministic pure function of its spec — the
/// model is assembled from the spec alone, `SimOptions::default()` is
/// fixed, and the engine schedules all discrete activity on the
/// integer-nanosecond calendar — so two specs with equal digests produce
/// byte-identical [`LoopResult`]s. A fleet sweep perturbs only the
/// sampling period of its ideal reference (period scale × makespan
/// stretch); every other field is shared, so the digest space collapses
/// to a handful of keys and the memo table actually hits. Such a sweep
/// builds the [`LoopKey`] once and digests each period with
/// [`LoopKey::digest`]; the value is the same.
pub fn loop_spec_digest(spec: &LoopSpec) -> u64 {
    LoopKey::new(spec).digest(spec.ts)
}

/// The per-deployment half of [`loop_spec_digest`]: every [`LoopSpec`]
/// field before `ts` (plant, gains, initial state), hashed once.
/// [`digest`](LoopKey::digest) resumes from that state with a period
/// and the fields after it, so a sweep that varies only the period
/// hashes the loop matrices once, and every digest equals
/// [`loop_spec_digest`] of the base spec at that period bit for bit.
///
/// The key holds its base spec (borrowed, or owned after
/// [`into_owned`](LoopKey::into_owned)): a memo miss simulates
/// [`spec_at`](LoopKey::spec_at) the period, and a hit clones nothing.
#[derive(Debug, Clone)]
pub struct LoopKey<'a> {
    base: Cow<'a, LoopSpec>,
    head: Fnv1a,
}

impl<'a> LoopKey<'a> {
    /// Hashes every field of `base` before `ts`.
    pub fn new(base: &'a LoopSpec) -> Self {
        let mut h = Fnv1a::new();
        let mat = |h: &mut Fnv1a, m: &Mat| {
            h.write_u64(m.rows() as u64);
            h.write_u64(m.cols() as u64);
            for &v in m.as_slice() {
                h.write_f64(v);
            }
        };
        mat(&mut h, base.plant.a());
        mat(&mut h, base.plant.b());
        mat(&mut h, base.plant.c());
        mat(&mut h, base.plant.d());
        h.write_u64(base.n_controls as u64);
        h.write_u64(base.x0.len() as u64);
        for &v in &base.x0 {
            h.write_f64(v);
        }
        mat(&mut h, &base.feedback);
        match &base.input_memory {
            None => h.write_u64(0),
            Some(ku) => {
                h.write_u64(1);
                mat(&mut h, ku);
            }
        }
        LoopKey {
            base: Cow::Borrowed(base),
            head: h,
        }
    }

    /// The same key holding its own copy of the base spec, for an owner
    /// that must outlive the borrow (a resident daemon's deployment).
    pub fn into_owned(self) -> LoopKey<'static> {
        LoopKey {
            base: Cow::Owned(self.base.into_owned()),
            head: self.head,
        }
    }

    /// The base spec.
    pub fn base(&self) -> &LoopSpec {
        &self.base
    }

    /// [`loop_spec_digest`] of the base spec with period `ts`: the
    /// period and every field after it, hashed onto a copy of the head.
    pub fn digest(&self, ts: f64) -> u64 {
        let mut h = self.head.clone();
        h.write_f64(ts);
        h.write_f64(self.base.horizon);
        h.write_f64(self.base.q_weight);
        h.write_f64(self.base.r_weight);
        match self.base.disturbance {
            DisturbanceKind::None => h.write_u64(0),
            DisturbanceKind::Noise { std_dev, seed } => {
                h.write_u64(1);
                h.write_f64(std_dev);
                h.write_u64(seed);
            }
        }
        h.finish()
    }

    /// The base spec with period `ts` (a clone of the loop matrices).
    pub fn spec_at(&self, ts: f64) -> LoopSpec {
        LoopSpec {
            ts,
            ..self.base.as_ref().clone()
        }
    }

    /// The base spec at period `ts`, digested once for every memo
    /// lookup of one scenario.
    pub fn at(&self, ts: f64) -> LoopAt<'_> {
        LoopAt {
            key: self,
            ts,
            digest: self.digest(ts),
        }
    }
}

/// A [`LoopKey`]'s base spec at one sampling period, with its
/// [`loop_spec_digest`] computed once — what [`IdealRunCache`] and
/// [`ScheduledRunCache`] look up by. The spec itself is built only when
/// a lookup misses.
#[derive(Debug, Clone, Copy)]
pub struct LoopAt<'k> {
    key: &'k LoopKey<'k>,
    ts: f64,
    digest: u64,
}

impl LoopAt<'_> {
    /// [`loop_spec_digest`] of [`spec`](LoopAt::spec).
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// The base spec with this period (a clone of the loop matrices).
    pub fn spec(&self) -> LoopSpec {
        self.key.spec_at(self.ts)
    }
}

/// The ideal-run memo: a [`DigestMemo`] of [`run_ideal`] results keyed
/// by [`loop_spec_digest`].
///
/// A scenario sweep re-simulates the stroboscopic reference once per
/// scenario, but the reference depends only on the loop spec — and the
/// sweep varies that spec along a single axis (the sampling period). A
/// 10⁵-scenario sweep therefore needs only as many ideal runs as it has
/// distinct periods; this table, shared by the sweep workers beside the
/// [`ecl_aaa::ScheduleCache`], answers the rest from memory. Counters,
/// seeding and snapshots are the memo's, reached through `Deref`; they
/// belong beside — never inside — byte-compared sweep artifacts.
/// Entries hold only the metrics-grade state
/// [`LoopResult::to_metric_bytes`] persists: no raw trace.
///
/// # Examples
///
/// ```
/// use ecl_core::cosim::{run_ideal, IdealRunCache, LoopKey, LoopSpec, DisturbanceKind};
/// use ecl_control::StateSpace;
/// use ecl_linalg::Mat;
/// # fn main() -> Result<(), ecl_core::CoreError> {
/// let plant = StateSpace::new(
///     Mat::from_rows(&[&[-1.0]]).unwrap(),
///     Mat::from_rows(&[&[1.0]]).unwrap(),
///     Mat::identity(1),
///     Mat::zeros(1, 1),
/// )?;
/// let spec = LoopSpec {
///     plant,
///     n_controls: 1,
///     x0: vec![1.0],
///     feedback: Mat::from_rows(&[&[0.5]]).unwrap(),
///     input_memory: None,
///     ts: 0.01,
///     horizon: 0.1,
///     q_weight: 1.0,
///     r_weight: 1e-3,
///     disturbance: DisturbanceKind::None,
/// };
/// let cache = IdealRunCache::new();
/// let key = LoopKey::new(&spec);
/// let a = cache.get_or_run_at(key.at(spec.ts))?;
/// let b = cache.get_or_run_at(key.at(spec.ts))?;
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// assert_eq!(a.cost.to_bits(), b.cost.to_bits());
/// assert_eq!(a.cost.to_bits(), run_ideal(&spec)?.cost.to_bits());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Default)]
pub struct IdealRunCache(DigestMemo<LoopResult>);

impl Deref for IdealRunCache {
    type Target = DigestMemo<LoopResult>;

    fn deref(&self) -> &DigestMemo<LoopResult> {
        &self.0
    }
}

impl IdealRunCache {
    /// An empty memo table.
    pub fn new() -> Self {
        IdealRunCache::default()
    }

    /// The ideal run at `at`, looked up by its precomputed digest; the
    /// spec is built and simulated only on a miss.
    ///
    /// # Errors
    ///
    /// Propagates [`run_ideal`] errors; failures are not cached.
    pub fn get_or_run_at(&self, at: LoopAt<'_>) -> Result<Arc<LoopResult>, CoreError> {
        self.0
            .get_or_compute(at.digest(), || Self::run(at))
            .map(|(result, _)| result)
    }

    /// The entry a miss at `at` stores.
    fn run(at: LoopAt<'_>) -> Result<LoopResult, CoreError> {
        run_ideal(&at.spec()).map(LoopResult::into_metric_grade)
    }
}

/// Content digest of one scheduled (possibly faulty) co-simulation:
/// the `loop_digest` ([`loop_spec_digest`] of the run's spec: plant,
/// gains, scaled period, horizon, disturbance — the period *scale* axis
/// lives here), the adequation
/// `schedule_digest` from [`ecl_aaa::schedule_digest`] (algorithm graph,
/// architecture tariffs, WCET table, policy — everything delay-graph
/// synthesis reads beyond the spec), and the [`FaultPlan::digest`] with
/// a presence marker (a nominal run can never alias a faulty one).
///
/// `schedule_digest` must be the digest of the exact inputs that
/// produced `schedule` — the fleet already holds it from
/// [`ecl_aaa::ScheduleCache::get_or_compute_in`].
pub fn scheduled_run_digest(
    loop_digest: u64,
    schedule_digest: u64,
    plan: Option<&FaultPlan>,
) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(loop_digest);
    h.write_u64(schedule_digest);
    match plan {
        None => h.write_u64(0),
        Some(p) => {
            h.write_u64(1);
            h.write_u64(p.digest());
        }
    }
    h.finish()
}

/// The scheduled-run memo: a [`DigestMemo`] of
/// [`run_scheduled`]/[`run_scheduled_faulty`] results keyed by
/// [`scheduled_run_digest`].
///
/// Unmemoized, scheduled co-simulation is most of a sweep's time, and a
/// sweep pigeonholes heavily on (loop, schedule, fault-plan) triples:
/// quantized WCET tables bound the schedule digests, the period-scale
/// axis bounds the loop digests, and zero-rate fault axes collapse onto
/// the nominal plan. Most of that time is therefore recomputation of
/// byte-identical [`LoopResult`]s — this
/// table, shared by the sweep workers beside [`IdealRunCache`] and
/// [`ecl_aaa::ScheduleCache`], answers them from memory. Counters,
/// seeding and snapshots are the memo's, reached through `Deref`.
/// Entries hold only the metrics-grade state
/// [`LoopResult::to_metric_bytes`] persists: no raw trace.
#[derive(Debug, Default)]
pub struct ScheduledRunCache(DigestMemo<LoopResult>);

impl Deref for ScheduledRunCache {
    type Target = DigestMemo<LoopResult>;

    fn deref(&self) -> &DigestMemo<LoopResult> {
        &self.0
    }
}

impl ScheduledRunCache {
    /// An empty memo table.
    pub fn new() -> Self {
        ScheduledRunCache::default()
    }

    /// The scheduled run for the given inputs, co-simulating only on a
    /// cache miss: [`get_or_run_at`](ScheduledRunCache::get_or_run_at)
    /// at `spec`'s own period.
    ///
    /// # Errors
    ///
    /// Propagates [`simulate`] errors; failures are not cached.
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_run(
        &self,
        spec: &LoopSpec,
        alg: &AlgorithmGraph,
        io: &IoMap,
        schedule: &Schedule,
        arch: &ArchitectureGraph,
        schedule_digest: u64,
        plan: Option<&FaultPlan>,
    ) -> Result<(Arc<LoopResult>, u64, bool, CosimPhases), CoreError> {
        let key = LoopKey::new(spec);
        self.get_or_run_at(
            key.at(spec.ts),
            alg,
            io,
            schedule,
            arch,
            schedule_digest,
            plan,
        )
    }

    /// The scheduled run of the loop at `at`, looked up by its
    /// precomputed digest; the spec is built and co-simulated only on a
    /// miss. `plan: None` is the nominal [`run_scheduled`]; `Some(plan)`
    /// is [`run_scheduled_faulty`] (the plan is cloned only when a
    /// simulation actually runs). `schedule_digest` must be the
    /// adequation digest of the inputs that produced `schedule`.
    ///
    /// Beside the run, returns its [`scheduled_run_digest`] key, whether
    /// *this* lookup was answered without simulating, and the run's
    /// [`CosimPhases`] (zero on a hit — nothing was simulated). The hit
    /// flag and the phases are wall-clock observations: sidecar-only.
    ///
    /// # Errors
    ///
    /// Propagates [`simulate`] errors; failures are not cached.
    #[allow(clippy::too_many_arguments)]
    pub fn get_or_run_at(
        &self,
        at: LoopAt<'_>,
        alg: &AlgorithmGraph,
        io: &IoMap,
        schedule: &Schedule,
        arch: &ArchitectureGraph,
        schedule_digest: u64,
        plan: Option<&FaultPlan>,
    ) -> Result<(Arc<LoopResult>, u64, bool, CosimPhases), CoreError> {
        let key = scheduled_run_digest(at.digest(), schedule_digest, plan);
        let mut phases = CosimPhases::default();
        let (result, hit) = self.0.get_or_compute(key, || {
            Self::run(at, alg, io, schedule, arch, plan, &mut phases)
        })?;
        Ok((result, key, hit, phases))
    }

    /// The entry a miss stores, with the measured phases of its run.
    fn run(
        at: LoopAt<'_>,
        alg: &AlgorithmGraph,
        io: &IoMap,
        schedule: &Schedule,
        arch: &ArchitectureGraph,
        plan: Option<&FaultPlan>,
        phases: &mut CosimPhases,
    ) -> Result<LoopResult, CoreError> {
        let activation = Activation::scheduled(alg, io, schedule, arch, plan.cloned());
        let (result, split) = simulate(&at.spec(), activation, &mut Collector::noop(), "")?;
        *phases = split;
        Ok(result.into_metric_grade())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_aaa::{adequation, AdequationOptions};
    use ecl_control::{c2d_zoh, dlqr, plants};

    use crate::translate::{uniform_timing, ControlLawSpec};

    /// The sweep pool moves loop descriptions and results across worker
    /// threads; this fails to compile if a non-`Send` member sneaks in.
    #[test]
    fn loop_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<LoopSpec>();
        assert_send::<LoopResult>();
    }

    fn us(v: i64) -> TimeNs {
        TimeNs::from_micros(v)
    }

    fn dc_motor_spec() -> LoopSpec {
        let plant = plants::dc_motor();
        let dss = c2d_zoh(&plant.sys, plant.ts).unwrap();
        let lqr = dlqr(&dss, &Mat::identity(2), &Mat::diag(&[0.1])).unwrap();
        LoopSpec {
            plant: plant.sys,
            n_controls: 1,
            x0: vec![1.0, 0.0],
            feedback: lqr.k,
            input_memory: None,
            ts: plant.ts,
            horizon: 2.0,
            q_weight: 1.0,
            r_weight: 0.1,
            disturbance: DisturbanceKind::None,
        }
    }

    /// The metrics-grade byte codec preserves every field the untraced
    /// fleet path reads (bit-exact cost/period, instants, counters,
    /// histograms, activity) while dropping the raw trace, and a memo
    /// cache seeded from the bytes serves lookups with zero computes.
    #[test]
    fn metric_codec_round_trips_and_seeds_caches() {
        let spec = dc_motor_spec();
        let fresh = run_ideal(&spec).unwrap();
        let bytes = fresh.to_metric_bytes();
        let back = LoopResult::from_metric_bytes(&bytes).unwrap();
        assert_eq!(back.cost.to_bits(), fresh.cost.to_bits());
        assert_eq!(back.ts.to_bits(), fresh.ts.to_bits());
        assert_eq!(back.sample_instants, fresh.sample_instants);
        assert_eq!(back.actuation_instants, fresh.actuation_instants);
        assert_eq!(back.sampling_hist, fresh.sampling_hist);
        assert_eq!(back.actuation_hist, fresh.actuation_hist);
        assert_eq!(back.activity, fresh.activity);
        assert_eq!(back.stats.events_delivered, fresh.stats.events_delivered);
        assert_eq!(back.stats.ode, fresh.stats.ode);
        // Derived metrics are byte-identical too.
        assert_eq!(
            format!("{:?}", back.latency_report().unwrap()),
            format!("{:?}", fresh.latency_report().unwrap())
        );
        // Canonical: re-encoding the decode reproduces the bytes.
        assert_eq!(back.to_metric_bytes(), bytes);
        // The raw trace is intentionally not persisted.
        assert!(back.result.signal("x0").is_none());

        // Corruption decodes to a typed error at every truncation point.
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                LoopResult::from_metric_bytes(&bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
    }

    /// A computed memo entry and the same entry round-tripped through the
    /// disk codec are one value, field for field, in both run memos.
    #[test]
    fn memo_entries_have_one_form() {
        let same_as_decoded = |entry: &LoopResult| {
            let back = LoopResult::from_metric_bytes(&entry.to_metric_bytes()).unwrap();
            assert_eq!(format!("{back:?}"), format!("{entry:?}"));
            assert!(entry.result.event_log().is_empty());
            assert!(entry.stats.activation_counts().is_empty());
        };
        let ideal = IdealRunCache::new();
        let spec = dc_motor_spec();
        let key = LoopKey::new(&spec);
        same_as_decoded(&ideal.get_or_run_at(key.at(spec.ts)).unwrap());
        let (spec, alg, io, schedule, arch) = split_fixture();
        let scheduled = ScheduledRunCache::new();
        let (entry, ..) = scheduled
            .get_or_run(&spec, &alg, &io, &schedule, &arch, 7, None)
            .unwrap();
        same_as_decoded(&entry);
    }

    #[test]
    fn ideal_loop_regulates_to_zero() {
        let spec = dc_motor_spec();
        let r = run_ideal(&spec).unwrap();
        let x0 = r.result.signal("x0").unwrap();
        assert!(x0.values()[0] > 0.9, "starts at x0");
        assert!(
            x0.last().unwrap().1.abs() < 0.02,
            "regulated, got {}",
            x0.last().unwrap().1
        );
        assert!(r.cost > 0.0 && r.cost.is_finite());
        // One sampling instant per period, zero latency.
        let rep = r.latency_report().unwrap();
        assert_eq!(rep.mean_actuation(), TimeNs::ZERO);
        assert_eq!(rep.worst_jitter(), TimeNs::ZERO);
    }

    /// Flipping any single [`LoopSpec`] field [`run_ideal`] reads must
    /// change [`loop_spec_digest`], and no two flips may alias. Every
    /// digest is also taken through a [`LoopKey`] of the flipped spec, and
    /// the period flip through the baseline's key, reused.
    #[test]
    fn loop_spec_digest_flips_on_every_field() {
        let base = dc_motor_spec();
        let base_key = LoopKey::new(&base);
        assert_eq!(base_key.digest(base.ts), loop_spec_digest(&base));
        let mut digests = vec![("baseline", loop_spec_digest(&base))];
        let mut check = |label: &'static str, spec: &LoopSpec| {
            let d = loop_spec_digest(spec);
            assert_eq!(
                LoopKey::new(spec).digest(spec.ts),
                d,
                "'{label}' through its key"
            );
            for (prev, pd) in &digests {
                assert_ne!(*pd, d, "digest of '{label}' collides with '{prev}'");
            }
            digests.push((label, d));
        };

        let mut s = dc_motor_spec();
        s.plant = {
            let mut a = s.plant.a().clone();
            a[(0, 0)] += 1e-9;
            StateSpace::new(
                a,
                s.plant.b().clone(),
                s.plant.c().clone(),
                s.plant.d().clone(),
            )
            .unwrap()
        };
        check("plant A entry", &s);

        let mut s = dc_motor_spec();
        s.x0[1] = 1e-12;
        check("x0 entry", &s);

        let mut s = dc_motor_spec();
        s.feedback[(0, 0)] += 1e-9;
        check("feedback entry", &s);

        let mut s = dc_motor_spec();
        s.input_memory = Some(Mat::diag(&[0.0]));
        check("input-memory presence", &s);

        let mut s = dc_motor_spec();
        s.input_memory = Some(Mat::diag(&[0.25]));
        check("input-memory entry", &s);

        let mut s = dc_motor_spec();
        s.ts *= 1.25;
        assert_eq!(base_key.digest(s.ts), loop_spec_digest(&s));
        assert_eq!(base_key.at(s.ts).digest(), loop_spec_digest(&s));
        check("ts", &s);

        let mut s = dc_motor_spec();
        s.horizon += 0.5;
        check("horizon", &s);

        let mut s = dc_motor_spec();
        s.q_weight = 2.0;
        check("q_weight", &s);

        let mut s = dc_motor_spec();
        s.r_weight = 0.2;
        check("r_weight", &s);

        let mut s = dc_motor_spec();
        s.disturbance = DisturbanceKind::Noise {
            std_dev: 0.0,
            seed: 0,
        };
        check("disturbance kind", &s);

        let mut s = dc_motor_spec();
        s.disturbance = DisturbanceKind::Noise {
            std_dev: 0.1,
            seed: 0,
        };
        check("disturbance std_dev", &s);

        let mut s = dc_motor_spec();
        s.disturbance = DisturbanceKind::Noise {
            std_dev: 0.1,
            seed: 1,
        };
        check("disturbance seed", &s);
    }

    /// A memoized ideal run is bit-identical to a fresh [`run_ideal`] in
    /// every metrics-grade field: cost bits, instants, engine totals.
    #[test]
    fn ideal_memo_equals_fresh_run() {
        let mut spec = dc_motor_spec();
        spec.horizon = 0.5;
        let cache = IdealRunCache::new();
        assert!(cache.is_empty());
        let key = LoopKey::new(&spec);
        let memo = cache.get_or_run_at(key.at(spec.ts)).unwrap();
        let again = cache.get_or_run_at(key.at(spec.ts)).unwrap();
        assert!(Arc::ptr_eq(&memo, &again));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.lookups(), 2);

        let fresh = run_ideal(&spec).unwrap();
        assert_eq!(memo.cost.to_bits(), fresh.cost.to_bits());
        assert_eq!(memo.sample_instants, fresh.sample_instants);
        assert_eq!(memo.actuation_instants, fresh.actuation_instants);
        assert_eq!(memo.stats, fresh.stats.clone().without_activations());
        assert_eq!(memo.activity, fresh.activity);

        // A different period is a distinct entry, not a stale hit.
        let other = cache.get_or_run_at(key.at(spec.ts * 1.5)).unwrap();
        assert_ne!(other.cost.to_bits(), memo.cost.to_bits());
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn scheduled_loop_shows_latency_and_costs_more() {
        // Aggressive LQR (cheap control) on the DC motor: the tighter the
        // loop, the more implementation latency hurts (Cervin et al. 2003).
        let plant = plants::dc_motor();
        let dss = c2d_zoh(&plant.sys, plant.ts).unwrap();
        let lqr = dlqr(&dss, &Mat::diag(&[10.0, 1.0]), &Mat::diag(&[1e-3])).unwrap();
        let spec = LoopSpec {
            plant: plant.sys,
            n_controls: 1,
            x0: vec![1.0, 0.0],
            feedback: lqr.k,
            input_memory: None,
            ts: plant.ts,
            horizon: 1.0,
            q_weight: 1.0,
            r_weight: 1e-3,
            disturbance: DisturbanceKind::None,
        };
        let ideal = run_ideal(&spec).unwrap();

        // Distribute over two ECUs with a slow bus: sensor+actuator pinned
        // on ecu0, control on ecu1 — actuation latency near the full
        // period (Ts = 50 ms).
        let law = ControlLawSpec::monolithic("lqr", 2, 1);
        let (alg, io) = law.to_algorithm().unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("ecu0", "arm");
        let p1 = arch.add_processor("ecu1", "arm");
        arch.add_bus("can", &[p0, p1], TimeNs::from_millis(8), us(10))
            .unwrap();
        let mut db = uniform_timing(&alg, &io, us(200), TimeNs::from_millis(18));
        // Pin I/O on ecu0, compute on ecu1.
        for &s in io.sensors.iter().chain(&io.actuators) {
            db.forbid(s, p1);
        }
        db.forbid(io.stages[0], p0);
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        schedule.validate(&alg, &arch).unwrap();
        assert!(schedule.makespan() <= TimeNs::from_millis(50));

        let implemented = run_scheduled(&spec, &alg, &io, &schedule, &arch).unwrap();
        let rep = implemented.latency_report().unwrap();
        // Actuation waits for two bus crossings + compute: >> 20 ms.
        assert!(
            rep.mean_actuation() > TimeNs::from_millis(20),
            "mean actuation latency {}",
            rep.mean_actuation()
        );
        // Implementation latency degrades the quadratic cost.
        assert!(
            implemented.cost > ideal.cost * 1.05,
            "ideal {} vs implemented {}",
            ideal.cost,
            implemented.cost
        );
    }

    /// The 2-ECU split LQR fixture of
    /// `scheduled_loop_shows_latency_and_costs_more`.
    fn split_fixture() -> (LoopSpec, AlgorithmGraph, IoMap, Schedule, ArchitectureGraph) {
        let plant = plants::dc_motor();
        let dss = c2d_zoh(&plant.sys, plant.ts).unwrap();
        let lqr = dlqr(&dss, &Mat::diag(&[10.0, 1.0]), &Mat::diag(&[1e-3])).unwrap();
        let spec = LoopSpec {
            plant: plant.sys,
            n_controls: 1,
            x0: vec![1.0, 0.0],
            feedback: lqr.k,
            input_memory: None,
            ts: plant.ts,
            horizon: 1.0,
            q_weight: 1.0,
            r_weight: 1e-3,
            disturbance: DisturbanceKind::None,
        };
        let law = ControlLawSpec::monolithic("lqr", 2, 1);
        let (alg, io) = law.to_algorithm().unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("ecu0", "arm");
        let p1 = arch.add_processor("ecu1", "arm");
        arch.add_bus("can", &[p0, p1], TimeNs::from_millis(2), us(10))
            .unwrap();
        let mut db = uniform_timing(&alg, &io, us(200), TimeNs::from_millis(5));
        for &s in io.sensors.iter().chain(&io.actuators) {
            db.forbid(s, p1);
        }
        db.forbid(io.stages[0], p0);
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        (spec, alg, io, schedule, arch)
    }

    #[test]
    fn faulty_run_with_trivial_plan_matches_run_scheduled_exactly() {
        use crate::faults::{FaultConfig, FaultPlan};
        let (spec, alg, io, schedule, arch) = split_fixture();
        let baseline = run_scheduled(&spec, &alg, &io, &schedule, &arch).unwrap();
        let periods = (spec.horizon / spec.ts).floor() as u32;
        let plan = FaultPlan::generate(
            &FaultConfig {
                seed: 123,
                ..FaultConfig::default()
            },
            &schedule,
            &arch,
            periods,
        )
        .unwrap();
        assert!(plan.is_trivial());
        let faulty = run_scheduled_faulty(&spec, &alg, &io, &schedule, &arch, plan).unwrap();
        // Bit-identical: same instants, same cost, same engine counters.
        assert_eq!(baseline.sample_instants, faulty.sample_instants);
        assert_eq!(baseline.actuation_instants, faulty.actuation_instants);
        assert!(baseline.cost == faulty.cost, "costs must be bit-identical");
        assert_eq!(baseline.stats, faulty.stats);
    }

    #[test]
    fn faulty_run_degrades_but_keeps_actuating() {
        use crate::faults::{FaultConfig, FaultPlan};
        let (spec, alg, io, schedule, arch) = split_fixture();
        let baseline = run_scheduled(&spec, &alg, &io, &schedule, &arch).unwrap();
        let periods = (spec.horizon / spec.ts).floor() as u32;
        // Every frame is dropped: the controller-side rendezvous is
        // forced at the end of each period, the holds keep stale values.
        let plan = FaultPlan::generate(
            &FaultConfig {
                frame_loss_rate: 1.0,
                max_retries: 1,
                ..FaultConfig::default()
            },
            &schedule,
            &arch,
            periods,
        )
        .unwrap();
        assert!(!plan.is_trivial());
        let faulty = run_scheduled_faulty(&spec, &alg, &io, &schedule, &arch, plan).unwrap();
        // The loop still actuates once per period — forced fires land a
        // period late, so the last one completes past the horizon.
        let baseline_n = baseline.actuation_instants[0].len();
        let faulty_n = faulty.actuation_instants[0].len();
        assert!(
            faulty_n >= baseline_n - 1 && faulty_n > 1,
            "degraded loop stopped actuating: {faulty_n} vs {baseline_n}"
        );
        // The strict report rejects the forced cross-period sampling; the
        // lenient one counts overruns instead.
        let rep = faulty.latency_report_lenient().unwrap();
        assert!(rep.total_overruns() > 0, "forced fires must overrun");
        // Acting on stale state costs control performance.
        assert!(
            faulty.cost > baseline.cost,
            "faulty {} vs baseline {}",
            faulty.cost,
            baseline.cost
        );
    }

    /// The plant behind a wrapper that keeps [`Block::linear_dynamics`]
    /// at its default, so the engine integrates it through
    /// [`Block::derivatives`].
    struct Opaque(StateSpaceCt);

    impl Block for Opaque {
        fn type_name(&self) -> &'static str {
            self.0.type_name()
        }
        fn ports(&self) -> ecl_sim::PortSpec {
            self.0.ports()
        }
        fn feedthrough(&self, input: usize) -> bool {
            self.0.feedthrough(input)
        }
        fn depends_on_time(&self) -> bool {
            self.0.depends_on_time()
        }
        fn num_states(&self) -> usize {
            self.0.num_states()
        }
        fn init_states(&self, x: &mut [f64]) {
            self.0.init_states(x);
        }
        fn derivatives(&self, t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
            self.0.derivatives(t, x, u, dx);
        }
        fn outputs(&mut self, t: f64, x: &[f64], u: &[f64], y: &mut [f64]) {
            self.0.outputs(t, x, u, y);
        }
        ecl_sim::impl_block_any!();
    }

    /// An untraced [`simulate`] whose plant is `plant_block`'s.
    fn simulate_with<P: Block>(
        spec: &LoopSpec,
        activation: Activation<'_>,
        plant_block: impl FnOnce(StateSpaceCt) -> P,
    ) -> LoopResult {
        let lp = Loop::from(spec);
        let mut lm = assemble(lp.lower().unwrap(), &activation, plant_block).unwrap();
        wire(&mut lm, activation, TimeNs::from_secs_f64(spec.ts)).unwrap();
        finish_traced(lp, lm, "", &mut Collector::noop()).unwrap()
    }

    /// Everything a run produced, floats as bits: the metric bytes (cost,
    /// instants, counters, histograms, activity), every probe sample and
    /// the event log.
    fn run_bytes(run: &LoopResult) -> (Vec<u8>, Vec<u64>, Vec<ecl_sim::EventRecord>) {
        let samples = run
            .result
            .signals()
            .flat_map(|(_, sig)| sig.times().iter().chain(sig.values()))
            .map(|v| v.to_bits())
            .collect();
        (
            run.to_metric_bytes(),
            samples,
            run.result.event_log().to_vec(),
        )
    }

    /// Exp17's deployment: the fleet's 50 ms DC-motor LQR loop on an I/O
    /// ECU and a control ECU joined by a 200 µs CAN bus, I/O at 50 µs and
    /// the law at 500 µs.
    fn exp17_fixture() -> (LoopSpec, AlgorithmGraph, IoMap, Schedule, ArchitectureGraph) {
        let (mut spec, ..) = split_fixture();
        spec.horizon = 0.05;
        let (alg, io) = ControlLawSpec::monolithic("law", 2, 1)
            .to_algorithm()
            .unwrap();
        let mut arch = ArchitectureGraph::new();
        let io_ecu = arch.add_processor("io_ecu", "arm");
        let control_ecu = arch.add_processor("control_ecu", "arm");
        arch.add_bus("can", &[io_ecu, control_ecu], us(200), us(10))
            .unwrap();
        let mut db = uniform_timing(&alg, &io, us(50), us(500));
        for &s in io.sensors.iter().chain(&io.actuators) {
            db.forbid(s, control_ecu);
        }
        for &f in &io.stages {
            db.forbid(f, io_ecu);
        }
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        (spec, alg, io, schedule, arch)
    }

    /// The linear right-hand side the engine picks for the plant moves no
    /// bit and no counter: exp17's ideal, scheduled and frame-loss runs
    /// equal the runs whose plant hides its `(A, B)`.
    #[test]
    fn linear_plant_kernel_matches_the_derivative_path_on_exp17() {
        use crate::faults::{FaultConfig, FaultPlan};
        let (spec, alg, io, schedule, arch) = exp17_fixture();
        let periods = (spec.horizon / spec.ts).floor() as u32 + 1;
        let plan = FaultPlan::generate(
            &FaultConfig {
                frame_loss_rate: 1.0,
                max_retries: 1,
                ..FaultConfig::default()
            },
            &schedule,
            &arch,
            periods,
        )
        .unwrap();
        assert!(!plan.is_trivial());
        let activations = || {
            [
                Activation::Ideal,
                Activation::scheduled(&alg, &io, &schedule, &arch, None),
                Activation::scheduled(&alg, &io, &schedule, &arch, Some(plan.clone())),
            ]
        };
        for (k, (linear, opaque)) in activations().into_iter().zip(activations()).enumerate() {
            let linear = simulate_with(&spec, linear, |plant| plant);
            let opaque = simulate_with(&spec, opaque, Opaque);
            assert!(linear.stats.ode.rhs_evals > 0, "activation {k}");
            assert_eq!(linear.stats, opaque.stats, "activation {k}");
            assert_eq!(run_bytes(&linear), run_bytes(&opaque), "activation {k}");
        }
    }

    /// A memoized scheduled run is bit-identical to a fresh
    /// [`run_scheduled`], and the faulty variant to a fresh
    /// [`run_scheduled_faulty`]; nominal and faulty runs of the same
    /// deployment occupy distinct slots.
    #[test]
    fn scheduled_memo_equals_fresh_run_nominal_and_faulty() {
        use crate::faults::{FaultConfig, FaultPlan};
        let (spec, alg, io, schedule, arch) = split_fixture();
        let sched_digest = 0xdead_beef; // opaque to the memo; any stable tag
        let cache = ScheduledRunCache::new();
        assert!(cache.is_empty());

        let (memo, key, hit, _) = cache
            .get_or_run(&spec, &alg, &io, &schedule, &arch, sched_digest, None)
            .unwrap();
        assert_eq!(
            key,
            scheduled_run_digest(loop_spec_digest(&spec), sched_digest, None)
        );
        assert!(!hit);
        let (again, _, hit, phases) = cache
            .get_or_run(&spec, &alg, &io, &schedule, &arch, sched_digest, None)
            .unwrap();
        assert!(hit);
        assert_eq!(phases.synthesis_wall_ns + phases.simulation_wall_ns, 0);
        assert!(Arc::ptr_eq(&memo, &again));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        let fresh = run_scheduled(&spec, &alg, &io, &schedule, &arch).unwrap();
        assert_eq!(memo.cost.to_bits(), fresh.cost.to_bits());
        assert_eq!(memo.sample_instants, fresh.sample_instants);
        assert_eq!(memo.actuation_instants, fresh.actuation_instants);
        assert_eq!(memo.stats, fresh.stats.without_activations());
        assert_eq!(memo.activity, fresh.activity);

        // A faulty run of the same deployment is a distinct slot and
        // bit-equals its own fresh run.
        let periods = (spec.horizon / spec.ts).floor() as u32;
        let plan = FaultPlan::generate(
            &FaultConfig {
                seed: 9,
                frame_loss_rate: 0.5,
                max_retries: 2,
                ..FaultConfig::default()
            },
            &schedule,
            &arch,
            periods,
        )
        .unwrap();
        assert!(!plan.is_trivial());
        let (faulty_memo, ..) = cache
            .get_or_run(
                &spec,
                &alg,
                &io,
                &schedule,
                &arch,
                sched_digest,
                Some(&plan),
            )
            .unwrap();
        assert_eq!(cache.len(), 2);
        let faulty_fresh =
            run_scheduled_faulty(&spec, &alg, &io, &schedule, &arch, plan.clone()).unwrap();
        assert_eq!(faulty_memo.cost.to_bits(), faulty_fresh.cost.to_bits());
        assert_eq!(faulty_memo.sample_instants, faulty_fresh.sample_instants);
        assert_eq!(
            faulty_memo.actuation_instants,
            faulty_fresh.actuation_instants
        );
        assert_eq!(faulty_memo.stats, faulty_fresh.stats.without_activations());

        // A different schedule digest must not alias, even with an
        // identical spec and plan.
        cache
            .get_or_run(&spec, &alg, &io, &schedule, &arch, sched_digest + 1, None)
            .unwrap();
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.races(), 0, "serial lookups cannot double-compute");
    }

    /// The memo key separates nominal from faulty even when the plan is
    /// trivial: `run_scheduled_faulty` with a trivial plan is
    /// bit-identical to `run_scheduled`, but the key space must not rely
    /// on that — a presence marker keeps the mapping injective.
    #[test]
    fn scheduled_run_digest_marks_fault_plan_presence() {
        let spec = dc_motor_spec();
        let trivial = FaultPlan::trivial(10);
        let nominal = scheduled_run_digest(loop_spec_digest(&spec), 1, None);
        let faulty = scheduled_run_digest(loop_spec_digest(&spec), 1, Some(&trivial));
        assert_ne!(nominal, faulty);
        // And the key tracks each component.
        assert_ne!(
            nominal,
            scheduled_run_digest(loop_spec_digest(&spec), 2, None)
        );
        let mut scaled = spec.clone();
        scaled.ts *= 1.25;
        assert_ne!(
            nominal,
            scheduled_run_digest(loop_spec_digest(&scaled), 1, None)
        );
        let other_plan = FaultPlan::trivial(11);
        assert_ne!(
            faulty,
            scheduled_run_digest(loop_spec_digest(&spec), 1, Some(&other_plan)),
            "plans with different digests must key differently"
        );
    }

    #[test]
    fn traced_scheduled_run_streams_deterministic_telemetry() {
        use ecl_telemetry::RecordingSink;
        let spec = dc_motor_spec();
        let law = ControlLawSpec::monolithic("lqr", 2, 1);
        let (alg, io) = law.to_algorithm().unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("ecu0", "arm");
        let p1 = arch.add_processor("ecu1", "arm");
        arch.add_bus("can", &[p0, p1], TimeNs::from_millis(2), us(10))
            .unwrap();
        let mut db = uniform_timing(&alg, &io, us(200), TimeNs::from_millis(5));
        for &s in io.sensors.iter().chain(&io.actuators) {
            db.forbid(s, p1);
        }
        db.forbid(io.stages[0], p0);
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();

        let run_once = || {
            let mut tel = Collector::new(RecordingSink::default());
            emit_schedule_timeline(&mut tel, &schedule, &alg, &arch, spec.ts, spec.horizon)
                .unwrap();
            let activation = Activation::scheduled(&alg, &io, &schedule, &arch, None);
            let (r, _) = simulate(&spec, activation, &mut tel, "").unwrap();
            (r, tel.into_sink())
        };
        let (r, sink) = run_once();

        // Timeline slices cover every op and comm of every period.
        let periods = (spec.horizon / spec.ts).floor() as usize;
        let n_slices = sink
            .events()
            .iter()
            .filter(|e| matches!(e, ecl_telemetry::Event::Slice { .. }))
            .count();
        assert_eq!(
            n_slices,
            periods * (schedule.ops().len() + schedule.comms().len())
        );
        // One latency counter per I/O per recorded period.
        let n_counters = sink
            .events()
            .iter()
            .filter(|e| matches!(e, ecl_telemetry::Event::Counter { .. }))
            .count();
        let n_observations: usize = r
            .sample_instants
            .iter()
            .chain(&r.actuation_instants)
            .map(Vec::len)
            .sum();
        assert_eq!(n_counters, n_observations);
        // No wall-clock events: the stream is fully sim-derived.
        assert!(!sink.events().iter().any(|e| matches!(
            e,
            ecl_telemetry::Event::SpanBegin { .. } | ecl_telemetry::Event::SpanEnd { .. }
        )));

        // Histograms agree with the exact latency statistics.
        let rep = r.latency_report().unwrap();
        for (series, hist) in rep
            .sampling
            .iter()
            .zip(&r.sampling_hist)
            .chain(rep.actuation.iter().zip(&r.actuation_hist))
        {
            let st = series.stats().unwrap();
            assert_eq!(hist.count(), series.len() as u64);
            assert_eq!(hist.min(), Some(st.min.as_nanos()));
            assert_eq!(hist.max(), Some(st.max.as_nanos()));
            let sm = hist.summary();
            assert!((sm.mean_ns - st.mean.as_nanos() as f64).abs() <= 1.0);
            assert!(sm.min_ns <= sm.p50_ns && sm.p50_ns <= sm.p95_ns);
            assert!(sm.p95_ns <= sm.p99_ns && sm.p99_ns <= sm.max_ns);
        }

        // Hot-loop counters and activity are populated.
        assert!(r.stats.events_delivered > 0);
        assert!(r.stats.ode.steps_accepted > 0);
        assert!(!r.activity.is_empty());
        assert!(r.activity.windows(2).all(|w| w[0].1 >= w[1].1));

        // Byte-identical across identical runs.
        let (r2, sink2) = run_once();
        assert_eq!(sink.render(), sink2.render());
        assert_eq!(r.stats, r2.stats);
    }

    /// A recording collector only observes: for every activation and
    /// loop flavour, the traced run is bit-identical to the untraced one.
    #[test]
    fn tracing_changes_no_result_bit() {
        use crate::faults::{FaultConfig, FaultPlan};
        use ecl_telemetry::RecordingSink;
        let (spec, alg, io, schedule, arch) = split_fixture();
        let periods = (spec.horizon / spec.ts).floor() as u32;
        let lossy = FaultConfig {
            seed: 5,
            frame_loss_rate: 0.5,
            max_retries: 1,
            ..FaultConfig::default()
        };
        let plan = FaultPlan::generate(&lossy, &schedule, &arch, periods).unwrap();
        assert!(!plan.is_trivial());
        let lqg = lqg_spec();
        let law = ControlLawSpec::monolithic("lqg", 1, 1);
        let (lqg_alg, lqg_io) = law.to_algorithm().unwrap();
        let mut lqg_arch = ArchitectureGraph::new();
        lqg_arch.add_processor("ecu0", "arm");
        let db = uniform_timing(&lqg_alg, &lqg_io, us(200), TimeNs::from_millis(5));
        let lqg_schedule =
            adequation(&lqg_alg, &lqg_arch, &db, AdequationOptions::default()).unwrap();

        type Case<'a> = (&'a str, Loop<'a>, Box<dyn Fn() -> Activation<'a> + 'a>);
        let cases: Vec<Case<'_>> = vec![
            ("ideal", (&spec).into(), Box::new(|| Activation::Ideal)),
            (
                "scheduled",
                (&spec).into(),
                Box::new(|| Activation::scheduled(&alg, &io, &schedule, &arch, None)),
            ),
            (
                "faulty",
                (&spec).into(),
                Box::new(|| Activation::scheduled(&alg, &io, &schedule, &arch, Some(plan.clone()))),
            ),
            (
                "output ideal",
                (&lqg).into(),
                Box::new(|| Activation::Ideal),
            ),
            (
                "output scheduled",
                (&lqg).into(),
                Box::new(|| {
                    Activation::scheduled(&lqg_alg, &lqg_io, &lqg_schedule, &lqg_arch, None)
                }),
            ),
        ];
        for (label, lp, activation) in cases {
            let (plain, _) = simulate(lp, activation(), &mut Collector::noop(), "").unwrap();
            let mut tel = Collector::new(RecordingSink::default());
            let (traced, _) = simulate(lp, activation(), &mut tel, "t:").unwrap();
            assert!(!tel.sink().events().is_empty(), "{label}: nothing recorded");
            assert_eq!(traced.cost.to_bits(), plain.cost.to_bits(), "{label}");
            assert_eq!(traced.sample_instants, plain.sample_instants, "{label}");
            assert_eq!(
                traced.actuation_instants, plain.actuation_instants,
                "{label}"
            );
            assert_eq!(traced.stats, plain.stats, "{label}");
            assert_eq!(traced.sampling_hist, plain.sampling_hist, "{label}");
            assert_eq!(traced.actuation_hist, plain.actuation_hist, "{label}");
            assert_eq!(traced.activity, plain.activity, "{label}");
        }
    }

    #[test]
    fn spec_validation_catches_shape_errors() {
        let mut spec = dc_motor_spec();
        spec.x0 = vec![1.0];
        assert!(run_ideal(&spec).is_err());
        let mut spec = dc_motor_spec();
        spec.feedback = Mat::zeros(2, 2);
        assert!(run_ideal(&spec).is_err());
        let mut spec = dc_motor_spec();
        spec.n_controls = 5;
        assert!(run_ideal(&spec).is_err());
        let mut spec = dc_motor_spec();
        spec.input_memory = Some(Mat::zeros(2, 2));
        assert!(run_ideal(&spec).is_err());
        // Periods and horizons that are not positive whole-nanosecond
        // times are refused, not panicked on.
        for bad in [0.0, 1e-12, -1.0, f64::NAN, f64::INFINITY, 1e10] {
            let mut spec = dc_motor_spec();
            spec.ts = bad;
            assert!(run_ideal(&spec).is_err(), "ts = {bad}");
            let mut spec = dc_motor_spec();
            spec.horizon = bad;
            assert!(run_ideal(&spec).is_err(), "horizon = {bad}");
        }
    }

    #[test]
    fn io_shape_mismatch_rejected() {
        let spec = dc_motor_spec();
        let law = ControlLawSpec::monolithic("lqr", 1, 1); // 1 sensor != 2 states
        let (alg, io) = law.to_algorithm().unwrap();
        let mut arch = ArchitectureGraph::new();
        arch.add_processor("ecu0", "arm");
        let db = uniform_timing(&alg, &io, us(10), us(10));
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        assert!(run_scheduled(&spec, &alg, &io, &schedule, &arch).is_err());
    }

    #[test]
    fn noise_disturbance_excites_quarter_car() {
        let plant = plants::quarter_car();
        let dss = c2d_zoh(&plant.sys, plant.ts).unwrap();
        let lqr = dlqr(
            &dss,
            &Mat::identity(4),
            &Mat::from_rows(&[&[1e-4, 0.0], &[0.0, 1e-4]]).unwrap(),
        )
        .unwrap();
        let spec = LoopSpec {
            plant: plant.sys,
            n_controls: 1,
            x0: vec![0.0; 4],
            feedback: lqr.k.block(0, 0, 1, 4).unwrap(),
            input_memory: None,
            ts: plant.ts,
            horizon: 0.5,
            q_weight: 1.0,
            r_weight: 1e-6,
            disturbance: DisturbanceKind::Noise {
                std_dev: 0.5,
                seed: 9,
            },
        };
        let r = run_ideal(&spec).unwrap();
        // Road noise produces non-zero motion from a zero initial state.
        assert!(r.cost > 0.0, "cost {}", r.cost);
    }

    #[test]
    fn input_memory_controller_shape() {
        let mut spec = dc_motor_spec();
        spec.input_memory = Some(Mat::diag(&[0.1]));
        let r = run_ideal(&spec).unwrap();
        assert!(r.cost.is_finite());
    }

    fn lqg_spec() -> OutputLoopSpec {
        use ecl_control::{kalman, lqg};
        let plant = plants::dc_motor();
        let dss = c2d_zoh(&plant.sys, plant.ts).unwrap();
        let gain = dlqr(&dss, &Mat::diag(&[10.0, 1.0]), &Mat::diag(&[1e-2])).unwrap();
        let kf = kalman::design(&dss, &Mat::identity(2).scaled(1e-4), &Mat::diag(&[1e-4])).unwrap();
        let comp = lqg::compensator(&dss, &gain, &kf).unwrap();
        OutputLoopSpec {
            plant: plant.sys,
            n_controls: 1,
            x0: vec![1.0, 0.0],
            compensator: comp,
            ts: plant.ts,
            horizon: 2.0,
            q_weight: 1.0,
            r_weight: 1e-2,
            disturbance: DisturbanceKind::None,
        }
    }

    fn lqg_ideal(spec: &OutputLoopSpec) -> Result<LoopResult, CoreError> {
        simulate(spec, Activation::Ideal, &mut Collector::noop(), "").map(|(r, _)| r)
    }

    fn lqg_scheduled(
        spec: &OutputLoopSpec,
        alg: &AlgorithmGraph,
        io: &IoMap,
        schedule: &Schedule,
        arch: &ArchitectureGraph,
    ) -> Result<LoopResult, CoreError> {
        let activation = Activation::scheduled(alg, io, schedule, arch, None);
        simulate(spec, activation, &mut Collector::noop(), "").map(|(r, _)| r)
    }

    #[test]
    fn lqg_output_feedback_regulates() {
        let spec = lqg_spec();
        let r = lqg_ideal(&spec).unwrap();
        let y = r.result.signal("x0").unwrap();
        assert!(y.values()[0] > 0.9);
        assert!(
            y.last().unwrap().1.abs() < 0.05,
            "output did not regulate: {}",
            y.last().unwrap().1
        );
        // One sampling per period per measured output (only 1 here).
        assert_eq!(r.sample_instants.len(), 1);
        let rep = r.latency_report().unwrap();
        assert_eq!(rep.mean_actuation(), TimeNs::ZERO);
    }

    #[test]
    fn lqg_scheduled_shows_latency_degradation() {
        let spec = lqg_spec();
        let ideal = lqg_ideal(&spec).unwrap();
        // One sensor (the measured speed), one actuator, over the split
        // 2-ECU target with heavy latency.
        let law = ControlLawSpec::monolithic("lqg", 1, 1);
        let (alg, io) = law.to_algorithm().unwrap();
        let mut arch = ArchitectureGraph::new();
        let p0 = arch.add_processor("ecu0", "arm");
        let p1 = arch.add_processor("ecu1", "arm");
        arch.add_bus("can", &[p0, p1], TimeNs::from_millis(8), us(10))
            .unwrap();
        let mut db = uniform_timing(&alg, &io, us(200), TimeNs::from_millis(18));
        for &s in io.sensors.iter().chain(&io.actuators) {
            db.forbid(s, p1);
        }
        db.forbid(io.stages[0], p0);
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        let run = lqg_scheduled(&spec, &alg, &io, &schedule, &arch).unwrap();
        assert!(
            run.cost > ideal.cost,
            "ideal {} vs implemented {}",
            ideal.cost,
            run.cost
        );
        let rep = run.latency_report().unwrap();
        assert!(rep.mean_actuation() > TimeNs::from_millis(20));
    }

    #[test]
    fn output_spec_validation() {
        let good = lqg_spec();
        let mut bad = good.clone();
        bad.n_controls = 2;
        assert!(lqg_ideal(&bad).is_err());
        let mut bad = good.clone();
        bad.x0 = vec![0.0];
        assert!(lqg_ideal(&bad).is_err());
        let mut bad = good.clone();
        bad.ts = good.ts * 2.0; // disagrees with the compensator period
        assert!(lqg_ideal(&bad).is_err());
        for horizon in [0.0, f64::NAN, f64::INFINITY, 1e10] {
            let mut bad = good.clone();
            bad.horizon = horizon;
            assert!(lqg_ideal(&bad).is_err(), "horizon = {horizon}");
        }
        let mut bad = good.clone();
        bad.ts = f64::INFINITY;
        assert!(lqg_ideal(&bad).is_err());
        // Sensor-count mismatch in the scheduled variant.
        let law = ControlLawSpec::monolithic("lqg", 2, 1); // 2 sensors != 1 output
        let (alg, io) = law.to_algorithm().unwrap();
        let mut arch = ArchitectureGraph::new();
        arch.add_processor("ecu0", "arm");
        let db = uniform_timing(&alg, &io, us(10), us(10));
        let schedule = adequation(&alg, &arch, &db, AdequationOptions::default()).unwrap();
        assert!(lqg_scheduled(&good, &alg, &io, &schedule, &arch).is_err());
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        /// A key built once digests any period exactly as the full
        /// [`loop_spec_digest`] of the spec at that period, for periods
        /// in range and for arbitrary bit patterns, and
        /// [`LoopAt::spec`] is that spec.
        #[test]
        fn loop_key_digest_equals_full_digest_at_any_period(
            ts in 1e-4f64..1.0,
            bits in 0u64..u64::MAX,
        ) {
            let s = dc_motor_spec();
            let key = LoopKey::new(&s);
            for ts in [ts, f64::from_bits(bits)] {
                let full = LoopSpec { ts, ..s.clone() };
                proptest::prop_assert_eq!(key.digest(ts), loop_spec_digest(&full));
                let at = key.at(ts);
                proptest::prop_assert_eq!(at.digest(), loop_spec_digest(&full));
                proptest::prop_assert_eq!(format!("{:?}", at.spec()), format!("{full:?}"));
            }
        }
    }
}
