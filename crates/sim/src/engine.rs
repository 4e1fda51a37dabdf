//! The simulation engine: joint ODE integration of continuous state and
//! deterministic dispatch of activation events.

use crate::block::{EventActions, EventCtx};
use crate::error::SimError;
use crate::event::EventCalendar;
use crate::linear::LinearRhs;
use crate::model::{BlockId, Entry, Model};
use crate::ode::{self, Integrator, OdeRhs, OdeWorkspace};
use crate::stats::EngineStats;
use crate::time::TimeNs;
use crate::trace::{EventRecord, Signal, SimResult};

/// Engine configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// ODE method used between event instants.
    pub integrator: Integrator,
    /// Probe recording resolution (seconds) for continuous spans. Probes
    /// are additionally recorded at every event instant.
    pub record_dt: f64,
    /// Maximum number of event deliveries at a single instant before the
    /// run aborts with [`SimError::EventCascadeOverflow`] (guards against
    /// zero-delay event loops).
    pub cascade_limit: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            integrator: Integrator::default(),
            record_dt: 1e-3,
            cascade_limit: 100_000,
        }
    }
}

/// Executes a [`Model`].
///
/// Construction ([`Simulator::new`]) validates the model (port wiring,
/// connected inputs, absence of algebraic loops) and freezes the evaluation
/// order; [`Simulator::run`] then advances the simulation. `run` may be
/// called repeatedly to continue from where the previous call stopped.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug)]
pub struct Simulator {
    model: Model,
    opts: SimOptions,
    wiring: Wiring,
    /// Flat input values (rewritten on every output pass).
    inputs: Vec<f64>,
    /// Flat output values.
    outputs: Vec<f64>,
    /// What the committed pass must re-run before `inputs`/`outputs` hold
    /// its values at `now` and the current block states.
    stale: Stale,
    /// Event routing table.
    routes: Routes,
    /// For each probe, the flat output index it reads (structure-of-arrays
    /// layout: the probe pass touches only this vector and `outputs`).
    probe_src: Vec<usize>,
    /// Joint continuous state.
    x: Vec<f64>,
    /// Integrator buffers, sized for `x` once (growth bumps
    /// `EngineStats::hot_allocs`).
    ode: OdeWorkspace,
    /// The right-hand side integrated instead of [`EngineRhs`] when every
    /// stateful block is linear and its inputs hold still over a span
    /// (see [`Simulator::new`]).
    linear: Option<LinearRhs>,
    /// `record_dt` in whole nanoseconds (at least 1 ns).
    record_step: TimeNs,
    calendar: EventCalendar,
    now: TimeNs,
    started: bool,
    /// Reusable emission queue for event deliveries; pre-sized so the
    /// hot path never allocates (growth bumps `EngineStats::hot_allocs`).
    scratch_actions: EventActions,
    /// Event instants the next [`Simulator::run`] reserves probe samples
    /// for, besides the `record_dt` grid (see
    /// [`Simulator::reserve_events`]).
    expected_instants: usize,
    result: SimResult,
    stats: EngineStats,
}

/// Most samples per probe [`Simulator::run`] reserves up front, and most
/// event-log records [`Simulator::reserve_events`] does.
const PRESIZED_SAMPLES: usize = 1 << 16;

/// How much of the committed output pass the buffers lack, in increasing
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Stale {
    /// The buffers hold the committed pass.
    Nothing,
    /// Only the varying cone moved: an integrated chunk advanced `t` and
    /// the continuous states, which no other output reads.
    Cone,
    /// Anything may have moved: nothing has run yet, a delivery changed a
    /// block with signal outputs, or [`Simulator::model_mut`] was called.
    All,
}

impl Simulator {
    /// Validates `model` and prepares it for execution.
    ///
    /// The integrator evaluates the model's derivative through a linear
    /// right-hand side of its own when both of these hold, and through the
    /// blocks' [`Block::derivatives`] otherwise:
    ///
    /// * no input of a stateful block can move within a span: no block
    ///   that reads `t` or a state drives one, directly or through
    ///   feedthrough;
    /// * every stateful block reports [`Block::linear_dynamics`].
    ///
    /// Either way the run is bit for bit the same (see the contract of
    /// [`Block::linear_dynamics`]).
    ///
    /// [`Block::derivatives`]: crate::Block::derivatives
    /// [`Block::linear_dynamics`]: crate::Block::linear_dynamics
    ///
    /// # Errors
    ///
    /// * [`SimError::UnconnectedInput`] if any regular input lacks a driver.
    /// * [`SimError::AlgebraicLoop`] if the feedthrough graph is cyclic.
    pub fn new(model: Model, opts: SimOptions) -> Result<Self, SimError> {
        let n = model.entries.len();
        let mut slots = Vec::with_capacity(n);
        let (mut ni, mut no, mut ns) = (0usize, 0usize, 0usize);
        for (block, e) in model.entries.iter().enumerate() {
            let slot = Slot {
                block,
                in_off: ni,
                inputs: e.spec.inputs,
                out_off: no,
                outputs: e.spec.outputs,
                state_off: ns,
                states: e.block.num_states(),
            };
            ni += slot.inputs;
            no += slot.outputs;
            ns += slot.states;
            slots.push(slot);
        }

        // Map each flat input to its driving flat output.
        let mut input_src = vec![usize::MAX; ni];
        for c in &model.sig_conns {
            input_src[slots[c.dst.index()].in_off + c.inp] = slots[c.src.index()].out_off + c.out;
        }
        if let Some(gi) = input_src.iter().position(|&src| src == usize::MAX) {
            let s = slots
                .iter()
                .find(|s| gi < s.in_off + s.inputs)
                .expect("every flat input belongs to a block");
            return Err(SimError::UnconnectedInput {
                block: model.entries[s.block].name.clone(),
                port: gi - s.in_off,
            });
        }
        // Per flat input: does its block's output read it at once (`dep_u`)?
        let feedthrough: Vec<bool> = model
            .entries
            .iter()
            .flat_map(|e| (0..e.spec.inputs).map(|p| e.block.feedthrough(p)))
            .collect();
        // Per flat output: the block that writes it.
        let driver: Vec<usize> = slots
            .iter()
            .flat_map(|s| std::iter::repeat_n(s.block, s.outputs))
            .collect();

        // Topological sort over feedthrough edges (Kahn, stable order).
        let ft_edges = model
            .sig_conns
            .iter()
            .filter(|c| feedthrough[slots[c.dst.index()].in_off + c.inp])
            .map(|c| (c.src.index(), c.dst.index()));
        let mut indeg = vec![0usize; n];
        for (_, dst) in ft_edges.clone() {
            indeg[dst] += 1;
        }
        let (succ_off, succ) = compressed_rows(n, ft_edges);
        // Blocks enter `order` as they become ready; the cursor walks it,
        // so once every block has entered it is the evaluation order.
        let mut order: Vec<usize> = Vec::with_capacity(n);
        order.extend((0..n).filter(|&i| indeg[i] == 0));
        let mut cursor = 0;
        while cursor < order.len() {
            let b = order[cursor];
            cursor += 1;
            for &s in &succ[succ_off[b]..succ_off[b + 1]] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    order.push(s);
                }
            }
        }
        if order.len() != n {
            let cyclic: Vec<String> = (0..n)
                .filter(|&i| indeg[i] > 0)
                .map(|i| model.entries[i].name.clone())
                .collect();
            return Err(SimError::AlgebraicLoop { blocks: cyclic });
        }
        let ft_drivers = |b: usize| {
            let s = slots[b];
            (s.in_off..s.in_off + s.inputs)
                .filter(|&gi| feedthrough[gi])
                .map(|gi| driver[input_src[gi]])
        };

        // The varying cone. A block's outputs can move within an
        // integration span if it has continuous states, reads `t`, or
        // reads at once an output that can move; feedthrough drivers come
        // first in evaluation order, so one forward pass decides it.
        let mut varying = vec![false; n];
        for &b in &order {
            varying[b] = slots[b].states > 0
                || model.entries[b].block.depends_on_time()
                || ft_drivers(b).any(|d| varying[d]);
        }
        let stateful: Vec<Slot> = slots.iter().copied().filter(|s| s.states > 0).collect();
        let state_inputs = || stateful.iter().flat_map(|s| s.in_off..s.in_off + s.inputs);
        // The derivative pass reads the inputs of the stateful blocks;
        // walking back from their drivers through feedthrough edges, in
        // reverse evaluation order, reaches every block whose outputs it
        // depends on.
        let mut reached = vec![false; n];
        for gi in state_inputs() {
            reached[driver[input_src[gi]]] = true;
        }
        for &b in order.iter().rev() {
            if reached[b] {
                for d in ft_drivers(b) {
                    reached[d] = true;
                }
            }
        }
        // Of those inputs, the ones an RHS pass can move: the others keep
        // the committed pass's values over the whole span.
        let state_pulls: Vec<(usize, usize)> = state_inputs()
            .map(|gi| (gi, input_src[gi]))
            .filter(|&(_, src)| varying[driver[src]])
            .collect();
        let in_order = |keep: &dyn Fn(usize) -> bool| -> Vec<Slot> {
            order
                .iter()
                .filter(|&&b| keep(b))
                .map(|&b| slots[b])
                .collect()
        };
        // A reached block drives an input, so it has signal outputs.
        let rhs_order = in_order(&|b| reached[b] && varying[b]);
        // Blocks without signal outputs write nothing a pass reads, so the
        // committed pass walks only the blocks that have some.
        let output_order = in_order(&|b| slots[b].outputs > 0);
        let cone_order = in_order(&|b| varying[b] && slots[b].outputs > 0);
        let cone_pulls: Vec<(usize, usize)> = input_src
            .iter()
            .enumerate()
            .filter(|&(_, &src)| varying[driver[src]])
            .map(|(gi, &src)| (gi, src))
            .collect();

        // Nothing the derivative pass reads moves within a span.
        let linear = (rhs_order.is_empty() && state_pulls.is_empty())
            .then(|| LinearRhs::new(&model.entries, &stateful))
            .flatten();

        // Continuous state initialization.
        let mut x = vec![0.0; ns];
        for s in &stateful {
            model.entries[s.block]
                .block
                .init_states(&mut x[s.state_off..s.state_off + s.states]);
        }

        let result = SimResult {
            signals: model
                .probes
                .iter()
                .map(|p| (p.name.clone(), Signal::new()))
                .collect(),
            events: Vec::new(),
            end_time: TimeNs::ZERO,
        };
        let probe_src = model
            .probes
            .iter()
            .map(|p| slots[p.block.index()].out_off + p.out)
            .collect();
        let record_step =
            TimeNs::from_secs_f64(opts.record_dt.max(1e-12)).max(TimeNs::from_nanos(1));

        Ok(Simulator {
            stats: EngineStats::new(n),
            routes: Routes::new(&model),
            model,
            opts,
            wiring: Wiring {
                slots,
                input_src,
                output_order,
                rhs_order,
                cone_order,
                cone_pulls,
                stateful,
                state_pulls,
            },
            inputs: vec![0.0; ni],
            outputs: vec![0.0; no],
            stale: Stale::All,
            probe_src,
            ode: OdeWorkspace::new(ns, opts.integrator),
            linear,
            x,
            record_step,
            calendar: EventCalendar::new(),
            now: TimeNs::ZERO,
            started: false,
            scratch_actions: EventActions::with_capacity(8),
            expected_instants: 0,
            result,
        })
    }

    /// The wrapped model (for downcasting blocks after a run).
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// Mutable access to the wrapped model's blocks. A retuned block is
    /// seen by the next output pass, which this call forces.
    pub fn model_mut(&mut self) -> &mut Model {
        self.stale = Stale::All;
        if let Some(linear) = &mut self.linear {
            linear.mark_stale();
        }
        &mut self.model
    }

    /// Consumes the simulator, returning the model.
    pub fn into_model(self) -> Model {
        self.model
    }

    /// Current simulation time.
    pub fn now(&self) -> TimeNs {
        self.now
    }

    /// Reserves room for the event instants and deliveries the caller
    /// expects the next [`run`](Simulator::run) to reach, so its probe
    /// traces and event log never regrow.
    ///
    /// `run` itself reserves one probe sample per `record_dt` chunk of
    /// its horizon; each event instant adds up to two: the sample after
    /// its deliveries, and one at the end of the chunk it cuts short.
    /// Each delivery adds one record to the event log. Estimates that
    /// fall short only cost the regrowth; like the grid, each reservation
    /// stops at `PRESIZED_SAMPLES` entries.
    pub fn reserve_events(&mut self, instants: usize, deliveries: usize) {
        self.expected_instants = instants;
        self.result.events.reserve(deliveries.min(PRESIZED_SAMPLES));
    }

    /// Hot-loop execution counters accumulated across `run` calls:
    /// per-block activations, ODE steps taken/rejected, event-calendar
    /// peak depth, cascade depth.
    pub fn stats(&self) -> &EngineStats {
        &self.stats
    }

    /// Advances the simulation to `until` (inclusive of events at exactly
    /// `until`) and returns a borrowed view of the accumulated results.
    ///
    /// The returned reference keeps the simulator mutably borrowed; call
    /// [`result`](Simulator::result) afterwards to read the results
    /// alongside other accessors ([`stats`](Simulator::stats),
    /// [`model`](Simulator::model)), or [`into_result`](Simulator::into_result)
    /// to take ownership without copying.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidHorizon`] if `until` precedes the current time.
    /// * Event-emission validation errors ([`SimError::InvalidEmit`],
    ///   [`SimError::NegativeDelay`], [`SimError::EventCascadeOverflow`]).
    /// * [`SimError::IntegrationFailure`] from the ODE solver.
    pub fn run(&mut self, until: TimeNs) -> Result<&SimResult, SimError> {
        if until < self.now {
            return Err(SimError::InvalidHorizon {
                now: self.now,
                until,
            });
        }
        // Every probe records at least once per `record_dt` chunk, plus
        // the start sample on the first call, plus up to two per expected
        // event instant; past `PRESIZED_SAMPLES` the traces grow as they
        // fill, so a run that fails early has not reserved its whole
        // horizon.
        let grid = (until - self.now).as_nanos() / self.record_step.as_nanos();
        let events = std::mem::take(&mut self.expected_instants);
        let samples = usize::try_from(grid)
            .unwrap_or(usize::MAX)
            .saturating_add(2)
            .saturating_add(events.saturating_mul(2))
            .min(PRESIZED_SAMPLES);
        for (_, signal) in &mut self.result.signals {
            signal.reserve(samples);
        }
        if !self.started {
            self.started = true;
            for b in 0..self.model.entries.len() {
                let mut actions = std::mem::take(&mut self.scratch_actions);
                self.model.entries[b].block.on_start(&mut actions);
                self.schedule_actions(b, &mut actions)?;
                self.scratch_actions = actions;
            }
            self.record_probes();
        }

        loop {
            match self.calendar.peek_time() {
                Some(te) if te <= until => {
                    if te > self.now {
                        self.integrate_span(te)?;
                    }
                    self.process_instant()?;
                }
                _ => {
                    if until > self.now {
                        self.integrate_span(until)?;
                    }
                    break;
                }
            }
        }
        self.result.end_time = self.now;
        Ok(&self.result)
    }

    /// The results accumulated by [`run`](Simulator::run) calls so far.
    pub fn result(&self) -> &SimResult {
        &self.result
    }

    /// Consumes the simulator, returning the accumulated results without
    /// copying the trace.
    pub fn into_result(self) -> SimResult {
        self.result
    }

    /// Consumes the simulator, returning the model, the accumulated
    /// results and the counters without copying any of them.
    pub fn into_parts(self) -> (Model, SimResult, EngineStats) {
        (self.model, self.result, self.stats)
    }

    /// Integrates the continuous state from `self.now` to `t_end`,
    /// recording probes every `record_dt`.
    ///
    /// Chunk boundaries are integer-nanosecond instants derived by
    /// repeated addition of the nanosecond-rounded `record_dt` — exact in
    /// `i64`, so probe instants never drift off the recording grid no
    /// matter how many chunks a span covers (an `f64` accumulator loses
    /// ~1 ulp per chunk and wanders off-grid over long horizons).
    fn integrate_span(&mut self, t_end: TimeNs) -> Result<(), SimError> {
        if self.x.is_empty() {
            self.now = t_end;
            self.stale = self.stale.max(Stale::Cone);
            self.record_probes();
            return Ok(());
        }
        // The RHS passes leave the blocks outside `rhs_order` holding
        // these values.
        self.refresh_outputs();
        // A retuned block may have stopped being linear.
        if self
            .linear
            .as_mut()
            .is_some_and(|l| !l.reload(&self.model.entries))
        {
            self.linear = None;
        }
        while self.now < t_end {
            let chunk_end = self.now.saturating_add(self.record_step).min(t_end);
            let (a, b) = (self.now.as_secs_f64(), chunk_end.as_secs_f64());
            let (ws, x, method) = (&mut self.ode, &mut self.x, self.opts.integrator);
            let cap = ws.capacity();
            let ode_stats = match &mut self.linear {
                Some(linear) => {
                    linear.load_inputs(&self.inputs);
                    ode::integrate_in(ws, linear, a, b, x, method)
                }
                None => {
                    let mut rhs = EngineRhs {
                        entries: &mut self.model.entries,
                        wiring: &self.wiring,
                        inputs: &mut self.inputs,
                        outputs: &mut self.outputs,
                    };
                    ode::integrate_in(ws, &mut rhs, a, b, x, method)
                }
            }?;
            if self.ode.capacity() != cap {
                self.stats.hot_allocs += 1;
            }
            self.stats.ode.merge(ode_stats);
            self.stats.integration_spans += 1;
            self.stale = Stale::Cone;
            self.now = chunk_end;
            self.record_probes();
        }
        Ok(())
    }

    /// Processes every event scheduled at the current instant (including
    /// zero-delay follow-ups), then records probes once.
    ///
    /// Allocation-free in steady state: routes are walked by index, the
    /// activated block borrows its input slice directly from the flat
    /// input buffer (disjoint from the mutably borrowed model), and the
    /// emission queue is a reusable scratch buffer whose growth is the
    /// only heap traffic (counted in [`EngineStats::hot_allocs`]).
    fn process_instant(&mut self) -> Result<(), SimError> {
        let now = self.now;
        self.stats.event_instants += 1;
        let mut deliveries = 0usize;
        while self.calendar.peek_time() == Some(now) {
            let ev = self.calendar.pop().expect("peeked");
            for r in self.routes.of(ev.emitter.index(), ev.out_port) {
                let (dst, port) = self.routes.targets[r];
                deliveries += 1;
                self.stats.count_activation(dst);
                if deliveries > self.opts.cascade_limit {
                    return Err(SimError::EventCascadeOverflow {
                        time: now,
                        limit: self.opts.cascade_limit,
                    });
                }
                // The activated block must see current inputs, including
                // the effects of earlier same-instant deliveries.
                self.refresh_outputs();
                let slot = self.wiring.slots[dst];
                let mut actions = std::mem::take(&mut self.scratch_actions);
                let cap = actions.emissions.capacity();
                {
                    // `inputs` is a shared borrow of the flat input buffer,
                    // `block` a mutable borrow of the model — disjoint
                    // fields, so no defensive copy is needed.
                    let mut ctx = EventCtx {
                        inputs: &self.inputs[slot.in_off..slot.in_off + slot.inputs],
                        actions: &mut actions,
                    };
                    self.model.entries[dst].block.on_event(port, now, &mut ctx);
                }
                // Only a block's own outputs can read its discrete state.
                if slot.outputs > 0 {
                    self.stale = Stale::All;
                }
                if actions.emissions.capacity() != cap {
                    self.stats.hot_allocs += 1;
                }
                self.schedule_actions(dst, &mut actions)?;
                self.scratch_actions = actions;
                self.result.events.push(EventRecord {
                    time: now,
                    emitter: ev.emitter,
                    out_port: ev.out_port,
                    target: BlockId::from_index(dst),
                    port,
                });
            }
        }
        self.stats.max_cascade = self.stats.max_cascade.max(deliveries);
        self.record_probes();
        Ok(())
    }

    /// Validates and schedules the emissions queued by block `b`, then
    /// clears the queue (capacity is retained for reuse).
    fn schedule_actions(&mut self, b: usize, actions: &mut EventActions) -> Result<(), SimError> {
        for i in 0..actions.emissions.len() {
            let (port, delay) = actions.emissions[i];
            let spec = self.model.entries[b].spec;
            if port >= spec.event_outputs {
                return Err(SimError::InvalidEmit {
                    block: self.model.entries[b].name.clone(),
                    port,
                    count: spec.event_outputs,
                });
            }
            if delay.is_negative() {
                return Err(SimError::NegativeDelay {
                    block: self.model.entries[b].name.clone(),
                    delay,
                });
            }
            self.calendar
                .schedule(self.now + delay, BlockId::from_index(b), port);
            self.stats.calendar_peak = self.stats.calendar_peak.max(self.calendar.len());
        }
        actions.emissions.clear();
        Ok(())
    }

    /// Runs the committed output pass at the current time and state,
    /// unless the buffers already hold it.
    ///
    /// After an integrated chunk only the varying cone re-runs: every
    /// other block's outputs are a function of its discrete state and of
    /// outputs that did not move, so they still hold what the last full
    /// pass wrote ([`Block::outputs`] is idempotent), and so do the
    /// inputs those outputs drive.
    ///
    /// [`Block::outputs`]: crate::Block::outputs
    fn refresh_outputs(&mut self) {
        let w = &self.wiring;
        let (order, pulls) = match self.stale {
            Stale::Nothing => return,
            Stale::Cone => (&w.cone_order, Some(&w.cone_pulls)),
            Stale::All => (&w.output_order, None),
        };
        w.output_pass(
            order,
            &mut self.model.entries,
            &mut self.inputs,
            &mut self.outputs,
            self.now.as_secs_f64(),
            &self.x,
        );
        // Non-feedthrough inputs may be pulled before their drivers run,
        // and blocks without outputs pull nothing: refresh the inputs the
        // pass's outputs drive, so event passes see consistent values.
        match pulls {
            Some(pulls) => {
                for &(gi, src) in pulls {
                    self.inputs[gi] = self.outputs[src];
                }
            }
            None => {
                for (input, &src) in self.inputs.iter_mut().zip(&w.input_src) {
                    *input = self.outputs[src];
                }
            }
        }
        self.stale = Stale::Nothing;
    }

    /// Records every probe at `now`, after the committed pass if stale.
    fn record_probes(&mut self) {
        self.refresh_outputs();
        let t = self.now.as_secs_f64();
        for (i, &src) in self.probe_src.iter().enumerate() {
            self.result.signals[i].1.push(t, self.outputs[src]);
        }
    }
}

/// Groups `(row, value)` pairs by row into compressed rows: the values of
/// row `r` are `values[offsets[r]..offsets[r + 1]]`, in iteration order.
fn compressed_rows<T: Copy + Default>(
    rows: usize,
    pairs: impl Iterator<Item = (usize, T)> + Clone,
) -> (Vec<usize>, Vec<T>) {
    let mut offsets = vec![0usize; rows + 1];
    for (r, _) in pairs.clone() {
        offsets[r + 1] += 1;
    }
    for r in 0..rows {
        offsets[r + 1] += offsets[r];
    }
    let mut values = vec![T::default(); offsets[rows]];
    for (r, v) in pairs {
        values[offsets[r]] = v;
        offsets[r] += 1;
    }
    // Each `offsets[r]` now holds the end of row `r`: the start of `r + 1`.
    offsets.copy_within(0..rows, 1);
    offsets[0] = 0;
    (offsets, values)
}

/// Event routes as compressed rows over the flat event outputs: the
/// targets of event output `o` of block `b` are
/// `targets[offsets[first[b] + o]..offsets[first[b] + o + 1]]`, in wiring
/// order (the order deliveries happen in).
#[derive(Debug)]
struct Routes {
    /// Per-block index of its first flat event output.
    first: Vec<usize>,
    offsets: Vec<usize>,
    /// `(target block, event input)` pairs.
    targets: Vec<(usize, usize)>,
}

impl Routes {
    fn new(model: &Model) -> Routes {
        let mut first = Vec::with_capacity(model.entries.len());
        let mut flat = 0;
        for e in &model.entries {
            first.push(flat);
            flat += e.spec.event_outputs;
        }
        let pairs = model
            .evt_conns
            .iter()
            .map(|c| (first[c.src.index()] + c.out, (c.dst.index(), c.inp)));
        let (offsets, targets) = compressed_rows(flat, pairs);
        Routes {
            first,
            offsets,
            targets,
        }
    }

    /// Indices into `targets` of the routes of `block`'s event output `out`.
    fn of(&self, block: usize, out: usize) -> std::ops::Range<usize> {
        let row = self.first[block] + out;
        self.offsets[row]..self.offsets[row + 1]
    }
}

/// Where one block's values live in the flat buffers.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Slot {
    pub(crate) block: usize,
    /// Offset into the flat input value buffer, and the input count.
    pub(crate) in_off: usize,
    pub(crate) inputs: usize,
    /// Offset into the flat output value buffer, and the output count.
    out_off: usize,
    outputs: usize,
    /// Offset into the flat continuous state vector, and the state count.
    pub(crate) state_off: usize,
    pub(crate) states: usize,
}

/// Wiring tables frozen by [`Simulator::new`].
#[derive(Debug)]
struct Wiring {
    /// Per-block slots, indexed by block.
    slots: Vec<Slot>,
    /// For each flat input index, the flat output index driving it.
    input_src: Vec<usize>,
    /// Blocks with signal outputs, in evaluation order (topological over
    /// feedthrough edges).
    output_order: Vec<Slot>,
    /// The blocks of `output_order` that an RHS evaluation re-runs: those
    /// whose outputs can move within a span (see [`Block::depends_on_time`])
    /// and that the derivative pass reads, directly or through
    /// feedthrough. Every other output is constant over a span.
    ///
    /// [`Block::depends_on_time`]: crate::Block::depends_on_time
    rhs_order: Vec<Slot>,
    /// The blocks of `output_order` whose outputs can move within a span
    /// (the varying cone): the committed pass after an integrated chunk.
    cone_order: Vec<Slot>,
    /// `(flat input, flat output)` for every input the varying cone
    /// drives, in input order.
    cone_pulls: Vec<(usize, usize)>,
    /// Blocks with continuous state, in block order.
    stateful: Vec<Slot>,
    /// `(flat input, flat output)` for every input of a `stateful` block
    /// (the only inputs the derivative pass reads) driven by an output of
    /// `rhs_order`: every other one keeps its committed value over a span.
    state_pulls: Vec<(usize, usize)>,
}

impl Wiring {
    /// Evaluates the outputs of the blocks in `order` (a filtered
    /// evaluation order) at time `t` and state `x`, each block first
    /// pulling its inputs from the driving outputs.
    #[inline]
    fn output_pass(
        &self,
        order: &[Slot],
        entries: &mut [Entry],
        inputs: &mut [f64],
        outputs: &mut [f64],
        t: f64,
        x: &[f64],
    ) {
        for s in order {
            let ins = s.in_off..s.in_off + s.inputs;
            for gi in ins.clone() {
                inputs[gi] = outputs[self.input_src[gi]];
            }
            // `inputs` and `outputs` are distinct buffers, so no defensive
            // copy is needed.
            entries[s.block].block.outputs(
                t,
                &x[s.state_off..s.state_off + s.states],
                &inputs[ins],
                &mut outputs[s.out_off..s.out_off + s.outputs],
            );
        }
    }
}

/// ODE right-hand side over the block diagram: evaluate the varying
/// outputs the derivative pass reads at the trial state, then collect the
/// derivatives of the stateful blocks.
///
/// Every other output holds the committed pass `integrate_span` ran at
/// the span's start, which is its value throughout the span. Only the
/// inputs the derivative pass reads are refreshed; the others are left
/// for the committed pass, which runs before anything else reads them.
struct EngineRhs<'a> {
    entries: &'a mut [Entry],
    wiring: &'a Wiring,
    inputs: &'a mut [f64],
    outputs: &'a mut [f64],
}

impl OdeRhs for EngineRhs<'_> {
    #[inline]
    fn eval(&mut self, t: f64, x: &[f64], dx: &mut [f64]) {
        let w = self.wiring;
        w.output_pass(&w.rhs_order, self.entries, self.inputs, self.outputs, t, x);
        for &(gi, src) in &w.state_pulls {
            self.inputs[gi] = self.outputs[src];
        }
        for s in &w.stateful {
            let states = s.state_off..s.state_off + s.states;
            self.entries[s.block].block.derivatives(
                t,
                &x[states.clone()],
                &self.inputs[s.in_off..s.in_off + s.inputs],
                &mut dx[states],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{Block, PortSpec};
    use crate::impl_block_any;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// Source emitting a constant.
    struct Const(f64);
    impl Block for Const {
        fn type_name(&self) -> &'static str {
            "Const"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::source(1)
        }
        fn depends_on_time(&self) -> bool {
            false
        }
        fn outputs(&mut self, _t: f64, _x: &[f64], _u: &[f64], y: &mut [f64]) {
            y[0] = self.0;
        }
        impl_block_any!();
    }

    /// y = sin(t): the only test source whose output moves within a span.
    struct Wave;
    impl Block for Wave {
        fn type_name(&self) -> &'static str {
            "Wave"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::source(1)
        }
        fn outputs(&mut self, t: f64, _x: &[f64], _u: &[f64], y: &mut [f64]) {
            y[0] = t.sin();
        }
        impl_block_any!();
    }

    /// y = k * u, direct feedthrough.
    struct Gain(f64);
    impl Block for Gain {
        fn type_name(&self) -> &'static str {
            "Gain"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::siso(1, 1)
        }
        fn depends_on_time(&self) -> bool {
            false
        }
        fn outputs(&mut self, _t: f64, _x: &[f64], u: &[f64], y: &mut [f64]) {
            y[0] = self.0 * u[0];
        }
        impl_block_any!();
    }

    /// Pure integrator: ẋ = u, y = x.
    struct Integ {
        x0: f64,
    }
    impl Block for Integ {
        fn type_name(&self) -> &'static str {
            "Integ"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::siso(1, 1)
        }
        fn feedthrough(&self, _i: usize) -> bool {
            false
        }
        fn num_states(&self) -> usize {
            1
        }
        fn init_states(&self, x: &mut [f64]) {
            x[0] = self.x0;
        }
        fn derivatives(&self, _t: f64, _x: &[f64], u: &[f64], dx: &mut [f64]) {
            dx[0] = u[0];
        }
        fn outputs(&mut self, _t: f64, x: &[f64], _u: &[f64], y: &mut [f64]) {
            y[0] = x[0];
        }
        impl_block_any!();
    }

    /// Periodic clock built as a self-looped emitter.
    struct Clock {
        period: TimeNs,
    }
    impl Block for Clock {
        fn type_name(&self) -> &'static str {
            "Clock"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::event_pipe(1, 1)
        }
        fn on_start(&mut self, actions: &mut EventActions) {
            actions.emit(0, TimeNs::ZERO);
        }
        fn on_event(&mut self, _p: usize, _t: TimeNs, ctx: &mut EventCtx<'_>) {
            ctx.actions.emit(0, self.period);
        }
        impl_block_any!();
    }

    /// Samples its input on activation; exposes the held value.
    struct Sampler {
        held: f64,
        samples: Vec<(TimeNs, f64)>,
    }
    impl Block for Sampler {
        fn type_name(&self) -> &'static str {
            "Sampler"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::new(1, 1, 1, 0)
        }
        fn feedthrough(&self, _i: usize) -> bool {
            false
        }
        fn depends_on_time(&self) -> bool {
            false
        }
        fn outputs(&mut self, _t: f64, _x: &[f64], _u: &[f64], y: &mut [f64]) {
            y[0] = self.held;
        }
        fn on_event(&mut self, _p: usize, t: TimeNs, ctx: &mut EventCtx<'_>) {
            self.held = ctx.inputs[0];
            self.samples.push((t, self.held));
        }
        impl_block_any!();
    }

    /// Forwards every call to `B`, counting its `outputs` calls.
    struct Counted<B>(B, Arc<AtomicU64>);
    impl<B: Block> Block for Counted<B> {
        fn type_name(&self) -> &'static str {
            self.0.type_name()
        }
        fn ports(&self) -> PortSpec {
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
            self.0.init_states(x)
        }
        fn derivatives(&self, t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
            self.0.derivatives(t, x, u, dx)
        }
        fn outputs(&mut self, t: f64, x: &[f64], u: &[f64], y: &mut [f64]) {
            self.1.fetch_add(1, Ordering::Relaxed);
            self.0.outputs(t, x, u, y)
        }
        fn on_start(&mut self, actions: &mut EventActions) {
            self.0.on_start(actions)
        }
        fn on_event(&mut self, port: usize, t: TimeNs, ctx: &mut EventCtx<'_>) {
            self.0.on_event(port, t, ctx)
        }
        impl_block_any!();
    }

    /// `inner` wrapped in a [`Counted`], and its call counter.
    fn counted<B: Block>(inner: B) -> (Counted<B>, Arc<AtomicU64>) {
        let calls = Arc::new(AtomicU64::new(0));
        (Counted(inner, Arc::clone(&calls)), calls)
    }

    /// At most one committed output pass runs per stale mark: the first
    /// one, one per integrated chunk, one per delivery.
    fn committed_pass_bound(stats: &EngineStats) -> u64 {
        1 + stats.integration_spans + stats.events_delivered
    }

    fn clocked(period_ms: i64) -> (Model, BlockId) {
        let mut m = Model::new();
        let clk = m.add_block(
            "clk",
            Clock {
                period: TimeNs::from_millis(period_ms),
            },
        );
        m.connect_event(clk, 0, clk, 0).unwrap();
        (m, clk)
    }

    /// `ẋ = −x + u`, reporting its `(A, B)`.
    struct Lag;
    const LAG_A: [f64; 1] = [-1.0];
    const LAG_B: [f64; 1] = [1.0];
    impl Block for Lag {
        fn type_name(&self) -> &'static str {
            "Lag"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::siso(1, 1)
        }
        fn feedthrough(&self, _i: usize) -> bool {
            false
        }
        fn num_states(&self) -> usize {
            1
        }
        fn derivatives(&self, _t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
            dx[0] = 0.0 + LAG_A[0] * x[0] + LAG_B[0] * u[0];
        }
        fn linear_dynamics(&self) -> Option<(&[f64], &[f64])> {
            Some((&LAG_A, &LAG_B))
        }
        fn outputs(&mut self, _t: f64, x: &[f64], _u: &[f64], y: &mut [f64]) {
            y[0] = x[0];
        }
        impl_block_any!();
    }

    /// The linear right-hand side is chosen only when every stateful
    /// block reports linear dynamics and none of their inputs can move
    /// within a span.
    #[test]
    fn linear_rhs_needs_linear_blocks_with_held_inputs() {
        let linear = |source: &dyn Fn(&mut Model) -> BlockId, with_integ: bool| {
            let mut m = Model::new();
            let src = source(&mut m);
            let lag = m.add_block("lag", Lag);
            m.connect(src, 0, lag, 0).unwrap();
            if with_integ {
                let i = m.add_block("i", Integ { x0: 0.0 });
                m.connect(src, 0, i, 0).unwrap();
            }
            Simulator::new(m, SimOptions::default())
                .unwrap()
                .linear
                .is_some()
        };
        let held = |m: &mut Model| m.add_block("c", Const(2.0));
        let moving = |m: &mut Model| m.add_block("w", Wave);
        assert!(linear(&held, false));
        assert!(!linear(&moving, false), "a time-varying input");
        assert!(!linear(&held, true), "a stateful block without (A, B)");
    }

    #[test]
    fn integrator_ramps_under_constant_input() {
        let mut m = Model::new();
        let c = m.add_block("c", Const(2.0));
        let i = m.add_block("i", Integ { x0: 0.0 });
        m.connect(c, 0, i, 0).unwrap();
        m.probe("x", i, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_secs(1)).unwrap();
        let x = r.signal("x").unwrap();
        assert!((x.last().unwrap().1 - 2.0).abs() < 1e-9);
        // Ramp is linear: value at 0.5 s is ~1.0.
        assert!((x.sample(0.5).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn feedback_loop_through_integrator_allowed() {
        // ẋ = -x via gain feedback: integrator breaks the loop.
        let mut m = Model::new();
        let i = m.add_block("i", Integ { x0: 1.0 });
        let g = m.add_block("g", Gain(-1.0));
        m.connect(i, 0, g, 0).unwrap();
        m.connect(g, 0, i, 0).unwrap();
        m.probe("x", i, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_secs(1)).unwrap();
        let xf = r.signal("x").unwrap().last().unwrap().1;
        assert!((xf - (-1.0f64).exp()).abs() < 1e-6, "{xf}");
    }

    #[test]
    fn algebraic_loop_detected() {
        let mut m = Model::new();
        let g1 = m.add_block("g1", Gain(1.0));
        let g2 = m.add_block("g2", Gain(1.0));
        m.connect(g1, 0, g2, 0).unwrap();
        m.connect(g2, 0, g1, 0).unwrap();
        assert!(matches!(
            Simulator::new(m, SimOptions::default()),
            Err(SimError::AlgebraicLoop { .. })
        ));
    }

    #[test]
    fn unconnected_input_detected() {
        let mut m = Model::new();
        m.add_block("g", Gain(1.0));
        assert!(matches!(
            Simulator::new(m, SimOptions::default()),
            Err(SimError::UnconnectedInput { .. })
        ));
    }

    #[test]
    fn clock_activates_sampler_periodically() {
        let (mut m, clk) = clocked(100);
        let c = m.add_block("c", Const(7.0));
        let s = m.add_block(
            "s",
            Sampler {
                held: 0.0,
                samples: vec![],
            },
        );
        m.connect(c, 0, s, 0).unwrap();
        m.connect_event(clk, 0, s, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        sim.run(TimeNs::from_millis(1000)).unwrap();
        let r = sim.result();
        let smp = sim.model().block_as::<Sampler>(s).unwrap();
        // events at 0, 100, ..., 1000 ms inclusive = 11 samples
        assert_eq!(smp.samples.len(), 11);
        assert!(smp.samples.iter().all(|&(_, v)| v == 7.0));
        // Event log captured deliveries to both clock and sampler.
        assert_eq!(r.activation_times(s, Some(0)).len(), 11);
        assert_eq!(r.activation_times(s, Some(0))[3], TimeNs::from_millis(300));
    }

    #[test]
    fn sampler_sees_continuous_state_at_activation() {
        // Integrator of constant 1 sampled at 0.25 s steps: samples are
        // 0.0, 0.25, 0.5, ...
        let (mut m, clk) = clocked(250);
        let c = m.add_block("c", Const(1.0));
        let i = m.add_block("i", Integ { x0: 0.0 });
        let s = m.add_block(
            "s",
            Sampler {
                held: 0.0,
                samples: vec![],
            },
        );
        m.connect(c, 0, i, 0).unwrap();
        m.connect(i, 0, s, 0).unwrap();
        m.connect_event(clk, 0, s, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        sim.run(TimeNs::from_secs(1)).unwrap();
        let smp = sim.model().block_as::<Sampler>(s).unwrap();
        for (k, &(t, v)) in smp.samples.iter().enumerate() {
            assert_eq!(t, TimeNs::from_millis(250 * k as i64));
            assert!((v - 0.25 * k as f64).abs() < 1e-7, "sample {k}: {v}");
        }
    }

    #[test]
    fn run_is_resumable() {
        let (m, _clk) = clocked(10);
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r1 = sim.run(TimeNs::from_millis(50)).unwrap();
        let n1 = r1.event_log().len();
        let r2 = sim.run(TimeNs::from_millis(100)).unwrap();
        assert!(r2.event_log().len() > n1);
        assert_eq!(r2.end_time(), TimeNs::from_millis(100));
    }

    #[test]
    fn backwards_run_rejected() {
        let (m, _clk) = clocked(10);
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        sim.run(TimeNs::from_millis(50)).unwrap();
        assert!(matches!(
            sim.run(TimeNs::from_millis(40)),
            Err(SimError::InvalidHorizon { .. })
        ));
    }

    #[test]
    fn zero_delay_loop_overflows() {
        // Two pipes emitting to each other with zero delay diverge.
        struct Echo;
        impl Block for Echo {
            fn type_name(&self) -> &'static str {
                "Echo"
            }
            fn ports(&self) -> PortSpec {
                PortSpec::event_pipe(1, 1)
            }
            fn on_start(&mut self, a: &mut EventActions) {
                a.emit(0, TimeNs::ZERO);
            }
            fn on_event(&mut self, _p: usize, _t: TimeNs, ctx: &mut EventCtx<'_>) {
                ctx.actions.emit(0, TimeNs::ZERO);
            }
            impl_block_any!();
        }
        let mut m = Model::new();
        let a = m.add_block("a", Echo);
        let b = m.add_block("b", Echo);
        m.connect_event(a, 0, b, 0).unwrap();
        m.connect_event(b, 0, a, 0).unwrap();
        let mut sim = Simulator::new(
            m,
            SimOptions {
                cascade_limit: 1000,
                ..SimOptions::default()
            },
        )
        .unwrap();
        assert!(matches!(
            sim.run(TimeNs::from_secs(1)),
            Err(SimError::EventCascadeOverflow { .. })
        ));
    }

    #[test]
    fn invalid_emit_port_detected() {
        struct BadEmit;
        impl Block for BadEmit {
            fn type_name(&self) -> &'static str {
                "BadEmit"
            }
            fn ports(&self) -> PortSpec {
                PortSpec::default()
            }
            fn on_start(&mut self, a: &mut EventActions) {
                a.emit(0, TimeNs::ZERO); // declares zero event outputs
            }
            impl_block_any!();
        }
        let mut m = Model::new();
        m.add_block("bad", BadEmit);
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        assert!(matches!(
            sim.run(TimeNs::from_secs(1)),
            Err(SimError::InvalidEmit { .. })
        ));
    }

    #[test]
    fn events_exactly_at_horizon_are_processed() {
        let (m, clk) = clocked(100);
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_millis(200)).unwrap();
        // 0, 100, 200 all delivered
        assert_eq!(r.activation_times(clk, Some(0)).len(), 3);
    }

    #[test]
    fn into_model_returns_blocks() {
        let (m, clk) = clocked(10);
        let sim = Simulator::new(m, SimOptions::default()).unwrap();
        let m = sim.into_model();
        assert!(m.block_as::<Clock>(clk).is_some());
    }

    #[test]
    fn empty_model_runs_to_horizon() {
        let sim = Simulator::new(Model::new(), SimOptions::default());
        let mut sim = sim.unwrap();
        let r = sim.run(TimeNs::from_secs(1)).unwrap();
        assert_eq!(r.end_time(), TimeNs::from_secs(1));
        assert!(r.event_log().is_empty());
        assert_eq!(sim.now(), TimeNs::from_secs(1));
    }

    #[test]
    fn rk4_option_matches_rk45_on_smooth_problem() {
        let build = || {
            let mut m = Model::new();
            let c = m.add_block("c", Const(1.0));
            let i = m.add_block("i", Integ { x0: 0.0 });
            m.connect(c, 0, i, 0).unwrap();
            m.probe("x", i, 0).unwrap();
            m
        };
        let run = |integrator| {
            let mut sim = Simulator::new(
                build(),
                SimOptions {
                    integrator,
                    ..SimOptions::default()
                },
            )
            .unwrap();
            sim.run(TimeNs::from_secs(1))
                .unwrap()
                .signal("x")
                .unwrap()
                .last()
                .unwrap()
                .1
        };
        let rk45 = run(crate::ode::Integrator::default());
        let rk4 = run(crate::ode::Integrator::Rk4 { h: 1e-3 });
        assert!((rk45 - 1.0).abs() < 1e-9);
        assert!((rk4 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn record_dt_controls_probe_density() {
        let build = || {
            let mut m = Model::new();
            let c = m.add_block("c", Const(1.0));
            let i = m.add_block("i", Integ { x0: 0.0 });
            m.connect(c, 0, i, 0).unwrap();
            m.probe("x", i, 0).unwrap();
            m
        };
        let samples = |record_dt: f64| {
            let mut sim = Simulator::new(
                build(),
                SimOptions {
                    record_dt,
                    ..SimOptions::default()
                },
            )
            .unwrap();
            sim.run(TimeNs::from_secs(1))
                .unwrap()
                .signal("x")
                .unwrap()
                .len()
        };
        let coarse = samples(0.1);
        let fine = samples(0.01);
        assert!(fine > 5 * coarse, "fine {fine} vs coarse {coarse}");
    }

    #[test]
    fn probes_capture_discontinuity_at_event() {
        // A sampler steps its held value at t = 0.5 s; the probe records
        // both the pre- and post-event values at that instant.
        let mut m = Model::new();
        let clk = m.add_block(
            "clk",
            Clock {
                period: TimeNs::from_millis(500),
            },
        );
        m.connect_event(clk, 0, clk, 0).unwrap();
        let c = m.add_block("c", Const(1.0));
        let i = m.add_block("i", Integ { x0: 0.0 });
        m.connect(c, 0, i, 0).unwrap();
        let s = m.add_block(
            "s",
            Sampler {
                held: -1.0,
                samples: vec![],
            },
        );
        m.connect(i, 0, s, 0).unwrap();
        m.connect_event(clk, 0, s, 0).unwrap();
        m.probe("held", s, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_millis(750)).unwrap();
        let held = r.signal("held").unwrap();
        // At t = 0.5 the held value jumps from 0.0 to 0.5.
        let t_evt = 0.5;
        let around: Vec<f64> = held
            .iter()
            .filter(|(t, _)| (*t - t_evt).abs() < 1e-12)
            .map(|(_, v)| v)
            .collect();
        assert!(around.iter().any(|v| (v - 0.5).abs() < 1e-9), "{around:?}");
        assert!((held.sample(0.75).unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn engine_stats_count_hot_loop_work() {
        // Clock at 100 ms driving a sampler over an integrated constant:
        // 10 instants in [0, 950 ms], each delivering to clock + sampler.
        let mut m = Model::new();
        let clk = m.add_block(
            "clk",
            Clock {
                period: TimeNs::from_millis(100),
            },
        );
        m.connect_event(clk, 0, clk, 0).unwrap();
        let c = m.add_block("c", Const(1.0));
        let i = m.add_block("i", Integ { x0: 0.0 });
        m.connect(c, 0, i, 0).unwrap();
        let s = m.add_block(
            "s",
            Sampler {
                held: 0.0,
                samples: vec![],
            },
        );
        m.connect(i, 0, s, 0).unwrap();
        m.connect_event(clk, 0, s, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        sim.run(TimeNs::from_millis(950)).unwrap();
        let stats = sim.stats().clone();
        assert_eq!(stats.activations(clk), 10);
        assert_eq!(stats.activations(s), 10);
        assert_eq!(stats.activations(c), 0);
        assert_eq!(stats.events_delivered, 20);
        assert_eq!(stats.max_cascade, 2);
        assert!(stats.calendar_peak >= 1);
        assert!(stats.integration_spans >= 10);
        assert!(stats.ode.steps_accepted > 0);
        assert!(stats.ode.rhs_evals >= 4 * stats.ode.steps_accepted);

        // Counters accumulate across runs and are deterministic: a second
        // identical simulator reaches byte-identical stats.
        let mut m2 = Model::new();
        let clk2 = m2.add_block(
            "clk",
            Clock {
                period: TimeNs::from_millis(100),
            },
        );
        m2.connect_event(clk2, 0, clk2, 0).unwrap();
        let c2 = m2.add_block("c", Const(1.0));
        let i2 = m2.add_block("i", Integ { x0: 0.0 });
        m2.connect(c2, 0, i2, 0).unwrap();
        let s2 = m2.add_block(
            "s",
            Sampler {
                held: 0.0,
                samples: vec![],
            },
        );
        m2.connect(i2, 0, s2, 0).unwrap();
        m2.connect_event(clk2, 0, s2, 0).unwrap();
        let mut sim2 = Simulator::new(m2, SimOptions::default()).unwrap();
        sim2.run(TimeNs::from_millis(950)).unwrap();
        assert_eq!(*sim2.stats(), stats);
    }

    /// Probe instants must sit exactly on the `record_dt` grid no matter
    /// how many chunks a span covers. An `f64` time accumulator loses
    /// ~1 ulp per chunk; over 10⁶ chunks at t ≈ 10³ s the drift reaches
    /// tens of nanoseconds and probe instants wander off-grid. The
    /// integer-chunk boundaries are exact, so every recorded instant
    /// round-trips onto the grid.
    #[test]
    fn probe_instants_stay_on_grid_over_a_million_chunks() {
        let mut m = Model::new();
        let c = m.add_block("c", Const(1e-3));
        let i = m.add_block("i", Integ { x0: 0.0 });
        m.connect(c, 0, i, 0).unwrap();
        m.probe("x", i, 0).unwrap();
        let mut sim = Simulator::new(
            m,
            SimOptions {
                // Fixed-step RK4, one step per chunk: the cheapest way to
                // drive the chunk loop a million times.
                integrator: crate::ode::Integrator::Rk4 { h: 1e-3 },
                record_dt: 1e-3,
                ..SimOptions::default()
            },
        )
        .unwrap();
        let r = sim.run(TimeNs::from_secs(1000)).unwrap();
        let x = r.signal("x").unwrap();
        assert_eq!(x.len(), 1_000_001);
        let grid = TimeNs::from_millis(1);
        for (k, &t) in x.times().iter().enumerate() {
            let expected = grid * k as i64;
            assert_eq!(
                TimeNs::from_secs_f64(t),
                expected,
                "sample {k} drifted off the record_dt grid: {t} vs {expected}"
            );
        }
        assert_eq!(sim.stats().integration_spans, 1_000_000);
    }

    /// The hot paths must not allocate in steady state: route walks,
    /// input staging, the emission queue and the ODE workspace all reuse
    /// engine-owned buffers, so the regression counter stays at zero
    /// across a run with thousands of deliveries and integrated spans.
    #[test]
    fn hot_path_is_allocation_free() {
        let (mut m, clk) = clocked(1);
        let c = m.add_block("c", Const(3.0));
        let i = m.add_block("i", Integ { x0: 0.0 });
        let s = m.add_block(
            "s",
            Sampler {
                held: 0.0,
                samples: vec![],
            },
        );
        m.connect(c, 0, i, 0).unwrap();
        m.connect(i, 0, s, 0).unwrap();
        m.connect_event(clk, 0, s, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let cap = sim.ode.capacity();
        sim.run(TimeNs::from_secs(2)).unwrap();
        assert!(sim.stats().events_delivered > 4000);
        assert!(sim.stats().integration_spans > 1000);
        assert_eq!(
            sim.stats().hot_allocs,
            0,
            "hot path allocated {} times",
            sim.stats().hot_allocs
        );
        assert_eq!(sim.ode.capacity(), cap);
    }

    #[test]
    fn model_mut_allows_retuning_between_runs() {
        let mut m = Model::new();
        let c = m.add_block("c", Const(1.0));
        let i = m.add_block("i", Integ { x0: 0.0 });
        m.connect(c, 0, i, 0).unwrap();
        m.probe("x", i, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        sim.run(TimeNs::from_millis(500)).unwrap();
        // Double the source mid-run: the second half integrates at slope 2.
        sim.model_mut().block_as_mut::<Const>(c).unwrap().0 = 2.0;
        let r = sim.run(TimeNs::from_secs(1)).unwrap();
        let x_end = r.signal("x").unwrap().last().unwrap().1;
        assert!((x_end - 1.5).abs() < 1e-6, "{x_end}");
    }

    /// Two sample-holds fire at the same instant and the second samples
    /// the first: the delivery to the first makes the output pass stale,
    /// so the second sees the value the first just latched.
    #[test]
    fn same_instant_delivery_sees_the_previous_holds_new_output() {
        let (mut m, clk) = clocked(100);
        let c = m.add_block("c", Const(5.0));
        let hold = |m: &mut Model, name: &str| {
            m.add_block(
                name,
                Sampler {
                    held: 0.0,
                    samples: vec![],
                },
            )
        };
        let (s1, s2) = (hold(&mut m, "s1"), hold(&mut m, "s2"));
        m.connect(c, 0, s1, 0).unwrap();
        m.connect(s1, 0, s2, 0).unwrap();
        m.connect_event(clk, 0, s1, 0).unwrap();
        m.connect_event(clk, 0, s2, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        sim.run(TimeNs::from_millis(300)).unwrap();
        let second = &sim.model().block_as::<Sampler>(s2).unwrap().samples;
        assert_eq!(second.len(), 4);
        assert!(second.iter().all(|&(_, v)| v == 5.0), "{second:?}");
    }

    /// A constant retuned through `model_mut` is seen by an event at the
    /// exact instant the next `run` resumes. Here a block fails the first
    /// run mid-instant, leaving a second clock's delivery at t = 0 in the
    /// calendar; nothing else runs an output pass before that delivery,
    /// so only `model_mut` marking the pass stale makes it see the retune.
    #[test]
    fn model_mut_retune_is_seen_at_the_instant_the_next_run_resumes() {
        /// Emits on an event output it does not have, once.
        struct FailOnce(bool);
        impl Block for FailOnce {
            fn type_name(&self) -> &'static str {
                "FailOnce"
            }
            fn ports(&self) -> PortSpec {
                PortSpec::event_sink(1)
            }
            fn on_event(&mut self, _p: usize, _t: TimeNs, ctx: &mut EventCtx<'_>) {
                if !std::mem::replace(&mut self.0, true) {
                    ctx.actions.emit(0, TimeNs::ZERO);
                }
            }
            impl_block_any!();
        }
        let (mut m, first) = clocked(250);
        let fail = m.add_block("fail", FailOnce(false));
        m.connect_event(first, 0, fail, 0).unwrap();
        let second = m.add_block(
            "clk2",
            Clock {
                period: TimeNs::from_millis(250),
            },
        );
        m.connect_event(second, 0, second, 0).unwrap();
        let c = m.add_block("c", Const(1.0));
        let s = m.add_block(
            "s",
            Sampler {
                held: 0.0,
                samples: vec![],
            },
        );
        m.connect(c, 0, s, 0).unwrap();
        m.connect_event(second, 0, s, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        assert!(matches!(
            sim.run(TimeNs::from_millis(250)),
            Err(SimError::InvalidEmit { .. })
        ));
        assert_eq!(sim.now(), TimeNs::ZERO);
        sim.model_mut().block_as_mut::<Const>(c).unwrap().0 = 2.0;
        sim.run(TimeNs::from_millis(250)).unwrap();
        let samples = &sim.model().block_as::<Sampler>(s).unwrap().samples;
        assert_eq!(
            samples,
            &[(TimeNs::ZERO, 2.0), (TimeNs::from_millis(250), 2.0)]
        );
    }

    /// Deliveries follow wiring order: an event output fanning out to
    /// three targets wired out of block-index order reaches them in the
    /// order they were wired, and a second output of the same block keeps
    /// its own targets, also in wiring order.
    #[test]
    fn fan_out_delivers_in_wiring_order() {
        /// Fires output 0 at t = 0 and output 1 at 1 ms.
        struct Fan;
        impl Block for Fan {
            fn type_name(&self) -> &'static str {
                "Fan"
            }
            fn ports(&self) -> PortSpec {
                PortSpec::event_source(2)
            }
            fn on_start(&mut self, actions: &mut EventActions) {
                actions.emit(0, TimeNs::ZERO);
                actions.emit(1, TimeNs::from_millis(1));
            }
            impl_block_any!();
        }
        struct Sink;
        impl Block for Sink {
            fn type_name(&self) -> &'static str {
                "Sink"
            }
            fn ports(&self) -> PortSpec {
                PortSpec::event_sink(2)
            }
            impl_block_any!();
        }
        let mut m = Model::new();
        let sinks: Vec<BlockId> = (0..3).map(|i| m.add_block(format!("s{i}"), Sink)).collect();
        let fan = m.add_block("fan", Fan);
        let wired = [(sinks[2], 1), (sinks[0], 0), (sinks[1], 1)];
        for &(dst, port) in &wired {
            m.connect_event(fan, 0, dst, port).unwrap();
        }
        let second = [(sinks[1], 0), (sinks[0], 1)];
        for &(dst, port) in &second {
            m.connect_event(fan, 1, dst, port).unwrap();
        }
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let log = sim.run(TimeNs::from_millis(2)).unwrap().event_log();
        let delivered: Vec<(usize, BlockId, usize)> =
            log.iter().map(|e| (e.out_port, e.target, e.port)).collect();
        let expected: Vec<(usize, BlockId, usize)> = wired
            .iter()
            .map(|&(dst, port)| (0, dst, port))
            .chain(second.iter().map(|&(dst, port)| (1, dst, port)))
            .collect();
        assert_eq!(delivered, expected);
        assert!(log.iter().all(|e| e.emitter == fan));
    }

    /// A model of event-only blocks has nothing for an output pass to
    /// evaluate: no block's `outputs` is ever called.
    #[test]
    fn event_only_model_never_calls_outputs() {
        struct Sink;
        impl Block for Sink {
            fn type_name(&self) -> &'static str {
                "Sink"
            }
            fn ports(&self) -> PortSpec {
                PortSpec::event_sink(1)
            }
            impl_block_any!();
        }
        let (sink_block, calls) = counted(Sink);
        let (mut m, clk) = clocked(10);
        let sink = m.add_block("sink", sink_block);
        m.connect_event(clk, 0, sink, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        sim.run(TimeNs::from_secs(1)).unwrap();
        assert_eq!(sim.stats().activations(sink), 101);
        assert_eq!(calls.load(Ordering::Relaxed), 0);
    }

    /// `Sampler → Gain → Integ`: the gain reads only a held value, so its
    /// output is constant between events and no RHS evaluation runs it —
    /// only committed passes do.
    #[test]
    fn held_input_chain_is_not_evaluated_within_a_span() {
        let (mut m, clk) = clocked(100);
        let c = m.add_block("c", Const(1.0));
        let s = m.add_block(
            "s",
            Sampler {
                held: 0.0,
                samples: vec![],
            },
        );
        let (gain, calls) = counted(Gain(2.0));
        let g = m.add_block("g", gain);
        let i = m.add_block("i", Integ { x0: 0.0 });
        m.connect(c, 0, s, 0).unwrap();
        m.connect(s, 0, g, 0).unwrap();
        m.connect(g, 0, i, 0).unwrap();
        m.connect_event(clk, 0, s, 0).unwrap();
        m.probe("x", i, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let x = sim.run(TimeNs::from_secs(1)).unwrap().signal("x").unwrap();
        assert!((x.last().unwrap().1 - 2.0).abs() < 1e-9);
        let stats = sim.stats();
        let bound = committed_pass_bound(stats);
        assert!(
            stats.ode.rhs_evals > 5 * bound,
            "the test needs many RHS calls"
        );
        assert!(calls.load(Ordering::Relaxed) <= bound);
    }

    /// `Wave → Gain → Integ`: the gain's input moves with `t`, so every
    /// RHS evaluation runs it.
    #[test]
    fn time_varying_chain_is_evaluated_on_every_rhs_call() {
        let mut m = Model::new();
        let w = m.add_block("w", Wave);
        let (gain, calls) = counted(Gain(2.0));
        let g = m.add_block("g", gain);
        let i = m.add_block("i", Integ { x0: 0.0 });
        m.connect(w, 0, g, 0).unwrap();
        m.connect(g, 0, i, 0).unwrap();
        m.probe("x", i, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let x = sim.run(TimeNs::from_secs(1)).unwrap().signal("x").unwrap();
        // ∫₀¹ 2·sin t dt = 2·(1 − cos 1)
        assert!((x.last().unwrap().1 - 2.0 * (1.0 - 1f64.cos())).abs() < 1e-9);
        let stats = sim.stats();
        let calls = calls.load(Ordering::Relaxed);
        assert!(calls >= stats.ode.rhs_evals);
        assert!(calls - stats.ode.rhs_evals <= committed_pass_bound(stats));
    }

    /// A stateful block whose output feeds only a sampler is read by no
    /// derivative, so the RHS never evaluates its outputs.
    #[test]
    fn stateful_block_feeding_only_samplers_is_not_evaluated_by_the_rhs() {
        let (mut m, clk) = clocked(100);
        let c = m.add_block("c", Const(1.0));
        let (integ, calls) = counted(Integ { x0: 0.0 });
        let i = m.add_block("i", integ);
        let s = m.add_block(
            "s",
            Sampler {
                held: 0.0,
                samples: vec![],
            },
        );
        m.connect(c, 0, i, 0).unwrap();
        m.connect(i, 0, s, 0).unwrap();
        m.connect_event(clk, 0, s, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        sim.run(TimeNs::from_secs(1)).unwrap();
        let samples = &sim.model().block_as::<Sampler>(s).unwrap().samples;
        assert!((samples[10].1 - 1.0).abs() < 1e-9, "{samples:?}");
        let stats = sim.stats();
        let bound = committed_pass_bound(stats);
        assert!(
            stats.ode.rhs_evals > 5 * bound,
            "the test needs many RHS calls"
        );
        assert!(calls.load(Ordering::Relaxed) <= bound);
    }
}
