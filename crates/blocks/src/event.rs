//! Event-processing blocks — the vocabulary of the paper's §3.
//!
//! These blocks are the building material of the *graph of delays*: a
//! Scicos sub-graph that replays the temporal behaviour of a SynDEx static
//! schedule by emitting activation events at the instants the real
//! implementation would sample, compute and actuate.
//!
//! | Paper construction | Block |
//! |---|---|
//! | activation clock (stroboscopic model, Fig. 2) | [`Clock`] |
//! | sequencing / operation durations (§3.2.1, Fig. 4) | [`EventDelay`] |
//! | conditioning / `if..then..else` branches (§3.2.2, Fig. 5) | [`EventSelect`] + [`ConditionMapping`] |
//! | inter-processor synchronization (§3.2.3) | [`Synchronization`] |
//! | sampling / actuation interface (Fig. 2) | [`SampleHold`] |

use ecl_sim::{
    impl_block_any, Block, BlockId, EventActions, EventCtx, Model, PortSpec, SimError, TimeNs,
};

use crate::error::BlockError;

/// A periodic activation clock.
///
/// Scicos-style: the clock is an event *pipe* whose output must be looped
/// back onto its own event input so that each firing schedules the next
/// one. [`add_clock`] adds the block and the self-loop in one call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Clock {
    period: TimeNs,
    offset: TimeNs,
}

impl Clock {
    /// Creates a clock with the given period, first firing at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if the period is not
    /// strictly positive or the offset is negative.
    pub fn new(period: TimeNs, offset: TimeNs) -> Result<Self, BlockError> {
        if period <= TimeNs::ZERO {
            return Err(BlockError::InvalidParameter {
                block: "Clock",
                parameter: "period",
                reason: format!("must be positive, got {period}"),
            });
        }
        if offset.is_negative() {
            return Err(BlockError::InvalidParameter {
                block: "Clock",
                parameter: "offset",
                reason: format!("must be non-negative, got {offset}"),
            });
        }
        Ok(Clock { period, offset })
    }

    /// The clock period.
    pub fn period(&self) -> TimeNs {
        self.period
    }
}

impl Block for Clock {
    fn type_name(&self) -> &'static str {
        "Clock"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::event_pipe(1, 1)
    }
    fn on_start(&mut self, actions: &mut EventActions) {
        actions.emit(0, self.offset);
    }
    fn on_event(&mut self, _port: usize, _t: TimeNs, ctx: &mut EventCtx<'_>) {
        ctx.actions.emit(0, self.period);
    }
    impl_block_any!();
}

/// Adds a [`Clock`] to `model` and wires its self-loop.
///
/// Returns the clock's id; connect its event output 0 to the blocks it
/// should activate.
///
/// # Errors
///
/// Propagates [`Clock::new`] parameter errors as
/// [`SimError::InvalidModel`], and wiring errors from
/// [`Model::connect_event`].
///
/// # Examples
///
/// ```
/// use ecl_blocks::add_clock;
/// use ecl_sim::{Model, TimeNs};
/// # fn main() -> Result<(), ecl_sim::SimError> {
/// let mut m = Model::new();
/// let clk = add_clock(&mut m, "clk", TimeNs::from_millis(10), TimeNs::ZERO)?;
/// assert_eq!(m.ports(clk)?.event_outputs, 1);
/// # Ok(())
/// # }
/// ```
pub fn add_clock(
    model: &mut Model,
    name: impl Into<String>,
    period: TimeNs,
    offset: TimeNs,
) -> Result<BlockId, SimError> {
    let clock = Clock::new(period, offset).map_err(|e| SimError::InvalidModel {
        reason: e.to_string(),
    })?;
    let id = model.add_block(name, clock);
    model.connect_event(id, 0, id, 0)?;
    Ok(id)
}

/// Re-emits each incoming event after a fixed delay — the Scicos
/// `Event Delay` block modelling the WCET of one schedule operation
/// (paper §3.2.1).
///
/// An activation arriving at `t` produces an output event at `t + delay`;
/// chaining `EventDelay` blocks reproduces the sequencing of operations on
/// one processor (paper Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EventDelay {
    delay: TimeNs,
}

impl EventDelay {
    /// Creates an event delay of `delay` (non-negative).
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] for a negative delay.
    pub fn new(delay: TimeNs) -> Result<Self, BlockError> {
        if delay.is_negative() {
            return Err(BlockError::InvalidParameter {
                block: "EventDelay",
                parameter: "delay",
                reason: format!("must be non-negative, got {delay}"),
            });
        }
        Ok(EventDelay { delay })
    }

    /// The configured delay.
    pub fn delay(&self) -> TimeNs {
        self.delay
    }
}

impl Block for EventDelay {
    fn type_name(&self) -> &'static str {
        "EventDelay"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::event_pipe(1, 1)
    }
    fn on_event(&mut self, _port: usize, _t: TimeNs, ctx: &mut EventCtx<'_>) {
        ctx.actions.emit(0, self.delay);
    }
    impl_block_any!();
}

/// What a [`FaultyDelay`] does with one activation.
///
/// Actions are indexed by activation count: element `k` of the action
/// plan applies to the block's `k`-th activation (one per period in a
/// healthy graph of delays). Activations beyond the end of the plan pass
/// through unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DelayAction {
    /// Emit after the base delay (no fault).
    #[default]
    Pass,
    /// Emit after the base delay plus the given extra time — a frame lost
    /// and retransmitted `k` times stretches a communication slot by
    /// `k · retry cost`.
    Stretch(TimeNs),
    /// Swallow the activation: the completion event never fires this
    /// period (exhausted retransmissions, link outage, dead processor).
    Drop,
}

/// An [`EventDelay`] that replays a per-activation fault plan: each
/// incoming event is delayed, delayed longer, or dropped according to the
/// [`DelayAction`] at its activation index.
///
/// This is the fault-injection counterpart of the schedule slots in the
/// graph of delays: a dropped activation means the operation (or
/// transfer) never completes that period, so downstream Sample/Hold
/// blocks keep their last value and the period's latency machinery
/// records a skipped event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultyDelay {
    delay: TimeNs,
    actions: Vec<DelayAction>,
    activations: u64,
    dropped: u64,
    stretched: u64,
}

impl FaultyDelay {
    /// Creates a faulty delay with base `delay` and the given action plan.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] for a negative base delay
    /// or a negative stretch amount.
    pub fn new(delay: TimeNs, actions: Vec<DelayAction>) -> Result<Self, BlockError> {
        if delay.is_negative() {
            return Err(BlockError::InvalidParameter {
                block: "FaultyDelay",
                parameter: "delay",
                reason: format!("must be non-negative, got {delay}"),
            });
        }
        if let Some(bad) = actions.iter().find_map(|a| match a {
            DelayAction::Stretch(extra) if extra.is_negative() => Some(*extra),
            _ => None,
        }) {
            return Err(BlockError::InvalidParameter {
                block: "FaultyDelay",
                parameter: "actions",
                reason: format!("stretch must be non-negative, got {bad}"),
            });
        }
        Ok(FaultyDelay {
            delay,
            actions,
            activations: 0,
            dropped: 0,
            stretched: 0,
        })
    }

    /// The base delay (the slot's fault-free duration).
    pub fn delay(&self) -> TimeNs {
        self.delay
    }

    /// Activations swallowed so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Activations stretched so far.
    pub fn stretched(&self) -> u64 {
        self.stretched
    }
}

impl Block for FaultyDelay {
    fn type_name(&self) -> &'static str {
        "FaultyDelay"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::event_pipe(1, 1)
    }
    fn on_event(&mut self, _port: usize, _t: TimeNs, ctx: &mut EventCtx<'_>) {
        let k = self.activations as usize;
        self.activations += 1;
        match self.actions.get(k).copied().unwrap_or_default() {
            DelayAction::Pass => ctx.actions.emit(0, self.delay),
            DelayAction::Stretch(extra) => {
                self.stretched += 1;
                ctx.actions.emit(0, self.delay + extra);
            }
            DelayAction::Drop => self.dropped += 1,
        }
    }
    impl_block_any!();
}

/// The *condition mapping* function of the paper's §3.2.2: maps the value
/// of the conditioning variable (a regular input) to the index of the
/// event-output channel that should fire.
pub type ConditionMapping = Box<dyn Fn(f64) -> usize + Send>;

/// Routes each incoming event to one of `n` event outputs, chosen by a
/// [`ConditionMapping`] applied to the block's regular input — the Scicos
/// `Event Select` construction for schedule conditioning (paper §3.2.2,
/// Fig. 5).
///
/// If the mapping returns an out-of-range channel the event is routed to
/// the last channel (a defensive clamp; the paper assumes a total mapping).
pub struct EventSelect {
    n: usize,
    mapping: ConditionMapping,
    /// Channel selected at the most recent activation (for inspection).
    last_choice: Option<usize>,
}

impl std::fmt::Debug for EventSelect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSelect")
            .field("n", &self.n)
            .field("last_choice", &self.last_choice)
            .finish()
    }
}

impl EventSelect {
    /// Creates a selector with `n` output channels and the given mapping.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if `n == 0`.
    pub fn new(n: usize, mapping: ConditionMapping) -> Result<Self, BlockError> {
        if n == 0 {
            return Err(BlockError::InvalidParameter {
                block: "EventSelect",
                parameter: "n",
                reason: "needs at least one output channel".into(),
            });
        }
        Ok(EventSelect {
            n,
            mapping,
            last_choice: None,
        })
    }

    /// A two-way selector: channel 1 if the condition input is non-zero,
    /// channel 0 otherwise (the `if..then..else` of the paper).
    pub fn boolean() -> Self {
        EventSelect {
            n: 2,
            mapping: Box::new(|v| usize::from(v != 0.0)),
            last_choice: None,
        }
    }

    /// The channel chosen at the most recent activation, if any.
    pub fn last_choice(&self) -> Option<usize> {
        self.last_choice
    }
}

impl Block for EventSelect {
    fn type_name(&self) -> &'static str {
        "EventSelect"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::new(1, 0, 1, self.n)
    }
    fn on_event(&mut self, _port: usize, _t: TimeNs, ctx: &mut EventCtx<'_>) {
        let k = (self.mapping)(ctx.inputs[0]).min(self.n - 1);
        self.last_choice = Some(k);
        ctx.actions.emit(k, TimeNs::ZERO);
    }
    impl_block_any!();
}

/// The `Synchronization` block introduced by the paper (§3.2.3).
///
/// `n` event inputs, one event output. The block fires (and resets its
/// internal received-flags) once *every* input has received at least one
/// event since the last reset — modelling a rendezvous between the
/// computation sequence of a processor and the communication sequences of
/// the media it waits on.
/// With [`Synchronization::with_timeout`] the block grows one extra event
/// input — the *timeout arm* (paper-extension for graceful degradation):
/// if the barrier has not fired since the previous timeout tick, the tick
/// forces a fire with whatever inputs have arrived. A dead predecessor
/// (processor dropout, dropped communication) therefore degrades the
/// period instead of deadlocking it: downstream Sample/Hold blocks
/// re-activate on stale data rather than never again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Synchronization {
    received: Vec<bool>,
    /// Number of times the block has fired.
    fired: u64,
    timeout: Option<TimeoutArm>,
}

/// State of the optional timeout arm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TimeoutArm {
    /// Whether the barrier fired (normally or forced) since the last tick.
    fired_in_window: bool,
    /// Number of fires forced by the timeout.
    forced: u64,
}

impl Synchronization {
    /// Creates a synchronization barrier over `n` event inputs.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if `n == 0`.
    pub fn new(n: usize) -> Result<Self, BlockError> {
        if n == 0 {
            return Err(BlockError::InvalidParameter {
                block: "Synchronization",
                parameter: "n",
                reason: "needs at least one event input".into(),
            });
        }
        Ok(Synchronization {
            received: vec![false; n],
            fired: 0,
            timeout: None,
        })
    }

    /// Creates a barrier over `n` event inputs plus a timeout arm on
    /// event input `n`: wire a once-per-period event (e.g. the period
    /// clock through an [`EventDelay`] just shorter than the period) to
    /// that port. A tick arriving when the barrier has not fired since
    /// the previous tick forces a fire and resets the pending flags.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if `n == 0`.
    pub fn with_timeout(n: usize) -> Result<Self, BlockError> {
        let mut s = Synchronization::new(n)?;
        s.timeout = Some(TimeoutArm {
            fired_in_window: false,
            forced: 0,
        });
        Ok(s)
    }

    /// Number of times the barrier has fired.
    pub fn fired(&self) -> u64 {
        self.fired
    }

    /// Number of fires forced by the timeout arm (0 without one).
    pub fn timeout_fires(&self) -> u64 {
        self.timeout.map_or(0, |t| t.forced)
    }

    /// `true` if input `port` has an event pending since the last reset.
    pub fn pending(&self, port: usize) -> bool {
        self.received.get(port).copied().unwrap_or(false)
    }

    fn fire(&mut self, ctx: &mut EventCtx<'_>) {
        for r in &mut self.received {
            *r = false;
        }
        self.fired += 1;
        if let Some(t) = &mut self.timeout {
            t.fired_in_window = true;
        }
        ctx.actions.emit(0, TimeNs::ZERO);
    }
}

impl Block for Synchronization {
    fn type_name(&self) -> &'static str {
        "Synchronization"
    }
    fn ports(&self) -> PortSpec {
        let extra = usize::from(self.timeout.is_some());
        PortSpec::new(0, 0, self.received.len() + extra, 1)
    }
    fn on_event(&mut self, port: usize, _t: TimeNs, ctx: &mut EventCtx<'_>) {
        if self.timeout.is_some() && port == self.received.len() {
            let arm = self.timeout.as_mut().expect("timeout arm present");
            let fired_in_window = std::mem::replace(&mut arm.fired_in_window, false);
            if !fired_in_window {
                self.timeout.as_mut().expect("timeout arm present").forced += 1;
                self.fire(ctx);
                // `fire` marked the window as served; the next window
                // starts empty.
                self.timeout
                    .as_mut()
                    .expect("timeout arm present")
                    .fired_in_window = false;
            }
            return;
        }
        if let Some(flag) = self.received.get_mut(port) {
            *flag = true;
        }
        if self.received.iter().all(|&r| r) {
            self.fire(ctx);
        }
    }
    impl_block_any!();
}

/// Sample-and-hold: on activation, latches its input; the output holds the
/// latched value between activations.
///
/// Two instances model the controller's interface in the paper's Fig. 2:
/// one samples the plant output (sensor), one holds the control input
/// (actuator). The activation instants of these blocks *are* the
/// `I_j(k)` / `O_j(k)` of the paper's equations (1)–(2).
#[derive(Debug, Clone, PartialEq)]
pub struct SampleHold {
    held: f64,
    /// `(instant, value)` log of every sample taken.
    samples: Vec<(TimeNs, f64)>,
}

impl SampleHold {
    /// Creates a sample-and-hold holding `initial` until first activated.
    pub fn new(initial: f64) -> Self {
        SampleHold {
            held: initial,
            samples: Vec::new(),
        }
    }

    /// The value currently held.
    pub fn held(&self) -> f64 {
        self.held
    }

    /// The log of `(instant, value)` samples taken so far.
    pub fn samples(&self) -> &[(TimeNs, f64)] {
        &self.samples
    }
}

impl Block for SampleHold {
    fn type_name(&self) -> &'static str {
        "SampleHold"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::new(1, 1, 1, 0)
    }
    fn feedthrough(&self, _input: usize) -> bool {
        false
    }
    fn depends_on_time(&self) -> bool {
        false
    }
    fn outputs(&mut self, _t: f64, _x: &[f64], _u: &[f64], y: &mut [f64]) {
        y[0] = self.held;
    }
    fn on_event(&mut self, _port: usize, t: TimeNs, ctx: &mut EventCtx<'_>) {
        self.held = ctx.inputs[0];
        self.samples.push((t, self.held));
    }
    impl_block_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_sim::{Model, SimOptions, Simulator};

    use crate::sinks::Scope;
    use crate::sources::Ramp;

    #[test]
    fn clock_parameter_validation() {
        assert!(Clock::new(TimeNs::ZERO, TimeNs::ZERO).is_err());
        assert!(Clock::new(TimeNs::from_millis(1), TimeNs::from_millis(-1)).is_err());
        let c = Clock::new(TimeNs::from_millis(5), TimeNs::ZERO).unwrap();
        assert_eq!(c.period(), TimeNs::from_millis(5));
    }

    #[test]
    fn clock_fires_with_offset() {
        let mut m = Model::new();
        let clk = m.add_block(
            "clk",
            Clock::new(TimeNs::from_millis(10), TimeNs::from_millis(3)).unwrap(),
        );
        m.connect_event(clk, 0, clk, 0).unwrap();
        let sync = m.add_block("probe", Synchronization::new(1).unwrap());
        m.connect_event(clk, 0, sync, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_millis(40)).unwrap();
        let times = r.activation_times(sync, Some(0));
        assert_eq!(
            times,
            vec![
                TimeNs::from_millis(3),
                TimeNs::from_millis(13),
                TimeNs::from_millis(23),
                TimeNs::from_millis(33)
            ]
        );
    }

    #[test]
    fn event_delay_shifts_events() {
        let mut m = Model::new();
        let clk = add_clock(&mut m, "clk", TimeNs::from_millis(100), TimeNs::ZERO).unwrap();
        let d = m.add_block("d", EventDelay::new(TimeNs::from_millis(7)).unwrap());
        m.connect_event(clk, 0, d, 0).unwrap();
        let sink = m.add_block("sink", Synchronization::new(1).unwrap());
        m.connect_event(d, 0, sink, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_millis(250)).unwrap();
        assert_eq!(
            r.activation_times(sink, Some(0)),
            vec![
                TimeNs::from_millis(7),
                TimeNs::from_millis(107),
                TimeNs::from_millis(207)
            ]
        );
        assert!(EventDelay::new(TimeNs::from_millis(-1)).is_err());
    }

    #[test]
    fn event_delay_chain_models_sequencing() {
        // Paper Fig. 4: F1 ; F2 ; F3 with durations 5, 3, 2 ms — each
        // stage's completion event arrives at the cumulative sum.
        let mut m = Model::new();
        let clk = add_clock(&mut m, "clk", TimeNs::from_millis(100), TimeNs::ZERO).unwrap();
        let f1 = m.add_block("F1", EventDelay::new(TimeNs::from_millis(5)).unwrap());
        let f2 = m.add_block("F2", EventDelay::new(TimeNs::from_millis(3)).unwrap());
        let f3 = m.add_block("F3", EventDelay::new(TimeNs::from_millis(2)).unwrap());
        m.connect_event(clk, 0, f1, 0).unwrap();
        m.connect_event(f1, 0, f2, 0).unwrap();
        m.connect_event(f2, 0, f3, 0).unwrap();
        let end = m.add_block("end", Synchronization::new(1).unwrap());
        m.connect_event(f3, 0, end, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_millis(150)).unwrap();
        assert_eq!(
            r.activation_times(end, Some(0)),
            vec![TimeNs::from_millis(10), TimeNs::from_millis(110)]
        );
    }

    #[test]
    fn event_select_routes_by_condition() {
        // Condition ramps from 0: mapping chooses channel 1 when cond >= 1.
        let mut m = Model::new();
        let clk = add_clock(&mut m, "clk", TimeNs::from_millis(100), TimeNs::ZERO).unwrap();
        let cond = m.add_block("cond", Ramp::new(0.0, 10.0)); // 1.0 at t=0.1
        let sel = m.add_block(
            "sel",
            EventSelect::new(2, Box::new(|v| usize::from(v >= 1.0))).unwrap(),
        );
        m.connect(cond, 0, sel, 0).unwrap();
        m.connect_event(clk, 0, sel, 0).unwrap();
        let s0 = m.add_block("s0", Synchronization::new(1).unwrap());
        let s1 = m.add_block("s1", Synchronization::new(1).unwrap());
        m.connect_event(sel, 0, s0, 0).unwrap();
        m.connect_event(sel, 1, s1, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_millis(250)).unwrap();
        // t=0 -> cond 0 -> ch0 ; t=100,200 ms -> cond >= 1 -> ch1
        assert_eq!(r.activation_times(s0, Some(0)).len(), 1);
        assert_eq!(r.activation_times(s1, Some(0)).len(), 2);
        let sel_ref = sim.model().block_as::<EventSelect>(sel).unwrap();
        assert_eq!(sel_ref.last_choice(), Some(1));
    }

    #[test]
    fn event_select_validation_and_boolean() {
        assert!(EventSelect::new(0, Box::new(|_| 0)).is_err());
        let b = EventSelect::boolean();
        assert_eq!(b.ports().event_outputs, 2);
    }

    #[test]
    fn event_select_clamps_out_of_range() {
        let mut sel = EventSelect::new(2, Box::new(|_| 99)).unwrap();
        let mut actions = EventActions::new();
        let mut ctx = EventCtx {
            inputs: &[0.0],
            actions: &mut actions,
        };
        sel.on_event(0, TimeNs::ZERO, &mut ctx);
        assert_eq!(sel.last_choice(), Some(1));
    }

    #[test]
    fn synchronization_waits_for_all_inputs() {
        let mut sync = Synchronization::new(3).unwrap();
        let fire = |s: &mut Synchronization, port: usize| -> bool {
            let mut actions = EventActions::new();
            let mut ctx = EventCtx {
                inputs: &[],
                actions: &mut actions,
            };
            s.on_event(port, TimeNs::ZERO, &mut ctx);
            !actions.is_empty()
        };
        assert!(!fire(&mut sync, 0));
        assert!(sync.pending(0));
        assert!(!fire(&mut sync, 0)); // duplicate on same port does not fire
        assert!(!fire(&mut sync, 2));
        assert!(fire(&mut sync, 1)); // all three seen -> fires and resets
        assert_eq!(sync.fired(), 1);
        assert!(!sync.pending(0) && !sync.pending(1) && !sync.pending(2));
        // Next round requires all three again.
        assert!(!fire(&mut sync, 1));
        assert!(Synchronization::new(0).is_err());
    }

    #[test]
    fn synchronization_in_model_joins_two_branches() {
        // Two delays (3 ms and 8 ms) from one clock tick; the barrier fires
        // at the max of the two, i.e. 8 ms.
        let mut m = Model::new();
        let clk = add_clock(&mut m, "clk", TimeNs::from_millis(100), TimeNs::ZERO).unwrap();
        let d1 = m.add_block("d1", EventDelay::new(TimeNs::from_millis(3)).unwrap());
        let d2 = m.add_block("d2", EventDelay::new(TimeNs::from_millis(8)).unwrap());
        m.connect_event(clk, 0, d1, 0).unwrap();
        m.connect_event(clk, 0, d2, 0).unwrap();
        let sync = m.add_block("sync", Synchronization::new(2).unwrap());
        m.connect_event(d1, 0, sync, 0).unwrap();
        m.connect_event(d2, 0, sync, 1).unwrap();
        let sink = m.add_block("sink", Synchronization::new(1).unwrap());
        m.connect_event(sync, 0, sink, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_millis(150)).unwrap();
        assert_eq!(
            r.activation_times(sink, Some(0)),
            vec![TimeNs::from_millis(8), TimeNs::from_millis(108)]
        );
    }

    #[test]
    fn sample_hold_latches_on_activation() {
        let mut m = Model::new();
        let clk = add_clock(&mut m, "clk", TimeNs::from_millis(250), TimeNs::ZERO).unwrap();
        let ramp = m.add_block("ramp", Ramp::new(0.0, 1.0));
        let sh = m.add_block("sh", SampleHold::new(-1.0));
        m.connect(ramp, 0, sh, 0).unwrap();
        m.connect_event(clk, 0, sh, 0).unwrap();
        let scope = m.add_block("scope", Scope::new());
        m.connect(sh, 0, scope, 0).unwrap();
        m.connect_event(clk, 0, scope, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        sim.run(TimeNs::from_secs(1)).unwrap();
        let sh_ref = sim.model().block_as::<SampleHold>(sh).unwrap();
        let vals: Vec<f64> = sh_ref.samples().iter().map(|&(_, v)| v).collect();
        assert_eq!(vals.len(), 5);
        for (k, v) in vals.iter().enumerate() {
            assert!((v - 0.25 * k as f64).abs() < 1e-9, "sample {k} = {v}");
        }
        assert_eq!(sh_ref.held(), 1.0);
    }

    #[test]
    fn add_clock_invalid_period_maps_error() {
        let mut m = Model::new();
        assert!(matches!(
            add_clock(&mut m, "c", TimeNs::ZERO, TimeNs::ZERO),
            Err(SimError::InvalidModel { .. })
        ));
    }

    #[test]
    fn faulty_delay_validation() {
        assert!(FaultyDelay::new(TimeNs::from_millis(-1), vec![]).is_err());
        assert!(FaultyDelay::new(
            TimeNs::from_millis(1),
            vec![DelayAction::Stretch(TimeNs::from_millis(-2))]
        )
        .is_err());
        let d = FaultyDelay::new(TimeNs::from_millis(3), vec![DelayAction::Drop]).unwrap();
        assert_eq!(d.delay(), TimeNs::from_millis(3));
    }

    #[test]
    fn faulty_delay_pass_stretch_drop_sequencing() {
        // Activation 0 passes at the base delay, activation 1 is stretched
        // by 4 ms (two retransmissions at 2 ms), activation 2 is dropped,
        // and activations past the plan default to Pass.
        let mut m = Model::new();
        let clk = add_clock(&mut m, "clk", TimeNs::from_millis(100), TimeNs::ZERO).unwrap();
        let d = m.add_block(
            "d",
            FaultyDelay::new(
                TimeNs::from_millis(7),
                vec![
                    DelayAction::Pass,
                    DelayAction::Stretch(TimeNs::from_millis(4)),
                    DelayAction::Drop,
                ],
            )
            .unwrap(),
        );
        m.connect_event(clk, 0, d, 0).unwrap();
        let sink = m.add_block("sink", Synchronization::new(1).unwrap());
        m.connect_event(d, 0, sink, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_millis(350)).unwrap();
        assert_eq!(
            r.activation_times(sink, Some(0)),
            vec![
                TimeNs::from_millis(7),
                TimeNs::from_millis(111),
                TimeNs::from_millis(307)
            ]
        );
        let d_ref = sim.model().block_as::<FaultyDelay>(d).unwrap();
        assert_eq!(d_ref.dropped(), 1);
        assert_eq!(d_ref.stretched(), 1);
    }

    #[test]
    fn synchronization_timeout_forces_fire_on_dead_input() {
        // Barrier over two inputs but input 1 is never fed: the timeout
        // tick on port 2 force-fires the period.
        let mut sync = Synchronization::with_timeout(2).unwrap();
        assert_eq!(sync.ports().event_inputs, 3);
        let fire = |s: &mut Synchronization, port: usize| -> bool {
            let mut actions = EventActions::new();
            let mut ctx = EventCtx {
                inputs: &[],
                actions: &mut actions,
            };
            s.on_event(port, TimeNs::ZERO, &mut ctx);
            !actions.is_empty()
        };
        assert!(!fire(&mut sync, 0)); // input 1 dead -> barrier stuck
        assert!(fire(&mut sync, 2)); // timeout forces the fire
        assert_eq!(sync.fired(), 1);
        assert_eq!(sync.timeout_fires(), 1);
        assert!(!sync.pending(0)); // pending flags were reset
                                   // Healthy window: both inputs arrive, barrier fires normally …
        assert!(!fire(&mut sync, 0));
        assert!(fire(&mut sync, 1));
        assert_eq!(sync.fired(), 2);
        // … so the next timeout tick is a no-op.
        assert!(!fire(&mut sync, 2));
        assert_eq!(sync.fired(), 2);
        assert_eq!(sync.timeout_fires(), 1);
        // And the window after that, dead again, is forced again.
        assert!(fire(&mut sync, 2));
        assert_eq!(sync.timeout_fires(), 2);
    }

    #[test]
    fn synchronization_without_timeout_reports_zero_forced() {
        let sync = Synchronization::new(2).unwrap();
        assert_eq!(sync.ports().event_inputs, 2);
        assert_eq!(sync.timeout_fires(), 0);
    }
}
