use std::any::Any;

use crate::time::TimeNs;

/// Port counts declared by a [`Block`].
///
/// Regular ports carry `f64` signals; event ports carry activation events
/// (the red ports of Scicos diagrams).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PortSpec {
    /// Number of regular (signal) inputs.
    pub inputs: usize,
    /// Number of regular (signal) outputs.
    pub outputs: usize,
    /// Number of event (activation) inputs.
    pub event_inputs: usize,
    /// Number of event (activation) outputs.
    pub event_outputs: usize,
}

impl PortSpec {
    /// Creates a spec with all four counts.
    pub const fn new(
        inputs: usize,
        outputs: usize,
        event_inputs: usize,
        event_outputs: usize,
    ) -> Self {
        PortSpec {
            inputs,
            outputs,
            event_inputs,
            event_outputs,
        }
    }

    /// A pure signal source: no inputs, `outputs` signal outputs.
    pub const fn source(outputs: usize) -> Self {
        PortSpec::new(0, outputs, 0, 0)
    }

    /// A pure signal sink: `inputs` signal inputs, nothing else.
    pub const fn sink(inputs: usize) -> Self {
        PortSpec::new(inputs, 0, 0, 0)
    }

    /// A signal transformer: `inputs` in, `outputs` out, no event ports.
    pub const fn siso(inputs: usize, outputs: usize) -> Self {
        PortSpec::new(inputs, outputs, 0, 0)
    }

    /// A pure event source: `event_outputs` event outputs only.
    pub const fn event_source(event_outputs: usize) -> Self {
        PortSpec::new(0, 0, 0, event_outputs)
    }

    /// A pure event sink: `event_inputs` event inputs only.
    pub const fn event_sink(event_inputs: usize) -> Self {
        PortSpec::new(0, 0, event_inputs, 0)
    }

    /// An event transformer: `event_inputs` in, `event_outputs` out.
    pub const fn event_pipe(event_inputs: usize, event_outputs: usize) -> Self {
        PortSpec::new(0, 0, event_inputs, event_outputs)
    }
}

/// Deferred event emissions produced by a block during
/// [`Block::on_start`] or [`Block::on_event`].
///
/// Each entry is `(event output port, delay from now)`. The engine
/// validates the port index and the non-negativity of the delay, then
/// schedules the emission on the event calendar.
#[derive(Debug, Default)]
pub struct EventActions {
    pub(crate) emissions: Vec<(usize, TimeNs)>,
}

impl EventActions {
    /// Creates an empty action set.
    pub fn new() -> Self {
        EventActions::default()
    }

    /// Creates an empty action set with room for `cap` emissions.
    pub(crate) fn with_capacity(cap: usize) -> Self {
        EventActions {
            emissions: Vec::with_capacity(cap),
        }
    }

    /// Requests an event on event-output `port`, `delay` after the current
    /// instant. `TimeNs::ZERO` emits at the current instant (after the
    /// current event finishes — Scicos "end of execution" semantics).
    pub fn emit(&mut self, port: usize, delay: TimeNs) {
        self.emissions.push((port, delay));
    }

    /// Number of queued emissions.
    pub fn len(&self) -> usize {
        self.emissions.len()
    }

    /// `true` if nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.emissions.is_empty()
    }
}

/// Context handed to [`Block::on_event`].
///
/// Exposes the block's freshly evaluated regular inputs and the action set
/// through which it emits events at the end of its execution.
#[derive(Debug)]
pub struct EventCtx<'a> {
    /// Current values of the block's regular inputs.
    pub inputs: &'a [f64],
    /// Event emissions to schedule when this activation completes.
    pub actions: &'a mut EventActions,
}

/// A simulation block (Scicos "bloc").
///
/// A block declares its ports via [`Block::ports`] and participates in the
/// three evaluation passes of the engine:
///
/// 1. **Output pass** — [`Block::outputs`] maps (time, continuous state,
///    inputs) to outputs. Must be *idempotent*: it may be called many times
///    per instant (once per ODE stage) and must not advance logical state.
///    The engine skips the pass while nothing it reads has changed, so
///    outputs may depend only on those arguments and the block's own
///    state. Within an integration span the engine re-evaluates only the
///    blocks whose outputs can move there and feed the derivative pass;
///    every other block keeps the outputs of the last pass.
/// 2. **Derivative pass** — [`Block::derivatives`] fills `dx` for blocks
///    with continuous state ([`Block::num_states`] > 0).
/// 3. **Event pass** — [`Block::on_event`] runs when an activation event
///    arrives on one of the block's event inputs; this is where discrete
///    state advances and new events are emitted.
///
/// Two declarations tell the engine what an output reads; they are
/// Scicos' `dep_ut = [dep_u, dep_t]` pair:
///
/// * [`Block::feedthrough`] is `dep_u` — some output reads an input at
///   the same instant;
/// * [`Block::depends_on_time`] is `dep_t` — some output reads `t`, or
///   anything else that moves within an integration span.
///
/// A block is *varying* within a span if it has continuous states, or
/// depends on time, or has a feedthrough input driven by a varying
/// block. Between two events the outputs of every other block are
/// constant, so the RHS pass does not evaluate them. Both declarations
/// default to `true`, which is always correct; a wrong `false` silently
/// freezes an output over a span.
///
/// Implementors must also provide the two `as_any` accessors (used to
/// recover concrete block types after a simulation); the
/// [`impl_block_any!`](crate::impl_block_any) macro writes them for you.
///
/// Blocks are `Send` so a whole [`Model`](crate::Model) — and therefore a
/// co-simulation — can be built on one thread and run on another, which
/// is what the scenario-sweep worker pool does. Blocks are plain state
/// machines; none needs shared interior mutability.
pub trait Block: Send + 'static {
    /// A short, stable name of the block *type* (e.g. `"SampleHold"`).
    fn type_name(&self) -> &'static str;

    /// The port counts of this block instance.
    fn ports(&self) -> PortSpec;

    /// `true` if some regular output depends *directly* (at the same
    /// instant) on regular input `input`. Used for algebraic-loop detection
    /// and evaluation ordering. Defaults to `true` (conservative); blocks
    /// whose outputs read only internal state (integrators, delays,
    /// sample-and-hold) should return `false`.
    fn feedthrough(&self, input: usize) -> bool {
        let _ = input;
        true
    }

    /// `true` if [`Block::outputs`] reads `t` (or anything else that moves
    /// within a span) — Scicos' `dep_t`. Defaults to `true` (conservative).
    /// Blocks whose outputs read only latched state and their inputs
    /// (constants, sample-and-hold, discrete controllers, pure maps such
    /// as a gain) should return `false`. Continuous states are accounted
    /// for separately: a block with [`Block::num_states`] > 0 is
    /// re-evaluated within a span whatever this returns.
    fn depends_on_time(&self) -> bool {
        true
    }

    /// Number of continuous states integrated by the engine.
    fn num_states(&self) -> usize {
        0
    }

    /// Writes the initial continuous state into `x`
    /// (`x.len() == self.num_states()`). Defaults to zeros.
    fn init_states(&self, x: &mut [f64]) {
        for xi in x {
            *xi = 0.0;
        }
    }

    /// Writes the state derivative at time `t` (seconds) into `dx`.
    ///
    /// Only called when [`Block::num_states`] is non-zero.
    fn derivatives(&self, t: f64, x: &[f64], inputs: &[f64], dx: &mut [f64]) {
        let _ = (t, x, inputs);
        for d in dx {
            *d = 0.0;
        }
    }

    /// The block's derivative as a linear map, if it is exactly one: the
    /// row-major `(A, B)` pair, `A` of `n·n` and `B` of `n·m` entries,
    /// with `n` = [`Block::num_states`] and `m` the regular input count.
    /// Defaults to `None`.
    ///
    /// `Some((a, b))` is a bit contract: for every `t`, `x` and `u`,
    /// [`Block::derivatives`] must write into `dx[i]` exactly the `f64`
    /// sum `0.0 + a[i·n]·x[0] + … + a[i·n+n−1]·x[n−1] + b[i·m]·u[0] + … +
    /// b[i·m+m−1]·u[m−1]`, each product rounded, added left to right from
    /// `0.0`. When every block with states makes this promise and none of
    /// their inputs can move within a span, the engine evaluates these
    /// sums itself instead of calling `derivatives`, and a run's every
    /// bit is the same as through `derivatives`. A derivative that only
    /// equals such a sum in real arithmetic must keep the default: an
    /// integrator's `dx = u` differs from `0 + 0·x + 1·u` when `u` is
    /// `−0.0` or `x` is infinite.
    fn linear_dynamics(&self) -> Option<(&[f64], &[f64])> {
        None
    }

    /// Computes the block's regular outputs at time `t` (seconds).
    ///
    /// Must be idempotent (see the trait-level docs). Defaults to leaving
    /// the outputs untouched, which is correct for blocks without regular
    /// outputs.
    fn outputs(&mut self, t: f64, x: &[f64], inputs: &[f64], outputs: &mut [f64]) {
        let _ = (t, x, inputs, outputs);
    }

    /// Called once before simulation starts; the usual place for activation
    /// sources to schedule their first emission.
    fn on_start(&mut self, actions: &mut EventActions) {
        let _ = actions;
    }

    /// Called when an activation event arrives on event input `port` at
    /// instant `t`. Discrete state advances here; emissions are queued on
    /// `ctx.actions`.
    fn on_event(&mut self, port: usize, t: TimeNs, ctx: &mut EventCtx<'_>) {
        let _ = (port, t, ctx);
    }

    /// Upcast for post-simulation downcasting. Write it with
    /// [`impl_block_any!`](crate::impl_block_any).
    fn as_any(&self) -> &dyn Any;

    /// Mutable upcast for post-simulation downcasting.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Implements the boilerplate [`Block::as_any`] / [`Block::as_any_mut`]
/// pair inside a `Block` impl.
///
/// # Examples
///
/// ```
/// use ecl_sim::{Block, PortSpec};
///
/// struct Null;
/// impl Block for Null {
///     fn type_name(&self) -> &'static str { "Null" }
///     fn ports(&self) -> PortSpec { PortSpec::default() }
///     ecl_sim::impl_block_any!();
/// }
/// ```
#[macro_export]
macro_rules! impl_block_any {
    () => {
        fn as_any(&self) -> &dyn ::std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn ::std::any::Any {
            self
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Nop;
    impl Block for Nop {
        fn type_name(&self) -> &'static str {
            "Nop"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::siso(1, 1)
        }
        impl_block_any!();
    }

    #[test]
    fn port_spec_helpers() {
        assert_eq!(PortSpec::source(2), PortSpec::new(0, 2, 0, 0));
        assert_eq!(PortSpec::sink(3), PortSpec::new(3, 0, 0, 0));
        assert_eq!(PortSpec::siso(1, 2), PortSpec::new(1, 2, 0, 0));
        assert_eq!(PortSpec::event_source(1), PortSpec::new(0, 0, 0, 1));
        assert_eq!(PortSpec::event_sink(2), PortSpec::new(0, 0, 2, 0));
        assert_eq!(PortSpec::event_pipe(2, 1), PortSpec::new(0, 0, 2, 1));
    }

    #[test]
    fn default_trait_methods() {
        let mut b = Nop;
        assert!(b.feedthrough(0));
        assert!(b.depends_on_time());
        assert_eq!(b.num_states(), 0);
        let mut x = [1.0, 2.0];
        b.init_states(&mut x);
        assert_eq!(x, [0.0, 0.0]);
        let mut dx = [5.0];
        b.derivatives(0.0, &[], &[], &mut dx);
        assert_eq!(dx, [0.0]);
        // default on_start / on_event do nothing
        let mut actions = EventActions::new();
        b.on_start(&mut actions);
        assert!(actions.is_empty());
    }

    #[test]
    fn event_actions_collect() {
        let mut a = EventActions::new();
        assert!(a.is_empty());
        a.emit(0, TimeNs::ZERO);
        a.emit(1, TimeNs::from_millis(5));
        assert_eq!(a.len(), 2);
        assert_eq!(
            a.emissions,
            vec![(0, TimeNs::ZERO), (1, TimeNs::from_millis(5))]
        );
        a.emissions.clear();
        assert!(a.is_empty());
    }

    #[test]
    fn downcast_via_as_any() {
        let b: Box<dyn Block> = Box::new(Nop);
        assert!(b.as_any().downcast_ref::<Nop>().is_some());
    }
}
