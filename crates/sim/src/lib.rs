//! Deterministic hybrid continuous/discrete-event simulation kernel.
//!
//! `ecl-sim` reimplements the simulation semantics of Scicos (the Scilab
//! Connected Object Simulator) that the DATE 2008 methodology paper relies
//! on: block diagrams in which *continuous* blocks (integrated by an ODE
//! solver between event instants) and *discrete* blocks (activated by
//! **events** arriving on dedicated event ports) co-exist in one model.
//!
//! The design mirrors Scicos' essentials:
//!
//! * Blocks have **regular** input/output ports carrying `f64` signals and
//!   **event** input/output ports carrying activation events.
//! * A discrete block executes when an event arrives on one of its event
//!   inputs; at the end of its execution it may emit events on its event
//!   outputs (immediately or after a delay) — the mechanism the paper uses
//!   to model SynDEx schedules (§3.2.1).
//! * Continuous blocks expose state derivatives; the engine integrates all
//!   continuous state jointly between event instants with RK4 or adaptive
//!   RK45 (Dormand–Prince).
//! * Simulation time is an integer nanosecond count ([`TimeNs`]), so the
//!   event calendar is totally ordered with no floating-point drift — event
//!   instants coming from a static real-time schedule are reproduced
//!   exactly.
//!
//! # Examples
//!
//! A minimal model: a periodic clock activating a block that counts its own
//! activations.
//!
//! ```
//! use ecl_sim::{Block, EventActions, Model, PortSpec, SimOptions, Simulator, TimeNs};
//!
//! struct Counter { n: u64 }
//! impl Block for Counter {
//!     fn type_name(&self) -> &'static str { "Counter" }
//!     fn ports(&self) -> PortSpec { PortSpec::event_sink(1) }
//!     fn on_event(&mut self, _port: usize, _t: TimeNs, _ctx: &mut ecl_sim::EventCtx<'_>) {
//!         self.n += 1;
//!     }
//!     ecl_sim::impl_block_any!();
//! }
//!
//! // A periodic clock, Scicos-style: an emitter looped back onto its own
//! // event input so each firing schedules the next one.
//! struct Tick { period: TimeNs }
//! impl Block for Tick {
//!     fn type_name(&self) -> &'static str { "Tick" }
//!     fn ports(&self) -> PortSpec { PortSpec::event_pipe(1, 1) }
//!     fn on_start(&mut self, actions: &mut EventActions) {
//!         actions.emit(0, TimeNs::ZERO);
//!     }
//!     fn on_event(&mut self, _port: usize, _t: TimeNs, ctx: &mut ecl_sim::EventCtx<'_>) {
//!         ctx.actions.emit(0, self.period);
//!     }
//!     ecl_sim::impl_block_any!();
//! }
//!
//! # fn main() -> Result<(), ecl_sim::SimError> {
//! let mut model = Model::new();
//! let tick = model.add_block("tick", Tick { period: TimeNs::from_millis(10) });
//! let counter = model.add_block("counter", Counter { n: 0 });
//! model.connect_event(tick, 0, tick, 0)?;    // self-loop drives the period
//! model.connect_event(tick, 0, counter, 0)?;
//! let mut sim = Simulator::new(model, SimOptions::default())?;
//! sim.run(TimeNs::from_millis(95))?;   // returns &SimResult; `result()`
//! let result = sim.result();           // re-borrows it shared
//! let counter_ref: &Counter = sim.model().block_as(counter).unwrap();
//! assert_eq!(counter_ref.n, 10); // t = 0, 10, ..., 90
//! assert!(result.event_log().len() >= 10);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![allow(
    // `!(x > 0.0)` deliberately treats NaN as invalid; partial_cmp would
    // obscure that.
    clippy::neg_cmp_op_on_partial_ord,
    // Index loops mirror the textbook matrix formulas they implement.
    clippy::needless_range_loop
)]
#![warn(missing_docs)]

mod block;
mod engine;
mod error;
mod event;
mod linear;
mod model;
pub mod ode;
mod rng;
mod stats;
mod time;
mod trace;

pub use block::{Block, EventActions, EventCtx, PortSpec};
pub use engine::{SimOptions, Simulator};
pub use error::SimError;
pub use event::{EventCalendar, ScheduledEvent};
pub use model::{BlockId, Model};
pub use ode::{Integrator, OdeRhs};
pub use rng::{splitmix64, SplitMix64};
pub use stats::{EngineStats, OdeStepStats};
pub use time::TimeNs;
pub use trace::{EventRecord, ProbeId, Signal, SimResult};
