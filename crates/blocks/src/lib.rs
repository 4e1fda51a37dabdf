//! Scicos-style block library for the `ecl-sim` kernel.
//!
//! This crate provides the block vocabulary that the DATE 2008 methodology
//! paper builds on:
//!
//! * **Sources** — [`Constant`], [`Step`], [`Ramp`], [`Sine`],
//!   [`SampledNoise`];
//! * **Continuous dynamics** — [`Integrator`], [`StateSpaceCt`];
//! * **Static math** — [`Gain`], [`Sum`], [`Saturation`], [`Quantizer`];
//! * **Discrete (event-activated) dynamics** — [`UnitDelay`],
//!   [`DiscreteStateSpace`], [`PidBlock`];
//! * **Event processing** (paper §3) — [`Clock`] (periodic activation
//!   source), [`EventDelay`] (models an operation's execution duration,
//!   §3.2.1), [`EventSelect`] with a *condition mapping* (models
//!   conditional branches, §3.2.2), [`Synchronization`] (the block the
//!   paper introduces for inter-processor synchronization, §3.2.3), and
//!   [`SampleHold`] / [`Scope`] for the plant–controller interconnection of
//!   the paper's Fig. 2.
//!
//! # Examples
//!
//! A sampled loop in the stroboscopic model (paper Fig. 2): reference,
//! sampler and scope all activated by one clock.
//!
//! ```
//! use ecl_blocks::{add_clock, Constant, Gain, Integrator, SampleHold, Scope};
//! use ecl_sim::{Model, SimOptions, Simulator, TimeNs};
//!
//! # fn main() -> Result<(), ecl_sim::SimError> {
//! let mut m = Model::new();
//! let clk = add_clock(&mut m, "clk", TimeNs::from_millis(100), TimeNs::ZERO)?;
//! let r = m.add_block("ref", Constant::new(1.0));
//! let sh = m.add_block("sample", SampleHold::new(0.0));
//! m.connect(r, 0, sh, 0)?;
//! m.connect_event(clk, 0, sh, 0)?;
//! let scope = m.add_block("scope", Scope::new());
//! m.connect(sh, 0, scope, 0)?;
//! m.connect_event(clk, 0, scope, 0)?;
//! let mut sim = Simulator::new(m, SimOptions::default())?;
//! sim.run(TimeNs::from_secs(1))?;
//! let sc = sim.model().block_as::<Scope>(scope).unwrap();
//! assert_eq!(sc.samples().len(), 11);
//! # let _ = (Gain::new(1.0), Integrator::new(0.0));
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

mod continuous;
mod discrete;
mod error;
mod event;
mod math;
mod nonlinear;
mod sinks;
mod sources;

pub use continuous::{Integrator, StateSpaceCt};
pub use discrete::{DiscreteStateSpace, PidBlock, PidConfig, UnitDelay};
pub use error::BlockError;
pub use event::{
    add_clock, Clock, ConditionMapping, DelayAction, EventDelay, EventSelect, FaultyDelay,
    SampleHold, Synchronization,
};
pub use math::{Gain, Quantizer, Saturation, Sum};
pub use nonlinear::{DeadZone, RateLimiter, Relay, SampledDelayLine};
pub use sinks::Scope;
pub use sources::{Constant, Ramp, SampledNoise, Sine, Step};

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_sim::{Block, EventActions, EventCtx, TimeNs};

    /// Every block of the library, one instance each.
    fn library() -> Vec<Box<dyn Block>> {
        let ms = TimeNs::from_millis;
        let pid = PidConfig {
            kp: 2.0,
            ki: 0.5,
            kd: 0.1,
            n_filter: 10.0,
            ts: 0.01,
            u_max: 5.0,
        };
        vec![
            Box::new(Constant::new(2.5)),
            Box::new(Step::new(1.0, -1.0, 2.0)),
            Box::new(Ramp::new(0.5, 2.0)),
            Box::new(Sine::new(1.5, 2.0)),
            Box::new(SampledNoise::new(0.0, 1.0, 42)),
            Box::new(Integrator::new(0.3)),
            Box::new(
                StateSpaceCt::new(
                    1,
                    1,
                    1,
                    vec![-1.0],
                    vec![1.0],
                    vec![2.0],
                    vec![0.5],
                    vec![0.1],
                )
                .unwrap(),
            ),
            Box::new(Gain::new(-3.0)),
            Box::new(Sum::new(vec![1.0, -0.5, 2.0]).unwrap()),
            Box::new(Saturation::new(-1.0, 1.0).unwrap()),
            Box::new(Quantizer::new(0.1).unwrap()),
            Box::new(DeadZone::new(0.2).unwrap()),
            Box::new(RateLimiter::new(0.5, 0.0).unwrap()),
            Box::new(SampledDelayLine::new(1, 0.0).unwrap()),
            Box::new(Relay::new(-1.0, 1.0, 0.0, 10.0).unwrap()),
            Box::new(UnitDelay::new(0.0)),
            Box::new(
                DiscreteStateSpace::new(
                    1,
                    2,
                    2,
                    vec![0.5],
                    vec![1.0, -1.0],
                    vec![1.0, 2.0],
                    vec![0.5, 0.0, 0.0, 0.25],
                    vec![0.2],
                )
                .unwrap(),
            ),
            Box::new(PidBlock::new(pid).unwrap()),
            Box::new(Clock::new(ms(10), ms(0)).unwrap()),
            Box::new(EventDelay::new(ms(1)).unwrap()),
            Box::new(FaultyDelay::new(ms(1), vec![DelayAction::Drop]).unwrap()),
            Box::new(EventSelect::new(2, Box::new(|v| usize::from(v > 0.0))).unwrap()),
            Box::new(Synchronization::new(2).unwrap()),
            Box::new(SampleHold::new(0.0)),
            Box::new(Scope::new()),
        ]
    }

    /// `depends_on_time() == false` is a promise that `outputs()` reads
    /// neither `t` nor `x`: the engine holds such an output constant over
    /// an integration span. Each block that declares it is activated into
    /// a non-trivial latched state, then must give the same output bits at
    /// `t = 0` and `t = 123.4 s` with different `x` and the same inputs. A
    /// wrong declaration fails here rather than as a silent trace change.
    #[test]
    fn time_independent_declarations_hold() {
        let mut declared = Vec::new();
        for mut block in library() {
            if block.depends_on_time() {
                continue;
            }
            let name = block.type_name();
            declared.push(name);
            assert_eq!(block.num_states(), 0, "{name} has continuous states");
            let spec = block.ports();
            let u: Vec<f64> = (0..spec.inputs).map(|i| 1.5 - 0.75 * i as f64).collect();
            let mut actions = EventActions::new();
            for p in 0..spec.event_inputs {
                for k in 0..3 {
                    let seen: Vec<f64> = u.iter().map(|v| v * f64::from(k + 1)).collect();
                    let mut ctx = EventCtx {
                        inputs: &seen,
                        actions: &mut actions,
                    };
                    block.on_event(p, TimeNs::from_millis(i64::from(k)), &mut ctx);
                }
            }
            let mut at_zero = vec![0.0; spec.outputs];
            let mut later = vec![f64::NAN; spec.outputs];
            block.outputs(0.0, &[1.0, -2.0], &u, &mut at_zero);
            block.outputs(123.4, &[-3.5, 0.75], &u, &mut later);
            let bits = |y: &[f64]| y.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&at_zero), bits(&later), "{name} moved with t or x");
        }
        assert_eq!(
            declared,
            [
                "Constant",
                "SampledNoise",
                "Gain",
                "Sum",
                "Saturation",
                "Quantizer",
                "DeadZone",
                "RateLimiter",
                "SampledDelayLine",
                "Relay",
                "UnitDelay",
                "DiscreteStateSpace",
                "PidBlock",
                "SampleHold",
            ]
        );
    }
}
