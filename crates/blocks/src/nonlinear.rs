//! Additional nonlinear and signal-routing blocks.

use ecl_sim::{impl_block_any, Block, EventCtx, PortSpec, TimeNs};

use crate::error::BlockError;

/// Dead zone: zero inside `[-width, width]`, shifted linear outside —
/// models stiction and valve lash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeadZone {
    width: f64,
}

impl DeadZone {
    /// Creates a symmetric dead zone of half-width `width`.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if `width < 0` or not
    /// finite.
    pub fn new(width: f64) -> Result<Self, BlockError> {
        if !(width >= 0.0) || !width.is_finite() {
            return Err(BlockError::InvalidParameter {
                block: "DeadZone",
                parameter: "width",
                reason: format!("must be non-negative and finite, got {width}"),
            });
        }
        Ok(DeadZone { width })
    }
}

impl Block for DeadZone {
    fn type_name(&self) -> &'static str {
        "DeadZone"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::siso(1, 1)
    }
    fn depends_on_time(&self) -> bool {
        false
    }
    fn outputs(&mut self, _t: f64, _x: &[f64], u: &[f64], y: &mut [f64]) {
        let v = u[0];
        y[0] = if v > self.width {
            v - self.width
        } else if v < -self.width {
            v + self.width
        } else {
            0.0
        };
    }
    impl_block_any!();
}

/// Event-activated rate limiter: on each activation, moves its output
/// toward the input by at most `max_rate · Ts` — models actuator slew
/// limits in the sampled domain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RateLimiter {
    max_step: f64,
    held: f64,
}

impl RateLimiter {
    /// Creates a rate limiter allowing at most `max_step` change per
    /// activation, starting from `initial`.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if `max_step <= 0` or not
    /// finite.
    pub fn new(max_step: f64, initial: f64) -> Result<Self, BlockError> {
        if !(max_step > 0.0) || !max_step.is_finite() {
            return Err(BlockError::InvalidParameter {
                block: "RateLimiter",
                parameter: "max_step",
                reason: format!("must be positive and finite, got {max_step}"),
            });
        }
        Ok(RateLimiter {
            max_step,
            held: initial,
        })
    }

    /// The current (held) output.
    pub fn held(&self) -> f64 {
        self.held
    }
}

impl Block for RateLimiter {
    fn type_name(&self) -> &'static str {
        "RateLimiter"
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
    fn on_event(&mut self, _port: usize, _t: TimeNs, ctx: &mut EventCtx<'_>) {
        let target = ctx.inputs[0];
        let delta = (target - self.held).clamp(-self.max_step, self.max_step);
        self.held += delta;
    }
    impl_block_any!();
}

/// A sampled transport-delay line: each activation pushes the current
/// input; the output is the input as it was `depth` activations ago —
/// models fixed whole-sample network/processing delays in a baseline
/// (non-co-simulated) fashion.
#[derive(Debug, Clone, PartialEq)]
pub struct SampledDelayLine {
    buffer: Vec<f64>,
    /// Next slot to overwrite (circular).
    head: usize,
    held: f64,
}

impl SampledDelayLine {
    /// Creates a delay line of `depth` samples, pre-filled with `initial`.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if `depth == 0` (use a
    /// plain wire instead).
    pub fn new(depth: usize, initial: f64) -> Result<Self, BlockError> {
        if depth == 0 {
            return Err(BlockError::InvalidParameter {
                block: "SampledDelayLine",
                parameter: "depth",
                reason: "must be at least one sample".into(),
            });
        }
        Ok(SampledDelayLine {
            buffer: vec![initial; depth],
            head: 0,
            held: initial,
        })
    }

    /// The delay depth in samples.
    pub fn depth(&self) -> usize {
        self.buffer.len()
    }
}

impl Block for SampledDelayLine {
    fn type_name(&self) -> &'static str {
        "SampledDelayLine"
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
    fn on_event(&mut self, _port: usize, _t: TimeNs, ctx: &mut EventCtx<'_>) {
        // Pop the oldest sample, push the current input.
        self.held = self.buffer[self.head];
        self.buffer[self.head] = ctx.inputs[0];
        self.head = (self.head + 1) % self.buffer.len();
    }
    impl_block_any!();
}

/// Relay (bang-bang with hysteresis): output switches to `on_value` when
/// the input exceeds `upper`, back to `off_value` when it falls below
/// `lower`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Relay {
    lower: f64,
    upper: f64,
    off_value: f64,
    on_value: f64,
    state_on: bool,
}

impl Relay {
    /// Creates a relay with the given hysteresis band and output levels,
    /// initially off.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if `lower > upper`.
    pub fn new(lower: f64, upper: f64, off_value: f64, on_value: f64) -> Result<Self, BlockError> {
        if lower > upper {
            return Err(BlockError::InvalidParameter {
                block: "Relay",
                parameter: "lower/upper",
                reason: format!("lower ({lower}) must not exceed upper ({upper})"),
            });
        }
        Ok(Relay {
            lower,
            upper,
            off_value,
            on_value,
            state_on: false,
        })
    }

    /// `true` if the relay is currently on.
    pub fn is_on(&self) -> bool {
        self.state_on
    }
}

impl Block for Relay {
    fn type_name(&self) -> &'static str {
        "Relay"
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
        y[0] = if self.state_on {
            self.on_value
        } else {
            self.off_value
        };
    }
    fn on_event(&mut self, _port: usize, _t: TimeNs, ctx: &mut EventCtx<'_>) {
        let v = ctx.inputs[0];
        if self.state_on {
            if v < self.lower {
                self.state_on = false;
            }
        } else if v > self.upper {
            self.state_on = true;
        }
    }
    impl_block_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_sim::EventActions;

    fn activate(b: &mut impl Block, inputs: &[f64]) {
        let mut actions = EventActions::new();
        let mut ctx = EventCtx {
            inputs,
            actions: &mut actions,
        };
        b.on_event(0, TimeNs::ZERO, &mut ctx);
    }

    fn eval(b: &mut impl Block, u: &[f64]) -> f64 {
        let mut y = [0.0];
        b.outputs(0.0, &[], u, &mut y);
        y[0]
    }

    #[test]
    fn dead_zone_shape() {
        let mut dz = DeadZone::new(1.0).unwrap();
        assert_eq!(eval(&mut dz, &[0.5]), 0.0);
        assert_eq!(eval(&mut dz, &[-0.9]), 0.0);
        assert_eq!(eval(&mut dz, &[2.0]), 1.0);
        assert_eq!(eval(&mut dz, &[-3.0]), -2.0);
        assert!(DeadZone::new(-1.0).is_err());
        assert!(DeadZone::new(f64::NAN).is_err());
    }

    #[test]
    fn rate_limiter_slews() {
        let mut rl = RateLimiter::new(0.5, 0.0).unwrap();
        activate(&mut rl, &[2.0]);
        assert_eq!(rl.held(), 0.5);
        activate(&mut rl, &[2.0]);
        assert_eq!(rl.held(), 1.0);
        // Small changes pass through unclipped.
        activate(&mut rl, &[1.1]);
        assert!((rl.held() - 1.1).abs() < 1e-12);
        // Downward slew symmetric.
        activate(&mut rl, &[-5.0]);
        assert!((rl.held() - 0.6).abs() < 1e-12);
        assert!(RateLimiter::new(0.0, 0.0).is_err());
    }

    #[test]
    fn delay_line_shifts_by_depth() {
        let mut dl = SampledDelayLine::new(3, 0.0).unwrap();
        assert_eq!(dl.depth(), 3);
        let inputs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let mut outputs = Vec::new();
        for &u in &inputs {
            activate(&mut dl, &[u]);
            outputs.push(eval(&mut dl, &[]));
        }
        // y_k = u_{k-3} with initial fill 0.
        assert_eq!(outputs, vec![0.0, 0.0, 0.0, 1.0, 2.0]);
        assert!(SampledDelayLine::new(0, 0.0).is_err());
    }

    #[test]
    fn relay_hysteresis() {
        let mut r = Relay::new(-1.0, 1.0, 0.0, 10.0).unwrap();
        assert!(!r.is_on());
        assert_eq!(eval(&mut r, &[]), 0.0);
        activate(&mut r, &[0.5]); // inside the band: stays off
        assert!(!r.is_on());
        activate(&mut r, &[1.5]); // above upper: switches on
        assert!(r.is_on());
        assert_eq!(eval(&mut r, &[]), 10.0);
        activate(&mut r, &[0.0]); // inside the band: stays on
        assert!(r.is_on());
        activate(&mut r, &[-1.5]); // below lower: switches off
        assert!(!r.is_on());
        assert!(Relay::new(1.0, -1.0, 0.0, 1.0).is_err());
    }
}
