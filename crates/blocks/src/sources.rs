//! Signal sources.

use ecl_sim::{impl_block_any, Block, EventCtx, PortSpec, SplitMix64, TimeNs};

/// Emits a constant value.
///
/// # Examples
///
/// ```
/// use ecl_blocks::Constant;
/// let c = Constant::new(2.5);
/// assert_eq!(c.value(), 2.5);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Constant {
    value: f64,
}

impl Constant {
    /// Creates a constant source.
    pub fn new(value: f64) -> Self {
        Constant { value }
    }

    /// The emitted value.
    pub fn value(&self) -> f64 {
        self.value
    }
}

impl Block for Constant {
    fn type_name(&self) -> &'static str {
        "Constant"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::source(1)
    }
    fn depends_on_time(&self) -> bool {
        false
    }
    fn outputs(&mut self, _t: f64, _x: &[f64], _u: &[f64], y: &mut [f64]) {
        y[0] = self.value;
    }
    impl_block_any!();
}

/// A step: `initial` before `step_time` (seconds), `final_value` after.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    step_time: f64,
    initial: f64,
    final_value: f64,
}

impl Step {
    /// Creates a step from `initial` to `final_value` at `step_time`
    /// seconds.
    pub fn new(step_time: f64, initial: f64, final_value: f64) -> Self {
        Step {
            step_time,
            initial,
            final_value,
        }
    }

    /// A unit step at `t = 0`.
    pub fn unit() -> Self {
        Step::new(0.0, 0.0, 1.0)
    }
}

impl Block for Step {
    fn type_name(&self) -> &'static str {
        "Step"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::source(1)
    }
    fn outputs(&mut self, t: f64, _x: &[f64], _u: &[f64], y: &mut [f64]) {
        y[0] = if t >= self.step_time {
            self.final_value
        } else {
            self.initial
        };
    }
    impl_block_any!();
}

/// A ramp: zero until `start_time`, then `slope · (t − start_time)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ramp {
    start_time: f64,
    slope: f64,
}

impl Ramp {
    /// Creates a ramp with the given slope starting at `start_time` seconds.
    pub fn new(start_time: f64, slope: f64) -> Self {
        Ramp { start_time, slope }
    }
}

impl Block for Ramp {
    fn type_name(&self) -> &'static str {
        "Ramp"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::source(1)
    }
    fn outputs(&mut self, t: f64, _x: &[f64], _u: &[f64], y: &mut [f64]) {
        y[0] = if t >= self.start_time {
            self.slope * (t - self.start_time)
        } else {
            0.0
        };
    }
    impl_block_any!();
}

/// A sinusoid `bias + amplitude · sin(2π·freq_hz·t + phase)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sine {
    amplitude: f64,
    freq_hz: f64,
    phase: f64,
    bias: f64,
}

impl Sine {
    /// Creates a sinusoid with the given amplitude and frequency (Hz), zero
    /// phase and bias.
    pub fn new(amplitude: f64, freq_hz: f64) -> Self {
        Sine {
            amplitude,
            freq_hz,
            phase: 0.0,
            bias: 0.0,
        }
    }

    /// Sets the phase (radians), builder-style.
    pub fn with_phase(mut self, phase: f64) -> Self {
        self.phase = phase;
        self
    }

    /// Sets the bias (offset), builder-style.
    pub fn with_bias(mut self, bias: f64) -> Self {
        self.bias = bias;
        self
    }
}

impl Block for Sine {
    fn type_name(&self) -> &'static str {
        "Sine"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::source(1)
    }
    fn outputs(&mut self, t: f64, _x: &[f64], _u: &[f64], y: &mut [f64]) {
        y[0] = self.bias
            + self.amplitude * (2.0 * std::f64::consts::PI * self.freq_hz * t + self.phase).sin();
    }
    impl_block_any!();
}

/// Zero-order-hold Gaussian noise, redrawn at each activation event.
///
/// The generator is seeded explicitly, so simulations are reproducible.
/// Used to model road profiles, sensor noise and other stochastic
/// disturbances in the benchmark plants.
#[derive(Debug)]
pub struct SampledNoise {
    mean: f64,
    std_dev: f64,
    rng: SplitMix64,
    held: f64,
}

impl SampledNoise {
    /// Creates a noise source with the given mean and standard deviation,
    /// deterministically seeded with `seed`.
    pub fn new(mean: f64, std_dev: f64, seed: u64) -> Self {
        SampledNoise {
            mean,
            std_dev,
            rng: SplitMix64::new(seed),
            held: mean,
        }
    }

    /// Draws a standard normal variate via Box–Muller.
    fn draw_normal(&mut self) -> f64 {
        let u1 = f64::EPSILON + (1.0 - f64::EPSILON) * self.rng.next_f64();
        let u2 = self.rng.next_f64();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }
}

impl Block for SampledNoise {
    fn type_name(&self) -> &'static str {
        "SampledNoise"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::new(0, 1, 1, 0)
    }
    fn depends_on_time(&self) -> bool {
        false
    }
    fn outputs(&mut self, _t: f64, _x: &[f64], _u: &[f64], y: &mut [f64]) {
        y[0] = self.held;
    }
    fn on_event(&mut self, _port: usize, _t: TimeNs, _ctx: &mut EventCtx<'_>) {
        let n = self.draw_normal();
        self.held = self.mean + self.std_dev * n;
    }
    impl_block_any!();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn out1(b: &mut impl Block, t: f64) -> f64 {
        let mut y = [0.0];
        b.outputs(t, &[], &[], &mut y);
        y[0]
    }

    #[test]
    fn constant_holds() {
        let mut c = Constant::new(3.0);
        assert_eq!(out1(&mut c, 0.0), 3.0);
        assert_eq!(out1(&mut c, 100.0), 3.0);
    }

    #[test]
    fn step_switches_at_step_time() {
        let mut s = Step::new(1.0, -1.0, 2.0);
        assert_eq!(out1(&mut s, 0.5), -1.0);
        assert_eq!(out1(&mut s, 1.0), 2.0);
        assert_eq!(out1(&mut s, 2.0), 2.0);
        let mut u = Step::unit();
        assert_eq!(out1(&mut u, 0.0), 1.0);
    }

    #[test]
    fn ramp_slopes_after_start() {
        let mut r = Ramp::new(1.0, 2.0);
        assert_eq!(out1(&mut r, 0.5), 0.0);
        assert_eq!(out1(&mut r, 2.0), 2.0);
    }

    #[test]
    fn sine_values() {
        let mut s = Sine::new(2.0, 1.0).with_bias(1.0).with_phase(0.0);
        assert!((out1(&mut s, 0.0) - 1.0).abs() < 1e-12);
        assert!((out1(&mut s, 0.25) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn noise_reproducible_and_redrawn_on_event() {
        let mk = || SampledNoise::new(0.0, 1.0, 42);
        let mut a = mk();
        let mut b = mk();
        // Held value before any event is the mean.
        assert_eq!(out1(&mut a, 0.0), 0.0);
        let mut actions = ecl_sim::EventActions::new();
        let mut ctx = EventCtx {
            inputs: &[],
            actions: &mut actions,
        };
        a.on_event(0, TimeNs::ZERO, &mut ctx);
        b.on_event(0, TimeNs::ZERO, &mut ctx);
        let va = out1(&mut a, 0.0);
        let vb = out1(&mut b, 0.0);
        assert_eq!(va, vb, "same seed must give same sequence");
        assert_ne!(va, 0.0, "value redrawn after event");
    }

    #[test]
    fn noise_statistics_roughly_match() {
        let mut n = SampledNoise::new(5.0, 2.0, 7);
        let mut acc = 0.0;
        let mut acc2 = 0.0;
        let count = 20_000;
        for _ in 0..count {
            let mut actions = ecl_sim::EventActions::new();
            let mut ctx = EventCtx {
                inputs: &[],
                actions: &mut actions,
            };
            n.on_event(0, TimeNs::ZERO, &mut ctx);
            let v = out1(&mut n, 0.0);
            acc += v;
            acc2 += v * v;
        }
        let mean = acc / count as f64;
        let var = acc2 / count as f64 - mean * mean;
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }
}
