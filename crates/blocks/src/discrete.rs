//! Event-activated (discrete) dynamic blocks.
//!
//! Following the paper's execution model, discrete blocks *latch* their
//! outputs: on activation the block computes its output from the state and
//! inputs it sees at that instant, then advances its state. Downstream
//! blocks sampling the output later in the period therefore see the value
//! computed at the activation instant — exactly what generated real-time
//! code does.

use ecl_sim::{impl_block_any, Block, EventCtx, PortSpec, TimeNs};

use crate::error::BlockError;

/// One-step delay `y_k = u_{k-1}`, advanced on each activation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnitDelay {
    /// Value emitted until the first activation.
    initial: f64,
    /// Output currently held (u_{k-1}).
    held: f64,
    /// Input stored at the previous activation.
    last_in: f64,
}

impl UnitDelay {
    /// Creates a unit delay emitting `initial` until the first activation.
    pub fn new(initial: f64) -> Self {
        UnitDelay {
            initial,
            held: initial,
            last_in: initial,
        }
    }
}

impl Block for UnitDelay {
    fn type_name(&self) -> &'static str {
        "UnitDelay"
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
        self.held = self.last_in;
        self.last_in = ctx.inputs[0];
    }
    impl_block_any!();
}

/// A discrete linear state-space controller/filter
///
/// ```text
/// x_{k+1} = Ad·x_k + Bd·u_k,    y_k = Cd·x_k + Dd·u_k
/// ```
///
/// activated by events. On each activation the block computes and latches
/// `y_k` from the *pre-update* state, then advances the state — the
/// compute-then-hold behaviour of generated controller code.
#[derive(Debug, Clone, PartialEq)]
pub struct DiscreteStateSpace {
    n: usize,
    m: usize,
    p: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    d: Vec<f64>,
    x: Vec<f64>,
    y: Vec<f64>,
    /// Number of activations processed so far.
    activations: u64,
}

impl DiscreteStateSpace {
    /// Creates a discrete state-space block from row-major matrices
    /// (`a`: n·n, `b`: n·m, `c`: p·n, `d`: p·m) and initial state `x0`.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidDimensions`] on any length mismatch or
    /// if `m == 0` / `p == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        n: usize,
        m: usize,
        p: usize,
        a: Vec<f64>,
        b: Vec<f64>,
        c: Vec<f64>,
        d: Vec<f64>,
        x0: Vec<f64>,
    ) -> Result<Self, BlockError> {
        let check = |name: &str, got: usize, want: usize| -> Result<(), BlockError> {
            if got != want {
                Err(BlockError::InvalidDimensions {
                    block: "DiscreteStateSpace",
                    reason: format!("{name} has {got} entries, expected {want}"),
                })
            } else {
                Ok(())
            }
        };
        if m == 0 || p == 0 {
            return Err(BlockError::InvalidDimensions {
                block: "DiscreteStateSpace",
                reason: format!("need at least one input and output, got m={m}, p={p}"),
            });
        }
        check("Ad", a.len(), n * n)?;
        check("Bd", b.len(), n * m)?;
        check("Cd", c.len(), p * n)?;
        check("Dd", d.len(), p * m)?;
        check("x0", x0.len(), n)?;
        Ok(DiscreteStateSpace {
            n,
            m,
            p,
            a,
            b,
            c,
            d,
            x: x0,
            y: vec![0.0; p],
            activations: 0,
        })
    }

    /// A static output feedback `y = −K·u` (no state), the shape produced
    /// by LQR synthesis.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidDimensions`] if `k` is empty or ragged
    /// against `(p, m)`.
    pub fn static_gain(p: usize, m: usize, k: Vec<f64>) -> Result<Self, BlockError> {
        if k.len() != p * m {
            return Err(BlockError::InvalidDimensions {
                block: "DiscreteStateSpace",
                reason: format!("gain has {} entries, expected {}", k.len(), p * m),
            });
        }
        DiscreteStateSpace::new(0, m, p, vec![], vec![], vec![], k, vec![])
    }

    /// Number of activations processed so far.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// The currently latched output vector.
    pub fn latched_output(&self) -> &[f64] {
        &self.y
    }

    /// The current internal state.
    pub fn state(&self) -> &[f64] {
        &self.x
    }
}

impl Block for DiscreteStateSpace {
    fn type_name(&self) -> &'static str {
        "DiscreteStateSpace"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::new(self.m, self.p, 1, 0)
    }
    fn feedthrough(&self, _input: usize) -> bool {
        false // outputs are latched at activation
    }
    fn depends_on_time(&self) -> bool {
        false
    }
    fn outputs(&mut self, _t: f64, _x: &[f64], _u: &[f64], y: &mut [f64]) {
        y.copy_from_slice(&self.y);
    }
    fn on_event(&mut self, _port: usize, _t: TimeNs, ctx: &mut EventCtx<'_>) {
        let u = ctx.inputs;
        // y_k = C x_k + D u_k (latched)
        for i in 0..self.p {
            let mut acc = 0.0;
            for j in 0..self.n {
                acc += self.c[i * self.n + j] * self.x[j];
            }
            for j in 0..self.m {
                acc += self.d[i * self.m + j] * u[j];
            }
            self.y[i] = acc;
        }
        // x_{k+1} = A x_k + B u_k
        let mut xn = vec![0.0; self.n];
        for i in 0..self.n {
            let mut acc = 0.0;
            for j in 0..self.n {
                acc += self.a[i * self.n + j] * self.x[j];
            }
            for j in 0..self.m {
                acc += self.b[i * self.m + j] * u[j];
            }
            xn[i] = acc;
        }
        self.x = xn;
        self.activations += 1;
    }
    impl_block_any!();
}

/// Tuning and configuration of a discrete PID controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PidConfig {
    /// Proportional gain.
    pub kp: f64,
    /// Integral gain (continuous-time; integrated with period `ts`).
    pub ki: f64,
    /// Derivative gain.
    pub kd: f64,
    /// Derivative low-pass filter coefficient (typical 5–20); the filter
    /// pole is at `N/ts`.
    pub n_filter: f64,
    /// Sampling period in seconds.
    pub ts: f64,
    /// Output saturation `±u_max` with back-calculation anti-windup;
    /// `f64::INFINITY` disables it.
    pub u_max: f64,
}

impl PidConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidParameter`] if `ts <= 0`,
    /// `n_filter <= 0`, or `u_max <= 0`.
    pub fn validate(&self) -> Result<(), BlockError> {
        let bad = |parameter: &'static str, reason: String| BlockError::InvalidParameter {
            block: "PidBlock",
            parameter,
            reason,
        };
        if !(self.ts > 0.0) {
            return Err(bad("ts", format!("must be positive, got {}", self.ts)));
        }
        if !(self.n_filter > 0.0) {
            return Err(bad(
                "n_filter",
                format!("must be positive, got {}", self.n_filter),
            ));
        }
        if !(self.u_max > 0.0) {
            return Err(bad(
                "u_max",
                format!("must be positive, got {}", self.u_max),
            ));
        }
        Ok(())
    }
}

/// A discrete PID controller with filtered derivative and back-calculation
/// anti-windup.
///
/// Inputs: `u0` = reference, `u1` = measurement. Output: latched control
/// value, updated on each activation.
#[derive(Debug, Clone, PartialEq)]
pub struct PidBlock {
    cfg: PidConfig,
    /// Integral accumulator.
    integral: f64,
    /// Filtered derivative state.
    deriv: f64,
    /// Previous error (for the derivative).
    prev_err: f64,
    /// Latched output.
    held: f64,
    first: bool,
}

impl PidBlock {
    /// Creates a PID controller from a validated configuration.
    ///
    /// # Errors
    ///
    /// See [`PidConfig::validate`].
    pub fn new(cfg: PidConfig) -> Result<Self, BlockError> {
        cfg.validate()?;
        Ok(PidBlock {
            cfg,
            integral: 0.0,
            deriv: 0.0,
            prev_err: 0.0,
            held: 0.0,
            first: true,
        })
    }

    /// The currently latched control value.
    pub fn latched_output(&self) -> f64 {
        self.held
    }
}

impl Block for PidBlock {
    fn type_name(&self) -> &'static str {
        "PidBlock"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::new(2, 1, 1, 0)
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
        let cfg = self.cfg;
        let err = ctx.inputs[0] - ctx.inputs[1];
        if self.first {
            self.prev_err = err;
            self.first = false;
        }
        // Filtered derivative: d_k = a·d_{k-1} + N·(e_k − e_{k-1})/ts·(1−a)
        // with a = exp(−N) per period (backward-difference approximation).
        let a = (-cfg.n_filter).exp();
        let raw_d = (err - self.prev_err) / cfg.ts;
        self.deriv = a * self.deriv + (1.0 - a) * raw_d;
        self.prev_err = err;

        let unsat = cfg.kp * err + cfg.ki * self.integral + cfg.kd * self.deriv;
        let sat = unsat.clamp(-cfg.u_max, cfg.u_max);
        // Back-calculation anti-windup: only integrate the error reduced by
        // the saturation excess.
        let windup = if cfg.ki != 0.0 {
            (unsat - sat) / cfg.ki
        } else {
            0.0
        };
        self.integral += cfg.ts * err - windup;
        self.held = sat;
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

    fn out1(b: &mut impl Block) -> f64 {
        let mut y = [0.0];
        b.outputs(0.0, &[], &[], &mut y);
        y[0]
    }

    #[test]
    fn unit_delay_shifts_by_one() {
        let mut d = UnitDelay::new(0.0);
        assert_eq!(out1(&mut d), 0.0);
        activate(&mut d, &[1.0]); // k=0: y becomes u_{-1} = 0
        assert_eq!(out1(&mut d), 0.0);
        activate(&mut d, &[2.0]); // k=1: y = u_0 = 1
        assert_eq!(out1(&mut d), 1.0);
        activate(&mut d, &[3.0]); // k=2: y = u_1 = 2
        assert_eq!(out1(&mut d), 2.0);
    }

    #[test]
    fn discrete_ss_accumulator() {
        // x+ = x + u, y = x: a discrete integrator.
        let mut ss = DiscreteStateSpace::new(
            1,
            1,
            1,
            vec![1.0],
            vec![1.0],
            vec![1.0],
            vec![0.0],
            vec![0.0],
        )
        .unwrap();
        assert_eq!(out1(&mut ss), 0.0);
        activate(&mut ss, &[2.0]); // y latches C·x0 = 0, x -> 2
        assert_eq!(out1(&mut ss), 0.0);
        assert_eq!(ss.state(), &[2.0]);
        activate(&mut ss, &[3.0]); // y latches 2, x -> 5
        assert_eq!(out1(&mut ss), 2.0);
        assert_eq!(ss.state(), &[5.0]);
        assert_eq!(ss.activations(), 2);
        assert_eq!(ss.latched_output(), &[2.0]);
    }

    #[test]
    fn discrete_ss_static_gain() {
        let mut k = DiscreteStateSpace::static_gain(1, 2, vec![-1.0, -2.0]).unwrap();
        activate(&mut k, &[3.0, 4.0]);
        assert_eq!(out1(&mut k), -11.0);
        assert!(DiscreteStateSpace::static_gain(1, 2, vec![1.0]).is_err());
    }

    #[test]
    fn discrete_ss_rejects_bad_dims() {
        assert!(DiscreteStateSpace::new(
            1,
            1,
            1,
            vec![],
            vec![1.0],
            vec![1.0],
            vec![0.0],
            vec![0.0]
        )
        .is_err());
        assert!(DiscreteStateSpace::new(0, 0, 1, vec![], vec![], vec![], vec![], vec![]).is_err());
    }

    #[test]
    fn pid_proportional_only() {
        let mut pid = PidBlock::new(PidConfig {
            kp: 2.0,
            ki: 0.0,
            kd: 0.0,
            n_filter: 10.0,
            ts: 0.1,
            u_max: f64::INFINITY,
        })
        .unwrap();
        activate(&mut pid, &[1.0, 0.25]);
        assert!((pid.latched_output() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn pid_integral_accumulates() {
        let mut pid = PidBlock::new(PidConfig {
            kp: 0.0,
            ki: 1.0,
            kd: 0.0,
            n_filter: 10.0,
            ts: 0.5,
            u_max: f64::INFINITY,
        })
        .unwrap();
        activate(&mut pid, &[1.0, 0.0]);
        activate(&mut pid, &[1.0, 0.0]);
        // After two activations the integral holds 2 * 0.5 * 1.0 = 1.0, but
        // the output latched at activation 2 uses the integral after one
        // step (0.5): u = ki * integral_before_update? The implementation
        // integrates after computing the output, so u_2 = 0.5.
        assert!((pid.latched_output() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn pid_saturation_and_antiwindup() {
        let mut pid = PidBlock::new(PidConfig {
            kp: 10.0,
            ki: 5.0,
            kd: 0.0,
            n_filter: 10.0,
            ts: 0.1,
            u_max: 1.0,
        })
        .unwrap();
        for _ in 0..50 {
            activate(&mut pid, &[10.0, 0.0]);
        }
        assert_eq!(pid.latched_output(), 1.0, "output clamped");
        // Back-calculation parks the integral at the fixed point of
        // I' = I + ts·e − (unsat − sat)/ki, i.e. I* = ts·e − (kp·e − u_max)/ki
        // = 1 − 99/5 = −18.8. Without anti-windup it would grow without
        // bound (+0.1·10 per step → +50 after 50 steps).
        assert!(
            (pid.integral + 18.8).abs() < 0.5,
            "integral {}",
            pid.integral
        );
    }

    #[test]
    fn pid_derivative_kicks_on_error_change() {
        let mut pid = PidBlock::new(PidConfig {
            kp: 0.0,
            ki: 0.0,
            kd: 1.0,
            n_filter: 100.0,
            ts: 1.0,
            u_max: f64::INFINITY,
        })
        .unwrap();
        activate(&mut pid, &[0.0, 0.0]);
        assert_eq!(pid.latched_output(), 0.0);
        activate(&mut pid, &[1.0, 0.0]);
        assert!(pid.latched_output() > 0.5, "derivative responded");
    }

    #[test]
    fn pid_config_validation() {
        let ok = PidConfig {
            kp: 1.0,
            ki: 0.0,
            kd: 0.0,
            n_filter: 10.0,
            ts: 0.1,
            u_max: 1.0,
        };
        assert!(ok.validate().is_ok());
        assert!(PidConfig { ts: 0.0, ..ok }.validate().is_err());
        assert!(PidConfig {
            n_filter: 0.0,
            ..ok
        }
        .validate()
        .is_err());
        assert!(PidConfig { u_max: 0.0, ..ok }.validate().is_err());
    }
}
