//! Explicit Runge–Kutta integrators used between event instants.
//!
//! The engine integrates the joint continuous state of the model with
//! either classic fixed-step RK4 or the adaptive Dormand–Prince RK45 pair.
//! Both operate on an [`OdeRhs`] closure-style trait so they are reusable
//! outside the engine (and directly testable against analytic solutions).

use crate::error::SimError;
use crate::stats::OdeStepStats;

/// Right-hand side of an ODE `ẋ = f(t, x)`.
///
/// Implemented by the engine (which evaluates the block diagram) and by
/// plain closures via the blanket impl below.
pub trait OdeRhs {
    /// Writes `f(t, x)` into `dx` (`dx.len() == x.len()`).
    fn eval(&mut self, t: f64, x: &[f64], dx: &mut [f64]);
}

impl<F> OdeRhs for F
where
    F: FnMut(f64, &[f64], &mut [f64]),
{
    fn eval(&mut self, t: f64, x: &[f64], dx: &mut [f64]) {
        self(t, x, dx)
    }
}

/// Integrator selection and tuning for the simulation engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Integrator {
    /// Classic fixed-step 4th-order Runge–Kutta with step `h` (seconds).
    /// The last step of each span is shortened to land exactly on the event
    /// instant.
    Rk4 {
        /// Step size in seconds. Must be positive.
        h: f64,
    },
    /// Adaptive Dormand–Prince 5(4) with per-step error control.
    Rk45 {
        /// Relative tolerance.
        rtol: f64,
        /// Absolute tolerance.
        atol: f64,
        /// Largest step the controller may take (seconds).
        h_max: f64,
    },
}

impl Default for Integrator {
    /// RK45 with `rtol = 1e-8`, `atol = 1e-10`, `h_max = 0.01 s`.
    fn default() -> Self {
        Integrator::Rk45 {
            rtol: 1e-8,
            atol: 1e-10,
            h_max: 0.01,
        }
    }
}

/// Reusable integrator buffers, in one allocation: the seven
/// Dormand–Prince stages, the stage input and the 5th-order candidate,
/// `n` values each. RK4 uses the first four stages and the stage input.
/// RK45 keeps these on the stack instead for the state lengths of
/// [`STACK_LENGTHS`], and never touches the workspace for them.
///
/// The buffer grows only when a state longer than any before is
/// integrated on it; [`capacity`](OdeWorkspace::capacity) changes exactly
/// then, which is how the engine counts integrator allocations in
/// `EngineStats::hot_allocs`.
#[derive(Debug, Default)]
pub(crate) struct OdeWorkspace {
    buf: Vec<f64>,
    /// State length the buffer is laid out for.
    n: usize,
}

/// Vectors of the workspace: seven stages, the stage input, the candidate.
const WORKSPACE_VECTORS: usize = 9;

/// State lengths RK45 integrates on stack arrays, with every loop bound
/// known at compile time: those of the plants in `ecl_control::plants`
/// (cruise control, the DC motor, the pendulum and the quarter car).
const STACK_LENGTHS: [usize; 3] = [1, 2, 4];

impl OdeWorkspace {
    /// A workspace sized for what `method` needs to integrate states of
    /// length `n`: nothing when RK45 keeps them on the stack.
    pub(crate) fn new(n: usize, method: Integrator) -> Self {
        let mut ws = OdeWorkspace::default();
        if !(matches!(method, Integrator::Rk45 { .. }) && STACK_LENGTHS.contains(&n)) {
            ws.fit(n);
        }
        ws
    }

    /// Element capacity of the buffer.
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    fn fit(&mut self, n: usize) {
        self.n = n;
        self.buf.resize(WORKSPACE_VECTORS * n, 0.0);
    }
}

/// Where the Dormand–Prince body keeps its working vectors: the seven
/// stages, the stage input and the 5th-order candidate, each as long as
/// the state.
trait Stages {
    fn split(&mut self) -> (&mut [f64], &mut [f64], &mut [f64]);
}

impl Stages for OdeWorkspace {
    /// The seven stages (`n` values each, stage `s` at `s·n`), the stage
    /// input and the 5th-order candidate.
    fn split(&mut self) -> (&mut [f64], &mut [f64], &mut [f64]) {
        let n = self.n;
        let (k, rest) = self.buf.split_at_mut(7 * n);
        let (xs, x5) = rest.split_at_mut(n);
        (k, xs, &mut x5[..n])
    }
}

/// Stack storage for states of length `N`.
struct OnStack<const N: usize> {
    k: [[f64; N]; 7],
    xs: [f64; N],
    x5: [f64; N],
}

impl<const N: usize> Stages for OnStack<N> {
    fn split(&mut self) -> (&mut [f64], &mut [f64], &mut [f64]) {
        (self.k.as_flattened_mut(), &mut self.xs, &mut self.x5)
    }
}

/// One classic RK4 step of size `h` from `(t, x)`, writing the result back
/// into `x`.
fn rk4_step<F: OdeRhs>(ws: &mut OdeWorkspace, f: &mut F, t: f64, x: &mut [f64], h: f64) {
    let n = x.len();
    let (k, tmp, _) = ws.split();
    let (k1, k) = k.split_at_mut(n);
    let (k2, k) = k.split_at_mut(n);
    let (k3, k) = k.split_at_mut(n);
    let k4 = &mut k[..n];

    f.eval(t, x, k1);
    for i in 0..n {
        tmp[i] = x[i] + 0.5 * h * k1[i];
    }
    f.eval(t + 0.5 * h, tmp, k2);
    for i in 0..n {
        tmp[i] = x[i] + 0.5 * h * k2[i];
    }
    f.eval(t + 0.5 * h, tmp, k3);
    for i in 0..n {
        tmp[i] = x[i] + h * k3[i];
    }
    f.eval(t + h, tmp, k4);
    for i in 0..n {
        x[i] += h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]);
    }
}

/// Dormand–Prince 5(4) Butcher tableau.
const DP_C: [f64; 7] = [0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];
const DP_A: [[f64; 6]; 7] = [
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0 / 5.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3.0 / 40.0, 9.0 / 40.0, 0.0, 0.0, 0.0, 0.0],
    [44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0, 0.0, 0.0, 0.0],
    [
        19372.0 / 6561.0,
        -25360.0 / 2187.0,
        64448.0 / 6561.0,
        -212.0 / 729.0,
        0.0,
        0.0,
    ],
    [
        9017.0 / 3168.0,
        -355.0 / 33.0,
        46732.0 / 5247.0,
        49.0 / 176.0,
        -5103.0 / 18656.0,
        0.0,
    ],
    [
        35.0 / 384.0,
        0.0,
        500.0 / 1113.0,
        125.0 / 192.0,
        -2187.0 / 6784.0,
        11.0 / 84.0,
    ],
];
/// 5th-order solution weights.
const DP_B5: [f64; 7] = [
    35.0 / 384.0,
    0.0,
    500.0 / 1113.0,
    125.0 / 192.0,
    -2187.0 / 6784.0,
    11.0 / 84.0,
    0.0,
];
/// 4th-order (embedded) solution weights.
const DP_B4: [f64; 7] = [
    5179.0 / 57600.0,
    0.0,
    7571.0 / 16695.0,
    393.0 / 640.0,
    -92097.0 / 339200.0,
    187.0 / 2100.0,
    1.0 / 40.0,
];

/// Smallest step (relative to the span) the adaptive controller will try
/// before reporting failure.
const MIN_STEP_FRACTION: f64 = 1e-14;

/// Error norms at or below this make the step controller grow the step
/// by its full clamp, 4, without evaluating `0.9·err^(-1/5)`.
///
/// The factor reaches the clamp where `0.9·err^(-1/5) ≥ 4`, that is for
/// `err ≤ (0.9/4)^5 ≈ 5.77e-4`. At this edge, `0.9·(5e-4)^(-1/5) ≈ 4.116`,
/// and `err^(-1/5)` only grows as `err` falls, so for every
/// `0 < err ≤ 5e-4` the clamp returns exactly 4 (a rounding error of a
/// few ulps in `powf` cannot bridge a 2.9% margin), and `err == 0` is
/// defined to grow by 4. Skipping `powf` there changes no step size.
const FULL_GROWTH_ERR: f64 = 5e-4;

/// Integrates `ẋ = f(t, x)` from `t0` to `t1` in place, returning step
/// counters for observability.
///
/// Dispatches on the [`Integrator`] choice; `x` is updated to the state at
/// `t1`. For `Rk45`, step-size control follows the standard PI-free
/// `0.9·(tol/err)^(1/5)` rule with a [2⁻⁴, 4] growth clamp, and the last
/// stage of an accepted step is reused as the first stage of the next
/// (first-same-as-last). This wrapper allocates fresh integrator buffers;
/// the engine keeps one set per simulator so its spans allocate nothing.
///
/// # Errors
///
/// Returns [`SimError::IntegrationFailure`] if a non-finite state or
/// derivative appears, or if the adaptive controller underflows its minimum
/// step without meeting the tolerance.
///
/// # Examples
///
/// ```
/// use ecl_sim::ode::{integrate, Integrator};
/// # fn main() -> Result<(), ecl_sim::SimError> {
/// // ẋ = -x, x(0) = 1  =>  x(1) = e^-1
/// let mut x = vec![1.0];
/// let mut f = |_t: f64, x: &[f64], dx: &mut [f64]| dx[0] = -x[0];
/// let steps = integrate(&mut f, 0.0, 1.0, &mut x, Integrator::default())?;
/// assert!((x[0] - (-1.0f64).exp()).abs() < 1e-7);
/// assert!(steps.steps_accepted > 0);
/// # Ok(())
/// # }
/// ```
pub fn integrate<F: OdeRhs>(
    f: &mut F,
    t0: f64,
    t1: f64,
    x: &mut [f64],
    method: Integrator,
) -> Result<OdeStepStats, SimError> {
    integrate_in(&mut OdeWorkspace::default(), f, t0, t1, x, method)
}

/// [`integrate`] on `ws`'s buffers, or for RK45 on stack arrays when the
/// state length is one of [`STACK_LENGTHS`].
pub(crate) fn integrate_in<F: OdeRhs>(
    ws: &mut OdeWorkspace,
    f: &mut F,
    t0: f64,
    t1: f64,
    x: &mut [f64],
    method: Integrator,
) -> Result<OdeStepStats, SimError> {
    if t1 < t0 {
        return Err(SimError::IntegrationFailure {
            time: t0,
            reason: format!("backwards span {t0} -> {t1}"),
        });
    }
    if t1 == t0 || x.is_empty() {
        return Ok(OdeStepStats::default());
    }
    match method {
        Integrator::Rk4 { h } => {
            if !(h > 0.0) {
                return Err(SimError::IntegrationFailure {
                    time: t0,
                    reason: format!("non-positive RK4 step {h}"),
                });
            }
            ws.fit(x.len());
            let mut stats = OdeStepStats::default();
            let mut t = t0;
            while t < t1 {
                let step = h.min(t1 - t);
                rk4_step(ws, f, t, x, step);
                stats.steps_accepted += 1;
                stats.rhs_evals += 4;
                if x.iter().any(|v| !v.is_finite()) {
                    return Err(SimError::IntegrationFailure {
                        time: t,
                        reason: "non-finite state after RK4 step".into(),
                    });
                }
                t += step;
            }
            Ok(stats)
        }
        Integrator::Rk45 { rtol, atol, h_max } => {
            let tol = Tolerances { rtol, atol, h_max };
            // The arms are `STACK_LENGTHS`.
            match x.len() {
                1 => rk45_on_stack::<1, F>(f, t0, t1, x, tol),
                2 => rk45_on_stack::<2, F>(f, t0, t1, x, tol),
                4 => rk45_on_stack::<4, F>(f, t0, t1, x, tol),
                n => {
                    ws.fit(n);
                    rk45(ws, f, t0, t1, x, tol)
                }
            }
        }
    }
}

/// RK45's tuning.
#[derive(Debug, Clone, Copy)]
struct Tolerances {
    rtol: f64,
    atol: f64,
    h_max: f64,
}

/// [`rk45`] on stack arrays, the state included: every loop bound is the
/// constant `N`, so the compiler unrolls the stage loops and, when `f` is
/// a concrete type, inlines it into them. The arithmetic is the same
/// operations in the same order as on the workspace, so the bits are too.
fn rk45_on_stack<const N: usize, F: OdeRhs>(
    f: &mut F,
    t0: f64,
    t1: f64,
    x: &mut [f64],
    tol: Tolerances,
) -> Result<OdeStepStats, SimError> {
    let mut state: [f64; N] = x.try_into().expect("the state has N values");
    let mut stages = OnStack {
        k: [[0.0; N]; 7],
        xs: [0.0; N],
        x5: [0.0; N],
    };
    let run = rk45(&mut stages, f, t0, t1, &mut state, tol);
    // On failure too: `x` holds the last accepted state either way.
    x.copy_from_slice(&state);
    run
}

/// The one Dormand–Prince 5(4) body, on whichever storage: always
/// inlined, so each storage gets its own copy with its own loop bounds.
#[inline(always)]
fn rk45<S: Stages, F: OdeRhs>(
    storage: &mut S,
    f: &mut F,
    t0: f64,
    t1: f64,
    x: &mut [f64],
    tol: Tolerances,
) -> Result<OdeStepStats, SimError> {
    let Tolerances { rtol, atol, h_max } = tol;
    let n = x.len();
    let (k, xs, x5) = storage.split();
    // The seven stage vectors; an accepted step that can reuse its last
    // stage as the next first one swaps the two.
    let mut stages = k.chunks_exact_mut(n);
    let mut k: [&mut [f64]; 7] = std::array::from_fn(|_| stages.next().expect("seven stages"));
    let span = t1 - t0;
    let h_min = span * MIN_STEP_FRACTION;
    let mut t = t0;
    let mut h = (span / 10.0).min(h_max).max(h_min);
    let mut stats = OdeStepStats::default();
    // `k[0]` already holds f(t, x): after a rejection (t and x are
    // unchanged), or after an accepted step whose last stage was
    // evaluated at exactly the new (t, x).
    let mut have_k1 = false;

    while t < t1 {
        h = h.min(t1 - t).min(h_max);
        for s in usize::from(have_k1)..7 {
            // `x[i] + h·a_s0·k_0[i] + ...` summed left to right; `h * a * k`
            // multiplies left to right too, so each product `h·a_sj` can
            // be formed once per stage and round the same.
            let ha = DP_A[s].map(|a| h * a);
            let (done, rest) = k.split_at_mut(s);
            for i in 0..n {
                let mut acc = x[i];
                for (kj, &haj) in done.iter().zip(&ha) {
                    acc += haj * kj[i];
                }
                xs[i] = acc;
            }
            f.eval(t + DP_C[s] * h, xs, rest[0]);
            stats.rhs_evals += 1;
        }
        // 5th-order solution and the scaled error norm against the
        // embedded 4th-order one, with the weights' products `h·b_s`
        // formed once per step.
        let hb5 = DP_B5.map(|b| h * b);
        let hb4 = DP_B4.map(|b| h * b);
        let mut err: f64 = 0.0;
        for i in 0..n {
            let mut acc5 = x[i];
            let mut acc4 = x[i];
            for s in 0..7 {
                let ks = k[s][i];
                acc5 += hb5[s] * ks;
                acc4 += hb4[s] * ks;
            }
            x5[i] = acc5;
            let scale = atol + rtol * x[i].abs().max(acc5.abs());
            err = err.max(((acc5 - acc4) / scale).abs());
        }
        if !err.is_finite() {
            return Err(SimError::IntegrationFailure {
                time: t,
                reason: "non-finite error estimate (diverging state?)".into(),
            });
        }
        if err <= 1.0 {
            // Accept. The last stage ran at `t + 1·h` on `xs`, whose
            // weights are the 5th-order ones, so it is f at the new
            // `(t, x5)` whenever rounding left `xs` equal to `x5`.
            t += h;
            have_k1 = xs
                .iter()
                .zip(x5.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits());
            if have_k1 {
                k.swap(0, 6);
            }
            x.copy_from_slice(x5);
            stats.steps_accepted += 1;
            if x.iter().any(|v| !v.is_finite()) {
                return Err(SimError::IntegrationFailure {
                    time: t,
                    reason: "non-finite state after accepted step".into(),
                });
            }
        } else {
            stats.steps_rejected += 1;
            have_k1 = true;
        }
        // Step-size update (both on accept and reject).
        let factor = if err <= FULL_GROWTH_ERR {
            4.0
        } else {
            (0.9 * err.powf(-0.2)).clamp(1.0 / 16.0, 4.0)
        };
        h *= factor;
        if h < h_min && t < t1 {
            return Err(SimError::IntegrationFailure {
                time: t,
                reason: format!("step underflow (h = {h:.3e} < {h_min:.3e})"),
            });
        }
    }
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exponential decay, analytic solution e^{-t}.
    fn decay(_t: f64, x: &[f64], dx: &mut [f64]) {
        dx[0] = -x[0];
    }

    #[test]
    fn rk4_converges_fourth_order() {
        // Halving h should reduce the error ~16x.
        let mut err = Vec::new();
        for h in [0.1, 0.05] {
            let mut x = vec![1.0];
            integrate(&mut decay, 0.0, 1.0, &mut x, Integrator::Rk4 { h }).unwrap();
            err.push((x[0] - (-1.0f64).exp()).abs());
        }
        let ratio = err[0] / err[1];
        assert!(ratio > 10.0, "convergence ratio {ratio}");
    }

    #[test]
    fn rk45_meets_tolerance() {
        let mut x = vec![1.0];
        integrate(
            &mut decay,
            0.0,
            5.0,
            &mut x,
            Integrator::Rk45 {
                rtol: 1e-10,
                atol: 1e-12,
                h_max: 1.0,
            },
        )
        .unwrap();
        assert!((x[0] - (-5.0f64).exp()).abs() < 1e-9);
    }

    #[test]
    fn harmonic_oscillator_energy_preserved() {
        // ẍ = -x => energy x² + v² constant.
        let mut f = |_t: f64, x: &[f64], dx: &mut [f64]| {
            dx[0] = x[1];
            dx[1] = -x[0];
        };
        let mut x = vec![1.0, 0.0];
        integrate(&mut f, 0.0, 20.0, &mut x, Integrator::default()).unwrap();
        let energy = x[0] * x[0] + x[1] * x[1];
        assert!((energy - 1.0).abs() < 1e-6, "energy {energy}");
        // And position matches cos(20).
        assert!((x[0] - 20.0f64.cos()).abs() < 1e-5);
    }

    #[test]
    fn time_dependent_rhs() {
        // ẋ = 2t => x(t) = t².
        let mut f = |t: f64, _x: &[f64], dx: &mut [f64]| dx[0] = 2.0 * t;
        let mut x = vec![0.0];
        integrate(&mut f, 0.0, 3.0, &mut x, Integrator::Rk4 { h: 0.01 }).unwrap();
        assert!((x[0] - 9.0).abs() < 1e-10);
    }

    #[test]
    fn zero_span_is_noop() {
        let mut x = vec![1.0];
        integrate(&mut decay, 1.0, 1.0, &mut x, Integrator::default()).unwrap();
        assert_eq!(x[0], 1.0);
    }

    #[test]
    fn empty_state_is_noop() {
        let mut x: Vec<f64> = vec![];
        integrate(&mut decay, 0.0, 1.0, &mut x, Integrator::default()).unwrap();
    }

    #[test]
    fn backwards_span_rejected() {
        let mut x = vec![1.0];
        assert!(integrate(&mut decay, 1.0, 0.0, &mut x, Integrator::default()).is_err());
    }

    #[test]
    fn bad_rk4_step_rejected() {
        let mut x = vec![1.0];
        assert!(integrate(&mut decay, 0.0, 1.0, &mut x, Integrator::Rk4 { h: 0.0 }).is_err());
    }

    #[test]
    fn divergent_ode_detected() {
        // ẋ = x² blows up at t = 1 from x(0) = 1.
        let mut f = |_t: f64, x: &[f64], dx: &mut [f64]| dx[0] = x[0] * x[0];
        let mut x = vec![1.0];
        let r = integrate(
            &mut f,
            0.0,
            2.0,
            &mut x,
            Integrator::Rk45 {
                rtol: 1e-8,
                atol: 1e-10,
                h_max: 0.5,
            },
        );
        assert!(matches!(r, Err(SimError::IntegrationFailure { .. })));
    }

    #[test]
    fn rk4_lands_exactly_on_endpoint() {
        // h does not divide the span; final shortened step must land on t1.
        let mut f = |t: f64, _x: &[f64], dx: &mut [f64]| dx[0] = t.cos();
        let mut x = vec![0.0];
        integrate(&mut f, 0.0, 1.0, &mut x, Integrator::Rk4 { h: 0.3 }).unwrap();
        assert!((x[0] - 1.0f64.sin()).abs() < 1e-4);
    }

    #[test]
    fn closure_implements_oderhs() {
        let mut calls = 0usize;
        let mut f = |_t: f64, _x: &[f64], dx: &mut [f64]| {
            calls += 1;
            dx[0] = 0.0;
        };
        let mut dx = [0.0];
        f.eval(0.0, &[1.0], &mut dx);
        assert_eq!(calls, 1);
    }

    /// The edge below which the controller skips `powf` lies inside the
    /// band where the growth clamp binds.
    #[test]
    fn full_growth_edge_is_inside_the_clamped_band() {
        assert!(0.9 * FULL_GROWTH_ERR.powf(-0.2) > 4.0);
        assert!(0.9 * 5e-4f64.powf(-0.2) > 4.0);
    }

    /// RK45 integrates exactly the lengths of `STACK_LENGTHS` without
    /// the workspace, which the engine then never sizes for them: every
    /// other length grows it.
    #[test]
    fn stack_lengths_leave_the_workspace_unsized() {
        for n in 1..=6 {
            let mut ws = OdeWorkspace::new(n, Integrator::default());
            let sized = ws.capacity();
            let mut x = vec![1.0; n];
            let mut f = |_t: f64, x: &[f64], dx: &mut [f64]| {
                for (d, v) in dx.iter_mut().zip(x) {
                    *d = -v;
                }
            };
            integrate_in(&mut ws, &mut f, 0.0, 1.0, &mut x, Integrator::default()).unwrap();
            assert_eq!(ws.capacity(), sized, "n = {n}: the workspace regrew");
            assert_eq!(sized == 0, STACK_LENGTHS.contains(&n), "n = {n}");
        }
    }

    #[test]
    fn default_integrator_is_rk45() {
        assert!(matches!(Integrator::default(), Integrator::Rk45 { .. }));
    }

    #[test]
    fn step_counters_track_work() {
        let mut x = vec![1.0];
        let s = integrate(&mut decay, 0.0, 1.0, &mut x, Integrator::Rk4 { h: 0.1 }).unwrap();
        // 10 nominal steps, plus possibly one shortened step from float
        // accumulation of 0.1.
        assert!((10..=11).contains(&s.steps_accepted), "{s:?}");
        assert_eq!(s.rhs_evals, 4 * s.steps_accepted);
        assert_eq!(s.steps_rejected, 0);

        let mut y = vec![1.0];
        let s45 = integrate(&mut decay, 0.0, 1.0, &mut y, Integrator::default()).unwrap();
        assert!(s45.steps_accepted > 0);
        // First-same-as-last: every attempt after the first reuses its
        // first stage, either from the accepted step before it or from
        // the rejected attempt at the same (t, x).
        assert_eq!(
            s45.rhs_evals,
            6 * (s45.steps_accepted + s45.steps_rejected) + 1
        );
    }
}
