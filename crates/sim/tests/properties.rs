//! Property-based tests of the simulation kernel.

use ecl_sim::ode::{integrate, Integrator};
use ecl_sim::{BlockId, EventCalendar, TimeNs};
use proptest::prelude::*;

/// Attempts of the step controller per band of the scaled error norm.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Bands {
    /// `err == 0`: the step grows by the clamp, 4.
    zero: u64,
    /// `0 < err <= 5e-4`: `0.9·err^(-1/5)` exceeds 4, so the clamp binds.
    clamped: u64,
    /// `5e-4 < err <= 1`: accepted, grown by `0.9·err^(-1/5)`.
    accepted: u64,
    /// `err > 1`: rejected and shrunk.
    rejected: u64,
}

impl Bands {
    fn add(self, o: Bands) -> Bands {
        Bands {
            zero: self.zero + o.zero,
            clamped: self.clamped + o.clamped,
            accepted: self.accepted + o.accepted,
            rejected: self.rejected + o.rejected,
        }
    }
}

/// Dormand–Prince 5(4) as a textbook implementation: all seven stages on
/// every attempt, nothing reused, and the step controller's rule
/// `0.9·err^(-1/5)` clamped to [1/16, 4] (4 at `err == 0`) evaluated on
/// every attempt. Returns `(steps_accepted, steps_rejected)` and the
/// attempts per band of the error norm.
fn reference_dopri(
    f: &mut impl FnMut(f64, &[f64], &mut [f64]),
    t0: f64,
    t1: f64,
    x: &mut [f64],
    (rtol, atol, h_max): (f64, f64, f64),
) -> (u64, u64, Bands) {
    const C: [f64; 7] = [0.0, 1.0 / 5.0, 3.0 / 10.0, 4.0 / 5.0, 8.0 / 9.0, 1.0, 1.0];
    const A: [[f64; 6]; 7] = [
        [0.0; 6],
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
    const B5: [f64; 7] = [
        35.0 / 384.0,
        0.0,
        500.0 / 1113.0,
        125.0 / 192.0,
        -2187.0 / 6784.0,
        11.0 / 84.0,
        0.0,
    ];
    const B4: [f64; 7] = [
        5179.0 / 57600.0,
        0.0,
        7571.0 / 16695.0,
        393.0 / 640.0,
        -92097.0 / 339200.0,
        187.0 / 2100.0,
        1.0 / 40.0,
    ];
    let n = x.len();
    let span = t1 - t0;
    let h_min = span * 1e-14;
    let (mut t, mut h) = (t0, (span / 10.0).min(h_max).max(h_min));
    let (mut accepted, mut rejected) = (0, 0);
    let mut bands = Bands::default();
    let mut k = vec![vec![0.0; n]; 7];
    let mut xs = vec![0.0; n];
    while t < t1 {
        h = h.min(t1 - t).min(h_max);
        for s in 0..7 {
            for i in 0..n {
                let mut acc = x[i];
                for j in 0..s {
                    acc += h * A[s][j] * k[j][i];
                }
                xs[i] = acc;
            }
            f(t + C[s] * h, &xs, &mut k[s]);
        }
        let mut x5 = vec![0.0; n];
        let mut err: f64 = 0.0;
        for i in 0..n {
            let (mut acc5, mut acc4) = (x[i], x[i]);
            for s in 0..7 {
                acc5 += h * B5[s] * k[s][i];
                acc4 += h * B4[s] * k[s][i];
            }
            x5[i] = acc5;
            let scale = atol + rtol * x[i].abs().max(acc5.abs());
            err = err.max(((acc5 - acc4) / scale).abs());
        }
        assert!(err.is_finite(), "reference diverged at t = {t}");
        match err {
            0.0 => bands.zero += 1,
            e if e <= 5e-4 => bands.clamped += 1,
            e if e <= 1.0 => bands.accepted += 1,
            _ => bands.rejected += 1,
        }
        if err <= 1.0 {
            t += h;
            x.copy_from_slice(&x5);
            accepted += 1;
        } else {
            rejected += 1;
        }
        h *= if err == 0.0 {
            4.0
        } else {
            (0.9 * err.powf(-0.2)).clamp(1.0 / 16.0, 4.0)
        };
        assert!(h >= h_min || t >= t1, "reference step underflow at t = {t}");
    }
    (accepted, rejected, bands)
}

/// A stable linear system `ẋ = A·x + b·cos t` of dimension `n ≤ 4`:
/// off-diagonal couplings from `coupling`, and a diagonal that dominates
/// its row by `decay[i]`, so every eigenvalue has real part ≤ −decay.
fn linear_system(
    n: usize,
    decay: &[f64],
    coupling: &[f64],
    forcing: &[f64],
) -> impl Fn(f64, &[f64], &mut [f64]) {
    let mut a = vec![0.0; n * n];
    for i in 0..n {
        let mut row = 0.0;
        for j in (0..n).filter(|&j| j != i) {
            a[i * n + j] = coupling[i * n + j];
            row += coupling[i * n + j].abs();
        }
        a[i * n + i] = -(decay[i] + row);
    }
    let b = forcing[..n].to_vec();
    move |t: f64, x: &[f64], dx: &mut [f64]| {
        for i in 0..n {
            let mut acc = b[i] * t.cos();
            for j in 0..n {
                acc += a[i * n + j] * x[j];
            }
            dx[i] = acc;
        }
    }
}

/// What one integration produced: the final state's bits, the step
/// counts and the right-hand-side calls made.
#[derive(Debug, PartialEq)]
struct Outcome {
    bits: Vec<u64>,
    accepted: u64,
    rejected: u64,
    calls: u64,
}

/// The reference's outcome with its controller bands.
type Reference = (Outcome, Bands);

/// Runs [`integrate`] (first) and [`reference_dopri`] (second) on the same
/// problem.
fn against_reference(
    f: impl Fn(f64, &[f64], &mut [f64]),
    t0: f64,
    t1: f64,
    x0: &[f64],
    tol: (f64, f64, f64),
) -> (Outcome, Reference) {
    let (rtol, atol, h_max) = tol;
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect();
    let mut calls = 0u64;
    let mut x = x0.to_vec();
    let mut counted = |t: f64, x: &[f64], dx: &mut [f64]| {
        calls += 1;
        f(t, x, dx)
    };
    let s = integrate(
        &mut counted,
        t0,
        t1,
        &mut x,
        Integrator::Rk45 { rtol, atol, h_max },
    )
    .expect("a stable linear system integrates");
    assert_eq!(s.rhs_evals, calls, "rhs_evals counts the calls made");
    let fsal = Outcome {
        bits: bits(&x),
        accepted: s.steps_accepted,
        rejected: s.steps_rejected,
        calls,
    };
    let mut calls = 0u64;
    let mut y = x0.to_vec();
    let mut counted = |t: f64, x: &[f64], dx: &mut [f64]| {
        calls += 1;
        f(t, x, dx)
    };
    let (accepted, rejected, bands) = reference_dopri(&mut counted, t0, t1, &mut y, tol);
    let reference = Outcome {
        bits: bits(&y),
        accepted,
        rejected,
        calls,
    };
    (fsal, (reference, bands))
}

/// A stiff-ish system at a tight tolerance: the first step (a tenth of
/// the span) fails its error test, so the rejected-step path of the
/// first-stage reuse is exercised deterministically.
#[test]
fn fsal_rk45_is_bit_identical_to_reference_through_rejections() {
    let f = linear_system(2, &[40.0, 0.5], &[0.0, 0.8, -0.6, 0.0], &[1.0, -0.5]);
    let (fsal, (reference, _)) =
        against_reference(f, 0.25, 1.75, &[1.0, -1.0], (1e-12, 1e-14, 0.5));
    let attempts = fsal.accepted + fsal.rejected;
    assert!(fsal.rejected > 0, "the tolerance must force rejections");
    assert_eq!(reference.calls, 7 * attempts);
    assert_eq!(fsal.calls, 6 * attempts + 1);
    assert_eq!(
        fsal,
        Outcome {
            calls: fsal.calls,
            ..reference
        }
    );
}

/// The fast path must match the reference in every band of the step
/// controller, each of which these problems reach: a zero state that
/// never moves (`err == 0`), steps capped by `h_max` far below the
/// tolerance (the clamp binds), a loose tolerance whose steps grow to it
/// (the rule itself), and a tight one on a stiff system (rejections).
/// The reference counts its attempts per band and the test asserts each
/// was reached, so no band goes unexercised; where the shortcut's edge
/// sits is pinned by a unit test beside it.
#[test]
fn fsal_rk45_matches_reference_in_every_controller_band() {
    let coupling = [0.0, 0.8, -0.6, 0.0];
    // Initial state, decay, forcing and (rtol, atol, h_max).
    type Problem = (&'static [f64], [f64; 2], [f64; 2], (f64, f64, f64));
    let problems: [Problem; 4] = [
        (&[0.0, 0.0], [1.0, 0.5], [0.0, 0.0], (1e-8, 1e-10, 0.01)),
        (&[1.0, -1.0], [1.0, 0.5], [1.0, -0.5], (1e-6, 1e-8, 1e-3)),
        (&[1.0, -1.0], [1.0, 0.5], [1.0, -0.5], (1e-6, 1e-8, 1.0)),
        (&[1.0, -1.0], [40.0, 0.5], [1.0, -0.5], (1e-12, 1e-14, 0.5)),
    ];
    let mut total = Bands::default();
    for (k, &(x0, decay, forcing, tol)) in problems.iter().enumerate() {
        let f = linear_system(2, &decay, &coupling, &forcing);
        let (fsal, (reference, bands)) = against_reference(f, 0.25, 3.25, x0, tol);
        assert_eq!(
            fsal,
            Outcome {
                calls: fsal.calls,
                ..reference
            },
            "problem {k}"
        );
        total = total.add(bands);
    }
    assert!(total.zero > 0, "{total:?}");
    assert!(total.clamped > 0, "{total:?}");
    assert!(total.accepted > 0, "{total:?}");
    assert!(total.rejected > 0, "{total:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Time arithmetic is consistent with raw nanosecond arithmetic.
    #[test]
    fn time_arithmetic(a in -1_000_000_000i64..1_000_000_000, b in -1_000_000_000i64..1_000_000_000) {
        let (ta, tb) = (TimeNs::from_nanos(a), TimeNs::from_nanos(b));
        prop_assert_eq!((ta + tb).as_nanos(), a + b);
        prop_assert_eq!((ta - tb).as_nanos(), a - b);
        prop_assert_eq!((-ta).as_nanos(), -a);
        prop_assert_eq!(ta.max(tb).as_nanos(), a.max(b));
        prop_assert_eq!(ta.min(tb).as_nanos(), a.min(b));
        prop_assert_eq!(ta < tb, a < b);
        prop_assert_eq!(ta.abs().as_nanos(), a.abs());
    }

    /// from_secs_f64 round-trips within a nanosecond.
    #[test]
    fn time_secs_roundtrip(s in -1e6f64..1e6) {
        let t = TimeNs::from_secs_f64(s);
        prop_assert!((t.as_secs_f64() - s).abs() <= 1e-9);
    }

    /// The calendar is a stable priority queue: pops are sorted by time,
    /// and equal times preserve insertion order.
    #[test]
    fn calendar_is_stable_priority_queue(times in proptest::collection::vec(0i64..1000, 1..200)) {
        let mut cal = EventCalendar::new();
        for (i, &t) in times.iter().enumerate() {
            cal.schedule(TimeNs::from_nanos(t), BlockId::from_index(i), 0);
        }
        let mut last_time = TimeNs::from_nanos(i64::MIN);
        let mut last_idx_at_time = 0usize;
        let mut popped = 0usize;
        while let Some(e) = cal.pop() {
            popped += 1;
            prop_assert!(e.time >= last_time);
            if e.time == last_time {
                prop_assert!(e.emitter.index() > last_idx_at_time, "stability violated");
            }
            last_time = e.time;
            last_idx_at_time = e.emitter.index();
        }
        prop_assert_eq!(popped, times.len());
    }

    /// Linear ODE ẋ = a·x integrates to the exact exponential for any
    /// stable rate and any span.
    #[test]
    fn linear_ode_matches_exponential(a in -5.0f64..-0.01, span in 0.01f64..5.0) {
        let mut f = |_t: f64, x: &[f64], dx: &mut [f64]| dx[0] = a * x[0];
        let mut x = vec![1.0];
        integrate(&mut f, 0.0, span, &mut x, Integrator::default()).expect("integrates");
        let expect = (a * span).exp();
        prop_assert!((x[0] - expect).abs() < 1e-6 * expect.max(1e-3), "{} vs {expect}", x[0]);
    }

    /// Integration is additive over subintervals: integrating [0, t1] then
    /// [t1, t2] equals integrating [0, t2] (well within tolerance).
    #[test]
    fn integration_additive(t1 in 0.1f64..1.0, dt in 0.1f64..1.0) {
        let f = |t: f64, x: &[f64], dx: &mut [f64]| {
            dx[0] = (t).sin() - 0.5 * x[0];
        };
        let t2 = t1 + dt;
        let mut x_split = vec![1.0];
        let mut f1 = f;
        integrate(&mut f1, 0.0, t1, &mut x_split, Integrator::default()).expect("ok");
        integrate(&mut f1, t1, t2, &mut x_split, Integrator::default()).expect("ok");
        let mut x_whole = vec![1.0];
        integrate(&mut f1, 0.0, t2, &mut x_whole, Integrator::default()).expect("ok");
        prop_assert!((x_split[0] - x_whole[0]).abs() < 1e-6);
    }

    /// RK4 with a small step agrees with adaptive RK45.
    #[test]
    fn rk4_agrees_with_rk45(omega in 0.5f64..5.0) {
        let mut f = |_t: f64, x: &[f64], dx: &mut [f64]| {
            dx[0] = x[1];
            dx[1] = -omega * omega * x[0];
        };
        let mut a = vec![1.0, 0.0];
        let mut b = vec![1.0, 0.0];
        integrate(&mut f, 0.0, 2.0, &mut a, Integrator::Rk4 { h: 1e-3 }).expect("ok");
        integrate(&mut f, 0.0, 2.0, &mut b, Integrator::default()).expect("ok");
        prop_assert!((a[0] - b[0]).abs() < 1e-5, "{} vs {}", a[0], b[0]);
        // Both match the analytic cos(w t).
        prop_assert!((a[0] - (2.0 * omega).cos()).abs() < 1e-4);
    }

    /// RK45 with first-stage reuse ends on exactly the state a textbook
    /// Dormand–Prince reaches, through the same accepted and rejected
    /// steps, with strictly fewer right-hand-side calls.
    #[test]
    fn fsal_rk45_matches_reference_dopri_bit_for_bit(
        n in 1usize..5,
        decay in proptest::collection::vec(0.05f64..50.0, 4),
        coupling in proptest::collection::vec(-2.0f64..2.0, 16),
        forcing in proptest::collection::vec(-1.0f64..1.0, 4),
        x0 in proptest::collection::vec(-2.0f64..2.0, 4),
        t0 in 0.0f64..5.0,
        span in 1e-4f64..3.0,
        tol_exp in 3i32..13,
        h_max in 1e-3f64..1.0,
    ) {
        let f = linear_system(n, &decay, &coupling, &forcing);
        let rtol = 10f64.powi(-tol_exp);
        let tol = (rtol, rtol * 1e-2, h_max);
        let (fsal, (reference, _)) = against_reference(f, t0, t0 + span, &x0[..n], tol);
        prop_assert_eq!(&fsal.bits, &reference.bits);
        prop_assert_eq!(
            (fsal.accepted, fsal.rejected),
            (reference.accepted, reference.rejected)
        );
        prop_assert!(
            fsal.calls < reference.calls,
            "{} calls vs {} without reuse", fsal.calls, reference.calls
        );
    }
}
