//! Property-based tests of the simulation kernel.

use ecl_sim::ode::{integrate, Integrator};
use ecl_sim::{
    Block, BlockId, EngineStats, EventActions, EventCalendar, EventCtx, EventRecord, Model,
    PortSpec, SimOptions, Simulator, TimeNs,
};
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

/// Longest state the tests integrate: past every length the integrator
/// keeps on the stack (1, 2 and 4), so both of its storages run.
const MAX_N: usize = 6;

/// A stable linear system `ẋ = A·x + b·cos t` of dimension
/// `n ≤ MAX_N`: off-diagonal couplings from `coupling` (an `n·n`-prefix
/// of a row-major `MAX_N·MAX_N` table), and a diagonal that dominates
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
            a[i * n + j] = coupling[i * MAX_N + j];
            row += coupling[i * MAX_N + j].abs();
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
    let mut coupling = [0.0; MAX_N * MAX_N];
    (coupling[1], coupling[MAX_N]) = (0.8, -0.6);
    let f = linear_system(2, &[40.0, 0.5], &coupling, &[1.0, -0.5]);
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
///
/// Each length from 1 to `MAX_N` runs all four problems, on either side
/// of the integrator's stack/workspace dispatch; the coupling rows hold
/// zeros of both signs.
#[test]
fn fsal_rk45_matches_reference_in_every_controller_band() {
    // Row i couples to i + 1 by 0.8 and to i − 1 by −0.6; the rest of
    // the row is zeros, alternately positive and negative.
    let mut coupling = [0.0; MAX_N * MAX_N];
    for (k, c) in coupling.iter_mut().enumerate() {
        let (i, j) = (k / MAX_N, k % MAX_N);
        *c = match j as isize - i as isize {
            1 => 0.8,
            -1 => -0.6,
            _ if k % 2 == 1 => -0.0,
            _ => 0.0,
        };
    }
    // Initial state, decay, forcing and (rtol, atol, h_max) of the first
    // two states; longer states repeat them.
    type Problem = ([f64; 2], [f64; 2], [f64; 2], (f64, f64, f64));
    let problems: [Problem; 4] = [
        ([0.0, 0.0], [1.0, 0.5], [0.0, 0.0], (1e-8, 1e-10, 0.01)),
        ([1.0, -1.0], [1.0, 0.5], [1.0, -0.5], (1e-6, 1e-8, 1e-3)),
        ([1.0, -1.0], [1.0, 0.5], [1.0, -0.5], (1e-6, 1e-8, 1.0)),
        ([1.0, -1.0], [40.0, 0.5], [1.0, -0.5], (1e-12, 1e-14, 0.5)),
    ];
    let cycle = |v: [f64; 2], n: usize| -> Vec<f64> { (0..n).map(|i| v[i % 2]).collect() };
    for n in 1..=MAX_N {
        let mut total = Bands::default();
        for (k, &(x0, decay, forcing, tol)) in problems.iter().enumerate() {
            let f = linear_system(n, &cycle(decay, n), &coupling, &cycle(forcing, n));
            let (fsal, (reference, bands)) = against_reference(f, 0.25, 3.25, &cycle(x0, n), tol);
            assert_eq!(
                fsal,
                Outcome {
                    calls: fsal.calls,
                    ..reference
                },
                "n = {n}, problem {k}"
            );
            total = total.add(bands);
        }
        assert!(total.zero > 0, "n = {n}: {total:?}");
        assert!(total.clamped > 0, "n = {n}: {total:?}");
        assert!(total.accepted > 0, "n = {n}: {total:?}");
        assert!(total.rejected > 0, "n = {n}: {total:?}");
    }
}

/// Values in `(-r, r)`, or a zero of either sign, a third of the time
/// each.
fn signed(r: f64) -> impl Strategy<Value = f64> {
    prop_oneof![-r..r, Just(0.0), Just(-0.0)]
}

/// A periodic activation source, Scicos-style: its event output loops
/// back onto its input.
struct Tick(TimeNs);

impl Block for Tick {
    fn type_name(&self) -> &'static str {
        "Tick"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::event_pipe(1, 1)
    }
    fn on_start(&mut self, actions: &mut EventActions) {
        actions.emit(0, TimeNs::ZERO);
    }
    fn on_event(&mut self, _port: usize, _t: TimeNs, ctx: &mut EventCtx<'_>) {
        ctx.actions.emit(0, self.0);
    }
    ecl_sim::impl_block_any!();
}

/// A held input: steps to its next value at each activation and holds
/// it in between, so it is constant over every span.
struct Steps {
    values: Vec<f64>,
    at: usize,
}

impl Block for Steps {
    fn type_name(&self) -> &'static str {
        "Steps"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::new(0, 1, 1, 0)
    }
    fn depends_on_time(&self) -> bool {
        false
    }
    fn outputs(&mut self, _t: f64, _x: &[f64], _u: &[f64], y: &mut [f64]) {
        y[0] = self.values[self.at % self.values.len()];
    }
    fn on_event(&mut self, _port: usize, _t: TimeNs, _ctx: &mut EventCtx<'_>) {
        self.at += 1;
    }
    ecl_sim::impl_block_any!();
}

/// A block with one input that reads it and writes nothing, placed
/// first so no plant's inputs start at flat offset 0.
struct Sink;

impl Block for Sink {
    fn type_name(&self) -> &'static str {
        "Sink"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::sink(1)
    }
    ecl_sim::impl_block_any!();
}

/// `ẋ = A·x + B·u`, `y = x`, with `n` states and `m` inputs; reports its
/// `(A, B)` unless `hidden`, when the engine integrates it through
/// `derivatives`.
struct Lti {
    n: usize,
    m: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    x0: Vec<f64>,
    hidden: bool,
}

impl Block for Lti {
    fn type_name(&self) -> &'static str {
        "Lti"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::siso(self.m, self.n)
    }
    fn feedthrough(&self, _input: usize) -> bool {
        false
    }
    fn num_states(&self) -> usize {
        self.n
    }
    fn init_states(&self, x: &mut [f64]) {
        x.copy_from_slice(&self.x0);
    }
    /// The sum of the `linear_dynamics` contract.
    fn derivatives(&self, _t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
        let rows = self.a.chunks_exact(self.n).zip(self.b.chunks_exact(self.m));
        for (d, (a, b)) in dx.iter_mut().zip(rows) {
            let mut acc = 0.0;
            for (a, x) in a.iter().zip(x) {
                acc += a * x;
            }
            for (b, u) in b.iter().zip(u) {
                acc += b * u;
            }
            *d = acc;
        }
    }
    fn linear_dynamics(&self) -> Option<(&[f64], &[f64])> {
        (!self.hidden).then_some((&self.a, &self.b))
    }
    fn outputs(&mut self, _t: f64, x: &[f64], _u: &[f64], y: &mut [f64]) {
        y.copy_from_slice(x);
    }
    ecl_sim::impl_block_any!();
}

/// One plant of a random diagram: `(n, m, coefficients, x0, input
/// values)`, the coefficients `A` then `B` row-major.
type PlantCase = (usize, usize, Vec<f64>, Vec<f64>, Vec<f64>);

/// Every probe sample as bits, the event log and the engine counters.
type Observed = (Vec<Vec<u64>>, Vec<EventRecord>, EngineStats);

/// Runs one or two plants, each input held by its own [`Steps`] source
/// that a clock of `period_us` advances, to 40 ms; halves the first
/// plant's `A` through `model_mut`; and resumes to 80 ms.
fn observe_plants(plants: &[PlantCase], period_us: i64, hidden: bool) -> Observed {
    let mut model = Model::new();
    let sink = model.add_block("sink", Sink);
    let tick = model.add_block("tick", Tick(TimeNs::from_micros(period_us)));
    model.connect_event(tick, 0, tick, 0).unwrap();
    let mut ids = Vec::new();
    for (k, (n, m, coef, x0, inputs)) in plants.iter().enumerate() {
        let (n, m) = (*n, *m);
        let id = model.add_block(
            format!("plant{k}"),
            Lti {
                n,
                m,
                a: coef[..n * n].to_vec(),
                b: coef[n * n..n * n + n * m].to_vec(),
                x0: x0[..n].to_vec(),
                hidden,
            },
        );
        for j in 0..m {
            // Each input steps through its own three values.
            let values = inputs[3 * j..3 * j + 3].to_vec();
            let src = model.add_block(format!("u{k}_{j}"), Steps { values, at: 0 });
            model.connect_event(tick, 0, src, 0).unwrap();
            model.connect(src, 0, id, j).unwrap();
            if k == 0 && j == 0 {
                model.connect(src, 0, sink, 0).unwrap();
            }
        }
        for i in 0..n {
            model.probe(format!("x{k}_{i}"), id, i).unwrap();
        }
        ids.push(id);
    }
    let mut sim = Simulator::new(model, SimOptions::default()).unwrap();
    sim.run(TimeNs::from_millis(40)).unwrap();
    let first = sim.model_mut().block_as_mut::<Lti>(ids[0]).unwrap();
    first.a.iter_mut().for_each(|a| *a *= 0.5);
    sim.run(TimeNs::from_millis(80)).unwrap();
    let result = sim.result();
    let signals = result
        .signals()
        .map(|(_, sig)| {
            sig.times()
                .iter()
                .chain(sig.values())
                .map(|v| v.to_bits())
                .collect()
        })
        .collect();
    (signals, result.event_log().to_vec(), sim.stats().clone())
}

/// A plant of 1 to 3 states and 1 to 3 inputs: coefficients, initial
/// state and input values in `(-3, 3)` or zeros of either sign.
fn plant_case() -> impl Strategy<Value = PlantCase> {
    (
        1usize..4,
        1usize..4,
        proptest::collection::vec(signed(3.0), 18),
        proptest::collection::vec(signed(2.0), 3),
        proptest::collection::vec(signed(1.0), 9),
    )
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
    /// steps, with strictly fewer right-hand-side calls, at every length
    /// on both sides of the stack/workspace dispatch, with zeros of
    /// either sign in the rows, the forcing and the initial state.
    #[test]
    fn fsal_rk45_matches_reference_dopri_bit_for_bit(
        n in 1usize..MAX_N + 1,
        decay in proptest::collection::vec(0.05f64..50.0, MAX_N),
        coupling in proptest::collection::vec(signed(2.0), MAX_N * MAX_N),
        forcing in proptest::collection::vec(signed(1.0), MAX_N),
        x0 in proptest::collection::vec(signed(2.0), MAX_N),
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

    /// Plants that report their `(A, B)`, whose inputs are held between
    /// events, integrate to the same bits, events and counters as the
    /// same plants through `derivatives`: one plant or two (joint states
    /// of 1 to 6, on both sides of the integrator's dispatch), 1 to 3
    /// inputs each at nonzero flat offsets, zeros of either sign, and a
    /// retune through `model_mut` between two runs.
    #[test]
    fn linear_plants_match_the_derivative_path_bit_for_bit(
        first in plant_case(),
        second in plant_case(),
        two in 0usize..2,
        period_us in 1_000i64..12_000,
    ) {
        let plants = [first, second];
        let plants = &plants[..1 + two];
        let linear = observe_plants(plants, period_us, false);
        let general = observe_plants(plants, period_us, true);
        prop_assert!(linear.2.ode.rhs_evals > 0);
        prop_assert_eq!(&linear.0, &general.0);
        prop_assert_eq!(&linear.1, &general.1);
        prop_assert_eq!(&linear.2, &general.2);
    }
}
