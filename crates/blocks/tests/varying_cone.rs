//! Differential test of the engine's varying cone: the RHS pass skips the
//! blocks whose outputs cannot move within an integration span. A random
//! diagram run as built must give exactly the bits of the same diagram
//! with every block declaring `depends_on_time() == true`, for which the
//! RHS pass re-evaluates every block the derivatives read, and the
//! committed pass after each integrated chunk every block with outputs.
//! Both runs share that committed pass, so each also checks it against
//! the stateless blocks re-evaluated from their probes.
//!
//! The all-`dep_t` run also hides every plant's `(A, B)`, so it always
//! integrates through `derivatives`; the run as built takes the engine's
//! linear right-hand side wherever its plants' inputs hold still.

use std::any::Any;

use ecl_blocks::{
    Clock, Constant, DiscreteStateSpace, Gain, Integrator, Ramp, SampleHold, Saturation, Sine,
    StateSpaceCt, Step, Sum,
};
use ecl_sim::{
    Block, BlockId, EngineStats, EventActions, EventCtx, EventRecord, Model, PortSpec, SimOptions,
    Simulator, TimeNs,
};
use proptest::prelude::*;

/// Forwards every call to the block it wraps; with `full_pass` it
/// declares that its outputs depend on time, which puts it in the cone
/// whenever a derivative reads it, and hides its linear dynamics.
struct Shim {
    inner: Box<dyn Block>,
    full_pass: bool,
}

impl Block for Shim {
    fn type_name(&self) -> &'static str {
        self.inner.type_name()
    }
    fn ports(&self) -> PortSpec {
        self.inner.ports()
    }
    fn feedthrough(&self, input: usize) -> bool {
        self.inner.feedthrough(input)
    }
    fn depends_on_time(&self) -> bool {
        self.full_pass || self.inner.depends_on_time()
    }
    fn num_states(&self) -> usize {
        self.inner.num_states()
    }
    fn init_states(&self, x: &mut [f64]) {
        self.inner.init_states(x)
    }
    fn derivatives(&self, t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
        self.inner.derivatives(t, x, u, dx)
    }
    fn linear_dynamics(&self) -> Option<(&[f64], &[f64])> {
        if self.full_pass {
            None
        } else {
            self.inner.linear_dynamics()
        }
    }
    fn outputs(&mut self, t: f64, x: &[f64], u: &[f64], y: &mut [f64]) {
        self.inner.outputs(t, x, u, y)
    }
    fn on_start(&mut self, actions: &mut EventActions) {
        self.inner.on_start(actions)
    }
    fn on_event(&mut self, port: usize, t: TimeNs, ctx: &mut EventCtx<'_>) {
        self.inner.on_event(port, t, ctx)
    }
    // Downcasts see through the shim, so both runs retune the same way.
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

fn add(m: &mut Model, full_pass: bool, name: String, inner: Box<dyn Block>) -> BlockId {
    m.add_block(name, Shim { inner, full_pass })
}

/// The block of a node kind whose outputs are a function of `t` and its
/// inputs alone (sources and static math), or `None`.
fn stateless(kind: usize, a: f64, b: f64) -> Option<Box<dyn Block>> {
    Some(match kind {
        0 => Box::new(Constant::new(2.0 * a)),
        1 => Box::new(Sine::new(a, 5.0 + 20.0 * b).with_phase(b)),
        2 => Box::new(Step::new(0.02 + 0.1 * b, a, -a)),
        3 => Box::new(Ramp::new(0.1 * b, a)),
        4 => Box::new(Gain::new(1.2 * a)),
        5 => Box::new(Sum::new(vec![a, b - 0.5]).expect("two inputs")),
        6 => Box::new(Saturation::symmetric(0.2 + b).expect("positive")),
        _ => return None,
    })
}

/// A stateless node: its signal index, its block and the signal indices
/// of its inputs.
type Stateless = (usize, Box<dyn Block>, Vec<usize>);

/// One node of a random diagram: `(kind, a, b, src0, src1, clock)`.
type Node = (usize, f64, f64, usize, usize, usize);

/// Builds the diagram `nodes` describe, on two clocks of the given
/// periods. Feedthrough blocks read signals made before them; blocks
/// without feedthrough (holds, discrete state space, integrators) read
/// any signal, their own included, so the diagram has feedback loops but
/// no algebraic loop. Returns the model and its retunable constant.
fn build(
    nodes: &[Node],
    periods_us: [i64; 2],
    full_pass: bool,
) -> (Model, BlockId, Vec<Stateless>) {
    let mut m = Model::new();
    let mut clocks = Vec::new();
    for (k, &p) in periods_us.iter().enumerate() {
        let period = TimeNs::from_micros(p);
        let offset = TimeNs::from_micros(p * k as i64 / 3);
        let clock = Clock::new(period, offset).expect("valid clock");
        let clk = add(&mut m, full_pass, format!("clk{k}"), Box::new(clock));
        m.connect_event(clk, 0, clk, 0).expect("self-loop");
        clocks.push(clk);
    }
    let knob = add(
        &mut m,
        full_pass,
        "knob".into(),
        Box::new(Constant::new(1.0)),
    );
    let mut signals = vec![knob];
    let mut deferred = Vec::new();
    let mut pure = Vec::new();
    for (i, &(kind, a, b, s0, s1, clk)) in nodes.iter().enumerate() {
        let name = format!("n{i}");
        let (u0, u1) = (s0 % signals.len(), s1 % signals.len());
        let clock = clocks[clk % clocks.len()];
        let id = match kind {
            0..=6 => {
                let id = add(
                    &mut m,
                    full_pass,
                    name,
                    stateless(kind, a, b).expect("stateless"),
                );
                let inputs = [u0, u1][..m.ports(id).expect("added").inputs].to_vec();
                for (port, &u) in inputs.iter().enumerate() {
                    m.connect(signals[u], 0, id, port).expect("wire");
                }
                pure.push((
                    signals.len(),
                    stateless(kind, a, b).expect("stateless"),
                    inputs,
                ));
                id
            }
            7 => {
                let plant = StateSpaceCt::new(
                    1,
                    1,
                    1,
                    vec![-1.0 - 4.0 * b],
                    vec![1.0],
                    vec![1.0],
                    vec![a],
                    vec![b],
                )
                .expect("1×1 plant");
                let id = add(&mut m, full_pass, name, Box::new(plant));
                m.connect(signals[u0], 0, id, 0).expect("wire");
                id
            }
            8 => {
                let id = add(&mut m, full_pass, name, Box::new(SampleHold::new(a)));
                m.connect_event(clock, 0, id, 0).expect("wire");
                deferred.push((id, s0));
                id
            }
            9 => {
                let dss = DiscreteStateSpace::new(
                    1,
                    1,
                    1,
                    vec![0.5 * a],
                    vec![1.0],
                    vec![1.0],
                    vec![0.0],
                    vec![b],
                )
                .expect("1×1 filter");
                let id = add(&mut m, full_pass, name, Box::new(dss));
                m.connect_event(clock, 0, id, 0).expect("wire");
                deferred.push((id, s0));
                id
            }
            _ => {
                let id = add(&mut m, full_pass, name, Box::new(Integrator::new(a)));
                deferred.push((id, s0));
                id
            }
        };
        signals.push(id);
    }
    for (id, s) in deferred {
        m.connect(signals[s % signals.len()], 0, id, 0)
            .expect("wire");
    }
    for (k, &id) in signals.iter().enumerate() {
        m.probe(format!("y{k}"), id, 0).expect("probe");
    }
    (m, knob, pure)
}

/// Every probe sample as bits, the event log and the engine counters.
type Observed = (
    Vec<(String, Vec<u64>, Vec<u64>)>,
    Vec<EventRecord>,
    EngineStats,
);

/// Runs the diagram to 60 ms, retunes the constant through `model_mut`,
/// and resumes to 120 ms.
///
/// Every sample of a stateless node's probe must be its block evaluated
/// afresh at the sample's instant on its input probes' samples: a
/// committed pass that skipped a block whose outputs moved would leave a
/// stale value there, in this run and in the all-`dep_t` one alike.
fn observe(nodes: &[Node], periods_us: [i64; 2], rk4: bool, full_pass: bool) -> Observed {
    let (model, knob, mut pure) = build(nodes, periods_us, full_pass);
    let opts = SimOptions {
        integrator: if rk4 {
            ecl_sim::Integrator::Rk4 { h: 2e-4 }
        } else {
            ecl_sim::Integrator::default()
        },
        ..SimOptions::default()
    };
    let mut sim = Simulator::new(model, opts).expect("valid diagram");
    sim.run(TimeNs::from_millis(60)).expect("first run");
    *sim.model_mut()
        .block_as_mut::<Constant>(knob)
        .expect("the knob is a constant") = Constant::new(-2.0);
    sim.run(TimeNs::from_millis(120)).expect("resumed run");
    let result = sim.result();
    let probe = |k: usize| result.signal(&format!("y{k}")).expect("probed");
    for (k, block, inputs) in &mut pure {
        let (y, ins) = (
            probe(*k),
            inputs.iter().map(|&u| probe(u)).collect::<Vec<_>>(),
        );
        for (i, (t, v)) in y.iter().enumerate() {
            let u: Vec<f64> = ins.iter().map(|s| s.values()[i]).collect();
            let mut out = [0.0];
            block.outputs(t, &[], &u, &mut out);
            assert_eq!(
                out[0].to_bits(),
                v.to_bits(),
                "y{k} at sample {i} (t = {t})"
            );
        }
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let signals = result
        .signals()
        .map(|(name, s)| (name.to_string(), bits(s.times()), bits(s.values())))
        .collect();
    (signals, result.event_log().to_vec(), sim.stats().clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Skipping the blocks outside the varying cone changes no probe
    /// sample, event or engine counter, across a `model_mut` retune.
    #[test]
    fn varying_cone_matches_the_full_pass(
        nodes in proptest::collection::vec(
            (0usize..11, -1.0f64..1.0, 0.0f64..1.0, 0usize..64, 0usize..64, 0usize..2),
            1..14,
        ),
        p0 in 2_000i64..20_000,
        p1 in 2_000i64..20_000,
        rk4 in 0usize..4,
    ) {
        let periods = [p0, p1];
        let rk4 = rk4 == 0;
        let cone = observe(&nodes, periods, rk4, false);
        let full = observe(&nodes, periods, rk4, true);
        prop_assert_eq!(&cone.0, &full.0);
        prop_assert_eq!(&cone.1, &full.1);
        prop_assert_eq!(&cone.2, &full.2);
    }
}

/// A time-varying source feeding a plant keeps the engine on the
/// derivative path: a sine driving a state-space plant gives the bits of
/// the same plant with its `(A, B)` hidden. A linear right-hand side,
/// which reads its inputs once per chunk, would hold the sine there.
#[test]
fn time_varying_input_keeps_the_derivative_path() {
    let run = |hidden: bool| {
        let mut m = Model::new();
        let sine = add(&mut m, false, "sine".into(), Box::new(Sine::new(1.0, 40.0)));
        let plant = StateSpaceCt::new(
            2,
            1,
            2,
            vec![0.0, 1.0, -4.0, -0.4],
            vec![0.0, 1.0],
            vec![1.0, 0.0, 0.0, 1.0],
            vec![0.0, 0.0],
            vec![1.0, 0.0],
        )
        .expect("2-state plant");
        let plant = add(&mut m, hidden, "plant".into(), Box::new(plant));
        m.connect(sine, 0, plant, 0).expect("wire");
        m.probe("x0", plant, 0).expect("probe");
        m.probe("x1", plant, 1).expect("probe");
        let mut sim = Simulator::new(m, SimOptions::default()).expect("valid");
        sim.run(TimeNs::from_millis(100)).expect("runs");
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let signals: Vec<_> = sim
            .result()
            .signals()
            .map(|(_, s)| (bits(s.times()), bits(s.values())))
            .collect();
        (signals, sim.stats().clone())
    };
    assert_eq!(run(false), run(true));
}
