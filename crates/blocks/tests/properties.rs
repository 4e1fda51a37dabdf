//! Property-based tests of the event-block semantics.

use ecl_blocks::{add_clock, EventDelay, SampleHold, Synchronization, UnitDelay};
use ecl_sim::{Block, EventActions, EventCtx, Model, SimOptions, Simulator, TimeNs};
use proptest::prelude::*;

fn activate(b: &mut impl Block, port: usize, inputs: &[f64]) -> usize {
    let mut actions = EventActions::new();
    let mut ctx = EventCtx {
        inputs,
        actions: &mut actions,
    };
    b.on_event(port, TimeNs::ZERO, &mut ctx);
    actions.len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The Synchronization block implements the paper's §3.2.3 spec
    /// exactly: boolean received-flags, fire-and-reset when all are set
    /// (duplicate events before a reset are absorbed, *not* queued). We
    /// replay any interleaving against that reference model, and check
    /// the firing count is bounded by the per-port minimum.
    #[test]
    fn synchronization_matches_flag_semantics(
        n in 1usize..6,
        seq in proptest::collection::vec(0usize..6, 0..120),
    ) {
        let mut sync = Synchronization::new(n).expect("n >= 1");
        let mut flags = vec![false; n];
        let mut ref_fired = 0u64;
        let mut counts = vec![0u64; n];
        for &raw in &seq {
            let port = raw % n;
            counts[port] += 1;
            let emitted = activate(&mut sync, port, &[]);
            // Reference model.
            flags[port] = true;
            let fires = flags.iter().all(|&f| f);
            if fires {
                flags.iter_mut().for_each(|f| *f = false);
                ref_fired += 1;
            }
            prop_assert_eq!(emitted, usize::from(fires));
            for (p, &flag) in flags.iter().enumerate() {
                prop_assert_eq!(sync.pending(p), flag);
            }
        }
        prop_assert_eq!(sync.fired(), ref_fired);
        // Flag semantics can only lose events, never invent them.
        prop_assert!(sync.fired() <= *counts.iter().min().expect("n >= 1"));
    }

    /// A chain of event delays shifts the clock by exactly the sum of the
    /// delays, every period.
    #[test]
    fn delay_chain_shifts_by_sum(
        delays_us in proptest::collection::vec(1i64..500, 1..6),
        period_ms in 5i64..20,
    ) {
        let period = TimeNs::from_millis(period_ms);
        let total: i64 = delays_us.iter().sum();
        prop_assume!(TimeNs::from_micros(total) < period);
        let mut m = Model::new();
        let clk = add_clock(&mut m, "clk", period, TimeNs::ZERO).expect("ok");
        let mut prev = clk;
        for (i, &d) in delays_us.iter().enumerate() {
            let blk = m.add_block(
                format!("d{i}"),
                EventDelay::new(TimeNs::from_micros(d)).expect("ok"),
            );
            m.connect_event(prev, 0, blk, 0).expect("ok");
            prev = blk;
        }
        let sink = m.add_block("sink", Synchronization::new(1).expect("ok"));
        m.connect_event(prev, 0, sink, 0).expect("ok");
        let mut sim = Simulator::new(m, SimOptions::default()).expect("ok");
        let r = sim.run(period * 3 - TimeNs::from_nanos(1)).expect("ok");
        let acts = r.activation_times(sink, Some(0));
        prop_assert_eq!(acts.len(), 3);
        for (k, &t) in acts.iter().enumerate() {
            prop_assert_eq!(t, period * k as i64 + TimeNs::from_micros(total));
        }
    }

    /// UnitDelay implements exactly y_k = u_{k-1} for any input sequence.
    #[test]
    fn unit_delay_is_one_step_shift(
        initial in -10.0f64..10.0,
        inputs in proptest::collection::vec(-100.0f64..100.0, 1..50),
    ) {
        let mut d = UnitDelay::new(initial);
        let mut outputs = Vec::new();
        for &u in &inputs {
            activate(&mut d, 0, &[u]);
            let mut y = [0.0];
            d.outputs(0.0, &[], &[], &mut y);
            outputs.push(y[0]);
        }
        prop_assert_eq!(outputs[0], initial);
        for k in 1..inputs.len() {
            prop_assert_eq!(outputs[k], inputs[k - 1]);
        }
    }

    /// SampleHold reports exactly the input it saw at each activation.
    #[test]
    fn sample_hold_latches_every_activation(
        inputs in proptest::collection::vec(-100.0f64..100.0, 1..50),
    ) {
        let mut sh = SampleHold::new(0.0);
        for &u in &inputs {
            activate(&mut sh, 0, &[u]);
            prop_assert_eq!(sh.held(), u);
        }
    }

    /// An EventDelay emits exactly one event per activation, always on
    /// port 0.
    #[test]
    fn event_delay_one_out_per_in(delay_us in 0i64..10_000, n in 1usize..30) {
        let mut d = EventDelay::new(TimeNs::from_micros(delay_us)).expect("ok");
        for _ in 0..n {
            let emitted = activate(&mut d, 0, &[]);
            prop_assert_eq!(emitted, 1);
        }
    }
}
