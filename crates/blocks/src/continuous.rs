//! Continuous-time dynamic blocks, integrated by the engine's ODE solver.

use ecl_sim::{impl_block_any, Block, PortSpec};

use crate::error::BlockError;

/// A single integrator: `ẋ = u`, `y = x`.
///
/// # Examples
///
/// ```
/// use ecl_blocks::Integrator;
/// let i = Integrator::new(1.5); // initial condition
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Integrator {
    x0: f64,
}

impl Integrator {
    /// Creates an integrator with initial condition `x0`.
    pub fn new(x0: f64) -> Self {
        Integrator { x0 }
    }
}

impl Block for Integrator {
    fn type_name(&self) -> &'static str {
        "Integrator"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::siso(1, 1)
    }
    fn feedthrough(&self, _input: usize) -> bool {
        false
    }
    fn num_states(&self) -> usize {
        1
    }
    fn init_states(&self, x: &mut [f64]) {
        x[0] = self.x0;
    }
    fn derivatives(&self, _t: f64, _x: &[f64], u: &[f64], dx: &mut [f64]) {
        dx[0] = u[0];
    }
    fn outputs(&mut self, _t: f64, x: &[f64], _u: &[f64], y: &mut [f64]) {
        y[0] = x[0];
    }
    impl_block_any!();
}

/// A continuous linear state-space system
///
/// ```text
/// ẋ = A·x + B·u,    y = C·x + D·u
/// ```
///
/// with `n` states, `m` inputs and `p` outputs. This is the generic plant
/// block: `ecl-control` plants convert into it for simulation.
///
/// Matrices are stored row-major; direct feedthrough is declared per input
/// from the sparsity of `D`.
#[derive(Debug, Clone, PartialEq)]
pub struct StateSpaceCt {
    n: usize,
    m: usize,
    p: usize,
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
    d: Vec<f64>,
    x0: Vec<f64>,
}

impl StateSpaceCt {
    /// Creates a state-space block from row-major matrices.
    ///
    /// `a` is `n·n`, `b` is `n·m`, `c` is `p·n`, `d` is `p·m`, `x0` has
    /// length `n`.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidDimensions`] if any length disagrees
    /// with `(n, m, p)` or `m == 0` / `p == 0` (a plant must have at least
    /// one input and one output; use [`Integrator`] or a source otherwise).
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
                    block: "StateSpaceCt",
                    reason: format!("{name} has {got} entries, expected {want}"),
                })
            } else {
                Ok(())
            }
        };
        if m == 0 || p == 0 {
            return Err(BlockError::InvalidDimensions {
                block: "StateSpaceCt",
                reason: format!("need at least one input and output, got m={m}, p={p}"),
            });
        }
        check("A", a.len(), n * n)?;
        check("B", b.len(), n * m)?;
        check("C", c.len(), p * n)?;
        check("D", d.len(), p * m)?;
        check("x0", x0.len(), n)?;
        Ok(StateSpaceCt {
            n,
            m,
            p,
            a,
            b,
            c,
            d,
            x0,
        })
    }

    /// Number of states.
    pub fn state_dim(&self) -> usize {
        self.n
    }

    /// Number of inputs.
    pub fn input_dim(&self) -> usize {
        self.m
    }

    /// Number of outputs.
    pub fn output_dim(&self) -> usize {
        self.p
    }
}

impl Block for StateSpaceCt {
    fn type_name(&self) -> &'static str {
        "StateSpaceCt"
    }
    fn ports(&self) -> PortSpec {
        PortSpec::siso(self.m, self.p)
    }
    fn feedthrough(&self, input: usize) -> bool {
        // Direct feedthrough from input j iff column j of D is nonzero.
        (0..self.p).any(|i| self.d[i * self.m + input] != 0.0)
    }
    fn num_states(&self) -> usize {
        self.n
    }
    fn init_states(&self, x: &mut [f64]) {
        x.copy_from_slice(&self.x0);
    }
    fn derivatives(&self, _t: f64, x: &[f64], u: &[f64], dx: &mut [f64]) {
        for i in 0..self.n {
            let mut acc = 0.0;
            for j in 0..self.n {
                acc += self.a[i * self.n + j] * x[j];
            }
            for j in 0..self.m {
                acc += self.b[i * self.m + j] * u[j];
            }
            dx[i] = acc;
        }
    }
    /// `(A, B)`: `derivatives` above sums each row exactly as the
    /// contract states.
    fn linear_dynamics(&self) -> Option<(&[f64], &[f64])> {
        Some((&self.a, &self.b))
    }
    fn outputs(&mut self, _t: f64, x: &[f64], u: &[f64], y: &mut [f64]) {
        for i in 0..self.p {
            let mut acc = 0.0;
            for j in 0..self.n {
                acc += self.c[i * self.n + j] * x[j];
            }
            for j in 0..self.m {
                acc += self.d[i * self.m + j] * u[j];
            }
            y[i] = acc;
        }
    }
    impl_block_any!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_sim::{Model, SimOptions, Simulator, TimeNs};

    use crate::sources::Constant;

    #[test]
    fn integrator_block_basics() {
        let i = Integrator::new(2.0);
        assert_eq!(i.num_states(), 1);
        assert!(!i.feedthrough(0));
        let mut x = [0.0];
        i.init_states(&mut x);
        assert_eq!(x[0], 2.0);
        let mut dx = [0.0];
        i.derivatives(0.0, &x, &[5.0], &mut dx);
        assert_eq!(dx[0], 5.0);
    }

    #[test]
    fn state_space_dimension_checks() {
        assert!(StateSpaceCt::new(
            1,
            1,
            1,
            vec![0.0],
            vec![1.0],
            vec![1.0],
            vec![0.0],
            vec![0.0]
        )
        .is_ok());
        assert!(StateSpaceCt::new(
            2,
            1,
            1,
            vec![0.0],
            vec![1.0],
            vec![1.0],
            vec![0.0],
            vec![0.0]
        )
        .is_err());
        assert!(
            StateSpaceCt::new(1, 0, 1, vec![0.0], vec![], vec![1.0], vec![], vec![0.0]).is_err()
        );
    }

    #[test]
    fn feedthrough_tracks_d_sparsity() {
        // Two inputs, D = [0 1]: feedthrough only from input 1.
        let ss = StateSpaceCt::new(
            1,
            2,
            1,
            vec![0.0],
            vec![1.0, 0.0],
            vec![1.0],
            vec![0.0, 1.0],
            vec![0.0],
        )
        .unwrap();
        assert!(!ss.feedthrough(0));
        assert!(ss.feedthrough(1));
    }

    #[test]
    fn first_order_lag_step_response() {
        // ẋ = -x + u, y = x: step response 1 - e^{-t}.
        let ss = StateSpaceCt::new(
            1,
            1,
            1,
            vec![-1.0],
            vec![1.0],
            vec![1.0],
            vec![0.0],
            vec![0.0],
        )
        .unwrap();
        let mut m = Model::new();
        let u = m.add_block("u", Constant::new(1.0));
        let p = m.add_block("p", ss);
        m.connect(u, 0, p, 0).unwrap();
        m.probe("y", p, 0).unwrap();
        let mut sim = Simulator::new(m, SimOptions::default()).unwrap();
        let r = sim.run(TimeNs::from_secs(2)).unwrap();
        let y = r.signal("y").unwrap();
        let expect = 1.0 - (-2.0f64).exp();
        assert!((y.last().unwrap().1 - expect).abs() < 1e-6);
        // Mid-point check too.
        let expect_mid = 1.0 - (-1.0f64).exp();
        assert!((y.sample(1.0).unwrap() - expect_mid).abs() < 1e-4);
    }

    #[test]
    fn accessors() {
        let ss = StateSpaceCt::new(
            2,
            1,
            1,
            vec![0.0, 1.0, -1.0, -1.0],
            vec![0.0, 1.0],
            vec![1.0, 0.0],
            vec![0.0],
            vec![0.0, 0.0],
        )
        .unwrap();
        assert_eq!(ss.state_dim(), 2);
        assert_eq!(ss.input_dim(), 1);
        assert_eq!(ss.output_dim(), 1);
    }
}
