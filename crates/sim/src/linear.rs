//! The right-hand side of a model whose stateful blocks are all linear.
//!
//! [`Simulator::new`](crate::Simulator::new) picks it over the general
//! block-diagram right-hand side when two things hold: nothing the
//! derivative pass reads can move within a span (no varying block feeds
//! a stateful one), and every stateful block reports its `(A, B)` through
//! [`Block::linear_dynamics`]. Each block's inputs are then constant over
//! a span, and its derivative is `A·x + B·u`, summed in the order the
//! method's bit contract fixes. This type sums it the same way, so a run
//! is bit-identical to one through [`Block::derivatives`]; it skips the
//! dynamic dispatch, the per-call slicing and the re-multiplication of
//! the constant `B·u` products, and as a concrete type it is inlined into
//! the integrator's stage loop.
//!
//! [`Block::linear_dynamics`]: crate::Block::linear_dynamics
//! [`Block::derivatives`]: crate::Block::derivatives

use crate::engine::Slot;
use crate::model::Entry;
use crate::ode::OdeRhs;

/// One stateful block's rows.
#[derive(Debug, Clone, Copy)]
struct Part {
    /// Where the block's states, inputs and counts live.
    slot: Slot,
    /// Offset of its row-major `A` (`n·n`) in `coef`.
    a_off: usize,
    /// Offset of its row-major `B` (`n·m`) in the `B` third of `coef`,
    /// and of its `B·u` products, laid out the same way, in the last.
    b_off: usize,
}

/// `ẋ = A·x + B·u` over the joint state, one block-diagonal part per
/// stateful block.
#[derive(Debug)]
pub(crate) struct LinearRhs {
    parts: Vec<Part>,
    /// Every part's `A`, then every part's `B`, both copied from its
    /// block, then every part's `b_ij·u_j` at the current chunk's inputs.
    coef: Vec<f64>,
    /// Where the `B` third of `coef` starts, and its length.
    b_start: usize,
    b_len: usize,
    /// The blocks may have been retuned since `coef` was read.
    stale: bool,
}

impl LinearRhs {
    /// The linear right-hand side of the blocks of `stateful`, or `None`
    /// unless each reports linear dynamics of its shape.
    pub(crate) fn new(entries: &[Entry], stateful: &[Slot]) -> Option<LinearRhs> {
        let mut parts = Vec::with_capacity(stateful.len());
        let (mut a_len, mut b_len) = (0, 0);
        for &slot in stateful {
            parts.push(Part {
                slot,
                a_off: a_len,
                b_off: b_len,
            });
            a_len += slot.states * slot.states;
            b_len += slot.states * slot.inputs;
        }
        let mut rhs = LinearRhs {
            parts,
            coef: vec![0.0; a_len + 2 * b_len],
            b_start: a_len,
            b_len,
            stale: true,
        };
        rhs.reload(entries).then_some(rhs)
    }

    /// Marks the coefficients for re-reading: a block may be retuned.
    pub(crate) fn mark_stale(&mut self) {
        self.stale = true;
    }

    /// Re-reads every part's `(A, B)` if stale; `false` if a block no
    /// longer reports linear dynamics of its shape.
    pub(crate) fn reload(&mut self, entries: &[Entry]) -> bool {
        if !self.stale {
            return true;
        }
        let (a_all, b_all) = self.coef.split_at_mut(self.b_start);
        for p in &self.parts {
            let (n, m) = (p.slot.states, p.slot.inputs);
            let Some((a, b)) = entries[p.slot.block].block.linear_dynamics() else {
                return false;
            };
            if a.len() != n * n || b.len() != n * m {
                return false;
            }
            a_all[p.a_off..p.a_off + n * n].copy_from_slice(a);
            b_all[p.b_off..p.b_off + n * m].copy_from_slice(b);
        }
        self.stale = false;
        true
    }

    /// Forms the `B·u` products at the flat `inputs`, which hold every
    /// part's inputs for the whole chunk.
    pub(crate) fn load_inputs(&mut self, inputs: &[f64]) {
        let (b_all, bu_all) = self.coef[self.b_start..].split_at_mut(self.b_len);
        for p in &self.parts {
            let (n, m) = (p.slot.states, p.slot.inputs);
            let u = &inputs[p.slot.in_off..p.slot.in_off + m];
            let b = &b_all[p.b_off..p.b_off + n * m];
            for (k, bu) in bu_all[p.b_off..p.b_off + n * m].iter_mut().enumerate() {
                *bu = b[k] * u[k % m];
            }
        }
    }

    /// [`OdeRhs::eval`] for several blocks, each on its own rows.
    #[inline(never)]
    fn eval_parts(&self, x: &[f64], dx: &mut [f64]) {
        let bu_all = &self.coef[self.b_start + self.b_len..];
        for p in &self.parts {
            let s = p.slot;
            rows(
                s.states,
                s.inputs,
                &self.coef[p.a_off..],
                &bu_all[p.b_off..],
                &x[s.state_off..],
                &mut dx[s.state_off..],
            );
        }
    }
}

impl OdeRhs for LinearRhs {
    /// Always inlined: in the integrator's stack-array bodies the state
    /// length is a constant, and so becomes every loop bound below.
    #[inline(always)]
    fn eval(&mut self, _t: f64, x: &[f64], dx: &mut [f64]) {
        let [p] = self.parts.as_slice() else {
            return self.eval_parts(x, dx);
        };
        // One block holds the whole state, so its row length is the
        // state's; the input counts of the plants of
        // `ecl_control::plants`, one and two, are made constants too.
        let (a, bu) = (&self.coef, &self.coef[self.b_start + self.b_len..]);
        match p.slot.inputs {
            1 => rows(x.len(), 1, a, bu, x, dx),
            2 => rows(x.len(), 2, a, bu, x, dx),
            m => rows(x.len(), m, a, bu, x, dx),
        }
    }
}

/// Writes `dx[i] = 0.0 + a[i·n]·x[0] + … + a[i·n+n−1]·x[n−1] + bu[i·m] +
/// … + bu[i·m+m−1]` for each of the `n` rows, added left to right: the
/// order of the [`Block::linear_dynamics`] contract, with each product
/// `b_ij·u_j` rounded once ahead instead of on every call.
///
/// [`Block::linear_dynamics`]: crate::Block::linear_dynamics
#[inline(always)]
fn rows(n: usize, m: usize, a: &[f64], bu: &[f64], x: &[f64], dx: &mut [f64]) {
    let (a, bu, x, dx) = (&a[..n * n], &bu[..n * m], &x[..n], &mut dx[..n]);
    for i in 0..n {
        let mut acc = 0.0;
        for j in 0..n {
            acc += a[i * n + j] * x[j];
        }
        for j in 0..m {
            acc += bu[i * m + j];
        }
        dx[i] = acc;
    }
}
