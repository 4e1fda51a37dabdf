//! The SynDEx algorithm graph: a data-flow DAG of operations.

use std::collections::HashSet;
use std::fmt;

use crate::AaaError;

/// Handle to an operation of an [`AlgorithmGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub(crate) usize);

impl OpId {
    /// The raw index of this operation.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// The role of an operation in the control loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// Input acquisition: samples one controller input (a measure). The
    /// completion instant of a sensor operation is the `I_j(k)` of the
    /// paper's eq. (1).
    Sensor,
    /// Pure computation.
    Function,
    /// Output application: applies one controller output (a control). The
    /// completion instant of an actuator operation is the `O_j(k)` of the
    /// paper's eq. (2).
    Actuator,
}

/// Conditioning of an operation (paper §3.2.2): the operation executes only
/// when the *condition variable* (the integer value produced by `variable`)
/// selects its `branch`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Condition {
    /// The operation producing the branch-selection value.
    pub variable: OpId,
    /// The branch index this operation belongs to.
    pub branch: usize,
}

#[derive(Debug, Clone)]
pub(crate) struct OpNode {
    pub(crate) name: String,
    pub(crate) kind: OpKind,
    pub(crate) condition: Option<Condition>,
}

/// A data dependency `src → dst` carrying `data_units` abstract data units
/// (the unit is whatever the media tariffs are expressed in, typically
/// bytes or words).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataEdge {
    /// Producing operation.
    pub src: OpId,
    /// Consuming operation.
    pub dst: OpId,
    /// Amount of data transferred.
    pub data_units: u32,
}

/// The SynDEx algorithm graph: a DAG of [`OpKind`]-tagged operations with
/// data dependencies and optional conditioning.
///
/// # Examples
///
/// ```
/// use ecl_aaa::AlgorithmGraph;
/// # fn main() -> Result<(), ecl_aaa::AaaError> {
/// let mut alg = AlgorithmGraph::new();
/// let s = alg.add_sensor("y");
/// let f = alg.add_function("pid");
/// let a = alg.add_actuator("u");
/// alg.add_edge(s, f, 4)?;
/// alg.add_edge(f, a, 4)?;
/// assert_eq!(alg.topo_order()?.len(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct AlgorithmGraph {
    pub(crate) nodes: Vec<OpNode>,
    pub(crate) edges: Vec<DataEdge>,
}

impl AlgorithmGraph {
    /// Creates an empty algorithm graph.
    pub fn new() -> Self {
        AlgorithmGraph::default()
    }

    fn add_node(&mut self, name: impl Into<String>, kind: OpKind) -> OpId {
        self.nodes.push(OpNode {
            name: name.into(),
            kind,
            condition: None,
        });
        OpId(self.nodes.len() - 1)
    }

    /// Adds a sensor (input acquisition) operation.
    pub fn add_sensor(&mut self, name: impl Into<String>) -> OpId {
        self.add_node(name, OpKind::Sensor)
    }

    /// Adds a computation operation.
    pub fn add_function(&mut self, name: impl Into<String>) -> OpId {
        self.add_node(name, OpKind::Function)
    }

    /// Adds an actuator (output application) operation.
    pub fn add_actuator(&mut self, name: impl Into<String>) -> OpId {
        self.add_node(name, OpKind::Actuator)
    }

    /// Adds a data dependency carrying `data_units` units.
    ///
    /// # Errors
    ///
    /// * [`AaaError::UnknownOp`] for foreign ids.
    /// * [`AaaError::InvalidGraph`] for self-loops or duplicate edges.
    pub fn add_edge(&mut self, src: OpId, dst: OpId, data_units: u32) -> Result<(), AaaError> {
        self.check(src)?;
        self.check(dst)?;
        if src == dst {
            return Err(AaaError::InvalidGraph {
                reason: format!("self-loop on '{}'", self.nodes[src.0].name),
            });
        }
        if self.edges.iter().any(|e| e.src == src && e.dst == dst) {
            return Err(AaaError::InvalidGraph {
                reason: format!(
                    "duplicate edge '{}' -> '{}'",
                    self.nodes[src.0].name, self.nodes[dst.0].name
                ),
            });
        }
        self.edges.push(DataEdge {
            src,
            dst,
            data_units,
        });
        Ok(())
    }

    /// Marks `op` as conditioned: it executes only when the value produced
    /// by `variable` selects `branch` (paper §3.2.2).
    ///
    /// The condition variable must already be a data predecessor of `op` or
    /// it is added as a zero-size dependency.
    ///
    /// # Errors
    ///
    /// * [`AaaError::UnknownOp`] for foreign ids.
    /// * [`AaaError::InvalidGraph`] if `variable == op` or `variable` is
    ///   itself conditioned on `op` (direct cycle).
    pub fn set_condition(
        &mut self,
        op: OpId,
        variable: OpId,
        branch: usize,
    ) -> Result<(), AaaError> {
        self.check(op)?;
        self.check(variable)?;
        if op == variable {
            return Err(AaaError::InvalidGraph {
                reason: format!("'{}' cannot condition itself", self.nodes[op.0].name),
            });
        }
        if !self.edges.iter().any(|e| e.src == variable && e.dst == op) {
            self.add_edge(variable, op, 0)?;
        }
        self.nodes[op.0].condition = Some(Condition { variable, branch });
        Ok(())
    }

    /// Number of operations.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the graph has no operations.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over all operation ids.
    pub fn ops(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.nodes.len()).map(OpId)
    }

    /// The name of an operation.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn name(&self, op: OpId) -> &str {
        &self.nodes[op.0].name
    }

    /// The kind of an operation.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn kind(&self, op: OpId) -> OpKind {
        self.nodes[op.0].kind
    }

    /// The conditioning of an operation, if any.
    ///
    /// # Panics
    ///
    /// Panics on a foreign id.
    pub fn condition(&self, op: OpId) -> Option<Condition> {
        self.nodes[op.0].condition
    }

    /// All data edges.
    pub fn edges(&self) -> &[DataEdge] {
        &self.edges
    }

    /// Ids of the operations `op` depends on.
    pub fn preds(&self, op: OpId) -> Vec<OpId> {
        self.edges
            .iter()
            .filter(|e| e.dst == op)
            .map(|e| e.src)
            .collect()
    }

    /// Ids of the operations depending on `op`.
    pub fn succs(&self, op: OpId) -> Vec<OpId> {
        self.edges
            .iter()
            .filter(|e| e.src == op)
            .map(|e| e.dst)
            .collect()
    }

    /// Sensor operations in insertion order.
    pub fn sensors(&self) -> Vec<OpId> {
        self.of_kind(OpKind::Sensor)
    }

    /// Actuator operations in insertion order.
    pub fn actuators(&self) -> Vec<OpId> {
        self.of_kind(OpKind::Actuator)
    }

    fn of_kind(&self, kind: OpKind) -> Vec<OpId> {
        self.ops().filter(|&o| self.kind(o) == kind).collect()
    }

    /// A topological order of the operations.
    ///
    /// # Errors
    ///
    /// Returns [`AaaError::CyclicAlgorithm`] if the graph has a cycle.
    pub fn topo_order(&self) -> Result<Vec<OpId>, AaaError> {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        for e in &self.edges {
            indeg[e.dst.0] += 1;
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        let mut cursor = 0;
        while cursor < ready.len() {
            let u = ready[cursor];
            cursor += 1;
            order.push(OpId(u));
            for e in &self.edges {
                if e.src.0 == u {
                    indeg[e.dst.0] -= 1;
                    if indeg[e.dst.0] == 0 {
                        ready.push(e.dst.0);
                    }
                }
            }
        }
        if order.len() != n {
            let cyclic = (0..n)
                .filter(|&i| indeg[i] > 0)
                .map(|i| self.nodes[i].name.clone())
                .collect();
            return Err(AaaError::CyclicAlgorithm { ops: cyclic });
        }
        Ok(order)
    }

    /// The distinct condition variables used by conditioned operations.
    pub fn condition_variables(&self) -> Vec<OpId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for n in &self.nodes {
            if let Some(c) = n.condition {
                if seen.insert(c.variable) {
                    out.push(c.variable);
                }
            }
        }
        out
    }

    pub(crate) fn check(&self, op: OpId) -> Result<(), AaaError> {
        if op.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(AaaError::UnknownOp { index: op.0 })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain() -> (AlgorithmGraph, OpId, OpId, OpId) {
        let mut g = AlgorithmGraph::new();
        let s = g.add_sensor("s");
        let f = g.add_function("f");
        let a = g.add_actuator("a");
        g.add_edge(s, f, 1).unwrap();
        g.add_edge(f, a, 1).unwrap();
        (g, s, f, a)
    }

    #[test]
    fn kinds_and_names() {
        let (g, s, f, a) = chain();
        assert_eq!(g.kind(s), OpKind::Sensor);
        assert_eq!(g.kind(f), OpKind::Function);
        assert_eq!(g.kind(a), OpKind::Actuator);
        assert_eq!(g.name(f), "f");
        assert_eq!(g.sensors(), vec![s]);
        assert_eq!(g.actuators(), vec![a]);
        assert_eq!(g.len(), 3);
        assert!(!g.is_empty());
    }

    #[test]
    fn preds_and_succs() {
        let (g, s, f, a) = chain();
        assert_eq!(g.preds(f), vec![s]);
        assert_eq!(g.succs(f), vec![a]);
        assert!(g.preds(s).is_empty());
        assert!(g.succs(a).is_empty());
    }

    #[test]
    fn edge_validation() {
        let (mut g, s, f, _a) = chain();
        assert!(matches!(
            g.add_edge(s, s, 1),
            Err(AaaError::InvalidGraph { .. })
        ));
        assert!(matches!(
            g.add_edge(s, f, 1),
            Err(AaaError::InvalidGraph { .. })
        ));
        assert!(matches!(
            g.add_edge(OpId(99), f, 1),
            Err(AaaError::UnknownOp { .. })
        ));
    }

    #[test]
    fn topo_order_respects_edges() {
        let (g, s, f, a) = chain();
        let order = g.topo_order().unwrap();
        let pos = |x: OpId| order.iter().position(|&o| o == x).unwrap();
        assert!(pos(s) < pos(f) && pos(f) < pos(a));
    }

    #[test]
    fn cycle_detected() {
        let mut g = AlgorithmGraph::new();
        let a = g.add_function("a");
        let b = g.add_function("b");
        g.add_edge(a, b, 1).unwrap();
        g.add_edge(b, a, 1).unwrap();
        assert!(matches!(
            g.topo_order(),
            Err(AaaError::CyclicAlgorithm { .. })
        ));
    }

    #[test]
    fn conditioning_adds_dependency() {
        let mut g = AlgorithmGraph::new();
        let cond = g.add_function("mode");
        let f1 = g.add_function("branch0");
        let f2 = g.add_function("branch1");
        g.set_condition(f1, cond, 0).unwrap();
        g.set_condition(f2, cond, 1).unwrap();
        assert_eq!(g.preds(f1), vec![cond]);
        assert_eq!(
            g.condition(f1),
            Some(Condition {
                variable: cond,
                branch: 0
            })
        );
        assert_eq!(g.condition_variables(), vec![cond]);
        assert!(g.set_condition(cond, cond, 0).is_err());
    }

    #[test]
    fn condition_on_existing_edge_does_not_duplicate() {
        let mut g = AlgorithmGraph::new();
        let cond = g.add_function("mode");
        let f = g.add_function("f");
        g.add_edge(cond, f, 2).unwrap();
        g.set_condition(f, cond, 1).unwrap();
        assert_eq!(g.edges().len(), 1);
    }
}
