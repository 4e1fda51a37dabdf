use std::fmt;

use crate::block::{Block, PortSpec};
use crate::error::SimError;
use crate::trace::ProbeId;

/// Handle to a block inside a [`Model`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(usize);

impl BlockId {
    /// Creates a `BlockId` from a raw index. Only meaningful for ids handed
    /// out by [`Model::add_block`]; mainly useful in tests.
    pub const fn from_index(index: usize) -> Self {
        BlockId(index)
    }

    /// The raw index of this block.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

pub(crate) struct Entry {
    pub(crate) name: String,
    pub(crate) block: Box<dyn Block>,
    pub(crate) spec: PortSpec,
}

impl fmt::Debug for Entry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Entry")
            .field("name", &self.name)
            .field("type", &self.block.type_name())
            .field("spec", &self.spec)
            .finish()
    }
}

/// A signal connection `src.out -> dst.inp`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SigConn {
    pub(crate) src: BlockId,
    pub(crate) out: usize,
    pub(crate) dst: BlockId,
    pub(crate) inp: usize,
}

/// An event connection `src.event_out -> dst.event_in`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct EvtConn {
    pub(crate) src: BlockId,
    pub(crate) out: usize,
    pub(crate) dst: BlockId,
    pub(crate) inp: usize,
}

#[derive(Debug, Clone)]
pub(crate) struct Probe {
    pub(crate) name: String,
    pub(crate) block: BlockId,
    pub(crate) out: usize,
}

/// A block-diagram model: blocks plus signal and event wiring.
///
/// Build a model with [`Model::add_block`], [`Model::connect`] (signals) and
/// [`Model::connect_event`] (activations), register [`Model::probe`]s on the
/// outputs you want recorded, then hand it to
/// [`Simulator::new`](crate::Simulator::new).
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Default)]
pub struct Model {
    pub(crate) entries: Vec<Entry>,
    pub(crate) sig_conns: Vec<SigConn>,
    pub(crate) evt_conns: Vec<EvtConn>,
    pub(crate) probes: Vec<Probe>,
}

impl fmt::Debug for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Model")
            .field("blocks", &self.entries.len())
            .field("signal_connections", &self.sig_conns.len())
            .field("event_connections", &self.evt_conns.len())
            .field("probes", &self.probes.len())
            .finish()
    }
}

impl Model {
    /// Creates an empty model.
    pub fn new() -> Self {
        Model::default()
    }

    /// Adds a block under an instance `name` and returns its handle.
    ///
    /// Names need not be unique, but unique names make event logs and error
    /// messages much easier to read.
    pub fn add_block(&mut self, name: impl Into<String>, block: impl Block) -> BlockId {
        let spec = block.ports();
        self.entries.push(Entry {
            name: name.into(),
            block: Box::new(block),
            spec,
        });
        BlockId(self.entries.len() - 1)
    }

    /// Number of blocks in the model.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Number of event connections in the model.
    pub fn event_connections(&self) -> usize {
        self.evt_conns.len()
    }

    /// Reserves room for `blocks` more blocks, `signals` more signal
    /// connections, `events` more event connections and `probes` more
    /// probes, so a builder that knows its model's size adds them without
    /// regrowing.
    pub fn reserve(&mut self, blocks: usize, signals: usize, events: usize, probes: usize) {
        self.entries.reserve(blocks);
        self.sig_conns.reserve(signals);
        self.evt_conns.reserve(events);
        self.probes.reserve(probes);
    }

    /// `true` if the model has no blocks.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The instance name of a block.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBlock`] for a foreign id.
    pub fn name(&self, id: BlockId) -> Result<&str, SimError> {
        self.entry(id).map(|e| e.name.as_str())
    }

    /// Consumes the model, returning the instance names of its blocks in
    /// [`BlockId`] order.
    pub fn into_names(self) -> impl Iterator<Item = String> {
        self.entries.into_iter().map(|e| e.name)
    }

    /// The port spec of a block.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::UnknownBlock`] for a foreign id.
    pub fn ports(&self, id: BlockId) -> Result<PortSpec, SimError> {
        self.entry(id).map(|e| e.spec)
    }

    /// Downcasts a block to its concrete type.
    ///
    /// Returns `None` if the id is unknown or the type does not match.
    pub fn block_as<T: Block>(&self, id: BlockId) -> Option<&T> {
        self.entries
            .get(id.0)
            .and_then(|e| e.block.as_any().downcast_ref::<T>())
    }

    /// Mutable variant of [`Model::block_as`].
    pub fn block_as_mut<T: Block>(&mut self, id: BlockId) -> Option<&mut T> {
        self.entries
            .get_mut(id.0)
            .and_then(|e| e.block.as_any_mut().downcast_mut::<T>())
    }

    /// Connects signal output `out` of `src` to signal input `inp` of `dst`.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownBlock`] for a foreign id.
    /// * [`SimError::InvalidPort`] if either port index is out of range.
    /// * [`SimError::InputAlreadyDriven`] if the destination input already
    ///   has a driver (signals are single-writer).
    pub fn connect(
        &mut self,
        src: BlockId,
        out: usize,
        dst: BlockId,
        inp: usize,
    ) -> Result<(), SimError> {
        let src_e = self.entry(src)?;
        if out >= src_e.spec.outputs {
            return Err(SimError::InvalidPort {
                block: src_e.name.clone(),
                kind: "output",
                port: out,
                count: src_e.spec.outputs,
            });
        }
        let dst_e = self.entry(dst)?;
        if inp >= dst_e.spec.inputs {
            return Err(SimError::InvalidPort {
                block: dst_e.name.clone(),
                kind: "input",
                port: inp,
                count: dst_e.spec.inputs,
            });
        }
        if self.sig_conns.iter().any(|c| c.dst == dst && c.inp == inp) {
            return Err(SimError::InputAlreadyDriven {
                block: dst_e.name.clone(),
                port: inp,
            });
        }
        self.sig_conns.push(SigConn { src, out, dst, inp });
        Ok(())
    }

    /// Connects event output `out` of `src` to event input `inp` of `dst`.
    ///
    /// One event output may feed any number of event inputs (broadcast), and
    /// one event input may be fed by several outputs (merge).
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownBlock`] for a foreign id.
    /// * [`SimError::InvalidPort`] if either port index is out of range.
    pub fn connect_event(
        &mut self,
        src: BlockId,
        out: usize,
        dst: BlockId,
        inp: usize,
    ) -> Result<(), SimError> {
        let src_e = self.entry(src)?;
        if out >= src_e.spec.event_outputs {
            return Err(SimError::InvalidPort {
                block: src_e.name.clone(),
                kind: "event output",
                port: out,
                count: src_e.spec.event_outputs,
            });
        }
        let dst_e = self.entry(dst)?;
        if inp >= dst_e.spec.event_inputs {
            return Err(SimError::InvalidPort {
                block: dst_e.name.clone(),
                kind: "event input",
                port: inp,
                count: dst_e.spec.event_inputs,
            });
        }
        self.evt_conns.push(EvtConn { src, out, dst, inp });
        Ok(())
    }

    /// Registers a recorded probe on signal output `out` of `block`.
    ///
    /// The engine samples every probe at each accepted integration step and
    /// after every event cascade; retrieve the recording with
    /// [`SimResult::signal`](crate::SimResult::signal) under `name`.
    ///
    /// # Errors
    ///
    /// * [`SimError::UnknownBlock`] for a foreign id.
    /// * [`SimError::InvalidPort`] if the port index is out of range.
    /// * [`SimError::InvalidModel`] if a probe with the same name exists.
    pub fn probe(
        &mut self,
        name: impl Into<String>,
        block: BlockId,
        out: usize,
    ) -> Result<ProbeId, SimError> {
        let name = name.into();
        let e = self.entry(block)?;
        if out >= e.spec.outputs {
            return Err(SimError::InvalidPort {
                block: e.name.clone(),
                kind: "output",
                port: out,
                count: e.spec.outputs,
            });
        }
        if self.probes.iter().any(|p| p.name == name) {
            return Err(SimError::InvalidModel {
                reason: format!("duplicate probe name '{name}'"),
            });
        }
        self.probes.push(Probe { name, block, out });
        Ok(ProbeId::from_index(self.probes.len() - 1))
    }

    pub(crate) fn entry(&self, id: BlockId) -> Result<&Entry, SimError> {
        self.entries
            .get(id.0)
            .ok_or(SimError::UnknownBlock { index: id.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::{EventActions, EventCtx};
    use crate::impl_block_any;
    use crate::time::TimeNs;

    struct Gain(f64);
    impl Block for Gain {
        fn type_name(&self) -> &'static str {
            "Gain"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::siso(1, 1)
        }
        fn outputs(&mut self, _t: f64, _x: &[f64], u: &[f64], y: &mut [f64]) {
            y[0] = self.0 * u[0];
        }
        impl_block_any!();
    }

    struct Src;
    impl Block for Src {
        fn type_name(&self) -> &'static str {
            "Src"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::source(1)
        }
        fn outputs(&mut self, _t: f64, _x: &[f64], _u: &[f64], y: &mut [f64]) {
            y[0] = 1.0;
        }
        impl_block_any!();
    }

    struct Evt;
    impl Block for Evt {
        fn type_name(&self) -> &'static str {
            "Evt"
        }
        fn ports(&self) -> PortSpec {
            PortSpec::event_pipe(1, 1)
        }
        fn on_event(&mut self, _p: usize, _t: TimeNs, _ctx: &mut EventCtx<'_>) {}
        fn on_start(&mut self, _a: &mut EventActions) {}
        impl_block_any!();
    }

    #[test]
    fn add_and_lookup() {
        let mut m = Model::new();
        let g = m.add_block("g", Gain(2.0));
        assert_eq!(m.len(), 1);
        assert!(!m.is_empty());
        assert_eq!(m.name(g).unwrap(), "g");
        assert_eq!(m.ports(g).unwrap(), PortSpec::siso(1, 1));
        assert!(m.block_as::<Gain>(g).is_some());
        assert!(m.block_as::<Src>(g).is_none());
        m.block_as_mut::<Gain>(g).unwrap().0 = 3.0;
        assert_eq!(m.block_as::<Gain>(g).unwrap().0, 3.0);
    }

    #[test]
    fn unknown_block_errors() {
        let m = Model::new();
        let ghost = BlockId::from_index(7);
        assert!(matches!(m.name(ghost), Err(SimError::UnknownBlock { .. })));
        assert!(m.block_as::<Gain>(ghost).is_none());
    }

    #[test]
    fn connect_validates_ports() {
        let mut m = Model::new();
        let s = m.add_block("s", Src);
        let g = m.add_block("g", Gain(1.0));
        assert!(m.connect(s, 0, g, 0).is_ok());
        assert!(matches!(
            m.connect(s, 1, g, 0),
            Err(SimError::InvalidPort { kind: "output", .. })
        ));
        assert!(matches!(
            m.connect(s, 0, g, 1),
            Err(SimError::InvalidPort { kind: "input", .. })
        ));
    }

    #[test]
    fn double_driver_rejected() {
        let mut m = Model::new();
        let s1 = m.add_block("s1", Src);
        let s2 = m.add_block("s2", Src);
        let g = m.add_block("g", Gain(1.0));
        m.connect(s1, 0, g, 0).unwrap();
        assert!(matches!(
            m.connect(s2, 0, g, 0),
            Err(SimError::InputAlreadyDriven { .. })
        ));
    }

    #[test]
    fn event_connect_validates_ports() {
        let mut m = Model::new();
        let a = m.add_block("a", Evt);
        let b = m.add_block("b", Evt);
        assert!(m.connect_event(a, 0, b, 0).is_ok());
        assert!(m.connect_event(a, 1, b, 0).is_err());
        assert!(m.connect_event(a, 0, b, 1).is_err());
        // broadcast and merge are both fine
        assert!(m.connect_event(a, 0, b, 0).is_ok());
        assert!(m.connect_event(b, 0, a, 0).is_ok());
    }

    #[test]
    fn probe_registration() {
        let mut m = Model::new();
        let s = m.add_block("s", Src);
        assert!(m.probe("y", s, 0).is_ok());
        assert!(matches!(
            m.probe("y", s, 0),
            Err(SimError::InvalidModel { .. })
        ));
        assert!(matches!(
            m.probe("z", s, 3),
            Err(SimError::InvalidPort { .. })
        ));
    }

    #[test]
    fn block_id_display_and_index() {
        let id = BlockId::from_index(4);
        assert_eq!(id.index(), 4);
        assert_eq!(id.to_string(), "#4");
    }

    #[test]
    fn model_debug_summary() {
        let mut m = Model::new();
        m.add_block("s", Src);
        let dbg = format!("{m:?}");
        assert!(dbg.contains("blocks"));
    }
}
