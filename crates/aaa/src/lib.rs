//! AAA (Algorithm Architecture Adequation) substrate — a from-scratch
//! reimplementation of the SynDEx system-level CAD core that the DATE 2008
//! methodology paper builds on.
//!
//! SynDEx takes an **algorithm graph** (data-flow operations: sensors,
//! computations, actuators, with conditioning), an **architecture graph**
//! (heterogeneous processors connected by communication media), and a
//! **timing characterization** (WCET of each operation on each processor
//! kind, worst-case communication times per medium), and produces by the
//! *adequation* heuristic an off-line, non-preemptive **static schedule**:
//! a total order of computations per processor and communications per
//! medium, from which deadlock-free distributed executives are generated.
//!
//! This crate provides exactly those artifacts:
//!
//! * [`AlgorithmGraph`] — operations ([`OpKind::Sensor`],
//!   [`OpKind::Function`], [`OpKind::Actuator`]), typed data dependencies,
//!   and conditioning groups (the `if..then..else` of §3.2.2);
//! * [`ArchitectureGraph`] — processors plus broadcast buses and
//!   point-to-point links with latency + per-unit transfer cost;
//! * [`TimingDb`] — WCET table;
//! * [`adequation`](fn@adequation) — greedy list scheduling with the
//!   *schedule pressure* cost function (Grandpierre & Sorel), plus
//!   earliest-finish-time and seeded-random policies for ablation;
//! * [`Schedule`] — validated static schedule with makespan, utilization
//!   and I/O-instant analysis;
//! * [`DigestMemo`] — the content-addressed memo table every lifecycle
//!   cache is built on, and [`ScheduleCache`], that memo over adequation
//!   results keyed by [`schedule_digest`], for scenario sweeps that
//!   re-schedule identical (algorithm, architecture, WCET, policy) inputs
//!   (a [`ScheduleKey`] hashes the graphs once per sweep and its
//!   [`TableKey`] stage each WCET table once);
//! * [`codegen`] — per-processor synchronized executives with a
//!   deadlock-freedom check.
//!
//! # Examples
//!
//! ```
//! use ecl_aaa::{adequation, AdequationOptions, AlgorithmGraph, ArchitectureGraph, TimeNs, TimingDb};
//!
//! # fn main() -> Result<(), ecl_aaa::AaaError> {
//! let mut alg = AlgorithmGraph::new();
//! let s = alg.add_sensor("sample");
//! let f = alg.add_function("control");
//! let a = alg.add_actuator("actuate");
//! alg.add_edge(s, f, 1)?;
//! alg.add_edge(f, a, 1)?;
//!
//! let mut arch = ArchitectureGraph::new();
//! let p0 = arch.add_processor("ecu0", "arm");
//! let p1 = arch.add_processor("ecu1", "arm");
//! arch.add_bus("can", &[p0, p1], TimeNs::from_micros(100), TimeNs::from_micros(50))?;
//!
//! let mut db = TimingDb::new();
//! for op in alg.ops() {
//!     db.set_default(op, TimeNs::from_micros(200));
//! }
//! let schedule = adequation(&alg, &arch, &db, AdequationOptions::default())?;
//! schedule.validate(&alg, &arch)?;
//! assert!(schedule.makespan() >= TimeNs::from_micros(600));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod adequation;
mod algorithm;
pub mod analysis;
mod architecture;
mod cache;
pub mod codegen;
mod error;
mod schedule;
pub mod sdx;
pub mod timeline;
mod timing;

pub use adequation::{adequation, AdequationOptions, MappingPolicy};
pub use algorithm::{AlgorithmGraph, Condition, OpId, OpKind};
pub use architecture::{ArchitectureGraph, MediumId, MediumKind, ProcId};
pub use cache::{
    schedule_digest, BuildDigestHasher, DigestHasher, DigestMap, DigestMemo, DigestSet, Fnv1a,
    ScheduleCache, ScheduleKey, TableKey,
};
pub use error::AaaError;
pub use schedule::{Schedule, ScheduledComm, ScheduledOp};
pub use timing::TimingDb;

/// Re-export of the integer-nanosecond time type shared with `ecl-sim`,
/// so schedule instants flow into the simulator without conversion.
pub use ecl_sim::TimeNs;
