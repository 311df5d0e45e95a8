//! Trace-driven data-center simulator.
//!
//! This crate is the evaluation substrate of the ASPLOS'08 paper (§4.2):
//! a *"utilization-based large-scale simulation"* in which real(istic)
//! per-server utilization traces drive high-level power/performance models
//! — the approach of Ranganathan & Leech (CAECW'07) — instead of
//! full-system simulation.
//!
//! The simulator models:
//!
//! * a [`Topology`] of blade **enclosures** and **standalone servers**
//!   forming one **group** (rack/data center) — the paper's `M` matrix;
//! * **virtual machines** whose per-tick CPU demand comes from
//!   [`nps_traces::UtilTrace`]s, placed on servers via a [`Placement`]
//!   (the paper's `X` matrix), with a virtualization overhead `α_V`;
//! * **P-state actuation** with last-writer-wins races (the "power
//!   struggle" of uncoordinated controllers) and server on/off;
//! * **live migration** with an `α_M` performance penalty window;
//! * per-level **power sensors** (server, enclosure, group) with
//!   cumulative accumulators for windowed averaging;
//! * an **RC thermal model** per server that reproduces thermal failover
//!   under sustained power-budget violation (paper §5.1's prototype
//!   observation).
//!
//! The engine is controller-agnostic: controllers (in `nps-control` /
//! `nps-opt`) read sensors and write actuators between calls to
//! [`Simulation::step`]; the orchestration lives in `nps-core`.
//!
//! ```
//! use nps_models::ServerModel;
//! use nps_sim::{SimConfig, Simulation, Topology};
//! use nps_traces::UtilTrace;
//!
//! let topo = Topology::builder().standalone(4).build();
//! let traces = vec![UtilTrace::constant("w", 0.3, 100).unwrap(); 4];
//! let mut sim = Simulation::new(topo, ServerModel::blade_a(), traces,
//!                               SimConfig::default()).unwrap();
//! sim.step();
//! assert!(sim.group_power() > 0.0);
//! ```

// `deny` rather than `forbid`: the `par` module opts back in for one
// documented lifetime erasure; everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod bus;
mod config;
pub mod cooling;
mod engine;
mod error;
mod events;
mod faults;
mod ids;
pub mod par;
mod placement;
pub mod reduce;
mod redundancy;
mod thermal;
mod topology;
mod words;

pub use bus::{BusConfig, BusEvent, BusSnapshot, ControlBus, GrantMsg, LinkId, RetryConfig};
pub use config::SimConfig;
pub use engine::{
    ActuatorCarve, ActuatorShard, ShardEffects, SimEpochView, SimSnapshot, SimState, Simulation,
    VmObservation, VmView,
};
pub use error::SimError;
pub use events::{Event, EventLog, EventLogError, EventLogSnapshot, LoggedEvent};
pub use faults::{
    ActuatorDrawCarve, ActuatorDrawShard, ActuatorFaultSpec, ControllerLayer, FaultInjector,
    FaultPlan, InjectorSnapshot, OutageWindow, Outages, Reading, SensorCarve, SensorChannel,
    SensorDrawShard, SensorFaultSpec,
};
pub use ids::{EnclosureId, RackId, ServerId, VmId};
pub use par::WorkerPool;
pub use placement::{Migration, Placement};
pub use reduce::{tree_max, tree_max_by, tree_reduce, tree_reduce_pool, tree_sum, tree_sum_by};
pub use redundancy::{InFlightSync, RedundancyConfig, RedundancyStats, ReplicaState};
pub use thermal::{ThermalConfig, ThermalState};
pub use topology::{Topology, TopologyBuilder};
pub use words::{FloatBits, FloatWord, PStateHolds, PStates, VmIds};

/// Convenient result alias for simulator operations.
pub type Result<T> = std::result::Result<T, SimError>;
