//! Feedback controllers for multi-level data-center power management.
//!
//! Implements the five controller families of the ASPLOS'08 paper
//! (Figure 6), each as a *pure* control law over measurements — actuation
//! against the simulator and the coordination wiring live in `nps-core`:
//!
//! * [`EfficiencyController`] (EC) — per-server average-power *tracking*:
//!   an adaptive integral law that resizes capacity (P-states) so measured
//!   utilization tracks a target `r_ref`;
//! * [`ServerManager`] (SM) — per-server thermal power *capping*: in the
//!   coordinated design it actuates the EC's `r_ref` (never the P-state
//!   directly), in the uncoordinated design it forces P-states and races
//!   with the EC;
//! * [`ElectricalCapper`] (CAP) — the optional fuse-level capper that hard
//!   clamps P-states in parallel with the EC (no transient violations);
//! * [`GroupCapper`] — the shared machinery of the **enclosure manager**
//!   (EM) and **group manager** (GM): re-provisioning a level budget
//!   across children each epoch via a pluggable [`BudgetPolicy`];
//! * gain-bound helpers in [`stability`] implementing Appendix A
//!   (`0 < λ < 1/r_ref` for the EC, `0 < β_loc < 2/c_max` for the SM);
//! * the paper's §6 extensions: [`mimo`] (multi-component platform
//!   capping via a MIMO controller) and [`FrequencyArbiter`] (VM-level
//!   EC arbitration, the generalized `min` interface);
//! * the §7 cooling-domain extension: [`CracController`], a per-zone
//!   airflow controller built in the same mold as the EC/SM loops.
//!
//! The virtual machine controller (VMC) is the optimization problem of
//! Figure 6 and lives in `nps-opt`.
//!
//! ```
//! use nps_control::EfficiencyController;
//! use nps_models::ServerModel;
//!
//! let model = ServerModel::blade_a();
//! let mut ec = EfficiencyController::new(&model, 0.8, 0.75);
//! // Server stuck at 10% utilization: the EC walks the frequency down.
//! let mut p = ec.step(&model, 0.10);
//! for _ in 0..20 {
//!     p = ec.step(&model, 0.10);
//! }
//! assert_eq!(p, model.deepest());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod bank;
mod cap;
mod crac;
mod ec;
mod group;
pub mod mimo;
mod policy;
mod sm;
pub mod stability;

pub use arbiter::{ArbitrationPolicy, FrequencyArbiter};
pub use bank::{BankCarve, BankShard, BankSnapshot, ControllerBank};
pub use cap::ElectricalCapper;
pub use crac::CracController;
pub use ec::EfficiencyController;
pub use group::{CapperLevel, CapperSnapshot, GroupCapper};
pub use policy::{
    default_policies, BudgetPolicy, FairShare, Fifo, HistoryWeighted, PriorityWeighted,
    ProportionalShare, RandomOrder,
};
pub use sm::{ServerManager, SmDecision};
