//! The coordinated multi-level power-management architecture — the
//! primary contribution of the ASPLOS'08 paper, assembled from the
//! substrate crates.
//!
//! Five controller families (EC, SM, EM, GM, VMC — see `nps-control` and
//! `nps-opt`) are wired over the trace-driven simulator (`nps-sim`)
//! according to a [`CoordinationMode`]:
//!
//! * [`CoordinationMode::Coordinated`] — the paper's architecture
//!   (Figure 2): the SM actuates the EC's `r_ref`, budgets flow down
//!   through `min` interfaces, the VMC uses real utilization with budget
//!   constraints and violation-feedback buffers;
//! * [`CoordinationMode::Uncoordinated`] — the state of the art the paper
//!   argues against (§2.3): all five solutions deployed independently,
//!   racing on the P-state actuator;
//! * the Figure-9 ablations (apparent utilization, no feedback, no budget
//!   limits, naïve min-P-state merging).
//!
//! [`run_experiment`] executes a configuration and its no-controller
//! baseline, returning the paper's metrics (power savings, performance
//! loss, per-level budget violations).
//!
//! ```no_run
//! use nps_core::{run_experiment, CoordinationMode, Scenario, SystemKind};
//! use nps_traces::Mix;
//!
//! let cfg = Scenario::paper(SystemKind::BladeA, Mix::All180,
//!                           CoordinationMode::Coordinated)
//!     .horizon(2_000)
//!     .build();
//! let result = run_experiment(&cfg);
//! println!("power savings: {:.1}%", result.comparison.power_savings_pct);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod budgets;
mod config;
mod error;
mod intervals;
mod runner;
mod scenarios;
mod sweep;

pub use arch::{ControllerMask, CoordinationMode};
pub use budgets::BudgetSpec;
pub use config::{ExperimentConfig, PolicyKind};
pub use error::CoreError;
pub use intervals::Intervals;
pub use runner::{
    run_experiment, EcSmState, EcSmWindows, ExperimentResult, ManagerState, ManagerWindows,
    PlaneState, Replicas, Runner, RunnerSnapshot, SafetyState, VmcState, VmcWindows,
};
pub use scenarios::{Scenario, SystemKind};
pub use sweep::{load_results, run_sweep, run_sweep_resumable, save_results, SweepError};
