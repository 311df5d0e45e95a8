//! Full experiment configuration.

use nps_control::{
    BudgetPolicy, FairShare, Fifo, HistoryWeighted, PriorityWeighted, ProportionalShare,
    RandomOrder,
};
use nps_models::ServerModel;
use nps_opt::VmcConfig;
use nps_sim::{BusConfig, FaultPlan, RedundancyConfig, SimConfig, Topology};
use nps_traces::UtilTrace;
use serde::{Deserialize, Serialize};

use crate::arch::{ControllerMask, CoordinationMode};
use crate::budgets::BudgetSpec;
use crate::intervals::Intervals;

/// Which budget-division policy the EM/GM use (paper §5.4's policy
/// study). Constructs fresh [`BudgetPolicy`] instances per capper so
/// stateful policies don't share state across levels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum PolicyKind {
    /// The paper's base proportional-share policy.
    Proportional,
    /// Equal split.
    Fair,
    /// First-come-first-served by child id.
    Fifo,
    /// Shuffled FIFO with the given seed.
    Random(u64),
    /// Weighted by a repeating 1/2/3 priority pattern.
    Priority,
    /// EWMA-smoothed proportional share with the given alpha.
    History(f64),
}

impl PolicyKind {
    /// All six policies with default parameters (paper §5.4 sweep).
    pub const ALL: [PolicyKind; 6] = [
        PolicyKind::Proportional,
        PolicyKind::Fair,
        PolicyKind::Fifo,
        PolicyKind::Random(42),
        PolicyKind::Priority,
        PolicyKind::History(0.3),
    ];

    /// Instantiates the policy for a capper with `n` children.
    pub fn make(&self, n: usize) -> Box<dyn BudgetPolicy> {
        match *self {
            PolicyKind::Proportional => Box::new(ProportionalShare),
            PolicyKind::Fair => Box::new(FairShare),
            PolicyKind::Fifo => Box::new(Fifo),
            PolicyKind::Random(seed) => Box::new(RandomOrder::new(seed)),
            PolicyKind::Priority => Box::new(PriorityWeighted::new(
                (0..n).map(|i| 1.0 + (i % 3) as f64).collect(),
            )),
            PolicyKind::History(alpha) => Box::new(HistoryWeighted::new(alpha)),
        }
    }

    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Proportional => "proportional",
            PolicyKind::Fair => "fair",
            PolicyKind::Fifo => "fifo",
            PolicyKind::Random(_) => "random",
            PolicyKind::Priority => "priority",
            PolicyKind::History(_) => "history",
        }
    }
}

/// Everything needed to run one experiment (one bar/row of a paper
/// figure). Build via [`crate::Scenario`] for the paper's standard
/// configurations. Fully serializable, so configurations can be
/// archived or shipped alongside results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentConfig {
    /// Human-readable label for reports.
    pub label: String,
    /// Server model for a homogeneous fleet (per-server overrides via
    /// [`ExperimentConfig::models_override`]).
    pub model: ServerModel,
    /// Optional heterogeneous fleet: one model per server.
    pub models_override: Option<Vec<ServerModel>>,
    /// Physical topology.
    pub topology: Topology,
    /// One utilization trace per workload/VM.
    pub traces: Vec<UtilTrace>,
    /// Static budget derating at the three levels.
    pub budgets: BudgetSpec,
    /// Controller time constants.
    pub intervals: Intervals,
    /// EC gain scaling parameter λ (paper base 0.8).
    pub lambda: f64,
    /// SM gain `β_loc` (paper base 1.0, on normalized power).
    pub beta: f64,
    /// VMC configuration (headroom, overheads, buffers). The
    /// coordination-mode flags override `use_budget_constraints` /
    /// `use_feedback` and the utilization source.
    pub vmc: VmcConfig,
    /// Simulator configuration (overheads, migration window, thermal).
    pub sim: SimConfig,
    /// How the controllers interact.
    pub mode: CoordinationMode,
    /// Which controllers are deployed.
    pub mask: ControllerMask,
    /// Budget-division policy for EM/GM.
    pub policy: PolicyKind,
    /// Simulation length in ticks.
    pub horizon: u64,
    /// Worker threads for the sharded phases of each tick (`1` = one
    /// whole-fleet shard, run inline without a pool). Results are
    /// bit-identical at every value, so this is purely a throughput
    /// knob; it never appears in labels or checkpoints.
    pub threads: usize,
    /// Optional per-server electrical cap as a fraction of max power
    /// (enables the CAP hard clamp).
    pub electrical_cap_frac: Option<f64>,
    /// Fault-injection plan ([`FaultPlan::disabled`] for clean runs).
    pub faults: FaultPlan,
    /// Control-plane bus configuration (delivery delay/faults, retries,
    /// leases). The default is a zero-delay, zero-fault passthrough that
    /// reproduces direct grant writes bit-exactly.
    pub bus: BusConfig,
    /// Warm-standby controller redundancy (GM/EM replicas, heartbeat
    /// failure detector). Disabled by default.
    pub redundancy: RedundancyConfig,
    /// Whether the runner checks the paper's safety invariants every
    /// tick (the `nps-metrics::invariants` catalog). Monitoring only;
    /// violations are reported, never corrected.
    pub invariants: bool,
}

impl ExperimentConfig {
    /// The effective per-server models (homogeneous replication unless
    /// overridden).
    pub fn server_models(&self) -> Vec<ServerModel> {
        match &self.models_override {
            Some(models) => models.clone(),
            None => vec![self.model.clone(); self.topology.num_servers()],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_kinds_instantiate() {
        for kind in PolicyKind::ALL {
            let mut p = kind.make(4);
            let caps = p.divide(100.0, &[10.0; 4], &[50.0; 4]);
            assert_eq!(caps.len(), 4, "{}", kind.name());
        }
    }

    #[test]
    fn experiment_config_roundtrips_through_json() {
        use crate::{CoordinationMode, Scenario, SystemKind};
        let cfg = Scenario::paper(
            SystemKind::ServerB,
            nps_traces::Mix::L60,
            CoordinationMode::CoordNoFeedback,
        )
        .horizon(50)
        .build();
        let json = serde_json::to_string(&cfg).unwrap();
        let back: ExperimentConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }

    #[test]
    fn deserialized_config_rejects_invalid_trace_samples() {
        use crate::{CoordinationMode, Scenario, SystemKind};
        let cfg = Scenario::paper(
            SystemKind::ServerB,
            nps_traces::Mix::L60,
            CoordinationMode::Coordinated,
        )
        .horizon(50)
        .build();
        let json = serde_json::to_string(&cfg).unwrap();
        let traces = json.find("\"traces\":[").unwrap();
        let first = traces + json[traces..].find("\"samples\":[").unwrap() + "\"samples\":[".len();
        let end = first + json[first..].find(',').unwrap();
        for bad in ["null", "1.5", "-0.25"] {
            let tampered = format!("{}{bad}{}", &json[..first], &json[end..]);
            let err = serde_json::from_str::<ExperimentConfig>(&tampered).unwrap_err();
            assert!(err.to_string().contains("sample 0 ="), "{bad}: {err}");
        }
    }

    #[test]
    fn policy_names_are_distinct() {
        let mut names: Vec<&str> = PolicyKind::ALL.iter().map(|p| p.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 6);
    }
}
