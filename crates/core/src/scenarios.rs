//! Builders for the paper's experimental configurations.

use nps_models::ServerModel;
use nps_opt::VmcConfig;
use nps_sim::{BusConfig, FaultPlan, RedundancyConfig, SimConfig, Topology};
use nps_traces::{Corpus, EnterpriseProfile, Mix, UtilTrace};
use serde::{Deserialize, Serialize};

use crate::arch::{ControllerMask, CoordinationMode};
use crate::budgets::BudgetSpec;
use crate::config::{ExperimentConfig, PolicyKind};
use crate::intervals::Intervals;

/// Shortest trace a scenario generates: traces are `max(horizon, this)`
/// ticks long. It does not set the workloads' day length; every class
/// spec keeps its own 2000-tick diurnal period.
const MIN_TRACE_LEN: usize = 1_000;

/// The two reference systems of the paper's evaluation (§4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SystemKind {
    /// The low-power blade (wide power range, 5 P-states).
    BladeA,
    /// The entry-level 2U server (high idle power, 6 P-states).
    ServerB,
}

impl SystemKind {
    /// Both systems, in the paper's plotting order.
    pub const BOTH: [SystemKind; 2] = [SystemKind::BladeA, SystemKind::ServerB];

    /// The model for this system.
    pub fn model(self) -> ServerModel {
        match self {
            SystemKind::BladeA => ServerModel::blade_a(),
            SystemKind::ServerB => ServerModel::server_b(),
        }
    }

    /// The paper's name for this system.
    pub fn label(self) -> &'static str {
        match self {
            SystemKind::BladeA => "Blade A",
            SystemKind::ServerB => "Server B",
        }
    }
}

impl std::fmt::Display for SystemKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Fluent builder for paper-standard [`ExperimentConfig`]s.
///
/// Defaults follow Figure 5: budgets `20-15-10`, intervals 1/5/25/50/500,
/// `λ = 0.8`, `β = 1.0`, `α_V = α_M = 10%`, proportional-share policy,
/// all controllers on. The topology follows the mix: 180 workloads on the
/// 180-server cluster (6×20 blades + 60 standalone), 60 workloads on the
/// 60-server cluster (2×20 + 20).
#[derive(Debug, Clone)]
pub struct Scenario {
    system: SystemKind,
    mix: Mix,
    mode: CoordinationMode,
    budgets: BudgetSpec,
    intervals: Intervals,
    mask: ControllerMask,
    policy: PolicyKind,
    lambda: f64,
    beta: f64,
    vmc: VmcConfig,
    sim: SimConfig,
    horizon: u64,
    seed: u64,
    pstate_subset: Option<Vec<usize>>,
    electrical_cap_frac: Option<f64>,
    idle_scale: Option<f64>,
    heterogeneous: bool,
    faults: FaultPlan,
    bus: BusConfig,
    redundancy: RedundancyConfig,
    invariants: bool,
    label_suffix: String,
    /// Explicit topology (e.g. multi-rack); when set, one trace is
    /// generated per server instead of sizing by the mix.
    topology_override: Option<Topology>,
    /// Worker threads for the parallel per-rack phase (default 1).
    /// Deliberately excluded from the generated label: results are
    /// bit-identical at every thread count.
    threads: usize,
}

impl Scenario {
    /// Starts a paper-standard scenario.
    pub fn paper(system: SystemKind, mix: Mix, mode: CoordinationMode) -> Self {
        Self {
            system,
            mix,
            mode,
            budgets: BudgetSpec::PAPER_20_15_10,
            intervals: Intervals::default(),
            mask: ControllerMask::ALL,
            policy: PolicyKind::Proportional,
            lambda: 0.8,
            beta: 1.0,
            vmc: VmcConfig::default(),
            sim: SimConfig::default(),
            horizon: 4_000,
            seed: 42,
            pstate_subset: None,
            electrical_cap_frac: None,
            idle_scale: None,
            heterogeneous: false,
            faults: FaultPlan::disabled(),
            bus: BusConfig::default(),
            redundancy: RedundancyConfig::default(),
            invariants: false,
            label_suffix: String::new(),
            topology_override: None,
            threads: 1,
        }
    }

    /// A scaled-out data center: `racks` racks of `enclosures_per_rack`
    /// enclosures × `blades` blades, plus `standalone` individual
    /// servers, with one synthetic enterprise workload per server. The
    /// GM federates one EM per enclosure across every rack — the paper's
    /// architecture at data-center scale rather than single-group scale.
    pub fn multi_rack(
        system: SystemKind,
        mode: CoordinationMode,
        racks: usize,
        enclosures_per_rack: usize,
        blades: usize,
        standalone: usize,
    ) -> Self {
        let topo = Topology::multi_rack(racks, enclosures_per_rack, blades, standalone);
        Self::paper(system, Mix::All180, mode)
            .topology(topo)
            .label(format!(
                "scale {racks}r x {enclosures_per_rack}e x {blades}b + {standalone}"
            ))
    }

    /// Overrides the topology. Trace generation then produces one
    /// workload per server (cycling the enterprise site profiles) instead
    /// of sizing by the mix.
    pub fn topology(mut self, topology: Topology) -> Self {
        self.topology_override = Some(topology);
        self
    }

    /// Overrides the budget specification (Figure 10 sweep).
    pub fn budgets(mut self, budgets: BudgetSpec) -> Self {
        self.budgets = budgets;
        self
    }

    /// Overrides the controller intervals (§5.4 time-constant sweep).
    pub fn intervals(mut self, intervals: Intervals) -> Self {
        self.intervals = intervals;
        self
    }

    /// Overrides the controller mask (Figure 8's NoVMC / VMCOnly).
    pub fn mask(mut self, mask: ControllerMask) -> Self {
        self.mask = mask;
        self
    }

    /// Overrides the EM/GM budget-division policy (§5.4).
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Overrides the VMC configuration (migration weight, turn-off, …).
    pub fn vmc(mut self, vmc: VmcConfig) -> Self {
        self.vmc = vmc;
        self
    }

    /// Overrides the simulator configuration (α_M, migration window, …).
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Sets the simulation horizon in ticks.
    pub fn horizon(mut self, ticks: u64) -> Self {
        self.horizon = ticks.max(1);
        self
    }

    /// Sets the trace-generation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Restricts the server model to a subset of its P-states
    /// (§5.3's P-state count study). Indices must be valid for the
    /// system's model.
    pub fn pstate_subset(mut self, indices: Vec<usize>) -> Self {
        self.pstate_subset = Some(indices);
        self
    }

    /// Enables the per-server electrical capper at `frac · max_power`.
    pub fn electrical_cap(mut self, frac: f64) -> Self {
        self.electrical_cap_frac = Some(frac);
        self
    }

    /// Scales the model's idle power (the paper's "different idle power"
    /// sensitivity discussion).
    pub fn idle_scale(mut self, factor: f64) -> Self {
        self.idle_scale = Some(factor);
        self
    }

    /// Builds a *heterogeneous* fleet (paper §6 extension (5)): enclosure
    /// blades use Blade A, standalone servers use Server B — "easily
    /// addressed by including a range of different models in the
    /// controllers". P-state subsetting and idle scaling apply to both
    /// models.
    pub fn heterogeneous(mut self) -> Self {
        self.heterogeneous = true;
        self
    }

    /// Installs a fault-injection plan (sensor/actuator faults and
    /// controller outages; see [`FaultPlan`]).
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Configures the control-plane bus (delivery delay/faults, retries,
    /// leases; see [`BusConfig`]).
    pub fn bus(mut self, bus: BusConfig) -> Self {
        self.bus = bus;
        self
    }

    /// Configures warm-standby controller redundancy (GM/EM replicas
    /// and the heartbeat failure detector; see [`RedundancyConfig`]).
    pub fn redundancy(mut self, redundancy: RedundancyConfig) -> Self {
        self.redundancy = redundancy;
        self
    }

    /// Pairs the GM and every EM with a warm standby using the default
    /// detector timing — shorthand for
    /// `.redundancy(RedundancyConfig::all_standbys())`.
    pub fn standbys(mut self) -> Self {
        self.redundancy = RedundancyConfig::all_standbys();
        self
    }

    /// Enables the per-tick safety-invariant monitor
    /// (`nps-metrics::invariants`). Monitoring only, never corrective.
    pub fn invariants(mut self, on: bool) -> Self {
        self.invariants = on;
        self
    }

    /// Appends a suffix to the generated label.
    pub fn label(mut self, suffix: impl Into<String>) -> Self {
        self.label_suffix = suffix.into();
        self
    }

    /// Sets the worker-thread count for the parallel per-rack phase
    /// (`0` is treated as 1). Purely a throughput knob: the run's
    /// results are bit-identical at every value, so the label is
    /// unaffected.
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Materializes the configuration (generates the trace corpus, picks
    /// the topology, applies model transforms).
    pub fn build(self) -> ExperimentConfig {
        let mut model = self.system.model();
        if let Some(indices) = &self.pstate_subset {
            model = model
                .subset(indices)
                .expect("scenario P-state subset must be valid");
        }
        if let Some(factor) = self.idle_scale {
            model = model
                .with_idle_scale(factor)
                .expect("scenario idle scale must be valid");
        }
        let topology = match self.topology_override.clone() {
            Some(t) => t,
            None if self.mix.workload_count() >= 180 => Topology::paper_180(),
            None => Topology::paper_60(),
        };
        let models_override = if self.heterogeneous {
            let transform = |m: ServerModel| -> ServerModel {
                let mut m = m;
                if let Some(factor) = self.idle_scale {
                    m = m.with_idle_scale(factor).expect("valid idle scale");
                }
                m
            };
            let blade = transform(ServerModel::blade_a());
            let standalone = transform(ServerModel::server_b());
            Some(
                topology
                    .servers()
                    .map(|s| {
                        if topology.enclosure_of(s).is_some() {
                            blade.clone()
                        } else {
                            standalone.clone()
                        }
                    })
                    .collect(),
            )
        } else {
            None
        };
        // Generating at least the horizon keeps runs free of wrap
        // artifacts (traces wrap cyclically).
        let len = (self.horizon as usize).max(MIN_TRACE_LEN);
        let traces = if self.topology_override.is_some() {
            build_scale_traces(topology.num_servers(), len, self.seed)
        } else {
            build_mix_traces(self.mix, len, self.seed)
        };
        let label = format!(
            "{}{}/{} {} [{}]{}{}",
            if self.heterogeneous { "Hetero+" } else { "" },
            self.system.label(),
            self.mix.label(),
            self.mode.label(),
            self.budgets.label(),
            if self.label_suffix.is_empty() {
                ""
            } else {
                " "
            },
            self.label_suffix
        );
        ExperimentConfig {
            label,
            model,
            models_override,
            topology,
            traces,
            budgets: self.budgets,
            intervals: self.intervals,
            lambda: self.lambda,
            beta: self.beta,
            vmc: self.vmc,
            sim: self.sim,
            mode: self.mode,
            mask: self.mask,
            policy: self.policy,
            horizon: self.horizon,
            threads: self.threads,
            electrical_cap_frac: self.electrical_cap_frac,
            faults: self.faults,
            bus: self.bus,
            redundancy: self.redundancy,
            invariants: self.invariants,
        }
    }
}

/// Generates exactly `n` enterprise workloads of `len` ticks by cycling
/// the nine site profiles — the corpus for arbitrary-size (multi-rack)
/// topologies.
fn build_scale_traces(n: usize, len: usize, seed: u64) -> Vec<UtilTrace> {
    let profiles = EnterpriseProfile::default_sites();
    let per_site = n.div_ceil(profiles.len()).max(1);
    let mut traces = Corpus::from_profiles(&profiles, per_site, len, seed).into_traces();
    traces.truncate(n);
    traces
}

/// Generates the enterprise corpus at `len` ticks and selects a mix.
fn build_mix_traces(mix: Mix, len: usize, seed: u64) -> Vec<UtilTrace> {
    Corpus::enterprise(len, seed)
        .mix(mix)
        .expect("enterprise corpus supports all mixes")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_selects_matching_topology() {
        let cfg = Scenario::paper(
            SystemKind::BladeA,
            Mix::All180,
            CoordinationMode::Coordinated,
        )
        .horizon(100)
        .build();
        assert_eq!(cfg.topology.num_servers(), 180);
        assert_eq!(cfg.traces.len(), 180);
        let cfg60 = Scenario::paper(
            SystemKind::ServerB,
            Mix::Hh60,
            CoordinationMode::Coordinated,
        )
        .horizon(100)
        .build();
        assert_eq!(cfg60.topology.num_servers(), 60);
        assert_eq!(cfg60.traces.len(), 60);
    }

    #[test]
    fn label_mentions_system_mix_and_mode() {
        let cfg = Scenario::paper(
            SystemKind::ServerB,
            Mix::H60,
            CoordinationMode::Uncoordinated,
        )
        .horizon(100)
        .build();
        assert!(cfg.label.contains("Server B"));
        assert!(cfg.label.contains("60H"));
        assert!(cfg.label.contains("Uncoordinated"));
        assert!(cfg.label.contains("20-15-10"));
    }

    #[test]
    fn pstate_subset_flows_into_model() {
        let cfg = Scenario::paper(
            SystemKind::BladeA,
            Mix::All180,
            CoordinationMode::Coordinated,
        )
        .pstate_subset(vec![0, 4])
        .horizon(100)
        .build();
        assert_eq!(cfg.model.num_pstates(), 2);
    }

    #[test]
    fn same_seed_same_traces() {
        let a = Scenario::paper(
            SystemKind::BladeA,
            Mix::All180,
            CoordinationMode::Coordinated,
        )
        .horizon(200)
        .build();
        let b = Scenario::paper(
            SystemKind::BladeA,
            Mix::All180,
            CoordinationMode::Coordinated,
        )
        .horizon(200)
        .build();
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn multi_rack_sizes_traces_to_topology() {
        let cfg = Scenario::multi_rack(
            SystemKind::BladeA,
            CoordinationMode::Coordinated,
            4,
            2,
            16,
            32,
        )
        .horizon(100)
        .build();
        assert_eq!(cfg.topology.num_servers(), 4 * 2 * 16 + 32);
        assert_eq!(cfg.traces.len(), cfg.topology.num_servers());
        assert_eq!(cfg.topology.num_racks(), 4);
        assert_eq!(cfg.topology.num_enclosures(), 8);
        assert!(cfg.label.contains("scale 4r x 2e x 16b + 32"));
    }

    #[test]
    fn multi_rack_traces_are_deterministic() {
        let build = || {
            Scenario::multi_rack(
                SystemKind::ServerB,
                CoordinationMode::Coordinated,
                2,
                3,
                8,
                12,
            )
            .horizon(150)
            .seed(9)
            .build()
        };
        let (a, b) = (build(), build());
        assert_eq!(a.traces, b.traces);
    }

    #[test]
    fn topology_override_applies_to_paper_scenario() {
        let cfg = Scenario::paper(
            SystemKind::BladeA,
            Mix::All180,
            CoordinationMode::Coordinated,
        )
        .topology(Topology::builder().enclosures(3, 10).standalone(6).build())
        .horizon(100)
        .build();
        assert_eq!(cfg.topology.num_servers(), 36);
        assert_eq!(cfg.traces.len(), 36);
    }

    #[test]
    fn threads_knob_flows_into_config_but_not_label() {
        let build = |n: usize| {
            Scenario::paper(SystemKind::BladeA, Mix::L60, CoordinationMode::Coordinated)
                .horizon(50)
                .threads(n)
                .build()
        };
        let (one, four) = (build(1), build(4));
        assert_eq!(one.threads, 1);
        assert_eq!(four.threads, 4);
        // The knob must not leak into the label: results are identical,
        // so sweeps and checkpoints key on the same label at any count.
        assert_eq!(one.label, four.label);
        // Zero is sanitized to one thread.
        assert_eq!(build(0).threads, 1);
    }

    #[test]
    fn builders_chain() {
        let cfg = Scenario::paper(SystemKind::BladeA, Mix::L60, CoordinationMode::Coordinated)
            .budgets(BudgetSpec::PAPER_30_25_20)
            .policy(PolicyKind::Fair)
            .electrical_cap(0.95)
            .horizon(50)
            .label("custom")
            .build();
        assert_eq!(cfg.budgets, BudgetSpec::PAPER_30_25_20);
        assert!(matches!(cfg.policy, PolicyKind::Fair));
        assert_eq!(cfg.electrical_cap_frac, Some(0.95));
        assert!(cfg.label.ends_with("custom"));
    }
}
