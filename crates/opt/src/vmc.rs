//! The VMC controller: configuration, violation-feedback buffers, and the
//! planning entry point.

use serde::{Deserialize, Serialize};

use crate::context::ClusterContext;
use crate::estimate::PowerEstimator;
use crate::greedy::greedy_pack;
use crate::local_search::improve;
use crate::plan::VmcPlan;
use nps_models::ServerModel;

/// The optimization objective of the placement program — paper §6.1
/// extension (6): *"energy efficiency and energy-delay objective
/// functions (different tradeoffs between power and performance): at the
/// higher levels (e.g., VMC), this is a straightforward change to the
/// linear programming optimization problem."*
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub enum Objective {
    /// Minimize total power (the paper's base objective).
    #[default]
    Power,
    /// Minimize an energy–delay proxy: total power plus a quadratic
    /// load penalty, discouraging deep packing whose queueing delay
    /// would dominate. Trades some consolidation for latency headroom.
    EnergyDelay,
}

impl Objective {
    /// Extra score (pseudo-watts) for moving a server from `old_load` to
    /// `new_load` under this objective.
    pub(crate) fn load_penalty(self, model: &ServerModel, old_load: f64, new_load: f64) -> f64 {
        match self {
            Objective::Power => 0.0,
            Objective::EnergyDelay => {
                // Quadratic delay proxy scaled to the server's power range
                // so it is commensurate with the marginal-power term.
                0.75 * model.max_power() * (new_load * new_load - old_load * old_load)
            }
        }
    }
}

/// Which bin-packing rule the solver uses for each VM (paper §4.1:
/// *"Many algorithms are available to solve this 0-1 integer program. In
/// our evaluation, we use a greedy bin-packing algorithm"*). All variants
/// respect the same constraints; they differ in the placement choice
/// among feasible servers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
#[non_exhaustive]
pub enum PackingAlgorithm {
    /// Choose the feasible server with the lowest marginal estimated
    /// power plus migration cost (this crate's default, power-aware).
    #[default]
    MarginalPower,
    /// Classic first-fit-decreasing: the first feasible server by index.
    FirstFitDecreasing,
    /// Best-fit-decreasing: the feasible server left with the least
    /// remaining capacity headroom.
    BestFitDecreasing,
}

impl PackingAlgorithm {
    /// All variants, for ablation sweeps.
    pub const ALL: [PackingAlgorithm; 3] = [
        PackingAlgorithm::MarginalPower,
        PackingAlgorithm::FirstFitDecreasing,
        PackingAlgorithm::BestFitDecreasing,
    ];

    /// Short display name.
    pub fn name(self) -> &'static str {
        match self {
            PackingAlgorithm::MarginalPower => "marginal-power",
            PackingAlgorithm::FirstFitDecreasing => "first-fit",
            PackingAlgorithm::BestFitDecreasing => "best-fit",
        }
    }
}

/// Tunables of the virtual machine controller (paper Figure 5 base values
/// and §3.1 coordination features).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VmcConfig {
    /// Virtualization overhead `α_V` applied to every demand (base 10%).
    pub alpha_v: f64,
    /// Packing headroom `r̄`: the greatest fraction of a server's max
    /// capacity the VMC will fill, leaving room for workload variability.
    pub headroom: f64,
    /// Weight `α_M` of migration cost in the objective; converted to
    /// watts as `α_M · demand · max_power` per move.
    pub migration_weight: f64,
    /// Whether empty servers may be powered off (paper §5.4 studies
    /// disabling this).
    pub allow_turn_off: bool,
    /// Whether the budget constraints (3)–(5) are enforced
    /// (`false` = the paper's "no budget limits" ablation).
    pub use_budget_constraints: bool,
    /// Whether violation feedback widens the buffers
    /// (`false` = the paper's "no feedback" ablation).
    pub use_feedback: bool,
    /// Buffer increase per unit violation rate.
    pub buffer_gain: f64,
    /// Multiplicative buffer decay when a level reports no violations.
    pub buffer_decay: f64,
    /// Upper bound on each buffer.
    pub buffer_max: f64,
    /// Minimum buffer growth applied whenever an epoch reports *any*
    /// violations — the "aggressiveness of the feedback parameter" the
    /// paper's §5.4 time-constant study hinges on: a faster VMC reacts to
    /// more (smaller) violated epochs and accumulates wider buffers.
    /// Default 0 (pure rate-proportional growth); see EXPERIMENTS.md for
    /// the time-constant discussion.
    pub buffer_growth_floor: f64,
    /// Reference epoch length in ticks; buffer decay is expressed per
    /// reference epoch and rescaled for shorter/longer actual epochs.
    pub base_epoch_ticks: u64,
    /// Utilization the local ECs are assumed to settle at, for power
    /// estimation.
    pub assumed_r_ref: f64,
    /// Local-search improvement iterations after greedy packing
    /// (0 = paper's plain greedy).
    pub local_search_iters: usize,
    /// The optimization objective (paper §6 extension (6)).
    pub objective: Objective,
    /// The bin-packing rule (paper §4.1's "many algorithms" remark).
    pub algorithm: PackingAlgorithm,
}

impl Default for VmcConfig {
    fn default() -> Self {
        Self {
            alpha_v: 0.10,
            headroom: 0.85,
            migration_weight: 0.10,
            allow_turn_off: true,
            use_budget_constraints: true,
            use_feedback: true,
            buffer_gain: 0.25,
            buffer_decay: 0.7,
            buffer_max: 0.20,
            buffer_growth_floor: 0.0,
            base_epoch_ticks: 500,
            assumed_r_ref: 0.75,
            local_search_iters: 0,
            objective: Objective::Power,
            algorithm: PackingAlgorithm::MarginalPower,
        }
    }
}

/// The virtual machine controller. Holds the violation-feedback buffers
/// `b_loc / b_enc / b_grp` between epochs; each [`Vmc::plan`] call solves
/// one instance of the placement program.
///
/// ```
/// use nps_models::ServerModel;
/// use nps_opt::{ClusterContext, Vmc, VmcConfig};
/// use nps_sim::{Placement, Topology};
///
/// let topo = Topology::builder().standalone(4).build();
/// let model = ServerModel::server_b();
/// let models = vec![model.clone(); 4];
/// let current = Placement::one_per_server(4, 4);
/// let cap_loc = vec![0.9 * model.max_power(); 4];
/// let ctx = ClusterContext {
///     topo: &topo,
///     models: &models,
///     current: &current,
///     cap_loc: &cap_loc,
///     cap_enc: &[],
///     cap_grp: 4.0 * 0.8 * model.max_power(),
/// };
/// // Four light VMs consolidate onto fewer servers.
/// let plan = Vmc::new(VmcConfig::default()).plan(&[0.15; 4], &ctx);
/// assert!(plan.power_off.len() >= 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Vmc {
    cfg: VmcConfig,
    b_loc: f64,
    b_enc: f64,
    b_grp: f64,
}

impl Vmc {
    /// Initial local buffer: starting slightly conservative avoids a
    /// violation burst in the first consolidated epoch (the feedback loop
    /// then tunes it).
    const INITIAL_B_LOC: f64 = 0.05;

    /// Creates a VMC with near-zero initial buffers.
    pub fn new(cfg: VmcConfig) -> Self {
        Self {
            cfg,
            b_loc: if cfg.use_feedback {
                Self::INITIAL_B_LOC
            } else {
                0.0
            },
            b_enc: 0.0,
            b_grp: 0.0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &VmcConfig {
        &self.cfg
    }

    /// Current buffers `(b_loc, b_enc, b_grp)`.
    pub fn buffers(&self) -> (f64, f64, f64) {
        (self.b_loc, self.b_enc, self.b_grp)
    }

    /// Restores buffers read by [`Vmc::buffers`], for checkpointing.
    pub fn restore_buffers(&mut self, (b_loc, b_enc, b_grp): (f64, f64, f64)) {
        self.b_loc = b_loc;
        self.b_enc = b_enc;
        self.b_grp = b_grp;
    }

    /// Feeds back the budget-violation rates observed since the last
    /// epoch (fraction of capping intervals violated at each level, in
    /// `[0, 1]`). Violations widen the corresponding buffer — making the
    /// next consolidation more conservative; quiet levels decay back
    /// toward zero. No-op when feedback is disabled (ablation).
    pub fn report_violations(&mut self, loc_rate: f64, enc_rate: f64, grp_rate: f64) {
        let base = self.cfg.base_epoch_ticks;
        self.report_violations_windowed(loc_rate, enc_rate, grp_rate, base);
    }

    /// Like [`Vmc::report_violations`], but for an epoch of
    /// `window_ticks`. Growth applies per violated epoch (so a faster VMC
    /// reacts more aggressively — the paper's §5.4 observation), while
    /// decay is rescaled to be fair per unit *time*.
    pub fn report_violations_windowed(
        &mut self,
        loc_rate: f64,
        enc_rate: f64,
        grp_rate: f64,
        window_ticks: u64,
    ) {
        if !self.cfg.use_feedback {
            return;
        }
        let frac = window_ticks.max(1) as f64 / self.cfg.base_epoch_ticks.max(1) as f64;
        let decay = self.cfg.buffer_decay.powf(frac);
        let update = |b: &mut f64, rate: f64, cfg: &VmcConfig| {
            *b = if rate > 0.0 {
                let growth = (cfg.buffer_gain * rate.clamp(0.0, 1.0)).max(cfg.buffer_growth_floor);
                (*b + growth).min(cfg.buffer_max)
            } else {
                *b * decay
            };
        };
        update(&mut self.b_loc, loc_rate, &self.cfg);
        update(&mut self.b_enc, enc_rate, &self.cfg);
        update(&mut self.b_grp, grp_rate, &self.cfg);
    }

    /// Solves one placement round: `demands` are per-VM demand estimates
    /// in fractions of a full-speed server (real utilization in the
    /// coordinated architecture; apparent in the ablation).
    pub fn plan(&self, demands: &[f64], ctx: &ClusterContext<'_>) -> VmcPlan {
        ctx.validate();
        assert_eq!(
            demands.len(),
            ctx.current.num_vms(),
            "one demand estimate per VM required"
        );
        let estimator = PowerEstimator::new(self.cfg.assumed_r_ref);
        let mut plan = greedy_pack(demands, ctx, &estimator, &self.cfg, self.buffers());
        if self.cfg.local_search_iters > 0 {
            plan = improve(
                plan,
                demands,
                ctx,
                &estimator,
                &self.cfg,
                self.buffers(),
                self.cfg.local_search_iters,
            );
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_widen_on_violations_and_decay_when_quiet() {
        let mut vmc = Vmc::new(VmcConfig::default());
        // b_loc starts at the conservative seed 0.05; the others at 0.
        vmc.report_violations(0.2, 0.0, 0.4);
        let (l, e, g) = vmc.buffers();
        assert!((l - (0.05 + 0.25 * 0.2)).abs() < 1e-12);
        assert_eq!(e, 0.0);
        assert!((g - 0.25 * 0.4).abs() < 1e-12);
        vmc.report_violations(0.0, 0.0, 0.0);
        let (l2, _, g2) = vmc.buffers();
        assert!(l2 < l && g2 < g);
    }

    #[test]
    fn buffers_saturate_at_max() {
        let mut vmc = Vmc::new(VmcConfig::default());
        for _ in 0..20 {
            vmc.report_violations(1.0, 1.0, 1.0);
        }
        let (l, e, g) = vmc.buffers();
        assert_eq!((l, e, g), (0.20, 0.20, 0.20));
    }

    #[test]
    fn buffers_restore_exactly() {
        let mut vmc = Vmc::new(VmcConfig::default());
        vmc.report_violations(0.137, 0.004, 0.91);
        let mut fresh = Vmc::new(VmcConfig::default());
        fresh.restore_buffers(vmc.buffers());
        let bits = |(a, b, c): (f64, f64, f64)| [a.to_bits(), b.to_bits(), c.to_bits()];
        assert_eq!(bits(fresh.buffers()), bits(vmc.buffers()));
    }

    #[test]
    fn feedback_ablation_freezes_buffers() {
        let cfg = VmcConfig {
            use_feedback: false,
            ..VmcConfig::default()
        };
        let mut vmc = Vmc::new(cfg);
        vmc.report_violations(1.0, 1.0, 1.0);
        assert_eq!(vmc.buffers(), (0.0, 0.0, 0.0));
    }
}
