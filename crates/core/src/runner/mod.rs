//! The experiment runner: wires the five controllers over the simulator
//! according to the coordination mode, executes the horizon, and collects
//! the paper's metrics.
//!
//! Each controller layer is one struct that owns its state, its
//! checkpoint `fits` check and its epoch bodies; [`Runner::tick`] calls
//! them in the paper's order. The layers share one [`Env`]: the
//! simulator, the fault model, the shard layout and the run's counters.
//!
//! - `ecsm`: per-server EC/SM bank, windows and epochs;
//! - `managers`: EM/GM cappers, windows, the EM epoch and the GM pass;
//! - `vmc`: VM windows, demands and the placement plan;
//! - `plane`: bus links, leases, standbys and the redundancy step;
//! - `safety`: the electrical clamp and the invariant monitor;
//! - `shard`: shard scratch, carved shard views and the ingest boundary;
//! - `checkpoint`: [`RunnerSnapshot`], save, load and restore.

mod checkpoint;
mod ecsm;
mod managers;
mod plane;
mod safety;
mod shard;
mod vmc;

pub use checkpoint::RunnerSnapshot;
pub use ecsm::{EcSmState, EcSmWindows};
pub use managers::{ManagerState, ManagerWindows};
pub use plane::{PlaneState, Replicas};
pub use safety::SafetyState;
pub use vmc::{VmcState, VmcWindows};

use nps_control::{CapperLevel, ControllerBank, GroupCapper};
use nps_metrics::{
    Comparison, ControllerKind, FaultStats, InvariantStats, LevelViolations, Recorder,
    RingRecorder, RunStats, TelemetryEvent, ViolationCounter,
};
use nps_models::{PState, ServerModel};
use nps_opt::Vmc;
use nps_sim::{
    reduce, EnclosureId, FaultInjector, FaultPlan, FloatWord, RedundancyStats, ReplicaState,
    ServerId, ShardEffects, SimConfig, Simulation, VmId, WorkerPool,
};
use std::ops::Range;
use std::sync::Arc;

use crate::arch::{ControllerMask, CoordinationMode};
use crate::config::ExperimentConfig;
use crate::CoreError;
use ecsm::EcSm;
use managers::Managers;
use plane::Plane;
use safety::Safety;
use shard::ShardScratch;
use vmc::VmcLayer;

/// The outcome of [`run_experiment`]: the run's metrics normalized
/// against its no-controller baseline.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ExperimentResult {
    /// The configuration's label.
    pub label: String,
    /// Baseline-normalized metrics (power savings, perf loss, violations).
    pub comparison: Comparison,
    /// The baseline's raw stats.
    pub baseline: RunStats,
}

/// Runs `cfg` and its baseline (same traces and fleet, no controllers),
/// returning normalized results.
pub fn run_experiment(cfg: &ExperimentConfig) -> ExperimentResult {
    let mut baseline_cfg = cfg.clone();
    baseline_cfg.mask = ControllerMask::NONE;
    baseline_cfg.label = format!("{} (baseline)", cfg.label);
    // The baseline is the normalization reference: it stays fault-free
    // even when the run under test injects faults.
    baseline_cfg.faults = FaultPlan::disabled();
    let baseline = Runner::new(&baseline_cfg).run_to_horizon();
    let run = Runner::new(cfg).run_to_horizon();
    ExperimentResult {
        label: cfg.label.clone(),
        comparison: Comparison::against_baseline(run, &baseline),
        baseline,
    }
}

/// One live experiment: the simulator plus controller instances and the
/// measurement windows connecting them.
///
/// For standard experiments use [`run_experiment`]; construct a `Runner`
/// directly to drive the system tick by tick (e.g. to sample temperature
/// or P-state trajectories in examples).
#[derive(Debug)]
pub struct Runner {
    label: String,
    intervals: crate::intervals::Intervals,
    horizon: u64,
    /// What every layer works on besides its own state.
    env: Env,
    // The controller layers, in the order `act` runs them.
    plane: Plane,
    ecsm: EcSm,
    mgr: Managers,
    vmc: VmcLayer,
    safety: Safety,
    // Run totals.
    violations: LevelViolations,
    power_trace: Option<nps_metrics::TimeSeries>,
    cum_latency_proxy: FloatWord,
    latency_samples: u64,
    /// Wall-clock nanoseconds spent inside VMC arbitration epochs.
    /// Timing diagnostic like the pool's `busy_nanos` — never part of a
    /// checkpoint.
    arb_ns: u64,
}

/// What every layer's epoch reads or writes besides its own state: the
/// simulated plant and its fault model, the static caps and enclosure
/// layout, the shard layout with its scratch, and the run's fault
/// counters and telemetry sink. A layer method takes `&mut Env` next to
/// `&mut self`, so each epoch borrows its own layer and nothing else.
#[derive(Debug)]
struct Env {
    mask: ControllerMask,
    mode: CoordinationMode,
    /// Ticks simulated so far: the tick `act` runs at.
    t: u64,
    sim: Simulation,
    /// The simulator's models, shared with it.
    models: Arc<[ServerModel]>,
    // Static caps.
    cap_loc: Vec<f64>,
    cap_enc: Vec<f64>,
    cap_grp: f64,
    /// Enclosure `e`'s members are the servers
    /// `enc_offsets[e]..enc_offsets[e + 1]`, and the standalone servers
    /// are the dense tail from `enc_offsets[num_enclosures]`
    /// (`Topology::validate` guarantees both).
    enc_offsets: Vec<usize>,
    // Fault injection and graceful degradation.
    injector: FaultInjector,
    fstats: FaultStats,
    /// Telemetry sink; `None` costs one discriminant test per event site.
    recorder: Option<Box<dyn Recorder>>,
    // Rack-sharded execution. Every controller epoch, the GM window pass,
    // the electrical clamp and the per-tick VM passes have one body that
    // runs per shard through `par::for_each_shard`: inline over a single
    // whole-fleet shard at one thread (`pool == None`), across the pool
    // otherwise. Results are bit-identical at every thread count, so
    // none of these fields is part of a checkpoint (resuming at a
    // different `--threads` is exact by construction).
    pool: Option<WorkerPool>,
    /// Server ranges of the shards: `0..n` alone at one thread, else the
    /// topology's size-weighted partition cut on enclosure boundaries.
    shards: Vec<Range<usize>>,
    /// Enclosures each shard owns ([`nps_sim::Topology::shard_enclosures`]):
    /// every member of an owned enclosure lies in the shard's servers, and
    /// an empty enclosure belongs to the shard at its member offset.
    shard_encs: Vec<Range<usize>>,
    /// Standalone-server ordinals each shard holds.
    shard_sa: Vec<Range<usize>>,
    /// Per-shard reusable buffers, drained by every epoch's reduction.
    scratch: Vec<ShardScratch>,
    /// Per-shard P-state conflict buffers, likewise reused.
    shard_effects: Vec<ShardEffects>,
}

impl Env {
    #[inline]
    fn recording(&self) -> bool {
        self.recorder.as_ref().is_some_and(|r| r.enabled())
    }

    #[inline]
    fn emit<F: FnOnce() -> TelemetryEvent>(&mut self, event: F) {
        if let Some(r) = &mut self.recorder {
            if r.enabled() {
                r.record(event());
            }
        }
    }

    /// Records buffered telemetry in order and empties the buffer.
    fn replay(&mut self, events: &mut Vec<TelemetryEvent>) {
        if events.is_empty() {
            return;
        }
        let events = events.drain(..);
        if let Some(r) = &mut self.recorder {
            events.for_each(|ev| r.record(ev));
        }
    }

    /// Reduces the shards' buffers in shard order after a sharded epoch:
    /// fault counters and P-state conflicts fold into the run, and `each`
    /// replays whatever else the epoch buffered (telemetry, grants).
    /// Ascending shards own ascending servers and enclosures, so the
    /// replay is the one-shard order exactly. Returns the shards' summed
    /// static-cap violation verdicts and leaves every buffer empty.
    fn reduce_shards(
        &mut self,
        mut each: impl FnMut(&mut Self, &mut ShardScratch),
    ) -> ViolationCounter {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut effects = std::mem::take(&mut self.shard_effects);
        let mut win = ViolationCounter::default();
        for (sc, eff) in scratch.iter_mut().zip(&mut effects) {
            self.fstats.merge(&sc.fstats);
            sc.fstats = FaultStats::default();
            win.merge(std::mem::take(&mut sc.win));
            self.sim.absorb_shard_effects(eff);
            each(self, sc);
        }
        self.scratch = scratch;
        self.shard_effects = effects;
        win
    }

    /// Writes a P-state unless the server's actuator is jammed; returns
    /// whether the write landed.
    fn write_pstate(&mut self, s: ServerId, p: PState, source: ControllerKind) -> bool {
        let t = self.t;
        if self.injector.pstate_write_blocked(s.index(), t) {
            self.fstats.actuator_blocked += 1;
            let server = s.index();
            self.emit(|| TelemetryEvent::ActuatorFault {
                tick: t,
                server,
                source,
            });
            return false;
        }
        self.sim.set_pstate(s, p);
        true
    }
}

impl Runner {
    /// Builds the runner (simulator + controllers) for a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is internally inconsistent (e.g. more
    /// workloads than the simulator accepts); scenario builders produce
    /// consistent configurations. Use [`Runner::try_new`] for
    /// hand-assembled configurations.
    pub fn new(cfg: &ExperimentConfig) -> Self {
        Self::try_new(cfg).expect("scenario configurations are consistent")
    }

    /// Builds the runner, surfacing configuration inconsistencies (sizes
    /// that disagree, invalid gains) as errors instead of panics.
    pub fn try_new(cfg: &ExperimentConfig) -> Result<Self, CoreError> {
        if cfg.lambda <= 0.0 || !cfg.lambda.is_finite() {
            return Err(CoreError::InvalidGain {
                name: "lambda",
                value: cfg.lambda,
            });
        }
        if cfg.beta <= 0.0 || !cfg.beta.is_finite() {
            return Err(CoreError::InvalidGain {
                name: "beta",
                value: cfg.beta,
            });
        }
        if let Some(models) = &cfg.models_override {
            if models.len() != cfg.topology.num_servers() {
                return Err(CoreError::ModelCountMismatch {
                    models: models.len(),
                    servers: cfg.topology.num_servers(),
                });
            }
        }
        let models: Arc<[ServerModel]> = cfg.server_models().into();
        let sim_cfg = SimConfig {
            alpha_v: cfg.vmc.alpha_v,
            ..cfg.sim
        };
        // The simulator validates the topology, so the enclosure layout
        // below can rely on its canonical form.
        let mut sim = Simulation::with_models_and_placement(
            cfg.topology.clone(),
            Arc::clone(&models),
            cfg.traces.clone(),
            nps_sim::Placement::one_per_server(cfg.traces.len(), cfg.topology.num_servers()),
            sim_cfg,
        )
        .map_err(CoreError::Sim)?;

        let n = cfg.topology.num_servers();
        let num_vms = cfg.traces.len();
        let num_enclosures = cfg.topology.num_enclosures();
        let mut enc_offsets = Vec::with_capacity(num_enclosures + 1);
        enc_offsets.push(0);
        for e in 0..num_enclosures {
            enc_offsets.push(enc_offsets[e] + cfg.topology.enclosure_servers(EnclosureId(e)).len());
        }
        let cap_loc: Vec<f64> = (0..n)
            .map(|i| (1.0 - cfg.budgets.local_off) * models[i].max_power())
            .collect();
        // Capacity sums run through the fixed-shape reduction tree like
        // every other fleet-indexed aggregate (one reduction story).
        let cap_enc: Vec<f64> = (0..num_enclosures)
            .map(|e| {
                let lo = enc_offsets[e];
                let sum =
                    reduce::tree_sum_by(enc_offsets[e + 1] - lo, |m| models[lo + m].max_power());
                (1.0 - cfg.budgets.enclosure_off) * sum
            })
            .collect();
        let cap_grp = (1.0 - cfg.budgets.group_off)
            * reduce::tree_sum_by(models.len(), |i| models[i].max_power());

        // One EC (starting at f_max, r_ref = 0.75) and one SM (static cap
        // CAP_LOC, unbounded grant) per server, banked into flat arrays
        // over the simulator's model table.
        let bank = ControllerBank::new(
            sim.model_table().clone(),
            cfg.lambda,
            cfg.beta,
            0.75,
            &cap_loc,
        );
        let ems: Vec<GroupCapper> = (0..num_enclosures)
            .map(|e| {
                let members = enc_offsets[e + 1] - enc_offsets[e];
                GroupCapper::new(CapperLevel::Enclosure, cap_enc[e], cfg.policy.make(members))
            })
            .collect();
        let gm_children = num_enclosures + (n - enc_offsets[num_enclosures]);
        let gm = GroupCapper::new(CapperLevel::Group, cap_grp, cfg.policy.make(gm_children));

        let mut vmc_cfg = cfg.vmc;
        vmc_cfg.use_budget_constraints =
            cfg.vmc.use_budget_constraints && cfg.mode.vmc_uses_budget_constraints();
        vmc_cfg.use_feedback = cfg.vmc.use_feedback && cfg.mode.vmc_uses_feedback();
        if !cfg.mask.ec {
            // Without ECs servers stay at P0; the power estimator must use
            // the P0 curve rather than an EC-settled operating point.
            vmc_cfg.assumed_r_ref = 0.01;
        }

        let safety = Safety::new(
            cfg.electrical_cap_frac,
            &models,
            &cap_loc,
            cfg.invariants,
            &mut sim,
        );
        let plane = Plane::new(&cfg.bus, &cfg.redundancy, &enc_offsets, n, &ems, &gm);

        // One whole-fleet shard at one thread. With more threads, a
        // size-weighted partition of up to 2 shards per thread (so the
        // pool's dynamic claiming can rebalance uneven racks), cut on
        // enclosure boundaries; a pool only pays off when there are at
        // least two shards to hand out.
        let threads = cfg.threads.max(1);
        let shards = cfg
            .topology
            .shard_ranges(if threads > 1 { threads * 2 } else { 1 });
        let pool = (threads > 1 && shards.len() >= 2).then(|| WorkerPool::new(threads));
        let shard_encs = cfg.topology.shard_enclosures(&shards);
        let flat = enc_offsets[num_enclosures];
        let shard_sa = shards
            .iter()
            .map(|r| (r.start.max(flat) - flat)..(r.end.max(flat) - flat))
            .collect();
        let vmc = VmcLayer::new(
            Vmc::new(vmc_cfg),
            num_vms,
            pool.is_some().then_some(shards.len()),
        );
        let scratch = shards.iter().map(|_| ShardScratch::default()).collect();
        let shard_effects = shards
            .iter()
            .map(|r| ShardEffects::with_capacity(r.len()))
            .collect();

        let injector = FaultInjector::new(&cfg.faults, n, num_enclosures, n - flat);
        let env = Env {
            mask: cfg.mask,
            mode: cfg.mode,
            t: 0,
            sim,
            models,
            cap_loc,
            cap_enc,
            cap_grp,
            enc_offsets,
            injector,
            fstats: FaultStats::default(),
            recorder: None,
            pool,
            shards,
            shard_encs,
            shard_sa,
            scratch,
            shard_effects,
        };
        let ecsm = EcSm::new(bank, &env.models);
        let mgr = Managers::new(ems, gm, &env, cfg.sim.enclosure_base_watts);

        Ok(Self {
            label: cfg.label.clone(),
            intervals: cfg.intervals.sanitized(),
            horizon: cfg.horizon,
            env,
            plane,
            ecsm,
            mgr,
            vmc,
            safety,
            violations: LevelViolations::new(),
            power_trace: None,
            cum_latency_proxy: FloatWord(0.0),
            latency_samples: 0,
            arb_ns: 0,
        })
    }

    /// Installs a telemetry [`Recorder`]; controller epochs emit
    /// [`TelemetryEvent`]s into it from now on.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.env.recorder = Some(recorder);
    }

    /// Installs a bounded [`RingRecorder`] keeping the most recent
    /// `capacity` events (per-type counters stay exact past the bound).
    pub fn enable_ring_telemetry(&mut self, capacity: usize) {
        self.env.recorder = Some(Box::new(RingRecorder::new(capacity)));
    }

    /// The installed ring recorder, if [`Runner::enable_ring_telemetry`]
    /// (or an explicit `RingRecorder`) is in place.
    pub fn ring_telemetry(&self) -> Option<&RingRecorder> {
        self.env
            .recorder
            .as_ref()
            .and_then(|r| r.as_any().downcast_ref())
    }

    /// Removes and returns the recorder, leaving telemetry disabled.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.env.recorder.take()
    }

    /// Fault and degradation counters accumulated so far (exact,
    /// independent of any recorder).
    pub fn fault_stats(&self) -> FaultStats {
        self.env.fstats
    }

    /// Redundancy-protocol counters accumulated so far (heartbeats,
    /// promotions, fencings, sync traffic). All-zero when no standby is
    /// configured.
    pub fn redundancy_stats(&self) -> RedundancyStats {
        self.plane.replicas.rstats
    }

    /// Safety-invariant monitor counters accumulated so far. All-zero
    /// checks when the monitor is off.
    pub fn invariant_stats(&self) -> InvariantStats {
        self.safety.istats
    }

    /// The GM's warm-standby replica, when one is configured.
    pub fn gm_replica(&self) -> Option<&ReplicaState> {
        self.plane.replicas.gm_replica.as_ref()
    }

    /// Enclosure `e`'s warm-standby replica, when EM standbys are
    /// configured.
    pub fn em_replica(&self, e: usize) -> Option<&ReplicaState> {
        self.plane.replicas.em_replicas.get(e)
    }

    /// Enables recording of the group-power trajectory into a bounded
    /// [`nps_metrics::TimeSeries`] of at most `max_points` points.
    pub fn enable_power_trace(&mut self, max_points: usize) {
        self.power_trace = Some(nps_metrics::TimeSeries::new("group_power_w", max_points));
    }

    /// The recorded group-power trajectory, if enabled.
    pub fn power_trace(&self) -> Option<&nps_metrics::TimeSeries> {
        self.power_trace.as_ref()
    }

    /// The underlying simulation (read-only).
    pub fn sim(&self) -> &Simulation {
        &self.env.sim
    }

    /// Ticks simulated so far.
    pub fn ticks_done(&self) -> u64 {
        self.env.t
    }

    /// Total wall-clock nanoseconds this run has spent inside pooled
    /// shard phases (simulator step, EC/SM/EM epochs, GM window pass,
    /// electrical clamp). Zero at one thread, where every shard phase
    /// runs inline without a pool. The complement
    /// against the run's total wall time is the sequential global phase
    /// the `scale` bench reports.
    pub fn parallel_nanos(&self) -> u64 {
        self.env.pool.as_ref().map_or(0, |p| p.busy_nanos())
    }

    /// Total shard steals the pool's workers have performed this run —
    /// how often an idle worker pulled a shard from a busy peer's deque.
    /// Zero at one thread (and for perfectly balanced fleets).
    pub fn steal_count(&self) -> u64 {
        self.env.pool.as_ref().map_or(0, |p| p.steal_count())
    }

    /// Total wall-clock nanoseconds this run has spent inside VMC
    /// arbitration epochs (demand estimation, placement planning, and
    /// plan application). Diagnostic only — never checkpointed; the
    /// `scale` bench reports it as `arbitration_phase_fraction`.
    pub fn arbitration_nanos(&self) -> u64 {
        self.arb_ns
    }

    /// The VMC's current buffers `(b_loc, b_enc, b_grp)`.
    pub fn vmc_buffers(&self) -> (f64, f64, f64) {
        self.vmc.buffers()
    }

    /// The `r_ref` currently targeted by server `s`'s EC.
    pub fn ec_r_ref(&self, s: ServerId) -> f64 {
        self.ecsm.bank.r_ref(s.index())
    }

    /// The budget server `s`'s SM enforces right now:
    /// `min(CAP_LOC, granted by EM/GM)`, watts.
    pub fn sm_effective_cap(&self, s: ServerId) -> f64 {
        self.ecsm.bank.effective_cap_watts(s.index())
    }

    /// The budget enclosure `e`'s EM enforces right now:
    /// `min(CAP_ENC, granted by GM)`, watts.
    pub fn em_effective_cap(&self, e: EnclosureId) -> f64 {
        self.mgr.ems[e.index()].effective_cap_watts()
    }

    /// The static caps `(CAP_LOC for s, CAP_GRP)` in watts.
    pub fn static_caps(&self, s: ServerId) -> (f64, f64) {
        (self.env.cap_loc[s.index()], self.env.cap_grp)
    }

    /// Advances the system by one tick: controllers act on the window
    /// ending now, then the simulator steps.
    pub fn tick(&mut self) {
        if self.env.t > 0 {
            self.act();
        }
        let env = &mut self.env;
        env.sim
            .step_sharded(env.pool.as_ref(), &env.shards, &env.shard_encs);
        if let Some(trace) = &mut self.power_trace {
            trace.push(env.t, env.sim.group_power());
        }
        self.accumulate_latency_proxy();
        self.vmc.accumulate_windows(&self.env);
        self.env.t += 1;
    }

    /// Per-tick latency-proxy accumulation: an M/M/1-style delay proxy
    /// `1/(1-util)` (capped at util 0.95 to keep saturated servers from
    /// dominating the mean) summed over powered-on servers. The sum runs
    /// through the fixed-shape reduction tree over *all* servers — an
    /// off server contributes an exact `(0.0, 0)` term, which leaves
    /// every partial's bits unchanged (all live terms are ≥ 1) while
    /// keeping the combine order a function of fleet size alone, so the
    /// one per-tick delta added to `cum_latency_proxy` is bit-identical
    /// at any thread count.
    fn accumulate_latency_proxy(&mut self) {
        let n = self.env.models.len();
        let sim = &self.env.sim;
        let term = |i: usize| -> (f64, u64) {
            let s = ServerId(i);
            if sim.is_on(s) {
                let util = sim.server_utilization(s).min(0.95);
                (1.0 / (1.0 - util), 1)
            } else {
                (0.0, 0)
            }
        };
        let combine = |a: (f64, u64), b: (f64, u64)| (a.0 + b.0, a.1 + b.1);
        let (delta, on) = reduce::tree_reduce(n, (0.0f64, 0u64), term, combine);
        *self.cum_latency_proxy += delta;
        self.latency_samples += on;
    }

    /// Runs to the configured horizon and returns the raw stats.
    pub fn run_to_horizon(&mut self) -> RunStats {
        while self.env.t < self.horizon {
            self.tick();
        }
        self.stats()
    }

    /// The raw stats so far.
    pub fn stats(&self) -> RunStats {
        let sim = &self.env.sim;
        // One fixed-shape tree over (delivered, demanded) pairs — a
        // struct reduction, combined component-wise.
        let (delivered, demanded) = reduce::tree_reduce(
            sim.num_vms(),
            (0.0f64, 0.0f64),
            |j| {
                (
                    sim.cumulative_delivered(VmId(j)),
                    sim.cumulative_demand(VmId(j)),
                )
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        RunStats {
            energy: sim.total_energy(),
            delivered_work: delivered,
            demanded_work: demanded,
            violations: self.violations,
            pstate_conflicts: sim.pstate_conflicts(),
            migrations: sim.migrations_started(),
            failovers: sim.failover_events(),
            mean_latency_proxy: if self.latency_samples == 0 {
                1.0
            } else {
                *self.cum_latency_proxy / self.latency_samples as f64
            },
            ticks: self.env.t,
        }
    }

    /// The per-tick control schedule: deferred bus traffic, lease expiry
    /// and the failure detector first, then the EC, SM, EM, GM and VMC
    /// epochs that fall due, the electrical clamp, and the invariant
    /// sweep over the settled tick.
    // `%` rather than `u64::is_multiple_of` keeps the crate building on
    // the pinned MSRV (1.75); intervals are sanitized nonzero.
    #[allow(clippy::manual_is_multiple_of)]
    fn act(&mut self) {
        let Self {
            env,
            plane,
            ecsm,
            mgr,
            vmc,
            safety,
            violations,
            ..
        } = self;
        let t = env.t;
        let iv = self.intervals;
        // Deferred bus traffic first: delayed grant copies and expired
        // retransmission timers from earlier ticks come due before any
        // controller epoch reads the caps they update.
        if !plane.bus.is_idle() {
            plane.drain_bus(env, &mut ecsm.bank, &mut mgr.ems);
        }
        // Lease expiry sweep: a granted cap whose lease has lapsed (its
        // grantor went silent — outage, lost refresh, exhausted retries)
        // reverts to the child's static cap. This replaces the
        // edge-triggered outage fallback uniformly when leases are on.
        if plane.lease_ticks > 0 {
            plane.expire_leases(env, &mut ecsm.bank, &mut mgr.ems);
        }
        // Failure detector for warm standbys: runs in the sequential
        // global phase before any controller epoch, so a promotion this
        // tick already serves this tick's epochs.
        if plane.redundancy.any_enabled() {
            plane.redundancy_step(env, &mut mgr.ems, &mut mgr.gm);
        }
        if env.mask.ec && t % iv.ec == 0 {
            ecsm.ec_epoch(env, iv.ec);
        }
        if t % iv.sm == 0 {
            let win = ecsm.sm_epoch(env, iv.sm);
            violations.server.merge(win);
            vmc.w.win_sm.merge(win);
        }
        if t % iv.em == 0 {
            let win = mgr.em_epoch(env, &mut ecsm.bank, plane, safety, iv.em);
            violations.enclosure.merge(win);
            vmc.w.win_em.merge(win);
        }
        if t % iv.gm == 0 {
            mgr.gm_window(env, iv.gm);
            let violated = mgr.gm_arbitrate(env, &mut ecsm.bank, plane, safety);
            violations.group.record(violated);
            vmc.w.win_gm.record(violated);
        }
        if env.mask.vmc && t % iv.vmc == 0 {
            // Wall-clock diagnostic only (never checkpointed): how much
            // of the run the VMC arbitration step costs, reported by the
            // `scale` bench as `arbitration_phase_fraction`.
            let t0 = std::time::Instant::now();
            vmc.epoch(env, ecsm, mgr, iv.vmc);
            self.arb_ns += t0.elapsed().as_nanos() as u64;
        }
        if safety.elec.is_some() {
            safety.elec_clamp(env);
        }
        // The safety sweep observes the fully settled tick: every
        // controller, the bus, and the electrical clamp have acted.
        if safety.on {
            safety.invariant_sweep(env, &ecsm.bank, &mgr.ems, plane.lease_ticks);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::{Scenario, SystemKind};
    use crate::CoordinationMode;
    use nps_traces::Mix;

    fn quick(mode: CoordinationMode) -> ExperimentResult {
        let cfg = Scenario::paper(SystemKind::BladeA, Mix::All180, mode)
            .horizon(1_200)
            .seed(7)
            .build();
        run_experiment(&cfg)
    }

    #[test]
    fn coordinated_run_saves_power_with_small_perf_loss() {
        let r = quick(CoordinationMode::Coordinated);
        assert!(
            r.comparison.power_savings_pct > 30.0,
            "savings {:.1}%",
            r.comparison.power_savings_pct
        );
        assert!(
            r.comparison.perf_loss_pct < 10.0,
            "perf loss {:.1}%",
            r.comparison.perf_loss_pct
        );
    }

    #[test]
    fn coordinated_never_races_on_the_actuator() {
        let r = quick(CoordinationMode::Coordinated);
        assert_eq!(
            r.comparison.run.pstate_conflicts, 0,
            "coordinated mode must not produce same-tick actuator races"
        );
    }

    #[test]
    fn uncoordinated_races_on_the_actuator() {
        let r = quick(CoordinationMode::Uncoordinated);
        assert!(
            r.comparison.run.pstate_conflicts > 0,
            "uncoordinated EC/SM must collide on the P-state register"
        );
    }

    #[test]
    fn pooled_shards_engage_and_match_one_shard() {
        let mut cfg = Scenario::multi_rack(
            SystemKind::BladeA,
            CoordinationMode::Coordinated,
            2,
            2,
            4,
            2,
        )
        .horizon(200)
        .seed(9)
        .build();
        let mut one = Runner::new(&cfg);
        let shards = &one.env.shards;
        assert!(one.env.pool.is_none() && shards.len() == 1 && shards[0] == (0..18));
        let a = one.run_to_horizon();
        cfg.threads = 4;
        let mut pooled = Runner::new(&cfg);
        assert!(
            pooled.env.pool.is_some() && pooled.env.shards.len() > 1,
            "threads=4 on a multi-rack fleet must shard over a worker pool"
        );
        let b = pooled.run_to_horizon();
        assert_eq!(a, b);
        assert_eq!(one.snapshot(), pooled.snapshot());
    }

    #[test]
    fn baseline_of_identical_config_is_deterministic() {
        let a = quick(CoordinationMode::Coordinated);
        let b = quick(CoordinationMode::Coordinated);
        assert_eq!(a.baseline, b.baseline);
        assert_eq!(a.comparison, b.comparison);
    }

    #[test]
    fn vmc_only_mask_still_consolidates() {
        let cfg = Scenario::paper(
            SystemKind::ServerB,
            Mix::All180,
            CoordinationMode::Coordinated,
        )
        .mask(ControllerMask::VMC_ONLY)
        .horizon(1_200)
        .seed(7)
        .build();
        let r = run_experiment(&cfg);
        assert!(r.comparison.run.migrations > 0);
        // Only ~2 VMC epochs fit in this short horizon; the full-horizon
        // numbers live in the fig8 bench.
        assert!(
            r.comparison.power_savings_pct > 10.0,
            "savings {:.1}%",
            r.comparison.power_savings_pct
        );
    }

    #[test]
    fn revival_starts_fresh_measurement_windows() {
        use crate::intervals::Intervals;
        use nps_metrics::EventKind;
        use nps_metrics::TelemetryEvent;

        // Regression: powering a server back on used to refresh only the
        // EC utilization snapshot; the SM and manager power snapshots kept
        // their pre-revival values. Use intervals where no SM/EM/GM epoch
        // coincides with the reviving VMC epoch, and nonzero off-power, so
        // a stale snapshot would fold the off period into the first
        // post-revival window.
        let mut cfg = Scenario::paper(
            SystemKind::ServerB,
            Mix::All180,
            CoordinationMode::Coordinated,
        )
        .mask(ControllerMask::VMC_ONLY)
        .horizon(3_000)
        .seed(7)
        .intervals(Intervals {
            ec: 1,
            sm: 7,
            em: 11,
            gm: 13,
            vmc: 10,
        })
        .build();
        cfg.sim.off_power_watts = 40.0;
        let mut runner = Runner::new(&cfg);
        runner.enable_ring_telemetry(1 << 20);
        let mut seen_power_on = 0;
        let mut checked = 0;
        while runner.ticks_done() < cfg.horizon {
            runner.tick();
            let ring = runner.ring_telemetry().unwrap();
            let now = ring.count(EventKind::PowerOn);
            if now == seen_power_on {
                continue;
            }
            seen_power_on = now;
            // act() ran at the tick before ticks_done was incremented.
            let t = runner.ticks_done() - 1;
            let revived: Vec<usize> = ring
                .events()
                .filter_map(|e| match e {
                    TelemetryEvent::PowerOn { tick, server } if *tick == t => Some(*server),
                    _ => None,
                })
                .collect();
            for s in revived {
                // The revival refreshed the snapshots to the act-time
                // cumulative power; exactly one sim step has run since, so
                // each snapshot trails the cumulative reading by exactly
                // the last tick's power.
                let cum = runner.sim().cumulative_power(ServerId(s));
                let last = runner.sim().server_power(ServerId(s));
                for (name, snap) in [
                    ("sm", runner.ecsm.w.snap_power_sm[s]),
                    ("manager", runner.mgr.w.snap_power[s]),
                ] {
                    assert!(
                        (cum - snap - last).abs() < 1e-9,
                        "stale {name} snapshot for server {s} revived at t={t}: \
                         cum={cum} snap={snap} last={last}"
                    );
                }
                checked += 1;
            }
        }
        assert!(checked > 0, "scenario must revive at least one server");
    }

    #[test]
    fn no_controllers_changes_nothing() {
        let cfg = Scenario::paper(
            SystemKind::BladeA,
            Mix::All180,
            CoordinationMode::Coordinated,
        )
        .mask(ControllerMask::NONE)
        .horizon(600)
        .seed(7)
        .build();
        let r = run_experiment(&cfg);
        assert_eq!(r.comparison.power_savings_pct, 0.0);
        assert_eq!(r.comparison.perf_loss_pct, 0.0);
        assert_eq!(r.comparison.run.migrations, 0);
    }
    #[test]
    fn vm_window_sums_the_utilization_the_mode_reads() {
        for mode in [
            CoordinationMode::Coordinated,
            CoordinationMode::Uncoordinated,
            CoordinationMode::CoordApparentUtil,
        ] {
            let cfg = Scenario::paper(SystemKind::BladeA, Mix::M60, mode)
                .horizon(300)
                .seed(3)
                .build();
            let mut runner = Runner::new(&cfg);
            let vms = runner.sim().num_vms();
            let (mut real, mut apparent) = (vec![0.0f64; vms], vec![0.0f64; vms]);
            for _ in 0..300 {
                runner.tick();
                for j in 0..vms {
                    real[j] += runner.sim().real_vm_utilization(VmId(j));
                    apparent[j] += runner.sim().apparent_vm_utilization(VmId(j));
                }
            }
            let (want, other) = if mode.vmc_uses_real_util() {
                (&real, &apparent)
            } else {
                (&apparent, &real)
            };
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&runner.vmc.w.cum_vm_util), bits(want), "{mode:?}");
            assert_ne!(bits(want), bits(other), "{mode:?}: the signals coincide");
        }
    }
}

#[cfg(test)]
mod try_new_tests {
    use super::*;
    use crate::scenarios::{Scenario, SystemKind};
    use crate::{CoordinationMode, CoreError};
    use nps_sim::EnclosureId;
    use nps_traces::Mix;

    #[test]
    fn try_new_rejects_bad_gains() {
        let mut cfg = Scenario::paper(SystemKind::BladeA, Mix::L60, CoordinationMode::Coordinated)
            .horizon(10)
            .build();
        cfg.lambda = 0.0;
        assert!(matches!(
            Runner::try_new(&cfg),
            Err(CoreError::InvalidGain { name: "lambda", .. })
        ));
        cfg.lambda = 0.8;
        cfg.beta = f64::NAN;
        assert!(matches!(
            Runner::try_new(&cfg),
            Err(CoreError::InvalidGain { name: "beta", .. })
        ));
    }

    #[test]
    fn try_new_rejects_missized_model_override() {
        let mut cfg = Scenario::paper(SystemKind::BladeA, Mix::L60, CoordinationMode::Coordinated)
            .horizon(10)
            .build();
        cfg.models_override = Some(vec![cfg.model.clone(); 3]);
        assert!(matches!(
            Runner::try_new(&cfg),
            Err(CoreError::ModelCountMismatch { models: 3, .. })
        ));
    }

    #[test]
    fn try_new_rejects_empty_traces_via_sim() {
        let mut cfg = Scenario::paper(SystemKind::BladeA, Mix::L60, CoordinationMode::Coordinated)
            .horizon(10)
            .build();
        cfg.traces.clear();
        assert!(matches!(Runner::try_new(&cfg), Err(CoreError::Sim(_))));
    }

    #[test]
    fn effective_caps_are_observable_and_bounded() {
        let cfg = Scenario::paper(SystemKind::BladeA, Mix::M60, CoordinationMode::Coordinated)
            .horizon(300)
            .seed(3)
            .build();
        let mut runner = Runner::new(&cfg);
        runner.run_to_horizon();
        let (cap_loc, cap_grp) = runner.static_caps(ServerId(0));
        assert!(cap_loc > 0.0 && cap_grp > cap_loc);
        for i in 0..runner.sim().topology().num_servers() {
            let eff = runner.sm_effective_cap(ServerId(i));
            assert!(eff <= cap_loc + 1e-9, "server {i}: {eff} > {cap_loc}");
            assert!(eff > 0.0);
        }
        for e in 0..runner.sim().topology().num_enclosures() {
            let eff = runner.em_effective_cap(EnclosureId(e));
            assert!(eff > 0.0);
        }
    }
}
