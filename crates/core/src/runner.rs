//! The experiment runner: wires the five controllers over the simulator
//! according to the coordination mode, executes the horizon, and collects
//! the paper's metrics.

use nps_control::{
    BankShard, BankSnapshot, CapperLevel, CapperSnapshot, ControllerBank, ElectricalCapper,
    GroupCapper,
};
use nps_metrics::{
    BudgetLevel, Comparison, ControllerKind, DegradationPolicy, FaultStats, InvariantKind,
    InvariantStats, LevelViolations, Recorder, RingRecorder, RunStats, SensorFaultKind,
    TelemetryEvent, ViolationCounter,
};
use nps_models::{PState, ServerModel};
use nps_opt::{ClusterContext, Vmc};
use nps_sim::par::{self, Carve};
use nps_sim::{
    reduce, ActuatorDrawShard, ActuatorShard, BusEvent, BusSnapshot, ControlBus, ControllerLayer,
    EnclosureId, FaultInjector, FaultPlan, GrantMsg, InjectorSnapshot, LinkId, OutageWindow,
    Reading, RedundancyConfig, RedundancyStats, ReplicaState, SensorChannel, SensorDrawShard,
    ServerId, ShardEffects, SimConfig, SimEpochView, SimSnapshot, Simulation, VmId, WorkerPool,
};
use std::ops::Range;

use crate::arch::ControllerMask;
use crate::config::ExperimentConfig;
use crate::CoreError;

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

/// Where a bus link terminates: the receiver that applies a delivered
/// grant.
#[derive(Debug, Clone, Copy)]
enum GrantTarget {
    /// A server's SM/bank slot (EM→member or GM→standalone grants).
    Server(usize),
    /// An enclosure manager (GM→EM grants).
    Enclosure(usize),
}

/// Static routing record for one registered bus link: how a delivery on
/// that link is applied and labelled in telemetry.
#[derive(Debug, Clone, Copy)]
struct LinkMeta {
    level: BudgetLevel,
    child: usize,
    target: GrantTarget,
}

/// Which warm-standby replica a state-sync bus link feeds.
#[derive(Debug, Clone, Copy)]
enum SyncPeer {
    /// The Group Manager's standby.
    Gm,
    /// Enclosure `e`'s EM standby.
    Em(usize),
}

/// One live experiment: the simulator plus controller instances and the
/// measurement windows connecting them.
///
/// For standard experiments use [`run_experiment`]; construct a `Runner`
/// directly to drive the system tick by tick (e.g. to sample temperature
/// or P-state trajectories in examples).
#[derive(Debug)]
pub struct Runner {
    // Configuration (flattened for the hot loop).
    label: String,
    mask: ControllerMask,
    mode: crate::arch::CoordinationMode,
    intervals: crate::intervals::Intervals,
    horizon: u64,
    // Substrate.
    sim: Simulation,
    models: Vec<ServerModel>,
    // Controllers. Per-server EC + SM state lives in a contiguous
    // structure-of-arrays bank rather than one object per server.
    bank: ControllerBank,
    ems: Vec<GroupCapper>,
    gm: GroupCapper,
    vmc: Vmc,
    elec: Option<Vec<ElectricalCapper>>,
    /// Standing SM P-state demands for the min-merge mode.
    sm_hold: Vec<Option<PState>>,
    // Static caps.
    cap_loc: Vec<f64>,
    /// Servers whose `cap_loc` is below their deepest P-state's
    /// full-load power, ascending. Fixed at construction.
    cap_floor_violators: Vec<usize>,
    cap_enc: Vec<f64>,
    cap_grp: f64,
    // Runner-owned CSR copy of the enclosure membership, so the EM/GM
    // epochs walk flat arrays instead of cloning topology lists.
    enc_offsets: Vec<usize>,
    enc_members: Vec<ServerId>,
    standalone_ids: Vec<ServerId>,
    // Reusable epoch scratch buffers (no per-epoch allocation).
    scratch_consumption: Vec<f64>,
    scratch_child_caps: Vec<f64>,
    scratch_alloc: Vec<f64>,
    scratch_demands: Vec<f64>,
    // Measurement-window snapshots (cumulative values at last epoch).
    snap_util_ec: Vec<f64>,
    snap_power_sm: Vec<f64>,
    snap_power_em: Vec<f64>,
    snap_power_gm: Vec<f64>,
    snap_encpow_em: Vec<f64>,
    snap_encpow_gm: Vec<f64>,
    // Per-VM VMC window of the utilization the mode sizes by (real, or
    // apparent for the Figure 9 ablation): cumulative sum, its value at
    // the last VMC epoch, and the peak since then.
    cum_vm_util: Vec<f64>,
    snap_vm_util: Vec<f64>,
    win_max_vm_util: Vec<f64>,
    // Fault injection and graceful degradation.
    injector: FaultInjector,
    fstats: FaultStats,
    /// Last good reading per channel, the hold-last-good fallback for
    /// dropped samples and non-finite values at the ingestion boundary.
    last_util_ec: Vec<f64>,
    last_power_sm: Vec<f64>,
    last_encpow_em: Vec<f64>,
    last_child_gm: Vec<f64>,
    /// Outage edge detection: local-cap fallback fires once per
    /// down-transition, not every skipped epoch.
    em_was_down: Vec<bool>,
    gm_was_down: bool,
    // Control-plane bus: every budget grant is a sequence-numbered,
    // lease-bearing message routed through this queue.
    bus: ControlBus,
    /// Grant-lease duration in ticks (0 = leases off; sanitized copy of
    /// the bus config so the hot path avoids re-reading it).
    lease_ticks: u64,
    /// Per-link routing metadata, indexed by `LinkId.0`.
    link_meta: Vec<LinkMeta>,
    /// Server index → link slot of the grant edge terminating at that
    /// server (enclosure members and standalone servers both have one).
    server_link: Vec<Option<usize>>,
    /// Enclosure index → link slot of the GM→EM grant edge.
    em_link: Vec<usize>,
    /// Reusable event buffer for bus sends and polls (empty between
    /// batches), so delivering a grant does not allocate.
    bus_events: Vec<BusEvent>,
    // Violation accounting.
    violations: LevelViolations,
    win_sm: ViolationCounter,
    win_em: ViolationCounter,
    win_gm: ViolationCounter,
    // Progress.
    ticks_done: u64,
    skipped_migrations: u64,
    power_trace: Option<nps_metrics::TimeSeries>,
    cum_latency_proxy: f64,
    latency_samples: u64,
    /// Wall-clock nanoseconds spent inside VMC arbitration epochs.
    /// Timing diagnostic like the pool's `busy_nanos` — never part of a
    /// checkpoint.
    arb_ns: u64,
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
    /// Standalone-server ordinals each shard holds (the standalone tail
    /// is dense after the enclosures, which `Topology::validate` checks).
    shard_sa: Vec<Range<usize>>,
    /// VM ranges of the per-tick VM passes: one range unless a pool runs
    /// at least `PAR_VM_THRESHOLD` VMs, then an even split per shard.
    vm_shards: Vec<Range<usize>>,
    /// Per-shard reusable buffers, drained by every epoch's reduction.
    scratch: Vec<ShardScratch>,
    /// Per-shard P-state conflict buffers, likewise reused.
    shard_effects: Vec<ShardEffects>,
    /// Static copy of the fault plan's outage windows, so shard bodies
    /// can evaluate `offline` without borrowing the injector (whose
    /// actuator-jam state is carved into the shards).
    outage_windows: Vec<OutageWindow>,
    // Controller redundancy: optional warm standbys for the GM and EMs.
    // The failure detector and every promotion/fencing decision run in
    // the sequential global phase, so redundancy never perturbs the
    // thread-count determinism contract.
    redundancy: RedundancyConfig,
    /// GM standby replica (None when not configured).
    gm_replica: Option<ReplicaState>,
    /// Per-enclosure EM standby replicas (empty when not configured).
    em_replicas: Vec<ReplicaState>,
    rstats: RedundancyStats,
    /// First bus slot of the state-sync links. Every slot below it is a
    /// grant link with a `link_meta` entry; sync links are registered
    /// after all grant links so grant slots (and their per-link fault
    /// streams) are identical with redundancy on or off.
    sync_base: usize,
    /// Sync-link routing: `slot - sync_base` → the replica it feeds.
    sync_peers: Vec<SyncPeer>,
    /// Enclosure → sync-link slot (empty without EM standbys).
    em_sync_link: Vec<usize>,
    /// GM sync-link slot (None without a GM standby).
    gm_sync_link: Option<usize>,
    // Runtime safety-invariant monitor (side-effect-free observer).
    invariants_on: bool,
    istats: InvariantStats,
    /// Hardened (post-ingestion) per-child window averages produced by
    /// the GM window pass: enclosures first, then standalone servers.
    scratch_child_raw: Vec<f64>,
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
        let models = cfg.server_models();
        let intervals = cfg.intervals.sanitized();
        let sim_cfg = SimConfig {
            alpha_v: cfg.vmc.alpha_v,
            ..cfg.sim
        };
        let sim = Simulation::with_models_and_placement(
            cfg.topology.clone(),
            models.clone(),
            cfg.traces.clone(),
            nps_sim::Placement::one_per_server(cfg.traces.len(), cfg.topology.num_servers()),
            sim_cfg,
        )
        .map_err(CoreError::Sim)?;

        let n = cfg.topology.num_servers();
        let num_vms = cfg.traces.len();
        let cap_loc: Vec<f64> = (0..n)
            .map(|i| (1.0 - cfg.budgets.local_off) * models[i].max_power())
            .collect();
        let cap_floor_violators: Vec<usize> = (0..n)
            .filter(|&i| cap_loc[i] < models[i].power(models[i].deepest().index(), 1.0) - 1e-9)
            .collect();
        // Capacity sums run through the fixed-shape reduction tree like
        // every other fleet-indexed aggregate (one reduction story).
        let cap_enc: Vec<f64> = (0..cfg.topology.num_enclosures())
            .map(|e| {
                let servers = cfg.topology.enclosure_servers(EnclosureId(e));
                let sum =
                    reduce::tree_sum_by(servers.len(), |m| models[servers[m].index()].max_power());
                (1.0 - cfg.budgets.enclosure_off) * sum
            })
            .collect();
        let cap_grp = (1.0 - cfg.budgets.group_off)
            * reduce::tree_sum_by(models.len(), |i| models[i].max_power());

        // One EC (starting at f_max, r_ref = 0.75) and one SM (static cap
        // CAP_LOC, unbounded grant) per server, banked into flat arrays.
        let bank = ControllerBank::new(
            nps_models::ModelTable::from_models(&models),
            cfg.lambda,
            cfg.beta,
            0.75,
            &cap_loc,
        );
        let num_enclosures = cfg.topology.num_enclosures();
        let mut enc_offsets = Vec::with_capacity(num_enclosures + 1);
        let mut enc_members = Vec::new();
        enc_offsets.push(0);
        for e in 0..num_enclosures {
            enc_members.extend_from_slice(cfg.topology.enclosure_servers(EnclosureId(e)));
            enc_offsets.push(enc_members.len());
        }
        let standalone_ids = cfg.topology.standalone_servers().to_vec();
        let ems: Vec<GroupCapper> = (0..cfg.topology.num_enclosures())
            .map(|e| {
                GroupCapper::new(
                    CapperLevel::Enclosure,
                    cap_enc[e],
                    cfg.policy
                        .make(cfg.topology.enclosure_servers(EnclosureId(e)).len()),
                )
            })
            .collect();
        let gm_children = cfg.topology.num_enclosures() + cfg.topology.standalone_servers().len();
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
        let vmc = Vmc::new(vmc_cfg);

        let elec: Option<Vec<ElectricalCapper>> = cfg.electrical_cap_frac.map(|frac| {
            (0..n)
                .map(|i| ElectricalCapper::new(&models[i], frac * models[i].max_power()))
                .collect()
        });
        let mut sim = sim;
        if let Some(elec) = &elec {
            // A fuse-level cap admits no violation at all — including the
            // very first tick before any controller has acted.
            for (i, capper) in elec.iter().enumerate() {
                let s = ServerId(i);
                sim.set_pstate(s, capper.clamp(sim.pstate(s)));
            }
        }

        // Control-plane bus: one link per grant edge, registered in a
        // fixed order (EM→member links per enclosure, then GM→EM links,
        // then GM→standalone links) so link ids are stable across runs
        // and checkpoints.
        let bus_cfg = cfg.bus.clone().sanitized();
        let mut bus = ControlBus::new(&bus_cfg);
        let mut link_meta: Vec<LinkMeta> = Vec::new();
        let mut server_link: Vec<Option<usize>> = vec![None; n];
        let mut em_link: Vec<usize> = Vec::with_capacity(num_enclosures);
        for e in 0..num_enclosures {
            for (k, &s) in enc_members[enc_offsets[e]..enc_offsets[e + 1]]
                .iter()
                .enumerate()
            {
                let link = bus.register_link();
                debug_assert_eq!(link.0, link_meta.len());
                link_meta.push(LinkMeta {
                    level: BudgetLevel::Enclosure,
                    child: k,
                    target: GrantTarget::Server(s.index()),
                });
                server_link[s.index()] = Some(link.0);
            }
        }
        for e in 0..num_enclosures {
            let link = bus.register_link();
            em_link.push(link.0);
            link_meta.push(LinkMeta {
                level: BudgetLevel::Group,
                child: e,
                target: GrantTarget::Enclosure(e),
            });
        }
        for (k, &s) in standalone_ids.iter().enumerate() {
            let link = bus.register_link();
            link_meta.push(LinkMeta {
                level: BudgetLevel::Group,
                child: num_enclosures + k,
                target: GrantTarget::Server(s.index()),
            });
            server_link[s.index()] = Some(link.0);
        }
        // Warm-standby state-sync links, registered after every grant
        // link: the grant slots (and the per-link loss streams keyed on
        // them) stay identical whether or not redundancy is configured.
        let redundancy = cfg.redundancy.sanitized();
        let sync_base = link_meta.len();
        let mut sync_peers: Vec<SyncPeer> = Vec::new();
        let mut em_sync_link: Vec<usize> = Vec::new();
        let mut gm_sync_link: Option<usize> = None;
        if redundancy.em_standby {
            for e in 0..num_enclosures {
                let link = bus.register_link();
                debug_assert_eq!(link.0, sync_base + sync_peers.len());
                em_sync_link.push(link.0);
                sync_peers.push(SyncPeer::Em(e));
            }
        }
        if redundancy.gm_standby {
            let link = bus.register_link();
            gm_sync_link = Some(link.0);
            sync_peers.push(SyncPeer::Gm);
        }
        // Both sides of a pair boot from the same configuration, so each
        // standby starts with an exact shadow of its primary.
        let em_replicas: Vec<ReplicaState> = if redundancy.em_standby {
            ems.iter()
                .map(|em| ReplicaState::new(encode_capper(&em.snapshot())))
                .collect()
        } else {
            Vec::new()
        };
        let gm_replica = redundancy
            .gm_standby
            .then(|| ReplicaState::new(encode_capper(&gm.snapshot())));

        // Seed the hold-last-good stores at each server's idle operating
        // point (P0, zero utilization) rather than 0.0: a sample dropped
        // before the first clean reading then degrades to a physically
        // plausible value instead of a phantom zero-watt observation.
        let last_power_sm: Vec<f64> = (0..n).map(|i| models[i].idle_power(0)).collect();
        let last_encpow_em: Vec<f64> = (0..num_enclosures)
            .map(|e| {
                let members = &enc_members[enc_offsets[e]..enc_offsets[e + 1]];
                reduce::tree_sum_by(members.len(), |m| models[members[m].index()].idle_power(0))
                    + cfg.sim.enclosure_base_watts
            })
            .collect();
        let mut last_child_gm: Vec<f64> = last_encpow_em.clone();
        last_child_gm.extend(
            standalone_ids
                .iter()
                .map(|&s| models[s.index()].idle_power(0)),
        );

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
        let flat = enc_members.len();
        let shard_sa = shards
            .iter()
            .map(|r| (r.start.max(flat) - flat)..(r.end.max(flat) - flat))
            .collect();
        let vm_parts = if pool.is_some() && num_vms >= PAR_VM_THRESHOLD {
            shards.len()
        } else {
            1
        };
        let vm_shards = vm_ranges(num_vms, vm_parts);
        let scratch = shards.iter().map(|_| ShardScratch::default()).collect();
        let shard_effects = shards
            .iter()
            .map(|r| ShardEffects::with_capacity(r.len()))
            .collect();

        let injector = FaultInjector::new(&cfg.faults, n, num_enclosures, standalone_ids.len());
        let outage_windows = injector.plan().outages.clone();

        Ok(Self {
            label: cfg.label.clone(),
            mask: cfg.mask,
            mode: cfg.mode,
            intervals,
            horizon: cfg.horizon,
            sim,
            bank,
            ems,
            gm,
            vmc,
            elec,
            sm_hold: vec![None; n],
            cap_loc,
            cap_floor_violators,
            cap_enc,
            cap_grp,
            enc_offsets,
            enc_members,
            standalone_ids,
            scratch_consumption: Vec::new(),
            scratch_child_caps: Vec::new(),
            scratch_alloc: Vec::new(),
            scratch_demands: Vec::new(),
            snap_util_ec: vec![0.0; n],
            snap_power_sm: vec![0.0; n],
            snap_power_em: vec![0.0; n],
            snap_power_gm: vec![0.0; n],
            snap_encpow_em: vec![0.0; cfg.topology.num_enclosures()],
            snap_encpow_gm: vec![0.0; cfg.topology.num_enclosures()],
            injector,
            fstats: FaultStats::default(),
            last_util_ec: vec![0.0; n],
            last_power_sm,
            last_encpow_em,
            last_child_gm,
            em_was_down: vec![false; cfg.topology.num_enclosures()],
            gm_was_down: false,
            lease_ticks: bus_cfg.lease_ticks,
            bus,
            link_meta,
            server_link,
            em_link,
            bus_events: Vec::new(),
            cum_vm_util: vec![0.0; num_vms],
            snap_vm_util: vec![0.0; num_vms],
            win_max_vm_util: vec![0.0; num_vms],
            violations: LevelViolations::new(),
            win_sm: ViolationCounter::new(),
            win_em: ViolationCounter::new(),
            win_gm: ViolationCounter::new(),
            ticks_done: 0,
            models,
            skipped_migrations: 0,
            power_trace: None,
            cum_latency_proxy: 0.0,
            latency_samples: 0,
            arb_ns: 0,
            recorder: None,
            pool,
            shards,
            shard_encs,
            shard_sa,
            vm_shards,
            scratch,
            shard_effects,
            outage_windows,
            redundancy,
            gm_replica,
            em_replicas,
            rstats: RedundancyStats::default(),
            sync_base,
            sync_peers,
            em_sync_link,
            gm_sync_link,
            invariants_on: cfg.invariants,
            istats: InvariantStats::default(),
            scratch_child_raw: Vec::new(),
        })
    }

    /// Installs a telemetry [`Recorder`]; controller epochs emit
    /// [`TelemetryEvent`]s into it from now on.
    pub fn set_recorder(&mut self, recorder: Box<dyn Recorder>) {
        self.recorder = Some(recorder);
    }

    /// Installs a bounded [`RingRecorder`] keeping the most recent
    /// `capacity` events (per-type counters stay exact past the bound).
    pub fn enable_ring_telemetry(&mut self, capacity: usize) {
        self.recorder = Some(Box::new(RingRecorder::new(capacity)));
    }

    /// The installed ring recorder, if [`Runner::enable_ring_telemetry`]
    /// (or an explicit `RingRecorder`) is in place.
    pub fn ring_telemetry(&self) -> Option<&RingRecorder> {
        self.recorder
            .as_ref()
            .and_then(|r| r.as_any().downcast_ref())
    }

    /// Removes and returns the recorder, leaving telemetry disabled.
    pub fn take_recorder(&mut self) -> Option<Box<dyn Recorder>> {
        self.recorder.take()
    }

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

    /// Fault and degradation counters accumulated so far (exact,
    /// independent of any recorder).
    pub fn fault_stats(&self) -> FaultStats {
        self.fstats
    }

    /// Redundancy-protocol counters accumulated so far (heartbeats,
    /// promotions, fencings, sync traffic). All-zero when no standby is
    /// configured.
    pub fn redundancy_stats(&self) -> RedundancyStats {
        self.rstats
    }

    /// Safety-invariant monitor counters accumulated so far. All-zero
    /// checks when the monitor is off.
    pub fn invariant_stats(&self) -> InvariantStats {
        self.istats
    }

    /// The GM's warm-standby replica, when one is configured.
    pub fn gm_replica(&self) -> Option<&ReplicaState> {
        self.gm_replica.as_ref()
    }

    /// Enclosure `e`'s warm-standby replica, when EM standbys are
    /// configured.
    pub fn em_replica(&self, e: usize) -> Option<&ReplicaState> {
        self.em_replicas.get(e)
    }

    /// Writes a P-state unless the server's actuator is jammed; returns
    /// whether the write landed.
    fn write_pstate(&mut self, s: ServerId, p: PState, source: ControllerKind) -> bool {
        let t = self.ticks_done;
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

    // ----- the control-plane bus ----------------------------------------

    /// The single entry point for every downstream budget grant (EM→
    /// member, GM→EM, GM→standalone — formerly four copy-pasted loss
    /// branches): draws the plan-level loss verdict from the link's own
    /// counter stream (position-independent, so every caller — epoch
    /// order, thread count, replay — sees the same verdict sequence),
    /// routes the grant through the bus as a sequence-numbered message,
    /// and applies what falls due at once, so passthrough delivery lands
    /// in-place in the telemetry stream.
    fn deliver_grant(&mut self, link_slot: usize, watts: f64) {
        let t = self.ticks_done;
        let plan_lost = self.injector.budget_message_lost(link_slot);
        let mut events = std::mem::take(&mut self.bus_events);
        let (_seq, enqueued) =
            self.bus
                .send_into(LinkId(link_slot), watts, t, plan_lost, &mut events);
        if !enqueued {
            // Lost outright — by the plan-level draw or the bus's own
            // drop model. The child holds its last granted budget (until
            // its lease, if any, lapses).
            let LinkMeta { level, child, .. } = self.link_meta[link_slot];
            self.fstats.messages_lost += 1;
            self.emit(|| TelemetryEvent::MessageLoss {
                tick: t,
                level,
                child,
            });
        }
        self.apply_bus_events(events);
    }

    /// Polls the bus for traffic deferred from earlier ticks and applies
    /// it.
    fn drain_bus(&mut self) {
        let mut events = std::mem::take(&mut self.bus_events);
        self.bus.poll_into(self.ticks_done, &mut events);
        self.apply_bus_events(events);
    }

    /// Applies one batch of bus events in order: fresh grants write the
    /// receiver's cap (and lease), duplicates and stale copies are
    /// rejected, retransmissions are counted. `events` is the runner's
    /// reusable buffer, taken out for the batch (applying an event needs
    /// `&mut self`) and handed back empty.
    fn apply_bus_events(&mut self, mut events: Vec<BusEvent>) {
        let t = self.ticks_done;
        for &event in &events {
            let slot = match &event {
                BusEvent::Delivered(m) | BusEvent::Duplicate(m) | BusEvent::Exhausted(m) => {
                    m.link.0
                }
                BusEvent::Stale { msg, .. } | BusEvent::Retry { msg, .. } => msg.link.0,
            };
            // State-sync traffic feeds the standby replicas, never a
            // grant target (sync links sit above every grant slot).
            if slot >= self.sync_base {
                self.apply_sync_event(slot, &event);
                continue;
            }
            match event {
                BusEvent::Delivered(msg) => self.apply_grant(msg),
                BusEvent::Duplicate(msg) => {
                    let LinkMeta { level, child, .. } = self.link_meta[msg.link.0];
                    self.fstats.duplicates_dropped += 1;
                    let seq = msg.seq;
                    self.emit(|| TelemetryEvent::DuplicateDropped {
                        tick: t,
                        level,
                        child,
                        seq,
                    });
                }
                BusEvent::Stale { msg, accepted } => {
                    let LinkMeta { level, child, .. } = self.link_meta[msg.link.0];
                    self.fstats.stale_rejected += 1;
                    let seq = msg.seq;
                    self.emit(|| TelemetryEvent::StaleRejected {
                        tick: t,
                        level,
                        child,
                        seq,
                        accepted,
                    });
                }
                BusEvent::Retry {
                    msg,
                    attempt,
                    dropped,
                } => {
                    let LinkMeta { level, child, .. } = self.link_meta[msg.link.0];
                    self.fstats.grant_retries += 1;
                    let seq = msg.seq;
                    self.emit(|| TelemetryEvent::GrantRetry {
                        tick: t,
                        level,
                        child,
                        seq,
                        attempt,
                    });
                    if dropped {
                        self.fstats.messages_lost += 1;
                        self.emit(|| TelemetryEvent::MessageLoss {
                            tick: t,
                            level,
                            child,
                        });
                    }
                }
                // Retries exhausted: the sender gives up. With leases on,
                // the receiver's lease lapses back to its static cap; no
                // extra action here.
                BusEvent::Exhausted(_) => {}
            }
        }
        events.clear();
        self.bus_events = events;
    }

    /// Applies one accepted grant to its receiver and emits the legacy
    /// `BudgetGrant` event.
    fn apply_grant(&mut self, msg: GrantMsg) {
        let t = self.ticks_done;
        let LinkMeta {
            level,
            child,
            target,
        } = self.link_meta[msg.link.0];
        let lease_until = if self.lease_ticks > 0 {
            t + self.lease_ticks
        } else {
            u64::MAX
        };
        match target {
            GrantTarget::Server(i) => self.bank.set_granted_cap_leased(i, msg.watts, lease_until),
            GrantTarget::Enclosure(e) => self.ems[e].set_granted_cap_leased(msg.watts, lease_until),
        }
        let watts = msg.watts;
        self.emit(|| TelemetryEvent::BudgetGrant {
            tick: t,
            level,
            child,
            watts,
        });
    }

    /// Reverts every lapsed lease to its static cap, with telemetry.
    fn expire_leases(&mut self) {
        let t = self.ticks_done;
        for i in 0..self.server_link.len() {
            if self.bank.expire_lease(i, t) {
                let slot = self.server_link[i].expect("leased server must have a grant link");
                let LinkMeta { level, child, .. } = self.link_meta[slot];
                let seq = self.bus.accepted_seq(LinkId(slot));
                self.fstats.leases_expired += 1;
                self.emit(|| TelemetryEvent::LeaseExpired {
                    tick: t,
                    level,
                    child,
                    seq,
                });
            }
        }
        for e in 0..self.ems.len() {
            if self.ems[e].expire_lease(t) {
                let slot = self.em_link[e];
                let LinkMeta { level, child, .. } = self.link_meta[slot];
                let seq = self.bus.accepted_seq(LinkId(slot));
                self.fstats.leases_expired += 1;
                self.emit(|| TelemetryEvent::LeaseExpired {
                    tick: t,
                    level,
                    child,
                    seq,
                });
            }
        }
    }

    // ----- controller redundancy ----------------------------------------

    /// Routes one bus event on a state-sync link to its replica. Sync
    /// payloads ride in [`ReplicaState::inflight`] keyed by the bus
    /// sequence number; the bus only decides delivery, duplication,
    /// staleness, retransmission, or exhaustion.
    fn apply_sync_event(&mut self, slot: usize, event: &BusEvent) {
        let Some(rep) = self.sync_replica(slot) else {
            return;
        };
        match event {
            BusEvent::Delivered(m) => {
                if rep.deliver_sync(m.seq) {
                    self.rstats.syncs_applied += 1;
                }
            }
            // A duplicate's payload was already applied (or pruned as
            // stale) by the first copy; a stale copy was superseded by a
            // newer accepted sync. Neither touches the shadow.
            BusEvent::Duplicate(m) => {
                rep.drop_sync(m.seq);
            }
            BusEvent::Stale { msg, .. } => {
                rep.drop_sync(msg.seq);
            }
            BusEvent::Retry { dropped, .. } => {
                self.rstats.sync_retries += 1;
                if *dropped {
                    self.rstats.syncs_dropped += 1;
                }
            }
            BusEvent::Exhausted(m) => {
                if rep.drop_sync(m.seq) {
                    self.rstats.syncs_dropped += 1;
                }
            }
        }
    }

    /// The standby that sync link `slot` feeds, if it is deployed.
    fn sync_replica(&mut self, slot: usize) -> Option<&mut ReplicaState> {
        match self.sync_peers[slot - self.sync_base] {
            SyncPeer::Gm => self.gm_replica.as_mut(),
            SyncPeer::Em(e) => self.em_replicas.get_mut(e),
        }
    }

    /// Ships a capper's post-epoch state (`snap`, with its effective cap
    /// `watts` as the wire payload) to its standby over sync link `slot`
    /// as a sequence-numbered sync message.
    fn send_sync(&mut self, slot: usize, snap: CapperSnapshot, watts: f64) {
        let t = self.ticks_done;
        let mut events = std::mem::take(&mut self.bus_events);
        let (seq, enqueued) = self
            .bus
            .send_into(LinkId(slot), watts, t, false, &mut events);
        self.rstats.syncs_sent += 1;
        if enqueued {
            if let Some(rep) = self.sync_replica(slot) {
                rep.record_sync(seq, encode_capper(&snap));
            }
        } else {
            self.rstats.syncs_dropped += 1;
        }
        self.apply_bus_events(events);
    }

    /// Whether the GM standby currently leads.
    #[inline]
    fn gm_promoted(&self) -> bool {
        self.gm_replica.as_ref().is_some_and(|r| r.promoted)
    }

    /// The deterministic failure detector, run in the sequential global
    /// phase every `heartbeat_interval_ticks`: counts missed heartbeats
    /// for protected primaries, promotes warm standbys past the miss
    /// threshold (bumping the leadership term and restoring the live
    /// controller from the shadow), and fences returning primaries on
    /// their stale term, re-integrating them as the new standby.
    // `%` rather than `u64::is_multiple_of`: pinned MSRV (1.75).
    #[allow(clippy::manual_is_multiple_of)]
    fn redundancy_step(&mut self) {
        let t = self.ticks_done;
        if t % self.redundancy.heartbeat_interval_ticks != 0 {
            return;
        }
        if let Some(mut rep) = self.gm_replica.take() {
            let down = self.injector.offline(ControllerLayer::Gm, 0, t);
            if self.detect(&mut rep, down, ControllerKind::Gm, BudgetLevel::Group, 0) {
                if let Some(snap) = decode_capper(&rep.shadow) {
                    self.gm.restore(&snap);
                    self.gm.expire_lease(t);
                }
            }
            self.gm_replica = Some(rep);
        }
        let mut reps = std::mem::take(&mut self.em_replicas);
        for (e, rep) in reps.iter_mut().enumerate() {
            let down = self.injector.offline(ControllerLayer::Em, e, t);
            if self.detect(rep, down, ControllerKind::Em, BudgetLevel::Enclosure, e) {
                if let Some(snap) = decode_capper(&rep.shadow) {
                    self.ems[e].restore(&snap);
                    // The shadow can lag the primary by in-flight syncs:
                    // a lease that lapsed meanwhile expires right away
                    // rather than resurrecting a stale grant.
                    self.ems[e].expire_lease(t);
                }
            }
        }
        self.em_replicas = reps;
    }

    /// One heartbeat check for one replica pair. Returns whether the
    /// standby was promoted just now (the caller then restores the live
    /// controller state from the shadow).
    fn detect(
        &mut self,
        rep: &mut ReplicaState,
        down: bool,
        controller: ControllerKind,
        level: BudgetLevel,
        index: usize,
    ) -> bool {
        let t = self.ticks_done;
        self.rstats.heartbeats += 1;
        if down {
            if rep.promoted {
                // The standby is serving; there is no primary to probe.
                return false;
            }
            rep.missed += 1;
            self.rstats.missed_heartbeats += 1;
            let missed = rep.missed;
            self.emit(|| TelemetryEvent::HeartbeatMissed {
                tick: t,
                controller,
                index,
                missed,
            });
            if rep.missed >= self.redundancy.miss_threshold {
                rep.term += 1;
                rep.promoted = true;
                rep.missed = 0;
                self.rstats.promotions += 1;
                let term = rep.term;
                self.emit(|| TelemetryEvent::FailoverPromoted {
                    tick: t,
                    controller,
                    index,
                    term,
                });
                return true;
            }
            return false;
        }
        if rep.promoted {
            // The deposed primary is back. Its leadership claim carries
            // the pre-failover term — fenced via the existing stale-
            // rejection path, then taken on as the new standby.
            self.fstats.stale_rejected += 1;
            self.rstats.fenced += 1;
            let (stale, serving) = (rep.term - 1, rep.term);
            self.emit(|| TelemetryEvent::StaleRejected {
                tick: t,
                level,
                child: index,
                seq: stale,
                accepted: serving,
            });
            rep.promoted = false;
            rep.missed = 0;
            self.emit(|| TelemetryEvent::StandbyReintegrated {
                tick: t,
                controller,
                index,
                term: serving,
            });
            return false;
        }
        rep.missed = 0;
        false
    }

    // ----- the safety-invariant monitor ---------------------------------

    /// Records one violation: exact counter plus telemetry event.
    fn invariant_violation(&mut self, invariant: InvariantKind, index: usize) {
        let t = self.ticks_done;
        self.istats.record(invariant);
        self.emit(|| TelemetryEvent::InvariantViolated {
            tick: t,
            invariant,
            index,
        });
    }

    /// Budget-conservation check at a reallocation site: the children's
    /// grants must sum to at most the parent's effective cap (float
    /// tolerance for the summation order).
    fn check_conservation(&mut self, alloc_sum: f64, cap: f64, index: usize) {
        self.istats.checks += 1;
        if alloc_sum > cap * (1.0 + 1e-9) + 1e-9 {
            self.invariant_violation(InvariantKind::BudgetConservation, index);
        }
    }

    /// The per-tick safety-invariant sweep, run after every controller
    /// (including the electrical clamp) has acted. Pure observation: it
    /// never steers the system. Budget conservation is checked at the
    /// reallocation sites instead; the catalog's remaining entries are
    /// global conditions checked here.
    fn invariant_sweep(&mut self) {
        let t = self.ticks_done;
        // Electrical protection: no powered-on server with a working
        // actuator runs above its fuse-level cap.
        if let Some(elec) = self.elec.take() {
            for (i, capper) in elec.iter().enumerate() {
                let s = ServerId(i);
                if !self.sim.is_on(s) || self.injector.actuator_jammed(i, t) {
                    continue;
                }
                self.istats.checks += 1;
                let p = self.sim.pstate(s);
                if capper.clamp(p) != p {
                    self.invariant_violation(InvariantKind::ElectricalCap, i);
                }
            }
            self.elec = Some(elec);
        }
        // Floor operating point: every static local cap admits the
        // deepest P-state at full utilization. Both sides are fixed at
        // construction, so the verdict is too: each sweep counts one
        // check per server and re-reports the same servers, ascending.
        self.istats.checks += self.models.len() as u64;
        let floor_violators = std::mem::take(&mut self.cap_floor_violators);
        for &i in &floor_violators {
            self.invariant_violation(InvariantKind::ServerCapFloor, i);
        }
        self.cap_floor_violators = floor_violators;
        // Lease discipline: an unleased child holds no finite grant, and
        // a finite grant's lease is unexpired (the expiry sweep at the
        // top of `act` reverted anything older).
        if self.lease_ticks > 0 {
            for i in 0..self.models.len() {
                self.istats.checks += 1;
                let stranded = if self.bank.lease_until(i) == u64::MAX {
                    self.bank.effective_cap_watts(i) < self.bank.static_cap_watts(i)
                } else {
                    self.bank.lease_until(i) < t
                };
                if stranded {
                    self.invariant_violation(InvariantKind::LeaseBound, i);
                }
            }
            for e in 0..self.ems.len() {
                self.istats.checks += 1;
                let stranded = if self.ems[e].lease_until() == u64::MAX {
                    self.ems[e].effective_cap_watts() < self.ems[e].static_cap_watts()
                } else {
                    self.ems[e].lease_until() < t
                };
                if stranded {
                    self.invariant_violation(InvariantKind::LeaseBound, e);
                }
            }
        }
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
        &self.sim
    }

    /// Ticks simulated so far.
    pub fn ticks_done(&self) -> u64 {
        self.ticks_done
    }

    /// Total wall-clock nanoseconds this run has spent inside pooled
    /// shard phases (simulator step, EC/SM/EM epochs, GM window pass,
    /// electrical clamp). Zero at one thread, where every shard phase
    /// runs inline without a pool. The complement
    /// against the run's total wall time is the sequential global phase
    /// the `scale` bench reports.
    pub fn parallel_nanos(&self) -> u64 {
        self.pool.as_ref().map_or(0, |p| p.busy_nanos())
    }

    /// Total shard steals the pool's workers have performed this run —
    /// how often an idle worker pulled a shard from a busy peer's deque.
    /// Zero at one thread (and for perfectly balanced fleets).
    pub fn steal_count(&self) -> u64 {
        self.pool.as_ref().map_or(0, |p| p.steal_count())
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
        self.bank.r_ref(s.index())
    }

    /// The budget server `s`'s SM enforces right now:
    /// `min(CAP_LOC, granted by EM/GM)`, watts.
    pub fn sm_effective_cap(&self, s: ServerId) -> f64 {
        self.bank.effective_cap_watts(s.index())
    }

    /// The budget enclosure `e`'s EM enforces right now:
    /// `min(CAP_ENC, granted by GM)`, watts.
    pub fn em_effective_cap(&self, e: EnclosureId) -> f64 {
        self.ems[e.index()].effective_cap_watts()
    }

    /// The static caps `(CAP_LOC for s, CAP_GRP)` in watts.
    pub fn static_caps(&self, s: ServerId) -> (f64, f64) {
        (self.cap_loc[s.index()], self.cap_grp)
    }

    /// Advances the system by one tick: controllers act on the window
    /// ending now, then the simulator steps.
    pub fn tick(&mut self) {
        if self.ticks_done > 0 {
            self.act();
        }
        self.sim
            .step_sharded(self.pool.as_ref(), &self.shards, &self.shard_encs);
        if let Some(trace) = &mut self.power_trace {
            trace.push(self.ticks_done, self.sim.group_power());
        }
        self.accumulate_latency_proxy();
        self.accumulate_vm_windows();
        self.ticks_done += 1;
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
        let n = self.models.len();
        let sim = &self.sim;
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
        self.cum_latency_proxy += delta;
        self.latency_samples += on;
    }

    /// Per-tick VMC accumulators: every VM's utilization, real or
    /// apparent as the mode reads it, folds into its cumulative sum and
    /// window maximum. Each slot is independent (no cross-VM arithmetic),
    /// so any split of the VM range gives the same bits; `vm_shards` is
    /// one range unless a pool has enough VMs to share out.
    fn accumulate_vm_windows(&mut self) {
        let view = self.sim.vm_view();
        let real_mode = self.mode.vmc_uses_real_util();
        let mut cum = Carve::new(&mut self.cum_vm_util);
        let mut win = Carve::new(&mut self.win_max_vm_util);
        let shards = self
            .vm_shards
            .iter()
            .map(move |r| (r.start, cum.take(r.clone()), win.take(r.clone())));
        par::for_each_shard(self.pool.as_ref(), shards, move |(lo, cum, win)| {
            if real_mode {
                fold_vm_window(lo, cum, win, |vm| view.real_vm_utilization(vm));
            } else {
                fold_vm_window(lo, cum, win, |vm| view.apparent_vm_utilization(vm));
            }
        });
    }

    /// Runs to the configured horizon and returns the raw stats.
    pub fn run_to_horizon(&mut self) -> RunStats {
        while self.ticks_done < self.horizon {
            self.tick();
        }
        self.stats()
    }

    /// The raw stats so far.
    pub fn stats(&self) -> RunStats {
        let num_vms = self.sim.num_vms();
        // One fixed-shape tree over (delivered, demanded) pairs — a
        // struct reduction, combined component-wise.
        let (delivered, demanded) = reduce::tree_reduce(
            num_vms,
            (0.0f64, 0.0f64),
            |j| {
                (
                    self.sim.cumulative_delivered(VmId(j)),
                    self.sim.cumulative_demand(VmId(j)),
                )
            },
            |a, b| (a.0 + b.0, a.1 + b.1),
        );
        RunStats {
            energy: self.sim.total_energy(),
            delivered_work: delivered,
            demanded_work: demanded,
            violations: self.violations,
            pstate_conflicts: self.sim.pstate_conflicts(),
            migrations: self.sim.migrations_started(),
            failovers: self.sim.failover_events(),
            mean_latency_proxy: if self.latency_samples == 0 {
                1.0
            } else {
                self.cum_latency_proxy / self.latency_samples as f64
            },
            ticks: self.ticks_done,
        }
    }

    // ----- checkpoint / restore -----------------------------------------

    /// Captures the runner's complete dynamic state — simulator,
    /// controllers, bus in-flight queues, injector RNG, measurement
    /// windows, accumulators — for bit-exact resumption. The telemetry
    /// recorder and power trace are diagnostics and are *not* part of the
    /// checkpoint. Emits a `Checkpoint` telemetry event.
    pub fn snapshot(&mut self) -> RunnerSnapshot {
        let t = self.ticks_done;
        self.emit(|| TelemetryEvent::Checkpoint {
            tick: t,
            restored: false,
        });
        RunnerSnapshot {
            version: RunnerSnapshot::VERSION,
            label: self.label.clone(),
            ticks_done: self.ticks_done,
            sim: self.sim.snapshot(),
            injector: self.injector.snapshot(),
            bus: self.bus.snapshot(),
            bank: self.bank.snapshot(),
            ems: self.ems.iter().map(|em| em.snapshot()).collect(),
            gm: self.gm.snapshot(),
            vmc_buffer_bits: self.vmc.buffer_bits().to_vec(),
            sm_hold: self
                .sm_hold
                .iter()
                .map(|h| h.map_or(u64::MAX, |p| p.index() as u64))
                .collect(),
            snap_util_ec_bits: pack_bits(&self.snap_util_ec),
            snap_power_sm_bits: pack_bits(&self.snap_power_sm),
            snap_power_em_bits: pack_bits(&self.snap_power_em),
            snap_power_gm_bits: pack_bits(&self.snap_power_gm),
            snap_encpow_em_bits: pack_bits(&self.snap_encpow_em),
            snap_encpow_gm_bits: pack_bits(&self.snap_encpow_gm),
            cum_vm_util_bits: pack_bits(&self.cum_vm_util),
            snap_vm_util_bits: pack_bits(&self.snap_vm_util),
            win_max_vm_util_bits: pack_bits(&self.win_max_vm_util),
            last_util_ec_bits: pack_bits(&self.last_util_ec),
            last_power_sm_bits: pack_bits(&self.last_power_sm),
            last_encpow_em_bits: pack_bits(&self.last_encpow_em),
            last_child_gm_bits: pack_bits(&self.last_child_gm),
            fstats: self.fstats,
            em_was_down: self.em_was_down.clone(),
            gm_was_down: self.gm_was_down,
            violations: self.violations,
            win_sm: self.win_sm,
            win_em: self.win_em,
            win_gm: self.win_gm,
            skipped_migrations: self.skipped_migrations,
            cum_latency_proxy_bits: self.cum_latency_proxy.to_bits(),
            latency_samples: self.latency_samples,
            gm_replica: self.gm_replica.clone(),
            em_replicas: self.em_replicas.clone(),
            rstats: self.rstats,
            istats: self.istats,
        }
    }

    /// Restores state captured by [`Runner::snapshot`]. The runner must
    /// have been built from the *same* [`ExperimentConfig`] — the
    /// checkpoint carries only dynamic state; static structure (topology,
    /// models, traces, caps) comes from the configuration. A resumed run
    /// reproduces the uninterrupted run bit for bit.
    pub fn restore(&mut self, snap: &RunnerSnapshot) -> Result<(), CoreError> {
        if snap.version != RunnerSnapshot::VERSION {
            return Err(RunnerSnapshot::version_mismatch(snap.version.into()));
        }
        if snap.label != self.label {
            return Err(CoreError::Checkpoint(format!(
                "checkpoint is for experiment {:?}, runner is {:?}",
                snap.label, self.label
            )));
        }
        // Every array the restore below copies or zips must match this
        // runner's shape exactly: a short one would leave a stale tail
        // (a different state) or panic many ticks later.
        let float_arrays = [
            (&snap.snap_util_ec_bits, &self.snap_util_ec),
            (&snap.snap_power_sm_bits, &self.snap_power_sm),
            (&snap.snap_power_em_bits, &self.snap_power_em),
            (&snap.snap_power_gm_bits, &self.snap_power_gm),
            (&snap.snap_encpow_em_bits, &self.snap_encpow_em),
            (&snap.snap_encpow_gm_bits, &self.snap_encpow_gm),
            (&snap.cum_vm_util_bits, &self.cum_vm_util),
            (&snap.snap_vm_util_bits, &self.snap_vm_util),
            (&snap.win_max_vm_util_bits, &self.win_max_vm_util),
            (&snap.last_util_ec_bits, &self.last_util_ec),
            (&snap.last_power_sm_bits, &self.last_power_sm),
            (&snap.last_encpow_em_bits, &self.last_encpow_em),
            (&snap.last_child_gm_bits, &self.last_child_gm),
        ];
        if snap.sm_hold.len() != self.models.len()
            || snap.ems.len() != self.ems.len()
            || float_arrays
                .iter()
                .any(|(bits, own)| bits.len() != own.len())
            || snap.vmc_buffer_bits.len() != 3
            || snap.em_was_down.len() != self.em_was_down.len()
            || snap.em_replicas.len() != self.em_replicas.len()
            || snap.gm_replica.is_some() != self.gm_replica.is_some()
            || !self.bank.fits(&snap.bank)
            || !self.injector.fits(&snap.injector)
            || !self.gm.fits(&snap.gm)
            || self.ems.iter().zip(&snap.ems).any(|(em, s)| !em.fits(s))
        {
            return Err(CoreError::Checkpoint(
                "checkpoint sizes do not match this configuration".to_string(),
            ));
        }
        self.bus
            .fits(&snap.bus)
            .map_err(|e| CoreError::Checkpoint(format!("checkpoint bus state: {e}")))?;
        // First mutation, and fallible: the simulator checks its shape
        // and decodes its event words before assigning anything, so a
        // misshapen simulator snapshot leaves the whole runner untouched.
        self.sim
            .restore(&snap.sim)
            .map_err(|e| CoreError::Checkpoint(e.to_string()))?;
        self.ticks_done = snap.ticks_done;
        self.injector.restore(&snap.injector);
        self.bus.restore(&snap.bus);
        self.bank.restore(&snap.bank);
        for (em, s) in self.ems.iter_mut().zip(&snap.ems) {
            em.restore(s);
        }
        self.gm.restore(&snap.gm);
        let vb: [u64; 3] = snap.vmc_buffer_bits[..]
            .try_into()
            .expect("buffer length checked above");
        self.vmc.restore_buffer_bits(&vb);
        for (h, &raw) in self.sm_hold.iter_mut().zip(&snap.sm_hold) {
            *h = if raw == u64::MAX {
                None
            } else {
                Some(PState(raw as usize))
            };
        }
        unpack_bits(&snap.snap_util_ec_bits, &mut self.snap_util_ec);
        unpack_bits(&snap.snap_power_sm_bits, &mut self.snap_power_sm);
        unpack_bits(&snap.snap_power_em_bits, &mut self.snap_power_em);
        unpack_bits(&snap.snap_power_gm_bits, &mut self.snap_power_gm);
        unpack_bits(&snap.snap_encpow_em_bits, &mut self.snap_encpow_em);
        unpack_bits(&snap.snap_encpow_gm_bits, &mut self.snap_encpow_gm);
        unpack_bits(&snap.cum_vm_util_bits, &mut self.cum_vm_util);
        unpack_bits(&snap.snap_vm_util_bits, &mut self.snap_vm_util);
        unpack_bits(&snap.win_max_vm_util_bits, &mut self.win_max_vm_util);
        unpack_bits(&snap.last_util_ec_bits, &mut self.last_util_ec);
        unpack_bits(&snap.last_power_sm_bits, &mut self.last_power_sm);
        unpack_bits(&snap.last_encpow_em_bits, &mut self.last_encpow_em);
        unpack_bits(&snap.last_child_gm_bits, &mut self.last_child_gm);
        self.fstats = snap.fstats;
        self.em_was_down = snap.em_was_down.clone();
        self.gm_was_down = snap.gm_was_down;
        self.violations = snap.violations;
        self.win_sm = snap.win_sm;
        self.win_em = snap.win_em;
        self.win_gm = snap.win_gm;
        self.skipped_migrations = snap.skipped_migrations;
        self.cum_latency_proxy = f64::from_bits(snap.cum_latency_proxy_bits);
        self.latency_samples = snap.latency_samples;
        self.gm_replica = snap.gm_replica.clone();
        self.em_replicas = snap.em_replicas.clone();
        self.rstats = snap.rstats;
        self.istats = snap.istats;
        let t = self.ticks_done;
        self.emit(|| TelemetryEvent::Checkpoint {
            tick: t,
            restored: true,
        });
        Ok(())
    }

    /// Builds a runner for `cfg` and restores `snap` into it — the
    /// one-call resume path.
    pub fn resume(cfg: &ExperimentConfig, snap: &RunnerSnapshot) -> Result<Self, CoreError> {
        let mut runner = Self::try_new(cfg)?;
        runner.restore(snap)?;
        Ok(runner)
    }

    // ----- the per-tick control schedule --------------------------------

    // `%` rather than `u64::is_multiple_of` keeps the crate building on
    // the pinned MSRV (1.75); intervals are sanitized nonzero.
    #[allow(clippy::manual_is_multiple_of)]
    fn act(&mut self) {
        let t = self.ticks_done;
        // Deferred bus traffic first: delayed grant copies and expired
        // retransmission timers from earlier ticks come due before any
        // controller epoch reads the caps they update.
        if !self.bus.is_idle() {
            self.drain_bus();
        }
        // Lease expiry sweep: a granted cap whose lease has lapsed (its
        // grantor went silent — outage, lost refresh, exhausted retries)
        // reverts to the child's static cap. This replaces the
        // edge-triggered outage fallback uniformly when leases are on.
        if self.lease_ticks > 0 {
            self.expire_leases();
        }
        // Failure detector for warm standbys: runs in the sequential
        // global phase before any controller epoch, so a promotion this
        // tick already serves this tick's epochs.
        if self.redundancy.any_enabled() {
            self.redundancy_step();
        }
        let iv = self.intervals;
        if self.mask.ec && t % iv.ec == 0 {
            self.ec_epoch(iv.ec);
        }
        if t % iv.sm == 0 {
            self.sm_epoch(iv.sm);
        }
        if t % iv.em == 0 {
            self.em_epoch(iv.em);
        }
        if t % iv.gm == 0 {
            self.gm_epoch(iv.gm);
        }
        if self.mask.vmc && t % iv.vmc == 0 {
            // Wall-clock diagnostic only (never checkpointed): how much
            // of the run the VMC arbitration step costs, reported by the
            // `scale` bench as `arbitration_phase_fraction`.
            let t0 = std::time::Instant::now();
            self.vmc_epoch();
            self.arb_ns += t0.elapsed().as_nanos() as u64;
        }
        if self.elec.is_some() {
            self.elec_clamp();
        }
        // The safety sweep observes the fully settled tick: every
        // controller, the bus, and the electrical clamp have acted.
        if self.invariants_on {
            self.invariant_sweep();
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

    /// The electrical CAP clamp: every powered-on server whose P-state
    /// exceeds its fuse-level cap is clamped down, unless its actuator is
    /// jammed (the conditional draw comes from the per-server counter
    /// stream, so it is order-free across shards).
    fn elec_clamp(&mut self) {
        let t = self.ticks_done;
        let recording = self.recording();
        let Some(cappers) = &self.elec else { return };
        let ranges = &self.shards;
        let (view, mut acts) = self.sim.epoch_shards();
        let mut draws = self.injector.actuator_shards();
        let shards = (self.scratch.iter_mut().zip(&mut self.shard_effects))
            .enumerate()
            .map(move |(k, (sc, eff))| {
                let r = ranges[k].clone();
                (r.clone(), acts.take(r.clone(), eff), draws.take(r), sc)
            });
        par::for_each_shard(self.pool.as_ref(), shards, move |sh| {
            let (range, mut act, mut draw, sc) = sh;
            for i in range {
                let s = ServerId(i);
                if !view.is_on(s) {
                    continue;
                }
                let cur = act.pstate(s);
                let clamped = cappers[i].clamp(cur);
                if clamped == cur {
                    continue;
                }
                if draw.pstate_write_blocked(i, t) {
                    sc.fstats.actuator_blocked += 1;
                    if recording {
                        sc.telemetry.push(TelemetryEvent::ActuatorFault {
                            tick: t,
                            server: i,
                            source: ControllerKind::Electrical,
                        });
                    }
                } else {
                    act.set_pstate(s, clamped);
                    if recording {
                        sc.telemetry.push(TelemetryEvent::PStateChange {
                            tick: t,
                            server: i,
                            from: cur.index(),
                            to: clamped.index(),
                            source: ControllerKind::Electrical,
                        });
                    }
                }
            }
        });
        self.reduce_shards(|run, sc| run.replay(&mut sc.telemetry));
    }

    /// The EC epoch: every powered-on server's EC reads its utilization
    /// window through the ingestion boundary and writes a P-state (merged
    /// with the SM's standing demand in the min-merge mode).
    fn ec_epoch(&mut self, window: u64) {
        let window = window.max(1) as f64;
        let t = self.ticks_done;
        let recording = self.recording();
        let merges = self.mode.merges_min_pstate();
        let (view, shards) = server_shards(
            &self.shards,
            &mut self.scratch,
            &mut self.shard_effects,
            &mut self.sim,
            &mut self.bank,
            &mut self.injector,
            SensorChannel::ServerUtilization,
            &mut self.snap_util_ec,
            &mut self.last_util_ec,
            &mut self.sm_hold,
        );
        par::for_each_shard(self.pool.as_ref(), shards, move |mut sh| {
            for i in sh.range.clone() {
                let off = i - sh.range.start;
                let s = ServerId(i);
                if !view.is_on(s) {
                    continue;
                }
                let cum = view.cumulative_utilization(s);
                let raw = (cum - sh.snap[off]) / window;
                sh.snap[off] = cum;
                let reading = sh.sense.sense(i, t, raw);
                let util = shard_ingest(reading, t, ControllerKind::Ec, i, &mut sh, off, recording);
                let desired = sh.bank.ec_step(i, util);
                let applied = match merges.then(|| sh.sm_hold[off]).flatten() {
                    // Naïve "min frequency wins" merge with the SM's
                    // standing demand.
                    Some(hold) => PState(desired.index().max(hold.index())),
                    None => desired,
                };
                let before = sh.act.pstate(s);
                if sh.draw.pstate_write_blocked(i, t) {
                    sh.sc.fstats.actuator_blocked += 1;
                    if recording {
                        sh.sc.telemetry.push(TelemetryEvent::ActuatorFault {
                            tick: t,
                            server: i,
                            source: ControllerKind::Ec,
                        });
                    }
                } else {
                    sh.act.set_pstate(s, applied);
                    if recording && before != applied {
                        sh.sc.telemetry.push(TelemetryEvent::PStateChange {
                            tick: t,
                            server: i,
                            from: before.index(),
                            to: applied.index(),
                            source: ControllerKind::Ec,
                        });
                    }
                }
            }
        });
        self.reduce_shards(|run, sc| run.replay(&mut sc.telemetry));
    }

    /// The SM epoch: every server's power window is checked against its
    /// static cap (whether or not the SM is deployed), then each online
    /// SM either retunes its EC's `r_ref` (coordinated) or forces a
    /// P-state on the actuator the EC also writes (uncoordinated).
    fn sm_epoch(&mut self, window: u64) {
        let window = window.max(1) as f64;
        let t = self.ticks_done;
        let recording = self.recording();
        let mask_sm = self.mask.sm;
        let coordinated = self.mode.sm_actuates_r_ref();
        let merges = self.mode.merges_min_pstate();
        let (view, shards) = server_shards(
            &self.shards,
            &mut self.scratch,
            &mut self.shard_effects,
            &mut self.sim,
            &mut self.bank,
            &mut self.injector,
            SensorChannel::ServerPower,
            &mut self.snap_power_sm,
            &mut self.last_power_sm,
            &mut self.sm_hold,
        );
        let outages: &[OutageWindow] = &self.outage_windows;
        let cap_loc: &[f64] = &self.cap_loc;
        par::for_each_shard(self.pool.as_ref(), shards, move |mut sh| {
            for i in sh.range.clone() {
                let off = i - sh.range.start;
                let s = ServerId(i);
                let cum = view.cumulative_power(s);
                if !view.is_on(s) {
                    // Keep snapshots current so a later power-on starts a
                    // fresh window.
                    sh.snap[off] = cum;
                    continue;
                }
                let raw = (cum - sh.snap[off]) / window;
                sh.snap[off] = cum;
                // The monitor reads the same (possibly faulty) sensor the
                // SM does: faults distort what is *observed*, not what is
                // true.
                let reading = sh.sense.sense(i, t, raw);
                let avg = shard_ingest(reading, t, ControllerKind::Sm, i, &mut sh, off, recording);
                let violated_static = avg > cap_loc[i];
                sh.sc.win.record(violated_static);
                if violated_static && recording {
                    sh.sc.telemetry.push(TelemetryEvent::Violation {
                        tick: t,
                        level: BudgetLevel::Server,
                        observed_watts: avg,
                        cap_watts: cap_loc[i],
                        effective: false,
                    });
                }
                if !mask_sm {
                    continue;
                }
                // An offline SM takes no control action; the EC keeps
                // running against its last `r_ref` and the static-budget
                // monitor above keeps reporting.
                if offline_in(outages, ControllerLayer::Sm, i, t) {
                    sh.sc.fstats.outage_epochs += 1;
                    if recording {
                        sh.sc.telemetry.push(TelemetryEvent::ControllerOutage {
                            tick: t,
                            controller: ControllerKind::Sm,
                            index: i,
                        });
                    }
                    continue;
                }
                // A breach of the dynamically granted budget (tighter than
                // the static cap) is reported as an effective violation.
                let eff_cap = sh.bank.effective_cap_watts(i);
                if avg > eff_cap && eff_cap < cap_loc[i] && recording {
                    sh.sc.telemetry.push(TelemetryEvent::Violation {
                        tick: t,
                        level: BudgetLevel::Server,
                        observed_watts: avg,
                        cap_watts: eff_cap,
                        effective: true,
                    });
                }
                if coordinated {
                    let prev_r_ref = sh.bank.r_ref(i);
                    sh.bank.sm_step_coordinated(i, avg);
                    let r_ref = sh.bank.r_ref(i);
                    if recording && r_ref != prev_r_ref {
                        sh.sc.telemetry.push(TelemetryEvent::RRefUpdate {
                            tick: t,
                            server: i,
                            r_ref,
                        });
                    }
                    continue;
                }
                let current = sh.act.pstate(s);
                let (_, forced) = sh.bank.sm_step_uncoordinated(i, avg, current);
                if merges {
                    sh.sm_hold[off] = forced;
                }
                // The race (in the non-merge mode): this write lands on the
                // same actuator the EC writes every tick. The jam verdict is
                // drawn only when a write actually happens.
                let Some(p) = forced else { continue };
                let applied = if merges {
                    PState(p.index().max(current.index()))
                } else {
                    p
                };
                if sh.draw.pstate_write_blocked(i, t) {
                    sh.sc.fstats.actuator_blocked += 1;
                    if recording {
                        sh.sc.telemetry.push(TelemetryEvent::ActuatorFault {
                            tick: t,
                            server: i,
                            source: ControllerKind::Sm,
                        });
                    }
                } else {
                    sh.act.set_pstate(s, applied);
                    if recording && applied != current {
                        sh.sc.telemetry.push(TelemetryEvent::PStateChange {
                            tick: t,
                            server: i,
                            from: current.index(),
                            to: applied.index(),
                            source: ControllerKind::Sm,
                        });
                    }
                }
            }
        });
        let win = self.reduce_shards(|run, sc| run.replay(&mut sc.telemetry));
        self.violations.server.merge(win);
        self.win_sm.merge(win);
    }

    /// The EM epoch. Each shard runs the whole per-enclosure pipeline for
    /// the enclosures it owns — member window averages, enclosure ingest,
    /// violation accounting, offline fallback, and `reallocate` — against
    /// its own slices. What must land in enclosure order across shards
    /// (telemetry, bus grant deliveries, state syncs) is buffered per
    /// enclosure and replayed ascending in the reduction; every random
    /// draw — sensors, actuators, plan-level message loss — comes from a
    /// per-instance counter stream, so nothing is pre-sampled.
    fn em_epoch(&mut self, window: u64) {
        let window = window.max(1) as f64;
        let t = self.ticks_done;
        let recording = self.recording();
        let mask_em = self.mask.em;
        let flows_down = self.mode.budgets_flow_down();
        // Members that lose their EM fall back to their local static caps
        // (stale dynamic grants from a dead EM could strangle them
        // indefinitely). With leases on, the lease state machine covers
        // this uniformly — orphaned grants simply expire; with a warm
        // standby the detector promotes it instead.
        let local_fallback = flows_down && self.lease_ticks == 0 && !self.redundancy.em_standby;
        let (ranges, shard_encs) = (&self.shards, &self.shard_encs);
        let (view, mut acts) = self.sim.epoch_shards();
        let mut banks = self.bank.shards();
        let (mut draws, mut senses) = self.injector.draw_shards(SensorChannel::EnclosurePower);
        let mut snap_pows = Carve::new(&mut self.snap_power_em);
        let mut snap_encs = Carve::new(&mut self.snap_encpow_em);
        let mut last_encs = Carve::new(&mut self.last_encpow_em);
        let mut was_downs = Carve::new(&mut self.em_was_down);
        let mut emss = Carve::new(&mut self.ems);
        let shards = (self.scratch.iter_mut().zip(&mut self.shard_effects))
            .enumerate()
            .map(move |(k, (sc, eff))| {
                let (r, encs) = (ranges[k].clone(), shard_encs[k].clone());
                EmShard {
                    lo: r.start,
                    enc_lo: encs.start,
                    bank: banks.take(r.clone()),
                    act: acts.take(r.clone(), eff),
                    draw: draws.take(r.clone()),
                    sense: senses.take(encs.clone()),
                    snap_pow: snap_pows.take(r),
                    snap_encpow: snap_encs.take(encs.clone()),
                    last_encpow: last_encs.take(encs.clone()),
                    em_was_down: was_downs.take(encs.clone()),
                    ems: emss.take(encs),
                    sc,
                }
            });
        // Promotion state is frozen for the epoch (the failure detector
        // only runs in the global phase), so shards read it directly.
        let replicas: &[ReplicaState] = &self.em_replicas;
        let outages: &[OutageWindow] = &self.outage_windows;
        let cap_loc: &[f64] = &self.cap_loc;
        let enc_offsets: &[usize] = &self.enc_offsets;
        let enc_members: &[ServerId] = &self.enc_members;
        let models: &[ServerModel] = &self.models;
        par::for_each_shard(self.pool.as_ref(), shards, move |sh| {
            let EmShard {
                lo,
                enc_lo,
                mut bank,
                mut act,
                mut draw,
                mut sense,
                snap_pow,
                snap_encpow,
                last_encpow,
                em_was_down,
                ems,
                sc,
            } = sh;
            for (ee, em) in ems.iter_mut().enumerate() {
                let e = enc_lo + ee;
                let members = &enc_members[enc_offsets[e]..enc_offsets[e + 1]];
                let events = sc.telemetry.len();
                sc.power.clear();
                for &s in members {
                    let off = s.index() - lo;
                    let cum = view.cumulative_power(s);
                    sc.power.push((cum - snap_pow[off]) / window);
                    snap_pow[off] = cum;
                }
                // Level total includes the enclosure's shared base power.
                let enc_cum = view.cumulative_enclosure_power(EnclosureId(e));
                let raw_total = (enc_cum - snap_encpow[ee]) / window;
                snap_encpow[ee] = enc_cum;
                let total = ingest_buffered(
                    sense.sense(e, t, raw_total),
                    t,
                    ControllerKind::Em,
                    e,
                    &mut sc.fstats,
                    &mut sc.telemetry,
                    &mut last_encpow[ee],
                    recording,
                );
                let static_cap = em.static_cap_watts();
                let violated_static = total > static_cap;
                sc.win.record(violated_static);
                if violated_static && recording {
                    sc.telemetry.push(TelemetryEvent::Violation {
                        tick: t,
                        level: BudgetLevel::Enclosure,
                        observed_watts: total,
                        cap_watts: static_cap,
                        effective: false,
                    });
                }
                let mut rec = EmRecord {
                    enc: e,
                    events: 0,
                    grants: 0..0,
                    online: false,
                    alloc_sum: 0.0,
                    eff_cap: 0.0,
                };
                'epoch: {
                    if !mask_em {
                        break 'epoch;
                    }
                    let promoted = replicas.get(e).is_some_and(|r| r.promoted);
                    if offline_in(outages, ControllerLayer::Em, e, t) && !promoted {
                        if !em_was_down[ee] {
                            em_was_down[ee] = true;
                            if local_fallback {
                                for &s in members {
                                    bank.set_granted_cap(s.index(), f64::INFINITY);
                                    sc.fstats.degradations += 1;
                                    if recording {
                                        sc.telemetry.push(TelemetryEvent::Degradation {
                                            tick: t,
                                            controller: ControllerKind::Sm,
                                            index: s.index(),
                                            policy: DegradationPolicy::LocalCapFallback,
                                        });
                                    }
                                }
                            }
                        }
                        sc.fstats.outage_epochs += 1;
                        if recording {
                            sc.telemetry.push(TelemetryEvent::ControllerOutage {
                                tick: t,
                                controller: ControllerKind::Em,
                                index: e,
                            });
                        }
                        break 'epoch;
                    }
                    em_was_down[ee] = false;
                    rec.online = true;
                    let eff_cap = em.effective_cap_watts();
                    rec.eff_cap = eff_cap;
                    if total > eff_cap && eff_cap < static_cap && recording {
                        sc.telemetry.push(TelemetryEvent::Violation {
                            tick: t,
                            level: BudgetLevel::Enclosure,
                            observed_watts: total,
                            cap_watts: eff_cap,
                            effective: true,
                        });
                    }
                    sc.caps.clear();
                    sc.caps.extend(members.iter().map(|s| cap_loc[s.index()]));
                    em.reallocate_into(&sc.power, &sc.caps, &mut sc.alloc);
                    rec.alloc_sum = reduce::tree_sum(&sc.alloc);
                    if flows_down {
                        // Bus deliveries draw from the bus's own RNG stream
                        // and must land in ascending enclosure order —
                        // deferred to the reduction.
                        let start = sc.grants.len();
                        sc.grants.extend_from_slice(&sc.alloc);
                        rec.grants = start..sc.grants.len();
                    } else if total > em.effective_cap_watts() {
                        // Uncoordinated enclosure capper: on violation,
                        // directly clamp member P-states to fit their
                        // allocation — racing with the EC and SM.
                        for (&s, &alloc) in members.iter().zip(&sc.alloc) {
                            if !view.is_on(s) {
                                continue;
                            }
                            let model = &models[s.index()];
                            let forced = model
                                .pstate_for_power_budget(alloc)
                                .unwrap_or_else(|| model.deepest());
                            let before = act.pstate(s);
                            if draw.pstate_write_blocked(s.index(), t) {
                                sc.fstats.actuator_blocked += 1;
                                if recording {
                                    sc.telemetry.push(TelemetryEvent::ActuatorFault {
                                        tick: t,
                                        server: s.index(),
                                        source: ControllerKind::Em,
                                    });
                                }
                            } else {
                                act.set_pstate(s, forced);
                                if recording && forced != before {
                                    sc.telemetry.push(TelemetryEvent::PStateChange {
                                        tick: t,
                                        server: s.index(),
                                        from: before.index(),
                                        to: forced.index(),
                                        source: ControllerKind::Em,
                                    });
                                }
                            }
                        }
                    }
                }
                rec.events = sc.telemetry.len() - events;
                sc.records.push(rec);
            }
        });
        let win = self.reduce_shards(|run, sc| {
            let mut events = sc.telemetry.drain(..);
            for rec in sc.records.drain(..) {
                if let Some(r) = &mut run.recorder {
                    events.by_ref().take(rec.events).for_each(|ev| r.record(ev));
                }
                if rec.online && run.invariants_on {
                    run.check_conservation(rec.alloc_sum, rec.eff_cap, rec.enc);
                }
                let members = run.enc_offsets[rec.enc]..run.enc_offsets[rec.enc + 1];
                for (m, &watts) in members.zip(&sc.grants[rec.grants]) {
                    let s = run.enc_members[m];
                    let slot = run.server_link[s.index()]
                        .expect("every enclosure member has a grant link");
                    run.deliver_grant(slot, watts);
                }
                if rec.online {
                    if let Some(&slot) = run.em_sync_link.get(rec.enc) {
                        let em = &run.ems[rec.enc];
                        run.send_sync(slot, em.snapshot(), em.effective_cap_watts());
                    }
                }
            }
            sc.grants.clear();
        });
        self.violations.enclosure.merge(win);
        self.win_em.merge(win);
    }

    fn gm_epoch(&mut self, window: u64) {
        // The GM's window computation (averages over every server and
        // enclosure) plus its sensor ingest (per-child counter streams)
        // runs per shard; only the arbitration that follows is inherently
        // sequential.
        self.gm_window(window);
        self.gm_arbitrate();
    }

    /// The GM window pass: fills `scratch_child_raw` with each child's
    /// *hardened* window-average power (enclosures first, then standalone
    /// servers) — sensing each child's counter stream and running the
    /// full ingestion pipeline — and advances the GM snapshots. The
    /// ingest order is *all* enclosures then *all* standalones, so each
    /// shard buffers its telemetry in two streams that the reduction
    /// replays in that order.
    fn gm_window(&mut self, window: u64) {
        let window = window.max(1) as f64;
        let t = self.ticks_done;
        let recording = self.recording();
        let num_enclosures = self.ems.len();
        self.scratch_child_raw.clear();
        self.scratch_child_raw
            .resize(num_enclosures + self.standalone_ids.len(), 0.0);
        let (ranges, shard_encs, shard_sa) = (&self.shards, &self.shard_encs, &self.shard_sa);
        let view = self.sim.epoch_view();
        let (mut sense_encs, mut sense_sas) = self.injector.gm_child_shards();
        let (enc_raw, sa_raw) = self.scratch_child_raw.split_at_mut(num_enclosures);
        let (last_enc, last_sa) = self.last_child_gm.split_at_mut(num_enclosures);
        let (mut enc_raws, mut sa_raws) = (Carve::new(enc_raw), Carve::new(sa_raw));
        let (mut last_encs, mut last_sas) = (Carve::new(last_enc), Carve::new(last_sa));
        let mut snap_pows = Carve::new(&mut self.snap_power_gm);
        let mut snap_encs = Carve::new(&mut self.snap_encpow_gm);
        let shards = self.scratch.iter_mut().enumerate().map(move |(k, sc)| {
            let (r, encs, sas) = (
                ranges[k].clone(),
                shard_encs[k].clone(),
                shard_sa[k].clone(),
            );
            GmShard {
                lo: r.start,
                enc_lo: encs.start,
                sa_lo: sas.start,
                sense_enc: sense_encs.take(encs.clone()),
                sense_sa: sense_sas.take(sas.clone()),
                snap_pow: snap_pows.take(r),
                snap_enc: snap_encs.take(encs.clone()),
                enc_raw: enc_raws.take(encs.clone()),
                sa_raw: sa_raws.take(sas.clone()),
                last_enc: last_encs.take(encs),
                last_sa: last_sas.take(sas),
                sc,
            }
        });
        let enc_offsets: &[usize] = &self.enc_offsets;
        let enc_members: &[ServerId] = &self.enc_members;
        let standalone: &[ServerId] = &self.standalone_ids;
        par::for_each_shard(self.pool.as_ref(), shards, move |mut sh| {
            for ee in 0..sh.snap_enc.len() {
                let e = sh.enc_lo + ee;
                for &s in &enc_members[enc_offsets[e]..enc_offsets[e + 1]] {
                    // Keep the per-server GM snapshots warm for standalone
                    // reads (the member average itself is not used).
                    sh.snap_pow[s.index() - sh.lo] = view.cumulative_power(s);
                }
                let enc_cum = view.cumulative_enclosure_power(EnclosureId(e));
                let raw = (enc_cum - sh.snap_enc[ee]) / window;
                sh.snap_enc[ee] = enc_cum;
                sh.enc_raw[ee] = ingest_buffered(
                    sh.sense_enc.sense(e, t, raw),
                    t,
                    ControllerKind::Gm,
                    e,
                    &mut sh.sc.fstats,
                    &mut sh.sc.telemetry,
                    &mut sh.last_enc[ee],
                    recording,
                );
            }
            for j in 0..sh.sa_raw.len() {
                let ordinal = sh.sa_lo + j;
                let s = standalone[ordinal];
                let off = s.index() - sh.lo;
                let cum = view.cumulative_power(s);
                let raw = (cum - sh.snap_pow[off]) / window;
                sh.snap_pow[off] = cum;
                sh.sa_raw[j] = ingest_buffered(
                    sh.sense_sa.sense(ordinal, t, raw),
                    t,
                    ControllerKind::Gm,
                    num_enclosures + ordinal,
                    &mut sh.sc.fstats,
                    &mut sh.sc.telemetry_sa,
                    &mut sh.last_sa[j],
                    recording,
                );
            }
        });
        self.reduce_shards(|run, sc| run.replay(&mut sc.telemetry));
        self.reduce_shards(|run, sc| run.replay(&mut sc.telemetry_sa));
    }

    /// The sequential remainder of a GM epoch: the window pass already
    /// sensed and hardened every child's average into
    /// `scratch_child_raw`, so arbitration is RNG-free apart from the GM
    /// outage check — sum, check the group cap, reallocate, deliver.
    fn gm_arbitrate(&mut self) {
        let t = self.ticks_done;
        // Children: enclosures first, then standalone servers.
        let num_enclosures = self.ems.len();
        self.scratch_consumption.clear();
        self.scratch_consumption
            .extend_from_slice(&self.scratch_child_raw);
        self.scratch_child_caps.clear();
        for e in 0..num_enclosures {
            self.scratch_child_caps.push(self.cap_enc[e]);
        }
        for k in 0..self.standalone_ids.len() {
            let s = self.standalone_ids[k];
            self.scratch_child_caps.push(self.cap_loc[s.index()]);
        }
        let group_total = reduce::tree_sum(&self.scratch_consumption);
        let violated_static = group_total > self.cap_grp;
        self.violations.group.record(violated_static);
        self.win_gm.record(violated_static);
        if violated_static {
            let cap = self.cap_grp;
            self.emit(|| TelemetryEvent::Violation {
                tick: t,
                level: BudgetLevel::Group,
                observed_watts: group_total,
                cap_watts: cap,
                effective: false,
            });
        }
        if !self.mask.gm {
            return;
        }
        if self.injector.offline(ControllerLayer::Gm, 0, t) && !self.gm_promoted() {
            if !self.gm_was_down {
                self.gm_was_down = true;
                // Every child just lost the group manager: enclosures and
                // standalone servers fall back to their local static caps.
                // Under leases the orphaned grants expire on their own;
                // with a warm standby the detector promotes it instead, so
                // the static-cap fallback stays out of the way.
                if self.mode.budgets_flow_down()
                    && self.lease_ticks == 0
                    && !self.redundancy.gm_standby
                {
                    for e in 0..self.ems.len() {
                        self.ems[e].set_granted_cap(f64::INFINITY);
                        self.fstats.degradations += 1;
                        self.emit(|| TelemetryEvent::Degradation {
                            tick: t,
                            controller: ControllerKind::Em,
                            index: e,
                            policy: DegradationPolicy::LocalCapFallback,
                        });
                    }
                    for k in 0..self.standalone_ids.len() {
                        let s = self.standalone_ids[k];
                        self.bank.set_granted_cap(s.index(), f64::INFINITY);
                        self.fstats.degradations += 1;
                        let server = s.index();
                        self.emit(|| TelemetryEvent::Degradation {
                            tick: t,
                            controller: ControllerKind::Sm,
                            index: server,
                            policy: DegradationPolicy::LocalCapFallback,
                        });
                    }
                }
            }
            self.fstats.outage_epochs += 1;
            self.emit(|| TelemetryEvent::ControllerOutage {
                tick: t,
                controller: ControllerKind::Gm,
                index: 0,
            });
            return;
        }
        self.gm_was_down = false;
        let eff_cap = self.gm.effective_cap_watts();
        if group_total > eff_cap && eff_cap < self.cap_grp {
            self.emit(|| TelemetryEvent::Violation {
                tick: t,
                level: BudgetLevel::Group,
                observed_watts: group_total,
                cap_watts: eff_cap,
                effective: true,
            });
        }
        let mut allocations = std::mem::take(&mut self.scratch_alloc);
        self.gm.reallocate_into(
            &self.scratch_consumption,
            &self.scratch_child_caps,
            &mut allocations,
        );
        if self.invariants_on {
            self.check_conservation(reduce::tree_sum(&allocations), eff_cap, 0);
        }
        if self.mode.budgets_flow_down() {
            for (e, &watts) in allocations.iter().enumerate().take(num_enclosures) {
                let slot = self.em_link[e];
                self.deliver_grant(slot, watts);
            }
            for k in 0..self.standalone_ids.len() {
                let s = self.standalone_ids[k];
                let child = num_enclosures + k;
                let slot =
                    self.server_link[s.index()].expect("every standalone server has a grant link");
                self.deliver_grant(slot, allocations[child]);
            }
        } else if group_total > self.gm.effective_cap_watts() {
            // Uncoordinated group capper: directly clamp standalone
            // servers (it has no interface into the enclosures' blades).
            for k in 0..self.standalone_ids.len() {
                let s = self.standalone_ids[k];
                if !self.sim.is_on(s) {
                    continue;
                }
                let alloc = allocations[num_enclosures + k];
                let model = &self.models[s.index()];
                let forced = model
                    .pstate_for_power_budget(alloc)
                    .unwrap_or_else(|| model.deepest());
                let before = self.sim.pstate(s);
                if self.write_pstate(s, forced, ControllerKind::Gm) && forced != before {
                    self.emit(|| TelemetryEvent::PStateChange {
                        tick: t,
                        server: s.index(),
                        from: before.index(),
                        to: forced.index(),
                        source: ControllerKind::Gm,
                    });
                }
            }
        }
        self.scratch_alloc = allocations;
        if let Some(slot) = self.gm_sync_link {
            self.send_sync(slot, self.gm.snapshot(), self.gm.effective_cap_watts());
        }
    }

    fn vmc_epoch(&mut self) {
        // Feedback first (rates observed since the last epoch). The
        // feedback signal comes *from* the capping controllers (paper
        // Figure 4: "expose power budget violations to VMC"); levels whose
        // capper is not deployed report nothing.
        self.vmc.report_violations_windowed(
            if self.mask.sm {
                self.win_sm.rate()
            } else {
                0.0
            },
            if self.mask.em {
                self.win_em.rate()
            } else {
                0.0
            },
            if self.mask.gm {
                self.win_gm.rate()
            } else {
                0.0
            },
            self.intervals.vmc,
        );
        self.win_sm = ViolationCounter::new();
        self.win_em = ViolationCounter::new();
        self.win_gm = ViolationCounter::new();

        // Demand estimates over the window: per-VM independent slots,
        // sharded across the pool when the fleet is large enough.
        self.vmc_demands();

        // Field-disjoint borrows: the VMC plans (mutably) against a
        // context borrowing the simulation, models, and caps directly —
        // no placement clone.
        let ctx = ClusterContext {
            topo: self.sim.topology(),
            models: &self.models,
            current: self.sim.placement(),
            cap_loc: &self.cap_loc,
            cap_enc: &self.cap_enc,
            cap_grp: self.cap_grp,
        };
        let plan = self.vmc.plan(&self.scratch_demands, &ctx);
        let t = self.ticks_done;
        if self.recording() {
            // Telemetry aggregates through the fixed-shape tree, sum and
            // max in one struct reduction.
            let demands = &self.scratch_demands;
            let (demand_sum, demand_max) = reduce::tree_reduce(
                demands.len(),
                (0.0f64, 0.0f64),
                |j| (demands[j], demands[j]),
                |a, b| (a.0 + b.0, a.1.max(b.1)),
            );
            let demand_mean = if demands.is_empty() {
                0.0
            } else {
                demand_sum / demands.len() as f64
            };
            let used_servers = plan.placement.used_servers().len();
            let migrations = plan.migrations.len();
            let power_on = plan.power_on.len();
            let power_off = plan.power_off.len();
            let forced_placements = plan.forced_placements;
            self.emit(|| TelemetryEvent::VmcPlan {
                tick: t,
                demand_mean,
                demand_max,
                used_servers,
                migrations,
                power_on,
                power_off,
                forced_placements,
            });
        }

        for &s in &plan.power_on {
            if !self.sim.is_on(s) && self.sim.power_on(s).is_ok() {
                self.bank.ec_reset(s.index());
                self.bank.set_r_ref(s.index(), 0.75);
                // A stale grant from before the power-off (possibly 0 W)
                // must not strangle the revived server until the next
                // EM/GM epoch refreshes it; any lease on it clears too.
                self.bank.reset_grant(s.index());
                // Fresh measurement windows for the revived server: all
                // four cumulative snapshots, not just the EC's — a stale
                // SM/EM/GM power snapshot would fold the whole off period
                // into the first window after revival.
                self.snap_util_ec[s.index()] = self.sim.cumulative_utilization(s);
                let cum_power = self.sim.cumulative_power(s);
                self.snap_power_sm[s.index()] = cum_power;
                self.snap_power_em[s.index()] = cum_power;
                self.snap_power_gm[s.index()] = cum_power;
                let server = s.index();
                self.emit(|| TelemetryEvent::PowerOn { tick: t, server });
            }
        }
        for m in &plan.migrations {
            // `Simulation::migrate` treats a same-server move as a no-op
            // success; the telemetry stream mirrors that (no event), so
            // Migration events stay in lockstep with `migrations_started`.
            let from = self.sim.placement().host_of(m.vm);
            match self.sim.migrate(m.vm, m.to) {
                Ok(()) => {
                    if from != m.to {
                        let (vm, to) = (m.vm.index(), m.to.index());
                        let from = from.index();
                        self.emit(|| TelemetryEvent::Migration {
                            tick: t,
                            vm,
                            from,
                            to,
                        });
                    }
                }
                Err(_) => self.skipped_migrations += 1,
            }
        }
        for &s in &plan.power_off {
            if self.sim.is_on(s)
                && self.sim.residents(s).is_empty()
                && self.sim.power_off(s).is_ok()
            {
                let server = s.index();
                self.emit(|| TelemetryEvent::PowerOff { tick: t, server });
            }
        }
    }

    /// Per-VM demand estimates for a VMC epoch, including the window
    /// bookkeeping (snapshot advances, peak resets). Every slot runs
    /// [`vmc_demand_slot`] independently, so any split of the VM range
    /// gives the same bits.
    fn vmc_demands(&mut self) {
        let window = self.intervals.vmc.max(1) as f64;
        self.scratch_demands.clear();
        self.scratch_demands.resize(self.cum_vm_util.len(), 0.0);
        let mut snap = Carve::new(&mut self.snap_vm_util);
        let mut win = Carve::new(&mut self.win_max_vm_util);
        let mut demands = Carve::new(&mut self.scratch_demands);
        let shards = self.vm_shards.iter().map(move |r| {
            (
                r.start,
                snap.take(r.clone()),
                win.take(r.clone()),
                demands.take(r.clone()),
            )
        });
        let cum: &[f64] = &self.cum_vm_util;
        par::for_each_shard(
            self.pool.as_ref(),
            shards,
            move |(lo, snap, win, demands)| {
                for (off, demand) in demands.iter_mut().enumerate() {
                    *demand = vmc_demand_slot(window, cum[lo + off], &mut snap[off], &mut win[off]);
                }
            },
        );
    }
}

/// One shard's reusable buffers: the side effects its epoch body
/// buffers for the in-order reduction, and the EM's working arrays.
/// Owned by the runner and emptied by every reduction, so a sharded
/// epoch allocates nothing once the buffers have grown.
#[derive(Debug, Default)]
struct ShardScratch {
    fstats: FaultStats,
    /// Static-cap violation verdicts (SM and EM epochs; order-free).
    win: ViolationCounter,
    telemetry: Vec<TelemetryEvent>,
    /// GM window pass: standalone-child telemetry, replayed after every
    /// shard's enclosure telemetry.
    telemetry_sa: Vec<TelemetryEvent>,
    // EM epoch: one enclosure's member powers, caps and reallocated
    // budgets, then every owned enclosure's grants and record.
    power: Vec<f64>,
    caps: Vec<f64>,
    alloc: Vec<f64>,
    grants: Vec<f64>,
    records: Vec<EmRecord>,
}

/// One enclosure's place in its shard's EM buffers, replayed in the
/// reduction: its telemetry, then (coordinated modes) its member grant
/// deliveries through the bus, then — for an EM that completed an online
/// epoch — the conservation check and the state sync to its standby.
#[derive(Debug)]
struct EmRecord {
    enc: usize,
    /// How many of the shard's next buffered telemetry events are this
    /// enclosure's.
    events: usize,
    /// This enclosure's member grants in the shard's `grants`.
    grants: Range<usize>,
    /// Whether the EM ran a full (online) epoch this tick.
    online: bool,
    /// Sum of the reallocated member budgets (conservation).
    alloc_sum: f64,
    /// The effective cap the reallocation ran against.
    eff_cap: f64,
}

/// One shard's slice of the per-server state during an EC or SM epoch.
struct EpochShard<'a> {
    /// This shard's servers.
    range: Range<usize>,
    bank: BankShard<'a>,
    act: ActuatorShard<'a>,
    /// Per-server actuator-jam counter streams (order-free draws).
    draw: ActuatorDrawShard<'a>,
    /// The epoch channel's per-server sensor counter streams.
    sense: SensorDrawShard<'a>,
    /// This epoch's measurement-window snapshots (EC: utilization, SM:
    /// power).
    snap: &'a mut [f64],
    /// This epoch's hold-last-good store.
    last_good: &'a mut [f64],
    /// SM standing P-state demands (written by the min-merge SM, read by
    /// the EC).
    sm_hold: &'a mut [Option<PState>],
    sc: &'a mut ShardScratch,
}

/// One shard's slice of the EM epoch's state: its servers' bank,
/// actuator and jam streams, and the enclosures it owns.
struct EmShard<'a> {
    /// First global server id of this shard.
    lo: usize,
    /// First enclosure this shard owns.
    enc_lo: usize,
    bank: BankShard<'a>,
    act: ActuatorShard<'a>,
    draw: ActuatorDrawShard<'a>,
    /// Enclosure-power sensor streams of the owned enclosures.
    sense: SensorDrawShard<'a>,
    snap_pow: &'a mut [f64],
    snap_encpow: &'a mut [f64],
    last_encpow: &'a mut [f64],
    em_was_down: &'a mut [bool],
    ems: &'a mut [GroupCapper],
    sc: &'a mut ShardScratch,
}

/// One shard's slice of the GM window pass: its enclosure children and
/// its standalone children.
struct GmShard<'a> {
    /// First global server id of this shard.
    lo: usize,
    /// First enclosure this shard owns.
    enc_lo: usize,
    /// First standalone-child ordinal of this shard.
    sa_lo: usize,
    sense_enc: SensorDrawShard<'a>,
    sense_sa: SensorDrawShard<'a>,
    snap_pow: &'a mut [f64],
    snap_enc: &'a mut [f64],
    enc_raw: &'a mut [f64],
    sa_raw: &'a mut [f64],
    last_enc: &'a mut [f64],
    last_sa: &'a mut [f64],
    sc: &'a mut ShardScratch,
}

/// Offline check against a static copy of the fault plan's outage
/// windows — usable from inside a worker while the injector itself is
/// carved into actuator-draw shards. [`FaultInjector::offline`] is a
/// pure scan of the same windows, so verdicts are identical.
fn offline_in(outages: &[OutageWindow], layer: ControllerLayer, index: usize, tick: u64) -> bool {
    outages.iter().any(|w| w.covers(layer, index, tick))
}

/// Minimum VM count before the per-tick VM accumulators and the VMC
/// demand pass fan out to the pool — below this the barrier costs more
/// than the loop.
const PAR_VM_THRESHOLD: usize = 64;

/// Even partition of `0..num_vms` into `k` dense ascending ranges (VMs
/// have no enclosure-alignment constraint, so a plain even split works).
fn vm_ranges(num_vms: usize, k: usize) -> Vec<Range<usize>> {
    let k = k.max(1);
    (0..k)
        .map(|p| p * num_vms / k..(p + 1) * num_vms / k)
        .collect()
}

/// One shard's VMC windows for a tick: `util` of VM `lo + off` folds into
/// slot `off`'s cumulative sum and window peak.
#[inline]
fn fold_vm_window(lo: usize, cum: &mut [f64], win_max: &mut [f64], util: impl Fn(VmId) -> f64) {
    for (off, (cum, win_max)) in cum.iter_mut().zip(win_max).enumerate() {
        let u = util(VmId(lo + off));
        *cum += u;
        *win_max = win_max.max(u);
    }
}

/// One VM's demand estimate plus window bookkeeping for a VMC epoch: the
/// mean/peak blend over the closing window, the snapshot advanced, the
/// window peak reset. Pure per-slot arithmetic, so any split of the VM
/// range gives the same bits.
fn vmc_demand_slot(window: f64, cum: f64, snap: &mut f64, win_max: &mut f64) -> f64 {
    let mean = (cum - *snap) / window;
    *snap = cum;
    // Size by a mean/peak blend: a placement sized to the window mean
    // alone saturates as soon as the diurnal curve rises within the
    // next epoch.
    let est = mean + 0.3 * (*win_max - mean).max(0.0);
    *win_max = 0.0;
    est.clamp(0.0, 1.0)
}

/// Carves the simulator, the controller bank, the injector and one
/// epoch's per-server arrays into [`EpochShard`]s, built lazily as the
/// driver hands them out, each paired with its shard's scratch.
#[allow(clippy::too_many_arguments)]
fn server_shards<'a>(
    ranges: &'a [Range<usize>],
    scratch: &'a mut [ShardScratch],
    effects: &'a mut [ShardEffects],
    sim: &'a mut Simulation,
    bank: &'a mut ControllerBank,
    injector: &'a mut FaultInjector,
    channel: SensorChannel,
    snap: &'a mut [f64],
    last_good: &'a mut [f64],
    sm_hold: &'a mut [Option<PState>],
) -> (
    SimEpochView<'a>,
    impl ExactSizeIterator<Item = EpochShard<'a>> + Send + 'a,
) {
    let (view, mut acts) = sim.epoch_shards();
    let mut banks = bank.shards();
    let (mut draws, mut senses) = injector.draw_shards(channel);
    let (mut snaps, mut lasts) = (Carve::new(snap), Carve::new(last_good));
    let mut holds = Carve::new(sm_hold);
    let shards = (scratch.iter_mut().zip(effects))
        .enumerate()
        .map(move |(k, (sc, eff))| {
            let r = ranges[k].clone();
            EpochShard {
                bank: banks.take(r.clone()),
                act: acts.take(r.clone(), eff),
                draw: draws.take(r.clone()),
                sense: senses.take(r.clone()),
                snap: snaps.take(r.clone()),
                last_good: lasts.take(r.clone()),
                sm_hold: holds.take(r.clone()),
                range: r,
                sc,
            }
        });
    (view, shards)
}

/// The ingestion boundary for one per-server reading in an EC or SM
/// shard: [`ingest_buffered`] against the shard's scratch and its
/// hold-last-good slot `off`.
#[inline]
fn shard_ingest(
    reading: Reading,
    t: u64,
    ctrl: ControllerKind,
    idx: usize,
    sh: &mut EpochShard<'_>,
    off: usize,
    recording: bool,
) -> f64 {
    ingest_buffered(
        reading,
        t,
        ctrl,
        idx,
        &mut sh.sc.fstats,
        &mut sh.sc.telemetry,
        &mut sh.last_good[off],
        recording,
    )
}

/// The ingestion boundary every controller input passes through: a
/// reading the fault injector has already routed (drawn in-shard from
/// the slot's private counter stream) gets the always-on hardening —
/// non-finite or negative values and dropped samples degrade to the last
/// good reading. Fault counters and telemetry go to the shard's buffers,
/// replayed in order by the epoch's reduction. A clean, valid reading
/// takes the inline path; anything else goes to [`ingest_degraded`].
#[inline]
#[allow(clippy::too_many_arguments)]
fn ingest_buffered(
    reading: Reading,
    t: u64,
    ctrl: ControllerKind,
    idx: usize,
    fstats: &mut FaultStats,
    telemetry: &mut Vec<TelemetryEvent>,
    last_good: &mut f64,
    recording: bool,
) -> f64 {
    match reading {
        Reading::Clean(v) if v.is_finite() && v >= 0.0 => {
            *last_good = v;
            v
        }
        _ => ingest_degraded(
            reading, t, ctrl, idx, fstats, telemetry, last_good, recording,
        ),
    }
}

/// [`ingest_buffered`] for a reading the fault model touched or that
/// fails hardening: counts and reports the fault, then degrades.
#[inline(never)]
#[allow(clippy::too_many_arguments)]
fn ingest_degraded(
    reading: Reading,
    t: u64,
    ctrl: ControllerKind,
    idx: usize,
    fstats: &mut FaultStats,
    telemetry: &mut Vec<TelemetryEvent>,
    last_good: &mut f64,
    recording: bool,
) -> f64 {
    let delivered = match reading {
        Reading::Clean(v) => Some(v),
        Reading::Noisy(v) => {
            fstats.sensor_noise += 1;
            if recording {
                telemetry.push(TelemetryEvent::SensorFault {
                    tick: t,
                    controller: ctrl,
                    index: idx,
                    fault: SensorFaultKind::Noise,
                });
            }
            Some(v)
        }
        Reading::Stuck(v) => {
            fstats.sensor_stuck += 1;
            if recording {
                telemetry.push(TelemetryEvent::SensorFault {
                    tick: t,
                    controller: ctrl,
                    index: idx,
                    fault: SensorFaultKind::Stuck,
                });
            }
            Some(v)
        }
        Reading::Dropped => {
            fstats.sensor_dropped += 1;
            if recording {
                telemetry.push(TelemetryEvent::SensorFault {
                    tick: t,
                    controller: ctrl,
                    index: idx,
                    fault: SensorFaultKind::Dropped,
                });
            }
            None
        }
    };
    let value = match delivered {
        Some(v) if v.is_finite() && v >= 0.0 => v,
        Some(_) => {
            fstats.clamped_inputs += 1;
            if recording {
                telemetry.push(TelemetryEvent::Degradation {
                    tick: t,
                    controller: ctrl,
                    index: idx,
                    policy: DegradationPolicy::ClampNonFinite,
                });
            }
            *last_good
        }
        None => {
            fstats.degradations += 1;
            if recording {
                telemetry.push(TelemetryEvent::Degradation {
                    tick: t,
                    controller: ctrl,
                    index: idx,
                    policy: DegradationPolicy::HoldLastGood,
                });
            }
            *last_good
        }
    };
    *last_good = value;
    value
}

/// Packs a float slice into IEEE-754 bit words (bit-exact, non-finite
/// safe — the JSON layer would otherwise collapse infinities to null).
fn pack_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// Unpacks bit words into an existing float slice (shorter input leaves
/// the tail untouched; `restore` validates sizes up front).
fn unpack_bits(bits: &[u64], out: &mut [f64]) {
    for (o, &b) in out.iter_mut().zip(bits) {
        *o = f64::from_bits(b);
    }
}

/// Flattens a capper snapshot into the word vector shipped over sync
/// links and held in a replica's shadow: `[granted_cap_bits,
/// lease_until, policy words...]`. Bit-exact by construction.
fn encode_capper(snap: &CapperSnapshot) -> Vec<u64> {
    let mut words = Vec::with_capacity(2 + snap.policy_state.len());
    words.push(snap.granted_cap_bits);
    words.push(snap.lease_until);
    words.extend_from_slice(&snap.policy_state);
    words
}

/// Inverse of [`encode_capper`]. `None` on a malformed shadow (shorter
/// than the two fixed words) — the promotion then keeps the live
/// controller's current state rather than corrupting it.
fn decode_capper(words: &[u64]) -> Option<CapperSnapshot> {
    let (&granted_cap_bits, rest) = words.split_first()?;
    let (&lease_until, policy) = rest.split_first()?;
    Some(CapperSnapshot {
        granted_cap_bits,
        lease_until,
        policy_state: policy.to_vec(),
    })
}

/// A [`Runner`]'s complete dynamic state, produced by
/// [`Runner::snapshot`] and consumed by [`Runner::restore`] /
/// [`Runner::resume`]. Serializable (floats travel as IEEE-754 bit
/// words), so checkpoints written by `npsctl --checkpoint-every` resume
/// bit-exactly across process boundaries.
///
/// Compatibility: a checkpoint binds to one experiment (the `label` must
/// match) and one format `version`; static structure is *not* stored and
/// must come from the same [`ExperimentConfig`].
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RunnerSnapshot {
    /// Checkpoint format version ([`RunnerSnapshot::VERSION`]).
    pub version: u32,
    /// Label of the experiment this checkpoint belongs to.
    pub label: String,
    /// Ticks simulated when the checkpoint was taken.
    pub ticks_done: u64,
    /// Simulator state (placement, P-states, accumulators, thermal).
    pub sim: SimSnapshot,
    /// Fault-injector RNG and latched fault state.
    pub injector: InjectorSnapshot,
    /// Control-plane bus: link sequence state and in-flight queue.
    pub bus: BusSnapshot,
    /// Per-server EC/SM controller bank.
    pub bank: BankSnapshot,
    /// Enclosure managers' grants, leases, and policy state.
    pub ems: Vec<CapperSnapshot>,
    /// Group manager's grant, lease, and policy state.
    pub gm: CapperSnapshot,
    /// VMC feedback buffers `[b_loc, b_enc, b_grp]` as bit words.
    pub vmc_buffer_bits: Vec<u64>,
    /// SM standing P-state demands (`u64::MAX` = none).
    pub sm_hold: Vec<u64>,
    /// EC utilization window snapshots (bit words).
    pub snap_util_ec_bits: Vec<u64>,
    /// SM power window snapshots (bit words).
    pub snap_power_sm_bits: Vec<u64>,
    /// EM per-member power window snapshots (bit words).
    pub snap_power_em_bits: Vec<u64>,
    /// GM per-server power window snapshots (bit words).
    pub snap_power_gm_bits: Vec<u64>,
    /// EM enclosure-total window snapshots (bit words).
    pub snap_encpow_em_bits: Vec<u64>,
    /// GM enclosure-total window snapshots (bit words).
    pub snap_encpow_gm_bits: Vec<u64>,
    /// Cumulative per-VM utilization the VMC sizes by: real, or
    /// apparent under
    /// [`CoordApparentUtil`](crate::arch::CoordinationMode::CoordApparentUtil)
    /// (bit words).
    pub cum_vm_util_bits: Vec<u64>,
    /// VMC window snapshots of that sum (bit words).
    pub snap_vm_util_bits: Vec<u64>,
    /// Window maxima of that utilization (bit words).
    pub win_max_vm_util_bits: Vec<u64>,
    /// Hold-last-good store: EC utilization channel (bit words).
    pub last_util_ec_bits: Vec<u64>,
    /// Hold-last-good store: SM power channel (bit words).
    pub last_power_sm_bits: Vec<u64>,
    /// Hold-last-good store: EM enclosure power channel (bit words).
    pub last_encpow_em_bits: Vec<u64>,
    /// Hold-last-good store: GM child power channel (bit words).
    pub last_child_gm_bits: Vec<u64>,
    /// Fault and degradation counters.
    pub fstats: FaultStats,
    /// EM outage edge-detection latches.
    pub em_was_down: Vec<bool>,
    /// GM outage edge-detection latch.
    pub gm_was_down: bool,
    /// Per-level violation accounting.
    pub violations: LevelViolations,
    /// Server-level violation window feeding the VMC.
    pub win_sm: ViolationCounter,
    /// Enclosure-level violation window feeding the VMC.
    pub win_em: ViolationCounter,
    /// Group-level violation window feeding the VMC.
    pub win_gm: ViolationCounter,
    /// Migrations the simulator rejected.
    pub skipped_migrations: u64,
    /// Latency-proxy accumulator (bit word).
    pub cum_latency_proxy_bits: u64,
    /// Latency-proxy sample count.
    pub latency_samples: u64,
    /// GM warm-standby replica (term, heartbeat counter, shadow state,
    /// in-flight syncs). `None` when no GM standby is configured.
    pub gm_replica: Option<ReplicaState>,
    /// Per-enclosure EM warm-standby replicas (empty without standbys).
    pub em_replicas: Vec<ReplicaState>,
    /// Redundancy-protocol counters.
    pub rstats: RedundancyStats,
    /// Safety-invariant monitor counters.
    pub istats: InvariantStats,
}

impl RunnerSnapshot {
    /// Current checkpoint format version. Bump on any layout change —
    /// restore refuses checkpoints from other versions. Version 2 added
    /// the per-server actuator draw counters to the injector snapshot;
    /// version 3 replaced the shared-stream sensor state with per-slot
    /// counter streams (counters, stuck-until ticks, held values);
    /// version 4 added warm-standby replica state (terms, heartbeat
    /// counters, shadows, in-flight syncs), the redundancy and
    /// safety-invariant counter blocks, and the per-link message-loss
    /// counter layout in the injector snapshot; version 5 stores the
    /// simulator's event ring as flat `[tick, tag, args…]` words
    /// ([`nps_sim::EventLogSnapshot`]); version 6 keeps one VMC window
    /// per VM, of the utilization the mode reads, instead of a real and
    /// an apparent one, and drops the simulator's cumulative granted
    /// work, which nothing read.
    pub const VERSION: u32 = 6;

    /// Writes the checkpoint to `path` as JSON, atomically: the bytes go
    /// to a sibling temp file first and are renamed into place, so a
    /// crash mid-write leaves the previous checkpoint intact.
    pub fn save(&self, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
        let path = path.as_ref();
        let dir = match path.parent() {
            Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
            _ => std::path::PathBuf::from("."),
        };
        let stem = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "checkpoint.json".to_string());
        let tmp = dir.join(format!(".{stem}.tmp.{}", std::process::id()));
        let write = (|| -> std::io::Result<()> {
            let file = std::fs::File::create(&tmp)?;
            let mut writer = std::io::BufWriter::new(file);
            serde_json::to_writer(&mut writer, self).map_err(std::io::Error::other)?;
            use std::io::Write as _;
            writer.flush()?;
            writer.into_inner().map_err(|e| e.into_error())?.sync_all()
        })();
        // A failed write or a failed rename (e.g. `path` is a non-empty
        // directory) must not leave the temp file behind.
        let saved = write.and_then(|()| std::fs::rename(&tmp, path));
        if saved.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        saved
    }

    /// Reads a checkpoint previously written by [`RunnerSnapshot::save`].
    ///
    /// The format version is checked before the layout is mapped, so a
    /// checkpoint from another version fails with the same
    /// [`CoreError::Checkpoint`] that [`Runner::restore`] reports instead
    /// of a field-mapping error. Content errors come back as
    /// [`std::io::ErrorKind::InvalidData`] wrapping a [`CoreError`].
    pub fn load(path: impl AsRef<std::path::Path>) -> std::io::Result<Self> {
        let invalid = |e: CoreError| std::io::Error::new(std::io::ErrorKind::InvalidData, e);
        let unreadable = |why: String| invalid(CoreError::Checkpoint(why));
        let text = std::fs::read_to_string(path)?;
        let value = serde::parse(&text).map_err(|e| unreadable(e.to_string()))?;
        let version = value
            .as_object()
            .and_then(|fields| fields.iter().find(|(k, _)| k == "version"))
            .and_then(|(_, v)| v.as_u64());
        match version {
            Some(v) if v == u64::from(Self::VERSION) => {}
            Some(v) => return Err(invalid(Self::version_mismatch(v))),
            None => return Err(unreadable("no format version".to_string())),
        }
        <Self as serde::Deserialize>::deserialize(&value).map_err(|e| unreadable(e.to_string()))
    }

    fn version_mismatch(found: u64) -> CoreError {
        CoreError::Checkpoint(format!(
            "format version {found} (this build reads {})",
            Self::VERSION
        ))
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
        assert!(one.pool.is_none() && one.shards.len() == 1 && one.shards[0] == (0..18));
        let a = one.run_to_horizon();
        cfg.threads = 4;
        let mut pooled = Runner::new(&cfg);
        assert!(
            pooled.pool.is_some() && pooled.shards.len() > 1,
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
        // EC utilization snapshot; the SM/EM/GM power snapshots kept their
        // pre-revival values. Use intervals where no SM/EM/GM epoch
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
                let cum = runner.sim.cumulative_power(ServerId(s));
                let last = runner.sim.server_power(ServerId(s));
                for (name, snap) in [
                    ("sm", runner.snap_power_sm[s]),
                    ("em", runner.snap_power_em[s]),
                    ("gm", runner.snap_power_gm[s]),
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
            assert_eq!(bits(&runner.cum_vm_util), bits(want), "{mode:?}");
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
