//! The tick-driven simulation engine.

use std::ops::Range;
use std::sync::Arc;

use nps_models::{ModelTable, PState, ServerModel};
use nps_traces::UtilTrace;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::ids::{EnclosureId, ServerId, VmId};
use crate::par::{for_each_shard, Carve, WorkerPool};
use crate::placement::Placement;
use crate::reduce;
use crate::thermal::ThermalState;
use crate::topology::Topology;
use crate::words::{FloatBits, PStates, ResidentLists, VmIds};
use crate::Result;

/// Per-VM measurements from the last simulated tick.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct VmObservation {
    /// Work the VM wanted this tick (fraction of a full-speed server).
    pub demand: f64,
    /// Work the host granted before migration penalty (capacity share).
    pub granted: f64,
    /// Work actually completed (granted × migration penalty).
    pub delivered: f64,
}

/// The trace-driven data-center simulator.
///
/// Time advances in discrete ticks via [`Simulation::step`]. Between
/// steps, controllers read sensors (utilization, power at server /
/// enclosure / group level) and write actuators (P-states, power on/off,
/// migrations). Within one tick, multiple P-state writes to the same
/// server are last-writer-wins — exactly the actuator overlap that makes
/// uncoordinated controllers fight (paper §2.3); the engine counts such
/// conflicts in [`Actuators::conflicts`].
#[derive(Debug, Clone)]
pub struct Simulation {
    cfg: SimConfig,
    topo: Topology,
    /// One model per server, shareable with the simulator's owner.
    models: Arc<[ServerModel]>,
    /// Flattened structure-of-arrays view of `models`, used by the
    /// per-tick hot loop (bit-identical to the per-object lookups).
    table: ModelTable,
    traces: Vec<UtilTrace>,
    /// Every checkpointed array and counter but the actuators and the
    /// per-VM observations.
    state: SimState,
    /// The P-state actuators and their conflict counter (checkpointed).
    act: Actuators,
    /// Same-tick P-state write flags: set by every write, cleared by
    /// every step and every restore. Never checkpointed: a checkpoint is
    /// taken between ticks, so a resumed tick starts with them clear.
    written: Vec<bool>,
    /// Last-tick per-VM observations (checkpointed as flat words).
    vm_obs: Vec<VmObservation>,
    /// Per-VM "already listed" flags of [`Simulation::fits`]' resident
    /// check. Pure scratch, kept so a restore allocates nothing.
    listed: Vec<bool>,
    /// Per-server capacity share of the step in progress, written by the
    /// shards of [`Simulation::step_sharded`] and read by its per-VM
    /// pass. Pure scratch: overwritten every step, never snapshotted.
    scratch_share: Vec<f64>,
    /// Per-enclosure member-power sums of the step in progress, written
    /// by the shard owning each enclosure. Pure scratch, like
    /// `scratch_share`.
    scratch_enc_sums: Vec<f64>,
}

impl Simulation {
    /// Creates a homogeneous simulation: every server uses `model`, every
    /// trace becomes one VM, initially placed one per server (round-robin
    /// if there are more VMs than servers), all servers on at P0.
    pub fn new(
        topo: Topology,
        model: ServerModel,
        traces: Vec<UtilTrace>,
        cfg: SimConfig,
    ) -> Result<Self> {
        let n = topo.num_servers();
        let placement = Placement::one_per_server(traces.len(), n.max(1));
        let models = vec![model; n];
        Self::with_models_and_placement(topo, models, traces, placement, cfg)
    }

    /// Creates a heterogeneous simulation with one model per server and an
    /// explicit initial placement. `models` may be a `Vec` or an
    /// `Arc<[ServerModel]>` the caller keeps a handle to, so the fleet's
    /// models are built once.
    pub fn with_models_and_placement(
        topo: Topology,
        models: impl Into<Arc<[ServerModel]>>,
        traces: Vec<UtilTrace>,
        placement: Placement,
        cfg: SimConfig,
    ) -> Result<Self> {
        let models = models.into();
        let n = topo.num_servers();
        if n == 0 {
            return Err(SimError::EmptyTopology);
        }
        topo.validate()?;
        if traces.is_empty() {
            return Err(SimError::NoWorkloads);
        }
        if models.len() != n {
            return Err(SimError::ModelCountMismatch {
                models: models.len(),
                servers: n,
            });
        }
        if placement.num_vms() != traces.len() {
            return Err(SimError::PlacementSizeMismatch {
                placement: placement.num_vms(),
                traces: traces.len(),
            });
        }
        let mut residents = vec![VmIds::default(); n];
        for (vm, host) in placement.iter() {
            topo.check_server(host)?;
            residents[host.index()].push(vm);
        }
        let num_vms = traces.len();
        let num_enclosures = topo.num_enclosures();
        let table = ModelTable::from_models(&models);
        let state = SimState {
            placement,
            residents: ResidentLists(residents),
            on: vec![true; n],
            mig_until: vec![0; num_vms],
            boot_until: vec![0; n],
            tick: 0,
            util: FloatBits(vec![0.0; n]),
            power: FloatBits(vec![0.0; n]),
            cum_power: FloatBits(vec![0.0; n]),
            cum_enc_power: FloatBits(vec![0.0; num_enclosures]),
            cum_util: FloatBits(vec![0.0; n]),
            cum_delivered: FloatBits(vec![0.0; num_vms]),
            cum_demand: FloatBits(vec![0.0; num_vms]),
            migrations_started: 0,
            thermal: cfg.thermal.map(|tc| ThermalState::new(tc, n)),
        };
        Ok(Self {
            cfg,
            topo,
            models,
            table,
            traces,
            state,
            act: Actuators {
                pstate: PStates(vec![PState::P0; n]),
                conflicts: 0,
            },
            written: vec![false; n],
            vm_obs: vec![VmObservation::default(); num_vms],
            listed: vec![false; num_vms],
            scratch_share: vec![0.0; n],
            scratch_enc_sums: vec![0.0; num_enclosures],
        })
    }

    // ----- time ---------------------------------------------------------

    /// Advances the simulation by one tick: samples every trace, shares
    /// capacity on each server, updates power, thermal state, and the
    /// cumulative accumulators. One whole-fleet shard of
    /// [`Simulation::step_sharded`], run inline.
    pub fn step(&mut self) {
        let servers = 0..self.topo.num_servers();
        let enclosures = 0..self.topo.num_enclosures();
        self.step_sharded(
            None,
            std::slice::from_ref(&servers),
            std::slice::from_ref(&enclosures),
        );
    }

    /// Advances the simulation by one tick with the per-server physics
    /// phase run per shard by [`for_each_shard`] — inline without a pool
    /// or with one shard. Bit-identical at any sharding: demand sampling
    /// and the per-VM pass stay sequential, shards run the same
    /// per-server arithmetic on disjoint slices (each server's float ops
    /// are independent of every other server's) and record each server's
    /// capacity share, each shard sums the member power of the
    /// enclosures it owns, and the VM, enclosure and thermal
    /// accumulators are applied in one fixed order after the barrier.
    ///
    /// `shards` must be an ascending, dense partition of the server
    /// range cut on enclosure boundaries ([`Topology::shard_ranges`]),
    /// and `shard_encs` its enclosure ownership
    /// ([`Topology::shard_enclosures`]).
    pub fn step_sharded(
        &mut self,
        pool: Option<&WorkerPool>,
        shards: &[Range<usize>],
        shard_encs: &[Range<usize>],
    ) {
        let st = &mut self.state;
        let t = st.tick;
        let alpha_v = self.cfg.alpha_v;
        let alpha_m = self.cfg.alpha_m;
        let off_power = self.cfg.off_power_watts;
        assert_eq!(
            shards.len(),
            shard_encs.len(),
            "one enclosure range per shard"
        );
        assert_eq!(
            shards.last().map(|r| r.end),
            Some(self.topo.num_servers()),
            "shards must cover the fleet"
        );
        assert_eq!(
            shard_encs.last().map(|r| r.end),
            Some(self.topo.num_enclosures()),
            "shards must own every enclosure"
        );
        // 1. Sample demands (sequential: trace iteration order is the
        //    per-VM accumulator order).
        for (j, trace) in self.traces.iter().enumerate() {
            let d = trace.demand_at(t);
            self.vm_obs[j].demand = d;
            st.cum_demand[j] += d;
        }
        // 2. Per-server capacity sharing and power, sharded. Shards get
        //    disjoint `&mut` slices of the per-server arrays plus shared
        //    `&` views of everything they only read (`vm_obs` is read for
        //    `demand` alone, which phase 1 finalized).
        let mut util = Carve::new(&mut st.util);
        let mut power = Carve::new(&mut st.power);
        let mut cum_power = Carve::new(&mut st.cum_power);
        let mut cum_util = Carve::new(&mut st.cum_util);
        let mut share = Carve::new(&mut self.scratch_share);
        let mut enc_sums = Carve::new(&mut self.scratch_enc_sums);
        let views = shards.iter().zip(shard_encs).map(move |(r, encs)| {
            (
                r.start,
                util.take(r.clone()),
                power.take(r.clone()),
                cum_power.take(r.clone()),
                cum_util.take(r.clone()),
                share.take(r.clone()),
                encs.start,
                enc_sums.take(encs.clone()),
            )
        });
        let on = &st.on;
        let pstate: &[PState] = &self.act.pstate;
        let boot_until = &st.boot_until;
        let residents = &st.residents;
        let vm_obs = &self.vm_obs;
        let table = &self.table;
        let thermal = st.thermal.as_ref();
        let topo = &self.topo;
        for_each_shard(pool, views, |view| {
            let (lo, util, power, cum_power, cum_util, share, enc_lo, enc_sums) = view;
            for off in 0..util.len() {
                let i = lo + off;
                let active = on[i] && thermal.map(|th| !th.is_failed(i)).unwrap_or(true);
                let booting = active && boot_until[i] > t;
                let capacity = if active && !booting {
                    table.capacity(i, pstate[i].index())
                } else {
                    0.0
                };
                let load: f64 = residents[i]
                    .iter()
                    .map(|&vm| vm_obs[vm.index()].demand * (1.0 + alpha_v))
                    .sum();
                let (u, s) = if !active || capacity <= 0.0 {
                    (0.0, 0.0)
                } else if load <= 0.0 {
                    (0.0, 1.0)
                } else {
                    ((load / capacity).min(1.0), (capacity / load).min(1.0))
                };
                share[off] = s;
                util[off] = u;
                power[off] = if booting {
                    // A booting server burns idle power at its P-state
                    // but does no work yet.
                    table.idle_power(i, pstate[i].index())
                } else if active {
                    table.power(i, pstate[i].index(), u)
                } else {
                    off_power
                };
                cum_power[off] += power[off];
                cum_util[off] += u;
            }
            // Owned-enclosure member sums: a fixed-shape tree over the
            // members in ascending order, so the f64 result does not
            // depend on the sharding.
            for (off_e, sum) in enc_sums.iter_mut().enumerate() {
                let servers = topo.enclosure_servers(EnclosureId(enc_lo + off_e));
                *sum = reduce::tree_sum_by(servers.len(), |m| power[servers[m].index() - lo]);
            }
        });
        // 3. Per-VM grants, in VM-id order. Every VM sits in exactly one
        //    resident list, its host's, and no VM's arithmetic reads
        //    another's, so this matches a per-server walk bit for bit.
        for (j, obs) in self.vm_obs.iter_mut().enumerate() {
            let granted = obs.demand * self.scratch_share[st.placement.host_of(VmId(j)).index()];
            let penalty = if st.mig_until[j] > t {
                1.0 - alpha_m
            } else {
                1.0
            };
            obs.granted = granted;
            obs.delivered = granted * penalty;
            st.cum_delivered[j] += obs.delivered;
        }
        // 4. Enclosure power (members + shared-infrastructure base).
        for (cum, &members) in st.cum_enc_power.iter_mut().zip(&self.scratch_enc_sums) {
            *cum += members + self.cfg.enclosure_base_watts;
        }
        // 5. Thermal.
        if let Some(thermal) = &mut st.thermal {
            thermal.step(&st.power);
        }
        // 6. Bookkeeping.
        self.written.fill(false);
        st.tick += 1;
    }

    /// Runs `ticks` steps back to back (no controller interaction).
    pub fn run(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.step();
        }
    }

    /// The current tick (number of completed steps).
    pub fn now(&self) -> u64 {
        self.state.tick
    }

    // ----- structure ------------------------------------------------------

    /// The simulated topology.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// The model of server `s`.
    pub fn model(&self, s: ServerId) -> &ServerModel {
        &self.models[s.index()]
    }

    /// The flattened structure-of-arrays view of every server's model.
    pub fn model_table(&self) -> &ModelTable {
        &self.table
    }

    /// Number of VMs (workload traces).
    pub fn num_vms(&self) -> usize {
        self.traces.len()
    }

    /// The configuration the simulation was built with.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// The current placement (`X` matrix).
    pub fn placement(&self) -> &Placement {
        &self.state.placement
    }

    /// VMs resident on `s`.
    pub fn residents(&self, s: ServerId) -> &[VmId] {
        &self.state.residents[s.index()]
    }

    // ----- sensors --------------------------------------------------------

    /// Last-tick CPU utilization of `s` (fraction of *current* capacity).
    #[inline]
    pub fn server_utilization(&self, s: ServerId) -> f64 {
        self.state.util[s.index()]
    }

    /// Last-tick power draw of `s`, watts.
    pub fn server_power(&self, s: ServerId) -> f64 {
        self.state.power[s.index()]
    }

    /// Last-tick power draw of enclosure `e` (members plus the shared
    /// enclosure base power), watts.
    pub fn enclosure_power(&self, e: EnclosureId) -> f64 {
        let servers = self.topo.enclosure_servers(e);
        reduce::tree_sum_by(servers.len(), |m| self.state.power[servers[m].index()])
            + self.cfg.enclosure_base_watts
    }

    /// Last-tick power draw of the whole group (servers plus every
    /// enclosure's base power), watts.
    pub fn group_power(&self) -> f64 {
        reduce::tree_sum(&self.state.power)
            + self.cfg.enclosure_base_watts * self.topo.num_enclosures() as f64
    }

    /// Cumulative enclosure power (W·ticks since construction), including
    /// the enclosure base power.
    #[inline]
    pub fn cumulative_enclosure_power(&self, e: EnclosureId) -> f64 {
        self.state.cum_enc_power[e.index()]
    }

    /// Whether `s` is still in its boot window (powered, burning idle
    /// power, not yet delivering work).
    pub fn is_booting(&self, s: ServerId) -> bool {
        self.is_on(s) && self.state.boot_until[s.index()] > self.state.tick
    }

    /// Cumulative power of `s` (W·ticks since construction). Diff two
    /// readings to average over a controller epoch.
    #[inline]
    pub fn cumulative_power(&self, s: ServerId) -> f64 {
        self.state.cum_power[s.index()]
    }

    /// Cumulative utilization of `s` (util·ticks since construction).
    #[inline]
    pub fn cumulative_utilization(&self, s: ServerId) -> f64 {
        self.state.cum_util[s.index()]
    }

    /// Total energy consumed by the group so far (W·ticks), including
    /// enclosure base power.
    pub fn total_energy(&self) -> f64 {
        reduce::tree_sum(&self.state.cum_power)
            + self.cfg.enclosure_base_watts
                * self.topo.num_enclosures() as f64
                * self.state.tick as f64
    }

    /// Last-tick observation for `vm`.
    pub fn vm(&self, vm: VmId) -> VmObservation {
        self.vm_obs[vm.index()]
    }

    /// Cumulative work demanded by `vm` (capacity·ticks).
    pub fn cumulative_demand(&self, vm: VmId) -> f64 {
        self.state.cum_demand[vm.index()]
    }

    /// Cumulative work delivered for `vm` (after migration penalty).
    pub fn cumulative_delivered(&self, vm: VmId) -> f64 {
        self.state.cum_delivered[vm.index()]
    }

    /// *Real* utilization estimate for `vm`: the share of a full-speed
    /// server it consumed last tick. This is what the coordinated VMC
    /// uses ("consider the real utilization instead of the apparent
    /// utilization", paper §3.1).
    #[inline]
    pub fn real_vm_utilization(&self, vm: VmId) -> f64 {
        self.vm_obs[vm.index()].granted
    }

    /// *Apparent* utilization for `vm`: its share of the host's *current*
    /// (possibly throttled) capacity — what a naive VMC reads from the
    /// guest OS. On a server at a deep P-state this overstates the VM
    /// relative to full speed.
    #[inline]
    pub fn apparent_vm_utilization(&self, vm: VmId) -> f64 {
        self.vm_view().apparent_vm_utilization(vm)
    }

    /// Number of same-tick conflicting P-state writes observed so far —
    /// the "power struggle" signature of uncoordinated deployments.
    pub fn pstate_conflicts(&self) -> u64 {
        self.act.conflicts
    }

    /// Number of migrations started so far.
    pub fn migrations_started(&self) -> u64 {
        self.state.migrations_started
    }

    // ----- actuators ------------------------------------------------------

    /// Current P-state of `s`.
    #[inline]
    pub fn pstate(&self, s: ServerId) -> PState {
        self.act.pstate[s.index()]
    }

    /// Writes the P-state of `s`. Multiple writes within the same tick are
    /// last-writer-wins; differing repeat writes are counted as conflicts.
    #[inline]
    pub fn set_pstate(&mut self, s: ServerId, p: PState) {
        let i = s.index();
        write_pstate(
            &self.table,
            i,
            p,
            &mut self.act.pstate[i],
            &mut self.written[i],
            &mut self.act.conflicts,
        );
    }

    /// Whether `s` is powered on and has not tripped thermal failover.
    #[inline]
    pub fn is_on(&self, s: ServerId) -> bool {
        powered(&self.state.on, self.state.thermal.as_ref(), s.index())
    }

    /// Powers `s` off. Fails if VMs are still placed on it — the VMC must
    /// consolidate away first.
    pub fn power_off(&mut self, s: ServerId) -> Result<()> {
        self.topo.check_server(s)?;
        let vms = self.state.residents[s.index()].len();
        if vms > 0 {
            return Err(SimError::ServerNotEmpty { server: s, vms });
        }
        self.state.on[s.index()] = false;
        Ok(())
    }

    /// Powers `s` on at P0. With a configured boot delay the server burns
    /// idle power for `boot_delay_ticks` before delivering work.
    pub fn power_on(&mut self, s: ServerId) -> Result<()> {
        self.topo.check_server(s)?;
        if !self.state.on[s.index()] {
            self.state.boot_until[s.index()] = self.state.tick + self.cfg.boot_delay_ticks;
        }
        self.state.on[s.index()] = true;
        self.act.pstate[s.index()] = PState::P0;
        Ok(())
    }

    /// Migrates `vm` to server `to`, starting the `α_M` penalty window.
    /// The destination must be powered on.
    pub fn migrate(&mut self, vm: VmId, to: ServerId) -> Result<()> {
        if vm.index() >= self.num_vms() {
            return Err(SimError::UnknownVm(vm));
        }
        self.topo.check_server(to)?;
        if !self.is_on(to) {
            return Err(SimError::ServerOff(to));
        }
        let from = self.state.placement.host_of(vm);
        if from == to {
            return Ok(());
        }
        self.state.residents[from.index()].retain(|&v| v != vm);
        self.state.residents[to.index()].push(vm);
        self.state.placement.assign(vm, to);
        self.state.mig_until[vm.index()] = self.state.tick + self.cfg.migration_ticks;
        self.state.migrations_started += 1;
        Ok(())
    }

    // ----- rack sharding --------------------------------------------------

    /// Carves the simulator for a sharded controller epoch: an
    /// [`ActuatorCarve`] that hands out one [`ActuatorShard`] per server
    /// range (exclusive write access to that range's P-states and write
    /// flags) plus a shared [`SimEpochView`] of everything epoch workers
    /// only read. Ranges must be taken densely, in order, from server 0.
    ///
    /// Each shard counts its P-state conflicts in a plain integer
    /// ([`ActuatorShard::conflicts`]); after the epoch, add the counts
    /// with [`Simulation::add_pstate_conflicts`] (an integer sum, so the
    /// shard order does not matter).
    pub fn epoch_shards(&mut self) -> (SimEpochView<'_>, ActuatorCarve<'_>) {
        let carve = ActuatorCarve {
            table: &self.table,
            pstate: Carve::new(&mut self.act.pstate),
            written: Carve::new(&mut self.written),
        };
        (SimEpochView::new(&self.state), carve)
    }

    /// A read-only [`SimEpochView`] over the current state, for sharded
    /// phases that only read sensors (e.g. the GM's window pass) and need
    /// no actuator shards.
    pub fn epoch_view(&self) -> SimEpochView<'_> {
        SimEpochView::new(&self.state)
    }

    /// A read-only per-VM view for sharded phases that accumulate VM
    /// utilization (the runner's per-tick VMC accumulators). Mirrors
    /// [`Simulation::real_vm_utilization`] and
    /// [`Simulation::apparent_vm_utilization`] exactly.
    pub fn vm_view(&self) -> VmView<'_> {
        VmView {
            obs: &self.vm_obs,
            placement: &self.state.placement,
            on: &self.state.on,
            thermal: self.state.thermal.as_ref(),
            pstate: &self.act.pstate,
            table: &self.table,
        }
    }

    /// Adds `n` P-state conflicts counted by an [`ActuatorShard`] during
    /// a sharded epoch to [`Simulation::pstate_conflicts`].
    #[inline]
    pub fn add_pstate_conflicts(&mut self, n: u64) {
        self.act.conflicts += n;
    }

    // ----- thermal --------------------------------------------------------

    /// The thermal state, if thermal tracking is enabled.
    pub fn thermal(&self) -> Option<&ThermalState> {
        self.state.thermal.as_ref()
    }

    /// Temperature of `s` in °C (ambient if thermal tracking is off).
    pub fn temperature_c(&self, s: ServerId) -> f64 {
        self.state
            .thermal
            .as_ref()
            .map(|t| t.temperature_c(s.index()))
            .unwrap_or(25.0)
    }

    /// Total thermal failover events so far.
    pub fn failover_events(&self) -> usize {
        self.state
            .thermal
            .as_ref()
            .map(|t| t.failover_events())
            .unwrap_or(0)
    }

    // ----- checkpointing --------------------------------------------------

    /// Captures the simulator's full dynamic state for checkpointing: a
    /// clone of its state and its actuators, and the per-VM observations
    /// as flat words.
    ///
    /// Static structure (topology, models, traces, config) is *not*
    /// captured — a restore target is rebuilt from the same experiment
    /// configuration first.
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            state: self.state.clone(),
            act: self.act.clone(),
            vm_obs: FloatBits(
                self.vm_obs
                    .iter()
                    .flat_map(|o| [o.demand, o.granted, o.delivered])
                    .collect(),
            ),
        }
    }

    /// Checks that `snap` has this simulation's shape: one entry per
    /// server, VM (three words each for the observations) or enclosure
    /// in every array, every host and P-state index in range, and
    /// resident lists that match the placement (each VM listed once, on
    /// its host). [`Simulation::restore`] replaces its arrays wholesale,
    /// so a snapshot that fails this would otherwise drop or keep a tail
    /// silently, or panic many ticks later. Only the `listed` scratch is
    /// written.
    fn fits(&mut self, snap: &SimSnapshot) -> Result<()> {
        let servers = self.topo.num_servers();
        let vms = self.num_vms();
        let thermal_servers = self.state.thermal.as_ref().map_or(0, |_| servers);
        let st = &snap.state;
        let (temps, failed) = st.thermal.as_ref().map_or((0, 0), ThermalState::shape);
        let lengths = [
            ("state.placement.host", st.placement.num_vms(), vms),
            ("state.residents", st.residents.len(), servers),
            ("state.on", st.on.len(), servers),
            ("act.pstate", snap.act.pstate.len(), servers),
            ("state.mig_until", st.mig_until.len(), vms),
            ("state.boot_until", st.boot_until.len(), servers),
            ("state.util", st.util.len(), servers),
            ("state.power", st.power.len(), servers),
            ("state.cum_power", st.cum_power.len(), servers),
            (
                "state.cum_enc_power",
                st.cum_enc_power.len(),
                self.topo.num_enclosures(),
            ),
            ("state.cum_util", st.cum_util.len(), servers),
            ("state.cum_delivered", st.cum_delivered.len(), vms),
            ("state.cum_demand", st.cum_demand.len(), vms),
            ("state.thermal.temps_c", temps, thermal_servers),
            ("state.thermal.failed", failed, thermal_servers),
            ("vm_obs", snap.vm_obs.len(), 3 * vms),
        ];
        if let Some(&(field, found, expected)) = lengths.iter().find(|(_, f, e)| f != e) {
            return Err(SimError::SnapshotLength {
                field,
                found,
                expected,
            });
        }
        let entry = |field, index| Err(SimError::SnapshotEntry { field, index });
        let pstate = &snap.act.pstate;
        if let Some(s) = (0..servers).find(|&s| pstate[s].index() >= self.table.num_pstates(s)) {
            return entry("act.pstate", s);
        }
        if let Some((vm, _)) = st
            .placement
            .iter()
            .find(|(_, host)| host.index() >= servers)
        {
            return entry("state.placement.host", vm.index());
        }
        let listed = &mut self.listed;
        listed.clear();
        listed.resize(vms, false);
        for (s, list) in st.residents.iter().enumerate() {
            for &vm in list.iter() {
                let j = vm.index();
                if j >= vms || listed[j] || st.placement.host_of(vm).index() != s {
                    return entry("state.residents", s);
                }
                listed[j] = true;
            }
        }
        if let Some(vm) = listed.iter().position(|&l| !l) {
            // Its host's resident list leaves it out.
            return entry("state.placement.host", vm);
        }
        Ok(())
    }

    /// Restores state captured by [`Simulation::snapshot`]. The target
    /// must have been built from the same topology, models, traces, and
    /// config.
    ///
    /// The snapshot's shape is checked (array lengths, host, P-state and
    /// resident indices) before anything is assigned, so a misshapen
    /// snapshot is an error that leaves the simulator untouched. The
    /// same-tick write flags are cleared, as a step clears them: the
    /// target may have written P-states since it was built.
    pub fn restore(&mut self, snap: &SimSnapshot) -> Result<()> {
        self.fits(snap)?;
        self.state.clone_from(&snap.state);
        self.act.clone_from(&snap.act);
        self.written.fill(false);
        self.vm_obs.clear();
        self.vm_obs
            .extend(snap.vm_obs.chunks_exact(3).map(|c| VmObservation {
                demand: c[0],
                granted: c[1],
                delivered: c[2],
            }));
        Ok(())
    }
}

/// The one "powered on and not thermally failed" test behind
/// [`Simulation::is_on`] and both epoch views.
#[inline]
fn powered(on: &[bool], thermal: Option<&ThermalState>, i: usize) -> bool {
    on[i] && thermal.map(|t| !t.is_failed(i)).unwrap_or(true)
}

/// The one P-state write behind [`Simulation::set_pstate`] and
/// [`ActuatorShard::set_pstate`]: clamp to server `i`'s deepest state,
/// count a differing repeat write within the tick as a conflict, and let
/// the last writer win.
#[inline]
fn write_pstate(
    table: &ModelTable,
    i: usize,
    p: PState,
    pstate: &mut PState,
    written: &mut bool,
    conflicts: &mut u64,
) {
    let p = PState(p.index().min(table.num_pstates(i) - 1));
    if *written && *pstate != p {
        *conflicts += 1;
    }
    *written = true;
    *pstate = p;
}

/// Read-only facts shared with every worker during a parallel
/// controller epoch. Borrowed from the simulator by
/// [`Simulation::epoch_shards`]; all slices are indexed by global
/// server id.
#[derive(Debug, Clone, Copy)]
pub struct SimEpochView<'a> {
    on: &'a [bool],
    thermal: Option<&'a ThermalState>,
    util: &'a [f64],
    cum_power: &'a [f64],
    cum_enc_power: &'a [f64],
    cum_util: &'a [f64],
    tick: u64,
}

impl<'a> SimEpochView<'a> {
    fn new(st: &'a SimState) -> Self {
        Self {
            on: &st.on,
            thermal: st.thermal.as_ref(),
            util: &st.util,
            cum_power: &st.cum_power,
            cum_enc_power: &st.cum_enc_power,
            cum_util: &st.cum_util,
            tick: st.tick,
        }
    }

    /// Same as [`Simulation::is_on`].
    #[inline]
    pub fn is_on(&self, s: ServerId) -> bool {
        powered(self.on, self.thermal, s.index())
    }

    /// Same as [`Simulation::server_utilization`].
    #[inline]
    pub fn server_utilization(&self, s: ServerId) -> f64 {
        self.util[s.index()]
    }

    /// Same as [`Simulation::cumulative_power`].
    #[inline]
    pub fn cumulative_power(&self, s: ServerId) -> f64 {
        self.cum_power[s.index()]
    }

    /// Same as [`Simulation::cumulative_enclosure_power`].
    #[inline]
    pub fn cumulative_enclosure_power(&self, e: EnclosureId) -> f64 {
        self.cum_enc_power[e.index()]
    }

    /// Same as [`Simulation::cumulative_utilization`].
    #[inline]
    pub fn cumulative_utilization(&self, s: ServerId) -> f64 {
        self.cum_util[s.index()]
    }

    /// The current tick ([`Simulation::now`]).
    pub fn now(&self) -> u64 {
        self.tick
    }
}

/// Read-only per-VM facts shared with every worker during the runner's
/// parallel per-tick VMC accumulation. Borrowed from the simulator by
/// [`Simulation::vm_view`]; verdicts are bit-identical to the
/// corresponding [`Simulation`] accessors.
#[derive(Debug, Clone, Copy)]
pub struct VmView<'a> {
    obs: &'a [VmObservation],
    placement: &'a Placement,
    on: &'a [bool],
    thermal: Option<&'a ThermalState>,
    pstate: &'a [PState],
    table: &'a ModelTable,
}

impl VmView<'_> {
    /// Same as [`Simulation::real_vm_utilization`].
    #[inline]
    pub fn real_vm_utilization(&self, vm: VmId) -> f64 {
        self.obs[vm.index()].granted
    }

    /// Same as [`Simulation::apparent_vm_utilization`].
    #[inline]
    pub fn apparent_vm_utilization(&self, vm: VmId) -> f64 {
        let host = self.placement.host_of(vm);
        let i = host.index();
        let cap = if powered(self.on, self.thermal, i) {
            self.table.capacity(i, self.pstate[i].index())
        } else {
            0.0
        };
        if cap <= 0.0 {
            0.0
        } else {
            (self.obs[vm.index()].granted / cap).min(1.0)
        }
    }
}

/// Hands out [`ActuatorShard`]s over consecutive server ranges; produced
/// by [`Simulation::epoch_shards`].
#[derive(Debug)]
pub struct ActuatorCarve<'a> {
    table: &'a ModelTable,
    pstate: Carve<'a, PState>,
    written: Carve<'a, bool>,
}

impl<'a> ActuatorCarve<'a> {
    /// The actuator shard for server `range`.
    #[inline]
    pub fn take(&mut self, range: Range<usize>) -> ActuatorShard<'a> {
        ActuatorShard {
            lo: range.start,
            table: self.table,
            pstate: self.pstate.take(range.clone()),
            written: self.written.take(range),
            conflicts: 0,
        }
    }
}

/// One shard's exclusive slice of the simulator's actuation state
/// (P-states and same-tick write flags) during a sharded epoch.
/// Indices are global server ids. The shard counts its own conflicts;
/// the caller adds the count to the simulator's after the epoch
/// ([`Simulation::add_pstate_conflicts`]).
#[derive(Debug)]
pub struct ActuatorShard<'a> {
    /// First global server id of this shard.
    lo: usize,
    table: &'a ModelTable,
    pstate: &'a mut [PState],
    written: &'a mut [bool],
    conflicts: u64,
}

impl ActuatorShard<'_> {
    /// Current P-state of `s` (must lie in this shard) — same as
    /// [`Simulation::pstate`].
    #[inline]
    pub fn pstate(&self, s: ServerId) -> PState {
        self.pstate[s.index() - self.lo]
    }

    /// Writes the P-state of `s` — the one write body of
    /// [`Simulation::set_pstate`].
    #[inline]
    pub fn set_pstate(&mut self, s: ServerId, p: PState) {
        let k = s.index() - self.lo;
        write_pstate(
            self.table,
            s.index(),
            p,
            &mut self.pstate[k],
            &mut self.written[k],
            &mut self.conflicts,
        );
    }

    /// Conflicting P-state writes this shard has made.
    #[inline]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }
}

/// The simulator's checkpointed state but its actuators, kept whole by
/// [`Simulation`]: floats as IEEE-754 bit words, VM ids as their
/// indices. `clone_from` reuses every buffer, so a restore allocates
/// nothing while each resident list fits its live capacity.
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimState {
    /// The `X` matrix.
    pub placement: Placement,
    /// Per-server resident VM lists, insertion order preserved: it
    /// fixes the float summation order of the hot loop, which
    /// bit-exactness depends on. Written as CSR words.
    pub residents: ResidentLists,
    /// Per-server power switch.
    pub on: Vec<bool>,
    /// Per-VM migration-penalty end ticks.
    pub mig_until: Vec<u64>,
    /// Per-server boot-window end ticks.
    pub boot_until: Vec<u64>,
    /// Completed steps.
    pub tick: u64,
    /// Last-tick utilization.
    pub util: FloatBits,
    /// Last-tick power.
    pub power: FloatBits,
    /// Cumulative server power.
    pub cum_power: FloatBits,
    /// Cumulative enclosure power.
    pub cum_enc_power: FloatBits,
    /// Cumulative utilization.
    pub cum_util: FloatBits,
    /// Cumulative delivered work.
    pub cum_delivered: FloatBits,
    /// Cumulative demand.
    pub cum_demand: FloatBits,
    /// Migration counter.
    pub migrations_started: u64,
    /// Thermal state, if tracking is enabled.
    pub thermal: Option<ThermalState>,
}

clone_in_place!(SimState {
    placement,
    residents,
    on,
    mig_until,
    boot_until,
    tick,
    util,
    power,
    cum_power,
    cum_enc_power,
    cum_util,
    cum_delivered,
    cum_demand,
    migrations_started,
    thermal,
});

/// The simulator's P-state actuators, kept whole by [`Simulation`]
/// beside its [`SimState`].
#[derive(Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Actuators {
    /// Per-server P-states, as their indices.
    pub pstate: PStates,
    /// Same-tick conflicting P-state writes so far — the "power
    /// struggle" signature of uncoordinated deployments.
    pub conflicts: u64,
}

clone_in_place!(Actuators { pstate, conflicts });

/// The simulator's full dynamic state (checkpoint section).
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimSnapshot {
    /// Every array and counter the simulator keeps in its state.
    pub state: SimState,
    /// The P-state actuators.
    pub act: Actuators,
    /// Per-VM observations, three words (demand, granted, delivered) each.
    pub vm_obs: FloatBits,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thermal::ThermalConfig;

    fn traces(demands: &[f64]) -> Vec<UtilTrace> {
        demands
            .iter()
            .enumerate()
            .map(|(i, &d)| UtilTrace::constant(format!("w{i}"), d, 10).unwrap())
            .collect()
    }

    fn small_sim(demands: &[f64]) -> Simulation {
        let topo = Topology::builder().standalone(demands.len()).build();
        Simulation::new(
            topo,
            ServerModel::blade_a(),
            traces(demands),
            SimConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn construction_validates_inputs() {
        let topo = Topology::builder().standalone(2).build();
        assert!(matches!(
            Simulation::new(
                topo.clone(),
                ServerModel::blade_a(),
                vec![],
                SimConfig::default()
            ),
            Err(SimError::NoWorkloads)
        ));
        let bad_models = Simulation::with_models_and_placement(
            topo.clone(),
            vec![ServerModel::blade_a()],
            traces(&[0.5, 0.5]),
            Placement::one_per_server(2, 2),
            SimConfig::default(),
        );
        assert!(matches!(
            bad_models,
            Err(SimError::ModelCountMismatch { .. })
        ));
        let bad_placement = Simulation::with_models_and_placement(
            topo,
            vec![ServerModel::blade_a(); 2],
            traces(&[0.5, 0.5]),
            Placement::one_per_server(3, 2),
            SimConfig::default(),
        );
        assert!(matches!(
            bad_placement,
            Err(SimError::PlacementSizeMismatch { .. })
        ));
    }

    #[test]
    fn utilization_includes_virtualization_overhead() {
        let mut sim = small_sim(&[0.5]);
        sim.step();
        // At P0 capacity 1.0: util = 0.5 · 1.1 = 0.55.
        assert!((sim.server_utilization(ServerId(0)) - 0.55).abs() < 1e-12);
        assert!((sim.vm(VmId(0)).delivered - 0.5).abs() < 1e-12);
    }

    #[test]
    fn throttled_server_raises_utilization() {
        let mut sim = small_sim(&[0.4]);
        sim.set_pstate(ServerId(0), PState(4)); // capacity 0.533
        sim.step();
        // util = 0.4·1.1 / 0.533 ≈ 0.8255
        assert!((sim.server_utilization(ServerId(0)) - 0.44 / 0.533).abs() < 1e-9);
        // Demand fits: full delivery.
        assert!((sim.vm(VmId(0)).delivered - 0.4).abs() < 1e-12);
    }

    #[test]
    fn saturation_shares_capacity_proportionally() {
        // Two VMs (0.6 and 0.3 demand) on one server at P4 (cap 0.533).
        let topo = Topology::builder().standalone(1).build();
        let mut sim = Simulation::with_models_and_placement(
            topo,
            vec![ServerModel::blade_a()],
            traces(&[0.6, 0.3]),
            Placement::from_hosts(vec![ServerId(0), ServerId(0)]),
            SimConfig::default(),
        )
        .unwrap();
        sim.set_pstate(ServerId(0), PState(4));
        sim.step();
        let load = (0.6 + 0.3) * 1.1;
        let share = 0.533 / load;
        assert!((sim.vm(VmId(0)).delivered - 0.6 * share).abs() < 1e-9);
        assert!((sim.vm(VmId(1)).delivered - 0.3 * share).abs() < 1e-9);
        assert_eq!(sim.server_utilization(ServerId(0)), 1.0);
    }

    #[test]
    fn power_tracks_model() {
        let mut sim = small_sim(&[0.5]);
        sim.step();
        let expected = ServerModel::blade_a().power(0, 0.55);
        assert!((sim.server_power(ServerId(0)) - expected).abs() < 1e-9);
    }

    #[test]
    fn off_server_delivers_nothing_and_draws_off_power() {
        let topo = Topology::builder().standalone(2).build();
        let mut sim = Simulation::with_models_and_placement(
            topo,
            vec![ServerModel::blade_a(); 2],
            traces(&[0.5]),
            Placement::from_hosts(vec![ServerId(0)]),
            SimConfig::default(),
        )
        .unwrap();
        sim.power_off(ServerId(1)).unwrap();
        sim.step();
        assert_eq!(sim.server_power(ServerId(1)), 0.0);
        assert!(sim.server_power(ServerId(0)) > 0.0);
    }

    #[test]
    fn power_off_refuses_populated_server() {
        let mut sim = small_sim(&[0.5]);
        assert!(matches!(
            sim.power_off(ServerId(0)),
            Err(SimError::ServerNotEmpty { vms: 1, .. })
        ));
    }

    #[test]
    fn migration_moves_vm_and_applies_penalty() {
        let topo = Topology::builder().standalone(2).build();
        let cfg = SimConfig {
            migration_ticks: 3,
            ..SimConfig::default()
        };
        let mut sim = Simulation::with_models_and_placement(
            topo,
            vec![ServerModel::blade_a(); 2],
            traces(&[0.5]),
            Placement::from_hosts(vec![ServerId(0)]),
            cfg,
        )
        .unwrap();
        sim.migrate(VmId(0), ServerId(1)).unwrap();
        assert_eq!(sim.placement().host_of(VmId(0)), ServerId(1));
        // Penalty window: 3 ticks at 10% loss.
        sim.step();
        assert!((sim.vm(VmId(0)).delivered - 0.45).abs() < 1e-12);
        sim.step();
        sim.step();
        assert!((sim.vm(VmId(0)).delivered - 0.45).abs() < 1e-12);
        sim.step();
        assert!((sim.vm(VmId(0)).delivered - 0.5).abs() < 1e-12);
        assert_eq!(sim.migrations_started(), 1);
    }

    #[test]
    fn migrate_to_off_server_rejected() {
        let topo = Topology::builder().standalone(2).build();
        let mut sim = Simulation::with_models_and_placement(
            topo,
            vec![ServerModel::blade_a(); 2],
            traces(&[0.5]),
            Placement::from_hosts(vec![ServerId(0)]),
            SimConfig::default(),
        )
        .unwrap();
        sim.power_off(ServerId(1)).unwrap();
        assert!(matches!(
            sim.migrate(VmId(0), ServerId(1)),
            Err(SimError::ServerOff(_))
        ));
    }

    #[test]
    fn same_tick_pstate_conflicts_are_counted() {
        let mut sim = small_sim(&[0.5]);
        sim.set_pstate(ServerId(0), PState(2)); // EC writes
        sim.set_pstate(ServerId(0), PState(4)); // SM overwrites: conflict
        assert_eq!(sim.pstate_conflicts(), 1);
        sim.set_pstate(ServerId(0), PState(4)); // same value: no conflict
        assert_eq!(sim.pstate_conflicts(), 1);
        sim.step();
        sim.set_pstate(ServerId(0), PState(0)); // new tick: no conflict
        assert_eq!(sim.pstate_conflicts(), 1);
        assert_eq!(sim.pstate(ServerId(0)), PState(0));
        // A restore clears the flags as a step does.
        let snap = sim.snapshot();
        sim.restore(&snap).unwrap();
        sim.set_pstate(ServerId(0), PState(3));
        assert_eq!(sim.pstate_conflicts(), 1);

        // Two shards of one sharded epoch: each counts its own
        // conflicts, and the sum lands in the simulator's counter.
        let mut sim = small_sim(&[0.5, 0.5, 0.5]);
        let counts = {
            let (_, mut carve) = sim.epoch_shards();
            let mut a = carve.take(0..1);
            let mut b = carve.take(1..3);
            a.set_pstate(ServerId(0), PState(2));
            a.set_pstate(ServerId(0), PState(4)); // conflict
            b.set_pstate(ServerId(1), PState(1));
            b.set_pstate(ServerId(1), PState(1)); // same value: none
            b.set_pstate(ServerId(2), PState(3));
            b.set_pstate(ServerId(2), PState(0)); // conflict
            b.set_pstate(ServerId(2), PState(1)); // conflict
            assert_eq!(b.pstate(ServerId(2)), PState(1));
            [a.conflicts(), b.conflicts()]
        };
        assert_eq!(counts, [1, 2]);
        counts.into_iter().for_each(|n| sim.add_pstate_conflicts(n));
        assert_eq!(sim.pstate_conflicts(), 3);
        // The shards' writes set the same flags a direct write reads.
        sim.set_pstate(ServerId(1), PState(2));
        assert_eq!(sim.pstate_conflicts(), 4);
        sim.step();
        sim.set_pstate(ServerId(1), PState(0));
        assert_eq!(sim.pstate_conflicts(), 4);
    }

    #[test]
    fn apparent_vs_real_utilization() {
        let mut sim = small_sim(&[0.4]);
        sim.set_pstate(ServerId(0), PState(4)); // capacity 0.533
        sim.step();
        let real = sim.real_vm_utilization(VmId(0));
        let apparent = sim.apparent_vm_utilization(VmId(0));
        assert!((real - 0.4).abs() < 1e-12);
        assert!((apparent - 0.4 / 0.533).abs() < 1e-9);
        assert!(apparent > real, "throttled host inflates apparent util");
    }

    #[test]
    fn cumulative_accumulators_sum_per_tick_values() {
        let mut sim = small_sim(&[0.5]);
        let mut total_power = 0.0;
        for _ in 0..5 {
            sim.step();
            total_power += sim.server_power(ServerId(0));
        }
        assert!((sim.cumulative_power(ServerId(0)) - total_power).abs() < 1e-9);
        assert!((sim.total_energy() - total_power).abs() < 1e-9);
        assert!((sim.cumulative_demand(VmId(0)) - 2.5).abs() < 1e-12);
        assert!((sim.cumulative_delivered(VmId(0)) - 2.5).abs() < 1e-12);
    }

    #[test]
    fn enclosure_and_group_power_aggregate() {
        let topo = Topology::builder().enclosure(2).standalone(1).build();
        let mut sim = Simulation::with_models_and_placement(
            topo,
            vec![ServerModel::blade_a(); 3],
            traces(&[0.2, 0.2, 0.2]),
            Placement::one_per_server(3, 3),
            SimConfig::default(),
        )
        .unwrap();
        sim.step();
        let enc = sim.enclosure_power(EnclosureId(0));
        let grp = sim.group_power();
        let s: f64 = (0..3).map(|i| sim.server_power(ServerId(i))).sum();
        assert!((grp - s).abs() < 1e-9);
        assert!(
            (enc - (sim.server_power(ServerId(0)) + sim.server_power(ServerId(1)))).abs() < 1e-9
        );
    }

    #[test]
    fn sustained_overload_trips_thermal_failover_and_kills_delivery() {
        let model = ServerModel::blade_a();
        let cap = 0.9 * model.max_power();
        let cfg =
            SimConfig::default().with_thermal(ThermalConfig::for_budget(model.max_power(), cap));
        let topo = Topology::builder().standalone(1).build();
        let traces = vec![UtilTrace::constant("hot", 1.0, 10).unwrap()];
        let mut sim = Simulation::new(topo, model, traces, cfg).unwrap();
        for _ in 0..3_000 {
            sim.step();
        }
        assert_eq!(sim.failover_events(), 1);
        assert!(!sim.is_on(ServerId(0)));
        sim.step();
        assert_eq!(sim.vm(VmId(0)).delivered, 0.0);
        assert_eq!(sim.server_power(ServerId(0)), 0.0);
    }

    #[test]
    fn pstate_out_of_range_clamps_to_deepest() {
        let mut sim = small_sim(&[0.1]);
        sim.set_pstate(ServerId(0), PState(99));
        assert_eq!(sim.pstate(ServerId(0)), PState(4));
    }

    #[test]
    fn snapshot_restore_resumes_bit_exactly() {
        let mut live = small_sim(&[0.3, 0.6, 0.9]);
        for _ in 0..7 {
            live.step();
        }
        live.set_pstate(ServerId(1), PState(3));
        // Serialize mid-run, restore into a freshly built twin, and
        // require bit-identical trajectories from there on.
        let json = serde_json::to_string(&live.snapshot()).unwrap();
        let snap: SimSnapshot = serde_json::from_str(&json).unwrap();
        let mut resumed = small_sim(&[0.3, 0.6, 0.9]);
        resumed.restore(&snap).unwrap();
        assert_eq!(resumed.now(), live.now());
        for _ in 0..20 {
            live.step();
            resumed.step();
            for i in 0..3 {
                assert_eq!(
                    live.server_power(ServerId(i)).to_bits(),
                    resumed.server_power(ServerId(i)).to_bits()
                );
            }
        }
        assert_eq!(
            live.total_energy().to_bits(),
            resumed.total_energy().to_bits()
        );
    }

    #[test]
    fn snapshot_after_migrations_keeps_resident_insertion_order() {
        // Five VMs over three servers; migrations append to the
        // destination's list, so server 1 ends up holding [1, 4, 0, 2].
        let topo = Topology::builder().standalone(3).build();
        let mut sim = Simulation::with_models_and_placement(
            topo,
            vec![ServerModel::blade_a(); 3],
            traces(&[0.1, 0.2, 0.1, 0.3, 0.2]),
            Placement::from_hosts([0, 1, 2, 0, 1].map(ServerId).to_vec()),
            SimConfig::default(),
        )
        .unwrap();
        sim.step();
        for vm in [0, 2] {
            sim.migrate(VmId(vm), ServerId(1)).unwrap();
            sim.step();
        }
        let lists = |sim: &Simulation| -> Vec<Vec<usize>> {
            (0..3)
                .map(|s| {
                    sim.residents(ServerId(s))
                        .iter()
                        .map(|vm| vm.index())
                        .collect()
                })
                .collect()
        };
        assert_eq!(lists(&sim), [vec![3], vec![1, 4, 0, 2], vec![]]);
        let snap = sim.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        assert!(json.contains(r#""residents":{"len":[1,4,0],"vms":[3,1,4,0,2]}"#));
        let back: SimSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let mut resumed = Simulation::with_models_and_placement(
            Topology::builder().standalone(3).build(),
            vec![ServerModel::blade_a(); 3],
            traces(&[0.1, 0.2, 0.1, 0.3, 0.2]),
            Placement::from_hosts([0, 1, 2, 0, 1].map(ServerId).to_vec()),
            SimConfig::default(),
        )
        .unwrap();
        resumed.restore(&back).unwrap();
        assert_eq!(lists(&resumed), lists(&sim));
        assert_eq!(resumed.snapshot(), snap);
        for _ in 0..5 {
            sim.step();
            resumed.step();
        }
        assert_eq!(
            resumed.total_energy().to_bits(),
            sim.total_energy().to_bits()
        );
    }

    #[test]
    fn restore_rejects_a_misshapen_snapshot_before_assigning() {
        let mut live = small_sim(&[0.3, 0.6, 0.9]);
        for _ in 0..5 {
            live.step();
        }
        let good = live.snapshot();
        type Edit = fn(&mut SimSnapshot);
        let edits: [(Edit, SimError); 6] = [
            (
                |s| {
                    s.vm_obs.pop();
                },
                SimError::SnapshotLength {
                    field: "vm_obs",
                    found: 8,
                    expected: 9,
                },
            ),
            (
                |s| s.state.on.push(true),
                SimError::SnapshotLength {
                    field: "state.on",
                    found: 4,
                    expected: 3,
                },
            ),
            (
                |s| s.act.pstate[2] = PState(99),
                SimError::SnapshotEntry {
                    field: "act.pstate",
                    index: 2,
                },
            ),
            (
                |s| s.state.residents[0][0] = VmId(7),
                SimError::SnapshotEntry {
                    field: "state.residents",
                    index: 0,
                },
            ),
            (
                |s| s.state.residents.swap(0, 1),
                SimError::SnapshotEntry {
                    field: "state.residents",
                    index: 0,
                },
            ),
            (
                |s| {
                    s.state.placement =
                        Placement::from_hosts(vec![ServerId(0), ServerId(9), ServerId(2)])
                },
                SimError::SnapshotEntry {
                    field: "state.placement.host",
                    index: 1,
                },
            ),
        ];
        let mut target = small_sim(&[0.3, 0.6, 0.9]);
        target.step();
        let before = target.snapshot();
        for (edit, want) in edits {
            let mut bad = good.clone();
            edit(&mut bad);
            assert_eq!(target.restore(&bad), Err(want));
            assert_eq!(target.snapshot(), before);
        }
        target.restore(&good).unwrap();
        assert_eq!(target.snapshot(), good);
    }

    #[test]
    fn sharded_step_is_bit_identical_to_one_shard() {
        // Multi-rack topology with a standalone tail, multiple VMs per
        // server, thermal tracking, and mid-run actuation — every code
        // path of the sharded phase.
        let topo = Topology::multi_rack(3, 2, 4, 5);
        let n = topo.num_servers();
        let model = ServerModel::blade_a();
        let cfg = SimConfig::default()
            .with_thermal(ThermalConfig::for_budget(
                model.max_power(),
                0.95 * model.max_power(),
            ))
            .with_boot_delay(2);
        let vm_traces: Vec<UtilTrace> = (0..n + 7)
            .map(|j| {
                UtilTrace::constant(format!("w{j}"), 0.1 + 0.8 * (j as f64 / (n + 7) as f64), 50)
                    .unwrap()
            })
            .collect();
        let placement = Placement::one_per_server(vm_traces.len(), n);
        let mut seq = Simulation::with_models_and_placement(
            topo.clone(),
            vec![model.clone(); n],
            vm_traces.clone(),
            placement.clone(),
            cfg,
        )
        .unwrap();
        let mut par = Simulation::with_models_and_placement(
            topo.clone(),
            vec![model; n],
            vm_traces,
            placement,
            cfg,
        )
        .unwrap();
        let shards = topo.shard_ranges(6);
        let shard_encs = topo.shard_enclosures(&shards);
        for threads in [2usize, 4, 7] {
            let pool = WorkerPool::new(threads);
            for step in 0..40u64 {
                if step == 5 {
                    seq.set_pstate(ServerId(1), PState(3));
                    par.set_pstate(ServerId(1), PState(3));
                }
                if step == 9 {
                    seq.migrate(VmId(0), ServerId(2)).unwrap();
                    par.migrate(VmId(0), ServerId(2)).unwrap();
                }
                seq.step();
                par.step_sharded(Some(&pool), &shards, &shard_encs);
                for i in 0..n {
                    let s = ServerId(i);
                    assert_eq!(
                        seq.server_power(s).to_bits(),
                        par.server_power(s).to_bits(),
                        "power diverged at server {i} step {step} ({threads} threads)"
                    );
                    assert_eq!(
                        seq.cumulative_utilization(s).to_bits(),
                        par.cumulative_utilization(s).to_bits()
                    );
                }
                for j in 0..seq.num_vms() {
                    assert_eq!(seq.vm(VmId(j)), par.vm(VmId(j)));
                    assert_eq!(
                        seq.cumulative_delivered(VmId(j)).to_bits(),
                        par.cumulative_delivered(VmId(j)).to_bits()
                    );
                }
            }
            assert_eq!(seq.total_energy().to_bits(), par.total_energy().to_bits());
            assert_eq!(seq.snapshot(), par.snapshot());
        }
    }

    #[test]
    fn deterministic_across_clones() {
        let mut a = small_sim(&[0.3, 0.6]);
        let mut b = a.clone();
        for _ in 0..10 {
            a.step();
            b.step();
        }
        assert_eq!(a.total_energy(), b.total_energy());
        assert_eq!(a.vm(VmId(1)), b.vm(VmId(1)));
    }
}

#[cfg(test)]
mod boot_and_enclosure_tests {
    use super::*;
    use nps_traces::UtilTrace;

    #[test]
    fn booting_server_burns_idle_power_but_delivers_nothing() {
        let topo = Topology::builder().standalone(2).build();
        let cfg = SimConfig::default().with_boot_delay(3);
        let mut sim = Simulation::with_models_and_placement(
            topo,
            vec![ServerModel::blade_a(); 2],
            vec![UtilTrace::constant("w", 0.5, 10).unwrap()],
            Placement::from_hosts(vec![ServerId(0)]),
            cfg,
        )
        .unwrap();
        sim.power_off(ServerId(1)).unwrap();
        sim.step();
        sim.power_on(ServerId(1)).unwrap();
        assert!(sim.is_booting(ServerId(1)));
        sim.migrate(VmId(0), ServerId(1)).unwrap();
        // Boot window: 3 ticks of idle burn, zero delivery.
        for _ in 0..3 {
            sim.step();
            assert_eq!(sim.vm(VmId(0)).delivered, 0.0);
            assert_eq!(
                sim.server_power(ServerId(1)),
                ServerModel::blade_a().idle_power(0)
            );
            assert_eq!(sim.server_utilization(ServerId(1)), 0.0);
        }
        sim.step();
        assert!(!sim.is_booting(ServerId(1)));
        assert!(sim.vm(VmId(0)).delivered > 0.0);
    }

    #[test]
    fn zero_boot_delay_is_instant() {
        let topo = Topology::builder().standalone(1).build();
        let mut sim = Simulation::new(
            topo,
            ServerModel::blade_a(),
            vec![UtilTrace::constant("w", 0.4, 10).unwrap()],
            SimConfig::default(),
        )
        .unwrap();
        assert!(!sim.is_booting(ServerId(0)));
        sim.step();
        assert!(sim.vm(VmId(0)).delivered > 0.0);
    }

    #[test]
    fn enclosure_base_power_counts_at_every_level() {
        let topo = Topology::builder().enclosure(2).standalone(1).build();
        let cfg = SimConfig::default().with_enclosure_base(50.0);
        let mut sim = Simulation::with_models_and_placement(
            topo,
            vec![ServerModel::blade_a(); 3],
            vec![UtilTrace::constant("w", 0.2, 10).unwrap(); 3],
            Placement::one_per_server(3, 3),
            cfg,
        )
        .unwrap();
        sim.step();
        let members = sim.server_power(ServerId(0)) + sim.server_power(ServerId(1));
        assert!((sim.enclosure_power(EnclosureId(0)) - members - 50.0).abs() < 1e-9);
        let servers: f64 = (0..3).map(|i| sim.server_power(ServerId(i))).sum();
        assert!((sim.group_power() - servers - 50.0).abs() < 1e-9);
        sim.step();
        assert!(
            (sim.cumulative_enclosure_power(EnclosureId(0))
                - 2.0 * sim.enclosure_power(EnclosureId(0)))
            .abs()
                < 1e-9
        );
        assert!((sim.total_energy() - 2.0 * sim.group_power()).abs() < 1e-9);
    }
}
