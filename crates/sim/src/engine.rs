//! The tick-driven simulation engine.

use std::ops::Range;

use nps_models::{ModelTable, PState, ServerModel};
use nps_traces::UtilTrace;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::events::{Event, EventLog, EventLogError, EventLogSnapshot};
use crate::ids::{EnclosureId, ServerId, VmId};
use crate::placement::Placement;
use crate::reduce;
use crate::thermal::ThermalState;
use crate::topology::Topology;
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
/// conflicts for diagnosis.
#[derive(Debug, Clone)]
pub struct Simulation {
    cfg: SimConfig,
    topo: Topology,
    models: Vec<ServerModel>,
    /// Flattened structure-of-arrays view of `models`, used by the
    /// per-tick hot loop (bit-identical to the per-object lookups).
    table: ModelTable,
    traces: Vec<UtilTrace>,
    placement: Placement,
    residents: Vec<Vec<VmId>>,
    on: Vec<bool>,
    pstate: Vec<PState>,
    mig_until: Vec<u64>,
    boot_until: Vec<u64>,
    tick: u64,
    // Last-tick observations.
    util: Vec<f64>,
    power: Vec<f64>,
    vm_obs: Vec<VmObservation>,
    // Cumulative accumulators (units: value·ticks).
    cum_power: Vec<f64>,
    cum_enc_power: Vec<f64>,
    cum_util: Vec<f64>,
    cum_granted: Vec<f64>,
    cum_delivered: Vec<f64>,
    cum_demand: Vec<f64>,
    // Actuation-conflict diagnosis.
    pstate_written_this_tick: Vec<bool>,
    pstate_conflicts: u64,
    migrations_started: u64,
    thermal: Option<ThermalState>,
    events: EventLog,
    /// Reusable per-shard `(vm, granted, delivered)` buffers for
    /// [`Simulation::step_parallel`]. Pure scratch: cleared before every
    /// use, never snapshotted, irrelevant to equality of trajectories.
    scratch_vm_out: Vec<Vec<(usize, f64, f64)>>,
    /// Reusable per-enclosure member-power sums for the sharded
    /// enclosure aggregation in [`Simulation::step_parallel`]. Pure
    /// scratch, like `scratch_vm_out`.
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
    /// explicit initial placement.
    pub fn with_models_and_placement(
        topo: Topology,
        models: Vec<ServerModel>,
        traces: Vec<UtilTrace>,
        placement: Placement,
        cfg: SimConfig,
    ) -> Result<Self> {
        let n = topo.num_servers();
        if n == 0 {
            return Err(SimError::EmptyTopology);
        }
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
        let mut residents = vec![Vec::new(); n];
        for (vm, host) in placement.iter() {
            topo.check_server(host)?;
            residents[host.index()].push(vm);
        }
        let thermal = cfg.thermal.map(|tc| ThermalState::new(tc, n));
        let num_vms = traces.len();
        let num_enclosures = topo.num_enclosures();
        let table = ModelTable::from_models(&models);
        Ok(Self {
            cfg,
            topo,
            models,
            table,
            traces,
            placement,
            residents,
            on: vec![true; n],
            pstate: vec![PState::P0; n],
            mig_until: vec![0; num_vms],
            boot_until: vec![0; n],
            tick: 0,
            util: vec![0.0; n],
            power: vec![0.0; n],
            vm_obs: vec![VmObservation::default(); num_vms],
            cum_power: vec![0.0; n],
            cum_enc_power: vec![0.0; num_enclosures],
            cum_util: vec![0.0; n],
            cum_granted: vec![0.0; num_vms],
            cum_delivered: vec![0.0; num_vms],
            cum_demand: vec![0.0; num_vms],
            pstate_written_this_tick: vec![false; n],
            pstate_conflicts: 0,
            migrations_started: 0,
            thermal,
            events: EventLog::new(4_096),
            scratch_vm_out: Vec::new(),
            scratch_enc_sums: Vec::new(),
        })
    }

    // ----- time ---------------------------------------------------------

    /// Advances the simulation by one tick: samples every trace, shares
    /// capacity on each server, updates power, thermal state, and the
    /// cumulative accumulators.
    pub fn step(&mut self) {
        let t = self.tick;
        let alpha_v = self.cfg.alpha_v;
        // 1. Sample demands.
        for (j, trace) in self.traces.iter().enumerate() {
            let d = trace.demand_at(t);
            self.vm_obs[j].demand = d;
            self.cum_demand[j] += d;
        }
        // 2. Per-server capacity sharing and power.
        for i in 0..self.topo.num_servers() {
            let active = self.is_on(ServerId(i));
            let booting = active && self.boot_until[i] > t;
            let capacity = if active && !booting {
                self.table.capacity(i, self.pstate[i].index())
            } else {
                0.0
            };
            let load: f64 = self.residents[i]
                .iter()
                .map(|&vm| self.vm_obs[vm.index()].demand * (1.0 + alpha_v))
                .sum();
            let (util, share) = if !active || capacity <= 0.0 {
                (0.0, 0.0)
            } else if load <= 0.0 {
                (0.0, 1.0)
            } else {
                ((load / capacity).min(1.0), (capacity / load).min(1.0))
            };
            for &vm in &self.residents[i] {
                let j = vm.index();
                let granted = self.vm_obs[j].demand * share;
                let penalty = if self.mig_until[j] > t {
                    1.0 - self.cfg.alpha_m
                } else {
                    1.0
                };
                self.vm_obs[j].granted = granted;
                self.vm_obs[j].delivered = granted * penalty;
                self.cum_granted[j] += granted;
                self.cum_delivered[j] += self.vm_obs[j].delivered;
            }
            self.util[i] = util;
            self.power[i] = if booting {
                // A booting server burns idle power at its P-state but
                // does no work yet.
                self.table.idle_power(i, self.pstate[i].index())
            } else if active {
                self.table.power(i, self.pstate[i].index(), util)
            } else {
                self.cfg.off_power_watts
            };
            self.cum_power[i] += self.power[i];
            self.cum_util[i] += util;
        }
        // 3. Enclosure power (members + shared-infrastructure base).
        //    Member sums go through the fixed-shape reduction tree so the
        //    sequential and sharded paths share one combine order.
        for e in 0..self.topo.num_enclosures() {
            let servers = self.topo.enclosure_servers(EnclosureId(e));
            let members = reduce::tree_sum_by(servers.len(), |m| self.power[servers[m].index()]);
            self.cum_enc_power[e] += members + self.cfg.enclosure_base_watts;
        }
        // 4. Thermal.
        if let Some(thermal) = &mut self.thermal {
            for failed in thermal.step(&self.power) {
                self.events.record(
                    t,
                    Event::ThermalFailover {
                        server: ServerId(failed),
                    },
                );
            }
        }
        // 5. Bookkeeping.
        self.pstate_written_this_tick
            .iter_mut()
            .for_each(|w| *w = false);
        self.tick += 1;
    }

    /// Advances the simulation by one tick with the per-server physics
    /// phase sharded over `pool`. Bit-identical to [`Simulation::step`]:
    /// demand sampling stays sequential, workers run the *exact* same
    /// per-server arithmetic on disjoint slices (each server's float ops
    /// are independent of every other server's), per-VM results are
    /// buffered per shard (every VM lives on exactly one server, so its
    /// single accumulator add lands identically regardless of apply
    /// order), and enclosure/thermal aggregation runs sequentially after
    /// the barrier in the legacy order.
    ///
    /// `shards` must be an ascending, dense partition of the server
    /// range — use [`Topology::shard_ranges`].
    pub fn step_parallel(&mut self, pool: &crate::par::WorkerPool, shards: &[Range<usize>]) {
        use std::sync::Mutex;

        let t = self.tick;
        let alpha_v = self.cfg.alpha_v;
        let alpha_m = self.cfg.alpha_m;
        let off_power = self.cfg.off_power_watts;
        // 1. Sample demands (sequential: trace iteration order is the
        //    per-VM accumulator order).
        for (j, trace) in self.traces.iter().enumerate() {
            let d = trace.demand_at(t);
            self.vm_obs[j].demand = d;
            self.cum_demand[j] += d;
        }
        // 2. Per-server capacity sharing and power, sharded. Workers get
        //    disjoint `&mut` slices of the per-server arrays plus shared
        //    `&` views of everything they only read (`vm_obs` is read for
        //    `demand` alone, which phase 1 finalized).
        struct Shard<'a> {
            lo: usize,
            util: &'a mut [f64],
            power: &'a mut [f64],
            cum_power: &'a mut [f64],
            cum_util: &'a mut [f64],
            vm_out: Vec<(usize, f64, f64)>,
            /// First enclosure index this shard owns.
            enc_lo: usize,
            /// Member-power sums for the owned enclosures.
            enc_sums: &'a mut [f64],
        }
        // Enclosure → shard ownership for the sharded power sums: an
        // enclosure belongs to the shard that fully contains its (dense,
        // contiguous) member range. `Topology::shard_ranges` snaps cuts
        // to enclosure boundaries so every enclosure is owned, but this
        // API accepts arbitrary dense partitions — an enclosure split by
        // a shard boundary (or an empty one) is summed sequentially
        // after the barrier instead.
        let num_enc = self.topo.num_enclosures();
        let mut enc_ranges: Vec<Range<usize>> = Vec::with_capacity(shards.len());
        {
            let mut e = 0usize;
            for range in shards {
                while e < num_enc {
                    match self.topo.enclosure_servers(EnclosureId(e)).first() {
                        Some(s) if s.index() < range.start => e += 1,
                        _ => break,
                    }
                }
                let lo = e;
                while e < num_enc {
                    let members = self.topo.enclosure_servers(EnclosureId(e));
                    let fits = match (members.first(), members.last()) {
                        (Some(f), Some(l)) => f.index() >= range.start && l.index() < range.end,
                        _ => false,
                    };
                    if !fits {
                        break;
                    }
                    e += 1;
                }
                enc_ranges.push(lo..e);
            }
        }
        let mut scratch = std::mem::take(&mut self.scratch_vm_out);
        scratch.resize(shards.len(), Vec::new());
        let mut enc_scratch = std::mem::take(&mut self.scratch_enc_sums);
        enc_scratch.clear();
        enc_scratch.resize(num_enc, 0.0);
        let mut views: Vec<Mutex<Shard<'_>>> = Vec::with_capacity(shards.len());
        {
            let mut util = self.util.as_mut_slice();
            let mut power = self.power.as_mut_slice();
            let mut cum_power = self.cum_power.as_mut_slice();
            let mut cum_util = self.cum_util.as_mut_slice();
            let mut enc_rest = enc_scratch.as_mut_slice();
            let mut enc_cursor = 0usize;
            let mut cursor = 0usize;
            for ((range, enc_range), mut vm_out) in
                shards.iter().zip(&enc_ranges).zip(scratch.drain(..))
            {
                assert_eq!(range.start, cursor, "shards must be dense and ascending");
                let len = range.len();
                let (u, rest) = util.split_at_mut(len);
                util = rest;
                let (p, rest) = power.split_at_mut(len);
                power = rest;
                let (cp, rest) = cum_power.split_at_mut(len);
                cum_power = rest;
                let (cu, rest) = cum_util.split_at_mut(len);
                cum_util = rest;
                let (_orphans, rest) = enc_rest.split_at_mut(enc_range.start - enc_cursor);
                let (sums, rest) = rest.split_at_mut(enc_range.len());
                enc_rest = rest;
                enc_cursor = enc_range.end;
                vm_out.clear();
                views.push(Mutex::new(Shard {
                    lo: range.start,
                    util: u,
                    power: p,
                    cum_power: cp,
                    cum_util: cu,
                    vm_out,
                    enc_lo: enc_range.start,
                    enc_sums: sums,
                }));
                cursor = range.end;
            }
            assert_eq!(
                cursor,
                self.topo.num_servers(),
                "shards must cover the fleet"
            );
        }
        let on = &self.on;
        let pstate = &self.pstate;
        let boot_until = &self.boot_until;
        let residents = &self.residents;
        let mig_until = &self.mig_until;
        let vm_obs = &self.vm_obs;
        let table = &self.table;
        let thermal = self.thermal.as_ref();
        let topo = &self.topo;
        pool.execute(views.len(), &|k| {
            let mut guard = views[k].lock().unwrap();
            let shard = &mut *guard;
            for off in 0..shard.util.len() {
                let i = shard.lo + off;
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
                let (util, share) = if !active || capacity <= 0.0 {
                    (0.0, 0.0)
                } else if load <= 0.0 {
                    (0.0, 1.0)
                } else {
                    ((load / capacity).min(1.0), (capacity / load).min(1.0))
                };
                for &vm in &residents[i] {
                    let j = vm.index();
                    let granted = vm_obs[j].demand * share;
                    let penalty = if mig_until[j] > t { 1.0 - alpha_m } else { 1.0 };
                    shard.vm_out.push((j, granted, granted * penalty));
                }
                shard.util[off] = util;
                shard.power[off] = if booting {
                    table.idle_power(i, pstate[i].index())
                } else if active {
                    table.power(i, pstate[i].index(), util)
                } else {
                    off_power
                };
                shard.cum_power[off] += shard.power[off];
                shard.cum_util[off] += util;
            }
            // Owned-enclosure member sums: the same fixed-shape tree over
            // the same member order as the sequential loop, so the f64
            // result is bit-identical.
            for off_e in 0..shard.enc_sums.len() {
                let e = shard.enc_lo + off_e;
                let servers = topo.enclosure_servers(EnclosureId(e));
                shard.enc_sums[off_e] = reduce::tree_sum_by(servers.len(), |m| {
                    shard.power[servers[m].index() - shard.lo]
                });
            }
        });
        // Barrier passed: apply the buffered per-VM observations in
        // ascending shard (= ascending server) order, then return the
        // scratch buffers to the pool.
        for view in views {
            let shard = view.into_inner().unwrap();
            for &(j, granted, delivered) in &shard.vm_out {
                self.vm_obs[j].granted = granted;
                self.vm_obs[j].delivered = delivered;
                self.cum_granted[j] += granted;
                self.cum_delivered[j] += delivered;
            }
            scratch.push(shard.vm_out);
        }
        self.scratch_vm_out = scratch;
        // 3. Enclosure power (members + shared-infrastructure base):
        //    owned sums come straight from the shards; an enclosure no
        //    shard owns is summed here in the legacy order.
        {
            let mut owned = enc_ranges.iter().flat_map(|r| r.clone());
            let mut next_owned = owned.next();
            for (e, &shard_sum) in enc_scratch.iter().enumerate().take(num_enc) {
                let members: f64 = if next_owned == Some(e) {
                    next_owned = owned.next();
                    shard_sum
                } else {
                    let servers = self.topo.enclosure_servers(EnclosureId(e));
                    reduce::tree_sum_by(servers.len(), |m| self.power[servers[m].index()])
                };
                self.cum_enc_power[e] += members + self.cfg.enclosure_base_watts;
            }
        }
        self.scratch_enc_sums = enc_scratch;
        // 4. Thermal.
        if let Some(thermal) = &mut self.thermal {
            for failed in thermal.step(&self.power) {
                self.events.record(
                    t,
                    Event::ThermalFailover {
                        server: ServerId(failed),
                    },
                );
            }
        }
        // 5. Bookkeeping.
        self.pstate_written_this_tick
            .iter_mut()
            .for_each(|w| *w = false);
        self.tick += 1;
    }

    /// Runs `ticks` steps back to back (no controller interaction).
    pub fn run(&mut self, ticks: u64) {
        for _ in 0..ticks {
            self.step();
        }
    }

    /// The current tick (number of completed steps).
    pub fn now(&self) -> u64 {
        self.tick
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
        &self.placement
    }

    /// VMs resident on `s`.
    pub fn residents(&self, s: ServerId) -> &[VmId] {
        &self.residents[s.index()]
    }

    // ----- sensors --------------------------------------------------------

    /// Last-tick CPU utilization of `s` (fraction of *current* capacity).
    pub fn server_utilization(&self, s: ServerId) -> f64 {
        self.util[s.index()]
    }

    /// Last-tick power draw of `s`, watts.
    pub fn server_power(&self, s: ServerId) -> f64 {
        self.power[s.index()]
    }

    /// Last-tick power draw of enclosure `e` (members plus the shared
    /// enclosure base power), watts.
    pub fn enclosure_power(&self, e: EnclosureId) -> f64 {
        let servers = self.topo.enclosure_servers(e);
        reduce::tree_sum_by(servers.len(), |m| self.power[servers[m].index()])
            + self.cfg.enclosure_base_watts
    }

    /// Last-tick power draw of the whole group (servers plus every
    /// enclosure's base power), watts.
    pub fn group_power(&self) -> f64 {
        reduce::tree_sum(&self.power)
            + self.cfg.enclosure_base_watts * self.topo.num_enclosures() as f64
    }

    /// Cumulative enclosure power (W·ticks since construction), including
    /// the enclosure base power.
    pub fn cumulative_enclosure_power(&self, e: EnclosureId) -> f64 {
        self.cum_enc_power[e.index()]
    }

    /// Whether `s` is still in its boot window (powered, burning idle
    /// power, not yet delivering work).
    pub fn is_booting(&self, s: ServerId) -> bool {
        self.is_on(s) && self.boot_until[s.index()] > self.tick
    }

    /// Cumulative power of `s` (W·ticks since construction). Diff two
    /// readings to average over a controller epoch.
    pub fn cumulative_power(&self, s: ServerId) -> f64 {
        self.cum_power[s.index()]
    }

    /// Cumulative utilization of `s` (util·ticks since construction).
    pub fn cumulative_utilization(&self, s: ServerId) -> f64 {
        self.cum_util[s.index()]
    }

    /// Total energy consumed by the group so far (W·ticks), including
    /// enclosure base power.
    pub fn total_energy(&self) -> f64 {
        reduce::tree_sum(&self.cum_power)
            + self.cfg.enclosure_base_watts * self.topo.num_enclosures() as f64 * self.tick as f64
    }

    /// Last-tick observation for `vm`.
    pub fn vm(&self, vm: VmId) -> VmObservation {
        self.vm_obs[vm.index()]
    }

    /// Cumulative work demanded by `vm` (capacity·ticks).
    pub fn cumulative_demand(&self, vm: VmId) -> f64 {
        self.cum_demand[vm.index()]
    }

    /// Cumulative work granted to `vm` before migration penalty.
    pub fn cumulative_granted(&self, vm: VmId) -> f64 {
        self.cum_granted[vm.index()]
    }

    /// Cumulative work delivered for `vm` (after migration penalty).
    pub fn cumulative_delivered(&self, vm: VmId) -> f64 {
        self.cum_delivered[vm.index()]
    }

    /// *Real* utilization estimate for `vm`: the share of a full-speed
    /// server it consumed last tick. This is what the coordinated VMC
    /// uses ("consider the real utilization instead of the apparent
    /// utilization", paper §3.1).
    pub fn real_vm_utilization(&self, vm: VmId) -> f64 {
        self.vm_obs[vm.index()].granted
    }

    /// *Apparent* utilization for `vm`: its share of the host's *current*
    /// (possibly throttled) capacity — what a naive VMC reads from the
    /// guest OS. On a server at a deep P-state this overstates the VM
    /// relative to full speed.
    pub fn apparent_vm_utilization(&self, vm: VmId) -> f64 {
        let host = self.placement.host_of(vm);
        let cap = if self.is_on(host) {
            self.table
                .capacity(host.index(), self.pstate[host.index()].index())
        } else {
            0.0
        };
        if cap <= 0.0 {
            0.0
        } else {
            (self.vm_obs[vm.index()].granted / cap).min(1.0)
        }
    }

    /// Number of same-tick conflicting P-state writes observed so far —
    /// the "power struggle" signature of uncoordinated deployments.
    pub fn pstate_conflicts(&self) -> u64 {
        self.pstate_conflicts
    }

    /// Number of migrations started so far.
    pub fn migrations_started(&self) -> u64 {
        self.migrations_started
    }

    // ----- actuators ------------------------------------------------------

    /// Current P-state of `s`.
    pub fn pstate(&self, s: ServerId) -> PState {
        self.pstate[s.index()]
    }

    /// Writes the P-state of `s`. Multiple writes within the same tick are
    /// last-writer-wins; differing repeat writes are counted as conflicts.
    pub fn set_pstate(&mut self, s: ServerId, p: PState) {
        let i = s.index();
        let p = PState(p.index().min(self.models[i].num_pstates() - 1));
        if self.pstate_written_this_tick[i] && self.pstate[i] != p {
            self.pstate_conflicts += 1;
            self.events
                .record(self.tick, Event::PStateConflict { server: s });
        }
        self.pstate_written_this_tick[i] = true;
        self.pstate[i] = p;
    }

    /// Whether `s` is powered on and has not tripped thermal failover.
    pub fn is_on(&self, s: ServerId) -> bool {
        let i = s.index();
        self.on[i]
            && self
                .thermal
                .as_ref()
                .map(|t| !t.is_failed(i))
                .unwrap_or(true)
    }

    /// Powers `s` off. Fails if VMs are still placed on it — the VMC must
    /// consolidate away first.
    pub fn power_off(&mut self, s: ServerId) -> Result<()> {
        self.topo.check_server(s)?;
        let vms = self.residents[s.index()].len();
        if vms > 0 {
            return Err(SimError::ServerNotEmpty { server: s, vms });
        }
        if self.on[s.index()] {
            self.events
                .record(self.tick, Event::PoweredOff { server: s });
        }
        self.on[s.index()] = false;
        Ok(())
    }

    /// Powers `s` on at P0. With a configured boot delay the server burns
    /// idle power for `boot_delay_ticks` before delivering work.
    pub fn power_on(&mut self, s: ServerId) -> Result<()> {
        self.topo.check_server(s)?;
        if !self.on[s.index()] {
            self.boot_until[s.index()] = self.tick + self.cfg.boot_delay_ticks;
            self.events
                .record(self.tick, Event::PoweredOn { server: s });
        }
        self.on[s.index()] = true;
        self.pstate[s.index()] = PState::P0;
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
        let from = self.placement.host_of(vm);
        if from == to {
            return Ok(());
        }
        self.residents[from.index()].retain(|&v| v != vm);
        self.residents[to.index()].push(vm);
        self.placement.assign(vm, to);
        self.mig_until[vm.index()] = self.tick + self.cfg.migration_ticks;
        self.migrations_started += 1;
        self.events
            .record(self.tick, Event::MigrationStarted { vm, from, to });
        Ok(())
    }

    /// The structured event log (migrations, power transitions, races,
    /// failovers) — the audit trail a production deployment would keep.
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    // ----- rack sharding --------------------------------------------------

    /// Carves the simulator for a parallel controller epoch: one
    /// [`ActuatorShard`] per range (exclusive write access to that
    /// range's P-states and write flags) plus a shared [`SimEpochView`]
    /// of everything epoch workers only read. `ranges` must be an
    /// ascending, dense partition of the server range
    /// ([`Topology::shard_ranges`]).
    ///
    /// Conflict counts and conflict events are buffered per shard;
    /// after the barrier, feed the shards' [`ActuatorShard::
    /// into_effects`] outputs to [`Simulation::absorb_shard_effects`]
    /// *in shard order* to reproduce the sequential event stream.
    pub fn epoch_shards(
        &mut self,
        ranges: &[Range<usize>],
    ) -> (SimEpochView<'_>, Vec<ActuatorShard<'_>>) {
        let mut shards = Vec::with_capacity(ranges.len());
        let mut pstate = self.pstate.as_mut_slice();
        let mut written = self.pstate_written_this_tick.as_mut_slice();
        let mut cursor = 0usize;
        for range in ranges {
            assert_eq!(range.start, cursor, "shards must be dense and ascending");
            let len = range.len();
            let (p, rest) = pstate.split_at_mut(len);
            pstate = rest;
            let (w, rest) = written.split_at_mut(len);
            written = rest;
            shards.push(ActuatorShard {
                lo: range.start,
                tick: self.tick,
                table: &self.table,
                pstate: p,
                written: w,
                conflicts: 0,
                events: Vec::new(),
            });
            cursor = range.end;
        }
        assert_eq!(
            cursor,
            self.topo.num_servers(),
            "shards must cover the fleet"
        );
        let view = SimEpochView {
            on: &self.on,
            thermal: self.thermal.as_ref(),
            util: &self.util,
            cum_power: &self.cum_power,
            cum_enc_power: &self.cum_enc_power,
            cum_util: &self.cum_util,
            tick: self.tick,
        };
        (view, shards)
    }

    /// A read-only [`SimEpochView`] over the current state, for parallel
    /// phases that only read sensors (e.g. the GM's window fan-out) and
    /// need no actuator shards.
    pub fn epoch_view(&self) -> SimEpochView<'_> {
        SimEpochView {
            on: &self.on,
            thermal: self.thermal.as_ref(),
            util: &self.util,
            cum_power: &self.cum_power,
            cum_enc_power: &self.cum_enc_power,
            cum_util: &self.cum_util,
            tick: self.tick,
        }
    }

    /// A read-only per-VM view for parallel phases that accumulate VM
    /// utilization (the runner's per-tick VMC accumulators). Mirrors
    /// [`Simulation::real_vm_utilization`] and
    /// [`Simulation::apparent_vm_utilization`] exactly.
    pub fn vm_view(&self) -> VmView<'_> {
        VmView {
            obs: &self.vm_obs,
            placement: &self.placement,
            on: &self.on,
            thermal: self.thermal.as_ref(),
            pstate: &self.pstate,
            table: &self.table,
        }
    }

    /// Merges the per-shard actuation effects (conflict counts and
    /// buffered conflict events) back into the simulator. Call with the
    /// shards' effects in ascending shard order so the event log matches
    /// a sequential epoch's emission order exactly.
    pub fn absorb_shard_effects(&mut self, effects: impl IntoIterator<Item = ShardEffects>) {
        for eff in effects {
            self.pstate_conflicts += eff.conflicts;
            for (tick, event) in eff.events {
                self.events.record(tick, event);
            }
        }
    }

    // ----- thermal --------------------------------------------------------

    /// The thermal state, if thermal tracking is enabled.
    pub fn thermal(&self) -> Option<&ThermalState> {
        self.thermal.as_ref()
    }

    /// Temperature of `s` in °C (ambient if thermal tracking is off).
    pub fn temperature_c(&self, s: ServerId) -> f64 {
        self.thermal
            .as_ref()
            .map(|t| t.temperature_c(s.index()))
            .unwrap_or(25.0)
    }

    /// Total thermal failover events so far.
    pub fn failover_events(&self) -> usize {
        self.thermal
            .as_ref()
            .map(|t| t.failover_events())
            .unwrap_or(0)
    }

    // ----- checkpointing --------------------------------------------------

    /// Captures the simulator's full dynamic state for checkpointing.
    ///
    /// Static structure (topology, models, traces, config) is *not*
    /// captured — a restore target is rebuilt from the same experiment
    /// configuration first. Float vectors are bit-packed so the JSON
    /// roundtrip is exact; `residents` is serialized verbatim because
    /// per-server VM insertion order determines float summation order in
    /// the hot loop, which bit-exactness depends on.
    pub fn snapshot(&self) -> SimSnapshot {
        SimSnapshot {
            placement: self.placement.clone(),
            residents: self
                .residents
                .iter()
                .map(|r| r.iter().map(|vm| vm.index()).collect())
                .collect(),
            on: self.on.clone(),
            pstate: self.pstate.iter().map(|p| p.index()).collect(),
            mig_until: self.mig_until.clone(),
            boot_until: self.boot_until.clone(),
            tick: self.tick,
            util_bits: pack_bits(&self.util),
            power_bits: pack_bits(&self.power),
            vm_obs_bits: self
                .vm_obs
                .iter()
                .flat_map(|o| {
                    [
                        o.demand.to_bits(),
                        o.granted.to_bits(),
                        o.delivered.to_bits(),
                    ]
                })
                .collect(),
            cum_power_bits: pack_bits(&self.cum_power),
            cum_enc_power_bits: pack_bits(&self.cum_enc_power),
            cum_util_bits: pack_bits(&self.cum_util),
            cum_granted_bits: pack_bits(&self.cum_granted),
            cum_delivered_bits: pack_bits(&self.cum_delivered),
            cum_demand_bits: pack_bits(&self.cum_demand),
            pstate_written_this_tick: self.pstate_written_this_tick.clone(),
            pstate_conflicts: self.pstate_conflicts,
            migrations_started: self.migrations_started,
            thermal: self.thermal.clone(),
            events: self.events.snapshot(),
        }
    }

    /// Checks that `snap` has this simulation's shape: one entry per
    /// server, VM (three words each for the observations) or enclosure
    /// in every array, every host and P-state index in range, and
    /// resident lists that match the placement (each VM listed once, on
    /// its host). [`Simulation::restore`] replaces its arrays wholesale,
    /// so a snapshot that fails this would otherwise drop or keep a tail
    /// silently, or panic many ticks later.
    pub(crate) fn fits(&self, snap: &SimSnapshot) -> Result<()> {
        let servers = self.topo.num_servers();
        let vms = self.num_vms();
        let thermal_servers = if self.thermal.is_some() { servers } else { 0 };
        let (temps, failed) = snap.thermal.as_ref().map_or((0, 0), ThermalState::shape);
        let lengths = [
            ("placement.host", snap.placement.num_vms(), vms),
            ("residents", snap.residents.len(), servers),
            ("on", snap.on.len(), servers),
            ("pstate", snap.pstate.len(), servers),
            ("mig_until", snap.mig_until.len(), vms),
            ("boot_until", snap.boot_until.len(), servers),
            ("util_bits", snap.util_bits.len(), servers),
            ("power_bits", snap.power_bits.len(), servers),
            ("vm_obs_bits", snap.vm_obs_bits.len(), 3 * vms),
            ("cum_power_bits", snap.cum_power_bits.len(), servers),
            (
                "cum_enc_power_bits",
                snap.cum_enc_power_bits.len(),
                self.topo.num_enclosures(),
            ),
            ("cum_util_bits", snap.cum_util_bits.len(), servers),
            ("cum_granted_bits", snap.cum_granted_bits.len(), vms),
            ("cum_delivered_bits", snap.cum_delivered_bits.len(), vms),
            ("cum_demand_bits", snap.cum_demand_bits.len(), vms),
            (
                "pstate_written_this_tick",
                snap.pstate_written_this_tick.len(),
                servers,
            ),
            ("thermal.temps_c", temps, thermal_servers),
            ("thermal.failed", failed, thermal_servers),
        ];
        if let Some(&(field, found, expected)) = lengths.iter().find(|(_, f, e)| f != e) {
            return Err(SimError::SnapshotLength {
                field,
                found,
                expected,
            });
        }
        let entry = |field, index| Err(SimError::SnapshotEntry { field, index });
        if let Some(s) = (0..servers).find(|&s| snap.pstate[s] >= self.table.num_pstates(s)) {
            return entry("pstate", s);
        }
        if let Some((vm, _)) = snap
            .placement
            .iter()
            .find(|(_, host)| host.index() >= servers)
        {
            return entry("placement.host", vm.index());
        }
        let mut listed = vec![false; vms];
        for (s, list) in snap.residents.iter().enumerate() {
            for &vm in list {
                if vm >= vms || listed[vm] || snap.placement.host_of(VmId(vm)).index() != s {
                    return entry("residents", s);
                }
                listed[vm] = true;
            }
        }
        if let Some(vm) = listed.iter().position(|&l| !l) {
            // Its host's resident list leaves it out.
            return entry("placement.host", vm);
        }
        Ok(())
    }

    /// Restores state captured by [`Simulation::snapshot`]. The target
    /// must have been built from the same topology, models, traces, and
    /// config.
    ///
    /// The snapshot's shape is checked (array lengths, host, P-state and
    /// resident indices) and the event log is checked against this
    /// simulator's ring capacity and decoded before anything is
    /// assigned, so a misshapen snapshot or a malformed log is an error
    /// that leaves the simulator untouched.
    pub fn restore(&mut self, snap: &SimSnapshot) -> Result<()> {
        self.fits(snap)?;
        if snap.events.capacity != self.events.capacity() {
            return Err(SimError::EventLog(EventLogError::CapacityMismatch {
                checkpoint: snap.events.capacity,
                expected: self.events.capacity(),
            }));
        }
        let events = EventLog::from_snapshot(&snap.events).map_err(SimError::EventLog)?;
        self.placement = snap.placement.clone();
        self.residents = snap
            .residents
            .iter()
            .map(|r| r.iter().map(|&vm| VmId(vm)).collect())
            .collect();
        self.on = snap.on.clone();
        self.pstate = snap.pstate.iter().map(|&p| PState(p)).collect();
        self.mig_until = snap.mig_until.clone();
        self.boot_until = snap.boot_until.clone();
        self.tick = snap.tick;
        self.util = unpack_bits(&snap.util_bits);
        self.power = unpack_bits(&snap.power_bits);
        self.vm_obs = snap
            .vm_obs_bits
            .chunks_exact(3)
            .map(|c| VmObservation {
                demand: f64::from_bits(c[0]),
                granted: f64::from_bits(c[1]),
                delivered: f64::from_bits(c[2]),
            })
            .collect();
        self.cum_power = unpack_bits(&snap.cum_power_bits);
        self.cum_enc_power = unpack_bits(&snap.cum_enc_power_bits);
        self.cum_util = unpack_bits(&snap.cum_util_bits);
        self.cum_granted = unpack_bits(&snap.cum_granted_bits);
        self.cum_delivered = unpack_bits(&snap.cum_delivered_bits);
        self.cum_demand = unpack_bits(&snap.cum_demand_bits);
        self.pstate_written_this_tick = snap.pstate_written_this_tick.clone();
        self.pstate_conflicts = snap.pstate_conflicts;
        self.migrations_started = snap.migrations_started;
        self.thermal = snap.thermal.clone();
        self.events = events;
        Ok(())
    }
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

impl SimEpochView<'_> {
    /// Same as [`Simulation::is_on`].
    pub fn is_on(&self, s: ServerId) -> bool {
        let i = s.index();
        self.on[i] && self.thermal.map(|t| !t.is_failed(i)).unwrap_or(true)
    }

    /// Same as [`Simulation::server_utilization`].
    pub fn server_utilization(&self, s: ServerId) -> f64 {
        self.util[s.index()]
    }

    /// Same as [`Simulation::cumulative_power`].
    pub fn cumulative_power(&self, s: ServerId) -> f64 {
        self.cum_power[s.index()]
    }

    /// Same as [`Simulation::cumulative_enclosure_power`].
    pub fn cumulative_enclosure_power(&self, e: EnclosureId) -> f64 {
        self.cum_enc_power[e.index()]
    }

    /// Same as [`Simulation::cumulative_utilization`].
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
    pub fn real_vm_utilization(&self, vm: VmId) -> f64 {
        self.obs[vm.index()].granted
    }

    /// Same as [`Simulation::apparent_vm_utilization`].
    pub fn apparent_vm_utilization(&self, vm: VmId) -> f64 {
        let host = self.placement.host_of(vm);
        let i = host.index();
        let host_on = self.on[i] && self.thermal.map(|t| !t.is_failed(i)).unwrap_or(true);
        let cap = if host_on {
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

/// One worker's exclusive slice of the simulator's actuation state
/// (P-states and same-tick write flags) during a parallel epoch.
/// Indices are global server ids; conflict accounting is buffered
/// locally and merged in shard order afterwards.
#[derive(Debug)]
pub struct ActuatorShard<'a> {
    /// First global server id of this shard.
    lo: usize,
    tick: u64,
    table: &'a ModelTable,
    pstate: &'a mut [PState],
    written: &'a mut [bool],
    conflicts: u64,
    events: Vec<(u64, Event)>,
}

impl ActuatorShard<'_> {
    /// Current P-state of `s` (must lie in this shard) — same as
    /// [`Simulation::pstate`].
    pub fn pstate(&self, s: ServerId) -> PState {
        self.pstate[s.index() - self.lo]
    }

    /// Writes the P-state of `s` — the exact semantics of
    /// [`Simulation::set_pstate`] (clamp to the model's deepest state,
    /// last-writer-wins, conflicting repeat writes counted), with the
    /// conflict event buffered locally instead of logged globally.
    pub fn set_pstate(&mut self, s: ServerId, p: PState) {
        let k = s.index() - self.lo;
        let p = PState(p.index().min(self.table.num_pstates(s.index()) - 1));
        if self.written[k] && self.pstate[k] != p {
            self.conflicts += 1;
            self.events
                .push((self.tick, Event::PStateConflict { server: s }));
        }
        self.written[k] = true;
        self.pstate[k] = p;
    }

    /// Consumes the shard, yielding its buffered actuation effects for
    /// [`Simulation::absorb_shard_effects`].
    pub fn into_effects(self) -> ShardEffects {
        ShardEffects {
            conflicts: self.conflicts,
            events: self.events,
        }
    }
}

/// Actuation side effects buffered by one [`ActuatorShard`] during a
/// parallel epoch.
#[derive(Debug)]
pub struct ShardEffects {
    conflicts: u64,
    events: Vec<(u64, Event)>,
}

fn pack_bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

fn unpack_bits(bits: &[u64]) -> Vec<f64> {
    bits.iter().map(|&b| f64::from_bits(b)).collect()
}

/// The simulator's full dynamic state (checkpoint section). All floats
/// are stored as IEEE-754 bit patterns so serialization is lossless.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SimSnapshot {
    /// The `X` matrix.
    pub placement: Placement,
    /// Per-server resident VM lists, insertion order preserved.
    pub residents: Vec<Vec<usize>>,
    /// Per-server power switch.
    pub on: Vec<bool>,
    /// Per-server P-state indices.
    pub pstate: Vec<usize>,
    /// Per-VM migration-penalty end ticks.
    pub mig_until: Vec<u64>,
    /// Per-server boot-window end ticks.
    pub boot_until: Vec<u64>,
    /// Completed steps.
    pub tick: u64,
    /// Last-tick utilization, bit-packed.
    pub util_bits: Vec<u64>,
    /// Last-tick power, bit-packed.
    pub power_bits: Vec<u64>,
    /// Per-VM observations, three words (demand, granted, delivered) each.
    pub vm_obs_bits: Vec<u64>,
    /// Cumulative server power, bit-packed.
    pub cum_power_bits: Vec<u64>,
    /// Cumulative enclosure power, bit-packed.
    pub cum_enc_power_bits: Vec<u64>,
    /// Cumulative utilization, bit-packed.
    pub cum_util_bits: Vec<u64>,
    /// Cumulative granted work, bit-packed.
    pub cum_granted_bits: Vec<u64>,
    /// Cumulative delivered work, bit-packed.
    pub cum_delivered_bits: Vec<u64>,
    /// Cumulative demand, bit-packed.
    pub cum_demand_bits: Vec<u64>,
    /// Same-tick P-state write flags.
    pub pstate_written_this_tick: Vec<bool>,
    /// Conflicting-write counter.
    pub pstate_conflicts: u64,
    /// Migration counter.
    pub migrations_started: u64,
    /// Thermal state, if tracking is enabled.
    pub thermal: Option<ThermalState>,
    /// The structured event log as flat words.
    pub events: EventLogSnapshot,
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
                    s.vm_obs_bits.pop();
                },
                SimError::SnapshotLength {
                    field: "vm_obs_bits",
                    found: 8,
                    expected: 9,
                },
            ),
            (
                |s| s.on.push(true),
                SimError::SnapshotLength {
                    field: "on",
                    found: 4,
                    expected: 3,
                },
            ),
            (
                |s| s.pstate[2] = 99,
                SimError::SnapshotEntry {
                    field: "pstate",
                    index: 2,
                },
            ),
            (
                |s| s.residents[0][0] = 7,
                SimError::SnapshotEntry {
                    field: "residents",
                    index: 0,
                },
            ),
            (
                |s| s.residents.swap(0, 1),
                SimError::SnapshotEntry {
                    field: "residents",
                    index: 0,
                },
            ),
            (
                |s| {
                    s.placement = Placement::from_hosts(vec![ServerId(0), ServerId(9), ServerId(2)])
                },
                SimError::SnapshotEntry {
                    field: "placement.host",
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
    fn parallel_step_is_bit_identical_to_sequential() {
        use crate::par::WorkerPool;
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
                par.step_parallel(&pool, &shards);
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
