//! The VMC layer (paper §3.1 and Figure 4): per-VM utilization windows,
//! the capping controllers' violation feedback, the demand estimate and
//! the placement plan the Virtual Machine Controller applies each epoch.

use nps_metrics::{TelemetryEvent, ViolationCounter};
use nps_opt::{ClusterContext, Vmc};
use nps_sim::par::{self, Carve};
use nps_sim::{reduce, FloatBits, VmId};
use std::ops::Range;

use super::ecsm::EcSm;
use super::managers::Managers;
use super::Env;

/// Minimum VM count before the per-tick VM accumulators and the VMC
/// demand pass fan out to the pool — below this the barrier costs more
/// than the loop.
const PAR_VM_THRESHOLD: usize = 64;

/// The VMC with its windows, demand buffer and VM shard layout.
#[derive(Debug)]
pub(super) struct VmcLayer {
    vmc: Vmc,
    pub(super) w: VmcWindows,
    /// Per-VM demand estimates of the current epoch.
    demands: Vec<f64>,
    /// VM ranges of the per-tick VM passes: one range unless a pool runs
    /// at least `PAR_VM_THRESHOLD` VMs, then an even split per shard.
    vm_shards: Vec<Range<usize>>,
}

/// The VMC layer's checkpointed state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct VmcState {
    /// VMC feedback buffers `[b_loc, b_enc, b_grp]`.
    pub buffer: FloatBits,
    /// Utilization windows, violation feedback and plan outcomes.
    pub windows: VmcWindows,
}

/// The VMC layer's windows.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct VmcWindows {
    /// Cumulative per-VM utilization the VMC sizes by: real, or
    /// apparent under
    /// [`CoordApparentUtil`](crate::arch::CoordinationMode::CoordApparentUtil).
    pub cum_vm_util: FloatBits,
    /// VMC window snapshots of that sum.
    pub snap_vm_util: FloatBits,
    /// Window maxima of that utilization.
    pub win_max_vm_util: FloatBits,
    /// Server-level violation window feeding the VMC.
    pub win_sm: ViolationCounter,
    /// Enclosure-level violation window feeding the VMC.
    pub win_em: ViolationCounter,
    /// Group-level violation window feeding the VMC.
    pub win_gm: ViolationCounter,
    /// Migrations the simulator rejected.
    pub skipped_migrations: u64,
}

impl VmcLayer {
    /// Fresh windows for `num_vms` VMs, split for the pool only when it
    /// runs at least `PAR_VM_THRESHOLD` VMs.
    pub(super) fn new(vmc: Vmc, num_vms: usize, pooled_shards: Option<usize>) -> Self {
        let parts = match pooled_shards {
            Some(k) if num_vms >= PAR_VM_THRESHOLD => k.max(1),
            _ => 1,
        };
        Self {
            vmc,
            w: VmcWindows {
                cum_vm_util: FloatBits(vec![0.0; num_vms]),
                snap_vm_util: FloatBits(vec![0.0; num_vms]),
                win_max_vm_util: FloatBits(vec![0.0; num_vms]),
                win_sm: ViolationCounter::new(),
                win_em: ViolationCounter::new(),
                win_gm: ViolationCounter::new(),
                skipped_migrations: 0,
            },
            demands: Vec::new(),
            // An even split: VMs have no enclosure-alignment constraint.
            vm_shards: (0..parts)
                .map(|p| p * num_vms / parts..(p + 1) * num_vms / parts)
                .collect(),
        }
    }

    /// The VMC's current buffers `(b_loc, b_enc, b_grp)`.
    pub(super) fn buffers(&self) -> (f64, f64, f64) {
        self.vmc.buffers()
    }

    pub(super) fn snapshot(&self) -> VmcState {
        VmcState {
            buffer: {
                let (b_loc, b_enc, b_grp) = self.vmc.buffers();
                FloatBits(vec![b_loc, b_enc, b_grp])
            },
            windows: self.w.clone(),
        }
    }

    /// Whether `s` has this layer's shape: three buffers and one window
    /// slot per VM.
    pub(super) fn fits(&self, s: &VmcState) -> bool {
        let w = &s.windows;
        let vms = self.w.cum_vm_util.len();
        s.buffer.len() == 3
            && [&w.cum_vm_util, &w.snap_vm_util, &w.win_max_vm_util]
                .iter()
                .all(|a| a.len() == vms)
    }

    /// Restores state that [`VmcLayer::fits`].
    pub(super) fn restore(&mut self, s: &VmcState) {
        self.vmc
            .restore_buffers((s.buffer[0], s.buffer[1], s.buffer[2]));
        self.w.clone_from(&s.windows);
    }

    /// Per-tick VMC accumulators: every VM's utilization, real or
    /// apparent as the mode reads it, folds into its cumulative sum and
    /// window maximum. Each slot is independent (no cross-VM arithmetic),
    /// so any split of the VM range gives the same bits; `vm_shards` is
    /// one range unless a pool has enough VMs to share out.
    pub(super) fn accumulate_windows(&mut self, env: &Env) {
        let view = env.sim.vm_view();
        let real_mode = env.mode.vmc_uses_real_util();
        let mut cum = Carve::new(&mut self.w.cum_vm_util[..]);
        let mut win = Carve::new(&mut self.w.win_max_vm_util[..]);
        let shards = self
            .vm_shards
            .iter()
            .map(move |r| (r.start, cum.take(r.clone()), win.take(r.clone())));
        par::for_each_shard(env.pool.as_ref(), shards, move |(lo, cum, win)| {
            if real_mode {
                fold_vm_window(lo, cum, win, |vm| view.real_vm_utilization(vm));
            } else {
                fold_vm_window(lo, cum, win, |vm| view.apparent_vm_utilization(vm));
            }
        });
    }

    /// One VMC epoch over a `window`-tick window: feedback first, then
    /// demand estimates, the plan, and its application (power-ons,
    /// migrations, power-offs). A revived server's EC/SM and manager
    /// windows restart.
    pub(super) fn epoch(
        &mut self,
        env: &mut Env,
        ecsm: &mut EcSm,
        mgr: &mut Managers,
        window: u64,
    ) {
        // Feedback first (rates observed since the last epoch). The
        // feedback signal comes *from* the capping controllers (paper
        // Figure 4: "expose power budget violations to VMC"); levels whose
        // capper is not deployed report nothing.
        let mask = env.mask;
        let rate = |deployed: bool, win: &ViolationCounter| if deployed { win.rate() } else { 0.0 };
        self.vmc.report_violations_windowed(
            rate(mask.sm, &self.w.win_sm),
            rate(mask.em, &self.w.win_em),
            rate(mask.gm, &self.w.win_gm),
            window,
        );
        self.w.win_sm = ViolationCounter::new();
        self.w.win_em = ViolationCounter::new();
        self.w.win_gm = ViolationCounter::new();

        // Demand estimates over the window: per-VM independent slots,
        // sharded across the pool when the fleet is large enough.
        self.demands(env, window);

        // The VMC plans against a context borrowing the simulation,
        // models, and caps directly — no placement clone.
        let ctx = ClusterContext {
            topo: env.sim.topology(),
            models: &env.models,
            current: env.sim.placement(),
            cap_loc: &env.cap_loc,
            cap_enc: &env.cap_enc,
            cap_grp: env.cap_grp,
        };
        let plan = self.vmc.plan(&self.demands, &ctx);
        let t = env.t;
        if env.recording() {
            // Telemetry aggregates through the fixed-shape tree, sum and
            // max in one struct reduction.
            let demands = &self.demands;
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
            env.emit(|| TelemetryEvent::VmcPlan {
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
            if !env.sim.is_on(s) && env.sim.power_on(s).is_ok() {
                // Fresh measurement windows for the revived server in
                // every layer that windows its power or utilization — a
                // stale snapshot would fold the whole off period into the
                // first window after revival.
                ecsm.revive(s, &env.sim);
                mgr.revive(s, &env.sim);
                let server = s.index();
                env.emit(|| TelemetryEvent::PowerOn { tick: t, server });
            }
        }
        for m in &plan.migrations {
            // `Simulation::migrate` treats a same-server move as a no-op
            // success; the telemetry stream mirrors that (no event), so
            // Migration events stay in lockstep with `migrations_started`.
            let from = env.sim.placement().host_of(m.vm);
            match env.sim.migrate(m.vm, m.to) {
                Ok(()) => {
                    if from != m.to {
                        let (vm, to) = (m.vm.index(), m.to.index());
                        let from = from.index();
                        env.emit(|| TelemetryEvent::Migration {
                            tick: t,
                            vm,
                            from,
                            to,
                        });
                    }
                }
                Err(_) => self.w.skipped_migrations += 1,
            }
        }
        for &s in &plan.power_off {
            if env.sim.is_on(s) && env.sim.residents(s).is_empty() && env.sim.power_off(s).is_ok() {
                let server = s.index();
                env.emit(|| TelemetryEvent::PowerOff { tick: t, server });
            }
        }
    }

    /// Per-VM demand estimates for a VMC epoch, including the window
    /// bookkeeping (snapshot advances, peak resets). Every slot runs
    /// [`vmc_demand_slot`] independently, so any split of the VM range
    /// gives the same bits.
    fn demands(&mut self, env: &Env, window: u64) {
        let window = window.max(1) as f64;
        self.demands.clear();
        self.demands.resize(self.w.cum_vm_util.len(), 0.0);
        let mut snap = Carve::new(&mut self.w.snap_vm_util[..]);
        let mut win = Carve::new(&mut self.w.win_max_vm_util[..]);
        let mut demands = Carve::new(&mut self.demands[..]);
        let shards = self.vm_shards.iter().map(move |r| {
            (
                r.start,
                snap.take(r.clone()),
                win.take(r.clone()),
                demands.take(r.clone()),
            )
        });
        let cum: &[f64] = &self.w.cum_vm_util;
        par::for_each_shard(
            env.pool.as_ref(),
            shards,
            move |(lo, snap, win, demands)| {
                for (off, demand) in demands.iter_mut().enumerate() {
                    *demand = vmc_demand_slot(window, cum[lo + off], &mut snap[off], &mut win[off]);
                }
            },
        );
    }
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
