//! The safety layer: the fuse-level electrical CAP clamp beside the
//! controllers, and the runtime safety-invariant monitor that observes
//! the settled tick.

use nps_control::{ControllerBank, ElectricalCapper, GroupCapper};
use nps_metrics::{ControllerKind, InvariantKind, InvariantStats, TelemetryEvent};
use nps_models::ServerModel;
use nps_sim::{par, ServerId, Simulation};

use super::Env;

/// The clamp and the invariant monitor.
#[derive(Debug)]
pub(super) struct Safety {
    /// One fuse-level capper per server, when an electrical cap is set.
    pub(super) elec: Option<Vec<ElectricalCapper>>,
    /// Servers whose `cap_loc` is below their deepest P-state's
    /// full-load power, ascending. Fixed at construction.
    cap_floor_violators: Vec<usize>,
    /// Whether the invariant monitor runs.
    pub(super) on: bool,
    pub(super) istats: InvariantStats,
}

/// The safety layer's checkpointed state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct SafetyState {
    /// Safety-invariant monitor counters.
    pub istats: InvariantStats,
}

impl Safety {
    /// Builds the clamp (cap fraction `electrical_cap_frac` of each
    /// server's peak power) and the monitor. A fuse-level cap admits no
    /// violation at all — including the very first tick before any
    /// controller has acted — so the clamp applies to `sim` at once.
    pub(super) fn new(
        electrical_cap_frac: Option<f64>,
        models: &[ServerModel],
        cap_loc: &[f64],
        invariants: bool,
        sim: &mut Simulation,
    ) -> Self {
        let elec: Option<Vec<ElectricalCapper>> = electrical_cap_frac.map(|frac| {
            models
                .iter()
                .map(|m| ElectricalCapper::new(m, frac * m.max_power()))
                .collect()
        });
        for (i, capper) in elec.iter().flatten().enumerate() {
            let s = ServerId(i);
            sim.set_pstate(s, capper.clamp(sim.pstate(s)));
        }
        let cap_floor_violators = (0..models.len())
            .filter(|&i| cap_loc[i] < models[i].power(models[i].deepest().index(), 1.0) - 1e-9)
            .collect();
        Self {
            elec,
            cap_floor_violators,
            on: invariants,
            istats: InvariantStats::default(),
        }
    }

    pub(super) fn snapshot(&self) -> SafetyState {
        SafetyState {
            istats: self.istats,
        }
    }

    /// Restores counters captured by [`Safety::snapshot`] (plain
    /// counters: every shape fits).
    pub(super) fn restore(&mut self, s: &SafetyState) {
        self.istats = s.istats;
    }

    /// The electrical CAP clamp: every powered-on server whose P-state
    /// exceeds its fuse-level cap is clamped down, unless its actuator is
    /// jammed (the conditional draw comes from the per-server counter
    /// stream, so it is order-free across shards).
    pub(super) fn elec_clamp(&self, env: &mut Env) {
        let t = env.t;
        let recording = env.recording();
        let Some(cappers) = &self.elec else { return };
        let ranges = &env.shards;
        let (view, mut acts) = env.sim.epoch_shards();
        let mut draws = env.injector.actuator_shards();
        let shards = env.scratch.iter_mut().enumerate().map(move |(k, sc)| {
            let r = ranges[k].clone();
            (r.clone(), acts.take(r.clone()), draws.take(r), sc)
        });
        par::for_each_shard(env.pool.as_ref(), shards, move |sh| {
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
            sc.conflicts += act.conflicts();
        });
        env.reduce_shards(|env, sc| env.replay(&mut sc.telemetry));
    }

    /// Budget-conservation check at a reallocation site: the children's
    /// grants must sum to at most the parent's effective cap (float
    /// tolerance for the summation order).
    pub(super) fn check_conservation(
        &mut self,
        env: &mut Env,
        alloc_sum: f64,
        cap: f64,
        index: usize,
    ) {
        self.istats.checks += 1;
        if alloc_sum > cap * (1.0 + 1e-9) + 1e-9 {
            violation(
                &mut self.istats,
                env,
                InvariantKind::BudgetConservation,
                index,
            );
        }
    }

    /// The per-tick safety-invariant sweep, run after every controller
    /// (including the electrical clamp) has acted. Pure observation: it
    /// never steers the system. Budget conservation is checked at the
    /// reallocation sites instead; the catalog's remaining entries are
    /// global conditions checked here.
    pub(super) fn invariant_sweep(
        &mut self,
        env: &mut Env,
        bank: &ControllerBank,
        ems: &[GroupCapper],
        lease_ticks: u64,
    ) {
        let t = env.t;
        let istats = &mut self.istats;
        // Electrical protection: no powered-on server with a working
        // actuator runs above its fuse-level cap.
        for (i, capper) in self.elec.iter().flatten().enumerate() {
            let s = ServerId(i);
            if !env.sim.is_on(s) || env.injector.actuator_jammed(i, t) {
                continue;
            }
            istats.checks += 1;
            let p = env.sim.pstate(s);
            if capper.clamp(p) != p {
                violation(istats, env, InvariantKind::ElectricalCap, i);
            }
        }
        // Floor operating point: every static local cap admits the
        // deepest P-state at full utilization. Both sides are fixed at
        // construction, so the verdict is too: each sweep counts one
        // check per server and re-reports the same servers, ascending.
        istats.checks += env.models.len() as u64;
        for &i in &self.cap_floor_violators {
            violation(istats, env, InvariantKind::ServerCapFloor, i);
        }
        // Lease discipline: an unleased child holds no finite grant, and
        // a finite grant's lease is unexpired (the expiry sweep at the
        // top of `act` reverted anything older).
        if lease_ticks > 0 {
            for i in 0..env.models.len() {
                istats.checks += 1;
                let stranded = if bank.lease_until(i) == u64::MAX {
                    bank.effective_cap_watts(i) < bank.static_cap_watts(i)
                } else {
                    bank.lease_until(i) < t
                };
                if stranded {
                    violation(istats, env, InvariantKind::LeaseBound, i);
                }
            }
            for (e, em) in ems.iter().enumerate() {
                istats.checks += 1;
                let stranded = if em.lease_until() == u64::MAX {
                    em.effective_cap_watts() < em.static_cap_watts()
                } else {
                    em.lease_until() < t
                };
                if stranded {
                    violation(istats, env, InvariantKind::LeaseBound, e);
                }
            }
        }
    }
}

/// Records one violation: exact counter plus telemetry event.
fn violation(istats: &mut InvariantStats, env: &mut Env, invariant: InvariantKind, index: usize) {
    let t = env.t;
    istats.record(invariant);
    env.emit(|| TelemetryEvent::InvariantViolated {
        tick: t,
        invariant,
        index,
    });
}
