//! The per-server layer (paper Figure 6, EC and SM): every server's
//! Efficiency Controller and Server Manager, banked into flat arrays,
//! with their measurement windows, hold-last-good stores and the SM's
//! standing P-state demands for the min-merge mode.

use nps_control::{BankSnapshot, ControllerBank};
use nps_metrics::{BudgetLevel, ControllerKind, TelemetryEvent, ViolationCounter};
use nps_models::{PState, ServerModel};
use nps_sim::{par, ControllerLayer, FloatBits, PStateHolds, SensorChannel, ServerId, Simulation};

use super::shard::{server_shards, shard_ingest};
use super::Env;

/// The EC/SM layer: the controller bank plus its windows.
#[derive(Debug)]
pub(super) struct EcSm {
    pub(super) bank: ControllerBank,
    pub(super) w: EcSmWindows,
}

/// The EC/SM layer's checkpointed state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EcSmState {
    /// Per-server EC/SM controller bank.
    pub bank: BankSnapshot,
    /// Measurement windows, hold-last-good stores and SM holds.
    pub windows: EcSmWindows,
}

/// The EC/SM layer's per-server arrays besides the bank.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct EcSmWindows {
    /// SM standing P-state demands (min-merge mode).
    pub sm_hold: PStateHolds,
    /// EC utilization window snapshots.
    pub snap_util_ec: FloatBits,
    /// SM power window snapshots.
    pub snap_power_sm: FloatBits,
    /// Hold-last-good store: EC utilization channel.
    pub last_util_ec: FloatBits,
    /// Hold-last-good store: SM power channel.
    pub last_power_sm: FloatBits,
}

impl EcSm {
    /// Fresh windows over `bank`. The hold-last-good power store starts
    /// at each server's idle operating point (P0, zero utilization)
    /// rather than 0.0: a sample dropped before the first clean reading
    /// then degrades to a physically plausible value instead of a
    /// phantom zero-watt observation.
    pub(super) fn new(bank: ControllerBank, models: &[ServerModel]) -> Self {
        let n = models.len();
        Self {
            bank,
            w: EcSmWindows {
                sm_hold: PStateHolds(vec![None; n]),
                snap_util_ec: FloatBits(vec![0.0; n]),
                snap_power_sm: FloatBits(vec![0.0; n]),
                last_util_ec: FloatBits(vec![0.0; n]),
                last_power_sm: FloatBits(models.iter().map(|m| m.idle_power(0)).collect()),
            },
        }
    }

    pub(super) fn snapshot(&self) -> EcSmState {
        EcSmState {
            bank: self.bank.snapshot(),
            windows: self.w.clone(),
        }
    }

    /// Whether `s` has this layer's shape: every per-server array one
    /// entry per server, and a bank that fits.
    pub(super) fn fits(&self, s: &EcSmState) -> bool {
        let w = &s.windows;
        let n = self.w.sm_hold.len();
        w.sm_hold.len() == n
            && [
                &w.snap_util_ec,
                &w.snap_power_sm,
                &w.last_util_ec,
                &w.last_power_sm,
            ]
            .iter()
            .all(|a| a.len() == n)
            && self.bank.fits(&s.bank)
    }

    /// Restores state that [`EcSm::fits`].
    pub(super) fn restore(&mut self, s: &EcSmState) {
        self.bank.restore(&s.bank);
        self.w.clone_from(&s.windows);
    }

    /// A server the VMC just powered back on: its EC restarts at f_max
    /// with the default `r_ref`, and a stale grant from before the
    /// power-off (possibly 0 W) must not strangle it until the next
    /// EM/GM epoch refreshes it; any lease on it clears too. Both
    /// windows restart at the current cumulative readings, so the off
    /// period is not folded into the first window after revival.
    pub(super) fn revive(&mut self, s: ServerId, sim: &Simulation) {
        let i = s.index();
        self.bank.ec_reset(i);
        self.bank.set_r_ref(i, 0.75);
        self.bank.reset_grant(i);
        self.w.snap_util_ec[i] = sim.cumulative_utilization(s);
        self.w.snap_power_sm[i] = sim.cumulative_power(s);
    }

    /// The EC epoch: every powered-on server's EC reads its utilization
    /// window through the ingestion boundary and writes a P-state (merged
    /// with the SM's standing demand in the min-merge mode).
    pub(super) fn ec_epoch(&mut self, env: &mut Env, window: u64) {
        let window = window.max(1) as f64;
        let t = env.t;
        let recording = env.recording();
        let merges = env.mode.merges_min_pstate();
        let (view, shards) = server_shards(
            &env.shards,
            &mut env.scratch,
            &mut env.shard_effects,
            &mut env.sim,
            &mut self.bank,
            &mut env.injector,
            SensorChannel::ServerUtilization,
            &mut self.w.snap_util_ec,
            &mut self.w.last_util_ec,
            &mut self.w.sm_hold,
        );
        par::for_each_shard(env.pool.as_ref(), shards, move |mut sh| {
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
        env.reduce_shards(|env, sc| env.replay(&mut sc.telemetry));
    }

    /// The SM epoch: every server's power window is checked against its
    /// static cap (whether or not the SM is deployed), then each online
    /// SM either retunes its EC's `r_ref` (coordinated) or forces a
    /// P-state on the actuator the EC also writes (uncoordinated).
    /// Returns the static-cap violation verdicts.
    pub(super) fn sm_epoch(&mut self, env: &mut Env, window: u64) -> ViolationCounter {
        let window = window.max(1) as f64;
        let t = env.t;
        let recording = env.recording();
        let mask_sm = env.mask.sm;
        let coordinated = env.mode.sm_actuates_r_ref();
        let merges = env.mode.merges_min_pstate();
        let (view, shards) = server_shards(
            &env.shards,
            &mut env.scratch,
            &mut env.shard_effects,
            &mut env.sim,
            &mut self.bank,
            &mut env.injector,
            SensorChannel::ServerPower,
            &mut self.w.snap_power_sm,
            &mut self.w.last_power_sm,
            &mut self.w.sm_hold,
        );
        let cap_loc: &[f64] = &env.cap_loc;
        par::for_each_shard(env.pool.as_ref(), shards, move |mut sh| {
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
                if sh.outages.offline(ControllerLayer::Sm, i, t) {
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
        env.reduce_shards(|env, sc| env.replay(&mut sc.telemetry))
    }
}
