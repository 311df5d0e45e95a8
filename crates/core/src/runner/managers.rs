//! The manager layer (paper Figure 6, EM and GM): one Enclosure Manager
//! per enclosure and the Group Manager, with their measurement windows,
//! hold-last-good stores and outage latches, the EM epoch, and the GM's
//! window pass and arbitration.

use nps_control::{CapperSnapshot, ControllerBank, GroupCapper};
use nps_metrics::{
    BudgetLevel, ControllerKind, DegradationPolicy, TelemetryEvent, ViolationCounter,
};
use nps_models::ServerModel;
use nps_sim::par::{self, Carve};
use nps_sim::{
    reduce, ControllerLayer, EnclosureId, FloatBits, ReplicaState, SensorChannel, ServerId,
    Simulation,
};

use super::plane::Plane;
use super::safety::Safety;
use super::shard::{ingest_buffered, EmRecord, EmShard, GmShard};
use super::Env;

/// The EM/GM layer. Children of the GM are the enclosures first, then
/// the standalone servers.
#[derive(Debug)]
pub(super) struct Managers {
    pub(super) ems: Vec<GroupCapper>,
    pub(super) gm: GroupCapper,
    pub(super) w: ManagerWindows,
    /// Each GM child's static cap (`CAP_ENC`, then `CAP_LOC`); fixed at
    /// construction.
    child_caps: Vec<f64>,
    /// Hardened (post-ingestion) per-child window averages produced by
    /// the GM window pass.
    child_raw: Vec<f64>,
    /// The GM's reallocated child budgets.
    alloc: Vec<f64>,
}

/// The manager layer's checkpointed state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ManagerState {
    /// Enclosure managers' grants, leases, and policy state.
    pub ems: Vec<CapperSnapshot>,
    /// Group manager's grant, lease, and policy state.
    pub gm: CapperSnapshot,
    /// Measurement windows, hold-last-good stores and outage latches.
    pub windows: ManagerWindows,
}

/// The manager layer's arrays besides the cappers.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct ManagerWindows {
    /// Per-server power window snapshots: an enclosure member's is its
    /// EM's, a standalone server's is the GM's.
    pub snap_power: FloatBits,
    /// EM enclosure-total window snapshots.
    pub snap_encpow_em: FloatBits,
    /// GM enclosure-total window snapshots.
    pub snap_encpow_gm: FloatBits,
    /// Hold-last-good store: EM enclosure power channel.
    pub last_encpow_em: FloatBits,
    /// Hold-last-good store: GM child power channel.
    pub last_child_gm: FloatBits,
    /// EM outage edge-detection latches.
    pub em_was_down: Vec<bool>,
    /// GM outage edge-detection latch.
    pub gm_was_down: bool,
}

impl Managers {
    /// Fresh windows over the cappers. The hold-last-good stores start at
    /// each child's idle draw (P0, zero utilization; an enclosure adds
    /// its base power), like the SM's.
    pub(super) fn new(
        ems: Vec<GroupCapper>,
        gm: GroupCapper,
        env: &Env,
        enclosure_base_watts: f64,
    ) -> Self {
        let (models, offsets) = (&env.models, &env.enc_offsets);
        let num_enclosures = ems.len();
        let flat = offsets[num_enclosures];
        let idle = |i: usize| models[i].idle_power(0);
        let last_encpow_em: Vec<f64> = (0..num_enclosures)
            .map(|e| {
                let lo = offsets[e];
                reduce::tree_sum_by(offsets[e + 1] - lo, |m| idle(lo + m)) + enclosure_base_watts
            })
            .collect();
        let mut last_child_gm = last_encpow_em.clone();
        last_child_gm.extend((flat..models.len()).map(idle));
        let mut child_caps = env.cap_enc.clone();
        child_caps.extend_from_slice(&env.cap_loc[flat..]);
        Self {
            ems,
            gm,
            w: ManagerWindows {
                snap_power: FloatBits(vec![0.0; models.len()]),
                snap_encpow_em: FloatBits(vec![0.0; num_enclosures]),
                snap_encpow_gm: FloatBits(vec![0.0; num_enclosures]),
                last_encpow_em: FloatBits(last_encpow_em),
                last_child_gm: FloatBits(last_child_gm),
                em_was_down: vec![false; num_enclosures],
                gm_was_down: false,
            },
            child_caps,
            child_raw: Vec::new(),
            alloc: Vec::new(),
        }
    }

    pub(super) fn snapshot(&self) -> ManagerState {
        ManagerState {
            ems: self.ems.iter().map(|em| em.snapshot()).collect(),
            gm: self.gm.snapshot(),
            windows: self.w.clone(),
        }
    }

    /// Whether `s` has this layer's shape: one capper, window and latch
    /// per enclosure, one power window per server, one hold-last-good
    /// reading per GM child, and capper policy state that fits.
    pub(super) fn fits(&self, s: &ManagerState) -> bool {
        let (w, own) = (&s.windows, &self.w);
        let encs = self.ems.len();
        s.ems.len() == encs
            && w.em_was_down.len() == encs
            && [&w.snap_encpow_em, &w.snap_encpow_gm, &w.last_encpow_em]
                .iter()
                .all(|a| a.len() == encs)
            && w.snap_power.len() == own.snap_power.len()
            && w.last_child_gm.len() == own.last_child_gm.len()
            && self.gm.fits(&s.gm)
            && self.ems.iter().zip(&s.ems).all(|(em, s)| em.fits(s))
    }

    /// Restores state that [`Managers::fits`].
    pub(super) fn restore(&mut self, s: &ManagerState) {
        for (em, s) in self.ems.iter_mut().zip(&s.ems) {
            em.restore(s);
        }
        self.gm.restore(&s.gm);
        self.w.clone_from(&s.windows);
    }

    /// A server the VMC just powered back on starts a fresh power window
    /// (see [`super::ecsm::EcSm::revive`]).
    pub(super) fn revive(&mut self, s: ServerId, sim: &Simulation) {
        self.w.snap_power[s.index()] = sim.cumulative_power(s);
    }

    /// The EM epoch. Each shard runs the whole per-enclosure pipeline for
    /// the enclosures it owns — member window averages, enclosure ingest,
    /// violation accounting, offline fallback, and `reallocate` — against
    /// its own slices. What must land in enclosure order across shards
    /// (telemetry, bus grant deliveries, state syncs) is buffered per
    /// enclosure and replayed ascending in the reduction; every random
    /// draw — sensors, actuators, plan-level message loss — comes from a
    /// per-instance counter stream, so nothing is pre-sampled. Returns
    /// the static-cap violation verdicts.
    pub(super) fn em_epoch(
        &mut self,
        env: &mut Env,
        bank: &mut ControllerBank,
        plane: &mut Plane,
        safety: &mut Safety,
        window: u64,
    ) -> ViolationCounter {
        let window = window.max(1) as f64;
        let t = env.t;
        let recording = env.recording();
        let mask_em = env.mask.em;
        let flows_down = env.mode.budgets_flow_down();
        // Members that lose their EM fall back to their local static caps
        // (stale dynamic grants from a dead EM could strangle them
        // indefinitely). With leases on, the lease state machine covers
        // this uniformly — orphaned grants simply expire; with a warm
        // standby the detector promotes it instead.
        let local_fallback = flows_down && plane.lease_ticks == 0 && !plane.redundancy.em_standby;
        let (ranges, shard_encs) = (&env.shards, &env.shard_encs);
        let (view, mut acts) = env.sim.epoch_shards();
        let mut banks = bank.shards();
        let (mut draws, mut senses, outages) =
            env.injector.draw_shards(SensorChannel::EnclosurePower);
        let mut snap_pows = Carve::new(&mut self.w.snap_power[..]);
        let mut snap_encs = Carve::new(&mut self.w.snap_encpow_em[..]);
        let mut last_encs = Carve::new(&mut self.w.last_encpow_em[..]);
        let mut was_downs = Carve::new(&mut self.w.em_was_down[..]);
        let mut emss = Carve::new(&mut self.ems[..]);
        let shards = env.scratch.iter_mut().enumerate().map(move |(k, sc)| {
            let (r, encs) = (ranges[k].clone(), shard_encs[k].clone());
            EmShard {
                lo: r.start,
                enc_lo: encs.start,
                bank: banks.take(r.clone()),
                act: acts.take(r.clone()),
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
        let replicas: &[ReplicaState] = &plane.replicas.em_replicas;
        let cap_loc: &[f64] = &env.cap_loc;
        let enc_offsets: &[usize] = &env.enc_offsets;
        let models: &[ServerModel] = &env.models;
        par::for_each_shard(env.pool.as_ref(), shards, move |sh| {
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
                let members = enc_offsets[e]..enc_offsets[e + 1];
                let events = sc.telemetry.len();
                sc.power.clear();
                for i in members.clone() {
                    let off = i - lo;
                    let cum = view.cumulative_power(ServerId(i));
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
                    if outages.offline(ControllerLayer::Em, e, t) && !promoted {
                        if !em_was_down[ee] {
                            em_was_down[ee] = true;
                            if local_fallback {
                                for i in members.clone() {
                                    bank.set_granted_cap(i, f64::INFINITY);
                                    sc.fstats.degradations += 1;
                                    if recording {
                                        sc.telemetry.push(TelemetryEvent::Degradation {
                                            tick: t,
                                            controller: ControllerKind::Sm,
                                            index: i,
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
                    em.reallocate_into(&sc.power, &cap_loc[members.clone()], &mut sc.alloc);
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
                        for (i, &alloc) in members.clone().zip(&sc.alloc) {
                            let s = ServerId(i);
                            if !view.is_on(s) {
                                continue;
                            }
                            let model = &models[i];
                            let forced = model
                                .pstate_for_power_budget(alloc)
                                .unwrap_or_else(|| model.deepest());
                            let before = act.pstate(s);
                            if draw.pstate_write_blocked(i, t) {
                                sc.fstats.actuator_blocked += 1;
                                if recording {
                                    sc.telemetry.push(TelemetryEvent::ActuatorFault {
                                        tick: t,
                                        server: i,
                                        source: ControllerKind::Em,
                                    });
                                }
                            } else {
                                act.set_pstate(s, forced);
                                if recording && forced != before {
                                    sc.telemetry.push(TelemetryEvent::PStateChange {
                                        tick: t,
                                        server: i,
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
            sc.conflicts += act.conflicts();
        });
        let ems = &mut self.ems;
        env.reduce_shards(|env, sc| {
            let mut events = sc.telemetry.drain(..);
            for rec in sc.records.drain(..) {
                if let Some(r) = &mut env.recorder {
                    events.by_ref().take(rec.events).for_each(|ev| r.record(ev));
                }
                if rec.online && safety.on {
                    safety.check_conservation(env, rec.alloc_sum, rec.eff_cap, rec.enc);
                }
                let members = env.enc_offsets[rec.enc]..env.enc_offsets[rec.enc + 1];
                for (i, &watts) in members.zip(&sc.grants[rec.grants]) {
                    let slot = plane.server_link[i];
                    plane.deliver_grant(env, slot, watts, bank, ems);
                }
                if rec.online {
                    if let Some(&slot) = plane.em_sync_link.get(rec.enc) {
                        let em = &ems[rec.enc];
                        let (snap, watts) = (em.snapshot(), em.effective_cap_watts());
                        plane.send_sync(env, slot, snap, watts, bank, ems);
                    }
                }
            }
            sc.grants.clear();
        })
    }

    /// The GM window pass: fills `child_raw` with each child's *hardened*
    /// window-average power (enclosures first, then standalone servers)
    /// — sensing each child's counter stream and running the full
    /// ingestion pipeline — and advances the GM snapshots. The ingest
    /// order is *all* enclosures then *all* standalones, so each shard
    /// buffers its telemetry in two streams that the reduction replays in
    /// that order. Its sensor ingest runs per shard; only the arbitration
    /// that follows is inherently sequential.
    pub(super) fn gm_window(&mut self, env: &mut Env, window: u64) {
        let window = window.max(1) as f64;
        let t = env.t;
        let recording = env.recording();
        let num_enclosures = self.ems.len();
        let flat = env.enc_offsets[num_enclosures];
        self.child_raw.clear();
        self.child_raw.resize(self.child_caps.len(), 0.0);
        let (shard_encs, shard_sa) = (&env.shard_encs, &env.shard_sa);
        let view = env.sim.epoch_view();
        let (mut sense_encs, mut sense_sas) = env.injector.gm_child_shards();
        let (enc_raw, sa_raw) = self.child_raw.split_at_mut(num_enclosures);
        let (last_enc, last_sa) = self.w.last_child_gm.split_at_mut(num_enclosures);
        let (mut enc_raws, mut sa_raws) = (Carve::new(enc_raw), Carve::new(sa_raw));
        let (mut last_encs, mut last_sas) = (Carve::new(last_enc), Carve::new(last_sa));
        let mut snap_pows = Carve::new(&mut self.w.snap_power[flat..]);
        let mut snap_encs = Carve::new(&mut self.w.snap_encpow_gm[..]);
        let shards = env.scratch.iter_mut().enumerate().map(move |(k, sc)| {
            let (encs, sas) = (shard_encs[k].clone(), shard_sa[k].clone());
            GmShard {
                enc_lo: encs.start,
                sa_lo: sas.start,
                sense_enc: sense_encs.take(encs.clone()),
                sense_sa: sense_sas.take(sas.clone()),
                snap_pow: snap_pows.take(sas.clone()),
                snap_enc: snap_encs.take(encs.clone()),
                enc_raw: enc_raws.take(encs.clone()),
                sa_raw: sa_raws.take(sas.clone()),
                last_enc: last_encs.take(encs),
                last_sa: last_sas.take(sas),
                sc,
            }
        });
        par::for_each_shard(env.pool.as_ref(), shards, move |mut sh| {
            for ee in 0..sh.snap_enc.len() {
                let e = sh.enc_lo + ee;
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
                let cum = view.cumulative_power(ServerId(flat + ordinal));
                let raw = (cum - sh.snap_pow[j]) / window;
                sh.snap_pow[j] = cum;
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
        env.reduce_shards(|env, sc| env.replay(&mut sc.telemetry));
        env.reduce_shards(|env, sc| env.replay(&mut sc.telemetry_sa));
    }

    /// The sequential remainder of a GM epoch: the window pass already
    /// sensed and hardened every child's average into `child_raw`, so
    /// arbitration is RNG-free apart from the GM outage check — sum,
    /// check the group cap, reallocate, deliver. Returns whether the
    /// group total broke the static group cap.
    pub(super) fn gm_arbitrate(
        &mut self,
        env: &mut Env,
        bank: &mut ControllerBank,
        plane: &mut Plane,
        safety: &mut Safety,
    ) -> bool {
        let t = env.t;
        let num_enclosures = self.ems.len();
        let (flat, n) = (env.enc_offsets[num_enclosures], env.models.len());
        let group_total = reduce::tree_sum(&self.child_raw);
        let cap_grp = env.cap_grp;
        let violated_static = group_total > cap_grp;
        if violated_static {
            env.emit(|| TelemetryEvent::Violation {
                tick: t,
                level: BudgetLevel::Group,
                observed_watts: group_total,
                cap_watts: cap_grp,
                effective: false,
            });
        }
        if !env.mask.gm {
            return violated_static;
        }
        if env.injector.offline(ControllerLayer::Gm, 0, t) && !plane.gm_promoted() {
            if !self.w.gm_was_down {
                self.w.gm_was_down = true;
                // Every child just lost the group manager: enclosures and
                // standalone servers fall back to their local static caps.
                // Under leases the orphaned grants expire on their own;
                // with a warm standby the detector promotes it instead, so
                // the static-cap fallback stays out of the way.
                if env.mode.budgets_flow_down()
                    && plane.lease_ticks == 0
                    && !plane.redundancy.gm_standby
                {
                    for (e, em) in self.ems.iter_mut().enumerate() {
                        em.set_granted_cap(f64::INFINITY);
                        env.fstats.degradations += 1;
                        env.emit(|| TelemetryEvent::Degradation {
                            tick: t,
                            controller: ControllerKind::Em,
                            index: e,
                            policy: DegradationPolicy::LocalCapFallback,
                        });
                    }
                    for i in flat..n {
                        bank.set_granted_cap(i, f64::INFINITY);
                        env.fstats.degradations += 1;
                        env.emit(|| TelemetryEvent::Degradation {
                            tick: t,
                            controller: ControllerKind::Sm,
                            index: i,
                            policy: DegradationPolicy::LocalCapFallback,
                        });
                    }
                }
            }
            env.fstats.outage_epochs += 1;
            env.emit(|| TelemetryEvent::ControllerOutage {
                tick: t,
                controller: ControllerKind::Gm,
                index: 0,
            });
            return violated_static;
        }
        self.w.gm_was_down = false;
        let eff_cap = self.gm.effective_cap_watts();
        if group_total > eff_cap && eff_cap < cap_grp {
            env.emit(|| TelemetryEvent::Violation {
                tick: t,
                level: BudgetLevel::Group,
                observed_watts: group_total,
                cap_watts: eff_cap,
                effective: true,
            });
        }
        self.gm
            .reallocate_into(&self.child_raw, &self.child_caps, &mut self.alloc);
        if safety.on {
            safety.check_conservation(env, reduce::tree_sum(&self.alloc), eff_cap, 0);
        }
        if env.mode.budgets_flow_down() {
            for (e, &watts) in self.alloc[..num_enclosures].iter().enumerate() {
                plane.deliver_grant(env, plane.em_link[e], watts, bank, &mut self.ems);
            }
            for (i, &watts) in (flat..n).zip(&self.alloc[num_enclosures..]) {
                plane.deliver_grant(env, plane.server_link[i], watts, bank, &mut self.ems);
            }
        } else if group_total > self.gm.effective_cap_watts() {
            // Uncoordinated group capper: directly clamp standalone
            // servers (it has no interface into the enclosures' blades).
            for (i, &alloc) in (flat..n).zip(&self.alloc[num_enclosures..]) {
                let s = ServerId(i);
                if !env.sim.is_on(s) {
                    continue;
                }
                let model = &env.models[i];
                let forced = model
                    .pstate_for_power_budget(alloc)
                    .unwrap_or_else(|| model.deepest());
                let before = env.sim.pstate(s);
                if env.write_pstate(s, forced, ControllerKind::Gm) && forced != before {
                    env.emit(|| TelemetryEvent::PStateChange {
                        tick: t,
                        server: i,
                        from: before.index(),
                        to: forced.index(),
                        source: ControllerKind::Gm,
                    });
                }
            }
        }
        if let Some(slot) = plane.gm_sync_link {
            let (snap, watts) = (self.gm.snapshot(), self.gm.effective_cap_watts());
            plane.send_sync(env, slot, snap, watts, bank, &mut self.ems);
        }
        violated_static
    }
}
