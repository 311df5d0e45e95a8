//! The control plane: the bus every budget grant rides (one
//! sequence-numbered link per grant edge), grant leases, and the warm
//! standbys of the GM and EMs with their state-sync links and failure
//! detector.

use std::ops::Range;

use nps_control::{CapperSnapshot, ControllerBank, GroupCapper};
use nps_metrics::{BudgetLevel, ControllerKind, TelemetryEvent};
use nps_sim::{
    BusConfig, BusEvent, BusSnapshot, ControlBus, ControllerLayer, FloatWord, LinkId,
    RedundancyConfig, RedundancyStats, ReplicaState,
};

use super::Env;

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

/// The bus plane: links, leases, replicas and the redundancy step.
#[derive(Debug)]
pub(super) struct Plane {
    pub(super) bus: ControlBus,
    /// Grant-lease duration in ticks (0 = leases off; sanitized copy of
    /// the bus config so the hot path avoids re-reading it).
    pub(super) lease_ticks: u64,
    /// Per-link routing metadata, indexed by `LinkId.0`.
    link_meta: Vec<LinkMeta>,
    /// Link slots of the GM→EM grant edges, in enclosure order. The
    /// EM→member links come first, so an enclosure member's link slot is
    /// its server index: every slot below `em_links.start` is one.
    pub(super) em_links: Range<usize>,
    /// Link slots of the GM→standalone grant edges, in server order.
    pub(super) sa_links: Range<usize>,
    /// Reusable event buffer for bus sends and polls (empty between
    /// batches), so delivering a grant does not allocate.
    bus_events: Vec<BusEvent>,
    // Controller redundancy: optional warm standbys for the GM and EMs.
    // The failure detector and every promotion/fencing decision run in
    // the sequential global phase, so redundancy never perturbs the
    // thread-count determinism contract.
    pub(super) redundancy: RedundancyConfig,
    pub(super) replicas: Replicas,
    /// First bus slot of the state-sync links. Every slot below it is a
    /// grant link with a `link_meta` entry; sync links are registered
    /// after all grant links so grant slots (and their per-link fault
    /// streams) are identical with redundancy on or off.
    sync_base: usize,
    /// Sync-link routing: `slot - sync_base` → the replica it feeds.
    sync_peers: Vec<SyncPeer>,
    /// Enclosure → sync-link slot (empty without EM standbys).
    pub(super) em_sync_link: Vec<usize>,
    /// GM sync-link slot (None without a GM standby).
    pub(super) gm_sync_link: Option<usize>,
}

/// The warm standbys and the redundancy protocol's counters.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Replicas {
    /// GM warm-standby replica (term, heartbeat counter, shadow state,
    /// in-flight syncs). `None` when no GM standby is configured.
    pub gm_replica: Option<ReplicaState>,
    /// Per-enclosure EM warm-standby replicas (empty without standbys).
    pub em_replicas: Vec<ReplicaState>,
    /// Redundancy-protocol counters.
    pub rstats: RedundancyStats,
}

impl Replicas {
    /// The standby `peer` names, if it is deployed.
    fn get_mut(&mut self, peer: SyncPeer) -> Option<&mut ReplicaState> {
        match peer {
            SyncPeer::Gm => self.gm_replica.as_mut(),
            SyncPeer::Em(e) => self.em_replicas.get_mut(e),
        }
    }
}

/// The bus plane's checkpointed state.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PlaneState {
    /// Control-plane bus: link sequence state and in-flight queue.
    pub bus: BusSnapshot,
    /// Warm-standby replicas and redundancy counters.
    pub replicas: Replicas,
}

impl Plane {
    /// Registers one link per grant edge in a fixed order — EM→member
    /// links per enclosure, then GM→EM links, then GM→standalone links —
    /// so link ids are stable across runs and checkpoints, and each
    /// grantor's links are one contiguous range. Enclosure `e`'s members
    /// are the servers `enc_offsets[e]..enc_offsets[e + 1]` and the
    /// standalone servers follow up to `n`.
    pub(super) fn new(
        bus_cfg: &BusConfig,
        redundancy: &RedundancyConfig,
        enc_offsets: &[usize],
        n: usize,
        ems: &[GroupCapper],
        gm: &GroupCapper,
    ) -> Self {
        let bus_cfg = bus_cfg.clone().sanitized();
        let mut bus = ControlBus::new(&bus_cfg);
        let num_enclosures = ems.len();
        let flat = enc_offsets[num_enclosures];
        let mut link_meta: Vec<LinkMeta> = Vec::new();
        let mut register = |meta: LinkMeta, slot: usize| {
            let link = bus.register_link();
            assert_eq!(link.0, slot, "grant links are registered contiguously");
            link_meta.push(meta);
        };
        for e in 0..num_enclosures {
            for (k, i) in (enc_offsets[e]..enc_offsets[e + 1]).enumerate() {
                let meta = LinkMeta {
                    level: BudgetLevel::Enclosure,
                    child: k,
                    target: GrantTarget::Server(i),
                };
                register(meta, i);
            }
        }
        let em_links = flat..flat + num_enclosures;
        for (e, slot) in em_links.clone().enumerate() {
            let meta = LinkMeta {
                level: BudgetLevel::Group,
                child: e,
                target: GrantTarget::Enclosure(e),
            };
            register(meta, slot);
        }
        let sa_links = em_links.end..n + num_enclosures;
        for (k, slot) in sa_links.clone().enumerate() {
            let meta = LinkMeta {
                level: BudgetLevel::Group,
                child: num_enclosures + k,
                target: GrantTarget::Server(flat + k),
            };
            register(meta, slot);
        }
        // Warm-standby state-sync links, registered after every grant
        // link: the grant slots (and the per-link loss streams keyed on
        // them) stay identical whether or not redundancy is configured.
        let redundancy = redundancy.sanitized();
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
        Self {
            bus,
            lease_ticks: bus_cfg.lease_ticks,
            link_meta,
            em_links,
            sa_links,
            bus_events: Vec::new(),
            redundancy,
            replicas: Replicas {
                gm_replica,
                em_replicas,
                rstats: RedundancyStats::default(),
            },
            sync_base,
            sync_peers,
            em_sync_link,
            gm_sync_link,
        }
    }

    pub(super) fn snapshot(&self) -> PlaneState {
        PlaneState {
            bus: self.bus.snapshot(),
            replicas: self.replicas.clone(),
        }
    }

    /// Whether `s` has this plane's shape: a bus snapshot that fits and
    /// exactly the standbys this configuration deploys.
    pub(super) fn fits(&self, s: &PlaneState) -> Result<(), String> {
        let (own, r) = (&self.replicas, &s.replicas);
        if r.em_replicas.len() != own.em_replicas.len()
            || r.gm_replica.is_some() != own.gm_replica.is_some()
        {
            return Err("standby replicas do not match this configuration".to_string());
        }
        self.bus.fits(&s.bus).map_err(|e| format!("bus state: {e}"))
    }

    /// Restores state that [`Plane::fits`].
    pub(super) fn restore(&mut self, s: &PlaneState) {
        self.bus.restore(&s.bus);
        self.replicas.clone_from(&s.replicas);
    }

    /// The single entry point for every downstream budget grant (EM→
    /// member, GM→EM, GM→standalone): sends `watts[k]` on grant link
    /// `links.start + k`, one grantor's contiguous range of links. Each
    /// grant draws its plan-level loss verdict from the link's own
    /// counter stream (position-independent, so every caller — epoch
    /// order, thread count, replay — sees the same verdict sequence) and
    /// rides the bus as a sequence-numbered message; what falls due at
    /// once is applied in send order, so passthrough delivery lands
    /// in place in the telemetry stream.
    ///
    /// On a bus that [`delivers_at_once`](ControlBus::delivers_at_once)
    /// with nothing due, the batch is accepted in place, one
    /// [`ControlBus::send_at_once`] per grant, with no event buffer. Any
    /// other bus takes [`ControlBus::send_into`] per grant. Both leave
    /// the same state, counters and telemetry.
    pub(super) fn deliver_grants(
        &mut self,
        env: &mut Env,
        links: Range<usize>,
        watts: &[f64],
        bank: &mut ControllerBank,
        ems: &mut [GroupCapper],
    ) {
        debug_assert_eq!(links.len(), watts.len());
        let t = env.t;
        if self.bus.delivers_at_once() && self.bus.quiet_at(t) {
            for (slot, &watts) in links.zip(watts) {
                let plan_lost = env.injector.budget_message_lost(slot);
                match self.bus.send_at_once(LinkId(slot), watts, t, plan_lost) {
                    Some(BusEvent::Delivered(_)) => self.apply_grant(env, slot, watts, bank, ems),
                    Some(refused) => self.apply_bus_event(env, refused, bank, ems),
                    None => self.report_loss(env, slot),
                }
            }
            return;
        }
        for (slot, &watts) in links.zip(watts) {
            let plan_lost = env.injector.budget_message_lost(slot);
            let mut events = std::mem::take(&mut self.bus_events);
            let (_seq, enqueued) =
                self.bus
                    .send_into(LinkId(slot), watts, t, plan_lost, &mut events);
            if !enqueued {
                self.report_loss(env, slot);
            }
            self.apply_bus_events(env, events, bank, ems);
        }
    }

    /// Counts and reports a grant lost outright — by the plan-level draw
    /// or the bus's own drop model. The child holds its last granted
    /// budget (until its lease, if any, lapses).
    fn report_loss(&self, env: &mut Env, slot: usize) {
        let t = env.t;
        let LinkMeta { level, child, .. } = self.link_meta[slot];
        env.fstats.messages_lost += 1;
        env.emit(|| TelemetryEvent::MessageLoss {
            tick: t,
            level,
            child,
        });
    }

    /// Polls the bus for traffic deferred from earlier ticks and applies
    /// it.
    pub(super) fn drain_bus(
        &mut self,
        env: &mut Env,
        bank: &mut ControllerBank,
        ems: &mut [GroupCapper],
    ) {
        let mut events = std::mem::take(&mut self.bus_events);
        self.bus.poll_into(env.t, &mut events);
        self.apply_bus_events(env, events, bank, ems);
    }

    /// Applies one batch of bus events in order (see
    /// [`Plane::apply_bus_event`]). `events` is the plane's reusable
    /// buffer, taken out for the batch (applying an event needs
    /// `&mut self`) and handed back empty.
    fn apply_bus_events(
        &mut self,
        env: &mut Env,
        mut events: Vec<BusEvent>,
        bank: &mut ControllerBank,
        ems: &mut [GroupCapper],
    ) {
        for &event in &events {
            self.apply_bus_event(env, event, bank, ems);
        }
        events.clear();
        self.bus_events = events;
    }

    /// Applies one bus event: a fresh grant goes to
    /// [`Plane::apply_grant`], duplicates and stale copies are rejected,
    /// retransmissions are counted, and state-sync traffic feeds its
    /// standby.
    fn apply_bus_event(
        &mut self,
        env: &mut Env,
        event: BusEvent,
        bank: &mut ControllerBank,
        ems: &mut [GroupCapper],
    ) {
        let t = env.t;
        let slot = match &event {
            BusEvent::Delivered(m) | BusEvent::Duplicate(m) | BusEvent::Exhausted(m) => m.link.0,
            BusEvent::Stale { msg, .. } | BusEvent::Retry { msg, .. } => msg.link.0,
        };
        // State-sync traffic feeds the standby replicas, never a grant
        // target (sync links sit above every grant slot).
        if slot >= self.sync_base {
            self.apply_sync_event(slot, &event);
            return;
        }
        let LinkMeta { level, child, .. } = self.link_meta[slot];
        match event {
            BusEvent::Delivered(msg) => self.apply_grant(env, slot, msg.watts, bank, ems),
            BusEvent::Duplicate(msg) => {
                env.fstats.duplicates_dropped += 1;
                env.emit(|| TelemetryEvent::DuplicateDropped {
                    tick: t,
                    level,
                    child,
                    seq: msg.seq,
                });
            }
            BusEvent::Stale { msg, accepted } => {
                env.fstats.stale_rejected += 1;
                env.emit(|| TelemetryEvent::StaleRejected {
                    tick: t,
                    level,
                    child,
                    seq: msg.seq,
                    accepted,
                });
            }
            BusEvent::Retry {
                msg,
                attempt,
                dropped,
            } => {
                env.fstats.grant_retries += 1;
                env.emit(|| TelemetryEvent::GrantRetry {
                    tick: t,
                    level,
                    child,
                    seq: msg.seq,
                    attempt,
                });
                if dropped {
                    self.report_loss(env, slot);
                }
            }
            // Retries exhausted: the sender gives up. With leases on,
            // the receiver's lease lapses back to its static cap; no
            // extra action here.
            BusEvent::Exhausted(_) => {}
        }
    }

    /// Applies a grant the receiver on grant link `slot` accepted: writes
    /// the receiver's cap (and lease) and emits `BudgetGrant`.
    #[inline]
    fn apply_grant(
        &self,
        env: &mut Env,
        slot: usize,
        watts: f64,
        bank: &mut ControllerBank,
        ems: &mut [GroupCapper],
    ) {
        let t = env.t;
        let LinkMeta {
            level,
            child,
            target,
        } = self.link_meta[slot];
        let lease_until = match self.lease_ticks {
            0 => u64::MAX,
            ticks => t + ticks,
        };
        match target {
            GrantTarget::Server(i) => bank.set_granted_cap_leased(i, watts, lease_until),
            GrantTarget::Enclosure(e) => ems[e].set_granted_cap_leased(watts, lease_until),
        }
        env.emit(|| TelemetryEvent::BudgetGrant {
            tick: t,
            level,
            child,
            watts,
        });
    }

    /// Reverts every lapsed lease to its static cap, with telemetry.
    pub(super) fn expire_leases(
        &self,
        env: &mut Env,
        bank: &mut ControllerBank,
        ems: &mut [GroupCapper],
    ) {
        let t = env.t;
        let server_links = (0..self.em_links.start).chain(self.sa_links.clone());
        for (i, slot) in server_links.enumerate() {
            if bank.expire_lease(i, t) {
                self.report_lease_expiry(env, slot);
            }
        }
        for (em, slot) in ems.iter_mut().zip(self.em_links.clone()) {
            if em.expire_lease(t) {
                self.report_lease_expiry(env, slot);
            }
        }
    }

    fn report_lease_expiry(&self, env: &mut Env, slot: usize) {
        let t = env.t;
        let LinkMeta { level, child, .. } = self.link_meta[slot];
        let seq = self.bus.accepted_seq(LinkId(slot));
        env.fstats.leases_expired += 1;
        env.emit(|| TelemetryEvent::LeaseExpired {
            tick: t,
            level,
            child,
            seq,
        });
    }

    // ----- controller redundancy ----------------------------------------

    /// Routes one bus event on a state-sync link to its replica. Sync
    /// payloads ride in [`ReplicaState::inflight`] keyed by the bus
    /// sequence number; the bus only decides delivery, duplication,
    /// staleness, retransmission, or exhaustion.
    fn apply_sync_event(&mut self, slot: usize, event: &BusEvent) {
        let peer = self.sync_peers[slot - self.sync_base];
        let Some(rep) = self.replicas.get_mut(peer) else {
            return;
        };
        match event {
            BusEvent::Delivered(m) => {
                if rep.deliver_sync(m.seq) {
                    self.replicas.rstats.syncs_applied += 1;
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
                self.replicas.rstats.sync_retries += 1;
                if *dropped {
                    self.replicas.rstats.syncs_dropped += 1;
                }
            }
            BusEvent::Exhausted(m) => {
                if rep.drop_sync(m.seq) {
                    self.replicas.rstats.syncs_dropped += 1;
                }
            }
        }
    }

    /// Ships a capper's post-epoch state (`snap`, with its effective cap
    /// `watts` as the wire payload) to its standby over sync link `slot`
    /// as a sequence-numbered sync message.
    pub(super) fn send_sync(
        &mut self,
        env: &mut Env,
        slot: usize,
        snap: CapperSnapshot,
        watts: f64,
        bank: &mut ControllerBank,
        ems: &mut [GroupCapper],
    ) {
        let t = env.t;
        let mut events = std::mem::take(&mut self.bus_events);
        let (seq, enqueued) = self
            .bus
            .send_into(LinkId(slot), watts, t, false, &mut events);
        self.replicas.rstats.syncs_sent += 1;
        if enqueued {
            let peer = self.sync_peers[slot - self.sync_base];
            if let Some(rep) = self.replicas.get_mut(peer) {
                rep.record_sync(seq, encode_capper(&snap));
            }
        } else {
            self.replicas.rstats.syncs_dropped += 1;
        }
        self.apply_bus_events(env, events, bank, ems);
    }

    /// Whether the GM standby currently leads.
    #[inline]
    pub(super) fn gm_promoted(&self) -> bool {
        self.replicas
            .gm_replica
            .as_ref()
            .is_some_and(|r| r.promoted)
    }

    /// The deterministic failure detector, run in the sequential global
    /// phase every `heartbeat_interval_ticks`: counts missed heartbeats
    /// for protected primaries, promotes warm standbys past the miss
    /// threshold (bumping the leadership term and restoring the live
    /// controller from the shadow), and fences returning primaries on
    /// their stale term, re-integrating them as the new standby.
    // `%` rather than `u64::is_multiple_of`: pinned MSRV (1.75).
    #[allow(clippy::manual_is_multiple_of)]
    pub(super) fn redundancy_step(
        &mut self,
        env: &mut Env,
        ems: &mut [GroupCapper],
        gm: &mut GroupCapper,
    ) {
        let t = env.t;
        if t % self.redundancy.heartbeat_interval_ticks != 0 {
            return;
        }
        if let Some(mut rep) = self.replicas.gm_replica.take() {
            let down = env.injector.offline(ControllerLayer::Gm, 0, t);
            if self.detect(
                env,
                &mut rep,
                down,
                ControllerKind::Gm,
                BudgetLevel::Group,
                0,
            ) {
                if let Some(snap) = decode_capper(&rep.shadow) {
                    gm.restore(&snap);
                    gm.expire_lease(t);
                }
            }
            self.replicas.gm_replica = Some(rep);
        }
        let mut reps = std::mem::take(&mut self.replicas.em_replicas);
        for (e, rep) in reps.iter_mut().enumerate() {
            let down = env.injector.offline(ControllerLayer::Em, e, t);
            if self.detect(
                env,
                rep,
                down,
                ControllerKind::Em,
                BudgetLevel::Enclosure,
                e,
            ) {
                if let Some(snap) = decode_capper(&rep.shadow) {
                    ems[e].restore(&snap);
                    // The shadow can lag the primary by in-flight syncs:
                    // a lease that lapsed meanwhile expires right away
                    // rather than resurrecting a stale grant.
                    ems[e].expire_lease(t);
                }
            }
        }
        self.replicas.em_replicas = reps;
    }

    /// One heartbeat check for one replica pair. Returns whether the
    /// standby was promoted just now (the caller then restores the live
    /// controller state from the shadow).
    fn detect(
        &mut self,
        env: &mut Env,
        rep: &mut ReplicaState,
        down: bool,
        controller: ControllerKind,
        level: BudgetLevel,
        index: usize,
    ) -> bool {
        let t = env.t;
        let rstats = &mut self.replicas.rstats;
        rstats.heartbeats += 1;
        if down {
            if rep.promoted {
                // The standby is serving; there is no primary to probe.
                return false;
            }
            rep.missed += 1;
            rstats.missed_heartbeats += 1;
            let missed = rep.missed;
            env.emit(|| TelemetryEvent::HeartbeatMissed {
                tick: t,
                controller,
                index,
                missed,
            });
            if rep.missed >= self.redundancy.miss_threshold {
                rep.term += 1;
                rep.promoted = true;
                rep.missed = 0;
                rstats.promotions += 1;
                let term = rep.term;
                env.emit(|| TelemetryEvent::FailoverPromoted {
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
            env.fstats.stale_rejected += 1;
            rstats.fenced += 1;
            let (stale, serving) = (rep.term - 1, rep.term);
            env.emit(|| TelemetryEvent::StaleRejected {
                tick: t,
                level,
                child: index,
                seq: stale,
                accepted: serving,
            });
            rep.promoted = false;
            rep.missed = 0;
            env.emit(|| TelemetryEvent::StandbyReintegrated {
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
}

/// Flattens a capper snapshot into the word vector shipped over sync
/// links and held in a replica's shadow: `[granted_cap bit word,
/// lease_until, policy words...]`. Bit-exact by construction.
fn encode_capper(snap: &CapperSnapshot) -> Vec<u64> {
    let mut words = Vec::with_capacity(2 + snap.policy_state.len());
    words.push(snap.granted_cap.to_bits());
    words.push(snap.lease_until);
    words.extend_from_slice(&snap.policy_state);
    words
}

/// Inverse of [`encode_capper`]. `None` on a malformed shadow (shorter
/// than the two fixed words) — the promotion then keeps the live
/// controller's current state rather than corrupting it.
fn decode_capper(words: &[u64]) -> Option<CapperSnapshot> {
    let (&granted_cap, rest) = words.split_first()?;
    let (&lease_until, policy) = rest.split_first()?;
    Some(CapperSnapshot {
        granted_cap: FloatWord(f64::from_bits(granted_cap)),
        lease_until,
        policy_state: policy.to_vec(),
    })
}
