//! Deterministic fault injection for resilience experiments.
//!
//! The paper's federated architecture (§3) claims that individual
//! controllers can fail independently without collapsing the stack. This
//! module provides the machinery to *test* that claim: a seeded
//! [`FaultPlan`] describing sensor faults (Gaussian noise, stuck
//! readings, dropped samples), actuator faults (stuck P-states, lost
//! budget messages on the GM→EM→SM channel), and controller outages
//! (an SM/EM/GM offline for a tick window), plus the [`FaultInjector`]
//! runtime that plays the plan back deterministically.
//!
//! The injector is pure configuration-plus-PRNG: two runners built from
//! the same plan observe the same fault sequence, so faulty runs stay as
//! reproducible as clean ones. A disabled plan (all rates zero, no
//! outages) injects nothing and draws no random numbers, which keeps
//! fault-free runs bit-identical to runs of builds that predate this
//! module.
//!
//! Sensor, actuator, and message-loss draws all live on **counter-based
//! streams**: a draw is a pure function of `(slot, draw counter)` where a
//! slot is a `(channel, index)` sensor, a server's P-state actuator, or a
//! grant link. The verdict for one slot depends only on how many draws
//! that slot has taken, never on what other slots did in between, which
//! is what lets the epoch shards of the parallel runner take the
//! conditional draws locally while staying bit-identical to sequential
//! order. No shared sequential stream remains: the EM epoch needs no
//! pre-pass of any kind.

use rand::rngs::CounterRng;
use serde::{Deserialize, Serialize};
use std::ops::Range;

use crate::par::Carve;
use crate::words::FloatBits;

/// A sensor channel at the controller ingestion boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SensorChannel {
    /// Per-server window-average power (the SM's input).
    ServerPower,
    /// Per-server window-average utilization (the EC's input).
    ServerUtilization,
    /// Per-enclosure window-average power (the EM's input).
    EnclosurePower,
    /// Per-child window-average power at the group level (the GM's input).
    GroupChildPower,
}

/// A controller layer that can suffer an outage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ControllerLayer {
    /// A server manager.
    Sm,
    /// An enclosure manager.
    Em,
    /// The group manager.
    Gm,
}

impl ControllerLayer {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            ControllerLayer::Sm => "SM",
            ControllerLayer::Em => "EM",
            ControllerLayer::Gm => "GM",
        }
    }
}

/// Sensor-fault rates, applied per reading at the ingestion boundary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct SensorFaultSpec {
    /// Standard deviation of multiplicative Gaussian noise, as a fraction
    /// of the true reading (0 = no noise).
    pub noise_std: f64,
    /// Per-reading probability that the sensor freezes at its current
    /// value for [`SensorFaultSpec::stuck_ticks`] ticks.
    pub stuck_prob: f64,
    /// How long a stuck sensor holds its frozen value, in ticks.
    pub stuck_ticks: u64,
    /// Per-reading probability the sample is lost entirely (the consumer
    /// must degrade, e.g. hold its last good reading).
    pub drop_prob: f64,
}

impl SensorFaultSpec {
    /// Whether any sensor fault can fire.
    pub fn is_enabled(&self) -> bool {
        self.noise_std > 0.0
            || (self.stuck_prob > 0.0 && self.stuck_ticks > 0)
            || self.drop_prob > 0.0
    }

    /// Clamps rates into `[0, 1]` and maps non-finite values to 0.
    pub fn sanitized(self) -> Self {
        let clean = |v: f64| {
            if v.is_finite() {
                v.clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        Self {
            noise_std: if self.noise_std.is_finite() {
                self.noise_std.max(0.0)
            } else {
                0.0
            },
            stuck_prob: clean(self.stuck_prob),
            stuck_ticks: self.stuck_ticks,
            drop_prob: clean(self.drop_prob),
        }
    }
}

/// Actuator-fault rates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct ActuatorFaultSpec {
    /// Per-write probability that a server's P-state actuator jams,
    /// discarding writes for [`ActuatorFaultSpec::stuck_ticks`] ticks.
    pub stuck_prob: f64,
    /// How long a jammed actuator discards writes, in ticks.
    pub stuck_ticks: u64,
    /// Per-message probability that a budget grant (GM→EM or EM→SM) is
    /// lost; the child then holds its last granted budget.
    pub message_loss_prob: f64,
}

impl ActuatorFaultSpec {
    /// Whether any actuator fault can fire.
    pub fn is_enabled(&self) -> bool {
        (self.stuck_prob > 0.0 && self.stuck_ticks > 0) || self.message_loss_prob > 0.0
    }

    /// Clamps rates into `[0, 1]` and maps non-finite values to 0.
    pub fn sanitized(self) -> Self {
        let clean = |v: f64| {
            if v.is_finite() {
                v.clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        Self {
            stuck_prob: clean(self.stuck_prob),
            stuck_ticks: self.stuck_ticks,
            message_loss_prob: clean(self.message_loss_prob),
        }
    }
}

/// A controller offline window `[start, end)` in ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageWindow {
    /// The layer that goes offline.
    pub layer: ControllerLayer,
    /// Which instance (server index for SMs, enclosure index for EMs;
    /// ignored for the GM). `None` takes the whole layer down.
    pub index: Option<usize>,
    /// First tick of the outage (inclusive).
    pub start: u64,
    /// First tick after the outage (exclusive).
    pub end: u64,
}

impl OutageWindow {
    /// Whether instance `index` of `layer` is down at `tick`.
    #[inline]
    pub fn covers(&self, layer: ControllerLayer, index: usize, tick: u64) -> bool {
        self.layer == layer
            && self.index.unwrap_or(index) == index
            && tick >= self.start
            && tick < self.end
    }
}

/// A complete, seeded fault scenario. The default plan is fully disabled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FaultPlan {
    /// PRNG seed; identical plans produce identical fault sequences.
    pub seed: u64,
    /// Sensor-fault rates.
    pub sensor: SensorFaultSpec,
    /// Actuator-fault rates.
    pub actuator: ActuatorFaultSpec,
    /// Scheduled controller outages.
    pub outages: Vec<OutageWindow>,
}

impl FaultPlan {
    /// A plan injecting nothing (the default).
    pub fn disabled() -> Self {
        Self::default()
    }

    /// Whether this plan can inject anything at all.
    pub fn is_enabled(&self) -> bool {
        self.sensor.is_enabled() || self.actuator.is_enabled() || !self.outages.is_empty()
    }

    /// Returns the plan with all rates clamped into valid ranges and
    /// degenerate (empty) outage windows removed.
    pub fn sanitized(mut self) -> Self {
        self.sensor = self.sensor.sanitized();
        self.actuator = self.actuator.sanitized();
        self.outages.retain(|w| w.end > w.start);
        self
    }

    /// [`FaultPlan::sanitized`] plus outage-window canonicalization:
    /// overlapping or adjacent windows for the same `(layer, instance)`
    /// are merged into one contiguous window, sorted by layer, instance,
    /// then start tick. The covered tick set is unchanged (merging is a
    /// pure union), but violation accounting and the failure detector see
    /// one outage per incident instead of a fragmented schedule.
    pub fn normalized(mut self) -> Self {
        self = self.sanitized();
        // Whole-layer windows (`index: None`) sort apart from any indexed
        // window: they cover every instance, so merging them into (or out
        // of) a single instance's window would change the covered set.
        let key = |w: &OutageWindow| {
            let layer = match w.layer {
                ControllerLayer::Sm => 0u8,
                ControllerLayer::Em => 1,
                ControllerLayer::Gm => 2,
            };
            let (whole, idx) = match w.index {
                None => (0u8, 0usize),
                Some(i) => (1, i),
            };
            (layer, whole, idx, w.start, w.end)
        };
        self.outages.sort_by_key(key);
        let mut merged: Vec<OutageWindow> = Vec::with_capacity(self.outages.len());
        for w in self.outages.drain(..) {
            match merged.last_mut() {
                Some(prev)
                    if prev.layer == w.layer && prev.index == w.index && w.start <= prev.end =>
                {
                    prev.end = prev.end.max(w.end);
                }
                _ => merged.push(w),
            }
        }
        self.outages = merged;
        self
    }

    /// Sets the PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables multiplicative Gaussian sensor noise with the given
    /// standard deviation (fraction of the true reading).
    pub fn with_sensor_noise(mut self, noise_std: f64) -> Self {
        self.sensor.noise_std = noise_std;
        self
    }

    /// Enables stuck sensors: with probability `prob` per reading, the
    /// sensor freezes for `ticks` ticks.
    pub fn with_stuck_sensors(mut self, prob: f64, ticks: u64) -> Self {
        self.sensor.stuck_prob = prob;
        self.sensor.stuck_ticks = ticks;
        self
    }

    /// Enables dropped samples with the given per-reading probability.
    pub fn with_dropped_samples(mut self, prob: f64) -> Self {
        self.sensor.drop_prob = prob;
        self
    }

    /// Enables stuck P-state actuators: with probability `prob` per
    /// write, the actuator jams for `ticks` ticks.
    pub fn with_stuck_actuators(mut self, prob: f64, ticks: u64) -> Self {
        self.actuator.stuck_prob = prob;
        self.actuator.stuck_ticks = ticks;
        self
    }

    /// Enables budget-message loss (GM→EM→SM) at the given probability.
    pub fn with_message_loss(mut self, prob: f64) -> Self {
        self.actuator.message_loss_prob = prob;
        self
    }

    /// Schedules an outage of `layer` instance `index` (or the whole
    /// layer with `None`) over `[start, end)`.
    pub fn with_outage(
        mut self,
        layer: ControllerLayer,
        index: Option<usize>,
        start: u64,
        end: u64,
    ) -> Self {
        self.outages.push(OutageWindow {
            layer,
            index,
            start,
            end,
        });
        self
    }
}

/// One sensor reading after fault injection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Reading {
    /// The reading passed through untouched.
    Clean(f64),
    /// The reading was perturbed by Gaussian noise.
    Noisy(f64),
    /// The sensor is frozen at an old value.
    Stuck(f64),
    /// The sample was lost; the consumer must degrade.
    Dropped,
}

impl Reading {
    /// The delivered value, if any.
    pub fn value(self) -> Option<f64> {
        match self {
            Reading::Clean(v) | Reading::Noisy(v) | Reading::Stuck(v) => Some(v),
            Reading::Dropped => None,
        }
    }
}

/// The layout of the dense per-slot sensor-fault state, channels
/// concatenated in fixed order: `ServerPower` (n slots),
/// `ServerUtilization` (n), `EnclosurePower` (E), `GroupChildPower`
/// (E + S standalone servers). The slot index doubles as the CounterRng
/// stream id, so every sensor owns a private draw stream.
#[derive(Debug, Clone, Copy, PartialEq)]
struct SensorLayout {
    num_servers: usize,
    num_enclosures: usize,
    /// GM children: enclosures first, then standalone servers.
    num_children: usize,
}

impl SensorLayout {
    /// Total number of sensor slots.
    fn slots(&self) -> usize {
        2 * self.num_servers + self.num_enclosures + self.num_children
    }

    /// First slot of `channel` in the concatenated layout.
    #[inline]
    fn base(&self, channel: SensorChannel) -> usize {
        match channel {
            SensorChannel::ServerPower => 0,
            SensorChannel::ServerUtilization => self.num_servers,
            SensorChannel::EnclosurePower => 2 * self.num_servers,
            SensorChannel::GroupChildPower => 2 * self.num_servers + self.num_enclosures,
        }
    }

    /// Number of slots `channel` owns.
    #[inline]
    fn cap(&self, channel: SensorChannel) -> usize {
        match channel {
            SensorChannel::ServerPower | SensorChannel::ServerUtilization => self.num_servers,
            SensorChannel::EnclosurePower => self.num_enclosures,
            SensorChannel::GroupChildPower => self.num_children,
        }
    }

    /// Global slot of `(channel, index)`.
    #[inline]
    fn slot(&self, channel: SensorChannel, index: usize) -> usize {
        debug_assert!(
            index < self.cap(channel),
            "sensor index {index} out of range for {channel:?}"
        );
        self.base(channel) + index
    }

    /// The slots `channel` owns.
    #[inline]
    fn slots_of(&self, channel: SensorChannel) -> Range<usize> {
        let base = self.base(channel);
        base..base + self.cap(channel)
    }
}

/// The shared fault model for one sensor slot: stuck-window check, then
/// drop draw, then stuck draw, then multiplicative Gaussian noise, each
/// gated on its rate so disabled families take no draws. Draws come from
/// the slot's private counter stream, so the verdict depends only on how
/// many draws this slot has taken.
#[inline]
#[allow(clippy::too_many_arguments)]
fn sense_slot(
    rng: CounterRng,
    spec: &SensorFaultSpec,
    stream: u64,
    ctr: &mut u64,
    stuck_until: &mut u64,
    stuck_val: &mut f64,
    tick: u64,
    value: f64,
) -> Reading {
    if tick < *stuck_until {
        return Reading::Stuck(*stuck_val);
    }
    *stuck_until = 0;
    if spec.drop_prob > 0.0 {
        let c = *ctr;
        *ctr += 1;
        if rng.bool_at(stream, c, spec.drop_prob) {
            return Reading::Dropped;
        }
    }
    if spec.stuck_prob > 0.0 && spec.stuck_ticks > 0 {
        let c = *ctr;
        *ctr += 1;
        if rng.bool_at(stream, c, spec.stuck_prob) {
            *stuck_until = tick + spec.stuck_ticks;
            *stuck_val = value;
            return Reading::Stuck(value);
        }
    }
    if spec.noise_std > 0.0 {
        // Box–Muller from two uniforms on this slot's stream.
        let c = *ctr;
        *ctr += 2;
        let u1 = rng.f64_at(stream, c).max(1e-12);
        let u2 = rng.f64_at(stream, c + 1);
        let gauss = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let noisy = value * (1.0 + spec.noise_std * gauss);
        return Reading::Noisy(noisy.max(0.0));
    }
    Reading::Clean(value)
}

/// Replays a [`FaultPlan`] deterministically against a running system.
///
/// One injector serves one run; the consumer (the experiment runner)
/// routes every controller sensor reading through [`FaultInjector::sense`],
/// every P-state write through [`FaultInjector::pstate_write_blocked`],
/// every budget grant through [`FaultInjector::budget_message_lost`], and
/// every controller epoch through [`FaultInjector::offline`].
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// Counter-based generator for the per-server actuator-jam stream.
    /// Every draw is a pure function of `(server, draw counter)`, so the
    /// conditional per-write draw is shardable across worker threads
    /// without perturbing any stream.
    actuator_rng: CounterRng,
    /// Counter-based generator for the per-slot sensor streams; same
    /// shardability argument as `actuator_rng`, keyed by sensor slot.
    sensor_rng: CounterRng,
    /// Counter-based generator for the per-link budget-message-loss
    /// streams, keyed by grant-link slot; same shardability argument.
    message_rng: CounterRng,
    sensor_on: bool,
    actuator_on: bool,
    messages_on: bool,
    /// Where each sensor channel's slots sit in the state arrays.
    sensors: SensorLayout,
    /// Per-slot sensor draw counters and stuck windows, jammed
    /// actuators and the per-server and per-link draw counters.
    state: InjectorSnapshot,
}

impl FaultInjector {
    /// Builds the injector for a fleet of `num_servers` servers grouped
    /// into `num_enclosures` enclosures plus `num_standalone` servers
    /// reporting directly to the GM. The fleet shape sizes the per-slot
    /// sensor streams (two per server, one per enclosure, one per GM
    /// child).
    pub fn new(
        plan: &FaultPlan,
        num_servers: usize,
        num_enclosures: usize,
        num_standalone: usize,
    ) -> Self {
        let plan = plan.clone().normalized();
        let sensors = SensorLayout {
            num_servers,
            num_enclosures,
            num_children: num_enclosures + num_standalone,
        };
        let slots = sensors.slots();
        Self {
            actuator_rng: CounterRng::new(plan.seed ^ 0x6e70_735f_6163_7475),
            sensor_rng: CounterRng::new(plan.seed ^ 0x6e70_735f_7365_6e73),
            message_rng: CounterRng::new(plan.seed ^ 0x6e70_735f_6d73_6773),
            sensor_on: plan.sensor.is_enabled(),
            actuator_on: plan.actuator.stuck_prob > 0.0 && plan.actuator.stuck_ticks > 0,
            messages_on: plan.actuator.message_loss_prob > 0.0,
            sensors,
            state: InjectorSnapshot {
                sensor_ctr: vec![0; slots],
                sensor_stuck_until: vec![0; slots],
                sensor_stuck_val: FloatBits(vec![0.0; slots]),
                stuck_actuators: vec![0; num_servers],
                actuator_ctr: vec![0; num_servers],
                // One message-loss stream per grant edge: every server
                // has exactly one inbound grant link (EM→member or
                // GM→standalone) and every enclosure one GM→EM link.
                message_ctr: vec![0; num_servers + num_enclosures],
            },
            plan,
        }
    }

    /// Whether the plan can inject anything (a disabled injector draws no
    /// random numbers and perturbs nothing).
    pub fn enabled(&self) -> bool {
        self.plan.is_enabled()
    }

    /// The sanitized plan this injector replays.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Whether sensor faults are live. The draws come from per-slot
    /// counter streams, so even when this is set [`FaultInjector::sense`]
    /// is shardable (see [`FaultInjector::draw_shards`]); when unset,
    /// `sense` is pure (`Clean(value)`, zero draws).
    pub fn sensors_active(&self) -> bool {
        self.sensor_on
    }

    /// Whether actuator jams are live. The jam draw comes from the
    /// counter-based per-server stream, so even when this is set the
    /// conditional draw is shardable (see [`FaultInjector::
    /// actuator_shards`]). When unset, every write proceeds (`false`,
    /// zero draws).
    pub fn actuators_active(&self) -> bool {
        self.actuator_on
    }

    /// Whether budget-message loss is live — i.e. whether
    /// [`FaultInjector::budget_message_lost`] may consume a draw from
    /// its link's counter stream.
    pub fn messages_active(&self) -> bool {
        self.messages_on
    }

    /// Routes one sensor reading through the fault model.
    #[inline]
    pub fn sense(
        &mut self,
        channel: SensorChannel,
        index: usize,
        tick: u64,
        value: f64,
    ) -> Reading {
        if !self.sensor_on {
            return Reading::Clean(value);
        }
        let slot = self.sensors.slot(channel, index);
        sense_slot(
            self.sensor_rng,
            &self.plan.sensor,
            slot as u64,
            &mut self.state.sensor_ctr[slot],
            &mut self.state.sensor_stuck_until[slot],
            &mut self.state.sensor_stuck_val[slot],
            tick,
            value,
        )
    }

    /// Whether a P-state write to `server` at `tick` is discarded by a
    /// jammed actuator (and rolls new jams).
    ///
    /// The jam draw comes from server `server`'s private counter-based
    /// stream, **not** the shared sequential stream: the verdict depends
    /// only on how many draws that server has taken, never on what other
    /// servers or sensor channels did in between. That is what lets the
    /// conditional "draw only when a write happens" pattern run inside
    /// parallel shards while staying bit-identical to sequential order.
    #[inline]
    pub fn pstate_write_blocked(&mut self, server: usize, tick: u64) -> bool {
        if !self.actuator_on || server >= self.state.stuck_actuators.len() {
            return false;
        }
        if tick < self.state.stuck_actuators[server] {
            return true;
        }
        let ctr = self.state.actuator_ctr[server];
        self.state.actuator_ctr[server] = ctr + 1;
        if self
            .actuator_rng
            .bool_at(server as u64, ctr, self.plan.actuator.stuck_prob)
        {
            self.state.stuck_actuators[server] = tick + self.plan.actuator.stuck_ticks;
            return true;
        }
        false
    }

    /// Carves the per-server actuator-jam state into shard views: the
    /// returned [`ActuatorDrawCarve`] hands out one [`ActuatorDrawShard`]
    /// per ascending server range. Each shard answers
    /// [`ActuatorDrawShard::pstate_write_blocked`] for its own servers
    /// with exactly the verdicts the whole injector would produce — the
    /// draws live on per-server counter streams, so shard-local
    /// evaluation order cannot perturb anything.
    pub fn actuator_shards(&mut self) -> ActuatorDrawCarve<'_> {
        let st = &mut self.state;
        ActuatorDrawCarve::new(
            self.actuator_on,
            self.plan.actuator,
            self.actuator_rng,
            &mut st.stuck_actuators,
            &mut st.actuator_ctr,
        )
    }

    /// Carves actuator-jam state **and** one sensor channel into paired
    /// shard views, so one shard can take both the sense and the write
    /// draws. The sensor carver is indexed in `channel`'s own space:
    /// server ranges for `ServerPower` (SM) and `ServerUtilization` (EC),
    /// enclosure ranges for `EnclosurePower` (EM, whose shards clamp
    /// their servers but sense their enclosures). The plan's outage
    /// windows come along, for the workers' offline checks.
    pub fn draw_shards(
        &mut self,
        channel: SensorChannel,
    ) -> (ActuatorDrawCarve<'_>, SensorCarve<'_>, Outages<'_>) {
        let st = &mut self.state;
        let act = ActuatorDrawCarve::new(
            self.actuator_on,
            self.plan.actuator,
            self.actuator_rng,
            &mut st.stuck_actuators,
            &mut st.actuator_ctr,
        );
        let slots = self.sensors.slots_of(channel);
        let sense = SensorCarve::new(
            slots.start,
            &mut st.sensor_ctr[slots.clone()],
            &mut st.sensor_stuck_until[slots.clone()],
            &mut st.sensor_stuck_val[slots],
            self.sensor_on,
            self.plan.sensor,
            self.sensor_rng,
        );
        (act, sense, Outages(&self.plan.outages))
    }

    /// Carves the `GroupChildPower` sense state for the GM window pass:
    /// one carver over the enclosure children (enclosure index space) and
    /// one over the standalone children (standalone ordinal space — the
    /// standalone child `k` is GM child `num_enclosures + k`).
    pub fn gm_child_shards(&mut self) -> (SensorCarve<'_>, SensorCarve<'_>) {
        let st = &mut self.state;
        let slots = self.sensors.slots_of(SensorChannel::GroupChildPower);
        let split = self.sensors.num_enclosures;
        let (ctr_e, ctr_s) = st.sensor_ctr[slots.clone()].split_at_mut(split);
        let (until_e, until_s) = st.sensor_stuck_until[slots.clone()].split_at_mut(split);
        let (val_e, val_s) = st.sensor_stuck_val[slots.clone()].split_at_mut(split);
        let (on, spec, rng) = (self.sensor_on, self.plan.sensor, self.sensor_rng);
        (
            SensorCarve::new(slots.start, ctr_e, until_e, val_e, on, spec, rng),
            SensorCarve::new(slots.start + split, ctr_s, until_s, val_s, on, spec, rng),
        )
    }

    /// Whether one budget grant message on grant link `link` is lost in
    /// transit.
    ///
    /// The loss draw comes from link `link`'s private counter-based
    /// stream: the verdict depends only on how many grants that link has
    /// carried, never on what other links did in between, so the grant
    /// replay of the parallel EM reduction needs no sequential pre-pass.
    #[inline]
    pub fn budget_message_lost(&mut self, link: usize) -> bool {
        if !self.messages_on || link >= self.state.message_ctr.len() {
            return false;
        }
        let ctr = self.state.message_ctr[link];
        self.state.message_ctr[link] = ctr + 1;
        self.message_rng
            .bool_at(link as u64, ctr, self.plan.actuator.message_loss_prob)
    }

    /// Whether server `server`'s P-state actuator is currently jammed at
    /// `tick` — a pure read of the latched jam window, consuming no draw.
    /// The invariant monitor uses this to exempt servers whose actuator
    /// is known-stuck (an injected plant fault, already counted in the
    /// fault stats) from the electrical-cap check.
    #[inline]
    pub fn actuator_jammed(&self, server: usize, tick: u64) -> bool {
        self.state
            .stuck_actuators
            .get(server)
            .is_some_and(|&thaw| tick < thaw)
    }

    /// Whether instance `index` of `layer` is offline at `tick`.
    #[inline]
    pub fn offline(&self, layer: ControllerLayer, index: usize, tick: u64) -> bool {
        Outages(&self.plan.outages).offline(layer, index, tick)
    }

    /// Captures the injector's dynamic state (per-slot draw counters,
    /// stuck windows, jammed actuators) for checkpointing. The layout is
    /// dense and fleet-shaped, so snapshots of equal states are
    /// byte-identical.
    pub fn snapshot(&self) -> InjectorSnapshot {
        self.state.clone()
    }

    /// True if `snap` has this injector's shape: one entry per sensor
    /// slot, per server and per grant link in the matching arrays.
    /// [`FaultInjector::restore`] replaces its arrays wholesale, so a
    /// caller restoring untrusted state checks this first.
    pub fn fits(&self, snap: &InjectorSnapshot) -> bool {
        let slots = self.sensors.slots();
        let servers = self.state.actuator_ctr.len();
        snap.sensor_ctr.len() == slots
            && snap.sensor_stuck_until.len() == slots
            && snap.sensor_stuck_val.len() == slots
            && snap.stuck_actuators.len() == servers
            && snap.actuator_ctr.len() == servers
            && snap.message_ctr.len() == self.state.message_ctr.len()
    }

    /// Restores state captured by [`FaultInjector::snapshot`]. The
    /// injector must have been built from the same plan and fleet shape
    /// (see [`FaultInjector::fits`]).
    pub fn restore(&mut self, snap: &InjectorSnapshot) {
        self.state.clone_from(snap);
    }
}

/// The plan's controller outage windows, lent by
/// [`FaultInjector::draw_shards`] to shard workers while the injector is
/// carved. [`FaultInjector::offline`] answers through the same check.
#[derive(Debug, Clone, Copy)]
pub struct Outages<'a>(&'a [OutageWindow]);

impl Outages<'_> {
    /// Whether instance `index` of `layer` is offline at `tick`.
    #[inline]
    pub fn offline(self, layer: ControllerLayer, index: usize, tick: u64) -> bool {
        self.0.iter().any(|w| w.covers(layer, index, tick))
    }
}

/// Hands out [`ActuatorDrawShard`]s over consecutive server ranges;
/// produced by [`FaultInjector::actuator_shards`] and
/// [`FaultInjector::draw_shards`].
#[derive(Debug)]
pub struct ActuatorDrawCarve<'a> {
    active: bool,
    spec: ActuatorFaultSpec,
    rng: CounterRng,
    thaw: Carve<'a, u64>,
    ctr: Carve<'a, u64>,
}

impl<'a> ActuatorDrawCarve<'a> {
    /// The carve over the jam state's two per-server arrays, split off
    /// the injector's state by the caller.
    fn new(
        active: bool,
        spec: ActuatorFaultSpec,
        rng: CounterRng,
        thaw: &'a mut [u64],
        ctr: &'a mut [u64],
    ) -> Self {
        Self {
            active,
            spec,
            rng,
            thaw: Carve::new(thaw),
            ctr: Carve::new(ctr),
        }
    }

    /// The jam-draw view of server `range`.
    #[inline]
    pub fn take(&mut self, range: Range<usize>) -> ActuatorDrawShard<'a> {
        ActuatorDrawShard {
            lo: range.start,
            active: self.active,
            prob: self.spec.stuck_prob,
            stuck_ticks: self.spec.stuck_ticks,
            rng: self.rng,
            thaw: self.thaw.take(range.clone()),
            ctr: self.ctr.take(range),
        }
    }
}

/// Hands out [`SensorDrawShard`]s of one sensor channel over consecutive
/// index ranges; produced by [`FaultInjector::draw_shards`] and
/// [`FaultInjector::gm_child_shards`].
#[derive(Debug)]
pub struct SensorCarve<'a> {
    /// Global sensor slot of channel index 0.
    slot_base: usize,
    active: bool,
    spec: SensorFaultSpec,
    rng: CounterRng,
    ctr: Carve<'a, u64>,
    stuck_until: Carve<'a, u64>,
    stuck_val: Carve<'a, f64>,
}

impl<'a> SensorCarve<'a> {
    fn new(
        slot_base: usize,
        ctr: &'a mut [u64],
        stuck_until: &'a mut [u64],
        stuck_val: &'a mut [f64],
        active: bool,
        spec: SensorFaultSpec,
        rng: CounterRng,
    ) -> Self {
        Self {
            slot_base,
            active,
            spec,
            rng,
            ctr: Carve::new(ctr),
            stuck_until: Carve::new(stuck_until),
            stuck_val: Carve::new(stuck_val),
        }
    }

    /// The sense-draw view of channel indices `range`.
    #[inline]
    pub fn take(&mut self, range: Range<usize>) -> SensorDrawShard<'a> {
        SensorDrawShard {
            lo: range.start,
            slot0: self.slot_base + range.start,
            active: self.active,
            spec: self.spec,
            rng: self.rng,
            ctr: self.ctr.take(range.clone()),
            stuck_until: self.stuck_until.take(range.clone()),
            stuck_val: self.stuck_val.take(range),
        }
    }
}

/// A disjoint per-shard view of the actuator-jam state, handed out by
/// an [`ActuatorDrawCarve`]. Holds `&mut` slices of the
/// injector's thaw ticks and draw counters for one contiguous server
/// range, so worker threads can take the conditional jam draw locally.
#[derive(Debug)]
pub struct ActuatorDrawShard<'a> {
    lo: usize,
    active: bool,
    prob: f64,
    stuck_ticks: u64,
    rng: CounterRng,
    thaw: &'a mut [u64],
    ctr: &'a mut [u64],
}

impl ActuatorDrawShard<'_> {
    /// Shard-local replica of [`FaultInjector::pstate_write_blocked`]
    /// for `server` (a global index inside this shard's range).
    #[inline]
    pub fn pstate_write_blocked(&mut self, server: usize, tick: u64) -> bool {
        if !self.active {
            return false;
        }
        let i = server - self.lo;
        if tick < self.thaw[i] {
            return true;
        }
        let ctr = self.ctr[i];
        self.ctr[i] = ctr + 1;
        if self.rng.bool_at(server as u64, ctr, self.prob) {
            self.thaw[i] = tick + self.stuck_ticks;
            return true;
        }
        false
    }
}

/// A disjoint per-shard view of one sensor channel's fault state,
/// handed out by a [`SensorCarve`]. Holds `&mut`
/// slices of the per-slot counters and stuck windows for one contiguous
/// index range, so worker threads can take the conditional sense draws
/// locally with exactly the verdicts the whole injector would produce.
#[derive(Debug)]
pub struct SensorDrawShard<'a> {
    /// First channel index of this shard.
    lo: usize,
    /// Global sensor slot of `lo` (the CounterRng stream base).
    slot0: usize,
    active: bool,
    spec: SensorFaultSpec,
    rng: CounterRng,
    ctr: &'a mut [u64],
    stuck_until: &'a mut [u64],
    stuck_val: &'a mut [f64],
}

impl SensorDrawShard<'_> {
    /// Shard-local replica of [`FaultInjector::sense`] for `index` (a
    /// channel-space index inside this shard's range).
    #[inline]
    pub fn sense(&mut self, index: usize, tick: u64, value: f64) -> Reading {
        if !self.active {
            return Reading::Clean(value);
        }
        let i = index - self.lo;
        sense_slot(
            self.rng,
            &self.spec,
            (self.slot0 + i) as u64,
            &mut self.ctr[i],
            &mut self.stuck_until[i],
            &mut self.stuck_val[i],
            tick,
            value,
        )
    }
}

/// The fault injector's full dynamic state, kept whole by
/// [`FaultInjector`] (checkpoint section). All vectors are dense and
/// fleet-shaped; `sensor_*` entries are indexed by global sensor slot
/// (channels concatenated in declaration order).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InjectorSnapshot {
    /// Per-slot positions in the counter-based sensor streams.
    pub sensor_ctr: Vec<u64>,
    /// Per-slot sensor thaw ticks (`0` = not stuck; a stuck window
    /// always ends at `tick + stuck_ticks ≥ 1`).
    pub sensor_stuck_until: Vec<u64>,
    /// Per-slot held sensor values while stuck (stale once thawed).
    pub sensor_stuck_val: FloatBits,
    /// Per-server actuator thaw ticks.
    pub stuck_actuators: Vec<u64>,
    /// Per-server positions in the counter-based actuator-jam stream.
    pub actuator_ctr: Vec<u64>,
    /// Per-link positions in the counter-based message-loss stream.
    pub message_ctr: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_plan() -> FaultPlan {
        FaultPlan::disabled()
            .with_seed(7)
            .with_sensor_noise(0.1)
            .with_stuck_sensors(0.05, 10)
            .with_dropped_samples(0.05)
            .with_stuck_actuators(0.05, 10)
            .with_message_loss(0.2)
    }

    #[test]
    fn disabled_plan_is_transparent() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_enabled());
        let mut inj = FaultInjector::new(&plan, 4, 2, 1);
        assert!(!inj.enabled());
        for t in 0..100 {
            assert_eq!(
                inj.sense(SensorChannel::ServerPower, 0, t, 42.0),
                Reading::Clean(42.0)
            );
            assert!(!inj.pstate_write_blocked(0, t));
            assert!(!inj.budget_message_lost(0));
            assert!(!inj.offline(ControllerLayer::Gm, 0, t));
        }
    }

    #[test]
    fn zero_rate_plan_counts_as_disabled() {
        // Nonzero seed and stuck_ticks but every probability zero: nothing
        // can fire, so the plan must behave exactly like `disabled()`.
        let plan = FaultPlan {
            seed: 99,
            sensor: SensorFaultSpec {
                stuck_ticks: 50,
                ..SensorFaultSpec::default()
            },
            actuator: ActuatorFaultSpec {
                stuck_ticks: 50,
                ..ActuatorFaultSpec::default()
            },
            outages: vec![],
        };
        assert!(!plan.is_enabled());
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let plan = noisy_plan();
        let mut a = FaultInjector::new(&plan, 8, 2, 1);
        let mut b = FaultInjector::new(&plan, 8, 2, 1);
        for t in 0..500 {
            let i = (t as usize) % 8;
            assert_eq!(
                a.sense(SensorChannel::ServerPower, i, t, 100.0),
                b.sense(SensorChannel::ServerPower, i, t, 100.0)
            );
            assert_eq!(a.pstate_write_blocked(i, t), b.pstate_write_blocked(i, t));
            assert_eq!(a.budget_message_lost(i), b.budget_message_lost(i));
        }
    }

    #[test]
    fn stuck_sensor_holds_value_then_thaws() {
        let plan = FaultPlan::disabled()
            .with_seed(3)
            .with_stuck_sensors(1.0, 5);
        let mut inj = FaultInjector::new(&plan, 1, 1, 0);
        let first = inj.sense(SensorChannel::ServerUtilization, 0, 0, 0.8);
        assert_eq!(first, Reading::Stuck(0.8));
        // Later readings inside the window return the frozen value even as
        // the true reading moves.
        assert_eq!(
            inj.sense(SensorChannel::ServerUtilization, 0, 3, 0.1),
            Reading::Stuck(0.8)
        );
        // After the thaw tick the (always-firing) stuck fault re-freezes at
        // the *new* value — proof the old window expired.
        assert_eq!(
            inj.sense(SensorChannel::ServerUtilization, 0, 5, 0.2),
            Reading::Stuck(0.2)
        );
    }

    #[test]
    fn channels_do_not_share_stuck_state() {
        let plan = FaultPlan::disabled()
            .with_seed(3)
            .with_stuck_sensors(1.0, 100);
        let mut inj = FaultInjector::new(&plan, 2, 1, 0);
        assert_eq!(
            inj.sense(SensorChannel::ServerPower, 0, 0, 50.0),
            Reading::Stuck(50.0)
        );
        assert_eq!(
            inj.sense(SensorChannel::EnclosurePower, 0, 1, 200.0),
            Reading::Stuck(200.0)
        );
        assert_eq!(
            inj.sense(SensorChannel::ServerPower, 0, 2, 75.0),
            Reading::Stuck(50.0)
        );
    }

    #[test]
    fn jammed_actuator_blocks_for_its_window() {
        let plan = FaultPlan::disabled()
            .with_seed(1)
            .with_stuck_actuators(1.0, 4);
        let mut inj = FaultInjector::new(&plan, 2, 1, 0);
        assert!(inj.pstate_write_blocked(0, 10)); // jams until t=14
        assert!(inj.pstate_write_blocked(0, 13));
        // At t=14 the window expired, but stuck_prob=1 re-jams instantly;
        // the other server has its own independent state.
        assert!(inj.pstate_write_blocked(1, 10));
    }

    #[test]
    fn noise_perturbs_but_stays_nonnegative() {
        let plan = FaultPlan::disabled().with_seed(11).with_sensor_noise(2.0);
        let mut inj = FaultInjector::new(&plan, 1, 1, 0);
        let mut saw_change = false;
        for t in 0..200 {
            match inj.sense(SensorChannel::ServerPower, 0, t, 10.0) {
                Reading::Noisy(v) => {
                    assert!(v.is_finite() && v >= 0.0);
                    if (v - 10.0).abs() > 1e-9 {
                        saw_change = true;
                    }
                }
                other => panic!("expected noise, got {other:?}"),
            }
        }
        assert!(saw_change);
    }

    #[test]
    fn outage_windows_cover_layer_and_instance() {
        let plan = FaultPlan::disabled()
            .with_outage(ControllerLayer::Em, Some(2), 100, 200)
            .with_outage(ControllerLayer::Gm, None, 50, 60);
        let inj = FaultInjector::new(&plan, 4, 2, 0);
        assert!(inj.offline(ControllerLayer::Em, 2, 150));
        assert!(!inj.offline(ControllerLayer::Em, 1, 150));
        assert!(!inj.offline(ControllerLayer::Em, 2, 200));
        assert!(inj.offline(ControllerLayer::Gm, 0, 55));
        assert!(!inj.offline(ControllerLayer::Sm, 2, 150));
    }

    #[test]
    fn sanitize_clamps_rates_and_drops_empty_windows() {
        let plan = FaultPlan {
            seed: 0,
            sensor: SensorFaultSpec {
                noise_std: f64::NAN,
                stuck_prob: 7.0,
                stuck_ticks: 5,
                drop_prob: -3.0,
            },
            actuator: ActuatorFaultSpec {
                stuck_prob: f64::INFINITY,
                stuck_ticks: 5,
                message_loss_prob: 2.0,
            },
            outages: vec![OutageWindow {
                layer: ControllerLayer::Sm,
                index: None,
                start: 10,
                end: 10,
            }],
        }
        .sanitized();
        assert_eq!(plan.sensor.noise_std, 0.0);
        assert_eq!(plan.sensor.stuck_prob, 1.0);
        assert_eq!(plan.sensor.drop_prob, 0.0);
        assert_eq!(plan.actuator.stuck_prob, 0.0); // non-finite rejected, not clamped
        assert_eq!(plan.actuator.message_loss_prob, 1.0);
        assert!(plan.outages.is_empty());
    }

    #[test]
    fn injector_snapshot_resumes_fault_stream() {
        let plan = noisy_plan();
        let mut live = FaultInjector::new(&plan, 8, 2, 1);
        for t in 0..300 {
            let i = (t as usize) % 8;
            live.sense(SensorChannel::ServerPower, i, t, 100.0 + t as f64);
            live.pstate_write_blocked(i, t);
            live.budget_message_lost(i);
        }
        let json = serde_json::to_string(&live.snapshot()).unwrap();
        let snap: InjectorSnapshot = serde_json::from_str(&json).unwrap();
        let mut resumed = FaultInjector::new(&plan, 8, 2, 1);
        resumed.restore(&snap);
        for t in 300..600 {
            let i = (t as usize) % 8;
            assert_eq!(
                live.sense(SensorChannel::ServerPower, i, t, 50.0),
                resumed.sense(SensorChannel::ServerPower, i, t, 50.0)
            );
            assert_eq!(
                live.pstate_write_blocked(i, t),
                resumed.pstate_write_blocked(i, t)
            );
            assert_eq!(live.budget_message_lost(i), resumed.budget_message_lost(i));
        }
    }

    #[test]
    fn actuator_draws_are_independent_of_other_streams() {
        // The jam stream is counter-based per server: interleaving any
        // number of sensor/message draws must not change the verdicts.
        let plan = noisy_plan();
        let mut quiet = FaultInjector::new(&plan, 4, 2, 0);
        let mut busy = FaultInjector::new(&plan, 4, 2, 0);
        for t in 0..400 {
            let i = (t as usize) % 4;
            // `busy` burns sensor and message draws between actuator draws.
            busy.sense(SensorChannel::ServerPower, i, t, 80.0);
            busy.budget_message_lost(i);
            assert_eq!(
                quiet.pstate_write_blocked(i, t),
                busy.pstate_write_blocked(i, t),
                "jam verdict diverged at tick {t}"
            );
        }
    }

    #[test]
    fn sensor_draws_are_independent_of_other_streams() {
        // Sensor draws live on per-slot counter streams too: burning
        // message-loss draws and sensing *other* slots in between must
        // not change any slot's verdict sequence.
        let plan = noisy_plan();
        let mut quiet = FaultInjector::new(&plan, 4, 2, 1);
        let mut busy = FaultInjector::new(&plan, 4, 2, 1);
        for t in 0..400 {
            let i = (t as usize) % 4;
            busy.budget_message_lost(i);
            busy.sense(SensorChannel::EnclosurePower, (t as usize) % 2, t, 900.0);
            busy.sense(SensorChannel::GroupChildPower, (t as usize) % 3, t, 1800.0);
            assert_eq!(
                quiet.sense(SensorChannel::ServerPower, i, t, 80.0),
                busy.sense(SensorChannel::ServerPower, i, t, 80.0),
                "sense verdict diverged at tick {t}"
            );
        }
    }

    #[test]
    fn message_draws_are_per_link_counter_streams() {
        // A link's loss verdicts depend only on how many grants *that
        // link* has carried — interleaving draws on other links (or any
        // sensor/actuator draws) must not perturb the sequence.
        let plan = noisy_plan();
        // 8 servers + 2 enclosures = 10 grant links; the compared links
        // (0..5) and the interference links (5..10) stay disjoint.
        let mut quiet = FaultInjector::new(&plan, 8, 2, 0);
        let mut busy = FaultInjector::new(&plan, 8, 2, 0);
        for t in 0..400 {
            let link = (t as usize) % 5;
            busy.budget_message_lost(5 + link);
            busy.sense(SensorChannel::ServerPower, link, t, 80.0);
            busy.pstate_write_blocked(link, t);
            assert_eq!(
                quiet.budget_message_lost(link),
                busy.budget_message_lost(link),
                "loss verdict diverged at tick {t}"
            );
        }
    }

    #[test]
    fn out_of_range_links_never_lose_messages() {
        let plan = noisy_plan();
        let mut inj = FaultInjector::new(&plan, 2, 1, 0);
        // 2 servers + 1 enclosure = 3 grant links; anything past that is
        // a routing bug upstream, answered conservatively with "not lost"
        // and zero draws.
        assert!(!inj.budget_message_lost(3));
        assert!(!inj.budget_message_lost(usize::MAX));
    }

    #[test]
    fn normalized_merges_overlapping_and_adjacent_windows() {
        let plan = FaultPlan::disabled()
            .with_outage(ControllerLayer::Em, Some(1), 30, 40)
            .with_outage(ControllerLayer::Em, Some(1), 10, 20)
            .with_outage(ControllerLayer::Em, Some(1), 20, 32) // adjacent + overlap
            .with_outage(ControllerLayer::Em, Some(2), 15, 25) // other instance
            .with_outage(ControllerLayer::Gm, None, 5, 9)
            .with_outage(ControllerLayer::Gm, None, 9, 12) // adjacent
            .normalized();
        assert_eq!(
            plan.outages,
            vec![
                OutageWindow {
                    layer: ControllerLayer::Em,
                    index: Some(1),
                    start: 10,
                    end: 40,
                },
                OutageWindow {
                    layer: ControllerLayer::Em,
                    index: Some(2),
                    start: 15,
                    end: 25,
                },
                OutageWindow {
                    layer: ControllerLayer::Gm,
                    index: None,
                    start: 5,
                    end: 12,
                },
            ]
        );
    }

    #[test]
    fn normalized_keeps_whole_layer_windows_apart_from_indexed_ones() {
        // An `index: None` window covers every instance; merging it with
        // an indexed window would change the covered set, so they stay
        // separate even when the tick ranges touch.
        let plan = FaultPlan::disabled()
            .with_outage(ControllerLayer::Em, None, 10, 20)
            .with_outage(ControllerLayer::Em, Some(0), 15, 30)
            .normalized();
        assert_eq!(plan.outages.len(), 2);
        // The union semantics are unchanged either way.
        let inj = FaultInjector::new(&plan, 4, 2, 0);
        assert!(inj.offline(ControllerLayer::Em, 0, 25));
        assert!(inj.offline(ControllerLayer::Em, 1, 12));
        assert!(!inj.offline(ControllerLayer::Em, 1, 25));
    }

    #[test]
    fn normalized_covers_exactly_what_the_raw_plan_covers() {
        // Merging is a pure union: every (layer, instance, tick) triple
        // answers `offline` identically before and after normalization.
        let raw = FaultPlan::disabled()
            .with_outage(ControllerLayer::Sm, Some(3), 0, 5)
            .with_outage(ControllerLayer::Sm, Some(3), 5, 7)
            .with_outage(ControllerLayer::Em, None, 20, 25)
            .with_outage(ControllerLayer::Em, Some(1), 24, 40)
            .with_outage(ControllerLayer::Gm, None, 50, 60)
            .with_outage(ControllerLayer::Gm, None, 55, 58);
        let norm = raw.clone().normalized();
        let covered =
            |plan: &FaultPlan, layer, idx, t| plan.outages.iter().any(|w| w.covers(layer, idx, t));
        for t in 0..70 {
            for layer in [
                ControllerLayer::Sm,
                ControllerLayer::Em,
                ControllerLayer::Gm,
            ] {
                for idx in 0..6 {
                    assert_eq!(
                        covered(&raw, layer, idx, t),
                        covered(&norm, layer, idx, t),
                        "coverage diverged at ({layer:?}, {idx}, {t})"
                    );
                }
            }
        }
    }

    #[test]
    fn actuator_shards_replay_the_whole_injector() {
        let plan = noisy_plan();
        let mut whole = FaultInjector::new(&plan, 10, 2, 0);
        let mut sharded = FaultInjector::new(&plan, 10, 2, 0);
        for t in 0..200 {
            let want: Vec<bool> = (0..10).map(|i| whole.pstate_write_blocked(i, t)).collect();
            let mut got = vec![false; 10];
            let mut carve = sharded.actuator_shards();
            let mut shards: Vec<_> = [0..3, 3..7, 7..10].map(|r| carve.take(r)).into();
            // Deliberately evaluate shards out of order: counter streams
            // make the order irrelevant.
            for shard in shards.iter_mut().rev() {
                for (i, slot) in got.iter_mut().enumerate() {
                    if (shard.lo..shard.lo + shard.thaw.len()).contains(&i) {
                        *slot = shard.pstate_write_blocked(i, t);
                    }
                }
            }
            assert_eq!(want, got, "shard verdicts diverged at tick {t}");
        }
        // And the underlying state (thaw ticks + counters) stayed in
        // lockstep, so the next sequential draw agrees too.
        assert_eq!(whole.snapshot(), sharded.snapshot());
    }

    #[test]
    fn sensor_shards_replay_the_whole_injector() {
        let plan = noisy_plan();
        let mut whole = FaultInjector::new(&plan, 10, 2, 0);
        let mut sharded = FaultInjector::new(&plan, 10, 2, 0);
        for t in 0..200 {
            let want: Vec<Reading> = (0..10)
                .map(|i| whole.sense(SensorChannel::ServerPower, i, t, 60.0 + i as f64))
                .collect();
            let wall = whole.pstate_write_blocked(3, t);
            let mut got = vec![Reading::Dropped; 10];
            let mut blocked = false;
            let ranges = [0..3, 3..7, 7..10];
            let (mut acts, mut senses, _) = sharded.draw_shards(SensorChannel::ServerPower);
            let mut shards: Vec<_> = ranges
                .iter()
                .map(|r| (acts.take(r.clone()), senses.take(r.clone())))
                .collect();
            // Deliberately evaluate shards out of order: counter streams
            // make the order irrelevant.
            for (k, (act, sens)) in shards.iter_mut().enumerate().rev() {
                for i in ranges[k].clone() {
                    got[i] = sens.sense(i, t, 60.0 + i as f64);
                    if i == 3 {
                        blocked = act.pstate_write_blocked(i, t);
                    }
                }
            }
            assert_eq!(want, got, "sense verdicts diverged at tick {t}");
            assert_eq!(wall, blocked, "jam verdict diverged at tick {t}");
        }
        assert_eq!(whole.snapshot(), sharded.snapshot());
    }

    #[test]
    fn gm_child_shards_replay_the_whole_injector() {
        // 2 enclosures + 3 standalone servers = 5 GM children; the
        // standalone child k is GM child 2 + k.
        let plan = noisy_plan();
        let mut whole = FaultInjector::new(&plan, 8, 2, 3);
        let mut sharded = FaultInjector::new(&plan, 8, 2, 3);
        for t in 0..200 {
            let want: Vec<Reading> = (0..5)
                .map(|c| whole.sense(SensorChannel::GroupChildPower, c, t, 400.0 + c as f64))
                .collect();
            let mut got = vec![Reading::Dropped; 5];
            let enc_ranges = [0..1, 1..2];
            let sa_ranges = [0..2, 2..3];
            let (mut encs, mut sas) = sharded.gm_child_shards();
            let mut shards: Vec<_> = enc_ranges
                .iter()
                .zip(&sa_ranges)
                .map(|(e, s)| (encs.take(e.clone()), sas.take(s.clone())))
                .collect();
            for (k, (enc, sa)) in shards.iter_mut().enumerate().rev() {
                for e in enc_ranges[k].clone() {
                    got[e] = enc.sense(e, t, 400.0 + e as f64);
                }
                for s in sa_ranges[k].clone() {
                    got[2 + s] = sa.sense(s, t, 400.0 + (2 + s) as f64);
                }
            }
            assert_eq!(want, got, "GM child verdicts diverged at tick {t}");
        }
        assert_eq!(whole.snapshot(), sharded.snapshot());
    }

    #[test]
    fn em_draw_shards_pair_servers_with_enclosures() {
        let plan = noisy_plan();
        let mut whole = FaultInjector::new(&plan, 6, 3, 0);
        let mut sharded = FaultInjector::new(&plan, 6, 3, 0);
        for t in 0..100 {
            let want_sense: Vec<Reading> = (0..3)
                .map(|e| whole.sense(SensorChannel::EnclosurePower, e, t, 700.0))
                .collect();
            let want_block: Vec<bool> = (0..6).map(|s| whole.pstate_write_blocked(s, t)).collect();
            let server_ranges = [0..2, 2..6];
            let enc_ranges = [0..1, 1..3];
            let mut got_sense = vec![Reading::Dropped; 3];
            let mut got_block = vec![false; 6];
            let (mut acts, mut senses, _) = sharded.draw_shards(SensorChannel::EnclosurePower);
            let mut shards: Vec<_> = server_ranges
                .iter()
                .zip(&enc_ranges)
                .map(|(s, e)| (acts.take(s.clone()), senses.take(e.clone())))
                .collect();
            for (k, (act, sens)) in shards.iter_mut().enumerate().rev() {
                for e in enc_ranges[k].clone() {
                    got_sense[e] = sens.sense(e, t, 700.0);
                }
                for s in server_ranges[k].clone() {
                    got_block[s] = act.pstate_write_blocked(s, t);
                }
            }
            assert_eq!(want_sense, got_sense, "EM sense diverged at tick {t}");
            assert_eq!(want_block, got_block, "EM jam diverged at tick {t}");
        }
        assert_eq!(whole.snapshot(), sharded.snapshot());
    }

    #[test]
    fn plan_roundtrips_through_json() {
        let plan = noisy_plan().with_outage(ControllerLayer::Em, Some(1), 5, 9);
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }
}
