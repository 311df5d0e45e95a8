//! Per-shard views and buffers: the scratch every sharded epoch fills
//! and the reduction drains, the carved state each epoch body works on,
//! and the ingestion boundary every controller input passes through.

use nps_control::{BankShard, ControllerBank, GroupCapper};
use nps_metrics::{
    ControllerKind, DegradationPolicy, FaultStats, SensorFaultKind, TelemetryEvent,
    ViolationCounter,
};
use nps_models::PState;
use nps_sim::par::Carve;
use nps_sim::{
    ActuatorDrawShard, ActuatorShard, FaultInjector, Outages, Reading, SensorChannel,
    SensorDrawShard, ShardEffects, SimEpochView, Simulation,
};
use std::ops::Range;

/// One shard's reusable buffers: the side effects its epoch body
/// buffers for the in-order reduction, and the EM's working arrays.
/// Owned by the runner and emptied by every reduction, so a sharded
/// epoch allocates nothing once the buffers have grown.
#[derive(Debug, Default)]
pub(super) struct ShardScratch {
    pub(super) fstats: FaultStats,
    /// Static-cap violation verdicts (SM and EM epochs; order-free).
    pub(super) win: ViolationCounter,
    pub(super) telemetry: Vec<TelemetryEvent>,
    /// GM window pass: standalone-child telemetry, replayed after every
    /// shard's enclosure telemetry.
    pub(super) telemetry_sa: Vec<TelemetryEvent>,
    // EM epoch: one enclosure's member powers and reallocated budgets,
    // then every owned enclosure's grants and record.
    pub(super) power: Vec<f64>,
    pub(super) alloc: Vec<f64>,
    pub(super) grants: Vec<f64>,
    pub(super) records: Vec<EmRecord>,
}

/// One enclosure's place in its shard's EM buffers, replayed in the
/// reduction: its telemetry, then (coordinated modes) its member grant
/// deliveries through the bus, then — for an EM that completed an online
/// epoch — the conservation check and the state sync to its standby.
#[derive(Debug)]
pub(super) struct EmRecord {
    pub(super) enc: usize,
    /// How many of the shard's next buffered telemetry events are this
    /// enclosure's.
    pub(super) events: usize,
    /// This enclosure's member grants in the shard's `grants`.
    pub(super) grants: Range<usize>,
    /// Whether the EM ran a full (online) epoch this tick.
    pub(super) online: bool,
    /// Sum of the reallocated member budgets (conservation).
    pub(super) alloc_sum: f64,
    /// The effective cap the reallocation ran against.
    pub(super) eff_cap: f64,
}

/// One shard's slice of the per-server state during an EC or SM epoch.
pub(super) struct EpochShard<'a> {
    /// This shard's servers.
    pub(super) range: Range<usize>,
    pub(super) bank: BankShard<'a>,
    pub(super) act: ActuatorShard<'a>,
    /// Per-server actuator-jam counter streams (order-free draws).
    pub(super) draw: ActuatorDrawShard<'a>,
    /// The epoch channel's per-server sensor counter streams.
    pub(super) sense: SensorDrawShard<'a>,
    /// The fault plan's controller outage windows.
    pub(super) outages: Outages<'a>,
    /// This epoch's measurement-window snapshots (EC: utilization, SM:
    /// power).
    pub(super) snap: &'a mut [f64],
    /// This epoch's hold-last-good store.
    pub(super) last_good: &'a mut [f64],
    /// SM standing P-state demands (written by the min-merge SM, read by
    /// the EC).
    pub(super) sm_hold: &'a mut [Option<PState>],
    pub(super) sc: &'a mut ShardScratch,
}

/// One shard's slice of the EM epoch's state: its servers' bank,
/// actuator and jam streams, and the enclosures it owns.
pub(super) struct EmShard<'a> {
    /// First global server id of this shard.
    pub(super) lo: usize,
    /// First enclosure this shard owns.
    pub(super) enc_lo: usize,
    pub(super) bank: BankShard<'a>,
    pub(super) act: ActuatorShard<'a>,
    pub(super) draw: ActuatorDrawShard<'a>,
    /// Enclosure-power sensor streams of the owned enclosures.
    pub(super) sense: SensorDrawShard<'a>,
    pub(super) snap_pow: &'a mut [f64],
    pub(super) snap_encpow: &'a mut [f64],
    pub(super) last_encpow: &'a mut [f64],
    pub(super) em_was_down: &'a mut [bool],
    pub(super) ems: &'a mut [GroupCapper],
    pub(super) sc: &'a mut ShardScratch,
}

/// One shard's slice of the GM window pass: its enclosure children and
/// its standalone children.
pub(super) struct GmShard<'a> {
    /// First enclosure this shard owns.
    pub(super) enc_lo: usize,
    /// First standalone-child ordinal of this shard.
    pub(super) sa_lo: usize,
    pub(super) sense_enc: SensorDrawShard<'a>,
    pub(super) sense_sa: SensorDrawShard<'a>,
    /// Power-window snapshots of the shard's standalone servers.
    pub(super) snap_pow: &'a mut [f64],
    pub(super) snap_enc: &'a mut [f64],
    pub(super) enc_raw: &'a mut [f64],
    pub(super) sa_raw: &'a mut [f64],
    pub(super) last_enc: &'a mut [f64],
    pub(super) last_sa: &'a mut [f64],
    pub(super) sc: &'a mut ShardScratch,
}

/// Carves the simulator, the controller bank, the injector and one
/// epoch's per-server arrays into [`EpochShard`]s, built lazily as the
/// driver hands them out, each paired with its shard's scratch.
#[allow(clippy::too_many_arguments)]
pub(super) fn server_shards<'a>(
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
    let (mut draws, mut senses, outages) = injector.draw_shards(channel);
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
                outages,
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
pub(super) fn shard_ingest(
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
pub(super) fn ingest_buffered(
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
    let (delivered, fault) = match reading {
        Reading::Clean(v) => (Some(v), None),
        Reading::Noisy(v) => (Some(v), Some(SensorFaultKind::Noise)),
        Reading::Stuck(v) => (Some(v), Some(SensorFaultKind::Stuck)),
        Reading::Dropped => (None, Some(SensorFaultKind::Dropped)),
    };
    if let Some(fault) = fault {
        *match fault {
            SensorFaultKind::Noise => &mut fstats.sensor_noise,
            SensorFaultKind::Stuck => &mut fstats.sensor_stuck,
            SensorFaultKind::Dropped => &mut fstats.sensor_dropped,
        } += 1;
        if recording {
            telemetry.push(TelemetryEvent::SensorFault {
                tick: t,
                controller: ctrl,
                index: idx,
                fault,
            });
        }
    }
    let (value, policy) = match delivered {
        Some(v) if v.is_finite() && v >= 0.0 => (v, None),
        Some(_) => (*last_good, Some(DegradationPolicy::ClampNonFinite)),
        None => (*last_good, Some(DegradationPolicy::HoldLastGood)),
    };
    if let Some(policy) = policy {
        *if delivered.is_some() {
            &mut fstats.clamped_inputs
        } else {
            &mut fstats.degradations
        } += 1;
        if recording {
            telemetry.push(TelemetryEvent::Degradation {
                tick: t,
                controller: ctrl,
                index: idx,
                policy,
            });
        }
    }
    *last_good = value;
    value
}
