//! Controller-redundancy integration tests: warm-standby promotion,
//! term fencing, the lease/promotion same-tick race, and the
//! thread-invisibility of the whole protocol.
//!
//! The paper's architecture tolerates controller loss by degrading to
//! static caps; the redundancy subsystem upgrades that story — a GM/EM
//! outage is bridged by promoting a warm standby within the heartbeat
//! miss threshold, so coordinated capping never stops and the static-cap
//! fallback stays idle while a standby is healthy.

use no_power_struggles::prelude::*;
use proptest::prelude::*;

/// Thread counts swept against the sequential reference.
const SWEEP: [usize; 3] = [2, 4, 7];

/// End-state fingerprint: bit-packed checkpoint JSON, full telemetry
/// stream, and raw stats (same contract as `parallel_differential`).
fn fingerprint(cfg: &ExperimentConfig) -> (String, Vec<TelemetryEvent>, RunStats) {
    let mut runner = Runner::new(cfg);
    runner.enable_ring_telemetry(1 << 20);
    let stats = runner.run_to_horizon();
    let events: Vec<TelemetryEvent> = runner
        .ring_telemetry()
        .expect("ring recorder was installed")
        .events()
        .cloned()
        .collect();
    let snap = runner.snapshot();
    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    (json, events, stats)
}

/// A paper scenario with a whole-layer outage window and standbys on.
fn standby_cfg(layer: ControllerLayer, start: u64, end: u64) -> ExperimentConfig {
    Scenario::paper(SystemKind::BladeA, Mix::Hh60, CoordinationMode::Coordinated)
        .horizon(600)
        .seed(37)
        .faults(
            FaultPlan::disabled()
                .with_seed(41)
                .with_outage(layer, None, start, end),
        )
        .standbys()
        .invariants(true)
        .build()
}

#[test]
fn gm_standby_promotes_within_miss_threshold_and_keeps_capping() {
    let cfg = standby_cfg(ControllerLayer::Gm, 150, 300);
    let rc = cfg.redundancy;
    let mut runner = Runner::new(&cfg);
    runner.enable_ring_telemetry(1 << 20);
    runner.run_to_horizon();
    let rstats = runner.redundancy_stats();
    let istats = runner.invariant_stats();
    let faults = runner.fault_stats();

    // One promotion across the outage, one fencing when the primary
    // returns, and the fence rides the existing stale-rejection path.
    assert_eq!(rstats.promotions, 1);
    assert_eq!(rstats.fenced, 1);
    assert!(
        faults.stale_rejected >= 1,
        "fencing counts as StaleRejected"
    );
    // Coordinated capping never fell back to static caps.
    assert_eq!(faults.degradations, 0);
    // Zero safety-invariant violations while failing over.
    assert!(istats.is_clean(), "invariant violations: {istats}");
    // The replica ends re-integrated as standby on the bumped term.
    let rep = runner.gm_replica().expect("GM standby configured");
    assert!(!rep.promoted);
    assert_eq!(rep.term, 2);

    // Promotion landed within the miss threshold of the outage start.
    let deadline = 150 + rc.heartbeat_interval_ticks * rc.miss_threshold as u64;
    let events: Vec<TelemetryEvent> = runner
        .ring_telemetry()
        .expect("ring recorder was installed")
        .events()
        .cloned()
        .collect();
    let promoted_at = events
        .iter()
        .find_map(|e| match e {
            TelemetryEvent::FailoverPromoted { tick, .. } => Some(*tick),
            _ => None,
        })
        .expect("a FailoverPromoted event was emitted");
    assert!(
        (150..=deadline).contains(&promoted_at),
        "promotion at {promoted_at}, outside [150, {deadline}]"
    );
    // The returning primary was re-integrated after the outage end.
    assert!(events.iter().any(|e| matches!(
        e,
        TelemetryEvent::StandbyReintegrated { tick, .. } if *tick >= 300
    )));
}

#[test]
fn em_standbys_bridge_a_whole_layer_outage() {
    let cfg = standby_cfg(ControllerLayer::Em, 150, 300);
    let mut runner = Runner::new(&cfg);
    runner.run_to_horizon();
    let rstats = runner.redundancy_stats();
    let faults = runner.fault_stats();
    let num_ems = cfg.topology.num_enclosures();
    assert!(num_ems >= 1);
    // Every enclosure's standby promoted once and was fenced once.
    assert_eq!(rstats.promotions, num_ems as u64);
    assert_eq!(rstats.fenced, num_ems as u64);
    assert_eq!(faults.degradations, 0);
    assert!(runner.invariant_stats().is_clean());
    // Sync traffic actually flowed (the shadows were not stillborn).
    assert!(rstats.syncs_applied > 0);
    for e in 0..num_ems {
        let rep = runner.em_replica(e).expect("EM standby configured");
        assert_eq!(rep.term, 2, "enclosure {e} term");
        assert!(!rep.promoted, "enclosure {e} re-integrated");
    }
}

#[test]
fn without_standby_the_same_outage_degrades_to_static_caps() {
    // Control experiment for the two tests above: the identical outage
    // with redundancy off must take the legacy static-cap fallback.
    let mut cfg = standby_cfg(ControllerLayer::Gm, 150, 300);
    cfg.redundancy = RedundancyConfig::default();
    let mut runner = Runner::new(&cfg);
    runner.run_to_horizon();
    assert_eq!(runner.redundancy_stats().promotions, 0);
    assert!(runner.fault_stats().degradations > 0);
    assert!(runner.fault_stats().outage_epochs > 0);
    assert!(runner.invariant_stats().is_clean());
}

#[test]
fn lease_expiry_races_same_tick_promotion() {
    // Engineered collision: with T_em = 10, leases of 20 ticks, and an
    // EM outage starting at t = 100, the last healthy member grants go
    // out at t = 90 with lease_until = 110 — exactly the tick the
    // failure detector (heartbeat 5, miss 3) promotes the standby. The
    // expiry sweep runs first in `act`, reverting members to static
    // caps; the promoted standby re-grants within the same tick's EM
    // epoch. Both events must happen, and the whole race must be
    // bit-identical at every thread count.
    let bus = BusConfig::default().with_seed(5).with_leases(20);
    let cfg = Scenario::paper(SystemKind::BladeA, Mix::Hh60, CoordinationMode::Coordinated)
        .intervals(Intervals {
            ec: 1,
            sm: 5,
            em: 10,
            gm: 20,
            vmc: 600,
        })
        .horizon(400)
        .seed(23)
        .faults(FaultPlan::disabled().with_seed(29).with_outage(
            ControllerLayer::Em,
            None,
            100,
            160,
        ))
        .bus(bus)
        .standbys()
        .invariants(true)
        .build();
    assert_eq!(cfg.redundancy.heartbeat_interval_ticks, 5);
    assert_eq!(cfg.redundancy.miss_threshold, 3);
    let mut runner = Runner::new(&cfg);
    runner.enable_ring_telemetry(1 << 20);
    runner.run_to_horizon();
    let events: Vec<TelemetryEvent> = runner
        .ring_telemetry()
        .expect("ring recorder was installed")
        .events()
        .cloned()
        .collect();
    let promo_tick = events
        .iter()
        .find_map(|e| match e {
            TelemetryEvent::FailoverPromoted { tick, .. } => Some(*tick),
            _ => None,
        })
        .expect("standby promoted");
    assert_eq!(promo_tick, 110, "promotion lands at outage + 2 heartbeats");
    assert!(
        events.iter().any(|e| matches!(
            e,
            TelemetryEvent::LeaseExpired { tick, .. } if *tick == promo_tick
        )),
        "a lease expires on the promotion tick itself"
    );
    assert!(runner.fault_stats().leases_expired > 0);
    assert!(runner.invariant_stats().is_clean());

    // The race resolves identically at every thread count.
    let reference = fingerprint(&cfg);
    for &threads in &SWEEP {
        let mut c = cfg.clone();
        c.threads = threads;
        let got = fingerprint(&c);
        assert_eq!(got.2, reference.2, "stats diverged at {threads} threads");
        assert_eq!(
            got.1, reference.1,
            "telemetry diverged at {threads} threads"
        );
        assert_eq!(
            got.0, reference.0,
            "checkpoint diverged at {threads} threads"
        );
    }
}

#[test]
fn snapshots_capture_replica_state_mid_outage() {
    // Checkpoint in the middle of the promoted window and resume: the
    // resumed run (including term numbers and in-flight syncs) must
    // finish byte-identical to the uninterrupted one.
    let cfg = standby_cfg(ControllerLayer::Gm, 150, 300);
    let mut reference = Runner::new(&cfg);
    reference.run_to_horizon();
    let want = serde_json::to_string(&reference.snapshot()).expect("snapshot serializes");

    let mut first = Runner::new(&cfg);
    while first.ticks_done() < 200 {
        first.tick();
    }
    let mid = first.snapshot();
    assert!(
        mid.plane
            .replicas
            .gm_replica
            .as_ref()
            .expect("replica in snapshot")
            .promoted,
        "checkpoint taken while the standby leads"
    );
    let mut resumed = Runner::resume(&cfg, &mid).expect("checkpoint resumes");
    resumed.run_to_horizon();
    let got = serde_json::to_string(&resumed.snapshot()).expect("snapshot serializes");
    assert_eq!(got, want, "mid-failover resume diverged");
}

/// Randomized outage schedules with standbys + invariants on: the
/// protocol (heartbeats, promotions, fencing, sync traffic on the shared
/// bus) must be invisible to the thread count — bit-identical stats,
/// telemetry, and checkpoints across {1, 2, 4, 7} — and must never
/// trip the safety-invariant monitor.
fn arb_outage_plan() -> impl Strategy<Value = FaultPlan> {
    (
        0u64..1_000,
        0usize..3,
        20u64..70,
        30u64..90,
        proptest::bool::ANY,
        0.0f64..0.05,
    )
        .prop_map(|(seed, layer_idx, start, len, whole, loss)| {
            let layer = [
                ControllerLayer::Sm,
                ControllerLayer::Em,
                ControllerLayer::Gm,
            ][layer_idx];
            let instance = if whole { None } else { Some(0) };
            FaultPlan::disabled()
                .with_seed(seed)
                .with_message_loss(loss)
                .with_outage(layer, instance, start, start + len)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn failover_is_invisible_to_thread_count(
        (racks, encs, blades) in (1usize..3, 1usize..3, 2usize..5),
        standalone in 1usize..4,
        seed in 0u64..1_000,
        plan in arb_outage_plan(),
        lease in prop_oneof![Just(0u64), 15u64..40],
        (interval, miss) in (2u64..8, 1u32..4),
    ) {
        let bus = BusConfig::default().with_seed(seed).with_leases(lease);
        let cfg = Scenario::multi_rack(
            SystemKind::BladeA,
            CoordinationMode::Coordinated,
            racks,
            encs,
            blades,
            standalone,
        )
        .horizon(160)
        .seed(seed)
        .faults(plan)
        .bus(bus)
        .redundancy(RedundancyConfig::all_standbys().with_heartbeat(interval, miss))
        .invariants(true)
        .build();
        let reference = fingerprint(&cfg);
        for &threads in &SWEEP {
            let mut c = cfg.clone();
            c.threads = threads;
            let got = fingerprint(&c);
            prop_assert_eq!(&got.2, &reference.2, "stats diverged at {} threads", threads);
            prop_assert_eq!(&got.1, &reference.1, "telemetry diverged at {} threads", threads);
            prop_assert_eq!(&got.0, &reference.0, "checkpoint diverged at {} threads", threads);
        }
        let mut runner = Runner::new(&cfg);
        runner.run_to_horizon();
        prop_assert!(
            runner.invariant_stats().is_clean(),
            "invariant violations under failover: {}",
            runner.invariant_stats()
        );
    }
}
