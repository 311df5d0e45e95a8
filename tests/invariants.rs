//! Safety-invariant monitor sweep: re-runs the golden-suite
//! configurations (plus fault/bus/standby variants) with the runtime
//! monitor enabled and requires **zero violations** everywhere. The
//! golden traces pin trajectories bit-exactly; this suite pins the
//! *meaning* of those trajectories — electrical caps respected, server
//! caps above the deepest p-state floor, leases within bounds, and
//! budget conservation at every EM/GM epoch.

use no_power_struggles::prelude::*;

/// The golden fault plan from `golden_trace.rs`: every fault family at
/// low rates plus one EM outage window.
fn golden_fault_plan() -> FaultPlan {
    FaultPlan::disabled()
        .with_seed(99)
        .with_sensor_noise(0.02)
        .with_stuck_sensors(0.01, 12)
        .with_dropped_samples(0.01)
        .with_stuck_actuators(0.005, 8)
        .with_message_loss(0.02)
        .with_outage(ControllerLayer::Em, Some(0), 200, 320)
}

/// Runs `cfg` with the monitor forced on and asserts a clean audit with
/// a non-trivial number of checks.
fn assert_clean(name: &str, cfg: &ExperimentConfig) {
    let mut cfg = cfg.clone();
    cfg.invariants = true;
    let mut runner = Runner::new(&cfg);
    runner.run_to_horizon();
    let istats = runner.invariant_stats();
    assert!(
        istats.checks > 0,
        "{name}: the monitor ran but checked nothing"
    );
    assert!(istats.is_clean(), "{name}: invariant violations: {istats}");
}

#[test]
fn blade_a_180_coordinated_is_clean() {
    let cfg = Scenario::paper(
        SystemKind::BladeA,
        Mix::All180,
        CoordinationMode::Coordinated,
    )
    .horizon(800)
    .seed(7)
    .build();
    assert_clean("blade_a_180_coordinated", &cfg);
}

#[test]
fn server_b_60hh_uncoordinated_is_clean() {
    let cfg = Scenario::paper(
        SystemKind::ServerB,
        Mix::Hh60,
        CoordinationMode::Uncoordinated,
    )
    .horizon(800)
    .seed(11)
    .build();
    assert_clean("server_b_60hh_uncoordinated", &cfg);
}

#[test]
fn blade_a_60m_vmconly_is_clean() {
    let cfg = Scenario::paper(SystemKind::BladeA, Mix::M60, CoordinationMode::Coordinated)
        .mask(ControllerMask::VMC_ONLY)
        .horizon(1_100)
        .seed(13)
        .build();
    assert_clean("blade_a_60m_vmconly", &cfg);
}

#[test]
fn server_b_60h_coordinated_faults_is_clean() {
    let cfg = Scenario::paper(SystemKind::ServerB, Mix::H60, CoordinationMode::Coordinated)
        .horizon(700)
        .seed(17)
        .faults(golden_fault_plan())
        .build();
    assert_clean("server_b_60h_coordinated_faults", &cfg);
}

#[test]
fn multi_rack_bus_faults_is_clean() {
    let bus = BusConfig::default()
        .with_seed(31)
        .with_delay(1, 1)
        .with_drop(0.04)
        .with_duplication(0.02)
        .with_reordering(0.05, 2)
        .with_leases(30)
        .with_retry(RetryConfig {
            max_attempts: 2,
            backoff_base_ticks: 2,
            backoff_max_ticks: 16,
            jitter_ticks: 1,
        });
    let cfg = Scenario::multi_rack(
        SystemKind::BladeA,
        CoordinationMode::Coordinated,
        2,
        2,
        4,
        2,
    )
    .horizon(400)
    .seed(29)
    .bus(bus)
    .build();
    assert_clean("multi_rack_bus_faults", &cfg);
}

#[test]
fn lopsided_weighted_shards_is_clean() {
    let topo = Topology::builder()
        .rack(4, 32)
        .racks(4, 1, 8)
        .standalone(6)
        .build();
    let cfg = Scenario::paper(
        SystemKind::BladeA,
        Mix::All180,
        CoordinationMode::Coordinated,
    )
    .topology(topo)
    .electrical_cap(0.9)
    .horizon(400)
    .seed(43)
    .faults(golden_fault_plan())
    .build();
    assert_clean("lopsided_weighted_shards", &cfg);
}

#[test]
fn gm_vmc_parallel_is_clean() {
    let cfg = Scenario::multi_rack(
        SystemKind::BladeA,
        CoordinationMode::Coordinated,
        2,
        2,
        8,
        4,
    )
    .intervals(Intervals {
        ec: 1,
        sm: 5,
        em: 10,
        gm: 20,
        vmc: 120,
    })
    .electrical_cap(0.9)
    .horizon(500)
    .seed(59)
    .faults(golden_fault_plan())
    .build();
    assert_clean("gm_vmc_parallel", &cfg);
}

#[test]
fn hetero_electrical_coordinated_is_clean() {
    let cfg = Scenario::paper(SystemKind::BladeA, Mix::L60, CoordinationMode::Coordinated)
        .heterogeneous()
        .electrical_cap(0.92)
        .horizon(600)
        .seed(23)
        .build();
    assert_clean("hetero_electrical_coordinated", &cfg);
}

#[test]
fn failover_standby_is_clean() {
    let cfg = Scenario::paper(SystemKind::BladeA, Mix::Hh60, CoordinationMode::Coordinated)
        .horizon(700)
        .seed(47)
        .faults(
            FaultPlan::disabled()
                .with_seed(53)
                .with_outage(ControllerLayer::Gm, None, 150, 300)
                .with_outage(ControllerLayer::Em, Some(0), 350, 450),
        )
        .standbys()
        .invariants(true)
        .build();
    assert_clean("failover_standby", &cfg);
}

#[test]
fn monitor_off_by_default_and_free_when_off() {
    // With `invariants: false` (the default), the sweep never runs: the
    // audit counters stay zero and no `InvariantViolated` events can be
    // emitted.
    let cfg = Scenario::paper(
        SystemKind::BladeA,
        Mix::All180,
        CoordinationMode::Coordinated,
    )
    .horizon(200)
    .seed(7)
    .build();
    assert!(!cfg.invariants);
    let mut runner = Runner::new(&cfg);
    runner.run_to_horizon();
    let istats = runner.invariant_stats();
    assert_eq!(istats.checks, 0);
    assert!(istats.is_clean());
}

#[test]
fn monitor_does_not_perturb_the_trajectory() {
    // The monitor is read-only: enabling it must not change the
    // simulated trajectory, only add audit counters (and events on
    // violation). Compare full checkpoints minus the istats field.
    let base = Scenario::paper(SystemKind::ServerB, Mix::H60, CoordinationMode::Coordinated)
        .horizon(300)
        .seed(17)
        .faults(golden_fault_plan())
        .build();
    let mut on = base.clone();
    on.invariants = true;

    let mut r_off = Runner::new(&base);
    let stats_off = r_off.run_to_horizon();
    let mut r_on = Runner::new(&on);
    let stats_on = r_on.run_to_horizon();
    assert_eq!(stats_off, stats_on, "monitor perturbed the run stats");

    let mut snap_off = r_off.snapshot();
    let mut snap_on = r_on.snapshot();
    // Only the audit counters may differ between the two checkpoints.
    snap_off.safety.istats = InvariantStats::default();
    snap_on.safety.istats = InvariantStats::default();
    let off = serde_json::to_string(&snap_off).expect("snapshot serializes");
    let on = serde_json::to_string(&snap_on).expect("snapshot serializes");
    assert_eq!(off, on, "monitor perturbed the checkpoint");
}

/// A local budget below the deepest P-state's full-load power can never
/// be met. Server B's floor is 235 of 300 W and Blade A's is 78 of
/// 120 W, so a 30%-off local budget strands exactly the 20 standalone
/// Server B machines of a heterogeneous 60-server fleet (ids 40..60).
/// The sweep must flag each of them on every tick, in ascending order.
/// The check count was recorded with the sweep that re-derived the
/// verdict from the models on every tick.
#[test]
fn unsatisfiable_local_caps_flag_the_floor_every_tick_in_order() {
    let horizon = 120u64;
    let cfg = Scenario::paper(SystemKind::BladeA, Mix::L60, CoordinationMode::Coordinated)
        .heterogeneous()
        .budgets(BudgetSpec {
            group_off: 0.30,
            enclosure_off: 0.30,
            local_off: 0.30,
        })
        .electrical_cap(0.9)
        .bus(BusConfig::default().with_seed(5).with_leases(30))
        .horizon(horizon)
        .seed(19)
        .invariants(true)
        .build();
    let mut runner = Runner::new(&cfg);
    runner.enable_ring_telemetry(1 << 16);
    runner.run_to_horizon();
    let istats = runner.invariant_stats();
    // Tick 0 only steps the plant; every later tick is swept.
    assert_eq!(istats.server_cap_floor, 20 * (horizon - 1));
    assert_eq!(istats.checks, 21_668, "{istats}");
    assert_eq!(
        (
            istats.electrical_cap,
            istats.lease_bound,
            istats.budget_conservation
        ),
        (0, 0, 0),
        "{istats}"
    );

    let ring = runner.ring_telemetry().expect("ring telemetry enabled");
    assert_eq!(ring.dropped(), 0, "the ring must hold the whole run");
    let violations: Vec<(u64, InvariantKind, usize)> = ring
        .events()
        .filter_map(|ev| match *ev {
            TelemetryEvent::InvariantViolated {
                tick,
                invariant,
                index,
            } => Some((tick, invariant, index)),
            _ => None,
        })
        .collect();
    let expected: Vec<(u64, InvariantKind, usize)> = (1..horizon)
        .flat_map(|t| (40..60).map(move |i| (t, InvariantKind::ServerCapFloor, i)))
        .collect();
    assert_eq!(violations, expected);
}
