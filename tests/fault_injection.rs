//! Fault-injection integration tests: the runner must degrade gracefully
//! under any `FaultPlan` (never panic, never emit non-finite metrics),
//! and a plan with every fault disabled must be bit-identical to a
//! fault-free run.

use no_power_struggles::prelude::*;
use proptest::prelude::*;

const HORIZON: u64 = 300;

fn scenario(mode: CoordinationMode) -> Scenario {
    Scenario::paper(SystemKind::BladeA, Mix::Hh60, mode)
        .horizon(HORIZON)
        .seed(7)
}

fn arb_layer() -> impl Strategy<Value = Option<ControllerLayer>> {
    prop_oneof![
        Just(None),
        Just(Some(ControllerLayer::Sm)),
        Just(Some(ControllerLayer::Em)),
        Just(Some(ControllerLayer::Gm)),
    ]
}

proptest! {
    // Each case is a full (small-horizon) experiment; a dozen random
    // plans sweep every fault family and their combinations.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn any_fault_plan_degrades_gracefully(
        noise in 0.0f64..0.3,
        stuck in 0.0f64..1.0,
        drop in 0.0f64..1.0,
        act_stuck in 0.0f64..1.0,
        msg_loss in 0.0f64..1.0,
        layer in arb_layer(),
        start in 0u64..HORIZON,
        seed in 0u64..1_000,
    ) {
        let mut plan = FaultPlan::disabled()
            .with_seed(seed)
            .with_sensor_noise(noise)
            .with_stuck_sensors(stuck, 20)
            .with_dropped_samples(drop)
            .with_stuck_actuators(act_stuck, 20)
            .with_message_loss(msg_loss);
        if let Some(layer) = layer {
            plan = plan.with_outage(layer, None, start, start + HORIZON / 4);
        }
        let cfg = scenario(CoordinationMode::Coordinated).faults(plan).build();
        let mut runner = Runner::new(&cfg);
        // Property 1: the runner never panics, whatever the plan.
        let stats = runner.run_to_horizon();
        // Property 2: the power series stays finite — faulty sensor values
        // are clamped at the ingestion boundary, so energy, mean power and
        // delivered work are always physical.
        prop_assert!(stats.energy.is_finite() && stats.energy >= 0.0);
        prop_assert!(stats.mean_power().is_finite() && stats.mean_power() >= 0.0);
        prop_assert!(stats.delivered_work.is_finite());
        prop_assert!(stats.delivered_work <= stats.demanded_work + 1e-6);
        // Property 3: violation metrics keep being reported under faults.
        prop_assert!(stats.violations.server.intervals() > 0);
    }

    #[test]
    fn zero_rate_plan_is_bit_identical_to_disabled(seed in 0u64..100) {
        // All fault *kinds* mentioned, all rates zero: must draw no random
        // numbers and leave every reading untouched.
        let zero_rate = FaultPlan::disabled()
            .with_seed(seed)
            .with_sensor_noise(0.0)
            .with_stuck_sensors(0.0, 25)
            .with_dropped_samples(0.0)
            .with_stuck_actuators(0.0, 25)
            .with_message_loss(0.0);
        prop_assert!(!zero_rate.is_enabled());
        let clean = scenario(CoordinationMode::Coordinated).build();
        let faulted = scenario(CoordinationMode::Coordinated)
            .faults(zero_rate)
            .build();
        let a = run_experiment(&clean);
        let b = run_experiment(&faulted);
        prop_assert_eq!(a.comparison, b.comparison);
        prop_assert_eq!(a.baseline, b.baseline);
    }
}

#[test]
fn all_controllers_offline_still_reports_violations() {
    // Every capping layer dark for the middle half of the run: the stack
    // must fall back to local static caps and keep the budget-violation
    // monitors running.
    let plan = FaultPlan::disabled()
        .with_outage(ControllerLayer::Sm, None, HORIZON / 4, 3 * HORIZON / 4)
        .with_outage(ControllerLayer::Em, None, HORIZON / 4, 3 * HORIZON / 4)
        .with_outage(ControllerLayer::Gm, None, HORIZON / 4, 3 * HORIZON / 4);
    let cfg = scenario(CoordinationMode::Coordinated).faults(plan).build();
    let mut runner = Runner::new(&cfg);
    let stats = runner.run_to_horizon();
    let faults = runner.fault_stats();
    assert!(faults.outage_epochs > 0, "outage windows must fire");
    assert!(
        stats.violations.server.intervals() > 0,
        "SM-level violation accounting must continue during outages"
    );
    assert!(
        stats.violations.enclosure.intervals() > 0,
        "EM-level violation accounting must continue during outages"
    );
    assert!(stats.energy.is_finite() && stats.energy > 0.0);
}

#[test]
fn total_message_loss_holds_last_good_budgets() {
    let plan = FaultPlan::disabled().with_message_loss(1.0);
    let cfg = scenario(CoordinationMode::Coordinated).faults(plan).build();
    let mut runner = Runner::new(&cfg);
    let stats = runner.run_to_horizon();
    let faults = runner.fault_stats();
    assert!(
        faults.messages_lost > 0,
        "every budget grant should have been dropped"
    );
    // Children hold their last-good (initial) budgets, so the run still
    // completes with physical metrics.
    assert!(stats.energy.is_finite() && stats.energy > 0.0);
    assert!(stats.mean_power().is_finite());
}

#[test]
fn fault_counters_are_deterministic_for_a_fixed_seed() {
    let plan = || {
        FaultPlan::disabled()
            .with_seed(99)
            .with_sensor_noise(0.1)
            .with_dropped_samples(0.05)
            .with_message_loss(0.2)
    };
    let run = || {
        let cfg = scenario(CoordinationMode::Coordinated)
            .faults(plan())
            .build();
        let mut runner = Runner::new(&cfg);
        let stats = runner.run_to_horizon();
        (stats, runner.fault_stats())
    };
    let (s1, f1) = run();
    let (s2, f2) = run();
    assert_eq!(s1, s2, "faulty runs must replay identically");
    assert_eq!(f1, f2);
    assert!(f1.total_faults() > 0);
}

#[test]
fn tick_zero_dropped_sample_degrades_to_idle_power_not_zero() {
    // Regression: the hold-last-good sensor stores used to start at 0.0,
    // so a sample dropped before the first clean reading handed the
    // controllers a phantom zero-watt observation. They are now seeded
    // at each server's idle operating point.
    let plan = FaultPlan::disabled().with_seed(3).with_dropped_samples(1.0);
    let cfg = scenario(CoordinationMode::Coordinated).faults(plan).build();
    let mut runner = Runner::new(&cfg);

    // The seeded stores are visible through the checkpoint, before any
    // tick has produced a clean reading.
    let snap = runner.snapshot();
    let idle = ServerModel::blade_a().idle_power(0);
    assert!(idle > 0.0, "blade A idles above zero watts");
    for &w in snap.ecsm.windows.last_power_sm.iter() {
        assert!(
            w >= idle,
            "per-server last-good power seeded at {w} W, below idle {idle} W"
        );
    }
    let managers = &snap.managers.windows;
    for &w in managers
        .last_encpow_em
        .iter()
        .chain(managers.last_child_gm.iter())
    {
        assert!(
            w > 0.0,
            "enclosure/group last-good stores must not start at 0.0"
        );
    }

    // With every sample dropped from tick 0, the controllers only ever
    // see the seeded values — the run must still be physically sane.
    let stats = runner.run_to_horizon();
    let faults = runner.fault_stats();
    assert!(faults.sensor_dropped > 0);
    assert!(stats.energy.is_finite() && stats.energy > 0.0);
    let snap = runner.snapshot();
    for &w in snap.ecsm.windows.last_power_sm.iter() {
        assert!(
            w >= idle,
            "dropped samples must degrade to the idle seed, not decay to 0.0"
        );
    }
}
