//! Differential property tests for rack-sharded epoch execution.
//!
//! The contract: `ExperimentConfig::threads` is purely a throughput
//! knob. Each controller epoch has one body that runs per shard; at one
//! thread it runs once, inline, over a single whole-fleet shard, and that
//! one-shard run is the reference. At N threads the same body runs over
//! the topology's N-way shard partition, and the run must produce
//! **bit-identical** results — the same `RunStats`, the same telemetry
//! stream in the same order, and a byte-identical end-of-run checkpoint
//! (every float bit-packed). These tests sweep randomized multi-rack
//! topologies (uniform and lopsided — one rack dwarfing the rest, which
//! exercises the size-weighted shard cuts — with and without an empty
//! enclosure), coordination modes, fault plans, bus delivery faults, and
//! the electrical clamp through thread counts {2, 4, 7} against the
//! one-shard reference, and additionally prove checkpoints are
//! thread-count-agnostic: a snapshot taken at N threads resumes
//! bit-exactly at M threads.

use no_power_struggles::prelude::*;
use proptest::prelude::*;

/// Thread counts swept against the one-shard reference (the run at one
/// thread; 7 deliberately exceeds the shard count of small topologies).
const SWEEP: [usize; 3] = [2, 4, 7];

/// Runs `cfg` to its horizon and captures a complete end-state
/// fingerprint: the bit-packed checkpoint JSON, the full telemetry
/// stream, and the raw stats.
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

/// A randomized fault plan covering every family, including actuator
/// faults: their jam verdicts come from per-server counter streams
/// (order-free across shards), so every mode — even the uncoordinated
/// SM's conditional writes — runs sharded under faults.
fn arb_fault_plan() -> impl Strategy<Value = FaultPlan> {
    (
        (0u64..1_000, 0.0f64..0.05, 0.0f64..0.03, 1u64..16),
        (0.0f64..0.03, 0.0f64..0.02, 1u64..10, 0.0f64..0.05),
        proptest::bool::ANY,
    )
        .prop_map(
            |((seed, noise, stuck_p, stuck_t), (drop, act_p, act_t, loss), outage)| {
                let mut plan = FaultPlan::disabled()
                    .with_seed(seed)
                    .with_sensor_noise(noise)
                    .with_stuck_sensors(stuck_p, stuck_t)
                    .with_dropped_samples(drop)
                    .with_stuck_actuators(act_p, act_t)
                    .with_message_loss(loss);
                if outage {
                    plan = plan.with_outage(ControllerLayer::Em, Some(0), 40, 90);
                }
                plan
            },
        )
}

/// A randomized control-plane bus: delays, drops, duplication,
/// reordering, leases, and bounded retransmission.
fn arb_bus() -> impl Strategy<Value = BusConfig> {
    (
        (0u64..100, 0u64..3, 0u64..3),
        (0.0f64..0.08, 0.0f64..0.05, 0.0f64..0.08),
        (0u64..40, 1u32..4),
    )
        .prop_map(
            |((seed, dmin, dspan), (drop, dup, reorder), (lease, attempts))| {
                BusConfig::default()
                    .with_seed(seed)
                    .with_delay(dmin, dmin + dspan)
                    .with_drop(drop)
                    .with_duplication(dup)
                    .with_reordering(reorder, 2)
                    .with_leases(lease)
                    .with_retry(RetryConfig {
                        max_attempts: attempts,
                        backoff_base_ticks: 2,
                        backoff_max_ticks: 8,
                        jitter_ticks: 1,
                    })
            },
        )
}

/// Sweeps `cfg` through every thread count in [`SWEEP`] and requires the
/// full fingerprint to match the one-shard reference bit-for-bit.
/// Returns the reference run's stats.
fn assert_threads_invisible(cfg: &ExperimentConfig) -> Result<RunStats, TestCaseError> {
    let reference = fingerprint(cfg);
    for &threads in &SWEEP {
        let mut c = cfg.clone();
        c.threads = threads;
        let got = fingerprint(&c);
        prop_assert_eq!(
            &got.2,
            &reference.2,
            "stats diverged at {} threads",
            threads
        );
        prop_assert_eq!(
            got.1.len(),
            reference.1.len(),
            "telemetry volume diverged at {} threads",
            threads
        );
        prop_assert_eq!(
            &got.1,
            &reference.1,
            "telemetry diverged at {} threads",
            threads
        );
        prop_assert_eq!(
            &got.0,
            &reference.0,
            "checkpoint diverged at {} threads",
            threads
        );
    }
    Ok(reference.2)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn thread_count_is_invisible(
        (racks, encs, blades) in (1usize..3, 1usize..3, 2usize..5),
        standalone in 1usize..4,
        mode_idx in 0usize..3,
        seed in 0u64..1_000,
        plan in arb_fault_plan(),
        bus in arb_bus(),
    ) {
        let mode = [
            CoordinationMode::Coordinated,
            CoordinationMode::Uncoordinated,
            CoordinationMode::UncoordMinPstates,
        ][mode_idx];
        // At least one standalone server guarantees >= 2 shards, so the
        // pool genuinely engages at threads > 1.
        let cfg = Scenario::multi_rack(SystemKind::BladeA, mode, racks, encs, blades, standalone)
            .horizon(160)
            .seed(seed)
            .faults(plan)
            .bus(bus)
            .build();
        assert_threads_invisible(&cfg)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Heterogeneous rack sizes: one rack dwarfing several small ones
    /// plus a standalone tail, sometimes with an empty enclosure after
    /// the big rack or before the tail, with the electrical capper
    /// sometimes engaged. Exercises the size-weighted shard cuts
    /// (ideal-position cuts snapped to enclosure boundaries, not per-rack
    /// splits), the sharded EM epoch and GM window pass over unequal and
    /// empty enclosures (an empty one belongs to the shard at its member
    /// offset), and the sharded electrical clamp.
    #[test]
    fn thread_count_is_invisible_on_lopsided_fleets(
        (big_encs, big_blades) in (2usize..5, 8usize..17),
        (small_racks, small_blades) in (1usize..4, 2usize..5),
        standalone in 1usize..4,
        empty_at in 0usize..3,
        (elec_on, elec_frac) in (proptest::bool::ANY, 0.85f64..0.98),
        mode_idx in 0usize..3,
        seed in 0u64..1_000,
        plan in arb_fault_plan(),
        bus in arb_bus(),
    ) {
        let mode = [
            CoordinationMode::Coordinated,
            CoordinationMode::Uncoordinated,
            CoordinationMode::UncoordMinPstates,
        ][mode_idx];
        let mut builder = Topology::builder().rack(big_encs, big_blades);
        if empty_at == 1 {
            builder = builder.enclosure(0);
        }
        builder = builder.racks(small_racks, 1, small_blades);
        if empty_at == 2 {
            builder = builder.enclosure(0);
        }
        let topo = builder.standalone(standalone).build();
        let mut scenario = Scenario::paper(SystemKind::BladeA, Mix::All180, mode)
            .topology(topo)
            .horizon(160)
            .seed(seed)
            .faults(plan)
            .bus(bus);
        if elec_on {
            scenario = scenario.electrical_cap(elec_frac);
        }
        let cfg = scenario.build();
        assert_threads_invisible(&cfg)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// GM-heavy configurations: a tight `T_gm` against many enclosures,
    /// so GM epochs dominate the run and the sharded window pass —
    /// carrying per-child counter-stream sensor draws and the full
    /// hardening pipeline in-shard — fires constantly. The one-shard
    /// ingest order (all enclosures, then all standalones) must survive
    /// the two-buffer telemetry replay at every thread count.
    #[test]
    fn thread_count_is_invisible_under_gm_pressure(
        (racks, encs, blades) in (2usize..4, 2usize..4, 2usize..5),
        standalone in 1usize..5,
        gm in 4u64..12,
        mode_idx in 0usize..3,
        seed in 0u64..1_000,
        plan in arb_fault_plan(),
        bus in arb_bus(),
    ) {
        let mode = [
            CoordinationMode::Coordinated,
            CoordinationMode::Uncoordinated,
            CoordinationMode::UncoordMinPstates,
        ][mode_idx];
        let cfg = Scenario::multi_rack(SystemKind::BladeA, mode, racks, encs, blades, standalone)
            .intervals(Intervals { ec: 1, sm: 2, em: gm.max(2) / 2, gm, vmc: 500 })
            .horizon(160)
            .seed(seed)
            .faults(plan)
            .bus(bus)
            .build();
        assert_threads_invisible(&cfg)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// VMC-active configurations: `T_vmc` well inside the horizon, so
    /// the sharded per-tick VM accumulators and the sharded demand-
    /// estimate pass feed real consolidation decisions (migrations,
    /// power-off) whose placement consequences would amplify any
    /// accumulator divergence for the rest of the run.
    #[test]
    fn thread_count_is_invisible_with_vmc_active(
        (racks, encs, blades) in (1usize..3, 1usize..3, 3usize..6),
        standalone in 1usize..4,
        vmc in 40u64..80,
        coordinated in proptest::bool::ANY,
        seed in 0u64..1_000,
        plan in arb_fault_plan(),
        bus in arb_bus(),
    ) {
        let mode = if coordinated {
            CoordinationMode::Coordinated
        } else {
            CoordinationMode::Uncoordinated
        };
        let cfg = Scenario::multi_rack(SystemKind::BladeA, mode, racks, encs, blades, standalone)
            .intervals(Intervals { ec: 1, sm: 5, em: 10, gm: 20, vmc })
            .horizon(170)
            .seed(seed)
            .faults(plan)
            .bus(bus)
            .build();
        assert_threads_invisible(&cfg)?;
    }
}

/// Thermal failover under the sharded simulator step: the uncoordinated
/// 60HHH race of `thermal_and_capping.rs`'s fleet-scale failure test
/// cooks servers, and every thread count must trip the same servers on
/// the same tick and starve their VMs identically afterwards.
#[test]
fn thread_count_is_invisible_with_thermally_failed_servers() -> Result<(), TestCaseError> {
    let model = ServerModel::blade_a();
    let cap = 0.9 * model.max_power();
    let mut cfg = Scenario::paper(
        SystemKind::BladeA,
        Mix::Hhh60,
        CoordinationMode::Uncoordinated,
    )
    .horizon(2_500)
    .seed(61)
    .build();
    cfg.sim = cfg
        .sim
        .with_thermal(ThermalConfig::for_budget(model.max_power(), cap));
    cfg.mask = ControllerMask {
        vmc: false,
        ..ControllerMask::ALL
    };
    let stats = assert_threads_invisible(&cfg)?;
    assert!(
        stats.failovers > 0,
        "the uncoordinated race should cook at least one server"
    );
    Ok(())
}

/// A checkpoint taken at one thread count must resume bit-exactly at any
/// other: the final checkpoint JSON of (snapshot at 4 threads, resume at
/// M) is byte-identical to an uninterrupted single-thread run.
#[test]
fn checkpoint_resumes_bit_exactly_across_thread_counts() {
    let bus = BusConfig::default()
        .with_seed(5)
        .with_delay(1, 2)
        .with_drop(0.03)
        .with_leases(25);
    let plan = FaultPlan::disabled()
        .with_seed(3)
        .with_sensor_noise(0.01)
        .with_dropped_samples(0.01)
        .with_stuck_actuators(0.004, 6);
    let cfg = Scenario::multi_rack(
        SystemKind::BladeA,
        CoordinationMode::Coordinated,
        2,
        2,
        4,
        2,
    )
    .horizon(300)
    .seed(41)
    .faults(plan)
    .bus(bus)
    .build();

    // Uninterrupted single-thread reference.
    let mut reference = Runner::new(&cfg);
    reference.run_to_horizon();
    let want = serde_json::to_string(&reference.snapshot()).expect("snapshot serializes");

    // Snapshot mid-run at 4 threads…
    let mut c4 = cfg.clone();
    c4.threads = 4;
    let mut first = Runner::new(&c4);
    while first.ticks_done() < 150 {
        first.tick();
    }
    let mid = first.snapshot();

    // …and resume at 1 and 7 threads.
    for threads in [1usize, 7] {
        let mut c = cfg.clone();
        c.threads = threads;
        let mut resumed = Runner::resume(&c, &mid).expect("checkpoint resumes");
        resumed.run_to_horizon();
        let got = serde_json::to_string(&resumed.snapshot()).expect("snapshot serializes");
        assert_eq!(
            got, want,
            "resume at {threads} threads diverged from the uninterrupted run"
        );
    }
}

/// A topology read back from a config is checked before anything runs on
/// it: enclosure members must be the ascending server block the builder
/// lays out, since shards index members by their offset in the shard.
/// Swapping one member between the first two enclosures must get the
/// same typed error from `Runner::try_new` at every thread count.
#[test]
fn malformed_topology_is_rejected_at_every_thread_count() {
    use nps_core::CoreError;
    use nps_sim::SimError;

    let topo = Topology::builder().racks(2, 2, 8).standalone(2).build();
    let json = serde_json::to_string(&topo).expect("topology serializes");
    let swapped = json.replacen(
        r#""enclosure_flat":[0,1,2,3,4,5,6,7,8,"#,
        r#""enclosure_flat":[8,1,2,3,4,5,6,7,0,"#,
        1,
    );
    assert_ne!(json, swapped, "the member list was not found");
    let topo: Topology = serde_json::from_str(&swapped).expect("still well-formed JSON");
    let cfg = Scenario::paper(
        SystemKind::BladeA,
        Mix::All180,
        CoordinationMode::Coordinated,
    )
    .topology(topo)
    .horizon(50)
    .build();
    for threads in [1, 2, 4, 7] {
        let mut c = cfg.clone();
        c.threads = threads;
        match Runner::try_new(&c) {
            Err(CoreError::Sim(SimError::MalformedTopology(_))) => {}
            Err(e) => panic!("{threads} threads: wrong error {e}"),
            Ok(_) => panic!("{threads} threads: a malformed topology was accepted"),
        }
    }
}
