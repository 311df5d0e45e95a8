//! Checkpoint/restore integration tests: a run interrupted at an
//! arbitrary tick and resumed from its serialized [`RunnerSnapshot`]
//! must reproduce the uninterrupted trajectory to `f64::to_bits`
//! equality — including under active sensor/actuator faults, bus
//! delivery faults, leases, and retries.

use no_power_struggles::prelude::*;

const HORIZON: u64 = 300;

/// A configuration that exercises every stateful subsystem at once:
/// plan-level faults (shared injector RNG), bus delivery faults (bus
/// RNG + in-flight queues + retry timers), leases, and the VMC.
fn stressed_config() -> ExperimentConfig {
    let plan = FaultPlan::disabled()
        .with_seed(99)
        .with_sensor_noise(0.02)
        .with_stuck_sensors(0.01, 12)
        .with_dropped_samples(0.01)
        .with_stuck_actuators(0.005, 8)
        .with_message_loss(0.02)
        .with_outage(ControllerLayer::Em, Some(0), 80, 140);
    let bus = BusConfig::default()
        .with_seed(4242)
        .with_delay(1, 1)
        .with_drop(0.05)
        .with_duplication(0.03)
        .with_reordering(0.05, 2)
        .with_leases(40)
        .with_retry(RetryConfig {
            max_attempts: 3,
            backoff_base_ticks: 2,
            backoff_max_ticks: 16,
            jitter_ticks: 1,
        });
    Scenario::paper(SystemKind::ServerB, Mix::H60, CoordinationMode::Coordinated)
        .horizon(HORIZON)
        .seed(17)
        .faults(plan)
        .bus(bus)
        .build()
}

/// A quieter configuration (no faults, passthrough bus) so resumption is
/// also proven on the default path.
fn quiet_config() -> ExperimentConfig {
    Scenario::paper(SystemKind::BladeA, Mix::M60, CoordinationMode::Coordinated)
        .horizon(HORIZON)
        .seed(5)
        .build()
}

/// Runs `cfg` uninterrupted and returns its final stats and a terminal
/// snapshot (full bit-packed state).
fn run_uninterrupted(cfg: &ExperimentConfig) -> (RunStats, RunnerSnapshot) {
    let mut runner = Runner::new(cfg);
    let stats = runner.run_to_horizon();
    let snap = runner.snapshot();
    (stats, snap)
}

/// Runs `cfg` to `split`, checkpoints through a JSON round-trip (the
/// same serialization `npsctl --checkpoint-every` writes to disk), then
/// resumes a *fresh* runner from the parsed snapshot and finishes the
/// horizon.
fn run_killed_and_resumed(cfg: &ExperimentConfig, split: u64) -> (RunStats, RunnerSnapshot) {
    let mut first = Runner::new(cfg);
    while first.ticks_done() < split {
        first.tick();
    }
    let snap = first.snapshot();
    let json = serde_json::to_string(&snap).expect("snapshot serializes");
    drop(first); // the "killed" process
    let parsed: RunnerSnapshot = serde_json::from_str(&json).expect("snapshot parses");
    let mut resumed = Runner::resume(cfg, &parsed).expect("snapshot restores");
    assert_eq!(
        resumed.ticks_done(),
        split,
        "resume lands on the split tick"
    );
    let stats = resumed.run_to_horizon();
    let snap = resumed.snapshot();
    (stats, snap)
}

#[test]
fn kill_and_resume_is_bit_exact_under_full_fault_load() {
    let cfg = stressed_config();
    let (base_stats, base_snap) = run_uninterrupted(&cfg);
    // Split points cover: immediately after the first tick, mid-outage
    // (EM down, leases expiring), and just before the horizon.
    for split in [1, 57, 100, 250, HORIZON - 1] {
        let (stats, snap) = run_killed_and_resumed(&cfg, split);
        assert_eq!(
            stats, base_stats,
            "stats diverged after resuming from tick {split}"
        );
        assert_eq!(
            snap, base_snap,
            "terminal state diverged after resuming from tick {split}"
        );
    }
}

#[test]
fn kill_and_resume_is_bit_exact_on_the_default_path() {
    let cfg = quiet_config();
    let (base_stats, base_snap) = run_uninterrupted(&cfg);
    for split in [1, 149, HORIZON / 2] {
        let (stats, snap) = run_killed_and_resumed(&cfg, split);
        assert_eq!(stats, base_stats);
        assert_eq!(snap, base_snap);
    }
}

#[test]
fn mid_gm_window_checkpoint_is_thread_count_agnostic() {
    // Checkpoint in the middle of a GM window (between the t=100 and
    // t=150 GM epochs) on a multi-rack fleet with a slow lossy bus, so
    // the snapshot carries in-flight heap messages, armed retry timers,
    // and nonzero per-slot sensor counters — then restore at different
    // thread counts. The terminal checkpoint JSON must be byte-identical
    // whichever worker count replays the remainder.
    let plan = FaultPlan::disabled()
        .with_seed(77)
        .with_sensor_noise(0.02)
        .with_stuck_sensors(0.01, 10)
        .with_dropped_samples(0.01)
        .with_stuck_actuators(0.004, 6)
        .with_message_loss(0.03);
    let bus = BusConfig::default()
        .with_seed(888)
        .with_delay(2, 3)
        .with_drop(0.05)
        .with_reordering(0.3, 4)
        .with_leases(35)
        .with_retry(RetryConfig {
            max_attempts: 3,
            backoff_base_ticks: 2,
            backoff_max_ticks: 16,
            jitter_ticks: 1,
        });
    let cfg = Scenario::multi_rack(
        SystemKind::BladeA,
        CoordinationMode::Coordinated,
        2,
        2,
        6,
        3,
    )
    .horizon(HORIZON)
    .seed(23)
    .faults(plan)
    .bus(bus)
    .build();

    // Uninterrupted single-thread reference.
    let mut reference = Runner::new(&cfg);
    reference.run_to_horizon();
    let want = serde_json::to_string(&reference.snapshot()).expect("snapshot serializes");

    // Checkpoint mid-GM-window at 4 threads; EM epochs fire at t=125 on
    // a 2–5-tick-delay bus, so grants are still in the expiry heap.
    let mut c4 = cfg.clone();
    c4.threads = 4;
    let mut first = Runner::new(&c4);
    while first.ticks_done() < 126 {
        first.tick();
    }
    let mid = first.snapshot();
    assert!(
        !mid.bus.queue.is_empty(),
        "split must catch grant copies in the in-flight heap"
    );
    assert!(
        mid.bus.links.iter().any(|l| l.pending.is_some()),
        "split must catch an armed retransmission timer"
    );
    assert!(
        mid.injector.sensor_ctr.iter().any(|&c| c > 0),
        "split must catch advanced sensor counter streams"
    );
    let json = serde_json::to_string(&mid).expect("snapshot serializes");
    drop(first);

    for threads in [1usize, 2, 7] {
        let parsed: RunnerSnapshot = serde_json::from_str(&json).expect("snapshot parses");
        let mut c = cfg.clone();
        c.threads = threads;
        let mut resumed = Runner::resume(&c, &parsed).expect("checkpoint restores");
        resumed.run_to_horizon();
        let got = serde_json::to_string(&resumed.snapshot()).expect("snapshot serializes");
        assert_eq!(
            got, want,
            "mid-GM-window resume at {threads} threads diverged"
        );
    }
}

#[test]
fn snapshot_json_roundtrip_is_identity() {
    let cfg = stressed_config();
    let mut runner = Runner::new(&cfg);
    for _ in 0..123 {
        runner.tick();
    }
    let snap = runner.snapshot();
    let json = serde_json::to_string_pretty(&snap).expect("serializes");
    let parsed: RunnerSnapshot = serde_json::from_str(&json).expect("parses");
    assert_eq!(parsed, snap, "JSON round-trip must preserve every bit");
}

#[test]
fn restore_rejects_foreign_and_future_checkpoints() {
    let cfg = stressed_config();
    let mut runner = Runner::new(&cfg);
    for _ in 0..10 {
        runner.tick();
    }
    let snap = runner.snapshot();

    // Wrong experiment: the label guard refuses the restore.
    let other = quiet_config();
    let err = Runner::resume(&other, &snap).expect_err("label mismatch must be rejected");
    assert!(
        err.to_string().contains("checkpoint"),
        "unexpected error: {err}"
    );

    // Future format version: refused rather than misinterpreted.
    let mut future = snap.clone();
    future.version += 1;
    let err = Runner::resume(&cfg, &future).expect_err("version mismatch must be rejected");
    assert!(
        err.to_string().contains("version"),
        "unexpected error: {err}"
    );
}

#[test]
fn checkpoint_emits_telemetry_markers() {
    let cfg = quiet_config();
    let mut runner = Runner::new(&cfg);
    runner.enable_ring_telemetry(1 << 16);
    for _ in 0..20 {
        runner.tick();
    }
    let snap = runner.snapshot();
    let mut resumed = Runner::new(&cfg);
    resumed.enable_ring_telemetry(1 << 16);
    resumed.restore(&snap).expect("restores");
    let saved = runner
        .ring_telemetry()
        .expect("ring installed")
        .events()
        .any(|e| {
            matches!(
                e,
                TelemetryEvent::Checkpoint {
                    restored: false,
                    ..
                }
            )
        });
    let restored = resumed
        .ring_telemetry()
        .expect("ring installed")
        .events()
        .any(|e| matches!(e, TelemetryEvent::Checkpoint { restored: true, .. }));
    assert!(saved, "snapshot() must emit a Checkpoint{{restored:false}}");
    assert!(
        restored,
        "restore() must emit a Checkpoint{{restored:true}}"
    );
}

/// Canonical JSON of the runner's current state (no telemetry installed,
/// so taking the snapshot has no side effect).
fn state_json(runner: &mut Runner) -> String {
    serde_json::to_string(&runner.snapshot()).expect("serializes")
}

#[test]
fn malformed_event_words_are_rejected_without_touching_the_runner() {
    let cfg = stressed_config();
    let mut source = Runner::new(&cfg);
    for _ in 0..150 {
        source.tick();
    }
    let good = source.snapshot();
    let mut bad_logs = Vec::new();
    // An unknown tag, a lone trailing word, and (when the ring holds
    // anything) an event cut short.
    let mut unknown = good.clone();
    unknown.sim.events.words.extend([7, 99, 1]);
    bad_logs.push(unknown);
    let mut lone = good.clone();
    lone.sim.events.words.push(7);
    bad_logs.push(lone);
    if !good.sim.events.words.is_empty() {
        let mut cut = good.clone();
        cut.sim.events.words.pop();
        bad_logs.push(cut);
    }
    // A ring capacity other than the simulator's, with counters edited to
    // agree with it: capacity 0 would switch retention off, a larger one
    // would let the ring outgrow the simulator's.
    for capacity in [0, good.sim.events.capacity * 2] {
        let mut resized = good.clone();
        let events = &mut resized.sim.events;
        events.capacity = capacity;
        if capacity == 0 {
            events.words.clear();
            events.next = 0;
        }
        bad_logs.push(resized);
    }

    let mut target = Runner::new(&cfg);
    for _ in 0..40 {
        target.tick();
    }
    let before = state_json(&mut target);
    for bad in &bad_logs {
        let err = target.restore(bad).expect_err("malformed event words");
        assert!(
            matches!(err, no_power_struggles::core::CoreError::Checkpoint(_)),
            "unexpected error: {err}"
        );
        assert_eq!(
            state_json(&mut target),
            before,
            "a failed restore mutated the runner"
        );
    }
    target
        .restore(&good)
        .expect("the intact checkpoint still restores");
    assert_eq!(state_json(&mut target), state_json(&mut source));
}

#[test]
fn truncated_state_arrays_are_rejected_without_touching_the_runner() {
    let cfg = stressed_config();
    let mut source = Runner::new(&cfg);
    for _ in 0..150 {
        source.tick();
    }
    let good = source.snapshot();
    type Truncate = fn(&mut RunnerSnapshot);
    let cuts: [(&str, Truncate); 6] = [
        ("snap_power_sm_bits", |s| {
            s.snap_power_sm_bits.pop();
        }),
        ("bank.freq_hz_bits", |s| {
            s.bank.freq_hz_bits.pop();
        }),
        ("injector.actuator_ctr", |s| {
            s.injector.actuator_ctr.pop();
        }),
        ("injector.sensor_stuck_val_bits", |s| {
            s.injector.sensor_stuck_val_bits.pop();
        }),
        ("last_child_gm_bits", |s| {
            s.last_child_gm_bits.pop();
        }),
        ("vmc_buffer_bits", |s| {
            s.vmc_buffer_bits.pop();
        }),
    ];

    let mut target = Runner::new(&cfg);
    for _ in 0..40 {
        target.tick();
    }
    let before = state_json(&mut target);
    for (field, cut) in cuts {
        let mut bad = good.clone();
        cut(&mut bad);
        let err = target
            .restore(&bad)
            .expect_err(&format!("truncated {field} must be rejected"));
        assert!(
            matches!(err, no_power_struggles::core::CoreError::Checkpoint(_)),
            "{field}: unexpected error: {err}"
        );
        assert_eq!(
            state_json(&mut target),
            before,
            "a failed restore of a truncated {field} mutated the runner"
        );
    }
    target
        .restore(&good)
        .expect("the intact checkpoint still restores");
    assert_eq!(state_json(&mut target), state_json(&mut source));
}

#[test]
fn misshapen_bus_state_is_rejected_without_touching_the_runner() {
    use no_power_struggles::sim::bus::InFlightSnapshot;

    let cfg = stressed_config();
    let mut source = Runner::new(&cfg);
    for _ in 0..150 {
        source.tick();
    }
    let good = source.snapshot();
    type Edit = fn(&mut RunnerSnapshot);
    let edits: [(&str, Edit); 5] = [
        ("bus.rng short", |s| {
            s.bus.rng.pop();
        }),
        ("bus.rng long", |s| s.bus.rng.push(7)),
        ("bus.links short", |s| {
            s.bus.links.pop();
        }),
        ("bus.links long", |s| {
            let extra = s.bus.links[0].clone();
            s.bus.links.push(extra);
        }),
        ("bus.queue link out of range", |s| {
            let links = s.bus.links.len();
            s.bus.queue.push(InFlightSnapshot {
                deliver_at: u64::MAX,
                uid: u64::MAX,
                link: links,
                is_ack: false,
                seq: 1,
                watts_bits: 100.0f64.to_bits(),
            });
        }),
    ];

    let mut target = Runner::new(&cfg);
    for _ in 0..40 {
        target.tick();
    }
    let before = state_json(&mut target);
    for (field, edit) in edits {
        let mut bad = good.clone();
        edit(&mut bad);
        let err = target
            .restore(&bad)
            .expect_err(&format!("{field} must be rejected"));
        assert!(
            matches!(err, no_power_struggles::core::CoreError::Checkpoint(_)),
            "{field}: unexpected error: {err}"
        );
        assert_eq!(
            state_json(&mut target),
            before,
            "a failed restore of {field} mutated the runner"
        );
    }
    target
        .restore(&good)
        .expect("the intact checkpoint still restores");
    assert_eq!(state_json(&mut target), state_json(&mut source));
}

#[test]
fn misshapen_simulator_and_capper_state_is_rejected_without_touching_the_runner() {
    use no_power_struggles::sim::{Placement, ServerId};

    let cfg = stressed_config();
    let mut source = Runner::new(&cfg);
    for _ in 0..150 {
        source.tick();
    }
    let good = source.snapshot();
    type Edit = fn(&mut RunnerSnapshot);
    let edits: [(&str, Edit); 15] = [
        ("sim.vm_obs_bits partial tail", |s| {
            s.sim.vm_obs_bits.pop();
        }),
        ("sim.vm_obs_bits extra observation", |s| {
            s.sim.vm_obs_bits.extend([0, 0, 0]);
        }),
        ("sim.on short", |s| {
            s.sim.on.pop();
        }),
        ("sim.pstate index out of range", |s| s.sim.pstate[0] = 99),
        ("sim.mig_until short", |s| {
            s.sim.mig_until.pop();
        }),
        ("sim.boot_until long", |s| s.sim.boot_until.push(0)),
        ("sim.residents VM id out of range", |s| {
            let vms = s.sim.placement.num_vms();
            let list = s.sim.residents.iter_mut().find(|r| !r.is_empty()).unwrap();
            list[0] = vms;
        }),
        ("sim.residents VM listed twice", |s| {
            let list = s.sim.residents.iter_mut().find(|r| !r.is_empty()).unwrap();
            let vm = list[0];
            list.push(vm);
        }),
        ("sim.placement.host server out of range", |s| {
            let servers = s.sim.on.len();
            let mut hosts: Vec<ServerId> = s.sim.placement.iter().map(|(_, h)| h).collect();
            hosts[0] = ServerId(servers);
            s.sim.placement = Placement::from_hosts(hosts);
        }),
        ("sim.placement.host short", |s| {
            let hosts = s.sim.placement.iter().map(|(_, h)| h).skip(1).collect();
            s.sim.placement = Placement::from_hosts(hosts);
        }),
        ("sim.pstate_written_this_tick short", |s| {
            s.sim.pstate_written_this_tick.pop();
        }),
        ("sim.cum_enc_power_bits long", |s| {
            s.sim.cum_enc_power_bits.push(0)
        }),
        ("sim.util_bits short", |s| {
            s.sim.util_bits.pop();
        }),
        ("gm.policy_state", |s| s.gm.policy_state.push(1)),
        ("ems[0].policy_state", |s| s.ems[0].policy_state.push(1)),
    ];

    let mut target = Runner::new(&cfg);
    for _ in 0..40 {
        target.tick();
    }
    let before = state_json(&mut target);
    for (field, edit) in edits {
        let mut bad = good.clone();
        edit(&mut bad);
        let err = target
            .restore(&bad)
            .expect_err(&format!("{field} must be rejected"));
        assert!(
            matches!(err, no_power_struggles::core::CoreError::Checkpoint(_)),
            "{field}: unexpected error: {err}"
        );
        assert_eq!(
            state_json(&mut target),
            before,
            "a failed restore of {field} mutated the runner"
        );
    }
    target
        .restore(&good)
        .expect("the intact checkpoint still restores");
    assert_eq!(state_json(&mut target), state_json(&mut source));
}

/// FNV-1a of a text's bytes.
fn fnv1a(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn checkpoint_text_is_pinned() {
    // The JSON a fixed run's checkpoint is written as, hashed when the
    // writer still formatted every number through `Display`: a change
    // to the writer must not move a single byte.
    const PINNED: u64 = 0x7885_ed11_afe1_c41c;
    let mut runner = Runner::new(&stressed_config());
    for _ in 0..150 {
        runner.tick();
    }
    let text = state_json(&mut runner);
    assert_eq!(
        fnv1a(&text),
        PINNED,
        "checkpoint text of {} bytes moved",
        text.len()
    );
    let parsed: RunnerSnapshot = serde_json::from_str(&text).expect("parses");
    assert_eq!(
        state_json(&mut Runner::resume(&stressed_config(), &parsed).unwrap()),
        text
    );
}

#[test]
fn load_reports_an_older_format_version_before_mapping_fields() {
    let cfg = stressed_config();
    let mut runner = Runner::new(&cfg);
    for _ in 0..30 {
        runner.tick();
    }
    let path = std::env::temp_dir().join(format!("nps-checkpoint-v4-{}.json", std::process::id()));
    runner.snapshot().save(&path).expect("saves");
    assert_eq!(
        RunnerSnapshot::load(&path).expect("loads"),
        runner.snapshot()
    );

    // A version-4 file: older version word, and an event ring in the old
    // nested layout that the current field mapping cannot read.
    let current = format!("\"version\":{}", RunnerSnapshot::VERSION);
    let text = std::fs::read_to_string(&path).expect("reads");
    assert!(text.starts_with(&format!("{{{current},")));
    let v4 = text
        .replacen(&current, "\"version\":4", 1)
        .replacen("\"words\":[", "\"ring\":[", 1);
    std::fs::write(&path, v4).expect("writes");
    let err = RunnerSnapshot::load(&path).expect_err("version 4 is refused");
    std::fs::remove_file(&path).ok();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    let core = err
        .get_ref()
        .and_then(|e| e.downcast_ref::<no_power_struggles::core::CoreError>())
        .expect("a typed checkpoint error");
    assert!(
        matches!(core, no_power_struggles::core::CoreError::Checkpoint(why)
            if why == &format!("format version 4 (this build reads {})", RunnerSnapshot::VERSION)),
        "unexpected error: {core}"
    );
}
