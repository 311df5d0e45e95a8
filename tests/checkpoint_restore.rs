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
        !mid.plane.bus.queue.is_empty(),
        "split must catch grant copies in the in-flight heap"
    );
    assert!(
        mid.plane.bus.links.iter().any(|l| l.pending.is_some()),
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
    // One cut per layer state with arrays (the safety layer keeps only
    // counters), plus the bank and injector arrays each layer nests.
    let cuts: [(&str, Truncate); 10] = [
        ("ecsm.windows.snap_power_sm", |s| {
            s.ecsm.windows.snap_power_sm.pop();
        }),
        ("ecsm.windows.sm_hold", |s| {
            s.ecsm.windows.sm_hold.pop();
        }),
        ("ecsm.bank.freq_hz", |s| {
            s.ecsm.bank.freq_hz.pop();
        }),
        ("injector.actuator_ctr", |s| {
            s.injector.actuator_ctr.pop();
        }),
        ("injector.sensor_stuck_val", |s| {
            s.injector.sensor_stuck_val.pop();
        }),
        ("managers.windows.last_child_gm", |s| {
            s.managers.windows.last_child_gm.pop();
        }),
        ("managers.windows.snap_power", |s| {
            s.managers.windows.snap_power.pop();
        }),
        ("vmc.buffer", |s| {
            s.vmc.buffer.pop();
        }),
        ("vmc.windows.win_max_vm_util", |s| {
            s.vmc.windows.win_max_vm_util.pop();
        }),
        ("plane.bus.links", |s| {
            s.plane.bus.links.pop();
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
    use no_power_struggles::sim::bus::InFlight;
    use no_power_struggles::sim::FloatWord;

    let cfg = stressed_config();
    let mut source = Runner::new(&cfg);
    for _ in 0..150 {
        source.tick();
    }
    let good = source.snapshot();
    type Edit = fn(&mut RunnerSnapshot);
    let edits: [(&str, Edit); 5] = [
        ("plane.bus.rng short", |s| {
            s.plane.bus.rng.pop();
        }),
        ("plane.bus.rng long", |s| s.plane.bus.rng.push(7)),
        ("plane.bus.links short", |s| {
            s.plane.bus.links.pop();
        }),
        ("plane.bus.links long", |s| {
            let extra = s.plane.bus.links[0].clone();
            s.plane.bus.links.push(extra);
        }),
        ("plane.bus.queue link out of range", |s| {
            let links = s.plane.bus.links.len();
            s.plane.bus.queue.push(InFlight {
                deliver_at: u64::MAX,
                uid: u64::MAX,
                link: links,
                is_ack: false,
                seq: 1,
                watts: FloatWord(100.0),
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
    use no_power_struggles::models::PState;
    use no_power_struggles::sim::{Placement, ServerId, VmId};

    let cfg = stressed_config();
    let mut source = Runner::new(&cfg);
    for _ in 0..150 {
        source.tick();
    }
    let good = source.snapshot();
    type Edit = fn(&mut RunnerSnapshot);
    let edits: [(&str, Edit); 15] = [
        ("sim.vm_obs partial tail", |s| {
            s.sim.vm_obs.pop();
        }),
        ("sim.vm_obs extra observation", |s| {
            s.sim.vm_obs.extend([0.0, 0.0, 0.0]);
        }),
        ("sim.state.on short", |s| {
            s.sim.state.on.pop();
        }),
        ("sim.state.pstate index out of range", |s| {
            s.sim.state.pstate[0] = PState(99)
        }),
        ("sim.state.mig_until short", |s| {
            s.sim.state.mig_until.pop();
        }),
        ("sim.state.boot_until long", |s| {
            s.sim.state.boot_until.push(0)
        }),
        ("sim.state.residents VM id out of range", |s| {
            let vms = s.sim.state.placement.num_vms();
            let list = s
                .sim
                .state
                .residents
                .iter_mut()
                .find(|r| !r.is_empty())
                .unwrap();
            list[0] = VmId(vms);
        }),
        ("sim.state.residents VM listed twice", |s| {
            let list = s
                .sim
                .state
                .residents
                .iter_mut()
                .find(|r| !r.is_empty())
                .unwrap();
            let vm = list[0];
            list.push(vm);
        }),
        ("sim.state.placement.host server out of range", |s| {
            let servers = s.sim.state.on.len();
            let mut hosts: Vec<ServerId> = s.sim.state.placement.iter().map(|(_, h)| h).collect();
            hosts[0] = ServerId(servers);
            s.sim.state.placement = Placement::from_hosts(hosts);
        }),
        ("sim.state.placement.host short", |s| {
            let hosts = s
                .sim
                .state
                .placement
                .iter()
                .map(|(_, h)| h)
                .skip(1)
                .collect();
            s.sim.state.placement = Placement::from_hosts(hosts);
        }),
        ("sim.state.pstate_written_this_tick short", |s| {
            s.sim.state.pstate_written_this_tick.pop();
        }),
        ("sim.state.cum_enc_power long", |s| {
            s.sim.state.cum_enc_power.push(0.0)
        }),
        ("sim.state.util short", |s| {
            s.sim.state.util.pop();
        }),
        ("managers.gm.policy_state", |s| {
            s.managers.gm.policy_state.push(1)
        }),
        ("managers.ems[0].policy_state", |s| {
            s.managers.ems[0].policy_state.push(1)
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
    // to the writer must not move a single byte. Re-pinned for format
    // v8, whose text carries every word of v7's: the `*_bits` keys lost
    // their suffix, the simulator's directly kept fields nest under
    // `sim.state`, and the version word changed.
    const PINNED: u64 = 0x789d_4c7f_0334_5f5d;
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

/// `text` with the first `"key":{...}` member replaced by the members
/// inside its braces (JSON strings skipped while matching them).
fn hoist(text: &str, key: &str) -> String {
    let open = format!("\"{key}\":{{");
    let start = text.find(&open).expect("key present");
    let body = start + open.len();
    let (mut depth, mut in_str, mut escaped) = (1, false, false);
    let mut end = body;
    for (i, c) in text[body..].char_indices() {
        match (in_str, escaped, c) {
            (true, true, _) => escaped = false,
            (true, false, '\\') => escaped = true,
            (_, _, '"') => in_str = !in_str,
            (false, _, '{') => depth += 1,
            (false, _, '}') => depth -= 1,
            _ => {}
        }
        if depth == 0 {
            end = body + i;
            break;
        }
    }
    format!("{}{}{}", &text[..start], &text[body..end], &text[end + 1..])
}

#[test]
fn load_reports_an_older_format_version_before_mapping_fields() {
    let cfg = stressed_config();
    let mut runner = Runner::new(&cfg);
    for _ in 0..30 {
        runner.tick();
    }
    let path = std::env::temp_dir().join(format!("nps-checkpoint-old-{}.json", std::process::id()));
    runner.snapshot().save(&path).expect("saves");
    assert_eq!(
        RunnerSnapshot::load(&path).expect("loads"),
        runner.snapshot()
    );

    // A version-7 file: older version word, the simulator's fields
    // directly under `sim`, and every float word under a `*_bits` key.
    // A version-6 file also has the flat layout — every layer's fields
    // at the top level. A version-5 file also has the VMC window under
    // its real-utilization names (v5 kept a real and an apparent one),
    // and a version-4 file the event ring in the old nested layout. The
    // current field mapping reads none of them.
    let current = format!("\"version\":{}", RunnerSnapshot::VERSION);
    let text = std::fs::read_to_string(&path).expect("reads");
    assert!(text.starts_with(&format!("{{{current},")));
    let mut v7 = hoist(&text.replacen(&current, "\"version\":7", 1), "state");
    for name in [
        "util",
        "power",
        "vm_obs",
        "cum_power",
        "cum_enc_power",
        "cum_util",
        "cum_delivered",
        "cum_demand",
        "sensor_stuck_val",
        "cum_latency_proxy",
        "freq_hz",
        "applied_hz",
        "r_ref",
        "granted_cap",
        "buffer",
    ] {
        v7 = v7.replacen(&format!("\"{name}\":"), &format!("\"{name}_bits\":"), 1);
    }
    let mut v6 = v7.replacen("\"version\":7", "\"version\":6", 1);
    for key in ["ecsm", "managers", "vmc", "plane", "safety", "replicas"] {
        v6 = hoist(&v6, key);
    }
    while v6.contains("\"windows\":{") {
        v6 = hoist(&v6, "windows");
    }
    v6 = v6.replacen("\"buffer_bits\":", "\"vmc_buffer_bits\":", 1);
    for (name, old) in [("snap_power", "snap_power_em")].into_iter().chain(
        [
            "snap_util_ec",
            "snap_power_sm",
            "snap_encpow_em",
            "snap_encpow_gm",
            "cum_vm_util",
            "snap_vm_util",
            "win_max_vm_util",
            "last_util_ec",
            "last_power_sm",
            "last_encpow_em",
            "last_child_gm",
        ]
        .map(|n| (n, n)),
    ) {
        v6 = v6.replacen(&format!("\"{name}\":"), &format!("\"{old}_bits\":"), 1);
    }
    let v5 = v6
        .replacen("\"version\":6", "\"version\":5", 1)
        .replacen("\"cum_vm_util_bits\":", "\"cum_real_bits\":", 1)
        .replacen("\"snap_vm_util_bits\":", "\"snap_real_bits\":", 1)
        .replacen("\"win_max_vm_util_bits\":", "\"win_max_real_bits\":", 1);
    let v4 =
        v5.replacen("\"version\":5", "\"version\":4", 1)
            .replacen("\"words\":[", "\"ring\":[", 1);
    for (version, old) in [(7, v7), (6, v6), (5, v5), (4, v4)] {
        assert!(
            serde_json::from_str::<RunnerSnapshot>(&old).is_err(),
            "a version-{version} layout must not map onto the current fields"
        );
        std::fs::write(&path, old).expect("writes");
        let err = RunnerSnapshot::load(&path).expect_err("an older version is refused");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let core = err
            .get_ref()
            .and_then(|e| e.downcast_ref::<no_power_struggles::core::CoreError>())
            .expect("a typed checkpoint error");
        let want = format!(
            "format version {version} (this build reads {})",
            RunnerSnapshot::VERSION
        );
        assert!(
            matches!(core, no_power_struggles::core::CoreError::Checkpoint(why) if why == &want),
            "unexpected error: {core}"
        );
    }
    std::fs::remove_file(&path).ok();
}

/// The Figure 9 ablation: the VMC windows apparent utilization. A tight
/// VMC period puts two epochs before the split, so the checkpoint holds
/// advanced window snapshots and live window peaks.
#[test]
fn mid_vmc_window_checkpoint_in_apparent_util_mode_resumes_bit_exact() {
    let cfg = Scenario::paper(
        SystemKind::BladeA,
        Mix::M60,
        CoordinationMode::CoordApparentUtil,
    )
    .intervals(Intervals {
        ec: 1,
        sm: 5,
        em: 10,
        gm: 20,
        vmc: 60,
    })
    .horizon(HORIZON)
    .seed(31)
    .build();
    let (base_stats, base_snap) = run_uninterrupted(&cfg);

    let mut first = Runner::new(&cfg);
    while first.ticks_done() < 150 {
        first.tick();
    }
    let text = state_json(&mut first);
    let mid: RunnerSnapshot = serde_json::from_str(&text).expect("parses");
    assert!(
        mid.vmc.windows.snap_vm_util.iter().any(|&v| v != 0.0),
        "split must follow a VMC epoch"
    );
    assert!(
        mid.vmc.windows.win_max_vm_util.iter().any(|&v| v != 0.0),
        "split must fall inside a VMC window"
    );
    drop(first);
    let mut resumed = Runner::resume(&cfg, &mid).expect("checkpoint restores");
    assert_eq!(state_json(&mut resumed), text);
    assert_eq!(resumed.run_to_horizon(), base_stats);
    assert_eq!(resumed.snapshot(), base_snap);
}

#[test]
fn failed_save_onto_a_directory_leaves_no_temp_file() {
    let parent = std::env::temp_dir().join(format!("nps-save-onto-dir-{}", std::process::id()));
    let target = parent.join("ck.json");
    std::fs::create_dir_all(target.join("occupied")).expect("creates the blocking directory");
    let mut runner = Runner::new(&quiet_config());
    // The temp file is written in full; the final rename onto a
    // non-empty directory then fails.
    let saved = runner.snapshot().save(&target);
    let mut left: Vec<String> = std::fs::read_dir(&parent)
        .expect("lists the parent")
        .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
        .collect();
    left.sort();
    std::fs::remove_dir_all(&parent).ok();
    assert!(
        saved.is_err(),
        "saving onto a non-empty directory must fail"
    );
    assert_eq!(left, ["ck.json"], "only the blocking directory may remain");
}
