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

/// A multi-rack fleet with plan-level faults and a slow, lossy bus with
/// retries: checkpointed mid-GM-window (tick 126), it carries grant copies
/// in the in-flight heap and armed retransmission timers.
fn lossy_config() -> ExperimentConfig {
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
    Scenario::multi_rack(
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

/// On a bus that delivers every grant at once (passthrough, retries
/// off) the bus state is fixed by the epochs alone: each grant link's
/// `next_seq` and `accepted_seq` equal the epochs its sender ran, each
/// grant took one uid, and nothing is pending or queued. The pinned
/// checkpoint text runs a faulty bus, so this pins the at-once path.
#[test]
fn passthrough_bus_counters_follow_the_epochs() {
    let cfg = quiet_config();
    assert!(cfg.bus.is_passthrough() && !cfg.bus.retry.enabled());
    let iv = cfg.intervals;
    let ticks = 7 * iv.em + 5;
    let mut runner = Runner::new(&cfg);
    for _ in 0..ticks {
        runner.tick();
    }
    let snap = runner.snapshot();
    // Controllers first act at tick 1, so an epoch runs at every
    // positive multiple of its interval below `ticks`.
    let (em_epochs, gm_epochs) = ((ticks - 1) / iv.em, (ticks - 1) / iv.gm);
    assert!(em_epochs >= 3 && gm_epochs >= 3, "{em_epochs} {gm_epochs}");
    let topo = &cfg.topology;
    let (servers, encs) = (topo.num_servers(), topo.num_enclosures());
    let members = servers - topo.standalone_servers().len();
    assert!(members > 0);
    // Link order: every EM→member link, then the GM→EM links, then the
    // GM→standalone links.
    let bus = &snap.plane.bus;
    assert_eq!(bus.links.len(), servers + encs);
    for (slot, link) in bus.links.iter().enumerate() {
        let sent = if slot < members { em_epochs } else { gm_epochs };
        assert_eq!(link.next_seq, sent, "next_seq of link {slot}");
        assert_eq!(link.accepted_seq, sent, "accepted_seq of link {slot}");
        assert!(link.pending.is_none(), "link {slot} has a pending grant");
    }
    let gm_links = (servers + encs - members) as u64;
    assert_eq!(
        bus.next_uid,
        members as u64 * em_epochs + gm_links * gm_epochs
    );
    assert!(bus.queue.is_empty(), "{:?}", bus.queue);
}

#[test]
fn kill_and_resume_is_bit_exact_with_an_electrical_cap() {
    // The clamp deepens controller writes within a tick, so the run
    // counts P-state conflicts; and a resumed runner clamps its fresh
    // simulator at construction, so a restore that kept those same-tick
    // write flags would count conflicts the uninterrupted run never saw.
    let mut cfg = stressed_config();
    cfg.electrical_cap_frac = Some(0.85);
    let (base_stats, base_snap) = run_uninterrupted(&cfg);
    assert!(base_stats.pstate_conflicts > 0, "{base_stats:?}");
    for split in [1, 57, 150, HORIZON - 1] {
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
fn mid_gm_window_checkpoint_is_thread_count_agnostic() {
    // Checkpoint in the middle of a GM window (between the t=100 and
    // t=150 GM epochs) on a multi-rack fleet with a slow lossy bus, so
    // the snapshot carries in-flight heap messages, armed retry timers,
    // and nonzero per-slot sensor counters — then restore at different
    // thread counts. The terminal checkpoint JSON must be byte-identical
    // whichever worker count replays the remainder.
    let cfg = lossy_config();

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
        ("sim.act.pstate index out of range", |s| {
            s.sim.act.pstate[0] = PState(99)
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
        ("sim.act.pstate short", |s| {
            s.sim.act.pstate.pop();
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

/// The words of the JSON array after `text`'s one `"key":[`, and the
/// byte range they occupy.
fn words_at(text: &str, key: &str) -> (std::ops::Range<usize>, Vec<u64>) {
    let open = format!("\"{key}\":[");
    let start = text.find(&open).expect("key present") + open.len();
    assert_eq!(
        text.rfind(&open).map(|i| i + open.len()),
        Some(start),
        "{key} is not unique"
    );
    let end = start + text[start..].find(']').expect("array closes");
    let words = text[start..end]
        .split(',')
        .filter(|w| !w.is_empty())
        .map(|w| w.parse().expect("an unsigned word"))
        .collect();
    (start..end, words)
}

fn join(words: &[u64]) -> String {
    words
        .iter()
        .map(u64::to_string)
        .collect::<Vec<_>>()
        .join(",")
}

/// `text` with the words of `key`'s array edited by `edit`.
fn edit_words(text: &str, key: &str, edit: impl FnOnce(&mut Vec<u64>)) -> String {
    let (range, mut words) = words_at(text, key);
    edit(&mut words);
    format!(
        "{}{}{}",
        &text[..range.start],
        join(&words),
        &text[range.end..]
    )
}

#[test]
fn misshapen_link_and_resident_columns_are_rejected_without_touching_the_runner() {
    #[derive(Debug, PartialEq)]
    enum Stage {
        Decode,
        Restore,
    }
    let cfg = lossy_config();
    let mut source = Runner::new(&cfg);
    for _ in 0..126 {
        source.tick();
    }
    let good = state_json(&mut source);
    let (_, pending) = words_at(&good, "pending");
    assert!(pending.len() >= 10, "the split catches two pending retries");
    let links = words_at(&good, "next_seq").1.len() as u64;
    type Edit = fn(&mut Vec<u64>, u64);
    let edits: [(&str, &str, Edit, Stage); 8] = [
        (
            "next_seq shorter than accepted_seq",
            "next_seq",
            |w, _| {
                w.pop();
            },
            Stage::Decode,
        ),
        (
            "accepted_seq shorter than next_seq",
            "accepted_seq",
            |w, _| {
                w.pop();
            },
            Stage::Decode,
        ),
        (
            "a pending record of four words",
            "pending",
            |w, _| {
                w.pop();
            },
            Stage::Decode,
        ),
        (
            "a pending record naming link = the link count",
            "pending",
            |w, links| {
                let last = w.len() - 5;
                w[last] = links;
            },
            Stage::Decode,
        ),
        (
            "two pending records naming one link",
            "pending",
            |w, _| w[5] = w[0],
            Stage::Decode,
        ),
        (
            "pending attempts above u32::MAX",
            "pending",
            |w, _| w[3] = u64::from(u32::MAX) + 1,
            Stage::Decode,
        ),
        (
            "resident counts summing past the listed VMs",
            "len",
            |w, _| w[0] += 1,
            Stage::Decode,
        ),
        (
            "a VM listed twice",
            "vms",
            |w, _| w[1] = w[0],
            Stage::Restore,
        ),
    ];

    let mut target = Runner::new(&cfg);
    for _ in 0..40 {
        target.tick();
    }
    let before = state_json(&mut target);
    for (what, key, edit, stage) in edits {
        let bad = edit_words(&good, key, |w| edit(w, links));
        let rejected = match serde_json::from_str::<RunnerSnapshot>(&bad) {
            Err(_) => Stage::Decode,
            Ok(snap) => {
                let err = target
                    .restore(&snap)
                    .expect_err(&format!("{what} must be rejected"));
                assert!(
                    matches!(err, no_power_struggles::core::CoreError::Checkpoint(_)),
                    "{what}: unexpected error: {err}"
                );
                Stage::Restore
            }
        };
        assert_eq!(rejected, stage, "{what} was rejected at the wrong stage");
        assert_eq!(
            state_json(&mut target),
            before,
            "a failed restore of {what} mutated the runner"
        );
    }
    // `attempts` at exactly `u32::MAX` is in range.
    let edge = edit_words(&good, "pending", |w| w[3] = u64::from(u32::MAX));
    let snap: RunnerSnapshot = serde_json::from_str(&edge).expect("u32::MAX attempts decode");
    assert_eq!(serde_json::to_string(&snap).unwrap(), edge);
    let snap: RunnerSnapshot = serde_json::from_str(&good).expect("the intact text decodes");
    target
        .restore(&snap)
        .expect("the intact checkpoint still restores");
    assert_eq!(state_json(&mut target), good);
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
    // v10, whose text carries every word of v9's but the event ring and
    // the same-tick write flags (all clear between ticks): the P-states
    // and the conflict counter moved to `sim.act`, and the version word
    // changed.
    const PINNED: u64 = 0x713f_2930_229b_e29a;
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

/// `text` with its one `"key":{...}` member's object (which holds no
/// nested object) replaced by `with`.
fn replace_object(text: &str, key: &str, with: &str) -> String {
    let open = format!("\"{key}\":{{");
    let start = text.find(&open).expect("key present") + open.len() - 1;
    let end = start + text[start..].find('}').expect("object closes") + 1;
    format!("{}{with}{}", &text[..start], &text[end..])
}

/// `text` with the bus links and resident lists written back in the
/// format-v8 layout: one `{next_seq, accepted_seq, pending}` object per
/// link, `pending` a `{seq, watts, attempts, next_retry_at}` object or
/// `null`, and one array per server's resident list.
fn v8_layout(text: &str) -> String {
    let (_, next_seq) = words_at(text, "next_seq");
    let (_, accepted_seq) = words_at(text, "accepted_seq");
    let (_, pending) = words_at(text, "pending");
    let mut records = pending.chunks_exact(5).peekable();
    let links: Vec<String> = next_seq
        .iter()
        .zip(&accepted_seq)
        .enumerate()
        .map(|(link, (n, a))| {
            let p = records.next_if(|r| r[0] == link as u64).map_or_else(
                || "null".to_string(),
                |r| {
                    format!(
                        "{{\"seq\":{},\"watts\":{},\"attempts\":{},\"next_retry_at\":{}}}",
                        r[1], r[2], r[3], r[4]
                    )
                },
            );
            format!("{{\"next_seq\":{n},\"accepted_seq\":{a},\"pending\":{p}}}")
        })
        .collect();
    assert!(
        records.next().is_none(),
        "every pending record names a link"
    );
    let (_, len) = words_at(text, "len");
    let (_, vms) = words_at(text, "vms");
    let mut rest = &vms[..];
    let lists: Vec<String> = len
        .iter()
        .map(|&k| {
            let (list, tail) = rest.split_at(k as usize);
            rest = tail;
            format!("[{}]", join(list))
        })
        .collect();
    let text = replace_object(text, "links", &format!("[{}]", links.join(",")));
    replace_object(&text, "residents", &format!("[{}]", lists.join(",")))
}

/// `text` with the simulator written back in the format-v9 layout: the
/// P-states and the conflict counter inside `state`, and an empty event
/// ring after the per-VM observations. v9 also wrote the same-tick
/// write flags; the version word refuses the file before any field is
/// read, so the layout leaves them out.
fn v9_layout(text: &str) -> String {
    let (_, pstate) = words_at(text, "pstate");
    let open = ",\"act\":{";
    let start = text.find(open).expect("act section");
    let end = start + text[start..].find('}').expect("act closes") + 1;
    let conflicts = text[start..end - 1]
        .rsplit(':')
        .next()
        .expect("the conflict counter");
    let text = format!("{}{}", &text[..start], &text[end..])
        .replacen(
            "\"mig_until\":",
            &format!("\"pstate\":[{}],\"mig_until\":", join(&pstate)),
            1,
        )
        .replacen(
            "\"migrations_started\":",
            &format!("\"pstate_conflicts\":{conflicts},\"migrations_started\":"),
            1,
        );
    let (range, _) = words_at(&text, "vm_obs");
    format!(
        "{}],\"events\":{{\"capacity\":4096,\"next\":0,\"total\":0,\"words\":[]}}{}",
        &text[..range.end],
        &text[range.end + 1..]
    )
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

    // A version-9 file: older version word, the P-states and the
    // conflict counter inside the simulator's state, and an event ring.
    // A version-8 file also has one object per bus link and one array
    // per server's resident list. A version-7 file also has the
    // simulator's fields directly under `sim`, and every float word
    // under a `*_bits` key. A version-6 file also has the flat layout —
    // every layer's fields at the top level. A version-5 file also has
    // the VMC window under its real-utilization names (v5 kept a real
    // and an apparent one), and a version-4 file the event ring in the
    // old nested layout. The current field mapping reads none of them.
    let current = format!("\"version\":{}", RunnerSnapshot::VERSION);
    let text = std::fs::read_to_string(&path).expect("reads");
    assert!(text.starts_with(&format!("{{{current},")));
    let v9 = v9_layout(&text.replacen(&current, "\"version\":9", 1));
    let v8 = v8_layout(&v9.replacen("\"version\":9", "\"version\":8", 1));
    let mut v7 = hoist(&v8.replacen("\"version\":8", "\"version\":7", 1), "state");
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
    for (version, old) in [(9, v9), (8, v8), (7, v7), (6, v6), (5, v5), (4, v4)] {
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
