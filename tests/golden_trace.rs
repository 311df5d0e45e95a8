//! Golden-trace regression suite.
//!
//! Each case runs a fixed-seed experiment and compares its full
//! [`ExperimentResult`] (fig7/fig8-style summary metrics) plus the first
//! and last ten telemetry events against a checked-in golden JSON file
//! under `tests/goldens/`. Any numeric drift — even in the last bit of an
//! f64 — fails the suite, which is what makes deep hot-path refactors
//! (the batched SoA engine) safe to land: identical seeds must produce
//! bit-identical trajectories.
//!
//! To refresh the goldens after an *intentional* behavior change:
//!
//! ```sh
//! NPS_UPDATE_GOLDENS=1 cargo test --test golden_trace
//! ```

use no_power_struggles::prelude::*;
use serde::{Deserialize, Serialize, Value};
use std::path::PathBuf;

/// Telemetry head/tail length kept in each golden.
const EVENT_WINDOW: usize = 10;

/// The checked-in shape of one golden case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct GoldenTrace {
    /// Case name (also the file stem).
    name: String,
    /// The baseline-normalized experiment outcome, bit-exact.
    result: ExperimentResult,
    /// Total telemetry events emitted over the run.
    telemetry_total: u64,
    /// The first `EVENT_WINDOW` telemetry events.
    telemetry_first: Vec<TelemetryEvent>,
    /// The last `EVENT_WINDOW` telemetry events.
    telemetry_last: Vec<TelemetryEvent>,
}

fn goldens_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("goldens")
}

fn update_requested() -> bool {
    std::env::var_os("NPS_UPDATE_GOLDENS").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Runs one configuration and captures its golden shape: the experiment
/// result plus head/tail of the telemetry stream.
///
/// `NPS_THREADS` re-runs the whole suite with that worker-thread count;
/// parallel execution is bit-identical, so every golden must pass
/// *unregenerated* at any value (CI runs 1 and 4).
fn capture(name: &str, cfg: &ExperimentConfig) -> GoldenTrace {
    let mut cfg = cfg.clone();
    if let Some(threads) = std::env::var("NPS_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
    {
        cfg.threads = threads.max(1);
    }
    let cfg = &cfg;
    let result = run_experiment(cfg);
    // A second, telemetry-instrumented run of the same config; runs are
    // deterministic, so this replays the exact trajectory of `result`.
    let mut runner = Runner::new(cfg);
    runner.enable_ring_telemetry(1 << 22);
    runner.run_to_horizon();
    let ring = runner
        .ring_telemetry()
        .expect("ring recorder was installed");
    let events: Vec<TelemetryEvent> = ring.events().cloned().collect();
    let total: u64 = EventKind::ALL.iter().map(|&k| ring.count(k)).sum();
    assert_eq!(
        events.len() as u64,
        total,
        "ring capacity must exceed the event volume for golden capture"
    );
    let head = events.iter().take(EVENT_WINDOW).cloned().collect();
    let tail = events
        .iter()
        .skip(events.len().saturating_sub(EVENT_WINDOW))
        .cloned()
        .collect();
    GoldenTrace {
        name: name.to_string(),
        result,
        telemetry_total: total,
        telemetry_first: head,
        telemetry_last: tail,
    }
}

/// Recursively diffs two JSON values, collecting the paths (and values)
/// that differ so a mismatch names exactly what moved.
fn diff_values(path: &str, golden: &Value, fresh: &Value, out: &mut Vec<String>) {
    const MAX_REPORTED: usize = 12;
    if out.len() >= MAX_REPORTED {
        return;
    }
    match (golden, fresh) {
        (Value::Object(g), Value::Object(f)) => {
            for (key, gv) in g {
                let sub = format!("{path}.{key}");
                match f.iter().find(|(k, _)| k == key) {
                    Some((_, fv)) => diff_values(&sub, gv, fv, out),
                    None => out.push(format!("{sub}: missing in fresh output")),
                }
            }
            for (key, _) in f {
                if !g.iter().any(|(k, _)| k == key) {
                    out.push(format!("{path}.{key}: not present in golden"));
                }
            }
        }
        (g, f) => match (g.elements(), f.elements()) {
            // Arrays compare element-wise whether the parser packed them
            // (all plain unsigned integers) or not.
            (Some(ga), Some(fa)) => {
                if ga.len() != fa.len() {
                    out.push(format!(
                        "{path}: length changed, golden {} vs fresh {}",
                        ga.len(),
                        fa.len()
                    ));
                }
                for i in 0..ga.len().min(fa.len()) {
                    let (gv, fv) = (ga.get(i).unwrap(), fa.get(i).unwrap());
                    diff_values(&format!("{path}[{i}]"), &gv, &fv, out);
                }
            }
            _ if g != f => out.push(format!("{path}: golden {g:?} vs fresh {f:?}")),
            _ => {}
        },
    }
}

#[test]
fn diff_names_the_first_differing_array_index() {
    let diff = |golden: &str, fresh: &str| {
        let mut out = Vec::new();
        let parse = |t: &str| serde::parse(t).expect("test JSON parses");
        diff_values("$", &parse(golden), &parse(fresh), &mut out);
        out
    };
    // Packed word arrays on both sides.
    let out = diff(r#"{"a":[1,2,3]}"#, r#"{"a":[1,5,3]}"#);
    assert_eq!(out, ["$.a[1]: golden UInt(2) vs fresh UInt(5)"]);
    // A packed array against a general one, and a length change.
    let out = diff("[[1,2,3]]", "[[1,2,-3,4]]");
    assert_eq!(out.len(), 2, "{out:?}");
    assert!(out[0].starts_with("$[0]: length changed, golden 3 vs fresh 4"));
    assert_eq!(out[1], "$[0][2]: golden UInt(3) vs fresh Int(-3)");
    assert!(diff("[1,2]", "[1,2]").is_empty());
    assert!(diff("[]", "[]").is_empty());
}

/// Compares a freshly captured trace against the checked-in golden (or
/// rewrites the golden under `NPS_UPDATE_GOLDENS=1`).
fn check_golden(name: &str, cfg: &ExperimentConfig) {
    let fresh = capture(name, cfg);
    let path = goldens_dir().join(format!("{name}.json"));
    if update_requested() {
        std::fs::create_dir_all(goldens_dir()).expect("create goldens dir");
        let json = serde_json::to_string_pretty(&fresh).expect("golden serializes");
        std::fs::write(&path, json + "\n").expect("write golden");
        eprintln!("updated golden {}", path.display());
        return;
    }
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {}: {e}\n\
             run `NPS_UPDATE_GOLDENS=1 cargo test --test golden_trace` to record it",
            path.display()
        )
    });
    let golden: GoldenTrace = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("golden {} does not parse: {e}", path.display()));
    if golden == fresh {
        // Typed equality is the strongest check; also guard the JSON form
        // so serializer regressions (field renames) surface here.
        return;
    }
    // Build a field-level diff for the failure message.
    let golden_v: Value = serde::parse(&text).expect("golden reparses as Value");
    let fresh_json = serde_json::to_string_pretty(&fresh).expect("fresh serializes");
    let fresh_v: Value = serde::parse(&fresh_json).expect("fresh reparses as Value");
    let mut diffs = Vec::new();
    diff_values("$", &golden_v, &fresh_v, &mut diffs);
    if diffs.is_empty() {
        diffs.push("typed values differ but JSON forms match (serializer drift?)".to_string());
    }
    panic!(
        "golden-trace mismatch for `{name}` ({} differing fields shown):\n  {}\n\
         If this change is intentional, refresh with \
         `NPS_UPDATE_GOLDENS=1 cargo test --test golden_trace`.",
        diffs.len(),
        diffs.join("\n  ")
    );
}

/// A moderately adversarial fault plan: every fault family enabled at
/// low rates plus one EM outage window, all seeded.
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

#[test]
fn golden_blade_a_180_coordinated() {
    let cfg = Scenario::paper(
        SystemKind::BladeA,
        Mix::All180,
        CoordinationMode::Coordinated,
    )
    .horizon(800)
    .seed(7)
    .build();
    check_golden("blade_a_180_coordinated", &cfg);
}

#[test]
fn golden_server_b_60hh_uncoordinated() {
    let cfg = Scenario::paper(
        SystemKind::ServerB,
        Mix::Hh60,
        CoordinationMode::Uncoordinated,
    )
    .horizon(800)
    .seed(11)
    .build();
    check_golden("server_b_60hh_uncoordinated", &cfg);
}

#[test]
fn golden_blade_a_60m_vmconly() {
    let cfg = Scenario::paper(SystemKind::BladeA, Mix::M60, CoordinationMode::Coordinated)
        .mask(ControllerMask::VMC_ONLY)
        .horizon(1_100)
        .seed(13)
        .build();
    check_golden("blade_a_60m_vmconly", &cfg);
}

#[test]
fn golden_server_b_60h_coordinated_faults() {
    let cfg = Scenario::paper(SystemKind::ServerB, Mix::H60, CoordinationMode::Coordinated)
        .horizon(700)
        .seed(17)
        .faults(golden_fault_plan())
        .build();
    check_golden("server_b_60h_coordinated_faults", &cfg);
}

#[test]
fn golden_multi_rack_bus_faults() {
    // Scale-out topology with the control-plane bus under delivery
    // faults: delayed/reordered/duplicated/dropped grants, leases, and
    // retransmission with backoff. Pins the bus fault model's RNG
    // stream and the lease state machine bit-exactly.
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
    check_golden("multi_rack_bus_faults", &cfg);
}

#[test]
fn golden_lopsided_weighted_shards() {
    // One 4x rack (4 enclosures x 32 blades) towering over four small
    // racks (1 enclosure x 8 each) and a standalone tail: pins the
    // size-weighted shard assignment (cuts land at enclosure boundaries
    // near the ideal positions, not per-rack), the parallel EM epoch
    // over heterogeneous enclosure sizes, and the sharded electrical
    // clamp, under the full adversarial fault plan.
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
    check_golden("lopsided_weighted_shards", &cfg);
}

#[test]
fn golden_gm_vmc_parallel() {
    // Multi-rack fleet with every parallel control-plane path hot at
    // once: a tight GM period (many GM epochs, per-child counter-stream
    // sensor draws in the fan-out), the VMC inside the horizon (sharded
    // demand accumulators feeding real migrations), sensor + actuator
    // faults, and an electrical cap. Captured at `NPS_THREADS=1`; CI
    // asserts it unregenerated at 4 and 7.
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
    check_golden("gm_vmc_parallel", &cfg);
}

#[test]
fn golden_vmc_parallel_arbitration() {
    // The fixed-shape-reduction hot path end to end: a 68-server
    // multi-rack fleet (≥ 64 VMs, so the VMC demand pass, its
    // arbitration-telemetry reduction, and the per-tick latency-proxy
    // sum all take the pool-parallel tree driver when threads > 1), a
    // tight VMC period (8 arbitration epochs in the horizon), an
    // electrical cap, the full sensor/actuator/message fault plan, and
    // a lossy delaying bus with leases + retries. Captured at
    // `NPS_THREADS=1`; CI asserts it unregenerated at 4 and 7 — the
    // tree makes that bit-exact by construction.
    let bus = BusConfig::default()
        .with_seed(41)
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
        8,
        4,
    )
    .intervals(Intervals {
        ec: 1,
        sm: 5,
        em: 10,
        gm: 20,
        vmc: 60,
    })
    .electrical_cap(0.9)
    .horizon(500)
    .seed(67)
    .faults(golden_fault_plan())
    .bus(bus)
    .build();
    check_golden("vmc_parallel_arbitration", &cfg);
}

#[test]
fn golden_failover_standby() {
    // Warm-standby failover under fire: a whole-layer GM outage and an
    // instance EM outage, both bridged by standbys, with the
    // safety-invariant monitor on. Pins the heartbeat/term protocol, the
    // sync-stream traffic on the bus, fencing of the returning
    // primaries, and the fact that coordinated capping never degrades
    // to static caps while a standby is healthy.
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
    check_golden("failover_standby", &cfg);
}

#[test]
fn golden_hetero_electrical_coordinated() {
    let cfg = Scenario::paper(SystemKind::BladeA, Mix::L60, CoordinationMode::Coordinated)
        .heterogeneous()
        .electrical_cap(0.92)
        .horizon(600)
        .seed(23)
        .build();
    check_golden("hetero_electrical_coordinated", &cfg);
}
