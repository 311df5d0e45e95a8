//! The checkpoint codec: writing a `RunnerSnapshot` as JSON
//! (`to_string`), parsing the text into a `serde::Value` tree
//! (`parse`), and mapping that tree onto a `RunnerSnapshot` (`decode`).
//! `parse` + `decode` is what `RunnerSnapshot::load` spends on a
//! checkpoint file once it is read. Two snapshots: Blade A All180
//! coordinated, and Server B 60HH with faults, a faulty bus and warm
//! standbys (the `chaos60_ckpt` shape). Group names carry the text size.

use criterion::{criterion_group, criterion_main, Criterion};
use nps_core::{CoordinationMode, Runner, RunnerSnapshot, Scenario, SystemKind};
use nps_sim::{BusConfig, ControllerLayer, FaultPlan};
use nps_traces::Mix;
use serde::Deserialize;
use std::hint::black_box;

const HORIZON: u64 = 3_000;
const TICKS: u64 = 1_500;
const SEED: u64 = 5;

fn snapshot_after(scenario: Scenario) -> RunnerSnapshot {
    let cfg = scenario.horizon(HORIZON).seed(SEED).threads(1).build();
    let mut runner = Runner::new(&cfg);
    for _ in 0..TICKS {
        runner.tick();
    }
    runner.snapshot()
}

fn snapshots() -> [(&'static str, RunnerSnapshot); 2] {
    let blade = Scenario::paper(
        SystemKind::BladeA,
        Mix::All180,
        CoordinationMode::Coordinated,
    );
    let chaos = Scenario::paper(
        SystemKind::ServerB,
        Mix::Hh60,
        CoordinationMode::Coordinated,
    )
    .faults(
        FaultPlan::disabled()
            .with_seed(SEED)
            .with_sensor_noise(0.05)
            .with_dropped_samples(0.05)
            .with_stuck_actuators(0.01, 20)
            .with_message_loss(0.10)
            .with_outage(ControllerLayer::Em, Some(0), 600, 1_000),
    )
    .bus(
        BusConfig::default()
            .with_seed(SEED)
            .with_delay(1, 1)
            .with_drop(0.05)
            .with_leases(150),
    )
    .standbys();
    [
        ("blade_a_all180", snapshot_after(blade)),
        ("server_b_60hh_standby", snapshot_after(chaos)),
    ]
}

fn bench_codec(c: &mut Criterion) {
    for (name, snap) in snapshots() {
        let text = serde_json::to_string(&snap).expect("snapshot serializes");
        let value = serde::parse(&text).expect("snapshot parses");
        let mut group = c.benchmark_group(format!("checkpoint_{name}_{}kb", text.len() / 1024));
        group.bench_function("to_string", |b| {
            b.iter(|| black_box(serde_json::to_string(black_box(&snap)).unwrap()));
        });
        group.bench_function("parse", |b| {
            b.iter(|| black_box(serde::parse(black_box(&text)).unwrap()));
        });
        group.bench_function("decode", |b| {
            b.iter(|| black_box(RunnerSnapshot::deserialize(black_box(&value)).unwrap()));
        });
        group.finish();
    }
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
