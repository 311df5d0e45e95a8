//! Micro-benchmarks of the controller hot paths: the per-tick EC step,
//! the SM interval, P-state quantization, budget-division policies,
//! grant delivery over the control bus, the fixed-shape tree sum, and
//! the fault model's per-server sensor and actuator draws.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use nps_control::{
    BudgetPolicy, EfficiencyController, FairShare, HistoryWeighted, ProportionalShare,
    ServerManager,
};
use nps_models::ServerModel;
use nps_sim::{
    reduce, BusConfig, ControlBus, FaultInjector, FaultPlan, LinkId, RetryConfig, SensorChannel,
};
use std::hint::black_box;

fn bench_ec_step(c: &mut Criterion) {
    let model = ServerModel::blade_a();
    c.bench_function("ec_step", |b| {
        let mut ec = EfficiencyController::new(&model, 0.8, 0.75);
        let mut util: f64 = 0.3;
        b.iter(|| {
            util = (util * 1.01).min(1.0);
            black_box(ec.step(&model, black_box(util)))
        });
    });
}

fn bench_sm_step(c: &mut Criterion) {
    let model = ServerModel::server_b();
    c.bench_function("sm_step_coordinated", |b| {
        let mut sm = ServerManager::new(&model, 0.9 * model.max_power(), 1.0);
        let mut ec = EfficiencyController::new(&model, 0.8, 0.75);
        b.iter(|| black_box(sm.step_coordinated(black_box(280.0), &mut ec)));
    });
}

fn bench_quantize(c: &mut Criterion) {
    let model = ServerModel::server_b();
    c.bench_function("quantize", |b| {
        let mut f = 1.1e9;
        b.iter(|| {
            f = if f > 2.5e9 { 1.1e9 } else { f + 1.7e7 };
            black_box(model.quantize(black_box(f)))
        });
    });
}

fn bench_policies(c: &mut Criterion) {
    let consumption: Vec<f64> = (0..60).map(|i| 50.0 + (i % 7) as f64 * 20.0).collect();
    let caps = vec![270.0; 60];
    let mut group = c.benchmark_group("policy_divide_60_children");
    // Into a reused buffer, as the EM and GM epochs divide.
    let mut out = Vec::new();
    group.bench_function("proportional", |b| {
        let mut p = ProportionalShare;
        b.iter(|| {
            p.divide_into(9_000.0, &consumption, &caps, &mut out);
            black_box(out[0])
        });
    });
    group.bench_function("fair", |b| {
        let mut p = FairShare;
        b.iter(|| {
            p.divide_into(9_000.0, &consumption, &caps, &mut out);
            black_box(out[0])
        });
    });
    group.bench_function("history", |b| {
        b.iter_batched(
            || HistoryWeighted::new(0.3),
            |mut p| {
                p.divide_into(9_000.0, &consumption, &caps, &mut out);
                black_box(out[0])
            },
            BatchSize::SmallInput,
        );
    });
    group.finish();
}

fn bench_capping_slope(c: &mut Criterion) {
    c.bench_function("max_capping_slope_normalized", |b| {
        let model = ServerModel::server_b();
        b.iter(|| black_box(model.max_capping_slope_normalized()));
    });
}

/// One GM epoch's grants on `paper180` (120 EM→blade + 66 GM→child
/// links) into a reused event buffer. `at_once/*` is the runner's path on
/// a bus that delivers at once (retries off): one quiet check per batch,
/// then one `send_at_once` per grant over the contiguous link range.
/// `send_into/*` is its path on every other bus: one `send_into` per
/// grant, delivered at send time. `queued/*` keeps the queue's cost in
/// view: `send` on every link, then one `poll_into`. With retries on,
/// every delivery is also acked.
fn bench_bus_grant(c: &mut Criterion) {
    const LINKS: usize = 186;
    let retrying = BusConfig::passthrough().with_retry(RetryConfig {
        max_attempts: 3,
        ..RetryConfig::default()
    });
    let mut group = c.benchmark_group("bus/passthrough_grant");
    for (retries, cfg) in [
        ("retries_off", BusConfig::passthrough()),
        ("retries_on", retrying),
    ] {
        let at_once = ControlBus::new(&cfg).delivers_at_once();
        let paths = ["at_once", "send_into", "queued"];
        for path in paths.into_iter().filter(|&p| at_once || p != "at_once") {
            group.bench_function(format!("{path}/{retries}"), |b| {
                let mut bus = ControlBus::new(&cfg);
                for _ in 0..LINKS {
                    bus.register_link();
                }
                let mut events = Vec::new();
                let mut t = 0u64;
                b.iter(|| {
                    let mut delivered = 0;
                    match path {
                        "at_once" => {
                            assert!(bus.quiet_at(t));
                            for l in 0..LINKS {
                                let watts = 100.0 + l as f64;
                                let event = bus.send_at_once(LinkId(l), watts, t, false);
                                delivered += usize::from(event.is_some());
                            }
                        }
                        "send_into" => {
                            for l in 0..LINKS {
                                let watts = 100.0 + l as f64;
                                bus.send_into(LinkId(l), watts, t, false, &mut events);
                                delivered += events.len();
                            }
                        }
                        _ => {
                            for l in 0..LINKS {
                                bus.send(LinkId(l), 100.0 + l as f64, t, false);
                            }
                            bus.poll_into(t, &mut events);
                            delivered = events.len();
                        }
                    }
                    t += 1;
                    black_box(delivered)
                });
            });
        }
    }
    group.finish();
}

/// The sequential fixed-shape sum at an enclosure (20), the paper's
/// fleet (180) and a size past the 2048-element stack buffer (4096).
fn bench_tree_sum(c: &mut Criterion) {
    let mut group = c.benchmark_group("reduce/tree_sum");
    for n in [20usize, 180, 4096] {
        let xs: Vec<f64> = (0..n).map(|i| 100.0 + (i % 13) as f64 * 7.5).collect();
        group.bench_function(BenchmarkId::from_parameter(n), |b| {
            b.iter(|| black_box(reduce::tree_sum(black_box(&xs))));
        });
    }
    group.finish();
}

/// One EC epoch's fault-model traffic on Server B 60HH (60 servers, 2
/// enclosures, 20 standalone) at chaos60's rates: every server's
/// utilization reading through `sense` (up to four counter draws each),
/// and every P-state write through `pstate_write_blocked` (one draw).
/// Divide by 60 for the per-reading cost. The tick advances every
/// iteration, so stuck windows open and thaw as they do in a run.
fn bench_fault_draws(c: &mut Criterion) {
    const SERVERS: usize = 60;
    let plan = FaultPlan::disabled()
        .with_seed(7)
        .with_sensor_noise(0.05)
        .with_stuck_sensors(0.01, 20)
        .with_dropped_samples(0.05)
        .with_stuck_actuators(0.01, 20);
    let mut group = c.benchmark_group("faults/sense");
    group.bench_function("server_utilization_60", |b| {
        let mut inj = FaultInjector::new(&plan, SERVERS, 2, 20);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            let mut sum = 0.0;
            for i in 0..SERVERS {
                let reading = inj.sense(SensorChannel::ServerUtilization, i, t, 0.5);
                sum += reading.value().unwrap_or(0.0);
            }
            black_box(sum)
        });
    });
    group.bench_function("pstate_write_blocked_60", |b| {
        let mut inj = FaultInjector::new(&plan, SERVERS, 2, 20);
        let mut t = 0u64;
        b.iter(|| {
            t += 1;
            let mut blocked = 0usize;
            for i in 0..SERVERS {
                blocked += usize::from(inj.pstate_write_blocked(i, t));
            }
            black_box(blocked)
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ec_step,
    bench_sm_step,
    bench_quantize,
    bench_policies,
    bench_capping_slope,
    bench_bus_grant,
    bench_tree_sum,
    bench_fault_draws
);
criterion_main!(benches);
