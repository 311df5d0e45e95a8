//! Timed runs of one workload, and the correctness outcome of a run.
//!
//! A timed run is: `Scenario::build` + `Runner::try_new` (set-up), then
//! `Runner::tick` to the horizon with every call timed on its own. At
//! the workload's checkpoint cadence, between two ticks, the run makes
//! a full round trip — `Runner::snapshot`, `RunnerSnapshot::save`,
//! `RunnerSnapshot::load`, `Runner::resume` — and carries on with the
//! resumed runner, so the run's final state is only right if every
//! round trip was exact.

use std::path::Path;
use std::time::Instant;

use nps_core::{ExperimentConfig, Runner, RunnerSnapshot};
use nps_metrics::{FaultStats, InvariantStats};
use nps_sim::RedundancyStats;

use crate::spans::{SpanId, SpanLog};
use crate::workloads::{EpochClass, Workload};

/// Host time of one checkpoint round trip.
#[derive(Debug, Clone, Copy)]
pub struct Roundtrip {
    pub snapshot_ns: u64,
    pub save_ns: u64,
    pub load_ns: u64,
    pub resume_ns: u64,
    pub bytes: u64,
}

/// What a run computed, for the correctness check.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// FNV-1a over the serialized run stats, fault / redundancy /
    /// invariant counters and the final checkpoint.
    pub fingerprint: u64,
    pub energy: f64,
    pub faults: FaultStats,
    pub redundancy: RedundancyStats,
    pub invariants: InvariantStats,
}

impl Outcome {
    fn of(runner: &mut Runner) -> Result<Self, String> {
        let stats = runner.stats();
        let faults = runner.fault_stats();
        let redundancy = runner.redundancy_stats();
        let invariants = runner.invariant_stats();
        let snap = runner.snapshot();
        let ser = |r: serde_json::Result<String>| r.map_err(|e| format!("serialize: {e}"));
        let fingerprint = fnv1a(&[
            &ser(serde_json::to_string(&stats))?,
            &ser(serde_json::to_string(&faults))?,
            &ser(serde_json::to_string(&redundancy))?,
            &ser(serde_json::to_string(&invariants))?,
            &ser(serde_json::to_string(&snap))?,
        ]);
        Ok(Self {
            fingerprint,
            energy: stats.energy,
            faults,
            redundancy,
            invariants,
        })
    }

    /// The run-local checks: finite energy and a clean invariant sweep.
    pub fn check(&self) -> Result<(), String> {
        if !self.energy.is_finite() {
            return Err(format!("non-finite energy {}", self.energy));
        }
        if !self.invariants.is_clean() {
            return Err(format!(
                "{} safety-invariant violations",
                self.invariants.total_violations()
            ));
        }
        Ok(())
    }
}

/// FNV-1a over the concatenated bytes of `parts`.
pub fn fnv1a(parts: &[&str]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for part in parts {
        for b in part.bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Everything one timed run measured.
#[derive(Debug, Clone)]
pub struct TimedRun {
    pub build_ns: u64,
    pub try_new_ns: u64,
    /// Host time of each `Runner::tick` call, indexed by tick.
    pub tick_ns: Vec<u64>,
    pub roundtrips: Vec<Roundtrip>,
    /// Round trips that returned an error (the run kept its runner).
    pub roundtrip_errors: Vec<String>,
    /// `Runner::arbitration_nanos`, `parallel_nanos` and `steal_count`,
    /// summed over every runner the run went through.
    pub arbitration_ns: u64,
    pub parallel_ns: u64,
    pub steals: u64,
    pub servers: usize,
    pub outcome: Outcome,
    /// The process's peak resident memory (KiB) when the run ended.
    pub peak_rss_kib: u64,
}

impl TimedRun {
    /// Total host time of the tick calls.
    pub fn loop_ns(&self) -> u64 {
        self.tick_ns.iter().sum()
    }
}

/// Optional tracing context of a run: the log, and this run's id.
pub struct Trace<'a> {
    pub log: &'a mut SpanLog,
    pub run: u32,
}

/// One timed run of `w` at its own thread count.
pub fn timed_run(
    w: Workload,
    seed: u64,
    ckpt_path: &Path,
    mut trace: Option<Trace<'_>>,
) -> Result<TimedRun, String> {
    let scenario = w.scenario(seed, w.threads());
    if let Some(t) = trace.as_mut() {
        t.log.reserve(w.horizon() as usize + 64);
    }
    let root = trace.as_mut().map(|t| t.log.open("run", None, t.run));

    let t0 = Instant::now();
    let cfg = scenario.build();
    let t1 = Instant::now();
    let mut runner = Runner::try_new(&cfg).map_err(|e| format!("Runner::try_new: {e}"))?;
    let t2 = Instant::now();
    if let Some(t) = trace.as_mut() {
        t.log.record("scenarios.build", root, t.run, t0, t1);
        t.log.record("runner.try_new", root, t.run, t1, t2);
    }

    let iv = cfg.intervals;
    let every = w.checkpoint_every();
    let mut run = TimedRun {
        build_ns: (t1 - t0).as_nanos() as u64,
        try_new_ns: (t2 - t1).as_nanos() as u64,
        tick_ns: Vec::with_capacity(cfg.horizon as usize),
        roundtrips: Vec::new(),
        roundtrip_errors: Vec::new(),
        arbitration_ns: 0,
        parallel_ns: 0,
        steals: 0,
        servers: cfg.topology.num_servers(),
        peak_rss_kib: 0,
        outcome: Outcome {
            fingerprint: 0,
            energy: 0.0,
            faults: FaultStats::default(),
            redundancy: RedundancyStats::default(),
            invariants: InvariantStats::default(),
        },
    };
    for t in 0..cfg.horizon {
        if t > 0 && t % every == 0 {
            match roundtrip(&cfg, &mut runner, ckpt_path, trace.as_mut(), root) {
                Ok((rt, resumed)) => {
                    run.arbitration_ns += runner.arbitration_nanos();
                    run.parallel_ns += runner.parallel_nanos();
                    run.steals += runner.steal_count();
                    runner = resumed;
                    run.roundtrips.push(rt);
                }
                Err(e) => run.roundtrip_errors.push(e),
            }
        }
        let a = Instant::now();
        runner.tick();
        let b = Instant::now();
        run.tick_ns.push((b - a).as_nanos() as u64);
        if let Some(tr) = trace.as_mut() {
            tr.log
                .record(EpochClass::of(iv, t).span_name(), root, tr.run, a, b);
        }
    }
    run.arbitration_ns += runner.arbitration_nanos();
    run.parallel_ns += runner.parallel_nanos();
    run.steals += runner.steal_count();
    if let (Some(t), Some(root)) = (trace.as_mut(), root) {
        t.log.close(root);
    }
    run.outcome = Outcome::of(&mut runner)?;
    run.peak_rss_kib = peak_rss_kib();
    Ok(run)
}

/// `VmHWM` of this process from `/proc/self/status`, in KiB (0 where
/// the kernel does not report it).
fn peak_rss_kib() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse().ok()
        })
        .unwrap_or(0)
}

/// snapshot → save → load → resume; returns the timings and the
/// resumed runner.
fn roundtrip(
    cfg: &ExperimentConfig,
    runner: &mut Runner,
    path: &Path,
    mut trace: Option<&mut Trace<'_>>,
    root: Option<SpanId>,
) -> Result<(Roundtrip, Runner), String> {
    let parent = trace
        .as_mut()
        .map(|t| t.log.open("ckpt.roundtrip", root, t.run));
    let a = Instant::now();
    let snap = runner.snapshot();
    let b = Instant::now();
    snap.save(path)
        .map_err(|e| format!("RunnerSnapshot::save: {e}"))?;
    let c = Instant::now();
    let loaded = RunnerSnapshot::load(path).map_err(|e| format!("RunnerSnapshot::load: {e}"))?;
    let d = Instant::now();
    let resumed = Runner::resume(cfg, &loaded).map_err(|e| format!("Runner::resume: {e}"))?;
    let e = Instant::now();
    let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
    if let Some(t) = trace {
        t.log.record("ckpt.snapshot", parent, t.run, a, b);
        t.log.record("ckpt.save", parent, t.run, b, c);
        t.log.record("ckpt.load", parent, t.run, c, d);
        t.log.record("ckpt.resume", parent, t.run, d, e);
        if let Some(p) = parent {
            t.log.close(p);
        }
    }
    let ns = |x: Instant, y: Instant| (y - x).as_nanos() as u64;
    Ok((
        Roundtrip {
            snapshot_ns: ns(a, b),
            save_ns: ns(b, c),
            load_ns: ns(c, d),
            resume_ns: ns(d, e),
            bytes,
        },
        resumed,
    ))
}

/// The correctness reference: the same workload and seed straight to the
/// horizon, no checkpoints, at the other thread count. `observe` sees
/// the runner after every tick (untimed).
pub struct Reference {
    pub outcome: Outcome,
    pub threads: usize,
    /// Total host time of the tick calls.
    pub loop_ns: u64,
    /// `Runner::parallel_nanos` and `steal_count` at the end of the run.
    pub parallel_ns: u64,
    pub steals: u64,
}

pub fn reference_run(
    w: Workload,
    seed: u64,
    observe: &mut dyn FnMut(&ExperimentConfig, &Runner),
) -> Result<Reference, String> {
    let threads = w.reference_threads();
    let cfg = w.scenario(seed, threads).build();
    let mut runner = Runner::try_new(&cfg).map_err(|e| format!("Runner::try_new: {e}"))?;
    let mut loop_ns = 0u64;
    for _ in 0..cfg.horizon {
        let a = Instant::now();
        runner.tick();
        loop_ns += a.elapsed().as_nanos() as u64;
        observe(&cfg, &runner);
    }
    Ok(Reference {
        parallel_ns: runner.parallel_nanos(),
        steals: runner.steal_count(),
        outcome: Outcome::of(&mut runner)?,
        threads,
        loop_ns,
    })
}
