//! The benchmark's three workloads. Each one is generated from the
//! workload seed alone; the program only ever sees the resulting
//! `ExperimentConfig`.

use nps_core::{CoordinationMode, Intervals, Scenario, SystemKind};
use nps_sim::{BusConfig, ControllerLayer, FaultPlan, RetryConfig};
use nps_traces::Mix;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The paper's 180-server Blade A testbed, default intervals, one
    /// thread: the per-server hot path (engine step + EC/SM bank).
    Paper180,
    /// A 768-server multi-rack fleet with a VMC epoch every 50 ticks on
    /// two threads: VMC plan/apply, worker pool and tree reductions.
    Fleet768Vmc,
    /// Server B 60HH under a fixed fault plan, a faulty bus, warm
    /// standbys, an electrical cap and the invariant monitor, with
    /// checkpoint round trips at a fixed tick cadence.
    Chaos60Ckpt,
}

/// Interval set of the `scale` bin's VMC-heavy fleet.
const VMC_HEAVY: Intervals = Intervals {
    ec: 1,
    sm: 5,
    em: 10,
    gm: 25,
    vmc: 50,
};

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Paper180,
        Workload::Fleet768Vmc,
        Workload::Chaos60Ckpt,
    ];

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Paper180 => "paper180",
            Workload::Fleet768Vmc => "fleet768_vmc",
            Workload::Chaos60Ckpt => "chaos60_ckpt",
        }
    }

    /// Worker threads of the timed runs.
    pub fn threads(self) -> usize {
        match self {
            Workload::Fleet768Vmc => 2,
            Workload::Paper180 | Workload::Chaos60Ckpt => 1,
        }
    }

    /// Thread count of the correctness reference run (1 ↔ 2).
    pub fn reference_threads(self) -> usize {
        3 - self.threads()
    }

    /// Ticks simulated by one run.
    pub fn horizon(self) -> u64 {
        match self {
            Workload::Paper180 => 10_000,
            Workload::Fleet768Vmc => 2_000,
            Workload::Chaos60Ckpt => 10_000,
        }
    }

    /// Ticks between checkpoint round trips. The round trip happens
    /// before the tick at each multiple, outside the timed tick. Every
    /// run resumes at least once mid-run (the correctness check);
    /// `fleet768_vmc` stops there, as its load has no checkpoints.
    pub fn checkpoint_every(self) -> u64 {
        match self {
            Workload::Paper180 => 2_500,
            Workload::Fleet768Vmc => self.horizon() / 2,
            Workload::Chaos60Ckpt => 1_000,
        }
    }

    pub fn intervals(self) -> Intervals {
        match self {
            Workload::Fleet768Vmc => VMC_HEAVY,
            Workload::Paper180 | Workload::Chaos60Ckpt => Intervals::default(),
        }
    }

    /// The unbuilt scenario for `seed` at `threads` worker threads.
    pub fn scenario(self, seed: u64, threads: usize) -> Scenario {
        let h = self.horizon();
        let base = match self {
            Workload::Paper180 => Scenario::paper(
                SystemKind::BladeA,
                Mix::All180,
                CoordinationMode::Coordinated,
            ),
            Workload::Fleet768Vmc => Scenario::multi_rack(
                SystemKind::BladeA,
                CoordinationMode::Coordinated,
                16,
                2,
                16,
                256,
            ),
            Workload::Chaos60Ckpt => Scenario::paper(
                SystemKind::ServerB,
                Mix::Hh60,
                CoordinationMode::Coordinated,
            )
            .faults(chaos_plan(seed, h))
            .bus(chaos_bus(seed))
            .standbys()
            .electrical_cap(0.9)
            .invariants(true),
        };
        base.intervals(self.intervals())
            .horizon(h)
            .seed(seed)
            .threads(threads)
    }
}

/// The fixed fault plan of `chaos60_ckpt`: every sensor, actuator and
/// message fault family at a fixed rate, one whole-layer GM outage and
/// one EM-instance outage. Only the fault stream's seed varies.
fn chaos_plan(seed: u64, h: u64) -> FaultPlan {
    FaultPlan::disabled()
        .with_seed(seed ^ 0x6661_756c_7473)
        .with_sensor_noise(0.05)
        .with_stuck_sensors(0.01, 20)
        .with_dropped_samples(0.05)
        .with_stuck_actuators(0.01, 20)
        .with_message_loss(0.10)
        .with_outage(ControllerLayer::Gm, None, 3 * h / 10, 3 * h / 10 + 600)
        .with_outage(ControllerLayer::Em, Some(0), 6 * h / 10, 6 * h / 10 + 400)
}

/// The fixed faulty bus of `chaos60_ckpt`: delay with jitter, drop,
/// duplication, reordering, leases and retries.
fn chaos_bus(seed: u64) -> BusConfig {
    BusConfig::default()
        .with_seed(seed ^ 0x0062_7573)
        .with_delay(1, 1)
        .with_drop(0.05)
        .with_duplication(0.03)
        .with_reordering(0.05, 2)
        .with_leases(150)
        .with_retry(RetryConfig {
            max_attempts: 3,
            backoff_base_ticks: 1,
            backoff_max_ticks: 16,
            jitter_ticks: 1,
        })
}

/// Which controllers fire on the tick run when `t` ticks are done: the
/// class is the longest-period controller whose epoch lands on `t`
/// (the runner acts on every tick but the first).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochClass {
    Base,
    Sm,
    Em,
    Gm,
    Vmc,
}

impl EpochClass {
    pub const ALL: [EpochClass; 5] = [
        EpochClass::Base,
        EpochClass::Sm,
        EpochClass::Em,
        EpochClass::Gm,
        EpochClass::Vmc,
    ];

    pub fn of(iv: Intervals, t: u64) -> Self {
        let iv = iv.sanitized();
        if t == 0 {
            EpochClass::Base
        } else if t.is_multiple_of(iv.vmc) {
            EpochClass::Vmc
        } else if t.is_multiple_of(iv.gm) {
            EpochClass::Gm
        } else if t.is_multiple_of(iv.em) {
            EpochClass::Em
        } else if t.is_multiple_of(iv.sm) {
            EpochClass::Sm
        } else {
            EpochClass::Base
        }
    }

    pub fn label(self) -> &'static str {
        match self {
            EpochClass::Base => "base",
            EpochClass::Sm => "sm",
            EpochClass::Em => "em",
            EpochClass::Gm => "gm",
            EpochClass::Vmc => "vmc",
        }
    }

    /// Span name of a tick of this class.
    pub fn span_name(self) -> &'static str {
        match self {
            EpochClass::Base => "runner.tick.base",
            EpochClass::Sm => "runner.tick.sm",
            EpochClass::Em => "runner.tick.em",
            EpochClass::Gm => "runner.tick.gm",
            EpochClass::Vmc => "runner.tick.vmc",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn epoch_class_picks_longest_period() {
        let iv = Intervals::default();
        assert_eq!(EpochClass::of(iv, 0), EpochClass::Base);
        assert_eq!(EpochClass::of(iv, 1), EpochClass::Base);
        assert_eq!(EpochClass::of(iv, 5), EpochClass::Sm);
        assert_eq!(EpochClass::of(iv, 25), EpochClass::Em);
        assert_eq!(EpochClass::of(iv, 50), EpochClass::Gm);
        assert_eq!(EpochClass::of(iv, 500), EpochClass::Vmc);
    }
}
