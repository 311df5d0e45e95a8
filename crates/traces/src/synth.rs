//! Synthetic workload-trace generator.
//!
//! Generates per-tick CPU-utilization traces with the structure observed in
//! real enterprise deployments (and in the paper's trace corpus): diurnal
//! cycles, weekly modulation, autocorrelated noise, and bursts, with
//! class-specific shapes (a remote-desktop farm follows office hours; a
//! batch cluster runs at night; web front-ends are bursty).

use std::sync::Arc;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::trace::UtilTrace;

/// Workload classes named in the paper (§4.3): "database servers, web
/// servers, e-commerce, remote desktop infrastructures, etc.", extended to
/// nine classes so each of the nine enterprise sites can lead with a
/// different one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum WorkloadClass {
    /// Web front-end: strong diurnal swing, bursty.
    WebServer,
    /// Database tier: steadier, higher base load.
    Database,
    /// E-commerce multi-tier: diurnal with promotional bursts.
    ECommerce,
    /// Remote desktop infrastructure: office-hours shaped, weekly dips.
    RemoteDesktop,
    /// Batch/compute: night-shifted, long high-load phases.
    Batch,
    /// Mail server: morning/evening peaks, low base.
    MailServer,
    /// File server: low, weakly diurnal.
    FileServer,
    /// Virtual desktop infrastructure: sharp office-hours profile.
    Vdi,
    /// Analytics/warehouse: high base, long scans.
    Analytics,
}

impl WorkloadClass {
    /// All nine classes.
    pub const ALL: [WorkloadClass; 9] = [
        WorkloadClass::WebServer,
        WorkloadClass::Database,
        WorkloadClass::ECommerce,
        WorkloadClass::RemoteDesktop,
        WorkloadClass::Batch,
        WorkloadClass::MailServer,
        WorkloadClass::FileServer,
        WorkloadClass::Vdi,
        WorkloadClass::Analytics,
    ];

    /// The default generator parameters for this class. Mean utilizations
    /// sit in the paper's observed 15–50% band.
    pub fn spec(self) -> TraceSpec {
        use std::f64::consts::PI;
        let base = TraceSpec {
            class: self,
            mean_util: 0.20,
            diurnal_amplitude: 0.5,
            diurnal_period: 2_000,
            phase: 0.0,
            weekly_amplitude: 0.1,
            noise_sigma: 0.04,
            noise_rho: 0.9,
            burst_prob: 0.002,
            burst_magnitude: 0.25,
            burst_len: 30,
        };
        match self {
            WorkloadClass::WebServer => TraceSpec {
                mean_util: 0.20,
                diurnal_amplitude: 0.6,
                burst_prob: 0.004,
                burst_magnitude: 0.3,
                ..base
            },
            WorkloadClass::Database => TraceSpec {
                mean_util: 0.27,
                diurnal_amplitude: 0.35,
                noise_sigma: 0.05,
                ..base
            },
            WorkloadClass::ECommerce => TraceSpec {
                mean_util: 0.23,
                diurnal_amplitude: 0.7,
                burst_prob: 0.003,
                burst_magnitude: 0.35,
                burst_len: 50,
                ..base
            },
            WorkloadClass::RemoteDesktop => TraceSpec {
                mean_util: 0.17,
                diurnal_amplitude: 0.8,
                weekly_amplitude: 0.3,
                noise_sigma: 0.05,
                ..base
            },
            WorkloadClass::Batch => TraceSpec {
                mean_util: 0.30,
                diurnal_amplitude: 0.5,
                phase: PI, // night-shifted
                burst_prob: 0.0008,
                burst_magnitude: 0.4,
                burst_len: 120,
                ..base
            },
            WorkloadClass::MailServer => TraceSpec {
                mean_util: 0.13,
                diurnal_amplitude: 0.5,
                ..base
            },
            WorkloadClass::FileServer => TraceSpec {
                mean_util: 0.10,
                diurnal_amplitude: 0.3,
                noise_sigma: 0.03,
                ..base
            },
            WorkloadClass::Vdi => TraceSpec {
                mean_util: 0.18,
                diurnal_amplitude: 0.85,
                weekly_amplitude: 0.4,
                ..base
            },
            WorkloadClass::Analytics => TraceSpec {
                mean_util: 0.34,
                diurnal_amplitude: 0.25,
                burst_prob: 0.0005,
                burst_magnitude: 0.3,
                burst_len: 200,
                ..base
            },
        }
    }
}

/// Parameters of the synthetic trace generator.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TraceSpec {
    /// Workload class the spec was derived from.
    pub class: WorkloadClass,
    /// Target mean utilization in `[0, 1]`.
    pub mean_util: f64,
    /// Diurnal swing as a fraction of the mean (0 = flat).
    pub diurnal_amplitude: f64,
    /// Length of one "day" in ticks.
    pub diurnal_period: usize,
    /// Phase offset of the diurnal cycle in radians.
    pub phase: f64,
    /// Weekly modulation as a fraction of the mean.
    pub weekly_amplitude: f64,
    /// Standard deviation of the AR(1) noise process.
    pub noise_sigma: f64,
    /// AR(1) autocorrelation coefficient in `[0, 1)`.
    pub noise_rho: f64,
    /// Per-tick probability of starting a burst.
    pub burst_prob: f64,
    /// Additive utilization during a burst.
    pub burst_magnitude: f64,
    /// Burst duration in ticks.
    pub burst_len: usize,
}

impl TraceSpec {
    /// Returns this spec with a different target mean utilization.
    pub fn with_mean(mut self, mean_util: f64) -> Self {
        self.mean_util = mean_util;
        self
    }

    /// Returns this spec with a different diurnal phase (radians).
    pub fn with_phase(mut self, phase: f64) -> Self {
        self.phase = phase;
        self
    }

    /// Returns this spec with a different diurnal period (ticks).
    pub fn with_period(mut self, ticks: usize) -> Self {
        self.diurnal_period = ticks.max(2);
        self
    }
}

/// The per-tick angles shared by every trace of one diurnal period:
/// `day_angle[t] = TAU·t/period` (the trace's own phase is added per
/// sample) and `week_sin[t] = sin(TAU·t/(7·period))`. A corpus builds it
/// once for all its traces instead of recomputing both per trace; the
/// values are the very same expressions, so samples stay bit-identical.
pub(crate) struct Calendar {
    period: usize,
    day_angle: Vec<f64>,
    week_sin: Vec<f64>,
}

impl Calendar {
    /// The calendar of `len` ticks (at least one) for `period`-tick days.
    pub(crate) fn new(period: usize, len: usize) -> Self {
        use std::f64::consts::TAU;
        let len = len.max(1);
        Self {
            period,
            day_angle: (0..len).map(|t| TAU * t as f64 / period as f64).collect(),
            week_sin: (0..len)
                .map(|t| (TAU * t as f64 / (7.0 * period as f64)).sin())
                .collect(),
        }
    }

    /// The diurnal period this calendar was built for.
    pub(crate) fn period(&self) -> usize {
        self.period
    }

    /// The number of ticks tabulated, which is every trace's length.
    pub(crate) fn len(&self) -> usize {
        self.day_angle.len()
    }
}

/// Generates a `len`-tick utilization trace from `spec`, using `rng` for
/// the stochastic components. Deterministic for a given RNG state.
pub fn generate<R: Rng>(
    name: impl Into<String>,
    spec: &TraceSpec,
    len: usize,
    rng: &mut R,
) -> UtilTrace {
    let calendar = Calendar::new(spec.diurnal_period, len);
    let mut samples = zeroed(calendar.len());
    fill_on(&mut samples, spec, &calendar, rng);
    UtilTrace::new(name, samples).expect("generator clamps samples into [0, 1]")
}

/// A zero-filled sample buffer of `len` ticks, allocated once at its
/// final size (an exact-size iterator collects straight into the `Arc`).
pub(crate) fn zeroed(len: usize) -> Arc<[f64]> {
    (0..len).map(|_| 0.0).collect()
}

/// Writes the samples of `spec` over a prebuilt `calendar` (whose period
/// must be the spec's) into `samples`, a buffer of the calendar's length
/// that nothing else references yet. Allocates nothing.
pub(crate) fn fill_on<R: Rng>(
    samples: &mut Arc<[f64]>,
    spec: &TraceSpec,
    calendar: &Calendar,
    rng: &mut R,
) {
    debug_assert_eq!(calendar.period, spec.diurnal_period);
    let samples = Arc::get_mut(samples).expect("sample buffer is not shared yet");
    debug_assert_eq!(samples.len(), calendar.len());
    let mut ar = 0.0_f64;
    let mut burst_left = 0usize;
    // Pre-scale AR(1) innovation so the process has stationary std
    // `noise_sigma`.
    let innov = spec.noise_sigma * (1.0 - spec.noise_rho * spec.noise_rho).sqrt();
    for ((out, &angle), &week_sin) in samples
        .iter_mut()
        .zip(&calendar.day_angle)
        .zip(&calendar.week_sin)
    {
        let day = angle + spec.phase;
        let mut u = spec.mean_util
            * (1.0 + spec.diurnal_amplitude * day.sin())
            * (1.0 + spec.weekly_amplitude * week_sin);
        ar = spec.noise_rho * ar + innov * gaussian(rng);
        u += ar;
        if burst_left > 0 {
            burst_left -= 1;
            u += spec.burst_magnitude;
        } else if rng.gen::<f64>() < spec.burst_prob {
            burst_left = spec.burst_len;
            u += spec.burst_magnitude;
        }
        *out = u.clamp(0.0, 1.0);
    }
}

/// Standard normal deviate via Box–Muller (avoids a `rand_distr`
/// dependency).
fn gaussian<R: Rng>(rng: &mut R) -> f64 {
    use std::f64::consts::TAU;
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generate_is_deterministic_per_seed() {
        let spec = WorkloadClass::WebServer.spec();
        let a = generate("a", &spec, 500, &mut StdRng::seed_from_u64(7));
        let b = generate("b", &spec, 500, &mut StdRng::seed_from_u64(7));
        assert_eq!(a.samples(), b.samples());
        let c = generate("c", &spec, 500, &mut StdRng::seed_from_u64(8));
        assert_ne!(a.samples(), c.samples());
    }

    #[test]
    fn generated_mean_tracks_spec_mean() {
        for class in WorkloadClass::ALL {
            let spec = class.spec();
            let t = generate("t", &spec, 8_000, &mut StdRng::seed_from_u64(1));
            let mean = t.mean();
            // Bursts push the mean slightly above spec; clamping pulls it
            // down. Allow a generous band.
            assert!(
                (mean - spec.mean_util).abs() < 0.12,
                "{class:?}: mean {mean} vs spec {}",
                spec.mean_util
            );
        }
    }

    #[test]
    fn diurnal_classes_show_periodic_structure() {
        let spec = WorkloadClass::Vdi.spec().with_period(400);
        let t = generate("t", &spec, 4_000, &mut StdRng::seed_from_u64(3));
        // Compare mean in "day" half-period vs "night" half-period.
        let day: f64 = (0..200).map(|i| t.demand_at(i)).sum::<f64>() / 200.0;
        let night: f64 = (200..400).map(|i| t.demand_at(i)).sum::<f64>() / 200.0;
        assert!(day > night, "day {day} should exceed night {night}");
    }

    #[test]
    fn batch_is_night_shifted() {
        let period = 400;
        let spec = WorkloadClass::Batch.spec().with_period(period);
        let t = generate("t", &spec, 4_000, &mut StdRng::seed_from_u64(3));
        let first_half: f64 = (0..200).map(|i| t.demand_at(i)).sum::<f64>() / 200.0;
        let second_half: f64 = (200..400).map(|i| t.demand_at(i)).sum::<f64>() / 200.0;
        assert!(second_half > first_half);
    }

    #[test]
    fn all_samples_in_unit_interval() {
        for class in WorkloadClass::ALL {
            let t = generate("t", &class.spec(), 2_000, &mut StdRng::seed_from_u64(9));
            assert!(t.samples().iter().all(|&s| (0.0..=1.0).contains(&s)));
        }
    }

    #[test]
    fn bursty_classes_have_heavier_tails() {
        let web = generate(
            "web",
            &WorkloadClass::WebServer.spec(),
            8_000,
            &mut StdRng::seed_from_u64(5),
        );
        let file = generate(
            "file",
            &WorkloadClass::FileServer.spec(),
            8_000,
            &mut StdRng::seed_from_u64(5),
        );
        let web_stats = web.stats();
        let file_stats = file.stats();
        assert!(web_stats.p95 - web_stats.mean > file_stats.p95 - file_stats.mean);
    }
}
