use serde::{Deserialize, Serialize};

/// A linear power model for one P-state: `pow = slope · r + idle` watts,
/// where `r` is CPU utilization in `[0, 1]`.
///
/// This is the paper's Figure 6 `(Models)` equation `pow = c_p·r + d_p`,
/// with `slope = c_p` (dynamic power swing) and `idle = d_p` (idle power).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearPower {
    /// Dynamic power swing `c_p` in watts per unit utilization.
    pub slope: f64,
    /// Idle power `d_p` in watts (power drawn at zero utilization).
    pub idle: f64,
}

impl LinearPower {
    /// Creates a new linear power model.
    pub const fn new(slope: f64, idle: f64) -> Self {
        Self { slope, idle }
    }

    /// Power in watts at utilization `r`, clamped to `[0, 1]`.
    ///
    /// Clamping mirrors the physical system: a CPU cannot be less than 0%
    /// or more than 100% busy, whatever a noisy sensor reports. A NaN
    /// reading is treated as an idle CPU.
    pub fn power(&self, utilization: f64) -> f64 {
        let r = clamp_utilization(utilization);
        self.slope * r + self.idle
    }

    /// Power at 100% utilization (`slope + idle`).
    pub fn max_power(&self) -> f64 {
        self.slope + self.idle
    }

    /// Inverts the model: the utilization at which this P-state draws
    /// `watts`. Returns `None` if `watts` lies outside `[idle, max_power]`
    /// or the model has no dynamic range.
    pub fn utilization_for_power(&self, watts: f64) -> Option<f64> {
        if self.slope <= 0.0 {
            return None;
        }
        let r = (watts - self.idle) / self.slope;
        if (0.0..=1.0).contains(&r) {
            Some(r)
        } else {
            None
        }
    }
}

/// A linear performance model for one P-state: `perf = scale · r`,
/// where `r` is utilization and `perf` is work done relative to the
/// server's maximum capacity (P0 at 100% utilization = 1.0).
///
/// This is the paper's `perf = a_p·r` with `scale = a_p
/// = f_p / f_0` for frequency-proportional work.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinearPerf {
    /// Work completed at 100% utilization, relative to max capacity.
    pub scale: f64,
}

impl LinearPerf {
    /// Creates a new linear performance model.
    pub const fn new(scale: f64) -> Self {
        Self { scale }
    }

    /// Work done at utilization `r` (clamped to `[0, 1]`), as a fraction of
    /// the server's maximum capacity.
    pub fn perf(&self, utilization: f64) -> f64 {
        self.scale * clamp_utilization(utilization)
    }
}

/// Clamps a utilization reading into `[0, 1]`, mapping NaN to 0.
#[inline]
pub(crate) fn clamp_utilization(utilization: f64) -> f64 {
    if utilization.is_nan() {
        0.0
    } else {
        utilization.clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_is_affine_in_utilization() {
        let m = LinearPower::new(45.0, 75.0);
        assert_eq!(m.power(0.0), 75.0);
        assert_eq!(m.power(1.0), 120.0);
        assert!((m.power(0.5) - 97.5).abs() < 1e-12);
    }

    #[test]
    fn power_clamps_out_of_range_utilization() {
        let m = LinearPower::new(45.0, 75.0);
        assert_eq!(m.power(-0.3), m.power(0.0));
        assert_eq!(m.power(1.7), m.power(1.0));
        assert!(!m.power(f64::NAN).is_nan());
    }

    #[test]
    fn max_power_matches_full_utilization() {
        let m = LinearPower::new(30.0, 155.0);
        assert_eq!(m.max_power(), m.power(1.0));
    }

    #[test]
    fn utilization_for_power_inverts_power() {
        let m = LinearPower::new(45.0, 75.0);
        for r in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let w = m.power(r);
            let back = m.utilization_for_power(w).unwrap();
            assert!((back - r).abs() < 1e-12);
        }
    }

    #[test]
    fn utilization_for_power_rejects_out_of_range() {
        let m = LinearPower::new(45.0, 75.0);
        assert_eq!(m.utilization_for_power(50.0), None); // below idle
        assert_eq!(m.utilization_for_power(500.0), None); // above max
    }

    #[test]
    fn utilization_for_power_rejects_flat_model() {
        let m = LinearPower::new(0.0, 75.0);
        assert_eq!(m.utilization_for_power(75.0), None);
    }

    #[test]
    fn perf_scales_with_utilization() {
        let m = LinearPerf::new(0.533);
        assert_eq!(m.perf(0.0), 0.0);
        assert!((m.perf(1.0) - 0.533).abs() < 1e-12);
        assert!((m.perf(0.5) - 0.2665).abs() < 1e-12);
    }

    #[test]
    fn perf_clamps_utilization() {
        let m = LinearPerf::new(1.0);
        assert_eq!(m.perf(2.0), 1.0);
        assert_eq!(m.perf(-1.0), 0.0);
    }

    #[test]
    fn serde_roundtrip() {
        let m = LinearPower::new(45.0, 75.0);
        let json = serde_json::to_string(&m).unwrap();
        let back: LinearPower = serde_json::from_str(&json).unwrap();
        assert_eq!(m, back);
    }
}
