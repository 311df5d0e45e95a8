use serde::{Deserialize, Serialize};

use crate::power::{LinearPerf, LinearPower};

/// Identifier of a P-state within a [`crate::ServerModel`].
///
/// `PState(0)` is the highest-frequency (fastest, most power-hungry) state,
/// matching the ACPI convention the paper uses; larger indices are deeper
/// (slower) states.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PState(pub usize);

impl PState {
    /// The highest-performance state, `P0`.
    pub const P0: PState = PState(0);

    /// Returns the raw index of this state.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for PState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "P{}", self.0)
    }
}

/// The calibrated models for a single P-state of a server: its clock
/// frequency plus the linear power and performance curves measured at that
/// frequency (paper Figure 5).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PStateModel {
    /// Clock frequency in hertz.
    pub frequency_hz: f64,
    /// Linear power model `pow = c_p·r + d_p`.
    pub power: LinearPower,
    /// Linear performance model `perf = a_p·r`.
    pub perf: LinearPerf,
}

impl PStateModel {
    /// Creates a P-state model from frequency and coefficient values.
    ///
    /// `power_slope`/`power_idle` are `c_p`/`d_p` in watts; `perf_scale` is
    /// `a_p`, the work done at 100% utilization relative to P0 capacity.
    pub fn new(frequency_hz: f64, power_slope: f64, power_idle: f64, perf_scale: f64) -> Self {
        Self {
            frequency_hz,
            power: LinearPower::new(power_slope, power_idle),
            perf: LinearPerf::new(perf_scale),
        }
    }

    /// A frequency-proportional P-state: performance scale is derived as
    /// `frequency_hz / max_frequency_hz`.
    pub fn frequency_proportional(
        frequency_hz: f64,
        max_frequency_hz: f64,
        power_slope: f64,
        power_idle: f64,
    ) -> Self {
        Self::new(
            frequency_hz,
            power_slope,
            power_idle,
            frequency_hz / max_frequency_hz,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pstate_display_matches_acpi_convention() {
        assert_eq!(PState(0).to_string(), "P0");
        assert_eq!(PState(4).to_string(), "P4");
    }

    #[test]
    fn pstate_ordering_is_by_index() {
        assert!(PState::P0 < PState(1));
        assert!(PState(3) < PState(4));
    }

    #[test]
    fn frequency_proportional_derives_perf_scale() {
        let s = PStateModel::frequency_proportional(533e6, 1e9, 20.0, 40.0);
        assert!((s.perf.scale - 0.533).abs() < 1e-12);
        assert_eq!(s.power.idle, 40.0);
    }

    #[test]
    fn serde_roundtrip() {
        let s = PStateModel::new(1e9, 45.0, 75.0, 1.0);
        let json = serde_json::to_string(&s).unwrap();
        let back: PStateModel = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }
}
