//! Lumped RC thermal model per server.
//!
//! The paper's thermal power budgets rest on the observation that
//! *"thermal failover happens only when the power budget is violated long
//! enough to create enough heat to increase the temperature beyond normal
//! operational ranges"* (§2.1), and §5.1 reports a lab prototype where an
//! uncoordinated EC+SM deployment *"over sustained high loads ... went
//! into thermal failover"*. We reproduce that mechanism with a first-order
//! RC integrator:
//!
//! ```text
//! T(k+1) = T(k) + (pow − k_diss·(T(k) − T_amb)) / heat_capacity
//! ```
//!
//! so the steady-state temperature is `T_amb + pow / k_diss`, and
//! transient budget violations are safe while sustained ones are not.

use serde::{Deserialize, Serialize};

/// Parameters of the per-server RC thermal model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ThermalConfig {
    /// Ambient (inlet) temperature, °C.
    pub ambient_c: f64,
    /// Critical temperature at which the server fails over, °C.
    pub critical_c: f64,
    /// Heat dissipation coefficient, W/°C.
    pub dissipation_w_per_c: f64,
    /// Thermal capacitance, J/°C (per tick): larger means slower heating,
    /// i.e. longer transient violations are tolerated.
    pub heat_capacity: f64,
}

impl ThermalConfig {
    /// Builds a config sized for a server with the given maximum power and
    /// thermal power cap: the steady-state temperature sits *below*
    /// `critical_c` while power stays at or under `cap_watts`, and *above*
    /// it at sustained max power. This is exactly the regime in which a
    /// thermal power capper is meaningful.
    pub fn for_budget(max_power_watts: f64, cap_watts: f64) -> Self {
        let ambient_c = 25.0;
        let critical_c = 70.0;
        // Dissipation tuned so the critical temperature corresponds to the
        // midpoint between the cap and max power.
        let mid = 0.5 * (max_power_watts + cap_watts);
        let dissipation_w_per_c = mid / (critical_c - ambient_c);
        Self {
            ambient_c,
            critical_c,
            dissipation_w_per_c,
            // Time constant ≈ heat_capacity / dissipation ≈ 60 ticks.
            heat_capacity: dissipation_w_per_c * 60.0,
        }
    }

    /// Steady-state temperature at a constant power draw.
    pub fn equilibrium_c(&self, watts: f64) -> f64 {
        self.ambient_c + watts / self.dissipation_w_per_c
    }
}

/// Evolving thermal state for a fleet of servers.
#[derive(Debug, PartialEq, Serialize, Deserialize)]
pub struct ThermalState {
    config: ThermalConfig,
    temps_c: Vec<f64>,
    failed: Vec<bool>,
    failover_events: usize,
}

clone_in_place!(ThermalState {
    config,
    temps_c,
    failed,
    failover_events,
});

impl ThermalState {
    /// Starts all `n` servers at ambient temperature.
    pub fn new(config: ThermalConfig, n: usize) -> Self {
        Self {
            config,
            temps_c: vec![config.ambient_c; n],
            failed: vec![false; n],
            failover_events: 0,
        }
    }

    /// Lengths of the per-server temperature and failure arrays (a
    /// checkpoint shape check).
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.temps_c.len(), self.failed.len())
    }

    /// The model parameters.
    pub fn config(&self) -> &ThermalConfig {
        &self.config
    }

    /// Advances one tick given each server's power draw. A server that
    /// fails over stays failed until [`ThermalState::reset_server`].
    pub fn step(&mut self, power_watts: &[f64]) {
        for (i, &p) in power_watts.iter().enumerate().take(self.temps_c.len()) {
            let t = self.temps_c[i];
            let dt = (p - self.config.dissipation_w_per_c * (t - self.config.ambient_c))
                / self.config.heat_capacity;
            self.temps_c[i] = (t + dt).max(self.config.ambient_c);
            if !self.failed[i] && self.temps_c[i] >= self.config.critical_c {
                self.failed[i] = true;
                self.failover_events += 1;
            }
        }
    }

    /// Current temperature of server `i`, °C.
    pub fn temperature_c(&self, i: usize) -> f64 {
        self.temps_c[i]
    }

    /// Whether server `i` has tripped thermal failover.
    #[inline]
    pub fn is_failed(&self, i: usize) -> bool {
        self.failed[i]
    }

    /// Total failover events since construction.
    pub fn failover_events(&self) -> usize {
        self.failover_events
    }

    /// Clears the failure latch and temperature of server `i`
    /// (maintenance restart).
    pub fn reset_server(&mut self, i: usize) {
        self.failed[i] = false;
        self.temps_c[i] = self.config.ambient_c;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ThermalConfig {
        ThermalConfig::for_budget(120.0, 108.0)
    }

    #[test]
    fn budget_sizing_brackets_critical_temperature() {
        let c = cfg();
        assert!(c.equilibrium_c(108.0) < c.critical_c);
        assert!(c.equilibrium_c(120.0) > c.critical_c);
    }

    #[test]
    fn sustained_overload_trips_failover() {
        let c = cfg();
        let mut s = ThermalState::new(c, 1);
        for _ in 0..2_000 {
            s.step(&[120.0]);
        }
        assert!(s.is_failed(0));
        assert_eq!(s.failover_events(), 1);
    }

    #[test]
    fn capped_power_never_trips() {
        let c = cfg();
        let mut s = ThermalState::new(c, 1);
        for _ in 0..10_000 {
            s.step(&[108.0]);
        }
        assert!(!s.is_failed(0));
        assert!(s.temperature_c(0) < c.critical_c);
    }

    #[test]
    fn transient_violations_are_safe() {
        // Alternate 50 ticks over budget, 200 under: bounded transients
        // must not trip — the leeway the paper's SM exploits.
        let c = cfg();
        let mut s = ThermalState::new(c, 1);
        for cycle in 0..40 {
            let _ = cycle;
            for _ in 0..50 {
                s.step(&[120.0]);
            }
            for _ in 0..200 {
                s.step(&[80.0]);
            }
        }
        assert!(!s.is_failed(0), "temp reached {}", s.temperature_c(0));
    }

    #[test]
    fn temperature_approaches_equilibrium() {
        let c = cfg();
        let mut s = ThermalState::new(c, 1);
        for _ in 0..5_000 {
            s.step(&[90.0]);
        }
        assert!((s.temperature_c(0) - c.equilibrium_c(90.0)).abs() < 0.5);
    }

    #[test]
    fn idle_server_cools_to_ambient_floor() {
        let c = cfg();
        let mut s = ThermalState::new(c, 1);
        for _ in 0..200 {
            s.step(&[120.0]);
        }
        for _ in 0..10_000 {
            s.step(&[0.0]);
        }
        assert!(s.temperature_c(0) >= c.ambient_c);
        assert!(s.temperature_c(0) < c.ambient_c + 0.5);
    }

    #[test]
    fn reset_clears_failure() {
        let c = cfg();
        let mut s = ThermalState::new(c, 1);
        for _ in 0..5_000 {
            s.step(&[120.0]);
        }
        assert!(s.is_failed(0));
        s.reset_server(0);
        assert!(!s.is_failed(0));
        assert_eq!(s.temperature_c(0), c.ambient_c);
    }
}
