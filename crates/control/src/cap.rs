//! The optional electrical power capper (CAP) — paper §3.1/§6: a capper
//! *"faster than the efficiency loop"* implemented *"in parallel to the
//! nested controller directly adjusting P-states"*.
//!
//! Electrical budgets (fuse ratings) admit **no** transient violations, so
//! this is not a feedback loop at all: it is a feed-forward clamp that
//! bounds the shallowest P-state the EC's output may reach, derived from
//! the power model's worst case at each state.

use nps_models::{PState, ServerModel};
use serde::{Deserialize, Serialize};

/// A hard per-server electrical power cap.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ElectricalCapper {
    budget_watts: f64,
    /// The shallowest state index guaranteed to stay under budget at any
    /// utilization, or `None` if even the deepest state can violate.
    min_index: Option<usize>,
}

impl ElectricalCapper {
    /// Creates a capper for servers of type `model` with the given fuse
    /// budget.
    pub fn new(model: &ServerModel, budget_watts: f64) -> Self {
        Self {
            budget_watts,
            min_index: model
                .pstate_for_power_budget(budget_watts)
                .map(PState::index),
        }
    }

    /// The electrical budget, watts.
    pub fn budget_watts(&self) -> f64 {
        self.budget_watts
    }

    /// Whether the budget is satisfiable at all (some P-state's maximum
    /// power fits under it).
    pub fn is_satisfiable(&self) -> bool {
        self.min_index.is_some()
    }

    /// Clamps a desired P-state so the electrical budget cannot be
    /// exceeded: states shallower than the safe bound are deepened to it.
    /// If no state is safe, returns the desired state unchanged (the
    /// budget is unsatisfiable with P-states alone; the deployment must
    /// shed load instead).
    #[inline]
    pub fn clamp(&self, desired: PState) -> PState {
        match self.min_index {
            Some(min) => PState(desired.index().max(min)),
            None => desired,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_deepens_unsafe_states() {
        let model = ServerModel::blade_a(); // max powers 120, 108, 98, 86, 78
        let cap = ElectricalCapper::new(&model, 100.0); // safe from P2 down
        assert_eq!(cap.clamp(PState(0)), PState(2));
        assert_eq!(cap.clamp(PState(1)), PState(2));
        assert_eq!(cap.clamp(PState(2)), PState(2));
        assert_eq!(cap.clamp(PState(4)), PState(4));
    }

    #[test]
    fn generous_budget_never_clamps() {
        let model = ServerModel::blade_a();
        let cap = ElectricalCapper::new(&model, 500.0);
        for p in 0..model.num_pstates() {
            assert_eq!(cap.clamp(PState(p)), PState(p));
        }
    }

    #[test]
    fn clamped_states_always_respect_budget() {
        let model = ServerModel::server_b();
        for budget in [200.0, 230.0, 260.0, 300.0] {
            let cap = ElectricalCapper::new(&model, budget);
            if !cap.is_satisfiable() {
                continue;
            }
            for p in 0..model.num_pstates() {
                let clamped = cap.clamp(PState(p));
                assert!(
                    model.power(clamped.index(), 1.0) <= budget + 1e-9,
                    "budget {budget}: {clamped} worst case exceeds it"
                );
            }
        }
    }

    #[test]
    fn unsatisfiable_budget_is_flagged() {
        let model = ServerModel::blade_a();
        let cap = ElectricalCapper::new(&model, 10.0);
        assert!(!cap.is_satisfiable());
        assert_eq!(cap.clamp(PState(1)), PState(1));
    }
}
