//! The enclosure manager (EM) and group manager (GM) — paper Figure 6
//! equations `(EM)` and `(GMs)`.
//!
//! Both levels run the same algorithm at different scopes and time
//! constants: each epoch, compare the level's measured power with its
//! budget and re-provision per-child budgets for the next epoch via a
//! [`BudgetPolicy`]. Children take `min(own static cap, granted share)`
//! — the paper's `<min>` coordination interface. A [`GroupCapper`] at the
//! group level can itself be granted a budget by a higher-level manager,
//! nesting arbitrarily.

use nps_sim::FloatWord;
use serde::{Deserialize, Serialize};

use crate::policy::BudgetPolicy;

/// Which level a [`GroupCapper`] operates at (affects only reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CapperLevel {
    /// Blade enclosure (the paper's EM).
    Enclosure,
    /// Rack / data center (the paper's GM).
    Group,
}

impl std::fmt::Display for CapperLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CapperLevel::Enclosure => f.write_str("EM"),
            CapperLevel::Group => f.write_str("GM"),
        }
    }
}

/// A multi-server power capper re-provisioning a level budget across its
/// children each epoch.
///
/// ```
/// use nps_control::{CapperLevel, GroupCapper, ProportionalShare};
///
/// let mut em = GroupCapper::new(CapperLevel::Enclosure, 300.0,
///                               Box::new(ProportionalShare));
/// // Two blades consumed 100 W and 50 W; the hotter blade gets the
/// // bigger share, capped by its static budget.
/// let caps = em.reallocate(&[100.0, 50.0], &[180.0, 180.0]);
/// assert!(caps[0] > caps[1]);
/// assert!(caps.iter().sum::<f64>() <= 300.0);
/// ```
#[derive(Debug)]
pub struct GroupCapper {
    level: CapperLevel,
    static_cap_watts: f64,
    granted_cap_watts: f64,
    /// First tick the granted budget stops being authorized
    /// (`u64::MAX` = no lease).
    lease_until: u64,
    policy: Box<dyn BudgetPolicy>,
}

impl GroupCapper {
    /// Creates a capper with a static budget and a division policy.
    pub fn new(level: CapperLevel, static_cap_watts: f64, policy: Box<dyn BudgetPolicy>) -> Self {
        Self {
            level,
            static_cap_watts,
            granted_cap_watts: f64::INFINITY,
            lease_until: u64::MAX,
            policy,
        }
    }

    /// The level this capper operates at.
    pub fn level(&self) -> CapperLevel {
        self.level
    }

    /// The static budget (`CAP_ENC` / `CAP_GRP`), watts.
    pub fn static_cap_watts(&self) -> f64 {
        self.static_cap_watts
    }

    /// Grants a dynamic budget from the parent level (the GM tuning an
    /// EM's budget). The effective budget is the `min` of both. The grant
    /// carries no lease (it holds until replaced).
    pub fn set_granted_cap(&mut self, watts: f64) {
        self.granted_cap_watts = watts.max(0.0);
        self.lease_until = u64::MAX;
    }

    /// Grants a *leased* dynamic budget, authorized until tick
    /// `lease_until`; once [`GroupCapper::expire_lease`] fires, the capper
    /// falls back to its static budget.
    pub fn set_granted_cap_leased(&mut self, watts: f64, lease_until: u64) {
        self.granted_cap_watts = watts.max(0.0);
        self.lease_until = lease_until;
    }

    /// First tick the grant stops being authorized (`u64::MAX` =
    /// unleased).
    pub fn lease_until(&self) -> u64 {
        self.lease_until
    }

    /// Expires a lapsed lease at `now`: the granted budget reverts to
    /// unlimited (so the static budget binds) and the lease clears.
    /// Returns whether an expiry happened.
    pub fn expire_lease(&mut self, now: u64) -> bool {
        if now < self.lease_until {
            return false;
        }
        self.granted_cap_watts = f64::INFINITY;
        self.lease_until = u64::MAX;
        true
    }

    /// The budget enforced this epoch: `min(static, granted)`.
    pub fn effective_cap_watts(&self) -> f64 {
        self.static_cap_watts.min(self.granted_cap_watts)
    }

    /// Whether `measured_watts` violates the static budget (the violation
    /// signal exposed to the VMC, paper Figure 4).
    pub fn violates_static(&self, measured_watts: f64) -> bool {
        measured_watts > self.static_cap_watts
    }

    /// One epoch: re-provisions the effective budget across children given
    /// their last-epoch consumptions and static caps. Replaces `out` with
    /// each child's budget for the next epoch (already `min`-ed with its
    /// static cap); a reused `out` makes the epoch allocation-free.
    pub fn reallocate_into(
        &mut self,
        consumption_watts: &[f64],
        child_static_caps_watts: &[f64],
        out: &mut Vec<f64>,
    ) {
        debug_assert_eq!(consumption_watts.len(), child_static_caps_watts.len());
        self.policy.divide_into(
            self.effective_cap_watts(),
            consumption_watts,
            child_static_caps_watts,
            out,
        );
    }

    /// [`GroupCapper::reallocate_into`] into a fresh vector.
    pub fn reallocate(
        &mut self,
        consumption_watts: &[f64],
        child_static_caps_watts: &[f64],
    ) -> Vec<f64> {
        let mut out = Vec::with_capacity(consumption_watts.len());
        self.reallocate_into(consumption_watts, child_static_caps_watts, &mut out);
        out
    }

    /// Name of the active division policy.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    // ----- checkpointing --------------------------------------------------

    /// Captures the capper's mutable state (grant, lease, policy state)
    /// for checkpointing.
    pub fn snapshot(&self) -> CapperSnapshot {
        CapperSnapshot {
            granted_cap: FloatWord(self.granted_cap_watts),
            lease_until: self.lease_until,
            policy_state: self.policy.export_state(),
        }
    }

    /// True if `snap`'s policy words have the shape this capper's policy
    /// exports ([`BudgetPolicy::state_fits`](crate::BudgetPolicy::state_fits)).
    /// [`GroupCapper::restore`] imports them as given, so a caller
    /// restoring untrusted state checks this first.
    pub fn fits(&self, snap: &CapperSnapshot) -> bool {
        self.policy.state_fits(&snap.policy_state)
    }

    /// Restores state captured by [`GroupCapper::snapshot`]. The capper
    /// must have been built with the same static budget and policy kind
    /// (see [`GroupCapper::fits`]).
    pub fn restore(&mut self, snap: &CapperSnapshot) {
        self.granted_cap_watts = snap.granted_cap.0;
        self.lease_until = snap.lease_until;
        self.policy.import_state(&snap.policy_state);
    }
}

/// A [`GroupCapper`]'s mutable state (checkpoint section).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CapperSnapshot {
    /// Granted budget (possibly infinite).
    pub granted_cap: FloatWord,
    /// Grant lease deadline (`u64::MAX` = unleased).
    pub lease_until: u64,
    /// Opaque division-policy state
    /// ([`BudgetPolicy::export_state`](crate::BudgetPolicy::export_state)).
    pub policy_state: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ProportionalShare;

    fn capper(cap: f64) -> GroupCapper {
        GroupCapper::new(CapperLevel::Enclosure, cap, Box::new(ProportionalShare))
    }

    #[test]
    fn reallocation_is_proportional_and_bounded() {
        let mut em = capper(300.0);
        let caps = em.reallocate(&[100.0, 50.0, 50.0], &[108.0, 108.0, 108.0]);
        // 300·(100/200)=150 → min with 108.
        assert!((caps[0] - 108.0).abs() < 1e-9);
        assert!((caps[1] - 75.0).abs() < 1e-9);
        assert!((caps[2] - 75.0).abs() < 1e-9);
    }

    #[test]
    fn granted_budget_tightens_reallocation() {
        let mut em = capper(300.0);
        em.set_granted_cap(200.0);
        assert_eq!(em.effective_cap_watts(), 200.0);
        let caps = em.reallocate(&[50.0, 50.0], &[108.0, 108.0]);
        assert!((caps[0] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn generous_grant_leaves_static_binding() {
        let mut em = capper(300.0);
        em.set_granted_cap(9_000.0);
        assert_eq!(em.effective_cap_watts(), 300.0);
    }

    #[test]
    fn static_violation_detection() {
        let em = capper(300.0);
        assert!(em.violates_static(301.0));
        assert!(!em.violates_static(300.0));
    }

    #[test]
    fn levels_render_paper_names() {
        assert_eq!(CapperLevel::Enclosure.to_string(), "EM");
        assert_eq!(CapperLevel::Group.to_string(), "GM");
    }

    #[test]
    fn nested_em_under_gm_respects_both_budgets() {
        // GM divides 500 W across two enclosures proportionally; each EM
        // then divides its grant across two blades. No blade total may
        // exceed any level's budget.
        let mut gm = GroupCapper::new(CapperLevel::Group, 500.0, Box::new(ProportionalShare));
        let enc_power = [300.0, 200.0];
        let enc_static = [400.0, 400.0];
        let enc_caps = gm.reallocate(&enc_power, &enc_static);
        assert!(enc_caps.iter().sum::<f64>() <= 500.0 + 1e-9);
        let mut em0 = capper(400.0);
        em0.set_granted_cap(enc_caps[0]);
        let blade_caps = em0.reallocate(&[150.0, 150.0], &[200.0, 200.0]);
        assert!(blade_caps.iter().sum::<f64>() <= enc_caps[0] + 1e-9);
    }
}
