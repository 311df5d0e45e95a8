//! Budget-division policies for the enclosure and group managers.
//!
//! Paper §3.1: *"The actual division of the total enclosure power budget
//! to individual blades is policy-driven and different policies (e.g.,
//! fair-share, FIFO, random, priority-based, history-based) can be
//! implemented."* The paper's base policy is **proportional share**
//! (Figure 6, equations `(EM)`/`(GMs)`); §5.4 finds results robust across
//! policy choices — a finding our `policies` bench reproduces.
//!
//! Every policy returns one budget per child, already taking
//! `min(static cap, dynamic share)` as the paper's `min` interface
//! requires; the shares themselves never exceed the level's total budget.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A strategy for dividing a level's power budget across its children.
pub trait BudgetPolicy: std::fmt::Debug + Send {
    /// Human-readable policy name (for reports).
    fn name(&self) -> &'static str;

    /// Divides `total_watts` among children given their last-interval
    /// `consumption_watts` and per-child `static_caps_watts`. Returns one
    /// effective cap per child.
    fn divide(
        &mut self,
        total_watts: f64,
        consumption_watts: &[f64],
        static_caps_watts: &[f64],
    ) -> Vec<f64>;

    /// The policy's mutable state as opaque `u64` words, for
    /// checkpointing (floats bit-packed via [`f64::to_bits`]). Stateless
    /// policies export nothing.
    fn export_state(&self) -> Vec<u64> {
        Vec::new()
    }

    /// Restores state captured by [`BudgetPolicy::export_state`]. The
    /// default is a no-op for stateless policies.
    fn import_state(&mut self, _state: &[u64]) {}

    /// True if `state` has the shape [`BudgetPolicy::export_state`] gives
    /// for this policy kind, so importing it restores what was exported.
    /// The default accepts only the empty state of a stateless policy.
    fn state_fits(&self, state: &[u64]) -> bool {
        state.is_empty()
    }
}

fn proportional(total: f64, weights: &[f64], static_caps: &[f64]) -> Vec<f64> {
    let sum: f64 = weights.iter().sum();
    let n = weights.len();
    if n == 0 {
        return Vec::new();
    }
    if sum <= 0.0 {
        // Nothing measured yet: fall back to fair share.
        return static_caps
            .iter()
            .map(|&c| c.min(total / n as f64))
            .collect();
    }
    weights
        .iter()
        .zip(static_caps)
        .map(|(&w, &c)| c.min(total * w / sum))
        .collect()
}

/// The paper's base policy: each child's share is proportional to its
/// consumption in the last interval
/// (`cap_i = min(CAP_i, total · pow_i / Σ pow)`).
#[derive(Debug, Default, Clone, Copy)]
pub struct ProportionalShare;

impl BudgetPolicy for ProportionalShare {
    fn name(&self) -> &'static str {
        "proportional-share"
    }

    fn divide(&mut self, total: f64, consumption: &[f64], static_caps: &[f64]) -> Vec<f64> {
        proportional(total, consumption, static_caps)
    }
}

/// Equal split of the budget regardless of demand.
#[derive(Debug, Default, Clone, Copy)]
pub struct FairShare;

impl BudgetPolicy for FairShare {
    fn name(&self) -> &'static str {
        "fair-share"
    }

    fn divide(&mut self, total: f64, consumption: &[f64], static_caps: &[f64]) -> Vec<f64> {
        // Equal shares among *active* consumers; powered-off children
        // would otherwise silently starve the live ones.
        let active: Vec<usize> = active_children(consumption);
        let n = active.len().max(1) as f64;
        let mut out = vec![0.0; consumption.len()];
        for i in active {
            out[i] = static_caps[i].min(total / n);
        }
        out
    }
}

/// Children that consumed measurable power last interval (all of them if
/// nothing was measured yet).
fn active_children(consumption: &[f64]) -> Vec<usize> {
    let active: Vec<usize> = (0..consumption.len())
        .filter(|&i| consumption[i] > 1e-9)
        .collect();
    if active.is_empty() {
        (0..consumption.len()).collect()
    } else {
        active
    }
}

/// First-come-first-served in child id order: each child receives up to
/// its static cap until the budget is exhausted.
#[derive(Debug, Default, Clone, Copy)]
pub struct Fifo;

impl BudgetPolicy for Fifo {
    fn name(&self) -> &'static str {
        "fifo"
    }

    fn divide(&mut self, total: f64, consumption: &[f64], static_caps: &[f64]) -> Vec<f64> {
        sequential(
            total,
            consumption.len(),
            static_caps,
            (0..consumption.len()).collect(),
        )
    }
}

/// Like FIFO but in a freshly shuffled order each interval.
#[derive(Debug)]
pub struct RandomOrder {
    rng: StdRng,
}

impl RandomOrder {
    /// Creates the policy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl BudgetPolicy for RandomOrder {
    fn name(&self) -> &'static str {
        "random-order"
    }

    fn divide(&mut self, total: f64, consumption: &[f64], static_caps: &[f64]) -> Vec<f64> {
        let mut order: Vec<usize> = (0..consumption.len()).collect();
        order.shuffle(&mut self.rng);
        sequential(total, consumption.len(), static_caps, order)
    }

    fn export_state(&self) -> Vec<u64> {
        self.rng.state().to_vec()
    }

    fn state_fits(&self, state: &[u64]) -> bool {
        state.len() == 4
    }

    fn import_state(&mut self, state: &[u64]) {
        let mut s = [0u64; 4];
        for (w, &v) in s.iter_mut().zip(state) {
            *w = v;
        }
        self.rng = StdRng::from_state(s);
    }
}

/// Proportional to fixed per-child priority weights.
#[derive(Debug, Clone)]
pub struct PriorityWeighted {
    weights: Vec<f64>,
}

impl PriorityWeighted {
    /// Creates the policy with one non-negative weight per child.
    pub fn new(weights: Vec<f64>) -> Self {
        Self { weights }
    }
}

impl BudgetPolicy for PriorityWeighted {
    fn name(&self) -> &'static str {
        "priority-weighted"
    }

    fn divide(&mut self, total: f64, consumption: &[f64], static_caps: &[f64]) -> Vec<f64> {
        if self.weights.len() != consumption.len() {
            // Mis-sized weights degrade gracefully to fair share.
            return FairShare.divide(total, consumption, static_caps);
        }
        // Weights apply among active consumers only (an off child must
        // not absorb budget its weight would otherwise claim).
        let mut effective = vec![0.0; consumption.len()];
        for i in active_children(consumption) {
            effective[i] = self.weights[i];
        }
        proportional(total, &effective, static_caps)
    }
}

/// Proportional to an exponentially-weighted moving average of
/// consumption, smoothing out interval-to-interval churn.
#[derive(Debug, Clone)]
pub struct HistoryWeighted {
    alpha: f64,
    ewma: Vec<f64>,
}

impl HistoryWeighted {
    /// Creates the policy with smoothing factor `alpha ∈ (0, 1]` (1 =
    /// no smoothing, equivalent to proportional share).
    pub fn new(alpha: f64) -> Self {
        Self {
            alpha: alpha.clamp(f64::EPSILON, 1.0),
            ewma: Vec::new(),
        }
    }
}

impl BudgetPolicy for HistoryWeighted {
    fn name(&self) -> &'static str {
        "history-weighted"
    }

    fn divide(&mut self, total: f64, consumption: &[f64], static_caps: &[f64]) -> Vec<f64> {
        if self.ewma.len() != consumption.len() {
            self.ewma = consumption.to_vec();
        } else {
            for (e, &c) in self.ewma.iter_mut().zip(consumption) {
                *e = self.alpha * c + (1.0 - self.alpha) * *e;
            }
        }
        let ewma = self.ewma.clone();
        proportional(total, &ewma, static_caps)
    }

    fn export_state(&self) -> Vec<u64> {
        self.ewma.iter().map(|e| e.to_bits()).collect()
    }

    fn import_state(&mut self, state: &[u64]) {
        self.ewma = state.iter().map(|&b| f64::from_bits(b)).collect();
    }

    /// Any length: the history is empty before the first division and
    /// one word per child after it, and `divide` restarts a history
    /// whose length does not match its children.
    fn state_fits(&self, _state: &[u64]) -> bool {
        true
    }
}

/// Sequential allocation helper: children in `order` receive up to their
/// static cap while budget remains. Children beyond the budget receive a
/// proportional sliver of what is left rather than a hard zero (a zero
/// watt budget would be unactionable for a capper).
fn sequential(total: f64, n: usize, static_caps: &[f64], order: Vec<usize>) -> Vec<f64> {
    let mut out = vec![0.0; n];
    let mut remaining = total;
    for i in order {
        let grant = static_caps[i].min(remaining);
        out[i] = grant;
        remaining -= grant;
        if remaining <= 0.0 {
            break;
        }
    }
    out
}

/// All six built-in policies with their default parameters, for sweeps
/// (`n` = number of children, used to size priority weights).
pub fn default_policies(n: usize) -> Vec<Box<dyn BudgetPolicy>> {
    vec![
        Box::new(ProportionalShare),
        Box::new(FairShare),
        Box::new(Fifo),
        Box::new(RandomOrder::new(42)),
        Box::new(PriorityWeighted::new(
            (0..n).map(|i| 1.0 + (i % 3) as f64).collect(),
        )),
        Box::new(HistoryWeighted::new(0.3)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAPS: [f64; 3] = [108.0, 108.0, 108.0];

    fn total(v: &[f64]) -> f64 {
        v.iter().sum()
    }

    #[test]
    fn proportional_matches_paper_equation() {
        let mut p = ProportionalShare;
        let caps = p.divide(200.0, &[50.0, 100.0, 50.0], &CAPS);
        assert!((caps[0] - 50.0).abs() < 1e-9);
        assert!((caps[1] - 100.0).abs() < 1e-9);
        assert!((caps[2] - 50.0).abs() < 1e-9);
    }

    #[test]
    fn proportional_respects_static_caps() {
        let mut p = ProportionalShare;
        let caps = p.divide(400.0, &[300.0, 10.0, 10.0], &CAPS);
        assert!(caps[0] <= 108.0);
    }

    #[test]
    fn proportional_zero_consumption_falls_back_to_fair() {
        let mut p = ProportionalShare;
        let caps = p.divide(90.0, &[0.0, 0.0, 0.0], &CAPS);
        for c in caps {
            assert!((c - 30.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fair_share_is_equal() {
        let mut p = FairShare;
        let caps = p.divide(90.0, &[1.0, 99.0, 5.0], &CAPS);
        assert_eq!(caps, vec![30.0, 30.0, 30.0]);
    }

    #[test]
    fn fifo_exhausts_in_order() {
        let mut p = Fifo;
        let caps = p.divide(150.0, &[0.0; 3], &CAPS);
        assert_eq!(caps, vec![108.0, 42.0, 0.0]);
    }

    #[test]
    fn random_order_allocates_full_budget_deterministically() {
        let mut a = RandomOrder::new(7);
        let mut b = RandomOrder::new(7);
        let ca = a.divide(150.0, &[0.0; 3], &CAPS);
        let cb = b.divide(150.0, &[0.0; 3], &CAPS);
        assert_eq!(ca, cb);
        assert!((total(&ca) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn priority_weights_bias_allocation() {
        let mut p = PriorityWeighted::new(vec![3.0, 1.0, 1.0]);
        let caps = p.divide(100.0, &[10.0; 3], &CAPS);
        assert!((caps[0] - 60.0).abs() < 1e-9);
        assert!((caps[1] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn priority_with_wrong_arity_degrades_to_fair() {
        let mut p = PriorityWeighted::new(vec![1.0]);
        let caps = p.divide(90.0, &[10.0; 3], &CAPS);
        assert_eq!(caps, vec![30.0, 30.0, 30.0]);
    }

    #[test]
    fn history_smooths_toward_consumption() {
        let mut p = HistoryWeighted::new(0.5);
        // First interval seeds the EWMA directly.
        let c1 = p.divide(100.0, &[80.0, 20.0], &[108.0, 108.0]);
        assert!((c1[0] - 80.0).abs() < 1e-9);
        // Consumption flips; allocation moves only halfway.
        let c2 = p.divide(100.0, &[20.0, 80.0], &[108.0, 108.0]);
        assert!(c2[0] > 20.0 && c2[0] < 80.0);
    }

    #[test]
    fn stateful_policies_roundtrip_exported_state() {
        // RandomOrder: resuming from exported state must reproduce the
        // exact shuffle stream of the original.
        let mut a = RandomOrder::new(3);
        for _ in 0..5 {
            a.divide(150.0, &[0.0; 3], &CAPS);
        }
        let mut b = RandomOrder::new(999);
        b.import_state(&a.export_state());
        for _ in 0..8 {
            assert_eq!(
                a.divide(150.0, &[0.0; 3], &CAPS),
                b.divide(150.0, &[0.0; 3], &CAPS)
            );
        }

        // HistoryWeighted: EWMA words roundtrip bit-exactly.
        let mut h = HistoryWeighted::new(0.3);
        h.divide(100.0, &[80.0, 20.0], &[108.0, 108.0]);
        h.divide(100.0, &[20.0, 80.0], &[108.0, 108.0]);
        let mut h2 = HistoryWeighted::new(0.3);
        h2.import_state(&h.export_state());
        assert_eq!(
            h.divide(100.0, &[50.0, 50.0], &[108.0, 108.0]),
            h2.divide(100.0, &[50.0, 50.0], &[108.0, 108.0])
        );

        // Stateless policies export nothing.
        assert!(ProportionalShare.export_state().is_empty());
        assert!(Fifo.export_state().is_empty());
    }

    #[test]
    fn every_policy_fits_its_own_state_and_rejects_a_misshapen_one() {
        for mut p in default_policies(3) {
            p.divide(150.0, &[60.0, 90.0, 30.0], &CAPS);
            let state = p.export_state();
            assert!(p.state_fits(&state), "{}", p.name());
            let mut longer = state.clone();
            longer.push(1);
            if p.name() != "history-weighted" {
                assert!(!p.state_fits(&longer), "{}", p.name());
            }
        }
        assert!(!RandomOrder::new(1).state_fits(&[1, 2, 3]));
    }

    #[test]
    fn every_policy_never_exceeds_total_or_static_caps() {
        for mut p in default_policies(3) {
            let caps = p.divide(150.0, &[60.0, 90.0, 30.0], &CAPS);
            assert_eq!(caps.len(), 3, "{}", p.name());
            assert!(
                total(&caps) <= 150.0 + 1e-9,
                "{} over-allocates: {caps:?}",
                p.name()
            );
            for (c, s) in caps.iter().zip(&CAPS) {
                assert!(c <= s, "{} exceeds a static cap", p.name());
                assert!(*c >= 0.0);
            }
        }
    }
}
