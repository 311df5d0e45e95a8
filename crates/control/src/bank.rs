//! Batched EC + SM state for the per-epoch hot path.
//!
//! [`ControllerBank`] holds every server's efficiency-controller and
//! server-manager state in contiguous `Vec<f64>` arrays (one slot per
//! server) instead of one [`EfficiencyController`] / [`ServerManager`]
//! object each. An epoch that touches all N servers then walks flat
//! arrays plus a shared [`ModelTable`], which keeps the working set
//! cache-resident at multi-rack scale.
//!
//! Every update replicates the scalar controllers' floating-point
//! operations *in the same order*, so a runner switched from per-object
//! controllers to the bank is bit-identical — the differential tests in
//! this module and in `tests/soa_differential.rs` drive both
//! implementations in lockstep and assert exact equality.

use std::ops::Range;

use nps_models::{ModelTable, PState};
use nps_sim::par::Carve;
use nps_sim::FloatBits;

use crate::ec::EfficiencyController;
use crate::sm::{ServerManager, SmDecision};

/// Clamps a utilization target to the standard band — the single
/// definition shared by the bank and its shard views.
#[inline]
fn clamp_r_ref(r_ref: f64) -> f64 {
    r_ref.clamp(
        EfficiencyController::DEFAULT_R_REF_MIN,
        EfficiencyController::DEFAULT_R_REF_MAX,
    )
}

/// The EC integral-law update on one server's slots. Shared by
/// [`ControllerBank::ec_step`] and [`BankShard::ec_step`] so the two
/// paths cannot drift: bit-identical results are a structural property,
/// not a testing accident.
#[inline]
fn ec_step_core(
    table: &ModelTable,
    lambda: f64,
    i: usize,
    freq_hz: &mut f64,
    applied_hz: &mut f64,
    r_ref: f64,
    measured_util: f64,
) -> PState {
    let r = if measured_util.is_nan() {
        0.0
    } else {
        measured_util.clamp(0.0, 1.0)
    };
    // Measured consumption f_C = r · f_q.
    let f_c = r * *applied_hz;
    let delta = lambda * f_c * (r_ref - r) / r_ref;
    *freq_hz = (*freq_hz - delta).clamp(table.min_frequency_hz(i), table.max_frequency_hz(i));
    let p = table.quantize(i, *freq_hz);
    *applied_hz = table.frequency_hz(i, p.index());
    p
}

/// The coordinated SM update on one server's slots (shared by bank and
/// shard paths).
#[inline]
#[allow(clippy::too_many_arguments)]
fn sm_step_coordinated_core(
    table: &ModelTable,
    beta: f64,
    guard: f64,
    i: usize,
    r_ref: &mut f64,
    static_cap: f64,
    granted_cap: f64,
    measured_power_watts: f64,
) -> SmDecision {
    let effective_cap = static_cap.min(granted_cap);
    let max_power = table.max_power(i);
    let cap_norm = (1.0 - guard) * effective_cap / max_power;
    let pow_norm = measured_power_watts / max_power;
    // r_ref(k̂) = r_ref(k̂−1) − β·(cap − pow)  [normalized]
    let new_r_ref = *r_ref - beta * (cap_norm - pow_norm);
    *r_ref = clamp_r_ref(new_r_ref);
    SmDecision {
        violated_static: measured_power_watts > static_cap,
        violated_effective: measured_power_watts > effective_cap,
        new_r_ref: Some(*r_ref),
    }
}

/// The uncoordinated SM decision for one server (shared by bank and
/// shard paths).
#[inline]
fn sm_step_uncoordinated_core(
    table: &ModelTable,
    i: usize,
    static_cap: f64,
    granted_cap: f64,
    measured_power_watts: f64,
    current: PState,
) -> (SmDecision, Option<PState>) {
    let violated_effective = measured_power_watts > static_cap.min(granted_cap);
    let decision = SmDecision {
        violated_static: measured_power_watts > static_cap,
        violated_effective,
        new_r_ref: None,
    };
    let forced = if violated_effective {
        Some(table.step_down(i, current))
    } else {
        None
    };
    (decision, forced)
}

/// Structure-of-arrays bank of per-server EC + SM controller state.
///
/// Server `i`'s controllers occupy slot `i` of every array; the model
/// data they evaluate against lives in the shared [`ModelTable`].
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerBank {
    table: ModelTable,
    /// Gain scaling parameter λ of the EC integral law (shared).
    lambda: f64,
    /// SM gain `β_loc` on normalized power (shared).
    beta: f64,
    /// SM guard band (fraction below the cap to regulate toward).
    guard: f64,
    /// SM static local budget `CAP_LOC`, watts.
    static_cap: Vec<f64>,
    /// The per-server controller state that checkpoints.
    state: BankSnapshot,
}

impl ControllerBank {
    /// Creates a bank over `table` with one EC (starting at the model's
    /// maximum frequency, target `initial_r_ref` clamped to the standard
    /// band) and one SM (static budget `static_caps[i]`, granted budget
    /// unbounded) per server.
    ///
    /// # Panics
    ///
    /// Panics if `static_caps.len() != table.num_servers()`.
    pub fn new(
        table: ModelTable,
        lambda: f64,
        beta: f64,
        initial_r_ref: f64,
        static_caps: &[f64],
    ) -> Self {
        let n = table.num_servers();
        assert_eq!(
            static_caps.len(),
            n,
            "one static cap per server ({} caps, {n} servers)",
            static_caps.len()
        );
        let freq_hz: Vec<f64> = (0..n).map(|i| table.max_frequency_hz(i)).collect();
        let r_ref = initial_r_ref.clamp(
            EfficiencyController::DEFAULT_R_REF_MIN,
            EfficiencyController::DEFAULT_R_REF_MAX,
        );
        Self {
            state: BankSnapshot {
                applied_hz: FloatBits(freq_hz.clone()),
                freq_hz: FloatBits(freq_hz),
                r_ref: FloatBits(vec![r_ref; n]),
                granted_cap: FloatBits(vec![f64::INFINITY; n]),
                lease_until: vec![u64::MAX; n],
            },
            static_cap: static_caps.to_vec(),
            table,
            lambda,
            beta,
            guard: ServerManager::DEFAULT_GUARD,
        }
    }

    /// Overrides the SM guard band for every server.
    pub fn with_guard(mut self, guard: f64) -> Self {
        self.guard = guard.clamp(0.0, 0.5);
        self
    }

    /// Number of servers in the bank.
    pub fn len(&self) -> usize {
        self.state.r_ref.len()
    }

    /// True if the bank covers no servers.
    pub fn is_empty(&self) -> bool {
        self.state.r_ref.is_empty()
    }

    /// The shared model table the controllers evaluate against.
    pub fn table(&self) -> &ModelTable {
        &self.table
    }

    // ----- efficiency controller -----------------------------------------

    /// Server `i`'s current utilization target.
    #[inline]
    pub fn r_ref(&self, i: usize) -> f64 {
        self.state.r_ref[i]
    }

    /// Sets server `i`'s utilization target, clamped to the standard band
    /// — identical to [`EfficiencyController::set_r_ref`].
    pub fn set_r_ref(&mut self, i: usize, r_ref: f64) {
        self.state.r_ref[i] = clamp_r_ref(r_ref);
    }

    /// Server `i`'s continuous EC frequency state, Hz.
    pub fn frequency_hz(&self, i: usize) -> f64 {
        self.state.freq_hz[i]
    }

    /// One EC control step for server `i` — the same update as
    /// [`EfficiencyController::step`]: adaptive integral law on the
    /// continuous frequency, quantized to the nearest P-state.
    #[inline]
    pub fn ec_step(&mut self, i: usize, measured_util: f64) -> PState {
        ec_step_core(
            &self.table,
            self.lambda,
            i,
            &mut self.state.freq_hz[i],
            &mut self.state.applied_hz[i],
            self.state.r_ref[i],
            measured_util,
        )
    }

    /// Resets server `i`'s EC to its maximum frequency (e.g. after a
    /// power-on) — identical to [`EfficiencyController::reset`].
    pub fn ec_reset(&mut self, i: usize) {
        self.state.freq_hz[i] = self.table.max_frequency_hz(i);
        self.state.applied_hz[i] = self.state.freq_hz[i];
    }

    // ----- server manager -------------------------------------------------

    /// Server `i`'s static local budget `CAP_LOC`, watts.
    #[inline]
    pub fn static_cap_watts(&self, i: usize) -> f64 {
        self.static_cap[i]
    }

    /// Grants server `i` a dynamic budget from the enclosure/group
    /// manager — identical to [`ServerManager::set_granted_cap`]. The
    /// grant carries no lease (it holds until replaced).
    #[inline]
    pub fn set_granted_cap(&mut self, i: usize, watts: f64) {
        self.state.granted_cap[i] = watts.max(0.0);
        self.state.lease_until[i] = u64::MAX;
    }

    /// Grants server `i` a *leased* dynamic budget: the grant authorizes
    /// the cap until tick `lease_until`, after which
    /// [`ControllerBank::expire_lease`] reverts the server to its static
    /// cap.
    #[inline]
    pub fn set_granted_cap_leased(&mut self, i: usize, watts: f64, lease_until: u64) {
        self.state.granted_cap[i] = watts.max(0.0);
        self.state.lease_until[i] = lease_until;
    }

    /// First tick server `i`'s grant stops being authorized
    /// (`u64::MAX` = unleased).
    #[inline]
    pub fn lease_until(&self, i: usize) -> u64 {
        self.state.lease_until[i]
    }

    /// Expires server `i`'s lease if it has lapsed at `now`: the granted
    /// cap reverts to unlimited (so the effective cap falls back to
    /// `CAP_LOC`) and the lease clears. Returns whether an expiry
    /// happened.
    #[inline]
    pub fn expire_lease(&mut self, i: usize, now: u64) -> bool {
        if now < self.state.lease_until[i] {
            return false;
        }
        self.state.granted_cap[i] = f64::INFINITY;
        self.state.lease_until[i] = u64::MAX;
        true
    }

    /// Resets server `i`'s grant to unlimited and clears any lease (e.g.
    /// after a power-on revival).
    pub fn reset_grant(&mut self, i: usize) {
        self.state.granted_cap[i] = f64::INFINITY;
        self.state.lease_until[i] = u64::MAX;
    }

    /// The budget server `i`'s SM enforces this epoch:
    /// `min(CAP_LOC, granted)`.
    #[inline]
    pub fn effective_cap_watts(&self, i: usize) -> f64 {
        self.static_cap[i].min(self.state.granted_cap[i])
    }

    /// One **coordinated** SM interval for server `i` — the same update
    /// as [`ServerManager::step_coordinated`], retuning the bank's own
    /// EC `r_ref` slot.
    #[inline]
    pub fn sm_step_coordinated(&mut self, i: usize, measured_power_watts: f64) -> SmDecision {
        sm_step_coordinated_core(
            &self.table,
            self.beta,
            self.guard,
            i,
            &mut self.state.r_ref[i],
            self.static_cap[i],
            self.state.granted_cap[i],
            measured_power_watts,
        )
    }

    /// One **uncoordinated** SM interval for server `i` — the same update
    /// as [`ServerManager::step_uncoordinated`].
    #[inline]
    pub fn sm_step_uncoordinated(
        &mut self,
        i: usize,
        measured_power_watts: f64,
        current: PState,
    ) -> (SmDecision, Option<PState>) {
        sm_step_uncoordinated_core(
            &self.table,
            i,
            self.static_cap[i],
            self.state.granted_cap[i],
            measured_power_watts,
            current,
        )
    }

    // ----- rack sharding --------------------------------------------------

    /// Carves the bank into disjoint per-shard views for a sharded
    /// epoch: the returned [`BankCarve`] hands out one [`BankShard`] per
    /// ascending server range (see `Topology::shard_ranges` in
    /// `nps-sim`). Each shard mutates only its own servers' slots through
    /// the *same* core update functions the whole-bank methods use, so
    /// results are bit-identical by construction.
    pub fn shards(&mut self) -> BankCarve<'_> {
        BankCarve {
            table: &self.table,
            lambda: self.lambda,
            beta: self.beta,
            guard: self.guard,
            freq_hz: Carve::new(&mut self.state.freq_hz),
            applied_hz: Carve::new(&mut self.state.applied_hz),
            r_ref: Carve::new(&mut self.state.r_ref),
            static_cap: &self.static_cap,
            granted_cap: Carve::new(&mut self.state.granted_cap),
            lease_until: Carve::new(&mut self.state.lease_until),
        }
    }

    // ----- checkpointing --------------------------------------------------

    /// Captures the bank's mutable state (EC frequencies, targets, grants,
    /// leases) for checkpointing.
    pub fn snapshot(&self) -> BankSnapshot {
        self.state.clone()
    }

    /// True if `snap` has this bank's shape: one entry per server in
    /// every array. [`ControllerBank::restore`] replaces its arrays
    /// wholesale, so a caller restoring untrusted state checks this first.
    pub fn fits(&self, snap: &BankSnapshot) -> bool {
        let n = self.len();
        [
            snap.freq_hz.len(),
            snap.applied_hz.len(),
            snap.r_ref.len(),
            snap.granted_cap.len(),
            snap.lease_until.len(),
        ]
        .iter()
        .all(|&len| len == n)
    }

    /// Restores state captured by [`ControllerBank::snapshot`]. The bank
    /// must have been built over the same fleet (see
    /// [`ControllerBank::fits`]).
    pub fn restore(&mut self, snap: &BankSnapshot) {
        self.state.clone_from(snap);
    }
}

/// Hands out [`BankShard`]s over consecutive server ranges; produced by
/// [`ControllerBank::shards`].
#[derive(Debug)]
pub struct BankCarve<'a> {
    table: &'a ModelTable,
    lambda: f64,
    beta: f64,
    guard: f64,
    freq_hz: Carve<'a, f64>,
    applied_hz: Carve<'a, f64>,
    r_ref: Carve<'a, f64>,
    static_cap: &'a [f64],
    granted_cap: Carve<'a, f64>,
    lease_until: Carve<'a, u64>,
}

impl<'a> BankCarve<'a> {
    /// The bank view of server `range`.
    ///
    /// # Panics
    ///
    /// Panics if `range` starts before the previous range's end or runs
    /// past the fleet.
    #[inline]
    pub fn take(&mut self, range: Range<usize>) -> BankShard<'a> {
        BankShard {
            table: self.table,
            lambda: self.lambda,
            beta: self.beta,
            guard: self.guard,
            lo: range.start,
            freq_hz: self.freq_hz.take(range.clone()),
            applied_hz: self.applied_hz.take(range.clone()),
            r_ref: self.r_ref.take(range.clone()),
            static_cap: &self.static_cap[range.clone()],
            granted_cap: self.granted_cap.take(range.clone()),
            lease_until: self.lease_until.take(range),
        }
    }
}

/// A disjoint slice of the bank owned by one worker during the parallel
/// per-rack phase. Indices are *global* server ids (the shard subtracts
/// its own offset), so call sites read identically to the sequential
/// bank methods. All updates go through the same `#[inline]` core
/// functions as [`ControllerBank`]'s own methods.
#[derive(Debug)]
pub struct BankShard<'a> {
    table: &'a ModelTable,
    lambda: f64,
    beta: f64,
    guard: f64,
    /// First global server id of this shard.
    lo: usize,
    freq_hz: &'a mut [f64],
    applied_hz: &'a mut [f64],
    r_ref: &'a mut [f64],
    static_cap: &'a [f64],
    granted_cap: &'a mut [f64],
    lease_until: &'a mut [u64],
}

impl BankShard<'_> {
    /// Server `i`'s current utilization target (`i` is global; must lie
    /// in this shard).
    #[inline]
    pub fn r_ref(&self, i: usize) -> f64 {
        self.r_ref[i - self.lo]
    }

    /// The budget server `i`'s SM enforces this epoch —
    /// identical to [`ControllerBank::effective_cap_watts`].
    #[inline]
    pub fn effective_cap_watts(&self, i: usize) -> f64 {
        self.static_cap[i - self.lo].min(self.granted_cap[i - self.lo])
    }

    /// Grants server `i` an unleased dynamic budget — identical to
    /// [`ControllerBank::set_granted_cap`]. Lets a shard apply the
    /// enclosure-outage local-cap fallback to its own servers.
    #[inline]
    pub fn set_granted_cap(&mut self, i: usize, watts: f64) {
        let k = i - self.lo;
        self.granted_cap[k] = watts.max(0.0);
        self.lease_until[k] = u64::MAX;
    }

    /// One EC control step for server `i` — bit-identical to
    /// [`ControllerBank::ec_step`] (same core function).
    #[inline]
    pub fn ec_step(&mut self, i: usize, measured_util: f64) -> PState {
        let k = i - self.lo;
        ec_step_core(
            self.table,
            self.lambda,
            i,
            &mut self.freq_hz[k],
            &mut self.applied_hz[k],
            self.r_ref[k],
            measured_util,
        )
    }

    /// One coordinated SM interval for server `i` — bit-identical to
    /// [`ControllerBank::sm_step_coordinated`].
    #[inline]
    pub fn sm_step_coordinated(&mut self, i: usize, measured_power_watts: f64) -> SmDecision {
        let k = i - self.lo;
        sm_step_coordinated_core(
            self.table,
            self.beta,
            self.guard,
            i,
            &mut self.r_ref[k],
            self.static_cap[k],
            self.granted_cap[k],
            measured_power_watts,
        )
    }

    /// One uncoordinated SM interval for server `i` — bit-identical to
    /// [`ControllerBank::sm_step_uncoordinated`].
    #[inline]
    pub fn sm_step_uncoordinated(
        &mut self,
        i: usize,
        measured_power_watts: f64,
        current: PState,
    ) -> (SmDecision, Option<PState>) {
        let k = i - self.lo;
        sm_step_uncoordinated_core(
            self.table,
            i,
            self.static_cap[k],
            self.granted_cap[k],
            measured_power_watts,
            current,
        )
    }
}

/// The bank's mutable state, kept whole by [`ControllerBank`]
/// (checkpoint section); one slot per server.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct BankSnapshot {
    /// EC continuous frequency state, Hz.
    pub freq_hz: FloatBits,
    /// EC quantized frequency applied last interval, Hz.
    pub applied_hz: FloatBits,
    /// EC utilization targets.
    pub r_ref: FloatBits,
    /// SM budgets granted by the EM/GM for the current epoch, watts
    /// (possibly infinite).
    pub granted_cap: FloatBits,
    /// First tick each server's granted budget stops being authorized
    /// (`u64::MAX` = no lease: the grant holds until replaced).
    pub lease_until: Vec<u64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use nps_models::ServerModel;

    fn fleet() -> Vec<ServerModel> {
        vec![
            ServerModel::blade_a(),
            ServerModel::server_b(),
            ServerModel::blade_a().extremes(),
        ]
    }

    fn scalar_pair(
        models: &[ServerModel],
        lambda: f64,
        beta: f64,
        caps: &[f64],
    ) -> (Vec<EfficiencyController>, Vec<ServerManager>) {
        let ecs = models
            .iter()
            .map(|m| EfficiencyController::new(m, lambda, 0.75))
            .collect();
        let sms = models
            .iter()
            .zip(caps)
            .map(|(m, &c)| ServerManager::new(m, c, beta))
            .collect();
        (ecs, sms)
    }

    #[test]
    fn ec_steps_match_scalar_bitwise() {
        let models = fleet();
        let caps: Vec<f64> = models.iter().map(|m| 0.8 * m.max_power()).collect();
        let mut bank = ControllerBank::new(ModelTable::from_models(&models), 0.8, 1.0, 0.75, &caps);
        let (mut ecs, _) = scalar_pair(&models, 0.8, 1.0, &caps);
        let utils = [0.1, 0.9, 1.0, 0.0, f64::NAN, 0.55, -0.2, 1.7, 0.33];
        for (k, &u) in utils.iter().cycle().take(200).enumerate() {
            for i in 0..models.len() {
                let u = u * (1.0 + 0.01 * i as f64);
                assert_eq!(bank.ec_step(i, u), ecs[i].step(&models[i], u), "step {k}");
                assert_eq!(bank.frequency_hz(i), ecs[i].frequency_hz());
                assert_eq!(bank.r_ref(i), ecs[i].r_ref());
            }
            if k % 7 == 0 {
                for (i, ec) in ecs.iter_mut().enumerate() {
                    let target = 0.6 + 0.3 * (k % 5) as f64;
                    bank.set_r_ref(i, target);
                    ec.set_r_ref(target);
                }
            }
            if k % 31 == 0 {
                bank.ec_reset(1);
                ecs[1].reset(&models[1]);
            }
        }
    }

    #[test]
    fn sm_coordinated_matches_scalar_bitwise() {
        let models = fleet();
        let caps: Vec<f64> = models.iter().map(|m| 0.78 * m.max_power()).collect();
        let mut bank = ControllerBank::new(ModelTable::from_models(&models), 0.8, 1.0, 0.75, &caps);
        let (mut ecs, mut sms) = scalar_pair(&models, 0.8, 1.0, &caps);
        for k in 0..150 {
            for i in 0..models.len() {
                let pow = 40.0 + 7.0 * ((k * (i + 3)) % 13) as f64;
                let want = sms[i].step_coordinated(pow, &mut ecs[i]);
                assert_eq!(bank.sm_step_coordinated(i, pow), want, "step {k}");
                assert_eq!(bank.r_ref(i), ecs[i].r_ref());
                // The retuned r_ref must feed back into the next EC step.
                let u = 0.5 + 0.04 * (k % 9) as f64;
                assert_eq!(bank.ec_step(i, u), ecs[i].step(&models[i], u));
            }
            if k % 11 == 0 {
                for (i, sm) in sms.iter_mut().enumerate() {
                    let grant = if k % 22 == 0 { 60.0 } else { f64::INFINITY };
                    bank.set_granted_cap(i, grant);
                    sm.set_granted_cap(grant);
                    assert_eq!(bank.effective_cap_watts(i), sm.effective_cap_watts());
                }
            }
        }
    }

    #[test]
    fn sm_uncoordinated_matches_scalar_bitwise() {
        let models = fleet();
        let caps: Vec<f64> = models.iter().map(|m| 0.7 * m.max_power()).collect();
        let mut bank = ControllerBank::new(ModelTable::from_models(&models), 0.8, 1.0, 0.75, &caps);
        let (_, mut sms) = scalar_pair(&models, 0.8, 1.0, &caps);
        for k in 0..60 {
            for i in 0..models.len() {
                let p = PState(k % models[i].num_pstates());
                let pow = 30.0 + 9.0 * ((k * 5 + i) % 11) as f64;
                let want = sms[i].step_uncoordinated(pow, p, &models[i]);
                assert_eq!(bank.sm_step_uncoordinated(i, pow, p), want, "step {k}");
            }
        }
    }

    #[test]
    fn negative_grant_clamps_to_zero() {
        let models = fleet();
        let caps = vec![100.0; 3];
        let mut bank = ControllerBank::new(ModelTable::from_models(&models), 0.8, 1.0, 0.75, &caps);
        bank.set_granted_cap(0, -5.0);
        assert_eq!(bank.effective_cap_watts(0), 0.0);
        assert_eq!(bank.static_cap_watts(0), 100.0);
    }

    #[test]
    fn leased_grant_expires_back_to_static_cap() {
        let models = fleet();
        let caps = vec![100.0; 3];
        let mut bank = ControllerBank::new(ModelTable::from_models(&models), 0.8, 1.0, 0.75, &caps);
        bank.set_granted_cap_leased(0, 60.0, 50);
        assert_eq!(bank.effective_cap_watts(0), 60.0);
        assert_eq!(bank.lease_until(0), 50);
        assert!(!bank.expire_lease(0, 49), "lease still live");
        assert_eq!(bank.effective_cap_watts(0), 60.0);
        assert!(bank.expire_lease(0, 50), "lease lapses at its deadline");
        assert_eq!(bank.effective_cap_watts(0), 100.0);
        assert_eq!(bank.lease_until(0), u64::MAX);
        assert!(!bank.expire_lease(0, 1000), "expiry fires once");
        // An unleased grant never expires.
        bank.set_granted_cap(1, 70.0);
        assert!(!bank.expire_lease(1, u64::MAX - 1));
        assert_eq!(bank.effective_cap_watts(1), 70.0);
        // Renewal pushes the deadline out.
        bank.set_granted_cap_leased(2, 40.0, 10);
        bank.set_granted_cap_leased(2, 45.0, 20);
        assert!(!bank.expire_lease(2, 15));
        assert_eq!(bank.effective_cap_watts(2), 45.0);
    }

    #[test]
    fn snapshot_roundtrips_state_bit_exactly() {
        let models = fleet();
        let caps = vec![100.0, 250.0, 90.0];
        let mut bank = ControllerBank::new(ModelTable::from_models(&models), 0.8, 1.0, 0.75, &caps);
        for k in 0..40 {
            for i in 0..3 {
                bank.ec_step(i, 0.3 + 0.02 * ((k + i) % 7) as f64);
                bank.sm_step_coordinated(i, 50.0 + k as f64);
            }
        }
        bank.set_granted_cap_leased(0, 55.0, 99);
        // Slot 1 keeps its infinite default grant — the roundtrip must
        // preserve it exactly (JSON has no infinity literal).
        let json = serde_json::to_string(&bank.snapshot()).unwrap();
        let snap: BankSnapshot = serde_json::from_str(&json).unwrap();
        let mut restored =
            ControllerBank::new(ModelTable::from_models(&models), 0.8, 1.0, 0.75, &caps);
        restored.restore(&snap);
        assert_eq!(bank, restored);
        assert_eq!(restored.effective_cap_watts(1), 250.0);
        assert_eq!(restored.lease_until(0), 99);
    }

    #[test]
    fn shard_steps_match_whole_bank_bitwise() {
        let models: Vec<ServerModel> = (0..7)
            .map(|i| {
                if i % 2 == 0 {
                    ServerModel::blade_a()
                } else {
                    ServerModel::server_b()
                }
            })
            .collect();
        let caps: Vec<f64> = models.iter().map(|m| 0.8 * m.max_power()).collect();
        let mut whole =
            ControllerBank::new(ModelTable::from_models(&models), 0.8, 1.0, 0.75, &caps);
        let mut sharded =
            ControllerBank::new(ModelTable::from_models(&models), 0.8, 1.0, 0.75, &caps);
        sharded.set_granted_cap_leased(2, 55.0, 10);
        whole.set_granted_cap_leased(2, 55.0, 10);
        let ranges = [0..3, 3..5, 5..7];
        for k in 0..80 {
            let mut carve = sharded.shards();
            let mut shards: Vec<BankShard<'_>> =
                ranges.iter().map(|r| carve.take(r.clone())).collect();
            for (shard, range) in shards.iter_mut().zip(&ranges) {
                for i in range.clone() {
                    let u = 0.2 + 0.07 * ((k + i) % 9) as f64;
                    let pow = 30.0 + 6.0 * ((k * 3 + i) % 11) as f64;
                    assert_eq!(shard.ec_step(i, u), whole.ec_step(i, u), "ec step {k}");
                    assert_eq!(
                        shard.sm_step_coordinated(i, pow),
                        whole.sm_step_coordinated(i, pow),
                        "sm step {k}"
                    );
                    let p = PState(k % 3);
                    assert_eq!(
                        shard.sm_step_uncoordinated(i, pow, p),
                        whole.sm_step_uncoordinated(i, pow, p)
                    );
                    assert_eq!(shard.r_ref(i), whole.r_ref(i));
                    assert_eq!(shard.effective_cap_watts(i), whole.effective_cap_watts(i));
                }
            }
            drop(shards);
            assert_eq!(sharded, whole);
        }
    }

    #[test]
    #[should_panic(expected = "one static cap per server")]
    fn cap_count_mismatch_panics() {
        let models = fleet();
        ControllerBank::new(ModelTable::from_models(&models), 0.8, 1.0, 0.75, &[1.0]);
    }
}
