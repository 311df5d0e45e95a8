//! Deterministic control-plane message bus for budget grants.
//!
//! The paper's coordination story (§3, Figure 2) assumes GM→EM→SM budget
//! grants arrive instantly and in order. Real federated power managers
//! ride a lossy, delayed management network, so this module makes the
//! channel explicit: every grant becomes a sequence-numbered,
//! lease-bearing [`GrantMsg`] routed through a seeded in-sim queue with
//! configurable delay, jitter, reordering (modeled as extra delay),
//! duplication, and drop. Receivers reject stale sequence numbers and
//! drop duplicates; senders retry unacknowledged grants with exponential
//! backoff plus jitter.
//!
//! Determinism contract: the bus owns one seeded PRNG and draws from it
//! only when the corresponding probability is nonzero, in a fixed order
//! per send (`drop → duplicate → per-copy delay jitter → per-copy
//! reorder`). The default [`BusConfig`] is a *passthrough*: zero delay,
//! zero fault rates, retries and leases off — it enqueues each grant for
//! same-tick delivery, draws no random numbers, and is observationally
//! identical to the direct `set_granted_cap` write it replaced.
//!
//! Cost model: both the in-flight queue and the retransmission timers
//! are expiry-ordered binary heaps, so a poll costs O(due messages), not
//! O(links). Message delivery pops a min-heap keyed `(deliver_at, uid)`
//! — the identical total order the former sorted-`Vec` scan consumed.
//! Retry timers use lazy deletion: every time a link's `next_retry_at`
//! is (re)armed a `(next_retry_at, link)` entry is pushed, and popped
//! entries that no longer match a live pending grant are discarded. Due
//! links fire in ascending **link order** per poll round (the heap's pop
//! order is time-ordered, so survivors are re-sorted by link index),
//! which reproduces the former full-link scan's RNG draw order exactly.
//! The scan itself survives as [`ControlBus::poll_reference`] so
//! differential tests can replay both against each other.
//!
//! The bus is topology-agnostic: the runner registers one [`LinkId`] per
//! grantor→child edge and interprets [`BusEvent`]s against its own link
//! metadata (which controller, which telemetry level). Acknowledgements
//! ride the bus back with the deterministic base delay and are never
//! lost; unacked grants are re-sent until `max_attempts` is exhausted,
//! after which the sender gives up and the receiver's lease (if enabled)
//! expires it back to the local static cap. An ack's only effect is to
//! clear that retry state, so a bus with retries off sends none.
//!
//! Same-tick delivery skips the queue: [`ControlBus::send_into`] is
//! `send` then `poll_into` at the send tick, and when nothing earlier is
//! due it hands the copies (and acks) due that tick straight to the
//! receiver in uid order, so a zero-delay grant costs no heap push or pop.
//! A bus that [delivers at once](ControlBus::delivers_at_once) (a
//! passthrough with retries off) also takes [`ControlBus::send_at_once`],
//! the same due-now step with no event buffer, so a sender can push a
//! whole batch of grants through a quiet bus in place.
//!
//! The per-grant path allocates nothing in steady state:
//! [`ControlBus::poll_into`] and [`ControlBus::send_into`] write into a
//! caller-owned event buffer and the retry pass reuses a bus-owned
//! scratch list.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::words::{FloatWord, LinkStates};

/// Retransmission policy for unacknowledged grants.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryConfig {
    /// Maximum retransmissions per grant (0 disables retries).
    pub max_attempts: u32,
    /// Base backoff in ticks; attempt `k` waits `base << (k-1)` ticks
    /// (clamped to [`RetryConfig::backoff_max_ticks`]). Sanitized to at
    /// least 1 so same-tick retry storms are impossible.
    pub backoff_base_ticks: u64,
    /// Upper bound on the exponential backoff, in ticks.
    pub backoff_max_ticks: u64,
    /// Uniform jitter in `[0, jitter_ticks]` added to each backoff.
    pub jitter_ticks: u64,
}

impl Default for RetryConfig {
    fn default() -> Self {
        Self {
            max_attempts: 0,
            backoff_base_ticks: 1,
            backoff_max_ticks: 64,
            jitter_ticks: 0,
        }
    }
}

impl RetryConfig {
    /// Whether retransmission is enabled.
    pub fn enabled(&self) -> bool {
        self.max_attempts > 0
    }

    /// Clamps the backoff base to at least one tick.
    pub fn sanitized(mut self) -> Self {
        self.backoff_base_ticks = self.backoff_base_ticks.max(1);
        self.backoff_max_ticks = self.backoff_max_ticks.max(self.backoff_base_ticks);
        self
    }

    /// Backoff (before jitter) for retransmission attempt `attempt`
    /// (1-based).
    fn backoff(&self, attempt: u32) -> u64 {
        let shift = (attempt.saturating_sub(1)).min(63);
        self.backoff_base_ticks
            .saturating_shl(shift)
            .min(self.backoff_max_ticks)
    }
}

/// Saturating left shift helper (u64 has no stable `checked_shl` by
/// amount > 63 semantics we want here).
trait SaturatingShl {
    fn saturating_shl(self, shift: u32) -> Self;
}

impl SaturatingShl for u64 {
    fn saturating_shl(self, shift: u32) -> Self {
        if shift >= 64 {
            return u64::MAX;
        }
        self.checked_shl(shift).unwrap_or(u64::MAX)
    }
}

/// Delivery model of the control-plane bus. The default is a transparent
/// passthrough (zero delay, zero faults, retries and leases off).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BusConfig {
    /// PRNG seed for bus-level faults (independent of the
    /// [`FaultPlan`](crate::FaultPlan) stream).
    pub seed: u64,
    /// Base delivery delay in ticks (0 = same-tick delivery).
    pub delay_ticks: u64,
    /// Uniform extra delay in `[0, jitter_ticks]` per copy.
    pub jitter_ticks: u64,
    /// Per-message probability the grant is dropped by the bus itself
    /// (composes with the plan-level `message_loss_prob`).
    pub drop_prob: f64,
    /// Per-message probability a second copy of the grant is enqueued
    /// (with its own delay draw).
    pub duplicate_prob: f64,
    /// Per-copy probability the copy is held back an extra
    /// [`BusConfig::reorder_extra_ticks`], letting later grants overtake
    /// it.
    pub reorder_prob: f64,
    /// Extra delay applied to reordered copies, in ticks.
    pub reorder_extra_ticks: u64,
    /// Budget-lease duration in ticks; 0 disables leases. When enabled,
    /// a grant accepted at tick `t` authorizes the dynamic cap until
    /// `t + lease_ticks`; an expired lease reverts the child to its
    /// local static cap.
    pub lease_ticks: u64,
    /// Retransmission policy for unacknowledged grants.
    pub retry: RetryConfig,
}

impl Default for BusConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            delay_ticks: 0,
            jitter_ticks: 0,
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_prob: 0.0,
            reorder_extra_ticks: 2,
            lease_ticks: 0,
            retry: RetryConfig::default(),
        }
    }
}

impl BusConfig {
    /// A transparent bus (the default).
    pub fn passthrough() -> Self {
        Self::default()
    }

    /// Whether delivery is instantaneous and fault-free (no delay, no
    /// jitter, no drop/duplicate/reorder). A passthrough bus draws no
    /// random numbers and delivers every grant inside the sending epoch.
    pub fn is_passthrough(&self) -> bool {
        self.delay_ticks == 0
            && self.jitter_ticks == 0
            && self.drop_prob == 0.0
            && self.duplicate_prob == 0.0
            && self.reorder_prob == 0.0
    }

    /// Whether leases are enabled.
    pub fn leases_enabled(&self) -> bool {
        self.lease_ticks > 0
    }

    /// Clamps probabilities into `[0, 1]` (non-finite → 0) and sanitizes
    /// the retry policy.
    pub fn sanitized(mut self) -> Self {
        let clean = |v: f64| {
            if v.is_finite() {
                v.clamp(0.0, 1.0)
            } else {
                0.0
            }
        };
        self.drop_prob = clean(self.drop_prob);
        self.duplicate_prob = clean(self.duplicate_prob);
        self.reorder_prob = clean(self.reorder_prob);
        self.retry = self.retry.sanitized();
        self
    }

    /// Builder: sets the bus PRNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder: sets base delay and jitter.
    pub fn with_delay(mut self, delay_ticks: u64, jitter_ticks: u64) -> Self {
        self.delay_ticks = delay_ticks;
        self.jitter_ticks = jitter_ticks;
        self
    }

    /// Builder: sets the bus-level drop probability.
    pub fn with_drop(mut self, prob: f64) -> Self {
        self.drop_prob = prob;
        self
    }

    /// Builder: sets the duplication probability.
    pub fn with_duplication(mut self, prob: f64) -> Self {
        self.duplicate_prob = prob;
        self
    }

    /// Builder: sets the reorder probability and penalty.
    pub fn with_reordering(mut self, prob: f64, extra_ticks: u64) -> Self {
        self.reorder_prob = prob;
        self.reorder_extra_ticks = extra_ticks;
        self
    }

    /// Builder: enables leases of the given duration.
    pub fn with_leases(mut self, lease_ticks: u64) -> Self {
        self.lease_ticks = lease_ticks;
        self
    }

    /// Builder: enables retransmission.
    pub fn with_retry(mut self, retry: RetryConfig) -> Self {
        self.retry = retry;
        self
    }
}

/// Handle for one registered grantor→child edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct LinkId(pub usize);

/// A sequence-numbered budget grant in flight on the bus.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GrantMsg {
    /// The edge this grant travels.
    pub link: LinkId,
    /// Sender-assigned sequence number (monotone per link, starts at 1).
    pub seq: u64,
    /// The granted budget in watts.
    pub watts: f64,
}

/// What the bus tells its owner after processing due traffic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BusEvent {
    /// A fresh grant was accepted by the receiver; the owner must apply
    /// it (write the granted cap, start the lease, emit telemetry).
    Delivered(GrantMsg),
    /// A duplicated copy arrived after its sequence number was already
    /// accepted; the receiver dropped it.
    Duplicate(GrantMsg),
    /// A stale (overtaken) grant arrived; the receiver rejected it.
    Stale {
        /// The rejected message.
        msg: GrantMsg,
        /// The sequence number the receiver had already accepted.
        accepted: u64,
    },
    /// The sender re-transmitted an unacknowledged grant.
    Retry {
        /// The retransmitted message.
        msg: GrantMsg,
        /// Retransmission attempt (1 = first retry).
        attempt: u32,
        /// Whether this copy was dropped by the bus fault model (the
        /// owner may want to count it as a lost message).
        dropped: bool,
    },
    /// The sender exhausted its retry budget and gave the grant up; if
    /// leases are enabled the receiver will fall back to its static cap
    /// when the lease lapses.
    Exhausted(GrantMsg),
}

/// One queued message (a grant, or an acknowledgement sent back while
/// retries are enabled).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct InFlight {
    /// Scheduled delivery tick.
    pub deliver_at: u64,
    /// Monotone enqueue counter; ties on `deliver_at` resolve in send
    /// order, which keeps the queue deterministic.
    pub uid: u64,
    /// Link index.
    pub link: usize,
    /// `true` for a child → grantor acknowledgement (deterministic,
    /// lossless; its one effect is clearing the sender's pending retry),
    /// `false` for a grantor → child budget grant.
    pub is_ack: bool,
    /// Sequence number.
    pub seq: u64,
    /// Payload watts (0 for an ack).
    pub watts: FloatWord,
}

/// Min-heap adapter: orders [`InFlight`] messages by `(deliver_at, uid)`
/// only — `uid` is unique, so the order is total and the heap's pop
/// sequence matches the former sorted-`Vec` front removal exactly.
#[derive(Debug, Clone, Copy)]
struct QueueEntry(InFlight);

impl PartialEq for QueueEntry {
    fn eq(&self, other: &Self) -> bool {
        (self.0.deliver_at, self.0.uid) == (other.0.deliver_at, other.0.uid)
    }
}

impl Eq for QueueEntry {}

impl PartialOrd for QueueEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for QueueEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.0.deliver_at, self.0.uid).cmp(&(other.0.deliver_at, other.0.uid))
    }
}

/// Sender-side retransmission state for the newest unacked grant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Pending {
    /// Sequence number of the unacked grant.
    pub seq: u64,
    /// Granted watts.
    pub watts: FloatWord,
    /// Retransmissions already performed.
    pub attempts: u32,
    /// Tick the next retry timer fires.
    pub next_retry_at: u64,
}

/// Per-link state machine: sender sequence/retry state plus receiver
/// acceptance state. Checkpointed as columns through
/// [`LinkStates`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinkState {
    /// Next sequence number the sender will assign (first grant is 1).
    pub next_seq: u64,
    /// Highest sequence number the receiver has accepted (0 = none).
    pub accepted_seq: u64,
    /// The newest unacknowledged grant, if retries are enabled.
    pub pending: Option<Pending>,
}

/// The deterministic control-plane bus.
///
/// The owner registers links with [`ControlBus::register_link`], routes
/// every grant through [`ControlBus::send_into`] (or [`ControlBus::send`],
/// or [`ControlBus::send_at_once`] where the bus delivers at once),
/// and calls [`ControlBus::poll_into`] to collect due deliveries,
/// duplicate/stale rejections, and retransmissions. With the default
/// passthrough config, `send_into` behaves exactly like a direct write.
#[derive(Debug, Clone)]
pub struct ControlBus {
    cfg: BusConfig,
    rng: StdRng,
    links: Vec<LinkState>,
    /// In-flight messages, min-heap on `(deliver_at, uid)`.
    queue: BinaryHeap<Reverse<QueueEntry>>,
    /// Retransmission timers, min-heap on `(next_retry_at, link)` with
    /// lazy deletion: entries whose link no longer holds a matching due
    /// pending grant are discarded on pop. Every (re)arm of a link's
    /// `next_retry_at` pushes exactly one entry, so a live pending's
    /// timer is always present.
    retry_timers: BinaryHeap<Reverse<(u64, usize)>>,
    /// Number of links whose `pending` is `Some` (O(1) idle check).
    pending_count: usize,
    next_uid: u64,
    /// Diagnostic: link examinations performed while firing retries
    /// (one per popped timer entry, or per link in the reference scan).
    /// An idle tick performs zero.
    link_scans: u64,
    /// Scratch list of due links for [`ControlBus::fire_retries`], kept
    /// between polls so the retry pass does not allocate. Always empty
    /// outside that call.
    due_scratch: Vec<usize>,
}

impl ControlBus {
    /// Bus PRNG domain-separation constant (`"nps_bus"` in ASCII-ish).
    const SEED_SALT: u64 = 0x6e70_735f_6275_7300;

    /// Builds a bus from a (sanitized) config.
    pub fn new(cfg: &BusConfig) -> Self {
        let cfg = cfg.clone().sanitized();
        Self {
            rng: StdRng::seed_from_u64(cfg.seed ^ Self::SEED_SALT),
            cfg,
            links: Vec::new(),
            queue: BinaryHeap::new(),
            retry_timers: BinaryHeap::new(),
            pending_count: 0,
            next_uid: 0,
            link_scans: 0,
            due_scratch: Vec::new(),
        }
    }

    /// The sanitized config the bus runs with.
    pub fn config(&self) -> &BusConfig {
        &self.cfg
    }

    /// Registers one grantor→child edge and returns its handle. Link ids
    /// are dense and assigned in registration order.
    pub fn register_link(&mut self) -> LinkId {
        self.links.push(LinkState::default());
        LinkId(self.links.len() - 1)
    }

    /// Number of registered links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    /// Highest sequence number the receiver on `link` has accepted
    /// (0 = none yet).
    pub fn accepted_seq(&self, link: LinkId) -> u64 {
        self.links[link.0].accepted_seq
    }

    /// True when nothing is in flight and no retransmission is pending —
    /// polling an idle bus is a no-op. O(1): the queue is a heap and the
    /// pending links are counted, so the per-tick idle check no longer
    /// walks every link.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty() && self.pending_count == 0
    }

    /// Link examinations performed while firing retransmission timers
    /// since the bus was built. Stays flat across idle ticks (an idle
    /// poll touches no link at all); the linear reference scan grows it
    /// by `num_links` per poll round instead.
    pub fn link_scans(&self) -> u64 {
        self.link_scans
    }

    /// Sets this link's pending slot, keeping the count and the timer
    /// heap in sync with the invariant that a live `next_retry_at`
    /// always has a heap entry.
    fn arm_pending(&mut self, link: usize, pending: Pending) {
        if self.links[link].pending.is_none() {
            self.pending_count += 1;
        }
        self.retry_timers
            .push(Reverse((pending.next_retry_at, link)));
        self.links[link].pending = Some(pending);
    }

    /// Clears this link's pending slot (ack or retry exhaustion). The
    /// timer heap entry is left behind and discarded lazily.
    fn clear_pending(&mut self, link: usize) {
        if self.links[link].pending.take().is_some() {
            self.pending_count -= 1;
        }
    }

    /// Sends one grant on `link` at tick `now`.
    ///
    /// `plan_lost` is the *plan-level* message-loss verdict (drawn by the
    /// owner from the [`FaultPlan`](crate::FaultPlan) stream so legacy
    /// fault sequences replay unchanged); the bus adds its own drop draw
    /// on top. Returns the assigned sequence number and whether any copy
    /// was actually enqueued (`false` = the grant was lost outright; the
    /// retry machinery, if enabled, will still chase it).
    pub fn send(&mut self, link: LinkId, watts: f64, now: u64, plan_lost: bool) -> (u64, bool) {
        let seq = self.next_grant(link.0, watts, now);
        if plan_lost {
            return (seq, false);
        }
        let enqueued = self.transmit(link.0, seq, watts, now);
        (seq, enqueued)
    }

    /// Sends one grant and processes everything due at `now`: exactly
    /// [`ControlBus::send`] followed by [`ControlBus::poll_into`]`(now,
    /// events)` — same events, same state, same RNG draws.
    ///
    /// When nothing queued and no retransmission timer is due by `now`,
    /// the copies this send makes due at `now` are the first (and, with
    /// their acks, the only) traffic the poll would pop, in uid order. They
    /// are received here without touching the heap: each copy and ack
    /// still takes its uid, so `next_uid`, `accepted_seq` and the pending
    /// retry state end where the queued path leaves them. Copies due later
    /// are queued as usual. A bus with earlier traffic due takes the
    /// queued path.
    #[inline]
    pub fn send_into(
        &mut self,
        link: LinkId,
        watts: f64,
        now: u64,
        plan_lost: bool,
        events: &mut Vec<BusEvent>,
    ) -> (u64, bool) {
        if !self.quiet_at(now) {
            return self.send_then_poll(link, watts, now, plan_lost, events);
        }
        events.clear();
        let link = link.0;
        let seq = self.next_grant(link, watts, now);
        if plan_lost {
            return (seq, false);
        }
        let Some((first, duplicate)) = self.draw_copies(now) else {
            return (seq, false);
        };
        // Uids in send order: the first copy, then the duplicate. The
        // queued path pops every due copy before the acks they spawn (the
        // acks' uids are larger), so receive first, then ack.
        let mut due = 0;
        for at in std::iter::once(first).chain(duplicate) {
            if at > now {
                self.enqueue(at, link, false, seq, watts);
            } else {
                events.push(self.accept_due(link, seq, watts));
                due += 1;
            }
        }
        if self.cfg.retry.enabled() {
            for _ in 0..due {
                if self.cfg.delay_ticks == 0 {
                    self.next_uid += 1;
                    self.receive_ack(link, seq);
                } else {
                    self.enqueue(now + self.cfg.delay_ticks, link, true, seq, 0.0);
                }
            }
        }
        // The retry timer this send armed lies at least one tick ahead
        // (backoff >= 1), so the poll would find nothing further due.
        debug_assert!(self.quiet_at(now));
        (seq, true)
    }

    /// Whether every grant falls due at its send tick as one copy and is
    /// never retried: a passthrough bus (no delay, jitter, drop,
    /// duplication or reordering) with retries off. A property of the
    /// config, fixed when the bus is built.
    #[inline]
    pub fn delivers_at_once(&self) -> bool {
        self.cfg.is_passthrough() && !self.cfg.retry.enabled()
    }

    /// [`ControlBus::send_into`] for a bus that
    /// [`delivers_at_once`](ControlBus::delivers_at_once) and is
    /// [`quiet_at`](ControlBus::quiet_at) `now`, with no event buffer:
    /// the grant takes its sequence number and, unless `plan_lost`, its
    /// uid, and the receiver judges it in place. Returns the receiver's
    /// verdict (`Delivered` unless restored state says otherwise), or
    /// `None` for a lost grant. A sender that checks both conditions once
    /// may send a whole batch this way: such a send queues nothing and
    /// arms no timer, so the bus stays quiet.
    #[inline]
    pub fn send_at_once(
        &mut self,
        link: LinkId,
        watts: f64,
        now: u64,
        plan_lost: bool,
    ) -> Option<BusEvent> {
        debug_assert!(self.delivers_at_once() && self.quiet_at(now));
        let seq = self.next_grant(link.0, watts, now);
        (!plan_lost).then(|| self.accept_due(link.0, seq, watts))
    }

    /// One grant copy due at its send tick: it takes its uid and the
    /// receiver judges it at once. The due-now step shared by
    /// [`ControlBus::send_into`] and [`ControlBus::send_at_once`].
    #[inline]
    fn accept_due(&mut self, link: usize, seq: u64, watts: f64) -> BusEvent {
        self.next_uid += 1;
        self.receive_grant(link, seq, watts)
    }

    /// The queued path of [`ControlBus::send_into`], kept out of line so
    /// the inlined due-now path stays small.
    #[inline(never)]
    fn send_then_poll(
        &mut self,
        link: LinkId,
        watts: f64,
        now: u64,
        plan_lost: bool,
        events: &mut Vec<BusEvent>,
    ) -> (u64, bool) {
        let sent = self.send(link, watts, now, plan_lost);
        self.poll_into(now, events);
        sent
    }

    /// True when no queued message and no retransmission timer (live or
    /// stale) is due at or before `now`, so a poll at `now` would find
    /// nothing to do.
    #[inline]
    pub fn quiet_at(&self, now: u64) -> bool {
        let queue_due =
            matches!(self.queue.peek(), Some(Reverse(QueueEntry(m))) if m.deliver_at <= now);
        let timer_due = matches!(self.retry_timers.peek(), Some(&Reverse((at, _))) if at <= now);
        !queue_due && !timer_due
    }

    /// Sender side of a fresh grant: assigns the link's next sequence
    /// number and, with retries on, arms its retransmission timer.
    #[inline]
    fn next_grant(&mut self, link: usize, watts: f64, now: u64) -> u64 {
        let state = &mut self.links[link];
        state.next_seq += 1;
        let seq = state.next_seq;
        if self.cfg.retry.enabled() {
            let backoff = self.cfg.retry.backoff(1);
            let jitter = self.jitter(self.cfg.retry.jitter_ticks);
            self.arm_pending(
                link,
                Pending {
                    seq,
                    watts: FloatWord(watts),
                    attempts: 0,
                    next_retry_at: now + backoff + jitter,
                },
            );
        }
        seq
    }

    /// Enqueues one transmission attempt (plus a possible duplicate).
    /// Returns `false` when the bus dropped the copy.
    fn transmit(&mut self, link: usize, seq: u64, watts: f64, now: u64) -> bool {
        let Some((first, duplicate)) = self.draw_copies(now) else {
            return false;
        };
        self.enqueue(first, link, false, seq, watts);
        if let Some(at) = duplicate {
            self.enqueue(at, link, false, seq, watts);
        }
        true
    }

    /// Draws one transmission attempt's fate: `None` when the bus drops
    /// it, otherwise the delivery tick of the copy and of its duplicate,
    /// if any.
    #[inline]
    fn draw_copies(&mut self, now: u64) -> Option<(u64, Option<u64>)> {
        if self.cfg.drop_prob > 0.0 && self.rng.gen_bool(self.cfg.drop_prob) {
            return None;
        }
        let duplicate = self.cfg.duplicate_prob > 0.0 && self.rng.gen_bool(self.cfg.duplicate_prob);
        let first = now + self.copy_delay();
        Some((first, duplicate.then(|| now + self.copy_delay())))
    }

    /// Delay of one message copy: base + jitter + reorder penalty.
    #[inline]
    fn copy_delay(&mut self) -> u64 {
        let mut delay = self.cfg.delay_ticks + self.jitter(self.cfg.jitter_ticks);
        if self.cfg.reorder_prob > 0.0 && self.rng.gen_bool(self.cfg.reorder_prob) {
            delay += self.cfg.reorder_extra_ticks;
        }
        delay
    }

    /// Uniform draw in `[0, bound]`; draws nothing when `bound == 0`.
    #[inline]
    fn jitter(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.rng.gen_range(0..bound + 1)
        }
    }

    /// Queues one grant copy, or an ack when `is_ack`.
    fn enqueue(&mut self, deliver_at: u64, link: usize, is_ack: bool, seq: u64, watts: f64) {
        let uid = self.next_uid;
        self.next_uid += 1;
        self.queue.push(Reverse(QueueEntry(InFlight {
            deliver_at,
            uid,
            link,
            is_ack,
            seq,
            watts: FloatWord(watts),
        })));
    }

    /// Processes all traffic due at or before `now` and returns the
    /// events in a fresh vector. A convenience wrapper over
    /// [`ControlBus::poll_into`], which hot loops should call instead.
    pub fn poll(&mut self, now: u64) -> Vec<BusEvent> {
        let mut events = Vec::new();
        self.poll_into(now, &mut events);
        events
    }

    /// Processes all traffic due at or before `now`: delivers grants
    /// (enforcing sequence-number acceptance), routes acks, and fires
    /// expired retransmission timers. Messages spawned during the poll
    /// (acks, zero-delay retries) that come due at `now` are processed in
    /// the same call.
    ///
    /// `events` is cleared and then filled in order, so a caller that
    /// reuses one buffer polls without allocating once it has grown to
    /// the largest batch.
    pub fn poll_into(&mut self, now: u64, events: &mut Vec<BusEvent>) {
        events.clear();
        loop {
            let progressed = self.deliver_due(now, events) | self.fire_retries(now, events);
            if !progressed {
                break;
            }
        }
    }

    /// The pre-heap poll algorithm: identical delivery, but the
    /// retransmission pass scans every link per round instead of popping
    /// the timer heap. Kept (hidden) as the reference implementation for
    /// differential tests — it maintains the same state, so a bus driven
    /// through `poll_reference` and one driven through [`ControlBus::
    /// poll`] must emit bit-identical event schedules forever.
    #[doc(hidden)]
    pub fn poll_reference(&mut self, now: u64) -> Vec<BusEvent> {
        let mut events = Vec::new();
        loop {
            let progressed =
                self.deliver_due(now, &mut events) | self.fire_retries_linear(now, &mut events);
            if !progressed {
                break;
            }
        }
        events
    }

    /// Delivers queued messages due at `now`; returns whether anything
    /// was processed.
    fn deliver_due(&mut self, now: u64, events: &mut Vec<BusEvent>) -> bool {
        let mut progressed = false;
        while let Some(&Reverse(QueueEntry(msg))) = self.queue.peek() {
            if msg.deliver_at > now {
                break;
            }
            self.queue.pop();
            progressed = true;
            if msg.is_ack {
                self.receive_ack(msg.link, msg.seq);
                continue;
            }
            events.push(self.receive_grant(msg.link, msg.seq, msg.watts.0));
            // With retries on, every delivery is acknowledged (duplicates
            // and stale copies too: the ack names the copy's own sequence
            // number, and the sender ignores acks for anything but its
            // pending grant). Acks are deterministic and lossless — the
            // asymmetry keeps the fault model focused on the downstream
            // grant channel. With retries off no pending grant exists for
            // an ack to clear, and an ack draws no randomness and yields
            // no event.
            if self.cfg.retry.enabled() {
                self.enqueue(now + self.cfg.delay_ticks, msg.link, true, msg.seq, 0.0);
            }
        }
        progressed
    }

    /// Receiver side of one grant copy: accepts a fresh sequence number,
    /// rejects a duplicate or an overtaken one, and reports which.
    #[inline]
    fn receive_grant(&mut self, link: usize, seq: u64, watts: f64) -> BusEvent {
        let grant = GrantMsg {
            link: LinkId(link),
            seq,
            watts,
        };
        let accepted = self.links[link].accepted_seq;
        if seq > accepted {
            self.links[link].accepted_seq = seq;
            BusEvent::Delivered(grant)
        } else if seq == accepted {
            BusEvent::Duplicate(grant)
        } else {
            BusEvent::Stale {
                msg: grant,
                accepted,
            }
        }
    }

    /// Sender side of one ack: clears the retry state of the grant it
    /// names, if that grant is still the pending one.
    fn receive_ack(&mut self, link: usize, seq: u64) {
        if self.links[link].pending.is_some_and(|p| p.seq == seq) {
            self.clear_pending(link);
        }
    }

    /// Fires retransmission timers due at `now` by draining the timer
    /// heap; returns whether any retry was attempted. Pops every due
    /// entry, discards the stale ones (lazy deletion), dedupes, and
    /// fires the survivors in ascending link order — exactly the order
    /// the linear reference scan fires them, so the RNG draw sequence is
    /// preserved bit-for-bit.
    fn fire_retries(&mut self, now: u64, events: &mut Vec<BusEvent>) -> bool {
        if !self.cfg.retry.enabled() {
            return false;
        }
        let mut due = std::mem::take(&mut self.due_scratch);
        while let Some(&Reverse((at, link))) = self.retry_timers.peek() {
            if at > now {
                break;
            }
            self.retry_timers.pop();
            self.link_scans += 1;
            // Live = the link still has a pending grant whose timer is
            // due. (A stale entry may pop alongside a live one for the
            // same link — e.g. an acked grant's timer followed by a
            // fresh send's — hence the dedup.)
            let live = self.links[link]
                .pending
                .is_some_and(|p| p.next_retry_at <= now);
            if live && !due.contains(&link) {
                due.push(link);
            }
        }
        let progressed = !due.is_empty();
        due.sort_unstable();
        for &link in &due {
            self.fire_link_retry(link, now, events);
        }
        due.clear();
        self.due_scratch = due;
        progressed
    }

    /// The reference retransmission pass: a full scan over every link in
    /// index order, as the pre-heap bus did. Maintains the timer heap on
    /// re-arm so heap-driven polls can take over at any point.
    fn fire_retries_linear(&mut self, now: u64, events: &mut Vec<BusEvent>) -> bool {
        if !self.cfg.retry.enabled() {
            return false;
        }
        let mut progressed = false;
        for link in 0..self.links.len() {
            self.link_scans += 1;
            let due = self.links[link]
                .pending
                .is_some_and(|p| p.next_retry_at <= now);
            if !due {
                continue;
            }
            progressed = true;
            self.fire_link_retry(link, now, events);
        }
        progressed
    }

    /// Fires one due link: either gives the grant up (retry budget
    /// exhausted) or re-arms the backoff timer and retransmits. The
    /// caller guarantees the link's pending grant is due at `now`.
    fn fire_link_retry(&mut self, link: usize, now: u64, events: &mut Vec<BusEvent>) {
        let pending = self.links[link]
            .pending
            .expect("fire_link_retry requires a due pending grant");
        let msg = GrantMsg {
            link: LinkId(link),
            seq: pending.seq,
            watts: pending.watts.0,
        };
        if pending.attempts >= self.cfg.retry.max_attempts {
            self.clear_pending(link);
            events.push(BusEvent::Exhausted(msg));
            return;
        }
        let attempt = pending.attempts + 1;
        let backoff = self.cfg.retry.backoff(attempt + 1);
        let jitter = self.jitter(self.cfg.retry.jitter_ticks);
        self.arm_pending(
            link,
            Pending {
                attempts: attempt,
                next_retry_at: now + backoff.max(1) + jitter,
                ..pending
            },
        );
        // Retries re-enter the bus fault model (drop/duplicate/delay)
        // but not the plan-level loss draw: the FaultPlan stream must
        // replay identically whether or not retries are enabled.
        let enqueued = self.transmit(link, pending.seq, pending.watts.0, now);
        events.push(BusEvent::Retry {
            msg,
            attempt,
            dropped: !enqueued,
        });
    }

    /// Captures the bus's full dynamic state for checkpointing. The
    /// queue is serialized in canonical `(deliver_at, uid)` order — the
    /// heap's internal layout never leaks into the checkpoint, so
    /// snapshots stay byte-identical across thread counts and poll
    /// algorithms.
    pub fn snapshot(&self) -> BusSnapshot {
        let mut queue: Vec<InFlight> = self.queue.iter().map(|&Reverse(QueueEntry(m))| m).collect();
        queue.sort_unstable_by_key(|m| (m.deliver_at, m.uid));
        BusSnapshot {
            rng: self.rng.state().to_vec(),
            next_uid: self.next_uid,
            links: LinkStates(self.links.clone()),
            queue,
        }
    }

    /// Checks that `snap` has this bus's shape: exactly four PRNG state
    /// words, one link entry per registered link, every in-flight
    /// message on a registered link, and no queued ack on a bus without
    /// retries (which never sends one). [`ControlBus::restore`] takes the
    /// link list wholesale and indexes links by the queued entries, so a
    /// caller restoring untrusted state checks this first; otherwise a
    /// short RNG array keeps part of the stale state and a bad link
    /// index panics when the message comes due.
    pub fn fits(&self, snap: &BusSnapshot) -> Result<(), String> {
        if snap.rng.len() != 4 {
            return Err(format!(
                "bus RNG state has {} words, expected 4",
                snap.rng.len()
            ));
        }
        let links = self.links.len();
        if snap.links.len() != links {
            return Err(format!(
                "bus snapshot has {} links, this bus registers {links}",
                snap.links.len()
            ));
        }
        if let Some(m) = snap.queue.iter().find(|m| m.link >= links) {
            return Err(format!(
                "in-flight message uid {} names link {} of {links}",
                m.uid, m.link
            ));
        }
        if !self.cfg.retry.enabled() {
            if let Some(m) = snap.queue.iter().find(|m| m.is_ack) {
                return Err(format!(
                    "in-flight ack uid {} on a bus without retries",
                    m.uid
                ));
            }
        }
        Ok(())
    }

    /// Restores state captured by [`ControlBus::snapshot`]. The bus must
    /// have the same links registered (same topology/config; see
    /// [`ControlBus::fits`]). The retry timer heap and the pending count
    /// are rebuilt from the live pending grants (one timer each — stale
    /// entries never reach a checkpoint).
    pub fn restore(&mut self, snap: &BusSnapshot) {
        let mut rng_state = [0u64; 4];
        rng_state.copy_from_slice(&snap.rng);
        self.rng = StdRng::from_state(rng_state);
        self.next_uid = snap.next_uid;
        self.links.clone_from(&snap.links);
        self.pending_count = self.links.iter().filter(|l| l.pending.is_some()).count();
        self.retry_timers = self
            .links
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.pending.map(|p| Reverse((p.next_retry_at, i))))
            .collect();
        self.queue = snap.queue.iter().map(|&m| Reverse(QueueEntry(m))).collect();
    }
}

/// The bus's full dynamic state (checkpoint section).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BusSnapshot {
    /// PRNG state words.
    pub rng: Vec<u64>,
    /// Enqueue counter.
    pub next_uid: u64,
    /// Per-link state, registration order (written as word columns).
    pub links: LinkStates,
    /// In-flight queue, delivery order.
    pub queue: Vec<InFlight>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deliveries(events: &[BusEvent]) -> Vec<(usize, u64, f64)> {
        events
            .iter()
            .filter_map(|e| match e {
                BusEvent::Delivered(m) => Some((m.link.0, m.seq, m.watts)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn passthrough_delivers_same_tick_in_order() {
        let mut bus = ControlBus::new(&BusConfig::default());
        let a = bus.register_link();
        let b = bus.register_link();
        bus.send(a, 100.0, 5, false);
        bus.send(b, 200.0, 5, false);
        let events = bus.poll(5);
        assert_eq!(deliveries(&events), vec![(0, 1, 100.0), (1, 1, 200.0)]);
        assert!(bus.is_idle());
    }

    #[test]
    fn passthrough_draws_no_randomness() {
        let mut bus = ControlBus::new(&BusConfig::default());
        let rng_before = format!("{:?}", bus.rng);
        let link = bus.register_link();
        for t in 0..50 {
            bus.send(link, t as f64, t, false);
            bus.poll(t);
        }
        assert_eq!(format!("{:?}", bus.rng), rng_before);
    }

    #[test]
    fn send_into_delivers_due_copies_without_queueing() {
        let retrying = BusConfig::default().with_retry(RetryConfig {
            max_attempts: 2,
            ..RetryConfig::default()
        });
        let mut bus = ControlBus::new(&retrying);
        let link = bus.register_link();
        let mut events = Vec::new();
        assert_eq!(bus.send_into(link, 90.0, 4, false, &mut events), (1, true));
        assert_eq!(deliveries(&events), vec![(0, 1, 90.0)]);
        // The copy and its ack each took a uid, and the ack cleared the
        // retry state, without either entering the queue.
        assert_eq!(bus.next_uid, 2);
        assert!(bus.queue.is_empty());
        assert!(bus.is_idle());
    }

    #[test]
    fn plan_lost_grant_is_not_enqueued() {
        let mut bus = ControlBus::new(&BusConfig::default());
        let link = bus.register_link();
        let (seq, enqueued) = bus.send(link, 100.0, 0, true);
        assert_eq!(seq, 1);
        assert!(!enqueued);
        assert!(bus.poll(0).is_empty());
        // The sequence number is still consumed: the next grant overtakes
        // the lost one.
        let (seq, _) = bus.send(link, 120.0, 1, false);
        assert_eq!(seq, 2);
        assert_eq!(deliveries(&bus.poll(1)), vec![(0, 2, 120.0)]);
    }

    #[test]
    fn delayed_delivery_waits_for_its_tick() {
        let cfg = BusConfig::default().with_delay(3, 0);
        let mut bus = ControlBus::new(&cfg);
        let link = bus.register_link();
        bus.send(link, 50.0, 10, false);
        assert!(bus.poll(10).is_empty());
        assert!(bus.poll(12).is_empty());
        assert_eq!(deliveries(&bus.poll(13)), vec![(0, 1, 50.0)]);
    }

    #[test]
    fn stale_grant_is_rejected_after_overtake() {
        // First grant reordered (held back), second arrives first.
        let cfg = BusConfig::default();
        let mut bus = ControlBus::new(&cfg);
        let link = bus.register_link();
        // Hand-construct the overtake deterministically: enqueue seq 1
        // with delay, then seq 2 without.
        bus.links[link.0].next_seq = 1;
        bus.enqueue(5, link.0, false, 1, 100.0);
        bus.links[link.0].next_seq = 2;
        bus.enqueue(3, link.0, false, 2, 120.0);
        let events = bus.poll(3);
        assert_eq!(deliveries(&events), vec![(0, 2, 120.0)]);
        let events = bus.poll(5);
        assert!(deliveries(&events).is_empty());
        assert!(matches!(
            events[0],
            BusEvent::Stale {
                msg: GrantMsg { seq: 1, .. },
                accepted: 2,
            }
        ));
        assert_eq!(bus.accepted_seq(link), 2);
    }

    #[test]
    fn duplicate_copy_is_dropped_by_receiver() {
        let cfg = BusConfig::default().with_duplication(1.0);
        let mut bus = ControlBus::new(&cfg);
        let link = bus.register_link();
        bus.send(link, 75.0, 0, false);
        let events = bus.poll(0);
        assert_eq!(deliveries(&events), vec![(0, 1, 75.0)]);
        assert!(events
            .iter()
            .any(|e| matches!(e, BusEvent::Duplicate(GrantMsg { seq: 1, .. }))));
    }

    #[test]
    fn dropped_grant_is_retried_until_exhausted() {
        let cfg = BusConfig {
            drop_prob: 1.0,
            ..BusConfig::default()
        }
        .with_retry(RetryConfig {
            max_attempts: 3,
            backoff_base_ticks: 2,
            backoff_max_ticks: 16,
            jitter_ticks: 0,
        });
        let mut bus = ControlBus::new(&cfg);
        let link = bus.register_link();
        let (_, enqueued) = bus.send(link, 90.0, 0, false);
        assert!(!enqueued, "drop_prob=1 drops the first copy");
        let mut retries = 0;
        let mut exhausted = false;
        for t in 0..200 {
            for e in bus.poll(t) {
                match e {
                    BusEvent::Retry { dropped, .. } => {
                        assert!(dropped);
                        retries += 1;
                    }
                    BusEvent::Exhausted(m) => {
                        assert_eq!(m.seq, 1);
                        exhausted = true;
                    }
                    other => panic!("unexpected {other:?}"),
                }
            }
        }
        assert_eq!(retries, 3);
        assert!(exhausted);
        assert!(bus.is_idle());
    }

    #[test]
    fn retry_stops_after_ack() {
        let cfg = BusConfig::default().with_retry(RetryConfig {
            max_attempts: 5,
            backoff_base_ticks: 4,
            backoff_max_ticks: 64,
            jitter_ticks: 0,
        });
        let mut bus = ControlBus::new(&cfg);
        let link = bus.register_link();
        bus.send(link, 90.0, 0, false);
        // Same-tick delivery and ack: the pending slot clears immediately,
        // so no retry ever fires.
        let events = bus.poll(0);
        assert_eq!(deliveries(&events), vec![(0, 1, 90.0)]);
        for t in 1..100 {
            assert!(bus.poll(t).is_empty());
        }
        assert!(bus.is_idle());
    }

    #[test]
    fn acks_ride_the_bus_only_when_retries_are_enabled() {
        let retrying = BusConfig::default().with_retry(RetryConfig {
            max_attempts: 2,
            ..RetryConfig::default()
        });
        for (cfg, msgs_per_grant) in [(BusConfig::default(), 1), (retrying, 2)] {
            let mut bus = ControlBus::new(&cfg);
            let link = bus.register_link();
            for t in 0..10 {
                bus.send(link, 80.0 + t as f64, t, false);
                assert_eq!(deliveries(&bus.poll(t)), vec![(0, t + 1, 80.0 + t as f64)]);
                assert!(bus.is_idle());
            }
            assert_eq!(bus.next_uid, 10 * msgs_per_grant, "{cfg:?}");
        }
    }

    #[test]
    fn queued_acks_are_rejected_on_a_bus_without_retries() {
        // A retry-less bus never sends an ack, so a checkpoint with one
        // in flight is not this bus's state; with retries the same queue
        // fits.
        let retrying = BusConfig::default()
            .with_delay(2, 0)
            .with_retry(RetryConfig {
                max_attempts: 2,
                ..RetryConfig::default()
            });
        let mut source = ControlBus::new(&retrying);
        let link = source.register_link();
        source.send(link, 60.0, 0, false);
        assert_eq!(deliveries(&source.poll(2)), vec![(0, 1, 60.0)]);
        let snap = source.snapshot();
        assert!(snap.queue.iter().any(|m| m.is_ack));

        let mut same = ControlBus::new(&retrying);
        same.register_link();
        same.fits(&snap).expect("a retrying bus queues acks");
        let mut plain = ControlBus::new(&BusConfig::default().with_delay(2, 0));
        plain.register_link();
        let err = plain.fits(&snap).expect_err("no acks without retries");
        assert!(err.contains("ack"), "{err}");
    }

    #[test]
    fn poll_into_replaces_the_buffer_contents() {
        let mut bus = ControlBus::new(&BusConfig::default());
        let links: Vec<LinkId> = (0..4).map(|_| bus.register_link()).collect();
        let mut events = Vec::new();
        for t in 0..3 {
            for &l in &links {
                bus.send(l, 10.0 * t as f64, t, false);
            }
            bus.poll_into(t, &mut events);
            assert_eq!(events.len(), links.len(), "tick {t}");
        }
        let capacity = events.capacity();
        bus.poll_into(3, &mut events);
        assert!(events.is_empty());
        assert_eq!(events.capacity(), capacity);
    }

    #[test]
    fn backoff_grows_exponentially_and_clamps() {
        let retry = RetryConfig {
            max_attempts: 10,
            backoff_base_ticks: 2,
            backoff_max_ticks: 12,
            jitter_ticks: 0,
        };
        assert_eq!(retry.backoff(1), 2);
        assert_eq!(retry.backoff(2), 4);
        assert_eq!(retry.backoff(3), 8);
        assert_eq!(retry.backoff(4), 12); // clamped
        assert_eq!(retry.backoff(63), 12);
    }

    #[test]
    fn same_seed_same_schedule() {
        let cfg = BusConfig {
            seed: 42,
            delay_ticks: 1,
            jitter_ticks: 3,
            drop_prob: 0.2,
            duplicate_prob: 0.2,
            reorder_prob: 0.3,
            reorder_extra_ticks: 4,
            ..BusConfig::default()
        };
        let mut a = ControlBus::new(&cfg);
        let mut b = ControlBus::new(&cfg);
        let la = a.register_link();
        let lb = b.register_link();
        for t in 0..300 {
            a.send(la, t as f64, t, false);
            b.send(lb, t as f64, t, false);
            assert_eq!(a.poll(t), b.poll(t));
        }
    }

    #[test]
    fn heap_poll_matches_linear_reference_poll() {
        // Drive two identical buses through the heap-based poll and the
        // pre-heap full-link scan: every event schedule must match. The
        // proptest in tests/bus_properties.rs fuzzes this over arbitrary
        // fault plans; this is the deterministic smoke version.
        let cfg = BusConfig {
            seed: 11,
            delay_ticks: 1,
            jitter_ticks: 2,
            drop_prob: 0.3,
            duplicate_prob: 0.15,
            reorder_prob: 0.25,
            reorder_extra_ticks: 3,
            lease_ticks: 12,
            retry: RetryConfig {
                max_attempts: 4,
                backoff_base_ticks: 2,
                backoff_max_ticks: 16,
                jitter_ticks: 1,
            },
        };
        let mut heap = ControlBus::new(&cfg);
        let mut linear = ControlBus::new(&cfg);
        for _ in 0..3 {
            heap.register_link();
            linear.register_link();
        }
        for t in 0..400 {
            if t % 7 == 0 {
                let link = LinkId((t as usize / 7) % 3);
                heap.send(link, t as f64, t, false);
                linear.send(link, t as f64, t, false);
            }
            assert_eq!(heap.poll(t), linear.poll_reference(t), "tick {t}");
        }
        assert_eq!(heap.snapshot(), linear.snapshot());
    }

    #[test]
    fn idle_poll_performs_zero_link_scans() {
        let cfg = BusConfig::default()
            .with_delay(1, 0)
            .with_retry(RetryConfig {
                max_attempts: 3,
                backoff_base_ticks: 2,
                backoff_max_ticks: 8,
                jitter_ticks: 0,
            });
        let mut bus = ControlBus::new(&cfg);
        let links: Vec<LinkId> = (0..16).map(|_| bus.register_link()).collect();
        for &l in &links {
            bus.send(l, 50.0, 0, false);
        }
        // Drain until every grant is delivered and acked.
        let mut t = 0;
        while !bus.is_idle() {
            bus.poll(t);
            t += 1;
            assert!(t < 1_000, "bus failed to drain");
        }
        let scans_when_draining = bus.link_scans();
        for quiet in t..t + 500 {
            assert!(bus.poll(quiet).is_empty());
        }
        assert_eq!(
            bus.link_scans(),
            scans_when_draining,
            "an idle tick must not examine any link"
        );
    }

    #[test]
    fn snapshot_roundtrip_resumes_identically() {
        let cfg = BusConfig {
            seed: 7,
            delay_ticks: 2,
            jitter_ticks: 2,
            drop_prob: 0.3,
            duplicate_prob: 0.2,
            reorder_prob: 0.2,
            reorder_extra_ticks: 3,
            lease_ticks: 10,
            retry: RetryConfig {
                max_attempts: 4,
                backoff_base_ticks: 2,
                backoff_max_ticks: 32,
                jitter_ticks: 1,
            },
        };
        let mut live = ControlBus::new(&cfg);
        let link = live.register_link();
        for t in 0..40 {
            live.send(link, 10.0 + t as f64, t, false);
            live.poll(t);
        }
        // Serialize mid-stream, restore into a fresh bus, and check both
        // produce identical futures.
        let json = serde_json::to_string(&live.snapshot()).unwrap();
        let snap: BusSnapshot = serde_json::from_str(&json).unwrap();
        let mut resumed = ControlBus::new(&cfg);
        resumed.register_link();
        resumed.restore(&snap);
        for t in 40..120 {
            live.send(link, t as f64, t, false);
            resumed.send(link, t as f64, t, false);
            assert_eq!(live.poll(t), resumed.poll(t));
        }
    }

    #[test]
    fn snapshot_with_pending_retries_round_trips_bit_for_bit() {
        let cfg = BusConfig {
            seed: 3,
            delay_ticks: 3,
            drop_prob: 0.5,
            retry: RetryConfig {
                max_attempts: 5,
                backoff_base_ticks: 2,
                backoff_max_ticks: 16,
                jitter_ticks: 1,
            },
            ..BusConfig::default()
        };
        let mut live = ControlBus::new(&cfg);
        let links: Vec<LinkId> = (0..4).map(|_| live.register_link()).collect();
        for t in 0..9 {
            for &link in &links {
                live.send(link, 50.0 + t as f64, t, false);
            }
            live.poll(t);
        }
        let mut snap = live.snapshot();
        let pending: Vec<usize> = (0..4)
            .filter(|&l| snap.links[l].pending.is_some())
            .collect();
        assert!(pending.len() >= 2, "retries are pending on {pending:?}");
        // A NaN with a payload survives only as its bit word.
        let nan = f64::from_bits(0x7ff8_0000_0bad_f00d);
        snap.links[pending[0]].pending.as_mut().unwrap().watts = FloatWord(nan);
        let json = serde_json::to_string(&snap).unwrap();
        let back: BusSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        for (got, want) in back.links.iter().zip(snap.links.iter()) {
            assert_eq!(got.next_seq, want.next_seq);
            assert_eq!(got.accepted_seq, want.accepted_seq);
            let bits = |l: &LinkState| {
                l.pending
                    .map(|p| (p.seq, p.watts.to_bits(), p.attempts, p.next_retry_at))
            };
            assert_eq!(bits(got), bits(want));
        }
        let watts = back.links[pending[0]].pending.unwrap().watts;
        assert_eq!(watts.to_bits(), nan.to_bits());
        let mut resumed = ControlBus::new(&cfg);
        links.iter().for_each(|_| {
            resumed.register_link();
        });
        resumed.fits(&back).unwrap();
        resumed.restore(&back);
        assert_eq!(resumed.snapshot(), snap);
    }

    #[test]
    fn sanitize_clamps_probabilities_and_backoff() {
        let cfg = BusConfig {
            drop_prob: 7.0,
            duplicate_prob: f64::NAN,
            reorder_prob: -1.0,
            retry: RetryConfig {
                max_attempts: 2,
                backoff_base_ticks: 0,
                backoff_max_ticks: 0,
                jitter_ticks: 0,
            },
            ..BusConfig::default()
        }
        .sanitized();
        assert_eq!(cfg.drop_prob, 1.0);
        assert_eq!(cfg.duplicate_prob, 0.0);
        assert_eq!(cfg.reorder_prob, 0.0);
        assert_eq!(cfg.retry.backoff_base_ticks, 1);
        assert!(cfg.retry.backoff_max_ticks >= 1);
    }

    #[test]
    fn config_roundtrips_through_json() {
        let cfg = BusConfig {
            seed: 3,
            delay_ticks: 2,
            jitter_ticks: 1,
            drop_prob: 0.1,
            duplicate_prob: 0.05,
            reorder_prob: 0.2,
            reorder_extra_ticks: 5,
            lease_ticks: 120,
            retry: RetryConfig {
                max_attempts: 6,
                backoff_base_ticks: 2,
                backoff_max_ticks: 64,
                jitter_ticks: 2,
            },
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: BusConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
    }
}
