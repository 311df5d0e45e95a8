//! Property tests for the control-plane bus (nps-sim::bus) and its
//! runner integration: sequence-number acceptance must be monotone under
//! arbitrary delay/reorder/duplicate/drop schedules, lease expiry must
//! never leave a grant dangling above the static cap, and a zero-fault
//! zero-delay bus must be bit-identical to the direct-write passthrough
//! path. `send_into` must equal `send` followed by `poll_into`.

use no_power_struggles::prelude::*;
use proptest::prelude::*;

const NUM_LINKS: usize = 3;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under any fault schedule, each receiver's accepted sequence
    /// number only ever moves forward: `Delivered` events carry strictly
    /// increasing seqs per link, duplicates/stale arrivals are rejected,
    /// and the bus drains to idle once traffic stops.
    #[test]
    fn accepted_seq_never_moves_backward(
        delay in 0u64..3,
        jitter in 0u64..3,
        drop in 0.0f64..0.4,
        dup in 0.0f64..0.4,
        reorder in 0.0f64..0.5,
        extra in 0u64..4,
        attempts in 0u32..4,
        seed in 0u64..1_000,
        sends in 1u64..60,
    ) {
        let cfg = BusConfig::default()
            .with_seed(seed)
            .with_delay(delay, jitter)
            .with_drop(drop)
            .with_duplication(dup)
            .with_reordering(reorder, extra)
            .with_retry(RetryConfig {
                max_attempts: attempts,
                backoff_base_ticks: 1,
                backoff_max_ticks: 8,
                jitter_ticks: 1,
            });
        let mut bus = ControlBus::new(&cfg);
        let links: Vec<LinkId> = (0..NUM_LINKS).map(|_| bus.register_link()).collect();
        let mut last_delivered = vec![0u64; NUM_LINKS];
        let mut last_accepted = vec![0u64; NUM_LINKS];

        let check = |bus: &mut ControlBus, now: u64,
                         last_delivered: &mut Vec<u64>,
                         last_accepted: &mut Vec<u64>| {
            for ev in bus.poll(now) {
                match ev {
                    BusEvent::Delivered(m) => {
                        prop_assert!(
                            m.seq > last_delivered[m.link.0],
                            "link {} delivered seq {} after {}",
                            m.link.0, m.seq, last_delivered[m.link.0]
                        );
                        last_delivered[m.link.0] = m.seq;
                    }
                    BusEvent::Duplicate(m) => prop_assert!(
                        m.seq <= last_delivered[m.link.0],
                        "duplicate of a never-delivered seq"
                    ),
                    BusEvent::Stale { msg, accepted } => prop_assert!(
                        msg.seq < accepted,
                        "stale rejection of a non-overtaken seq"
                    ),
                    BusEvent::Retry { .. } | BusEvent::Exhausted(_) => {}
                }
            }
            for (k, link) in links.iter().enumerate() {
                let acc = bus.accepted_seq(*link);
                prop_assert!(acc >= last_accepted[k], "accepted seq regressed");
                prop_assert_eq!(acc, last_delivered[k],
                    "accepted seq must track delivered grants");
                last_accepted[k] = acc;
            }
            Ok(())
        };

        for t in 0..sends {
            let link = links[(t as usize) % NUM_LINKS];
            let watts = 100.0 + t as f64;
            bus.send(link, watts, t, false);
            check(&mut bus, t, &mut last_delivered, &mut last_accepted)?;
        }
        // Drain: enough ticks for any delayed/reordered/retried copy.
        for t in sends..sends + 200 {
            check(&mut bus, t, &mut last_delivered, &mut last_accepted)?;
        }
        prop_assert!(bus.is_idle(), "bus must drain once traffic stops");
    }

    /// Runner-level lease invariant: at every checkpointable boundary,
    /// an unleased grant slot is unlimited (the static cap binds) and a
    /// leased slot's effective cap never exceeds the local static cap —
    /// i.e. expiry never strands a cap above `min(lease, CAP_LOC)`.
    #[test]
    fn lease_expiry_never_strands_a_cap(
        drop in 0.0f64..0.5,
        delay in 0u64..3,
        lease in 5u64..40,
        seed in 0u64..100,
    ) {
        let bus = BusConfig::default()
            .with_seed(seed)
            .with_delay(delay, 1)
            .with_drop(drop)
            .with_reordering(0.2, 2)
            .with_leases(lease)
            .with_retry(RetryConfig {
                max_attempts: 2,
                backoff_base_ticks: 2,
                backoff_max_ticks: 8,
                jitter_ticks: 1,
            });
        let cfg = Scenario::paper(
            SystemKind::BladeA,
            Mix::Hh60,
            CoordinationMode::Coordinated,
        )
        .horizon(150)
        .seed(seed)
        .bus(bus)
        .build();
        let mut runner = Runner::new(&cfg);
        while runner.ticks_done() < 150 {
            for _ in 0..10 {
                runner.tick();
            }
            let snap = runner.snapshot();
            let now = runner.ticks_done();
            for (i, (&cap, &until)) in snap
                .ecsm
                .bank
                .granted_cap
                .iter()
                .zip(&snap.ecsm.bank.lease_until)
                .enumerate()
            {
                if until == u64::MAX {
                    prop_assert_eq!(
                        cap, f64::INFINITY,
                        "server {} unleased but cap {} still granted at tick {}",
                        i, cap, now
                    );
                } else {
                    prop_assert!(
                        cap.is_finite(),
                        "server {} leased an unlimited grant", i
                    );
                }
            }
            for (e, em) in snap.managers.ems.iter().enumerate() {
                if em.lease_until == u64::MAX {
                    prop_assert_eq!(
                        em.granted_cap.0, f64::INFINITY,
                        "enclosure {} unleased but still capped", e
                    );
                }
            }
        }
        // The fault machinery actually engaged (leases only lapse when a
        // refresh is lost or late, so only require it under real drop).
        if drop > 0.2 {
            let f = runner.fault_stats();
            prop_assert!(
                f.messages_lost + f.grant_retries + f.leases_expired > 0,
                "fault schedule produced no bus activity"
            );
        }
    }

    /// Retry backoff cannot outlast a controller outage: when an EM
    /// outage window is longer than the worst-case retransmission
    /// horizon (`max_attempts * backoff_max_ticks` plus jitter) *and*
    /// the lease length, every member lease under that enclosure must
    /// lapse — retries buy latency tolerance, not liveness — and the
    /// static-cap fallback must engage. The whole interaction stays
    /// bit-deterministic.
    #[test]
    fn outage_outlives_max_backoff_and_lapses_leases(
        drop in 0.05f64..0.4,
        attempts in 1u32..4,
        backoff_max in 4u64..12,
        lease in 10u64..30,
        seed in 0u64..200,
    ) {
        // Worst-case retransmission horizon plus the lease, then slack:
        // the outage strictly outlives any retry schedule.
        let retry_horizon = attempts as u64 * (backoff_max + 1);
        let outage_len = lease + retry_horizon + 60;
        let start = 100u64;
        let bus = BusConfig::default()
            .with_seed(seed)
            .with_drop(drop)
            .with_leases(lease)
            .with_retry(RetryConfig {
                max_attempts: attempts,
                backoff_base_ticks: 1,
                backoff_max_ticks: backoff_max,
                jitter_ticks: 1,
            });
        let cfg = Scenario::paper(
            SystemKind::BladeA,
            Mix::Hh60,
            CoordinationMode::Coordinated,
        )
        .horizon(start + outage_len + 100)
        .seed(seed)
        .bus(bus)
        .faults(
            FaultPlan::disabled()
                .with_seed(seed ^ 0xb0f)
                .with_outage(ControllerLayer::Em, None, start, start + outage_len),
        )
        .build();
        let mut runner = Runner::new(&cfg);
        let stats = runner.run_to_horizon();
        let f = runner.fault_stats();
        prop_assert!(
            f.leases_expired > 0,
            "outage of {} ticks (retry horizon {}, lease {}) lapsed no lease",
            outage_len, retry_horizon, lease
        );
        prop_assert!(f.outage_epochs > 0, "the outage skipped no epochs");
        // With leases configured the static-cap latch stays out of the
        // way (it only fires lease-free); expiry itself is the fallback.
        prop_assert_eq!(f.degradations, 0, "lease path must own the fallback");
        // Mid-outage, past every possible retry and lease: every
        // *enclosure member* must be unleased again (reverted to its
        // static cap). Standalone servers are granted by the GM, which
        // is online, so their leases legitimately stay fresh.
        let mut probe = Runner::new(&cfg);
        while probe.ticks_done() < start + lease + retry_horizon + 30 {
            probe.tick();
        }
        let standalone: Vec<usize> = cfg
            .topology
            .standalone_servers()
            .iter()
            .map(|s| s.index())
            .collect();
        let snap = probe.snapshot();
        for (i, &until) in snap.ecsm.bank.lease_until.iter().enumerate() {
            if standalone.contains(&i) {
                continue;
            }
            prop_assert!(
                until == u64::MAX,
                "member {} still holds a lease (until {}) at tick {} mid-outage",
                i, until, probe.ticks_done()
            );
        }
        // Determinism: an identical rerun reproduces the same bytes.
        let mut rerun = Runner::new(&cfg);
        let stats2 = rerun.run_to_horizon();
        prop_assert_eq!(stats, stats2);
        prop_assert_eq!(f, rerun.fault_stats());
    }

    /// A zero-fault zero-delay bus — even with retries armed and leases
    /// far beyond the horizon — is bit-identical to the passthrough
    /// direct-write path.
    #[test]
    fn zero_fault_bus_matches_passthrough_bit_exactly(seed in 0u64..50) {
        let base = Scenario::paper(
            SystemKind::ServerB,
            Mix::H60,
            CoordinationMode::Coordinated,
        )
        .horizon(200)
        .seed(seed);

        let passthrough = base.clone().build();
        let armed = base
            .bus(
                BusConfig::default()
                    .with_seed(seed ^ 0xdead)
                    .with_leases(100_000)
                    .with_retry(RetryConfig {
                        max_attempts: 3,
                        backoff_base_ticks: 1,
                        backoff_max_ticks: 8,
                        jitter_ticks: 0,
                    }),
            )
            .build();

        let mut a = Runner::new(&passthrough);
        let mut b = Runner::new(&armed);
        let sa = a.run_to_horizon();
        let sb = b.run_to_horizon();
        prop_assert_eq!(sa, sb, "armed-but-quiet bus diverged from passthrough");
        prop_assert_eq!(a.fault_stats(), b.fault_stats());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The expiry-heap bus must deliver a bit-identical accept / retry /
    /// lease schedule to the pre-heap linear scan: two buses built from
    /// the same config, fed the same send schedule, one polled through
    /// the heap path and one through the hidden linear reference, emit
    /// the exact same event stream at every tick and drain together.
    #[test]
    fn heap_bus_matches_linear_scan_bit_exactly(
        delay in 0u64..3,
        jitter in 0u64..3,
        drop in 0.0f64..0.4,
        dup in 0.0f64..0.3,
        reorder in 0.0f64..0.5,
        extra in 0u64..4,
        attempts in 0u32..4,
        lease in 0u64..30,
        seed in 0u64..1_000,
        sends in 1u64..60,
        plan_lost_mask in 0u64..u64::MAX,
    ) {
        let cfg = BusConfig::default()
            .with_seed(seed)
            .with_delay(delay, jitter)
            .with_drop(drop)
            .with_duplication(dup)
            .with_reordering(reorder, extra)
            .with_leases(lease)
            .with_retry(RetryConfig {
                max_attempts: attempts,
                backoff_base_ticks: 1,
                backoff_max_ticks: 8,
                jitter_ticks: 1,
            });
        let mut heap = ControlBus::new(&cfg);
        let mut linear = ControlBus::new(&cfg);
        for _ in 0..NUM_LINKS {
            heap.register_link();
            linear.register_link();
        }
        for t in 0..sends + 200 {
            if t < sends {
                let link = LinkId((t as usize) % NUM_LINKS);
                let watts = 100.0 + t as f64;
                // Same plan-level loss verdict on both sides (the owner
                // draws it from the fault plan, outside the bus).
                let plan_lost = (plan_lost_mask >> (t % 64)) & 1 == 1;
                let a = heap.send(link, watts, t, plan_lost);
                let b = linear.send(link, watts, t, plan_lost);
                prop_assert_eq!(a, b, "send verdicts diverged at tick {}", t);
            }
            let ea = heap.poll(t);
            let eb = linear.poll_reference(t);
            prop_assert_eq!(ea, eb, "event schedules diverged at tick {}", t);
            prop_assert_eq!(heap.is_idle(), linear.is_idle());
        }
        prop_assert!(heap.is_idle(), "bus must drain once traffic stops");
        // Same end state too: a checkpoint of either is interchangeable.
        prop_assert_eq!(heap.snapshot(), linear.snapshot());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `send_into` is exactly `send` then `poll_into` at the send tick:
    /// two buses built from the same config are fed the same random
    /// schedule of sends (several links, several per tick, some lost by
    /// the plan), polls and tick advances — one sends through `send_into`,
    /// the other through `send` + `poll_into` — and after every step they
    /// must report the same events and verdicts and hold the same state.
    /// Zero base delay, zero jitter and retries are drawn often, so both
    /// the due-now delivery and the queued path run.
    #[test]
    fn send_into_matches_send_then_poll(
        delay_raw in 0u64..5,
        jitter_raw in 0u64..4,
        drop in 0.0f64..0.4,
        dup in 0.0f64..0.6,
        reorder in 0.0f64..0.5,
        extra in 0u64..4,
        attempts in 0u32..4,
        backoff in 1u64..3,
        retry_jitter in 0u64..2,
        lease in 0u64..20,
        seed in 0u64..1_000,
        steps in prop::collection::vec((0u8..7, 0usize..NUM_LINKS, 0u8..8), 1..160),
    ) {
        let cfg = BusConfig::default()
            .with_seed(seed)
            .with_delay(delay_raw.saturating_sub(2), jitter_raw.saturating_sub(1))
            .with_drop(drop)
            .with_duplication(dup)
            .with_reordering(reorder, extra)
            .with_leases(lease)
            .with_retry(RetryConfig {
                max_attempts: attempts,
                backoff_base_ticks: backoff,
                backoff_max_ticks: 8,
                jitter_ticks: retry_jitter,
            });
        let mut direct = ControlBus::new(&cfg);
        let mut queued = ControlBus::new(&cfg);
        for _ in 0..NUM_LINKS {
            direct.register_link();
            queued.register_link();
        }
        // Reused buffers, as the runner reuses one: each call must
        // replace what the previous one left.
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        let mut now = 0u64;
        let same = |a: &ControlBus, b: &ControlBus, ea: &[BusEvent], eb: &[BusEvent], step: usize|
            -> Result<(), TestCaseError> {
            prop_assert_eq!(ea, eb, "events diverged at step {}", step);
            prop_assert_eq!(a.snapshot(), b.snapshot(), "state diverged at step {}", step);
            prop_assert_eq!(a.link_scans(), b.link_scans(), "link scans diverged at step {}", step);
            prop_assert_eq!(a.is_idle(), b.is_idle());
            Ok(())
        };
        for (step, &(op, link, draw)) in steps.iter().enumerate() {
            match op {
                0..=3 => {
                    let watts = 100.0 + step as f64;
                    let plan_lost = draw == 0;
                    let a = direct.send_into(LinkId(link), watts, now, plan_lost, &mut ea);
                    let b = queued.send(LinkId(link), watts, now, plan_lost);
                    queued.poll_into(now, &mut eb);
                    prop_assert_eq!(a, b, "send verdicts diverged at step {}", step);
                }
                4 => {
                    direct.poll_into(now, &mut ea);
                    queued.poll_into(now, &mut eb);
                }
                _ => {
                    // Advance without polling: traffic due in between is
                    // overdue at the next send, which must then take the
                    // queued path.
                    now += u64::from(draw % 3) + 1;
                    ea.clear();
                    eb.clear();
                }
            }
            same(&direct, &queued, &ea, &eb, step)?;
        }
        for t in now..now + 200 {
            direct.poll_into(t, &mut ea);
            queued.poll_into(t, &mut eb);
            same(&direct, &queued, &ea, &eb, steps.len())?;
        }
        prop_assert!(direct.is_idle(), "bus must drain once traffic stops");
    }
}

/// An idle tick is free: polling a bus with an empty message heap and no
/// armed retransmission timer examines zero links, no matter how many
/// links are registered. (The pre-heap drain walked every link every
/// tick; `link_scans` counts exactly those examinations.)
#[test]
fn empty_heap_tick_performs_zero_link_scans() {
    let cfg = BusConfig::default().with_seed(3).with_retry(RetryConfig {
        max_attempts: 3,
        backoff_base_ticks: 2,
        backoff_max_ticks: 8,
        jitter_ticks: 0,
    });
    let mut bus = ControlBus::new(&cfg);
    let links: Vec<LinkId> = (0..64).map(|_| bus.register_link()).collect();
    for t in 0..1_000 {
        assert!(bus.poll(t).is_empty());
    }
    assert_eq!(
        bus.link_scans(),
        0,
        "idle polling must not examine any link"
    );

    // One real send arms one timer; draining it may examine that link a
    // bounded number of times (once per retry firing), never all 64 per
    // tick like the linear scan.
    bus.send(links[0], 120.0, 1_000, false);
    for t in 1_000..1_100 {
        bus.poll(t);
    }
    assert!(bus.is_idle());
    let scans = bus.link_scans();
    assert!(
        scans <= 4,
        "draining one message must examine O(due) links, saw {scans}"
    );
}

/// Bus fault counters surface in `FaultStats` and telemetry under an
/// aggressive delivery-fault schedule.
#[test]
fn bus_faults_are_counted_and_observable() {
    let bus = BusConfig::default()
        .with_seed(7)
        .with_delay(1, 2)
        .with_drop(0.3)
        .with_duplication(0.2)
        .with_reordering(0.3, 3)
        .with_leases(12)
        .with_retry(RetryConfig {
            max_attempts: 2,
            backoff_base_ticks: 2,
            backoff_max_ticks: 8,
            jitter_ticks: 1,
        });
    let cfg = Scenario::paper(SystemKind::BladeA, Mix::Hh60, CoordinationMode::Coordinated)
        .horizon(400)
        .seed(11)
        .bus(bus)
        .build();
    let mut runner = Runner::new(&cfg);
    runner.enable_ring_telemetry(1 << 20);
    let stats = runner.run_to_horizon();
    assert!(stats.energy.is_finite() && stats.energy > 0.0);
    let f = runner.fault_stats();
    assert!(f.grant_retries > 0, "drops must trigger retransmissions");
    assert!(f.leases_expired > 0, "lost refreshes must lapse leases");
    let ring = runner.ring_telemetry().expect("ring installed");
    assert!(ring.count(EventKind::GrantRetry) > 0);
    assert!(ring.count(EventKind::LeaseExpired) > 0);
    assert_eq!(ring.count(EventKind::GrantRetry), f.grant_retries);
    assert_eq!(ring.count(EventKind::LeaseExpired), f.leases_expired);
}
