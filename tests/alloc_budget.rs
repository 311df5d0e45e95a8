//! Allocation budget of the per-tick control plane.
//!
//! Once the first EM and GM epochs have sized the runner's scratch
//! buffers, a coordinated tick must not touch the heap at all: base, SM,
//! EM and GM ticks each allocate nothing. The group cappers reallocate
//! into a reused budget buffer, grants ride the bus through a reused
//! event buffer (delivered at send time on a zero-delay bus), and the
//! tree reductions fold into stack buffers, so a regression in any of
//! them shows up here as a nonzero count.
//!
//! The counting allocator delegates to [`System`] and counts only on a
//! thread that has switched counting on, so other tests running in
//! parallel in this binary never pollute the count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use no_power_struggles::prelude::*;

struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: allocations during thread teardown must not panic.
    let _ = COUNTING.try_with(|on| {
        if on.get() {
            let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        }
    });
}

// SAFETY: every method forwards to `System` unchanged; the bookkeeping
// touches only const-initialized thread-locals, which never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations `f` makes on the calling thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    ALLOCS.with(|n| n.set(0));
    COUNTING.with(|on| on.set(true));
    f();
    COUNTING.with(|on| on.set(false));
    ALLOCS.with(|n| n.get())
}

/// The epoch class a tick's control step runs, by the slowest
/// controller whose interval divides the tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Base,
    Sm,
    Em,
    Gm,
    Vmc,
}

// `%` rather than `u64::is_multiple_of` keeps this building on the
// pinned MSRV (1.75).
#[allow(clippy::manual_is_multiple_of)]
fn class(t: u64, iv: &Intervals) -> Class {
    if t % iv.vmc == 0 {
        Class::Vmc
    } else if t % iv.gm == 0 {
        Class::Gm
    } else if t % iv.em == 0 {
        Class::Em
    } else if t % iv.sm == 0 {
        Class::Sm
    } else {
        Class::Base
    }
}

/// Ticks `cfg` to its horizon and asserts that no base, SM, EM or GM
/// tick after `warm_up` allocates. VMC ticks plan a new placement and
/// are exempt.
fn assert_ticks_allocation_free(cfg: &ExperimentConfig, warm_up: u64) {
    let iv = cfg.intervals;

    let mut runner = Runner::new(cfg);
    let mut checked = [0u64; 4];
    while runner.ticks_done() < cfg.horizon {
        let t = runner.ticks_done();
        let allocs = allocations_in(|| runner.tick());
        let c = class(t, &iv);
        if t <= warm_up || c == Class::Vmc {
            continue;
        }
        let slot = match c {
            Class::Base => 0,
            Class::Sm => 1,
            Class::Em => 2,
            Class::Gm => 3,
            Class::Vmc => unreachable!(),
        };
        assert_eq!(allocs, 0, "tick {t} ({c:?}) made {allocs} heap allocations");
        checked[slot] += 1;
    }
    assert!(
        checked.iter().all(|&n| n > 0),
        "every epoch class must be exercised: {checked:?}"
    );
}

#[test]
fn coordinated_ticks_stay_within_the_allocation_budget() {
    let cfg = Scenario::paper(
        SystemKind::BladeA,
        Mix::All180,
        CoordinationMode::Coordinated,
    )
    .horizon(1_200)
    .seed(5)
    .threads(1)
    .build();
    assert!(cfg.bus.is_passthrough() && !cfg.bus.retry.enabled());
    // The first EM and GM epochs grow the reused buffers to size.
    assert_ticks_allocation_free(&cfg, cfg.intervals.gm);
}

/// The same budget under faults, the electrical clamp and the invariant
/// monitor: sensor noise, stuck and dropped samples, jammed actuators and
/// lost grants, with the clamp deepening EC writes into thousands of
/// P-state conflicts. Counting those conflicts, the fault counters and
/// the clamp's shard views must not touch the heap either.
#[test]
fn faulty_capped_ticks_stay_within_the_allocation_budget() {
    let plan = FaultPlan::disabled()
        .with_seed(99)
        .with_sensor_noise(0.02)
        .with_stuck_sensors(0.01, 12)
        .with_dropped_samples(0.01)
        .with_stuck_actuators(0.005, 8)
        .with_message_loss(0.02);
    let cfg = Scenario::paper(
        SystemKind::ServerB,
        Mix::Hh60,
        CoordinationMode::Coordinated,
    )
    .electrical_cap(0.9)
    .invariants(true)
    .faults(plan)
    .horizon(2_000)
    .seed(5)
    .threads(1)
    .build();
    // The first EM and GM epochs grow the reused buffers to size.
    assert_ticks_allocation_free(&cfg, cfg.intervals.gm);
    let mut runner = Runner::new(&cfg);
    let stats = runner.run_to_horizon();
    assert!(stats.pstate_conflicts > 10_000, "{stats:?}");
    assert!(runner.fault_stats().actuator_blocked > 0);
}
