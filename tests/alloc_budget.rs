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
    let iv = cfg.intervals;
    // The first EM and GM epochs grow the reused buffers to size.
    let warm_up = iv.gm;

    let mut runner = Runner::new(&cfg);
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
