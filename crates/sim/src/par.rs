//! Persistent worker-thread pool for the rack-sharded parallel phase.
//!
//! A tick's parallel phase is short (tens of microseconds on paper-size
//! fleets), so spawning scoped threads per tick would dominate the work.
//! Instead the pool spawns its workers once and hands them one *job* at
//! a time: a closure invoked with each shard index exactly once. Each
//! participant (the workers plus the calling thread) owns a persistent
//! deque seeded with a contiguous block of shard indices; a participant
//! drains its own deque front-first and, once empty, **steals** from the
//! back of a sibling's deque. On balanced fleets every shard runs from
//! its owner's deque (good locality, zero steals); on lopsided fleets
//! the fast participants absorb the slow one's backlog instead of idling
//! at the barrier. [`WorkerPool::execute`] does not return until every
//! shard of the job has finished, which is the barrier the deterministic
//! reduction phase relies on — shard execution order is free, so
//! stealing cannot perturb bit-identity.
//!
//! Every sharded phase goes through one driver, [`for_each_shard`]: it
//! takes the phase's shard views as a lazy iterator and runs one body
//! per view — inline on the caller, in shard order, when there is no
//! pool (or a single shard), else across the pool with view `k` run by
//! the claim of shard `k`, so each participant keeps its own block of
//! shards from one phase to the next. The inline path takes no lock,
//! reads no clock, catches no panic and collects nothing, so a one-shard
//! run costs what a plain loop costs. [`Carve`] is the lazy splitter the
//! views are built from.
//!
//! This module is the only place in the workspace that uses `unsafe`:
//! a single lifetime erasure that lets workers borrow the caller's
//! stack-scoped closure for the duration of one `execute` call. The
//! rest of the crate remains `deny(unsafe_code)`.

#![allow(unsafe_code)]

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

/// The type-erased job: a borrow of the caller's `Fn(usize)` closure
/// with its lifetime erased to a raw pointer so it can sit in shared
/// state. Soundness rests on `execute` blocking until `done_shards ==
/// num_shards`, i.e. until every dereference of this pointer has
/// completed — the pointee (on the caller's stack) outlives all uses.
#[derive(Clone, Copy)]
struct Job(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared `&`-calls from many threads are
// fine) and is only dereferenced within the dynamic extent of the
// `execute` call that published it, which keeps the borrow alive.
unsafe impl Send for Job {}

/// Shard-claiming state shared between the caller and the workers.
struct State {
    /// The active job, if any. Cleared by whichever thread finishes the
    /// last shard, which is also the "job done" signal.
    job: Option<Job>,
    /// Total shards in the active job.
    num_shards: usize,
    /// Shards that have finished running.
    done_shards: usize,
    /// Shards not yet claimed from any deque (fast availability check).
    unclaimed: usize,
    /// One persistent deque per participant (index 0 is the caller,
    /// 1..threads are the workers), reseeded with contiguous shard
    /// blocks on each publish.
    deques: Vec<VecDeque<usize>>,
    /// True once any shard closure panicked (the panic is re-raised on
    /// the calling thread after the barrier).
    panicked: bool,
    /// Tells workers to exit their loop.
    shutdown: bool,
}

impl State {
    /// Claims one shard for participant `me`: front of its own deque,
    /// else the back of the first non-empty sibling deque scanning
    /// round-robin from `me + 1` (a steal). Returns the shard index and
    /// whether it was stolen.
    fn claim(&mut self, me: usize) -> Option<(usize, bool)> {
        if self.unclaimed == 0 {
            return None;
        }
        if let Some(i) = self.deques[me].pop_front() {
            self.unclaimed -= 1;
            return Some((i, false));
        }
        let n = self.deques.len();
        for d in 1..n {
            let victim = (me + d) % n;
            if let Some(i) = self.deques[victim].pop_back() {
                self.unclaimed -= 1;
                return Some((i, true));
            }
        }
        None
    }
}

struct Shared {
    state: Mutex<State>,
    /// Signalled when a new job is published (or on shutdown).
    cv_job: Condvar,
    /// Signalled when the last shard of a job completes.
    cv_done: Condvar,
    /// Shards claimed from a sibling's deque rather than the owner's,
    /// accumulated over the pool's lifetime (`busy_ns`-style counter).
    steals: AtomicU64,
}

impl Shared {
    /// Claims and runs shards of the active job until none remain to
    /// claim, then returns (releasing the lock). Shared by workers and
    /// the caller so the calling thread contributes a full worker's
    /// throughput; `me` selects the participant's own deque.
    fn run_shards<'a>(
        &'a self,
        me: usize,
        mut st: std::sync::MutexGuard<'a, State>,
        f: &dyn Fn(usize),
    ) {
        loop {
            if st.job.is_none() {
                return;
            }
            let Some((i, stolen)) = st.claim(me) else {
                return;
            };
            drop(st);
            if stolen {
                self.steals.fetch_add(1, Ordering::Relaxed);
            }
            let ok = catch_unwind(AssertUnwindSafe(|| f(i))).is_ok();
            st = self.state.lock().unwrap();
            st.done_shards += 1;
            if !ok {
                st.panicked = true;
            }
            if st.done_shards == st.num_shards {
                st.job = None;
                self.cv_done.notify_all();
            }
        }
    }
}

/// A fixed-size pool of persistent worker threads executing shard jobs
/// via per-participant deques with work stealing.
///
/// Created once per run (when `threads > 1`); each call to
/// [`WorkerPool::execute`] fans one closure out over shard indices
/// `0..num_shards` and blocks until all have completed. The pool itself
/// carries no job state between calls, so it is irrelevant to
/// checkpointing: snapshots taken from a pooled run restore bit-exactly
/// into a sequential one and vice versa.
pub struct WorkerPool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
    threads: usize,
    /// Wall-clock nanoseconds spent inside [`WorkerPool::execute`],
    /// accumulated over the pool's lifetime. Because every parallel
    /// span in a run goes through `execute`, this is the run's total
    /// parallel-phase time — the complement of the sequential global
    /// phase — which the `scale` bench reports per configuration.
    busy_ns: AtomicU64,
}

impl WorkerPool {
    /// Creates a pool delivering `threads`-way parallelism: the calling
    /// thread participates in every job, so `threads - 1` workers are
    /// spawned. `threads` is clamped to at least 1 (an empty pool whose
    /// `execute` simply runs shards inline off the caller's deque).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                job: None,
                num_shards: 0,
                done_shards: 0,
                unclaimed: 0,
                deques: (0..threads).map(|_| VecDeque::new()).collect(),
                panicked: false,
                shutdown: false,
            }),
            cv_job: Condvar::new(),
            cv_done: Condvar::new(),
            steals: AtomicU64::new(0),
        });
        let handles = (1..threads)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || {
                    let mut st = shared.state.lock().unwrap();
                    loop {
                        if st.shutdown {
                            return;
                        }
                        if let Some(job) = st.job {
                            if st.unclaimed > 0 {
                                // SAFETY: see `Job` — the pointee lives
                                // until `execute` returns, and `execute`
                                // blocks until this shard is done.
                                let f = unsafe { &*job.0 };
                                shared.run_shards(me, st, f);
                                st = shared.state.lock().unwrap();
                                continue;
                            }
                        }
                        st = shared.cv_job.wait(st).unwrap();
                    }
                })
            })
            .collect();
        Self {
            shared,
            handles,
            threads,
            busy_ns: AtomicU64::new(0),
        }
    }

    /// The parallelism this pool delivers (including the caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Total wall-clock nanoseconds spent inside [`WorkerPool::execute`]
    /// since the pool was created (the run's parallel-phase time).
    pub fn busy_nanos(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    /// Shards executed by a participant other than the one whose deque
    /// they were seeded into, since the pool was created. Zero on a
    /// perfectly balanced job; grows when lopsided shard costs leave
    /// some participants idle while others still hold a backlog.
    pub fn steal_count(&self) -> u64 {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Runs `f(i)` exactly once for every `i in 0..num_shards`, spread
    /// across the pool plus the calling thread, and returns only after
    /// all invocations have completed. Panics (on the calling thread)
    /// if any shard closure panicked.
    pub fn execute(&self, num_shards: usize, f: &(dyn Fn(usize) + Sync)) {
        if num_shards == 0 {
            return;
        }
        let span = std::time::Instant::now();
        // SAFETY: the only unsafe act in the workspace — erasing the
        // closure's borrow lifetime so workers can hold it in shared
        // state. Sound because this function blocks (below) until every
        // invocation has completed, so no dereference outlives `f`.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
        };
        {
            let mut st = self.shared.state.lock().unwrap();
            debug_assert!(st.job.is_none(), "execute is not reentrant");
            st.job = Some(Job(erased));
            st.num_shards = num_shards;
            st.done_shards = 0;
            st.unclaimed = num_shards;
            st.panicked = false;
            // Seed each participant's deque with a contiguous block —
            // neighbouring shards share cache lines in the runner's
            // dense per-server arrays, and stealing from the *back*
            // keeps the owner on its own block as long as possible.
            let n = self.threads;
            for (p, dq) in st.deques.iter_mut().enumerate() {
                debug_assert!(dq.is_empty(), "stale shards left in a deque");
                dq.clear();
                dq.extend(p * num_shards / n..(p + 1) * num_shards / n);
            }
        }
        self.shared.cv_job.notify_all();
        let st = self.shared.state.lock().unwrap();
        self.shared.run_shards(0, st, f);
        let mut st = self.shared.state.lock().unwrap();
        while st.job.is_some() {
            st = self.shared.cv_done.wait(st).unwrap();
        }
        let panicked = st.panicked;
        drop(st);
        self.busy_ns
            .fetch_add(span.elapsed().as_nanos() as u64, Ordering::Relaxed);
        if panicked {
            panic!("a worker panicked during the parallel shard phase");
        }
    }
}

/// Runs `body` once per shard view that `shards` yields. Without a pool,
/// or with a single view, the views run inline on the caller in order —
/// a plain loop over views built lazily, allocating nothing. Otherwise
/// the views are carved up front into one slot per shard and the claim
/// of shard `k` runs view `k`, so [`WorkerPool::execute`]'s contiguous
/// per-participant blocks (and its steal count) refer to the same
/// servers in every phase; its barrier means every view has finished
/// when this returns.
///
/// A body writes its results into the view (typically shard-owned
/// scratch); the caller then reduces that scratch in shard order, which
/// is what keeps results independent of which participant ran which
/// view.
pub fn for_each_shard<I>(pool: Option<&WorkerPool>, shards: I, body: impl Fn(I::Item) + Sync)
where
    I: ExactSizeIterator,
    I::Item: Send,
{
    match pool {
        Some(pool) if shards.len() > 1 => {
            let slots: Vec<Mutex<Option<I::Item>>> = shards.map(|v| Mutex::new(Some(v))).collect();
            pool.execute(slots.len(), &|k| {
                let view = slots[k].lock().expect("shard slot poisoned").take();
                body(view.expect("each shard is claimed once"));
            });
        }
        _ => shards.for_each(body),
    }
}

/// Hands out the disjoint sub-slices of one slice for a sequence of
/// consecutive ranges, one at a time — the lazy splitter shard views are
/// carved with.
#[derive(Debug)]
pub struct Carve<'a, T> {
    rest: &'a mut [T],
    /// Index (in the whole slice) of `rest[0]`.
    at: usize,
}

impl<'a, T> Carve<'a, T> {
    /// Starts carving `data`.
    pub fn new(data: &'a mut [T]) -> Self {
        Self { rest: data, at: 0 }
    }

    /// The sub-slice for `range`, which must start where the previous
    /// range taken ended (at 0 for the first).
    ///
    /// # Panics
    ///
    /// Panics if `range` does not start there or runs past the end of
    /// the slice.
    #[inline]
    pub fn take(&mut self, range: Range<usize>) -> &'a mut [T] {
        assert_eq!(
            range.start, self.at,
            "shard ranges must be dense and ascending"
        );
        let (head, rest) = std::mem::take(&mut self.rest).split_at_mut(range.len());
        self.rest = rest;
        self.at = range.end;
        head
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().unwrap();
            st.shutdown = true;
        }
        self.shared.cv_job.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn every_shard_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        for shards in [1usize, 2, 3, 16, 257] {
            let counts: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
            pool.execute(shards, &|i| {
                counts[i].fetch_add(1, Ordering::SeqCst);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        }
    }

    #[test]
    fn pool_is_reusable_across_many_jobs() {
        let pool = WorkerPool::new(3);
        let total = AtomicUsize::new(0);
        for _ in 0..500 {
            pool.execute(5, &|_| {
                total.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(total.load(Ordering::SeqCst), 2500);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert!(pool.handles.is_empty());
        let total = AtomicUsize::new(0);
        pool.execute(7, &|i| {
            total.fetch_add(i, Ordering::SeqCst);
        });
        assert_eq!(total.load(Ordering::SeqCst), 21);
        assert_eq!(pool.steal_count(), 0, "a lone participant cannot steal");
    }

    #[test]
    fn zero_shards_is_a_no_op() {
        let pool = WorkerPool::new(2);
        pool.execute(0, &|_| panic!("must not run"));
    }

    #[test]
    fn more_participants_than_shards_still_covers_every_shard() {
        // Some deques get an empty block; their owners must steal or
        // idle without deadlocking the barrier.
        let pool = WorkerPool::new(8);
        for shards in [1usize, 2, 3, 5] {
            let counts: Vec<AtomicUsize> = (0..shards).map(|_| AtomicUsize::new(0)).collect();
            pool.execute(shards, &|i| {
                counts[i].fetch_add(1, Ordering::SeqCst);
            });
            assert!(counts.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        }
    }

    #[test]
    fn lopsided_shard_costs_trigger_steals() {
        // Two participants, four shards: the caller's block {0, 1}
        // starts with a slow shard, so the worker drains its own block
        // {2, 3} and then steals the caller's backlog.
        let pool = WorkerPool::new(2);
        let slow_ms = if cfg!(miri) { 5 } else { 25 };
        let ran: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
        pool.execute(4, &|i| {
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(slow_ms));
            }
            ran[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(ran.iter().all(|c| c.load(Ordering::SeqCst) == 1));
        assert!(
            pool.steal_count() >= 1,
            "the idle worker should have stolen from the slow caller's deque"
        );
    }

    #[test]
    fn for_each_shard_runs_every_view_once_with_or_without_a_pool() {
        let pool = WorkerPool::new(3);
        for pool in [None, Some(&pool)] {
            for shards in [1usize, 2, 9] {
                let mut data = vec![0usize; shards * 4];
                let mut carve = Carve::new(&mut data);
                let views = (0..shards).map(move |k| (k, carve.take(k * 4..k * 4 + 4)));
                for_each_shard(pool, views, |(k, view)| {
                    view.iter_mut().for_each(|x| *x += k + 1);
                });
                let want: Vec<usize> = (0..shards * 4).map(|i| i / 4 + 1).collect();
                assert_eq!(data, want);
            }
        }
    }

    #[test]
    fn pooled_claim_k_runs_view_k() {
        // Two participants, six shards: the caller's block is {0, 1, 2},
        // the worker's {3, 4, 5}. The barrier makes both run one shard per
        // round, so neither empties its own block early and steals, and
        // each claim must get the view of its own shard.
        let pool = WorkerPool::new(2);
        let barrier = std::sync::Barrier::new(2);
        let ran_on = std::sync::Mutex::new(vec![None; 6]);
        for_each_shard(Some(&pool), 0..6usize, |k| {
            barrier.wait();
            ran_on.lock().unwrap()[k] = Some(std::thread::current().id());
        });
        assert_eq!(pool.steal_count(), 0);
        let ran_on = ran_on.into_inner().unwrap();
        let me = Some(std::thread::current().id());
        assert!(ran_on[..3].iter().all(|t| *t == me), "{ran_on:?}");
        assert!(
            ran_on[3..].iter().all(|t| t.is_some() && *t != me),
            "{ran_on:?}"
        );
    }

    #[test]
    fn carve_hands_out_consecutive_ranges_and_rejects_gaps() {
        let mut data = [0, 1, 2, 3, 4, 5];
        let mut carve = Carve::new(&mut data);
        assert_eq!(carve.take(0..2), &[0, 1]);
        assert!(carve.take(2..2).is_empty());
        assert_eq!(carve.take(2..5), &[2, 3, 4]);
        let gap = std::panic::catch_unwind(AssertUnwindSafe(|| carve.take(6..6)));
        assert!(gap.is_err(), "a range after a gap must be refused");
    }

    #[test]
    fn worker_panic_propagates_to_caller() {
        let pool = WorkerPool::new(2);
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.execute(4, &|i| {
                if i == 2 {
                    panic!("boom");
                }
            });
        }));
        assert!(err.is_err());
        // The pool stays usable after a panicked job (any shards left
        // unclaimed by the aborted job must not leak into the next).
        let total = AtomicUsize::new(0);
        pool.execute(3, &|_| {
            total.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(total.load(Ordering::SeqCst), 3);
    }
}
