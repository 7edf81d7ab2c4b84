//! Persistent work-stealing executor pool and lock-free task result slots
//! (DESIGN.md §3c).
//!
//! [`ExecutorPool`] keeps `host_threads - 1` workers for the engine's
//! lifetime (joined on drop) and serves one published stage at a time:
//! each participant claims chunks from the front of its own index range
//! and steals halves from the back of the others'. The stage slot is only
//! ever `try_lock`ed. A driver that finds it taken — a second service
//! worker, or a task launching a nested job — runs its whole stage itself,
//! in index order, instead of queueing behind the holder; so does a
//! one-task stage, and any stage on a pool with no workers. [`TaskSlots`]
//! holds one write-once result per task index.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, TryLockError};
use std::thread::JoinHandle;

use crate::metrics::Registry;

// What a pool participant is doing right now, one relaxed store on each
// of its own transitions: an instantaneous, advisory view that the
// `sparkscore_pool_participants_*` gauges count at scrape time.
const STATE_PARKED: u8 = 0;
const STATE_RUNNING: u8 = 1;
const STATE_STEALING: u8 = 2;

/// Write-once, lock-free result slots, one per task index.
///
/// # Safety contract
///
/// * [`TaskSlots::write`] must be called **at most once per index**, and
///   never concurrently for the same index. The pool guarantees this: an
///   index is run by one thread, claimed by one CAS or looped over inline.
/// * [`TaskSlots::into_vec`] must only be called after every index has
///   been written **and** those writes happen-before the call (the pool's
///   completion counter and state mutex provide the edge).
///
/// If the stage aborts before all slots are written, the slots are leaked
/// (`MaybeUninit` never drops) — a leak, not UB, and only reachable when
/// the process is already unwinding.
pub(crate) struct TaskSlots<T> {
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
}

// SAFETY: slots are written by worker threads (T crosses threads once) and
// read back only by the driver after the completion barrier; disjoint
// indices make the cells effectively thread-owned per task.
unsafe impl<T: Send> Sync for TaskSlots<T> {}
unsafe impl<T: Send> Send for TaskSlots<T> {}

impl<T> TaskSlots<T> {
    pub(crate) fn new(n: usize) -> Self {
        TaskSlots {
            slots: (0..n)
                .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
                .collect(),
        }
    }

    /// Store the result for task `i`.
    ///
    /// # Safety
    /// `i` is in bounds, written at most once, never concurrently.
    #[inline]
    pub(crate) unsafe fn write(&self, i: usize, value: T) {
        debug_assert!(i < self.slots.len());
        (*self.slots[i].get()).write(value);
    }

    /// Take all results, in index order.
    ///
    /// # Safety
    /// Every index was written exactly once and those writes
    /// happen-before this call.
    pub(crate) unsafe fn into_vec(self) -> Vec<T> {
        self.slots
            .into_vec()
            .into_iter()
            .map(|cell| cell.into_inner().assume_init())
            .collect()
    }
}

/// Packed task range `lo..hi` (each 32 bits) owned by one participant.
/// Owners claim chunks from the front, thieves take halves from the back;
/// both are single CASes on the same word, so claims never overlap.
struct TaskRange(AtomicU64);

const LO_SHIFT: u32 = 32;
const HI_MASK: u64 = 0xffff_ffff;

#[inline]
fn pack(lo: usize, hi: usize) -> u64 {
    ((lo as u64) << LO_SHIFT) | hi as u64
}

#[inline]
fn unpack(v: u64) -> (usize, usize) {
    ((v >> LO_SHIFT) as usize, (v & HI_MASK) as usize)
}

impl TaskRange {
    fn new(lo: usize, hi: usize) -> Self {
        TaskRange(AtomicU64::new(pack(lo, hi)))
    }

    /// Owner side: claim a chunk from the front. Chunk size grows with the
    /// remaining range (amortizing CAS traffic over many tiny tasks) but
    /// stays small enough that thieves can still balance skewed stages.
    fn claim_front(&self) -> Option<(usize, usize)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let take = ((hi - lo) / 8).clamp(1, 16);
            let end = (lo + take).min(hi);
            match self.0.compare_exchange_weak(
                cur,
                pack(end, hi),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((lo, end)),
                Err(seen) => cur = seen,
            }
        }
    }

    /// Thief side: steal half of the remaining range from the back.
    fn steal_back(&self) -> Option<(usize, usize)> {
        let mut cur = self.0.load(Ordering::Acquire);
        loop {
            let (lo, hi) = unpack(cur);
            if lo >= hi {
                return None;
            }
            let take = ((hi - lo) / 2).max(1);
            let start = hi - take;
            match self.0.compare_exchange_weak(
                cur,
                pack(lo, start),
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((start, hi)),
                Err(seen) => cur = seen,
            }
        }
    }
}

/// One published stage: the type-erased task runner plus the claim state.
/// Lives on the driver's stack for the duration of `ExecutorPool::run`;
/// the retire protocol guarantees no worker holds the pointer after the
/// driver returns.
struct StageJob {
    /// Runs task index `i`. Must not unwind — the engine wraps every task
    /// body in `catch_unwind` and stores the panic as a result. The
    /// `'static` is a lie told to the type system: the borrow lives until
    /// the publishing `ExecutorPool::run` frame returns, and the retire
    /// protocol keeps every use inside that window.
    run: &'static (dyn Fn(usize) + Sync),
    ranges: Box<[TaskRange]>,
    completed: AtomicUsize,
}

/// Pointer to the driver-stack `StageJob`, shared through `PoolState`.
#[derive(Clone, Copy)]
struct JobHandle(*const StageJob);

// SAFETY: the handle only crosses threads between publish and retire;
// the driver blocks until `in_flight == 0` before invalidating it.
unsafe impl Send for JobHandle {}

struct PoolState {
    /// Bumped at every publish; workers use it to avoid re-entering a
    /// stage they already drained.
    epoch: u64,
    job: Option<JobHandle>,
    /// Workers currently holding the job pointer.
    in_flight: usize,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Workers wait here for a publish (or shutdown).
    work_cv: Condvar,
    /// The driver waits here for stage completion and in-flight drain.
    done_cv: Condvar,
    threads_alive: AtomicUsize,
    threads_spawned: AtomicUsize,
    /// Per-participant activity (`STATE_*`).
    participant_state: Box<[AtomicU8]>,
}

impl PoolShared {
    /// Lock the pool state, shrugging off poison: a panic can only occur
    /// outside the critical sections (task bodies are caught), so the
    /// state is never left inconsistent.
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn participants_in(&self, state: u8) -> usize {
        self.participant_state
            .iter()
            .filter(|s| s.load(Ordering::Relaxed) == state)
            .count()
    }

    /// Tasks not yet claimed in the published stage (0 between stages).
    fn queue_depth(&self) -> usize {
        let st = self.lock();
        // SAFETY: `job` is only Some while the publishing `run` frame is
        // alive, and the driver must take this same lock to retire it —
        // holding the lock keeps the pointer valid for the read.
        st.job.map_or(0, |h| {
            unsafe { &*h.0 }
                .ranges
                .iter()
                .map(|range| {
                    let (lo, hi) = unpack(range.0.load(Ordering::Acquire));
                    hi.saturating_sub(lo)
                })
                .sum()
        })
    }
}

/// Observability handle for the pool's thread accounting (leak and
/// per-stage-spawn regression tests). Cheap to clone; stays valid after
/// the engine is dropped.
#[derive(Clone)]
pub struct PoolDiagnostics {
    shared: Arc<PoolShared>,
}

impl PoolDiagnostics {
    /// Worker threads spawned since pool construction. A healthy pool
    /// spawns exactly once; growth here means per-stage spawning is back.
    pub fn threads_spawned(&self) -> usize {
        self.shared.threads_spawned.load(Ordering::Acquire)
    }

    /// Worker threads currently alive (0 after the owning engine drops).
    pub fn threads_alive(&self) -> usize {
        self.shared.threads_alive.load(Ordering::Acquire)
    }
}

/// The persistent executor pool. See the module docs for the protocol.
pub(crate) struct ExecutorPool {
    shared: Arc<PoolShared>,
    /// The stage slot. Its holder is participant 0, the one driver the
    /// workers serve; a driver that finds it taken runs its own stage, so
    /// no driver sleeps here and a job launched from a task cannot deadlock.
    submit: Mutex<()>,
    workers: Vec<JoinHandle<()>>,
    /// Total participants per stage: the workers plus the driver.
    participants: usize,
}

impl ExecutorPool {
    /// Build a pool with `host_threads` total execution slots: the calling
    /// driver thread plus `host_threads - 1` parked workers.
    pub(crate) fn new(host_threads: usize) -> Self {
        let host_threads = host_threads.max(1);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                in_flight: 0,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            threads_alive: AtomicUsize::new(0),
            threads_spawned: AtomicUsize::new(0),
            participant_state: (0..host_threads)
                .map(|_| AtomicU8::new(STATE_PARKED))
                .collect(),
        });
        let workers = (1..host_threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                shared.threads_alive.fetch_add(1, Ordering::AcqRel);
                shared.threads_spawned.fetch_add(1, Ordering::AcqRel);
                std::thread::Builder::new()
                    .name(format!("sparkscore-exec-{w}"))
                    .spawn(move || worker_loop(&shared, w))
                    .expect("spawn executor pool worker")
            })
            .collect();
        ExecutorPool {
            shared,
            submit: Mutex::new(()),
            workers,
            participants: host_threads,
        }
    }

    pub(crate) fn diagnostics(&self) -> PoolDiagnostics {
        PoolDiagnostics {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Register the pool's gauges in `registry`, each counted from the
    /// participants' states or the published stage's ranges when the
    /// registry renders.
    pub(crate) fn register_gauges(&self, registry: &Registry) {
        for (state, name, help) in [
            (
                STATE_RUNNING,
                "sparkscore_pool_participants_running",
                "Pool participants executing tasks at the last sample",
            ),
            (
                STATE_STEALING,
                "sparkscore_pool_participants_stealing",
                "Pool participants scanning for work at the last sample",
            ),
            (
                STATE_PARKED,
                "sparkscore_pool_participants_parked",
                "Pool participants idle at the last sample",
            ),
        ] {
            let shared = Arc::clone(&self.shared);
            registry.gauge_fn(name, help, move || shared.participants_in(state) as i64);
        }
        let shared = Arc::clone(&self.shared);
        registry.gauge_fn(
            "sparkscore_pool_queue_depth",
            "Unclaimed tasks across all participant ranges at the last sample",
            move || shared.queue_depth() as i64,
        );
    }

    /// Run `n` tasks, calling `run_task(i)` exactly once for each
    /// `i in 0..n`, and return once all have completed. `run_task` must
    /// not unwind (wrap task bodies in `catch_unwind`).
    ///
    /// A caller holding the stage slot publishes a stage of two or more
    /// tasks and runs its share as participant 0. Every other stage runs
    /// inline on the caller, in index order — as no participant when
    /// another stage holds the slot, so the participant gauges do not
    /// count it.
    pub(crate) fn run(&self, n: usize, run_task: &(dyn Fn(usize) + Sync)) {
        if n == 0 {
            return;
        }
        let slot = match self.submit.try_lock() {
            Ok(guard) => Some(guard),
            // The slot guards no data, so a poisoned one is a free one.
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        };
        if slot.is_some() && n > 1 && self.participants > 1 {
            self.run_published(n, run_task);
        } else {
            let state = slot.as_ref().map(|_| &self.shared.participant_state[0]);
            if let Some(s) = state {
                s.store(STATE_RUNNING, Ordering::Relaxed);
            }
            for i in 0..n {
                run_task(i);
            }
            if let Some(s) = state {
                s.store(STATE_PARKED, Ordering::Relaxed);
            }
        }
    }

    /// Publish a stage to the workers and run it as participant 0. The
    /// caller holds the stage slot.
    fn run_published(&self, n: usize, run_task: &(dyn Fn(usize) + Sync)) {
        assert!(n as u64 <= HI_MASK, "stage exceeds the packed-range limit");
        // SAFETY(lifetime erasure): the reference is only used between
        // publish and retire below, both inside this call, so the borrow
        // it came from is live for every use.
        let run_static: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(run_task) };
        let job = StageJob {
            run: run_static,
            ranges: split_ranges(n, self.participants),
            completed: AtomicUsize::new(0),
        };

        // Publish and wake just enough workers to cover the stage.
        {
            let mut st = self.shared.lock();
            st.epoch = st.epoch.wrapping_add(1);
            st.job = Some(JobHandle(&job as *const StageJob));
            let wake = (self.participants - 1).min(n - 1);
            if wake == self.participants - 1 {
                self.shared.work_cv.notify_all();
            } else {
                for _ in 0..wake {
                    self.shared.work_cv.notify_one();
                }
            }
        }

        // The driver is participant 0: it executes its own share (and
        // steals) before waiting, so a stage never blocks on a wakeup.
        execute_stage(&job, 0, &self.shared);

        // Wait for completion, retire the job, then drain stragglers that
        // still hold the pointer before the job leaves this stack frame.
        let done = &self.shared.done_cv;
        let mut st = done
            .wait_while(self.shared.lock(), |_| {
                job.completed.load(Ordering::Acquire) < n
            })
            .unwrap_or_else(|e| e.into_inner());
        st.job = None;
        drop(done.wait_while(st, |st| st.in_flight > 0));
    }
}

impl Drop for ExecutorPool {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.work_cv.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Split `0..n` into `participants` contiguous ranges (some possibly
/// empty); participant 0 is the driver.
fn split_ranges(n: usize, participants: usize) -> Box<[TaskRange]> {
    (0..participants)
        .map(|p| TaskRange::new(p * n / participants, (p + 1) * n / participants))
        .collect()
}

/// Drain the stage from participant `me`'s viewpoint: claim chunks from
/// the own range, then steal from the others until nothing is left.
/// Publishes the participant's running/stealing/parked transitions as it
/// goes (relaxed stores, once per claim, not per task).
fn execute_stage(job: &StageJob, me: usize, shared: &PoolShared) {
    let parts = job.ranges.len();
    let mut ran = 0usize;
    let state = &shared.participant_state[me];
    while let Some((lo, hi)) = job.ranges[me].claim_front().or_else(|| {
        state.store(STATE_STEALING, Ordering::Relaxed);
        (1..parts).find_map(|off| job.ranges[(me + off) % parts].steal_back())
    }) {
        state.store(STATE_RUNNING, Ordering::Relaxed);
        (lo..hi).for_each(job.run);
        ran += hi - lo;
    }
    state.store(STATE_PARKED, Ordering::Relaxed);
    if ran > 0 {
        job.completed.fetch_add(ran, Ordering::AcqRel);
    }
}

fn worker_loop(shared: &PoolShared, me: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let handle = {
            let mut st = shared.lock();
            loop {
                if st.shutdown {
                    shared.threads_alive.fetch_sub(1, Ordering::AcqRel);
                    return;
                }
                if let Some(h) = st.job {
                    if st.epoch != seen_epoch {
                        seen_epoch = st.epoch;
                        st.in_flight += 1;
                        break h;
                    }
                }
                st = shared.work_cv.wait(st).unwrap_or_else(|e| e.into_inner());
            }
        };
        // SAFETY: in_flight was incremented under the state lock while the
        // job was published, so the driver cannot free it until we exit.
        execute_stage(unsafe { &*handle.0 }, me, shared);
        shared.lock().in_flight -= 1;
        shared.done_cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn ranges_claim_and_steal_disjointly() {
        let r = TaskRange::new(0, 100);
        let mut seen = vec![false; 100];
        loop {
            let claimed = if seen.iter().filter(|s| **s).count() % 2 == 0 {
                r.claim_front()
            } else {
                r.steal_back()
            };
            let Some((lo, hi)) = claimed else { break };
            for (i, s) in seen.iter_mut().enumerate().take(hi).skip(lo) {
                assert!(!*s, "index {i} claimed twice");
                *s = true;
            }
        }
        assert!(seen.into_iter().all(|s| s), "every index claimed");
    }

    /// Run an `n`-task stage and check that every index ran exactly once.
    fn run_counted(pool: &ExecutorPool, n: usize) {
        let counts: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        pool.run(n, &|i| {
            counts[i].fetch_add(1, Ordering::Relaxed);
        });
        for (i, c) in counts.iter().enumerate() {
            assert_eq!(c.load(Ordering::Relaxed), 1, "task {i} of {n}");
        }
    }

    #[test]
    fn pool_runs_every_task_exactly_once() {
        let pool = ExecutorPool::new(4);
        for n in [0, 1, 2, 3, 17, 256, 1000] {
            run_counted(&pool, n);
        }
    }

    #[test]
    fn concurrent_drivers_run_every_index_exactly_once() {
        for threads in [2, 3] {
            let pool = ExecutorPool::new(threads);
            let start = std::sync::Barrier::new(4);
            std::thread::scope(|s| {
                for driver in 0..4 {
                    let (pool, start) = (&pool, &start);
                    s.spawn(move || {
                        start.wait();
                        for call in 0..200 {
                            run_counted(pool, 2 + (driver * 17 + call) % 63);
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn nested_stage_runs_inline_on_the_calling_thread() {
        let pool = ExecutorPool::new(2);
        // Both tasks meet here, so the driver and the worker run one each.
        let meet = std::sync::Barrier::new(2);
        let threads = Mutex::new(Vec::new());
        pool.run(2, &|_| {
            meet.wait();
            let me = std::thread::current().id();
            let inner = Mutex::new(Vec::new());
            pool.run(3, &|i| {
                inner.lock().unwrap().push((i, std::thread::current().id()))
            });
            // The slot is taken, so the nested stage ran here, in order.
            assert_eq!(*inner.lock().unwrap(), [(0, me), (1, me), (2, me)]);
            threads.lock().unwrap().push(me);
        });
        let threads = threads.into_inner().unwrap();
        assert_ne!(threads[0], threads[1], "the outer stage used both threads");
    }

    #[test]
    fn pool_reuses_threads_across_many_stages() {
        let pool = ExecutorPool::new(3);
        let diag = pool.diagnostics();
        for _ in 0..500 {
            let hits = AtomicUsize::new(0);
            pool.run(5, &|_| {
                hits.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(hits.load(Ordering::Relaxed), 5);
        }
        assert_eq!(diag.threads_spawned(), 2, "workers spawned exactly once");
        assert_eq!(diag.threads_alive(), 2);
        drop(pool);
        assert_eq!(diag.threads_alive(), 0, "drop joins all workers");
    }

    #[test]
    fn single_threaded_pool_runs_inline_in_order() {
        let pool = ExecutorPool::new(1);
        let order = Mutex::new(Vec::new());
        pool.run(8, &|i| order.lock().unwrap().push(i));
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
        assert_eq!(pool.diagnostics().threads_spawned(), 0);
    }

    #[test]
    fn slots_round_trip_results() {
        let slots: TaskSlots<String> = TaskSlots::new(4);
        for i in 0..4 {
            // SAFETY: unique index, single thread.
            unsafe { slots.write(i, format!("v{i}")) };
        }
        let v = unsafe { slots.into_vec() };
        assert_eq!(v, vec!["v0", "v1", "v2", "v3"]);
    }
}
