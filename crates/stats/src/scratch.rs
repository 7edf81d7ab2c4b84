//! Thread-local scratch buffers for the allocation-free kernel paths.
//!
//! The score kernels ([`crate::score::ScoreModel::contributions_into`])
//! need per-call working memory — the Cox prefix-sum array, the unpack
//! destination for 2-bit-packed genotype columns. Executor-pool worker
//! threads persist across tasks, so a `thread_local!` buffer is allocated
//! on a worker's first kernel call and reused by every subsequent task
//! scheduled onto that thread. The reuse counter lets tasks report how
//! often they ran without touching the allocator (the analysis crate
//! reports it as its `scratch_reuses` task counter).
//!
//! The helpers are not reentrant per element type: a kernel may hold at
//! most one `f64` and one `u8` scratch slice at a time (nesting
//! `with_f64` inside `with_f64` panics on the `RefCell` borrow).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes currently held by scratch buffers across all live threads,
/// maintained by O(1) deltas at the growth sites (and a matching
/// subtraction when a worker thread dies). Feeds the engine's memory
/// ledger as the `scratch` category via a registered byte source.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

/// Bytes currently resident in thread-local scratch, process-wide.
pub fn allocated_bytes() -> u64 {
    ALLOCATED.load(Ordering::Relaxed)
}

/// A `Vec` whose byte footprint is mirrored into [`ALLOCATED`]: growth
/// adds the delta, thread teardown gives the bytes back.
struct TrackedBuf<T>(Vec<T>);

impl<T> TrackedBuf<T> {
    fn grow_to(&mut self, len: usize, zero: T)
    where
        T: Clone,
    {
        let delta = (len - self.0.len()) * std::mem::size_of::<T>();
        ALLOCATED.fetch_add(delta as u64, Ordering::Relaxed);
        self.0.resize(len, zero);
    }
}

impl<T> Drop for TrackedBuf<T> {
    fn drop(&mut self) {
        let bytes = self.0.len() * std::mem::size_of::<T>();
        ALLOCATED.fetch_sub(bytes as u64, Ordering::Relaxed);
    }
}

thread_local! {
    static F64_BUF: RefCell<TrackedBuf<f64>> = const { RefCell::new(TrackedBuf(Vec::new())) };
    static U8_BUF: RefCell<TrackedBuf<u8>> = const { RefCell::new(TrackedBuf(Vec::new())) };
    static REUSES: Cell<u64> = const { Cell::new(0) };
}

#[inline]
fn note_reuse() {
    REUSES.with(|c| c.set(c.get() + 1));
}

/// Run `f` over a zero-filled thread-local `f64` slice of length `len`.
pub(crate) fn with_f64<R>(len: usize, f: impl FnOnce(&mut [f64]) -> R) -> R {
    F64_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        if buf.0.len() >= len {
            note_reuse();
        } else {
            buf.grow_to(len, 0.0);
        }
        let slice = &mut buf.0[..len];
        slice.fill(0.0);
        f(slice)
    })
}

/// Run `f` over a zero-filled thread-local `u8` slice of length `len`
/// (the genotype unpack destination).
pub fn with_u8<R>(len: usize, f: impl FnOnce(&mut [u8]) -> R) -> R {
    U8_BUF.with(|buf| {
        let mut buf = buf.borrow_mut();
        if buf.0.len() >= len {
            note_reuse();
        } else {
            buf.grow_to(len, 0);
        }
        let slice = &mut buf.0[..len];
        slice.fill(0);
        f(slice)
    })
}

/// Scratch reuses on this thread since the last call, resetting the
/// counter. Tasks call this at completion to attribute reuse to
/// themselves; counters are thread-local, so concurrent tasks on other
/// workers never mix.
pub fn take_reuses() -> u64 {
    REUSES.with(|c| c.replace(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_use_allocates_then_reuses() {
        // Run on a dedicated thread so other tests' scratch use on this
        // thread cannot pollute the counter.
        std::thread::spawn(|| {
            let _ = take_reuses();
            with_f64(16, |s| assert_eq!(s.len(), 16));
            assert_eq!(take_reuses(), 0, "first use allocates");
            with_f64(8, |s| assert_eq!(s.len(), 8));
            with_f64(16, |s| assert_eq!(s.len(), 16));
            assert_eq!(take_reuses(), 2, "smaller or equal requests reuse");
            with_f64(32, |s| assert_eq!(s.len(), 32));
            assert_eq!(take_reuses(), 0, "growth reallocates");
        })
        .join()
        .unwrap();
    }

    #[test]
    fn buffers_are_zeroed_between_uses() {
        std::thread::spawn(|| {
            with_u8(4, |s| s.fill(7));
            with_u8(4, |s| assert_eq!(s, [0, 0, 0, 0]));
            with_f64(4, |s| s.fill(3.5));
            with_f64(4, |s| assert_eq!(s, [0.0; 4]));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn allocated_bytes_tracks_growth_and_thread_death() {
        // The counter is process-global and other tests use scratch
        // concurrently, so assert with wide margins around a deliberately
        // large allocation instead of exact equality.
        const BIG: usize = 1 << 17; // 1 MiB of f64 — dwarfs every other test
        let before = allocated_bytes();
        let held = std::thread::spawn(|| {
            with_f64(BIG, |_| {});
            with_f64(BIG / 2, |_| {}); // reuse: no new bytes
            allocated_bytes()
        })
        .join()
        .unwrap();
        assert!(
            held >= before.saturating_sub(1 << 16) + (BIG * 8) as u64,
            "growth must be accounted: {before} -> {held}"
        );
        assert!(
            allocated_bytes() <= held - (BIG * 4) as u64,
            "thread teardown must return its scratch bytes"
        );
    }

    #[test]
    fn u8_and_f64_scratch_can_nest() {
        with_u8(8, |g| {
            with_f64(8, |p| {
                assert_eq!(g.len(), p.len());
            });
        });
    }
}
