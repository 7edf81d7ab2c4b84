//! Memory ledger: the byte-economy counterpart of the span/trace plane.
//!
//! Every byte-holding subsystem registers under a typed [`MemCategory`] and
//! keeps its slot current with O(1) atomic deltas at the put/evict/free
//! sites themselves — never by scanning its own storage. Subsystems whose
//! residency is naturally owned elsewhere (DFS blocks, thread-local
//! scratch) instead register a *source* closure that [`MemoryLedger::refresh`]
//! polls; delta-maintained and polled categories share the same snapshot,
//! gauge, and ops-command surface.
//!
//! Each slot tracks current `used` bytes and a monotone `peak` high
//! watermark (`fetch_max` on every increase), so a single cheap snapshot
//! answers both "what is resident now" and "what was the worst moment".

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::Mutex;

/// Typed byte-holding categories. The order here is the canonical display
/// and snapshot order; [`MemCategory::name`] is the stable lowercase
/// identifier shared by the `sparkscore_mem_*` gauges and the ops `memory`
/// command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemCategory {
    /// Materialized RDD partitions held by the block cache.
    BlockCache,
    /// Serialized map-output buckets in the sharded shuffle store.
    ShuffleStore,
    /// Replicated blocks resident in the in-memory DFS.
    DfsBlocks,
    /// Thread-local reusable scratch buffers (capacity, not live use).
    Scratch,
}

impl MemCategory {
    /// Every category, in canonical snapshot order.
    pub const ALL: [MemCategory; 4] = [
        MemCategory::BlockCache,
        MemCategory::ShuffleStore,
        MemCategory::DfsBlocks,
        MemCategory::Scratch,
    ];

    /// Stable lowercase identifier used in gauge names and ops output.
    pub fn name(self) -> &'static str {
        match self {
            MemCategory::BlockCache => "block_cache",
            MemCategory::ShuffleStore => "shuffle_store",
            MemCategory::DfsBlocks => "dfs_blocks",
            MemCategory::Scratch => "scratch",
        }
    }
}

impl fmt::Display for MemCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One category's reading at snapshot time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemReading {
    pub category: MemCategory,
    /// Bytes resident right now.
    pub used: u64,
    /// Monotone high watermark over the ledger's lifetime.
    pub peak: u64,
}

#[derive(Default)]
struct Slot {
    used: AtomicU64,
    peak: AtomicU64,
}

type ByteSource = Box<dyn Fn() -> u64 + Send + Sync>;

/// Central byte ledger. Cheap to share (`Arc`), cheap to update (one
/// relaxed RMW per delta), deterministic to read (fixed category order).
#[derive(Default)]
pub struct MemoryLedger {
    slots: [Slot; 4],
    sources: Mutex<[Option<ByteSource>; 4]>,
}

impl MemoryLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `bytes` newly resident under `category`.
    pub fn add(&self, category: MemCategory, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let slot = &self.slots[category as usize];
        let now = slot.used.fetch_add(bytes, Ordering::Relaxed) + bytes;
        slot.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Record `bytes` freed under `category`. Saturates at zero so a
    /// mis-paired delta can never wrap the gauge to ~u64::MAX.
    pub fn sub(&self, category: MemCategory, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let _ = self.slots[category as usize].used.fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |v| Some(v.saturating_sub(bytes)),
        );
    }

    /// Register a polled byte source for a category whose residency is
    /// owned outside the delta-maintained paths (DFS blocks, scratch).
    /// Replaces any previous source for that category.
    pub fn set_source(
        &self,
        category: MemCategory,
        source: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.sources.lock()[category as usize] = Some(Box::new(source));
    }

    /// Poll every registered source into its slot (and its peak). Cheap
    /// enough for every scrape; a no-op for delta-maintained slots.
    pub fn refresh(&self) {
        let sources = self.sources.lock();
        for category in MemCategory::ALL {
            if let Some(source) = &sources[category as usize] {
                let now = source();
                let slot = &self.slots[category as usize];
                slot.used.store(now, Ordering::Relaxed);
                slot.peak.fetch_max(now, Ordering::Relaxed);
            }
        }
    }

    /// Bytes currently resident under `category`.
    pub fn used(&self, category: MemCategory) -> u64 {
        self.slots[category as usize].used.load(Ordering::Relaxed)
    }

    /// High watermark for `category` over the ledger's lifetime.
    pub fn peak(&self, category: MemCategory) -> u64 {
        self.slots[category as usize].peak.load(Ordering::Relaxed)
    }

    /// Sum of `used` across all categories.
    pub fn total_used(&self) -> u64 {
        MemCategory::ALL.iter().map(|&c| self.used(c)).sum()
    }

    /// One reading per category, in canonical order. Deterministic given
    /// a quiescent ledger.
    pub fn snapshot(&self) -> Vec<MemReading> {
        MemCategory::ALL
            .iter()
            .map(|&category| MemReading {
                category,
                used: self.used(category),
                peak: self.peak(category),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn deltas_track_used_and_peak() {
        let ledger = MemoryLedger::new();
        ledger.add(MemCategory::BlockCache, 100);
        ledger.add(MemCategory::BlockCache, 50);
        ledger.sub(MemCategory::BlockCache, 120);
        assert_eq!(ledger.used(MemCategory::BlockCache), 30);
        assert_eq!(ledger.peak(MemCategory::BlockCache), 150);
        assert_eq!(ledger.used(MemCategory::ShuffleStore), 0);
    }

    #[test]
    fn sub_saturates_at_zero() {
        let ledger = MemoryLedger::new();
        ledger.add(MemCategory::ShuffleStore, 10);
        ledger.sub(MemCategory::ShuffleStore, 1000);
        assert_eq!(ledger.used(MemCategory::ShuffleStore), 0);
        assert_eq!(ledger.peak(MemCategory::ShuffleStore), 10);
    }

    #[test]
    fn sources_poll_on_refresh_and_advance_peak() {
        let ledger = MemoryLedger::new();
        let level = Arc::new(AtomicU64::new(7));
        let src = Arc::clone(&level);
        ledger.set_source(MemCategory::DfsBlocks, move || src.load(Ordering::Relaxed));
        ledger.refresh();
        assert_eq!(ledger.used(MemCategory::DfsBlocks), 7);
        level.store(3, Ordering::Relaxed);
        ledger.refresh();
        assert_eq!(ledger.used(MemCategory::DfsBlocks), 3);
        assert_eq!(ledger.peak(MemCategory::DfsBlocks), 7);
    }

    #[test]
    fn snapshot_is_ordered_and_complete() {
        let ledger = MemoryLedger::new();
        ledger.add(MemCategory::Scratch, 5);
        let snap = ledger.snapshot();
        let names: Vec<&str> = snap.iter().map(|r| r.category.name()).collect();
        assert_eq!(
            names,
            vec!["block_cache", "shuffle_store", "dfs_blocks", "scratch"]
        );
        assert_eq!(snap[3].used, 5);
        assert_eq!(ledger.total_used(), 5);
    }

    #[test]
    fn concurrent_deltas_balance() {
        let ledger = Arc::new(MemoryLedger::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let ledger = Arc::clone(&ledger);
                scope.spawn(move || {
                    for _ in 0..1000 {
                        ledger.add(MemCategory::BlockCache, 3);
                        ledger.sub(MemCategory::BlockCache, 3);
                    }
                });
            }
        });
        assert_eq!(ledger.used(MemCategory::BlockCache), 0);
        assert!(ledger.peak(MemCategory::BlockCache) >= 3);
    }
}
