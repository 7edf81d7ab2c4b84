//! The block cache behind `Dataset::cache()`.
//!
//! Spark's block manager stores materialized partitions in executor storage
//! memory and silently drops the least-recently-used blocks under pressure;
//! a dropped block is transparently recomputed from lineage on next access.
//! SparkScore's Algorithm 3 relies on exactly this component: the `U` RDD is
//! cached after the observed pass and re-read by all B Monte Carlo
//! iterations (the paper's Figs 4 and 5 measure the win).
//!
//! Blocks are type-erased (`Arc<dyn Any>`); typed access is recovered by
//! downcasting in `CacheManager::get`. Each block carries the virtual
//! node it lives on, so node deaths drop the right blocks and the task
//! scheduler can prefer cache-local placement.

use std::any::Any;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use parking_lot::Mutex;
use sparkscore_cluster::NodeId;

use crate::estimate::{slice_bytes, EstimateSize};
use crate::ledger::{MemCategory, MemoryLedger};
use crate::OpId;

/// A typed view of one cached block.
pub struct CachedBlock<T> {
    pub data: Arc<Vec<T>>,
    pub node: NodeId,
}

struct Entry {
    data: Arc<dyn Any + Send + Sync>,
    bytes: u64,
    node: NodeId,
    last_used: u64,
}

#[derive(Default)]
struct CacheInner {
    marked: HashSet<OpId>,
    entries: HashMap<(OpId, usize), Entry>,
    /// Keys that were present at some point — distinguishes a first
    /// materialization from a post-loss recomputation.
    ever_present: HashSet<(OpId, usize)>,
    used_bytes: u64,
    clock: u64,
}

/// LRU block cache with a byte budget. Every byte entering or leaving the
/// cache is mirrored to the shared [`MemoryLedger`] under
/// [`MemCategory::BlockCache`], at the mutation site, while the cache lock
/// is held — the ledger never scans the cache.
pub struct CacheManager {
    inner: Mutex<CacheInner>,
    budget_bytes: u64,
    ledger: Arc<MemoryLedger>,
}

impl CacheManager {
    /// Cache over a private ledger (tests, standalone use).
    #[cfg(test)]
    fn new(budget_bytes: u64) -> Self {
        Self::with_ledger(budget_bytes, Arc::new(MemoryLedger::new()))
    }

    /// Cache mirroring its residency into a shared engine ledger.
    pub(crate) fn with_ledger(budget_bytes: u64, ledger: Arc<MemoryLedger>) -> Self {
        CacheManager {
            inner: Mutex::new(CacheInner::default()),
            budget_bytes,
            ledger,
        }
    }

    pub(crate) fn budget_bytes(&self) -> u64 {
        self.budget_bytes
    }

    pub(crate) fn used_bytes(&self) -> u64 {
        self.inner.lock().used_bytes
    }

    /// Mark an op's partitions for caching (idempotent).
    pub(crate) fn mark(&self, op: OpId) {
        self.inner.lock().marked.insert(op);
    }

    /// Stop caching an op and drop its blocks (Spark `unpersist`).
    /// Returns each dropped block's partition.
    pub(crate) fn unmark(&self, op: OpId) -> Vec<usize> {
        let mut g = self.inner.lock();
        g.marked.remove(&op);
        let keys: Vec<_> = g
            .entries
            .keys()
            .filter(|(o, _)| *o == op)
            .copied()
            .collect();
        let mut dropped = Vec::with_capacity(keys.len());
        for k in &keys {
            if let Some(e) = g.entries.remove(k) {
                g.used_bytes -= e.bytes;
                self.ledger.sub(MemCategory::BlockCache, e.bytes);
                dropped.push(k.1);
            }
        }
        dropped
    }

    pub(crate) fn is_marked(&self, op: OpId) -> bool {
        self.inner.lock().marked.contains(&op)
    }

    /// Fetch a block, bumping its recency. `None` on miss or type mismatch
    /// (a mismatch would be an engine bug; we treat it as a miss so lineage
    /// recomputes correct data rather than panicking in a task).
    pub(crate) fn get<T: Send + Sync + 'static>(
        &self,
        op: OpId,
        part: usize,
    ) -> Option<CachedBlock<T>> {
        let mut g = self.inner.lock();
        g.clock += 1;
        let clock = g.clock;
        let e = g.entries.get_mut(&(op, part))?;
        e.last_used = clock;
        let data = Arc::clone(&e.data).downcast::<Vec<T>>().ok()?;
        Some(CachedBlock { data, node: e.node })
    }

    /// Whether this exact block was ever stored (for recompute accounting).
    pub(crate) fn was_ever_present(&self, op: OpId, part: usize) -> bool {
        self.inner.lock().ever_present.contains(&(op, part))
    }

    /// Store a block on `node`. Oversized blocks (bigger than the whole
    /// budget) are not stored, like Spark's MEMORY_ONLY behaviour. Returns
    /// the blocks evicted under budget pressure to make room.
    pub(crate) fn put<T: EstimateSize + Send + Sync + 'static>(
        &self,
        op: OpId,
        part: usize,
        data: Arc<Vec<T>>,
        node: NodeId,
    ) -> Vec<(OpId, usize)> {
        let bytes = slice_bytes(&data) as u64;
        let mut g = self.inner.lock();
        if bytes > self.budget_bytes {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while g.used_bytes + bytes > self.budget_bytes {
            // Evict the least recently used block.
            let victim = g
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    if let Some(e) = g.entries.remove(&k) {
                        g.used_bytes -= e.bytes;
                        self.ledger.sub(MemCategory::BlockCache, e.bytes);
                        evicted.push(k);
                    }
                }
                None => break,
            }
        }
        g.clock += 1;
        let clock = g.clock;
        if let Some(old) = g.entries.insert(
            (op, part),
            Entry {
                data,
                bytes,
                node,
                last_used: clock,
            },
        ) {
            g.used_bytes -= old.bytes;
            self.ledger.sub(MemCategory::BlockCache, old.bytes);
        }
        g.used_bytes += bytes;
        self.ledger.add(MemCategory::BlockCache, bytes);
        g.ever_present.insert((op, part));
        evicted
    }

    /// Drop all blocks living on a dead node. Returns each lost block's
    /// identity.
    pub(crate) fn drop_node(&self, node: NodeId) -> Vec<(OpId, usize)> {
        let mut g = self.inner.lock();
        let keys: Vec<_> = g
            .entries
            .iter()
            .filter(|(_, e)| e.node == node)
            .map(|(k, _)| *k)
            .collect();
        let mut dropped = Vec::with_capacity(keys.len());
        for k in &keys {
            if let Some(e) = g.entries.remove(k) {
                g.used_bytes -= e.bytes;
                self.ledger.sub(MemCategory::BlockCache, e.bytes);
                dropped.push(*k);
            }
        }
        dropped
    }

    /// Drop the single least-recently-used block (fault injection).
    /// Returns the dropped block's identity, if any block was resident.
    pub(crate) fn drop_lru_one(&self) -> Option<(OpId, usize)> {
        let mut g = self.inner.lock();
        let victim = g
            .entries
            .iter()
            .min_by_key(|(_, e)| e.last_used)
            .map(|(k, _)| *k)?;
        if let Some(e) = g.entries.remove(&victim) {
            g.used_bytes -= e.bytes;
            self.ledger.sub(MemCategory::BlockCache, e.bytes);
        }
        Some(victim)
    }

    /// How many partitions of `op` are currently resident.
    pub(crate) fn resident_partitions(&self, op: OpId) -> usize {
        self.inner
            .lock()
            .entries
            .keys()
            .filter(|(o, _)| *o == op)
            .count()
    }

    /// Exact bytes currently resident for `op`, summed over its cached
    /// partitions.
    pub(crate) fn resident_bytes(&self, op: OpId) -> u64 {
        self.inner
            .lock()
            .entries
            .iter()
            .filter(|((o, _), _)| *o == op)
            .map(|(_, e)| e.bytes)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N0: NodeId = NodeId(0);
    const N1: NodeId = NodeId(1);

    fn block(n: usize) -> Arc<Vec<u64>> {
        Arc::new(vec![0u64; n])
    }

    #[test]
    fn mark_get_put_round_trip() {
        let c = CacheManager::new(1 << 20);
        let op = OpId(1);
        c.mark(op);
        assert!(c.is_marked(op));
        assert!(c.get::<u64>(op, 0).is_none());
        assert!(c.put(op, 0, block(10), N0).is_empty());
        let got = c.get::<u64>(op, 0).unwrap();
        assert_eq!(got.data.len(), 10);
        assert_eq!(got.node, N0);
    }

    #[test]
    fn type_mismatch_is_a_miss() {
        let c = CacheManager::new(1 << 20);
        c.put(OpId(1), 0, block(4), N0);
        assert!(c.get::<f64>(OpId(1), 0).is_none());
    }

    #[test]
    fn lru_eviction_under_budget_pressure() {
        // Budget fits ~2 of the 3 blocks.
        let one = slice_bytes(&vec![0u64; 100]) as u64;
        let c = CacheManager::new(2 * one + 8);
        c.put(OpId(1), 0, block(100), N0);
        c.put(OpId(1), 1, block(100), N0);
        // Touch partition 0 so partition 1 is the LRU victim.
        assert!(c.get::<u64>(OpId(1), 0).is_some());
        let evicted = c.put(OpId(1), 2, block(100), N0);
        assert_eq!(evicted, vec![(OpId(1), 1)], "the LRU block is the victim");
        assert_eq!(c.used_bytes(), 2 * one);
        assert!(c.get::<u64>(OpId(1), 0).is_some(), "recently used survives");
        assert!(c.get::<u64>(OpId(1), 1).is_none(), "LRU evicted");
        assert!(c.get::<u64>(OpId(1), 2).is_some());
    }

    #[test]
    fn oversized_block_not_stored() {
        let c = CacheManager::new(64);
        assert!(c.put(OpId(1), 0, block(1000), N0).is_empty());
        assert!(c.get::<u64>(OpId(1), 0).is_none());
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn ever_present_tracks_recompute_eligibility() {
        let c = CacheManager::new(1 << 20);
        assert!(!c.was_ever_present(OpId(1), 0));
        c.put(OpId(1), 0, block(1), N0);
        assert_eq!(c.drop_lru_one(), Some((OpId(1), 0)));
        assert!(c.was_ever_present(OpId(1), 0));
        assert!(c.get::<u64>(OpId(1), 0).is_none());
        assert_eq!(c.drop_lru_one(), None, "cache is empty now");
    }

    #[test]
    fn drop_node_removes_only_its_blocks() {
        let c = CacheManager::new(1 << 20);
        c.put(OpId(1), 0, block(5), N0);
        c.put(OpId(1), 1, block(5), N1);
        assert_eq!(c.drop_node(N0).len(), 1);
        assert!(c.get::<u64>(OpId(1), 0).is_none());
        assert!(c.get::<u64>(OpId(1), 1).is_some());
    }

    #[test]
    fn unpersist_drops_blocks_and_mark() {
        let c = CacheManager::new(1 << 20);
        c.mark(OpId(1));
        c.put(OpId(1), 0, block(5), N0);
        c.put(OpId(1), 1, block(5), N0);
        let mut dropped = c.unmark(OpId(1));
        dropped.sort_unstable();
        assert_eq!(dropped, vec![0, 1]);
        assert!(!c.is_marked(OpId(1)));
        assert_eq!(c.used_bytes(), 0);
    }

    #[test]
    fn put_replaces_existing_without_leaking_bytes() {
        let c = CacheManager::new(1 << 20);
        c.put(OpId(1), 0, block(100), N0);
        let used_once = c.used_bytes();
        c.put(OpId(1), 0, block(100), N0);
        assert_eq!(c.used_bytes(), used_once);
    }

    #[test]
    fn resident_partitions_counts_per_op() {
        let c = CacheManager::new(1 << 20);
        c.put(OpId(1), 0, block(1), N0);
        c.put(OpId(1), 3, block(1), N0);
        c.put(OpId(2), 0, block(1), N0);
        assert_eq!(c.resident_partitions(OpId(1)), 2);
        assert_eq!(c.resident_partitions(OpId(2)), 1);
        assert_eq!(c.resident_partitions(OpId(3)), 0);
    }

    #[test]
    fn resident_bytes_sums_per_op() {
        let c = CacheManager::new(1 << 20);
        let one = slice_bytes(&[0u64; 1]) as u64;
        c.put(OpId(1), 0, block(1), N0);
        c.put(OpId(1), 3, block(1), N0);
        c.put(OpId(2), 0, block(1), N0);
        assert_eq!(c.resident_bytes(OpId(1)), 2 * one);
        assert_eq!(c.resident_bytes(OpId(2)), one);
        assert_eq!(c.resident_bytes(OpId(3)), 0);
    }

    #[test]
    fn ledger_mirrors_every_mutation_path() {
        let ledger = Arc::new(MemoryLedger::new());
        let one = slice_bytes(&vec![0u64; 100]) as u64;
        let c = CacheManager::with_ledger(2 * one + 8, Arc::clone(&ledger));
        c.put(OpId(1), 0, block(100), N0);
        c.put(OpId(1), 1, block(100), N1);
        assert_eq!(ledger.used(MemCategory::BlockCache), c.used_bytes());
        c.put(OpId(2), 0, block(100), N0); // forces an LRU eviction
        assert_eq!(ledger.used(MemCategory::BlockCache), c.used_bytes());
        c.put(OpId(2), 0, block(100), N0); // replacement
        assert_eq!(ledger.used(MemCategory::BlockCache), c.used_bytes());
        c.drop_node(N1);
        assert_eq!(ledger.used(MemCategory::BlockCache), c.used_bytes());
        c.drop_lru_one();
        assert_eq!(ledger.used(MemCategory::BlockCache), c.used_bytes());
        c.put(OpId(3), 0, block(100), N0);
        c.unmark(OpId(3));
        assert_eq!(ledger.used(MemCategory::BlockCache), c.used_bytes());
        assert_eq!(ledger.peak(MemCategory::BlockCache), 2 * one);
    }
}
