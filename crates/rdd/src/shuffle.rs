//! Shuffle storage and key hashing.
//!
//! Wide transformations (`reduce_by_key`, `combine_by_key`, `join`) cut
//! the lineage into stages. Map-side tasks hash-partition their records
//! into one bucket per reduce partition and register the buckets here —
//! the analogue of Spark's shuffle files, which outlive the map stage so
//! reducers (and recovery) can fetch them. Buckets are type-erased; the
//! typed shuffle operators in [`crate::ops`] downcast on read.
//!
//! Hashing is deterministic (`SipHash` with fixed keys via
//! [`DefaultHasher::new`]) so partition assignment — and therefore every
//! result that depends on it — is reproducible across runs and machines.

use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};
use sparkscore_cluster::NodeId;

use crate::context::TaskCtx;
use crate::ledger::{MemCategory, MemoryLedger};
use crate::ShuffleId;

/// Number of lock shards the map-output store is split across. Map tasks
/// land on `hash(shuffle, map_part) % SHUFFLE_SHARDS`, so concurrent map
/// writers and reduce readers contend on 1/16th of the state instead of
/// one global lock.
pub const SHUFFLE_SHARDS: usize = 16;

/// Deterministic hash map: iteration order is a pure function of the keys
/// and the order they were inserted in. The shuffle operators' tables
/// iterate in this order (see `ops::shuffled`).
pub type DetHashMap<K, V> = HashMap<K, V, BuildHasherDefault<DefaultHasher>>;

/// Deterministic 64-bit hash of a key.
#[inline]
pub fn hash_key<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    h.finish()
}

/// Assigns keys to reduce partitions by hash.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HashPartitioner {
    parts: usize,
}

impl HashPartitioner {
    pub fn new(parts: usize) -> Self {
        assert!(parts > 0, "partitioner needs at least one partition");
        HashPartitioner { parts }
    }

    #[inline]
    pub fn num_partitions(&self) -> usize {
        self.parts
    }

    #[inline]
    pub fn partition<K: Hash + ?Sized>(&self, key: &K) -> usize {
        self.partition_of_hash(hash_key(key))
    }

    /// The partition of a key whose [`hash_key`] is already known.
    #[inline]
    pub fn partition_of_hash(&self, hash: u64) -> usize {
        (hash % self.parts as u64) as usize
    }
}

/// One map task's output: a bucket per reduce partition, resident on the
/// virtual node that ran the task.
struct MapOutput {
    buckets: Vec<Bucket>,
    node: NodeId,
}

impl MapOutput {
    fn bytes(&self) -> u64 {
        self.buckets.iter().map(|b| b.bytes).sum()
    }
}

/// Type-erased shuffle bucket.
pub struct Bucket {
    pub data: Arc<dyn Any + Send + Sync>,
    pub bytes: u64,
}

impl Clone for Bucket {
    fn clone(&self) -> Self {
        Bucket {
            data: Arc::clone(&self.data),
            bytes: self.bytes,
        }
    }
}

/// Type-erased description of how to (re)run one shuffle's map side.
pub struct ShuffleStage {
    pub num_map_parts: usize,
    pub num_reduce_parts: usize,
    /// Runs map task `map_part`, stores its output in the manager, and
    /// returns the buckets it stored (one per reduce partition).
    pub run_map_task: MapTaskRunner,
}

/// A shuffle's type-erased map task. It returns what it stored so inline
/// recovery can hand a reducer its bucket without re-reading the store,
/// where a concurrent fault may already have dropped the output again.
pub type MapTaskRunner = Arc<dyn Fn(usize, &TaskCtx<'_>) -> Vec<Bucket> + Send + Sync>;

/// One-call snapshot of a shuffle stage for the scheduler: its shape, the
/// map-task runner, and which map outputs are currently missing. Replaces
/// the `stage_shape` + `map_task_runner` + `missing_map_parts` triple the
/// scheduler used to make, each of which took the (now sharded) locks
/// again.
pub struct ShuffleStageInfo {
    pub num_map_parts: usize,
    pub num_reduce_parts: usize,
    /// Map partitions whose output is currently absent, ascending.
    pub missing_map_parts: Vec<usize>,
    pub run_map_task: MapTaskRunner,
}

type OutputShard = Mutex<HashMap<(ShuffleId, usize), MapOutput>>;

/// Registry of shuffle stages and their map outputs.
///
/// Stage registrations are read-mostly and live behind one `RwLock`; map
/// outputs — the hot, per-task read/write state — are sharded across
/// [`SHUFFLE_SHARDS`] independent locks keyed by `hash(shuffle,
/// map_part)`, and reducers fetch all of a partition's buckets with one
/// pass over the shards ([`ShuffleManager::get_buckets`]) instead of one
/// global-lock round-trip per map partition.
#[derive(Default)]
pub struct ShuffleManager {
    stages: RwLock<HashMap<ShuffleId, Arc<ShuffleStage>>>,
    shards: [OutputShard; SHUFFLE_SHARDS],
    /// Running total of bucket bytes across all shards, maintained by
    /// O(1) deltas at every write/cleanup site — `stored_bytes` reads this
    /// instead of scanning 16 shards.
    total_bytes: AtomicU64,
    ledger: Arc<MemoryLedger>,
}

#[inline]
fn shard_index(sid: ShuffleId, map_part: usize) -> usize {
    (hash_key(&(sid.0, map_part)) % SHUFFLE_SHARDS as u64) as usize
}

impl ShuffleManager {
    pub fn new() -> Self {
        Self::default()
    }

    /// Manager mirroring its residency into a shared engine ledger.
    pub fn with_ledger(ledger: Arc<MemoryLedger>) -> Self {
        ShuffleManager {
            ledger,
            ..Self::default()
        }
    }

    /// Bytes became resident: bump the running counter and the ledger.
    fn credit(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.total_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.ledger.add(MemCategory::ShuffleStore, bytes);
    }

    /// Bytes left the store: both mirrors go down by the same delta.
    fn debit(&self, bytes: u64) {
        if bytes == 0 {
            return;
        }
        self.total_bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.ledger.sub(MemCategory::ShuffleStore, bytes);
    }

    pub fn register(&self, sid: ShuffleId, stage: ShuffleStage) {
        self.stages.write().insert(sid, Arc::new(stage));
    }

    /// Drop the stage and all its outputs (called when the shuffle's
    /// operator is dropped — Spark's `ContextCleaner` equivalent).
    pub fn unregister(&self, sid: ShuffleId) {
        self.stages.write().remove(&sid);
        let mut freed = 0;
        for shard in &self.shards {
            shard.lock().retain(|(s, _), o| {
                let keep = *s != sid;
                if !keep {
                    freed += o.bytes();
                }
                keep
            });
        }
        self.debit(freed);
    }

    #[cfg(test)]
    fn stage_shape(&self, sid: ShuffleId) -> Option<(usize, usize)> {
        self.stages
            .read()
            .get(&sid)
            .map(|s| (s.num_map_parts, s.num_reduce_parts))
    }

    pub fn map_task_runner(&self, sid: ShuffleId) -> Option<MapTaskRunner> {
        self.stages
            .read()
            .get(&sid)
            .map(|s| Arc::clone(&s.run_map_task))
    }

    /// Everything the scheduler needs to materialize `sid`, in one
    /// snapshot: one stage-registry read plus one pass over the output
    /// shards.
    pub fn stage_info(&self, sid: ShuffleId) -> Option<ShuffleStageInfo> {
        let (num_map_parts, num_reduce_parts, runner) = {
            let stages = self.stages.read();
            let stage = stages.get(&sid)?;
            (
                stage.num_map_parts,
                stage.num_reduce_parts,
                Arc::clone(&stage.run_map_task),
            )
        };
        Some(ShuffleStageInfo {
            num_map_parts,
            num_reduce_parts,
            missing_map_parts: self.missing_in(sid, num_map_parts),
            run_map_task: runner,
        })
    }

    /// Map partitions of `sid` in `0..num_map_parts` with no stored
    /// output, ascending — one lock per shard, not per partition.
    fn missing_in(&self, sid: ShuffleId, num_map_parts: usize) -> Vec<usize> {
        let mut by_shard: [Vec<usize>; SHUFFLE_SHARDS] = Default::default();
        for m in 0..num_map_parts {
            by_shard[shard_index(sid, m)].push(m);
        }
        let mut missing = Vec::new();
        for (shard, parts) in self.shards.iter().zip(&by_shard) {
            if parts.is_empty() {
                continue;
            }
            let g = shard.lock();
            missing.extend(
                parts
                    .iter()
                    .copied()
                    .filter(|&m| !g.contains_key(&(sid, m))),
            );
        }
        missing.sort_unstable();
        missing
    }

    /// Map partitions whose output is currently absent.
    #[cfg(test)]
    fn missing_map_parts(&self, sid: ShuffleId) -> Vec<usize> {
        match self.stage_shape(sid) {
            Some((maps, _)) => self.missing_in(sid, maps),
            None => Vec::new(),
        }
    }

    /// Store one map task's buckets (one per reduce partition). Returns
    /// the bucket bytes now resident for `(sid, map_part)`, so the caller
    /// can emit a byte-accurate event.
    pub fn put_map_output(
        &self,
        sid: ShuffleId,
        map_part: usize,
        buckets: Vec<Bucket>,
        node: NodeId,
    ) -> u64 {
        let output = MapOutput { buckets, node };
        let bytes = output.bytes();
        let replaced = self.shards[shard_index(sid, map_part)]
            .lock()
            .insert((sid, map_part), output);
        if let Some(old) = replaced {
            self.debit(old.bytes());
        }
        self.credit(bytes);
        bytes
    }

    /// Batch fetch for a reducer: the `reduce_part` bucket of every map
    /// partition in `0..num_map_parts`, with one pass over the lock
    /// shards instead of one lock round-trip per map partition. A `None`
    /// entry means that map output is missing (lost or not yet produced)
    /// and the caller must recover it.
    pub fn get_buckets(
        &self,
        sid: ShuffleId,
        reduce_part: usize,
        num_map_parts: usize,
    ) -> Vec<Option<Bucket>> {
        let mut by_shard: [Vec<usize>; SHUFFLE_SHARDS] = Default::default();
        for m in 0..num_map_parts {
            by_shard[shard_index(sid, m)].push(m);
        }
        let mut out: Vec<Option<Bucket>> = (0..num_map_parts).map(|_| None).collect();
        for (shard, parts) in self.shards.iter().zip(&by_shard) {
            if parts.is_empty() {
                continue;
            }
            let g = shard.lock();
            for &m in parts {
                out[m] = g.get(&(sid, m)).map(|o| o.buckets[reduce_part].clone());
            }
        }
        out
    }

    /// Drop every map output resident on `node`. Returns how many.
    pub fn drop_node(&self, node: NodeId) -> usize {
        let mut dropped = 0;
        let mut freed = 0;
        for shard in &self.shards {
            let mut g = shard.lock();
            g.retain(|_, o| {
                let keep = o.node != node;
                if !keep {
                    dropped += 1;
                    freed += o.bytes();
                }
                keep
            });
        }
        self.debit(freed);
        dropped
    }

    /// Drop one arbitrary map output (fault injection). Deterministic
    /// choice: the smallest `(sid, map_part)` key. Returns the dropped
    /// output's identity, if any output existed.
    pub fn drop_one(&self) -> Option<(ShuffleId, usize)> {
        loop {
            let victim = self
                .shards
                .iter()
                .filter_map(|s| s.lock().keys().min().copied())
                .min()?;
            // Concurrent removal between scan and re-lock is possible;
            // retry until the chosen victim is actually ours to drop.
            if let Some(o) = self.shards[shard_index(victim.0, victim.1)]
                .lock()
                .remove(&victim)
            {
                self.debit(o.bytes());
                return Some(victim);
            }
        }
    }

    /// Total bytes held across all buckets — an O(1) read of the running
    /// counter, safe to call from hot paths and profiler ticks.
    pub fn stored_bytes(&self) -> u64 {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// The old full-scan total, kept as the ground truth the running
    /// counter is cross-checked against in tests.
    #[cfg(test)]
    fn stored_bytes_scan(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.lock().values().map(MapOutput::bytes).sum::<u64>())
            .sum()
    }

    /// Number of registered stages (diagnostics / leak tests).
    pub fn num_registered(&self) -> usize {
        self.stages.read().len()
    }

    /// Map outputs held per lock shard ([`SHUFFLE_SHARDS`] entries) — the
    /// profiler's view of how evenly the shuffle store is loaded.
    pub fn shard_occupancy(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().len()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bucket(v: Vec<u32>) -> Bucket {
        let bytes = (v.len() * 4) as u64;
        Bucket {
            data: Arc::new(v),
            bytes,
        }
    }

    /// The running counter must agree with the ground-truth shard scan
    /// after every mutation.
    fn check_counter(m: &ShuffleManager) {
        debug_assert_eq!(
            m.stored_bytes(),
            m.stored_bytes_scan(),
            "running byte counter diverged from the shard scan"
        );
    }

    fn stage(maps: usize, reduces: usize) -> ShuffleStage {
        ShuffleStage {
            num_map_parts: maps,
            num_reduce_parts: reduces,
            run_map_task: Arc::new(|_, _| Vec::new()),
        }
    }

    #[test]
    fn partitioner_is_deterministic_and_in_range() {
        let p = HashPartitioner::new(7);
        for key in 0..1000u64 {
            let a = p.partition(&key);
            assert_eq!(a, p.partition(&key));
            assert!(a < 7);
        }
    }

    #[test]
    fn partitioner_spreads_keys() {
        let p = HashPartitioner::new(4);
        let mut counts = [0usize; 4];
        for key in 0..1000u64 {
            counts[p.partition(&key)] += 1;
        }
        for &c in &counts {
            assert!(c > 100, "severely skewed partitioning: {counts:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one partition")]
    fn zero_partitions_panics() {
        let _ = HashPartitioner::new(0);
    }

    #[test]
    fn missing_then_present() {
        let m = ShuffleManager::new();
        let sid = ShuffleId(1);
        m.register(sid, stage(3, 2));
        assert_eq!(m.missing_map_parts(sid), vec![0, 1, 2]);
        m.put_map_output(sid, 1, vec![bucket(vec![1]), bucket(vec![2])], NodeId(0));
        assert_eq!(m.missing_map_parts(sid), vec![0, 2]);
        let fetched = m.get_buckets(sid, 0, 3);
        let b = fetched[1].clone().unwrap();
        assert_eq!(&**b.data.downcast::<Vec<u32>>().unwrap(), &vec![1]);
        assert!(fetched[0].is_none() && fetched[2].is_none());
    }

    #[test]
    fn unregister_drops_outputs() {
        let m = ShuffleManager::new();
        let sid = ShuffleId(1);
        m.register(sid, stage(1, 1));
        m.put_map_output(sid, 0, vec![bucket(vec![1])], NodeId(0));
        check_counter(&m);
        m.unregister(sid);
        assert_eq!(m.num_registered(), 0);
        assert_eq!(m.stored_bytes(), 0);
        check_counter(&m);
        assert!(
            m.missing_map_parts(sid).is_empty(),
            "unknown shuffle has no parts"
        );
    }

    #[test]
    fn drop_node_loses_its_outputs_only() {
        let m = ShuffleManager::new();
        let sid = ShuffleId(1);
        m.register(sid, stage(2, 1));
        m.put_map_output(sid, 0, vec![bucket(vec![1])], NodeId(0));
        m.put_map_output(sid, 1, vec![bucket(vec![2])], NodeId(1));
        assert_eq!(m.drop_node(NodeId(0)), 1);
        assert_eq!(m.missing_map_parts(sid), vec![0]);
        check_counter(&m);
    }

    #[test]
    fn drop_one_is_deterministic() {
        let m = ShuffleManager::new();
        let sid = ShuffleId(1);
        m.register(sid, stage(2, 1));
        m.put_map_output(sid, 0, vec![bucket(vec![1])], NodeId(0));
        m.put_map_output(sid, 1, vec![bucket(vec![2])], NodeId(0));
        assert_eq!(m.drop_one(), Some((sid, 0)));
        assert_eq!(
            m.missing_map_parts(sid),
            vec![0],
            "smallest key dropped first"
        );
        check_counter(&m);
        assert_eq!(m.drop_one(), Some((sid, 1)));
        assert_eq!(m.drop_one(), None);
        assert_eq!(m.stored_bytes(), 0);
        check_counter(&m);
    }

    #[test]
    fn stored_bytes_sums_buckets() {
        let m = ShuffleManager::new();
        let sid = ShuffleId(1);
        m.register(sid, stage(1, 2));
        let stored = m.put_map_output(sid, 0, vec![bucket(vec![1, 2]), bucket(vec![3])], NodeId(0));
        assert_eq!(stored, 12);
        assert_eq!(m.stored_bytes(), 12);
        check_counter(&m);
        assert_eq!(m.shard_occupancy().len(), SHUFFLE_SHARDS);
        assert_eq!(m.shard_occupancy().iter().sum::<usize>(), 1);
    }

    #[test]
    fn replacement_put_does_not_double_count() {
        let m = ShuffleManager::new();
        let sid = ShuffleId(1);
        m.register(sid, stage(1, 1));
        m.put_map_output(sid, 0, vec![bucket(vec![1, 2, 3])], NodeId(0));
        m.put_map_output(sid, 0, vec![bucket(vec![4])], NodeId(0));
        assert_eq!(m.stored_bytes(), 4);
        check_counter(&m);
    }

    #[test]
    fn ledger_mirrors_store_residency() {
        let ledger = Arc::new(MemoryLedger::new());
        let m = ShuffleManager::with_ledger(Arc::clone(&ledger));
        let sid = ShuffleId(1);
        m.register(sid, stage(2, 1));
        m.put_map_output(sid, 0, vec![bucket(vec![1, 2])], NodeId(0));
        m.put_map_output(sid, 1, vec![bucket(vec![3])], NodeId(0));
        assert_eq!(ledger.used(MemCategory::ShuffleStore), m.stored_bytes());
        assert_eq!(ledger.peak(MemCategory::ShuffleStore), 12);
        m.unregister(sid);
        assert_eq!(ledger.used(MemCategory::ShuffleStore), 0);
        check_counter(&m);
    }
}
