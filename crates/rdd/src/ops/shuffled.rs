//! Wide (shuffle) operators: combine-by-key and join.
//!
//! A wide operator's map side runs over the parent's partitions,
//! hash-partitions (and map-side combines) records into one bucket per
//! reduce partition, and registers the buckets with the engine's shuffle
//! manager. The reduce side — the operator's `compute` — fetches the
//! buckets and merges them. A missing bucket (lost to fault injection or a
//! node death) triggers an inline re-run of the owning map task: lineage
//! recovery at shuffle granularity.
//!
//! A record's key is hashed once, on the map side: the hash picks the
//! reducer, keys the map-side table, and travels in the bucket to key the
//! reduce-side table (`KeyTable`). No record gets a heap allocation of
//! its own: a partition only this task holds is moved, not cloned, and a
//! co-group side is bucketed flat, a key's values back to back.
//!
//! **Order contract.** A reduce partition emits its keys in the iteration
//! order of a SipHash table ([`crate::shuffle::DetHashMap`]) filled in
//! order of first appearance — map partition by map partition, each bucket
//! in its map-side table order, left side before right — and a key's
//! values in map-partition, then record order. Algorithm 1's per-set float
//! sums (`reduce_by_key` after `join`) are folded in exactly this order, so
//! it is part of every score's bits. That is why grouping here is by hash
//! table and not by sorting or a count-then-scatter pass, which would be
//! cheaper and reorder every reduce partition.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

use crate::context::TaskCtx;
use crate::engine::{Engine, OpGuard};
use crate::estimate::EstimateSize;
use crate::ops::{materialize, AnyOp, Data, Op};
use crate::shuffle::{hash_key, Bucket, HashPartitioner, ShuffleStage};
use crate::{OpId, ShuffleId};

/// How values are combined into per-key combiners (Spark's `Aggregator`).
pub struct Aggregator<V, C> {
    pub create: Arc<dyn Fn(V) -> C + Send + Sync>,
    pub merge_value: Arc<dyn Fn(&mut C, V) + Send + Sync>,
    pub merge_combiners: Arc<dyn Fn(&mut C, C) + Send + Sync>,
}

impl<V, C> Clone for Aggregator<V, C> {
    fn clone(&self) -> Self {
        Aggregator {
            create: Arc::clone(&self.create),
            merge_value: Arc::clone(&self.merge_value),
            merge_combiners: Arc::clone(&self.merge_combiners),
        }
    }
}

impl<V: Data> Aggregator<V, V> {
    /// Fold values per key with a binary function (`reduce_by_key`).
    pub(crate) fn reducing(f: impl Fn(V, V) -> V + Send + Sync + 'static) -> Self {
        let f = Arc::new(f);
        let f2 = Arc::clone(&f);
        Aggregator {
            create: Arc::new(|v| v),
            merge_value: Arc::new(move |c: &mut V, v| {
                let old = c.clone();
                *c = f(old, v);
            }),
            merge_combiners: Arc::new(move |c: &mut V, v| {
                let old = c.clone();
                *c = f2(old, v);
            }),
        }
    }
}

/// A key with its [`hash_key`], computed once.
#[derive(Clone)]
pub(crate) struct Hashed<K> {
    hash: u64,
    key: K,
}

impl<K: Hash> Hashed<K> {
    fn new(key: K) -> Self {
        Hashed {
            hash: hash_key(&key),
            key,
        }
    }
}

impl<K> Hashed<K> {
    fn borrowed(&self) -> Hashed<&K> {
        Hashed {
            hash: self.hash,
            key: &self.key,
        }
    }
}

impl<K: PartialEq> PartialEq for Hashed<K> {
    fn eq(&self, other: &Self) -> bool {
        self.hash == other.hash && self.key == other.key
    }
}

impl<K: Eq> Eq for Hashed<K> {}

/// A hashed key hashes as its stored hash.
impl<K> Hash for Hashed<K> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The hasher of a [`KeyTable`]: the `u64` it is handed is the hash.
#[derive(Default)]
pub(crate) struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a KeyTable key hashes as one u64")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// A hash table over keys hashed once. It sees the hash values a
/// [`crate::shuffle::DetHashMap`] computes for the same keys, and a
/// SwissTable places entries by hash value and insertion sequence, so fed
/// the same keys in the same order through `entry` it iterates in
/// `DetHashMap`'s order. Two conditions hold that true: it is never
/// presized (`with_capacity` grows on another schedule), and the
/// `DetHashMap` it is compared with has entries of 4 bytes or more — std
/// sizes the first allocation of a table of 1–3-byte entries differently,
/// and a `KeyTable` entry is never that small.
pub(crate) type KeyTable<K, V> = HashMap<Hashed<K>, V, BuildHasherDefault<PassThrough>>;

/// Hand each record of `records` to `f`: moved out when this task holds
/// the only reference, cloned when the block cache or the shuffle store
/// holds it too.
fn for_each_owned<T: Clone>(records: Arc<Vec<T>>, f: impl FnMut(T)) {
    match Arc::try_unwrap(records) {
        Ok(owned) => owned.into_iter().for_each(f),
        Err(shared) => shared.iter().cloned().for_each(f),
    }
}

/// Register a shuffle's map stage: the type-erased closure the engine (or
/// inline recovery) uses to produce bucketed map outputs for `sid`. A map
/// task folds each record into its reducer's table `T` with `fold`, then
/// `seal` turns each table into a bucket and the bytes it is accounted at.
fn register_shuffle_map<K, V, T, B>(
    engine: &Arc<Engine>,
    sid: ShuffleId,
    parent: Arc<dyn Op<(K, V)>>,
    partitioner: HashPartitioner,
    fold: impl Fn(&mut T, Hashed<K>, V) + Send + Sync + 'static,
    seal: impl Fn(T) -> (B, u64) + Send + Sync + 'static,
) where
    K: Data + Hash + Eq,
    V: Data,
    T: Default,
    B: Send + Sync + 'static,
{
    let num_map_parts = parent.num_partitions();
    let run_map_task = Arc::new(move |map_part: usize, ctx: &TaskCtx<'_>| {
        let engine = ctx.engine();
        let input = materialize(&parent, map_part, ctx);
        ctx.add_work(input.len(), 1.5);
        let mut tables: Vec<T> = (0..partitioner.num_partitions())
            .map(|_| T::default())
            .collect();
        for_each_owned(input, |(k, v)| {
            let k = Hashed::new(k);
            fold(&mut tables[partitioner.partition_of_hash(k.hash)], k, v);
        });
        let node = engine.node_for_block(sid.0.wrapping_mul(0x9e37_79b9), map_part as u64);
        ctx.time_span("shuffle:write", || {
            let buckets: Vec<Bucket> = tables
                .into_iter()
                .map(|t| {
                    let (data, bytes) = seal(t);
                    ctx.add_shuffle_write(bytes);
                    Bucket {
                        data: Arc::new(data),
                        bytes,
                    }
                })
                .collect();
            engine
                .shuffle
                .put_map_output(sid, map_part, buckets.clone(), node);
            buckets
        })
    });
    engine.shuffle.register(
        sid,
        ShuffleStage {
            num_map_parts,
            num_reduce_parts: partitioner.num_partitions(),
            run_map_task,
        },
    );
}

/// Fetch all map buckets of `sid` for `reduce_part` in one batch call
/// (one pass over the shuffle manager's lock shards instead of one lock
/// round-trip per map partition), re-running the map task inline for any
/// bucket that is missing. Returns the typed buckets in map-partition
/// order.
fn fetch_buckets<B: Send + Sync + 'static>(
    sid: ShuffleId,
    num_map_parts: usize,
    reduce_part: usize,
    ctx: &TaskCtx<'_>,
) -> Vec<Arc<B>> {
    let engine = ctx.engine();
    ctx.time_span("shuffle:fetch", || {
        engine
            .shuffle
            .get_buckets(sid, reduce_part, num_map_parts)
            .into_iter()
            .enumerate()
            .map(|(map_part, bucket)| {
                // Recovery stays per-bucket: only re-run maps whose output is
                // actually gone, and take the bucket from the re-run itself —
                // the stored copy may be dropped again before we could read it.
                let bucket = bucket.unwrap_or_else(|| {
                    engine
                        .rerun_map_task_inline(sid, map_part, ctx)
                        .swap_remove(reduce_part)
                });
                ctx.add_shuffle_read(bucket.bytes);
                bucket
                    .data
                    .downcast::<B>()
                    .expect("shuffle bucket holds the registered record type")
            })
            .collect()
    })
}

/// A combine-by-key bucket: one `(key, combiner)` per key, in map-side
/// table order.
type Combined<K, C> = Vec<(Hashed<K>, C)>;

/// Reduce side of a combine-by-key shuffle: yields `(K, C)` pairs.
pub struct ShuffledOp<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    guard: OpGuard,
    sid: ShuffleId,
    parent: Arc<dyn Op<(K, V)>>,
    num_reduce_parts: usize,
    merge_combiners: Arc<dyn Fn(&mut C, C) + Send + Sync>,
}

impl<K, V, C> ShuffledOp<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    /// Create the reduce-side op and register the map stage with `engine`.
    pub(crate) fn new(
        engine: &Arc<Engine>,
        guard: OpGuard,
        sid: ShuffleId,
        parent: Arc<dyn Op<(K, V)>>,
        num_reduce_parts: usize,
        agg: Aggregator<V, C>,
    ) -> Self {
        let merge_combiners = Arc::clone(&agg.merge_combiners);
        register_shuffle_map(
            engine,
            sid,
            Arc::clone(&parent),
            HashPartitioner::new(num_reduce_parts),
            move |table: &mut KeyTable<K, C>, k, v| match table.entry(k) {
                Entry::Occupied(mut e) => (agg.merge_value)(e.get_mut(), v),
                Entry::Vacant(e) => {
                    e.insert((agg.create)(v));
                }
            },
            |table| {
                let records: Combined<K, C> = table.into_iter().collect();
                let bytes = records
                    .iter()
                    .map(|(k, c)| k.key.estimate_bytes() + c.estimate_bytes())
                    .sum::<usize>()
                    + std::mem::size_of::<Vec<(K, C)>>();
                (records, bytes as u64)
            },
        );
        ShuffledOp {
            guard,
            sid,
            parent,
            num_reduce_parts,
            merge_combiners,
        }
    }
}

impl<K, V, C> AnyOp for ShuffledOp<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    fn id(&self) -> OpId {
        self.guard.id()
    }

    fn name(&self) -> &str {
        "shuffled"
    }

    fn num_partitions(&self) -> usize {
        self.num_reduce_parts
    }

    fn deps(&self) -> Vec<(&dyn AnyOp, Option<ShuffleId>)> {
        vec![(&*self.parent, Some(self.sid))]
    }
}

impl<K, V, C> Op<(K, C)> for ShuffledOp<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<(K, C)> {
        let mut table: KeyTable<K, C> = KeyTable::default();
        let maps = self.parent.num_partitions();
        for records in fetch_buckets::<Combined<K, C>>(self.sid, maps, part, ctx) {
            ctx.add_work(records.len(), 1.5);
            for_each_owned(records, |(k, c)| match table.entry(k) {
                Entry::Occupied(mut e) => (self.merge_combiners)(e.get_mut(), c),
                Entry::Vacant(e) => {
                    e.insert(c);
                }
            });
        }
        table.into_iter().map(|(k, c)| (k.key, c)).collect()
    }
}

/// A co-group side's bucket, flat: each key once, in map-side table order,
/// with how many values it has, and the values of consecutive keys back to
/// back. It is accounted as the `(K, Vec<V>)` groups it stands for.
struct Groups<K, V> {
    keys: Vec<(Hashed<K>, usize)>,
    values: Vec<V>,
}

impl<K: EstimateSize, V: EstimateSize> Groups<K, V> {
    /// Flatten a map-side table of `(first value, later values)` per key.
    fn seal(table: KeyTable<K, (V, Vec<V>)>) -> (Self, u64) {
        let mut bytes = std::mem::size_of::<Vec<(K, Vec<V>)>>();
        let mut keys = Vec::with_capacity(table.len());
        let mut values = Vec::with_capacity(table.len());
        for (k, (first, rest)) in table {
            bytes += k.key.estimate_bytes()
                + std::mem::size_of::<Vec<V>>()
                + first.estimate_bytes()
                + rest.iter().map(V::estimate_bytes).sum::<usize>();
            keys.push((k, 1 + rest.len()));
            values.push(first);
            values.extend(rest);
        }
        (Groups { keys, values }, bytes as u64)
    }
}

impl<K, V> Groups<K, V> {
    /// Each key with its values.
    fn iter(&self) -> impl Iterator<Item = (&Hashed<K>, &[V])> {
        let mut at = 0;
        self.keys.iter().map(move |(k, n)| {
            at += n;
            (k, &self.values[at - n..at])
        })
    }
}

/// One side's values per key number: key `g`'s values are the runs
/// `runs[start[g]..start[g + 1]]`, in map-partition then record order.
struct Runs<'a, V> {
    start: Vec<usize>,
    runs: Vec<&'a [V]>,
}

impl<'a, V> Runs<'a, V> {
    /// Stable counting sort of `(key number, values)` runs by key number.
    fn sort(numbered: Vec<(usize, &'a [V])>, num_keys: usize) -> Self {
        let mut start = vec![0; num_keys + 1];
        for &(g, _) in &numbered {
            start[g + 1] += 1;
        }
        for g in 0..num_keys {
            start[g + 1] += start[g];
        }
        let mut next = start.clone();
        let mut runs: Vec<&[V]> = vec![&[]; numbered.len()];
        for (g, values) in numbered {
            runs[next[g]] = values;
            next[g] += 1;
        }
        Runs { start, runs }
    }

    fn of(&self, g: usize) -> &[&'a [V]] {
        &self.runs[self.start[g]..self.start[g + 1]]
    }

    fn values(&self, g: usize) -> impl Iterator<Item = &'a V> + '_ {
        self.of(g).iter().flat_map(|&run| run.iter())
    }

    fn len(&self, g: usize) -> usize {
        self.of(g).iter().map(|run| run.len()).sum()
    }
}

/// Number the keys of `buckets` into `keys`, returning each bucket key's
/// number with its values, in fetch order.
fn number_keys<'a, K: Eq, V>(
    keys: &mut KeyTable<&'a K, usize>,
    buckets: &'a [Arc<Groups<K, V>>],
) -> Vec<(usize, &'a [V])> {
    let mut numbered = Vec::new();
    for bucket in buckets {
        for (k, values) in bucket.iter() {
            let next = keys.len();
            numbered.push((*keys.entry(k.borrowed()).or_insert(next), values));
        }
    }
    numbered
}

/// A co-group side's map task groups records per key: the first value
/// inline, later ones in a `Vec` that a unique key never allocates.
fn register_group_map<K: Data + Hash + Eq, V: Data>(
    engine: &Arc<Engine>,
    sid: ShuffleId,
    parent: Arc<dyn Op<(K, V)>>,
    partitioner: HashPartitioner,
) {
    register_shuffle_map(
        engine,
        sid,
        parent,
        partitioner,
        |table: &mut KeyTable<K, (V, Vec<V>)>, k, v| match table.entry(k) {
            Entry::Occupied(mut e) => e.get_mut().1.push(v),
            Entry::Vacant(e) => {
                e.insert((v, Vec::new()));
            }
        },
        Groups::seal,
    );
}

/// Reduce side of `join`: one shuffle per parent, on one partitioner so a
/// key's values meet in one reduce partition, co-grouped there and emitted
/// as every left value paired with every right value, left-major.
pub struct JoinOp<K, V, W>
where
    K: Data + Hash + Eq,
    V: Data,
    W: Data,
{
    guard: OpGuard,
    sid_left: ShuffleId,
    sid_right: ShuffleId,
    left: Arc<dyn Op<(K, V)>>,
    right: Arc<dyn Op<(K, W)>>,
    num_reduce_parts: usize,
}

impl<K, V, W> JoinOp<K, V, W>
where
    K: Data + Hash + Eq,
    V: Data,
    W: Data,
{
    /// Create the join reduce op, registering one map stage per parent.
    pub(crate) fn new(
        engine: &Arc<Engine>,
        guard: OpGuard,
        (sid_left, sid_right): (ShuffleId, ShuffleId),
        left: Arc<dyn Op<(K, V)>>,
        right: Arc<dyn Op<(K, W)>>,
        num_reduce_parts: usize,
    ) -> Self {
        let partitioner = HashPartitioner::new(num_reduce_parts);
        register_group_map(engine, sid_left, Arc::clone(&left), partitioner);
        register_group_map(engine, sid_right, Arc::clone(&right), partitioner);
        JoinOp {
            guard,
            sid_left,
            sid_right,
            left,
            right,
            num_reduce_parts,
        }
    }
}

impl<K, V, W> AnyOp for JoinOp<K, V, W>
where
    K: Data + Hash + Eq,
    V: Data,
    W: Data,
{
    fn id(&self) -> OpId {
        self.guard.id()
    }

    fn name(&self) -> &str {
        "join"
    }

    fn num_partitions(&self) -> usize {
        self.num_reduce_parts
    }

    fn deps(&self) -> Vec<(&dyn AnyOp, Option<ShuffleId>)> {
        vec![
            (&*self.left, Some(self.sid_left)),
            (&*self.right, Some(self.sid_right)),
        ]
    }
}

impl<K, V, W> Op<(K, (V, W))> for JoinOp<K, V, W>
where
    K: Data + Hash + Eq,
    V: Data,
    W: Data,
{
    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<(K, (V, W))> {
        // Fetch and charge the left side, then the right, 1.5 units per
        // fetched key: work is summed in floating point, so this order is
        // part of the task's virtual time to the bit.
        let left =
            fetch_buckets::<Groups<K, V>>(self.sid_left, self.left.num_partitions(), part, ctx);
        for bucket in &left {
            ctx.add_work(bucket.keys.len(), 1.5);
        }
        let right =
            fetch_buckets::<Groups<K, W>>(self.sid_right, self.right.num_partitions(), part, ctx);
        for bucket in &right {
            ctx.add_work(bucket.keys.len(), 1.5);
        }
        // Every key of either side numbered in order of first appearance
        // (its `KeyTable` iterates in the order of the contract above), and
        // each side's values per key number.
        let mut keys = KeyTable::default();
        let left = number_keys(&mut keys, &left);
        let right = number_keys(&mut keys, &right);
        let left = Runs::sort(left, keys.len());
        let right = Runs::sort(right, keys.len());
        // One work unit per key, what a `flat_map` over the co-grouped keys
        // charges.
        ctx.add_work(keys.len(), 1.0);
        let pairs = keys.values().map(|&n| left.len(n) * right.len(n)).sum();
        let mut out = Vec::with_capacity(pairs);
        for (k, &n) in &keys {
            for v in left.values(n) {
                for w in right.values(n) {
                    out.push((K::clone(k.key), (v.clone(), w.clone())));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shuffle::DetHashMap;
    use proptest::prelude::*;

    /// Count `keys` into a `DetHashMap` and into a `KeyTable` through
    /// `entry`, as the shuffle does, and require the same iteration order.
    fn same_order<K: Hash + Eq + Clone + std::fmt::Debug>(keys: Vec<K>) {
        let mut reference: DetHashMap<K, u64> = DetHashMap::default();
        let mut table: KeyTable<K, u64> = KeyTable::default();
        for k in keys {
            *reference.entry(k.clone()).or_insert(0) += 1;
            *table.entry(Hashed::new(k)).or_insert(0) += 1;
        }
        let table: Vec<(K, u64)> = table.into_iter().map(|(k, n)| (k.key, n)).collect();
        prop_assert_eq!(reference.into_iter().collect::<Vec<_>>(), table);
    }

    /// Half the draws pile onto a few keys, half spread over `domain`.
    fn skewed(raw: u64, domain: u64) -> u64 {
        if raw & 1 == 0 {
            u64::from(raw.trailing_zeros())
        } else {
            (raw >> 1) % domain
        }
    }

    proptest! {
        // Up to 2000 keys, so every growth step of a small table is crossed.
        #[test]
        fn key_table_iterates_in_det_hash_map_order_u64(
            domain in 1u64..4000,
            raw in collection::vec(any::<u64>(), 0..2000),
        ) {
            same_order(raw.iter().map(|&r| skewed(r, domain)).collect());
        }

        #[test]
        fn key_table_iterates_in_det_hash_map_order_string(
            keys in collection::vec("[a-e]{0,5}", 0..2000),
        ) {
            same_order(keys);
        }

        #[test]
        fn key_table_iterates_in_det_hash_map_order_tuple(
            domain in 1u64..100,
            raw in collection::vec((any::<u64>(), 0u16..8), 0..2000),
        ) {
            same_order(
                raw.iter()
                    .map(|&(r, tag)| (skewed(r, domain) as u32, tag))
                    .collect(),
            );
        }
    }
}
