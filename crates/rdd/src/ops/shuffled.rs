//! Wide (shuffle) operators: combine-by-key and co-group.
//!
//! A wide operator's map side runs over the parent's partitions,
//! hash-partitions (and map-side combines) records into one bucket per
//! reduce partition, and registers the buckets with the engine's shuffle
//! manager. The reduce side — the operator's `compute` — fetches the
//! buckets and merges combiners. A missing bucket (lost to fault
//! injection or a node death) triggers an inline re-run of the owning map
//! task: lineage recovery at shuffle granularity.

use std::collections::hash_map::Entry;
use std::hash::Hash;
use std::marker::PhantomData;
use std::sync::Arc;

use crate::context::TaskCtx;
use crate::engine::{Engine, OpGuard};
use crate::estimate::slice_bytes;
use crate::metrics::Metrics;
use crate::ops::{materialize, Data, Op};
use crate::shuffle::{Bucket, DetHashMap, HashPartitioner, ShuffleStage};
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

impl<V: Data> Aggregator<V, Vec<V>> {
    /// Collect all values per key (`group_by_key`).
    pub fn grouping() -> Self {
        Aggregator {
            create: Arc::new(|v| vec![v]),
            merge_value: Arc::new(|c, v| c.push(v)),
            merge_combiners: Arc::new(|c, mut other| c.append(&mut other)),
        }
    }
}

impl<V: Data> Aggregator<V, V> {
    /// Fold values per key with a binary function (`reduce_by_key`).
    pub fn reducing(f: impl Fn(V, V) -> V + Send + Sync + 'static) -> Self {
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

/// Register a shuffle's map stage: the type-erased closure the engine (or
/// inline recovery) uses to produce bucketed map outputs for `sid`.
pub(crate) fn register_shuffle_map<K, V, C>(
    engine: &Arc<Engine>,
    sid: ShuffleId,
    parent: Arc<dyn Op<(K, V)>>,
    partitioner: HashPartitioner,
    agg: Aggregator<V, C>,
) where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    let num_map_parts = parent.num_partitions();
    let run_map_task = Arc::new(move |map_part: usize, ctx: &TaskCtx<'_>| {
        let engine = ctx.engine();
        let input = materialize(&parent, map_part, ctx);
        ctx.add_work(input.len(), 1.5);
        let reduces = partitioner.num_partitions();
        let mut tables: Vec<DetHashMap<K, C>> =
            (0..reduces).map(|_| DetHashMap::default()).collect();
        for (k, v) in input.iter().cloned() {
            let r = partitioner.partition(&k);
            match tables[r].entry(k) {
                Entry::Occupied(mut e) => (agg.merge_value)(e.get_mut(), v),
                Entry::Vacant(e) => {
                    e.insert((agg.create)(v));
                }
            }
        }
        let node = engine.node_for_block(sid.0.wrapping_mul(0x9e37_79b9), map_part as u64);
        ctx.time_span("shuffle:write", || {
            let buckets: Vec<Bucket> = tables
                .into_iter()
                .map(|t| {
                    let records: Vec<(K, C)> = t.into_iter().collect();
                    let bytes = slice_bytes(&records) as u64;
                    Metrics::add(&engine.metrics.shuffle_bytes_written, bytes);
                    ctx.add_shuffle_write(bytes);
                    Bucket {
                        data: Arc::new(records),
                        bytes,
                    }
                })
                .collect();
            let stored = engine
                .shuffle
                .put_map_output(sid, map_part, buckets.clone(), node);
            engine
                .events()
                .emit_with(|| crate::events::EngineEvent::ShuffleBytesStored {
                    shuffle: sid.0,
                    map_part,
                    bytes: stored,
                });
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
/// bucket that is missing. Returns the typed records in map-partition
/// order.
fn fetch_buckets<K, C>(
    sid: ShuffleId,
    num_map_parts: usize,
    reduce_part: usize,
    ctx: &TaskCtx<'_>,
) -> Vec<Arc<Vec<(K, C)>>>
where
    K: Data + Hash + Eq,
    C: Data,
{
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
                Metrics::add(&engine.metrics.shuffle_bytes_read, bucket.bytes);
                bucket
                    .data
                    .downcast::<Vec<(K, C)>>()
                    .expect("shuffle bucket holds the registered record type")
            })
            .collect()
    })
}

/// Reduce side of a combine-by-key shuffle: yields `(K, C)` pairs.
pub struct ShuffledOp<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    id: OpId,
    sid: ShuffleId,
    num_map_parts: usize,
    num_reduce_parts: usize,
    merge_combiners: Arc<dyn Fn(&mut C, C) + Send + Sync>,
    _guard: OpGuard,
    _marker: PhantomData<fn() -> (K, V)>,
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
        id: OpId,
        guard: OpGuard,
        sid: ShuffleId,
        parent: Arc<dyn Op<(K, V)>>,
        num_reduce_parts: usize,
        agg: Aggregator<V, C>,
    ) -> Self {
        let partitioner = HashPartitioner::new(num_reduce_parts);
        let num_map_parts = parent.num_partitions();
        let merge_combiners = Arc::clone(&agg.merge_combiners);
        register_shuffle_map(engine, sid, parent, partitioner, agg);
        ShuffledOp {
            id,
            sid,
            num_map_parts,
            num_reduce_parts,
            merge_combiners,
            _guard: guard,
            _marker: PhantomData,
        }
    }
}

impl<K, V, C> Op<(K, C)> for ShuffledOp<K, V, C>
where
    K: Data + Hash + Eq,
    V: Data,
    C: Data,
{
    fn id(&self) -> OpId {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.num_reduce_parts
    }

    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<(K, C)> {
        let mut table: DetHashMap<K, C> = DetHashMap::default();
        for records in fetch_buckets::<K, C>(self.sid, self.num_map_parts, part, ctx) {
            ctx.add_work(records.len(), 1.5);
            for (k, c) in records.iter().cloned() {
                match table.entry(k) {
                    Entry::Occupied(mut e) => (self.merge_combiners)(e.get_mut(), c),
                    Entry::Vacant(e) => {
                        e.insert(c);
                    }
                }
            }
        }
        table.into_iter().collect()
    }

    fn name(&self) -> &str {
        "shuffled"
    }
}

/// Reduce side of a two-parent co-group: yields `(K, (Vec<V>, Vec<W>))`.
pub struct CoGroupOp<K, V, W>
where
    K: Data + Hash + Eq,
    V: Data,
    W: Data,
{
    id: OpId,
    sid_left: ShuffleId,
    sid_right: ShuffleId,
    maps_left: usize,
    maps_right: usize,
    num_reduce_parts: usize,
    _guard: OpGuard,
    _marker: PhantomData<fn() -> (K, V, W)>,
}

impl<K, V, W> CoGroupOp<K, V, W>
where
    K: Data + Hash + Eq,
    V: Data,
    W: Data,
{
    /// Create the co-group reduce op, registering one map stage per parent.
    /// Both sides use the same partitioner so a key's groups co-locate.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        engine: &Arc<Engine>,
        id: OpId,
        guard: OpGuard,
        sid_left: ShuffleId,
        sid_right: ShuffleId,
        left: Arc<dyn Op<(K, V)>>,
        right: Arc<dyn Op<(K, W)>>,
        num_reduce_parts: usize,
    ) -> Self {
        let partitioner = HashPartitioner::new(num_reduce_parts);
        let maps_left = left.num_partitions();
        let maps_right = right.num_partitions();
        register_shuffle_map(engine, sid_left, left, partitioner, Aggregator::grouping());
        register_shuffle_map(
            engine,
            sid_right,
            right,
            partitioner,
            Aggregator::grouping(),
        );
        CoGroupOp {
            id,
            sid_left,
            sid_right,
            maps_left,
            maps_right,
            num_reduce_parts,
            _guard: guard,
            _marker: PhantomData,
        }
    }
}

impl<K, V, W> Op<(K, (Vec<V>, Vec<W>))> for CoGroupOp<K, V, W>
where
    K: Data + Hash + Eq,
    V: Data,
    W: Data,
{
    fn id(&self) -> OpId {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.num_reduce_parts
    }

    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<(K, (Vec<V>, Vec<W>))> {
        let mut table: DetHashMap<K, (Vec<V>, Vec<W>)> = DetHashMap::default();
        for records in fetch_buckets::<K, Vec<V>>(self.sid_left, self.maps_left, part, ctx) {
            ctx.add_work(records.len(), 1.5);
            for (k, mut vs) in records.iter().cloned() {
                table.entry(k).or_default().0.append(&mut vs);
            }
        }
        for records in fetch_buckets::<K, Vec<W>>(self.sid_right, self.maps_right, part, ctx) {
            ctx.add_work(records.len(), 1.5);
            for (k, mut ws) in records.iter().cloned() {
                table.entry(k).or_default().1.append(&mut ws);
            }
        }
        table.into_iter().collect()
    }

    fn name(&self) -> &str {
        "coGroup"
    }
}
