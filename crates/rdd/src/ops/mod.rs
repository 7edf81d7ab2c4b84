//! Dataset operators.
//!
//! Each operator implements [`Op`]: given a partition index and a task
//! context, produce the partition's records. Narrow operators recursively
//! pull their parent's partition through [`materialize`], which is where
//! block-cache hits short-circuit lineage; wide operators read shuffle
//! buckets written by a registered map stage.

pub mod narrow;
pub mod shuffled;
pub mod source;

use std::sync::Arc;

use crate::context::TaskCtx;
use crate::estimate::EstimateSize;
use crate::OpId;

/// Element types that can flow through datasets.
///
/// `EstimateSize` is part of the bound so any dataset can be cached and any
/// keyed dataset can be shuffled with byte accounting.
pub trait Data: Clone + Send + Sync + EstimateSize + 'static {}
impl<T: Clone + Send + Sync + EstimateSize + 'static> Data for T {}

/// One operator in a lineage graph.
pub trait Op<T: Data>: Send + Sync + 'static {
    fn id(&self) -> OpId;
    fn num_partitions(&self) -> usize;
    /// Produce partition `part`'s records. Must be deterministic: lineage
    /// recovery recomputes partitions and expects identical data.
    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<T>;
    fn name(&self) -> &str;
}

/// Materialize one partition, honoring the block cache.
///
/// For an op marked `cache()`: a resident block is returned immediately
/// (recording the cache-local node as a locality preference); a miss
/// computes the partition, stores it, and counts a *recomputation* if the
/// block had been resident before (i.e. it was evicted or lost).
pub fn materialize<T: Data>(op: &Arc<dyn Op<T>>, part: usize, ctx: &TaskCtx<'_>) -> Arc<Vec<T>> {
    let engine = ctx.engine();
    let id = op.id();
    if !engine.cache.is_marked(id) {
        return Arc::new(op.compute(part, ctx));
    }
    if let Some(block) = engine.cache.get::<T>(id, part) {
        ctx.note_cache_hit();
        ctx.add_preferred(block.node);
        return block.data;
    }
    ctx.note_cache_miss();
    if engine.cache.was_ever_present(id, part) {
        ctx.note_recompute();
    }
    let data = ctx.time_span("cache:recompute", || Arc::new(op.compute(part, ctx)));
    let node = engine.node_for_block(id.0, part as u64);
    let outcome = engine.cache.put(id, part, Arc::clone(&data), node);
    engine.metrics.cache_evictions.add(outcome.evicted_blocks());
    for &(victim_op, victim_part, victim_bytes) in &outcome.evicted {
        engine
            .events()
            .emit_with(|| crate::events::EngineEvent::CacheEvicted {
                op: victim_op.0,
                partition: victim_part,
                pressure: true,
                bytes: victim_bytes,
            });
    }
    if outcome.stored {
        engine
            .events()
            .emit_with(|| crate::events::EngineEvent::CacheAdmitted {
                op: id.0,
                partition: part,
                bytes: outcome.bytes,
            });
    } else {
        engine
            .events()
            .emit_with(|| crate::events::EngineEvent::CacheRejected {
                op: id.0,
                partition: part,
                bytes: outcome.bytes,
            });
    }
    data
}
