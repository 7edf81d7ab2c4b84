//! Dataset operators, and the operator graph they form.
//!
//! Each operator implements [`Op`]: given a partition index and a task
//! context, produce the partition's records. Narrow operators recursively
//! pull their parent's partition through `materialize`, which is where
//! block-cache hits short-circuit lineage; wide operators read shuffle
//! buckets written by a registered map stage.
//!
//! The operators are also the lineage graph: each names its parents, and
//! the shuffle each edge crosses, through [`AnyOp::deps`]. Before a job
//! runs, `plan_shuffles` walks that graph for the shuffles to
//! materialize, in dependency order — the DAG-scheduler step that turns a
//! lineage into stages, including Spark's key optimization for the paper's
//! Algorithm 3: a subtree whose root is **fully cached** is pruned, so the
//! expensive upstream stages (text parsing, the weights join) are skipped
//! on cache hits. `lineage_string` prints the same walk.

pub mod narrow;
pub mod shuffled;
pub mod source;

use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;

use crate::cache::CacheManager;
use crate::context::TaskCtx;
use crate::estimate::EstimateSize;
use crate::{OpId, ShuffleId};

/// Element types that can flow through datasets.
///
/// `EstimateSize` is part of the bound so any dataset can be cached and any
/// keyed dataset can be shuffled with byte accounting.
pub trait Data: Clone + Send + Sync + EstimateSize + 'static {}
impl<T: Clone + Send + Sync + EstimateSize + 'static> Data for T {}

/// One operator in a lineage graph, whatever records it yields: what the
/// scheduler and `lineage_string` read.
pub trait AnyOp: Send + Sync + 'static {
    fn id(&self) -> OpId;
    /// The name lineage and traces show (`map`, `shuffled`, ...).
    fn name(&self) -> &str;
    fn num_partitions(&self) -> usize;
    /// Each parent, with the shuffle its edge crosses (`None` for a narrow
    /// edge), in the order the operator reads them.
    fn deps(&self) -> Vec<(&dyn AnyOp, Option<ShuffleId>)>;
}

/// An operator yielding records of type `T`.
pub trait Op<T: Data>: AnyOp {
    /// Produce partition `part`'s records. Must be deterministic: lineage
    /// recovery recomputes partitions and expects identical data.
    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<T>;
}

/// Whether every partition of `op` is resident in the cache, making its
/// upstream lineage unnecessary for the next job.
fn fully_cached(op: &dyn AnyOp, cache: &CacheManager) -> bool {
    let n = op.num_partitions();
    cache.is_marked(op.id()) && n > 0 && cache.resident_partitions(op.id()) == n
}

/// Shuffles needed to run a job on `target`, in execution order (upstream
/// shuffles first, each once). Subtrees rooted at fully-cached operators
/// are pruned.
pub(crate) fn plan_shuffles(target: &dyn AnyOp, cache: &CacheManager) -> Vec<ShuffleId> {
    fn visit(
        op: &dyn AnyOp,
        cache: &CacheManager,
        visited: &mut HashSet<OpId>,
        order: &mut Vec<ShuffleId>,
    ) {
        if !visited.insert(op.id()) || fully_cached(op, cache) {
            return;
        }
        for (parent, shuffle) in op.deps() {
            visit(parent, cache, visited, order);
            if let Some(sid) = shuffle.filter(|sid| !order.contains(sid)) {
                order.push(sid);
            }
        }
    }
    let mut order = Vec::new();
    visit(target, cache, &mut HashSet::new(), &mut order);
    order
}

/// Human-readable lineage tree rooted at `target` (Spark's
/// `toDebugString`). Cached operators are annotated with residency.
pub(crate) fn lineage_string(target: &dyn AnyOp, cache: &CacheManager) -> String {
    fn fmt_op(op: &dyn AnyOp, cache: &CacheManager, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        let id = op.id();
        let n = op.num_partitions();
        let _ = write!(out, "{indent}{} (op {}, {n} parts)", op.name(), id.0);
        if cache.is_marked(id) {
            let _ = write!(out, " [cached {}/{n}]", cache.resident_partitions(id));
        }
        out.push('\n');
        for (parent, shuffle) in op.deps() {
            if let Some(sid) = shuffle {
                let _ = writeln!(out, "{indent}  -- shuffle {} --", sid.0);
            }
            fmt_op(parent, cache, depth + 1, out);
        }
    }
    let mut out = String::new();
    fmt_op(target, cache, 0, &mut out);
    out
}

/// Materialize one partition, honoring the block cache.
///
/// For an op marked `cache()`: a resident block is returned immediately
/// (recording the cache-local node as a locality preference); a miss
/// computes the partition, stores it, and counts a *recomputation* if the
/// block had been resident before (i.e. it was evicted or lost).
pub(crate) fn materialize<T: Data>(
    op: &Arc<dyn Op<T>>,
    part: usize,
    ctx: &TaskCtx<'_>,
) -> Arc<Vec<T>> {
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
    let evicted = engine.cache.put(id, part, Arc::clone(&data), node);
    engine.metrics.cache_evictions.add(evicted.len() as u64);
    for (victim_op, victim_part) in evicted {
        engine
            .events()
            .emit_with(|| crate::events::EngineEvent::CacheEvicted {
                op: victim_op.0,
                partition: victim_part,
                pressure: true,
            });
    }
    data
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, Engine};
    use sparkscore_cluster::{ClusterSpec, NodeId};

    fn engine() -> Arc<Engine> {
        Engine::builder(ClusterSpec::test_small(3)).build()
    }

    /// `parallelize(0) -> map(1) -> shuffle 0 -> shuffled(2) -> map(3)
    /// -> shuffle 1 -> shuffled(4)`; returns ops 1, 3 and 4.
    fn chain(e: &Arc<Engine>) -> [Dataset<(u64, u64)>; 3] {
        let pairs: Vec<(u64, u64)> = (0..40).map(|i| (i % 7, i)).collect();
        let mapped = e.parallelize(pairs, 4).map(|kv| kv);
        let mapped2 = mapped.reduce_by_key(2, |a, b| a + b).map(|kv| kv);
        let top = mapped2.reduce_by_key(2, |a, b| a + b);
        [mapped, mapped2, top]
    }

    fn plan<T: Data>(e: &Engine, ds: &Dataset<T>) -> Vec<u64> {
        plan_shuffles(&*ds.op, &e.cache)
            .iter()
            .map(|s| s.0)
            .collect()
    }

    #[test]
    fn plans_shuffles_in_dependency_order() {
        let e = engine();
        let [mapped, mapped2, top] = chain(&e);
        assert_eq!(plan(&e, &top), vec![0, 1]);
        assert_eq!(plan(&e, &mapped2), vec![0]);
        assert!(plan(&e, &mapped).is_empty());
    }

    #[test]
    fn fully_cached_op_prunes_upstream_shuffles() {
        let e = engine();
        let [_, mapped2, top] = chain(&e);
        mapped2.cache();
        e.cache.put(mapped2.id(), 0, Arc::new(vec![0u8]), NodeId(0));
        e.cache.put(mapped2.id(), 1, Arc::new(vec![0u8]), NodeId(0));
        // mapped2 fully cached (2/2): shuffle 0 pruned, only 1 remains.
        assert_eq!(plan(&e, &top), vec![1]);
    }

    #[test]
    fn partially_cached_op_does_not_prune() {
        let e = engine();
        let [_, mapped2, top] = chain(&e);
        mapped2.cache();
        e.cache.put(mapped2.id(), 0, Arc::new(vec![0u8]), NodeId(0));
        assert_eq!(plan(&e, &top), vec![0, 1]);
    }

    #[test]
    fn diamond_dependencies_dedup_shuffles() {
        // Shuffle 0 feeds two children that `join` through shuffles 1, 2.
        let e = engine();
        let pairs: Vec<(u64, u64)> = (0..40).map(|i| (i % 7, i)).collect();
        let reduced = e.parallelize(pairs, 4).reduce_by_key(2, |a, b| a + b);
        let joined = reduced.map(|kv| kv).join(&reduced.map(|kv| kv), 2);
        assert_eq!(plan(&e, &joined), vec![0, 1, 2]);
    }

    #[test]
    fn lineage_string_shows_structure() {
        let e = engine();
        let [_, mapped2, top] = chain(&e);
        mapped2.cache();
        assert_eq!(
            top.lineage(),
            concat!(
                "shuffled (op 4, 2 parts)\n",
                "  -- shuffle 1 --\n",
                "  map (op 3, 2 parts) [cached 0/2]\n",
                "    shuffled (op 2, 2 parts)\n",
                "      -- shuffle 0 --\n",
                "      map (op 1, 4 parts)\n",
                "        parallelize (op 0, 4 parts)\n",
            )
        );
    }
}
