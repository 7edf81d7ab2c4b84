//! Narrow (pipelined) operators: each output partition depends on exactly
//! one parent partition, so no shuffle is needed and lineage recovery
//! recomputes a single upstream chain.
//!
//! The by-value operators (`map`, `filter`, `flat_map`) move records out of
//! a parent partition this task holds the only reference to — an uncached
//! parent's, which [`materialize`] built for this call alone — and clone
//! record by record only when the block cache holds it too.

use std::sync::Arc;

use crate::context::TaskCtx;
use crate::engine::OpGuard;
use crate::ops::{materialize, Data, Op};
use crate::OpId;

/// `map`: apply `f` to every record.
///
/// `cost_units` is the modeled per-record cost of `f` in work units (one
/// unit = [`sparkscore_cluster::cost::NS_PER_RECORD_UNIT`] virtual
/// ns). The engine cannot see inside the closure, so pipelines whose
/// per-record cost on the reference platform (the paper's JVM/Spark
/// stack) differs wildly from the native Rust cost — text tokenization
/// above all — declare it here; 1.0 models a trivial record operation.
pub struct MapOp<T: Data, U: Data> {
    id: OpId,
    parent: Arc<dyn Op<T>>,
    f: Arc<dyn Fn(T) -> U + Send + Sync>,
    cost_units: f64,
    _guard: OpGuard,
}

impl<T: Data, U: Data> MapOp<T, U> {
    pub(crate) fn new(
        id: OpId,
        guard: OpGuard,
        parent: Arc<dyn Op<T>>,
        f: Arc<dyn Fn(T) -> U + Send + Sync>,
        cost_units: f64,
    ) -> Self {
        assert!(cost_units >= 0.0, "cost units must be non-negative");
        MapOp {
            id,
            parent,
            f,
            cost_units,
            _guard: guard,
        }
    }
}

impl<T: Data, U: Data> Op<U> for MapOp<T, U> {
    fn id(&self) -> OpId {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<U> {
        let input = materialize(&self.parent, part, ctx);
        ctx.add_work(input.len(), self.cost_units);
        match Arc::try_unwrap(input) {
            Ok(owned) => owned.into_iter().map(|t| (self.f)(t)).collect(),
            Err(shared) => shared.iter().cloned().map(|t| (self.f)(t)).collect(),
        }
    }

    fn name(&self) -> &str {
        "map"
    }
}

/// `filter`: keep records satisfying the predicate.
pub struct FilterOp<T: Data> {
    id: OpId,
    parent: Arc<dyn Op<T>>,
    pred: Arc<dyn Fn(&T) -> bool + Send + Sync>,
    _guard: OpGuard,
}

impl<T: Data> FilterOp<T> {
    pub(crate) fn new(
        id: OpId,
        guard: OpGuard,
        parent: Arc<dyn Op<T>>,
        pred: Arc<dyn Fn(&T) -> bool + Send + Sync>,
    ) -> Self {
        FilterOp {
            id,
            parent,
            pred,
            _guard: guard,
        }
    }
}

impl<T: Data> Op<T> for FilterOp<T> {
    fn id(&self) -> OpId {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<T> {
        let input = materialize(&self.parent, part, ctx);
        ctx.add_work(input.len(), 0.5);
        match Arc::try_unwrap(input) {
            Ok(owned) => owned.into_iter().filter(|t| (self.pred)(t)).collect(),
            Err(shared) => shared.iter().filter(|t| (self.pred)(t)).cloned().collect(),
        }
    }

    fn name(&self) -> &str {
        "filter"
    }
}

/// `flat_map`: apply `f` and flatten.
pub struct FlatMapOp<T: Data, U: Data> {
    id: OpId,
    parent: Arc<dyn Op<T>>,
    f: Arc<dyn Fn(T) -> Vec<U> + Send + Sync>,
    _guard: OpGuard,
}

impl<T: Data, U: Data> FlatMapOp<T, U> {
    pub(crate) fn new(
        id: OpId,
        guard: OpGuard,
        parent: Arc<dyn Op<T>>,
        f: Arc<dyn Fn(T) -> Vec<U> + Send + Sync>,
    ) -> Self {
        FlatMapOp {
            id,
            parent,
            f,
            _guard: guard,
        }
    }
}

impl<T: Data, U: Data> Op<U> for FlatMapOp<T, U> {
    fn id(&self) -> OpId {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<U> {
        let input = materialize(&self.parent, part, ctx);
        ctx.add_work(input.len(), 1.0);
        match Arc::try_unwrap(input) {
            Ok(owned) => owned.into_iter().flat_map(|t| (self.f)(t)).collect(),
            Err(shared) => shared.iter().cloned().flat_map(|t| (self.f)(t)).collect(),
        }
    }

    fn name(&self) -> &str {
        "flatMap"
    }
}

/// `map_partitions`: transform a whole partition at once, with its index.
pub struct MapPartitionsOp<T: Data, U: Data> {
    id: OpId,
    parent: Arc<dyn Op<T>>,
    f: Arc<dyn Fn(usize, &[T]) -> Vec<U> + Send + Sync>,
    _guard: OpGuard,
}

impl<T: Data, U: Data> MapPartitionsOp<T, U> {
    pub(crate) fn new(
        id: OpId,
        guard: OpGuard,
        parent: Arc<dyn Op<T>>,
        f: Arc<dyn Fn(usize, &[T]) -> Vec<U> + Send + Sync>,
    ) -> Self {
        MapPartitionsOp {
            id,
            parent,
            f,
            _guard: guard,
        }
    }
}

impl<T: Data, U: Data> Op<U> for MapPartitionsOp<T, U> {
    fn id(&self) -> OpId {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<U> {
        let input = materialize(&self.parent, part, ctx);
        ctx.add_work(input.len(), 1.0);
        (self.f)(part, &input)
    }

    fn name(&self) -> &str {
        "mapPartitions"
    }
}

/// `map_partitions_ctx`: whole-partition transform whose closure also
/// receives the [`TaskCtx`], so kernel-style operators can charge their
/// own work model and report kernel counters (rows processed, scratch
/// reuses). Unlike [`MapPartitionsOp`] no default work is charged — the
/// closure owns the accounting.
pub struct MapPartitionsCtxOp<T: Data, U: Data> {
    id: OpId,
    parent: Arc<dyn Op<T>>,
    f: Arc<dyn Fn(&TaskCtx<'_>, usize, &[T]) -> Vec<U> + Send + Sync>,
    _guard: OpGuard,
}

impl<T: Data, U: Data> MapPartitionsCtxOp<T, U> {
    pub(crate) fn new(
        id: OpId,
        guard: OpGuard,
        parent: Arc<dyn Op<T>>,
        f: Arc<dyn Fn(&TaskCtx<'_>, usize, &[T]) -> Vec<U> + Send + Sync>,
    ) -> Self {
        MapPartitionsCtxOp {
            id,
            parent,
            f,
            _guard: guard,
        }
    }
}

impl<T: Data, U: Data> Op<U> for MapPartitionsCtxOp<T, U> {
    fn id(&self) -> OpId {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<U> {
        let input = materialize(&self.parent, part, ctx);
        (self.f)(ctx, part, &input)
    }

    fn name(&self) -> &str {
        "mapPartitions"
    }
}
