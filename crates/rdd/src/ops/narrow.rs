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

/// `sample`: keep each record independently with probability `fraction`,
/// deterministically per (seed, partition) — no external RNG dependency,
/// a SplitMix64 stream suffices for Bernoulli thinning.
pub struct SampleOp<T: Data> {
    id: OpId,
    parent: Arc<dyn Op<T>>,
    fraction: f64,
    seed: u64,
    _guard: OpGuard,
}

impl<T: Data> SampleOp<T> {
    pub(crate) fn new(
        id: OpId,
        guard: OpGuard,
        parent: Arc<dyn Op<T>>,
        fraction: f64,
        seed: u64,
    ) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "sampling fraction must be in [0, 1]"
        );
        SampleOp {
            id,
            parent,
            fraction,
            seed,
            _guard: guard,
        }
    }
}

/// One step of the SplitMix64 generator.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl<T: Data> Op<T> for SampleOp<T> {
    fn id(&self) -> OpId {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<T> {
        let input = materialize(&self.parent, part, ctx);
        ctx.add_work(input.len(), 0.5);
        let mut state = self.seed ^ (part as u64).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
        let threshold = (self.fraction * u64::MAX as f64) as u64;
        input
            .iter()
            .filter(|_| splitmix64(&mut state) <= threshold)
            .cloned()
            .collect()
    }

    fn name(&self) -> &str {
        "sample"
    }
}

/// `coalesce`: merge adjacent parent partitions into `n` output
/// partitions without a shuffle (Spark's `coalesce(n, shuffle = false)`).
pub struct CoalesceOp<T: Data> {
    id: OpId,
    parent: Arc<dyn Op<T>>,
    /// Output partition → contiguous range of parent partitions.
    groups: Vec<std::ops::Range<usize>>,
    _guard: OpGuard,
}

impl<T: Data> CoalesceOp<T> {
    pub(crate) fn new(id: OpId, guard: OpGuard, parent: Arc<dyn Op<T>>, n: usize) -> Self {
        assert!(n > 0, "coalesce needs at least one output partition");
        let parents = parent.num_partitions();
        let n = n.min(parents.max(1));
        // Contiguous, balanced grouping: sizes differ by at most one.
        let base = parents / n;
        let extra = parents % n;
        let mut groups = Vec::with_capacity(n);
        let mut start = 0usize;
        for i in 0..n {
            let len = base + usize::from(i < extra);
            groups.push(start..start + len);
            start += len;
        }
        CoalesceOp {
            id,
            parent,
            groups,
            _guard: guard,
        }
    }
}

impl<T: Data> Op<T> for CoalesceOp<T> {
    fn id(&self) -> OpId {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.groups.len()
    }

    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<T> {
        let mut out = Vec::new();
        for parent_part in self.groups[part].clone() {
            out.extend(materialize(&self.parent, parent_part, ctx).iter().cloned());
        }
        out
    }

    fn name(&self) -> &str {
        "coalesce"
    }
}

/// `union`: concatenation of the parents' partitions.
pub struct UnionOp<T: Data> {
    id: OpId,
    parents: Vec<Arc<dyn Op<T>>>,
    /// Partition-count prefix sums for global→(parent, local) translation.
    offsets: Vec<usize>,
    _guard: OpGuard,
}

impl<T: Data> UnionOp<T> {
    pub(crate) fn new(id: OpId, guard: OpGuard, parents: Vec<Arc<dyn Op<T>>>) -> Self {
        assert!(!parents.is_empty(), "union needs at least one parent");
        let mut offsets = Vec::with_capacity(parents.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for p in &parents {
            total += p.num_partitions();
            offsets.push(total);
        }
        UnionOp {
            id,
            parents,
            offsets,
            _guard: guard,
        }
    }
}

impl<T: Data> Op<T> for UnionOp<T> {
    fn id(&self) -> OpId {
        self.id
    }

    fn num_partitions(&self) -> usize {
        *self.offsets.last().expect("offsets nonempty")
    }

    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<T> {
        let which = self
            .offsets
            .windows(2)
            .position(|w| part >= w[0] && part < w[1])
            .expect("partition index within union range");
        let local = part - self.offsets[which];
        materialize(&self.parents[which], local, ctx)
            .as_ref()
            .clone()
    }

    fn name(&self) -> &str {
        "union"
    }
}
