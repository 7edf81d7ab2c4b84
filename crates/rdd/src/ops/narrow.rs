//! The narrow (pipelined) operator: each output partition depends on
//! exactly one parent partition, so no shuffle is needed and lineage
//! recovery recomputes a single upstream chain.
//!
//! `map`, `filter`, `flat_map`, `map_partitions` and `map_partitions_ctx`
//! are all one [`NarrowOp`]: a name and a function from the parent's
//! materialized partition to this one's. Each [`crate::Dataset`] method
//! supplies the function, and with it the work it charges. The by-value
//! ones (`map`, `filter`, `flat_map`) move records out of a parent
//! partition this task holds the only reference to — an uncached parent's,
//! which `materialize` built for this call alone — and clone record by
//! record only when the block cache holds it too.

use std::sync::Arc;

use crate::context::TaskCtx;
use crate::engine::OpGuard;
use crate::ops::{materialize, AnyOp, Data, Op};
use crate::{OpId, ShuffleId};

/// A narrow operator: `f` turns the parent's partition `part` into this
/// operator's, charging its own work through the task context.
pub struct NarrowOp<T: Data, U: Data> {
    name: &'static str,
    parent: Arc<dyn Op<T>>,
    f: Box<dyn Fn(&TaskCtx<'_>, usize, Arc<Vec<T>>) -> Vec<U> + Send + Sync>,
    guard: OpGuard,
}

impl<T: Data, U: Data> NarrowOp<T, U> {
    pub(crate) fn new(
        guard: OpGuard,
        name: &'static str,
        parent: Arc<dyn Op<T>>,
        f: impl Fn(&TaskCtx<'_>, usize, Arc<Vec<T>>) -> Vec<U> + Send + Sync + 'static,
    ) -> Self {
        NarrowOp {
            name,
            parent,
            f: Box::new(f),
            guard,
        }
    }
}

impl<T: Data, U: Data> AnyOp for NarrowOp<T, U> {
    fn id(&self) -> OpId {
        self.guard.id()
    }

    fn name(&self) -> &str {
        self.name
    }

    fn num_partitions(&self) -> usize {
        self.parent.num_partitions()
    }

    fn deps(&self) -> Vec<(&dyn AnyOp, Option<ShuffleId>)> {
        vec![(&*self.parent, None)]
    }
}

impl<T: Data, U: Data> Op<U> for NarrowOp<T, U> {
    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<U> {
        (self.f)(ctx, part, materialize(&self.parent, part, ctx))
    }
}
