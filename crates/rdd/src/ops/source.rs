//! Source operators: in-memory collections and DFS text files.

use std::sync::Arc;

use sparkscore_dfs::{text::block_lines, FileMeta};

use crate::context::TaskCtx;
use crate::engine::OpGuard;
use crate::ops::{AnyOp, Data, Op};
use crate::{OpId, ShuffleId};

/// A driver-side collection split into `n` partitions (`sc.parallelize`).
pub struct ParallelizeOp<T: Data> {
    guard: OpGuard,
    partitions: Arc<Vec<Vec<T>>>,
}

impl<T: Data> ParallelizeOp<T> {
    pub(crate) fn new(guard: OpGuard, data: Vec<T>, num_partitions: usize) -> Self {
        assert!(num_partitions > 0, "need at least one partition");
        let n = data.len();
        let mut partitions: Vec<Vec<T>> = (0..num_partitions).map(|_| Vec::new()).collect();
        if n > 0 {
            // Contiguous ranges, sizes differing by at most one.
            let base = n / num_partitions;
            let extra = n % num_partitions;
            let mut it = data.into_iter();
            for (i, slot) in partitions.iter_mut().enumerate() {
                let take = base + usize::from(i < extra);
                slot.extend(it.by_ref().take(take));
            }
        }
        ParallelizeOp {
            guard,
            partitions: Arc::new(partitions),
        }
    }
}

impl<T: Data> AnyOp for ParallelizeOp<T> {
    fn id(&self) -> OpId {
        self.guard.id()
    }

    fn name(&self) -> &str {
        "parallelize"
    }

    fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    fn deps(&self) -> Vec<(&dyn AnyOp, Option<ShuffleId>)> {
        Vec::new()
    }
}

impl<T: Data> Op<T> for ParallelizeOp<T> {
    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<T> {
        let data = &self.partitions[part];
        // Driver memory → executor: cheap, but not free.
        ctx.add_work(data.len(), 0.2);
        data.clone()
    }
}

/// A DFS text file, one partition per block (`sc.textFile`), with a
/// caller-supplied parser deciding what records a block's bytes become —
/// the role a custom `InputFormat` plays in Spark. Locality hints, input
/// accounting and the block read are this operator's; `parse` runs once
/// per task on the replica's bytes in place and charges, through the task
/// context, whatever work it models.
pub struct TextFileOp<T: Data> {
    guard: OpGuard,
    meta: FileMeta,
    parse: Arc<dyn Fn(&TaskCtx<'_>, &[u8]) -> Vec<T> + Send + Sync>,
}

impl<T: Data> TextFileOp<T> {
    pub(crate) fn new(
        guard: OpGuard,
        meta: FileMeta,
        parse: Arc<dyn Fn(&TaskCtx<'_>, &[u8]) -> Vec<T> + Send + Sync>,
    ) -> Self {
        TextFileOp { guard, meta, parse }
    }
}

/// The block parser of a plain `text_file`: one owned `String` per line.
pub(crate) fn owned_lines(ctx: &TaskCtx<'_>, block: &[u8]) -> Vec<String> {
    let lines: Vec<String> = block_lines(block).map(str::to_owned).collect();
    ctx.add_work(lines.len(), 1.0);
    lines
}

impl<T: Data> AnyOp for TextFileOp<T> {
    fn id(&self) -> OpId {
        self.guard.id()
    }

    fn name(&self) -> &str {
        "textFile"
    }

    fn num_partitions(&self) -> usize {
        self.meta.blocks.len()
    }

    fn deps(&self) -> Vec<(&dyn AnyOp, Option<ShuffleId>)> {
        Vec::new()
    }
}

impl<T: Data> Op<T> for TextFileOp<T> {
    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<T> {
        let engine = ctx.engine();
        let (block_id, bytes) = self.meta.blocks[part];
        ctx.add_preferred_all(&engine.dfs().block_locations(block_id));
        ctx.add_input_bytes(bytes);
        let (data, _served_by) = engine.dfs().read_block(block_id, None).unwrap_or_else(|e|

                // Unrecoverable: lineage cannot rebuild source data whose
                // every replica is gone — Spark fails the job here too.
                panic!("input block lost beyond recovery for {}: {e}", self.meta.path));
        (self.parse)(ctx, &data)
    }
}
