//! Source operators: in-memory collections and DFS text files.

use std::sync::Arc;

use sparkscore_dfs::{text::block_lines, FileMeta};

use crate::context::TaskCtx;
use crate::engine::OpGuard;
use crate::metrics::Metrics;
use crate::ops::{Data, Op};
use crate::OpId;

/// A driver-side collection split into `n` partitions (`sc.parallelize`).
pub struct ParallelizeOp<T: Data> {
    id: OpId,
    partitions: Arc<Vec<Vec<T>>>,
    _guard: OpGuard,
}

impl<T: Data> ParallelizeOp<T> {
    pub(crate) fn new(id: OpId, guard: OpGuard, data: Vec<T>, num_partitions: usize) -> Self {
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
            id,
            partitions: Arc::new(partitions),
            _guard: guard,
        }
    }
}

impl<T: Data> Op<T> for ParallelizeOp<T> {
    fn id(&self) -> OpId {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.partitions.len()
    }

    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<T> {
        let data = &self.partitions[part];
        // Driver memory → executor: cheap, but not free.
        ctx.add_work(data.len(), 0.2);
        data.clone()
    }

    fn name(&self) -> &str {
        "parallelize"
    }
}

/// A DFS text file, one partition per block (`sc.textFile`), with a
/// caller-supplied parser deciding what records a block's bytes become —
/// the role a custom `InputFormat` plays in Spark. Locality hints, input
/// accounting and the block read are this operator's; `parse` runs once
/// per task on the replica's bytes in place and charges, through the task
/// context, whatever work it models.
pub struct TextFileOp<T: Data> {
    id: OpId,
    meta: FileMeta,
    parse: Arc<dyn Fn(&TaskCtx<'_>, &[u8]) -> Vec<T> + Send + Sync>,
    _guard: OpGuard,
}

impl<T: Data> TextFileOp<T> {
    pub(crate) fn new(
        id: OpId,
        guard: OpGuard,
        meta: FileMeta,
        parse: Arc<dyn Fn(&TaskCtx<'_>, &[u8]) -> Vec<T> + Send + Sync>,
    ) -> Self {
        TextFileOp {
            id,
            meta,
            parse,
            _guard: guard,
        }
    }

    pub fn path(&self) -> &str {
        &self.meta.path
    }
}

/// The block parser of a plain `text_file`: one owned `String` per line.
pub(crate) fn owned_lines(ctx: &TaskCtx<'_>, block: &[u8]) -> Vec<String> {
    let lines: Vec<String> = block_lines(block).map(str::to_owned).collect();
    ctx.add_work(lines.len(), 1.0);
    lines
}

impl<T: Data> Op<T> for TextFileOp<T> {
    fn id(&self) -> OpId {
        self.id
    }

    fn num_partitions(&self) -> usize {
        self.meta.blocks.len()
    }

    fn compute(&self, part: usize, ctx: &TaskCtx<'_>) -> Vec<T> {
        let engine = ctx.engine();
        let (block_id, bytes) = self.meta.blocks[part];
        ctx.add_preferred_all(&engine.dfs().block_locations(block_id));
        ctx.add_input_bytes(bytes);
        Metrics::add(&engine.metrics.input_bytes, bytes);
        let (data, _served_by) = engine.dfs().read_block(block_id, None).unwrap_or_else(|e|

                // Unrecoverable: lineage cannot rebuild source data whose
                // every replica is gone — Spark fails the job here too.
                panic!("input block lost beyond recovery for {}: {e}", self.meta.path));
        (self.parse)(ctx, &data)
    }

    fn name(&self) -> &str {
        "textFile"
    }
}
