//! `Dataset<T>` — the typed, lazy, partitioned collection (Spark's RDD).
//!
//! Transformations (`map`, `filter`, `reduce_by_key`, `join`, …) build the
//! lineage graph lazily; actions (`collect`, `count`, `reduce`, …) submit a
//! job to the [`Engine`], which plans shuffle stages, honors the block
//! cache, and recovers lost partitions from lineage. `cache()` marks the
//! dataset's partitions for storage in the engine's block cache — the
//! operation SparkScore's Monte Carlo resampling (Algorithm 3, step 2)
//! applies to the `U` RDD.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

use sparkscore_dfs::DfsError;

use crate::engine::{Engine, OpGuard};
use crate::meta::{DepMeta, OpMeta};
use crate::ops::narrow::{FilterOp, FlatMapOp, MapOp, MapPartitionsCtxOp, MapPartitionsOp};
use crate::ops::shuffled::{Aggregator, JoinOp, ShuffledOp};
use crate::ops::source::{owned_lines, ParallelizeOp, TextFileOp};
use crate::ops::{materialize, Data, Op};
use crate::{OpId, ShuffleId};

/// A typed, lazy, partitioned dataset bound to an engine.
pub struct Dataset<T: Data> {
    engine: Arc<Engine>,
    op: Arc<dyn Op<T>>,
}

impl<T: Data> Clone for Dataset<T> {
    fn clone(&self) -> Self {
        Dataset {
            engine: Arc::clone(&self.engine),
            op: Arc::clone(&self.op),
        }
    }
}

/// Register a new operator's metadata and produce its cleanup guard.
fn register_op(
    engine: &Arc<Engine>,
    name: &str,
    num_partitions: usize,
    deps: Vec<DepMeta>,
    shuffles: Vec<ShuffleId>,
) -> (OpId, OpGuard) {
    let id = engine.new_op_id();
    engine.meta.register(OpMeta {
        id,
        name: name.to_string(),
        deps,
        num_partitions,
    });
    (id, OpGuard::new(engine, id, shuffles))
}

impl Engine {
    /// Distribute a driver-side collection over `num_partitions` partitions
    /// (Spark's `sc.parallelize`).
    pub fn parallelize<T: Data>(
        self: &Arc<Self>,
        data: Vec<T>,
        num_partitions: usize,
    ) -> Dataset<T> {
        let (id, guard) = register_op(self, "parallelize", num_partitions, vec![], vec![]);
        Dataset {
            engine: Arc::clone(self),
            op: Arc::new(ParallelizeOp::new(id, guard, data, num_partitions)),
        }
    }

    /// Open a DFS text file as a dataset of lines, one partition per block
    /// with HDFS locality hints (Spark's `sc.textFile`).
    pub fn text_file(self: &Arc<Self>, path: &str) -> Result<Dataset<String>, DfsError> {
        self.text_file_with(path, owned_lines)
    }

    /// Open a DFS text file as a dataset of whatever `parse` makes of each
    /// block's bytes — same partitioning, locality hints and input
    /// accounting as [`Engine::text_file`], which is this with a parser
    /// that copies out the lines. A format that can go from text to its
    /// records directly supplies its own (Spark's custom `InputFormat`),
    /// and charges the work it models through the task context.
    pub fn text_file_with<T: Data>(
        self: &Arc<Self>,
        path: &str,
        parse: impl Fn(&crate::TaskCtx<'_>, &[u8]) -> Vec<T> + Send + Sync + 'static,
    ) -> Result<Dataset<T>, DfsError> {
        let meta = self.dfs().stat(path)?;
        let (id, guard) = register_op(self, "textFile", meta.num_blocks(), vec![], vec![]);
        Ok(Dataset {
            engine: Arc::clone(self),
            op: Arc::new(TextFileOp::new(id, guard, meta, Arc::new(parse))),
        })
    }
}

impl<T: Data> Dataset<T> {
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    pub fn id(&self) -> OpId {
        self.op.id()
    }

    pub fn num_partitions(&self) -> usize {
        self.op.num_partitions()
    }

    fn narrow_dep(&self) -> Vec<DepMeta> {
        vec![DepMeta {
            parent: self.op.id(),
            shuffle: None,
        }]
    }

    // ---- transformations (lazy) ----

    /// Apply `f` to every record.
    pub fn map<U: Data>(&self, f: impl Fn(T) -> U + Send + Sync + 'static) -> Dataset<U> {
        self.map_with_cost(1.0, f)
    }

    /// Apply `f` to every record, declaring its modeled per-record cost in
    /// work units (see [`MapOp`]) for virtual-time accounting. Results are
    /// identical to [`Dataset::map`]; only the simulated clock differs.
    pub fn map_with_cost<U: Data>(
        &self,
        cost_units: f64,
        f: impl Fn(T) -> U + Send + Sync + 'static,
    ) -> Dataset<U> {
        let (id, guard) = register_op(
            &self.engine,
            "map",
            self.num_partitions(),
            self.narrow_dep(),
            vec![],
        );
        Dataset {
            engine: Arc::clone(&self.engine),
            op: Arc::new(MapOp::new(
                id,
                guard,
                Arc::clone(&self.op),
                Arc::new(f),
                cost_units,
            )),
        }
    }

    /// Keep records satisfying `pred`.
    pub fn filter(&self, pred: impl Fn(&T) -> bool + Send + Sync + 'static) -> Dataset<T> {
        let (id, guard) = register_op(
            &self.engine,
            "filter",
            self.num_partitions(),
            self.narrow_dep(),
            vec![],
        );
        Dataset {
            engine: Arc::clone(&self.engine),
            op: Arc::new(FilterOp::new(
                id,
                guard,
                Arc::clone(&self.op),
                Arc::new(pred),
            )),
        }
    }

    /// Apply `f` and flatten the results.
    pub fn flat_map<U: Data>(&self, f: impl Fn(T) -> Vec<U> + Send + Sync + 'static) -> Dataset<U> {
        let (id, guard) = register_op(
            &self.engine,
            "flatMap",
            self.num_partitions(),
            self.narrow_dep(),
            vec![],
        );
        Dataset {
            engine: Arc::clone(&self.engine),
            op: Arc::new(FlatMapOp::new(id, guard, Arc::clone(&self.op), Arc::new(f))),
        }
    }

    /// Transform a whole partition at once; `f` receives the partition
    /// index and its records.
    pub fn map_partitions<U: Data>(
        &self,
        f: impl Fn(usize, &[T]) -> Vec<U> + Send + Sync + 'static,
    ) -> Dataset<U> {
        let (id, guard) = register_op(
            &self.engine,
            "mapPartitions",
            self.num_partitions(),
            self.narrow_dep(),
            vec![],
        );
        Dataset {
            engine: Arc::clone(&self.engine),
            op: Arc::new(MapPartitionsOp::new(
                id,
                guard,
                Arc::clone(&self.op),
                Arc::new(f),
            )),
        }
    }

    /// Like [`Dataset::map_partitions`], but `f` also receives the task
    /// context — for kernel operators that charge their own cost model and
    /// report their own counters ([`crate::TaskCtx::count`]). No default
    /// work is charged; the closure is responsible for `ctx.add_work`.
    pub fn map_partitions_ctx<U: Data>(
        &self,
        f: impl Fn(&crate::TaskCtx<'_>, usize, &[T]) -> Vec<U> + Send + Sync + 'static,
    ) -> Dataset<U> {
        let (id, guard) = register_op(
            &self.engine,
            "mapPartitions",
            self.num_partitions(),
            self.narrow_dep(),
            vec![],
        );
        Dataset {
            engine: Arc::clone(&self.engine),
            op: Arc::new(MapPartitionsCtxOp::new(
                id,
                guard,
                Arc::clone(&self.op),
                Arc::new(f),
            )),
        }
    }

    /// Pair every record with a key derived from it.
    pub fn key_by<K: Data>(&self, f: impl Fn(&T) -> K + Send + Sync + 'static) -> Dataset<(K, T)> {
        self.map(move |t| (f(&t), t))
    }

    // ---- caching ----

    /// Mark this dataset's partitions for the block cache. Lazy like
    /// Spark's: blocks are stored the first time partitions materialize.
    pub fn cache(&self) -> Dataset<T> {
        self.engine.cache.mark(self.op.id());
        self.clone()
    }

    /// Remove this dataset from the cache (Spark's `unpersist`).
    pub fn unpersist(&self) {
        let op = self.op.id();
        for (partition, bytes) in self.engine.cache.unmark(op) {
            self.engine
                .events()
                .emit_with(|| crate::events::EngineEvent::CacheEvicted {
                    op: op.0,
                    partition,
                    pressure: false,
                    bytes,
                });
        }
    }

    pub fn is_cached(&self) -> bool {
        self.engine.cache.is_marked(self.op.id())
    }

    /// Lineage tree, for debugging (Spark's `toDebugString`).
    pub fn lineage(&self) -> String {
        self.engine
            .meta
            .lineage_string(self.op.id(), &self.engine.cache)
    }

    // ---- actions (eager) ----

    /// Run a job that applies `f` to each materialized partition.
    pub fn run_partitions<R: Send>(&self, f: impl Fn(Arc<Vec<T>>) -> R + Sync) -> Vec<R> {
        let op = Arc::clone(&self.op);
        self.engine
            .run_job(op.id(), op.num_partitions(), move |part, ctx| {
                f(materialize(&op, part, ctx))
            })
    }

    /// One grid row of a distributed GEMM: run `kernel` once per partition
    /// of this dataset as engine tasks, handing each the task context (for
    /// work counters and sub-task spans), the partition index, and the
    /// materialized records. Cached datasets serve the records from the
    /// block cache, so repeated grid rows (one per broadcast operand tile)
    /// re-stream resident partitions instead of recomputing lineage.
    /// Results come back in partition order — a deterministic, shuffle-free
    /// gather the driver can fold without reassociating task-local
    /// arithmetic.
    pub fn grid_cells<R: Send>(
        &self,
        kernel: impl Fn(&crate::TaskCtx<'_>, usize, &[T]) -> R + Sync,
    ) -> Vec<R> {
        let op = Arc::clone(&self.op);
        self.engine
            .run_job(op.id(), op.num_partitions(), move |part, ctx| {
                let data = materialize(&op, part, ctx);
                kernel(ctx, part, &data)
            })
    }

    /// Gather every record to the driver, in partition order.
    pub fn collect(&self) -> Vec<T> {
        let parts = self.run_partitions(|p| p);
        let total = parts.iter().map(|p| p.len()).sum();
        let mut out = Vec::with_capacity(total);
        for p in parts {
            out.extend(p.iter().cloned());
        }
        out
    }

    /// Number of records.
    pub fn count(&self) -> usize {
        self.run_partitions(|p| p.len()).into_iter().sum()
    }

    /// Reduce all records with `f`; `None` on an empty dataset.
    pub fn reduce(&self, f: impl Fn(T, T) -> T + Send + Sync) -> Option<T> {
        self.run_partitions(|p| p.iter().cloned().reduce(&f))
            .into_iter()
            .flatten()
            .reduce(&f)
    }

    /// Fold all records starting from `zero` in each partition, then fold
    /// the per-partition results. `f` must be associative and `zero` its
    /// identity, as in Spark.
    pub fn fold(&self, zero: T, f: impl Fn(T, T) -> T + Send + Sync) -> T {
        let z = zero.clone();
        let f = &f;
        self.run_partitions(move |p| p.iter().cloned().fold(z.clone(), f))
            .into_iter()
            .fold(zero, f)
    }

    /// First `n` records in partition order. (Materializes all partitions;
    /// Spark's incremental `take` short-circuit is not modeled.)
    pub fn take(&self, n: usize) -> Vec<T> {
        let mut v = self.collect();
        v.truncate(n);
        v
    }

    /// First record, if any.
    pub fn first(&self) -> Option<T> {
        self.take(1).into_iter().next()
    }
}

impl<K, V> Dataset<(K, V)>
where
    K: Data + Hash + Eq,
    V: Data,
{
    /// General combine-by-key over `num_reduce_parts` output partitions.
    pub fn combine_by_key<C: Data>(
        &self,
        agg: Aggregator<V, C>,
        num_reduce_parts: usize,
    ) -> Dataset<(K, C)> {
        let sid = self.engine.new_shuffle_id();
        let deps = vec![DepMeta {
            parent: self.op.id(),
            shuffle: Some(sid),
        }];
        let (id, guard) = register_op(&self.engine, "shuffled", num_reduce_parts, deps, vec![sid]);
        Dataset {
            engine: Arc::clone(&self.engine),
            op: Arc::new(ShuffledOp::new(
                &self.engine,
                id,
                guard,
                sid,
                Arc::clone(&self.op),
                num_reduce_parts,
                agg,
            )),
        }
    }

    /// Merge values per key with `f` (map-side combining enabled).
    pub fn reduce_by_key(
        &self,
        num_reduce_parts: usize,
        f: impl Fn(V, V) -> V + Send + Sync + 'static,
    ) -> Dataset<(K, V)> {
        self.combine_by_key(Aggregator::reducing(f), num_reduce_parts)
    }

    pub fn keys(&self) -> Dataset<K> {
        self.map(|(k, _)| k)
    }

    pub fn values(&self) -> Dataset<V> {
        self.map(|(_, v)| v)
    }

    /// Inner join on key (the paper's Algorithm 1, step 9: joining the
    /// per-SNP inner sums with the SNP weights): per key, every left value
    /// with every right value, left-major, straight off a co-group's reduce
    /// side (two shuffles, one reduce).
    pub fn join<W: Data>(
        &self,
        other: &Dataset<(K, W)>,
        num_reduce_parts: usize,
    ) -> Dataset<(K, (V, W))> {
        let sids = (self.engine.new_shuffle_id(), self.engine.new_shuffle_id());
        let deps = vec![
            DepMeta {
                parent: self.op.id(),
                shuffle: Some(sids.0),
            },
            DepMeta {
                parent: other.op.id(),
                shuffle: Some(sids.1),
            },
        ];
        let (id, guard) = register_op(
            &self.engine,
            "join",
            num_reduce_parts,
            deps,
            vec![sids.0, sids.1],
        );
        Dataset {
            engine: Arc::clone(&self.engine),
            op: Arc::new(JoinOp::new(
                &self.engine,
                id,
                guard,
                sids,
                Arc::clone(&self.op),
                Arc::clone(&other.op),
                num_reduce_parts,
            )),
        }
    }

    /// Collect to a driver-side map. Later duplicates of a key win, as in
    /// Spark's `collectAsMap`.
    pub fn collect_as_map(&self) -> HashMap<K, V> {
        self.collect().into_iter().collect()
    }
}
