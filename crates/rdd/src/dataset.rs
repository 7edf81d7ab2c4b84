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
use crate::ops::narrow::{
    CoalesceOp, FilterOp, FlatMapOp, MapOp, MapPartitionsCtxOp, MapPartitionsOp, SampleOp, UnionOp,
};
use crate::ops::shuffled::{emit_groups, emit_pairs, Aggregator, CoGroupOp, Emit, ShuffledOp};
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

    /// Open a directory of Hadoop-style `part-NNNNN` files (as produced by
    /// [`Dataset::save_as_text_file`]) as one dataset, parts in order.
    pub fn text_file_dir(self: &Arc<Self>, dir: &str) -> Result<Dataset<String>, DfsError> {
        let prefix = format!("{}/part-", dir.trim_end_matches('/'));
        let mut paths: Vec<String> = self
            .dfs()
            .list_files()
            .into_iter()
            .filter(|p| p.starts_with(&prefix))
            .collect();
        paths.sort();
        if paths.is_empty() {
            return Err(DfsError::FileNotFound(format!("{dir}/part-*")));
        }
        let mut parents: Vec<Arc<dyn Op<String>>> = Vec::with_capacity(paths.len());
        let mut deps = Vec::with_capacity(paths.len());
        for path in &paths {
            let part = self.text_file(path)?;
            deps.push(DepMeta {
                parent: part.id(),
                shuffle: None,
            });
            parents.push(part.op);
        }
        let total: usize = parents.iter().map(|p| p.num_partitions()).sum();
        let (id, guard) = register_op(self, "textFileDir", total, deps, vec![]);
        Ok(Dataset {
            engine: Arc::clone(self),
            op: Arc::new(UnionOp::new(id, guard, parents)),
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

    /// Concatenate with `other` (partitions are appended, not merged).
    pub fn union(&self, other: &Dataset<T>) -> Dataset<T> {
        let deps = vec![
            DepMeta {
                parent: self.op.id(),
                shuffle: None,
            },
            DepMeta {
                parent: other.op.id(),
                shuffle: None,
            },
        ];
        let parts = self.num_partitions() + other.num_partitions();
        let (id, guard) = register_op(&self.engine, "union", parts, deps, vec![]);
        Dataset {
            engine: Arc::clone(&self.engine),
            op: Arc::new(UnionOp::new(
                id,
                guard,
                vec![Arc::clone(&self.op), Arc::clone(&other.op)],
            )),
        }
    }

    /// Pair every record with a key derived from it.
    pub fn key_by<K: Data>(&self, f: impl Fn(&T) -> K + Send + Sync + 'static) -> Dataset<(K, T)> {
        self.map(move |t| (f(&t), t))
    }

    /// Bernoulli sample: keep each record with probability `fraction`,
    /// deterministically in `seed`.
    pub fn sample(&self, fraction: f64, seed: u64) -> Dataset<T> {
        let (id, guard) = register_op(
            &self.engine,
            "sample",
            self.num_partitions(),
            self.narrow_dep(),
            vec![],
        );
        Dataset {
            engine: Arc::clone(&self.engine),
            op: Arc::new(SampleOp::new(
                id,
                guard,
                Arc::clone(&self.op),
                fraction,
                seed,
            )),
        }
    }

    /// Merge adjacent partitions down to at most `n`, without a shuffle.
    pub fn coalesce(&self, n: usize) -> Dataset<T> {
        let (id, guard) = register_op(
            &self.engine,
            "coalesce",
            n.min(self.num_partitions().max(1)),
            self.narrow_dep(),
            vec![],
        );
        Dataset {
            engine: Arc::clone(&self.engine),
            op: Arc::new(CoalesceOp::new(id, guard, Arc::clone(&self.op), n)),
        }
    }

    /// Pair every record with its global index in partition order.
    ///
    /// Like Spark's `zipWithIndex`, this runs a job to learn partition
    /// lengths before building the result dataset.
    pub fn zip_with_index(&self) -> Dataset<(T, u64)> {
        let lengths = self.run_partitions(|p| p.len() as u64);
        let mut offsets = Vec::with_capacity(lengths.len());
        let mut acc = 0u64;
        for len in lengths {
            offsets.push(acc);
            acc += len;
        }
        self.map_partitions(move |part, records| {
            records
                .iter()
                .enumerate()
                .map(|(i, r)| (r.clone(), offsets[part] + i as u64))
                .collect()
        })
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

    /// The `n` smallest records under `cmp` (Spark's `takeOrdered`):
    /// per-partition selection, then a driver-side merge — never
    /// materializes more than `n × partitions` records on the driver.
    pub fn take_ordered(
        &self,
        n: usize,
        cmp: impl Fn(&T, &T) -> std::cmp::Ordering + Send + Sync,
    ) -> Vec<T> {
        if n == 0 {
            return Vec::new();
        }
        let cmp = &cmp;
        let mut merged: Vec<T> = self
            .run_partitions(move |p| {
                let mut local: Vec<T> = p.iter().cloned().collect();
                local.sort_by(cmp);
                local.truncate(n);
                local
            })
            .into_iter()
            .flatten()
            .collect();
        merged.sort_by(cmp);
        merged.truncate(n);
        merged
    }
}

impl Dataset<String> {
    /// Persist as Hadoop-style `part-NNNNN` text files under `dir` on the
    /// DFS (Spark's `saveAsTextFile`). One file per partition; records
    /// become lines. Re-reading with [`Engine::text_file_dir`] yields a
    /// dataset with **no lineage back to this one** — the classic way to
    /// truncate a long lineage by materializing it durably.
    pub fn save_as_text_file(&self, dir: &str) -> Result<(), DfsError> {
        let parts = self.run_partitions(|records| {
            let mut text = String::new();
            for r in records.iter() {
                text.push_str(r);
                text.push('\n');
            }
            text
        });
        let dir = dir.trim_end_matches('/');
        for (i, text) in parts.into_iter().enumerate() {
            self.engine
                .dfs()
                .write_text(&format!("{dir}/part-{i:05}"), &text)?;
        }
        Ok(())
    }
}

impl<T: Data + Hash + Eq> Dataset<T> {
    /// Unique records (order not specified), via a shuffle.
    pub fn distinct(&self, num_reduce_parts: usize) -> Dataset<T> {
        self.map(|t| (t, ()))
            .reduce_by_key(num_reduce_parts, |a, _| a)
            .keys()
    }
}

impl<K, V> Dataset<(K, V)>
where
    K: Data + Hash + Eq,
    V: Data,
{
    /// Per-key record counts, gathered to the driver.
    pub fn count_by_key(&self, num_reduce_parts: usize) -> HashMap<K, u64> {
        self.map(|(k, _)| (k, 1u64))
            .reduce_by_key(num_reduce_parts, |a, b| a + b)
            .collect_as_map()
    }

    /// Aggregate values per key from a zero value: `seq` folds a value
    /// into the accumulator, `comb` merges accumulators across partitions.
    pub fn aggregate_by_key<C: Data>(
        &self,
        zero: C,
        num_reduce_parts: usize,
        seq: impl Fn(&mut C, V) + Send + Sync + 'static,
        comb: impl Fn(&mut C, C) + Send + Sync + 'static,
    ) -> Dataset<(K, C)> {
        let seq = Arc::new(seq);
        let seq2 = Arc::clone(&seq);
        let agg = Aggregator {
            create: Arc::new(move |v| {
                let mut c = zero.clone();
                seq2(&mut c, v);
                c
            }),
            merge_value: Arc::new(move |c: &mut C, v| seq(c, v)),
            merge_combiners: Arc::new(comb),
        };
        self.combine_by_key(agg, num_reduce_parts)
    }
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

    /// Collect all values per key.
    pub fn group_by_key(&self, num_reduce_parts: usize) -> Dataset<(K, Vec<V>)> {
        self.combine_by_key(Aggregator::grouping(), num_reduce_parts)
    }

    /// Re-partition by key hash, keeping individual pairs.
    pub fn partition_by(&self, num_reduce_parts: usize) -> Dataset<(K, V)> {
        self.group_by_key(num_reduce_parts).flat_map(|(k, vs)| {
            vs.into_iter()
                .map(|v| (k.clone(), v))
                .collect::<Vec<(K, V)>>()
        })
    }

    /// Transform values, keeping keys (and key partitioning semantics).
    pub fn map_values<U: Data>(
        &self,
        f: impl Fn(V) -> U + Send + Sync + 'static,
    ) -> Dataset<(K, U)> {
        self.map(move |(k, v)| (k, f(v)))
    }

    pub fn keys(&self) -> Dataset<K> {
        self.map(|(k, _)| k)
    }

    pub fn values(&self) -> Dataset<V> {
        self.map(|(_, v)| v)
    }

    /// Group both datasets by key in one pass (two shuffles, one reduce).
    pub fn co_group<W: Data>(
        &self,
        other: &Dataset<(K, W)>,
        num_reduce_parts: usize,
    ) -> Dataset<(K, (Vec<V>, Vec<W>))> {
        self.co_grouped(other, num_reduce_parts, "coGroup", emit_groups)
    }

    /// Inner join on key (the paper's Algorithm 1, step 9: joining the
    /// per-SNP inner sums with the SNP weights): per key, every left value
    /// with every right value, left-major, straight off the co-group's
    /// reduce side.
    pub fn join<W: Data>(
        &self,
        other: &Dataset<(K, W)>,
        num_reduce_parts: usize,
    ) -> Dataset<(K, (V, W))> {
        self.co_grouped(other, num_reduce_parts, "join", emit_pairs)
    }

    /// A two-shuffle, one-reduce operator over `self` and `other`.
    fn co_grouped<W: Data, Out: Data>(
        &self,
        other: &Dataset<(K, W)>,
        num_reduce_parts: usize,
        name: &'static str,
        emit: Emit<K, V, W, Out>,
    ) -> Dataset<Out> {
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
            name,
            num_reduce_parts,
            deps,
            vec![sids.0, sids.1],
        );
        Dataset {
            engine: Arc::clone(&self.engine),
            op: Arc::new(CoGroupOp::new(
                &self.engine,
                id,
                guard,
                name,
                sids,
                Arc::clone(&self.op),
                Arc::clone(&other.op),
                num_reduce_parts,
                emit,
            )),
        }
    }

    /// Collect to a driver-side map. Later duplicates of a key win, as in
    /// Spark's `collectAsMap`.
    pub fn collect_as_map(&self) -> HashMap<K, V> {
        self.collect().into_iter().collect()
    }
}
