//! The SparkScore analysis context and the two programs that run on it.
//!
//! [`SparkScoreContext`] binds an engine to one analysis' inputs (genotype
//! matrix, phenotypes, SNP weights, SNP-sets). This module holds the
//! context and what both programs read: the `U` RDD, QC, the row sums and
//! the task counters. Each program has its own module and contract:
//! `paper` runs the paper's Algorithms 1–3 and is judged by their job,
//! stage and shuffle structure; `query` answers gene queries and is judged
//! by its answers, bit for bit the sequential oracles'.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sparkscore_data::io::{parse_phenotypes_text, parse_set_line, parse_weight_line};
use sparkscore_data::{DatasetPaths, GenotypeBlock, GwasDataset};
use sparkscore_dfs::text::block_lines;
use sparkscore_dfs::DfsError;
use sparkscore_rdd::{Broadcast, Dataset, Engine, MetricsSnapshot, TaskCounter, TaskCtx};
use sparkscore_stats::linalg::perturb_rows_blocked;
use sparkscore_stats::qc::{check_snp_packed, QcThresholds};
use sparkscore_stats::score::ScoreModel;
use sparkscore_stats::scratch;
use sparkscore_stats::skat::SnpSet;

use crate::model::{Model, Phenotype};
use crate::result::SnpQc;

mod paper;
mod query;

pub use query::McGridOptions;

// The task counters this crate's kernels report through `TaskCtx::count`.
// Each is defined here and nowhere else: the engine carries name → value,
// and every listener, exposition and trace report picks the name up from
// the event stream (`sparkscore_<name>_total`, `trace report`).

/// SNP × patient cells pushed through the score, QC and perturbation
/// kernels — attributes task time to numeric kernels vs engine.
const KERNEL_ROWS: TaskCounter = TaskCounter::new("kernel_rows");
/// Kernel rows served by packed-direct bit kernels — scored straight from
/// the 2-bit words, no byte unpack (a subset of [`KERNEL_ROWS`]).
const PACKED_KERNEL_ROWS: TaskCounter = TaskCounter::new("packed_kernel_rows");
/// Kernel calls served from a pre-existing thread-local scratch buffer
/// (no allocator traffic).
const SCRATCH_REUSES: TaskCounter = TaskCounter::new("scratch_reuses");
/// Resampling row-replicate units computed (one SNP row perturbed for one
/// replicate in a grid task; a one-set run's driver cell runs in no task
/// and counts only in its `McGridRun`).
const REPLICATES_RUN: TaskCounter = TaskCounter::new("replicates_run");
/// Row-replicate units skipped inside an executed grid tile because the
/// owning gene set's stopping rule had already decided.
const REPLICATES_SAVED: TaskCounter = TaskCounter::new("replicates_saved");

/// Per-record cost hints (in engine work units of 25 virtual ns each)
/// modeling the reference platform — the paper's JVM/Spark 1.x stack —
/// whose per-record costs differ from native Rust by wildly different
/// factors per operation. Calibrated against Table III's observed pass
/// (≈509 s for 100 000 SNPs × 1000 patients with ~2 HDFS input blocks):
///
/// * reading + tokenizing + boxing one genotype dosage from text:
///   ≈ 10 µs  → 400 units per patient per line;
/// * computing one patient's Cox score contribution (boxed pipeline):
///   ≈ 2.5 µs → 100 units;
/// * one multiply-add over the *cached, deserialized* `U` arrays
///   (Algorithm 3's per-iteration work): ≈ 25 ns → 1 unit.
///
/// The three-orders-of-magnitude parse-vs-arithmetic gap is precisely the
/// asymmetry that makes the paper's cached Monte Carlo iterations so much
/// cheaper than permutation's full re-execution.
const JVM_UNITS_PARSE_PER_PATIENT: f64 = 400.0;
const JVM_UNITS_SCORE_PER_PATIENT: f64 = 100.0;
const JVM_UNITS_ARITH_PER_PATIENT: f64 = 1.0;
/// Parsing one small `"<snp> <weight>"` line.
const JVM_UNITS_PARSE_WEIGHT_LINE: f64 = 40.0;

/// How marginal scores combine into a SNP-set statistic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CombineMethod {
    /// SKAT: `S_k = Σ_{j∈I_k} ω_j² U_j²` (the paper's statistic).
    #[default]
    Skat,
    /// Weighted burden: `S_k = (Σ_{j∈I_k} ω_j U_j)²` — powerful when
    /// member effects share a direction, weak when they cancel.
    Burden,
}

impl CombineMethod {
    /// A SNP's term in its set's raw sum (burden squares the total).
    fn term(self, w: f64, u_stat: f64) -> f64 {
        match self {
            CombineMethod::Skat => w * w * u_stat * u_stat,
            CombineMethod::Burden => w * u_stat,
        }
    }
}

/// How SNP weights reach the per-SNP scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WeightsStrategy {
    /// Shuffle join against the weights RDD, exactly as the paper's
    /// Algorithm 1 step 9 prescribes.
    #[default]
    Join,
    /// Broadcast a dense weight table and look weights up map-side — an
    /// ablation of the paper's design: it removes two shuffle stages per
    /// resampling iteration at the cost of shipping all weights to every
    /// node once.
    Broadcast,
}

/// Tunables for an analysis.
#[derive(Debug, Clone)]
pub struct AnalysisOptions {
    /// Reduce-side partitions for the weights join and the per-set
    /// aggregation (Spark's `spark.default.parallelism` analogue).
    pub reduce_partitions: usize,
    /// SNP-set combination method.
    pub combine: CombineMethod,
    /// Weight-delivery strategy (ablation; the paper joins).
    pub weights_strategy: WeightsStrategy,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            reduce_partitions: 8,
            combine: CombineMethod::Skat,
            weights_strategy: WeightsStrategy::Join,
        }
    }
}

/// One analysis bound to an engine: inputs loaded, model fitted.
pub struct SparkScoreContext {
    engine: Arc<Engine>,
    model: Model,
    /// `(snp, weight)` pairs — joined against `ω²U²` every pass.
    weights_rdd: Dataset<(u64, f64)>,
    /// Filtered genotype matrix: SNPs that appear in some set, 2-bit
    /// packed column-major per partition (4 dosages per byte, so cached
    /// partitions charge the LRU budget a quarter of the byte layout).
    fgm: Dataset<GenotypeBlock>,
    /// Dense `snp id → set id` lookup, broadcast to tasks.
    snp_to_set: Broadcast<Vec<u64>>,
    /// Dense `snp id → weight` table, present under
    /// [`WeightsStrategy::Broadcast`].
    weights_bc: Option<Broadcast<Vec<f64>>>,
    /// The SNP-sets sorted by id: the row order of every result, and the
    /// member lists the query path folds over.
    sets: Vec<SnpSet>,
    /// One past the largest SNP id in any set: the extent of every dense
    /// per-SNP table.
    max_snp: usize,
    /// The query path's cached state, filled lazily.
    index: query::QueryIndex,
    options: AnalysisOptions,
}

/// `row.iter().sum()` of every row, four rows at a time. One row's sum is
/// a chain of dependent additions that waits out the adder's latency at
/// every step; four rows' chains interleaved keep it busy. Each chain
/// still folds its own row left to right from the value `Iterator::sum`
/// starts from, so every sum has the bits the per-row call gives. Rows of
/// unequal length within a quad, and the last `rows % 4`, are summed one
/// by one.
fn row_sums(rows: &[&[f64]]) -> Vec<f64> {
    let per_row = |row: &&[f64]| row.iter().sum::<f64>();
    let zero: f64 = std::iter::empty::<f64>().sum();
    let mut sums = Vec::with_capacity(rows.len());
    let mut quads = rows.chunks_exact(4);
    for quad in quads.by_ref() {
        let [a, b, c, d] = [quad[0], quad[1], quad[2], quad[3]];
        if [b.len(), c.len(), d.len()] == [a.len(); 3] {
            let mut s = [zero; 4];
            for (((a, b), c), d) in a.iter().zip(b).zip(c).zip(d) {
                s[0] += a;
                s[1] += b;
                s[2] += c;
                s[3] += d;
            }
            sums.extend_from_slice(&s);
        } else {
            sums.extend(quad.iter().map(per_row));
        }
    }
    sums.extend(quads.remainder().iter().map(per_row));
    sums
}

/// Per-SNP inner sums over a `U` dataset, read in place (a task borrows
/// the partition it scans; no row is copied) at the modeled cost of one
/// multiply-add per patient per row: the observed `U_j = Σ_i U_ij`
/// without multipliers, one Monte Carlo replicate `Ũ_j = Σ_i Z_i U_ij`
/// (Algorithm 3 step 4(I)a) with them.
fn inner_sums(
    u: &Dataset<(u64, Vec<f64>)>,
    num_patients: usize,
    mc_multipliers: Option<Broadcast<Vec<f64>>>,
) -> Dataset<(u64, f64)> {
    let arith_cost = num_patients as f64 * JVM_UNITS_ARITH_PER_PATIENT;
    u.map_partitions_ctx(move |ctx, _, rows| {
        ctx.add_work(rows.len(), arith_cost);
        let urows: Vec<&[f64]> = rows.iter().map(|(_, c)| c.as_slice()).collect();
        let sums: Vec<f64> = match &mc_multipliers {
            None => row_sums(&urows),
            // The grid's kernel at tile width 1: its chain per row is the
            // replicate's fold, a register tile of rows advancing together.
            Some(z) => {
                let mut sums = vec![0.0f64; urows.len()];
                perturb_rows_blocked(&urows, num_patients, z.value(), 1, &mut sums);
                sums
            }
        };
        rows.iter().map(|(snp, _)| *snp).zip(sums).collect()
    })
}

/// Columns [`SparkScoreContext::score_sums`] scores before it sums them,
/// few enough that their `FUSED_ROWS · n` doubles are still in cache when
/// summed (64 KB at n = 1000; 4 columns measured no faster).
const FUSED_ROWS: usize = 8;

/// The scoring task over a partition's genotype blocks, in one
/// `kernel:contributions` span: per block the modeled score cost and the
/// kernel row counters, with `each_block` handed the block and a scorer
/// that writes column `c`'s contributions into the slice it is given —
/// straight from the 2-bit words when the model has a packed kernel, else
/// unpacked into thread-local scratch for the byte kernel. The scratch
/// reuses are counted once at the end.
fn score_blocks(
    ctx: &TaskCtx<'_>,
    blocks: &[GenotypeBlock],
    model: &Model,
    mut each_block: impl FnMut(&GenotypeBlock, &mut dyn FnMut(usize, &mut [f64])),
) {
    let n = model.num_patients();
    ctx.time_span("kernel:contributions", || {
        for block in blocks {
            ctx.add_work(block.num_snps(), n as f64 * JVM_UNITS_SCORE_PER_PATIENT);
            let mut packed_rows = 0u64;
            scratch::with_u8(n, |g| {
                each_block(block, &mut |c, out| {
                    if model.contributions_into_packed(block.column(c), out) {
                        packed_rows += n as u64;
                    } else {
                        block.unpack_into(c, g);
                        model.contributions_into(g, out);
                    }
                });
            });
            ctx.count(&KERNEL_ROWS, (block.num_snps() * n) as u64);
            ctx.count(&PACKED_KERNEL_ROWS, packed_rows);
        }
    });
    ctx.count(&SCRATCH_REUSES, scratch::take_reuses());
}

/// `(snp, value)` pairs as a dense table over `0..max_snp`, zero where no
/// pair lands. A pair past every set's members (a weight whose SNP no set
/// lists) has no slot, and is dropped.
fn dense_by_id(pairs: impl IntoIterator<Item = (u64, f64)>, max_snp: usize) -> Vec<f64> {
    let mut dense = vec![0.0f64; max_snp];
    for (snp, value) in pairs {
        if let Some(slot) = dense.get_mut(snp as usize) {
            *slot = value;
        }
    }
    dense
}

/// Sorted union of all SNP-sets (Algorithm 1 step 4): the genotype matrix
/// keeps a SNP exactly when a binary search finds its id here.
fn set_union<'a>(sets: impl IntoIterator<Item = &'a SnpSet>) -> Vec<u64> {
    let mut union: Vec<u64> = sets
        .into_iter()
        .flat_map(|s| s.members.iter().map(|&m| m as u64))
        .collect();
    union.sort_unstable();
    union.dedup();
    union
}

impl SparkScoreContext {
    /// Load a survival analysis from DFS text files (the paper's setup:
    /// "Read input files from HDFS").
    pub fn from_dfs(
        engine: Arc<Engine>,
        paths: &DatasetPaths,
        options: AnalysisOptions,
    ) -> Result<Self, DfsError> {
        let phenotypes = parse_phenotypes_text(&engine.dfs().read_to_string(&paths.phenotypes)?);
        let sets_text = engine.dfs().read_to_string(&paths.sets)?;
        let sets: Vec<SnpSet> = sets_text.lines().map(parse_set_line).collect();
        // Both text inputs go from a block's bytes to their records in one
        // operator, charging what the operator chain each stands for
        // charged: `textFile` 1 unit a line, then the modeled parse.
        let weights_rdd = engine.text_file_with(&paths.weights, |ctx, block| {
            let weights: Vec<(u64, f64)> = block_lines(block).map(parse_weight_line).collect();
            ctx.add_work(weights.len(), 1.0 + JVM_UNITS_PARSE_WEIGHT_LINE);
            weights
        })?;
        let num_patients = phenotypes.len();
        let union = engine.broadcast(set_union(&sets));
        let fgm = engine.text_file_with(&paths.genotypes, move |ctx, block| {
            ctx.time_span("kernel:ingest", || {
                let union = union.value();
                let (packed, lines) = GenotypeBlock::from_text(num_patients, block, |snp| {
                    union.binary_search(&snp).is_ok()
                });
                // `textFile`, `map(parse)`, `filter`, `mapPartitions(pack)`:
                // four terms, so the modeled cost of a pass is the sum it
                // was when they were four operators.
                ctx.add_work(lines, 1.0);
                ctx.add_work(lines, num_patients as f64 * JVM_UNITS_PARSE_PER_PATIENT);
                ctx.add_work(lines, 0.5);
                ctx.add_work(packed.num_snps(), 1.0);
                vec![packed]
            })
        })?;
        Ok(Self::assemble(
            engine,
            Phenotype::Survival(phenotypes),
            fgm,
            weights_rdd,
            &sets,
            options,
        ))
    }

    /// Build an analysis from an in-memory synthetic dataset (skipping the
    /// DFS round-trip; `partitions` controls genotype parallelism).
    pub fn from_memory(
        engine: Arc<Engine>,
        dataset: &GwasDataset,
        partitions: usize,
        options: AnalysisOptions,
    ) -> Self {
        let rows = dataset.genotypes.iter().map(|r| (r.id, r.dosages.clone()));
        let gm = engine.parallelize(rows.collect(), partitions);
        let weights = dataset
            .weights
            .iter()
            .enumerate()
            .map(|(j, &w)| (j as u64, w));
        let weights_rdd = engine.parallelize(weights.collect(), partitions.clamp(1, 4));
        Self::from_parts(
            engine,
            Phenotype::Survival(dataset.phenotypes.clone()),
            gm,
            weights_rdd,
            &dataset.sets,
            options,
        )
    }

    /// Fully general constructor: any phenotype kind, any genotype/weight
    /// datasets (e.g. an eQTL analysis with a quantitative trait).
    pub fn from_parts(
        engine: Arc<Engine>,
        phenotype: Phenotype,
        gm: Dataset<(u64, Vec<u8>)>,
        weights_rdd: Dataset<(u64, f64)>,
        sets: &[SnpSet],
        options: AnalysisOptions,
    ) -> Self {
        let union = engine.broadcast(set_union(sets));
        let num_patients = phenotype.num_patients();
        let fgm = gm
            .filter(move |(snp, _)| union.value().binary_search(snp).is_ok())
            .map_partitions(move |_, rows| vec![GenotypeBlock::from_rows(num_patients, rows)]);
        Self::assemble(engine, phenotype, fgm, weights_rdd, sets, options)
    }

    /// What every constructor shares once the filtered, packed genotype
    /// matrix exists: fit the model, index the sets, place the weights.
    fn assemble(
        engine: Arc<Engine>,
        phenotype: Phenotype,
        fgm: Dataset<GenotypeBlock>,
        weights_rdd: Dataset<(u64, f64)>,
        sets: &[SnpSet],
        options: AnalysisOptions,
    ) -> Self {
        assert!(!sets.is_empty(), "need at least one SNP-set");
        assert!(options.reduce_partitions > 0);
        // The kernels' thread-local scratch is the one byte-holding
        // subsystem the rdd crate cannot see (stats sits outside its
        // dependency cone), so the `scratch` ledger category is fed here,
        // where both sides are visible. Idempotent: re-registering on a
        // shared engine just replaces the same source.
        engine.memory_ledger().set_source(
            sparkscore_rdd::MemCategory::Scratch,
            scratch::allocated_bytes,
        );
        let model = Model::fit(&phenotype);

        // Dense snp → set lookup (SNPs outside every set are filtered away
        // before this is consulted).
        let max_snp = sets
            .iter()
            .flat_map(|s| &s.members)
            .max()
            .map_or(0, |&m| m + 1);
        let mut snp_to_set = vec![u64::MAX; max_snp];
        for set in sets {
            for &m in &set.members {
                snp_to_set[m] = set.id;
            }
        }

        let snp_to_set = engine.broadcast(snp_to_set);
        let mut sets_sorted: Vec<SnpSet> = sets.to_vec();
        sets_sorted.sort_by_key(|s| s.id);

        // Under the broadcast ablation, gather the weights to the driver
        // once (one job) and ship a dense table to every node.
        let weights_bc = match options.weights_strategy {
            WeightsStrategy::Join => None,
            WeightsStrategy::Broadcast => {
                Some(engine.broadcast(dense_by_id(weights_rdd.collect(), max_snp)))
            }
        };

        let index = query::QueryIndex::new(Arc::clone(&engine));
        SparkScoreContext {
            engine,
            model,
            weights_rdd,
            fgm,
            snp_to_set,
            weights_bc,
            sets: sets_sorted,
            max_snp,
            index,
            options,
        }
    }

    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    fn num_patients(&self) -> usize {
        self.model.num_patients()
    }

    /// `run`'s result and what it cost, read around it: host wall time,
    /// virtual seconds and the engine metrics it moved.
    fn measured<T>(&self, run: impl FnOnce() -> T) -> (T, Duration, f64, MetricsSnapshot) {
        let wall_start = Instant::now();
        let vt_start = self.engine.virtual_time_secs();
        let metrics_start = self.engine.metrics_snapshot();
        let out = run();
        let wall = wall_start.elapsed();
        let virtual_secs = self.engine.virtual_time_secs() - vt_start;
        let metrics = self.engine.metrics_snapshot().delta_since(&metrics_start);
        (out, wall, virtual_secs, metrics)
    }

    /// The `U` RDD (Algorithm 1 step 7): per-SNP per-patient contributions
    /// under `model`, which is broadcast first, one row per SNP. Models
    /// with an affine per-dosage contribution (Gaussian, Binomial) score
    /// each 2-bit column directly through the popcount kernels; the rest
    /// unpack and run the byte kernel ([`score_blocks`]).
    fn u_rdd(&self, model: Model) -> Dataset<(u64, Vec<f64>)> {
        let model = self.engine.broadcast(model);
        let n = self.num_patients();
        self.fgm.map_partitions_ctx(move |ctx, _, blocks| {
            let mut out = Vec::new();
            score_blocks(ctx, blocks, model.value(), |block, score| {
                for c in 0..block.num_snps() {
                    let mut contrib = vec![0.0; n];
                    score(c, &mut contrib);
                    out.push((block.snp_id(c), contrib));
                }
            });
            out
        })
    }

    /// `inner_sums(&self.u_rdd(model), n, None)` as one operator, for the
    /// passes that read each `U` row once (Algorithm 1, each Algorithm 2
    /// replicate): the same sums, work, counters and broadcast, but no
    /// row outlives its sum. A task scores [`FUSED_ROWS`] columns at a
    /// time into one buffer and sums them while they are still in cache.
    fn score_sums(&self, model: Model) -> Dataset<(u64, f64)> {
        let model = self.engine.broadcast(model);
        let n = self.num_patients();
        let arith_cost = n as f64 * JVM_UNITS_ARITH_PER_PATIENT;
        self.fgm.map_partitions_ctx(move |ctx, _, blocks| {
            let mut out = Vec::new();
            let mut rows = vec![0.0; FUSED_ROWS * n];
            score_blocks(ctx, blocks, model.value(), |block, score| {
                for first in (0..block.num_snps()).step_by(FUSED_ROWS) {
                    let cols = first..block.num_snps().min(first + FUSED_ROWS);
                    let rows = &mut rows[..cols.len() * n];
                    for (c, row) in cols.clone().zip(rows.chunks_exact_mut(n)) {
                        score(c, row);
                    }
                    let rows: Vec<&[f64]> = rows.chunks_exact(n).collect();
                    out.extend(cols.map(|c| block.snp_id(c)).zip(row_sums(&rows)));
                }
            });
            // What the `inner_sums` operator it stands for charged.
            ctx.add_work(out.len(), arith_cost);
            out
        })
    }

    /// Build the `U` contributions dataset once, for explicit sharing:
    /// callers that `cache()` the returned handle and reuse it across
    /// many score passes (e.g. a multi-tenant service answering gene
    /// queries over one cohort) materialize the contributions exactly
    /// once. Every call creates a fresh lineage (and cache key), so
    /// sharing requires sharing the returned `Dataset` handle itself.
    pub fn u_dataset(&self) -> Dataset<(u64, Vec<f64>)> {
        self.u_rdd(self.model.clone())
    }

    /// Per-SNP quality control over the filtered genotype matrix, sorted
    /// by SNP id. Counts, MAF, and Hardy–Weinberg all come straight from
    /// popcount passes over the packed columns — no byte dosages are ever
    /// materialized, so every QC kernel row is a packed row.
    pub fn qc(&self, thresholds: QcThresholds) -> Vec<SnpQc> {
        let n = self.num_patients();
        let mut rows: Vec<SnpQc> = self
            .fgm
            .map_partitions_ctx(move |ctx, _, blocks| {
                let mut out = Vec::new();
                ctx.time_span("kernel:qc", || {
                    for block in blocks {
                        ctx.add_work(block.num_snps(), n as f64 * JVM_UNITS_ARITH_PER_PATIENT);
                        for c in 0..block.num_snps() {
                            out.push(SnpQc {
                                snp: block.snp_id(c),
                                verdict: check_snp_packed(block.column(c), n, &thresholds),
                            });
                        }
                        let rows = (block.num_snps() * n) as u64;
                        ctx.count(&KERNEL_ROWS, rows);
                        ctx.count(&PACKED_KERNEL_ROWS, rows);
                    }
                });
                out
            })
            .collect();
        rows.sort_by_key(|r| r.snp);
        rows
    }

    /// A set's score from its raw sum: burden squares it.
    fn finish(&self, raw: f64) -> f64 {
        match self.options.combine {
            CombineMethod::Skat => raw,
            CombineMethod::Burden => raw * raw,
        }
    }
}

#[cfg(test)]
mod tests;
