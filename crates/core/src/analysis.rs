//! The SparkScore analysis context and the paper's three algorithms.
//!
//! [`SparkScoreContext`] binds an engine to one analysis' inputs (genotype
//! matrix, phenotypes, SNP weights, SNP-sets) and exposes:
//!
//! * [`SparkScoreContext::observed`] — **Algorithm 1**: the observed SKAT
//!   statistics `S_k⁰`, computed as the RDD pipeline
//!   `textFile → parse → filter(union of SNP-sets) → U → U² →
//!   join(weights) → ω²U² → reduce_by_key(set)` (a DFS-backed context
//!   runs the first three steps as one operator, block bytes to packed
//!   genotypes, at the modeled cost of the three);
//! * [`SparkScoreContext::permutation`] — **Algorithm 2**: B phenotype
//!   shufflings, each re-running the full pipeline (no caching — the
//!   replicate's `U` depends on the shuffled phenotypes);
//! * [`SparkScoreContext::monte_carlo`] — **Algorithm 3**: B draws of
//!   N(0,1) multipliers perturbing the *cached* `U` RDD
//!   (`Ũ_j = Σ_i Z_i U_ij`), the cache-friendly scheme whose speedups
//!   Figs 2–5 of the paper measure.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use parking_lot::Mutex;
use rand::SeedableRng;
use sparkscore_data::io::{parse_phenotypes_text, parse_set_line, parse_weight_line};
use sparkscore_data::{DatasetPaths, GenotypeBlock, GwasDataset};
use sparkscore_dfs::text::block_lines;
use sparkscore_dfs::DfsError;
use sparkscore_rdd::{
    plan_tiles, Broadcast, BroadcastTileCache, Dataset, Engine, ReplicateTile, TaskCounter,
};
use sparkscore_stats::dist::fill_multipliers;
use sparkscore_stats::linalg::perturb_rows_blocked;
use sparkscore_stats::pvalue::StoppingRule;
use sparkscore_stats::qc::{check_snp_packed, QcThresholds};
use sparkscore_stats::resample::{mc_weights, random_permutation, MC_TILE};
use sparkscore_stats::score::ScoreModel;
use sparkscore_stats::scratch;
use sparkscore_stats::skat::{burden_statistic, skat_statistic, SnpSet};

use crate::model::{Model, Phenotype};
use crate::result::{McGridRun, ObservedResult, ResamplingRun, SetScore, SnpQc, SnpResult};

// The task counters this crate's kernels report through `TaskCtx::count`.
// Each is defined here and nowhere else: the engine carries name → value,
// and every listener, exposition and trace report picks the name up from
// the event stream (`sparkscore_<name>_total`, `trace report`).

/// SNP × patient cells pushed through the score, QC and perturbation
/// kernels — attributes task time to numeric kernels vs engine.
pub const KERNEL_ROWS: TaskCounter = TaskCounter::new("kernel_rows");
/// Kernel rows served by packed-direct bit kernels — scored straight from
/// the 2-bit words, no byte unpack (a subset of [`KERNEL_ROWS`]).
pub const PACKED_KERNEL_ROWS: TaskCounter = TaskCounter::new("packed_kernel_rows");
/// Kernel calls served from a pre-existing thread-local scratch buffer
/// (no allocator traffic).
pub const SCRATCH_REUSES: TaskCounter = TaskCounter::new("scratch_reuses");
/// Resampling row-replicate units computed (one SNP row perturbed for one
/// replicate in the distributed GEMM).
pub const REPLICATES_RUN: TaskCounter = TaskCounter::new("replicates_run");
/// Row-replicate units skipped inside an executed tile because the owning
/// gene set's stopping rule had already decided.
pub const REPLICATES_SAVED: TaskCounter = TaskCounter::new("replicates_saved");

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

/// Tunables for a distributed-GEMM resampling run
/// ([`SparkScoreContext::monte_carlo_grid`]).
#[derive(Debug, Clone)]
pub struct McGridOptions {
    /// Replicate budget `B`.
    pub num_replicates: usize,
    /// Multiplier seed: replicate `r` multiplies patient `i` by
    /// `Z[r][i]` under it, on every path.
    pub seed: u64,
    /// Replicate-tile width (one broadcast + one grid job per tile).
    pub tile: usize,
    /// Sequential stopping rule; `None` runs the fixed-B statistical
    /// oracle path.
    pub stopping: Option<StoppingRule>,
    /// Restrict the run to these set ids (e.g. one gene query); `None`
    /// scores every set.
    pub set_filter: Option<Vec<u64>>,
}

impl McGridOptions {
    /// Fixed-B run at the default tile width: bitwise identical to the
    /// sequential blocked oracle.
    pub fn fixed(num_replicates: usize, seed: u64) -> Self {
        McGridOptions {
            num_replicates,
            seed,
            tile: MC_TILE,
            stopping: None,
            set_filter: None,
        }
    }

    /// Adaptive run: tile rounds until every set's `rule` decision.
    pub fn adaptive(num_replicates: usize, seed: u64, rule: StoppingRule) -> Self {
        McGridOptions {
            num_replicates,
            seed,
            tile: MC_TILE,
            stopping: Some(rule),
            set_filter: None,
        }
    }
}

/// One analysis bound to an engine: inputs loaded, model fitted.
pub struct SparkScoreContext {
    engine: Arc<Engine>,
    phenotype: Phenotype,
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
    /// Sorted set ids, the row order of every result.
    set_ids: Vec<u64>,
    /// The SNP-sets themselves, sorted by id (aligned with `set_ids`) —
    /// the driver-side reduction of the resampling grid needs the member
    /// lists.
    sets: Vec<SnpSet>,
    /// One past the largest SNP id in any set: the extent of every dense
    /// per-SNP table.
    max_snp: usize,
    /// Memo of broadcast multiplier tiles keyed `(seed, start, width)`,
    /// shared across every grid run on this context: a repeated same-seed
    /// query neither draws nor ships a tile it finds here.
    mc_tile_cache: BroadcastTileCache<(u64, u64, u64)>,
    /// Memo of [`SparkScoreContext::weights`] under the join.
    weight_table: OnceLock<Vec<f64>>,
    /// Memo of [`SparkScoreContext::grid_scores`].
    grid_scores: OnceLock<Vec<f64>>,
    options: AnalysisOptions,
}

/// Patient ranges each missing multiplier tile is cut into for the pooled
/// draw: enough chunks to balance a round over the host threads.
const DRAW_RANGES: usize = 8;

/// Draw multiplier tiles on the executor pool: tile `t` is the
/// `n × t.width` block `Z[t.start + c][i]` in the patient-major layout
/// `perturb_rows_blocked` reads. Every multiplier is a pure function of
/// its address, so each (tile, patient range) chunk is drawn by whichever
/// pool thread claims it, with the bits the sequential oracles draw.
fn draw_tiles(engine: &Engine, seed: u64, n: usize, tiles: &[ReplicateTile]) -> Vec<Vec<f64>> {
    let mut drawn: Vec<Vec<f64>> = tiles.iter().map(|t| vec![0.0f64; n * t.width]).collect();
    // Chunk (tile, range) owns rows `lo..hi` of its tile; each lock is
    // taken once, by one index.
    let mut chunks = Vec::with_capacity(tiles.len() * DRAW_RANGES);
    for (t, tile) in tiles.iter().zip(&mut drawn) {
        let mut rest = tile.as_mut_slice();
        for r in 0..DRAW_RANGES {
            let (lo, hi) = (r * n / DRAW_RANGES, (r + 1) * n / DRAW_RANGES);
            let (rows, tail) = std::mem::take(&mut rest).split_at_mut((hi - lo) * t.width);
            chunks.push(Mutex::new((t, lo, rows)));
            rest = tail;
        }
    }
    engine.for_each_on_pool(chunks.len(), |c| {
        let (t, lo, rows) = &mut *chunks[c].lock();
        fill_multipliers(seed, t.start as u64, *lo as u64, t.width, rows);
    });
    drop(chunks);
    drawn
}

/// `c.iter().sum()` of every row, owned or borrowed, four rows at a time.
/// One row's sum is a chain of dependent additions that waits out the adder's latency at
/// every step; four rows' chains interleaved keep it busy. Each chain
/// still folds its own row left to right from the value `Iterator::sum`
/// starts from, so every sum has the bits the per-row call gives. Rows of
/// unequal length within a quad, and the last `rows % 4`, are summed one
/// by one.
fn row_sums<R: Borrow<(u64, Vec<f64>)>>(rows: &[R]) -> Vec<f64> {
    let per_row = |row: &R| row.borrow().1.iter().sum::<f64>();
    let zero: f64 = std::iter::empty::<f64>().sum();
    let mut sums = Vec::with_capacity(rows.len());
    let mut quads = rows.chunks_exact(4);
    for quad in quads.by_ref() {
        let [a, b, c, d] = [0, 1, 2, 3].map(|r| &quad[r].borrow().1);
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
        let sums: Vec<f64> = match &mc_multipliers {
            None => row_sums(rows),
            // The grid's kernel at tile width 1: its chain per row is the
            // replicate's fold, four rows advancing together.
            Some(z) => {
                let urows: Vec<&[f64]> = rows.iter().map(|(_, c)| c.as_slice()).collect();
                let mut sums = vec![0.0f64; urows.len()];
                perturb_rows_blocked(&urows, num_patients, z.value(), 1, &mut sums);
                sums
            }
        };
        rows.iter().map(|(snp, _)| *snp).zip(sums).collect()
    })
}

/// The weights as a dense `snp id → weight` table over `0..max_snp` (one
/// collect job). A weight whose SNP lies past every set's members has no
/// row to land in and no score to weigh, so it is dropped.
fn dense_weights(weights_rdd: &Dataset<(u64, f64)>, max_snp: usize) -> Vec<f64> {
    let mut dense = vec![0.0f64; max_snp];
    for (snp, w) in weights_rdd.collect() {
        if let Some(slot) = dense.get_mut(snp as usize) {
            *slot = w;
        }
    }
    dense
}

/// Sorted union of all SNP-sets (Algorithm 1 step 4): the genotype matrix
/// keeps a SNP exactly when a binary search finds its id here.
fn set_union(sets: &[SnpSet]) -> Vec<u64> {
    let mut union: Vec<u64> = sets
        .iter()
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
        let sets: Vec<SnpSet> = engine
            .dfs()
            .read_to_string(&paths.sets)?
            .lines()
            .map(parse_set_line)
            .collect();
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
        let rows: Vec<(u64, Vec<u8>)> = dataset
            .genotypes
            .iter()
            .map(|r| (r.id, r.dosages.clone()))
            .collect();
        let gm = engine.parallelize(rows, partitions);
        let weights: Vec<(u64, f64)> = dataset
            .weights
            .iter()
            .enumerate()
            .map(|(j, &w)| (j as u64, w))
            .collect();
        let weights_rdd = engine.parallelize(weights, partitions.clamp(1, 4));
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
        let mut set_ids: Vec<u64> = sets.iter().map(|s| s.id).collect();
        set_ids.sort_unstable();
        let mut sets_sorted: Vec<SnpSet> = sets.to_vec();
        sets_sorted.sort_by_key(|s| s.id);

        // Under the broadcast ablation, gather the weights to the driver
        // once (one job) and ship a dense table to every node.
        let weights_bc = match options.weights_strategy {
            WeightsStrategy::Join => None,
            WeightsStrategy::Broadcast => {
                Some(engine.broadcast(dense_weights(&weights_rdd, max_snp)))
            }
        };

        let mc_tile_cache = BroadcastTileCache::new(Arc::clone(&engine), 256);
        SparkScoreContext {
            engine,
            phenotype,
            model,
            weights_rdd,
            fgm,
            snp_to_set,
            weights_bc,
            set_ids,
            sets: sets_sorted,
            max_snp,
            mc_tile_cache,
            weight_table: OnceLock::new(),
            grid_scores: OnceLock::new(),
            options,
        }
    }

    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    fn num_patients(&self) -> usize {
        self.phenotype.num_patients()
    }

    /// The `U` RDD (Algorithm 1 step 7): per-SNP per-patient contributions
    /// under `model_bc`. Models with an affine per-dosage contribution
    /// (Gaussian, Binomial) score each 2-bit column directly through the
    /// popcount kernels; the rest unpack into a thread-local scratch slice
    /// and run the byte kernel. Kernel rows (and the packed subset) and
    /// scratch reuses are reported to the task metrics.
    fn u_rdd(&self, model_bc: &Broadcast<Model>) -> Dataset<(u64, Vec<f64>)> {
        let model = model_bc.clone();
        let n = self.num_patients();
        self.fgm.map_partitions_ctx(move |ctx, _, blocks| {
            let mut out = Vec::new();
            ctx.time_span("kernel:contributions", || {
                for block in blocks {
                    ctx.add_work(block.num_snps(), n as f64 * JVM_UNITS_SCORE_PER_PATIENT);
                    let mut packed_rows = 0u64;
                    scratch::with_u8(n, |g| {
                        for c in 0..block.num_snps() {
                            let mut contrib = vec![0.0; n];
                            let model = model.value();
                            if model.contributions_into_packed(block.column(c), &mut contrib) {
                                packed_rows += n as u64;
                            } else {
                                block.unpack_into(c, g);
                                model.contributions_into(g, &mut contrib);
                            }
                            out.push((block.snp_id(c), contrib));
                        }
                    });
                    ctx.count(&KERNEL_ROWS, (block.num_snps() * n) as u64);
                    ctx.count(&PACKED_KERNEL_ROWS, packed_rows);
                }
            });
            ctx.count(&SCRATCH_REUSES, scratch::take_reuses());
            out
        })
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

    /// Algorithm 1 steps 8–12 on a `U` RDD (this context's own, or a
    /// caller-held [`SparkScoreContext::u_dataset`]): inner sums
    /// (optionally with Monte Carlo multipliers, one per patient), weights
    /// join, ω²U², per-set aggregation.
    fn set_scores(
        &self,
        u: &Dataset<(u64, Vec<f64>)>,
        mc_multipliers: Option<Broadcast<Vec<f64>>>,
    ) -> Vec<SetScore> {
        let sums = self.set_sums(u, mc_multipliers);
        self.set_ids
            .iter()
            .map(|id| SetScore {
                set: *id,
                score: self.finish(sums.get(id).copied().unwrap_or(0.0)),
            })
            .collect()
    }

    /// The observed score of one set, as one map stage over `u` and a
    /// fold on the driver: each task reads its rows in place and returns
    /// `(snp, U_j)` for those the `snp → set` lookup gives to `set` (the
    /// full pass's reduce key, so overlapping sets keep exactly its terms);
    /// the driver folds the set's statistic over them in member order with
    /// the dense weight table. No join, no shuffle; an unknown `set` is
    /// `None` before any job.
    pub(crate) fn set_score(&self, u: &Dataset<(u64, Vec<f64>)>, set: u64) -> Option<f64> {
        let members = &self.sets[self.set_ids.binary_search(&set).ok()?].members;
        let weights = self.weights();
        let lookup = self.snp_to_set.clone();
        let arith_cost = self.num_patients() as f64 * JVM_UNITS_ARITH_PER_PATIENT;
        let kept_sums = u.map_partitions_ctx(move |ctx, _, rows| {
            let keyed = lookup.value();
            let kept: Vec<_> = rows
                .iter()
                .filter(|(snp, _)| keyed.get(*snp as usize) == Some(&set))
                .collect();
            // What the `filter` and `inner_sums` it stands for charged.
            ctx.add_work(rows.len(), 0.5);
            ctx.add_work(kept.len(), arith_cost);
            let snps = kept.iter().map(|(snp, _)| *snp);
            snps.zip(row_sums(&kept)).collect()
        });
        let sums: HashMap<u64, f64> = kept_sums.collect().into_iter().collect();
        // A member keyed to another set is that set's term. A keyed member
        // without a row scores 0, as in the grid's dense table, so a
        // disjoint set folds the grid's terms in the grid's order.
        let keyed = self.snp_to_set.value();
        let terms = members.iter().filter(|&&j| keyed[j] == set).map(|&j| {
            let u_stat = sums.get(&(j as u64)).copied().unwrap_or(0.0);
            self.options.combine.term(weights[j], u_stat)
        });
        Some(self.finish(terms.sum()))
    }

    /// Raw per-set sums (`Σ ω²U²` under SKAT, `Σ ωU` under burden) of
    /// every set: Algorithm 1's inner sums, weights and per-set reduce.
    fn set_sums(
        &self,
        u: &Dataset<(u64, Vec<f64>)>,
        mc_multipliers: Option<Broadcast<Vec<f64>>>,
    ) -> HashMap<u64, f64> {
        let lookup = self.snp_to_set.clone();
        let inner = inner_sums(u, self.num_patients(), mc_multipliers);
        let combine = self.options.combine;
        let per_snp_term = match &self.weights_bc {
            // Paper-faithful: shuffle join against the weights RDD.
            None => inner
                .join(&self.weights_rdd, self.options.reduce_partitions)
                .map(move |(snp, (u_stat, w))| (snp, combine.term(w, u_stat))),
            // Ablation: look the weight up in a broadcast table map-side.
            Some(table) => {
                let table = table.clone();
                inner.map(move |(snp, u_stat)| {
                    (snp, combine.term(table.value()[snp as usize], u_stat))
                })
            }
        };
        per_snp_term
            .map(move |(snp, term)| (lookup.value()[snp as usize], term))
            .reduce_by_key(self.options.reduce_partitions, |a, b| a + b)
            .collect_as_map()
    }

    /// A set's score from its raw sum: burden squares it.
    fn finish(&self, raw: f64) -> f64 {
        match self.options.combine {
            CombineMethod::Skat => raw,
            CombineMethod::Burden => raw * raw,
        }
    }

    /// The sorted set ids every result row order follows.
    pub(crate) fn set_ids(&self) -> &[u64] {
        &self.set_ids
    }

    /// Build the `U` contributions dataset once, for explicit sharing:
    /// callers that `cache()` the returned handle and reuse it across
    /// many score passes (e.g. a multi-tenant service answering gene
    /// queries over one cohort) materialize the contributions exactly
    /// once. Every call creates a fresh lineage (and cache key), so
    /// sharing requires sharing the returned `Dataset` handle itself.
    pub fn u_dataset(&self) -> Dataset<(u64, Vec<f64>)> {
        let model_bc = self.engine.broadcast(self.model.clone());
        self.u_rdd(&model_bc)
    }

    /// Variant-by-variant analysis (the paper's other GWAS mode): marginal
    /// score, empirical variance, and χ²₁ asymptotic p-value per SNP,
    /// sorted by SNP id.
    pub fn per_snp_asymptotic(&self) -> Vec<SnpResult> {
        let model_bc = self.engine.broadcast(self.model.clone());
        let u = self.u_rdd(&model_bc);
        let mut rows: Vec<SnpResult> = u
            .map(|(snp, contribs)| {
                let (score, variance) = sparkscore_stats::score::score_and_variance(&contribs);
                (snp, score, variance)
            })
            .collect()
            .into_iter()
            .map(|(snp, score, variance)| SnpResult {
                snp,
                score,
                variance,
                pvalue: sparkscore_stats::asymptotic::score_test_pvalue(score, variance),
            })
            .collect();
        rows.sort_by_key(|r| r.snp);
        rows
    }

    /// **Algorithm 1**: observed SKAT statistics `S_k⁰` for every set.
    pub fn observed(&self) -> ObservedResult {
        let wall_start = Instant::now();
        let vt_start = self.engine.virtual_time_secs();
        let metrics_start = self.engine.metrics_snapshot();
        let model_bc = self.engine.broadcast(self.model.clone());
        let u = self.u_rdd(&model_bc);
        let scores = self.set_scores(&u, None);
        ObservedResult {
            scores,
            wall: wall_start.elapsed(),
            virtual_secs: self.engine.virtual_time_secs() - vt_start,
            metrics: self.engine.metrics_snapshot().delta_since(&metrics_start),
        }
    }

    /// **Algorithm 3**: Monte Carlo resampling with `num_replicates`
    /// N(0,1)-multiplier replicates. `use_cache` controls whether the `U`
    /// RDD is cached between iterations (the paper's Experiment B toggles
    /// exactly this).
    pub fn monte_carlo(&self, num_replicates: usize, seed: u64, use_cache: bool) -> ResamplingRun {
        let wall_start = Instant::now();
        let vt_start = self.engine.virtual_time_secs();
        let metrics_start = self.engine.metrics_snapshot();

        let model_bc = self.engine.broadcast(self.model.clone());
        let u = self.u_rdd(&model_bc);
        if use_cache {
            u.cache(); // Algorithm 3 step 2: "Cache RDD U".
        }
        let observed = self.set_scores(&u, None);

        let n = self.num_patients();
        let mut counts = vec![0usize; observed.len()];
        for r in 0..num_replicates {
            let z = self.engine.broadcast(mc_weights(seed, r, n));
            let replicate = self.set_scores(&u, Some(z));
            for (count, (rep, obs)) in counts.iter_mut().zip(replicate.iter().zip(&observed)) {
                if rep.score >= obs.score {
                    *count += 1;
                }
            }
        }
        if use_cache {
            u.unpersist();
        }
        ResamplingRun {
            observed,
            counts_ge: counts,
            num_replicates,
            wall: wall_start.elapsed(),
            virtual_secs: self.engine.virtual_time_secs() - vt_start,
            metrics: self.engine.metrics_snapshot().delta_since(&metrics_start),
        }
    }

    /// The dense `snp id → weight` table of the driver-side folds (the
    /// grid's and [`SparkScoreContext::set_score`]'s): the broadcast table
    /// under [`WeightsStrategy::Broadcast`]; under the join, gathered by
    /// the first caller (one collect job) and kept for every later one.
    fn weights(&self) -> &[f64] {
        match &self.weights_bc {
            Some(table) => table.value(),
            None => self
                .weight_table
                .get_or_init(|| dense_weights(&self.weights_rdd, self.max_snp)),
        }
    }

    /// The observed per-SNP scores, dense by SNP id, computed on first use
    /// from `u` (one scan of `U`) and shared by every later grid run on
    /// this context — any set filter, seed or budget. Lazy so that
    /// building a context, or registering it as a service cohort, stays
    /// free of engine work. Concurrent first callers block on the one
    /// fill. `u` must be this context's own
    /// [`SparkScoreContext::u_dataset`]; every such handle carries the
    /// same rows, so which one fills the memo does not matter.
    fn grid_scores(&self, u: &Dataset<(u64, Vec<f64>)>) -> &[f64] {
        self.grid_scores.get_or_init(|| {
            // Scattered by id; sets are combined from it on the driver
            // with the same statistic functions (and summation order) as
            // the oracle.
            let mut scores = vec![0.0f64; self.max_snp];
            for (snp, s) in inner_sums(u, self.num_patients(), None).collect() {
                scores[snp as usize] = s;
            }
            scores
        })
    }

    /// `(hits, misses)` of the broadcast multiplier-tile cache.
    pub fn mc_tile_cache_stats(&self) -> (u64, u64) {
        self.mc_tile_cache.stats()
    }

    /// **Algorithm 3 as a distributed GEMM** over the replicate-tile ×
    /// partition grid, with optional adaptive early stopping.
    ///
    /// The `B × n` multiplier matrix is split into replicate tiles; each
    /// tile's `n × k` block is broadcast (memoized per `(seed, start,
    /// width)`, so a repeated query draws and ships nothing) against the
    /// caller-held — typically cached — `U` dataset, and one engine task
    /// per partition filters its SNP rows once and runs the blocked
    /// perturbation kernel over them for every tile of the job. Cells
    /// return per-SNP perturbed scores; the driver scatters them by SNP id
    /// (a pure scatter — no cross-partition summation, so no floating-point
    /// reassociation) and reduces per set sequentially, tile by tile,
    /// which keeps the fixed-B path **bitwise identical** to the
    /// single-task `monte_carlo_blocked` oracle.
    ///
    /// With a [`StoppingRule`], tiles double as sequential looks: after
    /// each tile every undecided set is tested, decided sets freeze their
    /// counts, and their member rows drop out of later grid cells
    /// (reported as `replicates_saved`). Replicate `r`'s multipliers are
    /// `Z[r][·]` on every path, so adaptivity truncates per-set replicate
    /// streams, never re-randomizes them; the single-machine
    /// `monte_carlo_adaptive` is the exact semantic oracle.
    ///
    /// A job carries every tile no look can separate ([`plan_tiles`]): a
    /// fixed-B run has no looks, and below the rule's `min_replicates` a
    /// look decides nothing, so those tiles cannot influence which rows
    /// or tiles run next. Past the floor an adaptive run launches one tile
    /// per job.
    ///
    /// The weight table and the per-SNP observed scores are cohort
    /// invariants, computed by the first run on this context (or, for the
    /// table, the first set query) and reused by all later ones; only the
    /// run that fills them pays their jobs.
    pub fn monte_carlo_grid(
        &self,
        u: &Dataset<(u64, Vec<f64>)>,
        opts: &McGridOptions,
    ) -> McGridRun {
        assert!(opts.tile > 0, "tile width must be positive");
        let wall_start = Instant::now();
        let vt_start = self.engine.virtual_time_secs();
        let metrics_start = self.engine.metrics_snapshot();

        let sets: Vec<&SnpSet> = match &opts.set_filter {
            None => self.sets.iter().collect(),
            Some(ids) => self.sets.iter().filter(|s| ids.contains(&s.id)).collect(),
        };
        assert!(!sets.is_empty(), "set filter selected no sets");

        let n = self.num_patients();
        let max_snp = self.max_snp;
        let weights = self.weights();
        let scores = self.grid_scores(u);
        let combine = self.options.combine;
        let stat = |scores: &[f64], set: &SnpSet| match combine {
            CombineMethod::Skat => skat_statistic(scores, weights, set),
            CombineMethod::Burden => burden_statistic(scores, weights, set),
        };
        let observed: Vec<f64> = sets.iter().map(|s| stat(scores, s)).collect();

        // Rows the budget would spend work on: members of a selected set.
        let mut set_of_snp = vec![usize::MAX; max_snp];
        for (s, set) in sets.iter().enumerate() {
            for &j in &set.members {
                set_of_snp[j] = s;
            }
        }
        let scope_rows = set_of_snp.iter().filter(|&&s| s != usize::MAX).count();

        let b = opts.num_replicates;
        // The replicate count from which a look may decide a set.
        let barrier = opts.stopping.as_ref().map_or(b, |rule| rule.min_replicates);
        let mut counts = vec![0usize; sets.len()];
        let mut used = vec![0usize; sets.len()];
        let mut decided = vec![false; sets.len()];
        let mut replicates_run = 0u64;
        let mut perturbed = vec![0.0f64; max_snp];
        // Per-SNP activity plane: 0 out of scope, 1 active, 2 member of a
        // decided set (skipped, counted as saved work). Rebuilt only
        // after a look that decided a set.
        let mut activity: Option<Broadcast<Vec<u8>>> = None;
        let mut tiles = 0usize;
        let mut done = 0usize;
        while done < b && decided.iter().any(|d| !d) {
            let round = plan_tiles(done, b, opts.tile, barrier);
            // Look the whole round up, draw its misses in one pooled pass,
            // then insert them.
            let key = |t: &ReplicateTile| (opts.seed, t.start as u64, t.width as u64);
            let cached: Vec<_> = round
                .iter()
                .map(|t| self.mc_tile_cache.get(&key(t)))
                .collect();
            let missing: Vec<ReplicateTile> = round
                .iter()
                .zip(&cached)
                .filter(|(_, hit)| hit.is_none())
                .map(|(t, _)| *t)
                .collect();
            let mut drawn = draw_tiles(&self.engine, opts.seed, n, &missing).into_iter();
            let operands: Vec<(usize, Broadcast<Vec<f64>>)> = round
                .iter()
                .zip(cached)
                .map(|(t, hit)| {
                    let z = hit.unwrap_or_else(|| {
                        let tile = drawn.next().expect("a tile per miss");
                        self.mc_tile_cache.insert(key(t), tile)
                    });
                    (t.width, z)
                })
                .collect();

            let act = activity
                .get_or_insert_with(|| {
                    let mut plane = vec![0u8; max_snp];
                    for (s, set) in sets.iter().enumerate() {
                        let mark = if decided[s] { 2u8 } else { 1u8 };
                        for &j in &set.members {
                            plane[j] = mark;
                        }
                    }
                    self.engine.broadcast(plane)
                })
                .clone();

            // One grid job: a task per U partition filters its active
            // rows once and perturbs them under each tile of the round.
            let round_width: usize = round.iter().map(|t| t.width).sum();
            let cells: Vec<(Vec<u64>, Vec<Vec<f64>>)> = u.grid_cells(move |ctx, _part, rows| {
                let mut ids: Vec<u64> = Vec::new();
                let mut urows: Vec<&[f64]> = Vec::new();
                let mut skipped = 0u64;
                let act = act.value();
                for (snp, c) in rows {
                    match act.get(*snp as usize).copied().unwrap_or(0) {
                        1 => {
                            ids.push(*snp);
                            urows.push(c.as_slice());
                        }
                        2 => skipped += 1,
                        _ => {}
                    }
                }
                let outs = operands
                    .iter()
                    .map(|(k, z)| {
                        let mut out = vec![0.0f64; urows.len() * k];
                        ctx.time_span("kernel:perturb", || {
                            perturb_rows_blocked(&urows, n, z.value(), *k, &mut out);
                        });
                        out
                    })
                    .collect();
                let row_replicates = ids.len() * round_width;
                ctx.add_work(row_replicates, n as f64 * JVM_UNITS_ARITH_PER_PATIENT);
                ctx.count(&KERNEL_ROWS, (row_replicates * n) as u64);
                ctx.count(&REPLICATES_RUN, row_replicates as u64);
                ctx.count(&REPLICATES_SAVED, skipped * round_width as u64);
                (ids, outs)
            });

            let active_rows: usize = cells.iter().map(|(ids, _)| ids.len()).sum();
            replicates_run += (active_rows * round_width) as u64;
            for (t, tile) in round.iter().enumerate() {
                let k = tile.width;
                for kk in 0..k {
                    // Scatter this replicate's perturbed scores by SNP id —
                    // stale slots belong to decided or out-of-scope rows and
                    // are never read below.
                    for (ids, outs) in &cells {
                        for (r, &snp) in ids.iter().enumerate() {
                            perturbed[snp as usize] = outs[t][r * k + kk];
                        }
                    }
                    for (s, set) in sets.iter().enumerate() {
                        if decided[s] {
                            continue;
                        }
                        if stat(&perturbed, set) >= observed[s] {
                            counts[s] += 1;
                        }
                    }
                }
                done += k;
                tiles += 1;
                if let Some(rule) = &opts.stopping {
                    for s in 0..sets.len() {
                        if !decided[s] {
                            used[s] = done;
                            if rule.decided(counts[s], done) {
                                decided[s] = true;
                                activity = None;
                            }
                        }
                    }
                } else {
                    for slot in used.iter_mut() {
                        *slot = done;
                    }
                }
            }
        }

        let potential = (scope_rows * b) as u64;
        McGridRun {
            observed: sets
                .iter()
                .zip(&observed)
                .map(|(s, &score)| SetScore { set: s.id, score })
                .collect(),
            counts_ge: counts,
            replicates_used: used,
            max_replicates: b,
            replicates_run,
            replicates_saved: potential.saturating_sub(replicates_run),
            tiles,
            wall: wall_start.elapsed(),
            virtual_secs: self.engine.virtual_time_secs() - vt_start,
            metrics: self.engine.metrics_snapshot().delta_since(&metrics_start),
        }
    }

    /// [`SparkScoreContext::monte_carlo_grid`] over a fresh cached `U`
    /// dataset: builds the contributions, caches them for the tile jobs,
    /// runs the grid, and unpersists.
    pub fn monte_carlo_distributed(&self, opts: &McGridOptions) -> McGridRun {
        let u = self.u_dataset();
        u.cache();
        let run = self.monte_carlo_grid(&u, opts);
        u.unpersist();
        run
    }

    /// **Algorithm 2**: permutation resampling with `num_replicates`
    /// phenotype shufflings, each re-running the full score pipeline.
    pub fn permutation(&self, num_replicates: usize, seed: u64) -> ResamplingRun {
        let wall_start = Instant::now();
        let vt_start = self.engine.virtual_time_secs();
        let metrics_start = self.engine.metrics_snapshot();

        let model_bc = self.engine.broadcast(self.model.clone());
        let observed = self.set_scores(&self.u_rdd(&model_bc), None);

        let n = self.num_patients();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut counts = vec![0usize; observed.len()];
        for _ in 0..num_replicates {
            let perm = random_permutation(&mut rng, n);
            let shuffled = self.engine.broadcast(self.model.permuted(&perm));
            // "Recalculate step 6 to 12 of Algorithm 1" — a fresh U RDD
            // whose lineage re-reads and re-scores the genotype matrix.
            let replicate = self.set_scores(&self.u_rdd(&shuffled), None);
            for (count, (rep, obs)) in counts.iter_mut().zip(replicate.iter().zip(&observed)) {
                if rep.score >= obs.score {
                    *count += 1;
                }
            }
        }
        ResamplingRun {
            observed,
            counts_ge: counts,
            num_replicates,
            wall: wall_start.elapsed(),
            virtual_secs: self.engine.virtual_time_secs() - vt_start,
            metrics: self.engine.metrics_snapshot().delta_since(&metrics_start),
        }
    }

    /// Lineage of the `U` RDD pipeline (diagnostics).
    pub fn pipeline_lineage(&self) -> String {
        let model_bc = self.engine.broadcast(self.model.clone());
        self.u_rdd(&model_bc).lineage()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkscore_cluster::ClusterSpec;
    use sparkscore_data::SyntheticConfig;

    fn small_context() -> SparkScoreContext {
        let engine = Engine::builder(ClusterSpec::test_small(3))
            .host_threads(2)
            .build();
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        SparkScoreContext::from_memory(engine, &ds, 4, AnalysisOptions::default())
    }

    #[test]
    fn observed_scores_are_nonnegative_and_cover_all_sets() {
        let ctx = small_context();
        let obs = ctx.observed();
        assert_eq!(obs.scores.len(), 10);
        for s in &obs.scores {
            assert!(s.score >= 0.0, "SKAT is non-negative");
        }
        // Sorted by set id.
        for w in obs.scores.windows(2) {
            assert!(w[0].set < w[1].set);
        }
        assert!(obs.virtual_secs > 0.0);
    }

    #[test]
    fn observed_is_deterministic() {
        let a = small_context().observed();
        let b = small_context().observed();
        assert_eq!(a.scores, b.scores);
    }

    #[test]
    fn mc_zero_iterations_equals_observed() {
        let ctx = small_context();
        let obs = ctx.observed();
        let run = ctx.monte_carlo(0, 1, true);
        assert_eq!(run.observed, obs.scores);
        assert_eq!(run.counts_ge, vec![0; 10]);
        assert_eq!(run.num_replicates, 0);
    }

    #[test]
    fn mc_cached_and_uncached_agree_on_counts() {
        let ctx = small_context();
        let cached = ctx.monte_carlo(20, 5, true);
        let uncached = ctx.monte_carlo(20, 5, false);
        assert_eq!(cached.counts_ge, uncached.counts_ge);
        assert_eq!(cached.observed, uncached.observed);
    }

    #[test]
    fn mc_cached_run_hits_cache() {
        let ctx = small_context();
        let run = ctx.monte_carlo(10, 3, true);
        assert!(
            run.metrics.cache_hits > 0,
            "MC iterations must reuse the cached U RDD: {:?}",
            run.metrics
        );
    }

    #[test]
    fn permutation_run_reports_structure() {
        let ctx = small_context();
        let run = ctx.permutation(5, 11);
        assert_eq!(run.num_replicates, 5);
        assert_eq!(run.counts_ge.len(), 10);
        for &c in &run.counts_ge {
            assert!(c <= 5);
        }
        let ps = run.pvalues();
        assert!(ps.iter().all(|&p| p > 0.0 && p <= 1.0));
    }

    #[test]
    fn broadcast_weights_match_join_weights() {
        let engine = Engine::builder(ClusterSpec::test_small(2))
            .host_threads(2)
            .build();
        let ds = GwasDataset::generate(&SyntheticConfig::small(23));
        let join =
            SparkScoreContext::from_memory(Arc::clone(&engine), &ds, 4, AnalysisOptions::default())
                .monte_carlo(15, 3, true);
        let engine2 = Engine::builder(ClusterSpec::test_small(2))
            .host_threads(2)
            .build();
        let bcast = SparkScoreContext::from_memory(
            engine2,
            &ds,
            4,
            AnalysisOptions {
                weights_strategy: crate::analysis::WeightsStrategy::Broadcast,
                ..AnalysisOptions::default()
            },
        )
        .monte_carlo(15, 3, true);
        assert_eq!(join.counts_ge, bcast.counts_ge);
        for (a, b) in join.observed.iter().zip(&bcast.observed) {
            assert!((a.score - b.score).abs() <= 1e-9 * (1.0 + b.score.abs()));
        }
    }

    #[test]
    fn a_weight_past_every_set_builds_under_both_strategies() {
        // The cohort's highest SNP belongs to no set, so its weight has no
        // slot in the dense table either strategy builds.
        let mut ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let top = ds.genotypes.iter().map(|r| r.id).max().unwrap() as usize;
        for set in &mut ds.sets {
            set.members.retain(|&m| m != top);
        }
        assert!(ds.sets.iter().all(|s| !s.members.is_empty()));
        let observed = |weights_strategy| {
            let engine = Engine::builder(ClusterSpec::test_small(2))
                .host_threads(2)
                .build();
            let options = AnalysisOptions {
                weights_strategy,
                ..AnalysisOptions::default()
            };
            SparkScoreContext::from_memory(engine, &ds, 4, options)
                .observed()
                .scores
        };
        let join = observed(WeightsStrategy::Join);
        let broadcast = observed(WeightsStrategy::Broadcast);
        assert_eq!(join.len(), 10);
        // The join reorders each set's terms before the per-set sum, so
        // the two agree to rounding (as in the test above), not bit for bit.
        for (a, b) in join.iter().zip(&broadcast) {
            assert_eq!(a.set, b.set);
            assert!((a.score - b.score).abs() <= 1e-9 * (1.0 + b.score.abs()));
        }
    }

    /// Every set's query score is, bit for bit, a sequential fold over its
    /// keyed members: `U_j` as `model.contributions(g).iter().sum()`, the
    /// term weighed, the terms summed in member order. The full pass sums
    /// the same terms in shuffle order; summing `m` terms in any order
    /// lands within `(m−1)·u·Σ|tᵢ|` of the exact sum, `u = ε/2` (Jeannerod
    /// and Rump, SIAM J. Matrix Anal. Appl. 2013), so the two lie within
    /// twice that. An unknown set has no score.
    fn assert_set_scores_match_observed(ctx: &SparkScoreContext, ds: &GwasDataset) {
        let u = ctx.u_dataset();
        u.cache();
        let full = ctx.set_sums(&u, None);
        let keyed = ctx.snp_to_set.value();
        for set in &ctx.sets {
            let terms: Vec<f64> = set
                .members
                .iter()
                .filter(|&&j| keyed[j] == set.id)
                .map(|&j| {
                    let g = &ds.genotypes[j].dosages;
                    let u_j: f64 = ctx.model.contributions(g).iter().sum();
                    ctx.options.combine.term(ds.weights[j], u_j)
                })
                .collect();
            let raw: f64 = terms.iter().sum();
            let one = ctx.set_score(&u, set.id).expect("a known set scores");
            assert_eq!(one.to_bits(), ctx.finish(raw).to_bits(), "set {}", set.id);
            let m = terms.len().saturating_sub(1) as f64;
            let reorder =
                2.0 * m * (f64::EPSILON / 2.0) * terms.iter().map(|t| t.abs()).sum::<f64>();
            // A set whose every member keys to another has no reduce key.
            let pass = full.get(&set.id).copied().unwrap_or(0.0);
            assert!(
                (pass - raw).abs() <= reorder,
                "set {}: full pass {pass} vs {raw} beyond {reorder}",
                set.id
            );
        }
        assert_eq!(ctx.set_score(&u, u64::MAX), None);
        u.unpersist();
    }

    /// The reference above depends on the model and the method alone, so
    /// this also pins one set of bits for each across partition counts,
    /// host threads and weight strategies.
    #[test]
    fn set_score_matches_the_full_pass_across_models_methods_and_cuts() {
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let context = |phenotype: &Phenotype, partitions, threads, options| {
            let engine = Engine::builder(ClusterSpec::test_small(3))
                .host_threads(threads)
                .build();
            let rows = ds.genotypes.iter().map(|r| (r.id, r.dosages.clone()));
            let gm = engine.parallelize(rows.collect(), partitions);
            let weights = ds.weights.iter().enumerate().map(|(j, &w)| (j as u64, w));
            let weights_rdd = engine.parallelize(weights.collect(), partitions.min(4));
            let phenotype = phenotype.clone();
            SparkScoreContext::from_parts(engine, phenotype, gm, weights_rdd, &ds.sets, options)
        };
        let trait_values = (0..ds.phenotypes.len()).map(|i| (i % 7) as f64);
        let phenotypes = [
            Phenotype::Survival(ds.phenotypes.clone()),
            Phenotype::Quantitative(trait_values.collect()),
        ];
        for phenotype in &phenotypes {
            for partitions in [1, 3, 4, 7] {
                for threads in [1, 2] {
                    for combine in [CombineMethod::Skat, CombineMethod::Burden] {
                        for weights_strategy in [WeightsStrategy::Join, WeightsStrategy::Broadcast]
                        {
                            let options = AnalysisOptions {
                                combine,
                                weights_strategy,
                                ..AnalysisOptions::default()
                            };
                            let ctx = context(phenotype, partitions, threads, options);
                            assert_set_scores_match_observed(&ctx, &ds);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn set_score_of_a_quantitative_trait_with_overlapping_sets() {
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        // Set 1 also lists set 0's first member; the lookup keys that SNP
        // to one of the two, and the single-set cut must follow it.
        let mut overlapping = ds.sets.clone();
        let shared = overlapping[0].members[0];
        overlapping[1].members.push(shared);
        for sets in [&ds.sets, &overlapping] {
            let engine = Engine::builder(ClusterSpec::test_small(3))
                .host_threads(2)
                .build();
            let rows = ds.genotypes.iter().map(|r| (r.id, r.dosages.clone()));
            let gm = engine.parallelize(rows.collect(), 3);
            let weights = ds.weights.iter().enumerate().map(|(j, &w)| (j as u64, w));
            let weights_rdd = engine.parallelize(weights.collect(), 2);
            let trait_values = (0..ds.phenotypes.len()).map(|i| (i % 7) as f64);
            let phenotype = Phenotype::Quantitative(trait_values.collect());
            let options = AnalysisOptions::default();
            let ctx =
                SparkScoreContext::from_parts(engine, phenotype, gm, weights_rdd, sets, options);
            assert_set_scores_match_observed(&ctx, &ds);
        }
    }

    #[test]
    fn a_set_query_is_one_map_stage_over_the_cached_u() {
        let engine = Engine::builder(ClusterSpec::test_small(3))
            .host_threads(2)
            .build();
        let config = SyntheticConfig {
            snps: 2000,
            snp_sets: 200,
            ..SyntheticConfig::small(17)
        };
        let ds = GwasDataset::generate(&config);
        let ctx = SparkScoreContext::from_memory(engine, &ds, 4, AnalysisOptions::default());
        let u = ctx.u_dataset();
        u.cache();
        let delta = |set: u64| {
            let before = ctx.engine.metrics_snapshot();
            assert!(ctx.set_score(&u, set).is_some());
            ctx.engine.metrics_snapshot().delta_since(&before)
        };
        let first = delta(ctx.set_ids[3]);
        assert_eq!(first.jobs, 2, "the weight table, then the query");
        assert_eq!(first.shuffle_bytes_written, 0);
        for &set in &ctx.set_ids[..8] {
            let one = delta(set);
            assert_eq!((one.jobs, one.stages, one.tasks), (1, 1, 4), "set {set}");
            assert_eq!((one.cache_hits, one.cache_misses), (4, 0), "set {set}");
            assert_eq!(one.shuffle_bytes_written, 0, "set {set}");
        }
    }

    use sparkscore_stats::resample::{monte_carlo_adaptive, monte_carlo_blocked};

    /// Dense oracle inputs indexed by SNP id: genotype rows, weights, and
    /// sets sorted by id — the layout under which the sequential oracles
    /// share the grid's summation order exactly.
    fn dense_oracle_inputs(ds: &GwasDataset, n: usize) -> (Vec<Vec<u8>>, Vec<f64>, Vec<SnpSet>) {
        let max_snp = ds.sets.iter().flat_map(|s| s.members.iter()).max().unwrap() + 1;
        let mut rows = vec![vec![0u8; n]; max_snp];
        for r in &ds.genotypes {
            if (r.id as usize) < max_snp {
                rows[r.id as usize] = r.dosages.clone();
            }
        }
        let mut weights = vec![0.0f64; max_snp];
        for (j, &w) in ds.weights.iter().enumerate() {
            if j < max_snp {
                weights[j] = w;
            }
        }
        let mut sets = ds.sets.clone();
        sets.sort_by_key(|s| s.id);
        (rows, weights, sets)
    }

    #[test]
    fn grid_fixed_b_is_bitwise_identical_to_blocked_oracle() {
        // Cox phenotype: both the grid's U pass and the oracle run the
        // byte kernel, so every float must match exactly — observed
        // statistics and exceedance counts alike — at the default tile
        // and at a width that doesn't divide B.
        let ctx = small_context();
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let (rows, weights, sets) = dense_oracle_inputs(&ds, ctx.num_patients());
        let u = ctx.u_dataset();
        u.cache();
        for (b, tile) in [(64usize, MC_TILE), (50, 7)] {
            let opts = McGridOptions {
                num_replicates: b,
                seed: 9,
                tile,
                stopping: None,
                set_filter: None,
            };
            let run = ctx.monte_carlo_grid(&u, &opts);
            let oracle = monte_carlo_blocked(&ctx.model, &rows, &weights, &sets, b, 9, tile);
            let grid_observed: Vec<f64> = run.observed.iter().map(|s| s.score).collect();
            assert_eq!(grid_observed, oracle.observed, "tile={tile}");
            assert_eq!(run.counts_ge, oracle.counts_ge, "tile={tile}");
            assert_eq!(run.replicates_used, vec![b; sets.len()]);
            assert_eq!(run.replicates_saved, 0, "fixed-B skips nothing");
            assert_eq!(run.tiles, b.div_ceil(tile));
        }
        u.unpersist();
    }

    #[test]
    fn grid_adaptive_matches_sequential_adaptive_oracle() {
        let ctx = small_context();
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let (rows, weights, sets) = dense_oracle_inputs(&ds, ctx.num_patients());
        let rule = StoppingRule::new(20, 0.2, 0.05);
        let opts = McGridOptions {
            num_replicates: 200,
            seed: 3,
            tile: 16,
            stopping: Some(rule),
            set_filter: None,
        };
        let u = ctx.u_dataset();
        u.cache();
        let run = ctx.monte_carlo_grid(&u, &opts);
        u.unpersist();
        let oracle = monte_carlo_adaptive(&ctx.model, &rows, &weights, &sets, 200, 3, 16, &rule);
        let grid_observed: Vec<f64> = run.observed.iter().map(|s| s.score).collect();
        assert_eq!(grid_observed, oracle.observed);
        assert_eq!(run.counts_ge, oracle.counts_ge);
        assert_eq!(run.replicates_used, oracle.replicates_used);
        assert_eq!(run.replicates_run, oracle.replicates_run);
        assert_eq!(run.replicates_saved, oracle.replicates_saved);
    }

    #[test]
    fn grid_set_filter_reproduces_the_full_runs_entry() {
        let ctx = small_context();
        let u = ctx.u_dataset();
        u.cache();
        let full = ctx.monte_carlo_grid(&u, &McGridOptions::fixed(40, 13));
        let target = full.observed[3].set;
        let one = ctx.monte_carlo_grid(
            &u,
            &McGridOptions {
                set_filter: Some(vec![target]),
                ..McGridOptions::fixed(40, 13)
            },
        );
        u.unpersist();
        assert_eq!(one.observed.len(), 1);
        assert_eq!(one.observed[0], full.observed[3]);
        assert_eq!(one.counts_ge[0], full.counts_ge[3]);
    }

    #[test]
    fn repeated_grid_runs_reuse_broadcast_tiles() {
        let ctx = small_context();
        let u = ctx.u_dataset();
        u.cache();
        let opts = McGridOptions::fixed(48, 21);
        let a = ctx.monte_carlo_grid(&u, &opts);
        let (h0, m0) = ctx.mc_tile_cache_stats();
        assert_eq!(m0, 2, "48 replicates at tile 32 broadcast two tiles");
        let b = ctx.monte_carlo_grid(&u, &opts);
        let (h1, m1) = ctx.mc_tile_cache_stats();
        u.unpersist();
        assert_eq!(a.counts_ge, b.counts_ge);
        assert_eq!(m1, m0, "a same-seed replay must not re-broadcast");
        assert_eq!(h1, h0 + 2);
    }

    #[test]
    fn pooled_tile_draw_has_each_addressed_multipliers_bits() {
        // Fewer patients than ranges, counts whose ranges start at odd
        // patients, and a grid-sized cohort; tiles that start mid-run,
        // with a short last one; one, two and four host threads.
        let tiles = [(64usize, 32usize), (96, 32), (128, 5)]
            .map(|(start, width)| ReplicateTile { start, width });
        let odd_start = |n: usize| (1..DRAW_RANGES).any(|r| (r * n / DRAW_RANGES) % 2 == 1);
        assert!(
            odd_start(3) && odd_start(7),
            "some patient range must start at an odd patient"
        );
        for threads in [1usize, 2, 4] {
            let engine = Engine::builder(ClusterSpec::test_small(2))
                .host_threads(threads)
                .build();
            for n in [1usize, 3, 7, 4000] {
                let drawn = draw_tiles(&engine, 21, n, &tiles);
                assert_eq!(drawn.len(), tiles.len());
                for (t, tile) in tiles.iter().zip(&drawn) {
                    assert_eq!(tile.len(), n * t.width);
                    for (i, row) in tile.chunks_exact(t.width).enumerate() {
                        for (c, z) in row.iter().enumerate() {
                            let want = sparkscore_stats::dist::multiplier(
                                21,
                                (t.start + c) as u64,
                                i as u64,
                            );
                            assert_eq!(
                                z.to_bits(),
                                want.to_bits(),
                                "threads={threads} n={n} tile at {} i={i} c={c}",
                                t.start
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn row_sums_have_the_bits_of_the_per_row_sum() {
        // Every row count around the quad width; rows of one length, of
        // ragged lengths, empty; and the values a reordered or re-seeded
        // chain would get wrong: all `-0.0` (a fold from `+0.0` gives
        // `+0.0`), NaN, both infinities, cancellation.
        let value = |r: usize, i: usize| match (r + 2 * i) % 11 {
            0 => 1e300,
            1 => -1e300,
            2 => 1e-300,
            k => (k as f64 - 5.5) * 0.1f64.powi((r % 3) as i32),
        };
        let special: [Vec<f64>; 5] = [
            vec![-0.0; 6],
            vec![1.0, f64::NAN, 2.0, 3.0, 4.0, 5.0],
            vec![1.0, f64::INFINITY, 2.0, 3.0, 4.0, 5.0],
            vec![1.0, f64::INFINITY, 2.0, f64::NEG_INFINITY, 4.0, 5.0],
            vec![],
        ];
        for count in 0..=9usize {
            for ragged in [false, true] {
                let mut rows: Vec<(u64, Vec<f64>)> = (0..count)
                    .map(|r| {
                        let len = if ragged { 6 + (r * r) % 3 } else { 6 };
                        (r as u64, (0..len).map(|i| value(r, i)).collect())
                    })
                    .collect();
                for at in 0..=count {
                    for row in &special {
                        if at < count {
                            rows[at].1 = row.clone();
                        }
                        let want: Vec<u64> = rows
                            .iter()
                            .map(|(_, c)| c.iter().sum::<f64>().to_bits())
                            .collect();
                        let got: Vec<u64> = row_sums(&rows).iter().map(|s| s.to_bits()).collect();
                        assert_eq!(got, want, "count={count} ragged={ragged} at={at}");
                    }
                }
            }
        }
    }

    #[test]
    fn from_dfs_and_from_memory_pack_the_same_columns() {
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let engine = Engine::builder(ClusterSpec::test_small(3))
            .host_threads(2)
            .dfs_block_size(4096)
            .build();
        let (paths, metas) =
            sparkscore_data::write_dataset_to_dfs(engine.dfs(), "/cohort", &ds).unwrap();
        assert!(metas[0].num_blocks() > 2, "genotypes must span blocks");
        let dfs = SparkScoreContext::from_dfs(engine, &paths, AnalysisOptions::default()).unwrap();
        let memory = small_context();
        // Partition boundaries differ (file blocks against an even split);
        // the columns and their order may not.
        let columns = |ctx: &SparkScoreContext| -> Vec<(u64, Vec<u8>)> {
            ctx.fgm
                .collect()
                .iter()
                .flat_map(|block| {
                    (0..block.num_snps())
                        .map(|c| (block.snp_id(c), block.column(c).to_vec()))
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        let from_text = columns(&dfs);
        assert_eq!(from_text.len(), 200);
        assert_eq!(from_text, columns(&memory));
        // One block per partition, as `from_rows` leaves it.
        assert!(dfs.fgm.run_partitions(|p| p.len()).iter().all(|&n| n == 1));
    }

    /// Fixed-B options at an explicit tile width.
    fn fixed_opts(b: usize, seed: u64, tile: usize) -> McGridOptions {
        McGridOptions {
            tile,
            ..McGridOptions::fixed(b, seed)
        }
    }

    #[test]
    fn tile_cache_hits_misses_and_evictions_keep_the_stream_aligned() {
        // A two-tile cache under a schedule that makes hits, misses and
        // FIFO evictions interleave: every run must equal the same run on
        // a fresh context (which draws every tile), so a tile drawn after
        // a hit — or after an eviction — continues the stream exactly.
        let mut ctx = small_context();
        ctx.mc_tile_cache = BroadcastTileCache::new(Arc::clone(ctx.engine()), 2);
        let u = ctx.u_dataset();
        u.cache();
        // (seed, B) at tile 8, and the cache's cumulative (hits, misses)
        // after the run. A round looks all of its tiles up before it
        // inserts the ones it drew. Cache contents in FIFO order, a/b =
        // seed 5/6:
        let schedule = [
            (5, 8, (0, 1)),   // a0 drawn                          -> [a0]
            (6, 8, (0, 2)),   // b0 drawn                          -> [a0 b0]
            (5, 16, (1, 3)),  // a0 hit, a1 drawn (evicts a0)      -> [b0 a1]
            (5, 24, (2, 5)),  // a0 drawn, a1 hit, a2 drawn        -> [a0 a2]
            (5, 44, (4, 9)),  // a0 hit, a1 drawn, a2 hit, a3..a5  -> [a4 a5]
            (5, 44, (6, 13)), // a0..a3 drawn, a4 a5 hit           -> [a2 a3]
            (5, 16, (6, 15)), // a0, a1 drawn                      -> [a0 a1]
            (5, 44, (8, 19)), // a0, a1 hit, a2..a5 drawn          -> [a4 a5]
        ];
        for (step, &(seed, b, stats)) in schedule.iter().enumerate() {
            let opts = fixed_opts(b, seed, 8);
            let run = ctx.monte_carlo_grid(&u, &opts);
            assert_eq!(ctx.mc_tile_cache_stats(), stats, "step {step}");
            let fresh = small_context().monte_carlo_distributed(&opts);
            assert_eq!(run.observed, fresh.observed, "step {step}");
            assert_eq!(run.counts_ge, fresh.counts_ge, "step {step}");
            assert_eq!(run.tiles, b.div_ceil(8), "step {step}");
        }
        u.unpersist();
    }

    #[test]
    fn fused_rounds_match_the_oracles_across_bad_seams() {
        let ctx = small_context();
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let (rows, weights, sets) = dense_oracle_inputs(&ds, ctx.num_patients());
        let u = ctx.u_dataset();
        u.cache();
        // Fill the cohort invariants so every run below launches tile
        // jobs only.
        ctx.monte_carlo_grid(&u, &McGridOptions::fixed(1, 1));

        // Fixed B: not a multiple of the tile, and (at tile 4) more tiles
        // than one job may carry.
        let cap = sparkscore_rdd::MAX_FUSED_TILES;
        for (b, tile, jobs) in [
            (150usize, 4usize, 2u64),
            (45, MC_TILE, 1),
            (50, 7, 1),
            (4 * cap, 4, 1),
        ] {
            assert!(b.div_ceil(tile) <= jobs as usize * cap);
            let run = ctx.monte_carlo_grid(&u, &fixed_opts(b, 9, tile));
            let oracle = monte_carlo_blocked(&ctx.model, &rows, &weights, &sets, b, 9, tile);
            let observed: Vec<f64> = run.observed.iter().map(|s| s.score).collect();
            assert_eq!(observed, oracle.observed, "b={b} tile={tile}");
            assert_eq!(run.counts_ge, oracle.counts_ge, "b={b} tile={tile}");
            assert_eq!(run.tiles, b.div_ceil(tile));
            assert_eq!(run.metrics.jobs, jobs, "b={b} tile={tile}");
        }

        // Adaptive: a floor that is no multiple of the tile (looks at 32,
        // 64, 96 are vacuous, the one at 128 is not), and a floor further
        // out than one job may carry (32 tiles to 128, three more to 140).
        for (b, tile, floor, fused_jobs, fused_tiles) in [
            (300usize, 32usize, 100usize, 1u64, 4usize),
            (190, 4, 140, 2, 35),
        ] {
            let rule = StoppingRule::new(floor, 0.2, 0.05);
            let opts = McGridOptions {
                tile,
                ..McGridOptions::adaptive(b, 3, rule)
            };
            let run = ctx.monte_carlo_grid(&u, &opts);
            let oracle =
                monte_carlo_adaptive(&ctx.model, &rows, &weights, &sets, b, 3, tile, &rule);
            assert_eq!(run.counts_ge, oracle.counts_ge, "floor={floor}");
            assert_eq!(run.replicates_used, oracle.replicates_used, "floor={floor}");
            assert_eq!(run.replicates_run, oracle.replicates_run, "floor={floor}");
            assert_eq!(
                run.replicates_saved, oracle.replicates_saved,
                "floor={floor}"
            );
            assert!(
                run.replicates_used.iter().any(|&t| t < b)
                    && run.replicates_used.iter().any(|&t| t > fused_tiles * tile),
                "the rule must stop some sets early and carry some past the floor: {:?}",
                run.replicates_used
            );
            // One job per fused round below the floor, one per tile after.
            assert_eq!(
                run.metrics.jobs,
                fused_jobs + (run.tiles - fused_tiles) as u64,
                "floor={floor}"
            );
        }
        u.unpersist();
    }

    #[test]
    fn later_grid_runs_launch_only_their_tile_rounds() {
        let ctx = small_context();
        let u = ctx.u_dataset();
        u.cache();
        let opts = McGridOptions::fixed(70, 4);
        let first = ctx.monte_carlo_grid(&u, &opts);
        assert_eq!(
            first.metrics.jobs, 3,
            "weights collect + observed pass + one fused round"
        );
        // Any later run — other seed, one set — reads the memo: no weights
        // collect, no observed pass, just its rounds.
        let target = first.observed[2].set;
        let second = ctx.monte_carlo_grid(
            &u,
            &McGridOptions {
                set_filter: Some(vec![target]),
                ..McGridOptions::fixed(70, 8)
            },
        );
        u.unpersist();
        assert_eq!(second.tiles, 3);
        assert_eq!(second.metrics.jobs, 1);
        assert_eq!(second.observed[0], first.observed[2]);
        let observed = ctx.observed().scores;
        for (grid, obs) in first.observed.iter().zip(&observed) {
            assert_eq!(grid.set, obs.set);
            assert!(
                (grid.score - obs.score).abs() <= 1e-9 * (1.0 + obs.score.abs()),
                "set {}: grid {} vs observed {}",
                grid.set,
                grid.score,
                obs.score
            );
        }
    }

    #[test]
    fn concurrent_first_queries_share_one_invariant_fill() {
        let opts: Vec<McGridOptions> = [0u64, 5]
            .iter()
            .map(|&set| McGridOptions {
                set_filter: Some(vec![set]),
                ..McGridOptions::fixed(40, 11)
            })
            .collect();
        let expected: Vec<McGridRun> = opts
            .iter()
            .map(|o| small_context().monte_carlo_distributed(o))
            .collect();

        let ctx = small_context();
        let u = ctx.u_dataset();
        u.cache();
        // Both threads reach the unfilled memo together; the fill itself
        // runs engine jobs while the other thread waits on it.
        let gate = std::sync::Barrier::new(2);
        let runs: Vec<McGridRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = opts
                .iter()
                .map(|o| {
                    let (ctx, u, gate) = (&ctx, &u, &gate);
                    scope.spawn(move || {
                        gate.wait();
                        ctx.monte_carlo_grid(u, o)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("query thread"))
                .collect()
        });
        u.unpersist();
        for (run, want) in runs.iter().zip(&expected) {
            assert_eq!(run.observed, want.observed);
            assert_eq!(run.counts_ge, want.counts_ge);
        }
        // The weights were collected and U scanned for scores once, not
        // once per thread: 2 fill jobs + 1 round per query.
        assert_eq!(ctx.engine().metrics_snapshot().jobs, 4);
    }

    #[test]
    fn grid_reports_replicate_counters_through_stage_summaries() {
        let (ctx, listener) =
            context_with_listener(|ds| Phenotype::Survival(ds.phenotypes.clone()));
        let rule = StoppingRule::new(20, 0.2, 0.05);
        let run = ctx.monte_carlo_distributed(&McGridOptions::adaptive(200, 3, rule));
        let trace = trace_of(&listener);
        let task_run = trace.counter_total(REPLICATES_RUN.name());
        let task_saved = trace.counter_total(REPLICATES_SAVED.name());
        assert_eq!(
            task_run, run.replicates_run,
            "driver total must equal the task-level sum"
        );
        assert!(run.replicates_run > 0);
        // Task-level saved counts only in-tile skips; the driver total
        // additionally credits tiles never launched.
        assert!(run.replicates_saved >= task_saved);
    }

    #[test]
    fn per_snp_asymptotic_shape() {
        let ctx = small_context();
        let rows = ctx.per_snp_asymptotic();
        assert_eq!(rows.len(), 200);
        assert!(rows.iter().all(|r| (0.0..=1.0).contains(&r.pvalue)));
    }

    #[test]
    fn pipeline_lineage_shows_inputs() {
        let ctx = small_context();
        let lineage = ctx.pipeline_lineage();
        assert!(lineage.contains("map"));
        assert!(lineage.contains("filter"));
        assert!(lineage.contains("parallelize"));
    }

    /// The lineage text, to the op id and partition count: from DFS text
    /// (one ingest operator), and from memory with a cached `U`.
    #[test]
    fn pipeline_lineage_is_pinned() {
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let engine = Engine::builder(ClusterSpec::test_small(3))
            .host_threads(2)
            .dfs_block_size(4096)
            .build();
        let (paths, _) =
            sparkscore_data::write_dataset_to_dfs(engine.dfs(), "/cohort", &ds).unwrap();
        let dfs = SparkScoreContext::from_dfs(engine, &paths, AnalysisOptions::default()).unwrap();
        assert_eq!(
            dfs.pipeline_lineage(),
            "mapPartitions (op 2, 6 parts)\n  textFile (op 1, 6 parts)\n"
        );
        let memory = small_context();
        let u = memory.u_dataset().cache();
        u.count();
        let chain = concat!(
            "  mapPartitions (op 3, 4 parts)\n",
            "    filter (op 2, 4 parts)\n",
            "      parallelize (op 0, 4 parts)\n",
        );
        let lineage = memory.pipeline_lineage();
        assert_eq!(lineage, format!("mapPartitions (op 5, 4 parts)\n{chain}"));
        let lineage = u.lineage();
        assert_eq!(
            lineage,
            format!("mapPartitions (op 4, 4 parts) [cached 4/4]\n{chain}")
        );
    }

    use sparkscore_obs::ExecutionTrace;
    use sparkscore_rdd::{EventListener, MemoryEventListener};

    /// A context over the small synthetic genotypes with `phenotype`
    /// swapped in, plus a listener that captures the event stream, read
    /// back through [`trace_of`] to observe the tasks' kernel counters.
    fn context_with_listener(
        phenotype_of: impl Fn(&GwasDataset) -> Phenotype,
    ) -> (SparkScoreContext, Arc<MemoryEventListener>) {
        let listener = Arc::new(MemoryEventListener::new());
        let engine = Engine::builder(ClusterSpec::test_small(2))
            .host_threads(2)
            .listener(Arc::clone(&listener) as Arc<dyn EventListener>)
            .build();
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let rows: Vec<(u64, Vec<u8>)> = ds
            .genotypes
            .iter()
            .map(|r| (r.id, r.dosages.clone()))
            .collect();
        let gm = engine.parallelize(rows, 4);
        let weights: Vec<(u64, f64)> = ds
            .weights
            .iter()
            .enumerate()
            .map(|(j, &w)| (j as u64, w))
            .collect();
        let weights_rdd = engine.parallelize(weights, 2);
        let phenotype = phenotype_of(&ds);
        let ctx = SparkScoreContext::from_parts(
            engine,
            phenotype,
            gm,
            weights_rdd,
            &ds.sets,
            AnalysisOptions::default(),
        );
        (ctx, listener)
    }

    fn trace_of(listener: &MemoryEventListener) -> ExecutionTrace {
        ExecutionTrace::from_events(&listener.snapshot())
    }

    fn kernel_row_totals(listener: &MemoryEventListener) -> (u64, u64) {
        let trace = trace_of(listener);
        (
            trace.counter_total(KERNEL_ROWS.name()),
            trace.counter_total(PACKED_KERNEL_ROWS.name()),
        )
    }

    #[test]
    fn gaussian_model_scores_every_row_on_the_packed_path() {
        let (ctx, listener) = context_with_listener(|ds| {
            Phenotype::Quantitative((0..ds.phenotypes.len()).map(|i| (i % 7) as f64).collect())
        });
        let obs = ctx.observed();
        assert_eq!(obs.scores.len(), 10);
        let (total, packed) = kernel_row_totals(&listener);
        assert!(total > 0, "the observed pass must report kernel rows");
        assert_eq!(
            packed, total,
            "an affine model must never unpack a genotype column"
        );
    }

    #[test]
    fn cox_model_falls_back_to_the_byte_kernel() {
        let (ctx, listener) =
            context_with_listener(|ds| Phenotype::Survival(ds.phenotypes.clone()));
        ctx.observed();
        let (total, packed) = kernel_row_totals(&listener);
        assert!(total > 0);
        assert_eq!(packed, 0, "Cox contributions are not affine in dosage");
    }

    #[test]
    fn packed_qc_matches_byte_oracle_per_snp() {
        let (ctx, listener) =
            context_with_listener(|ds| Phenotype::Survival(ds.phenotypes.clone()));
        let thresholds = QcThresholds::default();
        let verdicts = ctx.qc(thresholds);
        assert_eq!(verdicts.len(), 200, "every filtered SNP gets a verdict");
        for w in verdicts.windows(2) {
            assert!(w[0].snp < w[1].snp, "sorted by SNP id");
        }
        let ds = GwasDataset::generate(&SyntheticConfig::small(17));
        let by_id: std::collections::HashMap<u64, &Vec<u8>> =
            ds.genotypes.iter().map(|r| (r.id, &r.dosages)).collect();
        for q in &verdicts {
            let oracle = sparkscore_stats::qc::check_snp(by_id[&q.snp], &thresholds);
            assert_eq!(q.verdict, oracle, "snp {}", q.snp);
        }
        let (total, packed) = kernel_row_totals(&listener);
        assert!(total > 0);
        assert_eq!(packed, total, "QC never unpacks a genotype column");
    }
}
