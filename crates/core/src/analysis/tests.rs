//! The analysis tests, in three parts: what both programs share, the
//! paper's algorithms (`paper.rs`) and the query path (`query.rs`).

use super::query::{draw_tiles, DRAW_RANGES};
use super::*;
use crate::result::McGridRun;
use crate::service::AnalysisService;
use sparkscore_cluster::ClusterSpec;
use sparkscore_data::SyntheticConfig;
use sparkscore_obs::ExecutionTrace;
use sparkscore_rdd::{
    BroadcastTileCache, EventListener, JobService, MemoryEventListener, ReplicateTile,
};
use sparkscore_stats::pvalue::StoppingRule;
use sparkscore_stats::resample::{monte_carlo_adaptive, monte_carlo_blocked, MC_TILE};

// ---- shared: constructors, the U pass, QC and the row sums ----

fn small_context() -> SparkScoreContext {
    let engine = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(2)
        .build();
    let ds = GwasDataset::generate(&SyntheticConfig::small(17));
    SparkScoreContext::from_memory(engine, &ds, 4, AnalysisOptions::default())
}

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
                    let slices: Vec<&[f64]> = rows.iter().map(|(_, c)| c.as_slice()).collect();
                    let got: Vec<u64> = row_sums(&slices).iter().map(|s| s.to_bits()).collect();
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
    let (ctx, listener) = context_with_listener(|ds| Phenotype::Survival(ds.phenotypes.clone()));
    ctx.observed();
    let (total, packed) = kernel_row_totals(&listener);
    assert!(total > 0);
    assert_eq!(packed, 0, "Cox contributions are not affine in dosage");
}

#[test]
fn packed_qc_matches_byte_oracle_per_snp() {
    let (ctx, listener) = context_with_listener(|ds| Phenotype::Survival(ds.phenotypes.clone()));
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

// ---- the paper's algorithms ----

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

/// The fused pass of Algorithms 1 and 2 is the cached path's two
/// operators, bit for bit and unit for unit: the same per-SNP sums in the
/// same order, the same virtual time and the same kernel counters, for
/// every model kind and a permuted one. The genotype matrix is cut by hand
/// into blocks of 13, 0, `FUSED_ROWS`, 1 and 21 columns and the rest, so
/// that blocks end mid-chunk, a block and (at 8 partitions) a whole
/// partition are empty, and 1, 3 and 8 partitions put several blocks in a
/// task.
#[test]
fn score_sums_are_the_inner_sums_of_u_bit_for_bit() {
    use sparkscore_stats::score::Survival;
    let ds = GwasDataset::generate(&SyntheticConfig::small(17));
    let n = ds.phenotypes.len();
    let union = set_union(&ds.sets);
    let rows: Vec<(u64, Vec<u8>)> = ds
        .genotypes
        .iter()
        .filter(|r| union.binary_search(&r.id).is_ok())
        .map(|r| (r.id, r.dosages.clone()))
        .collect();
    let mut blocks = Vec::new();
    let mut rest = rows.as_slice();
    for width in [13, 0, FUSED_ROWS, 1, 21, rows.len()] {
        let (head, tail) = rest.split_at(width.min(rest.len()));
        blocks.push(GenotypeBlock::from_rows(n, head));
        rest = tail;
    }
    let values: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64 * 0.5).collect();
    let phenotypes = [
        // Eleven distinct times: every risk set is a tie group.
        Phenotype::Survival(
            (0..n)
                .map(|i| Survival {
                    time: (i % 11) as f64,
                    event: i % 4 != 0,
                })
                .collect(),
        ),
        Phenotype::Quantitative(values.clone()),
        Phenotype::CaseControl((0..n).map(|i| i % 3 == 0).collect()),
        Phenotype::QuantitativeAdjusted {
            values,
            covariates: vec![(0..n).map(|i| (i % 5) as f64).collect()],
        },
    ];
    let perm: Vec<usize> = (0..n).rev().collect();
    // One pass on a fresh one-thread engine, so that the virtual clock
    // starts from the same reading and every task runs on this thread,
    // whose scratch a first two-operator pass has warmed.
    let pass = |phenotype: &Phenotype, partitions, permuted: bool, fused: bool| {
        let listener = Arc::new(MemoryEventListener::new());
        let engine = Engine::builder(ClusterSpec::test_small(3))
            .host_threads(1)
            .listener(Arc::clone(&listener) as Arc<dyn EventListener>)
            .build();
        let gm = engine.parallelize(rows.clone(), partitions);
        let weights = ds.weights.iter().enumerate().map(|(j, &w)| (j as u64, w));
        let weights_rdd = engine.parallelize(weights.collect(), 2);
        let phenotype = phenotype.clone();
        let options = AnalysisOptions::default();
        let mut ctx =
            SparkScoreContext::from_parts(engine, phenotype, gm, weights_rdd, &ds.sets, options);
        ctx.fgm = ctx.engine.parallelize(blocks.clone(), partitions);
        let model = match permuted {
            false => ctx.model.clone(),
            true => ctx.model.permuted(&perm),
        };
        let two_ops = || inner_sums(&ctx.u_rdd(model.clone()), n, None);
        two_ops().collect();
        let counters = || {
            let trace = trace_of(&listener);
            [KERNEL_ROWS, PACKED_KERNEL_ROWS, SCRATCH_REUSES].map(|c| trace.counter_total(c.name()))
        };
        let before = counters();
        let sums = match fused {
            true => ctx.score_sums(model.clone()),
            false => two_ops(),
        };
        let bits: Vec<(u64, u64)> = sums
            .collect()
            .iter()
            .map(|&(snp, s)| (snp, s.to_bits()))
            .collect();
        let moved: Vec<u64> = counters().iter().zip(before).map(|(a, b)| a - b).collect();
        (bits, ctx.engine.virtual_time_secs().to_bits(), moved)
    };
    for phenotype in &phenotypes {
        for partitions in [1, 3, 8] {
            // Permutation is no null under covariates: the adjusted
            // model has no permuted form.
            let adjusted = matches!(phenotype, Phenotype::QuantitativeAdjusted { .. });
            for permuted in [false, true].into_iter().filter(|&p| !(p && adjusted)) {
                let fused = pass(phenotype, partitions, permuted, true);
                assert_eq!(fused.0.len(), rows.len());
                assert_eq!(
                    fused,
                    pass(phenotype, partitions, permuted, false),
                    "{:?} at {partitions} partitions, permuted: {permuted}",
                    std::mem::discriminant(&Model::fit(phenotype)),
                );
            }
        }
    }
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
    let (paths, _) = sparkscore_data::write_dataset_to_dfs(engine.dfs(), "/cohort", &ds).unwrap();
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

// ---- the query path ----

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
    let full = ctx.set_sums(&inner_sums(&u, ctx.num_patients(), None));
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
        let reorder = 2.0 * m * (f64::EPSILON / 2.0) * terms.iter().map(|t| t.abs()).sum::<f64>();
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
                    for weights_strategy in [WeightsStrategy::Join, WeightsStrategy::Broadcast] {
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
        let ctx = SparkScoreContext::from_parts(engine, phenotype, gm, weights_rdd, sets, options);
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
    let first = delta(ctx.sets[3].id);
    assert_eq!(first.jobs, 2, "the weight table, then the query");
    assert_eq!(first.shuffle_bytes_written, 0);
    for set in ctx.sets[..8].iter().map(|s| s.id) {
        let one = delta(set);
        assert_eq!((one.jobs, one.stages, one.tasks), (1, 1, 4), "set {set}");
        assert_eq!((one.cache_hits, one.cache_misses), (4, 0), "set {set}");
        assert_eq!(one.shuffle_bytes_written, 0, "set {set}");
    }
}

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

/// A one-set run is its set's entry of the all-sets grid, bit for bit:
/// score, count and replicates used, for a fixed-B and an adaptive
/// run, on Cox and Gaussian cohorts at 1, 3 and 8 partitions and 1 and
/// 2 host threads. In the overlapping cohort set 1 also lists set 0's
/// first member, which the `snp → set` lookup gives to set 1 alone;
/// the grid counts it in both, so set 0's gather must keep its row.
#[test]
fn a_one_set_run_is_the_full_runs_entry_across_cuts() {
    let ds = GwasDataset::generate(&SyntheticConfig::small(17));
    let mut overlapping = ds.sets.clone();
    let shared = overlapping[0].members[0];
    overlapping[1].members.push(shared);
    let trait_values: Vec<f64> = (0..ds.phenotypes.len()).map(|i| (i % 7) as f64).collect();
    let cohorts = [
        (Phenotype::Survival(ds.phenotypes.clone()), &ds.sets),
        (Phenotype::Quantitative(trait_values.clone()), &ds.sets),
        (Phenotype::Quantitative(trait_values), &overlapping),
    ];
    let rule = StoppingRule::new(20, 0.2, 0.05);
    let runs = [
        McGridOptions::fixed(40, 13),
        McGridOptions {
            tile: 8,
            ..McGridOptions::adaptive(200, 3, rule)
        },
    ];
    for (c, (phenotype, sets)) in cohorts.iter().enumerate() {
        for partitions in [1, 3, 8] {
            for threads in [1, 2] {
                let engine = Engine::builder(ClusterSpec::test_small(3))
                    .host_threads(threads)
                    .build();
                let rows = ds.genotypes.iter().map(|r| (r.id, r.dosages.clone()));
                let gm = engine.parallelize(rows.collect(), partitions);
                let weights = ds.weights.iter().enumerate().map(|(j, &w)| (j as u64, w));
                let weights_rdd = engine.parallelize(weights.collect(), 2);
                let ctx = SparkScoreContext::from_parts(
                    engine,
                    phenotype.clone(),
                    gm,
                    weights_rdd,
                    sets,
                    AnalysisOptions::default(),
                );
                let u = ctx.u_dataset();
                u.cache();
                for opts in &runs {
                    let full = ctx.monte_carlo_grid(&u, opts);
                    for (s, entry) in full.observed.iter().enumerate() {
                        let one = ctx.monte_carlo_set(&u, entry.set, opts).expect("known set");
                        let cut = format!(
                            "cohort {c}, {partitions} partitions, {threads} threads, \
                             set {}, stopping {}",
                            entry.set,
                            opts.stopping.is_some()
                        );
                        assert_eq!(one.observed.len(), 1, "{cut}");
                        assert_eq!(one.observed[0].set, entry.set, "{cut}");
                        assert_eq!(
                            one.observed[0].score.to_bits(),
                            entry.score.to_bits(),
                            "{cut}"
                        );
                        assert_eq!(one.counts_ge, [full.counts_ge[s]], "{cut}");
                        assert_eq!(one.replicates_used, [full.replicates_used[s]], "{cut}");
                    }
                }
                assert!(ctx.monte_carlo_set(&u, u64::MAX, &runs[0]).is_none());
                u.unpersist();
            }
        }
    }
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
                        let want =
                            sparkscore_stats::dist::multiplier(21, (t.start + c) as u64, i as u64);
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
    ctx.index.tiles = BroadcastTileCache::new(Arc::clone(ctx.engine()), 2);
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
        let oracle = monte_carlo_adaptive(&ctx.model, &rows, &weights, &sets, b, 3, tile, &rule);
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
    // Any later run — other seed, other budget — reads the memo: no
    // weights collect, no observed pass, just its rounds.
    let second = ctx.monte_carlo_grid(&u, &McGridOptions::fixed(90, 8));
    u.unpersist();
    assert_eq!(second.tiles, 3);
    assert_eq!(second.metrics.jobs, 1);
    assert_eq!(second.observed, first.observed);
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
    let opts = [McGridOptions::fixed(40, 11), McGridOptions::fixed(40, 12)];
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

/// The query index fills on first use: building a `Join` context (whose
/// weight table is a collect job away) and registering it as a service
/// cohort start no engine job.
#[test]
fn building_and_registering_a_cohort_starts_no_job() {
    let engine = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(2)
        .build();
    let ds = GwasDataset::generate(&SyntheticConfig::small(17));
    let options = AnalysisOptions::default();
    assert_eq!(options.weights_strategy, WeightsStrategy::Join);
    let ctx = SparkScoreContext::from_memory(Arc::clone(&engine), &ds, 4, options);
    let service = AnalysisService::new(JobService::builder(Arc::clone(&engine)).build());
    service.register_cohort("main", ctx);
    assert_eq!(engine.metrics_snapshot().jobs, 0);
}

#[test]
fn grid_reports_replicate_counters_through_stage_summaries() {
    let (ctx, listener) = context_with_listener(|ds| Phenotype::Survival(ds.phenotypes.clone()));
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
