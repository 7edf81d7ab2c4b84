//! The distributed pipelines must reproduce the sequential reference
//! implementations exactly (same seeds → same replicate sequences → same
//! counters), from both in-memory and DFS-text inputs.

use std::sync::Arc;

use sparkscore_cluster::ClusterSpec;
use sparkscore_core::{AnalysisOptions, Phenotype, ResamplingRun, SparkScoreContext};
use sparkscore_data::io::{
    parse_genotype_line, parse_phenotypes_text, parse_set_line, parse_weight_line,
    phenotypes_to_text,
};
use sparkscore_data::{
    write_dataset_to_dfs, DatasetPaths, GwasDataset, SyntheticConfig, WeightScheme,
};
use sparkscore_rdd::Engine;
use sparkscore_stats::resample;
use sparkscore_stats::score::CoxScore;
use sparkscore_stats::skat::SnpSet;

fn engine(nodes: u32) -> Arc<Engine> {
    Engine::builder(ClusterSpec::test_small(nodes))
        .host_threads(4)
        .dfs_block_size(4096)
        .build()
}

fn dataset(seed: u64) -> GwasDataset {
    let mut cfg = SyntheticConfig::small(seed);
    cfg.patients = 40;
    cfg.snps = 120;
    cfg.snp_sets = 8;
    cfg.weights = WeightScheme::skat_default();
    GwasDataset::generate(&cfg)
}

fn assert_scores_close(distributed: &[sparkscore_core::SetScore], reference: &[f64]) {
    assert_eq!(distributed.len(), reference.len());
    for (d, &r) in distributed.iter().zip(reference) {
        assert!(
            (d.score - r).abs() <= 1e-9 * (1.0 + r.abs()),
            "set {}: distributed {} vs reference {}",
            d.set,
            d.score,
            r
        );
    }
}

#[test]
fn observed_skat_matches_reference_from_memory() {
    let ds = dataset(21);
    let ctx = SparkScoreContext::from_memory(engine(3), &ds, 5, AnalysisOptions::default());
    let obs = ctx.observed();
    let model = CoxScore::new(&ds.phenotypes);
    let reference = resample::observed_skat(&model, &ds.genotype_rows(), &ds.weights, &ds.sets);
    assert_scores_close(&obs.scores, &reference);
}

#[test]
fn observed_skat_matches_reference_from_dfs_text() {
    let ds = dataset(22);
    let e = engine(3);
    let (paths, _) = write_dataset_to_dfs(e.dfs(), "/gwas", &ds).unwrap();
    let ctx = SparkScoreContext::from_dfs(Arc::clone(&e), &paths, AnalysisOptions::default())
        .expect("inputs exist");
    let obs = ctx.observed();
    let model = CoxScore::new(&ds.phenotypes);
    let reference = resample::observed_skat(&model, &ds.genotype_rows(), &ds.weights, &ds.sets);
    // Text serialization rounds survival times to 1e-6; tolerance reflects
    // that, scaled by the squared-score magnitudes.
    for (d, &r) in obs.scores.iter().zip(&reference) {
        assert!(
            (d.score - r).abs() <= 1e-3 * (1.0 + r.abs()),
            "set {}: {} vs {}",
            d.set,
            d.score,
            r
        );
    }
}

#[test]
fn monte_carlo_counts_match_reference_exactly() {
    let ds = dataset(23);
    let ctx = SparkScoreContext::from_memory(engine(2), &ds, 4, AnalysisOptions::default());
    let run = ctx.monte_carlo(50, 99, true);
    let model = CoxScore::new(&ds.phenotypes);
    let reference =
        resample::monte_carlo(&model, &ds.genotype_rows(), &ds.weights, &ds.sets, 50, 99);
    assert_scores_close(&run.observed, &reference.observed);
    assert_eq!(run.counts_ge, reference.counts_ge);
    assert_eq!(run.pvalues(), reference.pvalues());
}

#[test]
fn monte_carlo_without_cache_matches_too() {
    let ds = dataset(29);
    let ctx = SparkScoreContext::from_memory(engine(2), &ds, 4, AnalysisOptions::default());
    let run = ctx.monte_carlo(25, 7, false);
    let model = CoxScore::new(&ds.phenotypes);
    let reference =
        resample::monte_carlo(&model, &ds.genotype_rows(), &ds.weights, &ds.sets, 25, 7);
    assert_eq!(run.counts_ge, reference.counts_ge);
}

#[test]
fn permutation_counts_match_reference_exactly() {
    let ds = dataset(31);
    let ctx = SparkScoreContext::from_memory(engine(2), &ds, 4, AnalysisOptions::default());
    let run = ctx.permutation(30, 5);
    let model = CoxScore::new(&ds.phenotypes);
    let reference = resample::permutation(
        &model,
        |p| model.permuted(p),
        &ds.genotype_rows(),
        &ds.weights,
        &ds.sets,
        30,
        5,
    );
    assert_scores_close(&run.observed, &reference.observed);
    assert_eq!(run.counts_ge, reference.counts_ge);
}

#[test]
fn dfs_and_memory_paths_agree() {
    let ds = dataset(37);
    let e = engine(3);
    let (paths, _) = write_dataset_to_dfs(e.dfs(), "/gwas2", &ds).unwrap();
    let from_dfs = SparkScoreContext::from_dfs(Arc::clone(&e), &paths, AnalysisOptions::default())
        .unwrap()
        .observed();
    let from_mem =
        SparkScoreContext::from_memory(engine(3), &ds, 4, AnalysisOptions::default()).observed();
    for (a, b) in from_dfs.scores.iter().zip(&from_mem.scores) {
        assert_eq!(a.set, b.set);
        assert!(
            (a.score - b.score).abs() <= 1e-3 * (1.0 + b.score.abs()),
            "set {}: dfs {} vs mem {}",
            a.set,
            a.score,
            b.score
        );
    }
}

#[test]
fn results_insensitive_to_cluster_shape_and_partitioning() {
    let ds = dataset(41);
    let base = SparkScoreContext::from_memory(engine(1), &ds, 1, AnalysisOptions::default())
        .monte_carlo(20, 13, true);
    for (nodes, parts, reduce) in [(2u32, 3usize, 2usize), (4, 8, 5), (3, 13, 1)] {
        let ctx = SparkScoreContext::from_memory(
            engine(nodes),
            &ds,
            parts,
            AnalysisOptions {
                reduce_partitions: reduce,
                ..AnalysisOptions::default()
            },
        );
        let run = ctx.monte_carlo(20, 13, true);
        assert_eq!(
            run.counts_ge, base.counts_ge,
            "{nodes} nodes / {parts} partitions / {reduce} reducers changed the counts"
        );
        for (a, b) in run.observed.iter().zip(&base.observed) {
            assert!((a.score - b.score).abs() <= 1e-9 * (1.0 + b.score.abs()));
        }
    }
}

/// The operator chain `from_dfs` stood for before it read blocks straight
/// into packed genotypes — a `String` per line, a byte row per SNP, filter
/// and pack inside `from_parts` — at the modeled costs it charged.
fn operator_chain_context(engine: &Arc<Engine>, paths: &DatasetPaths) -> SparkScoreContext {
    let phenotypes =
        parse_phenotypes_text(&engine.dfs().read_to_string(&paths.phenotypes).unwrap());
    let sets: Vec<SnpSet> = engine
        .dfs()
        .read_to_string(&paths.sets)
        .unwrap()
        .lines()
        .map(parse_set_line)
        .collect();
    let weights = engine
        .text_file(&paths.weights)
        .unwrap()
        .map_with_cost(40.0, |l| parse_weight_line(&l));
    let gm = engine
        .text_file(&paths.genotypes)
        .unwrap()
        .map_with_cost(phenotypes.len() as f64 * 400.0, |l| parse_genotype_line(&l));
    SparkScoreContext::from_parts(
        Arc::clone(engine),
        Phenotype::Survival(phenotypes),
        gm,
        weights,
        &sets,
        AnalysisOptions::default(),
    )
}

fn assert_same_run(a: &ResamplingRun, b: &ResamplingRun) {
    assert_eq!(a.observed, b.observed);
    assert_eq!(a.counts_ge, b.counts_ge);
    assert_eq!(a.num_replicates, b.num_replicates);
}

#[test]
fn from_dfs_is_the_operator_chain_in_results_and_in_modeled_cost() {
    let ds = dataset(43);
    // One engine per side: identical clusters, identical files, and
    // virtual durations are a pure function of counted work, so the clocks
    // compare to the nanosecond.
    let side = |fused: bool| {
        let e = Engine::builder(ClusterSpec::test_small(3))
            .host_threads(1)
            .dfs_block_size(1024)
            .build();
        let (paths, metas) = write_dataset_to_dfs(e.dfs(), "/gwas", &ds).unwrap();
        assert!(metas[0].num_blocks() > 2 && metas[2].num_blocks() > 1);
        let ctx = if fused {
            SparkScoreContext::from_dfs(Arc::clone(&e), &paths, AnalysisOptions::default()).unwrap()
        } else {
            operator_chain_context(&e, &paths)
        };
        (e, ctx)
    };
    let (fused_engine, fused) = side(true);
    let (chain_engine, chain) = side(false);

    // One observed pass: same scores to the bit, same virtual seconds,
    // same input and task accounting.
    let (a, b) = (fused.observed(), chain.observed());
    assert_eq!(a.scores, b.scores);
    assert!(a.virtual_secs > 0.0);
    assert_eq!(a.virtual_secs.to_bits(), b.virtual_secs.to_bits());
    assert_eq!(
        fused_engine.virtual_time_secs().to_bits(),
        chain_engine.virtual_time_secs().to_bits()
    );
    let (ma, mb) = (
        fused_engine.metrics_snapshot(),
        chain_engine.metrics_snapshot(),
    );
    assert!(ma.input_bytes > 0 && ma.input_local_reads > 0);
    assert_eq!(
        (ma.input_bytes, ma.input_local_reads, ma.tasks, ma.stages),
        (mb.input_bytes, mb.input_local_reads, mb.tasks, mb.stages)
    );

    // Algorithms 2 and 3 re-run that pass per replicate; they agree too.
    assert_same_run(&fused.permutation(6, 5), &chain.permutation(6, 5));
    assert_same_run(
        &fused.monte_carlo(6, 5, true),
        &chain.monte_carlo(6, 5, true),
    );
    assert_eq!(
        fused_engine.virtual_time_secs().to_bits(),
        chain_engine.virtual_time_secs().to_bits()
    );
}

#[test]
fn virtual_time_repeats_to_the_bit_across_runs_and_host_threads() {
    let ds = dataset(43);
    // Bit patterns of every virtual duration the analysis reports, then of
    // the engine's clock.
    let run = |host_threads: usize| {
        let e = Engine::builder(ClusterSpec::test_small(3))
            .host_threads(host_threads)
            .dfs_block_size(1024)
            .build();
        let (paths, _) = write_dataset_to_dfs(e.dfs(), "/gwas", &ds).unwrap();
        let ctx = SparkScoreContext::from_dfs(Arc::clone(&e), &paths, AnalysisOptions::default())
            .unwrap();
        [
            ctx.observed().virtual_secs,
            ctx.monte_carlo(5, 7, true).virtual_secs,
            ctx.permutation(3, 7).virtual_secs,
            e.virtual_time_secs(),
        ]
        .map(f64::to_bits)
    };
    let first = run(1);
    assert!(first.iter().all(|&bits| f64::from_bits(bits) > 0.0));
    for host_threads in [1, 2, 2] {
        assert_eq!(run(host_threads), first, "host_threads = {host_threads}");
    }
}

/// FNV-1a over 64-bit words: a digest of result bits that does not itself
/// depend on the standard library's hasher.
fn fold_bits(digest: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(digest, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn paper_path_results_work_and_shuffle_bytes_are_pinned() {
    // Algorithms 1, 2 and 3 as the paper runs them, over DFS text: every
    // score and count bit, every virtual duration, and each run's jobs,
    // stages, tasks and shuffle bytes. The constants were recorded before
    // the shuffle operators were rewritten to hash each record once, and
    // the rewrite had to reproduce them. Per-set float sums follow the
    // reduce side's emission order, which follows the std `HashMap` and
    // SipHash, so a toolchain that changes either moves these values too.
    // The digest folds in Monte Carlo counts, so a change of multipliers
    // (`sparkscore_stats::dist::multiplier`) moves it and nothing else.
    let ds = dataset(53);
    let e = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(2)
        .dfs_block_size(1024)
        .build();
    let (paths, _) = write_dataset_to_dfs(e.dfs(), "/gwas", &ds).unwrap();
    let ctx =
        SparkScoreContext::from_dfs(Arc::clone(&e), &paths, AnalysisOptions::default()).unwrap();
    let observed = ctx.observed();
    let mc = ctx.monte_carlo(8, 17, true);
    let perm = ctx.permutation(4, 17);

    let mut digest = 0xcbf2_9ce4_8422_2325;
    for s in observed
        .scores
        .iter()
        .chain(&mc.observed)
        .chain(&perm.observed)
    {
        digest = fold_bits(fold_bits(digest, s.set), s.score.to_bits());
    }
    for &count in mc.counts_ge.iter().chain(&perm.counts_ge) {
        digest = fold_bits(digest, count as u64);
    }
    let virtual_bits =
        [observed.virtual_secs, mc.virtual_secs, perm.virtual_secs].map(f64::to_bits);
    let shape =
        |m: &sparkscore_rdd::MetricsSnapshot| (m.jobs, m.stages, m.tasks, m.shuffle_bytes_written);
    let shapes = [
        shape(&observed.metrics),
        shape(&mc.metrics),
        shape(&perm.metrics),
    ];
    assert_eq!(
        (digest, virtual_bits, shapes),
        (
            9_496_372_087_482_731_115,
            [
                4_588_819_578_156_460_056,
                4_601_968_695_852_815_579,
                4_599_083_343_118_321_934
            ],
            [
                (1, 4, 28, 14_128),
                (9, 36, 252, 127_152),
                (5, 20, 140, 70_640)
            ]
        )
    );
}

#[test]
fn from_dfs_and_from_memory_agree_bit_for_bit_on_one_partition() {
    // Per-set sums are folded in partition order, so the two loaders can
    // only be compared exactly where they partition alike: every file in
    // one block against one in-memory partition. (Several blocks against
    // the operator chain are pinned above; several blocks against memory,
    // to a tolerance, in `dfs_and_memory_paths_agree`.) The text format
    // rounds survival times, so memory gets the times the file holds.
    let mut ds = dataset(47);
    ds.phenotypes = parse_phenotypes_text(&phenotypes_to_text(&ds.phenotypes));
    ds.weights = sparkscore_data::io::weights_to_text(&ds.weights)
        .lines()
        .map(|l| parse_weight_line(l).1)
        .collect();
    let e = Engine::builder(ClusterSpec::test_small(3))
        .host_threads(4)
        .build();
    let (paths, metas) = write_dataset_to_dfs(e.dfs(), "/gwas", &ds).unwrap();
    assert!(metas.iter().all(|m| m.num_blocks() == 1));
    let dfs = SparkScoreContext::from_dfs(e, &paths, AnalysisOptions::default()).unwrap();
    let mem = SparkScoreContext::from_memory(engine(3), &ds, 1, AnalysisOptions::default());

    assert_eq!(dfs.observed().scores, mem.observed().scores);
    assert_same_run(&dfs.permutation(8, 3), &mem.permutation(8, 3));
    assert_same_run(&dfs.monte_carlo(8, 3, true), &mem.monte_carlo(8, 3, true));
}
