//! Ground-truth calibration: on a cohort tiny enough to enumerate all
//! phenotype assignments, the distributed sampled-permutation pipeline
//! must converge to the exact permutation distribution — the "exact
//! sampling distribution" the paper's abstract says resampling
//! approximates.

use std::sync::Arc;

use integration_tests::exact::exact_permutation_pvalues;
use sparkscore_cluster::ClusterSpec;
use sparkscore_core::{AnalysisOptions, Phenotype, SparkScoreContext};
use sparkscore_rdd::Engine;
use sparkscore_stats::score::GaussianScore;
use sparkscore_stats::skat::SnpSet;

#[test]
fn distributed_permutation_converges_to_exact_enumeration() {
    // n = 7 patients → 5040 assignments, exactly enumerable.
    let y = vec![1.2, -0.4, 2.2, 0.3, 3.1, -1.0, 0.8];
    let rows = vec![
        vec![0u8, 1, 2, 0, 2, 0, 1],
        vec![1u8, 1, 0, 2, 0, 1, 0],
        vec![2u8, 0, 1, 1, 1, 2, 0],
    ];
    let weights = vec![1.0, 0.5, 1.5];
    let sets = vec![SnpSet::new(0, vec![0, 1]), SnpSet::new(1, vec![2])];

    let model = GaussianScore::new(&y);
    let exact = exact_permutation_pvalues(&model, |p| model.permuted(p), &rows, &weights, &sets);

    let engine = Engine::builder(ClusterSpec::test_small(2))
        .host_threads(2)
        .build();
    let gm = engine.parallelize(
        rows.iter()
            .enumerate()
            .map(|(j, r)| (j as u64, r.clone()))
            .collect::<Vec<_>>(),
        2,
    );
    let weights_rdd = engine.parallelize(
        weights
            .iter()
            .enumerate()
            .map(|(j, &w)| (j as u64, w))
            .collect::<Vec<_>>(),
        1,
    );
    let ctx = SparkScoreContext::from_parts(
        Arc::clone(&engine),
        Phenotype::Quantitative(y.clone()),
        gm,
        weights_rdd,
        &sets,
        AnalysisOptions::default(),
    );
    let sampled = ctx.permutation(3000, 17).pvalues();

    for (k, (s, e)) in sampled.iter().zip(&exact).enumerate() {
        assert!((s - e).abs() < 0.03, "set {k}: sampled {s} vs exact {e}");
    }
}
