//! An eQTL-style analysis: the paper's abstract notes that SparkScore
//! "can be readily extended to analysis of DNA and RNA sequencing data,
//! including expression quantitative trait loci (eQTL)". Here the
//! phenotype is a quantitative expression level, the score model is the
//! Gaussian efficient score, and the significance of each candidate gene
//! window is assessed by Monte Carlo resampling and cross-checked against
//! the Liu moment-matching asymptotic approximation.
//!
//! Run with: `cargo run --release --example eqtl_quantitative`
//!
//! Set `SPARKSCORE_EVENTS_DIR=<dir>` to also write a JSONL event log
//! (`<dir>/eqtl_quantitative.jsonl`). The Gaussian score model is affine
//! in dosage, so every kernel row is served by the packed-direct bit
//! kernels — in `trace report`'s `== kernels ==` section
//! `packed_kernel_rows` equals `kernel_rows`.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sparkscore_cluster::ClusterSpec;
use sparkscore_core::{AnalysisOptions, Phenotype, SparkScoreContext};
use sparkscore_rdd::{Engine, EventListener, EventLogListener};
use sparkscore_stats::asymptotic::skat_liu_pvalue;
use sparkscore_stats::dist::sample_standard_normal;
use sparkscore_stats::qc::QcThresholds;
use sparkscore_stats::score::{score_and_variance, GaussianScore, ScoreModel};
use sparkscore_stats::skat::SnpSet;

fn main() {
    let mut rng = StdRng::seed_from_u64(7777);
    let patients = 300;
    let snps = 200;

    // Genotypes: independent SNPs, MAF uniform in (0.1, 0.4).
    let rows: Vec<Vec<u8>> = (0..snps)
        .map(|_| {
            let maf = rng.gen_range(0.1..0.4);
            (0..patients)
                .map(|_| sparkscore_stats::dist::sample_genotype(&mut rng, maf))
                .collect()
        })
        .collect();

    // Expression level driven by SNP 30 (a cis-eQTL) plus noise.
    let expression: Vec<f64> = (0..patients)
        .map(|i| 1.5 * f64::from(rows[30][i]) + sample_standard_normal(&mut rng))
        .collect();

    // Candidate gene windows of 10 consecutive SNPs.
    let sets: Vec<SnpSet> = (0..snps / 10)
        .map(|k| SnpSet::new(k as u64, (10 * k..10 * (k + 1)).collect()))
        .collect();
    let causal_set = 3u64; // SNP 30 lives in window 3.

    let mut builder = Engine::builder(ClusterSpec::m3_2xlarge(4));
    let mut log = None;
    if let Some(dir) = std::env::var_os("SPARKSCORE_EVENTS_DIR") {
        let path = std::path::PathBuf::from(dir).join("eqtl_quantitative.jsonl");
        let listener = Arc::new(EventLogListener::to_file(&path).expect("events dir writable"));
        builder = builder.listener(Arc::clone(&listener) as Arc<dyn EventListener>);
        log = Some((listener, path));
    }
    let engine = builder.build();
    let gm = engine.parallelize(
        rows.iter()
            .enumerate()
            .map(|(j, r)| (j as u64, r.clone()))
            .collect::<Vec<_>>(),
        8,
    );
    let weights_rdd = engine.parallelize((0..snps as u64).map(|j| (j, 1.0)).collect::<Vec<_>>(), 2);
    let ctx = SparkScoreContext::from_parts(
        Arc::clone(&engine),
        Phenotype::Quantitative(expression.clone()),
        gm,
        weights_rdd,
        &sets,
        AnalysisOptions::default(),
    );

    // QC straight off the packed columns: counts, MAF, and HWE via
    // popcount kernels, no byte dosages materialized.
    let qc = ctx.qc(QcThresholds::default());
    let passing = qc.iter().filter(|q| q.verdict.is_ok()).count();
    println!("QC (packed-direct): {passing}/{} SNPs pass\n", qc.len());

    let run = ctx.monte_carlo(499, 5, true);
    let mc_p = run.pvalues();

    // Asymptotic cross-check: SKAT's null is Σ λ_j χ²₁ with λ_j = ω²V_j.
    let model = GaussianScore::new(&expression);
    println!("gene-window results (B = {}):", run.num_replicates);
    println!("window   SKAT        p(MC)    p(Liu asymptotic)");
    for (k, set) in sets.iter().enumerate() {
        let lambdas: Vec<f64> = set
            .members
            .iter()
            .map(|&j| score_and_variance(&model.contributions(&rows[j])).1)
            .collect();
        let liu = skat_liu_pvalue(run.observed[k].score, &lambdas);
        let marker = if set.id == causal_set {
            "  <-- cis-eQTL"
        } else {
            ""
        };
        if mc_p[k] < 0.2 || set.id == causal_set {
            println!(
                "{:>6}   {:>9.2}   {:.3}    {:.4}{marker}",
                set.id, run.observed[k].score, mc_p[k], liu
            );
        }
    }

    let k = causal_set as usize;
    assert!(
        mc_p[k] <= 0.05,
        "the planted eQTL window should be significant (p = {})",
        mc_p[k]
    );
    println!(
        "\ndetected: window {causal_set} p(MC) = {:.3}, p(Liu) = {:.2e}",
        mc_p[k],
        skat_liu_pvalue(
            run.observed[k].score,
            &sets[k]
                .members
                .iter()
                .map(|&j| score_and_variance(&model.contributions(&rows[j])).1)
                .collect::<Vec<_>>()
        )
    );
    println!("virtual cluster time: {:.1}s", run.virtual_secs);
    if let Some((listener, path)) = log {
        listener.flush().expect("flush event log");
        println!("event log: {}", path.display());
    }
}
