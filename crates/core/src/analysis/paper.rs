//! The paper's algorithms: [`SparkScoreContext::observed`] (Algorithm 1,
//! the observed SKAT statistics as the RDD pipeline `textFile → parse →
//! filter(union of SNP-sets) → U → U² → join(weights) → ω²U² →
//! reduce_by_key(set)`), [`SparkScoreContext::permutation`] (Algorithm 2,
//! which re-runs that pipeline per phenotype shuffling) and
//! [`SparkScoreContext::monte_carlo`] (Algorithm 3, N(0,1) multipliers over
//! the *cached* `U`). Their job, stage and shuffle structure is what the
//! paper's experiments measure: a change that moves it moves
//! `results/quick/` in the same commit.

use std::collections::HashMap;

use rand::SeedableRng;
use sparkscore_stats::resample::{mc_weights, random_permutation};

use super::*;
use crate::result::{ObservedResult, ResamplingRun, SetScore, SnpResult};

impl SparkScoreContext {
    /// Algorithm 1 steps 9–12 on per-SNP inner sums (from `score_sums`,
    /// or from `inner_sums` over a cached `U`, optionally with Monte Carlo
    /// multipliers): weights join, ω²U², per-set aggregation.
    fn set_scores(&self, inner: &Dataset<(u64, f64)>) -> Vec<SetScore> {
        let sums = self.set_sums(inner);
        self.sets
            .iter()
            .map(|s| SetScore {
                set: s.id,
                score: self.finish(sums.get(&s.id).copied().unwrap_or(0.0)),
            })
            .collect()
    }

    /// Raw per-set sums (`Σ ω²U²` under SKAT, `Σ ωU` under burden) of
    /// every set from its members' inner sums: Algorithm 1's weights and
    /// per-set reduce.
    pub(super) fn set_sums(&self, inner: &Dataset<(u64, f64)>) -> HashMap<u64, f64> {
        let lookup = self.snp_to_set.clone();
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

    /// Variant-by-variant analysis (the paper's other GWAS mode): marginal
    /// score, empirical variance, and χ²₁ asymptotic p-value per SNP,
    /// sorted by SNP id.
    pub fn per_snp_asymptotic(&self) -> Vec<SnpResult> {
        let mut rows: Vec<SnpResult> = self
            .u_dataset()
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
        let (scores, wall, virtual_secs, metrics) =
            self.measured(|| self.set_scores(&self.score_sums(self.model.clone())));
        ObservedResult {
            scores,
            wall,
            virtual_secs,
            metrics,
        }
    }

    /// **Algorithm 3**: Monte Carlo resampling with `num_replicates`
    /// N(0,1)-multiplier replicates. `use_cache` controls whether the `U`
    /// RDD is cached between iterations (the paper's Experiment B toggles
    /// exactly this).
    pub fn monte_carlo(&self, num_replicates: usize, seed: u64, use_cache: bool) -> ResamplingRun {
        let ((observed, counts_ge), wall, virtual_secs, metrics) = self.measured(|| {
            let u = self.u_dataset();
            if use_cache {
                u.cache(); // Algorithm 3 step 2: "Cache RDD U".
            }
            let n = self.num_patients();
            let observed = self.set_scores(&inner_sums(&u, n, None));
            let mut counts = vec![0usize; observed.len()];
            for r in 0..num_replicates {
                let z = self.engine.broadcast(mc_weights(seed, r, n));
                let replicate = self.set_scores(&inner_sums(&u, n, Some(z)));
                for (count, (rep, obs)) in counts.iter_mut().zip(replicate.iter().zip(&observed)) {
                    if rep.score >= obs.score {
                        *count += 1;
                    }
                }
            }
            if use_cache {
                u.unpersist();
            }
            (observed, counts)
        });
        ResamplingRun {
            observed,
            counts_ge,
            num_replicates,
            wall,
            virtual_secs,
            metrics,
        }
    }

    /// **Algorithm 2**: permutation resampling with `num_replicates`
    /// phenotype shufflings, each re-running the full score pipeline.
    pub fn permutation(&self, num_replicates: usize, seed: u64) -> ResamplingRun {
        let ((observed, counts_ge), wall, virtual_secs, metrics) = self.measured(|| {
            let observed = self.set_scores(&self.score_sums(self.model.clone()));
            let n = self.num_patients();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let mut counts = vec![0usize; observed.len()];
            for _ in 0..num_replicates {
                let perm = random_permutation(&mut rng, n);
                // "Recalculate step 6 to 12 of Algorithm 1" — a fresh
                // lineage that re-reads and re-scores the genotype matrix.
                let replicate = self.set_scores(&self.score_sums(self.model.permuted(&perm)));
                for (count, (rep, obs)) in counts.iter_mut().zip(replicate.iter().zip(&observed)) {
                    if rep.score >= obs.score {
                        *count += 1;
                    }
                }
            }
            (observed, counts)
        });
        ResamplingRun {
            observed,
            counts_ge,
            num_replicates,
            wall,
            virtual_secs,
            metrics,
        }
    }

    /// Lineage of the `U` RDD pipeline (diagnostics).
    pub fn pipeline_lineage(&self) -> String {
        self.u_dataset().lineage()
    }
}
