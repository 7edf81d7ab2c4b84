//! Analysis result types.

use std::time::Duration;

use sparkscore_rdd::{EstimateSize, MetricsSnapshot};
use sparkscore_stats::pvalue::empirical_pvalue;
use sparkscore_stats::qc::{GenotypeCounts, QcFailure};

/// One SNP-set's observed statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetScore {
    pub set: u64,
    pub score: f64,
}

/// One SNP's marginal (variant-by-variant) result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnpResult {
    pub snp: u64,
    /// Marginal score `U_j`.
    pub score: f64,
    /// Empirical variance `Σ_i U_ij²`.
    pub variance: f64,
    /// Asymptotic χ²₁ p-value of `U_j²/V_j`.
    pub pvalue: f64,
}

/// One SNP's quality-control verdict, computed directly on the packed
/// genotype column.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SnpQc {
    pub snp: u64,
    /// Genotype counts on pass; the first reason the SNP fails otherwise.
    pub verdict: Result<GenotypeCounts, QcFailure>,
}

impl EstimateSize for SnpQc {
    fn estimate_bytes(&self) -> usize {
        std::mem::size_of::<SnpQc>()
    }
}

/// Result of an observed-statistics pass (Algorithm 1).
#[derive(Debug, Clone)]
pub struct ObservedResult {
    /// Per-set SKAT statistics `S_k⁰`, sorted by set id.
    pub scores: Vec<SetScore>,
    /// Real elapsed time of the pass.
    pub wall: Duration,
    /// Virtual cluster seconds consumed by the pass.
    pub virtual_secs: f64,
    /// Engine metric deltas for the pass.
    pub metrics: MetricsSnapshot,
}

/// Result of a resampling run (Algorithm 2 or 3).
#[derive(Debug, Clone)]
pub struct ResamplingRun {
    /// Observed statistics `S_k⁰`, sorted by set id.
    pub observed: Vec<SetScore>,
    /// `counter_k`: replicates with `S̃_k ≥ S_k⁰`, aligned with `observed`.
    pub counts_ge: Vec<usize>,
    /// Number of replicates `B`.
    pub num_replicates: usize,
    /// Real elapsed time, including the observed pass.
    pub wall: Duration,
    /// Virtual cluster seconds, including the observed pass.
    pub virtual_secs: f64,
    /// Engine metric deltas across the whole run.
    pub metrics: MetricsSnapshot,
}

/// Result of a distributed-GEMM resampling run (Algorithm 3 over the
/// replicate-tile × partition grid, or for one set on the driver),
/// optionally with adaptive early stopping.
#[derive(Debug, Clone)]
pub struct McGridRun {
    /// Observed statistics `S_k⁰`, sorted by set id.
    pub observed: Vec<SetScore>,
    /// `counter_k`: replicates with `S̃_k ≥ S_k⁰`, aligned with `observed`.
    pub counts_ge: Vec<usize>,
    /// Replicates actually compared per set (equals `max_replicates`
    /// everywhere on the fixed-B path), aligned with `observed`.
    pub replicates_used: Vec<usize>,
    /// Replicate budget `B`.
    pub max_replicates: usize,
    /// Row-replicate units (one SNP row × one replicate) computed, by grid
    /// tasks or by a one-set run's driver cell.
    pub replicates_run: u64,
    /// Row-replicate units the stopping rule avoided, measured against the
    /// `scope_rows × B` potential (covers both in-tile skips and tiles
    /// never launched).
    pub replicates_saved: u64,
    /// Replicate tiles executed.
    pub tiles: usize,
    /// Real elapsed time, including the observed pass.
    pub wall: Duration,
    /// Virtual cluster seconds, including the observed pass.
    pub virtual_secs: f64,
    /// Engine metric deltas across the whole run.
    pub metrics: MetricsSnapshot,
}

impl McGridRun {
    /// Add-one empirical p-values aligned with `observed`, each over the
    /// replicates its set actually saw.
    pub fn pvalues(&self) -> Vec<f64> {
        self.counts_ge
            .iter()
            .zip(&self.replicates_used)
            .map(|(&c, &b)| empirical_pvalue(c, b))
            .collect()
    }
}

impl ResamplingRun {
    /// Add-one empirical p-values aligned with `observed`.
    pub fn pvalues(&self) -> Vec<f64> {
        self.counts_ge
            .iter()
            .map(|&c| empirical_pvalue(c, self.num_replicates))
            .collect()
    }

    /// The sets ranked most-significant first: (set id, p-value).
    pub fn top_sets(&self, n: usize) -> Vec<(u64, f64)> {
        let mut ranked: Vec<(u64, f64)> = self
            .observed
            .iter()
            .zip(self.pvalues())
            .map(|(s, p)| (s.set, p))
            .collect();
        ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("p-values are not NaN"));
        ranked.truncate(n);
        ranked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run() -> ResamplingRun {
        ResamplingRun {
            observed: vec![
                SetScore { set: 0, score: 5.0 },
                SetScore { set: 1, score: 1.0 },
                SetScore { set: 2, score: 9.0 },
            ],
            counts_ge: vec![49, 99, 0],
            num_replicates: 99,
            wall: Duration::from_secs(1),
            virtual_secs: 2.0,
            metrics: MetricsSnapshot::default(),
        }
    }

    #[test]
    fn pvalues_use_add_one_rule() {
        assert_eq!(run().pvalues(), vec![0.5, 1.0, 0.01]);
    }

    #[test]
    fn top_sets_ranks_by_pvalue() {
        let top = run().top_sets(2);
        assert_eq!(top[0], (2, 0.01));
        assert_eq!(top[1], (0, 0.5));
    }

    #[test]
    fn top_sets_truncates() {
        assert_eq!(run().top_sets(100).len(), 3);
        assert_eq!(run().top_sets(1).len(), 1);
    }
}
