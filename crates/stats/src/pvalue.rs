//! Empirical p-values from resampling replicates.
//!
//! "The smaller the proportion of resampling statistics found to be greater
//! than the observed statistic, the stronger the evidence" — the p-value of
//! set `k` is the fraction of replicates with `S̃_k ≥ S_k`. We use the
//! add-one (Davison–Hinkley) estimator `(#{S̃ ≥ S} + 1)/(B + 1)`, which is
//! never exactly zero and is valid as a p-value. The Westfall–Young
//! max-statistic procedure (the paper's reference [40]) gives family-wise
//! error control across the K sets from the same replicates.

/// Add-one empirical p-value from the count of replicates at least as
/// extreme as the observed statistic.
pub fn empirical_pvalue(count_ge: usize, num_replicates: usize) -> f64 {
    assert!(
        count_ge <= num_replicates,
        "count ({count_ge}) cannot exceed replicates ({num_replicates})"
    );
    (count_ge + 1) as f64 / (num_replicates + 1) as f64
}

/// Per-set p-values from full replicate matrices: `replicates[b][k]` is
/// set `k`'s statistic in replicate `b`.
pub fn empirical_pvalues(observed: &[f64], replicates: &[Vec<f64>]) -> Vec<f64> {
    let b = replicates.len();
    observed
        .iter()
        .enumerate()
        .map(|(k, &s)| {
            let count = replicates
                .iter()
                .filter(|rep| {
                    assert_eq!(rep.len(), observed.len(), "replicate width mismatch");
                    rep[k] >= s
                })
                .count();
            empirical_pvalue(count, b)
        })
        .collect()
}

/// Westfall–Young single-step max-T adjusted p-values:
/// `p̃_k = (#{b : max_j S̃_bj ≥ S_k} + 1)/(B + 1)`.
///
/// Controls the family-wise error rate under the complete null, using the
/// same replicates as the marginal p-values.
pub fn westfall_young_adjusted(observed: &[f64], replicates: &[Vec<f64>]) -> Vec<f64> {
    let maxima: Vec<f64> = replicates
        .iter()
        .map(|rep| {
            assert_eq!(rep.len(), observed.len(), "replicate width mismatch");
            rep.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        })
        .collect();
    let b = maxima.len();
    observed
        .iter()
        .map(|&s| {
            let count = maxima.iter().filter(|&&m| m >= s).count();
            empirical_pvalue(count, b)
        })
        .collect()
}

/// Sequential stopping rule for adaptive multiplier resampling.
///
/// After each round of replicates the rule looks at a set's running
/// exceedance count and decides whether more replicates can still change
/// the answer. A set stops as soon as either
///
/// * the normal-approximation confidence interval around the add-one
///   p-value `p̂` **excludes the significance threshold** `alpha`
///   (curtailed sampling: the significant/not-significant call is already
///   settled at this confidence), or
/// * the interval's half-width has shrunk to the requested precision
///   `half_width` (fixed-width CI: `p̂` itself is pinned down).
///
/// `min_replicates` floors every decision so the asymptotic interval is
/// not trusted on a handful of draws. The guarantee reported alongside an
/// adaptive p-value is [`StoppingRule::ci_half_width`] at stop time: with
/// confidence `~Φ(z)` the true resampling p-value lies within that band.
/// The fixed-B path remains the statistical oracle; tests bound the
/// adaptive-vs-oracle disagreement by the two runs' combined widths.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoppingRule {
    /// Replicates a set must accumulate before any stop decision.
    pub min_replicates: usize,
    /// Significance threshold the CI must clear for a curtailed stop.
    pub alpha: f64,
    /// Target CI half-width for a precision stop.
    pub half_width: f64,
    /// Normal quantile scaling the interval (2.0 ≈ 95% coverage).
    pub z: f64,
}

impl StoppingRule {
    /// Rule with the conventional defaults: curtail against `alpha`,
    /// or stop once `p̂` is known to `half_width`, at z = 2 (~95%).
    pub fn new(min_replicates: usize, alpha: f64, half_width: f64) -> Self {
        assert!(min_replicates >= 1, "min_replicates must be >= 1");
        assert!(alpha > 0.0 && alpha < 1.0, "alpha must lie in (0, 1)");
        assert!(half_width > 0.0, "half_width must be positive");
        Self {
            min_replicates,
            alpha,
            half_width,
            z: 2.0,
        }
    }

    /// Half-width of the normal-approximation CI around the add-one
    /// p-value after `num_replicates` replicates with `count_ge`
    /// exceedances: `z · sqrt(p̂(1−p̂)/t)`.
    pub(crate) fn ci_half_width(&self, count_ge: usize, num_replicates: usize) -> f64 {
        let p = empirical_pvalue(count_ge, num_replicates);
        self.z * (p * (1.0 - p) / num_replicates as f64).sqrt()
    }

    /// Whether a set with this running count may stop sampling.
    pub fn decided(&self, count_ge: usize, num_replicates: usize) -> bool {
        if num_replicates < self.min_replicates {
            return false;
        }
        let p = empirical_pvalue(count_ge, num_replicates);
        let w = self.ci_half_width(count_ge, num_replicates);
        (p - w > self.alpha) || (p + w < self.alpha) || w <= self.half_width
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn add_one_estimator() {
        assert_eq!(empirical_pvalue(0, 99), 0.01);
        assert_eq!(empirical_pvalue(99, 99), 1.0);
        assert_eq!(empirical_pvalue(4, 9), 0.5);
    }

    #[test]
    #[should_panic(expected = "cannot exceed")]
    fn count_bounds_checked() {
        let _ = empirical_pvalue(5, 4);
    }

    #[test]
    fn pvalues_from_replicates() {
        let observed = vec![10.0, 0.0];
        let reps = vec![vec![1.0, 1.0], vec![2.0, 2.0], vec![11.0, 0.0]];
        let p = empirical_pvalues(&observed, &reps);
        // Set 0: one replicate >= 10 → (1+1)/4. Set 1: all >= 0 → 4/4.
        assert_eq!(p, vec![0.5, 1.0]);
    }

    #[test]
    fn westfall_young_dominates_marginal() {
        let observed = vec![5.0, 2.0, 8.0];
        let reps: Vec<Vec<f64>> = (0..50)
            .map(|b| vec![(b % 7) as f64, (b % 5) as f64, (b % 9) as f64])
            .collect();
        let marginal = empirical_pvalues(&observed, &reps);
        let adjusted = westfall_young_adjusted(&observed, &reps);
        for (m, a) in marginal.iter().zip(&adjusted) {
            assert!(a >= m, "adjusted {a} must be >= marginal {m}");
        }
    }

    #[test]
    fn stopping_rule_respects_min_replicates() {
        let rule = StoppingRule::new(50, 0.05, 0.01);
        // A wildly non-significant count, but below the floor: no stop.
        assert!(!rule.decided(20, 40));
        // Same proportion past the floor: CI [p̂ ± w] sits far above alpha.
        assert!(rule.decided(30, 60));
    }

    #[test]
    fn stopping_rule_curtails_extremes_but_not_the_boundary() {
        let rule = StoppingRule::new(50, 0.05, 0.01);
        // Clearly significant: zero exceedances in 100 → p̂ ≈ 0.0099,
        // CI upper end < alpha.
        assert!(rule.decided(0, 100));
        // Clearly null: all exceedances → p̂ = 1, zero-width CI.
        assert!(rule.decided(100, 100));
        // Right at alpha: p̂ ≈ 0.05 with t=100 → CI straddles alpha and
        // the half-width (~0.044) is far from the 0.01 target.
        assert!(!rule.decided(4, 100));
    }

    #[test]
    fn stopping_rule_precision_stop() {
        // alpha sits on top of p̂ = 0.5 so curtailment can never fire and
        // only the precision criterion decides.
        let rule = StoppingRule::new(50, 0.5, 0.02);
        // p̂ = 0.5 has maximal variance: needs t >= z²·p(1−p)/w² = 2500.
        assert!(!rule.decided(1000, 2000));
        assert!(rule.decided(1250, 2500));
    }

    proptest! {
        /// p-values lie in (0, 1] and are antitone in the observed value.
        #[test]
        fn prop_pvalue_bounds_and_monotonicity(
            reps in proptest::collection::vec(
                proptest::collection::vec(0.0f64..10.0, 3..=3), 1..40),
            s in 0.0f64..10.0,
        ) {
            let p_lo = empirical_pvalues(&[s, s, s], &reps);
            let p_hi = empirical_pvalues(&[s + 1.0, s + 1.0, s + 1.0], &reps);
            for (lo, hi) in p_lo.iter().zip(&p_hi) {
                prop_assert!(*lo > 0.0 && *lo <= 1.0);
                prop_assert!(hi <= lo, "larger statistic can't raise the p-value");
            }
        }

        /// Adjusted p-values are monotone in the observed statistic too.
        #[test]
        fn prop_wy_bounds(
            reps in proptest::collection::vec(
                proptest::collection::vec(-5.0f64..5.0, 2..=2), 1..30),
            observed in proptest::collection::vec(-5.0f64..5.0, 2..=2),
        ) {
            let adj = westfall_young_adjusted(&observed, &reps);
            for a in adj {
                prop_assert!(a > 0.0 && a <= 1.0);
            }
        }
    }
}
