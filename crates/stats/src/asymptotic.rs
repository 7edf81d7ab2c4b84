//! Asymptotic (large-sample) inference.
//!
//! The paper contrasts resampling with asymptotic approximations: the
//! single-SNP score test `U²/V ~ χ²₁`, and the SKAT statistic's null
//! distribution, a positively-weighted mixture of χ²₁ variables. With the
//! independent-SNP design of the synthetic data the mixture weights are
//! simply `λ_j = ω_j² V_j` (no eigendecomposition needed); we approximate
//! its tail with the Liu–Tang–Zhang moment-matching method used by the
//! SKAT reference implementation, including the noncentral chi-square
//! refinement.

use crate::dist::chi2_sf;
use crate::special::gamma_p;

/// Two-sided score-test p-value for one SNP: `U²/V` against χ²₁.
/// Returns 1.0 for degenerate SNPs (`V = 0`, e.g. monomorphic genotypes).
pub fn score_test_pvalue(score: f64, variance: f64) -> f64 {
    assert!(variance >= 0.0, "variance must be non-negative");
    if variance == 0.0 {
        return 1.0;
    }
    chi2_sf(score * score / variance, 1.0)
}

/// Survival function of the noncentral chi-square distribution with `k`
/// degrees of freedom and noncentrality `delta`, via the Poisson-mixture
/// series `P(X > x) = Σ_j pois(j; δ/2) · Q_{k+2j}(x)`.
fn chi2_noncentral_sf(x: f64, k: f64, delta: f64) -> f64 {
    assert!(k > 0.0, "degrees of freedom must be positive");
    assert!(delta >= 0.0, "noncentrality must be non-negative");
    if x <= 0.0 {
        return 1.0;
    }
    if delta == 0.0 {
        return chi2_sf(x, k);
    }
    let half_delta = delta / 2.0;
    let mut weight = (-half_delta).exp(); // Poisson(0)
    let mut cdf = 0.0f64;
    let mut total_weight = 0.0f64;
    for j in 0..1000 {
        cdf += weight * gamma_p((k + 2.0 * j as f64) / 2.0, x / 2.0);
        total_weight += weight;
        if 1.0 - total_weight < 1e-14 {
            break;
        }
        weight *= half_delta / (j as f64 + 1.0);
    }
    (1.0 - cdf).clamp(0.0, 1.0)
}

/// Liu–Tang–Zhang moment-matching p-value for `Q = Σ_j λ_j χ²₁`.
///
/// `lambdas` are the mixture weights (here `ω_j² V_j` per member SNP);
/// `q` is the observed SKAT statistic. Matches the first four cumulants of
/// `Q` to a (possibly noncentral) chi-square, following Liu et al. (2009)
/// as modified in the SKAT package.
pub fn skat_liu_pvalue(q: f64, lambdas: &[f64]) -> f64 {
    assert!(!lambdas.is_empty(), "need at least one mixture weight");
    assert!(
        lambdas.iter().all(|&l| l >= 0.0),
        "mixture weights must be non-negative"
    );
    let c1: f64 = lambdas.iter().sum();
    let c2: f64 = lambdas.iter().map(|l| l * l).sum();
    let c3: f64 = lambdas.iter().map(|l| l * l * l).sum();
    let c4: f64 = lambdas.iter().map(|l| l * l * l * l).sum();
    if c2 == 0.0 {
        // All weights zero: Q is degenerate at 0.
        return if q <= 0.0 { 1.0 } else { 0.0 };
    }
    let s1 = c3 / c2.powf(1.5);
    let s2 = c4 / (c2 * c2);
    let (df, delta, a) = if s1 * s1 > s2 {
        let a = 1.0 / (s1 - (s1 * s1 - s2).sqrt());
        let delta = s1 * a.powi(3) - a * a;
        let df = a * a - 2.0 * delta;
        (df, delta, a)
    } else {
        let df = 1.0 / s2;
        (df, 0.0, df.sqrt())
    };
    let mu_q = c1;
    let sigma_q = (2.0 * c2).sqrt();
    let mu_x = df + delta;
    let sigma_x = std::f64::consts::SQRT_2 * a;
    let q_std = (q - mu_q) / sigma_q * sigma_x + mu_x;
    chi2_noncentral_sf(q_std, df.max(1e-8), delta.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::sample_standard_normal;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn score_test_known_thresholds() {
        // U²/V = 3.8415 → p = 0.05.
        let p = score_test_pvalue(3.841_458_820_694_124f64.sqrt(), 1.0);
        close(p, 0.05, 1e-9);
        assert_eq!(score_test_pvalue(5.0, 0.0), 1.0);
        // Sign does not matter.
        close(
            score_test_pvalue(-2.0, 1.5),
            score_test_pvalue(2.0, 1.5),
            1e-15,
        );
    }

    #[test]
    fn noncentral_reduces_to_central() {
        for &x in &[0.5, 2.0, 7.0] {
            close(chi2_noncentral_sf(x, 3.0, 0.0), chi2_sf(x, 3.0), 1e-12);
        }
    }

    #[test]
    fn noncentral_known_value() {
        // P(χ²_2(δ=1) > 5): hand-evaluated Poisson-mixture series,
        // Σ_j pois(j; 1/2)·F_{2+2j}(5) = 0.810710 → SF = 0.189290.
        close(chi2_noncentral_sf(5.0, 2.0, 1.0), 0.189_290_0, 1e-5);
    }

    #[test]
    fn noncentral_shifts_mass_right() {
        let central = chi2_noncentral_sf(5.0, 2.0, 0.0);
        let shifted = chi2_noncentral_sf(5.0, 2.0, 3.0);
        assert!(shifted > central);
    }

    #[test]
    fn liu_single_lambda_is_scaled_chi2() {
        // Q = λ χ²₁: p(q) must equal chi2_sf(q/λ, 1).
        for &(lambda, q) in &[(1.0, 3.0), (2.5, 10.0), (0.3, 0.9)] {
            let p = skat_liu_pvalue(q, &[lambda]);
            close(p, chi2_sf(q / lambda, 1.0), 1e-6);
        }
    }

    #[test]
    fn liu_equal_lambdas_is_chi2_k() {
        // Q = Σ_{j=1}^{k} χ²₁ = χ²_k.
        for k in [2usize, 5, 10] {
            let lambdas = vec![1.0; k];
            for &q in &[1.0, 5.0, 12.0] {
                let p = skat_liu_pvalue(q, &lambdas);
                close(p, chi2_sf(q, k as f64), 1e-4);
            }
        }
    }

    #[test]
    fn liu_matches_monte_carlo_tail() {
        // Unequal weights: compare against a large simulation of the
        // mixture distribution.
        let lambdas = vec![3.0, 1.0, 0.5, 0.25];
        let mut rng = StdRng::seed_from_u64(42);
        let n = 400_000;
        let q_obs = 12.0;
        let exceed = (0..n)
            .filter(|_| {
                let q: f64 = lambdas
                    .iter()
                    .map(|l| {
                        let z = sample_standard_normal(&mut rng);
                        l * z * z
                    })
                    .sum();
                q >= q_obs
            })
            .count();
        let mc_p = exceed as f64 / n as f64;
        let liu_p = skat_liu_pvalue(q_obs, &lambdas);
        close(liu_p, mc_p, 0.01);
    }

    #[test]
    fn liu_pvalue_monotone_in_q() {
        let lambdas = vec![2.0, 1.0, 0.5];
        let mut last = 1.0f64;
        for i in 0..20 {
            let p = skat_liu_pvalue(i as f64, &lambdas);
            assert!(p <= last + 1e-12, "p must fall as q grows");
            assert!((0.0..=1.0).contains(&p));
            last = p;
        }
    }

    #[test]
    fn degenerate_lambdas() {
        assert_eq!(skat_liu_pvalue(0.0, &[0.0, 0.0]), 1.0);
        assert_eq!(skat_liu_pvalue(1.0, &[0.0]), 0.0);
    }
}
