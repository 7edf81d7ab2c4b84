//! Probability distributions: CDFs for inference, samplers for synthesis.
//!
//! The paper's synthetic data generator (§III) draws survival times from an
//! exponential, event indicators from a Bernoulli, and genotypes from a
//! Binomial(2, ρ); Lin's Monte Carlo method draws N(0,1) multipliers. All
//! samplers here are built from `rand`'s uniform source, so any seeded RNG
//! gives reproducible data.

use rand::Rng;

use crate::special::{erf, erfc, gamma_q};

// ---------- CDFs / survival functions ----------

/// Standard normal CDF `Φ(x)`.
pub fn normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

/// Standard normal survival function `1 − Φ(x)`, accurate in the tail.
pub fn normal_sf(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Chi-square survival function (upper tail), the p-value of a score test.
pub fn chi2_sf(x: f64, k: f64) -> f64 {
    assert!(k > 0.0, "degrees of freedom must be positive");
    if x <= 0.0 {
        return 1.0;
    }
    gamma_q(k / 2.0, x / 2.0)
}

// ---------- samplers ----------

/// One draw from N(0, 1) via Box–Muller (both uniforms fresh per call; the
/// spare variate is discarded for statelessness).
pub fn sample_standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Guard u1 away from 0 so ln(u1) is finite.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// One draw from Exponential(rate) by inversion; mean is `1/rate`.
pub fn sample_exponential<R: Rng + ?Sized>(rng: &mut R, rate: f64) -> f64 {
    assert!(rate > 0.0, "rate must be positive");
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    -u.ln() / rate
}

/// One Bernoulli(p) draw.
pub fn sample_bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    assert!((0.0..=1.0).contains(&p), "p must be in [0, 1], got {p}");
    rng.gen::<f64>() < p
}

/// One Binomial(n, p) draw by summing Bernoullis (exact; n is small here —
/// genotypes use n = 2).
fn sample_binomial<R: Rng + ?Sized>(rng: &mut R, n: u32, p: f64) -> u32 {
    (0..n).map(|_| u32::from(sample_bernoulli(rng, p))).sum()
}

/// A genotype draw: Binomial(2, rho) minor-allele dosage in {0, 1, 2}.
pub fn sample_genotype<R: Rng + ?Sized>(rng: &mut R, rho: f64) -> u8 {
    sample_binomial(rng, 2, rho) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    fn close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} vs {b} (tol {tol})");
    }

    #[test]
    fn normal_cdf_known_values() {
        close(normal_cdf(0.0), 0.5, 1e-15);
        close(normal_cdf(1.959_963_984_540_054), 0.975, 1e-10);
        close(normal_cdf(-1.959_963_984_540_054), 0.025, 1e-10);
        close(normal_sf(1.644_853_626_951_472_7), 0.05, 1e-10);
    }

    #[test]
    fn normal_cdf_sf_complementary() {
        for &x in &[-4.0, -1.0, 0.0, 0.5, 3.0, 6.0] {
            close(normal_cdf(x) + normal_sf(x), 1.0, 1e-12);
        }
    }

    #[test]
    fn chi2_known_quantiles() {
        // 95th percentile of chi2_1 is 3.841458820694124.
        close(chi2_sf(3.841_458_820_694_124, 1.0), 0.05, 1e-10);
        // 95th percentile of chi2_10 is 18.307038053275146.
        close(chi2_sf(18.307_038_053_275_146, 10.0), 0.05, 1e-10);
        close(chi2_sf(-1.0, 3.0), 1.0, 1e-15);
    }

    #[test]
    fn normal_sample_moments() {
        let mut r = rng(42);
        let n = 200_000;
        let draws: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut r)).collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        close(mean, 0.0, 0.01);
        close(var, 1.0, 0.02);
        // Symmetry: P(X < 0) ≈ 1/2.
        let below = draws.iter().filter(|&&x| x < 0.0).count() as f64 / n as f64;
        close(below, 0.5, 0.01);
    }

    #[test]
    fn exponential_sample_mean_matches_paper_survival_param() {
        // Paper: survival ~ Exponential(1/12), mean 12 months.
        let mut r = rng(7);
        let n = 100_000;
        let mean = (0..n)
            .map(|_| sample_exponential(&mut r, 1.0 / 12.0))
            .sum::<f64>()
            / n as f64;
        close(mean, 12.0, 0.2);
    }

    #[test]
    fn bernoulli_frequency_matches_p() {
        let mut r = rng(3);
        let n = 100_000;
        let hits = (0..n).filter(|_| sample_bernoulli(&mut r, 0.85)).count();
        close(hits as f64 / n as f64, 0.85, 0.01);
    }

    #[test]
    fn genotype_distribution_is_hardy_weinberg() {
        let mut r = rng(11);
        let rho = 0.3;
        let n = 100_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            counts[sample_genotype(&mut r, rho) as usize] += 1;
        }
        let f = |c: usize| c as f64 / n as f64;
        close(f(counts[0]), 0.49, 0.01); // (1-ρ)²
        close(f(counts[1]), 0.42, 0.01); // 2ρ(1-ρ)
        close(f(counts[2]), 0.09, 0.01); // ρ²
    }

    #[test]
    fn samplers_are_deterministic_with_seed() {
        let a: Vec<f64> = {
            let mut r = rng(99);
            (0..10).map(|_| sample_standard_normal(&mut r)).collect()
        };
        let b: Vec<f64> = {
            let mut r = rng(99);
            (0..10).map(|_| sample_standard_normal(&mut r)).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exponential_rejects_bad_rate() {
        let mut r = rng(0);
        let _ = sample_exponential(&mut r, 0.0);
    }

    #[test]
    #[should_panic(expected = "p must be in")]
    fn bernoulli_rejects_bad_p() {
        let mut r = rng(0);
        let _ = sample_bernoulli(&mut r, 1.5);
    }
}
