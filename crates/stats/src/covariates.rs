//! Covariate-adjusted efficient scores.
//!
//! A key advantage the paper cites for the efficient score framework and
//! for Lin's Monte Carlo method is that they "enable the incorporation of
//! baseline covariates into the analysis". For a quantitative trait with
//! design matrix `X̃ = [1, X]`, the efficient score for SNP `j` profiles
//! the nuisance regression out of *both* sides:
//!
//! `U_ij = r_i · g̃_ij`, where `r = y − X̃β̂` (trait residual) and
//! `g̃_j = g_j − X̃(X̃ᵀX̃)⁻¹X̃ᵀ g_j` (genotype residual).
//!
//! Projecting the genotype as well as the trait is what removes
//! confounding: a SNP associated with the outcome only through a measured
//! covariate (population structure proxies, age, batch, …) scores near
//! zero. The precomputation (trait residuals, Cholesky factor of the Gram
//! matrix) happens once per analysis; each SNP costs O(n·p).

use crate::linalg::{residualize, Cholesky, LinalgError, Matrix};
use crate::score::ScoreModel;

/// Gaussian efficient score with baseline covariates profiled out.
#[derive(Debug, Clone)]
pub struct AdjustedGaussianScore {
    design: Matrix,
    chol: Cholesky,
    /// Trait residuals `y − X̃β̂`.
    residuals: Vec<f64>,
}

impl AdjustedGaussianScore {
    /// Fit the nuisance model `y ~ 1 + covariates`. Each covariate is one
    /// column of length `n`. Fails if the covariates are collinear.
    pub fn new(trait_values: &[f64], covariates: &[Vec<f64>]) -> Result<Self, LinalgError> {
        assert!(!trait_values.is_empty(), "need at least one patient");
        let n = trait_values.len();
        let design = Matrix::design(n, covariates);
        let chol = Cholesky::factor(&design.gram())?;
        let residuals = residualize(&design, &chol, trait_values);
        Ok(AdjustedGaussianScore {
            design,
            chol,
            residuals,
        })
    }

    /// Residualize a genotype vector against the design.
    fn genotype_residual(&self, g: &[u8]) -> Vec<f64> {
        let gf: Vec<f64> = g.iter().map(|&x| f64::from(x)).collect();
        residualize(&self.design, &self.chol, &gf)
    }
}

impl ScoreModel for AdjustedGaussianScore {
    fn num_patients(&self) -> usize {
        self.residuals.len()
    }

    fn contributions_into(&self, g: &[u8], out: &mut [f64]) {
        assert_eq!(
            g.len(),
            self.residuals.len(),
            "genotype vector length mismatch"
        );
        assert_eq!(
            out.len(),
            self.residuals.len(),
            "output vector length mismatch"
        );
        crate::score::debug_assert_dosages(g);
        // The projection solve allocates internally (O(n·p) temporaries);
        // only the three unadjusted models promise an allocation-free path.
        let g_res = self.genotype_residual(g);
        for ((o, r), gr) in out.iter_mut().zip(&self.residuals).zip(&g_res) {
            *o = r * gr;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::sample_standard_normal;
    use crate::score::{GaussianScore, ScoreModel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn no_covariates_matches_plain_gaussian_score() {
        let y = vec![1.0, 4.0, 2.0, 8.0, 5.0];
        let g = vec![0u8, 1, 2, 1, 0];
        let adjusted = AdjustedGaussianScore::new(&y, &[]).unwrap();
        let plain = GaussianScore::new(&y);
        let a = adjusted.contributions(&g);
        let b = plain.contributions(&g);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-9, "{x} vs {y}");
        }
    }

    #[test]
    fn score_orthogonal_to_covariates() {
        // Any genotype equal to a covariate scores (numerically) zero.
        let mut rng = StdRng::seed_from_u64(1);
        let n = 60;
        let covariate: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..2.0)).collect();
        let y: Vec<f64> = covariate
            .iter()
            .map(|c| c + sample_standard_normal(&mut rng))
            .collect();
        let g: Vec<u8> = covariate.iter().map(|&c| c.round() as u8).collect();
        // Use the rounded covariate itself as the adjustment column, so g
        // is exactly in the design span.
        let g_as_f: Vec<f64> = g.iter().map(|&x| f64::from(x)).collect();
        let model = AdjustedGaussianScore::new(&y, &[g_as_f]).unwrap();
        let u = model.score(&g);
        assert!(u.abs() < 1e-7, "in-span genotype must score zero, got {u}");
    }

    #[test]
    fn adjustment_removes_confounding() {
        // Classic confounder: y depends on c only; g correlates with c.
        // Unadjusted score is large; adjusted score collapses.
        let mut rng = StdRng::seed_from_u64(7);
        let n = 400;
        let confounder: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let y: Vec<f64> = confounder
            .iter()
            .map(|c| 3.0 * c + 0.5 * sample_standard_normal(&mut rng))
            .collect();
        let g: Vec<u8> = confounder
            .iter()
            .map(|&c| {
                let p = 1.0 / (1.0 + (-2.0 * c).exp());
                u8::from(rng.gen::<f64>() < p) + u8::from(rng.gen::<f64>() < p)
            })
            .collect();

        let unadjusted = GaussianScore::new(&y);
        let (u_raw, v_raw) = crate::score::score_and_variance(&unadjusted.contributions(&g));
        let z_raw = u_raw * u_raw / v_raw;

        let adjusted = AdjustedGaussianScore::new(&y, &[confounder]).unwrap();
        let (u_adj, v_adj) = crate::score::score_and_variance(&adjusted.contributions(&g));
        let z_adj = u_adj * u_adj / v_adj;

        assert!(
            z_raw > 50.0,
            "confounded unadjusted statistic should be huge, got {z_raw}"
        );
        assert!(
            z_adj < 6.0,
            "adjustment must collapse the spurious association, got {z_adj}"
        );
    }

    #[test]
    fn true_signal_survives_adjustment() {
        let mut rng = StdRng::seed_from_u64(21);
        let n = 300;
        let covariate: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let g: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..3)).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 2.0 * covariate[i] + 1.5 * f64::from(g[i]) + sample_standard_normal(&mut rng))
            .collect();
        let model = AdjustedGaussianScore::new(&y, &[covariate]).unwrap();
        let (u, v) = crate::score::score_and_variance(&model.contributions(&g));
        let z = u * u / v;
        assert!(z > 30.0, "a real effect must remain detectable, got {z}");
    }

    #[test]
    fn collinear_covariates_rejected() {
        let y = vec![1.0, 2.0, 3.0, 4.0];
        let c = vec![1.0, 2.0, 3.0, 4.0];
        let c2 = vec![2.0, 4.0, 6.0, 8.0];
        assert!(AdjustedGaussianScore::new(&y, &[c, c2]).is_err());
    }

    #[test]
    fn trait_residuals_sum_to_zero() {
        // The intercept column forces Σr = 0.
        let y = vec![3.0, -1.0, 7.5, 2.0, 0.5];
        let cov = vec![vec![1.0, 0.0, 2.0, 1.0, 3.0]];
        let model = AdjustedGaussianScore::new(&y, &cov).unwrap();
        let s: f64 = model.residuals.iter().sum();
        assert!(s.abs() < 1e-9);
    }
}
