//! Statistical machinery for genomic inference with efficient score
//! statistics — the mathematical core of the SparkScore paper.
//!
//! * [`score`] — the efficient score models: Cox proportional hazards for
//!   censored survival (the paper's running example, with the O(n)-per-SNP
//!   risk-set-prefix evaluation), Gaussian for quantitative traits (eQTL),
//!   and binomial for case/control phenotypes.
//! * [`skat`] — SNP-set combination: SKAT `Σ ω_j² U_j²` and the weighted
//!   burden alternative.
//! * [`resample`] — sequential reference implementations of the paper's
//!   Algorithm 1 (observed statistics), Algorithm 2 (permutation
//!   resampling), and Algorithm 3 (Lin's Monte Carlo multipliers).
//! * [`pvalue`] — add-one empirical p-values and Westfall–Young max-T
//!   family-wise adjustment.
//! * [`asymptotic`] — the χ²₁ score test and Liu moment-matching SKAT
//!   p-values (the large-sample approximations resampling replaces when
//!   regularity fails).
//! * [`bitkern`] — popcount/word kernels that compute QC counts and
//!   affine score contributions directly on 2-bit packed genotype
//!   columns, never materializing bytes.
//! * [`dist`] / [`special`] — distributions, samplers, and the special
//!   functions behind them, implemented from scratch.
//!
//! # Example: a tiny survival analysis
//!
//! ```
//! use sparkscore_stats::score::{CoxScore, ScoreModel, Survival};
//! use sparkscore_stats::skat::SnpSet;
//! use sparkscore_stats::resample::monte_carlo;
//!
//! let phenotypes = vec![
//!     Survival::event_at(3.0),
//!     Survival::censored_at(9.0),
//!     Survival::event_at(1.5),
//!     Survival::event_at(7.0),
//! ];
//! let genotype_rows = vec![vec![0u8, 1, 2, 1], vec![2u8, 0, 1, 0]];
//! let weights = vec![1.0, 1.0];
//! let sets = vec![SnpSet::new(0, vec![0, 1])];
//! let model = CoxScore::new(&phenotypes);
//! let result = monte_carlo(&model, &genotype_rows, &weights, &sets, 99, 42);
//! let p = result.pvalues()[0];
//! assert!(p > 0.0 && p <= 1.0);
//! ```

pub mod asymptotic;
pub mod bitkern;
pub mod covariates;
pub mod dist;
pub mod linalg;
pub mod pvalue;
pub mod qc;
pub mod resample;
pub mod score;
pub mod scratch;
pub mod skat;
pub mod special;

pub use covariates::AdjustedGaussianScore;
pub use linalg::perturb_rows_blocked;
pub use pvalue::StoppingRule;
pub use resample::{
    monte_carlo, monte_carlo_adaptive, monte_carlo_blocked, observed_skat, permutation,
    AdaptiveResult, ResamplingResult, MC_TILE,
};
pub use score::{BinomialScore, CoxScore, GaussianScore, ScoreModel, Survival, MISSING_DOSAGE};
pub use skat::{burden_statistic, skat_all, skat_statistic, SnpSet};
