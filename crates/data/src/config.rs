//! Synthetic-dataset configuration, with the paper's experiment presets.

/// SNP weighting schemes for the SKAT statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WeightScheme {
    /// All weights 1.
    Uniform,
    /// SKAT's default `Beta(maf; a, b)` density weights — upweights rare
    /// variants (Wu et al. use a = 1, b = 25).
    BetaMaf { a: f64, b: f64 },
}

impl WeightScheme {
    /// The SKAT default `Beta(1, 25)`.
    pub fn skat_default() -> Self {
        WeightScheme::BetaMaf { a: 1.0, b: 25.0 }
    }

    /// Weight for a SNP with minor-allele frequency `maf`.
    pub(crate) fn weight(&self, maf: f64) -> f64 {
        match *self {
            WeightScheme::Uniform => 1.0,
            WeightScheme::BetaMaf { a, b } => {
                // Beta density up to the normalizing constant; SKAT uses
                // the full density, which only rescales all weights by a
                // common factor (SKAT is scale-equivariant in weights).
                let ln_norm = sparkscore_stats::special::ln_gamma(a + b)
                    - sparkscore_stats::special::ln_gamma(a)
                    - sparkscore_stats::special::ln_gamma(b);
                (ln_norm + (a - 1.0) * maf.ln() + (b - 1.0) * (1.0 - maf).ln()).exp()
            }
        }
    }
}

/// Parameters of the paper's synthetic data generator (§III).
#[derive(Debug, Clone, PartialEq)]
pub struct SyntheticConfig {
    /// Number of patients `n` (the paper uses 1000 throughout).
    pub patients: usize,
    /// Number of SNPs `m` (10K / 100K / 1M in the experiments).
    pub snps: usize,
    /// Number of SNP-sets `K` (100 or 1000 in the experiments).
    pub snp_sets: usize,
    /// Mean survival time in months (paper: exponential with mean 12).
    pub mean_survival: f64,
    /// Probability a patient's time is an event rather than censoring
    /// (paper: Bernoulli(0.85)).
    pub event_rate: f64,
    /// Relative allelic frequency range; each SNP's ρ_j is uniform in it.
    pub maf_range: (f64, f64),
    /// SNP weighting scheme.
    pub weights: WeightScheme,
    /// RNG seed — everything downstream is deterministic in it.
    pub seed: u64,
}

impl SyntheticConfig {
    /// Sensible small default for tests and examples.
    pub fn small(seed: u64) -> Self {
        SyntheticConfig {
            patients: 50,
            snps: 200,
            snp_sets: 10,
            ..Self::paper_defaults(seed)
        }
    }

    fn paper_defaults(seed: u64) -> Self {
        SyntheticConfig {
            patients: 1000,
            snps: 100_000,
            snp_sets: 1000,
            mean_survival: 12.0,
            event_rate: 0.85,
            maf_range: (0.05, 0.5),
            weights: WeightScheme::Uniform,
            seed,
        }
    }

    /// Experiment A (Table II): 1000 patients × 100K SNPs × 1000 sets.
    pub fn experiment_a(seed: u64) -> Self {
        Self::paper_defaults(seed)
    }

    /// Experiment B, small input (Table IV row 1): 10K SNPs.
    pub fn experiment_b_10k(seed: u64) -> Self {
        SyntheticConfig {
            snps: 10_000,
            ..Self::paper_defaults(seed)
        }
    }

    /// Experiments B (row 2) / C (Table VI): 1M SNPs, 1000 sets.
    pub fn experiment_b_1m(seed: u64) -> Self {
        SyntheticConfig {
            snps: 1_000_000,
            ..Self::paper_defaults(seed)
        }
    }

    /// Uniformly scale the workload down by `factor` (patients kept,
    /// SNPs and sets divided), for laptop-scale reproduction runs.
    pub fn scaled_down(&self, factor: usize) -> Self {
        assert!(factor >= 1);
        SyntheticConfig {
            snps: (self.snps / factor).max(1),
            snp_sets: (self.snp_sets / factor).max(1),
            ..self.clone()
        }
    }

    /// Average SNPs per set, `m / K` (the exponential's mean in §III).
    pub fn mean_set_size(&self) -> f64 {
        self.snps as f64 / self.snp_sets as f64
    }

    pub(crate) fn validate(&self) {
        assert!(self.patients > 0, "need at least one patient");
        assert!(self.snps > 0, "need at least one SNP");
        assert!(
            self.snp_sets > 0 && self.snp_sets <= self.snps,
            "need 1..=snps SNP-sets"
        );
        assert!(self.mean_survival > 0.0);
        assert!((0.0..=1.0).contains(&self.event_rate));
        let (lo, hi) = self.maf_range;
        assert!(0.0 < lo && lo <= hi && hi < 1.0, "bad MAF range");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_tables() {
        let a = SyntheticConfig::experiment_a(1);
        assert_eq!((a.patients, a.snps, a.snp_sets), (1000, 100_000, 1000));
        assert_eq!(a.mean_survival, 12.0);
        assert_eq!(a.event_rate, 0.85);
        assert_eq!(a.mean_set_size(), 100.0); // Table II: ~100 SNPs/set

        let b1 = SyntheticConfig::experiment_b_10k(1);
        assert_eq!(b1.snps, 10_000);
        let b2 = SyntheticConfig::experiment_b_1m(1);
        assert_eq!(b2.snps, 1_000_000);
        assert_eq!(b2.mean_set_size(), 1000.0); // Table IV: ~1000 SNPs/set
    }

    #[test]
    fn scaled_down_divides_snps_and_sets() {
        let c = SyntheticConfig::experiment_a(1).scaled_down(100);
        assert_eq!(c.snps, 1000);
        assert_eq!(c.snp_sets, 10);
        assert_eq!(c.patients, 1000, "patients unchanged");
    }

    #[test]
    fn validate_accepts_presets() {
        SyntheticConfig::small(0).validate();
        SyntheticConfig::experiment_a(0).validate();
    }

    #[test]
    #[should_panic(expected = "bad MAF range")]
    fn validate_rejects_bad_maf() {
        let mut c = SyntheticConfig::small(0);
        c.maf_range = (0.0, 0.5);
        c.validate();
    }

    #[test]
    fn uniform_weights_are_one() {
        assert_eq!(WeightScheme::Uniform.weight(0.1), 1.0);
    }

    #[test]
    fn beta_weights_favor_rare_variants() {
        let w = WeightScheme::skat_default();
        assert!(w.weight(0.01) > w.weight(0.1));
        assert!(w.weight(0.1) > w.weight(0.4));
        assert!(w.weight(0.4) > 0.0);
    }
}
