//! Genotype quality control.
//!
//! Real GWAS pipelines (the paper's references \[3\], \[10\], \[12\]) filter
//! variants before inference: minor-allele frequency, completeness, and
//! Hardy–Weinberg equilibrium. These utilities operate on both the byte
//! dosage-vector representation ([`check_snp`]) and directly on 2-bit
//! packed columns via the popcount kernels ([`check_snp_packed`] — no
//! byte materialization), and feed the SKAT weight schemes (Beta(MAF)
//! weights need MAF estimates).

use crate::bitkern;
use crate::dist::chi2_sf;

/// A dosage outside {0, 1, 2} in byte genotype input. QC sits on the
/// untrusted-input boundary, so this is a checked error in every build —
/// a release binary that silently miscounted corrupt input would wave
/// bad variants through the filters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidDosage {
    /// Patient index of the offending value.
    pub index: usize,
    pub value: u8,
}

impl std::fmt::Display for InvalidDosage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid dosage {} at patient {} (expected 0, 1, or 2)",
            self.value, self.index
        )
    }
}

impl std::error::Error for InvalidDosage {}

/// Genotype counts for one SNP: carriers of 0, 1, and 2 minor alleles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GenotypeCounts {
    pub homozygous_ref: usize,
    pub heterozygous: usize,
    pub homozygous_alt: usize,
}

impl GenotypeCounts {
    /// Count byte dosages; values above 2 are rejected as
    /// [`InvalidDosage`] (previously a debug-only concern that release
    /// builds scored silently).
    fn from_dosages(g: &[u8]) -> Result<Self, InvalidDosage> {
        let mut c = GenotypeCounts::default();
        for (index, &d) in g.iter().enumerate() {
            match d {
                0 => c.homozygous_ref += 1,
                1 => c.heterozygous += 1,
                2 => c.homozygous_alt += 1,
                value => return Err(InvalidDosage { index, value }),
            }
        }
        Ok(c)
    }

    /// Counts straight from a 2-bit packed column of `num_patients`
    /// calls via the popcount kernels — no byte materialization. Missing
    /// calls (code `0b11`) are excluded from the counts and returned
    /// separately; packed codes cannot be out of range, so unlike
    /// [`GenotypeCounts::from_dosages`] this is infallible.
    fn from_packed(packed: &[u8], num_patients: usize) -> (Self, usize) {
        let c = bitkern::count_codes(packed, num_patients);
        (
            GenotypeCounts {
                homozygous_ref: c.hom_ref,
                heterozygous: c.het,
                homozygous_alt: c.hom_alt,
            },
            c.missing,
        )
    }

    fn total(&self) -> usize {
        self.homozygous_ref + self.heterozygous + self.homozygous_alt
    }

    /// Allele frequency of the alternate allele.
    fn alt_allele_frequency(&self) -> f64 {
        let n = self.total();
        assert!(n > 0, "no genotypes");
        (self.heterozygous + 2 * self.homozygous_alt) as f64 / (2 * n) as f64
    }

    /// Minor-allele frequency: `min(p, 1 − p)` of the alternate allele.
    fn minor_allele_frequency(&self) -> f64 {
        let p = self.alt_allele_frequency();
        p.min(1.0 - p)
    }

    /// Pearson χ²₁ test of Hardy–Weinberg equilibrium. Returns the
    /// p-value; monomorphic SNPs return 1.0 (no departure measurable).
    fn hardy_weinberg_pvalue(&self) -> f64 {
        let n = self.total() as f64;
        assert!(n > 0.0, "no genotypes");
        let p = self.alt_allele_frequency();
        let q = 1.0 - p;
        if p == 0.0 || q == 0.0 {
            return 1.0;
        }
        let expected = [n * q * q, 2.0 * n * p * q, n * p * p];
        let observed = [
            self.homozygous_ref as f64,
            self.heterozygous as f64,
            self.homozygous_alt as f64,
        ];
        let chi2: f64 = observed
            .iter()
            .zip(&expected)
            .map(|(o, e)| (o - e) * (o - e) / e)
            .sum();
        // One degree of freedom: three cells, two constraints (total and
        // allele frequency estimated from the data).
        chi2_sf(chi2, 1.0)
    }
}

/// Why a SNP fails QC.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QcFailure {
    /// MAF below the threshold.
    RareVariant { maf: f64 },
    /// Monomorphic: zero variance, score statistics degenerate.
    Monomorphic,
    /// Hardy–Weinberg departure beyond the p-value threshold (often a
    /// genotyping artifact).
    HardyWeinberg { pvalue: f64 },
    /// Byte input contained a dosage outside {0, 1, 2}.
    InvalidDosage(InvalidDosage),
}

/// QC thresholds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QcThresholds {
    /// Minimum minor-allele frequency (common GWAS default: 0.01–0.05).
    pub min_maf: f64,
    /// Minimum HWE p-value (common default: 1e-6).
    pub min_hwe_pvalue: f64,
}

impl Default for QcThresholds {
    fn default() -> Self {
        QcThresholds {
            min_maf: 0.01,
            min_hwe_pvalue: 1e-6,
        }
    }
}

/// Check one SNP's byte dosage vector against the thresholds.
pub fn check_snp(g: &[u8], thresholds: &QcThresholds) -> Result<GenotypeCounts, QcFailure> {
    let counts = GenotypeCounts::from_dosages(g).map_err(QcFailure::InvalidDosage)?;
    classify(counts, thresholds)
}

/// Check one SNP's 2-bit packed column against the thresholds — the
/// popcount QC path: counts, MAF, and HWE all come from the packed
/// words. Missing calls are excluded from the counts; a column with no
/// called genotype at all fails as [`QcFailure::Monomorphic`] (no
/// frequency is estimable).
pub fn check_snp_packed(
    packed: &[u8],
    num_patients: usize,
    thresholds: &QcThresholds,
) -> Result<GenotypeCounts, QcFailure> {
    let (counts, _missing) = GenotypeCounts::from_packed(packed, num_patients);
    classify(counts, thresholds)
}

fn classify(
    counts: GenotypeCounts,
    thresholds: &QcThresholds,
) -> Result<GenotypeCounts, QcFailure> {
    if counts.total() == 0 {
        return Err(QcFailure::Monomorphic);
    }
    let maf = counts.minor_allele_frequency();
    if maf == 0.0 {
        return Err(QcFailure::Monomorphic);
    }
    if maf < thresholds.min_maf {
        return Err(QcFailure::RareVariant { maf });
    }
    let hwe = counts.hardy_weinberg_pvalue();
    if hwe < thresholds.min_hwe_pvalue {
        return Err(QcFailure::HardyWeinberg { pvalue: hwe });
    }
    Ok(counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::sample_genotype;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn counts_and_frequencies() {
        // 4 ref-hom, 4 het, 2 alt-hom: alt freq = (4 + 4)/20 = 0.4.
        let g = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2];
        let c = GenotypeCounts::from_dosages(&g).unwrap();
        assert_eq!(c.total(), 10);
        assert!((c.alt_allele_frequency() - 0.4).abs() < 1e-12);
        assert!((c.minor_allele_frequency() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn maf_folds_major_allele() {
        let g = [2u8; 9]; // alt freq 1.0 → MAF 0.
        let c = GenotypeCounts::from_dosages(&g).unwrap();
        assert_eq!(c.minor_allele_frequency(), 0.0);
    }

    #[test]
    fn bad_dosage_is_a_checked_error_in_all_builds() {
        assert_eq!(
            GenotypeCounts::from_dosages(&[0, 3]),
            Err(InvalidDosage { index: 1, value: 3 })
        );
        assert_eq!(
            check_snp(&[0, 1, 200], &QcThresholds::default()),
            Err(QcFailure::InvalidDosage(InvalidDosage {
                index: 2,
                value: 200
            }))
        );
        let msg = InvalidDosage { index: 1, value: 3 }.to_string();
        assert!(msg.contains("invalid dosage 3"), "{msg}");
    }

    #[test]
    fn hwe_equilibrium_data_passes() {
        // Generate genotypes under exact HWE sampling: p-values should be
        // comfortably large for a big sample at ρ = 0.3.
        let mut rng = StdRng::seed_from_u64(4);
        let g: Vec<u8> = (0..20_000)
            .map(|_| sample_genotype(&mut rng, 0.3))
            .collect();
        let c = GenotypeCounts::from_dosages(&g).unwrap();
        assert!(
            c.hardy_weinberg_pvalue() > 0.001,
            "HWE data must not be rejected: p = {}",
            c.hardy_weinberg_pvalue()
        );
    }

    #[test]
    fn hwe_detects_heterozygote_deficit() {
        // Extreme inbreeding-like data: only homozygotes at p = 0.5.
        let counts = GenotypeCounts {
            homozygous_ref: 500,
            heterozygous: 0,
            homozygous_alt: 500,
        };
        assert!(counts.hardy_weinberg_pvalue() < 1e-10);
    }

    #[test]
    fn hwe_monomorphic_is_vacuous() {
        let c = GenotypeCounts::from_dosages(&[0u8; 50]).unwrap();
        assert_eq!(c.hardy_weinberg_pvalue(), 1.0);
    }

    #[test]
    fn check_snp_classifies_failures() {
        let thresholds = QcThresholds::default();
        assert!(matches!(
            check_snp(&[0u8; 100], &thresholds),
            Err(QcFailure::Monomorphic)
        ));
        // One het in 200 patients: MAF = 1/400 < 0.01.
        let mut rare = vec![0u8; 200];
        rare[0] = 1;
        assert!(matches!(
            check_snp(&rare, &thresholds),
            Err(QcFailure::RareVariant { .. })
        ));
        // Clean common variant passes.
        let mut rng = StdRng::seed_from_u64(9);
        let good: Vec<u8> = (0..500).map(|_| sample_genotype(&mut rng, 0.25)).collect();
        assert!(check_snp(&good, &thresholds).is_ok());
        // All-het data at p=0.5 violates HWE strongly.
        let het = vec![1u8; 1000];
        assert!(matches!(
            check_snp(&het, &thresholds),
            Err(QcFailure::HardyWeinberg { .. })
        ));
    }

    /// Pack a dosage vector 2-bit column-style (4 codes per byte).
    fn pack(dosages: &[u8]) -> Vec<u8> {
        let mut data = vec![0u8; dosages.len().div_ceil(4)];
        for (i, &d) in dosages.iter().enumerate() {
            data[i / 4] |= d << (2 * (i % 4));
        }
        data
    }

    #[test]
    fn packed_qc_of_all_missing_column_is_monomorphic_not_a_panic() {
        let n = 23;
        let packed = pack(&vec![3u8; n]);
        let (counts, missing) = GenotypeCounts::from_packed(&packed, n);
        assert_eq!(counts.total(), 0);
        assert_eq!(missing, n);
        assert_eq!(
            check_snp_packed(&packed, n, &QcThresholds::default()),
            Err(QcFailure::Monomorphic)
        );
    }

    proptest::proptest! {
        /// Packed-direct QC is identical to the byte path: same counts,
        /// bitwise-equal MAF and HWE p-value, same `check_snp` verdict —
        /// across random missingness and all tail lengths. Missing calls
        /// are dropped before the byte oracle runs (the byte path rejects
        /// them by design).
        #[test]
        fn prop_packed_qc_equals_byte_oracle(
            g in proptest::collection::vec(0u8..4, 0..300)
        ) {
            let packed = pack(&g);
            let called: Vec<u8> = g.iter().copied().filter(|&d| d < 3).collect();
            let byte = GenotypeCounts::from_dosages(&called).unwrap();
            let (direct, missing) = GenotypeCounts::from_packed(&packed, g.len());
            proptest::prop_assert_eq!(byte, direct);
            proptest::prop_assert_eq!(missing, g.len() - called.len());
            if direct.total() > 0 {
                proptest::prop_assert_eq!(
                    byte.minor_allele_frequency().to_bits(),
                    direct.minor_allele_frequency().to_bits()
                );
                proptest::prop_assert_eq!(
                    byte.hardy_weinberg_pvalue().to_bits(),
                    direct.hardy_weinberg_pvalue().to_bits()
                );
            }
            let thresholds = QcThresholds::default();
            proptest::prop_assert_eq!(
                check_snp(&called, &thresholds),
                check_snp_packed(&packed, g.len(), &thresholds)
            );
        }
    }

    #[test]
    fn hwe_pvalue_roughly_uniform_under_null() {
        // Type-I calibration: across many null SNPs, ~5% rejected at 0.05.
        let mut rng = StdRng::seed_from_u64(13);
        let trials = 400;
        let rejected = (0..trials)
            .filter(|_| {
                let g: Vec<u8> = (0..400).map(|_| sample_genotype(&mut rng, 0.3)).collect();
                GenotypeCounts::from_dosages(&g)
                    .unwrap()
                    .hardy_weinberg_pvalue()
                    < 0.05
            })
            .count();
        let rate = rejected as f64 / trials as f64;
        assert!(
            (0.01..=0.10).contains(&rate),
            "HWE test must be calibrated: rejection rate {rate}"
        );
    }
}
