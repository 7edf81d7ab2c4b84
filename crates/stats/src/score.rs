//! Efficient score statistics.
//!
//! For each SNP `j`, the marginal score is `U_j = Σ_i U_ij`, where `U_ij`
//! is patient `i`'s contribution. The paper's primary model is the Cox
//! score for censored survival (`U_ij = Δ_i (G_ij − a_ij/b_i)`); linear
//! (Gaussian) and binomial models cover quantitative traits (eQTL) and
//! case/control phenotypes, the extensions the abstract calls out. Unlike
//! Wald or likelihood-ratio tests, none of these require per-SNP numerical
//! optimization — the property that makes the method "efficient".

use crate::scratch;

/// The missing-dosage marker in the 2-bit packed genotype encoding
/// (`0b11`). This is the single definition of the convention: packed
/// storage ([`GenotypeBlock`](../../sparkscore_data/packed/index.html))
/// uses codes 0/1/2 for dosages and this code for missing calls, and the
/// unpacked kernel paths debug-assert that missing values were imputed
/// away before scoring.
pub const MISSING_DOSAGE: u8 = 3;

/// Debug-build check that a genotype slice contains only real dosages
/// (0/1/2). Values `>= MISSING_DOSAGE` were historically accepted
/// silently and scored as if they were huge dosages; every unpacked
/// kernel path now routes through this assertion.
#[inline]
pub(crate) fn debug_assert_dosages(g: &[u8]) {
    debug_assert!(
        g.iter().all(|&d| d < MISSING_DOSAGE),
        "dosage out of range: kernels accept 0/1/2; code {MISSING_DOSAGE} marks a missing \
         call in packed storage and must be imputed before scoring"
    );
}

/// A censored survival observation `(Y_i, Δ_i)`: observed time and whether
/// it was an event (`true`) or censoring (`false`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Survival {
    pub time: f64,
    pub event: bool,
}

impl Survival {
    pub fn event_at(time: f64) -> Self {
        Survival { time, event: true }
    }

    pub fn censored_at(time: f64) -> Self {
        Survival { time, event: false }
    }
}

/// A score model: maps one SNP's genotype vector to per-patient score
/// contributions. Implementations precompute all phenotype-only terms once
/// per analysis (the paper notes `b_i` "only needs to be calculated once").
pub trait ScoreModel: Send + Sync {
    fn num_patients(&self) -> usize;

    /// Allocation-free kernel: write the per-patient contributions `U_ij`
    /// for genotype vector `g` (dosages 0/1/2, one entry per patient) into
    /// `out`. Panics if `g.len()` or `out.len()` mismatches
    /// `num_patients()`. This is the hot path — implementations must not
    /// allocate for the three primary models.
    fn contributions_into(&self, g: &[u8], out: &mut [f64]);

    /// Packed-column fast path: compute the contributions directly from
    /// a 2-bit packed genotype column (`ceil(n/4)` bytes, codes 0/1/2
    /// plus [`MISSING_DOSAGE`]) and return `true`, or return `false`
    /// when the model has no packed kernel and the caller must unpack
    /// and use [`ScoreModel::contributions_into`]. Models whose
    /// per-patient contribution is affine in the dosage (Gaussian,
    /// binomial) override this with the popcount/table kernels in
    /// [`crate::bitkern`]; the Cox risk-set prefix and
    /// covariate-projected models keep the default.
    fn contributions_into_packed(&self, packed: &[u8], out: &mut [f64]) -> bool {
        let _ = (packed, out);
        false
    }

    /// Per-patient contributions `U_ij`, allocating the output vector.
    /// Convenience wrapper over [`ScoreModel::contributions_into`].
    fn contributions(&self, g: &[u8]) -> Vec<f64> {
        let mut out = vec![0.0; self.num_patients()];
        self.contributions_into(g, &mut out);
        out
    }

    /// The marginal score `U_j = Σ_i U_ij`.
    fn score(&self, g: &[u8]) -> f64 {
        self.contributions(g).iter().sum()
    }
}

/// Sum and empirical variance (`Σ U_ij²`) of a contribution vector — the
/// ingredients of the asymptotic test `U²/V ~ χ²₁`. Single pass: it runs
/// once per SNP per iteration.
#[inline]
pub fn score_and_variance(contribs: &[f64]) -> (f64, f64) {
    let mut u = 0.0f64;
    let mut v = 0.0f64;
    for &c in contribs {
        u += c;
        v += c * c;
    }
    (u, v)
}

// ---------------- Cox ----------------

/// Cox proportional-hazards score under the global null.
///
/// `U_ij = Δ_i (G_ij − a_ij / b_i)` with `a_ij = Σ_l 1(Y_l ≥ Y_i) G_lj`
/// and `b_i = Σ_l 1(Y_l ≥ Y_i)`.
///
/// The naive evaluation is O(n²) per SNP; this implementation sorts
/// patients by descending time once per analysis and answers each SNP in
/// O(n) via prefix sums over the sorted order (`a_ij` is a risk-set sum —
/// a prefix of the descending order; ties share the same prefix bound).
#[derive(Debug, Clone)]
pub struct CoxScore {
    phenotypes: Vec<Survival>,
    /// Patient indices sorted by time descending (ties by index).
    order: Vec<usize>,
    /// Per patient: `b_i` = |{l : Y_l ≥ Y_i}|, which is also the length of
    /// the descending-order prefix covering the risk set.
    rank_end: Vec<usize>,
}

impl CoxScore {
    pub fn new(phenotypes: &[Survival]) -> Self {
        assert!(!phenotypes.is_empty(), "need at least one patient");
        let n = phenotypes.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            phenotypes[b]
                .time
                .partial_cmp(&phenotypes[a].time)
                .expect("survival times must not be NaN")
                .then(a.cmp(&b))
        });
        // Descending times; rank_end[i] = #\{l: Y_l >= Y_i\} = index one past
        // the last sorted position whose time >= Y_i.
        let sorted_times: Vec<f64> = order.iter().map(|&i| phenotypes[i].time).collect();
        let mut rank_end = vec![0usize; n];
        for i in 0..n {
            let t = phenotypes[i].time;
            // partition_point: first k where sorted_times[k] < t.
            rank_end[i] = sorted_times.partition_point(|&y| y >= t);
            debug_assert!(rank_end[i] >= 1);
        }
        CoxScore {
            phenotypes: phenotypes.to_vec(),
            order,
            rank_end,
        }
    }

    /// The model after shuffling the phenotype pairs with `perm`
    /// (patient `i` receives phenotype `perm[i]`): permutation resampling's
    /// per-replicate model (Algorithm 2).
    ///
    /// O(n): the time multiset is permutation-invariant, so the shuffled
    /// model's descending order is the existing order relabeled through the
    /// inverse permutation, and `b_i` for new patient `i` is the old `b` of
    /// the patient whose phenotype it received. No re-sort per replicate.
    /// (Patients tied on time may appear in a different relative order than
    /// a fresh sort would produce; `rank_end` always lands on a tie-group
    /// boundary, so every risk set sums the same values — contributions
    /// agree with a freshly built model up to FP summation order.)
    pub fn permuted(&self, perm: &[usize]) -> CoxScore {
        let n = self.phenotypes.len();
        assert_eq!(perm.len(), n);
        let shuffled: Vec<Survival> = perm.iter().map(|&p| self.phenotypes[p]).collect();
        let mut inv_perm = vec![0usize; n];
        for (i, &p) in perm.iter().enumerate() {
            inv_perm[p] = i;
        }
        let order: Vec<usize> = self.order.iter().map(|&o| inv_perm[o]).collect();
        let rank_end: Vec<usize> = (0..n).map(|i| self.rank_end[perm[i]]).collect();
        CoxScore {
            phenotypes: shuffled,
            order,
            rank_end,
        }
    }
}

impl ScoreModel for CoxScore {
    fn num_patients(&self) -> usize {
        self.phenotypes.len()
    }

    fn contributions_into(&self, g: &[u8], out: &mut [f64]) {
        let n = self.phenotypes.len();
        assert_eq!(g.len(), n, "genotype vector length mismatch");
        assert_eq!(out.len(), n, "output vector length mismatch");
        debug_assert_dosages(g);
        // prefix[k] = sum of genotypes of the k patients with largest times,
        // built in thread-local scratch (reused across tasks on a worker).
        scratch::with_f64(n + 1, |prefix| {
            let mut acc = 0.0f64;
            for (p, &idx) in prefix[1..].iter_mut().zip(&self.order) {
                acc += f64::from(g[idx]);
                *p = acc;
            }
            for (i, o) in out.iter_mut().enumerate() {
                *o = if self.phenotypes[i].event {
                    let b = self.rank_end[i] as f64;
                    let a = prefix[self.rank_end[i]];
                    f64::from(g[i]) - a / b
                } else {
                    0.0
                };
            }
        });
    }
}

// ---------------- Gaussian ----------------

/// Linear-model score for a quantitative trait:
/// `U_ij = (Y_i − Ȳ)(G_ij − Ḡ_j)`.
///
/// Genotypes are centered per SNP (the intercept-profiled efficient score).
/// The marginal score `U_j` is unchanged by centering (residuals sum to
/// zero), but the *contributions* — and hence Lin's Monte Carlo
/// perturbation variance `Σ U_ij²` — are only correct with it: uncentered
/// contributions would inflate the MC null spread relative to permutation.
#[derive(Debug, Clone)]
pub struct GaussianScore {
    residuals: Vec<f64>,
}

impl GaussianScore {
    pub fn new(trait_values: &[f64]) -> Self {
        assert!(!trait_values.is_empty(), "need at least one patient");
        let mean = trait_values.iter().sum::<f64>() / trait_values.len() as f64;
        GaussianScore {
            residuals: trait_values.iter().map(|y| y - mean).collect(),
        }
    }

    /// Permutation-resampling helper: shuffle trait values with `perm`.
    pub fn permuted(&self, perm: &[usize]) -> GaussianScore {
        assert_eq!(perm.len(), self.residuals.len());
        // Residuals are permutation-invariant as a multiset; shuffling them
        // directly is equivalent to shuffling the raw trait values.
        GaussianScore {
            residuals: perm.iter().map(|&p| self.residuals[p]).collect(),
        }
    }
}

impl ScoreModel for GaussianScore {
    fn num_patients(&self) -> usize {
        self.residuals.len()
    }

    fn contributions_into(&self, g: &[u8], out: &mut [f64]) {
        assert_eq!(
            g.len(),
            self.residuals.len(),
            "genotype vector length mismatch"
        );
        centered_residual_contributions_into(&self.residuals, g, out);
    }

    fn contributions_into_packed(&self, packed: &[u8], out: &mut [f64]) -> bool {
        crate::bitkern::residual_contributions_packed(&self.residuals, packed, out);
        true
    }
}

/// `U_ij = r_i (G_ij − Ḡ_j)` — shared by the Gaussian and binomial models.
///
/// The dosage sum is accumulated in `u64` (dosages are small integers, so
/// the `f64` conversion is exact and equals the sequential float sum
/// bitwise) and the write-out loop is a straight slice zip — both shapes
/// the autovectorizer handles.
fn centered_residual_contributions_into(residuals: &[f64], g: &[u8], out: &mut [f64]) {
    assert_eq!(out.len(), residuals.len(), "output vector length mismatch");
    debug_assert_dosages(g);
    let g_sum: u64 = g.iter().map(|&x| u64::from(x)).sum();
    let g_mean = g_sum as f64 / g.len() as f64;
    for ((o, r), &gi) in out.iter_mut().zip(residuals).zip(g) {
        *o = r * (f64::from(gi) - g_mean);
    }
}

// ---------------- Binomial ----------------

/// Score for a binary (case/control) phenotype under the intercept-only
/// null: `U_ij = (Y_i − p̄)(G_ij − Ḡ_j)` with `p̄` the case fraction
/// (genotypes centered per SNP, see [`GaussianScore`]).
#[derive(Debug, Clone)]
pub struct BinomialScore {
    residuals: Vec<f64>,
}

impl BinomialScore {
    pub fn new(cases: &[bool]) -> Self {
        assert!(!cases.is_empty(), "need at least one patient");
        let p = cases.iter().filter(|&&c| c).count() as f64 / cases.len() as f64;
        BinomialScore {
            residuals: cases.iter().map(|&c| f64::from(u8::from(c)) - p).collect(),
        }
    }

    pub fn permuted(&self, perm: &[usize]) -> BinomialScore {
        assert_eq!(perm.len(), self.residuals.len());
        BinomialScore {
            residuals: perm.iter().map(|&p| self.residuals[p]).collect(),
        }
    }
}

impl ScoreModel for BinomialScore {
    fn num_patients(&self) -> usize {
        self.residuals.len()
    }

    fn contributions_into(&self, g: &[u8], out: &mut [f64]) {
        assert_eq!(
            g.len(),
            self.residuals.len(),
            "genotype vector length mismatch"
        );
        centered_residual_contributions_into(&self.residuals, g, out);
    }

    fn contributions_into_packed(&self, packed: &[u8], out: &mut [f64]) -> bool {
        crate::bitkern::residual_contributions_packed(&self.residuals, packed, out);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// O(n²)-per-SNP Cox contributions, straight from the definition. Kept as
    /// the property-test oracle for [`CoxScore`].
    fn cox_contributions_naive(phenotypes: &[Survival], g: &[u8]) -> Vec<f64> {
        let n = phenotypes.len();
        assert_eq!(g.len(), n);
        (0..n)
            .map(|i| {
                if !phenotypes[i].event {
                    return 0.0;
                }
                let mut a = 0.0f64;
                let mut b = 0.0f64;
                for l in 0..n {
                    if phenotypes[l].time >= phenotypes[i].time {
                        a += f64::from(g[l]);
                        b += 1.0;
                    }
                }
                f64::from(g[i]) - a / b
            })
            .collect()
    }

    fn close(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-10, "{a} vs {b}");
    }

    fn close_vecs(a: &[f64], b: &[f64]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            close(*x, *y);
        }
    }

    #[test]
    fn cox_matches_naive_on_small_example() {
        let ph = vec![
            Survival::event_at(3.0),
            Survival::censored_at(5.0),
            Survival::event_at(1.0),
            Survival::event_at(5.0),
        ];
        let g = vec![2u8, 0, 1, 1];
        let fast = CoxScore::new(&ph).contributions(&g);
        let naive = cox_contributions_naive(&ph, &g);
        close_vecs(&fast, &naive);
    }

    #[test]
    fn cox_censored_patients_contribute_zero() {
        let ph = vec![Survival::censored_at(2.0), Survival::event_at(1.0)];
        let c = CoxScore::new(&ph).contributions(&[2, 1]);
        close(c[0], 0.0);
        assert!(c[1].abs() > 0.0 || c[1] == 0.0);
    }

    #[test]
    fn cox_constant_genotype_scores_zero() {
        // If everyone has the same genotype, G_ij == a_ij/b_i for every
        // event, so all contributions vanish.
        let ph: Vec<Survival> = (0..10)
            .map(|i| Survival {
                time: i as f64,
                event: i % 3 != 0,
            })
            .collect();
        for dose in 0u8..=2 {
            let g = vec![dose; 10];
            let (u, v) = score_and_variance(&CoxScore::new(&ph).contributions(&g));
            close(u, 0.0);
            close(v, 0.0);
        }
    }

    #[test]
    fn cox_handles_ties_like_naive() {
        let ph = vec![
            Survival::event_at(2.0),
            Survival::event_at(2.0),
            Survival::event_at(2.0),
            Survival::censored_at(2.0),
        ];
        let g = vec![0u8, 1, 2, 1];
        close_vecs(
            &CoxScore::new(&ph).contributions(&g),
            &cox_contributions_naive(&ph, &g),
        );
    }

    #[test]
    fn cox_permuted_identity_is_noop() {
        let ph = vec![
            Survival::event_at(1.0),
            Survival::event_at(4.0),
            Survival::censored_at(2.0),
        ];
        let model = CoxScore::new(&ph);
        let same = model.permuted(&[0, 1, 2]);
        let g = vec![1u8, 2, 0];
        close_vecs(&model.contributions(&g), &same.contributions(&g));
    }

    #[test]
    fn gaussian_contributions_sum_is_covariance_like() {
        let y = vec![1.0, 2.0, 3.0, 4.0];
        let g = vec![0u8, 1, 1, 2];
        let model = GaussianScore::new(&y);
        let u = model.score(&g);
        // Σ (y_i - ȳ) g_i with ȳ = 2.5: -1.5*0 -0.5*1 +0.5*1 +1.5*2 = 3.
        close(u, 3.0);
    }

    #[test]
    fn gaussian_residuals_sum_zero_so_constant_genotype_scores_zero() {
        let y = vec![3.0, 9.0, -2.0, 0.5, 11.0];
        let model = GaussianScore::new(&y);
        close(model.score(&[1; 5]), 0.0);
        close(model.score(&[2; 5]), 0.0);
    }

    #[test]
    fn binomial_score_detects_enrichment() {
        // Cases carry the allele, controls don't → positive score.
        let cases = vec![true, true, false, false];
        let g = vec![2u8, 2, 0, 0];
        let u = BinomialScore::new(&cases).score(&g);
        assert!(u > 0.0);
        // Flip genotypes → negative score of equal magnitude.
        let u2 = BinomialScore::new(&cases).score(&[0, 0, 2, 2]);
        close(u, -u2);
    }

    #[test]
    fn score_and_variance_definition() {
        let (u, v) = score_and_variance(&[1.0, -2.0, 0.5]);
        close(u, -0.5);
        close(v, 1.0 + 4.0 + 0.25);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn contribution_length_checked() {
        let model = GaussianScore::new(&[1.0, 2.0]);
        let _ = model.contributions(&[1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn contributions_into_output_length_checked() {
        let model = GaussianScore::new(&[1.0, 2.0]);
        let mut out = vec![0.0; 3];
        model.contributions_into(&[1, 2], &mut out);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "dosage out of range")]
    fn missing_dosage_rejected_by_unpacked_kernels() {
        let model = GaussianScore::new(&[1.0, 2.0, 3.0]);
        let _ = model.contributions(&[0, MISSING_DOSAGE, 1]);
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
    fn cox_has_no_packed_fast_path() {
        let ph = vec![Survival::event_at(1.0), Survival::event_at(2.0)];
        let model = CoxScore::new(&ph);
        let mut out = vec![f64::NAN; 2];
        assert!(!model.contributions_into_packed(&pack(&[1, 2]), &mut out));
        assert!(out.iter().all(|v| v.is_nan()), "declining must not write");
    }

    #[test]
    fn packed_fast_path_is_bitwise_identical_to_byte_kernel() {
        let g: Vec<u8> = (0..37).map(|i| (i % 3) as u8).collect();
        let packed = pack(&g);
        let y: Vec<f64> = (0..37).map(|i| (i as f64).sin() * 4.0).collect();
        let cases: Vec<bool> = (0..37).map(|i| i % 3 == 0).collect();
        let gauss = GaussianScore::new(&y);
        let binom = BinomialScore::new(&cases);
        let mut byte_out = vec![0.0; 37];
        let mut packed_out = vec![f64::NAN; 37];
        gauss.contributions_into(&g, &mut byte_out);
        assert!(gauss.contributions_into_packed(&packed, &mut packed_out));
        assert_eq!(byte_out, packed_out);
        binom.contributions_into(&g, &mut byte_out);
        assert!(binom.contributions_into_packed(&packed, &mut packed_out));
        assert_eq!(byte_out, packed_out);
    }

    /// The pre-`contributions_into` float summation order, kept as a
    /// bitwise oracle for the centered-residual kernel's integer sum.
    fn centered_naive(residuals: &[f64], g: &[u8]) -> Vec<f64> {
        let g_mean = g.iter().map(|&x| f64::from(x)).sum::<f64>() / g.len() as f64;
        residuals
            .iter()
            .zip(g)
            .map(|(r, &gi)| r * (f64::from(gi) - g_mean))
            .collect()
    }

    proptest! {
        /// The O(n) Cox implementation agrees with the O(n²) definition on
        /// arbitrary phenotypes (with ties and censoring) and genotypes.
        #[test]
        fn prop_cox_fast_equals_naive(
            raw in proptest::collection::vec((0u8..40, any::<bool>(), 0u8..3), 1..60)
        ) {
            // Coarse integer times force plenty of ties.
            let ph: Vec<Survival> = raw.iter()
                .map(|&(t, e, _)| Survival { time: f64::from(t) / 4.0, event: e })
                .collect();
            let g: Vec<u8> = raw.iter().map(|&(_, _, d)| d).collect();
            let fast = CoxScore::new(&ph).contributions(&g);
            let naive = cox_contributions_naive(&ph, &g);
            for (a, b) in fast.iter().zip(&naive) {
                prop_assert!((a - b).abs() < 1e-9, "{a} vs {b}");
            }
        }

        /// Scores are equivariant under patient relabeling: permuting both
        /// phenotypes and genotypes the same way permutes contributions.
        #[test]
        fn prop_cox_relabeling_equivariance(
            raw in proptest::collection::vec((0u8..30, any::<bool>(), 0u8..3), 2..30),
            seed in any::<u64>()
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            let ph: Vec<Survival> = raw.iter()
                .map(|&(t, e, _)| Survival { time: f64::from(t), event: e })
                .collect();
            let g: Vec<u8> = raw.iter().map(|&(_, _, d)| d).collect();
            let mut perm: Vec<usize> = (0..raw.len()).collect();
            perm.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
            let ph2: Vec<Survival> = perm.iter().map(|&p| ph[p]).collect();
            let g2: Vec<u8> = perm.iter().map(|&p| g[p]).collect();
            let c1 = CoxScore::new(&ph).contributions(&g);
            let c2 = CoxScore::new(&ph2).contributions(&g2);
            for (i, &p) in perm.iter().enumerate() {
                prop_assert!((c2[i] - c1[p]).abs() < 1e-9);
            }
        }

        /// `contributions_into` is bitwise-identical to the allocating
        /// `contributions` path and matches the reference formulas on
        /// random cohorts, for all three models.
        #[test]
        fn prop_into_equals_contributions_all_models(
            raw in proptest::collection::vec(
                (0u8..20, any::<bool>(), 0u8..3, -50.0f64..50.0, any::<bool>()),
                1..50,
            )
        ) {
            let n = raw.len();
            let ph: Vec<Survival> = raw.iter()
                .map(|&(t, e, _, _, _)| Survival { time: f64::from(t) / 2.0, event: e })
                .collect();
            let g: Vec<u8> = raw.iter().map(|&(_, _, d, _, _)| d).collect();
            let y: Vec<f64> = raw.iter().map(|&(_, _, _, v, _)| v).collect();
            let cases: Vec<bool> = raw.iter().map(|&(_, _, _, _, c)| c).collect();

            let cox = CoxScore::new(&ph);
            let gauss = GaussianScore::new(&y);
            let binom = BinomialScore::new(&cases);

            let mut out = vec![f64::NAN; n];
            cox.contributions_into(&g, &mut out);
            prop_assert_eq!(&out, &cox.contributions(&g));
            let naive = cox_contributions_naive(&ph, &g);
            for (a, b) in out.iter().zip(&naive) {
                prop_assert!((a - b).abs() < 1e-9, "cox {a} vs naive {b}");
            }

            gauss.contributions_into(&g, &mut out);
            prop_assert_eq!(&out, &gauss.contributions(&g));
            prop_assert_eq!(&out, &centered_naive(&gauss.residuals, &g));

            binom.contributions_into(&g, &mut out);
            prop_assert_eq!(&out, &binom.contributions(&g));
            prop_assert_eq!(&out, &centered_naive(&binom.residuals, &g));
        }

        /// The packed fast path reproduces the byte kernel bitwise for
        /// the affine models — same contributions, hence the same score
        /// and variance — on every cohort size (all n%4 tails).
        #[test]
        fn prop_packed_fast_path_equals_byte_kernel(
            raw in proptest::collection::vec((0u8..3, -50.0f64..50.0, any::<bool>()), 1..80)
        ) {
            let n = raw.len();
            let g: Vec<u8> = raw.iter().map(|&(d, _, _)| d).collect();
            let y: Vec<f64> = raw.iter().map(|&(_, v, _)| v).collect();
            let cases: Vec<bool> = raw.iter().map(|&(_, _, c)| c).collect();
            let packed = pack(&g);
            let mut byte_out = vec![0.0; n];
            let mut packed_out = vec![f64::NAN; n];
            for model in [GaussianScore::new(&y), GaussianScore::new(&y).permuted(&{
                let mut p: Vec<usize> = (0..n).collect();
                p.reverse();
                p
            })] {
                model.contributions_into(&g, &mut byte_out);
                prop_assert!(model.contributions_into_packed(&packed, &mut packed_out));
                prop_assert_eq!(&byte_out, &packed_out);
                let (u, v) = score_and_variance(&byte_out);
                let (up, vp) = score_and_variance(&packed_out);
                prop_assert_eq!(u.to_bits(), up.to_bits());
                prop_assert_eq!(v.to_bits(), vp.to_bits());
            }
            let binom = BinomialScore::new(&cases);
            binom.contributions_into(&g, &mut byte_out);
            prop_assert!(binom.contributions_into_packed(&packed, &mut packed_out));
            prop_assert_eq!(&byte_out, &packed_out);
        }

        /// The O(n) `permuted` agrees with rebuilding from the shuffled
        /// phenotypes (up to FP summation order within time ties).
        #[test]
        fn prop_cox_permuted_equals_fresh_sort(
            raw in proptest::collection::vec((0u8..20, any::<bool>(), 0u8..3), 2..40),
            seed in any::<u64>()
        ) {
            use rand::seq::SliceRandom;
            use rand::SeedableRng;
            // Coarse times force ties, the case where the relabeled order
            // can differ from a fresh sort.
            let ph: Vec<Survival> = raw.iter()
                .map(|&(t, e, _)| Survival { time: f64::from(t) / 4.0, event: e })
                .collect();
            let g: Vec<u8> = raw.iter().map(|&(_, _, d)| d).collect();
            let model = CoxScore::new(&ph);
            let mut perm: Vec<usize> = (0..raw.len()).collect();
            perm.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
            let fast = model.permuted(&perm);
            let shuffled: Vec<Survival> = perm.iter().map(|&p| ph[p]).collect();
            let fresh = CoxScore::new(&shuffled);
            prop_assert_eq!(&fast.rank_end, &fresh.rank_end);
            let a = fast.contributions(&g);
            let b = fresh.contributions(&g);
            for (x, y) in a.iter().zip(&b) {
                prop_assert!((x - y).abs() < 1e-9, "{x} vs {y}");
            }
        }

        /// Gaussian residual centering makes constant genotypes score zero.
        #[test]
        fn prop_gaussian_constant_genotype_zero(
            y in proptest::collection::vec(-100.0f64..100.0, 1..50),
            dose in 0u8..3
        ) {
            let model = GaussianScore::new(&y);
            let g = vec![dose; y.len()];
            prop_assert!(model.score(&g).abs() < 1e-7 * (1.0 + y.len() as f64));
        }
    }
}
