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
/// The per-patient tables are built once, in [`CoxScore::new`] and
/// [`CoxScore::permuted`], in the shapes the vectorized kernel reads:
/// 16 + 4 + 4 + 8 + 8 = 40 B per patient.
#[derive(Debug, Clone)]
pub struct CoxScore {
    phenotypes: Vec<Survival>,
    /// Patient indices sorted by time descending (ties by index); every
    /// entry is `< n`.
    order: Vec<u32>,
    /// Per patient: `b_i` = |{l : Y_l ≥ Y_i}|, which is also the length of
    /// the descending-order prefix covering the risk set; `1 ≤ b_i ≤ n`.
    rank_end: Vec<u32>,
    /// Per patient: `RN(1 / b_i)`, the reciprocal the kernel's quotient
    /// is corrected from.
    inv_risk: Vec<f64>,
    /// Per patient: `u64::MAX` for an event, `0` for a censored patient —
    /// the bits of the contribution that survive.
    event_mask: Vec<u64>,
}

/// The largest cohort [`CoxScore`] accepts: every index and risk-set
/// bound fits a `u32`, and so does every dosage prefix sum (at most `2n`).
const COX_MAX_PATIENTS: usize = (u32::MAX / 2) as usize;

fn event_mask(phenotypes: &[Survival]) -> Vec<u64> {
    phenotypes
        .iter()
        .map(|p| if p.event { u64::MAX } else { 0 })
        .collect()
}

impl CoxScore {
    pub fn new(phenotypes: &[Survival]) -> Self {
        assert!(!phenotypes.is_empty(), "need at least one patient");
        let n = phenotypes.len();
        assert!(
            n <= COX_MAX_PATIENTS,
            "{n} patients: the Cox tables index with u32"
        );
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by(|&a, &b| {
            phenotypes[b as usize]
                .time
                .partial_cmp(&phenotypes[a as usize].time)
                .expect("survival times must not be NaN")
                .then(a.cmp(&b))
        });
        // Descending times; rank_end[i] = #\{l: Y_l >= Y_i\} = index one past
        // the last sorted position whose time >= Y_i.
        let sorted_times: Vec<f64> = order.iter().map(|&i| phenotypes[i as usize].time).collect();
        let rank_end: Vec<u32> = phenotypes
            .iter()
            .map(|p| {
                // partition_point: first k where sorted_times[k] < Y_i.
                let end = sorted_times.partition_point(|&y| y >= p.time);
                debug_assert!(end >= 1);
                end as u32
            })
            .collect();
        CoxScore {
            phenotypes: phenotypes.to_vec(),
            order,
            inv_risk: rank_end.iter().map(|&b| 1.0 / f64::from(b)).collect(),
            rank_end,
            event_mask: event_mask(phenotypes),
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
    /// Patients tied on time may appear in a different relative order than
    /// a fresh sort would produce, but `rank_end` always lands on a
    /// tie-group boundary, so every risk set sums the same dosages. That
    /// sum is of small integers, exact in any order, so the contributions
    /// equal those of [`CoxScore::new`] on the shuffled phenotypes bit for
    /// bit, ties included.
    pub fn permuted(&self, perm: &[usize]) -> CoxScore {
        let n = self.phenotypes.len();
        assert_eq!(perm.len(), n);
        let shuffled: Vec<Survival> = perm.iter().map(|&p| self.phenotypes[p]).collect();
        let mut inv_perm = vec![0u32; n];
        for (i, &p) in perm.iter().enumerate() {
            inv_perm[p] = i as u32;
        }
        let order: Vec<u32> = self.order.iter().map(|&o| inv_perm[o as usize]).collect();
        CoxScore {
            event_mask: event_mask(&shuffled),
            phenotypes: shuffled,
            order,
            rank_end: perm.iter().map(|&p| self.rank_end[p]).collect(),
            inv_risk: perm.iter().map(|&p| self.inv_risk[p]).collect(),
        }
    }
}

/// The Cox kernel compiled for the running CPU: the AVX-512 arm, the AVX2
/// arm or the baseline body, widest first.
fn cox_contributions(model: &CoxScore, g: &[u8], prefix: &mut [f64], out: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: `cox_contributions_avx512` requires only that the
            // running CPU supports AVX-512F, which the detection on the
            // line above just reported.
            return unsafe { cox_contributions_avx512(model, g, prefix, out) };
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: `cox_contributions_avx2` requires only that the
            // running CPU supports AVX2 and FMA, which the detection on
            // the line above just reported.
            return unsafe { cox_contributions_avx2(model, g, prefix, out) };
        }
    }
    cox_contributions_body(model, g, prefix, out);
}

/// [`cox_contributions_body`] compiled with 512-bit vectors: an 8-lane
/// gather and fused multiply-adds. `scripts/ci.sh` disassembles the release
/// build and fails unless this arm holds a `zmm` FMA and a `zmm` gather, and
/// no `vdivpd`.
///
/// # Safety
///
/// The running CPU must support AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn cox_contributions_avx512(
    model: &CoxScore,
    g: &[u8],
    prefix: &mut [f64],
    out: &mut [f64],
) {
    cox_contributions_body(model, g, prefix, out);
}

/// [`cox_contributions_body`] compiled with 256-bit vectors. Without `fma`
/// each `mul_add` would be a call, so `scripts/ci.sh` fails unless this arm
/// holds a `ymm` FMA and no call to `fma`.
///
/// # Safety
///
/// The running CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn cox_contributions_avx2(model: &CoxScore, g: &[u8], prefix: &mut [f64], out: &mut [f64]) {
    cox_contributions_body(model, g, prefix, out);
}

/// The kernel proper. Bitwise contract, the same in every arm: the prefix
/// is a running `u32` sum of dosages stored as `f64` — every partial sum is
/// an integer below 2³², so it equals the sequential `f64` sum exactly —
/// and each patient's contribution is `G_i − prefix[b_i] / b_i`, the
/// quotient's bits taken from the stored reciprocal without a divide
/// ([`corrected_quotient`]), masked to `+0.0` for a censored patient. No
/// branch and no bounds check in the output loop, so it compiles to a
/// gather and vector FMAs.
#[inline(always)]
fn cox_contributions_body(model: &CoxScore, g: &[u8], prefix: &mut [f64], out: &mut [f64]) {
    let n = model.phenotypes.len();
    assert_eq!(g.len(), n, "genotype vector length mismatch");
    assert_eq!(out.len(), n, "output vector length mismatch");
    assert_eq!(prefix.len(), n + 1, "prefix length");
    let CoxScore {
        order,
        rank_end,
        inv_risk,
        event_mask,
        ..
    } = model;
    debug_assert!(order.iter().all(|&k| (k as usize) < n));
    debug_assert!(rank_end.iter().all(|&b| b >= 1 && b as usize <= n));
    let mut acc = 0u32;
    for (p, &k) in prefix[1..].iter_mut().zip(order) {
        // SAFETY: every `order[k] < n`: `CoxScore::new` fills it with
        // `0..n`, and `CoxScore::permuted` with entries of an `n`-long
        // inverse permutation, each a patient index; `g.len() == n` was
        // asserted above.
        acc += u32::from(unsafe { *g.get_unchecked(k as usize) });
        *p = f64::from(acc);
    }
    for ((((o, &gi), &end), &y), &mask) in out
        .iter_mut()
        .zip(g)
        .zip(rank_end)
        .zip(inv_risk)
        .zip(event_mask)
    {
        // SAFETY: every `rank_end[i]` is a risk-set size, `1 ≤ b_i ≤ n`
        // (a partition point of the `n` sorted times in `CoxScore::new`,
        // carried through a permutation by `CoxScore::permuted`), and
        // `prefix.len() == n + 1` was asserted above.
        let a = unsafe { *prefix.get_unchecked(end as usize) };
        let v = f64::from(gi) - corrected_quotient(a, f64::from(end), y);
        *o = f64::from_bits(v.to_bits() & mask);
    }
}

/// `RN(a / b)` from `y = RN(1 / b)` without a divide: `q₀ = RN(a·y)`, then
/// one correction from the remainder `a − q₀·b`, which the first fused
/// multiply-add computes exactly. For the kernel's operands, integers with
/// `0 ≤ a ≤ 2b` and `1 ≤ b ≤ COX_MAX_PATIENTS`, `a / b` lies far enough
/// from every rounding midpoint that the corrected `q` is the quotient's
/// bits (Markstein, IBM J. Res. Dev. 34(1), 1990; Muller et al.,
/// *Handbook of Floating-Point Arithmetic*, §4.7). `mul_add` is one
/// instruction only where the arm enables `fma`; elsewhere it is a call
/// to the `fma` routine, with the same bits.
#[inline(always)]
fn corrected_quotient(a: f64, b: f64, y: f64) -> f64 {
    let q0 = a * y;
    (-q0).mul_add(b, a).mul_add(y, q0)
}

impl ScoreModel for CoxScore {
    fn num_patients(&self) -> usize {
        self.phenotypes.len()
    }

    fn contributions_into(&self, g: &[u8], out: &mut [f64]) {
        let n = self.phenotypes.len();
        debug_assert_dosages(g);
        // prefix[k] = sum of genotypes of the k patients with largest times,
        // built in thread-local scratch (reused across tasks on a worker).
        scratch::with_f64(n + 1, |prefix| {
            cox_contributions(self, g, prefix, out);
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

    /// The two-loop `f64` kernel the vectorized arms replaced, kept as
    /// their bitwise oracle: its own sort of the phenotypes, an `f64`
    /// prefix chain, then a branch per patient and a scalar divide.
    fn cox_two_loop(phenotypes: &[Survival], g: &[u8]) -> Vec<f64> {
        let n = phenotypes.len();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&a, &b| {
            phenotypes[b]
                .time
                .partial_cmp(&phenotypes[a].time)
                .unwrap()
                .then(a.cmp(&b))
        });
        let sorted_times: Vec<f64> = order.iter().map(|&i| phenotypes[i].time).collect();
        let mut prefix = vec![0.0f64; n + 1];
        let mut acc = 0.0f64;
        for (p, &idx) in prefix[1..].iter_mut().zip(&order) {
            acc += f64::from(g[idx]);
            *p = acc;
        }
        phenotypes
            .iter()
            .zip(g)
            .map(|(ph, &gi)| {
                if ph.event {
                    let end = sorted_times.partition_point(|&y| y >= ph.time);
                    f64::from(gi) - prefix[end] / end as f64
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Every compilation of the Cox kernel the running CPU can execute,
    /// each called directly on a NaN-filled prefix and output, plus the
    /// dispatched `contributions`: `(arm, output)` pairs.
    fn cox_arms(model: &CoxScore, g: &[u8]) -> Vec<(&'static str, Vec<f64>)> {
        let n = g.len();
        let run = |arm: &dyn Fn(&mut [f64], &mut [f64])| {
            let mut prefix = vec![f64::NAN; n + 1];
            let mut out = vec![f64::NAN; n];
            arm(&mut prefix, &mut out);
            out
        };
        let mut arms = vec![
            ("dispatched", model.contributions(g)),
            ("plain", run(&|p, o| cox_contributions_body(model, g, p, o))),
        ];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                // SAFETY: the CPU reported AVX2 and FMA on the line above.
                let avx2 = run(&|p, o| unsafe { cox_contributions_avx2(model, g, p, o) });
                arms.push(("avx2", avx2));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: the CPU reported AVX-512F on the line above.
                let avx512 = run(&|p, o| unsafe { cox_contributions_avx512(model, g, p, o) });
                arms.push(("avx512", avx512));
            }
        }
        arms
    }

    fn assert_same_bits(got: &[f64], want: &[f64], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (at, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(
                g.to_bits(),
                w.to_bits(),
                "{what}: patient {at} is {g:e}, want {w:e}"
            );
        }
    }

    /// Every arm against the oracle, on `phenotypes` and `g`.
    fn assert_every_cox_arm_is_the_oracle(phenotypes: &[Survival], g: &[u8]) {
        let want = cox_two_loop(phenotypes, g);
        let model = CoxScore::new(phenotypes);
        for (arm, out) in cox_arms(&model, g) {
            assert_same_bits(&out, &want, &format!("{arm} at n = {}", g.len()));
        }
    }

    /// A seeded cohort of `n` patients: times on a grid of `distinct_times`
    /// values (so ties are common when it is small), events with
    /// probability `event_per_4 / 4`, dosages 0/1/2.
    fn cox_cohort(
        n: usize,
        distinct_times: u32,
        event_per_4: u32,
        seed: u64,
    ) -> (Vec<Survival>, Vec<u8>) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let ph = (0..n)
            .map(|_| Survival {
                time: f64::from(rng.gen_range(0..distinct_times)) / 8.0,
                event: rng.gen_range(0u32..4) < event_per_4,
            })
            .collect();
        let g = (0..n).map(|_| rng.gen_range(0u8..3)).collect();
        (ph, g)
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
        // Patient 0 is censored with dosage 0 under a risk set averaging
        // 1: its masked contribution is +0.0 in every arm, not the -0.0
        // of `v * 0.0`.
        let ph = vec![Survival::censored_at(1.0), Survival::event_at(2.0)];
        let model = CoxScore::new(&ph);
        for (arm, out) in cox_arms(&model, &[0, 2]) {
            assert_eq!(out[0].to_bits(), 0.0f64.to_bits(), "{arm}");
        }
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
    fn every_cox_arm_is_the_oracle_at_the_benchmark_sizes() {
        for (n, distinct_times) in [(1000usize, 50u32), (1000, 100_000), (2000, 200)] {
            for event_per_4 in [0, 2, 3, 4] {
                let (ph, g) = cox_cohort(n, distinct_times, event_per_4, n as u64);
                assert_every_cox_arm_is_the_oracle(&ph, &g);
            }
        }
    }

    /// Whether the kernel's quotient of `a` by `b` has the bits of `a / b`.
    fn quotient_is_exact(a: u64, b: u64) -> bool {
        let (a, b) = (a as f64, b as f64);
        corrected_quotient(a, b, 1.0 / b).to_bits() == (a / b).to_bits()
    }

    #[test]
    fn corrected_quotient_is_the_divide_for_every_small_risk_set() {
        // Every dosage sum `a ≤ 2n` over every risk-set size `b ≤ n`:
        // 32,004,000 pairs, of which `a · (1 / b)` alone gets 8,075,008
        // wrong.
        let n = 4000u64;
        for b in 1..=n {
            for a in 0..=2 * n {
                assert!(quotient_is_exact(a, b), "{a} / {b}");
            }
        }
    }

    #[test]
    fn cox_tables_hold_40_bytes_per_patient() {
        // The per-patient footprint `Model::estimate_bytes` charges.
        let (ph, _) = cox_cohort(100, 10, 2, 1);
        let m = CoxScore::new(&ph);
        let bytes = std::mem::size_of_val(m.phenotypes.as_slice())
            + std::mem::size_of_val(m.order.as_slice())
            + std::mem::size_of_val(m.rank_end.as_slice())
            + std::mem::size_of_val(m.inv_risk.as_slice())
            + std::mem::size_of_val(m.event_mask.as_slice());
        assert_eq!(bytes, 40 * 100);
    }

    #[test]
    fn cox_permuted_is_the_fresh_model_bit_for_bit_on_ties() {
        // Four tie groups, so the relabeled order differs from a fresh
        // sort inside every group; the integer prefix makes it invisible.
        let (ph, g) = cox_cohort(64, 4, 3, 7);
        let model = CoxScore::new(&ph);
        let perm: Vec<usize> = (0..64).map(|i| (i * 37 + 11) % 64).collect();
        let shuffled: Vec<Survival> = perm.iter().map(|&p| ph[p]).collect();
        let fast = model.permuted(&perm);
        let fresh = CoxScore::new(&shuffled);
        assert_ne!(
            fast.order, fresh.order,
            "the cohort must exercise tie order"
        );
        assert_same_bits(
            &fast.contributions(&g),
            &fresh.contributions(&g),
            "permuted",
        );
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

        /// Every compilation of the Cox kernel reproduces the two-loop
        /// oracle bit for bit: n from 1 to 70 crosses every arm's vector
        /// tail (4 lanes in AVX2, 8 in AVX-512), coarse times force ties,
        /// and whole cohorts may be censored or all events.
        #[test]
        fn prop_every_cox_arm_is_the_oracle_bit_for_bit(
            n in 1usize..=70,
            distinct_times in 1u32..40,
            event_per_4 in 0u32..=4,
            seed in any::<u64>(),
        ) {
            let (ph, g) = cox_cohort(n, distinct_times, event_per_4, seed);
            assert_every_cox_arm_is_the_oracle(&ph, &g);
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
        /// phenotypes bit for bit, time ties included.
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
            assert_same_bits(&fast.contributions(&g), &fresh.contributions(&g), "permuted");
        }

        /// The corrected quotient is the divide over the whole range the
        /// Cox tables admit: `1 ≤ b ≤ COX_MAX_PATIENTS`, `0 ≤ a ≤ 2b`.
        #[test]
        fn prop_corrected_quotient_is_the_divide(
            b in 1u64..=COX_MAX_PATIENTS as u64,
            a_seed in any::<u64>(),
        ) {
            let a = a_seed % (2 * b + 1);
            prop_assert!(quotient_is_exact(a, b), "{} / {}", a, b);
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
