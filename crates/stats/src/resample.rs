//! Resampling inference — sequential reference implementations.
//!
//! These are the single-machine analogues of the paper's Algorithms 1
//! (observed SKAT), 2 (permutation resampling), and 3 (Lin's Monte Carlo
//! multiplier resampling). The distributed pipelines in `sparkscore-core`
//! are cross-checked against these oracles in the integration tests; they
//! are also useful in their own right for laptop-scale analyses.
//!
//! * **Permutation** (Westfall & Young): shuffle the phenotype pairs
//!   `(Y_i, Δ_i)` among patients and recompute *everything* per replicate.
//! * **Monte Carlo** (Lin 2005): draw `Z_i ~ N(0,1)` and perturb the
//!   *observed* contributions, `Ũ_j = Σ_i Z_i U_ij` — no recomputation of
//!   the score contributions, which is what makes RDD caching so effective.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::dist::fill_multipliers;
use crate::linalg::perturb_scores_blocked;
use crate::pvalue::{empirical_pvalue, StoppingRule};
use crate::score::ScoreModel;
use crate::skat::{skat_all, skat_statistic, SnpSet};

/// Default replicate-tile width K for the blocked Monte Carlo kernel:
/// each pass over the cached contribution matrix serves K replicates.
/// 32 keeps a 256-patient × K multiplier tile at 64 KiB (L1/L2-resident)
/// while amortizing the `U` stream 32×.
pub const MC_TILE: usize = 32;

/// A full resampling analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResamplingResult {
    /// Observed SKAT statistic per set (the paper's `S_k⁰`).
    pub observed: Vec<f64>,
    /// Per-set count of replicates with `S̃_k ≥ S_k⁰` (`counter_k`).
    pub counts_ge: Vec<usize>,
    /// Number of replicates `B`.
    pub num_replicates: usize,
}

impl ResamplingResult {
    /// Add-one empirical p-values per set.
    pub fn pvalues(&self) -> Vec<f64> {
        self.counts_ge
            .iter()
            .map(|&c| empirical_pvalue(c, self.num_replicates))
            .collect()
    }
}

/// Draw a uniformly random permutation of `0..n`.
pub fn random_permutation<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    perm.shuffle(rng);
    perm
}

/// Replicate `r`'s `n` Monte Carlo multipliers `Z[r][i] ~ N(0, 1)`
/// under `seed` ([`crate::dist::multiplier`]'s bits, patient by patient).
pub fn mc_weights(seed: u64, r: usize, n: usize) -> Vec<f64> {
    let mut z = vec![0.0f64; n];
    fill_multipliers(seed, r as u64, 0, 1, &mut z);
    z
}

/// Observed per-SNP scores `U_j` (Algorithm 1's marginal pass). One
/// contribution buffer is reused across SNPs via the allocation-free
/// kernel path.
fn observed_scores<M: ScoreModel>(model: &M, genotype_rows: &[Vec<u8>]) -> Vec<f64> {
    let mut buf = vec![0.0f64; model.num_patients()];
    genotype_rows
        .iter()
        .map(|g| {
            model.contributions_into(g, &mut buf);
            buf.iter().sum()
        })
        .collect()
}

/// Observed SKAT statistics per set (Algorithm 1 end-to-end).
pub fn observed_skat<M: ScoreModel>(
    model: &M,
    genotype_rows: &[Vec<u8>],
    weights: &[f64],
    sets: &[SnpSet],
) -> Vec<f64> {
    let scores = observed_scores(model, genotype_rows);
    skat_all(&scores, weights, sets)
}

/// Algorithm 3 (Monte Carlo): perturb the observed contributions with
/// standard-normal multipliers for `B` replicates. Runs the blocked
/// kernel at the default tile width [`MC_TILE`]; results are bitwise
/// identical to the one-pass-per-replicate reference for any tile width.
pub fn monte_carlo<M: ScoreModel>(
    model: &M,
    genotype_rows: &[Vec<u8>],
    weights: &[f64],
    sets: &[SnpSet],
    num_replicates: usize,
    seed: u64,
) -> ResamplingResult {
    monte_carlo_blocked(
        model,
        genotype_rows,
        weights,
        sets,
        num_replicates,
        seed,
        MC_TILE,
    )
}

/// Blocked Algorithm 3: replicates are processed in tiles of `tile`
/// multiplier vectors against the flat contribution matrix
/// (`perturb_scores_blocked`), so `U` is streamed from memory once per
/// `tile` replicates instead of once per replicate. The multipliers,
/// per-replicate perturbed scores, SKAT statistics, and exceedance counts
/// are all bitwise identical to the per-iteration path.
///
/// This is [`monte_carlo_adaptive`] with no stopping rule: one loop
/// serves both.
#[allow(clippy::too_many_arguments)]
pub fn monte_carlo_blocked<M: ScoreModel>(
    model: &M,
    genotype_rows: &[Vec<u8>],
    weights: &[f64],
    sets: &[SnpSet],
    num_replicates: usize,
    seed: u64,
    tile: usize,
) -> ResamplingResult {
    let run = tiled_oracle(
        model,
        genotype_rows,
        weights,
        sets,
        num_replicates,
        seed,
        tile,
        None,
    );
    ResamplingResult {
        observed: run.observed,
        counts_ge: run.counts_ge,
        num_replicates,
    }
}

/// Result of an adaptive (sequentially stopped) Monte Carlo analysis.
///
/// Unlike [`ResamplingResult`], each set carries its own replicate count:
/// `pvalues()[s]` is the add-one estimate over the `replicates_used[s]`
/// replicates set `s` saw before its [`StoppingRule`] decision (or the
/// full budget if it never stopped).
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveResult {
    /// Observed SKAT statistic per set.
    pub observed: Vec<f64>,
    /// Per-set exceedance count over that set's own replicates.
    pub counts_ge: Vec<usize>,
    /// Replicates each set consumed before stopping (≤ `max_replicates`).
    pub replicates_used: Vec<usize>,
    /// The fixed-B budget the run was capped at.
    pub max_replicates: usize,
    /// Row-replicate units of GEMM work actually performed: one unit is
    /// one SNP row perturbed for one replicate.
    pub replicates_run: u64,
    /// Row-replicate units the stopping rule avoided versus running every
    /// in-scope row for the full budget.
    pub replicates_saved: u64,
}

impl AdaptiveResult {
    /// Add-one empirical p-values, each over its set's own replicates.
    #[cfg(test)]
    fn pvalues(&self) -> Vec<f64> {
        self.counts_ge
            .iter()
            .zip(&self.replicates_used)
            .map(|(&c, &t)| empirical_pvalue(c, t))
            .collect()
    }
}

/// Adaptive Algorithm 3: [`monte_carlo_blocked`] tile rounds with a
/// per-set sequential [`StoppingRule`]. After every tile of `tile`
/// replicates each still-active set's running exceedance count is tested;
/// decided sets freeze their count and replicate tally and drop out of
/// the per-replicate SKAT pass.
///
/// Replicate `r` multiplies by `Z[r][·]` whichever sets remain active, so
/// replicates `1..=replicates_used[s]` of set `s` are **bitwise
/// identical** to the same replicates of the fixed-B oracle — adaptivity
/// only truncates, never re-randomizes. A rule that cannot
/// fire (e.g. `min_replicates > max_replicates`) therefore reproduces
/// [`monte_carlo_blocked`] exactly. This single-machine path is the
/// semantic oracle for the distributed grid's adaptive mode.
#[allow(clippy::too_many_arguments)]
pub fn monte_carlo_adaptive<M: ScoreModel>(
    model: &M,
    genotype_rows: &[Vec<u8>],
    weights: &[f64],
    sets: &[SnpSet],
    max_replicates: usize,
    seed: u64,
    tile: usize,
    rule: &StoppingRule,
) -> AdaptiveResult {
    tiled_oracle(
        model,
        genotype_rows,
        weights,
        sets,
        max_replicates,
        seed,
        tile,
        Some(rule),
    )
}

/// The one sequential tiled loop behind [`monte_carlo_blocked`] (`rule:
/// None` — no set is ever decided, every tile runs) and
/// [`monte_carlo_adaptive`].
#[allow(clippy::too_many_arguments)]
fn tiled_oracle<M: ScoreModel>(
    model: &M,
    genotype_rows: &[Vec<u8>],
    weights: &[f64],
    sets: &[SnpSet],
    max_replicates: usize,
    seed: u64,
    tile: usize,
    rule: Option<&StoppingRule>,
) -> AdaptiveResult {
    assert!(tile > 0, "tile width must be positive");
    let n = model.num_patients();
    let m = genotype_rows.len();
    // The "cached U RDD" as one flat row-major m × n matrix, built through
    // the allocation-free kernel (one write slice per SNP, no temporaries).
    let mut contribs = vec![0.0f64; m * n];
    for (g, row) in genotype_rows.iter().zip(contribs.chunks_exact_mut(n)) {
        model.contributions_into(g, row);
    }
    let scores: Vec<f64> = contribs.chunks_exact(n).map(|c| c.iter().sum()).collect();
    let observed = skat_all(&scores, weights, sets);

    // The set each SNP's work is charged to (`usize::MAX`: in no set) —
    // the same table the distributed grid keeps. In-scope rows are the
    // work the fixed-B budget would spend, in row-replicate units.
    let mut set_of_snp = vec![usize::MAX; m];
    for (s, set) in sets.iter().enumerate() {
        for &j in &set.members {
            set_of_snp[j] = s;
        }
    }
    let scope_rows = set_of_snp.iter().filter(|&&s| s != usize::MAX).count();

    let mut counts = vec![0usize; sets.len()];
    let mut used = vec![0usize; sets.len()];
    let mut decided = vec![false; sets.len()];
    let mut replicates_run = 0u64;
    let mut z_tile = vec![0.0f64; n * tile];
    let mut tile_out = vec![0.0f64; m * tile];
    let mut perturbed = vec![0.0f64; m];
    let mut done = 0;
    while done < max_replicates && decided.iter().any(|d| !d) {
        let k = tile.min(max_replicates - done);
        // The tile's multipliers in the patient-major layout the kernel
        // reads.
        fill_multipliers(seed, done as u64, 0, k, &mut z_tile[..n * k]);
        perturb_scores_blocked(&contribs, m, n, &z_tile[..n * k], k, &mut tile_out[..m * k]);
        let active_rows = set_of_snp
            .iter()
            .filter(|&&s| s != usize::MAX && !decided[s])
            .count();
        replicates_run += (active_rows * k) as u64;
        for kk in 0..k {
            for (j, p) in perturbed.iter_mut().enumerate() {
                *p = tile_out[j * k + kk];
            }
            for (s, set) in sets.iter().enumerate() {
                if !decided[s] && skat_statistic(&perturbed, weights, set) >= observed[s] {
                    counts[s] += 1;
                }
            }
        }
        done += k;
        for s in 0..sets.len() {
            if !decided[s] {
                used[s] = done;
                decided[s] = rule.is_some_and(|rule| rule.decided(counts[s], done));
            }
        }
    }
    let potential = (scope_rows * max_replicates) as u64;
    AdaptiveResult {
        observed,
        counts_ge: counts,
        replicates_used: used,
        max_replicates,
        replicates_run,
        replicates_saved: potential.saturating_sub(replicates_run),
    }
}

/// Algorithm 2 (permutation): shuffle the phenotype pairs and recompute the
/// full score pass per replicate. `rebuild(perm)` must return the model for
/// the shuffled phenotypes (e.g. [`crate::score::CoxScore::permuted`]).
pub fn permutation<M, F>(
    model: &M,
    rebuild: F,
    genotype_rows: &[Vec<u8>],
    weights: &[f64],
    sets: &[SnpSet],
    num_replicates: usize,
    seed: u64,
) -> ResamplingResult
where
    M: ScoreModel,
    F: Fn(&[usize]) -> M,
{
    let n = model.num_patients();
    let observed = observed_skat(model, genotype_rows, weights, sets);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counts = vec![0usize; sets.len()];
    for _ in 0..num_replicates {
        let perm = random_permutation(&mut rng, n);
        let shuffled = rebuild(&perm);
        let replicate = observed_skat(&shuffled, genotype_rows, weights, sets);
        for (k, (&rep, &obs)) in replicate.iter().zip(&observed).enumerate() {
            if rep >= obs {
                counts[k] += 1;
            }
        }
    }
    ResamplingResult {
        observed,
        counts_ge: counts,
        num_replicates,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::sample_standard_normal;
    use crate::score::{CoxScore, GaussianScore, Survival};

    /// The pre-blocking Algorithm 3 reference: one full pass over the cached
    /// contributions per replicate, each perturbed score one `mul_add` chain
    /// from `+0.0` in patient order (the kernel's contract, DESIGN §3d).
    /// Kept as the oracle the blocked kernel is tested against.
    fn monte_carlo_per_iteration<M: ScoreModel>(
        model: &M,
        genotype_rows: &[Vec<u8>],
        weights: &[f64],
        sets: &[SnpSet],
        num_replicates: usize,
        seed: u64,
    ) -> ResamplingResult {
        let n = model.num_patients();
        let contribs: Vec<Vec<f64>> = genotype_rows
            .iter()
            .map(|g| model.contributions(g))
            .collect();
        let scores: Vec<f64> = contribs.iter().map(|c| c.iter().sum()).collect();
        let observed = skat_all(&scores, weights, sets);

        let mut counts = vec![0usize; sets.len()];
        let mut perturbed = vec![0.0f64; genotype_rows.len()];
        for r in 0..num_replicates {
            let z = mc_weights(seed, r, n);
            for (j, c) in contribs.iter().enumerate() {
                perturbed[j] = c
                    .iter()
                    .zip(&z)
                    .fold(0.0, |acc, (u, zi)| u.mul_add(*zi, acc));
            }
            let replicate = skat_all(&perturbed, weights, sets);
            for (k, (&rep, &obs)) in replicate.iter().zip(&observed).enumerate() {
                if rep >= obs {
                    counts[k] += 1;
                }
            }
        }
        ResamplingResult {
            observed,
            counts_ge: counts,
            num_replicates,
        }
    }

    fn tiny_cohort() -> (CoxScore, Vec<Vec<u8>>, Vec<f64>, Vec<SnpSet>) {
        let ph = vec![
            Survival::event_at(1.0),
            Survival::event_at(4.0),
            Survival::censored_at(2.0),
            Survival::event_at(8.0),
            Survival::event_at(3.0),
            Survival::censored_at(6.0),
        ];
        let rows = vec![
            vec![0u8, 1, 2, 0, 1, 2],
            vec![2u8, 2, 0, 1, 0, 1],
            vec![1u8, 0, 1, 2, 2, 0],
            vec![0u8, 0, 1, 1, 2, 2],
        ];
        let weights = vec![1.0, 0.5, 2.0, 1.0];
        let sets = vec![SnpSet::new(0, vec![0, 1]), SnpSet::new(1, vec![2, 3])];
        (CoxScore::new(&ph), rows, weights, sets)
    }

    #[test]
    fn observed_skat_matches_manual_composition() {
        let (model, rows, weights, sets) = tiny_cohort();
        let scores = observed_scores(&model, &rows);
        let skat = observed_skat(&model, &rows, &weights, &sets);
        assert_eq!(
            skat[0],
            weights[0].powi(2) * scores[0].powi(2) + weights[1].powi(2) * scores[1].powi(2)
        );
        assert_eq!(skat.len(), 2);
    }

    #[test]
    fn mc_observed_matches_algorithm1() {
        let (model, rows, weights, sets) = tiny_cohort();
        let res = monte_carlo(&model, &rows, &weights, &sets, 10, 42);
        assert_eq!(res.observed, observed_skat(&model, &rows, &weights, &sets));
        assert_eq!(res.num_replicates, 10);
    }

    #[test]
    fn mc_blocked_is_bitwise_identical_to_per_iteration() {
        // Any tile width — including 1, a width that doesn't divide B, and
        // the default — must reproduce the per-iteration path exactly
        // (same RNG stream, same statistics, same counts).
        let (model, rows, weights, sets) = tiny_cohort();
        let reference = monte_carlo_per_iteration(&model, &rows, &weights, &sets, 101, 42);
        for tile in [1, 3, MC_TILE] {
            let blocked = monte_carlo_blocked(&model, &rows, &weights, &sets, 101, 42, tile);
            assert_eq!(blocked, reference, "tile={tile}");
        }
        assert_eq!(
            monte_carlo(&model, &rows, &weights, &sets, 101, 42),
            reference
        );
    }

    #[test]
    fn mc_is_deterministic_per_seed() {
        let (model, rows, weights, sets) = tiny_cohort();
        let a = monte_carlo(&model, &rows, &weights, &sets, 50, 7);
        let b = monte_carlo(&model, &rows, &weights, &sets, 50, 7);
        assert_eq!(a, b);
        let c = monte_carlo(&model, &rows, &weights, &sets, 50, 8);
        // Different seed should (almost surely) differ somewhere.
        assert!(a.counts_ge != c.counts_ge || a.observed == c.observed);
    }

    #[test]
    fn permutation_is_deterministic_per_seed() {
        let (model, rows, weights, sets) = tiny_cohort();
        let a = permutation(&model, |p| model.permuted(p), &rows, &weights, &sets, 20, 3);
        let b = permutation(&model, |p| model.permuted(p), &rows, &weights, &sets, 20, 3);
        assert_eq!(a, b);
    }

    #[test]
    fn pvalues_in_unit_interval_and_match_counts() {
        let (model, rows, weights, sets) = tiny_cohort();
        let res = monte_carlo(&model, &rows, &weights, &sets, 99, 5);
        let ps = res.pvalues();
        for (p, &c) in ps.iter().zip(&res.counts_ge) {
            assert!((0.0..=1.0).contains(p));
            assert_eq!(*p, (c + 1) as f64 / 100.0);
        }
    }

    #[test]
    fn null_data_gives_uniform_ish_pvalues() {
        // Pure-null Gaussian trait: p-values should not pile up near zero.
        let mut rng = StdRng::seed_from_u64(1234);
        let n = 60;
        let y: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let rows: Vec<Vec<u8>> = (0..30)
            .map(|_| (0..n).map(|_| rng.gen_range(0u8..3)).collect())
            .collect();
        let weights = vec![1.0; 30];
        let sets: Vec<SnpSet> = (0..10)
            .map(|k| SnpSet::new(k as u64, (3 * k..3 * k + 3).collect()))
            .collect();
        let model = GaussianScore::new(&y);
        let res = monte_carlo(&model, &rows, &weights, &sets, 200, 99);
        let ps = res.pvalues();
        let small = ps.iter().filter(|&&p| p < 0.05).count();
        assert!(
            small <= 3,
            "under the null, few of 10 sets should have p < 0.05 (got {small}: {ps:?})"
        );
    }

    #[test]
    fn planted_association_is_detected_by_both_methods() {
        // Trait strongly follows SNP 0's dosage: set containing SNP 0 must
        // get a small p-value; a pure-noise set must not.
        let mut rng = StdRng::seed_from_u64(77);
        let n = 80;
        let causal: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..3)).collect();
        let y: Vec<f64> = causal
            .iter()
            .map(|&g| 3.0 * f64::from(g) + 0.3 * sample_standard_normal(&mut rng))
            .collect();
        let noise: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..3)).collect();
        let rows = vec![causal, noise];
        let weights = vec![1.0, 1.0];
        let sets = vec![SnpSet::new(0, vec![0]), SnpSet::new(1, vec![1])];
        let model = GaussianScore::new(&y);

        let mc = monte_carlo(&model, &rows, &weights, &sets, 199, 5).pvalues();
        assert!(mc[0] <= 0.01, "causal set must be significant (mc: {mc:?})");
        assert!(mc[1] > 0.05, "noise set must not be (mc: {mc:?})");

        let perm = permutation(
            &model,
            |p| model.permuted(p),
            &rows,
            &weights,
            &sets,
            199,
            6,
        )
        .pvalues();
        assert!(perm[0] <= 0.01, "causal set (perm: {perm:?})");
        assert!(perm[1] > 0.05, "noise set (perm: {perm:?})");
    }

    #[test]
    fn mc_and_permutation_agree_on_null_data() {
        // The two schemes are asymptotically equivalent; at n = 200 their
        // p-values on null data should agree coarsely (they can differ
        // substantially in very small samples — that is expected and is
        // precisely why both are offered).
        let mut rng = StdRng::seed_from_u64(2024);
        let n = 200;
        let y: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let rows: Vec<Vec<u8>> = (0..8)
            .map(|_| (0..n).map(|_| rng.gen_range(0u8..3)).collect())
            .collect();
        let weights = vec![1.0; 8];
        let sets = vec![
            SnpSet::new(0, vec![0, 1, 2, 3]),
            SnpSet::new(1, vec![4, 5, 6, 7]),
        ];
        let model = GaussianScore::new(&y);
        let mc = monte_carlo(&model, &rows, &weights, &sets, 400, 1).pvalues();
        let pm = permutation(
            &model,
            |p| model.permuted(p),
            &rows,
            &weights,
            &sets,
            400,
            2,
        )
        .pvalues();
        for (a, b) in mc.iter().zip(&pm) {
            assert!(
                (a - b).abs() < 0.2,
                "MC ({a}) and permutation ({b}) should roughly agree on the null"
            );
        }
    }

    #[test]
    fn adaptive_with_unreachable_rule_matches_fixed_b_exactly() {
        // A rule that can never fire reduces the adaptive path to the
        // fixed-B oracle: same counts, every set consuming the full budget.
        let (model, rows, weights, sets) = tiny_cohort();
        let rule = StoppingRule::new(1000, 0.05, 0.01);
        let adaptive = monte_carlo_adaptive(&model, &rows, &weights, &sets, 120, 42, 7, &rule);
        let oracle = monte_carlo_blocked(&model, &rows, &weights, &sets, 120, 42, 7);
        assert_eq!(adaptive.observed, oracle.observed);
        assert_eq!(adaptive.counts_ge, oracle.counts_ge);
        assert_eq!(adaptive.replicates_used, vec![120, 120]);
        assert_eq!(adaptive.replicates_saved, 0);
        assert_eq!(adaptive.replicates_run, 4 * 120);
    }

    #[test]
    fn adaptive_truncation_is_bitwise_prefix_of_oracle() {
        // Whatever prefix a set consumes, its count over that prefix must
        // equal the oracle's count over the same prefix — adaptivity only
        // truncates the replicate stream, never re-randomizes it.
        let (model, rows, weights, sets) = tiny_cohort();
        let rule = StoppingRule::new(30, 0.05, 0.2);
        let adaptive = monte_carlo_adaptive(&model, &rows, &weights, &sets, 200, 11, 10, &rule);
        for (s, &t) in adaptive.replicates_used.iter().enumerate() {
            let prefix = monte_carlo_blocked(&model, &rows, &weights, &sets, t, 11, 10);
            assert_eq!(
                adaptive.counts_ge[s], prefix.counts_ge[s],
                "set {s} over its {t}-replicate prefix"
            );
        }
    }

    #[test]
    fn adaptive_stops_clearly_null_and_clearly_significant_sets_early() {
        // Planted causal set (p ≈ 1/B) and pure-noise set (p far from
        // alpha): both should curtail at or near the floor, far below the
        // budget, while agreeing with the oracle's significance call.
        let mut rng = StdRng::seed_from_u64(77);
        let n = 80;
        let causal: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..3)).collect();
        let y: Vec<f64> = causal
            .iter()
            .map(|&g| 3.0 * f64::from(g) + 0.3 * sample_standard_normal(&mut rng))
            .collect();
        let noise: Vec<u8> = (0..n).map(|_| rng.gen_range(0u8..3)).collect();
        let rows = vec![causal, noise];
        let weights = vec![1.0, 1.0];
        let sets = vec![SnpSet::new(0, vec![0]), SnpSet::new(1, vec![1])];
        let model = GaussianScore::new(&y);

        let budget = 2000;
        let rule = StoppingRule::new(60, 0.05, 0.01);
        let adaptive =
            monte_carlo_adaptive(&model, &rows, &weights, &sets, budget, 5, MC_TILE, &rule);
        let oracle = monte_carlo_blocked(&model, &rows, &weights, &sets, budget, 5, MC_TILE);
        let pa = adaptive.pvalues();
        let po = oracle.pvalues();
        for s in 0..2 {
            assert!(
                adaptive.replicates_used[s] <= budget / 10,
                "set {s} should stop early (used {} of {budget})",
                adaptive.replicates_used[s]
            );
            assert_eq!(
                pa[s] <= 0.05,
                po[s] <= 0.05,
                "significance call must match the oracle (adaptive {pa:?}, oracle {po:?})"
            );
        }
        assert!(
            adaptive.replicates_saved >= 9 * adaptive.replicates_run,
            "clear sets should save ≥ 90% of the budgeted work (run {}, saved {})",
            adaptive.replicates_run,
            adaptive.replicates_saved
        );
    }

    mod adaptive_props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Adaptive p-values agree with the fixed-B oracle to within the
        /// two estimates' combined CI widths (with slack for the
        /// sequential looks and the add-one bias) across random models.
        #[test]
        fn prop_adaptive_within_combined_ci_of_oracle(
            seed in 0u64..1_000,
            data_seed in 0u64..1_000,
        ) {
            let mut rng = StdRng::seed_from_u64(data_seed);
            let n = 40;
            let m = 12;
            let y: Vec<f64> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
            let rows: Vec<Vec<u8>> = (0..m)
                .map(|_| (0..n).map(|_| rng.gen_range(0u8..3)).collect())
                .collect();
            let weights = vec![1.0; m];
            let sets: Vec<SnpSet> = (0..m / 3)
                .map(|k| SnpSet::new(k as u64, (3 * k..3 * k + 3).collect()))
                .collect();
            let model = GaussianScore::new(&y);

            let budget = 300;
            let rule = StoppingRule::new(80, 0.05, 0.05);
            let adaptive =
                monte_carlo_adaptive(&model, &rows, &weights, &sets, budget, seed, MC_TILE, &rule);
            let oracle = monte_carlo_blocked(&model, &rows, &weights, &sets, budget, seed, MC_TILE);
            let pa = adaptive.pvalues();
            let po = oracle.pvalues();
            for s in 0..sets.len() {
                let t = adaptive.replicates_used[s];
                prop_assert!(t >= rule.min_replicates.min(budget) && t <= budget);
                prop_assert!(adaptive.counts_ge[s] <= t);
                let w_adaptive = rule.ci_half_width(adaptive.counts_ge[s], t);
                let w_oracle = rule.ci_half_width(oracle.counts_ge[s], budget);
                let bound = 2.5 * (w_adaptive + w_oracle) + 0.02;
                prop_assert!(
                    (pa[s] - po[s]).abs() <= bound,
                    "set {}: adaptive p {} vs oracle p {} exceeds bound {}",
                    s, pa[s], po[s], bound
                );
            }
        }
        }
    }

    #[test]
    fn random_permutation_is_a_permutation() {
        let mut rng = StdRng::seed_from_u64(0);
        let p = random_permutation(&mut rng, 100);
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn mc_weights_have_unit_scale() {
        let z = mc_weights(9, 0, 50_000);
        let var = z.iter().map(|x| x * x).sum::<f64>() / z.len() as f64;
        assert!((var - 1.0).abs() < 0.03, "MC weights variance {var}");
    }
}
