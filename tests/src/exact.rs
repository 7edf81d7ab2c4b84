//! Exact permutation inference for tiny cohorts.
//!
//! The paper's motivation for resampling is approximating "the exact
//! sampling distribution" when asymptotics fail. For very small `n` the
//! exact distribution is *computable*: enumerate all `n!` phenotype
//! assignments. This module does so (for `n ≤ MAX_EXACT_N`), providing
//! ground truth the Monte Carlo and sampled-permutation schemes are tested
//! to converge to — the calibration story of the whole method, in
//! miniature. It is a test oracle: no production path enumerates.

use sparkscore_stats::pvalue::empirical_pvalue;
use sparkscore_stats::score::ScoreModel;
use sparkscore_stats::skat::{skat_all, SnpSet};

/// Largest cohort for which full enumeration is allowed (8! = 40 320).
const MAX_EXACT_N: usize = 8;

/// Iterate over all permutations of `0..n` in lexicographic order,
/// invoking `visit` on each (Heap's algorithm would permute in place; the
/// lexicographic successor keeps the order deterministic and testable).
fn for_each_permutation(n: usize, mut visit: impl FnMut(&[usize])) {
    let mut perm: Vec<usize> = (0..n).collect();
    loop {
        visit(&perm);
        // Lexicographic successor.
        let Some(i) = (0..n.saturating_sub(1))
            .rev()
            .find(|&i| perm[i] < perm[i + 1])
        else {
            return;
        };
        let j = (i + 1..n)
            .rev()
            .find(|&j| perm[j] > perm[i])
            .expect("successor exists");
        perm.swap(i, j);
        perm[i + 1..].reverse();
    }
}

/// Exact permutation p-values for SKAT statistics: the proportion of all
/// `n!` phenotype assignments whose statistic is at least the observed one
/// (add-one estimator for comparability with the sampled versions).
///
/// `rebuild(perm)` returns the model under that phenotype assignment.
/// Panics if `n > MAX_EXACT_N` — enumeration beyond 8 patients is a bug,
/// not a workload.
pub fn exact_permutation_pvalues<M, F>(
    model: &M,
    rebuild: F,
    genotype_rows: &[Vec<u8>],
    weights: &[f64],
    sets: &[SnpSet],
) -> Vec<f64>
where
    M: ScoreModel,
    F: Fn(&[usize]) -> M,
{
    let n = model.num_patients();
    assert!(
        n <= MAX_EXACT_N,
        "exact enumeration limited to n <= {MAX_EXACT_N} (asked for {n})"
    );
    let observed_scores: Vec<f64> = genotype_rows.iter().map(|g| model.score(g)).collect();
    let observed = skat_all(&observed_scores, weights, sets);

    let mut counts = vec![0usize; sets.len()];
    let mut total = 0usize;
    for_each_permutation(n, |perm| {
        total += 1;
        let m = rebuild(perm);
        let scores: Vec<f64> = genotype_rows.iter().map(|g| m.score(g)).collect();
        let replicate = skat_all(&scores, weights, sets);
        for (c, (&rep, &obs)) in counts.iter_mut().zip(replicate.iter().zip(&observed)) {
            if rep >= obs {
                *c += 1;
            }
        }
    });
    counts
        .into_iter()
        // The identity permutation is one of the n! replicates, so counts
        // are ≥ 1 already; subtract it to keep the add-one estimator's
        // convention of "replicates distinct from the observation".
        .map(|c| empirical_pvalue(c - 1, total - 1))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparkscore_stats::resample::{monte_carlo, permutation};
    use sparkscore_stats::score::{CoxScore, GaussianScore, Survival};

    #[test]
    fn permutation_enumeration_counts_n_factorial() {
        for n in 1..=6usize {
            let mut count = 0usize;
            for_each_permutation(n, |_| count += 1);
            let factorial: usize = (1..=n).product();
            assert_eq!(count, factorial, "n = {n}");
        }
    }

    #[test]
    fn permutations_are_distinct_and_lexicographic() {
        let mut seen = Vec::new();
        for_each_permutation(4, |p| seen.push(p.to_vec()));
        let mut sorted = seen.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 24, "all distinct");
        assert_eq!(seen, sorted, "generated in lexicographic order");
        assert_eq!(seen[0], vec![0, 1, 2, 3]);
        assert_eq!(seen[23], vec![3, 2, 1, 0]);
    }

    fn tiny_problem() -> (GaussianScore, Vec<Vec<u8>>, Vec<f64>, Vec<SnpSet>) {
        let y = vec![0.9, 2.3, 1.1, 3.7, 0.2, 2.8];
        let rows = vec![vec![0u8, 1, 0, 2, 0, 1], vec![2u8, 0, 1, 0, 2, 1]];
        let weights = vec![1.0, 0.7];
        let sets = vec![SnpSet::new(0, vec![0, 1])];
        (GaussianScore::new(&y), rows, weights, sets)
    }

    #[test]
    fn sampled_permutation_converges_to_exact() {
        let (model, rows, weights, sets) = tiny_problem();
        let exact =
            exact_permutation_pvalues(&model, |p| model.permuted(p), &rows, &weights, &sets);
        let sampled = permutation(
            &model,
            |p| model.permuted(p),
            &rows,
            &weights,
            &sets,
            4000,
            3,
        )
        .pvalues();
        assert!(
            (exact[0] - sampled[0]).abs() < 0.03,
            "sampled {} vs exact {}",
            sampled[0],
            exact[0]
        );
    }

    #[test]
    fn monte_carlo_approximates_exact_distribution() {
        // MC and permutation answer the same question; on a tiny Gaussian
        // problem they agree coarsely (the MC null is Gaussian rather than
        // discrete, so perfect agreement is not expected at n = 6).
        let (model, rows, weights, sets) = tiny_problem();
        let exact =
            exact_permutation_pvalues(&model, |p| model.permuted(p), &rows, &weights, &sets);
        let mc = monte_carlo(&model, &rows, &weights, &sets, 4000, 5).pvalues();
        assert!(
            (exact[0] - mc[0]).abs() < 0.15,
            "mc {} vs exact {}",
            mc[0],
            exact[0]
        );
    }

    #[test]
    fn exact_pvalue_of_degenerate_phenotype_is_one() {
        // Constant phenotype: every permutation gives the same statistic.
        let y = vec![2.0; 5];
        let model = GaussianScore::new(&y);
        let rows = vec![vec![0u8, 1, 2, 1, 0]];
        let sets = vec![SnpSet::new(0, vec![0])];
        let p =
            exact_permutation_pvalues(&model, |perm| model.permuted(perm), &rows, &[1.0], &sets);
        assert_eq!(p[0], 1.0);
    }

    #[test]
    #[should_panic(expected = "exact enumeration limited")]
    fn large_n_is_rejected() {
        let ph: Vec<Survival> = (0..12)
            .map(|i| Survival::event_at(i as f64 + 1.0))
            .collect();
        let model = CoxScore::new(&ph);
        let rows = vec![vec![0u8; 12]];
        let sets = vec![SnpSet::new(0, vec![0])];
        let _ = exact_permutation_pvalues(&model, |p| model.permuted(p), &rows, &[1.0], &sets);
    }
}
