//! Probability distributions: CDFs for inference, samplers for synthesis.
//!
//! The paper's synthetic data generator (§III) draws survival times from an
//! exponential, event indicators from a Bernoulli, and genotypes from a
//! Binomial(2, ρ); Lin's Monte Carlo method draws N(0,1) multipliers. The
//! synthesis samplers are built from `rand`'s uniform source, so any seeded
//! RNG gives reproducible data. The multipliers are not drawn from a stream
//! at all: [`multiplier`] is a pure function of its address
//! `(seed, replicate, patient)`.

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
pub(crate) fn chi2_sf(x: f64, k: f64) -> f64 {
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

// ---------- Monte Carlo multipliers ----------

/// One Philox4x32-10 block (Salmon, Moraes, Dror & Shaw, "Parallel random
/// numbers: as easy as 1, 2, 3", SC 2011): ten rounds of two 32×32→64-bit
/// multiplies over a 128-bit counter under a 64-bit key.
fn philox4x32_10(counter: [u32; 4], key: [u32; 2]) -> [u32; 4] {
    const M0: u64 = 0xD251_1F53;
    const M1: u64 = 0xCD9E_8D57;
    const W0: u32 = 0x9E37_79B9;
    const W1: u32 = 0xBB67_AE85;
    let (mut x, mut k) = (counter, key);
    for round in 0..10 {
        if round > 0 {
            k = [k[0].wrapping_add(W0), k[1].wrapping_add(W1)];
        }
        let p0 = M0 * u64::from(x[0]);
        let p1 = M1 * u64::from(x[2]);
        x = [
            (p1 >> 32) as u32 ^ x[1] ^ k[0],
            p1 as u32,
            (p0 >> 32) as u32 ^ x[3] ^ k[1],
            p0 as u32,
        ];
    }
    x
}

/// `(Z[r][2·pair], Z[r][2·pair + 1])`: the two outputs of one Box–Muller
/// transform, whose uniforms are the Philox block at counter `(r, pair)`
/// (`pair` in the low words) under key `seed`. `u1 ∈ (0, 1]` keeps
/// `ln u1` finite.
fn normal_pair(seed: u64, r: u64, pair: u64) -> (f64, f64) {
    const TWO_POW_MINUS_53: f64 = 1.0 / (1u64 << 53) as f64;
    let x = philox4x32_10(
        [pair as u32, (pair >> 32) as u32, r as u32, (r >> 32) as u32],
        [seed as u32, (seed >> 32) as u32],
    );
    let x0 = u64::from(x[0]) | u64::from(x[1]) << 32;
    let x1 = u64::from(x[2]) | u64::from(x[3]) << 32;
    let u1 = ((x0 >> 11) + 1) as f64 * TWO_POW_MINUS_53;
    let u2 = (x1 >> 11) as f64 * TWO_POW_MINUS_53;
    let radius = (-2.0 * u1.ln()).sqrt();
    let (sin, cos) = (2.0 * std::f64::consts::PI * u2).sin_cos();
    (radius * cos, radius * sin)
}

/// Lin's multiplier `Z[r][i] ~ N(0, 1)` of replicate `r` and patient `i`
/// under `seed`: a pure function of its address, so any caller can draw
/// any multiplier in any order and get the same bits. Distinct addresses
/// are independent draws (patients `2p` and `2p + 1` are the cos and sin
/// outputs of one Box–Muller pair, which are independent too).
pub fn multiplier(seed: u64, r: u64, i: u64) -> f64 {
    let (cos, sin) = normal_pair(seed, r, i / 2);
    [cos, sin][(i % 2) as usize]
}

/// Fill `rows` — patient-major, `k` replicates per row — with
/// `rows[p·k + c] = Z[first_replicate + c][first_patient + p]`
/// ([`multiplier`]'s bits), computing each Box–Muller pair once.
pub fn fill_multipliers(
    seed: u64,
    first_replicate: u64,
    first_patient: u64,
    k: usize,
    rows: &mut [f64],
) {
    assert!(k > 0 && rows.len().is_multiple_of(k), "rows must be k wide");
    // An odd first patient is the sin half of a pair; whole pairs follow.
    let lead = (first_patient % 2) as usize * k;
    let (head, tail) = rows.split_at_mut(lead.min(rows.len()));
    for (c, z) in head.iter_mut().enumerate() {
        *z = normal_pair(seed, first_replicate + c as u64, first_patient / 2).1;
    }
    let first_pair = first_patient.div_ceil(2);
    for (p, two_rows) in tail.chunks_mut(2 * k).enumerate() {
        let (even, odd) = two_rows.split_at_mut(k);
        for (c, z) in even.iter_mut().enumerate() {
            let (cos, sin) = normal_pair(seed, first_replicate + c as u64, first_pair + p as u64);
            *z = cos;
            if let Some(z) = odd.get_mut(c) {
                *z = sin;
            }
        }
    }
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
    fn philox_matches_the_published_known_answers() {
        // Random123's known-answer vectors for philox4x32 at 10 rounds.
        assert_eq!(
            philox4x32_10([0; 4], [0; 2]),
            [0x6627_e8d5, 0xe169_c58d, 0xbc57_ac4c, 0x9b00_dbd8]
        );
        assert_eq!(
            philox4x32_10([u32::MAX; 4], [u32::MAX; 2]),
            [0x408f_276d, 0x41c8_3b0e, 0xa20b_c7c6, 0x6d54_51fd]
        );
        assert_eq!(
            philox4x32_10(
                [0x243f_6a88, 0x85a3_08d3, 0x1319_8a2e, 0x0370_7344],
                [0xa409_3822, 0x299f_31d0]
            ),
            [0xd16c_fe09, 0x94fd_cceb, 0x5001_e420, 0x2412_6ea1]
        );
    }

    #[test]
    fn filled_rows_have_the_bits_of_each_addressed_multiplier() {
        // Even and odd first patients, a last row without its pair
        // partner, one and several replicate columns, replicates past
        // 2^32 and patients past 2^33.
        for (first_replicate, first_patient) in [(0u64, 0u64), (5, 1), (1 << 32, 7), (9, 1 << 33)] {
            for k in [1usize, 3, 8] {
                for patients in [0usize, 1, 2, 5, 6] {
                    let mut rows = vec![f64::NAN; patients * k];
                    fill_multipliers(17, first_replicate, first_patient, k, &mut rows);
                    for (p, row) in rows.chunks_exact(k).enumerate() {
                        for (c, z) in row.iter().enumerate() {
                            let want = multiplier(
                                17,
                                first_replicate + c as u64,
                                first_patient + p as u64,
                            );
                            assert_eq!(z.to_bits(), want.to_bits(), "p={p} c={c} k={k}");
                        }
                    }
                }
            }
        }
        assert_ne!(
            multiplier(1, 0, 0),
            multiplier(2, 0, 0),
            "the seed is the key"
        );
    }

    /// Sample Pearson correlation of paired draws.
    fn correlation(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
        let (mut n, mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0);
        for (x, y) in pairs {
            n += 1.0;
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
        }
        let cov = sxy / n - (sx / n) * (sy / n);
        cov / ((sxx / n - (sx / n).powi(2)) * (syy / n - (sy / n).powi(2))).sqrt()
    }

    #[test]
    fn multipliers_are_iid_standard_normal() {
        // 10^6 draws: a 1000-replicate × 1000-patient block. Every bound
        // sits at 5 standard errors (two-sided false-alarm rate 5.7e-7
        // per check) except KS, at √n·D ≤ 2.5 (Kolmogorov tail
        // 2·e^(−2·2.5²) ≈ 7.5e-6). The seeds are fixed, so the test is
        // deterministic; the rates say how unlikely a pass-to-fail flip
        // is for a sound generator at another seed.
        const SIDE: u64 = 1000;
        for seed in [0u64, 0x5eed_cafe_f00d] {
            let z: Vec<f64> = (0..SIDE)
                .flat_map(|r| (0..SIDE).map(move |i| multiplier(seed, r, i)))
                .collect();
            let at = |r: u64, i: u64| z[(r * SIDE + i) as usize];
            let n = z.len() as f64;
            let mean = z.iter().sum::<f64>() / n;
            let var = z.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
            assert!(mean.abs() <= 5.0 / n.sqrt(), "seed {seed}: mean {mean}");
            assert!(
                (var - 1.0).abs() <= 5.0 * (2.0 / n).sqrt(),
                "seed {seed}: variance {var}"
            );
            let mut sorted = z.clone();
            sorted.sort_by(f64::total_cmp);
            let ks = sorted
                .iter()
                .enumerate()
                .map(|(j, &x)| {
                    let cdf = normal_cdf(x);
                    (cdf - j as f64 / n).max((j + 1) as f64 / n - cdf)
                })
                .fold(0.0f64, f64::max);
            assert!(ks * n.sqrt() <= 2.5, "seed {seed}: KS D = {ks}");

            let bound = |pairs: f64| 5.0 / pairs.sqrt();
            let adjacent_r = correlation(
                (0..SIDE - 1)
                    .flat_map(|r| (0..SIDE).map(move |i| (r, i)))
                    .map(|(r, i)| (at(r, i), at(r + 1, i))),
            );
            assert!(
                adjacent_r.abs() <= bound(n - n / SIDE as f64),
                "seed {seed}: adjacent r {adjacent_r}"
            );
            // Adjacent patients across pairs: 2p + 1 against 2p + 2.
            let across = correlation(
                (0..SIDE)
                    .flat_map(|r| (1..SIDE - 1).step_by(2).map(move |i| (r, i)))
                    .map(|(r, i)| (at(r, i), at(r, i + 1))),
            );
            assert!(
                across.abs() <= bound(n / 2.0 - SIDE as f64),
                "seed {seed}: adjacent i {across}"
            );
            // The cos and sin outputs of one pair share a radius; they are
            // still independent, so their squares are uncorrelated too.
            let partners = || (0..SIDE).flat_map(|r| (0..SIDE).step_by(2).map(move |i| (r, i)));
            let cos_sin = correlation(partners().map(|(r, i)| (at(r, i), at(r, i + 1))));
            assert!(
                cos_sin.abs() <= bound(n / 2.0),
                "seed {seed}: cos/sin {cos_sin}"
            );
            let squares =
                correlation(partners().map(|(r, i)| (at(r, i).powi(2), at(r, i + 1).powi(2))));
            assert!(
                squares.abs() <= bound(n / 2.0),
                "seed {seed}: cos²/sin² {squares}"
            );
        }
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
