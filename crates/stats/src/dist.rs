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

/// Lanes one pass of the multiplier body draws together: two 512-bit
/// vectors per Philox word and per intermediate on AVX-512, four 256-bit
/// ones on AVX2. Of 8, 16, 24, 32 and 64 lanes, 16 was the fastest
/// overall on a 2-core AVX-512 Xeon, on all three arms.
/// [`fill_multipliers`] runs them along replicates when a row is at least
/// this wide and along pairs otherwise.
const LANES: usize = 16;

/// The low 32-bit word of a `u64`.
const LOW_WORD: u64 = 0xFFFF_FFFF;
const TWO_POW_MINUS_53: f64 = 1.0 / (1u64 << 53) as f64;
/// `ln 2 = LN2_HI + LN2_LO` to 1.2e-26. `LN2_HI`'s low 32 bits are zero,
/// so `e · LN2_HI` is exact for `|e| < 2^21`.
const LN2_HI: f64 = f64::from_bits(0x3fe6_2e42_fee0_0000);
const LN2_LO: f64 = f64::from_bits(0x3dea_39ef_3579_3c76);

/// Philox4x32-10 (Salmon, Moraes, Dror & Shaw, "Parallel random numbers:
/// as easy as 1, 2, 3", SC 2011) on `L` counters under one key: ten rounds
/// of two 32×32→64-bit multiplies over a 128-bit counter under a 64-bit
/// key. Word `w` of lane `l` is `x[w][l]`, a 32-bit value in the low half
/// of a `u64` — the operand layout of a 32×32→64-bit vector multiply.
#[inline(always)]
fn philox4x32_10<const L: usize>(counter: [[u64; L]; 4], key: [u32; 2]) -> [[u64; L]; 4] {
    const M0: u64 = 0xD251_1F53;
    const M1: u64 = 0xCD9E_8D57;
    const W0: u32 = 0x9E37_79B9;
    const W1: u32 = 0xBB67_AE85;
    let [mut x0, mut x1, mut x2, mut x3] = counter;
    let mut k = key;
    for round in 0..10 {
        if round > 0 {
            k = [k[0].wrapping_add(W0), k[1].wrapping_add(W1)];
        }
        let (k0, k1) = (u64::from(k[0]), u64::from(k[1]));
        for l in 0..L {
            let p0 = M0 * (x0[l] & LOW_WORD);
            let p1 = M1 * (x2[l] & LOW_WORD);
            x0[l] = (p1 >> 32) ^ x1[l] ^ k0;
            x1[l] = p1 & LOW_WORD;
            x2[l] = (p0 >> 32) ^ x3[l] ^ k1;
            x3[l] = p0 & LOW_WORD;
        }
    }
    [x0, x1, x2, x3]
}

/// `v` as an `f64`, exactly, for `|v| < 2^51`: `1.5·2^52 + v` has `v` in
/// its low mantissa bits. Integer add, bit cast and one exact subtraction,
/// the same instructions on every ISA.
#[inline(always)]
fn small_int_to_f64(v: i64) -> f64 {
    const MAGIC: f64 = 6_755_399_441_055_744.0; // 1.5 · 2^52
    f64::from_bits(MAGIC.to_bits().wrapping_add(v as u64)) - MAGIC
}

/// `ln u` for `u ∈ [2^-53, 1]`: `u = 2^e · f` with `f ∈ [√½, √2)` read
/// off the bits, `ln f = 2·atanh(s)` with `s = (f − 1)/(f + 1)`, `|s| <
/// 0.172`, as its series to `s^19` (the first term left out is below
/// `2^-55` of the sum), and `e · ln 2` added as an exact head and a tail.
#[inline(always)]
fn ln_unit(u: f64) -> f64 {
    const MANTISSA: u64 = (1 << 52) - 1;
    // atanh(s) = s + s³/3 + s⁵/5 + …, doubled: 2s + s · Σ_k 2 s^(2k)/(2k+1).
    const C: [f64; 9] = [
        2.0 / 3.0,
        2.0 / 5.0,
        2.0 / 7.0,
        2.0 / 9.0,
        2.0 / 11.0,
        2.0 / 13.0,
        2.0 / 15.0,
        2.0 / 17.0,
        2.0 / 19.0,
    ];
    let bits = u.to_bits();
    let mut f_bits = bits & MANTISSA | 1.0f64.to_bits();
    let halve = f_bits >= std::f64::consts::SQRT_2.to_bits();
    f_bits -= u64::from(halve) << 52;
    let e = small_int_to_f64((bits >> 52) as i64 - 1023 + i64::from(halve));
    let f = f64::from_bits(f_bits);
    let s = (f - 1.0) / (f + 1.0);
    let z = s * s;
    let mut series = C[8];
    for c in C[..8].iter().rev() {
        series = c + z * series;
    }
    e * LN2_HI + (2.0 * s + (s * (z * series) + e * LN2_LO))
}

/// `(cos θ, sin θ)` of `θ = 2π · a · 2^-53` for `a < 2^53`: the quadrant
/// and the remainder are cut from `a` in quarter turns (`2^51`), exactly,
/// so only `|θ| ≤ π/4` meets the polynomials (Taylor, to `θ^17` and
/// `θ^16`; the first terms left out are below `2^-56` of the result), and
/// the quadrant rotates the pair by selects and sign flips.
#[inline(always)]
fn cos_sin_turn(a: u64) -> (f64, f64) {
    // One turn is 2^53 steps of a.
    const RADIANS_PER_STEP: f64 = std::f64::consts::TAU * TWO_POW_MINUS_53;
    // (-1)^k / (2k+1)! and (-1)^k / (2k)! for k = 1..=8.
    const SIN: [f64; 8] = taylor_coefficients(3);
    const COS: [f64; 8] = taylor_coefficients(2);
    let quadrant = (a + (1 << 50)) >> 51;
    let theta = small_int_to_f64(a.wrapping_sub(quadrant << 51) as i64) * RADIANS_PER_STEP;
    let z = theta * theta;
    let (mut sin, mut cos) = (SIN[7], COS[7]);
    for (s, c) in SIN[..7].iter().zip(&COS[..7]).rev() {
        sin = s + z * sin;
        cos = c + z * cos;
    }
    let sin = theta + theta * (z * sin);
    let cos = 1.0 + z * cos;
    // Quadrant q turns (cos, sin) by q quarter turns: q = 1 gives
    // (−sin, cos), q = 2 (−cos, −sin), q = 3 (sin, −cos); q = 4 is a
    // whole turn.
    let (c, s) = if quadrant & 1 == 1 {
        (sin, cos)
    } else {
        (cos, sin)
    };
    let flip = |v: f64, negate: u64| f64::from_bits(v.to_bits() ^ (negate & 2) << 62);
    (flip(c, quadrant + 1), flip(s, quadrant))
}

/// `(-1)^k / (first + 2k − 2)!` for k = 1..=8: the Taylor coefficients of
/// sin (`first = 3`) or cos (`first = 2`) after the leading term.
const fn taylor_coefficients(first: u32) -> [f64; 8] {
    let mut out = [0.0; 8];
    let mut factorial = 1.0;
    let mut n = 1;
    let mut k = 0;
    while k < 8 {
        while n < first + 2 * k as u32 {
            n += 1;
            factorial *= n as f64;
        }
        let sign = if k % 2 == 0 { -1.0 } else { 1.0 };
        out[k] = sign / factorial;
        k += 1;
    }
    out
}

/// The Box–Muller pairs of `L` addresses: lane `l` is
/// `(Z[r][2·p], Z[r][2·p + 1])` for `r = replicate[l]`, `p = pair[l]`,
/// whose uniforms are the Philox block at counter `(r, p)` (`p` in the
/// low words) under key `seed`. `u1 = ((x₀ >> 11) + 1) · 2^-53 ∈ (0, 1]`
/// keeps `ln u1` finite; the angle is `2π · (x₁ >> 11) · 2^-53`. Plain
/// integer and IEEE add, multiply, divide and square root, no multiply
/// fused and no libm call, so the bits are the same at any `L`, on any
/// ISA the body is compiled for, under any libc.
#[inline(always)]
fn normal_pairs<const L: usize>(seed: u64, replicate: &[u64; L], pair: &[u64; L]) -> [[f64; L]; 2] {
    let x = philox4x32_10(
        [
            pair.map(|p| p & LOW_WORD),
            pair.map(|p| p >> 32),
            replicate.map(|r| r & LOW_WORD),
            replicate.map(|r| r >> 32),
        ],
        [seed as u32, (seed >> 32) as u32],
    );
    let mut z = [[0.0; L]; 2];
    for l in 0..L {
        let x0 = x[0][l] | x[1][l] << 32;
        let x1 = x[2][l] | x[3][l] << 32;
        let u1 = ((x0 >> 11) + 1) as f64 * TWO_POW_MINUS_53;
        let radius = (-2.0 * ln_unit(u1)).sqrt();
        let (cos, sin) = cos_sin_turn(x1 >> 11);
        z[0][l] = radius * cos;
        z[1][l] = radius * sin;
    }
    z
}

/// Lin's multiplier `Z[r][i] ~ N(0, 1)` of replicate `r` and patient `i`
/// under `seed`: a pure function of its address, so any caller can draw
/// any multiplier in any order and get the same bits. Distinct addresses
/// are independent draws (patients `2p` and `2p + 1` are the cos and sin
/// outputs of one Box–Muller pair, which are independent too).
pub fn multiplier(seed: u64, r: u64, i: u64) -> f64 {
    normal_pairs(seed, &[r], &[i / 2])[(i % 2) as usize][0]
}

/// Fill `rows` — patient-major, `k` replicates per row — with
/// `rows[p·k + c] = Z[first_replicate + c][first_patient + p]`
/// ([`multiplier`]'s bits), computing each Box–Muller pair once, a block
/// of lanes at a time.
///
/// One body compiled three times, as `perturb_rows_blocked` is: for the
/// build's baseline target, and on x86-64 once with AVX2 and once with
/// AVX-512 (F and DQ, whose native `u64 → f64` conversion the uniforms
/// use), the widest the running CPU reports taken. No multiply is fused
/// and every chain keeps its operation order, so which arm runs is
/// invisible in the result.
pub fn fill_multipliers(
    seed: u64,
    first_replicate: u64,
    first_patient: u64,
    k: usize,
    rows: &mut [f64],
) {
    assert!(k > 0 && rows.len().is_multiple_of(k), "rows must be k wide");
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512dq")
        {
            // SAFETY: `fill_multipliers_avx512` requires only that the
            // running CPU supports AVX-512F and AVX-512DQ, which the
            // detection above just reported.
            return unsafe {
                fill_multipliers_avx512(seed, first_replicate, first_patient, k, rows)
            };
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: `fill_multipliers_avx2` requires only that the running
            // CPU supports AVX2, which the detection above just reported.
            return unsafe { fill_multipliers_avx2(seed, first_replicate, first_patient, k, rows) };
        }
    }
    fill_multipliers_plain(seed, first_replicate, first_patient, k, rows);
}

/// [`fill_multipliers_body`] compiled with 512-bit vectors. Rust's
/// `avx512f` implies `fma`, so only the source keeps multiply and add
/// apart (Rust contracts no `a * b + c`); `scripts/ci.sh` disassembles the
/// release build and fails if any `fill_multipliers_*` arm holds a fused
/// multiply-add or calls libm.
///
/// # Safety
///
/// The running CPU must support AVX-512F and AVX-512DQ.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq")]
unsafe fn fill_multipliers_avx512(
    seed: u64,
    first_replicate: u64,
    first_patient: u64,
    k: usize,
    rows: &mut [f64],
) {
    fill_multipliers_body(seed, first_replicate, first_patient, k, rows);
}

/// [`fill_multipliers_body`] compiled with 256-bit vectors; AVX2 only, so
/// a fused multiply-add is impossible to emit.
///
/// # Safety
///
/// The running CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn fill_multipliers_avx2(
    seed: u64,
    first_replicate: u64,
    first_patient: u64,
    k: usize,
    rows: &mut [f64],
) {
    fill_multipliers_body(seed, first_replicate, first_patient, k, rows);
}

/// [`fill_multipliers_body`] for the build's baseline target, in a symbol
/// of its own so that `scripts/ci.sh` can read its instructions too.
#[inline(never)]
fn fill_multipliers_plain(
    seed: u64,
    first_replicate: u64,
    first_patient: u64,
    k: usize,
    rows: &mut [f64],
) {
    fill_multipliers_body(seed, first_replicate, first_patient, k, rows);
}

/// The fill proper; the caller has checked that `rows` is `k` wide. An odd
/// first patient is the sin half of a pair; whole pairs follow, the last
/// possibly without its odd row.
#[inline(always)]
fn fill_multipliers_body(
    seed: u64,
    first_replicate: u64,
    first_patient: u64,
    k: usize,
    rows: &mut [f64],
) {
    let lead = (first_patient % 2) as usize * k;
    let (head, tail) = rows.split_at_mut(lead.min(rows.len()));
    along_replicates(seed, first_replicate, first_patient / 2, &mut [], head);
    let first_pair = first_patient.div_ceil(2);
    if k >= LANES {
        for (p, two_rows) in tail.chunks_mut(2 * k).enumerate() {
            let (even, odd) = two_rows.split_at_mut(k);
            along_replicates(seed, first_replicate, first_pair + p as u64, even, odd);
        }
    } else {
        along_pairs(seed, first_replicate, first_pair, k, tail);
    }
}

/// One pair's cos row and sin row (either may be shorter, or empty), the
/// lanes running along replicates: each block stores `LANES` contiguous
/// values into each row.
#[inline(always)]
fn along_replicates(seed: u64, first_replicate: u64, pair: u64, cos: &mut [f64], sin: &mut [f64]) {
    for c0 in (0..cos.len().max(sin.len())).step_by(LANES) {
        let replicate = std::array::from_fn(|l| first_replicate.wrapping_add((c0 + l) as u64));
        let [z_cos, z_sin] = normal_pairs(seed, &replicate, &[pair; LANES]);
        for (dst, z) in cos.iter_mut().skip(c0).zip(z_cos) {
            *dst = z;
        }
        for (dst, z) in sin.iter_mut().skip(c0).zip(z_sin) {
            *dst = z;
        }
    }
}

/// Whole pairs of `k`-wide rows from `first_pair` on (the last possibly
/// without its sin row), the lanes running along pairs at one replicate
/// column at a time: the orientation that fills every lane when rows are
/// narrower than `LANES` (`mc_weights`' single column).
#[inline(always)]
fn along_pairs(seed: u64, first_replicate: u64, first_pair: u64, k: usize, rows: &mut [f64]) {
    let pairs = (rows.len() / k).div_ceil(2);
    for c in 0..k {
        let replicate = [first_replicate + c as u64; LANES];
        for p0 in (0..pairs).step_by(LANES) {
            let pair = std::array::from_fn(|l| first_pair.wrapping_add((p0 + l) as u64));
            let [z_cos, z_sin] = normal_pairs(seed, &replicate, &pair);
            for l in 0..LANES.min(pairs - p0) {
                let even = 2 * (p0 + l) * k + c;
                rows[even] = z_cos[l];
                if let Some(odd) = rows.get_mut(even + k) {
                    *odd = z_sin[l];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
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
        // Random123's known-answer vectors for philox4x32 at 10 rounds,
        // each in every lane of one block.
        let vectors = [
            (
                [0; 4],
                [0; 2],
                [0x6627_e8d5, 0xe169_c58d, 0xbc57_ac4c, 0x9b00_dbd8],
            ),
            (
                [u32::MAX; 4],
                [u32::MAX; 2],
                [0x408f_276d, 0x41c8_3b0e, 0xa20b_c7c6, 0x6d54_51fd],
            ),
            (
                [0x243f_6a88, 0x85a3_08d3, 0x1319_8a2e, 0x0370_7344],
                [0xa409_3822, 0x299f_31d0],
                [0xd16c_fe09, 0x94fd_cceb, 0x5001_e420, 0x2412_6ea1],
            ),
        ];
        for (counter, key, want) in vectors {
            let x = philox4x32_10::<LANES>(counter.map(|w| [u64::from(w); LANES]), key);
            for l in 0..LANES {
                assert_eq!(x.map(|word| word[l] as u32), want, "lane {l}");
            }
        }
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

    /// The libm Box–Muller the lane body replaced, on the same Philox
    /// uniforms: the oracle the body's accuracy is measured against.
    fn normal_pair_libm(seed: u64, r: u64, pair: u64) -> (f64, f64) {
        let x = philox4x32_10::<1>(
            [[pair & LOW_WORD], [pair >> 32], [r & LOW_WORD], [r >> 32]],
            [seed as u32, (seed >> 32) as u32],
        );
        let x0 = x[0][0] | x[1][0] << 32;
        let x1 = x[2][0] | x[3][0] << 32;
        let u1 = ((x0 >> 11) + 1) as f64 * TWO_POW_MINUS_53;
        let u2 = (x1 >> 11) as f64 * TWO_POW_MINUS_53;
        let radius = (-2.0 * u1.ln()).sqrt();
        let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
        (radius * cos, radius * sin)
    }

    #[test]
    fn multipliers_match_the_libm_box_muller_to_1e_14() {
        // 2^20 addresses per seed, a 32-replicate × 32768-patient block.
        // The body reduces the angle exactly in turns where libm gets
        // 2π·u2 rounded, so the two differ by a few ulp of the radius.
        let (k, patients) = (32usize, 1usize << 15);
        for seed in [0u64, 0x5eed_cafe_f00d] {
            let mut rows = vec![f64::NAN; k * patients];
            fill_multipliers(seed, 0, 0, k, &mut rows);
            let (mut worst_abs, mut worst_rel) = (0.0f64, 0.0f64);
            for (p, pair_rows) in rows.chunks_exact(2 * k).enumerate() {
                for c in 0..k {
                    let (cos, sin) = normal_pair_libm(seed, c as u64, p as u64);
                    for (z, want) in [(pair_rows[c], cos), (pair_rows[k + c], sin)] {
                        worst_abs = worst_abs.max((z - want).abs());
                        if want.abs() >= 0.5 {
                            worst_rel = worst_rel.max(((z - want) / want).abs());
                        }
                    }
                }
            }
            assert!(
                worst_abs <= 1e-14,
                "seed {seed}: |Z − Z_libm| up to {worst_abs:e}"
            );
            assert!(
                worst_rel <= 1e-14,
                "seed {seed}: relative error up to {worst_rel:e}"
            );
        }
    }

    #[test]
    fn exact_points_come_out_exact() {
        // Quarter turns: the remainder is 0, so the trig factors are
        // exactly 0 and ±1 (libm's cos(π/2) is 6.1e-17).
        let quarter = 1u64 << 51;
        for (q, want) in [
            (0, (1.0, 0.0)),
            (1, (0.0, 1.0)),
            (2, (-1.0, 0.0)),
            (3, (0.0, -1.0)),
        ] {
            assert_eq!(cos_sin_turn(q * quarter), want, "quarter turn {q}");
        }
        // u1 = 1: radius 0.
        assert_eq!(ln_unit(1.0), 0.0);
        assert_eq!((-2.0 * ln_unit(1.0)).sqrt(), 0.0);
        // Powers of two: f = 1, so the series adds nothing to e·ln 2.
        for e in -53i32..=0 {
            let got = ln_unit(2f64.powi(e));
            let e = f64::from(e);
            assert_eq!(got, e * LN2_HI + e * LN2_LO);
            let want = e * std::f64::consts::LN_2;
            assert!(
                (got - want).abs() <= f64::EPSILON * want.abs(),
                "ln 2^{e} = {got}, e·ln 2 = {want}"
            );
        }
    }

    #[test]
    fn multiplier_bits_are_pinned() {
        // The body uses no libm, so these bits hold on every host, arm and
        // libc; a toolchain, arm or polynomial change fails here loudly.
        // Both parities, a replicate and a patient past 2^32, seed 0.
        let pinned = [
            ((0, 0, 0), 0xbfd9_7362_8c13_1c04),
            ((0, 0, 1), 0xbfd3_dd84_ff91_e709),
            ((17, 5, 2), 0x3fe4_48d4_461c_d88b),
            ((17, 5, 3), 0xbff9_1c87_6204_d88d),
            ((0x5eed_cafe_f00d, 1 << 32, 6), 0x3fc1_b400_bb5a_0e00),
            ((0x5eed_cafe_f00d, 3, (1 << 33) + 1), 0x3fd3_c23a_a578_0fab),
            (
                (u64::MAX, (1 << 40) + 7, (1 << 35) + 4),
                0x3fd6_47c8_f7b4_a062,
            ),
            ((42, 9, 4001), 0x3fba_4a25_cf55_90ca),
        ];
        for ((seed, r, i), bits) in pinned {
            assert_eq!(
                multiplier(seed, r, i).to_bits(),
                bits,
                "Z[{r}][{i}] under seed {seed}"
            );
        }
    }

    /// Every compilation of the fill the running CPU can execute, each
    /// called directly: `(arm, rows)` pairs, the plain body first.
    fn draw_arms(
        seed: u64,
        first_replicate: u64,
        first_patient: u64,
        k: usize,
        patients: usize,
    ) -> Vec<(&'static str, Vec<f64>)> {
        let run = |arm: &dyn Fn(&mut [f64])| {
            let mut rows = vec![f64::NAN; patients * k];
            arm(&mut rows);
            rows
        };
        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut arms = vec![(
            "plain",
            run(&|rows| fill_multipliers_plain(seed, first_replicate, first_patient, k, rows)),
        )];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: the CPU reported AVX2 on the line above.
                let avx2 = run(&|rows| unsafe {
                    fill_multipliers_avx2(seed, first_replicate, first_patient, k, rows)
                });
                arms.push(("avx2", avx2));
            }
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512dq")
            {
                // SAFETY: the CPU reported AVX-512F and AVX-512DQ above.
                let avx512 = run(&|rows| unsafe {
                    fill_multipliers_avx512(seed, first_replicate, first_patient, k, rows)
                });
                arms.push(("avx512", avx512));
            }
        }
        arms
    }

    /// A first counter: `offset` itself at `word = 0`, else `offset`
    /// below `word · 2^32 · scale`, so that a block's lanes straddle a
    /// 32-bit word boundary of the replicate (`scale = 1`) or of the pair
    /// (`scale = 2`, patients).
    fn counter_base(word: u64, offset: u64, scale: u64) -> u64 {
        match word {
            0 => offset,
            _ => (word << 32) * scale - offset,
        }
    }

    proptest! {
        /// Every arm draws the plain body's bits, with lanes along
        /// replicates (`k ≥ LANES`) and along pairs (`k < LANES`), odd and
        /// even first patients, replicates past 2^32 and pairs past 2^32,
        /// and blocks whose lanes straddle a word boundary.
        #[test]
        fn prop_every_draw_arm_has_the_plain_bodys_bits(
            seed in any::<u64>(),
            replicate_word in 0u64..=3,
            replicate_offset in 0u64..=2 * LANES as u64,
            patient_word in 0u64..=3,
            patient_offset in 0u64..=4 * LANES as u64,
            k in 1usize..=2 * LANES + 3,
            patients in 0usize..=3 * LANES,
        ) {
            let first_replicate = counter_base(replicate_word, replicate_offset, 1);
            let first_patient = counter_base(patient_word, patient_offset, 2);
            let arms = draw_arms(seed, first_replicate, first_patient, k, patients);
            let (_, plain) = &arms[0];
            prop_assert!(plain.iter().all(|z| z.is_finite()));
            for (arm, rows) in &arms[1..] {
                for (j, (a, b)) in rows.iter().zip(plain).enumerate() {
                    prop_assert_eq!(a.to_bits(), b.to_bits(), "{} at row {} column {}", arm, j / k, j % k);
                }
            }
        }
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
