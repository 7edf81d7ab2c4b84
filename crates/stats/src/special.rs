//! Special functions, implemented from scratch.
//!
//! The inference layer needs the Gaussian error function (normal CDF), the
//! log-gamma function, and the regularized incomplete gamma function
//! (chi-square CDF). Implementations follow the classical numerics
//! literature (Lanczos approximation; series and continued-fraction
//! expansions of the incomplete gamma function per Numerical Recipes §6.2)
//! and are accurate to well beyond the 1e-10 the tests assert.

/// Natural log of the gamma function, Lanczos approximation (g = 7, n = 9).
///
/// Accurate to ~1e-13 over the positive reals. Panics for `x <= 0` — the
/// callers only evaluate at positive shape parameters.
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma requires x > 0, got {x}");
    // Lanczos coefficients (g = 7).
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula keeps accuracy near zero.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = COEF[0];
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x)/Γ(a)`.
///
/// Uses the series expansion for `x < a + 1` and the continued fraction for
/// the complement otherwise.
pub(crate) fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_p requires x >= 0, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Regularized upper incomplete gamma function `Q(a, x) = 1 − P(a, x)`.
pub(crate) fn gamma_q(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_q requires a > 0, got {a}");
    assert!(x >= 0.0, "gamma_q requires x >= 0, got {x}");
    if x == 0.0 {
        return 1.0;
    }
    if x < a + 1.0 {
        1.0 - gamma_p_series(a, x)
    } else {
        gamma_q_cf(a, x)
    }
}

const MAX_ITER: usize = 500;
const EPS: f64 = 1e-15;

fn gamma_p_series(a: f64, x: f64) -> f64 {
    let mut ap = a;
    let mut term = 1.0 / a;
    let mut sum = term;
    for _ in 0..MAX_ITER {
        ap += 1.0;
        term *= x / ap;
        sum += term;
        if term.abs() < sum.abs() * EPS {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_gamma(a)).exp()
}

fn gamma_q_cf(a: f64, x: f64) -> f64 {
    // Lentz's algorithm for the continued fraction of Q(a, x).
    let tiny = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / tiny;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..=MAX_ITER {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < tiny {
            d = tiny;
        }
        c = b + an / c;
        if c.abs() < tiny {
            c = tiny;
        }
        d = 1.0 / d;
        let delta = d * c;
        h *= delta;
        if (delta - 1.0).abs() < EPS {
            break;
        }
    }
    h * (-x + a * x.ln() - ln_gamma(a)).exp()
}

/// Error function, via the incomplete gamma identity
/// `erf(x) = P(1/2, x²)` for `x ≥ 0`.
pub(crate) fn erf(x: f64) -> f64 {
    if x < 0.0 {
        -erf(-x)
    } else if x == 0.0 {
        0.0
    } else {
        gamma_p(0.5, x * x)
    }
}

/// Complementary error function `1 − erf(x)`, accurate in the far tail.
pub(crate) fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        2.0 - erfc(-x)
    } else if x == 0.0 {
        1.0
    } else {
        gamma_q(0.5, x * x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + b.abs()),
            "{a} vs {b} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_known_values() {
        close(ln_gamma(1.0), 0.0, 1e-12);
        close(ln_gamma(2.0), 0.0, 1e-12);
        close(ln_gamma(5.0), 24.0f64.ln(), 1e-12); // Γ(5)=4!
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
        // Γ(n + 1/2) = (2n)!·√π / (4ⁿ·n!) at n = 10, computed exactly.
        let fact = |n: u64| (2..=n).map(|k| (k as f64).ln()).sum::<f64>();
        let expected = fact(20) + 0.5 * std::f64::consts::PI.ln() - 10.0 * 4.0f64.ln() - fact(10);
        close(ln_gamma(10.5), expected, 1e-12);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // ln Γ(x+1) = ln x + ln Γ(x)
        for &x in &[0.3, 1.7, 4.2, 25.0, 120.5] {
            close(ln_gamma(x + 1.0), x.ln() + ln_gamma(x), 1e-11);
        }
    }

    #[test]
    #[should_panic(expected = "requires x > 0")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn gamma_p_known_values() {
        // P(1, x) = 1 - e^{-x}
        for &x in &[0.1, 1.0, 3.0, 10.0] {
            close(gamma_p(1.0, x), 1.0 - (-x).exp(), 1e-12);
        }
        // Chi-square_1 CDF at its median ≈ 0.4549.
        close(gamma_p(0.5, 0.454_936_423_119_572_8 / 2.0), 0.5, 1e-9);
        close(gamma_p(0.5, 0.0), 0.0, 1e-15);
    }

    #[test]
    fn gamma_p_q_complementary() {
        for &a in &[0.5, 1.0, 2.5, 10.0, 42.0] {
            for &x in &[0.01, 0.5, 1.0, 5.0, 50.0] {
                close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12);
            }
        }
    }

    #[test]
    fn erf_known_values() {
        close(erf(0.0), 0.0, 1e-15);
        close(erf(1.0), 0.842_700_792_949_714_9, 1e-10);
        close(erf(2.0), 0.995_322_265_018_952_7, 1e-10);
        close(erf(-1.0), -0.842_700_792_949_714_9, 1e-10);
        close(erfc(3.0), 2.209_049_699_858_544e-5, 1e-8);
    }

    #[test]
    fn erfc_far_tail_is_positive_and_tiny() {
        let v = erfc(8.0);
        assert!(v > 0.0 && v < 1e-25, "erfc(8) = {v}");
    }

    proptest! {
        #[test]
        fn prop_gamma_p_monotone_in_x(a in 0.1f64..20.0, x in 0.0f64..30.0, dx in 0.001f64..5.0) {
            prop_assert!(gamma_p(a, x + dx) >= gamma_p(a, x) - 1e-12);
        }

        #[test]
        fn prop_gamma_p_bounded(a in 0.1f64..50.0, x in 0.0f64..100.0) {
            let p = gamma_p(a, x);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&p), "P({a},{x}) = {p}");
        }

        #[test]
        fn prop_erf_odd_and_bounded(x in -6.0f64..6.0) {
            let v = erf(x);
            prop_assert!((-1.0..=1.0).contains(&v));
            prop_assert!((erf(-x) + v).abs() < 1e-12);
        }
    }
}
