//! Special mathematical functions used by the distribution implementations.
//!
//! All routines are self-contained f64 implementations with accuracy targets
//! around 1e-10 relative error in their usual domains — more than enough for
//! distribution fitting and sampling, where statistical noise dominates.

/// Euler–Mascheroni constant.
pub const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// Natural log of the gamma function, `ln Γ(x)`, for `x > 0`.
///
/// Uses the Lanczos approximation (g = 7, n = 9 coefficients).
pub fn ln_gamma(x: f64) -> f64 {
    // Lanczos coefficients for g = 7.
    const COEF: [f64; 9] = [
        0.999_999_999_999_81,
        676.520_368_121_885,
        -1_259.139_216_722_403,
        771.323_428_777_653,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_1,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_312e-7,
    ];
    if x < 0.5 {
        // Reflection formula: Γ(x)Γ(1−x) = π / sin(πx)
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

/// The gamma function Γ(x).
pub fn gamma(x: f64) -> f64 {
    if x > 0.0 {
        ln_gamma(x).exp()
    } else {
        let pi = std::f64::consts::PI;
        pi / ((pi * x).sin() * ln_gamma(1.0 - x).exp())
    }
}

/// Error function erf(x), accurate to ~1.2e-7 absolute (sufficient here, the
/// normal CDF path below uses a higher-accuracy complementary formulation).
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Complementary error function erfc(x) with ~1e-12 relative accuracy, using
/// the rational Chebyshev-like expansion of W. J. Cody as adapted in
/// Numerical Recipes (`erfc_cheb`).
fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 2.0 / (2.0 + z);
    let ty = 4.0 * t - 2.0;
    const COF: [f64; 28] = [
        -1.3026537197817094,
        0.641_969_792_356_49,
        1.947_647_320_418_583_6e-2,
        -9.561_514_786_808_63e-3,
        -9.46595344482036e-4,
        3.66839497852761e-4,
        4.2523324806907e-5,
        -2.0278578112534e-5,
        -1.624290004647e-6,
        1.303655835580e-6,
        1.5626441722e-8,
        -8.5238095915e-8,
        6.529054439e-9,
        5.059343495e-9,
        -9.91364156e-10,
        -2.27365122e-10,
        9.6467911e-11,
        2.394038e-12,
        -6.886027e-12,
        8.94487e-13,
        3.13092e-13,
        -1.12708e-13,
        3.81e-16,
        7.106e-15,
        -1.523e-15,
        -9.4e-17,
        1.21e-16,
        -2.8e-17,
    ];
    let mut d = 0.0;
    let mut dd = 0.0;
    for &c in COF.iter().skip(1).rev() {
        let tmp = d;
        d = ty * d - dd + c;
        dd = tmp;
    }
    let ans = t * (-z * z + 0.5 * (COF[0] + ty * d) - dd).exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Standard normal cumulative distribution function Φ(x).
pub fn std_normal_cdf(x: f64) -> f64 {
    0.5 * erfc(-x / std::f64::consts::SQRT_2)
}

/// Standard normal probability density function φ(x).
pub fn std_normal_pdf(x: f64) -> f64 {
    (-0.5 * x * x).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// Inverse of the standard normal CDF (the probit function), `Φ⁻¹(p)`.
///
/// Peter Acklam's rational approximation refined with one Halley step,
/// giving full double precision over `p ∈ (0, 1)`.
pub fn std_normal_quantile(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "std_normal_quantile requires p in (0,1), got {p}"
    );
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.38357751867269e+02,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };
    // One Halley refinement step.
    let e = std_normal_cdf(x) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Regularized lower incomplete gamma function P(a, x) = γ(a, x)/Γ(a).
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p requires a > 0");
    if x <= 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        gamma_p_series(a, x)
    } else {
        1.0 - gamma_q_cf(a, x)
    }
}

/// Series expansion of P(a, x), convergent for x < a + 1.
fn gamma_p_series(a: f64, x: f64) -> f64 {
    let ln_ga = ln_gamma(a);
    let mut ap = a;
    let mut sum = 1.0 / a;
    let mut del = sum;
    for _ in 0..500 {
        ap += 1.0;
        del *= x / ap;
        sum += del;
        if del.abs() < sum.abs() * 1e-15 {
            break;
        }
    }
    sum * (-x + a * x.ln() - ln_ga).exp()
}

/// Continued-fraction evaluation of Q(a, x), convergent for x ≥ a + 1.
fn gamma_q_cf(a: f64, x: f64) -> f64 {
    let ln_ga = ln_gamma(a);
    const FPMIN: f64 = 1e-300;
    let mut b = x + 1.0 - a;
    let mut c = 1.0 / FPMIN;
    let mut d = 1.0 / b;
    let mut h = d;
    for i in 1..500 {
        let an = -(i as f64) * (i as f64 - a);
        b += 2.0;
        d = an * d + b;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = b + an / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    (-x + a * x.ln() - ln_ga).exp() * h
}

/// Inverse of the regularized lower incomplete gamma: find x with P(a,x)=p.
pub fn gamma_p_inv(a: f64, p: f64) -> f64 {
    assert!(a > 0.0 && (0.0..1.0).contains(&p));
    if p == 0.0 {
        return 0.0;
    }
    // Initial guess (Numerical Recipes / DiDonato-Morris style).
    let mut x = if a > 1.0 {
        let pp = if p < 0.5 { p } else { 1.0 - p };
        let t = (-2.0 * pp.ln()).sqrt();
        let mut g = (2.30753 + t * 0.27061) / (1.0 + t * (0.99229 + t * 0.04481)) - t;
        if p < 0.5 {
            g = -g;
        }
        let a1 = 1.0 / (9.0 * a);
        (a * (1.0 - a1 + g * a1.sqrt()).powi(3)).max(1e-300)
    } else {
        let t = 1.0 - a * (0.253 + a * 0.12);
        if p < t {
            (p / t).powf(1.0 / a)
        } else {
            1.0 - (1.0 - (p - t) / (1.0 - t)).ln()
        }
    };
    // Bracket the root, then bisect with Newton acceleration — slower than
    // a pure Halley polish but unconditionally convergent across the whole
    // (a, p) plane (small shapes make Halley steps overshoot badly).
    if !(x.is_finite() && x > 0.0) {
        x = a; // fall back to the mean as a starting point
    }
    let mut lo = x;
    let mut hi = x;
    let mut step = x.max(1e-8);
    while gamma_p(a, lo) > p && lo > 1e-300 {
        lo = (lo - step).max(lo / 2.0).max(1e-300);
        step *= 2.0;
    }
    step = x.max(1e-8);
    while gamma_p(a, hi) < p {
        hi += step;
        step *= 2.0;
        if hi > 1e300 {
            break;
        }
    }
    let ln_ga = ln_gamma(a);
    let mut mid = 0.5 * (lo + hi);
    for _ in 0..200 {
        let err = gamma_p(a, mid) - p;
        if err > 0.0 {
            hi = mid;
        } else {
            lo = mid;
        }
        // Newton step from the current midpoint; keep it only if it stays
        // inside the bracket.
        let deriv = (-mid + (a - 1.0) * mid.ln() - ln_ga).exp();
        let newton = mid - err / deriv;
        mid = if deriv > 0.0 && newton.is_finite() && newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
        if (hi - lo) <= 1e-14 * hi.abs().max(1e-300) {
            break;
        }
    }
    mid.max(0.0)
}

/// Natural log of the beta function, ln B(a, b).
pub fn ln_beta(a: f64, b: f64) -> f64 {
    ln_gamma(a) + ln_gamma(b) - ln_gamma(a + b)
}

/// Regularized incomplete beta function I_x(a, b).
pub fn beta_inc(a: f64, b: f64, x: f64) -> f64 {
    assert!(a > 0.0 && b > 0.0, "beta_inc requires a,b > 0");
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    let bt = (a * x.ln() + b * (1.0 - x).ln() - ln_beta(a, b)).exp();
    if x < (a + 1.0) / (a + b + 2.0) {
        bt * beta_cf(a, b, x) / a
    } else {
        1.0 - bt * beta_cf(b, a, 1.0 - x) / b
    }
}

/// Continued-fraction core for the incomplete beta function.
fn beta_cf(a: f64, b: f64, x: f64) -> f64 {
    const FPMIN: f64 = 1e-300;
    let qab = a + b;
    let qap = a + 1.0;
    let qam = a - 1.0;
    let mut c = 1.0;
    let mut d = 1.0 - qab * x / qap;
    if d.abs() < FPMIN {
        d = FPMIN;
    }
    d = 1.0 / d;
    let mut h = d;
    for m in 1..300 {
        let m = m as f64;
        let m2 = 2.0 * m;
        let aa = m * (b - m) * x / ((qam + m2) * (a + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        h *= d * c;
        let aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2));
        d = 1.0 + aa * d;
        if d.abs() < FPMIN {
            d = FPMIN;
        }
        c = 1.0 + aa / c;
        if c.abs() < FPMIN {
            c = FPMIN;
        }
        d = 1.0 / d;
        let del = d * c;
        h *= del;
        if (del - 1.0).abs() < 1e-15 {
            break;
        }
    }
    h
}

/// Inverse of the regularized incomplete beta: find x with I_x(a,b) = p.
pub fn beta_inc_inv(a: f64, b: f64, p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p));
    if p == 0.0 {
        return 0.0;
    }
    if p == 1.0 {
        return 1.0;
    }
    // Bisection with Newton acceleration — robust over all (a, b).
    let mut lo = 0.0_f64;
    let mut hi = 1.0_f64;
    let mut x = 0.5_f64;
    for _ in 0..200 {
        let f = beta_inc(a, b, x) - p;
        if f.abs() < 1e-14 {
            break;
        }
        if f > 0.0 {
            hi = x;
        } else {
            lo = x;
        }
        // Newton step with fallback to bisection midpoint.
        let ln_pdf = (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln() - ln_beta(a, b);
        let deriv = ln_pdf.exp();
        let newton = x - f / deriv;
        x = if deriv > 0.0 && newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
        if hi - lo < 1e-15 {
            break;
        }
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64, tol: f64) {
        assert!(
            (a - b).abs() <= tol * (1.0 + b.abs()),
            "{a} != {b} (tol {tol})"
        );
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1..15u64 {
            let fact: f64 = (1..n).map(|k| k as f64).product();
            close(ln_gamma(n as f64), fact.ln(), 1e-12);
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = √π
        close(ln_gamma(0.5), std::f64::consts::PI.sqrt().ln(), 1e-12);
    }

    #[test]
    fn gamma_reflection() {
        // Γ(x)Γ(1−x) = π/sin(πx)
        let x = 0.3;
        close(
            gamma(x) * gamma(1.0 - x),
            std::f64::consts::PI / (std::f64::consts::PI * x).sin(),
            1e-10,
        );
    }

    #[test]
    fn erf_known_values() {
        close(erf(0.0), 0.0, 1e-15);
        close(erf(1.0), 0.842_700_792_949_714_9, 1e-10);
        close(erf(-1.0), -0.842_700_792_949_714_9, 1e-10);
        close(erf(2.0), 0.995_322_265_018_952_7, 1e-10);
    }

    #[test]
    fn normal_cdf_symmetry() {
        for &x in &[0.1, 0.5, 1.0, 2.0, 3.5] {
            close(std_normal_cdf(x) + std_normal_cdf(-x), 1.0, 1e-13);
        }
    }

    #[test]
    fn normal_quantile_roundtrip() {
        for &p in &[1e-8, 1e-4, 0.01, 0.3, 0.5, 0.7, 0.99, 1.0 - 1e-6] {
            close(std_normal_cdf(std_normal_quantile(p)), p, 1e-10);
        }
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        // P(1, x) = 1 − e^{-x}
        for &x in &[0.1, 1.0, 3.0, 10.0] {
            close(gamma_p(1.0, x), 1.0 - (-x_f(x)).exp(), 1e-12);
        }
        fn x_f(x: f64) -> f64 {
            x
        }
    }

    /// Regularized upper incomplete gamma function Q(a, x) = 1 − P(a, x).
    fn gamma_q(a: f64, x: f64) -> f64 {
        assert!(a > 0.0, "gamma_q requires a > 0");
        if x <= 0.0 {
            return 1.0;
        }
        if x < a + 1.0 {
            1.0 - gamma_p_series(a, x)
        } else {
            gamma_q_cf(a, x)
        }
    }

    #[test]
    fn gamma_p_plus_q_is_one() {
        for &a in &[0.3, 1.0, 2.5, 10.0] {
            for &x in &[0.2, 1.0, 5.0, 20.0] {
                close(gamma_p(a, x) + gamma_q(a, x), 1.0, 1e-12);
            }
        }
    }

    #[test]
    fn gamma_p_inv_roundtrip() {
        for &a in &[0.5, 1.0, 2.0, 7.5] {
            for &p in &[0.01, 0.2, 0.5, 0.9, 0.999] {
                let x = gamma_p_inv(a, p);
                close(gamma_p(a, x), p, 1e-8);
            }
        }
    }

    #[test]
    fn beta_inc_symmetry() {
        // I_x(a,b) = 1 − I_{1−x}(b,a)
        for &(a, b, x) in &[(2.0, 3.0, 0.4), (0.5, 0.5, 0.2), (5.0, 1.5, 0.7)] {
            close(beta_inc(a, b, x), 1.0 - beta_inc(b, a, 1.0 - x), 1e-12);
        }
    }

    #[test]
    fn beta_inc_uniform_case() {
        // I_x(1,1) = x
        for &x in &[0.1, 0.5, 0.9] {
            close(beta_inc(1.0, 1.0, x), x, 1e-12);
        }
    }

    #[test]
    fn beta_inv_roundtrip() {
        for &(a, b) in &[(2.0, 5.0), (0.7, 0.7), (10.0, 2.0)] {
            for &p in &[0.05, 0.5, 0.95] {
                let x = beta_inc_inv(a, b, p);
                close(beta_inc(a, b, x), p, 1e-9);
            }
        }
    }
}
