//! Finite mixture distributions.
//!
//! Equation (1) of the paper defines the U65 job-arrival model as a
//! usage-weighted mixture of four per-phase GEV fits:
//! `PDF(x) = Σ_n (phase_usage_n / total_usage) · PDF_pn(x)`.
//! [`Mixture`] implements exactly that construction for arbitrary
//! components.

use crate::dist::AnyDist;
use crate::distribution::{bisect_quantile, ContinuousDistribution, Support};

/// E, a bound on `|cdf(x) − G(x)|` for a monotone `G`: the same expression
/// with `powf`/`exp` correctly rounded (all else is IEEE rounding, which
/// keeps order). With u = 2⁻⁵³ and libm within 1 ulp: a GEV's
/// `s = t.powf(−1/k)` is off by a relative 3u, moving `exp(−s)` by
/// ≤ s·e⁻ˢ·3u ≤ 1.2u, and the two `exp` roundings add ≤ 3u (the k ≈ 0
/// Gumbel limit, `exp(−exp(−z))`, is the same chain). The weighted sum
/// adds ≤ 2u per product and per addition: ≤ (5 + 4n)u, 21u for U65's
/// n = 4 and 37u at the n = 8 allowed; 128u is 6× and 3.4× that.
const CDF_ERR: f64 = 64.0 * f64::EPSILON;

/// A finite mixture of component distributions with non-negative weights.
///
/// Weights are normalized to sum to 1 at construction time.
#[derive(Debug, Clone)]
pub struct Mixture {
    components: Vec<(f64, AnyDist)>,
    /// (CDF, density) at `x0 + j·dx`, j ≤ 256; empty unless [`CDF_ERR`]
    /// covers the mixture.
    knots: Vec<(f64, f64)>,
    x0: f64,
    dx: f64,
}

impl Mixture {
    /// Build a mixture from `(weight, component)` pairs.
    ///
    /// Returns `None` if empty, any weight is negative/non-finite, or the
    /// total weight is zero.
    pub fn new(components: Vec<(f64, AnyDist)>) -> Option<Self> {
        if components.is_empty() {
            return None;
        }
        let total: f64 = components.iter().map(|(w, _)| *w).sum();
        if !total.is_finite() || total <= 0.0 || components.iter().any(|(w, _)| *w < 0.0) {
            return None;
        }
        let (mut x0, mut x1, mut covered) =
            (f64::INFINITY, f64::NEG_INFINITY, components.len() <= 8);
        for (_, d) in &components {
            (x0, x1) = (x0.min(d.icdf(1e-12)), x1.max(d.icdf(1.0 - 1e-12)));
            covered &= matches!(d, AnyDist::Gev(_));
        }
        let dx = (x1 - x0) / 256.0;
        let components = components.into_iter().map(|(w, d)| (w / total, d));
        let mut m = Self {
            components: components.collect(),
            knots: Vec::new(),
            x0,
            dx,
        };
        if covered && dx.is_finite() && dx > 0.0 {
            m.knots = (0..257).map(|j| m.cdf_pdf(x0 + j as f64 * dx)).collect();
        }
        Some(m)
    }

    /// The quantile, with the CDF read through closures tests can count.
    /// Newton gives q̂; two evaluations certify `cdf(a) + 2E < p < cdf(b) −
    /// 2E` (E = [`CDF_ERR`]), so any `m ≤ a` has `cdf(m) ≤ G(m) + E ≤ G(a) +
    /// E ≤ cdf(a) + 2E < p` and any `m ≥ b` reads above `p` alike. A side
    /// starts 3E/f̂ from q̂ (f̂: Newton's last density; at least an ulp of q̂)
    /// and widens ×8 up to a knot cell. `icdf_numeric`'s bisection then runs
    /// step for step, evaluating only inside (a, b).
    fn quantile(
        &self,
        p: f64,
        mut cdf: impl FnMut(f64) -> f64,
        cdf_pdf: impl FnMut(f64) -> (f64, f64),
    ) -> f64 {
        let bracket = self.newton(p, cdf_pdf).and_then(|(q, f)| {
            let mut side = |sign: f64| {
                let mut d = (3.0 * CDF_ERR / f).max(f64::EPSILON * q.abs());
                while d <= self.dx {
                    if sign * (cdf(q + sign * d) - p) > 2.0 * CDF_ERR {
                        return Some(q + sign * d);
                    }
                    d *= 8.0;
                }
                None
            };
            Some((side(-1.0)?, side(1.0)?))
        });
        let Some((a, b)) = bracket else {
            return bisect_quantile(self.support(), p, cdf);
        };
        bisect_quantile(self.support(), p, |x| match (x <= a, x >= b) {
            (true, _) => f64::NEG_INFINITY,
            (_, true) => f64::INFINITY,
            _ => cdf(x),
        })
    }

    /// Newton's q̂ and last density, from cubic Hermite interpolation of the
    /// inverse CDF in `p`'s knot cell; a step leaving the shrinking cell
    /// bisects it, and one ≤ 1e-7 relative ends it (quadratic convergence
    /// leaves q̂ far closer than the bracket needs).
    fn newton(&self, p: f64, mut cdf_pdf: impl FnMut(f64) -> (f64, f64)) -> Option<(f64, f64)> {
        let j = self.knots.partition_point(|&(c, _)| c < p);
        let ((c0, f0), (c1, f1)) = (*self.knots.get(j.checked_sub(1)?)?, *self.knots.get(j)?);
        let (h, t) = (c1 - c0, (p - c0) / (c1 - c0));
        let mut lo = self.x0 + (j - 1) as f64 * self.dx;
        let mut hi = lo + self.dx;
        let mut x = (1.0 + 2.0 * t) * (1.0 - t) * (1.0 - t) * lo
            + t * t * (3.0 - 2.0 * t) * hi
            + t * (1.0 - t) * ((1.0 - t) / f0 - t / f1) * h;
        for _ in 0..64 {
            x = if x > lo && x < hi { x } else { 0.5 * (lo + hi) };
            let (c, f) = cdf_pdf(x);
            lo = if c < p { x } else { lo };
            hi = if c > p { x } else { hi };
            let step = (c - p) / f;
            x -= step;
            if step.abs() <= 1e-7 * (1.0 + x.abs()) && x > lo && x < hi {
                return Some((x, f));
            }
        }
        None
    }

    /// The CDF and density at `x` in one pass; a GEV shares `t.powf(−1/k)`.
    fn cdf_pdf(&self, x: f64) -> (f64, f64) {
        self.components.iter().fold((0.0, 0.0), |(c, f), (w, d)| {
            let (dc, df) = match d {
                AnyDist::Gev(g) if g.k.abs() >= 1e-12 && g.t(x) > 0.0 => {
                    let t = g.t(x);
                    let s = t.powf(-1.0 / g.k);
                    let e = (-s).exp();
                    (e, s / t * e / g.sigma)
                }
                _ => (d.cdf(x), d.pdf(x)),
            };
            (c + w * dc, f + w * df)
        })
    }

    /// The normalized `(weight, component)` pairs.
    pub fn components(&self) -> &[(f64, AnyDist)] {
        &self.components
    }

    /// Number of mixture components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the mixture has no components (never true post-construction).
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }
}

impl ContinuousDistribution for Mixture {
    fn name(&self) -> &'static str {
        "Mixture"
    }
    fn param_count(&self) -> usize {
        // Component parameters plus (len − 1) free weights.
        self.components
            .iter()
            .map(|(_, d)| d.param_count())
            .sum::<usize>()
            + self.components.len()
            - 1
    }
    fn params(&self) -> Vec<(&'static str, f64)> {
        let mut out = Vec::new();
        for (w, d) in &self.components {
            out.push(("weight", *w));
            out.extend(d.params());
        }
        out
    }
    fn support(&self) -> Support {
        let lo = self
            .components
            .iter()
            .map(|(_, d)| d.support().lo)
            .fold(f64::INFINITY, f64::min);
        let hi = self
            .components
            .iter()
            .map(|(_, d)| d.support().hi)
            .fold(f64::NEG_INFINITY, f64::max);
        Support { lo, hi }
    }
    fn pdf(&self, x: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.pdf(x)).sum()
    }
    fn cdf(&self, x: f64) -> f64 {
        self.components.iter().map(|(w, d)| w * d.cdf(x)).sum()
    }
    /// `icdf_numeric`'s bits at ≈ 4 CDF evaluations on U65 instead of ≈ 43
    /// (`Mixture::quantile`). Mixtures E does not cover (over eight
    /// components, or any that is not a GEV) evaluate every step.
    fn icdf(&self, p: f64) -> f64 {
        self.quantile(p, |x| self.cdf(x), |x| self.cdf_pdf(x))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::normal::Normal;
    use crate::dist::Gev;
    use crate::distribution::icdf_numeric;

    fn two_normals() -> Mixture {
        Mixture::new(vec![
            (0.3, AnyDist::from(Normal::new(-2.0, 1.0).unwrap())),
            (0.7, AnyDist::from(Normal::new(3.0, 0.5).unwrap())),
        ])
        .unwrap()
    }

    #[test]
    fn weights_normalize() {
        let m = Mixture::new(vec![
            (2.0, AnyDist::from(Normal::new(0.0, 1.0).unwrap())),
            (6.0, AnyDist::from(Normal::new(1.0, 1.0).unwrap())),
        ])
        .unwrap();
        let ws: Vec<f64> = m.components().iter().map(|(w, _)| *w).collect();
        assert!((ws[0] - 0.25).abs() < 1e-12);
        assert!((ws[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn cdf_is_weighted_sum() {
        let m = two_normals();
        let n1 = Normal::new(-2.0, 1.0).unwrap();
        let n2 = Normal::new(3.0, 0.5).unwrap();
        for &x in &[-3.0, 0.0, 2.0, 4.0] {
            let expected = 0.3 * n1.cdf(x) + 0.7 * n2.cdf(x);
            assert!((m.cdf(x) - expected).abs() < 1e-12);
        }
    }

    #[test]
    fn icdf_roundtrip() {
        let m = two_normals();
        for &p in &[0.05, 0.3, 0.5, 0.9] {
            let x = m.icdf(p);
            assert!((m.cdf(x) - p).abs() < 1e-9, "p={p}");
        }
    }

    /// Eq. 1's U65 arrival model: four quarterly GEV phases with Table II's
    /// shapes and scales (days, here in seconds) and Figure 5's weights.
    fn u65_like() -> Mixture {
        let (day, quarter) = (86_400.0, 365.0 * 86_400.0 / 4.0);
        let shapes = [-0.386, -0.371, -0.457, -0.301];
        let scales = [19.5, 30.6, 30.8, 21.4];
        let weights = [0.30, 0.25, 0.25, 0.20];
        Mixture::new(
            (0..4)
                .map(|n| {
                    let mu = (n as f64 + 0.5) * quarter;
                    let g = Gev::new(shapes[n], scales[n] * day, mu).unwrap();
                    (weights[n], AnyDist::from(g))
                })
                .collect(),
        )
        .unwrap()
    }

    /// Mean CDF evaluations per quantile on U65's shape over a stratified
    /// grid, a fused CDF + density counting one (`icdf_numeric` needs ≈ 43).
    /// A count, so the gate reads the same on any host.
    #[test]
    fn a_quantile_costs_at_most_eight_evaluations_on_average() {
        use std::cell::Cell;
        let m = u65_like();
        let calls = Cell::new(0u64);
        let n = 10_000;
        for i in 0..n {
            let p = (i as f64 + 0.5) / n as f64;
            let q = m.quantile(
                p,
                |x| {
                    calls.set(calls.get() + 1);
                    m.cdf(x)
                },
                |x| {
                    calls.set(calls.get() + 1);
                    m.cdf_pdf(x)
                },
            );
            assert_eq!(q.to_bits(), icdf_numeric(&m, p).to_bits(), "p = {p}");
        }
        let mean = calls.get() as f64 / n as f64;
        assert!(mean <= 8.0, "{mean} CDF evaluations per quantile");
    }

    /// The certificate, not the estimate, makes the replay exact: for a
    /// CDF within [`CDF_ERR`] of a monotone one (the mixture's plus hashed
    /// noise of 0.75 E) and a `cdf_pdf` that biases Newton by 3E/f, so that
    /// one side of the bracket starts at the root, the replay still returns
    /// what the bisection over that CDF returns.
    #[test]
    fn the_bracket_holds_for_any_cdf_within_its_error_bound() {
        let m = u65_like();
        let noisy = |x: f64| {
            let h = x.to_bits().wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11;
            let unit = h as f64 / (1u64 << 53) as f64 * 2.0 - 1.0;
            m.cdf(x) + 0.75 * CDF_ERR * unit
        };
        let n = 5_000;
        for bias in [-3.0 * CDF_ERR, 3.0 * CDF_ERR] {
            for i in 0..n {
                let p = (i as f64 + 0.5) / n as f64;
                let q = m.quantile(p, noisy, |x| {
                    let (c, f) = m.cdf_pdf(x);
                    (c - bias, f)
                });
                let reference = bisect_quantile(m.support(), p, noisy);
                assert_eq!(q.to_bits(), reference.to_bits(), "p = {p}, bias {bias:e}");
            }
        }
    }

    #[test]
    fn the_fused_density_is_the_pdf() {
        let m = u65_like();
        for i in 1..100 {
            let x = i as f64 * 3.2e5;
            let (c, f) = m.cdf_pdf(x);
            assert!((c - m.cdf(x)).abs() <= 1e-15, "cdf at {x}");
            assert!((f - m.pdf(x)).abs() <= 1e-12 * m.pdf(x), "pdf at {x}");
        }
    }

    #[test]
    fn uncovered_families_take_the_plain_bisection() {
        assert!(two_normals().knots.is_empty());
        assert_eq!(u65_like().knots.len(), 257);
    }

    #[test]
    fn rejects_bad_weights() {
        assert!(Mixture::new(vec![]).is_none());
        assert!(
            Mixture::new(vec![(-1.0, AnyDist::from(Normal::new(0.0, 1.0).unwrap()))]).is_none()
        );
        assert!(Mixture::new(vec![(0.0, AnyDist::from(Normal::new(0.0, 1.0).unwrap()))]).is_none());
    }
}
