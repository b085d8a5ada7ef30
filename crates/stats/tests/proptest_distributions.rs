//! Property-based tests of the distribution zoo: CDF monotonicity, PDF
//! non-negativity, ICDF round-trips, and sampling bounds — for every family
//! and randomized parameters.

use aequus_stats::dist::*;
use aequus_stats::{ContinuousDistribution, RangeRescaled};
use proptest::prelude::*;

/// Check the universal distribution laws on one instance.
fn check_laws<D: ContinuousDistribution>(d: &D, probe_points: &[f64]) {
    let sup = d.support();
    let mut prev_cdf = 0.0f64;
    let mut prev_x = f64::NEG_INFINITY;
    for &x in probe_points {
        let pdf = d.pdf(x);
        let cdf = d.cdf(x);
        prop_assert2(pdf >= 0.0, &format!("{}: pdf({x}) = {pdf} < 0", d.name()));
        prop_assert2(
            (0.0..=1.0 + 1e-9).contains(&cdf),
            &format!("{}: cdf({x}) = {cdf} outside [0,1]", d.name()),
        );
        if x > prev_x {
            prop_assert2(
                cdf >= prev_cdf - 1e-9,
                &format!("{}: cdf not monotone at {x}", d.name()),
            );
        }
        if !sup.contains(x) {
            prop_assert2(
                pdf == 0.0,
                &format!("{}: pdf({x}) = {pdf} outside support", d.name()),
            );
        }
        prev_cdf = cdf;
        prev_x = x;
    }
}

/// Plain panic helper so `check_laws` works from both proptest closures and
/// ordinary tests.
fn prop_assert2(cond: bool, msg: &str) {
    assert!(cond, "{msg}");
}

fn icdf_roundtrip<D: ContinuousDistribution>(d: &D, ps: &[f64], tol: f64) {
    for &p in ps {
        let x = d.icdf(p);
        let back = d.cdf(x);
        assert!(
            (back - p).abs() < tol,
            "{}: cdf(icdf({p})) = {back}",
            d.name()
        );
    }
}

const PROBE_PS: [f64; 7] = [0.001, 0.05, 0.25, 0.5, 0.75, 0.95, 0.999];

fn probes_for<D: ContinuousDistribution>(d: &D) -> Vec<f64> {
    // Probe quantile locations plus points just outside the support.
    let mut xs: Vec<f64> = PROBE_PS.iter().map(|&p| d.icdf(p)).collect();
    let sup = d.support();
    if sup.lo.is_finite() {
        xs.insert(0, sup.lo - 1.0);
    }
    if sup.hi.is_finite() {
        xs.push(sup.hi + 1.0);
    }
    xs
}

/// One weighted mixture component: a normal, a GEV with k < 0, k > 0 or
/// k ≈ 0 (the Gumbel-limit branch and either side of it), or a logistic.
fn component() -> impl Strategy<Value = (f64, AnyDist)> {
    let draw = (
        0.05..1.0f64,
        0usize..7,
        -50.0..50.0f64,
        0.05..20.0f64,
        0.05..0.9f64,
        -1.0..1.0f64,
    );
    draw.prop_map(|(w, kind, loc, scale, k, tiny)| {
        let gev = |k| AnyDist::from(Gev::new(k, scale, loc).unwrap());
        let d = match kind {
            0 => AnyDist::from(Normal::new(loc, scale).unwrap()),
            1 => gev(-k),
            2 => gev(k),
            3 => gev(0.0),
            4 => gev(tiny * 1e-12),
            5 => gev(tiny * 1e-6),
            _ => AnyDist::from(Logistic::new(loc, scale).unwrap()),
        };
        (w, d)
    })
}

/// The mixture's CDF at the 257 knots `Mixture::icdf` tabulates: evenly
/// spaced across its components' `icdf(1e-12)..icdf(1 − 1e-12)`.
fn knot_cdfs(m: &Mixture) -> Vec<f64> {
    let x0 = m
        .components()
        .iter()
        .map(|(_, d)| d.icdf(1e-12))
        .fold(f64::INFINITY, f64::min);
    let x1 = m
        .components()
        .iter()
        .map(|(_, d)| d.icdf(1.0 - 1e-12))
        .fold(f64::NEG_INFINITY, f64::max);
    let dx = (x1 - x0) / 256.0;
    (0..257).map(|j| m.cdf(x0 + j as f64 * dx)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn normal_laws(mu in -100.0..100.0f64, sigma in 0.01..50.0f64) {
        let d = Normal::new(mu, sigma).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-8);
    }

    #[test]
    fn lognormal_laws(mu in -3.0..5.0f64, sigma in 0.05..3.0f64) {
        let d = LogNormal::new(mu, sigma).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-8);
    }

    #[test]
    fn exponential_laws(lambda in 0.001..100.0f64) {
        let d = Exponential::new(lambda).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-9);
    }

    #[test]
    fn gamma_laws(shape in 0.1..20.0f64, scale in 0.01..100.0f64) {
        let d = Gamma::new(shape, scale).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-6);
    }

    #[test]
    fn weibull_laws(lambda in 0.1..1e5f64, k in 0.2..8.0f64) {
        let d = Weibull::new(lambda, k).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-9);
    }

    #[test]
    fn gev_laws(k in -0.9..0.9f64, sigma in 0.1..100.0f64, mu in -100.0..100.0f64) {
        let d = Gev::new(k, sigma, mu).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-8);
    }

    #[test]
    fn gumbel_laws(mu in -50.0..50.0f64, beta in 0.05..20.0f64) {
        let d = Gumbel::new(mu, beta).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-9);
    }

    #[test]
    fn burr_laws(alpha in 0.1..1e6f64, c in 0.2..15.0f64, k in 0.02..5.0f64) {
        let d = Burr::new(alpha, c, k).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-8);
    }

    #[test]
    fn birnbaum_saunders_laws(beta in 0.1..1e6f64, gamma in 0.1..10.0f64) {
        let d = BirnbaumSaunders::new(beta, gamma).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-8);
    }

    #[test]
    fn pareto_laws(xm in 0.01..1e4f64, alpha in 0.1..10.0f64) {
        let d = Pareto::new(xm, alpha).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-9);
    }

    #[test]
    fn logistic_laws(mu in -100.0..100.0f64, s in 0.01..50.0f64) {
        let d = Logistic::new(mu, s).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-9);
    }

    #[test]
    fn loglogistic_laws(mu in -3.0..6.0f64, s in 0.05..2.0f64) {
        let d = LogLogistic::new(mu, s).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-8);
    }

    #[test]
    fn tlocationscale_laws(mu in -50.0..50.0f64, sigma in 0.05..20.0f64, nu in 0.5..50.0f64) {
        let d = TLocationScale::new(mu, sigma, nu).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-6);
    }

    #[test]
    fn rayleigh_laws(sigma in 0.01..100.0f64) {
        let d = Rayleigh::new(sigma).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-9);
    }

    #[test]
    fn halfnormal_laws(sigma in 0.01..100.0f64) {
        let d = HalfNormal::new(sigma).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-8);
    }

    #[test]
    fn nakagami_laws(m in 0.5..20.0f64, omega in 0.01..1e4f64) {
        let d = Nakagami::new(m, omega).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-6);
    }

    #[test]
    fn inverse_gaussian_laws(mu in 0.05..100.0f64, lambda in 0.05..100.0f64) {
        let d = InverseGaussian::new(mu, lambda).unwrap();
        check_laws(&d, &probes_for(&d));
        // Numeric ICDF: slightly looser tolerance.
        icdf_roundtrip(&d, &PROBE_PS, 1e-6);
    }

    #[test]
    fn uniform_laws(a in -100.0..100.0f64, w in 0.01..200.0f64) {
        let d = Uniform::new(a, a + w).unwrap();
        check_laws(&d, &probes_for(&d));
        icdf_roundtrip(&d, &PROBE_PS, 1e-12);
    }

    #[test]
    fn mixture_laws(
        mu1 in -50.0..0.0f64,
        mu2 in 0.0..50.0f64,
        s in 0.1..10.0f64,
        w in 0.05..0.95f64,
    ) {
        let m = Mixture::new(vec![
            (w, AnyDist::from(Normal::new(mu1, s).unwrap())),
            (1.0 - w, AnyDist::from(Normal::new(mu2, s).unwrap())),
        ])
        .unwrap();
        check_laws(&m, &probes_for(&m));
        icdf_roundtrip(&m, &[0.05, 0.5, 0.95], 1e-6);
    }

    #[test]
    fn range_rescaled_always_in_bounds(
        k in -0.5..0.5f64,
        sigma in 1.0..100.0f64,
        u in 0.0..1.0f64,
        lo_frac in 0.01..0.4f64,
        hi_frac in 0.6..0.99f64,
    ) {
        let d = Gev::new(k, sigma, 0.0).unwrap();
        let r = RangeRescaled::new(d, lo_frac, hi_frac).unwrap();
        let (x_lo, x_hi) = r.x_range();
        let x = r.transform(u);
        prop_assert!(x >= x_lo - 1e-6 * (1.0 + x_lo.abs()), "{x} < {x_lo}");
        prop_assert!(x <= x_hi + 1e-6 * (1.0 + x_hi.abs()), "{x} > {x_hi}");
    }

    #[test]
    fn sampling_respects_support(k in -0.8..0.8f64, sigma in 0.1..50.0f64, seed in 0u64..1000) {
        use rand::SeedableRng;
        let d = Gev::new(k, sigma, 10.0).unwrap();
        let sup = d.support();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        for x in aequus_stats::sample_n(&d, 64, &mut rng) {
            prop_assert!(sup.contains(x) || (x - sup.lo).abs() < 1e-9 || (x - sup.hi).abs() < 1e-9,
                "sample {x} outside support [{}, {}]", sup.lo, sup.hi);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `Mixture::icdf` skips the CDF evaluations its certified bracket
    /// decides, and must still return `icdf_numeric`'s bits: over random
    /// mixtures of the family the bracket covers (GEV of either shape sign
    /// and at k ≈ 0) and two it does not (normal, logistic), at
    /// probabilities across (1e-15, 1 − 1e-15) and within 1e-9 of the CDF
    /// at the quantile's knots.
    #[test]
    fn mixture_icdf_is_icdf_numeric_bit_for_bit(
        parts in proptest::collection::vec(component(), 1..5),
        spread in proptest::collection::vec(0.0..1.0f64, 24),
        near_knots in proptest::collection::vec((0usize..257, -1e-9..1e-9f64), 16),
    ) {
        let m = Mixture::new(parts).unwrap();
        let mut ps: Vec<f64> = spread
            .iter()
            .enumerate()
            .map(|(i, &u)| match i % 3 {
                0 => 10f64.powf(-15.0 * u),
                1 => 1.0 - 10f64.powf(-15.0 * u),
                _ => u,
            })
            .collect();
        let knots = knot_cdfs(&m);
        ps.extend(near_knots.iter().map(|&(j, off)| knots[j] + off));
        for p in ps {
            let p = p.clamp(1e-15, 1.0 - 1e-15);
            prop_assert_eq!(
                m.icdf(p).to_bits(),
                aequus_stats::distribution::icdf_numeric(&m, p).to_bits(),
                "p = {:e}, mixture {:?}", p, m.components()
            );
        }
    }
}
