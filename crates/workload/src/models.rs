//! The paper's fitted statistical models (Tables II and III).
//!
//! **Job arrival** is modeled as a distribution over *absolute arrival
//! times* within the year — "the inverse CDF is used to model arrival time
//! as a function of probability, and random values in the \[0,1\] range are
//! used to sample job arrival times" (§IV-2) — with the uniform input
//! re-scaled so every sample lands inside the calendar year.
//!
//! **Parameter provenance.** Distribution *families* and *shape parameters*
//! are taken verbatim from Tables II and III (GEV shapes k, Burr c/k, BS γ,
//! Weibull k). The printed location/scale columns are internally
//! inconsistent in the published table (every phase shares μ = 7.35e4 and
//! the σ values are ~20–56, far too narrow to cover a 3.15e7-second year),
//! so locations are placed at the documented structural positions — U65's
//! four quarterly experiment phases ("a pattern in job arrival about every
//! three months"), U3's early burst — with scales interpreted in *days* and
//! converted to seconds. EXPERIMENTS.md records this substitution; the
//! refit harness (Table II/III reproduction) measures the parameters back
//! from the generated traces.

use crate::users::{UserClass, DAY_S, YEAR_S};
use aequus_stats::dist::{AnyDist, BirnbaumSaunders, Burr, Gev, Mixture, Weibull};
use aequus_stats::RangeRescaled;

/// A model built from the literal parameters of Tables II and III. Every
/// call passes constants the constructors accept (`models::tests` builds
/// each one), so this is the module's one panic site.
#[track_caller]
fn literal<T>(model: Option<T>) -> T {
    model.expect("Tables II/III's literal parameters build their model")
}

/// GEV shape parameters of the four U65 arrival phases (Table II).
pub const U65_PHASE_SHAPES: [f64; 4] = [-0.386, -0.371, -0.457, -0.301];

/// GEV scales of the four U65 arrival phases, in days (Table II σ values).
pub const U65_PHASE_SCALES_DAYS: [f64; 4] = [19.5, 30.6, 30.8, 21.4];

/// Per-phase usage weights of Eq. (1): `phase_usage / total_usage`. The
/// paper does not print the numeric weights; these follow Figure 5's phase
/// densities (an early-heavy year).
pub const U65_PHASE_WEIGHTS: [f64; 4] = [0.30, 0.25, 0.25, 0.20];

/// Phase boundaries of the U65 model, in seconds (quarterly cycles,
/// "each cycle... lasting about three months").
pub fn u65_phase_bounds() -> [(f64, f64); 4] {
    let q = YEAR_S / 4.0;
    [
        (0.0, q),
        (q, 2.0 * q),
        (2.0 * q, 3.0 * q),
        (3.0 * q, YEAR_S),
    ]
}

/// The per-phase GEV arrival model of U65: phase `n` (0-based).
fn u65_phase_model(n: usize) -> Gev {
    assert!(n < 4, "U65 has four phases");
    let (lo, hi) = u65_phase_bounds()[n];
    let center = 0.5 * (lo + hi);
    literal(Gev::new(
        U65_PHASE_SHAPES[n],
        U65_PHASE_SCALES_DAYS[n] * DAY_S,
        center,
    ))
}

/// Equation (1): the composite U65 arrival PDF — each phase's density scaled
/// by its usage fraction.
pub fn u65_composite_arrival() -> Mixture {
    literal(Mixture::new(
        (0..4)
            .map(|n| (U65_PHASE_WEIGHTS[n], AnyDist::from(u65_phase_model(n))))
            .collect(),
    ))
}

/// The arrival-time model of a user class over the year (Table II families).
pub fn arrival_model(user: UserClass) -> AnyDist {
    match user {
        UserClass::U65 => AnyDist::from(u65_composite_arrival()),
        // Burr arrival for U30 (Table II family). The printed scale
        // (α = 7.4e4 s ≈ 20 h) would concentrate the whole year's arrivals
        // in the first days, contradicting the paper's own test narrative
        // ("at the end of the tests mostly jobs by U30 are available",
        // §IV-A-3); with Table II's shape k = 0.08 kept, the scale is set to
        // 0.45 year and c = 1.2 so arrivals cover the whole year with a mild
        // early lean (≈42% in the first third, ≈25% after day 243) — U30 is
        // available both early (balance windows) and late (Fig. 12's ending).
        UserClass::U30 => AnyDist::from(literal(Burr::new(1.42e7, 1.2, 0.08))),
        // U3: bursty arrivals, early burst in the original trace; positive
        // GEV shape = heavy right tail after the burst.
        UserClass::U3 => AnyDist::from(literal(Gev::new(0.195, 29.1 * DAY_S, 60.0 * DAY_S))),
        // U_oth: diffuse background arrivals across the year.
        UserClass::Uoth => AnyDist::from(literal(Gev::new(0.148, 56.0 * DAY_S, 182.0 * DAY_S))),
    }
}

/// The re-scaled sampler producing arrival times strictly inside the year
/// (the paper's "effective range" construction; U65's printed range is
/// [7.451e−3, 9.946e−1]).
pub fn arrival_sampler(user: UserClass) -> RangeRescaled<AnyDist> {
    // The same construction as the paper's printed U65 range
    // [7.451e-3, 9.946e-1]: the u-range is derived from the CDF at the year
    // boundaries so every sample lands inside the calendar year.
    literal(RangeRescaled::for_x_range(arrival_model(user), 0.0, YEAR_S))
}

/// The job-duration model of a user class (Table III, parameters in
/// seconds).
fn duration_model(user: UserClass) -> AnyDist {
    match user {
        // BS(β = 1.76e4, γ = 3.53): median β ≈ 4.9 h.
        UserClass::U65 => AnyDist::from(literal(BirnbaumSaunders::new(1.76e4, 3.53))),
        // Weibull(λ = 5.49e4, k = 0.637): "U30 exhibits a larger tail and
        // generally exhibits larger job sizes".
        UserClass::U30 => AnyDist::from(literal(Weibull::new(5.49e4, 0.637))),
        // Burr(α = 2.07, c = 11.0, k = 0.02): very short, bursty jobs
        // (median ≈ 48 s) — "the job durations of U3 are considerably
        // shorter than those of U65".
        UserClass::U3 => AnyDist::from(literal(Burr::new(2.07, 11.0, 0.02))),
        // BS(β = 3.02e4, γ = 7.91).
        UserClass::Uoth => AnyDist::from(literal(BirnbaumSaunders::new(3.02e4, 7.91))),
    }
}

/// Duration sampler bounded to sane wall-clock times (one second to the
/// paper's [0, 6e5]-second job-size focus window, Figure 7).
pub fn duration_sampler(user: UserClass) -> RangeRescaled<AnyDist> {
    literal(RangeRescaled::for_x_range(duration_model(user), 1.0, 6.0e5))
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_stats::distribution::icdf_numeric;
    use aequus_stats::ContinuousDistribution;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Every class's arrival and duration sampler builds from its literal
    /// parameters — the one thing [`literal`] assumes.
    #[test]
    fn every_classs_samplers_build() {
        for user in UserClass::ALL {
            let (lo, hi) = arrival_sampler(user).u_range();
            assert!(lo < hi, "{user:?} arrivals: ({lo}, {hi})");
            let (lo, hi) = duration_sampler(user).u_range();
            assert!(lo < hi, "{user:?} durations: ({lo}, {hi})");
        }
    }

    #[test]
    fn phase_models_centered_quarterly() {
        for n in 0..4 {
            let (lo, hi) = u65_phase_bounds()[n];
            let m = u65_phase_model(n);
            assert!(m.mu > lo && m.mu < hi, "phase {n} center inside bounds");
        }
    }

    #[test]
    fn composite_weights_follow_eq1() {
        let c = u65_composite_arrival();
        let total: f64 = U65_PHASE_WEIGHTS.iter().sum();
        for (i, (w, _)) in c.components().iter().enumerate() {
            assert!((w - U65_PHASE_WEIGHTS[i] / total).abs() < 1e-12);
        }
    }

    /// Every U65 arrival is `Mixture::icdf` at a probability inside the
    /// sampler's `u_range()`; over 100k stratified probabilities it returns
    /// `icdf_numeric`'s bits, so the §IV traces do not move.
    #[test]
    fn u65_arrival_quantiles_are_icdf_numeric_bit_for_bit() {
        let s = arrival_sampler(UserClass::U65);
        let (lo, hi) = s.u_range();
        let n = 100_000;
        for i in 0..n {
            let p = lo + (i as f64 + 0.5) / n as f64 * (hi - lo);
            assert_eq!(
                s.dist().icdf(p).to_bits(),
                icdf_numeric(s.dist(), p).to_bits(),
                "p = {p:e}"
            );
        }
    }

    #[test]
    fn u65_arrivals_inside_year() {
        let s = arrival_sampler(UserClass::U65);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..2000 {
            let t = s.sample(&mut rng);
            assert!((0.0..=YEAR_S).contains(&t), "{t}");
        }
    }

    #[test]
    fn all_arrival_samplers_bounded() {
        let mut rng = StdRng::seed_from_u64(2);
        for user in UserClass::ALL {
            let s = arrival_sampler(user);
            for _ in 0..500 {
                let t = s.sample(&mut rng);
                assert!(
                    (-1.0..=YEAR_S + 1.0).contains(&t),
                    "{user:?} sample {t} outside year"
                );
            }
        }
    }

    #[test]
    fn duration_medians_match_table3_families() {
        // Medians follow the printed distribution parameters.
        let u65 = duration_model(UserClass::U65);
        assert!((u65.icdf(0.5) / 1.76e4 - 1.0).abs() < 1e-6, "BS median = β");
        let u30 = duration_model(UserClass::U30);
        let expected = 5.49e4 * (2.0f64.ln()).powf(1.0 / 0.637);
        assert!((u30.icdf(0.5) / expected - 1.0).abs() < 1e-6);
        let u3 = duration_model(UserClass::U3);
        assert!(u3.icdf(0.5) < 100.0, "U3 jobs are short: {}", u3.icdf(0.5));
    }

    #[test]
    fn u3_jobs_much_shorter_than_u65() {
        let u3 = duration_model(UserClass::U3).icdf(0.5);
        let u65 = duration_model(UserClass::U65).icdf(0.5);
        assert!(u65 / u3 > 100.0, "u65 median {u65} vs u3 {u3}");
    }

    #[test]
    fn u30_generally_larger_job_sizes() {
        // Figure 7: U30 "generally exhibits larger job sizes" — its median
        // duration exceeds U65's (the BS γ=3.53 tail makes U65's *mean*
        // heavy, but the bulk of U65 jobs is shorter).
        let u30 = duration_model(UserClass::U30);
        let u65 = duration_model(UserClass::U65);
        assert!(u30.icdf(0.5) > u65.icdf(0.5));
    }

    #[test]
    fn durations_in_focus_window() {
        let mut rng = StdRng::seed_from_u64(4);
        for user in UserClass::ALL {
            let s = duration_sampler(user);
            for _ in 0..500 {
                let d = s.sample(&mut rng);
                assert!((1.0..=6.0e5 + 1.0).contains(&d), "{user:?}: {d}");
            }
        }
    }
}
