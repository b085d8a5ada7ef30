//! The dominating user classes of the 2012 Swedish national grid trace
//! (§IV-1): "the vast majority of jobs are submitted by three different user
//! identities", with everyone else grouped as U_oth.

/// Seconds in the modeled calendar year.
pub const YEAR_S: f64 = 365.0 * 24.0 * 3600.0;

/// Seconds in a day (histogram bin size of Figures 4 and 5).
pub const DAY_S: f64 = 24.0 * 3600.0;

/// The four user classes of the workload characterization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum UserClass {
    /// Most active user: 65.25% of wall-clock usage, 81.03% of jobs.
    /// "A large scale research project" with ~3-month experimental cycles.
    U65,
    /// Second most active: 30.49% of usage, 6.58% of jobs.
    U30,
    /// Third: 2.86% of usage, 9.47% of jobs — bursty, short jobs.
    U3,
    /// Everyone else: 1.40% of usage, 2.93% of jobs.
    Uoth,
}

impl UserClass {
    /// All classes in paper order.
    pub const ALL: [UserClass; 4] = [
        UserClass::U65,
        UserClass::U30,
        UserClass::U3,
        UserClass::Uoth,
    ];

    /// Display / grid-identity name.
    pub fn name(&self) -> &'static str {
        match self {
            UserClass::U65 => "U65",
            UserClass::U30 => "U30",
            UserClass::U3 => "U3",
            UserClass::Uoth => "Uoth",
        }
    }

    /// Fraction of total wall-clock time usage in the original trace.
    pub fn usage_share(&self) -> f64 {
        match self {
            UserClass::U65 => 0.6525,
            UserClass::U30 => 0.3049,
            UserClass::U3 => 0.0286,
            UserClass::Uoth => 0.0140,
        }
    }

    /// Fraction of submitted jobs in the original trace.
    pub fn job_share(&self) -> f64 {
        match self {
            UserClass::U65 => 0.8103,
            UserClass::U30 => 0.0658,
            UserClass::U3 => 0.0947,
            UserClass::Uoth => 0.0293,
        }
    }

    /// Parse from a user name.
    pub fn parse(name: &str) -> Option<UserClass> {
        Self::ALL.iter().copied().find(|c| c.name() == name)
    }
}

/// The baseline policy of the paper's tests: "the actual share from the
/// workloads are used as targets for most of the tests" — (name, share)
/// pairs matching the usage shares.
pub fn baseline_policy_shares() -> Vec<(&'static str, f64)> {
    UserClass::ALL
        .iter()
        .map(|c| (c.name(), c.usage_share()))
        .collect()
}

/// The non-optimal policy of §IV-A-3: "a target policy of 70% for U65, 20%
/// for U30, 8% for U3 and 2% for U_oth".
pub fn nonoptimal_policy_shares() -> Vec<(&'static str, f64)> {
    vec![("U65", 0.70), ("U30", 0.20), ("U3", 0.08), ("Uoth", 0.02)]
}

/// The bursty test's job mix (§IV-A-5): 45.5/6.5/45.5/3 percent of jobs for
/// U65/U30/U3/Uoth.
pub fn bursty_job_shares() -> Vec<(UserClass, f64)> {
    vec![
        (UserClass::U65, 0.455),
        (UserClass::U30, 0.065),
        (UserClass::U3, 0.455),
        (UserClass::Uoth, 0.03),
    ]
}

/// The bursty test's resulting wall-clock usage shares: 47/38.5/12/2.5 %.
pub fn bursty_usage_shares() -> Vec<(UserClass, f64)> {
    vec![
        (UserClass::U65, 0.47),
        (UserClass::U30, 0.385),
        (UserClass::U3, 0.12),
        (UserClass::Uoth, 0.025),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let usage: f64 = UserClass::ALL.iter().map(|c| c.usage_share()).sum();
        let jobs: f64 = UserClass::ALL.iter().map(|c| c.job_share()).sum();
        assert!((usage - 1.0).abs() < 1e-3, "{usage}");
        assert!((jobs - 1.0).abs() < 1e-3, "{jobs}");
    }

    #[test]
    fn bursty_mix_sums_to_one() {
        // The paper prints 45.5/6.5/45.5/3 (%), which rounds to 100.5%;
        // keep the printed values and allow that rounding slack.
        let j: f64 = bursty_job_shares().iter().map(|(_, s)| s).sum();
        let u: f64 = bursty_usage_shares().iter().map(|(_, s)| s).sum();
        assert!((j - 1.0).abs() < 0.006, "{j}");
        assert!((u - 1.0).abs() < 1e-9);
    }

    #[test]
    fn parse_roundtrip() {
        for c in UserClass::ALL {
            assert_eq!(UserClass::parse(c.name()), Some(c));
        }
        assert_eq!(UserClass::parse("nobody"), None);
    }

    #[test]
    fn nonoptimal_policy_matches_paper() {
        let p = nonoptimal_policy_shares();
        assert_eq!(p[0], ("U65", 0.70));
        let total: f64 = p.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
