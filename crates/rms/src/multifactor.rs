//! Multifactor job priority (§III-C): "Both SLURM and Maui employ a linear
//! combination of several factors to prioritize jobs, of which fairshare may
//! be one among several. Each factor is represented by a value in the \[0,1\]
//! range, and configurable weights are applied."

use crate::job::Job;
use aequus_core::GridUser;
use std::collections::BTreeMap;

/// Weights of the priority factors in the linear combination. Every weight
/// must be finite and non-negative ([`crate::SchedulerCore`] refuses others
/// at construction): the pending queue keeps each user's jobs in submit
/// order and relies on the priority never falling as a job's age grows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorityWeights {
    /// Weight of the (global) fairshare factor.
    pub fairshare: f64,
    /// Weight of the job-age factor.
    pub age: f64,
    /// Weight of the Quality-of-Service factor.
    pub qos: f64,
    /// Weight of the job-size factor.
    pub size: f64,
}

impl PriorityWeights {
    /// The paper's evaluation configuration: "Fairshare is the only
    /// scheduling factor used during these tests."
    pub fn fairshare_only() -> Self {
        Self {
            fairshare: 1.0,
            age: 0.0,
            qos: 0.0,
            size: 0.0,
        }
    }

    /// A production-like mixed configuration; "other factors have a
    /// smoothing effect (with impact relative to their weight)".
    pub fn mixed() -> Self {
        Self {
            fairshare: 0.6,
            age: 0.2,
            qos: 0.1,
            size: 0.1,
        }
    }
}

impl Default for PriorityWeights {
    fn default() -> Self {
        Self::fairshare_only()
    }
}

/// Parameters turning raw job attributes into `[0, 1]` factors.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorConfig {
    /// Wait time at which the age factor saturates at 1.
    pub max_age_s: f64,
    /// Core count at which the size factor saturates.
    pub max_cores: u32,
    /// Per-user QoS levels in `[0, 1]` (default 0.5 when absent).
    pub qos_levels: BTreeMap<GridUser, f64>,
}

impl Default for FactorConfig {
    fn default() -> Self {
        Self {
            max_age_s: 24.0 * 3600.0,
            max_cores: 1024,
            qos_levels: BTreeMap::new(),
        }
    }
}

impl FactorConfig {
    /// Age factor: saturating linear ramp of queue wait time.
    pub fn age_factor(&self, job: &Job, now_s: f64) -> f64 {
        (job.wait_time(now_s) / self.max_age_s).clamp(0.0, 1.0)
    }

    /// Size factor: smaller jobs rank higher (favoring backfillable work).
    pub fn size_factor(&self, job: &Job) -> f64 {
        1.0 - (job.cores as f64 / self.max_cores as f64).clamp(0.0, 1.0)
    }

    /// QoS factor for the job's grid user.
    pub fn qos_factor(&self, job: &Job) -> f64 {
        job.grid_user
            .as_ref()
            .and_then(|u| self.qos_levels.get(u).copied())
            .unwrap_or(0.5)
    }
}

/// Combine the factors linearly under the given weights.
pub fn combined_priority(
    weights: &PriorityWeights,
    fairshare: f64,
    age: f64,
    qos: f64,
    size: f64,
) -> f64 {
    debug_assert!((0.0..=1.0).contains(&fairshare), "fairshare {fairshare}");
    weights.fairshare * fairshare + weights.age * age + weights.qos * qos + weights.size * size
}

/// One factor's contribution to a combined priority: the `[0, 1]` value it
/// had at evaluation time and the weight it entered the combination with.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FactorTerm {
    /// The factor value in `[0, 1]`.
    pub value: f64,
    /// The configured weight.
    pub weight: f64,
}

/// The captured decomposition of one combined priority — the RMS-side tail
/// of a decision's provenance. [`replay`](Self::replay) recombines the
/// captured terms with the same expression `combined_priority` evaluates, so
/// a faithful capture reproduces [`combined`](Self::combined) bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PriorityBreakdown {
    /// The (possibly grid-global) fairshare factor and its weight.
    pub fairshare: FactorTerm,
    /// The queue-age factor and its weight.
    pub age: FactorTerm,
    /// The Quality-of-Service factor and its weight.
    pub qos: FactorTerm,
    /// The job-size factor and its weight.
    pub size: FactorTerm,
    /// The combined priority as computed at capture time.
    pub combined: f64,
}

impl PriorityBreakdown {
    /// Recombine the captured factors; bit-identical to
    /// [`combined`](Self::combined) for a faithful capture.
    pub fn replay(&self) -> f64 {
        self.fairshare.weight * self.fairshare.value
            + self.age.weight * self.age.value
            + self.qos.weight * self.qos.value
            + self.size.weight * self.size.value
    }

    /// Whether the captured decomposition still reproduces the combined
    /// priority exactly (fails on any tampered component).
    pub fn verify(&self) -> bool {
        self.replay().to_bits() == self.combined.to_bits()
    }

    /// Human-readable one-screen rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("combined priority {:?}\n", self.combined));
        for (name, t) in [
            ("fairshare", &self.fairshare),
            ("age", &self.age),
            ("qos", &self.qos),
            ("size", &self.size),
        ] {
            out.push_str(&format!(
                "  {name:<9} {:>8.5} × weight {:>5.3} = {:?}\n",
                t.value,
                t.weight,
                t.weight * t.value
            ));
        }
        out
    }
}

/// Evaluate [`combined_priority`] while capturing its full decomposition.
pub fn explain_combined(
    weights: &PriorityWeights,
    fairshare: f64,
    age: f64,
    qos: f64,
    size: f64,
) -> PriorityBreakdown {
    PriorityBreakdown {
        fairshare: FactorTerm {
            value: fairshare,
            weight: weights.fairshare,
        },
        age: FactorTerm {
            value: age,
            weight: weights.age,
        },
        qos: FactorTerm {
            value: qos,
            weight: weights.qos,
        },
        size: FactorTerm {
            value: size,
            weight: weights.size,
        },
        combined: combined_priority(weights, fairshare, age, qos, size),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_core::{JobId, SystemUser};

    fn job(cores: u32, submit: f64) -> Job {
        Job::new(JobId(1), SystemUser::new("u"), cores, submit, 60.0)
    }

    #[test]
    fn fairshare_only_ignores_other_factors() {
        let w = PriorityWeights::fairshare_only();
        let p1 = combined_priority(&w, 0.8, 1.0, 1.0, 1.0);
        let p2 = combined_priority(&w, 0.8, 0.0, 0.0, 0.0);
        assert_eq!(p1, p2);
        assert_eq!(p1, 0.8);
    }

    #[test]
    fn age_factor_saturates() {
        let cfg = FactorConfig {
            max_age_s: 100.0,
            ..Default::default()
        };
        let j = job(1, 0.0);
        assert_eq!(cfg.age_factor(&j, 50.0), 0.5);
        assert_eq!(cfg.age_factor(&j, 100.0), 1.0);
        assert_eq!(cfg.age_factor(&j, 1000.0), 1.0);
    }

    #[test]
    fn size_factor_favors_small_jobs() {
        let cfg = FactorConfig {
            max_cores: 100,
            ..Default::default()
        };
        assert!(cfg.size_factor(&job(1, 0.0)) > cfg.size_factor(&job(50, 0.0)));
        assert_eq!(cfg.size_factor(&job(100, 0.0)), 0.0);
    }

    #[test]
    fn qos_defaults_to_half() {
        let cfg = FactorConfig::default();
        let mut j = job(1, 0.0);
        assert_eq!(cfg.qos_factor(&j), 0.5);
        j.grid_user = Some(GridUser::new("vip"));
        assert_eq!(cfg.qos_factor(&j), 0.5);
        let mut cfg = cfg;
        cfg.qos_levels.insert(GridUser::new("vip"), 0.9);
        assert_eq!(cfg.qos_factor(&j), 0.9);
    }

    #[test]
    fn breakdown_replays_bit_for_bit() {
        let w = PriorityWeights::mixed();
        let b = explain_combined(&w, 0.123_456_789, 0.7, 0.31, 0.999);
        assert_eq!(
            b.combined,
            combined_priority(&w, 0.123_456_789, 0.7, 0.31, 0.999)
        );
        assert_eq!(b.replay().to_bits(), b.combined.to_bits());
        assert!(b.verify());
        let mut tampered = b;
        tampered.qos.value += 1e-9;
        assert!(!tampered.verify(), "any component change breaks the replay");
    }

    #[test]
    fn breakdown_render_names_every_factor() {
        let b = explain_combined(&PriorityWeights::mixed(), 0.5, 0.5, 0.5, 0.5);
        let text = b.render();
        for name in ["combined", "fairshare", "age", "qos", "size"] {
            assert!(text.contains(name), "missing {name} in:\n{text}");
        }
    }

    #[test]
    fn smoothing_effect_of_extra_factors() {
        // §IV-A: other factors smooth fairshare fluctuation relative to their
        // weight. Two fairshare extremes move the combined priority by less
        // when age carries weight.
        let fs_only = PriorityWeights::fairshare_only();
        let mixed = PriorityWeights::mixed();
        let swing_only = combined_priority(&fs_only, 0.9, 0.5, 0.5, 0.5)
            - combined_priority(&fs_only, 0.1, 0.5, 0.5, 0.5);
        let swing_mixed = combined_priority(&mixed, 0.9, 0.5, 0.5, 0.5)
            - combined_priority(&mixed, 0.1, 0.5, 0.5, 0.5);
        assert!(swing_mixed < swing_only);
        assert!((swing_mixed - 0.6 * swing_only).abs() < 1e-12);
    }
}
