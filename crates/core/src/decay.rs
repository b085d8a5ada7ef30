//! Usage decay functions (§II-A: the fairshare algorithm "can be configured
//! with, e.g., different usage decay functions to control how the impact of
//! previous usage is decreased over time").

/// How the weight of historical usage decreases with age.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecayPolicy {
    /// No decay: all history counts fully.
    None,
    /// Exponential decay with the given half-life in seconds: usage aged
    /// exactly one half-life counts half.
    Exponential {
        /// Half-life in seconds; must be > 0.
        half_life_s: f64,
    },
    /// Sliding window: usage younger than `window_s` counts fully, older
    /// usage not at all.
    Window {
        /// Window length in seconds; must be > 0.
        window_s: f64,
    },
    /// Linear ramp: weight decreases linearly from 1 (age 0) to 0 (age
    /// `span_s`).
    Linear {
        /// Age at which the weight reaches zero; must be > 0.
        span_s: f64,
    },
}

impl DecayPolicy {
    /// Whether this decay is *multiplicatively separable*: `weight(t − s) =
    /// f(t) · g(s)`, so advancing time rescales every user's decayed usage by
    /// the same factor. Separable decays let the UMS cache usage as weights
    /// relative to a fixed reference epoch — values then change only when new
    /// usage arrives, and unchanged subtrees of the fairshare tree need no
    /// touch (the lazily-applied decay of the incremental engine). The
    /// uniform factor cancels in the sibling-group normalization, so
    /// fairshare results are unaffected.
    pub fn separable(&self) -> bool {
        matches!(self, DecayPolicy::None | DecayPolicy::Exponential { .. })
    }

    /// Weight of usage aged `age_s` seconds *relative to a reference epoch*,
    /// for separable decays. Unlike [`weight`](Self::weight) this is **not**
    /// clamped for negative ages: usage newer than the epoch weighs more than
    /// 1, preserving `epoch_weight(a − b) = epoch_weight(a) / 2^(b/half)` —
    /// the identity the epoch cache depends on. Non-separable decays fall
    /// back to the clamped weight (callers must not use the epoch cache for
    /// them; see [`separable`](Self::separable)).
    pub fn epoch_weight(&self, age_s: f64) -> f64 {
        match *self {
            DecayPolicy::None => 1.0,
            DecayPolicy::Exponential { half_life_s } => {
                debug_assert!(half_life_s > 0.0);
                (0.5f64).powf(age_s / half_life_s)
            }
            _ => self.weight(age_s),
        }
    }

    /// Weight of usage aged `age_s` seconds. Always in `[0, 1]`; `1` at age 0
    /// (and for negative ages, which can transiently occur with clock skew).
    pub fn weight(&self, age_s: f64) -> f64 {
        let age = age_s.max(0.0);
        match *self {
            DecayPolicy::None => 1.0,
            DecayPolicy::Exponential { half_life_s } => {
                debug_assert!(half_life_s > 0.0);
                (0.5f64).powf(age / half_life_s)
            }
            DecayPolicy::Window { window_s } => {
                debug_assert!(window_s > 0.0);
                if age < window_s {
                    1.0
                } else {
                    0.0
                }
            }
            DecayPolicy::Linear { span_s } => {
                debug_assert!(span_s > 0.0);
                (1.0 - age / span_s).max(0.0)
            }
        }
    }
}

impl Default for DecayPolicy {
    /// The production default used in the evaluation: exponential decay with
    /// a half-life of one week.
    fn default() -> Self {
        DecayPolicy::Exponential {
            half_life_s: 7.0 * 24.0 * 3600.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_at_zero_age_is_one() {
        for p in [
            DecayPolicy::None,
            DecayPolicy::Exponential { half_life_s: 10.0 },
            DecayPolicy::Window { window_s: 10.0 },
            DecayPolicy::Linear { span_s: 10.0 },
        ] {
            assert_eq!(p.weight(0.0), 1.0, "{p:?}");
        }
    }

    #[test]
    fn exponential_half_life() {
        let p = DecayPolicy::Exponential { half_life_s: 100.0 };
        assert!((p.weight(100.0) - 0.5).abs() < 1e-12);
        assert!((p.weight(200.0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn window_cuts_off() {
        let p = DecayPolicy::Window { window_s: 50.0 };
        assert_eq!(p.weight(49.9), 1.0);
        assert_eq!(p.weight(50.0), 0.0);
    }

    #[test]
    fn linear_ramp() {
        let p = DecayPolicy::Linear { span_s: 100.0 };
        assert!((p.weight(50.0) - 0.5).abs() < 1e-12);
        assert_eq!(p.weight(150.0), 0.0);
    }

    #[test]
    fn monotone_non_increasing() {
        for p in [
            DecayPolicy::None,
            DecayPolicy::Exponential { half_life_s: 30.0 },
            DecayPolicy::Window { window_s: 30.0 },
            DecayPolicy::Linear { span_s: 30.0 },
        ] {
            let mut prev = f64::INFINITY;
            for i in 0..100 {
                let w = p.weight(i as f64);
                assert!(w <= prev + 1e-15, "{p:?} at {i}");
                assert!((0.0..=1.0).contains(&w));
                prev = w;
            }
        }
    }

    #[test]
    fn negative_age_clamps_to_one() {
        let p = DecayPolicy::Exponential { half_life_s: 10.0 };
        assert_eq!(p.weight(-5.0), 1.0);
    }

    #[test]
    fn separability_classification() {
        assert!(DecayPolicy::None.separable());
        assert!(DecayPolicy::Exponential { half_life_s: 10.0 }.separable());
        assert!(!DecayPolicy::Window { window_s: 10.0 }.separable());
        assert!(!DecayPolicy::Linear { span_s: 10.0 }.separable());
    }

    #[test]
    fn epoch_weight_unclamped_and_consistent() {
        let p = DecayPolicy::Exponential { half_life_s: 10.0 };
        // Usage newer than the epoch weighs more than 1.
        assert!((p.epoch_weight(-10.0) - 2.0).abs() < 1e-12);
        // Positive ages agree with the clamped weight.
        assert_eq!(p.epoch_weight(20.0), p.weight(20.0));
        // The separability identity: shifting the epoch rescales uniformly.
        let a = p.epoch_weight(35.0) / p.epoch_weight(5.0);
        let b = p.epoch_weight(42.0) / p.epoch_weight(12.0);
        assert!((a - b).abs() < 1e-12);
        assert_eq!(DecayPolicy::None.epoch_weight(-100.0), 1.0);
    }
}
