//! Reliability layer for the USS↔USS exchange.
//!
//! The paper's deployment experience (and the EU DataGrid operations report
//! it cites) is that message loss and flaky services dominate real grid
//! operations. The wire protocol ([`UssMessage`]) and the policies defined
//! here make the summary exchange fault-tolerant:
//!
//! * every published [`UsageSummary`] carries a per-publisher monotonically
//!   increasing sequence number;
//! * delivery is **acknowledged** — unacked summaries stay in a bounded
//!   per-peer outbox and are retried with exponential backoff plus
//!   deterministic seeded jitter ([`RetryPolicy`], [`JitterRng`]);
//! * receivers detect sequence gaps and issue anti-entropy
//!   [`UssMessage::Resync`] pulls, re-synced from the publisher's retained
//!   history, with a cumulative [`UssMessage::Snapshot`] fallback when the
//!   history has been compacted;
//! * a configurable [`StalePolicy`] governs what a site serves while peers
//!   are silent (serve-stale vs. local-only weighting).
//!
//! Correctness never depends on the sequencing: summary cells carry
//! *absolute* cumulative per-(user, slot) charge, merged as positive deltas
//! against a per-peer mirror, so any interleaving of retries, duplicates,
//! reordering, snapshots, and post-crash republication converges to the same
//! state. Sequence numbers exist to *detect* loss quickly, not to order it.
//!
//! [`UsageSummary`]: aequus_core::usage::UsageSummary
//! [`UssMessage`]: crate::message::UssMessage
//! [`UssMessage::Resync`]: crate::message::UssMessage::Resync
//! [`UssMessage::Snapshot`]: crate::message::UssMessage::Snapshot

use crate::timings::ServiceTimings;
use std::hash::{Hash, Hasher};

/// Retry/backoff and retention configuration of the reliable exchange.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// How long a publisher waits for an ack after a send before the first
    /// retry — also the base of the exponential backoff.
    pub ack_timeout_s: f64,
    /// Backoff ceiling: retry spacing never exceeds this.
    pub max_backoff_s: f64,
    /// Jitter fraction in `[0, 1)`: each backoff is scaled by a factor drawn
    /// uniformly from `[1 - jitter_frac, 1 + jitter_frac]`, decorrelating
    /// retry storms across peers. Deterministic given the seed.
    pub jitter_frac: f64,
    /// Published summaries retained for anti-entropy resync; older entries
    /// are compacted away and resyncs reaching past them fall back to a
    /// cumulative snapshot.
    pub history_cap: usize,
    /// Maximum unacked summaries queued per peer; overflowing drops the
    /// oldest (the receiver recovers it through gap detection → resync).
    pub outbox_cap: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            ack_timeout_s: 15.0,
            max_backoff_s: 240.0,
            jitter_frac: 0.2,
            history_cap: 64,
            outbox_cap: 32,
        }
    }
}

impl RetryPolicy {
    /// Derive a policy from a deployment's timing chain: the ack timeout is
    /// the exchange round trip plus scheduling slack
    /// ([`ServiceTimings::ack_deadline_s`]), and the backoff ceiling is the
    /// publication interval — retrying slower than fresh data is produced
    /// would never help.
    pub fn from_timings(timings: &ServiceTimings) -> Self {
        let ack_timeout_s = timings.ack_deadline_s();
        Self {
            ack_timeout_s,
            max_backoff_s: timings.uss_publish_interval_s.max(4.0 * ack_timeout_s),
            ..Self::default()
        }
    }

    /// Backoff before attempt `attempts + 1`, given `attempts` completed
    /// sends without a full ack: `ack_timeout · 2^(attempts-1)`, capped at
    /// `max_backoff`, scaled by jitter (`unit` is a uniform draw in
    /// `[0, 1)`).
    pub fn backoff_s(&self, attempts: u32, unit: f64) -> f64 {
        let exponent = attempts.saturating_sub(1).min(16) as i32;
        let base = (self.ack_timeout_s * f64::powi(2.0, exponent)).min(self.max_backoff_s);
        base * (1.0 + self.jitter_frac * (2.0 * unit - 1.0))
    }
}

/// Floats by their bits (the USS explorer fingerprints a site's state).
impl Hash for RetryPolicy {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let times = [self.ack_timeout_s, self.max_backoff_s, self.jitter_frac];
        (times.map(f64::to_bits), self.history_cap, self.outbox_cap).hash(h);
    }
}

/// What a site serves while peer data goes stale (peers silent, partitioned,
/// or crashed).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub enum StalePolicy {
    /// Keep weighting with the last merged remote usage, however old — the
    /// default, matching the paper's "RMS keeps scheduling on stale data"
    /// behavior during outages.
    #[default]
    ServeStale,
    /// Degrade to local-only weighting (as if
    /// [`LocalOnly`](crate::ParticipationMode::LocalOnly)) once the freshest
    /// peer update is older than the threshold; remote data is folded back
    /// in when a peer is heard from again.
    LocalOnly {
        /// Staleness threshold in seconds.
        max_staleness_s: f64,
    },
}

impl Hash for StalePolicy {
    fn hash<H: Hasher>(&self, h: &mut H) {
        match self {
            StalePolicy::ServeStale => None,
            StalePolicy::LocalOnly { max_staleness_s } => Some(max_staleness_s.to_bits()),
        }
        .hash(h);
    }
}

/// A small self-contained deterministic RNG (splitmix64) for retry jitter.
///
/// Kept separate from the simulation's fault RNG so that service-level retry
/// timing is reproducible from the service's own seed alone, independent of
/// how many fault coins the engine has flipped.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct JitterRng {
    state: u64,
}

impl JitterRng {
    /// Create a jitter source from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next uniform draw in `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let p = RetryPolicy {
            ack_timeout_s: 10.0,
            max_backoff_s: 60.0,
            jitter_frac: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_s(1, 0.5), 10.0);
        assert_eq!(p.backoff_s(2, 0.5), 20.0);
        assert_eq!(p.backoff_s(3, 0.5), 40.0);
        assert_eq!(p.backoff_s(4, 0.5), 60.0, "capped");
        assert_eq!(p.backoff_s(40, 0.5), 60.0, "huge attempt counts saturate");
    }

    #[test]
    fn jitter_bounds_and_determinism() {
        let p = RetryPolicy {
            ack_timeout_s: 10.0,
            max_backoff_s: 1e9,
            jitter_frac: 0.2,
            ..RetryPolicy::default()
        };
        let mut a = JitterRng::new(7);
        let mut b = JitterRng::new(7);
        for _ in 0..1000 {
            let u = a.next_unit();
            assert_eq!(u, b.next_unit(), "same seed, same stream");
            assert!((0.0..1.0).contains(&u));
            let back = p.backoff_s(1, u);
            assert!((8.0..=12.0).contains(&back), "{back}");
        }
        let mut c = JitterRng::new(8);
        assert_ne!(a.next_unit(), c.next_unit());
    }

    #[test]
    fn from_timings_tracks_the_exchange_latency() {
        let t = ServiceTimings::default();
        let p = RetryPolicy::from_timings(&t);
        assert_eq!(p.ack_timeout_s, t.ack_deadline_s());
        assert!(p.max_backoff_s >= p.ack_timeout_s);
        assert_eq!(p.max_backoff_s, t.uss_publish_interval_s);
    }
}
