//! Grid-level job dispatch from the submission host to the clusters.
//!
//! §IV-A: "Both stochastic and round-robin scheduling of jobs from the
//! submitting node to the clusters have been evaluated without any
//! noticeable difference, and the stochastic approach is used during the
//! testing."

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How the submission host routes jobs to clusters (grid-level routing —
/// distinct from the per-cluster queue dispatch order in
/// [`aequus_rms::dispatch`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingPolicy {
    /// Pick a cluster uniformly at random (capacity-weighted).
    Stochastic,
    /// Cycle through clusters in order (capacity-weighted by repetition).
    RoundRobin,
}

/// Stateful dispatcher choosing a cluster index per job.
#[derive(Debug)]
pub struct Dispatcher {
    policy: RoutingPolicy,
    /// Per-cluster capacity weights (core counts).
    weights: Vec<u32>,
    total_weight: u64,
    rng: StdRng,
    rr_cursor: u64,
}

impl Dispatcher {
    /// Create a dispatcher over clusters with the given capacities.
    pub fn new(policy: RoutingPolicy, capacities: &[u32], seed: u64) -> Self {
        assert!(!capacities.is_empty(), "need at least one cluster");
        assert!(
            capacities.iter().any(|&c| c > 0),
            "at least one cluster must have capacity"
        );
        Self {
            policy,
            weights: capacities.to_vec(),
            total_weight: capacities.iter().map(|&c| c as u64).sum(),
            rng: StdRng::seed_from_u64(seed),
            rr_cursor: 0,
        }
    }

    /// Choose the cluster index for the next job.
    pub fn pick(&mut self) -> usize {
        match self.policy {
            RoutingPolicy::Stochastic => {
                let mut x = self.rng.gen_range(0..self.total_weight);
                for (i, &w) in self.weights.iter().enumerate() {
                    if x < w as u64 {
                        return i;
                    }
                    x -= w as u64;
                }
                self.weights.len() - 1
            }
            RoutingPolicy::RoundRobin => {
                // Capacity-weighted round robin: cluster i gets weight_i of
                // every total_weight consecutive jobs.
                let mut x = self.rr_cursor % self.total_weight;
                self.rr_cursor += 1;
                for (i, &w) in self.weights.iter().enumerate() {
                    if x < w as u64 {
                        return i;
                    }
                    x -= w as u64;
                }
                self.weights.len() - 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stochastic_roughly_capacity_weighted() {
        let mut d = Dispatcher::new(RoutingPolicy::Stochastic, &[30, 10], 1);
        let mut counts = [0usize; 2];
        for _ in 0..10_000 {
            counts[d.pick()] += 1;
        }
        let frac = counts[0] as f64 / 10_000.0;
        assert!((frac - 0.75).abs() < 0.03, "{frac}");
    }

    #[test]
    fn round_robin_exactly_weighted_per_cycle() {
        let mut d = Dispatcher::new(RoutingPolicy::RoundRobin, &[3, 1], 1);
        let mut counts = [0usize; 2];
        for _ in 0..400 {
            counts[d.pick()] += 1;
        }
        assert_eq!(counts, [300, 100]);
    }

    #[test]
    fn deterministic_given_seed() {
        let picks = |seed| {
            let mut d = Dispatcher::new(RoutingPolicy::Stochastic, &[1, 1, 1], seed);
            (0..50).map(|_| d.pick()).collect::<Vec<_>>()
        };
        assert_eq!(picks(9), picks(9));
        assert_ne!(picks(9), picks(10));
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn empty_clusters_rejected() {
        Dispatcher::new(RoutingPolicy::Stochastic, &[], 0);
    }
}
