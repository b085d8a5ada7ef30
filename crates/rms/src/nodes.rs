//! The virtual node pool of a cluster. The test bed hosts "40 virtual hosts
//! each" per cluster with the actual computations "replaced with idle wait
//! jobs"; what matters for scheduling is core occupancy over time, which
//! this pool tracks exactly (including the utilization integral used for
//! the 93–97% utilization measurements of §IV-A).

/// A pool of identical cores with exact busy-time accounting.
#[derive(Debug, Clone)]
pub struct NodePool {
    total_cores: u32,
    busy_cores: u32,
    /// Integral of busy cores over time (core-seconds).
    busy_integral: f64,
    last_update_s: f64,
}

impl NodePool {
    /// Create a pool of `nodes × cores_per_node` cores.
    pub fn new(nodes: u32, cores_per_node: u32) -> Self {
        Self {
            total_cores: nodes * cores_per_node,
            busy_cores: 0,
            busy_integral: 0.0,
            last_update_s: 0.0,
        }
    }

    /// Total cores in the pool.
    pub fn total_cores(&self) -> u32 {
        self.total_cores
    }

    /// Currently free cores.
    pub fn free_cores(&self) -> u32 {
        self.total_cores - self.busy_cores
    }

    /// Currently busy cores.
    pub fn busy_cores(&self) -> u32 {
        self.busy_cores
    }

    /// Advance the utilization integral to `now_s`. Must be called before
    /// any allocate/release at `now_s`.
    pub fn advance(&mut self, now_s: f64) {
        if now_s > self.last_update_s {
            self.busy_integral += self.busy_cores as f64 * (now_s - self.last_update_s);
            self.last_update_s = now_s;
        }
    }

    /// Try to allocate `cores`; returns whether the allocation succeeded.
    pub fn allocate(&mut self, cores: u32) -> bool {
        if cores <= self.free_cores() {
            self.busy_cores += cores;
            true
        } else {
            false
        }
    }

    /// Release `cores` back to the pool.
    ///
    /// # Panics
    /// Panics if releasing more cores than are busy (an accounting bug).
    pub fn release(&mut self, cores: u32) {
        assert!(
            cores <= self.busy_cores,
            "releasing {cores} cores but only {} busy",
            self.busy_cores
        );
        self.busy_cores -= cores;
    }

    /// Mean utilization over `[0, now_s]` in `[0, 1]`.
    pub fn utilization(&mut self, now_s: f64) -> f64 {
        self.advance(now_s);
        if now_s <= 0.0 || self.total_cores == 0 {
            return 0.0;
        }
        self.busy_integral / (self.total_cores as f64 * now_s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_and_release() {
        let mut p = NodePool::new(4, 10);
        assert_eq!(p.total_cores(), 40);
        assert!(p.allocate(30));
        assert_eq!(p.free_cores(), 10);
        assert!(!p.allocate(11), "only 10 free");
        assert!(p.allocate(10));
        assert_eq!(p.free_cores(), 0);
        p.release(40);
        assert_eq!(p.free_cores(), 40);
    }

    #[test]
    fn utilization_integral() {
        let mut p = NodePool::new(1, 10);
        p.advance(0.0);
        p.allocate(5); // 50% busy from t=0
        p.advance(100.0);
        p.release(5); // idle from t=100
        let u = p.utilization(200.0);
        assert!((u - 0.25).abs() < 1e-12, "{u}"); // 500 core-s / 2000
    }

    #[test]
    #[should_panic(expected = "releasing")]
    fn over_release_panics() {
        let mut p = NodePool::new(1, 4);
        p.release(1);
    }
}
