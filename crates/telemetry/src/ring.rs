//! The one bounded store of the crate: a drop-oldest ring with a drop
//! counter. Causal spans, the profiler's epoch spans and a traced site's
//! decision records all retain "the last `cap`" through it, so a run of
//! any length keeps a fixed footprint and says how much it let go.

use std::collections::VecDeque;

/// Keeps the last `cap` items pushed, oldest first; every eviction is
/// counted. `O(1)` per push, full or not.
#[derive(Debug, Clone)]
pub struct Ring<T> {
    cap: usize,
    buf: VecDeque<T>,
    dropped: u64,
}

impl<T> Ring<T> {
    /// A ring holding at most `cap` items (minimum 1).
    pub fn new(cap: usize) -> Self {
        Self {
            cap: cap.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Append an item, evicting (and counting) the oldest when full.
    pub fn push(&mut self, item: T) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(item);
    }

    /// Items evicted so far because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Items pushed so far: those retained plus those evicted.
    pub fn pushed(&self) -> u64 {
        self.buf.len() as u64 + self.dropped
    }

    /// The retained items as an owned vector, oldest first.
    pub fn to_vec(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.buf.iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn wraparound_keeps_the_last_cap_and_counts_the_rest() {
        let mut ring = Ring::new(4);
        for i in 0..10 {
            ring.push(i);
        }
        assert_eq!(ring.to_vec(), [6, 7, 8, 9], "oldest evicted first");
        assert_eq!((ring.dropped(), ring.pushed()), (6, 10));
    }

    #[test]
    fn under_capacity_drops_nothing_and_zero_capacity_clamps_to_one() {
        let mut ring = Ring::new(8);
        ring.push('a');
        ring.push('b');
        assert_eq!((ring.to_vec(), ring.dropped()), (vec!['a', 'b'], 0));
        let mut one = Ring::new(0);
        one.push(0);
        one.push(1);
        assert_eq!((one.to_vec(), one.dropped()), (vec![1], 1));
    }

    proptest! {
        /// Any push sequence into any capacity: what is retained is the
        /// last `cap` pushes in push order, and every other push is counted
        /// as dropped.
        #[test]
        fn retains_the_last_cap_in_order(cap in 0usize..40, pushes in 0usize..200) {
            let mut ring = Ring::new(cap);
            for i in 0..pushes {
                ring.push(i);
            }
            let retained = pushes.min(cap.max(1));
            let want: Vec<usize> = (pushes - retained..pushes).collect();
            prop_assert_eq!(ring.to_vec(), want);
            prop_assert_eq!(ring.dropped(), (pushes - retained) as u64);
        }
    }
}
