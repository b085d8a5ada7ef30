//! The discrete-event core: one shard's deterministic time-ordered event
//! queue. Events pop in `(time, insertion seq)` order, so a shard's
//! execution is exactly reproducible; cross-shard order is restored at the
//! epoch barriers (`barrier::drive` stably sorts deliveries by source site).

use aequus_services::UssMessage;
use aequus_workload::TraceJob;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A shard-local simulation event. Cross-shard traffic ([`Event::UssDeliver`])
/// enters a shard's queue only at epoch barriers, via the coordinator.
#[derive(Debug, Clone)]
pub enum Event {
    /// A job arrives at this shard's cluster (pre-dispatched at run start).
    JobArrival(TraceJob),
    /// Periodic cluster advance (site tick + scheduler iteration).
    ClusterTick,
    /// A reliable-exchange message reaches this shard's site after network
    /// latency (summaries, acks, resync pulls, snapshots).
    UssDeliver(UssMessage),
}

#[derive(Debug)]
struct Scheduled<E> {
    time_s: f64,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time_s == other.time_s && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap: invert so earliest time pops first;
        // ties break by insertion order (earlier seq first). `total_cmp`
        // keeps this a total order even for non-finite times — those are
        // rejected with context at `push` time, so the comparator itself
        // has no panic path deep inside the heap.
        other
            .time_s
            .total_cmp(&self.time_s)
            .then(other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A deterministic time-ordered event queue (one shard's local events).
#[derive(Debug)]
pub struct EventQueue<E = Event> {
    heap: BinaryHeap<Scheduled<E>>,
    seq: u64,
    high_water: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
            high_water: 0,
        }
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at absolute time `time_s`.
    ///
    /// Non-finite times are a scenario bug (e.g. a NaN latency or an
    /// overflowed horizon); they are rejected here, at insertion, where the
    /// caller and the offending value are still on the stack — not deep
    /// inside a heap comparison.
    pub fn push(&mut self, time_s: f64, event: E) {
        debug_assert!(
            time_s.is_finite(),
            "event time must be finite, got {time_s} (check scenario latencies/horizons)"
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Scheduled { time_s, seq, event });
        self.high_water = self.high_water.max(self.heap.len());
    }

    /// Pop the earliest event, with its time.
    pub fn pop(&mut self) -> Option<(f64, E)> {
        self.heap.pop().map(|s| (s.time_s, s.event))
    }

    /// Time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<f64> {
        self.heap.peek().map(|s| s.time_s)
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Peak queue depth observed over the queue's lifetime (saturating
    /// high-water mark, updated on every push). Deterministic: depends only
    /// on the event schedule, never on thread timing.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(t: f64) -> Event {
        Event::JobArrival(TraceJob {
            user: "u".to_string(),
            submit_s: t,
            duration_s: 1.0,
            cores: 1,
        })
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5.0, job(5.0));
        q.push(1.0, job(1.0));
        q.push(3.0, job(3.0));
        let times: Vec<f64> = std::iter::from_fn(|| q.pop().map(|(t, _)| t)).collect();
        assert_eq!(times, vec![1.0, 3.0, 5.0]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(2.0, Event::ClusterTick);
        q.push(2.0, job(2.0));
        assert!(matches!(q.pop().unwrap().1, Event::ClusterTick));
        assert!(matches!(q.pop().unwrap().1, Event::JobArrival(_)));
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.push(7.0, Event::ClusterTick);
        assert_eq!(q.peek_time(), Some(7.0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "finiteness is a debug assertion")]
    #[should_panic(expected = "finite")]
    fn rejects_nan_time() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, Event::ClusterTick);
    }

    #[test]
    fn high_water_marks_saturate_across_drains() {
        let mut q = EventQueue::new();
        q.push(1.0, Event::ClusterTick);
        q.push(2.0, Event::ClusterTick);
        q.push(3.0, Event::ClusterTick);
        q.pop();
        q.pop();
        q.pop();
        q.push(4.0, Event::ClusterTick);
        assert_eq!(q.high_water(), 3, "hwm survives full drains");
    }
}
