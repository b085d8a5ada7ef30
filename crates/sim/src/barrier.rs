//! Epoch barriers: the conservative-synchronization core of the parallel
//! engine.
//!
//! The coordinator advances simulated time in *epochs*. Within an epoch
//! every shard processes only its own local events; all cross-shard traffic
//! produced during the epoch is staged and delivered at the barrier. This is
//! safe because the epoch window never exceeds the exchange latency — the
//! *lookahead* in conservative parallel discrete-event simulation: a message
//! sent at time `t` inside epoch `[S, E)` arrives at `t + latency ≥ S +
//! lookahead ≥ E`, i.e. always in a later epoch, so no shard can ever
//! receive an event "from the past".
//!
//! One loop serves every worker count: the sites are cut into `num_threads`
//! contiguous runs, the first advancing on the calling thread and each
//! other on a scoped thread of its own. Determinism does not depend on the
//! run count: the schedule is a pure function of the scenario, and the
//! coordinator reads staged sends and sample fragments in run order — site
//! order, so nothing is sorted — and pushes every delivery at one point.

use crate::event::Event;
use crate::metrics::ShardSample;
use crate::shard::{Outgoing, Shard};
use aequus_telemetry::Telemetry;
use std::time::Instant;

/// One epoch: advance every shard to `limit_s`, then (optionally) assemble
/// a metrics sample at the barrier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Epoch {
    /// Time bound for this epoch's event processing.
    pub limit_s: f64,
    /// Whether events at exactly `limit_s` are processed (`true` only for
    /// the t = 0 warm-up and the final flush at the horizon).
    pub inclusive: bool,
    /// Whether the coordinator samples metrics at this barrier.
    pub sample: bool,
}

/// The barrier schedule: epoch windows of at most `lookahead_s`, cut at
/// every metrics-sample instant, ending with an inclusive flush at the
/// horizon. A pure function of `(end, lookahead, sample interval)` — the
/// same for any worker count, which is half the determinism argument.
#[derive(Debug)]
pub struct EpochSchedule {
    end_s: f64,
    lookahead_s: f64,
    sample_interval_s: f64,
    now_s: f64,
    next_sample_s: f64,
    stage: Stage,
}

#[derive(Debug, PartialEq, Eq)]
enum Stage {
    Warmup,
    Windows,
    Flush,
    Done,
}

impl EpochSchedule {
    /// Build the schedule for a run to `end_s`. `lookahead_s` must be
    /// positive (the engine falls back to the tick interval for zero-latency
    /// scenarios; deliveries then quantize to barriers, see `Shard::send`).
    pub fn new(end_s: f64, lookahead_s: f64, sample_interval_s: f64) -> Self {
        assert!(lookahead_s > 0.0, "lookahead must be positive");
        assert!(sample_interval_s > 0.0, "sample interval must be positive");
        Self {
            end_s,
            lookahead_s,
            sample_interval_s,
            now_s: 0.0,
            // Accumulated exactly like the serial engine re-armed its sample
            // event (now + interval), so sample instants are bit-identical.
            next_sample_s: sample_interval_s,
            stage: Stage::Warmup,
        }
    }

    /// Next epoch, or `None` when the run is over.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<Epoch> {
        match self.stage {
            Stage::Warmup => {
                // Process everything at t = 0 (arrivals, first tick), then
                // sample — the serial engine's t = 0 pop order.
                self.stage = if self.end_s > 0.0 {
                    Stage::Windows
                } else {
                    Stage::Done
                };
                Some(Epoch {
                    limit_s: 0.0,
                    inclusive: true,
                    sample: true,
                })
            }
            Stage::Windows => {
                let limit = (self.now_s + self.lookahead_s)
                    .min(self.next_sample_s)
                    .min(self.end_s);
                let sample = limit == self.next_sample_s && limit <= self.end_s;
                if sample {
                    self.next_sample_s += self.sample_interval_s;
                }
                self.now_s = limit;
                if self.now_s >= self.end_s {
                    self.stage = Stage::Flush;
                }
                Some(Epoch {
                    limit_s: limit,
                    inclusive: false,
                    sample,
                })
            }
            Stage::Flush => {
                self.stage = Stage::Done;
                Some(Epoch {
                    limit_s: self.end_s,
                    inclusive: true,
                    sample: false,
                })
            }
            Stage::Done => None,
        }
    }
}

/// What a run hands the coordinator at each barrier: the sends it staged,
/// and when it finished (only while profiling more than one run).
#[derive(Default)]
struct Handoff {
    staged: Vec<Outgoing>,
    finished: Option<Instant>,
}

/// One epoch over a run of sites, in site order: advance each shard to the
/// epoch limit (its cross-shard sends staged on the handoff), then take
/// every shard's sample fragment if the barrier samples.
fn run_epoch(
    shards: &mut [Shard],
    handoff: &mut Handoff,
    index: u64,
    epoch: Epoch,
    end_s: f64,
    wait_clock: bool,
) -> Vec<ShardSample> {
    let limit_s = epoch.limit_s;
    for shard in shards.iter_mut() {
        shard.prof.begin_epoch(index, limit_s, shard.stats.events);
        shard.advance(limit_s, epoch.inclusive, end_s, &mut handoff.staged);
        shard.prof.end_epoch(shard.stats.events);
    }
    let fragments = if epoch.sample {
        shards
            .iter_mut()
            .map(|s| s.sample_fragment(limit_s))
            .collect()
    } else {
        Vec::new()
    };
    handoff.finished = wait_clock.then(Instant::now);
    fragments
}

/// Drive `shards` through `schedule`, calling `at_barrier(now, fragments)`
/// — one fragment per site, in site order — at every sampling barrier.
/// Each epoch round and each barrier's routing are timed into `telemetry`
/// (`aequus_sim_epoch_s`, `aequus_sim_route_s`).
/// Returns the shards in site order plus the peak number of cross-shard
/// deliveries pending at any single barrier (the engine's mailbox
/// high-water mark, the same at any run count).
///
/// Runs are `num_threads` contiguous slices of the sites (5 sites on 2
/// threads run 3 + 2); with one run nothing is spawned. A run that panics
/// re-raises its own payload.
pub fn drive(
    mut shards: Vec<Shard>,
    num_threads: usize,
    mut schedule: EpochSchedule,
    end_s: f64,
    telemetry: &Telemetry,
    mut at_barrier: impl FnMut(f64, Vec<ShardSample>),
) -> (Vec<Shard>, u64) {
    let run_len = shards.len().div_ceil(num_threads.max(1)).max(1);
    let mut handoffs: Vec<Handoff> = shards.chunks(run_len).map(|_| Handoff::default()).collect();
    // Barrier wait is the join time minus a run's finish time, charged to
    // the *waiting* shards (the busy run shows up as compute).
    let wait_clock = handoffs.len() > 1 && shards.iter().any(|s| s.prof.is_on());
    let (h_epoch, h_route) = (
        telemetry.histogram("aequus_sim_epoch_s"),
        telemetry.histogram("aequus_sim_route_s"),
    );
    let mut mailbox_hwm: u64 = 0;
    let mut index: u64 = 0;
    while let Some(epoch) = schedule.next() {
        let timer = h_epoch.start_timer();
        let step = |run: &mut [Shard], handoff: &mut Handoff| {
            run_epoch(run, handoff, index, epoch, end_s, wait_clock)
        };
        let mut runs = shards.chunks_mut(run_len).zip(&mut handoffs);
        let fragments = match runs.next() {
            None => Vec::new(),
            Some((run, handoff)) if runs.len() == 0 => step(run, handoff),
            Some((run, handoff)) => std::thread::scope(|scope| {
                let step = &step;
                let others: Vec<_> = runs
                    .map(|(run, h)| scope.spawn(move || step(run, h)))
                    .collect();
                let mut fragments = step(run, handoff);
                for other in others {
                    match other.join() {
                        Ok(mut more) => fragments.append(&mut more),
                        Err(payload) => std::panic::resume_unwind(payload),
                    }
                }
                fragments
            }),
        };
        if wait_clock {
            let joined = Instant::now();
            for (run, h) in shards.chunks_mut(run_len).zip(&handoffs) {
                let wait_ns = h.finished.map_or(0, |t| (joined - t).as_nanos() as u64);
                for shard in run {
                    shard.prof.record_wait_ns(wait_ns, index, epoch.limit_s);
                }
            }
        }
        if epoch.sample {
            at_barrier(epoch.limit_s, fragments);
        }
        let route = h_route.start_timer();
        let pending: usize = handoffs.iter().map(|h| h.staged.len()).sum();
        mailbox_hwm = mailbox_hwm.max(pending as u64);
        // Runs are contiguous and read in order: deliveries go out by source
        // site, then staging order, the same pushes at any run count.
        for o in handoffs.iter_mut().flat_map(|h| h.staged.drain(..)) {
            let queue = &mut shards[o.dest].queue;
            queue.push(o.arrival_s, Event::UssDeliver(o.msg));
        }
        route.observe();
        timer.observe();
        index += 1;
    }
    (shards, mailbox_hwm)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(mut s: EpochSchedule) -> Vec<Epoch> {
        std::iter::from_fn(|| s.next()).collect()
    }

    #[test]
    fn schedule_starts_inclusive_with_sample_and_ends_with_flush() {
        let epochs = collect(EpochSchedule::new(10.0, 5.0, 60.0));
        assert_eq!(
            epochs.first(),
            Some(&Epoch {
                limit_s: 0.0,
                inclusive: true,
                sample: true
            })
        );
        assert_eq!(
            epochs.last(),
            Some(&Epoch {
                limit_s: 10.0,
                inclusive: true,
                sample: false
            })
        );
        // Interior windows are half-open and never wider than the lookahead.
        let mut prev = 0.0;
        for e in &epochs[1..epochs.len() - 1] {
            assert!(!e.inclusive);
            assert!(e.limit_s - prev <= 5.0 + 1e-12);
            assert!(e.limit_s > prev);
            prev = e.limit_s;
        }
    }

    #[test]
    fn schedule_cuts_epochs_at_sample_instants() {
        // Lookahead 45 s, samples every 60 s: barriers must land exactly on
        // 60, 120, … with the sample flag set.
        let epochs = collect(EpochSchedule::new(150.0, 45.0, 60.0));
        let samples: Vec<f64> = epochs
            .iter()
            .filter(|e| e.sample)
            .map(|e| e.limit_s)
            .collect();
        assert_eq!(samples, vec![0.0, 60.0, 120.0]);
        assert!(epochs.iter().all(|e| e.limit_s <= 150.0));
    }

    #[test]
    fn schedule_samples_at_horizon_when_aligned() {
        let epochs = collect(EpochSchedule::new(120.0, 50.0, 60.0));
        let samples: Vec<f64> = epochs
            .iter()
            .filter(|e| e.sample)
            .map(|e| e.limit_s)
            .collect();
        assert_eq!(samples, vec![0.0, 60.0, 120.0]);
    }

    #[test]
    fn zero_horizon_is_one_sampled_epoch() {
        let epochs = collect(EpochSchedule::new(0.0, 5.0, 60.0));
        assert_eq!(epochs.len(), 1);
        assert!(epochs[0].sample && epochs[0].inclusive);
    }
}
