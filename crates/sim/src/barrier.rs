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
//! Determinism does not depend on thread count anywhere in this file: the
//! epoch schedule is a pure function of the scenario, barrier deliveries are
//! sorted by source site before they enter destination queues, and sample
//! fragments are merged in site order. Workers only decide *where* a shard
//! executes, never *what* it observes.

use crate::event::Event;
use crate::metrics::ShardSample;
use crate::shard::{Outgoing, Shard};
use aequus_services::UssMessage;
use aequus_telemetry::Histogram;
use std::sync::mpsc;
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

enum Cmd {
    Epoch {
        /// Epoch index in the schedule (profiler span tagging).
        index: u64,
        epoch: Epoch,
        /// Barrier deliveries for this worker's shards, already in global
        /// (source site, staging) order.
        deliveries: Vec<(usize, f64, UssMessage)>,
    },
    Finish,
}

/// Sample fragments tagged with their site, so the coordinator can put the
/// workers' fragments back in site order.
type SiteFragments = Vec<(usize, ShardSample)>;

struct WorkerOut {
    outgoing: Vec<Outgoing>,
    fragments: SiteFragments,
}

/// One epoch over the shards one thread owns, in site order: advance each
/// shard to the epoch limit (its cross-shard sends staged on `outgoing`),
/// then take every shard's sample fragment if the barrier samples. The
/// serial loop and the workers both run exactly this.
fn run_epoch(
    shards: &mut [Shard],
    index: u64,
    epoch: Epoch,
    end_s: f64,
    outgoing: &mut Vec<Outgoing>,
) -> SiteFragments {
    for shard in shards.iter_mut() {
        let before = shard.stats.events;
        shard.prof.begin_epoch(index, epoch.limit_s, before);
        shard.advance(epoch.limit_s, epoch.inclusive, end_s, outgoing);
        let after = shard.stats.events;
        shard.prof.end_epoch(after);
    }
    if !epoch.sample {
        return Vec::new();
    }
    shards
        .iter_mut()
        .map(|s| (s.index, s.sample_fragment(epoch.limit_s)))
        .collect()
}

/// Site-ordered fragments as `at_barrier` takes them.
fn untagged(fragments: SiteFragments) -> Vec<ShardSample> {
    fragments.into_iter().map(|(_, s)| s).collect()
}

/// Drive `shards` through `schedule`, calling `at_barrier(now, fragments)`
/// — one fragment per site, in site order — at every sampling barrier.
/// Returns the shards in site order plus the peak number of cross-shard
/// deliveries pending at any single barrier — the engine's mailbox
/// high-water mark (deterministic: both paths stage the same sends per
/// epoch).
///
/// `num_threads <= 1` runs the identical epoch loop inline; more threads run
/// persistent `std::thread::scope` workers fed per-epoch commands over
/// channels. Both paths perform the same pushes in the same per-shard order,
/// so they produce bit-identical shard states.
pub fn drive(
    mut shards: Vec<Shard>,
    num_threads: usize,
    mut schedule: EpochSchedule,
    end_s: f64,
    epoch_hist: &Histogram,
    mut at_barrier: impl FnMut(f64, Vec<ShardSample>),
) -> (Vec<Shard>, u64) {
    let n_workers = num_threads.min(shards.len()).max(1);
    let mut mailbox_hwm: u64 = 0;
    if n_workers <= 1 {
        let mut outgoing: Vec<Outgoing> = Vec::new();
        let mut epoch_idx: u64 = 0;
        while let Some(epoch) = schedule.next() {
            let timer = epoch_hist.start_timer();
            let fragments = run_epoch(&mut shards, epoch_idx, epoch, end_s, &mut outgoing);
            if epoch.sample {
                at_barrier(epoch.limit_s, untagged(fragments));
            }
            mailbox_hwm = mailbox_hwm.max(outgoing.len() as u64);
            // Shards were advanced in site order, so `outgoing` is already
            // sorted by (source, staging order) — deliver directly.
            for o in outgoing.drain(..) {
                shards[o.dest]
                    .queue
                    .push(o.arrival_s, Event::UssDeliver(o.msg));
            }
            timer.observe();
            epoch_idx += 1;
        }
        return (shards, mailbox_hwm);
    }

    let n_sites = shards.len();
    // Round-robin: neighbouring (similarly loaded) sites land on different
    // workers. Which thread runs a shard never changes what it computes.
    let worker_of: Vec<usize> = (0..n_sites).map(|site| site % n_workers).collect();
    // Partition shards per worker, preserving site order within each.
    let mut per_worker: Vec<Vec<Shard>> = (0..n_workers).map(|_| Vec::new()).collect();
    for shard in shards.drain(..) {
        per_worker[worker_of[shard.index]].push(shard);
    }

    std::thread::scope(|scope| {
        let (res_tx, res_rx) = mpsc::channel::<(usize, WorkerOut)>();
        let mut cmd_txs = Vec::with_capacity(n_workers);
        let mut handles = Vec::with_capacity(n_workers);
        for (w, worker_shards) in per_worker.into_iter().enumerate() {
            let (tx, rx) = mpsc::channel::<Cmd>();
            cmd_txs.push(tx);
            let res_tx = res_tx.clone();
            handles.push(scope.spawn(move || worker_loop(w, worker_shards, rx, res_tx, end_s)));
        }
        drop(res_tx);

        let mut pending: Vec<Outgoing> = Vec::new();
        let mut epoch_idx: u64 = 0;
        while let Some(epoch) = schedule.next() {
            let timer = epoch_hist.start_timer();
            let mut deliveries: Vec<Vec<(usize, f64, UssMessage)>> =
                (0..n_workers).map(|_| Vec::new()).collect();
            for o in pending.drain(..) {
                deliveries[worker_of[o.dest]].push((o.dest, o.arrival_s, o.msg));
            }
            for (tx, batch) in cmd_txs.iter().zip(deliveries) {
                tx.send(Cmd::Epoch {
                    index: epoch_idx,
                    epoch,
                    deliveries: batch,
                })
                .expect("worker alive");
            }
            let mut outs: Vec<WorkerOut> = (0..n_workers)
                .map(|_| res_rx.recv().expect("worker epoch result").1)
                .collect();
            // Each source site lives on exactly one worker and its sends
            // arrive in one contiguous in-order run, so a stable sort by
            // source reconstructs the exact serial delivery order no matter
            // which worker reported first.
            let mut all_out: Vec<Outgoing> =
                outs.iter_mut().flat_map(|o| o.outgoing.drain(..)).collect();
            all_out.sort_by_key(|o| o.source);
            pending = all_out;
            mailbox_hwm = mailbox_hwm.max(pending.len() as u64);
            if epoch.sample {
                let mut frags: SiteFragments = outs
                    .iter_mut()
                    .flat_map(|o| o.fragments.drain(..))
                    .collect();
                frags.sort_by_key(|f| f.0);
                at_barrier(epoch.limit_s, untagged(frags));
            }
            timer.observe();
            epoch_idx += 1;
        }
        for tx in &cmd_txs {
            tx.send(Cmd::Finish).expect("worker alive");
        }
        let mut shards: Vec<Shard> = handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker exits cleanly"))
            .collect();
        shards.sort_by_key(|s| s.index);
        (shards, mailbox_hwm)
    })
}

fn worker_loop(
    worker: usize,
    mut shards: Vec<Shard>,
    rx: mpsc::Receiver<Cmd>,
    res_tx: mpsc::Sender<(usize, WorkerOut)>,
    end_s: f64,
) -> Vec<Shard> {
    // Barrier-wait measurement: elapsed between finishing an epoch and the
    // next command's arrival is exactly how long this worker's shards sat
    // idle at the barrier. Charged to every local shard — the *waiting*
    // shards pay, the busy shard on some other worker shows up as compute.
    // Only taken while profiling: an unprofiled run reads no clock here.
    let measure_wait = shards.iter().any(|s| s.prof.is_on());
    let mut last_done: Option<Instant> = None;
    while let Ok(cmd) = rx.recv() {
        match cmd {
            Cmd::Epoch {
                index,
                epoch,
                deliveries,
            } => {
                if let Some(done) = last_done.take() {
                    let wait_ns = done.elapsed().as_nanos() as u64;
                    for shard in &mut shards {
                        shard.prof.record_wait_ns(wait_ns, index, epoch.limit_s);
                    }
                }
                // Barrier deliveries first, in the coordinator's global
                // order — the serial engine pushes them at the same point
                // (after the previous epoch, before this one advances).
                for (dest, arrival_s, msg) in deliveries {
                    let shard = shards
                        .iter_mut()
                        .find(|s| s.index == dest)
                        .expect("delivery routed to owning worker");
                    shard.queue.push(arrival_s, Event::UssDeliver(msg));
                }
                let mut outgoing = Vec::new();
                let fragments = run_epoch(&mut shards, index, epoch, end_s, &mut outgoing);
                if res_tx
                    .send((
                        worker,
                        WorkerOut {
                            outgoing,
                            fragments,
                        },
                    ))
                    .is_err()
                {
                    break; // coordinator gone — unwind quietly
                }
                if measure_wait {
                    last_done = Some(Instant::now());
                }
            }
            Cmd::Finish => break,
        }
    }
    shards
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
