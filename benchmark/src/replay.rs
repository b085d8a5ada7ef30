//! The traced replay: a benchmark-owned serial driver that runs a workload
//! through the same public calls `GridSimulation` makes, in the same order,
//! with a span around every call into a layer.
//!
//! It mirrors `GridSimulation::{new, run}`, the serial arm of
//! `barrier::drive`, and `Shard::{advance, tick, send}` call for call. Those
//! three are private or take no hooks, so the mirror is the only way to time
//! layers from outside; the price is that it can drift from the engine. The
//! guard is the digest: a replay whose [`Outcome::sim_digest`] differs from
//! the engine's measured a different program and fails the pass.

use crate::outcome::Outcome;
use crate::spans::{SpanRecorder, GRID};
use crate::steady::{self, Lap};
use crate::workloads::Workload;
use aequus_core::SiteId;
use aequus_services::UssMessage;
use aequus_sim::barrier::{Epoch, EpochSchedule};
use aequus_sim::cluster::SimCluster;
use aequus_sim::dispatch::Dispatcher;
use aequus_sim::shard::{Outgoing, SampleSpec};
use aequus_sim::{Event, GridScenario, MetricsLog, Sample, Shard};
use aequus_telemetry::ShardProfiler;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Counts read through public accessors at the layer boundaries.
pub type Counts = BTreeMap<&'static str, f64>;

/// What a traced replay yields.
#[derive(Debug)]
pub struct Replayed {
    /// The simulated results — must digest-equal the engine's.
    pub outcome: Outcome,
    /// Wall seconds of the replayed `run` (pre-routing through collection),
    /// as the spans' clock read them: the base of `trace.coverage`.
    pub wall_s: f64,
    /// The same stretch on the steady stopwatch (zeros when none runs).
    pub ran: Lap,
    /// The spans.
    pub spans: SpanRecorder,
    /// Exact counts (`*.calls`, `*.msgs`, high-water marks, ratios).
    pub counts: Counts,
    /// Usage reports still in a site's delay pipeline at the horizon.
    pub pending_reports: usize,
}

/// Build one shard per site exactly as `GridSimulation::new` does.
fn build_shards(scenario: &Arc<GridScenario>) -> Vec<Shard> {
    let mut clusters: Vec<SimCluster> = scenario
        .clusters
        .iter()
        .enumerate()
        .map(|(i, spec)| SimCluster::new(i, spec, scenario))
        .collect();
    let n = clusters.len();
    let overlay = scenario.overlay;
    for (i, cluster) in clusters.iter_mut().enumerate() {
        let nbrs = overlay.neighbors(i, n);
        let tx: Vec<SiteId> = nbrs
            .iter()
            .copied()
            .filter(|&j| scenario.clusters[j].participation.reads_global())
            .map(|j| SiteId(j as u32))
            .collect();
        let rx: Vec<SiteId> = nbrs
            .iter()
            .copied()
            .filter(|&j| scenario.clusters[j].participation.contributes() || overlay.forwards(j, n))
            .map(|j| SiteId(j as u32))
            .collect();
        cluster.site.configure_exchange(
            &tx,
            &rx,
            scenario.retry,
            scenario.stale_policy,
            scenario.seed,
        );
        cluster.site.uss.set_forwarding(overlay.forwards(i, n));
    }
    let spec = Arc::new(SampleSpec::from_scenario(scenario));
    clusters
        .into_iter()
        .enumerate()
        .map(|(i, c)| {
            Shard::new(
                i,
                c,
                Arc::clone(scenario),
                Arc::clone(&spec),
                ShardProfiler::disabled(),
            )
        })
        .collect()
}

struct Driver {
    scenario: Arc<GridScenario>,
    shards: Vec<Shard>,
    rec: SpanRecorder,
    outgoing: Vec<Outgoing>,
    end_s: f64,
    poll_msgs: u64,
    routed_msgs: u64,
    queue_depth_max: usize,
}

impl Driver {
    /// `Shard::advance`: burn through one shard's due events.
    fn advance(&mut self, i: usize, epoch: Epoch) {
        let site = i as u16;
        loop {
            // The root span opens before the pop so queue time is inside it;
            // it is only recorded when an event was actually due.
            let t0 = self.rec.now_ns();
            let Some(t) = self.shards[i].queue.peek_time() else {
                break;
            };
            let due = if epoch.inclusive {
                t <= epoch.limit_s
            } else {
                t < epoch.limit_s
            };
            if !due || t > self.end_s {
                break;
            }
            let (now, event) = self.shards[i].queue.pop().expect("peeked event");
            self.rec.enter_at("sim.event", site, now, t0);
            self.shards[i].stats.events += 1;
            match event {
                Event::JobArrival(job) => {
                    let shard = &mut self.shards[i];
                    shard.stats.arrivals += 1;
                    self.rec
                        .span("rms.submit", site, now, || shard.cluster.submit(&job, now));
                    self.queue_depth_max = self.queue_depth_max.max(shard.cluster.rms.pending());
                }
                Event::ClusterTick => {
                    self.shards[i].stats.ticks += 1;
                    self.tick(i, now, epoch.limit_s);
                    let next = now + self.scenario.tick_interval_s;
                    if next <= self.end_s {
                        self.shards[i].queue.push(next, Event::ClusterTick);
                    }
                }
                Event::UssDeliver(msg) => {
                    let shard = &mut self.shards[i];
                    if shard.crashed || self.scenario.faults.is_partitioned(i, now) {
                        shard.stats.partitioned += 1;
                    } else {
                        if msg.is_data() {
                            shard.stats.gossip_deliveries += 1;
                        }
                        let responses = self.rec.span("uss.deliver", site, now, || {
                            shard.cluster.deliver_msg(&msg, now)
                        });
                        for (dest, response) in responses {
                            self.send(i, dest.0 as usize, response, now, epoch.limit_s);
                        }
                    }
                }
            }
            self.rec.exit();
        }
    }

    /// `Shard::tick`, with `SimCluster::step` split into its two calls.
    fn tick(&mut self, i: usize, now: f64, limit_s: f64) {
        let site = i as u16;
        let Self {
            scenario,
            shards,
            rec,
            ..
        } = self;
        let shard = &mut shards[i];
        let crashed_now = scenario.faults.is_crashed(i, now);
        if crashed_now != shard.crashed {
            if crashed_now {
                rec.span("site.crash", site, now, || shard.cluster.site.crash(now));
                shard.stats.crashes += 1;
            } else {
                rec.span("site.recover", site, now, || {
                    shard.cluster.site.recover(now)
                });
            }
            shard.crashed = crashed_now;
        }
        // A crashed site's services are down but its RMS keeps scheduling:
        // `SimCluster::step` without the site tick is `step_rms_only`, which
        // is exactly `rms.advance(&mut site, now)`.
        if !crashed_now {
            rec.span("site.tick", site, now, || shard.cluster.site.tick(now));
        }
        rec.span("rms.advance", site, now, || {
            shard.cluster.step_rms_only(now)
        });
        self.queue_depth_max = self.queue_depth_max.max(shard.cluster.rms.pending());
        if crashed_now {
            return;
        }
        let _ = shard.cluster.take_outbox();
        let msgs = rec.span("uss.poll", site, now, || shard.cluster.poll_messages(now));
        self.poll_msgs += msgs.len() as u64;
        if scenario.faults.is_partitioned(i, now) {
            return;
        }
        for (dest, msg) in msgs {
            self.send(i, dest.0 as usize, msg, now, limit_s);
        }
    }

    /// `Shard::send`: drop coin, latency, wire accounting, staging.
    fn send(&mut self, i: usize, dest: usize, msg: UssMessage, now: f64, limit_s: f64) {
        let shard = &mut self.shards[i];
        if shard.faults.should_drop(&self.scenario.faults) {
            shard.stats.dropped += 1;
            return;
        }
        let transfer = match msg {
            UssMessage::Snapshot { .. } => self.scenario.snapshot_transfer_s,
            _ => 0.0,
        };
        let arrival = (now + self.scenario.timings.exchange_latency_s + transfer).max(limit_s);
        let encoding = self.scenario.encoding;
        let bytes = self
            .rec
            .span("codec.wire_size", i as u16, now, || msg.wire_size(encoding));
        shard.stats.gossip_bytes += bytes;
        self.outgoing.push(Outgoing {
            source: i,
            dest,
            arrival_s: arrival,
            msg,
        });
    }
}

/// Replay `w` under spans. Everything `GridSimulation::run` does with
/// telemetry, profiling, health and the flight recorder off is done here;
/// the workloads never switch those on.
pub fn replay(w: &Workload) -> Replayed {
    let scenario = Arc::new(w.scenario.clone());
    assert!(
        !scenario.telemetry && scenario.health.is_none() && scenario.flight.is_none(),
        "the replay mirrors the engine's plain path only"
    );
    let shards = build_shards(&scenario);
    let mut d = Driver {
        shards,
        rec: SpanRecorder::new(),
        outgoing: Vec::new(),
        end_s: w.trace.last_submit() + w.drain_s,
        poll_msgs: 0,
        routed_msgs: 0,
        queue_depth_max: 0,
        scenario,
    };
    let scenario = Arc::clone(&d.scenario);
    let end_s = d.end_s;
    steady::lap();
    let started = Instant::now();

    d.rec.enter("sim.preroute", GRID, 0.0);
    let mut metrics = MetricsLog::new(scenario.tracked_users().into_iter().collect());
    let mut dispatcher = Dispatcher::new(scenario.routing, &scenario.capacities(), scenario.seed);
    let jobs = w.trace.jobs();
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[a]
            .submit_s
            .total_cmp(&jobs[b].submit_s)
            .then(a.cmp(&b))
    });
    for idx in order {
        let job = &jobs[idx];
        if job.submit_s > end_s {
            break;
        }
        let target = dispatcher.pick();
        d.shards[target]
            .queue
            .push(job.submit_s, Event::JobArrival(job.clone()));
        metrics.count_submission(job.submit_s);
    }
    for shard in &mut d.shards {
        shard.queue.push(0.0, Event::ClusterTick);
    }
    d.rec.exit();

    let lookahead = if scenario.timings.exchange_latency_s > 0.0 {
        scenario.timings.exchange_latency_s
    } else {
        scenario.tick_interval_s.max(1e-9)
    };
    let mut schedule = EpochSchedule::new(end_s, lookahead, scenario.sample_interval_s);
    let total_cores = scenario.total_cores();
    while let Some(epoch) = schedule.next() {
        for i in 0..d.shards.len() {
            d.advance(i, epoch);
        }
        if epoch.sample {
            let mut fragments = Vec::with_capacity(d.shards.len());
            for (i, shard) in d.shards.iter_mut().enumerate() {
                fragments.push(d.rec.span("sim.sample", i as u16, epoch.limit_s, || {
                    let fragment = shard.sample_fragment(epoch.limit_s);
                    // The engine reads this flag for its flight recorder.
                    let _ = shard.remote_suppressed();
                    fragment
                }));
            }
            d.rec.span("sim.assemble", GRID, epoch.limit_s, || {
                metrics.record(Sample::assemble(epoch.limit_s, fragments, total_cores));
            });
        }
        d.routed_msgs += d.outgoing.len() as u64;
        let Driver {
            rec,
            shards,
            outgoing,
            ..
        } = &mut d;
        rec.span("sim.route", GRID, epoch.limit_s, || {
            for o in outgoing.drain(..) {
                shards[o.dest]
                    .queue
                    .push(o.arrival_s, Event::UssDeliver(o.msg));
            }
        });
    }

    d.rec.enter("sim.finish", GRID, end_s);
    let events: u64 = d.shards.iter().map(|s| s.stats.events).sum();
    for shard in &mut d.shards {
        let _ = shard.cluster.rms.utilization(end_s);
    }
    let outcome = Outcome {
        end_s,
        events_processed: events + metrics.samples().len() as u64,
        cluster_stats: d
            .shards
            .iter()
            .map(|s| s.cluster.rms.stats().clone())
            .collect(),
        metrics,
        site_usage_views: d
            .shards
            .iter()
            .map(|s| s.cluster.site.uss.grid_view())
            .collect(),
    };
    d.rec.exit();
    let wall_s = started.elapsed().as_secs_f64();
    let ran = steady::lap();

    let counts = read_counts(&d, &outcome);
    let pending_reports = d
        .shards
        .iter()
        .map(|s| s.cluster.site.pending_report_count())
        .sum();
    Replayed {
        outcome,
        wall_s,
        ran,
        spans: d.rec,
        counts,
        pending_reports,
    }
}

/// The exact counts, read through the layers' public accessors.
fn read_counts(d: &Driver, outcome: &Outcome) -> Counts {
    let sum = |f: &dyn Fn(&Shard) -> u64| d.shards.iter().map(f).sum::<u64>() as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let deliveries = sum(&|s| s.stats.gossip_deliveries);
    let duplicates = sum(&|s| s.cluster.site.uss.duplicates());
    let lib_hits = sum(&|s| s.cluster.site.lib.fairshare_stats.hits);
    let lib_queries = lib_hits + sum(&|s| s.cluster.site.lib.fairshare_stats.misses);
    let store = |f: &dyn Fn(&aequus_services::StoreStats) -> u64| {
        sum(&|s| s.cluster.site.store_stats().as_ref().map_or(0, f))
    };
    let mut c = Counts::new();
    c.insert("sim.events", outcome.events_processed as f64);
    c.insert(
        "sim.queue.hwm",
        d.shards
            .iter()
            .map(|s| s.queue.high_water())
            .max()
            .unwrap_or(0) as f64,
    );
    c.insert("sim.route.msgs", d.routed_msgs as f64);
    c.insert("sim.faults.dropped", sum(&|s| s.stats.dropped));
    c.insert("sim.faults.partitioned", sum(&|s| s.stats.partitioned));
    c.insert("rms.backfills", sum(&|s| s.cluster.rms.stats().backfilled));
    c.insert("rms.queue_depth_max", d.queue_depth_max as f64);
    c.insert("uss.poll.msgs", d.poll_msgs as f64);
    c.insert("uss.retries", sum(&|s| s.cluster.site.uss.retries()));
    c.insert("uss.resyncs", sum(&|s| s.cluster.site.uss.resyncs()));
    c.insert(
        "uss.snapshots",
        sum(&|s| s.cluster.site.uss.snapshots_sent()),
    );
    c.insert("uss.duplicates", duplicates);
    c.insert(
        "uss.useful_ratio",
        ratio(deliveries - duplicates, deliveries),
    );
    c.insert(
        "ums.refresh.calls",
        sum(&|s| s.cluster.site.ums.refreshes()),
    );
    c.insert(
        "ums.full_rebuilds",
        sum(&|s| s.cluster.site.ums.full_rebuilds()),
    );
    c.insert(
        "fcs.refresh_full.calls",
        sum(&|s| s.cluster.site.fcs.full_refreshes()),
    );
    c.insert(
        "fcs.refresh_incr.calls",
        sum(&|s| s.cluster.site.fcs.incremental_refreshes()),
    );
    c.insert(
        "fcs.nodes_recomputed",
        sum(&|s| s.cluster.site.fcs.nodes_recomputed()),
    );
    c.insert("lib.query.calls", lib_queries);
    c.insert("lib.cache_hit_ratio", ratio(lib_hits, lib_queries));
    // Every message that reaches the wire is staged, then routed: one count.
    c.insert("codec.msgs", d.routed_msgs as f64);
    c.insert("codec.bytes", sum(&|s| s.stats.gossip_bytes));
    c.insert("store.append.calls", store(&|st| st.frames_appended));
    c.insert("store.wal_bytes", store(&|st| st.wal_bytes));
    c.insert("store.checkpoints", store(&|st| st.checkpoints));
    c.insert("store.replay.frames", store(&|st| st.frames_replayed));
    c
}
