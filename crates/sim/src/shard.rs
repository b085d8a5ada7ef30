//! One shard of the parallel simulation: a site's full stack (RMS + Aequus
//! services), its local event queue, and its own fault-RNG stream — an
//! independently steppable unit that burns through a whole epoch of local
//! events without touching any other shard.
//!
//! Cross-shard traffic never leaves a shard directly: sends are staged as
//! [`Outgoing`] records and handed to the coordinator at the next epoch
//! barrier, which routes them into the destination shards' queues in a
//! deterministic (source-site, staging) order. Because the fault stream, the
//! event queue, and the local clock are all shard-owned, the shard's
//! execution depends only on `(scenario, seed, delivered events)` — never on
//! which worker thread runs it or how many workers exist.

use crate::cluster::SimCluster;
use crate::event::{Event, EventQueue};
use crate::faults::FaultRng;
use crate::metrics::{ShardSample, UserSample};
use crate::scenario::GridScenario;
use aequus_core::policy::PolicyTree;
use aequus_core::projection::Percental;
use aequus_core::{GridUser, NodeId, UsageRow, UserId};
use aequus_services::{LinkSide, UssMessage};
use aequus_telemetry::ShardProfiler;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A cross-shard message staged during an epoch, delivered at the barrier.
#[derive(Debug)]
pub struct Outgoing {
    /// Source site (barrier delivery sorts by this, so destination queues
    /// see messages in the same order the serial engine would push them).
    pub source: usize,
    /// Destination site.
    pub dest: usize,
    /// Absolute delivery time, seconds (already includes exchange latency
    /// and any snapshot transfer surcharge, clamped to the epoch barrier).
    pub arrival_s: f64,
    /// The message.
    pub msg: UssMessage,
}

/// Plain per-shard event counters, merged into the engine telemetry at the
/// end of the run. Kept as raw integers so the hot loop never touches an
/// atomic and the totals are exactly reproducible.
#[derive(Debug, Default, Clone, Copy)]
pub struct ShardStats {
    /// Events this shard processed.
    pub events: u64,
    /// Job arrivals submitted.
    pub arrivals: u64,
    /// Cluster ticks executed.
    pub ticks: u64,
    /// Data (summary) messages delivered to this site.
    pub gossip_deliveries: u64,
    /// Total encoded bytes this site put on the wire (codec-accurate:
    /// `UssMessage::wire_size` under the scenario's encoding).
    pub gossip_bytes: u64,
    /// Deliveries refused because the site was partitioned or crashed.
    pub partitioned: u64,
    /// Sends lost to the random-drop fault.
    pub dropped: u64,
    /// Crash-window entries.
    pub crashes: u64,
}

impl ShardStats {
    /// Accumulate another shard's counters.
    pub fn merge(&mut self, other: &ShardStats) {
        self.events += other.events;
        self.arrivals += other.arrivals;
        self.ticks += other.ticks;
        self.gossip_deliveries += other.gossip_deliveries;
        self.gossip_bytes += other.gossip_bytes;
        self.partitioned += other.partitioned;
        self.dropped += other.dropped;
        self.crashes += other.crashes;
    }
}

/// What the per-sample readout walks, shared read-only by every shard: the
/// tracked users (per-site priorities, plus absolute usage shares at the
/// reference site) and the grid-wide user base the usage rows are laid out
/// over.
#[derive(Debug)]
pub struct SampleSpec {
    /// Tracked users: the policy leaves in policy order, capped by the
    /// scenario's `metrics_user_cap`.
    pub tracked: Vec<GridUser>,
    /// The user base of the grid policy's layout — every leaf identity,
    /// ranked in name order (never capped), the same `Arc` the tables of
    /// the sites enforcing that policy are built over: their ids are ranks
    /// in it.
    pub users: Arc<[GridUser]>,
}

impl SampleSpec {
    /// Build from a scenario's policy and cap.
    pub fn from_scenario(scenario: &GridScenario) -> Self {
        let leaves = scenario.policy.users();
        let cap = scenario.metrics_user_cap.unwrap_or(leaves.len());
        Self {
            tracked: leaves.into_iter().take(cap).map(|(_, u)| u).collect(),
            users: Arc::clone(scenario.policy.layout().users()),
        }
    }
}

/// One independently steppable shard: site stack + queue + fault stream.
#[derive(Debug)]
pub struct Shard {
    /// Site index (also the cluster index in the scenario).
    pub index: usize,
    /// The site's full stack.
    pub cluster: SimCluster,
    /// Shard-local event queue.
    pub queue: EventQueue,
    /// Shard-local fault stream (`FaultRng::for_shard`).
    pub faults: FaultRng,
    /// Crash-window edge state.
    pub crashed: bool,
    /// Event counters.
    pub stats: ShardStats,
    /// Continuous-profiling accumulator (disabled outside profiled runs).
    /// Shard-owned like `stats`, so the hot loop records without locks.
    pub prof: ShardProfiler,
    /// Cumulative per-destination wire counters `(bytes, msgs)`, indexed by
    /// destination site and kept only when the scenario runs health
    /// monitoring — they feed the per-link health map, which wants link
    /// budgets, not the site total in `stats`. A flat vector keeps the
    /// per-send accounting to two adds.
    link_wire: Vec<(u64, u64)>,
    /// This site's raw usage view over `spec.users`, kept current by
    /// `Uss::sync_view_row` at each sample and shared with that sample's
    /// fragment.
    usage_row: Arc<UsageRow>,
    /// Arena leaf and site id of each tracked user in the site's current
    /// fairshare tree, resolved once per rebuilt tree: `leaves_of_build` is
    /// the FCS's full-refresh count they were resolved at (node ids only
    /// move on a full rebuild; `0` = never resolved).
    tracked_leaves: Vec<Option<(NodeId, UserId)>>,
    leaves_of_build: u64,
    scenario: Arc<GridScenario>,
    spec: Arc<SampleSpec>,
}

impl Shard {
    /// Wrap a built cluster as a shard.
    pub fn new(
        index: usize,
        cluster: SimCluster,
        scenario: Arc<GridScenario>,
        spec: Arc<SampleSpec>,
        prof: ShardProfiler,
    ) -> Self {
        let faults = FaultRng::for_shard(scenario.seed, index as u64);
        let link_wire = if scenario.health.is_some() {
            vec![(0, 0); scenario.clusters.len()]
        } else {
            Vec::new()
        };
        Self {
            index,
            cluster,
            queue: EventQueue::new(),
            faults,
            crashed: false,
            stats: ShardStats::default(),
            prof,
            link_wire,
            usage_row: Arc::default(),
            tracked_leaves: Vec::new(),
            leaves_of_build: 0,
            scenario,
            spec,
        }
    }

    /// Process every queued event with `time < limit_s` (or `<= limit_s`
    /// when `inclusive`), staging cross-shard sends into `out`. Events past
    /// `end_s` stay queued forever (the run horizon).
    pub fn advance(&mut self, limit_s: f64, inclusive: bool, end_s: f64, out: &mut Vec<Outgoing>) {
        while let Some(t) = self.queue.peek_time() {
            let due = if inclusive { t <= limit_s } else { t < limit_s };
            if !due || t > end_s {
                break;
            }
            let (now, event) = self.queue.pop().expect("peeked event");
            self.stats.events += 1;
            match event {
                Event::JobArrival(job) => {
                    self.stats.arrivals += 1;
                    self.cluster.submit(&job, now);
                }
                Event::ClusterTick => {
                    self.stats.ticks += 1;
                    self.tick(now, limit_s, out);
                    let next = now + self.scenario.tick_interval_s;
                    if next <= end_s {
                        self.queue.push(next, Event::ClusterTick);
                    }
                }
                Event::UssDeliver(msg) => {
                    if self.crashed || self.scenario.faults.is_partitioned(self.index, now) {
                        // Undeliverable: the publisher's outbox keeps the
                        // data and the retry/anti-entropy layer re-syncs it
                        // once the site is back.
                        self.stats.partitioned += 1;
                    } else {
                        if msg.is_data() {
                            self.stats.gossip_deliveries += 1;
                        }
                        let responses = self.cluster.deliver_msg(&msg, now);
                        for (dest, response) in responses {
                            self.send(dest.0 as usize, response, now, limit_s, out);
                        }
                    }
                }
            }
        }
    }

    /// One cluster tick: crash-window edge detection, then either the
    /// degraded RMS-only step (crashed) or the full step plus exchange
    /// traffic.
    fn tick(&mut self, now: f64, limit_s: f64, out: &mut Vec<Outgoing>) {
        let crashed_now = self.scenario.faults.is_crashed(self.index, now);
        if crashed_now != self.crashed {
            if crashed_now {
                self.cluster.site.crash(now);
                self.stats.crashes += 1;
            } else {
                self.cluster.site.recover(now);
            }
            self.crashed = crashed_now;
        }
        if crashed_now {
            // The RMS keeps scheduling (degraded, stale-cache priorities)
            // and completed jobs spool their usage reports for replay, but
            // the Aequus services are down.
            self.cluster.step_rms_only(now);
            return;
        }
        self.cluster.step(now);
        let msgs = self.cluster.poll_messages(now);
        if self.scenario.faults.is_partitioned(self.index, now) {
            // Transport cut at the source. The retry state has already
            // advanced, so the lost sends retry after their backoff.
            return;
        }
        for (dest, msg) in msgs {
            self.send(dest.0 as usize, msg, now, limit_s, out);
        }
    }

    /// Stage one exchange message toward `dest` with network latency,
    /// subject to this shard's random-drop stream (control messages are as
    /// droppable as data — the protocol tolerates either).
    fn send(
        &mut self,
        dest: usize,
        msg: UssMessage,
        now: f64,
        limit_s: f64,
        out: &mut Vec<Outgoing>,
    ) {
        if self.faults.should_drop(&self.scenario.faults) {
            self.stats.dropped += 1;
            return;
        }
        // Bulk snapshot catch-ups haul a full cumulative view over the
        // wire; the scenario may charge them extra transfer time on top of
        // the per-hop exchange latency (incremental summaries stay cheap).
        let transfer = match msg {
            UssMessage::Snapshot { .. } => self.scenario.snapshot_transfer_s,
            _ => 0.0,
        };
        // With lookahead ≤ exchange latency the clamp is a no-op; it only
        // bites when the scenario's latency is shorter than the epoch window
        // (e.g. zero-latency configs), where deliveries quantize to the
        // barrier instead of time-travelling into an already-executed epoch.
        let arrival = (now + self.scenario.timings.exchange_latency_s + transfer).max(limit_s);
        // Bytes-on-wire: only messages that actually leave the site count
        // (drops above never hit the wire). Staging order is deterministic,
        // so these link budgets are too. The size is the codec's real
        // encoded length under the scenario's wire encoding.
        let bytes = msg.wire_size(self.scenario.encoding);
        self.prof.add_wire(dest, bytes);
        self.stats.gossip_bytes += bytes;
        if let Some(slot) = self.link_wire.get_mut(dest) {
            slot.0 += bytes;
            slot.1 += 1;
        }
        out.push(Outgoing {
            source: self.index,
            dest,
            arrival_s: arrival,
            msg,
        });
    }

    /// Whether this site's remote data is currently suppressed (staleness
    /// degradation) — feeds the coordinator's flight recorder.
    pub fn remote_suppressed(&self) -> bool {
        self.cluster.site.uss.remote_suppressed()
    }

    /// This shard's contribution to the metrics sample at `now`: local
    /// queue/usage/FCS readouts, plus the reference-site per-user readout
    /// when this shard hosts site 0.
    ///
    /// `O(tracked users)` id-indexed reads plus `O(users whose usage changed
    /// since the last sample · log users)` to bring the usage row up to date
    /// — nothing scales with users × slots, copies the view or clones a name
    /// per user.
    pub fn sample_fragment(&mut self, now: f64) -> ShardSample {
        let site = &mut self.cluster.site;
        let mut users: BTreeMap<String, UserSample> = BTreeMap::new();
        let mut site_priority: BTreeMap<String, f64> = BTreeMap::new();
        if let Some(tree) = site.fcs.tree() {
            let build = site.fcs.full_refreshes();
            if self.leaves_of_build != build {
                self.tracked_leaves = (self.spec.tracked.iter())
                    .map(|user| Some((tree.user_node(user)?, site.fcs.id_of(user)?)))
                    .collect();
                self.leaves_of_build = build;
            }
            // Collected (bulk-built), not inserted one by one: ascending
            // inserts leave B-tree nodes half full, and the log keeps one
            // of these maps per site per sample.
            let tracked = || {
                let leaves = self.spec.tracked.iter().zip(&self.tracked_leaves);
                leaves.filter_map(|(user, leaf)| Some((user, (*leaf)?)))
            };
            site_priority = tracked()
                .map(|(user, (leaf, _))| (user.as_str().to_string(), tree.priority_of_id(leaf)))
                .collect();
            if self.index == 0 {
                users = tracked()
                    .map(|(user, (leaf, id))| {
                        // Absolute usage share: product of per-level usage
                        // shares — identical to the per-node share for flat
                        // hierarchies.
                        let (_, usage_share) = Percental::total_shares(tree, leaf);
                        let sample = UserSample {
                            priority: tree.priority_of_id(leaf),
                            usage_share,
                            // The uncounted read: sampling is not a
                            // served query.
                            factor: site.fcs.factor_of(id).unwrap_or(0.5),
                        };
                        (user.as_str().to_string(), sample)
                    })
                    .collect();
            }
        }
        let busy_cores = self.cluster.rms.nodes.busy_cores();
        let usage_view = (!self.crashed
            && self.scenario.clusters[self.index]
                .participation
                .reads_global())
        .then(|| {
            // In place unless the previous sample's fragment is still alive.
            let row = Arc::make_mut(&mut self.usage_row);
            site.uss.sync_view_row(&self.spec.users, row);
            Arc::clone(&self.usage_row)
        });
        let link_health = if self.scenario.health.is_some() {
            let n = self.scenario.clusters.len();
            let mut rows = site.uss.link_stats(now);
            for row in &mut rows {
                row.depth = self
                    .scenario
                    .overlay
                    .link_depth(row.from as usize, row.to as usize, n);
                // Tx rows additionally carry this site's cumulative wire
                // budget toward the peer (the rx side never sees drops).
                if let LinkSide::Tx { bytes, msgs, .. } = &mut row.side {
                    if let Some(&wire) = self.link_wire.get(row.to as usize) {
                        (*bytes, *msgs) = wire;
                    }
                }
            }
            rows
        } else {
            Vec::new()
        };
        ShardSample {
            users,
            site_priority,
            busy_cores,
            pending: self.cluster.rms.pending(),
            running: self.cluster.rms.running(),
            completed: self.cluster.rms.stats().completed,
            fcs_full_refreshes: site.fcs.full_refreshes(),
            fcs_incremental_refreshes: site.fcs.incremental_refreshes(),
            fcs_nodes_recomputed: site.fcs.nodes_recomputed(),
            usage_view,
            gossip_bytes: self.stats.gossip_bytes,
            link_health,
        }
    }

    /// The policy this shard's site enforces (override-aware).
    pub fn policy(&self) -> &PolicyTree {
        self.cluster.site.pds.policy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::GridScenario;
    use aequus_workload::TraceJob;

    fn two_site_scenario() -> Arc<GridScenario> {
        let mut s = GridScenario::national_testbed(&[("U65", 0.7), ("U30", 0.3)], 11);
        s.clusters.truncate(2);
        for c in &mut s.clusters {
            c.nodes = 4;
        }
        Arc::new(s)
    }

    fn build_shard(index: usize, scenario: &Arc<GridScenario>) -> Shard {
        let mut cluster = SimCluster::new(index, &scenario.clusters[index], scenario);
        // Register the peer so the reliable exchange produces traffic (the
        // engine does this for the whole fleet; shard tests wire it by hand).
        let peer = aequus_core::SiteId(if index == 0 { 1 } else { 0 });
        cluster.site.configure_exchange(
            &[peer],
            &[peer],
            scenario.retry,
            scenario.stale_policy,
            scenario.seed,
        );
        let spec = Arc::new(SampleSpec::from_scenario(scenario));
        Shard::new(
            index,
            cluster,
            Arc::clone(scenario),
            spec,
            ShardProfiler::disabled(),
        )
    }

    #[test]
    fn advance_respects_epoch_limit() {
        let sc = two_site_scenario();
        let mut shard = build_shard(0, &sc);
        shard.queue.push(0.0, Event::ClusterTick);
        shard.queue.push(
            3.0,
            Event::JobArrival(TraceJob {
                user: "U65".to_string(),
                submit_s: 3.0,
                duration_s: 10.0,
                cores: 1,
            }),
        );
        let mut out = Vec::new();
        // Exclusive limit at 3.0: only the t=0 tick runs (which re-queues
        // ticks every 5 s — also past the limit).
        shard.advance(3.0, false, 1_000.0, &mut out);
        assert_eq!(shard.stats.ticks, 1);
        assert_eq!(shard.stats.arrivals, 0);
        // Inclusive limit at 3.0 picks up the arrival.
        shard.advance(3.0, true, 1_000.0, &mut out);
        assert_eq!(shard.stats.arrivals, 1);
        assert_eq!(shard.stats.events, 2);
    }

    #[test]
    fn events_past_horizon_stay_queued() {
        let sc = two_site_scenario();
        let mut shard = build_shard(0, &sc);
        shard.queue.push(50.0, Event::ClusterTick);
        let mut out = Vec::new();
        shard.advance(100.0, true, 20.0, &mut out);
        assert_eq!(shard.stats.events, 0);
        assert_eq!(shard.queue.len(), 1);
    }

    #[test]
    fn outgoing_arrivals_never_precede_barrier() {
        let sc = two_site_scenario();
        let mut shard = build_shard(0, &sc);
        shard.queue.push(0.0, Event::ClusterTick);
        // Real usage so the publish pipeline has something to summarize.
        shard.queue.push(
            0.0,
            Event::JobArrival(TraceJob {
                user: "U65".to_string(),
                submit_s: 0.0,
                duration_s: 20.0,
                cores: 1,
            }),
        );
        let mut out = Vec::new();
        // Run long enough for the publish pipeline to emit summaries.
        for k in 1..200u32 {
            let limit = f64::from(k) * 5.0;
            shard.advance(limit, false, 10_000.0, &mut out);
        }
        assert!(!out.is_empty(), "site published exchange traffic");
        for o in &out {
            assert_eq!(o.source, 0);
            assert_eq!(o.dest, 1);
            assert!(
                o.arrival_s >= sc.timings.exchange_latency_s,
                "arrival {} under latency floor",
                o.arrival_s
            );
        }
    }

    #[test]
    fn reference_shard_fills_user_readout() {
        let sc = two_site_scenario();
        let mut s0 = build_shard(0, &sc);
        let mut s1 = build_shard(1, &sc);
        let mut out = Vec::new();
        s0.queue.push(0.0, Event::ClusterTick);
        s1.queue.push(0.0, Event::ClusterTick);
        s0.advance(0.0, true, 100.0, &mut out);
        s1.advance(0.0, true, 100.0, &mut out);
        let f0 = s0.sample_fragment(0.0);
        let f1 = s1.sample_fragment(0.0);
        assert!(!f0.users.is_empty(), "site 0 carries the reference readout");
        assert!(f1.users.is_empty(), "other sites leave it empty");
        assert!(f0.usage_view.is_some() && f1.usage_view.is_some());
    }

    #[test]
    fn sample_spec_honors_user_cap() {
        let mut s = GridScenario::national_testbed(&[("a", 0.4), ("b", 0.4), ("c", 0.2)], 1);
        s.metrics_user_cap = Some(2);
        let spec = SampleSpec::from_scenario(&s);
        assert_eq!(spec.tracked.len(), 2);
        assert_eq!(spec.users.len(), 3, "the user base is never capped");
    }
}
