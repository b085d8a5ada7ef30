//! Continuous profiling: deterministic per-shard stage accounting with
//! dual clocks, bounded span rings, and machine-readable exports.
//!
//! The sharded engine needed an instrument panel, not printlns: when 8
//! workers run *slower* than 1 (as measured on a small host), the
//! question "barrier stalls, shard imbalance, mailbox churn, or allocation
//! pressure?" must be answerable from a run artifact. This module provides:
//!
//! * [`ShardProfiler`] — a plain (non-atomic) per-shard accumulator owned
//!   by each simulation shard, mirroring how the engine keeps per-shard
//!   event counters: the hot loop never touches a lock. Stages are keyed by
//!   `&'static str`, so recording a call is one `BTreeMap` probe.
//! * **Dual clocks.** Every stage carries deterministic values (call
//!   counts, bytes on the wire — pure functions of the simulated schedule)
//!   *and* wall-clock nanoseconds (how long the host actually spent). The
//!   deterministic half is bit-identical across worker counts; the wall
//!   half is what you profile.
//! * A **bounded span ring** (a [`Ring`] of [`ProfSpan`]) of per-epoch
//!   compute and barrier-wait windows — a 100k-user run cannot OOM the
//!   profiler.
//! * [`RunProfile`] — the merged end-of-run artifact, exported as a Chrome
//!   trace-event JSON ([`RunProfile::to_chrome_trace`], loadable in
//!   `about://tracing` / Perfetto, one track per shard, epochs as frames)
//!   and a folded-stacks text profile ([`RunProfile::to_folded`],
//!   deterministic by construction).
//!
//! **Why barrier wait is attributed to the *waiting* shard:** a stalled
//! worker tells you which shards paid for the imbalance, not which shard
//! caused it. The shard that causes a stall is busy — its time shows up as
//! `epoch` compute; the shards that suffer show `barrier.wait`. Attributing
//! the wait to the waiter makes the two sides of an imbalance sum to the
//! same wall clock, so share-of-total comparisons stay meaningful.

use crate::json::escape as json_escape;
use crate::Ring;
use std::collections::BTreeMap;
use std::time::Instant;

/// Accumulated statistics for one named stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageStats {
    /// Times the stage ran (deterministic).
    pub calls: u64,
    /// Wall-clock nanoseconds spent in the stage (host-dependent; zero for
    /// purely counted stages).
    pub wall_ns: u64,
    /// Bytes the stage moved (deterministic; gossip wire accounting).
    pub bytes: u64,
}

/// One recorded span: an epoch's compute window or a barrier wait, on the
/// run's shared wall-clock timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfSpan {
    /// Stage name (`"epoch"` or `"barrier.wait"`).
    pub name: &'static str,
    /// Epoch index in the barrier schedule.
    pub epoch: u64,
    /// The epoch's simulated-time limit, seconds (the sim clock of the
    /// dual-clock pair).
    pub limit_s: f64,
    /// Start, nanoseconds since the run origin (the wall clock).
    pub start_ns: u64,
    /// Duration, nanoseconds.
    pub dur_ns: u64,
    /// Events the shard processed inside the span.
    pub events: u64,
}

/// Capacity of the per-shard span ring.
const SPAN_CAP: usize = 4096;

/// Stages whose values are wall-clock-only and therefore excluded from the
/// deterministic folded-stacks export (their *existence* depends on worker
/// count: the serial path never waits at a barrier).
pub const WALL_STAGES: &[&str] = &["epoch", "barrier.wait"];

/// The per-shard accumulator. Plain fields, no interior mutability: the
/// owning shard is the only writer, exactly like the engine's event
/// counters, so profiling adds no synchronization to the hot loop.
#[derive(Debug)]
pub struct ShardProfiler {
    on: bool,
    shard: usize,
    origin: Instant,
    stages: BTreeMap<&'static str, StageStats>,
    spans: Ring<ProfSpan>,
    /// Bytes staged toward each destination shard (gossip wire accounting
    /// per link; deterministic).
    link_bytes: BTreeMap<usize, u64>,
    /// Open epoch window: `(epoch, limit_s, start, events_before)`.
    open: Option<(u64, f64, Instant, u64)>,
}

impl ShardProfiler {
    /// A profiler that records nothing (the default for tests and
    /// profiling-off scenarios).
    pub fn disabled() -> Self {
        Self::new(0, false, Instant::now())
    }

    /// A profiler for `shard`, recording when `on` — every call is a branch
    /// on that bool otherwise. `origin` is the run-start instant shared by
    /// every shard, so all spans land on one timeline.
    pub fn new(shard: usize, on: bool, origin: Instant) -> Self {
        Self {
            on,
            shard,
            origin,
            stages: BTreeMap::new(),
            spans: Ring::new(SPAN_CAP),
            link_bytes: BTreeMap::new(),
            open: None,
        }
    }

    /// Whether the profiler records anything.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Account `bytes` staged toward destination shard `dest` (the gossip
    /// bytes-on-wire budget, per link and in aggregate).
    pub fn add_wire(&mut self, dest: usize, bytes: u64) {
        if !self.on {
            return;
        }
        let wire = self.stages.entry("gossip.wire").or_default();
        wire.calls += 1;
        wire.bytes += bytes;
        *self.link_bytes.entry(dest).or_insert(0) += bytes;
    }

    /// Open this shard's compute window for `epoch`.
    pub fn begin_epoch(&mut self, epoch: u64, limit_s: f64, events_before: u64) {
        if !self.on {
            return;
        }
        self.open = Some((epoch, limit_s, Instant::now(), events_before));
    }

    /// Close the window opened by [`Self::begin_epoch`]: adds the elapsed
    /// wall time to the `epoch` stage and records a span.
    pub fn end_epoch(&mut self, events_now: u64) {
        let Some((epoch, limit_s, start, events_before)) = self.open.take() else {
            return;
        };
        let dur_ns = start.elapsed().as_nanos() as u64;
        let start_ns = start.duration_since(self.origin).as_nanos() as u64;
        let e = self.stages.entry("epoch").or_default();
        e.calls += 1;
        e.wall_ns = e.wall_ns.saturating_add(dur_ns);
        self.spans.push(ProfSpan {
            name: "epoch",
            epoch,
            limit_s,
            start_ns,
            dur_ns,
            events: events_now.saturating_sub(events_before),
        });
    }

    /// Record a barrier stall of `dur_ns` that ended *now*, charged to this
    /// shard (see the module docs for why the waiter pays), tagged with the
    /// epoch the shard was waiting to start.
    pub fn record_wait_ns(&mut self, dur_ns: u64, epoch: u64, limit_s: f64) {
        if !self.on {
            return;
        }
        let e = self.stages.entry("barrier.wait").or_default();
        e.calls += 1;
        e.wall_ns = e.wall_ns.saturating_add(dur_ns);
        let now_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(ProfSpan {
            name: "barrier.wait",
            epoch,
            limit_s,
            start_ns: now_ns.saturating_sub(dur_ns),
            dur_ns,
            events: 0,
        });
    }

    /// Snapshot into the owned, serializable per-shard profile. The caller
    /// (the engine) overlays deterministic event counters and queue
    /// high-water marks it owns.
    pub fn to_profile(&self) -> ShardProfile {
        ShardProfile {
            shard: self.shard,
            stages: self
                .stages
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            spans: self.spans.to_vec(),
            spans_dropped: self.spans.dropped(),
            link_bytes: self.link_bytes.clone(),
            queue_hwm: 0,
        }
    }
}

/// One shard's serializable profile.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardProfile {
    /// Shard (site) index — the stable `tid` of the Chrome trace.
    pub shard: usize,
    /// Per-stage accumulators.
    pub stages: BTreeMap<String, StageStats>,
    /// The retained span ring, oldest first.
    pub spans: Vec<ProfSpan>,
    /// Spans evicted from the ring.
    pub spans_dropped: u64,
    /// Gossip bytes staged per destination shard.
    pub link_bytes: BTreeMap<usize, u64>,
    /// Peak depth of the shard's event queue over the run (deterministic).
    pub queue_hwm: u64,
}

/// The merged end-of-run profile: every shard plus the per-site service
/// stages (USS ingest/publish, gossip merge, UMS/FCS refresh, WAL
/// append/replay) aggregated across sites.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunProfile {
    /// Per-shard profiles in site order.
    pub shards: Vec<ShardProfile>,
    /// Service-stage totals across all sites: `calls` from the histogram
    /// counts (deterministic), `wall_ns` from the histogram sums.
    pub services: BTreeMap<String, StageStats>,
    /// Peak cross-shard deliveries pending at any barrier (deterministic).
    pub mailbox_hwm: u64,
}

impl RunProfile {
    /// Render as Chrome trace-event JSON: load the file in `about://tracing`
    /// or <https://ui.perfetto.dev>. One process (`pid` 1), one track per
    /// shard (`tid` = site index — stable across worker counts), epochs and
    /// barrier waits as complete (`"X"`) events with microsecond timestamps
    /// on the shared run timeline.
    pub fn to_chrome_trace(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |s: String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str(&s);
        };
        push(
            "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\
             \"args\":{\"name\":\"aequus-sim\"}}"
                .to_string(),
            &mut first,
        );
        for sp in &self.shards {
            push(
                format!(
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                     \"args\":{{\"name\":\"shard {} (site {})\"}}}}",
                    sp.shard, sp.shard, sp.shard
                ),
                &mut first,
            );
        }
        for sp in &self.shards {
            for s in &sp.spans {
                push(
                    format!(
                        "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                         \"pid\":1,\"tid\":{},\"args\":{{\"epoch\":{},\
                         \"limit_s\":{:?},\"events\":{}}}}}",
                        json_escape(s.name),
                        s.start_ns / 1_000,
                        s.dur_ns / 1_000,
                        sp.shard,
                        s.epoch,
                        s.limit_s,
                        s.events
                    ),
                    &mut first,
                );
            }
        }
        out.push_str("]}");
        out
    }

    /// Render the deterministic half as folded stacks (`stack value` lines,
    /// the format flamegraph tooling consumes). Only schedule-derived values
    /// appear — call counts and wire bytes, never wall time and never the
    /// [`WALL_STAGES`] — so the output is byte-identical across worker
    /// counts on the same seed; the determinism suite gates exactly that.
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for sp in &self.shards {
            for (stage, st) in &sp.stages {
                if WALL_STAGES.contains(&stage.as_str()) {
                    continue;
                }
                out.push_str(&format!(
                    "aequus;shard{};{} {}\n",
                    sp.shard, stage, st.calls
                ));
                if st.bytes > 0 {
                    out.push_str(&format!(
                        "aequus;shard{};{};bytes {}\n",
                        sp.shard, stage, st.bytes
                    ));
                }
            }
            out.push_str(&format!(
                "aequus;shard{};queue.hwm {}\n",
                sp.shard, sp.queue_hwm
            ));
        }
        for (stage, st) in &self.services {
            out.push_str(&format!("aequus;services;{} {}\n", stage, st.calls));
        }
        out.push_str(&format!("aequus;engine;mailbox.hwm {}\n", self.mailbox_hwm));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::JsonValue;

    fn full_profiler() -> ShardProfiler {
        ShardProfiler::new(3, true, Instant::now())
    }

    #[test]
    fn off_mode_records_nothing() {
        let mut p = ShardProfiler::disabled();
        p.add_wire(1, 100);
        p.begin_epoch(0, 0.0, 0);
        p.end_epoch(5);
        p.record_wait_ns(10, 0, 0.0);
        let prof = p.to_profile();
        assert!(prof.stages.is_empty() && prof.spans.is_empty());
        assert!(prof.link_bytes.is_empty());
    }

    #[test]
    fn records_epoch_spans_with_event_deltas() {
        let mut p = full_profiler();
        p.begin_epoch(0, 0.0, 0);
        p.end_epoch(4);
        p.begin_epoch(1, 5.0, 4);
        p.end_epoch(9);
        let prof = p.to_profile();
        assert_eq!(prof.spans.len(), 2);
        assert_eq!(prof.spans[0].events, 4);
        assert_eq!(prof.spans[1].events, 5);
        assert_eq!(prof.spans[1].epoch, 1);
        assert_eq!(prof.stages["epoch"].calls, 2);
        assert!(prof.spans[1].start_ns >= prof.spans[0].start_ns, "monotone");
    }

    #[test]
    fn span_ring_drops_oldest_and_counts_drops() {
        let mut p = full_profiler();
        for e in 0..SPAN_CAP as u64 + 2 {
            p.begin_epoch(e, e as f64, 0);
            p.end_epoch(0);
        }
        let prof = p.to_profile();
        assert_eq!(prof.spans.len(), SPAN_CAP);
        assert_eq!(prof.spans_dropped, 2);
        assert_eq!(prof.spans[0].epoch, 2, "oldest evicted first");
    }

    #[test]
    fn wait_is_charged_to_the_waiting_shard() {
        let mut p = full_profiler();
        p.record_wait_ns(1_000, 7, 35.0);
        let prof = p.to_profile();
        assert_eq!(prof.stages["barrier.wait"].wall_ns, 1_000);
        assert_eq!(prof.spans[0].name, "barrier.wait");
        assert_eq!(prof.spans[0].epoch, 7);
    }

    fn sample_run_profile() -> RunProfile {
        let mut p = full_profiler();
        p.add_wire(1, 128);
        p.begin_epoch(0, 0.0, 0);
        p.end_epoch(2);
        p.record_wait_ns(500, 1, 5.0);
        let mut shard = p.to_profile();
        shard.queue_hwm = 9;
        shard.stages.insert(
            "events.ticks".to_string(),
            StageStats {
                calls: 11,
                wall_ns: 0,
                bytes: 0,
            },
        );
        let mut services = BTreeMap::new();
        services.insert(
            "uss.ingest".to_string(),
            StageStats {
                calls: 40,
                wall_ns: 9_000,
                bytes: 0,
            },
        );
        RunProfile {
            shards: vec![shard],
            services,
            mailbox_hwm: 6,
        }
    }

    #[test]
    fn chrome_trace_has_tracks_and_complete_events() {
        let trace = sample_run_profile().to_chrome_trace();
        assert!(trace.contains("\"traceEvents\""));
        assert!(trace.contains("\"ph\":\"M\""));
        assert!(trace.contains("\"ph\":\"X\""));
        assert!(trace.contains("\"tid\":3"));
        assert!(trace.contains("shard 3 (site 3)"));
        // Valid JSON by the crate's own generic reader.
        let v = JsonValue::parse(&trace).expect("valid trace JSON");
        let events = v.get("traceEvents").unwrap().as_array().unwrap();
        assert!(events.len() >= 4);
    }

    #[test]
    fn folded_excludes_wall_stages_and_includes_bytes() {
        let folded = sample_run_profile().to_folded();
        assert!(folded.contains("aequus;shard3;gossip.wire 1\n"));
        assert!(folded.contains("aequus;shard3;gossip.wire;bytes 128\n"));
        assert!(folded.contains("aequus;shard3;events.ticks 11\n"));
        assert!(folded.contains("aequus;shard3;queue.hwm 9\n"));
        assert!(folded.contains("aequus;services;uss.ingest 40\n"));
        assert!(folded.contains("aequus;engine;mailbox.hwm 6\n"));
        assert!(!folded.contains("barrier.wait"), "wall stages excluded");
        assert!(!folded.contains(";epoch "), "wall stages excluded");
    }
}
