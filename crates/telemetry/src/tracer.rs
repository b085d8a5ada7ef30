//! The empirical pipeline-delay tracer (§IV-A-2).
//!
//! The paper enumerates the delay chain from job completion to fairshare
//! impact: (I) RMS→USS reporting delay, (II) USS/UMS/FCS cache time,
//! (III) libaequus cache time, (IV) RMS re-prioritization interval. The
//! configured values are in `ServiceTimings`; this tracer measures what the
//! pipeline *actually* does: a configurable sample of usage records is
//! tagged when the RMS reports them, and each stage marks, in simulated
//! time, when the record's effect first becomes visible there. Per-stage
//! deltas and the end-to-end delay land in registry histograms
//! (`aequus_tracer_*`), so a run's empirical delay distribution can be
//! compared against `ServiceTimings::worst_case_pipeline_s()`.
//!
//! Stage semantics (all in simulated seconds):
//!
//! * **report** (`uss.ingest` in [`crate::stage`]) — `report_delay_s`: RMS report → USS ingestion.
//! * **publish** (`uss.publish`) — ingestion → the record's usage appearing in a published
//!   cross-site summary (waits for the record's histogram slot to close).
//!   This stage is off the local-visibility path and is reported
//!   separately.
//! * **ums** (`ums.refresh`) — ingestion → the first UMS refresh that re-reads the user
//!   (every ingested record marks its user dirty in the USS, so the next
//!   actual refresh always covers it).
//! * **fcs** (`fcs.refresh`) — UMS visibility → the first FCS refresh thereafter (the FCS
//!   recomputes from the whole UMS cache).
//! * **lib** (`lib.query`) — FCS visibility → the first libaequus query *served with a
//!   value fetched after* that FCS refresh (a cache hit on a stale entry
//!   does not count; this is the §III-A cache-TTL delay plus the query
//!   cadence).
//! * **end-to-end** — RMS report → lib visibility; the measured counterpart
//!   of `worst_case_pipeline_s()` (which likewise excludes stage IV).

use crate::registry::{Counter, Registry};
use crate::stage::{delay_histogram, TRACED};
use crate::Histogram;
use std::collections::{BTreeMap, VecDeque};

/// Every Nth reported record is sampled (the first always is).
const TRACK_EVERY: u64 = 8;
/// Upper bound on concurrently tracked records; the oldest is evicted
/// beyond this (counted in `aequus_tracer_evicted_total`).
const MAX_ACTIVE: usize = 4096;

#[derive(Debug)]
struct TraceRecord {
    user: String,
    reported_s: f64,
    /// Histogram slot the record's charge ends in (set at ingestion); the
    /// publish stage requires this slot to have closed.
    end_slot: Option<u64>,
    ingested_s: Option<f64>,
    published_s: Option<f64>,
    ums_s: Option<f64>,
    fcs_s: Option<f64>,
    lib_s: Option<f64>,
}

impl TraceRecord {
    fn finished(&self) -> bool {
        self.lib_s.is_some() && self.published_s.is_some()
    }
}

/// Sim-time pipeline tracer; lives behind a mutex inside
/// [`Telemetry`](crate::Telemetry) and is driven through the `trace_*`
/// methods there.
#[derive(Debug)]
pub struct PipelineTracer {
    seen: u64,
    active: BTreeMap<u64, TraceRecord>,
    order: VecDeque<u64>,
    h_report: Histogram,
    h_publish: Histogram,
    h_ums: Histogram,
    h_fcs: Histogram,
    h_lib: Histogram,
    h_e2e: Histogram,
    c_sampled: Counter,
    c_completed: Counter,
    c_evicted: Counter,
}

impl PipelineTracer {
    /// Create a tracer registering its metrics in `registry`.
    pub fn new(registry: &Registry) -> Self {
        // A stage without a delay histogram would record into a detached one.
        let delay = |stage| {
            delay_histogram(stage).map_or_else(Histogram::default, |h| registry.histogram(h))
        };
        let [h_report, h_publish, h_ums, h_fcs, h_lib] = TRACED.map(delay);
        Self {
            seen: 0,
            active: BTreeMap::new(),
            order: VecDeque::new(),
            h_report,
            h_publish,
            h_ums,
            h_fcs,
            h_lib,
            h_e2e: registry.histogram("aequus_tracer_end_to_end_s"),
            c_sampled: registry.counter("aequus_tracer_sampled_total"),
            c_completed: registry.counter("aequus_tracer_completed_total"),
            c_evicted: registry.counter("aequus_tracer_evicted_total"),
        }
    }

    /// Number of records currently tracked.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Stage 0: the RMS reports a completed job's usage at `now_s`.
    /// Returns whether the record was sampled into the tracer.
    pub fn on_report(&mut self, job: u64, user: &str, now_s: f64) -> bool {
        self.seen += 1;
        if !(self.seen - 1).is_multiple_of(TRACK_EVERY) {
            return false;
        }
        self.c_sampled.inc();
        if self.active.len() >= MAX_ACTIVE {
            self.evict_oldest();
        }
        self.active.insert(
            job,
            TraceRecord {
                user: user.to_string(),
                reported_s: now_s,
                end_slot: None,
                ingested_s: None,
                published_s: None,
                ums_s: None,
                fcs_s: None,
                lib_s: None,
            },
        );
        self.order.push_back(job);
        true
    }

    fn evict_oldest(&mut self) {
        while let Some(job) = self.order.pop_front() {
            if let Some(rec) = self.active.remove(&job) {
                if rec.lib_s.is_none() {
                    self.c_evicted.inc();
                }
                return;
            }
        }
    }

    /// Stage I complete: the record reached the USS.
    pub fn on_ingest(&mut self, job: u64, end_slot: u64, now_s: f64) {
        if let Some(rec) = self.active.get_mut(&job) {
            if rec.ingested_s.is_none() {
                rec.ingested_s = Some(now_s);
                rec.end_slot = Some(end_slot);
                self.h_report.record(now_s - rec.reported_s);
            }
        }
    }

    /// Stage II-a: a summary covering slots `< current_slot` was published
    /// for `published_users`, which arrive in ascending order (a summary's
    /// user map yields them so) and are binary-searched per in-flight
    /// record — a publish costs `O(active · log users)`, not their product.
    pub fn on_publish(&mut self, published_users: &[&str], current_slot: u64, now_s: f64) {
        let mut done: Vec<u64> = Vec::new();
        for (&job, rec) in self.active.iter_mut() {
            if rec.published_s.is_some() {
                continue;
            }
            let (Some(ingested), Some(end_slot)) = (rec.ingested_s, rec.end_slot) else {
                continue;
            };
            let published = || published_users.binary_search(&rec.user.as_str()).is_ok();
            if end_slot < current_slot && published() {
                rec.published_s = Some(now_s);
                self.h_publish.record(now_s - ingested);
                if rec.finished() {
                    done.push(job);
                }
            }
        }
        self.finish(done);
    }

    /// Stage II-b: a UMS refresh ran. Every ingested record's user was
    /// marked dirty at ingestion, so all pending ingested records become
    /// visible here.
    pub fn on_ums_refresh(&mut self, now_s: f64) {
        for rec in self.active.values_mut() {
            if rec.ums_s.is_none() {
                if let Some(ingested) = rec.ingested_s {
                    rec.ums_s = Some(now_s);
                    self.h_ums.record(now_s - ingested);
                }
            }
        }
    }

    /// Stage II-c: an FCS refresh ran, recomputing from the current UMS
    /// cache — every UMS-visible record becomes FCS-visible.
    pub fn on_fcs_refresh(&mut self, now_s: f64) {
        for rec in self.active.values_mut() {
            if rec.fcs_s.is_none() {
                if let Some(ums) = rec.ums_s {
                    rec.fcs_s = Some(now_s);
                    self.h_fcs.record(now_s - ums);
                }
            }
        }
    }

    /// Stage III: a libaequus query for `user` was served with a value
    /// fetched from the FCS at `served_fetch_s`. Only fetches at or after
    /// the record's FCS visibility complete the chain.
    pub fn on_lib_query(&mut self, user: &str, served_fetch_s: f64, now_s: f64) {
        let mut done: Vec<u64> = Vec::new();
        for (&job, rec) in self.active.iter_mut() {
            if rec.lib_s.is_some() || rec.user != user {
                continue;
            }
            let Some(fcs) = rec.fcs_s else { continue };
            if served_fetch_s >= fcs {
                rec.lib_s = Some(now_s);
                self.h_lib.record(now_s - fcs);
                self.h_e2e.record(now_s - rec.reported_s);
                self.c_completed.inc();
                if rec.finished() {
                    done.push(job);
                }
            }
        }
        self.finish(done);
    }

    fn finish(&mut self, jobs: Vec<u64>) {
        for job in jobs {
            self.active.remove(&job);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (PipelineTracer, Registry) {
        let r = Registry::new();
        (PipelineTracer::new(&r), r)
    }

    #[test]
    fn full_chain_records_every_stage() {
        let (mut t, r) = setup();
        assert!(t.on_report(1, "alice", 100.0));
        t.on_ingest(1, 3, 110.0); // report delay 10
        t.on_ums_refresh(150.0); // ums delay 40
        t.on_fcs_refresh(150.0); // fcs delay 0 (same tick)
                                 // A stale cache hit (fetched before FCS visibility) must not count.
        t.on_lib_query("alice", 140.0, 160.0);
        assert_eq!(t.active_count(), 1);
        // A fresh fetch completes the chain.
        t.on_lib_query("alice", 170.0, 170.0);
        t.on_publish(&["alice"], 4, 200.0); // publish delay 90
        assert_eq!(t.active_count(), 0, "finished trace removed");
        let s = r.snapshot();
        assert_eq!(s.histograms["aequus_tracer_report_delay_s"].count, 1);
        assert_eq!(s.histograms["aequus_tracer_ums_delay_s"].count, 1);
        assert_eq!(s.histograms["aequus_tracer_fcs_delay_s"].count, 1);
        assert_eq!(s.histograms["aequus_tracer_lib_delay_s"].count, 1);
        assert_eq!(s.histograms["aequus_tracer_publish_delay_s"].count, 1);
        let e2e = s.histograms["aequus_tracer_end_to_end_s"];
        assert_eq!(e2e.count, 1);
        assert_eq!(e2e.max, 70.0, "end-to-end = lib query − report");
        assert_eq!(s.counters["aequus_tracer_completed_total"], 1);
    }

    #[test]
    fn publish_waits_for_slot_close() {
        let (mut t, _r) = setup();
        t.on_report(1, "a", 0.0);
        t.on_ingest(1, 5, 10.0);
        t.on_publish(&["a"], 5, 20.0); // slot 5 still open
        t.on_publish(&["b"], 6, 30.0); // wrong user
        assert_eq!(t.active_count(), 1);
        t.on_publish(&["a"], 6, 40.0);
        // Published but lib chain incomplete: still tracked.
        assert_eq!(t.active_count(), 1);
    }

    #[test]
    fn sampling_takes_every_nth() {
        let r = Registry::new();
        let mut t = PipelineTracer::new(&r);
        let sampled = (0..4 * TRACK_EVERY)
            .filter(|&i| t.on_report(i, "u", 0.0))
            .count();
        assert_eq!(sampled, 4);
        assert_eq!(t.active_count(), 4);
    }

    #[test]
    fn eviction_bounds_active_set() {
        let r = Registry::new();
        let mut t = PipelineTracer::new(&r);
        for i in 0..(MAX_ACTIVE as u64 + 12) * TRACK_EVERY {
            t.on_report(i, "u", i as f64);
        }
        assert_eq!(t.active_count(), MAX_ACTIVE);
        assert_eq!(r.snapshot().counters["aequus_tracer_evicted_total"], 12);
    }

    #[test]
    fn ums_before_ingest_is_ignored() {
        let (mut t, r) = setup();
        t.on_report(1, "a", 0.0);
        t.on_ums_refresh(5.0); // record not yet ingested
        t.on_ingest(1, 0, 10.0);
        t.on_ums_refresh(20.0);
        let s = r.snapshot();
        assert_eq!(s.histograms["aequus_tracer_ums_delay_s"].count, 1);
        assert_eq!(s.histograms["aequus_tracer_ums_delay_s"].max, 10.0);
    }

    /// The publish stage looks each in-flight record's user up in the
    /// sorted published set; on a wide summary (1,200 users, 150 records in
    /// flight) it must mark exactly the records a linear scan marks.
    #[test]
    fn publish_over_a_wide_summary_matches_the_linear_scan() {
        let users: Vec<String> = (0..1200).map(|i| format!("u{i:05}")).collect();
        // Two of every three users are in the summary, in map order.
        let published: Vec<&str> = (users.iter().enumerate())
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, u)| u.as_str())
            .collect();
        assert!(published.windows(2).all(|w| w[0] < w[1]));
        let (mut t, r) = setup();
        let want = Registry::new().histogram("linear_scan");
        let mut jobs = 0;
        for (i, user) in users.iter().enumerate().step_by(7) {
            let job = i as u64 * TRACK_EVERY;
            // Only every TRACK_EVERY-th report is tracked: feed the gaps.
            while t.seen % TRACK_EVERY != 0 {
                t.on_report(u64::MAX - t.seen, "filler", 0.0);
            }
            assert!(t.on_report(job, user, i as f64));
            let end_slot = (i % 5) as u64;
            t.on_ingest(job, end_slot, i as f64 + 10.0);
            if end_slot < 3 && published.contains(&user.as_str()) {
                want.record(5000.0 - (i as f64 + 10.0));
            }
            jobs += 1;
        }
        assert!(jobs >= 100 && t.active_count() == jobs);
        t.on_publish(&published, 3, 5000.0);
        let got = r.snapshot().histograms["aequus_tracer_publish_delay_s"];
        assert!(got.count >= 40, "{got:?}");
        assert_eq!(got, want.snapshot());
    }
}
