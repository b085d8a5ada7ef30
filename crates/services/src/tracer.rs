//! The empirical pipeline-delay tracer (§IV-A-2).
//!
//! The paper enumerates the delay chain from job completion to fairshare
//! impact: (I) RMS→USS reporting delay, (II) USS/UMS/FCS cache time,
//! (III) libaequus cache time, (IV) RMS re-prioritization interval. The
//! configured values are in `ServiceTimings`; this tracer measures what the
//! pipeline *actually* does: a sample of a site's usage records is tagged
//! when the RMS reports them, and each stage marks, in simulated time, when
//! the record's effect first becomes visible there. Per-stage deltas and
//! the end-to-end delay land in the site's registry histograms
//! (`aequus_tracer_*`), so a run's empirical delay distribution can be
//! compared against `ServiceTimings::worst_case_pipeline_s()`.
//!
//! A record is keyed by its job until ingestion, then by the id the site's
//! user table gave its user — the id every later stage names users by.
//!
//! Stage semantics (all in simulated seconds):
//!
//! * **report** (`uss.ingest` in [`aequus_telemetry::stage`]) — `report_delay_s`: RMS report → USS ingestion.
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

use aequus_core::UserId;
use aequus_telemetry::stage::{delay_histogram, TRACED};
use aequus_telemetry::{Histogram, Snapshot, Telemetry};
use std::collections::{BTreeMap, VecDeque};

/// Every Nth reported record is sampled (the first always is).
const TRACK_EVERY: u64 = 8;
/// Upper bound on concurrently tracked records; the oldest is evicted
/// beyond this (counted in `aequus_tracer_evicted_total`).
const MAX_ACTIVE: usize = 4096;

/// A traced record's arrival at the USS.
#[derive(Debug, Clone, Copy)]
struct Ingested {
    /// The record's user, in the site's user table.
    user: UserId,
    /// Histogram slot the record's charge ends in; the publish stage
    /// requires this slot to have closed.
    end_slot: u64,
    at_s: f64,
}

#[derive(Debug)]
struct TraceRecord {
    reported_s: f64,
    ingested: Option<Ingested>,
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

/// A site's sim-time pipeline tracer, driven by the site's stages.
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
    /// Records sampled, completed at the lib stage, and evicted unfinished.
    sampled: u64,
    completed: u64,
    evicted: u64,
}

impl PipelineTracer {
    /// Create a tracer registering its metrics in `telemetry`'s registry.
    pub fn new(telemetry: &Telemetry) -> Self {
        // A stage without a delay histogram would record into a detached one.
        let delay = |stage| {
            delay_histogram(stage).map_or_else(Histogram::default, |h| telemetry.histogram(h))
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
            h_e2e: telemetry.histogram("aequus_tracer_end_to_end_s"),
            sampled: 0,
            completed: 0,
            evicted: 0,
        }
    }

    /// Write the sampled, completed and evicted counts into `snap`.
    pub fn counts_into(&self, snap: &mut Snapshot) {
        snap.add_counts([
            ("aequus_tracer_sampled_total", self.sampled),
            ("aequus_tracer_completed_total", self.completed),
            ("aequus_tracer_evicted_total", self.evicted),
        ]);
    }

    /// Whether no record is in flight — every stage but the report is then
    /// a no-op, and a caller may skip building its arguments.
    pub fn is_idle(&self) -> bool {
        self.active.is_empty()
    }

    /// Stage 0: the RMS reports job `job`'s usage at `now_s`. Returns
    /// whether the record was sampled into the tracer.
    pub fn on_report(&mut self, job: u64, now_s: f64) -> bool {
        self.seen += 1;
        if !(self.seen - 1).is_multiple_of(TRACK_EVERY) {
            return false;
        }
        self.sampled += 1;
        if self.active.len() >= MAX_ACTIVE {
            self.evict_oldest();
        }
        self.active.insert(
            job,
            TraceRecord {
                reported_s: now_s,
                ingested: None,
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
                    self.evicted += 1;
                }
                return;
            }
        }
    }

    /// Stage I complete: job `job`'s record reached the USS, which interned
    /// its user as `user`; its charge ends in histogram slot `end_slot`.
    pub fn on_ingest(&mut self, job: u64, user: UserId, end_slot: u64, now_s: f64) {
        if let Some(rec) = self.active.get_mut(&job) {
            if rec.ingested.is_none() {
                rec.ingested = Some(Ingested {
                    user,
                    end_slot,
                    at_s: now_s,
                });
                self.h_report.record(now_s - rec.reported_s);
            }
        }
    }

    /// Stage II-a: a summary covering slots `< current_slot` was published
    /// for `published`, the ids of its own section in ascending order,
    /// binary-searched per in-flight record — a publish costs
    /// `O(active · log users)`, not their product.
    pub fn on_publish(&mut self, published: &[UserId], current_slot: u64, now_s: f64) {
        let mut done: Vec<u64> = Vec::new();
        for (&job, rec) in self.active.iter_mut() {
            let Some(ingested) = rec.ingested else {
                continue;
            };
            if rec.published_s.is_some() || ingested.end_slot >= current_slot {
                continue;
            }
            if published.binary_search(&ingested.user).is_ok() {
                rec.published_s = Some(now_s);
                self.h_publish.record(now_s - ingested.at_s);
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
            if let (None, Some(ingested)) = (rec.ums_s, rec.ingested) {
                rec.ums_s = Some(now_s);
                self.h_ums.record(now_s - ingested.at_s);
            }
        }
    }

    /// Stage II-c: an FCS refresh ran, recomputing from the current UMS
    /// cache — every UMS-visible record becomes FCS-visible.
    pub fn on_fcs_refresh(&mut self, now_s: f64) {
        for rec in self.active.values_mut() {
            if let (None, Some(ums)) = (rec.fcs_s, rec.ums_s) {
                rec.fcs_s = Some(now_s);
                self.h_fcs.record(now_s - ums);
            }
        }
    }

    /// Stage III: a libaequus query for `user`, whom a leaf of the FCS's
    /// current tree accounts for, was served with a value fetched from the
    /// FCS at `served_fetch_s`. Only fetches at or after the record's FCS
    /// visibility complete the chain.
    pub fn on_lib_query(&mut self, user: UserId, served_fetch_s: f64, now_s: f64) {
        let mut done: Vec<u64> = Vec::new();
        for (&job, rec) in self.active.iter_mut() {
            if rec.lib_s.is_some() || rec.ingested.is_none_or(|i| i.user != user) {
                continue;
            }
            let Some(fcs) = rec.fcs_s else { continue };
            if served_fetch_s >= fcs {
                rec.lib_s = Some(now_s);
                self.h_lib.record(now_s - fcs);
                self.h_e2e.record(now_s - rec.reported_s);
                self.completed += 1;
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
    use aequus_telemetry::Registry;

    const ALICE: UserId = UserId(0);
    const BOB: UserId = UserId(1);

    fn setup() -> (PipelineTracer, Telemetry) {
        let t = Telemetry::enabled();
        (PipelineTracer::new(&t), t)
    }

    fn active_count(t: &PipelineTracer) -> usize {
        t.active.len()
    }

    #[test]
    fn full_chain_records_every_stage() {
        let (mut t, tel) = setup();
        assert!(t.on_report(1, 100.0));
        t.on_ingest(1, ALICE, 3, 110.0); // report delay 10
        t.on_ums_refresh(150.0); // ums delay 40
        t.on_fcs_refresh(150.0); // fcs delay 0 (same tick)
                                 // A stale cache hit (fetched before FCS visibility) must not count.
        t.on_lib_query(ALICE, 140.0, 160.0);
        assert_eq!(active_count(&t), 1);
        // A fresh fetch completes the chain.
        t.on_lib_query(ALICE, 170.0, 170.0);
        t.on_publish(&[ALICE], 4, 200.0); // publish delay 90
        assert!(t.is_idle(), "finished trace removed");
        let s = tel.snapshot().unwrap();
        assert_eq!(s.histograms["aequus_tracer_report_delay_s"].count, 1);
        assert_eq!(s.histograms["aequus_tracer_ums_delay_s"].count, 1);
        assert_eq!(s.histograms["aequus_tracer_fcs_delay_s"].count, 1);
        assert_eq!(s.histograms["aequus_tracer_lib_delay_s"].count, 1);
        assert_eq!(s.histograms["aequus_tracer_publish_delay_s"].count, 1);
        let e2e = s.histograms["aequus_tracer_end_to_end_s"];
        assert_eq!(e2e.count, 1);
        assert_eq!(e2e.max, 70.0, "end-to-end = lib query − report");
        assert_eq!(t.completed, 1);
    }

    #[test]
    fn publish_waits_for_slot_close() {
        let (mut t, _tel) = setup();
        t.on_report(1, 0.0);
        t.on_ingest(1, ALICE, 5, 10.0);
        t.on_publish(&[ALICE], 5, 20.0); // slot 5 still open
        t.on_publish(&[BOB], 6, 30.0); // wrong user
        assert_eq!(active_count(&t), 1);
        t.on_publish(&[ALICE], 6, 40.0);
        // Published but lib chain incomplete: still tracked.
        assert_eq!(active_count(&t), 1);
    }

    #[test]
    fn sampling_takes_every_nth() {
        let (mut t, _tel) = setup();
        let sampled = (0..4 * TRACK_EVERY)
            .filter(|&i| t.on_report(i, 0.0))
            .count();
        assert_eq!(sampled, 4);
        assert_eq!(active_count(&t), 4);
    }

    #[test]
    fn eviction_bounds_active_set() {
        let (mut t, _tel) = setup();
        for i in 0..(MAX_ACTIVE as u64 + 12) * TRACK_EVERY {
            t.on_report(i, i as f64);
        }
        assert_eq!(active_count(&t), MAX_ACTIVE);
        assert_eq!((t.sampled, t.evicted), (MAX_ACTIVE as u64 + 12, 12));
    }

    #[test]
    fn ums_before_ingest_is_ignored() {
        let (mut t, tel) = setup();
        t.on_report(1, 0.0);
        t.on_ums_refresh(5.0); // record not yet ingested
        t.on_ingest(1, ALICE, 0, 10.0);
        t.on_ums_refresh(20.0);
        let s = tel.snapshot().unwrap();
        assert_eq!(s.histograms["aequus_tracer_ums_delay_s"].count, 1);
        assert_eq!(s.histograms["aequus_tracer_ums_delay_s"].max, 10.0);
    }

    /// A query names a user by id; a record not yet ingested has none and
    /// is never completed by one.
    #[test]
    fn a_query_completes_only_its_own_users_records() {
        let (mut t, _tel) = setup();
        t.on_report(1, 0.0);
        t.on_ingest(1, ALICE, 0, 10.0);
        t.on_ums_refresh(20.0);
        t.on_fcs_refresh(20.0);
        t.on_lib_query(BOB, 30.0, 30.0);
        assert_eq!(t.completed, 0, "another user's query");
        t.on_lib_query(ALICE, 30.0, 30.0);
        assert_eq!(t.completed, 1);
    }

    /// The publish stage looks each in-flight record's user up in the
    /// sorted published set; on a wide summary (1,200 users, 150 records in
    /// flight) it must mark exactly the records a linear scan marks.
    #[test]
    fn publish_over_a_wide_summary_matches_the_linear_scan() {
        let users: Vec<UserId> = (0..1200).map(UserId).collect();
        // Two of every three users are in the summary, in id order.
        let published: Vec<UserId> = (users.iter().enumerate())
            .filter(|(i, _)| i % 3 != 0)
            .map(|(_, &u)| u)
            .collect();
        let (mut t, tel) = setup();
        let want = Registry::new().histogram("linear_scan");
        let mut jobs = 0;
        for (i, &user) in users.iter().enumerate().step_by(7) {
            let job = i as u64 * TRACK_EVERY;
            // Only every TRACK_EVERY-th report is tracked: feed the gaps.
            while t.seen % TRACK_EVERY != 0 {
                t.on_report(u64::MAX - t.seen, 0.0);
            }
            assert!(t.on_report(job, i as f64));
            let end_slot = (i % 5) as u64;
            t.on_ingest(job, user, end_slot, i as f64 + 10.0);
            if end_slot < 3 && published.contains(&user) {
                want.record(5000.0 - (i as f64 + 10.0));
            }
            jobs += 1;
        }
        assert!(jobs >= 100 && active_count(&t) == jobs);
        t.on_publish(&published, 3, 5000.0);
        let got = tel.snapshot().unwrap().histograms["aequus_tracer_publish_delay_s"];
        assert!(got.count >= 40, "{got:?}");
        assert_eq!(got, want.snapshot());
    }
}
