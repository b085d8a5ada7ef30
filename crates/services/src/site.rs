//! A full per-site Aequus installation: one instance of each service plus a
//! `libaequus` client, wired together as in Figure 2 of the paper. "Each of
//! the simulated clusters hosts its own Aequus installation, and they
//! communicate only by exchanging data through the USS services."

use crate::fcs::Fcs;
use crate::irs::Irs;
use crate::libaequus::LibAequus;
use crate::message::UssMessage;
use crate::participation::ParticipationMode;
use crate::pds::Pds;
use crate::reliability::{RetryPolicy, StalePolicy};
use crate::timings::ServiceTimings;
use crate::tracer::PipelineTracer;
use crate::ums::Ums;
use crate::uss::Uss;
use aequus_core::fairshare::FairshareConfig;
use aequus_core::policy::PolicyTree;
use aequus_core::projection::ProjectionKind;
use aequus_core::usage::UsageRecord;
use aequus_core::{Explanation, GridUser, SiteId, SystemUser, UserId, UserTable};
use aequus_store::{MemStorage, SiteStore, StoreConfig, StoreStats, WalRecord};
use aequus_telemetry::span::STORE_CAP;
use aequus_telemetry::{Ring, Snapshot, Telemetry, TraceCtx};
use std::collections::VecDeque;
use std::sync::Arc;

/// The provenance of one served decision, captured by a traced site at the
/// serve that closes a pipeline trace.
#[derive(Clone, Debug, PartialEq)]
pub struct Provenance {
    /// Site time the decision was served at.
    pub t_s: f64,
    /// The trace whose pipeline delivered the inputs.
    pub trace_id: u64,
    /// The fairshare factor the site handed out.
    pub served: f64,
    /// Every component of the decision; [`Explanation::replay`] reproduces
    /// `served` bit for bit.
    pub explanation: Explanation,
}

/// One site's complete Aequus stack.
#[derive(Debug)]
pub struct AequusSite {
    id: SiteId,
    timings: ServiceTimings,
    /// Policy Distribution Service.
    pub pds: Pds,
    /// Usage Statistics Service.
    pub uss: Uss,
    /// Usage Monitoring Service.
    pub ums: Ums,
    /// Fairshare Calculation Service.
    pub fcs: Fcs,
    /// Identity Resolution Service.
    pub irs: Irs,
    /// The client library the local RMS links against.
    pub lib: LibAequus,
    /// Usage reports in flight from the RMS to the USS (reporting delay),
    /// each carrying the causal trace context of its `rms.report` root span
    /// when tracing is on.
    pending_reports: VecDeque<(f64, UsageRecord, Option<TraceCtx>)>,
    last_publish_s: f64,
    /// Trace context of the latest traced UMS refresh, consumed by the next
    /// FCS refresh (the two run on independent cadences).
    refresh_trace: Option<TraceCtx>,
    /// Trace context of the latest traced FCS refresh, consumed by the
    /// first fairshare query served from it (`lib.query` leaf span plus
    /// decision-provenance capture).
    serving_trace: Option<TraceCtx>,
    /// Site-wide telemetry domain (disabled by default).
    telemetry: Telemetry,
    /// The decisions captured while `telemetry` is traced, the last
    /// `STORE_CAP` of them; `None` otherwise.
    provenance: Option<Box<Ring<Provenance>>>,
    /// The §IV-A-2 pipeline-delay tracer, recording into `telemetry` while
    /// it is enabled. A crash leaves it be: it times the pipeline from
    /// outside, as the RMS-side spool does.
    tracer: Option<PipelineTracer>,
    /// Durable per-site store (WAL + checkpoints), when enabled. The
    /// backing [`MemStorage`] plays the disk: it survives a simulated
    /// crash inside the store even though the services' state is wiped.
    store: Option<SiteStore>,
    /// Store stats accumulated over previous incarnations (pre-crash).
    store_stats_base: StoreStats,
    /// Deterministic salt stream for simulated torn writes at crashes.
    store_salt: u64,
    /// Last checkpoint cut time.
    last_checkpoint_s: f64,
}

impl AequusSite {
    /// Build a site installation. The site's one user table is built over
    /// the user base of `policy`'s layout — shared, like the layout, with
    /// every other site built from a clone of that policy.
    pub fn new(
        id: SiteId,
        policy: PolicyTree,
        config: FairshareConfig,
        projection: ProjectionKind,
        timings: ServiceTimings,
        mode: ParticipationMode,
        usage_slot_s: f64,
    ) -> Self {
        let decay = config.decay;
        Self {
            id,
            uss: Uss::with_users(
                id,
                mode,
                usage_slot_s,
                UserTable::new(policy.layout().users().clone()),
            ),
            pds: Pds::new(policy),
            ums: Ums::new(timings.ums_refresh_interval_s, decay),
            fcs: Fcs::new(config, projection, timings.fcs_refresh_interval_s),
            irs: Irs::new(),
            lib: LibAequus::new(timings.lib_cache_ttl_s, timings.lib_identity_ttl_s),
            pending_reports: VecDeque::new(),
            last_publish_s: f64::NEG_INFINITY,
            refresh_trace: None,
            serving_trace: None,
            timings,
            telemetry: Telemetry::disabled(),
            provenance: None,
            tracer: None,
            store: None,
            store_stats_base: StoreStats::default(),
            store_salt: 0,
            last_checkpoint_s: f64::NEG_INFINITY,
        }
    }

    /// Attach a durable store over a fresh in-memory disk. Once enabled,
    /// ingested usage records, published sequence numbers, and absorbed peer
    /// summaries are journaled to the WAL; checkpoints are cut on the
    /// configured cadence; and a crash/recover cycle replays the store
    /// *before* falling back to anti-entropy catch-up for the delta.
    /// `seed` decorrelates the simulated torn-write junk across sites.
    pub fn enable_store(&mut self, cfg: StoreConfig, seed: u64) {
        let (mut store, _recovered) = SiteStore::open(MemStorage::new(), cfg);
        store.set_telemetry(&self.telemetry);
        self.store = Some(store);
        self.store_stats_base = StoreStats::default();
        self.store_salt = seed ^ (u64::from(self.id.0) << 32);
        self.last_checkpoint_s = f64::NEG_INFINITY;
    }

    /// Cumulative store health counters across all incarnations (crashes
    /// re-open the store over the surviving disk), when enabled.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store
            .as_ref()
            .map(|s| StoreStats::across_restart(self.store_stats_base, s.stats()))
    }

    /// Journal one record. The record is built only when a store is
    /// attached: a store-less site pays no clone.
    fn journal(&mut self, rec: impl FnOnce() -> WalRecord) {
        if let Some(store) = &mut self.store {
            store.append(&rec());
        }
    }

    /// Wire the site's timed services into one telemetry domain, with a
    /// fresh pipeline-delay tracer registered in it when it is enabled and
    /// a fresh decision ring when it is traced. Pass [`Telemetry::disabled`]
    /// to detach.
    pub fn set_telemetry(&mut self, t: &Telemetry) {
        self.telemetry = t.clone();
        self.tracer = t.is_enabled().then(|| PipelineTracer::new(t));
        self.provenance = t.is_traced().then(|| Box::new(Ring::new(STORE_CAP)));
        self.uss.set_telemetry(t);
        self.ums.set_telemetry(t);
        self.fcs.set_telemetry(t);
        self.irs.set_telemetry(t);
        if let Some(store) = &mut self.store {
            store.set_telemetry(t);
        }
    }

    /// The site's telemetry handle (disabled unless wired).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The site's snapshot, `None` while its telemetry is off: the handle's
    /// histograms and span counts, the decisions captured while traced, and
    /// every count and gauge its services, client library, tracer and store
    /// keep — read from them as they stand, whenever the handle was wired.
    pub fn snapshot(&self) -> Option<Snapshot> {
        let mut snap = self.telemetry.snapshot()?;
        if let Some(ring) = &self.provenance {
            snap.add_counts([("aequus_provenance_captured_total", ring.pushed())]);
        }
        self.uss.counts_into(&mut snap);
        self.ums.counts_into(&mut snap);
        self.fcs.counts_into(&mut snap);
        self.irs.counts_into(&mut snap);
        self.lib.counts_into(&mut snap);
        if let Some(tracer) = &self.tracer {
            tracer.counts_into(&mut snap);
        }
        if let Some(stats) = self.store_stats() {
            stats.counts_into(&mut snap);
        }
        Some(snap)
    }

    /// The site identity.
    pub fn id(&self) -> SiteId {
        self.id
    }

    /// The configured delay chain.
    pub fn timings(&self) -> &ServiceTimings {
        &self.timings
    }

    /// RMS-facing: intern a grid user into the stable dense id fairshare
    /// queries go by (once per submitted job) — its id in the site's one
    /// user table, which every service keys its rows by.
    pub fn intern_user(&mut self, user: &GridUser) -> UserId {
        self.uss.users_mut().intern(user)
    }

    /// RMS-facing: query the fairshare factor of an interned grid user
    /// (libaequus cache → FCS precomputed values).
    pub fn fairshare_factor(&mut self, id: UserId, now_s: f64) -> f64 {
        let value = self.lib.get_fairshare(&self.fcs, id, now_s);
        // Tracer stage III, for an id a leaf of the current tree accounts for.
        if let Some(tracer) = self.tracer.as_mut().filter(|t| !t.is_idle()) {
            if let (Some(_), Some(fetched_s)) = (self.fcs.user_of(id), self.lib.fetched_at(id)) {
                tracer.on_lib_query(id, fetched_s, now_s);
            }
        }
        if self.serving_trace.is_some() {
            self.trace_query(id, value, now_s);
        }
        value
    }

    /// Intern-then-query convenience for one-off lookups by name; an RMS
    /// interns once per job and calls
    /// [`fairshare_factor`](Self::fairshare_factor).
    pub fn fairshare(&mut self, user: &GridUser, now_s: f64) -> f64 {
        let id = self.intern_user(user);
        self.fairshare_factor(id, now_s)
    }

    /// Complete a pipeline trace at the serving edge: a `lib.query` leaf
    /// span plus the full decision provenance — recorded only when the
    /// served value is bit-identical to the current FCS factor, so every
    /// captured explanation replays to the value the RMS actually saw,
    /// which the record keeps beside it.
    fn trace_query(&mut self, id: UserId, value: f64, now_s: f64) {
        let Some(fresh) = self.fcs.factor_of(id) else {
            return;
        };
        if fresh.to_bits() != value.to_bits() {
            return; // client cache served an older tree's value
        }
        let Some(user) = self.fcs.user_of(id).cloned() else {
            return;
        };
        let ctx = self.serving_trace.take();
        let leaf = self.telemetry.child_span(ctx, "lib.query", now_s, || {
            format!("served {value:?} for {user}")
        });
        let Some(ring) = self.provenance.as_mut() else {
            return;
        };
        if let Some(explanation) = self.fcs.explain(&user) {
            ring.push(Provenance {
                t_s: now_s,
                trace_id: leaf.or(ctx).map_or(0, |c| c.trace_id),
                served: value,
                explanation,
            });
        }
    }

    /// The decisions captured while traced, oldest first: the last
    /// `STORE_CAP` of them; none on a site that was never traced.
    pub fn provenance(&self) -> Vec<Provenance> {
        self.provenance
            .as_ref()
            .map_or_else(Vec::new, |r| r.to_vec())
    }

    /// RMS-facing: report a completed job's usage. The record reaches the
    /// USS only after the configured reporting delay (stage I of §IV-A-2).
    pub fn report_completion(&mut self, record: UsageRecord, now_s: f64) {
        if let Some(tracer) = &mut self.tracer {
            tracer.on_report(record.job.0, now_s);
        }
        let ctx = self.telemetry.start_trace("rms.report", now_s, || {
            format!("job {} user {}", record.job.0, record.user)
        });
        self.pending_reports
            .push_back((now_s + self.timings.report_delay_s, record, ctx));
    }

    /// RMS-facing: resolve a system account to its grid identity.
    pub fn resolve_identity(&mut self, system: &SystemUser, now_s: f64) -> Option<GridUser> {
        self.lib.resolve_identity(&mut self.irs, system, now_s)
    }

    /// Register the site's exchange peers and reliability configuration
    /// (see [`Uss::set_peers`]). `jitter_seed` decorrelates retry timing
    /// across sites deterministically.
    pub fn configure_exchange(
        &mut self,
        tx_peers: &[SiteId],
        rx_peers: &[SiteId],
        retry: RetryPolicy,
        stale_policy: StalePolicy,
        jitter_seed: u64,
    ) {
        self.uss.set_peers(tx_peers, rx_peers);
        self.uss.configure_reliability(retry, jitter_seed);
        self.uss.set_stale_policy(stale_policy);
    }

    /// Drain every reliable-exchange message due at `now_s` (fresh sends,
    /// backoff-expired retries, crash catch-up requests), addressed per peer.
    pub fn poll_messages(&mut self, now_s: f64) -> Vec<(SiteId, UssMessage)> {
        self.uss.poll(now_s)
    }

    /// Deliver one reliable-exchange message, returning the responses to
    /// route back (acks, resync pulls, resync answers, snapshots).
    /// Data-bearing messages are journaled to the durable store (when
    /// enabled) so replay restores the remote view without re-gossip; the
    /// positive-delta merge makes re-applying them on recovery idempotent.
    pub fn deliver_message(&mut self, msg: &UssMessage, now_s: f64) -> Vec<(SiteId, UssMessage)> {
        let data = match msg {
            UssMessage::Summary { summary, .. } => Some((summary, false)),
            UssMessage::Snapshot { summary, .. } => Some((summary, true)),
            _ => None,
        };
        if let Some((summary, snapshot)) = data {
            // The delivered allocation itself: journaling copies no cell and
            // writes the publication's one encoding.
            self.journal(|| WalRecord::PeerData {
                summary: Arc::clone(summary),
                snapshot,
            });
        }
        self.uss.receive_message(msg, now_s)
    }

    /// Site crash: wipe all volatile service state — the USS exchange state
    /// and remote view, the UMS usage cache, and the FCS fairshare tree. The
    /// USS local histogram survives (accounting database), as do in-flight
    /// usage reports (the RMS-side spool redelivers them) and the libaequus
    /// client caches (the library lives inside the RMS process, which is
    /// modeled as staying up and serving stale values while degraded).
    /// The instant is not read: a crash wipes the same state whenever it
    /// lands.
    pub fn crash(&mut self, _now_s: f64) {
        if let Some(store) = &mut self.store {
            // The write in flight at the instant of the crash lands as a
            // torn tail the next open must truncate. With a store attached
            // the local histogram is honestly volatile too — the WAL, not a
            // magic accounting database, rebuilds it.
            self.store_salt = self
                .store_salt
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            store.simulate_torn_write(self.store_salt);
            self.uss.crash_volatile();
        } else {
            self.uss.crash();
        }
        self.ums.reset();
        self.fcs.reset();
        self.lib.set_degraded(true);
        self.refresh_trace = None;
        self.serving_trace = None;
    }

    /// Crash recovery. With a durable store attached, the store is re-opened
    /// over the surviving disk first — replaying the WAL (truncating the
    /// torn tail, skipping corrupt frames), installing the newest checkpoint
    /// the USS accepts, and re-applying every surviving record past it — so
    /// anti-entropy catch-up only has to cover the delta since the crash
    /// instead of full history.
    /// Then (store or not) every expected publisher's link owes a catch-up
    /// snapshot, requested until it arrives, and the client library's
    /// degraded mode is lifted.
    /// Publication resumes on the next tick. Like [`AequusSite::crash`], it
    /// does not read the instant.
    pub fn recover(&mut self, _now_s: f64) {
        if let Some(store) = self.store.take() {
            self.recover_from_store(store);
        }
        self.uss.request_catchup();
        self.lib.set_degraded(false);
        self.last_publish_s = f64::NEG_INFINITY;
    }

    /// Re-open the durable store (modeling the recovering process reading
    /// its disk back) and reinstall checkpoint + WAL state into the USS —
    /// the newest checkpoint it accepts, then every record past it; the
    /// UMS, reset by the crash, rebuilds over it on the next tick as it does
    /// without a store. Replay is telemetry-quiet — the original operations were
    /// already counted — and emits no protocol responses: acks were
    /// delivered before the crash, and a gap still open is owed on its
    /// link, pulled by the next poll.
    fn recover_from_store(&mut self, store: SiteStore) {
        self.store_stats_base = StoreStats::across_restart(self.store_stats_base, store.stats());
        let cfg = store.config();
        let (mut store, recovered) = SiteStore::open(store.into_storage(), cfg);
        store.set_telemetry(&self.telemetry);
        // The newest checkpoint the USS accepts; a refused one is counted
        // and the older slot tried, whose records the WAL still holds.
        let mut installed_lsn = 0;
        for ckpt in &recovered.checkpoints {
            if self.uss.install_checkpoint(ckpt).is_ok() {
                installed_lsn = ckpt.lsn;
                break;
            }
            self.store_stats_base.refused_checkpoints += 1;
        }
        let past = recovered
            .records
            .iter()
            .filter(|(lsn, _)| *lsn > installed_lsn);
        for (_lsn, rec) in past {
            match rec {
                WalRecord::Usage(u) => {
                    self.uss.replay_ingest(u);
                }
                WalRecord::PeerData { summary, snapshot } => {
                    self.uss.replay_peer_data(summary, *snapshot)
                }
                WalRecord::Publish { seq } => self.uss.replay_publish_seq(*seq),
            }
        }
        self.last_checkpoint_s = f64::NEG_INFINITY;
        self.store = Some(store);
    }

    /// Advance the site to `now_s`: deliver due usage reports, publish
    /// summaries on the publication interval, and refresh the UMS/FCS caches
    /// on their intervals. Idempotent within a timestep.
    pub fn tick(&mut self, now_s: f64) {
        // Stage I: reporting delay.
        while self
            .pending_reports
            .front()
            .is_some_and(|(due, _, _)| *due <= now_s)
        {
            let Some((_, rec, ctx)) = self.pending_reports.pop_front() else {
                break;
            };
            let user = self.uss.ingest(&rec);
            self.journal(|| WalRecord::Usage(rec.clone()));
            let end_slot = (rec.end_s / self.uss.slot_duration()).floor().max(0.0) as u64;
            let job = rec.job.0;
            if let Some(tracer) = &mut self.tracer {
                tracer.on_ingest(job, user, end_slot, now_s);
            }
            if let Some(ingest_ctx) = self.telemetry.child_span(ctx, "uss.ingest", now_s, || {
                format!("job {job} ingested into slot {end_slot}")
            }) {
                self.uss.note_ingest_trace(ingest_ctx);
            }
        }
        // Stage II-a: USS publication.
        if now_s - self.last_publish_s >= self.timings.uss_publish_interval_s {
            if let Some(summary) = self.uss.publish(now_s) {
                self.journal(|| WalRecord::Publish { seq: summary.seq });
                if let Some(tracer) = self.tracer.as_mut().filter(|t| !t.is_idle()) {
                    let users = self.uss.users();
                    let mut ids: Vec<UserId> = (summary.per_user.keys())
                        .filter_map(|u| users.id_of(u))
                        .collect();
                    ids.sort_unstable();
                    let current_slot = (now_s / self.uss.slot_duration()).floor().max(0.0) as u64;
                    tracer.on_publish(&ids, current_slot, now_s);
                }
            }
            self.last_publish_s = now_s;
        }
        // Peer staleness drives the stale-data policy before the UMS reads
        // the (possibly suppressed) remote usage.
        self.uss.update_staleness(now_s);
        // Stage II-b and II-c: UMS and FCS cache refreshes — the dirty-set
        // flow USS → UMS → FCS drains here. Only *actual* refreshes mark
        // tracer visibility (a cache-valid no-op reveals nothing new).
        if self.ums.refresh(&mut self.uss, now_s) {
            if let Some(tracer) = &mut self.tracer {
                tracer.on_ums_refresh(now_s);
            }
            let pipe = self.uss.take_pipeline_trace();
            let site_id = self.id.0;
            self.refresh_trace = self
                .telemetry
                .child_span(pipe, "ums.refresh", now_s, || {
                    format!("site {site_id} decay cache refreshed")
                })
                .or(self.refresh_trace);
        }
        let users = self.uss.users_mut();
        if self.fcs.refresh(&mut self.pds, &mut self.ums, users, now_s) {
            if let Some(tracer) = &mut self.tracer {
                tracer.on_fcs_refresh(now_s);
            }
            if let Some(rt) = self.refresh_trace.take() {
                let fcs = &self.fcs;
                self.serving_trace =
                    self.telemetry
                        .child_span(Some(rt), "fcs.refresh", now_s, || {
                            format!("tree recomputed, {} users projected", fcs.factor_count())
                        });
            }
        }
        // Durable-store checkpoint cadence: snapshot the USS state and
        // compact the WAL segments the snapshot covers.
        if let Some(cfg) = self.store.as_ref().map(SiteStore::config) {
            if now_s - self.last_checkpoint_s >= cfg.checkpoint_interval_s {
                self.checkpoint_now(now_s);
            }
        }
    }

    /// Cut a checkpoint immediately (normally driven by the store's
    /// `checkpoint_interval_s` from [`AequusSite::tick`]). Costs the encode,
    /// CRC and write of what the site holds — `O(cells)` — and nothing
    /// before them: the store encodes a borrowed view of the USS maps, no
    /// owned copy is built and dropped.
    fn checkpoint_now(&mut self, now_s: f64) {
        let Some(store) = &mut self.store else {
            return;
        };
        let lsn = store.next_lsn().saturating_sub(1);
        store.checkpoint(&self.uss.checkpoint_view(lsn, now_s));
        self.last_checkpoint_s = now_s;
    }

    /// Usage reports still in the delay pipeline.
    pub fn pending_report_count(&self) -> usize {
        self.pending_reports.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_core::ids::JobId;
    use aequus_core::policy::flat_policy;
    use aequus_store::CheckpointState;

    fn site(id: u32, mode: ParticipationMode) -> AequusSite {
        AequusSite::new(
            SiteId(id),
            flat_policy(&[("a", 0.5), ("b", 0.5)]).unwrap(),
            FairshareConfig::default(),
            ProjectionKind::Percental,
            ServiceTimings {
                report_delay_s: 5.0,
                uss_publish_interval_s: 10.0,
                ums_refresh_interval_s: 10.0,
                fcs_refresh_interval_s: 10.0,
                lib_cache_ttl_s: 5.0,
                lib_identity_ttl_s: 60.0,
                exchange_latency_s: 1.0,
            },
            mode,
            60.0,
        )
    }

    fn record(site_id: u32, user: &str, start: f64, end: f64) -> UsageRecord {
        UsageRecord {
            job: JobId(1),
            user: GridUser::new(user),
            site: SiteId(site_id),
            cores: 1,
            start_s: start,
            end_s: end,
        }
    }

    #[test]
    fn reporting_delay_respected() {
        let mut s = site(0, ParticipationMode::Full);
        s.report_completion(record(0, "a", 0.0, 100.0), 100.0);
        s.tick(102.0);
        assert_eq!(s.pending_report_count(), 1, "still in flight");
        assert_eq!(s.uss.records_ingested(), 0);
        s.tick(105.0);
        assert_eq!(s.pending_report_count(), 0);
        assert_eq!(s.uss.records_ingested(), 1);
    }

    #[test]
    fn full_pipeline_updates_fairshare() {
        let mut s = site(0, ParticipationMode::Full);
        s.tick(0.0);
        let before = s.fairshare(&GridUser::new("a"), 0.0);
        // a consumes heavily; after the delay chain its factor must drop.
        s.report_completion(record(0, "a", 0.0, 500.0), 500.0);
        for t in [505.0, 520.0, 540.0, 560.0] {
            s.tick(t);
        }
        let after = s.fairshare(&GridUser::new("a"), 560.0);
        assert!(after < before, "{after} !< {before}");
    }

    /// Route `msgs` (and every response they provoke) between the two sites
    /// until the exchange is quiet.
    fn pump(s0: &mut AequusSite, s1: &mut AequusSite, mut msgs: Vec<(SiteId, UssMessage)>, t: f64) {
        while !msgs.is_empty() {
            let mut next = Vec::new();
            for (dest, msg) in msgs {
                let target = if dest == SiteId(0) {
                    &mut *s0
                } else {
                    &mut *s1
                };
                next.extend(target.deliver_message(&msg, t));
            }
            msgs = next;
        }
    }

    fn exchanging_pair() -> (AequusSite, AequusSite) {
        let mut s0 = site(0, ParticipationMode::Full);
        let mut s1 = site(1, ParticipationMode::Full);
        let peers = [SiteId(0), SiteId(1)];
        let retry = RetryPolicy::default();
        s0.configure_exchange(&peers, &peers, retry, StalePolicy::ServeStale, 1);
        s1.configure_exchange(&peers, &peers, retry, StalePolicy::ServeStale, 2);
        (s0, s1)
    }

    #[test]
    fn cross_site_exchange_converges_views() {
        let (mut s0, mut s1) = exchanging_pair();
        s0.report_completion(record(0, "a", 0.0, 300.0), 300.0);
        s0.tick(310.0);
        s0.tick(400.0); // slot closed, publish
        let out = s0.poll_messages(400.0);
        assert!(!out.is_empty());
        pump(&mut s0, &mut s1, out, 400.0);
        s1.tick(420.0);
        // Site 1 never ran the job but sees the usage.
        let fa = s1.fairshare(&GridUser::new("a"), 430.0);
        let fb = s1.fairshare(&GridUser::new("b"), 430.0);
        assert!(
            fa < fb,
            "a's remote usage lowers its priority: {fa} vs {fb}"
        );
    }

    #[test]
    fn identity_resolution_through_site() {
        let mut s = site(0, ParticipationMode::Full);
        s.irs
            .store_mapping(SystemUser::new("grid7"), GridUser::new("a"));
        assert_eq!(
            s.resolve_identity(&SystemUser::new("grid7"), 0.0),
            Some(GridUser::new("a"))
        );
    }

    #[test]
    fn crash_wipes_volatile_state_and_recovery_catches_up() {
        let (mut s0, mut s1) = exchanging_pair();
        // s0 runs a job; the exchange carries it to s1.
        s0.report_completion(record(0, "a", 0.0, 300.0), 300.0);
        s0.tick(310.0);
        s0.tick(400.0);
        let msgs = s0.poll_messages(400.0);
        pump(&mut s0, &mut s1, msgs, 400.0);
        assert!((s1.uss.remote_usage_of(&GridUser::new("a")) - 300.0).abs() < 1e-9);
        // s1 crashes: remote view and caches are gone, local data survives.
        s1.report_completion(record(1, "b", 0.0, 100.0), 300.0);
        s1.tick(310.0);
        s1.crash(500.0);
        assert_eq!(s1.uss.remote_usage_of(&GridUser::new("a")), 0.0);
        assert!((s1.uss.local_usage_of(&GridUser::new("b")) - 100.0).abs() < 1e-9);
        assert!(s1.fcs.tree().is_none(), "FCS tree wiped");
        // Recovery pulls a snapshot from s0.
        s1.recover(600.0);
        let msgs = s1.poll_messages(600.0);
        pump(&mut s0, &mut s1, msgs, 600.0);
        assert!(
            (s1.uss.remote_usage_of(&GridUser::new("a")) - 300.0).abs() < 1e-9,
            "snapshot catch-up restored the remote view"
        );
    }

    #[test]
    fn store_replays_local_usage_across_crash() {
        // With a durable store, the local histogram is volatile at the
        // crash — and the WAL alone rebuilds it, bit for bit.
        let mut s = site(0, ParticipationMode::Full);
        s.enable_store(StoreConfig::default(), 42);
        s.report_completion(record(0, "a", 0.0, 300.0), 300.0);
        s.tick(310.0);
        let before = s.uss.local_usage_of(&GridUser::new("a"));
        assert!((before - 300.0).abs() < 1e-9);

        s.crash(400.0);
        assert_eq!(
            s.uss.local_usage_of(&GridUser::new("a")),
            0.0,
            "store mode: local histogram is honestly volatile"
        );
        s.recover(500.0);
        let after = s.uss.local_usage_of(&GridUser::new("a"));
        assert_eq!(before.to_bits(), after.to_bits(), "WAL replay is exact");
        assert_eq!(s.uss.records_ingested(), 1);

        let stats = s.store_stats().unwrap();
        assert_eq!(stats.torn_tails, 1, "crash left a torn tail: {stats:?}");
        assert!(stats.frames_replayed >= 1);
    }

    #[test]
    fn store_checkpoint_covers_records_and_publish_seq() {
        let mut s = site(0, ParticipationMode::Full);
        s.enable_store(
            StoreConfig {
                checkpoint_interval_s: 50.0,
                ..StoreConfig::default()
            },
            7,
        );
        s.report_completion(record(0, "a", 0.0, 300.0), 300.0);
        s.tick(310.0); // ingest + publish + checkpoint
        s.tick(400.0); // second publish (slot closed), next checkpoint
        let seq_before = s.uss.next_seq();
        let local_before = s.uss.local_usage_of(&GridUser::new("a"));
        assert!(s.store_stats().unwrap().checkpoints >= 1);

        s.crash(450.0);
        s.recover(460.0);
        assert_eq!(
            s.uss.next_seq(),
            seq_before,
            "publish cursor survives via checkpoint + Publish records"
        );
        assert_eq!(
            local_before.to_bits(),
            s.uss.local_usage_of(&GridUser::new("a")).to_bits(),
            "checkpointed local cells install bitwise exact"
        );
    }

    /// A recovered checkpoint the USS refuses — here its slot holds a cell
    /// that is not a charge — is counted in the store stats, and recovery
    /// falls back to the older slot: `a`'s job, which only that slot holds,
    /// and both of `b`'s jobs, journaled past it, read back.
    #[test]
    fn a_refused_checkpoint_is_counted_and_the_wal_past_it_replays() {
        let mut s = site(0, ParticipationMode::Full);
        s.enable_store(StoreConfig::default(), 13);
        s.report_completion(record(0, "a", 0.0, 100.0), 100.0);
        s.tick(110.0); // ingest a, the first checkpoint
        s.report_completion(record(0, "b", 100.0, 150.0), 150.0);
        s.tick(160.0); // ingest b, no checkpoint due
        let store = s.store.as_mut().expect("store attached");
        let lsn = store.next_lsn() - 1;
        let own = s.uss.checkpoint_view(lsn, 170.0).encode();
        let mut bad = CheckpointState::decode_slot(&own).expect("a fresh slot decodes");
        bad.local_cells
            .insert(GridUser::new("a"), vec![(0, f64::NAN)]);
        store.checkpoint(&bad.view()); // the other slot, the higher LSN
        s.report_completion(record(0, "b", 150.0, 200.0), 200.0);
        s.tick(210.0); // ingest b's second job past the bad checkpoint
        assert_eq!(s.store_stats().unwrap().refused_checkpoints, 0);

        s.crash(220.0);
        s.recover(230.0);
        let stats = s.store_stats().unwrap();
        assert_eq!(stats.refused_checkpoints, 1, "{stats:?}");
        assert!(stats.frames_replayed >= 1);
        assert_eq!(s.uss.local_usage_of(&GridUser::new("a")), 100.0);
        assert_eq!(s.uss.local_usage_of(&GridUser::new("b")), 100.0);
        assert_eq!(
            s.uss.records_ingested(),
            3,
            "one checkpointed, two replayed"
        );
    }

    /// A store recovery refreshes its UMS as every other crash does — whole,
    /// over the recovered USS — so the row it serves is the one a fresh UMS
    /// computes there, bit for bit, though the checkpoint it came back from
    /// was cut with a user's usage not yet refreshed into the UMS.
    #[test]
    fn a_store_recovery_serves_the_ums_row_a_fresh_ums_would() {
        let mut s = site(0, ParticipationMode::Full);
        let decay = FairshareConfig::default().decay; // exponential
        s.enable_store(
            StoreConfig {
                checkpoint_interval_s: 1.0,
                ..StoreConfig::default()
            },
            5,
        );
        s.report_completion(record(0, "a", 0.0, 300.0), 300.0);
        s.tick(310.0); // ingest, first refresh (epoch 310), checkpoint
        s.report_completion(record(0, "b", 250.0, 310.0), 310.0);
        s.tick(315.0); // ingest b, a checkpoint; the UMS is not due
        assert_eq!(s.ums.epoch(), Some(310.0));
        assert_eq!(s.ums.usage().len(), 1, "b is pending, not refreshed");
        assert_eq!(s.store_stats().unwrap().checkpoints, 2);

        s.crash(400.0);
        s.recover(410.0);
        s.tick(410.0);
        let mut fresh = Ums::new(s.timings.ums_refresh_interval_s, decay);
        assert!(fresh.refresh(&mut s.uss, 410.0));
        let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(s.ums.usage().len(), 2);
        assert_eq!(bits(s.ums.usage()), bits(fresh.usage()));
        assert_eq!(s.ums.epoch(), fresh.epoch());
    }

    #[test]
    fn store_replays_peer_data_without_re_gossip() {
        let (mut s0, mut s1) = exchanging_pair();
        s1.enable_store(StoreConfig::default(), 9);
        s0.report_completion(record(0, "a", 0.0, 300.0), 300.0);
        s0.tick(310.0);
        s0.tick(400.0);
        let msgs = s0.poll_messages(400.0);
        pump(&mut s0, &mut s1, msgs, 400.0);
        let remote_before = s1.uss.remote_usage_of(&GridUser::new("a"));
        assert!((remote_before - 300.0).abs() < 1e-9);

        // Crash and recover *without* any message exchange: the journaled
        // peer summaries alone restore the remote view.
        s1.crash(500.0);
        assert_eq!(s1.uss.remote_usage_of(&GridUser::new("a")), 0.0);
        s1.recover(600.0);
        let remote_after = s1.uss.remote_usage_of(&GridUser::new("a"));
        assert_eq!(
            remote_before.to_bits(),
            remote_after.to_bits(),
            "WAL peer-data replay restored the remote view"
        );
    }

    /// The record bodies of every `PeerData` frame `s` journaled, in order.
    fn journaled_peer_data(s: &mut AequusSite) -> Vec<Vec<u8>> {
        use aequus_store::wal::{decode_frame, FrameOutcome};
        let storage = s.store.take().expect("a store").into_storage();
        let mut segments = storage.list();
        segments.retain(|name| name.starts_with("wal-"));
        segments.sort();
        let mut bodies = Vec::new();
        for name in segments {
            let bytes = storage.read(&name).expect("a listed segment");
            let mut at = 0;
            while let FrameOutcome::Frame { payload, next, .. } = decode_frame(bytes, at) {
                // The LSN, then the record: tag, snapshot flag, body.
                if payload[8] == 2 {
                    bodies.push(payload[10..].to_vec());
                }
                at = next;
            }
        }
        bodies
    }

    /// One publication is encoded once, and every copy of it carries what
    /// a fresh encode of its summary writes: each send, retry and resync
    /// answer is sized and encoded as `encode_summary` writes it, and each
    /// receiver journals `write_summary` of it — a summary mutated after
    /// `Arc::unwrap_or_clone` of a publication that had been encoded
    /// included.
    #[test]
    fn every_copy_of_a_publication_carries_its_fresh_encoding() {
        use aequus_core::codec::{encode_summary, write_summary, Encoding, Publication};
        use aequus_core::usage::UsageSummary;
        let peers = [SiteId(1), SiteId(2), SiteId(3)];
        let retry = RetryPolicy {
            ack_timeout_s: 10.0,
            max_backoff_s: 40.0,
            jitter_frac: 0.0,
            history_cap: 8,
            outbox_cap: 8,
        };
        let mut s0 = site(0, ParticipationMode::Full);
        s0.configure_exchange(&peers, &peers, retry, StalePolicy::ServeStale, 1);
        s0.report_completion(record(0, "a", 0.0, 300.0), 300.0);
        s0.report_completion(record(0, "b", 60.0, 250.5), 300.0);
        s0.tick(310.0);
        s0.tick(400.0);
        let mut sent = s0.poll_messages(400.0);
        sent.extend(s0.poll_messages(411.0)); // no acks: every send retried
        let pull = UssMessage::Resync {
            from: SiteId(2),
            from_seq: 1,
            to_seq: 1,
        };
        sent.extend(s0.deliver_message(&pull, 412.0));
        assert_eq!(sent.len(), 3 + 3 + 1, "{sent:?}");
        let UssMessage::Summary { summary, .. } = &sent[0].1 else {
            panic!("a publication: {sent:?}");
        };
        let encoded = Arc::new(Publication::new(UsageSummary::clone(summary)));
        encoded.frame();
        let mut mutated = Arc::unwrap_or_clone(encoded);
        mutated.seq += 1;
        mutated
            .per_user
            .insert(GridUser::new("c"), [(2, 7.5)].into());
        let mutated = UssMessage::Summary {
            summary: Arc::new(mutated),
            ctx: None,
        };
        sent.push((SiteId(1), mutated));

        let mut receivers: Vec<AequusSite> = (1..=3)
            .map(|id| {
                let mut s = site(id, ParticipationMode::Full);
                s.enable_store(StoreConfig::default(), 7);
                s
            })
            .collect();
        let mut fresh_bodies = vec![Vec::new(); 3];
        for (to, msg) in &sent {
            let UssMessage::Summary { summary, ctx } = msg else {
                panic!("a publication: {msg:?}");
            };
            let fresh = UsageSummary::clone(summary);
            let frame = encode_summary(&fresh);
            let head = 2 + if ctx.is_some() { 16 } else { 0 };
            assert_eq!(msg.wire_size(Encoding::Delta), (head + frame.len()) as u64);
            assert_eq!(msg.encode()[head..], frame[..]);
            let mut body = Vec::new();
            write_summary(&fresh, &mut body);
            let at = to.0 as usize - 1;
            fresh_bodies[at].push(body);
            receivers[at].deliver_message(msg, 420.0);
        }
        for (receiver, fresh) in receivers.iter_mut().zip(fresh_bodies) {
            assert_eq!(
                journaled_peer_data(receiver),
                fresh,
                "site {:?}",
                receiver.id()
            );
        }
    }

    #[test]
    fn store_metrics_flow_into_site_telemetry() {
        let mut s = site(0, ParticipationMode::Full);
        s.set_telemetry(&Telemetry::enabled());
        s.enable_store(StoreConfig::default(), 3);
        s.report_completion(record(0, "a", 0.0, 100.0), 100.0);
        s.tick(110.0);
        s.crash(200.0);
        s.recover(300.0);
        let snap = s.snapshot().unwrap();
        assert!(
            snap.counters
                .get("aequus_store_frames_appended_total")
                .copied()
                .unwrap_or(0)
                >= 1
        );
        assert_eq!(snap.counters.get("aequus_store_torn_tails_total"), Some(&1));
        assert!(
            snap.gauges
                .get("aequus_store_wal_bytes")
                .copied()
                .unwrap_or(0.0)
                > 0.0
        );
    }

    /// The six `aequus_tracer_*` histograms' counts, in pipeline order
    /// (report, publish, UMS, FCS, lib, end to end), and the completed count.
    fn tracer_counts(s: &AequusSite) -> ([u64; 6], u64) {
        let snap = s.snapshot().unwrap();
        let stages = ["report_delay", "publish_delay", "ums_delay", "fcs_delay"];
        let names = stages.into_iter().chain(["lib_delay", "end_to_end"]);
        let counts: Vec<u64> = names
            .map(|n| snap.histograms[&format!("aequus_tracer_{n}_s")].count)
            .collect();
        let completed = snap.counters["aequus_tracer_completed_total"];
        (counts.try_into().unwrap(), completed)
    }

    /// The tracer times the pipeline from outside the services: a record
    /// reported before a crash, spooled through it, completes its chain
    /// once the site is back.
    #[test]
    fn a_trace_reported_before_a_crash_completes_after_recovery() {
        let mut s = site(0, ParticipationMode::Full);
        s.set_telemetry(&Telemetry::enabled());
        let a = s.intern_user(&GridUser::new("a"));
        s.report_completion(record(0, "a", 0.0, 100.0), 100.0);
        s.crash(102.0);
        s.recover(110.0);
        for now in [110.0, 120.0] {
            s.tick(now);
            s.fairshare_factor(a, now);
        }
        assert_eq!(tracer_counts(&s), ([1; 6], 1));
        let e2e = s.snapshot().unwrap().histograms["aequus_tracer_end_to_end_s"];
        assert_eq!(e2e.max, 10.0, "ingested, refreshed and served at 110");
    }

    /// A traced site keeps the decision that closes a trace beside the
    /// factor it handed out; a metrics-only site keeps and counts none.
    #[test]
    fn a_traced_site_keeps_the_factor_it_served() {
        for traced in [false, true] {
            let mut s = site(0, ParticipationMode::Full);
            s.set_telemetry(&if traced {
                Telemetry::traced(0)
            } else {
                Telemetry::enabled()
            });
            let a = s.intern_user(&GridUser::new("a"));
            s.report_completion(record(0, "a", 0.0, 100.0), 100.0);
            let mut served = Vec::new();
            for now in [110.0, 120.0] {
                s.tick(now);
                served.push(s.fairshare_factor(a, now).to_bits());
            }
            let kept = s.provenance();
            let snap = s.snapshot().unwrap();
            let counted = snap.counters.get("aequus_provenance_captured_total");
            assert_eq!(counted, traced.then_some(&1), "traced: {traced}");
            assert_eq!(kept.len(), usize::from(traced));
            for p in &kept {
                assert_eq!(p.explanation.user, "a");
                assert!(served.contains(&p.served.to_bits()));
                assert_eq!(p.explanation.replay().to_bits(), p.served.to_bits());
            }
        }
    }

    /// A user outside the policy, interned at submit, is charged, published
    /// and refreshed like any other — but no leaf of the tree serves it a
    /// factor, so its records never complete the lib stage, however often
    /// it is queried.
    #[test]
    fn an_outside_users_trace_stops_before_the_lib_stage() {
        let mut s = site(0, ParticipationMode::Full);
        s.set_telemetry(&Telemetry::enabled());
        let c = s.intern_user(&GridUser::new("c"));
        s.report_completion(record(0, "c", 0.0, 100.0), 100.0);
        for now in [105.0, 120.0, 130.0, 140.0] {
            s.tick(now);
            assert_eq!(s.fairshare_factor(c, now), 0.5, "the neutral factor");
        }
        assert_eq!(tracer_counts(&s), ([1, 1, 1, 1, 0, 0], 0));
    }

    /// A count lives in the service that keeps it, so a snapshot shows what
    /// happened before the telemetry was wired.
    #[test]
    fn a_snapshot_counts_what_happened_before_telemetry_was_wired() {
        let mut s = site(0, ParticipationMode::Full);
        s.report_completion(record(0, "a", 0.0, 100.0), 100.0);
        for now in [110.0, 120.0] {
            s.tick(now);
            s.fairshare(&GridUser::new("a"), now);
        }
        assert!(s.snapshot().is_none(), "telemetry off");
        s.set_telemetry(&Telemetry::enabled());
        let snap = s.snapshot().unwrap();
        let kept = [
            s.uss.records_ingested(),
            s.ums.refreshes(),
            s.lib.fairshare_stats.misses,
        ];
        assert_eq!(kept, [1, 2, 2]);
        let read = [
            "aequus_uss_records_ingested_total",
            "aequus_ums_refreshes_total",
            "aequus_lib_fairshare_misses_total",
        ];
        assert_eq!(read.map(|name| snap.counters[name]), kept);
    }

    #[test]
    fn disjunct_site_produces_nothing() {
        let mut s = site(0, ParticipationMode::Disjunct);
        let peers = [SiteId(0), SiteId(1)];
        s.configure_exchange(
            &peers,
            &peers,
            RetryPolicy::default(),
            StalePolicy::ServeStale,
            1,
        );
        s.report_completion(record(0, "a", 0.0, 300.0), 300.0);
        s.tick(310.0);
        s.tick(500.0);
        assert!(s.poll_messages(500.0).is_empty());
    }
}
