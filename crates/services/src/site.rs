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
use crate::ums::Ums;
use crate::uss::Uss;
use aequus_core::fairshare::FairshareConfig;
use aequus_core::policy::PolicyTree;
use aequus_core::projection::ProjectionKind;
use aequus_core::usage::UsageRecord;
use aequus_core::{GridUser, SiteId, SystemUser, UserId, UserTable};
use aequus_store::{MemStorage, SiteStore, StoreConfig, StoreStats, WalRecord};
use aequus_telemetry::{Telemetry, TraceCtx};
use std::collections::VecDeque;

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
            store: None,
            store_stats_base: StoreStats::default(),
            store_salt: 0,
            last_checkpoint_s: f64::NEG_INFINITY,
        }
    }

    /// Attach a durable store over a fresh in-memory backend. Once enabled,
    /// ingested usage records, published sequence numbers, and absorbed peer
    /// summaries are journaled to the WAL; checkpoints are cut on the
    /// configured cadence; and a crash/recover cycle replays the store
    /// *before* falling back to anti-entropy catch-up for the delta.
    /// `seed` decorrelates the simulated torn-write junk across sites.
    pub fn enable_store(&mut self, cfg: StoreConfig, seed: u64) {
        // `MemStorage` operations are infallible, so open cannot fail here;
        // keep the site serving (without durability) if that ever changes.
        let Ok((mut store, _recovered)) = SiteStore::open(Box::new(MemStorage::new()), cfg) else {
            return;
        };
        store.set_telemetry(&self.telemetry);
        self.store = Some(store);
        self.store_stats_base = StoreStats::default();
        self.store_salt = seed ^ (u64::from(self.id.0) << 32);
        self.last_checkpoint_s = f64::NEG_INFINITY;
    }

    /// Cumulative store health counters across all incarnations (crashes
    /// re-open the store over the surviving backend), when enabled.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.store
            .as_ref()
            .map(|s| StoreStats::across_restart(self.store_stats_base, s.stats()))
    }

    /// Journal one record, reporting (never panicking on) store errors —
    /// a failing disk degrades durability, not service. The record is built
    /// only when a store is attached: a store-less site pays no clone.
    fn journal(&mut self, rec: impl FnOnce() -> WalRecord, now_s: f64) {
        let Some(store) = &mut self.store else {
            return;
        };
        if let Err(e) = store.append(&rec()) {
            self.telemetry
                .event(now_s, "site.store_error", || format!("journal: {e}"));
        }
    }

    /// Wire the whole site — every service plus the client library — into
    /// one telemetry domain. Pass [`Telemetry::disabled`] to detach.
    pub fn set_telemetry(&mut self, t: &Telemetry) {
        self.telemetry = t.clone();
        self.pds.set_telemetry(t);
        self.uss.set_telemetry(t);
        self.ums.set_telemetry(t);
        self.fcs.set_telemetry(t);
        self.irs.set_telemetry(t);
        self.lib.set_telemetry(t);
        if let Some(store) = &mut self.store {
            store.set_telemetry(t);
        }
    }

    /// The site's telemetry handle (disabled unless wired).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
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
    /// captured explanation replays to the value the RMS actually saw.
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
        if let Some(ex) = self.fcs.explain(&user) {
            let trace_id = leaf.or(ctx).map_or(0, |c| c.trace_id);
            self.telemetry
                .record_provenance(now_s, user.as_str(), trace_id, ex.factor, || ex.to_json());
        }
    }

    /// RMS-facing: report a completed job's usage. The record reaches the
    /// USS only after the configured reporting delay (stage I of §IV-A-2).
    pub fn report_completion(&mut self, record: UsageRecord, now_s: f64) {
        self.telemetry
            .trace_report(record.job.0, record.user.as_str(), now_s);
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
            self.journal(
                || WalRecord::PeerData {
                    summary: summary.clone(),
                    snapshot,
                },
                now_s,
            );
        }
        self.uss.receive_message(msg, now_s)
    }

    /// Site crash: wipe all volatile service state — the USS exchange state
    /// and remote view, the UMS usage cache, and the FCS fairshare tree. The
    /// USS local histogram survives (accounting database), as do in-flight
    /// usage reports (the RMS-side spool redelivers them) and the libaequus
    /// client caches (the library lives inside the RMS process, which is
    /// modeled as staying up and serving stale values while degraded).
    pub fn crash(&mut self, now_s: f64) {
        if let Some(store) = &mut self.store {
            // The write in flight at the instant of the crash lands as a
            // torn tail the next open must truncate. With a store attached
            // the local histogram is honestly volatile too — the WAL, not a
            // magic accounting database, rebuilds it.
            self.store_salt = self
                .store_salt
                .wrapping_mul(0x5851_F42D_4C95_7F2D)
                .wrapping_add(0x1405_7B7E_F767_814F);
            if let Err(e) = store.simulate_torn_write(self.store_salt) {
                self.telemetry
                    .event(now_s, "site.store_error", || format!("torn write: {e}"));
            }
            self.uss.crash_volatile();
        } else {
            self.uss.crash();
        }
        self.ums.reset();
        self.fcs.reset();
        self.lib.set_degraded(true);
        self.refresh_trace = None;
        self.serving_trace = None;
        self.telemetry.event(now_s, "site.crash", || {
            format!("site {} crashed", self.id.0)
        });
    }

    /// Crash recovery. With a durable store attached, the store is re-opened
    /// over the surviving backend first — replaying the WAL (truncating the
    /// torn tail, skipping corrupt frames), installing the best checkpoint,
    /// and re-applying every surviving record — so anti-entropy catch-up
    /// only has to cover the delta since the crash instead of full history.
    /// Then (store or not) snapshot catch-up is requested from every
    /// expected publisher and the client library's degraded mode is lifted.
    /// Publication resumes on the next tick.
    pub fn recover(&mut self, now_s: f64) {
        if let Some(store) = self.store.take() {
            self.recover_from_store(store, now_s);
        }
        self.uss.request_catchup();
        self.lib.set_degraded(false);
        self.last_publish_s = f64::NEG_INFINITY;
        self.telemetry.event(now_s, "site.recover", || {
            format!("site {} recovered", self.id.0)
        });
    }

    /// Re-open the durable store (modeling the recovering process reading
    /// its disk back) and reinstall checkpoint + WAL state into the
    /// services. Replay is telemetry-quiet — the original operations were
    /// already counted — and emits no protocol responses: acks were
    /// delivered before the crash, and any still-open gap re-triggers on
    /// the live path after catch-up.
    fn recover_from_store(&mut self, store: SiteStore, now_s: f64) {
        self.store_stats_base = StoreStats::across_restart(self.store_stats_base, store.stats());
        let cfg = store.config();
        let storage = store.into_storage();
        let (mut store, recovered) = match SiteStore::open(storage, cfg) {
            Ok(opened) => opened,
            Err(e) => {
                // An unrecoverable backend loses durability, not service:
                // the site continues store-less on pure anti-entropy.
                self.telemetry
                    .event(now_s, "site.store_error", || format!("reopen: {e}"));
                return;
            }
        };
        store.set_telemetry(&self.telemetry);
        if let Some(ckpt) = &recovered.checkpoint {
            match self.uss.install_checkpoint(ckpt) {
                Ok(()) => {
                    // An all-dirty USS set must route the next UMS refresh
                    // down the rebase path; install the epoch cache only
                    // when the checkpointed dirt is per-user.
                    if ckpt.dirty_users.is_some() {
                        let cached = self.uss.users_mut().row_from(&ckpt.ums_cached);
                        self.ums.install_state(ckpt.ums_epoch_s, cached);
                    }
                }
                Err(e) => {
                    self.telemetry
                        .event(now_s, "site.store_error", || format!("checkpoint: {e}"));
                }
            }
        }
        let replayed = recovered.records.len();
        for (_lsn, rec) in &recovered.records {
            match rec {
                WalRecord::Usage(u) => self.uss.replay_ingest(u),
                WalRecord::PeerData { summary, snapshot } => {
                    self.uss.replay_peer_data(summary, *snapshot)
                }
                WalRecord::Publish { seq } => self.uss.replay_publish_seq(*seq),
            }
        }
        let report = recovered.report;
        self.telemetry.event(now_s, "site.store_recover", || {
            format!(
                "checkpoint {}, {replayed} records replayed, {} torn tail(s) truncated, {} corrupt frame(s) skipped",
                recovered
                    .checkpoint
                    .as_ref()
                    .map_or("none".to_string(), |c| format!("lsn {}", c.lsn)),
                report.torn_tails, report.corrupt_frames
            )
        });
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
            self.uss.ingest(&rec);
            self.journal(|| WalRecord::Usage(rec.clone()), now_s);
            let end_slot = (rec.end_s / self.uss.slot_duration()).floor().max(0.0) as u64;
            self.telemetry.trace_ingest(rec.job.0, end_slot, now_s);
            let job = rec.job.0;
            if let Some(ingest_ctx) = self.telemetry.child_span(ctx, "uss.ingest", now_s, || {
                format!("job {job} ingested into slot {end_slot}")
            }) {
                self.uss.note_ingest_trace(ingest_ctx);
            }
        }
        // Stage II-a: USS publication.
        if now_s - self.last_publish_s >= self.timings.uss_publish_interval_s {
            if let Some(summary) = self.uss.publish(now_s) {
                self.journal(|| WalRecord::Publish { seq: summary.seq }, now_s);
                if self.telemetry.traces_active() > 0 {
                    let users: Vec<&str> = summary.per_user.keys().map(GridUser::as_str).collect();
                    let current_slot = (now_s / self.uss.slot_duration()).floor().max(0.0) as u64;
                    self.telemetry.trace_publish(&users, current_slot, now_s);
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
            self.telemetry.trace_ums_refresh(now_s);
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
            self.telemetry.trace_fcs_refresh(now_s);
            if let Some(rt) = self.refresh_trace.take() {
                let fcs = &self.fcs;
                self.serving_trace =
                    self.telemetry
                        .child_span(Some(rt), "fcs.refresh", now_s, || {
                            format!("tree recomputed, {} users projected", fcs.factor_count())
                        });
            }
        }
        // Durable-store checkpoint cadence: snapshot the USS/UMS state and
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
    /// before them: the store encodes a borrowed view of the USS and UMS
    /// maps, no owned copy is built and dropped.
    pub fn checkpoint_now(&mut self, now_s: f64) {
        let Some(store) = &mut self.store else {
            return;
        };
        let (epoch, cached) = self.ums.export_state();
        let lsn = store.next_lsn().saturating_sub(1);
        let view = self.uss.checkpoint_view(lsn, now_s, epoch, cached);
        if let Err(e) = store.checkpoint(&view) {
            self.telemetry
                .event(now_s, "site.store_error", || format!("checkpoint: {e}"));
        }
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

    #[test]
    fn store_metrics_flow_into_site_telemetry() {
        let mut s = site(0, ParticipationMode::Full);
        let t = Telemetry::enabled();
        s.set_telemetry(&t);
        s.enable_store(StoreConfig::default(), 3);
        s.report_completion(record(0, "a", 0.0, 100.0), 100.0);
        s.tick(110.0);
        s.crash(200.0);
        s.recover(300.0);
        let snap = t.snapshot().unwrap();
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
