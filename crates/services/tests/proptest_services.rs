//! Property-based tests of the service layer: exchange conservation,
//! publication idempotence, cache-staleness bounds, and participation-mode
//! invariants under randomized job streams.

use aequus_core::fairshare::FairshareConfig;
use aequus_core::ids::{JobId, SiteId};
use aequus_core::policy::flat_policy;
use aequus_core::projection::ProjectionKind;
use aequus_core::usage::UsageRecord;
use aequus_core::{DecayPolicy, GridUser};
use aequus_services::{AequusSite, ParticipationMode, ServiceTimings, Uss, UssMessage};
use proptest::prelude::*;

fn job_stream() -> impl Strategy<Value = Vec<(u8, f64, f64)>> {
    // (user index, start, duration)
    proptest::collection::vec((0u8..4, 0.0..5000.0f64, 1.0..500.0f64), 1..60)
}

fn record(i: usize, site: u32, user: u8, start: f64, dur: f64) -> UsageRecord {
    UsageRecord {
        job: JobId(i as u64),
        user: GridUser::new(format!("u{user}")),
        site: SiteId(site),
        cores: 1,
        start_s: start,
        end_s: start + dur,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn exchange_conserves_charge(jobs in job_stream()) {
        // Everything site 0 publishes is exactly what site 1 receives; no
        // charge is created or destroyed by the exchange.
        let mut a = Uss::new(SiteId(0), ParticipationMode::Full, 60.0);
        let mut b = Uss::new(SiteId(1), ParticipationMode::Full, 60.0);
        let mut total = 0.0;
        for (i, &(u, start, dur)) in jobs.iter().enumerate() {
            let r = record(i, 0, u, start, dur);
            total += r.charge();
            a.ingest(&r);
        }
        // Publish far enough in the future that every slot is closed.
        let mut received = 0.0;
        while let Some(summary) = a.publish(1e7) {
            received += summary.total();
            b.receive_message(&UssMessage::Summary { summary, ctx: None }, 1e7);
        }
        prop_assert!((received - total).abs() < 1e-6 * total.max(1.0));
        prop_assert!((b.remote_total() - total).abs() < 1e-6 * total.max(1.0));
        // Per-user views agree.
        for u in 0..4u8 {
            let user = GridUser::new(format!("u{u}"));
            let va = a.decayed_usage(1e7, DecayPolicy::None)
                .get(&user).copied().unwrap_or(0.0);
            let vb = b.decayed_usage(1e7, DecayPolicy::None)
                .get(&user).copied().unwrap_or(0.0);
            prop_assert!((va - vb).abs() < 1e-6 * va.max(1.0), "u{u}: {va} vs {vb}");
        }
    }

    #[test]
    fn publish_never_duplicates(jobs in job_stream(), checkpoints in proptest::collection::vec(0.0..2e4f64, 1..8)) {
        // Publishing at arbitrary times never double-counts a slot.
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 60.0);
        let mut total = 0.0;
        for (i, &(u, start, dur)) in jobs.iter().enumerate() {
            let r = record(i, 0, u, start, dur);
            total += r.charge();
            uss.ingest(&r);
        }
        let mut times = checkpoints.clone();
        times.sort_by(|x, y| x.partial_cmp(y).unwrap());
        times.push(1e7); // final flush
        let mut published = 0.0;
        for t in times {
            if let Some(s) = uss.publish(t) {
                published += s.total();
            }
        }
        prop_assert!(published <= total + 1e-6 * total.max(1.0), "{published} > {total}");
        // After the final flush everything closed was published exactly once.
        prop_assert!((published - total).abs() < 1e-6 * total.max(1.0));
    }

    #[test]
    fn participation_modes_respect_contract(
        jobs in job_stream(),
        mode_idx in 0usize..4,
    ) {
        let mode = [
            ParticipationMode::Full,
            ParticipationMode::ReadOnly,
            ParticipationMode::LocalOnly,
            ParticipationMode::Disjunct,
        ][mode_idx];
        let mut uss = Uss::new(SiteId(0), mode, 60.0);
        for (i, &(u, start, dur)) in jobs.iter().enumerate() {
            uss.ingest(&record(i, 0, u, start, dur));
        }
        let out = uss.publish(1e7);
        prop_assert_eq!(out.is_some(), mode.contributes(), "{:?}", mode);

        // Remote data visible iff the mode reads global.
        let mut peer = Uss::new(SiteId(1), ParticipationMode::Full, 60.0);
        peer.ingest(&record(999, 1, 0, 0.0, 100.0));
        let summary = peer.publish(1e7).unwrap();
        uss.receive_message(&UssMessage::Summary { summary, ctx: None }, 1e7);
        let sees_remote = uss.remote_total() > 0.0;
        prop_assert_eq!(sees_remote, mode.reads_global(), "{:?}", mode);
    }

    #[test]
    fn fairshare_factor_always_unit_range(
        jobs in job_stream(),
        query_times in proptest::collection::vec(0.0..6000.0f64, 1..20),
    ) {
        let mut site = AequusSite::new(
            SiteId(0),
            flat_policy(&[("u0", 0.4), ("u1", 0.3), ("u2", 0.2), ("u3", 0.1)]).unwrap(),
            FairshareConfig::default(),
            ProjectionKind::Percental,
            ServiceTimings {
                report_delay_s: 1.0,
                uss_publish_interval_s: 10.0,
                ums_refresh_interval_s: 10.0,
                fcs_refresh_interval_s: 10.0,
                lib_cache_ttl_s: 5.0,
                lib_identity_ttl_s: 60.0,
                exchange_latency_s: 1.0,
            },
            ParticipationMode::Full,
            60.0,
        );
        let mut events: Vec<(f64, Option<UsageRecord>)> = jobs
            .iter()
            .enumerate()
            .map(|(i, &(u, start, dur))| {
                (start + dur, Some(record(i, 0, u, start, dur)))
            })
            .collect();
        events.extend(query_times.iter().map(|&t| (t, None)));
        events.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for (t, rec) in events {
            site.tick(t);
            match rec {
                Some(r) => site.report_completion(r, t),
                None => {
                    for u in 0..4 {
                        let f = site.fairshare(&GridUser::new(format!("u{u}")), t);
                        prop_assert!((0.0..=1.0).contains(&f), "factor {f}");
                    }
                }
            }
        }
    }

    #[test]
    fn stale_cache_age_bounded_by_ttls(
        ttl in 1.0..100.0f64,
        fcs_interval in 1.0..100.0f64,
    ) {
        // After a quiet period longer than TTL + FCS interval, a query must
        // reflect a recomputation (staleness bound of the §IV-A-2 chain).
        let mut site = AequusSite::new(
            SiteId(0),
            flat_policy(&[("a", 0.5), ("b", 0.5)]).unwrap(),
            FairshareConfig::default(),
            ProjectionKind::Percental,
            ServiceTimings {
                report_delay_s: 0.0,
                uss_publish_interval_s: fcs_interval,
                ums_refresh_interval_s: fcs_interval,
                fcs_refresh_interval_s: fcs_interval,
                lib_cache_ttl_s: ttl,
                lib_identity_ttl_s: 60.0,
                exchange_latency_s: 1.0,
            },
            ParticipationMode::Full,
            10.0,
        );
        site.tick(0.0);
        let before = site.fairshare(&GridUser::new("a"), 0.0);
        site.report_completion(record(0, 0, 99, 0.0, 0.0), 0.0); // no-op charge
        site.report_completion(
            UsageRecord {
                job: JobId(1),
                user: GridUser::new("a"),
                site: SiteId(0),
                cores: 4,
                start_s: 0.0,
                end_s: 500.0,
            },
            500.0,
        );
        // Advance well past every stage of the pipeline.
        let settle = 500.0 + 3.0 * (ttl + fcs_interval) + 60.0;
        let mut t = 500.0;
        while t < settle {
            t += fcs_interval.min(ttl);
            site.tick(t);
        }
        let after = site.fairshare(&GridUser::new("a"), settle);
        prop_assert!(after < before, "usage must be visible: {after} !< {before}");
    }
}
