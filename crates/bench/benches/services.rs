//! Microbenchmarks of the service layer: USS ingestion and summary
//! production, FCS refresh, and libaequus query latency (cache hit vs miss)
//! — the per-job costs the throughput test (§IV-A) exercises.

use aequus_bench::harness::Criterion;
use aequus_core::fairshare::FairshareConfig;
use aequus_core::ids::{JobId, SiteId};
use aequus_core::policy::flat_policy;
use aequus_core::projection::ProjectionKind;
use aequus_core::usage::UsageRecord;
use aequus_core::{DecayPolicy, GridUser};
use aequus_services::{Fcs, LibAequus, ParticipationMode, Pds, Ums, Uss};
use std::hint::black_box;

fn record(i: u64) -> UsageRecord {
    UsageRecord {
        job: JobId(i),
        user: GridUser::new(format!("u{}", i % 50)),
        site: SiteId(0),
        cores: 1,
        start_s: i as f64,
        end_s: i as f64 + 100.0,
    }
}

fn bench_uss(c: &mut Criterion) {
    c.bench_function("uss_ingest", |b| {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 60.0);
        let mut i = 0u64;
        b.iter(|| {
            uss.ingest(black_box(&record(i)));
            i += 1;
        })
    });
    c.bench_function("uss_summary_50users", |b| {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 60.0);
        for i in 0..5000 {
            uss.ingest(&record(i));
        }
        b.iter(|| black_box(&uss).decayed_usage(6000.0, DecayPolicy::default()))
    });
}

fn setup_fcs() -> (Pds, Ums, Uss, Fcs) {
    let users: Vec<(String, f64)> = (0..50).map(|i| (format!("u{i}"), 1.0)).collect();
    let pairs: Vec<(&str, f64)> = users.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    let pds = Pds::new(flat_policy(&pairs).unwrap());
    let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 60.0);
    for i in 0..5000 {
        uss.ingest(&record(i));
    }
    let mut ums = Ums::new(0.0, DecayPolicy::default());
    ums.refresh(&mut uss, 6000.0);
    let fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 30.0);
    (pds, ums, uss, fcs)
}

fn bench_fcs_refresh(c: &mut Criterion) {
    let (mut pds, mut ums, _uss, mut fcs) = setup_fcs();
    c.bench_function("fcs_refresh_50users", |b| {
        let mut t = 0.0;
        b.iter(|| {
            t += 100.0; // always stale
            fcs.refresh(black_box(&mut pds), black_box(&mut ums), t)
        })
    });
}

fn bench_libaequus(c: &mut Criterion) {
    let (mut pds, mut ums, _uss, mut fcs) = setup_fcs();
    fcs.refresh(&mut pds, &mut ums, 0.0);
    let user = fcs.id_of(&GridUser::new("u7")).expect("policy user");
    c.bench_function("libaequus_query_cache_hit", |b| {
        let mut lib = LibAequus::new(1e12, 1e12);
        lib.get_fairshare(&fcs, user, 0.0);
        b.iter(|| lib.get_fairshare(black_box(&fcs), user, 1.0))
    });
    c.bench_function("libaequus_query_cache_miss", |b| {
        let mut lib = LibAequus::new(0.0, 0.0); // zero TTL: always miss
        b.iter(|| lib.get_fairshare(black_box(&fcs), user, 1.0))
    });
}

fn main() {
    let mut c = Criterion::default();
    bench_uss(&mut c);
    bench_fcs_refresh(&mut c);
    bench_libaequus(&mut c);
}
