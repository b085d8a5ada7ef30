//! Integrating a *custom* scheduler with Aequus through the same seam SLURM
//! and Maui use (§III-A): the `FairshareSource` trait — resolve identities,
//! fetch a global fairshare factor, report usage on completion.
//!
//! This example builds a toy FIFO-with-fairshare-boost scheduler in ~40
//! lines against a live `AequusSite`, demonstrating the libaequus call
//! pattern without the stock `SchedulerCore`: at submit, resolve the
//! account to its grid identity and intern it once; every priority pass
//! then queries the factor by that id.
//!
//! ```sh
//! cargo run --release --example custom_integration
//! ```

use aequus::core::fairshare::FairshareConfig;
use aequus::core::ids::{JobId, SiteId};
use aequus::core::policy::flat_policy;
use aequus::core::projection::ProjectionKind;
use aequus::core::usage::UsageRecord;
use aequus::core::{GridUser, SystemUser, UserId};
use aequus::rms::FairshareSource;
use aequus::services::{AequusSite, ParticipationMode, ServiceTimings};

struct ToyJob {
    id: u64,
    grid: GridUser,
    user_id: UserId,
    duration_s: f64,
}

fn main() {
    // One-site Aequus stack with two users at 50/50 target shares.
    let mut site = AequusSite::new(
        SiteId(0),
        flat_policy(&[("alice", 0.5), ("bob", 0.5)]).unwrap(),
        FairshareConfig::default(),
        ProjectionKind::Percental,
        ServiceTimings {
            report_delay_s: 0.0,
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
    site.irs
        .store_mapping(SystemUser::new("sys-alice"), GridUser::new("alice"));
    site.irs
        .store_mapping(SystemUser::new("sys-bob"), GridUser::new("bob"));

    // Alice hammers the machine; Bob submits occasionally. Submission is
    // where identity is settled: resolve the account, intern the grid user.
    let mut queue: Vec<ToyJob> = (0..20)
        .map(|i| {
            let account = SystemUser::new(if i % 5 == 0 { "sys-bob" } else { "sys-alice" });
            let grid = site
                .resolve_identity(&account, 0.0)
                .expect("identity mapped");
            ToyJob {
                id: i,
                user_id: site.intern_user(&grid),
                grid,
                duration_s: 100.0,
            }
        })
        .collect();

    let mut now = 0.0_f64;
    println!(
        "{:>8} {:>6} {:>8} {:>10} {:>10}",
        "t(s)", "job", "user", "fs-factor", "decision"
    );
    while !queue.is_empty() {
        site.tick(now);
        // The custom scheduler's priority pass: one libaequus call per job.
        let mut best: Option<(usize, f64)> = None;
        for (idx, job) in queue.iter().enumerate() {
            let factor = site.fairshare_factor(job.user_id, now);
            if best.is_none_or(|(_, f)| factor > f) {
                best = Some((idx, factor));
            }
        }
        let (idx, factor) = best.expect("queue non-empty");
        let job = queue.remove(idx);
        println!(
            "{:>8.0} {:>6} {:>8} {:>10.4} {:>10}",
            now, job.id, job.grid, factor, "run"
        );
        // "Execute" and report usage back through the completion seam.
        let end = now + job.duration_s;
        site.report_usage(
            UsageRecord {
                job: JobId(job.id),
                user: job.grid,
                site: SiteId(0),
                cores: 1,
                start_s: now,
                end_s: end,
            },
            end,
        );
        now = end;
    }
    println!("\nBob's jobs jump the queue whenever Alice over-consumes —");
    println!("global fairshare through three calls: resolve, factor, report.");
}
