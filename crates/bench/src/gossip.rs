//! The scale-out gossip sweep: convergence time vs bytes-on-wire trade-off
//! curves across the overlay topologies (`FullMesh`, `Tree`, `Hub`) and the
//! two byte counts (`Delta`, the codec's frames; `Dense`, their fixed-width
//! yardstick).
//!
//! Every point runs the same bounded workload on the same seed, so the
//! *views* are directly comparable: the defining invariant is that every
//! overlay/encoding combination ends with per-user usage views within 1e-9
//! of the full-mesh run's at every site — topology and codec change how the
//! bytes move, never what the grid believes. The bytes and convergence
//! numbers are the trade-off: hierarchical overlays cut the O(sites²) link
//! count (and per-hop aggregation dedups the payloads) at the price of
//! multi-hop propagation latency.

use crate::backfill::min_ns;
use crate::cli::Shape;
use crate::sweep::{cycle_trace, parallel_sweep};
use aequus_core::codec::{Encoding, Publication};
use aequus_core::usage::{UsageRecord, UsageSummary, UserCells};
use aequus_core::{
    DecayPolicy, FairshareConfig, GridUser, JobId, ProjectionKind, SiteId, UserTable,
};
use aequus_services::{Fcs, OverlayTopology, ParticipationMode, Pds, Ums, Uss, UssMessage};
use aequus_sim::{synthetic_users, GridScenario, GridSimulation, SimResult};
use std::sync::Arc;
use std::time::Instant;

/// Jobs submit inside this window; the rest of [`HORIZON_S`] is drain.
pub const SUBMIT_WINDOW_S: f64 = 600.0;

/// Simulated horizon of every sweep point.
pub const HORIZON_S: f64 = 1800.0;

/// The overlay topologies every sweep measures, full mesh first (it is the
/// baseline the others are compared against).
pub const OVERLAYS: [OverlayTopology; 3] = [
    OverlayTopology::FullMesh,
    OverlayTopology::Tree { fanout: 4 },
    OverlayTopology::Hub { hubs: 4 },
];

/// One measured point of the trade-off surface.
#[derive(Debug, Clone)]
pub struct GossipPoint {
    /// Overlay topology of this run.
    pub overlay: OverlayTopology,
    /// How this run's bytes were counted.
    pub encoding: Encoding,
    /// Total codec-encoded bytes put on the wire.
    pub gossip_bytes: u64,
    /// [`gossip_bytes`](Self::gossip_bytes) per active user.
    pub bytes_per_user: f64,
    /// First time the cross-site view divergence fell (and stayed) ≤ 1e-6.
    pub convergence_s: Option<f64>,
    /// Worst per-user absolute difference of any site's final view from the
    /// full-mesh baseline's (same encoding-independent views).
    pub divergence_vs_mesh: f64,
    /// Jobs completed (identical across points, or the comparison is void).
    pub completed: u64,
}

/// The sweep outcome: one point per overlay × encoding, row-major in
/// [`OVERLAYS`] then `[Dense, Delta]` order.
#[derive(Debug, Clone)]
pub struct GossipSweep {
    /// Measured points.
    pub points: Vec<GossipPoint>,
}

impl GossipSweep {
    /// The point for a given overlay/encoding combination.
    pub fn point(&self, overlay: OverlayTopology, encoding: Encoding) -> Option<&GossipPoint> {
        self.points
            .iter()
            .find(|p| p.overlay == overlay && p.encoding == encoding)
    }

    /// Full-mesh bytes ratio Dense / Delta — the codec's compression factor
    /// with the topology held fixed.
    pub fn dense_over_delta(&self) -> f64 {
        let dense = self.point(OverlayTopology::FullMesh, Encoding::Dense);
        let delta = self.point(OverlayTopology::FullMesh, Encoding::Delta);
        match (dense, delta) {
            (Some(d), Some(v)) if v.gossip_bytes > 0 => {
                d.gossip_bytes as f64 / v.gossip_bytes as f64
            }
            _ => 0.0,
        }
    }

    /// Worst view divergence from the full-mesh baseline across all points.
    pub fn worst_divergence(&self) -> f64 {
        self.points
            .iter()
            .map(|p| p.divergence_vs_mesh)
            .fold(0.0, f64::max)
    }

    /// Worst (latest) convergence time across points, `None` if any point
    /// never converged.
    pub fn worst_convergence_s(&self) -> Option<f64> {
        self.points
            .iter()
            .map(|p| p.convergence_s)
            .try_fold(0.0f64, |acc, c| c.map(|c| acc.max(c)))
    }
}

/// Worst per-user absolute difference between two runs' final site views.
fn view_gap(a: &SimResult, b: &SimResult) -> f64 {
    let mut worst = 0.0f64;
    for (ga, gb) in a.site_usage_views.iter().zip(&b.site_usage_views) {
        for user in ga.keys().chain(gb.keys()) {
            let x = ga.get(user).copied().unwrap_or(0.0);
            let y = gb.get(user).copied().unwrap_or(0.0);
            worst = worst.max((x - y).abs());
        }
    }
    worst
}

/// Run the full overlay × encoding grid on `shape`. Jobs submit over the
/// first [`SUBMIT_WINDOW_S`] seconds — sized well under capacity so the
/// workload quiesces and the drain tail measures pure gossip convergence.
/// Every run shares the trace and seed (42); only the overlay and the wire
/// encoding vary. The publish cadence is tightened to 60 s (refreshes stay
/// at the production 180 s) so multi-hop propagation completes well inside
/// the drain tail.
pub fn run_gossip_sweep(shape: &Shape) -> GossipSweep {
    let users = synthetic_users(shape.users);
    let trace = cycle_trace(
        &users,
        shape.jobs,
        |i| i as f64 * SUBMIT_WINDOW_S / shape.jobs.max(1) as f64,
        |_| 120.0,
    );
    // The cycling trace activates `min(users, jobs)` distinct users.
    let active_users = shape.users.min(shape.jobs).max(1);
    let combos: Vec<(OverlayTopology, Encoding)> = OVERLAYS
        .iter()
        .flat_map(|&o| [(o, Encoding::Dense), (o, Encoding::Delta)])
        .collect();
    let results = parallel_sweep(&combos, |&(overlay, encoding)| {
        let mut sc = GridScenario::equal_share_users(shape.users, 42)
            .sites(shape.sites)
            .nodes_per_site(shape.nodes_per_site)
            .with_metrics_user_cap(8)
            .with_overlay(overlay)
            .with_encoding(encoding);
        sc.timings.uss_publish_interval_s = 60.0;
        GridSimulation::new(sc).run(&trace, HORIZON_S)
    });
    let baseline = &results[0]; // FullMesh / Dense
    let points = combos
        .iter()
        .zip(&results)
        .map(|(&(overlay, encoding), result)| {
            let gossip_bytes = result.metrics.total_gossip_bytes();
            GossipPoint {
                overlay,
                encoding,
                gossip_bytes,
                bytes_per_user: gossip_bytes as f64 / active_users as f64,
                convergence_s: result.metrics.view_convergence_time(1e-6),
                divergence_vs_mesh: view_gap(result, baseline),
                completed: result.total_completed(),
            }
        })
        .collect();
    GossipSweep { points }
}

fn record(user: &GridUser, start_s: f64) -> UsageRecord {
    UsageRecord {
        job: JobId(0),
        user: user.clone(),
        site: SiteId(0),
        cores: 1,
        start_s,
        end_s: start_s + 7.0,
    }
}

/// Minimum over `reps` of one `Uss::publish` with exactly one freshly
/// ingested user to send, in microseconds, on a forwarding site that knows
/// `users` local users and mirrors 9 origins of as many — every one of
/// them already published or relayed. The cost of a publish should be set
/// by the one user, not by the hundred thousand cells behind them.
pub fn publish_one_fresh_us(users: usize, reps: usize) -> f64 {
    const SLOT_S: f64 = 100.0;
    let names: Vec<GridUser> = synthetic_users(users)
        .into_iter()
        .map(GridUser::new)
        .collect();
    let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, SLOT_S);
    uss.set_forwarding(true);
    for user in &names {
        uss.ingest(&record(user, 10.0));
    }
    for origin in 1..=9 {
        let summary = Arc::new(Publication::new(UsageSummary {
            site: SiteId(origin),
            seq: 1,
            slot_s: SLOT_S,
            per_user: names
                .iter()
                .map(|u| (u.clone(), [(0, 5.0)].into()))
                .collect(),
            relayed: Default::default(),
        }));
        uss.receive_message(&UssMessage::Summary { summary, ctx: None }, 500.0);
    }
    let everything = uss.publish(500.0).expect("first publication");
    assert_eq!(
        (everything.per_user.len(), everything.relayed.len()),
        (users, 9)
    );
    let mut best = f64::INFINITY;
    for rep in 0..reps {
        uss.ingest(&record(&names[(rep * 7919) % users], 110.0)); // a closed slot
        let t = Instant::now();
        let summary = std::hint::black_box(uss.publish(500.0));
        best = best.min(t.elapsed().as_nanos() as f64);
        assert_eq!(
            summary.map(|s| s.cells()),
            Some(1),
            "exactly the fresh cell"
        );
    }
    best / 1_000.0
}

/// Nanoseconds per user of merging one delivered publication of 64 users
/// — one raised cell each, spread over the id space — into a site over a
/// base of `users` names whose origin mirror and remote histogram already
/// hold every one of them: the whole delivery (check, merge, ack), minimum
/// over `reps` publications. The merge should cost the users it carries,
/// at the same price per user whatever the site knows.
pub fn merge_one_user_ns(users: usize, reps: usize) -> f64 {
    const SLOT_S: f64 = 100.0;
    const MERGED: usize = 64;
    let names: Arc<[GridUser]> = synthetic_users(users)
        .into_iter()
        .map(GridUser::new)
        .collect();
    let table = UserTable::new(Arc::clone(&names));
    let mut uss = Uss::with_users(SiteId(0), ParticipationMode::Full, SLOT_S, table);
    let publication = |seq: u64, per_user: UserCells| {
        let summary = Arc::new(Publication::new(UsageSummary {
            site: SiteId(1),
            seq,
            slot_s: SLOT_S,
            per_user,
            relayed: Default::default(),
        }));
        UssMessage::Summary { summary, ctx: None }
    };
    let everyone = names.iter().map(|u| (u.clone(), vec![(0, 5.0)]));
    uss.receive_message(&publication(1, everyone.collect()), 0.0);
    let deliveries: Vec<UssMessage> = (0..reps)
        .map(|rep| {
            let pick = |k| &names[(k * users / MERGED + rep * 7919) % users];
            let raised = (0..MERGED).map(|k| (pick(k).clone(), vec![(0, 6.0 + rep as f64)]));
            publication(rep as u64 + 2, raised.collect())
        })
        .collect();
    let mut deliveries = deliveries.iter();
    let delivery_ns = min_ns(reps, || {
        let delivered = deliveries.next().map(|msg| uss.receive_message(msg, 0.0));
        delivered.map(|acks| acks.len())
    });
    assert_eq!(uss.duplicates(), 0, "every publication raised its cells");
    delivery_ns / MERGED as f64
}

/// Nanoseconds per cell of merging one delivered publication of 32 cells —
/// 8 per user, spread over the users' histories — into a site that already
/// holds 4 users × 2,000 slots from the same origin (the even slots below
/// 4,000), in its mirror and its remote histogram: the whole delivery
/// (check, merge, ack), minimum of 24 batches of one publication each.
/// Every publication raises every cell it carries, and one of them is a
/// slot the site does not hold yet, inside its user's history — an insert
/// into the middle of the row, not an append at its end.
pub fn merge_ns_per_cell() -> f64 {
    const SLOT_S: f64 = 100.0;
    const USERS: u64 = 4;
    const SLOTS: u64 = 2_000;
    const BATCHES: u64 = 24;
    let publication = |seq: u64, slots: &dyn Fn(u64) -> Vec<u64>, value: f64| {
        let cells = |u| slots(u).into_iter().map(|slot| (slot, value)).collect();
        let per_user = (0..USERS).map(|u| (GridUser::new(format!("u{u}")), cells(u)));
        let summary = Arc::new(Publication::new(UsageSummary {
            site: SiteId(1),
            seq,
            slot_s: SLOT_S,
            per_user: per_user.collect(),
            relayed: Default::default(),
        }));
        UssMessage::Summary { summary, ctx: None }
    };
    let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, SLOT_S);
    let history = publication(1, &|_| (0..SLOTS).map(|s| 2 * s).collect(), 1.0);
    uss.receive_message(&history, 0.0);
    let batches: Vec<UssMessage> = (0..BATCHES)
        .map(|b| {
            let held = |k, u| 2 * ((k * 250 + b * 7 + u) % SLOTS);
            let new = |k, u| u64::from(k == b % 8 && u == b % 4);
            let spread = |u| (0..8).map(|k| held(k, u) + new(k, u)).collect();
            publication(b + 2, &spread, 2.0 + b as f64)
        })
        .collect();
    let mut batches = batches.iter();
    let batch_ns = min_ns(BATCHES as usize, || {
        let delivered = batches.next().map(|msg| uss.receive_message(msg, 0.0));
        delivered.map(|acks| acks.len())
    });
    assert_eq!(uss.duplicates(), 0, "every publication raised its cells");
    batch_ns / (USERS * 8) as f64
}

/// Minimum over `reps` of one `GridScenario::tracked_users` on a flat
/// policy of `users` equal-share leaves, in microseconds.
pub fn tracked_users_us(users: usize, reps: usize) -> f64 {
    let sc = GridScenario::equal_share_users(users, 42);
    assert_eq!(sc.tracked_users().len(), users);
    min_ns(reps, || sc.tracked_users()) / 1_000.0
}

/// Minimum over `reps` of one incremental `Fcs::refresh` after `dirty` users'
/// usage moved, in microseconds, on a flat policy of `users` equal-share
/// leaves: it should cost the dirty paths plus one add pass over the group,
/// not a derivation and a projection per sibling.
pub fn fcs_refresh_us(users: usize, dirty: usize, reps: usize) -> f64 {
    let policy = GridScenario::equal_share_users(users, 42).policy;
    let names = policy.layout().users().clone();
    let table = UserTable::new(names.clone());
    let mut uss = Uss::with_users(SiteId(0), ParticipationMode::Full, 60.0, table);
    let (mut pds, mut ums) = (Pds::new(policy), Ums::new(0.0, DecayPolicy::None));
    let mut fcs = Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 0.0);
    let mut best = f64::INFINITY;
    // Lap 0 charges everyone and is the full build; 17 is coprime to the
    // sizes probed, so a lap's users are distinct.
    for rep in 0..=reps {
        let moved = if rep == 0 { users } else { dirty };
        for j in 0..moved {
            uss.ingest(&record(&names[(rep * 7919 + j * 17) % users], 0.0));
        }
        ums.refresh(&mut uss, rep as f64);
        let t = Instant::now();
        fcs.refresh(&mut pds, &mut ums, uss.users_mut(), rep as f64);
        best = best.min(t.elapsed().as_nanos() as f64);
        assert_eq!(fcs.last_recompute().nodes_recomputed, moved as u64 + 1);
    }
    best / 1_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_probes_hold_their_shapes() {
        assert!(publish_one_fresh_us(40, 3) > 0.0);
        assert!(merge_one_user_ns(200, 3) > 0.0);
        assert!(tracked_users_us(40, 2) > 0.0);
        assert!(fcs_refresh_us(40, 3, 2) > 0.0);
        assert!(merge_ns_per_cell() > 0.0);
    }

    /// A miniature sweep: the views agree across every topology/encoding,
    /// Delta is strictly smaller than Dense, and hierarchies use fewer
    /// bytes than the mesh.
    #[test]
    fn tiny_sweep_holds_the_invariants() {
        let shape = Shape {
            users: 64,
            sites: 8,
            nodes_per_site: 2,
            jobs: 64,
        };
        let sweep = run_gossip_sweep(&shape);
        assert_eq!(sweep.points.len(), 6);
        let completed = sweep.points[0].completed;
        assert!(completed > 0);
        for p in &sweep.points {
            assert_eq!(p.completed, completed, "{:?}/{:?}", p.overlay, p.encoding);
            assert!(
                p.divergence_vs_mesh <= 1e-9,
                "{:?}/{:?} diverged by {}",
                p.overlay,
                p.encoding,
                p.divergence_vs_mesh
            );
            assert!(
                p.convergence_s.is_some(),
                "{:?}/{:?}",
                p.overlay,
                p.encoding
            );
            assert!(p.gossip_bytes > 0);
        }
        assert!(sweep.dense_over_delta() > 1.0);
        // At 8 sites only the tree's link cut outweighs relay duplication;
        // the hub overlay's multi-path hub↔hub sections need the O(sites²)
        // mesh cost of larger fleets to pay off, so it is reported here but
        // only gated at the sweep's real shapes.
        let mesh = sweep
            .point(OverlayTopology::FullMesh, Encoding::Delta)
            .unwrap();
        let tree = sweep.point(OVERLAYS[1], Encoding::Delta).unwrap();
        assert!(
            tree.gossip_bytes < mesh.gossip_bytes,
            "tree must beat the mesh: {} !< {}",
            tree.gossip_bytes,
            mesh.gossip_bytes
        );
    }
}
