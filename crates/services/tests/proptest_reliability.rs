//! Property tests of the USS reliability protocol: under arbitrary
//! interleavings of publish, drop, reorder, duplication, and resync, no
//! (user, slot) charge is ever double-counted, and once the network stops
//! misbehaving every site converges to exactly the sum of the charges its
//! peers published. A third property pins the incrementally maintained
//! usage row to `Uss::grid_view()` bit for bit through the same chaos plus
//! crashes, checkpoint reinstalls and stale-policy flips. After every step
//! of the first two, each site's per-link counters sum to its totals.

use aequus_core::usage::{UsageRecord, UsageRow};
use aequus_core::{GridUser, JobId, SiteId, UserTable};
use aequus_services::{LinkSide, ParticipationMode, RetryPolicy, StalePolicy, Uss, UssMessage};
use aequus_store::CheckpointState;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

const SITES: usize = 3;
const USERS: [&str; 3] = ["alice", "bob", "carol"];
const SLOT_S: f64 = 100.0;

/// An in-flight message: (destination, payload).
type Wire = Vec<(SiteId, UssMessage)>;

struct Grid {
    /// alice and bob, ranked: the sampler's user base — and site 0's own
    /// (its rows are synced by id); the other sites' tables are built over
    /// nothing (synced by name).
    base: Arc<[GridUser]>,
    sites: Vec<Uss>,
    wire: Wire,
    now_s: f64,
}

impl Grid {
    fn new(seed: u64) -> Self {
        let peers: Vec<SiteId> = (0..SITES as u32).map(SiteId).collect();
        let retry = RetryPolicy {
            ack_timeout_s: 20.0,
            max_backoff_s: 80.0,
            jitter_frac: 0.1,
            history_cap: 4, // tiny retention: resyncs often fall back to snapshots
            outbox_cap: 4,
        };
        let base: Arc<[GridUser]> = USERS[..2].iter().copied().map(GridUser::new).collect();
        let sites = (0..SITES as u32)
            .map(|i| {
                let users = if i == 0 {
                    UserTable::new(Arc::clone(&base))
                } else {
                    UserTable::default()
                };
                let mut u = Uss::with_users(SiteId(i), ParticipationMode::Full, SLOT_S, users);
                u.set_peers(&peers, &peers);
                u.configure_reliability(retry, seed.wrapping_add(i as u64));
                u
            })
            .collect();
        Self {
            base,
            sites,
            wire: Vec::new(),
            // Start past the largest single charge so records never reach
            // back before t = 0 (the histogram clamps there).
            now_s: 200.0,
        }
    }

    fn ingest(&mut self, site: usize, user: usize, charge_s: f64) {
        let rec = UsageRecord {
            job: JobId((site as u64) << 32 | self.now_s as u64),
            user: GridUser::new(USERS[user]),
            site: SiteId(site as u32),
            cores: 1,
            start_s: self.now_s - charge_s,
            end_s: self.now_s,
        };
        self.sites[site].ingest(&rec);
    }

    /// Advance time and let every site publish + flush its retry queue onto
    /// the wire.
    fn tick(&mut self, dt: f64) {
        self.now_s += dt;
        for i in 0..SITES {
            let now = self.now_s;
            self.sites[i].publish(now);
            let out = self.sites[i].poll(now);
            self.wire.extend(out);
        }
    }

    /// Deliver the wire message at `idx`, feeding any responses (acks,
    /// resync pulls, snapshots) back onto the wire.
    fn deliver(&mut self, idx: usize) {
        if self.wire.is_empty() {
            return;
        }
        let (to, msg) = self.wire.remove(idx % self.wire.len());
        let responses = self.sites[to.0 as usize].receive_message(&msg, self.now_s);
        self.wire.extend(responses);
    }

    /// Re-deliver a message without consuming it (network duplication).
    fn duplicate(&mut self, idx: usize) {
        if self.wire.is_empty() {
            return;
        }
        let (to, msg) = self.wire[idx % self.wire.len()].clone();
        let responses = self.sites[to.0 as usize].receive_message(&msg, self.now_s);
        self.wire.extend(responses);
    }

    fn drop_message(&mut self, idx: usize) {
        if !self.wire.is_empty() {
            let i = idx % self.wire.len();
            self.wire.remove(i);
        }
    }

    fn reorder(&mut self, idx: usize) {
        if self.wire.len() > 1 {
            let i = idx % self.wire.len();
            let m = self.wire.remove(i);
            self.wire.push(m);
        }
    }

    /// What each user's fully-merged grid view must converge to: the sum of
    /// local charges across all sites.
    fn published_truth(&self) -> BTreeMap<GridUser, f64> {
        let mut truth = BTreeMap::new();
        for site in &self.sites {
            for user in USERS {
                let u = GridUser::new(user);
                *truth.entry(u.clone()).or_insert(0.0) += site.local_usage_of(&u);
            }
        }
        truth
    }

    /// The no-double-count invariant, checkable at ANY point: a site's
    /// merged remote usage for a user never exceeds what its peers actually
    /// accrued locally — retries, duplicates, snapshots, and overlapping
    /// resync ranges must never inflate a charge.
    fn assert_never_overcounts(&self) {
        for (i, site) in self.sites.iter().enumerate() {
            for user in USERS {
                let u = GridUser::new(user);
                let remote = site.remote_usage_of(&u);
                let peers_local: f64 = self
                    .sites
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, s)| s.local_usage_of(&u))
                    .sum();
                assert!(
                    remote <= peers_local + 1e-9,
                    "site {i} overcounts {user}: remote {remote} > peers' local {peers_local}"
                );
            }
        }
    }

    /// One count per fact: every site's per-link retries, snapshots, gaps
    /// and resyncs are shares of its totals — across a crash too.
    fn assert_link_counts_sum_to_totals(&self) {
        for site in &self.sites {
            let mut sums = [0u64; 4];
            for row in site.link_stats(self.now_s) {
                match row.side {
                    LinkSide::Tx {
                        retries, snapshots, ..
                    } => (sums[0], sums[1]) = (sums[0] + retries, sums[1] + snapshots),
                    LinkSide::Rx { gaps, resyncs, .. } => {
                        (sums[2], sums[3]) = (sums[2] + gaps, sums[3] + resyncs)
                    }
                }
            }
            let (retries, snapshots) = (site.retries(), site.snapshots_sent());
            let totals = [retries, snapshots, site.seq_gaps(), site.resyncs()];
            assert_eq!(sums, totals, "{:?}: link rows vs totals", site.site());
        }
    }

    /// Faults stop: run publish/poll/deliver-everything rounds until the
    /// wire drains and views stop changing.
    fn quiesce(&mut self) {
        for _ in 0..200 {
            self.tick(SLOT_S);
            while !self.wire.is_empty() {
                self.deliver(0);
            }
        }
    }
}

/// `row` must hold exactly what `site.grid_view()` holds, bit for bit: the
/// indexed users densely (absent = 0), everyone else in the sorted overflow.
fn assert_row_is_view(site: &Uss, index: &[GridUser], row: &UsageRow) -> Result<(), String> {
    let mut outside = site.grid_view();
    for (user, got) in index.iter().zip(&row.dense) {
        let want = outside.remove(user).unwrap_or(0.0);
        if got.to_bits() != want.to_bits() {
            return Err(format!("{:?} {user} row {got:?} != {want:?}", site.site()));
        }
    }
    let bits = |m: &BTreeMap<GridUser, f64>| -> Vec<(GridUser, u64)> {
        m.iter().map(|(u, v)| (u.clone(), v.to_bits())).collect()
    };
    if row.dense.len() != index.len() || bits(&row.overflow) != bits(&outside) {
        return Err(format!("overflow {:?} != {outside:?}", row.overflow));
    }
    Ok(())
}

fn ops_strategy() -> impl Strategy<Value = Vec<(u8, u8, u8, u16)>> {
    // (op, site, user, magnitude): op 0 = ingest, 1 = tick, 2 = deliver,
    // 3 = drop, 4 = reorder, 5 = duplicate.
    proptest::collection::vec((0u8..6, 0u8..SITES as u8, 0u8..3, 0u16..1000), 10..120)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_interleavings_never_double_count_and_converge(
        ops in ops_strategy(),
        seed in 0u64..1000,
    ) {
        let mut grid = Grid::new(seed);
        for (op, site, user, mag) in ops {
            match op {
                0 => grid.ingest(site as usize, user as usize, 1.0 + mag as f64 / 10.0),
                1 => grid.tick(10.0 + (mag % 50) as f64),
                2 => grid.deliver(mag as usize),
                3 => grid.drop_message(mag as usize),
                4 => grid.reorder(mag as usize),
                5 => grid.duplicate(mag as usize),
                _ => unreachable!(),
            }
            grid.assert_never_overcounts();
            grid.assert_link_counts_sum_to_totals();
        }
        grid.quiesce();
        grid.assert_never_overcounts();
        // Convergence: every site's merged view equals the sum of published
        // charges, exactly (within float tolerance) — dropped summaries were
        // retried, gaps resynced, nothing lost, nothing duplicated.
        let truth = grid.published_truth();
        for (i, site) in grid.sites.iter().enumerate() {
            let view = site.grid_view();
            for (user, want) in &truth {
                let got = view.get(user).copied().unwrap_or(0.0);
                prop_assert!(
                    (got - want).abs() < 1e-9,
                    "site {} view of {:?}: {} vs published {}",
                    i, user, got, want
                );
            }
        }
    }

    #[test]
    fn crash_amid_chaos_still_converges(
        ops in ops_strategy(),
        crash_at in 5usize..40,
        seed in 0u64..1000,
    ) {
        // One site crashes mid-interleaving (volatile exchange state wiped,
        // local accounting survives); on recovery it requests snapshot
        // catch-up. The same convergence bound must hold.
        let mut grid = Grid::new(seed);
        for (step, (op, site, user, mag)) in ops.into_iter().enumerate() {
            if step == crash_at {
                grid.sites[1].crash();
                grid.sites[1].request_catchup();
            }
            match op {
                0 => grid.ingest(site as usize, user as usize, 1.0 + mag as f64 / 10.0),
                1 => grid.tick(10.0 + (mag % 50) as f64),
                2 => grid.deliver(mag as usize),
                3 => grid.drop_message(mag as usize),
                4 => grid.reorder(mag as usize),
                5 => grid.duplicate(mag as usize),
                _ => unreachable!(),
            }
            grid.assert_link_counts_sum_to_totals();
        }
        grid.quiesce();
        grid.assert_never_overcounts();
        let truth = grid.published_truth();
        for (i, site) in grid.sites.iter().enumerate() {
            let view = site.grid_view();
            for (user, want) in &truth {
                let got = view.get(user).copied().unwrap_or(0.0);
                prop_assert!(
                    (got - want).abs() < 1e-9,
                    "post-crash site {} view of {:?}: {} vs {}",
                    i, user, got, want
                );
            }
        }
    }

    #[test]
    fn view_row_tracks_grid_view_bit_for_bit(
        // Ops 0..=5 as above; 6 = crash + catch-up request, 7 = store-mode
        // crash then checkpoint reinstall, 8 = staleness check (flips the
        // stale policy's remote suppression on after 60 s of silence from a
        // peer and off again once both have been heard).
        ops in proptest::collection::vec((0u8..9, 0u8..SITES as u8, 0u8..3, 0u16..1000), 10..160),
        seed in 0u64..1000,
    ) {
        let mut grid = Grid::new(seed);
        for site in &mut grid.sites {
            site.set_stale_policy(StalePolicy::LocalOnly { max_staleness_s: 60.0 });
        }
        // carol is outside the index: her usage lives in the overflow.
        let index = Arc::clone(&grid.base);
        let mut rows = vec![UsageRow::default(); SITES];
        for (op, site, user, mag) in ops {
            let at = site as usize;
            match op {
                0 => grid.ingest(at, user as usize, 1.0 + mag as f64 / 10.0),
                1 => grid.tick(10.0 + (mag % 50) as f64),
                2 => grid.deliver(mag as usize),
                3 => grid.drop_message(mag as usize),
                4 => grid.reorder(mag as usize),
                5 => grid.duplicate(mag as usize),
                6 => {
                    grid.sites[at].crash();
                    grid.sites[at].request_catchup();
                }
                7 => {
                    let view = grid.sites[at].checkpoint_view(0, grid.now_s);
                    let ckpt = CheckpointState::decode_slot(&view.encode()).expect("fresh slot");
                    grid.sites[at].crash_volatile();
                    // A sample lands between the crash and the reinstall.
                    grid.sites[at].sync_view_row(&index, &mut rows[at]);
                    prop_assert!(grid.sites[at].install_checkpoint(&ckpt).is_ok());
                }
                8 => {
                    grid.sites[at].update_staleness(grid.now_s);
                }
                _ => unreachable!(),
            }
            // Sync one row on a third of the steps, so change sets pile up
            // over several mutations (and kinds of mutation) between syncs.
            if mag % 3 == 0 {
                grid.sites[at].sync_view_row(&index, &mut rows[at]);
                let ok = assert_row_is_view(&grid.sites[at], &index, &rows[at]);
                prop_assert!(ok.is_ok(), "{}", ok.unwrap_err());
            }
        }
        for (site, row) in grid.sites.iter_mut().zip(&mut rows) {
            site.sync_view_row(&index, row);
            let ok = assert_row_is_view(site, &index, row);
            prop_assert!(ok.is_ok(), "final {}", ok.unwrap_err());
        }
    }
}
