//! Usage accounting (§II-A constituent 2): per-job usage records are rolled
//! up into per-user, per-interval histograms; sites exchange these in a
//! compact form "relaying the combined usage of each user on each site while
//! omitting the details of individual jobs".

use crate::decay::DecayPolicy;
use crate::ids::{GridUser, JobId, SiteId};
use std::cell::Cell;
use std::collections::BTreeMap;

/// Per-user charge per slot index — the cell grid summaries and mirrors
/// are built from.
pub type UserCells = BTreeMap<GridUser, BTreeMap<u64, f64>>;

/// The resource consumption of one completed job.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageRecord {
    /// Job identity.
    pub job: JobId,
    /// Grid identity of the owning user.
    pub user: GridUser,
    /// Site where the job executed.
    pub site: SiteId,
    /// Cores occupied.
    pub cores: u32,
    /// Execution start, seconds.
    pub start_s: f64,
    /// Execution end, seconds (≥ start).
    pub end_s: f64,
}

impl UsageRecord {
    /// Charged usage: core-seconds of wall-clock occupancy.
    pub fn charge(&self) -> f64 {
        self.cores as f64 * (self.end_s - self.start_s).max(0.0)
    }
}

/// Per-user usage histogram over fixed time slots ("per-user histograms for
/// configurable time intervals", §II-A).
///
/// Job charges are spread proportionally over the slots the job's execution
/// overlaps, so long jobs decay gradually rather than as a lump at
/// completion.
#[derive(Debug, Clone)]
pub struct UsageHistogram {
    slot_s: f64,
    /// charge per (user, slot index).
    slots: BTreeMap<GridUser, UserSlots>,
    /// Total charge currently held, for conservation checks.
    total: f64,
}

/// One user's cells plus the cached slot-order sum of their charges, so a
/// raw-usage readout is `O(1)` for every user untouched since the last one.
#[derive(Debug, Clone, Default)]
struct UserSlots {
    cells: BTreeMap<u64, f64>,
    /// `None` once any cell changed; the next [`UserSlots::raw`] re-sums in
    /// slot order (never patched incrementally — the sum must keep the bits
    /// a from-scratch readout would produce).
    raw: Cell<Option<f64>>,
}

impl UserSlots {
    /// Mutable access to the cells; invalidates the cached total.
    fn cells_mut(&mut self) -> &mut BTreeMap<u64, f64> {
        self.raw.set(None);
        &mut self.cells
    }

    /// Slot-order sum of the cells. `O(1)` when cached, `O(slots)` after a
    /// change.
    fn raw(&self) -> f64 {
        self.raw.get().unwrap_or_else(|| {
            let sum = self.cells.values().sum();
            self.raw.set(Some(sum));
            sum
        })
    }
}

impl UsageHistogram {
    /// Create a histogram with the given slot duration in seconds.
    ///
    /// # Panics
    /// Panics if `slot_s` is not strictly positive.
    pub fn new(slot_s: f64) -> Self {
        assert!(slot_s > 0.0, "slot duration must be positive");
        Self {
            slot_s,
            slots: BTreeMap::new(),
            total: 0.0,
        }
    }

    /// Slot duration in seconds.
    pub fn slot_duration(&self) -> f64 {
        self.slot_s
    }

    /// Record a completed job, spreading its charge across overlapped slots.
    /// Returns the lowest slot the record may have changed (`None` when it
    /// charges nothing) — where a publisher's diff resumes.
    pub fn record(&mut self, rec: &UsageRecord) -> Option<u64> {
        let charge = rec.charge();
        if charge <= 0.0 {
            return None;
        }
        self.total += charge;
        let user_slots = self.slots.entry(rec.user.clone()).or_default().cells_mut();
        let first = (rec.start_s / self.slot_s).floor().max(0.0) as u64;
        let last = (rec.end_s / self.slot_s).floor().max(0.0) as u64;
        if first == last {
            *user_slots.entry(first).or_insert(0.0) += charge;
            return Some(first);
        }
        let rate = rec.cores as f64; // core-seconds per second
        for slot in first..=last {
            let slot_start = slot as f64 * self.slot_s;
            let slot_end = slot_start + self.slot_s;
            let overlap = rec.end_s.min(slot_end) - rec.start_s.max(slot_start);
            if overlap > 0.0 {
                *user_slots.entry(slot).or_insert(0.0) += rate * overlap;
            }
        }
        Some(first)
    }

    /// Add core-seconds to cells of one user, `(slot, charge)` in the order
    /// given, under one lookup of the user. This is the receiver-side
    /// primitive of the reliable exchange: the USS computes the positive
    /// delta of an incoming cell against its per-peer mirror and applies
    /// exactly that, so duplicated or reordered deliveries never
    /// double-count. Non-positive charges are ignored.
    pub fn add_charges(&mut self, user: &GridUser, cells: impl IntoIterator<Item = (u64, f64)>) {
        let mut cells = cells.into_iter().filter(|(_, c)| *c > 0.0).peekable();
        if cells.peek().is_none() {
            return;
        }
        let user_slots = self.slots.entry(user.clone()).or_default().cells_mut();
        for (slot, charge) in cells {
            *user_slots.entry(slot).or_insert(0.0) += charge;
            self.total += charge;
        }
    }

    /// One user's cells, read in place.
    pub fn cells_of(&self, user: &GridUser) -> Option<&BTreeMap<u64, f64>> {
        self.slots.get(user).map(|s| &s.cells)
    }

    /// Every user's cells in name order, read in place (users holding no
    /// cell are skipped) — what a checkpoint encodes without cloning.
    pub fn cells(&self) -> impl Iterator<Item = (&GridUser, &BTreeMap<u64, f64>)> {
        let held = self.slots.iter().filter(|(_, s)| !s.cells.is_empty());
        held.map(|(user, s)| (user, &s.cells))
    }

    /// Decay-weighted total usage of `user` as seen at time `now_s`.
    pub fn decayed_usage(&self, user: &GridUser, now_s: f64, decay: DecayPolicy) -> f64 {
        let Some(slots) = self.slots.get(user) else {
            return 0.0;
        };
        slots
            .cells
            .iter()
            .map(|(&slot, &charge)| {
                let slot_center = (slot as f64 + 0.5) * self.slot_s;
                charge * decay.weight(now_s - slot_center)
            })
            .sum()
    }

    /// Usage of `user` weighted relative to a fixed reference epoch
    /// (separable decays only; see [`DecayPolicy::epoch_weight`]). Equal to
    /// the decayed usage at `epoch_s` up to the unclamped handling of slots
    /// newer than the epoch. The incremental UMS caches these weights so
    /// advancing time never dirties unchanged users.
    pub fn epoch_usage(&self, user: &GridUser, epoch_s: f64, decay: DecayPolicy) -> f64 {
        let Some(slots) = self.slots.get(user) else {
            return 0.0;
        };
        slots
            .cells
            .iter()
            .map(|(&slot, &charge)| {
                let slot_center = (slot as f64 + 0.5) * self.slot_s;
                charge * decay.epoch_weight(epoch_s - slot_center)
            })
            .sum()
    }

    /// Raw (undecayed) total usage of `user`: the slot-order sum of its
    /// cells, cached per user until one of them changes.
    pub fn raw_usage(&self, user: &GridUser) -> f64 {
        self.slots.get(user).map_or(0.0, UserSlots::raw)
    }

    /// Total charge held across all users (conservation invariant: equals
    /// the sum of `raw_usage` over all users, compaction included).
    pub fn total_recorded(&self) -> f64 {
        self.total
    }

    /// All users with recorded usage.
    pub fn users(&self) -> impl Iterator<Item = &GridUser> {
        self.slots.keys()
    }

    /// Decay-weighted usage for every user at once.
    pub fn decayed_all(&self, now_s: f64, decay: DecayPolicy) -> BTreeMap<GridUser, f64> {
        self.slots
            .keys()
            .map(|u| (u.clone(), self.decayed_usage(u, now_s, decay)))
            .collect()
    }
}

/// A grid-wide dense user index: a fixed user population ranked in name
/// order, so rank order equals `BTreeMap<GridUser, _>` iteration order.
/// Built once per run and shared read-only by everything that lays per-user
/// values out as a flat row ([`UsageRow`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UserIndex {
    users: Vec<GridUser>,
}

impl UserIndex {
    /// Index the given users (duplicates collapse).
    pub fn new(users: impl IntoIterator<Item = GridUser>) -> Self {
        let mut users: Vec<GridUser> = users.into_iter().collect();
        users.sort();
        users.dedup();
        Self { users }
    }

    /// Rank of `user` in name order — `O(log users)`; `None` for users
    /// outside the index.
    pub fn rank(&self, user: &GridUser) -> Option<usize> {
        self.users.binary_search(user).ok()
    }

    /// The indexed users, by rank.
    pub fn users(&self) -> &[GridUser] {
        &self.users
    }
}

/// One site's raw per-user usage view as a dense row over a [`UserIndex`],
/// plus a (normally empty) sorted overflow for users outside the index. A
/// user the site holds no usage for reads `0.0` — exactly how the
/// cross-site divergence treats a user missing from a view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UsageRow {
    /// Value per index rank.
    pub dense: Vec<f64>,
    /// Non-zero values of out-of-index users.
    pub overflow: BTreeMap<GridUser, f64>,
}

impl UsageRow {
    /// Reset to the all-zero row over `index`.
    pub fn clear(&mut self, index: &UserIndex) {
        self.dense.clear();
        self.dense.resize(index.users().len(), 0.0);
        self.overflow.clear();
    }

    /// Set one user's value — `O(log users)`.
    pub fn set(&mut self, index: &UserIndex, user: &GridUser, value: f64) {
        if let Some(rank) = index.rank(user) {
            self.dense[rank] = value;
        } else if value == 0.0 {
            self.overflow.remove(user);
        } else {
            self.overflow.insert(user.clone(), value);
        }
    }
}

/// Compact per-user usage totals exchanged between sites' USS services.
///
/// Summaries produced by the reliable exchange carry **absolute** cumulative
/// charge per included (user, slot) cell — not deltas. Per-cell charge is
/// monotone non-decreasing at the publisher, so receivers merge by taking
/// the positive difference against a per-peer mirror, which makes retries,
/// duplicates, reordering, and snapshot catch-up all idempotent.
#[derive(Debug, Clone, PartialEq)]
pub struct UsageSummary {
    /// Originating site.
    pub site: SiteId,
    /// Per-publisher monotonically increasing sequence number, 1-based.
    /// No publisher assigns `0`; a summary carrying it sits below every
    /// receive cursor, so receivers merge and acknowledge it like any
    /// other late duplicate.
    pub seq: u64,
    /// Slot duration the totals are binned with.
    pub slot_s: f64,
    /// Per-user charge per slot index (absolute cumulative values in the
    /// reliable exchange; see the struct docs).
    pub per_user: BTreeMap<GridUser, BTreeMap<u64, f64>>,
    /// Cells this publisher is *relaying* on behalf of other origins, keyed
    /// by originating site — the per-hop aggregation payload of the Tree
    /// and Hub overlays. Like `per_user`, values are absolute cumulative
    /// charge as last heard from the origin, so the positive-delta merge
    /// stays idempotent across any number of forwarding hops or delivery
    /// paths. Empty in full-mesh operation.
    pub relayed: BTreeMap<SiteId, UserCells>,
}

impl UsageSummary {
    /// Total charge carried by this summary, own and relayed sections.
    pub fn total(&self) -> f64 {
        let own: f64 = self.per_user.values().flat_map(|s| s.values()).sum();
        let relayed: f64 = self
            .relayed
            .values()
            .flat_map(|cells| cells.values().flat_map(|s| s.values()))
            .sum();
        own + relayed
    }

    /// Number of (user, slot) cells across all sections.
    pub fn cells(&self) -> usize {
        let own: usize = self.per_user.values().map(|s| s.len()).sum();
        let relayed: usize = self
            .relayed
            .values()
            .flat_map(|cells| cells.values().map(|s| s.len()))
            .sum();
        own + relayed
    }

    /// Serialized size in bytes under `enc` — the *actual* encoded length
    /// (see [`crate::codec`]), not a model, so gossip byte accounting in
    /// the profiler and the bench gates measure what the codec produces.
    pub fn wire_bytes(&self, enc: crate::codec::Encoding) -> u64 {
        crate::codec::encoded_size(self, enc) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(user: &str, cores: u32, start: f64, end: f64) -> UsageRecord {
        UsageRecord {
            job: JobId(0),
            user: GridUser::new(user),
            site: SiteId(0),
            cores,
            start_s: start,
            end_s: end,
        }
    }

    #[test]
    fn charge_is_core_seconds() {
        assert_eq!(rec("a", 4, 10.0, 20.0).charge(), 40.0);
        assert_eq!(rec("a", 4, 20.0, 10.0).charge(), 0.0);
    }

    #[test]
    fn record_single_slot() {
        let mut h = UsageHistogram::new(100.0);
        h.record(&rec("a", 1, 10.0, 30.0));
        assert_eq!(h.raw_usage(&GridUser::new("a")), 20.0);
        assert_eq!(h.raw_usage(&GridUser::new("b")), 0.0);
    }

    #[test]
    fn record_spreads_across_slots() {
        let mut h = UsageHistogram::new(100.0);
        // Job spans slots 0, 1, 2: 50s in slot 0, 100s in slot 1, 50s in slot 2.
        h.record(&rec("a", 2, 50.0, 250.0));
        let total = h.raw_usage(&GridUser::new("a"));
        assert!((total - 400.0).abs() < 1e-9);
        // Decay with a window covering only recent slots sees partial usage.
        let w = h.decayed_usage(
            &GridUser::new("a"),
            250.0,
            DecayPolicy::Window { window_s: 120.0 },
        );
        // Slot centers: 50 (age 200, out), 150 (age 100, in), 250 (age 0, in).
        assert!((w - (200.0 + 100.0)).abs() < 1e-9, "{w}");
    }

    #[test]
    fn conservation_total_equals_sum() {
        let mut h = UsageHistogram::new(60.0);
        h.record(&rec("a", 1, 0.0, 90.0));
        h.record(&rec("b", 3, 30.0, 150.0));
        h.record(&rec("a", 2, 200.0, 260.0));
        let sum: f64 = ["a", "b"]
            .iter()
            .map(|u| h.raw_usage(&GridUser::new(*u)))
            .sum();
        assert!((h.total_recorded() - sum).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_job_ignored() {
        let mut h = UsageHistogram::new(60.0);
        h.record(&rec("a", 8, 100.0, 100.0));
        assert_eq!(h.total_recorded(), 0.0);
    }

    #[test]
    fn cached_raw_usage_follows_every_mutation() {
        let (a, b) = (GridUser::new("a"), GridUser::new("b"));
        let mut h = UsageHistogram::new(100.0);
        h.record(&rec("a", 2, 1050.0, 1060.0));
        let conserved = |h: &UsageHistogram| {
            let sum = h.raw_usage(&a) + h.raw_usage(&b);
            assert!((h.total_recorded() - sum).abs() < 1e-9, "{sum}");
        };
        conserved(&h); // also fills the per-user total cache
        h.add_charges(&a, [(11, 5.0)]);
        assert_eq!(h.raw_usage(&a), 25.0);
        h.record(&rec("b", 1, 1000.0, 1030.0));
        assert_eq!(h.raw_usage(&b), 30.0);
        conserved(&h);
    }

    #[test]
    fn usage_row_dense_and_overflow() {
        let index = UserIndex::new(["b", "a", "b"].map(GridUser::new));
        assert_eq!(index.users(), ["a", "b"].map(GridUser::new));
        assert_eq!(index.rank(&GridUser::new("b")), Some(1));
        assert_eq!(index.rank(&GridUser::new("ghost")), None);
        let mut row = UsageRow::default();
        row.clear(&index);
        row.set(&index, &GridUser::new("b"), 3.0);
        row.set(&index, &GridUser::new("zed"), 7.0);
        row.set(&index, &GridUser::new("ghost"), 5.0);
        assert_eq!(row.dense, vec![0.0, 3.0]);
        assert_eq!(row.overflow.len(), 2);
        row.set(&index, &GridUser::new("ghost"), 0.0);
        assert_eq!(row.overflow.len(), 1, "zeroed overflow entries leave");
        assert_eq!(row.overflow[&GridUser::new("zed")], 7.0);
        row.clear(&index);
        assert_eq!(row.dense, vec![0.0, 0.0]);
        assert!(row.overflow.is_empty());
    }

    #[test]
    fn decay_none_sees_all_history() {
        let mut h = UsageHistogram::new(10.0);
        h.record(&rec("a", 1, 0.0, 10.0));
        let v = h.decayed_usage(&GridUser::new("a"), 1e9, DecayPolicy::None);
        assert!((v - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_slot_panics() {
        UsageHistogram::new(0.0);
    }

    #[test]
    fn add_charges_updates_cells_and_total() {
        let mut h = UsageHistogram::new(60.0);
        h.add_charges(&GridUser::new("a"), [(3, 25.0), (3, 5.0)]);
        h.add_charges(&GridUser::new("a"), [(4, -1.0), (4, 0.0)]); // ignored
        h.add_charges(&GridUser::new("b"), [(4, 0.0)]); // ignored: no entry either
        assert_eq!(h.users().count(), 1);
        assert!((h.raw_usage(&GridUser::new("a")) - 30.0).abs() < 1e-12);
        assert!((h.total_recorded() - 30.0).abs() < 1e-12);
    }
}
