//! Usage accounting (§II-A constituent 2): per-job usage records are rolled
//! up into per-user, per-interval histograms; sites exchange these in a
//! compact form "relaying the combined usage of each user on each site while
//! omitting the details of individual jobs".

use crate::arena::UserId;
use crate::ids::{GridUser, JobId, SiteId};
use std::cell::Cell;
use std::collections::btree_map::{BTreeMap, Entry};
use std::hash::{Hash, Hasher};

/// Per-user `(slot, charge)` rows, keyed by name — the cell grid of the edge
/// types (summaries, checkpoints, WAL records). A row is a [`CellStore`]
/// row: strictly increasing in slot. Unlike a store's, it may be empty.
pub type UserCells = BTreeMap<GridUser, Vec<(u64, f64)>>;

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

/// Charge per `(user, slot)`: one slot-sorted row per user, keyed by id —
/// the cell store under both histograms of a USS and every mirror it diffs
/// them against. Every entry point takes a whole user: one integer-keyed
/// descent finds the row, and each cell after it costs a compare against
/// the row's tail or a binary search of the row, never another descent.
/// A slot the row does not hold is inserted: amortised `O(1)` past the
/// tail, where new slots mostly land, but `O(row)` inside the row, which
/// shifts every later cell along (a lagging origin's backlog merging into
/// a long remote row). The store iterates in `(UserId, slot)` order —
/// over a [`UserTable`](crate::arena::UserTable)'s base that is name
/// order, the order the codecs write. No row is ever empty.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellStore {
    rows: BTreeMap<UserId, Vec<(u64, f64)>>,
}

/// Where `slot` sits in `row`: its index, or where it would be inserted.
/// The tail is checked first — a histogram mostly charges its latest slots.
fn locate(row: &[(u64, f64)], slot: u64) -> Result<usize, usize> {
    match row.last() {
        Some(&(last, _)) if last < slot => Err(row.len()),
        Some(&(last, _)) if last == slot => Ok(row.len() - 1),
        _ => row.binary_search_by_key(&slot, |&(held, _)| held),
    }
}

impl CellStore {
    /// Whether no cell is held.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// One user's cells from slot `from` on, in slot order.
    pub fn of(&self, user: UserId, from: u64) -> &[(u64, f64)] {
        let row = self.rows.get(&user).map_or(&[][..], Vec::as_slice);
        &row[row.partition_point(|&(slot, _)| slot < from)..]
    }

    /// Every user's row, in `(user, slot)` order.
    pub fn iter(&self) -> impl Iterator<Item = (UserId, &[(u64, f64)])> + Clone + '_ {
        self.rows.iter().map(|(&user, row)| (user, row.as_slice()))
    }

    /// The users holding a cell, ascending.
    pub fn users(&self) -> impl Iterator<Item = UserId> + '_ {
        self.rows.keys().copied()
    }

    /// Add each `(slot, charge)` to `user`'s cells, in the order given; a
    /// new cell holds `0.0 + charge`.
    pub fn add(&mut self, user: UserId, cells: impl IntoIterator<Item = (u64, f64)>) {
        self.edit(user, |row| {
            for (slot, charge) in cells {
                match locate(row, slot) {
                    Ok(at) => row[at].1 += charge,
                    Err(at) => row.insert(at, (slot, 0.0 + charge)),
                }
            }
        });
    }

    /// Raise each of `user`'s cells to the `(slot, value)` given when that
    /// is more than `eps` above what it holds (nothing, for an absent
    /// cell), calling `rose(slot, value, rise)` for each that rose. A cell
    /// is never lowered, and one that does not rise is not created.
    pub fn raise(
        &mut self,
        user: UserId,
        cells: impl IntoIterator<Item = (u64, f64)>,
        eps: f64,
        mut rose: impl FnMut(u64, f64, f64),
    ) {
        self.edit(user, |row| {
            for (slot, value) in cells {
                match locate(row, slot) {
                    Ok(at) if value - row[at].1 > eps => {
                        let rise = value - std::mem::replace(&mut row[at].1, value);
                        rose(slot, value, rise);
                    }
                    Err(at) if value > eps => {
                        row.insert(at, (slot, value));
                        rose(slot, value, value);
                    }
                    _ => {}
                }
            }
        });
    }

    /// Apply `f` to `user`'s row — one descent — keeping a new row only if
    /// `f` left a cell in it (a row never loses one).
    fn edit(&mut self, user: UserId, f: impl FnOnce(&mut Vec<(u64, f64)>)) {
        match self.rows.entry(user) {
            Entry::Occupied(row) => f(row.into_mut()),
            Entry::Vacant(free) => {
                let mut row = Vec::new();
                f(&mut row);
                if !row.is_empty() {
                    free.insert(row);
                }
            }
        }
    }
}

/// Charges by their bits: what the USS explorer fingerprints states with —
/// the cell count, then each `((user, slot), bits)` in order.
impl Hash for CellStore {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.rows.values().map(Vec::len).sum::<usize>().hash(h);
        for (&user, row) in &self.rows {
            (row.iter()).for_each(|&(slot, charge)| ((user, slot), charge.to_bits()).hash(h));
        }
    }
}

/// The head of a [`UsageHistogram::usage`] fold (default: the empty start).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Prefix {
    /// The first slot the prefix does not cover.
    pub slot: u64,
    /// The running sum over the cells below it.
    pub sum: f64,
}

/// A [`UsageHistogram::usage`] read: sum, prefix below the mark, cells passed.
pub type Fold = (f64, Prefix, usize);

/// Per-user usage histogram over fixed time slots ("per-user histograms for
/// configurable time intervals", §II-A), keyed by the [`UserId`]s of the
/// holder's [`UserTable`](crate::arena::UserTable).
///
/// Job charges are spread proportionally over the slots the job's execution
/// overlaps, so long jobs decay gradually rather than as a lump at
/// completion.
#[derive(Debug, Clone)]
pub struct UsageHistogram {
    slot_s: f64,
    cells: CellStore,
    /// Each user's raw total as last read, by id; `NaN` once a cell of
    /// theirs changed. Re-summed in slot order, never patched: a readout
    /// keeps the bits a from-scratch sum produces.
    raw: Vec<Cell<f64>>,
    /// Total charge currently held, for conservation checks.
    total: f64,
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
            cells: CellStore::default(),
            raw: Vec::new(),
            total: 0.0,
        }
    }

    /// Slot duration in seconds.
    pub fn slot_duration(&self) -> f64 {
        self.slot_s
    }

    /// Record a completed job of `user` (the id of `rec.user`), spreading
    /// its charge across overlapped slots. Returns the lowest slot the
    /// record may have changed (`None` when it charges nothing) — where a
    /// publisher's diff resumes.
    pub fn record(&mut self, user: UserId, rec: &UsageRecord) -> Option<u64> {
        let charge = rec.charge();
        if charge <= 0.0 {
            return None;
        }
        self.total += charge;
        self.touch(user);
        let first = (rec.start_s / self.slot_s).floor().max(0.0) as u64;
        let last = (rec.end_s / self.slot_s).floor().max(0.0) as u64;
        if first == last {
            self.cells.add(user, [(first, charge)]);
            return Some(first);
        }
        let rate = rec.cores as f64; // core-seconds per second
        let cells = (first..=last).filter_map(|slot| {
            let slot_start = slot as f64 * self.slot_s;
            let slot_end = slot_start + self.slot_s;
            let overlap = rec.end_s.min(slot_end) - rec.start_s.max(slot_start);
            (overlap > 0.0).then_some((slot, rate * overlap))
        });
        self.cells.add(user, cells);
        Some(first)
    }

    /// Add core-seconds to cells of one user, `(slot, charge)` in the order
    /// given. This is the receiver-side primitive of the reliable exchange:
    /// the USS computes the positive delta of an incoming cell against its
    /// per-origin mirror and applies exactly that, so duplicated or
    /// reordered deliveries never double-count. Non-positive charges are
    /// ignored.
    pub fn add_charges(&mut self, user: UserId, cells: impl IntoIterator<Item = (u64, f64)>) {
        self.touch(user);
        let cells = cells.into_iter().filter(|(_, c)| *c > 0.0);
        let cells = cells.inspect(|(_, c)| self.total += c);
        self.cells.add(user, cells);
    }

    /// The cells, read in place.
    pub fn cells(&self) -> &CellStore {
        &self.cells
    }

    /// `Σ charge · weigh(slot centre)` over `user`'s cells, in slot order:
    /// the decayed ([`DecayPolicy::weight`](crate::DecayPolicy::weight) of
    /// the centre's age), epoch-relative
    /// ([`epoch_weight`](crate::DecayPolicy::epoch_weight); what the incremental
    /// UMS caches, so that advancing time never dirties unchanged users)
    /// and raw readouts. One fold from `from` (by default `+0.0`: `sum`'s bits
    /// for non-negative terms, but `+0.0` for no cells) that also returns its
    /// prefix below `mark` (`≥ from.slot`); a fold resumed there ends on the
    /// same bits. Costs one descent and one binary search of the user's row,
    /// plus their cells from `from.slot` on.
    pub fn usage(&self, user: UserId, weigh: impl Fn(f64) -> f64, from: Prefix, mark: u64) -> Fold {
        debug_assert!(from.slot <= mark, "no prefix below the start");
        let (mut sum, mut below, mut passed) = (from.sum, Prefix { slot: mark, ..from }, 0);
        for &(slot, charge) in self.cells.of(user, from.slot) {
            sum += charge * weigh((slot as f64 + 0.5) * self.slot_s);
            if slot < mark {
                (below.sum, passed) = (sum, passed + 1);
            }
        }
        (sum, below, passed)
    }

    /// A cell of `user` is about to change: their cached total is stale.
    fn touch(&mut self, user: UserId) {
        if self.raw.len() <= user.index() {
            self.raw.resize(user.index() + 1, Cell::new(f64::NAN));
        }
        self.raw[user.index()].set(f64::NAN);
    }

    /// Raw (undecayed) total usage of `user`: `O(1)` until one of their
    /// cells changes, then one re-sum.
    pub fn raw_usage(&self, user: UserId) -> f64 {
        let Some(cached) = self.raw.get(user.index()) else {
            return 0.0; // never held a cell
        };
        if cached.get().is_nan() {
            cached.set(self.usage(user, |_| 1.0, Prefix::default(), 0).0);
        }
        cached.get()
    }

    /// Total charge held across all users (conservation invariant: equals
    /// the sum of `raw_usage` over all users, compaction included).
    pub fn total_recorded(&self) -> f64 {
        self.total
    }
}

/// By slots, total and cells: the cached readouts are derived (a stale one
/// reads `NaN`).
impl PartialEq for UsageHistogram {
    fn eq(&self, other: &Self) -> bool {
        (self.slot_s, self.total, &self.cells) == (other.slot_s, other.total, &other.cells)
    }
}

impl Hash for UsageHistogram {
    fn hash<H: Hasher>(&self, h: &mut H) {
        (self.slot_s.to_bits(), self.total.to_bits(), &self.cells).hash(h);
    }
}

/// One site's raw per-user usage view as a dense row over a shared,
/// name-ranked user base (a [`UserTable`](crate::arena::UserTable)'s), plus
/// a (normally empty) sorted overflow for users outside it — what sites with
/// different tables can still be compared by. A user the site holds no
/// usage for reads `0.0` — exactly how the cross-site divergence treats a
/// user missing from a view.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct UsageRow {
    /// Value per base rank.
    pub dense: Vec<f64>,
    /// Non-zero values of users outside the base.
    pub overflow: BTreeMap<GridUser, f64>,
}

impl UsageRow {
    /// Reset to the all-zero row over `base`.
    pub fn clear(&mut self, base: &[GridUser]) {
        self.dense.clear();
        self.dense.resize(base.len(), 0.0);
        self.overflow.clear();
    }

    /// Set one user's value by name — `O(log users)`.
    pub fn set(&mut self, base: &[GridUser], user: &GridUser, value: f64) {
        if let Ok(rank) = base.binary_search(user) {
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
    pub per_user: UserCells,
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
        let own: f64 = self.per_user.values().flatten().map(|c| c.1).sum();
        let relayed = self
            .relayed
            .values()
            .flat_map(|cells| cells.values().flatten());
        own + relayed.map(|c| c.1).sum::<f64>()
    }

    /// Number of (user, slot) cells across all sections.
    pub fn cells(&self) -> usize {
        let count = |cells: &UserCells| cells.values().map(Vec::len).sum::<usize>();
        count(&self.per_user) + self.relayed.values().map(count).sum::<usize>()
    }
}

/// Field by field, the site as its own section's origin, charges by their
/// bits, like [`CellStore`]'s.
impl Hash for UsageSummary {
    fn hash<H: Hasher>(&self, h: &mut H) {
        (self.seq, self.slot_s.to_bits(), self.relayed.len()).hash(h);
        for (origin, cells) in std::iter::once((&self.site, &self.per_user)).chain(&self.relayed) {
            (origin, cells.len()).hash(h);
            for (user, row) in cells {
                (user, row.len()).hash(h);
                (row.iter()).for_each(|&(slot, charge)| (slot, charge.to_bits()).hash(h));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decay::DecayPolicy;

    const A: UserId = UserId(0);
    const B: UserId = UserId(1);

    fn rec(cores: u32, start: f64, end: f64) -> UsageRecord {
        UsageRecord {
            job: JobId(0),
            user: GridUser::new("whoever"),
            site: SiteId(0),
            cores,
            start_s: start,
            end_s: end,
        }
    }

    #[test]
    fn charge_is_core_seconds() {
        assert_eq!(rec(4, 10.0, 20.0).charge(), 40.0);
        assert_eq!(rec(4, 20.0, 10.0).charge(), 0.0);
    }

    #[test]
    fn record_single_slot() {
        let mut h = UsageHistogram::new(100.0);
        h.record(A, &rec(1, 10.0, 30.0));
        assert_eq!(h.raw_usage(A), 20.0);
        assert_eq!(h.raw_usage(B), 0.0);
        assert!(
            h.raw_usage(B).is_sign_positive(),
            "an absent user reads +0.0"
        );
    }

    #[test]
    fn record_spreads_across_slots() {
        let mut h = UsageHistogram::new(100.0);
        // Job spans slots 0, 1, 2: 50s in slot 0, 100s in slot 1, 50s in slot 2.
        assert_eq!(h.record(A, &rec(2, 50.0, 250.0)), Some(0));
        let total = h.raw_usage(A);
        assert!((total - 400.0).abs() < 1e-9);
        // Decay with a window covering only recent slots sees partial usage.
        let window = DecayPolicy::Window { window_s: 120.0 };
        let weigh = |centre| window.weight(250.0 - centre);
        let (w, _, _) = h.usage(A, weigh, Prefix::default(), 0);
        // Slot centers: 50 (age 200, out), 150 (age 100, in), 250 (age 0, in).
        assert!((w - (200.0 + 100.0)).abs() < 1e-9, "{w}");
    }

    #[test]
    fn conservation_total_equals_sum() {
        let mut h = UsageHistogram::new(60.0);
        h.record(A, &rec(1, 0.0, 90.0));
        h.record(B, &rec(3, 30.0, 150.0));
        h.record(A, &rec(2, 200.0, 260.0));
        let sum = h.raw_usage(A) + h.raw_usage(B);
        assert!((h.total_recorded() - sum).abs() < 1e-9);
    }

    #[test]
    fn zero_duration_job_ignored() {
        let mut h = UsageHistogram::new(60.0);
        assert_eq!(h.record(A, &rec(8, 100.0, 100.0)), None);
        assert_eq!(h.total_recorded(), 0.0);
        assert!(h.cells().is_empty());
    }

    #[test]
    fn a_users_cells_are_one_ordered_range_of_the_store() {
        let mut h = UsageHistogram::new(100.0);
        h.record(B, &rec(1, 1050.0, 1060.0));
        h.record(A, &rec(2, 250.0, 420.0));
        h.add_charges(B, [(3, 5.0)]);
        let slots = |user, from| {
            h.cells()
                .of(user, from)
                .iter()
                .map(|c| c.0)
                .collect::<Vec<_>>()
        };
        assert_eq!(slots(A, 0), [2, 3, 4]);
        assert_eq!(slots(A, 3), [3, 4]);
        assert_eq!(slots(B, 0), [3, 10]);
        assert!(slots(UserId(2), 0).is_empty());
        assert_eq!(h.cells().users().collect::<Vec<_>>(), [A, B]);
        let rows = h.cells().iter();
        let order: Vec<(UserId, u64)> = rows
            .flat_map(|(u, row)| row.iter().map(move |c| (u, c.0)))
            .collect();
        assert_eq!(order, [(A, 2), (A, 3), (A, 4), (B, 3), (B, 10)]);
    }

    #[test]
    fn cached_raw_usage_follows_every_mutation() {
        let mut h = UsageHistogram::new(100.0);
        h.record(A, &rec(2, 1050.0, 1060.0));
        let conserved = |h: &UsageHistogram| {
            let sum = h.raw_usage(A) + h.raw_usage(B);
            assert!((h.total_recorded() - sum).abs() < 1e-9, "{sum}");
        };
        conserved(&h); // also fills the per-user total cache
        h.add_charges(A, [(11, 5.0)]);
        assert_eq!(h.raw_usage(A), 25.0);
        h.record(B, &rec(1, 1000.0, 1030.0));
        assert_eq!(h.raw_usage(B), 30.0);
        conserved(&h);
        assert_eq!(h.raw_usage(UserId(9)), 0.0, "never held a cell");
    }

    #[test]
    fn raise_moves_a_cell_only_past_the_threshold() {
        let mut sent = CellStore::default();
        let mut raise = |cells: &[(u64, f64)]| {
            let mut rises = Vec::new();
            sent.raise(A, cells.iter().copied(), 1e-12, |slot, _, rise| {
                rises.push((slot, rise))
            });
            rises
        };
        assert_eq!(raise(&[(7, 5e-13)]), []);
        assert_eq!(raise(&[(7, 4.0), (7, 4.0)]), [(7, 4.0)]);
        assert_eq!(raise(&[(7, 3.0)]), [], "never lowered");
        assert_eq!(raise(&[(7, 6.5), (2, 1.0)]), [(7, 2.5), (2, 1.0)]);
        assert_eq!(sent.of(A, 0), [(2, 1.0), (7, 6.5)]);
        sent.raise(B, [(3, 5e-13)], 1e-12, |_, _, _| unreachable!());
        assert_eq!(
            sent.users().collect::<Vec<_>>(),
            [A],
            "no row for a cell that did not rise"
        );
    }

    #[test]
    fn usage_row_dense_and_overflow() {
        let base = ["a", "b"].map(GridUser::new);
        let mut row = UsageRow::default();
        row.clear(&base);
        row.set(&base, &GridUser::new("b"), 3.0);
        row.set(&base, &GridUser::new("zed"), 7.0);
        row.set(&base, &GridUser::new("ghost"), 5.0);
        assert_eq!(row.dense, vec![0.0, 3.0]);
        assert_eq!(row.overflow.len(), 2);
        row.set(&base, &GridUser::new("ghost"), 0.0);
        assert_eq!(row.overflow.len(), 1, "zeroed overflow entries leave");
        assert_eq!(row.overflow[&GridUser::new("zed")], 7.0);
        row.clear(&base);
        assert_eq!(row.dense, vec![0.0, 0.0]);
        assert!(row.overflow.is_empty());
    }

    #[test]
    fn decay_none_sees_all_history() {
        let mut h = UsageHistogram::new(10.0);
        h.record(A, &rec(1, 0.0, 10.0));
        let weigh = |centre| DecayPolicy::None.weight(1e9 - centre);
        let (v, _, _) = h.usage(A, weigh, Prefix::default(), 0);
        assert!((v - 10.0).abs() < 1e-9);
    }

    #[test]
    fn a_fold_resumed_from_its_prefix_ends_on_the_same_bits() {
        let mut h = UsageHistogram::new(10.0);
        for (i, start) in [3.0, 17.0, 44.0, 45.0, 90.0, 121.0].into_iter().enumerate() {
            h.record(A, &rec(1 + i as u32, start, start + 7.3 * i as f64 + 0.1));
        }
        let decay = DecayPolicy::Exponential { half_life_s: 30.0 };
        let weigh = |centre: f64| decay.epoch_weight(50.0 - centre);
        let (whole, at_5, passed) = h.usage(A, weigh, Prefix::default(), 5);
        let slots = h
            .cells()
            .of(A, 0)
            .iter()
            .filter(|&&(slot, _)| slot < 5)
            .count();
        assert_eq!((at_5.slot, passed), (5, slots));
        let (resumed, at_9, more) = h.usage(A, weigh, at_5, 9);
        assert_eq!(resumed.to_bits(), whole.to_bits());
        let (_, fresh_at_9, all) = h.usage(A, weigh, Prefix::default(), 9);
        assert_eq!(
            (at_9.slot, at_9.sum.to_bits()),
            (9, fresh_at_9.sum.to_bits())
        );
        assert_eq!(passed + more, all);
        let (_, past_the_end, _) = h.usage(A, weigh, Prefix::default(), u64::MAX);
        assert_eq!(past_the_end.sum.to_bits(), whole.to_bits());
        let (empty, _, none) = h.usage(B, weigh, Prefix::default(), 3);
        assert!(empty == 0.0 && empty.is_sign_positive() && none == 0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_slot_panics() {
        UsageHistogram::new(0.0);
    }

    #[test]
    fn add_charges_updates_cells_and_total() {
        let mut h = UsageHistogram::new(60.0);
        h.add_charges(A, [(3, 25.0), (3, 5.0)]);
        h.add_charges(A, [(4, -1.0), (4, 0.0)]); // ignored
        h.add_charges(B, [(4, 0.0)]); // ignored: no cell either
        assert_eq!(h.cells().users().count(), 1);
        assert!((h.raw_usage(A) - 30.0).abs() < 1e-12);
        assert!((h.total_recorded() - 30.0).abs() < 1e-12);
    }
}
