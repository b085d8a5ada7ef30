//! Equivalence property for the incremental priority engine: under random
//! interleavings of usage-record ingests, peer-summary merges, decay-epoch
//! time advances, and policy share edits, the incrementally maintained FCS
//! factors are **bit-identical** to a from-scratch recompute over the same
//! drained state — for every projection, at every refresh point.
//!
//! The check runs after *each* time-advance refresh (not just at the end),
//! so a divergence is caught at the first refresh where it appears. The
//! debug-build `debug_assert` inside `FairshareTree::recompute_dirty` acts
//! as a second, tree-level oracle underneath this factor-level one.
//!
//! The policy is three levels deep (VO → group → user), so the served read
//! — a leaf found by `UserId`, products multiplied root→leaf along parent
//! pointers over the sums the refresh left in the tree — is also compared
//! against one global `project()` of the same tree, by id at every refresh;
//! a read does no refresh work, and a reset FCS serves nobody.
//! In its second shape one identity sits under two leaves of two groups (a
//! user in two projects of a VO): a dirty mark for it must re-aggregate
//! both, and the factor served for it is the last leaf's.

use aequus_core::policy::{PolicyNode, PolicyNodeKind, PolicyTree};
use aequus_core::projection::ProjectionKind;
use aequus_core::usage::{UsageRecord, UsageSummary};
use aequus_core::{DecayPolicy, EntityPath, FairshareConfig, GridUser, JobId, SiteId, UserId};
use aequus_services::{Fcs, ParticipationMode, Pds, Ums, Uss, UssMessage};
use proptest::collection::vec;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, BTreeSet};

const VOS: usize = 2;
const GROUPS: usize = 3;
const USERS_PER_GROUP: usize = 4;
const N_USERS: usize = GROUPS * USERS_PER_GROUP;

fn user_name(i: usize) -> String {
    format!("u{i}")
}

/// Group `g` sits under VO `g % VOS`: /vo0 holds g0 and g2, /vo1 holds g1.
fn group_path(g: usize) -> String {
    format!("/vo{}/g{g}", g % VOS)
}

/// Every VO, every group, then every user leaf — the edit targets — and,
/// with `twice`, the second leaf of user 0.
fn edit_paths(twice: bool) -> Vec<EntityPath> {
    let vos = (0..VOS).map(|v| format!("/vo{v}"));
    let groups = (0..GROUPS).map(group_path);
    let users =
        (0..N_USERS).map(|i| format!("{}/{}", group_path(i / USERS_PER_GROUP), user_name(i)));
    let guest = twice.then(|| format!("{}/guest", group_path(GROUPS - 1)));
    vos.chain(groups)
        .chain(users)
        .chain(guest)
        .map(|p| EntityPath::parse(&p))
        .collect()
}

/// VO → group → user; with `twice`, user 0 (of the first group) also holds a
/// `guest` leaf in the last group.
fn nested_policy(twice: bool) -> PolicyTree {
    let group = |g: usize| {
        let members = (0..USERS_PER_GROUP).map(|j| {
            PolicyNode::user(
                user_name(g * USERS_PER_GROUP + j),
                1.0 / USERS_PER_GROUP as f64,
            )
        });
        let guest = (twice && g == GROUPS - 1)
            .then(|| PolicyNode::user_with_identity("guest", 0.2, GridUser::new(user_name(0))));
        PolicyNode::group(
            format!("g{g}"),
            1.0 / GROUPS as f64,
            members.chain(guest).collect(),
        )
    };
    let vos = (0..VOS)
        .map(|v| {
            PolicyNode::group(
                format!("vo{v}"),
                1.0 / VOS as f64,
                (0..GROUPS).filter(|g| g % VOS == v).map(group).collect(),
            )
        })
        .collect();
    PolicyTree::new(PolicyNode::group("root", 1.0, vos)).unwrap()
}

fn decay_for(sel: u8) -> DecayPolicy {
    match sel {
        0 => DecayPolicy::None,
        1 => DecayPolicy::Exponential {
            half_life_s: 1800.0,
        },
        _ => DecayPolicy::Window { window_s: 3600.0 },
    }
}

/// One scripted operation: `(kind, selector, magnitude)`.
///
/// kind 0 — ingest a local usage record for user `selector % N_USERS`;
/// kind 1 — receive a peer summary crediting that user;
/// kind 2 — advance time by `magnitude × 4000 s`, refresh UMS + FCS
///          incrementally, and compare against a from-scratch FCS;
/// kind 3 — `set_share` on edit path `selector % paths.len()`.
type Op = (u8, u8, f64);

/// Bit-compare two factor tables, same users and same bits.
fn bit_equal(
    what: &str,
    inc: &BTreeMap<GridUser, f64>,
    full: &BTreeMap<GridUser, f64>,
) -> Result<(), String> {
    if inc.len() != full.len() {
        return Err(format!(
            "{what}: {} incremental factors vs {} full",
            inc.len(),
            full.len()
        ));
    }
    for (user, f) in inc {
        let g = full
            .get(user)
            .ok_or_else(|| format!("{what}: {user:?} missing from full"))?;
        if f.to_bits() != g.to_bits() {
            return Err(format!("{what}: {user:?} incremental {f} != full {g}"));
        }
    }
    Ok(())
}

/// Bit-compare the incrementally maintained, id-indexed factor table against
/// (a) a fresh full rebuild over the same (already drained) PDS/UMS state,
/// (b) one global `project()` of the incremental FCS's own tree, and
/// (c) its own by-id lookups.
fn assert_matches_fresh(
    kind: ProjectionKind,
    fcs: &Fcs,
    pds: &mut Pds,
    ums: &mut Ums,
    uss: &mut Uss,
    now_s: f64,
) -> Result<(), String> {
    let mut fresh = Fcs::new(FairshareConfig::default(), kind, 0.0);
    fresh.refresh(pds, ums, uss.users_mut(), now_s);
    let inc = fcs.factors();
    let at = format!("{kind:?} at t={now_s}");
    bit_equal(&format!("{at} vs fresh FCS"), &inc, &fresh.factors())?;
    let tree = fcs.tree().ok_or_else(|| format!("{at}: no tree"))?;
    bit_equal(
        &format!("{at} vs project()"),
        &inc,
        &tree.by_user(&kind.build().project(tree)),
    )?;
    for (user, f) in &inc {
        let by_id = fcs.id_of(user).and_then(|id| fcs.query(id));
        if by_id.map(f64::to_bits) != Some(f.to_bits()) {
            return Err(format!("{at}: {user:?} by id {by_id:?} != {f}"));
        }
    }
    Ok(())
}

/// Run one random interleaving and check the invariant at every refresh.
fn run_interleaving(
    kind: ProjectionKind,
    twice: bool,
    decay_sel: u8,
    ops: &[Op],
) -> Result<(), String> {
    let paths = edit_paths(twice);
    let mut pds = Pds::new(nested_policy(twice));
    let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 60.0);
    let mut ums = Ums::new(0.0, decay_for(decay_sel));
    let mut fcs = Fcs::new(FairshareConfig::default(), kind, 0.0);
    let mut now_s = 0.0;
    let mut next_job = 0u64;

    for &(op, sel, x) in ops {
        match op {
            0 => {
                let user = GridUser::new(user_name(sel as usize % N_USERS));
                next_job += 1;
                uss.ingest(&UsageRecord {
                    job: JobId(next_job),
                    user,
                    site: SiteId(0),
                    cores: 1 + (sel as u32 % 4),
                    start_s: now_s,
                    end_s: now_s + x * 500.0,
                });
            }
            1 => {
                let user = GridUser::new(user_name(sel as usize % N_USERS));
                let slot = (now_s / 60.0) as u64;
                let mut per_user = BTreeMap::new();
                per_user.insert(user, vec![(slot, x * 300.0)]);
                let summary = UsageSummary {
                    site: SiteId(1),
                    seq: 0, // below every cursor: only the absolute cells matter
                    slot_s: 60.0,
                    per_user,
                    relayed: BTreeMap::new(),
                };
                uss.receive_message(
                    &UssMessage::Summary {
                        summary: summary.into(),
                        ctx: None,
                    },
                    now_s,
                );
            }
            2 => {
                now_s += x * 4000.0;
                ums.refresh(&mut uss, now_s);
                fcs.refresh(&mut pds, &mut ums, uss.users_mut(), now_s);
                assert_matches_fresh(kind, &fcs, &mut pds, &mut ums, &mut uss, now_s)?;
            }
            _ => {
                let path = &paths[sel as usize % paths.len()];
                pds.set_share(path, 0.05 + x * 4.0)
                    .map_err(|e| format!("set_share({path:?}): {e:?}"))?;
            }
        }
    }

    // Final refresh so trailing non-refresh ops are also checked.
    now_s += 1.0;
    ums.refresh(&mut uss, now_s);
    fcs.refresh(&mut pds, &mut ums, uss.users_mut(), now_s);
    assert_matches_fresh(kind, &fcs, &mut pds, &mut ums, &mut uss, now_s)?;

    // A served read is a read: no refresh, no tree work, the same bits.
    let ids: Vec<UserId> = uss.users().iter().map(|(id, _)| id).collect();
    let work = (fcs.refreshes(), fcs.nodes_recomputed());
    let first: Vec<Option<u64>> = ids
        .iter()
        .map(|id| fcs.query(*id).map(f64::to_bits))
        .collect();
    for i in 0..1000 {
        let again = fcs.query(ids[i % ids.len()]).map(f64::to_bits);
        if again != first[i % ids.len()] {
            return Err(format!("{kind:?}: read {i} moved {:?}", ids[i % ids.len()]));
        }
    }
    if work != (fcs.refreshes(), fcs.nodes_recomputed()) {
        return Err(format!("{kind:?}: 1,000 reads did refresh work"));
    }
    // A crash leaves nothing to read until the next refresh.
    fcs.reset();
    if let Some(id) = ids.iter().find(|id| fcs.query(**id).is_some()) {
        return Err(format!("{kind:?}: {id:?} served by a reset FCS"));
    }
    fcs.refresh(&mut pds, &mut ums, uss.users_mut(), now_s);
    let back: Vec<Option<u64>> = ids
        .iter()
        .map(|id| fcs.query(*id).map(f64::to_bits))
        .collect();
    if back != first {
        return Err(format!("{kind:?}: the rebuilt tree serves other factors"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dictionary_incremental_equals_full(
        twice in 0u8..2,
        decay_sel in 0u8..3,
        ops in vec((0u8..4, 0u8..16, 0.01..1.0f64), 1..40),
    ) {
        let r = run_interleaving(ProjectionKind::Dictionary, twice == 1, decay_sel, &ops);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn bitwise_incremental_equals_full(
        twice in 0u8..2,
        decay_sel in 0u8..3,
        ops in vec((0u8..4, 0u8..16, 0.01..1.0f64), 1..40),
    ) {
        let r = run_interleaving(ProjectionKind::Bitwise, twice == 1, decay_sel, &ops);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn percental_incremental_equals_full(
        twice in 0u8..2,
        decay_sel in 0u8..3,
        ops in vec((0u8..4, 0u8..16, 0.01..1.0f64), 1..40),
    ) {
        let r = run_interleaving(ProjectionKind::Percental, twice == 1, decay_sel, &ops);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}

// ---- ids change nothing a name-keyed oracle can see ----
//
// Two sites on one stream of inputs — one enforcing the grid's policy (its
// user table is built over that policy's own user base: layout id is site
// id), one enforcing another policy over the same table base (every id
// translated) — against a reference implementation that keeps plain
// name-keyed maps and computes everything from scratch.

/// Users 0..8 are policy users; 8 and 9 are outside every policy.
fn any_user(i: u8) -> GridUser {
    match i % 10 {
        i @ 0..=7 => GridUser::new(user_name(i as usize)),
        i => GridUser::new(format!("x{i}")),
    }
}

/// Three shapes over users 0..8: flat, VO → group → user, and two projects
/// sharing user 0 under two leaves. Shape 2 leaves user 3 out, so its users
/// are not a prefix of the other shapes' base, nor theirs of its: over
/// either base some policy users rank past where policy order puts them,
/// and a layout keyed by any table but the site's reads the wrong rows.
fn shaped_policy(shape: u8) -> PolicyTree {
    let user = |i: usize| PolicyNode::user(user_name(i), 1.0 + i as f64);
    let root = |children| PolicyTree::new(PolicyNode::group("root", 1.0, children)).unwrap();
    match shape % 3 {
        0 => root((0..8).map(user).collect()),
        1 => root(
            (0..2)
                .map(|vo| {
                    let group = |g: usize| {
                        let first = 4 * vo + 2 * g;
                        PolicyNode::group(
                            format!("g{g}"),
                            1.0 + g as f64,
                            vec![user(first), user(first + 1)],
                        )
                    };
                    PolicyNode::group(format!("vo{vo}"), 2.0 - vo as f64, vec![group(0), group(1)])
                })
                .collect(),
        ),
        _ => {
            let shared =
                |name: &str| PolicyNode::user_with_identity(name, 2.0, GridUser::new(user_name(0)));
            root(vec![
                PolicyNode::group("p0", 1.0, vec![shared("lead"), user(1), user(2), user(7)]),
                PolicyNode::group("p1", 3.0, vec![user(4), user(5), shared("guest"), user(6)]),
            ])
        }
    }
}

type Cells = BTreeMap<GridUser, BTreeMap<u64, f64>>;

/// A site as plain name-keyed maps, every readout a from-scratch sum.
#[derive(Default)]
struct NameKeyed {
    local: Cells,
    /// Per origin, the absolute cells already merged.
    mirrors: BTreeMap<SiteId, Cells>,
    /// Merged remote charge: the positive deltas, in arrival order.
    remote: Cells,
}

const SLOT_S: f64 = 60.0;

impl NameKeyed {
    /// `UsageHistogram::record`, on maps.
    fn ingest(&mut self, rec: &UsageRecord) {
        let charge = rec.charge();
        if charge <= 0.0 {
            return;
        }
        let cells = self.local.entry(rec.user.clone()).or_default();
        let (first, last) = ((rec.start_s / SLOT_S) as u64, (rec.end_s / SLOT_S) as u64);
        if first == last {
            *cells.entry(first).or_insert(0.0) += charge;
            return;
        }
        for slot in first..=last {
            let from = slot as f64 * SLOT_S;
            let overlap = rec.end_s.min(from + SLOT_S) - rec.start_s.max(from);
            if overlap > 0.0 {
                *cells.entry(slot).or_insert(0.0) += rec.cores as f64 * overlap;
            }
        }
    }

    /// The positive-delta merge of one summary's own section.
    fn merge(&mut self, summary: &UsageSummary) {
        let mirror = self.mirrors.entry(summary.site).or_default();
        for (user, slots) in &summary.per_user {
            for &(slot, value) in slots {
                let seen = mirror
                    .entry(user.clone())
                    .or_default()
                    .entry(slot)
                    .or_insert(0.0);
                let delta = value - *seen;
                if delta > 1e-12 {
                    *seen = value;
                    *(self.remote.entry(user.clone()).or_default().entry(slot)).or_insert(0.0) +=
                        delta;
                }
            }
        }
    }

    /// What a checkpoint restores: the remote charge re-summed from the
    /// mirrors, origin by origin.
    fn recover(&mut self) {
        self.remote.clear();
        for (user, slots) in self.mirrors.values().flatten() {
            for (&slot, &value) in slots.iter().filter(|(_, v)| **v > 0.0) {
                *(self.remote.entry(user.clone()).or_default().entry(slot)).or_insert(0.0) += value;
            }
        }
    }

    /// Per user: `weigh(slot centre)`-weighted local charge plus remote.
    fn usage(&self, weigh: impl Fn(f64) -> f64) -> BTreeMap<GridUser, f64> {
        let sum = |slots: &BTreeMap<u64, f64>| {
            let terms = slots
                .iter()
                .map(|(&s, &c)| c * weigh((s as f64 + 0.5) * SLOT_S));
            terms.fold(0.0, |sum, term| sum + term)
        };
        let mut usage: BTreeMap<GridUser, f64> = BTreeMap::new();
        for (user, slots) in &self.local {
            usage.insert(user.clone(), sum(slots));
        }
        for (user, slots) in self.remote.iter().filter(|(_, s)| !s.is_empty()) {
            *usage.entry(user.clone()).or_insert(0.0) += sum(slots);
        }
        usage
    }
}

/// Percental factors from scratch, on names: per sibling group sum the
/// shares and the subtree usage, multiply the two normalized shares root
/// first, `((target − usage) + 1) / 2`; an identity under several leaves is
/// served from the last.
fn percental_by_name(
    policy: &PolicyTree,
    usage: &BTreeMap<GridUser, f64>,
) -> BTreeMap<GridUser, f64> {
    type Usage = BTreeMap<GridUser, f64>;
    fn subtree(node: &PolicyNode, usage: &Usage) -> f64 {
        let own = match &node.kind {
            PolicyNodeKind::User(user) => usage.get(user).copied().unwrap_or(0.0),
            _ => 0.0,
        };
        own + node.children.iter().map(|c| subtree(c, usage)).sum::<f64>()
    }
    fn walk(node: &PolicyNode, target: f64, used: f64, usage: &Usage, out: &mut Usage) {
        if let PolicyNodeKind::User(user) = &node.kind {
            out.insert(user.clone(), ((target - used) + 1.0) / 2.0);
        }
        let share_total: f64 = node.children.iter().map(|c| c.share).sum();
        let usage_total: f64 = node.children.iter().map(|c| subtree(c, usage)).sum();
        for child in &node.children {
            let p = if share_total > 0.0 {
                child.share / share_total
            } else {
                0.0
            };
            let u = if usage_total > 0.0 {
                subtree(child, usage) / usage_total
            } else {
                0.0
            };
            walk(child, target * p, used * u, usage, out);
        }
    }
    let mut factors = BTreeMap::new();
    walk(&policy.to_node(), 1.0, 1.0, usage, &mut factors);
    factors
}

struct Site {
    pds: Pds,
    uss: Uss,
    ums: Ums,
    fcs: Fcs,
    /// Ids handed to an RMS before anything happened, with their names.
    held: Vec<(aequus_core::UserId, GridUser)>,
}

fn bits(values: &BTreeMap<GridUser, f64>) -> Vec<(&GridUser, u64)> {
    values.iter().map(|(user, v)| (user, v.to_bits())).collect()
}

impl Site {
    fn new(policy: PolicyTree, base: &std::sync::Arc<[GridUser]>, decay: DecayPolicy) -> Self {
        let table = aequus_core::UserTable::new(base.clone());
        let mut uss = Uss::with_users(SiteId(0), ParticipationMode::Full, SLOT_S, table);
        let held = [3, 7, 8]
            .map(any_user)
            .map(|user| (uss.users_mut().intern(&user), user));
        Self {
            pds: Pds::new(policy),
            uss,
            ums: Ums::new(0.0, decay),
            fcs: Fcs::new(FairshareConfig::default(), ProjectionKind::Percental, 0.0),
            held: held.into(),
        }
    }

    /// Store-mode crash: everything volatile goes, the USS comes back from a
    /// checkpoint cut at that instant, and the UMS rebuilds over it.
    fn crash_and_recover(&mut self, now_s: f64) {
        let view = self.uss.checkpoint_view(0, now_s);
        let ckpt = aequus_store::CheckpointState::decode_slot(&view.encode()).expect("fresh slot");
        self.uss.crash_volatile();
        self.ums.reset();
        self.fcs.reset();
        self.uss.install_checkpoint(&ckpt).expect("own checkpoint");
    }

    /// What holds after every step, refresh or not.
    fn check_names(
        &self,
        oracle: &NameKeyed,
        met: &BTreeSet<GridUser>,
        at: &str,
    ) -> Result<(), String> {
        let view = self.uss.grid_view();
        let want = oracle.usage(|_| 1.0);
        if bits(&view) != bits(&want) {
            return Err(format!("{at}: view {view:?} != {want:?}"));
        }
        let table: Vec<&GridUser> = self.uss.users().iter().map(|(_, user)| user).collect();
        if table != met.iter().collect::<Vec<_>>() {
            return Err(format!("{at}: table walks {table:?}, met {met:?}"));
        }
        for (id, user) in &self.held {
            let users = self.uss.users();
            if users.name(*id) != user || users.id_of(user) != Some(*id) {
                return Err(format!("{at}: {id:?} no longer names {user:?}"));
            }
        }
        Ok(())
    }

    /// Refresh, then compare the UMS weights and the served factors.
    fn refresh_and_check(
        &mut self,
        oracle: &NameKeyed,
        decay: DecayPolicy,
        now_s: f64,
        at: &str,
    ) -> Result<(), String> {
        self.ums.refresh(&mut self.uss, now_s);
        self.fcs
            .refresh(&mut self.pds, &mut self.ums, self.uss.users_mut(), now_s);
        let epoch = self.ums.epoch().ok_or("separable decays keep an epoch")?;
        let want = oracle.usage(|centre| decay.epoch_weight(epoch - centre));
        let row = self.ums.usage();
        let held = self.uss.users().iter().filter_map(|(id, user)| {
            let weight = row.get(id.index()).filter(|w| !w.is_nan())?;
            Some((user.clone(), *weight))
        });
        let weights: BTreeMap<GridUser, f64> = held.collect();
        if bits(&weights) != bits(&want) {
            return Err(format!("{at}: UMS weights {weights:?} != {want:?}"));
        }
        let policy = self.pds.policy();
        let want = percental_by_name(policy, &want);
        let factors = self.fcs.factors();
        if bits(&factors) != bits(&want) {
            return Err(format!("{at}: factors {factors:?} != {want:?}"));
        }
        // Served by id — every id of the table, the ones handed out before
        // anything happened among them — and named back by id.
        for (id, user) in self.uss.users().iter() {
            let served = self.fcs.query(id).map(f64::to_bits);
            if served != want.get(user).map(|f| f.to_bits()) {
                return Err(format!("{at}: {user:?} served {served:?} by id {id:?}"));
            }
            if self.fcs.user_of(id) != want.get(user).map(|_| user) {
                return Err(format!("{at}: {id:?} is not named back as {user:?}"));
            }
        }
        let served_from = self.fcs.tree().ok_or("refreshed")?.layout();
        if !std::sync::Arc::ptr_eq(served_from, policy.layout()) {
            return Err(format!("{at}: the tree is laid out over another policy"));
        }
        Ok(())
    }
}

/// `(op, selector, magnitude)`: 0/1 ingest, 2/3 a peer's summary, 4/5
/// refresh and compare, 6 crash + recover, 7 share edit, 8 policy replaced
/// (and, for magnitudes ≥ 0.5, served by id right after), 9/10 ingest a long
/// job that started up to 50 slots back — under the slot a UMS may have kept
/// a user's sums at. Returns how many UMS reads resumed from kept sums.
fn run_against_names(shape: u8, exponential: bool, ops: &[(u8, u8, f64)]) -> Result<u64, String> {
    let decay = match exponential {
        true => DecayPolicy::Exponential {
            half_life_s: 1800.0,
        },
        false => DecayPolicy::None,
    };
    let grid = shaped_policy(shape);
    let base = grid.layout().users().clone();
    // One site enforces the grid's policy, the other its own.
    let mut sites = [
        Site::new(grid.clone(), &base, decay),
        Site::new(shaped_policy(shape + 1), &base, decay),
    ];
    if std::sync::Arc::ptr_eq(
        sites[0].pds.policy().layout(),
        sites[1].pds.policy().layout(),
    ) {
        return Err("two policies, one layout".into());
    }
    let mut oracle = NameKeyed::default();
    let mut met: BTreeSet<GridUser> = base.iter().cloned().collect();
    met.extend(sites[0].held.iter().map(|(_, user)| user.clone()));
    let (mut now_s, mut job) = (0.0, 0u64);
    let mut sent: BTreeMap<(SiteId, GridUser, u64), f64> = BTreeMap::new();
    for (step, &(op, sel, x)) in ops.iter().enumerate() {
        let at = format!("step {step} {:?}", (op, sel, x));
        match op {
            0 | 1 | 9 | 10 => {
                job += 1;
                let back_s = if op < 9 { 0.0 } else { x * 3000.0 };
                let rec = UsageRecord {
                    job: JobId(job),
                    user: any_user(sel),
                    site: SiteId(0),
                    cores: 1 + u32::from(sel % 3),
                    start_s: (now_s - back_s).max(0.0),
                    end_s: now_s + x * 200.0,
                };
                met.insert(rec.user.clone());
                oracle.ingest(&rec);
                for site in &mut sites {
                    site.uss.ingest(&rec);
                }
            }
            2 | 3 => {
                // Absolute cumulative cells: a cell only ever grows, and a
                // repeat (x < 0.3) is a duplicate. Whole core-seconds, so
                // that the remote charge a recovery re-sums from the mirrors
                // has the bits the deltas added up to (the UMS weights a
                // checkpoint carries were computed from those).
                let (origin, user) = (SiteId(1 + u32::from(sel % 2)), any_user(sel / 2));
                let slot = (now_s / SLOT_S) as u64;
                let cell = sent.entry((origin, user.clone(), slot)).or_insert(0.0);
                if x >= 0.3 {
                    *cell += (x * 90.0).ceil();
                }
                let summary = UsageSummary {
                    site: origin,
                    seq: 0,
                    slot_s: SLOT_S,
                    per_user: [(user.clone(), [(slot, *cell)].into())].into(),
                    relayed: BTreeMap::new(),
                };
                met.insert(user);
                oracle.merge(&summary);
                let msg = UssMessage::Summary {
                    summary: summary.into(),
                    ctx: None,
                };
                for site in &mut sites {
                    site.uss.receive_message(&msg, now_s);
                }
            }
            4 | 5 => {
                now_s += x * 500.0;
                for (i, site) in sites.iter_mut().enumerate() {
                    site.refresh_and_check(&oracle, decay, now_s, &format!("site {i} {at}"))?;
                }
            }
            6 => {
                oracle.recover();
                sites
                    .iter_mut()
                    .for_each(|site| site.crash_and_recover(now_s));
            }
            7 => {
                for site in &mut sites {
                    let leaves = site.pds.policy().users();
                    let (path, _) = &leaves[sel as usize % leaves.len()];
                    (site.pds.set_share(path, 0.5 + x * 3.0))
                        .map_err(|e| format!("{at}: {e:?}"))?;
                }
            }
            8 => {
                let i = sel as usize % 2;
                sites[i].pds.set_policy(shaped_policy(sel / 2));
                // Half the time at once: the rebuilt translation serves by
                // id before anything else happens; else the rebuild meets
                // whatever usage piles up first.
                if x >= 0.5 {
                    sites[i].refresh_and_check(&oracle, decay, now_s, &format!("site {i} {at}"))?;
                }
            }
            _ => return Err(format!("{at}: no such op")),
        }
        for (i, site) in sites.iter().enumerate() {
            site.check_names(&oracle, &met, &format!("site {i} {at}"))?;
        }
    }
    now_s += 1.0;
    for (i, site) in sites.iter_mut().enumerate() {
        site.refresh_and_check(&oracle, decay, now_s, &format!("site {i} at the end"))?;
    }
    Ok(sites.iter().map(|site| site.ums.resumed_reads()).sum())
}

/// A `proptest!` case loop that also sums what the cases report: some case
/// must have resumed a UMS read, or the kept sums went unchecked.
#[test]
fn ids_change_nothing_a_name_keyed_oracle_can_see() {
    let cases = (
        0u8..3,
        0u8..2,
        vec((0u8..11, 0u8..20, 0.01..1.0f64), 1..160),
    );
    let name = concat!(
        module_path!(),
        "::ids_change_nothing_a_name_keyed_oracle_can_see"
    );
    let seed = proptest::test_runner::seed_for(name);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut resumed = 0;
    for case in 0..192 {
        let (shape, exponential, ops) = cases.generate(&mut rng);
        match run_against_names(shape, exponential == 1, &ops) {
            Ok(reads) => resumed += reads,
            Err(e) => panic!("case {case} (seed {seed:#x}): {e}"),
        }
    }
    assert!(resumed > 0, "no case resumed a UMS read");
}
