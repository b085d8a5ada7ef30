//! Property-based tests of the core fairshare invariants: policy
//! normalization, usage conservation, distance bounds, vector ordering, and
//! projection consistency across randomized trees and usage patterns.

use aequus_core::arena::{DirtySet, NodeId, UserId};
use aequus_core::decay::DecayPolicy;
use aequus_core::fairshare::{FairshareConfig, FairshareTree};
use aequus_core::ids::{EntityPath, GridUser, JobId, SiteId};
use aequus_core::policy::{flat_policy, PolicyNode, PolicyTree};
use aequus_core::projection::ProjectionKind;
use aequus_core::usage::{CellStore, Prefix, UsageHistogram, UsageRecord};
use aequus_core::vector::{FairshareVector, Resolution};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Strategy: a flat policy over n users with random positive shares, plus
/// random usage values.
fn flat_scenario() -> impl Strategy<Value = (Vec<(String, f64)>, Vec<f64>)> {
    (2usize..12).prop_flat_map(|n| {
        (
            proptest::collection::vec(0.01..10.0f64, n),
            proptest::collection::vec(0.0..1000.0f64, n),
        )
            .prop_map(|(shares, usage)| {
                let named: Vec<(String, f64)> = shares
                    .into_iter()
                    .enumerate()
                    .map(|(i, s)| (format!("u{i}"), s))
                    .collect();
                (named, usage)
            })
    })
}

fn build_tree(shares: &[(String, f64)], usage: &[f64], k: f64) -> (PolicyTree, FairshareTree) {
    let pairs: Vec<(&str, f64)> = shares.iter().map(|(n, s)| (n.as_str(), *s)).collect();
    let policy = flat_policy(&pairs).unwrap();
    let usage_map: BTreeMap<GridUser, f64> = shares
        .iter()
        .zip(usage)
        .map(|((n, _), &u)| (GridUser::new(n.clone()), u))
        .collect();
    let cfg = FairshareConfig {
        k_weight: k,
        ..Default::default()
    };
    let tree = FairshareTree::compute(&policy, &usage_map, &cfg, 0.0);
    (policy, tree)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn normalized_shares_sum_to_one((shares, _) in flat_scenario()) {
        let pairs: Vec<(&str, f64)> = shares.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        let policy = flat_policy(&pairs).unwrap();
        let normalized = policy.normalized_children(&EntityPath::root());
        let total: f64 = normalized.values().sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "sum {total}");
        for v in normalized.values() {
            prop_assert!(*v >= 0.0 && *v <= 1.0);
        }
    }

    #[test]
    fn distances_bounded_by_theory((shares, usage) in flat_scenario(), k in 0.0..1.0f64) {
        let (policy, tree) = build_tree(&shares, &usage, k);
        let cfg = FairshareConfig { k_weight: k, ..Default::default() };
        for (name, _) in &shares {
            let user = GridUser::new(name.clone());
            let d = tree.user_priority(&user).unwrap();
            // Global bounds.
            prop_assert!((-1.0 - 1e-9..=1.0 + 1e-9).contains(&d), "{name}: {d}");
            // Per-user upper bound: k + (1−k)·share, attained at zero usage.
            let p = policy
                .normalized_children(&EntityPath::root())
                .get(name)
                .copied()
                .unwrap_or(0.0);
            prop_assert!(
                d <= cfg.max_priority(p) + 1e-9,
                "{name}: d={d} > bound {}",
                cfg.max_priority(p)
            );
        }
    }

    #[test]
    fn usage_shares_sum_to_one_when_positive((shares, usage) in flat_scenario()) {
        prop_assume!(usage.iter().sum::<f64>() > 0.0);
        let (_, tree) = build_tree(&shares, &usage, 0.5);
        let total: f64 = shares
            .iter()
            .map(|(n, _)| {
                tree.node(&EntityPath::parse(&format!("/{n}")))
                    .unwrap()
                    .usage_share
            })
            .sum();
        prop_assert!((total - 1.0).abs() < 1e-9, "usage shares sum to {total}");
    }

    #[test]
    fn balanced_usage_is_fixed_point((shares, _) in flat_scenario()) {
        // Usage proportional to normalized shares ⇒ all distances zero.
        let pairs: Vec<(&str, f64)> = shares.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        let policy = flat_policy(&pairs).unwrap();
        let normalized = policy.normalized_children(&EntityPath::root());
        let usage: Vec<f64> = shares
            .iter()
            .map(|(n, _)| normalized[n] * 1234.5)
            .collect();
        let (_, tree) = build_tree(&shares, &usage, 0.5);
        for (name, _) in &shares {
            let d = tree.user_priority(&GridUser::new(name.clone())).unwrap();
            prop_assert!(d.abs() < 1e-9, "{name}: {d}");
        }
    }

    #[test]
    fn vector_faithful_projections_agree_with_vector_order((shares, usage) in flat_scenario()) {
        // Dictionary and bitwise operate *on the vectors*, so strict vector
        // ordering must be preserved. (Percental re-derives its own
        // absolute-share metric, which can legally order users with
        // different policy shares differently from the combined distance —
        // the price of its share-product construction.)
        let (_, tree) = build_tree(&shares, &usage, 0.5);
        let vectors = tree.all_vectors();
        for kind in [ProjectionKind::Dictionary, ProjectionKind::Bitwise] {
            let values = kind.build().project(&tree);
            for (ua, va) in &vectors {
                for (ub, vb) in &vectors {
                    if va.compare(vb) == std::cmp::Ordering::Greater {
                        let (fa, fb) = (values[ua.index()], values[ub.index()]);
                        prop_assert!(
                            fa >= fb - 1e-9,
                            "{kind:?}: {ua:?} > {ub:?} by vector but {fa} < {fb}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn percental_orders_equal_share_users_by_usage((_, usage) in flat_scenario()) {
        // With equal policy shares, percental must rank lower usage higher —
        // its metric reduces to −usage share.
        let n = usage.len();
        let shares: Vec<(String, f64)> =
            (0..n).map(|i| (format!("u{i}"), 1.0)).collect();
        let (_, tree) = build_tree(&shares, &usage, 0.5);
        let values = tree.by_user(&ProjectionKind::Percental.build().project(&tree));
        for i in 0..n {
            for j in 0..n {
                if usage[i] < usage[j] - 1e-9 {
                    let (fi, fj) = (
                        values[&GridUser::new(format!("u{i}"))],
                        values[&GridUser::new(format!("u{j}"))],
                    );
                    prop_assert!(fi >= fj - 1e-12, "u{i}({fi}) vs u{j}({fj})");
                }
            }
        }
    }

    #[test]
    fn histogram_conserves_charge(
        jobs in proptest::collection::vec((0.0..1e4f64, 0.1..1e3f64, 1u32..8), 1..40),
        slot in 1.0..500.0f64,
        mark in 0u64..200,
    ) {
        let mut h = UsageHistogram::new(slot);
        let mut expected = 0.0;
        for (i, (start, len, cores)) in jobs.iter().enumerate() {
            let rec = UsageRecord {
                job: JobId(i as u64),
                user: GridUser::new(format!("u{}", i % 3)),
                site: SiteId(0),
                cores: *cores,
                start_s: *start,
                end_s: start + len,
            };
            expected += rec.charge();
            h.record(UserId((i % 3) as u32), &rec);
        }
        prop_assert!((h.total_recorded() - expected).abs() < 1e-6 * expected.max(1.0));
        // Per-user raw sums equal the total.
        let by_user: f64 = (0..3)
            .map(|i| h.raw_usage(UserId(i)))
            .sum();
        prop_assert!((by_user - expected).abs() < 1e-6 * expected.max(1.0));
        // Decayed usage never exceeds raw usage, and a read resumed from a
        // prefix of the same fold ends on its bits.
        let weigh = |centre| DecayPolicy::default().weight(2e4 - centre);
        for i in 0..3 {
            let raw = h.raw_usage(UserId(i));
            let (dec, below, _) = h.usage(UserId(i), weigh, Prefix::default(), mark);
            prop_assert!(dec <= raw + 1e-9, "decayed {dec} > raw {raw}");
            let (resumed, _, _) = h.usage(UserId(i), weigh, below, mark.saturating_add(mark));
            prop_assert_eq!(resumed.to_bits(), dec.to_bits());
        }
    }

    #[test]
    fn decay_weight_monotone_in_age(
        age1 in 0.0..1e6f64,
        delta in 0.0..1e6f64,
        half in 1.0..1e6f64,
    ) {
        for policy in [
            DecayPolicy::None,
            DecayPolicy::Exponential { half_life_s: half },
            DecayPolicy::Window { window_s: half },
            DecayPolicy::Linear { span_s: half },
        ] {
            let w1 = policy.weight(age1);
            let w2 = policy.weight(age1 + delta);
            prop_assert!(w2 <= w1 + 1e-12, "{policy:?}");
            prop_assert!((0.0..=1.0).contains(&w1));
        }
    }

    #[test]
    fn vector_compare_total_order(
        a in proptest::collection::vec(0.0..9999.0f64, 1..6),
        b in proptest::collection::vec(0.0..9999.0f64, 1..6),
        c in proptest::collection::vec(0.0..9999.0f64, 1..6),
    ) {
        let r = Resolution::PAPER;
        let va = FairshareVector::from_elements(a, r);
        let vb = FairshareVector::from_elements(b, r);
        let vc = FairshareVector::from_elements(c, r);
        // Antisymmetry.
        prop_assert_eq!(va.compare(&vb), vb.compare(&va).reverse());
        // Transitivity.
        use std::cmp::Ordering::*;
        if va.compare(&vb) != Greater && vb.compare(&vc) != Greater {
            prop_assert!(va.compare(&vc) != Greater);
        }
        // Padding does not change the order.
        let depth = va.depth().max(vb.depth()) + 2;
        prop_assert_eq!(va.compare(&vb), va.padded(depth).compare(&vb.padded(depth)));
    }

    #[test]
    fn subtree_usage_isolation(
        u1 in 0.0..1000.0f64,
        u2 in 0.0..1000.0f64,
        lever in 0.0..100_000.0f64,
    ) {
        // Moving usage inside sibling subtree g1 never changes the *vector
        // elements* of users inside g2 (the representation-level guarantee
        // behind Table I's subgroup-isolation column).
        prop_assume!(u1 + u2 > 0.0);
        let policy = PolicyTree::new(PolicyNode::group(
            "root",
            1.0,
            vec![
                PolicyNode::group("g1", 0.5, vec![PolicyNode::user("x", 1.0)]),
                PolicyNode::group(
                    "g2",
                    0.5,
                    vec![PolicyNode::user("a", 0.6), PolicyNode::user("b", 0.4)],
                ),
            ],
        ))
        .unwrap();
        let cfg = FairshareConfig::default();
        let tree_for = |x_usage: f64| {
            let usage: BTreeMap<GridUser, f64> = [
                (GridUser::new("x"), x_usage),
                (GridUser::new("a"), u1),
                (GridUser::new("b"), u2),
            ]
            .into_iter()
            .collect();
            FairshareTree::compute(&policy, &usage, &cfg, 0.0)
        };
        let t1 = tree_for(lever);
        let t2 = tree_for(lever * 2.0 + 1.0);
        for user in ["a", "b"] {
            let path = EntityPath::parse(&format!("/g2/{user}"));
            let e1 = t1.node(&path).unwrap().element;
            let e2 = t2.node(&path).unwrap().element;
            prop_assert!((e1 - e2).abs() < 1e-9, "{user}: {e1} vs {e2}");
        }
    }
}

/// Strategy: a random two-level policy tree (groups with users).
fn random_tree() -> impl Strategy<Value = PolicyTree> {
    proptest::collection::vec((1usize..5, 0.1..10.0f64), 1..5).prop_map(|groups| {
        let children: Vec<PolicyNode> = groups
            .iter()
            .enumerate()
            .map(|(g, (users, share))| {
                PolicyNode::group(
                    format!("g{g}"),
                    *share,
                    (0..*users)
                        .map(|u| PolicyNode::user(format!("g{g}u{u}"), 1.0 + u as f64))
                        .collect(),
                )
            })
            .collect();
        PolicyTree::new(PolicyNode::group("root", 1.0, children)).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn policy_file_roundtrip(tree in random_tree()) {
        use aequus_core::policy_file::{parse_policy, to_policy_file};
        let text = to_policy_file(&tree);
        let back = parse_policy(&text).unwrap();
        prop_assert_eq!(back.users().len(), tree.users().len());
        for (path, user) in tree.users() {
            let a = tree.absolute_share(&path).unwrap();
            let b = back.absolute_share(&path).unwrap();
            prop_assert!((a - b).abs() < 1e-12, "{path}: {a} vs {b}");
            prop_assert_eq!(back.path_of_user(&user), Some(path));
        }
    }

    /// After share edits — one group edited to zero last — a policy
    /// exported as a node tree lays out into an equal one and writes the
    /// same file; the column pass and the per-leaf descent read the same
    /// bits; and an edit reaches only the clone it was made on.
    #[test]
    fn a_policy_survives_its_export_and_its_clones_their_edits(
        mut tree in random_tree(),
        edits in proptest::collection::vec((0usize..64, 0u8..4, 0.0..10.0f64), 0..8),
        zeroed in 0usize..4,
        clone_edit in (0usize..64, 0.0..10.0f64),
    ) {
        use aequus_core::policy_file::to_policy_file;
        let paths = edit_paths(&tree);
        for &(at, kind, share) in &edits {
            let share = if kind == 0 { 0.0 } else { share };
            tree.set_share(&paths[at % paths.len()], share).unwrap();
        }
        let groups = tree.layout()[NodeId(0)].children.len();
        let group = EntityPath::parse(&format!("/g{}", zeroed % groups));
        tree.set_share(&group, 0.0).unwrap();

        let back = PolicyTree::new(tree.to_node()).unwrap();
        prop_assert_eq!(&back, &tree);
        prop_assert_eq!(to_policy_file(&back), to_policy_file(&tree));

        let leaves = tree.users();
        let shares = tree.user_shares();
        prop_assert_eq!(shares.len(), leaves.len());
        for ((user, share), (path, leaf_user)) in shares.iter().zip(&leaves) {
            prop_assert_eq!(user, leaf_user);
            let alone = tree.absolute_share(path).unwrap();
            prop_assert_eq!(share.to_bits(), alone.to_bits(), "{}: {} vs {}", path, share, alone);
            if path.components()[0] == group.components()[0] {
                prop_assert_eq!(share.to_bits(), 0.0f64.to_bits(), "{} under a zero group", path);
            }
        }

        let bits = |t: &PolicyTree| t.shares().iter().map(|s| s.to_bits()).collect::<Vec<_>>();
        let before = bits(&tree);
        let mut other = tree.clone();
        let (at, share) = clone_edit;
        let at = &paths[at % paths.len()];
        other.set_share(at, share).unwrap();
        prop_assert_eq!(bits(&tree), before);
        let id = tree.layout().node_at(at).unwrap();
        prop_assert_eq!(other.shares()[id.index()].to_bits(), share.to_bits());
        prop_assert!(std::sync::Arc::ptr_eq(tree.layout(), other.layout()));
        prop_assert!(!std::sync::Arc::ptr_eq(tree.shares(), other.shares()));
    }
}

// ---- read-on-demand moves no bit: the eager derivation stays as the oracle ----

/// The tree as it was derived before shares were read on demand: every
/// sibling group eagerly — sum the shares, sum the subtree usage, divide,
/// `distance`, `scale` — into one stored `[policy share, usage share,
/// distance, element]` per node, in depth-first (= `NodeId`) order.
fn eager_reference(policy: &PolicyTree, usage: &[f64], cfg: &FairshareConfig) -> Vec<[u64; 4]> {
    fn shares_of(node: &PolicyNode, out: &mut Vec<f64>) {
        out.push(node.share);
        node.children.iter().for_each(|child| shares_of(child, out));
    }
    let layout = policy.layout();
    let mut shares = Vec::new();
    shares_of(&policy.to_node(), &mut shares);
    let mut subtree = vec![0.0; shares.len()];
    for i in (0..shares.len()).rev() {
        let node = &layout[NodeId(i as u32)];
        let own = node.user.and_then(|user| user.read(usage)).unwrap_or(0.0);
        let children: f64 = node.children.iter().map(|c| subtree[c.index()]).sum();
        subtree[i] = own + children;
    }
    let mut derived = vec![[1.0, 1.0, 0.0, 0.0]; shares.len()];
    for i in 0..shares.len() {
        let children = &layout[NodeId(i as u32)].children;
        let policy_total: f64 = children.iter().map(|c| shares[c.index()]).sum();
        let usage_total: f64 = children.iter().map(|c| subtree[c.index()]).sum();
        for c in children.iter().map(|c| c.index()) {
            let p = if policy_total > 0.0 {
                shares[c] / policy_total
            } else {
                0.0
            };
            let u = if usage_total > 0.0 {
                subtree[c] / usage_total
            } else {
                0.0
            };
            let d = cfg.distance(p, u);
            derived[c] = [p, u, d, cfg.resolution.scale(d)];
        }
    }
    derived
        .into_iter()
        .map(|node| node.map(f64::to_bits))
        .collect()
}

/// Flat, VO → group → user, and two projects sharing one identity under two
/// leaves.
fn oracle_policy(shape: u8) -> PolicyTree {
    let user = |i: usize| PolicyNode::user(format!("u{i}"), 1.0 + i as f64);
    let root = |children| PolicyTree::new(PolicyNode::group("root", 1.0, children)).unwrap();
    match shape % 3 {
        0 => root((0..9).map(user).collect()),
        1 => root(
            (0..2)
                .map(|vo| {
                    let group = |g: usize| {
                        let first = 4 * vo + 2 * g;
                        let members = vec![user(first), user(first + 1)];
                        PolicyNode::group(format!("g{g}"), 1.0 + g as f64, members)
                    };
                    PolicyNode::group(format!("vo{vo}"), 2.0 - vo as f64, vec![group(0), group(1)])
                })
                .collect(),
        ),
        _ => {
            let shared =
                |name: &str| PolicyNode::user_with_identity(name, 2.0, GridUser::new("u0"));
            root(vec![
                PolicyNode::group("p0", 1.0, vec![shared("lead"), user(1), user(2)]),
                PolicyNode::group("p1", 3.0, vec![user(3), shared("guest"), user(4)]),
            ])
        }
    }
}

/// Every non-root path of a policy, depth first.
fn edit_paths(policy: &PolicyTree) -> Vec<EntityPath> {
    let layout = policy.layout();
    let ids = (1..layout.node_count() as u32).map(NodeId);
    ids.map(|id| layout.path_of(id)).collect()
}

fn shares_read(tree: &FairshareTree) -> Vec<[u64; 4]> {
    let ids = (0..tree.node_count() as u32).map(NodeId);
    ids.map(|id| {
        let s = tree.share_of(id);
        [s.policy_share, s.usage_share, s.distance, s.element].map(f64::to_bits)
    })
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `(op, selector, value)`: 0/1 one user's usage becomes `value` (0: back
    /// to nothing), 2 a share edit (selector ≥ 200: to zero), 3 an
    /// incremental pass and the comparison — `share_of` of every node
    /// against the eager reference, the state row against a fresh
    /// `compute_row`.
    #[test]
    fn share_of_matches_the_eager_reference_bit_for_bit(
        shape in 0u8..3,
        k in 0.0..1.0f64,
        ops in proptest::collection::vec((0u8..4, 0u8..255, 0.01..1000.0f64), 1..48),
    ) {
        let mut policy = oracle_policy(shape);
        let cfg = FairshareConfig { k_weight: k, ..Default::default() };
        let paths = edit_paths(&policy);
        let mut usage = vec![0.0; policy.layout().users().len()];
        let mut tree = FairshareTree::compute_row(&policy, &usage, &cfg, 0.0);
        let mut dirty = DirtySet::new();
        let closing = [(3u8, 0u8, 0.0)];
        for (step, &(op, sel, x)) in ops.iter().chain(&closing).enumerate() {
            match op {
                0 | 1 => {
                    let user = sel as usize % usage.len();
                    usage[user] = if op == 0 { 0.0 } else { x };
                    dirty.mark_user(UserId(user as u32));
                }
                2 => {
                    let path = &paths[sel as usize % paths.len()];
                    let share = if sel >= 200 { 0.0 } else { x / 100.0 };
                    policy.set_share(path, share).unwrap();
                    dirty.mark_path(path.clone());
                }
                _ => {
                    let now_s = step as f64;
                    let stats = tree.recompute_dirty(&policy, &usage, &dirty.take(), now_s);
                    prop_assert!(stats.is_some(), "step {step}: not served incrementally");
                    let fresh = FairshareTree::compute_row(&policy, &usage, &cfg, now_s);
                    prop_assert!(tree.state_equals(&fresh), "step {step}: state row diverged");
                    let want = eager_reference(&policy, &usage, &cfg);
                    prop_assert_eq!(shares_read(&tree), want.clone(), "step {}: incremental", step);
                    prop_assert_eq!(shares_read(&fresh), want, "step {}: fresh", step);
                }
            }
        }
    }
}

/// The flat map the rows replaced: the reference a [`CellStore`] is held to.
type FlatCells = BTreeMap<(UserId, u64), f64>;

const RAISE_EPS: f64 = 1e-12;

/// A charge: often exactly `0.0`, `-0.0` or under [`RAISE_EPS`], else
/// anywhere in `[-1, 10)`.
fn charge() -> impl Strategy<Value = f64> {
    (0u8..8, -1.0..10.0f64).prop_map(|(pick, value)| match pick {
        0 => 0.0,
        1 => -0.0,
        2 => 5e-13,
        _ => value,
    })
}

/// One call of a script: `add` (even `kind`) or `raise` (odd) of one of
/// users 0..4 (4 never holds a cell), over slots drawn from a small range so
/// that repeats and out-of-order slots are the rule, plus a slot to read
/// every user's cells from afterwards.
fn cell_call() -> impl Strategy<Value = (u8, u32, Vec<(u64, f64)>, u64)> {
    let cells = proptest::collection::vec((0u64..24, charge()), 0..7);
    (0u8..2, 0u32..4, cells, 0u64..26)
}

/// What the explorer's fingerprint of a [`CellStore`] holding `flat` fed
/// the hasher before the store became rows.
fn flat_hash(flat: &FlatCells) -> u64 {
    let mut h = DefaultHasher::new();
    flat_stream(flat, &mut h);
    h.finish()
}

/// [`flat_hash`]'s sequence: the cell count, then each cell by its bits.
fn flat_stream(flat: &FlatCells, h: &mut DefaultHasher) {
    flat.len().hash(h);
    (flat.iter()).for_each(|(cell, charge)| (cell, charge.to_bits()).hash(h));
}

/// The ids a histogram script charges — sparse, so the column has long
/// runs of entries that hold nothing — and one it only ever reads, inside
/// the column once 4,000 is charged and past its end before.
const CHARGED: [u32; 3] = [0, 3, 4_000];
const READ_ONLY: UserId = UserId(9);

/// One call of a histogram script: `add_charges` (even `kind`) of `cells`
/// or `record` (odd) of a job `(cores, start, length)` — often charging
/// nothing — for one of [`CHARGED`], plus a slot to split a read at.
type HistogramCall = (u8, usize, Vec<(u64, f64)>, (u32, f64, f64), u64);

fn histogram_call() -> impl Strategy<Value = HistogramCall> {
    let cells = proptest::collection::vec((0u64..24, charge()), 0..7);
    let length = (0u8..3, 0.0..900.0f64).prop_map(|(pick, len)| if pick == 0 { 0.0 } else { len });
    let job = (0u32..4, 0.0..2_000.0f64, length);
    (0u8..2, 0..CHARGED.len(), cells, job, 0u64..26)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Rows against the flat per-cell map, bit for bit, after every call:
    /// the rises reported, every cell in order, each user's cells from a
    /// random slot, the users, emptiness and the fingerprint.
    #[test]
    fn a_cell_store_reads_what_the_flat_map_reads(
        script in proptest::collection::vec(cell_call(), 1..40),
    ) {
        let (mut store, mut flat) = (CellStore::default(), FlatCells::new());
        for (kind, user, cells, from) in script {
            let user = UserId(user);
            let (mut rises, mut want) = (Vec::new(), Vec::new());
            if kind == 0 {
                store.add(user, cells.iter().copied());
                for &(slot, charge) in &cells {
                    *flat.entry((user, slot)).or_insert(0.0) += charge;
                }
            } else {
                store.raise(user, cells.iter().copied(), RAISE_EPS, |slot, value, rise| {
                    rises.push((slot, value.to_bits(), rise.to_bits()));
                });
                for &(slot, value) in &cells {
                    let held = flat.get(&(user, slot)).copied();
                    let rise = value - held.unwrap_or(0.0);
                    if rise > RAISE_EPS {
                        flat.insert((user, slot), value);
                        let rise = if held.is_some() { rise } else { value };
                        want.push((slot, value.to_bits(), rise.to_bits()));
                    }
                }
            }
            prop_assert_eq!(rises, want);
            let rows = store.iter();
            let got: Vec<_> = rows
                .flat_map(|(u, row)| row.iter().map(move |&(s, c)| (u, s, c.to_bits())))
                .collect();
            let want: Vec<_> = flat.iter().map(|(&(u, s), c)| (u, s, c.to_bits())).collect();
            prop_assert_eq!(got, want);
            for user in (0..5).map(UserId) {
                let got: Vec<_> = store.of(user, from).iter().map(|&(s, c)| (s, c.to_bits())).collect();
                let want: Vec<_> = (flat.range((user, from)..=(user, u64::MAX)))
                    .map(|(&(_, s), c)| (s, c.to_bits()))
                    .collect();
                prop_assert_eq!(got, want);
            }
            let mut users: Vec<UserId> = flat.keys().map(|&(u, _)| u).collect();
            users.dedup();
            prop_assert_eq!(store.iter().map(|(u, _)| u).collect::<Vec<_>>(), users);
            prop_assert_eq!(store.is_empty(), flat.is_empty());
            let mut h = DefaultHasher::new();
            store.hash(&mut h);
            prop_assert_eq!(h.finish(), flat_hash(&flat));
        }
    }
    /// A histogram against the flat per-cell map, bit for bit, after every
    /// `add_charges` or `record`: its rows in order, each user's decayed
    /// and raw reads, emptiness, equality with a fresh histogram while
    /// nothing is held, and the fingerprint — what the map-backed histogram
    /// fed the hasher (slot and total bits, then [`flat_hash`]'s sequence).
    #[test]
    fn a_histogram_reads_what_the_flat_map_reads(
        script in proptest::collection::vec(histogram_call(), 1..40),
    ) {
        const SLOT: f64 = 100.0;
        let (mut h, mut flat, mut total) = (UsageHistogram::new(SLOT), FlatCells::new(), 0.0);
        let weigh = |centre: f64| DecayPolicy::Exponential { half_life_s: 700.0 }.weight(2_500.0 - centre);
        for (kind, pick, cells, (cores, start, len), mark) in script {
            let user = UserId(CHARGED[pick]);
            let mut charge = |slot, c: f64| *flat.entry((user, slot)).or_insert(0.0) += c;
            if kind == 0 {
                h.add_charges(user, cells.iter().copied());
                for &(slot, c) in cells.iter().filter(|&&(_, c)| c > 0.0) {
                    total += c;
                    charge(slot, c);
                }
            } else {
                let rec = UsageRecord {
                    job: JobId(0),
                    user: GridUser::new("whoever"),
                    site: SiteId(0),
                    cores,
                    start_s: start,
                    end_s: start + len,
                };
                let (first, last) = ((start / SLOT).floor() as u64, ((start + len) / SLOT).floor() as u64);
                let want = (rec.charge() > 0.0).then_some(first);
                prop_assert_eq!(h.record(user, &rec), want);
                if want.is_some() {
                    total += rec.charge();
                    if first == last {
                        charge(first, rec.charge());
                    }
                    for slot in (first..=last).filter(|_| first != last) {
                        let (from, to) = (slot as f64 * SLOT, (slot + 1) as f64 * SLOT);
                        let overlap = rec.end_s.min(to) - rec.start_s.max(from);
                        if overlap > 0.0 {
                            charge(slot, cores as f64 * overlap);
                        }
                    }
                }
            }
            let got: Vec<_> = h.rows()
                .flat_map(|(u, row)| row.iter().map(move |&(s, c)| (u, s, c.to_bits())))
                .collect();
            let want: Vec<_> = flat.iter().map(|(&(u, s), c)| (u, s, c.to_bits())).collect();
            prop_assert_eq!(got, want);
            let mut users: Vec<UserId> = flat.keys().map(|&(u, _)| u).collect();
            users.dedup();
            prop_assert_eq!(h.rows().map(|(u, _)| u).collect::<Vec<_>>(), users);
            for user in CHARGED.map(UserId).into_iter().chain([READ_ONLY]) {
                let (mut sum, mut raw, mut below, mut passed) = (0.0, 0.0, 0.0, 0);
                for (&(_, slot), &c) in flat.range((user, 0)..=(user, u64::MAX)) {
                    sum += c * weigh((slot as f64 + 0.5) * SLOT);
                    raw += c * 1.0;
                    if slot < mark {
                        (below, passed) = (sum, passed + 1);
                    }
                }
                let (got, prefix, got_passed) = h.usage(user, weigh, Prefix::default(), mark);
                prop_assert_eq!((got.to_bits(), prefix.sum.to_bits()), (sum.to_bits(), below.to_bits()));
                prop_assert_eq!((prefix.slot, got_passed), (mark, passed));
                prop_assert_eq!(h.raw_usage(user).to_bits(), raw.to_bits());
            }
            prop_assert_eq!(h.total_recorded().to_bits(), total.to_bits());
            prop_assert_eq!(h.rows().next().is_none(), flat.is_empty());
            prop_assert_eq!(h == UsageHistogram::new(SLOT), flat.is_empty());
            let (mut got, mut want) = (DefaultHasher::new(), DefaultHasher::new());
            h.hash(&mut got);
            (SLOT.to_bits(), total.to_bits()).hash(&mut want);
            flat_stream(&flat, &mut want);
            prop_assert_eq!(got.finish(), want.finish());
        }
    }
}
