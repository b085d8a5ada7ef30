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
//! The policy is three levels deep (VO → group → user), so the id-indexed
//! re-projection — leaves found by arena id under changed interior nodes,
//! products multiplied root→leaf along parent pointers, factors written
//! straight into `UserId` slots — is also compared against one global
//! `project()` of the same tree, and the by-id lookups against the table.

use aequus_core::policy::{PolicyNode, PolicyTree};
use aequus_core::projection::ProjectionKind;
use aequus_core::usage::{UsageRecord, UsageSummary};
use aequus_core::{DecayPolicy, EntityPath, FairshareConfig, GridUser, JobId, SiteId};
use aequus_services::{Fcs, ParticipationMode, Pds, Ums, Uss, UssMessage};
use proptest::collection::vec;
use proptest::prelude::*;
use std::collections::BTreeMap;

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

/// Every VO, every group, then every user leaf — the edit targets.
fn edit_paths() -> Vec<EntityPath> {
    let vos = (0..VOS).map(|v| format!("/vo{v}"));
    let groups = (0..GROUPS).map(group_path);
    let users =
        (0..N_USERS).map(|i| format!("{}/{}", group_path(i / USERS_PER_GROUP), user_name(i)));
    vos.chain(groups)
        .chain(users)
        .map(|p| EntityPath::parse(&p))
        .collect()
}

fn nested_policy() -> PolicyTree {
    let group = |g: usize| {
        PolicyNode::group(
            format!("g{g}"),
            1.0 / GROUPS as f64,
            (0..USERS_PER_GROUP)
                .map(|j| {
                    PolicyNode::user(
                        user_name(g * USERS_PER_GROUP + j),
                        1.0 / USERS_PER_GROUP as f64,
                    )
                })
                .collect(),
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
    now_s: f64,
) -> Result<(), String> {
    let mut fresh = Fcs::new(FairshareConfig::default(), kind, 0.0);
    fresh.refresh(pds, ums, now_s);
    let inc = fcs.factors();
    let at = format!("{kind:?} at t={now_s}");
    bit_equal(&format!("{at} vs fresh FCS"), &inc, &fresh.factors())?;
    let tree = fcs.tree().ok_or_else(|| format!("{at}: no tree"))?;
    bit_equal(
        &format!("{at} vs project()"),
        &inc,
        &kind.build().project(tree),
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
fn run_interleaving(kind: ProjectionKind, decay_sel: u8, ops: &[Op]) -> Result<(), String> {
    let paths = edit_paths();
    let mut pds = Pds::new(nested_policy());
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
                per_user.insert(user, BTreeMap::from([(slot, x * 300.0)]));
                let summary = UsageSummary {
                    site: SiteId(1),
                    seq: 0, // below every cursor: only the absolute cells matter
                    slot_s: 60.0,
                    per_user,
                    relayed: BTreeMap::new(),
                };
                uss.receive_message(&UssMessage::Summary { summary, ctx: None }, now_s);
            }
            2 => {
                now_s += x * 4000.0;
                ums.refresh(&mut uss, now_s);
                fcs.refresh(&mut pds, &mut ums, now_s);
                assert_matches_fresh(kind, &fcs, &mut pds, &mut ums, now_s)?;
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
    fcs.refresh(&mut pds, &mut ums, now_s);
    assert_matches_fresh(kind, &fcs, &mut pds, &mut ums, now_s)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn dictionary_incremental_equals_full(
        decay_sel in 0u8..3,
        ops in vec((0u8..4, 0u8..16, 0.01..1.0f64), 1..40),
    ) {
        let r = run_interleaving(ProjectionKind::Dictionary, decay_sel, &ops);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn bitwise_incremental_equals_full(
        decay_sel in 0u8..3,
        ops in vec((0u8..4, 0u8..16, 0.01..1.0f64), 1..40),
    ) {
        let r = run_interleaving(ProjectionKind::Bitwise, decay_sel, &ops);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }

    #[test]
    fn percental_incremental_equals_full(
        decay_sel in 0u8..3,
        ops in vec((0u8..4, 0u8..16, 0.01..1.0f64), 1..40),
    ) {
        let r = run_interleaving(ProjectionKind::Percental, decay_sel, &ops);
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
    }
}
