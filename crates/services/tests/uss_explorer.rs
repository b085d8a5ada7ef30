//! Small-scope exhaustive exploration of the USS exchange, over the public
//! API as it is: `Uss` is IO-free and `Clone`, so a state is three services
//! plus the messages in flight, and a step is one call.
//!
//! Three sites, a handful of usage records, and — to a depth bound — every
//! interleaving of: ingest the next record; one site's publish + poll;
//! deliver any in-flight message (any, not the oldest: that is every
//! reordering); drop one; duplicate one; and one crash + recovery of any
//! site. Once per overlay. After every step no mirrored or remote cell has
//! decreased, no site believes more than `Σ duration_s × cores` of what
//! was ingested (the `tests/oracle` sum), and every closed cell more than
//! `CELL_EPS` above the mirror it is published against belongs to a user
//! the site holds pending; from every state reached, a
//! fault-free continuation — every site charges one closing record, then
//! only publish, poll and deliver — runs to quiescence (nothing in flight,
//! every outbox drained), where every site's view must equal that sum.
//!
//! Every crash is also held to the state grouping: the crashed service's
//! volatile state must equal that of a service started fresh over the same
//! configuration and ledger, so a volatile field `crash` forgot fails here.
//!
//! States that differ only in the order of commuting steps are expanded
//! once (fingerprinted by `Hash` — a site by its configuration, ledger and
//! volatile state, floats by their bits, what it has counted left out —
//! cached per site and per message), which is what lets the search reach
//! useful depth in seconds.

use aequus_core::codec::NamedCells;
use aequus_core::usage::{UsageRecord, UserCells};
use aequus_core::{GridUser, JobId, SiteId, UserTable};
use aequus_services::{OverlayTopology, ParticipationMode, RetryPolicy, Uss, UssMessage};
use std::cell::OnceCell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashSet};
use std::hash::{Hash, Hasher};

const SITES: usize = 3;
const SLOT_S: f64 = 100.0;
/// Clock advance per publish + poll — past the retry timeout, so every
/// unacked summary is due again.
const TICK_S: f64 = 25.0;
/// Steps explored from the initial state.
const DEPTH: u8 = 6;
/// `uss::CELL_EPS`: what a cell must exceed its mirror by to be published.
const CELL_EPS: f64 = 1e-12;

/// Records the search ingests, in this order.
const EXPLORED: usize = 3;

/// The records: the first `EXPLORED` are steps of the search, the closing
/// three (one per site) belong to the fault-free continuation. All lie in
/// slots that closed before the exploration's clock starts, so a publish
/// never holds one back.
fn script() -> Vec<UsageRecord> {
    [
        (0u32, "alice", 2u32, 10.0, 130.0), // spans two slots
        (1, "alice", 1, 50.0, 90.0),
        (2, "bob", 4, 120.0, 260.0),
        (0, "carol", 1, 400.0, 410.0),
        (1, "carol", 1, 410.0, 420.0),
        (2, "carol", 1, 420.0, 430.0),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (site, user, cores, start_s, end_s))| UsageRecord {
        job: JobId(i as u64),
        user: GridUser::new(user),
        site: SiteId(site),
        cores,
        start_s,
        end_s,
    })
    .collect()
}

/// `Σ duration_s × cores` per user over `records` — computed from the
/// records alone, never through a `Uss`.
fn oracle(records: &[UsageRecord]) -> BTreeMap<GridUser, f64> {
    let mut sum = BTreeMap::new();
    for r in records {
        *sum.entry(r.user.clone()).or_insert(0.0) += (r.end_s - r.start_s) * f64::from(r.cores);
    }
    sum
}

/// Hash of one value on its own.
fn hash_of(value: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    value.hash(&mut h);
    h.finish()
}

/// A message in flight, with its fingerprint once something asked for it.
#[derive(Clone)]
struct Flight {
    to: SiteId,
    msg: UssMessage,
    hash: OnceCell<u64>,
}

impl Flight {
    fn hash(&self) -> u64 {
        *self.hash.get_or_init(|| hash_of(&(self.to, &self.msg)))
    }
}

#[derive(Clone)]
struct World {
    sites: Vec<Uss>,
    /// Per-site fingerprints, forgotten whenever the site is touched.
    site_hash: [OnceCell<u64>; SITES],
    wire: Vec<Flight>,
    now_s: f64,
    /// Records of the script ingested so far.
    ingested: usize,
    drops_left: u8,
    duplicates_left: u8,
    crashes_left: u8,
}

#[derive(Debug, Clone, Copy)]
enum Step {
    Ingest,
    Tick(usize),
    Deliver(usize),
    Drop(usize),
    Duplicate(usize),
    Crash(usize),
}

/// What the monotonicity invariant compares at one site between a state
/// and its successor: the origin-scoped merge mirrors and the merged remote
/// usage per user.
type Observed = (BTreeMap<SiteId, UserCells>, BTreeMap<GridUser, f64>);

impl World {
    fn new(overlay: OverlayTopology) -> Self {
        let retry = RetryPolicy {
            ack_timeout_s: 20.0,
            max_backoff_s: 20.0,
            jitter_frac: 0.0,
            history_cap: 2, // resyncs soon fall back to snapshots
            outbox_cap: 2,
        };
        let sites = (0..SITES)
            .map(|i| {
                let peers: Vec<SiteId> = overlay
                    .neighbors(i, SITES)
                    .into_iter()
                    .map(|j| SiteId(j as u32))
                    .collect();
                // The explored records name alice and bob, whose ids are
                // their ranks whatever the interleaving — states reached by
                // commuting steps print alike; carol, of the continuation,
                // is met outside the base.
                let base = ["alice", "bob"].map(GridUser::new);
                let users = UserTable::new(base.into());
                let mode = ParticipationMode::Full;
                let mut uss = Uss::with_users(SiteId(i as u32), mode, SLOT_S, users);
                uss.set_peers(&peers, &peers);
                uss.configure_reliability(retry, 7);
                uss.set_forwarding(overlay.forwards(i, SITES));
                uss
            })
            .collect();
        Self {
            sites,
            site_hash: Default::default(),
            wire: Vec::new(),
            now_s: 1000.0,
            ingested: 0,
            drops_left: 1,
            duplicates_left: 1,
            crashes_left: 1,
        }
    }

    /// Every step possible here. In-flight messages equal to an earlier one
    /// are the same choice and offered once.
    fn steps(&self) -> Vec<Step> {
        let mut steps = Vec::new();
        if self.ingested < EXPLORED {
            steps.push(Step::Ingest);
        }
        steps.extend((0..SITES).map(Step::Tick));
        let distinct: Vec<usize> = (0..self.wire.len())
            .filter(|&i| {
                self.wire[..i]
                    .iter()
                    .all(|m| m.hash() != self.wire[i].hash())
            })
            .collect();
        steps.extend(distinct.iter().map(|&i| Step::Deliver(i)));
        if self.drops_left > 0 {
            steps.extend(distinct.iter().map(|&i| Step::Drop(i)));
        }
        if self.duplicates_left > 0 {
            steps.extend(distinct.iter().map(|&i| Step::Duplicate(i)));
        }
        if self.crashes_left > 0 {
            steps.extend((0..SITES).map(Step::Crash));
        }
        steps
    }

    fn site_mut(&mut self, site: usize) -> &mut Uss {
        self.site_hash[site].take();
        &mut self.sites[site]
    }

    fn send(&mut self, messages: Vec<(SiteId, UssMessage)>) {
        self.wire
            .extend(messages.into_iter().map(|(to, msg)| Flight {
                to,
                msg,
                hash: OnceCell::new(),
            }));
    }

    fn tick(&mut self, site: usize) {
        self.now_s += TICK_S;
        let now_s = self.now_s;
        self.site_mut(site).publish(now_s);
        let sent = self.site_mut(site).poll(now_s);
        self.send(sent);
    }

    fn deliver(&mut self, flight: &Flight) {
        let now_s = self.now_s;
        let responses = self
            .site_mut(flight.to.0 as usize)
            .receive_message(&flight.msg, now_s);
        self.send(responses);
    }

    fn apply(&mut self, step: Step, script: &[UsageRecord]) {
        match step {
            Step::Ingest => {
                let rec = &script[self.ingested];
                self.site_mut(rec.site.0 as usize).ingest(rec);
                self.ingested += 1;
            }
            Step::Tick(site) => self.tick(site),
            Step::Deliver(i) => {
                let flight = self.wire.remove(i);
                self.deliver(&flight);
            }
            Step::Drop(i) => {
                self.wire.remove(i);
                self.drops_left -= 1;
            }
            Step::Duplicate(i) => {
                let flight = self.wire[i].clone();
                self.deliver(&flight);
                self.duplicates_left -= 1;
            }
            Step::Crash(site) => {
                let crashed = self.site_mut(site);
                crashed.crash();
                assert_eq!(
                    crashed.volatile(),
                    &crashed.fresh_volatile(),
                    "site {site}: a crash must leave a fresh process's volatile state"
                );
                crashed.request_catchup();
                self.crashes_left -= 1;
            }
        }
    }

    /// The one site `step` changes, if any.
    fn touched(&self, step: Step, script: &[UsageRecord]) -> Option<usize> {
        match step {
            Step::Ingest => Some(script[self.ingested].site.0 as usize),
            Step::Tick(site) | Step::Crash(site) => Some(site),
            Step::Deliver(i) | Step::Duplicate(i) => Some(self.wire[i].to.0 as usize),
            Step::Drop(_) => None,
        }
    }

    fn observe(&self, site: usize) -> Observed {
        let uss = &self.sites[site];
        let held = uss.checkpoint_view(0, self.now_s, None, &[]);
        let named = |cells: &NamedCells<'_>| {
            let users = cells.iter();
            users
                .map(|(user, cells)| (user.clone(), cells.iter().copied().collect()))
                .collect()
        };
        let mirrors = held.origin_cells.iter();
        let mirrors = mirrors
            .map(|(origin, cells)| (*origin, named(cells)))
            .collect();
        let remote = uss
            .known_users()
            .into_iter()
            .map(|u| {
                let user = uss.users().name(u).clone();
                let usage = uss.remote_usage_of(&user);
                (user, usage)
            })
            .collect();
        (mirrors, remote)
    }

    /// The state's fingerprint, which the order of in-flight messages does
    /// not change — any of them can be delivered next, so the wire is a
    /// multiset.
    fn fingerprint(&self) -> u64 {
        let mut wire: Vec<u64> = self.wire.iter().map(Flight::hash).collect();
        wire.sort_unstable();
        let mut h = DefaultHasher::new();
        for (uss, hash) in self.sites.iter().zip(&self.site_hash) {
            hash.get_or_init(|| hash_of(uss)).hash(&mut h);
        }
        wire.hash(&mut h);
        (self.now_s.to_bits(), self.ingested).hash(&mut h);
        (self.drops_left, self.duplicates_left, self.crashes_left).hash(&mut h);
        h.finish()
    }

    fn in_flight_or_unacked(&self) -> bool {
        !self.wire.is_empty()
            || self
                .sites
                .iter()
                .any(|uss| (0..SITES as u32).any(|peer| uss.outbox_depth(SiteId(peer)) > 0))
    }
}

/// The write side's invariant: `publish` visits pending users only, so a
/// closed cell more than `CELL_EPS` above the mirror it is diffed against
/// must belong to a pending user, at or past that user's pending slot —
/// own cells against the published mirror (closed: before the slot holding
/// `now_s`) and, on a forwarding node, every mirrored origin's cells against
/// what was relayed for that origin (all closed at their origin).
fn check_pending(uss: &Uss, now_s: f64, trail: &[Step]) {
    let held = uss.checkpoint_view(0, now_s, None, &[]);
    let ((published, relayed), (unpublished, unrelayed)) = (uss.sent_mirrors(), uss.pending());
    let current_slot = (now_s / SLOT_S).floor() as u64;
    let check = |what: &str,
                 user: &GridUser,
                 cells: &[(u64, f64)],
                 sent: Option<&UserCells>,
                 pending: Option<&BTreeMap<GridUser, u64>>,
                 closed_before: u64| {
        let from = pending.and_then(|p| p.get(user)).copied();
        let unsent_before = closed_before.min(from.unwrap_or(u64::MAX));
        for &(slot, value) in cells.iter().filter(|(slot, _)| *slot < unsent_before) {
            let sent = sent.and_then(|s| s.get(user)).and_then(|s| s.get(&slot));
            assert!(
                value - sent.copied().unwrap_or(0.0) <= CELL_EPS,
                "site {:?}: {what} cell ({user:?}, {slot}) = {value} sits above its mirror \
                 ({sent:?}) but the user is pending from {from:?}, after {trail:?}",
                uss.site()
            );
        }
    };
    for (user, cells) in held.local_cells.iter() {
        let (sent, pending) = (Some(&published), Some(&unpublished));
        check("own", user, cells, sent, pending, current_slot);
    }
    for (origin, users) in held.origin_cells.iter().filter(|_| uss.forwarding()) {
        for (user, cells) in users.iter() {
            let (sent, pending) = (relayed.get(origin), unrelayed.get(origin));
            check("mirrored", user, cells, sent, pending, u64::MAX);
        }
    }
}

/// After a step that touched `site`: no mirrored cell and no user's merged
/// remote usage went down there — unless the step was its crash, which
/// wipes volatile state by design — and its view of no user exceeds what
/// was ingested — and its pending sets cover every cell it has yet to send.
fn check_step(
    (old_mirrors, old_remote): &Observed,
    after: &World,
    site: usize,
    step: Step,
    script: &[UsageRecord],
    trail: &[Step],
) {
    let (mirrors, remote) = after.observe(site);
    if !matches!(step, Step::Crash(_)) {
        for (origin, users) in old_mirrors {
            for (user, slots) in users {
                for (slot, old) in slots {
                    let new = mirrors
                        .get(origin)
                        .and_then(|u| u.get(user))
                        .and_then(|s| s.get(slot));
                    assert!(
                        new.is_some_and(|new| new >= old),
                        "site {site}: mirrored cell ({origin:?}, {user:?}, {slot}) fell \
                         {old} -> {new:?} after {trail:?}"
                    );
                }
            }
        }
        for (user, old) in old_remote {
            let new = remote.get(user).copied().unwrap_or(0.0);
            assert!(
                new >= *old,
                "site {site}: remote usage of {user:?} fell {old} -> {new} after {trail:?}"
            );
        }
    }
    check_pending(&after.sites[site], after.now_s, trail);
    let ceiling = oracle(&script[..after.ingested]);
    let uss = &after.sites[site];
    for user in uss.known_users() {
        let got = uss.grid_view_of(user);
        let user = uss.users().name(user);
        let most = ceiling.get(user).copied().unwrap_or(0.0);
        assert!(
            got <= most + 1e-9,
            "site {site} believes {got} for {user:?}, only {most} was ever charged, \
             after {trail:?}"
        );
    }
}

/// The fault-free continuation: ingest what is left of the script, then
/// rounds of "every site publishes and polls, everything in flight is
/// delivered" until a round starts with nothing to send and nothing
/// unacked. There every site's view must equal the oracle.
///
/// The closing records are part of the claim, not padding: catch-up
/// requests and snapshots are sent once and never retried, and what heals
/// a lost one is the peer's *next* publication tripping gap detection. A
/// site whose `SnapshotRequest` was dropped, facing a peer that never
/// publishes again, stays short for good — the search finds that in seven
/// steps when the continuation charges nothing new.
fn check_quiescent_view(mut w: World, script: &[UsageRecord], trail: &[Step]) {
    while w.ingested < script.len() {
        w.apply(Step::Ingest, script);
    }
    for _round in 0..12 {
        (0..SITES).for_each(|site| w.tick(site));
        if !w.in_flight_or_unacked() {
            let want = oracle(script);
            for (site, uss) in w.sites.iter().enumerate() {
                let view = uss.grid_view();
                assert_eq!(
                    view.keys().collect::<Vec<_>>(),
                    want.keys().collect::<Vec<_>>(),
                    "site {site} after {trail:?}"
                );
                for (user, want) in &want {
                    let got = view[user];
                    assert!(
                        (got - want).abs() <= 1e-9 * want.max(1.0),
                        "quiescent site {site} believes {got} for {user:?}, the records \
                         charged {want}, after {trail:?}"
                    );
                }
            }
            return;
        }
        while !w.wire.is_empty() {
            w.apply(Step::Deliver(0), script);
        }
    }
    panic!("no quiescence within 12 fault-free rounds after {trail:?}");
}

/// Breadth-first over every step sequence up to `DEPTH`; a state reached
/// again (by commuting steps) is expanded only the first time, which is at
/// its smallest depth. Returns how many distinct states were checked.
fn explore(overlay: OverlayTopology) -> usize {
    let script = script();
    let start = World::new(overlay);
    let mut seen: HashSet<u64> = [start.fingerprint()].into();
    let mut frontier = vec![(start, Vec::new())];
    for depth in 0..=DEPTH {
        let mut next = Vec::new();
        for (w, trail) in frontier {
            check_quiescent_view(w.clone(), &script, &trail);
            if depth == DEPTH {
                continue;
            }
            let before: Vec<Observed> = (0..SITES).map(|site| w.observe(site)).collect();
            for step in w.steps() {
                let mut child = w.clone();
                child.apply(step, &script);
                let trail: Vec<Step> = trail.iter().copied().chain([step]).collect();
                if let Some(site) = w.touched(step, &script) {
                    check_step(&before[site], &child, site, step, &script, &trail);
                }
                if seen.insert(child.fingerprint()) {
                    next.push((child, trail));
                }
            }
        }
        frontier = next;
    }
    seen.len()
}

#[test]
fn full_mesh_conserves_usage_under_every_interleaving() {
    let states = explore(OverlayTopology::FullMesh);
    assert!(states > 1_000, "explored only {states} states");
}

/// At three sites `Tree { fanout: 2 }` and `Hub { hubs: 1 }` are the same
/// star around a forwarding site 0: the services start out identical field
/// for field, so one search covers both.
#[test]
fn tree_and_hub_conserve_usage_under_every_interleaving() {
    let (tree, hub) = (
        OverlayTopology::Tree { fanout: 2 },
        OverlayTopology::Hub { hubs: 1 },
    );
    assert_eq!(
        World::new(tree).fingerprint(),
        World::new(hub).fingerprint()
    );
    let states = explore(tree);
    assert!(states > 1_000, "explored only {states} states");
}
