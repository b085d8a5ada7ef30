//! `Uss::publish` against a whole-mirror oracle.
//!
//! The service walks only the users its pending sets name. The oracle here
//! is the algorithm that walk replaced: on every publish, diff *every*
//! local cell — and, on a forwarding node, every mirrored origin cell —
//! against a shadow of what was already sent. Both read the same cells (the
//! oracle through the service's checkpoint view), so every summary the
//! service returns — own and relayed sections, `seq`, `None` when nothing
//! changed — must equal the oracle's, and after every publish the service's
//! own sent mirrors (`Uss::sent_mirrors`, names written back over its
//! id-keyed stores) the oracle's shadows, through random interleavings of
//! ingest (charge landing in open, old and several slots at once, residues
//! below the publication threshold, records that charge nothing), publishes
//! with and without the clock crossing a slot boundary, delivery,
//! duplication and reordering, crashes, store-mode crashes recovered from a
//! checkpoint plus a replayed journal, and forwarding switched on and off
//! on nodes that already hold mirrors — on a full mesh and on a 3-node
//! chain whose middle node relays.

use aequus_core::usage::{UsageRecord, UsageSummary, UserCells};
use aequus_core::{GridUser, JobId, SiteId};
use aequus_services::{ParticipationMode, RetryPolicy, Uss, UssMessage};
use aequus_store::CheckpointState;
use proptest::prelude::*;
use std::collections::BTreeMap;

const SITES: usize = 3;
const USERS: [&str; 3] = ["alice", "bob", "carol"];
const SLOT_S: f64 = 100.0;
/// `uss::CELL_EPS`: a cell is published once it sits more than this above
/// what was sent.
const CELL_EPS: f64 = 1e-12;

/// The cells of `slots` more than [`CELL_EPS`] above `sent`, recorded there.
fn risen<'a>(
    slots: impl Iterator<Item = (&'a u64, &'a f64)>,
    sent: &mut BTreeMap<u64, f64>,
) -> BTreeMap<u64, f64> {
    let mut cells = BTreeMap::new();
    for (&slot, &value) in slots {
        if value - sent.get(&slot).copied().unwrap_or(0.0) > CELL_EPS {
            cells.insert(slot, value);
            sent.insert(slot, value);
        }
    }
    cells
}

/// Everything `uss` holds, under names: its checkpoint through the slot
/// bytes and back.
fn held_by(uss: &Uss, now_s: f64) -> CheckpointState {
    let view = uss.checkpoint_view(0, now_s, None, &[]);
    CheckpointState::decode_slot(&view.encode()).expect("a fresh slot decodes")
}

/// The oracle's state for one site: shadows of the two sent mirrors and the
/// publish cursor.
#[derive(Clone)]
struct WholeMirror {
    published: UserCells,
    relayed: BTreeMap<SiteId, UserCells>,
    next_seq: u64,
}

impl WholeMirror {
    fn new() -> Self {
        Self {
            published: UserCells::new(),
            relayed: BTreeMap::new(),
            next_seq: 1,
        }
    }

    /// A crash drops both mirrors; the publish cursor survives.
    fn crash(&mut self) {
        self.published.clear();
        self.relayed.clear();
    }

    /// What `uss.publish(now_s)` must return, by diffing everything `uss`
    /// holds.
    fn publish(&mut self, uss: &Uss, now_s: f64) -> Option<UsageSummary> {
        let contributes = uss.mode().contributes();
        if !(contributes || uss.forwarding()) {
            return None;
        }
        let held = held_by(uss, now_s);
        let current_slot = (now_s / SLOT_S).floor().max(0.0) as u64;
        let mut per_user = UserCells::new();
        for (user, slots) in held.local_cells.iter().filter(|_| contributes) {
            let sent = self.published.entry(user.clone()).or_default();
            let closed = slots.iter().filter(|(slot, _)| **slot < current_slot);
            let cells = risen(closed, sent);
            if !cells.is_empty() {
                per_user.insert(user.clone(), cells);
            }
        }
        let mut relayed = BTreeMap::new();
        for (origin, users) in held.origin_cells.iter().filter(|_| uss.forwarding()) {
            let sent_users = self.relayed.entry(*origin).or_default();
            let mut section = UserCells::new();
            for (user, slots) in users {
                let cells = risen(slots.iter(), sent_users.entry(user.clone()).or_default());
                if !cells.is_empty() {
                    section.insert(user.clone(), cells);
                }
            }
            if !section.is_empty() {
                relayed.insert(*origin, section);
            }
        }
        if per_user.is_empty() && relayed.is_empty() {
            return None;
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        Some(UsageSummary {
            site: uss.site(),
            seq,
            slot_s: SLOT_S,
            per_user,
            relayed,
        })
    }
}

/// What a store-mode site journals between checkpoints.
#[derive(Clone)]
enum Journaled {
    Usage(UsageRecord),
    PeerData(UsageSummary, bool),
    Publish(u64),
}

struct World {
    sites: Vec<Uss>,
    oracles: Vec<WholeMirror>,
    /// Per site: the last checkpoint cut and everything journaled since.
    disks: Vec<(Option<CheckpointState>, Vec<Journaled>)>,
    wire: Vec<(SiteId, UssMessage)>,
    now_s: f64,
    jobs: u64,
}

impl World {
    /// `chain`: 0 — 1 — 2 with the middle node forwarding; otherwise a full
    /// mesh where nobody does.
    fn new(chain: bool, seed: u64) -> Self {
        let retry = RetryPolicy {
            ack_timeout_s: 20.0,
            max_backoff_s: 80.0,
            jitter_frac: 0.1,
            history_cap: 4,
            outbox_cap: 4,
        };
        let sites = (0..SITES as u32)
            .map(|i| {
                let peers: Vec<SiteId> = (0..SITES as u32)
                    .filter(|&j| !chain || i.abs_diff(j) == 1)
                    .map(SiteId)
                    .collect();
                let mut uss = Uss::new(SiteId(i), ParticipationMode::Full, SLOT_S);
                uss.set_peers(&peers, &peers);
                uss.configure_reliability(retry, seed.wrapping_add(u64::from(i)));
                uss.set_forwarding(chain && i == 1);
                uss
            })
            .collect();
        Self {
            sites,
            oracles: vec![WholeMirror::new(); SITES],
            disks: vec![(None, Vec::new()); SITES],
            wire: Vec::new(),
            now_s: 1000.0,
            jobs: 0,
        }
    }

    /// Ingest one record at `site`; `kind` picks where its charge lands.
    fn ingest(&mut self, site: usize, user: usize, kind: u16, mag: u16) {
        let now = self.now_s;
        let (start_s, end_s) = match kind % 5 {
            // Ends now: the open slot, reaching back over closed ones when
            // long enough.
            0 => (now - 1.0 - f64::from(mag % 180), now),
            // Late charge: wholly in old slots, often several of them.
            1 => {
                let end = now - SLOT_S * f64::from(1 + mag % 3) - 20.0;
                (end - f64::from(mag % 250), end)
            }
            // A residue below the publication threshold, always into the
            // same closed cell so that a few of them add up past it.
            2 => (50.0, 50.0 + 4e-13),
            // Charges nothing: zero duration, then end before start.
            3 => (now - 10.0, now - 10.0),
            _ => (now - 10.0, now - 30.0),
        };
        let rec = UsageRecord {
            job: JobId(self.jobs),
            user: GridUser::new(USERS[user]),
            site: SiteId(site as u32),
            cores: 1 + u32::from(mag % 2),
            start_s,
            end_s,
        };
        self.jobs += 1;
        self.sites[site].ingest(&rec);
        self.disks[site].1.push(Journaled::Usage(rec));
    }

    /// Publish at `site` beside its oracle, then flush its sends.
    fn publish(&mut self, site: usize) -> Result<(), TestCaseError> {
        let now = self.now_s;
        let want = self.oracles[site].publish(&self.sites[site], now);
        let got = self.sites[site].publish(now);
        prop_assert_eq!(&got, &want, "site {} at t={}", site, now);
        // The service's mirrors are the oracle's shadows (which keep an
        // empty entry for every user and origin they ever looked at).
        let (published, relayed) = self.sites[site].sent_mirrors();
        let mut shadow = self.oracles[site].clone();
        shadow.published.retain(|_, cells| !cells.is_empty());
        for users in shadow.relayed.values_mut() {
            users.retain(|_, cells| !cells.is_empty());
        }
        shadow
            .relayed
            .retain(|origin, _| relayed.contains_key(origin));
        prop_assert_eq!(
            &published,
            &shadow.published,
            "site {} published mirror",
            site
        );
        prop_assert_eq!(&relayed, &shadow.relayed, "site {} relay mirror", site);
        if let Some(summary) = got {
            self.disks[site].1.push(Journaled::Publish(summary.seq));
        }
        let sent = self.sites[site].poll(now);
        self.wire.extend(sent);
        Ok(())
    }

    fn receive(&mut self, to: SiteId, msg: &UssMessage) {
        let site = to.0 as usize;
        match msg {
            UssMessage::Summary { summary, .. } => {
                (self.disks[site].1).push(Journaled::PeerData(summary.clone(), false));
            }
            UssMessage::Snapshot { summary, .. } => {
                (self.disks[site].1).push(Journaled::PeerData(summary.clone(), true));
            }
            _ => {}
        }
        let responses = self.sites[site].receive_message(msg, self.now_s);
        self.wire.extend(responses);
    }

    fn deliver(&mut self, idx: usize, consume: bool) {
        if self.wire.is_empty() {
            return;
        }
        let i = idx % self.wire.len();
        let (to, msg) = if consume {
            self.wire.remove(i)
        } else {
            self.wire[i].clone()
        };
        self.receive(to, &msg);
    }

    fn reorder(&mut self, idx: usize) {
        if self.wire.len() > 1 {
            let i = idx % self.wire.len();
            let m = self.wire.remove(i);
            self.wire.push(m);
        }
    }

    fn cut_checkpoint(&mut self, site: usize) {
        self.disks[site] = (Some(held_by(&self.sites[site], self.now_s)), Vec::new());
    }

    /// Store-mode crash and recovery: everything volatile goes, the local
    /// histogram included, and comes back from the checkpoint plus the
    /// journal.
    fn crash_and_recover_from_disk(&mut self, site: usize) {
        let uss = &mut self.sites[site];
        uss.crash_volatile();
        self.oracles[site].crash();
        let (checkpoint, journal) = &self.disks[site];
        if let Some(state) = checkpoint {
            uss.install_checkpoint(state).expect("own checkpoint");
        }
        for entry in journal {
            match entry {
                Journaled::Usage(rec) => uss.replay_ingest(rec),
                Journaled::PeerData(summary, snapshot) => uss.replay_peer_data(summary, *snapshot),
                Journaled::Publish(seq) => uss.replay_publish_seq(*seq),
            }
        }
        uss.request_catchup();
    }
}

/// One step: `(op, site, user, magnitude)`.
type Op = (u8, u8, u8, u16);

fn run(chain: bool, ops: Vec<Op>, seed: u64) -> Result<(), TestCaseError> {
    let mut w = World::new(chain, seed);
    for (op, site, user, mag) in ops {
        let at = site as usize;
        match op {
            0..=2 => w.ingest(at, user as usize, mag / 7, mag),
            3 | 4 => {
                // Often across a slot boundary, often not.
                w.now_s += 5.0 + f64::from(mag % 130);
                w.publish(at)?;
            }
            5 => w.publish(at)?,
            6 | 7 => w.deliver(mag as usize, true),
            8 => w.deliver(mag as usize, false),
            9 => w.reorder(mag as usize),
            10 => {
                w.sites[at].crash();
                w.sites[at].request_catchup();
                w.oracles[at].crash();
            }
            11 => w.cut_checkpoint(at),
            12 => w.crash_and_recover_from_disk(at),
            13 => {
                let on = !w.sites[at].forwarding();
                w.sites[at].set_forwarding(on);
            }
            _ => unreachable!(),
        }
    }
    // Everything still held back closes; whatever is in flight lands.
    for _round in 0..3 {
        w.now_s += 2.0 * SLOT_S;
        for site in 0..SITES {
            w.publish(site)?;
        }
        while !w.wire.is_empty() {
            w.deliver(0, true);
        }
    }
    Ok(())
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec((0u8..14, 0u8..SITES as u8, 0u8..3, 0u16..1000), 10..140)
}

proptest! {
    #[test]
    fn mesh_publishes_what_the_whole_mirror_diff_would(ops in ops(), seed in 0u64..1000) {
        run(false, ops, seed)?;
    }

    #[test]
    fn chain_publishes_and_relays_what_the_whole_mirror_diff_would(
        ops in ops(),
        seed in 0u64..1000,
    ) {
        run(true, ops, seed)?;
    }
}
