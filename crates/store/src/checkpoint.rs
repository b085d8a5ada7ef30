//! Checkpoint snapshots: a single CRC-framed object capturing everything a
//! site needs to restart without replaying its full history — the USS local
//! histogram and ingest counters, the publisher sequence, per-peer exchange
//! cursors, the origin-scoped absolute-cell mirrors the positive-delta
//! merge depends on, and the UMS decayed-usage cache.
//!
//! Checkpoints alternate between two slots (`ckpt-a` / `ckpt-b`): a write
//! always targets the slot *not* holding the latest good snapshot, so a
//! crash mid-checkpoint — or later bit rot in one slot — can cost at most
//! one checkpoint interval, never the ability to recover at all. Loading
//! decodes both slots and picks the valid one with the highest LSN.

use crate::records::CELL_ENCODING;
use crate::storage::Storage;
use crate::wal::{decode_frame, encode_frame, FrameOutcome, KIND_CHECKPOINT};
use crate::StoreError;
use aequus_core::codec::{decode_cells, CodecError, NamedCells, Reader, Sink};
use aequus_core::ids::{GridUser, SiteId};
use aequus_core::usage::UserCells;
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};

/// Checkpoint format version (bumped on incompatible layout changes;
/// decoders reject unknown versions rather than misreading them).
/// Version 2 moved the merge mirrors from per-peer cursors to the
/// origin-scoped `origin_cells` map (hierarchical-overlay support);
/// version 3 stores every cell map as a wire-codec section.
const VERSION: u8 = 3;

/// The two alternating slot names.
pub const SLOTS: [&str; 2] = ["ckpt-a", "ckpt-b"];

/// Per-peer exchange cursor as of the checkpoint. Sequence state only —
/// the merge mirrors are origin-scoped, not link-scoped, and live in
/// [`CheckpointState::origin_cells`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PeerCursor {
    /// Next summary sequence expected from this peer (1-based); the
    /// highest absorbed is `next_expected - 1`.
    pub next_expected: u64,
}

/// Everything a checkpoint captures, owned: what decoding a slot yields and
/// recovery installs. Written through a [`CheckpointView`].
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointState {
    /// WAL position the snapshot covers: every record with LSN ≤ this is
    /// folded into the state and must not be re-applied.
    pub lsn: u64,
    /// Simulation/wall time the checkpoint was cut.
    pub taken_s: f64,
    /// The owning site.
    pub site: SiteId,
    /// Histogram slot duration (sanity-checked on install).
    pub slot_s: f64,
    /// Local histogram cells (user → slot → accumulated charge), stored
    /// bit for bit so local replay is bitwise exact.
    pub local_cells: UserCells,
    /// Job records ingested so far (counter continuity across restarts).
    pub records_ingested: u64,
    /// Next publish sequence number.
    pub next_seq: u64,
    /// Per-peer exchange cursors.
    pub peers: BTreeMap<SiteId, PeerCursor>,
    /// Absolute cumulative cells already merged, keyed by **originating**
    /// site — the receive-side mirror the positive-delta merge is computed
    /// against. Origin-scoped so relayed deliveries (hierarchical overlays)
    /// restore identically to direct ones.
    pub origin_cells: BTreeMap<SiteId, UserCells>,
    /// UMS decay epoch, if a refresh has happened.
    pub ums_epoch_s: Option<f64>,
    /// UMS cached decayed usage per user (valid at `ums_epoch_s`).
    pub ums_cached: BTreeMap<GridUser, f64>,
    /// Users with usage changes not yet absorbed by a UMS refresh at
    /// checkpoint time. `None` means *all* users were pending (the
    /// conservative whole-tree marker).
    pub dirty_users: Option<BTreeSet<GridUser>>,
}

impl Default for CheckpointState {
    fn default() -> Self {
        Self {
            lsn: 0,
            taken_s: 0.0,
            site: SiteId(0),
            slot_s: 0.0,
            local_cells: BTreeMap::new(),
            records_ingested: 0,
            next_seq: 1,
            peers: BTreeMap::new(),
            origin_cells: BTreeMap::new(),
            ums_epoch_s: None,
            ums_cached: BTreeMap::new(),
            dirty_users: None,
        }
    }
}

/// A checkpoint whose bulk — the two cell maps and the UMS cache — is
/// written from flat name-ordered copies of what the services hold keyed by
/// id, so cutting one builds no per-user map. The encoder's only input;
/// `head`'s own three bulk fields are left empty and never read.
#[derive(Debug)]
pub struct CheckpointView<'a> {
    /// Every field but the bulk.
    pub head: Cow<'a, CheckpointState>,
    /// Stands in for `head.local_cells`.
    pub local_cells: NamedCells<'a>,
    /// Stands in for `head.origin_cells`; in origin order.
    pub origin_cells: Vec<(SiteId, NamedCells<'a>)>,
    /// Stands in for `head.ums_cached`; in user-name order.
    pub ums_cached: Vec<(&'a GridUser, f64)>,
}

impl CheckpointView<'_> {
    /// Encode to the framed on-disk representation.
    pub fn encode(&self) -> Vec<u8> {
        let head = &*self.head;
        let mut w = Vec::new();
        w.byte(VERSION);
        w.u64(head.lsn);
        w.f64(head.taken_s);
        w.u32(head.site.0);
        w.f64(head.slot_s);
        self.local_cells.encode(CELL_ENCODING, &mut w);
        w.u64(head.records_ingested);
        w.u64(head.next_seq);
        w.varint(head.peers.len() as u64);
        for (site, cursor) in &head.peers {
            w.u32(site.0);
            w.u64(cursor.next_expected);
        }
        w.varint(self.origin_cells.len() as u64);
        for (origin, cells) in &self.origin_cells {
            w.u32(origin.0);
            cells.encode(CELL_ENCODING, &mut w);
        }
        match head.ums_epoch_s {
            Some(e) => {
                w.byte(1);
                w.f64(e);
            }
            None => w.byte(0),
        }
        w.varint(self.ums_cached.len() as u64);
        for (user, usage) in &self.ums_cached {
            w.str(user.as_str());
            w.f64(*usage);
        }
        match &head.dirty_users {
            None => w.byte(0),
            Some(users) => {
                w.byte(1);
                w.varint(users.len() as u64);
                for u in users {
                    w.str(u.as_str());
                }
            }
        }
        encode_frame(KIND_CHECKPOINT, &w)
    }
}

impl CheckpointState {
    /// Highest peer summary sequence absorbed, per peer — the gossip
    /// cursors WAL compaction is keyed to.
    pub fn peer_seq_cursors(&self) -> BTreeMap<SiteId, u64> {
        self.peers
            .iter()
            .map(|(site, c)| (*site, c.next_expected.saturating_sub(1)))
            .collect()
    }

    /// This state as the encoder takes it.
    pub fn view(&self) -> CheckpointView<'_> {
        CheckpointView {
            head: Cow::Borrowed(self),
            local_cells: NamedCells::from_cells(&self.local_cells),
            origin_cells: (self.origin_cells.iter())
                .map(|(origin, cells)| (*origin, NamedCells::from_cells(cells)))
                .collect(),
            ums_cached: self.ums_cached.iter().map(|(u, v)| (u, *v)).collect(),
        }
    }

    /// Encode to the framed on-disk representation.
    pub fn encode(&self) -> Vec<u8> {
        self.view().encode()
    }

    /// Decode the payload of a checkpoint frame.
    fn decode_payload(payload: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(payload);
        let version = r.u8()?;
        if version != VERSION {
            return Err(CodecError::BadVersion(version));
        }
        let lsn = r.u64()?;
        let taken_s = r.f64()?;
        let site = SiteId(r.u32()?);
        let slot_s = r.f64()?;
        let local_cells = decode_cells(&mut r, CELL_ENCODING)?;
        let records_ingested = r.u64()?;
        let next_seq = r.u64()?;
        let mut peers = BTreeMap::new();
        for _ in 0..r.seq_len(12)? {
            let peer = SiteId(r.u32()?);
            let next_expected = r.u64()?;
            peers.insert(peer, PeerCursor { next_expected });
        }
        let mut origin_cells = BTreeMap::new();
        for _ in 0..r.seq_len(5)? {
            let origin = SiteId(r.u32()?);
            origin_cells.insert(origin, decode_cells(&mut r, CELL_ENCODING)?);
        }
        let ums_epoch_s = if r.flag()? { Some(r.f64()?) } else { None };
        let mut ums_cached = BTreeMap::new();
        for _ in 0..r.seq_len(12)? {
            let user = GridUser::new(r.str()?);
            ums_cached.insert(user, r.f64()?);
        }
        let dirty_users = if r.flag()? {
            let mut users = BTreeSet::new();
            for _ in 0..r.seq_len(4)? {
                users.insert(GridUser::new(r.str()?));
            }
            Some(users)
        } else {
            None
        };
        r.finish()?;
        Ok(Self {
            lsn,
            taken_s,
            site,
            slot_s,
            local_cells,
            records_ingested,
            next_seq,
            peers,
            origin_cells,
            ums_epoch_s,
            ums_cached,
            dirty_users,
        })
    }

    /// Decode one slot's bytes: verify the frame CRC, then the payload.
    /// Any damage — torn write, bit flip, wrong kind — yields `None`.
    pub fn decode_slot(bytes: &[u8]) -> Option<Self> {
        match decode_frame(bytes, 0) {
            FrameOutcome::Frame { kind, payload, .. } if kind == KIND_CHECKPOINT => {
                Self::decode_payload(payload).ok()
            }
            _ => None,
        }
    }
}

/// Load the best available checkpoint: both slots are decoded and the
/// valid one with the highest LSN wins. Returns the state, the slot index
/// it came from, and its on-disk size.
pub fn load_best(storage: &dyn Storage) -> Option<(CheckpointState, usize, u64)> {
    let mut best: Option<(CheckpointState, usize, u64)> = None;
    for (i, slot) in SLOTS.iter().enumerate() {
        let Ok(bytes) = storage.read(slot) else {
            continue;
        };
        if let Some(state) = CheckpointState::decode_slot(&bytes) {
            let better = best
                .as_ref()
                .map(|(b, _, _)| state.lsn > b.lsn)
                .unwrap_or(true);
            if better {
                best = Some((state, i, bytes.len() as u64));
            }
        }
    }
    best
}

/// Write `state` to the slot *other* than `current_slot` (the one holding
/// the latest good snapshot), returning the new slot index and byte size.
pub fn write_next(
    storage: &mut dyn Storage,
    state: &CheckpointView<'_>,
    current_slot: Option<usize>,
) -> Result<(usize, u64), StoreError> {
    let target = match current_slot {
        Some(0) => 1,
        Some(_) => 0,
        None => 0,
    };
    let bytes = state.encode();
    storage.replace(SLOTS[target], &bytes)?;
    Ok((target, bytes.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;

    fn sample(lsn: u64) -> CheckpointState {
        let mut local_cells = BTreeMap::new();
        let mut slots = BTreeMap::new();
        slots.insert(5u64, 321.0625);
        local_cells.insert(GridUser::new("U65"), slots);
        let mut peers = BTreeMap::new();
        peers.insert(SiteId(2), PeerCursor { next_expected: 9 });
        let mut origin_cells = BTreeMap::new();
        origin_cells.insert(SiteId(2), local_cells.clone());
        let mut ums_cached = BTreeMap::new();
        ums_cached.insert(GridUser::new("U65"), 0.125);
        CheckpointState {
            lsn,
            taken_s: 1234.5,
            site: SiteId(1),
            slot_s: 60.0,
            local_cells,
            records_ingested: 42,
            next_seq: 17,
            peers,
            origin_cells,
            ums_epoch_s: Some(1200.0),
            ums_cached,
            dirty_users: Some([GridUser::new("U30")].into_iter().collect()),
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let state = sample(7);
        let bytes = state.encode();
        assert_eq!(CheckpointState::decode_slot(&bytes), Some(state));
    }

    #[test]
    fn all_dirty_marker_round_trips() {
        let mut state = sample(7);
        state.dirty_users = None;
        let bytes = state.encode();
        assert_eq!(
            CheckpointState::decode_slot(&bytes).unwrap().dirty_users,
            None
        );
    }

    #[test]
    fn damaged_slot_is_rejected_not_misread() {
        let state = sample(7);
        let bytes = state.encode();
        for i in (0..bytes.len()).step_by(7) {
            let mut damaged = bytes.clone();
            damaged[i] ^= 0x04;
            // Either rejected outright or (if the flip missed anything the
            // CRC covers — impossible by construction) identical.
            assert_eq!(CheckpointState::decode_slot(&damaged), None, "flip at {i}");
        }
        for cut in 0..bytes.len() {
            assert_eq!(
                CheckpointState::decode_slot(&bytes[..cut]),
                None,
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn slots_alternate_and_best_lsn_wins() {
        let mut storage = MemStorage::new();
        let (slot0, _) = write_next(&mut storage, &sample(5).view(), None).unwrap();
        assert_eq!(slot0, 0);
        let (slot1, _) = write_next(&mut storage, &sample(9).view(), Some(slot0)).unwrap();
        assert_eq!(slot1, 1);

        let (best, slot, _) = load_best(&storage).unwrap();
        assert_eq!((best.lsn, slot), (9, 1));

        // Corrupting the newest slot falls back to the older one.
        storage.object_mut(SLOTS[1]).unwrap()[3] ^= 0xFF;
        let (best, slot, _) = load_best(&storage).unwrap();
        assert_eq!((best.lsn, slot), (5, 0));
    }

    #[test]
    fn peer_seq_cursors_derive_from_next_expected() {
        let state = sample(7);
        let cursors = state.peer_seq_cursors();
        assert_eq!(cursors.get(&SiteId(2)), Some(&8));
    }
}
