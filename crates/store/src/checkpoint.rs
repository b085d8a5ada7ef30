//! Checkpoint snapshots: a single CRC-framed object capturing what a site
//! cannot recompute on restart without replaying its full history — the USS
//! local histogram and ingest counters, the publisher sequence, per-peer
//! exchange cursors and the origin-scoped absolute-cell mirrors the
//! positive-delta merge depends on. Nothing derived from those is kept: the
//! UMS cache is rebuilt from them by the first refresh after a restart.
//!
//! Checkpoints alternate between two slots (`ckpt-a` / `ckpt-b`): a write
//! always targets the slot *not* holding the latest good snapshot, so a
//! crash mid-checkpoint — or later bit rot in one slot, or a snapshot the
//! site refuses — can cost at most one checkpoint interval, never the
//! ability to recover at all. Loading decodes both slots; recovery installs
//! the newest the site accepts, and the WAL keeps every record the older
//! slot does not cover (see `SiteStore::checkpoint`).

use crate::storage::MemStorage;
use crate::wal::{decode_frame, encode_frame, FrameOutcome, KIND_CHECKPOINT};
use aequus_core::codec::{decode_cells, CodecError, NamedCells, Reader, Sink};
use aequus_core::ids::SiteId;
use aequus_core::usage::UserCells;
use std::borrow::Cow;
use std::collections::BTreeMap;

/// Checkpoint format version (bumped on incompatible layout changes;
/// decoders reject unknown versions rather than misreading them).
/// Version 2 moved the merge mirrors from per-peer cursors to the
/// origin-scoped `origin_cells` map (hierarchical-overlay support);
/// version 3 stores every cell map as a wire-codec section; version 4 drops
/// the UMS cache, its epoch and the USS dirty set.
const VERSION: u8 = 4;

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
    /// Local histogram cells (user → slot-sorted `(slot, accumulated
    /// charge)` row), stored bit for bit so local replay is bitwise exact.
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
        }
    }
}

/// A checkpoint whose bulk — the local cells and the origin mirrors — is
/// written from the rows where they lie, each under its name: the id-keyed
/// rows of a site's histogram and mirrors ([`NamedCells::from_rows`]), or
/// the rows of an owned state ([`CheckpointState::view`]). Cutting one
/// copies no cell. The encoder's only input; `head`'s own two bulk fields
/// are never read.
#[derive(Debug)]
pub struct CheckpointView<'a> {
    /// Every field but the bulk.
    pub head: Cow<'a, CheckpointState>,
    /// Stands in for `head.local_cells`.
    pub local_cells: NamedCells<'a>,
    /// Stands in for `head.origin_cells`; in origin order.
    pub origin_cells: Vec<(SiteId, NamedCells<'a>)>,
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
        self.local_cells.encode(&mut w);
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
            cells.encode(&mut w);
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
        let local_cells = decode_cells(&mut r)?;
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
            origin_cells.insert(origin, decode_cells(&mut r)?);
        }
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

/// Decode both slots: each one's state and on-disk size, `None` where the
/// slot is empty or damaged.
pub fn load_slots(storage: &MemStorage) -> [Option<(CheckpointState, u64)>; 2] {
    SLOTS.map(|slot| {
        let bytes = storage.read(slot)?;
        Some((CheckpointState::decode_slot(bytes)?, bytes.len() as u64))
    })
}

/// Write `state` to the slot *other* than `current_slot` (the one holding
/// the latest good snapshot), returning the new slot index and byte size.
pub fn write_next(
    storage: &mut MemStorage,
    state: &CheckpointView<'_>,
    current_slot: Option<usize>,
) -> (usize, u64) {
    let target = match current_slot {
        Some(0) => 1,
        Some(_) => 0,
        None => 0,
    };
    let bytes = state.encode();
    storage.replace(SLOTS[target], &bytes);
    (target, bytes.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_core::ids::GridUser;

    fn sample(lsn: u64) -> CheckpointState {
        let mut local_cells = BTreeMap::new();
        local_cells.insert(GridUser::new("U65"), vec![(5u64, 321.0625)]);
        let mut peers = BTreeMap::new();
        peers.insert(SiteId(2), PeerCursor { next_expected: 9 });
        let mut origin_cells = BTreeMap::new();
        origin_cells.insert(SiteId(2), local_cells.clone());
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
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let state = sample(7);
        let bytes = state.encode();
        assert_eq!(CheckpointState::decode_slot(&bytes), Some(state));
    }

    /// The slot the previous layout wrote for the same state — version
    /// byte 3, and after the cells an empty UMS section (no epoch, no cached
    /// rows, the all-dirty marker) — passes its CRC and is still refused: an
    /// old slot is never read as if it were the current layout.
    #[test]
    fn a_version_3_slot_is_refused_not_misread() {
        let current = sample(7).encode();
        let FrameOutcome::Frame { payload, .. } = decode_frame(&current, 0) else {
            panic!("a fresh slot is one frame");
        };
        let old: Vec<u8> = [3]
            .iter()
            .chain(&payload[1..])
            .chain(&[0, 0, 0])
            .copied()
            .collect();
        let slot = encode_frame(KIND_CHECKPOINT, &old);
        assert!(matches!(
            decode_frame(&slot, 0),
            FrameOutcome::Frame {
                kind: KIND_CHECKPOINT,
                ..
            }
        ));
        assert_eq!(CheckpointState::decode_slot(&slot), None);
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
    fn slots_alternate_and_a_damaged_one_reads_as_empty() {
        let mut storage = MemStorage::new();
        let lsns = |storage: &MemStorage| load_slots(storage).map(|s| s.map(|(c, _)| c.lsn));
        assert_eq!(lsns(&storage), [None, None]);
        let (slot0, _) = write_next(&mut storage, &sample(5).view(), None);
        assert_eq!(slot0, 0);
        let (slot1, bytes) = write_next(&mut storage, &sample(9).view(), Some(slot0));
        assert_eq!(slot1, 1);
        assert_eq!(lsns(&storage), [Some(5), Some(9)]);
        assert_eq!(load_slots(&storage)[1].as_ref().map(|s| s.1), Some(bytes));

        // A damaged slot decodes to nothing; the other still reads.
        storage.object_mut(SLOTS[1]).unwrap()[3] ^= 0xFF;
        assert_eq!(lsns(&storage), [Some(5), None]);
    }

    #[test]
    fn peer_seq_cursors_derive_from_next_expected() {
        let state = sample(7);
        let cursors = state.peer_seq_cursors();
        assert_eq!(cursors.get(&SiteId(2)), Some(&8));
    }
}
