//! The segmented append-only write-ahead log.
//!
//! ## Frame format
//!
//! Every frame is `[magic 0xA9][kind u8][len u32 LE][crc u32 LE][payload]`
//! (10-byte header), written and read with the shared primitives of
//! `aequus_core::codec`. `len` is the payload length; `crc` is CRC-32 over
//! `kind`, `len`, and the payload, so any single-bit damage to either the
//! header fields or the body is detected. Record-frame payloads begin with
//! the record's 8-byte LSN so positions survive segment compaction.
//!
//! ## Replay and repair
//!
//! Replay scans segments in name order and classifies damage:
//!
//! * **Torn tail** — fewer bytes than a header remain, or the declared
//!   payload extends past end-of-segment: the in-flight write at crash
//!   time. The tail is truncated away and counted; every frame before it
//!   is recovered.
//! * **Corrupt frame (bad CRC)** — header intact but checksum mismatch:
//!   the frame is skipped by its declared length, counted, and the scan
//!   continues — damage to one frame never hides later intact frames.
//! * **Corrupt stream (bad magic)** — the scan has lost framing (e.g. a
//!   bit flip in a length field made the previous skip land mid-frame).
//!   The segment is truncated at the corruption point: no bytes after the
//!   damage are ever interpreted as data.
//!
//! A frame is only ever returned with a verified CRC, so replay never
//! yields garbage.
//!
//! ## Compaction
//!
//! Sealed segments are reclaimed once a checkpoint covers them — both by
//! LSN (`last_lsn ≤` the checkpoint's) *and* by gossip sequence number:
//! a segment holding peer data or publishes with sequence numbers beyond
//! the checkpoint's cursors is retained, so the anti-entropy path can
//! always reconstruct what the checkpoint has not yet absorbed.

use crate::records::WalRecord;
use crate::storage::MemStorage;
use aequus_core::codec::{CodecError, Crc32, Reader, Sink};
use aequus_core::ids::SiteId;
use std::collections::BTreeMap;

/// First byte of every frame.
pub const MAGIC: u8 = 0xA9;
/// Frame kind: one [`WalRecord`]. (Kind 1 was the record layout before
/// usage cells moved to the wire codec's sections; a log that still holds
/// such frames has them refused and counted, not misread.)
pub const KIND_RECORD: u8 = 3;
/// Frame kind: a checkpoint snapshot (used by checkpoint slots, which are
/// single-frame objects protected by the same CRC framing).
pub const KIND_CHECKPOINT: u8 = 2;
/// Frame header length: magic (1) + kind (1) + len (4) + crc (4).
pub const HEADER_LEN: usize = 10;

/// Hard upper bound on a single frame payload (16 MiB) — rejects insane
/// declared lengths early instead of attempting huge skips.
const MAX_PAYLOAD: u32 = 16 << 20;

fn frame_crc(kind: u8, len: u32, payload: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(&[kind]);
    crc.update(&len.to_le_bytes());
    crc.update(payload);
    crc.finish()
}

/// Encode one frame.
pub fn encode_frame(kind: u8, payload: &[u8]) -> Vec<u8> {
    let len = payload.len() as u32;
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.byte(MAGIC);
    out.byte(kind);
    out.u32(len);
    out.u32(frame_crc(kind, len, payload));
    out.bytes(payload);
    out
}

/// Outcome of decoding the frame at one offset.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameOutcome<'a> {
    /// A CRC-verified frame; `next` is the offset just past it.
    Frame {
        /// Frame kind byte.
        kind: u8,
        /// Verified payload bytes.
        payload: &'a [u8],
        /// Offset of the next frame.
        next: usize,
    },
    /// Torn tail: not enough bytes for a header, or the declared payload
    /// runs past the end of the buffer.
    TornTail,
    /// Header intact but the checksum fails; `next` skips the declared
    /// payload so scanning can continue.
    CorruptFrame {
        /// Offset just past the corrupt frame.
        next: usize,
    },
    /// Framing lost (bad magic or implausible length): nothing at or after
    /// this offset can be trusted.
    CorruptStream,
}

/// Decode the frame starting at `at`. The buffer end is the segment end.
pub fn decode_frame(buf: &[u8], at: usize) -> FrameOutcome<'_> {
    let mut r = Reader::new(buf.get(at..).unwrap_or_default());
    let (Ok(magic), Ok(kind), Ok(len), Ok(stored_crc)) = (r.u8(), r.u8(), r.u32(), r.u32()) else {
        return FrameOutcome::TornTail;
    };
    if magic != MAGIC || len > MAX_PAYLOAD {
        return FrameOutcome::CorruptStream;
    }
    let Ok(payload) = r.take(len as usize) else {
        return FrameOutcome::TornTail;
    };
    let next = at + HEADER_LEN + payload.len();
    if frame_crc(kind, len, payload) != stored_crc {
        return FrameOutcome::CorruptFrame { next };
    }
    FrameOutcome::Frame {
        kind,
        payload,
        next,
    }
}

/// A record frame's payload: the record's 8-byte LSN, then the record.
fn decode_record(kind: u8, payload: &[u8]) -> Result<(u64, WalRecord), CodecError> {
    if kind != KIND_RECORD {
        return Err(CodecError::BadVersion(kind));
    }
    let mut r = Reader::new(payload);
    Ok((r.u64()?, WalRecord::decode(&mut r)?))
}

/// Per-segment bookkeeping: LSN span plus the highest gossip sequence
/// numbers the segment's records reference, keying compaction.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SegmentMeta {
    /// Object name (`wal-NNNNNNNN.log`).
    pub name: String,
    /// Lowest record LSN in the segment (`u64::MAX` while empty).
    pub first_lsn: u64,
    /// Highest record LSN in the segment (0 while empty).
    pub last_lsn: u64,
    /// Record frames held.
    pub frames: u64,
    /// Current byte size.
    pub bytes: u64,
    /// Highest local publish sequence journaled here.
    pub max_publish_seq: u64,
    /// Highest peer summary sequence journaled here, per peer site.
    pub max_peer_seq: BTreeMap<SiteId, u64>,
}

impl SegmentMeta {
    fn new(name: String) -> Self {
        Self {
            name,
            first_lsn: u64::MAX,
            ..Self::default()
        }
    }

    fn note(&mut self, lsn: u64, rec: &WalRecord) {
        self.first_lsn = self.first_lsn.min(lsn);
        self.last_lsn = self.last_lsn.max(lsn);
        self.frames += 1;
        match rec {
            WalRecord::Publish { seq } => {
                self.max_publish_seq = self.max_publish_seq.max(*seq);
            }
            WalRecord::PeerData { summary, .. } if summary.seq > 0 => {
                let e = self.max_peer_seq.entry(summary.site).or_insert(0);
                *e = (*e).max(summary.seq);
            }
            _ => {}
        }
    }
}

/// What replay found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// CRC-verified record frames decoded.
    pub frames_replayed: u64,
    /// Torn tails truncated away (at most one per segment).
    pub torn_tails: u64,
    /// Frames skipped for checksum mismatch or undecodable payload.
    pub corrupt_frames: u64,
    /// Bytes removed by tail/stream truncation.
    pub truncated_bytes: u64,
    /// Segments scanned.
    pub segments_scanned: u64,
    /// Discontinuities in the recovered LSN sequence. A gap means frames
    /// are missing from the *middle* of the log — silent loss that leaves
    /// no byte-level trace, e.g. a segment truncated exactly on a frame
    /// boundary — or a span legitimately dropped by checkpoint compaction
    /// under gossip retention; the caller's checkpoint knows which.
    pub lsn_gaps: u64,
    /// Sealed (non-final) segments shorter than the roll threshold. A
    /// segment only rolls once it is full, so a short sealed segment was
    /// truncated — either by damage this replay could not otherwise see
    /// (a frame-boundary cut decodes cleanly) or as the scar of a past
    /// repair. Only meaningful while `segment_bytes` is stable across runs.
    pub short_sealed_segments: u64,
}

/// The segmented WAL. All storage operations go through the [`MemStorage`]
/// passed per call — the caller (the site store) owns the disk so WAL and
/// checkpoints share it.
#[derive(Debug)]
pub struct Wal {
    /// Segments no longer appended to, oldest first.
    sealed: Vec<SegmentMeta>,
    /// The segment appends go to.
    active: SegmentMeta,
    /// Numeric suffix for the next segment created.
    next_segment_no: u64,
    /// LSN the next appended record receives.
    next_lsn: u64,
    /// Roll the active segment once it exceeds this many bytes.
    segment_bytes: u64,
}

/// Result of [`Wal::replay`]: the recovered log, every surviving
/// `(lsn, record)` pair in LSN order, and the damage report.
pub type ReplayOutcome = (Wal, Vec<(u64, WalRecord)>, ReplayReport);

fn segment_name(no: u64) -> String {
    format!("wal-{no:08}.log")
}

/// Create segment `*next_no`'s (empty) object and advance the counter.
fn create_segment(storage: &mut MemStorage, next_no: &mut u64) -> SegmentMeta {
    let name = segment_name(*next_no);
    *next_no += 1;
    storage.replace(&name, &[]);
    SegmentMeta::new(name)
}

fn parse_segment_no(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

impl Wal {
    /// Scan `storage` for existing segments, repair crash damage (torn
    /// tails, lost framing), and return the recovered log, every surviving
    /// record in LSN order, and the damage report.
    pub fn replay(storage: &mut MemStorage, segment_bytes: u64) -> ReplayOutcome {
        let mut names: Vec<(u64, String)> = storage
            .list()
            .into_iter()
            .filter_map(|n| parse_segment_no(&n).map(|no| (no, n)))
            .collect();
        names.sort();

        let mut report = ReplayReport::default();
        let mut records = Vec::new();
        let mut segments = Vec::new();
        let mut next_lsn = 1u64;
        for (_, name) in &names {
            let buf = storage.read(name).unwrap_or_default();
            let mut meta = SegmentMeta::new(name.clone());
            let mut at = 0usize;
            let mut keep_until = 0usize;
            while at < buf.len() {
                match decode_frame(buf, at) {
                    FrameOutcome::Frame {
                        kind,
                        payload,
                        next,
                    } => {
                        match decode_record(kind, payload) {
                            Ok((lsn, rec)) => {
                                report.frames_replayed += 1;
                                meta.note(lsn, &rec);
                                next_lsn = next_lsn.max(lsn.saturating_add(1));
                                records.push((lsn, rec));
                            }
                            // CRC fine but not a record this version can
                            // read (another format's kind or layout):
                            // count, skip.
                            Err(_) => report.corrupt_frames += 1,
                        }
                        at = next;
                        keep_until = next;
                    }
                    FrameOutcome::CorruptFrame { next } => {
                        report.corrupt_frames += 1;
                        at = next;
                        // The skipped span stays on disk (rewriting history
                        // is riskier than carrying dead bytes), but nothing
                        // after a later framing loss is preserved.
                        keep_until = next;
                    }
                    FrameOutcome::TornTail => {
                        report.torn_tails += 1;
                        break;
                    }
                    FrameOutcome::CorruptStream => {
                        report.corrupt_frames += 1;
                        break;
                    }
                }
            }
            if keep_until < buf.len() {
                report.truncated_bytes += (buf.len() - keep_until) as u64;
                storage.truncate(name, keep_until as u64);
            }
            meta.bytes = keep_until as u64;
            report.segments_scanned += 1;
            segments.push(meta);
        }

        records.sort_by_key(|(lsn, _)| *lsn);
        report.lsn_gaps = records.windows(2).filter(|w| w[1].0 - w[0].0 > 1).count() as u64;
        // The last segment found stays the active one; none found, a fresh one.
        let mut next_segment_no = names.last().map_or(0, |(no, _)| no + 1);
        let active = match segments.pop() {
            Some(last) => last,
            None => create_segment(storage, &mut next_segment_no),
        };
        let short = segments.iter().filter(|seg| seg.bytes < segment_bytes);
        report.short_sealed_segments = short.count() as u64;
        let wal = Self {
            sealed: segments,
            active,
            next_segment_no,
            next_lsn,
            segment_bytes: segment_bytes.max(1),
        };
        (wal, records, report)
    }

    /// Append `rec`, returning its LSN. Rolls to a fresh segment first when
    /// the active one is full.
    pub fn append(&mut self, storage: &mut MemStorage, rec: &WalRecord) -> u64 {
        if self.active.bytes >= self.segment_bytes {
            let fresh = create_segment(storage, &mut self.next_segment_no);
            self.sealed.push(std::mem::replace(&mut self.active, fresh));
        }
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        let mut payload = Vec::new();
        payload.u64(lsn);
        rec.encode(&mut payload);
        let frame = encode_frame(KIND_RECORD, &payload);
        self.active.note(lsn, rec);
        self.active.bytes += frame.len() as u64;
        storage.append(&self.active.name, &frame);
        lsn
    }

    /// Append raw damage to the active segment — the simulator's "torn
    /// write in flight at the instant of the crash". The bytes claim a full
    /// frame but deliver only part of it, so the next replay truncates them
    /// as a torn tail. Nothing already appended is affected.
    pub fn append_torn_tail(&mut self, storage: &mut MemStorage, junk: &[u8]) {
        self.active.bytes += junk.len() as u64;
        storage.append(&self.active.name, junk);
    }

    /// Drop sealed segments fully covered by a checkpoint: `last_lsn ≤
    /// ckpt_lsn` *and* every gossip sequence the segment references is at
    /// or below the checkpoint's cursors (`publish_seq` for our own
    /// publishes; `peer_cursors[site]` = highest peer seq absorbed).
    /// The active segment is never compacted. Returns segments removed.
    pub fn compact(
        &mut self,
        storage: &mut MemStorage,
        ckpt_lsn: u64,
        publish_seq: u64,
        peer_cursors: &BTreeMap<SiteId, u64>,
    ) -> u64 {
        let mut removed = 0u64;
        let mut keep = Vec::with_capacity(self.sealed.len());
        for seg in self.sealed.drain(..) {
            let covered = seg.frames == 0
                || (seg.last_lsn <= ckpt_lsn
                    && seg.max_publish_seq <= publish_seq
                    && seg
                        .max_peer_seq
                        .iter()
                        .all(|(site, &seq)| peer_cursors.get(site).is_some_and(|&c| seq <= c)));
            if covered {
                storage.remove(&seg.name);
                removed += 1;
            } else {
                keep.push(seg);
            }
        }
        self.sealed = keep;
        removed
    }

    /// Total live WAL bytes across segments.
    pub fn bytes(&self) -> u64 {
        self.sealed.iter().map(|s| s.bytes).sum::<u64>() + self.active.bytes
    }

    /// Current segment metadata, oldest first (last entry is active).
    pub fn segments(&self) -> Vec<&SegmentMeta> {
        self.sealed.iter().chain([&self.active]).collect()
    }

    /// LSN the next append will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_core::ids::{GridUser, JobId};
    use aequus_core::usage::UsageRecord;

    fn usage(job: u64) -> WalRecord {
        WalRecord::Usage(UsageRecord {
            job: JobId(job),
            user: GridUser::new("U65"),
            site: SiteId(1),
            cores: 2,
            start_s: 0.0,
            end_s: 60.0,
        })
    }

    /// Every `usage(_)` record frames to the same length.
    fn usage_frame_len() -> usize {
        let mut payload = Vec::new();
        payload.u64(1);
        usage(0).encode(&mut payload);
        encode_frame(KIND_RECORD, &payload).len()
    }

    fn fresh(storage: &mut MemStorage, segment_bytes: u64) -> Wal {
        Wal::replay(storage, segment_bytes).0
    }

    #[test]
    fn append_then_replay_round_trips() {
        let mut storage = MemStorage::new();
        let mut wal = fresh(&mut storage, 1 << 16);
        for j in 0..20 {
            wal.append(&mut storage, &usage(j));
        }
        let (wal2, records, report) = Wal::replay(&mut storage, 1 << 16);
        assert_eq!(records.len(), 20);
        assert_eq!(report.frames_replayed, 20);
        assert_eq!(report.torn_tails, 0);
        assert_eq!(report.corrupt_frames, 0);
        assert_eq!(wal2.next_lsn(), wal.next_lsn());
        for (i, (lsn, rec)) in records.iter().enumerate() {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(*rec, usage(i as u64));
        }
    }

    #[test]
    fn segments_roll_at_size_threshold() {
        let mut storage = MemStorage::new();
        let mut wal = fresh(&mut storage, 128);
        for j in 0..50 {
            wal.append(&mut storage, &usage(j));
        }
        assert!(wal.segments().len() > 2, "{}", wal.segments().len());
        let (_, records, _) = Wal::replay(&mut storage, 128);
        assert_eq!(records.len(), 50);
    }

    #[test]
    fn torn_tail_is_truncated_and_counted() {
        let mut storage = MemStorage::new();
        let mut wal = fresh(&mut storage, 1 << 16);
        for j in 0..5 {
            wal.append(&mut storage, &usage(j));
        }
        // A header claiming 100 payload bytes, followed by only 3.
        let mut junk = encode_frame(KIND_RECORD, &[0u8; 100])[..HEADER_LEN].to_vec();
        junk.extend_from_slice(&[1, 2, 3]);
        wal.append_torn_tail(&mut storage, &junk);

        let (_, records, report) = Wal::replay(&mut storage, 1 << 16);
        assert_eq!(records.len(), 5, "every pre-tear frame survives");
        assert_eq!(report.torn_tails, 1);
        assert_eq!(report.truncated_bytes, junk.len() as u64);

        // Idempotent: a second replay sees a clean log.
        let (_, records, report) = Wal::replay(&mut storage, 1 << 16);
        assert_eq!(records.len(), 5);
        assert_eq!(report.torn_tails, 0);
    }

    #[test]
    fn payload_bit_flip_skips_one_frame_only() {
        let mut storage = MemStorage::new();
        let mut wal = fresh(&mut storage, 1 << 16);
        for j in 0..5 {
            wal.append(&mut storage, &usage(j));
        }
        // Flip one payload bit of the middle frame.
        let name = wal.segments()[0].name.clone();
        let buf = storage.object_mut(&name).unwrap();
        let frame_len = usage_frame_len();
        buf[2 * frame_len + HEADER_LEN + 4] ^= 0x10;

        let (_, records, report) = Wal::replay(&mut storage, 1 << 16);
        assert_eq!(report.corrupt_frames, 1);
        assert_eq!(records.len(), 4, "only the damaged frame is lost");
        let lsns: Vec<u64> = records.iter().map(|(l, _)| *l).collect();
        assert_eq!(lsns, vec![1, 2, 4, 5]);
    }

    #[test]
    fn magic_damage_truncates_the_rest() {
        let mut storage = MemStorage::new();
        let mut wal = fresh(&mut storage, 1 << 16);
        for j in 0..5 {
            wal.append(&mut storage, &usage(j));
        }
        let name = wal.segments()[0].name.clone();
        let frame_len = usage_frame_len();
        let buf = storage.object_mut(&name).unwrap();
        buf[3 * frame_len] = 0x00; // kill frame 3's magic byte

        let (_, records, report) = Wal::replay(&mut storage, 1 << 16);
        assert_eq!(records.len(), 3, "frames before the framing loss survive");
        assert!(report.corrupt_frames >= 1);
        assert!(report.truncated_bytes > 0, "rest of segment truncated");
    }

    #[test]
    fn compaction_respects_lsn_and_gossip_seq() {
        let mut storage = MemStorage::new();
        let mut wal = fresh(&mut storage, 96);
        // Fill several segments with publishes of rising seq.
        for seq in 1..=12u64 {
            wal.append(&mut storage, &WalRecord::Publish { seq });
        }
        let sealed = wal.segments().len() - 1;
        assert!(sealed >= 2);
        let last_lsn = wal.next_lsn() - 1;

        // A checkpoint that absorbed everything but whose publish cursor
        // only reaches seq 4: segments with higher publish seqs survive.
        let removed = wal.compact(&mut storage, last_lsn, 4, &BTreeMap::new());
        assert!(removed >= 1);
        assert!(
            wal.segments()
                .iter()
                .take(wal.segments().len() - 1)
                .all(|s| s.max_publish_seq > 4),
            "surviving sealed segments must exceed the cursor"
        );

        // Full coverage: everything sealed goes.
        wal.compact(&mut storage, last_lsn, 12, &BTreeMap::new());
        assert_eq!(wal.segments().len(), 1, "only the active segment remains");

        // Replay after compaction keeps LSN continuity.
        let (wal2, records, _) = Wal::replay(&mut storage, 96);
        assert!(records.iter().all(|(lsn, _)| *lsn > 0));
        assert_eq!(wal2.next_lsn(), wal.next_lsn());
    }

    #[test]
    fn peer_seq_holds_back_compaction() {
        let mut storage = MemStorage::new();
        let mut wal = fresh(&mut storage, 64);
        use aequus_core::usage::UsageSummary;
        for seq in 1..=6u64 {
            wal.append(
                &mut storage,
                &WalRecord::PeerData {
                    summary: UsageSummary {
                        site: SiteId(9),
                        seq,
                        slot_s: 60.0,
                        per_user: BTreeMap::new(),
                        relayed: BTreeMap::new(),
                    }
                    .into(),
                    snapshot: false,
                },
            );
        }
        let last_lsn = wal.next_lsn() - 1;
        let before = wal.segments().len();

        // Cursor for site 9 stuck at 2: nothing holding seqs > 2 compacts.
        let mut cursors = BTreeMap::new();
        cursors.insert(SiteId(9), 2u64);
        wal.compact(&mut storage, last_lsn, u64::MAX, &cursors);
        assert!(
            wal.segments().len() >= before - 1,
            "high-seq segments survive a stale peer cursor"
        );

        cursors.insert(SiteId(9), 6u64);
        wal.compact(&mut storage, last_lsn, u64::MAX, &cursors);
        assert_eq!(wal.segments().len(), 1);
    }
}
