//! Property tests of WAL crash consistency: under random truncation points
//! and single-bit flips anywhere in the log, replay recovers exactly the
//! frames written before the damage, skips or truncates the damaged region,
//! and never fabricates a record — every `(lsn, record)` pair returned is
//! bitwise one that was appended. The sampled cuts are backed by an
//! exhaustive one: a small store cut at *every* byte offset of its tail
//! segment. Also here: the durable layout round-trips every `f64` bit
//! pattern, and bytes in earlier layouts (record frame kind 1, checkpoint
//! version 2) are refused rather than misread.

use aequus_store::records::WalRecord;
use aequus_store::wal::{decode_frame, FrameOutcome, Wal, KIND_CHECKPOINT};
use aequus_store::{
    CheckpointState, CheckpointView, MemStorage, PeerCursor, SiteStore, StoreConfig,
};
use proptest::prelude::*;
use std::borrow::Cow;
use std::collections::BTreeMap;

use aequus_core::codec::Reader;
use aequus_core::ids::{GridUser, JobId, SiteId};
use aequus_core::usage::{UsageRecord, UsageSummary, UserCells};

/// Deterministic record zoo: kind and a handful of scalars fully determine
/// the record, so expected/actual comparisons are plain equality.
fn record(kind: u8, a: u64, b: u64) -> WalRecord {
    match kind % 3 {
        0 => WalRecord::Usage(UsageRecord {
            job: JobId(a),
            user: GridUser::new(format!("u{}", b % 5)),
            site: SiteId((a % 4) as u32),
            cores: (b % 8 + 1) as u32,
            start_s: (a % 1000) as f64,
            end_s: (a % 1000) as f64 + (b % 300) as f64 + 1.0,
        }),
        1 => {
            let slots = vec![
                (a % 50, (b % 900) as f64 + 0.25),
                (a % 50 + 1, (a % 700) as f64 + 0.5),
            ];
            let mut per_user = BTreeMap::new();
            per_user.insert(GridUser::new(format!("u{}", a % 5)), slots);
            let mut relayed = BTreeMap::new();
            if b.is_multiple_of(3) {
                let relay_slots = vec![(a % 30, (a % 500) as f64 + 0.125)];
                let mut relay_cells = BTreeMap::new();
                relay_cells.insert(GridUser::new(format!("u{}", b % 5)), relay_slots);
                relayed.insert(SiteId((a % 7) as u32), relay_cells);
            }
            WalRecord::PeerData {
                summary: UsageSummary {
                    site: SiteId((b % 4) as u32),
                    seq: a % 100 + 1,
                    slot_s: 60.0,
                    per_user,
                    relayed,
                }
                .into(),
                snapshot: b.is_multiple_of(4),
            }
        }
        _ => WalRecord::Publish { seq: a % 1000 + 1 },
    }
}

/// Append `specs` through a real [`Wal`] into fresh [`MemStorage`],
/// returning the storage, the appended `(lsn, record)` pairs, and for each
/// record its `(segment name, frame end offset)` within that segment.
#[allow(clippy::type_complexity)]
fn build_wal(
    specs: &[(u8, u64, u64)],
    segment_bytes: u64,
) -> (MemStorage, Vec<(u64, WalRecord)>, Vec<(String, usize)>) {
    let mut storage = MemStorage::new();
    let (mut wal, recovered, _) = Wal::replay(&mut storage, segment_bytes);
    assert!(recovered.is_empty());
    let mut appended = Vec::new();
    for &(k, a, b) in specs {
        let rec = record(k, a, b);
        let lsn = wal.append(&mut storage, &rec);
        appended.push((lsn, rec));
    }
    // Recompute each frame's end offset by walking the pristine segments —
    // the same walk replay performs, so damage positions map exactly.
    let mut ends = Vec::new();
    let mut names: Vec<String> = storage.list();
    names.retain(|n| n.starts_with("wal-"));
    names.sort();
    for name in &names {
        let buf = storage.read(name).expect("segment readable");
        let mut at = 0usize;
        while at < buf.len() {
            match decode_frame(buf, at) {
                FrameOutcome::Frame { next, .. } => {
                    ends.push((name.clone(), next));
                    at = next;
                }
                _ => panic!("pristine WAL must decode cleanly"),
            }
        }
    }
    assert_eq!(ends.len(), appended.len());
    (storage, appended, ends)
}

/// A charge from the corners of `f64`: whole core-seconds, `-0.0`,
/// subnormals, values at and above 2^53, arbitrary bit patterns (NaNs with
/// payloads and infinities among them), fractions and negatives.
fn charge(kind: u8, a: u64) -> f64 {
    match kind % 7 {
        0 => (a % 1_000_000) as f64,
        1 => -0.0,
        2 => f64::from_bits(a % 4096 + 1),
        3 => 9_007_199_254_740_992.0 + (a % 1000) as f64 * 2.0,
        4 => f64::from_bits(a.wrapping_mul(0x9E37_79B9_7F4A_7C15)),
        5 => (a % 1_000_000) as f64 / 1024.0 + 0.25,
        _ => -(a as f64),
    }
}

type CellScalars = Vec<(u64, (u64, u8, u64))>;
type OriginScalars = Vec<(u32, CellScalars)>;

/// Users named from a small pool so prefixes are shared; a user whose
/// scalars draw no cell (slot ≥ 60 000) keeps an empty row; a slot drawn
/// twice holds the later charge.
fn cells_from(scalars: &CellScalars) -> UserCells {
    let mut cells = UserCells::new();
    for &(user, (slot, kind, a)) in scalars {
        let slots = cells
            .entry(GridUser::new(format!("u{:04}", user % 12)))
            .or_default();
        if slot < 60_000 {
            match slots.binary_search_by_key(&slot, |c| c.0) {
                Ok(at) => slots[at].1 = charge(kind, a),
                Err(at) => slots.insert(at, (slot, charge(kind, a))),
            }
        }
    }
    cells
}

fn origins_from(scalars: &OriginScalars) -> BTreeMap<SiteId, UserCells> {
    scalars
        .iter()
        .map(|(origin, cells)| (SiteId(*origin), cells_from(cells)))
        .collect()
}

fn cell_scalars() -> impl Strategy<Value = CellScalars> {
    proptest::collection::vec((0u64..64, (0u64..70_000, 0u8..7, 0u64..u64::MAX)), 0..12)
}

fn origin_scalars() -> impl Strategy<Value = OriginScalars> {
    proptest::collection::vec((1u32..40, cell_scalars()), 0..4)
}

/// Cells with every charge as its bit pattern, so NaNs compare too.
type CellBits<'a> = Vec<(&'a str, Vec<(u64, u64)>)>;

fn bits(cells: &UserCells) -> CellBits<'_> {
    cells
        .iter()
        .map(|(user, slots)| {
            let slots = slots.iter().map(|&(s, c)| (s, c.to_bits())).collect();
            (user.as_str(), slots)
        })
        .collect()
}

fn origin_bits(origins: &BTreeMap<SiteId, UserCells>) -> Vec<(SiteId, CellBits<'_>)> {
    origins.iter().map(|(o, cells)| (*o, bits(cells))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A journaled summary decodes to the same bits it was encoded from —
    /// empty users, empty relayed origins and every `f64` pattern included.
    #[test]
    fn peer_data_record_round_trips_bit_for_bit(
        own in cell_scalars(),
        relayed in origin_scalars(),
        seq in 0u64..u64::MAX,
        flags in 0u8..4,
    ) {
        let summary = UsageSummary {
            site: SiteId(0),
            seq,
            slot_s: charge(flags, seq),
            per_user: cells_from(&own),
            relayed: origins_from(&relayed),
        };
        let rec = WalRecord::PeerData { summary: summary.clone().into(), snapshot: flags & 1 == 1 };
        let mut bytes = Vec::new();
        rec.encode(&mut bytes);
        let Ok(WalRecord::PeerData { summary: back, snapshot }) =
            WalRecord::decode(&mut Reader::new(&bytes))
        else {
            panic!("a fresh record decodes");
        };
        prop_assert_eq!(snapshot, flags & 1 == 1);
        prop_assert_eq!((back.site, back.seq), (summary.site, summary.seq));
        prop_assert_eq!(back.slot_s.to_bits(), summary.slot_s.to_bits());
        prop_assert_eq!(bits(&back.per_user), bits(&summary.per_user));
        prop_assert_eq!(origin_bits(&back.relayed), origin_bits(&summary.relayed));
    }

    /// So does a checkpoint slot, field for field.
    #[test]
    fn checkpoint_round_trips_bit_for_bit(
        local in cell_scalars(),
        origins in origin_scalars(),
        scalars in (0u64..u64::MAX, 0u64..u64::MAX, 0u64..u64::MAX, 0u8..7),
        peers in proptest::collection::vec((0u32..40, 0u64..u64::MAX), 0..5),
    ) {
        let (lsn, records_ingested, next_seq, kind) = scalars;
        let state = CheckpointState {
            lsn,
            taken_s: charge(kind, lsn),
            site: SiteId(3),
            slot_s: charge(kind, next_seq),
            local_cells: cells_from(&local),
            records_ingested,
            next_seq,
            peers: peers
                .iter()
                .map(|&(site, next_expected)| (SiteId(site), PeerCursor { next_expected }))
                .collect(),
            origin_cells: origins_from(&origins),
        };
        let slot = state.encode();
        let back = CheckpointState::decode_slot(&slot).expect("a fresh slot decodes");
        prop_assert_eq!(&back.encode(), &slot);
        prop_assert_eq!(bits(&back.local_cells), bits(&state.local_cells));
        prop_assert_eq!(origin_bits(&back.origin_cells), origin_bits(&state.origin_cells));
        let scalar_bits = |s: &CheckpointState| {
            (
                (s.lsn, s.taken_s.to_bits(), s.site, s.slot_s.to_bits()),
                (s.records_ingested, s.next_seq, s.peers.clone()),
            )
        };
        prop_assert_eq!(scalar_bits(&back), scalar_bits(&state));
        // The form the services write — the bulk as rows under their names,
        // beside a head that holds none of it — fills the slot with the
        // same bytes.
        let view = CheckpointView {
            head: Cow::Owned(CheckpointState {
                local_cells: BTreeMap::new(),
                origin_cells: BTreeMap::new(),
                ..state.clone()
            }),
            ..state.view()
        };
        prop_assert_eq!(&view.encode(), &slot);
    }

    /// Truncating any segment at any byte offset loses exactly the frames
    /// of that segment that do not fit below the cut — nothing else, and
    /// never a partial or invented record.
    #[test]
    fn truncation_recovers_exact_prefix(
        specs in proptest::collection::vec((0u8..3, 0u64..10_000, 0u64..10_000), 1..40),
        seg_pick in 0usize..1000,
        cut_pick in 0usize..100_000,
        small_segments in 0u8..2,
    ) {
        let segment_bytes = if small_segments == 0 { 512 } else { 1 << 20 };
        let (mut storage, appended, ends) = build_wal(&specs, segment_bytes);
        let mut names: Vec<String> = storage.list();
        names.retain(|n| n.starts_with("wal-"));
        names.sort();
        let victim = names[seg_pick % names.len()].clone();
        let obj = storage.object_mut(&victim).expect("segment exists");
        let cut = cut_pick % (obj.len() + 1);
        obj.truncate(cut);

        let (_, recovered, report) = Wal::replay(&mut storage, segment_bytes);

        let expected: Vec<(u64, WalRecord)> = appended
            .iter()
            .zip(&ends)
            .filter(|(_, (name, end))| *name != victim || *end <= cut)
            .map(|(pair, _)| pair.clone())
            .collect();
        prop_assert_eq!(&recovered, &expected);
        let lost = appended.len() - expected.len();
        if lost > 0 {
            // A frame-boundary cut that removes only the tail of the whole
            // log is byte-for-byte a clean shutdown after fewer appends —
            // no replay can flag that. Everything else must be visible in
            // the report: torn/truncated bytes for mid-frame cuts, an LSN
            // gap for boundary cuts of a middle segment, a short sealed
            // segment for boundary cuts anywhere before the active one.
            let clean_tail_cut = expected[..] == appended[..expected.len()]
                && report.torn_tails == 0
                && report.truncated_bytes == 0
                && report.short_sealed_segments == 0;
            prop_assert!(
                clean_tail_cut
                    || report.torn_tails > 0
                    || report.truncated_bytes > 0
                    || report.lsn_gaps > 0
                    || report.short_sealed_segments > 0,
                "lost {} frames but report shows no damage: {:?}", lost, report
            );
        }
    }

    /// Flipping a single bit anywhere in the log never yields garbage:
    /// every recovered pair is one that was appended, order is preserved,
    /// frames before the damaged byte all survive, and the damaged frame
    /// itself is dropped and reported.
    #[test]
    fn single_bit_flip_never_fabricates(
        specs in proptest::collection::vec((0u8..3, 0u64..10_000, 0u64..10_000), 1..40),
        seg_pick in 0usize..1000,
        byte_pick in 0usize..100_000,
        bit in 0u8..8,
    ) {
        let segment_bytes = 1024u64;
        let (mut storage, appended, ends) = build_wal(&specs, segment_bytes);
        let mut names: Vec<String> = storage.list();
        names.retain(|n| n.starts_with("wal-"));
        names.sort();
        let victim = names[seg_pick % names.len()].clone();
        let obj = storage.object_mut(&victim).expect("segment exists");
        if obj.is_empty() {
            return Ok(());
        }
        let at = byte_pick % obj.len();
        obj[at] ^= 1 << bit;

        let (_, recovered, report) = Wal::replay(&mut storage, segment_bytes);

        // Which appended frame absorbed the flip?
        let damaged_idx = appended
            .iter()
            .zip(&ends)
            .position(|(_, (name, end))| *name == victim && at < *end)
            .expect("flip lands inside some frame");

        // No fabrication: recovered is a subsequence of appended.
        let mut it = appended.iter();
        for pair in &recovered {
            prop_assert!(
                it.any(|orig| orig == pair),
                "recovered pair not among appended (or out of order): lsn {}", pair.0
            );
        }
        // The damaged frame never survives, and damage is reported.
        prop_assert!(
            !recovered.iter().any(|p| *p == appended[damaged_idx]),
            "bit-flipped frame passed CRC verification"
        );
        prop_assert!(
            report.corrupt_frames > 0 || report.torn_tails > 0 || report.truncated_bytes > 0,
            "flip dropped a frame but report shows no damage: {:?}", report
        );
        // Everything strictly before the damage point survives: frames in
        // earlier segments, and frames of the victim ending at or before
        // the flipped byte.
        for (pair, (name, end)) in appended.iter().zip(&ends) {
            let before = (name != &victim && name < &victim) || (name == &victim && *end <= at);
            if before {
                prop_assert!(
                    recovered.contains(pair),
                    "frame before damage lost: lsn {}", pair.0
                );
            }
        }
    }

    /// Crash/reopen cycles through the full store: every cycle appends a
    /// batch, tears the tail mid-write, and reopens. Replay must return
    /// every fully appended record and exactly one torn tail per cycle.
    #[test]
    fn torn_write_reopen_cycles(
        batches in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u64..10_000, 0u64..10_000), 1..8),
            1..5,
        ),
        salt in 0u64..1_000_000,
    ) {
        let cfg = StoreConfig {
            segment_bytes: 1024,
            // Never checkpoint inside this test: replay then returns every
            // record, so the expectation stays exact.
            checkpoint_interval_s: f64::INFINITY,
        };
        let (mut store, _) = SiteStore::open(MemStorage::new(), cfg);
        let mut appended: Vec<(u64, WalRecord)> = Vec::new();
        for (round, batch) in batches.iter().enumerate() {
            for &(k, a, b) in batch {
                let rec = record(k, a, b);
                let lsn = store.append(&rec);
                appended.push((lsn, rec));
            }
            store.simulate_torn_write(salt.wrapping_add(round as u64));
            let (reopened, recovered) = SiteStore::open(store.into_storage(), cfg);
            prop_assert_eq!(&recovered.records, &appended);
            prop_assert_eq!(recovered.report.torn_tails, 1);
            prop_assert!(recovered.checkpoints.is_empty());
            store = reopened;
        }
    }
}

/// Every crash point, not a sample of them: a store holding all three
/// record kinds over several segments and one checkpoint is cut at each
/// byte offset of its tail segment — every frame boundary and every
/// mid-frame offset — and reopened. It must come back with the checkpoint
/// and exactly the records whose frames fit below the cut, report a torn
/// tail if and only if the cut fell inside a frame, and take a further
/// append that the next open returns.
#[test]
fn every_cut_of_the_tail_segment_recovers_the_longest_whole_frame_prefix() {
    let cfg = StoreConfig {
        segment_bytes: 256,
        checkpoint_interval_s: f64::INFINITY,
    };
    let (mut store, _) = SiteStore::open(MemStorage::new(), cfg);
    let mut appended: Vec<(u64, WalRecord)> = Vec::new();
    let mut append = |store: &mut SiteStore, i: u64| {
        let rec = record(i as u8, 31 * i + 7, 17 * i + 3);
        appended.push((store.append(&rec), rec));
    };
    (0..6).for_each(|i| append(&mut store, i));
    let ckpt = CheckpointState {
        lsn: store.next_lsn() - 1,
        site: SiteId(1),
        slot_s: 60.0,
        ..CheckpointState::default()
    };
    store.checkpoint(&ckpt.view());
    (6..20).for_each(|i| append(&mut store, i));
    let pristine = store.into_storage();

    let segments: Vec<String> = (pristine.list().into_iter())
        .filter(|n| n.starts_with("wal-"))
        .collect();
    assert!(segments.len() >= 2, "{segments:?}");
    let tail = segments.last().expect("a tail segment");
    let tail_bytes = pristine.read(tail).expect("tail readable");
    // Offsets at which a whole number of the tail's frames end.
    let mut boundaries = vec![0usize];
    while *boundaries.last().expect("non-empty") < tail_bytes.len() {
        match decode_frame(tail_bytes, *boundaries.last().expect("non-empty")) {
            FrameOutcome::Frame { next, .. } => boundaries.push(next),
            _ => panic!("pristine WAL must decode cleanly"),
        }
    }
    let tail_frames = boundaries.len() - 1;
    assert!(tail_frames >= 2, "the tail holds {tail_frames} frame(s)");
    let past_checkpoint: Vec<&(u64, WalRecord)> =
        appended.iter().filter(|(lsn, _)| *lsn > ckpt.lsn).collect();
    let kinds = |pick: fn(&WalRecord) -> bool| past_checkpoint.iter().any(|(_, r)| pick(r));
    assert!(kinds(|r| matches!(r, WalRecord::Usage(_))));
    assert!(kinds(|r| matches!(r, WalRecord::PeerData { .. })));
    assert!(kinds(|r| matches!(r, WalRecord::Publish { .. })));

    let extra = WalRecord::Publish { seq: 4242 };
    for cut in 0..=tail_bytes.len() {
        let mut disk = MemStorage::new();
        for name in pristine.list() {
            let bytes = pristine.read(&name).expect("object readable");
            disk.replace(&name, bytes);
        }
        disk.truncate(tail, cut as u64);
        let (mut store, recovered) = SiteStore::open(disk, cfg);

        let whole = boundaries
            .iter()
            .filter(|&&end| end > 0 && end <= cut)
            .count();
        let expected = &appended[..appended.len() - (tail_frames - whole)];
        assert_eq!(recovered.records, expected, "cut at {cut}");
        assert_eq!(recovered.checkpoints.first().map(|c| c.lsn), Some(ckpt.lsn));
        let mid_frame = !boundaries.contains(&cut);
        assert_eq!(
            recovered.report.torn_tails,
            u64::from(mid_frame),
            "cut at {cut}: {:?}",
            recovered.report
        );

        store.append(&extra);
        let (_, again) = SiteStore::open(store.into_storage(), cfg);
        assert_eq!(again.records.len(), expected.len() + 1, "cut at {cut}");
        assert_eq!(
            again.records[..expected.len()],
            expected[..],
            "cut at {cut}"
        );
        assert_eq!(again.records.last().map(|(_, r)| r), Some(&extra));
        assert_eq!(again.report.torn_tails, 0, "cut at {cut}");
    }
}

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex digits"))
        .collect()
}

/// Record frames as the layout before this one wrote them (frame kind 1,
/// fixed-width cells): a `PeerData` at LSN 5 and a `Publish` at LSN 6 — the
/// latter's payload is byte-identical under both layouts, which is why the
/// frame kind, not the payload, has to tell them apart.
const OLD_RECORD_FRAMES: &str = "\
    a90164000000ddec873c050000000000000002010400000011000000000000000000000000004e40\
    01000000030000005536350100000003000000000000000000000000205e4001000000090000000100\
    0000030000005536350100000003000000000000000000000000205e40\
    a90111000000d0da29a20600000000000000030c00000000000000";

/// A `VERSION = 2` checkpoint slot (LSN 7) as that layout wrote it (the
/// version 3 one is refused in `checkpoint.rs`'s own tests).
const OLD_CHECKPOINT_SLOT: &str = "\
    a902ab0000008e27b94002070000000000000000000000004a9340010000000000000000004e40\
    01000000030000005536350100000003000000000000000000000000205e402a000000000000001100\
    0000000000000100000002000000090000000000000001000000020000000100000003000000553635\
    0100000003000000000000000000000000205e40010000000000c09240010000000300000055363500\
    0000000000c03f010100000003000000553330";

#[test]
fn record_frames_of_the_previous_layout_are_refused_not_misread() {
    let old = unhex(OLD_RECORD_FRAMES);
    let mut storage = MemStorage::new();
    let (mut wal, _, _) = Wal::replay(&mut storage, 1 << 16);
    let current = WalRecord::Publish { seq: 99 };
    wal.append(&mut storage, &current);
    let name = wal.segments()[0].name.clone();
    storage.append(&name, &old);

    // Both old frames pass their CRC: nothing but the format stops them.
    let at = storage.read(&name).expect("segment").len() - old.len();
    let segment = storage.read(&name).expect("segment");
    let FrameOutcome::Frame { kind: 1, next, .. } = decode_frame(segment, at) else {
        panic!("the old PeerData frame is CRC-valid");
    };
    assert!(matches!(
        decode_frame(segment, next),
        FrameOutcome::Frame { kind: 1, .. }
    ));

    let (_, recovered, report) = Wal::replay(&mut storage, 1 << 16);
    assert_eq!(recovered, vec![(1, current)], "only the current record");
    assert_eq!(report.frames_replayed, 1);
    assert_eq!(report.corrupt_frames, 2, "refused and counted: {report:?}");
    assert_eq!(report.truncated_bytes, 0, "framing was never lost");
}

#[test]
fn a_version_2_checkpoint_slot_is_refused_not_misread() {
    let old = unhex(OLD_CHECKPOINT_SLOT);
    assert!(
        matches!(
            decode_frame(&old, 0),
            FrameOutcome::Frame { kind: KIND_CHECKPOINT, payload, .. } if payload[0] == 2
        ),
        "the old slot is one CRC-valid checkpoint frame at version 2"
    );
    assert_eq!(CheckpointState::decode_slot(&old), None);
}
