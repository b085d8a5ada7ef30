//! Property-based tests of the gossip wire codec: lossless round-trips for
//! arbitrary summaries, positive-delta merge idempotence under duplication /
//! reordering / loss-with-resync, and corruption detection — a flipped bit
//! must never decode silently — the sliced CRC32 against a table-free
//! bitwise reference, the column section encoder against the byte-at-a-time
//! writer it replaced, and the fixed-width yardstick's closed-form size
//! against the fixed-width writer it measures.
//!
//! The vendored proptest shim generates scalars and vectors of scalar
//! tuples; structured values (names, charges, summaries) are derived
//! deterministically from those scalars, so every failure reproduces from
//! the reported case seed.

use aequus_core::arena::UserTable;
use aequus_core::codec::{
    crc32, decode_cells, decode_summary, dense_frame_len, encode_summary, Crc32, Encoding,
    NamedCells, Publication, Reader, Sink,
};
use aequus_core::ids::SiteId;
use aequus_core::usage::{CellStore, UsageSummary, UserCells};
use aequus_core::GridUser;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// A charge value mixing the integral fast path (whole core-seconds),
/// awkward fractions, tiny residues, and huge magnitudes.
fn charge_from(kind: u8, a: u64) -> f64 {
    match kind % 4 {
        0 => (a % 1_000_000) as f64,
        1 => (a % 1_000_000_000) as f64 / 1024.0 + 0.25,
        2 => [0.1, 1.0 / 3.0, 1e-12, 9e15][(a % 4) as usize],
        _ => a as f64 * 1e-3,
    }
}

/// User names spanning the front-coder's edge cases — shared prefixes of
/// different lengths, pure numeric suffixes, multi-byte UTF-8, and a small
/// pool that forces identical names (empty front-coded suffix).
fn name_from(kind: u8, n: u64) -> String {
    match kind % 4 {
        0 => format!(
            "{}{}",
            ["a", "ab", "abc", "abcd"][(n % 4) as usize],
            n % 1_000_000
        ),
        1 => format!("user{}", n % 10_000_000),
        2 => format!("ユーザ{}", n % 100),
        _ => format!("user{}", n % 8),
    }
}

type CellScalars = Vec<(u64, u8, u64)>;
type UserScalars = Vec<((u8, u64), CellScalars)>;

fn cells_from(scalars: CellScalars) -> BTreeMap<u64, f64> {
    scalars
        .into_iter()
        .map(|(slot, ck, ca)| (slot % 50_000, charge_from(ck, ca)))
        .collect()
}

/// Per-user cells as slot maps: the oracle's shape, whatever the codec's.
type SlotMaps = BTreeMap<GridUser, BTreeMap<u64, f64>>;

fn slot_maps_from(scalars: UserScalars) -> SlotMaps {
    let mut m = SlotMaps::new();
    for ((nk, nn), cells) in scalars {
        let user = GridUser::new(name_from(nk, nn));
        m.entry(user).or_default().extend(cells_from(cells));
    }
    m
}

/// Slot maps as the codec's slot-sorted rows.
fn rows(maps: SlotMaps) -> UserCells {
    let row = |slots: BTreeMap<u64, f64>| slots.into_iter().collect();
    maps.into_iter()
        .map(|(user, slots)| (user, row(slots)))
        .collect()
}

fn user_cells_from(scalars: UserScalars) -> UserCells {
    rows(slot_maps_from(scalars))
}

/// Strategy: scalar raw material for one per-user cell map.
fn user_scalars(max_users: usize) -> impl Strategy<Value = UserScalars> {
    proptest::collection::vec(
        (
            (0u8..4, 0u64..1u64 << 40),
            proptest::collection::vec((0u64..50_000, 0u8..4, 0u64..1u64 << 40), 1..6),
        ),
        0..max_users,
    )
}

/// Strategy: a full summary with the publisher's own section plus relayed
/// sections whose origins are distinct from the publisher (the publisher
/// never relays itself).
fn summary() -> impl Strategy<Value = UsageSummary> {
    (
        0u32..64,
        0u64..10_000,
        0u8..3,
        user_scalars(6),
        proptest::collection::vec((64u32..96, user_scalars(4)), 0..3),
    )
        .prop_map(|(site, seq, sk, per_user, relayed)| UsageSummary {
            site: SiteId(site),
            seq,
            slot_s: [60.0, 300.0, 0.5][sk as usize],
            per_user: user_cells_from(per_user),
            relayed: relayed
                .into_iter()
                .map(|(o, scalars)| (SiteId(o), user_cells_from(scalars)))
                .collect(),
        })
}

/// The receiver's positive-delta merge against a per-origin mirror —
/// the uss merge rule, restated here as the property under test.
fn merge(
    mirrors: &mut BTreeMap<SiteId, SlotMaps>,
    acc: &mut SlotMaps,
    origin: SiteId,
    cells: &UserCells,
) {
    const CELL_EPS: f64 = 1e-12;
    let mirror = mirrors.entry(origin).or_default();
    for (user, slots) in cells {
        let seen = mirror.entry(user.clone()).or_default();
        for &(slot, value) in slots {
            let prev = seen.get(&slot).copied().unwrap_or(0.0);
            if value - prev > CELL_EPS {
                seen.insert(slot, value);
                *acc.entry(user.clone())
                    .or_default()
                    .entry(slot)
                    .or_insert(0.0) += value - prev;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn round_trip_is_lossless(s in summary()) {
        let buf = encode_summary(&s);
        let published = Publication::new(s.clone());
        prop_assert_eq!(published.frame(), &buf[..], "one frame, the same bytes");
        prop_assert_eq!(&decode_summary(&buf).unwrap(), &s, "round trip");
    }

    #[test]
    fn delta_streams_merge_idempotently(
        base in user_scalars(6),
        increments in proptest::collection::vec(((0u8..4, 0u64..1000), 0u64..100, 0.5..500.0f64), 1..12),
        order in proptest::collection::vec(0usize..4096, 0..24),
        dups in proptest::collection::vec(0usize..4096, 0..8),
    ) {
        // Build a monotone publication history: each step raises one cell's
        // absolute cumulative value, publishing only the changed cell.
        let origin = SiteId(3);
        let mut truth = slot_maps_from(base);
        let mut history: Vec<UsageSummary> = Vec::new();
        for ((nk, nn), slot, inc) in increments {
            let user = GridUser::new(name_from(nk, nn));
            let cell = truth.entry(user.clone()).or_default().entry(slot).or_insert(0.0);
            *cell += inc;
            let value = *cell;
            history.push(UsageSummary {
                site: origin,
                seq: history.len() as u64 + 1,
                slot_s: 60.0,
                per_user: [(user, vec![(slot, value)])].into(),
                relayed: BTreeMap::new(),
            });
        }
        // Final cumulative snapshot — what a resync falls back to after loss.
        let snapshot = UsageSummary {
            site: origin,
            seq: history.len() as u64,
            slot_s: 60.0,
            per_user: rows(truth.clone()),
            relayed: BTreeMap::new(),
        };
        // Deliver an arbitrary subset in arbitrary order (loss + reorder),
        // with arbitrary re-deliveries (duplication), each hop through the
        // codec, then the snapshot closes every remaining gap.
        let mut mirrors = BTreeMap::new();
        let mut acc = BTreeMap::new();
        let deliveries = order
            .iter()
            .map(|&ix| &history[ix % history.len()])
            .chain(dups.iter().map(|&ix| &history[ix % history.len()]))
            .chain(std::iter::once(&snapshot))
            .chain(std::iter::once(&snapshot)); // snapshot twice: idempotent
        for s in deliveries {
            let decoded = decode_summary(&encode_summary(s)).unwrap();
            merge(&mut mirrors, &mut acc, decoded.site, &decoded.per_user);
        }
        // The merged view equals the true cumulative values exactly once
        // (no double-counting, nothing lost). Cells already present in the
        // base start above zero: the snapshot must cover them too.
        for (user, slots) in &truth {
            for (&slot, &value) in slots {
                if value <= 1e-12 {
                    continue;
                }
                let got = acc.get(user).and_then(|m| m.get(&slot)).copied().unwrap_or(0.0);
                prop_assert!((got - value).abs() <= 1e-9 * value.abs().max(1.0),
                    "user {user:?} slot {slot}: merged {got} truth {value}");
            }
        }
    }

    #[test]
    fn single_bit_corruption_never_decodes(
        s in summary(),
        flips in proptest::collection::vec((0usize..65_536, 0u8..8), 1..16),
    ) {
        let buf = encode_summary(&s);
        for &(ix, bit) in &flips {
            let pos = ix % buf.len();
            let mut bad = buf.clone();
            bad[pos] ^= 1 << bit;
            // CRC32 detects every single-bit error; nothing may decode.
            prop_assert!(
                decode_summary(&bad).is_err(),
                "flipped bit {} of byte {} decoded silently", bit, pos
            );
        }
    }

    #[test]
    fn truncation_never_decodes(s in summary(), cut in 0usize..65_536) {
        let buf = encode_summary(&s);
        let cut = cut % buf.len();
        prop_assert!(decode_summary(&buf[..cut]).is_err(), "cut at {}", cut);
    }

    #[test]
    fn sliced_crc32_matches_the_bitwise_reference(
        bytes in proptest::collection::vec(0u16..256, 0..2049),
        splits in (0usize..2049, 0usize..2049),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        // Every start offset within an 8-byte block, so the sliced loop and
        // its tail meet the data at every alignment.
        for offset in 0..8 {
            let mut padded = vec![0xA5u8; offset];
            padded.extend_from_slice(&bytes);
            let data = &padded[offset..];
            let whole = crc32(data);
            prop_assert_eq!(whole, bitwise_crc32(data), "offset {}, {} bytes", offset, data.len());
            let (a, b) = (splits.0 % (data.len() + 1), splits.1 % (data.len() + 1));
            let (a, b) = (a.min(b), a.max(b));
            let mut h = Crc32::new();
            for part in [&data[..a], &data[a..b], &data[b..]] {
                h.update(part);
            }
            prop_assert_eq!(h.finish(), whole, "offset {}, split at {} and {}", offset, a, b);
        }
    }
}

/// CRC-32/IEEE one bit at a time, no table: the definition the sliced
/// tables must reproduce.
fn bitwise_crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

// --- The column section encoder against the byte writer --------------------

/// The section writers, one byte at a time through [`Sink`]: under `Delta`
/// the writer the column encoder replaced, the reference its bytes are held
/// to; under `Dense` the retired fixed-width writer, the reference
/// [`dense_frame_len`] is held to.
fn reference_section(rows: &[(&GridUser, Vec<(u64, f64)>)], enc: Encoding) -> Vec<u8> {
    fn integral_value(charge: f64) -> Option<u64> {
        if !(0.0..9_007_199_254_740_992.0).contains(&charge) {
            return None;
        }
        let x = charge as u64;
        ((x as f64).to_bits() == charge.to_bits()).then_some(x)
    }
    let mut out = Vec::new();
    out.varint(rows.len() as u64);
    let cells = || rows.iter().flat_map(|(_, cells)| cells);
    match enc {
        Encoding::Dense => {
            for (user, cells) in rows {
                out.str(user.as_str());
                out.u32(cells.len() as u32);
                for &(slot, charge) in cells {
                    out.u64(slot);
                    out.f64(charge);
                }
            }
        }
        Encoding::Delta => {
            let mut prev: &[u8] = &[];
            for (user, _) in rows {
                let name = user.as_str().as_bytes();
                let shared = prev.iter().zip(name).take_while(|(x, y)| x == y).count();
                out.varint(shared as u64);
                out.varint((name.len() - shared) as u64);
                out.bytes(&name[shared..]);
                prev = name;
            }
            for (_, cells) in rows {
                out.varint(cells.len() as u64);
            }
            for (_, cells) in rows {
                let mut prev_slot = 0;
                for &(slot, _) in cells {
                    out.varint(slot - prev_slot);
                    prev_slot = slot;
                }
            }
            let mut bitmap = Vec::new();
            for (bit, &(_, charge)) in cells().enumerate() {
                if bit.is_multiple_of(8) {
                    bitmap.push(0u8);
                }
                if integral_value(charge).is_some() {
                    bitmap[bit / 8] |= 1 << (bit % 8);
                }
            }
            out.bytes(&bitmap);
            for &(_, charge) in cells() {
                match integral_value(charge) {
                    Some(x) => out.varint(x),
                    None => out.varint(charge.to_bits().swap_bytes()),
                }
            }
        }
    }
    out
}

/// Names at the front-coder's corners: long shared prefixes, names that
/// are the prefix of the next one, the empty name and multi-byte UTF-8.
fn edge_name(kind: u8, n: u64) -> String {
    match kind % 5 {
        0 => format!("/grid/vo-atlas/production/group-{}/user{}", n % 3, n % 40),
        1 => "a".repeat((n % 6) as usize),
        2 => format!("u{:0width$}", n % 50, width = (n % 4) as usize + 1),
        3 => format!("ω{}ü", n % 9),
        _ => String::new(),
    }
}

/// Charges at the value column's corners: `-0.0`, NaN payloads,
/// subnormals, 2^53 and its neighbours, `f64::MAX`, infinities and
/// negatives beside plain integral and fractional core-seconds.
fn edge_charge(kind: u8, a: u64) -> f64 {
    const TWO_53: f64 = 9_007_199_254_740_992.0;
    match kind % 10 {
        0 => -0.0,
        1 => f64::from_bits(0x7FF0_0000_0000_0000 | (a & 0x000F_FFFF_FFFF_FFFF) | 1),
        2 => f64::from_bits(a & 0x000F_FFFF_FFFF_FFFF),
        3 => [TWO_53 - 1.0, TWO_53, TWO_53 + 2.0, TWO_53 - 2.0][(a % 4) as usize],
        4 => [f64::MAX, f64::INFINITY, -1.0, f64::MIN_POSITIVE][(a % 4) as usize],
        5 | 6 => (a % 100_000) as f64,
        _ => (a % 1_000_000) as f64 / 64.0 + 0.1,
    }
}

/// One row's slots from `(gap kind, magnitude)` pairs: small gaps, gaps up
/// to `u64::MAX`, the first slot absolute; a gap that would overflow ends
/// the row.
fn edge_row(cells: &[(u8, u64, u8, u64)]) -> Vec<(u64, f64)> {
    let mut row = Vec::new();
    let mut slot: Option<u64> = None;
    for &(gap_kind, gap, charge_kind, a) in cells {
        let gap = match gap_kind % 3 {
            0 => gap % 3 + 1,
            1 => u64::MAX - gap % 4,
            _ => gap.max(1),
        };
        let next = match slot {
            None => Some(gap - 1),
            Some(at) => at.checked_add(gap),
        };
        let Some(next) = next else { break };
        row.push((next, edge_charge(charge_kind, a)));
        slot = Some(next);
    }
    row
}

type EdgeScalars = Vec<((u8, u64), Vec<(u8, u64, u8, u64)>)>;

fn edge_cells(scalars: &EdgeScalars) -> UserCells {
    let mut cells = UserCells::new();
    for ((kind, n), row) in scalars {
        cells.insert(GridUser::new(edge_name(*kind, *n)), edge_row(row));
    }
    cells
}

fn edge_scalars() -> impl Strategy<Value = EdgeScalars> {
    proptest::collection::vec(
        (
            (0u8..5, 0u64..1_000),
            proptest::collection::vec((0u8..3, 0u64..u64::MAX, 0u8..10, 0u64..u64::MAX), 0..5),
        ),
        0..12,
    )
}

fn owned_rows(cells: &UserCells) -> Vec<(&GridUser, Vec<(u64, f64)>)> {
    cells
        .iter()
        .map(|(user, row)| (user, row.clone()))
        .collect()
}

/// `cells` as a site holds them: a table whose base is every other name
/// (in name order) and whose overflow holds the rest, interned in reverse —
/// so overflow ids sit among the base names only by name, not by id.
fn held(cells: &UserCells) -> (UserTable, CellStore) {
    let names: Vec<&GridUser> = cells.keys().collect();
    let base: Arc<[GridUser]> = names.iter().step_by(2).map(|&u| u.clone()).collect();
    let mut users = UserTable::new(base);
    let mut store = CellStore::default();
    for (user, slots) in cells.iter().rev() {
        let id = users.intern(user);
        store.add(id, slots.iter().copied());
    }
    (users, store)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Name-keyed sections and id-keyed rows encode to the byte writer's
    /// bytes, and decode back to bytes that re-encode the same.
    #[test]
    fn the_column_encoder_writes_the_byte_writers_bytes(scalars in edge_scalars()) {
        let cells = edge_cells(&scalars);
        let (users, store) = held(&cells);
        // What the store holds (a new cell is `0.0 + charge`, so `-0.0`
        // arrives as `0.0`), by name.
        let stored: BTreeMap<&GridUser, Vec<(u64, f64)>> =
            store.iter().map(|(id, row)| (users.name(id), row.to_vec())).collect();
        let stored: Vec<_> = stored.into_iter().collect();
        let mut bytes = Vec::new();
        NamedCells::from_cells(&cells).encode(&mut bytes);
        prop_assert_eq!(&bytes, &reference_section(&owned_rows(&cells), Encoding::Delta));
        let decoded = decode_cells(&mut Reader::new(&bytes)).unwrap();
        let mut again = vec![0xEE];
        NamedCells::from_cells(&decoded).encode(&mut again);
        prop_assert_eq!(&again[1..], &bytes[..], "re-encode after a prefix");

        let mut rows = Vec::new();
        NamedCells::from_rows(store.iter(), &users).encode(&mut rows);
        prop_assert_eq!(&rows, &reference_section(&stored, Encoding::Delta), "from the rows");
    }
}

/// Every cell at its longest — a first slot of 2^63 or more and a charge
/// whose byte-swapped bits need all ten varint bytes — and names under 128
/// bytes.
fn longest_section() -> UserCells {
    let widest = f64::from_bits(0x0000_0000_0000_00FF);
    ["", "a", "ab", "ω"]
        .into_iter()
        .enumerate()
        .map(|(i, name)| (GridUser::new(name), vec![(u64::MAX - i as u64, widest)]))
        .collect()
}

/// The longest section fills the room the encoder makes for it exactly, so
/// a bound one byte short cannot pass unseen.
#[test]
fn the_longest_section_fills_its_room() {
    let cells = longest_section();
    let mut bytes = Vec::new();
    NamedCells::from_cells(&cells).encode(&mut bytes);
    assert_eq!(
        bytes,
        reference_section(&owned_rows(&cells), Encoding::Delta)
    );
}

// --- The fixed-width yardstick ---------------------------------------------

/// The fixed-width frame of `s`, laid out from the reference section writer
/// under the retired tag 0: what [`dense_frame_len`] must measure.
fn reference_dense_frame(s: &UsageSummary) -> Vec<u8> {
    let mut out = vec![0xA9, 1, 0];
    out.varint(u64::from(s.site.0));
    out.varint(s.seq);
    out.f64(s.slot_s);
    out.varint(1 + s.relayed.len() as u64);
    for (origin, cells) in std::iter::once((&s.site, &s.per_user)).chain(&s.relayed) {
        out.varint(u64::from(origin.0));
        out.bytes(&reference_section(&owned_rows(cells), Encoding::Dense));
    }
    let crc = crc32(&out);
    out.u32(crc);
    out
}

/// A summary over the front-coder's edge cells, with its site and sequence
/// number anywhere on their ranges.
fn edge_summary() -> impl Strategy<Value = UsageSummary> {
    (
        0u32..u32::MAX,
        0u64..u64::MAX,
        edge_scalars(),
        proptest::collection::vec((0u32..u32::MAX, edge_scalars()), 0..3),
    )
        .prop_map(|(site, seq, own, relayed)| UsageSummary {
            site: SiteId(site),
            seq,
            slot_s: 60.0,
            per_user: edge_cells(&own),
            relayed: relayed
                .iter()
                .map(|(origin, scalars)| (SiteId(*origin), edge_cells(scalars)))
                .collect(),
        })
}

fn assert_dense_len(s: &UsageSummary) {
    assert_eq!(dense_frame_len(s), reference_dense_frame(s).len() as u64);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The closed form is the length of the fixed-width frame.
    #[test]
    fn the_dense_size_is_the_fixed_width_frames_length(s in summary(), e in edge_summary()) {
        assert_dense_len(&s);
        assert_dense_len(&e);
    }
}

/// The longest section's cells, a relayed section whose user count takes a
/// two-byte varint and a section count that takes two, under a site and
/// sequence number at their ends.
#[test]
fn the_dense_size_of_the_longest_section() {
    let many: UserCells = (0..200)
        .map(|i| (GridUser::new(format!("u{i:03}")), vec![(i, 1.0)]))
        .collect();
    assert_dense_len(&UsageSummary {
        site: SiteId(u32::MAX),
        seq: u64::MAX,
        slot_s: 60.0,
        per_user: longest_section(),
        relayed: (0..130)
            .map(|origin| (SiteId(origin), UserCells::new()))
            .chain([(SiteId(1 << 20), many)])
            .collect(),
    });
}
