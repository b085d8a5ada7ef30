//! Exact binary wire codec for [`UsageSummary`] gossip payloads.
//!
//! Two encodings sit behind one frame format (ROADMAP item 4): [`Encoding::Dense`]
//! stores every (slot, charge) cell at full fixed width — the honest
//! materialization of the byte model PR 7's profiler charged — while
//! [`Encoding::Delta`] exploits the structure the reliable exchange already
//! guarantees (sorted users, sorted slots, numerically tame charge values)
//! with a columnar varint layout: front-coded user names, delta-coded slot
//! indices, and byte-swapped-varint `f64` charges. Both are *exact*: decode
//! reproduces the summary bit for bit, and `wire_bytes`/`wire_size`
//! accounting throughout the simulator is defined as the encoded length, so
//! modeled bytes and profiled bytes can no longer diverge.
//!
//! Frame layout (all multi-byte integers little-endian or LEB128 varint):
//!
//! ```text
//! magic (0xA9) | version (1) | encoding tag
//! varint site | varint seq | f64 slot_s (8 B LE)
//! varint section count (1 own + one per relayed origin)
//!   section: varint origin site, then the encoding-specific cell payload
//! crc32 (4 B LE, over everything before it)
//! ```
//!
//! The CRC is verified *before* any parsing, so a corrupted frame is
//! rejected outright rather than half-decoded; CRC32 detects every
//! single-bit error by construction (`proptest_codec.rs` exercises this).
//! Decoders also enforce canonical form — strictly increasing user names
//! and slot indices, no trailing bytes — so a frame that decodes at all
//! re-encodes to the identical bytes.

use crate::ids::{GridUser, SiteId};
use crate::usage::{UsageSummary, UserCells};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

const MAGIC: u8 = 0xA9;
const VERSION: u8 = 1;

/// Wire encoding selector for summary payloads. A transport property — the
/// same [`UsageSummary`] can travel under either encoding; the scenario
/// picks one and every byte counter downstream uses it consistently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Encoding {
    /// Fixed-width cells: 16 bytes per (slot, charge) pair plus names.
    Dense,
    /// Columnar varint layout with front-coded names and delta-coded
    /// slots — the scale-out default.
    #[default]
    Delta,
}

impl Encoding {
    fn tag(self) -> u8 {
        match self {
            Encoding::Dense => 0,
            Encoding::Delta => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, CodecError> {
        match tag {
            0 => Ok(Encoding::Dense),
            1 => Ok(Encoding::Delta),
            t => Err(CodecError::BadEncoding(t)),
        }
    }
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CodecError {
    /// Too short to even hold the frame scaffolding.
    Truncated,
    /// CRC mismatch — the bytes were damaged in flight.
    Corrupt,
    /// First byte is not the summary-frame magic.
    BadMagic(u8),
    /// Unknown format version.
    BadVersion(u8),
    /// Unknown encoding tag.
    BadEncoding(u8),
    /// Structurally invalid content (overruns, non-canonical order,
    /// invalid UTF-8 in names, trailing bytes).
    Malformed(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "frame truncated"),
            CodecError::Corrupt => write!(f, "crc mismatch"),
            CodecError::BadMagic(b) => write!(f, "bad magic byte {b:#04x}"),
            CodecError::BadVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::BadEncoding(t) => write!(f, "unknown encoding tag {t}"),
            CodecError::Malformed(why) => write!(f, "malformed frame: {why}"),
        }
    }
}

impl std::error::Error for CodecError {}

// --- CRC32 (IEEE, reflected) -----------------------------------------------
//
// Reflected polynomial `0xEDB8_8320`, initial value and final xor
// `0xFFFF_FFFF` — the same parametrization as zlib's `crc32`, so frames
// (wire summaries here, WAL records in `aequus-store`) are checkable with
// stock tools.

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// Incremental CRC32 (IEEE 802.3) over multiple byte slices (frame headers
/// and payloads are hashed without concatenating them first).
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Fresh hasher.
    pub fn new() -> Self {
        Self { state: 0xFFFF_FFFF }
    }

    /// Fold `data` into the running checksum.
    pub fn update(&mut self, data: &[u8]) {
        let mut c = self.state;
        for &b in data {
            c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.state = c;
    }

    /// Final checksum value.
    pub fn finish(&self) -> u32 {
        self.state ^ 0xFFFF_FFFF
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// One-shot CRC32 of `data` — the frame trailer checksum.
pub fn crc32(data: &[u8]) -> u32 {
    let mut h = Crc32::new();
    h.update(data);
    h.finish()
}

// --- Byte sinks: one write path serves encoding and exact sizing -----------

trait Sink {
    fn byte(&mut self, b: u8);
    fn bytes(&mut self, bs: &[u8]);
}

impl Sink for Vec<u8> {
    fn byte(&mut self, b: u8) {
        self.push(b);
    }
    fn bytes(&mut self, bs: &[u8]) {
        self.extend_from_slice(bs);
    }
}

/// Counting sink: `encoded_size` runs the identical write path without
/// materializing a buffer, so size and encoding cannot drift apart.
struct Count(usize);

impl Sink for Count {
    fn byte(&mut self, _: u8) {
        self.0 += 1;
    }
    fn bytes(&mut self, bs: &[u8]) {
        self.0 += bs.len();
    }
}

fn varint<S: Sink>(mut v: u64, out: &mut S) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.byte(b);
            return;
        }
        out.byte(b | 0x80);
    }
}

// --- Reader ----------------------------------------------------------------

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn byte(&mut self) -> Result<u8, CodecError> {
        let b = *self.buf.get(self.pos).ok_or(CodecError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.byte()?;
            if shift == 63 && b > 1 {
                return Err(CodecError::Malformed("varint overflows u64"));
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::Malformed("varint too long"));
            }
        }
    }

    /// A declared element count, sanity-bounded by the bytes actually left
    /// (`min_bytes` per element) so forged counts cannot drive allocation.
    fn seq_len(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        let n = self.varint()? as usize;
        if n.saturating_mul(min_bytes) > self.remaining() {
            return Err(CodecError::Malformed("count exceeds frame"));
        }
        Ok(n)
    }

    fn f64(&mut self) -> Result<f64, CodecError> {
        let bytes: [u8; 8] = self.take(8)?.try_into().expect("take(8) is 8 bytes");
        Ok(f64::from_bits(u64::from_le_bytes(bytes)))
    }
}

// --- Section payloads ------------------------------------------------------

fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// `Some(x)` when `charge` is bit-exactly the non-negative integer `x`
/// below 2^53 (so `x as f64` reproduces it losslessly), `None` otherwise —
/// in particular for `-0.0`, `NaN`, negatives, and fractional values.
fn integral_value(charge: f64) -> Option<u64> {
    if !(0.0..9_007_199_254_740_992.0).contains(&charge) {
        return None;
    }
    let x = charge as u64;
    ((x as f64).to_bits() == charge.to_bits()).then_some(x)
}

fn write_section<S: Sink>(origin: SiteId, cells: &UserCells, enc: Encoding, out: &mut S) {
    varint(u64::from(origin.0), out);
    varint(cells.len() as u64, out);
    match enc {
        Encoding::Dense => {
            // Fixed-width u32 length/count fields and 16-byte cells: this is
            // the byte model PR 7's profiler charged, made real.
            for (user, slots) in cells {
                let name = user.as_str().as_bytes();
                out.bytes(&(name.len() as u32).to_le_bytes());
                out.bytes(name);
                out.bytes(&(slots.len() as u32).to_le_bytes());
                for (&slot, &charge) in slots {
                    out.bytes(&slot.to_le_bytes());
                    out.bytes(&charge.to_bits().to_le_bytes());
                }
            }
        }
        Encoding::Delta => {
            // Names column, front-coded against the previous name: grid
            // identities like "u000123" share long prefixes, so most
            // entries shrink to a couple of bytes.
            let mut prev: &[u8] = &[];
            for user in cells.keys() {
                let name = user.as_str().as_bytes();
                let shared = common_prefix(prev, name);
                varint(shared as u64, out);
                varint((name.len() - shared) as u64, out);
                out.bytes(&name[shared..]);
                prev = name;
            }
            // Cell-count column.
            for slots in cells.values() {
                varint(slots.len() as u64, out);
            }
            // Slot column: first index absolute, the rest as gaps (sorted
            // and distinct, so every gap is ≥ 1 and typically tiny).
            for slots in cells.values() {
                let mut prev_slot = None;
                for &slot in slots.keys() {
                    match prev_slot {
                        None => varint(slot, out),
                        Some(p) => varint(slot - p, out),
                    }
                    prev_slot = Some(slot);
                }
            }
            // Value column, led by a per-cell bitmap: set bits mark charges
            // that are exactly a small non-negative integer — the common
            // case for accumulated core-seconds — stored as a plain varint
            // of that integer. Clear bits fall back to the `f64` bits
            // byte-swapped then varint-coded (lossless for every bit
            // pattern; the trailing-zero mantissas of dyadic charges become
            // leading zeros the varint drops).
            let mut bitmap = Vec::new();
            let mut bit = 0usize;
            for slots in cells.values() {
                for &charge in slots.values() {
                    if bit.is_multiple_of(8) {
                        bitmap.push(0u8);
                    }
                    if integral_value(charge).is_some() {
                        bitmap[bit / 8] |= 1 << (bit % 8);
                    }
                    bit += 1;
                }
            }
            out.bytes(&bitmap);
            for slots in cells.values() {
                for &charge in slots.values() {
                    match integral_value(charge) {
                        Some(x) => varint(x, out),
                        None => varint(charge.to_bits().swap_bytes(), out),
                    }
                }
            }
        }
    }
}

fn read_section(r: &mut Reader<'_>, enc: Encoding) -> Result<(SiteId, UserCells), CodecError> {
    let origin = SiteId(
        u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("origin exceeds u32"))?,
    );
    let mut cells = UserCells::new();
    match enc {
        Encoding::Dense => {
            let nusers = r.seq_len(8)?;
            let mut prev_name = String::new();
            for _ in 0..nusers {
                let name_len =
                    u32::from_le_bytes(r.take(4)?.try_into().expect("take(4) is 4 bytes")) as usize;
                if name_len > r.remaining() {
                    return Err(CodecError::Malformed("name exceeds frame"));
                }
                let name = std::str::from_utf8(r.take(name_len)?)
                    .map_err(|_| CodecError::Malformed("name is not UTF-8"))?
                    .to_string();
                if !prev_name.is_empty() && name <= prev_name {
                    return Err(CodecError::Malformed("names out of order"));
                }
                let nslots =
                    u32::from_le_bytes(r.take(4)?.try_into().expect("take(4) is 4 bytes")) as usize;
                if nslots.saturating_mul(16) > r.remaining() {
                    return Err(CodecError::Malformed("count exceeds frame"));
                }
                let mut slots = BTreeMap::new();
                let mut prev_slot = None;
                for _ in 0..nslots {
                    let slot =
                        u64::from_le_bytes(r.take(8)?.try_into().expect("take(8) is 8 bytes"));
                    if prev_slot.is_some_and(|p| slot <= p) {
                        return Err(CodecError::Malformed("slots out of order"));
                    }
                    prev_slot = Some(slot);
                    let charge = r.f64()?;
                    slots.insert(slot, charge);
                }
                cells.insert(GridUser::new(&name), slots);
                prev_name = name;
            }
        }
        Encoding::Delta => {
            let nusers = r.seq_len(2)?;
            let mut names = Vec::with_capacity(nusers);
            let mut prev = Vec::new();
            for _ in 0..nusers {
                let shared = r.varint()? as usize;
                if shared > prev.len() {
                    return Err(CodecError::Malformed("shared prefix exceeds previous name"));
                }
                let suffix_len = r.seq_len(1)?;
                let mut name = prev[..shared].to_vec();
                name.extend_from_slice(r.take(suffix_len)?);
                if !prev.is_empty() && name <= prev {
                    return Err(CodecError::Malformed("names out of order"));
                }
                let text = String::from_utf8(name.clone())
                    .map_err(|_| CodecError::Malformed("name is not UTF-8"))?;
                names.push(GridUser::new(text));
                prev = name;
            }
            let mut counts = Vec::with_capacity(nusers);
            for _ in 0..nusers {
                counts.push(r.seq_len(1)?);
            }
            let mut slot_columns = Vec::with_capacity(nusers);
            for &count in &counts {
                let mut slots = Vec::with_capacity(count);
                let mut cursor = 0u64;
                for i in 0..count {
                    let v = r.varint()?;
                    if i > 0 && v == 0 {
                        return Err(CodecError::Malformed("zero slot gap"));
                    }
                    cursor = cursor
                        .checked_add(v)
                        .ok_or(CodecError::Malformed("slot index overflows u64"))?;
                    slots.push(cursor);
                }
                slot_columns.push(slots);
            }
            let total_cells: usize = counts.iter().sum();
            let bitmap = r.take(total_cells.div_ceil(8))?.to_vec();
            if !total_cells.is_multiple_of(8)
                && bitmap.last().is_some_and(|b| b >> (total_cells % 8) != 0)
            {
                return Err(CodecError::Malformed("bitmap padding bits set"));
            }
            let mut bit = 0usize;
            for (user, slots) in names.into_iter().zip(slot_columns) {
                let mut per_slot = BTreeMap::new();
                for slot in slots {
                    let integral = bitmap[bit / 8] & (1 << (bit % 8)) != 0;
                    bit += 1;
                    let v = r.varint()?;
                    let charge = if integral {
                        if v >= 9_007_199_254_740_992 {
                            return Err(CodecError::Malformed("integral value exceeds 2^53"));
                        }
                        v as f64
                    } else {
                        f64::from_bits(v.swap_bytes())
                    };
                    // Enforce canonical form: the encoder always takes the
                    // integral path when it applies.
                    if integral != integral_value(charge).is_some() {
                        return Err(CodecError::Malformed("non-canonical value encoding"));
                    }
                    per_slot.insert(slot, charge);
                }
                cells.insert(user, per_slot);
            }
        }
    }
    Ok((origin, cells))
}

// --- Frame encode / size / decode ------------------------------------------

fn write_frame<S: Sink>(s: &UsageSummary, enc: Encoding, out: &mut S) {
    out.byte(MAGIC);
    out.byte(VERSION);
    out.byte(enc.tag());
    varint(u64::from(s.site.0), out);
    varint(s.seq, out);
    out.bytes(&s.slot_s.to_bits().to_le_bytes());
    varint(1 + s.relayed.len() as u64, out);
    write_section(s.site, &s.per_user, enc, out);
    for (&origin, cells) in &s.relayed {
        write_section(origin, cells, enc, out);
    }
}

/// Encode a summary under `enc`, CRC trailer included.
pub fn encode_summary(s: &UsageSummary, enc: Encoding) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_size(s, enc));
    write_frame(s, enc, &mut out);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Exact encoded length of `s` under `enc` — runs the same write path as
/// [`encode_summary`] through a counting sink, so it equals
/// `encode_summary(s, enc).len()` by construction.
pub fn encoded_size(s: &UsageSummary, enc: Encoding) -> usize {
    let mut count = Count(0);
    write_frame(s, enc, &mut count);
    count.0 + 4
}

/// Decode a frame back into `(encoding, summary)`. The CRC is checked
/// before anything is parsed; every error leaves no partial result.
pub fn decode_summary(buf: &[u8]) -> Result<(Encoding, UsageSummary), CodecError> {
    // Smallest possible frame: 3 header bytes, 1-byte site/seq varints,
    // 8-byte slot width, section count, own-section origin + user count,
    // 4-byte CRC.
    if buf.len() < 20 {
        return Err(CodecError::Truncated);
    }
    let (body, trailer) = buf.split_at(buf.len() - 4);
    let expect = u32::from_le_bytes(trailer.try_into().expect("trailer is 4 bytes"));
    if crc32(body) != expect {
        return Err(CodecError::Corrupt);
    }
    let mut r = Reader::new(body);
    let magic = r.byte()?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = r.byte()?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let enc = Encoding::from_tag(r.byte()?)?;
    let site =
        SiteId(u32::try_from(r.varint()?).map_err(|_| CodecError::Malformed("site exceeds u32"))?);
    let seq = r.varint()?;
    let slot_s = r.f64()?;
    let nsections = r.seq_len(2)?;
    if nsections == 0 {
        return Err(CodecError::Malformed("frame without own section"));
    }
    let (own_origin, per_user) = read_section(&mut r, enc)?;
    if own_origin != site {
        return Err(CodecError::Malformed("own section origin mismatch"));
    }
    let mut relayed = BTreeMap::new();
    for _ in 1..nsections {
        let (origin, cells) = read_section(&mut r, enc)?;
        if relayed.insert(origin, cells).is_some() {
            return Err(CodecError::Malformed("duplicate relayed origin"));
        }
    }
    if r.remaining() != 0 {
        return Err(CodecError::Malformed("trailing bytes"));
    }
    Ok((
        enc,
        UsageSummary {
            site,
            seq,
            slot_s,
            per_user,
            relayed,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(entries: &[(&str, &[(u64, f64)])]) -> UserCells {
        entries
            .iter()
            .map(|(name, slots)| (GridUser::new(*name), slots.iter().copied().collect()))
            .collect()
    }

    fn sample() -> UsageSummary {
        UsageSummary {
            site: SiteId(3),
            seq: 17,
            slot_s: 300.0,
            per_user: cells(&[
                ("u000120", &[(4, 1200.0), (5, 64.5), (9, 0.125)]),
                ("u000121", &[(4, 300.0)]),
                ("vo-atlas", &[(1, 7.75)]),
            ]),
            relayed: [
                (SiteId(7), cells(&[("u000120", &[(4, 60.0)])])),
                (SiteId(9), cells(&[("w", &[(0, 1.0), (1, 2.0)])])),
            ]
            .into_iter()
            .collect(),
        }
    }

    #[test]
    fn round_trip_both_encodings() {
        let s = sample();
        for enc in [Encoding::Dense, Encoding::Delta] {
            let bytes = encode_summary(&s, enc);
            assert_eq!(decode_summary(&bytes), Ok((enc, s.clone())), "{enc:?}");
        }
    }

    #[test]
    fn encoded_size_matches_encoding() {
        let s = sample();
        for enc in [Encoding::Dense, Encoding::Delta] {
            assert_eq!(encoded_size(&s, enc), encode_summary(&s, enc).len());
        }
    }

    #[test]
    fn delta_is_smaller_on_structured_names() {
        let mut per_user = UserCells::new();
        for i in 0..100 {
            per_user.insert(
                GridUser::new(format!("u{i:06}")),
                [(4u64, 300.0 * (i + 1) as f64)].into_iter().collect(),
            );
        }
        let s = UsageSummary {
            site: SiteId(0),
            seq: 1,
            slot_s: 300.0,
            per_user,
            relayed: BTreeMap::new(),
        };
        let dense = encode_summary(&s, Encoding::Dense).len();
        let delta = encode_summary(&s, Encoding::Delta).len();
        assert!(
            (dense as f64) / (delta as f64) >= 3.0,
            "dense {dense} / delta {delta} below 3x"
        );
    }

    #[test]
    fn empty_summary_round_trips() {
        let s = UsageSummary {
            site: SiteId(0),
            seq: 0,
            slot_s: 60.0,
            per_user: UserCells::new(),
            relayed: BTreeMap::new(),
        };
        for enc in [Encoding::Dense, Encoding::Delta] {
            let bytes = encode_summary(&s, enc);
            assert_eq!(decode_summary(&bytes), Ok((enc, s.clone())));
        }
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let s = sample();
        for enc in [Encoding::Dense, Encoding::Delta] {
            let bytes = encode_summary(&s, enc);
            for i in 0..bytes.len() {
                for bit in 0..8 {
                    let mut bad = bytes.clone();
                    bad[i] ^= 1 << bit;
                    assert!(
                        decode_summary(&bad).is_err(),
                        "{enc:?}: flip bit {bit} of byte {i} decoded silently"
                    );
                }
            }
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = encode_summary(&sample(), Encoding::Delta);
        for cut in 0..bytes.len() {
            assert!(decode_summary(&bytes[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn special_values_survive() {
        let s = UsageSummary {
            site: SiteId(1),
            seq: 2,
            slot_s: f64::MIN_POSITIVE,
            per_user: cells(&[("a", &[(u64::MAX - 1, f64::MAX), (u64::MAX, 1e-300)])]),
            relayed: BTreeMap::new(),
        };
        for enc in [Encoding::Dense, Encoding::Delta] {
            let bytes = encode_summary(&s, enc);
            assert_eq!(decode_summary(&bytes), Ok((enc, s.clone())));
        }
    }

    #[test]
    fn crc_check_vector() {
        // The canonical CRC-32/IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn crc_incremental_matches_one_shot() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let mut h = Crc32::new();
        h.update(&data[..10]);
        h.update(&data[10..]);
        assert_eq!(h.finish(), crc32(data));
    }

    #[test]
    fn crc_single_bit_flip_changes_checksum() {
        let mut data = vec![0u8; 64];
        let base = crc32(&data);
        for i in 0..64 {
            for bit in 0..8 {
                data[i] ^= 1 << bit;
                assert_ne!(crc32(&data), base, "flip at byte {i} bit {bit}");
                data[i] ^= 1 << bit;
            }
        }
    }
}
