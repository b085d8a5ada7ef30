//! The byte codec: one checked [`Reader`], one writer ([`Sink`]), one
//! cell-section layout, and the gossip wire frame built from them.
//!
//! Every format that carries usage cells out of a site is written with
//! these primitives: the wire frame below, the USS↔USS messages around it
//! (`aequus-services`, `UssMessage::{encode, decode}`), and the durable WAL
//! records and checkpoints of `aequus-store`, which keep their cells as the
//! same sections. Bytes from outside can be wrong in any way, so every read
//! is bounds-checked, every declared count is held against the bytes
//! actually left before anything is allocated, and a failed read is a
//! [`CodecError`], never a panic.
//!
//! A cell section ([`NamedCells::encode`] / [`decode_cells`]) comes in two
//! encodings. [`Encoding::Dense`] stores every (slot, charge) cell at full
//! fixed width, while [`Encoding::Delta`] exploits the structure the
//! reliable exchange already guarantees (sorted users, sorted slots,
//! numerically tame charge values) with a columnar varint layout:
//! front-coded user names, delta-coded slot indices, and
//! byte-swapped-varint `f64` charges. Both are *exact*: decode reproduces
//! the cells bit for bit, and `wire_bytes`/`wire_size` accounting
//! throughout the simulator is defined as the encoded length, so modeled
//! bytes and profiled bytes cannot diverge.
//!
//! Wire frame layout (all multi-byte integers little-endian or LEB128
//! varint):
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

use crate::arena::UserTable;
use crate::ids::{GridUser, SiteId};
use crate::usage::{CellStore, UsageSummary, UserCells};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

const MAGIC: u8 = 0xA9;
const VERSION: u8 = 1;

/// Wire encoding selector for summary payloads. A transport property — the
/// same [`UsageSummary`] can travel under either encoding; the scenario
/// picks one and every byte counter downstream uses it consistently.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

// --- The writer: one write path serves encoding and exact sizing ------------

/// Where encoded bytes go: a `Vec<u8>` materializes them, the counting sink
/// behind [`encoded_size`] only measures them — the same write path either
/// way, so size and encoding cannot drift apart.
pub trait Sink {
    /// Append one byte.
    fn byte(&mut self, b: u8);
    /// Append a run of bytes as they are.
    fn bytes(&mut self, bs: &[u8]);

    /// A `u32`, little-endian.
    fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u64`, little-endian.
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f64` as its raw IEEE-754 bits, little-endian (bit-exact for every
    /// pattern, NaN included).
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// A LEB128 varint.
    fn varint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7F) as u8;
            v >>= 7;
            if v == 0 {
                return self.byte(b);
            }
            self.byte(b | 0x80);
        }
    }

    /// A `u32`-length-prefixed UTF-8 string.
    fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }
}

impl Sink for Vec<u8> {
    fn byte(&mut self, b: u8) {
        self.push(b);
    }
    fn bytes(&mut self, bs: &[u8]) {
        self.extend_from_slice(bs);
    }
}

struct Count(usize);

impl Sink for Count {
    fn byte(&mut self, _: u8) {
        self.0 += 1;
    }
    fn bytes(&mut self, bs: &[u8]) {
        self.0 += bs.len();
    }
}

// --- The reader --------------------------------------------------------------

/// Bounds-checked cursor over bytes that may be wrong in any way: every
/// method either consumes exactly what it returns or fails with a
/// [`CodecError`]; none panics.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.buf.len() < n {
            return Err(CodecError::Truncated);
        }
        let (out, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(out)
    }

    /// Everything not yet consumed (a nested format that checks itself).
    pub fn rest(&mut self) -> &'a [u8] {
        std::mem::take(&mut self.buf)
    }

    /// `Ok` only when every byte was consumed — canonical encodings carry
    /// no trailing bytes.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(CodecError::Malformed("trailing bytes"))
        }
    }

    /// The next `N` bytes as an array — what `from_le_bytes` wants, with
    /// the length proven by the type instead of by an `expect`.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// One byte that must be `0` or `1`.
    pub fn flag(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Malformed("flag byte is neither 0 nor 1")),
        }
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f64` from its raw little-endian bits.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// A LEB128 varint; encodings longer than a `u64` needs are refused.
    pub fn varint(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
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

    /// `declared` elements of at least `min_bytes` each must fit in what is
    /// left — so a forged count cannot drive allocation or a decode loop.
    fn bounded(&self, declared: u64, min_bytes: usize) -> Result<usize, CodecError> {
        match usize::try_from(declared) {
            Ok(n) if n.saturating_mul(min_bytes.max(1)) <= self.buf.len() => Ok(n),
            _ => Err(CodecError::Malformed("count exceeds input")),
        }
    }

    /// A varint element count, held against `min_bytes` per element.
    pub fn seq_len(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        let declared = self.varint()?;
        self.bounded(declared, min_bytes)
    }

    /// A `u32`-length-prefixed UTF-8 string, borrowed from the input.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError::Malformed("text is not UTF-8"))
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

/// Per-user cells under their names, in name order, as the encoder takes
/// them: `(user, cells[range])` runs over one flat cell vector — a copy of
/// an edge type's [`UserCells`], or of a site's id-keyed [`CellStore`] with
/// the names written back and no per-user map built on the way.
#[derive(Debug, Default)]
pub struct NamedCells<'a> {
    runs: Vec<(&'a GridUser, Range<usize>)>,
    cells: Vec<(u64, f64)>,
}

impl<'a> NamedCells<'a> {
    /// The cells of `store` under the names `users` gave its ids: one pass
    /// over the store (id order is name order over the table's base), and a
    /// sort of the users only when the table holds identities outside it.
    pub fn from_store(store: &CellStore, users: &'a UserTable) -> Self {
        let mut named = Self::default();
        let mut last = None;
        for (user, slot, charge) in store.iter() {
            if last.replace(user) != Some(user) {
                named.open(users.name(user));
            }
            named.push(slot, charge);
        }
        if users.len() > users.base().len() {
            named.runs.sort_by(|a, b| a.0.cmp(b.0));
        }
        named
    }

    /// A flat copy of name-keyed cells (users holding none included).
    pub fn from_cells(cells: &'a UserCells) -> Self {
        let mut named = Self::default();
        for (user, slots) in cells {
            named.open(user);
            slots
                .iter()
                .for_each(|(&slot, &charge)| named.push(slot, charge));
        }
        named
    }

    fn open(&mut self, user: &'a GridUser) {
        self.runs.push((user, self.cells.len()..self.cells.len()));
    }

    fn push(&mut self, slot: u64, charge: f64) {
        self.cells.push((slot, charge));
        if let Some((_, run)) = self.runs.last_mut() {
            run.end = self.cells.len();
        }
    }

    /// `(user, cells in slot order)`, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a GridUser, &[(u64, f64)])> + Clone {
        let runs = self.runs.iter();
        runs.map(|(user, run)| (*user, &self.cells[run.clone()]))
    }

    /// Encode as one section payload under `enc`: a varint user count, then
    /// the encoding's layout.
    pub fn encode<S: Sink>(&self, enc: Encoding, out: &mut S) {
        out.varint(self.runs.len() as u64);
        let cells = || self.iter().flat_map(|(_, cells)| cells);
        match enc {
            Encoding::Dense => {
                // Fixed-width u32 length/count fields and 16-byte cells.
                for (user, cells) in self.iter() {
                    out.str(user.as_str());
                    out.u32(cells.len() as u32);
                    for &(slot, charge) in cells {
                        out.u64(slot);
                        out.f64(charge);
                    }
                }
            }
            Encoding::Delta => {
                // Names column, front-coded against the previous name: grid
                // identities like "u000123" share long prefixes, so most
                // entries shrink to a couple of bytes.
                let mut prev: &[u8] = &[];
                for (user, _) in self.iter() {
                    let name = user.as_str().as_bytes();
                    let shared = common_prefix(prev, name);
                    out.varint(shared as u64);
                    out.varint((name.len() - shared) as u64);
                    out.bytes(&name[shared..]);
                    prev = name;
                }
                // Cell-count column.
                for (_, cells) in self.iter() {
                    out.varint(cells.len() as u64);
                }
                // Slot column: first index absolute, the rest as gaps (sorted
                // and distinct, so every gap is ≥ 1 and typically tiny).
                for (_, cells) in self.iter() {
                    let mut prev_slot = 0;
                    for &(slot, _) in cells {
                        out.varint(slot - prev_slot);
                        prev_slot = slot;
                    }
                }
                // Value column, led by a per-cell bitmap: set bits mark
                // charges that are exactly a small non-negative integer — the
                // common case for accumulated core-seconds — stored as a
                // plain varint of that integer. Clear bits fall back to the
                // `f64` bits byte-swapped then varint-coded (lossless for
                // every bit pattern; the trailing-zero mantissas of dyadic
                // charges become leading zeros the varint drops).
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
    }
}

/// Decode one section payload written by [`NamedCells::encode`] under `enc`.
/// Canonical form is enforced — strictly increasing names and slots — so
/// cells that decode at all re-encode to the identical bytes.
pub fn decode_cells(r: &mut Reader<'_>, enc: Encoding) -> Result<UserCells, CodecError> {
    let mut cells = UserCells::new();
    match enc {
        Encoding::Dense => {
            let nusers = r.seq_len(8)?;
            let mut prev_name = "";
            for _ in 0..nusers {
                let name = r.str()?;
                if !prev_name.is_empty() && name <= prev_name {
                    return Err(CodecError::Malformed("names out of order"));
                }
                let nslots = r.u32()?;
                let nslots = r.bounded(nslots.into(), 16)?;
                let mut slots = BTreeMap::new();
                let mut prev_slot = None;
                for _ in 0..nslots {
                    let slot = r.u64()?;
                    if prev_slot.is_some_and(|p| slot <= p) {
                        return Err(CodecError::Malformed("slots out of order"));
                    }
                    prev_slot = Some(slot);
                    slots.insert(slot, r.f64()?);
                }
                cells.insert(GridUser::new(name), slots);
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
    Ok(cells)
}

// --- Summary body, and the wire frame around it ------------------------------

fn site_id(r: &mut Reader<'_>) -> Result<SiteId, CodecError> {
    u32::try_from(r.varint()?)
        .map(SiteId)
        .map_err(|_| CodecError::Malformed("site exceeds u32"))
}

/// Write a summary's fields and cell sections under `enc`, unframed: the
/// body of the wire frame, and how `aequus-store` journals peer data
/// inside its own CRC framing.
pub fn write_summary<S: Sink>(s: &UsageSummary, enc: Encoding, out: &mut S) {
    out.varint(u64::from(s.site.0));
    out.varint(s.seq);
    out.f64(s.slot_s);
    out.varint(1 + s.relayed.len() as u64);
    for (origin, cells) in std::iter::once((&s.site, &s.per_user)).chain(&s.relayed) {
        out.varint(u64::from(origin.0));
        NamedCells::from_cells(cells).encode(enc, out);
    }
}

/// Read what [`write_summary`] wrote under `enc`.
pub fn read_summary(r: &mut Reader<'_>, enc: Encoding) -> Result<UsageSummary, CodecError> {
    let site = site_id(r)?;
    let seq = r.varint()?;
    let slot_s = r.f64()?;
    let nsections = r.seq_len(2)?;
    if nsections == 0 || site_id(r)? != site {
        return Err(CodecError::Malformed(
            "first section is not the sender's own",
        ));
    }
    let per_user = decode_cells(r, enc)?;
    let mut relayed = BTreeMap::new();
    for _ in 1..nsections {
        if relayed.insert(site_id(r)?, decode_cells(r, enc)?).is_some() {
            return Err(CodecError::Malformed("duplicate relayed origin"));
        }
    }
    Ok(UsageSummary {
        site,
        seq,
        slot_s,
        per_user,
        relayed,
    })
}

fn write_frame<S: Sink>(s: &UsageSummary, enc: Encoding, out: &mut S) {
    out.byte(MAGIC);
    out.byte(VERSION);
    out.byte(enc.tag());
    write_summary(s, enc, out);
}

/// Encode a summary under `enc`, CRC trailer included.
pub fn encode_summary(s: &UsageSummary, enc: Encoding) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_size(s, enc));
    write_frame(s, enc, &mut out);
    let crc = crc32(&out);
    out.u32(crc);
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
    let mut r = Reader::new(buf);
    let body = r.take(buf.len().checked_sub(4).ok_or(CodecError::Truncated)?)?;
    if crc32(body) != r.u32()? {
        return Err(CodecError::Corrupt);
    }
    let mut r = Reader::new(body);
    let magic = r.u8()?;
    if magic != MAGIC {
        return Err(CodecError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(CodecError::BadVersion(version));
    }
    let enc = Encoding::from_tag(r.u8()?)?;
    let summary = read_summary(&mut r, enc)?;
    r.finish()?;
    Ok((enc, summary))
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
    fn reader_and_sink_round_trip_primitives() {
        let mut bytes = Vec::new();
        bytes.byte(7);
        bytes.u32(0xDEAD_BEEF);
        bytes.u64(u64::MAX - 1);
        bytes.f64(-0.0);
        bytes.f64(f64::NAN);
        bytes.varint(u64::MAX);
        bytes.str("grid-user/α");
        bytes.byte(1);
        let mut count = Count(0);
        count.varint(u64::MAX);
        count.str("grid-user/α");
        assert_eq!(count.0, 10 + 4 + 12);

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8(), Ok(7));
        assert_eq!(r.u32(), Ok(0xDEAD_BEEF));
        assert_eq!(r.u64(), Ok(u64::MAX - 1));
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.varint(), Ok(u64::MAX));
        assert_eq!(r.str(), Ok("grid-user/α"));
        assert!(r.finish().is_err(), "one byte is still unread");
        assert_eq!(r.flag(), Ok(true));
        assert_eq!(r.finish(), Ok(()));
        assert_eq!(r.u8(), Err(CodecError::Truncated));
    }

    #[test]
    fn reader_refuses_short_input_and_forged_lengths() {
        let mut bytes = Vec::new();
        bytes.u64(42);
        for cut in 0..bytes.len() {
            assert!(Reader::new(&bytes[..cut]).u64().is_err(), "cut at {cut}");
            assert!(Reader::new(&bytes[..cut]).array::<8>().is_err());
        }
        // A declared length far beyond the input allocates nothing.
        let mut forged = Vec::new();
        forged.u32(u32::MAX);
        forged.bytes(b"abc");
        assert!(Reader::new(&forged).str().is_err());
        let mut forged = Vec::new();
        forged.varint(1_000_000);
        assert!(Reader::new(&forged).seq_len(8).is_err());
        assert!(Reader::new(&[2]).flag().is_err());
        assert!(Reader::new(&[1, 0xFF]).str().is_err());
        let mut not_utf8 = Vec::new();
        not_utf8.u32(2);
        not_utf8.bytes(&[0xC3, 0x28]);
        assert!(Reader::new(&not_utf8).str().is_err());
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
