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
//! A cell section ([`NamedCells::encode`] / [`decode_cells`]) carries each
//! user's cells as the slot-sorted row a site holds them in — the one shape
//! of a user's cells, name-keyed at the edges as [`UserCells`] —
//! in one columnar varint layout that exploits the structure the reliable
//! exchange already guarantees (sorted users, sorted slots, numerically
//! tame charge values): front-coded user names, delta-coded slot indices,
//! and byte-swapped-varint `f64` charges. It is *exact*: decode reproduces
//! the cells bit for bit, and `wire_size` accounting throughout the
//! simulator is the encoded length of a publication's one frame
//! ([`Publication`]), so modeled bytes and profiled bytes cannot diverge.
//! The fixed-width layout it is measured against survives only as a size,
//! [`dense_frame_len`].
//!
//! Wire frame layout (all multi-byte integers little-endian or LEB128
//! varint):
//!
//! ```text
//! magic (0xA9) | version (1) | encoding tag (1)
//! varint site | varint seq | f64 slot_s (8 B LE)
//! varint section count (1 own + one per relayed origin)
//!   section: varint origin site, then the cell payload
//! crc32 (4 B LE, over everything before it)
//! ```
//!
//! The CRC is verified *before* any parsing, so a corrupted frame is
//! rejected outright rather than half-decoded; CRC32 detects every
//! single-bit error by construction (`proptest_codec.rs` exercises this).
//! Decoders also enforce canonical form — strictly increasing user names
//! and slot indices, minimal varints, maximal shared name prefixes, no
//! trailing bytes — so a frame that decodes at all re-encodes to the
//! identical bytes.

use crate::arena::{UserId, UserTable};
use crate::ids::{GridUser, SiteId};
use crate::usage::{UsageSummary, UserCells};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

const MAGIC: u8 = 0xA9;
const VERSION: u8 = 1;
/// The one encoding tag a frame carries: the columnar layout. Tag 0 was the
/// retired fixed-width layout; it and every other tag are refused.
const TAG: u8 = 1;

/// How gossip bytes are counted. Every frame is written in the one columnar
/// layout; the selector only picks which length a byte counter reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Encoding {
    /// The fixed-width yardstick, 16 bytes per (slot, charge) pair plus
    /// names: [`dense_frame_len`], never written.
    Dense,
    /// The length of the frame the codec writes.
    #[default]
    Delta,
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
    /// An encoding tag other than the one the codec writes.
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

/// Slicing-by-8: `[k][b]` is the register after byte `b` and then `k` zero
/// bytes (slice 0 is `crc_table()`), so eight bytes fold with eight lookups.
const fn crc_slices() -> [[u32; 256]; 8] {
    let mut t = [crc_table(); 8];
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][(t[k - 1][i] & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

static CRC_SLICES: [[u32; 256]; 8] = crc_slices();

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

    /// Fold `data` into the running checksum: eight bytes per step, then a
    /// bytewise tail of fewer than eight.
    pub fn update(&mut self, data: &[u8]) {
        let (blocks, tail) = data.as_chunks::<8>();
        let mut c = self.state;
        for block in blocks {
            let v = u64::from_le_bytes(*block) ^ u64::from(c);
            let lane = |k: usize| usize::from((v >> (8 * k)) as u8);
            c = (0..8).fold(0, |acc, k| acc ^ CRC_SLICES[7 - k][lane(k)]);
        }
        for &b in tail {
            c = CRC_SLICES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
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

// --- The writer ---------------------------------------------------------------

/// The primitives every format writes with, appended to a `Vec<u8>`.
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
    fn varint(&mut self, v: u64) {
        let mut b = [0; 10];
        let len = put_varint(&mut b, 0, v);
        self.bytes(&b[..len]);
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

/// Bytes the LEB128 varint of `v` takes: 1 to 10.
#[inline]
fn varint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

/// Write the varint of `v` at `buf[at..]`, returning the index past it. The
/// caller has made room: an index past `buf` is a wrong bound, and panics.
#[inline]
fn put_varint(buf: &mut [u8], mut at: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        buf[at] = v as u8 | 0x80;
        v >>= 7;
        at += 1;
    }
    buf[at] = v as u8;
    at + 1
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

    /// A LEB128 varint in its minimal form: values past a `u64`, and
    /// encodings longer than the value needs (a zero last byte after the
    /// first), are refused.
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
                if b == 0 && shift > 0 {
                    return Err(CodecError::Malformed("overlong varint"));
                }
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(CodecError::Malformed("varint too long"));
            }
        }
    }

    /// A varint element count: that many elements of at least `min_bytes`
    /// each must fit in what is left — so a forged count cannot drive
    /// allocation or a decode loop.
    pub fn seq_len(&mut self, min_bytes: usize) -> Result<usize, CodecError> {
        match usize::try_from(self.varint()?) {
            Ok(n) if n.saturating_mul(min_bytes.max(1)) <= self.buf.len() => Ok(n),
            _ => Err(CodecError::Malformed("count exceeds input")),
        }
    }

    /// A `u32`-length-prefixed UTF-8 string, borrowed from the input.
    pub fn str(&mut self) -> Result<&'a str, CodecError> {
        let len = self.u32()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| CodecError::Malformed("text is not UTF-8"))
    }
}

// --- Section payloads ------------------------------------------------------

#[inline]
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// `Some(x)` when `charge` is bit-exactly the non-negative integer `x`
/// below 2^53 (so `x as f64` reproduces it losslessly), `None` otherwise —
/// in particular for `-0.0`, `NaN`, negatives, and fractional values.
#[inline]
fn integral_value(charge: f64) -> Option<u64> {
    if !(0.0..9_007_199_254_740_992.0).contains(&charge) {
        return None;
    }
    let x = charge as u64;
    ((x as f64).to_bits() == charge.to_bits()).then_some(x)
}

/// Per-user rows under their names, in name order, as the encoder takes
/// them: one `(name, &row)` pair per user over slot-sorted rows that stay
/// where they are — a site's id-keyed histogram or mirror with the names
/// written back, or an edge type's [`UserCells`].
#[derive(Debug)]
pub struct NamedCells<'a> {
    rows: Vec<(&'a GridUser, &'a [(u64, f64)])>,
}

impl<'a> NamedCells<'a> {
    /// Id-keyed `rows`, in id order, under the names `users` gave their
    /// ids (id order is name order over the table's base), sorted by name
    /// only when the table holds identities outside it.
    pub fn from_rows(
        rows: impl Iterator<Item = (UserId, &'a [(u64, f64)])>,
        users: &'a UserTable,
    ) -> Self {
        let mut rows: Vec<_> = rows.map(|(user, row)| (users.name(user), row)).collect();
        if users.len() > users.base().len() {
            rows.sort_by(|a, b| a.0.cmp(b.0));
        }
        Self { rows }
    }

    /// Name-keyed cells (users holding none included).
    pub fn from_cells(cells: &'a UserCells) -> Self {
        let rows = cells.iter().map(|(user, row)| (user, row.as_slice()));
        Self {
            rows: rows.collect(),
        }
    }

    /// `(user, row)`, in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'a GridUser, &'a [(u64, f64)])> + Clone + '_ {
        self.rows.iter().copied()
    }

    /// Encode as one section payload: a varint user count, then the
    /// columnar layout, written by index into room made once for the
    /// longest each column can be, then cut to what was written: a name's
    /// two varints are at most as long as its length's, no slot gap of a
    /// row is longer than the varint of the row's span, and a value takes
    /// at most 10 bytes. The names and count columns take one pass each;
    /// the slot, bitmap and value columns one more between them, the bitmap
    /// and values staged past the slot column's room and moved down behind
    /// it.
    pub fn encode(&self, out: &mut Vec<u8>) {
        let rows = &self.rows;
        let (mut heads, mut slot_room, mut cells) = (varint_len(rows.len() as u64), 0, 0);
        for (user, row) in rows {
            let (len, n) = (user.as_str().len(), row.len());
            let first = row.first().map_or(0, |c| c.0);
            let last = row.last().map_or(first, |c| c.0);
            heads += 2 * varint_len(len as u64) + len + varint_len(n as u64);
            slot_room += varint_len(first) + n.saturating_sub(1) * varint_len(last - first);
            cells += n;
        }
        let bitmap_len = cells.div_ceil(8);
        let start = out.len();
        out.resize(start + heads + slot_room + bitmap_len + 10 * cells, 0);
        let buf = &mut out[start..];
        let mut at = put_varint(buf, 0, rows.len() as u64);
        // Names column, front-coded against the previous name: grid
        // identities like "u000123" share long prefixes, so most entries
        // shrink to a couple of bytes.
        let mut prev: &[u8] = &[];
        for (user, _) in rows {
            let name = user.as_str().as_bytes();
            let shared = common_prefix(prev, name);
            let suffix = &name[shared..];
            at = put_varint(buf, at, shared as u64);
            at = put_varint(buf, at, suffix.len() as u64);
            buf[at..at + suffix.len()].copy_from_slice(suffix);
            at += suffix.len();
            prev = name;
        }
        // Cell-count column.
        for (_, row) in rows {
            at = put_varint(buf, at, row.len() as u64);
        }
        // Slot column: first index absolute, the rest as gaps (sorted and
        // distinct, so every gap is ≥ 1 and typically tiny). Then the value
        // column, led by a per-cell bitmap (bit i of byte i / 8 for cell i):
        // set bits mark charges that are exactly a small non-negative
        // integer — the common case for accumulated core-seconds — stored
        // as a plain varint of that integer. Clear bits fall back to the
        // `f64` bits byte-swapped then varint-coded (lossless for every bit
        // pattern; the trailing-zero mantissas of dyadic charges become
        // leading zeros the varint drops).
        let (slots, staged) = buf[at..].split_at_mut(slot_room);
        let (bitmap, values) = staged.split_at_mut(bitmap_len);
        let (mut slots_end, mut values_end, mut bit) = (0, 0, 0);
        for (_, row) in rows {
            let mut prev_slot = 0;
            for &(slot, charge) in *row {
                slots_end = put_varint(slots, slots_end, slot - prev_slot);
                prev_slot = slot;
                let v = match integral_value(charge) {
                    Some(x) => {
                        bitmap[bit / 8] |= 1 << (bit % 8);
                        x
                    }
                    None => charge.to_bits().swap_bytes(),
                };
                values_end = put_varint(values, values_end, v);
                bit += 1;
            }
        }
        let staged = at + slot_room..at + slot_room + bitmap_len + values_end;
        buf.copy_within(staged, at + slots_end);
        out.truncate(start + at + slots_end + bitmap_len + values_end);
    }
}

/// Decode one section payload written by [`NamedCells::encode`]. Canonical
/// form is enforced — strictly increasing names and slots, minimal varints
/// ([`Reader::varint`]), maximal shared name prefixes — so cells that decode
/// at all re-encode to the identical bytes.
pub fn decode_cells(r: &mut Reader<'_>) -> Result<UserCells, CodecError> {
    let nusers = r.seq_len(2)?;
    let mut names = Vec::with_capacity(nusers);
    let mut prev = Vec::new();
    for i in 0..nusers {
        let shared = r.varint()? as usize;
        if shared > prev.len() {
            return Err(CodecError::Malformed("shared prefix exceeds previous name"));
        }
        let suffix_len = r.seq_len(1)?;
        let mut name = prev[..shared].to_vec();
        name.extend_from_slice(r.take(suffix_len)?);
        if i > 0 && name <= prev {
            return Err(CodecError::Malformed("names out of order"));
        }
        if common_prefix(&prev, &name) != shared {
            return Err(CodecError::Malformed("shared prefix is not maximal"));
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
    if !total_cells.is_multiple_of(8) && bitmap.last().is_some_and(|b| b >> (total_cells % 8) != 0)
    {
        return Err(CodecError::Malformed("bitmap padding bits set"));
    }
    let (mut cells, mut bit) = (UserCells::new(), 0usize);
    for (user, slots) in names.into_iter().zip(slot_columns) {
        let mut row = Vec::with_capacity(slots.len());
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
            row.push((slot, charge));
        }
        cells.insert(user, row);
    }
    Ok(cells)
}

// --- Summary body, and the wire frame around it ------------------------------

fn site_id(r: &mut Reader<'_>) -> Result<SiteId, CodecError> {
    u32::try_from(r.varint()?)
        .map(SiteId)
        .map_err(|_| CodecError::Malformed("site exceeds u32"))
}

/// Write a summary's fields and cell sections, unframed: the body of the
/// wire frame, and how `aequus-store` journals peer data inside its own CRC
/// framing.
pub fn write_summary(s: &UsageSummary, out: &mut Vec<u8>) {
    out.varint(u64::from(s.site.0));
    out.varint(s.seq);
    out.f64(s.slot_s);
    out.varint(1 + s.relayed.len() as u64);
    for (origin, cells) in std::iter::once((&s.site, &s.per_user)).chain(&s.relayed) {
        out.varint(u64::from(origin.0));
        NamedCells::from_cells(cells).encode(out);
    }
}

/// Read what [`write_summary`] wrote.
pub fn read_summary(r: &mut Reader<'_>) -> Result<UsageSummary, CodecError> {
    let site = site_id(r)?;
    let seq = r.varint()?;
    let slot_s = r.f64()?;
    let nsections = r.seq_len(2)?;
    if nsections == 0 || site_id(r)? != site {
        return Err(CodecError::Malformed(
            "first section is not the sender's own",
        ));
    }
    let per_user = decode_cells(r)?;
    let mut relayed = BTreeMap::new();
    for _ in 1..nsections {
        if relayed.insert(site_id(r)?, decode_cells(r)?).is_some() {
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

/// Encode a summary, CRC trailer included.
pub fn encode_summary(s: &UsageSummary) -> Vec<u8> {
    let mut out = vec![MAGIC, VERSION, TAG];
    write_summary(s, &mut out);
    let crc = crc32(&out);
    out.u32(crc);
    out
}

/// The length of the frame a fixed-width cell layout gives `s`: the
/// yardstick the codec's bytes are compared against. Framing, then per
/// section a varint origin and user count, then per user a `u32`-prefixed
/// name, a `u32` cell count and 16 bytes per cell, then the CRC.
pub fn dense_frame_len(s: &UsageSummary) -> u64 {
    let varint = |v: u64| varint_len(v) as u64;
    let head = 3 + varint(s.site.0.into()) + varint(s.seq) + 8;
    let mut len = head + varint(1 + s.relayed.len() as u64) + 4;
    for (origin, cells) in std::iter::once((&s.site, &s.per_user)).chain(&s.relayed) {
        len += varint(origin.0.into()) + varint(cells.len() as u64);
        for (user, row) in cells {
            len += 8 + user.as_str().len() as u64 + 16 * row.len() as u64;
        }
    }
    len
}

/// A summary as it travels, with its frame: encoded when first asked for,
/// then shared by every send, retry, resync answer and journal of the
/// publication. The frame is not part of the value: equality and hashing
/// read the summary alone, a clone starts without it, and mutable access
/// drops it, so the frame is always what [`encode_summary`] writes for the
/// summary as it stands.
pub struct Publication {
    summary: UsageSummary,
    frame: OnceLock<Vec<u8>>,
}

impl Publication {
    /// `summary`, not yet encoded.
    pub fn new(summary: UsageSummary) -> Self {
        Self {
            summary,
            frame: OnceLock::new(),
        }
    }

    /// [`encode_summary`] of the summary, encoded once.
    pub fn frame(&self) -> &[u8] {
        self.frame.get_or_init(|| encode_summary(&self.summary))
    }

    /// [`write_summary`] of the summary: the frame without its three-byte
    /// head and CRC trailer.
    pub fn body(&self) -> &[u8] {
        let frame = self.frame();
        frame
            .get(3..frame.len().saturating_sub(4))
            .unwrap_or_default()
    }
}

impl std::ops::Deref for Publication {
    type Target = UsageSummary;
    fn deref(&self) -> &UsageSummary {
        &self.summary
    }
}

impl std::ops::DerefMut for Publication {
    fn deref_mut(&mut self) -> &mut UsageSummary {
        self.frame = OnceLock::new();
        &mut self.summary
    }
}

impl Clone for Publication {
    fn clone(&self) -> Self {
        Self::new(self.summary.clone())
    }
}

impl PartialEq for Publication {
    fn eq(&self, other: &Self) -> bool {
        self.summary == other.summary
    }
}

impl std::hash::Hash for Publication {
    fn hash<H: std::hash::Hasher>(&self, h: &mut H) {
        self.summary.hash(h);
    }
}

impl fmt::Debug for Publication {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.summary.fmt(f)
    }
}

impl From<UsageSummary> for Arc<Publication> {
    fn from(summary: UsageSummary) -> Self {
        Arc::new(Publication::new(summary))
    }
}

/// Decode a frame back into its summary. The CRC is checked before anything
/// is parsed; every error leaves no partial result.
pub fn decode_summary(buf: &[u8]) -> Result<UsageSummary, CodecError> {
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
    let tag = r.u8()?;
    if tag != TAG {
        return Err(CodecError::BadEncoding(tag));
    }
    let summary = read_summary(&mut r)?;
    r.finish()?;
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cells(entries: &[(&str, &[(u64, f64)])]) -> UserCells {
        entries
            .iter()
            .map(|(name, slots)| (GridUser::new(*name), slots.to_vec()))
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
    fn round_trip() {
        let s = sample();
        assert_eq!(decode_summary(&encode_summary(&s)), Ok(s));
    }

    #[test]
    fn a_publication_frames_its_summary_as_it_stands() {
        let mut p = Publication::new(sample());
        assert_eq!(p.frame(), encode_summary(&sample()));
        let mut body = Vec::new();
        write_summary(&sample(), &mut body);
        assert_eq!(p.body(), body);
        let (clone, frame) = (p.clone(), p.frame().to_vec());
        p.seq += 1;
        assert_ne!(p.frame(), frame, "a mutation drops the frame");
        assert_eq!(p.frame(), encode_summary(&p));
        assert_eq!(clone.frame(), frame);
        assert_eq!(clone, Publication::new(sample()));
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
        let dense = dense_frame_len(&s);
        let delta = encode_summary(&s).len();
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
        assert_eq!(decode_summary(&encode_summary(&s)), Ok(s));
    }

    #[test]
    fn every_single_bit_flip_is_rejected() {
        let bytes = encode_summary(&sample());
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(
                    decode_summary(&bad).is_err(),
                    "flip bit {bit} of byte {i} decoded silently"
                );
            }
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let bytes = encode_summary(&sample());
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
        assert_eq!(decode_summary(&encode_summary(&s)), Ok(s));
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
        for v in [0, 127, 128, 1 << 35, u64::MAX] {
            let mut one = Vec::new();
            one.varint(v);
            assert_eq!(varint_len(v), one.len(), "{v}");
            let mut at = vec![0xEE; one.len()];
            assert_eq!(put_varint(&mut at, 0, v), one.len());
            assert_eq!(at, one);
        }

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

        // Non-canonical forms are forgeries too: each re-encodes to other
        // bytes, so none may decode.
        fn malformed<T>(r: Result<T, CodecError>) -> bool {
            matches!(r, Err(CodecError::Malformed(_)))
        }
        assert!(
            malformed(Reader::new(&[0x85, 0x00]).varint()),
            "5, overlong"
        );
        assert!(malformed(Reader::new(&[0x80, 0x80, 0x00]).varint()));
        assert_eq!(Reader::new(&[0x00]).varint(), Ok(0));
        let section = |bytes: &[u8]| malformed(decode_cells(&mut Reader::new(bytes)));
        // Two users both named "": one would swallow the other.
        let twins = [2, 0, 0, 0, 0, 1, 1, 0, 0, 0b11, 1, 2];
        assert!(section(&twins), "two users named \"\"");
        // "ab", "ac" with nothing shared but the prefix "ab" has with "ac".
        let short = [2, 0, 2, b'a', b'b', 0, 2, b'a', b'c', 0, 0];
        assert!(section(&short), "a shared prefix not maximal");
        let mut canonical = Vec::new();
        let names = cells(&[("ab", &[]), ("ac", &[])]);
        NamedCells::from_cells(&names).encode(&mut canonical);
        assert_eq!(canonical, [2, 0, 2, b'a', b'b', 1, 1, b'c', 0, 0]);
    }

    #[test]
    fn crc32_is_the_zlib_check_value() {
        // CRC-32/IEEE as zlib computes it: reflected 0xEDB88320, initial
        // value and final xor 0xFFFFFFFF.
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
