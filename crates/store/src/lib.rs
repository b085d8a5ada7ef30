//! # aequus-store
//!
//! Durable per-site state for the Aequus services: a segmented,
//! CRC32-framed append-only write-ahead log plus alternating checkpoint
//! snapshots, with crash-consistent replay — torn tails are truncated,
//! corrupt frames are skipped and reported, and WAL segments are compacted
//! once a checkpoint covers them both by LSN *and* by gossip sequence
//! number (so anti-entropy can always rebuild what the checkpoint hasn't
//! absorbed).
//!
//! The paper's services were long-running daemons whose histograms and
//! exchange cursors had to survive restarts; this crate supplies that
//! durability layer for the reproduction, over one deterministic in-memory
//! disk ([`MemStorage`]) whose operations cannot fail. Format damage is
//! the only trouble a store meets, and replay repairs and reports it
//! ([`ReplayReport`]) rather than returning an error.
//!
//! Layering: [`SiteStore`] (facade) → [`wal`] / [`checkpoint`] (formats) →
//! [`MemStorage`] (the disk). The formats own their framing — the WAL's
//! skip-by-length header, the checkpoint's version byte — and nothing
//! below it: every byte is written and read with `aequus_core::codec`'s
//! `Sink` and `Reader`, and usage cells are stored as that codec's cell
//! sections, the same layout gossip carries. Logical content is defined by
//! [`WalRecord`] and [`CheckpointState`]; the services layer decides *what*
//! to journal and how to re-apply it (see `aequus-services`).

#![warn(missing_docs)]

pub mod checkpoint;
pub mod records;
pub mod storage;
pub mod store;
pub mod wal;

pub use checkpoint::{CheckpointState, CheckpointView, PeerCursor};
pub use records::WalRecord;
pub use storage::MemStorage;
pub use store::{Recovered, SiteStore, StoreConfig, StoreStats};
pub use wal::ReplayReport;
