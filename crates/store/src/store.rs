//! The per-site store facade: one [`SiteStore`] owns the [`MemStorage`]
//! holding both the segmented WAL and the two checkpoint slots, tracks
//! [`StoreStats`], and mirrors them into the telemetry registry, so a
//! site's snapshot carries them with every other metric.

use crate::checkpoint::{load_slots, write_next, CheckpointState, CheckpointView};
use crate::records::WalRecord;
use crate::storage::MemStorage;
use crate::wal::{encode_frame, ReplayReport, Wal, HEADER_LEN, KIND_RECORD};
use aequus_core::ids::SiteId;
use aequus_telemetry::{Counter, Gauge, Histogram, Telemetry};
use std::collections::BTreeMap;
use std::time::Instant;

/// Durable-store tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoreConfig {
    /// Roll the active WAL segment past this many bytes.
    pub segment_bytes: u64,
    /// Cut a checkpoint (and compact covered segments) at this cadence.
    pub checkpoint_interval_s: f64,
}

impl Default for StoreConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 64 * 1024,
            checkpoint_interval_s: 300.0,
        }
    }
}

/// Cumulative store health counters (all monotonic except the byte gauges).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Record frames appended to the WAL.
    pub frames_appended: u64,
    /// Record frames recovered by replay.
    pub frames_replayed: u64,
    /// Torn tails detected and truncated during replay.
    pub torn_tails: u64,
    /// Corrupt frames skipped (CRC mismatch / undecodable payload).
    pub corrupt_frames: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// WAL segments reclaimed by compaction.
    pub compacted_segments: u64,
    /// Size of the latest checkpoint, bytes.
    pub checkpoint_bytes: u64,
    /// Live WAL bytes across all segments.
    pub wal_bytes: u64,
    /// Recovered checkpoints the site refused to install (a cell that is
    /// not a charge, another site's or another binning's state); recovery
    /// falls back to the older slot and replays the WAL past the one it
    /// installs. The store decodes, the site judges and counts.
    pub refused_checkpoints: u64,
}

impl StoreStats {
    /// Combine stats across store incarnations (the store is re-opened over
    /// the surviving disk after a crash): monotone counters sum, while
    /// the byte gauges reflect only the current incarnation.
    pub fn across_restart(base: Self, current: Self) -> Self {
        Self {
            frames_appended: base.frames_appended + current.frames_appended,
            frames_replayed: base.frames_replayed + current.frames_replayed,
            torn_tails: base.torn_tails + current.torn_tails,
            corrupt_frames: base.corrupt_frames + current.corrupt_frames,
            checkpoints: base.checkpoints + current.checkpoints,
            compacted_segments: base.compacted_segments + current.compacted_segments,
            checkpoint_bytes: current.checkpoint_bytes,
            wal_bytes: current.wal_bytes,
            refused_checkpoints: base.refused_checkpoints + current.refused_checkpoints,
        }
    }

    fn absorb_report(&mut self, r: &ReplayReport) {
        self.frames_replayed += r.frames_replayed;
        self.torn_tails += r.torn_tails;
        self.corrupt_frames += r.corrupt_frames;
    }
}

/// Pre-registered telemetry handles (disabled handles are free no-ops, so
/// the struct exists unconditionally).
#[derive(Debug, Default)]
struct StoreMetrics {
    c_appended: Counter,
    c_replayed: Counter,
    c_torn: Counter,
    c_corrupt: Counter,
    c_checkpoints: Counter,
    c_compacted: Counter,
    g_checkpoint_bytes: Gauge,
    g_wal_bytes: Gauge,
    /// Wall seconds per WAL append (profiler `wal.append` stage).
    h_append: Histogram,
    /// Wall seconds per WAL replay at open (profiler `wal.replay` stage).
    h_replay: Histogram,
    /// Wall seconds per checkpoint: encode, slot write and compaction.
    h_checkpoint: Histogram,
}

impl StoreMetrics {
    fn wire(t: &Telemetry) -> Self {
        Self {
            c_appended: t.counter("aequus_store_frames_appended_total"),
            c_replayed: t.counter("aequus_store_frames_replayed_total"),
            c_torn: t.counter("aequus_store_torn_tails_total"),
            c_corrupt: t.counter("aequus_store_corrupt_frames_total"),
            c_checkpoints: t.counter("aequus_store_checkpoints_total"),
            c_compacted: t.counter("aequus_store_compacted_segments_total"),
            g_checkpoint_bytes: t.gauge("aequus_store_checkpoint_bytes"),
            g_wal_bytes: t.gauge("aequus_store_wal_bytes"),
            h_append: t.histogram("aequus_store_wal_append_s"),
            h_replay: t.histogram("aequus_store_wal_replay_s"),
            h_checkpoint: t.histogram("aequus_store_checkpoint_s"),
        }
    }
}

/// What [`SiteStore::open`] recovered from the disk.
#[derive(Debug)]
pub struct Recovered {
    /// The valid checkpoints, newest (highest LSN) first. A site installs
    /// the first it accepts and replays the records past that one's LSN.
    pub checkpoints: Vec<CheckpointState>,
    /// Every surviving WAL record, LSN ascending — those a checkpoint
    /// covers too: which of them replay depends on the one installed.
    pub records: Vec<(u64, WalRecord)>,
    /// Damage found and repaired during replay.
    pub report: ReplayReport,
}

/// What one checkpoint slot covers, as WAL compaction reads it: its LSN,
/// its publish cursor and its per-peer gossip cursors. The default covers
/// nothing.
#[derive(Debug, Default)]
struct Cover {
    lsn: u64,
    publish_seq: u64,
    peer_seqs: BTreeMap<SiteId, u64>,
}

impl Cover {
    fn of(state: &CheckpointState) -> Self {
        Self {
            lsn: state.lsn,
            publish_seq: state.next_seq.saturating_sub(1),
            peer_seqs: state.peer_seq_cursors(),
        }
    }
}

/// The durable per-site store: WAL + alternating checkpoint slots on one
/// disk.
#[derive(Debug)]
pub struct SiteStore {
    storage: MemStorage,
    wal: Wal,
    cfg: StoreConfig,
    /// Slot holding the latest good checkpoint.
    current_slot: Option<usize>,
    /// What each slot's checkpoint covers (default while a slot holds none).
    covers: [Cover; 2],
    stats: StoreStats,
    metrics: StoreMetrics,
    /// Wall seconds the WAL replay at open took. Held here (not in the
    /// `Eq`-comparable [`StoreStats`]) until telemetry is wired, which
    /// records it into `aequus_store_wal_replay_s` exactly once.
    replay_wall_s: f64,
}

impl SiteStore {
    /// Open (or create) a store over `storage`: replays the WAL, repairs
    /// crash damage, loads the best checkpoint, and returns the store plus
    /// everything the services layer must re-apply.
    pub fn open(mut storage: MemStorage, cfg: StoreConfig) -> (Self, Recovered) {
        let replay_start = Instant::now();
        let (wal, all_records, report) = Wal::replay(&mut storage, cfg.segment_bytes);
        let replay_wall_s = replay_start.elapsed().as_secs_f64();
        let slots = load_slots(&storage);
        let covers = slots.each_ref().map(|s| {
            s.as_ref()
                .map_or_else(Cover::default, |(state, _)| Cover::of(state))
        });
        // Newest first; on equal LSNs the first slot leads.
        let mut loaded: Vec<(usize, CheckpointState, u64)> = (0..)
            .zip(slots)
            .filter_map(|(i, s)| s.map(|(state, bytes)| (i, state, bytes)))
            .collect();
        loaded.sort_by_key(|(_, state, _)| std::cmp::Reverse(state.lsn));
        let current_slot = loaded.first().map(|(slot, _, _)| *slot);
        let checkpoint_bytes = loaded.first().map_or(0, |(_, _, bytes)| *bytes);
        let checkpoints = loaded.into_iter().map(|(_, state, _)| state).collect();

        let mut stats = StoreStats {
            checkpoint_bytes,
            wal_bytes: wal.bytes(),
            ..StoreStats::default()
        };
        stats.absorb_report(&report);

        (
            Self {
                storage,
                wal,
                cfg,
                current_slot,
                covers,
                stats,
                metrics: StoreMetrics::default(),
                replay_wall_s,
            },
            Recovered {
                checkpoints,
                records: all_records,
                report,
            },
        )
    }

    /// The store's configuration.
    pub fn config(&self) -> StoreConfig {
        self.cfg
    }

    /// Wire the store's counters/gauges into `telemetry`, carrying forward
    /// totals accumulated before wiring (e.g. replay damage found at open).
    pub fn set_telemetry(&mut self, telemetry: &Telemetry) {
        let m = StoreMetrics::wire(telemetry);
        m.c_appended.add(self.stats.frames_appended);
        m.c_replayed.add(self.stats.frames_replayed);
        m.c_torn.add(self.stats.torn_tails);
        m.c_corrupt.add(self.stats.corrupt_frames);
        m.c_checkpoints.add(self.stats.checkpoints);
        m.c_compacted.add(self.stats.compacted_segments);
        m.g_checkpoint_bytes.set(self.stats.checkpoint_bytes as f64);
        m.g_wal_bytes.set(self.stats.wal_bytes as f64);
        m.h_replay.record(self.replay_wall_s);
        self.metrics = m;
    }

    /// Journal one record; returns its LSN.
    pub fn append(&mut self, rec: &WalRecord) -> u64 {
        let timer = self.metrics.h_append.start_timer();
        let lsn = self.wal.append(&mut self.storage, rec);
        timer.observe();
        self.stats.frames_appended += 1;
        self.stats.wal_bytes = self.wal.bytes();
        self.metrics.c_appended.inc();
        self.metrics.g_wal_bytes.set(self.stats.wal_bytes as f64);
        lsn
    }

    /// LSN the next append will receive; `state.lsn` for a checkpoint
    /// cut *now* is `next_lsn() - 1` (everything appended so far).
    pub fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// Write `state` to the alternate checkpoint slot, then compact the WAL
    /// segments the *other* slot covers too (by LSN and by gossip
    /// sequence): a site that refuses this checkpoint at its next recovery
    /// falls back to the other one and still finds every record past it.
    pub fn checkpoint(&mut self, state: &CheckpointView<'_>) {
        let _span = self.metrics.h_checkpoint.start_timer();
        let (slot, bytes) = write_next(&mut self.storage, state, self.current_slot);
        self.current_slot = Some(slot);
        self.covers[slot] = Cover::of(&state.head);
        self.stats.checkpoints += 1;
        self.stats.checkpoint_bytes = bytes;
        self.metrics.c_checkpoints.inc();
        self.metrics.g_checkpoint_bytes.set(bytes as f64);

        let older = &self.covers[1 - slot];
        let removed = self.wal.compact(
            &mut self.storage,
            older.lsn,
            older.publish_seq,
            &older.peer_seqs,
        );
        self.stats.compacted_segments += removed;
        self.stats.wal_bytes = self.wal.bytes();
        self.metrics.c_compacted.add(removed);
        self.metrics.g_wal_bytes.set(self.stats.wal_bytes as f64);
    }

    /// Simulate the write in flight at the instant of a crash: append a
    /// deterministic partial frame (header promising more payload than
    /// follows) to the active segment. The next [`SiteStore::open`] must
    /// truncate it as a torn tail, losing nothing that was fully appended.
    pub fn simulate_torn_write(&mut self, salt: u64) {
        // splitmix64-style junk: deterministic per salt, looks like data.
        let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        let mut junk_payload = [0u8; 24];
        for chunk in junk_payload.chunks_mut(8) {
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            chunk.copy_from_slice(&x.to_le_bytes());
        }
        // Frame a 4x larger payload, then deliver only the first part: the
        // header's declared length extends past end-of-segment on replay.
        let full = encode_frame(
            KIND_RECORD,
            &[junk_payload, junk_payload, junk_payload, junk_payload].concat(),
        );
        let torn = &full[..HEADER_LEN + junk_payload.len()];
        self.wal.append_torn_tail(&mut self.storage, torn);
        self.stats.wal_bytes = self.wal.bytes();
        self.metrics.g_wal_bytes.set(self.stats.wal_bytes as f64);
    }

    /// Current health counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Consume the store, yielding its disk — the simulator's "disk that
    /// survives the crash", re-opened on recovery.
    pub fn into_storage(self) -> MemStorage {
        self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_core::ids::{GridUser, JobId, SiteId};
    use aequus_core::usage::UsageRecord;

    fn usage(job: u64) -> WalRecord {
        WalRecord::Usage(UsageRecord {
            job: JobId(job),
            user: GridUser::new("U65"),
            site: SiteId(1),
            cores: 1,
            start_s: 0.0,
            end_s: 30.0,
        })
    }

    fn reopen(store: SiteStore) -> (SiteStore, Recovered) {
        let cfg = store.config();
        SiteStore::open(store.into_storage(), cfg)
    }

    #[test]
    fn open_append_reopen_replays_everything() {
        let (mut store, rec0) = SiteStore::open(MemStorage::new(), StoreConfig::default());
        assert!(rec0.checkpoints.is_empty() && rec0.records.is_empty());
        for j in 0..10 {
            store.append(&usage(j));
        }
        let (_, recovered) = reopen(store);
        assert_eq!(recovered.records.len(), 10);
        assert_eq!(recovered.report.frames_replayed, 10);
    }

    #[test]
    fn compaction_keeps_every_record_the_older_slot_needs() {
        let cfg = StoreConfig {
            segment_bytes: 128,
            ..StoreConfig::default()
        };
        let (mut store, _) = SiteStore::open(MemStorage::new(), cfg);
        let cut = |store: &mut SiteStore| {
            let ckpt = CheckpointState {
                lsn: store.next_lsn() - 1,
                site: SiteId(1),
                slot_s: 60.0,
                next_seq: 1,
                ..CheckpointState::default()
            };
            store.checkpoint(&ckpt.view());
        };
        for j in 0..20 {
            store.append(&usage(j));
        }
        cut(&mut store);
        assert_eq!(store.stats().compacted_segments, 0, "no older slot yet");
        for j in 20..40 {
            store.append(&usage(j));
        }
        cut(&mut store);
        let stats = store.stats();
        assert!(stats.compacted_segments > 0, "{stats:?}");
        assert_eq!(stats.checkpoints, 2);
        assert!(stats.checkpoint_bytes > 0);

        // Two fresh records; reopen yields both checkpoints, newest first,
        // and every record past the older one.
        store.append(&usage(100));
        store.append(&usage(101));
        let (_, recovered) = reopen(store);
        let lsns: Vec<u64> = recovered.checkpoints.iter().map(|c| c.lsn).collect();
        assert_eq!(lsns, [40, 20]);
        assert!(recovered.records.len() < 42, "what both cover is compacted");
        let jobs: Vec<u64> = (recovered.records.iter())
            .filter(|(lsn, _)| *lsn > 20)
            .filter_map(|(_, r)| match r {
                WalRecord::Usage(u) => Some(u.job.0),
                _ => None,
            })
            .collect();
        assert_eq!(jobs, (20..40).chain([100, 101]).collect::<Vec<_>>());
    }

    #[test]
    fn torn_write_loses_at_most_the_partial_frame() {
        let (mut store, _) = SiteStore::open(MemStorage::new(), StoreConfig::default());
        for j in 0..7 {
            store.append(&usage(j));
        }
        store.simulate_torn_write(0xDEAD);
        let (store, recovered) = reopen(store);
        assert_eq!(recovered.records.len(), 7, "all real frames survive");
        assert_eq!(recovered.report.torn_tails, 1);
        assert_eq!(store.stats().torn_tails, 1);
    }

    #[test]
    fn telemetry_carries_pre_wiring_totals() {
        let (mut store, _) = SiteStore::open(MemStorage::new(), StoreConfig::default());
        for j in 0..3 {
            store.append(&usage(j));
        }
        store.simulate_torn_write(1);
        let (mut store, _) = reopen(store);

        let t = Telemetry::enabled();
        store.set_telemetry(&t);
        store.append(&usage(9));
        let snap = t.snapshot().unwrap();
        assert_eq!(
            snap.counters.get("aequus_store_frames_replayed_total"),
            Some(&3)
        );
        assert_eq!(snap.counters.get("aequus_store_torn_tails_total"), Some(&1));
        assert_eq!(
            snap.counters.get("aequus_store_frames_appended_total"),
            Some(&1),
            "appends before wiring happened in the previous incarnation"
        );
        assert!(
            snap.gauges
                .get("aequus_store_wal_bytes")
                .copied()
                .unwrap_or(0.0)
                > 0.0
        );
        // The WAL service timings feed the profiler's wal.* stages: replay
        // is recorded exactly once per open, appends per call.
        assert_eq!(snap.histograms["aequus_store_wal_replay_s"].count, 1);
        assert_eq!(snap.histograms["aequus_store_wal_append_s"].count, 1);
        let ckpt = CheckpointState {
            lsn: store.next_lsn() - 1,
            site: SiteId(1),
            slot_s: 60.0,
            ..CheckpointState::default()
        };
        store.checkpoint(&ckpt.view());
        let snap = t.snapshot().unwrap();
        assert_eq!(snap.histograms["aequus_store_checkpoint_s"].count, 1);
    }
}
