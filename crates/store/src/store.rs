//! The per-site store facade: one [`SiteStore`] owns a [`Storage`] backend
//! holding both the segmented WAL and the two checkpoint slots, tracks
//! [`StoreStats`], and mirrors them into the telemetry registry so the
//! Prometheus/JSON exporters pick them up with every other metric.

use crate::checkpoint::{load_best, write_next, CheckpointState, CheckpointView};
use crate::records::WalRecord;
use crate::storage::Storage;
use crate::wal::{encode_frame, ReplayReport, Wal, HEADER_LEN, KIND_RECORD};
use crate::StoreError;
use aequus_telemetry::{Counter, Gauge, Histogram, Telemetry};
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
}

impl StoreStats {
    /// Combine stats across store incarnations (the store is re-opened over
    /// the surviving backend after a crash): monotone counters sum, while
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
        }
    }
}

/// What [`SiteStore::open`] recovered from the backend.
#[derive(Debug)]
pub struct Recovered {
    /// Best valid checkpoint, if any slot held one.
    pub checkpoint: Option<CheckpointState>,
    /// Surviving WAL records *past* the checkpoint (LSN ascending); records
    /// the checkpoint already folds in are filtered out.
    pub records: Vec<(u64, WalRecord)>,
    /// Damage found and repaired during replay.
    pub report: ReplayReport,
}

/// The durable per-site store: WAL + alternating checkpoint slots over one
/// storage backend.
#[derive(Debug)]
pub struct SiteStore {
    storage: Box<dyn Storage + Send>,
    wal: Wal,
    cfg: StoreConfig,
    /// Slot holding the latest good checkpoint.
    current_slot: Option<usize>,
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
    pub fn open(
        mut storage: Box<dyn Storage + Send>,
        cfg: StoreConfig,
    ) -> Result<(Self, Recovered), StoreError> {
        let replay_start = Instant::now();
        let (wal, all_records, report) = Wal::replay(storage.as_mut(), cfg.segment_bytes)?;
        let replay_wall_s = replay_start.elapsed().as_secs_f64();
        let loaded = load_best(storage.as_ref());
        let (checkpoint, current_slot, checkpoint_bytes) = match loaded {
            Some((state, slot, bytes)) => (Some(state), Some(slot), bytes),
            None => (None, None, 0),
        };
        let ckpt_lsn = checkpoint.as_ref().map(|c| c.lsn).unwrap_or(0);
        let records: Vec<(u64, WalRecord)> = all_records
            .into_iter()
            .filter(|(lsn, _)| *lsn > ckpt_lsn)
            .collect();

        let mut stats = StoreStats {
            checkpoint_bytes,
            wal_bytes: wal.bytes(),
            ..StoreStats::default()
        };
        stats.absorb_report(&report);

        Ok((
            Self {
                storage,
                wal,
                cfg,
                current_slot,
                stats,
                metrics: StoreMetrics::default(),
                replay_wall_s,
            },
            Recovered {
                checkpoint,
                records,
                report,
            },
        ))
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
    pub fn append(&mut self, rec: &WalRecord) -> Result<u64, StoreError> {
        let timer = self.metrics.h_append.start_timer();
        let lsn = self.wal.append(self.storage.as_mut(), rec)?;
        timer.observe();
        self.stats.frames_appended += 1;
        self.stats.wal_bytes = self.wal.bytes();
        self.metrics.c_appended.inc();
        self.metrics.g_wal_bytes.set(self.stats.wal_bytes as f64);
        Ok(lsn)
    }

    /// LSN the next append will receive; `state.lsn` for a checkpoint
    /// cut *now* is `next_lsn() - 1` (everything appended so far).
    pub fn next_lsn(&self) -> u64 {
        self.wal.next_lsn()
    }

    /// Write `state` to the alternate checkpoint slot, then compact WAL
    /// segments the checkpoint covers (by LSN and by gossip sequence).
    pub fn checkpoint(&mut self, state: &CheckpointView<'_>) -> Result<(), StoreError> {
        let (slot, bytes) = write_next(self.storage.as_mut(), state, self.current_slot)?;
        self.current_slot = Some(slot);
        self.stats.checkpoints += 1;
        self.stats.checkpoint_bytes = bytes;
        self.metrics.c_checkpoints.inc();
        self.metrics.g_checkpoint_bytes.set(bytes as f64);

        let removed = self.wal.compact(
            self.storage.as_mut(),
            state.head.lsn,
            state.head.next_seq.saturating_sub(1),
            &state.head.peer_seq_cursors(),
        )?;
        self.stats.compacted_segments += removed;
        self.stats.wal_bytes = self.wal.bytes();
        self.metrics.c_compacted.add(removed);
        self.metrics.g_wal_bytes.set(self.stats.wal_bytes as f64);
        Ok(())
    }

    /// Simulate the write in flight at the instant of a crash: append a
    /// deterministic partial frame (header promising more payload than
    /// follows) to the active segment. The next [`SiteStore::open`] must
    /// truncate it as a torn tail, losing nothing that was fully appended.
    pub fn simulate_torn_write(&mut self, salt: u64) -> Result<(), StoreError> {
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
        self.wal.append_torn_tail(self.storage.as_mut(), torn)?;
        self.stats.wal_bytes = self.wal.bytes();
        self.metrics.g_wal_bytes.set(self.stats.wal_bytes as f64);
        Ok(())
    }

    /// Current health counters.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Consume the store, yielding the backend — the simulator's "disk
    /// that survives the crash", re-opened on recovery.
    pub fn into_storage(self) -> Box<dyn Storage + Send> {
        self.storage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemStorage;
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

    fn open_mem(storage: MemStorage, cfg: StoreConfig) -> (SiteStore, Recovered) {
        SiteStore::open(Box::new(storage), cfg).unwrap()
    }

    fn reopen(store: SiteStore) -> (SiteStore, Recovered) {
        let cfg = store.config();
        let storage = store.into_storage();
        SiteStore::open(storage, cfg).unwrap()
    }

    #[test]
    fn open_append_reopen_replays_everything() {
        let (mut store, rec0) = open_mem(MemStorage::new(), StoreConfig::default());
        assert!(rec0.checkpoint.is_none() && rec0.records.is_empty());
        for j in 0..10 {
            store.append(&usage(j)).unwrap();
        }
        let (_, recovered) = reopen(store);
        assert_eq!(recovered.records.len(), 10);
        assert_eq!(recovered.report.frames_replayed, 10);
    }

    #[test]
    fn checkpoint_filters_covered_records_and_compacts() {
        let cfg = StoreConfig {
            segment_bytes: 128,
            ..StoreConfig::default()
        };
        let (mut store, _) = open_mem(MemStorage::new(), cfg);
        for j in 0..20 {
            store.append(&usage(j)).unwrap();
        }
        let ckpt = CheckpointState {
            lsn: store.next_lsn() - 1,
            site: SiteId(1),
            slot_s: 60.0,
            next_seq: 1,
            ..CheckpointState::default()
        };
        store.checkpoint(&ckpt.view()).unwrap();
        let stats = store.stats();
        assert!(stats.compacted_segments > 0, "{stats:?}");
        assert_eq!(stats.checkpoints, 1);
        assert!(stats.checkpoint_bytes > 0);

        // Two fresh records after the checkpoint; reopen yields only them.
        store.append(&usage(100)).unwrap();
        store.append(&usage(101)).unwrap();
        let (_, recovered) = reopen(store);
        assert_eq!(recovered.checkpoint.as_ref().map(|c| c.lsn), Some(20));
        let jobs: Vec<u64> = recovered
            .records
            .iter()
            .filter_map(|(_, r)| match r {
                WalRecord::Usage(u) => Some(u.job.0),
                _ => None,
            })
            .collect();
        assert_eq!(jobs, vec![100, 101]);
    }

    #[test]
    fn torn_write_loses_at_most_the_partial_frame() {
        let (mut store, _) = open_mem(MemStorage::new(), StoreConfig::default());
        for j in 0..7 {
            store.append(&usage(j)).unwrap();
        }
        store.simulate_torn_write(0xDEAD).unwrap();
        let (store, recovered) = reopen(store);
        assert_eq!(recovered.records.len(), 7, "all real frames survive");
        assert_eq!(recovered.report.torn_tails, 1);
        assert_eq!(store.stats().torn_tails, 1);
    }

    #[test]
    fn telemetry_carries_pre_wiring_totals() {
        let (mut store, _) = open_mem(MemStorage::new(), StoreConfig::default());
        for j in 0..3 {
            store.append(&usage(j)).unwrap();
        }
        store.simulate_torn_write(1).unwrap();
        let (mut store, _) = reopen(store);

        let t = Telemetry::enabled();
        store.set_telemetry(&t);
        store.append(&usage(9)).unwrap();
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
    }
}
