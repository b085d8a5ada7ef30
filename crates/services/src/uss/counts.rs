//! Every event the USS counts, kept once: [`Counts::add`] is the one write
//! of a counted event — the total and, for an event on a link, that link's
//! share — and no crash resets a count, so the per-link shares always sum
//! to the totals. A snapshot reads the totals under [`SERIES`]' names.

use aequus_core::ids::SiteId;
use aequus_telemetry::Snapshot;
use std::collections::BTreeMap;

/// A counted event; the discriminant indexes [`SERIES`] and every row.
/// `Ingested` counts live ingests only (WAL replay re-applies records
/// uncounted); retries, gaps, resyncs and snapshots happen on a link.
#[derive(Debug, Clone, Copy)]
pub(super) enum Count {
    Ingested,
    Published,
    Received,
    Retries,
    Gaps,
    Resyncs,
    Snapshots,
    Duplicates,
    Rejected,
}

/// The telemetry series of each [`Count`], in declaration order.
const SERIES: [&str; 9] = [
    "aequus_uss_records_ingested_total",
    "aequus_uss_summaries_published_total",
    "aequus_uss_summaries_received_total",
    "aequus_uss_retries_total",
    "aequus_uss_seq_gaps_total",
    "aequus_uss_resyncs_total",
    "aequus_uss_snapshots_total",
    "aequus_uss_duplicates_total",
    "aequus_uss_rejected_total",
];

/// The counts of one service since it was built, telemetry on or off.
#[derive(Debug, Clone, Default)]
pub(super) struct Counts {
    totals: [u64; SERIES.len()],
    /// Per peer, the part of each total that happened on the link to it.
    links: BTreeMap<SiteId, [u64; SERIES.len()]>,
}

impl Counts {
    /// Count `n` more of `what` — on the link to `peer`, if on one.
    pub(super) fn add(&mut self, what: Count, peer: Option<SiteId>, n: u64) {
        self.totals[what as usize] += n;
        if let Some(peer) = peer {
            self.links.entry(peer).or_default()[what as usize] += n;
        }
    }

    /// `what` so far: on the link to `peer`, or over the whole service.
    pub(super) fn get(&self, what: Count, peer: Option<SiteId>) -> u64 {
        let row = peer.map_or(Some(&self.totals), |peer| self.links.get(&peer));
        row.map_or(0, |row| row[what as usize])
    }

    /// Write every total into `snap` under its series.
    pub(super) fn counts_into(&self, snap: &mut Snapshot) {
        snap.add_counts(SERIES.into_iter().zip(self.totals));
    }
}
