//! Every event the USS counts, kept once: [`Counts::add`] is the one write
//! of a counted event — the total, the telemetry series of the same name
//! and, for an event on a link, that link's share — and no crash resets a
//! count, so the per-link shares always sum to the totals.

use aequus_core::ids::SiteId;
use aequus_telemetry::{Counter, Telemetry};
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

/// The counts of one service since it was built: readable with telemetry
/// off, mirrored into the registry's series once [`Counts::wire`]d.
#[derive(Debug, Clone, Default)]
pub(super) struct Counts {
    totals: [u64; SERIES.len()],
    /// Per peer, the part of each total that happened on the link to it.
    links: BTreeMap<SiteId, [u64; SERIES.len()]>,
    series: [Counter; SERIES.len()],
}

impl Counts {
    /// Mirror every count from here on into `t`'s series.
    pub(super) fn wire(&mut self, t: &Telemetry) {
        self.series = SERIES.map(|name| t.counter(name));
    }

    /// Count `n` more of `what` — on the link to `peer`, if on one.
    pub(super) fn add(&mut self, what: Count, peer: Option<SiteId>, n: u64) {
        self.totals[what as usize] += n;
        self.series[what as usize].add(n);
        if let Some(peer) = peer {
            self.links.entry(peer).or_default()[what as usize] += n;
        }
    }

    /// `what` so far: on the link to `peer`, or over the whole service.
    pub(super) fn get(&self, what: Count, peer: Option<SiteId>) -> u64 {
        let row = peer.map_or(Some(&self.totals), |peer| self.links.get(&peer));
        row.map_or(0, |row| row[what as usize])
    }
}
