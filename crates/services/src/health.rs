//! The gossip health map: per-link observations merged into a run-level
//! [`HealthReport`].

/// One per-sample health row for a directed overlay link, as observed by
/// *one* endpoint's shard: the sender's reports [`LinkSide::Tx`], the
/// receiver's [`LinkSide::Rx`], and the [`HealthMap`] merges both under the
/// `(from, to)` key. Every field is sim-time-derived, so the merged
/// aggregate is bit-identical at any worker count.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkObservation {
    /// Publishing site of the link.
    pub from: u32,
    /// Receiving site of the link.
    pub to: u32,
    /// Overlay depth class ([`crate::OverlayTopology::link_depth`]).
    pub depth: usize,
    /// Which endpoint observed the link, and what it saw.
    pub side: LinkSide,
}

/// What one endpoint of a link can observe. Counters are cumulative since
/// the observing service was built — crashes included.
#[derive(Debug, Clone, PartialEq)]
pub enum LinkSide {
    /// The publishing end.
    Tx {
        /// Undelivered-data age: `now − publish time` of the oldest unacked
        /// summary in the outbox, `0` when the outbox is empty (nothing the
        /// receiver is missing).
        staleness_s: f64,
        /// Outbox depth (unacked summaries queued).
        outbox: usize,
        /// Bytes sent on the link.
        bytes: u64,
        /// Messages sent on the link.
        msgs: u64,
        /// Retry sends on the link.
        retries: u64,
        /// Snapshot catch-ups sent on the link.
        snapshots: u64,
    },
    /// The receiving end.
    Rx {
        /// Seconds since the receiver last heard the publisher.
        heard_age_s: f64,
        /// Sequence gaps the receiver detected on the link.
        gaps: u64,
        /// Anti-entropy resyncs the receiver issued.
        resyncs: u64,
    },
}

/// Exact nearest-rank percentile of an ascending-sorted slice (0 when
/// empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[derive(Debug, Default)]
struct LinkAccum {
    /// Every tx-side staleness sample, for exact quantiles at finalize.
    staleness: Vec<f64>,
    /// The link's row so far — all of it but those quantiles.
    report: LinkReport,
}

/// Streaming per-link aggregator: feed it every [`LinkObservation`] from
/// every sample barrier; [`HealthMap::finalize`] renders the per-link and
/// per-depth report. The two sides report disjoint fields; cumulative
/// counters never go backwards, so their `max` is their latest value.
#[derive(Debug, Default)]
pub struct HealthMap {
    links: std::collections::BTreeMap<(u32, u32), LinkAccum>,
}

impl HealthMap {
    /// Fold one observation row into the map.
    pub fn observe(&mut self, obs: &LinkObservation) {
        let acc = self.links.entry((obs.from, obs.to)).or_default();
        let r = &mut acc.report;
        (r.from, r.to, r.depth) = (obs.from, obs.to, obs.depth);
        match obs.side {
            LinkSide::Tx {
                staleness_s,
                outbox,
                bytes,
                msgs,
                retries,
                snapshots,
            } => {
                acc.staleness.push(staleness_s);
                r.staleness_max_s = r.staleness_max_s.max(staleness_s);
                r.outbox_max = r.outbox_max.max(outbox);
                r.bytes = r.bytes.max(bytes);
                r.msgs = r.msgs.max(msgs);
                r.retries = r.retries.max(retries);
                r.snapshots = r.snapshots.max(snapshots);
            }
            LinkSide::Rx {
                heard_age_s,
                gaps,
                resyncs,
            } => {
                r.heard_age_max_s = r.heard_age_max_s.max(heard_age_s);
                r.gaps = r.gaps.max(gaps);
                r.resyncs = r.resyncs.max(resyncs);
            }
        }
    }

    /// Fold a batch of rows (one sample barrier's worth).
    pub fn observe_all(&mut self, rows: &[LinkObservation]) {
        for obs in rows {
            self.observe(obs);
        }
    }

    /// Aggregate everything observed so far into a deterministic report.
    pub fn finalize(&self) -> HealthReport {
        let mut links = Vec::with_capacity(self.links.len());
        let mut by_depth: std::collections::BTreeMap<usize, (usize, Vec<f64>, u64, u64)> =
            std::collections::BTreeMap::new();
        let mut all: Vec<f64> = Vec::new();
        for acc in self.links.values() {
            let mut sorted = acc.staleness.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite staleness"));
            let link = LinkReport {
                staleness_p50_s: percentile(&sorted, 0.50),
                staleness_p99_s: percentile(&sorted, 0.99),
                ..acc.report.clone()
            };
            let slot = by_depth.entry(link.depth).or_default();
            slot.0 += 1;
            slot.1.extend_from_slice(&sorted);
            slot.2 += link.bytes;
            slot.3 += link.retries;
            links.push(link);
            all.extend_from_slice(&sorted);
        }
        let mut depths = Vec::with_capacity(by_depth.len());
        let mut lag = 0.0;
        for (depth, (count, mut samples, bytes, retries)) in by_depth {
            samples.sort_by(|a, b| a.partial_cmp(b).expect("finite staleness"));
            let p99 = percentile(&samples, 0.99);
            // A depth-d cell only converges once data has crossed every hop
            // below it too: attribute the *cumulative* p99 staleness.
            lag += p99;
            depths.push(DepthReport {
                depth,
                links: count,
                staleness_p99_s: p99,
                bytes,
                retries,
                convergence_lag_s: lag,
            });
        }
        all.sort_by(|a, b| a.partial_cmp(b).expect("finite staleness"));
        HealthReport {
            links,
            depths,
            staleness_p99_s: percentile(&all, 0.99),
        }
    }
}

/// Per-link aggregate of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LinkReport {
    /// Publishing site.
    pub from: u32,
    /// Receiving site.
    pub to: u32,
    /// Overlay depth class.
    pub depth: usize,
    /// Median undelivered-data age (s).
    pub staleness_p50_s: f64,
    /// 99th-percentile undelivered-data age (s).
    pub staleness_p99_s: f64,
    /// Worst undelivered-data age seen (s).
    pub staleness_max_s: f64,
    /// Deepest outbox seen.
    pub outbox_max: usize,
    /// Cumulative bytes sent.
    pub bytes: u64,
    /// Cumulative messages sent.
    pub msgs: u64,
    /// Cumulative retry sends.
    pub retries: u64,
    /// Cumulative snapshot catch-ups sent.
    pub snapshots: u64,
    /// Worst receiver-side heard age seen (s).
    pub heard_age_max_s: f64,
    /// Cumulative receiver-detected sequence gaps.
    pub gaps: u64,
    /// Cumulative receiver-issued resyncs.
    pub resyncs: u64,
}

/// Per-overlay-depth rollup: how much convergence lag each hop class
/// contributes — the measurement ROADMAP item 4's adaptive publish cadence
/// needs.
#[derive(Debug, Clone, PartialEq)]
pub struct DepthReport {
    /// Overlay depth class (1 = core links).
    pub depth: usize,
    /// Directed links in this class.
    pub links: usize,
    /// p99 undelivered-data age across the class's links (s).
    pub staleness_p99_s: f64,
    /// Cumulative bytes across the class.
    pub bytes: u64,
    /// Cumulative retries across the class.
    pub retries: u64,
    /// Cumulative p99 staleness of this and every shallower class (s): the
    /// modeled lag for data to converge out to this depth.
    pub convergence_lag_s: f64,
}

/// The finalized gossip health report of a run: per-link aggregates plus
/// the per-depth convergence-lag attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Per-link rows, ordered by `(from, to)`.
    pub links: Vec<LinkReport>,
    /// Per-depth rollups, ascending depth.
    pub depths: Vec<DepthReport>,
    /// Global p99 undelivered-data age across every link (s).
    pub staleness_p99_s: f64,
}

fn jnum(v: f64) -> String {
    format!("{v:?}")
}

impl HealthReport {
    /// The per-link row for `from -> to`, if the link exists.
    pub fn link(&self, from: u32, to: u32) -> Option<&LinkReport> {
        self.links.iter().find(|l| l.from == from && l.to == to)
    }

    /// The modeled convergence lag out to `depth`, if any link class
    /// reaches it.
    pub fn depth_lag(&self, depth: usize) -> Option<f64> {
        self.depths
            .iter()
            .find(|d| d.depth == depth)
            .map(|d| d.convergence_lag_s)
    }

    /// Canonical JSON rendering: fixed key order, shortest round-tripping
    /// floats — byte-identical across worker counts.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"links\":[");
        for (i, l) in self.links.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"from\":{},\"to\":{},\"depth\":{},\"staleness_p50_s\":{},\
                 \"staleness_p99_s\":{},\"staleness_max_s\":{},\"outbox_max\":{},\
                 \"bytes\":{},\"msgs\":{},\"retries\":{},\"snapshots\":{},\
                 \"heard_age_max_s\":{},\"gaps\":{},\"resyncs\":{}}}",
                l.from,
                l.to,
                l.depth,
                jnum(l.staleness_p50_s),
                jnum(l.staleness_p99_s),
                jnum(l.staleness_max_s),
                l.outbox_max,
                l.bytes,
                l.msgs,
                l.retries,
                l.snapshots,
                jnum(l.heard_age_max_s),
                l.gaps,
                l.resyncs,
            ));
        }
        out.push_str("],\"depths\":[");
        for (i, d) in self.depths.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"depth\":{},\"links\":{},\"staleness_p99_s\":{},\"bytes\":{},\
                 \"retries\":{},\"convergence_lag_s\":{}}}",
                d.depth,
                d.links,
                jnum(d.staleness_p99_s),
                d.bytes,
                d.retries,
                jnum(d.convergence_lag_s),
            ));
        }
        out.push_str(&format!(
            "],\"staleness_p99_s\":{}}}",
            jnum(self.staleness_p99_s)
        ));
        out
    }

    /// Human-readable table (the output of `aequus-bench health`).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "link      depth  stale_p50  stale_p99  stale_max  outbox  \
             bytes      msgs   retries  snaps  heard_max  gaps  resyncs\n",
        );
        for l in &self.links {
            out.push_str(&format!(
                "{:<9} {:<6} {:>9.1} {:>10.1} {:>10.1} {:>7} {:>10} {:>6} {:>8} {:>6} {:>10.1} {:>5} {:>8}\n",
                format!("{}->{}", l.from, l.to),
                l.depth,
                l.staleness_p50_s,
                l.staleness_p99_s,
                l.staleness_max_s,
                l.outbox_max,
                l.bytes,
                l.msgs,
                l.retries,
                l.snapshots,
                l.heard_age_max_s,
                l.gaps,
                l.resyncs,
            ));
        }
        out.push_str("\ndepth  links  stale_p99  bytes      retries  conv_lag\n");
        for d in &self.depths {
            out.push_str(&format!(
                "{:<6} {:<6} {:>9.1} {:>10} {:>8} {:>9.1}\n",
                d.depth, d.links, d.staleness_p99_s, d.bytes, d.retries, d.convergence_lag_s,
            ));
        }
        out.push_str(&format!(
            "\nglobal staleness_p99_s: {:.1}\n",
            self.staleness_p99_s
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tx-side row for `from -> to` at depth 1.
    fn tx(
        from: u32,
        to: u32,
        staleness_s: f64,
        outbox: usize,
        sent: (u64, u64, u64),
    ) -> LinkObservation {
        let (bytes, msgs, retries) = sent;
        let side = LinkSide::Tx {
            staleness_s,
            outbox,
            bytes,
            msgs,
            retries,
            snapshots: 0,
        };
        LinkObservation {
            from,
            to,
            depth: 1,
            side,
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        assert_eq!(percentile(&[], 0.99), 0.0);
        assert_eq!(percentile(&[5.0], 0.5), 5.0);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
    }

    #[test]
    fn health_map_merges_tx_and_rx_sides() {
        let mut map = HealthMap::default();
        // Sender side of 0->1 over three samples; staleness grows then
        // drains.
        for (stale, outbox, bytes, msgs, retries) in [
            (0.0, 0, 100, 2, 0),
            (45.0, 2, 250, 5, 1),
            (0.0, 0, 300, 7, 1),
        ] {
            map.observe(&tx(0, 1, stale, outbox, (bytes, msgs, retries)));
        }
        // Receiver side of the same link.
        let side = LinkSide::Rx {
            heard_age_s: 80.0,
            gaps: 1,
            resyncs: 1,
        };
        map.observe(&LinkObservation {
            side,
            ..tx(0, 1, 0.0, 0, (0, 0, 0))
        });
        // A second, deeper link.
        map.observe(&LinkObservation {
            depth: 2,
            ..tx(1, 3, 120.0, 0, (50, 0, 0))
        });
        let report = map.finalize();
        assert_eq!(report.links.len(), 2);
        let l = report.link(0, 1).expect("link 0->1");
        assert_eq!(l.depth, 1);
        assert_eq!(l.staleness_max_s, 45.0);
        assert_eq!(l.staleness_p50_s, 0.0);
        assert_eq!(l.outbox_max, 2);
        assert_eq!((l.bytes, l.msgs, l.retries), (300, 7, 1));
        assert_eq!(l.heard_age_max_s, 80.0, "rx row merged in");
        assert_eq!((l.gaps, l.resyncs), (1, 1));
        // Depth rollup: cumulative convergence lag.
        assert_eq!(report.depths.len(), 2);
        assert_eq!(report.depths[0].depth, 1);
        assert_eq!(report.depths[0].staleness_p99_s, 45.0);
        assert_eq!(report.depths[1].depth, 2);
        assert_eq!(report.depths[1].staleness_p99_s, 120.0);
        assert_eq!(report.depths[1].convergence_lag_s, 165.0, "cumulative");
        assert_eq!(report.depth_lag(2), Some(165.0));
        assert_eq!(report.staleness_p99_s, 120.0);
        // Rendering is deterministic and structurally sane.
        let json = report.to_json();
        assert!(json.starts_with("{\"links\":[{\"from\":0,\"to\":1,"));
        assert!(json.contains("\"convergence_lag_s\":165.0"));
        assert_eq!(json, map.finalize().to_json(), "finalize is pure");
        assert!(report.render().contains("0->1"));
    }

    #[test]
    fn health_map_counters_never_go_backwards() {
        // Cumulative counters merge by `max`: a row that reads lower than
        // one already folded leaves the high-water mark in place.
        let mut map = HealthMap::default();
        map.observe(&tx(2, 0, 0.0, 0, (500, 9, 0)));
        map.observe(&tx(2, 0, 0.0, 0, (40, 1, 0)));
        let l = map.finalize();
        assert_eq!((l.links[0].bytes, l.links[0].msgs), (500, 9));
    }
}
