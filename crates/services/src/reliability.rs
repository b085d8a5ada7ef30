//! Reliability layer for the USS↔USS exchange.
//!
//! The paper's deployment experience (and the EU DataGrid operations report
//! it cites) is that message loss and flaky services dominate real grid
//! operations. This module defines the wire protocol and policies that make
//! the summary exchange fault-tolerant:
//!
//! * every published [`UsageSummary`] carries a per-publisher monotonically
//!   increasing sequence number;
//! * delivery is **acknowledged** — unacked summaries stay in a bounded
//!   per-peer outbox and are retried with exponential backoff plus
//!   deterministic seeded jitter ([`RetryPolicy`], [`JitterRng`]);
//! * receivers detect sequence gaps and issue anti-entropy
//!   [`UssMessage::Resync`] pulls, re-synced from the publisher's retained
//!   history, with a cumulative [`UssMessage::Snapshot`] fallback when the
//!   history has been compacted;
//! * a configurable [`StalePolicy`] governs what a site serves while peers
//!   are silent (serve-stale vs. local-only weighting).
//!
//! Correctness never depends on the sequencing: summary cells carry
//! *absolute* cumulative per-(user, slot) charge, merged as positive deltas
//! against a per-peer mirror, so any interleaving of retries, duplicates,
//! reordering, snapshots, and post-crash republication converges to the same
//! state. Sequence numbers exist to *detect* loss quickly, not to order it.

use crate::timings::ServiceTimings;
use aequus_core::codec::{decode_summary, encode_summary, CodecError, Encoding};
use aequus_core::ids::SiteId;
use aequus_core::usage::UsageSummary;
use aequus_telemetry::TraceCtx;
use serde::{Deserialize, Serialize};

/// A message of the reliable USS↔USS exchange protocol.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum UssMessage {
    /// A sequenced incremental summary (absolute per-cell values).
    Summary {
        /// The summary payload.
        summary: UsageSummary,
        /// Causal trace context of the pipeline stage that produced this
        /// publication, when the publishing site sampled it. Retries and
        /// resyncs of the same sequence number resend the *original*
        /// context, so a hop delayed by loss stays in its causal tree.
        ctx: Option<TraceCtx>,
    },
    /// A cumulative snapshot of everything the publisher has ever published;
    /// its `seq` is the publisher's latest sequence number, so applying it
    /// also closes every outstanding gap up to that point.
    Snapshot {
        /// The cumulative payload.
        summary: UsageSummary,
        /// Trace context of the latest traced publication folded into the
        /// snapshot, if any — snapshot catch-ups stay causally linked.
        ctx: Option<TraceCtx>,
    },
    /// Receiver → publisher: the summary with `seq` was received and applied.
    Ack {
        /// The acknowledging site.
        from: SiteId,
        /// Sequence number being acknowledged.
        seq: u64,
    },
    /// Receiver → publisher: an anti-entropy pull for the sequence range
    /// `[from_seq, to_seq]` the receiver detected as missing.
    Resync {
        /// The requesting site.
        from: SiteId,
        /// First missing sequence number.
        from_seq: u64,
        /// Last missing sequence number.
        to_seq: u64,
    },
    /// Recovering receiver → publisher: volatile state was lost; send a full
    /// cumulative snapshot.
    SnapshotRequest {
        /// The requesting site.
        from: SiteId,
    },
}

impl UssMessage {
    /// Whether this message carries usage data (as opposed to control flow).
    pub fn is_data(&self) -> bool {
        matches!(
            self,
            UssMessage::Summary { .. } | UssMessage::Snapshot { .. }
        )
    }

    /// The trace context carried by a data message, if any.
    pub fn trace_ctx(&self) -> Option<TraceCtx> {
        match self {
            UssMessage::Summary { ctx, .. } | UssMessage::Snapshot { ctx, .. } => *ctx,
            _ => None,
        }
    }

    /// Short kind tag for telemetry events and logs.
    pub fn kind(&self) -> &'static str {
        match self {
            UssMessage::Summary { .. } => "summary",
            UssMessage::Snapshot { .. } => "snapshot",
            UssMessage::Ack { .. } => "ack",
            UssMessage::Resync { .. } => "resync",
            UssMessage::SnapshotRequest { .. } => "snapshot_request",
        }
    }

    /// Serialized size in bytes under `enc` — defined as the length of
    /// [`UssMessage::encode`]'s output (a regression test holds the two
    /// equal), so the profiler's gossip-byte counters and the bench gates
    /// account exactly what the codec produces. Deterministic, like
    /// everything it feeds.
    pub fn wire_size(&self, enc: Encoding) -> u64 {
        match self {
            UssMessage::Summary { summary, ctx } | UssMessage::Snapshot { summary, ctx } => {
                let ctx_bytes = if ctx.is_some() { 16 } else { 0 };
                2 + ctx_bytes + summary.wire_bytes(enc)
            }
            UssMessage::Ack { .. } => 1 + 4 + 8,
            UssMessage::Resync { .. } => 1 + 4 + 16,
            UssMessage::SnapshotRequest { .. } => 1 + 4,
        }
    }

    /// Encode to the wire representation: one tag byte, then fixed-width
    /// control fields, or (for data messages) a trace-context presence byte,
    /// the optional 16-byte context, and the CRC-framed summary payload in
    /// the chosen [`Encoding`].
    pub fn encode(&self, enc: Encoding) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            UssMessage::Summary { summary, ctx } | UssMessage::Snapshot { summary, ctx } => {
                out.push(if matches!(self, UssMessage::Summary { .. }) {
                    TAG_SUMMARY
                } else {
                    TAG_SNAPSHOT
                });
                match ctx {
                    Some(c) => {
                        out.push(1);
                        out.extend_from_slice(&c.trace_id.to_le_bytes());
                        out.extend_from_slice(&c.span.to_le_bytes());
                    }
                    None => out.push(0),
                }
                out.extend_from_slice(&encode_summary(summary, enc));
            }
            UssMessage::Ack { from, seq } => {
                out.push(TAG_ACK);
                out.extend_from_slice(&from.0.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
            }
            UssMessage::Resync {
                from,
                from_seq,
                to_seq,
            } => {
                out.push(TAG_RESYNC);
                out.extend_from_slice(&from.0.to_le_bytes());
                out.extend_from_slice(&from_seq.to_le_bytes());
                out.extend_from_slice(&to_seq.to_le_bytes());
            }
            UssMessage::SnapshotRequest { from } => {
                out.push(TAG_SNAPSHOT_REQUEST);
                out.extend_from_slice(&from.0.to_le_bytes());
            }
        }
        out
    }

    /// Decode a wire frame produced by [`UssMessage::encode`], returning the
    /// message and the summary encoding it travelled under (control messages
    /// report the caller-irrelevant default).
    pub fn decode(buf: &[u8]) -> Result<(Self, Encoding), CodecError> {
        let (&tag, rest) = buf.split_first().ok_or(CodecError::Truncated)?;
        let fixed = |n: usize| -> Result<&[u8], CodecError> {
            (rest.len() == n).then_some(rest).ok_or(if rest.len() < n {
                CodecError::Truncated
            } else {
                CodecError::Malformed("trailing bytes")
            })
        };
        match tag {
            TAG_SUMMARY | TAG_SNAPSHOT => {
                let (&flag, rest) = rest.split_first().ok_or(CodecError::Truncated)?;
                let (ctx, payload) = match flag {
                    0 => (None, rest),
                    1 => {
                        if rest.len() < 16 {
                            return Err(CodecError::Truncated);
                        }
                        let trace_id = u64::from_le_bytes(rest[..8].try_into().expect("8 bytes"));
                        let span = u64::from_le_bytes(rest[8..16].try_into().expect("8 bytes"));
                        (Some(TraceCtx { trace_id, span }), &rest[16..])
                    }
                    _ => return Err(CodecError::Malformed("bad trace-context flag")),
                };
                let (enc, summary) = decode_summary(payload)?;
                let msg = if tag == TAG_SUMMARY {
                    UssMessage::Summary { summary, ctx }
                } else {
                    UssMessage::Snapshot { summary, ctx }
                };
                Ok((msg, enc))
            }
            TAG_ACK => {
                let b = fixed(12)?;
                Ok((
                    UssMessage::Ack {
                        from: SiteId(u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))),
                        seq: u64::from_le_bytes(b[4..12].try_into().expect("8 bytes")),
                    },
                    Encoding::default(),
                ))
            }
            TAG_RESYNC => {
                let b = fixed(20)?;
                Ok((
                    UssMessage::Resync {
                        from: SiteId(u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))),
                        from_seq: u64::from_le_bytes(b[4..12].try_into().expect("8 bytes")),
                        to_seq: u64::from_le_bytes(b[12..20].try_into().expect("8 bytes")),
                    },
                    Encoding::default(),
                ))
            }
            TAG_SNAPSHOT_REQUEST => {
                let b = fixed(4)?;
                Ok((
                    UssMessage::SnapshotRequest {
                        from: SiteId(u32::from_le_bytes(b[..4].try_into().expect("4 bytes"))),
                    },
                    Encoding::default(),
                ))
            }
            _ => Err(CodecError::Malformed("unknown message tag")),
        }
    }
}

const TAG_SUMMARY: u8 = 1;
const TAG_SNAPSHOT: u8 = 2;
const TAG_ACK: u8 = 3;
const TAG_RESYNC: u8 = 4;
const TAG_SNAPSHOT_REQUEST: u8 = 5;

/// Retry/backoff and retention configuration of the reliable exchange.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// How long a publisher waits for an ack after a send before the first
    /// retry — also the base of the exponential backoff.
    pub ack_timeout_s: f64,
    /// Backoff ceiling: retry spacing never exceeds this.
    pub max_backoff_s: f64,
    /// Jitter fraction in `[0, 1)`: each backoff is scaled by a factor drawn
    /// uniformly from `[1 - jitter_frac, 1 + jitter_frac]`, decorrelating
    /// retry storms across peers. Deterministic given the seed.
    pub jitter_frac: f64,
    /// Published summaries retained for anti-entropy resync; older entries
    /// are compacted away and resyncs reaching past them fall back to a
    /// cumulative snapshot.
    pub history_cap: usize,
    /// Maximum unacked summaries queued per peer; overflowing drops the
    /// oldest (the receiver recovers it through gap detection → resync).
    pub outbox_cap: usize,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            ack_timeout_s: 15.0,
            max_backoff_s: 240.0,
            jitter_frac: 0.2,
            history_cap: 64,
            outbox_cap: 32,
        }
    }
}

impl RetryPolicy {
    /// Derive a policy from a deployment's timing chain: the ack timeout is
    /// the exchange round trip plus scheduling slack
    /// ([`ServiceTimings::ack_deadline_s`]), and the backoff ceiling is the
    /// publication interval — retrying slower than fresh data is produced
    /// would never help.
    pub fn from_timings(timings: &ServiceTimings) -> Self {
        let ack_timeout_s = timings.ack_deadline_s();
        Self {
            ack_timeout_s,
            max_backoff_s: timings.uss_publish_interval_s.max(4.0 * ack_timeout_s),
            ..Self::default()
        }
    }

    /// Backoff before attempt `attempts + 1`, given `attempts` completed
    /// sends without a full ack: `ack_timeout · 2^(attempts-1)`, capped at
    /// `max_backoff`, scaled by jitter (`unit` is a uniform draw in
    /// `[0, 1)`).
    pub fn backoff_s(&self, attempts: u32, unit: f64) -> f64 {
        let exponent = attempts.saturating_sub(1).min(16) as i32;
        let base = (self.ack_timeout_s * f64::powi(2.0, exponent)).min(self.max_backoff_s);
        base * (1.0 + self.jitter_frac * (2.0 * unit - 1.0))
    }
}

/// What a site serves while peer data goes stale (peers silent, partitioned,
/// or crashed).
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum StalePolicy {
    /// Keep weighting with the last merged remote usage, however old — the
    /// default, matching the paper's "RMS keeps scheduling on stale data"
    /// behavior during outages.
    #[default]
    ServeStale,
    /// Degrade to local-only weighting (as if
    /// [`LocalOnly`](crate::ParticipationMode::LocalOnly)) once the freshest
    /// peer update is older than the threshold; remote data is folded back
    /// in when a peer is heard from again.
    LocalOnly {
        /// Staleness threshold in seconds.
        max_staleness_s: f64,
    },
}

/// The gossip overlay: which site pairs exchange summaries directly.
///
/// Full mesh is O(sites²) links; the hierarchical overlays cut that to
/// O(sites) by routing through *forwarding* interior nodes, which aggregate
/// everything they hear into `relayed` sections of their own publications
/// (per-hop rollup). Each link still runs the full seq/ack/resync/snapshot
/// machinery unchanged — the overlay only decides which links exist and who
/// forwards. Because relayed cells stay absolute cumulative values keyed by
/// their *origin* site and receivers merge against a per-origin mirror, any
/// path multiplicity (meshed hubs) or hop count converges to the same view
/// as the full mesh.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OverlayTopology {
    /// Every site pair exchanges directly (the pre-overlay behavior).
    #[default]
    FullMesh,
    /// A k-ary tree rooted at site 0: site `i > 0` links to its parent
    /// `(i-1)/fanout`; interior nodes forward between their subtrees and
    /// the rest of the tree.
    Tree {
        /// Children per node (clamped to ≥ 1).
        fanout: usize,
    },
    /// The first `hubs` sites form a full mesh among themselves and
    /// forward; every other site links only to its home hub `i % hubs`.
    Hub {
        /// Number of hub sites (clamped to `1..=sites`).
        hubs: usize,
    },
}

impl OverlayTopology {
    /// Sites directly linked to `i` in an `n`-site deployment, ascending.
    pub fn neighbors(&self, i: usize, n: usize) -> Vec<usize> {
        match *self {
            OverlayTopology::FullMesh => (0..n).filter(|&j| j != i).collect(),
            OverlayTopology::Tree { fanout } => {
                let k = fanout.max(1);
                let mut out = Vec::new();
                if i > 0 {
                    out.push((i - 1) / k);
                }
                out.extend((k * i + 1..=k * i + k).take_while(|&c| c < n));
                out.sort_unstable();
                out
            }
            OverlayTopology::Hub { hubs } => {
                let h = hubs.clamp(1, n.max(1));
                if i < h {
                    let mut out: Vec<usize> = (0..h).filter(|&j| j != i).collect();
                    out.extend((h..n).filter(|&leaf| leaf % h == i));
                    out
                } else {
                    vec![i % h]
                }
            }
        }
    }

    /// Whether site `i` is an interior (forwarding) node: one that must
    /// re-publish what it hears so data crosses it. Leaves and full-mesh
    /// members never forward.
    pub fn forwards(&self, i: usize, n: usize) -> bool {
        match *self {
            OverlayTopology::FullMesh => false,
            OverlayTopology::Tree { fanout } => fanout.max(1) * i + 1 < n,
            OverlayTopology::Hub { hubs } => i < hubs.clamp(1, n.max(1)) && n > 1,
        }
    }

    /// Hop depth of site `i` from the overlay core: 0 for full-mesh members,
    /// the tree root, and hub sites; increasing toward the leaves.
    pub fn node_depth(&self, i: usize, n: usize) -> usize {
        match *self {
            OverlayTopology::FullMesh => 0,
            OverlayTopology::Tree { fanout } => {
                let k = fanout.max(1);
                let mut depth = 0;
                let mut node = i;
                while node > 0 {
                    node = (node - 1) / k;
                    depth += 1;
                }
                depth
            }
            OverlayTopology::Hub { hubs } => {
                if i < hubs.clamp(1, n.max(1)) {
                    0
                } else {
                    1
                }
            }
        }
    }

    /// Depth class of the direct link `(a, b)`: the deeper endpoint, at
    /// least 1 — every link spans one hop, and a depth-`d` link is the hop
    /// that carries data between depth `d-1` and depth `d`.
    pub fn link_depth(&self, a: usize, b: usize, n: usize) -> usize {
        self.node_depth(a, n).max(self.node_depth(b, n)).max(1)
    }
}

/// A small self-contained deterministic RNG (splitmix64) for retry jitter.
///
/// Kept separate from the simulation's fault RNG so that service-level retry
/// timing is reproducible from the service's own seed alone, independent of
/// how many fault coins the engine has flipped.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JitterRng {
    state: u64,
}

impl JitterRng {
    /// Create a jitter source from a seed.
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Next uniform draw in `[0, 1)`.
    pub fn next_unit(&mut self) -> f64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }
}

// --- Gossip health map ---

/// One per-sample health row for a directed overlay link, as observed by
/// *one* endpoint's shard. The sender's shard reports the tx-side fields
/// (undelivered-data age, outbox depth, cumulative send counters) and marks
/// `heard_age_s = -1`; the receiver's shard reports the rx-side fields
/// (heard age, gap/resync counters) and marks `staleness_s = -1`. The
/// [`HealthMap`] merges both sides under the `(from, to)` key. Every field
/// is sim-time-derived, so the merged aggregate is bit-identical at any
/// worker count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkObservation {
    /// Publishing site of the link.
    pub from: u32,
    /// Receiving site of the link.
    pub to: u32,
    /// Overlay depth class ([`OverlayTopology::link_depth`]).
    pub depth: usize,
    /// Sender-side undelivered-data age: `now − publish time` of the oldest
    /// unacked summary in the outbox, `0` when the outbox is empty (nothing
    /// the receiver is missing), `-1` on rx-side rows.
    pub staleness_s: f64,
    /// Sender-side outbox depth (unacked summaries queued).
    pub outbox: usize,
    /// Cumulative bytes sent on the link (tx side; 0 on rx rows).
    pub bytes: u64,
    /// Cumulative messages sent on the link (tx side; 0 on rx rows).
    pub msgs: u64,
    /// Cumulative retry sends on the link (tx side).
    pub retries: u64,
    /// Cumulative snapshot catch-ups sent on the link (tx side).
    pub snapshots: u64,
    /// Receiver-side: seconds since the receiver last heard the publisher
    /// (`-1` on tx-side rows).
    pub heard_age_s: f64,
    /// Cumulative sequence gaps the receiver detected on the link (rx side).
    pub gaps: u64,
    /// Cumulative anti-entropy resyncs the receiver issued (rx side).
    pub resyncs: u64,
}

impl LinkObservation {
    /// An empty tx-side row for `from -> to` at `depth` (rx fields marked
    /// absent).
    pub fn tx(from: u32, to: u32, depth: usize) -> Self {
        Self {
            from,
            to,
            depth,
            staleness_s: 0.0,
            outbox: 0,
            bytes: 0,
            msgs: 0,
            retries: 0,
            snapshots: 0,
            heard_age_s: -1.0,
            gaps: 0,
            resyncs: 0,
        }
    }

    /// An empty rx-side row for `from -> to` at `depth` (tx fields marked
    /// absent).
    pub fn rx(from: u32, to: u32, depth: usize) -> Self {
        Self {
            staleness_s: -1.0,
            heard_age_s: 0.0,
            ..Self::tx(from, to, depth)
        }
    }
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
    depth: usize,
    /// Every tx-side staleness sample, for exact quantiles at finalize.
    staleness: Vec<f64>,
    staleness_max_s: f64,
    outbox_max: usize,
    bytes: u64,
    msgs: u64,
    retries: u64,
    snapshots: u64,
    heard_age_max_s: f64,
    gaps: u64,
    resyncs: u64,
}

/// Streaming per-link aggregator: feed it every [`LinkObservation`] from
/// every sample barrier; [`HealthMap::finalize`] renders the per-link and
/// per-depth report. Cumulative counters are merged by `max` — the two
/// sides report disjoint counters, and a crashed site's counter reset
/// leaves the pre-crash high-water mark in place.
#[derive(Debug, Default)]
pub struct HealthMap {
    links: std::collections::BTreeMap<(u32, u32), LinkAccum>,
}

impl HealthMap {
    /// Fold one observation row into the map.
    pub fn observe(&mut self, obs: &LinkObservation) {
        let acc = self.links.entry((obs.from, obs.to)).or_default();
        acc.depth = obs.depth;
        if obs.staleness_s >= 0.0 {
            acc.staleness.push(obs.staleness_s);
            acc.staleness_max_s = acc.staleness_max_s.max(obs.staleness_s);
        }
        if obs.heard_age_s >= 0.0 {
            acc.heard_age_max_s = acc.heard_age_max_s.max(obs.heard_age_s);
        }
        acc.outbox_max = acc.outbox_max.max(obs.outbox);
        acc.bytes = acc.bytes.max(obs.bytes);
        acc.msgs = acc.msgs.max(obs.msgs);
        acc.retries = acc.retries.max(obs.retries);
        acc.snapshots = acc.snapshots.max(obs.snapshots);
        acc.gaps = acc.gaps.max(obs.gaps);
        acc.resyncs = acc.resyncs.max(obs.resyncs);
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
        for (&(from, to), acc) in &self.links {
            let mut sorted = acc.staleness.clone();
            sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite staleness"));
            links.push(LinkReport {
                from,
                to,
                depth: acc.depth,
                staleness_p50_s: percentile(&sorted, 0.50),
                staleness_p99_s: percentile(&sorted, 0.99),
                staleness_max_s: acc.staleness_max_s,
                outbox_max: acc.outbox_max,
                bytes: acc.bytes,
                msgs: acc.msgs,
                retries: acc.retries,
                snapshots: acc.snapshots,
                heard_age_max_s: acc.heard_age_max_s,
                gaps: acc.gaps,
                resyncs: acc.resyncs,
            });
            let slot = by_depth.entry(acc.depth).or_default();
            slot.0 += 1;
            slot.1.extend_from_slice(&sorted);
            slot.2 += acc.bytes;
            slot.3 += acc.retries;
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    #[test]
    fn backoff_grows_exponentially_to_the_cap() {
        let p = RetryPolicy {
            ack_timeout_s: 10.0,
            max_backoff_s: 60.0,
            jitter_frac: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_s(1, 0.5), 10.0);
        assert_eq!(p.backoff_s(2, 0.5), 20.0);
        assert_eq!(p.backoff_s(3, 0.5), 40.0);
        assert_eq!(p.backoff_s(4, 0.5), 60.0, "capped");
        assert_eq!(p.backoff_s(40, 0.5), 60.0, "huge attempt counts saturate");
    }

    #[test]
    fn jitter_bounds_and_determinism() {
        let p = RetryPolicy {
            ack_timeout_s: 10.0,
            max_backoff_s: 1e9,
            jitter_frac: 0.2,
            ..RetryPolicy::default()
        };
        let mut a = JitterRng::new(7);
        let mut b = JitterRng::new(7);
        for _ in 0..1000 {
            let u = a.next_unit();
            assert_eq!(u, b.next_unit(), "same seed, same stream");
            assert!((0.0..1.0).contains(&u));
            let back = p.backoff_s(1, u);
            assert!((8.0..=12.0).contains(&back), "{back}");
        }
        let mut c = JitterRng::new(8);
        assert_ne!(a.next_unit(), c.next_unit());
    }

    #[test]
    fn from_timings_tracks_the_exchange_latency() {
        let t = ServiceTimings::default();
        let p = RetryPolicy::from_timings(&t);
        assert_eq!(p.ack_timeout_s, t.ack_deadline_s());
        assert!(p.max_backoff_s >= p.ack_timeout_s);
        assert_eq!(p.max_backoff_s, t.uss_publish_interval_s);
    }

    #[test]
    fn message_kinds_and_data_flag() {
        let s = UsageSummary {
            site: SiteId(0),
            seq: 1,
            slot_s: 60.0,
            per_user: Default::default(),
            relayed: Default::default(),
        };
        let summary = UssMessage::Summary {
            summary: s.clone(),
            ctx: None,
        };
        assert!(summary.is_data());
        assert_eq!(summary.trace_ctx(), None);
        let traced = UssMessage::Snapshot {
            summary: s,
            ctx: Some(TraceCtx {
                trace_id: 7,
                span: 9,
            }),
        };
        assert!(traced.is_data());
        assert_eq!(traced.trace_ctx().unwrap().trace_id, 7);
        for (msg, kind) in [
            (
                UssMessage::Ack {
                    from: SiteId(1),
                    seq: 3,
                },
                "ack",
            ),
            (
                UssMessage::Resync {
                    from: SiteId(1),
                    from_seq: 2,
                    to_seq: 4,
                },
                "resync",
            ),
            (
                UssMessage::SnapshotRequest { from: SiteId(1) },
                "snapshot_request",
            ),
        ] {
            assert!(!msg.is_data());
            assert_eq!(msg.kind(), kind);
        }
    }

    fn sample_messages() -> Vec<UssMessage> {
        let mut per_user = std::collections::BTreeMap::new();
        per_user.insert(
            aequus_core::GridUser::new("u007"),
            [(3u64, 120.5), (9u64, 600.0)].into_iter().collect(),
        );
        let mut relayed = std::collections::BTreeMap::new();
        relayed.insert(SiteId(4), per_user.clone());
        let summary = UsageSummary {
            site: SiteId(2),
            seq: 11,
            slot_s: 300.0,
            per_user,
            relayed,
        };
        let ctx = TraceCtx {
            trace_id: 77,
            span: 9,
        };
        vec![
            UssMessage::Summary {
                summary: summary.clone(),
                ctx: None,
            },
            UssMessage::Summary {
                summary: summary.clone(),
                ctx: Some(ctx),
            },
            UssMessage::Snapshot {
                summary,
                ctx: Some(ctx),
            },
            UssMessage::Ack {
                from: SiteId(1),
                seq: 3,
            },
            UssMessage::Resync {
                from: SiteId(1),
                from_seq: 2,
                to_seq: 4,
            },
            UssMessage::SnapshotRequest { from: SiteId(1) },
        ]
    }

    #[test]
    fn wire_size_equals_encoded_length() {
        for msg in sample_messages() {
            for enc in [Encoding::Dense, Encoding::Delta] {
                assert_eq!(
                    msg.wire_size(enc),
                    msg.encode(enc).len() as u64,
                    "{} under {enc:?}",
                    msg.kind()
                );
            }
        }
    }

    #[test]
    fn message_encode_round_trips() {
        for msg in sample_messages() {
            for enc in [Encoding::Dense, Encoding::Delta] {
                let bytes = msg.encode(enc);
                let (decoded, dec_enc) = UssMessage::decode(&bytes).unwrap();
                assert_eq!(decoded, msg);
                if msg.is_data() {
                    assert_eq!(dec_enc, enc);
                }
            }
        }
    }

    #[test]
    fn truncated_messages_never_decode() {
        for msg in sample_messages() {
            let bytes = msg.encode(Encoding::Delta);
            for cut in 0..bytes.len() {
                assert!(
                    UssMessage::decode(&bytes[..cut]).is_err(),
                    "{} cut at {cut}",
                    msg.kind()
                );
            }
        }
    }

    /// Every overlay must connect all sites, with symmetric links, and the
    /// non-forwarding set must never separate two forwarding components.
    #[test]
    fn overlays_are_connected_and_symmetric() {
        for n in [1usize, 2, 3, 5, 8, 17, 32] {
            for overlay in [
                OverlayTopology::FullMesh,
                OverlayTopology::Tree { fanout: 1 },
                OverlayTopology::Tree { fanout: 2 },
                OverlayTopology::Tree { fanout: 4 },
                OverlayTopology::Hub { hubs: 1 },
                OverlayTopology::Hub { hubs: 3 },
            ] {
                let adj: Vec<Vec<usize>> = (0..n).map(|i| overlay.neighbors(i, n)).collect();
                for (i, nbrs) in adj.iter().enumerate() {
                    for &j in nbrs {
                        assert!(j < n && j != i, "{overlay:?} n={n}: bad link {i}->{j}");
                        assert!(
                            adj[j].contains(&i),
                            "{overlay:?} n={n}: asymmetric link {i}->{j}"
                        );
                    }
                }
                // BFS from 0.
                let mut seen = vec![false; n];
                let mut queue = vec![0usize];
                seen[0] = true;
                while let Some(i) = queue.pop() {
                    for &j in &adj[i] {
                        if !seen[j] {
                            seen[j] = true;
                            queue.push(j);
                        }
                    }
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "{overlay:?} n={n}: overlay not connected"
                );
            }
        }
    }

    #[test]
    fn forwarding_marks_interior_nodes_only() {
        let tree = OverlayTopology::Tree { fanout: 2 };
        // 7 sites: 0 (root), 1, 2 interior; 3..=6 leaves.
        assert!(tree.forwards(0, 7));
        assert!(tree.forwards(1, 7));
        assert!(tree.forwards(2, 7));
        for leaf in 3..7 {
            assert!(!tree.forwards(leaf, 7));
        }
        let hub = OverlayTopology::Hub { hubs: 2 };
        assert!(hub.forwards(0, 6) && hub.forwards(1, 6));
        for leaf in 2..6 {
            assert!(!hub.forwards(leaf, 6));
        }
        for i in 0..6 {
            assert!(!OverlayTopology::FullMesh.forwards(i, 6));
        }
    }

    #[test]
    fn hub_links_are_sparse() {
        let overlay = OverlayTopology::Hub { hubs: 4 };
        let n = 32;
        let links: usize = (0..n).map(|i| overlay.neighbors(i, n).len()).sum();
        // 4*3 intra-hub (directed) + 28 leaves * 2 directions.
        assert_eq!(links, 12 + 56);
        let full: usize = (0..n)
            .map(|i| OverlayTopology::FullMesh.neighbors(i, n).len())
            .sum();
        assert_eq!(full, 32 * 31);
    }

    #[test]
    fn node_and_link_depths() {
        let mesh = OverlayTopology::FullMesh;
        assert_eq!(mesh.node_depth(5, 8), 0);
        assert_eq!(mesh.link_depth(2, 5, 8), 1, "every link spans one hop");
        let tree = OverlayTopology::Tree { fanout: 2 };
        // 7 sites: 0 root; 1,2 depth 1; 3..=6 depth 2.
        assert_eq!(tree.node_depth(0, 7), 0);
        assert_eq!(tree.node_depth(1, 7), 1);
        assert_eq!(tree.node_depth(2, 7), 1);
        for leaf in 3..7 {
            assert_eq!(tree.node_depth(leaf, 7), 2);
        }
        assert_eq!(tree.link_depth(0, 1, 7), 1);
        assert_eq!(tree.link_depth(1, 3, 7), 2);
        assert_eq!(tree.link_depth(3, 1, 7), 2, "direction-independent");
        let hub = OverlayTopology::Hub { hubs: 2 };
        assert_eq!(hub.node_depth(0, 6), 0);
        assert_eq!(hub.node_depth(4, 6), 1);
        assert_eq!(hub.link_depth(0, 1, 6), 1);
        assert_eq!(hub.link_depth(0, 4, 6), 1);
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
            map.observe(&LinkObservation {
                staleness_s: stale,
                outbox,
                bytes,
                msgs,
                retries,
                ..LinkObservation::tx(0, 1, 1)
            });
        }
        // Receiver side of the same link.
        map.observe(&LinkObservation {
            heard_age_s: 80.0,
            gaps: 1,
            resyncs: 1,
            ..LinkObservation::rx(0, 1, 1)
        });
        // A second, deeper link.
        map.observe(&LinkObservation {
            staleness_s: 120.0,
            bytes: 50,
            ..LinkObservation::tx(1, 3, 2)
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
    fn health_map_counters_survive_a_reset() {
        // A crash resets the sender's cumulative counters; the map keeps
        // the high-water mark rather than going backwards.
        let mut map = HealthMap::default();
        map.observe(&LinkObservation {
            bytes: 500,
            msgs: 9,
            ..LinkObservation::tx(2, 0, 1)
        });
        map.observe(&LinkObservation {
            bytes: 40,
            msgs: 1,
            ..LinkObservation::tx(2, 0, 1)
        });
        let l = map.finalize();
        assert_eq!((l.links[0].bytes, l.links[0].msgs), (500, 9));
    }
}
