//! The wire messages of the reliable USS↔USS exchange and their binary
//! encoding over `aequus_core::codec`'s `Sink` and `Reader` (protocol and
//! policies: [`crate::reliability`]).

use aequus_core::codec::{
    decode_summary, dense_frame_len, CodecError, Encoding, Publication, Reader, Sink,
};
use aequus_core::ids::SiteId;
use aequus_telemetry::TraceCtx;
use std::sync::Arc;

/// A message of the reliable USS↔USS exchange protocol. A data message
/// shares its summary: one publication is one allocation, held by the
/// publisher's history and by every send, retry and resync answer of it,
/// and encoded once for all of them.
#[derive(Debug, Clone, PartialEq, Hash)]
pub enum UssMessage {
    /// A sequenced incremental summary (absolute per-cell values).
    Summary {
        /// The summary payload.
        summary: Arc<Publication>,
        /// Causal trace context of the pipeline stage that produced this
        /// publication, when the publishing site traces. Retries and
        /// resyncs of the same sequence number resend the *original*
        /// context, so a hop delayed by loss stays in its causal tree.
        ctx: Option<TraceCtx>,
    },
    /// A cumulative snapshot of everything the publisher has ever published;
    /// its `seq` is the publisher's latest sequence number, so applying it
    /// also closes every outstanding gap up to that point.
    Snapshot {
        /// The cumulative payload.
        summary: Arc<Publication>,
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

    /// Short kind tag, naming a message in logs and golden files.
    pub fn kind(&self) -> &'static str {
        match self {
            UssMessage::Summary { .. } => "summary",
            UssMessage::Snapshot { .. } => "snapshot",
            UssMessage::Ack { .. } => "ack",
            UssMessage::Resync { .. } => "resync",
            UssMessage::SnapshotRequest { .. } => "snapshot_request",
        }
    }

    /// Serialized size in bytes as `enc` counts it: under `Delta` the length
    /// of [`UssMessage::encode`]'s output (a regression test holds the two
    /// equal), read off a data message's one frame, so the profiler's
    /// gossip-byte counters and the bench gates account exactly what the
    /// codec produces; under `Dense` with [`dense_frame_len`] in place of
    /// that frame. Deterministic, like everything it feeds.
    pub fn wire_size(&self, enc: Encoding) -> u64 {
        match self {
            UssMessage::Summary { summary, ctx } | UssMessage::Snapshot { summary, ctx } => {
                let ctx_bytes = if ctx.is_some() { 16 } else { 0 };
                let frame = match enc {
                    Encoding::Delta => summary.frame().len() as u64,
                    Encoding::Dense => dense_frame_len(summary),
                };
                2 + ctx_bytes + frame
            }
            UssMessage::Ack { .. } => 1 + 4 + 8,
            UssMessage::Resync { .. } => 1 + 4 + 16,
            UssMessage::SnapshotRequest { .. } => 1 + 4,
        }
    }

    /// Encode to the wire representation: one tag byte, then fixed-width
    /// control fields, or (for data messages) a trace-context presence byte,
    /// the optional 16-byte context, and the CRC-framed summary payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match self {
            UssMessage::Summary { summary, ctx } | UssMessage::Snapshot { summary, ctx } => {
                out.byte(if matches!(self, UssMessage::Summary { .. }) {
                    TAG_SUMMARY
                } else {
                    TAG_SNAPSHOT
                });
                out.byte(u8::from(ctx.is_some()));
                if let Some(c) = ctx {
                    out.u64(c.trace_id);
                    out.u64(c.span);
                }
                out.bytes(summary.frame());
            }
            UssMessage::Ack { from, seq } => {
                out.byte(TAG_ACK);
                out.u32(from.0);
                out.u64(*seq);
            }
            UssMessage::Resync {
                from,
                from_seq,
                to_seq,
            } => {
                out.byte(TAG_RESYNC);
                out.u32(from.0);
                out.u64(*from_seq);
                out.u64(*to_seq);
            }
            UssMessage::SnapshotRequest { from } => {
                out.byte(TAG_SNAPSHOT_REQUEST);
                out.u32(from.0);
            }
        }
        out
    }

    /// Decode a wire frame produced by [`UssMessage::encode`].
    pub fn decode(buf: &[u8]) -> Result<Self, CodecError> {
        let mut r = Reader::new(buf);
        let tag = r.u8()?;
        let msg = match tag {
            TAG_SUMMARY | TAG_SNAPSHOT => {
                let ctx = if r.flag()? {
                    Some(TraceCtx {
                        trace_id: r.u64()?,
                        span: r.u64()?,
                    })
                } else {
                    None
                };
                let summary = Arc::new(Publication::new(decode_summary(r.rest())?));
                return Ok(if tag == TAG_SUMMARY {
                    UssMessage::Summary { summary, ctx }
                } else {
                    UssMessage::Snapshot { summary, ctx }
                });
            }
            TAG_ACK => UssMessage::Ack {
                from: SiteId(r.u32()?),
                seq: r.u64()?,
            },
            TAG_RESYNC => UssMessage::Resync {
                from: SiteId(r.u32()?),
                from_seq: r.u64()?,
                to_seq: r.u64()?,
            },
            TAG_SNAPSHOT_REQUEST => UssMessage::SnapshotRequest {
                from: SiteId(r.u32()?),
            },
            _ => return Err(CodecError::Malformed("unknown message tag")),
        };
        r.finish()?;
        Ok(msg)
    }
}

const TAG_SUMMARY: u8 = 1;
const TAG_SNAPSHOT: u8 = 2;
const TAG_ACK: u8 = 3;
const TAG_RESYNC: u8 = 4;
const TAG_SNAPSHOT_REQUEST: u8 = 5;

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_core::usage::UsageSummary;

    #[test]
    fn message_kinds_and_data_flag() {
        let s = Arc::new(Publication::new(UsageSummary {
            site: SiteId(0),
            seq: 1,
            slot_s: 60.0,
            per_user: Default::default(),
            relayed: Default::default(),
        }));
        let summary = UssMessage::Summary {
            summary: s.clone(),
            ctx: None,
        };
        assert!(summary.is_data());
        let traced = UssMessage::Snapshot {
            summary: s,
            ctx: Some(TraceCtx {
                trace_id: 7,
                span: 9,
            }),
        };
        assert!(traced.is_data());
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
        let summary = Arc::new(Publication::new(UsageSummary {
            site: SiteId(2),
            seq: 11,
            slot_s: 300.0,
            per_user,
            relayed,
        }));
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

    /// Delta counts the bytes `encode` writes; Dense counts the same
    /// message around the fixed-width yardstick in place of its frame.
    #[test]
    fn wire_size_equals_encoded_length() {
        for msg in sample_messages() {
            let len = msg.encode().len() as u64;
            assert_eq!(msg.wire_size(Encoding::Delta), len, "{}", msg.kind());
            let dense = match &msg {
                UssMessage::Summary { summary, .. } | UssMessage::Snapshot { summary, .. } => {
                    len - summary.frame().len() as u64 + dense_frame_len(summary)
                }
                _ => len,
            };
            assert_eq!(msg.wire_size(Encoding::Dense), dense, "{}", msg.kind());
        }
    }

    #[test]
    fn message_encode_round_trips() {
        for msg in sample_messages() {
            assert_eq!(UssMessage::decode(&msg.encode()), Ok(msg));
        }
    }

    #[test]
    fn truncated_messages_never_decode() {
        for msg in sample_messages() {
            let bytes = msg.encode();
            for cut in 0..bytes.len() {
                assert!(
                    UssMessage::decode(&bytes[..cut]).is_err(),
                    "{} cut at {cut}",
                    msg.kind()
                );
            }
        }
    }

    /// The five message kinds over a summary that exercises the section
    /// codec's corners: shared name prefixes, integral and fractional
    /// charges, `-0.0`, a charge above 2^53, a user without cells, a
    /// relayed origin without users, and both trace-context flags.
    fn golden_messages() -> Vec<UssMessage> {
        let cells = |entries: &[(&str, &[(u64, f64)])]| -> aequus_core::UserCells {
            entries
                .iter()
                .map(|(name, slots)| (aequus_core::GridUser::new(*name), slots.to_vec()))
                .collect()
        };
        let summary = Arc::new(Publication::new(UsageSummary {
            site: SiteId(2),
            seq: 11,
            slot_s: 300.0,
            per_user: cells(&[
                ("empty", &[]),
                ("u000120", &[(4, 1200.0), (5, 64.5), (9, 0.125)]),
                ("u000121", &[(4, 300.0)]),
                ("vo-atlas", &[(1, -0.0), (70_000, 9.1e15)]),
            ]),
            relayed: [
                (SiteId(4), cells(&[("u000120", &[(4, 60.0)])])),
                (SiteId(9), cells(&[])),
            ]
            .into(),
        }));
        vec![
            UssMessage::Summary {
                summary: summary.clone(),
                ctx: Some(TraceCtx {
                    trace_id: 0x0102_0304_0506_0708,
                    span: 9,
                }),
            },
            UssMessage::Snapshot { summary, ctx: None },
            UssMessage::Ack {
                from: SiteId(1),
                seq: 3,
            },
            UssMessage::Resync {
                from: SiteId(1),
                from_seq: 2,
                to_seq: 0x1_0000_0000,
            },
            UssMessage::SnapshotRequest { from: SiteId(7) },
        ]
    }

    /// The wire format is pinned byte for byte: `tests/golden/uss_messages.hex`
    /// was generated before the codec moved onto the shared reader and
    /// writer, and a deliberate wire change regenerates it in the same diff.
    #[test]
    fn wire_bytes_match_the_golden_file() {
        let mut actual = String::new();
        for msg in golden_messages() {
            let bytes = msg.encode();
            assert_eq!(UssMessage::decode(&bytes).unwrap(), msg);
            let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
            actual.push_str(&format!("{} Delta {hex}\n", msg.kind()));
        }
        assert_eq!(actual, include_str!("../tests/golden/uss_messages.hex"));
    }
}
