//! The wire messages of the reliable USS↔USS exchange and their binary
//! codec (protocol and policies: [`crate::reliability`]).

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

#[cfg(test)]
mod tests {
    use super::*;

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
}
