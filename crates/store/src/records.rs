//! The WAL's logical record types and their encodings (over the shared
//! primitives of `aequus_core::codec`): everything a site must re-apply
//! after a crash that is *not* captured by the latest checkpoint — locally
//! ingested job records, peer exchange data already merged into the views,
//! and the publisher's own sequence advances.

use aequus_core::codec::{read_summary, CodecError, Encoding, Publication, Reader, Sink};
use aequus_core::ids::{GridUser, JobId, SiteId};
use aequus_core::usage::UsageRecord;
use std::sync::Arc;

/// How every durable usage cell is laid out — WAL peer data and checkpoint
/// mirrors alike: the wire codec's sections under its lossless columnar
/// encoding. A constant of the format, not a setting: changing it is a new
/// record kind and checkpoint version.
pub(crate) const CELL_ENCODING: Encoding = Encoding::Delta;

/// One durable WAL entry.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A job usage record ingested into the local histogram.
    Usage(UsageRecord),
    /// Peer exchange data applied to the remote view: the absolute
    /// cumulative summary as received, and whether it arrived as a
    /// cumulative `Snapshot` (vs an incremental `Data` summary).
    PeerData {
        /// The summary exactly as merged, relayed per-origin sections
        /// included (overlay interior nodes journal exactly what they
        /// merged) — the delivered message's own allocation, not a copy,
        /// journaled as its one encoding under the durable cell encoding.
        summary: Arc<Publication>,
        /// `true` when it was a cumulative snapshot.
        snapshot: bool,
    },
    /// The local publisher advanced its sequence counter to `seq` —
    /// replayed so a recovered site never reuses sequence numbers peers
    /// have already acked (stale-ack protection).
    Publish {
        /// The sequence number just published.
        seq: u64,
    },
}

const TAG_USAGE: u8 = 1;
const TAG_PEER_DATA: u8 = 2;
const TAG_PUBLISH: u8 = 3;

impl WalRecord {
    /// Append the record's encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Usage(rec) => {
                out.byte(TAG_USAGE);
                out.u64(rec.job.0);
                out.str(rec.user.as_str());
                out.u32(rec.site.0);
                out.u32(rec.cores);
                out.f64(rec.start_s);
                out.f64(rec.end_s);
            }
            WalRecord::PeerData { summary, snapshot } => {
                out.byte(TAG_PEER_DATA);
                out.byte(u8::from(*snapshot));
                out.bytes(summary.body(CELL_ENCODING));
            }
            WalRecord::Publish { seq } => {
                out.byte(TAG_PUBLISH);
                out.u64(*seq);
            }
        }
    }

    /// Decode one record, which must be all of what `r` holds.
    pub fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let rec = match r.u8()? {
            TAG_USAGE => WalRecord::Usage(UsageRecord {
                job: JobId(r.u64()?),
                user: GridUser::new(r.str()?),
                site: SiteId(r.u32()?),
                cores: r.u32()?,
                start_s: r.f64()?,
                end_s: r.f64()?,
            }),
            TAG_PEER_DATA => WalRecord::PeerData {
                snapshot: r.flag()?,
                summary: read_summary(r, CELL_ENCODING)?.into(),
            },
            TAG_PUBLISH => WalRecord::Publish { seq: r.u64()? },
            _ => return Err(CodecError::Malformed("unknown record tag")),
        };
        r.finish()?;
        Ok(rec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_core::usage::UsageSummary;
    use std::collections::BTreeMap;

    fn sample_summary(seq: u64) -> Arc<Publication> {
        let per_user = [
            (GridUser::new("U65"), vec![(3, 120.5), (7, 0.25)]),
            (GridUser::new("U30"), vec![]),
        ];
        let relay_cells = [(GridUser::new("U7"), vec![(9, 64.0)])];
        let relayed = BTreeMap::from([(SiteId(9), relay_cells.into())]);
        UsageSummary {
            site: SiteId(4),
            seq,
            slot_s: 60.0,
            per_user: per_user.into(),
            relayed,
        }
        .into()
    }

    fn round_trip(rec: &WalRecord) -> WalRecord {
        let mut bytes = Vec::new();
        rec.encode(&mut bytes);
        WalRecord::decode(&mut Reader::new(&bytes)).unwrap()
    }

    #[test]
    fn usage_round_trip() {
        let rec = WalRecord::Usage(UsageRecord {
            job: JobId(991),
            user: GridUser::new("U3"),
            site: SiteId(2),
            cores: 16,
            start_s: 10.0,
            end_s: 190.75,
        });
        assert_eq!(round_trip(&rec), rec);
    }

    #[test]
    fn peer_data_round_trip() {
        for snapshot in [false, true] {
            let rec = WalRecord::PeerData {
                summary: sample_summary(17),
                snapshot,
            };
            assert_eq!(round_trip(&rec), rec);
        }
    }

    #[test]
    fn publish_round_trip() {
        let rec = WalRecord::Publish { seq: u64::MAX };
        assert_eq!(round_trip(&rec), rec);
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_errors() {
        let mut r = Reader::new(&[0xFF, 0, 0, 0]);
        assert!(WalRecord::decode(&mut r).is_err());
        let mut bytes = Vec::new();
        WalRecord::Publish { seq: 4 }.encode(&mut bytes);
        bytes.push(0);
        assert!(WalRecord::decode(&mut Reader::new(&bytes)).is_err());
    }

    #[test]
    fn truncated_record_is_an_error() {
        let mut bytes = Vec::new();
        WalRecord::PeerData {
            summary: sample_summary(3),
            snapshot: true,
        }
        .encode(&mut bytes);
        for cut in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..cut]);
            assert!(WalRecord::decode(&mut r).is_err(), "cut at {cut}");
        }
    }
}
