//! The durable bytes, pinned: a store over memory journals one record of
//! each kind and cuts one checkpoint of a literal state, and every object it
//! leaves — the WAL segment, frame by frame, and the checkpoint slot — must
//! equal `golden/durable.hex` byte for byte. The cells are chosen to reach
//! the corners of the section layout: names sharing long prefixes and names
//! that are the prefix of the next, an empty row, `-0.0`, NaN payloads,
//! subnormals, 2^53 ± 1, `f64::MAX` and slot gaps up to `u64::MAX`.
//!
//! Regenerate only for a deliberate format change (a new record kind or
//! checkpoint version), never to make an encoder change pass.

use aequus_core::ids::{GridUser, JobId, SiteId};
use aequus_core::usage::{UsageRecord, UsageSummary, UserCells};
use aequus_store::records::WalRecord;
use aequus_store::{CheckpointState, MemStorage, PeerCursor, SiteStore, StoreConfig};
use std::collections::BTreeMap;

fn cells(rows: &[(&str, &[(u64, f64)])]) -> UserCells {
    rows.iter()
        .map(|(name, row)| (GridUser::new(*name), row.to_vec()))
        .collect()
}

fn local() -> UserCells {
    cells(&[
        ("", &[(0, 1.0)]),
        ("u", &[]),
        ("u000120", &[(4, 1200.0), (5, 64.5), (9, 0.125), (10, -0.0)]),
        ("u0001200", &[(u64::MAX, 9_007_199_254_740_991.0)]),
        (
            "u000121",
            &[(0, 9_007_199_254_740_992.0), (1, 9_007_199_254_740_993.0)],
        ),
        (
            "vo-atlas/prod",
            &[
                (1 << 40, f64::MAX),
                ((1 << 40) + 1, f64::MIN_POSITIVE / 4.0),
            ],
        ),
        (
            "vo-atlas/prod-long",
            &[(7, f64::from_bits(0x7FF8_0000_0000_00FF))],
        ),
        (
            "ω-ü",
            &[(3, f64::from_bits(0xFFF0_0000_0000_0001)), (4, 5e-324)],
        ),
    ])
}

fn state() -> CheckpointState {
    let origin = cells(&[
        ("u000120", &[(4, 60.0), (u64::MAX - 1, 0.1)]),
        ("w", &[(0, 1.0), (1, 2.0), (2, 3.5)]),
    ]);
    CheckpointState {
        lsn: 4,
        taken_s: 1234.5,
        site: SiteId(1),
        slot_s: 300.0,
        local_cells: local(),
        records_ingested: 42,
        next_seq: 17,
        peers: [(SiteId(0), 3), (SiteId(2), 9)]
            .into_iter()
            .map(|(site, next_expected)| (site, PeerCursor { next_expected }))
            .collect(),
        origin_cells: [(SiteId(2), origin), (SiteId(7), UserCells::new())]
            .into_iter()
            .collect(),
    }
}

fn records() -> Vec<WalRecord> {
    let summary = |seq, relayed| UsageSummary {
        site: SiteId(2),
        seq,
        slot_s: 300.0,
        per_user: local(),
        relayed,
    };
    let relayed: BTreeMap<SiteId, UserCells> = [(
        SiteId(7),
        cells(&[("u000120", &[(4, 60.0)]), ("x", &[(2, 0.75)])]),
    )]
    .into_iter()
    .collect();
    vec![
        WalRecord::Usage(UsageRecord {
            job: JobId(77),
            user: GridUser::new("u000120"),
            site: SiteId(1),
            cores: 8,
            start_s: 60.0,
            end_s: 1260.25,
        }),
        WalRecord::PeerData {
            summary: summary(11, relayed).into(),
            snapshot: false,
        },
        WalRecord::PeerData {
            summary: summary(12, BTreeMap::new()).into(),
            snapshot: true,
        },
        WalRecord::Publish { seq: 16 },
    ]
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn durable_bytes_match_the_golden_file() {
    let cfg = StoreConfig {
        segment_bytes: 1 << 20,
        checkpoint_interval_s: f64::INFINITY,
    };
    let (mut store, _) = SiteStore::open(MemStorage::new(), cfg);
    for rec in records() {
        store.append(&rec);
    }
    store.checkpoint(&state().view());
    let storage = store.into_storage();
    let mut names = storage.list();
    names.sort();
    let mut actual = String::new();
    for name in names {
        let bytes = storage.read(&name).expect("listed object");
        actual.push_str(&format!("{name} {}\n", hex(bytes)));
    }
    assert_eq!(actual, include_str!("golden/durable.hex"));
    // The pinned slot is the literal state, and it re-encodes to itself.
    let slot = storage.read("ckpt-a").expect("first slot");
    let back = CheckpointState::decode_slot(slot).expect("the slot decodes");
    assert_eq!(back.encode(), slot);
}
