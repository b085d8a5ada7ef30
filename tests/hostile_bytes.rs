//! Never-panic byte loops over every decoder and parser that takes bytes
//! from outside a site: wire frames, WAL frames and records, checkpoint
//! slots, policy files, SWF traces, and the JSON reader.
//!
//! The byte formats all read through `aequus::core::codec::Reader`, so the
//! loops below patrol one reader, reached through every format built on it.
//!
//! Each target starts from valid encodings and is fed seeded mutants —
//! truncations, bit flips, byte splats, pure noise — a few thousand each.
//! A mutant may decode (a flipped mantissa bit is still a float) or be
//! rejected; what it may never do is panic — nor, for an SWF trace, be
//! accepted with a value no job can hold. The checkpoint payload is also
//! mutated *behind a valid CRC* — version skew, not bit rot — which is the
//! one path the frame checksum cannot shield.
//!
//! Decoding is half of it: every wire mutant that still decodes to a
//! [`UssMessage`] is then *delivered* to a serving three-site fixture, so
//! the handlers behind the decoder are held to the same rule.

use aequus::core::codec::{
    crc32, decode_cells, decode_summary, encode_summary, CodecError, NamedCells, Reader,
};
use aequus::core::flat_policy;
use aequus::core::{
    parse_policy, EntityPath, FairshareConfig, GridUser, JobId, ProjectionKind, SiteId,
    UsageRecord, UsageSummary, UserCells,
};
use aequus::services::{
    AequusSite, HealthMap, LinkObservation, LinkSide, ParticipationMode, RetryPolicy,
    ServiceTimings, StalePolicy, UssMessage,
};
use aequus::sim::{GridScenario, GridSimulation};
use aequus::store::wal::{decode_frame, encode_frame, FrameOutcome, KIND_CHECKPOINT, KIND_RECORD};
use aequus::store::{CheckpointState, PeerCursor, WalRecord};
use aequus::telemetry::export::JsonValue;
use aequus::telemetry::profile::ProfSpan;
use aequus::telemetry::{RunProfile, ShardProfile, StageStats, TraceCtx};
use aequus::workload::swf::{parse_swf, to_swf};
use aequus::workload::{Trace, TraceJob};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

mod oracle;

/// Mutants per valid input and mutation kind.
const ROUNDS: usize = 1_000;

fn seed() -> u64 {
    let shift: u64 = std::env::var("AEQUUS_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    0xAE9_0005 + shift
}

/// Name-keyed rows from `(user, slot, charge)`, each user's in slot order.
fn cells(pairs: &[(&str, u64, f64)]) -> UserCells {
    let mut out = UserCells::new();
    for &(user, slot, charge) in pairs {
        out.entry(GridUser::new(user))
            .or_default()
            .push((slot, charge));
    }
    out
}

fn summary() -> UsageSummary {
    UsageSummary {
        site: SiteId(2),
        seq: 9,
        slot_s: 3600.0,
        per_user: cells(&[("U65", 3, 120.5), ("U65", 4, 0.25), ("U30", 3, 7200.0)]),
        relayed: [(SiteId(4), cells(&[("C=SE/O=HPC2N/CN=u7", 1, 64.0)]))].into(),
    }
}

fn checkpoint() -> CheckpointState {
    CheckpointState {
        lsn: 41,
        taken_s: 5400.0,
        site: SiteId(1),
        slot_s: 3600.0,
        local_cells: cells(&[("U65", 0, 900.0), ("U3", 1, 12.0)]),
        records_ingested: 17,
        next_seq: 6,
        peers: [
            (SiteId(0), PeerCursor { next_expected: 4 }),
            (SiteId(2), PeerCursor { next_expected: 9 }),
        ]
        .into(),
        origin_cells: [(SiteId(0), cells(&[("U30", 0, 33.0)]))].into(),
    }
}

fn wal_payloads() -> Vec<Vec<u8>> {
    [
        WalRecord::Usage(UsageRecord {
            job: JobId(7),
            user: GridUser::new("U65"),
            site: SiteId(1),
            cores: 4,
            start_s: 10.0,
            end_s: 250.0,
        }),
        WalRecord::PeerData {
            summary: summary().into(),
            snapshot: true,
        },
        WalRecord::Publish { seq: 12 },
    ]
    .iter()
    .map(|rec| {
        let mut bytes = Vec::new();
        rec.encode(&mut bytes);
        bytes
    })
    .collect()
}

fn messages() -> Vec<Vec<u8>> {
    let ctx = Some(TraceCtx {
        trace_id: 77,
        span: 3,
    });
    [
        UssMessage::Summary {
            summary: summary().into(),
            ctx,
        },
        UssMessage::Snapshot {
            summary: summary().into(),
            ctx: None,
        },
        UssMessage::Ack {
            from: SiteId(1),
            seq: 9,
        },
        UssMessage::Resync {
            from: SiteId(1),
            from_seq: 3,
            to_seq: 8,
        },
        UssMessage::SnapshotRequest { from: SiteId(1) },
    ]
    .iter()
    .map(UssMessage::encode)
    .collect()
}

/// JSON documents the program writes: a health report with a non-finite
/// field (written as a quoted marker) and a run profile's Chrome trace.
fn json_documents() -> Vec<Vec<u8>> {
    let mut map = HealthMap::default();
    let tx = LinkSide::Tx {
        staleness_s: 30.0,
        outbox: 2,
        bytes: 4096,
        msgs: 12,
        retries: 1,
        snapshots: 0,
    };
    let rx = LinkSide::Rx {
        heard_age_s: 45.5,
        gaps: 1,
        resyncs: 1,
    };
    for side in [tx, rx] {
        map.observe(&LinkObservation {
            from: 0,
            to: 1,
            depth: 1,
            side,
        });
    }
    let mut report = map.finalize();
    report.staleness_p99_s = f64::INFINITY;
    let span = |name, epoch, start_ns| ProfSpan {
        name,
        epoch,
        limit_s: 60.0 * epoch as f64,
        start_ns,
        dur_ns: 1_500,
        events: 7,
    };
    let stats = StageStats {
        calls: 3,
        wall_ns: 9_000,
        bytes: 256,
    };
    let profile = RunProfile {
        shards: vec![ShardProfile {
            shard: 1,
            stages: [("gossip.wire".to_string(), stats)].into(),
            spans: vec![span("epoch", 1, 0), span("barrier.wait", 1, 1_500)],
            spans_dropped: 0,
            link_bytes: [(0, 256)].into(),
            queue_hwm: 4,
        }],
        services: [("uss.ingest".to_string(), stats)].into(),
        mailbox_hwm: 2,
    };
    vec![
        report.to_json().into_bytes(),
        profile.to_chrome_trace().into_bytes(),
    ]
}

const POLICY: &str = "# comments and blank lines are ignored\n\
    /local            60\n\
    /grid             40   mount=national-pds\n\
    /grid/atlas       70   user=C=SE/O=CERN/CN=atlas-prod\n\
    /grid/cms         30\n";

/// Two shares whose sum sits just under `f64::MAX`: one flipped digit
/// carries it past.
const HUGE_SHARES: &[u8] = b"/a 9e307\n/b 8e307\n";

/// A trace `to_swf` writes, and a line in exponent form whose every number
/// one flipped digit carries past what its job can hold (1e388, 9e19).
fn swf() -> Vec<Vec<u8>> {
    let trace = Trace::new(
        (0..6)
            .map(|i| TraceJob {
                user: ["U65", "U30", "U3"][i % 3].to_string(),
                submit_s: i as f64 * 15.0,
                duration_s: 40.0 + i as f64,
                cores: 1 + i as u32,
            })
            .collect(),
    );
    let wide = "1 1e308 -1 3e307 4e9 -1 -1 1 100 -1 1 9e18 -1 -1 -1 -1 -1 -1\n";
    vec![to_swf(&trace).into_bytes(), wide.as_bytes().to_vec()]
}

/// The SWF reader's value oracle: a trace it accepts holds only jobs that
/// can run — a finite submit time ≥ 0, a finite run time > 0, a core.
fn swf_accepted(bytes: &[u8]) -> bool {
    let Ok(trace) = parse_swf(&text(bytes)) else {
        return false;
    };
    for job in trace.jobs() {
        let submit = job.submit_s.is_finite() && job.submit_s >= 0.0;
        let runs = job.duration_s.is_finite() && job.duration_s > 0.0;
        assert!(
            submit && runs && job.cores >= 1,
            "parse_swf accepted {job:?}"
        );
    }
    true
}

/// The policy parser's oracle: a file it accepts gives every user a finite
/// absolute share in [0, 1], and every group's normalized children sum to
/// 1 or are empty.
fn policy_accepted(bytes: &[u8]) -> bool {
    let Ok(policy) = parse_policy(&text(bytes)) else {
        return false;
    };
    for (path, _) in policy.users() {
        let share = policy.absolute_share(&path);
        let held = share.is_some_and(|s| s.is_finite() && (0.0..=1.0).contains(&s));
        assert!(held, "parse_policy accepted {path} at {share:?}");
    }
    let root = policy.to_node();
    let mut groups = vec![(EntityPath::root(), &root)];
    while let Some((path, node)) = groups.pop() {
        let shares = policy.normalized_children(&path);
        let sum: f64 = shares.values().sum();
        assert!(
            shares.is_empty() || (sum - 1.0).abs() <= 1e-9,
            "parse_policy accepted {path}'s children summing to {sum}"
        );
        groups.extend(node.children.iter().map(|c| (path.child(&c.name), c)));
    }
    true
}

/// The section decoder's oracle: cells it accepts re-encode to exactly the
/// bytes it consumed — decode is canonical, so no two byte strings stand
/// for one section.
fn canonical_section(bytes: &[u8]) -> bool {
    let mut r = Reader::new(bytes);
    let Ok(cells) = decode_cells(&mut r) else {
        return false;
    };
    let consumed = &bytes[..bytes.len() - r.rest().len()];
    let mut again = Vec::new();
    NamedCells::from_cells(&cells).encode(&mut again);
    assert_eq!(again, consumed, "accepted a non-canonical section");
    true
}

/// One mutant of `valid`: kind 0 truncates, 1 flips up to four bits, 2
/// splats one byte value over a short run, 3 is pure noise of similar size.
fn mutant(valid: &[u8], kind: usize, rng: &mut StdRng) -> Vec<u8> {
    let mut out = valid.to_vec();
    match kind {
        0 => out.truncate(rng.gen_range(0..valid.len())),
        1 => {
            for _ in 0..rng.gen_range(1..=4usize) {
                let at = rng.gen_range(0..out.len());
                out[at] ^= 1u8 << rng.gen_range(0..8u32);
            }
        }
        2 => {
            let at = rng.gen_range(0..out.len());
            let run = rng.gen_range(1..=8usize).min(out.len() - at);
            // The values length fields and tags are most sensitive to.
            let fill =
                [0x00, 0xFF, 0x7F, 0x80, rng.gen_range(0..=u8::MAX)][rng.gen_range(0..5usize)];
            out[at..at + run].fill(fill);
        }
        _ => {
            out = (0..rng.gen_range(0..=2 * valid.len()))
                .map(|_| rng.gen_range(0..=u8::MAX))
                .collect();
        }
    }
    out
}

/// A decoder under test: whether it accepted the bytes.
type Target = fn(&[u8]) -> bool;

/// Feed `target` every valid input (which it must accept) and `ROUNDS`
/// mutants of each kind per input; a panic fails the test naming the
/// target and the input. Returns how many mutants were rejected.
fn hammer(name: &str, valid: &[Vec<u8>], target: Target) -> usize {
    let mut rng = StdRng::seed_from_u64(seed() ^ name.len() as u64);
    let mut rejected = 0;
    for input in valid {
        assert!(target(input), "{name}: the valid input must be accepted");
        for kind in 0..4 {
            for _ in 0..ROUNDS {
                let bytes = mutant(input, kind, &mut rng);
                match std::panic::catch_unwind(|| target(&bytes)) {
                    Ok(accepted) => rejected += usize::from(!accepted),
                    Err(_) => panic!(
                        "{name} panicked on mutation kind {kind} (seed {}): {bytes:02x?}",
                        seed()
                    ),
                }
            }
        }
    }
    rejected
}

fn text(bytes: &[u8]) -> std::borrow::Cow<'_, str> {
    String::from_utf8_lossy(bytes)
}

#[test]
fn no_decoder_or_parser_panics_on_mutated_input() {
    let summaries = vec![encode_summary(&summary())];
    let frames: Vec<Vec<u8>> = wal_payloads()
        .iter()
        .map(|p| encode_frame(KIND_RECORD, p))
        .collect();
    let slot = checkpoint().encode();
    // Bare cell sections, as the store embeds them: no CRC in front of the
    // section decoder at all.
    let mut section = Vec::new();
    NamedCells::from_cells(&summary().per_user).encode(&mut section);

    let targets: [(&str, Vec<Vec<u8>>, Target); 9] = [
        ("core::decode_summary", summaries, |b| {
            decode_summary(b).is_ok()
        }),
        (
            "core::decode_cells, delta",
            vec![section],
            canonical_section,
        ),
        ("UssMessage::decode", messages(), |b| {
            UssMessage::decode(b).is_ok()
        }),
        ("wal::decode_frame", frames, |b| {
            matches!(decode_frame(b, 0), FrameOutcome::Frame { .. })
        }),
        ("WalRecord::decode", wal_payloads(), |b| {
            WalRecord::decode(&mut Reader::new(b)).is_ok()
        }),
        ("CheckpointState::decode_slot", vec![slot], |b| {
            CheckpointState::decode_slot(b).is_some()
        }),
        (
            "parse_policy",
            vec![POLICY.as_bytes().to_vec(), HUGE_SHARES.to_vec()],
            policy_accepted,
        ),
        ("parse_swf", swf(), swf_accepted),
        ("JsonValue::parse", json_documents(), |b| {
            JsonValue::parse(&text(b)).is_some()
        }),
    ];
    for (name, valid, target) in targets {
        let rejected = hammer(name, &valid, target);
        assert!(rejected > 0, "{name}: no mutant reached an error path");
    }
}

/// The checkpoint loader behind a *valid* frame CRC: the payload is mutated
/// first and framed afterwards, as a slot written by a skewed or buggy
/// version would be — the checksum passes and the payload decoder is on
/// its own.
#[test]
fn a_mutated_checkpoint_payload_under_a_valid_crc_never_panics() {
    let slot = checkpoint().encode();
    let FrameOutcome::Frame { payload, .. } = decode_frame(&slot, 0) else {
        panic!("a fresh checkpoint slot is one valid frame");
    };
    let rejected = hammer("checkpoint payload, re-framed", &[payload.to_vec()], |b| {
        CheckpointState::decode_slot(&encode_frame(KIND_CHECKPOINT, b)).is_some()
    });
    assert!(
        rejected > 0,
        "no mutant reached the payload decoder's errors"
    );
}

/// The fixed-width frame the retired Dense writer produced for [`summary`]:
/// encoding tag 0 behind a valid CRC.
const DENSE_FRAME: &str = concat!(
    "a901000209000000000020ac4002020203000000553330010000000300000000000000",
    "000000000020bc40030000005536350200000003000000000000000000000000205e40",
    "0400000000000000000000000000d03f040112000000433d53452f4f3d485043324e2f",
    "434e3d753701000000010000000000000000000000000050403743ddb9",
);

/// A frame under the retired Dense tag, or under a tag no writer ever
/// used, is refused by its tag before a byte of its body is read — by the
/// frame decoder and by the message decoder around it.
#[test]
fn a_retired_or_unknown_encoding_tag_is_refused() {
    let hex = |s: &str| -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex"))
            .collect()
    };
    let mut unknown = encode_summary(&summary());
    unknown.truncate(unknown.len() - 4);
    unknown[2] = 2;
    let crc = crc32(&unknown);
    unknown.extend_from_slice(&crc.to_le_bytes());
    for (frame, tag) in [(hex(DENSE_FRAME), 0), (unknown, 2)] {
        let refused = Some(CodecError::BadEncoding(tag));
        assert_eq!(decode_summary(&frame).err(), refused, "tag {tag}");
        let message = [&[1, 0][..], &frame].concat();
        assert_eq!(UssMessage::decode(&message).err(), refused, "tag {tag}");
    }
}

/// Summaries a fixture site keeps for resync answers: small, so the eight
/// rounds below compact the history several times over.
const HISTORY_CAP: usize = 3;

/// The fixture's users: site `i` runs the jobs of `USERS[i]`.
const USERS: [&str; 3] = ["U65", "U30", "U3"];

/// Three serving sites on a star (site 1 the forwarding hub), binned like
/// [`summary`] so a mutated summary's cells really merge. Eight rounds of
/// local usage, publication and exchange leave every site with published,
/// merged, relayed and compacted history.
fn serving_sites() -> Vec<AequusSite> {
    let timings = ServiceTimings {
        report_delay_s: 1.0,
        uss_publish_interval_s: 60.0,
        ums_refresh_interval_s: 60.0,
        fcs_refresh_interval_s: 60.0,
        lib_cache_ttl_s: 5.0,
        lib_identity_ttl_s: 60.0,
        exchange_latency_s: 1.0,
    };
    let retry = RetryPolicy {
        history_cap: HISTORY_CAP,
        ..RetryPolicy::default()
    };
    let policy = flat_policy(&[("U65", 0.65), ("U30", 0.30), ("U3", 0.05)]).expect("valid policy");
    let mut sites: Vec<AequusSite> = (0..3u32)
        .map(|i| {
            let mut site = AequusSite::new(
                SiteId(i),
                policy.clone(),
                FairshareConfig::default(),
                ProjectionKind::Percental,
                timings,
                ParticipationMode::Full,
                3600.0,
            );
            let peers: &[SiteId] = if i == 1 {
                &[SiteId(0), SiteId(2)]
            } else {
                &[SiteId(1)]
            };
            site.configure_exchange(peers, peers, retry, StalePolicy::ServeStale, 7);
            site.uss.set_forwarding(i == 1);
            site
        })
        .collect();
    for round in 0..8u32 {
        let opened = f64::from(round) * 3600.0;
        for (i, site) in sites.iter_mut().enumerate() {
            let record = UsageRecord {
                job: JobId(u64::from(round) * 3 + i as u64),
                user: GridUser::new(USERS[i]),
                site: SiteId(i as u32),
                cores: 1 + i as u32,
                start_s: opened + 10.0,
                end_s: opened + 400.0,
            };
            site.report_completion(record, opened + 400.0);
        }
        // Past the slot's close: the round's usage is published.
        let now = opened + 3605.0;
        let mut flying: Vec<(SiteId, UssMessage)> = Vec::new();
        for site in &mut sites {
            site.tick(now);
            flying.extend(site.poll_messages(now));
        }
        while let Some((dest, msg)) = flying.pop() {
            flying.extend(sites[dest.0 as usize].deliver_message(&msg, now));
        }
    }
    assert!(sites
        .iter()
        .all(|s| s.uss.next_seq() > HISTORY_CAP as u64 + 1));
    assert!(sites.iter().all(|s| s.uss.remote_total() > 0.0));
    sites
}

/// Every site's raw grid view, bit for bit.
fn views(sites: &[AequusSite]) -> Vec<Vec<(GridUser, u64)>> {
    let bits = |s: &AequusSite| s.uss.grid_view().into_iter().map(|(u, v)| (u, v.to_bits()));
    sites.iter().map(|s| bits(s).collect()).collect()
}

/// Deliver `msg` to every fixture site, as a peer that can say anything
/// well-formed would: no panic, a bounded answer, and afterwards every cell
/// the site would checkpoint (its own and each origin's mirror) is still a
/// charge and every view entry a non-negative number. A control message
/// (`Ack`, `Resync`, `SnapshotRequest`) additionally moves no view at all.
fn deliver_everywhere(sites: &mut [AequusSite], msg: &UssMessage, now: f64, what: &str) {
    let before = (!msg.is_data()).then(|| views(sites));
    for site in sites.iter_mut() {
        let id = site.id().0;
        let Ok(responses) = catch_unwind(AssertUnwindSafe(|| site.deliver_message(msg, now)))
        else {
            panic!(
                "site {id} panicked handling {what} (seed {}): {msg:?}",
                seed()
            );
        };
        assert!(
            responses.len() <= HISTORY_CAP + 1,
            "site {id} answered {what} with {} messages: {msg:?}",
            responses.len()
        );
        let held = site.uss.checkpoint_view(0, now);
        let mirrored = held.origin_cells.iter().map(|(_, cells)| cells);
        for (_, cells) in std::iter::once(&held.local_cells)
            .chain(mirrored)
            .flat_map(NamedCells::iter)
        {
            assert!(
                cells.iter().all(|(_, c)| c.is_finite() && *c >= 0.0),
                "site {id} holds a non-charge after {what}: {msg:?}"
            );
        }
        assert!(
            site.uss.grid_view().values().all(|v| *v >= 0.0),
            "site {id} serves a negative or NaN view after {what}: {msg:?}"
        );
    }
    if let Some(before) = before {
        assert!(before == views(sites), "{what} moved a view: {msg:?}");
    }
}

/// Handlers, not only decoders, survive outside bytes: every mutant of a
/// valid wire message that still decodes is delivered to all three serving
/// sites, followed by the explicit extremes a mutation is unlikely to hit —
/// the full-range `Resync` that used to overflow (debug) or walk 2^64
/// sequence numbers (release), an inverted range, and data messages
/// numbered `u64::MAX` and `0`.
#[test]
fn no_handler_panics_or_overcounts_on_a_message_that_still_decodes() {
    let mut sites = serving_sites();
    let mut rng = StdRng::seed_from_u64(seed() ^ 0x5173);
    let now = 9.0 * 3600.0;
    let mut delivered = 0usize;
    for input in messages() {
        for kind in 0..4 {
            for _ in 0..ROUNDS {
                if let Ok(msg) = UssMessage::decode(&mutant(&input, kind, &mut rng)) {
                    deliver_everywhere(&mut sites, &msg, now, "a decoded mutant");
                    delivered += 1;
                }
            }
        }
    }
    assert!(delivered > ROUNDS, "only {delivered} mutants decoded");

    let from = SiteId(2);
    let numbered = |seq: u64| UsageSummary { seq, ..summary() };
    let extremes = [
        UssMessage::Resync {
            from,
            from_seq: 0,
            to_seq: u64::MAX,
        },
        UssMessage::Resync {
            from,
            from_seq: 1,
            to_seq: u64::MAX,
        },
        UssMessage::Resync {
            from,
            from_seq: 9,
            to_seq: 2,
        },
        UssMessage::Snapshot {
            summary: numbered(u64::MAX).into(),
            ctx: None,
        },
        UssMessage::Summary {
            summary: numbered(u64::MAX).into(),
            ctx: None,
        },
        UssMessage::Summary {
            summary: numbered(0).into(),
            ctx: None,
        },
    ];
    for msg in &extremes {
        deliver_everywhere(&mut sites, msg, now, "an extreme case");
    }
    // A journaled publish cursor at the end of the number line replays and
    // the site publishes on (the cursor saturates).
    sites[0].uss.replay_publish_seq(u64::MAX);
    // The fixture still serves: another round of usage is published and
    // every factor is a probability.
    for (i, site) in sites.iter_mut().enumerate() {
        let user = GridUser::new(USERS[i]);
        site.report_completion(
            UsageRecord {
                job: JobId(1_000 + i as u64),
                user: user.clone(),
                site: SiteId(i as u32),
                cores: 1,
                start_s: now + 10.0,
                end_s: now + 50.0,
            },
            now + 50.0,
        );
        site.tick(now + 3700.0);
        assert!(!site.poll_messages(now + 3700.0).is_empty());
        let factor = site.fairshare(&user, now + 3700.0);
        assert!((0.0..=1.0).contains(&factor), "site {i}: {factor}");
    }
}

/// Names arrive from outside and ids are the site's: a summary or a
/// checkpoint that is refused interns nothing — the site's user table is as
/// long after as before — and one that is accepted grows it by exactly the
/// identities it names that the site had never met, whose usage every view
/// then carries.
#[test]
fn outside_names_grow_a_site_only_through_bytes_it_accepts() {
    let mut sites = serving_sites();
    let now = 9.0 * 3600.0;
    let tables = |sites: &[AequusSite]| -> Vec<usize> {
        sites.iter().map(|s| s.uss.users().len()).collect()
    };
    let before = tables(&sites);
    assert_eq!(before, [3, 3, 3], "the policy's users and nobody else");
    let views_before = views(&sites);
    let from_outside = |per_user: UserCells, slot_s: f64| UsageSummary {
        site: SiteId(7),
        seq: 1,
        slot_s,
        per_user,
        relayed: [(SiteId(8), cells(&[("ghost-relayed", 2, 9.0)]))].into(),
    };

    // Refused whole: the bad cell sorts after two unseen names that a
    // name-by-name merge would already have interned.
    let refused = [
        from_outside(
            cells(&[
                ("ghost-a", 1, 5.0),
                ("ghost-b", 1, 2.5),
                ("ghost-c", 1, f64::INFINITY),
            ]),
            3600.0,
        ),
        from_outside(cells(&[("ghost-a", 1, 5.0)]), 60.0),
    ];
    for summary in refused {
        for snapshot in [false, true] {
            let summary: Arc<_> = summary.clone().into();
            let msg = match snapshot {
                false => UssMessage::Summary { summary, ctx: None },
                true => UssMessage::Snapshot { summary, ctx: None },
            };
            for site in &mut sites {
                assert!(
                    site.deliver_message(&msg, now).is_empty(),
                    "no ack for {msg:?}"
                );
            }
        }
        assert_eq!(tables(&sites), before, "a refused summary interned a name");
    }
    assert!(sites.iter().all(|s| s.uss.rejected() == 4));
    // A checkpoint refused for any of its three reasons, each naming
    // identities the site never met.
    for site in &mut sites {
        let view = site.uss.checkpoint_view(0, now);
        let own = CheckpointState::decode_slot(&view.encode()).expect("a fresh slot decodes");
        let mut stranger = cells(&[("ghost-d", 0, 1.0)]);
        let mut bad_cell = own.clone();
        bad_cell.local_cells.append(&mut stranger.clone());
        (bad_cell.origin_cells.entry(SiteId(9)).or_default())
            .append(&mut cells(&[("ghost-e", 0, 1.0), ("ghost-f", 3, f64::NAN)]));
        let mut elsewhere = own.clone();
        elsewhere.site = SiteId(5);
        elsewhere.local_cells.append(&mut stranger.clone());
        let mut misbinned = own;
        misbinned.slot_s = 60.0;
        misbinned.local_cells.append(&mut stranger);
        for refused in [bad_cell, elsewhere, misbinned] {
            assert!(site.uss.install_checkpoint(&refused).is_err());
        }
    }
    assert_eq!(
        tables(&sites),
        before,
        "a refused checkpoint interned a name"
    );
    assert!(
        views_before == views(&sites),
        "a refused input moved a view"
    );

    // Accepted: two unseen identities of its own, one relayed, one known.
    let accepted = from_outside(
        cells(&[("ghost-a", 1, 5.0), ("ghost-b", 1, 2.5), ("U65", 1, 1.0)]),
        3600.0,
    );
    let unseen = [("ghost-a", 5.0), ("ghost-b", 2.5), ("ghost-relayed", 9.0)];
    for _twice in 0..2 {
        let summary: Arc<_> = accepted.clone().into();
        deliver_everywhere(
            &mut sites,
            &UssMessage::Summary { summary, ctx: None },
            now,
            "a summary",
        );
        assert_eq!(tables(&sites), [6, 6, 6], "exactly the three unseen names");
    }
    for (site, view_before) in sites.iter().zip(&views_before) {
        let view = site.uss.grid_view();
        assert_eq!(view.len(), view_before.len() + unseen.len());
        for (name, charged) in unseen {
            let user = GridUser::new(name);
            let id = site.uss.users().id_of(&user).expect("interned");
            assert!(id.index() >= 3, "{name} sits in the overflow");
            assert_eq!(site.uss.users().name(id), &user);
            assert_eq!(view[&user], charged, "site {:?} for {name}", site.id());
        }
        // In name order, overflow merged in: the order every codec writes.
        let names: Vec<&GridUser> = site.uss.users().iter().map(|(_, user)| user).collect();
        assert!(names.windows(2).all(|pair| pair[0] < pair[1]), "{names:?}");
    }
}

/// A site whose own policy lacks an identity the grid's names meets it only
/// from outside — its own RMS's records and its peers' summaries — and
/// keeps it in its table's overflow; the grid still converges on what the
/// trace charged, that user included, at every site.
#[test]
fn a_user_outside_one_sites_policy_is_still_conserved_grid_wide() {
    let mut scenario = GridScenario::national_testbed(&[("a", 0.5), ("b", 0.3), ("c", 0.2)], 5);
    scenario.clusters.truncate(3);
    scenario.clusters[1].policy_override =
        Some(flat_policy(&[("a", 0.6), ("b", 0.4)]).expect("valid policy"));
    let jobs = (0..240).map(|i| TraceJob {
        user: ["a", "b", "c"][i % 3].to_string(),
        submit_s: i as f64 * 20.0,
        duration_s: 60.0 + 15.0 * (i % 4) as f64,
        cores: 1,
    });
    let trace = Trace::new(jobs.collect());
    let result = GridSimulation::new(scenario).run(&trace, 7200.0);
    oracle::assert_views_match_trace(&result, &trace, "site 1 without user c");
    assert!(result.site_usage_views[1][&GridUser::new("c")] > 0.0);
}
