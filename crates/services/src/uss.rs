//! Usage Statistics Service (USS): "gathers per-job usage results of the
//! local site, and produces per-user histograms for configurable time
//! intervals" (§II-A). USS instances of different sites exchange compact
//! per-user summaries — this is the *only* cross-site communication channel
//! in the system ("they communicate only by exchanging data through the USS
//! services", §IV-A).
//!
//! ## Reliable exchange
//!
//! The exchange is fault-tolerant (see [`crate::reliability`]). Each peer
//! has one link holding what is owed each way: toward the peer, the unacked
//! outbox; from it, nothing, the seqs up to a gap's top, or a snapshot after
//! a crash.
//!
//! * [`Uss::publish`] gives each summary the next sequence number, retains
//!   it in a bounded history and queues it in every peer's bounded outbox
//!   until that peer acks it — a dropped summary is *re-sent*, never lost.
//! * [`Uss::poll`] flushes each link that owes something as its one
//!   exponential backoff (seeded jitter) allows: the unacked summaries the
//!   history still holds, and a [`UssMessage::Resync`] or
//!   [`UssMessage::SnapshotRequest`] for what the peer owes. A summary the
//!   history let go is not resent: the newest is kept, its seq shows the gap.
//! * [`Uss::receive_message`] merges data idempotently (absolute cumulative
//!   cells as positive deltas against a per-*origin* mirror, safe over the
//!   several paths of hierarchical overlays, whose interior nodes relay
//!   per-origin sections), acks it and advances the link's cursor. A new
//!   gap is pulled at once, one already pulled on the backoff; a pull is
//!   answered from the history, or by a cumulative snapshot.
//! * [`Uss::crash`]/[`Uss::request_catchup`] model site failure: the
//!   [`Volatile`] exchange state is replaced whole, the durable ledger
//!   (local histogram, publish cursor, user table) survives; recovery owes
//!   every expected publisher's link a snapshot, pulled until it arrives,
//!   and republishes local history — both idempotent at receivers. What
//!   survives what is the [`Uss`] struct's grouping, not a list anywhere.
//! * [`Uss::update_staleness`] tracks how old each peer's data is, keeps
//!   it for the `aequus_uss_peer_staleness_s` gauge, and enforces the
//!   configured [`StalePolicy`] (serve-stale vs. local-only weighting).

mod counts;

use crate::health::{LinkObservation, LinkSide};
use crate::message::UssMessage;
use crate::participation::ParticipationMode;
use crate::reliability::{JitterRng, RetryPolicy, StalePolicy};
use aequus_core::arena::{DirtySet, UserId, UserTable};
use aequus_core::codec::{NamedCells, Publication};
use aequus_core::ids::SiteId;
use aequus_core::usage::{
    CellStore, Prefix, UsageHistogram, UsageRecord, UsageRow, UsageSummary, UserCells,
};
use aequus_core::{DecayPolicy, GridUser};
use aequus_store::{CheckpointState, CheckpointView, PeerCursor};
use aequus_telemetry::{Histogram, Snapshot, Telemetry, TraceCtx};
use counts::{Count, Counts};
use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Why cells from outside the site — a recovered checkpoint, a delivered
/// summary — were refused whole. A corrupt or mismatched checkpoint must
/// degrade the site to snapshot catch-up — never panic it.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveryError {
    /// The checkpoint was cut by a different site.
    SiteMismatch {
        /// This service's site.
        expected: SiteId,
        /// Site recorded in the checkpoint.
        found: SiteId,
    },
    /// The cells are binned with a slot duration other than the configured
    /// one — their indices would land in the wrong slots.
    SlotMismatch {
        /// Configured slot duration.
        expected: f64,
        /// Slot duration the cells came with.
        found: f64,
    },
    /// A cell is not a charge (non-finite or negative): merging it would
    /// poison every view built on the histogram.
    BadCell {
        /// The cell's user.
        user: GridUser,
        /// The cell's slot index.
        slot: u64,
        /// The value found there.
        value: f64,
    },
}

impl fmt::Display for RecoveryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryError::SiteMismatch { expected, found } => write!(
                f,
                "checkpoint belongs to site {} (this is site {})",
                found.0, expected.0
            ),
            RecoveryError::SlotMismatch { expected, found } => {
                write!(f, "slot duration {found}s != configured {expected}s")
            }
            RecoveryError::BadCell { user, slot, value } => write!(
                f,
                "cell ({}, slot {slot}) holds {value}, not a charge",
                user.as_str()
            ),
        }
    }
}

impl std::error::Error for RecoveryError {}

/// Minimum per-cell charge difference considered a real change; smaller
/// residues are floating-point noise and are neither published nor merged.
const CELL_EPS: f64 = 1e-12;

/// USS metric handles (all no-ops until [`Uss::set_telemetry`] wires an
/// enabled registry).
#[derive(Debug, Clone, Default)]
struct UssMetrics {
    telemetry: Telemetry,
    h_ingest: Histogram,
    h_publish: Histogram,
    h_receive: Histogram,
}

/// Per-site usage statistics service: its state grouped by lifetime — which
/// struct a field sits in *is* what a crash, a checkpoint and an install do
/// to it, no function lists fields — plus its counts, its last peer
/// staleness and its telemetry handles.
/// (Floats hash by their bits, for the explorer's fingerprints.)
///
/// | group        | `crash`  | `crash_volatile`     | checkpointed           | on install                 |
/// |--------------|----------|----------------------|------------------------|----------------------------|
/// | `Config`     | survives | survives             | no                     | kept                       |
/// | `Ledger`     | survives | histogram, count go  | all but the user names | rebuilt (cursor: the max)  |
/// | [`Volatile`] | replaced | replaced             | cursors, mirrors       | built fresh, those filled  |
/// | counts       | survive  | survive              | no                     | kept                       |
/// | staleness    | survives | survives             | no                     | kept                       |
#[derive(Debug, Clone)]
pub struct Uss {
    cfg: Config,
    ledger: Ledger,
    vol: Volatile,
    counts: Counts,
    /// The maximum peer staleness the last [`Uss::update_staleness`] found.
    staleness_s: f64,
    metrics: UssMetrics,
}

/// What the deployment set. No crash, checkpoint or install touches it.
#[derive(Debug, Clone, Hash)]
struct Config {
    site: SiteId,
    mode: ParticipationMode,
    /// Peers we deliver summaries to (sites that read global data).
    peers: Vec<SiteId>,
    /// Peers we expect summaries from (sites that contribute data) — the
    /// staleness and catch-up set.
    rx_peers: Vec<SiteId>,
    /// Whether this node is an interior node of the overlay (Tree interior /
    /// Hub member) and must relay merged remote cells onward.
    forwarding: bool,
    retry: RetryPolicy,
    stale_policy: StalePolicy,
    /// The backoff jitter stream `retry` is scaled by — the one part that
    /// moves: each flush draws from it, and a crash does not rewind it.
    jitter: JitterRng,
}

/// What the site's accounting database holds — the paper's USS fronts it.
#[derive(Debug, Clone, Hash)]
struct Ledger {
    /// Who the `UserId`s everywhere else are. Names are looked up in it
    /// where they enter — `Uss::ingest`, an accepted summary, an installed
    /// checkpoint, the RMS's intern — and read back where bytes or reports
    /// leave; it survives every crash (ids are held by the RMS).
    users: UserTable,
    /// Usage executed on this site. Without a store the sim models it as
    /// surviving in an external accounting database; with one attached it
    /// is honestly volatile — rebuilt from checkpoint + WAL replay.
    local: UsageHistogram,
    /// Sequence number the next published summary gets (1-based). Survives
    /// even a store-mode crash: it is modeled as fsynced with every
    /// publication — reusing sequence numbers would let a stale in-flight
    /// ack from the old numbering cancel a new unacked summary, silently
    /// losing the republished history.
    next_seq: u64,
    /// Records in `local`, WAL-replayed ones included.
    records_ingested: u64,
}

/// Everything a crash loses: the exchange's working state. Built whole by
/// `Volatile::new` — at construction, at a crash, under a checkpoint install
/// — and compared whole by the explorer (crashed ≡ freshly built), so a
/// field added here cannot be forgotten by any of them.
#[derive(Debug, Clone, PartialEq, Hash)]
pub struct Volatile {
    /// Usage merged in from other sites' summaries.
    remote: UsageHistogram,
    /// Absolute charge already published per (user, slot) — publications
    /// carry the absolute values of cells that changed against this mirror,
    /// so charge landing in old slots (a long job completing spreads usage
    /// back over its whole runtime) is still exchanged, and retransmissions
    /// are idempotent at receivers.
    published: CellStore,
    /// Local users that may hold a cell above `published` — all
    /// [`Uss::publish`] walks. Fed by ingest (contributing sites only); a
    /// user leaves once they hold nothing still open. Built as every local
    /// user: the mirror starts empty.
    unpublished: Pending,
    /// Retained published summaries for anti-entropy resync, oldest first
    /// so seqs ascend (bounded by [`RetryPolicy::history_cap`]),
    /// each with the trace context of its publication: retries and resync
    /// answers resend the *original* context, keeping delayed hops causally
    /// linked — and the publication itself, shared, not a copy of it.
    history: History,
    /// Per peer, what is owed in each direction and the backoff retrying it.
    links: BTreeMap<SiteId, Link>,
    /// Absolute cumulative charge already merged per (user, slot), keyed by
    /// the **originating** site — the mirror the positive-delta merge
    /// compares against. Origin-scoped (not link-scoped): with hierarchical
    /// overlays the same origin's cells can arrive relayed over several
    /// links, and because origin values are monotone absolute cumulative
    /// charge, merging every path against one per-origin mirror collapses
    /// arbitrary path multiplicity to the same join.
    seen_by_origin: BTreeMap<SiteId, CellStore>,
    /// Forwarding-node state: per origin, the cells this node has already
    /// relayed in its own publications. Diffed against `seen_by_origin` at
    /// publish time to build the relayed sections. Deliberately *not*
    /// checkpointed — a recovered interior node re-relays its whole mirror
    /// once, which is idempotent at receivers.
    relay_published: BTreeMap<SiteId, CellStore>,
    /// Per origin, the mirrored users that may hold a cell above
    /// `relay_published` — all `collect_relay_sections` walks. Fed by the
    /// merge (forwarding nodes only) and, with every mirrored user, when
    /// forwarding is switched on or a checkpoint installed.
    unrelayed: BTreeMap<SiteId, Pending>,
    /// Whether the stale-data policy currently suppresses remote usage.
    remote_suppressed: bool,
    /// Users whose usage changed since the UMS last drained this service,
    /// from the lowest slot that did — the head of the flow USS → UMS → FCS.
    dirty: Pending,
    /// Users whose [`grid_view`](Uss::grid_view) value changed since the
    /// last `sync_view_row` — fed from the same mutation points as `dirty`,
    /// drained on the sampler's cadence instead of the UMS's. "All" after
    /// anything that rewrites the view wholesale (built fresh, stale-policy
    /// flip): a row attached at any point first syncs from scratch.
    view_dirty: DirtySet,
    /// Trace context of the latest traced local ingest, consumed by the next
    /// publication so the outgoing summary joins the report's causal tree.
    pending_publish_ctx: Option<TraceCtx>,
    /// Context of the latest traced publication — stamped onto cumulative
    /// snapshots so snapshot catch-ups stay in a causal tree.
    latest_publish_ctx: Option<TraceCtx>,
    /// Trace context of the latest traced data change (local ingest or
    /// gossip merge), for the UMS→FCS→query pipeline to pick up.
    pending_pipeline_trace: Option<TraceCtx>,
}

impl Volatile {
    /// What a process started over `cfg` and `ledger` holds: nothing heard
    /// or sent, every local user (of a contributing site) pending.
    fn new(cfg: &Config, ledger: &Ledger) -> Self {
        let mut view_dirty = DirtySet::new();
        view_dirty.mark_all();
        let pending = (cfg.mode.contributes()).then(|| all_pending(ledger.local.rows()));
        Self {
            remote: UsageHistogram::with_users(ledger.local.slot_duration(), &ledger.users),
            published: CellStore::default(),
            unpublished: pending.unwrap_or_default(),
            history: VecDeque::new(),
            links: BTreeMap::new(),
            seen_by_origin: BTreeMap::new(),
            relay_published: BTreeMap::new(),
            unrelayed: BTreeMap::new(),
            remote_suppressed: false,
            dirty: Pending::new(),
            view_dirty,
            pending_publish_ctx: None,
            latest_publish_ctx: None,
            pending_pipeline_trace: None,
        }
    }

    /// The link to `peer`, owing nothing when first met.
    fn link(&mut self, peer: SiteId) -> &mut Link {
        self.links.entry(peer).or_insert_with(|| Link::at(1))
    }

    /// Positive-delta merge of one origin's absolute cells against that
    /// origin's mirror: cells whose value exceeds the mirrored value by
    /// more than [`CELL_EPS`] raise the mirror and add the delta to the
    /// remote histogram. Duplicates, reordering, overlapping resyncs,
    /// snapshots, and multi-path relay all collapse to no-ops here. Users
    /// with a changed cell are marked in both dirty sets (the UMS flow and
    /// the view row) and, on a node that `forwards`, noted in `unrelayed`.
    /// Returns the number of cells that changed.
    ///
    /// This is where a delivered name becomes an id — the summary was
    /// already accepted whole ([`Uss::check_summary`]), so every name it
    /// carries is interned, risen cell or not. That one lookup
    /// (`O(log users)` comparisons) is all that touches a string. Per user
    /// the cost is one descent of the mirror — a map: an origin sends few
    /// of the users the site knows — one index into the remote histogram's
    /// column when a cell rose (the rises go over from a buffer reused
    /// across the section) and one integer insert into each dirty set. Per
    /// cell it is a tail compare or a binary search of the user's row, in
    /// the mirror and, if it rose, in the remote row; a slot new to a row
    /// that lands inside it, not at its end, also shifts the rest along.
    fn merge_origin(
        &mut self,
        users: &mut UserTable,
        origin: SiteId,
        cells: &UserCells,
        forwards: bool,
    ) -> usize {
        let mirror = self.seen_by_origin.entry(origin).or_default();
        let mut unrelayed = forwards.then(|| self.unrelayed.entry(origin).or_default());
        let (mut merged, mut risen) = (0usize, Vec::new());
        for (name, slots) in cells {
            let user = users.intern(name);
            risen.clear();
            mirror.raise(user, slots.iter().copied(), CELL_EPS, |slot, _, rise| {
                risen.push((slot, rise))
            });
            let Some(&(lowest, _)) = risen.first() else {
                continue;
            };
            merged += risen.len();
            self.remote.add_charges(user, risen.iter().copied());
            note_pending(&mut self.dirty, user, lowest);
            self.view_dirty.mark_user(user);
            if let Some(pending) = &mut unrelayed {
                note_pending(pending, user, lowest);
            }
        }
        merged
    }
}

type History = VecDeque<(Arc<Publication>, Option<TraceCtx>)>;

/// One peer's link: what is owed each way and the one backoff retrying it.
/// Merge mirrors are per *origin* ([`Volatile::seen_by_origin`]), not per
/// link: relayed cells of one origin can arrive over several links.
#[derive(Debug, Clone, PartialEq)]
struct Link {
    /// Owed to the peer: unacked `(seq, published_at_s)`, oldest first. The
    /// head's age is the health map's undelivered-data staleness — zero
    /// while all is acked, so quiescent drains read fresh.
    outbox: VecDeque<(u64, f64)>,
    /// Lowest sequence number not yet seen from the peer.
    next_expected: u64,
    /// Seqs seen above `next_expected`; while any is held, the peer owes
    /// the seqs from `next_expected` below the highest.
    seen_above: BTreeSet<u64>,
    /// The peer owes a snapshot: set by crash catch-up, paid by any
    /// [`UssMessage::Snapshot`] from it.
    snapshot_owed: bool,
    /// Last arrival of the peer's data (`NEG_INFINITY` before the first).
    last_heard_s: f64,
    /// Flushes since the peer last paid (see `restart`): the backoff's
    /// exponent.
    attempts: u32,
    /// When the link may flush again (`NEG_INFINITY` at 0 attempts).
    next_attempt_s: f64,
}

impl Link {
    /// A link owing nothing, its cursor at `next_expected`.
    fn at(next_expected: u64) -> Self {
        Self {
            outbox: VecDeque::new(),
            next_expected,
            seen_above: BTreeSet::new(),
            snapshot_owed: false,
            last_heard_s: f64::NEG_INFINITY,
            attempts: 0,
            next_attempt_s: f64::NEG_INFINITY,
        }
    }

    /// The message asking the peer for what it owes, if anything.
    fn pull(&self, from: SiteId) -> Option<UssMessage> {
        if self.snapshot_owed {
            return Some(UssMessage::SnapshotRequest { from });
        }
        let (from_seq, to_seq) = (self.next_expected, self.seen_above.last()? - 1);
        Some(UssMessage::Resync {
            from,
            from_seq,
            to_seq,
        })
    }

    /// Whether anything is owed either way.
    fn owes(&self) -> bool {
        !self.outbox.is_empty() || self.snapshot_owed || !self.seen_above.is_empty()
    }

    /// The peer answered — the outbox is acked, or the pull paid: restart.
    fn restart(&mut self) {
        (self.attempts, self.next_attempt_s) = (0, f64::NEG_INFINITY);
    }

    /// Advance the cursor over data numbered `seq`; a snapshot covers every
    /// seq up to its own. Seqs come off the wire, so the cursor saturates.
    /// They never restart (the publish cursor survives every crash): one
    /// below the cursor is a late duplicate and moves nothing.
    fn observe(&mut self, seq: u64, is_snapshot: bool) {
        if is_snapshot {
            self.snapshot_owed = false;
            self.next_expected = self.next_expected.max(seq.saturating_add(1));
            let next = self.next_expected;
            self.seen_above.retain(|&q| q >= next);
        } else if seq >= self.next_expected {
            self.seen_above.insert(seq);
        }
        while self.seen_above.remove(&self.next_expected) {
            self.next_expected = self.next_expected.saturating_add(1);
        }
    }
}

impl Hash for Link {
    fn hash<H: Hasher>(&self, h: &mut H) {
        let outbox = self.outbox.iter().map(|&(seq, at_s)| (seq, at_s.to_bits()));
        outbox.collect::<Vec<_>>().hash(h);
        (self.next_expected, &self.seen_above, self.snapshot_owed).hash(h);
        let times = [self.last_heard_s, self.next_attempt_s].map(f64::to_bits);
        (self.attempts, times).hash(h);
    }
}

/// What the explorer tells services apart by: not counts, not handles.
impl Hash for Uss {
    fn hash<H: Hasher>(&self, h: &mut H) {
        (&self.cfg, &self.ledger, &self.vol).hash(h);
    }
}

/// Users awaiting publication, relay or a UMS read: user → the lowest slot
/// at which a cell of theirs may have risen since the set was drained.
pub type Pending = BTreeMap<UserId, u64>;

/// A pending set as [`Uss::pending`] reports it: by name.
pub type PendingNames = BTreeMap<GridUser, u64>;

/// The message resending retained summary `seq` — a binary search (seqs
/// ascend, with a hole where a journaled cursor jumped) and a pointer copy
/// — or `None` once it was compacted away.
fn retained(history: &History, seq: u64) -> Option<UssMessage> {
    let (summary, ctx) = history.get(history.partition_point(|(s, _)| s.seq < seq))?;
    let summary = Arc::clone(summary);
    (summary.seq == seq).then_some(UssMessage::Summary { summary, ctx: *ctx })
}

/// Note that `user`'s cells from `slot` on may have risen.
fn note_pending(pending: &mut Pending, user: UserId, slot: u64) {
    let from = pending.entry(user).or_insert(slot);
    *from = (*from).min(slot);
}

/// A row of a site's cells: a user and their slot-sorted `(slot, charge)`.
type Row<'a> = (UserId, &'a [(u64, f64)]);

/// Every user of `rows` pending from slot 0: the refill after a mirror was
/// dropped or the cells under it replaced.
fn all_pending<'a>(rows: impl Iterator<Item = Row<'a>>) -> Pending {
    rows.map(|(user, _)| (user, 0)).collect()
}

/// `rows` under the names `users` gave their ids — what leaves a site in a
/// snapshot or a test readout.
fn named_cells<'a>(users: &UserTable, rows: impl Iterator<Item = Row<'a>>) -> UserCells {
    rows.map(|(user, row)| (users.name(user).clone(), row.to_vec()))
        .collect()
}

/// Diff the `pending` users' cells — `held(user, from)` reads them — against
/// the `sent` mirror: the cells that rose (by more than [`CELL_EPS`]) are
/// recorded there and returned under their names. Cells at or past
/// `open_slot` are held back, and a user stays pending — from the first of
/// those — while they hold one; everyone else leaves. Costs the pending
/// users' slots from the pending one on, whatever else the site holds: per
/// user a slice of the held row, cut at the open slot, and one `raise` of
/// it against `sent`.
fn drain_pending<'a>(
    pending: &mut Pending,
    held: impl Fn(UserId, u64) -> &'a [(u64, f64)],
    sent: &mut CellStore,
    users: &UserTable,
    open_slot: Option<u64>,
) -> UserCells {
    let mut section = UserCells::new();
    pending.retain(|&user, from| {
        let row = held(user, *from);
        let closed = open_slot.map_or(row.len(), |open| row.partition_point(|c| c.0 < open));
        let mut cells = Vec::new();
        let rose = |slot, value, _| cells.push((slot, value));
        sent.raise(user, row[..closed].iter().copied(), CELL_EPS, rose);
        if !cells.is_empty() {
            section.insert(users.name(user).clone(), cells);
        }
        let first_open = row.get(closed);
        if let Some(&(slot, _)) = first_open {
            *from = slot;
        }
        first_open.is_some()
    });
    section
}

impl Uss {
    /// Create a USS with the given histogram slot duration and a user table
    /// of its own over no base: every identity it meets is interned on
    /// first sight.
    pub fn new(site: SiteId, mode: ParticipationMode, slot_s: f64) -> Self {
        Self::with_users(site, mode, slot_s, UserTable::default())
    }

    /// Create a USS over the site's user table — built over the user base
    /// of the policy the site enforces, whose users then carry the ids
    /// every other site of the grid and the fairshare tree use.
    pub fn with_users(
        site: SiteId,
        mode: ParticipationMode,
        slot_s: f64,
        users: UserTable,
    ) -> Self {
        let cfg = Config {
            site,
            mode,
            peers: Vec::new(),
            rx_peers: Vec::new(),
            forwarding: false,
            retry: RetryPolicy::default(),
            stale_policy: StalePolicy::default(),
            jitter: JitterRng::new(site.0 as u64),
        };
        let ledger = Ledger {
            local: UsageHistogram::with_users(slot_s, &users),
            users,
            next_seq: 1,
            records_ingested: 0,
        };
        Self {
            vol: Volatile::new(&cfg, &ledger),
            cfg,
            ledger,
            counts: Counts::default(),
            staleness_s: 0.0,
            metrics: UssMetrics::default(),
        }
    }

    /// The state a crash loses, comparable whole.
    pub fn volatile(&self) -> &Volatile {
        &self.vol
    }

    /// The volatile state of a process started fresh over this service's
    /// configuration and ledger: what the explorer holds a crash to.
    pub fn fresh_volatile(&self) -> Volatile {
        Volatile::new(&self.cfg, &self.ledger)
    }

    /// Note the trace context of a just-ingested local record: the next
    /// publication is stamped with it, and the refresh pipeline picks it up
    /// through [`Uss::take_pipeline_trace`].
    pub fn note_ingest_trace(&mut self, ctx: TraceCtx) {
        self.vol.pending_publish_ctx = Some(ctx);
        self.vol.pending_pipeline_trace = Some(ctx);
    }

    /// Drain the trace context of the latest traced data change (local
    /// ingest or gossip merge) for the UMS/FCS refresh stages.
    pub fn take_pipeline_trace(&mut self) -> Option<TraceCtx> {
        self.vol.pending_pipeline_trace.take()
    }

    /// Wire this service into a telemetry registry; pass
    /// [`Telemetry::disabled`] to detach.
    pub fn set_telemetry(&mut self, t: &Telemetry) {
        self.metrics = UssMetrics {
            telemetry: t.clone(),
            h_ingest: t.histogram("aequus_uss_ingest_s"),
            h_publish: t.histogram("aequus_uss_publish_s"),
            h_receive: t.histogram("aequus_uss_receive_s"),
        };
    }

    /// The site's user table: who each [`UserId`] this service hands out
    /// or takes is.
    pub fn users(&self) -> &UserTable {
        &self.ledger.users
    }

    /// The table, to intern into: the RMS seam and the FCS resolve names
    /// here, so the site has one id per identity.
    pub fn users_mut(&mut self) -> &mut UserTable {
        &mut self.ledger.users
    }

    /// Duration of one usage-histogram slot in seconds.
    pub fn slot_duration(&self) -> f64 {
        self.ledger.local.slot_duration()
    }

    /// The owning site.
    pub fn site(&self) -> SiteId {
        self.cfg.site
    }

    /// Participation mode in the global exchange.
    pub fn mode(&self) -> ParticipationMode {
        self.cfg.mode
    }

    /// Register exchange peers: `tx_peers` receive this site's summaries,
    /// `rx_peers` are expected to publish to this site (staleness tracking
    /// and crash catch-up). The own site id is filtered from both. A site
    /// with no peers (a single-cluster grid) still publishes — the summary
    /// is sequenced, journaled and retained — and simply has nobody to
    /// queue it for.
    pub fn set_peers(&mut self, tx_peers: &[SiteId], rx_peers: &[SiteId]) {
        let site = self.cfg.site;
        let others = |peers: &[SiteId]| peers.iter().copied().filter(|p| *p != site).collect();
        (self.cfg.peers, self.cfg.rx_peers) = (others(tx_peers), others(rx_peers));
    }

    /// Configure retry/backoff/retention and reseed the jitter source.
    pub fn configure_reliability(&mut self, retry: RetryPolicy, jitter_seed: u64) {
        self.cfg.retry = retry;
        self.cfg.jitter = JitterRng::new(jitter_seed ^ ((self.cfg.site.0 as u64) << 32));
    }

    /// Configure the stale-data policy.
    pub fn set_stale_policy(&mut self, policy: StalePolicy) {
        self.cfg.stale_policy = policy;
    }

    /// Mark this node as an overlay interior node: cells merged from other
    /// origins are re-published onward as relayed summary sections (per-hop
    /// aggregation for the Tree and Hub overlays). Switching it on makes
    /// everything already mirrored pending for relay.
    pub fn set_forwarding(&mut self, on: bool) {
        if on != self.cfg.forwarding {
            self.cfg.forwarding = on;
            self.refill_unrelayed();
        }
    }

    /// Every mirrored user is pending for relay again (none, on a node that
    /// does not forward): forwarding was switched, or the mirrors replaced.
    fn refill_unrelayed(&mut self) {
        let mirrors = self.vol.seen_by_origin.iter();
        let mirrors = mirrors.filter(|_| self.cfg.forwarding);
        self.vol.unrelayed = mirrors
            .map(|(origin, cells)| (*origin, all_pending(cells.iter())))
            .collect();
    }

    /// Whether this node relays merged remote data onward.
    pub fn forwarding(&self) -> bool {
        self.cfg.forwarding
    }

    /// Whether this node publishes summaries at all: sites that contribute
    /// their own usage, and overlay interior nodes (which must relay even
    /// when they have nothing of their own to say).
    fn publishes(&self) -> bool {
        self.cfg.mode.contributes() || self.cfg.forwarding
    }

    /// Ingest a locally completed job's usage record; returns the id its
    /// user has in the site's user table.
    pub fn ingest(&mut self, rec: &UsageRecord) -> UserId {
        let _span = self.metrics.h_ingest.start_timer();
        debug_assert_eq!(rec.site, self.cfg.site, "record routed to wrong site");
        let user = self.replay_ingest(rec);
        self.counts.add(Count::Ingested, None, 1);
        user
    }

    /// Diff the users pending relay against what this node has already
    /// relayed, producing (and recording) the relayed sections of the next
    /// publication; afterwards nobody is pending. Empty unless the node
    /// forwards. Cells carry the origin's absolute cumulative values, so
    /// receivers merge them against the same per-origin mirror a direct
    /// delivery would hit — the open-slot holdback already happened at the
    /// origin and is not re-applied against this node's (possibly skewed)
    /// clock. Costs what the merge marked since the last call
    /// ([`drain_pending`]), not what is mirrored.
    fn collect_relay_sections(&mut self) -> BTreeMap<SiteId, UserCells> {
        let mut relayed: BTreeMap<SiteId, UserCells> = BTreeMap::new();
        for (origin, pending) in &mut self.vol.unrelayed {
            let Some(held) = self.vol.seen_by_origin.get(origin) else {
                continue; // a pending set is only ever made beside its mirror
            };
            let sent = self.vol.relay_published.entry(*origin).or_default();
            let held = |user, from| held.of(user, from);
            let section = drain_pending(pending, held, sent, &self.ledger.users, None);
            if !section.is_empty() {
                relayed.insert(*origin, section);
            }
        }
        relayed
    }

    /// Produce the next sequenced summary for exchange: the cells whose
    /// charge changed against the published mirror, carried as **absolute**
    /// cumulative values, over all closed slots (the slot containing `now_s`
    /// stays open and is held back until it closes). The summary is retained
    /// in the resync history and queued in every peer's outbox until that
    /// peer acknowledges it. Forwarding nodes additionally attach relayed
    /// sections (cells newly merged from other origins) and publish even
    /// when they have no local change of their own. Returns `None` when
    /// this site neither contributes usage data nor forwards, or nothing
    /// changed.
    ///
    /// Costs the users ingested, or merged from other origins, since they
    /// were last published (`drain_pending`) — not the users the site
    /// knows. The summary is built once: the history, every send and retry
    /// of it and the caller share the returned allocation.
    pub fn publish(&mut self, now_s: f64) -> Option<Arc<Publication>> {
        let _span = self.metrics.h_publish.start_timer();
        if !self.publishes() {
            return None;
        }
        let slot_s = self.ledger.local.slot_duration();
        let current_slot = (now_s / slot_s).floor().max(0.0) as u64;
        let held = |user, from| self.ledger.local.of(user, from);
        let (pending, sent) = (&mut self.vol.unpublished, &mut self.vol.published);
        let per_user = drain_pending(pending, held, sent, &self.ledger.users, Some(current_slot));
        let relayed = self.collect_relay_sections();
        if per_user.is_empty() && relayed.is_empty() {
            return None;
        }
        let (site, seq) = (self.cfg.site, self.ledger.next_seq);
        self.ledger.next_seq = seq.saturating_add(1);
        let summary: Arc<Publication> = UsageSummary {
            site,
            seq,
            slot_s,
            per_user,
            relayed,
        }
        .into();
        let ctx = self.vol.pending_publish_ctx.take().and_then(|ingest_ctx| {
            let telemetry = &self.metrics.telemetry;
            telemetry.child_span(Some(ingest_ctx), "uss.publish", now_s, || {
                format!("site {} published seq {seq}", site.0)
            })
        });
        self.vol.latest_publish_ctx = ctx.or(self.vol.latest_publish_ctx);
        self.vol.history.push_back((Arc::clone(&summary), ctx));
        while self.vol.history.len() > self.cfg.retry.history_cap.max(1) {
            self.vol.history.pop_front();
        }
        for peer in &self.cfg.peers {
            let link = self.vol.link(*peer);
            if link.outbox.is_empty() {
                link.next_attempt_s = link.next_attempt_s.min(now_s); // nothing unacked: due now
            }
            link.outbox.push_back((seq, now_s));
            while link.outbox.len() > self.cfg.retry.outbox_cap.max(1) {
                // The oldest overflows; the peer's gap pull recovers it.
                link.outbox.pop_front();
            }
        }
        self.counts.add(Count::Published, None, 1);
        Some(summary)
    }

    /// Drain every message due at `now_s`: each link that owes something and
    /// whose backoff has run out is flushed. A link with nothing unacked
    /// sends fresh data at once.
    pub fn poll(&mut self, now_s: f64) -> Vec<(SiteId, UssMessage)> {
        let due = self.vol.links.iter();
        let due = due.filter(|(_, link)| link.owes() && now_s >= link.next_attempt_s);
        let due: Vec<SiteId> = due.map(|(peer, _)| *peer).collect();
        let mut out = Vec::new();
        for peer in due {
            self.flush(peer, now_s, &mut out);
        }
        out
    }

    /// Send what the link to `peer` owes into `out` — its unacked summaries
    /// the history still holds (the rest leave the outbox), then its pull —
    /// and start the link's next backoff period with one jitter draw.
    fn flush(&mut self, peer: SiteId, now_s: f64, out: &mut Vec<(SiteId, UssMessage)>) {
        let Some(link) = self.vol.links.get_mut(&peer) else {
            return;
        };
        let (retrying, first, history) = (link.attempts > 0, out.len(), &self.vol.history);
        link.outbox.retain(|&(seq, _)| {
            let resent = retained(history, seq).map(|msg| out.push((peer, msg)));
            resent.is_some()
        });
        if retrying {
            let resent = (out.len() - first) as u64;
            self.counts.add(Count::Retries, Some(peer), resent);
        }
        if let Some(pull) = link.pull(self.cfg.site) {
            if matches!(pull, UssMessage::Resync { .. }) {
                self.counts.add(Count::Resyncs, Some(peer), 1);
            }
            out.push((peer, pull));
        }
        link.attempts += 1;
        let unit = self.cfg.jitter.next_unit();
        link.next_attempt_s = now_s + self.cfg.retry.backoff_s(link.attempts, unit);
    }

    /// Handle one incoming protocol message, returning the responses to
    /// route back (acks, resync pulls, resync answers, snapshots).
    pub fn receive_message(&mut self, msg: &UssMessage, now_s: f64) -> Vec<(SiteId, UssMessage)> {
        match msg {
            UssMessage::Summary { summary, ctx } => self.apply_data(summary, *ctx, false, now_s),
            UssMessage::Snapshot { summary, ctx } => self.apply_data(summary, *ctx, true, now_s),
            UssMessage::Ack { from, seq } => {
                if let Some(link) = self.vol.links.get_mut(from) {
                    link.outbox.retain(|&(unacked, _)| unacked != *seq);
                    if link.outbox.is_empty() {
                        link.restart();
                    }
                }
                Vec::new()
            }
            UssMessage::Resync {
                from,
                from_seq,
                to_seq,
            } => self.on_resync(*from, *from_seq, *to_seq),
            // Answered by every site (empty from one that publishes nothing).
            UssMessage::SnapshotRequest { from } => vec![(*from, self.snapshot_for(*from))],
        }
    }

    fn apply_data(
        &mut self,
        s: &UsageSummary,
        ctx: Option<TraceCtx>,
        is_snapshot: bool,
        now_s: f64,
    ) -> Vec<(SiteId, UssMessage)> {
        let _span = self.metrics.h_receive.start_timer();
        if s.site == self.cfg.site {
            return Vec::new(); // never double-count our own data
        }
        if self.check_summary(s).is_err() {
            // Refused whole, before any cell merges: no cursor movement and
            // no ack either, so a well-formed retransmission still counts.
            self.counts.add(Count::Rejected, None, 1);
            return Vec::new();
        }
        let from = self.cfg.site;
        let mut responses = Vec::new();
        if !is_snapshot {
            // Acknowledge regardless of participation mode, so publishers
            // don't retry forever at sites that discard global data.
            responses.push((s.site, UssMessage::Ack { from, seq: s.seq }));
        }
        if !self.cfg.mode.reads_global() {
            return responses;
        }
        let merged_cells = self.merge_sections(s);
        if merged_cells == 0 && !(s.per_user.is_empty() && s.relayed.is_empty()) {
            self.counts.add(Count::Duplicates, None, 1);
        }
        if let Some(parent) = ctx.filter(|_| merged_cells > 0) {
            // Cross-site causal link: the merge span's parent is the
            // publisher's `uss.publish` span (retries/resyncs/snapshots all
            // resend the original context, so the link survives loss).
            // Duplicate deliveries merge nothing and add no span.
            let (peer, seq) = (s.site.0, s.seq);
            let telemetry = &self.metrics.telemetry;
            let merge_ctx = telemetry.child_span(Some(parent), "uss.merge", now_s, || {
                format!("merged seq {seq} from site {peer} ({merged_cells} cells)")
            });
            self.vol.pending_pipeline_trace = merge_ctx.or(self.vol.pending_pipeline_trace);
        }
        // A new gap is pulled at once (the link flushes), an old one on backoff.
        let link = self.vol.link(s.site);
        link.last_heard_s = link.last_heard_s.max(now_s);
        let pulled = link.pull(from).is_some();
        link.observe(s.seq, is_snapshot);
        match (pulled, link.pull(from).is_some()) {
            (true, false) => link.restart(),
            (false, true) => {
                self.counts.add(Count::Gaps, Some(s.site), 1);
                self.flush(s.site, now_s, &mut responses);
            }
            _ => {}
        }
        self.counts.add(Count::Received, None, 1);
        responses
    }

    /// Whether cells from outside the site (wire, WAL, checkpoint) may enter
    /// its histograms: they must be binned with this site's slot duration
    /// (else their slot indices name different time windows) and every one
    /// must be a finite non-negative charge — one `+inf` merged into a
    /// histogram makes every view and total built on it `inf` for good.
    fn admit<'a>(
        &self,
        slot_s: f64,
        sections: impl Iterator<Item = &'a UserCells>,
    ) -> Result<(), RecoveryError> {
        let expected = self.ledger.local.slot_duration();
        let (found, bins_alike) = (slot_s, (slot_s - expected).abs() <= 1e-9);
        if !bins_alike {
            return Err(RecoveryError::SlotMismatch { expected, found }); // a NaN too
        }
        for (user, slots) in sections.flatten() {
            let bad = slots.iter().find(|(_, v)| !(v.is_finite() && *v >= 0.0));
            if let Some(&(slot, value)) = bad {
                let user = user.clone();
                return Err(RecoveryError::BadCell { user, slot, value });
            }
        }
        Ok(())
    }

    /// [`Uss::admit`] over a summary's sections, own and relayed: the one
    /// check of the wire path and the WAL-replay path.
    fn check_summary(&self, s: &UsageSummary) -> Result<(), RecoveryError> {
        let sections = std::iter::once(&s.per_user).chain(s.relayed.values());
        self.admit(s.slot_s, sections)
    }

    /// Idempotent merge of a summary's sections: apply the positive delta
    /// of each absolute cell against its *origin's* mirror — the publisher's
    /// own section under the publisher's site, each relayed section under
    /// its recorded origin. Duplicates, reordering, overlapping resyncs,
    /// snapshots, and multi-path relay all collapse to no-ops here. Returns
    /// the number of cells that changed.
    fn merge_sections(&mut self, s: &UsageSummary) -> usize {
        let (users, forwards) = (&mut self.ledger.users, self.cfg.forwarding);
        let mut merged_cells = 0usize;
        for (origin, cells) in std::iter::once((&s.site, &s.per_user)).chain(s.relayed.iter()) {
            if *origin != self.cfg.site {
                // (else a relay echoing our own data back)
                merged_cells += self.vol.merge_origin(users, *origin, cells, forwards);
            }
        }
        merged_cells
    }

    fn on_resync(&mut self, from: SiteId, from_seq: u64, to_seq: u64) -> Vec<(SiteId, UssMessage)> {
        if !self.publishes() || to_seq < from_seq {
            return Vec::new();
        }
        // The range is a peer's claim: measured without overflow (`0..=MAX`
        // is 2^64 long) and walked only while the history still answers.
        let answerable = to_seq - from_seq < self.cfg.retry.history_cap.max(1) as u64;
        let resend = |seq| Some((from, retained(&self.vol.history, seq)?));
        let resent = answerable.then(|| (from_seq..=to_seq).map(resend).collect::<Option<_>>());
        match resent.flatten() {
            Some(resent) => resent,
            // History compacted past the range: one cumulative snapshot.
            None => vec![(from, self.snapshot_for(from))],
        }
    }

    /// The cumulative snapshot `peer` is owed, counted on that link:
    /// everything published so far, under the latest seq (0 before any). A
    /// forwarding node attaches its whole origin-scoped mirror as relayed
    /// sections, so a recovered leaf behind a hub catches up from it alone.
    fn snapshot_for(&mut self, peer: SiteId) -> UssMessage {
        self.counts.add(Count::Snapshots, Some(peer), 1);
        let users = &self.ledger.users;
        let mirrors = self.vol.seen_by_origin.iter();
        let mirrors = mirrors.filter(|(_, cells)| self.cfg.forwarding && !cells.is_empty());
        let summary = UsageSummary {
            site: self.cfg.site,
            seq: self.ledger.next_seq - 1,
            slot_s: self.ledger.local.slot_duration(),
            per_user: named_cells(users, self.vol.published.iter()),
            relayed: mirrors
                .map(|(origin, cells)| (*origin, named_cells(users, cells.iter())))
                .collect(),
        }
        .into();
        let ctx = self.vol.latest_publish_ctx;
        UssMessage::Snapshot { summary, ctx }
    }

    /// Seconds since `peer` was last heard from — since the epoch, for one
    /// never heard from: the stale policy's reading and the health rows'.
    fn heard_age_s(&self, peer: SiteId, now_s: f64) -> f64 {
        let last = self.vol.links.get(&peer).map(|link| link.last_heard_s);
        (now_s - last.filter(|at_s| at_s.is_finite()).unwrap_or(0.0)).max(0.0)
    }

    /// Refresh per-peer staleness (seconds since the freshest peer data,
    /// maxed over expected publishers), keep it for the
    /// `aequus_uss_peer_staleness_s` gauge, and enforce the stale-data
    /// policy. Returns the maximum staleness. Users affected by a policy
    /// transition are marked dirty so the UMS/FCS pick the change up.
    pub fn update_staleness(&mut self, now_s: f64) -> f64 {
        if !self.cfg.mode.reads_global() || self.cfg.rx_peers.is_empty() {
            self.staleness_s = 0.0;
            return 0.0;
        }
        let heard = self.cfg.rx_peers.iter();
        let max_stale = (heard.map(|p| self.heard_age_s(*p, now_s))).fold(0.0, f64::max);
        self.staleness_s = max_stale;
        let suppress = match self.cfg.stale_policy {
            StalePolicy::ServeStale => false,
            StalePolicy::LocalOnly { max_staleness_s } => max_stale > max_staleness_s,
        };
        if suppress != self.vol.remote_suppressed {
            self.vol.remote_suppressed = suppress;
            self.vol.view_dirty.mark_all();
            for (user, _) in self.vol.remote.rows() {
                note_pending(&mut self.vol.dirty, user, 0);
            }
        }
        max_stale
    }

    /// Whether the stale-data policy currently suppresses remote usage.
    pub fn remote_suppressed(&self) -> bool {
        self.vol.remote_suppressed
    }

    /// Site crash: the volatile exchange state is replaced by a fresh
    /// process's; configuration, ledger (backed by the accounting database)
    /// and counts survive. With the published mirror empty, the next
    /// publication re-emits every closed slot — idempotent at receivers,
    /// which pull any gap the crash left like any other.
    pub fn crash(&mut self) {
        self.vol = self.fresh_volatile();
    }

    /// Crash recovery (for a site that reads global data): every expected
    /// publisher's link owes a snapshot of the remote state the crash lost.
    /// `poll` sends its [`UssMessage::SnapshotRequest`] at once and on the
    /// link's backoff until a snapshot from that peer arrives — even from a
    /// peer with nothing more to publish.
    pub fn request_catchup(&mut self) {
        let reads = self.cfg.mode.reads_global();
        for peer in self.cfg.rx_peers.iter().filter(|_| reads) {
            self.vol.link(*peer).snapshot_owed = true;
        }
    }

    /// Site crash in durable-store mode: [`Uss::crash`], and the ledger's
    /// store-backed part — local histogram and ingest count — goes too, to
    /// be rebuilt from checkpoint + WAL replay. The publish cursor still
    /// survives, and journaled [`aequus_store::WalRecord::Publish`] records
    /// replay it as belt and braces.
    pub fn crash_volatile(&mut self) {
        let ledger = &mut self.ledger;
        ledger.local = UsageHistogram::with_users(ledger.local.slot_duration(), &ledger.users);
        ledger.records_ingested = 0;
        self.crash();
    }

    /// Everything the durable store checkpoints for this service — what a
    /// restart cannot recompute: the local histogram cells (full `f64` bits
    /// — local recovery is bitwise exact), ingest/publish counters, the
    /// per-peer sequence cursors, and the origin-scoped absolute-cell merge
    /// mirrors. The relay-published mirror is deliberately excluded — a
    /// recovered forwarding node re-relays its whole mirror once,
    /// idempotently. `lsn` is the WAL position the snapshot covers.
    ///
    /// This is an edge where names leave: the encoder walks the id-keyed
    /// rows where they lie, each under its name — one `(name, &row)` pair
    /// per user, no cell copied, no per-user map, no name cloned.
    pub fn checkpoint_view(&self, lsn: u64, taken_s: f64) -> CheckpointView<'_> {
        let (users, vol) = (&self.ledger.users, &self.vol);
        let cursor = |l: &Link| PeerCursor {
            next_expected: l.next_expected,
        };
        let head = CheckpointState {
            lsn,
            taken_s,
            site: self.cfg.site,
            slot_s: self.ledger.local.slot_duration(),
            records_ingested: self.ledger.records_ingested,
            next_seq: self.ledger.next_seq,
            peers: vol.links.iter().map(|(s, l)| (*s, cursor(l))).collect(),
            ..CheckpointState::default()
        };
        CheckpointView {
            head: Cow::Owned(head),
            local_cells: NamedCells::from_rows(self.ledger.local.rows(), users),
            origin_cells: (vol.seen_by_origin.iter())
                .map(|(origin, cells)| (*origin, NamedCells::from_rows(cells.iter(), users)))
                .collect(),
        }
    }

    /// Install a recovered checkpoint, as a process starting over it does:
    /// rebuild the local histogram from its cells (bitwise exact — the
    /// cells are the accumulated values), and fill a fresh volatile state
    /// with the per-peer sequence cursors, the origin-scoped merge mirrors
    /// and the remote view rebuilt from the mirrors. WAL records past
    /// `checkpoint.lsn` must then be re-applied via the `replay_*` methods.
    /// Like any crash, this leaves the UMS to rebuild whole: the dirty set
    /// starts clean, and a reset UMS's first refresh reads every user.
    pub fn install_checkpoint(&mut self, ckpt: &CheckpointState) -> Result<(), RecoveryError> {
        let (expected, found) = (self.cfg.site, ckpt.site);
        if found != expected {
            return Err(RecoveryError::SiteMismatch { expected, found });
        }
        let sections = std::iter::once(&ckpt.local_cells).chain(ckpt.origin_cells.values());
        self.admit(ckpt.slot_s, sections)?;
        // Accepted whole: from here on its names are this site's.
        let ledger = &mut self.ledger;
        ledger.local = UsageHistogram::with_users(ledger.local.slot_duration(), &ledger.users);
        for (name, slots) in &ckpt.local_cells {
            let user = ledger.users.intern(name);
            ledger.local.add_charges(user, slots.iter().copied());
        }
        ledger.records_ingested = ckpt.records_ingested;
        ledger.next_seq = ledger.next_seq.max(ckpt.next_seq);
        let mut vol = Volatile::new(&self.cfg, ledger);
        for (site, cursor) in &ckpt.peers {
            vol.links.insert(*site, Link::at(cursor.next_expected));
        }
        for (origin, cells) in &ckpt.origin_cells {
            let mirror = vol.seen_by_origin.entry(*origin).or_default();
            for (name, slots) in cells {
                let user = ledger.users.intern(name);
                mirror.add(user, slots.iter().copied());
                vol.remote.add_charges(user, slots.iter().copied());
            }
        }
        self.vol = vol;
        self.refill_unrelayed();
        Ok(())
    }

    /// Re-apply a journaled local usage record during store recovery:
    /// [`Uss::ingest`] minus telemetry — the original ingest already
    /// counted, and replay must not inflate the monotone series. Returns
    /// the same id.
    pub fn replay_ingest(&mut self, rec: &UsageRecord) -> UserId {
        let user = self.ledger.users.intern(&rec.user);
        if let Some(first_slot) = self.ledger.local.record(user, rec) {
            note_pending(&mut self.vol.dirty, user, first_slot);
            self.vol.view_dirty.mark_user(user);
            if self.cfg.mode.contributes() {
                note_pending(&mut self.vol.unpublished, user, first_slot);
            }
        }
        self.ledger.records_ingested += 1;
        user
    }

    /// Re-apply journaled peer exchange data during store recovery: the
    /// same positive-delta merge and cursor bookkeeping as the live path,
    /// but silent — no acks (the peer collected them before the crash), no
    /// pull (a gap left open is owed on its link, for the next `poll`), no
    /// telemetry. A summary the live path refused (it is journaled before
    /// it is judged) is refused again, uncounted like everything else here.
    pub fn replay_peer_data(&mut self, s: &UsageSummary, is_snapshot: bool) {
        let reads = self.cfg.mode.reads_global();
        if s.site == self.cfg.site || !reads || self.check_summary(s).is_err() {
            return;
        }
        self.merge_sections(s);
        self.vol.link(s.site).observe(s.seq, is_snapshot);
    }

    /// Re-apply a journaled publish-sequence advance: the cursor only moves
    /// forward, so replay after a partially-journaled run never rewinds it.
    pub fn replay_publish_seq(&mut self, seq: u64) {
        self.ledger.next_seq = self.ledger.next_seq.max(seq.saturating_add(1));
    }

    /// One user's usage, each cell weighed by `weigh(slot centre)`: local
    /// plus, when the mode reads global data and the stale policy permits,
    /// remote — each a [`UsageHistogram::usage`] fold resumed from its prefix
    /// and returning it at `mark` (a default one for an unread histogram).
    pub fn usage_of(
        &self,
        user: UserId,
        weigh: impl Fn(f64) -> f64 + Copy,
        [local, remote]: [Prefix; 2],
        mark: u64,
    ) -> (f64, [Prefix; 2], usize) {
        let (value, local, passed) = self.ledger.local.usage(user, weigh, local, mark);
        // An unread remote adds `+0.0`: nothing to the local sum's bits.
        let read = (self.reads_remote()).then(|| self.vol.remote.usage(user, weigh, remote, mark));
        let (more, remote, more_passed) = read.unwrap_or_default();
        (value + more, [local, remote], passed + more_passed)
    }

    /// One user's [`grid_view`](Self::grid_view) value, bit for bit (`0.0`
    /// when the view has no entry) — the histograms' cached raw totals.
    pub fn grid_view_of(&self, user: UserId) -> f64 {
        let remote = self.reads_remote().then(|| self.vol.remote.raw_usage(user));
        self.ledger.local.raw_usage(user) + remote.unwrap_or(0.0)
    }

    /// All users with any recorded usage (local, plus remote when the mode
    /// reads global data and the stale policy permits), ascending — one
    /// pass over the cells.
    pub fn known_users(&self) -> Vec<UserId> {
        let mut users: Vec<UserId> = self.ledger.local.rows().map(|(user, _)| user).collect();
        if self.reads_remote() {
            users.extend(self.vol.remote.rows().map(|(user, _)| user));
            users.sort_unstable();
            users.dedup();
        }
        users
    }

    /// `read` of every known user, under their names: the report form.
    fn by_name(&self, read: impl Fn(UserId) -> f64) -> BTreeMap<GridUser, f64> {
        let named = |user| (self.ledger.users.name(user).clone(), read(user));
        self.known_users().into_iter().map(named).collect()
    }

    /// Per-user decayed usage, by name: local plus (when the mode reads
    /// global data and the stale policy permits) remote.
    pub fn decayed_usage(&self, now_s: f64, decay: DecayPolicy) -> BTreeMap<GridUser, f64> {
        let weigh = |centre| decay.weight(now_s - centre);
        self.by_name(|user| self.usage_of(user, weigh, Default::default(), 0).0)
    }

    /// This site's raw (undecayed) per-user view of grid usage, by name:
    /// local charge plus, when the mode reads global data and the stale
    /// policy permits, merged remote charge. The chaos suite's convergence
    /// invariant compares these views across sites.
    ///
    /// `O(cells)` plus a name clone and a map insert per user — the
    /// end-of-run and from-scratch readout. Per-sample consumers keep a
    /// [`UsageRow`] current with [`Uss::sync_view_row`] instead.
    pub fn grid_view(&self) -> BTreeMap<GridUser, f64> {
        self.by_name(|user| self.grid_view_of(user))
    }

    /// Whether remote usage currently counts toward this site's view.
    fn reads_remote(&self) -> bool {
        self.cfg.mode.reads_global() && !self.vol.remote_suppressed
    }

    /// Bring `row` — laid out over `base`, the sampler's user base — up to
    /// date with [`grid_view`](Self::grid_view), bit for bit (`0.0` for
    /// absent users). Only users whose view value changed since the
    /// previous call are rewritten — by id when `base` is this table's own
    /// (rank *is* id), else by name; after a crash, checkpoint install or
    /// stale-policy flip the row is rebuilt over every known user. The
    /// change set is drained, so one service keeps one row current.
    pub fn sync_view_row(&mut self, base: &Arc<[GridUser]>, row: &mut UsageRow) {
        let changed = self.vol.view_dirty.take();
        let users = if changed.is_all() {
            row.clear(base);
            self.known_users()
        } else {
            changed.users().collect()
        };
        let shared = Arc::ptr_eq(base, self.ledger.users.base());
        for user in users {
            let value = self.grid_view_of(user);
            match row.dense.get_mut(user.index()).filter(|_| shared) {
                Some(held) => *held = value,
                None => row.set(base, self.ledger.users.name(user), value),
            }
        }
    }

    /// Raw local charge of one user (test/metrics access).
    pub fn local_usage_of(&self, user: &GridUser) -> f64 {
        let user = self.ledger.users.id_of(user);
        user.map_or(0.0, |user| self.ledger.local.raw_usage(user))
    }

    /// Raw merged remote charge of one user (test/metrics access).
    pub fn remote_usage_of(&self, user: &GridUser) -> f64 {
        let user = self.ledger.users.id_of(user);
        user.map_or(0.0, |user| self.vol.remote.raw_usage(user))
    }

    /// Drain the users whose usage changed, each from the lowest slot that did.
    pub fn take_dirty(&mut self) -> Pending {
        std::mem::take(&mut self.vol.dirty)
    }

    /// Total remote usage merged in.
    pub fn remote_total(&self) -> f64 {
        self.vol.remote.total_recorded()
    }

    /// Records in the local histogram (WAL-replayed ones included).
    pub fn records_ingested(&self) -> u64 {
        self.ledger.records_ingested
    }

    /// Sequence number the next publication will carry.
    pub fn next_seq(&self) -> u64 {
        self.ledger.next_seq
    }

    /// Summaries re-sent after a missing ack.
    pub fn retries(&self) -> u64 {
        self.counts.get(Count::Retries, None)
    }

    /// Sequence gaps detected in peers' summary streams.
    pub fn seq_gaps(&self) -> u64 {
        self.counts.get(Count::Gaps, None)
    }

    /// Anti-entropy resync pulls issued.
    pub fn resyncs(&self) -> u64 {
        self.counts.get(Count::Resyncs, None)
    }

    /// Cumulative snapshots sent (resync fallback + catch-up answers).
    pub fn snapshots_sent(&self) -> u64 {
        self.counts.get(Count::Snapshots, None)
    }

    /// Incoming data messages that merged nothing new.
    pub fn duplicates(&self) -> u64 {
        self.counts.get(Count::Duplicates, None)
    }

    /// Incoming data messages refused whole: binned with another slot
    /// duration, or carrying a cell that is not a finite non-negative charge.
    pub fn rejected(&self) -> u64 {
        self.counts.get(Count::Rejected, None)
    }

    /// Write the service's counts and its last peer staleness into `snap`.
    pub fn counts_into(&self, snap: &mut Snapshot) {
        self.counts.counts_into(snap);
        let name = "aequus_uss_peer_staleness_s".to_string();
        snap.gauges.insert(name, self.staleness_s);
    }

    /// Whether no link owes anything either way (test inspection).
    pub fn settled(&self) -> bool {
        self.vol.links.values().all(|link| !link.owes())
    }

    /// The cells already published, and per origin already relayed, under
    /// their names (test inspection).
    pub fn sent_mirrors(&self) -> (UserCells, BTreeMap<SiteId, UserCells>) {
        let named = |cells: &CellStore| named_cells(&self.ledger.users, cells.iter());
        let relayed = self.vol.relay_published.iter();
        let relayed = relayed.map(|(origin, cells)| (*origin, named(cells)));
        (named(&self.vol.published), relayed.collect())
    }

    /// The users pending publication, and per origin pending relay, under
    /// their names with the slot each is pending from (test inspection).
    pub fn pending(&self) -> (PendingNames, BTreeMap<SiteId, PendingNames>) {
        let users = &self.ledger.users;
        let named = |pending: &Pending| -> PendingNames {
            let named = |(user, from): (&UserId, &u64)| (users.name(*user).clone(), *from);
            pending.iter().map(named).collect()
        };
        let unrelayed = self.vol.unrelayed.iter();
        let unrelayed = unrelayed.map(|(origin, pending)| (*origin, named(pending)));
        (named(&self.vol.unpublished), unrelayed.collect())
    }

    /// Per-link health rows at `now_s`: one tx-side row per delivery peer
    /// and one rx-side row per expected publisher. The tx staleness signal
    /// is the **undelivered-data age** — `now` minus the publication time
    /// of the oldest unacked outbox entry, zero when the outbox is empty —
    /// so it grows only while a peer actually misses data and stays silent
    /// through quiescent drains. The counters are the link's shares of the
    /// totals, crashes included. Wire bytes/message counts and overlay
    /// depths are filled in by the sim shard, which owns the wire accounting.
    pub fn link_stats(&self, now_s: f64) -> Vec<LinkObservation> {
        let site = self.cfg.site.0;
        let on_link = |peer, what| self.counts.get(what, Some(peer));
        let row = |from, to, side| LinkObservation {
            from,
            to,
            depth: 0,
            side,
        };
        let tx_rows = self.cfg.peers.iter().map(|&peer| {
            let outbox = self.vol.links.get(&peer).map(|link| &link.outbox);
            let oldest_s = outbox.and_then(|unacked| Some(unacked.front()?.1));
            let side = LinkSide::Tx {
                staleness_s: oldest_s.map_or(0.0, |at_s| (now_s - at_s).max(0.0)),
                outbox: outbox.map_or(0, VecDeque::len),
                bytes: 0,
                msgs: 0,
                retries: on_link(peer, Count::Retries),
                snapshots: on_link(peer, Count::Snapshots),
            };
            row(site, peer.0, side)
        });
        let rx_rows = self.cfg.rx_peers.iter().map(|&peer| {
            let side = LinkSide::Rx {
                heard_age_s: self.heard_age_s(peer, now_s),
                gaps: on_link(peer, Count::Gaps),
                resyncs: on_link(peer, Count::Resyncs),
            };
            row(peer.0, site, side)
        });
        tx_rows.chain(rx_rows).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aequus_core::ids::JobId;
    use aequus_core::DecayPolicy;

    /// Unacked summaries `uss` holds for site 1.
    fn outbox_len(uss: &Uss) -> usize {
        uss.vol.links.get(&SiteId(1)).map_or(0, |l| l.outbox.len())
    }

    /// What a checkpoint of `uss` restores: its view, through the slot
    /// bytes and back.
    fn checkpointed(uss: &Uss, lsn: u64, taken_s: f64) -> CheckpointState {
        let view = uss.checkpoint_view(lsn, taken_s);
        CheckpointState::decode_slot(&view.encode()).expect("a fresh slot decodes")
    }

    /// Deliver `s` as a wire `Summary`, responses discarded.
    fn give(uss: &mut Uss, s: &UsageSummary, now_s: f64) {
        let summary = s.clone().into();
        uss.receive_message(&UssMessage::Summary { summary, ctx: None }, now_s);
    }

    fn rec(site: u32, user: &str, start: f64, end: f64) -> UsageRecord {
        UsageRecord {
            job: JobId(0),
            user: GridUser::new(user),
            site: SiteId(site),
            cores: 1,
            start_s: start,
            end_s: end,
        }
    }

    #[test]
    fn publish_excludes_open_slot() {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 100.0);
        uss.ingest(&rec(0, "a", 0.0, 50.0)); // slot 0
        uss.ingest(&rec(0, "a", 110.0, 120.0)); // slot 1 (open at t=150)
        let s = uss.publish(150.0).unwrap();
        assert!((s.total() - 50.0).abs() < 1e-9, "only slot 0 published");
        assert_eq!(s.seq, 1);
        // Slot 1 closes once now_s reaches slot 2.
        let s2 = uss.publish(250.0).unwrap();
        assert!((s2.total() - 10.0).abs() < 1e-9);
        assert_eq!(s2.seq, 2);
        // Nothing further.
        assert!(uss.publish(300.0).is_none());
    }

    #[test]
    fn no_double_publish() {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 100.0);
        uss.ingest(&rec(0, "a", 0.0, 80.0));
        let s1 = uss.publish(200.0).unwrap();
        assert!((s1.total() - 80.0).abs() < 1e-9);
        assert!(uss.publish(200.0).is_none(), "cursor advanced");
    }

    #[test]
    fn late_charge_republishes_absolute_cell() {
        // A long job completing spreads charge back into an already
        // published slot; the next summary carries the new absolute value
        // and a receiver merges exactly the delta.
        let mut a = Uss::new(SiteId(0), ParticipationMode::Full, 100.0);
        let mut b = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        a.ingest(&rec(0, "u", 0.0, 50.0));
        give(&mut b, &a.publish(200.0).unwrap(), 0.0);
        a.ingest(&rec(0, "u", 50.0, 90.0)); // lands in the published slot 0
        let s = a.publish(200.0).unwrap();
        assert!((s.total() - 90.0).abs() < 1e-9, "absolute cell value");
        give(&mut b, &s, 0.0);
        assert!((b.remote_usage_of(&GridUser::new("u")) - 90.0).abs() < 1e-9);
    }

    #[test]
    fn read_only_site_never_publishes() {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::ReadOnly, 100.0);
        uss.ingest(&rec(0, "a", 0.0, 80.0));
        assert!(uss.publish(500.0).is_none());
        // But it merges incoming data.
        let mut peer = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        peer.ingest(&rec(1, "b", 0.0, 40.0));
        let s = peer.publish(500.0).unwrap();
        give(&mut uss, &s, 0.0);
        assert_eq!(uss.counts.get(Count::Received, None), 1);
        let usage = uss.decayed_usage(500.0, DecayPolicy::None);
        assert!((usage[&GridUser::new("b")] - 40.0).abs() < 1e-9);
        assert!((usage[&GridUser::new("a")] - 80.0).abs() < 1e-9);
    }

    #[test]
    fn local_only_site_ignores_incoming() {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::LocalOnly, 100.0);
        uss.ingest(&rec(0, "a", 0.0, 80.0));
        let mut peer = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        peer.ingest(&rec(1, "b", 0.0, 40.0));
        let s = peer.publish(500.0).unwrap();
        give(&mut uss, &s, 0.0);
        let usage = uss.decayed_usage(500.0, DecayPolicy::None);
        assert!(
            !usage.contains_key(&GridUser::new("b")),
            "global data ignored"
        );
        // But it still contributes its own data outward.
        assert!(uss.publish(500.0).is_some());
    }

    #[test]
    fn local_only_site_still_acknowledges() {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::LocalOnly, 100.0);
        let mut peer = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        peer.ingest(&rec(1, "b", 0.0, 40.0));
        let s = peer.publish(500.0).unwrap();
        let responses = uss.receive_message(
            &UssMessage::Summary {
                summary: s,
                ctx: None,
            },
            500.0,
        );
        assert!(
            matches!(
                responses.as_slice(),
                [(
                    SiteId(1),
                    UssMessage::Ack {
                        from: SiteId(0),
                        seq: 1
                    }
                )]
            ),
            "{responses:?}"
        );
    }

    #[test]
    fn own_summaries_never_double_counted() {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 100.0);
        uss.ingest(&rec(0, "a", 0.0, 80.0));
        let s = uss.publish(500.0).unwrap();
        give(&mut uss, &s, 0.0); // echoed back by a relay
        let usage = uss.decayed_usage(500.0, DecayPolicy::None);
        assert!((usage[&GridUser::new("a")] - 80.0).abs() < 1e-9);
    }

    #[test]
    fn duplicate_deliveries_merge_once() {
        let mut a = Uss::new(SiteId(0), ParticipationMode::Full, 100.0);
        let mut b = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        a.ingest(&rec(0, "u", 0.0, 80.0));
        let s = a.publish(500.0).unwrap();
        give(&mut b, &s, 0.0);
        give(&mut b, &s, 0.0);
        give(&mut b, &s, 0.0);
        assert!((b.remote_usage_of(&GridUser::new("u")) - 80.0).abs() < 1e-9);
        assert_eq!(b.duplicates(), 2);
    }

    #[test]
    fn decay_applied_to_both_sources() {
        let mut uss = Uss::new(SiteId(0), ParticipationMode::Full, 10.0);
        uss.ingest(&rec(0, "a", 0.0, 10.0));
        let mut peer = Uss::new(SiteId(1), ParticipationMode::Full, 10.0);
        peer.ingest(&rec(1, "a", 0.0, 10.0));
        give(&mut uss, &peer.publish(100.0).unwrap(), 0.0);
        let fresh = uss.decayed_usage(10.0, DecayPolicy::Exponential { half_life_s: 20.0 });
        let stale = uss.decayed_usage(1000.0, DecayPolicy::Exponential { half_life_s: 20.0 });
        assert!(fresh[&GridUser::new("a")] > stale[&GridUser::new("a")]);
    }

    // --- reliability layer ---

    fn reliable_pair() -> (Uss, Uss) {
        let mut a = Uss::new(SiteId(0), ParticipationMode::Full, 100.0);
        let mut b = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        let peers = [SiteId(0), SiteId(1)];
        a.set_peers(&peers, &peers);
        b.set_peers(&peers, &peers);
        a.configure_reliability(PAIR_RETRY, 1);
        b.configure_reliability(PAIR_RETRY, 2);
        (a, b)
    }

    /// The retry policy [`reliable_pair`] runs under.
    const PAIR_RETRY: RetryPolicy = RetryPolicy {
        ack_timeout_s: 10.0,
        max_backoff_s: 40.0,
        jitter_frac: 0.0,
        history_cap: 8,
        outbox_cap: 8,
    };

    /// Deliver `msgs` to whichever of the two ends each is addressed to,
    /// feeding responses back until the exchange is quiet.
    fn drain(a: &mut Uss, b: &mut Uss, mut msgs: Vec<(SiteId, UssMessage)>, now_s: f64) {
        while !msgs.is_empty() {
            let mut next = Vec::new();
            for (dest, msg) in msgs {
                let target: &mut Uss = if dest == a.site() { a } else { b };
                next.extend(target.receive_message(&msg, now_s));
            }
            msgs = next;
        }
    }

    #[test]
    fn dropped_summary_is_retried_not_lost() {
        // The silent-loss regression: a published-but-dropped summary must
        // be re-sent after the ack timeout, not forgotten.
        let (mut a, mut b) = reliable_pair();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        assert!(a.publish(200.0).is_some());
        let first = a.poll(200.0);
        assert_eq!(first.len(), 1, "initial send");
        // Drop it on the floor. Before the ack timeout nothing is re-sent.
        assert!(a.poll(205.0).is_empty(), "backoff holds");
        assert_eq!(outbox_len(&a), 1, "still owed");
        // After the timeout the retry fires and the data arrives intact.
        let retry = a.poll(211.0);
        assert_eq!(retry.len(), 1, "retried");
        assert!(a.retries() >= 1);
        drain(&mut a, &mut b, retry, 211.0);
        assert!((b.remote_usage_of(&GridUser::new("u")) - 80.0).abs() < 1e-9);
        // The ack cleared the outbox; nothing further is sent.
        assert_eq!(outbox_len(&a), 0);
        assert!(a.poll(500.0).is_empty());
    }

    #[test]
    fn link_stats_report_undelivered_data_age() {
        let (mut a, mut b) = reliable_pair();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.publish(200.0);
        let sent = a.poll(200.0);
        // The summary is in flight but unacked: staleness is the age of the
        // oldest undelivered publish, measured at the asking clock.
        let tx_to_1 = |uss: &Uss, now_s: f64| {
            let rows = uss.link_stats(now_s).into_iter();
            let mut tx = rows.filter_map(|o| match o.side {
                LinkSide::Tx {
                    staleness_s,
                    outbox,
                    ..
                } if o.to == 1 => Some((staleness_s, outbox)),
                _ => None,
            });
            tx.next().expect("tx row for peer 1")
        };
        let (staleness_s, outbox) = tx_to_1(&a, 260.0);
        assert!((staleness_s - 60.0).abs() < 1e-9);
        assert_eq!(outbox, 1);
        drain(&mut a, &mut b, sent, 261.0);
        // Once acked the outbox drains and the link reads fresh again, even
        // if no new data has been published since (quiescent != stale).
        assert_eq!(tx_to_1(&a, 1000.0), (0.0, 0));
        // The receiving side reports how long since it last heard from us.
        let rows = b.link_stats(300.0).into_iter();
        let mut rx = rows.filter_map(|o| match o.side {
            LinkSide::Rx { heard_age_s, .. } if o.from == 0 => Some(heard_age_s),
            _ => None,
        });
        assert!((rx.next().expect("rx row for peer 0") - 39.0).abs() < 1e-9);
    }

    /// `[retries, snapshots, gaps, resyncs]` summed over `uss`'s link rows.
    fn link_sums(uss: &Uss) -> [u64; 4] {
        let mut sums = [0; 4];
        for row in uss.link_stats(0.0) {
            match row.side {
                LinkSide::Tx {
                    retries, snapshots, ..
                } => (sums[0], sums[1]) = (sums[0] + retries, sums[1] + snapshots),
                LinkSide::Rx { gaps, resyncs, .. } => {
                    (sums[2], sums[3]) = (sums[2] + gaps, sums[3] + resyncs)
                }
            }
        }
        sums
    }

    #[test]
    fn link_counters_run_across_a_crash_and_sum_to_the_totals() {
        let (mut a, mut b) = reliable_pair();
        let totals = |uss: &Uss| {
            [
                uss.retries(),
                uss.snapshots_sent(),
                uss.seq_gaps(),
                uss.resyncs(),
            ]
        };
        let catchup = UssMessage::SnapshotRequest { from: SiteId(1) };
        // One of each before the crash: a retry and a snapshot answer on
        // a's end of the link, a gap and its resync on b's.
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.publish(200.0);
        a.poll(200.0); // dropped
        a.poll(211.0); // the retry, dropped too
        a.ingest(&rec(0, "u", 110.0, 160.0));
        give(&mut b, &a.publish(300.0).unwrap(), 300.0); // seq 1 never came
        a.receive_message(&catchup, 300.0);
        assert_eq!((link_sums(&a), link_sums(&b)), ([1, 1, 0, 0], [0, 0, 1, 1]));
        // Both ends crash, then one more of each: the link rows go on from
        // where they were, as the totals do.
        a.crash();
        b.crash();
        let republished = a.publish(400.0).unwrap();
        a.poll(400.0);
        a.poll(411.0);
        give(&mut b, &republished, 411.0);
        a.receive_message(&catchup, 411.0);
        assert_eq!((link_sums(&a), link_sums(&b)), ([2, 2, 0, 0], [0, 0, 2, 2]));
        assert_eq!((link_sums(&a), link_sums(&b)), (totals(&a), totals(&b)));
    }

    /// One publication, one allocation: the history entry is what every
    /// first send, retry and resync answer carries, and once the history
    /// lets go of it only the copies still in flight hold it.
    #[test]
    fn a_publication_is_shared_never_copied() {
        let mut a = Uss::new(SiteId(0), ParticipationMode::Full, 100.0);
        let peers = [SiteId(1), SiteId(2), SiteId(3)];
        a.set_peers(&peers, &peers);
        a.configure_reliability(PAIR_RETRY, 1);
        a.ingest(&rec(0, "u", 0.0, 80.0));
        let published = a.publish(200.0).expect("a closed slot");
        let history = &a.vol.history;
        assert!(Arc::ptr_eq(
            &history.back().expect("retained").0,
            &published
        ));
        let first = a.poll(200.0);
        let retries = a.poll(211.0); // every first send dropped; backoff 10 s
        let resync = UssMessage::Resync {
            from: SiteId(2),
            from_seq: 1,
            to_seq: 1,
        };
        let answer = a.receive_message(&resync, 212.0);
        assert_eq!((first.len(), retries.len(), answer.len()), (3, 3, 1));
        for (_, msg) in first.iter().chain(&retries).chain(&answer) {
            let UssMessage::Summary { summary, .. } = msg else {
                panic!("a data message: {msg:?}");
            };
            assert!(Arc::ptr_eq(summary, &published), "a copy: {msg:?}");
        }
        for i in 0..PAIR_RETRY.history_cap {
            let start = 200.0 + 100.0 * i as f64;
            a.ingest(&rec(0, "u", start, start + 50.0));
            a.publish(start + 200.0).expect("a later closed slot");
        }
        assert_eq!(a.vol.history.front().map(|(s, _)| s.seq), Some(2));
        assert_eq!(Arc::strong_count(&published), 1 + 3 + 3 + 1);
        drop((first, retries));
        assert_eq!(Arc::strong_count(&published), 1 + 1);
    }

    #[test]
    fn backoff_grows_until_ack_then_resets() {
        let (mut a, mut b) = reliable_pair();
        a.ingest(&rec(0, "u", 0.0, 50.0));
        a.publish(200.0);
        assert_eq!(a.poll(200.0).len(), 1); // attempt 1 → next at +10
        assert_eq!(a.poll(210.0).len(), 1); // attempt 2 → next at +20
        assert!(a.poll(225.0).is_empty(), "within doubled backoff");
        let third = a.poll(230.0);
        assert_eq!(third.len(), 1); // attempt 3
        drain(&mut a, &mut b, third, 230.0);
        // Fresh data after the ack goes out immediately again.
        a.ingest(&rec(0, "u", 110.0, 150.0));
        a.publish(400.0);
        assert_eq!(a.poll(400.0).len(), 1, "backoff reset by ack");
        assert_eq!(a.poll(410.0).len(), 1, "its first retry waits 10 s again");
    }

    /// A link with nothing unacked sends fresh data at once, even while a
    /// pull on it waits for the backoff.
    #[test]
    fn fresh_data_does_not_wait_for_a_pulls_backoff() {
        let (mut a, mut b) = reliable_pair();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.publish(200.0).expect("seq 1, lost");
        a.ingest(&rec(0, "u", 110.0, 160.0));
        let summary = a.publish(300.0).expect("seq 2");
        let answers = b.receive_message(&UssMessage::Summary { summary, ctx: None }, 300.0);
        assert_eq!(answers.len(), 2, "an ack and the gap's pull: {answers:?}");
        b.ingest(&rec(1, "v", 0.0, 60.0));
        b.publish(305.0).expect("b's own data");
        let sent = b.poll(305.0); // the pull rides along
        let [(SiteId(0), UssMessage::Summary { .. }), (SiteId(0), UssMessage::Resync { .. })] =
            &sent[..]
        else {
            panic!("b's summary goes out with the pull: {sent:?}");
        };
    }

    #[test]
    fn gap_triggers_resync_and_recovers() {
        let (mut a, mut b) = reliable_pair();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        let s1 = a.publish(200.0).unwrap();
        a.ingest(&rec(0, "u", 110.0, 160.0));
        let s2 = a.publish(300.0).unwrap();
        assert_eq!((s1.seq, s2.seq), (1, 2));
        // s1 is lost; s2 arrives and exposes the gap.
        let responses = b.receive_message(
            &UssMessage::Summary {
                summary: s2,
                ctx: None,
            },
            300.0,
        );
        assert_eq!(b.seq_gaps(), 1);
        let resync = responses
            .iter()
            .find(|(_, m)| matches!(m, UssMessage::Resync { .. }))
            .expect("gap must trigger a resync pull");
        assert!(matches!(
            resync.1,
            UssMessage::Resync {
                from_seq: 1,
                to_seq: 1,
                ..
            }
        ));
        // The pull re-syncs the missing range from a's history.
        drain(&mut a, &mut b, responses, 300.0);
        assert!((b.remote_usage_of(&GridUser::new("u")) - 130.0).abs() < 1e-9);
        assert_eq!(b.resyncs(), 1);
    }

    #[test]
    fn compacted_history_falls_back_to_snapshot() {
        let (mut a, mut b) = reliable_pair();
        let retry = RetryPolicy {
            history_cap: 1,
            jitter_frac: 0.0,
            ..PAIR_RETRY
        };
        a.configure_reliability(retry, 1);
        // Three publishes; history retains only the last.
        for (i, t) in [200.0, 300.0, 400.0].into_iter().enumerate() {
            a.ingest(&rec(0, "u", i as f64 * 100.0, i as f64 * 100.0 + 50.0));
            a.publish(t).unwrap();
        }
        // b sees only seq 3 → gap [1,2]; a's history lost seqs 1-2, so the
        // pull is answered with a cumulative snapshot.
        let s3 = a.vol.history.back().unwrap().0.clone();
        let responses = b.receive_message(
            &UssMessage::Summary {
                summary: s3,
                ctx: None,
            },
            400.0,
        );
        drain(&mut a, &mut b, responses, 400.0);
        assert!(a.snapshots_sent() >= 1, "snapshot fallback used");
        assert!((b.remote_usage_of(&GridUser::new("u")) - 150.0).abs() < 1e-9);
    }

    #[test]
    fn crash_recovery_converges_via_catchup() {
        let (mut a, mut b) = reliable_pair();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        b.ingest(&rec(1, "v", 0.0, 60.0));
        a.publish(200.0);
        b.publish(200.0);
        let mut msgs = a.poll(200.0);
        msgs.extend(b.poll(200.0));
        drain(&mut a, &mut b, msgs, 200.0);
        assert!((b.remote_usage_of(&GridUser::new("u")) - 80.0).abs() < 1e-9);
        // b crashes: remote view wiped, then recovery pulls a snapshot.
        b.crash();
        assert_eq!(b.remote_usage_of(&GridUser::new("u")), 0.0);
        b.request_catchup();
        let msgs = b.poll(300.0);
        assert!(
            matches!(
                msgs.as_slice(),
                [(SiteId(0), UssMessage::SnapshotRequest { .. })]
            ),
            "{msgs:?}"
        );
        drain(&mut a, &mut b, msgs, 300.0);
        assert!((b.remote_usage_of(&GridUser::new("u")) - 80.0).abs() < 1e-9);
        // b's own durable local data republishes under fresh seqs; a's cell
        // mirror makes the re-publication a no-op.
        assert!(b.publish(300.0).is_some(), "published mirror was wiped");
        let msgs = b.poll(300.0);
        drain(&mut a, &mut b, msgs, 300.0);
        assert!((a.remote_usage_of(&GridUser::new("v")) - 60.0).abs() < 1e-9);
    }

    /// The explorer's trail: a recovered site's one catch-up request is
    /// dropped, and its peer never publishes again — only the request's
    /// retry makes the site whole.
    #[test]
    fn a_dropped_catchup_request_is_retried_against_a_silent_peer() {
        let (mut a, mut b) = reliable_pair();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.publish(200.0).expect("a closed slot");
        let [(SiteId(1), summary)] = &a.poll(200.0)[..] else {
            panic!("one summary to site 1");
        };
        for (_, ack) in b.receive_message(summary, 200.0) {
            a.receive_message(&ack, 200.0);
        }
        assert!(a.settled(), "the summary was acked");
        b.crash();
        b.request_catchup();
        let asked = b.poll(210.0);
        assert!(
            matches!(asked[..], [(SiteId(0), UssMessage::SnapshotRequest { .. })]),
            "{asked:?}"
        );
        // Dropped. From here on nothing is lost and a has nothing to say.
        for round in 1..=10 {
            let now_s = 210.0 + 25.0 * f64::from(round);
            assert!(a.publish(now_s).is_none());
            let mut msgs = a.poll(now_s);
            msgs.extend(b.poll(now_s));
            drain(&mut a, &mut b, msgs, now_s);
        }
        let want: BTreeMap<GridUser, f64> = [(GridUser::new("u"), 80.0)].into();
        assert_eq!(b.grid_view(), want);
        assert!(a.settled() && b.settled(), "nothing owed either way");
    }

    /// A gap's pull is owed until the cursor reaches its top: a dropped
    /// `Resync` goes out again on the link's backoff, though the publisher
    /// holds nothing unacked and publishes nothing more.
    #[test]
    fn a_dropped_gap_pull_is_retried() {
        let (mut a, mut b) = reliable_pair();
        a.configure_reliability(
            RetryPolicy {
                outbox_cap: 1,
                ..PAIR_RETRY
            },
            1,
        );
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.publish(200.0).expect("seq 1");
        a.ingest(&rec(0, "u", 110.0, 160.0));
        a.publish(300.0)
            .expect("seq 2, and seq 1 overflows the outbox");
        let sent = a.poll(300.0);
        let answers = b.receive_message(&sent[0].1, 300.0);
        let [ack, (SiteId(0), UssMessage::Resync { .. })] = &answers[..] else {
            panic!("an ack and the gap's pull: {answers:?}");
        };
        a.receive_message(&ack.1, 300.0); // the pull is dropped
        assert!(a.settled() && !b.settled());
        for round in 1..=4 {
            let now_s = 300.0 + 25.0 * f64::from(round);
            let mut msgs = a.poll(now_s);
            msgs.extend(b.poll(now_s));
            drain(&mut a, &mut b, msgs, now_s);
        }
        assert!((b.remote_usage_of(&GridUser::new("u")) - 130.0).abs() < 1e-9);
        assert!(b.settled() && b.resyncs() == 2, "one pull, one retry");
    }

    /// A peer cut off for more than `history_cap` publications costs the
    /// publisher one snapshot, answering the gap the peer pulls once it
    /// hears again — not one per flush into the outage, nor one per
    /// out-of-order arrival after it.
    #[test]
    fn an_outage_past_the_history_costs_one_snapshot() {
        let (mut a, mut b) = reliable_pair();
        let retry = RetryPolicy {
            history_cap: 4,
            ..PAIR_RETRY
        };
        a.configure_reliability(retry, 1);
        let mut now_s = 200.0;
        for i in 0..12 {
            let start = 100.0 * f64::from(i);
            a.ingest(&rec(0, "u", start, start + 50.0));
            now_s = start + 200.0;
            a.publish(now_s).expect("a closed slot");
            a.poll(now_s); // cut off: every flush is lost
        }
        let unsent = outbox_len(&a);
        assert_eq!(
            unsent, retry.history_cap,
            "the outbox keeps what the history holds"
        );
        for _ in 0..20 {
            now_s += 25.0;
            let mut msgs = a.poll(now_s);
            msgs.extend(b.poll(now_s));
            drain(&mut a, &mut b, msgs, now_s);
        }
        assert!((b.remote_usage_of(&GridUser::new("u")) - 600.0).abs() < 1e-9);
        assert!(a.settled() && b.settled(), "nothing owed either way");
        assert_eq!((a.snapshots_sent(), b.seq_gaps()), (1, 1));
    }

    /// Seqs never restart (the publish cursor survives every crash), so a
    /// late duplicate of seq 1 is a duplicate like any other: it rewinds no
    /// cursor, and the next seq in order opens no gap.
    #[test]
    fn a_late_duplicate_of_seq_1_opens_no_gap() {
        let (mut a, mut b) = reliable_pair();
        let published: Vec<_> = (0..5)
            .map(|i| {
                let start = 100.0 * f64::from(i);
                a.ingest(&rec(0, "u", start, start + 50.0));
                a.publish(start + 200.0).expect("a closed slot")
            })
            .collect();
        let order = [0, 1, 2, 3, 0, 4].map(|at| &published[at]);
        let mut responses = Vec::new();
        for summary in order {
            let summary = Arc::clone(summary);
            responses.extend(b.receive_message(&UssMessage::Summary { summary, ctx: None }, 700.0));
        }
        assert_eq!(b.seq_gaps(), 0);
        let pulled = |(_, msg): &(SiteId, UssMessage)| matches!(msg, UssMessage::Resync { .. });
        assert!(!responses.iter().any(pulled), "{responses:?}");
    }

    #[test]
    fn stale_ack_across_crash_cannot_cancel_republication() {
        // Regression: the publish cursor must survive a crash. If seqs
        // restarted at 1, an ack for the *old* seq 1 still in flight at
        // crash time would cancel the *new* seq-1 summary (the full
        // republished history) while the network drops it — and with the
        // published mirror already advanced, that data would never be sent
        // again.
        let (mut a, mut b) = reliable_pair();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        let pre = a.publish(200.0).expect("summary");
        assert_eq!(pre.seq, 1);
        a.poll(200.0); // old seq-1 summary leaves; its ack will arrive late
        a.crash();
        a.ingest(&rec(0, "u", 210.0, 250.0));
        let post = a.publish(300.0).expect("republication");
        assert!(post.seq > pre.seq, "crash must not reuse sequence numbers");
        a.poll(300.0); // post-crash summary leaves and is dropped
                       // The stale ack from the pre-crash numbering lands now.
        a.receive_message(
            &UssMessage::Ack {
                from: SiteId(1),
                seq: pre.seq,
            },
            310.0,
        );
        assert_eq!(
            outbox_len(&a),
            1,
            "stale ack must not cancel the unacked republication"
        );
        // The retry (after backoff) really does re-deliver everything.
        let msgs = a.poll(400.0);
        assert!(!msgs.is_empty(), "republication retried");
        drain(&mut a, &mut b, msgs, 400.0);
        assert!((b.remote_usage_of(&GridUser::new("u")) - 120.0).abs() < 1e-9);
        assert!(a.retries() > 0);
    }

    #[test]
    fn stale_policy_degrades_to_local_only_and_restores() {
        let (mut a, mut b) = reliable_pair();
        b.set_stale_policy(StalePolicy::LocalOnly {
            max_staleness_s: 100.0,
        });
        b.ingest(&rec(1, "v", 0.0, 30.0));
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.publish(200.0);
        let msgs = a.poll(200.0);
        drain(&mut a, &mut b, msgs, 200.0);
        b.update_staleness(250.0);
        assert!(!b.remote_suppressed());
        assert!(b.grid_view().contains_key(&GridUser::new("u")));
        // Peer goes silent past the threshold: remote weighting suppressed.
        b.update_staleness(400.0);
        assert!(b.remote_suppressed());
        assert!(!b.grid_view().contains_key(&GridUser::new("u")));
        assert!(
            !b.decayed_usage(400.0, DecayPolicy::None)
                .contains_key(&GridUser::new("u")),
            "UMS-facing usage is local-only while degraded"
        );
        // Fresh data from the peer restores the global view.
        a.ingest(&rec(0, "u", 110.0, 150.0));
        a.publish(500.0);
        let msgs = a.poll(500.0);
        drain(&mut a, &mut b, msgs, 500.0);
        b.update_staleness(505.0);
        assert!(!b.remote_suppressed());
        assert!((b.grid_view()[&GridUser::new("u")] - 120.0).abs() < 1e-9);
    }

    #[test]
    fn outbox_overflow_drops_oldest_but_converges_via_resync() {
        let (mut a, mut b) = reliable_pair();
        let retry = RetryPolicy {
            outbox_cap: 2,
            history_cap: 2,
            jitter_frac: 0.0,
            ..PAIR_RETRY
        };
        a.configure_reliability(retry, 1);
        for i in 0..5 {
            a.ingest(&rec(0, "u", i as f64 * 100.0, i as f64 * 100.0 + 50.0));
            a.publish(100.0 * (i + 2) as f64).unwrap();
        }
        assert_eq!(outbox_len(&a), 2, "bounded outbox");
        let msgs = a.poll(700.0);
        drain(&mut a, &mut b, msgs, 700.0);
        assert!(
            (b.remote_usage_of(&GridUser::new("u")) - 250.0).abs() < 1e-9,
            "gap → resync → snapshot recovered the overflowed entries"
        );
    }

    // --- overlay relay (per-hop aggregation) ---

    /// Three sites in a line: 0 — 1 — 2, with site 1 forwarding. Sites 0
    /// and 2 are not linked; their data must cross the interior node.
    fn relay_chain() -> (Uss, Uss, Uss) {
        let mut a = Uss::new(SiteId(0), ParticipationMode::Full, 100.0);
        let mut h = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        let mut c = Uss::new(SiteId(2), ParticipationMode::Full, 100.0);
        a.set_peers(&[SiteId(1)], &[SiteId(1)]);
        h.set_peers(&[SiteId(0), SiteId(2)], &[SiteId(0), SiteId(2)]);
        c.set_peers(&[SiteId(1)], &[SiteId(1)]);
        h.set_forwarding(true);
        let retry = RetryPolicy {
            ack_timeout_s: 10.0,
            max_backoff_s: 40.0,
            jitter_frac: 0.0,
            history_cap: 8,
            outbox_cap: 8,
        };
        a.configure_reliability(retry, 1);
        h.configure_reliability(retry, 2);
        c.configure_reliability(retry, 3);
        (a, h, c)
    }

    /// Route messages between the three chain nodes until quiet, then let
    /// the forwarder publish/poll its relay sections and route again.
    fn pump_chain(a: &mut Uss, h: &mut Uss, c: &mut Uss, now_s: f64) {
        for _ in 0..4 {
            let mut msgs: Vec<(SiteId, UssMessage)> = Vec::new();
            msgs.extend(a.poll(now_s));
            h.publish(now_s); // relay pass: diff seen_by_origin vs relayed
            msgs.extend(h.poll(now_s));
            msgs.extend(c.poll(now_s));
            while !msgs.is_empty() {
                let mut next = Vec::new();
                for (dest, msg) in msgs {
                    let target: &mut Uss = match dest.0 {
                        0 => a,
                        1 => h,
                        _ => c,
                    };
                    next.extend(target.receive_message(&msg, now_s));
                }
                msgs = next;
            }
        }
    }

    #[test]
    fn interior_node_relays_leaf_data_across_the_chain() {
        let (mut a, mut h, mut c) = relay_chain();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        c.ingest(&rec(2, "w", 0.0, 40.0));
        a.publish(500.0);
        c.publish(500.0);
        pump_chain(&mut a, &mut h, &mut c, 500.0);
        // Every node sees all data despite 0 and 2 never talking directly.
        for (uss, who) in [(&a, "a"), (&h, "hub"), (&c, "c")] {
            let view = uss.grid_view();
            assert!((view[&GridUser::new("u")] - 80.0).abs() < 1e-9, "{who}");
            assert!((view[&GridUser::new("w")] - 40.0).abs() < 1e-9, "{who}");
        }
        // The relay echoed site 0's data back to site 0 (the hub publishes
        // one summary to all neighbors) — it must not double-count.
        assert!((a.remote_usage_of(&GridUser::new("u")) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn relay_sections_are_incremental_and_idempotent() {
        let (mut a, mut h, mut c) = relay_chain();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.publish(500.0);
        pump_chain(&mut a, &mut h, &mut c, 500.0);
        // A second relay pass with nothing new publishes nothing.
        assert!(h.publish(600.0).is_none(), "no new cells: no relay traffic");
        // More data at the origin relays only the delta.
        a.ingest(&rec(0, "u", 110.0, 150.0));
        a.publish(700.0);
        pump_chain(&mut a, &mut h, &mut c, 700.0);
        assert!((c.remote_usage_of(&GridUser::new("u")) - 120.0).abs() < 1e-9);
    }

    #[test]
    fn relayed_duplicates_collapse_under_origin_scoped_mirror() {
        let (mut a, mut h, mut c) = relay_chain();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        let s = a.publish(500.0).unwrap();
        h.receive_message(
            &UssMessage::Summary {
                summary: s,
                ctx: None,
            },
            500.0,
        );
        let relay = h.publish(500.0).unwrap();
        assert!(relay.per_user.is_empty(), "hub has no local data");
        assert_eq!(relay.relayed.len(), 1, "one relayed origin");
        // Deliver the relayed summary to c three times: merged once.
        for _ in 0..3 {
            give(&mut c, &relay, 510.0);
        }
        assert!((c.remote_usage_of(&GridUser::new("u")) - 80.0).abs() < 1e-9);
        assert_eq!(c.duplicates(), 2);
    }

    #[test]
    fn forwarding_snapshot_covers_relayed_origins() {
        let (mut a, mut h, mut c) = relay_chain();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.publish(500.0);
        pump_chain(&mut a, &mut h, &mut c, 500.0);
        // c crashes and catches up from the hub alone: the hub's snapshot
        // must carry site 0's cells as a relayed section.
        c.crash();
        c.request_catchup();
        pump_chain(&mut a, &mut h, &mut c, 600.0);
        assert!(
            (c.remote_usage_of(&GridUser::new("u")) - 80.0).abs() < 1e-9,
            "snapshot from the forwarding hub restored relayed data"
        );
    }

    #[test]
    fn crashed_interior_node_rebuilds_relay_state() {
        let (mut a, mut h, mut c) = relay_chain();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.publish(500.0);
        pump_chain(&mut a, &mut h, &mut c, 500.0);
        h.crash();
        h.request_catchup();
        pump_chain(&mut a, &mut h, &mut c, 600.0);
        // New origin data published after the hub's recovery still crosses.
        a.ingest(&rec(0, "u", 110.0, 150.0));
        a.publish(700.0);
        pump_chain(&mut a, &mut h, &mut c, 700.0);
        assert!((h.remote_usage_of(&GridUser::new("u")) - 120.0).abs() < 1e-9);
        assert!((c.remote_usage_of(&GridUser::new("u")) - 120.0).abs() < 1e-9);
    }

    /// The checkpoint the store writes is encoded from the id-keyed stores'
    /// rows under their names; its slot bytes must be those of the owned
    /// name-keyed export — every histogram and mirror as a map in a
    /// `CheckpointState` — overflow users (every user, here: the services'
    /// tables have no base) sorted in by name.
    #[test]
    fn borrowed_checkpoint_view_fills_the_slot_like_the_owned_export() {
        let (mut a, mut h, mut c) = relay_chain();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.ingest(&rec(0, "v", 120.0, 310.5));
        c.ingest(&rec(2, "u", 30.0, 95.25));
        h.ingest(&rec(1, "w", 10.0, 260.0)); // three slots
        h.ingest(&rec(1, "u", 480.0, 490.0)); // still open at 500
        a.publish(500.0);
        c.publish(500.0);
        pump_chain(&mut a, &mut h, &mut c, 500.0);
        for uss in [&a, &h, &c] {
            let owned = CheckpointState {
                lsn: 41,
                taken_s: 500.0,
                site: uss.cfg.site,
                slot_s: uss.ledger.local.slot_duration(),
                local_cells: named_cells(&uss.ledger.users, uss.ledger.local.rows()),
                records_ingested: uss.ledger.records_ingested,
                next_seq: uss.ledger.next_seq,
                peers: (uss.vol.links.iter())
                    .map(|(site, link)| {
                        (
                            *site,
                            PeerCursor {
                                next_expected: link.next_expected,
                            },
                        )
                    })
                    .collect(),
                origin_cells: (uss.vol.seen_by_origin.iter())
                    .map(|(origin, cells)| (*origin, named_cells(&uss.ledger.users, cells.iter())))
                    .collect(),
            };
            assert!(!owned.local_cells.is_empty() && !owned.peers.is_empty());
            let view = uss.checkpoint_view(41, 500.0);
            assert_eq!(view.encode(), owned.encode());
            assert_eq!(CheckpointState::decode_slot(&view.encode()), Some(owned));
        }
        assert_eq!(
            h.vol.seen_by_origin.len(),
            2,
            "the relay mirrors both leaves"
        );
    }

    #[test]
    fn checkpoint_round_trips_origin_scoped_mirror() {
        let (mut a, mut h, mut c) = relay_chain();
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.publish(500.0);
        pump_chain(&mut a, &mut h, &mut c, 500.0);
        let ckpt = checkpointed(&h, 7, 500.0);
        assert!(ckpt.origin_cells.contains_key(&SiteId(0)));
        let mut restored = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        restored.set_peers(&[SiteId(0), SiteId(2)], &[SiteId(0), SiteId(2)]);
        restored.set_forwarding(true);
        restored.install_checkpoint(&ckpt).unwrap();
        assert!((restored.remote_usage_of(&GridUser::new("u")) - 80.0).abs() < 1e-9);
        // The relay-published mirror is not checkpointed: the first publish
        // re-relays the whole mirror — idempotent downstream.
        let replayed = restored.publish(600.0).unwrap();
        assert_eq!(replayed.relayed.len(), 1);
        give(&mut c, &replayed, 600.0);
        assert!((c.remote_usage_of(&GridUser::new("u")) - 80.0).abs() < 1e-9);
    }

    /// A two-cell summary from site 0, sequenced, binned like the receivers
    /// below (100 s slots): the well-formed baseline the hostile cases bend.
    fn summary_from_site0(seq: u64) -> Publication {
        let mut a = Uss::new(SiteId(0), ParticipationMode::Full, 100.0);
        a.ingest(&rec(0, "u", 0.0, 80.0));
        a.ingest(&rec(0, "v", 110.0, 150.0));
        let mut s = Arc::unwrap_or_clone(a.publish(500.0).expect("two closed slots"));
        s.seq = seq;
        s
    }

    fn assert_refused_whole(b: &Uss, responses: &[(SiteId, UssMessage)]) {
        assert!(responses.is_empty(), "no ack, no resync: {responses:?}");
        assert_eq!(b.rejected(), 1);
        assert_eq!(b.remote_total(), 0.0, "no cell merged");
        assert!(b.grid_view().values().all(|v| v.is_finite()));
        assert!(checkpointed(b, 0, 0.0).peers.is_empty(), "no cursor");
        assert_eq!(
            (b.counts.get(Count::Received, None), b.duplicates()),
            (0, 0)
        );
    }

    #[test]
    fn a_summary_with_a_non_charge_cell_is_refused_whole_on_the_wire() {
        for (hostile, relayed) in [
            (f64::INFINITY, false),
            (f64::NAN, false),
            (-1.0, false),
            (f64::INFINITY, true),
        ] {
            let mut s = summary_from_site0(1);
            // The bad cell sorts after a good one, so a cell-by-cell merge
            // would already have taken "u" when it met "v".
            let bad: UserCells = [(GridUser::new("v"), [(1, hostile)].into())].into();
            if relayed {
                s.relayed.insert(SiteId(7), bad);
            } else {
                s.per_user.extend(bad);
            }
            // The codec is a faithful transport: it decodes as sent.
            let msg = UssMessage::Summary {
                summary: Arc::new(s.clone()),
                ctx: None,
            };
            let decoded = UssMessage::decode(&msg.encode()).expect("CRC-valid");
            let mut b = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
            let responses = b.receive_message(&decoded, 600.0);
            assert_refused_whole(&b, &responses);
            // A well-formed retransmission of the same seq still lands.
            let good = UssMessage::Summary {
                summary: Arc::new(summary_from_site0(1)),
                ctx: None,
            };
            assert_eq!(b.receive_message(&good, 700.0).len(), 1, "acked");
            assert!((b.remote_total() - 120.0).abs() < 1e-9);
            assert_eq!(b.rejected(), 1);
        }
    }

    #[test]
    fn a_summary_binned_with_another_slot_duration_is_refused() {
        for slot_s in [60.0, f64::NAN, 100.0 + 1e-6] {
            let mut s = summary_from_site0(1);
            s.slot_s = slot_s;
            let mut b = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
            let responses = b.receive_message(
                &UssMessage::Snapshot {
                    summary: Arc::new(s),
                    ctx: None,
                },
                600.0,
            );
            assert_refused_whole(&b, &responses);
        }
        // Inside the tolerance `install_checkpoint` uses, it merges.
        let mut s = summary_from_site0(1);
        s.slot_s = 100.0 + 1e-12;
        let mut b = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        give(&mut b, &s, 600.0);
        assert_eq!(b.rejected(), 0);
        assert!((b.remote_total() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn wal_replay_refuses_what_the_wire_refuses() {
        let mut b = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        let mut inf = summary_from_site0(1);
        inf.per_user
            .insert(GridUser::new("v"), [(1, f64::INFINITY)].into());
        b.replay_peer_data(&inf, false);
        let mut misbinned = summary_from_site0(2);
        misbinned.slot_s = 60.0;
        b.replay_peer_data(&misbinned, true);
        assert_eq!(b.remote_total(), 0.0);
        assert!(checkpointed(&b, 0, 0.0).peers.is_empty(), "no cursor");
        b.replay_peer_data(&summary_from_site0(1), false);
        assert!((b.remote_total() - 120.0).abs() < 1e-9);
    }

    #[test]
    fn a_checkpoint_with_a_non_charge_cell_is_not_installed() {
        let mut a = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        a.ingest(&rec(1, "u", 0.0, 80.0));
        give(&mut a, &summary_from_site0(1), 500.0);
        let good = checkpointed(&a, 3, 500.0);
        let mut local = good.clone();
        local
            .local_cells
            .insert(GridUser::new("w"), [(0, f64::INFINITY)].into());
        let mut origin = good.clone();
        origin
            .origin_cells
            .get_mut(&SiteId(0))
            .unwrap()
            .insert(GridUser::new("w"), [(2, f64::NAN)].into());
        for (bad, slot) in [(local, 0), (origin, 2)] {
            let mut b = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
            b.ingest(&rec(1, "kept", 0.0, 10.0));
            let err = b.install_checkpoint(&bad).unwrap_err();
            assert!(
                matches!(&err, RecoveryError::BadCell { user, slot: s, .. }
                    if user.as_str() == "w" && *s == slot),
                "{err}"
            );
            // Refused before anything was replaced.
            assert!((b.local_usage_of(&GridUser::new("kept")) - 10.0).abs() < 1e-9);
            assert_eq!(b.remote_total(), 0.0);
        }
        let mut b = Uss::new(SiteId(1), ParticipationMode::Full, 100.0);
        b.install_checkpoint(&good).unwrap();
        assert!((b.remote_total() - 120.0).abs() < 1e-9);
    }
}
