//! Scenario definitions: cluster fleets, policies, and all tunables of a
//! simulated grid deployment.

use aequus_core::codec::Encoding;
use aequus_core::fairshare::FairshareConfig;
use aequus_core::policy::{flat_policy, PolicyTree};
use aequus_core::projection::ProjectionKind;
use aequus_rms::{DispatchConfig, PriorityWeights};
use aequus_services::{
    OverlayTopology, ParticipationMode, RetryPolicy, ServiceTimings, StalePolicy, StoreConfig,
};

use crate::dispatch::RoutingPolicy;
use crate::faults::{FaultPlan, Outage};

/// `n` synthetic equal-standing user names (`u000000`…), for scale runs
/// where the paper's four-user policy would be unrealistically small.
pub fn synthetic_users(n: usize) -> Vec<String> {
    (0..n).map(|i| format!("u{i:06}")).collect()
}

/// Which of the paper's two RMS integrations a cluster's scheduler behaves
/// like. Every cluster runs the same [`aequus_rms::SchedulerCore`]; the kind
/// selects its [`aequus_rms::ReprioritizePolicy`] and nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RmsKind {
    /// SLURM-like (plugin integration): priorities are recomputed on a
    /// period — `Interval` of the scenario's tick, at least 5 s.
    Slurm,
    /// Maui-like (patched call-outs): priorities are recomputed every
    /// scheduling iteration — `EveryCycle`.
    Maui,
}

/// One cluster of the simulated grid.
#[derive(Debug, Clone)]
pub struct ClusterSpec {
    /// Virtual hosts.
    pub nodes: u32,
    /// Cores per host (the paper's virtual hosts run one job each).
    pub cores_per_node: u32,
    /// Participation in the global usage exchange.
    pub participation: ParticipationMode,
    /// RMS integration style (re-prioritization cadence).
    pub rms: RmsKind,
    /// Site-local policy override — "local administrations retain control
    /// over their clusters" (§II-A): a site may enforce its own tree (e.g.
    /// local users plus a mounted grid share) instead of the grid-wide
    /// default. Leaves absent from a site's policy get the neutral factor
    /// there.
    pub policy_override: Option<PolicyTree>,
}

/// One cluster of the paper's national test bed: 40 single-core virtual
/// hosts, SLURM, full participation, the grid-wide policy.
impl Default for ClusterSpec {
    fn default() -> Self {
        Self {
            nodes: 40,
            cores_per_node: 1,
            participation: ParticipationMode::Full,
            rms: RmsKind::Slurm,
            policy_override: None,
        }
    }
}

impl ClusterSpec {
    /// Total cores.
    pub fn cores(&self) -> u32 {
        self.nodes * self.cores_per_node
    }
}

/// A complete grid scenario.
#[derive(Debug, Clone)]
pub struct GridScenario {
    /// The clusters.
    pub clusters: Vec<ClusterSpec>,
    /// The share policy every site enforces. Usually flat (the paper's
    /// evaluation uses the four model users directly under the root), but
    /// arbitrary hierarchies — including mounted VO subtrees — are
    /// supported end-to-end.
    pub policy: PolicyTree,
    /// Fairshare algorithm configuration (k weight, decay, resolution).
    pub fairshare: FairshareConfig,
    /// Vector→scalar projection ("the percental projection approach is used
    /// during testing").
    pub projection: ProjectionKind,
    /// The §IV-A-2 delay chain.
    pub timings: ServiceTimings,
    /// RMS priority factor weights ("fairshare is the only scheduling
    /// factor used during these tests").
    pub weights: PriorityWeights,
    /// Submission-host routing policy (which cluster gets each job).
    pub routing: RoutingPolicy,
    /// Per-cluster queue dispatch: order (FIFO / EASY / Conservative /
    /// SAF), runtime predictor, and walltime-overrun policy, applied to
    /// every site's RMS.
    pub dispatch: DispatchConfig,
    /// Walltime-request padding: each trace job's request is its true
    /// duration times this factor (1.0 = perfectly honest requests, the
    /// paper's idle-wait test bed; > 1 models the padded requests real
    /// users submit, < 1 models under-requesting).
    pub request_factor: f64,
    /// Cluster advance interval, seconds of simulated time.
    pub tick_interval_s: f64,
    /// Metrics sampling interval, seconds.
    pub sample_interval_s: f64,
    /// USS histogram slot duration, seconds.
    pub usage_slot_s: f64,
    /// RNG seed (dispatch and faults).
    pub seed: u64,
    /// Failure injection.
    pub faults: FaultPlan,
    /// Reliable-exchange retry/backoff/retention configuration.
    pub retry: RetryPolicy,
    /// What sites serve while peer data goes stale (outages, crashes).
    pub stale_policy: StalePolicy,
    /// Enable telemetry: per-site metric registries, stage timers, the
    /// end-to-end pipeline-delay tracer, and the run profile
    /// ([`crate::SimResult::profile`]). Off by default — disabled telemetry
    /// compiles to no-op handles on every hot path.
    pub telemetry: bool,
    /// Causal tracing, layered on telemetry: every usage report roots a
    /// cross-site span tree and every served query that closes one captures
    /// its decision provenance (a replayable `Explanation`). Requires
    /// `telemetry`.
    pub tracing: bool,
    /// Run a flight recorder as the sink of the SLO alert stream: each
    /// alert transition that survives its dedup window dumps the reference
    /// site's retained spans as JSONL into the result. Fed
    /// by `health`, which [`GridScenario::with_flight_recorder`] switches on.
    pub flight: Option<aequus_telemetry::flight::AnomalyConfig>,
    /// Attach a durable per-site store (CRC-framed WAL + checkpoints).
    /// Crashed sites then recover by replaying their own store first and
    /// fall back to anti-entropy catch-up only for the delta; without a
    /// store, recovery relies entirely on peer snapshots.
    pub store: Option<StoreConfig>,
    /// Extra delivery latency for `Snapshot` catch-up messages, seconds —
    /// models hauling a full cumulative snapshot over the wire versus the
    /// compact incremental summaries. `0.0` keeps the legacy behavior
    /// (snapshots as fast as summaries).
    pub snapshot_transfer_s: f64,
    /// Shard-worker threads for the parallel engine. `1` (the default) runs
    /// the epoch loop inline without spawning; any value yields results
    /// seed-for-seed identical to `1` — threads only change wall-clock time.
    pub num_threads: usize,
    /// Cap on how many policy users the per-sample fairshare readout walks
    /// (`None` = all). Nation-scale runs with 100k+ users would otherwise
    /// spend the whole run inside metrics sampling; the first `cap` users in
    /// policy order still give the figures their tracked series.
    pub metrics_user_cap: Option<usize>,
    /// Gossip overlay topology: which sites exchange summaries directly.
    /// Interior nodes of non-mesh overlays relay merged cells onward
    /// (per-hop aggregation), so every site still converges to the full
    /// grid view.
    pub overlay: OverlayTopology,
    /// How gossip bytes-on-wire are counted (`wire_size` of every delivered
    /// message), not which bytes are written: `Delta` is the codec's encoded
    /// size, `Dense` the fixed-width yardstick.
    pub encoding: Encoding,
    /// Fairness-health monitoring: streaming SLO rules with multi-window
    /// burn-rate alerting plus the per-link gossip health map. `None` (the
    /// default) skips all health collection; `Some` fills
    /// [`crate::SimResult::health_report`] and [`crate::SimResult::alerts`].
    /// Thresholds left at `0.0` are auto-derived from the scenario timings.
    pub health: Option<aequus_telemetry::SloConfig>,
}

impl GridScenario {
    /// The paper's national test bed: six clusters of 40 virtual hosts
    /// ("for a total of 240 hosts, corresponding roughly to 10% of the
    /// national grid capacity"), SLURM on every site, percental projection,
    /// fairshare-only priority, k = 0.5.
    pub fn national_testbed(policy_shares: &[(&str, f64)], seed: u64) -> Self {
        let timings = ServiceTimings::default();
        Self {
            clusters: vec![ClusterSpec::default(); 6],
            policy: flat_policy(policy_shares).expect("valid flat policy"),
            fairshare: FairshareConfig {
                // Decay tuned to the compressed 6-hour test horizon.
                decay: aequus_core::DecayPolicy::Exponential {
                    half_life_s: 1800.0,
                },
                ..FairshareConfig::default()
            },
            projection: ProjectionKind::Percental,
            timings,
            weights: PriorityWeights::fairshare_only(),
            routing: RoutingPolicy::Stochastic,
            dispatch: DispatchConfig::default(),
            request_factor: 1.0,
            tick_interval_s: 5.0,
            sample_interval_s: 60.0,
            usage_slot_s: 60.0,
            seed,
            faults: FaultPlan::none(),
            retry: RetryPolicy::from_timings(&timings),
            stale_policy: StalePolicy::ServeStale,
            telemetry: false,
            tracing: false,
            flight: None,
            store: None,
            snapshot_transfer_s: 0.0,
            num_threads: 1,
            metrics_user_cap: None,
            overlay: OverlayTopology::FullMesh,
            encoding: Encoding::default(),
            health: None,
        }
    }

    /// A single production-like cluster (the HPC2N deployment: 544 cores,
    /// SLURM 2.4.3, one Aequus installation).
    pub fn production_cluster(policy_shares: &[(&str, f64)], seed: u64) -> Self {
        let mut s = Self::national_testbed(policy_shares, seed);
        s.clusters = vec![ClusterSpec {
            nodes: 68,
            cores_per_node: 8,
            ..ClusterSpec::default()
        }];
        s
    }

    /// A test bed whose policy is `users` synthetic equal-share leaves (see
    /// [`synthetic_users`]) — the nation-scale shape.
    pub fn equal_share_users(users: usize, seed: u64) -> Self {
        let names = synthetic_users(users);
        let share = 1.0 / users.max(1) as f64;
        let shares: Vec<(&str, f64)> = names.iter().map(|n| (n.as_str(), share)).collect();
        Self::national_testbed(&shares, seed)
    }

    /// Total cores across all clusters.
    pub fn total_cores(&self) -> u32 {
        self.clusters.iter().map(ClusterSpec::cores).sum()
    }

    /// Per-cluster core capacities (dispatch weights).
    pub fn capacities(&self) -> Vec<u32> {
        self.clusters.iter().map(ClusterSpec::cores).collect()
    }

    /// Replace the (flat) policy with an arbitrary hierarchy — e.g. a site
    /// tree with a mounted grid sub-policy.
    pub fn with_policy(mut self, policy: PolicyTree) -> Self {
        self.policy = policy;
        self
    }

    /// Resize the fleet to exactly `n` sites: truncate, or extend by cloning
    /// the last cluster spec (homogeneous growth) — a test-bed cluster when
    /// the fleet is empty.
    pub fn sites(mut self, n: usize) -> Self {
        let template = self.clusters.last().cloned().unwrap_or_default();
        self.clusters.resize(n, template);
        self
    }

    /// Set every cluster's host count.
    pub fn nodes_per_site(mut self, nodes: u32) -> Self {
        for c in &mut self.clusters {
            c.nodes = nodes;
        }
        self
    }

    /// The chaos/recovery suites' compressed timing profile: fast service
    /// delays (5 s exchange latency), 30 s publish/refresh cadence, 60 s
    /// usage slots, 5 s ticks — the whole delay chain squeezed so faults and
    /// recovery play out inside a sub-hour run.
    pub fn compressed(mut self) -> Self {
        self.timings = ServiceTimings {
            report_delay_s: 5.0,
            uss_publish_interval_s: 30.0,
            ums_refresh_interval_s: 30.0,
            fcs_refresh_interval_s: 30.0,
            lib_cache_ttl_s: 10.0,
            lib_identity_ttl_s: 60.0,
            exchange_latency_s: 5.0,
        };
        self.usage_slot_s = 60.0;
        self.tick_interval_s = 5.0;
        self
    }

    /// The tight reliability-layer configuration the fault suites use
    /// (15 s ack timeout, 60 s backoff ceiling, 20% jitter) with explicit
    /// retention caps.
    pub fn tight_retry(mut self, history_cap: usize, outbox_cap: usize) -> Self {
        self.retry = RetryPolicy {
            ack_timeout_s: 15.0,
            max_backoff_s: 60.0,
            jitter_frac: 0.2,
            history_cap,
            outbox_cap,
        };
        self
    }

    /// Per-delivery exchange drop probability.
    pub fn drops(mut self, probability: f64) -> Self {
        self.faults.drop_probability = probability;
        self
    }

    /// Add a network partition of `cluster` over `[from_s, to_s)`.
    pub fn outage(mut self, cluster: usize, from_s: f64, to_s: f64) -> Self {
        self.faults.outages.push(Outage {
            cluster,
            from_s,
            to_s,
        });
        self
    }

    /// Add a crash-recovery cycle of `cluster` over `[from_s, to_s)`.
    pub fn crash(mut self, cluster: usize, from_s: f64, to_s: f64) -> Self {
        self.faults.crashes.push(Outage {
            cluster,
            from_s,
            to_s,
        });
        self
    }

    /// Enable per-site telemetry (metric registries, stage timers, the
    /// pipeline-delay tracer and the run profile).
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Causal tracing: every report traced and every traced served query's
    /// decision provenance recorded. Implies telemetry.
    pub fn with_tracing(mut self) -> Self {
        self.telemetry = true;
        self.tracing = true;
        self
    }

    /// Attach a flight recorder to the SLO alert stream. Implies health
    /// monitoring (under [`aequus_telemetry::SloConfig::default`] unless
    /// [`GridScenario::with_health`] chose otherwise).
    pub fn with_flight_recorder(mut self, cfg: aequus_telemetry::flight::AnomalyConfig) -> Self {
        self.flight = Some(cfg);
        self.health.get_or_insert_with(Default::default);
        self
    }

    /// Attach a durable store (default configuration) to every site.
    pub fn with_durable_store(mut self) -> Self {
        self.store = Some(StoreConfig::default());
        self
    }

    /// Set the extra delivery latency for snapshot catch-up transfers.
    pub fn with_snapshot_transfer(mut self, seconds: f64) -> Self {
        self.snapshot_transfer_s = seconds;
        self
    }

    /// Run the epoch loop on `n` shard-worker threads (1 = inline/serial).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.num_threads = n.max(1);
        self
    }

    /// Choose the gossip overlay topology (default: full mesh).
    pub fn with_overlay(mut self, overlay: OverlayTopology) -> Self {
        self.overlay = overlay;
        self
    }

    /// Choose how gossip bytes are counted.
    pub fn with_encoding(mut self, encoding: Encoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// Enable fairness-health monitoring (SLO burn-rate alerting + per-link
    /// gossip health map) with the given configuration.
    pub fn with_health(mut self, cfg: aequus_telemetry::SloConfig) -> Self {
        self.health = Some(cfg);
        self
    }

    /// Cap the per-sample fairshare readout to the first `cap` policy users.
    pub fn with_metrics_user_cap(mut self, cap: usize) -> Self {
        self.metrics_user_cap = Some(cap);
        self
    }

    /// Configure every site's queue dispatch (order, predictor, overrun
    /// policy).
    pub fn with_dispatch(mut self, dispatch: DispatchConfig) -> Self {
        self.dispatch = dispatch;
        self
    }

    /// Set the walltime-request padding factor applied to trace jobs.
    pub fn with_request_factor(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "request factor must be positive");
        self.request_factor = factor;
        self
    }

    /// The users the metrics track: every policy leaf with its *absolute*
    /// target share (product of normalized shares along the path).
    /// `O(policy nodes)`: one tree walk, not one root-to-leaf descent (with
    /// a sibling re-sum at every level) per user.
    pub fn tracked_users(&self) -> Vec<(String, f64)> {
        let shares = self.policy.user_shares().into_iter();
        shares.map(|(user, share)| (user.0, share)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn national_testbed_matches_paper() {
        let s = GridScenario::national_testbed(&[("U65", 0.65)], 1);
        assert_eq!(s.clusters.len(), 6);
        assert_eq!(s.total_cores(), 240);
        assert_eq!(s.projection, ProjectionKind::Percental);
        assert_eq!(s.fairshare.k_weight, 0.5);
        assert_eq!(s.weights, PriorityWeights::fairshare_only());
        assert_eq!(s.routing, RoutingPolicy::Stochastic);
        assert_eq!(s.dispatch, DispatchConfig::default());
        assert_eq!(s.request_factor, 1.0);
    }

    /// `tracked_users` computes every leaf's share in one walk; per leaf it
    /// must be, bit for bit, what `absolute_share` yields descending alone.
    #[test]
    fn tracked_users_match_per_leaf_absolute_share_bit_for_bit() {
        use aequus_core::policy::PolicyNode;
        let flat: Vec<(String, f64)> = (0..50)
            .map(|i| (format!("u{i:03}"), 1.0 + i as f64 / 7.0))
            .collect();
        let flat: Vec<(&str, f64)> = flat.iter().map(|(n, s)| (n.as_str(), *s)).collect();
        // The benchmark's `vo_burst` shape: 4 VOs x 4 projects x 4 users.
        let level = |prefix: &str, share: f64, below: &dyn Fn(&str, usize) -> PolicyNode| {
            let children = (0..4).map(|i| below(&format!("{prefix}{i}"), i)).collect();
            PolicyNode::group(prefix, share, children)
        };
        let user = |name: &str, u: usize| PolicyNode::user(name, (u + 1) as f64);
        let project = |name: &str, p: usize| level(&format!("{name}u"), (p + 1) as f64, &user);
        let vo =
            |name: &str, v: usize| level(&format!("{name}p"), [0.4, 0.3, 0.2, 0.1][v], &project);
        let three_level = level("vo", 1.0, &vo);
        // A group whose children all have share 0 (its subtree reads 0.0),
        // a zero-share group beside a live one, and a zero-share user.
        let zeroes = PolicyNode::group(
            "root",
            1.0,
            vec![
                PolicyNode::group(
                    "dead",
                    0.5,
                    vec![PolicyNode::user("d0", 0.0), PolicyNode::user("d1", 0.0)],
                ),
                PolicyNode::group("mute", 0.0, vec![PolicyNode::user("m0", 2.0)]),
                PolicyNode::group(
                    "live",
                    0.5,
                    vec![PolicyNode::user("l0", 3.0), PolicyNode::user("l1", 0.0)],
                ),
            ],
        );
        let policies = [
            flat_policy(&flat).unwrap(),
            PolicyTree::new(three_level).unwrap(),
            PolicyTree::new(zeroes).unwrap(),
        ];
        for policy in policies {
            let s = GridScenario::national_testbed(&[("u", 1.0)], 1).with_policy(policy);
            let leaves = s.policy.users();
            let tracked = s.tracked_users();
            assert_eq!(tracked.len(), leaves.len());
            assert!(tracked.len() >= 5);
            for ((name, share), (path, user)) in tracked.iter().zip(&leaves) {
                assert_eq!(name, user.as_str());
                let alone = s.policy.absolute_share(path).unwrap();
                assert_eq!(
                    share.to_bits(),
                    alone.to_bits(),
                    "{path}: {share} vs {alone}"
                );
            }
        }
    }

    #[test]
    fn fleet_grows_and_shrinks() {
        let sc = GridScenario::national_testbed(&[("U65", 1.0)], 1);
        let big = sc.clone().sites(32).nodes_per_site(8);
        assert_eq!(big.clusters.len(), 32);
        assert_eq!(big.total_cores(), 32 * 8);
        assert_eq!(sc.clone().sites(3).clusters.len(), 3);
        // Emptied, the fleet grows again from a test-bed cluster.
        let regrown = sc.sites(0).sites(2);
        assert_eq!(regrown.clusters.len(), 2);
        assert_eq!(regrown.total_cores(), 2 * 40);
    }

    #[test]
    fn builder_replicates_recovery_shape() {
        let sc = GridScenario::national_testbed(&[("U65", 1.0)], 7)
            .sites(3)
            .nodes_per_site(4)
            .compressed()
            .tight_retry(12, 16)
            .crash(2, 400.0, 700.0)
            .with_telemetry()
            .with_snapshot_transfer(240.0)
            .with_durable_store();
        assert_eq!(sc.timings.exchange_latency_s, 5.0);
        assert_eq!(sc.tick_interval_s, 5.0);
        assert_eq!(sc.retry.history_cap, 12);
        assert_eq!(sc.faults.crashes.len(), 1);
        assert!(sc.telemetry && sc.store.is_some());
        assert_eq!(sc.snapshot_transfer_s, 240.0);
    }

    #[test]
    fn synthetic_users_are_unique_and_ordered() {
        let users = synthetic_users(1000);
        assert_eq!(users.len(), 1000);
        assert!(users.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn production_cluster_is_hpc2n_sized() {
        let s = GridScenario::production_cluster(&[("a", 1.0)], 1);
        assert_eq!(s.total_cores(), 544);
    }
}
