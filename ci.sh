#!/usr/bin/env bash
# Repo CI gate: formatting, lints, the full test suite, the simulated-results
# drift gate, and the bench gates (`aequus-bench check`).
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
# Tier-1 tests under a 3-seed matrix: AEQUUS_TEST_SEED shifts every seeded
# suite — the chaos fault matrix's base seed (including its durability
# axis) and all property-test case generation, the store's WAL
# truncation/bit-flip properties among them — so the gate covers three
# seed families per run.
for seed in 1 2 3; do
  AEQUUS_TEST_SEED="$seed" cargo test -q --workspace
done

# The repo benchmark's own tests (its crate is outside the workspace): the
# span replay in benchmark/src/replay.rs mirrors the engine call for call,
# and must reproduce the engine's sim_digest on the tiny shapes of all four
# workloads — so a product change that breaks or drifts the mirror fails
# here instead of in the acceptance run.
cargo test --offline --release --manifest-path benchmark/Cargo.toml

# Simulated-results drift gate: one timed benchmark pass per workload and
# recorded seed, each `sim_digest` (a hash over every simulated outcome of
# the run) compared with the value recorded in results/sim_digests.seedN
# (the seed is the file name's suffix) — so a change that is meant to keep
# every simulated number where it is gets checked in seconds. A PR that
# means to move simulated numbers edits those files in the same diff and
# says why.
#
# On `paper_x3`, where instruments once cost 8.5x memory, a second pass
# with telemetry on must reproduce the same digest within twice the timed
# pass's peak RSS: turning the instruments on may not change what the run
# computes, nor grow its memory by more than the run itself holds.
pass() { benchmark/run.sh pass --workload "$1" --seed "$2" --mode "$3"; }
digest_of() { sed -n 's/.*"sim_digest":"\([0-9a-f]*\)".*/\1/p' <<<"$1"; }
rss_of() { sed -n 's/.*"peak_rss_mb":\([0-9.]*\).*/\1/p' <<<"$1"; }
for recorded in results/sim_digests.seed*; do
  seed="${recorded##*.seed}"
  while read -r workload want; do
    timed=$(pass "$workload" "$seed" timed)
    if [ "$(digest_of "$timed")" != "$want" ]; then
      echo "sim_digest drift on $workload at seed $seed: got '$(digest_of "$timed")', recorded $want" >&2
      exit 1
    fi
    if [ "$workload" = paper_x3 ]; then
      telemetry=$(pass "$workload" "$seed" telemetry)
      if [ "$(digest_of "$telemetry")" != "$want" ]; then
        echo "sim_digest drift on $workload at seed $seed with telemetry on: got '$(digest_of "$telemetry")', recorded $want" >&2
        exit 1
      fi
      if ! awk -v on="$(rss_of "$telemetry")" -v off="$(rss_of "$timed")" 'BEGIN { exit !(on > 0 && on <= 2 * off) }'; then
        echo "telemetry-on peak RSS on $workload at seed $seed is $(rss_of "$telemetry") MB, over 2x the timed pass's $(rss_of "$timed") MB" >&2
        exit 1
      fi
    fi
  done <"$recorded"
done

# Docs must build warning-free for the first-party crates (vendored shims
# are exempt — they mirror external APIs we don't own).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
  -p aequus -p aequus-telemetry -p aequus-core -p aequus-services \
  -p aequus-rms -p aequus-sim -p aequus-workload -p aequus-stats \
  -p aequus-store -p aequus-bench

# The bench gates, one command: telemetry and profiler cost, the gossip,
# health, backfill, recovery and scale sweeps, the simulated headline
# numbers against results/sim_keys.json and the instruments' operation
# counts against results/instrument_ops.json (both read from this source
# tree). What each gate holds is written next to its entry in `CHECK_PLAN`
# (crates/bench/src/exp/mod.rs); the run ends with one table of every gate
# and exits non-zero if any failed.
cargo run -q --release -p aequus-bench -- check

# Lines per crate and panic sites, counted one way (count.sh): a panic site
# in the product crates' non-test code that panic_sites.allow does not list,
# with its reason, fails here — as does a product `pub fn` no other file's
# non-test code names that reach.allow does not list.
./count.sh

# The experiment binaries became `aequus-bench <experiment>`: no tracked doc
# or script may still name one of them as a `--bin`.
if git grep -n -e '--bin' -- '*.md' '*.sh' ':!ISSUE.md' ':!CHANGES.md' ':!ci.sh'; then
  echo "a tracked .md/.sh file still names a deleted bench binary" >&2
  exit 1
fi
# Decoders of bytes from outside a site return errors: the byte formats'
# non-test code (up to the first `#[cfg(test)]`) holds no `expect`/`unwrap`
# /`unreachable!` — nor do the UMS refresh, which a serving site runs every
# tick, the USS and the site around it, which every delivery runs through,
# and the trace an SWF file parses into, which sorts and ranks its values;
# nor the epoch loop, the shard it steps and the event queue the shard pops,
# the usage histograms every refresh folds, the health map, the telemetry
# locks (a poisoned one is taken over), the float sorts, which order by
# `total_cmp`, and the scheduler's dispatch path (a taken slot is an
# `Option`), the ECDF's figure series, the SWF writer, and the quantile
# bisection with the mixture's certified replay of it.
for f in crates/core/src/codec.rs crates/services/src/message.rs \
  crates/store/src/records.rs crates/store/src/checkpoint.rs crates/store/src/wal.rs \
  crates/services/src/ums.rs crates/services/src/uss.rs crates/services/src/uss/*.rs \
  crates/services/src/site.rs crates/services/src/tracer.rs crates/workload/src/trace.rs \
  crates/sim/src/barrier.rs crates/sim/src/shard.rs crates/sim/src/event.rs \
  crates/core/src/usage.rs crates/services/src/health.rs \
  crates/telemetry/src/registry.rs crates/telemetry/src/lib.rs crates/telemetry/src/span.rs \
  crates/core/src/vector.rs crates/stats/src/{acf,gof,ks,optim,select,summary}.rs \
  crates/stats/src/dist/heavy.rs crates/rms/src/{scheduler,dispatch,predict}.rs \
  crates/stats/src/ecdf.rs crates/workload/src/swf.rs \
  crates/stats/src/dist/mixture.rs crates/stats/src/distribution.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n -e '\.expect(' -e '\.unwrap()' -e 'unreachable!('; then
    echo "$f: an expect/unwrap/unreachable in a file held to none" >&2
    exit 1
  fi
done
# One publication, one allocation: from `Uss::publish` to every peer's
# message and the receiver's WAL record a summary is shared by pointer
# (`Arc::clone`), never deep-copied.
for f in crates/services/src/uss.rs crates/services/src/site.rs \
  crates/services/src/message.rs crates/store/src/records.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'summary\.clone()'; then
    echo "$f: a summary is copied where it should be shared" >&2
    exit 1
  fi
done
# One exchange path, one detector, one switch per observability surface:
# the broadcast entry points, the flight recorder's own detectors, the
# shard-placement option, the `cargo bench` harness, the profiler's
# counters-only tier, the span sampling rate and provenance flag, the bench
# crate's scenario builder over the scenario's own and the engine's private
# stage table are deleted — as are the USS's per-sequence trace-context map
# (a publication's context sits in its history entry) and the `-1` that told
# a tx link row from an rx one (rows are typed), and the fairshare tree's
# eager per-sibling derivation with the counters and the kernel bench that
# measured it (shares are read on demand off the tree's sums), and the
# checkpoint's UMS section with the install path that read it (a restart
# rebuilds the UMS from the USS), and the barrier's worker pool with its
# command channels and result types (sites advance in contiguous runs on
# per-epoch scoped threads), and the USS's separate per-peer send and
# receive states with the fire-once catch-up set (one `Link` per peer holds
# what is owed each way), and the counting sink that sized a message by
# running its encode again (a size is the length of a publication's one
# frame), and the `CellRow` trait that let a section encoder read a user's
# cells as a slot map or a row (a user's cells have one shape, the row), and
# the store's durable cell-encoding constant and the frame's tag-to-encoding
# reader (one wire format; a frame's tag is the one it writes), and the FCS's
# `Translation` between layout and site ids with its two re-mappers (one id
# space per site: a replaced policy's layout is keyed by the site's table),
# and the telemetry handle's pipeline-tracer lock, in-flight atomic and
# `trace_*` forwarders with the lib's per-query name lookup for it (the
# tracer is a field of the site, keyed by the site's ids), and the store's
# file backend with the `Storage` trait and the two error types only it
# could raise (the store writes one in-memory disk, and none of its calls
# can fail), and the scenario's profiling switch with the profiler's own
# per-link wire map (a telemetry-on run is profiled, and the shard's wire
# ledger is the one per-link record), and the stats functions nothing
# reached (Q–Q series, the two-sample KS test and their neighbours), and the
# telemetry snapshot's Prometheus and JSON exporters with their parsers and
# round-trip suite (a snapshot is read where it is taken), and the
# ratio-of-minima microbench with its site-backed sample (every instrument is
# gated as counted work × unit cost), and the telemetry event ring with its
# snapshot fields (a fact is recorded once, by a counter or a stage
# histogram), and the engine registry's copies of the shard counts, queue
# high-water marks and health report with the labeled-series key they used
# (the profile, `health_report` and `alerts` hold them), and the telemetry
# `Counter` and `Gauge` with the three series no service kept a count for
# and the UMS's several-USS refresh (a count lives in the service that
# keeps it, and a snapshot reads it there), and the explanation's JSON
# codec with the telemetry handle's string-typed decision ring (a site keeps
# its captures as typed records, and every reader is in the process), and the
# policy's second copy — its lazily built layout, its node-tree root accessor
# and the fairshare row's per-node share (a policy is its layout plus one share
# column, and a fairshare tree reads that column) — and the layout's
# per-node struct with its index by node id and its per-node child lists (a
# layout is columns: a node's parent, level, children and name are read from
# flat vectors) — and no tracked source, manifest, doc or script names them again; nor does the RMS
# crate name the predictor's by-job-id map of `inflight` predictions (a
# running job carries the one it started under), nor the engine a channel.
# The test bed's IRS resolves by endpoint: its eager `store_mapping` fill stays gone.
# `take_outbox`
# is the one shim left of the broadcast path: code names it only where it is
# defined and where the benchmark calls it.
if git grep -n -e 'receive_summary' -e 'journal_broadcast' -e 'observe_user_share' \
  -e 'observe_divergence' -e 'ShardPlacement' -e 'benches/' \
  -e 'ProfileMode::Counters' -e 'span_sample_every' -e 'capture_provenance' \
  -e 'ScenarioBuilder' -e 'SERVICE_STAGES' -e 'publish_trace' -e 'heard_age_s < 0\.0' \
  -e 'derive_group' -e 'changed_elements' -e 'shares_refreshed' -e 'fairshare_kernel' \
  -e 'ums_cached' -e 'export_state' -e 'install_state' -e 'row_from' \
  -e 'worker_loop' -e 'WorkerOut' -e 'SiteFragments' \
  -e 'catchup_pending' -e 'PeerTx' -e 'PeerRx' -e 'encoded_size' -e 'CellRow' \
  -e 'CELL_ENCODING' -e 'from_tag' -e 'Translation' -e 'by_layout_id' \
  -e 'marked_by_layout_id' -e 'tracer_active' -e 'with_tracer' -e 'traces_active' \
  -e 'trace_ums_refresh' -e 'trace_fcs_refresh' -e 'trace_lib_query' \
  -e 'FileStorage' -e 'StorageError' -e 'StoreError' -e 'dyn Storage' \
  -e 'with_profiling' -e 'add_wire' -e 'qq_series' -e 'ks_two_sample' \
  -e 'to_prometheus' -e 'from_prometheus' -e 'proptest_export' \
  -e 'min_ratio' -e 'site_sample_ns' -e 'loaded_site' \
  -e 'TelemetryEvent' -e 'recent_events' -e 'events_dropped' \
  -e 'series_name' -e 'aequus_sim_job_arrivals_total' -e 'aequus_sim_cluster_ticks_total' \
  -e 'aequus_sim_gossip_deliveries_total' -e 'aequus_sim_gossip_partitioned_total' \
  -e 'aequus_sim_gossip_dropped_total' -e 'aequus_sim_crashes_total' \
  -e 'aequus_sim_metrics_samples_total' -e 'aequus_sim_event_queue_hwm' \
  -e 'aequus_sim_mailbox_hwm' -e 'aequus_health_link_' -e 'aequus_health_depth_lag_s' \
  -e 'aequus_slo_alert_transitions_total' \
  -e 'fn counter(' -e 'fn gauge(' -e 'pub struct Counter' -e 'pub struct Gauge' \
  -e 'aequus_fcs_queries_total' -e 'aequus_rms_reprio_passes_total' \
  -e 'aequus_pds_edits_total' -e 'refresh_many' \
  -e 'ProvenanceRecord' -e 'record_provenance' -e 'provenance_records' \
  -e 'decay_json' -e 'Explanation::from_json' -e 'PolicyTree::root' \
  -e 'struct LayoutNode' -e 'Index<NodeId> for PolicyLayout' \
  -- '*.rs' '*.toml' '*.md' '*.sh' ':!CHANGES.md' ':!ISSUE.md' ':!ci.sh' ||
  git grep -n 'inflight' -- crates/rms || git grep -n 'mpsc' -- crates/sim ||
  git grep -n -e 'OnceLock' -e 'fn root(' -e 'children: Vec<NodeId>' -- crates/core/src/policy.rs ||
  git grep -n 'LayoutNode' -- crates ||
  sed -n '/^struct NodeState/,/^}/p' crates/core/src/fairshare.rs | grep -n -w 'share:' ||
  git grep -n 'store_mapping' -- crates/sim/src; then
  echo "a deleted path is named again" >&2
  exit 1
fi
# The fairshare core stands alone: its manifest's `[dependencies]` names no
# other crate of the workspace.
if sed -n '/^\[dependencies\]/,/^\[/p' crates/core/Cargo.toml | grep -n '^aequus-'; then
  echo "crates/core/Cargo.toml: aequus-core depends on a workspace crate" >&2
  exit 1
fi
# One wire format: every frame is written in the columnar layout, and
# `Encoding::Dense` is only the fixed-width yardstick's size. Outside test
# code it is named by the codec that defines that size, the message that
# counts it and the bench gates that compare against it — so no encoder or
# decoder branches on it again.
for f in $(git grep -l 'Encoding::Dense' -- '*.rs' ':!tests/' ':!crates/*/tests/*' \
  ':!crates/core/src/codec.rs' ':!crates/services/src/message.rs' ':!crates/bench/src/'); do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n 'Encoding::Dense'; then
    echo "$f: names Encoding::Dense outside the codec, the message size and the bench gates" >&2
    exit 1
  fi
done
if git grep -n 'take_outbox' -- '*.rs' '*.toml' '*.sh' \
  ':!crates/sim/src/cluster.rs' ':!benchmark/src/replay.rs' ':!ci.sh'; then
  echo "take_outbox has a caller besides the benchmark's replay" >&2
  exit 1
fi
# One user table from the wire to the factor: the name-keyed structures the
# `UserTable` and the policy layout replaced are named nowhere, and between
# the edges nothing is keyed by name — the non-test code of the tree, the
# table, the UMS, the FCS, the pipeline tracer, the RMS plugin and the
# sampler holds a `BTreeMap<GridUser, _>` only in the signatures of the
# by-name entry and the report accessors DESIGN.md's id contract lists
# (`FairshareTree::{compute, by_user}`, `Fcs::factors`).
if git grep -n -e 'UserIndex' -e 'PendingUsers' -e 'users_by_id' -e 'user_paths' \
  -- '*.rs' DESIGN.md; then
  echo "a name-keyed structure the user table replaced is named again" >&2
  exit 1
fi
for f in crates/core/src/fairshare.rs crates/core/src/arena.rs crates/services/src/ums.rs \
  crates/services/src/fcs.rs crates/services/src/tracer.rs crates/rms/src/plugin.rs \
  crates/sim/src/shard.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -v -e '^ *//' \
    -e 'usage_by_user: &BTreeMap<GridUser, f64>,' -e 'pub fn by_user(' -e 'pub fn factors(' |
    grep -n -e 'BTreeMap<GridUser' -e 'BTreeSet<GridUser'; then
    echo "$f: a name-keyed map between the edges" >&2
    exit 1
  fi
done
# A user's usage is one slot-sorted row: the flat per-cell map the rows
# replaced does not come back beside them — it lives on only as the
# reference the rows are tested against.
if git grep -n -F 'BTreeMap<(UserId, u64)' -- crates ':!crates/core/tests/proptest_core.rs'; then
  echo "a per-cell (user, slot) map is back beside the per-user rows" >&2
  exit 1
fi
# A histogram's rows are one id-indexed column: no keyed map comes back beside it.
histogram=$(sed '/#\[cfg(test)\]/,$d' crates/core/src/usage.rs | sed -n '/^pub struct UsageHistogram {/,/^}/p')
if [ -z "$histogram" ] || grep -n -e 'CellStore' -e 'BTreeMap' <<<"$histogram"; then
  echo "crates/core/src/usage.rs: UsageHistogram is gone or keeps a keyed map beside its column" >&2
  exit 1
fi
# The row is also the one shape of a user's cells at the edges (`UserCells`:
# summaries, snapshots, checkpoints, WAL records): no per-user slot map
# comes back in the crates' source, test modules included.
if git grep -n -F 'BTreeMap<u64, f64>' -- 'crates/*/src/**'; then
  echo "a per-user slot map is back beside the slot-sorted rows" >&2
  exit 1
fi
# Wall clock is the repo benchmark's to judge (benchmark/): no per-PR
# snapshot or profile file may be tracked again.
[ -z "$(git ls-files 'BENCH_*' 'PROFILE_*')" ] || { echo "a BENCH_/PROFILE_ snapshot is tracked again" >&2; exit 1; }
