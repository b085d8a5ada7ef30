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
# pass's peak RSS (ROADMAP item 4(b)'s memory target).
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

# The experiment binaries became `aequus-bench <experiment>`: no tracked doc
# or script may still name one of them as a `--bin`.
if git grep -n -e '--bin' -- '*.md' '*.sh' ':!ISSUE.md' ':!CHANGES.md' ':!ci.sh'; then
  echo "a tracked .md/.sh file still names a deleted bench binary" >&2
  exit 1
fi
# Decoders of bytes from outside a site return errors: the byte formats'
# non-test code (up to the first `#[cfg(test)]`) holds no `expect`/`unwrap`
# — nor do the UMS refresh, which a serving site runs every tick, and the
# USS and the site around it, which every delivery runs through.
for f in crates/core/src/codec.rs crates/services/src/message.rs \
  crates/store/src/records.rs crates/store/src/checkpoint.rs crates/store/src/wal.rs \
  crates/services/src/ums.rs crates/services/src/uss.rs crates/services/src/uss/*.rs \
  crates/services/src/site.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -n -e '\.expect(' -e '\.unwrap()'; then
    echo "$f: an expect/unwrap on a path a serving site runs over outside input" >&2
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
# measured it (shares are read on demand off the tree's sums) — and no
# tracked source, manifest, doc or script names them again; nor does the RMS
# crate name the predictor's by-job-id map of `inflight` predictions (a
# running job carries the one it started under). `take_outbox`
# is the one shim left of the broadcast path: code names it only where it is
# defined and where the benchmark calls it.
if git grep -n -e 'receive_summary' -e 'journal_broadcast' -e 'observe_user_share' \
  -e 'observe_divergence' -e 'ShardPlacement' -e 'benches/' \
  -e 'ProfileMode::Counters' -e 'span_sample_every' -e 'capture_provenance' \
  -e 'ScenarioBuilder' -e 'SERVICE_STAGES' -e 'publish_trace' -e 'heard_age_s < 0\.0' \
  -e 'derive_group' -e 'changed_elements' -e 'shares_refreshed' -e 'fairshare_kernel' \
  -- '*.rs' '*.toml' '*.md' '*.sh' ':!CHANGES.md' ':!ISSUE.md' ':!ci.sh' ||
  git grep -n 'inflight' -- crates/rms; then
  echo "a deleted path is named again" >&2
  exit 1
fi
if git grep -n 'take_outbox' -- '*.rs' '*.toml' '*.sh' \
  ':!crates/sim/src/cluster.rs' ':!benchmark/src/replay.rs' ':!ci.sh'; then
  echo "take_outbox has a caller besides the benchmark's replay" >&2
  exit 1
fi
# One user table from the wire to the factor: the name-keyed structures the
# `UserTable` and the policy layout replaced are named nowhere, and between
# the edges nothing is keyed by name — the non-test code of the tree, the
# table, the UMS, the FCS, the RMS plugin and the sampler holds a
# `BTreeMap<GridUser, _>` only in the signatures of the by-name entry and
# the report accessors DESIGN.md's id contract lists
# (`FairshareTree::{compute, by_user}`, `Fcs::factors`).
if git grep -n -e 'UserIndex' -e 'PendingUsers' -e 'users_by_id' -e 'user_paths' \
  -- '*.rs' DESIGN.md; then
  echo "a name-keyed structure the user table replaced is named again" >&2
  exit 1
fi
for f in crates/core/src/fairshare.rs crates/core/src/arena.rs crates/services/src/ums.rs \
  crates/services/src/fcs.rs crates/rms/src/plugin.rs crates/sim/src/shard.rs; do
  if sed '/#\[cfg(test)\]/,$d' "$f" | grep -v -e '^ *//' \
    -e 'usage_by_user: &BTreeMap<GridUser, f64>,' -e 'pub fn by_user(' -e 'pub fn factors(' |
    grep -n -e 'BTreeMap<GridUser' -e 'BTreeSet<GridUser'; then
    echo "$f: a name-keyed map between the edges" >&2
    exit 1
  fi
done
# Wall clock is the repo benchmark's to judge (benchmark/): no per-PR
# snapshot or profile file may be tracked again.
[ -z "$(git ls-files 'BENCH_*' 'PROFILE_*')" ] || { echo "a BENCH_/PROFILE_ snapshot is tracked again" >&2; exit 1; }
