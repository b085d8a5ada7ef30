#!/usr/bin/env bash
# Build the benchmark from source, then hand every argument to it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh [--seed N] [--repeats R] [--twice] [--out NAME]
#   benchmark/run.sh compare A.json B.json
#
# See benchmark/README.md. Runs from the repo root whatever the caller's
# directory; build output goes to stderr so stdout carries only results.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml 1>&2
exec "$CARGO_TARGET_DIR/release/aequus-benchmark" "$@"
