#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given arguments:
#
#   bash histbench/run.sh --workload cold-read --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Build output goes to stderr, so the last
# line of stdout is the result. Cargo's target directory is
# $CARGO_TARGET_DIR when set, else histbench/target.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
exec "$target/release/histbench" "$@"
