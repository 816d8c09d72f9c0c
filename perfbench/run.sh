#!/usr/bin/env bash
# Build the benchmark harness from source (it links the workspace crates
# by path), then run it with the given arguments:
#
#   bash perfbench/run.sh --workload exact-churn --seed 1 --seconds 20 --trace 0
#
# The build goes to $CARGO_TARGET_DIR (default perfbench/target) and its
# output to stderr, so stdout carries only the harness's result lines.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-perfbench/target}"
cargo build --release --quiet --offline --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
