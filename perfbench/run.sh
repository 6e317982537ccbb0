#!/usr/bin/env bash
# Builds the service binary and the benchmark from source, then runs one
# workload. Arguments are passed through:
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to $CARGO_TARGET_DIR (default: target/ at the repo root).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet -p ayd-exp --bin reproduce >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --reproduce "$CARGO_TARGET_DIR/release/reproduce" \
    --out "$CARGO_TARGET_DIR/perfbench" "$@"
