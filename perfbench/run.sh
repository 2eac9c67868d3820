#!/usr/bin/env bash
# Build the benchmark from source and run it with the arguments given:
#   bash perfbench/run.sh --workload pipeline --seed 1 --seconds 10 --trace 0
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default perfbench/target).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target"
# Cap the address space: the outer-join comparison integrator's output can
# grow exponentially with the integration set, and a run that blows up
# must fail on its own allocation rather than exhaust the host.
ulimit -v 6291456
exec "$target/release/dialite-perfbench" "$@"
