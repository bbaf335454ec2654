#!/usr/bin/env bash
# Build the benchmark (release, offline) and run one workload:
#
#   bash perfbench/run.sh --workload wire_small --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default perfbench/target); cargo's messages go to stderr so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
here="$(dirname "${BASH_SOURCE[0]}")"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/sit-perfbench" "$@"
