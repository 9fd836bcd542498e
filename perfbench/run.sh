#!/usr/bin/env bash
# Builds the benchmark harness and rh-serve (from the repository's
# source, in release mode) and runs one benchmark run; arguments are
# passed through, e.g.
#   bash perfbench/run.sh --workload oltp_t1 --seed 1 --seconds 10 --trace 0
# Build output goes to stderr so the last stdout line stays the result.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
target="${CARGO_TARGET_DIR:-$here/target}"
exec "$target/release/perfbench" "$@"
