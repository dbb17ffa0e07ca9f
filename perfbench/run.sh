#!/usr/bin/env bash
# Builds the `dbr` binary and the benchmark from source, then runs one
# benchmark workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the repository root. Build products go to $CARGO_TARGET_DIR
# (default .bench_build); scratch inputs and outputs go to .bench_work.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --bin dbr >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --dbr "$target/release/dbr" "$@"
