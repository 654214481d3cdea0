#!/usr/bin/env bash
# Entry point named by BENCHMARK.json. Builds the package (offline; into
# $CARGO_TARGET_DIR when the driver sets it, else benchmark/target) and
# runs the pass the driver asked for with the driver's own arguments:
#   --trace 0 (or absent) -> bench        end-to-end metrics, tracing off
#   --trace 1             -> bench_trace  per-layer metrics
# Build output goes to stderr so the result object stays the last stdout line.
set -euo pipefail
here=$(dirname "$0")
target=${CARGO_TARGET_DIR:-$here/target}

cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

bin=bench
prev=
for arg in "$@"; do
    if [ "$prev" = --trace ] && [ "$arg" = 1 ]; then
        bin=bench_trace
    fi
    prev=$arg
done
exec "$target/release/$bin" "$@"
