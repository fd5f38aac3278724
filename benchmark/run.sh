#!/usr/bin/env bash
# The asynoc benchmark: builds the release binary and the harness, then
# measures.
#
#   benchmark/run.sh [--seed N]                 the whole matrix: five workloads,
#                                               end-to-end and per-layer rows
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                               one workload; the last line of
#                                               stdout is the JSON result
#   benchmark/run.sh --selfcheck                two sets must agree within the
#                                               bounds; a held-out seed verifies
#
# Build products and scratch files go under $CARGO_TARGET_DIR (default
# target/) of the checkout; nothing is written anywhere else. Build time is
# outside every metric. See benchmark/README.md.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
target=${CARGO_TARGET_DIR:-target}
case $target in /*) ;; *) target=$root/$target ;; esac

# The root `cargo build --release` does not produce the CLI binary; -p does.
CARGO_TARGET_DIR=$target cargo build --release --offline -p asynoc-cli >&2
# The harness is its own workspace with its own target directory, so neither
# build can invalidate the other's artefacts.
export CARGO_TARGET_DIR=$target/benchmark
cargo build --release --offline --manifest-path benchmark/Cargo.toml -p bm-e2e >&2
layers=()
if cargo build --release --offline --manifest-path benchmark/Cargo.toml -p bm-layers >&2; then
    layers=(--layers "$CARGO_TARGET_DIR/release/bm-layers")
else
    echo "run.sh: bm-layers did not build; its per-layer rows will read 'missing'" >&2
fi

exec "$CARGO_TARGET_DIR/release/bm-e2e" \
    --asynoc "$target/release/asynoc" "${layers[@]}" \
    --scratch "$CARGO_TARGET_DIR/tmp" --spans "$CARGO_TARGET_DIR/spans.ndjson" "$@"
