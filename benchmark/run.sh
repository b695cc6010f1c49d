#!/usr/bin/env bash
# Entry point of the benchmark: builds what it runs, then runs it.
#
#   benchmark/run.sh --workload <bfs|pagerank|triangles|mcl|all> \
#       [--seed N] [--seconds S] [--trace 0|1] [--quick]
#
# --trace 0 (default) prints the end-to-end metrics, --trace 1 the
# per-layer ledger; the last line of standard output is the result as one
# JSON object. Builds go to $CARGO_TARGET_DIR, or benchmark/target.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
case "$CARGO_TARGET_DIR" in
    /*) target="$CARGO_TARGET_DIR" ;;
    *) target="$PWD/$CARGO_TARGET_DIR" ;;
esac

trace=0
prev=""
for arg in "$@"; do
    if [ "$prev" = "--trace" ]; then trace="$arg"; fi
    prev="$arg"
done

# The benchmark is a workspace of its own; gblas-cli (the traced run's CLI
# layer) is built from the repository's workspace into the same directory.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p gblas-cli

if [ "$trace" = "1" ]; then
    exec "$target/release/gblas-benchmark-traced" --bench-dir "$here" \
        --cli-bin "$target/release/gblas-cli" "$@"
fi
exec "$target/release/gblas-benchmark" --bench-dir "$here" "$@"
