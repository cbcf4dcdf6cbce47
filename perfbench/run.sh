#!/usr/bin/env bash
# Builds `marchgend` and the harness from the checkout this is run in,
# then runs the harness with the arguments given, e.g.
#
#   bash perfbench/run.sh --workload search_heavy --seed 1 --seconds 40 --trace 0
#
# Run it from the repository root. Build output goes to stderr; the last
# line on stdout is the result object.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --offline --release --quiet --bin marchgend >&2
cargo build --offline --release --quiet --manifest-path perfbench/Cargo.toml >&2
if [ -e .git ] && commit="$(git rev-parse HEAD 2>/dev/null)"; then
    :
else
    # Not a git checkout: identify the code by a digest of its sources.
    commit="tree-$(find Cargo.toml Cargo.lock src crates -type f -print0 | sort -z \
        | xargs -0 sha256sum | sha256sum | cut -c1-16)"
fi
exec "$CARGO_TARGET_DIR/release/marchgen-perfbench" \
    --marchgend "$CARGO_TARGET_DIR/release/marchgend" \
    --commit "$commit" \
    --rustc "$(rustc --version)" \
    "$@"
