#!/usr/bin/env bash
# The repo benchmark's one command. Definitions and protocol: benchmark/README.md.
#
#   benchmark/run.sh                      every workload, untraced (end-to-end metrics)
#   benchmark/run.sh --trace 1            every workload, traced (per-layer metrics)
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#   benchmark/run.sh --smoke              budgets / 20, both runs, every check on
#   benchmark/run.sh check                fmt, clippy -D warnings and unit tests of
#                                         this package (the root CI does not cover it)
#
# Builds offline from source into $CARGO_TARGET_DIR (default benchmark/target).
# The lock file is not held with --locked: a later change to the crates'
# dependencies must still build here without editing the benchmark.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
manifest=benchmark/Cargo.toml

if [[ "${1:-}" == "check" ]]; then
    cargo fmt --manifest-path "$manifest" -- --check
    cargo clippy --offline --manifest-path "$manifest" --all-targets -- -D warnings
    cargo test --offline --manifest-path "$manifest"
    exit 0
fi

exec cargo run --quiet --release --offline --manifest-path "$manifest" -- "$@"
