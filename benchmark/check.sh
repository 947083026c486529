#!/usr/bin/env bash
# The benchmark package's own gate, offline: format, lints, unit tests
# (order statistics, JSON writer, name rule, BENCHMARK.json against the
# metric tables), then a smoke run of the whole suite with traced runs.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
manifest=(--manifest-path "$here/Cargo.toml")

cargo fmt "${manifest[@]}" -- --check
cargo clippy --offline "${manifest[@]}" --all-targets -- -D warnings
cargo test --offline -q "${manifest[@]}"
"$here/run.sh" --smoke --traced
