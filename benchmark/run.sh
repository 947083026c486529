#!/usr/bin/env bash
# Build the benchmark package and run it. See README.md in this directory.
#
#   benchmark/run.sh                     every workload, end-to-end metrics
#   benchmark/run.sh --traced            ... and each workload's traced run
#   benchmark/run.sh --agree             everything twice, compared
#   benchmark/run.sh --smoke --traced    every metric name in a few seconds
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                        one workload; result line last
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# MSGR_EXEC, MSGR_ANALYSIS, MSGR_SUCCESSION, MSGR_PROFILE, MSGR_FD_* and
# friends silently change ClusterConfig::new: with one set this would not
# measure what ships. The binary checks again.
if env | grep -q '^MSGR_'; then
    echo "refusing to run with MSGR_* set: $(env | grep -o '^MSGR_[^=]*' | tr '\n' ' ')" >&2
    exit 2
fi
if [ ! -f "$here/../crates/core/Cargo.toml" ]; then
    echo "benchmark/ must sit in the repository it measures (no ../crates here)" >&2
    exit 2
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$CARGO_TARGET_DIR/release/msgr-benchmark" --out-dir "$here/out" "$@"
