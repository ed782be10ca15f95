#!/usr/bin/env bash
# The repo's benchmark: build the harness, then run it.
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one pass of one workload; the last line of stdout is the result JSON
#   benchmark/run.sh [--seed N] [--seconds S] [--quick] [--check-repeat]
#       the whole ledger: every workload, untraced then traced
#
# See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# Cargo reads .cargo/config.toml (offline, vendored path deps) from the
# working directory, so build from the harness's own directory; a relative
# CARGO_TARGET_DIR keeps meaning "relative to where the caller stands".
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
(cd "$here" && CARGO_TARGET_DIR="$target" cargo build --release --locked --quiet) >&2
exec "$target/release/perf_ledger" --out-dir "$here/out" "$@"
