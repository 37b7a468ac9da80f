#!/usr/bin/env bash
# Builds the benchmark when its sources changed, then runs it:
#
#   bash repobench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# CARGO_TARGET_DIR, when set, is where the build goes. The benchmark runs as
# a child of this shell rather than replacing it: Linux carries a process's
# peak-RSS mark across exec, so an exec would report the caller's memory in
# `peak_rss_mb` whenever the caller is the larger.
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --quiet --manifest-path repobench/Cargo.toml
"${CARGO_TARGET_DIR:-repobench/target}/release/repobench" "$@"
