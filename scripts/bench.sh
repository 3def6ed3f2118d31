#!/usr/bin/env sh
# Benchmark baselines: runs the lab bench suites (thermal, sim, fleet,
# obs, twin, scenario, surrogate; all of them unless some are named) and
# writes each suite's BENCH_<suite>.json at the repo root. Pass --quick
# for a fast smoke run that skips the writes, asserts the in-process
# bounds and diffs the gated fields against the committed files.
set -eu

cd "$(dirname "$0")/.."

cargo build --release
exec ./target/release/lab bench "$@"
