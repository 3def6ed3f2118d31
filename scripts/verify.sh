#!/usr/bin/env sh
# One-shot verification: build everything, run the full test suite, and
# regenerate one paper artifact end to end through the lab engine.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test --release -q -p serde --test float_oracle -- --ignored"
# The float writer behind every JSON output (traces, checkpoints,
# results/, BENCH_*.json) against the core::fmt rule it replaced, on
# 16M random bit patterns. It is #[ignore]d in the debug run above,
# which covers the fixed edge cases and 40k random values.
cargo test --release -q -p serde --test float_oracle -- --ignored

echo "==> cargo test --release --offline --manifest-path perfbench/Cargo.toml"
# The end-to-end benchmark is a Cargo workspace of its own that builds
# against crates/* by path, so the steps above never compile it: a
# change to a public API it calls must fail here, not first in the
# benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> cargo test -q -p disklab --test lab_determinism"
# Fleet + engine determinism: threads=1 vs threads=8 byte-identical,
# repeat runs served entirely from cache.
cargo test -q -p disklab --test lab_determinism

echo "==> cargo run --release --bin lab -- table1"
cargo run --release --bin lab -- table1

echo "==> cargo run --release --bin lab -- run fleet_routing --no-cache"
# Full scale and recomputed (a warm results/.cache/ would serve the old
# bytes), then compared: the regenerated artifact must match the
# committed results/fleet_routing.{json,txt} byte for byte.
cargo run --release --bin lab -- run fleet_routing --no-cache
git diff --exit-code -- results/fleet_routing.json results/fleet_routing.txt

echo "==> cargo run --release --bin lab -- run figure4 --no-cache"
# Figure 4 is the one committed experiment whose arrival queue holds a
# whole trace (200k requests per cell), a path no perfbench workload
# runs. Recompute it at full scale and compare it byte for byte too.
cargo run --release --bin lab -- run figure4 --no-cache
git diff --exit-code -- results/figure4.json results/figure4.txt

echo "==> cargo test -q -p disklab --test lab_determinism trace_bytes"
# Trace determinism: the instrumented event stream must be
# byte-identical at any shard count.
cargo test -q -p disklab --test lab_determinism trace_bytes_are_identical_at_any_shard_count

echo "==> cargo test -q -p disklab --test lab_determinism committed_traces"
# Trace bytes must not drift: every registered trace scenario is re-run
# into a temporary directory and all nine files (NDJSON stream, metrics
# registry, snapshot timeseries) must equal the committed results/trace_*
# byte for byte. Unlike the shard-count test above, this also catches a
# change that alters the bytes the same way at every shard count.
cargo test -q -p disklab --test lab_determinism committed_traces_regenerate_byte_identically

echo "==> shard-scaling smoke: 4 shards byte-identical to serial"
# The parallel epoch boundary must be invisible in the results: the
# hall experiment and the raw fleet kernel both have to produce
# byte-identical payloads whether the epoch loop runs on one shard or
# many.
cargo test -q -p disklab --test lab_determinism -- \
    fleet_hall_payload_is_byte_identical_at_any_shard_count \
    fleet_shard_count_does_not_change_results

echo "==> scenario smoke: rebuild storm byte-identical at any shard count"
# Scenario injections fire in the serial stretch of the epoch boundary,
# so a rebuild storm must replay byte-identically however many shards
# the loop runs on.
cargo test -q -p disklab --test lab_determinism -- \
    scenario_rebuild_is_byte_identical_at_any_shard_count

echo "==> cargo run --release --bin lab -- bench --quick"
# One line runs all seven suites, each gated against its committed
# BENCH_*.json (exit non-zero past the regression tolerance):
# - thermal: integrator and steady-solve rates, figure5 wall time;
# - sim: the storage event core's window loop;
# - fleet: the rack's serial rate, and the in-process bound that the
#   hall workload's measured serial fraction stays under the
#   shard-scaling gate (the committed BENCH_fleet.json pins the
#   tighter < 3%); projected shard speedups (hosts without 8 cores)
#   are excluded from the diff by construction;
# - obs: the in-process bound that paired null-sink fleet runs agree to
#   within the noise margin;
# - twin: checkpoint encode and restore throughput;
# - scenario: trace-replay draw throughput plus the epoch cost of an
#   unperturbed fleet (a rebuild storm is measured alongside);
# - surrogate: the fitted-grid screening cost per candidate against the
#   full simulator.
cargo run --release --bin lab -- bench --quick

echo "==> twin smoke test (serve, 3 concurrent what-if queries, 2 runs)"
# The digital-twin server must answer concurrent pinned queries
# byte-identically — within a run (racing clients) and across two
# fresh server processes.
LAB=target/release/lab
TWIN_TMP=$(mktemp -d)
trap 'rm -rf "$TWIN_TMP"' EXIT
TWIN_QUERY='{"cmd":"whatif","inlet_delta_c":5.0,"horizon_epochs":2,"at_epoch":2}'
twin_round() {
    round="$1"
    "$LAB" twin serve --enclosures 2 --epoch-ms 1 > "$TWIN_TMP/addr.$round" &
    serve_pid=$!
    addr=""
    for _ in $(seq 1 100); do
        addr=$(sed -n 's/^twin listening on //p' "$TWIN_TMP/addr.$round")
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "twin server never printed its address"; exit 1; }
    "$LAB" twin query --addr "$addr" "$TWIN_QUERY" > "$TWIN_TMP/$round.a" &
    qa=$!
    "$LAB" twin query --addr "$addr" "$TWIN_QUERY" > "$TWIN_TMP/$round.b" &
    qb=$!
    "$LAB" twin query --addr "$addr" "$TWIN_QUERY" > "$TWIN_TMP/$round.c" &
    qc=$!
    wait "$qa" "$qb" "$qc"
    "$LAB" twin query --addr "$addr" '{"cmd":"shutdown"}' > /dev/null
    wait "$serve_pid"
    cmp -s "$TWIN_TMP/$round.a" "$TWIN_TMP/$round.b" || {
        echo "twin: concurrent queries disagreed in round $round"; exit 1; }
    cmp -s "$TWIN_TMP/$round.b" "$TWIN_TMP/$round.c" || {
        echo "twin: concurrent queries disagreed in round $round"; exit 1; }
    grep -q '"perturbed"' "$TWIN_TMP/$round.a" || {
        echo "twin: round $round returned no report"; cat "$TWIN_TMP/$round.a"; exit 1; }
}
twin_round 1
twin_round 2
cmp -s "$TWIN_TMP/1.a" "$TWIN_TMP/2.a" || {
    echo "twin: answers differ across server runs"; exit 1; }
echo "twin smoke test: OK"

echo "verify: OK"
