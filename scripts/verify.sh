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

echo "==> RUSTDOCFLAGS=\"-D warnings\" cargo doc --no-deps --workspace"
# Intra-doc links name types by path; a deleted or renamed item must
# fail here instead of leaving a dangling link in the API docs.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> cargo test --release -q -p serde --test float_oracle -- --ignored"
# The scalar writers behind every JSON output (traces, checkpoints,
# results/, BENCH_*.json) against the rules they replaced: write_f64
# against core::fmt on 16M random bit patterns and on 8M short
# decimals n * 10^-k (k = 0..=12, tick times among them, whose digits
# the kernel strips four at a time), and write_u64 / write_i64 against
# to_string on 16M integers of every magnitude. These are #[ignore]d
# in the debug run above, which covers the fixed edge cases (every
# decimal-point placement, powers of ten +-1, u64::MAX, i64::MIN) and
# a few thousand random values of each kind.
cargo test --release -q -p serde --test float_oracle -- --ignored

echo "==> cargo test --release -q -p workloads --test reader_oracle -- --ignored"
# The streaming trace reader (read_trace, read_msr_trace,
# read_ascii_trace) against a reference copy of the collect-and-rejoin
# reader it replaced: 100,000 generated traces in all three formats
# must read to the same requests or both be refused, and 100,000
# arbitrary byte strings must not make it panic. The debug run above
# draws 4,000 cases of each.
cargo test --release -q -p workloads --test reader_oracle -- --ignored

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

echo "==> cargo run --release --example <each of the five examples>"
# Tier-1 only compiles the examples; run each one (together well under
# a second) so one that panics or exits non-zero fails here.
for example in quickstart roadmap_explorer dtm_closed_loop drive_designer workload_replay; do
    cargo run --release -q --example "$example" > /dev/null
done

echo "==> cargo run --release --bin lab -- table1"
cargo run --release --bin lab -- table1

echo "==> cargo run --release --bin lab -- all --threads 2 --no-cache"
# Every registered experiment at full scale and recomputed (a warm
# results/.cache/ would serve the old bytes), then compared: every
# regenerated artifact must match the committed results/ byte for byte.
# Only manifest.json, which records wall times, may differ. Among what
# this covers: Figure 4, the one experiment whose arrival queue holds a
# whole trace (200k requests per cell), a path no perfbench workload
# runs; the fleet, scenario and capacity-plan artifacts, which ride on
# the exact thermal window map; and twin_whatif, whose what-if forks
# carry p95/p99 and Figure 4 CDFs read off the fleet's merged
# response-time histograms and each restore a version-8 checkpoint
# state, so it drives the checkpoint path end to end.
cargo run --release --bin lab -- all --threads 2 --no-cache
git diff --exit-code -- results/ ':(exclude)results/manifest.json'

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
