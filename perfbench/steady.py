#!/usr/bin/env python3
"""Steadiness report for the benchmark that BENCHMARK.json describes.

Runs every workload once per seed with BENCHMARK.json's command plus
--workload, --seed, --seconds and --trace 0, from the repository root,
in one or more sets of fresh seeds. The workloads are interleaved seed
by seed, so a noisy stretch of the host touches one run of each rather
than several runs of one. Writes a Markdown report, refreshed after
every run: per workload, set and end-to-end metric the median, the
first and third quartiles (statistics.quantiles(values, n=4)), their
distance as a share of the median, how far the set's median moved from
set 1's, and the metric's bound; per run the elapsed time, failed
operations and the steal ticks /proc/stat counted while it ran; and the
host's CPU count and hypervisor flag.

    python3 perfbench/steady.py --runs 10 --sets 2 --out perfbench/STEADINESS.md

Set k (from 1) runs seeds (k - 1) * runs + 1 to k * runs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def steal_ticks():
    """Steal ticks summed over all CPUs: field 8 of /proc/stat's cpu line."""
    with open("/proc/stat") as f:
        return int(f.readline().split()[8])


def hypervisor_flag():
    with open("/proc/cpuinfo") as f:
        return any(line.startswith("flags") and "hypervisor" in line.split() for line in f)


def run_once(bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    steal0, t0 = steal_ticks(), time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    elapsed, steal = time.monotonic() - t0, steal_ticks() - steal0
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), elapsed, steal


def report(bench, names, values, runs):
    metrics = bench["end_to_end"]
    lines = [
        "# Steadiness report",
        "",
        f"Host: {os.cpu_count()} CPUs, hypervisor flag {'set' if hypervisor_flag() else 'not set'}.",
        f"Each run: `{' '.join(bench['command'])} --workload W --seed N "
        f"--seconds {bench['run_seconds']} --trace 0`, workloads interleaved seed by seed.",
        "Spread is (q3 - q1) / median over one set's runs; moved is the set's median against set 1's.",
        "",
    ]
    for name in names:
        lines += [f"## {name}", "", "| set | metric | runs | median | q1 | q3 | spread | moved | bound |",
                  "|---|---|---:|---:|---:|---:|---:|---:|---:|"]
        for k, per_set in enumerate(values):
            for m in metrics:
                v = per_set[name][m["name"]]
                if len(v) < 2:
                    continue
                med = statistics.median(v)
                q1, _, q3 = statistics.quantiles(v, n=4)
                base = statistics.median(values[0][name][m["name"]])
                lines.append(f"| {k + 1} | {m['name']} | {len(v)} | {med:.6g} | {q1:.6g} | {q3:.6g} | "
                             f"{(q3 - q1) / med:.4f} | {med / base - 1:+.4f} | {m['bound']} |")
        lines.append("")
        for k, per_set in enumerate(runs):
            if per_set[name]:
                lines += [f"Set {k + 1} runs (seed: elapsed, failed/attempted, steal ticks): "
                          + "; ".join(per_set[name]), ""]
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description="Run every workload with fresh seeds and report metric spreads.")
    ap.add_argument("--runs", type=int, default=10, help="seeds per set")
    ap.add_argument("--sets", type=int, default=1, help="sets of fresh seeds")
    ap.add_argument("--out", default="", help="also write the report to this file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    values = [{n: {m: [] for m in metrics} for n in names} for _ in range(args.sets)]
    runs = [{n: [] for n in names} for _ in range(args.sets)]
    for k in range(args.sets):
        first = 1 + k * args.runs
        for seed in range(first, first + args.runs):
            for name in names:
                result, elapsed, steal = run_once(bench, name, seed)
                runs[k][name].append(
                    f"{seed}: {elapsed:.1f} s, {result['failed']}/{result['attempted']} failed, steal {steal}")
                for m in metrics:
                    values[k][name][m].append(result["metrics"][m]["value"])
                print(f"set {k + 1} {name} seed {seed}: {elapsed:.1f} s, failed {result['failed']}, "
                      + ", ".join(f"{m} {v[-1]:.5g}" for m, v in values[k][name].items()),
                      file=sys.stderr, flush=True)
                if args.out:
                    with open(args.out, "w") as f:
                        f.write(report(bench, names, values, runs))
    print(report(bench, names, values, runs))


if __name__ == "__main__":
    main()
