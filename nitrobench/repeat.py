#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and report each metric's spread.

Usage (from the repository root):

    python3 nitrobench/repeat.py --workloads serve-steady,tune-full \
        --seeds 1-10 [--trace 0] [--out spread.json]

Each run is `cargo run --release --offline --manifest-path
nitrobench/Cargo.toml -- --workload W --seed S --seconds N --trace T`,
with N from BENCHMARK.json. For every metric the script prints the
median over seeds and the interquartile range as a share of the median,
using `statistics.quantiles(values, n=4)` - the spread the bounds in
BENCHMARK.json are checked against.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def run_once(workload, seed, seconds, trace):
    cmd = [
        "cargo", "run", "--quiet", "--release", "--offline",
        "--manifest-path", "nitrobench/Cargo.toml", "--",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    started = time.time()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    return result, wall


def spread(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / abs(med) if med else 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary = {}
    for workload in args.workloads.split(","):
        values, walls, correct = {}, [], True
        for seed in seeds(args.seeds):
            result, wall = run_once(workload, seed, seconds, args.trace)
            walls.append(wall)
            correct &= result["correct"] and result["failed"] == 0
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: {wall:.1f} s, correct {result['correct']}",
                  file=sys.stderr)
        rows = {}
        for name, vs in values.items():
            med, iqr = spread(vs) if len(vs) > 1 else (vs[0], 0.0)
            bound = bounds.get(name)
            rows[name] = {"median": med, "iqr_share": iqr, "bound": bound}
            flag = ""
            if bound is not None and name != "setup_s" and iqr > bound:
                flag = "  OVER BOUND"
            elif bound is not None and iqr > bound / 3:
                flag = "  over a third of bound"
            print(f"{workload:<17} {name:<32} median {med:<14.6g} "
                  f"iqr/median {iqr:.4f}{flag}")
        summary[workload] = {
            "correct": correct,
            "runs": len(walls),
            "mean_wall_s": sum(walls) / len(walls),
            "metrics": rows,
        }
    if args.out:
        with open(args.out, "w") as f:
            json.dump(summary, f, indent=2)


if __name__ == "__main__":
    main()
