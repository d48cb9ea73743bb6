#!/usr/bin/env python3
"""Determinism self-check for the benchmark.

    python3 perfbench/selfcheck.py [--seed N] [--seconds S]

Runs every workload twice with seed N and once with seed N+1 (short runs),
then checks, from the run summaries the benchmark writes under
.bench_out/:

- the same seed repeats the deterministic outputs exactly:
  depth_ratio_geomean, swaps_total, neg_log_esp_mean and, on serve and
  restart, the whole {"cmd":"stats"} line (cache and store counters);
- the other seed draws a different corpus (another digest) of the same
  shape (the same families, sizes and job count; the same request count);
- the metric names each run prints are exactly BENCHMARK.json's.

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DETERMINISTIC = ("depth_ratio_geomean", "swaps_total", "neg_log_esp_mean", "stats")
SHAPE = ("corpus_shape", "jobs", "requests")
DIGESTS = ("corpus_digest", "stream_digest")


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    path = os.path.join(ROOT, ".bench_out", f"summary-{workload}-{seed}-trace0.json")
    with open(path) as f:
        return result, json.load(f)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = {m["name"] for m in json.load(f)["end_to_end"]}

    problems = []
    for workload in ("compile", "serve", "restart"):
        first, a = run(workload, args.seed, args.seconds)
        _, b = run(workload, args.seed, args.seconds)
        _, c = run(workload, args.seed + 1, args.seconds)
        if not first["correct"]:
            problems.append(f"{workload}: outputs failed their checks")
        if set(first["metrics"]) != declared:
            problems.append(f"{workload}: printed metrics differ from BENCHMARK.json")
        for key in DETERMINISTIC:
            if key in a and a[key] != b[key]:
                problems.append(f"{workload}: {key} differs between two runs of seed "
                                f"{args.seed}: {a[key]} vs {b[key]}")
        for key in SHAPE:
            if key in a and a[key] != c[key]:
                problems.append(f"{workload}: seed {args.seed + 1} changes the {key}")
        for key in DIGESTS:
            if key in a and a[key] == c[key]:
                problems.append(f"{workload}: seed {args.seed + 1} draws the same inputs")
        print(f"{workload}: checked", flush=True)

    for problem in problems:
        print("FAIL", problem)
    print("selfcheck", "failed" if problems else "passed")
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
