#!/usr/bin/env python3
"""Bench regression gate: diff fresh bench runs against their committed
baselines and fail on any routing-quality drift.

Usage:
    check_bench_regression.py [--allow-missing-baseline] \
                              BASELINE.json CANDIDATE.json \
                              [BASELINE2.json CANDIDATE2.json ...]

Arguments are baseline/candidate pairs, so one invocation can gate
BENCH_paper.json (the paper's figures, the fidelity-aware comparison and
the scaling sweep) and BENCH_serve.json (the socket-serve load mixes).
Each baseline names its gated fields in a top-level "gated_fields"
array; a baseline without one is malformed. Gated fields are
deterministic by construction, so ANY difference is a regression (or an
improvement that must be committed deliberately by refreshing the
baseline). Wall time, throughput and latency percentiles are
machine-dependent and stay informational: printed, never gating.

--allow-missing-baseline is the bootstrap mode for brand-new benches: a
pair whose baseline file does not exist yet warns and passes, so CI can
land the bench binary and its first committed baseline in one PR without
a chicken-and-egg failure. A baseline that exists but is unreadable or
malformed still fails hard.

Exit codes: 0 = no drift, 1 = drift or benchmark set mismatch,
2 = bad invocation / unreadable input.
"""

import json
import os
import sys


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: cannot read {path}: {e}", file=sys.stderr)
        sys.exit(2)
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        print(f"error: {path} has no 'results' array", file=sys.stderr)
        sys.exit(2)
    return doc, {row["name"]: row for row in results}


def gated_fields_of(doc, path):
    if "gated_fields" not in doc:
        print(f"error: {path} has no 'gated_fields' array", file=sys.stderr)
        sys.exit(2)
    fields = doc["gated_fields"]
    if (not isinstance(fields, list) or not fields
            or not all(isinstance(f, str) for f in fields)):
        print(f"error: {path} has a malformed 'gated_fields' array",
              file=sys.stderr)
        sys.exit(2)
    return tuple(fields)


def check_pair(baseline_path, candidate_path):
    """Returns (drift_lines, benchmark_count, field_count) for one pair."""
    baseline_doc, baseline = load(baseline_path)
    candidate_doc, candidate = load(candidate_path)
    fields = gated_fields_of(baseline_doc, baseline_path)

    drift = []
    for name in sorted(baseline.keys() - candidate.keys()):
        drift.append(f"{name}: missing from candidate run")
    for name in sorted(candidate.keys() - baseline.keys()):
        drift.append(f"{name}: not in baseline (refresh {baseline_path}?)")

    for name in sorted(baseline.keys() & candidate.keys()):
        for field in fields:
            want, got = baseline[name].get(field), candidate[name].get(field)
            if want != got:
                drift.append(f"{name}: {field} {want} -> {got}")

    base_ms = baseline_doc.get("summary", {}).get("total_wall_ms")
    cand_ms = candidate_doc.get("summary", {}).get("total_wall_ms")
    if base_ms and cand_ms:
        print(f"{baseline_path}: wall time (informational) baseline "
              f"{base_ms:.1f} ms, candidate {cand_ms:.1f} ms "
              f"({cand_ms / base_ms - 1.0:+.1%} vs baseline)")

    return drift, len(baseline), len(fields)


def main(argv):
    args = list(argv[1:])
    allow_missing = "--allow-missing-baseline" in args
    args = [a for a in args if a != "--allow-missing-baseline"]
    if len(args) < 2 or len(args) % 2 != 0:
        print(__doc__, file=sys.stderr)
        return 2

    pairs = [(args[i], args[i + 1]) for i in range(0, len(args), 2)]
    all_drift = []
    total_benchmarks = 0
    checked_pairs = 0
    for baseline_path, candidate_path in pairs:
        if allow_missing and not os.path.exists(baseline_path):
            print(f"WARNING: no baseline at {baseline_path} — bootstrap "
                  f"pass. Commit the candidate ({candidate_path}) as the "
                  f"baseline to arm this gate.")
            continue
        drift, count, _ = check_pair(baseline_path, candidate_path)
        all_drift.extend(f"{baseline_path}: {line}" for line in drift)
        total_benchmarks += count
        checked_pairs += 1

    if all_drift:
        print(f"GATED-FIELD DRIFT across {len(all_drift)} check(s):")
        for line in all_drift:
            print(f"  {line}")
        print("\nIf this change is intentional, regenerate the baseline(s) "
              "with the matching bench binary (bench_paper / "
              "bench_serve_load).")
        return 1

    print(f"OK: {total_benchmarks} benchmarks across {checked_pairs} "
          f"pair(s), no drift in any gated field.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
