#!/usr/bin/env python3
"""Bench regression gate: diff a fresh bench run against its committed
baseline and fail on any routing-quality drift.

Usage:
    check_bench_regression.py BASELINE.json CANDIDATE.json

The pair is BENCH_paper.json (the paper's figures, the fidelity-aware
comparison and the scaling sweep) and a fresh bench_paper run. The
baseline names its gated fields in a top-level "gated_fields" array; a
baseline without one is malformed. Gated fields are deterministic by
construction, so ANY difference is a regression (or an improvement that
must be committed deliberately by refreshing the baseline). Wall time is
machine-dependent and stays informational: printed, never gating.

Exit codes: 0 = no drift, 1 = drift or benchmark set mismatch,
2 = bad invocation / unreadable input.
"""

import json
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
    """Returns (drift_lines, benchmark_count)."""
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

    return drift, len(baseline)


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2

    baseline_path, candidate_path = argv[1:]
    drift, count = check_pair(baseline_path, candidate_path)
    if drift:
        print(f"GATED-FIELD DRIFT in {baseline_path} across {len(drift)} "
              f"check(s):")
        for line in drift:
            print(f"  {line}")
        print("\nIf this change is intentional, regenerate the baseline "
              "with bench_paper.")
        return 1

    print(f"OK: {count} benchmarks, no drift in any gated field.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
