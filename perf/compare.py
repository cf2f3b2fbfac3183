#!/usr/bin/env python3
"""Compare two summaries written by ``perf/run.py --out``.

    python3 perf/compare.py A.json B.json

A is the base.  One row per (workload, end-to-end metric): both values, the
ratio B/A, the bound from ``BENCHMARK.json`` and a verdict:

* ``regressed``  — B is worse than A by more than the bound;
* ``unresolved`` — the pass-to-pass spread inside either run is wider than
  the bound, so the pair cannot show "no change" (unless every pass of B
  reads better than every pass of A);
* ``ok``         — otherwise.

Exits 1 on any regression or any rise in failed requests.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def relative_iqr(values) -> float:
    if not values or len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def verdict(spec: dict, a: dict, b: dict) -> tuple:
    """(ratio B/A, verdict) for one metric of one workload."""
    name, bound = spec["name"], spec["bound"]
    higher = spec["better"] == "higher"
    base, new = a["values"][name], b["values"][name]
    ratio = new / base if base else float("inf")
    worse_by = (base - new) / base if higher else (new - base) / base
    pass_a = a.get("per_pass", {}).get(name, [])
    pass_b = b.get("per_pass", {}).get(name, [])
    spread = max(relative_iqr(pass_a), relative_iqr(pass_b))
    if spread > bound:
        clearly_better = pass_a and pass_b and (
            min(pass_b) > max(pass_a) if higher else max(pass_b) < min(pass_a))
        return ratio, "ok" if clearly_better else "unresolved"
    return ratio, "regressed" if worse_by > bound else "ok"


def compare(a: dict, b: dict, contract: dict) -> int:
    bad = 0
    print(f"{'workload':<24} {'metric':<16} {'A (base)':>12} {'B':>12} "
          f"{'B/A':>7} {'bound':>6}  verdict")
    for workload, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(workload)
        if entry_b is None or "end_to_end" not in entry_a:
            continue
        e2e_a, e2e_b = entry_a["end_to_end"], entry_b["end_to_end"]
        for spec in contract["end_to_end"]:
            ratio, word = verdict(spec, e2e_a, e2e_b)
            bad += word == "regressed"
            name = spec["name"]
            print(f"{workload:<24} {name:<16} {e2e_a['values'][name]:>12.5g} "
                  f"{e2e_b['values'][name]:>12.5g} {ratio:>7.3f} "
                  f"{spec['bound']:>6}  {word}")
        share_a = e2e_a["failed"] / e2e_a["attempted"]
        share_b = e2e_b["failed"] / e2e_b["attempted"]
        if share_b > share_a:
            bad += 1
            print(f"{workload:<24} failed requests rose: {e2e_a['failed']}/"
                  f"{e2e_a['attempted']} -> {e2e_b['failed']}/{e2e_b['attempted']}")
    return 1 if bad else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        a = json.load(handle)
    with open(argv[1]) as handle:
        b = json.load(handle)
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    return compare(a, b, contract)


if __name__ == "__main__":
    sys.exit(main())
