"""Benchmark regression gate for CI.

Compares a freshly produced benchmark JSON against its committed baseline in
``benchmarks/baselines/`` and fails (exit 1) when any gated throughput metric
regresses more than its tolerance.  Gated metrics are listed per file in
``GATES`` as metric objects carrying a dotted path into the JSON and a
tolerance class; everything else is informational.  Higher is always better
for gated metrics.

Two tolerance classes exist: :class:`Modelled` metrics come from the
deterministic roofline cost model and get a tight 10% floor;
:class:`WallClock` metrics are stopwatch measurements (the real-transformer
serving benchmark) whose timing noise across machines and runs warrants a
loose 35% floor — for those, prefer gating dimensionless speedup ratios over
absolute tokens/s.

Usage:  python benchmarks/check_regression.py BENCH_serving.json [BENCH_wallclock.json ...]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

BASELINE_DIR = os.path.join(os.path.dirname(__file__), "baselines")


class Modelled:
    """Deterministic roofline-priced metric: tight regression floor."""

    tolerance = 0.10

    def __init__(self, path: str):
        self.path = path


class WallClock(Modelled):
    """Measured wall-clock metric: loose floor, timing noise is real."""

    tolerance = 0.35


# file name -> higher-is-better metrics gated against the committed baseline
GATES = {
    "BENCH_serving.json": [Modelled("serving_tps"), Modelled("speedup")],
    "BENCH_async_slo.json": [
        Modelled("speculative.throughput_tps"),
        Modelled("speculative.slo_attainment"),
    ],
    "BENCH_sharded_scaling.json": [
        Modelled("gates.decode_tp2_tps"),
        Modelled("gates.prefill_tp2_tps"),
        Modelled("gates.tp2_over_tp1"),
    ],
    "BENCH_wallclock.json": [
        # Only the dimensionless ratios are gated: they are machine-portable,
        # whereas absolute tok/s swings with the host and stays informational.
        WallClock("gates.b16_speedup"),
    ],
    "BENCH_router_goodput.json": [
        Modelled("gates.edf_exit_aware_goodput"),
        Modelled("gates.goodput_gain"),
    ],
    "BENCH_adaptive_control.json": [
        Modelled("gates.overload_adaptive_goodput"),
        Modelled("gates.overload_adaptive_gain"),
        Modelled("gates.idle_quality_ratio"),
    ],
    "BENCH_exit_training.json": [
        # Exit rate is a deterministic decode statistic; the speedup is a
        # stopwatch ratio of speculative vs forced-full-depth decode.
        Modelled("gates.trained_exit_rate"),
        WallClock("gates.exit_speedup"),
    ],
    "BENCH_fault_recovery.json": [
        Modelled("gates.recovered_fraction"),
        Modelled("gates.failover_goodput_ratio"),
        Modelled("gates.failover_horizon_goodput"),
    ],
    "BENCH_prefix_sharing.json": [
        Modelled("gates.prefix_hit_rate"),
        Modelled("gates.ttft_improvement"),
        Modelled("gates.throughput_ratio"),
    ],
}


def lookup(blob: dict, path: str):
    node = blob
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            raise KeyError(f"metric {path!r} missing")
        node = node[key]
    return float(node)


def leaf_paths(blob, prefix: str = ""):
    """Every dotted path to a scalar leaf in a nested metrics dict."""
    if isinstance(blob, dict):
        for key, value in blob.items():
            yield from leaf_paths(value, f"{prefix}{key}.")
    else:
        yield prefix[:-1]


def has_path(blob: dict, path: str) -> bool:
    node = blob
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return False
        node = node[key]
    return True


def check_file(current_path: str, tolerance: float | None) -> list[str]:
    name = os.path.basename(current_path)
    if name not in GATES:
        return [f"{name}: no gate registered for this benchmark file"]
    baseline_path = os.path.join(BASELINE_DIR, name)
    if not os.path.exists(baseline_path):
        return [f"{name}: committed baseline {baseline_path} is missing"]
    with open(current_path) as fh:
        current = json.load(fh)
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    failures = []
    # A baseline metric the fresh report no longer produces is a hard
    # failure, not a silent skip: a renamed or dropped key would otherwise
    # un-gate itself (the gated paths below would only catch gated keys,
    # and informational keys would vanish without a trace).
    missing = sorted(path for path in leaf_paths(baseline)
                     if not has_path(current, path))
    if missing:
        failures.append(
            f"{name}: {len(missing)} baseline metric(s) missing from the "
            f"fresh report — regenerate the baseline or restore the keys: "
            + ", ".join(missing))
        for path in missing:
            print(f"  [FAIL] {name}:{path}  present in baseline, missing "
                  "from the fresh report")
    for gate in GATES[name]:
        path = gate.path
        try:
            base = lookup(baseline, path)
            cur = lookup(current, path)
        except KeyError as exc:
            failures.append(f"{name}:{path} not comparable: {exc}")
            continue
        gate_tolerance = gate.tolerance if tolerance is None else tolerance
        floor = base * (1.0 - gate_tolerance)
        status = "OK " if cur >= floor else "FAIL"
        print(f"  [{status}] {name}:{path}  current={cur:g}  baseline={base:g}  "
              f"floor={floor:g}  (tol {gate_tolerance:.0%})")
        if cur < floor:
            failures.append(
                f"{name}:{path} regressed {(1 - cur / base):.1%} "
                f"(current {cur:g} < floor {floor:g}, baseline {base:g})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="+", help="freshly produced benchmark JSONs")
    parser.add_argument("--tolerance", type=float, default=None,
                        help="override every gate's tolerance class "
                             "(default: per-metric, 0.10 modelled / 0.35 wall-clock)")
    args = parser.parse_args(argv)
    failures: list[str] = []
    for path in args.files:
        failures.extend(check_file(path, args.tolerance))
    if failures:
        print("\nbenchmark regression gate FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nbenchmark regression gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
