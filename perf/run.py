#!/usr/bin/env python3
"""The stopwatch benchmark: five workloads, end-to-end and per-layer metrics.

Contract mode (what ``BENCHMARK.json`` names)::

    python3 perf/run.py --workload serve_closed_b16 --seed 3 --seconds 10 --trace 0

prints every metric by name with its unit and, as the last line of standard
output, one JSON object ``{"correct", "attempted", "failed", "metrics"}``:
the end-to-end metrics with ``--trace 0`` (no shim installed), the per-layer
metrics with ``--trace 1`` (a traced pass beside an untraced one).

Suite mode runs every workload in the fixed order, both ways, in one process
and writes one summary for ``perf/compare.py``::

    python3 perf/run.py --seed 0 --out perf/out/latest.json

See ``perf/README.md`` for the clock semantics and what each metric means.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)

#: Set-up is repeated (and its median reported) while it stays this cheap.
SETUP_BUDGET_S = 2.5
SETUP_REPEATS = 3
#: One request in this many is also decoded at batch 1 as the reference.
REFERENCE_STRIDE = 8


def load_contract() -> dict:
    with open(os.path.join(REPO, "BENCHMARK.json")) as handle:
        return json.load(handle)


def percentile_ms(samples, q: float) -> float:
    import numpy as np

    # Nearest rank, no interpolation: with ~20 samples and one long tick an
    # interpolated p95 swings with the sample count.
    return float(np.percentile(samples, q, method="higher")) * 1e3


# ---------------------------------------------------------------------------
# set-up and the output check
# ---------------------------------------------------------------------------
def set_up(workload, seed: int, smoke: bool):
    """Everything before the first timed request: rig, inputs, engines and a
    short warm-up pass on both sides.  Returns (objects, median seconds,
    seconds spent training the rig on a cold checkout)."""
    from workloads import load_rig

    times, build_s = [], 0.0
    while True:
        start = time.perf_counter()
        bundle = load_rig(workload.rig, smoke)
        requests = workload.requests(bundle.rig.model.vocab_size, seed, smoke)
        runner = workload.runner(bundle, requests)
        runner.pair(requests[:max(2, len(requests) // REFERENCE_STRIDE)])
        # Training the rig is the build step, not set-up (README).
        times.append(time.perf_counter() - start - bundle.build_s)
        build_s += bundle.build_s
        if len(times) >= SETUP_REPEATS or sum(times) > SETUP_BUDGET_S:
            return (bundle, requests, runner), statistics.median(times), build_s


def reference_tokens(bundle, requests) -> dict:
    """A 1-in-8 sample decoded through batch-1 ``SpecEEEngine.generate``."""
    engine = bundle.rig.specee_engine(**bundle.engine_kw)
    return {r.request_id: engine.generate(r.prompt, r.max_new_tokens).tokens
            for r in requests[::REFERENCE_STRIDE]}


def count_failed(out, requests, expected: dict) -> int:
    """Requests of one pass that were rejected, lost, cut short, or whose
    tokens differ from ``expected`` (request id -> tokens)."""
    failed = 0
    for request in requests:
        result = out.results.get(request.request_id)
        want = expected.get(request.request_id)
        if (result is None or len(result.tokens) != request.max_new_tokens
                or (want is not None and result.tokens != want)):
            failed += 1
    return failed


def token_digest(out) -> str:
    rows = sorted((rid, result.tokens) for rid, result in out.results.items())
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


def dense_agreement(bundle, requests, out) -> float:
    """Share of emitted tokens equal to the full-depth argmax at their
    position, teacher-forced and untimed: one ``forward_all`` per request in
    a fresh cache over the token stream full-depth decode would have cached
    (the prompt, then each step's input token at its decode position — the
    backend re-enters the last prompt token as the first step's input)."""
    import numpy as np

    lm = bundle.rig.model.lm
    same = total = 0
    for request in requests:
        prompt = request.prompt
        emitted = out.results[request.request_id].tokens
        p, n = len(prompt), len(emitted)
        stream = np.asarray(prompt + prompt[-1:] + emitted[:-1], dtype=np.int64)
        positions = np.concatenate([np.arange(p), np.arange(p - 1, p - 1 + n)])
        hidden = lm.forward_all(stream, lm.new_cache(len(stream)), positions)
        argmax = np.argmax(lm.lm_head(hidden[p:]), axis=-1)
        same += int(np.sum(argmax == np.asarray(emitted)))
        total += n
    return same / total


# ---------------------------------------------------------------------------
# the two kinds of measurement
# ---------------------------------------------------------------------------
class Checker:
    """Failure accounting across the passes of one measurement."""

    def __init__(self, bundle, requests):
        self.requests = requests
        self.expected = reference_tokens(bundle, requests)
        self.attempted = self.failed = 0
        self.digest = None

    def check(self, out) -> None:
        self.attempted += len(self.requests)
        self.failed += count_failed(out, self.requests, self.expected)
        if self.digest is None:
            # Later passes must repeat the first pass token for token.
            self.expected = {rid: r.tokens for rid, r in out.results.items()}
            self.digest = token_digest(out)


def measure_end_to_end(workload, seed: int, seconds: float, smoke: bool) -> dict:
    """Pairs of (SpecEE pass, full-depth pass) for ``seconds``; no shim.

    Timings are read off the passes' tick-by-tick minimum (``quietest``);
    the per-pass values are kept so ``compare.py`` can see their spread.
    """
    from workloads import quietest

    (bundle, requests, runner), setup_s, build_s = set_up(workload, seed, smoke)
    checker = Checker(bundle, requests)
    passes, bases = [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        pair_start = time.perf_counter()
        out, base = runner.pair(dense_first=len(passes) % 2 == 1)
        pair_s = time.perf_counter() - pair_start
        checker.check(out)
        passes.append(out)
        bases.append(base)
        if time.perf_counter() - start + pair_s > seconds:
            break
    tokens = passes[0].tokens
    probes = [out.probe for out in passes]

    def timings(probe, base) -> dict:
        itl, ttft = probe.itl_s(), probe.ttft_s()
        return {
            "tokens_per_s": tokens / probe.busy_s,
            "itl_ms_p50": percentile_ms(itl, 50),
            "itl_ms_p95": percentile_ms(itl, 95),
            "ttft_ms_p50": percentile_ms(ttft, 50),
            "ttft_ms_p80": percentile_ms(ttft, 80),
            "specee_speedup": base.busy_s / probe.busy_s,
        }

    per_pass = [timings(probe, base) for probe, base in zip(probes, bases)]
    quiet = quietest(probes)
    values = timings(quiet, quietest(bases))
    values.update({
        "setup_s": setup_s,
        "dense_agreement": dense_agreement(bundle, requests, passes[0]),
        "succeeded_share": 1.0 - checker.failed / checker.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    })
    return {
        "values": values,
        "per_pass": {name: [row[name] for row in per_pass] for name in per_pass[0]},
        "attempted": checker.attempted, "failed": checker.failed,
        "digest": checker.digest, "passes": len(passes), "build_s": build_s,
        "samples": {"itl": len(quiet.itl_s()), "ttft": len(quiet.ttft_s())},
    }


def is_timing(name: str) -> bool:
    """Whether a per-layer metric is a stopwatch reading; every other one is
    a count or a modelled-clock value and must repeat exactly between passes."""
    return (name.endswith("_s") or name.startswith("wall.share.")
            or name.endswith("queue_wait_ms_p50")) and not name.startswith("modelled.")


def measure_per_layer(workload, seed: int, seconds: float, smoke: bool,
                      spans_path=None) -> dict:
    """Alternate an untraced and a traced SpecEE pass for ``seconds``."""
    from layers import TARGETS, per_layer_metrics
    from shim import SpanRecorder, installed
    from workloads import quietest

    (bundle, requests, runner), _setup_s, build_s = set_up(workload, seed, smoke)
    checker = Checker(bundle, requests)
    plain_probes, traced_probes, rows = [], [], []
    start = time.perf_counter()
    while True:
        gc.collect()
        round_start = time.perf_counter()
        plain, _ = runner.pair(dense=False)
        checker.check(plain)
        gc.collect()
        recorder = SpanRecorder()
        with installed(recorder, TARGETS):
            traced, _ = runner.pair(dense=False, recorder=recorder)
        checker.check(traced)
        plain_probes.append(plain.probe)
        traced_probes.append(traced.probe)
        rows.append(per_layer_metrics(recorder, traced, requests))
        round_s = time.perf_counter() - round_start
        if time.perf_counter() - start + round_s > seconds:
            break
    values, unstable = {}, []
    for name in rows[0]:
        column = [row[name] for row in rows]
        if is_timing(name):
            values[name] = statistics.median(column)
        else:
            values[name] = column[0]
            if any(v != column[0] for v in column):
                unstable.append(name)
    values["trace.overhead_share"] = (
        quietest(traced_probes).busy_s / quietest(plain_probes).busy_s - 1.0)
    summary = recorder.summary()
    self_sum = sum(row["self_s"] for row in summary.values())
    if spans_path:
        recorder.dump(spans_path)
    return {
        "values": values, "attempted": checker.attempted,
        "failed": checker.failed, "digest": checker.digest,
        "passes": len(rows), "build_s": build_s, "unstable_counts": unstable,
        "spans": len(recorder.spans),
        "self_sum_s": self_sum, "root_total_s": recorder.root_total_s(),
    }


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------
def result_line(measured: dict, specs: list) -> dict:
    """The contract's result object for one measurement."""
    metrics = {spec["name"]: {"value": measured["values"][spec["name"]],
                              "unit": spec["unit"]} for spec in specs}
    correct = measured["failed"] == 0 and not measured.get("unstable_counts")
    return {"correct": correct, "attempted": measured["attempted"],
            "failed": measured["failed"], "metrics": metrics}


def print_metrics(workload: str, kind: str, measured: dict, specs: list) -> None:
    sent, failed = measured["attempted"], measured["failed"]
    print(f"== {workload} [{kind}] passes={measured['passes']} "
          f"requests sent={sent} succeeded={sent - failed} failed={failed} "
          f"token-digest={measured['digest']}")
    if measured["build_s"]:
        print(f"   (trained the rig first: build_s={measured['build_s']:.1f})")
    for key in ("samples", "spans", "unstable_counts"):
        if measured.get(key):
            print(f"   {key}: {measured[key]}")
    for spec in specs:
        value = measured["values"][spec["name"]]
        print(f"   {spec['name']:<44} {value:>16.6g} {spec['unit']}")
    if kind == "per_layer":
        print("   kind                 modelled.share   wall.share")
        for name, value in measured["values"].items():
            if name.startswith("modelled.share."):
                kind_name = name[len("modelled.share."):]
                wall = measured["values"][f"wall.share.{kind_name}"]
                print(f"   {kind_name:<20} {value:>14.4f} {wall:>12.4f}")


def host_details() -> dict:
    import numpy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "nproc": os.cpu_count(), "blas_threads": 1,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "machine": platform.machine(), "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="one workload, a comma-separated list, or 'all'")
    parser.add_argument("--seed", type=int, default=0,
                        help="workload generation only; the model seed is fixed")
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long each measurement runs (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both",
                        help="0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="small untrained rig and shrunken workloads")
    parser.add_argument("--out", default=None,
                        help="write a JSON summary of every measurement here")
    args = parser.parse_args(argv)

    # Single-threaded BLAS, pinned before numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    sys.path[:0] = [HERE, os.path.join(REPO, "src")]
    from workloads import WORKLOADS

    contract = load_contract()
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    # Always the fixed order, so a cumulative peak_rss_mb is comparable.
    names = [name for name in WORKLOADS
             if args.workload == "all" or name in args.workload.split(",")]
    if not names or (args.workload != "all"
                     and len(names) != len(args.workload.split(","))):
        parser.error(f"unknown workload in {args.workload!r}; "
                     f"known: {', '.join(WORKLOADS)}")

    out_dir = os.path.dirname(os.path.abspath(args.out)) if args.out else None
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    kinds = {"0": ["end_to_end"], "1": ["per_layer"],
             "both": ["end_to_end", "per_layer"]}[args.trace]
    summary = {"host": host_details() if args.out else None,
               "seed": args.seed, "seconds": seconds, "smoke": args.smoke,
               "workloads": {name: {} for name in names}, "claim": None}
    all_correct = True
    for name in names:
        for kind in kinds:
            if kind == "end_to_end":
                measured = measure_end_to_end(WORKLOADS[name], args.seed,
                                              seconds, args.smoke)
            else:
                measured = measure_per_layer(
                    WORKLOADS[name], args.seed, seconds, args.smoke,
                    out_dir and os.path.join(out_dir, f"trace_{name}.json"))
            print_metrics(name, kind, measured, contract[kind])
            line = result_line(measured, contract[kind])
            summary["workloads"][name][kind] = dict(measured, **line)
            all_correct &= line["correct"]
            print(json.dumps(line), flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(summary, handle, indent=1)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
