"""Measured wall-clock serving throughput: batched vs sequential decode
through the real numpy transformer.

Unlike every other benchmark in this directory, the headline numbers here
are *stopwatch* tokens/s, not roofline-priced ones: the same ragged closed
batch is served twice through :class:`~repro.serving.AsyncServingEngine` over
:class:`~repro.model.transformer_backend.TransformerLayeredLM` — once with
the per-sequence decode loop, once with the batched fast path (stacked QKV
GEMMs, shared weight passes, shrinking batches on early exit) — and the
committed tokens are asserted identical before any timing is reported.
Sequential decode is weight-bandwidth-bound, so sharing each layer's weight
pass across the batch delivers >= 3x wall-clock tokens/s at batch 16 on the
reference host (the committed baseline records 3.9x).

Wall-clock numbers are machine-dependent; the regression gate therefore
checks the dimensionless batched/sequential speedup (and the absolute tps
only informationally) with the loose wall-clock tolerance class in
``check_regression.py``.

Run standalone:  PYTHONPATH=src python benchmarks/bench_wallclock_serving.py [--json OUT]
"""

import json

from repro.eval.harness import build_transformer_rig
from repro.nn.transformer import TransformerConfig
from repro.serving import Request

BATCH_SIZES = (1, 4, 8, 16)
MAX_NEW_TOKENS = 32

# Wide layers make the contrast honest: at this size sequential decode is
# dominated by re-reading weights per sequence, exactly the regime the
# batched path exists for.  Small enough that the full sweep stays in CI
# budget.
BENCH_CFG = TransformerConfig(vocab_size=512, dim=512, n_layers=8, n_heads=8,
                              intermediate_dim=1376, max_positions=1024)


def _requests(n: int, vocab: int, max_new_tokens: int = MAX_NEW_TOKENS):
    """Ragged prompt lengths so per-sequence cache views stay ragged."""
    return [Request(i, [(i * 13 + j) % vocab + 1 for j in range(4 + i % 5)],
                    max_new_tokens)
            for i in range(n)]


def run_wallclock_benchmark(seed: int = 0, repeats: int = 2) -> dict:
    """Serve each batch size batched and sequentially; best-of ``repeats``."""
    rig = build_transformer_rig(BENCH_CFG, seed=seed, max_tokens=512)
    batches = {}
    for batch in BATCH_SIZES:
        per_mode = {}
        for batched in (True, False):
            best_tps, tokens = 0.0, None
            for _ in range(repeats):
                serving = rig.async_serving_engine(
                    batch_capacity=batch, kv_blocks=2048, block_size=16,
                    batched=batched, chunk_prefill_tokens=None,
                )
                report = serving.run(_requests(batch, BENCH_CFG.vocab_size))
                best_tps = max(best_tps, report.measured_tps)
                tokens = {i: r.tokens for i, r in report.results.items()}
            per_mode[batched] = (best_tps, tokens)
        if per_mode[True][1] != per_mode[False][1]:
            raise AssertionError(
                f"batched decode diverged from sequential at batch {batch}")
        batches[str(batch)] = {
            "batched_tps": round(per_mode[True][0], 2),
            "sequential_tps": round(per_mode[False][0], 2),
            "speedup": round(per_mode[True][0] / per_mode[False][0], 3),
            "tokens": batch * MAX_NEW_TOKENS,
            "identical": True,
        }
    b16 = batches["16"]
    return {
        "config": {"dim": BENCH_CFG.dim, "n_layers": BENCH_CFG.n_layers,
                   "intermediate_dim": BENCH_CFG.intermediate_dim,
                   "vocab_size": BENCH_CFG.vocab_size,
                   "max_new_tokens": MAX_NEW_TOKENS},
        "batches": batches,
        "gates": {
            "b16_speedup": b16["speedup"],
            "b16_batched_tps": b16["batched_tps"],
        },
    }


def render(summary: dict) -> str:
    lines = ["wall-clock serving (real transformer, measured tokens/s)"]
    for batch, row in summary["batches"].items():
        lines.append(
            f"  batch {batch:>2}: batched {row['batched_tps']:8.1f} tok/s | "
            f"sequential {row['sequential_tps']:8.1f} tok/s | "
            f"{row['speedup']:.2f}x (identical={row['identical']})")
    return "\n".join(lines)


def test_bench_wallclock_serving(benchmark):
    summary = benchmark.pedantic(run_wallclock_benchmark, rounds=1, iterations=1)
    print()
    print(render(summary))
    assert all(row["identical"] for row in summary["batches"].values())
    # Same floor as check_regression's WallClock gates: committed baseline
    # minus the loose wall-clock tolerance, so the two gates cannot disagree.
    import os

    baseline_path = os.path.join(os.path.dirname(__file__), "baselines",
                                 "BENCH_wallclock.json")
    with open(baseline_path) as fh:
        gates = json.load(fh)["gates"]
    assert summary["gates"]["b16_speedup"] >= gates["b16_speedup"] * (1.0 - 0.35)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default=None, help="write metrics JSON here")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    summary = run_wallclock_benchmark(seed=args.seed)
    print(render(summary))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
