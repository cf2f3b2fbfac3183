"""Sharded serving scaling: TP x PP curves and the all-reduce crossover.

Each workload is served as a closed batch (every request at t=0,
whole-prompt prefill) once per modelled cluster shape, every tick priced as
it runs by that shape's cluster model; per-request tokens are asserted
identical across shapes, so every point serves the same work:

* **decode_bound** — short prompts, long decode: weight-bandwidth-bound,
  where tensor parallelism pays (weight traffic divides ``tp``) and pipeline
  parallelism alone does not (micro-batching re-reads weights; stages only
  cancel that out, then bubbles are pure loss).
* **prefill_heavy** — long prompts, short decode: compute-bound, where both
  TP and PP scale the FLOP roofline.

The sweep runs the TP axis on an NVLink-class intra-node link and again on a
PCIe-class link: on NVLink the modelled tokens/s keep rising through TP=8,
on PCIe the per-layer all-reduce latency overtakes the shrinking layer time
and the optimum flips to a smaller TP — the crossover this benchmark exists
to pin down.  CI gates the key points against ``baselines/``.

Run standalone:  PYTHONPATH=src python benchmarks/bench_sharded_scaling.py [--json OUT]
"""

import json

from repro.data.corpus import generate_prompts
from repro.distributed import make_cluster
from repro.eval.harness import build_rig
from repro.serving import Request

TP_SWEEP = (1, 2, 4, 8)
PP_SWEEP = ((1, 2), (2, 2))
WORKLOADS = {
    # (prompt_len_range, max_new_tokens, n_requests)
    "decode_bound": ((4, 16), 64, 16),
    "prefill_heavy": ((160, 256), 24, 16),
}


def run_sharded_scaling(
    model: str = "llama2-7b",
    device: str = "a100-80g",
    framework: str = "vllm",
    batch_capacity: int = 8,
    kv_blocks: int = 512,
    block_size: int = 16,
    seed: int = 0,
):
    """Serve each workload on every cluster shape of the sweep."""
    rig = build_rig(model, seed=seed, train_prompts=6, train_tokens=30,
                    predictor_hidden=128, epochs=10)
    results = {}
    for name, (prompt_range, max_new, n_requests) in WORKLOADS.items():
        prompts = generate_prompts(n_requests, rig.model.vocab_size,
                                   length_range=prompt_range, seed=seed + 7)
        served = []  # per-request tokens of every shape served so far

        def tps(tp, pp, tp_link="nvlink"):
            serving = rig.async_serving_engine(
                device=device, framework=framework,
                batch_capacity=batch_capacity, kv_blocks=kv_blocks,
                block_size=block_size, chunk_prefill_tokens=None,
                cluster=make_cluster(device, tp=tp, pp=pp, tp_link=tp_link),
            )
            report = serving.run(
                [Request(i, p, max_new) for i, p in enumerate(prompts)])
            served.append({i: r.tokens for i, r in report.results.items()})
            if served[-1] != served[0]:
                raise AssertionError(
                    f"{name}: tp={tp} pp={pp} ({tp_link}) changed the tokens")
            return round(report.throughput_tps, 2)

        curves = {
            link: {f"tp{tp}": tps(tp, 1, link) for tp in TP_SWEEP}
            for link in ("nvlink", "pcie4")
        }
        curves["pp"] = {f"tp{tp}_pp{pp}": tps(tp, pp) for tp, pp in PP_SWEEP}
        curves["optimum_tp"] = {
            link: max(TP_SWEEP, key=lambda tp: curves[link][f"tp{tp}"])
            for link in ("nvlink", "pcie4")
        }
        results[name] = curves
    results["gates"] = {
        "decode_tp2_tps": results["decode_bound"]["nvlink"]["tp2"],
        "prefill_tp2_tps": results["prefill_heavy"]["nvlink"]["tp2"],
        "tp2_over_tp1": round(
            results["prefill_heavy"]["nvlink"]["tp2"]
            / results["prefill_heavy"]["nvlink"]["tp1"], 3),
    }
    return results


def render(results) -> str:
    """Human-readable scaling table."""
    lines = []
    for name in WORKLOADS:
        curves = results[name]
        lines.append(f"{name}:")
        for link in ("nvlink", "pcie4"):
            row = "  ".join(f"tp{tp}={curves[link][f'tp{tp}']:8.1f}"
                            for tp in TP_SWEEP)
            lines.append(f"  {link:>7}: {row}  (optimum tp{curves['optimum_tp'][link]})")
        row = "  ".join(f"{k}={v:8.1f}" for k, v in curves["pp"].items())
        lines.append(f"       pp: {row}")
    gates = results["gates"]
    lines.append(f"gate: prefill-heavy tp2/tp1 = {gates['tp2_over_tp1']:.2f}x")
    return "\n".join(lines)


def check(results) -> None:
    """The scaling claims CI relies on."""
    for name in WORKLOADS:
        curves = results[name]
        assert curves["nvlink"]["tp2"] > curves["nvlink"]["tp1"], (
            f"{name}: TP=2 must beat TP=1 on NVLink")
        # On the slow link, the all-reduce cost flips the optimum below the
        # NVLink one: scaling keeps paying on NVLink where PCIe has turned.
        assert curves["optimum_tp"]["pcie4"] < curves["optimum_tp"]["nvlink"], (
            f"{name}: expected a smaller optimal TP on pcie4 "
            f"({curves['optimum_tp']})")
        assert curves["pcie4"]["tp8"] < curves["pcie4"]["tp4"], (
            f"{name}: TP=8 over PCIe must lose to TP=4 (all-reduce bound)")
    # The compute-bound workload is the headline TP claim.
    assert results["gates"]["tp2_over_tp1"] > 1.2, (
        "prefill-heavy TP=2 should scale well past 1.2x")


def test_bench_sharded_scaling(benchmark):
    """pytest-benchmark entry point."""
    results = benchmark.pedantic(run_sharded_scaling, rounds=1, iterations=1)
    print()
    print(render(results))
    check(results)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default=None, help="write metrics JSON here")
    args = parser.parse_args()
    results = run_sharded_scaling()
    print(render(results))
    check(results)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
