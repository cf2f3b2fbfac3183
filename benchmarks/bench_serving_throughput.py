"""Continuous-batching serving throughput vs sequential SpecEE serving.

Serves one closed batch (every request arrives at t=0, whole-prompt prefill)
through the serving engine and prices it twice on the modelled clock:
per-request sequential decoding (the merge of every request's own ledger)
and continuous batching over the paged KV cache (shared weight passes per
decoder layer, priced tick by tick).  Decode is weight-bandwidth-bound, so
batching must deliver >= 2x modelled tokens/s.

Run standalone:  PYTHONPATH=src python benchmarks/bench_serving_throughput.py [--json OUT]
"""

import json

from repro.data.corpus import generate_prompts
from repro.eval.harness import build_rig
from repro.serving import Request


def run_serving_benchmark(
    n_requests: int = 16,
    max_new_tokens: int = 64,
    batch_capacity: int = 8,
    kv_blocks: int = 512,
    block_size: int = 16,
    model: str = "llama2-7b",
    device: str = "a100-80g",
    framework: str = "vllm",
    seed: int = 0,
):
    rig = build_rig(model, seed=seed, train_prompts=6, train_tokens=30,
                    predictor_hidden=128, epochs=10)
    serving = rig.async_serving_engine(
        device=device, framework=framework, batch_capacity=batch_capacity,
        kv_blocks=kv_blocks, block_size=block_size, chunk_prefill_tokens=None,
    )
    prompts = generate_prompts(n_requests, rig.model.vocab_size, seed=seed + 7)
    requests = [Request(i, prompt, max_new_tokens) for i, prompt in enumerate(prompts)]
    report = serving.run(requests)
    priced = {"serving_tps": report.throughput_tps,
              "sequential_tps": report.sequential_tps,
              "speedup": report.speedup}
    return report, priced


def render(report, priced) -> str:
    return "\n".join([
        f"requests={len(report.results)} tokens={report.total_tokens} "
        f"steps={report.n_steps} occupancy={report.avg_batch_occupancy:.2f}",
        f"sequential: {priced['sequential_tps']:.1f} tokens/s",
        f"serving:    {priced['serving_tps']:.1f} tokens/s",
        f"speedup:    {priced['speedup']:.2f}x",
    ])


def summarize(report, priced) -> dict:
    return {
        "requests": len(report.results),
        "tokens": report.total_tokens,
        "steps": report.n_steps,
        "avg_occupancy": round(report.avg_batch_occupancy, 2),
        "sequential_tps": round(priced["sequential_tps"], 2),
        "serving_tps": round(priced["serving_tps"], 2),
        "speedup": round(priced["speedup"], 3),
    }


def test_bench_serving_throughput(benchmark):
    report, priced = benchmark.pedantic(run_serving_benchmark, rounds=1, iterations=1)
    print()
    print(render(report, priced))
    assert priced["speedup"] >= 2.0
    assert report.total_tokens == len(report.results) * 64


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--json", default=None, help="write metrics JSON here")
    args = parser.parse_args()
    report, priced = run_serving_benchmark()
    print(render(report, priced))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(summarize(report, priced), fh, indent=2, sort_keys=True)
        print(f"wrote {args.json}")
