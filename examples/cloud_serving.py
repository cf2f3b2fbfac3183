"""Cloud-serving scenario: SpecEE composed with vLLM paging and AWQ int4.

Walks the paper's cloud stack (Sec. 6.3): evaluates MT-Bench throughput for
HF, vLLM and AWQ baselines and their SpecEE integrations on an A100 (AWQ
enters through its calibrated accuracy anchors and its ``FrameworkProfile``),
and demonstrates the real substrate piece behind the vLLM profile — the paged
KV cache.

Run:  python examples/cloud_serving.py
"""

import numpy as np

from repro import build_rig, get_model_spec
from repro.data import get_dataset, make_items
from repro.eval import priced_run, run_items
from repro.baselines import DenseEngine
from repro.serving.paged_kv import PagedKVCache


def throughput_table() -> None:
    spec = get_dataset("mt_bench")
    model_spec = get_model_spec("llama2-7b")
    print("MT-Bench decode throughput, Llama2-7B @ A100 (modelled):")
    for flavor, frameworks in (("dense", ["hf", "vllm"]), ("awq", ["awq"])):
        rig = build_rig("llama2-7b", flavor=flavor, train_prompts=6,
                        train_tokens=30, predictor_hidden=128, epochs=10)
        items = make_items(spec, rig.model.oracle, "llama2-7b",
                           flavor=flavor, n_items=10)
        base = run_items(lambda: DenseEngine(rig.fresh_model()), spec, items,
                         n_layers=rig.model.n_layers)
        fast = run_items(lambda: rig.specee_engine(), spec, items,
                         n_layers=rig.model.n_layers)
        for framework in frameworks:
            b = priced_run(base, model_spec, "a100-80g", framework).tokens_per_second
            f = priced_run(fast, model_spec, "a100-80g", framework).tokens_per_second
            print(f"  {framework:>5}: {b:6.1f} -> SpecEE {f:6.1f} tokens/s "
                  f"({f / b:.2f}x)")


def paged_kv_demo() -> None:
    print("\nPaged KV cache (the vLLM substrate):")
    cache = PagedKVCache(n_blocks=32, block_size=16, n_kv_heads=4, head_dim=32)
    for seq in range(3):
        cache.add_sequence(seq)
        for _ in range(10 + 13 * seq):
            kv = np.zeros((4, 32))
            cache.append(seq, kv, kv)
    print(f"  3 sequences of lengths 10/23/36 -> {cache.blocks_in_use()} blocks, "
          f"slot utilization {cache.utilization():.0%}")


if __name__ == "__main__":
    throughput_table()
    paged_kv_demo()
