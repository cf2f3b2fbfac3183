"""PC scenario: SpecEE on a laptop 4060 with llama.cpp offload and PowerInfer.

Reproduces the Fig. 16 setting: Llama2-7B does not fit the 8 GB laptop GPU,
so llama.cpp keeps ~half the layers on the CPU, while PowerInfer keeps hot
FFN neurons GPU-resident and sparse-executes the cold tail on the CPU (both
priced through their ``FrameworkProfile`` in ``repro.hardware.frameworks``).

Run:  python examples/pc_laptop.py
"""

from repro import build_rig, get_model_spec
from repro.baselines import DenseEngine
from repro.data import get_dataset, make_items
from repro.eval import priced_run, run_items


def pc_throughput() -> None:
    rig = build_rig("llama2-7b", train_prompts=6, train_tokens=30,
                    predictor_hidden=128, epochs=10)
    spec = get_dataset("sum")
    items = make_items(spec, rig.model.oracle, "llama2-7b", n_items=8)
    base = run_items(lambda: DenseEngine(rig.fresh_model()), spec, items,
                     n_layers=rig.model.n_layers)
    fast = run_items(lambda: rig.specee_engine(), spec, items,
                     n_layers=rig.model.n_layers)
    model_spec = get_model_spec("llama2-7b")
    print("SUM decode throughput, Llama2-7B @ RTX 4060 Laptop + i7 (modelled):")
    for framework in ("llama.cpp", "powerinfer"):
        b = priced_run(base, model_spec, "rtx4060-laptop", framework,
                       cpu_device="i7-13650hx").tokens_per_second
        f = priced_run(fast, model_spec, "rtx4060-laptop", framework,
                       cpu_device="i7-13650hx").tokens_per_second
        print(f"  {framework:>10}: {b:5.2f} -> SpecEE {f:5.2f} tokens/s ({f / b:.2f}x)")


if __name__ == "__main__":
    pc_throughput()
