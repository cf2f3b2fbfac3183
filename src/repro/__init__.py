"""SpecEE reproduction: accelerating LLM inference with speculative early exiting.

Reproduction of Xu et al., *SpecEE: Accelerating Large Language Model
Inference with Speculative Early Exiting* (ISCA 2025).  See DESIGN.md for
the system inventory and EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import build_rig

    rig = build_rig("llama2-7b")
    engine = rig.specee_engine()          # T1 + T2 SpecEE engine
    result = engine.generate([5, 6, 7], 64)
    print(result.avg_exit_layer, "of", rig.model.n_layers, "layers")
"""

from repro.baselines import AdaInferEngine, DenseEngine, EagleEngine
from repro.config import MODELS, ModelSpec, SimDims, SpecEEConfig, get_model_spec
from repro.core import (
    PredictorBank,
    SpecEEEngine,
    SpecEESpeculativeEngine,
    harvest_training_corpus,
    train_predictor_bank,
)
from repro.data import DATASETS, get_dataset, make_items
from repro.eval import build_rig, priced_run, run_items
from repro.hardware import DEVICES, FRAMEWORKS, LatencyModel
from repro.model import (
    Speculator,
    SyntheticLayeredLM,
    TransformerLayeredLM,
    TreeDrafter,
    get_profile,
)
from repro.serving import AsyncServingEngine, AsyncServingReport, PagedKVCache, Request

__version__ = "1.0.0"

__all__ = [
    "AdaInferEngine",
    "AsyncServingEngine",
    "AsyncServingReport",
    "DATASETS",
    "DEVICES",
    "DenseEngine",
    "EagleEngine",
    "FRAMEWORKS",
    "LatencyModel",
    "MODELS",
    "ModelSpec",
    "PagedKVCache",
    "PredictorBank",
    "Request",
    "SimDims",
    "SpecEEConfig",
    "SpecEEEngine",
    "SpecEESpeculativeEngine",
    "Speculator",
    "SyntheticLayeredLM",
    "TransformerLayeredLM",
    "TreeDrafter",
    "build_rig",
    "get_dataset",
    "get_model_spec",
    "get_profile",
    "harvest_training_corpus",
    "make_items",
    "priced_run",
    "run_items",
    "train_predictor_bank",
    "__version__",
]
