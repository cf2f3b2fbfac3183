"""AdaInfer baseline (Fan et al., 2024 — "Not all layers are necessary").

AdaInfer attaches a classical classifier (SVM) after *every* decoder layer.
Its features are **global** statistics that require projecting the full LM
head at every layer — the vocabulary-sized search traversal SpecEE's key
insight eliminates: top-probability ("confidence"), the gap between the two
highest probabilities, and the attention-free entropy of the distribution.
Exits are **not verified**, which is why AdaInfer loses accuracy (Table 4)
while paying ~20% latency for its prediction pass (Sec. 3.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.baselines.dense import DenseEngine, dense_layer_logits
from repro.baselines.svm import LinearSVM
from repro.hardware.ledger import CostLedger, Event
from repro.model.base import LayeredLM, LMState
from repro.utils.mathx import softmax

__all__ = ["adainfer_features", "AdaInferEngine", "train_adainfer_gates"]

ADAINFER_FEATURE_DIM = 3


def adainfer_features(full_logits: np.ndarray) -> np.ndarray:
    """AdaInfer's per-layer features from full-vocabulary logits:
    [top probability, top-2 gap, normalised entropy]."""
    probs = softmax(np.asarray(full_logits, dtype=np.float64))
    top2 = np.partition(probs, -2)[-2:]
    entropy = -np.sum(probs * np.log(np.maximum(probs, 1e-12)))
    entropy /= np.log(len(probs))
    return np.asarray([top2[1], top2[1] - top2[0], entropy])


def train_adainfer_gates(
    model: LayeredLM,
    prompts: Sequence[Sequence[int]],
    tokens_per_prompt: int = 32,
    min_exit_layer: int = 2,
    epochs: int = 10,
    seed: int = 0,
) -> Dict[int, LinearSVM]:
    """Harvest full-vocab features layer-wise and fit one SVM per layer."""
    per_layer: Dict[int, List[Tuple[np.ndarray, int]]] = {}
    for _state, logits in dense_layer_logits(model, prompts, tokens_per_prompt):
        final = int(np.argmax(logits[-1]))
        for layer in range(min_exit_layer, model.n_layers - 1):
            per_layer.setdefault(layer, []).append(
                (adainfer_features(logits[layer]), int(np.argmax(logits[layer]) == final)))
    gates: Dict[int, LinearSVM] = {}
    for layer, samples in per_layer.items():
        x = np.stack([s[0] for s in samples])
        y = np.asarray([s[1] for s in samples], dtype=np.float64)
        if y.sum() == 0 or y.sum() == len(y):
            continue
        svm = LinearSVM(ADAINFER_FEATURE_DIM)
        svm.fit(x, y, epochs=epochs, seed=seed + layer)
        gates[layer] = svm
    return gates


@dataclass
class AdaInferEngine(DenseEngine):
    """Early exit gated by per-layer SVMs on full-vocabulary features."""

    model: LayeredLM
    gates: Dict[int, LinearSVM]
    min_exit_layer: int = 2

    @property
    def active_predictors(self) -> float:
        return float(len(self.gates))

    def _decide(self, state: LMState, ledger: CostLedger) -> Tuple[int, int, np.ndarray, int]:
        model = self.model
        last = model.n_layers - 1
        evals = 0
        for layer in range(model.n_layers):
            hidden = model.layer_forward(state, layer)
            ledger.add(Event.DECODER_LAYER)
            gate = self.gates.get(layer)
            if layer < self.min_exit_layer or layer >= last or gate is None:
                continue
            # Full LM head *every layer* — AdaInfer's structural cost.
            logits = model.lm_head_full(hidden)
            ledger.add(Event.LM_HEAD_FULL)
            ledger.add(Event.FEATURE_STATS)
            feats = adainfer_features(logits)
            ledger.add(Event.SVM_PREDICT)
            evals += 1
            if bool(gate.predict(feats)[0]):
                ledger.add(Event.KV_FILL, units=last - layer)
                return int(np.argmax(logits)), layer, hidden, evals  # unverified exit
        ledger.add(Event.LM_HEAD_FULL)
        return int(np.argmax(model.lm_head_full(hidden))), last, hidden, evals
