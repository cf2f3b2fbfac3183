"""Offline predictor training (paper Sec. 7.4.4).

The paper harvests features at every intermediate layer while decoding a
prompt set, labels each (step, layer) sample ``True`` iff the token an early
exit would emit at that layer equals the token the full model emits, and
trains the per-layer MLPs on ~16K samples — noting that ~2% of the data
already reaches the accuracy plateau (Fig. 18).  This module reproduces the
pipeline: :func:`harvest_training_corpus` collects the per-layer datasets,
:func:`train_predictor_bank` fits a :class:`~repro.core.predictor.PredictorBank`
on a configurable fraction of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.features import FeatureExtractor
from repro.core.predictor import PredictorBank
from repro.model.base import LayeredLM
from repro.model.draft import Speculator
from repro.utils.rng import child_rng

__all__ = ["TrainingCorpus", "harvest_training_corpus", "train_predictor_bank"]


@dataclass
class TrainingCorpus:
    """Per-layer feature/label datasets harvested from dense decodes."""

    feature_dim: int
    n_layers: int
    features: Dict[int, List[np.ndarray]] = field(default_factory=dict)
    labels: Dict[int, List[int]] = field(default_factory=dict)

    def add(self, layer: int, feat: np.ndarray, label: bool) -> None:
        self.features.setdefault(layer, []).append(feat)
        self.labels.setdefault(layer, []).append(int(label))

    def layer_arrays(self, layer: int) -> Tuple[np.ndarray, np.ndarray]:
        feats = self.features.get(layer, [])
        labels = self.labels.get(layer, [])
        if not feats:
            return np.empty((0, self.feature_dim)), np.empty(0)
        return np.stack(feats), np.asarray(labels, dtype=np.float64)

    @property
    def n_samples(self) -> int:
        return sum(len(v) for v in self.features.values())

    def subsample(self, ratio: float, seed: int = 0) -> "TrainingCorpus":
        """Keep a ``ratio`` fraction of every layer's samples (Fig. 18 sweep)."""
        if not 0.0 < ratio <= 1.0:
            raise ValueError("ratio must lie in (0, 1]")
        out = TrainingCorpus(self.feature_dim, self.n_layers)
        rng = child_rng(seed, "corpus-subsample", ratio)
        for layer, feats in self.features.items():
            n = len(feats)
            keep = max(1, int(round(n * ratio)))
            idx = rng.permutation(n)[:keep]
            out.features[layer] = [feats[i] for i in idx]
            out.labels[layer] = [self.labels[layer][i] for i in idx]
        return out

    def split(self, test_fraction: float = 0.2, seed: int = 0) -> Tuple["TrainingCorpus", "TrainingCorpus"]:
        """Deterministic train/test split per layer."""
        train = TrainingCorpus(self.feature_dim, self.n_layers)
        test = TrainingCorpus(self.feature_dim, self.n_layers)
        rng = child_rng(seed, "corpus-split")
        for layer, feats in self.features.items():
            n = len(feats)
            idx = rng.permutation(n)
            cut = max(1, int(round(n * test_fraction)))
            for i in idx[:cut]:
                test.add(layer, feats[i], bool(self.labels[layer][i]))
            for i in idx[cut:]:
                train.add(layer, feats[i], bool(self.labels[layer][i]))
        return train, test


def harvest_training_corpus(
    model: LayeredLM,
    speculator: Speculator,
    prompts: Sequence[Sequence[int]],
    tokens_per_prompt: int = 32,
    min_exit_layer: int = 2,
) -> TrainingCorpus:
    """Decode ``prompts`` densely and collect (features, exit-correct) pairs
    at every intermediate layer."""
    k = speculator.k
    corpus = TrainingCorpus(feature_dim=3 * k, n_layers=model.n_layers)
    extractor = FeatureExtractor(k)
    for prompt in prompts:
        state = model.start(prompt)
        for _ in range(tokens_per_prompt):
            spec_tokens = speculator.propose(state.context)
            model.begin_step(state)
            extractor.reset()
            per_layer: List[Tuple[int, np.ndarray, int]] = []
            hidden = None
            for layer in range(model.n_layers):
                hidden = model.layer_forward(state, layer)
                if layer < min_exit_layer or layer >= model.n_layers - 1:
                    continue
                # Training data stays float64 whatever dtype the head serves.
                logits = np.asarray(model.lm_head_slice(hidden, spec_tokens), np.float64)
                feats = extractor.extract(logits).copy()
                exit_token = int(np.argmax(model.lm_head_full(hidden)))
                per_layer.append((layer, feats, exit_token))
            final_token = int(np.argmax(model.lm_head_full(hidden)))
            for layer, feats, exit_token in per_layer:
                corpus.add(layer, feats, exit_token == final_token)
            model.commit(state, final_token, model.n_layers - 1)
    return corpus


def train_predictor_bank(
    bank: PredictorBank,
    corpus: TrainingCorpus,
    epochs: int = 25,
    lr: float = 3e-3,
    seed: int = 0,
    test_corpus: Optional[TrainingCorpus] = None,
) -> Dict[str, float]:
    """Fit every layer's predictor; returns aggregate quality metrics.

    Layers with no positive or no negative examples keep their initial
    weights biased to "don't exit" (fitting a constant is meaningless and
    the scheduler rarely activates such layers anyway).
    """
    layer_accs: List[float] = []
    trained_layers = 0
    for layer in bank.layers():
        x, y = corpus.layer_arrays(layer)
        if len(y) < 8 or y.sum() == 0 or y.sum() == len(y):
            continue
        bank.predictors[layer].fit(x, y, epochs=epochs, lr=lr, seed=seed + layer)
        trained_layers += 1
        if test_corpus is not None:
            xt, yt = test_corpus.layer_arrays(layer)
            if len(yt):
                layer_accs.append(bank.accuracy(layer, xt, yt))
    metrics: Dict[str, float] = {
        "trained_layers": float(trained_layers),
        "train_samples": float(corpus.n_samples),
    }
    if layer_accs:
        metrics["test_accuracy"] = float(np.mean(layer_accs))
    return metrics
