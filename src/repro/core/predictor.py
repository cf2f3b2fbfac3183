"""The lightweight exit predictor (paper Sec. 4.3.2) and per-layer bank.

The paper's design-space exploration (Fig. 8) lands on a 2-layer MLP with a
hidden dimension of 512 — ~0.07M parameters, a ~100x reduction over the
AdaInfer-style predictor that consumes raw full-vocabulary statistics.  One
predictor is attached per decoder layer (the paper's 416 KB total for
Llama2-7B = 32 such MLPs); :class:`PredictorBank` holds and dispatches them.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.nn.mlp import MLPClassifier

__all__ = ["ExitPredictor", "PredictorBank"]


class ExitPredictor:
    """A single layer's exit classifier: features in, exit probability out."""

    def __init__(self, feature_dim: int, hidden_dim: int = 512, depth: int = 2, seed: int = 0):
        self.feature_dim = feature_dim
        self.mlp = MLPClassifier(feature_dim, hidden_dim=hidden_dim, depth=depth, seed=seed)

    @property
    def n_params(self) -> int:
        return self.mlp.n_params

    def probability(self, features: np.ndarray) -> float:
        """Exit probability for one feature vector."""
        return float(self.mlp.forward(features))

    def probability_batch(self, features: np.ndarray) -> np.ndarray:
        """Exit probabilities for ``[m, feature_dim]`` rows in one MLP pass."""
        features = np.asarray(features, dtype=np.float64)
        return np.asarray(self.mlp.forward(features), dtype=np.float64).reshape(-1)

    def fit(self, x: np.ndarray, y: np.ndarray, **kwargs):
        return self.mlp.fit(x, y, **kwargs)

    def state_dict(self) -> dict:
        return self.mlp.state_dict()

    @classmethod
    def from_state_dict(cls, state: dict) -> "ExitPredictor":
        obj = cls.__new__(cls)
        obj.mlp = MLPClassifier.from_state_dict(state)
        obj.feature_dim = obj.mlp.in_dim
        return obj


class PredictorBank:
    """One :class:`ExitPredictor` per decoder layer (last layer excluded —
    reaching it means no early exit is possible)."""

    def __init__(
        self,
        n_layers: int,
        feature_dim: int,
        hidden_dim: int = 512,
        depth: int = 2,
        seed: int = 0,
    ):
        self.n_layers = n_layers
        self.feature_dim = feature_dim
        self.hidden_dim = hidden_dim
        self.depth = depth
        self.predictors: Dict[int, ExitPredictor] = {
            layer: ExitPredictor(feature_dim, hidden_dim, depth, seed=seed + layer)
            for layer in range(n_layers - 1)
        }

    @property
    def total_params(self) -> int:
        return sum(p.n_params for p in self.predictors.values())

    def layers(self) -> List[int]:
        return sorted(self.predictors)

    def probability(self, layer: int, features: np.ndarray) -> float:
        if layer not in self.predictors:
            raise KeyError(f"no predictor for layer {layer}")
        return self.predictors[layer].probability(features)

    def probability_batch(self, layer: int, features: np.ndarray) -> np.ndarray:
        """Batched :meth:`probability`: one pass of ``layer``'s MLP over
        ``[m, feature_dim]`` feature rows."""
        if layer not in self.predictors:
            raise KeyError(f"no predictor for layer {layer}")
        return self.predictors[layer].probability_batch(features)

    def accuracy(self, layer: int, x: np.ndarray, y: np.ndarray, threshold: float = 0.5) -> float:
        """Classification accuracy of one layer's predictor on held-out data."""
        probs = self.predictors[layer].mlp.forward(np.asarray(x, dtype=np.float64))
        return float(np.mean((np.asarray(probs) >= threshold) == (np.asarray(y) > 0.5)))

    # -- serialization ---------------------------------------------------------
    def state_dict(self) -> dict:
        return {
            "n_layers": self.n_layers,
            "feature_dim": self.feature_dim,
            "hidden_dim": self.hidden_dim,
            "depth": self.depth,
            "predictors": {str(l): p.state_dict() for l, p in self.predictors.items()},
        }

    @classmethod
    def from_state_dict(cls, state: dict) -> "PredictorBank":
        bank = cls(
            int(state["n_layers"]), int(state["feature_dim"]),
            int(state["hidden_dim"]), int(state["depth"]),
        )
        bank.predictors = {
            int(l): ExitPredictor.from_state_dict(s) for l, s in state["predictors"].items()
        }
        return bank

    def save(self, path: str) -> None:
        """Persist to ``.npz`` (flat keys ``layer/param``)."""
        flat: Dict[str, np.ndarray] = {
            "__meta__": np.asarray(
                [self.n_layers, self.feature_dim, self.hidden_dim, self.depth]
            )
        }
        for layer, pred in self.predictors.items():
            for key, value in pred.state_dict().items():
                flat[f"{layer}/{key}"] = np.asarray(value)
        np.savez(path, **flat)

    @classmethod
    def load(cls, path: str) -> "PredictorBank":
        data = np.load(path)
        n_layers, feature_dim, hidden_dim, depth = (int(v) for v in data["__meta__"])
        bank = cls(n_layers, feature_dim, hidden_dim, depth)
        states: Dict[int, dict] = {}
        for key in data.files:
            if key == "__meta__":
                continue
            layer_str, param = key.split("/", 1)
            states.setdefault(int(layer_str), {})[param] = data[key]
        bank.predictors = {
            layer: ExitPredictor.from_state_dict(state) for layer, state in states.items()
        }
        return bank
