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

from repro.nn.attention import INFERENCE_DTYPE
from repro.nn.mlp import MLPClassifier

__all__ = ["ExitPredictor", "PredictorBank"]


class ExitPredictor:
    """A single layer's exit classifier: features in, exit probability out.

    ``mlp`` is trained and scored (``fit``, ``PredictorBank.accuracy``) in
    float64; probabilities are served from ``served``, one ``(weight, bias)``
    pair per layer in ``INFERENCE_DTYPE``."""

    def __init__(self, feature_dim: int, hidden_dim: int = 512, depth: int = 2, seed: int = 0):
        self.feature_dim = feature_dim
        self.mlp = MLPClassifier(feature_dim, hidden_dim=hidden_dim, depth=depth, seed=seed)
        self.refresh_served()

    def refresh_served(self) -> None:
        """Rebuild ``served`` from ``mlp`` — the one cast point, called
        wherever the float64 weights change.  The standardisation folds into
        the first layer, ``W0 / sigma`` and ``b0 - (mu / sigma) @ W0``."""
        mlp = self.mlp
        inv_sigma = 1.0 / mlp._sigma
        weights = [mlp.weights[0] * inv_sigma[:, None]] + mlp.weights[1:]
        biases = [mlp.biases[0] - (mlp._mu * inv_sigma) @ mlp.weights[0]] + mlp.biases[1:]
        self.served = [(w.astype(INFERENCE_DTYPE), b.astype(INFERENCE_DTYPE))
                       for w, b in zip(weights, biases)]

    @property
    def n_params(self) -> int:
        return self.mlp.n_params

    def probability(self, features: np.ndarray) -> float:
        """Exit probability for one feature vector (its logit as a scalar)."""
        return float(0.5 * np.tanh(0.5 * self._logits(features)[0]) + 0.5)

    def probability_batch(self, features: np.ndarray) -> np.ndarray:
        """Exit probabilities for ``[m, feature_dim]`` rows in one MLP pass."""
        # The logistic in its tanh form: no overflow at large |logit|.
        return 0.5 * np.tanh(0.5 * self._logits(features)[..., 0]) + 0.5

    def _logits(self, features: np.ndarray) -> np.ndarray:
        h = np.asarray(features, dtype=INFERENCE_DTYPE)
        for w, b in self.served[:-1]:
            h = h @ w
            h += b
            np.maximum(h, 0.0, out=h)
        w, b = self.served[-1]
        return h @ w + b

    def fit(self, x: np.ndarray, y: np.ndarray, **kwargs):
        report = self.mlp.fit(x, y, **kwargs)
        self.refresh_served()
        return report

    def state_dict(self) -> dict:
        return self.mlp.state_dict()

    @classmethod
    def from_state_dict(cls, state: dict) -> "ExitPredictor":
        obj = cls.__new__(cls)
        obj.mlp = MLPClassifier.from_state_dict(state)
        obj.feature_dim = obj.mlp.in_dim
        obj.refresh_served()
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
        return self.predictors[layer].probability(features)

    def probability_batch(self, layer: int, features: np.ndarray) -> np.ndarray:
        """Batched :meth:`probability`: one pass of ``layer``'s MLP over
        ``[m, feature_dim]`` feature rows."""
        return self.predictors[layer].probability_batch(features)

    def accuracy(self, layer: int, x: np.ndarray, y: np.ndarray, threshold: float = 0.5) -> float:
        """Classification accuracy of one layer's predictor on held-out data."""
        probs = self.predictors[layer].mlp.forward(np.asarray(x, dtype=np.float64))
        return float(np.mean((np.asarray(probs) >= threshold) == (np.asarray(y) > 0.5)))

    # -- serialization ---------------------------------------------------------
    _META = ("n_layers", "feature_dim", "hidden_dim", "depth")

    def state_dict(self) -> dict:
        return {**{key: getattr(self, key) for key in self._META},
                "predictors": {str(l): p.state_dict() for l, p in self.predictors.items()}}

    @classmethod
    def from_state_dict(cls, state: dict) -> "PredictorBank":
        bank = cls(*(int(state[key]) for key in cls._META))
        bank.predictors = {
            int(l): ExitPredictor.from_state_dict(s) for l, s in state["predictors"].items()
        }
        return bank

    def save(self, path: str) -> None:
        """Persist :meth:`state_dict` to ``.npz`` (flat keys ``layer/param``)."""
        state = self.state_dict()
        flat = {f"{layer}/{key}": np.asarray(value)
                for layer, pred in state.pop("predictors").items() for key, value in pred.items()}
        np.savez(path, __meta__=np.asarray([state[key] for key in self._META]), **flat)

    @classmethod
    def load(cls, path: str) -> "PredictorBank":
        """Inverse of :meth:`save`, through :meth:`from_state_dict`."""
        data = np.load(path)
        state: dict = dict(zip(cls._META, data["__meta__"]), predictors={})
        for key in data.files:
            if key != "__meta__":
                layer, param = key.split("/", 1)
                state["predictors"].setdefault(layer, {})[param] = data[key]
        return cls.from_state_dict(state)
