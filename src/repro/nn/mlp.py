"""Fast inference MLP with a manual-gradient trainer.

This is the numpy stand-in for SpecEE's GPU predictor kernel: a small
fully-connected network (ReLU hidden layers, sigmoid output) whose forward
pass is a handful of GEMVs — exactly the workload the paper maps onto Tensor
Cores.  Training uses hand-derived gradients with Adam, which is faster and
simpler than dragging the autograd tape through millions of tiny samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from repro.utils.mathx import sigmoid

__all__ = ["MLPClassifier", "TrainReport"]


@dataclass
class TrainReport:
    """Loss/accuracy trajectory of one training run."""

    losses: List[float] = field(default_factory=list)
    train_accuracy: float = 0.0
    epochs: int = 0
    n_samples: int = 0


class MLPClassifier:
    """Binary MLP classifier: ``in_dim -> hidden*(depth-1) -> 1`` with sigmoid.

    ``depth`` counts weight matrices, matching the paper's terminology ("a
    2-layer MLP with hidden dimension 512").  ``depth=1`` degenerates to
    logistic regression.
    """

    def __init__(self, in_dim: int, hidden_dim: int = 512, depth: int = 2, seed: int = 0):
        if depth < 1:
            raise ValueError("depth must be >= 1")
        self.in_dim = in_dim
        self.hidden_dim = hidden_dim
        self.depth = depth
        rng = np.random.default_rng(seed)
        dims = [in_dim] + [hidden_dim] * (depth - 1) + [1]
        self.weights = [
            rng.normal(0.0, np.sqrt(2.0 / dims[i]), size=(dims[i], dims[i + 1]))
            for i in range(depth)
        ]
        self.biases = [np.zeros(dims[i + 1]) for i in range(depth)]
        # Feature standardization fitted at train time.
        self._mu = np.zeros(in_dim)
        self._sigma = np.ones(in_dim)

    # -- inference -------------------------------------------------------
    @property
    def n_params(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    def _standardize(self, x: np.ndarray) -> np.ndarray:
        return (x - self._mu) / self._sigma

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Probability of the positive class for ``x`` [N, in_dim] or [in_dim]."""
        h = self._standardize(np.asarray(x, dtype=np.float64))
        for i in range(self.depth - 1):
            h = np.maximum(h @ self.weights[i] + self.biases[i], 0.0)
        # A single vector stays 1-D throughout and comes out as a float.
        return sigmoid((h @ self.weights[-1] + self.biases[-1])[..., 0])

    __call__ = forward

    def predict(self, x: np.ndarray, threshold: float = 0.5) -> np.ndarray:
        return np.asarray(self.forward(x)) >= threshold

    # -- training ----------------------------------------------------------
    def fit(
        self,
        x: np.ndarray,
        y: np.ndarray,
        epochs: int = 30,
        batch_size: int = 256,
        lr: float = 1e-3,
        weight_decay: float = 1e-5,
        seed: int = 0,
        class_balance: bool = True,
    ) -> TrainReport:
        """Train with Adam on binary cross-entropy.

        ``class_balance`` reweights the minority class, which matters because
        exit events are rare at shallow layers and common at deep ones.
        """
        x = np.asarray(x, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).reshape(-1)
        if x.ndim != 2 or x.shape[0] != y.shape[0]:
            raise ValueError(f"bad training shapes x={x.shape} y={y.shape}")
        if x.shape[0] == 0:
            raise ValueError("empty training set")

        self._mu = x.mean(axis=0)
        self._sigma = np.maximum(x.std(axis=0), 1e-8)

        pos = max(float(y.sum()), 1.0)
        neg = max(float((1 - y).sum()), 1.0)
        if class_balance:
            w_pos, w_neg = (pos + neg) / (2 * pos), (pos + neg) / (2 * neg)
        else:
            w_pos = w_neg = 1.0

        rng = np.random.default_rng(seed)
        m = [np.zeros_like(w) for w in self.weights] + [np.zeros_like(b) for b in self.biases]
        v = [np.zeros_like(w) for w in self.weights] + [np.zeros_like(b) for b in self.biases]
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        step = 0
        report = TrainReport(n_samples=x.shape[0], epochs=epochs)

        n = x.shape[0]
        for _ in range(epochs):
            order = rng.permutation(n)
            epoch_loss = 0.0
            for start in range(0, n, batch_size):
                idx = order[start : start + batch_size]
                xb = self._standardize(x[idx])
                yb = y[idx]
                sw = np.where(yb > 0.5, w_pos, w_neg)

                # Forward, caching activations.
                acts = [xb]
                h = xb
                for i in range(self.depth - 1):
                    h = np.maximum(h @ self.weights[i] + self.biases[i], 0.0)
                    acts.append(h)
                logits = (h @ self.weights[-1] + self.biases[-1])[:, 0]
                probs = sigmoid(logits)
                probs = np.clip(probs, 1e-12, 1 - 1e-12)
                loss = -np.mean(sw * (yb * np.log(probs) + (1 - yb) * np.log(1 - probs)))
                epoch_loss += float(loss) * len(idx)

                # Backward (manual gradients).
                grad_logits = (sw * (probs - yb) / len(idx))[:, None]
                grads_w: List[np.ndarray] = [np.empty(0)] * self.depth
                grads_b: List[np.ndarray] = [np.empty(0)] * self.depth
                grads_w[-1] = acts[-1].T @ grad_logits + weight_decay * self.weights[-1]
                grads_b[-1] = grad_logits.sum(axis=0)
                grad_h = grad_logits @ self.weights[-1].T
                for i in range(self.depth - 2, -1, -1):
                    grad_h = grad_h * (acts[i + 1] > 0)
                    grads_w[i] = acts[i].T @ grad_h + weight_decay * self.weights[i]
                    grads_b[i] = grad_h.sum(axis=0)
                    if i > 0:
                        grad_h = grad_h @ self.weights[i].T

                # Adam update.
                step += 1
                params = self.weights + self.biases
                grads = grads_w + grads_b
                for j, (p, g) in enumerate(zip(params, grads)):
                    m[j] = beta1 * m[j] + (1 - beta1) * g
                    v[j] = beta2 * v[j] + (1 - beta2) * g * g
                    m_hat = m[j] / (1 - beta1**step)
                    v_hat = v[j] / (1 - beta2**step)
                    p -= lr * m_hat / (np.sqrt(v_hat) + eps)
            report.losses.append(epoch_loss / n)

        report.train_accuracy = float(np.mean(self.predict(x) == (y > 0.5)))
        return report

    # -- serialization -------------------------------------------------------
    def state_dict(self) -> dict:
        state = {"in_dim": self.in_dim, "hidden_dim": self.hidden_dim, "depth": self.depth,
                 "mu": self._mu, "sigma": self._sigma}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            state[f"w{i}"] = w
            state[f"b{i}"] = b
        return state

    @classmethod
    def from_state_dict(cls, state: dict) -> "MLPClassifier":
        model = cls(int(state["in_dim"]), int(state["hidden_dim"]), int(state["depth"]))
        model._mu = np.asarray(state["mu"], dtype=np.float64)
        model._sigma = np.asarray(state["sigma"], dtype=np.float64)
        model.weights = [np.asarray(state[f"w{i}"], dtype=np.float64) for i in range(model.depth)]
        model.biases = [np.asarray(state[f"b{i}"], dtype=np.float64) for i in range(model.depth)]
        return model
