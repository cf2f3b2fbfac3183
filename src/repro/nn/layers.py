"""Core layers shared by the trainable and inference transformer stacks.

Each layer exposes both a tape-based ``__call__`` (autograd :class:`Tensor`
in, Tensor out) and a fast ``forward_np`` working directly on numpy arrays for
the inference path where no gradients are needed.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.nn.autograd import Tensor

__all__ = ["Linear", "Embedding", "RMSNorm", "SwiGLU"]


class Module:
    """Tiny base class: parameter collection only."""

    def parameters(self) -> List[Tensor]:
        params: List[Tensor] = []
        for value in self.__dict__.values():
            if isinstance(value, Tensor) and value.requires_grad:
                params.append(value)
            elif isinstance(value, Module):
                params.extend(value.parameters())
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        params.extend(item.parameters())
        return params


class Linear(Module):
    """Dense layer ``y = x @ W + b`` with Kaiming-uniform init."""

    def __init__(
        self,
        in_features: int,
        out_features: int,
        rng: np.random.Generator,
        bias: bool = True,
    ):
        self.in_features = in_features
        self.out_features = out_features
        bound = float(np.sqrt(6.0 / in_features))
        self.weight = Tensor(
            rng.uniform(-bound, bound, size=(in_features, out_features)),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_features), requires_grad=True) if bias else None

    def __call__(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        out = x @ self.weight.data
        if self.bias is not None:
            out = out + self.bias.data
        return out


class Embedding(Module):
    """Token embedding table with normal(0, 0.02) init."""

    def __init__(self, vocab_size: int, dim: int, rng: np.random.Generator):
        self.vocab_size = vocab_size
        self.dim = dim
        self.weight = Tensor(rng.normal(0.0, 0.02, size=(vocab_size, dim)), requires_grad=True)

    def __call__(self, token_ids: np.ndarray) -> Tensor:
        return self.weight.take_rows(np.asarray(token_ids, dtype=np.int64))

    def forward_np(self, token_ids: np.ndarray) -> np.ndarray:
        return self.weight.data[np.asarray(token_ids, dtype=np.int64)]


class RMSNorm(Module):
    """Root-mean-square layer norm (the Llama normalization)."""

    def __init__(self, dim: int, eps: float = 1e-6):
        self.dim = dim
        self.eps = eps
        self.weight = Tensor(np.ones(dim), requires_grad=True)

    def __call__(self, x: Tensor) -> Tensor:
        ms = (x * x).mean(axis=-1, keepdims=True)
        inv = (ms + self.eps) ** -0.5
        return x * inv * self.weight

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        ms = np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1]
        return x / np.sqrt(ms + self.eps) * self.weight.data


class SwiGLU(Module):
    """Llama FFN: ``down(silu(gate(x)) * up(x))``."""

    def __init__(self, dim: int, hidden_dim: int, rng: np.random.Generator):
        self.gate = Linear(dim, hidden_dim, rng, bias=False)
        self.up = Linear(dim, hidden_dim, rng, bias=False)
        self.down = Linear(hidden_dim, dim, rng, bias=False)

    def __call__(self, x: Tensor) -> Tensor:
        return self.down(self.gate(x).silu() * self.up(x))

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        g = self.gate.forward_np(x)
        sig = 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(g, -60), 60)))
        return self.down.forward_np(g * sig * self.up.forward_np(x))
