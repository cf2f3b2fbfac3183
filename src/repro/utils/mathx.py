"""Numerically stable math primitives used across the library."""

from __future__ import annotations

from typing import Iterable

import numpy as np

__all__ = [
    "as_float",
    "softmax",
    "log_softmax",
    "logsumexp",
    "sigmoid",
    "geometric_mean",
    "normalize_rows",
]


def as_float(x) -> np.ndarray:
    """``x`` as an array that keeps a floating dtype — float32 inference
    stays float32 — and promotes anything else to float64."""
    x = np.asarray(x)
    return x if x.dtype.kind == "f" else x.astype(np.float64)


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable softmax along ``axis``; rows sum to exactly one."""
    x = as_float(x)
    shifted = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    exps = np.exp(shifted)
    return exps / np.add.reduce(exps, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-softmax along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def logsumexp(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-sum-exp reduction along ``axis``."""
    x = np.asarray(x, dtype=np.float64)
    m = np.max(x, axis=axis, keepdims=True)
    out = np.log(np.sum(np.exp(x - m), axis=axis, keepdims=True)) + m
    return np.squeeze(out, axis=axis)


def sigmoid(x: np.ndarray | float) -> np.ndarray | float:
    """Stable logistic function (no overflow for large |x|)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 0:  # the exit predictor's per-token call: skip the masks
        ex = np.exp(-abs(x))
        return float(1.0 / (1.0 + ex) if x >= 0 else ex / (1.0 + ex))
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean of strictly positive values (paper's Geo.Mean columns)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geometric_mean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geometric_mean requires strictly positive values")
    return float(np.exp(np.mean(np.log(arr))))


def normalize_rows(x: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """L2-normalize the last axis."""
    x = np.asarray(x, dtype=np.float64)
    norm = np.linalg.norm(x, axis=-1, keepdims=True)
    return x / np.maximum(norm, eps)
