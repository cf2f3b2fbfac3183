"""Rotary position embeddings (RoPE), as used by Llama-family models."""

from __future__ import annotations

import numpy as np

from repro.utils.mathx import as_float

__all__ = ["RotaryEmbedding", "apply_rope"]


class RotaryEmbedding:
    """Precomputed cos/sin tables for rotary position encoding.

    ``head_dim`` must be even; positions up to ``max_positions`` are cached.
    """

    def __init__(self, head_dim: int, max_positions: int = 4096, base: float = 10000.0):
        if head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even, got {head_dim}")
        self.head_dim = head_dim
        self.max_positions = max_positions
        inv_freq = 1.0 / (base ** (np.arange(0, head_dim, 2) / head_dim))
        angles = np.outer(np.arange(max_positions), inv_freq)  # [T, D/2]
        self.cos = np.cos(angles)
        self.sin = np.sin(angles)

    def tables_for(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        positions = np.asarray(positions, dtype=np.int64)
        # One reduction checks both ends: viewed as uint64, a negative
        # position lies above any table size instead of indexing from the end.
        if positions.size and positions.view(np.uint64).max() >= self.max_positions:
            bad = positions.min() if positions.min() < 0 else positions.max()
            raise ValueError(f"position {int(bad)} outside the table [0, {self.max_positions})")
        return self.cos[positions], self.sin[positions]


def apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate query/key vectors.

    Parameters
    ----------
    x : [..., T, head_dim] array (pairs ``(x[2i], x[2i+1])`` are rotated).
    cos, sin : [T, head_dim/2] tables for the absolute positions of the T steps.

    The rotation is norm-preserving per pair, a property the tests verify.
    A floating ``x`` keeps its dtype.
    """
    x = as_float(x)
    x_even = x[..., 0::2]
    x_odd = x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = x_even * cos - x_odd * sin
    out[..., 1::2] = x_even * sin + x_odd * cos
    return out
