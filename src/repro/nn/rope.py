"""Rotary position embeddings (RoPE), as used by Llama-family models."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.utils.mathx import as_float

__all__ = ["RotaryEmbedding", "apply_rope", "pair_swap"]


@lru_cache(maxsize=None)
def pair_swap(head_dim: int) -> np.ndarray:
    """The shared, read-only index swapping each pair ``(2i, 2i + 1)``."""
    swap = np.arange(head_dim) ^ 1
    swap.flags.writeable = False
    return swap


class RotaryEmbedding:
    """Precomputed ``[max_positions, head_dim]`` tables for :func:`apply_rope`:
    ``cos`` repeats each pair's cosine, ``sin`` interleaves ``(-sin, +sin)``.

    ``head_dim`` must be even; positions up to ``max_positions`` are cached.
    """

    def __init__(self, head_dim: int, max_positions: int = 4096, base: float = 10000.0):
        if head_dim % 2 != 0:
            raise ValueError(f"head_dim must be even, got {head_dim}")
        self.head_dim = head_dim
        self.max_positions = max_positions
        inv_freq = 1.0 / (base ** (np.arange(0, head_dim, 2) / head_dim))
        angles = np.outer(np.arange(max_positions), inv_freq)  # [T, D/2]
        self.cos = np.repeat(np.cos(angles), 2, axis=-1)
        self.sin = np.repeat(np.sin(angles), 2, axis=-1) * np.tile([-1.0, 1.0], head_dim // 2)

    def tables_for(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        positions = np.asarray(positions, dtype=np.int64)
        # One reduction checks both ends: viewed as uint64, a negative
        # position lies above any table size instead of indexing from the end.
        if positions.size and positions.view(np.uint64).max() >= self.max_positions:
            bad = positions.min() if positions.min() < 0 else positions.max()
            raise ValueError(f"position {int(bad)} outside the table [0, {self.max_positions})")
        return self.cos[positions], self.sin[positions]


def apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> np.ndarray:
    """Rotate query/key vectors: ``x * cos + swap(x) * sin``.

    Parameters
    ----------
    x : [..., T, head_dim] array (pairs ``(x[2i], x[2i+1])`` are rotated).
    cos, sin : [T, head_dim] rows of :class:`RotaryEmbedding`'s tables.

    ``swap`` exchanges each pair, so ``out[2i] = x[2i] cos_i - x[2i+1] sin_i``
    and ``out[2i+1] = x[2i+1] cos_i + x[2i] sin_i`` — the even/odd rotation
    bit for bit, and :func:`~repro.nn.transformer.rope_constants`' map.
    Norm-preserving per pair, in the wider of ``x``'s and the tables' dtypes.
    """
    x = as_float(x)
    out = x * cos
    out += x.take(pair_swap(x.shape[-1]), axis=-1) * sin
    return out
