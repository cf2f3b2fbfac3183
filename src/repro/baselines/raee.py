"""RAEE baseline (Huang et al., 2024) — retrieval-augmented early exiting.

RAEE pre-builds a database mapping context embeddings to observed exit
layers; at inference it retrieves the k nearest neighbours and predicts the
exit layer by probability superposition.  It is training-free but pays a
large memory footprint (the database) and per-token retrieval latency — the
"High memory / heavy prediction" row of Table 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.dense import DenseEngine, dense_layer_logits
from repro.hardware.ledger import CostLedger, Event
from repro.model.base import LayeredLM, LMState

__all__ = ["RAEEDatabase", "RAEEEngine"]


class RAEEDatabase:
    """Flat (brute-force) kNN index of context embeddings -> exit layers."""

    def __init__(self, dim: int):
        self.dim = dim
        self._keys: List[np.ndarray] = []
        self._layers: List[int] = []
        self._matrix: Optional[np.ndarray] = None

    def add(self, embedding: np.ndarray, exit_layer: int) -> None:
        embedding = np.asarray(embedding, dtype=np.float64)
        if embedding.shape != (self.dim,):
            raise ValueError(f"expected dim {self.dim}, got {embedding.shape}")
        self._keys.append(embedding)
        self._layers.append(int(exit_layer))
        self._matrix = None

    def __len__(self) -> int:
        return len(self._keys)

    @property
    def nbytes(self) -> int:
        """In the real system each entry stores a hidden-dim fp16 embedding
        plus metadata; we report the actual array footprint."""
        return len(self._keys) * self.dim * 8 + len(self._layers) * 8

    def _ensure_matrix(self) -> np.ndarray:
        if self._matrix is None:
            self._matrix = np.stack(self._keys) if self._keys else np.empty((0, self.dim))
        return self._matrix

    def query(self, embedding: np.ndarray, k: int = 8) -> Tuple[int, float]:
        """Superpose the k nearest entries; returns (predicted layer, confidence)."""
        if not self._keys:
            raise RuntimeError("empty RAEE database")
        matrix = self._ensure_matrix()
        d = matrix - np.asarray(embedding, dtype=np.float64)
        dist = np.einsum("nd,nd->n", d, d)
        idx = np.argpartition(dist, min(k, len(dist)) - 1)[:k]
        weights = 1.0 / (1.0 + dist[idx])
        layers = np.asarray([self._layers[i] for i in idx], dtype=np.float64)
        predicted = int(round(float(np.average(layers, weights=weights))))
        spread = float(np.std(layers))
        confidence = 1.0 / (1.0 + spread)
        return predicted, confidence


def build_raee_database(
    model: LayeredLM,
    prompts: Sequence[Sequence[int]],
    tokens_per_prompt: int = 32,
    embed_window: int = 4,
) -> RAEEDatabase:
    """Populate the database from dense decodes: key = mean embedding of the
    recent context window, value = the token's earliest correct-exit layer."""
    db = RAEEDatabase(dim=model.hidden_dim)
    for state, logits in dense_layer_logits(model, prompts, tokens_per_prompt):
        argmaxes = [int(np.argmax(layer_logits)) for layer_logits in logits]
        earliest = len(argmaxes) - 1
        while earliest and argmaxes[earliest - 1] == argmaxes[-1]:
            earliest -= 1
        db.add(_context_embedding(model, state.context, embed_window), earliest)
    return db


def _context_embedding(model: LayeredLM, context: Sequence[int], window: int) -> np.ndarray:
    """Mean token embedding over the recent window (retrieval key)."""
    emb = getattr(model, "_emb", None)
    if emb is None:
        raise TypeError("RAEE requires a model exposing token embeddings")
    ids = np.asarray(context[-window:], dtype=np.int64)
    return np.mean(emb[ids], axis=0)


@dataclass
class RAEEEngine(DenseEngine):
    """Exit at the retrieved layer (with the model's argmax at that depth)."""

    model: LayeredLM
    database: RAEEDatabase
    neighbours: int = 8
    embed_window: int = 4
    min_exit_layer: int = 2

    def _decide(self, state: LMState, ledger: CostLedger) -> Tuple[int, int, np.ndarray, int]:
        model = self.model
        last = model.n_layers - 1
        embedding = _context_embedding(model, state.context, self.embed_window)
        predicted, _confidence = self.database.query(embedding, self.neighbours)
        ledger.add(Event.RETRIEVAL, units=len(self.database))
        exit_layer = int(np.clip(predicted, self.min_exit_layer, last))
        hidden = model.run_to_layer(state, exit_layer)
        ledger.add(Event.DECODER_LAYER, calls=exit_layer + 1)
        ledger.add(Event.LM_HEAD_FULL)
        token = int(np.argmax(model.lm_head_full(hidden)))
        if exit_layer < last:
            ledger.add(Event.KV_FILL, units=last - exit_layer)
        return token, exit_layer, hidden, 1
