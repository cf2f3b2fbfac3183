"""Evaluation metrics shared by the experiments."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "accuracy_percent",
    "perplexity_from_logprobs",
    "normalized_layers",
    "answer_matches",
]


def answer_matches(emitted: Sequence[int], gold: Sequence[int], answer_start: int) -> bool:
    """Whether the emitted answer tokens match the gold answer exactly."""
    window = emitted[answer_start : answer_start + len(gold)]
    return len(window) == len(gold) and all(int(a) == int(b) for a, b in zip(window, gold))


def accuracy_percent(outcomes: Iterable[bool]) -> float:
    values = [bool(v) for v in outcomes]
    if not values:
        return float("nan")
    return 100.0 * float(np.mean(values))


def perplexity_from_logprobs(logprobs: Sequence[float]) -> float:
    if not len(logprobs):
        return float("nan")
    return float(np.exp(-np.mean(np.asarray(logprobs, dtype=np.float64))))


def normalized_layers(theoretical_avg: float, actual_avg: float) -> float:
    """Fig. 7's closeness metric: theoretical over actual average forward
    layers (100% = the engine exits exactly at the earliest possible depth)."""
    if actual_avg <= 0:
        return float("nan")
    return 100.0 * theoretical_avg / actual_avg
