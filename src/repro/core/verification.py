"""Verification algorithm (paper Sec. 4.3.3).

The predictor's features are *local* (softmax over the k candidates only),
so a positive prediction is confirmed with one full-vocabulary projection:
compute global logits, and exit only if the global argmax is one of the
speculative tokens.  This single check is what bounds SpecEE's accuracy loss
— an exit can only emit a token that is, at that layer, the model's own
greedy choice.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.model.base import LayeredLM

__all__ = ["verify_exits"]


def verify_exits(
    model: LayeredLM, hidden: np.ndarray, candidates: np.ndarray, pad: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Verify every row of ``hidden`` ([m, dim]) against its ``candidates``
    row ([m, k]) minus the ``pad`` slots a shortened draft does not own,
    through one full-head GEMM (the caller charges one ``lm_head_full`` per
    row).  Returns (``ok`` [m], argmax ``tokens`` [m])."""
    tokens = np.argmax(model.lm_head_full_batch(hidden), axis=-1)
    ok = ((candidates == tokens[:, None]) & ~pad).any(axis=1)
    return ok, tokens
