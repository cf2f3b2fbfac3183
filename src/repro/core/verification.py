"""Verification algorithm (paper Sec. 4.3.3).

The predictor's features are *local* (softmax over the k candidates only),
so a positive prediction is confirmed with one full-vocabulary projection:
compute global logits, and exit only if the global argmax is one of the
speculative tokens.  This single check is what bounds SpecEE's accuracy loss
— an exit can only emit a token that is, at that layer, the model's own
greedy choice.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence, Tuple

import numpy as np

from repro.model.base import LayeredLM

__all__ = ["VerifyResult", "verify_exit", "verify_exits"]


class VerifyResult(NamedTuple):
    """Outcome of one verification: whether to exit and with which token."""

    ok: bool
    token: int


def verify_exit(
    model: LayeredLM, hidden: np.ndarray, spec_tokens: Sequence[int]
) -> VerifyResult:
    """Run the full LM head and test the global argmax against the candidates.

    The caller is responsible for charging the ``lm_head_full`` cost event —
    verification is exactly one full projection.
    """
    token = int(np.argmax(model.lm_head_full(hidden)))
    return VerifyResult(ok=any(token == t for t in spec_tokens), token=token)


def verify_exits(
    model: LayeredLM, hidden: np.ndarray, candidates: np.ndarray, pad: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """:func:`verify_exit` for every row of ``hidden`` ([m, dim]) against its
    ``candidates`` row ([m, k]) minus the ``pad`` slots a shortened draft
    does not own, through one full-head GEMM (the caller charges one
    ``lm_head_full`` per row).  Returns (``ok`` [m], argmax ``tokens`` [m])."""
    tokens = np.argmax(model.lm_head_full_batch(hidden), axis=-1)
    ok = ((candidates == tokens[:, None]) & ~pad).any(axis=1)
    return ok, tokens
