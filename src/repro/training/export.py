"""Export trained weights into the inference stack.

:class:`TrainableTransformerLM` (built with ``rope=True``) and
:class:`TinyTransformerLM` share geometry, weight orientation (everything is
``[in, out]`` applied as ``x @ W``) and — by construction of
:func:`repro.nn.transformer.rope_constants` — the exact rotary arithmetic,
so the export is a plain weight copy.  The only inference-side bookkeeping
is :meth:`TinyTransformerLM.refresh_stacked_weights`, which rebuilds the
derived layouts the decode hot path reads (the stacked QKV projections the
early-exit KV fill shares, and the transposed LM-head table).
"""

from __future__ import annotations

import numpy as np

from repro.nn.transformer import TinyTransformerLM, TrainableTransformerLM

__all__ = ["export_inference_lm"]


def export_inference_lm(trained: TrainableTransformerLM) -> TinyTransformerLM:
    """Copy ``trained``'s weights into a fresh :class:`TinyTransformerLM`.

    Requires ``rope=True`` — the learned-absolute-position variant has no
    inference counterpart (the inference stack is rotary-only), so exporting
    it would silently change the function being computed.
    """
    if not trained.rope:
        raise ValueError(
            "export requires a rope=True TrainableTransformerLM; the "
            "learned-position variant does not match the inference stack")
    lm = TinyTransformerLM(trained.cfg, seed=0)
    lm.embedding = trained.token_emb.weight.data.copy()
    for src, dst in zip(trained.layers, lm.layers):
        np.copyto(dst.attn_norm.weight.data, src.attn_norm.weight.data)
        dst.attn.wq = src.wq.weight.data.copy()
        dst.attn.wk = src.wk.weight.data.copy()
        dst.attn.wv = src.wv.weight.data.copy()
        dst.attn.wo = src.wo.weight.data.copy()
        np.copyto(dst.ffn_norm.weight.data, src.ffn_norm.weight.data)
        for name in ("gate", "up", "down"):
            getattr(dst.ffn, name).weight.data = (
                getattr(src.ffn, name).weight.data.copy())
    np.copyto(lm.final_norm.weight.data, trained.final_norm.weight.data)
    lm.lm_head_weight = trained.lm_head.weight.data.copy()
    lm.refresh_stacked_weights()
    return lm
