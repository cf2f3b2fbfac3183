"""Export trained weights into the inference stack.

:class:`TrainableTransformerLM` (built with ``rope=True``) and
:class:`TinyTransformerLM` share geometry, weight orientation (everything is
``[in, out]`` applied as ``x @ W``) and — by construction of
:func:`repro.nn.transformer.rope_constants` — the exact rotary arithmetic,
so the export is a plain weight copy.  The only inference-side bookkeeping
is :meth:`TinyTransformerLM.refresh_stacked_weights`, which casts the
float64 training weights to the float32 inference dtype and rebuilds the
derived layouts the decode hot path reads (the stacked QKV projections the
early-exit KV fill shares, and the transposed LM-head table).
"""

from __future__ import annotations

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
    # The trained float64 arrays are bound as they are: the refresh below
    # casts each to the inference dtype, and that cast is the copy.
    lm.embedding = trained.token_emb.weight.data
    lm.lm_head_weight = trained.lm_head.weight.data
    lm.final_norm.weight.data = trained.final_norm.weight.data
    for src, dst in zip(trained.layers, lm.layers):
        dst.attn.wq, dst.attn.wk, dst.attn.wv, dst.attn.wo = (
            src.wq.weight.data, src.wk.weight.data, src.wv.weight.data, src.wo.weight.data)
        dst.attn_norm.weight.data = src.attn_norm.weight.data
        dst.ffn_norm.weight.data = src.ffn_norm.weight.data
        for name in ("gate", "up", "down"):
            getattr(dst.ffn, name).weight.data = getattr(src.ffn, name).weight.data
    lm.refresh_stacked_weights()
    return lm
