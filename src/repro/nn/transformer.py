"""Llama-style transformer stacks.

Two variants share the layer geometry:

* :class:`TinyTransformerLM` — forward-only numpy inference stack with RoPE
  and a :class:`~repro.nn.attention.KVCache`, exposing *layer-resolved*
  stepping so the early-exit engines can stop mid-depth.
* :class:`TrainableTransformerLM` — autograd stack used by the training
  example, the LayerSkip recipe (``repro.training``) and tests.  Built with
  ``rope=True`` it uses the *same* rotary position encoding as the inference
  stack (expressed through autograd primitives — see :func:`rope_constants`),
  which makes trained weights directly exportable into
  :class:`TinyTransformerLM`; the default ``rope=False`` keeps the original
  learned-absolute-position variant.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.attention import INFERENCE_DTYPE, CausalSelfAttention, KVCache
from repro.nn.autograd import Tensor
from repro.nn.layers import Embedding, Linear, Module, RMSNorm, SwiGLU
from repro.nn.rope import RotaryEmbedding, apply_rope, pair_swap

__all__ = [
    "TransformerConfig", "TinyTransformerLM", "TrainableTransformerLM",
    "rope_constants",
]


def rope_constants(
    head_dim: int, max_positions: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """RoPE as three constant arrays usable inside the autograd tape.

    :func:`~repro.nn.rope.apply_rope` is ``x * C + swap(x) * S`` over
    :class:`~repro.nn.rope.RotaryEmbedding`'s ``[T, head_dim]`` tables
    ``C``/``S``; the tape writes the swap as ``x @ P`` with ``P`` the
    pair-swap permutation (``P[2i+1, 2i] = P[2i, 2i+1] = 1``).  Because
    ``x @ P`` only permutes, the arithmetic matches ``apply_rope`` exactly
    — the property the weight exporter relies on.
    """
    table = RotaryEmbedding(head_dim, max_positions=max_positions)
    return table.cos, table.sin, np.eye(head_dim)[pair_swap(head_dim)]


@dataclass(frozen=True)
class TransformerConfig:
    vocab_size: int = 512
    dim: int = 64
    n_layers: int = 8
    n_heads: int = 4
    n_kv_heads: Optional[int] = None
    intermediate_dim: int = 172
    max_positions: int = 1024

    def __post_init__(self) -> None:
        if self.dim % self.n_heads != 0:
            raise ValueError("dim must be divisible by n_heads")


def _cast(a: np.ndarray) -> np.ndarray:
    """``a`` as a C-contiguous :data:`INFERENCE_DTYPE` array — ``a`` itself
    when it already is one."""
    return np.ascontiguousarray(a, dtype=INFERENCE_DTYPE)


class _DecoderLayer:
    """Forward-only decoder layer: pre-norm attention + pre-norm SwiGLU."""

    def __init__(self, cfg: TransformerConfig, rng: np.random.Generator):
        self.attn_norm = RMSNorm(cfg.dim)
        self.attn = CausalSelfAttention(
            cfg.dim, cfg.n_heads, rng, n_kv_heads=cfg.n_kv_heads,
            max_positions=cfg.max_positions,
        )
        self.ffn_norm = RMSNorm(cfg.dim)
        self.ffn = SwiGLU(cfg.dim, cfg.intermediate_dim, rng)
        # Cast as built: the stack never holds all its layers in float64.
        self.cast_weights()

    def cast_weights(self) -> None:
        """Hold every weight, the stacked QKV and the RoPE tables as
        :data:`INFERENCE_DTYPE` arrays (see :func:`_cast`)."""
        attn = self.attn
        attn.wq, attn.wk, attn.wv, attn.wo, attn.wqkv = map(
            _cast, (attn.wq, attn.wk, attn.wv, attn.wo, attn.wqkv))
        attn.rope.cos, attn.rope.sin = _cast(attn.rope.cos), _cast(attn.rope.sin)
        for param in (self.attn_norm, self.ffn_norm, self.ffn.gate, self.ffn.up, self.ffn.down):
            param.weight.data = _cast(param.weight.data)

    def forward(
        self, x: np.ndarray, layer: int, cache: KVCache, positions: np.ndarray
    ) -> np.ndarray:
        x = x + self.attn.forward(self.attn_norm.forward_np(x), layer, cache, positions)
        x = x + self.ffn.forward_np(self.ffn_norm.forward_np(x))
        return x

    def forward_ragged(
        self, x: np.ndarray, layer: int, caches: Sequence[KVCache],
        bounds: Sequence[int], positions: np.ndarray,
    ) -> np.ndarray:
        """:meth:`forward` over many sequences' concatenated rows (sequence
        ``i`` owns ``bounds[i]:bounds[i + 1]``): norms and the SwiGLU are
        row-wise, so only attention needs to know where sequences end."""
        x = x + self.attn.forward_ragged(
            self.attn_norm.forward_np(x), layer, caches, bounds, positions)
        x = x + self.ffn.forward_np(self.ffn_norm.forward_np(x))
        return x

    def decode_batch(
        self, x: np.ndarray, layer: int, caches: List[KVCache], positions: np.ndarray
    ) -> np.ndarray:
        """Batched decode: ``x`` is ``[B, dim]``, one new token per sequence.

        Norms and the SwiGLU already broadcast over the batch axis; attention
        goes through the stacked-QKV batched path with per-sequence caches.
        """
        x = x + self.attn.decode_batch(self.attn_norm.forward_np(x), layer, caches, positions)
        x = x + self.ffn.forward_np(self.ffn_norm.forward_np(x))
        return x


class TinyTransformerLM:
    """Inference-only transformer with layer-resolved forward.

    The engines drive it through :meth:`embed`, :meth:`layer_decode_batch`
    (the single-token decode kernel) and :meth:`lm_head`; :meth:`forward_all`
    and :meth:`prefill_ragged` run multi-token blocks at full depth.
    """

    def __init__(self, cfg: TransformerConfig, seed: int = 0):
        self.cfg = cfg
        rng = np.random.default_rng(seed)
        emb_scale = 1.0 / np.sqrt(cfg.dim)
        self.embedding = rng.normal(0.0, emb_scale, size=(cfg.vocab_size, cfg.dim))
        self.layers: List[_DecoderLayer] = [
            _DecoderLayer(cfg, np.random.default_rng(rng.integers(2**31)))
            for _ in range(cfg.n_layers)
        ]
        for block in self.layers[1:]:  # one geometry, so one rotation table
            block.attn.rope = self.layers[0].attn.rope
        self.final_norm = RMSNorm(cfg.dim)
        self.lm_head_weight = rng.normal(0.0, emb_scale, size=(cfg.dim, cfg.vocab_size))
        self.refresh_stacked_weights()

    def refresh_stacked_weights(self) -> None:
        """Cast every weight to a C-contiguous :data:`INFERENCE_DTYPE` array
        and rebuild every layout derived from another — the one invalidation
        point, to be called after weights are replaced (the exporter in
        ``repro.training.export`` does).  A weight already in that form is
        kept, not copied, so a second call rebinds no weight.

        All layers' stacked QKV projections live in one ``[L, dim, q + 2 kv]``
        array (each layer's ``attn.wqkv`` is its slice, so nothing is stored
        twice) whose K/V columns :meth:`kv_fill` multiplies as one stacked
        operand, next to the ``[L, dim]`` stack of attention-norm gains;
        ``lm_head_rows`` is the LM head transposed to ``[V, dim]`` so the
        speculative slice gathers contiguous rows.
        """
        # One eps for every norm: the exit check's unit rows feed kv_fill.
        if any(block.attn_norm.eps != self.final_norm.eps for block in self.layers):
            raise ValueError("every attention norm must share the final norm's eps")
        self.embedding, self.lm_head_weight = _cast(self.embedding), _cast(self.lm_head_weight)
        self.final_norm.weight.data = _cast(self.final_norm.weight.data)
        for block in self.layers:
            block.cast_weights()
        attns = [block.attn for block in self.layers]
        width = attns[0].wq.shape[1] + 2 * attns[0].wk.shape[1]
        self._wqkv = np.empty((len(attns), self.cfg.dim, width), INFERENCE_DTYPE)
        for attn, out in zip(attns, self._wqkv):
            attn.refresh_stacked_weights(out)
        self._attn_gains = np.stack(
            [block.attn_norm.weight.data for block in self.layers])
        self.lm_head_rows = np.ascontiguousarray(self.lm_head_weight.T)

    _DERIVED = ("_wqkv", "_attn_gains", "lm_head_rows")

    def __getstate__(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if k not in self._DERIVED}

    def __setstate__(self, state: dict) -> None:
        # Views do not survive pickling (each layer's slice comes back as its
        # own array), so the shared storage is rebuilt after loading.
        self.__dict__.update(state)
        self.refresh_stacked_weights()

    def new_cache(self, max_tokens: int) -> KVCache:
        head_dim = self.cfg.dim // self.cfg.n_heads
        kv_heads = self.cfg.n_kv_heads or self.cfg.n_heads
        return KVCache(self.cfg.n_layers, kv_heads, head_dim, max_tokens)

    def embed(self, token_ids: np.ndarray) -> np.ndarray:
        return self.embedding[np.asarray(token_ids, dtype=np.int64)]

    def layer_decode_batch(
        self,
        hidden: np.ndarray,
        layer: int,
        caches: List[KVCache],
        positions: np.ndarray,
    ) -> np.ndarray:
        """Run one decoder layer over a ``[B, dim]`` decode batch (one new
        token per sequence, each with its own cache and absolute position)."""
        return self.layers[layer].decode_batch(hidden, layer, caches, positions)

    def kv_fill(
        self,
        hidden: np.ndarray,
        first_layers: Sequence[int],
        caches: Sequence[KVCache],
        positions: np.ndarray,
        unit: Optional[np.ndarray] = None,
    ) -> None:
        """The early-exit KV fill: row ``i`` of ``hidden`` ([B, dim]) exited
        before layer ``first_layers[i]``, and every layer from there on gets
        K/V projected from that same exit activation at ``positions[i]``.

        No attention, no output projection, no FFN — and because all skipped
        layers read one hidden at one position, the rows are RMS-normalised
        once (or arrive normalised as ``unit``, from the exit check), the
        per-layer norm gains and K/V weights apply as one stacked matmul, one
        rotation covers every layer's keys, and each cache takes its layers
        in one slice append.
        """
        lo = min(first_layers)
        attn = self.layers[lo].attn
        x = self.layers[lo].attn_norm.unit(hidden) if unit is None else unit
        kv = np.matmul(x * self._attn_gains[lo:, None, :],
                       self._wqkv[lo:, :, -2 * attn.n_kv_heads * attn.head_dim:])
        # [layer, row, K|V, head, head_dim]
        kv = kv.reshape(self.cfg.n_layers - lo, len(caches), 2, attn.n_kv_heads, attn.head_dim)
        # The layers that ran at these positions validated them already.
        rope = attn.rope
        k = apply_rope(kv[:, :, 0], rope.cos.take(positions, 0)[:, None],
                       rope.sin.take(positions, 0)[:, None])
        for i, cache in enumerate(caches):
            first = first_layers[i]
            cache.append_layers(first, k[first - lo:, i], kv[first - lo:, i, 1])

    def lm_head(self, hidden: np.ndarray) -> np.ndarray:
        return self.final_norm.forward_np(hidden) @ self.lm_head_weight

    def lm_head_slice(self, hidden: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
        rows = self.lm_head_rows[np.asarray(token_ids, dtype=np.int64)]
        return self.final_norm.forward_np(hidden) @ rows.T

    def forward_all(
        self, token_ids: np.ndarray, cache: KVCache, positions: np.ndarray
    ) -> np.ndarray:
        """Run every layer; returns final hidden states ``[T, dim]``."""
        hidden = self.embed(token_ids)
        for layer, block in enumerate(self.layers):
            hidden = block.forward(hidden, layer, cache, positions)
        return hidden

    def prefill_ragged(
        self, prompts: Sequence[Sequence[int]], caches: Sequence[KVCache]
    ) -> np.ndarray:
        """Prefill many fresh sequences in one full-depth pass.

        The prompts' rows are concatenated (``[sum T, dim]``), so embedding,
        norms, projections and the FFN are one GEMM each per layer — every
        sequence shares each weight read — while attention stays per
        sequence, each from position 0 into its own cache.  Returns the final
        hidden states of all rows.
        """
        lengths = [len(prompt) for prompt in prompts]
        bounds = np.concatenate([[0], np.cumsum(lengths)])
        positions = np.concatenate([np.arange(n) for n in lengths])
        hidden = self.embed(np.concatenate(prompts))
        for layer, block in enumerate(self.layers):
            hidden = block.forward_ragged(hidden, layer, caches, bounds, positions)
        return hidden


class _TrainableLayer(Module):
    def __init__(self, cfg: TransformerConfig, rng: np.random.Generator):
        self.cfg = cfg
        dim, heads = cfg.dim, cfg.n_heads
        self.attn_norm = RMSNorm(dim)
        self.wq = Linear(dim, dim, rng, bias=False)
        self.wk = Linear(dim, dim, rng, bias=False)
        self.wv = Linear(dim, dim, rng, bias=False)
        self.wo = Linear(dim, dim, rng, bias=False)
        self.ffn_norm = RMSNorm(dim)
        self.ffn = SwiGLU(dim, cfg.intermediate_dim, rng)
        self.n_heads = heads
        self.head_dim = dim // heads

    def __call__(
        self,
        x: Tensor,
        mask: np.ndarray,
        rope: Optional[Tuple[np.ndarray, np.ndarray, np.ndarray]] = None,
    ) -> Tensor:
        b, t, d = x.shape
        h = self.attn_norm(x)
        q = self.wq(h).reshape(b, t, self.n_heads, self.head_dim).transpose(0, 2, 1, 3)
        k = self.wk(h).reshape(b, t, self.n_heads, self.head_dim).transpose(0, 2, 1, 3)
        v = self.wv(h).reshape(b, t, self.n_heads, self.head_dim).transpose(0, 2, 1, 3)
        if rope is not None:
            # Rotary encoding through the tape: constants broadcast over
            # [b, heads, t, head_dim]; see rope_constants for why this matches
            # apply_rope exactly.
            cos, sin, perm = rope
            q = q * cos + (q @ perm) * sin
            k = k * cos + (k @ perm) * sin
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        scores = scores + Tensor(mask)  # additive causal mask (constant)
        attn = scores.softmax(axis=-1)
        ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, t, d)
        x = x + self.wo(ctx)
        x = x + self.ffn(self.ffn_norm(x))
        return x


class TrainableTransformerLM(Module):
    """Autograd transformer LM for from-scratch training.

    With ``rope=True`` the stack drops the learned absolute position table
    and rotates Q/K with the inference stack's rotary encoding, so a trained
    model exports weight-for-weight into :class:`TinyTransformerLM` (see
    ``repro.training.export``).  :meth:`forward_hidden` exposes every layer's
    output (with optional per-layer skipping — the LayerSkip dropout hook)
    and :meth:`head` projects any of them through the shared LM head, which
    is what the early-exit loss trains against.
    """

    def __init__(self, cfg: TransformerConfig, seed: int = 0, rope: bool = False):
        self.cfg = cfg
        self.rope = rope
        rng = np.random.default_rng(seed)
        self.token_emb = Embedding(cfg.vocab_size, cfg.dim, rng)
        if rope:
            head_dim = cfg.dim // cfg.n_heads
            if head_dim % 2 != 0:
                raise ValueError(f"rope needs an even head_dim, got {head_dim}")
            if cfg.n_kv_heads not in (None, cfg.n_heads):
                raise ValueError(
                    "the trainable stack has no grouped-query attention; "
                    "rope=True requires n_kv_heads in (None, n_heads)")
            self.pos_emb = None
            self._rope_cos, self._rope_sin, self._rope_perm = rope_constants(
                head_dim, cfg.max_positions)
        else:
            self.pos_emb = Embedding(cfg.max_positions, cfg.dim, rng)
        self.layers = [
            _TrainableLayer(cfg, np.random.default_rng(rng.integers(2**31)))
            for _ in range(cfg.n_layers)
        ]
        self.final_norm = RMSNorm(cfg.dim)
        self.lm_head = Linear(cfg.dim, cfg.vocab_size, rng, bias=False)

    def forward_hidden(
        self,
        token_ids: np.ndarray,
        layer_keep: Optional[Sequence[bool]] = None,
    ) -> List[Tensor]:
        """Hidden state after every decoder layer for ``token_ids`` [B, T].

        ``layer_keep[l] = False`` skips layer ``l`` entirely (the residual
        stream passes through unchanged) — the stochastic depth hook the
        LayerSkip recipe drives.  Entry ``l`` of the returned list is the
        residual stream after layer ``l`` (a skipped layer repeats its
        input), so ``head(hiddens[l])`` is the layer-``l`` early-exit logits.
        """
        token_ids = np.asarray(token_ids, dtype=np.int64)
        b, t = token_ids.shape
        if t > self.cfg.max_positions:
            raise ValueError(f"sequence length {t} exceeds {self.cfg.max_positions}")
        if layer_keep is not None and len(layer_keep) != len(self.layers):
            raise ValueError(
                f"layer_keep has {len(layer_keep)} entries for "
                f"{len(self.layers)} layers")
        x = self.token_emb(token_ids)
        if self.pos_emb is not None:
            x = x + self.pos_emb(np.arange(t))
        mask = np.triu(np.full((t, t), -1e9), k=1)
        rope = (None if not self.rope else
                (self._rope_cos[:t], self._rope_sin[:t], self._rope_perm))
        hiddens: List[Tensor] = []
        for i, layer in enumerate(self.layers):
            if layer_keep is None or layer_keep[i]:
                x = layer(x, mask, rope)
            hiddens.append(x)
        return hiddens

    def head(self, hidden: Tensor) -> Tensor:
        """Shared LM head: final norm + output projection of any layer's
        hidden state — final logits and early-exit logits alike."""
        return self.lm_head(self.final_norm(hidden))

    def __call__(self, token_ids: np.ndarray) -> Tensor:
        """``token_ids`` [B, T] -> logits Tensor [B, T, V]."""
        return self.head(self.forward_hidden(token_ids)[-1])
