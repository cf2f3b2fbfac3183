"""LayeredLM adapter over the real numpy transformer.

This backend runs genuine attention/FFN math through the same interface the
engines drive, which keeps the whole SpecEE pipeline honest: every feature
extraction, predictor call and verification step that works on the synthetic
backend also works on a real transformer.  With random weights its outputs
are not a trained language, so experiments use the synthetic backend; tests
use this one to validate the interface contract (KV-cache consistency,
early-exit KV propagation, layer ordering).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.model.base import LayeredLM, LMState
from repro.nn.attention import KVCache
from repro.nn.transformer import TinyTransformerLM, TransformerConfig

__all__ = ["TransformerLayeredLM", "TransformerState"]


class TransformerState(LMState):
    """LMState plus the transformer's KV cache and current activations."""

    def __init__(self, context: List[int], prompt_len: int, cache: KVCache):
        super().__init__(context=context, prompt_len=prompt_len)
        self.cache = cache
        self.hidden: Optional[np.ndarray] = None  # [1, dim] current activations
        self.host_kv: Optional[dict] = None  # swap-out blob while preempted


#: How the KV slots of layers skipped by an early exit are filled.
#:
#: * ``"full"`` — continue the exit hidden state through the remaining
#:   *complete* layers (attention + FFN).  Semantically closest to not
#:   exiting at all and replayable with one dense pass, but it pays the full
#:   per-layer cost, so early exits save no wall-clock time.
#: * ``"propagate"`` — project the exit hidden state through each skipped
#:   layer's K/V weights only (hidden-state propagation, the standard
#:   treatment in early-exit LLM systems).  One fused projection + rotation
#:   for all skipped layers (:meth:`TinyTransformerLM.kv_fill`) instead of
#:   full layers, which is what turns exits into measured speedup; replay
#:   happens per step at the recorded exit depths.
KV_FILL_MODES = ("full", "propagate")


class TransformerLayeredLM(LayeredLM):
    """Layer-resolved decoding over :class:`TinyTransformerLM`.

    On an early exit, KV entries for the skipped layers are synthesised from
    the exit-layer hidden state so later tokens attend over a complete
    cache; :data:`KV_FILL_MODES` selects between the faithful-but-costly
    full-layer fill and the cheap propagation fill the trained rigs use.
    """

    supports_batched_decode = True

    def __init__(
        self,
        cfg: TransformerConfig | None = None,
        seed: int = 0,
        max_tokens: int = 512,
        kv_fill: str = "full",
        lm: TinyTransformerLM | None = None,
    ):
        if kv_fill not in KV_FILL_MODES:
            raise ValueError(f"kv_fill must be one of {KV_FILL_MODES}, got {kv_fill!r}")
        if lm is not None:
            # Wrap an existing (e.g. LayerSkip-trained and exported) stack
            # instead of rolling fresh random weights.
            if cfg is not None and cfg != lm.cfg:
                raise ValueError("cfg disagrees with the provided lm's config")
            self.cfg = lm.cfg
            self.lm = lm
        else:
            self.cfg = cfg or TransformerConfig()
            self.lm = TinyTransformerLM(self.cfg, seed=seed)
        self.kv_fill = kv_fill
        # The declared context limit: no cache may outgrow the rotary table.
        self.max_tokens = min(max_tokens, self.cfg.max_positions)

    @property
    def n_layers(self) -> int:
        return self.cfg.n_layers

    @property
    def hidden_dim(self) -> int:
        return self.cfg.dim

    @property
    def vocab_size(self) -> int:
        return self.cfg.vocab_size

    # -- generation ----------------------------------------------------------
    def start(self, prompt: Sequence[int], script: Optional[Sequence[int]] = None) -> TransformerState:
        return self.start_batch([prompt], [script])[0]

    def start_batch(
        self,
        prompts: Sequence[Sequence[int]],
        scripts: Optional[Sequence[Optional[Sequence[int]]]] = None,
    ) -> List[TransformerState]:
        """Prefill every prompt in one ragged full-depth pass, so the batch
        streams each layer's weights once instead of once per prompt."""
        if scripts is not None and any(script is not None for script in scripts):
            raise ValueError("the transformer backend cannot plant scripted outputs")
        prompts = [[int(t) % self.vocab_size for t in prompt] for prompt in prompts]
        if not all(prompts):
            raise ValueError("prompt must contain at least one token")
        states = [
            TransformerState(context=prompt, prompt_len=len(prompt),
                             cache=self.lm.new_cache(self.max_tokens))
            for prompt in prompts
        ]
        self.lm.prefill_ragged(prompts, [state.cache for state in states])
        return states

    def begin_step(self, state: TransformerState) -> None:
        last = state.context[-1]
        state.hidden = self.lm.embed(np.asarray([last]))
        state.layer_cursor = -1

    def layer_forward(self, state: TransformerState, layer: int) -> np.ndarray:
        if state.hidden is None:
            raise RuntimeError("begin_step must be called before layer_forward")
        if layer != state.layer_cursor + 1:
            raise ValueError(
                f"layers must run in order: expected {state.layer_cursor + 1}, got {layer}"
            )
        position = np.asarray([len(state.context) - 1])
        state.hidden = self.lm.layer_decode_batch(state.hidden, layer, [state.cache], position)
        state.layer_cursor = layer
        return state.hidden[0]

    def lm_head_full(self, hidden: np.ndarray) -> np.ndarray:
        return self.lm.lm_head(hidden)

    def lm_head_slice(self, hidden: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
        return self.lm.lm_head_slice(hidden, token_ids)

    def commit(self, state: TransformerState, token: int, exit_layer: int) -> None:
        if state.hidden is None:
            raise RuntimeError("commit without begin_step")
        # Fill KV for skipped layers so the cache stays rectangular: one fused
        # K/V projection of the exit hidden in "propagate" mode, full
        # remaining layers in "full" mode.
        position = np.asarray([len(state.context) - 1])
        first = state.layer_cursor + 1
        if self.kv_fill == "propagate":
            if first < self.n_layers:
                self.lm.kv_fill(state.hidden, [first], [state.cache], position)
        else:
            hidden = state.hidden
            for layer in range(first, self.n_layers):
                hidden = self.lm.layer_decode_batch(hidden, layer, [state.cache], position)
        state.context.append(int(token))
        state.exit_layers.append(int(exit_layer))
        state.step_index += 1
        state.hidden = None
        state.layer_cursor = -1

    # -- batched decode ------------------------------------------------------
    def begin_step_batch(self, states: Sequence[TransformerState]) -> np.ndarray:
        """Embed every sequence's last token with one table gather."""
        last = [state.context[-1] for state in states]
        batch = self.lm.embed(np.asarray(last, dtype=np.int64))  # [B, dim]
        for i, state in enumerate(states):
            state.hidden = batch[i : i + 1]
            state.layer_cursor = -1
        return batch

    def layer_forward_batch(
        self,
        states: Sequence[TransformerState],
        layer: int,
        hidden: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One batched layer over the live sequences (stacked QKV GEMM,
        per-sequence ragged KV gather)."""
        for state in states:
            if state.hidden is None:
                raise RuntimeError("begin_step_batch must precede layer_forward_batch")
            if layer != state.layer_cursor + 1:
                raise ValueError(
                    f"layers must run in order: expected {state.layer_cursor + 1}, "
                    f"got {layer}")
        if hidden is None:
            hidden = np.vstack([state.hidden for state in states])
        positions = np.asarray([len(state.context) - 1 for state in states])
        caches = [state.cache for state in states]
        new = self.lm.layer_decode_batch(hidden, layer, caches, positions)
        for i, state in enumerate(states):
            state.hidden = new[i : i + 1]
            state.layer_cursor = layer
        return new

    def lm_head_full_batch(self, hidden: np.ndarray) -> np.ndarray:
        """Final norm + LM-head projection of the whole ``[B, dim]`` batch."""
        return self.lm.lm_head(hidden)

    def lm_head_slice_batch(self, hidden: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
        """Speculative LM head for the whole batch, each row against its own
        candidates: the final norm broadcasts over rows and one gather of
        ``lm_head_rows`` gives every row its ``[k, dim]`` block."""
        rows = self.lm.lm_head_rows[token_ids]  # [B, k, dim]
        normed = self.lm.final_norm.forward_np(hidden)
        return (rows @ normed[:, :, None])[:, :, 0]

    def commit_batch(
        self,
        states: Sequence[TransformerState],
        tokens: Sequence[int],
        exit_layers: Sequence[int],
    ) -> None:
        """Commit one token per sequence with batched KV propagation.

        Sequences exited at different depths.  ``"propagate"`` fills every
        early exiter's skipped layers from its exit hidden in one fused
        :meth:`TinyTransformerLM.kv_fill`; ``"full"`` runs the remaining
        layers over the subset of sequences whose cursor is still above each
        depth — the batch grows as the depth passes each exit layer,
        mirroring how it shrank on the way down.
        """
        for state in states:
            if state.hidden is None:
                raise RuntimeError("commit_batch without begin_step_batch")
        cursors = [state.layer_cursor for state in states]
        early = [i for i, cursor in enumerate(cursors) if cursor + 1 < self.n_layers]
        if early:
            hidden = np.vstack([states[i].hidden for i in early])
            positions = np.asarray([len(states[i].context) - 1 for i in early])
            caches = [states[i].cache for i in early]
            firsts = [cursors[i] + 1 for i in early]
            if self.kv_fill == "propagate":
                self.lm.kv_fill(hidden, firsts, caches, positions)
            else:
                for layer in range(min(firsts), self.n_layers):
                    idx = [j for j, first in enumerate(firsts) if first <= layer]
                    hidden[idx] = self.lm.layer_decode_batch(
                        hidden[idx], layer, [caches[j] for j in idx], positions[idx])
        for state, token, exit_layer in zip(states, tokens, exit_layers):
            state.context.append(int(token))
            state.exit_layers.append(int(exit_layer))
            state.step_index += 1
            state.hidden = None
            state.layer_cursor = -1

    # -- preemption (serving) ------------------------------------------------
    def swap_out_state(self, state: TransformerState) -> None:
        """Move the real KV tensors to a host blob, bit for bit."""
        state.host_kv = state.cache.swap_out()

    def swap_in_state(self, state: TransformerState) -> None:
        """Restore the tensors evicted by :meth:`swap_out_state` bit-exactly."""
        if state.host_kv is None:
            raise RuntimeError("swap_in_state without a prior swap_out_state")
        state.cache.swap_in(state.host_kv)
        state.host_kv = None

    def drop_state_kv(self, state: TransformerState) -> None:
        """Free the device KV entirely; :meth:`recompute_state` rebuilds it."""
        state.cache = self.lm.new_cache(self.max_tokens)
        state.host_kv = None

    def recompute_state(self, state: TransformerState) -> None:
        """Rebuild dropped KV by deterministic replay.

        In ``"full"`` fill mode every commit ran all layers for the step's
        input token, so the cache content never depends on where the sequence
        exited: entry ``j < prompt_len`` is prompt token ``j`` at position
        ``j``, and each decode step appended its input token — the previous
        context tail — at its decode position.  One prefill-shaped pass over
        that token stream reproduces the cache.

        In ``"propagate"`` mode skipped layers hold K/V synthesised from the
        exit hidden, so the replay walks the recorded ``exit_layers`` step by
        step: run layers up to each step's exit depth, then re-synthesise the
        skipped layers' K/V from the same exit hidden — exactly what the
        original commits did.  Either way, resumed decode matches an
        uninterrupted run token for token.
        """
        p, n = state.prompt_len, len(state.context)
        state.cache = self.lm.new_cache(self.max_tokens)
        state.host_kv = None
        if self.kv_fill != "propagate" or n == p:
            tokens = state.context[:p] + state.context[p - 1 : n - 1]
            positions = list(range(p)) + list(range(p - 1, n - 1))
            self.lm.forward_all(np.asarray(tokens, dtype=np.int64), state.cache,
                                np.asarray(positions, dtype=np.int64))
            return
        if len(state.exit_layers) != n - p:
            raise RuntimeError(
                f"cannot replay propagate-mode KV: {len(state.exit_layers)} "
                f"recorded exits for {n - p} generated tokens")
        self.lm.forward_all(np.asarray(state.context[:p], dtype=np.int64),
                            state.cache, np.arange(p))
        for i, exit_layer in enumerate(state.exit_layers):
            position = np.asarray([p - 1 + i])
            hidden = self.lm.embed(np.asarray([state.context[p - 1 + i]]))
            for layer in range(int(exit_layer) + 1):
                hidden = self.lm.layer_decode_batch(hidden, layer, [state.cache], position)
            if exit_layer + 1 < self.n_layers:
                self.lm.kv_fill(hidden, [int(exit_layer) + 1], [state.cache], position)
