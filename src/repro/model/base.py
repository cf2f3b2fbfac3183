"""The layer-resolved language-model interface every engine drives.

SpecEE (and the baselines it is compared against) interact with the target
LLM only through this narrow surface:

* start a generation from a prompt,
* advance the current token's hidden state one decoder layer at a time,
* project a hidden state through the LM head — either over the full
  vocabulary or over a handful of columns (the *speculative LM head* of
  paper Sec. 4.3.1),
* commit a chosen token (possibly decided before the final layer).

Because early exit is about *not running* the remaining layers, the interface
is deliberately incremental: ``layer_forward`` must be called for layer ``l``
before ``l + 1``, and committing mid-depth is legal.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["LMState", "LayeredLM"]


@dataclass
class LMState:
    """Mutable per-generation state shared by all backends.

    ``context`` holds prompt plus committed tokens; ``layer_cursor`` tracks
    how deep the current token's forward pass has progressed (``-1`` before
    the first layer).  Backends attach their own fields via subclassing.
    """

    context: List[int]
    prompt_len: int
    step_index: int = 0
    layer_cursor: int = -1
    script: Optional[List[int]] = None
    exit_layers: List[int] = field(default_factory=list)

    @property
    def generated(self) -> List[int]:
        return self.context[self.prompt_len :]


class LayeredLM(abc.ABC):
    """Abstract layer-resolved LM (see module docstring).

    Besides the scalar per-sequence interface, the class defines a *batched
    decode* surface (``begin_step_batch`` / ``layer_forward_batch`` /
    ``lm_head_full_batch`` / ``lm_head_slice_batch`` / ``commit_batch``,
    driven by ``SpecEEEngine.step_batch``) that advances many sequences one
    layer at a time, so per-sequence early exits shrink the batch mid-stack.
    Every backend serves through it: the defaults here loop the scalar
    methods, and backends with real ``[B, dim]`` math override them (see
    :class:`~repro.model.transformer_backend.TransformerLayeredLM`).
    """

    #: Context limit: the most tokens (prompt plus generated) one sequence may
    #: hold, or ``None`` when the backend has no such limit.  Serving rejects
    #: requests over it at arrival.
    max_tokens: Optional[int] = None

    # -- static shape ------------------------------------------------------
    @property
    @abc.abstractmethod
    def n_layers(self) -> int:
        """Number of decoder layers."""

    @property
    @abc.abstractmethod
    def hidden_dim(self) -> int:
        """Simulation hidden width."""

    @property
    @abc.abstractmethod
    def vocab_size(self) -> int:
        """Simulation vocabulary size."""

    # -- generation --------------------------------------------------------
    @abc.abstractmethod
    def start(self, prompt: Sequence[int], script: Optional[Sequence[int]] = None) -> LMState:
        """Begin a generation; ``script`` optionally pins the model's intended
        outputs for the first ``len(script)`` steps (used by dataset items to
        plant calibrated answers — see DESIGN.md)."""

    def start_batch(
        self,
        prompts: Sequence[Sequence[int]],
        scripts: Optional[Sequence[Optional[Sequence[int]]]] = None,
    ) -> List[LMState]:
        """Begin one generation per prompt (``scripts[i]`` as in
        :meth:`start`).  Backends with real prefill math override this to
        share it across the prompts; the default loops :meth:`start`."""
        if scripts is None:
            scripts = [None] * len(prompts)
        return [self.start(p, script=s) for p, s in zip(prompts, scripts)]

    @abc.abstractmethod
    def begin_step(self, state: LMState) -> None:
        """Prepare internal state for generating the next token."""

    @abc.abstractmethod
    def layer_forward(self, state: LMState, layer: int) -> np.ndarray:
        """Run decoder layer ``layer`` for the current token; returns the
        hidden state after that layer.  Must be called in depth order."""

    @abc.abstractmethod
    def lm_head_full(self, hidden: np.ndarray) -> np.ndarray:
        """Full-vocabulary logits for ``hidden`` (the expensive projection)."""

    @abc.abstractmethod
    def lm_head_slice(self, hidden: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
        """Logits restricted to ``token_ids`` — the speculative LM head."""

    @abc.abstractmethod
    def commit(self, state: LMState, token: int, exit_layer: int) -> None:
        """Accept ``token`` as the step's output, generated at ``exit_layer``."""

    # -- batched decode ------------------------------------------------------
    def begin_step_batch(self, states: Sequence[LMState]) -> np.ndarray:
        """Prepare every state for its next token; returns the ``[B, hidden]``
        batch of current activations (zeros here: a scalar backend holds no
        activation before layer 0)."""
        for state in states:
            self.begin_step(state)
        return np.zeros((len(states), self.hidden_dim))

    def layer_forward_batch(
        self,
        states: Sequence[LMState],
        layer: int,
        hidden: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run decoder layer ``layer`` for every state; returns ``[B, hidden]``.

        ``hidden`` is the batch returned by the previous call.  Callers
        shrink ``states`` between layers as sequences exit early — that is
        the SpecEE layer-skip shape, and it shrinks the GEMMs accordingly.
        """
        return np.stack([self.layer_forward(state, layer) for state in states])

    def lm_head_full_batch(self, hidden: np.ndarray) -> np.ndarray:
        """Full-vocabulary logits for a ``[B, hidden]`` batch."""
        return np.stack([self.lm_head_full(h) for h in hidden])

    def lm_head_slice_batch(self, hidden: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
        """Sliced logits ``[B, k]`` for a ``[B, hidden]`` batch, row ``i``
        over its own candidates ``token_ids[i]`` (``[B, k]``) — the batched
        speculative LM head."""
        return np.stack([self.lm_head_slice(h, ids) for h, ids in zip(hidden, token_ids)])

    def commit_batch(
        self,
        states: Sequence[LMState],
        tokens: Sequence[int],
        exit_layers: Sequence[int],
    ) -> None:
        """Accept one token per state (each possibly decided mid-depth)."""
        for state, token, exit_layer in zip(states, tokens, exit_layers):
            self.commit(state, token, exit_layer)

    # -- preemption (serving) ------------------------------------------------
    # The async serving engine evicts sequences under KV pressure.  Modelled
    # costs (KV_SWAP traffic, recompute prefill) are charged by the engine;
    # these hooks keep any *real* per-state tensors consistent with that
    # story.  Stateless backends (the synthetic LM recomputes activations
    # from plans) need no action, so the defaults are no-ops.
    def swap_out_state(self, state: LMState) -> None:
        """Evict ``state``'s device KV to host memory (swap preemption).

        Backends with real KV tensors must move them bit-exactly to a
        host-side blob so :meth:`swap_in_state` can restore them."""

    def swap_in_state(self, state: LMState) -> None:
        """Restore KV previously evicted by :meth:`swap_out_state`."""

    def drop_state_kv(self, state: LMState) -> None:
        """Discard ``state``'s device KV outright (recompute preemption)."""

    def recompute_state(self, state: LMState) -> None:
        """Rebuild KV dropped by :meth:`drop_state_kv` by deterministically
        replaying ``state``'s context at full depth.  Must leave the state
        indistinguishable from one that was never preempted."""

    # -- conveniences --------------------------------------------------------
    def run_to_layer(self, state: LMState, layer: int) -> np.ndarray:
        """Advance from the current cursor through ``layer`` inclusive."""
        hidden: Optional[np.ndarray] = None
        for l in range(state.layer_cursor + 1, layer + 1):
            hidden = self.layer_forward(state, l)
        if hidden is None:
            raise ValueError(f"cursor already past layer {layer}")
        return hidden

    def greedy_token(self, hidden: np.ndarray) -> int:
        """Argmax over the full LM head."""
        return int(np.argmax(self.lm_head_full(hidden)))

    def generate_dense(self, state: LMState, n_tokens: int) -> List[int]:
        """Reference full-depth greedy decode (used by tests and baselines)."""
        out = []
        for _ in range(n_tokens):
            self.begin_step(state)
            hidden = self.run_to_layer(state, self.n_layers - 1)
            token = self.greedy_token(hidden)
            self.commit(state, token, self.n_layers - 1)
            out.append(token)
        return out
