"""Synthetic layered LM with planted probability shift.

This is the calibrated stand-in for Llama2 checkpoints (see DESIGN.md).  For
every generated token the model draws a *plan*:

* the target token (from the n-gram oracle or a dataset script),
* a saturation layer ``L*`` from the context-similar difficulty process,
* a dominant *off-speculative* distractor that holds the global argmax
  before ``L*``,
* secondary distractors (the oracle's plausible alternatives, which overlap
  the draft model's proposals and give the speculative-token features their
  signal),
* optionally a *transient spike*: for a few layers shortly before ``L*`` a
  plausible alternative — one the draft model likely proposed — briefly
  becomes the global argmax.  This is the only mechanism by which a verified
  early exit can emit a token that differs from the dense model's output,
  i.e. the source of SpecEE's sub-1% accuracy delta in Table 4.

The hidden state after layer ``l`` is a noisy, RMS-normalised mixture of the
planned tokens' embeddings whose coefficients follow logistic schedules
crossing at ``L*`` — reproducing the probability-shift curves of Fig. 5:
the target's probability rises sharply at ``L*`` while other tokens stay low.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SimDims
from repro.model.base import LayeredLM, LMState
from repro.model.difficulty import ExitLayerProcess
from repro.model.oracle import NGramOracle
from repro.model.profiles import SemanticProfile
from repro.utils.mathx import sigmoid
from repro.utils.rng import child_rng, hash_to_uint64

__all__ = ["StepPlan", "SyntheticState", "SyntheticLayeredLM", "TreeStep"]

# How many oracle alternatives are reserved for draft proposals; the dominant
# distractor is drawn outside this set so that, absent a transient spike, the
# pre-saturation argmax can never pass verification.
_ALT_POOL = 8


@dataclass
class StepPlan:
    """Planned dynamics of one generated token."""

    target: int
    saturation_layer: int
    dominant: int
    secondary: Tuple[int, ...]
    transient: Optional[Tuple[int, int, int]]  # (token, first_layer, last_layer)
    noise_key: int


class SyntheticState(LMState):
    """LMState plus the difficulty process and the current plan."""

    def __init__(
        self,
        context: List[int],
        prompt_len: int,
        process: ExitLayerProcess,
        script: Optional[List[int]] = None,
    ):
        super().__init__(context=context, prompt_len=prompt_len, script=script)
        self.process = process
        self.plan: Optional[StepPlan] = None
        self.hidden: Optional[np.ndarray] = None
        self.saturation_layers: List[int] = []  # model-internal L* per step
        self.tree: Optional["TreeStep"] = None


@dataclass
class TreeStep:
    """Per-node plans for a tree-verification forward (T3 support).

    ``tokens[i]`` is the draft token at node ``i``; ``parents[i]`` its parent
    node (-1 for children of the committed context).  ``plans[i]`` describes
    the model's *output* at node ``i`` — the token it would generate after
    consuming the path ending at node ``i``.
    """

    tokens: List[int]
    parents: List[int]
    plans: List[StepPlan]
    root_plan: StepPlan
    hidden: Optional[np.ndarray] = None
    layer_cursor: int = -1


class SyntheticLayeredLM(LayeredLM):
    """Layer-resolved synthetic LM (see module docstring)."""

    def __init__(
        self,
        profile: SemanticProfile,
        sim: SimDims | None = None,
        seed: int = 0,
    ):
        self.profile = profile
        self.sim = sim or SimDims()
        self.seed = seed
        d, v = self.sim.hidden_dim, self.sim.vocab_size
        rng = child_rng(seed, "embeddings", profile.name)
        self._emb = rng.normal(0.0, 1.0 / np.sqrt(d), size=(v, d))
        # Normalise rows to unit norm so planted coefficients map directly
        # onto logit magnitudes.
        self._emb /= np.linalg.norm(self._emb, axis=1, keepdims=True)
        self.oracle = NGramOracle(v, order=3, seed=hash_to_uint64(seed, "oracle") & 0x7FFFFFFF)
        self._exit_profile = profile.exit_profile()

    # -- static shape --------------------------------------------------------
    @property
    def n_layers(self) -> int:
        return self.profile.n_layers

    @property
    def hidden_dim(self) -> int:
        return self.sim.hidden_dim

    @property
    def vocab_size(self) -> int:
        return self.sim.vocab_size

    # -- generation ------------------------------------------------------------
    def start(self, prompt: Sequence[int], script: Optional[Sequence[int]] = None) -> SyntheticState:
        prompt = [int(t) % self.vocab_size for t in prompt]
        if not prompt:
            raise ValueError("prompt must contain at least one token")
        process = ExitLayerProcess(
            self._exit_profile,
            seed=hash_to_uint64(self.seed, "process", tuple(prompt)) & 0x7FFFFFFF,
            similarity=self.profile.similarity,
            window=self.profile.window,
            vicinity=self.profile.vicinity,
        )
        return SyntheticState(
            context=list(prompt),
            prompt_len=len(prompt),
            process=process,
            script=[int(t) % self.vocab_size for t in script] if script is not None else None,
        )

    def _plan_for_context(
        self, state: SyntheticState, context: Sequence[int], saturation: int,
        scripted: Optional[int] = None,
    ) -> StepPlan:
        """Build the dynamics plan for the model output after ``context``."""
        target = scripted if scripted is not None else self.oracle.target(context)
        alts = self.oracle.alternatives(context, _ALT_POOL)
        secondary = tuple(alts[1:4])
        transient = None
        window_ok = saturation - 2 > self.profile.min_layer
        if window_ok and self.oracle.uniform_hash(context, "transient") < self.profile.transient_rate:
            first = max(self.profile.min_layer, saturation - 4)
            last = max(first, saturation - 2)
            transient = (alts[0], first, last)
        dominant = self.oracle.offspec_distractor(context, exclude=list(alts) + [target])
        return StepPlan(
            target=int(target),
            saturation_layer=int(saturation),
            dominant=int(dominant),
            secondary=secondary,
            transient=transient,
            noise_key=hash_to_uint64(self.seed, "noise", tuple(context[-6:])) & 0x7FFFFFFF,
        )

    def begin_step(self, state: SyntheticState) -> None:
        scripted = None
        if state.script is not None and state.step_index < len(state.script):
            scripted = state.script[state.step_index]
        saturation = state.process.sample()
        state.plan = self._plan_for_context(state, state.context, saturation, scripted)
        state.saturation_layers.append(state.plan.saturation_layer)
        state.layer_cursor = -1
        state.hidden = None

    # -- hidden dynamics ------------------------------------------------------
    def _coefficients(self, plan: StepPlan, layer: int) -> List[Tuple[int, float]]:
        """(token, coefficient) pairs for the hidden mixture after ``layer``."""
        p = self.profile
        shift = sigmoid(p.shift_sharpness * (layer - plan.saturation_layer + 0.5))
        c_target = p.c_target_lo + (p.c_target_hi - p.c_target_lo) * shift
        c_dom = p.c_dom_hi - (p.c_dom_hi - p.c_dom_lo) * shift
        pairs: List[Tuple[int, float]] = [(plan.target, float(c_target))]
        in_transient = plan.transient is not None and (
            plan.transient[1] <= layer <= plan.transient[2]
        )
        if in_transient:
            assert plan.transient is not None
            pairs.append((plan.transient[0], p.transient_peak))
            pairs.append((plan.dominant, min(float(c_dom), p.transient_dom)))
        else:
            pairs.append((plan.dominant, float(c_dom)))
        for j, tok in enumerate(plan.secondary):
            # Small deterministic per-layer wiggle keeps the feature streams
            # informative rather than constant; the secondary_rise term makes
            # plausible alternatives consolidate after saturation too, so the
            # predictor has signal even on draft-miss steps.
            wiggle = 0.04 * np.sin(0.9 * layer + 1.7 * j)
            pairs.append((tok, p.c_secondary * (1.0 + wiggle) * (1.0 + p.secondary_rise * shift)))
        return pairs

    def _hidden_for(self, plan: StepPlan, layer: int) -> np.ndarray:
        d = self.hidden_dim
        h = np.zeros(d)
        for tok, coeff in self._coefficients(plan, layer):
            h += coeff * self._emb[tok]
        noise_rng = child_rng(plan.noise_key, "layer", layer)
        h += self.profile.noise * noise_rng.standard_normal(d)
        # RMS-normalise (unit-RMS output like a final RMSNorm).
        norm = np.linalg.norm(h) + 1e-12
        return h / norm

    def layer_forward(self, state: SyntheticState, layer: int) -> np.ndarray:
        if state.plan is None:
            raise RuntimeError("begin_step must be called before layer_forward")
        if layer != state.layer_cursor + 1:
            raise ValueError(
                f"layers must run in order: expected {state.layer_cursor + 1}, got {layer}"
            )
        if layer >= self.n_layers:
            raise ValueError(f"layer {layer} out of range (n_layers={self.n_layers})")
        state.hidden = self._hidden_for(state.plan, layer)
        state.layer_cursor = layer
        return state.hidden

    # -- LM head ---------------------------------------------------------------
    def lm_head_full(self, hidden: np.ndarray) -> np.ndarray:
        return self.profile.gain * (self._emb @ hidden)

    def lm_head_slice(self, hidden: np.ndarray, token_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(token_ids, dtype=np.int64)
        return self.profile.gain * (self._emb[ids] @ hidden)

    def lm_head_full_batch(self, hidden: np.ndarray) -> np.ndarray:
        """One ``[B, dim] x [dim, vocab]`` GEMM (what batched verification,
        :func:`~repro.core.verification.verify_exits`, asks of a backend)."""
        return self.profile.gain * (np.asarray(hidden) @ self._emb.T)

    def commit(self, state: SyntheticState, token: int, exit_layer: int) -> None:
        if state.plan is None:
            raise RuntimeError("commit without begin_step")
        state.context.append(int(token))
        state.exit_layers.append(int(exit_layer))
        state.step_index += 1
        state.plan = None
        state.hidden = None
        state.layer_cursor = -1

    # -- tree verification mode (T3) --------------------------------------------
    def begin_tree(self, state: SyntheticState, tokens: Sequence[int], parents: Sequence[int]) -> TreeStep:
        """Prepare a verification forward over a draft token tree.

        Saturation layers of tree nodes are anchored to their parent's value
        with the profile's similarity/vicinity — the within-path context
        similarity that makes hyper-token merging effective (Sec. 6.2).
        """
        if len(tokens) != len(parents):
            raise ValueError("tokens and parents must align")
        root_sat = state.process.sample()
        root_plan = self._plan_for_context(state, state.context, root_sat)
        plans: List[StepPlan] = []
        rng = child_rng(self.seed, "tree-sat", tuple(state.context[-4:]), state.step_index)
        sats: List[int] = []
        for i, (tok, par) in enumerate(zip(tokens, parents)):
            parent_sat = root_sat if par < 0 else sats[par]
            if rng.random() < self.profile.similarity:
                offset = int(rng.integers(-self.profile.vicinity, self.profile.vicinity + 1))
                sat = int(np.clip(parent_sat + offset, self.profile.min_layer, self.n_layers - 1))
            else:
                sat = int(rng.choice(self.n_layers, p=np.asarray(self._exit_profile.weights)))
            sats.append(sat)
            path = self._path_context(state, list(tokens), list(parents), i)
            plans.append(self._plan_for_context(state, path, sat))
        tree = TreeStep(tokens=list(map(int, tokens)), parents=list(map(int, parents)),
                        plans=plans, root_plan=root_plan)
        state.tree = tree
        return tree

    def _path_context(
        self, state: SyntheticState, tokens: List[int], parents: List[int], node: int
    ) -> List[int]:
        path: List[int] = []
        i = node
        while i >= 0:
            path.append(tokens[i])
            i = parents[i]
        return state.context + path[::-1]

    def tree_layer_forward(self, state: SyntheticState, layer: int) -> np.ndarray:
        """Hidden states for every tree node after ``layer`` — ``[m, d]``."""
        tree = state.tree
        if tree is None:
            raise RuntimeError("begin_tree must be called before tree_layer_forward")
        if layer != tree.layer_cursor + 1:
            raise ValueError(
                f"tree layers must run in order: expected {tree.layer_cursor + 1}, got {layer}"
            )
        hidden = np.stack([self._hidden_for(plan, layer) for plan in tree.plans])
        tree.hidden = hidden
        tree.layer_cursor = layer
        return hidden

    def root_hidden(self, state: SyntheticState, layer: int) -> np.ndarray:
        """Hidden state of the committed-context position at ``layer``."""
        if state.tree is None:
            raise RuntimeError("no active tree step")
        return self._hidden_for(state.tree.root_plan, layer)

    def end_tree(self, state: SyntheticState, accepted: Sequence[int], exit_layer: int) -> None:
        """Commit the accepted token sequence and clear the tree step."""
        for tok in accepted:
            state.context.append(int(tok))
            state.exit_layers.append(int(exit_layer))
            state.step_index += 1
        state.tree = None

    # -- introspection helpers (used by experiments/tests) --------------------
    def probability_trajectory(
        self, state: SyntheticState, tokens: Sequence[int]
    ) -> np.ndarray:
        """Softmax probability of ``tokens`` (within the full vocabulary) after
        each layer for the *current* step — the Fig. 5 curves."""
        if state.plan is None:
            raise RuntimeError("begin_step must be called first")
        from repro.utils.mathx import softmax

        probs = np.zeros((self.n_layers, len(tokens)))
        for layer in range(self.n_layers):
            h = self._hidden_for(state.plan, layer)
            full = softmax(self.lm_head_full(h))
            probs[layer] = full[np.asarray(tokens, dtype=np.int64)]
        return probs
