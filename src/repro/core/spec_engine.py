"""SpecEE under speculative decoding (T3, paper Sec. 6).

Combines tree-based speculative decoding with early exiting: the draft model
grows a token tree, the verification forward runs layer by layer, and at
predictor-active layers every root-to-leaf path — merged into a hyper-token
(:mod:`repro.mapping.hyper_token`) — is tested for exit.  Per-node candidate
logits come from one block-wise grouped GEMM per layer (Fig. 13).  When the
accepted path is covered by a fired hyper-token, the remaining layers are
skipped for the *whole tree*, and the verify forward emits
``accepted + 1`` tokens at a fraction of the depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.config import SpecEEConfig
from repro.core.features import FeatureExtractor
from repro.core.predictor import PredictorBank
from repro.core.scheduling import Scheduler, make_scheduler
from repro.hardware.ledger import CostLedger, Event
from repro.mapping.grouped_gemm import tree_children_logits
from repro.mapping.hyper_token import HyperToken, aggregate_path_logits, merged_mapping
from repro.mapping.tree import AcceptResult, greedy_accept
from repro.model.draft import DraftTree, TreeDrafter
from repro.model.synthetic import SyntheticLayeredLM, SyntheticState

__all__ = ["IterationRecord", "SpecDecodeResult", "SpecEESpeculativeEngine"]


@dataclass
class IterationRecord:
    """Diagnostics for one verify iteration."""

    tree_size: int
    accepted: int
    tokens_emitted: int
    exit_layer: int
    early_exit: bool
    predictor_evals: int


@dataclass
class SpecDecodeResult:
    """Tokens plus per-iteration diagnostics and the cost ledger."""

    tokens: List[int] = field(default_factory=list)
    iterations: List[IterationRecord] = field(default_factory=list)
    ledger: CostLedger = field(default_factory=CostLedger)

    @property
    def tokens_per_iteration(self) -> float:
        if not self.iterations:
            return float("nan")
        return float(np.mean([r.tokens_emitted for r in self.iterations]))

    @property
    def avg_exit_layer(self) -> float:
        if not self.iterations:
            return float("nan")
        return float(np.mean([r.exit_layer + 1 for r in self.iterations]))


class SpecEESpeculativeEngine:
    """Tree-based speculative decoding with hyper-token early exiting."""

    def __init__(
        self,
        model: SyntheticLayeredLM,
        drafter: TreeDrafter,
        predictors: Optional[PredictorBank],
        config: Optional[SpecEEConfig] = None,
        scheduler: Optional[Scheduler] = None,
        early_exit: bool = True,
    ):
        """``early_exit=False`` verifies every tree at full depth and never
        consults ``predictors`` (which may then be ``None``) — the EAGLE
        baseline."""
        self.model = model
        self.drafter = drafter
        self.predictors = predictors
        self.config = config or SpecEEConfig()
        # Hyper-token exits land at the max over a path's saturation layers,
        # systematically deeper than the autoregressive exit peak, so offline
        # placements profiled in AR mode undershoot.  The online scheduler
        # (full coverage until the first exit warms its queue, then vicinity
        # tracking) adapts to the tree statistics by construction.
        self.scheduler = scheduler or make_scheduler(
            "online", model.n_layers,
            window=self.config.context_window, vicinity=self.config.layer_vicinity,
        )
        self.early_exit = early_exit

    # -- public API ------------------------------------------------------------
    def generate(self, prompt: Sequence[int], max_new_tokens: int) -> SpecDecodeResult:
        state = self.model.start(prompt)
        result = SpecDecodeResult()
        result.ledger.prompt_tokens = len(state.context)
        result.ledger.add(Event.PREFILL_LAYER, calls=self.model.n_layers,
                          units=self.model.n_layers * len(state.context))
        self.scheduler.reset()
        while len(result.tokens) < max_new_tokens:
            self._iterate(state, result)
        del result.tokens[max_new_tokens:]
        return result

    # -- one verify iteration ----------------------------------------------------
    def _iterate(self, state: SyntheticState, result: SpecDecodeResult) -> None:
        model, cfg, ledger = self.model, self.config, result.ledger
        tree = self.drafter.build(state.context)
        ledger.add(Event.DRAFT_STEP, calls=self.drafter.depth)
        model.begin_tree(state, tree.tokens, tree.parents)

        hypers = merged_mapping(tree)
        children_tokens = [
            [tree.tokens[c] for c in tree.children_of(i)] for i in range(len(tree))
        ]
        root_children = [tree.tokens[i] for i, p in enumerate(tree.parents) if p < 0]
        head = self._head_matrix()
        m = len(tree)
        n_layers = model.n_layers
        last_probs = np.zeros((len(hypers), cfg.num_speculative))
        has_last = np.zeros(len(hypers), dtype=bool)
        predictor_evals = 0
        accept: Optional[AcceptResult] = None
        exit_layer = n_layers - 1
        tried_fired_sets: set = set()

        hidden = None
        root_hidden = None
        for layer in range(n_layers):
            hidden = model.tree_layer_forward(state, layer)
            root_hidden = model.root_hidden(state, layer)
            ledger.add(Event.TREE_VERIFY_LAYER, units=m + 1)
            if not self.early_exit:
                continue
            if layer >= n_layers - 1 or layer < cfg.min_exit_layer:
                continue
            if not self.scheduler.is_active(layer):
                continue

            stacked = np.vstack([hidden, root_hidden[None, :]])
            per_node = tree_children_logits(
                stacked, head, children_tokens + [root_children]
            )
            ledger.add(Event.TREE_FEATURE_GEMM, units=m + 1)
            root_logits = per_node[-1]
            aggs = np.stack([aggregate_path_logits(per_node[:-1], hyper, cfg.num_speculative,
                                                   include_root=root_logits)
                             for hyper in hypers])
            features, last_probs = FeatureExtractor.extract_rows(aggs, last_probs, has_last)
            has_last[:] = True
            predictor_evals += len(hypers)
            # All hyper-tokens share one batched predictor launch (the
            # merged mapping makes the per-layer predictor cost independent
            # of tree width).
            scores = self.predictors.probability_batch(layer, features)
            fired = [hyper for hyper, score in zip(hypers, scores)
                     if score >= cfg.exit_threshold]
            ledger.add(Event.PREDICTOR)
            if not fired:
                continue

            # Cheap local screen before the expensive global verification:
            # the argmax-child walk (computable from the grouped-GEMM logits
            # already in hand) must coincide with a fired hyper-token,
            # otherwise the acceptance cannot be covered and the full
            # LM-head pass would be wasted.
            walk = self._argmax_walk(tree, per_node, root_logits)
            if not any(tuple(walk) == hyper.nodes for hyper in fired):
                continue
            # Re-verify only when the predictor/walk state actually changed;
            # repeating an identical failed attempt at the next layer would
            # give the same answer.
            attempt_key = (tuple(walk), tuple(sorted(h.nodes for h in fired)))
            if attempt_key in tried_fired_sets:
                continue
            tried_fired_sets.add(attempt_key)
            candidate = self._verify(state, tree, hidden, root_hidden, ledger)
            if self._covered(candidate, fired):
                accept = candidate
                exit_layer = layer
                break

        if accept is None:
            accept = self._verify(state, tree, hidden, root_hidden, ledger)
            exit_layer = n_layers - 1

        early = exit_layer < n_layers - 1
        model.end_tree(state, accept.tokens, exit_layer)
        if early:
            self.scheduler.observe_exit(exit_layer)
        emitted = len(accept.tokens)
        ledger.tokens_generated += emitted
        ledger.steps += 1
        if early:
            ledger.add(Event.KV_FILL, units=n_layers - 1 - exit_layer)
        result.tokens.extend(accept.tokens)
        result.iterations.append(IterationRecord(
            tree_size=m, accepted=len(accept.accepted_tokens), tokens_emitted=emitted,
            exit_layer=exit_layer, early_exit=early, predictor_evals=predictor_evals,
        ))

    # -- helpers ---------------------------------------------------------------
    @staticmethod
    def _argmax_walk(
        tree: DraftTree,
        per_node_logits: Sequence[np.ndarray],
        root_logits: np.ndarray,
    ) -> List[int]:
        """Follow the locally-preferred (argmax) child from the root down to
        a leaf; returns the node-index path."""
        walk: List[int] = []
        current_nodes = [i for i, p in enumerate(tree.parents) if p < 0]
        current_logits = np.asarray(root_logits)
        while current_nodes and current_logits.size:
            best = current_nodes[int(np.argmax(current_logits))]
            walk.append(best)
            current_nodes = tree.children_of(best)
            current_logits = np.asarray(per_node_logits[best])
        return walk

    def _head_matrix(self) -> np.ndarray:
        """Full LM-head weight ``[d, V]`` for the grouped GEMM."""
        model = self.model
        return (model.profile.gain * model._emb).T

    def _verify(
        self,
        state: SyntheticState,
        tree: DraftTree,
        hidden: np.ndarray,
        root_hidden: np.ndarray,
        ledger: CostLedger,
    ) -> AcceptResult:
        """Full-vocabulary argmax at every node + root, then greedy accept."""
        ledger.add(Event.LM_HEAD_FULL, calls=len(tree) + 1)
        node_outputs = [
            int(np.argmax(self.model.lm_head_full(hidden[i]))) for i in range(len(tree))
        ]
        root_output = int(np.argmax(self.model.lm_head_full(root_hidden)))
        return greedy_accept(tree, root_output, node_outputs)

    @staticmethod
    def _covered(accept: AcceptResult, fired: Sequence[HyperToken]) -> bool:
        """Is the accepted path a prefix of any fired hyper-token?

        An empty acceptance means the root's argmax is not among the draft's
        level-1 candidates — the tree-mode analogue of a failed verification
        — so the iteration must run to full depth (mirroring Sec. 4.3.3).
        """
        accepted = tuple(accept.accepted_nodes)
        if not accepted:
            return False
        return any(hyper.nodes[: len(accepted)] == accepted for hyper in fired)
