"""Cost-event ledger.

Engines record every hardware-relevant operation they execute — decoder
layers, LM-head projections (full and sliced), predictor forwards, draft
steps, tree verifications, retrievals — as named events with a call count
and a unit count (units capture size-dependence, e.g. tokens in a batched
tree-verify layer or columns in a sliced LM head).  The latency/energy models
price ledgers; experiments diff them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, Mapping

__all__ = ["Event", "CostLedger"]


# Canonical event kinds (string constants keep ledgers serialisable).
class Event:
    """Namespace of event-kind constants."""

    PREFILL_LAYER = "prefill_layer"          # units = prompt tokens
    DECODER_LAYER = "decoder_layer"          # one token through one layer
    BATCH_DECODER_LAYER = "batch_decoder_layer"  # units = batched decode tokens
    LM_HEAD_FULL = "lm_head_full"            # full-vocabulary projection
    LM_HEAD_SLICE = "lm_head_slice"          # units = columns (spec tokens)
    PREDICTOR = "predictor_forward"          # lightweight MLP forward
    SVM_PREDICT = "svm_predict"              # AdaInfer's classifier
    FEATURE_STATS = "feature_stats"          # AdaInfer full-vocab feature pass
    DRAFT_STEP = "draft_step"                # draft model autoregressive step
    TREE_VERIFY_LAYER = "tree_verify_layer"  # units = tree tokens in the batch
    TREE_FEATURE_GEMM = "tree_feature_gemm"  # grouped GEMM over tree (units = tokens)
    RETRIEVAL = "retrieval_lookup"           # RAEE database kNN
    KV_FILL = "kv_fill"                      # early-exit KV propagation (units = layers)
    KV_SWAP = "kv_swap"                      # paged-KV host transfer (units = tokens)
    PREFIX_REUSE = "prefix_reuse"            # shared-prefix adoption (units = tokens)
    ALLREDUCE = "allreduce"                  # TP collective (units = activation tokens)
    PIPELINE_BUBBLE = "pipeline_bubble"      # PP idle stage slots (units = slot tokens)
    ALL = (
        PREFILL_LAYER, DECODER_LAYER, BATCH_DECODER_LAYER, LM_HEAD_FULL,
        LM_HEAD_SLICE, PREDICTOR, SVM_PREDICT, FEATURE_STATS, DRAFT_STEP,
        TREE_VERIFY_LAYER, TREE_FEATURE_GEMM, RETRIEVAL, KV_FILL, KV_SWAP,
        PREFIX_REUSE, ALLREDUCE, PIPELINE_BUBBLE,
    )


@dataclass
class _Entry:
    calls: float = 0.0
    units: float = 0.0


@dataclass
class CostLedger:
    """Accumulator of cost events plus headline decode statistics."""

    _entries: Dict[str, _Entry] = field(default_factory=dict)
    tokens_generated: int = 0
    prompt_tokens: int = 0
    steps: int = 0  # host-loop iterations (== tokens for AR, < tokens for trees)

    def add(self, kind: str, calls: float = 1.0, units: float | None = None) -> None:
        entry = self._entries.get(kind)
        if entry is None:
            if kind not in Event.ALL:
                raise ValueError(f"unknown event kind {kind!r}")
            entry = self._entries[kind] = _Entry()
        entry.calls += calls
        entry.units += units if units is not None else calls

    def calls(self, kind: str) -> float:
        return self._entries.get(kind, _Entry()).calls

    def units(self, kind: str) -> float:
        return self._entries.get(kind, _Entry()).units

    def kinds(self) -> Iterator[str]:
        return iter(self._entries)

    def drop(self, kind: str) -> None:
        """Remove every recorded call of ``kind`` (used when a serving tick
        replaces per-sequence events with their batched equivalent)."""
        self._entries.pop(kind, None)

    # -- incremental accounting ------------------------------------------------
    def snapshot(self) -> Dict[str, tuple]:
        """Cheap point-in-time view for :meth:`delta_since`."""
        snap: Dict[str, tuple] = {
            kind: (entry.calls, entry.units) for kind, entry in self._entries.items()
        }
        snap["__counters__"] = (self.tokens_generated, self.prompt_tokens, self.steps)
        return snap

    def delta_since(self, snapshot: Dict[str, tuple]) -> "CostLedger":
        """Events accrued since ``snapshot`` (taken on this ledger) as a new
        ledger — how serving ticks attribute per-step costs to wall-clock."""
        out = CostLedger()
        for kind, entry in self._entries.items():
            calls0, units0 = snapshot.get(kind, (0.0, 0.0))
            calls, units = entry.calls - calls0, entry.units - units0
            if calls or units:
                out.add(kind, calls=calls, units=units)
        tokens0, prompt0, steps0 = snapshot.get("__counters__", (0, 0, 0))
        out.tokens_generated = self.tokens_generated - tokens0
        out.prompt_tokens = self.prompt_tokens - prompt0
        out.steps = self.steps - steps0
        return out

    # -- combinators ----------------------------------------------------------
    def merge(self, other: "CostLedger") -> "CostLedger":
        """Accumulate ``other`` into ``self`` (returns self for chaining)."""
        for kind, entry in other._entries.items():
            mine = self._entries.setdefault(kind, _Entry())
            mine.calls += entry.calls
            mine.units += entry.units
        self.tokens_generated += other.tokens_generated
        self.prompt_tokens += other.prompt_tokens
        self.steps += other.steps
        return self

    def copy(self) -> "CostLedger":
        out = CostLedger()
        out.merge(self)
        return out

    # -- derived statistics ------------------------------------------------------
    @property
    def decoder_layers_per_token(self) -> float:
        """Average executed decoder layers per generated token — the paper's
        '#Avg. L' column (Table 4).  Tree-verify and batched-decode layers
        count their batch once (one forward serves all batched tokens)."""
        if self.tokens_generated == 0:
            return float("nan")
        layers = (self.calls(Event.DECODER_LAYER) + self.calls(Event.TREE_VERIFY_LAYER)
                  + self.calls(Event.BATCH_DECODER_LAYER))
        return layers / self.tokens_generated

    def as_dict(self) -> Mapping[str, Dict[str, float]]:
        return {k: {"calls": e.calls, "units": e.units} for k, e in self._entries.items()}

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        inner = ", ".join(f"{k}={e.calls:.0f}" for k, e in sorted(self._entries.items()))
        return f"CostLedger(tokens={self.tokens_generated}, {inner})"
