"""EAGLE baseline (Li et al., 2024): tree speculative decoding, no early exit.

Each iteration drafts a token tree, verifies it with one full-depth batched
forward of the target model, and emits the accepted path plus a bonus token.
That is SpecEE+EAGLE (:class:`~repro.core.spec_engine.SpecEESpeculativeEngine`)
with exiting switched off — the same drafting, verify forward and acceptance,
every layer always run — so EAGLE *is* that engine, not a second loop.
"""

from __future__ import annotations

from repro.core.spec_engine import SpecEESpeculativeEngine
from repro.model.draft import TreeDrafter
from repro.model.synthetic import SyntheticLayeredLM

__all__ = ["EagleEngine"]


class EagleEngine(SpecEESpeculativeEngine):
    """Tree-based speculative decoding at full depth."""

    def __init__(self, model: SyntheticLayeredLM, drafter: TreeDrafter):
        super().__init__(model, drafter, predictors=None, early_exit=False)
