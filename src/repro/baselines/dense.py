"""Full-depth autoregressive baseline (the HuggingFace stand-in), and the
batch-1 token loop every layer-wise baseline shares.

Runs every decoder layer for every token and projects the full LM head once
per token.  All speedups in the paper's Figures 14-16 are relative to this
dataflow priced under the corresponding framework profile.  AdaInfer and
RAEE subclass :class:`DenseEngine` and replace only its exit rule,
:meth:`~DenseEngine._decide`.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.engine import GenerationResult, StepRecord, prefilled_result
from repro.hardware.ledger import CostLedger, Event
from repro.model.base import LayeredLM, LMState
from repro.utils.mathx import log_softmax

__all__ = ["DenseEngine", "dense_layer_logits"]


def dense_layer_logits(
    model: LayeredLM, prompts: Sequence[Sequence[int]], tokens_per_prompt: int
) -> Iterator[Tuple[LMState, List[np.ndarray]]]:
    """Greedy full-depth decode of every prompt that yields, per token, the
    state and the full-vocabulary logits after each layer (the harvest the
    trained baselines fit on), then commits the final layer's argmax."""
    for prompt in prompts:
        state = model.start(prompt)
        for _ in range(tokens_per_prompt):
            model.begin_step(state)
            logits = [model.lm_head_full(model.layer_forward(state, layer))
                      for layer in range(model.n_layers)]
            yield state, logits
            model.commit(state, int(np.argmax(logits[-1])), model.n_layers - 1)


class DenseEngine:
    """Greedy full-depth decoding with cost accounting."""

    #: Predictor layers a step reports as active (``StepRecord``).
    active_predictors = 0.0

    def __init__(self, model: LayeredLM):
        self.model = model

    def generate(
        self,
        prompt: Sequence[int],
        max_new_tokens: int,
        script: Optional[Sequence[int]] = None,
        force_tokens: Optional[Sequence[int]] = None,
    ) -> GenerationResult:
        """Greedy decode; ``force_tokens`` teacher-forces as
        :meth:`SpecEEEngine.generate <repro.core.engine.SpecEEEngine.generate>`
        does."""
        model = self.model
        state = model.start(prompt, script=script)
        result = prefilled_result(model, state)
        last = model.n_layers - 1
        if force_tokens is not None:
            max_new_tokens = len(force_tokens)
        for step in range(max_new_tokens):
            model.begin_step(state)
            token, exit_layer, hidden, evals = self._decide(state, result.ledger)
            if force_tokens is not None:
                token = int(force_tokens[step])
                result.logprobs.append(float(log_softmax(model.lm_head_full(hidden))[token]))
            model.commit(state, token, exit_layer)
            result.ledger.tokens_generated += 1
            result.ledger.steps += 1
            result.tokens.append(token)
            result.exit_layers.append(exit_layer)
            result.records.append(StepRecord(
                token=token, exit_layer=exit_layer, early_exit=exit_layer < last,
                predictor_evals=evals, verify_attempts=0,
                active_predictors=self.active_predictors, draft_hit=False))
        result.saturations = list(getattr(state, "saturation_layers", []))
        return result

    def _decide(self, state: LMState, ledger: CostLedger) -> Tuple[int, int, np.ndarray, int]:
        """Run the current token, charging what it costs; returns (token,
        exit layer, exit hidden state, predictor evaluations).  Never exits."""
        model = self.model
        hidden = model.run_to_layer(state, model.n_layers - 1)
        ledger.add(Event.DECODER_LAYER, calls=model.n_layers)
        ledger.add(Event.LM_HEAD_FULL)
        return int(np.argmax(model.lm_head_full(hidden))), model.n_layers - 1, hidden, 0
