"""Tests for the verification algorithm and result containers."""

import math

import numpy as np
import pytest

from repro.config import SimDims
from repro.core.engine import GenerationResult, StepRecord
from repro.core.spec_engine import IterationRecord, SpecDecodeResult
from repro.core.verification import verify_exit, verify_exits
from repro.hardware.ledger import CostLedger
from repro.model.profiles import get_profile
from repro.model.synthetic import SyntheticLayeredLM


@pytest.fixture(scope="module")
def lm():
    return SyntheticLayeredLM(get_profile("llama2-7b"), SimDims(), seed=13)


class TestVerifyExit:
    def test_accepts_argmax_in_set(self, lm):
        state = lm.start([2, 2, 2])
        lm.begin_step(state)
        target = state.plan.target
        hidden = lm.run_to_layer(state, lm.n_layers - 1)  # fully saturated
        verdict = verify_exit(lm, hidden, [target, 5, 6, 7])
        assert verdict.ok and verdict.token == target

    def test_rejects_argmax_outside_set(self, lm):
        state = lm.start([3, 3, 3])
        lm.begin_step(state)
        target = state.plan.target
        hidden = lm.run_to_layer(state, lm.n_layers - 1)
        candidates = [t for t in (5, 6, 7, 8) if t != target]
        verdict = verify_exit(lm, hidden, candidates)
        assert not verdict.ok
        assert verdict.token == target  # it still reports the global argmax

    def test_pre_saturation_argmax_is_dominant(self, lm):
        state = lm.start([4, 4, 4])
        lm.begin_step(state)
        plan = state.plan
        if plan.saturation_layer > 8 and plan.transient is None:
            hidden = lm.run_to_layer(state, 2)
            verdict = verify_exit(lm, hidden, [plan.target])
            assert not verdict.ok
            assert verdict.token == plan.dominant

    def test_batched_verify_equals_per_row(self, lm):
        """One full-head GEMM over the rows, each checked against its own
        candidates — including a load-shortened draft whose dropped tail
        holds the global argmax, which must not exit."""
        hidden = np.random.default_rng(5).standard_normal((12, lm.hidden_dim))
        argmax = np.argmax(lm.lm_head_full_batch(hidden), axis=-1)
        candidates, draft_lens = [], []
        for row, top in enumerate(int(t) for t in argmax):
            others = [t for t in range(4 * row, 4 * row + 5) if t != top]
            if row % 3 == 0:
                candidates.append([others[0], top, others[1], others[2]])
            elif row % 3 == 1:
                candidates.append(others[:4])
            else:  # the draft [.., .., top, ..] shortened to its first two
                candidates.append([others[0], others[1], top, others[2]])
            draft_lens.append(2 if row % 3 == 2 else 4)
        cand = np.asarray(candidates)
        pad = np.arange(4) >= np.asarray(draft_lens)[:, None]
        ok, tokens = verify_exits(lm, hidden, cand, pad)
        assert [(bool(o), int(t)) for o, t in zip(ok, tokens)] == [
            tuple(verify_exit(lm, h, c[:d]))
            for h, c, d in zip(hidden, candidates, draft_lens)]
        assert ok.tolist() == [row % 3 == 0 for row in range(12)]
        assert tokens.tolist() == argmax.tolist()
        assert verify_exits(lm, hidden[:1], cand[:1], pad[:1])[0][0]


def record(exit_layer, early=True, evals=3):
    return StepRecord(token=1, exit_layer=exit_layer, early_exit=early,
                      predictor_evals=evals, verify_attempts=1,
                      active_predictors=10.0, draft_hit=True)


class TestGenerationResult:
    def test_avg_exit_layer_one_based(self):
        result = GenerationResult(exit_layers=[9, 19],
                                  records=[record(9), record(19)])
        assert result.avg_exit_layer == pytest.approx(15.0)

    def test_empty_result_nans(self):
        result = GenerationResult()
        assert math.isnan(result.avg_exit_layer)
        assert math.isnan(result.early_exit_rate)
        assert math.isnan(result.perplexity)

    def test_perplexity_from_logprobs(self):
        result = GenerationResult(logprobs=[-1.0, -3.0])
        assert result.perplexity == pytest.approx(np.exp(2.0))

    def test_early_exit_rate(self):
        result = GenerationResult(records=[record(5, True), record(31, False)])
        assert result.early_exit_rate == pytest.approx(0.5)


class TestSpecDecodeResult:
    def test_tokens_per_iteration(self):
        result = SpecDecodeResult(iterations=[
            IterationRecord(10, 2, 3, 20, True, 5),
            IterationRecord(10, 0, 1, 31, False, 2),
        ])
        assert result.tokens_per_iteration == pytest.approx(2.0)
        assert result.avg_exit_layer == pytest.approx(26.5)  # mean(21, 32), 1-based

    def test_empty_nan(self):
        assert math.isnan(SpecDecodeResult().tokens_per_iteration)
