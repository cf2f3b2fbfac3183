"""Integration tests for the SpecEE autoregressive engine (T1 + T2)."""

import numpy as np
import pytest

from repro.baselines import DenseEngine
from repro.config import SimDims, SpecEEConfig
from repro.core import (
    PredictorBank,
    SpecEEEngine,
    harvest_training_corpus,
    make_scheduler,
    train_predictor_bank,
)
from repro.core.scheduling import (OfflineScheduler, OnlineScheduler,
                                   profile_exit_frequencies)
from repro.hardware.ledger import Event
from repro.model.draft import Speculator
from repro.model.profiles import get_profile
from repro.model.synthetic import SyntheticLayeredLM


def build_stack(transient_rate=None, seed=42, hidden=64):
    profile = get_profile("llama2-7b")
    if transient_rate is not None:
        profile = profile.with_overrides(transient_rate=transient_rate)
    lm = SyntheticLayeredLM(profile, SimDims(), seed=seed)
    spec = Speculator(lm.oracle, k=4, hit_rate=profile.draft_hit_rate)
    prompts = [[i + 1, i + 3, (i * 7) % 500 + 1] for i in range(6)]
    corpus = harvest_training_corpus(lm, spec, prompts, tokens_per_prompt=30)
    bank = PredictorBank(lm.n_layers, feature_dim=12, hidden_dim=hidden, seed=0)
    train_predictor_bank(bank, corpus, epochs=10)
    fresh = SyntheticLayeredLM(profile, SimDims(), seed=seed)
    return profile, fresh, spec, bank


@pytest.fixture(scope="module")
def stack_no_transient():
    return build_stack(transient_rate=0.0)


@pytest.fixture(scope="module")
def stack_default():
    return build_stack()


class TestVerifiedConsistency:
    def test_specee_equals_dense_without_transients(self, stack_no_transient):
        """DESIGN.md invariant: with transient spikes disabled, verification
        makes SpecEE's output identical to the dense model's."""
        profile, lm, spec, bank = stack_no_transient
        engine = SpecEEEngine(lm, spec, bank, SpecEEConfig(),
                              scheduler=make_scheduler("all", lm.n_layers))
        result = engine.generate([9, 8, 7], 100)
        dense = DenseEngine(SyntheticLayeredLM(profile, SimDims(), seed=42))
        reference = dense.generate([9, 8, 7], 100)
        assert result.tokens == reference.tokens
        assert result.avg_exit_layer < lm.n_layers - 2  # and it exits early

    def test_two_level_also_consistent(self, stack_no_transient):
        profile, lm, spec, bank = stack_no_transient
        fresh = SyntheticLayeredLM(profile, SimDims(), seed=42)
        engine = SpecEEEngine(fresh, spec, bank, SpecEEConfig())
        result = engine.generate([9, 8, 7], 100)
        dense = DenseEngine(SyntheticLayeredLM(profile, SimDims(), seed=42))
        assert result.tokens == dense.generate([9, 8, 7], 100).tokens


class TestEngineBehaviour:
    def test_online_scheduler_drives_the_engine(self, stack_default):
        """A bare :class:`OnlineScheduler` is a full scheduler: the engine
        decodes with it and its vicinity set follows the observed exits."""
        profile, lm, spec, bank = stack_default
        scheduler = OnlineScheduler(lm.n_layers)
        engine = SpecEEEngine(SyntheticLayeredLM(profile, SimDims(), seed=3),
                              spec, bank, SpecEEConfig(), scheduler=scheduler)
        result = engine.generate([4, 5, 6], 40)
        assert len(result.tokens) == 40
        assert all(type(r.active_predictors) is float for r in result.records)
        # Cold start: no exit is queued, so no predictor runs on the first token.
        assert result.records[0].active_predictors == 0.0
        state, result = engine.prefill([4, 5, 6])
        scheduler.observe_exit(16)
        record = engine.step(state, result)
        assert record.active_predictors == 5.0
        assert 1 <= record.predictor_evals <= 5

    def test_exit_layers_respect_min(self, stack_default):
        profile, lm, spec, bank = stack_default
        cfg = SpecEEConfig(min_exit_layer=6)
        engine = SpecEEEngine(SyntheticLayeredLM(profile, SimDims(), seed=1),
                              spec, bank, cfg)
        result = engine.generate([1, 2, 3], 60)
        early = [e for e, r in zip(result.exit_layers, result.records) if r.early_exit]
        assert all(e >= 6 for e in early)

    def test_ledger_layer_accounting(self, stack_default):
        profile, lm, spec, bank = stack_default
        engine = SpecEEEngine(SyntheticLayeredLM(profile, SimDims(), seed=2),
                              spec, bank, SpecEEConfig())
        result = engine.generate([4, 4, 4], 50)
        expected_layers = sum(e + 1 for e in result.exit_layers)
        assert result.ledger.calls(Event.DECODER_LAYER) == expected_layers
        assert result.ledger.calls(Event.DRAFT_STEP) == 50
        assert result.ledger.tokens_generated == 50
        assert result.ledger.steps == 50

    def test_scheduling_reduces_predictor_evals(self, stack_default):
        profile, lm, spec, bank = stack_default
        all_engine = SpecEEEngine(SyntheticLayeredLM(profile, SimDims(), seed=3),
                                  spec, bank, SpecEEConfig(),
                                  scheduler=make_scheduler("all", lm.n_layers))
        res_all = all_engine.generate([5, 5, 5], 80)
        freqs = profile_exit_frequencies(res_all.exit_layers, lm.n_layers)
        two = SpecEEEngine(
            SyntheticLayeredLM(profile, SimDims(), seed=3), spec, bank, SpecEEConfig(),
            scheduler=make_scheduler("two_level", lm.n_layers,
                                     offline=OfflineScheduler(freqs), offline_top_k=4))
        res_two = two.generate([5, 5, 5], 80)
        evals_all = np.mean([r.predictor_evals for r in res_all.records])
        evals_two = np.mean([r.predictor_evals for r in res_two.records])
        assert evals_two < 0.7 * evals_all
        # ...at a small cost in exit timeliness.
        assert res_two.avg_exit_layer < res_all.avg_exit_layer + 3.0

    def test_early_exits_track_saturation(self, stack_default):
        profile, lm, spec, bank = stack_default
        engine = SpecEEEngine(SyntheticLayeredLM(profile, SimDims(), seed=4),
                              spec, bank, SpecEEConfig(),
                              scheduler=make_scheduler("all", lm.n_layers))
        result = engine.generate([6, 6, 6], 80)
        gaps = [e - s for e, s, r in zip(result.exit_layers, result.saturations,
                                         result.records) if r.early_exit]
        assert gaps and float(np.mean(gaps)) < 3.0
        assert all(g >= -5 for g in gaps)  # never exits far before saturation

    def test_teacher_forcing_records_logprobs(self, stack_default):
        profile, lm, spec, bank = stack_default
        engine = SpecEEEngine(SyntheticLayeredLM(profile, SimDims(), seed=5),
                              spec, bank, SpecEEConfig())
        refs = [7, 8, 9, 10]
        result = engine.generate([2, 2, 2], 99, force_tokens=refs)
        assert len(result.tokens) == len(refs)
        assert result.tokens == refs
        assert len(result.logprobs) == len(refs)
        assert all(lp <= 0 for lp in result.logprobs)
        assert result.perplexity >= 1.0

    def test_k_mismatch_rejected(self, stack_default):
        profile, lm, spec, bank = stack_default
        with pytest.raises(ValueError):
            SpecEEEngine(lm, spec, bank, SpecEEConfig(num_speculative=8))

    def test_unverified_mode_runs(self, stack_default):
        profile, lm, spec, bank = stack_default
        cfg = SpecEEConfig(verify_on_exit=False)
        engine = SpecEEEngine(SyntheticLayeredLM(profile, SimDims(), seed=6),
                              spec, bank, cfg)
        result = engine.generate([3, 2, 1], 40)
        assert len(result.tokens) == 40
        assert result.ledger.calls(Event.LM_HEAD_FULL) <= 40
