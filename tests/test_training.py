"""The repro.training package: LayerSkip recipe, weight export fidelity,
draft distillation, and the trained rig actually firing verified exits."""

import numpy as np
import pytest

from repro.config import SpecEEConfig
from repro.core.predictor_training import harvest_training_corpus
from repro.data.corpus import generate_corpus, generate_prompts
from repro.model.oracle import NGramOracle
from repro.nn.attention import INFERENCE_DTYPE
from repro.nn.autograd import no_grad
from repro.nn.transformer import (
    TinyTransformerLM,
    TrainableTransformerLM,
    TransformerConfig,
)
from repro.training import (
    DistilledNGramDraft,
    LayerSkipConfig,
    export_inference_lm,
    layer_agreement,
    train_layerskip,
)
from repro.training.layerskip import _curriculum_exits, _keep_mask

TINY_CFG = TransformerConfig(vocab_size=32, dim=16, n_layers=4, n_heads=2,
                             intermediate_dim=24, max_positions=64)


class TestLayerSkipConfig:
    def test_defaults_are_valid(self):
        cfg = LayerSkipConfig()
        assert cfg.curriculum == "rotational"

    @pytest.mark.parametrize("kwargs", [
        dict(steps=0),
        dict(batch_size=0),
        dict(max_layer_dropout=-0.1),
        dict(max_layer_dropout=1.0),
        dict(early_exit_scale=-1.0),
        dict(curriculum="linear"),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            LayerSkipConfig(**kwargs)


class TestCurriculum:
    CANDIDATES = [2, 3, 4, 5, 6]

    def test_all_supervises_every_candidate(self):
        cfg = LayerSkipConfig(curriculum="all", steps=10)
        for step in range(10):
            assert _curriculum_exits(step, cfg, self.CANDIDATES) == self.CANDIDATES

    def test_rotational_cycles_one_per_step(self):
        cfg = LayerSkipConfig(curriculum="rotational", steps=10)
        picked = [_curriculum_exits(s, cfg, self.CANDIDATES) for s in range(10)]
        assert all(len(p) == 1 for p in picked)
        assert [p[0] for p in picked[:5]] == self.CANDIDATES

    def test_gradual_phases_in_from_the_deepest(self):
        cfg = LayerSkipConfig(curriculum="gradual", steps=10)
        first = _curriculum_exits(0, cfg, self.CANDIDATES)
        last = _curriculum_exits(9, cfg, self.CANDIDATES)
        assert first == [6]
        assert last == self.CANDIDATES
        sizes = [len(_curriculum_exits(s, cfg, self.CANDIDATES))
                 for s in range(10)]
        assert sizes == sorted(sizes)


class TestKeepMask:
    def test_zero_dropout_keeps_everything(self):
        rng = np.random.default_rng(0)
        assert _keep_mask(rng, 8, 0.0) == [True] * 8

    def test_layer_zero_never_dropped_and_depth_increases_dropout(self):
        rng = np.random.default_rng(0)
        masks = np.array([_keep_mask(rng, 8, 0.5) for _ in range(400)])
        keep_rate = masks.mean(axis=0)
        assert keep_rate[0] == 1.0
        assert keep_rate[-1] == pytest.approx(0.5, abs=0.08)
        # Depth-increasing dropout => depth-decreasing keep rate, roughly.
        assert keep_rate[1] > keep_rate[-1]


class TestTrainLayerskip:
    def test_rejects_bad_corpus_and_min_exit_layer(self):
        model = TrainableTransformerLM(TINY_CFG, seed=0, rope=True)
        with pytest.raises(ValueError, match="corpus"):
            train_layerskip(model, np.zeros((4,), dtype=np.int64))
        with pytest.raises(ValueError, match="min_exit_layer"):
            train_layerskip(model, np.zeros((2, 8), dtype=np.int64),
                            LayerSkipConfig(min_exit_layer=TINY_CFG.n_layers))

    def test_short_run_learns_and_reports(self):
        model = TrainableTransformerLM(TINY_CFG, seed=0, rope=True)
        oracle = NGramOracle(TINY_CFG.vocab_size, seed=1)
        corpus = generate_corpus(oracle, 16, 17, seed=1)
        report = train_layerskip(
            model, corpus,
            LayerSkipConfig(steps=25, batch_size=8, curriculum="all", seed=0))
        assert len(report.losses) == 25
        assert report.final_loss < report.losses[0]
        assert len(report.agreement) == TINY_CFG.n_layers
        assert report.agreement[-1] == 1.0
        assert 0.0 <= report.accuracy <= 1.0

    def test_layer_agreement_final_entry_is_one(self):
        model = TrainableTransformerLM(TINY_CFG, seed=2, rope=True)
        tokens = np.arange(24, dtype=np.int64).reshape(2, 12) % TINY_CFG.vocab_size
        agreement = layer_agreement(model, tokens)
        assert len(agreement) == TINY_CFG.n_layers
        assert agreement[-1] == 1.0
        assert all(0.0 <= a <= 1.0 for a in agreement)


class TestExport:
    def test_rejects_learned_positions(self):
        model = TrainableTransformerLM(TINY_CFG, seed=0, rope=False)
        with pytest.raises(ValueError, match="rope"):
            export_inference_lm(model)

    def test_logit_fidelity(self):
        """Every exported weight is the trained float64 weight cast to the
        float32 inference dtype, bit for bit, and the exported logits match
        the float64 trainable forward to float32 precision — without this
        the trained exits would be meaningless."""
        model = TrainableTransformerLM(TINY_CFG, seed=4, rope=True)
        tokens = np.random.default_rng(5).integers(
            0, TINY_CFG.vocab_size, size=(3, 20))
        with no_grad():
            want = model(tokens).data
        lm = export_inference_lm(model)
        pairs = [(lm.embedding, model.token_emb), (lm.lm_head_weight, model.lm_head),
                 (lm.final_norm.weight.data, model.final_norm)]
        for src, dst in zip(model.layers, lm.layers):
            pairs += [(dst.attn.wq, src.wq), (dst.attn.wk, src.wk),
                      (dst.attn.wv, src.wv), (dst.attn.wo, src.wo),
                      (dst.attn_norm.weight.data, src.attn_norm),
                      (dst.ffn_norm.weight.data, src.ffn_norm)]
            pairs += [(getattr(dst.ffn, name).weight.data, getattr(src.ffn, name))
                      for name in ("gate", "up", "down")]
        for exported, trained in pairs:
            assert exported.dtype == INFERENCE_DTYPE
            assert np.array_equal(exported, trained.weight.data.astype(INFERENCE_DTYPE))
        for row, expected in zip(tokens, want):
            cache = lm.new_cache(len(row))
            hidden = lm.forward_all(row, cache, np.arange(len(row)))
            # float32 rounding scales with the logits, not with each entry:
            # a logit near zero is a difference of O(scale) terms.
            np.testing.assert_allclose(lm.lm_head(hidden), expected, rtol=1e-5,
                                       atol=1e-5 * np.abs(expected).max())

    def test_export_is_a_copy(self):
        model = TrainableTransformerLM(TINY_CFG, seed=4, rope=True)
        lm = export_inference_lm(model)
        lm.embedding[:] = 0.0
        assert np.abs(model.token_emb.weight.data).sum() > 0


    def test_export_refreshes_every_derived_layout(self):
        """The exporter builds a random stack and copies trained weights in;
        the fused KV fill and the speculative head must read the trained
        ones, cast to the inference dtype — and a re-export after more
        training, the newer ones."""
        model = TrainableTransformerLM(TINY_CFG, seed=4, rope=True)
        hidden = np.random.default_rng(0).standard_normal(
            (1, TINY_CFG.dim)).astype(INFERENCE_DTYPE)
        cast = lambda tensor: tensor.weight.data.astype(INFERENCE_DTYPE)

        def filled(lm):
            cache = lm.new_cache(2)
            lm.kv_fill(hidden, [0], [cache], np.asarray([0]))
            return np.stack([np.stack(cache.view(layer))
                             for layer in range(TINY_CFG.n_layers)])

        lm = export_inference_lm(model)
        for layer, block in enumerate(lm.layers):
            trained = model.layers[layer]
            assert np.array_equal(block.attn.wqkv[:, -2 * TINY_CFG.dim:],
                                  np.concatenate([cast(trained.wk), cast(trained.wv)], axis=1))
            assert np.shares_memory(block.attn.wqkv, lm._wqkv)
        assert lm._wqkv.dtype == lm.lm_head_rows.dtype == INFERENCE_DTYPE
        assert np.array_equal(lm.lm_head_rows, cast(model.lm_head).T)
        first = filled(lm)
        for layer in model.layers:
            layer.wk.weight.data = layer.wk.weight.data * 2.0
        again = filled(export_inference_lm(model))
        # Values are untouched; keys doubled (rotation is linear).
        assert np.allclose(again[:, 1], first[:, 1])
        assert np.allclose(again[:, 0], 2.0 * first[:, 0])


class TestDistilledNGramDraft:
    def test_ctor_validation(self):
        with pytest.raises(ValueError):
            DistilledNGramDraft(32, k=0)
        with pytest.raises(ValueError):
            DistilledNGramDraft(32, orders=())
        with pytest.raises(ValueError):
            DistilledNGramDraft(32, orders=(1, 2, 3))

    def test_propose_backoff_and_ranking(self):
        draft = DistilledNGramDraft(32, k=3, orders=(2, 1))
        for _ in range(3):
            draft._record([5, 6], 7)
        draft._record([5, 6], 8)
        draft._record([9, 6], 11)
        # Deepest window seen: order-2 counts rank first, then backoff fills.
        assert draft.propose([5, 6])[:2] == [7, 8]
        # Unseen order-2 window backs off to the order-1 window for token 6.
        proposal = draft.propose([1, 6])
        assert proposal[0] in (7, 8, 11)
        assert len(proposal) == 3 and len(set(proposal)) == 3

    def test_propose_reflects_counts_recorded_after_it_ranked(self):
        """Rankings are cached per context window; ``_record`` drops them."""
        draft = DistilledNGramDraft(32, k=2, orders=(2, 1))
        draft._record([5, 6], 7)
        draft._record([5, 6], 8)
        assert draft.propose([5, 6]) == [7, 8]  # tie breaks on token id
        assert draft.propose([5, 6]) == [7, 8]  # served from the cache
        draft._record([5, 6], 8)
        assert draft.propose([5, 6]) == [8, 7]
        draft._record([5, 6], 9)
        draft._record([5, 6], 9)
        draft._record([5, 6], 9)
        assert draft.propose([5, 6]) == [9, 8]
        assert draft.propose([4, 4]) == [9, 8]  # global backoff re-ranked too

    def test_propose_pads_with_token_ids_when_empty(self):
        draft = DistilledNGramDraft(32, k=4)
        assert draft.propose([1, 2, 3]) == [0, 1, 2, 3]

    def test_is_hit_and_measured_hit_rate(self):
        draft = DistilledNGramDraft(32, k=2, orders=(2, 1))
        assert draft.hit_rate == 0.0
        draft._record([1, 2], 3)       # miss: window unseen before recording
        assert draft.is_hit([1, 2])
        draft._record([1, 2], 3)       # hit
        assert draft.hit_rate == pytest.approx(0.5)
        assert not draft.is_hit([1])   # shorter than the deepest order

    def test_distill_covers_teacher_argmax(self):
        """On contexts seen teacher-forced, the model's own argmax must rank
        first — that is the whole point of distillation."""
        lm = TinyTransformerLM(TINY_CFG, seed=6)
        oracle = NGramOracle(TINY_CFG.vocab_size, seed=7)
        corpus = generate_corpus(oracle, 4, 17, seed=7)
        draft = DistilledNGramDraft.distill(lm, corpus, k=4)
        row = np.asarray(corpus[0], dtype=np.int64)
        cache = lm.new_cache(len(row))
        hidden = lm.forward_all(row, cache, np.arange(len(row)))
        preds = np.argmax(lm.lm_head(hidden), axis=-1)
        t = len(row) - 2
        assert int(preds[t]) in draft.propose(row[: t + 1])

    def test_rollout_is_deterministic_and_recorded(self):
        lm = TinyTransformerLM(TINY_CFG, seed=6)
        a = DistilledNGramDraft(TINY_CFG.vocab_size)
        b = DistilledNGramDraft(TINY_CFG.vocab_size)
        out_a = a.observe_rollout(lm, [1, 2, 3], 8)
        out_b = b.observe_rollout(lm, [1, 2, 3], 8)
        assert out_a == out_b
        assert a._events == 8


def _verified_exit_stats(rig, n_prompts=4, max_new_tokens=16):
    config = SpecEEConfig(scheduler="offline", exit_threshold=0.3)
    rates, layers = [], []
    for prompt in generate_prompts(n_prompts, rig.model.vocab_size, seed=31):
        engine = rig.specee_engine("offline", config=config, offline_top_k=2)
        result = engine.generate(prompt, max_new_tokens)
        rates.append(result.early_exit_rate)
        layers.extend(result.exit_layers)
    return float(np.mean(rates)), layers


@pytest.mark.slow
class TestTrainedRig:
    def test_metadata_records_the_training_run(self, trained_transformer_rig):
        meta = trained_transformer_rig.metadata
        assert meta["training_accuracy"] >= 0.8
        assert meta["draft_hit_rate"] > 0.3
        agreement = meta["layer_agreement"]
        assert agreement[-1] == 1.0
        # Deep exits agree far more than shallow ones after LayerSkip.
        assert agreement[-2] > agreement[0]

    def test_trained_exits_fire_on_the_real_backend(self, trained_transformer_rig):
        """The ISSUE's core acceptance: verified early-exit rate >= 0.3 with
        offline scheduling at the benchmarked operating point."""
        rate, layers = _verified_exit_stats(trained_transformer_rig)
        assert rate >= 0.3
        n_layers = trained_transformer_rig.model.n_layers
        assert layers and np.mean(layers) < n_layers - 1

    def test_trained_backend_uses_propagate_fill(self, trained_transformer_rig):
        model = trained_transformer_rig.model_factory()
        assert model.kv_fill == "propagate"

    @pytest.mark.parametrize("threshold", [SpecEEConfig().exit_threshold, 0.3])
    def test_served_predictors_track_the_float64_mlp(self, trained_transformer_rig,
                                                     threshold):
        """The float32 flip risk, bounded: on a corpus harvested from the
        trained rig, every served probability is within 1e-5 of the float64
        MLP, so a served decision can differ only for a row inside that band
        around the threshold (the default one and the benchmarked 0.3)."""
        rig = trained_transformer_rig
        prompts = generate_prompts(3, rig.model.vocab_size, seed=41)
        corpus = harvest_training_corpus(rig.model_factory(), rig.speculator,
                                         prompts, tokens_per_prompt=16)
        for layer in rig.bank.layers():
            x, _ = corpus.layer_arrays(layer)
            if not len(x):
                continue
            served = rig.bank.probability_batch(layer, x)
            reference = rig.bank.predictors[layer].mlp.forward(x)
            assert np.max(np.abs(served - reference)) <= 1e-5
            flips = (served >= threshold) != (reference >= threshold)
            assert np.all(np.abs(reference[flips] - threshold) <= 1e-5)


@pytest.mark.slow
class TestCLITrainExits:
    def test_smoke(self, capsys):
        from repro.cli import main

        code = main(["train-exits", "--steps", "4", "--prompts", "2",
                     "--max-new-tokens", "8", "--contrast"])
        out = capsys.readouterr().out
        assert code == 0
        assert "verified early-exit rate" in out
        assert "untrained verified exit rate" in out
        assert "train-exits completed" in out

    def test_rejects_bad_curriculum_flag(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["train-exits", "--curriculum", "bogus"])
