"""Tests for feature extraction, the predictor bank, and predictor training."""

import numpy as np
import pytest

from repro.core.engine import DRAFT_PAD_MARGIN, SpecEEEngine
from repro.core.features import FeatureExtractor, feature_names
from repro.core.predictor import ExitPredictor, PredictorBank
from repro.core.predictor_training import (
    TrainingCorpus,
    harvest_training_corpus,
    train_predictor_bank,
)
from repro.config import SimDims
from repro.model.draft import Speculator
from repro.model.profiles import get_profile
from repro.model.synthetic import SyntheticLayeredLM
from repro.nn.attention import INFERENCE_DTYPE


class TestFeatureExtractor:
    def test_dimension(self):
        ex = FeatureExtractor(4)
        assert ex.feature_dim == 12
        feats = ex.extract(np.array([1.0, 2.0, 3.0, 4.0]))
        assert feats.shape == (12,)

    def test_blocks_composition(self):
        ex = FeatureExtractor(2)
        logits = np.array([2.0, 0.0])
        feats = ex.extract(logits)
        assert np.allclose(feats[:2], logits)
        assert np.isclose(feats[2] + feats[3], 1.0)  # local probs sum to 1
        assert np.allclose(feats[4:], 0.0)  # first eval: zero variation

    def test_variation_tracks_previous_eval(self):
        ex = FeatureExtractor(2)
        ex.extract(np.array([0.0, 0.0]))
        second = ex.extract(np.array([5.0, 0.0]))
        assert second[4] > 0  # token 0's local prob rose
        assert second[5] < 0

    def test_reset_clears_history(self):
        ex = FeatureExtractor(2)
        ex.extract(np.array([5.0, 0.0]))
        ex.reset()
        feats = ex.extract(np.array([0.0, 5.0]))
        assert np.allclose(feats[4:], 0.0)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            FeatureExtractor(3).extract(np.zeros(4))

    def test_batch_variant_matches_streaming(self):
        ex = FeatureExtractor(3)
        a = np.array([1.0, 2.0, 0.5])
        b = np.array([2.0, 1.0, 0.5])
        f1 = ex.extract(a).copy()  # extract reuses one buffer
        f2 = ex.extract(b)
        batch, probs = FeatureExtractor.extract_rows(
            np.stack([a]), np.zeros((1, 3)), np.array([False]))
        assert np.array_equal(batch[0], f1)
        batch2, _ = FeatureExtractor.extract_rows(
            np.stack([b]), probs, np.array([True]))
        assert np.array_equal(batch2[0], f2)

    def test_features_keep_the_float32_head_dtype(self):
        """Off a float32 head both paths compute in float32 and still agree
        exactly, padded-draft floor included."""
        ex = FeatureExtractor(3)
        a = np.array([1.0, 2.0, 0.5], dtype=np.float32)
        b = np.array([2.0, 1.0, 0.0], dtype=np.float32)
        b[2] = b[:2].min() - DRAFT_PAD_MARGIN  # what a 2-wide draft pads to
        assert SpecEEEngine._pad_draft_logits(b[:2], 3).tolist() == b.tolist()
        assert SpecEEEngine._pad_draft_logits(b[:2], 3).dtype == np.float32
        f1 = ex.extract(a).copy()
        f2 = ex.extract(b)
        assert f1.dtype == f2.dtype == np.float32
        batch, probs = FeatureExtractor.extract_rows(
            np.stack([a, b]), np.stack([np.zeros(3, np.float32), f1[3:6]]),
            np.array([False, True]))
        assert batch.dtype == probs.dtype == np.float32
        assert np.array_equal(batch, np.stack([f1, f2]))

    def test_extract_reuses_its_buffer(self):
        ex = FeatureExtractor(2)
        first = ex.extract(np.array([1.0, 0.0]))
        assert ex.extract(np.array([0.0, 3.0])) is first

    def test_feature_names(self):
        names = feature_names(4)
        assert len(names) == 12
        assert names[0] == "logit_0" and names[-1] == "prob_variation_3"


class TestPredictorBank:
    def test_one_predictor_per_nonfinal_layer(self):
        bank = PredictorBank(8, feature_dim=12, hidden_dim=16)
        assert bank.layers() == list(range(7))
        with pytest.raises(KeyError):
            bank.probability(7, np.zeros(12))

    def test_total_params(self):
        bank = PredictorBank(33, feature_dim=12, hidden_dim=512)
        per = 12 * 512 + 512 + 512 + 1
        assert bank.total_params == 32 * per

    def test_save_load_roundtrip(self, tmp_path):
        bank = PredictorBank(4, feature_dim=6, hidden_dim=8, seed=1)
        x = np.random.default_rng(0).standard_normal(6)
        path = str(tmp_path / "bank.npz")
        bank.save(path)
        clone = PredictorBank.load(path)
        for layer in bank.layers():
            assert bank.probability(layer, x) == pytest.approx(
                clone.probability(layer, x))

    def test_state_dict_roundtrip(self):
        bank = PredictorBank(3, feature_dim=6, hidden_dim=8, seed=2)
        clone = PredictorBank.from_state_dict(bank.state_dict())
        x = np.ones(6)
        assert bank.probability(0, x) == pytest.approx(clone.probability(0, x))

    def test_probability_in_unit_interval(self):
        bank = PredictorBank(4, feature_dim=6, hidden_dim=8)
        for layer in bank.layers():
            p = bank.probability(layer, np.full(6, 100.0))
            assert 0.0 <= p <= 1.0


def folded_cast(mlp):
    """The served copy rebuilt from scratch: standardisation folded into the
    first layer in float64, then every array cast to ``INFERENCE_DTYPE``."""
    inv_sigma = 1.0 / mlp._sigma
    weights = [mlp.weights[0] * inv_sigma[:, None]] + mlp.weights[1:]
    biases = [mlp.biases[0] - (mlp._mu * inv_sigma) @ mlp.weights[0]] + mlp.biases[1:]
    return [(w.astype(INFERENCE_DTYPE), b.astype(INFERENCE_DTYPE))
            for w, b in zip(weights, biases)]


def assert_serves(predictor, reference):
    assert len(predictor.served) == len(reference)
    for (w, b), (w_ref, b_ref) in zip(predictor.served, reference):
        assert w.dtype == b.dtype == INFERENCE_DTYPE
        assert np.array_equal(w, w_ref) and np.array_equal(b, b_ref)


class TestServedPredictor:
    """Predictors train in float64 and serve a folded ``INFERENCE_DTYPE``
    copy, rebuilt at one point whenever the float64 weights change."""

    @staticmethod
    def data(n=64, dim=6):
        rng = np.random.default_rng(3)
        x = 4.0 * rng.standard_normal((n, dim)) + 2.0
        return x, (x[:, 0] + x[:, 1] > 4.0).astype(float)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_served_probabilities_track_the_float64_mlp(self, depth):
        pred = ExitPredictor(6, hidden_dim=16, depth=depth, seed=1)
        x, y = self.data()
        pred.fit(x, y, epochs=3)
        reference = pred.mlp.forward(x)
        served = pred.probability_batch(x)
        assert served.dtype == INFERENCE_DTYPE
        np.testing.assert_allclose(served, reference, atol=1e-5)
        assert pred.probability(x[0]) == pytest.approx(reference[0], abs=1e-5)
        assert 0.0 <= pred.probability(np.full(6, 1e6)) <= 1.0  # no overflow

    def test_fit_refreshes_the_served_copy(self):
        pred = ExitPredictor(6, hidden_dim=16, seed=1)
        x, y = self.data()
        before = pred.probability(x[0])
        pred.fit(x, y, epochs=3)
        after = pred.probability(x[0])
        assert after != before
        assert after == pytest.approx(float(pred.mlp.forward(x[0])), abs=1e-5)
        assert_serves(pred, folded_cast(pred.mlp))

    def test_reloaded_banks_serve_a_fresh_cast(self, tmp_path):
        bank = PredictorBank(3, feature_dim=6, hidden_dim=8, seed=2)
        x, y = self.data()
        bank.predictors[0].fit(x, y, epochs=2)
        path = str(tmp_path / "bank.npz")
        bank.save(path)
        for clone in (PredictorBank.from_state_dict(bank.state_dict()),
                      PredictorBank.load(path)):
            for layer in bank.layers():
                assert_serves(clone.predictors[layer],
                              folded_cast(clone.predictors[layer].mlp))
                assert_serves(clone.predictors[layer], bank.predictors[layer].served)


@pytest.fixture(scope="module")
def harvest():
    lm = SyntheticLayeredLM(get_profile("llama2-7b"), SimDims(), seed=11)
    spec = Speculator(lm.oracle, k=4, hit_rate=0.8)
    prompts = [[i + 1, 2 * i + 1, 3] for i in range(5)]
    corpus = harvest_training_corpus(lm, spec, prompts, tokens_per_prompt=25)
    return lm, spec, corpus


class TestHarvest:
    def test_labels_reflect_saturation(self, harvest):
        """Deep layers must be predominantly positive, shallow negative."""
        _, _, corpus = harvest
        _, y_deep = corpus.layer_arrays(28)
        _, y_shallow = corpus.layer_arrays(4)
        assert y_deep.mean() > 0.6
        assert y_shallow.mean() < 0.25

    def test_sample_counts(self, harvest):
        _, _, corpus = harvest
        # 5 prompts x 25 tokens x layers [2, 30] -> 29 samples per token.
        assert corpus.n_samples == 5 * 25 * 29

    def test_subsample_ratio(self, harvest):
        _, _, corpus = harvest
        sub = corpus.subsample(0.25, seed=0)
        assert sub.n_samples < corpus.n_samples * 0.3 + 40

    def test_subsample_rejects_bad_ratio(self, harvest):
        _, _, corpus = harvest
        with pytest.raises(ValueError):
            corpus.subsample(0.0)

    def test_split_disjoint_sizes(self, harvest):
        _, _, corpus = harvest
        train, test = corpus.split(0.2, seed=0)
        assert train.n_samples + test.n_samples == corpus.n_samples


class TestTraining:
    def test_training_beats_majority_class(self, harvest):
        lm, _, corpus = harvest
        train, test = corpus.split(0.25, seed=1)
        bank = PredictorBank(lm.n_layers, feature_dim=12, hidden_dim=64, seed=0)
        metrics = train_predictor_bank(bank, train, epochs=12, test_corpus=test)
        assert metrics["test_accuracy"] > 0.75
        # Majority baseline per mid layer is well below that.
        x, y = test.layer_arrays(16)
        majority = max(y.mean(), 1 - y.mean())
        assert metrics["test_accuracy"] > majority - 0.25

    def test_trained_bank_orders_depth(self, harvest):
        """Post-saturation features must score higher than pre-saturation."""
        lm, spec, corpus = harvest
        bank = PredictorBank(lm.n_layers, feature_dim=12, hidden_dim=64, seed=0)
        train_predictor_bank(bank, corpus, epochs=12)
        layer = 16
        x, y = corpus.layer_arrays(layer)
        pos = x[y > 0.5]
        neg = x[y < 0.5]
        if len(pos) > 3 and len(neg) > 3:
            p_pos = np.mean([bank.probability(layer, f) for f in pos[:20]])
            p_neg = np.mean([bank.probability(layer, f) for f in neg[:20]])
            assert p_pos > p_neg + 0.2
