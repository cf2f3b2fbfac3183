"""Tests for baseline engines: dense, SVM, AdaInfer, RAEE, EAGLE, pruning."""

import numpy as np
import pytest

from repro.baselines import DenseEngine, EagleEngine, LinearSVM
from repro.baselines.adainfer import AdaInferEngine, adainfer_features, train_adainfer_gates
from repro.baselines.prune import PrunedModelWrapper, magnitude_prune
from repro.baselines.raee import RAEEDatabase, RAEEEngine, build_raee_database
from repro.config import SimDims
from repro.hardware.ledger import Event
from repro.model.draft import TreeDrafter
from repro.model.profiles import get_profile
from repro.model.synthetic import SyntheticLayeredLM


@pytest.fixture(scope="module")
def lm():
    return SyntheticLayeredLM(get_profile("llama2-7b"), SimDims(), seed=21)


def fresh(seed=21):
    return SyntheticLayeredLM(get_profile("llama2-7b"), SimDims(), seed=seed)


class TestDenseEngine:
    def test_full_depth_accounting(self, lm):
        engine = DenseEngine(fresh())
        result = engine.generate([1, 2, 3], 20)
        assert result.ledger.calls(Event.DECODER_LAYER) == 20 * 32
        assert result.ledger.calls(Event.LM_HEAD_FULL) == 20
        assert all(e == 31 for e in result.exit_layers)

    def test_teacher_forced_perplexity(self):
        engine = DenseEngine(fresh())
        refs = [9, 9, 9, 9]
        result = engine.generate([4, 4, 4], 0, force_tokens=refs)
        assert len(result.logprobs) == 4
        assert result.perplexity > 1.0


@pytest.fixture(scope="module")
def trained_baselines():
    """AdaInfer gates and the RAEE database, fitted once on seed-21 decodes."""
    return (train_adainfer_gates(fresh(), [[1, 2, 3], [4, 5, 6]], tokens_per_prompt=20),
            build_raee_database(fresh(), [[1, 2, 3]], tokens_per_prompt=20))


def baseline(name, trained):
    gates, database = trained
    return {"dense": lambda: DenseEngine(fresh()),
            "adainfer": lambda: AdaInferEngine(fresh(), gates),
            "raee": lambda: RAEEEngine(fresh(), database)}[name]()


class TestBaselinesPinned:
    """Dense, AdaInfer and RAEE on one seed-21 rig and prompt ``[7, 7, 7]``:
    tokens, exit layers, ledgers (``as_dict()`` items in insertion order, which
    pricing sums in) and teacher-forced log-probabilities, measured before the
    three engines shared one token loop."""

    FORCED = [9, 3, 5, 9, 1, 4]
    PINNED = {
        "dense": dict(
            tokens=[353, 66, 478, 478, 330, 441, 471, 9], exits=[31] * 8,
            ledger=[("prefill_layer", 32, 96), ("decoder_layer", 256, 256),
                    ("lm_head_full", 8, 8)],
            forced_exits=[31] * 6,
            forced_ledger=[("prefill_layer", 32, 96), ("decoder_layer", 192, 192),
                           ("lm_head_full", 6, 6)],
            logprobs=[-10.072791, -8.898461, -10.625308, -12.567441, -10.809837,
                      -10.682205]),
        "adainfer": dict(
            tokens=[353, 441, 511, 160, 475, 408, 138, 160],
            exits=[20, 21, 18, 18, 19, 21, 21, 18],
            ledger=[("prefill_layer", 32, 96), ("decoder_layer", 164, 164),
                    ("lm_head_full", 84, 84), ("feature_stats", 84, 84),
                    ("svm_predict", 84, 84), ("kv_fill", 8, 92)],
            forced_exits=[20, 21, 19, 21, 19, 21],
            forced_ledger=[("prefill_layer", 32, 96), ("decoder_layer", 127, 127),
                           ("lm_head_full", 67, 67), ("feature_stats", 67, 67),
                           ("svm_predict", 67, 67), ("kv_fill", 6, 65)],
            logprobs=[-10.781424, -10.788554, -9.198189, -10.637971, -10.036064,
                      -13.360359]),
        "raee": dict(
            tokens=[13, 471, 437, 478, 20, 353, 353, 176],
            exits=[17, 17, 19, 18, 20, 18, 18, 18],
            ledger=[("prefill_layer", 32, 96), ("retrieval_lookup", 8, 160),
                    ("decoder_layer", 153, 153), ("lm_head_full", 8, 8),
                    ("kv_fill", 8, 103)],
            forced_exits=[17, 16, 18, 19, 18, 19],
            forced_ledger=[("prefill_layer", 32, 96), ("retrieval_lookup", 6, 120),
                           ("decoder_layer", 113, 113), ("lm_head_full", 6, 6),
                           ("kv_fill", 6, 79)],
            logprobs=[-10.919748, -11.796751, -8.77119, -11.36996, -11.679114,
                      -12.28972]),
    }

    @staticmethod
    def ledger_items(result):
        return [(kind, entry["calls"], entry["units"])
                for kind, entry in result.ledger.as_dict().items()]

    @pytest.mark.parametrize("name", ["dense", "adainfer", "raee"])
    def test_free_running(self, trained_baselines, name):
        pinned = self.PINNED[name]
        result = baseline(name, trained_baselines).generate([7, 7, 7], 8)
        assert result.tokens == pinned["tokens"]
        assert result.exit_layers == pinned["exits"]
        assert self.ledger_items(result) == pinned["ledger"]
        assert (result.ledger.tokens_generated, result.ledger.steps) == (8, 8)
        assert [r.early_exit for r in result.records] == [e < 31 for e in pinned["exits"]]

    @pytest.mark.parametrize("name", ["dense", "adainfer", "raee"])
    def test_teacher_forced(self, trained_baselines, name):
        pinned = self.PINNED[name]
        result = baseline(name, trained_baselines).generate(
            [7, 7, 7], 0, force_tokens=self.FORCED)
        assert result.tokens == self.FORCED
        assert result.exit_layers == pinned["forced_exits"]
        assert self.ledger_items(result) == pinned["forced_ledger"]
        assert result.logprobs == pytest.approx(pinned["logprobs"], abs=1e-6)


class TestSaturationsFollowRecords:
    """Every batch-1 engine copies the model's per-step saturation layer
    ``L*`` onto its result, one per record."""

    @pytest.mark.parametrize("name", ["dense", "adainfer", "raee", "specee"])
    def test_one_per_record(self, request, trained_baselines, name):
        engine = (request.getfixturevalue("control_rig").specee_engine()
                  if name == "specee" else baseline(name, trained_baselines))
        result = engine.generate([7, 7, 7], 8)
        assert len(result.saturations) == len(result.records) == 8


class TestLinearSVM:
    def test_learns_separable(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((400, 3))
        y = (x @ np.array([2.0, -1.0, 0.5]) > 0).astype(float)
        svm = LinearSVM(3)
        acc = svm.fit(x, y, epochs=15)
        assert acc > 0.9

    def test_decision_sign_matches_predict(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 2))
        y = (x[:, 0] > 0).astype(float)
        svm = LinearSVM(2)
        svm.fit(x, y, epochs=10)
        assert np.array_equal(svm.predict(x), svm.decision(x) > 0)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            LinearSVM(2).fit(np.zeros((0, 2)), np.zeros(0))


class TestAdaInfer:
    def test_features_shape_and_range(self, lm):
        logits = np.random.default_rng(0).standard_normal(512)
        feats = adainfer_features(logits)
        assert feats.shape == (3,)
        assert 0 <= feats[0] <= 1       # top probability
        assert feats[1] >= 0            # top-2 gap
        assert 0 <= feats[2] <= 1       # normalised entropy

    def test_engine_exits_early_and_pays_full_heads(self, lm):
        gates = train_adainfer_gates(fresh(), [[1, 2, 3], [4, 5, 6]],
                                     tokens_per_prompt=20)
        engine = AdaInferEngine(fresh(seed=22), gates)
        result = engine.generate([7, 7, 7], 40)
        assert result.early_exit_rate > 0.2
        # Structural cost: at least one full head per evaluated layer.
        assert result.ledger.calls(Event.LM_HEAD_FULL) > 40

    def test_unverified_exits_diverge_from_dense(self, lm):
        """AdaInfer's accuracy drop mechanism: no verification."""
        gates = train_adainfer_gates(fresh(), [[1, 2, 3]], tokens_per_prompt=25)
        engine = AdaInferEngine(fresh(seed=23), gates)
        result = engine.generate([8, 8, 8], 60)
        dense = DenseEngine(fresh(seed=23)).generate([8, 8, 8], 60)
        agreement = np.mean([a == b for a, b in zip(result.tokens, dense.tokens)])
        assert agreement < 1.0


class TestRAEE:
    def test_database_query(self):
        db = RAEEDatabase(dim=4)
        rng = np.random.default_rng(0)
        for layer in (10, 10, 11, 20):
            db.add(rng.standard_normal(4), layer)
        predicted, confidence = db.query(db._keys[0], k=2)
        assert 0 < confidence <= 1
        assert 5 <= predicted <= 21

    def test_query_empty_raises(self):
        with pytest.raises(RuntimeError):
            RAEEDatabase(dim=2).query(np.zeros(2))

    def test_engine_exits_at_retrieved_depth(self, lm):
        db = build_raee_database(fresh(), [[1, 2, 3]], tokens_per_prompt=20)
        engine = RAEEEngine(fresh(seed=24), db)
        result = engine.generate([2, 3, 4], 30)
        assert result.ledger.calls(Event.RETRIEVAL) == 30
        assert min(result.exit_layers) >= engine.min_exit_layer

    def test_nbytes_grows(self):
        db = RAEEDatabase(dim=8)
        db.add(np.zeros(8), 1)
        one = db.nbytes
        db.add(np.zeros(8), 2)
        assert db.nbytes > one


class TestEagle:
    def test_emits_requested_tokens(self, lm):
        drafter = TreeDrafter(lm.oracle, depth=4, level_hit_rate=0.8)
        engine = EagleEngine(fresh(seed=25), drafter)
        result = engine.generate([5, 9, 2], 50)
        assert len(result.tokens) == 50
        assert result.tokens_per_iteration > 1.0
        assert result.ledger.steps == len(result.iterations)

    def test_verify_layers_full_depth(self, lm):
        drafter = TreeDrafter(lm.oracle, depth=3, level_hit_rate=0.8)
        engine = EagleEngine(fresh(seed=26), drafter)
        result = engine.generate([5, 9, 2], 20)
        assert result.ledger.calls(Event.TREE_VERIFY_LAYER) == 32 * len(result.iterations)


class TestPruning:
    def test_magnitude_prune_exact_sparsity(self):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((16, 16))
        pruned, realised = magnitude_prune(w, 0.5)
        assert realised == pytest.approx(0.5, abs=0.01)
        assert np.count_nonzero(pruned) == pytest.approx(128, abs=2)

    def test_prune_keeps_largest(self):
        w = np.array([[0.1, 5.0], [-4.0, 0.2]])
        pruned, _ = magnitude_prune(w, 0.5)
        assert pruned[0, 1] == 5.0 and pruned[1, 0] == -4.0
        assert pruned[0, 0] == 0.0 and pruned[1, 1] == 0.0

    def test_zero_sparsity_identity(self):
        w = np.ones((3, 3))
        pruned, realised = magnitude_prune(w, 0.0)
        assert realised == 0.0
        assert np.array_equal(pruned, w)

    def test_rejects_bad_sparsity(self):
        with pytest.raises(ValueError):
            magnitude_prune(np.ones((2, 2)), 1.0)

    def test_wrapper_flips_some_answers(self, lm):
        wrapper = PrunedModelWrapper(fresh(seed=27), flip_rate=0.5)
        base = fresh(seed=27)
        flips = 0
        sw, sb = wrapper.start([3, 3, 3]), base.start([3, 3, 3])
        for _ in range(30):
            wrapper.begin_step(sw)
            base.begin_step(sb)
            flips += sw.plan.target != sb.plan.target
            token = sb.plan.target
            wrapper.commit(sw, token, 31)
            base.commit(sb, token, 31)
        assert flips > 5
