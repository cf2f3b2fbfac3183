"""Tests for the draft models and the transformer LayeredLM backend."""

import numpy as np
import pytest

from repro.baselines import DenseEngine
from repro.model.draft import DraftTree, Speculator, TreeDrafter
from repro.model.oracle import NGramOracle
from repro.model.transformer_backend import TransformerLayeredLM
from repro.nn.transformer import TransformerConfig


@pytest.fixture(scope="module")
def oracle():
    return NGramOracle(256, order=3, seed=3)


class TestSpeculator:
    def test_proposes_k_distinct_tokens(self, oracle):
        spec = Speculator(oracle, k=4, hit_rate=0.8)
        tokens = spec.propose([1, 2, 3])
        assert len(tokens) == 4
        assert len(set(int(t) for t in tokens)) == 4

    def test_hit_rate_calibrated(self, oracle):
        spec = Speculator(oracle, k=4, hit_rate=0.8)
        ctx = [5, 6, 7]
        hits = 0
        for _ in range(400):
            target = oracle.target(ctx)
            hits += int(target in spec.propose(ctx))
            ctx.append(target)
        assert 0.72 < hits / 400 < 0.88

    def test_hit_zero_never_contains_target(self, oracle):
        spec = Speculator(oracle, k=4, hit_rate=0.0)
        ctx = [9, 9, 9]
        for _ in range(50):
            target = oracle.target(ctx)
            assert target not in spec.propose(ctx)
            ctx.append(target)

    def test_is_hit_consistent_with_propose(self, oracle):
        spec = Speculator(oracle, k=4, hit_rate=0.5)
        ctx = [2, 8, 1]
        for _ in range(60):
            target = oracle.target(ctx)
            assert spec.is_hit(ctx) == (target in spec.propose(ctx))
            ctx.append(target)

    def test_rejects_bad_params(self, oracle):
        with pytest.raises(ValueError):
            Speculator(oracle, k=0)
        with pytest.raises(ValueError):
            Speculator(oracle, hit_rate=1.5)


class TestDraftTree:
    def test_structure_helpers(self):
        tree = DraftTree()
        a = tree.add(10, -1)
        b = tree.add(11, -1)
        c = tree.add(12, a)
        assert tree.children_of(a) == [c]
        assert tree.path_to(c) == [a, c]
        assert set(tree.leaves()) == {b, c}
        assert tree.paths() == [[b], [a, c]] or tree.paths() == [[a, c], [b]]

    def test_len(self):
        tree = DraftTree()
        tree.add(1, -1)
        assert len(tree) == 1


class TestTreeDrafter:
    def test_tree_shape(self, oracle):
        drafter = TreeDrafter(oracle, depth=4, top_branches=4, level_hit_rate=0.8)
        tree = drafter.build([1, 2, 3])
        assert len(tree) == 4 + 2 * 3  # level 1 + 2 nodes per deeper level
        roots = [i for i, p in enumerate(tree.parents) if p < 0]
        assert len(roots) == 4
        assert max(len(p) for p in tree.paths()) == 4

    def test_deterministic(self, oracle):
        drafter = TreeDrafter(oracle, depth=3, level_hit_rate=0.7)
        t1 = drafter.build([4, 5, 6])
        t2 = drafter.build([4, 5, 6])
        assert t1.tokens == t2.tokens and t1.parents == t2.parents

    def test_level_hit_rate_controls_acceptance(self, oracle):
        """Expected greedy-acceptance length must track the hit rate."""
        def mean_accept(rate, n=150):
            drafter = TreeDrafter(oracle, depth=4, level_hit_rate=rate)
            ctx = [3, 1, 4]
            total = 0
            for _ in range(n):
                tree = drafter.build(ctx)
                parent, expected, acc = -1, oracle.target(ctx), 0
                path: list = []
                while True:
                    children = [i for i, p in enumerate(tree.parents) if p == parent]
                    match = next((i for i in children if tree.tokens[i] == expected), None)
                    if match is None:
                        break
                    acc += 1
                    path.append(tree.tokens[match])
                    expected = oracle.target(ctx + path)
                    parent = match
                total += acc
                ctx.append(oracle.target(ctx))
            return total / n

        assert mean_accept(0.9) > mean_accept(0.3) + 0.8


class TestTransformerBackend:
    @pytest.fixture(scope="class")
    def backend(self):
        cfg = TransformerConfig(vocab_size=64, dim=32, n_layers=3, n_heads=4,
                                intermediate_dim=48, max_positions=128)
        return TransformerLayeredLM(cfg, seed=0, max_tokens=128)

    def test_dense_generation_runs(self, backend):
        engine = DenseEngine(backend)
        result = engine.generate([1, 2, 3], 8)
        assert len(result.tokens) == 8
        assert all(0 <= t < backend.vocab_size for t in result.tokens)

    def test_early_commit_fills_kv(self, backend):
        state = backend.start([4, 5, 6])
        backend.begin_step(state)
        backend.run_to_layer(state, 0)  # exit after the first layer
        backend.commit(state, 9, 0)
        for layer in range(backend.n_layers):
            assert state.cache.length(layer) == 4  # prompt 3 + 1 committed

    def test_layer_order_enforced(self, backend):
        state = backend.start([1, 1, 1])
        backend.begin_step(state)
        backend.layer_forward(state, 0)
        with pytest.raises(ValueError):
            backend.layer_forward(state, 2)

    def test_script_rejected(self, backend):
        with pytest.raises(ValueError):
            backend.start([1], script=[2])

    def test_slice_matches_full(self, backend):
        state = backend.start([2, 3, 4])
        backend.begin_step(state)
        h = backend.run_to_layer(state, backend.n_layers - 1)
        ids = np.array([0, 9, 33])
        assert np.allclose(backend.lm_head_slice(h, ids), backend.lm_head_full(h)[ids])
        backend.commit(state, 0, backend.n_layers - 1)


class TestTransformerBatchedDecode:
    CFG = TransformerConfig(vocab_size=64, dim=32, n_layers=3, n_heads=4,
                            intermediate_dim=48, max_positions=128)

    def fresh_pair(self):
        return (TransformerLayeredLM(self.CFG, seed=0, max_tokens=128),
                TransformerLayeredLM(self.CFG, seed=0, max_tokens=128))

    def test_step_batch_token_identical_to_scalar_loop(self):
        """Batched greedy decode with ragged per-sequence exit layers equals
        the scalar begin/run_to_layer/commit loop, token for token."""
        batched, scalar = self.fresh_pair()
        prompts = [[1, 2, 3], [7, 8, 9, 10, 11], [4]]  # ragged lengths
        states_b = [batched.start(p) for p in prompts]
        states_s = [scalar.start(p) for p in prompts]
        rng = np.random.default_rng(5)
        for _ in range(10):
            exits = [int(rng.integers(0, self.CFG.n_layers)) for _ in prompts]
            tokens_b = batched.step_batch(states_b, exits)
            tokens_s = []
            for state, exit_layer in zip(states_s, exits):
                scalar.begin_step(state)
                hidden = scalar.run_to_layer(state, exit_layer)
                token = scalar.greedy_token(hidden)
                scalar.commit(state, token, exit_layer)
                tokens_s.append(token)
            assert tokens_b == tokens_s

    def test_step_batch_fills_kv_for_skipped_layers(self):
        backend, _ = self.fresh_pair()
        states = [backend.start([3, 1]), backend.start([9, 9, 9])]
        backend.step_batch(states, [0, backend.n_layers - 1])
        for state in states:
            for layer in range(backend.n_layers):
                assert state.cache.length(layer) == len(state.context)

    def test_step_batch_validates_inputs(self):
        backend, _ = self.fresh_pair()
        states = [backend.start([1, 2])]
        with pytest.raises(ValueError):
            backend.step_batch(states, [0, 1])  # length mismatch
        with pytest.raises(ValueError):
            backend.step_batch(states, [backend.n_layers])  # out of range
        assert backend.step_batch([], []) == []

    def test_layer_forward_batch_enforces_order(self):
        backend, _ = self.fresh_pair()
        states = [backend.start([1, 2, 3])]
        backend.begin_step_batch(states)
        backend.layer_forward_batch(states, 0)
        with pytest.raises(ValueError):
            backend.layer_forward_batch(states, 2)

    def test_mid_batch_retirement_is_equivalent(self):
        """A sequence leaving the batch must not perturb the others: decode
        three sequences together, then continue two alone, and compare with
        decoding the two in a pair the whole way."""
        batched, scalar = self.fresh_pair()
        trio = [batched.start([5, 6]), batched.start([7, 8]), batched.start([9])]
        pair = [scalar.start([5, 6]), scalar.start([7, 8])]
        kept_tokens, pair_tokens = [], []
        for step in range(8):
            exits = [1, 2, 0]
            live = trio if step < 4 else trio[:2]  # third retires mid-run
            tokens = batched.step_batch(live, exits[: len(live)])
            kept_tokens.append(tokens[:2])
            pair_tokens.append(scalar.step_batch(pair, exits[:2]))
        assert kept_tokens == pair_tokens
