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


def greedy_step_batch(model, states, exits):
    """Greedy-decode one token per state, state ``i`` exiting after layer
    ``exits[i]``: the batched primitives, each state leaving the batch as
    the depth passes its exit, then one full-head argmax per row."""
    hidden = model.begin_step_batch(states)
    for layer in range(max(exits) + 1):
        idx = [i for i, e in enumerate(exits) if e >= layer]
        hidden[idx] = model.layer_forward_batch([states[i] for i in idx], layer, hidden[idx])
    tokens = [int(t) for t in np.argmax(model.lm_head_full_batch(hidden), axis=-1)]
    model.commit_batch(states, tokens, exits)
    return tokens


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
            tokens_b = greedy_step_batch(batched, states_b, exits)
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
        greedy_step_batch(backend, states, [0, backend.n_layers - 1])
        for state in states:
            for layer in range(backend.n_layers):
                assert state.cache.length(layer) == len(state.context)

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
            tokens = greedy_step_batch(batched, live, exits[: len(live)])
            kept_tokens.append(tokens[:2])
            pair_tokens.append(greedy_step_batch(scalar, pair, exits[:2]))
        assert kept_tokens == pair_tokens


class TestSharedExitNorm:
    """The exit check normalises a checked row once: the speculative slice,
    the verify and the early-exit KV fill all read that one unit-RMS row,
    and give exactly what the uncached arithmetic gives."""

    CFGS = [TransformerConfig(vocab_size=64, dim=32, n_layers=4, n_heads=4,
                              intermediate_dim=48, max_positions=64),
            TransformerConfig(vocab_size=64, dim=32, n_layers=4, n_heads=4, n_kv_heads=2,
                              intermediate_dim=48, max_positions=64)]

    @staticmethod
    def spied(cfg):
        """A propagate-mode model whose fills log whether they got ``u``."""
        model = TransformerLayeredLM(cfg, seed=2, max_tokens=64, kv_fill="propagate")
        rng = np.random.default_rng(5)  # gains other than one, so u * g != u
        for norm in [model.lm.final_norm] + [block.attn_norm for block in model.lm.layers]:
            norm.weight.data = rng.uniform(0.5, 1.5, cfg.dim)
        model.lm.refresh_stacked_weights()
        fill, model.got_unit = model.lm.kv_fill, []

        def kv_fill(hidden, firsts, caches, positions, unit=None):
            model.got_unit.append(unit is not None)
            fill(hidden, firsts, caches, positions, unit)

        model.lm.kv_fill = kv_fill
        return model

    @staticmethod
    def kv_bytes(state, n_layers):
        return [x.tobytes() for layer in range(n_layers) for x in state.cache.view(layer)]

    @pytest.mark.parametrize("cfg", CFGS)
    def test_fill_from_the_checks_u_writes_the_hiddens_kv(self, cfg):
        """``commit`` and a one-row ``commit_batch`` after a checked exit
        fill from the check's ``u``; an unchecked exit and
        ``recompute_state``'s replay fill from the hidden — the same bytes."""
        model, ids = self.spied(cfg), [3, 9, 17, 40]
        checked, batched, plain = (model.start([5, 1, 7]) for _ in range(3))
        for step in range(2 * (cfg.n_layers - 1)):
            exit_layer = step % (cfg.n_layers - 1)
            model.begin_step(checked)
            for layer in range(exit_layer + 1):
                h = model.layer_forward(checked, layer)
                model.lm_head_slice(h, ids)
            token = int(model.lm_head_full(h).argmax())
            model.commit(checked, token, exit_layer)
            model.begin_step_batch([batched])
            for layer in range(exit_layer + 1):
                h = model.layer_forward_batch([batched], layer)
                model.lm_head_slice_batch(h, np.asarray([ids]))
            model.commit_batch([batched], [token], [exit_layer])
            model.begin_step(plain)
            model.run_to_layer(plain, exit_layer)
            model.commit(plain, token, exit_layer)
            assert model.got_unit[-3:] == [True, True, False]
        want = self.kv_bytes(plain, cfg.n_layers)
        assert self.kv_bytes(checked, cfg.n_layers) == want
        assert self.kv_bytes(batched, cfg.n_layers) == want
        model.drop_state_kv(checked)
        model.recompute_state(checked)
        assert self.kv_bytes(checked, cfg.n_layers) == want

    @pytest.mark.parametrize("cfg", CFGS)
    def test_slice_and_verify_equal_the_uncached_head(self, cfg):
        model = TransformerLayeredLM(cfg, seed=2, max_tokens=64)
        lm, rng = model.lm, np.random.default_rng(4)
        state = model.start([2, 8, 6])
        model.begin_step(state)
        for layer in range(cfg.n_layers):
            h = model.layer_forward(state, layer)
            ids = rng.choice(cfg.vocab_size, 4, replace=False).tolist()
            assert np.array_equal(model.lm_head_slice(h, ids), lm.lm_head_slice(h, ids))
            assert np.array_equal(model.lm_head_full(h), lm.lm_head(h))
        # Another array is normalised afresh, not served the cached row.
        assert np.array_equal(model.lm_head_full(2 * h), lm.lm_head(2 * h))
        states = [model.start(rng.integers(0, 64, 3).tolist()) for _ in range(5)]
        model.begin_step_batch(states)
        for layer in range(cfg.n_layers):
            h = model.layer_forward_batch(states, layer)
            cand = np.stack([rng.choice(cfg.vocab_size, 4, replace=False) for _ in states])
            local = model.lm_head_slice_batch(h, cand)
            for i in range(len(states)):
                assert np.array_equal(local[i], lm.lm_head_slice(h[i], cand[i]))
            fired = rng.random(len(states)) < 0.5
            assert np.array_equal(model.lm_head_full_batch(h[fired]), lm.lm_head(h[fired]))
            assert np.array_equal(model.lm_head_full_batch(h), lm.lm_head(h))

    def test_a_new_step_reads_refreshed_weights(self):
        """The caches last one step: weights replaced between steps are
        what the next step's slice reads."""
        model = TransformerLayeredLM(self.CFGS[0], seed=2, max_tokens=64)
        state, ids = model.start([1, 2]), [4, 5, 6]
        model.begin_step(state)
        model.lm_head_slice(model.layer_forward(state, 0), ids)
        model.lm.lm_head_weight = 2 * model.lm.lm_head_weight
        model.lm.refresh_stacked_weights()
        model.commit(state, 1, 0)
        model.begin_step(state)
        h = model.layer_forward(state, 0)
        assert np.array_equal(model.lm_head_slice(h, ids), model.lm.lm_head_slice(h, ids))

    def test_refresh_rejects_norms_of_another_eps(self):
        """The fill multiplies the final norm's unit row by the attention
        gains, which is only the attention norm when the eps agree."""
        model = TransformerLayeredLM(self.CFGS[0], seed=2, max_tokens=64)
        model.lm.layers[1].attn_norm.eps = 1e-5
        with pytest.raises(ValueError, match="eps"):
            model.lm.refresh_stacked_weights()
