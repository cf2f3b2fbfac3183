"""Tests for the KV cache, causal attention and transformer stacks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.config import SpecEEConfig
from repro.core.engine import SpecEEEngine
from repro.core.predictor import PredictorBank
from repro.core.scheduling import make_scheduler
from repro.errors import KVCorruptionError
from repro.eval.harness import trained_transformer_config
from repro.model.draft import Speculator
from repro.model.oracle import NGramOracle
from repro.model.transformer_backend import TransformerLayeredLM
from repro.nn import attention
from repro.nn.attention import INFERENCE_DTYPE, CausalSelfAttention, KVCache
from repro.nn.autograd import cross_entropy
from repro.nn.optim import Adam
from repro.nn.transformer import (
    TinyTransformerLM,
    TrainableTransformerLM,
    TransformerConfig,
)
from repro.utils.mathx import softmax

CFG = TransformerConfig(vocab_size=48, dim=32, n_layers=3, n_heads=4,
                        intermediate_dim=48, max_positions=64)
GQA_CFG = TransformerConfig(vocab_size=48, dim=32, n_layers=3, n_heads=4,
                            n_kv_heads=2, intermediate_dim=48, max_positions=64)


class TestKVCache:
    def test_append_and_view(self):
        cache = KVCache(2, 2, 4, 8)
        k = np.ones((2, 3, 4))
        cache.append(0, k, k * 2)
        keys, values = cache.view(0)
        assert keys.shape == (2, 3, 4)
        assert np.allclose(values, 2.0)
        assert cache.length(1) == 0

    def test_overflow_raises(self):
        cache = KVCache(1, 1, 2, 2)
        cache.append(0, np.zeros((1, 2, 2)), np.zeros((1, 2, 2)))
        with pytest.raises(ValueError):
            cache.append(0, np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))

    def test_truncate(self):
        cache = KVCache(1, 1, 2, 8)
        cache.append(0, np.ones((1, 4, 2)), np.ones((1, 4, 2)))
        cache.truncate(0, 2)
        assert cache.length(0) == 2
        with pytest.raises(ValueError):
            cache.truncate(0, 5)

    def test_append_layers_is_one_token_into_every_layer_from_first(self):
        cache = KVCache(3, 2, 4, 8)
        cache.append(0, np.ones((2, 1, 4)), np.ones((2, 1, 4)))
        k = np.arange(2 * 2 * 4, dtype=float).reshape(2, 2, 4)
        cache.append_layers(1, k, -k)
        assert [cache.length(layer) for layer in range(3)] == [1, 1, 1]
        for layer in (1, 2):
            keys, values = cache.view(layer)
            assert np.array_equal(keys[:, 0], k[layer - 1])
            assert np.array_equal(values[:, 0], -k[layer - 1])

    def test_append_layers_raises_on_overflow_and_unequal_lengths(self):
        kv = np.zeros((2, 1, 2))
        cache = KVCache(2, 1, 2, 1)
        cache.append_layers(0, kv, kv)
        with pytest.raises(ValueError, match="overflow"):
            cache.append_layers(0, kv, kv)
        ragged = KVCache(2, 1, 2, 8)
        ragged.append(1, np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))
        with pytest.raises(ValueError, match="unequal"):
            ragged.append_layers(0, kv, kv)
        assert [ragged.length(layer) for layer in range(2)] == [0, 1]

    def test_append_rejects_a_broadcastable_shape(self):
        """One head's ``[1, 1, 8]`` keys used to be copied into all four
        heads' slots; a mis-shaped K/V now raises, naming the shape wanted,
        and the cache is left as it was."""
        cache = KVCache(2, 4, 8, 16)
        good = np.ones((4, 1, 8))
        for k, v in ((np.ones((1, 1, 8)), good), (good, np.ones((4, 1, 1))),
                     (np.ones((4, 8)), np.ones((4, 8))), (good, np.ones((4, 2, 8)))):
            with pytest.raises(ValueError, match=r"expected \(4, \d, 8\)"):
                cache.append(0, k, v)
        assert cache.length(0) == 0
        cache.append(0, good, good)
        assert cache.length(0) == 1

    def test_append_layers_rejects_one_layers_row(self):
        """``append_layers(0, ...)`` given one layer's ``[1, 4, 8]`` row used
        to write it into every remaining layer; it now raises."""
        cache = KVCache(2, 4, 8, 16)
        row, both = np.ones((1, 4, 8)), np.ones((2, 4, 8))
        for k, v in ((row, row), (both, row), (both, np.ones((2, 1, 8))),
                     (np.ones((4, 8)), np.ones((4, 8)))):
            with pytest.raises(ValueError, match=r"expected \(2, 4, 8\)"):
                cache.append_layers(0, k, v)
        assert [cache.length(layer) for layer in range(2)] == [0, 0]
        cache.append_layers(0, both, both)
        cache.append_layers(1, row, row)
        assert [cache.length(layer) for layer in range(2)] == [1, 2]

    def test_nbytes_positive(self):
        assert KVCache(2, 2, 4, 8).nbytes() > 0

    def test_geometric_growth_preserves_contents(self):
        cache = KVCache(1, 1, 2, 64, initial_tokens=2)
        assert cache.capacity == 2
        for step in range(40):
            kv = np.full((1, 1, 2), float(step))
            cache.append(0, kv, kv)
        assert cache.length(0) == 40
        assert 40 <= cache.capacity <= 64
        keys, _ = cache.view(0)
        assert np.array_equal(keys[0, :, 0], np.arange(40, dtype=float))

    def test_growth_never_exceeds_max_tokens(self):
        cache = KVCache(1, 1, 2, 5, initial_tokens=2)
        cache.append(0, np.zeros((1, 5, 2)), np.zeros((1, 5, 2)))
        assert cache.capacity == 5
        with pytest.raises(ValueError):
            cache.append(0, np.zeros((1, 1, 2)), np.zeros((1, 1, 2)))

    def test_small_allocation_up_front(self):
        """The whole point of growth: a long-budget cache starts small."""
        small = KVCache(4, 4, 16, 4096, initial_tokens=32)
        assert small.nbytes() < KVCache(4, 4, 16, 4096, initial_tokens=4096).nbytes() / 16


class TestCausalAttention:
    def test_incremental_equals_full(self):
        """The load-bearing property: decoding token-by-token with the cache
        must reproduce the full-sequence forward bit-for-bit."""
        rng = np.random.default_rng(0)
        attn = CausalSelfAttention(16, 4, rng, max_positions=32)
        x = rng.standard_normal((6, 16))
        full_cache = KVCache(1, 4, 4, 32)
        full = attn.forward(x, 0, full_cache, np.arange(6))
        inc_cache = KVCache(1, 4, 4, 32)
        outs = [attn.forward(x[i : i + 1], 0, inc_cache, np.array([i])) for i in range(6)]
        assert np.allclose(np.concatenate(outs), full, atol=1e-10)

    def test_causality(self):
        """Changing a future token must not affect earlier outputs."""
        rng = np.random.default_rng(1)
        attn = CausalSelfAttention(16, 4, rng, max_positions=32)
        x = rng.standard_normal((5, 16))
        out_a = attn.forward(x, 0, KVCache(1, 4, 4, 32), np.arange(5))
        x2 = x.copy()
        x2[4] += 10.0
        out_b = attn.forward(x2, 0, KVCache(1, 4, 4, 32), np.arange(5))
        assert np.allclose(out_a[:4], out_b[:4])
        assert not np.allclose(out_a[4], out_b[4])

    def test_gqa_head_grouping(self):
        rng = np.random.default_rng(2)
        attn = CausalSelfAttention(16, 4, rng, n_kv_heads=2, max_positions=16)
        cache = KVCache(1, 2, 4, 16)
        out = attn.forward(rng.standard_normal((3, 16)), 0, cache, np.arange(3))
        assert out.shape == (3, 16)
        assert cache.view(0)[0].shape == (2, 3, 4)

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            CausalSelfAttention(15, 4, np.random.default_rng(0))
        with pytest.raises(ValueError):
            CausalSelfAttention(16, 4, np.random.default_rng(0), n_kv_heads=3)

    @pytest.mark.parametrize("lens", [
        [4, 1, 7],        # all-distinct lengths: per-sequence gather branch
        [5, 5, 5],        # one equal-length group: stacked GQA matmul branch
        [3, 6, 3, 6, 2],  # mixed groups and a singleton
    ])
    def test_decode_batch_matches_per_sequence_forward(self, lens):
        """Batched decode over ragged caches equals the per-sequence path —
        for the singleton gather and the same-length stacked branch alike,
        with grouped-query heads (group > 1) in play."""
        rng = np.random.default_rng(3)
        attn = CausalSelfAttention(16, 4, rng, n_kv_heads=2, max_positions=64)
        caches_a = [KVCache(1, 2, 4, 64) for _ in lens]
        caches_b = [KVCache(1, 2, 4, 64) for _ in lens]
        for i, n in enumerate(lens):
            x = rng.standard_normal((n, 16))
            attn.forward(x, 0, caches_a[i], np.arange(n))
            attn.forward(x, 0, caches_b[i], np.arange(n))
        xb = rng.standard_normal((len(lens), 16))
        batch = attn.decode_batch(xb, 0, caches_a, np.asarray(lens))
        single = np.vstack([
            attn.forward(xb[i : i + 1], 0, caches_b[i], np.asarray([lens[i]]))
            for i in range(len(lens))
        ])
        assert np.allclose(batch, single, atol=1e-12)
        for ca, cb in zip(caches_a, caches_b):
            ka, va = ca.view(0)
            kb, vb = cb.view(0)
            assert np.allclose(ka, kb, atol=1e-12) and np.allclose(va, vb, atol=1e-12)

    def test_stacked_qkv_layout_cached(self):
        rng = np.random.default_rng(4)
        attn = CausalSelfAttention(16, 4, rng, max_positions=16)
        assert attn.wqkv.flags["C_CONTIGUOUS"]
        assert np.array_equal(
            attn.wqkv, np.concatenate([attn.wq, attn.wk, attn.wv], axis=1))


class TestTinyTransformer:
    def test_layer_stepping_equals_forward_all(self):
        lm = TinyTransformerLM(CFG, seed=0)
        tokens = np.array([1, 5, 9, 2])
        c1 = lm.new_cache(16)
        full = lm.forward_all(tokens, c1, np.arange(4))
        c2 = lm.new_cache(16)
        h = lm.embed(tokens)
        for layer, block in enumerate(lm.layers):
            h = block.forward(h, layer, c2, np.arange(4))
        assert np.allclose(full, h, atol=1e-12)

    def test_lm_head_slice_matches_full(self):
        lm = TinyTransformerLM(CFG, seed=0)
        h = np.random.default_rng(0).standard_normal(CFG.dim)
        ids = np.array([3, 7, 11])
        assert np.allclose(lm.lm_head_slice(h, ids), lm.lm_head(h)[ids])

    def test_deterministic_by_seed(self):
        a = TinyTransformerLM(CFG, seed=5)
        b = TinyTransformerLM(CFG, seed=5)
        assert np.array_equal(a.embedding, b.embedding)

    def test_negative_position_raises_before_any_cache_write(self):
        lm = TinyTransformerLM(CFG, seed=0)
        cache = lm.new_cache(16)
        with pytest.raises(ValueError, match="position -1"):
            lm.layer_decode_batch(lm.embed(np.asarray([1])), 0, [cache], np.asarray([-1]))
        with pytest.raises(ValueError, match="position -1"):
            lm.forward_all(np.asarray([1, 2]), cache, np.asarray([-1, 0]))
        assert [cache.length(layer) for layer in range(CFG.n_layers)] == [0] * CFG.n_layers


class TestOneDecodeKernel:
    """``layer_decode_batch`` is the single-token decode kernel at every
    batch size; the prompt path (``_DecoderLayer.forward`` over ``_attend``)
    is the arithmetic it must reproduce."""

    SHAPES = {
        "trained": trained_transformer_config(),
        # The wide benchmark rig's layer geometry, two layers deep.
        "wide": TransformerConfig(vocab_size=64, dim=512, n_layers=2, n_heads=8,
                                  intermediate_dim=1376, max_positions=256),
        "gqa": TransformerConfig(vocab_size=64, dim=64, n_layers=3, n_heads=4,
                                 n_kv_heads=2, intermediate_dim=96, max_positions=256),
    }
    LMS = {name: TinyTransformerLM(cfg, seed=7) for name, cfg in SHAPES.items()}

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(SHAPES)),
           prefix=st.one_of(st.sampled_from([0, 63, 64, 127, 128, 255]),
                            st.integers(0, 255)),
           steps=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_decode_kernel_is_the_prompt_paths_arithmetic(self, name, prefix, steps, seed):
        """Random single-token steps after a random cached prefix, across the
        ``KVCache`` growth boundaries (64 → 128 → 256) and up to
        ``max_positions − 1``.  With MHA both paths run the same kernels and
        match bit for bit; with GQA the kernel's per-group matmul replaces
        the prompt path's repeated heads, which changes the BLAS kernel, so
        the bound is float32's 1e-5 (relative, and absolute near zero)."""
        lm = self.LMS[name]
        cfg = lm.cfg
        rng = np.random.default_rng(seed)
        kv_heads, head_dim = cfg.n_kv_heads or cfg.n_heads, cfg.dim // cfg.n_heads
        kernel, prompt = lm.new_cache(cfg.max_positions), lm.new_cache(cfg.max_positions)
        for layer in range(cfg.n_layers):
            k, v = rng.standard_normal((2, kv_heads, prefix, head_dim)).astype(INFERENCE_DTYPE)
            kernel.append(layer, k, v)
            prompt.append(layer, k, v)

        def same(got, want):
            if name == "gqa":
                np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-5)
            else:
                assert np.array_equal(got, want)

        for step in range(min(steps, cfg.max_positions - prefix)):
            position = np.asarray([prefix + step])
            fast = slow = lm.embed(rng.integers(0, cfg.vocab_size, 1))
            for layer, block in enumerate(lm.layers):
                fast = lm.layer_decode_batch(fast, layer, [kernel], position)
                slow = block.forward(slow, layer, prompt, position)
                same(fast, slow)
        for layer in range(cfg.n_layers):
            assert kernel.length(layer) == prompt.length(layer)
            for got, want in zip(kernel.view(layer), prompt.view(layer)):
                same(got, want)


@pytest.mark.slow
class TestTrainedDecodePinned:
    """Batch-1 decode on the session's trained rig, pinned as literals
    measured while batch-1 layers still ran through the prompt path: moving
    them onto the decode kernel moved no token and no exit."""

    PROMPTS = [[3, 1, 4, 1, 5], [9, 2, 6, 5, 3, 5, 8, 9, 7], [2, 7, 1, 8, 2, 8, 1]]
    SPECEE = [
        ([63, 47, 28, 58, 63, 63, 63, 63, 63, 63, 63, 47, 30, 47, 40, 63, 58, 18, 63, 40,
          28, 28, 50, 28],
         [3, 2, 2, 7, 3, 2, 2, 2, 2, 3, 3, 7, 2, 2, 3, 7, 7, 7, 3, 7, 2, 3, 2, 2]),
        ([0, 47, 0, 47, 2, 0, 38, 2, 0, 16, 63, 58, 0, 10, 15, 1, 61, 63, 63, 63, 63, 47,
          63, 63],
         [7, 7, 7, 2, 2, 7, 7, 3, 7, 7, 2, 7, 7, 7, 7, 2, 2, 2, 2, 2, 3, 7, 3, 7]),
        ([61, 2, 63, 28, 63, 28, 58, 63, 63, 40, 53, 23, 10, 33, 47, 8, 39, 28, 28, 58, 63,
          63, 40, 0],
         [7, 7, 2, 2, 3, 7, 2, 2, 2, 7, 7, 7, 3, 2, 7, 7, 2, 7, 2, 7, 2, 2, 7, 7]),
    ]
    DENSE = [
        [63, 63, 63, 63, 63, 63, 32, 28, 58, 63, 40, 28, 50, 28, 26, 63, 30, 47, 47, 26,
         63, 45, 63, 45],
        [0, 47, 0, 47, 2, 0, 38, 57, 31, 8, 63, 58, 23, 13, 45, 57, 31, 63, 35, 52, 28, 13,
         63, 63],
        [61, 2, 63, 28, 63, 28, 58, 63, 48, 42, 53, 23, 10, 28, 58, 2, 15, 37, 63, 63, 63,
         47, 30, 50],
    ]

    def test_specee_generate_tokens_and_exit_layers(self, trained_transformer_rig):
        engine = trained_transformer_rig.specee_engine(
            "offline", config=SpecEEConfig(scheduler="offline", exit_threshold=0.3),
            offline_top_k=2)
        for prompt, (tokens, exits) in zip(self.PROMPTS, self.SPECEE):
            result = engine.generate(prompt, 24)
            assert (result.tokens, result.exit_layers) == (tokens, exits)

    def test_generate_dense_tokens(self, trained_transformer_rig):
        model = trained_transformer_rig.model_factory()
        for prompt, tokens in zip(self.PROMPTS, self.DENSE):
            assert model.generate_dense(model.start(prompt), 24) == tokens


def per_layer_kv_fill(lm, hidden, first_layers, caches, positions):
    """The per-layer early-exit fill that ``TinyTransformerLM.kv_fill``
    replaced, kept as its reference: for each layer, norm the exit hiddens of
    the rows that skipped it, project through that layer's K/V weights,
    rotate the keys and append sequence by sequence."""
    from repro.nn.rope import apply_rope

    for layer, block in enumerate(lm.layers):
        idx = [i for i, first in enumerate(first_layers) if first <= layer]
        if not idx:
            continue
        attn = block.attn
        x = block.attn_norm.forward_np(hidden[idx])
        shape = (len(idx), attn.n_kv_heads, attn.head_dim)
        k, v = (x @ attn.wk).reshape(shape), (x @ attn.wv).reshape(shape)
        cos, sin = attn.rope.tables_for(positions[idx])
        k = apply_rope(k, cos[:, None, :], sin[:, None, :])
        for row, i in enumerate(idx):
            caches[i].append(layer, k[row][:, None, :], v[row][:, None, :])


class TestFusedKVFill:
    """``commit``/``commit_batch`` in ``"propagate"`` mode (one fused fill of
    every skipped layer) against the per-layer fill they used to run."""

    MODELS = {cfg: TransformerLayeredLM(cfg, seed=3, max_tokens=64,
                                        kv_fill="propagate")
              for cfg in (CFG, GQA_CFG)}

    def decode_to(self, model, states, exits):
        hidden = model.begin_step_batch(states)
        for layer in range(max(exits) + 1):
            live = [i for i, e in enumerate(exits) if e >= layer]
            hidden[live] = model.layer_forward_batch(
                [states[i] for i in live], layer, hidden[live])
        return hidden

    @settings(max_examples=60, deadline=None)
    @given(cfg=st.sampled_from([CFG, GQA_CFG]),
           exits=st.lists(st.integers(0, CFG.n_layers - 1), min_size=1, max_size=6),
           seed=st.integers(0, 2**16))
    def test_commit_batch_leaves_the_kv_of_the_per_layer_fill(self, cfg, exits, seed):
        """Rows exit at random depths — all at layer 0, none at all, a lone
        row — over two decode steps.  The stacked matmul may pick another
        BLAS kernel than the per-layer GEMMs, so the bound is accumulation
        order on O(1) values, not bit equality."""
        model = self.MODELS[cfg]
        rng = np.random.default_rng(seed)
        prompts = [rng.integers(0, cfg.vocab_size, int(rng.integers(1, 6))).tolist()
                   for _ in exits]
        fused, reference = model.start_batch(prompts), model.start_batch(prompts)
        for _ in range(2):
            self.decode_to(model, fused, exits)
            model.commit_batch(fused, [1] * len(exits), exits)
            hidden = self.decode_to(model, reference, exits)
            early = [i for i, e in enumerate(exits) if e + 1 < cfg.n_layers]
            per_layer_kv_fill(
                model.lm, hidden[early], [exits[i] + 1 for i in early],
                [reference[i].cache for i in early],
                np.asarray([len(reference[i].context) - 1 for i in early]))
            for state in reference:
                state.context.append(1)
        for got, want, prompt in zip(fused, reference, prompts):
            for layer in range(cfg.n_layers):
                assert got.cache.length(layer) == len(prompt) + 2
                for a, b in zip(got.cache.view(layer), want.cache.view(layer)):
                    np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("cfg", [CFG, GQA_CFG])
    def test_scalar_commit_uses_the_same_fill(self, cfg):
        model = self.MODELS[cfg]
        state, reference = model.start([5, 9, 2]), model.start([5, 9, 2])
        for s in (state, reference):
            model.begin_step(s)
            model.layer_forward(s, 0)
        per_layer_kv_fill(model.lm, reference.hidden, [1], [reference.cache],
                          np.asarray([2]))
        model.commit(state, 7, 0)
        for layer in range(cfg.n_layers):
            assert state.cache.length(layer) == 4
            for a, b in zip(state.cache.view(layer), reference.cache.view(layer)):
                np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_layers_share_one_qkv_storage_also_after_pickling(self):
        """Each layer's ``wqkv`` is a slice of the stack the fill multiplies
        (nothing stored twice, nothing to go stale); views do not survive
        pickling, so loading rebuilds them."""
        import pickle

        for lm in (self.MODELS[CFG].lm, pickle.loads(pickle.dumps(self.MODELS[CFG].lm))):
            for layer, block in enumerate(lm.layers):
                assert np.shares_memory(block.attn.wqkv, lm._wqkv[layer])
                assert block.attn.wqkv.flags["C_CONTIGUOUS"]
            assert np.array_equal(lm.lm_head_rows, lm.lm_head_weight.T)

    def test_refresh_is_the_one_invalidation_point(self):
        """Replacing weights and refreshing — at either level — changes what
        the fill writes and what the speculative head reads.  The model-level
        refresh casts a float64 replacement to the inference dtype, and a
        second refresh copies and rebinds no weight."""
        lm = TinyTransformerLM(CFG, seed=4)
        hidden = np.random.default_rng(0).standard_normal((1, CFG.dim)).astype(INFERENCE_DTYPE)

        def filled():
            cache = lm.new_cache(4)
            lm.kv_fill(hidden, [0], [cache], np.asarray([0]))
            return [np.array(x) for layer in range(CFG.n_layers)
                    for x in cache.view(layer)]

        def weights():
            arrays = [lm.embedding, lm.lm_head_weight, lm.final_norm.weight.data]
            for block in lm.layers:
                attn, ffn = block.attn, block.ffn
                arrays += [attn.wq, attn.wk, attn.wv, attn.wo, attn.rope.cos,
                           attn.rope.sin, block.attn_norm.weight.data,
                           block.ffn_norm.weight.data, ffn.gate.weight.data,
                           ffn.up.weight.data, ffn.down.weight.data]
            return arrays

        before = filled()
        rng = np.random.default_rng(1)
        for block in lm.layers:
            block.attn.wk = rng.standard_normal(block.attn.wk.shape).astype(INFERENCE_DTYPE)
            block.attn.wv = rng.standard_normal(block.attn.wv.shape).astype(INFERENCE_DTYPE)
            block.attn.refresh_stacked_weights()
        after = filled()
        assert not any(np.allclose(a, b) for a, b in zip(before, after))
        reference = lm.new_cache(4)
        per_layer_kv_fill(lm, hidden, [0], [reference], np.asarray([0]))
        for layer in range(CFG.n_layers):
            for a, b in zip(after[2 * layer:], reference.view(layer)):
                np.testing.assert_allclose(a, b, rtol=1e-5, atol=1e-6)
        lm.lm_head_weight = rng.standard_normal(lm.lm_head_weight.shape)
        lm.refresh_stacked_weights()
        assert all(w.dtype == INFERENCE_DTYPE for w in weights())
        ids = np.array([3, 7, 11])
        assert np.allclose(lm.lm_head_slice(hidden[0], ids), lm.lm_head(hidden[0])[ids])
        kept, derived = weights(), [np.array(lm._wqkv), np.array(lm.lm_head_rows)]
        lm.refresh_stacked_weights()
        assert all(a is b for a, b in zip(weights(), kept))
        assert np.array_equal(lm._wqkv, derived[0])
        assert np.array_equal(lm.lm_head_rows, derived[1])


class TestRaggedPrefill:
    """``start_batch`` (one ragged pass: shared GEMMs, per-sequence attention)
    against per-prompt ``start``, which is its one-element case."""

    MODELS = {cfg: TransformerLayeredLM(cfg, seed=1, max_tokens=64)
              for cfg in (CFG, GQA_CFG)}

    @settings(max_examples=40, deadline=None)
    @given(cfg=st.sampled_from([CFG, GQA_CFG]),
           lengths=st.lists(st.integers(1, 9), min_size=1, max_size=7),
           seed=st.integers(0, 2**16))
    def test_start_batch_leaves_the_kv_of_per_prompt_start(self, cfg, lengths, seed):
        """Every layer's K/V after one ragged pass equals per-prompt
        prefill.  A lone prompt takes the same code path and must match bit
        for bit; in a real batch the GEMMs see more rows, and BLAS picks its
        kernel by row count (gemv for a 1-row prompt, small-matrix kernels
        below ~1e6 multiply-adds), so the accumulation order — not the math —
        may differ: the bound is a few hundred float64 ulps of O(1) values."""
        model = self.MODELS[cfg]
        rng = np.random.default_rng(seed)
        prompts = [rng.integers(0, cfg.vocab_size, n).tolist() for n in lengths]
        batch = model.start_batch(prompts)
        assert [s.context for s in batch] == prompts
        for prompt, state in zip(prompts, batch):
            alone = model.start(prompt)
            assert state.prompt_len == alone.prompt_len == len(prompt)
            for layer in range(cfg.n_layers):
                assert state.cache.length(layer) == len(prompt)
                for got, want in zip(state.cache.view(layer), alone.cache.view(layer)):
                    if len(prompts) == 1:
                        assert np.array_equal(got, want)
                    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_ragged_pass_equals_forward_all_hidden(self):
        """The pass returns every row's final hidden state — the same values
        ``forward_all`` computes one sequence at a time."""
        lm = TinyTransformerLM(GQA_CFG, seed=2)
        prompts = [[3, 1, 4, 1, 5], [9], [2, 6, 5]]
        hidden = lm.prefill_ragged(prompts, [lm.new_cache(16) for _ in prompts])
        want = np.vstack([
            lm.forward_all(np.asarray(p), lm.new_cache(16), np.arange(len(p)))
            for p in prompts])
        np.testing.assert_allclose(hidden, want, rtol=0, atol=1e-12)

    def test_start_batch_validates_like_start(self):
        model = self.MODELS[CFG]
        with pytest.raises(ValueError, match="at least one token"):
            model.start_batch([[1, 2], []])
        with pytest.raises(ValueError, match="scripted"):
            model.start_batch([[1], [2]], [None, [3]])


class TestInferenceDtype:
    """The inference stack computes and stores in ``INFERENCE_DTYPE`` end to
    end.  One NumPy-scalar divisor (NEP 50 lets it promote an array) or one
    buffer allocated without a dtype would quietly put the hot path back on
    float64; this is the guard."""

    EXITY = SpecEEConfig(exit_threshold=0.35, min_exit_layer=1, scheduler="all",
                         verify_on_exit=False)

    @pytest.mark.parametrize("cfg", [GQA_CFG, trained_transformer_config()],
                             ids=["gqa", "trained_shapes"])
    def test_the_hot_path_never_leaves_the_inference_dtype(self, cfg, monkeypatch):
        dtype = INFERENCE_DTYPE
        # Every attention score matrix and its softmax, including those a
        # preallocated output buffer would silently narrow back to float32.
        scores = []

        def spy(x, axis=-1):
            out = softmax(x, axis)
            scores.extend((x.dtype, out.dtype))
            return out

        monkeypatch.setattr(attention, "softmax", spy)
        model = TransformerLayeredLM(cfg, seed=0, max_tokens=64, kv_fill="propagate")
        lm = model.lm
        caches = [lm.new_cache(64) for _ in range(2)]
        assert lm.prefill_ragged([[1, 2, 3], [4, 5]], caches).dtype == dtype
        positions = np.asarray([3, 2])
        hidden = lm.layer_decode_batch(lm.embed(np.asarray([6, 7])), 0, caches, positions)
        assert hidden.dtype == dtype
        lm.kv_fill(hidden, [1, 1], caches, positions)
        assert lm.lm_head(hidden).dtype == dtype
        assert lm.lm_head_slice(hidden, np.asarray([1, 2])).dtype == dtype

        engine = SpecEEEngine(
            model, Speculator(NGramOracle(cfg.vocab_size, seed=1), k=4),
            PredictorBank(cfg.n_layers, self.EXITY.feature_dim, hidden_dim=16),
            self.EXITY)
        states, results = zip(*engine.prefill_batch([[1, 2, 3], [4, 5]]))
        schedulers = [make_scheduler("all", cfg.n_layers) for _ in states]
        model.layer_forward_batch(states, 0, model.begin_step_batch(states))
        assert all(state.hidden.dtype == dtype for state in states)
        model.commit_batch(states, [1, 2], [0, 0])  # an exit at layer 0: kv_fill
        for _ in range(3):
            records = engine.step_batch(states, results, schedulers, capture_hidden=True)
            assert all(record.hidden.dtype == dtype for record in records)
        for cache in caches + [state.cache for state in states]:
            assert cache._k.dtype == cache._v.dtype == dtype
        assert scores and all(score == dtype for score in scores)

        # Swap-out / swap-in is bit-exact in the inference dtype, and the
        # CRC still catches one flipped float32 value.
        state = states[0]
        before = [np.array(x) for layer in range(cfg.n_layers)
                  for x in state.cache.view(layer)]
        model.swap_out_state(state)
        assert state.host_kv["k"].dtype == state.host_kv["v"].dtype == dtype
        model.swap_in_state(state)
        after = [x for layer in range(cfg.n_layers) for x in state.cache.view(layer)]
        assert all(a.dtype == dtype and np.array_equal(a, b)
                   for a, b in zip(after, before))
        blob = state.cache.swap_out()
        blob["k"].view(np.uint32).flat[0] ^= 1  # one ulp of one value
        with pytest.raises(KVCorruptionError):
            state.cache.swap_in(blob)


class TestTrainableTransformer:
    def test_loss_decreases(self):
        cfg = TransformerConfig(vocab_size=24, dim=16, n_layers=1, n_heads=2,
                                intermediate_dim=24, max_positions=16)
        lm = TrainableTransformerLM(cfg, seed=0)
        # Learnable pattern: next token = (token + 1) % vocab.
        seq = (np.arange(9) * 1) % cfg.vocab_size
        batch = np.stack([seq, (seq + 3) % cfg.vocab_size])
        inputs, targets = batch[:, :-1], batch[:, 1:]
        opt = Adam(lm.parameters(), lr=3e-2)
        losses = []
        for _ in range(25):
            opt.zero_grad()
            logits = lm(inputs)
            loss = cross_entropy(logits.reshape(-1, cfg.vocab_size), targets.reshape(-1))
            loss.backward()
            opt.step()
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.5

    def test_rejects_too_long_sequence(self):
        cfg = TransformerConfig(vocab_size=8, dim=8, n_layers=1, n_heads=2,
                                intermediate_dim=8, max_positions=4)
        lm = TrainableTransformerLM(cfg)
        with pytest.raises(ValueError):
            lm(np.zeros((1, 5), dtype=int))
