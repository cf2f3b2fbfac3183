"""Tests for layers (autograd vs numpy paths) and rotary embeddings."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nn.attention import INFERENCE_DTYPE
from repro.nn.autograd import Tensor
from repro.nn.layers import Embedding, Linear, RMSNorm, SwiGLU
from repro.nn.rope import RotaryEmbedding, apply_rope
from repro.nn.transformer import TinyTransformerLM, TransformerConfig, rope_constants
from repro.utils.mathx import softmax


class TestLinear:
    def test_paths_agree(self):
        rng = np.random.default_rng(0)
        layer = Linear(6, 4, rng)
        x = rng.standard_normal((3, 6))
        assert np.allclose(layer(Tensor(x)).data, layer.forward_np(x))

    def test_no_bias(self):
        layer = Linear(4, 2, np.random.default_rng(0), bias=False)
        assert layer.bias is None
        assert np.allclose(layer.forward_np(np.zeros((1, 4))), 0.0)

    def test_parameters_collected(self):
        layer = Linear(4, 2, np.random.default_rng(0))
        assert len(layer.parameters()) == 2


class TestEmbedding:
    def test_lookup(self):
        emb = Embedding(10, 4, np.random.default_rng(0))
        ids = np.array([1, 1, 9])
        out = emb.forward_np(ids)
        assert out.shape == (3, 4)
        assert np.array_equal(out[0], out[1])

    def test_paths_agree(self):
        emb = Embedding(10, 4, np.random.default_rng(0))
        ids = np.array([[0, 3], [2, 5]])
        assert np.allclose(emb(ids).data, emb.forward_np(ids))


class TestRMSNorm:
    def test_unit_rms_output(self):
        norm = RMSNorm(8)
        x = np.random.default_rng(0).standard_normal((5, 8)) * 10
        out = norm.forward_np(x)
        rms = np.sqrt(np.mean(out**2, axis=-1))
        assert np.allclose(rms, 1.0, atol=1e-3)

    def test_paths_agree(self):
        norm = RMSNorm(8)
        x = np.random.default_rng(1).standard_normal((3, 8))
        assert np.allclose(norm(Tensor(x)).data, norm.forward_np(x), atol=1e-9)

    def test_scale_applied(self):
        norm = RMSNorm(4)
        norm.weight.data[:] = 2.0
        out = norm.forward_np(np.ones((1, 4)))
        assert np.allclose(out, 2.0)


class TestSwiGLU:
    def test_paths_agree(self):
        rng = np.random.default_rng(2)
        ffn = SwiGLU(6, 12, rng)
        x = rng.standard_normal((4, 6))
        assert np.allclose(ffn(Tensor(x)).data, ffn.forward_np(x), atol=1e-9)

    def test_zero_input_zero_output(self):
        ffn = SwiGLU(4, 8, np.random.default_rng(0))
        assert np.allclose(ffn.forward_np(np.zeros((1, 4))), 0.0)


class TestRope:
    def test_rejects_odd_head_dim(self):
        with pytest.raises(ValueError):
            RotaryEmbedding(7)

    def test_position_zero_identity(self):
        rope = RotaryEmbedding(8, max_positions=16)
        cos, sin = rope.tables_for(np.array([0]))
        x = np.random.default_rng(0).standard_normal((1, 8))
        assert np.allclose(apply_rope(x, cos, sin), x)

    @given(st.integers(min_value=0, max_value=63))
    @settings(max_examples=20, deadline=None)
    def test_norm_preserved(self, pos):
        rope = RotaryEmbedding(16, max_positions=64)
        cos, sin = rope.tables_for(np.array([pos]))
        x = np.random.default_rng(pos).standard_normal((1, 16))
        out = apply_rope(x, cos, sin)
        assert np.linalg.norm(out) == pytest.approx(np.linalg.norm(x))

    def test_relative_property(self):
        """Dot products of rotated q/k depend only on relative offset."""
        rope = RotaryEmbedding(8, max_positions=128)
        rng = np.random.default_rng(3)
        q = rng.standard_normal(8)
        k = rng.standard_normal(8)

        def score(pq, pk):
            cq, sq = rope.tables_for(np.array([pq]))
            ck, sk = rope.tables_for(np.array([pk]))
            out = apply_rope(q[None], cq, sq) @ apply_rope(k[None], ck, sk).T
            return float(out[0, 0])

        assert score(5, 3) == pytest.approx(score(25, 23), abs=1e-9)

    def test_table_overflow_raises(self):
        rope = RotaryEmbedding(8, max_positions=4)
        with pytest.raises(ValueError):
            rope.tables_for(np.array([4]))

    def test_negative_position_raises(self):
        """A negative position used to index the table from its end, so
        ``[-1]`` rotated at the last row's angle without a word."""
        rope = RotaryEmbedding(8, max_positions=16)
        for positions in ([-1], [3, -2, 5], [-16], [np.iinfo(np.int64).min]):
            with pytest.raises(ValueError, match="position -"):
                rope.tables_for(np.array(positions))
        with pytest.raises(ValueError, match="position 16 "):
            rope.tables_for(np.array([0, 16]))
        cos, sin = rope.tables_for(np.array([0, 15]))
        assert np.array_equal(cos, rope.cos[[0, 15]]) and np.array_equal(sin, rope.sin[[0, 15]])


class TestTrimsAreBitIdentical:
    """Each inference-path trim computes exactly the formula it replaced."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rmsnorm_equals_the_mean_form(self, dtype):
        rng = np.random.default_rng(0)
        for dim, rows in ((64, 20_000), (100, 20_000), (172, 10_000), (512, 4_000)):
            norm = RMSNorm(dim)
            norm.weight.data = rng.standard_normal(dim).astype(dtype)
            scale = np.logspace(-3, 3, rows)[:, None]
            x = (rng.standard_normal((rows, dim)) * scale).astype(dtype)
            want = x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + norm.eps) * norm.weight.data
            got = norm.forward_np(x)
            assert got.dtype == dtype and np.array_equal(got, want)
            for row in range(0, rows, rows // 64):  # a lone row takes scalar math
                assert np.array_equal(norm.forward_np(x[row]), want[row])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_equals_the_max_sum_form(self, dtype):
        rng = np.random.default_rng(1)
        x = (rng.standard_normal((4, 8, 3, 130)) * 20).astype(dtype)
        masked = x.copy()  # causal-style masked scores; no row is all masked
        masked[..., 100:][rng.random((4, 8, 3, 30)) < 0.5] = -np.inf
        for scores, axis in ((masked, -1), (x, 0), (x, 2)):
            exps = np.exp(scores - np.max(scores, axis=axis, keepdims=True))
            want = exps / np.sum(exps, axis=axis, keepdims=True)
            got = softmax(scores, axis)
            assert got.dtype == dtype and np.array_equal(got, want)

    def test_swiglu_equals_the_clip_form(self):
        rng = np.random.default_rng(2)
        ffn = SwiGLU(16, 32, rng)
        for linear in (ffn.gate, ffn.up):
            linear.weight.data = linear.weight.data.astype(np.float32)
        # A 0/1 down projection passes 16 gated units through exactly, so a
        # clamp that differed only in the sigmoid's far tail would show.
        ffn.down.weight.data = np.eye(32, 16, dtype=np.float32)
        x = (rng.standard_normal((4_000, 16)) * np.logspace(-3, 4, 4_000)[:, None])
        x = x.astype(np.float32)
        with np.errstate(over="raise"):
            g = ffn.gate.forward_np(x)
            assert g.min() <= -1e4 and g.max() >= 1e4
            gated = g * (1.0 / (1.0 + np.exp(-np.clip(g, -60, 60)))) * ffn.up.forward_np(x)
            want = ffn.down.forward_np(gated)
            got = ffn.forward_np(x)
        assert got.dtype == np.float32 and np.array_equal(got, want)

    def test_one_rotation_of_q_and_k_equals_two(self):
        """``decode_batch`` rotates the ``[B, H + KVH, head_dim]`` Q|K block
        at once; the keys it caches are the separately rotated ones."""
        cfg = TransformerConfig(vocab_size=8, dim=32, n_layers=1, n_heads=4, n_kv_heads=2,
                                intermediate_dim=8, max_positions=64)
        lm = TinyTransformerLM(cfg, seed=3)
        attn = lm.layers[0].attn
        rng = np.random.default_rng(3)
        positions = np.asarray([0, 17, 63])
        cos, sin = (t[:, None, :] for t in attn.rope.tables_for(positions))
        qk = rng.standard_normal((3, 4 + 2, 8)).astype(INFERENCE_DTYPE)
        two = np.concatenate([apply_rope(qk[:, :4], cos, sin),
                              apply_rope(qk[:, 4:], cos, sin)], axis=1)
        assert np.array_equal(apply_rope(qk, cos, sin), two)

        x = rng.standard_normal((3, cfg.dim)).astype(INFERENCE_DTYPE)
        caches = [lm.new_cache(64) for _ in positions]
        attn.decode_batch(x, 0, caches, positions)
        keys = apply_rope((x @ attn.wqkv)[:, 32:48].reshape(3, 2, 8), cos, sin)
        for i, cache in enumerate(caches):
            assert np.array_equal(cache.view(0)[0][:, 0], keys[i])

    @settings(max_examples=60, deadline=None)
    @given(dtype=st.sampled_from([np.float32, np.float64]),
           batch=st.sampled_from([1, 2, 5, 16]),
           heads=st.sampled_from([(4, 4), (4, 2), (8, 1), (1, 1)]),
           half=st.sampled_from([1, 4, 16]),
           seed=st.integers(0, 2**16))
    def test_pair_swap_rotation_equals_even_odd_and_rope_constants(
            self, dtype, batch, heads, half, seed):
        """``apply_rope``'s ``x * C + swap(x) * S`` is the even/odd pair
        rotation, and the training stack's ``x * C + (x @ P) * S`` from
        :func:`rope_constants`, bit for bit — over a decode batch's Q|K heads
        (GQA included) at positions up to the table's last row."""
        head_dim, max_positions = 2 * half, 48
        rng = np.random.default_rng(seed)
        rope = RotaryEmbedding(head_dim, max_positions=max_positions)
        cos_t, sin_t = rope.cos.astype(dtype), rope.sin.astype(dtype)
        positions = rng.integers(0, max_positions, batch)
        positions[0] = max_positions - 1
        x = (rng.standard_normal((batch, sum(heads), head_dim))
             * np.logspace(-3, 3, batch)[:, None, None]).astype(dtype)
        cos, sin = cos_t[positions][:, None], sin_t[positions][:, None]
        got = apply_rope(x, cos, sin)
        # The even/odd form, from the per-pair angles the tables hold.
        c, s = cos[..., 0::2], sin[..., 1::2]
        want = np.empty_like(x)
        want[..., 0::2] = x[..., 0::2] * c - x[..., 1::2] * s
        want[..., 1::2] = x[..., 0::2] * s + x[..., 1::2] * c
        assert got.dtype == dtype and np.array_equal(got, want)
        angles = np.outer(np.arange(max_positions),
                          1.0 / (10000.0 ** (np.arange(0, head_dim, 2) / head_dim)))
        assert np.array_equal(rope.cos[:, 0::2], np.cos(angles))
        assert np.array_equal(rope.sin[:, 1::2], np.sin(angles))
        assert np.array_equal(-sin[..., 0::2], s)
        big_c, big_s, perm = (t.astype(dtype) for t in rope_constants(head_dim, max_positions))
        tape = x * big_c[positions][:, None] + (x @ perm) * big_s[positions][:, None]
        assert np.array_equal(tape, got)
