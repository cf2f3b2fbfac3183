"""Tests for the paged KV cache (the vLLM substrate)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serving.paged_kv import BlockAllocator, PagedKVCache


class TestPagedKV:
    def test_allocator_exhaustion_and_free(self):
        alloc = BlockAllocator(2)
        a = alloc.allocate()
        alloc.allocate()
        with pytest.raises(MemoryError):
            alloc.allocate()
        alloc.free(a)
        assert alloc.allocate() == a
        with pytest.raises(ValueError):
            alloc.free(99)

    def test_gather_matches_contiguous_reference(self):
        rng = np.random.default_rng(0)
        cache = PagedKVCache(n_blocks=8, block_size=3, n_kv_heads=2, head_dim=4)
        cache.add_sequence(0)
        ref_k, ref_v = [], []
        for _ in range(8):  # crosses block boundaries
            k = rng.standard_normal((2, 4))
            v = rng.standard_normal((2, 4))
            cache.append(0, k, v)
            ref_k.append(k)
            ref_v.append(v)
        ks, vs = cache.gather(0)
        assert np.allclose(ks, np.stack(ref_k))
        assert np.allclose(vs, np.stack(ref_v))

    @given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=30))
    @settings(max_examples=25, deadline=None)
    def test_multi_sequence_isolation(self, ops):
        rng = np.random.default_rng(42)
        cache = PagedKVCache(n_blocks=64, block_size=2, n_kv_heads=1, head_dim=2)
        reference = {s: [] for s in range(3)}
        for s in range(3):
            cache.add_sequence(s)
        for seq in ops:
            kv = rng.standard_normal((1, 2))
            cache.append(seq, kv, kv)
            reference[seq].append(kv)
        for s in range(3):
            ks, _ = cache.gather(s)
            assert len(ks) == len(reference[s])
            if reference[s]:
                assert np.allclose(ks, np.stack(reference[s]))

    def test_free_sequence_releases_blocks(self):
        cache = PagedKVCache(n_blocks=2, block_size=1, n_kv_heads=1, head_dim=2)
        cache.add_sequence(0)
        cache.append(0, np.zeros((1, 2)), np.zeros((1, 2)))
        cache.append(0, np.zeros((1, 2)), np.zeros((1, 2)))
        assert cache.allocator.free_blocks == 0
        cache.free_sequence(0)
        assert cache.allocator.free_blocks == 2

    def test_utilization_high_for_paged(self):
        cache = PagedKVCache(n_blocks=16, block_size=4, n_kv_heads=1, head_dim=2)
        cache.add_sequence(0)
        for _ in range(9):
            cache.append(0, np.zeros((1, 2)), np.zeros((1, 2)))
        assert cache.utilization() == pytest.approx(9 / 12)

    def test_duplicate_sequence_rejected(self):
        cache = PagedKVCache(4, 2, 1, 2)
        cache.add_sequence(1)
        with pytest.raises(ValueError):
            cache.add_sequence(1)

    def test_bad_kv_shape_rejected(self):
        cache = PagedKVCache(4, 2, 2, 4)
        cache.add_sequence(0)
        with pytest.raises(ValueError):
            cache.append(0, np.zeros((1, 4)), np.zeros((1, 4)))
