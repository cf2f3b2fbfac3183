"""Prefix sharing end to end: radix-tree adoption, copy-on-write isolation
(a hypothesis property pins bit-exactness against an unshared reference),
LRU leaf eviction, chat-trace structure, session-affinity routing,
per-tenant fairness, and token identity on the real serving engines."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.harness import build_rig
from repro.hardware.ledger import Event
from repro.serving import (
    FairTenantPolicy,
    PagedKVCache,
    Request,
    SessionAffinityRouting,
    chat_trace,
    prompt_kv,
)

RIG_KWARGS = dict(train_prompts=6, train_tokens=30, predictor_hidden=128, epochs=10)

HEADS, DIM = 2, 3


def make_cache(n_blocks=32, block_size=4, prefix_share=True):
    return PagedKVCache(n_blocks=n_blocks, block_size=block_size,
                        n_kv_heads=HEADS, head_dim=DIM,
                        prefix_share=prefix_share)


def reference_fill(cache, seq_id, prompt, decode=()):
    """Prefill + decode a sequence the unshared way (one owner per block)."""
    cache.add_sequence(seq_id)
    for position, token in enumerate(prompt):
        k, v = prompt_kv(token, position, HEADS, DIM)
        cache.append(seq_id, k, v)
    for position, token in enumerate(decode, start=len(prompt)):
        k, v = prompt_kv(token, position, HEADS, DIM)
        cache.append(seq_id, k, v)


@pytest.fixture(scope="module")
def rig():
    return build_rig("llama2-7b", **RIG_KWARGS)


class TestRadixAdoption:
    def test_identical_prompt_adopts_every_block(self):
        cache = make_cache()
        prompt = list(range(10))
        assert cache.prefill_prompt(0, prompt) == 0
        blocks_after_first = cache.blocks_in_use()
        assert cache.prefill_prompt(1, prompt) == 10
        # Full adoption allocates nothing: both sequences share one set.
        assert cache.blocks_in_use() == blocks_after_first
        assert cache.block_table(0) == cache.block_table(1)
        assert cache.prefix_hit_rate() == pytest.approx(0.5)

    def test_partial_block_longest_common_prefix(self):
        cache = make_cache(block_size=4)
        cache.prefill_prompt(0, [1, 2, 3, 4, 5, 6, 7, 8])
        # Shares one full block, then 2 of 4 tokens inside the second.
        matched = cache.prefill_prompt(1, [1, 2, 3, 4, 5, 6, 99, 100])
        assert matched == 6
        k0, _ = cache.gather(0)
        k1, _ = cache.gather(1)
        np.testing.assert_array_equal(k0[:6], k1[:6])
        expected_k, _ = prompt_kv(99, 6, HEADS, DIM)
        np.testing.assert_array_equal(k1[6], expected_k)
        # The divergent suffix copied out of the shared tail block (COW).
        assert cache.cow_copies == 1
        assert cache.block_table(0)[1] != cache.block_table(1)[1]

    def test_partial_tail_leaf_is_adoptable_but_childless(self):
        cache = make_cache(block_size=4)
        cache.prefill_prompt(0, [1, 2, 3, 4, 5, 6])
        assert cache.prefill_prompt(1, [1, 2, 3, 4, 5, 6]) == 6
        # A longer prompt can only match the partial tail's 2 tokens; the
        # walk must stop there rather than descend past a half-full block.
        assert cache.prefill_prompt(2, [1, 2, 3, 4, 5, 6, 7, 8]) == 6

    def test_prefill_requires_sharing_mode(self):
        cache = make_cache(prefix_share=False)
        with pytest.raises(ValueError, match="prefix_share"):
            cache.prefill_prompt(0, [1, 2, 3])

    def test_prefill_is_atomic_on_exhaustion(self):
        cache = make_cache(n_blocks=2, block_size=4)
        with pytest.raises(MemoryError):
            cache.prefill_prompt(0, list(range(12)))
        assert cache.blocks_in_use() == 0
        assert cache.allocator.free_blocks == 2
        with pytest.raises(KeyError):
            cache.length(0)


class TestCopyOnWrite:
    @settings(max_examples=60, deadline=None)
    @given(
        base=st.lists(st.integers(0, 7), min_size=1, max_size=14),
        forks=st.lists(
            st.tuples(st.lists(st.integers(0, 7), min_size=0, max_size=6),
                      st.lists(st.integers(0, 7), min_size=1, max_size=6)),
            min_size=1, max_size=4),
    )
    def test_shared_decode_never_aliases(self, base, forks):
        """Sequences that adopt a common prefix then diverge must stay
        bit-identical to an unshared reference cache, and retiring them all
        must drain the pool back to empty."""
        shared = make_cache(n_blocks=64, block_size=4, prefix_share=True)
        reference = make_cache(n_blocks=64, block_size=4, prefix_share=False)
        plans = [(0, list(base), [])]
        for i, (extra, decode) in enumerate(forks, start=1):
            plans.append((i, list(base) + extra, decode))
        for seq_id, prompt, decode in plans:
            shared.prefill_prompt(seq_id, prompt)
            for position, token in enumerate(decode, start=len(prompt)):
                k, v = prompt_kv(token, position, HEADS, DIM)
                shared.append(seq_id, k, v)
            reference_fill(reference, seq_id, prompt, decode)
        for seq_id, _, _ in plans:
            ks, vs = shared.gather(seq_id)
            kr, vr = reference.gather(seq_id)
            np.testing.assert_array_equal(ks, kr)
            np.testing.assert_array_equal(vs, vr)
        for seq_id, _, _ in plans:
            shared.free_sequence(seq_id)
        shared.reset_prefix_cache()
        assert shared.prefix_blocks() == 0
        assert shared.allocator.free_blocks == 64
        assert shared.blocks_in_use() == 0

    def test_cow_preserves_the_shared_block(self):
        cache = make_cache(block_size=4)
        cache.prefill_prompt(0, [1, 2, 3, 4, 5, 6])
        cache.prefill_prompt(1, [1, 2, 3, 4, 5, 6])
        before_k, _ = cache.gather(0)
        k, v = prompt_kv(77, 6, HEADS, DIM)
        cache.append(1, k, v)  # divergent write -> COW clone for seq 1
        after_k, _ = cache.gather(0)
        np.testing.assert_array_equal(before_k, after_k)
        assert cache.cow_copies == 1


class TestEvictionAndReset:
    def test_allocation_pressure_evicts_cold_leaves(self):
        cache = make_cache(n_blocks=4, block_size=4)
        cache.prefill_prompt(0, list(range(12)))  # 3 blocks, tree-published
        cache.free_sequence(0)  # tree still holds all 3
        assert cache.allocator.free_blocks == 1
        # A disjoint prompt needs 3 blocks: the tree's cold leaves must go.
        cache.prefill_prompt(1, list(range(100, 112)))
        assert cache.length(1) == 12
        assert cache.prefix_evictions >= 2

    def test_evict_prefix_leaves_skips_live_blocks(self):
        cache = make_cache(n_blocks=8, block_size=4)
        cache.prefill_prompt(0, list(range(8)))
        # Every tree block is also held by the live sequence: nothing to take.
        assert cache.evict_prefix_leaves(8) == 0
        cache.free_sequence(0)
        assert cache.evict_prefix_leaves(1) == 1
        assert cache.evict_prefix_leaves(8) == 1  # only the ex-leaf's parent left
        assert cache.allocator.free_blocks == 8

    def test_reset_keeps_live_sequences_resident(self):
        cache = make_cache(n_blocks=8, block_size=4)
        cache.prefill_prompt(0, list(range(8)))
        released = cache.reset_prefix_cache()
        assert released == 2
        assert cache.prefix_blocks() == 0
        k, _ = cache.gather(0)
        assert k.shape[0] == 8  # the live sequence kept its blocks
        cache.free_sequence(0)
        assert cache.allocator.free_blocks == 8


class TestChatTrace:
    def test_sessions_turns_and_prefix_extension(self):
        trace = chat_trace(5, 64, tenants=2, turns=3, seed=3)
        assert len(trace) == 15
        assert trace.kind == "chat"
        by_session = {}
        for request in trace:
            by_session.setdefault(request.session_id, []).append(request)
        assert len(by_session) == 5
        for requests in by_session.values():
            requests.sort(key=lambda r: r.turn)
            assert [r.turn for r in requests] == [0, 1, 2]
            assert len({r.tenant_id for r in requests}) == 1
            arrivals = [r.arrival_s for r in requests]
            assert arrivals == sorted(arrivals)
            for prev, nxt in zip(requests, requests[1:]):
                # Each follow-up prompt re-presents the prior prompt exactly.
                assert nxt.prompt[:len(prev.prompt)] == prev.prompt
                assert len(nxt.prompt) > len(prev.prompt)

    def test_tenants_share_a_system_prompt(self):
        trace = chat_trace(6, 64, tenants=2, turns=1, seed=0)
        openers = {}
        for request in trace:
            openers.setdefault(request.tenant_id, []).append(request.prompt)
        for prompts in openers.values():
            # All sessions of a tenant open with the same system prompt.
            assert len({tuple(p[:8]) for p in prompts}) == 1
        # Different tenants use different system prompts.
        first = [prompts[0] for prompts in openers.values()]
        assert tuple(first[0][:8]) != tuple(first[1][:8])

    def test_arrivals_sorted_and_ids_sequential(self):
        trace = chat_trace(4, 64, turns=2, seed=1)
        assert [r.request_id for r in trace] == list(range(len(trace)))
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)


class _StubReplica:
    def __init__(self, load):
        self._load = load

    def kv_load_blocks(self):
        return self._load


class TestSessionAffinityRouting:
    def test_follow_up_turns_stick_to_home(self):
        policy = SessionAffinityRouting()
        replicas = [_StubReplica(5), _StubReplica(0)]
        opener = Request(0, [1], 4, session_id=7, turn=0)
        assert policy.choose(replicas, opener, [0, 1]) == 1
        replicas[1]._load = 50  # home got busy; affinity must still win
        follow = Request(1, [1, 2], 4, session_id=7, turn=1)
        assert policy.choose(replicas, follow, [0, 1]) == 1

    def test_crashed_home_rehomes_by_load(self):
        policy = SessionAffinityRouting()
        replicas = [_StubReplica(5), _StubReplica(0), _StubReplica(2)]
        policy.choose(replicas, Request(0, [1], 4, session_id=3), [0, 1, 2])
        # Replica 1 (home) drops out of the candidates: re-home to least load.
        moved = policy.choose(replicas, Request(1, [1, 2], 4, session_id=3),
                              [0, 2])
        assert moved == 2
        # The new home sticks afterwards, even once replica 1 returns.
        assert policy.choose(replicas, Request(2, [1, 2, 3], 4, session_id=3),
                             [0, 1, 2]) == 2

    def test_sessionless_requests_balance_by_load(self):
        policy = SessionAffinityRouting()
        replicas = [_StubReplica(5), _StubReplica(0)]
        assert policy.choose(replicas, Request(0, [1], 4), [0, 1]) == 1
        assert policy.reset() is None


class TestFairTenantPolicy:
    def test_least_served_tenant_goes_first(self):
        policy = FairTenantPolicy()
        a = Request(0, [1], 4, tenant_id=0)
        b = Request(1, [1], 4, tenant_id=1)
        policy.on_progress(a, 10)
        assert policy.served(0) == 10 and policy.served(1) == 0
        assert policy.queue_key(b) < policy.queue_key(a)
        policy.on_progress(b, 20)
        assert policy.queue_key(a) < policy.queue_key(b)
        policy.reset()
        assert policy.served(0) == 0

    def test_victims_come_from_the_most_served_tenant(self):
        policy = FairTenantPolicy()

        class Seq:
            def __init__(self, request):
                self.request = request

        hog = Seq(Request(0, [1], 4, tenant_id=0))
        newcomer = Seq(Request(1, [1], 4, tenant_id=1))
        policy.on_progress(hog.request, 100)
        assert (policy.victim_key(hog, 0.0, 0.0)
                < policy.victim_key(newcomer, 0.0, 0.0))


class TestServingIdentity:
    """Sharing is a latency optimization: tokens must never change."""

    def chat(self, rig, **kw):
        kwargs = dict(tenants=2, turns=3, rate_per_s=12.0,
                      max_new_tokens_range=(4, 10), seed=5)
        kwargs.update(kw)
        return chat_trace(6, rig.model.vocab_size, **kwargs)

    def test_async_sharing_token_identical(self, rig):
        trace = self.chat(rig)
        engine_kwargs = dict(batch_capacity=6, kv_blocks=96, block_size=4,
                             chunk_prefill_tokens=32)
        off = rig.async_serving_engine(**engine_kwargs).run(trace)
        on_engine = rig.async_serving_engine(prefix_share=True, **engine_kwargs)
        on = on_engine.run(trace)
        assert on.prefix_share and not off.prefix_share
        for request in trace:
            assert (list(on.results[request.request_id].tokens)
                    == list(off.results[request.request_id].tokens))
        assert on.prefix_hit_rate > 0.3
        assert on.prefix_matched_tokens > 0
        ledger = on.serving_ledger
        assert ledger.units(Event.PREFIX_REUSE) == on.prefix_matched_tokens
        # Adopted tokens skip prefill: fewer PREFILL_LAYER units than the
        # no-sharing run charged for the identical trace.
        assert (ledger.units(Event.PREFILL_LAYER)
                < off.serving_ledger.units(Event.PREFILL_LAYER))
        for metrics in on.metrics.values():
            assert metrics.ttft_s is not None and metrics.ttft_s >= 0
        assert not math.isnan(on.mean_ttft_s) and not math.isnan(off.mean_ttft_s)

    def test_sync_sharing_token_identical(self, rig):
        """Closed batch: every request arrives synchronously at t=0 and
        prefills whole, so later admissions adopt the first one's blocks."""
        prompts = [[1, 2, 3, 4, 5, 6, 7, 8, 9 + i] for i in range(4)]
        requests = [Request(i, p, 6) for i, p in enumerate(prompts)]
        engine_kwargs = dict(batch_capacity=4, kv_blocks=64, block_size=4,
                             chunk_prefill_tokens=None)
        off = rig.async_serving_engine(**engine_kwargs).run(requests)
        on = rig.async_serving_engine(prefix_share=True, **engine_kwargs).run(
            [Request(i, p, 6) for i, p in enumerate(prompts)])
        reference = rig.specee_engine()
        for i, prompt in enumerate(prompts):
            tokens = reference.generate(prompt, 6).tokens
            assert list(on.results[i].tokens) == list(off.results[i].tokens) == tokens
        assert on.prefix_share and on.prefix_matched_tokens > 0
        ledger = on.serving_ledger
        assert ledger.units(Event.PREFIX_REUSE) == on.prefix_matched_tokens
        assert (ledger.units(Event.PREFILL_LAYER)
                < off.serving_ledger.units(Event.PREFILL_LAYER))
