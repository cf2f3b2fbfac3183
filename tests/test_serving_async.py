"""Async serving engine: preemption determinism (swap vs recompute resume),
chunked-prefill scheduling edges, optimistic-admission rejection semantics,
arrival workloads, and the KV-swap cost plumbing."""

import math

import numpy as np
import pytest

from repro.config import get_model_spec
from repro.eval.harness import build_rig
from repro.hardware.energy import EVENT_INTENSITY
from repro.hardware.latency import LatencyModel
from repro.hardware.ledger import CostLedger, Event
from repro.serving import (
    PagedKVCache,
    Request,
    bursty_trace,
    poisson_trace,
)

# Same asset-cache key as the other serving tests, so training happens once.
RIG_KWARGS = dict(train_prompts=6, train_tokens=30, predictor_hidden=128, epochs=10)


@pytest.fixture(scope="module")
def rig():
    return build_rig("llama2-7b", **RIG_KWARGS)


def tight_engine(rig, **overrides):
    """An async engine whose KV pool is far below the batch's worst case, so
    optimistic admission must preempt to make progress."""
    kwargs = dict(batch_capacity=4, kv_blocks=8, block_size=4,
                  admission="optimistic", preemption="auto",
                  chunk_prefill_tokens=8)
    kwargs.update(overrides)
    return rig.async_serving_engine(**kwargs)


def burst_requests(n=4, tokens=16, slo_s=None):
    return [Request(i, [i + 3, 2 * i + 1, (5 * i) % 200 + 2], tokens,
                    arrival_s=0.0, slo_s=slo_s) for i in range(n)]


def reference_tokens(rig, requests):
    engine = rig.specee_engine("two_level")
    return {r.request_id: engine.generate(r.prompt, r.max_new_tokens)
            for r in requests}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------
class TestWorkloads:
    def test_poisson_deterministic_and_sorted(self):
        a = poisson_trace(20, 5.0, 512, seed=3)
        b = poisson_trace(20, 5.0, 512, seed=3)
        assert [r.arrival_s for r in a] == [r.arrival_s for r in b]
        assert [r.prompt for r in a] == [r.prompt for r in b]
        arrivals = [r.arrival_s for r in a]
        assert arrivals == sorted(arrivals)
        assert arrivals[0] == 0.0
        assert len(a) == 20

    def test_poisson_rate_and_ranges(self):
        trace = poisson_trace(200, 8.0, 512, seed=1,
                              prompt_len_range=(4, 10),
                              max_new_tokens_range=(16, 32))
        rate = trace.offered_rate()
        assert 5.0 < rate < 12.0  # loose: 200 samples of Exp(1/8)
        for r in trace:
            assert 4 <= len(r.prompt) <= 10
            assert 16 <= r.max_new_tokens <= 32
            assert r.slo_s is not None and r.slo_s > 0
            assert r.deadline_s == pytest.approx(r.arrival_s + r.slo_s)

    def test_poisson_without_slo(self):
        trace = poisson_trace(5, 2.0, 512, slo_scale=None)
        assert all(r.slo_s is None for r in trace)

    def test_bursty_structure(self):
        trace = bursty_trace(12, burst_size=4, burst_gap_s=1.0, vocab_size=512)
        arrivals = [r.arrival_s for r in trace]
        assert arrivals == sorted(arrivals)
        for i, arrival in enumerate(arrivals):
            assert arrival == pytest.approx((i // 4) * 1.0)

    def test_bad_args_raise(self):
        with pytest.raises(ValueError):
            poisson_trace(0, 5.0, 512)
        with pytest.raises(ValueError):
            poisson_trace(5, -1.0, 512)
        with pytest.raises(ValueError):
            poisson_trace(5, 5.0, 512, max_new_tokens_range=(8, 4))
        with pytest.raises(ValueError):
            bursty_trace(5, 0, 1.0, 512)
        with pytest.raises(ValueError):
            bursty_trace(5, 2, -1.0, 512)

    def test_priorities_span_levels(self):
        trace = poisson_trace(50, 5.0, 512, priority_levels=3, seed=2)
        priorities = {r.priority for r in trace}
        assert priorities == {0, 1, 2}


# ---------------------------------------------------------------------------
# paged-KV swap
# ---------------------------------------------------------------------------
class TestPagedKVSwap:
    def make_cache(self):
        cache = PagedKVCache(n_blocks=6, block_size=2, n_kv_heads=2, head_dim=3)
        cache.add_sequence(7)
        rng = np.random.default_rng(0)
        for _ in range(5):  # 3 blocks, last one half full
            kv = rng.normal(size=(2, 3))
            cache.append(7, kv, 2 * kv)
        return cache

    def test_swap_roundtrip_bit_exact(self):
        cache = self.make_cache()
        k0, v0 = cache.gather(7)
        moved = cache.swap_out(7)
        assert moved == 5
        assert cache.blocks_in_use() == 0
        assert cache.allocator.free_blocks == 6
        assert cache.host_tokens() == 5
        assert cache.is_swapped(7)
        assert cache.swap_in(7) == 5
        assert cache.host_tokens() == 0
        k1, v1 = cache.gather(7)
        assert np.array_equal(k0, k1) and np.array_equal(v0, v1)
        assert cache.length(7) == 5

    def test_swap_out_twice_raises(self):
        cache = self.make_cache()
        cache.swap_out(7)
        with pytest.raises(ValueError, match="already swapped"):
            cache.swap_out(7)

    def test_swap_in_without_swap_out_raises(self):
        cache = self.make_cache()
        with pytest.raises(KeyError):
            cache.swap_in(7)

    def test_swap_in_into_full_pool_raises_and_keeps_host_copy(self):
        cache = self.make_cache()
        cache.swap_out(7)
        cache.add_sequence(8)
        for _ in range(9):  # 5 of 6 blocks
            cache.append(8, np.zeros((2, 3)), np.zeros((2, 3)))
        with pytest.raises(MemoryError):
            cache.swap_in(7)
        assert cache.is_swapped(7)  # host copy intact, retry later is legal
        assert cache.host_tokens() == 5


# ---------------------------------------------------------------------------
# ledger snapshot/delta + swap pricing
# ---------------------------------------------------------------------------
class TestLedgerAndPricing:
    def test_snapshot_delta(self):
        ledger = CostLedger()
        ledger.add(Event.DECODER_LAYER, calls=3)
        snap = ledger.snapshot()
        ledger.add(Event.DECODER_LAYER, calls=2)
        ledger.add(Event.PREDICTOR)
        ledger.tokens_generated += 1
        delta = ledger.delta_since(snap)
        assert delta.calls(Event.DECODER_LAYER) == 2
        assert delta.calls(Event.PREDICTOR) == 1
        assert delta.tokens_generated == 1
        assert ledger.calls(Event.DECODER_LAYER) == 5  # original untouched

    def test_drop(self):
        ledger = CostLedger()
        ledger.add(Event.DECODER_LAYER, calls=3)
        ledger.drop(Event.DECODER_LAYER)
        assert ledger.calls(Event.DECODER_LAYER) == 0
        ledger.drop(Event.DECODER_LAYER)  # idempotent

    def test_kv_swap_priced(self):
        latency = LatencyModel(get_model_spec("llama2-7b"), "a100-80g", "vllm")
        assert latency.kv_swap_time(64) > latency.kv_swap_time(1) > 0
        ledger = CostLedger()
        ledger.add(Event.KV_SWAP, calls=2, units=128)
        ledger.tokens_generated = 1
        priced = latency.price(ledger)
        assert priced.per_event_s[Event.KV_SWAP] > 0
        assert Event.KV_SWAP in EVENT_INTENSITY

    def test_preempt_costs_tradeoff(self):
        latency = LatencyModel(get_model_spec("llama2-7b"), "a100-80g", "vllm")
        costs = latency.preempt_costs(tokens=4, context_tokens=8)
        assert set(costs) == {"swap", "recompute"}
        # Short context: recompute is cheap.  Long swapped KV: swap traffic
        # grows linearly while recompute stays one prefill pass.
        short = latency.preempt_costs(tokens=2, context_tokens=4)
        long = latency.preempt_costs(tokens=4096, context_tokens=8192)
        assert short["recompute"] < short["swap"] or short["swap"] < short["recompute"]
        assert long["swap"] / long["recompute"] > short["swap"] / short["recompute"]


# ---------------------------------------------------------------------------
# preemption determinism
# ---------------------------------------------------------------------------
class TestPreemptionDeterminism:
    @pytest.mark.parametrize("mode", ["swap", "recompute", "auto"])
    def test_resume_token_identical(self, rig, mode):
        requests = burst_requests()
        refs = reference_tokens(rig, requests)
        engine = tight_engine(rig, preemption=mode)
        report = engine.run(requests)
        assert report.preemptions > 0, "config must actually exercise preemption"
        for request in requests:
            result = report.results[request.request_id]
            ref = refs[request.request_id]
            assert result.tokens == ref.tokens
            assert result.exit_layers == ref.exit_layers
        if mode == "swap":
            assert report.swaps == report.preemptions
            assert report.serving_ledger.units(Event.KV_SWAP) > 0
        if mode == "recompute":
            assert report.recomputes == report.preemptions
            assert report.serving_ledger.units(Event.KV_SWAP) == 0

    def test_swap_and_recompute_agree(self, rig):
        requests = burst_requests()
        swap = tight_engine(rig, preemption="swap").run(burst_requests())
        recompute = tight_engine(rig, preemption="recompute").run(burst_requests())
        for request in requests:
            assert (swap.results[request.request_id].tokens
                    == recompute.results[request.request_id].tokens)
        # Recompute re-runs prefill over prompt+generated at every resume.
        assert (recompute.serving_ledger.units(Event.PREFILL_LAYER)
                > swap.serving_ledger.units(Event.PREFILL_LAYER))

    def test_pool_clean_after_run(self, rig):
        engine = tight_engine(rig)
        engine.run(burst_requests())
        assert engine.cache.blocks_in_use() == 0
        assert engine.cache.host_tokens() == 0
        assert engine.cache.allocator.free_blocks == 8

    def test_batched_layers_match_sequential(self, rig):
        engine = tight_engine(rig)
        report = engine.run(burst_requests())
        assert (report.serving_ledger.units(Event.BATCH_DECODER_LAYER)
                == report.sequential_ledger.calls(Event.DECODER_LAYER))
        assert report.serving_ledger.calls(Event.DECODER_LAYER) == 0
        assert (report.serving_ledger.tokens_generated
                == report.sequential_ledger.tokens_generated == report.total_tokens)

    def test_low_priority_is_the_victim(self, rig):
        requests = [Request(i, [i + 3, i + 5], 16, priority=(1 if i == 0 else 0))
                    for i in range(4)]
        engine = tight_engine(rig)
        report = engine.run(requests)
        assert report.preemptions > 0
        assert report.metrics[0].preemptions == 0  # the VIP was never evicted


# ---------------------------------------------------------------------------
# chunked prefill
# ---------------------------------------------------------------------------
class TestChunkedPrefill:
    def test_chunking_delays_first_decode_not_tokens(self, rig):
        prompt = list(range(2, 14))  # 12 tokens
        request = [Request(0, prompt, 8)]
        ref = rig.specee_engine("two_level").generate(prompt, 8)
        chunked = rig.async_serving_engine(
            batch_capacity=2, kv_blocks=16, block_size=4,
            chunk_prefill_tokens=4).run(request)
        # Two prefill-only ticks; the third chunk finishes the prompt, so the
        # first decode shares that tick; then 7 more decode ticks.
        assert chunked.results[0].tokens == ref.tokens
        assert chunked.n_steps == 2 + 8
        assert chunked.batch_occupancy[:2] == [0, 0]
        assert all(o == 1 for o in chunked.batch_occupancy[2:])

    def test_prefill_completing_mid_chunk_decodes_same_tick(self, rig):
        request = [Request(0, [4, 5, 6], 6)]  # prompt shorter than the chunk
        report = rig.async_serving_engine(
            batch_capacity=2, kv_blocks=16, block_size=4,
            chunk_prefill_tokens=8).run(request)
        assert report.n_steps == 6  # no separate prefill tick
        assert report.batch_occupancy[0] == 1

    def test_unchunked_prefill_monopolises_the_tick(self, rig):
        requests = [Request(0, list(range(2, 10)), 6, arrival_s=0.0),
                    Request(1, list(range(3, 11)), 6, arrival_s=0.001)]
        report = rig.async_serving_engine(
            batch_capacity=2, kv_blocks=16, block_size=4,
            chunk_prefill_tokens=None).run(requests)
        # Request 1 arrives mid-run; its (whole-prompt) prefill tick stalls
        # request 0's decode, so at least one tick decodes nobody.
        assert 0 in report.batch_occupancy[1:]
        assert len(report.results) == 2
        assert all(len(r.tokens) == 6 for r in report.results.values())

    def test_chunk_budget_shared_across_prefills(self, rig):
        requests = [Request(0, list(range(2, 12)), 4),  # 10 prompt tokens
                    Request(1, list(range(2, 12)), 4)]
        report = rig.async_serving_engine(
            batch_capacity=2, kv_blocks=16, block_size=4,
            chunk_prefill_tokens=10).run(requests)
        # 20 prompt tokens through a 10-token/tick budget: request 0's whole
        # prompt fills tick 0 (and it starts decoding); request 1 prefills in
        # tick 1 and joins the decode batch that same tick.
        assert report.batch_occupancy[0] == 1
        assert report.batch_occupancy[1] == 2
        assert len(report.results) == 2
        prefill_units = report.serving_ledger.units(Event.PREFILL_LAYER)
        n_layers = 32
        assert prefill_units == n_layers * 20

    def test_ledger_prefill_units_cover_all_chunks(self, rig):
        prompt = list(range(2, 15))  # 13 tokens -> chunks of 5,5,3
        report = rig.async_serving_engine(
            batch_capacity=1, kv_blocks=16, block_size=4,
            chunk_prefill_tokens=5).run([Request(0, prompt, 4)])
        assert report.serving_ledger.units(Event.PREFILL_LAYER) == 32 * 13
        assert report.serving_ledger.calls(Event.PREFILL_LAYER) == 32 * 3


# ---------------------------------------------------------------------------
# admission / rejection / edge cases
# ---------------------------------------------------------------------------
class TestAsyncAdmission:
    def test_oversized_request_rejected_not_hung(self, rig):
        requests = [Request(0, [3, 4], 8),
                    Request(1, [5, 6], 1000),  # 250 blocks in an 8-block pool
                    Request(2, [7, 8], 8)]
        report = tight_engine(rig).run(requests)
        assert set(report.results) == {0, 2}
        assert 1 in report.rejected
        assert "wait forever" in report.rejected[1]

    def test_submit_rejects_oversized_at_arrival(self, rig):
        """An oversize request injected mid-run through ``submit`` is refused
        the moment it arrives, like one in the initial trace: a typed
        rejection, never a wait, and the run around it is undisturbed."""
        engine = tight_engine(rig)
        engine.begin([Request(0, [3, 4], 8)])
        engine.advance_tick()
        engine.submit(Request(1, [1, 2], 1000))
        while engine.has_work:
            engine.advance_tick()
        report = engine.finish_report()
        assert set(report.results) == {0} and len(report.results[0].tokens) == 8
        assert engine.policy.oversize_reason(
            Request(1, [1, 2], 1000)) in report.rejected[1]

    def test_never_preempt_raises_on_exhaustion(self, rig):
        engine = tight_engine(rig, preemption="never")
        with pytest.raises(MemoryError, match="enable preemption"):
            engine.run(burst_requests())

    def test_engine_survives_a_failed_run(self, rig):
        """A run that dies mid-flight must not leak blocks or stale sequence
        ids into the next run on the same engine."""
        engine = tight_engine(rig, preemption="never")
        with pytest.raises(MemoryError):
            engine.run(burst_requests())
        small = [Request(0, [3, 4], 4), Request(1, [5, 6], 4)]
        report = engine.run(small)
        assert set(report.results) == {0, 1}
        assert engine.cache.blocks_in_use() == 0
        assert engine.cache.allocator.free_blocks == 8

    def test_reserve_mode_never_needs_preemption(self, rig):
        engine = tight_engine(rig, admission="reserve", preemption="never",
                              chunk_prefill_tokens=None)
        report = engine.run(burst_requests())
        assert len(report.results) == 4
        assert report.preemptions == 0

    def test_empty_trace(self, rig):
        report = tight_engine(rig).run([])
        assert report.results == {} and report.n_steps == 0
        assert math.isnan(report.slo_attainment)

    def test_idle_gap_advances_clock(self, rig):
        requests = [Request(0, [3, 4], 4, arrival_s=0.0),
                    Request(1, [5, 6], 4, arrival_s=5.0)]
        report = rig.async_serving_engine(
            batch_capacity=2, kv_blocks=16, block_size=4).run(requests)
        assert len(report.results) == 2
        assert report.makespan_s > 5.0
        assert report.metrics[1].finish_s > 5.0

    def test_invalid_modes_raise(self, rig):
        with pytest.raises(ValueError):
            rig.async_serving_engine(admission="yolo")
        with pytest.raises(ValueError):
            rig.async_serving_engine(preemption="sometimes")
        with pytest.raises(ValueError):
            rig.async_serving_engine(chunk_prefill_tokens=0)


class TestSLOAccounting:
    def test_generous_slo_met_tight_slo_missed(self, rig):
        requests = [Request(0, [3, 4], 4, slo_s=1e6),
                    Request(1, [5, 6], 4, slo_s=1e-9)]
        report = rig.async_serving_engine(
            batch_capacity=2, kv_blocks=16, block_size=4).run(requests)
        assert report.metrics[0].met_slo is True
        assert report.metrics[1].met_slo is False
        assert report.slo_attainment == 0.5

    def test_no_slo_requests_give_nan(self, rig):
        report = rig.async_serving_engine(
            batch_capacity=2, kv_blocks=16, block_size=4).run(
            [Request(0, [3, 4], 4)])
        assert report.metrics[0].met_slo is None
        assert math.isnan(report.slo_attainment)

    def test_rejected_request_counts_as_missed(self, rig):
        requests = [Request(0, [3, 4], 4, slo_s=1e6),
                    Request(1, [5, 6], 1000, slo_s=1e6)]
        report = tight_engine(rig).run(requests)
        assert report.slo_attainment == 0.5

    def test_rejected_request_without_slo_does_not_fake_attainment(self, rig):
        requests = [Request(0, [3, 4], 4), Request(1, [5, 6], 1000)]  # no SLOs
        report = tight_engine(rig).run(requests)
        assert 1 in report.rejected
        assert math.isnan(report.slo_attainment)

    def test_clock_and_ledger_consistency(self, rig):
        report = tight_engine(rig).run(burst_requests(slo_s=10.0))
        assert report.makespan_s == pytest.approx(sum(report.tick_seconds))
        assert len(report.tick_seconds) == report.n_steps
        assert report.throughput_tps > 0
        assert report.sequential_tps > 0

    def test_priced_speedup_over_sequential(self, rig):
        requests = [Request(i, [i + 2, i + 9], 24, arrival_s=0.0) for i in range(6)]
        report = rig.async_serving_engine(
            batch_capacity=6, kv_blocks=64, block_size=4).run(requests)
        assert report.speedup > 1.5  # batching pays on the modelled clock
