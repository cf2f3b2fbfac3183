"""Multi-device sharded serving: cluster/link validation, sharded-event
accounting invariants, cluster pricing physics, per-stage paged KV, and the
token-identity guarantee for closed batches and traces under TP/PP."""

import numpy as np
import pytest

from repro.config import get_model_spec
from repro.distributed import (
    ClusterLatencyModel,
    ClusterSpec,
    LinkSpec,
    ShardedPagedKV,
    make_cluster,
    make_replica_clusters,
    record_decode_batches,
    record_prefill_allreduce,
    record_tick_bubble,
)
from repro.eval.harness import build_rig
from repro.hardware.devices import get_device
from repro.hardware.latency import LatencyModel
from repro.hardware.ledger import CostLedger, Event
from repro.serving import Request, poisson_trace

# Same asset-cache key as the other serving tests, so training happens once.
RIG_KWARGS = dict(train_prompts=6, train_tokens=30, predictor_hidden=128, epochs=10)
SPEC = get_model_spec("llama2-7b")


@pytest.fixture(scope="module")
def rig():
    return build_rig("llama2-7b", **RIG_KWARGS)


def closed_batch(rig, cluster=None):
    """The serving engine in its closed-batch shape: every request at t=0,
    whole-prompt prefill."""
    return rig.async_serving_engine(
        batch_capacity=4, kv_blocks=64, block_size=4,
        chunk_prefill_tokens=None, cluster=cluster)


# ---------------------------------------------------------------------------
# topology validation
# ---------------------------------------------------------------------------
class TestClusterSpec:
    def test_make_cluster_shapes(self):
        cluster = make_cluster("a100-80g", tp=2, pp=3)
        assert cluster.world_size == 6
        assert len(cluster.devices) == 6
        assert len(cluster.stage_devices(1)) == 2
        assert not cluster.is_single
        assert make_cluster(tp=1, pp=1).is_single

    def test_bad_degrees_rejected(self):
        with pytest.raises(ValueError, match="tp and pp"):
            make_cluster(tp=0)
        device = get_device("a100-80g")
        with pytest.raises(ValueError, match="devices"):
            ClusterSpec(devices=(device,), tp=2, pp=1)

    def test_heterogeneous_rejected(self):
        a100, rtx = get_device("a100-80g"), get_device("rtx4090")
        with pytest.raises(ValueError, match="heterogeneous"):
            ClusterSpec(devices=(a100, rtx), tp=2, pp=1)

    def test_micro_batches_below_pp_rejected(self):
        with pytest.raises(ValueError, match="micro_batches"):
            make_cluster(tp=1, pp=4, micro_batches=2)

    def test_link_validation(self):
        with pytest.raises(ValueError, match="bw_gbps"):
            LinkSpec(name="bad", bw_gbps=0.0, latency_us=1.0)
        with pytest.raises(ValueError, match="latency_us"):
            LinkSpec(name="bad", bw_gbps=10.0, latency_us=-1.0)

    def test_stage_layers_partition(self):
        cluster = make_cluster(tp=1, pp=3)
        ranges = cluster.stage_layers(32)
        assert [r.start for r in ranges] == [0, 11, 22]
        assert sum(len(r) for r in ranges) == 32
        flat = [l for r in ranges for l in r]
        assert flat == list(range(32))
        assert cluster.layers_per_stage(32) == 11
        with pytest.raises(ValueError, match="split"):
            cluster.stage_layers(2)

    def test_micro_batch_count_bounds(self):
        cluster = make_cluster(tp=1, pp=4)
        assert cluster.micro_batch_count(8) == 4
        assert cluster.micro_batch_count(2) == 2  # never more than sequences
        assert cluster.micro_batch_count(0) == 1
        wide = make_cluster(tp=1, pp=2, micro_batches=6)
        assert wide.micro_batch_count(8) == 6

    def test_replica_clusters_are_distinct(self):
        clusters = make_replica_clusters(3, "a100-80g", tp=2, pp=2)
        assert len(clusters) == 3
        assert all(c.tp == 2 and c.pp == 2 for c in clusters)
        assert len({id(c) for c in clusters}) == 3  # one spec per replica

    def test_replica_clusters_single_device_is_none(self):
        assert make_replica_clusters(4, "a100-80g", tp=1, pp=1) == [None] * 4
        with pytest.raises(ValueError, match="n_replicas"):
            make_replica_clusters(0, "a100-80g", tp=2)


# ---------------------------------------------------------------------------
# sharded event accounting
# ---------------------------------------------------------------------------
class TestShardingEvents:
    BATCHES = [5, 5, 4, 2, 1]  # early-exit style depth profile

    def test_single_device_form_unchanged(self):
        tick = CostLedger()
        record_decode_batches(tick, self.BATCHES, None)
        assert tick.calls(Event.BATCH_DECODER_LAYER) == len(self.BATCHES)
        assert tick.units(Event.BATCH_DECODER_LAYER) == sum(self.BATCHES)
        assert tick.calls(Event.ALLREDUCE) == 0

    def test_units_conserved_under_sharding(self):
        for tp, pp in [(2, 1), (1, 2), (2, 2), (4, 2)]:
            tick = CostLedger()
            record_decode_batches(tick, self.BATCHES, make_cluster(tp=tp, pp=pp))
            assert tick.units(Event.BATCH_DECODER_LAYER) == sum(self.BATCHES)

    def test_micro_batching_multiplies_calls(self):
        tick = CostLedger()
        record_decode_batches(tick, self.BATCHES, make_cluster(tp=1, pp=2))
        # min(m, b) calls per layer: [2, 2, 2, 2, 1]
        assert tick.calls(Event.BATCH_DECODER_LAYER) == 9

    def test_tp_emits_two_allreduces_per_layer_call(self):
        tick = CostLedger()
        record_decode_batches(tick, self.BATCHES, make_cluster(tp=2, pp=1))
        assert tick.calls(Event.ALLREDUCE) == 2 * tick.calls(Event.BATCH_DECODER_LAYER)
        # Average payload per collective equals the average layer batch.
        avg = tick.units(Event.ALLREDUCE) / tick.calls(Event.ALLREDUCE)
        assert avg == sum(self.BATCHES) / len(self.BATCHES)

    def test_bubble_only_under_pp(self):
        tick = CostLedger()
        record_tick_bubble(tick, 32, 160.0, 8, make_cluster(tp=2, pp=1))
        assert tick.calls(Event.PIPELINE_BUBBLE) == 0
        record_tick_bubble(tick, 32, 160.0, 8, make_cluster(tp=1, pp=2))
        assert tick.calls(Event.PIPELINE_BUBBLE) == 16  # (pp-1) * ceil(32/2)

    def test_prefill_allreduce_only_under_tp(self):
        tick = CostLedger()
        record_prefill_allreduce(tick, 32, 512.0, make_cluster(tp=1, pp=2))
        assert tick.calls(Event.ALLREDUCE) == 0
        record_prefill_allreduce(tick, 32, 512.0, make_cluster(tp=2, pp=1))
        assert tick.calls(Event.ALLREDUCE) == 64


# ---------------------------------------------------------------------------
# cluster pricing physics
# ---------------------------------------------------------------------------
class TestClusterPricing:
    def test_pp_beyond_model_depth_rejected(self):
        """A 64-stage pipeline of a 32-layer model must fail fast, not
        mint throughput out of empty stages."""
        with pytest.raises(ValueError, match="split"):
            ClusterLatencyModel(SPEC, make_cluster(tp=1, pp=SPEC.n_layers * 2), "vllm")

    def test_tp_shards_layer_time(self):
        single = LatencyModel(SPEC, "a100-80g", "vllm")
        tp4 = ClusterLatencyModel(SPEC, make_cluster(tp=4), "vllm")
        assert tp4.decoder_layer_time(1.0) < single.decoder_layer_time(1.0) / 2
        assert tp4.prefill_layer_time(256.0) < single.prefill_layer_time(256.0) / 2

    def test_allreduce_time_monotone_and_zero_at_tp1(self):
        tp1 = ClusterLatencyModel(SPEC, make_cluster(tp=1, pp=2), "vllm")
        assert tp1.allreduce_time(64.0) == 0.0
        tp4 = ClusterLatencyModel(SPEC, make_cluster(tp=4), "vllm")
        assert 0 < tp4.allreduce_time(8.0) < tp4.allreduce_time(64.0)

    def test_slow_link_prices_allreduce_higher(self):
        fast = ClusterLatencyModel(SPEC, make_cluster(tp=4, tp_link="nvlink"), "vllm")
        slow = ClusterLatencyModel(SPEC, make_cluster(tp=4, tp_link="pcie4"), "vllm")
        assert slow.allreduce_time(32.0) > fast.allreduce_time(32.0)

    def test_base_model_rejects_cluster_events(self):
        ledger = CostLedger()
        ledger.add(Event.ALLREDUCE, calls=2, units=16)
        ledger.tokens_generated = 1
        with pytest.raises(ValueError, match="cluster-only"):
            LatencyModel(SPEC, "a100-80g", "vllm").price(ledger)

    def test_pp_divides_layer_stack_and_prices_bubble(self):
        ledger = CostLedger()
        ledger.add(Event.BATCH_DECODER_LAYER, calls=64, units=256)
        ledger.tokens_generated = 8
        ledger.steps = 1
        single = LatencyModel(SPEC, "a100-80g", "vllm").price(ledger)
        sharded = ledger.copy()
        sharded.add(Event.PIPELINE_BUBBLE, calls=16, units=64)
        pp2 = ClusterLatencyModel(SPEC, make_cluster(tp=1, pp=2), "vllm").price(sharded)
        assert pp2.per_event_s[Event.BATCH_DECODER_LAYER] == pytest.approx(
            single.per_event_s[Event.BATCH_DECODER_LAYER] / 2)
        assert pp2.per_event_s[Event.PIPELINE_BUBBLE] > 0

    def test_preempt_costs_repriced_per_stage(self):
        single = LatencyModel(SPEC, "a100-80g", "vllm")
        pp2 = ClusterLatencyModel(SPEC, make_cluster(tp=1, pp=2), "vllm")
        assert pp2.kv_swap_time(64.0) < single.kv_swap_time(64.0)
        s_costs, p_costs = single.preempt_costs(64, 128), pp2.preempt_costs(64, 128)
        assert p_costs["swap"] < s_costs["swap"]
        assert p_costs["recompute"] < s_costs["recompute"]

    def test_tp2_beats_tp1_on_a_synthetic_decode_ledger(self):
        base = CostLedger()
        base.add(Event.BATCH_DECODER_LAYER, calls=32, units=256)
        base.tokens_generated = 8
        base.steps = 1
        tp1 = LatencyModel(SPEC, "a100-80g", "vllm").price(base)
        sharded = base.copy()
        sharded.add(Event.ALLREDUCE, calls=64, units=512)
        tp2 = ClusterLatencyModel(SPEC, make_cluster(tp=2), "vllm").price(sharded)
        assert tp2.total_s < tp1.total_s


# ---------------------------------------------------------------------------
# per-stage paged KV
# ---------------------------------------------------------------------------
class TestShardedPagedKV:
    def make(self, n_stages=2, n_blocks=4, block_size=2):
        return ShardedPagedKV(n_stages=n_stages, n_blocks=n_blocks,
                              block_size=block_size, n_kv_heads=2, head_dim=2)

    def entry(self, t):
        return np.full((2, 2), float(t)), np.full((2, 2), -float(t))

    def test_stages_stay_in_lockstep(self):
        cache = self.make()
        cache.add_sequence(0)
        for t in range(3):
            cache.append(0, *self.entry(t))
        assert cache.length(0) == 3
        for stage in cache.stages:
            assert stage.length(0) == 3
            assert stage.block_table(0) == cache.stages[0].block_table(0)
        assert cache.blocks_in_use() == 2  # per-device blocks, not summed
        assert cache.allocator.free_blocks == 2

    def test_gather_bit_exact_per_stage(self):
        cache = self.make()
        cache.add_sequence(7)
        for t in range(5):
            cache.append(7, *self.entry(t))
        k0, v0 = cache.gather(7)
        for stage in cache.stages:
            k, v = stage.gather(7)
            assert np.array_equal(k, k0) and np.array_equal(v, v0)

    def test_swap_roundtrip_restores_every_stage(self):
        cache = self.make()
        cache.add_sequence(1)
        for t in range(4):
            cache.append(1, *self.entry(t))
        k_before, v_before = cache.gather(1)
        assert cache.swap_out(1) == 4
        assert cache.is_swapped(1)
        assert cache.host_tokens() == 4
        assert cache.blocks_in_use() == 0
        assert cache.swap_in(1) == 4
        k_after, v_after = cache.gather(1)
        assert np.array_equal(k_before, k_after)
        assert np.array_equal(v_before, v_after)

    def test_failed_swap_in_keeps_all_host_copies(self):
        cache = self.make(n_blocks=2)
        cache.add_sequence(1)
        for t in range(4):
            cache.append(1, *self.entry(t))
        cache.swap_out(1)
        cache.add_sequence(2)
        for t in range(3):
            cache.append(2, *self.entry(10 + t))
        with pytest.raises(MemoryError):
            cache.swap_in(1)
        assert cache.is_swapped(1)
        for stage in cache.stages:
            assert stage.is_swapped(1)

    def test_free_sequence_frees_every_stage(self):
        cache = self.make()
        cache.add_sequence(3)
        for t in range(4):
            cache.append(3, *self.entry(t))
        cache.free_sequence(3)
        assert cache.allocator.free_blocks == 4
        for stage in cache.stages:
            assert stage.allocator.free_blocks == 4


# ---------------------------------------------------------------------------
# token identity: sharded == single-device
# ---------------------------------------------------------------------------
class TestTokenIdentity:
    def requests(self):
        return [Request(i, [i + 3, 2 * i + 1, (5 * i) % 200 + 2], 16)
                for i in range(6)]

    def test_sync_engine_rejects_pp_beyond_depth(self, rig):
        with pytest.raises(ValueError, match="split"):
            closed_batch(
                rig, make_cluster("a100-80g", pp=rig.model.n_layers * 2))

    @pytest.mark.parametrize("tp,pp", [(2, 1), (1, 2), (2, 2)])
    def test_sync_engine_token_identical(self, rig, tp, pp):
        """A closed batch (all arrivals synchronous at t=0) on a sharded
        cluster emits exactly batch-1 ``generate``'s tokens."""
        ref = closed_batch(rig).run(self.requests())
        out = closed_batch(
            rig, make_cluster("a100-80g", tp=tp, pp=pp)).run(self.requests())
        sequential = rig.specee_engine()
        assert set(out.results) == {r.request_id for r in self.requests()}
        for request in self.requests():
            assert (out.results[request.request_id].tokens
                    == sequential.generate(request.prompt, 16).tokens)
        # The sharded ledger conserves layer-token work.
        assert (out.serving_ledger.units(Event.BATCH_DECODER_LAYER)
                == ref.serving_ledger.units(Event.BATCH_DECODER_LAYER))

    @pytest.mark.parametrize("tp,pp", [(2, 1), (2, 2)])
    def test_async_engine_token_identical(self, rig, tp, pp):
        trace = poisson_trace(8, 50.0, rig.model.vocab_size, seed=3,
                              max_new_tokens_range=(8, 16))
        base = rig.async_serving_engine(
            batch_capacity=4, kv_blocks=16, block_size=4,
            chunk_prefill_tokens=8)
        sharded = rig.async_serving_engine(
            batch_capacity=4, kv_blocks=16, block_size=4,
            chunk_prefill_tokens=8,
            cluster=make_cluster("a100-80g", tp=tp, pp=pp))
        ref = base.run(trace)
        out = sharded.run(trace)
        assert set(ref.results) == set(out.results)
        for rid in ref.results:
            assert ref.results[rid].tokens == out.results[rid].tokens

    def test_async_sharded_preemption_token_identical(self, rig):
        """A pool tight enough to force preemption, per-stage owned."""
        trace = poisson_trace(8, 80.0, rig.model.vocab_size, seed=5,
                              max_new_tokens_range=(8, 16))
        base = rig.async_serving_engine(
            batch_capacity=4, kv_blocks=8, block_size=4,
            admission="optimistic", preemption="auto", chunk_prefill_tokens=8)
        sharded = rig.async_serving_engine(
            batch_capacity=4, kv_blocks=8, block_size=4,
            admission="optimistic", preemption="auto", chunk_prefill_tokens=8,
            cluster=make_cluster("a100-80g", tp=2, pp=2))
        ref = base.run(trace)
        out = sharded.run(trace)
        assert out.preemptions > 0, "config never exercised sharded preemption"
        for rid in ref.results:
            assert ref.results[rid].tokens == out.results[rid].tokens

    def test_sharded_tps_beats_single_on_tp2(self, rig):
        """The modelled TP=2 cluster out-serves one device on the same run."""
        tp1 = closed_batch(rig).run(self.requests())
        tp2 = closed_batch(
            rig, make_cluster("a100-80g", tp=2)).run(self.requests())
        assert tp2.throughput_tps > tp1.throughput_tps


# ---------------------------------------------------------------------------
# the pipeline bubble has one definition: record_tick_bubble, once per tick
# ---------------------------------------------------------------------------
class TestTickBubblePricing:
    def test_prefill_only_tick_fills_and_drains_the_pipeline(self, rig):
        """A tick that only prefills runs the full stack, so it emits
        ``(pp-1) * ceil(L/pp)`` bubble slots sized by its layer-tokens."""
        n_layers = rig.model.n_layers
        engine = closed_batch(rig, make_cluster("a100-80g", pp=2))
        engine.begin([Request(0, [3, 1, 4, 1, 5, 9], 4)])
        engine.advance_tick()
        tick = engine.report.serving_ledger
        assert tick.calls(Event.BATCH_DECODER_LAYER) == 0  # prefill only
        assert tick.units(Event.PREFILL_LAYER) == n_layers * 6
        slots = (2 - 1) * -(-n_layers // 2)
        assert tick.calls(Event.PIPELINE_BUBBLE) == slots
        # One sequence cannot be micro-batched: each idle slot fails to
        # overlap the whole 6-token prompt.
        assert tick.units(Event.PIPELINE_BUBBLE) == slots * 6

    def test_single_sequence_prefill_gains_nothing_from_pp(self, rig):
        """One sequence cannot overlap pipeline stages, so ``pp`` buys a
        lone prefill no modelled speed-up: the stage concurrency the price
        divides by is paid back by the fill/drain bubble."""
        def prefill_tick_s(cluster):
            engine = closed_batch(rig, cluster)
            engine.begin([Request(0, list(range(1, 201)), 4)])
            engine.advance_tick()
            return engine.report.tick_seconds[0]

        single = prefill_tick_s(None)
        for pp in (2, 4):
            assert prefill_tick_s(make_cluster("a100-80g", pp=pp)) >= single

    def test_unit_cluster_ledger_equals_single_device(self, rig):
        """At ``tp=pp=1`` the cluster path reduces to the single-device
        ledger, clock and tokens exactly."""
        requests = lambda: [Request(i, [i + 3, 2 * i + 1], 12) for i in range(6)]
        single = closed_batch(rig).run(requests())
        unit = closed_batch(
            rig, make_cluster("a100-80g", tp=1, pp=1)).run(requests())
        counts = lambda ledger: {kind: (ledger.calls(kind), ledger.units(kind))
                                 for kind in ledger.kinds()}
        assert counts(unit.serving_ledger) == counts(single.serving_ledger)
        assert unit.makespan_s == single.makespan_s
        assert ({i: r.tokens for i, r in unit.results.items()}
                == {i: r.tokens for i, r in single.results.items()})
