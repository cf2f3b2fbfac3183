"""Multi-device sharded serving: cluster/link validation, sharded-event
accounting invariants, cluster pricing physics, the one paged pool under
pipeline parallelism (pinned against the deleted per-stage facade), and the
token-identity guarantee for closed batches and traces under TP/PP."""

import pytest

from repro.config import get_model_spec
from repro.distributed import (
    ClusterSpec,
    LinkSpec,
    make_cluster,
    record_decode_batches,
    record_prefill_allreduce,
    record_tick_bubble,
)
from repro.eval.harness import build_rig
from repro.hardware.devices import get_device
from repro.hardware.latency import LatencyModel
from repro.hardware.ledger import CostLedger, Event
from repro.serving import PagedKVCache, Request, chat_trace, poisson_trace
from repro.serving.faults import FaultInjector

# Same asset-cache key as the other serving tests, so training happens once.
RIG_KWARGS = dict(train_prompts=6, train_tokens=30, predictor_hidden=128, epochs=10)
SPEC = get_model_spec("llama2-7b")


@pytest.fixture(scope="module")
def rig():
    return build_rig("llama2-7b", **RIG_KWARGS)


def cluster_model(c):
    return LatencyModel(SPEC, c.device, "vllm", cluster=c)


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


# ---------------------------------------------------------------------------
# sharded event accounting
# ---------------------------------------------------------------------------
class TestShardingEvents:
    BATCHES = [5, 5, 4, 2, 1]  # early-exit style depth profile

    def test_single_device_form_unchanged(self):
        tick = CostLedger()
        record_decode_batches(tick, self.BATCHES, make_cluster())
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
            cluster_model(make_cluster(tp=1, pp=SPEC.n_layers * 2))

    def test_tp_shards_layer_time(self):
        single = LatencyModel(SPEC, "a100-80g", "vllm")
        tp4 = cluster_model(make_cluster(tp=4))
        assert tp4.decoder_layer_time(1.0) < single.decoder_layer_time(1.0) / 2
        assert tp4.prefill_layer_time(256.0) < single.prefill_layer_time(256.0) / 2

    def test_allreduce_time_monotone_and_zero_at_tp1(self):
        tp1 = cluster_model(make_cluster(tp=1, pp=2))
        assert tp1.allreduce_time(64.0) == 0.0
        tp4 = cluster_model(make_cluster(tp=4))
        assert 0 < tp4.allreduce_time(8.0) < tp4.allreduce_time(64.0)

    def test_slow_link_prices_allreduce_higher(self):
        fast = cluster_model(make_cluster(tp=4, tp_link="nvlink"))
        slow = cluster_model(make_cluster(tp=4, tp_link="pcie4"))
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
        pp2 = cluster_model(make_cluster(tp=1, pp=2)).price(sharded)
        assert pp2.per_event_s[Event.BATCH_DECODER_LAYER] == pytest.approx(
            single.per_event_s[Event.BATCH_DECODER_LAYER] / 2)
        assert pp2.per_event_s[Event.PIPELINE_BUBBLE] > 0

    def test_preempt_costs_repriced_per_stage(self):
        single = LatencyModel(SPEC, "a100-80g", "vllm")
        pp2 = cluster_model(make_cluster(tp=1, pp=2))
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
        tp2 = cluster_model(make_cluster(tp=2)).price(sharded)
        assert tp2.total_s < tp1.total_s


# ---------------------------------------------------------------------------
# one paged pool under any pipeline depth
# ---------------------------------------------------------------------------
class TestPipelinePoolPinned:
    """Every literal below was measured on the parent commit, where a
    ``pp=2`` engine drove two mirrored per-stage pools through the
    ``ShardedPagedKV`` facade: the one ``PagedKVCache`` must make the same
    admission, preemption and swap decisions at the same modelled times."""

    def swap_engine(self, rig, **kwargs):
        return rig.async_serving_engine(
            batch_capacity=4, kv_blocks=12, block_size=4,
            chunk_prefill_tokens=16, preemption="swap",
            cluster=make_cluster("a100-80g", pp=2), **kwargs)

    def swap_trace(self, rig, engine):
        return list(poisson_trace(
            8, 40.0, rig.model.vocab_size, seed=3, slo_scale=None,
            max_new_tokens_range=(24, 40),
            per_token_s=engine.latency.full_depth_token_time()))

    def chat_engine(self, rig, kv_blocks):
        return rig.async_serving_engine(
            batch_capacity=6, kv_blocks=kv_blocks, block_size=4,
            chunk_prefill_tokens=16, prefix_share=True,
            cluster=make_cluster("a100-80g", pp=2))

    def chat(self, rig, engine):
        return list(chat_trace(
            6, rig.model.vocab_size, tenants=2, turns=3, seed=4,
            rate_per_s=40.0, think_time_s=0.05,
            per_token_s=engine.latency.full_depth_token_time()))

    def test_swap_preempting_trace(self, rig):
        engine = self.swap_engine(rig)
        report = engine.run(self.swap_trace(rig, engine))
        assert len(report.results) == 8 and not report.rejected
        assert (report.preemptions, report.swaps, report.recomputes) == (14, 13, 1)
        assert report.peak_kv_blocks == 12
        assert report.peak_host_tokens == 40
        assert report.cow_copies == 0
        assert report.n_steps == 132
        assert report.makespan_s == 2.271276565507099

    def test_prefix_share_chat_trace(self, rig):
        engine = self.chat_engine(rig, kv_blocks=56)
        report = engine.run(self.chat(rig, engine))
        assert len(report.results) == 18 and not report.rejected
        assert (report.preemptions, report.swaps, report.recomputes) == (5, 2, 3)
        assert report.peak_kv_blocks == 56
        assert report.peak_host_tokens == 43
        assert report.cow_copies == 25
        assert report.n_steps == 67
        assert report.makespan_s == 1.8808291424792496

    def test_admission_backoff_under_sharing_serves_the_trace(self, rig):
        """This pool size made the parent's facade raise ``stages diverged on
        evict_prefix_leaves``: a prompt prefill that ran out of blocks rolled
        back on stage 0 after evicting radix leaves there, and never touched
        stage 1.  One pool has nothing to diverge from."""
        engine = self.chat_engine(rig, kv_blocks=60)
        trace = self.chat(rig, engine)
        report = engine.run(trace)
        assert len(report.results) == 18 and report.preemptions > 0
        sequential = rig.specee_engine()
        for request in trace:
            assert (report.results[request.request_id].tokens
                    == sequential.generate(
                        request.prompt, request.max_new_tokens).tokens)

    def test_any_pipeline_depth_holds_one_pool(self, rig):
        engine = rig.async_serving_engine(
            kv_blocks=32, block_size=4, cluster=make_cluster("a100-80g", pp=4))
        assert type(engine.cache) is PagedKVCache
        assert engine.cache.allocator.n_blocks == 32  # the per-device pool
        engine.begin([])
        assert type(engine.cache) is PagedKVCache
        engine.fail()
        assert type(engine.cache) is PagedKVCache

    def test_corruption_counted_once_and_recovered(self, rig):
        clean = self.swap_engine(rig)
        base = clean.run(self.swap_trace(rig, clean))
        view = FaultInjector("corrupt@0.0:replica=0", 1, seed=5).view(0)
        engine = self.swap_engine(rig, faults=view)
        report = engine.run(self.swap_trace(rig, engine))
        assert report.kv_corruptions == 1
        assert report.recomputes == 2  # the damaged blob fell back
        assert report.n_steps == 132
        # Re-pinned by ISSUE 24 (was 2.284464929237297): degraded ticks decode
        # under the empty predictor schedule, so they no longer pay for
        # LM_HEAD_SLICE and PREDICTOR — the one intended modelled change.
        assert report.makespan_s == 2.2710723672136983
        assert ({i: r.tokens for i, r in report.results.items()}
                == {i: r.tokens for i, r in base.results.items()})


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
