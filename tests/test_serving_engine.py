"""Closed-batch serving (every request arrives at t=0) through the one
serving engine: determinism vs unbatched decoding, admission/queueing
behaviour, duplicate-id rejection, KV lifecycle, and ledger consistency."""

from dataclasses import replace

import numpy as np
import pytest

from repro.data.corpus import generate_prompts
from repro.eval.harness import build_rig
from repro.hardware.ledger import Event
from repro.serving import AdmissionPolicy, Request

# Same asset-cache key as the CLI serve path, so training happens once.
RIG_KWARGS = dict(train_prompts=6, train_tokens=30, predictor_hidden=128, epochs=10)

MIXED_LENGTHS = [12, 20, 9, 16, 25, 14]


@pytest.fixture(scope="module")
def rig():
    return build_rig("llama2-7b", **RIG_KWARGS)


def make_requests(lengths=MIXED_LENGTHS):
    return [Request(i, [i + 3, 2 * i + 1, (5 * i) % 200 + 2], n)
            for i, n in enumerate(lengths)]


def closed_batch_engine(rig, **kwargs):
    """The serving engine in its closed-batch shape: whole-prompt prefill
    (no chunking), so a run is one prefill tick per admission wave plus one
    decode tick per token."""
    kwargs.setdefault("chunk_prefill_tokens", None)
    return rig.async_serving_engine(**kwargs)


class TestRequest:
    def test_bad_request_rejected(self):
        with pytest.raises(ValueError):
            Request(0, [], 4)
        with pytest.raises(ValueError):
            Request(0, [1], 0)


class TestDuplicateRequestIds:
    """A repeated id is refused at the edge, before any tick runs: the
    paged cache keys sequences by request id."""

    def test_duplicate_id_in_trace_rejected(self, rig):
        serving = closed_batch_engine(rig, batch_capacity=4)
        with pytest.raises(ValueError, match="request id 7 "):
            serving.run([Request(7, [1, 2], 4), Request(3, [1], 4),
                         Request(7, [5, 6], 4)])
        assert serving.step_count == 0 and not serving.has_work

    @pytest.mark.parametrize("ticks", [0, 1, 3])
    def test_duplicate_id_on_submit_rejected(self, rig, ticks):
        """Pending (0 ticks), prefilling (1) and decoding (3) ids all count
        as in flight."""
        serving = closed_batch_engine(rig, batch_capacity=4)
        serving.begin([Request(0, [1, 2, 3], 8)])
        for _ in range(ticks):
            serving.advance_tick()
        with pytest.raises(ValueError, match="request id 0 "):
            serving.submit(Request(0, [4, 5], 4))
        serving.submit(Request(1, [4, 5], 4))  # a fresh id is fine
        while serving.has_work:
            serving.advance_tick()
        assert sorted(serving.finish_report().results) == [0, 1]

    def test_waiting_id_counts_as_in_flight(self, rig):
        serving = closed_batch_engine(rig, batch_capacity=1)
        serving.begin([Request(0, [1, 2], 4), Request(1, [3, 4], 4)])
        serving.advance_tick()
        assert [r.request_id for r in serving.waiting] == [1]
        with pytest.raises(ValueError, match="request id 1 "):
            serving.submit(Request(1, [9], 2))

    def test_resubmit_after_finish_accepted(self, rig):
        """An id that has left the engine may come back (the router's
        failover re-submission relies on this)."""
        serving = closed_batch_engine(rig, batch_capacity=2)
        serving.begin([Request(0, [1, 2, 3], 2)])
        while serving.has_work:
            serving.advance_tick()
        first = list(serving.report.results[0].tokens)
        serving.submit(Request(0, [1, 2, 3], 2))
        while serving.has_work:
            serving.advance_tick()
        assert serving.finish_report().results[0].tokens == first


class TestAdmissionPolicy:
    def test_blocks_needed_rounds_up(self):
        policy = AdmissionPolicy(n_blocks=8, block_size=4, batch_capacity=4)
        assert policy.blocks_needed(Request(0, [1], 4)) == 1
        assert policy.blocks_needed(Request(0, [1], 5)) == 2

    def test_capacity_and_pool_limits(self):
        policy = AdmissionPolicy(n_blocks=8, block_size=4, batch_capacity=2)
        request = Request(0, [1], 8)  # needs 2 blocks
        assert policy.admissible(request, reserved_blocks=0, running=0)
        assert not policy.admissible(request, reserved_blocks=0, running=2)
        assert not policy.admissible(request, reserved_blocks=7, running=1)

    def test_impossible_request_raises(self):
        policy = AdmissionPolicy(n_blocks=2, block_size=4, batch_capacity=4)
        with pytest.raises(MemoryError):
            policy.admissible(Request(0, [1], 100), reserved_blocks=0, running=0)


class TestServingDeterminism:
    @pytest.mark.parametrize("flavor", ["offline", "online", "two_level", "all"])
    def test_token_identical_to_sequential(self, rig, flavor):
        """Continuous batching must not change a single token, for every
        scheduler flavor and a mixed-length batch: each request's tokens,
        exit layers, step records and ledger (in insertion order, which
        pricing sums in) equal batch-1 ``generate``."""
        serving = closed_batch_engine(rig, scheduler_kind=flavor,
                                      batch_capacity=4, kv_blocks=64,
                                      block_size=4)
        requests = make_requests()
        report = serving.run(requests)
        sequential = rig.specee_engine(flavor)
        for request in requests:
            reference = sequential.generate(request.prompt, request.max_new_tokens)
            served = report.results[request.request_id]
            assert served.tokens == reference.tokens
            assert served.exit_layers == reference.exit_layers
            assert [replace(r, hidden=None) for r in served.records] == reference.records
            assert list(served.ledger.as_dict().items()) == \
                   list(reference.ledger.as_dict().items())

    def test_synthetic_serving_decodes_through_step_batch(self, rig, monkeypatch):
        """The synthetic backend serves through ``step_batch`` by default
        (``LayeredLM``'s loop defaults), never through the batch-1 ``step``."""
        serving = closed_batch_engine(rig, batch_capacity=4)
        assert serving.batched is True
        calls = []
        step_batch = serving.engine.step_batch
        monkeypatch.setattr(serving.engine, "step_batch",
                            lambda *a, **kw: calls.append(len(a[0])) or step_batch(*a, **kw))
        monkeypatch.setattr(serving.engine, "step", lambda *a, **kw: pytest.fail("step"))
        report = serving.run(make_requests([6, 3, 5]))
        assert sum(calls) == report.total_tokens == 14
        assert max(calls) == 3

    def test_capacity_does_not_change_tokens(self, rig):
        requests = make_requests()
        outputs = []
        for capacity in (1, 4):
            serving = closed_batch_engine(rig, batch_capacity=capacity,
                                          kv_blocks=64, block_size=4)
            report = serving.run(make_requests())
            outputs.append({i: r.tokens for i, r in report.results.items()})
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == len(requests)


class TestServingEdgeCases:
    def test_zero_requests(self, rig):
        report = closed_batch_engine(rig, batch_capacity=4).run([])
        assert report.results == {} and report.n_steps == 0
        assert np.isnan(report.avg_batch_occupancy)
        assert report.total_tokens == 0

    def test_single_request(self, rig):
        serving = closed_batch_engine(rig, batch_capacity=4, kv_blocks=16,
                                      block_size=4)
        report = serving.run([Request(0, [5, 6, 7], 10)])
        assert len(report.results[0].tokens) == 10
        assert report.n_steps == 11  # one prefill tick, then a token per tick
        assert report.metrics[0].admitted_step == 0  # no queue wait
        assert report.metrics[0].finished_step == 10
        assert report.metrics[0].latency_s == pytest.approx(report.makespan_s)

    def test_more_requests_than_kv_blocks(self, rig):
        """Pool holds one request's worst case at a time: under reserve
        admission requests serve in waves, later ones queue, everyone
        completes."""
        serving = closed_batch_engine(rig, batch_capacity=4, kv_blocks=4,
                                      block_size=4, admission="reserve")
        requests = [Request(i, [i + 1, i + 2], 16) for i in range(5)]  # 4 blocks each
        report = serving.run(requests)
        assert len(report.results) == 5
        assert all(len(r.tokens) == 16 for r in report.results.values())
        assert max(report.batch_occupancy) == 1  # pool admits one at a time
        # Each wave is one prefill tick plus 16 decode ticks.
        waits = sorted(m.admitted_step for m in report.metrics.values())
        assert waits == [0, 17, 34, 51, 68]
        assert report.preemptions == 0

    def test_request_bigger_than_pool_raises(self, rig):
        """Oversize is refused at arrival and never waits: it is recorded as
        a typed rejection and no tick is priced for it."""
        serving = closed_batch_engine(rig, batch_capacity=4, kv_blocks=2,
                                      block_size=4)
        request = Request(0, [1, 2], 100)
        report = serving.run([request])
        assert report.results == {}
        assert serving.policy.oversize_reason(request) in report.rejected[0]
        assert report.n_steps == 0 and report.makespan_s == 0.0
        assert not list(report.serving_ledger.kinds())

    def test_occupancy_never_exceeds_capacity(self, rig):
        serving = closed_batch_engine(rig, batch_capacity=3, kv_blocks=64,
                                      block_size=4)
        report = serving.run(make_requests())
        assert max(report.batch_occupancy) <= 3


class TestKVLifecycle:
    def test_blocks_all_freed_after_run(self, rig):
        serving = closed_batch_engine(rig, batch_capacity=4, kv_blocks=32,
                                      block_size=4)
        serving.run(make_requests())
        assert serving.cache.allocator.free_blocks == 32
        assert serving.cache.blocks_in_use() == 0

    def test_peak_counts_blocks_freed_on_final_tick(self, rig):
        serving = closed_batch_engine(rig, batch_capacity=4, kv_blocks=16,
                                      block_size=4)
        report = serving.run([Request(0, [1, 2, 3], 1)])
        assert report.peak_kv_blocks == 1  # allocated and freed within one tick

    def test_cache_holds_exit_hidden_states(self, rig):
        """Mid-flight, the paged cache's gather view is bit-exact against the
        hidden states the engine committed tokens from."""
        serving = closed_batch_engine(rig, batch_capacity=1, kv_blocks=16,
                                      block_size=4)
        serving.begin([Request(0, [4, 5, 6], 8)])
        for _ in range(6):  # one prefill tick + five decoded tokens
            serving.advance_tick()
        ks, vs = serving.cache.gather(0)
        slot = serving.running[0]
        assert len(slot.result.records) == 5
        expected = np.stack([r.hidden.reshape(serving.cache.n_kv_heads,
                                              serving.cache.head_dim)
                             for r in slot.result.records])
        assert np.array_equal(ks, expected)
        assert np.array_equal(vs, expected)
        while serving.has_work:
            serving.advance_tick()
        assert serving.cache.blocks_in_use() == 0


class TestServingLedger:
    def test_batched_layers_account_every_layer_call(self, rig):
        serving = closed_batch_engine(rig, batch_capacity=4, kv_blocks=64,
                                      block_size=4)
        report = serving.run(make_requests())
        merged_layers = report.sequential_ledger.calls(Event.DECODER_LAYER)
        assert report.serving_ledger.units(Event.BATCH_DECODER_LAYER) == merged_layers
        assert report.serving_ledger.calls(Event.DECODER_LAYER) == 0
        assert (report.serving_ledger.tokens_generated
                == report.sequential_ledger.tokens_generated == report.total_tokens)
        assert report.serving_ledger.steps == report.n_steps
        assert report.sequential_ledger.steps == report.total_tokens

    def test_batching_speeds_up_modelled_throughput(self, rig):
        serving = closed_batch_engine(rig, batch_capacity=4, kv_blocks=64,
                                      block_size=4)
        report = serving.run(make_requests([24] * 6))
        assert report.speedup > 1.5
        assert report.throughput_tps > report.sequential_tps

    def test_finish_report_is_idempotent(self, rig):
        """Sealing twice must not fold the result ledgers in twice."""
        serving = closed_batch_engine(rig, batch_capacity=4, kv_blocks=64,
                                      block_size=4)
        first = serving.run(make_requests([8] * 4))
        sealed = (first.sequential_tps, first.speedup,
                  first.sequential_ledger.as_dict())
        assert first.sequential_ledger.tokens_generated == 32
        again = serving.finish_report()
        assert (again.sequential_tps, again.speedup,
                again.sequential_ledger.as_dict()) == sealed


class TestClosedBatchLedgerPinned:
    """The ``bench_serving_throughput`` request set (seed 0), served as a
    closed batch: per-request tokens equal batch-1 ``generate`` and every
    ledger event kind carries exactly these calls and units (the values the
    committed ``BENCH_serving.json`` baseline was priced from)."""

    COMMON = {
        Event.BATCH_DECODER_LAYER: (4044, 23567),
        Event.DRAFT_STEP: (1024, 1024),
        Event.KV_FILL: (790, 9201),
        Event.LM_HEAD_FULL: (2612, 2612),
        Event.LM_HEAD_SLICE: (8223, 32892),
        Event.PREDICTOR: (8223, 8223),
    }

    def serve(self, rig, prompts, **kwargs):
        requests = [Request(i, p, 64) for i, p in enumerate(prompts)]
        report = closed_batch_engine(
            rig, batch_capacity=8, kv_blocks=512, block_size=16,
            **kwargs).run(requests)
        sequential = rig.specee_engine()
        for request in requests:
            assert (report.results[request.request_id].tokens
                    == sequential.generate(request.prompt, 64).tokens)
        return report

    @staticmethod
    def counts(ledger):
        return {kind: (ledger.calls(kind), ledger.units(kind))
                for kind in ledger.kinds()}

    @pytest.mark.parametrize("admission", ["optimistic", "reserve"])
    def test_bench_request_set(self, rig, admission):
        prompts = generate_prompts(16, rig.model.vocab_size, seed=7)
        report = self.serve(rig, prompts, admission=admission)
        assert self.counts(report.serving_ledger) == {
            **self.COMMON, Event.PREFILL_LAYER: (512, 4320)}
        assert report.serving_ledger.tokens_generated == 1024
        assert report.serving_ledger.prompt_tokens == 135
        assert report.total_tokens == 1024 and report.n_steps == 130

    def test_bench_request_set_with_prefix_share(self, rig):
        prompts = generate_prompts(16, rig.model.vocab_size, seed=7)
        report = self.serve(rig, prompts, prefix_share=True)
        assert self.counts(report.serving_ledger) == {
            **self.COMMON, Event.PREFILL_LAYER: (512, 4256),
            Event.PREFIX_REUSE: (2, 2)}
        assert report.prefix_matched_tokens == 2

    def test_shared_system_prompt_with_prefix_share(self, rig):
        """Same set behind one 48-token system prompt: the adopted prefix is
        credited in-tick (722 of 903 prompt tokens never prefilled)."""
        system = list(range(1, 49))
        prompts = [system + p for p in
                   generate_prompts(16, rig.model.vocab_size, seed=7)]
        report = self.serve(rig, prompts, prefix_share=True)
        assert self.counts(report.serving_ledger) == {
            Event.BATCH_DECODER_LAYER: (4059, 24265),
            Event.DRAFT_STEP: (1024, 1024),
            Event.KV_FILL: (770, 8503),
            Event.LM_HEAD_FULL: (2658, 2658),
            Event.LM_HEAD_SLICE: (8583, 34332),
            Event.PREDICTOR: (8583, 8583),
            Event.PREFILL_LAYER: (512, 5792),
            Event.PREFIX_REUSE: (15, 722),
        }
        assert report.prefix_matched_tokens == 722
        assert report.prefix_hit_rate == pytest.approx(722 / 903)


class TestStepAPI:
    def test_generate_equals_manual_step_loop(self, rig):
        engine = rig.specee_engine()
        reference = engine.generate([9, 9, 9], 20)
        state, result = engine.prefill([9, 9, 9])
        scheduler = engine.scheduler
        scheduler.reset()
        for _ in range(20):
            engine.step(state, result, scheduler=scheduler)
        engine.finish(state, result)
        assert result.tokens == reference.tokens
        assert result.exit_layers == reference.exit_layers
        assert result.saturations == reference.saturations

    def test_step_record_carries_hidden_only_when_asked(self, rig):
        engine = rig.specee_engine()
        state, result = engine.prefill([1, 2, 3])
        engine.scheduler.reset()
        record = engine.step(state, result, capture_hidden=True)
        assert record.hidden is not None
        assert record.hidden.shape == (rig.model.hidden_dim,)
        plain = engine.step(state, result)
        assert plain.hidden is None  # plain generation skips the copy
