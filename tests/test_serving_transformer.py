"""Real-transformer serving: the batched decode fast path must be
token-identical to the sequential per-sequence loop — across ragged prompt
lengths, per-sequence early exits with KV hidden-state propagation, and
sequences retiring mid-batch — while measuring wall-clock throughput."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.config import SpecEEConfig
from repro.distributed import make_cluster
from repro.hardware.ledger import Event
from repro.eval.harness import build_transformer_rig
from repro.nn.attention import INFERENCE_DTYPE, KVCache
from repro.serving import PagedKVCache, Request

# Unverified-exit ablation with a permissive threshold: the untrained-oracle
# draft rarely survives verification on random weights, so this config is how
# the tests exercise *frequent* per-sequence early exits deterministically.
EXITY_CFG = SpecEEConfig(exit_threshold=0.35, min_exit_layer=1,
                         scheduler="all", verify_on_exit=False)


@pytest.fixture
def rig(small_transformer_rig):
    """Alias onto the shared session-scoped rig (see tests/conftest.py)."""
    return small_transformer_rig


def ragged_requests():
    """Ragged prompt lengths AND ragged token budgets (mid-batch retirement)."""
    lengths = [6, 3, 9, 4, 7, 5]
    budgets = [10, 4, 12, 7, 5, 9]
    return [Request(i, [(i * 11 + j) % 128 + 1 for j in range(n)], b)
            for i, (n, b) in enumerate(zip(lengths, budgets))]


def run_serving(rig, batched, config=None, capacity=4, **kwargs):
    """Serve the ragged set as a closed batch (all arrivals at t=0,
    whole-prompt prefill) and check it against batch-1 ``generate``."""
    serving = rig.async_serving_engine(
        batch_capacity=capacity, kv_blocks=256, block_size=8, batched=batched,
        config=config, chunk_prefill_tokens=None, **kwargs)
    assert serving.batched is batched
    report = serving.run(ragged_requests())
    assert_matches_generate(rig, report, ragged_requests(), config,
                            kwargs.get("scheduler_kind", "two_level"))
    return report


def assert_matches_generate(rig, report, requests, config=None,
                            scheduler_kind="two_level"):
    """Per-request tokens and exit layers equal plain batch-1 decoding."""
    reference = rig.specee_engine(scheduler_kind, config)
    for request in requests:
        ref = reference.generate(request.prompt, request.max_new_tokens)
        out = report.results[request.request_id]
        assert out.tokens == ref.tokens and out.exit_layers == ref.exit_layers


def burst_requests(n=4, tokens=10):
    """Same-instant arrivals with enough decode KV demand that an 8-block
    pool (see ``tight_async``) must preempt to make progress."""
    return [Request(i, [(i * 7 + j) % 128 + 1 for j in range(3 + i)], tokens)
            for i in range(n)]


def tight_async(rig, **overrides):
    """Async engine whose KV pool is far below the batch's worst case."""
    kwargs = dict(batch_capacity=4, kv_blocks=8, block_size=4,
                  admission="optimistic", preemption="auto",
                  chunk_prefill_tokens=8, config=EXITY_CFG)
    kwargs.update(overrides)
    return rig.async_serving_engine(**kwargs)


class TestBatchedIdentity:
    def test_batched_tokens_identical_to_sequential(self, rig):
        batched = run_serving(rig, batched=True)
        sequential = run_serving(rig, batched=False)
        assert {i: r.tokens for i, r in batched.results.items()} == \
               {i: r.tokens for i, r in sequential.results.items()}
        assert {i: r.exit_layers for i, r in batched.results.items()} == \
               {i: r.exit_layers for i, r in sequential.results.items()}

    def test_identity_with_frequent_early_exits(self, rig):
        batched = run_serving(rig, batched=True, config=EXITY_CFG)
        sequential = run_serving(rig, batched=False, config=EXITY_CFG)
        n_early = sum(sum(r.early_exit for r in res.records)
                      for res in batched.results.values())
        assert n_early >= 5, "config must actually trigger early exits"
        exits = {l for res in batched.results.values() for l in res.exit_layers}
        assert len(exits) > 1, "exits must be ragged across the layer range"
        assert {i: r.tokens for i, r in batched.results.items()} == \
               {i: r.tokens for i, r in sequential.results.items()}
        assert {i: r.exit_layers for i, r in batched.results.items()} == \
               {i: r.exit_layers for i, r in sequential.results.items()}

    def test_identity_across_capacities(self, rig):
        """Admission order changes with capacity, tokens must not."""
        small = run_serving(rig, batched=True, config=EXITY_CFG, capacity=2)
        large = run_serving(rig, batched=True, config=EXITY_CFG, capacity=6)
        assert {i: r.tokens for i, r in small.results.items()} == \
               {i: r.tokens for i, r in large.results.items()}

    def test_ledgers_identical_to_sequential(self, rig):
        batched = run_serving(rig, batched=True, config=EXITY_CFG)
        sequential = run_serving(rig, batched=False, config=EXITY_CFG)
        for kind in (Event.DECODER_LAYER, Event.LM_HEAD_SLICE, Event.PREDICTOR,
                     Event.LM_HEAD_FULL, Event.KV_FILL):
            assert batched.sequential_ledger.calls(kind) == \
                   sequential.sequential_ledger.calls(kind), kind

    def test_early_exit_kv_propagation_keeps_caches_rectangular(self, rig):
        """Early exits must leave every (sequence, layer) cache rectangular:
        hidden-state propagation fills the skipped layers' KV slots."""
        engine = rig.specee_engine("all", EXITY_CFG)
        factories = [rig.make_scheduler("all", EXITY_CFG) for _ in range(3)]
        pairs = [engine.prefill([(i * 5 + j) % 128 + 1 for j in range(3 + i)])
                 for i in range(3)]
        states = [s for s, _ in pairs]
        results = [r for _, r in pairs]
        for _ in range(6):
            engine.step_batch(states, results, factories)
        assert any(r.early_exit for res in results for r in res.records)
        for state in states:
            for layer in range(engine.model.n_layers):
                assert state.cache.length(layer) == len(state.context)


def closed_batch(n=16, tokens=6):
    """``n`` t=0 arrivals with ragged prompts (lengths 1..7, so a 1-row
    prompt rides in every admit wave)."""
    return [Request(i, [(i * 13 + j) % 128 + 1 for j in range(1 + i % 7)], tokens)
            for i in range(n)]


class TestBatchedPrefill:
    """A tick's fresh admits share one ``prefill_batch`` pass; every
    admission decision, ledger line and token is what per-request prefill
    gave."""

    @staticmethod
    def spy_prefill_batches(rig, monkeypatch):
        """Record the size of every ``start_batch`` the backend receives."""
        sizes = []
        model_type = type(rig.model)
        real = model_type.start_batch

        def start_batch(self, prompts, scripts=None):
            sizes.append(len(prompts))
            return real(self, prompts, scripts)

        monkeypatch.setattr(model_type, "start_batch", start_batch)
        return sizes

    def test_closed_batch16_equals_batch1_generate(self, rig, monkeypatch):
        sizes = self.spy_prefill_batches(rig, monkeypatch)
        serving = rig.async_serving_engine(
            batch_capacity=16, kv_blocks=256, block_size=8,
            chunk_prefill_tokens=None)
        requests = closed_batch()
        report = serving.run(requests)
        # Checked before the reference decode, which prefills one at a time.
        assert sizes == [16], "sixteen t=0 arrivals are one batched prefill"
        assert_matches_generate(rig, report, requests)

    def test_ledger_and_tokens_equal_per_request_prefill(self, rig, monkeypatch):
        """The modelled clock never sees the batching: against a server whose
        ``prefill_batch`` loops per-request ``prefill`` (the old admit loop),
        the serving ledger, tick prices and tokens are all identical."""
        def run():
            serving = rig.async_serving_engine(
                batch_capacity=8, kv_blocks=64, block_size=4, config=EXITY_CFG)
            return serving.run(closed_batch())

        batched = run()
        engine_type = type(rig.specee_engine())
        monkeypatch.setattr(
            engine_type, "prefill_batch",
            lambda self, prompts, scripts: [
                self.prefill(p, script=s) for p, s in zip(prompts, scripts)])
        looped = run()
        assert batched.serving_ledger.snapshot() == looped.serving_ledger.snapshot()
        assert batched.tick_seconds == looped.tick_seconds
        assert batched.batch_occupancy == looped.batch_occupancy
        for rid, result in looped.results.items():
            assert batched.results[rid].tokens == result.tokens
            assert batched.results[rid].exit_layers == result.exit_layers
            assert batched.metrics[rid] == looped.metrics[rid]

    def test_reserve_admission_counts_slots_before_they_are_prefilled(
            self, rig, monkeypatch):
        """Reserve mode must see each admit's reservation while the wave is
        still being collected: 10-token budgets reserve 3 of 8 blocks each,
        so waves are two wide however many slots the batch has."""
        sizes = self.spy_prefill_batches(rig, monkeypatch)
        serving = rig.async_serving_engine(
            batch_capacity=6, kv_blocks=8, block_size=4, admission="reserve",
            preemption="never")
        requests = closed_batch(6, tokens=10)
        report = serving.run(requests)
        assert sizes == [2, 2, 2]
        assert report.preemptions == 0 and not report.rejected
        assert_matches_generate(rig, report, requests)

    def test_prefix_share_backoff_leaves_the_wave_consistent(self, rig, monkeypatch):
        """Optimistic admission with paged prompts: the third 10-token prompt
        finds a free block but not the three it needs, ``prefill_prompt``
        raises, and the request goes back to the queue head — the two
        already collected are still prefilled together, it is served later."""
        backoffs = []
        real = PagedKVCache.prefill_prompt

        def prefill_prompt(self, seq_id, prompt):
            try:
                return real(self, seq_id, prompt)
            except MemoryError:
                backoffs.append(seq_id)
                raise

        monkeypatch.setattr(PagedKVCache, "prefill_prompt", prefill_prompt)
        sizes = self.spy_prefill_batches(rig, monkeypatch)
        serving = rig.async_serving_engine(
            batch_capacity=4, kv_blocks=8, block_size=4, prefix_share=True,
            chunk_prefill_tokens=None)
        requests = [Request(i, [(i * 17 + j) % 128 + 1 for j in range(10)], 4)
                    for i in range(3)]
        report = serving.run(requests)
        assert backoffs and backoffs[0] == 2
        assert sizes[0] == 2 and sum(sizes) == 3
        assert report.metrics[2].admitted_step > report.metrics[1].admitted_step
        assert_matches_generate(rig, report, requests)

    def test_salvage_adoption_and_fresh_admits_share_a_tick(self, rig, monkeypatch):
        """A crashed replica's decoded sequence is adopted in the same admit
        loop as two fresh requests: it resumes by recompute (no prefill), the
        fresh two are one batch, all three finish with reference tokens."""
        kwargs = dict(batch_capacity=4, kv_blocks=64, block_size=4)
        requests = closed_batch(3, tokens=8)
        victim = rig.async_serving_engine(**kwargs)
        victim.begin(requests[:1])
        for _ in range(4):
            victim.advance_tick()
        salvage = victim.fail()
        (slot,) = salvage.slots
        assert 0 < len(slot.result.tokens) < 8

        sizes = self.spy_prefill_batches(rig, monkeypatch)
        target = rig.async_serving_engine(**kwargs)
        target.begin([])
        target.submit(requests[1])
        target.submit(slot.request, salvage=slot)
        target.submit(requests[2])
        while target.has_work:
            target.advance_tick()
        report = target.finish_report()
        assert sizes == [2]
        assert {m.admitted_step for m in report.metrics.values()} == {0}
        assert report.metrics[0].recomputes == 1
        assert_matches_generate(rig, report, requests)


class TestContextLimit:
    """A request that cannot fit the backend's context is rejected at the
    edge instead of overflowing the KV cache mid-tick."""

    @pytest.fixture(scope="class")
    def short_rig(self, small_transformer_rig):
        return build_transformer_rig(small_transformer_rig.model.cfg, seed=0,
                                     max_tokens=64)

    TRACE = [
        Request(0, [5, 6, 7], 12),
        Request(1, [(j % 128) + 1 for j in range(59)], 16),  # 75 > 64
        Request(2, [9, 8], 12, arrival_s=0.001),
        Request(3, [4] * 40, 24),  # exactly 64: fits
    ]

    def test_over_context_request_is_rejected_and_the_rest_finish(self, short_rig):
        serving = short_rig.async_serving_engine(
            batch_capacity=4, kv_blocks=64, block_size=8)
        report = serving.run(self.TRACE)
        assert set(report.rejected) == {1}
        assert "75 context tokens" in report.rejected[1]
        assert "limit is 64" in report.rejected[1]
        served = [r for r in self.TRACE if r.request_id != 1]
        assert set(report.results) == {r.request_id for r in served}
        assert_matches_generate(short_rig, report, served)

    def test_router_rejects_it_before_any_replica_sees_it(self, short_rig):
        fleet = short_rig.router_fleet(2, batch_capacity=4, kv_blocks=64,
                                       block_size=8)
        report = fleet.run(self.TRACE)
        assert set(report.rejected) == {1}
        assert "no replica can hold it" in report.rejected[1]
        assert "limit is 64" in report.rejected[1]
        assert 1 not in report.assignments
        assert set(report.results) == {0, 2, 3}

    def test_the_rotary_table_caps_the_declared_limit(self, small_transformer_rig):
        """A model with fewer rotary positions than ``max_tokens`` declares
        the smaller limit: a request past the table is rejected at arrival
        instead of raising mid-tick and taking its batch-mates with it."""
        cfg = replace(small_transformer_rig.model.cfg, max_positions=64)
        rig = build_transformer_rig(cfg, seed=0, max_tokens=512)
        assert rig.model.max_tokens == 64
        trace = [Request(0, [(j % 128) + 1 for j in range(59)], 20),
                 Request(1, [3, 1, 4, 1, 5, 9, 2, 6, 5], 12)]
        report = rig.async_serving_engine(
            batch_capacity=4, kv_blocks=64, block_size=8).run(trace)
        assert set(report.rejected) == {0}
        assert "79 context tokens" in report.rejected[0]
        assert "limit is 64" in report.rejected[0]
        assert_matches_generate(rig, report, trace[1:])

    def test_backends_without_a_limit_reject_nothing(self, control_rig):
        assert control_rig.model.max_tokens is None
        serving = control_rig.async_serving_engine(batch_capacity=2)
        assert serving.oversize_reason(Request(0, [1] * 5000, 16)) is None
        assert "KV blocks" in serving.oversize_reason(Request(0, [1], 5000))


class TestWallClockReport:
    def test_measured_throughput_present(self, rig):
        report = run_serving(rig, batched=True)
        assert report.wall_time_s > 0.0
        assert np.isfinite(report.measured_tps) and report.measured_tps > 0.0

    def test_modelled_numbers_still_priced(self, rig):
        report = run_serving(rig, batched=True)
        assert report.throughput_tps > 0 and report.sequential_tps > 0

    def test_batch_decoder_layer_events_emitted(self, rig):
        """The serving ledger still rebatches per-tick layer runs."""
        report = run_serving(rig, batched=True)
        assert report.serving_ledger.calls(Event.BATCH_DECODER_LAYER) > 0
        assert report.serving_ledger.units(Event.BATCH_DECODER_LAYER) == \
               report.sequential_ledger.calls(Event.DECODER_LAYER)


class TestSchedulerIsolation:
    def test_per_sequence_online_history_isolated(self, rig):
        """Two-level/online schedulers keep per-sequence exit history, so the
        batched run must also match sequential under an online scheduler."""
        cfg = SpecEEConfig(exit_threshold=0.35, min_exit_layer=1,
                           scheduler="online", verify_on_exit=False)
        reports = {batched: run_serving(rig, batched, config=cfg,
                                        scheduler_kind="online")
                   for batched in (True, False)}
        assert {i: r.tokens for i, r in reports[True].results.items()} == \
               {i: r.tokens for i, r in reports[False].results.items()}


class TestRealKVPreemption:
    """The real-tensor side of preemption: :class:`KVCache` swap blobs and
    the :class:`LayeredLM` preemption hooks the async engine drives."""

    def test_kv_cache_swap_roundtrip_bit_exact(self):
        cache = KVCache(n_layers=2, n_kv_heads=2, head_dim=4, max_tokens=64,
                        initial_tokens=4)
        rng = np.random.default_rng(0)
        kept = []
        for layer in range(2):
            # Drawn in the dtype the cache stores, so bit-exact means exact.
            k = rng.normal(size=(2, 7, 4)).astype(INFERENCE_DTYPE)
            v = rng.normal(size=(2, 7, 4)).astype(INFERENCE_DTYPE)
            cache.append(layer, k, v)
            kept.append((k.copy(), v.copy()))
        blob = cache.swap_out()
        # Eviction really freed the device side: back to the initial alloc.
        assert cache.length(0) == 0 and cache.length(1) == 0
        assert cache.capacity == 4
        cache.swap_in(blob)
        for layer, (k, v) in enumerate(kept):
            assert np.array_equal(cache.view(layer)[0], k)
            assert np.array_equal(cache.view(layer)[1], v)

    def _decode(self, rig, interrupt, mode):
        """8 decode steps; optionally preempt-and-resume after step 3."""
        engine = rig.specee_engine(config=EXITY_CFG)
        state, result = engine.prefill([5, 9, 2, 44, 17])
        for step in range(8):
            if step == 3 and interrupt:
                if mode == "swap":
                    rig.model.swap_out_state(state)
                    assert state.host_kv is not None
                    assert state.cache.length(0) == 0  # device side evicted
                    rig.model.swap_in_state(state)
                else:
                    rig.model.drop_state_kv(state)
                    rig.model.recompute_state(state)
            engine.step(state, result)
        return result

    def test_mid_decode_swap_roundtrip_token_identical(self, rig):
        ref = self._decode(rig, interrupt=False, mode="swap")
        out = self._decode(rig, interrupt=True, mode="swap")
        assert out.tokens == ref.tokens and out.exit_layers == ref.exit_layers

    def test_mid_decode_recompute_token_identical(self, rig):
        ref = self._decode(rig, interrupt=False, mode="recompute")
        out = self._decode(rig, interrupt=True, mode="recompute")
        assert out.tokens == ref.tokens and out.exit_layers == ref.exit_layers

    def test_swap_in_without_swap_out_raises(self, rig):
        engine = rig.specee_engine(config=EXITY_CFG)
        state, _ = engine.prefill([5, 9, 2])
        with pytest.raises(RuntimeError, match="swap_out_state"):
            rig.model.swap_in_state(state)


class TestAsyncTransformer:
    """The engine driving the real transformer under KV pressure: preempted
    then resumed sequences must be token-identical to undisturbed batch-1
    decoding."""

    @pytest.mark.parametrize("mode", ["swap", "recompute", "auto"])
    def test_preempted_resume_token_identical(self, rig, mode):
        requests = burst_requests()
        report = tight_async(rig, preemption=mode).run(requests)
        assert report.preemptions > 0, "config must actually exercise preemption"
        assert_matches_generate(rig, report, requests, EXITY_CFG)
        if mode == "swap":
            assert report.swaps == report.preemptions
            assert report.serving_ledger.units(Event.KV_SWAP) > 0
        if mode == "recompute":
            assert report.recomputes == report.preemptions

    @pytest.mark.parametrize("mode", ["swap", "recompute"])
    def test_propagate_fill_preempted_resume_token_identical(self, rig, mode):
        """Hidden-state propagation: skipped layers hold K/V projected from
        the exit hidden, so a recompute resume must replay the recorded exits
        through the same fused fill the commits used."""
        import dataclasses

        from repro.model.transformer_backend import TransformerLayeredLM

        factory = lambda: TransformerLayeredLM(
            lm=rig.model.lm, max_tokens=256, kv_fill="propagate")
        propagate = dataclasses.replace(rig, model=factory(), model_factory=factory)
        requests = burst_requests()
        report = tight_async(propagate, preemption=mode).run(requests)
        assert report.preemptions > 0
        assert any(r.early_exit for out in report.results.values()
                   for r in out.records)
        assert_matches_generate(propagate, report, requests, EXITY_CFG)

    def test_chunked_prefill_matches_reference_without_pressure(self, rig):
        """The engine's default shape (chunked prefill, roomy pool)."""
        report = rig.async_serving_engine(
            batch_capacity=4, kv_blocks=256, block_size=8,
            config=EXITY_CFG).run(ragged_requests())
        assert report.preemptions == 0
        assert_matches_generate(rig, report, ragged_requests(), EXITY_CFG)

    def test_scalar_fallback_identical(self, rig):
        requests = burst_requests()
        batched = tight_async(rig, batched=True).run(requests)
        scalar = tight_async(rig, batched=False).run(requests)
        assert {i: r.tokens for i, r in batched.results.items()} == \
               {i: r.tokens for i, r in scalar.results.items()}

    def test_wall_clock_reported(self, rig):
        report = tight_async(rig).run(burst_requests())
        assert report.wall_time_s > 0.0
        assert np.isfinite(report.measured_tps) and report.measured_tps > 0.0


class TestShardedTransformer:
    """tp/pp sharding is a ledger rewrite: the sharded transformer decode
    must stay token-identical to the single-device run, for a closed batch
    and for chunked prefill."""

    def test_sync_sharded_tokens_identical(self, rig):
        """Closed batch (synchronous arrivals at t=0), tp=2 x pp=2."""
        single = run_serving(rig, batched=True, config=EXITY_CFG)
        sharded = run_serving(rig, batched=True, config=EXITY_CFG,
                              cluster=make_cluster("a100-80g", tp=2, pp=2))
        assert {i: r.tokens for i, r in sharded.results.items()} == \
               {i: r.tokens for i, r in single.results.items()}
        assert (sharded.serving_ledger.units(Event.BATCH_DECODER_LAYER)
                == single.serving_ledger.units(Event.BATCH_DECODER_LAYER))
        assert sharded.serving_ledger.calls(Event.ALLREDUCE) > 0

    def test_async_sharded_tokens_identical(self, rig):
        requests = ragged_requests()
        kwargs = dict(batch_capacity=4, kv_blocks=64, block_size=8,
                      config=EXITY_CFG)
        single = rig.async_serving_engine(**kwargs).run(requests)
        sharded = rig.async_serving_engine(
            cluster=make_cluster("a100-80g", tp=2, pp=2), **kwargs,
        ).run(ragged_requests())
        assert {i: r.tokens for i, r in sharded.results.items()} == \
               {i: r.tokens for i, r in single.results.items()}
        assert sharded.serving_ledger.calls(Event.PIPELINE_BUBBLE) > 0


@st.composite
def control_overrides(draw):
    """A batch of 1-16 rows with per-row exit thresholds and draft lengths
    in ``[1, k]``, verification on or off, and a scheduler kind."""
    b = draw(st.integers(1, 16))
    thresholds = draw(st.lists(st.floats(0.0, 1.0), min_size=b, max_size=b))
    draft_lens = draw(st.lists(st.integers(1, 4), min_size=b, max_size=b))
    return (thresholds, draft_lens, draw(st.booleans()),
            draw(st.sampled_from(["all", "offline", "online"])))


class TestBatchedPredictorPath:
    """``step_batch``'s merged exit check (one slice, one MLP pass and one
    verify GEMM per layer per tick) must make the same exit decisions and
    charge the same ledgers as the reference: the scalar ``step`` loop
    (``batched=False``)."""

    def run_with_flag(self, rig, flag, scheduler_kind="two_level", config=None):
        serving = rig.async_serving_engine(
            scheduler_kind=scheduler_kind, batch_capacity=4, kv_blocks=256,
            block_size=8, batched=flag, config=config or EXITY_CFG,
            chunk_prefill_tokens=None)
        return serving.run(ragged_requests())

    def test_decisions_identical_to_per_sequence(self, rig):
        batched = self.run_with_flag(rig, True)
        scalar = self.run_with_flag(rig, False)
        assert {i: r.tokens for i, r in batched.results.items()} == \
               {i: r.tokens for i, r in scalar.results.items()}
        assert {i: r.exit_layers for i, r in batched.results.items()} == \
               {i: r.exit_layers for i, r in scalar.results.items()}
        for kind in (Event.DECODER_LAYER, Event.LM_HEAD_SLICE, Event.PREDICTOR,
                     Event.LM_HEAD_FULL, Event.KV_FILL):
            assert batched.sequential_ledger.calls(kind) == \
                   scalar.sequential_ledger.calls(kind), kind
            assert batched.sequential_ledger.units(kind) == \
                   scalar.sequential_ledger.units(kind), kind

    #: ``as_dict()`` of two requests' own ledgers, in insertion order
    #: (pricing sums a ledger in dict order, so the order is pinned too):
    #: the values the per-event ``CostLedger.add`` calls produced before
    #: steps were charged with one write per kind.  An unverified first exit
    #: records ``kv_fill`` before any ``lm_head_full``; verified, after.
    PINNED = {
        False: {
            0: [("prefill_layer", 4, 24), ("draft_step", 10, 10),
                ("decoder_layer", 31, 31), ("lm_head_slice", 18, 72),
                ("predictor_forward", 18, 18), ("kv_fill", 8, 9),
                ("lm_head_full", 2, 2)],
            2: [("prefill_layer", 4, 36), ("draft_step", 12, 12),
                ("decoder_layer", 36, 36), ("lm_head_slice", 19, 76),
                ("predictor_forward", 19, 19), ("kv_fill", 8, 12),
                ("lm_head_full", 4, 4)]},
        True: {
            0: [("prefill_layer", 4, 24), ("draft_step", 10, 10),
                ("decoder_layer", 40, 40), ("lm_head_slice", 10, 40),
                ("predictor_forward", 10, 10), ("lm_head_full", 18, 18)],
            2: [("prefill_layer", 4, 36), ("draft_step", 12, 12),
                ("decoder_layer", 47, 47), ("lm_head_slice", 12, 48),
                ("predictor_forward", 12, 12), ("lm_head_full", 23, 23),
                ("kv_fill", 1, 1)]},
    }

    @pytest.mark.parametrize("verify", [False, True])
    @pytest.mark.parametrize("batched", [False, True])
    def test_per_sequence_ledgers_pinned(self, rig, verify, batched):
        cfg = SpecEEConfig(exit_threshold=0.35, min_exit_layer=1,
                           scheduler="all", verify_on_exit=verify)
        report = self.run_with_flag(rig, batched, config=cfg)
        for request_id, pinned in self.PINNED[verify].items():
            ledger = report.results[request_id].ledger.as_dict()
            assert [(kind, entry["calls"], entry["units"])
                    for kind, entry in ledger.items()] == pinned
            assert all(type(value) is float for entry in ledger.values()
                       for value in entry.values())

    def test_identical_under_verified_exits(self, rig):
        cfg = SpecEEConfig(exit_threshold=0.35, min_exit_layer=1,
                           scheduler="all", verify_on_exit=True)
        batched = self.run_with_flag(rig, True, config=cfg)
        scalar = self.run_with_flag(rig, False, config=cfg)
        assert {i: r.tokens for i, r in batched.results.items()} == \
               {i: r.tokens for i, r in scalar.results.items()}

    def test_identical_under_online_scheduler(self, rig):
        cfg = SpecEEConfig(exit_threshold=0.35, min_exit_layer=1,
                           scheduler="online", verify_on_exit=False)
        batched = self.run_with_flag(rig, True, "online", cfg)
        scalar = self.run_with_flag(rig, False, "online", cfg)
        assert {i: r.tokens for i, r in batched.results.items()} == \
               {i: r.tokens for i, r in scalar.results.items()}

    @settings(max_examples=25, deadline=None)
    @given(draw=control_overrides())
    def test_batched_matches_scalar_under_control_overrides(
            self, small_transformer_rig, draw):
        """Per-row thresholds and load-shortened drafts through both paths:
        ``step_batch`` equals the ``step`` loop (what ``batched=False``
        runs) in tokens, exit layers, records and per-sequence ledgers."""
        rig = small_transformer_rig
        thresholds, draft_lens, verify, kind = draw
        cfg = SpecEEConfig(exit_threshold=0.35, min_exit_layer=1, scheduler=kind,
                           verify_on_exit=verify)
        prompts = [[(i * 11 + j) % 128 + 1 for j in range(2 + i % 5)]
                   for i in range(len(thresholds))]
        runs = []
        for batched in (True, False):
            engine = rig.specee_engine(kind, cfg)
            states, results = map(list, zip(*map(engine.prefill, prompts)))
            schedulers = [rig.make_scheduler(kind, cfg) for _ in prompts]
            for _ in range(4):
                if batched:
                    engine.step_batch(states, results, schedulers,
                                      exit_thresholds=thresholds, draft_lens=draft_lens)
                    continue
                for row in zip(states, results, schedulers, thresholds, draft_lens):
                    engine.step(row[0], row[1], scheduler=row[2],
                                exit_threshold=row[3], draft_len=row[4])
            runs.append([(r.tokens, r.exit_layers, len(r.records), r.ledger.as_dict())
                         for r in results])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("bad", [dict(draft_len=0), dict(draft_len=5)])
    def test_out_of_range_draft_len_raises_on_both_paths(self, rig, bad):
        self.assert_rejected_on_both_paths(rig, bad)

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf")])
    def test_non_finite_threshold_raises_on_both_paths(self, rig, threshold):
        self.assert_rejected_on_both_paths(rig, dict(exit_threshold=threshold))

    @staticmethod
    def assert_rejected_on_both_paths(rig, bad):
        """A bad override is a typed error before any work, not a silent
        clamp (draft length) or an exit that can never fire (NaN)."""
        engine = rig.specee_engine("all", EXITY_CFG)
        state, result = engine.prefill([5, 9, 2])
        scheduler = rig.make_scheduler("all", EXITY_CFG)
        with pytest.raises(ValueError):
            engine.step(state, result, scheduler=scheduler, **bad)
        rows = {f"{key}s": [value] for key, value in bad.items()}
        with pytest.raises(ValueError):
            engine.step_batch([state], [result], [scheduler], **rows)
        assert result.tokens == [] and state.context == [5, 9, 2]


class TestTransformerServeCli:
    def test_serve_transformer_backend(self, capsys):
        assert main(["serve", "--backend", "transformer", "--requests", "3",
                     "--max-new-tokens", "6", "--batch-capacity", "2"]) == 0
        out = capsys.readouterr().out
        assert "tiny-transformer (priced as llama2-7b)" in out
        assert "closed batch" in out
        assert "measured tokens/s (wall-clock)" in out
        assert "batched decode" in out

    def test_serve_transformer_sharded(self, capsys):
        assert main(["serve", "--backend", "transformer", "--tp", "2",
                     "--pp", "2", "--requests", "3", "--max-new-tokens", "6",
                     "--batch-capacity", "2", "--kv-blocks", "64",
                     "--block-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "tp=2 pp=2" in out
        assert "tiny-transformer (priced as llama2-7b)" in out

    def test_serve_transformer_trace(self, capsys):
        assert main(["serve", "--backend", "transformer", "--trace", "poisson",
                     "--requests", "4", "--max-new-tokens", "6",
                     "--kv-blocks", "64", "--block-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "async serving: tiny-transformer (priced as llama2-7b)" in out
        assert "measured tokens/s (wall-clock)" in out

    def test_synthetic_backend_unchanged_default(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve"])
        assert args.backend == "synthetic"
