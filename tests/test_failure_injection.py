"""Failure-injection tests: the engines must stay correct when components
are degraded — a bad predictor, a useless draft, extreme thresholds — and
the serving stack must stay correct when whole replicas misbehave: seeded
crashes, restarts, KV corruption, predictor anomalies, and slowdowns from
:mod:`repro.serving.faults`, driven through the router's failover path."""

import math

import numpy as np
import pytest

from repro.baselines import DenseEngine
from repro.config import SimDims, SpecEEConfig
from repro.core import PredictorBank, SpecEEEngine, make_scheduler
from repro.eval.harness import build_rig
from repro.hardware.ledger import Event
from repro.model.draft import Speculator
from repro.model.profiles import get_profile
from repro.model.synthetic import SyntheticLayeredLM
from repro.serving import FaultInjector, FaultPlan, ReplicaHealth, poisson_trace
from repro.serving.faults import FAULT_PRESETS, ReplicaCrash

# Same asset-cache key as the other serving tests, so training happens once.
RIG_KWARGS = dict(train_prompts=6, train_tokens=30, predictor_hidden=128, epochs=10)
FLEET_KWARGS = dict(batch_capacity=4, kv_blocks=24, block_size=4,
                    chunk_prefill_tokens=16)


@pytest.fixture(scope="module")
def rig():
    return build_rig("llama2-7b", **RIG_KWARGS)


@pytest.fixture(scope="module")
def trace(rig):
    engine = rig.async_serving_engine(**FLEET_KWARGS)
    return poisson_trace(
        16, 30.0, rig.model.vocab_size, seed=7, slo_scale=4.0,
        per_token_s=engine.latency.full_depth_token_time(),
        priority_levels=2,
    )


@pytest.fixture(scope="module")
def fleet_baseline(rig, trace):
    """Fault-free two-replica run: the token-identity reference."""
    return rig.router_fleet(2, **FLEET_KWARGS).run(trace)


def fresh(seed=77, transient_rate=None):
    profile = get_profile("llama2-7b")
    if transient_rate is not None:
        profile = profile.with_overrides(transient_rate=transient_rate)
    return SyntheticLayeredLM(profile, SimDims(), seed=seed)


class _AlwaysFirePredictor(PredictorBank):
    """Adversarial predictor that fires at every layer."""

    def probability(self, layer, features):
        return 1.0


class _NeverFirePredictor(PredictorBank):
    def probability(self, layer, features):
        return 0.0


class TestAdversarialPredictors:
    def test_always_fire_still_correct_thanks_to_verification(self):
        """Even a predictor that fires everywhere cannot corrupt the output:
        verification only admits the model's own argmax when it is in the
        speculative set, and without transients that equals the dense token."""
        lm = fresh(transient_rate=0.0)
        spec = Speculator(lm.oracle, k=4, hit_rate=0.8)
        bank = _AlwaysFirePredictor(lm.n_layers, feature_dim=12, hidden_dim=8)
        engine = SpecEEEngine(lm, spec, bank, SpecEEConfig(),
                              scheduler=make_scheduler("all", lm.n_layers))
        result = engine.generate([3, 1, 4], 60)
        dense = DenseEngine(fresh(transient_rate=0.0)).generate([3, 1, 4], 60)
        assert result.tokens == dense.tokens
        # It pays for its eagerness in verification calls.
        assert result.ledger.calls(Event.LM_HEAD_FULL) > 60

    def test_never_fire_degrades_to_dense(self):
        lm = fresh()
        spec = Speculator(lm.oracle, k=4, hit_rate=0.8)
        bank = _NeverFirePredictor(lm.n_layers, feature_dim=12, hidden_dim=8)
        engine = SpecEEEngine(lm, spec, bank, SpecEEConfig())
        result = engine.generate([3, 1, 4], 40)
        assert result.early_exit_rate == 0.0
        assert result.avg_exit_layer == pytest.approx(32.0)
        dense = DenseEngine(fresh()).generate([3, 1, 4], 40)
        assert result.tokens == dense.tokens


class TestDegradedDraft:
    def test_useless_draft_forces_full_depth(self):
        """A draft that never contains the target makes early exit
        impossible (verification always fails) but never wrong."""
        lm = fresh(transient_rate=0.0)
        spec = Speculator(lm.oracle, k=4, hit_rate=0.0)
        bank = _AlwaysFirePredictor(lm.n_layers, feature_dim=12, hidden_dim=8)
        engine = SpecEEEngine(lm, spec, bank, SpecEEConfig(),
                              scheduler=make_scheduler("all", lm.n_layers))
        result = engine.generate([5, 5, 5], 40)
        assert result.early_exit_rate == 0.0
        dense = DenseEngine(fresh(transient_rate=0.0)).generate([5, 5, 5], 40)
        assert result.tokens == dense.tokens

    def test_perfect_draft_maximizes_exits(self):
        lm = fresh(transient_rate=0.0)
        spec = Speculator(lm.oracle, k=4, hit_rate=1.0)
        bank = _AlwaysFirePredictor(lm.n_layers, feature_dim=12, hidden_dim=8)
        engine = SpecEEEngine(lm, spec, bank, SpecEEConfig(),
                              scheduler=make_scheduler("all", lm.n_layers))
        result = engine.generate([5, 5, 5], 40)
        # Every step should exit at (or just after) its saturation layer.
        assert result.early_exit_rate > 0.85
        gaps = [e - s for e, s, r in zip(result.exit_layers, result.saturations,
                                         result.records) if r.early_exit]
        assert float(np.mean(gaps)) < 1.5


class TestThresholdExtremes:
    def test_threshold_near_one_suppresses_exits(self):
        lm = fresh()
        spec = Speculator(lm.oracle, k=4, hit_rate=0.8)
        bank = PredictorBank(lm.n_layers, feature_dim=12, hidden_dim=8)
        engine = SpecEEEngine(lm, spec, bank, SpecEEConfig(exit_threshold=0.999))
        result = engine.generate([1, 2, 3], 30)
        assert result.early_exit_rate <= 0.2

    def test_min_exit_layer_at_depth_limit(self):
        lm = fresh()
        spec = Speculator(lm.oracle, k=4, hit_rate=0.8)
        bank = _AlwaysFirePredictor(lm.n_layers, feature_dim=12, hidden_dim=8)
        cfg = SpecEEConfig(min_exit_layer=lm.n_layers - 1)
        engine = SpecEEEngine(lm, spec, bank, cfg,
                              scheduler=make_scheduler("all", lm.n_layers))
        result = engine.generate([1, 2, 3], 20)
        assert result.early_exit_rate == 0.0


class TestErrorPropagationBound:
    def test_transient_error_rate_bounded(self):
        """Per-step disagreement with the dense model (same forced context)
        must stay near the transient rate — the Table 4 mechanism."""
        rate = 0.05
        lm = fresh(seed=99, transient_rate=rate)
        spec = Speculator(lm.oracle, k=4, hit_rate=0.8)
        bank = _AlwaysFirePredictor(lm.n_layers, feature_dim=12, hidden_dim=8)
        engine = SpecEEEngine(lm, spec, bank, SpecEEConfig(),
                              scheduler=make_scheduler("all", lm.n_layers))
        # Teacher-force a reference so contexts never diverge; count steps
        # where the engine would have emitted a non-dense token.
        reference = lm.oracle.continuation([4, 2, 0], 120)
        result = engine.generate([4, 2, 0], 0, force_tokens=reference)
        dense = DenseEngine(fresh(seed=99, transient_rate=rate))
        ref_run = dense.generate([4, 2, 0], 0, force_tokens=reference)
        # Compare the exit-layer logprob of the reference: a transient exit
        # shows up as a (much) lower logprob than dense at the same step.
        disagreements = sum(
            1 for a, b in zip(result.logprobs, ref_run.logprobs) if a < b - 2.0
        )
        assert disagreements / len(reference) < 3 * rate + 0.05


# ---------------------------------------------------------------------------
# fault-plan parsing and the injector's deterministic schedule
# ---------------------------------------------------------------------------
class TestFaultPlan:
    def test_parse_round_trips_kinds_and_params(self):
        plan = FaultPlan.parse(
            "crash@0.3:replica=0,down=0.5;slow@0.1:factor=2.0,duration=0.2;"
            "corrupt@0.2:replica=1;anomaly@0.4:duration=0.3;drain@0.6:replica=0")
        assert plan.name == "anomaly+corrupt+crash+drain+slow"
        by_kind = {type(e).__name__: e for e in plan.events}
        crash = by_kind["ReplicaCrash"]
        assert (crash.at_s, crash.replica, crash.down_s) == (0.3, 0, 0.5)
        assert by_kind["TickSlowdown"].factor == 2.0
        assert by_kind["PredictorAnomaly"].duration_s == 0.3

    def test_presets_all_parse(self):
        for preset in FAULT_PRESETS:
            plan = FaultPlan.parse(preset)
            assert bool(plan) == (preset != "none")

    @pytest.mark.parametrize("spec", [
        "crash",                      # missing @time
        "crash@-1.0",                 # negative time
        "meteor@0.5",                 # unknown kind
        "crash@0.3:replica=zero",     # bad replica
        "slow@0.1:factor=0.5",        # slowdown must slow things down
        "crash@0.3:down=-2",          # negative outage
        "anomaly@0.2:duration=0",     # empty window
    ])
    def test_malformed_specs_raise(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_empty_plan_is_falsy_and_named_none(self):
        assert not FaultPlan.none()
        assert FaultPlan.none().name == "none"
        assert not FaultPlan.parse("none")

    def test_injector_resolves_any_deterministically(self):
        plan = FaultPlan((ReplicaCrash(0.5),))
        picks = {FaultInjector(plan, 4, seed=11).pop_transition()[2]
                 for _ in range(3)}
        assert len(picks) == 1  # same seed -> same replica every time
        other = FaultInjector(plan, 4, seed=12).pop_transition()[2]
        assert other in range(4)

    def test_transitions_ordered_with_revives_after_crashes(self):
        inj = FaultInjector("crash@0.4:replica=1,down=0.2;crash@0.1:replica=0", 2,
                            seed=0)
        order = [inj.pop_transition() for _ in range(3)]
        assert [(t, k, r) for t, k, r in order] == [
            (0.1, "crash", 0), (0.4, "crash", 1),
            (pytest.approx(0.6), "revive", 1)]

    def test_chaos_plan_is_seeded(self):
        a = FaultPlan.chaos(duration_s=2.0, seed=3)
        b = FaultPlan.chaos(duration_s=2.0, seed=3)
        c = FaultPlan.chaos(duration_s=2.0, seed=4)
        assert a == b and a != c and bool(a)

    def test_replica_health_permanent_death(self):
        health = ReplicaHealth(permanent_after=2)
        assert health.routable
        health.record_crash()
        assert health.revive()
        health.record_crash()
        assert health.permanently_dead and not health.revive()
        assert health.state == "dead" and not health.serving
        # A completion in between would have reset the streak.
        other = ReplicaHealth(permanent_after=2)
        other.record_crash()
        assert other.revive()
        other.record_completion()
        other.record_crash()
        assert not other.permanently_dead


# ---------------------------------------------------------------------------
# replica-level faults inside one AsyncServingEngine
# ---------------------------------------------------------------------------
class TestEngineFaults:
    SWAP_KWARGS = dict(batch_capacity=4, kv_blocks=12, block_size=4,
                       chunk_prefill_tokens=16, preemption="swap")

    def _swap_trace(self, rig, engine):
        return list(poisson_trace(
            8, 40.0, rig.model.vocab_size, seed=3, slo_scale=None,
            max_new_tokens_range=(24, 40),
            per_token_s=engine.latency.full_depth_token_time()))

    def test_kv_corruption_falls_back_to_recompute(self, rig):
        """A corrupted swap blob is detected by its checksum, the victim is
        replayed via recompute, the kill-switch trips — and every request
        still finishes with exactly the fault-free tokens."""
        clean = rig.async_serving_engine(**self.SWAP_KWARGS)
        trace = self._swap_trace(rig, clean)
        base = clean.run(list(trace))
        assert base.swaps > 0  # scenario really exercises the swap path

        view = FaultInjector("corrupt@0.0:replica=0", 1, seed=5).view(0)
        engine = rig.async_serving_engine(**self.SWAP_KWARGS, faults=view)
        report = engine.run(list(trace))
        assert report.kv_corruptions >= 1
        assert report.degraded_events >= 1
        assert set(report.results) == set(base.results)
        for rid, result in base.results.items():
            assert list(report.results[rid].tokens) == list(result.tokens)

    def test_anomaly_trips_kill_switch_then_rearms(self, rig):
        """A predictor-anomaly window forces degraded dense decode for its
        duration; once the window passes and a clean streak accumulates the
        engine re-arms speculation."""
        view = FaultInjector("anomaly@0.0:replica=0,duration=0.15", 1,
                             seed=5).view(0)
        engine = rig.async_serving_engine(**FLEET_KWARGS, faults=view)
        trace = poisson_trace(
            8, 40.0, rig.model.vocab_size, seed=3, slo_scale=None,
            per_token_s=engine.latency.full_depth_token_time())
        report = engine.run(list(trace))
        assert report.anomalous_ticks > 0
        assert report.degraded_events >= 1
        assert report.degraded_ticks >= report.anomalous_ticks - engine.anomaly_detect_ticks
        assert not engine.degraded  # re-armed before the run drained
        assert len(report.results) == 8

    def test_degraded_ticks_decode_under_the_empty_schedule(self, rig):
        """Degraded decode is dense decode: the serving ledger's
        speculative-head slices and predictor forwards grow only on
        non-degraded ticks, and a run degraded from its first decode tick
        emits exactly the full-depth engine's tokens."""
        def engine_under(anomaly_s):
            view = FaultInjector(f"anomaly@0.0:replica=0,duration={anomaly_s}",
                                 1, seed=5).view(0)
            return rig.async_serving_engine(**FLEET_KWARGS, faults=view)

        engine = engine_under(0.15)
        trace = list(poisson_trace(
            8, 40.0, rig.model.vocab_size, seed=3, slo_scale=None,
            per_token_s=engine.latency.full_depth_token_time()))
        engine.begin(list(trace))
        ledger = engine.report.serving_ledger
        kinds = (Event.LM_HEAD_SLICE, Event.PREDICTOR, Event.BATCH_DECODER_LAYER)
        grown = {True: np.zeros(3), False: np.zeros(3)}  # by engine.degraded
        while engine.has_work:
            before = np.array([ledger.calls(kind) for kind in kinds])
            engine.advance_tick()
            # The kill-switch only moves before a tick's decode, so the flag
            # after the tick is the one its decode ran under.
            grown[engine.degraded] += [ledger.calls(kind) for kind in kinds] - before
        assert engine.finish_report().degraded_ticks > 0
        slices, predictors, layers = grown[True]
        assert (slices, predictors) == (0, 0) and layers > 0
        assert grown[False].min() > 0

        always = engine_under(60.0)
        always.anomaly_detect_ticks = 1  # trips before the first decode
        report = always.run(list(trace))
        assert report.serving_ledger.calls(Event.PREDICTOR) == 0
        for request in trace:
            dense = DenseEngine(rig.fresh_model()).generate(
                request.prompt, request.max_new_tokens)
            assert list(report.results[request.request_id].tokens) == list(dense.tokens)

    def test_slowdown_stretches_makespan_but_not_tokens(self, rig):
        """Transient slowdowns reprice ticks; they must never change what
        gets decoded."""
        clean = rig.async_serving_engine(**FLEET_KWARGS)
        trace = list(poisson_trace(
            8, 40.0, rig.model.vocab_size, seed=3, slo_scale=None,
            per_token_s=clean.latency.full_depth_token_time()))
        base = clean.run(list(trace))

        view = FaultInjector("slow@0.0:replica=0,duration=9.0,factor=3.0", 1,
                             seed=5).view(0)
        slowed = rig.async_serving_engine(**FLEET_KWARGS, faults=view)
        report = slowed.run(list(trace))
        assert report.slowed_ticks > 0
        assert report.makespan_s > 1.5 * base.makespan_s
        for rid, result in base.results.items():
            assert list(report.results[rid].tokens) == list(result.tokens)

    def test_watchdog_fails_starved_sequences(self, rig):
        """Under heavy KV starvation a preempted sequence can sit without
        progress; the watchdog converts that hang into a typed rejection."""
        engine = rig.async_serving_engine(**self.SWAP_KWARGS, watchdog_ticks=4)
        report = engine.run(self._swap_trace(rig, engine))
        assert report.watchdog_timeouts >= 1
        assert report.watchdog_timeouts == len(report.rejected)
        for reason in report.rejected.values():
            assert "watchdog timeout" in reason
        # Untouched requests still finish.
        assert len(report.results) + len(report.rejected) == 8


# ---------------------------------------------------------------------------
# fleet-level crash/failover through the router
# ---------------------------------------------------------------------------
class TestFleetFailover:
    def test_empty_plan_is_bit_identical_to_no_fault_path(self, rig, trace,
                                                          fleet_baseline):
        report = rig.router_fleet(2, **FLEET_KWARGS, faults="none").run(trace)
        assert report.faults == "none" and report.crashes == 0
        assert report.assignments == fleet_baseline.assignments
        assert report.makespan_s == fleet_baseline.makespan_s
        for rid, result in fleet_baseline.results.items():
            assert list(report.results[rid].tokens) == list(result.tokens)

    def test_crash_mid_decode_recovers_token_identically(self, rig, trace,
                                                         fleet_baseline):
        """Permanently crash one of two replicas mid-run: its in-flight work
        fails over and finishes with exactly the fault-free tokens."""
        fleet = rig.router_fleet(2, **FLEET_KWARGS, faults="crash@0.3:replica=0")
        report = fleet.run(trace)
        assert report.crashes == 1
        assert report.replica_health == ["dead", "alive"]
        assert report.in_flight_at_crash > 0
        # Recovered counts token-less victims re-queued from scratch too.
        assert report.requests_recovered >= report.in_flight_at_crash
        assert report.requests_lost == 0
        assert report.recovered_fraction == 1.0
        assert len(report.results) == len(trace)
        for rid, result in fleet_baseline.results.items():
            assert list(report.results[rid].tokens) == list(result.tokens)

    def test_crash_during_prefill_requeues_and_recovers(self, rig, trace,
                                                        fleet_baseline):
        """A crash before any token is decoded re-queues the victims from
        scratch — still served, still token-identical."""
        fleet = rig.router_fleet(2, **FLEET_KWARGS, faults="crash@0.02:replica=0")
        report = fleet.run(trace)
        assert report.crashes == 1
        assert report.requests_lost == 0
        assert len(report.results) == len(trace)
        for rid, result in fleet_baseline.results.items():
            assert list(report.results[rid].tokens) == list(result.tokens)

    def test_double_crash_of_failover_target(self, rig, trace, fleet_baseline):
        """The failover target itself dies holding salvaged work; the work
        retries with backoff until the target revives, and everything served
        is still token-identical."""
        fleet = rig.router_fleet(
            2, **FLEET_KWARGS,
            faults="crash@0.1:replica=0;crash@0.25:replica=1,down=0.2")
        report = fleet.run(trace)
        assert report.crashes == 2
        assert report.restarts == 1
        assert report.retries > report.in_flight_at_crash  # re-retries happened
        assert report.requests_recovered > 0
        assert report.requests_lost == 0
        assert len(report.results) + len(report.rejected) == len(trace)
        for rid in report.results:
            assert (list(report.results[rid].tokens)
                    == list(fleet_baseline.results[rid].tokens))

    def test_all_replicas_dead_rejects_instead_of_hanging(self, rig, trace):
        fleet = rig.router_fleet(
            2, **FLEET_KWARGS, faults="crash@0.1:replica=0;crash@0.12:replica=1")
        report = fleet.run(trace)
        assert report.replica_health == ["dead", "dead"]
        assert not report.results
        assert len(report.rejected) == len(trace)
        reasons = set(report.rejected.values())
        assert any("no live replica" in r for r in reasons)
        assert any("no healthy replica" in r for r in reasons)
        assert math.isnan(report.recovered_fraction) or \
            report.recovered_fraction == 0.0

    def test_failover_disabled_ablation_loses_work(self, rig, trace):
        fleet = rig.router_fleet(2, **FLEET_KWARGS,
                                 faults="crash@0.3:replica=0", failover=False)
        report = fleet.run(trace)
        assert not report.failover
        assert report.requests_lost > 0
        assert report.requests_recovered == 0
        assert all("failover disabled" in report.rejected[rid]
                   for rid in report.rejected)
        assert len(report.results) + report.requests_lost == len(trace)

    def test_drain_excludes_replica_from_new_arrivals(self, rig, trace,
                                                      fleet_baseline):
        """A drained replica finishes what it holds but takes nothing new;
        nothing is lost and tokens are unchanged."""
        report = rig.router_fleet(2, **FLEET_KWARGS,
                                  faults="drain@0.1:replica=0").run(trace)
        assert report.drains == 1 and report.crashes == 0
        assert report.replica_health == ["draining", "alive"]
        assert len(report.results) == len(trace)
        # Every arrival after the drain landed on replica 1.
        drained_after = [rid for rid, replica in report.assignments.items()
                         if replica == 0]
        assert len(drained_after) < len(trace) / 2
        for rid, result in fleet_baseline.results.items():
            assert list(report.results[rid].tokens) == list(result.tokens)

    def test_crash_restart_preset_revives_the_replica(self, rig, trace):
        report = rig.router_fleet(2, **FLEET_KWARGS,
                                  faults="crash-restart").run(trace)
        assert report.crashes == 1 and report.restarts == 1
        assert report.replica_health == ["alive", "alive"]
        assert len(report.results) + len(report.rejected) == len(trace)

    @pytest.mark.slow
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_chaos_sweep_conserves_requests(self, rig, trace, seed):
        """Randomized chaos plans across seeds: runs terminate, every request
        is either served or typed-rejected, accounting stays consistent, and
        the whole thing is deterministic under a fixed seed."""
        plan = FaultPlan.chaos(duration_s=1.5, seed=seed)
        fleet = rig.router_fleet(3, **FLEET_KWARGS, faults=plan, fault_seed=seed)
        report = fleet.run(trace)
        assert len(report.results) + len(report.rejected) == len(trace)
        assert math.isfinite(report.makespan_s)
        assert report.requests_lost <= len(report.rejected)
        assert report.requests_recovered <= report.in_flight_at_crash + \
            report.retries
        frac = report.recovered_fraction
        assert math.isnan(frac) or 0.0 <= frac <= 1.0
        again = rig.router_fleet(3, **FLEET_KWARGS, faults=plan,
                                 fault_seed=seed).run(trace)
        assert again.assignments == report.assignments
        assert sorted(again.results) == sorted(report.results)
        for rid, result in report.results.items():
            assert list(again.results[rid].tokens) == list(result.tokens)
