"""Data-parallel replica router: routing-policy selection, token identity
against single-replica serving, the fleet of width 1 equalling the engine,
fleet-report aggregation, closed-loop client interaction, and per-replica
cluster sharding."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import make_cluster
from repro.eval.harness import build_rig
from repro.serving import (
    ClosedLoopClients,
    Request,
    ServingRouter,
    chat_trace,
    make_routing_policy,
    poisson_trace,
)

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
def single_report(rig, trace):
    return rig.async_serving_engine(**FLEET_KWARGS).run(trace)


# ---------------------------------------------------------------------------
# routing policies
# ---------------------------------------------------------------------------
class TestRoutingPolicies:
    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown routing policy"):
            make_routing_policy("random")

    def test_instances_pass_through(self):
        policy = make_routing_policy("least_kv_load")
        assert make_routing_policy(policy) is policy

    def test_round_robin_balances_exactly(self, rig, trace):
        fleet = rig.router_fleet(4, route="round_robin", **FLEET_KWARGS)
        report = fleet.run(trace)
        assert report.replica_request_counts == [4, 4, 4, 4]

    def test_empty_fleet_raises(self):
        with pytest.raises(ValueError, match="at least one replica"):
            ServingRouter([])

    def test_repeated_runs_are_reproducible(self, rig):
        """Policy state (e.g. the round-robin cursor) must reset per run:
        re-running one fleet on the same workload gives identical
        assignments even when requests don't divide evenly by replicas."""
        fleet = rig.router_fleet(2, route="round_robin", **FLEET_KWARGS)
        requests = [Request(i, [i + 3, i + 5], 8) for i in range(5)]
        first = fleet.run(requests).assignments
        second = fleet.run(requests).assignments
        assert first == second

    @pytest.mark.parametrize("route", ["round_robin", "least_kv_load",
                                       "exit_aware"])
    def test_every_policy_serves_everything(self, rig, trace, route):
        fleet = rig.router_fleet(3, route=route, **FLEET_KWARGS)
        report = fleet.run(trace)
        assert set(report.results) == {r.request_id for r in trace}
        assert set(report.assignments) == {r.request_id for r in trace}
        assert report.route == route


# ---------------------------------------------------------------------------
# token identity
# ---------------------------------------------------------------------------
class TestTokenIdentity:
    @pytest.mark.parametrize("route,sched", [
        ("round_robin", "fifo_priority"),
        ("least_kv_load", "fifo_priority"),
        ("exit_aware", "edf"),
    ])
    def test_routed_tokens_match_single_replica(self, rig, trace,
                                                single_report, route, sched):
        fleet = rig.router_fleet(3, route=route, scheduling=sched,
                                 **FLEET_KWARGS)
        report = fleet.run(trace)
        for request in trace:
            routed = report.results[request.request_id]
            alone = single_report.results[request.request_id]
            assert routed.tokens == alone.tokens
            assert routed.exit_layers == alone.exit_layers

    def test_per_replica_clusters_keep_tokens(self, rig, trace, single_report):
        """A fleet of modelled tp=2 shards serves the same tokens (sharding
        repartitions cost, never computation)."""
        fleet = rig.router_fleet(
            2, route="round_robin",
            cluster=make_cluster("a100-80g", tp=2),
            **FLEET_KWARGS)
        report = fleet.run(trace)
        for request in trace:
            assert (report.results[request.request_id].tokens
                    == single_report.results[request.request_id].tokens)
        for replica in fleet.replicas:
            assert replica.cluster.tp == 2


# ---------------------------------------------------------------------------
# N = 1: a lone engine is the fleet of width 1
# ---------------------------------------------------------------------------
def _workload(rig, kind, seed, per_token_s):
    if kind == "closed":
        return [Request(i, [seed + i + 3, 2 * i + 1, (5 * i) % 200 + 2], 10 + i)
                for i in range(6)]
    if kind == "chat":
        return list(chat_trace(3, rig.model.vocab_size, tenants=2, turns=2,
                               rate_per_s=30.0, think_time_s=0.05, seed=seed,
                               per_token_s=per_token_s))
    return list(poisson_trace(8, 60.0, rig.model.vocab_size, seed=seed,
                              slo_scale=4.0, per_token_s=per_token_s,
                              max_new_tokens_range=(6, 14), priority_levels=2))


class TestFleetOfOneIsTheEngine:
    """The net under the single `repro serve` path: whatever the engine
    knobs, pool size or traffic shape, routing a workload through
    ``router_fleet(1, ...)`` runs exactly the ticks ``AsyncServingEngine.run``
    runs."""

    @settings(max_examples=30, deadline=None)
    @given(
        admission=st.sampled_from(["optimistic", "reserve"]),
        preemption=st.sampled_from(["auto", "swap", "recompute", "never"]),
        chunk=st.sampled_from([None, 8, 32]),
        prefix_share=st.booleans(),
        scheduling=st.sampled_from(["fifo_priority", "edf", "fair_tenant"]),
        control=st.sampled_from([None, "static", "pressure"]),
        kv_blocks=st.sampled_from([10, 16, 48]),
        kind=st.sampled_from(["closed", "poisson", "chat"]),
        seed=st.integers(0, 5),
    )
    def test_one_replica_fleet_equals_engine(
            self, rig, admission, preemption, chunk, prefix_share, scheduling,
            control, kv_blocks, kind, seed):
        kwargs = dict(batch_capacity=4, kv_blocks=kv_blocks, block_size=4,
                      admission=admission, preemption=preemption,
                      chunk_prefill_tokens=chunk, prefix_share=prefix_share,
                      control=control)
        engine = rig.async_serving_engine(scheduling=scheduling, **kwargs)
        fleet = rig.router_fleet(1, scheduling=scheduling, **kwargs)
        workload = _workload(rig, kind, seed,
                             engine.latency.full_depth_token_time())
        try:
            alone = engine.run(workload)
        except MemoryError:
            # preemption="never" on a pool too tight: the fleet must fail
            # the same way, not serve something else.
            with pytest.raises(MemoryError):
                fleet.run(workload)
            return
        routed = fleet.run(workload)
        replica = routed.replica_reports[0]
        tokens = lambda report: {i: r.tokens for i, r in report.results.items()}
        assert tokens(replica) == tokens(alone)
        assert replica.tick_seconds == alone.tick_seconds
        assert replica.serving_ledger.as_dict() == alone.serving_ledger.as_dict()
        # An oversized request stops at the router instead of the engine.
        assert set(routed.rejected) | set(replica.rejected) == set(alone.rejected)
        stamps = lambda report: {i: (m.finish_s, m.first_token_s)
                                 for i, m in report.metrics.items()}
        assert stamps(replica) == stamps(alone)


# ---------------------------------------------------------------------------
# fleet report aggregation
# ---------------------------------------------------------------------------
class TestFleetReport:
    @pytest.fixture(scope="class")
    def report(self, rig, trace):
        fleet = rig.router_fleet(3, route="least_kv_load", scheduling="edf",
                                 **FLEET_KWARGS)
        return fleet.run(trace)

    def test_totals_are_replica_sums(self, report):
        assert report.total_tokens == sum(
            r.total_tokens for r in report.replica_reports)
        assert report.preemptions == sum(
            r.preemptions for r in report.replica_reports)

    def test_makespan_is_latest_replica(self, report):
        assert report.makespan_s == max(
            r.makespan_s for r in report.replica_reports)

    def test_throughput_and_goodput(self, report):
        assert report.throughput_tps == pytest.approx(
            report.total_tokens / report.makespan_s)
        assert report.goodput_tps <= report.throughput_tps + 1e-9
        assert report.good_tokens <= report.total_tokens

    def test_metrics_merge_is_disjoint(self, report):
        total = sum(len(r.metrics) for r in report.replica_reports)
        assert len(report.metrics) == total

    def test_slo_attainment_bounds(self, report):
        assert 0.0 <= report.slo_attainment <= 1.0

    def test_scheduling_name_recorded(self, report):
        assert report.scheduling == "edf"

    def test_replica_stats_have_fleet_width(self, report):
        assert len(report.replica_layers_per_token) == 3
        assert len(report.replica_request_counts) == 3
        assert all(l > 0 for l in report.replica_layers_per_token)

    def test_latency_percentiles(self, report):
        assert report.mean_latency_s > 0
        assert report.p95_latency_s() >= report.mean_latency_s * 0.5

    @pytest.mark.parametrize("name", [
        "total_tokens", "throughput_tps", "good_tokens", "goodput_tps",
        "slo_attainment", "mean_latency_s", "p95_latency_s", "mean_ttft_s",
        "p95_ttft_s", "prefix_hit_rate"])
    def test_fold_is_one_definition(self, rig, trace, name):
        """Each request-level statistic on a one-replica fleet report is the
        same statistic on that replica's own report (NaN included)."""
        fleet = rig.router_fleet(1, scheduling="edf", prefix_share=True,
                                 **FLEET_KWARGS).run(trace)
        value = lambda report: (getattr(report, name)()
                                if name.startswith("p95")
                                else getattr(report, name))
        whole, part = value(fleet), value(fleet.replica_reports[0])
        assert whole == part or (math.isnan(whole) and math.isnan(part))


# ---------------------------------------------------------------------------
# router-level rejection
# ---------------------------------------------------------------------------
class TestRouterRejection:
    def test_oversized_request_rejected_at_router(self, rig):
        fleet = rig.router_fleet(2, **FLEET_KWARGS)
        requests = [Request(0, [3, 4], 8, slo_s=100.0),
                    Request(1, [5, 6], 1000, slo_s=100.0),  # 250 blocks vs 24
                    Request(2, [7, 8], 8, slo_s=100.0)]
        report = fleet.run(requests)
        assert set(report.results) == {0, 2}
        assert 1 in report.rejected
        assert "no replica can hold it" in report.rejected[1]
        assert report.rejected_with_slo == 1
        # 2 of the 3 deadline-carrying requests can ever finish.
        assert report.slo_attainment <= 2 / 3

    def test_empty_workload(self, rig):
        fleet = rig.router_fleet(2, **FLEET_KWARGS)
        report = fleet.run([])
        assert report.results == {}
        assert math.isnan(report.slo_attainment)
        assert report.makespan_s == 0.0


# ---------------------------------------------------------------------------
# closed-loop clients through the router
# ---------------------------------------------------------------------------
class TestClosedLoopThroughRouter:
    def make_clients(self, rig, seed=3):
        return ClosedLoopClients(
            4, 3, rig.model.vocab_size, think_time_s=0.05, seed=seed,
            per_token_s=0.006, slo_scale=6.0)

    def test_all_rounds_served(self, rig):
        fleet = rig.router_fleet(2, route="exit_aware", scheduling="edf",
                                 **FLEET_KWARGS)
        clients = self.make_clients(rig)
        report = fleet.run(clients)
        assert len(report.results) == clients.total_requests

    def test_next_round_arrives_after_previous_finish(self, rig):
        fleet = rig.router_fleet(2, **FLEET_KWARGS)
        clients = self.make_clients(rig)
        report = fleet.run(clients)
        metrics = report.metrics
        for client in range(clients.n_clients):
            for round_ in range(clients.requests_per_client - 1):
                prev = metrics[client * clients.requests_per_client + round_]
                nxt = metrics[client * clients.requests_per_client + round_ + 1]
                assert nxt.arrival_s > prev.finish_s

    def test_closed_loop_run_is_deterministic(self, rig):
        def issue_log():
            fleet = rig.router_fleet(2, route="least_kv_load", **FLEET_KWARGS)
            report = fleet.run(self.make_clients(rig))
            return sorted((m.request_id, round(m.arrival_s, 9),
                           round(m.finish_s, 9))
                          for m in report.metrics.values())
        assert issue_log() == issue_log()

    def test_at_most_one_request_in_flight_per_client(self, rig):
        fleet = rig.router_fleet(2, **FLEET_KWARGS)
        clients = self.make_clients(rig)
        report = fleet.run(clients)
        metrics = report.metrics
        for client in range(clients.n_clients):
            ids = [client * clients.requests_per_client + r
                   for r in range(clients.requests_per_client)]
            intervals = [(metrics[i].arrival_s, metrics[i].finish_s)
                         for i in ids]
            for (_, f0), (a1, _) in zip(intervals, intervals[1:]):
                assert a1 > f0  # rounds never overlap
