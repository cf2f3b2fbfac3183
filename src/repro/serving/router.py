"""Data-parallel replica routing with goodput-oriented fleet accounting.

:class:`ServingRouter` fans one workload across N
:class:`~repro.serving.async_engine.AsyncServingEngine` replicas — each with
its own KV pool, cost ledger and (optionally) its own modelled
:class:`~repro.distributed.ClusterSpec` — on one shared time origin.  The
router is a discrete-event loop over the engines' stepping API: it always
advances the busy replica whose next event is earliest, and it routes an
arrival the moment no busy replica could still do work before that arrival's
timestamp.  Routing decisions therefore see every replica's state *as of the
arrival time*, which is what makes load- and exit-aware policies meaningful.

Four routing policies ship (registry :data:`ROUTING_POLICIES`):

* ``round_robin`` — rotate assignments; the baseline that ignores state.
* ``least_kv_load`` — send the request to the replica with the least paged-KV
  pressure (blocks in use plus the worst-case need of its queued requests).
* ``exit_aware`` — weight each replica's queued decode tokens by its
  *observed* early-exit rate from the serving ledger (mean executed layers
  per token so far) and send the request to the replica with the least
  estimated layer-work.  Exit-rate variance across requests is exactly why
  naive balancing leaves throughput on the table: a replica whose current
  mix exits early drains its backlog faster than its queue depth suggests.
* ``session_affinity`` — pin each chat session's follow-up turns to the
  replica that served its previous turn (whose radix tree still holds the
  session's prefix blocks), falling back to least-KV-load placement for
  first turns and whenever the home replica is crashed, drained or full.

Workloads may be open-loop (an :class:`~repro.serving.workloads.ArrivalTrace`
or any request sequence) or closed-loop
(:class:`~repro.serving.workloads.ClosedLoopClients`): on each completion the
router reports the finish time back to the issuing client, which responds
with its next request one think-time gap later.

The fleet-level outcome is a :class:`ServingFleetReport`: per-replica
:class:`~repro.serving.async_engine.AsyncServingReport` ledgers plus
aggregated SLO attainment and **goodput** — tokens that met their SLO per
modelled second, the metric EDF scheduling and exit-aware routing are built
to move.  Routing never changes tokens: each request's decode is
token-identical to serving the same trace on a single replica.

A :class:`~repro.serving.faults.FaultPlan` makes the fleet fail on schedule.
The router resolves the plan through a seeded
:class:`~repro.serving.faults.FaultInjector` and applies crash / restart /
drain transitions as discrete events in the same loop that routes arrivals;
per-replica :class:`~repro.serving.faults.ReplicaHealth` tracks liveness
(consecutive crashes past ``permanent_after`` mark a replica permanently
dead) and every routing policy only ever sees healthy candidates.  When a
replica crashes, its in-flight work is **failed over**: salvaged sequences
re-enter routing after a capped-exponential backoff, are adopted by a
healthy replica, and resume through the deterministic recompute path — so a
recovered request's tokens are identical to an uninterrupted run while its
SLO clock keeps running from the original arrival.  ``failover=False`` is
the ablation: crashed work is simply lost, which is what the
fault-recovery benchmark gates goodput against.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.serving.async_engine import (
    AsyncRequestMetrics,
    AsyncSequence,
    AsyncServingEngine,
    AsyncServingReport,
    RequestFold,
)
from repro.serving.faults import FaultInjector, FaultPlan, ReplicaHealth
from repro.serving.request import Request
from repro.serving.workloads import ClosedLoopClients

__all__ = [
    "RoutingPolicy", "RoundRobinRouting", "LeastKVLoadRouting",
    "ExitAwareRouting", "SessionAffinityRouting", "ROUTING_POLICIES",
    "make_routing_policy", "ServingFleetReport", "ServingRouter",
]


# ---------------------------------------------------------------------------
# routing policies
# ---------------------------------------------------------------------------
class RoutingPolicy:
    """Picks the replica index a routed request is assigned to.

    ``choose`` receives the full replica list plus the candidate indices
    whose KV pools can ever fit the request (the router pre-filters
    oversized pools), and must return one of the candidates.
    """

    name = "base"

    def choose(self, replicas: Sequence[AsyncServingEngine], request: Request,
               candidates: Sequence[int]) -> int:
        """Return the chosen replica index from ``candidates``."""
        raise NotImplementedError

    def reset(self) -> None:
        """Clear any cross-run state (called at the start of every
        :meth:`ServingRouter.run`, so repeated runs are reproducible)."""


class RoundRobinRouting(RoutingPolicy):
    """Rotate assignments across replicas, skipping non-candidates."""

    name = "round_robin"

    def __init__(self):
        """Start the rotation at replica 0."""
        self._next = 0

    def reset(self) -> None:
        """Restart the rotation at replica 0."""
        self._next = 0

    def choose(self, replicas: Sequence[AsyncServingEngine], request: Request,
               candidates: Sequence[int]) -> int:
        """The next replica in rotation whose pool fits the request."""
        allowed = set(candidates)
        for _ in range(len(replicas)):
            index = self._next % len(replicas)
            self._next += 1
            if index in allowed:
                return index
        raise ValueError("no candidate replica to rotate onto")


class LeastKVLoadRouting(RoutingPolicy):
    """Send the request to the replica with the least paged-KV pressure."""

    name = "least_kv_load"

    def choose(self, replicas: Sequence[AsyncServingEngine], request: Request,
               candidates: Sequence[int]) -> int:
        """Least ``kv_load_blocks()`` wins; ties break to the lowest index."""
        return min(candidates, key=lambda i: (replicas[i].kv_load_blocks(), i))


class ExitAwareRouting(RoutingPolicy):
    """Balance estimated layer-work using observed early-exit rates.

    A replica's pending decode tokens are weighted by its ledger-observed
    mean executed layers per token (full depth until it has served a token),
    so a replica whose current request mix exits early is credited with the
    faster drain its exit rate actually buys.
    """

    name = "exit_aware"

    def choose(self, replicas: Sequence[AsyncServingEngine], request: Request,
               candidates: Sequence[int]) -> int:
        """Least estimated queued layer-work wins; ties to the lowest index."""
        def layer_work(i: int) -> float:
            replica = replicas[i]
            return replica.backlog_tokens() * replica.observed_layers_per_token()
        return min(candidates, key=lambda i: (layer_work(i), i))


class SessionAffinityRouting(RoutingPolicy):
    """Pin each chat session to the replica holding its KV.

    A follow-up turn's prompt extends the session's prior context, so the
    replica that served the previous turn holds the session's prefix blocks
    in its radix tree — routing the turn anywhere else forfeits the reuse.
    The first turn of a session (and any request without a ``session_id``)
    falls back to least-KV-load placement; the chosen replica becomes the
    session's *home*.  When the home replica is not a candidate (crashed,
    drained, or its pool cannot fit the request) the session re-homes via
    the same fallback — a clean failover that costs one cold prefill, after
    which affinity resumes on the new home.
    """

    name = "session_affinity"

    def __init__(self):
        """Start with no session pinned anywhere."""
        self._home: Dict[int, int] = {}

    def reset(self) -> None:
        """Forget every session-to-replica pin."""
        self._home.clear()

    def choose(self, replicas: Sequence[AsyncServingEngine], request: Request,
               candidates: Sequence[int]) -> int:
        """The session's home replica if still viable, else re-home by load."""
        session = request.session_id
        if session is not None:
            home = self._home.get(session)
            if home is not None and home in candidates:
                return home
        chosen = min(candidates, key=lambda i: (replicas[i].kv_load_blocks(), i))
        if session is not None:
            self._home[session] = chosen
        return chosen


ROUTING_POLICIES = {
    RoundRobinRouting.name: RoundRobinRouting,
    LeastKVLoadRouting.name: LeastKVLoadRouting,
    ExitAwareRouting.name: ExitAwareRouting,
    SessionAffinityRouting.name: SessionAffinityRouting,
}


def make_routing_policy(spec: Union[str, RoutingPolicy]) -> RoutingPolicy:
    """Resolve a policy name (or pass through an instance) to a policy."""
    if isinstance(spec, RoutingPolicy):
        return spec
    if spec not in ROUTING_POLICIES:
        raise ValueError(
            f"unknown routing policy {spec!r}; known: {sorted(ROUTING_POLICIES)}")
    return ROUTING_POLICIES[spec]()


# ---------------------------------------------------------------------------
# fleet report
# ---------------------------------------------------------------------------
@dataclass
class ServingFleetReport(RequestFold):
    """Outcome of one :meth:`ServingRouter.run` across every replica.

    Request-level statistics (throughput, goodput, SLO attainment, latency
    and TTFT moments, prefix hit rate) are the :class:`RequestFold` over the
    merged replica reports — the same definitions a single engine's report
    uses.
    """

    replica_reports: List[AsyncServingReport] = field(default_factory=list)
    assignments: Dict[int, int] = field(default_factory=dict)
    route: str = ""
    scheduling: str = ""
    control: str = "off"
    rejected: Dict[int, str] = field(default_factory=dict)
    rejected_with_slo: int = 0
    replica_layers_per_token: List[float] = field(default_factory=list)
    replica_threshold_offsets: List[float] = field(default_factory=list)
    # -- fault/recovery accounting (defaults describe a fault-free run) --
    #: Compact name of the injected fault plan ("none" when empty).
    faults: str = "none"
    #: Seed the injector resolved "any"-replica picks and corruptions with.
    fault_seed: int = 0
    #: Whether crashed in-flight work was failed over (False = ablation).
    failover: bool = True
    crashes: int = 0
    restarts: int = 0
    drains: int = 0
    #: Failover re-queues (every salvaged request counts one per crash).
    retries: int = 0
    #: Failed-over requests that went on to finish on a healthy replica.
    requests_recovered: int = 0
    #: Requests abandoned to a crash (failover off, retries exhausted, or no
    #: healthy replica left).
    requests_lost: int = 0
    #: Decoded tokens carried through failover for adoption (their KV is
    #: rebuilt on the adopting replica; the tokens are never re-decoded).
    tokens_salvaged: int = 0
    #: Decoded tokens thrown away with lost requests.
    tokens_lost: int = 0
    #: Admitted sequences on crashing replicas, summed over crash events.
    in_flight_at_crash: int = 0
    #: Final liveness state of each replica ("alive"/"draining"/"dead").
    replica_health: List[str] = field(default_factory=list)

    @property
    def n_replicas(self) -> int:
        """Fleet width."""
        return len(self.replica_reports)

    @property
    def metrics(self) -> Dict[int, AsyncRequestMetrics]:
        """Per-request metrics merged across every replica."""
        merged: Dict[int, AsyncRequestMetrics] = {}
        for report in self.replica_reports:
            merged.update(report.metrics)
        return merged

    @property
    def results(self) -> Dict[int, object]:
        """Per-request generation results merged across every replica."""
        merged: Dict[int, object] = {}
        for report in self.replica_reports:
            merged.update(report.results)
        return merged

    @property
    def makespan_s(self) -> float:
        """Fleet makespan: the latest replica clock (shared time origin)."""
        if not self.replica_reports:
            return 0.0
        return max(r.makespan_s for r in self.replica_reports)

    @property
    def prefix_prompt_tokens(self) -> int:
        """Prompt tokens the fleet prefilled through the prefix path."""
        return sum(r.prefix_prompt_tokens for r in self.replica_reports)

    @property
    def prefix_matched_tokens(self) -> int:
        """Prompt tokens adopted from shared blocks fleet-wide."""
        return sum(r.prefix_matched_tokens for r in self.replica_reports)

    def _slo_rejections(self) -> int:
        return self.rejected_with_slo + sum(
            r.rejected_with_slo for r in self.replica_reports)

    @property
    def replica_request_counts(self) -> List[int]:
        """Requests routed to each replica (assignment balance)."""
        counts = [0] * self.n_replicas
        for index in self.assignments.values():
            counts[index] += 1
        return counts

    @property
    def preemptions(self) -> int:
        """Total preemptions across every replica."""
        return sum(r.preemptions for r in self.replica_reports)

    @property
    def recovered_fraction(self) -> float:
        """Fraction of crash-interrupted requests that still completed:
        recovered over (recovered + lost); NaN when nothing crashed."""
        at_risk = self.requests_recovered + self.requests_lost
        if at_risk == 0:
            return float("nan")
        return self.requests_recovered / at_risk

    @property
    def kv_corruptions(self) -> int:
        """Swap blobs that failed their checksum, fleet-wide."""
        return sum(r.kv_corruptions for r in self.replica_reports)

    @property
    def degraded_ticks(self) -> int:
        """Ticks any replica decoded with the speculation kill-switch on."""
        return sum(r.degraded_ticks for r in self.replica_reports)

    @property
    def degraded_events(self) -> int:
        """Times any replica's kill-switch tripped."""
        return sum(r.degraded_events for r in self.replica_reports)

    @property
    def watchdog_timeouts(self) -> int:
        """Sequences failed by the no-progress watchdog, fleet-wide."""
        return sum(r.watchdog_timeouts for r in self.replica_reports)


# ---------------------------------------------------------------------------
# the router
# ---------------------------------------------------------------------------
Workload = Union[Sequence[Request], ClosedLoopClients]

#: Crash-triggered re-queues after which a request is lost.
MAX_RETRIES = 3
#: Failover redelivery backoff on the modelled clock: first wait, and its cap.
RETRY_BACKOFF_S = 0.05
RETRY_BACKOFF_CAP_S = 0.4


class ServingRouter:
    """Data-parallel front-end over N async serving replicas (module doc)."""

    def __init__(self, replicas: Sequence[AsyncServingEngine],
                 route: Union[str, RoutingPolicy] = "round_robin",
                 *,
                 faults: Union[None, str, FaultPlan] = None,
                 fault_seed: int = 0,
                 failover: bool = True):
        """Wire the router to its replicas, routing policy and fault plan.

        ``faults`` is a :class:`~repro.serving.faults.FaultPlan`, a spec
        string / preset name for :meth:`FaultPlan.parse`, or None for a
        fault-free run (token-identical to a router without this machinery).
        ``fault_seed`` resolves the plan's ``replica="any"`` picks and seeds
        corruption RNG streams.  ``failover`` re-queues a crashed replica's
        in-flight work onto healthy replicas (False = lose it, the ablation);
        each re-queue waits ``min(RETRY_BACKOFF_S * 2**retries,
        RETRY_BACKOFF_CAP_S)`` on the modelled clock and a request is lost
        after ``MAX_RETRIES`` crash-triggered re-queues.  A replica whose
        consecutive-crash streak reaches ``ReplicaHealth.permanent_after`` is
        marked permanently dead and its scheduled restarts are ignored."""
        if not replicas:
            raise ValueError("a fleet needs at least one replica")
        self.replicas: List[AsyncServingEngine] = list(replicas)
        self.routing = make_routing_policy(route)
        self.faults = faults
        self.fault_seed = fault_seed
        self.failover = failover
        self.health: List[ReplicaHealth] = [ReplicaHealth() for _ in replicas]
        # (ready_s, request_id, request, salvaged slot or None), kept sorted;
        # request ids are unique so comparisons never reach the payload.
        self._failover: List[tuple] = []
        self._retries: Dict[int, int] = {}
        self._failover_ids: set = set()

    # -- event-loop helpers --------------------------------------------------
    @staticmethod
    def _arrival_key(request: Request):
        return (request.arrival_s, request.request_id)

    def _next_event_s(self, replica: AsyncServingEngine) -> float:
        """When ``replica`` would next make progress: now if it has live
        work, its earliest pending arrival if it is idle-waiting, +inf if
        it has nothing at all."""
        if replica.waiting or replica.running or replica.preempted:
            return replica.now_s
        if replica.pending:
            return max(replica.now_s, replica.pending[0].arrival_s)
        return float("inf")

    def _candidates(self, request: Request) -> List[int]:
        """Healthy replicas whose KV pool could ever hold the request —
        dead and draining replicas are excluded from every routing policy."""
        return [i for i, replica in enumerate(self.replicas)
                if self.health[i].routable
                and replica.oversize_reason(request) is None]

    def _route(self, request: Request, report: ServingFleetReport) -> None:
        candidates = self._candidates(request)
        if not candidates:
            if not any(h.routable for h in self.health):
                reason = "no live replica to route to"
            else:
                reason = (f"no replica can hold it: "
                          f"{self.replicas[0].oversize_reason(request)}")
            report.rejected[request.request_id] = reason
            if request.slo_s is not None:
                report.rejected_with_slo += 1
            return
        index = self.routing.choose(self.replicas, request, candidates)
        if index not in candidates:
            raise ValueError(
                f"routing policy {self.routing.name!r} chose replica {index}, "
                f"not one of the candidates {candidates}")
        self.replicas[index].submit(request)
        report.assignments[request.request_id] = index

    # -- failure handling ------------------------------------------------------
    def _lose(self, request: Request, slot: Optional[AsyncSequence],
              report: ServingFleetReport, reason: str) -> None:
        """Abandon crash-interrupted work: a typed rejection plus loss
        accounting (any decoded tokens the salvaged slot held are gone)."""
        report.rejected[request.request_id] = reason
        if request.slo_s is not None:
            report.rejected_with_slo += 1
        report.requests_lost += 1
        report.tokens_lost += len(slot.result.tokens) if slot is not None else 0
        self._failover_ids.discard(request.request_id)

    def _enqueue_failover(self, request: Request,
                          slot: Optional[AsyncSequence], at_s: float,
                          report: ServingFleetReport) -> None:
        """Queue crash-salvaged work for redelivery after a capped
        exponential backoff on the modelled clock; work that has exhausted
        its retry budget is lost instead."""
        retries = self._retries.get(request.request_id, 0) + 1
        if retries > MAX_RETRIES:
            self._lose(request, slot, report,
                       f"failover gave up after {MAX_RETRIES} retries")
            return
        self._retries[request.request_id] = retries
        backoff = min(RETRY_BACKOFF_S * 2 ** (retries - 1), RETRY_BACKOFF_CAP_S)
        bisect.insort(self._failover, (at_s + backoff, request.request_id,
                                       request, slot))
        self._failover_ids.add(request.request_id)
        report.retries += 1
        if slot is not None:
            report.tokens_salvaged += len(slot.result.tokens)

    def _apply_transition(self, injector: FaultInjector,
                          report: ServingFleetReport) -> None:
        """Apply the injector's next crash / revive / drain as one discrete
        event: crashes salvage the replica's in-flight work into the
        failover queue (or lose it under the no-failover ablation), revives
        restart the replica unless it is permanently dead."""
        at_s, kind, index = injector.pop_transition()
        replica, health = self.replicas[index], self.health[index]
        if kind == "drain":
            health.drain()
            report.drains += 1
        elif kind == "revive":
            if health.revive():
                replica.restart(at_s)
                report.restarts += 1
        elif kind == "crash":
            if not health.serving:
                return  # crashing a dead replica is a no-op
            health.record_crash()
            salvage = replica.fail()
            report.crashes += 1
            report.in_flight_at_crash += salvage.in_flight
            items = ([(s.request, s) for s in salvage.slots]
                     + [(r, None) for r in salvage.requests])
            for request, slot in items:
                if self.failover:
                    self._enqueue_failover(request, slot, at_s, report)
                else:
                    self._lose(request, slot, report,
                               f"replica {index} crashed; failover disabled")

    def _deliver_failover(self, injector: FaultInjector,
                          report: ServingFleetReport) -> None:
        """Re-route the next due failover item.  With no routable candidate
        the item waits for the next scheduled revive if one can still help;
        otherwise it is lost (never a hang)."""
        ready_s, request_id, request, slot = self._failover.pop(0)
        candidates = self._candidates(request)
        if not candidates:
            next_revive = injector.next_revive_s()
            revivable = any(h.state == "dead" and not h.permanently_dead
                            for h in self.health)
            if revivable and next_revive < float("inf"):
                bisect.insort(self._failover, (max(ready_s, next_revive),
                                               request_id, request, slot))
                return
            self._lose(request, slot, report,
                       "no healthy replica to fail over to")
            return
        index = self.routing.choose(self.replicas, request, candidates)
        if index not in candidates:
            raise ValueError(
                f"routing policy {self.routing.name!r} chose replica {index}, "
                f"not one of the candidates {candidates}")
        self.replicas[index].submit(request, salvage=slot)
        report.assignments[request.request_id] = index

    # -- the run loop --------------------------------------------------------
    def run(self, workload: Workload) -> ServingFleetReport:
        """Serve ``workload`` across the fleet on one shared time origin.

        Open-loop workloads are routed at their fixed arrival timestamps;
        a :class:`ClosedLoopClients` workload grows online as completions
        trigger each client's next request.  Oversized requests that no
        replica pool could ever hold are rejected at the router (and, for a
        closed-loop client, end that client's session — a rejected request
        never completes, so nothing would ever trigger the next round).
        """
        clients: Optional[ClosedLoopClients] = None
        if isinstance(workload, ClosedLoopClients):
            clients = workload
            queue = sorted(workload.initial_requests(), key=self._arrival_key)
        else:
            queue = sorted(workload, key=self._arrival_key)
        self.routing.reset()
        injector = FaultInjector(self.faults, len(self.replicas),
                                 seed=self.fault_seed)
        self.health = [ReplicaHealth() for _ in self.replicas]
        self._failover, self._retries, self._failover_ids = [], {}, set()
        for index, replica in enumerate(self.replicas):
            replica.begin([])
            if injector.plan:
                replica.faults = injector.view(index)
        report = ServingFleetReport(
            route=self.routing.name,
            scheduling=self.replicas[0].scheduling.name,
            control=self.replicas[0].control_name,
            faults=injector.plan.name,
            fault_seed=self.fault_seed,
            failover=self.failover,
        )

        while queue or self._failover or any(r.has_work for r in self.replicas):
            busy = [r for r in self.replicas if r.has_work]
            frontier = (min(self._next_event_s(r) for r in busy)
                        if busy else float("inf"))
            t_arrival = queue[0].arrival_s if queue else float("inf")
            t_failover = self._failover[0][0] if self._failover else float("inf")
            t_fault = injector.next_transition_s()
            if (injector.transitions
                    and t_fault <= frontier + 1e-12
                    and t_fault <= t_arrival + 1e-12
                    and t_fault <= t_failover + 1e-12):
                # Faults interrupt: a crash at T lands before any same-time
                # tick, arrival or redelivery sees the fleet.
                self._apply_transition(injector, report)
                continue
            if (self._failover and t_failover <= frontier + 1e-12
                    and t_failover <= t_arrival):
                self._deliver_failover(injector, report)
                continue
            if queue and t_arrival <= frontier + 1e-12:
                # No busy replica can still act before this arrival: route it
                # now, with every replica's state current as of arrival time.
                self._route(queue.pop(0), report)
                continue
            replica = min(busy, key=lambda r: (self._next_event_s(r),
                                               self.replicas.index(r)))
            finished = replica.advance_tick()
            if finished:
                self.health[self.replicas.index(replica)].record_completion()
                for metric in finished:
                    if metric.request_id in self._failover_ids:
                        report.requests_recovered += 1
                        self._failover_ids.discard(metric.request_id)
            if clients is not None:
                for metric in finished:
                    nxt = clients.next_request(metric.request_id,
                                               metric.finish_s)
                    if nxt is not None:
                        bisect.insort(queue, nxt, key=self._arrival_key)

        report.replica_reports = [r.finish_report() for r in self.replicas]
        report.replica_layers_per_token = [
            r.observed_layers_per_token() for r in self.replicas]
        report.replica_threshold_offsets = [
            r.report.mean_threshold_offset for r in self.replicas]
        report.replica_health = [h.state for h in self.health]
        return report
