"""Scheduling policies: who is served first, and who is evicted first.

:class:`~repro.serving.async_engine.AsyncServingEngine` delegates every
ordering decision — admission order, resume/prefill service order, and the
preemption victim when the KV pool runs dry — to a pluggable
:class:`SchedulingPolicy`.  ``fifo_priority`` is priority-then-arrival,
``edf`` is deadline-driven with an SLO-aware victim picker, and
``fair_tenant`` balances decoded tokens across tenants.  Policies only rank;
the engine owns the batch, the paged KV pool and the clock.
"""

from __future__ import annotations

from typing import Optional, Tuple, Union

from repro.serving.request import Request

__all__ = [
    "SchedulingPolicy", "FifoPriorityPolicy", "EdfPolicy", "FairTenantPolicy",
    "SCHEDULING_POLICIES", "make_scheduling_policy",
]


class SchedulingPolicy:
    """Who is served first, and who is evicted first, in the async engine.

    The :class:`~repro.serving.async_engine.AsyncServingEngine` delegates all
    of its ordering decisions here: ``queue_key`` ranks waiting requests for
    admission and preempted/prefilling sequences for service (ascending; the
    smallest key goes first), and ``victim_key`` ranks runnable sequences for
    eviction when the KV pool runs dry (ascending; the smallest key is
    preempted first).  Deadline-aware policies use the engine-supplied
    modelled clock (``now_s``), full-depth service-rate estimate
    (``per_token_s``) and decode tokens still owed (``remaining``, the full
    budget when unknown) to reason about slack.  A sequence object only
    needs a ``request`` attribute and a ``result.tokens`` list, so policies
    work on any engine slot type.
    """

    name = "base"
    #: Dynamic policies re-rank as service accumulates (``on_progress``
    #: feedback changes their keys mid-run); static policies never do.
    dynamic = False

    def queue_key(self, request: Request, now_s: float = 0.0,
                  per_token_s: float = 0.0,
                  remaining: Optional[int] = None) -> Tuple:
        """Ascending service rank of ``request`` (smallest served first)."""
        raise NotImplementedError

    def victim_key(self, seq, now_s: float, per_token_s: float) -> Tuple:
        """Ascending eviction rank of ``seq`` (smallest preempted first)."""
        raise NotImplementedError

    def on_progress(self, request: Request, tokens: int) -> None:
        """Feedback hook: ``tokens`` were just decoded for ``request``.

        Static policies ignore it; dynamic ones (``fair_tenant``) fold the
        served work into their ranking state."""

    def reset(self) -> None:
        """Clear accumulated ranking state at the start of a run (no-op for
        stateless policies)."""


class FifoPriorityPolicy(SchedulingPolicy):
    """PR 2's original ordering: priority first, then arrival order.

    Service goes to the highest-priority, earliest-arrived request; the
    victim is the lowest-priority, latest-arrived sequence.  Deadlines are
    ignored entirely — this is the baseline EDF is measured against.
    """

    name = "fifo_priority"

    def queue_key(self, request: Request, now_s: float = 0.0,
                  per_token_s: float = 0.0,
                  remaining: Optional[int] = None) -> Tuple:
        """Highest priority first, then earliest arrival, then lowest id."""
        return (-request.priority, request.arrival_s, request.request_id)

    def victim_key(self, seq, now_s: float, per_token_s: float) -> Tuple:
        """Lowest priority first, then latest arrival, then highest id."""
        request = seq.request
        return (request.priority, -request.arrival_s, -request.request_id)


class EdfPolicy(SchedulingPolicy):
    """Earliest-deadline-first service with an SLO-aware victim picker.

    *Service* is deadline-driven: among requests that can still meet their
    deadline (estimated finish ``now + remaining * per_token_s`` at or
    before it), the earliest absolute deadline goes first.  Requests whose
    deadline is already unreachable are *hopeless* — serving them cannot add
    goodput — so they are pushed behind every feasible request (plain EDF's
    overload failure mode is exactly that it keeps burning capacity on
    doomed work, the domino effect).  Deadline-free requests can never miss
    and queue after the feasible deadline-carriers.

    *Eviction* is the mirror image, most-affordable victim first: sequences
    without a deadline (infinite slack), then hopeless sequences (their
    remaining work is wasted either way, most-blown deadline first), then
    feasible sequences by most slack — the one that can best absorb the
    delay.  Protecting the least-slack feasible sequences is what turns
    early-exit throughput into SLO attainment under pressure.
    """

    name = "edf"

    @staticmethod
    def _slack(request: Request, now_s: float, per_token_s: float,
               remaining: int) -> float:
        """Margin between the deadline and the estimated finish (inf when
        the request carries no deadline)."""
        if request.deadline_s is None:
            return float("inf")
        return request.deadline_s - (now_s + remaining * per_token_s)

    def queue_key(self, request: Request, now_s: float = 0.0,
                  per_token_s: float = 0.0,
                  remaining: Optional[int] = None) -> Tuple:
        """Feasible EDF first, then deadline-free, then hopeless."""
        if remaining is None:
            remaining = request.max_new_tokens
        slack = self._slack(request, now_s, per_token_s, remaining)
        deadline = request.deadline_s
        if deadline is None:
            deadline = float("inf")
        hopeless = slack < 0  # never True for deadline-free (inf slack)
        return (1 if hopeless else 0, deadline, request.arrival_s,
                request.request_id)

    def victim_key(self, seq, now_s: float, per_token_s: float) -> Tuple:
        """Deadline-free first, then hopeless, then the most-slack feasible."""
        request = seq.request
        remaining = request.max_new_tokens - len(seq.result.tokens)
        slack = self._slack(request, now_s, per_token_s, remaining)
        if request.deadline_s is None:
            rank, urgency = 0, 0.0  # cannot miss: evict first
        elif slack < 0:
            rank, urgency = 1, slack  # wasted work: most-blown first
        else:
            rank, urgency = 2, -slack  # feasible: most slack first
        return (rank, urgency, -request.arrival_s, -request.request_id)


class FairTenantPolicy(SchedulingPolicy):
    """Per-tenant weighted fairness: the least-served tenant goes first.

    Multi-tenant traffic lets one chatty tenant starve everyone else under
    FIFO.  This policy tracks decoded tokens per tenant (``on_progress``)
    and ranks waiting work by its tenant's served total — ascending, so the
    tenant with the least service so far is admitted and resumed first;
    within a tenant the order stays priority-then-arrival.  Eviction is the
    mirror image: the *most*-served tenant's sequences are preempted first,
    lowest priority and latest arrival breaking ties.  Requests without a
    ``tenant_id`` pool into one anonymous tenant.

    The served counters persist across :meth:`queue_key` calls and change
    every decode tick, so the policy is marked ``dynamic`` — the async
    engine re-sorts its queues each tick anyway, which is all the
    re-ranking needs.
    """

    name = "fair_tenant"
    dynamic = True

    def __init__(self) -> None:
        """Start with every tenant unserved."""
        self._served: dict = {}

    def reset(self) -> None:
        """Forget all served-token counters (fresh run, fresh fairness)."""
        self._served.clear()

    def on_progress(self, request: Request, tokens: int) -> None:
        """Charge ``tokens`` of service to the request's tenant."""
        tenant = request.tenant_id
        self._served[tenant] = self._served.get(tenant, 0) + tokens

    def served(self, tenant_id) -> int:
        """Decoded tokens charged to ``tenant_id`` so far this run."""
        return self._served.get(tenant_id, 0)

    def queue_key(self, request: Request, now_s: float = 0.0,
                  per_token_s: float = 0.0,
                  remaining: Optional[int] = None) -> Tuple:
        """Least-served tenant first; priority/arrival within a tenant."""
        return (self._served.get(request.tenant_id, 0), -request.priority,
                request.arrival_s, request.request_id)

    def victim_key(self, seq, now_s: float, per_token_s: float) -> Tuple:
        """Most-served tenant's lowest-priority, latest sequence first."""
        request = seq.request
        return (-self._served.get(request.tenant_id, 0), request.priority,
                -request.arrival_s, -request.request_id)


SCHEDULING_POLICIES = {
    FifoPriorityPolicy.name: FifoPriorityPolicy,
    EdfPolicy.name: EdfPolicy,
    FairTenantPolicy.name: FairTenantPolicy,
}


def make_scheduling_policy(spec: Union[str, SchedulingPolicy]) -> SchedulingPolicy:
    """Resolve a policy name (or pass through an instance) to a policy."""
    if isinstance(spec, SchedulingPolicy):
        return spec
    if spec not in SCHEDULING_POLICIES:
        raise ValueError(
            f"unknown scheduling policy {spec!r}; "
            f"known: {sorted(SCHEDULING_POLICIES)}")
    return SCHEDULING_POLICIES[spec]()
