"""Trace-driven async serving: arrivals, preemption, and chunked prefill.

:class:`AsyncServingEngine` is the repo's one serving loop: an open-loop,
event-driven continuous-batching server.  Requests become visible at their
``arrival_s`` timestamps on a modelled clock; each scheduler iteration
("tick") is priced through the roofline :class:`LatencyModel` and advances
the clock by its own cost, so SLO attainment and tokens/s come out of the
same physics that prices everything else in this repo.  A closed batch is
just a trace whose requests all arrive at ``t=0`` (the :class:`Request`
default): hand :meth:`AsyncServingEngine.run` a plain request list.

Three mechanisms replace PR 1's conservative worst-case admission:

* **Optimistic admission** (``admission="optimistic"``) admits a request as
  soon as a batch slot and *any* free KV block exist, instead of reserving
  the request's worst-case block need up front.  ``admission="reserve"``
  keeps the old conservative policy as the baseline.
* **Preemption** resolves the over-commitment optimism creates.  When the
  pool cannot cover the blocks the next decode tick needs, the
  lowest-priority, latest-arrived running sequence is evicted — either by
  *swap* (its paged KV moves to a modelled host pool, priced as ``KV_SWAP``
  link traffic both ways) or by *recompute* (blocks are freed outright and a
  prefill pass over the full context is re-run at resume).  ``"auto"`` picks
  whichever the roofline model prices cheaper for that sequence, which is the
  vLLM swap-vs-recompute tradeoff made explicit.
* **Chunked prefill** (``chunk_prefill_tokens=N``) feeds long prompts through
  the batch ``N`` tokens per tick alongside ongoing decodes.  With chunking
  off, a prefill monopolises its tick (no decode runs), which is how
  non-chunked serving stalls time-between-tokens in practice.

Preempted-then-resumed sequences are token-identical to uninterrupted
decoding: the per-sequence model state and predictor scheduler survive
preemption on the host (as they do in real servers — only device KV is
evicted), swap-in restores cache contents bit-exactly, and recompute rebuilds
them from the recorded exit hidden states.  Backends with real KV tensors
participate through the :class:`~repro.model.base.LayeredLM` preemption
hooks: swap moves the transformer's :class:`~repro.nn.attention.KVCache` to
a host blob bit for bit, and recompute replays the context at full depth on
resume — both alongside the modelled ``KV_SWAP``/``PREFILL_LAYER`` charges.

Backends that support batched decode (``supports_batched_decode``) run each
tick's decode through :meth:`SpecEEEngine.step_batch`, so the transformer
serves real ``[B, dim]`` math under the async scheduler; the report then
carries wall-clock time and measured tokens/s next to the modelled clock.
Prefill is batched the same way on every backend: a tick's fresh admits go
through one :meth:`SpecEEEngine.prefill_batch`, which the transformer runs
as a single ragged pass that streams each layer's weights once.

Every engine runs on a modelled ``tp x pp``
:class:`~repro.distributed.ClusterSpec` (one device is the 1x1 default):
ticks are priced by :class:`~repro.hardware.latency.LatencyModel`
(tensor-parallel layer shards plus ``ALLREDUCE`` collectives, pipeline-stage
concurrency plus ``PIPELINE_BUBBLE`` idleness) and preemption costs are
priced per owning device; the paged pool stays one :class:`PagedKVCache`
(every stage device's pool — stages see identical traffic, so their
allocators never differ).  The modelled clock moves with the shape, so
admission/preemption *timing* may differ between shapes — but per-request
tokens never do.

Two orthogonal extension points sit on top of that machinery:

* **Scheduling policies** — every ordering decision (admission order,
  resume/prefill service order, preemption victim) is delegated to a
  pluggable :class:`~repro.serving.scheduler.SchedulingPolicy`:
  ``"fifo_priority"`` keeps the original priority+arrival behavior, and
  ``"edf"`` serves earliest-deadline-first with an SLO-aware victim picker
  that preempts the sequence with the most slack.
* **A stepping API** — :meth:`AsyncServingEngine.run` is a thin loop over
  :meth:`begin` / :meth:`advance_tick` / :meth:`finish_report`, and
  :meth:`submit` injects requests mid-run.  This is what lets the
  data-parallel :class:`~repro.serving.router.ServingRouter` interleave N
  replicas on one shared time origin and route arrivals online.
"""

from __future__ import annotations

import bisect
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.config import ModelSpec, get_model_spec
from repro.core.engine import GenerationResult, SpecEEEngine
from repro.core.scheduling import FixedSetScheduler, Scheduler, make_scheduler
from repro.distributed.sharding import (
    record_decode_batches, record_prefill_allreduce, record_tick_bubble,
)
from repro.errors import KVCorruptionError
from repro.hardware.cluster import ClusterSpec
from repro.hardware.latency import LatencyModel
from repro.hardware.ledger import CostLedger, Event
from repro.model.base import LMState
from repro.serving.control import (
    ControlPolicy, LoadSignal, SpeculationController,
)
from repro.serving.faults import ReplicaFaultView
from repro.serving.paged_kv import PagedKVCache
from repro.serving.request import AdmissionPolicy, Request
from repro.serving.scheduler import SchedulingPolicy, make_scheduling_policy

__all__ = [
    "AsyncSequence", "AsyncRequestMetrics", "AsyncServingReport",
    "AsyncServingEngine", "CrashSalvage",
    "build_paged_cache", "default_scheduler_factory",
]

ADMISSION_MODES = ("optimistic", "reserve")
PREEMPTION_MODES = ("auto", "swap", "recompute", "never")

#: The empty predictor schedule every sequence decodes under on a
#: degraded-mode tick: nothing is sliced, predicted or verified, so the tick
#: is dense full-depth decode (stateless, hence shared).
DENSE_SCHEDULE = FixedSetScheduler(())


def build_paged_cache(
    engine: SpecEEEngine, kv_blocks: int, block_size: int,
    prefix_share: bool = False,
) -> PagedKVCache:
    """Paged cache sized so one KV entry covers the engine's hidden state.

    ``kv_blocks`` is the per-device pool.  Under pipeline parallelism that is
    every stage's pool at once: each stage holds its own layer range's share
    of every token, so the stages see identical append/free/swap traffic and
    identical allocators — one :class:`PagedKVCache` is exact, and ``pp``
    enters only through cluster pricing.  ``prefix_share`` enables the
    copy-on-write shared-prefix radix tree (prompts become paged and
    reusable across requests).
    """
    hidden = engine.model.hidden_dim
    n_kv_heads = 4 if hidden % 4 == 0 else 1
    return PagedKVCache(
        n_blocks=kv_blocks, block_size=block_size,
        n_kv_heads=n_kv_heads, head_dim=hidden // n_kv_heads,
        prefix_share=prefix_share,
    )


def default_scheduler_factory(engine: SpecEEEngine) -> Callable[[], Scheduler]:
    """Fresh per-sequence predictor schedulers matching the engine config."""
    cfg = engine.config
    return lambda: make_scheduler(
        cfg.scheduler, engine.model.n_layers,
        window=cfg.context_window, vicinity=cfg.layer_vicinity,
    )


@dataclass
class AsyncSequence:
    """One admitted request plus all its host-side survivable state."""

    request: Request
    #: Model state and result; None only between admission and the tick's
    #: batched prefill (inside :meth:`AsyncServingEngine._admit`).
    state: Optional[LMState]
    result: Optional[GenerationResult]
    scheduler: Scheduler
    admitted_step: int
    prefill_remaining: int
    blocks_reserved: int = 0  # reserve-mode worst-case hold, else 0
    resume_mode: Optional[str] = None  # "swap" | "recompute" while preempted
    last_progress_step: int = 0  # last tick with prefill/decode/resume progress
    preemptions: int = 0
    swaps: int = 0
    recomputes: int = 0
    swapped_tokens: int = 0
    finished_step: int = -1
    #: Modelled clock when the first decoded token landed (None until then).
    first_token_s: Optional[float] = None

    @property
    def request_id(self) -> int:
        """The underlying request's id."""
        return self.request.request_id

    @property
    def done(self) -> bool:
        """Whether the sequence has generated its full token budget."""
        return len(self.result.tokens) >= self.request.max_new_tokens

    @property
    def decodable(self) -> bool:
        """Whether prefill has finished, i.e. decode ticks may run."""
        return self.prefill_remaining == 0


@dataclass
class CrashSalvage:
    """Host-side survivors of a replica crash.

    A crash loses the replica's device KV and host swap pool, but the
    front-end (router) retains every request and the host-side decode state
    of every admitted sequence — the same survival approximation normal
    preemption already makes.  ``slots`` are sequences with decoded tokens,
    adoptable on a healthy replica via the deterministic recompute resume
    (token-identical continuation); ``requests`` is token-less work (queued,
    or admitted but still prefilling) to re-route fresh.
    """

    requests: List[Request] = field(default_factory=list)
    slots: List["AsyncSequence"] = field(default_factory=list)
    #: Admitted (running or preempted) sequences at crash time.
    in_flight: int = 0
    #: Decoded tokens held by the salvaged slots (re-decode is avoided; their
    #: KV must still be rebuilt on the adopting replica).
    decoded_tokens: int = 0


@dataclass
class AsyncRequestMetrics:
    """Per-request outcome on the modelled clock."""

    request_id: int
    arrival_s: float
    deadline_s: Optional[float]
    admitted_step: int
    finished_step: int
    finish_s: float
    tokens: int
    prompt_tokens: int
    preemptions: int = 0
    swaps: int = 0
    recomputes: int = 0
    swapped_tokens: int = 0
    #: Modelled clock when the first token landed (None if never stamped).
    first_token_s: Optional[float] = None

    @property
    def latency_s(self) -> float:
        """End-to-end modelled latency from arrival to last token."""
        return self.finish_s - self.arrival_s

    @property
    def ttft_s(self) -> Optional[float]:
        """Time to first token on the modelled clock (None if unstamped)."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def met_slo(self) -> Optional[bool]:
        """Whether the request finished by its deadline (None = no SLO)."""
        if self.deadline_s is None:
            return None
        return self.finish_s <= self.deadline_s


def _reduce(statistic, values: List[float]) -> float:
    """``statistic`` over per-request values; NaN when no request has one."""
    return float(statistic(values)) if values else float("nan")


def _p95(values: List[float]) -> float:
    return np.percentile(values, 95)


class RequestFold:
    """Request-level statistics of a serving run, written once.

    A report supplies ``metrics`` and ``results`` (per request id),
    ``makespan_s``, ``rejected_with_slo`` and the ``prefix_prompt_tokens`` /
    ``prefix_matched_tokens`` counters; everything below is folded from
    those, so one engine's report and a fleet's report of any width agree
    by construction.
    """

    def _slo_rejections(self) -> int:
        """Deadline-carrying requests rejected anywhere in the run (they
        count as missed); a fleet adds its replicas' to the router's."""
        return self.rejected_with_slo

    @property
    def total_tokens(self) -> int:
        """Tokens generated across every served request."""
        return sum(len(r.tokens) for r in self.results.values())

    @property
    def throughput_tps(self) -> float:
        """Modelled serving throughput: total tokens over the makespan."""
        if self.makespan_s <= 0:
            return float("nan")
        return self.total_tokens / self.makespan_s

    @property
    def good_tokens(self) -> int:
        """Tokens that met their SLO: tokens of every request that finished
        by its deadline, plus tokens of deadline-free requests (which cannot
        miss).  Tokens of requests that blew their deadline are wasted work
        and count for nothing — the difference between throughput and
        goodput."""
        return sum(m.tokens for m in self.metrics.values()
                   if m.met_slo is not False)

    @property
    def goodput_tps(self) -> float:
        """Modelled goodput: SLO-meeting tokens over the makespan."""
        if self.makespan_s <= 0:
            return float("nan")
        return self.good_tokens / self.makespan_s

    @property
    def slo_attainment(self) -> float:
        """Fraction of deadline-carrying requests that finished in time.
        Rejected requests with a deadline count as missed."""
        deadlines = [m.met_slo for m in self.metrics.values()
                     if m.deadline_s is not None]
        total = self._slo_rejections() + len(deadlines)
        if total == 0:
            return float("nan")
        return sum(deadlines) / total

    def _latencies(self) -> List[float]:
        return [m.latency_s for m in self.metrics.values()]

    def _ttfts(self) -> List[float]:
        return [m.ttft_s for m in self.metrics.values() if m.ttft_s is not None]

    @property
    def mean_latency_s(self) -> float:
        """Mean end-to-end request latency on the modelled clock."""
        return _reduce(np.mean, self._latencies())

    def p95_latency_s(self) -> float:
        """95th-percentile end-to-end request latency on the modelled clock."""
        return _reduce(_p95, self._latencies())

    @property
    def mean_ttft_s(self) -> float:
        """Mean time to first token across requests that produced one."""
        return _reduce(np.mean, self._ttfts())

    def p95_ttft_s(self) -> float:
        """95th-percentile time to first token on the modelled clock."""
        return _reduce(_p95, self._ttfts())

    @property
    def prefix_hit_rate(self) -> float:
        """Shared-prefix token hit rate (NaN when no prompt was prefix-paged)."""
        if self.prefix_prompt_tokens == 0:
            return float("nan")
        return self.prefix_matched_tokens / self.prefix_prompt_tokens


@dataclass
class AsyncServingReport(RequestFold):
    """Outcome of one :meth:`AsyncServingEngine.run`."""

    results: Dict[int, GenerationResult] = field(default_factory=dict)
    metrics: Dict[int, AsyncRequestMetrics] = field(default_factory=dict)
    rejected: Dict[int, str] = field(default_factory=dict)
    serving_ledger: CostLedger = field(default_factory=CostLedger)
    sequential_ledger: CostLedger = field(default_factory=CostLedger)
    n_steps: int = 0
    makespan_s: float = 0.0
    wall_time_s: float = float("nan")
    sequential_time_s: float = float("nan")
    batch_occupancy: List[int] = field(default_factory=list)
    tick_seconds: List[float] = field(default_factory=list)
    peak_kv_blocks: int = 0
    peak_host_tokens: int = 0
    preemptions: int = 0
    swaps: int = 0
    recomputes: int = 0
    rejected_with_slo: int = 0
    #: Adaptive-control policy this run decoded under ("off" = no controller).
    control: str = "off"
    #: Mean actuated exit-threshold offset across per-sequence decode
    #: decisions (0.0 under "off"/"static").
    mean_threshold_offset: float = 0.0
    # -- fault/recovery accounting (all zero on a fault-free run) --
    #: Ticks decoded in degraded mode (speculation kill-switch engaged).
    degraded_ticks: int = 0
    #: Times the kill-switch tripped (anomaly streak or checksum failure).
    degraded_events: int = 0
    #: Ticks that ran inside an injected predictor-anomaly window.
    anomalous_ticks: int = 0
    #: Swap blobs that failed their checksum (each fell back to recompute).
    kv_corruptions: int = 0
    #: Sequences failed by the no-progress watchdog.
    watchdog_timeouts: int = 0
    #: Ticks repriced by an injected transient slowdown.
    slowed_ticks: int = 0
    #: Times this replica crashed (``AsyncServingEngine.fail``).
    crashes: int = 0
    # -- prefix-sharing accounting (all zero with sharing off) --
    #: Whether this run paged prompts through the shared radix tree.
    prefix_share: bool = False
    #: Prompt tokens prefilled through the prefix path.
    prefix_prompt_tokens: int = 0
    #: Prompt tokens adopted from shared blocks instead of recomputed.
    prefix_matched_tokens: int = 0
    #: Copy-on-write block clones performed by divergent writes.
    cow_copies: int = 0

    @property
    def measured_tps(self) -> float:
        """Real tokens per wall-clock second of this process — reported next
        to the modelled clock, which prices the run as the priced model on
        the priced device regardless of how fast numpy actually ran."""
        if math.isnan(self.wall_time_s) or self.wall_time_s <= 0:
            return float("nan")
        return self.total_tokens / self.wall_time_s

    @property
    def sequential_tps(self) -> float:
        """Modelled one-request-at-a-time throughput on the same physics."""
        if not self.sequential_time_s or math.isnan(self.sequential_time_s):
            return float("nan")
        return self.sequential_ledger.tokens_generated / self.sequential_time_s

    @property
    def speedup(self) -> float:
        """Serving throughput over sequential throughput."""
        seq = self.sequential_tps
        if math.isnan(seq) or seq <= 0:
            return float("nan")
        return self.throughput_tps / seq

    @property
    def avg_batch_occupancy(self) -> float:
        """Mean decoding sequences per tick."""
        if not self.batch_occupancy:
            return float("nan")
        return float(np.mean(self.batch_occupancy))


class AsyncServingEngine:
    """Event-driven serving over one :class:`SpecEEEngine` (module docstring)."""

    #: Consecutive anomalous ticks that trip the speculation kill-switch.
    anomaly_detect_ticks = 2
    #: Clean ticks after which a tripped kill-switch re-arms speculation.
    degrade_window = 8

    def __init__(
        self,
        engine: SpecEEEngine,
        model_spec: Union[ModelSpec, str],
        *,
        device: str = "a100-80g",
        framework: str = "vllm",
        batch_capacity: int = 8,
        kv_blocks: int = 256,
        block_size: int = 16,
        scheduler_factory: Optional[Callable[[], Scheduler]] = None,
        admission: str = "optimistic",
        preemption: str = "auto",
        chunk_prefill_tokens: Optional[int] = 32,
        scheduling: Union[str, SchedulingPolicy] = "fifo_priority",
        cluster: Optional[ClusterSpec] = None,
        batched: Optional[bool] = None,
        control: Union[str, ControlPolicy, SpeculationController, None] = None,
        control_seed: int = 0,
        faults: Optional[ReplicaFaultView] = None,
        watchdog_ticks: Optional[int] = None,
        prefix_share: bool = False,
    ):
        """Build the async server.

        ``cluster`` (a :class:`~repro.distributed.ClusterSpec` of ``device``
        accelerators; default: the 1x1 cluster) shards the run: ticks are
        priced for its ``tp x pp`` shape; the paged cache stays one pool of
        ``kv_blocks`` blocks, which is each stage device's pool (see
        :func:`build_paged_cache`).
        ``scheduling`` picks the :class:`SchedulingPolicy` that orders
        admission/service and selects preemption victims (``"fifo_priority"``
        or ``"edf"``, or a policy instance).  ``batched`` routes each tick's
        decode through :meth:`SpecEEEngine.step_batch` (real ``[B, dim]``
        math on backends that support it); the default follows the model's
        ``supports_batched_decode``.

        ``control`` attaches a load-adaptive :class:`SpeculationController`
        (``"static"``/``"pressure"``/``"bandit"``, a policy instance, or a
        prebuilt controller): each decode tick the engine hands it a fresh
        :meth:`load_signal` and actuates its per-sequence exit-threshold /
        draft-length overrides.  ``None`` (the default) decodes with the
        engine's static configuration — token-identical to ``"static"``.
        ``control_seed`` feeds the bandit's sampling stream.

        ``faults`` attaches a :class:`~repro.serving.faults.ReplicaFaultView`
        the engine polls every tick (slowdowns, predictor anomalies,
        KV-corruption arms) — usually wired by the router from a fleet-level
        :class:`~repro.serving.faults.FaultInjector`.  ``watchdog_ticks``
        fails any admitted sequence that makes no prefill/decode/resume
        progress for that many consecutive ticks (None disables the
        watchdog).  :attr:`anomaly_detect_ticks` consecutive anomalous ticks
        trip the speculation kill-switch into degraded dense decode, which
        re-arms after :attr:`degrade_window` clean ticks.

        ``prefix_share`` pages prompts into the paged cache through a shared
        radix tree: a fresh admission adopts the blocks of every previously
        seen prompt prefix (refcounted, copy-on-write on first divergent
        write) and only the unmatched suffix is prefilled — the ledger
        charges ``PREFILL_LAYER`` for the suffix plus a small
        ``PREFIX_REUSE`` adoption overhead.  Off (the default), prompts are
        never paged and every code path is byte-identical to earlier
        releases.
        """
        if admission not in ADMISSION_MODES:
            raise ValueError(f"admission must be one of {ADMISSION_MODES}")
        if preemption not in PREEMPTION_MODES:
            raise ValueError(f"preemption must be one of {PREEMPTION_MODES}")
        if chunk_prefill_tokens is not None and chunk_prefill_tokens < 1:
            raise ValueError("chunk_prefill_tokens must be >= 1 (or None)")
        if watchdog_ticks is not None and watchdog_ticks < 1:
            raise ValueError("watchdog_ticks must be >= 1 (or None)")
        self.engine = engine
        if isinstance(model_spec, str):
            model_spec = get_model_spec(model_spec)
        self.latency = LatencyModel(model_spec, device, framework, cluster=cluster)
        self.cluster = self.latency.cluster
        self.prefix_share = bool(prefix_share)
        self.cache = build_paged_cache(engine, kv_blocks, block_size,
                                       self.prefix_share)
        self.policy = AdmissionPolicy(
            n_blocks=kv_blocks, block_size=block_size, batch_capacity=batch_capacity,
            prefix_share=self.prefix_share,
        )
        self.scheduler_factory = scheduler_factory or default_scheduler_factory(engine)
        self.admission = admission
        self.preemption = preemption
        self.chunk_prefill_tokens = chunk_prefill_tokens
        self.scheduling = make_scheduling_policy(scheduling)
        self.batched = (engine.model.supports_batched_decode
                        if batched is None else bool(batched))
        if control is None:
            self.controller: Optional[SpeculationController] = None
        elif isinstance(control, SpeculationController):
            self.controller = control
        else:
            self.controller = SpeculationController(
                control, k=engine.config.num_speculative,
                base_threshold=engine.config.exit_threshold, seed=control_seed)
        self.faults = faults
        self.watchdog_ticks = watchdog_ticks
        # Service-rate estimate for deadline slack: starts at the roofline
        # full-depth token time, replaced by the run's observed tick time
        # once ticks exist (see _service_estimate_s).
        self._per_token_s = self.latency.full_depth_token_time()
        self._reset_run([])

    def _reset_run(self, pending: List[Request]) -> None:
        """Every piece of per-run state, spelled once for ``__init__`` and
        :meth:`begin`."""
        self.pending = pending  # sorted by arrival, not yet visible
        self.waiting: List[Request] = []  # arrived, not yet admitted
        self.running: List[AsyncSequence] = []
        self.preempted: List[AsyncSequence] = []
        self.report = AsyncServingReport()
        self.reserved_blocks = 0
        self.step_count = 0
        self.now_s = 0.0
        self.dead = False
        self.degraded = False
        self._anomaly_streak = 0
        self._clean_streak = 0
        self._salvage: Dict[int, AsyncSequence] = {}
        self._prompt_tokens = 0
        self._wall_start = time.perf_counter()
        self._service_s = self._per_token_s

    # -- tick phases ---------------------------------------------------------
    def _service_estimate_s(self) -> float:
        """Per-token service-time estimate for deadline slack.

        Every running sequence advances one token per tick, so the observed
        mean tick time *is* the per-token service rate the batch actually
        delivers — including batching overhead, prefill chunks sharing the
        tick and preemption traffic, none of which the single-stream roofline
        estimate sees.  An optimistic estimate makes EDF classify doomed
        requests as feasible and burn capacity on them (the overload domino
        effect), so accuracy here is what the goodput win rests on.  Until
        enough ticks exist, fall back to the roofline full-depth token time.
        """
        ticks = self.report.tick_seconds
        if len(ticks) < 4:
            return self._per_token_s
        return float(np.mean(ticks[-16:]))

    def _service_key(self, seq: AsyncSequence):
        """The scheduling policy's service rank of a live sequence — the one
        place the slack inputs (clock, rate estimate, tokens still owed) are
        spelled, so resume and prefill order can never diverge."""
        return self.scheduling.queue_key(
            seq.request, self.now_s, self._service_s,
            remaining=seq.request.max_new_tokens - len(seq.result.tokens))

    def _absorb_arrivals(self, pending: List[Request], report: AsyncServingReport) -> None:
        while pending and pending[0].arrival_s <= self.now_s + 1e-12:
            request = pending.pop(0)
            reason = self.oversize_reason(request)
            if reason:
                report.rejected[request.request_id] = f"{reason}; it would wait forever"
                if request.slo_s is not None:
                    report.rejected_with_slo += 1
                continue
            self.waiting.append(request)
        self.waiting.sort(key=lambda r: self.scheduling.queue_key(
            r, self.now_s, self._service_s))

    def oversize_reason(self, request: Request) -> Optional[str]:
        """Why ``request`` could never be served here, or None: it overruns
        the backend's declared context limit (admitting it would overflow
        its KV cache mid-decode, and its admit batch's with it), or the
        paged pool could not hold it even when empty."""
        limit = self.engine.model.max_tokens
        context = len(request.prompt) + request.max_new_tokens
        if limit is not None and context > limit:
            return (f"needs {context} context tokens ({len(request.prompt)} "
                    f"prompt + {request.max_new_tokens} new) but the model's "
                    f"limit is {limit}")
        return self.policy.oversize_reason(request)

    def _live_count(self) -> int:
        return len(self.running) + len(self.preempted)

    def _resume_preempted(self, tick: CostLedger) -> None:
        """Bring evicted sequences back in policy service order.  Resume has
        precedence over fresh admission so preempted work cannot starve."""
        self.preempted.sort(key=self._service_key)
        while self.preempted:
            slot = self.preempted[0]
            tokens = len(slot.result.tokens)
            need_tokens = tokens
            if self.prefix_share:
                # Prompts are paged too: the resume must cover the full
                # context worst-case (a cold tree adopts nothing).
                need_tokens += len(slot.request.prompt)
            blocks_now = -(-need_tokens // self.policy.block_size) if need_tokens else 0
            # One extra block if the very next decode token opens a new block.
            headroom = 1 if need_tokens % self.policy.block_size == 0 else 0
            deficit = blocks_now + headroom - self.cache.allocator.free_blocks
            if deficit > 0 and self.prefix_share:
                self.cache.evict_prefix_leaves(deficit)  # cold cache first
            if self.cache.allocator.free_blocks < blocks_now + headroom:
                break  # lower-priority slots must not jump the queue
            self.preempted.pop(0)
            if slot.resume_mode == "swap":
                try:
                    moved = self.cache.swap_in(slot.request_id)
                except KVCorruptionError:
                    # The parked blob is damaged: discard it, trip the
                    # kill-switch, and fall through to the recompute resume —
                    # more prefill work, identical tokens.
                    self.report.kv_corruptions += 1
                    self.cache.drop_host(slot.request_id)
                    self.engine.model.drop_state_kv(slot.state)
                    slot.resume_mode = "recompute"
                    self._trip_degraded()
                else:
                    tick.add(Event.KV_SWAP, calls=1, units=moved)
                    slot.swapped_tokens += moved
                    self.engine.model.swap_in_state(slot.state)
            if slot.resume_mode == "recompute":
                # Rebuild paged KV from the recorded exit states.  With
                # prefix sharing the prompt re-walks the radix tree first:
                # any prefix still resident is adopted instead of recomputed,
                # so the PREFILL_LAYER recompute charge covers only the
                # unmatched context.
                matched = 0
                if self.prefix_share:
                    matched = self.cache.prefill_prompt(
                        slot.request_id, slot.request.prompt)
                    if matched:
                        tick.add(Event.PREFIX_REUSE, calls=1, units=matched)
                else:
                    self.cache.add_sequence(slot.request_id)
                for record in slot.result.records:
                    kv = record.hidden.reshape(self.cache.n_kv_heads, self.cache.head_dim)
                    self.cache.append(slot.request_id, kv, kv)
                context = len(slot.request.prompt) + tokens
                tick.add(Event.PREFILL_LAYER,
                         calls=self.engine.model.n_layers,
                         units=self.engine.model.n_layers * (context - matched))
                slot.recomputes += 1
                self.engine.model.recompute_state(slot.state)
            slot.resume_mode = None
            slot.last_progress_step = self.step_count
            self.running.append(slot)

    def _admissible(self, request: Request) -> bool:
        if self.admission == "reserve":
            return self.policy.admissible(
                request, self.reserved_blocks, self._live_count())
        return (self._live_count() < self.policy.batch_capacity
                and self.cache.allocator.free_blocks >= 1)

    def _admit(self, report: AsyncServingReport,
               tick: CostLedger) -> List[AsyncSequence]:
        """Admit from the head of the waiting queue while the policy allows,
        then prefill the tick's fresh admits in one batched pass (each slot
        joins ``running`` at once, so every later decision counts it)."""
        admitted: List[AsyncSequence] = []
        fresh: List[AsyncSequence] = []
        while self.waiting and self._admissible(self.waiting[0]):
            request = self.waiting.pop(0)
            salvaged = self._salvage.pop(request.request_id, None)
            if salvaged is not None:
                # Failover adoption: the sequence already decoded tokens on a
                # crashed replica; its host-side state survives, only KV must
                # be rebuilt.  Admission places it straight into the
                # preempted list and the recompute resume does the rest —
                # the continuation is token-identical.
                salvaged.admitted_step = self.step_count
                salvaged.last_progress_step = self.step_count
                salvaged.resume_mode = "recompute"
                salvaged.prefill_remaining = 0
                if self.admission == "reserve":
                    salvaged.blocks_reserved = self.policy.blocks_needed(request)
                    self.reserved_blocks += salvaged.blocks_reserved
                self.preempted.append(salvaged)
                admitted.append(salvaged)
                continue
            matched = 0
            if self.prefix_share:
                try:
                    matched = self.cache.prefill_prompt(
                        request.request_id, request.prompt)
                except MemoryError:
                    # Optimistic admission over-committed: the pool cannot
                    # page this prompt right now even after leaf eviction.
                    # Put the request back at the head and stop admitting —
                    # decode/retire ticks will free blocks.
                    self.waiting.insert(0, request)
                    break
                if matched:
                    tick.add(Event.PREFIX_REUSE, calls=1, units=matched)
            else:
                self.cache.add_sequence(request.request_id)
            scheduler = self.scheduler_factory()
            scheduler.reset()
            slot = AsyncSequence(
                request=request, state=None, result=None, scheduler=scheduler,
                admitted_step=self.step_count,
                prefill_remaining=len(request.prompt) - matched,
                last_progress_step=self.step_count,
            )
            if self.admission == "reserve":
                slot.blocks_reserved = self.policy.blocks_needed(request)
                self.reserved_blocks += slot.blocks_reserved
            self.running.append(slot)
            admitted.append(slot)
            fresh.append(slot)
        if fresh:
            prefilled = self.engine.prefill_batch(
                [slot.request.prompt for slot in fresh],
                [slot.request.script for slot in fresh])
            for slot, (state, result) in zip(fresh, prefilled):
                slot.state, slot.result = state, result
        return admitted

    def _prefill(self, tick: CostLedger) -> bool:
        """Schedule prefill work for this tick; returns True when the prefill
        monopolised the tick (unchunked mode) and decode must be skipped."""
        prefilling = sorted((s for s in self.running if s.prefill_remaining > 0),
                            key=self._service_key)
        if not prefilling:
            return False
        n_layers = self.engine.model.n_layers
        if self.chunk_prefill_tokens is None:
            # Whole prompts run in one go and own the tick, stalling decode.
            for slot in prefilling:
                take = slot.prefill_remaining
                tick.add(Event.PREFILL_LAYER, calls=n_layers, units=n_layers * take)
                slot.prefill_remaining = 0
                slot.last_progress_step = self.step_count
            return True
        budget = self.chunk_prefill_tokens
        for slot in prefilling:
            if budget == 0:
                break
            take = min(slot.prefill_remaining, budget)
            tick.add(Event.PREFILL_LAYER, calls=n_layers, units=n_layers * take)
            slot.prefill_remaining -= take
            budget -= take
            if take:
                slot.last_progress_step = self.step_count
        return False

    def _preempt(self, slot: AsyncSequence, tick: CostLedger) -> None:
        tokens = len(slot.result.tokens)
        mode = self.preemption
        if mode == "auto":
            costs = self.latency.preempt_costs(
                tokens, len(slot.request.prompt) + tokens)
            mode = "swap" if costs["swap"] <= costs["recompute"] else "recompute"
        if mode == "swap" and tokens > 0:
            moved = self.cache.swap_out(slot.request_id)
            tick.add(Event.KV_SWAP, calls=1, units=moved)
            slot.swapped_tokens += moved
            slot.swaps += 1
            slot.resume_mode = "swap"
            self.engine.model.swap_out_state(slot.state)
        else:
            # Nothing decoded yet degenerates to recompute (nothing to save).
            self.cache.free_sequence(slot.request_id)
            slot.resume_mode = "recompute"
            self.engine.model.drop_state_kv(slot.state)
        slot.preemptions += 1
        self.running.remove(slot)
        self.preempted.append(slot)

    def _ensure_decode_blocks(self, runnable: List[AsyncSequence], tick: CostLedger) -> None:
        """Evict until the free pool covers every new block this tick's
        decode will allocate.  Raises with a clear message when eviction is
        disabled but required."""
        while True:
            # append_needs_block folds in the copy-on-write case: a mid-block
            # append to a shared block clones it into a fresh one.  With
            # sharing off it reduces to the plain block-boundary check.
            need = sum(
                1 for s in runnable
                if self.cache.append_needs_block(s.request_id)
            )
            if self.cache.allocator.free_blocks >= need:
                return
            if self.prefix_share and self.cache.evict_prefix_leaves(
                    need - self.cache.allocator.free_blocks):
                continue  # reclaimed cold cache; re-check before preempting
            if self.preemption == "never":
                raise MemoryError(
                    f"KV pool exhausted at step {self.step_count}: decode needs "
                    f"{need} fresh blocks, {self.cache.allocator.free_blocks} free; "
                    "enable preemption (swap/recompute/auto) or use "
                    "admission='reserve'"
                )
            victims = sorted(
                runnable,
                key=lambda s: self.scheduling.victim_key(
                    s, self.now_s, self._service_s))
            if not victims:
                raise MemoryError(
                    f"KV pool exhausted at step {self.step_count} with no "
                    "evictable sequence"
                )
            victim = victims[0]
            self._preempt(victim, tick)
            runnable.remove(victim)

    def _decode(self, runnable: List[AsyncSequence], tick: CostLedger) -> List[int]:
        """Advance every runnable sequence one token.

        With :attr:`batched` set the whole tick runs through
        :meth:`SpecEEEngine.step_batch` (one layer pass over the live batch,
        shrinking as sequences exit); otherwise sequences step one at a time.
        Either way each sequence keeps its own ledger, and the per-sequence
        ``DECODER_LAYER`` calls are dropped from the tick in favour of the
        rebatched ``BATCH_DECODER_LAYER`` events recorded below.
        """
        depths: List[int] = []
        dropped_layers = 0.0
        befores = [slot.result.ledger.snapshot() for slot in runnable]
        exit_ths: Optional[List[float]] = None
        draft_ls: Optional[List[int]] = None
        if self.controller is not None and runnable:
            exit_ths, draft_ls = self.controller.overrides(
                [slot.request_id for slot in runnable])
        # Kill-switch engaged: every sequence decodes under the empty
        # schedule (dense full depth), whatever the controller actuates.
        schedulers = [DENSE_SCHEDULE if self.degraded else slot.scheduler
                      for slot in runnable]
        if self.batched:
            records = self.engine.step_batch(
                [slot.state for slot in runnable],
                [slot.result for slot in runnable],
                schedulers, capture_hidden=True,
                exit_thresholds=exit_ths, draft_lens=draft_ls)
        else:
            ths = exit_ths if exit_ths is not None else [None] * len(runnable)
            lens = draft_ls if draft_ls is not None else [None] * len(runnable)
            records = [self.engine.step(slot.state, slot.result,
                                        scheduler=sched,
                                        capture_hidden=True,
                                        exit_threshold=th, draft_len=dl)
                       for slot, sched, th, dl
                       in zip(runnable, schedulers, ths, lens)]
        for slot, before, record in zip(runnable, befores, records):
            delta = slot.result.ledger.delta_since(before)
            dropped_layers += delta.calls(Event.DECODER_LAYER)
            delta.drop(Event.DECODER_LAYER)
            tick.merge(delta)
            depths.append(record.exit_layer + 1)
            kv = record.hidden.reshape(self.cache.n_kv_heads, self.cache.head_dim)
            self.cache.append(slot.request_id, kv, kv)
            slot.last_progress_step = self.step_count
            self.scheduling.on_progress(slot.request, 1)
        if depths:
            batches = [sum(1 for d in depths if d > l) for l in range(max(depths))]
            if sum(batches) != dropped_layers:
                raise AssertionError(
                    f"batched layer-tokens {sum(batches)} != per-sequence layer "
                    f"calls {dropped_layers}"
                )
            record_decode_batches(tick, batches, self.cluster)
        return depths

    def _record_sharded_events(self, tick: CostLedger, depths: List[int]) -> None:
        """Add one tick's cluster-only events (decode all-reduces are already
        recorded by :meth:`_decode`): the tensor-parallel collectives for this
        tick's prefill-layer work (chunks and recompute resumes alike) and the
        pipeline fill/drain bubble sized by the tick's deepest executed layer
        and average micro-batch."""
        record_prefill_allreduce(
            tick, tick.calls(Event.PREFILL_LAYER), tick.units(Event.PREFILL_LAYER),
            self.cluster,
        )
        deepest = max(depths) if depths else 0
        if tick.calls(Event.PREFILL_LAYER):
            deepest = self.engine.model.n_layers
        layer_tokens = (tick.units(Event.PREFILL_LAYER)
                        + tick.units(Event.BATCH_DECODER_LAYER))
        record_tick_bubble(tick, deepest, layer_tokens, max(len(depths), 1),
                           self.cluster)

    def _retire(self, report: AsyncServingReport) -> List[AsyncSequence]:
        finished = [s for s in self.running if s.decodable and s.done]
        for slot in finished:
            self.engine.finish(slot.state, slot.result)
            self.cache.free_sequence(slot.request_id)
            if self.admission == "reserve":
                self.reserved_blocks -= slot.blocks_reserved
            slot.finished_step = self.step_count
            self.running.remove(slot)
            report.results[slot.request_id] = slot.result
        return finished

    # -- faults, degraded mode, watchdog --------------------------------------
    def _trip_degraded(self) -> None:
        """Engage the speculation kill-switch: every subsequent decode tick
        runs dense full-depth until ``degrade_window`` clean ticks re-arm."""
        if not self.degraded:
            self.degraded = True
            self.report.degraded_events += 1
        self._clean_streak = 0

    def _consume_corruption(self) -> None:
        """Fire any due KV-corruption fault at a host-parked swap blob.

        The fault stays armed until a swapped-out sequence exists; the
        victim (and the flipped value) come from the fault view's seeded RNG,
        so a given plan+seed damages the same blob every run."""
        if self.faults is None or not self.faults.corruption_pending(self.now_s):
            return
        swapped = [s for s in self.preempted if s.resume_mode == "swap"]
        if not swapped:
            return
        self.faults.take_corruption(self.now_s)
        victim = swapped[int(self.faults.rng.integers(len(swapped)))]
        self.cache.corrupt_host(victim.request_id, self.faults.rng)

    def _poll_anomaly(self, runnable_count: int, tick: CostLedger) -> None:
        """Advance the degraded-mode state machine one tick.

        Inside an injected anomaly window the predictor fires spuriously:
        until ``anomaly_detect_ticks`` consecutive anomalous ticks trip the
        kill-switch, each tick charges wasted full-vocabulary verifications
        (two per runnable sequence) — the cost of speculating on garbage.
        Once degraded, decode runs dense (no speculation, no waste) and
        ``degrade_window`` clean ticks re-arm speculation."""
        anomalous = self.faults is not None and self.faults.anomaly_active(self.now_s)
        if anomalous:
            self.report.anomalous_ticks += 1
            self._anomaly_streak += 1
            self._clean_streak = 0
            if not self.degraded and self._anomaly_streak >= self.anomaly_detect_ticks:
                self._trip_degraded()
            if not self.degraded and runnable_count:
                tick.add(Event.LM_HEAD_FULL, calls=2 * runnable_count,
                         units=2 * runnable_count)
        else:
            self._anomaly_streak = 0
            if self.degraded:
                self._clean_streak += 1
                if self._clean_streak >= self.degrade_window:
                    self.degraded = False
                    self._clean_streak = 0
        if self.degraded:
            self.report.degraded_ticks += 1

    def _fail_slot(self, slot: AsyncSequence, reason: str) -> None:
        """Evict an admitted sequence as failed: free its device/host KV,
        release any reservation, and record a typed rejection."""
        if slot in self.running:
            self.running.remove(slot)
            self.cache.free_sequence(slot.request_id)
        else:
            self.preempted.remove(slot)
            if slot.resume_mode == "swap":
                self.cache.drop_host(slot.request_id)
        self.engine.model.drop_state_kv(slot.state)
        if self.admission == "reserve":
            self.reserved_blocks -= slot.blocks_reserved
            slot.blocks_reserved = 0
        self.report.rejected[slot.request_id] = reason
        if slot.request.slo_s is not None:
            self.report.rejected_with_slo += 1

    def _watchdog_sweep(self) -> None:
        """Fail admitted sequences with no progress for ``watchdog_ticks``
        consecutive ticks (hung resume, starved preemption) so a stuck
        sequence becomes a typed rejection instead of an infinite run."""
        if self.watchdog_ticks is None:
            return
        stale = [s for s in self.running + self.preempted
                 if self.step_count - s.last_progress_step >= self.watchdog_ticks]
        for slot in stale:
            self._fail_slot(
                slot, f"watchdog timeout: no token progress for "
                      f"{self.watchdog_ticks} ticks")
            self.report.watchdog_timeouts += 1

    def fail(self) -> CrashSalvage:
        """Crash this replica: device and host KV vanish, the pool is
        rebuilt empty, and the replica stops serving until :meth:`restart`.

        Returns the :class:`CrashSalvage` the router can fail over —
        token-less work as plain requests, decoded-token sequences as
        adoptable slots (their host-side state survives, as it does under
        normal preemption).  The replica's report keeps everything it
        finished before the crash."""
        live = self.running + self.preempted
        slots = [s for s in live if s.result.tokens]
        requests = [s.request for s in live if not s.result.tokens]
        for request in list(self.waiting) + list(self.pending):
            adopted = self._salvage.pop(request.request_id, None)
            if adopted is not None:
                slots.append(adopted)  # salvage delivered here, not yet admitted
            else:
                requests.append(request)
        salvage = CrashSalvage(
            requests=requests, slots=slots, in_flight=len(live),
            decoded_tokens=sum(len(s.result.tokens) for s in slots),
        )
        for slot in live:
            self.engine.model.drop_state_kv(slot.state)
            slot.resume_mode = None
            slot.blocks_reserved = 0
        self.running, self.preempted = [], []
        self.waiting, self.pending = [], []
        self._salvage.clear()
        self.reserved_blocks = 0
        self.report.crashes += 1
        self.dead = True
        self.cache = build_paged_cache(
            self.engine, self.cache.allocator.n_blocks, self.cache.block_size,
            self.prefix_share)
        return salvage

    def restart(self, at_s: float) -> None:
        """Bring a :meth:`fail`-ed replica back with an empty KV pool; its
        clock resumes no earlier than the restart time and its degraded
        state clears (a fresh process)."""
        self.dead = False
        self.degraded = False
        self._anomaly_streak = 0
        self._clean_streak = 0
        self.now_s = max(self.now_s, at_s)

    # -- the stepping API ----------------------------------------------------
    def begin(self, trace: Sequence[Request]) -> None:
        """Reset per-run state and load ``trace`` as the pending arrivals.

        The run then proceeds through :meth:`advance_tick` calls until
        :attr:`has_work` clears (what :meth:`run` does in a loop); a router
        can interleave those calls across replicas and :meth:`submit` more
        requests while the run is live.  Request ids must be unique within
        the trace (``ValueError`` names the first repeat before any tick
        runs; the paged cache keys sequences by id).
        """
        seen: set = set()
        for request in trace:
            if request.request_id in seen:
                raise ValueError(
                    f"request id {request.request_id} appears more than once "
                    "in the trace")
            seen.add(request.request_id)
        self._reset_run(sorted(trace, key=lambda r: (r.arrival_s, r.request_id)))
        if self.controller is not None:
            self.controller.begin()
        self.scheduling.reset()
        # Fresh pool every run: a previous run that died mid-flight (e.g. the
        # preemption="never" MemoryError) must not leak blocks into this one.
        self.cache = build_paged_cache(
            self.engine, self.cache.allocator.n_blocks, self.cache.block_size,
            self.prefix_share)

    def submit(self, request: Request,
               salvage: Optional[AsyncSequence] = None) -> None:
        """Inject ``request`` into the live run (arrival order preserved).

        The router's delivery path: a routed request joins this replica's
        pending arrivals and becomes visible at its own ``arrival_s`` — or at
        the replica's current clock if that has already passed.  ``salvage``
        hands over a sequence rescued from a crashed replica: on admission
        the slot is adopted as-is (decoded tokens, predictor scheduler and
        model state intact) and resumed through the deterministic recompute
        path instead of a fresh prefill.  An id this engine still holds
        (pending, waiting, running or preempted) raises ``ValueError``; one
        that has left the engine (finished, rejected, crashed away) may be
        submitted again — the failover retry path."""
        if request.request_id in self._live_ids():
            raise ValueError(
                f"request id {request.request_id} is already in flight on "
                "this engine")
        if salvage is not None:
            self._salvage[request.request_id] = salvage
        bisect.insort(self.pending, request,
                      key=lambda r: (r.arrival_s, r.request_id))

    def _live_ids(self) -> set:
        """Ids of every request the engine currently holds."""
        ids = {r.request_id for r in self.pending + self.waiting}
        ids.update(s.request_id for s in self.running + self.preempted)
        return ids

    @property
    def has_work(self) -> bool:
        """Whether any request is pending, waiting, running or preempted."""
        return bool(self.pending or self.waiting or self.running
                    or self.preempted)

    def advance_tick(self) -> List[AsyncRequestMetrics]:
        """Run one scheduler tick on the modelled clock.

        Returns the metrics of every request that finished this tick (the
        router's closed-loop clients hook); an idle tick that only absorbed
        rejected arrivals prices nothing and returns ``[]``.
        """
        if self.dead:
            return []  # a crashed replica serves nothing until restart()
        report = self.report
        self._service_s = self._service_estimate_s()
        if not (self.waiting or self.running or self.preempted):
            if not self.pending:
                return []
            self.now_s = max(self.now_s, self.pending[0].arrival_s)  # idle jump
        tick = CostLedger()
        self._absorb_arrivals(self.pending, report)
        if not (self.waiting or self.running or self.preempted):
            return []  # every arrival in this window was rejected
        self._consume_corruption()  # damage blobs before this tick's resumes
        self._resume_preempted(tick)
        admitted = self._admit(report, tick)
        self._prompt_tokens += sum(len(s.request.prompt) for s in admitted)
        suppressed = self._prefill(tick)
        depths: List[int] = []
        if not suppressed:
            runnable = [s for s in self.running if s.decodable and not s.done]
            self._ensure_decode_blocks(runnable, tick)
            self._poll_anomaly(len(runnable), tick)
            if self.controller is not None:
                # Signal after admission/preemption resolved, so queue depth
                # and KV pressure describe the batch this decode will run.
                self.controller.observe(self.load_signal())
            depths = self._decode(runnable, tick)
        report.batch_occupancy.append(len(depths))
        report.peak_kv_blocks = max(report.peak_kv_blocks, self.cache.blocks_in_use())
        report.peak_host_tokens = max(report.peak_host_tokens, self.cache.host_tokens())
        finished = self._retire(report)
        self._watchdog_sweep()

        self._record_sharded_events(tick, depths)
        tick.steps = 1
        dt = self.latency.price(tick).total_s
        if self.faults is not None:
            factor = self.faults.slowdown_factor(self.now_s)
            if factor > 1.0:
                dt *= factor  # transient straggler: same work, slower tick
                report.slowed_ticks += 1
        self.now_s += dt
        report.tick_seconds.append(dt)
        report.serving_ledger.merge(tick)
        # First-token stamps land after the tick is priced: a token decoded
        # this tick became visible when the tick's work finished.
        for slot in self.running + finished:
            if slot.first_token_s is None and slot.result.tokens:
                slot.first_token_s = self.now_s
        metrics: List[AsyncRequestMetrics] = []
        for slot in finished:
            metric = AsyncRequestMetrics(
                request_id=slot.request_id,
                arrival_s=slot.request.arrival_s,
                deadline_s=slot.request.deadline_s,
                admitted_step=slot.admitted_step,
                finished_step=slot.finished_step,
                finish_s=self.now_s,
                tokens=len(slot.result.tokens),
                prompt_tokens=len(slot.request.prompt),
                preemptions=slot.preemptions,
                swaps=slot.swaps,
                recomputes=slot.recomputes,
                swapped_tokens=slot.swapped_tokens,
                first_token_s=slot.first_token_s,
            )
            report.metrics[slot.request_id] = metric
            metrics.append(metric)
            if self.controller is not None:
                self.controller.finish(metric.request_id, metric.tokens,
                                       metric.latency_s, metric.met_slo)
            report.preemptions += slot.preemptions
            report.swaps += slot.swaps
            report.recomputes += slot.recomputes
        self.step_count += 1
        return metrics

    def finish_report(self) -> AsyncServingReport:
        """Seal and return the report for the ticks run since :meth:`begin`."""
        report = self.report
        report.n_steps = self.step_count
        report.makespan_s = self.now_s
        report.wall_time_s = time.perf_counter() - self._wall_start
        report.serving_ledger.steps = self.step_count
        report.serving_ledger.prompt_tokens = self._prompt_tokens
        # Rebuilt from scratch, so sealing twice cannot double-count.
        report.sequential_ledger = CostLedger()
        for result in report.results.values():
            report.sequential_ledger.merge(result.ledger)
        report.sequential_time_s = self.latency.price(report.sequential_ledger).total_s
        report.control = self.control_name
        if self.controller is not None:
            report.mean_threshold_offset = self.controller.mean_threshold_offset()
        report.prefix_share = self.prefix_share
        if self.prefix_share:
            report.prefix_prompt_tokens = self.cache.prefix_prompt_tokens
            report.prefix_matched_tokens = self.cache.prefix_matched_tokens
            report.cow_copies = self.cache.cow_copies
        return report

    def run(self, trace: Sequence[Request]) -> AsyncServingReport:
        """Serve an arrival trace to completion on the modelled clock."""
        self.begin(trace)
        while self.has_work:
            self.advance_tick()
        return self.finish_report()

    # -- fleet-facing load/exit statistics ------------------------------------
    @property
    def control_name(self) -> str:
        """The attached adaptive-control policy's name ("off" = none)."""
        return "off" if self.controller is None else self.controller.name

    def load_signal(self) -> LoadSignal:
        """Snapshot this replica's load for the speculation controller.

        Every field is a statistic the engine already maintains for
        scheduling and routing: live queue depth vs batch capacity, the
        decode-token backlog, the observed per-token service estimate
        (:meth:`_service_estimate_s`), mean deadline slack of live
        deadline-carrying requests at that service rate, paged-KV pool
        occupancy, and the ledger-observed layers per token.
        """
        live = self.running + self.preempted
        slacks = []
        for slot in live:
            if slot.request.deadline_s is None:
                continue
            remaining = slot.request.max_new_tokens - len(slot.result.tokens)
            slacks.append(slot.request.deadline_s
                          - (self.now_s + remaining * self._service_s))
        return LoadSignal(
            now_s=self.now_s,
            queue_depth=len(self.waiting) + len(live),
            batch_capacity=self.policy.batch_capacity,
            backlog_tokens=self.backlog_tokens(),
            per_token_s=self._service_s,
            mean_slack_s=float(np.mean(slacks)) if slacks else float("inf"),
            kv_pressure=self.cache.blocks_in_use() / max(1, self.policy.n_blocks),
            layers_per_token=self.observed_layers_per_token(),
        )

    def backlog_tokens(self) -> int:
        """Decode tokens still owed to every pending/waiting/live request —
        the queue-depth signal routing policies balance on."""
        owed = sum(r.max_new_tokens for r in self.pending)
        owed += sum(r.max_new_tokens for r in self.waiting)
        owed += sum(s.request.max_new_tokens - len(s.result.tokens)
                    for s in self.running)
        owed += sum(s.request.max_new_tokens - len(s.result.tokens)
                    for s in self.preempted)
        return owed

    def kv_load_blocks(self) -> int:
        """Paged-KV pressure: blocks in use plus the worst-case block need of
        every request queued ahead of admission."""
        queued = sum(self.policy.blocks_needed(r)
                     for r in self.pending + self.waiting)
        return self.cache.blocks_in_use() + queued

    def observed_layers_per_token(self) -> float:
        """Mean executed decoder layers per generated token so far this run
        (full depth until the first token lands) — the ledger-observed
        early-exit statistic ``exit_aware`` routing weighs replicas by."""
        ledger = self.report.serving_ledger
        if ledger.tokens_generated == 0:
            return float(self.engine.model.n_layers)
        return ledger.units(Event.BATCH_DECODER_LAYER) / ledger.tokens_generated
