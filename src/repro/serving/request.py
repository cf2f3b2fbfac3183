"""Serving requests and the KV admission policy.

A :class:`Request` is one user generation job.  :class:`AdmissionPolicy`
sizes a request against the paged-KV pool: it is the single source of truth
for oversize rejection, and its vLLM-style worst-case *reservation* is the
``admission="reserve"`` rule of the serving engine — a request is admitted
only if its worst-case block need fits in the unreserved pool, so a running
sequence can never hit ``MemoryError`` mid-decode.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

__all__ = ["Request", "AdmissionPolicy"]


@dataclass
class Request:
    """One generation job submitted to the serving engine.

    The trailing fields matter only to the async trace-driven server:
    ``arrival_s`` is when the request becomes visible (modelled seconds),
    ``slo_s`` an optional completion deadline relative to arrival, and
    ``priority`` breaks preemption/admission ties under the default
    ``fifo_priority`` scheduling policy (higher = more important; the
    lowest-priority, latest-arrived running sequence is evicted first).
    ``client_id`` identifies the issuing closed-loop client, or None for
    open-loop trace arrivals.

    Multi-turn chat traffic adds three optional identity fields:
    ``session_id`` groups the turns of one conversation (follow-up turns
    carry the same id and prompts that extend the prior context, which is
    what prefix sharing and session-affinity routing key on), ``turn`` is
    the zero-based position within that session, and ``tenant_id`` names
    the paying tenant for per-tenant fairness in the scheduler.
    """

    request_id: int
    prompt: List[int]
    max_new_tokens: int
    script: Optional[List[int]] = None
    arrival_s: float = 0.0
    slo_s: Optional[float] = None
    priority: int = 0
    client_id: Optional[int] = None
    session_id: Optional[int] = None
    turn: int = 0
    tenant_id: Optional[int] = None

    def __post_init__(self) -> None:
        """Normalise token lists and validate budgets/timestamps."""
        self.prompt = [int(t) for t in self.prompt]
        if not self.prompt:
            raise ValueError("request prompt must contain at least one token")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")
        if self.script is not None:
            self.script = [int(t) for t in self.script]
        if self.arrival_s < 0:
            raise ValueError("arrival_s must be >= 0")
        if self.slo_s is not None and self.slo_s <= 0:
            raise ValueError("slo_s must be positive when set")
        if self.turn < 0:
            raise ValueError("turn must be >= 0")

    @property
    def deadline_s(self) -> Optional[float]:
        """Absolute completion deadline, or None without an SLO."""
        if self.slo_s is None:
            return None
        return self.arrival_s + self.slo_s


@dataclass
class AdmissionPolicy:
    """Worst-case KV reservation over a fixed block pool.

    ``blocks_needed`` is the ceiling of the request's decode-token budget over
    the block size (the paged cache stores one KV entry per *generated*
    token; prompt prefill is priced by the ledger, not paged).  With
    ``prefix_share`` enabled, prompts *are* paged so the worst case covers
    prompt plus decode blocks — the worst case assumes no prefix hit, which
    is what makes reserve admission safe even on a cold radix tree.  A
    request is admissible iff the batch has a free slot and the pool's
    unreserved blocks cover that worst case.
    """

    n_blocks: int
    block_size: int
    batch_capacity: int
    prefix_share: bool = False

    def __post_init__(self) -> None:
        """Validate pool geometry and batch capacity."""
        if self.n_blocks < 1:
            raise ValueError("n_blocks must be >= 1")
        if self.block_size < 1:
            raise ValueError("block_size must be >= 1")
        if self.batch_capacity < 1:
            raise ValueError("batch_capacity must be >= 1")

    def blocks_needed(self, request: Request) -> int:
        """Worst-case paged-KV blocks ``request`` can consume — decode only,
        plus the full (hit-free) prompt when prefix sharing pages prompts."""
        tokens = request.max_new_tokens
        if self.prefix_share:
            tokens += len(request.prompt)
        return -(-tokens // self.block_size)

    def oversize_reason(self, request: Request) -> Optional[str]:
        """Why ``request`` could never fit even in an empty pool, or None.
        The single source of truth for pool-oversize rejection —
        :meth:`admissible` and ``AsyncServingEngine.oversize_reason`` (which
        the engine's arrival-time rejections and the router's go through,
        and which checks the backend's context limit first) phrase it from
        this."""
        need = self.blocks_needed(request)
        if need <= self.n_blocks:
            return None
        tokens = request.max_new_tokens + (
            len(request.prompt) if self.prefix_share else 0)
        return (
            f"needs {need} KV blocks ({tokens} tokens @ "
            f"block_size={self.block_size}) but the pool only has {self.n_blocks}"
        )

    def admissible(self, request: Request, reserved_blocks: int, running: int) -> bool:
        """Whether ``request`` may join a batch of ``running`` sequences that
        have ``reserved_blocks`` blocks spoken for.  Raises ``MemoryError``
        for a request that could never fit even in an empty pool."""
        need = self.blocks_needed(request)
        reason = self.oversize_reason(request)
        if reason:
            raise MemoryError(f"request {request.request_id} {reason}")
        if running >= self.batch_capacity:
            return False
        return reserved_blocks + need <= self.n_blocks
