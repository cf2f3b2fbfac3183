"""Event rewriting for sharded execution of a serving tick.

Sharding never changes *what* work a tick does — it changes how the work is
cut across devices, which the ledger must record so the cluster model can
price it:

* **Micro-batched layer executions.**  Under pipeline parallelism a tick's
  batch is split into ``m`` micro-batches; a decoder layer with full batch
  ``b`` therefore executes ``min(m, b)`` times at ``b / m`` tokens each
  instead of once at ``b``.  The recorded units are unchanged (total layer
  tokens are conserved — the serving invariant ``sum(units) ==
  per-sequence layer calls`` survives sharding), only the call granularity
  grows, which is exactly the extra weight re-reads micro-batching costs.
* **All-reduces.**  Tensor parallelism synchronises twice per layer
  execution (after attention and after the FFN), so every sharded layer
  call emits two ``ALLREDUCE`` events whose units carry the token payload.
* **Pipeline bubbles.**  Each tick's pipeline fills and drains once:
  ``(pp - 1) * ceil(L_exec / pp)`` idle layer-slots, where ``L_exec`` is the
  deepest layer the tick executed.  Units carry the average micro-batch so
  the bubble prices as the layer time the idle stage failed to overlap.
  Prefill work runs the full stack, so a tick carrying any prefill fills
  and drains all ``L`` layers, sized by its prefill plus decode
  layer-tokens: :func:`record_tick_bubble`, called once per tick by the
  serving engine, is the only definition of the bubble.
"""

from __future__ import annotations

from typing import Sequence

from repro.hardware.cluster import ClusterSpec
from repro.hardware.ledger import CostLedger, Event

__all__ = ["record_decode_batches", "record_prefill_allreduce",
           "record_tick_bubble"]


def record_decode_batches(
    tick: CostLedger, batches: Sequence[int], cluster: ClusterSpec,
) -> None:
    """Ledger one tick's shared decode-layer executions, sharded if needed.

    ``batches[l]`` is the number of sequences still alive at layer depth
    ``l`` this tick (the single-device form).  On a 1x1 cluster each entry
    becomes one ``BATCH_DECODER_LAYER`` call; under sharding each entry
    becomes ``min(m, b)`` micro-batched calls plus the tensor-parallel
    all-reduces.
    """
    if not batches:
        return
    if cluster.is_single:
        tick.add(Event.BATCH_DECODER_LAYER, calls=len(batches), units=sum(batches))
        return
    m = cluster.micro_batch_count(batches[0])
    for b in batches:
        calls = min(m, b)
        tick.add(Event.BATCH_DECODER_LAYER, calls=calls, units=b)
        if cluster.tp > 1:
            tick.add(Event.ALLREDUCE, calls=2 * calls, units=2 * b)


def record_prefill_allreduce(
    tick: CostLedger, layer_calls: float, layer_tokens: float,
    cluster: ClusterSpec,
) -> None:
    """Add the TP collectives for ``layer_calls`` prefill-layer executions
    that together processed ``layer_tokens`` layer-tokens."""
    if cluster.tp <= 1 or layer_calls <= 0:
        return
    tick.add(Event.ALLREDUCE, calls=2 * layer_calls, units=2 * layer_tokens)


def record_tick_bubble(
    tick: CostLedger, deepest_layer: int, layer_tokens: float,
    batch: int, cluster: ClusterSpec,
) -> None:
    """Add one tick's pipeline fill/drain bubble.

    ``deepest_layer`` is the deepest decoder/prefill layer the tick
    executed, ``layer_tokens`` the tick's total layer-tokens (used to size
    the average micro-batch a bubble slot fails to overlap), ``batch`` the
    tick's sequence count (bounds the micro-batch split).
    """
    if cluster.pp <= 1 or deepest_layer <= 0:
        return
    slots = (cluster.pp - 1) * -(-deepest_layer // cluster.pp)
    m = cluster.micro_batch_count(max(batch, 1))
    avg_micro_batch = layer_tokens / deepest_layer / m
    tick.add(Event.PIPELINE_BUBBLE, calls=slots, units=slots * avg_micro_batch)
