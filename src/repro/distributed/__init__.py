"""Multi-device sharded serving: cluster topology and pricing.

``repro.distributed`` grows the single-``DeviceSpec`` roofline/ledger model
into a cluster model.  :class:`ClusterSpec` describes ``tp x pp`` devices
and their interconnect links; :class:`ClusterLatencyModel` prices sharded
ledgers (tensor-parallel layer shards plus ``ALLREDUCE`` collectives,
pipeline-stage concurrency plus ``PIPELINE_BUBBLE`` idleness);
:mod:`~repro.distributed.sharding` rewrites serving-tick events into their
sharded form.  The paged KV pool needs no sharded form: pipeline stages see
identical append/free traffic, so one
:class:`~repro.serving.paged_kv.PagedKVCache` of ``kv_blocks`` blocks *is*
every stage device's pool and ``pp`` enters only through pricing.  Sharded
decoding is token-identical to single-device decoding — sharding
repartitions cost, never tokens.
"""

from repro.distributed.cluster import (
    LINKS,
    ClusterSpec,
    LinkSpec,
    get_link,
    make_cluster,
    make_replica_clusters,
)
from repro.distributed.latency import PIPELINED_EVENTS, ClusterLatencyModel
from repro.distributed.sharding import (
    record_decode_batches,
    record_prefill_allreduce,
    record_tick_bubble,
)

__all__ = [
    "LINKS",
    "PIPELINED_EVENTS",
    "ClusterLatencyModel",
    "ClusterSpec",
    "LinkSpec",
    "get_link",
    "make_cluster",
    "make_replica_clusters",
    "record_decode_batches",
    "record_prefill_allreduce",
    "record_tick_bubble",
]
