"""Multi-device sharded serving: cluster topology and event rewriting.

A device is the 1x1 cluster, so the topology (:class:`ClusterSpec`, its
links) sits beside :class:`~repro.hardware.devices.DeviceSpec` in
:mod:`repro.hardware.cluster` and is re-exported here, and the cluster
roofline (tensor-parallel layer shards plus ``ALLREDUCE`` collectives,
pipeline-stage concurrency plus ``PIPELINE_BUBBLE`` idleness) is
:class:`~repro.hardware.latency.LatencyModel`'s own.  What this package adds
is :mod:`~repro.distributed.sharding`, which rewrites serving-tick events
into their sharded form.  The paged KV pool needs no sharded form: pipeline
stages see identical append/free traffic, so one
:class:`~repro.serving.paged_kv.PagedKVCache` of ``kv_blocks`` blocks *is*
every stage device's pool and ``pp`` enters only through pricing.  Sharded
decoding is token-identical to single-device decoding — sharding
repartitions cost, never tokens.
"""

from repro.distributed.sharding import (
    record_decode_batches,
    record_prefill_allreduce,
    record_tick_bubble,
)
from repro.hardware.cluster import (
    LINKS,
    ClusterSpec,
    LinkSpec,
    get_link,
    make_cluster,
)

__all__ = [
    "LINKS",
    "ClusterSpec",
    "LinkSpec",
    "get_link",
    "make_cluster",
    "record_decode_batches",
    "record_prefill_allreduce",
    "record_tick_bubble",
]
