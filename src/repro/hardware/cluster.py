"""Cluster topology: devices, interconnect links, and parallel layout.

A :class:`ClusterSpec` models a datacenter deployment of ``tp * pp``
accelerators: tensor-parallel groups of ``tp`` devices joined by a fast
intra-node link (NVLink-class), arranged into ``pp`` pipeline stages joined
by a slower inter-node link (PCIe-class).  One device is the 1x1 cluster.
The spec is pure topology — the pricing of sharded work lives in
:class:`~repro.hardware.latency.LatencyModel`, and the event rewriting that
sharding implies lives in :mod:`repro.distributed.sharding`.

The layout convention mirrors Megatron-LM: tensor parallelism is kept inside
the fastest link domain because it synchronises twice per decoder layer,
while pipeline parallelism crosses the slow domain because it only hands an
activation batch between neighbouring stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hardware.devices import DeviceSpec, get_device

__all__ = ["LinkSpec", "LINKS", "get_link", "ClusterSpec", "make_cluster"]


@dataclass(frozen=True)
class LinkSpec:
    """One interconnect class: achievable bandwidth plus per-hop latency."""

    name: str
    bw_gbps: float      # achievable point-to-point bandwidth, GB/s
    latency_us: float   # per-hop launch + wire latency

    def __post_init__(self) -> None:
        """Reject non-physical link parameters."""
        if self.bw_gbps <= 0:
            raise ValueError("link bw_gbps must be positive")
        if self.latency_us < 0:
            raise ValueError("link latency_us must be non-negative")

    @property
    def bytes_per_second(self) -> float:
        """Link bandwidth in bytes/s."""
        return self.bw_gbps * 1e9


LINKS: Dict[str, LinkSpec] = {
    # NVLink-class intra-node fabric (NVLink3-era achievable point-to-point).
    "nvlink": LinkSpec(name="nvlink", bw_gbps=300.0, latency_us=3.0),
    # PCIe-class inter-node path (gen4 x16 achievable, plus NIC/switch hop).
    "pcie4": LinkSpec(name="pcie4", bw_gbps=25.0, latency_us=10.0),
}


def get_link(name: str) -> LinkSpec:
    """Look up a registered :class:`LinkSpec` by name."""
    try:
        return LINKS[name]
    except KeyError:
        known = ", ".join(sorted(LINKS))
        raise KeyError(f"unknown link {name!r}; known: {known}") from None


@dataclass(frozen=True)
class ClusterSpec:
    """``tp * pp`` devices plus the links that join them.

    ``devices`` is ordered stage-major: entries ``[s*tp : (s+1)*tp]`` form
    pipeline stage ``s``'s tensor-parallel group.  ``tp_link`` joins devices
    inside a TP group (crossed twice per decoder layer by all-reduce);
    ``pp_link`` joins neighbouring stages (crossed once per micro-batch per
    stage boundary).  ``micro_batches`` is how many micro-batches a serving
    tick is split into under pipeline parallelism (default: ``pp``, the
    minimum that keeps every stage busy in steady state).
    """

    devices: Tuple[DeviceSpec, ...]
    tp: int = 1
    pp: int = 1
    tp_link: LinkSpec = LINKS["nvlink"]
    pp_link: LinkSpec = LINKS["pcie4"]
    micro_batches: Optional[int] = None

    def __post_init__(self) -> None:
        """Validate degrees, device count, and homogeneity."""
        if self.tp < 1 or self.pp < 1:
            raise ValueError("tp and pp must be >= 1")
        if len(self.devices) != self.tp * self.pp:
            raise ValueError(
                f"cluster needs tp*pp = {self.tp * self.pp} devices, "
                f"got {len(self.devices)}"
            )
        kinds = {d.kind for d in self.devices}
        if len(kinds) > 1:
            raise ValueError(f"cluster devices must share a kind, got {sorted(kinds)}")
        names = {d.name for d in self.devices}
        if len(names) > 1:
            raise ValueError(
                f"heterogeneous clusters are not modelled yet, got {sorted(names)}"
            )
        if self.micro_batches is not None and self.micro_batches < self.pp:
            raise ValueError(
                f"micro_batches={self.micro_batches} must be >= pp={self.pp} "
                "(fewer cannot fill the pipeline)"
            )

    # -- derived topology -----------------------------------------------------
    @property
    def world_size(self) -> int:
        """Total number of devices in the cluster."""
        return self.tp * self.pp

    @property
    def device(self) -> DeviceSpec:
        """The representative device (clusters are homogeneous)."""
        return self.devices[0]

    @property
    def is_single(self) -> bool:
        """True for the degenerate 1x1 cluster (single-device semantics)."""
        return self.tp == 1 and self.pp == 1

    def stage_devices(self, stage: int) -> Tuple[DeviceSpec, ...]:
        """The tensor-parallel device group of pipeline stage ``stage``."""
        if not 0 <= stage < self.pp:
            raise IndexError(f"stage {stage} out of range [0, {self.pp})")
        return self.devices[stage * self.tp:(stage + 1) * self.tp]

    def stage_layers(self, n_layers: int) -> List[range]:
        """Contiguous decoder-layer ranges, one per pipeline stage.

        Remainder layers go to the earliest stages so no stage ever trails
        another by more than one layer (balanced stage time, smallest bubble).
        """
        if n_layers < self.pp:
            raise ValueError(f"cannot split {n_layers} layers over pp={self.pp} stages")
        base, extra = divmod(n_layers, self.pp)
        ranges, start = [], 0
        for stage in range(self.pp):
            size = base + (1 if stage < extra else 0)
            ranges.append(range(start, start + size))
            start += size
        return ranges

    def layers_per_stage(self, n_layers: int) -> int:
        """Largest per-stage layer count — the stage time the bubble scales with."""
        return -(-n_layers // self.pp)

    def micro_batch_count(self, batch: int) -> int:
        """Micro-batches a ``batch``-sequence tick splits into (>=1, <=batch)."""
        if batch < 1:
            return 1
        target = self.micro_batches if self.micro_batches is not None else self.pp
        return max(1, min(target, batch))


def make_cluster(
    device: DeviceSpec | str = "a100-80g",
    tp: int = 1,
    pp: int = 1,
    tp_link: LinkSpec | str = "nvlink",
    pp_link: LinkSpec | str = "pcie4",
    micro_batches: Optional[int] = None,
) -> ClusterSpec:
    """Build a homogeneous ``tp x pp`` cluster of ``device`` accelerators.

    The common entry point for the CLI and benchmarks: ``make_cluster(
    "a100-80g", tp=2, pp=2)`` is a two-stage pipeline of two-way
    tensor-parallel A100 pairs, NVLink inside each pair, PCIe between stages.
    """
    spec = get_device(device) if isinstance(device, str) else device
    tpl = get_link(tp_link) if isinstance(tp_link, str) else tp_link
    ppl = get_link(pp_link) if isinstance(pp_link, str) else pp_link
    return ClusterSpec(
        devices=tuple(spec for _ in range(tp * pp)), tp=tp, pp=pp,
        tp_link=tpl, pp_link=ppl, micro_batches=micro_batches,
    )

