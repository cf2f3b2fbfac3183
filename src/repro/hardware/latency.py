"""Roofline latency model: prices a cost ledger for (model, cluster, framework).

Single-stream LLM decoding is memory-bound: a decoder layer's latency is its
weight (+KV) traffic over achieved bandwidth, floored by its FLOPs over
achieved compute, plus dispatch overhead.  Batched tree verification shares
the weight traffic across tree tokens and pays a per-token FLOP increment.
The draft model is priced like ~2 decoder layers of traffic (the paper notes
the speculative model costs about one executed layer per token; EAGLE's head
is 0.9-1.4 GB, Fig. 17).

The machine is a ``tp x pp`` :class:`~repro.hardware.cluster.ClusterSpec`; a
single device is the 1x1 case, where every term below divides by one:

* **Tensor parallelism** — each decoder/prefill layer's weight traffic and
  FLOPs are divided ``tp`` ways (Megatron-style column/row sharding), so
  :meth:`LatencyModel.decoder_layer_time` / ``prefill_layer_time`` price the
  *per-shard* layer.  The synchronisation this implies is not free: the
  engines emit two ``ALLREDUCE`` events per sharded layer execution, priced
  as a ring all-reduce over the ``tp_link``.
* **Pipeline parallelism** — layers are distributed over ``pp`` stages that
  work concurrently in steady state, so the summed layer-event time divides
  by ``pp``; the fill/drain idleness that concurrency costs is priced
  explicitly from the ``PIPELINE_BUBBLE`` events the engines emit (idle
  stage-slots whose units carry the micro-batch size).
* **Preemption** — a sequence's paged KV is owned per-stage, so swap traffic
  moves ``1/pp`` of the bytes per owning device concurrently, and recompute
  re-runs a prefill that itself pipelines over the stages.

Everything else (LM head, predictor, draft, retrieval) stays replicated on a
single device — those paths are host-loop-bound trinkets next to the layer
stack, and sharding them would only add collectives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.config import ModelSpec
from repro.hardware.cluster import ClusterSpec, make_cluster
from repro.hardware.devices import DeviceSpec, get_device
from repro.hardware.frameworks import FrameworkProfile, get_framework
from repro.hardware.ledger import CostLedger, Event

__all__ = ["LatencyBreakdown", "LatencyModel", "DRAFT_LAYER_EQUIVALENT"]

# EAGLE-style draft heads weigh about this many target-model decoder layers
# (0.9 GB for Llama2-7B => ~2.2 fp16 layers — Fig. 17).
DRAFT_LAYER_EQUIVALENT = 2.2


@dataclass
class LatencyBreakdown:
    """Priced ledger: total seconds, per-event seconds, tokens/s."""

    total_s: float
    per_event_s: Dict[str, float] = field(default_factory=dict)
    tokens_generated: int = 0

    @property
    def tokens_per_second(self) -> float:
        """Generated tokens over total seconds."""
        if self.total_s <= 0:
            return float("nan")
        return self.tokens_generated / self.total_s

    @property
    def seconds_per_token(self) -> float:
        """Total seconds over generated tokens."""
        if self.tokens_generated == 0:
            return float("nan")
        return self.total_s / self.tokens_generated

    def share(self, kind: str) -> float:
        """Fraction of total time spent in ``kind``."""
        if self.total_s <= 0:
            return float("nan")
        return self.per_event_s.get(kind, 0.0) / self.total_s


class LatencyModel:
    """Prices cost events using real model dimensions on a device profile."""

    def __init__(
        self,
        model: ModelSpec,
        device: DeviceSpec | str,
        framework: FrameworkProfile | str,
        cpu_device: DeviceSpec | str | None = None,
        cluster: ClusterSpec | None = None,
    ):
        """Build the model for ``cluster`` (default: one ``device``).

        Fails fast when the pipeline has more stages than the model has
        decoder layers — a stage with no layers would otherwise keep
        inflating the modelled stage concurrency.
        """
        self.model = model
        self.device = get_device(device) if isinstance(device, str) else device
        self.cluster = make_cluster(self.device) if cluster is None else cluster
        if self.cluster.device != self.device:
            raise ValueError(
                f"cluster is built from {self.cluster.device.name!r}, "
                f"not device {self.device.name!r}")
        self.cluster.stage_layers(model.n_layers)  # raises if pp > n_layers
        self.framework = get_framework(framework) if isinstance(framework, str) else framework
        if cpu_device is None:
            cpu = None
        else:
            cpu = get_device(cpu_device) if isinstance(cpu_device, str) else cpu_device
        if self.framework.gpu_weight_fraction < 1.0 and cpu is None:
            raise ValueError(
                f"framework {self.framework.name!r} offloads weights to the CPU; "
                "a cpu_device is required"
            )
        self.cpu = cpu

    # -- primitive op times ---------------------------------------------------
    def layer_weight_bytes(self) -> float:
        """Weight bytes of one whole (unsharded) decoder layer."""
        return self.model.layer_params * self.framework.weight_bytes_per_param

    def layer_flops(self, batch: float = 1.0) -> float:
        """FLOPs of one whole decoder layer over ``batch`` tokens."""
        return 2.0 * self.model.layer_params * batch

    def decoder_layer_time(self, batch: float = 1.0) -> float:
        """One tensor-parallel *shard* of a decoder layer over ``batch`` tokens.

        Weight traffic and FLOPs divide ``tp``; dispatch overhead does not
        (every shard launches its own kernels).
        """
        fw, dev, tp = self.framework, self.device, self.cluster.tp
        gpu_bytes = self.layer_weight_bytes() * fw.gpu_weight_fraction / tp
        mem_t = gpu_bytes / (dev.bytes_per_second * fw.bw_efficiency)
        if self.cpu is not None and fw.gpu_weight_fraction < 1.0:
            cpu_bytes = self.layer_weight_bytes() * (1.0 - fw.gpu_weight_fraction) / tp
            mem_t += cpu_bytes / (self.cpu.bytes_per_second * fw.cpu_bw_efficiency)
        # Batched verify tokens share weight traffic; FLOPs scale with batch.
        flop_t = self.layer_flops(batch) / tp / (dev.flops_per_second * fw.flop_efficiency)
        extra = (batch - 1.0) * self.framework.batch_flop_share * mem_t
        return max(mem_t + extra, flop_t) + fw.layer_overhead_us * 1e-6

    def prefill_layer_time(self, tokens: float) -> float:
        """One tensor-parallel shard of a prefill layer over a
        ``tokens``-long prompt (compute-bound)."""
        fw, dev, tp = self.framework, self.device, self.cluster.tp
        flop_t = self.layer_flops(tokens) / tp / (dev.flops_per_second * fw.flop_efficiency)
        mem_t = self.layer_weight_bytes() / tp / (dev.bytes_per_second * fw.bw_efficiency)
        return max(flop_t, mem_t) + fw.layer_overhead_us * 1e-6

    def lm_head_time(self, columns: Optional[int] = None) -> float:
        """Full (or ``columns``-sliced) LM-head projection for one token."""
        fw, dev = self.framework, self.device
        cols = self.model.vocab_size if columns is None else columns
        bytes_ = self.model.hidden_dim * cols * fw.weight_bytes_per_param
        mem_t = bytes_ / (dev.bytes_per_second * fw.bw_efficiency)
        return mem_t + dev.kernel_overhead_us * 1e-6

    def predictor_time(self, feature_dim: int = 12, hidden: int = 512) -> float:
        """The lightweight predictor step: slice-feature assembly (softmax,
        deltas, concat) plus two tiny GEMVs and a sigmoid — ~6 kernel
        launches driven from the host loop, i.e. launch-bound, not
        FLOP-bound (the paper's 0.0009 s/token at ~10 evals)."""
        dev = self.device
        bytes_ = (feature_dim * hidden + hidden) * 2.0
        mem_t = bytes_ / dev.bytes_per_second
        dispatch = 6 * dev.kernel_overhead_us * 1e-6 + 30e-6
        return mem_t + dispatch

    def draft_step_time(self) -> float:
        """One autoregressive step of the EAGLE-style draft head."""
        fw, dev = self.framework, self.device
        bytes_ = DRAFT_LAYER_EQUIVALENT * self.model.layer_params * 2.0  # fp16 draft
        mem_t = bytes_ / (dev.bytes_per_second * fw.draft_efficiency)
        return mem_t + 3 * dev.kernel_overhead_us * 1e-6

    def retrieval_time(self, entries: float) -> float:
        """Brute-force kNN over the RAEE database (hidden-dim fp16 keys)."""
        dev = self.device
        bytes_ = entries * self.model.hidden_dim * 2.0
        return bytes_ / dev.bytes_per_second + dev.kernel_overhead_us * 1e-6

    def full_depth_token_time(self) -> float:
        """Ideal single-stream decode time for one token at full depth — the
        service-time unit SLO deadlines are scaled from (workload generation
        and the serve CLI must agree on this definition)."""
        return self.model.n_layers * self.decoder_layer_time(1.0)

    def kv_swap_time(self, tokens: float) -> float:
        """Moving ``tokens`` worth of paged KV across the host link, one way.

        Swap traffic is the *real* model's cache — every layer's K and V for
        each token (fp16, independent of the weight dtype) — DMA'd over PCIe,
        each of the ``pp`` stage devices moving its own ``1/pp`` share
        concurrently over its host link.
        This is what preemption-by-swap costs; preemption-by-recompute pays
        :meth:`prefill_layer_time` over the context instead.
        """
        bytes_ = tokens / self.cluster.pp * 2.0 * self.model.n_layers * self.model.kv_heads * self.model.head_dim * 2.0
        return bytes_ / self.device.pcie_bytes_per_second + self.device.kernel_overhead_us * 1e-6

    def preempt_costs(self, tokens: float, context_tokens: float) -> Dict[str, float]:
        """Modelled cost of evicting a ``tokens``-long paged sequence whose
        full context is ``context_tokens``: swap pays the link twice (out now,
        in at resume); recompute pays a prefill pass over the context, which
        pipelines over the ``pp`` stages."""
        recompute = (self.model.n_layers
                     * self.prefill_layer_time(max(context_tokens, 1.0))
                     / self.cluster.pp)
        return {"swap": 2.0 * self.kv_swap_time(tokens), "recompute": recompute}

    def prefix_reuse_time(self, tokens: float) -> float:
        """Adopting ``tokens`` of already-resident shared-prefix KV.

        Reuse is metadata work — a radix-tree walk plus refcount bumps on
        the matched blocks — so it prices as one kernel-overhead dispatch
        plus a tiny host-side per-block term.  The point of the event is
        the prefill work it *replaces*: a matched token skips its
        :meth:`prefill_layer_time` share entirely.
        """
        blocks = tokens / 16.0  # host bookkeeping scales with blocks touched
        return self.device.kernel_overhead_us * 1e-6 + blocks * 1e-6

    def kv_fill_time(self, layers: float) -> float:
        """KV propagation for skipped layers: 2 projections per layer."""
        fw, dev = self.framework, self.device
        kv_dim = self.model.kv_heads * self.model.head_dim
        bytes_ = layers * 2.0 * self.model.hidden_dim * kv_dim * fw.weight_bytes_per_param
        return bytes_ / (dev.bytes_per_second * fw.bw_efficiency) + dev.kernel_overhead_us * 1e-6

    def feature_stats_time(self) -> float:
        """AdaInfer's full-vocabulary feature pass (top-prob, gap, entropy).

        In the reference implementation this is a host-driven sequence of
        softmax/sort/reduce calls over the 32K-vocabulary logits at *every*
        layer — the "heavy prediction" cost of Table 1 — so a host-dispatch
        term dominates the byte traffic."""
        dev = self.device
        bytes_ = self.model.vocab_size * 4.0 * 3  # read logits, write probs, reduce
        host = 250e-6  # python-side statistics over the full vocabulary
        return bytes_ / dev.bytes_per_second + host + 4 * dev.kernel_overhead_us * 1e-6

    def grouped_gemm_time(self, tokens: float, k: int = 4) -> float:
        """Block-wise grouped GEMM for tree features (one fused launch)."""
        dev = self.device
        bytes_ = tokens * self.model.hidden_dim * k * 2.0
        return bytes_ / (dev.bytes_per_second * self.framework.bw_efficiency) + dev.kernel_overhead_us * 1e-6

    # -- collective and bubble pricing ---------------------------------------
    def allreduce_time(self, tokens: float) -> float:
        """Ring all-reduce of a ``tokens x hidden_dim`` fp16 activation over
        the TP group: ``2(tp-1)/tp`` of the payload crosses the ``tp_link``,
        plus ``2(tp-1)`` hop latencies (reduce-scatter then all-gather) —
        zero at ``tp=1``."""
        tp, link = self.cluster.tp, self.cluster.tp_link
        payload = tokens * self.model.hidden_dim * 2.0  # fp16 activations
        wire = 2.0 * (tp - 1) / tp * payload / link.bytes_per_second
        hops = 2.0 * (tp - 1) * link.latency_us * 1e-6
        return wire + hops

    def bubble_slot_time(self, micro_batch_tokens: float) -> float:
        """One idle pipeline layer-slot: the sharded layer time a waiting
        stage fails to overlap, plus the micro-batch hand-off across the
        ``pp_link`` (activation payload + one hop latency)."""
        link = self.cluster.pp_link
        handoff = (micro_batch_tokens * self.model.hidden_dim * 2.0
                   / link.bytes_per_second + link.latency_us * 1e-6)
        return self.decoder_layer_time(micro_batch_tokens) + handoff

    # -- ledger pricing ---------------------------------------------------------
    def price(self, ledger: CostLedger) -> LatencyBreakdown:
        """Total latency of every event recorded in ``ledger``.

        The layer primitives are already tp-sharded; on top of that the
        summed time of each layer-stack event (prefill, decode, batched
        decode, tree verify) divides by ``pp`` (stages overlap in steady
        state; bubbles are separate), ``ALLREDUCE`` calls price at
        :meth:`allreduce_time` of their average token payload and
        ``PIPELINE_BUBBLE`` slots at :meth:`bubble_slot_time` of their
        average micro-batch.  A collective on ``tp=1`` or a bubble on
        ``pp=1`` is refused, so such an event is never silently dropped.
        """
        e = Event
        calls, units = ledger.calls, ledger.units
        tp, pp = self.cluster.tp, self.cluster.pp
        per: Dict[str, float] = {}

        def put(kind: str, seconds: float) -> None:
            if seconds > 0:
                per[kind] = per.get(kind, 0.0) + seconds

        if calls(e.PREFILL_LAYER):
            avg_tokens = units(e.PREFILL_LAYER) / calls(e.PREFILL_LAYER)
            put(e.PREFILL_LAYER,
                calls(e.PREFILL_LAYER) * self.prefill_layer_time(avg_tokens) / pp)
        put(e.DECODER_LAYER, calls(e.DECODER_LAYER) * self.decoder_layer_time(1.0) / pp)
        if calls(e.TREE_VERIFY_LAYER):
            avg_batch = units(e.TREE_VERIFY_LAYER) / calls(e.TREE_VERIFY_LAYER)
            put(e.TREE_VERIFY_LAYER,
                calls(e.TREE_VERIFY_LAYER) * self.decoder_layer_time(avg_batch) / pp)
        if calls(e.BATCH_DECODER_LAYER):
            # Continuous-batching decode: one weight pass serves every
            # sequence still alive at that depth (units = batched tokens).
            avg_batch = units(e.BATCH_DECODER_LAYER) / calls(e.BATCH_DECODER_LAYER)
            put(e.BATCH_DECODER_LAYER,
                calls(e.BATCH_DECODER_LAYER) * self.decoder_layer_time(avg_batch) / pp)
        put(e.LM_HEAD_FULL, calls(e.LM_HEAD_FULL) * self.lm_head_time())
        if calls(e.LM_HEAD_SLICE):
            avg_cols = units(e.LM_HEAD_SLICE) / calls(e.LM_HEAD_SLICE)
            put(e.LM_HEAD_SLICE, calls(e.LM_HEAD_SLICE) * self.lm_head_time(int(avg_cols)))
        put(e.PREDICTOR, calls(e.PREDICTOR) * self.predictor_time())
        put(e.SVM_PREDICT, calls(e.SVM_PREDICT) * (self.predictor_time(feature_dim=3, hidden=1) + 120e-6))
        put(e.FEATURE_STATS, calls(e.FEATURE_STATS) * self.feature_stats_time())
        put(e.DRAFT_STEP, calls(e.DRAFT_STEP) * self.draft_step_time())
        if calls(e.RETRIEVAL):
            avg_entries = units(e.RETRIEVAL) / calls(e.RETRIEVAL)
            put(e.RETRIEVAL, calls(e.RETRIEVAL) * self.retrieval_time(avg_entries))
        if calls(e.KV_FILL):
            put(e.KV_FILL, self.kv_fill_time(units(e.KV_FILL)))
        if calls(e.KV_SWAP):
            put(e.KV_SWAP, self.kv_swap_time(units(e.KV_SWAP)))
        if calls(e.PREFIX_REUSE):
            put(e.PREFIX_REUSE, self.prefix_reuse_time(units(e.PREFIX_REUSE)))
        if calls(e.TREE_FEATURE_GEMM):
            avg_tokens = units(e.TREE_FEATURE_GEMM) / calls(e.TREE_FEATURE_GEMM)
            put(e.TREE_FEATURE_GEMM,
                calls(e.TREE_FEATURE_GEMM) * self.grouped_gemm_time(avg_tokens))
        for kind, degree, slot_time in (
                (e.ALLREDUCE, tp, self.allreduce_time),
                (e.PIPELINE_BUBBLE, pp, self.bubble_slot_time)):
            if calls(kind):
                if degree == 1:
                    raise ValueError(
                        f"ledger contains cluster-only event {kind!r}, which "
                        f"a tp={tp} pp={pp} cluster cannot emit")
                put(kind, calls(kind) * slot_time(units(kind) / calls(kind)))
        # Host-loop overhead accrues per decode step — once per token in
        # autoregressive mode, once per verify iteration in tree mode.
        steps = ledger.steps if ledger.steps else ledger.tokens_generated
        total = sum(per.values()) + steps * self.framework.token_overhead_us * 1e-6
        return LatencyBreakdown(
            total_s=total, per_event_s=per, tokens_generated=ledger.tokens_generated
        )
