"""Which public calls are traced, and the per-layer metrics derived from them.

A layer is a module of ``src/repro``.  Metric names are fixed here and in
``BENCHMARK.json``; ``*_self_s`` metrics are span *self* time (duration minus
the part covered by child spans), every other ``_s`` metric is the span's
inclusive time, counts repeat exactly from run to run, and
``nn.layers.gemm_flops`` / ``gemm_bytes`` are computed from shapes and dtype
item size, not measured.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.engine import SpecEEEngine
from repro.core.predictor import PredictorBank
from repro.hardware.latency import LatencyModel
from repro.model.draft import Speculator
from repro.model.transformer_backend import TransformerLayeredLM
from repro.nn.attention import CausalSelfAttention
from repro.nn.layers import Linear, SwiGLU
from repro.serving import AsyncServingEngine, PagedKVCache, ServingRouter
from repro.training import DistilledNGramDraft

from shim import SpanRecorder, Target
from workloads import PassResult

__all__ = ["LEDGER_KINDS", "TARGETS", "per_layer_metrics"]


def _bump(counters: Dict[str, float], key: str, amount: float) -> None:
    counters[key] = counters.get(key, 0.0) + amount


def _count_prefill(counters, args, _result) -> None:
    _bump(counters, "model.prefill_tokens", len(args[1]))


def _count_layer_rows(rows_of):
    def count(counters, args, _result) -> None:
        _bump(counters, "model.decoder_layer_rows", rows_of(args))
    return count


def _count_gemm(counters, args, result) -> None:
    linear, x = args[0], args[1]
    rows = x.size // linear.in_features
    _bump(counters, "nn.layers.gemm_flops",
          2.0 * rows * linear.in_features * linear.out_features)
    _bump(counters, "nn.layers.gemm_bytes",
          linear.weight.data.nbytes + x.nbytes + result.nbytes)


def _count_append(counters, _args, _result) -> None:
    _bump(counters, "serving.paged_kv.appends", 1)


_LM = TransformerLayeredLM
TARGETS: List[Target] = [
    Target(SpecEEEngine, "step", "core.engine"),
    Target(SpecEEEngine, "step_batch", "core.engine"),
    Target(PredictorBank, "probability", "core.predictor"),
    Target(PredictorBank, "probability_batch", "core.predictor"),
    Target(Speculator, "propose", "model.draft"),
    Target(DistilledNGramDraft, "propose", "model.draft"),
    Target(_LM, "start", "model.prefill", _count_prefill),
    Target(_LM, "layer_forward", "model.decoder_layer",
           _count_layer_rows(lambda args: 1)),
    Target(_LM, "layer_forward_batch", "model.decoder_layer",
           _count_layer_rows(lambda args: len(args[1]))),
    Target(_LM, "lm_head_slice", "model.lm_head_slice"),
    Target(_LM, "lm_head_slice_batch", "model.lm_head_slice"),
    Target(_LM, "lm_head_full", "model.lm_head_verify"),
    Target(_LM, "lm_head_full_batch", "model.lm_head_final"),
    Target(_LM, "commit", "model.commit_kv_fill"),
    Target(_LM, "commit_batch", "model.commit_kv_fill"),
    Target(_LM, "swap_out_state", "model.swap"),
    Target(_LM, "swap_in_state", "model.swap"),
    Target(_LM, "recompute_state", "model.recompute"),
    Target(CausalSelfAttention, "forward", "nn.attention.prefill"),
    Target(CausalSelfAttention, "decode_batch", "nn.attention.decode"),
    Target(Linear, "forward_np", "nn.layers.gemm", _count_gemm),
    Target(SwiGLU, "forward_np", "nn.layers.gemm"),
    Target(PagedKVCache, "append", "serving.paged_kv", _count_append),
    Target(PagedKVCache, "prefill_prompt", "serving.paged_kv.prefix"),
    Target(PagedKVCache, "free_sequence", "serving.paged_kv"),
    Target(PagedKVCache, "swap_out", "serving.paged_kv.swap"),
    Target(PagedKVCache, "swap_in", "serving.paged_kv.swap"),
    Target(AsyncServingEngine, "advance_tick", "serving.async_engine"),
    Target(ServingRouter, "run", "serving.router"),
    Target(LatencyModel, "price", "hardware.latency"),
]

#: Ledger kind -> the spans whose inclusive time is its wall-clock side.
LEDGER_KINDS: Dict[str, Sequence[str]] = {
    "prefill_layer": ("model.prefill", "model.recompute"),
    "decoder_layer": ("model.decoder_layer",),
    "lm_head_full": ("model.lm_head_verify", "model.lm_head_final"),
    "lm_head_slice": ("model.lm_head_slice",),
    "predictor_forward": ("core.predictor",),
    "draft_step": ("model.draft",),
    "kv_fill": ("model.commit_kv_fill",),
    "kv_swap": ("model.swap", "serving.paged_kv.swap"),
    "prefix_reuse": ("serving.paged_kv.prefix",),
}
#: Modelled-side kinds folded into one row of the table.
_MODELLED_ALIASES = {"decoder_layer": ("decoder_layer", "batch_decoder_layer")}
_PAGED_SPANS = ("serving.paged_kv", "serving.paged_kv.prefix",
                "serving.paged_kv.swap")


def _median_ms(samples: Sequence[float]) -> float:
    return float(np.median(samples)) * 1e3 if len(samples) else 0.0


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(recorder: SpanRecorder, traced: PassResult,
                      requests) -> Dict[str, float]:
    """Every per-layer metric of one traced pass, by its published name.

    A metric that does not apply to the workload (router time on a single
    engine, swap time where nothing is preempted) reads 0.
    """
    spans = recorder.summary()
    counters = recorder.counters

    def span(name: str, column: str) -> float:
        return spans.get(name, {}).get(column, 0.0)

    records = [rec for result in traced.results.values()
               for rec in result.records]
    tokens = len(records)
    exits = sum(rec.early_exit for rec in records)
    verifies = sum(rec.verify_attempts for rec in records)
    reports = traced.reports
    ticks = sum(r.n_steps for r in reports)
    occupancy = [n for r in reports for n in r.batch_occupancy]
    matched = sum(r.prefix_matched_tokens for r in reports)
    paged = sum(r.prefix_prompt_tokens for r in reports)

    out = {
        "core.engine.decide_self_s": span("core.engine", "self_s"),
        "core.engine.steps": span("core.engine", "calls"),
        "core.engine.exit_rate": _ratio(exits, tokens),
        "core.engine.avg_exit_layer": _ratio(
            sum(rec.exit_layer + 1 for rec in records), tokens),
        "core.engine.verify_success": _ratio(exits, verifies),
        "core.engine.predictor_evals_per_token": _ratio(
            sum(rec.predictor_evals for rec in records), tokens),
        "core.scheduling.active_predictors_avg": _ratio(
            sum(rec.active_predictors for rec in records), tokens),
        "core.predictor.busy_s": span("core.predictor", "total_s"),
        "core.predictor.calls": span("core.predictor", "calls"),
        "model.draft.propose_s": span("model.draft", "total_s"),
        "model.draft.calls": span("model.draft", "calls"),
        "model.draft.hit_rate": _ratio(
            sum(rec.draft_hit for rec in records), tokens),
        "model.prefill_s": span("model.prefill", "total_s"),
        "model.prefill_calls": span("model.prefill", "calls"),
        "model.prefill_tokens": counters.get("model.prefill_tokens", 0.0),
        "model.decoder_layer_s": span("model.decoder_layer", "total_s"),
        "model.decoder_layer_calls": span("model.decoder_layer", "calls"),
        "model.decoder_layer_rows": counters.get("model.decoder_layer_rows", 0.0),
        "nn.attention.decode_s": span("nn.attention.decode", "total_s"),
        "nn.attention.prefill_s": span("nn.attention.prefill", "total_s"),
        "nn.layers.gemm_s": span("nn.layers.gemm", "total_s"),
        "nn.layers.gemm_flops": counters.get("nn.layers.gemm_flops", 0.0),
        "nn.layers.gemm_bytes": counters.get("nn.layers.gemm_bytes", 0.0),
        "model.commit_kv_fill_s": span("model.commit_kv_fill", "total_s"),
        "model.commit_kv_fill_calls": span("model.commit_kv_fill", "calls"),
        "model.swap_s": span("model.swap", "total_s"),
        "model.recompute_s": span("model.recompute", "total_s"),
        "model.recompute_calls": span("model.recompute", "calls"),
        "model.kv_bytes_peak": float(traced.probe.kv_bytes_peak),
        "serving.async_engine.tick_self_s": span("serving.async_engine", "self_s"),
        "serving.async_engine.ticks": float(ticks),
        "serving.async_engine.batch_occupancy_avg": (
            float(np.mean(occupancy)) if occupancy else 0.0),
        "serving.async_engine.queue_wait_ms_p50": _median_ms(
            traced.probe.queue_wait_s()),
        "serving.async_engine.preemptions": float(sum(r.preemptions for r in reports)),
        "serving.async_engine.swaps": float(sum(r.swaps for r in reports)),
        "serving.async_engine.recomputes": float(sum(r.recomputes for r in reports)),
        "serving.async_engine.rejected": float(traced.rejected),
        "serving.paged_kv.busy_s": sum(span(n, "total_s") for n in _PAGED_SPANS),
        "serving.paged_kv.appends": counters.get("serving.paged_kv.appends", 0.0),
        "serving.paged_kv.peak_blocks": float(max(
            (r.peak_kv_blocks for r in reports), default=0)),
        "serving.paged_kv.prefix_hit_rate": _ratio(matched, paged),
        "serving.paged_kv.cow_copies": float(sum(r.cow_copies for r in reports)),
        "serving.router.self_s": span("serving.router", "self_s"),
        "serving.router.prefix_local_share": _prefix_local_share(traced, requests),
        "hardware.latency.price_s": span("hardware.latency", "total_s"),
        "hardware.latency.price_calls": span("hardware.latency", "calls"),
    }
    for head in ("slice", "verify", "final"):
        name = f"model.lm_head_{head}"
        out[f"{name}_s"] = span(name, "total_s")
        out[f"{name}_calls"] = span(name, "calls")
    out.update(_two_clocks(traced, spans))
    return out


def _prefix_local_share(traced: PassResult, requests) -> float:
    """Follow-up turns routed to the replica that served the session's
    previous turn, over all follow-up turns (0 without a router)."""
    if traced.fleet is None:
        return 0.0
    home = {(r.session_id, r.turn): traced.fleet.assignments.get(r.request_id)
            for r in requests}
    follow_ups = [r for r in requests if r.turn > 0]
    local = sum(home[(r.session_id, r.turn)] == home.get((r.session_id, r.turn - 1))
                for r in follow_ups)
    return _ratio(local, len(follow_ups))


def _two_clocks(traced: PassResult, spans) -> Dict[str, float]:
    """The ledger's priced share of each kind beside the stopwatch's."""
    priced = traced.latency.price(traced.ledger)
    wall_s = traced.probe.busy_s
    if traced.fleet is not None:
        makespan = traced.fleet.makespan_s
        ttft = [m.ttft_s for m in traced.fleet.metrics.values()]
    elif traced.reports:
        makespan = traced.reports[0].makespan_s
        ttft = [m.ttft_s for m in traced.reports[0].metrics.values()]
    else:  # batch-1 decode has no serving clock: the priced ledger is it
        makespan, ttft = priced.total_s, []
    ttft = [t for t in ttft if t is not None]
    out = {
        "modelled.tokens_per_s": _ratio(traced.tokens, makespan),
        "modelled.makespan_s": makespan,
        "modelled.ttft_ms_p50": _median_ms(ttft),
    }
    for kind, names in LEDGER_KINDS.items():
        kinds = _MODELLED_ALIASES.get(kind, (kind,))
        out[f"modelled.share.{kind}"] = sum(priced.share(k) for k in kinds)
        out[f"wall.share.{kind}"] = _ratio(
            sum(spans.get(n, {}).get("total_s", 0.0) for n in names), wall_s)
    return out
