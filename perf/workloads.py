"""Rigs, the five workloads, and one pass of each through the public API.

A *pass* serves a workload's whole request list once.  Arrivals and every
scheduling decision stay on the engine's modelled clock, so two passes (and
two commits) execute the same ticks; every duration is ``time.perf_counter``
around a public call.  Each workload has a SpecEE side and a *full-depth*
side — the same engine with a predictor scheduler that activates no layer,
so nothing is sliced, predicted or verified and every token runs all layers
— which is the base of ``specee_speedup``.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.config import SpecEEConfig, get_model_spec
from repro.core.engine import GenerationResult
from repro.core.scheduling import FixedSetScheduler
from repro.data.corpus import generate_prompts
from repro.eval.harness import (Rig, build_trained_transformer_rig,
                                build_transformer_rig)
from repro.hardware.latency import LatencyModel
from repro.hardware.ledger import CostLedger
from repro.nn.transformer import TransformerConfig
from repro.serving import AsyncServingEngine, Request
from repro.serving.workloads import chat_trace, poisson_trace

__all__ = ["WORKLOADS", "PassResult", "Probe", "Workload", "load_rig",
           "quietest"]

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The driver points CARGO_TARGET_DIR here; the trained rig is cached in it.
BUILD_DIR = os.path.join(REPO, ".bench_build")

#: ``BENCH_wallclock``'s shape: GEMM- and attention-bound, random weights.
WIDE_CFG = TransformerConfig(vocab_size=512, dim=512, n_layers=8, n_heads=8,
                             intermediate_dim=1376, max_positions=1024)


# ---------------------------------------------------------------------------
# rigs
# ---------------------------------------------------------------------------
@dataclass
class RigBundle:
    """A rig plus the engine keywords every workload on it uses."""

    rig: Rig
    engine_kw: dict = field(default_factory=dict)
    build_s: float = 0.0  # > 0 only on the run that trained the rig


def _source_digest() -> str:
    """Hash of every file under ``src/``: a trained rig cached by another
    version of the program is never reused."""
    digest = hashlib.sha256()
    root = os.path.join(REPO, "src")
    for folder, dirs, files in os.walk(root):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def _trained_rig() -> RigBundle:
    """The LayerSkip-trained rig (exits verify ~77% of the time).

    Training takes ~27 s, so it is the benchmark's *build* step: done once
    per checkout and pickled under ``.bench_build/``.  Set-up then costs
    what loading a trained model costs.
    """
    path = os.path.join(BUILD_DIR, f"trained_rig_{_source_digest()}.pkl")
    build_s = 0.0
    if not os.path.exists(path):
        start = time.perf_counter()
        built = build_trained_transformer_rig(seed=0)
        os.makedirs(BUILD_DIR, exist_ok=True)
        scratch = f"{path}.{os.getpid()}.tmp"
        with open(scratch, "wb") as handle:
            # The factory is a closure; it is rebuilt after loading.
            pickle.dump(replace(built, model_factory=None), handle,
                        protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(scratch, path)
        build_s = time.perf_counter() - start
    with open(path, "rb") as handle:
        rig = pickle.load(handle)  # written above by this program
    model = rig.model
    rig.model_factory = lambda: type(model)(
        lm=model.lm, max_tokens=model.max_tokens, kv_fill=model.kv_fill)
    config = SpecEEConfig(scheduler="offline", exit_threshold=0.3)
    return RigBundle(rig, dict(scheduler_kind="offline", config=config,
                               offline_top_k=2), build_s)


def load_rig(kind: str, smoke: bool) -> RigBundle:
    """Build (or load) the rig a workload runs on.  The model seed is fixed;
    ``--seed`` drives only the workload's inputs."""
    if smoke:
        return RigBundle(build_transformer_rig(seed=0))
    if kind == "trained":
        return _trained_rig()
    return RigBundle(build_transformer_rig(WIDE_CFG, seed=0, max_tokens=512))


# ---------------------------------------------------------------------------
# the stopwatch
# ---------------------------------------------------------------------------
class Probe:
    """Stopwatch over the ticks of one pass.

    ``tick_s[i]`` is the wall time from the end of the pass's previous timed
    call to the end of its ``i``-th (a serving tick; for batch-1 decode a
    prefill or a step), so whatever the caller does between ticks — routing,
    ``begin`` — is charged to the tick it delays and the ticks add up to the
    pass.  ``decoded[i]`` says whether tick ``i`` produced at least one
    token, i.e. whether its duration is a gap between a running sequence's
    tokens.  Per request the probe
    keeps tick *indices*: it arrives in the first tick in which it leaves
    ``engine.pending``, is admitted in the first tick after which it is
    running, and has its first token at the first tick after which its
    ``result.tokens`` is non-empty.  Every pass of a workload executes the
    same ticks, which is what lets :func:`quietest` combine passes.
    """

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.tick_s: List[float] = []
        self.decoded: List[bool] = []
        self.arrived: Dict[int, int] = {}
        self.admitted: Dict[int, int] = {}
        self.first_token: Dict[int, int] = {}
        self.kv_bytes_peak = 0
        self.resume()

    def resume(self) -> None:
        """Restart the clock after work that is not this pass's own."""
        self._mark = time.perf_counter()

    def timed(self, call: Callable, decoded: bool = False):
        """Run ``call()`` as the next tick."""
        if self.recorder is not None:
            self.recorder.tick = len(self.tick_s)
        result = call()
        now = time.perf_counter()
        self.tick_s.append(now - self._mark)
        self.decoded.append(decoded)
        self._mark = now
        return result

    def tick(self, engine: AsyncServingEngine):
        """One timed ``advance_tick``, called through the class so a traced
        pass sees the shimmed method."""
        index = len(self.tick_s)
        waiting = engine.pending[:]
        occupancy = engine.report.batch_occupancy
        ticks_before = len(occupancy)
        finished = self.timed(lambda: AsyncServingEngine.advance_tick(engine))
        self.decoded[index] = len(occupancy) > ticks_before and occupancy[-1] > 0
        for request in waiting[:len(waiting) - len(engine.pending)]:
            self.arrived[request.request_id] = index
        for seq in engine.running:
            self.admitted.setdefault(seq.request_id, index)
            if seq.result.tokens:
                self.first_token.setdefault(seq.request_id, index)
        for metric in finished:
            self.admitted.setdefault(metric.request_id, index)
            self.first_token.setdefault(metric.request_id, index)
        if self.recorder is not None:
            live = engine.running + engine.preempted
            self.kv_bytes_peak = max(self.kv_bytes_peak, sum(
                seq.state.cache.nbytes() for seq in live))
        return finished

    def shape(self):
        """What must be identical in every pass of one workload."""
        return (self.decoded, self.arrived, self.admitted, self.first_token)

    @property
    def busy_s(self) -> float:
        return float(sum(self.tick_s))

    def itl_s(self) -> List[float]:
        return [s for s, decoded in zip(self.tick_s, self.decoded) if decoded]

    def _between(self, first: Dict[int, int], last: Dict[int, int],
                 inclusive: bool) -> List[float]:
        edges = np.concatenate([[0.0], np.cumsum(self.tick_s)])
        return [float(edges[last[rid] + inclusive] - edges[first[rid]])
                for rid in last]

    def ttft_s(self) -> List[float]:
        """Start of the arrival tick to the end of the first-token tick."""
        return self._between(self.arrived, self.first_token, True)

    def queue_wait_s(self) -> List[float]:
        """Start of the arrival tick to the start of the admission tick."""
        return self._between(self.arrived, self.admitted, False)


def quietest(probes: Sequence[Probe]) -> Probe:
    """The passes' tick-by-tick minimum.

    Passes run identical ticks and a disturbance (another tenant of the
    host, an interrupt, a collection) only ever adds time, so the smallest
    duration seen for tick ``i`` is the best estimate of what tick ``i``
    costs.  Raises if the passes did not run the same ticks.
    """
    first = probes[0]
    if any(probe.shape() != first.shape() for probe in probes[1:]):
        raise RuntimeError("passes of one workload executed different ticks")
    out = Probe()
    out.tick_s = np.min([probe.tick_s for probe in probes], axis=0).tolist()
    out.decoded, out.arrived, out.admitted, out.first_token = first.shape()
    return out


@dataclass
class PassResult:
    """What one pass produced; its timings live in ``probe``."""

    probe: Probe
    results: Dict[int, GenerationResult]
    rejected: int
    ledger: CostLedger
    latency: LatencyModel
    reports: list = field(default_factory=list)   # AsyncServingReport per engine
    fleet: object = None                          # ServingFleetReport, fleet only

    @property
    def tokens(self) -> int:
        return sum(len(r.tokens) for r in self.results.values())


def _no_exit_scheduler():
    return FixedSetScheduler(())


# ---------------------------------------------------------------------------
# runners: one per way of driving the program
# ---------------------------------------------------------------------------
class Batch1Runner:
    """``SpecEEEngine.prefill`` -> ``step`` x n -> ``finish``, one prompt at
    a time, each prompt followed at once by ``generate_dense`` on a fresh
    model, so load noise hits both sides.  A prefill is a tick that decodes
    nothing, a step a tick that decodes one token; the dense side is timed
    the same way."""

    def __init__(self, bundle: RigBundle, requests: Sequence[Request]):
        self.rig, self.requests = bundle.rig, list(requests)
        self.engine = bundle.rig.specee_engine(**bundle.engine_kw)
        self.latency = LatencyModel(
            get_model_spec(bundle.rig.priced_model_name), "a100-80g", "vllm")

    def _specee(self, request: Request, out: PassResult) -> None:
        engine, probe, rid = self.engine, out.probe, request.request_id
        probe.resume()
        probe.arrived[rid] = probe.admitted[rid] = len(probe.tick_s)
        state, result = probe.timed(lambda: engine.prefill(request.prompt))
        engine.scheduler.reset()
        probe.first_token[rid] = len(probe.tick_s)
        for _ in range(request.max_new_tokens):
            probe.timed(lambda: engine.step(state, result), decoded=True)
        engine.finish(state, result)
        out.results[rid] = result
        out.ledger.merge(result.ledger)

    def _dense(self, request: Request, base: Probe) -> None:
        """Full-depth decode of one prompt, timed call by call like the
        SpecEE side (``generate_dense(state, 1)`` x n is ``generate_dense(
        state, n)``), so both sides are de-noised at the same grain."""
        base.resume()
        model = self.rig.fresh_model()
        state = base.timed(lambda: model.start(request.prompt))
        for _ in range(request.max_new_tokens):
            base.timed(lambda: model.generate_dense(state, 1), decoded=True)

    def pair(self, requests: Optional[Sequence[Request]] = None,
             dense: bool = True, recorder=None, dense_first: bool = False):
        """One pass over ``requests``; returns (SpecEE result, dense probe)."""
        out = PassResult(Probe(recorder), {}, 0, CostLedger(), self.latency)
        base = Probe()
        for request in (self.requests if requests is None else requests):
            if dense and dense_first:
                self._dense(request, base)
            self._specee(request, out)
            if dense and not dense_first:
                self._dense(request, base)
        return out, base


class EngineRunner:
    """One ``AsyncServingEngine`` stepped tick by tick through ``begin /
    has_work / advance_tick / finish_report``."""

    def __init__(self, bundle: RigBundle, requests: Sequence[Request],
                 **serving_kw):
        self.requests = list(requests)
        make = lambda: bundle.rig.async_serving_engine(
            **bundle.engine_kw, **serving_kw)
        self.engine, self.dense_engine = make(), make()
        self.dense_engine.scheduler_factory = _no_exit_scheduler

    def _serve(self, engine, requests, probe: Probe) -> PassResult:
        probe.resume()
        engine.begin(requests)
        while engine.has_work:
            probe.tick(engine)
        report = engine.finish_report()
        return PassResult(probe, report.results, len(report.rejected),
                          report.serving_ledger, engine.latency,
                          reports=[report])

    def _dense(self, requests) -> Probe:
        out = self._serve(self.dense_engine, requests, Probe())
        if out.rejected or len(out.results) != len(requests):
            raise RuntimeError("the full-depth side did not finish every request")
        return out.probe

    def pair(self, requests: Optional[Sequence[Request]] = None,
             dense: bool = True, recorder=None, dense_first: bool = False):
        """One SpecEE pass and (unless ``dense`` is off) one full-depth pass
        over ``requests``; returns (SpecEE result, dense probe)."""
        requests = self.requests if requests is None else list(requests)
        base = Probe()
        if dense and dense_first:
            base = self._dense(requests)
        out = self._serve(self.engine, requests, Probe(recorder))
        if dense and not dense_first:
            base = self._dense(requests)
        return out, base


class FleetRunner(EngineRunner):
    """``ServingRouter.run`` over two replicas; each replica's
    ``advance_tick`` is wrapped on the instance so its ticks are timed."""

    def __init__(self, bundle: RigBundle, requests: Sequence[Request],
                 n_replicas: int, route: str, **serving_kw):
        self.requests = list(requests)
        make = lambda: bundle.rig.router_fleet(
            n_replicas, route=route, **bundle.engine_kw, **serving_kw)
        self.engine, self.dense_engine = make(), make()
        for replica in self.dense_engine.replicas:
            replica.scheduler_factory = _no_exit_scheduler

    def _serve(self, router, requests, probe: Probe) -> PassResult:
        for replica in router.replicas:
            replica.advance_tick = (lambda r=replica: probe.tick(r))
        try:
            probe.resume()
            fleet = router.run(requests)
        finally:
            for replica in router.replicas:
                del replica.advance_tick
        ledger = CostLedger()
        for report in fleet.replica_reports:
            ledger.merge(report.serving_ledger)
        rejected = len(fleet.rejected) + sum(
            len(report.rejected) for report in fleet.replica_reports)
        return PassResult(probe, fleet.results, rejected, ledger,
                          router.replicas[0].latency,
                          reports=fleet.replica_reports, fleet=fleet)


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Workload:
    """A named traffic mix: which rig, which requests, which runner."""

    name: str
    rig: str
    requests: Callable[[int, int, bool], List[Request]]  # (vocab, seed, smoke)
    runner: Callable[[RigBundle, List[Request]], object]


def _closed(n: int, prompt_range, new_tokens: int):
    def make(vocab: int, seed: int, smoke: bool) -> List[Request]:
        count, tokens = (max(4, n // 8), 6) if smoke else (n, new_tokens)
        prompts = generate_prompts(count, vocab, prompt_range, seed=seed)
        return [Request(i, prompt, tokens) for i, prompt in enumerate(prompts)]
    return make


#: On an open-loop trace this short the traffic *shape* (arrival times,
#: prompt lengths, token budgets) decides how deep the queue gets: drawing it
#: afresh moved TTFT p50 by +-40% from seed to seed, more than any bound
#: could hold.  So the shape of the two trace workloads is drawn once, from
#: this seed, and ``--seed`` redraws what the tokens are (a permutation of
#: the vocabulary, which keeps shared prefixes shared) and with them the
#: drafts, the exits and their depths.
SHAPE_SEED = 0


def _relabel(requests: List[Request], vocab: int, seed: int) -> List[Request]:
    names = np.random.default_rng(seed).permutation(vocab)
    return [replace(r, prompt=[int(names[t]) for t in r.prompt])
            for r in requests]


def _long_prompts(vocab: int, seed: int, smoke: bool) -> List[Request]:
    n, prompt_range = (12, (16, 40)) if smoke else (48, (64, 160))
    shape = poisson_trace(n, 24.0, vocab, prompt_len_range=prompt_range,
                          max_new_tokens_range=(8, 24), slo_scale=None,
                          seed=SHAPE_SEED)
    return _relabel(shape.requests, vocab, seed)


def _chat(vocab: int, seed: int, smoke: bool) -> List[Request]:
    sessions, system_range = (4, (12, 20)) if smoke else (16, (48, 80))
    shape = chat_trace(sessions, vocab, tenants=2, turns=4, rate_per_s=20.0,
                       system_prompt_range=system_range, user_len_range=(2, 6),
                       max_new_tokens_range=(8, 16), slo_scale=None,
                       seed=SHAPE_SEED)
    return _relabel(shape.requests, vocab, seed)


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("decode_b1", "trained", _closed(16, (4, 16), 64), Batch1Runner),
    Workload("serve_closed_b16", "trained", _closed(48, (4, 16), 48),
             lambda bundle, requests: EngineRunner(
                 bundle, requests, batch_capacity=16, kv_blocks=2048,
                 block_size=16, batched=True)),
    Workload("serve_wide_b16", "wide", _closed(16, (4, 8), 16),
             lambda bundle, requests: EngineRunner(
                 bundle, requests, batch_capacity=16, kv_blocks=2048,
                 block_size=16)),
    Workload("serve_trace_longprompt", "trained", _long_prompts,
             lambda bundle, requests: EngineRunner(
                 bundle, requests, batch_capacity=8, kv_blocks=20,
                 block_size=4, preemption="auto", prefix_share=False)),
    Workload("serve_chat_fleet", "trained", _chat,
             lambda bundle, requests: FleetRunner(
                 bundle, requests, 2, "session_affinity", batch_capacity=8,
                 kv_blocks=512, block_size=4, prefix_share=True)),
)}
