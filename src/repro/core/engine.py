"""The SpecEE autoregressive engine (T1 + T2).

Per generated token (Fig. 3):

1. the heuristic scheduling engine marks the predictor-active layers,
2. the speculative model proposes ``k`` candidate tokens,
3. the decoder layers run in order; after each *active* layer the
   speculative LM head is sliced, the 3k features extracted, and the
   lightweight MLP consulted,
4. a positive prediction triggers verification (one full LM-head
   projection); if the global argmax is among the candidates the engine
   exits and commits that token, otherwise depth continues,
5. reaching the final layer commits the full model's argmax as usual.

Every op is recorded in the :class:`~repro.hardware.ledger.CostLedger` so the
hardware models can price the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.config import SpecEEConfig
from repro.core.features import FeatureExtractor
from repro.core.predictor import PredictorBank
from repro.core.scheduling import Scheduler, make_scheduler
from repro.core.verification import verify_exits
from repro.hardware.ledger import CostLedger, Event
from repro.model.base import LayeredLM, LMState
from repro.model.draft import Speculator
from repro.utils.mathx import log_softmax

__all__ = ["StepRecord", "GenerationResult", "SpecEEEngine", "DRAFT_PAD_MARGIN",
           "prefilled_result"]

#: Margin (in logit units) below the row minimum used to pad a
#: load-shortened draft back to the predictor's trained feature width ``k``:
#: the padded slot reads as a clearly-losing candidate (softmax weight
#: ``e^-margin`` of the weakest real one) while staying at the logit scale
#: the 3k-input MLP was trained on — padding with -inf-like values instead
#: saturates the MLP and silences the predictor entirely.
DRAFT_PAD_MARGIN = 6.0


def _check_controls(thresholds, draft_lens, k: int) -> None:
    """Reject control overrides (scalars or per-row arrays) the engine cannot
    honour: a non-finite exit threshold (NaN never exits) or a draft length
    outside ``[1, k]``."""
    if not np.all(np.isfinite(thresholds)):
        raise ValueError(f"exit thresholds must be finite, got {thresholds}")
    draft_lens = np.asarray(draft_lens)
    if np.any((draft_lens < 1) | (draft_lens > k)):
        raise ValueError(f"draft lengths must lie in [1, {k}], got {draft_lens}")


@dataclass
class StepRecord:
    """Diagnostics for one generated token.

    ``hidden`` is the hidden state the token was committed from (the
    exit-layer activation).  Serving backends persist it as the token's KV
    payload in the paged cache; baselines that do not thread hidden states
    leave it ``None``.
    """

    token: int
    exit_layer: int
    early_exit: bool
    predictor_evals: int
    verify_attempts: int
    active_predictors: float
    draft_hit: bool
    hidden: Optional[np.ndarray] = None


@dataclass
class GenerationResult:
    """Tokens plus cost ledger and per-step diagnostics."""

    tokens: List[int] = field(default_factory=list)
    exit_layers: List[int] = field(default_factory=list)
    records: List[StepRecord] = field(default_factory=list)
    ledger: CostLedger = field(default_factory=CostLedger)
    logprobs: List[float] = field(default_factory=list)  # teacher-forced only
    saturations: List[int] = field(default_factory=list)  # model-internal L* trace

    @property
    def perplexity(self) -> float:
        """exp(mean NLL) over teacher-forced reference tokens."""
        if not self.logprobs:
            return float("nan")
        return float(np.exp(-np.mean(self.logprobs)))

    @property
    def avg_exit_layer(self) -> float:
        """Average forward layers per token, 1-based (paper's '#Avg. L')."""
        if not self.exit_layers:
            return float("nan")
        return float(np.mean(np.asarray(self.exit_layers) + 1))

    @property
    def early_exit_rate(self) -> float:
        if not self.records:
            return float("nan")
        return float(np.mean([r.early_exit for r in self.records]))

    @property
    def avg_active_predictors(self) -> float:
        if not self.records:
            return float("nan")
        return float(np.mean([r.active_predictors for r in self.records]))


def prefilled_result(model: LayeredLM, state: LMState) -> GenerationResult:
    """An empty result whose ledger carries ``state``'s prompt prefill: every
    layer once over the whole context.  Every batch-1 engine starts here."""
    result = GenerationResult()
    result.ledger.prompt_tokens = len(state.context)
    result.ledger.add(Event.PREFILL_LAYER, calls=model.n_layers,
                      units=model.n_layers * len(state.context))
    return result


class SpecEEEngine:
    """Autoregressive decoding with speculative early exiting."""

    def __init__(
        self,
        model: LayeredLM,
        speculator: Speculator,
        predictors: PredictorBank,
        config: Optional[SpecEEConfig] = None,
        scheduler: Optional[Scheduler] = None,
    ):
        self.model = model
        self.speculator = speculator
        self.predictors = predictors
        self.config = config or SpecEEConfig()
        if speculator.k != self.config.num_speculative:
            raise ValueError(
                f"speculator k={speculator.k} != config num_speculative="
                f"{self.config.num_speculative}"
            )
        self.scheduler = scheduler or make_scheduler(
            self.config.scheduler, model.n_layers,
            window=self.config.context_window, vicinity=self.config.layer_vicinity,
        )
        self._extractor = FeatureExtractor(self.config.num_speculative)

    def generate(
        self,
        prompt: Sequence[int],
        max_new_tokens: int,
        script: Optional[Sequence[int]] = None,
        force_tokens: Optional[Sequence[int]] = None,
    ) -> GenerationResult:
        """Greedy decode with early exiting; returns tokens + diagnostics.

        ``force_tokens`` switches to teacher forcing for perplexity
        evaluation: the engine still decides exit layers freely, records the
        log-probability of each reference token under the exit-layer
        distribution, but commits the reference so the context follows the
        dataset text.
        """
        state, result = self.prefill(prompt, script=script)
        self.scheduler.reset()
        if force_tokens is not None:
            max_new_tokens = len(force_tokens)
        for step in range(max_new_tokens):
            forced = None if force_tokens is None else int(force_tokens[step])
            self.step(state, result, forced)
        return self.finish(state, result)

    # -- incremental API (one sequence among many) ---------------------------
    def prefill(
        self, prompt: Sequence[int], script: Optional[Sequence[int]] = None
    ) -> tuple[LMState, GenerationResult]:
        """Start a sequence: model state plus :func:`prefilled_result`.
        Callers driving :meth:`step` directly own the scheduler lifetime —
        pass a per-sequence scheduler to every ``step`` call."""
        state = self.model.start(prompt, script=script)
        return state, prefilled_result(self.model, state)

    def prefill_batch(
        self,
        prompts: Sequence[Sequence[int]],
        scripts: Optional[Sequence[Optional[Sequence[int]]]] = None,
    ) -> List[tuple[LMState, GenerationResult]]:
        """:meth:`prefill` for many sequences through one
        :meth:`LayeredLM.start_batch`, which real backends run as a single
        batched pass; each sequence's ledger is charged as if prefilled alone."""
        return [(state, prefilled_result(self.model, state))
                for state in self.model.start_batch(prompts, scripts)]

    def finish(self, state: LMState, result: GenerationResult) -> GenerationResult:
        """Seal a sequence: copy model-internal diagnostics into the result."""
        result.saturations = list(getattr(state, "saturation_layers", []))
        return result

    def step(
        self,
        state: LMState,
        result: GenerationResult,
        forced: Optional[int] = None,
        scheduler: Optional[Scheduler] = None,
        capture_hidden: bool = False,
        exit_threshold: Optional[float] = None,
        draft_len: Optional[int] = None,
    ) -> StepRecord:
        """Advance one sequence by one token: the batch-1 reference that
        :meth:`step_batch` is tested against.

        ``scheduler`` overrides the engine's own predictor scheduler; serving
        passes one per sequence so each request's online exit history stays
        isolated.  ``capture_hidden`` copies the exit-layer hidden state onto
        the returned record — the serving scheduler persists it as the
        token's paged-KV payload; plain generation skips the copy.

        ``exit_threshold`` / ``draft_len`` are the adaptive-control actuation
        points (``repro.serving.control``): the former replaces the configured
        exit threshold for this token only; the latter truncates the proposed
        draft to its first ``draft_len`` candidates — fewer LM-head columns
        sliced per active layer (``LM_HEAD_SLICE`` priced at the truncated
        width) and fewer candidates verified against.  The draft model still
        runs at full ``k`` (``DRAFT_STEP`` cost unchanged); truncated feature
        vectors are padded back to width ``k`` (see :data:`DRAFT_PAD_MARGIN`)
        so the trained 3k-input predictor MLPs are untouched.  Defaults
        reproduce the static engine bit for bit.  A ``draft_len`` outside
        ``[1, k]`` or a non-finite ``exit_threshold`` raises ``ValueError``.
        """
        model, cfg = self.model, self.config
        sched = scheduler if scheduler is not None else self.scheduler
        threshold = cfg.exit_threshold if exit_threshold is None else float(exit_threshold)
        k = cfg.num_speculative
        d = k if draft_len is None else int(draft_len)
        if exit_threshold is not None or draft_len is not None:
            _check_controls(threshold, d, k)
        spec_tokens = self.speculator.propose(state.context)
        if d < k:
            spec_tokens = spec_tokens[:d]
        draft_hit = self.speculator.is_hit(state.context)
        model.begin_step(state)
        self._extractor.reset()

        n_layers, lo = model.n_layers, cfg.min_exit_layer
        exit_token: Optional[int] = None
        exit_layer = n_layers - 1
        predictor_evals = 0
        verify_attempts = 0
        active_predictors = sched.active_count()

        hidden = None
        for layer in range(n_layers):
            hidden = model.layer_forward(state, layer)
            if not lo <= layer < n_layers - 1 or not sched.is_active(layer):
                continue
            spec_logits = model.lm_head_slice(hidden, spec_tokens)
            features = self._extractor.extract(self._pad_draft_logits(spec_logits, k))
            predictor_evals += 1
            probability = self.predictors.probability(layer, features)
            if probability < threshold:
                continue
            if cfg.verify_on_exit:
                # Verification (Sec. 4.3.3): exit only on a candidate argmax.
                verify_attempts += 1
                token = int(model.lm_head_full(hidden).argmax())
                if token in spec_tokens:
                    exit_token, exit_layer = token, layer
                    break
            else:
                # Unverified exit (ablation only): trust the top local token.
                exit_token = int(spec_tokens[int(np.argmax(spec_logits))])
                exit_layer = layer
                break

        if exit_token is None:
            exit_token = int(model.lm_head_full(hidden).argmax())
        if forced is not None:
            result.logprobs.append(float(log_softmax(model.lm_head_full(hidden))[forced]))
            exit_token = forced
        model.commit(state, exit_token, exit_layer)
        return self._close_step(
            result, sched, exit_token, exit_layer, predictor_evals, d, verify_attempts,
            active_predictors, draft_hit, np.array(hidden, copy=True) if capture_hidden else None)

    def _close_step(self, result: GenerationResult, sched: Scheduler, token: int,
                    exit_layer: int, evals: int, draft_len: int, verifies: int,
                    active_predictors: float, draft_hit: bool,
                    hidden: Optional[np.ndarray]) -> StepRecord:
        """Close one sequence's step: feed an early exit to its scheduler,
        charge one ledger write per event kind in the order a step emits them
        (pricing sums in insertion order) and append the record."""
        n_layers = self.model.n_layers
        early = exit_layer < n_layers - 1
        if early:
            sched.observe_exit(exit_layer)
        ledger = result.ledger
        ledger.add(Event.DRAFT_STEP)
        ledger.add(Event.DECODER_LAYER, calls=exit_layer + 1)
        if evals:
            ledger.add(Event.LM_HEAD_SLICE, calls=evals, units=evals * draft_len)
            ledger.add(Event.PREDICTOR, calls=evals)
        if verifies or not early:
            ledger.add(Event.LM_HEAD_FULL, calls=verifies + (not early))
        if early:
            ledger.add(Event.KV_FILL, units=n_layers - 1 - exit_layer)
        ledger.tokens_generated += 1
        ledger.steps += 1
        record = StepRecord(
            token=token, exit_layer=exit_layer, early_exit=early, predictor_evals=evals,
            verify_attempts=verifies, active_predictors=active_predictors,
            draft_hit=draft_hit, hidden=hidden)
        result.tokens.append(token)
        result.exit_layers.append(exit_layer)
        result.records.append(record)
        return record

    @staticmethod
    def _pad_draft_logits(spec_logits: np.ndarray, k: int) -> np.ndarray:
        """Pad a truncated draft's sliced logits back to width ``k`` with their
        minimum minus :data:`DRAFT_PAD_MARGIN`, in the logits' dtype."""
        if len(spec_logits) == k:
            return spec_logits
        padded = np.full(k, spec_logits.min() - DRAFT_PAD_MARGIN, spec_logits.dtype)
        padded[: len(spec_logits)] = spec_logits
        return padded

    def step_batch(
        self,
        states: Sequence[LMState],
        results: Sequence[GenerationResult],
        schedulers: Sequence[Scheduler],
        capture_hidden: bool = False,
        exit_thresholds: Optional[Sequence[float]] = None,
        draft_lens: Optional[Sequence[int]] = None,
    ) -> List[StepRecord]:
        """Advance many sequences by one token each, batching the layer math.

        The decision logic is exactly :meth:`step`'s, applied per sequence:
        every sequence keeps its own predictor scheduler, feature-extractor
        history and cost ledger, so the committed tokens are identical to
        running the sequences through :meth:`step` one at a time.  What is
        shared is the *weight pass*: each decoder layer runs once over the
        batch of sequences still alive at that depth
        (:meth:`~repro.model.base.LayeredLM.layer_forward_batch`), and
        sequences drop out of the batch the moment their exit verifies — the
        SpecEE layer-skip shape, now with shrinking GEMMs.  The per-layer
        exit check is a handful of array operations over the live rows: one
        per-row LM-head slice of each sequence's own draft tokens, one
        feature-extraction pass and one MLP forward score the whole block,
        and one full-head GEMM verifies every sequence whose predictor fired.
        It runs on every backend: one without real batched math serves it
        through :class:`~repro.model.base.LayeredLM`'s loop defaults.

        ``exit_thresholds`` / ``draft_lens`` carry per-sequence adaptive
        control overrides (see :meth:`step`), aligned with ``states``; they
        are checked as :meth:`step` checks them, and ``None`` (the default)
        reproduces the static engine bit for bit.
        """
        b = len(states)
        if not (b == len(results) == len(schedulers)):
            raise ValueError("states, results and schedulers must align")
        if b == 0:
            return []
        model, cfg = self.model, self.config
        k = cfg.num_speculative
        ths = (np.full(b, cfg.exit_threshold) if exit_thresholds is None
               else np.asarray(exit_thresholds, dtype=np.float64))
        ds = np.full(b, k) if draft_lens is None else np.asarray(draft_lens, dtype=np.int64)
        if not (ths.shape == ds.shape == (b,)):
            raise ValueError("control overrides must align with states")
        if exit_thresholds is not None or draft_lens is not None:
            _check_controls(ths, ds, k)
        n_layers, lo = model.n_layers, cfg.min_exit_layer
        # Once per tick: the [B, k] candidate matrix, the pad mask of the
        # slots a load-shortened draft drops, and the [B, L-1-lo]
        # scheduler-activity mask (schedulers change only in observe_exit,
        # after the tick's decisions).
        cand = np.array([self.speculator.propose(state.context) for state in states],
                        dtype=np.int64)
        draft_hits = [self.speculator.is_hit(state.context) for state in states]
        active_predictors = [sched.active_count() for sched in schedulers]
        active = np.array([[sched.is_active(layer) for layer in range(lo, n_layers - 1)]
                           for sched in schedulers], dtype=bool)
        any_active = active.any(axis=0).tolist()
        pad = np.arange(k) >= ds[:, None]
        padded = bool(pad.any())
        exit_token = np.full(b, -1, dtype=np.int64)
        exit_layer = np.full(b, n_layers - 1, dtype=np.int64)
        predictor_evals = np.zeros(b, dtype=np.int64)
        verify_attempts = np.zeros(b, dtype=np.int64)

        hidden = model.begin_step_batch(states)  # [B, dim]
        # Feature history, mirroring FeatureExtractor's state: each row's
        # last evaluated local probabilities plus a validity bit (the first
        # evaluated layer of a step reports zero variation).
        last_probs = np.zeros((b, k), hidden.dtype)
        has_last = np.zeros(b, dtype=bool)
        # ``live`` indexes the rows still decoding and ``h`` holds their
        # activations in that order; an exiting row's activation is stored
        # back into ``hidden`` as it leaves.
        live, live_states, h = np.arange(b), list(states), hidden
        for layer in range(n_layers):
            h = model.layer_forward_batch(live_states, layer, h)
            if not lo <= layer < n_layers - 1 or not any_active[layer - lo]:
                continue
            rows = np.flatnonzero(active[live, layer - lo])
            if not rows.size:
                continue
            # One pass scores every scheduler-active sequence: one per-row
            # LM-head slice, one feature extraction and one MLP forward.
            idxs = live[rows]
            checked = h if rows.size == live.size else h[rows]
            local = model.lm_head_slice_batch(checked, cand[idxs])
            if padded:
                # The scalar path's padded vector, in the logits' dtype: the
                # floor sits below the minimum over the real columns.
                pads = pad[idxs]
                floor = np.where(pads, np.inf, local).min(axis=1, keepdims=True)
                local = np.where(pads, floor - DRAFT_PAD_MARGIN, local)
            feats, probs = FeatureExtractor.extract_rows(
                local, last_probs[idxs], has_last[idxs])
            last_probs[idxs] = probs
            has_last[idxs] = True
            predictor_evals[idxs] += 1
            fired = self.predictors.probability_batch(layer, feats) >= ths[idxs]
            if not fired.any():
                continue
            hits, at = idxs[fired], rows[fired]
            if cfg.verify_on_exit:
                # One full-head GEMM verifies every sequence whose predictor
                # fired at this layer (all fired: the slice's block and norm).
                verify_attempts[hits] += 1
                ok, tokens = verify_exits(model, checked if fired.all() else checked[fired],
                                          cand[hits], pad[hits])
                hits, at, tokens = hits[ok], at[ok], tokens[ok]
            else:
                # Unverified exit (ablation only): trust the top local token.
                tokens = cand[hits, np.argmax(local[fired], axis=1)]
            if not hits.size:
                continue
            exit_token[hits], exit_layer[hits] = tokens, layer
            hidden[hits] = h[at]
            keep = exit_token[live] < 0
            live, h = live[keep], h[keep]
            if not live.size:
                break
            live_states = [states[i] for i in live.tolist()]

        if live.size:
            hidden[live] = h
            exit_token[live] = np.argmax(model.lm_head_full_batch(h), axis=-1)
        tokens, layers = exit_token.tolist(), exit_layer.tolist()
        evals, verifies, lens = predictor_evals.tolist(), verify_attempts.tolist(), ds.tolist()
        model.commit_batch(states, tokens, layers)

        snapshot = hidden.copy() if capture_hidden else [None] * b
        return [self._close_step(results[i], schedulers[i], tokens[i], layers[i], evals[i],
                                 lens[i], verifies[i], active_predictors[i], draft_hits[i],
                                 snapshot[i])
                for i in range(b)]
