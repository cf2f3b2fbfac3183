"""Rig construction and dataset runs.

A :class:`Rig` bundles everything needed to evaluate one (model, dataset,
flavor) combination: the synthetic model with dataset-adjusted profile, the
draft speculator, a trained predictor bank and the offline exit-frequency
profile.  Banks and offline profiles depend only on (model, flavor,
predictor size), so they are trained once per process and cached — mirroring
the paper, which trains predictors once on MT-Bench traces and reuses them
everywhere (Sec. 7.4.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.config import SimDims, SpecEEConfig
from repro.core.engine import GenerationResult, SpecEEEngine
from repro.core.predictor import PredictorBank
from repro.core.predictor_training import harvest_training_corpus, train_predictor_bank
from repro.core.scheduling import OfflineScheduler, make_scheduler, profile_exit_frequencies
from repro.data.corpus import generate_prompts
from repro.data.datasets import DatasetItem, DatasetSpec
from repro.eval.metrics import accuracy_percent, answer_matches, perplexity_from_logprobs
from repro.hardware.ledger import CostLedger
from repro.model.base import LayeredLM
from repro.model.draft import Speculator
from repro.model.profiles import get_profile
from repro.model.synthetic import SyntheticLayeredLM

__all__ = [
    "Rig", "EvalRun", "build_rig", "build_trained_transformer_rig",
    "build_transformer_rig", "make_model", "run_items", "trained_assets",
]

_DEFAULT_SIM = SimDims()

# (model, flavor, hidden, depth, seed) -> (bank, offline frequencies)
_ASSET_CACHE: Dict[Tuple, Tuple[PredictorBank, np.ndarray]] = {}


def make_model(
    model_name: str,
    dataset: Optional[DatasetSpec] = None,
    flavor: str = "dense",
    sim: SimDims = _DEFAULT_SIM,
    seed: int = 0,
) -> SyntheticLayeredLM:
    """Synthetic model with (dataset-adjusted) semantic profile.

    The ``awq`` flavor shares the language and dynamics of the dense model —
    quantisation's accuracy/perplexity effects enter through the calibrated
    dataset scripts and references, its speed effect through the hardware
    framework profile.
    """
    profile = get_profile(model_name)
    if dataset is not None:
        profile = dataset.apply_to_profile(profile)
    return SyntheticLayeredLM(profile, sim, seed=seed)


def _exit_assets(
    model: LayeredLM, profiling_model: LayeredLM, speculator, *, k: int,
    predictor_hidden: int, predictor_depth: int, train_prompts: int,
    train_tokens: int, epochs: int, profile_prompts: int, profile_tokens: int,
    seed: int,
) -> Tuple[PredictorBank, np.ndarray]:
    """Exit assets for one (model, speculator) pair, spelled once.

    Harvest a feature corpus from ``model`` decoding ``train_prompts``
    prompts, train a fresh :class:`PredictorBank` on it, then run the
    offline profiling pass — SpecEE with all predictors active on
    ``profiling_model`` — and fold its verified exits into per-layer
    frequencies.  The RNG draw order (harvest, bank init, training,
    profiling decode) is what every rig's tokens depend on.
    """
    prompts = generate_prompts(train_prompts, model.vocab_size, seed=seed + 11)
    corpus = harvest_training_corpus(model, speculator, prompts,
                                     tokens_per_prompt=train_tokens)
    bank = PredictorBank(model.n_layers, feature_dim=3 * k,
                         hidden_dim=predictor_hidden, depth=predictor_depth,
                         seed=seed)
    train_predictor_bank(bank, corpus, epochs=epochs, seed=seed)
    profiling = SpecEEEngine(
        profiling_model, speculator, bank, SpecEEConfig(num_speculative=k),
        scheduler=make_scheduler("all", model.n_layers),
    )
    exits: List[int] = []
    for prompt in generate_prompts(profile_prompts, model.vocab_size,
                                   seed=seed + 23):
        run = profiling.generate(prompt, profile_tokens)
        exits.extend(l for l, r in zip(run.exit_layers, run.records)
                     if r.early_exit)
    return bank, profile_exit_frequencies(exits, model.n_layers)


def trained_assets(
    model_name: str,
    flavor: str = "dense",
    sim: SimDims = _DEFAULT_SIM,
    seed: int = 0,
    predictor_hidden: int = 512,
    predictor_depth: int = 2,
    train_prompts: int = 10,
    train_tokens: int = 40,
    epochs: int = 15,
) -> Tuple[PredictorBank, np.ndarray]:
    """Train (or fetch cached) predictor bank + offline exit frequencies."""
    key = (model_name, flavor, sim, seed, predictor_hidden, predictor_depth,
           train_prompts, train_tokens, epochs)
    if key in _ASSET_CACHE:
        return _ASSET_CACHE[key]
    model = make_model(model_name, None, flavor, sim, seed)
    speculator = Speculator(model.oracle, k=4, hit_rate=model.profile.draft_hit_rate)
    # The profiling pass decodes on a fresh model instance.
    _ASSET_CACHE[key] = _exit_assets(
        model, make_model(model_name, None, flavor, sim, seed), speculator,
        k=4, predictor_hidden=predictor_hidden, predictor_depth=predictor_depth,
        train_prompts=train_prompts, train_tokens=train_tokens, epochs=epochs,
        profile_prompts=4, profile_tokens=60, seed=seed)
    return _ASSET_CACHE[key]


@dataclass
class Rig:
    """Everything needed to evaluate one (model, dataset, flavor) combo.

    ``model`` is usually the synthetic substrate; :func:`build_transformer_rig`
    builds the same bundle over the real numpy transformer backend, supplying
    ``model_factory`` so :meth:`fresh_model` still works.
    """

    model_name: str
    flavor: str
    model: "LayeredLM"
    speculator: Speculator
    bank: PredictorBank
    offline_freqs: np.ndarray
    sim: SimDims = _DEFAULT_SIM
    seed: int = 0
    model_factory: Optional[Callable[[], "LayeredLM"]] = None
    #: Model-spec name used to price ledgers when ``model_name`` is not a
    #: catalogued spec (the real transformer rig is "tiny-transformer" but
    #: its runs are priced as this spec, e.g. "llama2-7b").
    priced_as: Optional[str] = None
    #: Free-form provenance (training report numbers, draft statistics, …);
    #: populated by :func:`build_trained_transformer_rig`.
    metadata: Dict = field(default_factory=dict)

    @property
    def priced_model_name(self) -> str:
        """The catalogued model-spec name the rig's ledgers are priced as."""
        return self.priced_as or self.model_name

    def make_scheduler(
        self,
        scheduler_kind: str = "two_level",
        config: Optional[SpecEEConfig] = None,
        offline_top_k: int = 4,
    ):
        """One predictor scheduler wired to this rig's offline exit profile
        (the single source of truth for both unbatched and serving engines)."""
        cfg = config or SpecEEConfig(scheduler=scheduler_kind)
        return make_scheduler(
            scheduler_kind, self.model.n_layers,
            offline=OfflineScheduler(self.offline_freqs), offline_top_k=offline_top_k,
            window=cfg.context_window, vicinity=cfg.layer_vicinity,
        )

    def specee_engine(
        self,
        scheduler_kind: str = "two_level",
        config: Optional[SpecEEConfig] = None,
        offline_top_k: int = 4,
    ) -> SpecEEEngine:
        cfg = config or SpecEEConfig(scheduler=scheduler_kind)
        scheduler = self.make_scheduler(scheduler_kind, cfg, offline_top_k)
        return SpecEEEngine(self.model, self.speculator, self.bank, cfg, scheduler=scheduler)

    def async_serving_engine(
        self,
        scheduler_kind: str = "two_level",
        config: Optional[SpecEEConfig] = None,
        offline_top_k: int = 4,
        device: str = "a100-80g",
        framework: str = "vllm",
        **serving_kwargs,
    ) -> "AsyncServingEngine":
        """Trace-driven async server (arrivals, preemption, chunked prefill)
        over this rig's SpecEE engine, priced for (model, device, framework)."""
        from repro.config import get_model_spec
        from repro.serving.async_engine import AsyncServingEngine

        cfg = config or SpecEEConfig(scheduler=scheduler_kind)
        engine = self.specee_engine(scheduler_kind, cfg, offline_top_k)
        factory = lambda: self.make_scheduler(scheduler_kind, cfg, offline_top_k)
        return AsyncServingEngine(
            engine, get_model_spec(self.priced_model_name), device=device,
            framework=framework, scheduler_factory=factory, **serving_kwargs)

    def router_fleet(
        self,
        n_replicas: int,
        route: str = "round_robin",
        scheduling: str = "fifo_priority",
        faults=None,
        fault_seed: int = 0,
        failover: bool = True,
        **async_kwargs,
    ) -> "ServingRouter":
        """Data-parallel fleet: ``n_replicas`` async serving replicas behind
        a :class:`~repro.serving.router.ServingRouter`.

        Every replica is built through :meth:`async_serving_engine` (its own
        KV pool, ledger and scheduling-policy instance; SpecEE assets are
        shared, so per-request tokens match a single-replica run).
        Engine keywords are shared by every replica — ``cluster=`` (a frozen
        :class:`~repro.distributed.ClusterSpec`) makes a fleet of modelled
        tp x pp shards.  ``faults``/``fault_seed``/``failover``
        configure deterministic fault injection and crash recovery (see
        :class:`~repro.serving.faults.FaultPlan` and the router docs).
        """
        from repro.serving.router import ServingRouter

        if n_replicas < 1:
            raise ValueError("n_replicas must be >= 1")
        replicas = []
        for index in range(n_replicas):
            kwargs = dict(async_kwargs)
            if "control_seed" in kwargs:
                # Decorrelate per-replica bandit exploration while staying
                # fully deterministic for a given base seed.
                kwargs["control_seed"] = kwargs["control_seed"] + index
            replicas.append(self.async_serving_engine(
                scheduling=scheduling, **kwargs))
        return ServingRouter(replicas, route=route, faults=faults,
                             fault_seed=fault_seed, failover=failover)

    def fresh_model(self) -> "LayeredLM":
        """A new model instance with identical semantics (independent state)."""
        if self.model_factory is not None:
            return self.model_factory()
        return SyntheticLayeredLM(self.model.profile, self.sim, seed=self.seed)


def build_rig(
    model_name: str,
    dataset: Optional[DatasetSpec] = None,
    flavor: str = "dense",
    sim: SimDims = _DEFAULT_SIM,
    seed: int = 0,
    **asset_kwargs,
) -> Rig:
    # Predictor banks depend only on the model's semantics, which flavors
    # share (AWQ's effects enter via calibration and the hardware profile),
    # so assets are always trained once on the dense flavor.
    bank, freqs = trained_assets(model_name, "dense", sim, seed, **asset_kwargs)
    model = make_model(model_name, dataset, flavor, sim, seed)
    speculator = Speculator(model.oracle, k=4, hit_rate=model.profile.draft_hit_rate)
    return Rig(model_name=model_name, flavor=flavor, model=model,
               speculator=speculator, bank=bank, offline_freqs=freqs,
               sim=sim, seed=seed)


# (TransformerConfig-ish key) -> (bank, offline frequencies)
_TRANSFORMER_ASSET_CACHE: Dict[Tuple, Tuple[PredictorBank, np.ndarray]] = {}


def build_transformer_rig(
    cfg=None,
    seed: int = 0,
    max_tokens: int = 512,
    k: int = 4,
    draft_hit_rate: float = 0.6,
    predictor_hidden: int = 64,
    predictor_depth: int = 2,
    train_prompts: int = 3,
    train_tokens: int = 20,
    epochs: int = 8,
    priced_as: str = "llama2-7b",
) -> Rig:
    """Rig over the real numpy transformer (:class:`TransformerLayeredLM`).

    Unlike the synthetic rig there is no semantic profile: the draft
    speculator runs over an :class:`~repro.model.oracle.NGramOracle` that is
    *not* distilled from the transformer, so with random weights verified
    early exits are rare — the point of this rig is measured wall-clock
    serving through genuine attention/FFN math, not calibrated accuracy.
    The predictor bank is trained on features harvested from the transformer
    itself, and the offline exit profile comes from a short profiling decode,
    through the same :func:`_exit_assets` as :func:`trained_assets`.  Assets
    are cached per (config, seed, sizes) so tests and the CLI pay the
    training cost once.
    """
    from repro.model.oracle import NGramOracle
    from repro.model.transformer_backend import TransformerLayeredLM
    from repro.nn.transformer import TransformerConfig

    cfg = cfg or TransformerConfig()
    model = TransformerLayeredLM(cfg, seed=seed, max_tokens=max_tokens)
    oracle = NGramOracle(cfg.vocab_size, order=3, seed=seed + 1)
    speculator = Speculator(oracle, k=k, hit_rate=draft_hit_rate)
    key = (cfg, seed, max_tokens, k, draft_hit_rate, predictor_hidden,
           predictor_depth, train_prompts, train_tokens, epochs)
    if key not in _TRANSFORMER_ASSET_CACHE:
        _TRANSFORMER_ASSET_CACHE[key] = _exit_assets(
            model, model, speculator, k=k, predictor_hidden=predictor_hidden,
            predictor_depth=predictor_depth, train_prompts=train_prompts,
            train_tokens=train_tokens, epochs=epochs,
            profile_prompts=2, profile_tokens=16, seed=seed)
    bank, freqs = _TRANSFORMER_ASSET_CACHE[key]
    return Rig(model_name="tiny-transformer", flavor="dense", model=model,
               speculator=speculator, bank=bank, offline_freqs=freqs,
               seed=seed,
               model_factory=lambda: TransformerLayeredLM(
                   cfg, seed=seed, max_tokens=max_tokens),
               priced_as=priced_as)


# (trained-rig parameter key) -> (trained lm, draft, bank, freqs, metadata)
_TRAINED_TRANSFORMER_ASSET_CACHE: Dict[Tuple, Tuple] = {}


def trained_transformer_config():
    """Default config for the LayerSkip-trained rig.

    Smaller vocabulary than the random-weight rig's default: the synthetic
    language is learnable in seconds and the LM head stays a small fraction
    of a layer's cost, so measured speedup reflects skipped layers rather
    than head amortisation.  The hidden dim is wide enough (128) that layer
    GEMMs dominate the interpreter's fixed per-step cost — at dim 64 the
    predictor/verify bookkeeping eats most of what the exits save and the
    measured speedup collapses toward 1x.
    """
    from repro.nn.transformer import TransformerConfig

    return TransformerConfig(vocab_size=64, dim=128, n_layers=8, n_heads=4,
                             intermediate_dim=256, max_positions=256)


def build_trained_transformer_rig(
    cfg=None,
    seed: int = 0,
    max_tokens: int = 256,
    k: int = 4,
    steps: int = 160,
    curriculum: str = "rotational",
    max_layer_dropout: float = 0.3,
    early_exit_scale: float = 0.5,
    corpus_sequences: int = 48,
    corpus_len: int = 33,
    distill_prompts: int = 16,
    rollout_len: int = 24,
    predictor_hidden: int = 64,
    predictor_depth: int = 2,
    train_prompts: int = 4,
    train_tokens: int = 24,
    epochs: int = 10,
    priced_as: str = "llama2-7b",
) -> Rig:
    """Rig whose transformer was LayerSkip-trained so exits actually fire.

    The full loop of ``repro.training`` runs once per parameter set (cached
    per process): train :class:`TrainableTransformerLM` on the synthetic
    corpus with layer dropout + early-exit losses, export the weights into
    the inference stack, distill the draft from the trained model's own
    predictions, then train the predictor bank and offline exit profile on
    the trained model — mirroring the paper, which trains predictors on
    MT-Bench traces and evaluates on the same distribution (Sec. 7.4.4).
    The backend uses ``kv_fill="propagate"`` (cheap K/V projection for
    skipped layers), so verified exits translate into wall-clock savings.
    """
    from repro.data.corpus import generate_corpus
    from repro.model.oracle import NGramOracle
    from repro.model.transformer_backend import TransformerLayeredLM
    from repro.nn.transformer import TrainableTransformerLM
    from repro.training import (
        DistilledNGramDraft, LayerSkipConfig, train_layerskip,
        export_inference_lm,
    )

    cfg = cfg or trained_transformer_config()
    key = (cfg, seed, max_tokens, k, steps, curriculum, max_layer_dropout,
           early_exit_scale, corpus_sequences, corpus_len,
           distill_prompts, rollout_len, predictor_hidden, predictor_depth,
           train_prompts, train_tokens, epochs)
    if key not in _TRAINED_TRANSFORMER_ASSET_CACHE:
        oracle = NGramOracle(cfg.vocab_size, order=3, seed=seed + 5)
        corpus = generate_corpus(oracle, n_sequences=corpus_sequences,
                                 seq_len=corpus_len, seed=seed + 1)
        trainable = TrainableTransformerLM(cfg, seed=seed, rope=True)
        report = train_layerskip(
            trainable, corpus,
            LayerSkipConfig(steps=steps, curriculum=curriculum,
                            max_layer_dropout=max_layer_dropout,
                            early_exit_scale=early_exit_scale, seed=seed))
        lm = export_inference_lm(trainable)
        prompts = generate_prompts(distill_prompts, cfg.vocab_size,
                                   seed=seed + 31)
        draft = DistilledNGramDraft.distill(lm, corpus, prompts,
                                            rollout_len=rollout_len, k=k)
        model = TransformerLayeredLM(lm=lm, max_tokens=max_tokens,
                                     kv_fill="propagate")
        bank, freqs = _exit_assets(
            model, model, draft, k=k, predictor_hidden=predictor_hidden,
            predictor_depth=predictor_depth, train_prompts=train_prompts,
            train_tokens=train_tokens, epochs=epochs,
            profile_prompts=2, profile_tokens=16, seed=seed)
        metadata = {
            "training_final_loss": report.final_loss,
            "training_accuracy": report.accuracy,
            "layer_agreement": report.agreement,
            "draft_hit_rate": draft.hit_rate,
        }
        _TRAINED_TRANSFORMER_ASSET_CACHE[key] = (lm, draft, bank, freqs, metadata)
    lm, draft, bank, freqs, metadata = _TRAINED_TRANSFORMER_ASSET_CACHE[key]
    factory = lambda: TransformerLayeredLM(lm=lm, max_tokens=max_tokens,
                                           kv_fill="propagate")
    return Rig(model_name="trained-transformer", flavor="dense",
               model=factory(), speculator=draft, bank=bank,
               offline_freqs=freqs, seed=seed, model_factory=factory,
               priced_as=priced_as, metadata=dict(metadata))


@dataclass
class EvalRun:
    """Aggregated outcome of an engine over a dataset."""

    dataset: str
    engine: str
    ledger: CostLedger = field(default_factory=CostLedger)
    accuracy: float = float("nan")
    ppl: float = float("nan")
    avg_layers: float = float("nan")
    theoretical_layers: float = float("nan")
    exit_layers: List[int] = field(default_factory=list)
    n_items: int = 0

    @property
    def tokens(self) -> int:
        return self.ledger.tokens_generated


EngineFactory = Callable[[], object]


def run_items(
    engine_factory: EngineFactory,
    spec: DatasetSpec,
    items: Sequence[DatasetItem],
    engine_name: str = "engine",
    n_layers: Optional[int] = None,
) -> EvalRun:
    """Run a fresh engine per item and aggregate metrics.

    Classification items decode ``reasoning + answer`` tokens with the
    planted script; generation items run teacher-forced over the reference.
    """
    run = EvalRun(dataset=spec.name, engine=engine_name)
    outcomes: List[bool] = []
    logprobs: List[float] = []
    exit_layers: List[int] = []
    theoretical: List[float] = []
    for item in items:
        engine = engine_factory()
        if spec.kind == "classification":
            assert item.script is not None and item.gold is not None
            n_tokens = item.answer_start + len(item.gold)
            result: GenerationResult = engine.generate(
                item.prompt, n_tokens, script=item.script
            )
            outcomes.append(answer_matches(result.tokens, item.gold, item.answer_start))
        else:
            assert item.reference is not None
            result = engine.generate(item.prompt, 0, force_tokens=item.reference)
            logprobs.extend(result.logprobs)
        run.ledger.merge(result.ledger)
        exit_layers.extend(result.exit_layers)
        theoretical.extend(_theoretical_layers(result, n_layers))
        run.n_items += 1
    if outcomes:
        run.accuracy = accuracy_percent(outcomes)
    if logprobs:
        run.ppl = perplexity_from_logprobs(logprobs)
    if exit_layers:
        run.avg_layers = float(np.mean(np.asarray(exit_layers) + 1))
        run.exit_layers = exit_layers
    if theoretical:
        run.theoretical_layers = float(np.mean(theoretical))
    return run


def _theoretical_layers(result: GenerationResult, n_layers: Optional[int]) -> List[float]:
    """Per-token theoretical earliest forward layers (1-based): the
    saturation depth on draft hits, full depth on misses."""
    if n_layers is None or not result.saturations:
        return []
    out: List[float] = []
    for i, rec in enumerate(result.records):
        if i >= len(result.saturations):
            break
        sat = result.saturations[i]
        if rec.draft_hit:
            out.append(min(sat, n_layers - 1) + 1)
        else:
            out.append(float(n_layers))
    return out
