"""Tests for the hardware models: ledger, latency, energy, memory."""

import numpy as np
import pytest

from repro.config import get_model_spec
from repro.hardware.cluster import make_cluster
from repro.hardware.devices import DEVICES, get_device
from repro.hardware.energy import EnergyModel
from repro.hardware.frameworks import FRAMEWORKS, get_framework
from repro.hardware.latency import LatencyModel
from repro.hardware.ledger import CostLedger, Event
from repro.hardware.memory import MemoryModel


class TestLedger:
    def test_add_and_counts(self):
        ledger = CostLedger()
        ledger.add(Event.DECODER_LAYER, calls=3)
        ledger.add(Event.LM_HEAD_SLICE, units=4)
        assert ledger.calls(Event.DECODER_LAYER) == 3
        assert ledger.units(Event.DECODER_LAYER) == 3
        assert ledger.units(Event.LM_HEAD_SLICE) == 4

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            CostLedger().add("not_an_event")

    def test_merge_accumulates(self):
        a, b = CostLedger(), CostLedger()
        a.add(Event.DECODER_LAYER, calls=2)
        b.add(Event.DECODER_LAYER, calls=5)
        b.tokens_generated = 3
        b.steps = 3
        a.merge(b)
        assert a.calls(Event.DECODER_LAYER) == 7
        assert a.tokens_generated == 3
        assert a.steps == 3

    def test_copy_independent(self):
        a = CostLedger()
        a.add(Event.PREDICTOR)
        c = a.copy()
        c.add(Event.PREDICTOR)
        assert a.calls(Event.PREDICTOR) == 1

    def test_layers_per_token(self):
        ledger = CostLedger()
        ledger.add(Event.DECODER_LAYER, calls=48)
        ledger.tokens_generated = 2
        assert ledger.decoder_layers_per_token == 24


class TestDevicesFrameworks:
    def test_registries_complete(self):
        assert {"a100-80g", "rtx4090", "rtx4060-laptop"} <= set(DEVICES)
        assert {"hf", "vllm", "awq", "llama.cpp", "powerinfer"} <= set(FRAMEWORKS)

    def test_unknown_lookups(self):
        with pytest.raises(KeyError):
            get_device("tpu")
        with pytest.raises(KeyError):
            get_framework("tensorrt")

    def test_awq_uses_narrow_weights(self):
        assert get_framework("awq").weight_bytes_per_param < 1.0

    def test_offload_fraction_bounds(self):
        with pytest.raises(ValueError):
            get_framework("hf").with_overrides(gpu_weight_fraction=0.0)

    def test_device_rejects_negative_overhead_and_power(self):
        from dataclasses import replace

        good = get_device("a100-80g")
        with pytest.raises(ValueError, match="kernel_overhead_us"):
            replace(good, kernel_overhead_us=-1.0)
        with pytest.raises(ValueError, match="tdp_w/idle_w"):
            replace(good, tdp_w=-400.0)
        with pytest.raises(ValueError, match="tdp_w/idle_w"):
            replace(good, idle_w=-5.0)
        with pytest.raises(ValueError, match="dynamic headroom"):
            replace(good, idle_w=good.tdp_w + 1.0)
        # Zero overhead is a legal (idealised) device.
        assert replace(good, kernel_overhead_us=0.0).kernel_overhead_us == 0.0


def make_ledger(layers=32, tokens=10):
    ledger = CostLedger()
    ledger.add(Event.DECODER_LAYER, calls=layers * tokens)
    ledger.add(Event.LM_HEAD_FULL, calls=tokens)
    ledger.tokens_generated = tokens
    ledger.steps = tokens
    return ledger


class TestLatencyModel:
    def test_hf_7b_a100_calibration(self):
        """Modelled HF Llama2-7B on A100 lands near the paper's ~42 tok/s."""
        model = LatencyModel(get_model_spec("llama2-7b"), "a100-80g", "hf")
        tps = model.price(make_ledger()).tokens_per_second
        assert 35 < tps < 50

    def test_bigger_model_slower(self):
        l7 = LatencyModel(get_model_spec("llama2-7b"), "a100-80g", "hf")
        l13 = LatencyModel(get_model_spec("llama2-13b"), "a100-80g", "hf")
        t7 = l7.price(make_ledger(32)).total_s
        t13 = l13.price(make_ledger(40)).total_s
        assert t13 > t7

    def test_more_bandwidth_faster(self):
        spec = get_model_spec("llama2-7b")
        a100 = LatencyModel(spec, "a100-80g", "vllm").price(make_ledger()).total_s
        laptop = LatencyModel(spec, "rtx4060-laptop", "vllm").price(make_ledger()).total_s
        assert laptop > a100

    def test_fewer_layers_faster(self):
        model = LatencyModel(get_model_spec("llama2-7b"), "a100-80g", "hf")
        full = model.price(make_ledger(32)).total_s
        early = model.price(make_ledger(23)).total_s
        assert early < full * 0.85

    def test_batched_verify_cheaper_than_serial(self):
        model = LatencyModel(get_model_spec("llama2-7b"), "a100-80g", "hf")
        assert model.decoder_layer_time(10.0) < 5 * model.decoder_layer_time(1.0)

    def test_per_event_sums_to_total_minus_overhead(self):
        model = LatencyModel(get_model_spec("llama2-7b"), "a100-80g", "hf")
        ledger = make_ledger()
        breakdown = model.price(ledger)
        accounted = sum(breakdown.per_event_s.values())
        overhead = ledger.steps * model.framework.token_overhead_us * 1e-6
        assert breakdown.total_s == pytest.approx(accounted + overhead)

    def test_offload_requires_cpu(self):
        with pytest.raises(ValueError):
            LatencyModel(get_model_spec("llama2-7b"), "rtx4060-laptop", "llama.cpp")

    def test_offload_prices_cpu_share(self):
        spec = get_model_spec("llama2-7b")
        hybrid = LatencyModel(spec, "rtx4060-laptop", "llama.cpp",
                              cpu_device="i7-13650hx")
        tps = hybrid.price(make_ledger()).tokens_per_second
        assert 3 < tps < 12  # the paper's llama.cpp baseline is ~5.6 tok/s

    def test_predictor_time_small_vs_layer(self):
        model = LatencyModel(get_model_spec("llama2-7b"), "a100-80g", "hf")
        assert model.predictor_time() < 0.2 * model.decoder_layer_time()


def _decode_tick(tp, pp):
    tick = CostLedger()
    tick.add(Event.DRAFT_STEP, calls=8)
    tick.add(Event.LM_HEAD_SLICE, calls=21, units=84)
    tick.add(Event.PREDICTOR, calls=21)
    tick.add(Event.LM_HEAD_FULL, calls=11)
    tick.add(Event.KV_FILL, calls=5, units=43)
    tick.add(Event.BATCH_DECODER_LAYER, calls=32, units=213)
    tick.tokens_generated = 8
    tick.steps = 8
    return tick


def _prefill_decode_tick(tp, pp):
    tick = CostLedger()
    tick.add(Event.PREFIX_REUSE, calls=2, units=96)
    tick.add(Event.PREFILL_LAYER, calls=64, units=64 * 37)
    tick.add(Event.KV_SWAP, calls=3, units=150)
    tick.add(Event.DRAFT_STEP, calls=6)
    tick.add(Event.LM_HEAD_SLICE, calls=14, units=49)
    tick.add(Event.PREDICTOR, calls=14)
    tick.add(Event.LM_HEAD_FULL, calls=7)
    tick.add(Event.KV_FILL, calls=3, units=22)
    tick.add(Event.BATCH_DECODER_LAYER, calls=58, units=170)
    if tp > 1:  # a collective on tp=1 / a bubble on pp=1 is refused
        tick.add(Event.ALLREDUCE, calls=244, units=2 * (64 * 37 + 170))
    if pp > 1:
        tick.add(Event.PIPELINE_BUBBLE, calls=16, units=16 * 19.75)
    tick.tokens_generated = 6
    tick.steps = 6
    return tick


def _tree_verify_run(tp, pp):
    run = CostLedger()
    run.prompt_tokens = 3
    run.add(Event.PREFILL_LAYER, calls=32, units=96)
    run.add(Event.DRAFT_STEP, calls=80)
    run.add(Event.TREE_VERIFY_LAYER, calls=410, units=410 * 27)
    run.add(Event.TREE_FEATURE_GEMM, calls=120, units=120 * 27)
    run.add(Event.PREDICTOR, calls=120)
    run.add(Event.LM_HEAD_FULL, calls=29 * 27)
    run.add(Event.KV_FILL, calls=12, units=131)
    run.tokens_generated = 61
    run.steps = 20
    return run


class TestLatencyPinned:
    """Three fixed ledgers priced at five machine shapes, every number a
    literal measured on the commit before ISSUE 24 — from ``LatencyModel`` at
    1x1 and from the since-deleted ``ClusterLatencyModel`` elsewhere.  With
    one implementation left there is no second one to compare against; this
    table is the net.  ``"preempt"`` pins ``full_depth_token_time()`` and
    ``preempt_costs(37, 120)`` in the same (total, parts) layout.
    """

    LEDGERS = {"decode": _decode_tick, "prefill_decode": _prefill_decode_tick,
               "tree_verify": _tree_verify_run}
    PINNED = {
        ("a100-80g", 1, 1): {
            "decode": (0.033533472717999016, {
                "batch_decoder_layer": 0.015488904267951418,
                "lm_head_full": 0.0021347276635028706,
                "lm_head_slice": 0.00010549629864697227,
                "predictor_forward": 0.001260137102501226,
                "draft_step": 0.0052579671926838425,
                "kv_fill": 0.0020862401927126905,
            }),
            "prefill_decode": (0.061394973360643916, {
                "prefill_layer": 0.022523517064304877,
                "batch_decoder_layer": 0.023027629728528978,
                "lm_head_full": 0.001358463058592736,
                "lm_head_slice": 7.024814932348612e-05,
                "predictor_forward": 0.0008400914016674839,
                "draft_step": 0.003943475394512882,
                "kv_fill": 0.0010698205637134698,
                "kv_swap": 0.0031507279999999998,
                "prefix_reuse": 1.1e-05,
            }),
            "tree_verify": (0.6412672506268933, {
                "prefill_layer": 0.011261758532152439,
                "tree_verify_layer": 0.39324914607506567,
                "lm_head_full": 0.1519537964111589,
                "predictor_forward": 0.007200783442864149,
                "draft_step": 0.05257967192683843,
                "kv_fill": 0.006345522447566569,
                "tree_feature_gemm": 0.0006765717912471512,
            }),
            "preempt": (0.011261758532152439, {
                "swap": 0.00156189248,
                "recompute": 0.012990542769230768,
            }),
        },
        ("a100-80g", 2, 1): {
            "decode": (0.026749020584023307, {
                "batch_decoder_layer": 0.008704452133975709,
                "lm_head_full": 0.0021347276635028706,
                "lm_head_slice": 0.00010549629864697227,
                "predictor_forward": 0.001260137102501226,
                "draft_step": 0.0052579671926838425,
                "kv_fill": 0.0020862401927126905,
            }),
            "prefill_decode": (0.04388200860422699, {
                "prefill_layer": 0.013181758532152438,
                "batch_decoder_layer": 0.013253814864264489,
                "lm_head_full": 0.001358463058592736,
                "lm_head_slice": 7.024814932348612e-05,
                "predictor_forward": 0.0008400914016674839,
                "draft_step": 0.003943475394512882,
                "kv_fill": 0.0010698205637134698,
                "kv_swap": 0.0031507279999999998,
                "prefix_reuse": 1.1e-05,
                "allreduce": 0.00160260864,
            }),
            "tree_verify": (0.45227179832328424, {
                "prefill_layer": 0.006590879266076219,
                "tree_verify_layer": 0.2089245730375328,
                "lm_head_full": 0.1519537964111589,
                "predictor_forward": 0.007200783442864149,
                "draft_step": 0.05257967192683843,
                "kv_fill": 0.006345522447566569,
                "tree_feature_gemm": 0.0006765717912471512,
            }),
            "preempt": (0.006590879266076219, {
                "swap": 0.00156189248,
                "recompute": 0.007455271384615384,
            }),
        },
        ("a100-80g", 1, 2): {
            "decode": (0.02578902058402331, {
                "batch_decoder_layer": 0.007744452133975709,
                "lm_head_full": 0.0021347276635028706,
                "lm_head_slice": 0.00010549629864697227,
                "predictor_forward": 0.001260137102501226,
                "draft_step": 0.0052579671926838425,
                "kv_fill": 0.0020862401927126905,
            }),
            "prefill_decode": (0.04994728100941753, {
                "prefill_layer": 0.011261758532152439,
                "batch_decoder_layer": 0.011513814864264489,
                "lm_head_full": 0.001358463058592736,
                "lm_head_slice": 7.024814932348612e-05,
                "predictor_forward": 0.0008400914016674839,
                "draft_step": 0.003943475394512882,
                "kv_fill": 0.0010698205637134698,
                "kv_swap": 0.001577864,
                "prefix_reuse": 1.1e-05,
                "pipeline_bubble": 0.012900745045190547,
            }),
            "tree_verify": (0.43901179832328424, {
                "prefill_layer": 0.005630879266076219,
                "tree_verify_layer": 0.19662457303753283,
                "lm_head_full": 0.1519537964111589,
                "predictor_forward": 0.007200783442864149,
                "draft_step": 0.05257967192683843,
                "kv_fill": 0.006345522447566569,
                "tree_feature_gemm": 0.0006765717912471512,
            }),
            "preempt": (0.011261758532152439, {
                "swap": 0.0007859462400000001,
                "recompute": 0.006495271384615384,
            }),
        },
        ("a100-80g", 2, 2): {
            "decode": (0.022396794517035457, {
                "batch_decoder_layer": 0.004352226066987854,
                "lm_head_full": 0.0021347276635028706,
                "lm_head_slice": 0.00010549629864697227,
                "predictor_forward": 0.001260137102501226,
                "draft_step": 0.0052579671926838425,
                "kv_fill": 0.0020862401927126905,
            }),
            "prefill_decode": (0.036153503868613796, {
                "prefill_layer": 0.006590879266076219,
                "batch_decoder_layer": 0.0066269074321322445,
                "lm_head_full": 0.001358463058592736,
                "lm_head_slice": 7.024814932348612e-05,
                "predictor_forward": 0.0008400914016674839,
                "draft_step": 0.003943475394512882,
                "kv_fill": 0.0010698205637134698,
                "kv_swap": 0.001577864,
                "prefix_reuse": 1.1e-05,
                "allreduce": 0.00160260864,
                "pipeline_bubble": 0.007062145962595274,
            }),
            "tree_verify": (0.34451407217147967, {
                "prefill_layer": 0.0032954396330381096,
                "tree_verify_layer": 0.1044622865187664,
                "lm_head_full": 0.1519537964111589,
                "predictor_forward": 0.007200783442864149,
                "draft_step": 0.05257967192683843,
                "kv_fill": 0.006345522447566569,
                "tree_feature_gemm": 0.0006765717912471512,
            }),
            "preempt": (0.006590879266076219, {
                "swap": 0.0007859462400000001,
                "recompute": 0.003727635692307692,
            }),
        },
        ("rtx4060-laptop", 1, 1): {
            "decode": (0.35958065107438014, {
                "batch_decoder_layer": 0.27571495907438015,
                "lm_head_full": 0.015721444444444448,
                "lm_head_slice": 0.00015073333333333333,
                "predictor_forward": 0.0015130920000000002,
                "draft_step": 0.03881760000000001,
                "kv_fill": 0.015662822222222223,
            }),
            "prefill_decode": (0.6042254274873409, {
                "prefill_layer": 0.14566400000000002,
                "batch_decoder_layer": 0.3981523937095631,
                "lm_head_full": 0.010004555555555556,
                "lm_head_slice": 9.986666666666666e-05,
                "predictor_forward": 0.0010087280000000002,
                "draft_step": 0.029113200000000006,
                "kv_fill": 0.008016955555555556,
                "kv_swap": 0.003152728,
                "prefix_reuse": 1.3000000000000001e-05,
            }),
            "tree_verify": (9.121912109898988, {
                "prefill_layer": 0.07283200000000001,
                "tree_verify_layer": 7.4540582254545455,
                "lm_head_full": 1.119081,
                "predictor_forward": 0.008646240000000001,
                "draft_step": 0.3881760000000001,
                "kv_fill": 0.04770264444444444,
                "tree_feature_gemm": 0.001416,
            }),
            "preempt": (0.19061849161747343, {
                "swap": 0.00156589248,
                "recompute": 0.12031031854545454,
            }),
        },
    }

    @pytest.mark.parametrize("shape", PINNED, ids=lambda s: "{}-tp{}-pp{}".format(*s))
    def test_prices_match_the_parent_commit(self, shape):
        device, tp, pp = shape
        laptop = device == "rtx4060-laptop"
        model = LatencyModel(
            get_model_spec("llama2-7b"), device,
            "llama.cpp" if laptop else "vllm",
            cpu_device="i7-13650hx" if laptop else None,
            cluster=make_cluster(device, tp=tp, pp=pp))
        for name, build in self.LEDGERS.items():
            priced = model.price(build(tp, pp))
            assert (priced.total_s, priced.per_event_s) == self.PINNED[shape][name], name
        assert (model.full_depth_token_time(),
                model.preempt_costs(37.0, 120.0)) == self.PINNED[shape]["preempt"]

    def test_cluster_must_be_built_from_the_device(self):
        with pytest.raises(ValueError, match="rtx4090"):
            LatencyModel(get_model_spec("llama2-7b"), "rtx4090", "vllm",
                         cluster=make_cluster("a100-80g", tp=2))


class TestEnergyModel:
    def test_power_between_idle_and_tdp(self):
        device = get_device("a100-80g")
        energy = EnergyModel(device)
        for kind in Event.ALL:
            p = energy.power_during(kind)
            assert device.idle_w <= p <= device.tdp_w

    def test_dense_power_calibration(self):
        """Dense decode draws ~200 W on the A100 (paper Sec. 7.3.1)."""
        model = LatencyModel(get_model_spec("llama2-7b"), "a100-80g", "hf")
        report = EnergyModel(get_device("a100-80g")).report(model.price(make_ledger()))
        assert 175 < report.avg_power_w < 225

    def test_early_exit_reduces_power_and_energy(self):
        model = LatencyModel(get_model_spec("llama2-7b"), "a100-80g", "hf")
        energy = EnergyModel(get_device("a100-80g"))
        dense = energy.report(model.price(make_ledger(32)))
        # Early-exit ledger: fewer layers plus predictor/draft events.
        ledger = make_ledger(23)
        ledger.add(Event.PREDICTOR, calls=8 * 10)
        ledger.add(Event.DRAFT_STEP, calls=10)
        specee = energy.report(model.price(ledger))
        assert specee.avg_power_w < dense.avg_power_w
        assert specee.energy_per_token_j < dense.energy_per_token_j


class TestMemoryModel:
    def test_draft_overhead_magnitudes(self):
        m7 = MemoryModel(get_model_spec("llama2-7b"), use_draft=True)
        m13 = MemoryModel(get_model_spec("llama2-13b"), use_draft=True)
        assert 0.6 < m7.draft_gib < 1.2      # paper ~0.9 GB
        assert 1.0 < m13.draft_gib < 1.8     # paper ~1.4 GB

    def test_predictors_negligible(self):
        from repro.core.predictor import PredictorBank

        bank = PredictorBank(32, feature_dim=12, hidden_dim=512)
        model = MemoryModel(get_model_spec("llama2-7b"),
                            predictor_params=bank.total_params)
        assert 300 < model.predictors_kib < 900  # paper quotes ~416 KB (no biases)

    def test_kv_growth_linear(self):
        model = MemoryModel(get_model_spec("llama2-7b"))
        assert model.kv_gib(2000) == pytest.approx(2 * model.kv_gib(1000))

    def test_timeline_monotone(self):
        model = MemoryModel(get_model_spec("llama2-7b"), use_draft=True)
        timeline = model.timeline(3000, points=10)
        assert all(b >= a for a, b in zip(timeline.gib, timeline.gib[1:]))

    def test_overhead_vs_baseline(self):
        spec = get_model_spec("llama2-7b")
        base = MemoryModel(spec)
        specee = MemoryModel(spec, use_draft=True, predictor_params=100_000)
        assert specee.overhead_vs(base) > 0.5
