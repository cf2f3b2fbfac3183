"""Tests for model/engine configuration."""

import pytest

from repro.config import MODELS, ModelSpec, SimDims, SpecEEConfig, get_model_spec


class TestModelSpec:
    def test_llama2_7b_parameter_count(self):
        spec = get_model_spec("llama2-7b")
        assert 6.4e9 < spec.total_params < 7.1e9

    def test_llama2_70b_uses_gqa(self):
        spec = get_model_spec("llama2-70b")
        assert spec.kv_heads == 8
        assert spec.head_dim == 128

    def test_weight_bytes_fp16(self):
        spec = get_model_spec("llama2-7b")
        assert spec.weight_bytes == pytest.approx(spec.total_params * 2.0)

    def test_kv_bytes_per_token(self):
        spec = get_model_spec("llama2-7b")
        # 2 (K and V) x layers x hidden x 2 bytes.
        assert spec.kv_bytes_per_token() == 2 * 32 * 4096 * 2

    def test_with_dtype(self):
        spec = get_model_spec("llama2-7b").with_dtype_bytes(0.5)
        assert spec.weight_bytes == pytest.approx(spec.total_params * 0.5)

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_model_spec("gpt-5")

    def test_registry_members(self):
        assert {"llama2-7b", "llama2-13b", "llama2-70b", "vicuna-7b"} <= set(MODELS)


class TestSimDims:
    def test_defaults(self):
        dims = SimDims()
        assert dims.hidden_dim == 64 and dims.vocab_size == 512

    def test_validation(self):
        with pytest.raises(ValueError):
            SimDims(hidden_dim=4)
        with pytest.raises(ValueError):
            SimDims(vocab_size=8)


class TestSpecEEConfig:
    def test_defaults_match_paper(self):
        cfg = SpecEEConfig()
        assert cfg.num_speculative == 4
        assert cfg.exit_threshold == 0.5
        assert cfg.context_window == 5
        assert cfg.layer_vicinity == 2
        assert cfg.feature_dim == 12

    def test_validation(self):
        with pytest.raises(ValueError):
            SpecEEConfig(num_speculative=0)
        with pytest.raises(ValueError):
            SpecEEConfig(exit_threshold=1.0)
        with pytest.raises(ValueError):
            SpecEEConfig(scheduler="nope")
