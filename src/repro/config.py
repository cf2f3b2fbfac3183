"""Model and engine configuration.

Two kinds of "model size" coexist in this reproduction:

* **Architectural dimensions** (``ModelSpec``) — the *real* Llama2 shapes
  (hidden 4096, 32 layers, vocab 32000, ...).  These drive the hardware cost
  model: every priced FLOP and byte uses the true dimensions, so modelled
  tokens/s land in the paper's magnitude.
* **Simulation dimensions** (``SimDims``) — the small embedding space the
  semantic substrate runs in (hidden 64, vocab 512 by default).  The engines
  execute real array math at this scale; only pricing uses ``ModelSpec``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict

__all__ = [
    "ModelSpec",
    "SimDims",
    "SpecEEConfig",
    "MODELS",
    "get_model_spec",
]


@dataclass(frozen=True)
class ModelSpec:
    """Architectural description of a target LLM (paper Table 3)."""

    name: str
    hidden_dim: int
    n_heads: int
    n_layers: int
    context_length: int
    vocab_size: int
    intermediate_dim: int
    n_kv_heads: int | None = None
    bytes_per_param: float = 2.0  # fp16 by default

    @property
    def kv_heads(self) -> int:
        return self.n_kv_heads if self.n_kv_heads is not None else self.n_heads

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.n_heads

    @property
    def layer_params(self) -> int:
        """Parameter count of one decoder layer (attention + SwiGLU FFN)."""
        d = self.hidden_dim
        kv_dim = self.kv_heads * self.head_dim
        attn = d * d + 2 * d * kv_dim + d * d  # Wq, Wk, Wv, Wo
        ffn = 3 * d * self.intermediate_dim  # gate, up, down
        norms = 2 * d
        return attn + ffn + norms

    @property
    def lm_head_params(self) -> int:
        return self.hidden_dim * self.vocab_size

    @property
    def embedding_params(self) -> int:
        return self.vocab_size * self.hidden_dim

    @property
    def total_params(self) -> int:
        return self.n_layers * self.layer_params + self.lm_head_params + self.embedding_params + self.hidden_dim

    @property
    def weight_bytes(self) -> float:
        return self.total_params * self.bytes_per_param

    def kv_bytes_per_token(self) -> float:
        """KV-cache bytes appended per generated token (all layers)."""
        return 2.0 * self.n_layers * self.kv_heads * self.head_dim * self.bytes_per_param

    def with_dtype_bytes(self, bytes_per_param: float) -> "ModelSpec":
        """Same architecture at a different storage width (e.g. int4 = 0.5)."""
        return replace(self, bytes_per_param=bytes_per_param)


@dataclass(frozen=True)
class SimDims:
    """Dimensions of the small semantic simulation space."""

    hidden_dim: int = 64
    vocab_size: int = 512

    def __post_init__(self) -> None:
        if self.hidden_dim < 8:
            raise ValueError("hidden_dim must be >= 8")
        if self.vocab_size < 32:
            raise ValueError("vocab_size must be >= 32")


@dataclass
class SpecEEConfig:
    """Tunable knobs of the SpecEE engine (paper defaults in comments)."""

    num_speculative: int = 4  # k draft tokens per step (Sec. 4.3.2)
    exit_threshold: float = 0.5  # sigmoid threshold (Sec. 4.3.2)
    context_window: int = 5  # circular queue length N (Sec. 5.3)
    layer_vicinity: int = 2  # +/- layers counted as "near" (Sec. 5.2)
    min_exit_layer: int = 2  # never exit before this layer
    scheduler: str = "two_level"  # "all" | "offline" | "online" | "two_level"
    verify_on_exit: bool = True  # Sec. 4.3.3 verification algorithm

    def __post_init__(self) -> None:
        for name, low in (("num_speculative", 1), ("context_window", 1),
                          ("layer_vicinity", 0), ("min_exit_layer", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}")
        if not 0.0 < self.exit_threshold < 1.0:
            raise ValueError("exit_threshold must lie in (0, 1)")
        if self.scheduler not in {"all", "offline", "online", "two_level"}:
            raise ValueError(f"unknown scheduler {self.scheduler!r}")

    @property
    def feature_dim(self) -> int:
        """Three features per speculative token (Sec. 4.3.1)."""
        return 3 * self.num_speculative


MODELS: Dict[str, ModelSpec] = {
    "llama2-7b": ModelSpec(
        name="llama2-7b", hidden_dim=4096, n_heads=32, n_layers=32,
        context_length=4096, vocab_size=32000, intermediate_dim=11008,
    ),
    "llama2-13b": ModelSpec(
        name="llama2-13b", hidden_dim=5120, n_heads=40, n_layers=40,
        context_length=4096, vocab_size=32000, intermediate_dim=13824,
    ),
    "llama2-70b": ModelSpec(
        name="llama2-70b", hidden_dim=8192, n_heads=64, n_layers=80,
        context_length=4096, vocab_size=32000, intermediate_dim=28672,
        n_kv_heads=8,
    ),
    "vicuna-7b": ModelSpec(
        name="vicuna-7b", hidden_dim=4096, n_heads=32, n_layers=32,
        context_length=4096, vocab_size=32000, intermediate_dim=11008,
    ),
}


def get_model_spec(name: str) -> ModelSpec:
    """Look up a model by name, with a helpful error for typos."""
    try:
        return MODELS[name]
    except KeyError:
        known = ", ".join(sorted(MODELS))
        raise KeyError(f"unknown model {name!r}; known models: {known}") from None
