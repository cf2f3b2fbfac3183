"""T1 feature extraction (paper Sec. 4.3.1).

Three features per speculative token, computed from the *speculative LM
head* — the ``hidden_dim x k`` column slice of the full LM head:

1. **Speculative token logits** — raw confidence of the LLM on each
   candidate.
2. **Local probabilities** — softmax over only the ``k`` candidates
   (local, not global, information).
3. **Probability variation** — difference of local probabilities between the
   current and the previously evaluated layer, capturing the probability
   shift of Fig. 5.

Figure 6 shows why all three are necessary: variation alone aliases
(0.32-0.20 vs 0.58-0.46), and local probabilities alone alias across logit
scales.  The feature-necessity experiment reproduces that ablation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.utils.mathx import as_float, softmax

__all__ = ["FeatureExtractor", "feature_names"]


def feature_names(k: int) -> list[str]:
    """Column names of the feature vector for ``k`` speculative tokens."""
    return (
        [f"logit_{i}" for i in range(k)]
        + [f"local_prob_{i}" for i in range(k)]
        + [f"prob_variation_{i}" for i in range(k)]
    )


class FeatureExtractor:
    """Stateful per-step extractor: remembers the last local probabilities.

    ``reset`` must be called at the start of every generated token; the first
    evaluated layer of a step reports zero variation (there is no previous
    measurement), later layers report the difference since the last
    *evaluated* layer — which, under predictor scheduling, is not necessarily
    the adjacent one.  Features keep the dtype of the sliced logits.
    """

    def __init__(self, k: int):
        if k < 1:
            raise ValueError("k must be >= 1")
        self.k = k
        self._last_probs: Optional[np.ndarray] = None
        self._features = np.zeros(3 * k)

    @property
    def feature_dim(self) -> int:
        return 3 * self.k

    def reset(self) -> None:
        self._last_probs = None

    def extract(self, spec_logits: np.ndarray) -> np.ndarray:
        """Build the 3k-dim feature vector from sliced logits.

        The vector is written into one buffer the extractor owns and reuses:
        it is valid until the next call — copy it to keep it.
        """
        k, spec_logits = self.k, as_float(spec_logits)
        if spec_logits.shape != (k,):
            raise ValueError(f"expected {k} sliced logits, got {spec_logits.shape}")
        if self._features.dtype != spec_logits.dtype:
            self._features = np.zeros(3 * k, spec_logits.dtype)
        feats = self._features
        feats[:k] = spec_logits
        local_probs = softmax(spec_logits)
        feats[k:2 * k] = local_probs
        if self._last_probs is None:
            feats[2 * k:] = 0.0
        else:
            np.subtract(local_probs, self._last_probs, out=feats[2 * k:])
        self._last_probs = local_probs
        return feats

    @staticmethod
    def extract_rows(
        spec_logits: np.ndarray, last_probs: np.ndarray, has_last: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized per-sequence extraction with per-row variation validity.

        ``spec_logits`` is ``[m, k]`` (one row per live sequence) and
        ``last_probs``/``has_last`` carry each row's own history: rows whose
        ``has_last`` is False are at their first evaluated layer of the step
        and report zero variation.  Returns (features ``[m, 3k]``, local
        probabilities ``[m, k]``).  Row ``i`` matches :meth:`extract` on the
        same history exactly — the softmax is row-wise and the variation a
        plain elementwise subtraction — which is what lets the batched
        serving tick score every live sequence in one pass.
        """
        spec_logits = as_float(spec_logits)
        k = spec_logits.shape[1]
        feats = np.empty((len(spec_logits), 3 * k), spec_logits.dtype)
        feats[:, :k] = spec_logits
        feats[:, k:2 * k] = probs = softmax(spec_logits, axis=-1)
        np.subtract(probs, last_probs, out=feats[:, 2 * k:])
        feats[~np.asarray(has_last), 2 * k:] = 0.0
        return feats, probs
