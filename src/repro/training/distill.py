"""Draft distillation from the trained transformer.

The synthetic rigs' :class:`~repro.model.draft.Speculator` proposes oracle
continuations, which a *trained* transformer does not reproduce — so exit
verification (full-head argmax must appear among the draft's candidates)
almost never passes.  :class:`DistilledNGramDraft` fixes that the way the
paper's draft models do: it is a small model fit to the big model's own
behaviour.

Distillation harvests two kinds of evidence from the trained inference
stack:

* **teacher-forced**: one full forward over each corpus row records, for
  every position, the model's argmax next token given the real context
  window;
* **on-policy rollouts**: greedy decodes from a prompt set record the
  model's argmax along its *own* trajectory — exactly the contexts a
  speculative decode visits.

Counts are kept per n-gram order (highest first) with backoff: a proposal
ranks candidates from the deepest context window that has been observed,
backing off to shorter windows and finally the model's global token
frequency.  Everything is deterministic (ties break on token id).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.nn.transformer import TinyTransformerLM

__all__ = ["DistilledNGramDraft"]


class DistilledNGramDraft:
    """Backoff n-gram draft fit to a trained model's own predictions.

    Duck-types :class:`~repro.model.draft.Speculator`: ``k``, ``hit_rate``,
    :meth:`propose` and :meth:`is_hit`.  ``hit_rate`` reports the fraction
    of distillation events whose context window was already in the
    highest-order table — a measured statistic, unlike the synthetic
    speculator's configured probability.
    """

    def __init__(self, vocab_size: int, k: int = 4, orders: Sequence[int] = (3, 2, 1)):
        if k < 1:
            raise ValueError("k must be >= 1")
        if not orders or list(orders) != sorted(orders, reverse=True):
            raise ValueError("orders must be non-empty and strictly decreasing")
        self.vocab_size = vocab_size
        self.k = k
        self.orders = tuple(int(o) for o in orders)
        self.tables: Dict[int, Dict[Tuple[int, ...], Counter]] = {
            order: {} for order in self.orders
        }
        self.global_counts: Counter = Counter()
        # Proposals, ranked on first use (the tables are frozen once
        # distilled) under the context's longest observed window — at most
        # one entry per table window, plus ``()``; :meth:`_record` clears it.
        self._proposals: Dict[Tuple[int, ...], List[int]] = {}
        self._hits = 0
        self._events = 0

    # -- fitting -------------------------------------------------------------
    def _record(self, context: Sequence[int], token: int) -> None:
        self._proposals.clear()
        self._events += 1
        if self.is_hit(context):
            self._hits += 1
        for order in self.orders:
            if len(context) < order:
                continue
            window = tuple(int(t) for t in context[-order:])
            self.tables[order].setdefault(window, Counter())[int(token)] += 1
        self.global_counts[int(token)] += 1

    def observe_teacher_forced(self, lm: TinyTransformerLM, corpus: np.ndarray) -> None:
        """Record the model's argmax at every position of ``corpus`` [N, T]."""
        corpus = np.asarray(corpus, dtype=np.int64)
        for row in corpus:
            cache = lm.new_cache(len(row))
            hidden = lm.forward_all(row, cache, np.arange(len(row)))
            preds = np.argmax(lm.lm_head(hidden), axis=-1)
            for t in range(len(row) - 1):
                self._record(row[: t + 1], int(preds[t]))

    def observe_rollout(
        self, lm: TinyTransformerLM, prompt: Sequence[int], length: int
    ) -> List[int]:
        """Greedy-decode ``length`` tokens from ``prompt`` and record every
        (context, argmax) transition along the model's own trajectory."""
        ctx = [int(t) % lm.cfg.vocab_size for t in prompt]
        cache = lm.new_cache(len(ctx) + length)
        hidden = lm.forward_all(np.asarray(ctx), cache, np.arange(len(ctx)))
        out: List[int] = []
        for _ in range(length):
            token = int(np.argmax(lm.lm_head(hidden[-1:])))
            self._record(ctx, token)
            out.append(token)
            hidden = lm.forward_all(np.asarray([token]), cache,
                                    np.asarray([len(ctx)]))
            ctx.append(token)
        return out

    @classmethod
    def distill(
        cls,
        lm: TinyTransformerLM,
        corpus: np.ndarray,
        prompts: Sequence[Sequence[int]] = (),
        rollout_len: int = 24,
        k: int = 4,
        orders: Sequence[int] = (3, 2, 1),
    ) -> "DistilledNGramDraft":
        """Fit a draft to ``lm`` from teacher-forced ``corpus`` rows plus
        greedy rollouts from ``prompts`` (see module docstring)."""
        draft = cls(lm.cfg.vocab_size, k=k, orders=orders)
        draft.observe_teacher_forced(lm, corpus)
        for prompt in prompts:
            draft.observe_rollout(lm, prompt, rollout_len)
        return draft

    # -- speculation interface ----------------------------------------------
    @property
    def hit_rate(self) -> float:
        """Measured highest-order coverage during distillation."""
        return self._hits / self._events if self._events else 0.0

    def is_hit(self, context: Sequence[int]) -> bool:
        """Whether the deepest context window has been observed."""
        order = self.orders[0]
        if len(context) < order:
            return False
        return tuple(map(int, context[-order:])) in self.tables[order]

    def propose(self, context: Sequence[int]) -> List[int]:
        """``k`` candidate next tokens, most-supported first.

        Candidates come from the deepest observed window's counts, backing
        off through shorter windows and the global frequency table; padded
        with unseen token ids if the tables cannot fill ``k`` slots.
        An unobserved tail backs off exactly as its one-shorter suffix does,
        so the answer is memoised under the longest observed suffix.
        """
        key = tuple(map(int, context[-self.orders[0]:]))
        while key and not self.tables.get(len(key), {}).get(key):
            key = key[1:]
        out = self._proposals.get(key)
        if out is None:
            out = self._proposals[key] = self._rank(key)
        return list(out)

    def _rank(self, tail: Tuple[int, ...]) -> List[int]:
        """:meth:`propose` for a context ending in ``tail`` and no longer."""
        out: List[int] = []
        windows = [tail[-order:] for order in self.orders if len(tail) >= order]
        for window in windows + [()]:
            counter = self.tables[len(window)].get(window) if window else self.global_counts
            if not counter:
                continue
            for token, _ in sorted(counter.items(), key=lambda kv: (-kv[1], kv[0])):
                if token not in out:
                    out.append(token)
                    if len(out) == self.k:
                        return out
        token = 0
        while len(out) < self.k:
            if token not in out:
                out.append(token)
            token += 1
        return out
