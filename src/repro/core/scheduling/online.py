"""Online scheduling (paper Sec. 5.3, "Online Scheduling").

Exploits context similarity (Fig. 11): the exit layer of the current token
lands within +/-2 layers of one of the last five tokens' exits ~80% of the
time.  The scheduler maintains exactly the structures the paper describes —
a circular queue of the last ``N`` exit positions and a length-``L`` array
whose ``i``-th entry counts how many queued exits have layer ``i`` in their
vicinity.  A layer's predictor is activated iff its count is positive.
Updates are O(vicinity) per token.
"""

from __future__ import annotations

from typing import FrozenSet

import numpy as np

from repro.utils.ring import CircularQueue

__all__ = ["OnlineScheduler"]


class OnlineScheduler:
    """Circular-queue + counter-array online predictor scheduler."""

    def __init__(self, n_layers: int, window: int = 5, vicinity: int = 2):
        if n_layers < 2:
            raise ValueError("n_layers must be >= 2")
        self.n_layers = n_layers
        self.window = window
        self.vicinity = vicinity
        self._queue = CircularQueue(window)
        self._counts = np.zeros(n_layers, dtype=np.int64)

    def _vicinity_range(self, layer: int) -> range:
        return range(max(0, layer - self.vicinity), min(self.n_layers, layer + self.vicinity + 1))

    def observe_exit(self, layer: int) -> None:
        """Record an early exit at ``layer`` (full-depth exits are not pushed,
        mirroring the paper's queue of actual exit positions)."""
        if not 0 <= layer < self.n_layers:
            raise ValueError(f"layer {layer} out of range")
        evicted = self._queue.push(layer)
        for l in self._vicinity_range(layer):
            self._counts[l] += 1
        if evicted is not None:
            for l in self._vicinity_range(evicted):
                self._counts[l] -= 1

    def is_active(self, layer: int) -> bool:
        return bool(self._counts[layer] > 0)

    def active_set(self) -> FrozenSet[int]:
        return frozenset(int(l) for l in np.nonzero(self._counts > 0)[0])

    @property
    def active_count(self) -> int:
        return int(np.count_nonzero(self._counts > 0))

    def reset(self) -> None:
        self._queue.clear()
        self._counts[:] = 0
