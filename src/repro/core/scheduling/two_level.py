"""Two-level scheduler: union of offline subset and online vicinity set.

The paper determines "the quantity and position of predictors ... by the
union of a subset of results selected by the offline scheduling, and the
results from the online scheduling" (Sec. 5.3).  The offline component
guarantees coverage of globally frequent exit layers (and bootstraps the
cold start before any exits are queued); the online component tracks the
current context.  Fig. 10(d) shows the resulting dynamic set (~10.2 layers
on average) beats any fixed predictor count.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, Optional

from repro.core.scheduling.base import Scheduler
from repro.core.scheduling.offline import OfflineScheduler
from repro.core.scheduling.online import OnlineScheduler

__all__ = [
    "Scheduler",
    "AllLayersScheduler",
    "FixedSetScheduler",
    "TwoLevelScheduler",
    "make_scheduler",
]


class AllLayersScheduler(Scheduler):
    """T1-only mode: a predictor after every layer (except the last)."""

    def __init__(self, n_layers: int):
        self.n_layers = n_layers

    def is_active(self, layer: int) -> bool:
        return layer < self.n_layers - 1

    def active_count(self) -> float:
        return float(self.n_layers - 1)


class FixedSetScheduler(Scheduler):
    """A static predictor placement (used by the Fig. 10b/d sweeps)."""

    def __init__(self, layers: Iterable[int]):
        self.layers = frozenset(int(l) for l in layers)

    def is_active(self, layer: int) -> bool:
        return layer in self.layers

    def active_count(self) -> float:
        return float(len(self.layers))


class TwoLevelScheduler(Scheduler):
    """Offline top-k union online vicinity set."""

    def __init__(
        self,
        n_layers: int,
        offline: Optional[OfflineScheduler] = None,
        offline_top_k: int = 4,
        window: int = 5,
        vicinity: int = 2,
    ):
        self.n_layers = n_layers
        self.online = OnlineScheduler(n_layers, window=window, vicinity=vicinity)
        if offline is not None:
            self.offline_set: FrozenSet[int] = offline.select_top_k(offline_top_k)
        else:
            self.offline_set = frozenset()
        # Cold start: before any exit is observed, fall back to offline-only
        # coverage; if that is empty too, run all predictors until warmed up.
        self._warm = False

    def is_active(self, layer: int) -> bool:
        if self.online.is_active(layer):
            return True
        if layer in self.offline_set:
            return True
        if not self._warm and not self.offline_set:
            return layer < self.n_layers - 1
        return False

    def observe_exit(self, layer: int) -> None:
        self._warm = True
        self.online.observe_exit(layer)

    def reset(self) -> None:
        self.online.reset()
        self._warm = False

    def active_count(self) -> float:
        return float(len(self.offline_set | self.online.active_set()))


def make_scheduler(
    kind: str,
    n_layers: int,
    offline: Optional[OfflineScheduler] = None,
    offline_top_k: int = 4,
    offline_top_fraction: float = 0.8,
    window: int = 5,
    vicinity: int = 2,
) -> Scheduler:
    """Factory covering the paper's configurations and the ablation modes."""
    if kind == "all":
        return AllLayersScheduler(n_layers)
    if kind == "offline":
        if offline is None:
            raise ValueError("offline scheduler requires profiled frequencies")
        return FixedSetScheduler(offline.select_mass(offline_top_fraction))
    if kind == "online":
        return TwoLevelScheduler(n_layers, offline=None, offline_top_k=0,
                                 window=window, vicinity=vicinity)
    if kind == "two_level":
        return TwoLevelScheduler(n_layers, offline=offline, offline_top_k=offline_top_k,
                                 window=window, vicinity=vicinity)
    raise ValueError(f"unknown scheduler kind {kind!r}")
