"""The predictor-scheduler interface every placement policy implements."""

import abc

__all__ = ["Scheduler"]


class Scheduler(abc.ABC):
    """Decides, per layer, whether the exit predictor runs."""

    @abc.abstractmethod
    def is_active(self, layer: int) -> bool: ...

    def observe_exit(self, layer: int) -> None:
        """Feed back an observed early exit (default: stateless)."""

    def reset(self) -> None:
        """Clear per-sequence state (default: stateless)."""

    @abc.abstractmethod
    def active_count(self) -> float:
        """Current number of active predictor layers (for reporting)."""
