"""Fixed-capacity circular queue.

This is the data structure the paper's online scheduler maintains: a circular
queue of the exit-layer positions of the last ``N`` generated tokens
(Section 5.3, "Online Scheduling").
"""

from __future__ import annotations

from typing import Iterator, List, Optional

__all__ = ["CircularQueue"]


class CircularQueue:
    """Bounded FIFO that overwrites its oldest element when full.

    >>> q = CircularQueue(3)
    >>> for v in (1, 2, 3, 4):
    ...     _ = q.push(v)
    >>> list(q)
    [2, 3, 4]
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = int(capacity)
        self._buf: List[Optional[int]] = [None] * self.capacity
        self._start = 0
        self._size = 0

    def push(self, value: int) -> Optional[int]:
        """Append ``value``; return the evicted element if the queue was full."""
        evicted = None
        if self._size == self.capacity:
            evicted = self._buf[self._start]
            self._buf[self._start] = value
            self._start = (self._start + 1) % self.capacity
        else:
            self._buf[(self._start + self._size) % self.capacity] = value
            self._size += 1
        return evicted

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[int]:
        """Yield elements oldest first."""
        for i in range(self._size):
            value = self._buf[(self._start + i) % self.capacity]
            assert value is not None
            yield value

    def __contains__(self, value: int) -> bool:
        return any(v == value for v in self)

    @property
    def full(self) -> bool:
        return self._size == self.capacity

    def newest(self) -> Optional[int]:
        """Most recently pushed element, or ``None`` when empty."""
        if self._size == 0:
            return None
        return self._buf[(self._start + self._size - 1) % self.capacity]

    def clear(self) -> None:
        self._buf = [None] * self.capacity
        self._start = 0
        self._size = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"CircularQueue(capacity={self.capacity}, items={list(self)})"
