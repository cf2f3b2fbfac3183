"""Minimal reverse-mode automatic differentiation over numpy arrays.

Just enough machinery to train the tiny transformer LM and the reference
predictor: broadcast-aware elementwise ops, matmul, reductions, a handful of
activations, embedding lookup and a composed cross-entropy.  The design
follows the classic tape-based pattern: each :class:`Tensor` remembers its
parents and a closure that scatters its gradient back to them; ``backward``
runs the closures in reverse topological order.
"""

from __future__ import annotations

import contextlib
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Tensor", "no_grad", "cross_entropy"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager disabling graph construction (inference mode)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` by summing broadcast axes."""
    if grad.shape == shape:
        return grad
    # Sum leading axes added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum axes that were size-1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy array with an optional gradient tape entry."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and _GRAD_ENABLED
        self.grad: Optional[np.ndarray] = None
        self._parents: Tuple["Tensor", ...] = ()
        self._backward_fn: Optional[Callable[[np.ndarray], None]] = None

    # -- construction helpers ------------------------------------------------
    @staticmethod
    def _wrap(other) -> "Tensor":
        return other if isinstance(other, Tensor) else Tensor(other)

    @classmethod
    def _from_op(
        cls,
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = cls(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    # -- shape ---------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = self._wrap(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad, other.shape))

        return Tensor._from_op(self.data + other.data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(-grad)

        return Tensor._from_op(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-self._wrap(other))

    def __rsub__(self, other) -> "Tensor":
        return self._wrap(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = self._wrap(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(grad * self.data, other.shape))

        return Tensor._from_op(self.data * other.data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = self._wrap(other)
        return self * other ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return self._wrap(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise TypeError("tensor exponents are not supported")
        exponent = float(exponent)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * exponent * np.power(self.data, exponent - 1.0))

        return Tensor._from_op(np.power(self.data, exponent), (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = self._wrap(other)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = grad @ np.swapaxes(other.data, -1, -2)
                self._accumulate(_unbroadcast(g, self.shape))
            if other.requires_grad:
                g = np.swapaxes(self.data, -1, -2) @ grad
                other._accumulate(_unbroadcast(g, other.shape))

        return Tensor._from_op(self.data @ other.data, (self, other), backward)

    # -- activations ---------------------------------------------------------
    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data)

        return Tensor._from_op(out_data, (self,), backward)

    def log(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad / self.data)

        return Tensor._from_op(np.log(self.data), (self,), backward)

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (1.0 - out_data ** 2))

        return Tensor._from_op(out_data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * mask)

        return Tensor._from_op(self.data * mask, (self,), backward)

    def sigmoid(self) -> "Tensor":
        out_data = np.where(
            self.data >= 0,
            1.0 / (1.0 + np.exp(-np.abs(self.data))),
            np.exp(-np.abs(self.data)) / (1.0 + np.exp(-np.abs(self.data))),
        )

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * out_data * (1.0 - out_data))

        return Tensor._from_op(out_data, (self,), backward)

    def silu(self) -> "Tensor":
        """x * sigmoid(x) — the SwiGLU gate activation."""
        sig = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60, 60)))
        out_data = self.data * sig

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad * (sig + self.data * sig * (1.0 - sig)))

        return Tensor._from_op(out_data, (self,), backward)

    # -- reductions / reshaping ----------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if not self.requires_grad:
                return
            g = grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.shape).copy())

        return Tensor._from_op(self.data.sum(axis=axis, keepdims=keepdims), (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape: int) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.reshape(self.shape))

        return Tensor._from_op(self.data.reshape(*shape), (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        order = axes or tuple(reversed(range(self.ndim)))
        inverse = np.argsort(order)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate(grad.transpose(inverse))

        return Tensor._from_op(self.data.transpose(order), (self,), backward)

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Row gather (embedding lookup): out[i] = self[indices[i]]."""
        indices = np.asarray(indices, dtype=np.int64)

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                g = np.zeros_like(self.data)
                np.add.at(g, indices.reshape(-1), grad.reshape(-1, self.shape[-1]))
                self._accumulate(g)

        return Tensor._from_op(self.data[indices], (self,), backward)

    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax built from primitive ops."""
        shift = Tensor(np.max(self.data, axis=axis, keepdims=True))
        exps = (self - shift).exp()
        return exps / exps.sum(axis=axis, keepdims=True)

    # -- backward ------------------------------------------------------------
    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor (must be scalar unless grad given)."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without grad requires a scalar output")
            grad = np.ones_like(self.data)
        topo: List[Tensor] = []
        seen = set()

        def visit(node: "Tensor") -> None:
            if id(node) in seen or not node.requires_grad:
                return
            seen.add(id(node))
            for parent in node._parents:
                visit(parent)
            topo.append(node)

        visit(self)
        self._accumulate(np.asarray(grad, dtype=np.float64))
        for node in reversed(topo):
            if node._backward_fn is not None and node.grad is not None:
                node._backward_fn(node.grad)

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of ``logits`` [N, V] against integer ``targets`` [N].

    Composed from primitive ops (the max-shift is a constant, which is exact
    since subtracting a constant does not change the softmax).
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError(f"expected [N, V] logits, got shape {logits.shape}")
    n, v = logits.shape
    shift = Tensor(np.max(logits.data, axis=-1, keepdims=True))
    shifted = logits - shift
    log_z = shifted.exp().sum(axis=-1, keepdims=True).log()
    log_probs = shifted - log_z
    onehot = np.zeros((n, v))
    onehot[np.arange(n), targets] = 1.0
    picked = (log_probs * Tensor(onehot)).sum(axis=-1)
    return -picked.mean()
