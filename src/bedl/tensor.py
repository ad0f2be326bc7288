"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array and records its producing operation on an
implicit tape (the graph of parent links). Calling ``backward()`` on a
scalar root accumulates gradients into every reachable tensor that
requires them. Tapes are single-use: a second ``backward()`` on the same
root raises.

Every op validates that its result is finite and raises NumericsError
otherwise, so NaN/inf never propagate silently. ``fused`` is the only way
to build a tape node: a closed-form value with a hand-written gradient.
Every differentiable op of the model (each layer moment, likelihood head
and objective) is one such node, and conv layers build their receptive
fields inside theirs. add, mul, exp, log, reshape, take and tsum, with
``+``, ``*`` and ``[]``, are one fused node each too; no model code uses
them, they serve for composing nodes in tests and scripts.
"""

from __future__ import annotations

import numpy as np


class NumericsError(ArithmeticError):
    """A tensor op produced a non-finite value."""


def _check_finite(data: np.ndarray, op: str) -> np.ndarray:
    if not np.isfinite(data).all():
        raise NumericsError(f"non-finite result in op '{op}'")
    return data


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a broadcast gradient back down to the original operand shape."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] > 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward_fn", "_spent")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward_fn=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = requires_grad or any(p.requires_grad for p in _parents)
        self.grad: np.ndarray | None = None
        self._parents = _parents if self.requires_grad else ()
        self._backward_fn = _backward_fn if self.requires_grad else None
        self._spent = False

    # -- construction helpers ------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # a copy: ops such as add hand the same array to several parents
            self.grad = np.array(grad, dtype=np.float64)
        else:
            self.grad += grad

    def zero_grad(self) -> None:
        self.grad = None

    # -- backward ------------------------------------------------------------

    def backward(self) -> None:
        """Reverse sweep from a scalar root. Single use per tape."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar root")
        if self._spent:
            raise RuntimeError("tape already consumed; rebuild the graph to differentiate again")

        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        self._accumulate(np.ones_like(self.data))
        for node in reversed(order):
            if node._backward_fn is not None:
                node._backward_fn(node.grad)
        self._spent = True

    # -- operator sugar ------------------------------------------------------

    def __add__(self, other):
        return add(self, _wrap(other))

    def __radd__(self, other):
        return add(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __getitem__(self, idx):
        return take(self, idx)


class Parameter(Tensor):
    """Trainable tensor; gradient is accumulated across backward passes
    until ``zero_grad()``."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x) -> Tensor:
    return Tensor(x)


def fused(data: np.ndarray, parents: tuple, vjp, op: str) -> Tensor:
    """One tape node for a closed-form op: ``data`` is its value and
    ``vjp(g)`` returns one gradient per entry of ``parents`` (None for no
    gradient). A parent may be None for an absent operand. When no parent
    requires a gradient, no closure is recorded."""
    _check_finite(data, op)
    live = [p is not None and p.requires_grad for p in parents]
    if not any(live):
        return Tensor(data)

    def bw(g):
        for p, needed, grad in zip(parents, live, vjp(g)):
            if needed and grad is not None:
                p._accumulate(grad)

    return Tensor(data, _parents=tuple(p for p, n in zip(parents, live) if n), _backward_fn=bw)


# -- glue ops: each one fused node ------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    return fused(a.data + b.data, (a, b),
                 lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)), "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    return fused(a.data * b.data, (a, b), lambda g: (
        _unbroadcast(g * b.data, a.data.shape) if a.requires_grad else None,
        _unbroadcast(g * a.data, b.data.shape) if b.requires_grad else None), "mul")


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return fused(out, (a,), lambda g: (g * out,), "exp")


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("log of non-positive input")
    return fused(np.log(a.data), (a,), lambda g: (g / a.data,), "log")


def reshape(a: Tensor, shape) -> Tensor:
    return fused(a.data.reshape(shape), (a,), lambda g: (g.reshape(a.data.shape),), "reshape")


def take(a: Tensor, idx) -> Tensor:
    """Basic indexing (ints/slices); backward scatters into the source."""

    def vjp(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        return (full,)

    return fused(np.array(a.data[idx], copy=True), (a,), vjp, "take")


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    def vjp(g):
        ge = g if axis is None or keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(ge, a.data.shape).copy(),)

    return fused(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp, "sum")
