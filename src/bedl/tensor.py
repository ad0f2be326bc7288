"""Dense float64 tensors with reverse-mode automatic differentiation.

A Tensor wraps a numpy array and records its producing operation on an
implicit tape (the graph of parent links). Calling ``backward()`` on a
scalar root accumulates gradients into every reachable tensor that
requires them. Tapes are single-use: a second ``backward()`` on the same
root raises.

Every op validates that its result is finite and raises NumericsError
otherwise, so NaN/inf never propagate silently. Besides the elementwise
ops, ``fused`` turns any closed-form function with a hand-written gradient
into a single tape node.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from . import gaussian as G


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

    def __sub__(self, other):
        return sub(self, _wrap(other))

    def __rsub__(self, other):
        return sub(_wrap(other), self)

    def __mul__(self, other):
        return mul(self, _wrap(other))

    def __rmul__(self, other):
        return mul(_wrap(other), self)

    def __truediv__(self, other):
        return div(self, _wrap(other))

    def __rtruediv__(self, other):
        return div(_wrap(other), self)

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, _wrap(other))

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


def _make(data, parents, backward_fn, op):
    _check_finite(data, op)
    return Tensor(data, _parents=parents, _backward_fn=backward_fn)


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


# -- elementwise arithmetic --------------------------------------------------


def add(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data + b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g, b.data.shape))

    return _make(out_data, (a, b), bw, "add")


def sub(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data - b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g, b.data.shape))

    return _make(out_data, (a, b), bw, "sub")


def mul(a: Tensor, b: Tensor) -> Tensor:
    out_data = a.data * b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(g * a.data, b.data.shape))

    return _make(out_data, (a, b), bw, "mul")


def div(a: Tensor, b: Tensor) -> Tensor:
    if np.any(b.data == 0.0):
        raise ZeroDivisionError("division by zero in tensor op")
    out_data = a.data / b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g / b.data, a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(-g * a.data / (b.data * b.data), b.data.shape))

    return _make(out_data, (a, b), bw, "div")


def neg(a: Tensor) -> Tensor:
    def bw(g):
        a._accumulate(-g)

    return _make(-a.data, (a,), bw, "neg")


def exp(a: Tensor) -> Tensor:
    out_data = np.exp(a.data)
    out = _make(out_data, (a,), None, "exp")

    def bw(g):
        a._accumulate(g * out_data)

    out._backward_fn = bw if out.requires_grad else None
    return out


def log(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("log of non-positive input")
    out_data = np.log(a.data)

    def bw(g):
        a._accumulate(g / a.data)

    return _make(out_data, (a,), bw, "log")


def sqrt(a: Tensor) -> Tensor:
    if np.any(a.data < 0.0):
        raise ValueError("sqrt of negative input")
    out_data = np.sqrt(a.data)

    def bw(g):
        a._accumulate(g * 0.5 / out_data)

    return _make(out_data, (a,), bw, "sqrt")


def square(a: Tensor) -> Tensor:
    def bw(g):
        a._accumulate(g * 2.0 * a.data)

    return _make(a.data * a.data, (a,), bw, "square")


def relu(a: Tensor) -> Tensor:
    """max(x, 0) with subgradient 0 at the kink."""
    mask = a.data > 0.0

    def bw(g):
        a._accumulate(g * mask)

    return _make(np.maximum(a.data, 0.0), (a,), bw, "relu")


def clamp_min(a: Tensor, low: float) -> Tensor:
    mask = a.data > low

    def bw(g):
        a._accumulate(g * mask)

    return _make(np.maximum(a.data, low), (a,), bw, "clamp_min")


def clamp_max(a: Tensor, high: float) -> Tensor:
    mask = a.data < high

    def bw(g):
        a._accumulate(g * mask)

    return _make(np.minimum(a.data, high), (a,), bw, "clamp_max")


def clamp(a: Tensor, low: float, high: float) -> Tensor:
    return clamp_max(clamp_min(a, low), high)


def where(mask: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select on a constant boolean mask; gradients are routed
    to the selected branch only."""
    mask = np.asarray(mask, dtype=bool)
    out_data = np.where(mask, a.data, b.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(np.where(mask, g, 0.0), a.data.shape))
        if b.requires_grad:
            b._accumulate(_unbroadcast(np.where(mask, 0.0, g), b.data.shape))

    return _make(out_data, (a, b), bw, "where")


# -- gaussian special functions ---------------------------------------------


def normal_cdf(a: Tensor) -> Tensor:
    """Standard normal CDF via erf; derivative is the pdf."""
    out_data = G.cdf(a.data)

    def bw(g):
        a._accumulate(g * G.pdf(a.data))

    return _make(out_data, (a,), bw, "normal_cdf")


def normal_pdf(a: Tensor) -> Tensor:
    out_data = G.pdf(a.data)

    def bw(g):
        a._accumulate(g * (-a.data) * out_data)

    return _make(out_data, (a,), bw, "normal_pdf")


def exp_scaled_cdf(a: Tensor, b: Tensor) -> Tensor:
    """exp(a) * Phi(-b) without overflow (see ``gaussian.exp_scaled_cdf``).
    Partials: d/da = value; d/db = -exp(a)*pdf(b)."""
    out_data = G.exp_scaled_cdf(a.data, b.data)

    def bw(g):
        if a.requires_grad:
            a._accumulate(_unbroadcast(g * out_data, a.data.shape))
        if b.requires_grad:
            expo = a.data - 0.5 * b.data * b.data
            b._accumulate(_unbroadcast(-g * G.INV_SQRT_2PI * np.exp(expo), b.data.shape))

    return _make(out_data, (a, b), bw, "exp_scaled_cdf")


def lgamma(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("lgamma requires positive input")
    out_data = special.gammaln(a.data)

    def bw(g):
        a._accumulate(g * special.digamma(a.data))

    return _make(out_data, (a,), bw, "lgamma")


def digamma(a: Tensor) -> Tensor:
    if np.any(a.data <= 0.0):
        raise ValueError("digamma requires positive input")
    out_data = special.digamma(a.data)

    def bw(g):
        a._accumulate(g * special.polygamma(1, a.data))

    return _make(out_data, (a,), bw, "digamma")


# -- linear algebra and structure -------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ValueError("matmul expects 2-D operands")
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.data.shape} x {b.data.shape}")
    out_data = a.data @ b.data

    def bw(g):
        if a.requires_grad:
            a._accumulate(g @ b.data.T)
        if b.requires_grad:
            b._accumulate(a.data.T @ g)

    return _make(out_data, (a, b), bw, "matmul")


def reshape(a: Tensor, shape) -> Tensor:
    def bw(g):
        a._accumulate(g.reshape(a.data.shape))

    return _make(a.data.reshape(shape), (a,), bw, "reshape")


def take(a: Tensor, idx) -> Tensor:
    """Basic indexing (ints/slices); backward scatters into the source."""
    out_data = a.data[idx]

    def bw(g):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, g)
        a._accumulate(full)

    return _make(np.array(out_data, copy=True), (a,), bw, "take")


def stack(tensors: list[Tensor], axis: int = 0) -> Tensor:
    out_data = np.stack([t.data for t in tensors], axis=axis)

    def bw(g):
        for i, t in enumerate(tensors):
            if t.requires_grad:
                t._accumulate(np.take(g, i, axis=axis))

    return _make(out_data, tuple(tensors), bw, "stack")


def extract_patches(a: Tensor, kernel: int, stride: int) -> Tensor:
    """Im2col for valid (unpadded) convolution.

    Input (N, H, W, C) -> output (N, OH, OW, kernel*kernel*C), where each
    output position holds its receptive field flattened in (ki, kj, c) order.
    """
    n, h, w, c = a.data.shape
    if kernel > h or kernel > w:
        raise ValueError("kernel larger than input")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    oh = (h - kernel) // stride + 1
    ow = (w - kernel) // stride + 1
    cols = []
    for ki in range(kernel):
        for kj in range(kernel):
            cols.append(a.data[:, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride, :])
    out_data = np.concatenate(cols, axis=3)

    def bw(g):
        full = np.zeros_like(a.data)
        for slot in range(kernel * kernel):
            ki, kj = divmod(slot, kernel)
            gslice = g[..., slot * c : (slot + 1) * c]
            full[:, ki : ki + stride * oh : stride, kj : kj + stride * ow : stride, :] += gslice
        a._accumulate(full)

    return _make(out_data, (a,), bw, "extract_patches")


# -- reductions --------------------------------------------------------------


def tsum(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def bw(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape).copy())
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(ge, a.data.shape).copy())

    return _make(out_data, (a,), bw, "sum")


def tmean(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    n = a.data.size if axis is None else a.data.shape[axis]
    if n == 0:
        raise ValueError("mean over empty axis")
    return tsum(a, axis=axis, keepdims=keepdims) * (1.0 / n)


def logsumexp(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """Max-shifted logsumexp; finite for inputs up to ~1e308 in magnitude."""
    m = a.data.max(axis=axis, keepdims=True)
    shifted = np.exp(a.data - m)
    total = shifted.sum(axis=axis, keepdims=True)
    out_full = m + np.log(total)
    out_data = out_full if keepdims or axis is None else np.squeeze(out_full, axis=axis)
    if axis is None:
        out_data = out_data.reshape(())
    softmax = shifted / total

    def bw(g):
        if axis is None:
            a._accumulate(np.broadcast_to(g, a.data.shape) * softmax)
        else:
            ge = g if keepdims else np.expand_dims(g, axis)
            a._accumulate(np.broadcast_to(ge, a.data.shape) * softmax)

    return _make(out_data, (a,), bw, "logsumexp")
