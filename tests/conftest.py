"""Shared test utilities: two tape nodes for building scalars, finite
differences, quadrature oracles, dataset-file gating for the
benchmark-scale tests, and the one-BLAS-thread pin of the digest tests."""

from __future__ import annotations

import contextlib
import ctypes
import os
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate, stats

from bedl import tensor as T

DATA_DIR = Path(os.environ.get("BEDL_DATA_DIR", Path(__file__).resolve().parent.parent / "data"))


def require_data(*names: str) -> list[Path]:
    """Return paths for benchmark files, skipping the test when absent."""
    paths = [DATA_DIR / n for n in names]
    missing = [p.name for p in paths if not p.exists()]
    if missing:
        pytest.skip(
            f"benchmark data not available in this environment: {missing} "
            f"(place files under {DATA_DIR} to enable)"
        )
    return paths


@contextlib.contextmanager
def one_blas_thread():
    """Every loaded OpenBLAS at one thread inside the block, and at its old
    count after. The golden and workload digests were recorded at one thread;
    at two, OpenBLAS may sum a long product in another order, which moves the
    last bits. Without /proc/self/maps or an OpenBLAS thread setter, the block
    runs as it is."""
    maps = Path("/proc/self/maps")
    text = maps.read_text() if maps.exists() else ""
    pins = []
    for path in sorted({ln.split()[-1] for ln in text.splitlines() if "openblas" in ln.lower()}):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_{}_num_threads64_", "scipy_openblas_{}_num_threads",
                     "openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            get = getattr(lib, name.format("get"), None)
            set_ = getattr(lib, name.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                pins.append((set_, get()))
                set_(1)
                break
    try:
        yield
    finally:
        for set_, old in pins:
            set_(old)


@pytest.fixture
def pinned_blas():
    """One BLAS thread for the test (see ``one_blas_thread``)."""
    with one_blas_thread():
        yield


def elementwise(x, f, df):
    """f of a tensor, elementwise, as one tape node whose derivative is df."""
    return T.fused(f(x.data), (x,), lambda g: (g * df(x.data),), "elementwise")


def weighted_sum(*terms):
    """The scalar sum of t * w over (tensor t, weights w) pairs, one tape node."""
    value = np.asarray(sum((t.data * w).sum() for t, w in terms))
    return T.fused(value, tuple(t for t, _ in terms),
                   lambda g: [g * np.broadcast_to(w, t.shape) for t, w in terms], "weighted_sum")


def finite_diff_grad(fn, params, h: float = 1e-5) -> list[np.ndarray]:
    """Central finite differences of a scalar-returning fn over a list of
    Parameters (perturbed in place)."""
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gf = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            fp = fn()
            flat[i] = orig - h
            fm = fn()
            flat[i] = orig
            gf[i] = (fp - fm) / (2 * h)
        grads.append(g)
    return grads


def check_grads(fn, params, rel_tol: float = 1e-4, h: float = 1e-5) -> float:
    """Analytic vs finite-difference gradients; returns the worst relative
    error and asserts it is below rel_tol."""
    for p in params:
        p.grad = None
    out = fn()
    assert isinstance(out, T.Tensor) and out.size == 1
    out.backward()
    analytic = [p.grad.copy() if p.grad is not None else np.zeros_like(p.data) for p in params]
    numeric = finite_diff_grad(lambda: fn().item(), params, h=h)
    worst = 0.0
    for a, n in zip(analytic, numeric):
        scale = np.maximum(np.abs(n), 1e-6)
        worst = max(worst, float(np.max(np.abs(a - n) / scale)))
    assert worst < rel_tol, f"gradient mismatch: worst rel err {worst:.3g}"
    return worst


def gaussian_activation_quadrature(act, mu: float, sigma: float):
    """Adaptive-quadrature mean and variance of a ReLU or an ELU (alpha = 1)
    of a N(mu, sigma^2) variable; the independent oracle for the closed forms."""

    def a(t):
        if act == "relu":
            return max(t, 0.0)
        if act == "elu":
            return t if t > 0 else np.exp(t) - 1.0
        raise ValueError(act)

    lo, hi = mu - 14 * sigma, mu + 14 * sigma
    if act == "relu":
        # integrand vanishes below zero; clipping keeps narrow spikes at
        # large mu/sigma ratios inside the integration window
        lo, hi = max(lo, 0.0), max(hi, 0.0)
    # split at the activation kink so adaptive quadrature converges fast
    edges = sorted({lo, hi, min(max(0.0, lo), hi)})

    def integral(f):
        total = 0.0
        for p, q in zip(edges, edges[1:]):
            if q > p:
                total += integrate.quad(f, p, q, limit=500, epsabs=1e-12, epsrel=1e-11)[0]
        return total

    m1 = integral(lambda t: a(t) * stats.norm.pdf(t, mu, sigma))
    m2 = integral(lambda t: a(t) ** 2 * stats.norm.pdf(t, mu, sigma))
    return m1, m2 - m1 * m1


def gauss_hermite_class_marginal(m: np.ndarray, s2: np.ndarray, y_idx: int, nodes: int = 40) -> float:
    """Tensor-product Gauss-Hermite value of E_{N(f|m,s2)}[softmax(f)_y],
    exact up to quadrature error for small class counts."""
    c = len(m)
    x, w = np.polynomial.hermite.hermgauss(nodes)
    grids = np.meshgrid(*[x] * c, indexing="ij")
    ws = np.ones_like(grids[0])
    for g in np.meshgrid(*[w] * c, indexing="ij"):
        ws = ws * g
    f = np.stack([m[k] + np.sqrt(2 * s2[k]) * grids[k] for k in range(c)], axis=-1)
    z = f - f.max(axis=-1, keepdims=True)
    p = np.exp(z)
    p = (p / p.sum(axis=-1, keepdims=True))[..., y_idx]
    return float((ws * p).sum() / np.pi ** (c / 2))
