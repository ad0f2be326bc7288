"""Predictive-uncertainty decomposition and out-of-domain metrics.

Evaluation-time only; everything here works on plain numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gaussian import output_draws


@dataclass
class UncertaintyReport:
    """Per-datum, per-class uncertainty decomposition (law of total
    variance over the sampled network outputs)."""

    predictive_mean: np.ndarray  # (N, C)
    epistemic: np.ndarray  # (N, C) variance of E[y | f] over f
    aleatoric: np.ndarray  # (N, C) mean of var[y | f] over f
    total: np.ndarray  # (N, C)
    entropy: np.ndarray  # (N,) entropy of the predictive mean, nats


def _softmax(f: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in place: exp(f - max) / sum. The max is
    taken as pairwise np.maximum over the class slices, which is exact in
    any order and faster than a reduction over a short last axis."""
    shift = f[..., 0].copy()
    for c in range(1, f.shape[-1]):
        np.maximum(shift, f[..., c], out=shift)
    f -= shift[..., None]
    np.exp(f, out=f)
    f /= np.add.reduce(f, axis=-1, keepdims=True)
    return f


def decompose(
    mean: np.ndarray,
    var: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
) -> UncertaintyReport:
    """Sample network outputs f ~ N(mean, var), map each draw to class
    probabilities p = alpha/alpha_0 (softmax of f), and split the
    predictive variance into epistemic (variance of p across draws) and
    aleatoric (mean of p(1-p)) parts.

    The standard normals are drawn in (N, S, C) order, row by row, so
    calls on consecutive row chunks with one rng give exactly the numbers
    of one call on all rows; evaluation streams its rows in fixed chunks
    through here and relies on that.

    The draws become the probabilities in place, and one scratch buffer of
    the same shape holds first (p - pred)^2, then p(1 - p); the reductions
    are those of np.mean and np.var, so every value has their bits."""
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    mean = np.asarray(mean, dtype=np.float64)
    var = np.asarray(var, dtype=np.float64)
    if mean.shape != var.shape or np.any(var < 0):
        raise ValueError("degenerate moments")
    eps = rng.standard_normal((len(mean), n_samples) + mean.shape[1:])
    p = _softmax(output_draws(mean[:, None], var[:, None], eps, out=eps))  # (N, S, C)
    pred = np.add.reduce(p, axis=1, keepdims=True)
    pred /= n_samples
    scratch = np.subtract(p, pred)
    np.square(scratch, out=scratch)
    epistemic = np.add.reduce(scratch, axis=1)
    epistemic /= n_samples
    np.subtract(1.0, p, out=scratch)
    scratch *= p
    aleatoric = np.add.reduce(scratch, axis=1)
    aleatoric /= n_samples
    pred = pred[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(pred > 0, pred * np.log(pred), 0.0)
    entropy = -plogp.sum(axis=-1)
    return UncertaintyReport(
        predictive_mean=pred,
        epistemic=epistemic,
        aleatoric=aleatoric,
        total=epistemic + aleatoric,
        entropy=entropy,
    )


def ecdf_auc(entropies: np.ndarray, n_classes: int) -> float:
    """Area under the empirical CDF of predictive entropies over
    [0, log C].

    For the right-continuous piecewise-constant ECDF this is
    sum_i (log C - e_i) / n: zero iff every entropy equals log C
    (maximally uncertain everywhere), log C if all entropies are zero.
    """
    e = np.asarray(entropies, dtype=np.float64).reshape(-1)
    if e.size == 0:
        raise ValueError("empty entropy list")
    log_c = np.log(n_classes)
    tol = 1e-9 * max(1.0, log_c)
    if np.any(e < -tol) or np.any(e > log_c + tol):
        raise ValueError("entropy outside [0, log C]")
    e = np.clip(e, 0.0, log_c)
    return float(np.mean(log_c - e))


def test_error(predictive_mean: np.ndarray, labels: np.ndarray) -> float:
    """Percentage of argmax misclassifications; ties go to the lowest
    class index (numpy argmax convention)."""
    pred = np.asarray(predictive_mean, dtype=np.float64)
    labels = np.asarray(labels).reshape(-1)
    if pred.shape[0] != labels.shape[0]:
        raise ValueError("prediction/label length mismatch")
    hard = pred.argmax(axis=1)
    return float(100.0 * np.mean(hard != labels))
