"""Predictive-uncertainty decomposition and out-of-domain metrics.

Evaluation-time only; everything here works on plain numpy arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class UncertaintyReport:
    """Per-datum, per-class uncertainty decomposition of the predictive
    class probabilities p = softmax(f) (law of total variance over the
    network outputs f)."""

    predictive_mean: np.ndarray  # (N, C) E[p]
    epistemic: np.ndarray  # (N, C) Var[p], the variance of E[y | f] over f
    aleatoric: np.ndarray  # (N, C) E[p(1 - p)], the mean of var[y | f] over f
    total: np.ndarray  # (N, C) E[p](1 - E[p])
    entropy: np.ndarray  # (N,) entropy of the predictive mean, nats


def decompose(mean: np.ndarray, var: np.ndarray) -> UncertaintyReport:
    """The predictive decomposition of p = softmax(f) for network outputs
    f ~ N(mean, diag var), in closed form: no draws, so no rng.

    With p = softmax(mean), a = sum_k var_k p_k^2, b = sum_k var_k p_k and
    L_c = var_c (1 - 2 p_c) + a, a Taylor expansion of the softmax around
    the mean gives E[p_c] ~ p_c (1 + (L_c + a - b)/2) to second order (it
    sums to 1) and Var[p_c] ~ p_c^2 L_c to first order. The total,
    E[p](1 - E[p]), is exact for any distribution of f, and the aleatoric
    part is the total less the epistemic one.

    Where a variance of order 1 or more takes the expansion out of [0, 1],
    the mean is clipped at 0 and renormalized in that row, and the
    epistemic part clipped to [0, total]. So every finite input gives
    probabilities that sum to 1 and an entropy in [0, log C]. Each row is
    computed on its own."""
    mean, var = (np.asarray(a, dtype=np.float64) for a in (mean, var))
    if mean.shape != var.shape or np.any(var < 0):
        raise ValueError("degenerate moments")
    var = np.minimum(var, 1e300)  # so that no sum below overflows
    p = np.exp(mean - mean.max(axis=-1, keepdims=True))
    p /= p.sum(axis=-1, keepdims=True)
    vp = var * p
    b = vp.sum(axis=-1, keepdims=True)
    a = (vp * p).sum(axis=-1, keepdims=True)
    spread = var * (1.0 - 2.0 * p) + a  # L
    pred = p * (1.0 + 0.5 * (spread + a - b))
    low = (pred < 0.0).any(axis=-1)
    if low.any():
        clipped = np.maximum(pred[low], 0.0)
        pred[low] = clipped / clipped.sum(axis=-1, keepdims=True)
    total = pred * (1.0 - pred)
    epistemic = np.clip(p * p * spread, 0.0, total)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(pred > 0, pred * np.log(pred), 0.0)
    return UncertaintyReport(pred, epistemic, total - epistemic, total, -plogp.sum(axis=-1))


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
