"""Likelihood heads and training objectives.

Turns final-layer moments into per-datum log marginal likelihoods
(sampling-free for regression, reparameterized sampling for
classification) and assembles the trainable objectives: the plain
marginal-likelihood objective, its PAC-regularized version, the
hyperprior MAP variant, and the deterministic evidential baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import tensor as T
from .layers import GaussianActivation, WeightDistribution
from .tensor import Tensor

LOG_2PI = math.log(2.0 * math.pi)
LOGIT_CLAMP = 30.0  # sampled logits are clamped to +-30 so that exp(f) stays finite
EDL_WEIGHT = 100.0  # of the evidential baseline's sum of squares against its KL


@dataclass
class ObjectiveReport:
    """Scalar training loss with its additive decomposition; ``total``
    carries the tape for backward()."""

    total: Tensor
    nll: float
    regularizer: float


# -- marginal likelihoods ----------------------------------------------------


def _latent_var(mean: np.ndarray, var: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(m2 + s2^2/2): the mean over the weights of the head's latent
    variance, where unit 2 carries its log; and its derivative in m2, which
    is twice that in s2^2."""
    arg = mean[:, 1] + 0.5 * var[:, 1]
    # Clamped exponent: arguments this large mean the run has diverged;
    # keep the value finite so the caller can see it happen. The clamp
    # passes no gradient.
    value = np.exp(np.minimum(arg, 60.0))
    return value, np.where(arg < 60.0, value, 0.0)


def _head_node(moments: GaussianActivation, value, d_mean, d_var, d_latent, op: str) -> Tensor:
    """One node for a per-datum value of the regression head's latent
    N(m1, s1^2 + latent variance): d_mean and d_var are its partials in m1
    and in that total variance, d_latent the latent variance's in m2."""

    def vjp(g):
        g_var = g * d_var
        g_m2 = g_var * d_latent
        return np.stack([g * d_mean, g_m2], axis=1), np.stack([g_var, 0.5 * g_m2], axis=1)

    return T.fused(value, (moments.mean, moments.var), vjp, op)


def regression_log_marginal(moments: GaussianActivation, y: np.ndarray, beta: float) -> Tensor:
    """Per-datum log marginal likelihood of the heteroscedastic Gaussian
    head: N(y | m1, 1/beta + s1^2 + exp(m2 + s2^2/2)), where unit 1 is the
    latent mean, unit 2 the log latent variance and beta the observation
    precision. Sampling-free; one tape node."""
    if moments.mean.shape[1] != 2:
        raise ValueError("regression head expects 2 output units")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    mean, var = moments.mean.data, moments.var.data
    latent, d_latent = _latent_var(mean, var)
    v = 1.0 / beta + var[:, 0] + latent
    if np.any(v <= 0.0):
        raise ValueError("log of non-positive input")
    resid = y - mean[:, 0]
    sq = resid * resid
    value = -0.5 * (LOG_2PI + np.log(v)) - sq / (2.0 * v)
    return _head_node(moments, value, resid / v, (sq / v - 1.0) / (2.0 * v), d_latent,
                      "regression_log_marginal")


def _check_onehot(y_onehot: np.ndarray, n_classes: int) -> np.ndarray:
    y = np.asarray(y_onehot, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != n_classes:
        raise ValueError("targets must be one-hot with one row per datum")
    if not (np.all((y == 0) | (y == 1)) and np.all(y.sum(axis=1) == 1)):
        raise ValueError("targets must be one-hot")
    return y


def _clamped_draws(moments: GaussianActivation, eps: np.ndarray):
    """Output samples f = m + s*eps clamped at +-LOGIT_CLAMP, (S, N, C) for
    standard normal eps of that shape; and the chain rule from a gradient
    in f to those in (m, s^2), zero past the clamp."""
    mean, var = moments.mean.data, moments.var.data
    if np.any(var < 0.0):
        raise ValueError("negative output variance")
    f = mean + np.sqrt(var) * eps
    inside = (f > -LOGIT_CLAMP) & (f < LOGIT_CLAMP)

    def chain(g):
        g = g * inside
        return g.sum(axis=0), (g * eps).sum(axis=0) * 0.5 / np.sqrt(var)

    return np.clip(f, -LOGIT_CLAMP, LOGIT_CLAMP), chain


def classification_log_marginal(
    moments: GaussianActivation, y_onehot: np.ndarray, *, eps: np.ndarray
) -> Tensor:
    """Per-datum log marginal likelihood of the Dirichlet-categorical head
    over the C classes of the output width.

    Takes S reparameterized output samples f = m + s*eps, for eps of shape
    (S, N, C), maps them to Dirichlet strengths alpha = exp(f), and averages
    the implied class probability p_s = alpha_y / alpha_0 inside the log via
    logsumexp. One tape node: with w_s the softmax over S of log p_s, the
    gradient in f_s is w_s (y - softmax(f_s)), chained through both m and s.
    """
    y = _check_onehot(y_onehot, moments.mean.shape[1])
    f, chain = _clamped_draws(moments, eps)
    top = f.max(axis=-1, keepdims=True)
    shifted = np.exp(f - top)
    total = shifted.sum(axis=-1, keepdims=True)
    log_p = (f * y).sum(axis=-1) - (top + np.log(total))[..., 0]  # (S, N)
    top_s = log_p.max(axis=0, keepdims=True)
    shifted_s = np.exp(log_p - top_s)
    total_s = shifted_s.sum(axis=0, keepdims=True)
    value = (top_s + np.log(total_s))[0] - math.log(f.shape[0])

    def vjp(g):
        g_lp = (g * (shifted_s / total_s))[..., None]
        return chain(g_lp * y - g_lp * (shifted / total))

    return T.fused(value, (moments.mean, moments.var), vjp, "classification_log_marginal")


# -- divergences -------------------------------------------------------------

_KL_ASYMPTOTIC = 1e6  # strengths above this use the series in _kl_dirichlet


def _kl_dirichlet(alpha: np.ndarray):
    """KL(Dir(alpha) || Dir(1,...,1)) over the last axis, and a function
    giving its gradient dKL/dalpha_i = (alpha_i - 1) psi'(alpha_i)
    - (alpha_0 - C) psi'(alpha_0), so that the trigamma runs only in the
    backward pass.

    The plain forms lose three digits to cancellation at the logit clamp
    (a strength of e^30). So with m the largest strength and r the sum of
    the others, lgamma(alpha_0) - lgamma(m) - lgamma(r) is -betaln(m, r),
    and for alpha_i > 1e6 psi(alpha_i) - psi(alpha_0) and the gradient
    come from asymptotic series in alpha_i and alpha_0 = alpha_i + r_i.
    Two such strengths still cancel about 1e13 between -log B(alpha) and
    the digamma sum. So a row with one sums a term per strength instead:
    (alpha_i - 1) dig_i - lgamma(alpha_i) plus the share alpha_i / alpha_0
    of lgamma(alpha_0), which for alpha_i > 1e6 is written in Stirling's
    form, where its alpha log alpha and alpha parts cancel exactly."""
    if np.any(alpha <= 0.0):
        raise ValueError("Dirichlet strengths must be positive")
    c = alpha.shape[-1]
    top = alpha.argmax(axis=-1)[..., None]
    is_top = np.arange(c) == top
    m = np.take_along_axis(alpha, top, axis=-1)
    lg_rest = np.where(is_top, 0.0, special.gammaln(alpha)).sum(axis=-1, keepdims=True)
    r_top = np.where(is_top, 0.0, alpha).sum(axis=-1, keepdims=True)
    alpha0 = m + r_top
    r = np.where(is_top, r_top, alpha0 - alpha)
    big = alpha > _KL_ASYMPTOTIC
    # the series' arguments, equal to alpha and alpha0 wherever they are used
    a_s = np.maximum(alpha, _KL_ASYMPTOTIC)
    a0_s = a_s + r
    q = (r / a_s) * (1.0 + a_s / a0_s) / (a_s * a0_s)  # 1/alpha^2 - 1/alpha0^2
    dig = np.where(big, -np.log1p(r / a_s) - r / (2.0 * a_s * a0_s) - q / 12.0,
                   special.digamma(alpha) - special.digamma(alpha0))
    log_beta = special.betaln(m, r_top) - special.gammaln(r_top) + lg_rest  # log B(alpha)
    value = ((alpha - 1.0) * dig).sum(axis=-1) - math.lgamma(c) - log_beta[..., 0]
    if big.any():
        share = alpha / alpha0
        stirling = (0.5 * np.log1p(r / a_s) + (r / a0_s) * 0.5 * (np.log(a0_s) - LOG_2PI)
                    - 1.0 / (12.0 * a_s) + share / (12.0 * a0_s)
                    - (a_s - 1.0) * (r / (2.0 * a_s * a0_s) + q / 12.0))
        plain = (alpha - 1.0) * dig - special.gammaln(alpha) + share * special.gammaln(alpha0)
        value = np.where(big.any(axis=-1), np.where(big, stirling, plain).sum(axis=-1)
                         - math.lgamma(c), value)

    def grad():
        # trigamma: zeta(2, .) gives the bits of polygamma(1, .) in less time
        tri, tri0 = special.zeta(2, alpha), special.zeta(2, alpha0)
        series = r / (2.0 * a_s * a0_s) + q / 6.0 - tri + c * tri0
        return np.where(big, series, (alpha - 1.0) * tri - (alpha0 - c) * tri0)

    return value, grad


def kl_dirichlet_uniform(alpha: Tensor) -> Tensor:
    """Per-datum KL(Dir(alpha) || Dir(1,...,1)) for alpha of shape (..., C);
    one tape node."""
    value, grad = _kl_dirichlet(alpha.data)
    return T.fused(value, (alpha,), lambda g: (g[..., None] * grad(),), "kl_dirichlet_uniform")


def _kl_gaussian(mean: np.ndarray, var: np.ndarray):
    """KL(N(mean, var) || N(0, 1)) elementwise, with its partials in mean
    and var."""
    if np.any(var <= 0.0):
        raise ValueError("variances must be positive")
    value = 0.5 * (-np.log(var) + var + mean * mean - 1.0)
    return value, mean, 0.5 * (1.0 - 1.0 / var)


# -- per-datum KL terms used by the PAC regularizer -------------------------


def regression_kl(moments: GaussianActivation) -> Tensor:
    """KL of the moment-matched latent N(m1, s1^2 + exp(m2 + s2^2/2))
    against the standard-normal prior; one tape node."""
    mean, var = moments.mean.data, moments.var.data
    latent, d_latent = _latent_var(mean, var)
    value, d_mean, d_var = _kl_gaussian(mean[:, 0], var[:, 0] + latent)
    return _head_node(moments, value, d_mean, d_var, d_latent, "regression_kl")


def classification_kl(moments: GaussianActivation, *, eps: np.ndarray) -> Tensor:
    """Sampling estimate of the per-datum KL(Dir(alpha) || Dir(1)) under
    the output distribution, from the (S, N, C) draws eps of the head;
    one tape node."""
    f, chain = _clamped_draws(moments, eps)
    alpha = np.exp(f)
    kl, grad = _kl_dirichlet(alpha)
    scale = 1.0 / f.shape[0]

    def vjp(g):
        return chain(np.broadcast_to(g * scale, kl.shape)[..., None] * grad() * alpha)

    return T.fused(kl.sum(axis=0) * scale, (moments.mean, moments.var), vjp, "classification_kl")


# -- objectives --------------------------------------------------------------


def _batch_mean(x: np.ndarray) -> float:
    if x.size == 0:
        raise ValueError("mean over empty axis")
    return x.sum() * (1.0 / x.size)


def bedl_objective(log_marginals: Tensor) -> ObjectiveReport:
    """Mean negative log marginal likelihood over the batch; one tape node."""
    lm = log_marginals.data
    nll = _batch_mean(-lm)
    total = T.fused(nll, (log_marginals,), lambda g: (np.full(lm.shape, -(g * (1.0 / lm.size))),),
                    "bedl_objective")
    return ObjectiveReport(total=total, nll=float(nll), regularizer=0.0)


def pac_objective(log_marginals: Tensor, kl_per_datum: Tensor, n_data: int, delta: float,
                  likelihood_bound: float) -> ObjectiveReport:
    """Mean negative log marginal plus the square-root complexity term of
    the PAC bound at confidence 1 - delta.

    KL(Q||P) over the n_data points is estimated from the batch as n_data
    times the batch mean of the per-datum KL; the likelihood bound enters
    as a constant inside the sqrt. One tape node.
    """
    lm, kl = log_marginals.data, kl_per_datum.data
    nll = _batch_mean(-lm)
    kl_total = n_data * _batch_mean(kl)
    inner = (kl_total - math.log(delta)) * (1.0 / n_data) + likelihood_bound
    if inner < 0.0:
        raise ValueError("sqrt of negative input")
    bound = np.sqrt(inner)

    def vjp(g):
        g_kl = g * 0.5 / bound * (1.0 / n_data) * n_data * (1.0 / kl.size)
        return np.full(lm.shape, -(g * (1.0 / lm.size))), np.full(kl.shape, g_kl)

    total = T.fused(nll + bound, (log_marginals, kl_per_datum), vjp, "pac_objective")
    return ObjectiveReport(total, float(nll), float(bound))


def evidential_alpha(f: Tensor) -> Tensor:
    """Evidential Dirichlet strengths relu(f) + 1, with gradient 0 at the
    kink; one tape node."""
    return T.fused(np.maximum(f.data, 0.0) + 1.0, (f,), lambda g: (g * (f.data > 0.0),),
                   "evidential_alpha")


def edl_loss(alpha: Tensor, y_onehot: np.ndarray) -> ObjectiveReport:
    """Deterministic evidential baseline: EDL_WEIGHT/2 times the expected
    sum of squares between the one-hot target and the Dirichlet-distributed
    class probabilities, plus KL against the uniform Dirichlet. Batch mean;
    one tape node."""
    a = alpha.data
    kl, kl_grad = _kl_dirichlet(a)
    y = _check_onehot(y_onehot, alpha.shape[1])
    a0 = a.sum(axis=1, keepdims=True)
    p = a / a0
    spread = p * (1.0 - p) / (a0 + 1.0)
    resid = y - p
    fit = _batch_mean(0.5 * EDL_WEIGHT * (resid * resid + spread).sum(axis=1))
    kl_mean = _batch_mean(kl)

    def vjp(g):
        # partials in p at fixed alpha0, chained through p = alpha/alpha0 and 1/(alpha0 + 1)
        d_p = (1.0 - 2.0 * p) / (a0 + 1.0) - 2.0 * resid
        d_fit = ((d_p - (p * d_p).sum(axis=1, keepdims=True)) / a0
                 - spread.sum(axis=1, keepdims=True) / (a0 + 1.0))
        return ((g * (1.0 / len(a))) * (0.5 * EDL_WEIGHT * d_fit + kl_grad()),)

    total = T.fused(fit + kl_mean, (alpha,), vjp, "edl_loss")
    return ObjectiveReport(total=total, nll=float(fit), regularizer=float(kl_mean))


def hyperprior_penalty(weights: list[WeightDistribution]) -> Tensor:
    """Negative log hyperprior density over all weight hyperparameters:
    N(mu | 0, 1) on means and InvGamma(sigma^2 | 2, 1) on variances, whose
    log densities are -(log 2 pi + mu^2)/2 and -3 log sigma^2 - 1/sigma^2.
    One tape node, with gradient mu in the means and 3 - 1/sigma^2 in the
    log-variances."""
    pairs = [pair for w in weights for pair in ((w.mean, w.log_var), (w.bias_mean, w.bias_log_var))]
    if not pairs:
        raise ValueError("no weights given")
    total = 0.0
    for mean, log_var in pairs:
        lp_mu = mean.size * (-0.5 * LOG_2PI) - 0.5 * (mean.data * mean.data).sum()
        lp_var = -3.0 * log_var.data.sum() - np.exp(-log_var.data).sum()
        total += -(lp_mu + lp_var)

    def vjp(g):
        return [grad for mean, log_var in pairs
                for grad in (g * mean.data, g * (3.0 - np.exp(-log_var.data)))]

    return T.fused(total, tuple(t for pair in pairs for t in pair), vjp, "hyperprior_penalty")
