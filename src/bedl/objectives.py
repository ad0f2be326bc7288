"""Likelihood heads and training objectives.

Turns final-layer moments into per-datum log marginal likelihoods
(sampling-free for regression, reparameterized sampling for
classification) and assembles the trainable objectives: the plain
marginal-likelihood objective, its PAC-regularized version, the
hyperprior MAP variant, and the deterministic evidential baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gaussian as G
from . import tensor as T
from .layers import GaussianActivation, WeightDistribution
from .tensor import Tensor

LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True)
class RegressionHeadConfig:
    """Two-unit head: unit 1 is the latent mean, unit 2 the log latent
    variance; beta is the fixed observation precision."""

    beta: float = 100.0

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")


@dataclass(frozen=True)
class ClassificationHeadConfig:
    n_classes: int = 10
    n_samples: int = 5
    logit_clamp: float = 30.0

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValueError("need at least 2 classes")
        if self.n_samples < 1:
            raise ValueError("need at least 1 sample")


@dataclass(frozen=True)
class PacConfig:
    """Configuration of the PAC-derived regularizer.

    task "classification": prior is the uniform Dirichlet, likelihood
    bound contributes 1 inside the sqrt. task "regression": prior is
    N(0, 1/alpha_prior) on the latent, bound contributes beta/(2 pi).
    """

    task: str
    n_data: int
    delta: float = 0.05
    alpha_prior: float = 1.0
    beta: float = 100.0

    def __post_init__(self):
        if not 0.0 < self.delta <= 1.0:
            raise ValueError("delta must be in (0, 1]")
        if self.alpha_prior <= 0:
            raise ValueError("alpha_prior must be positive")
        if self.n_data < 1:
            raise ValueError("n_data must be >= 1")
        if self.task not in ("regression", "classification"):
            raise ValueError(f"unknown task {self.task!r}")

    @property
    def likelihood_bound(self) -> float:
        if self.task == "classification":
            return 1.0
        return self.beta / (2.0 * math.pi)


@dataclass(frozen=True)
class HyperpriorConfig:
    """Gaussian prior on weight means, inverse-gamma prior on variances."""

    alpha0: float = 1.0
    a0: float = 2.0
    b0: float = 1.0

    def __post_init__(self):
        if min(self.alpha0, self.a0, self.b0) <= 0:
            raise ValueError("hyperprior parameters must be positive")


@dataclass
class ObjectiveReport:
    """Scalar training loss with its additive decomposition; ``total``
    carries the tape for backward()."""

    total: Tensor
    nll: float
    regularizer: float
    extra: dict = field(default_factory=dict)


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


def regression_log_marginal(
    moments: GaussianActivation, y: np.ndarray, cfg: RegressionHeadConfig
) -> Tensor:
    """Per-datum log marginal likelihood of the heteroscedastic Gaussian
    head: N(y | m1, 1/beta + s1^2 + exp(m2 + s2^2/2)). Sampling-free; one
    tape node."""
    if moments.mean.shape[1] != 2:
        raise ValueError("regression head expects 2 output units")
    y = np.asarray(y, dtype=np.float64).reshape(-1)
    mean, var = moments.mean.data, moments.var.data
    latent, d_latent = _latent_var(mean, var)
    v = 1.0 / cfg.beta + var[:, 0] + latent
    if np.any(v <= 0.0):
        raise ValueError("log of non-positive input")
    resid = y - mean[:, 0]
    sq = resid * resid
    value = -0.5 * (LOG_2PI + np.log(v)) - sq / (2.0 * v)
    return _head_node(moments, value, resid / v, (sq / v - 1.0) / (2.0 * v), d_latent,
                      "regression_log_marginal")


def _log_class_prob(f: Tensor, y_onehot: np.ndarray, clamp: float) -> Tensor:
    fc = T.clamp(f, -clamp, clamp)
    return T.tsum(fc * T.constant(y_onehot), axis=-1) - T.logsumexp(fc, axis=-1)


def _check_onehot(y_onehot: np.ndarray, n_classes: int) -> np.ndarray:
    y = np.asarray(y_onehot, dtype=np.float64)
    if y.ndim != 2 or y.shape[1] != n_classes:
        raise ValueError("targets must be one-hot with one row per datum")
    if not (np.all((y == 0) | (y == 1)) and np.all(y.sum(axis=1) == 1)):
        raise ValueError("targets must be one-hot")
    return y


def _output_draws(
    moments: GaussianActivation,
    cfg: ClassificationHeadConfig,
    rng: np.random.Generator | None,
    eps: np.ndarray | None,
) -> Tensor:
    """Reparameterized output samples f = m + s*eps as one (S, N, C) node,
    one sample per row of eps (drawn from rng as (n_samples, N, C) when not
    given)."""
    mean, var = moments.mean.data, moments.var.data
    if np.any(var < 0.0):
        raise ValueError("negative output variance")
    if eps is None:
        if rng is None:
            raise ValueError("need either rng or eps")
        eps = rng.standard_normal((cfg.n_samples,) + mean.shape)

    def vjp(g):
        return g.sum(axis=0), (g * eps).sum(axis=0) * 0.5 / np.sqrt(var)

    return T.fused(G.output_draws(mean, var, eps), (moments.mean, moments.var), vjp, "output_draws")


def classification_log_marginal(
    moments: GaussianActivation,
    y_onehot: np.ndarray,
    cfg: ClassificationHeadConfig,
    rng: np.random.Generator | None = None,
    eps: np.ndarray | None = None,
) -> Tensor:
    """Per-datum log marginal likelihood of the Dirichlet-categorical head.

    Draws S reparameterized output samples f = m + s*eps, maps them to
    Dirichlet strengths alpha = exp(f), and averages the implied class
    probability alpha_y / alpha_0 inside the log via logsumexp. Gradients
    flow through both m and s.
    """
    y = _check_onehot(y_onehot, cfg.n_classes)
    draws = _output_draws(moments, cfg, rng, eps)
    log_p = _log_class_prob(draws, y, cfg.logit_clamp)  # (S, N)
    return T.logsumexp(log_p, axis=0) - math.log(draws.shape[0])


# -- divergences -------------------------------------------------------------


def kl_dirichlet_uniform(alpha: Tensor) -> Tensor:
    """Per-datum KL(Dir(alpha) || Dir(1,...,1)) for alpha of shape (..., C)."""
    if np.any(alpha.data <= 0.0):
        raise ValueError("Dirichlet strengths must be positive")
    c = alpha.shape[-1]
    alpha0 = T.tsum(alpha, axis=-1, keepdims=True)
    term = T.tsum((alpha - 1.0) * (T.digamma(alpha) - T.digamma(alpha0)), axis=-1)
    return (
        T.lgamma(alpha0[..., 0])
        - T.tsum(T.lgamma(alpha), axis=-1)
        - math.lgamma(c)
        + term
    )


def _kl_gaussian(q_mean: np.ndarray, q_var: np.ndarray, p_mean: float, p_var: float):
    """KL(N(q_mean, q_var) || N(p_mean, p_var)) elementwise, with its
    partials in q_mean and q_var."""
    if p_var <= 0 or np.any(q_var <= 0.0):
        raise ValueError("variances must be positive")
    ratio = q_var * (1.0 / p_var)
    diff = q_mean - p_mean
    value = 0.5 * (-np.log(ratio) + ratio + diff * diff * (1.0 / p_var) - 1.0)
    return value, diff * (1.0 / p_var), 0.5 * (1.0 / p_var - 1.0 / q_var)


def kl_gaussian(q_mean: Tensor, q_var: Tensor, p_mean: float, p_var: float) -> Tensor:
    """KL(N(q_mean, q_var) || N(p_mean, p_var)) elementwise."""
    value, d_mean, d_var = _kl_gaussian(q_mean.data, q_var.data, p_mean, p_var)
    return T.fused(value, (q_mean, q_var), lambda g: (g * d_mean, g * d_var), "kl_gaussian")


# -- per-datum KL terms used by the PAC regularizer -------------------------


def regression_kl(
    moments: GaussianActivation, head: RegressionHeadConfig, pac: PacConfig
) -> Tensor:
    """KL of the moment-matched latent N(m1, s1^2 + exp(m2 + s2^2/2))
    against the zero-mean prior with precision alpha_prior; one tape node."""
    mean, var = moments.mean.data, moments.var.data
    latent, d_latent = _latent_var(mean, var)
    value, d_mean, d_var = _kl_gaussian(mean[:, 0], var[:, 0] + latent, 0.0, 1.0 / pac.alpha_prior)
    return _head_node(moments, value, d_mean, d_var, d_latent, "regression_kl")


def classification_kl(
    moments: GaussianActivation,
    cfg: ClassificationHeadConfig,
    rng: np.random.Generator | None = None,
    eps: np.ndarray | None = None,
) -> Tensor:
    """Sampling estimate of the per-datum KL(Dir(alpha) || Dir(1)) under
    the output distribution, sharing the reparameterization of the head."""
    draws = _output_draws(moments, cfg, rng, eps)
    alpha = T.exp(T.clamp(draws, -cfg.logit_clamp, cfg.logit_clamp))
    return T.tmean(kl_dirichlet_uniform(alpha), axis=0)


# -- objectives --------------------------------------------------------------


def bedl_objective(log_marginals: Tensor) -> ObjectiveReport:
    """Mean negative log marginal likelihood over the batch."""
    nll = T.tmean(-log_marginals)
    return ObjectiveReport(total=nll, nll=nll.item(), regularizer=0.0)


def pac_objective(
    log_marginals: Tensor, kl_per_datum: Tensor, cfg: PacConfig
) -> ObjectiveReport:
    """Mean negative log marginal plus the square-root complexity term.

    KL(Q||P) over the dataset is estimated from the batch as N times the
    batch mean of the per-datum KL; the likelihood bound enters as a
    constant inside the sqrt. One tape node.
    """
    lm, kl = log_marginals.data, kl_per_datum.data
    if lm.size == 0 or kl.size == 0:
        raise ValueError("mean over empty axis")
    nll = (-lm).sum() * (1.0 / lm.size)
    kl_total = cfg.n_data * (kl.sum() * (1.0 / kl.size))
    inner = (kl_total - math.log(cfg.delta)) * (1.0 / cfg.n_data) + cfg.likelihood_bound
    if inner < 0.0:
        raise ValueError("sqrt of negative input")
    bound = np.sqrt(inner)

    def vjp(g):
        g_kl = g * 0.5 / bound * (1.0 / cfg.n_data) * cfg.n_data * (1.0 / kl.size)
        return np.full(lm.shape, -(g * (1.0 / lm.size))), np.full(kl.shape, g_kl)

    total = T.fused(nll + bound, (log_marginals, kl_per_datum), vjp, "pac_objective")
    return ObjectiveReport(
        total=total,
        nll=float(nll),
        regularizer=float(bound),
        extra={"kl_estimate": float(kl_total)},
    )


def edl_loss(alpha: Tensor, y_onehot: np.ndarray, beta_edl: float = 100.0) -> ObjectiveReport:
    """Deterministic evidential baseline: expected sum of squares between
    the one-hot target and the Dirichlet-distributed class probabilities,
    plus KL against the uniform Dirichlet. Batch mean."""
    if np.any(alpha.data <= 0.0):
        raise ValueError("Dirichlet strengths must be positive")
    y = _check_onehot(y_onehot, alpha.shape[1])
    alpha0 = T.tsum(alpha, axis=1, keepdims=True)
    p = alpha / alpha0
    var = p * (1.0 - p) / (alpha0 + 1.0)
    sq = T.tsum(T.square(T.constant(y) - p) + var, axis=1)
    fit = T.tmean(0.5 * beta_edl * sq)
    kl = T.tmean(kl_dirichlet_uniform(alpha))
    total = fit + kl
    return ObjectiveReport(total=total, nll=fit.item(), regularizer=kl.item())


def hyperprior_penalty(
    weights: list[WeightDistribution], cfg: HyperpriorConfig
) -> Tensor:
    """Negative log hyperprior density over all weight hyperparameters:
    N(mu | 0, 1/alpha0) on means, InvGamma(a0, b0) on variances."""
    total: Tensor | None = None
    log_norm_mu = 0.5 * (math.log(cfg.alpha0) - LOG_2PI)
    log_norm_var = cfg.a0 * math.log(cfg.b0) - math.lgamma(cfg.a0)
    for w in weights:
        for mean, log_var in ((w.mean, w.log_var), (w.bias_mean, w.bias_log_var)):
            if mean is None:
                continue
            n = mean.size
            lp_mu = n * log_norm_mu - 0.5 * cfg.alpha0 * T.tsum(T.square(mean))
            # log InvGamma(sigma^2) with sigma^2 = exp(log_var)
            lp_var = (
                n * log_norm_var
                - (cfg.a0 + 1.0) * T.tsum(log_var)
                - cfg.b0 * T.tsum(T.exp(-log_var))
            )
            piece = -(lp_mu + lp_var)
            total = piece if total is None else total + piece
    if total is None:
        raise ValueError("no weights given")
    return total
