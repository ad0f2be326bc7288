"""Brute-force Monte Carlo ground truth for the moment-matching path.

Samples concrete weights from the Gaussian weight distributions, runs the
deterministic network with true ReLU/ELU activations, and estimates
output moments and marginal likelihoods. Used by the test suite as the
independent oracle and exposed through the `verify` CLI subcommand.

Randomness: numpy's PCG64 seeded as default_rng([seed, stream]), so
identical (seed, stream) pairs give identical draws on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .layers import LayerSpec, MomentNetwork


# Weight draws per deterministic forward pass: bounds the sampler's memory.
SAMPLE_CHUNK = 20000


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


@dataclass
class MomentEstimate:
    mean: np.ndarray
    var: np.ndarray
    mean_se: np.ndarray
    var_se: np.ndarray


def _det_activation(f: np.ndarray, spec: LayerSpec) -> np.ndarray:
    if spec.activation == "relu":
        return np.maximum(f, 0.0)
    if spec.activation == "elu":
        return np.where(f > 0, f, np.exp(np.minimum(f, 0.0)) - 1.0)
    return f


def _conv_patches(h: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    # h: (..., H, W, C) -> (..., OH, OW, kernel*kernel*C)
    hh, ww = h.shape[-3], h.shape[-2]
    oh = (hh - kernel) // stride + 1
    ow = (ww - kernel) // stride + 1
    cols = [
        h[..., ki : ki + stride * oh : stride, kj : kj + stride * ow : stride, :]
        for ki in range(kernel)
        for kj in range(kernel)
    ]
    return np.concatenate(cols, axis=-1)


def deterministic_forward(
    net: MomentNetwork, x: np.ndarray, weight_draws: list[tuple]
) -> np.ndarray:
    """Run the plain network for a batch of sampled weights.

    x: (N, d) or (N, H, W, C); each weight_draws entry is (W, b) with
    W of shape (S,) + weight_shape and b of shape (S, n_out).
    Returns final pre-activations of shape (S, N, n_out).
    """
    s = weight_draws[0][0].shape[0]
    h = np.broadcast_to(x, (s,) + x.shape)
    for spec, (wd, bd) in zip(net.specs, weight_draws):
        if spec.kind == "dense":
            if h.ndim == 5:  # (S, N, H, W, C) -> flatten
                h = h.reshape(h.shape[0], h.shape[1], -1)
            f = np.einsum("sni,sio->sno", h, wd)
        else:
            patches = _conv_patches(h, spec.kernel, spec.stride)  # (S,N,OH,OW,K)
            f = np.einsum("snhwk,sko->snhwo", patches, wd)
        f = f + bd[:, None] if spec.kind == "dense" else f + bd[:, None, None, None]
        h = _det_activation(f, spec)
    return f


def draw_weights(net: MomentNetwork, rng: np.random.Generator, n: int) -> list[tuple]:
    draws = []
    for w in net.weights:
        std = np.exp(0.5 * w.log_var.data)
        wd = w.mean.data + std * rng.standard_normal((n,) + w.mean.shape)
        bstd = np.exp(0.5 * w.bias_log_var.data)
        bd = w.bias_mean.data + bstd * rng.standard_normal((n,) + w.bias_mean.shape)
        draws.append((wd, bd))
    return draws


def _sampled_outputs(net: MomentNetwork, x: np.ndarray, rng: np.random.Generator, n_samples: int):
    """Final pre-activations (m, N, n_out) for n_samples weight draws,
    drawn and run at most SAMPLE_CHUNK at a time."""
    x = np.asarray(x, dtype=np.float64)
    for done in range(0, n_samples, SAMPLE_CHUNK):
        draws = draw_weights(net, rng, min(SAMPLE_CHUNK, n_samples - done))
        yield deterministic_forward(net, x, draws)


def sample_forward(
    net: MomentNetwork, x: np.ndarray, rng: np.random.Generator, n_samples: int
) -> MomentEstimate:
    """Empirical output moments over weight draws, with standard errors.

    SE(mean) = s/sqrt(n); SE(var) from the fourth central moment,
    sqrt((m4 - var^2)/n).
    """
    if n_samples < 100:
        raise ValueError("need at least 100 samples")
    s1 = s2 = s3 = s4 = 0.0
    for f in _sampled_outputs(net, x, rng, n_samples):
        s1 = s1 + f.sum(axis=0)
        s2 = s2 + (f**2).sum(axis=0)
        s3 = s3 + (f**3).sum(axis=0)
        s4 = s4 + (f**4).sum(axis=0)
    n = float(n_samples)
    mean = s1 / n
    var = s2 / n - mean**2
    m3 = s3 / n - 3 * mean * s2 / n + 2 * mean**3
    m4 = s4 / n - 4 * mean * s3 / n + 6 * mean**2 * s2 / n - 3 * mean**4
    var = np.maximum(var, 0.0)
    mean_se = np.sqrt(var / n)
    var_se = np.sqrt(np.maximum(m4 - var**2, 0.0) / n)
    return MomentEstimate(mean, var, mean_se, var_se)


@dataclass
class LogMarginalEstimate:
    value: np.ndarray  # (N,)
    se: np.ndarray  # (N,) delta-method standard error of the log estimate


def _per_draw_loglik(f: np.ndarray, y: np.ndarray, beta: float | None) -> np.ndarray:
    """Log-likelihood per weight draw with the latent head variable
    marginalized analytically. f: (S, N, out)."""
    if beta is not None:
        yv = np.asarray(y, dtype=np.float64).reshape(-1)
        v = 1.0 / beta + np.exp(f[..., 1])
        return -0.5 * (np.log(2 * np.pi * v) + (yv - f[..., 0]) ** 2 / v)
    logp = f - special.logsumexp(f, axis=-1, keepdims=True)
    return (logp * y).sum(axis=-1)


def sample_marginal_likelihood(
    net: MomentNetwork,
    x: np.ndarray,
    y: np.ndarray,
    beta: float | None,
    rng: np.random.Generator,
    n_samples: int,
) -> LogMarginalEstimate:
    """MC estimate of the per-datum log marginal likelihood: of the
    Gaussian head with observation precision beta, or of the categorical
    head on one-hot y when beta is None.

    Computed as logsumexp of per-draw log-likelihoods minus log n. If all
    draws underflow to zero likelihood, reports the failure instead of
    clipping silently.
    """
    ll = np.concatenate([_per_draw_loglik(f, y, beta)
                         for f in _sampled_outputs(net, x, rng, n_samples)])  # (n, N)
    if not np.all(np.isfinite(ll)):
        raise FloatingPointError("likelihood underflow in MC marginal estimate")
    n = float(n_samples)
    log_mean = special.logsumexp(ll, axis=0) - math.log(n)
    # Delta method on log of the mean: SE = sd(lik) / (mean * sqrt(n)),
    # computed through ratios of shifted exponentials for stability.
    w = np.exp(ll - log_mean[None])  # lik / mean, O(1)
    se = np.sqrt(np.maximum(w.var(axis=0), 0.0) / n)
    return LogMarginalEstimate(log_mean, se)
