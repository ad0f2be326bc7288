"""Moment propagation through networks with Gaussian weight distributions.

Each weight carries a mean and a log-variance. Pre-activation means and
variances are propagated in closed form (diagonal covariance only), and
ReLU/ELU activations are pushed through via their analytic Gaussian
moments, in the diagonal scheme of Gast & Roth (arXiv:1805.11327). Each
moment is one tape node whose gradient is closed form too, so the pass is
differentiable with respect to every weight mean and log-variance.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import gaussian as G
from . import tensor as T
from .tensor import Parameter, Tensor

# Below this variance the activation moments switch to their deterministic
# limit to avoid 0/0 in mean/std ratios.
SIGMA2_MIN = 1e-12
# The default mean and variance of the normal that initial log-variances are drawn from.
INIT_LOG_VAR_MEAN, INIT_LOG_VAR_VAR = -9.0, 0.001


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the network; every layer has a bias.

    kind "dense": fan_in x fan_out units.
    kind "conv2d": valid (unpadded) strided convolution with square kernel,
    in_channels -> out_channels.
    activation applies after this layer's affine moments.
    """

    kind: str
    fan_in: int = 0
    fan_out: int = 0
    in_channels: int = 0
    out_channels: int = 0
    kernel: int = 0
    stride: int = 1
    activation: str = "identity"

    def __post_init__(self):
        if self.kind not in ("dense", "conv2d"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ("relu", "elu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        ints = (self.fan_in, self.fan_out, self.in_channels, self.out_channels, self.kernel,
                self.stride)
        if not all(isinstance(n, numbers.Integral) and not isinstance(n, bool) for n in ints):
            raise ValueError(f"layer sizes and stride must be integers, not {ints}")
        sizes = ints[:2] if self.kind == "dense" else ints[2:]
        if min(sizes) < 1:
            raise ValueError(f"{self.kind} layer sizes and stride must be >= 1")

    @property
    def weight_shape(self) -> tuple:
        if self.kind == "dense":
            return (self.fan_in, self.fan_out)
        return (self.kernel * self.kernel * self.in_channels, self.out_channels)

    @property
    def n_out(self) -> int:
        return self.fan_out if self.kind == "dense" else self.out_channels

    def out_shape(self, row_shape: tuple) -> tuple | None:
        """The shape of this layer's output rows for input rows of
        ``row_shape``, or None when such rows do not fit it. A dense layer
        takes rows of any shape that hold fan_in values; a conv layer takes
        (H, W, in_channels) images at least one kernel wide and high."""
        if self.kind == "dense":
            return (self.fan_out,) if math.prod(row_shape) == self.fan_in else None
        k, s = self.kernel, self.stride
        if len(row_shape) != 3 or row_shape[2] != self.in_channels or min(row_shape[:2]) < k:
            return None
        return ((row_shape[0] - k) // s + 1, (row_shape[1] - k) // s + 1, self.out_channels)


def check_rows(specs: list[LayerSpec], row_shape: tuple) -> None:
    """Raise a ValueError that names the first layer that input rows of
    ``row_shape`` do not fit."""
    shape = row_shape
    for i, spec in enumerate(specs):
        out = spec.out_shape(shape)
        if out is None:
            raise ValueError(f"input rows of shape {row_shape} do not fit layer {i} "
                             f"({spec.kind}), which gets rows of shape {shape}")
        shape = out


@dataclass
class WeightDistribution:
    """Gaussian weight hyperparameters: mean and log-variance per weight
    and per bias."""

    mean: Parameter
    log_var: Parameter
    bias_mean: Parameter
    bias_log_var: Parameter

    def __post_init__(self):
        if self.mean.shape != self.log_var.shape:
            raise ValueError("weight mean/log-variance shape mismatch")

    def parameters(self) -> list[Parameter]:
        return [self.mean, self.log_var, self.bias_mean, self.bias_log_var]


@dataclass
class GaussianActivation:
    """Moment-matched activation distribution: per-unit mean and variance."""

    mean: Tensor
    var: Tensor

    def __post_init__(self):
        if self.mean.shape != self.var.shape:
            raise ValueError("activation mean/variance shape mismatch")


def _check_input_var(var: np.ndarray) -> None:
    if np.any(var < 0.0):
        raise ValueError("negative input variance")


@dataclass(frozen=True)
class WeightMoments:
    """The moments of a layer's weights that its forward pass reads:
    var[w] = exp(log_var), var[b] = exp(bias_log_var) and, for a layer whose
    input is random, E[w^2] = E[w]^2 + var[w] (None otherwise). They depend
    on the weights alone, so evaluation computes them once for all its row
    chunks."""

    var: np.ndarray
    bias_var: np.ndarray
    second: np.ndarray | None

    @classmethod
    def of(cls, w: WeightDistribution, random_input: bool) -> WeightMoments:
        wvar = np.exp(w.log_var.data)
        second = w.mean.data * w.mean.data + wvar if random_input else None
        return cls(wvar, np.exp(w.bias_log_var.data), second)


def _affine_nodes(w, mean, var, h, v, op, out_shape, fold, moments) -> GaussianActivation:
    """One mean and one variance node of E[f] = E[h] E[w] + E[b] and var[f] =
    E[w^2] var[h] + var[w] E[h]^2 + var[b] over the rows of input means h and
    variances v (None: a deterministic input): one flattened input row per
    dense datum, one receptive field per conv output pixel. The nodes have
    ``out_shape``, and ``fold(g, w)`` maps g @ w.T back onto the input mean.
    ``moments`` are the layer's WeightMoments, or None to compute them here."""
    if moments is None:
        moments = WeightMoments.of(w, v is not None)
    wm, wvar, bvar, w2 = w.mean.data, moments.var, moments.bias_var, moments.second
    h2 = h * h
    out_mean = h @ wm
    out_var = h2 @ wvar
    if v is not None:
        _check_input_var(var.data)
        out_var = v @ w2 + out_var
    out_mean = (out_mean + w.bias_mean.data).reshape(out_shape)
    out_var = (out_var + bvar).reshape(out_shape)

    def mean_vjp(g):
        g = g.reshape(len(h), -1)
        return (fold(g, wm) if mean.requires_grad else None), h.T @ g, g.sum(0)

    def var_vjp(g):
        g = g.reshape(len(h), -1)
        g_mean = fold(g, wvar) * 2.0 * mean.data if mean.requires_grad else None
        g_bias = g.sum(axis=0) * bvar
        if v is None:
            return g_mean, None, None, h2.T @ g * wvar, g_bias
        vg = v.T @ g
        g_var = fold(g, w2) if var.requires_grad else None
        return g_mean, g_var, vg * 2.0 * wm, (h2.T @ g + vg) * wvar, g_bias

    return GaussianActivation(
        T.fused(out_mean, (mean, w.mean, w.bias_mean), mean_vjp, op),
        T.fused(out_var, (mean, var, w.mean, w.log_var, w.bias_log_var), var_vjp, op),
    )


def dense_moments(w: WeightDistribution, mean: Tensor, var: Tensor | None,
                  moments: WeightMoments | None = None) -> GaussianActivation:
    """Affine layer moments of N input rows of any shape that hold fan_in
    values each, such as the (N, H, W, C) output of a conv layer: the rows
    are flattened inside the two nodes; see _affine_nodes."""
    n = len(mean.data)
    v = None if var is None else var.data.reshape(n, -1)
    return _affine_nodes(w, mean, var, mean.data.reshape(n, -1), v, "dense_moments",
                         (n, w.mean.shape[1]), lambda g, w_: (g @ w_.T).reshape(mean.shape),
                         moments)


def _receptive_fields(x: np.ndarray, kernel: int, stride: int) -> np.ndarray:
    """Im2col of a valid strided convolution, one copy of a strided view:
    (N, H, W, C) -> (N*OH*OW, kernel*kernel*C) in (ki, kj, c) order."""
    win = np.lib.stride_tricks.sliding_window_view(x, (kernel, kernel), axis=(1, 2))
    win = win[:, ::stride, ::stride].transpose(0, 1, 2, 4, 5, 3)  # (N, OH, OW, ki, kj, C)
    return win.reshape(-1, kernel * kernel * x.shape[3])


def _fold_receptive_fields(g, w, shape, kernel, stride) -> np.ndarray:
    """col2im of the receptive-field gradient g @ w.T into the (N, H, W, C)
    input, one kernel row (kernel*C contiguous inputs) of one output column at
    a time, so that matrix is never formed; inputs sum terms in (ki, kj) order."""
    n, hh, ww, c = shape
    oh, ow = (hh - kernel) // stride + 1, (ww - kernel) // stride + 1
    g_cols = g.reshape(n, oh, ow, -1).transpose(2, 0, 1, 3).reshape(ow, n * oh, -1)
    w_rows = w.reshape(kernel, kernel * c, -1)
    full = np.zeros((n, hh, ww * c))
    for ki in range(kernel):
        rows, w_t = full[:, ki : ki + stride * oh : stride], w_rows[ki].T
        for j in reversed(range(ow)):  # kj rises as j falls
            lo = j * stride * c
            rows[:, :, lo : lo + kernel * c] += (g_cols[j] @ w_t).reshape(n, oh, -1)
    return full.reshape(shape)


def conv2d_moments(
    w: WeightDistribution, mean: Tensor, var: Tensor | None, kernel: int, stride: int,
    moments: WeightMoments | None = None,
) -> GaussianActivation:
    """Valid strided convolution moments: the affine moments of every
    receptive field, which are built inside the two nodes and never taped.
    Activations are laid out (N, H, W, C); weights (kernel*kernel*C_in, C_out)."""
    n, hh, ww, _ = mean.shape
    out_shape = (n, (hh - kernel) // stride + 1, (ww - kernel) // stride + 1, w.mean.shape[1])
    v = None if var is None else _receptive_fields(var.data, kernel, stride)
    h = _receptive_fields(mean.data, kernel, stride)
    return _affine_nodes(w, mean, var, h, v, "conv2d_moments", out_shape,
                         lambda g, w_: _fold_receptive_fields(g, w_, mean.shape, kernel, stride),
                         moments)


def _relu_core(mean: np.ndarray, var: np.ndarray):
    """Shared by the ReLU and ELU moments: the clamped variance, sigma,
    r = mu/sigma, Phi(r), pdf(r), E[relu(f)] = mu*Phi(r) + sigma*pdf(r) and
    E[relu(f)^2] = (mu^2 + sigma^2)*Phi(r) + mu*sigma*pdf(r), the last two
    built in place in that order of operations."""
    _check_input_var(var)
    safe_var = np.maximum(var, SIGMA2_MIN)
    sigma = np.sqrt(safe_var)
    r = mean / sigma
    cdf, pdf = G.cdf(r), G.pdf(r)
    first = mean * cdf
    term = np.multiply(sigma, pdf)
    first += term
    second = mean * mean
    second += safe_var
    second *= cdf
    np.multiply(mean, sigma, out=term)
    term *= pdf
    second += term
    return safe_var, sigma, r, cdf, pdf, first, second


def _activation_nodes(f: GaussianActivation, first, second, limit, partials, op: str):
    """The mean and variance nodes of an activation a(f) with E = E[a(f)]
    and E2 = E[a(f)^2]. ``partials()`` gives, elementwise, dE/dmu,
    dE/dsigma^2, dE2/dmu and dE2/dsigma^2; var = E2 - E^2 takes dE2 - 2E dE.
    It runs once, in the backward pass, for both nodes, so evaluation
    computes no partials.

    Units whose variance is below SIGMA2_MIN take the deterministic limit:
    a(mu) with variance 0 and slope a'(mu), the pair ``limit()`` gives. The
    variance floor and the clamp of var at 0 pass no gradient, as does the
    limit's variance. The selects of the limit and the floor run only for a
    batch with some unit at or below SIGMA2_MIN."""
    var = f.var.data
    out_mean, out_var = first, np.multiply(first, first)
    np.subtract(second, out_var, out=out_var)
    np.maximum(out_var, 0.0, out=out_var)
    floor = bool((var <= SIGMA2_MIN).any())
    if floor:
        det, above_floor = var < SIGMA2_MIN, var > SIGMA2_MIN
        det_mean, slope = limit()
        out_mean = np.where(det, det_mean, first)
        out_var = np.where(det, 0.0, out_var)
    partials = functools.cache(partials)

    def mean_vjp(g):
        e_mu, e_s2, _, _ = partials()
        if not floor:
            return g * e_mu, g * e_s2
        return g * np.where(det, slope, e_mu), g * np.where(above_floor, e_s2, 0.0)

    def var_vjp(g):
        e_mu, e_s2, e2_mu, e2_s2 = partials()
        passes = out_var != 0.0  # not the limit, and var = E2 - E^2 was not clamped
        if not passes.all():
            g = np.where(passes, g, 0.0)
        two_first = 2.0 * first
        g_mu = np.multiply(two_first, e_mu)
        np.subtract(e2_mu, g_mu, out=g_mu)
        g_s2 = np.multiply(two_first, e_s2, out=two_first)
        np.subtract(e2_s2, g_s2, out=g_s2)
        if floor:
            g_s2 = np.where(above_floor, g_s2, 0.0)
        g_mu *= g
        g_s2 *= g
        return g_mu, g_s2

    parents = (f.mean, f.var)
    return GaussianActivation(T.fused(out_mean, parents, mean_vjp, op),
                              T.fused(out_var, parents, var_vjp, op))


def relu_moments(f: GaussianActivation) -> GaussianActivation:
    """Closed-form mean/variance of max(0, f) for Gaussian f.

    With r = mu/sigma: E = mu*Phi(r) + sigma*pdf(r),
    var = (mu^2 + sigma^2)*Phi(r) + mu*sigma*pdf(r) - E^2, with gradients
    dE/dmu = Phi(r), dE/dsigma^2 = pdf(r)/(2 sigma), dvar/dmu = 2E(1 - Phi(r))
    and dvar/dsigma^2 = Phi(r) - E pdf(r)/sigma.
    Degenerate variances fall back to the deterministic ReLU.
    """
    mu = f.mean.data
    _, sigma, _, cdf, pdf, first, second = _relu_core(mu, f.var.data)

    def partials():
        e_s2 = np.multiply(pdf, 0.5)
        e_s2 /= sigma
        return cdf, e_s2, 2.0 * first, cdf

    return _activation_nodes(f, first, second, lambda: (np.maximum(mu, 0.0), mu > 0.0),
                             partials, "relu_moments")


def elu_moments(f: GaussianActivation) -> GaussianActivation:
    """Closed-form mean/variance of the ELU (alpha = 1) of a Gaussian.

    The negative branch contributes terms of the form exp(a)*Phi(-b) that
    are evaluated through the scaled erfcx product, which never overflows
    (the effective exponent is -mu^2 / (2 sigma^2) <= 0). With
    t1 = E[exp(f); f < 0] and t2 = E[exp(2f); f < 0], Stein's lemma gives
    dE/dmu = Phi(r) + t1, dE/dsigma^2 = t1/2, dE2/dmu = 2 E[relu(f)] + 2 (t2 - t1)
    and dE2/dsigma^2 = Phi(r) + 2 t2 - t1.
    """
    mu = f.mean.data
    safe_var, sigma, r, cdf, _, relu_mean, relu_second = _relu_core(mu, f.var.data)
    # exp(mu + s^2/2) Phi(-(mu + s^2)/sigma)
    t1 = G.exp_scaled_cdf(mu + 0.5 * safe_var, (mu + safe_var) / sigma)
    # exp(2 mu + 2 s^2) Phi(-(mu + 2 s^2)/sigma)
    t2 = G.exp_scaled_cdf(2.0 * mu + 2.0 * safe_var, (mu + 2.0 * safe_var) / sigma)
    cdf_neg = G.cdf(-r)
    first = t1 - cdf_neg + relu_mean
    second = t2 - 2.0 * t1 + cdf_neg + relu_second

    def limit():
        exp_neg = np.exp(np.minimum(mu, 0.0))
        return np.where(mu > 0.0, mu, exp_neg - 1.0), np.where(mu > 0.0, 1.0, exp_neg)

    return _activation_nodes(
        f, first, second, limit,
        lambda: (cdf + t1, 0.5 * t1, 2.0 * relu_mean + 2.0 * (t2 - t1), cdf + (2.0 * t2 - t1)),
        "elu_moments",
    )


def activation_moments(f: GaussianActivation, spec: LayerSpec) -> GaussianActivation:
    if spec.activation == "relu":
        return relu_moments(f)
    if spec.activation == "elu":
        return elu_moments(f)
    return f


class MomentNetwork:
    """A chain of layers with Gaussian weights, evaluated by recursive
    moment matching from the (deterministic) input upward.

    The network owns its trainable state as one flat float64 buffer
    ``data``. Layer by layer, the weight mean and log-variance (weight_shape
    each) and the bias mean and log-variance (n_out each) are views of it, in
    parameters() order; this constructor is the one place that lays them
    out. Given a gradient buffer ``grad`` of the same size, the views are
    Parameters whose grads are the views of ``grad`` at the same place, so
    backward passes add into it; without one they are plain tensors that
    record no tape. A buffer of another size is a ValueError."""

    def __init__(self, specs: list[LayerSpec], data: np.ndarray, grad: np.ndarray | None = None):
        if not specs:
            raise ValueError("network has no layers")
        shapes = [shape for s in specs for shape in (s.weight_shape,) * 2 + ((s.n_out,),) * 2]
        ends = np.cumsum([0] + [math.prod(shape) for shape in shapes])
        if data.shape != (ends[-1],):
            raise ValueError(f"{data.size} values where the layer specs need {ends[-1]}")
        tensors = []
        for a, b, shape in zip(ends, ends[1:], shapes):
            view = data[a:b].reshape(shape)
            tensors.append(Tensor(view) if grad is None
                           else Parameter(view, grad[a:b].reshape(shape)))
        self.specs, self.data, self.grad = specs, data, grad
        self.weights = [WeightDistribution(*tensors[i : i + 4]) for i in range(0, len(tensors), 4)]

    def parameters(self) -> list[Parameter]:
        return [p for w in self.weights for p in w.parameters()]

    def weight_moments(self) -> list[WeightMoments]:
        """Each layer's WeightMoments for ``forward``; only the first layer's
        input is deterministic, so only it goes without E[w^2]."""
        return [WeightMoments.of(w, i > 0) for i, w in enumerate(self.weights)]

    def forward(self, x: np.ndarray,
                moments: list[WeightMoments] | None = None) -> GaussianActivation:
        """Propagate a deterministic input batch; returns final-layer
        pre-activation moments (the last spec's activation is applied only
        if it is not 'identity'). Rows that do not fit a layer are a
        ValueError that names it (see check_rows). ``moments``, from
        ``weight_moments()`` on the current weights, saves recomputing them
        when many batches go through unchanged weights."""
        mean, var = Tensor(x), None  # the input is deterministic
        check_rows(self.specs, mean.shape[1:])
        moments = moments or [None] * len(self.weights)
        for spec, w, wm in zip(self.specs, self.weights, moments):
            h = (conv2d_moments(w, mean, var, spec.kernel, spec.stride, wm)
                 if spec.kind == "conv2d" else dense_moments(w, mean, var, wm))
            h = activation_moments(h, spec)
            mean, var = h.mean, h.var
        return h


def init_weights(spec: LayerSpec, rng: np.random.Generator, log_var_mean: float = INIT_LOG_VAR_MEAN,
                 log_var_var: float = INIT_LOG_VAR_VAR) -> list[np.ndarray]:
    """He-Normal weight means (std sqrt(2/fan_in)), zero bias means, and
    near-deterministic log-variances drawn from N(log_var_mean, log_var_var),
    in WeightDistribution.parameters() order."""
    shape = spec.weight_shape
    mean = rng.normal(0.0, np.sqrt(2.0 / shape[0]), size=shape)
    log_var = rng.normal(log_var_mean, np.sqrt(log_var_var), size=shape)
    bias_log_var = rng.normal(log_var_mean, np.sqrt(log_var_var), size=shape[1])
    return [mean, log_var, np.zeros(shape[1]), bias_log_var]


def build_network(specs: list[LayerSpec], rng: np.random.Generator, **init_kw) -> MomentNetwork:
    """A freshly initialized network with a zeroed gradient buffer, for training."""
    data = np.concatenate([a.ravel() for s in specs for a in init_weights(s, rng, **init_kw)])
    return MomentNetwork(specs, data, np.zeros_like(data))
