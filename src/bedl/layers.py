"""Moment propagation through networks with Gaussian weight distributions.

Each weight carries a mean and a log-variance. Pre-activation means and
variances are propagated in closed form (diagonal covariance only), and
ReLU/ELU activations are pushed through via their analytic Gaussian
moments. The whole pass is differentiable with respect to every weight
mean and log-variance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .tensor import Parameter, Tensor

# Below this variance the activation moments switch to their deterministic
# limit to avoid 0/0 in mean/std ratios.
SIGMA2_MIN = 1e-12


@dataclass(frozen=True)
class LayerSpec:
    """One layer of the network.

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
    alpha: float = 1.0
    bias: bool = True

    def __post_init__(self):
        if self.kind not in ("dense", "conv2d"):
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.activation not in ("relu", "elu", "identity"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.kind == "conv2d" and self.stride < 1:
            raise ValueError("stride must be >= 1")

    @property
    def weight_shape(self) -> tuple:
        if self.kind == "dense":
            return (self.fan_in, self.fan_out)
        return (self.kernel * self.kernel * self.in_channels, self.out_channels)

    @property
    def n_out(self) -> int:
        return self.fan_out if self.kind == "dense" else self.out_channels


@dataclass
class WeightDistribution:
    """Gaussian weight hyperparameters: mean and log-variance per weight."""

    mean: Parameter
    log_var: Parameter
    bias_mean: Parameter | None = None
    bias_log_var: Parameter | None = None

    def __post_init__(self):
        if self.mean.shape != self.log_var.shape:
            raise ValueError("weight mean/log-variance shape mismatch")

    def parameters(self) -> list[Parameter]:
        ps = [self.mean, self.log_var]
        if self.bias_mean is not None:
            ps += [self.bias_mean, self.bias_log_var]
        return ps

    def variance(self) -> Tensor:
        return T.exp(self.log_var)

    def bias_variance(self) -> Tensor:
        return T.exp(self.bias_log_var)


@dataclass
class GaussianActivation:
    """Moment-matched activation distribution: per-unit mean and variance."""

    mean: Tensor
    var: Tensor

    def __post_init__(self):
        if self.mean.shape != self.var.shape:
            raise ValueError("activation mean/variance shape mismatch")


def _check_input_var(var: Tensor) -> None:
    if np.any(var.data < 0.0):
        raise ValueError("negative input variance")


def dense_moments(w: WeightDistribution, mean: Tensor, var: Tensor | None) -> GaussianActivation:
    """Affine layer moments for Gaussian weights and independent Gaussian
    inputs: E[f] = E[h] E[w], var[f] = E[w^2] var[h] + var[w] E[h]^2.
    ``var=None`` is a deterministic input, whose var[h] term vanishes."""
    wvar = w.variance()
    out_mean = T.matmul(mean, w.mean)
    out_var = T.matmul(T.square(mean), wvar)
    if var is not None:
        _check_input_var(var)
        out_var = T.matmul(var, T.square(w.mean) + wvar) + out_var
    if w.bias_mean is not None:
        out_mean = out_mean + w.bias_mean
        out_var = out_var + w.bias_variance()
    return GaussianActivation(out_mean, out_var)


def conv2d_moments(
    w: WeightDistribution, mean: Tensor, var: Tensor | None, kernel: int, stride: int
) -> GaussianActivation:
    """Valid strided convolution moments: dense_moments over the flattened
    receptive field of every output position.

    Activations are laid out (N, H, W, C); weights (kernel*kernel*C_in, C_out).
    """
    n, hh, ww, _ = mean.shape
    out_shape = (n, (hh - kernel) // stride + 1, (ww - kernel) // stride + 1, w.mean.shape[1])

    def patches(t: Tensor) -> Tensor:
        p = T.extract_patches(t, kernel, stride)
        return T.reshape(p, (-1, p.shape[-1]))

    f = dense_moments(w, patches(mean), None if var is None else patches(var))
    return GaussianActivation(T.reshape(f.mean, out_shape), T.reshape(f.var, out_shape))


def _relu_core(f: GaussianActivation):
    """Shared by the ReLU and ELU moments: the clamped variance, sigma,
    r = mu/sigma, E[relu(f)] = mu*Phi(r) + sigma*pdf(r) and
    E[relu(f)^2] = (mu^2 + sigma^2)*Phi(r) + mu*sigma*pdf(r)."""
    _check_input_var(f.var)
    safe_var = T.clamp_min(f.var, SIGMA2_MIN)
    sigma = T.sqrt(safe_var)
    r = f.mean / sigma
    cdf = T.normal_cdf(r)
    pdf = T.normal_pdf(r)
    first = f.mean * cdf + sigma * pdf
    second = (T.square(f.mean) + safe_var) * cdf + f.mean * sigma * pdf
    return safe_var, sigma, r, first, second


def _moments_or_limit(f: GaussianActivation, det_mean: Tensor, mean_s: Tensor, var_s: Tensor):
    """Units whose variance is below SIGMA2_MIN take the deterministic limit."""
    det_mask = f.var.data < SIGMA2_MIN
    return GaussianActivation(
        T.where(det_mask, det_mean, mean_s),
        T.where(det_mask, T.constant(np.zeros(f.var.shape)), var_s),
    )


def relu_moments(f: GaussianActivation) -> GaussianActivation:
    """Closed-form mean/variance of max(0, f) for Gaussian f.

    With r = mu/sigma: E = mu*Phi(r) + sigma*pdf(r),
    var = (mu^2 + sigma^2)*Phi(r) + mu*sigma*pdf(r) - E^2.
    Degenerate variances fall back to the deterministic ReLU.
    """
    _, _, _, mean_s, second = _relu_core(f)
    var_s = T.clamp_min(second - T.square(mean_s), 0.0)
    return _moments_or_limit(f, T.relu(f.mean), mean_s, var_s)


def elu_moments(f: GaussianActivation, alpha: float = 1.0) -> GaussianActivation:
    """Closed-form mean/variance of the ELU of a Gaussian.

    The negative branch contributes terms of the form exp(a)*Phi(-b) that
    are evaluated through the scaled erfcx product, which never overflows
    (the effective exponent is -mu^2 / (2 sigma^2) <= 0).
    """
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    safe_var, sigma, r, relu_mean, relu_second = _relu_core(f)
    mu = f.mean

    # exp(mu + s^2/2) Phi(-(mu + s^2)/sigma)
    t1 = T.exp_scaled_cdf(mu + 0.5 * safe_var, (mu + safe_var) / sigma)
    # exp(2 mu + 2 s^2) Phi(-(mu + 2 s^2)/sigma)
    t2 = T.exp_scaled_cdf(2.0 * mu + 2.0 * safe_var, (mu + 2.0 * safe_var) / sigma)
    cdf_neg = T.normal_cdf(-r)

    mean_s = alpha * (t1 - cdf_neg) + relu_mean
    second_s = alpha * alpha * (t2 - 2.0 * t1 + cdf_neg) + relu_second
    var_s = T.clamp_min(second_s - T.square(mean_s), 0.0)

    det_mean = T.where(mu.data > 0.0, mu, alpha * (T.exp(T.clamp_max(mu, 0.0)) - 1.0))
    return _moments_or_limit(f, det_mean, mean_s, var_s)


def activation_moments(f: GaussianActivation, spec: LayerSpec) -> GaussianActivation:
    if spec.activation == "relu":
        return relu_moments(f)
    if spec.activation == "elu":
        return elu_moments(f, spec.alpha)
    return f


_INPUT_LAYOUT = {"dense": (2, "(N, d)"), "conv2d": (4, "(N, H, W, C)")}


@dataclass
class MomentNetwork:
    """A chain of layers with Gaussian weights, evaluated by recursive
    moment matching from the (deterministic) input upward."""

    specs: list[LayerSpec]
    weights: list[WeightDistribution] = field(default_factory=list)

    def parameters(self) -> list[Parameter]:
        return [p for w in self.weights for p in w.parameters()]

    def forward(self, x: np.ndarray | Tensor) -> GaussianActivation:
        """Propagate a deterministic input batch; returns final-layer
        pre-activation moments (the last spec's activation is applied only
        if it is not 'identity')."""
        if not (self.specs and self.weights):
            raise ValueError("network has no layers")
        mean = x if isinstance(x, Tensor) else T.constant(np.asarray(x, dtype=np.float64))
        var = None  # the input is deterministic
        ndim, layout = _INPUT_LAYOUT[self.specs[0].kind]
        if mean.data.ndim != ndim:
            raise ValueError(f"{self.specs[0].kind} input must be {layout}")
        for spec, w in zip(self.specs, self.weights):
            if spec.kind == "conv2d":
                h = conv2d_moments(w, mean, var, spec.kernel, spec.stride)
            else:
                if mean.data.ndim == 4:  # conv -> dense flatten
                    n = mean.shape[0]
                    mean, var = T.reshape(mean, (n, -1)), T.reshape(var, (n, -1))
                h = dense_moments(w, mean, var)
            h = activation_moments(h, spec)
            mean, var = h.mean, h.var
        return h


def init_weights(
    spec: LayerSpec,
    rng: np.random.Generator,
    log_var_mean: float = -9.0,
    log_var_var: float = 0.001,
) -> WeightDistribution:
    """He-Normal means (std sqrt(2/fan_in)) and near-deterministic
    log-variances drawn from N(log_var_mean, log_var_var)."""
    shape = spec.weight_shape
    fan_in = shape[0]
    mean = Parameter(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=shape))
    log_var = Parameter(rng.normal(log_var_mean, np.sqrt(log_var_var), size=shape))
    if spec.bias:
        bias_mean = Parameter(np.zeros(shape[1]))
        bias_log_var = Parameter(rng.normal(log_var_mean, np.sqrt(log_var_var), size=shape[1]))
        return WeightDistribution(mean, log_var, bias_mean, bias_log_var)
    return WeightDistribution(mean, log_var)


def build_network(specs: list[LayerSpec], rng: np.random.Generator, **init_kw) -> MomentNetwork:
    return MomentNetwork(specs, [init_weights(s, rng, **init_kw) for s in specs])
