import numpy as np
import pytest

from bedl import layers as L
from bedl import tensor as T
from bedl.oracle import make_rng, sample_forward

from conftest import check_grads, gaussian_activation_quadrature

rng = np.random.default_rng(11)


def _weights(fan_in, fan_out, log_var=-3.0, bias=True):
    mean = T.Parameter(rng.normal(size=(fan_in, fan_out)))
    lv = T.Parameter(np.full((fan_in, fan_out), log_var))
    if bias:
        return L.WeightDistribution(
            mean, lv, T.Parameter(rng.normal(size=fan_out)), T.Parameter(np.full(fan_out, log_var))
        )
    return L.WeightDistribution(mean, lv)


def _gauss(mean, var):
    return L.GaussianActivation(T.constant(mean), T.constant(var))


def test_dense_moments_closed_form():
    w = _weights(3, 2)
    hm = rng.normal(size=(4, 3))
    hv = rng.uniform(0.1, 1.0, size=(4, 3))
    out = L.dense_moments(w, T.constant(hm), T.constant(hv))
    wm, wv = w.mean.data, np.exp(w.log_var.data)
    np.testing.assert_allclose(out.mean.data, hm @ wm + w.bias_mean.data, rtol=1e-12)
    np.testing.assert_allclose(
        out.var.data,
        hv @ (wm**2 + wv) + hm**2 @ wv + np.exp(w.bias_log_var.data),
        rtol=1e-12,
    )


def test_input_moments_zero_input_variance():
    w = _weights(3, 2)
    x = rng.normal(size=(5, 3))
    out = L.dense_moments(w, T.constant(x), None)
    np.testing.assert_allclose(out.mean.data, x @ w.mean.data + w.bias_mean.data, rtol=1e-12)
    np.testing.assert_allclose(
        out.var.data, x**2 @ np.exp(w.log_var.data) + np.exp(w.bias_log_var.data), rtol=1e-12
    )


def test_relu_moments_vs_quadrature():
    for mu in (-3.0, -0.5, 0.0, 0.8, 4.0):
        for sigma in (0.05, 0.7, 2.5):
            out = L.relu_moments(_gauss(np.array([[mu]]), np.array([[sigma**2]])))
            qm, qv = gaussian_activation_quadrature("relu", mu, sigma)
            np.testing.assert_allclose(out.mean.data[0, 0], qm, atol=1e-9)
            np.testing.assert_allclose(out.var.data[0, 0], qv, atol=1e-9)


@pytest.mark.parametrize("alpha", [1.0, 0.3])
def test_elu_moments_vs_quadrature(alpha):
    for mu in (-4.0, -1.0, 0.0, 1.2, 5.0):
        for sigma in (0.05, 0.9, 3.0):
            out = L.elu_moments(_gauss(np.array([[mu]]), np.array([[sigma**2]])), alpha=alpha)
            qm, qv = gaussian_activation_quadrature("elu", mu, sigma, alpha=alpha)
            np.testing.assert_allclose(out.mean.data[0, 0], qm, atol=1e-8)
            np.testing.assert_allclose(out.var.data[0, 0], qv, atol=1e-8)


def test_activation_moments_deterministic_limit():
    mu = np.array([[-2.0, -0.3, 0.0, 1.7]])
    zero = np.zeros_like(mu)
    relu = L.relu_moments(_gauss(mu, zero))
    np.testing.assert_allclose(relu.mean.data, np.maximum(mu, 0.0))
    np.testing.assert_allclose(relu.var.data, zero)
    elu = L.elu_moments(_gauss(mu, zero))
    np.testing.assert_allclose(elu.mean.data, np.where(mu > 0, mu, np.exp(mu) - 1.0))
    np.testing.assert_allclose(elu.var.data, zero)


def test_negative_input_variance_rejected():
    with pytest.raises(ValueError):
        L.relu_moments(_gauss(np.zeros((1, 2)), np.array([[1.0, -0.1]])))


def test_one_hidden_layer_net_matches_mc_oracle():
    specs = [
        L.LayerSpec("dense", fan_in=3, fan_out=8, activation="relu"),
        L.LayerSpec("dense", fan_in=8, fan_out=2, activation="identity"),
    ]
    net = L.build_network(specs, np.random.default_rng(0), log_var_mean=-3.0, log_var_var=0.1)
    x = rng.normal(size=(2, 3))
    mm = net.forward(x)
    est = sample_forward(net, x, make_rng(0, 1), 200_000)
    assert np.all(np.abs(mm.mean.data - est.mean) < 5 * est.mean_se)
    assert np.all(np.abs(mm.var.data - est.var) < 5 * est.var_se + 0.02 * est.var)


def test_conv_layer_matches_mc_oracle():
    # single strided conv layer: affine in the weights, so the propagated
    # moments are exact per output position
    specs = [
        L.LayerSpec("conv2d", in_channels=2, out_channels=3, kernel=3, stride=2,
                    activation="identity"),
    ]
    net = L.build_network(specs, np.random.default_rng(1), log_var_mean=-3.0, log_var_var=0.1)
    x = rng.uniform(size=(2, 7, 7, 2))
    mm = net.forward(x)
    est = sample_forward(net, x, make_rng(1, 1), 200_000)
    assert mm.mean.shape == (2, 3, 3, 3)
    assert np.all(np.abs(mm.mean.data - est.mean) < 5 * est.mean_se)
    assert np.all(np.abs(mm.var.data - est.var) < 5 * est.var_se)


def test_conv_dense_chain_mean_matches_mc_oracle():
    # conv -> dense: the mean path stays exact; the variance inherits the
    # diagonal-covariance bias (weight sharing correlates spatial
    # positions), so only a coarse variance agreement is demanded here
    specs = [
        L.LayerSpec("conv2d", in_channels=1, out_channels=3, kernel=3, stride=2,
                    activation="elu"),
        L.LayerSpec("dense", fan_in=3 * 3 * 3, fan_out=2, activation="identity"),
    ]
    net = L.build_network(specs, np.random.default_rng(1), log_var_mean=-3.0, log_var_var=0.1)
    x = rng.uniform(size=(2, 7, 7, 1))
    mm = net.forward(x)
    est = sample_forward(net, x, make_rng(1, 2), 200_000)
    assert np.all(np.abs(mm.mean.data - est.mean) < 5 * est.mean_se)
    assert np.all(np.abs(mm.var.data - est.var) < 0.5 * est.var)


def test_forward_is_differentiable_end_to_end():
    specs = [
        L.LayerSpec("dense", fan_in=2, fan_out=3, activation="elu"),
        L.LayerSpec("dense", fan_in=3, fan_out=2, activation="identity"),
    ]
    net = L.build_network(specs, np.random.default_rng(2), log_var_mean=-2.0, log_var_var=0.1)
    x = rng.normal(size=(4, 2))

    def f():
        out = net.forward(x)
        return T.tsum(out.mean) + T.tsum(T.log(out.var))

    check_grads(f, net.parameters(), rel_tol=1e-5)


def test_init_weights_statistics():
    spec = L.LayerSpec("dense", fan_in=400, fan_out=300, activation="relu")
    w = L.init_weights(spec, np.random.default_rng(3))
    assert w.mean.shape == (400, 300)
    assert abs(w.mean.data.std() - np.sqrt(2.0 / 400)) < 0.005
    assert abs(w.log_var.data.mean() + 9.0) < 0.01
    np.testing.assert_allclose(w.bias_mean.data, 0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        L.LayerSpec("pool", fan_in=2, fan_out=2)
    with pytest.raises(ValueError):
        L.LayerSpec("dense", fan_in=2, fan_out=2, activation="tanh")
    with pytest.raises(ValueError):
        L.LayerSpec("conv2d", in_channels=1, out_channels=1, kernel=3, stride=0)
