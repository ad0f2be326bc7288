import numpy as np
import pytest
from scipy import stats

from bedl import layers as L
from bedl import oracle

rng = np.random.default_rng(41)


def _linear_net(fan_in=3, fan_out=2, log_var=-2.0, seed=0):
    spec = L.LayerSpec("dense", fan_in=fan_in, fan_out=fan_out, activation="identity")
    r = np.random.default_rng(seed)
    data = np.concatenate([r.normal(size=fan_in * fan_out), np.full(fan_in * fan_out, log_var),
                           r.normal(size=fan_out), np.full(fan_out, log_var)])
    return L.MomentNetwork([spec], data, np.zeros_like(data))


def test_make_rng_is_reproducible_and_stream_separated():
    a = oracle.make_rng(3, 1).standard_normal(5)
    b = oracle.make_rng(3, 1).standard_normal(5)
    c = oracle.make_rng(3, 2).standard_normal(5)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_deterministic_forward_matches_manual_numpy():
    net = _linear_net()
    wd = rng.normal(size=(4, 3, 2))
    bd = rng.normal(size=(4, 2))
    x = rng.normal(size=(5, 3))
    out = oracle.deterministic_forward(net, x, [(wd, bd)])
    manual = np.einsum("ni,sio->sno", x, wd) + bd[:, None]
    np.testing.assert_allclose(out, manual, rtol=1e-12)


def test_sample_forward_on_linear_net_matches_exact_moments():
    # for a single affine layer the moment-matched values are exact,
    # so the sampled estimate must agree within its own standard errors
    net = _linear_net()
    x = rng.normal(size=(3, 3))
    est = oracle.sample_forward(net, x, oracle.make_rng(0, 0), 100_000)
    mm = net.forward(x)
    assert np.all(np.abs(est.mean - mm.mean.data) < 4 * est.mean_se)
    assert np.all(np.abs(est.var - mm.var.data) < 4 * est.var_se)


def test_sample_forward_rejects_tiny_sample_counts():
    net = _linear_net()
    with pytest.raises(ValueError):
        oracle.sample_forward(net, np.zeros((1, 3)), oracle.make_rng(0, 0), 50)


def test_regression_marginal_on_deterministic_net_is_exact():
    # zero weight variance: the MC marginal collapses to the closed-form
    # likelihood of the single deterministic function
    net = _linear_net(log_var=-60.0)
    x = rng.normal(size=(2, 3))
    y = rng.normal(size=2)
    est = oracle.sample_marginal_likelihood(net, x, y, 100.0, oracle.make_rng(0, 1), 200)
    f = x @ net.weights[0].mean.data + net.weights[0].bias_mean.data
    v = 1.0 / 100.0 + np.exp(f[:, 1])
    expected = stats.norm.logpdf(y, loc=f[:, 0], scale=np.sqrt(v))
    np.testing.assert_allclose(est.value, expected, atol=1e-6)
    assert np.all(est.se < 1e-6)


def test_classification_marginal_on_deterministic_net_is_log_softmax():
    net = _linear_net(fan_out=3, log_var=-60.0)
    x = rng.normal(size=(2, 3))
    y = np.eye(3)[[0, 2]]
    est = oracle.sample_marginal_likelihood(net, x, y, None, oracle.make_rng(0, 2), 200)
    f = x @ net.weights[0].mean.data + net.weights[0].bias_mean.data
    logp = f - np.log(np.exp(f).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(est.value, (logp * y).sum(axis=1), atol=1e-6)

