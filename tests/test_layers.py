import re

import numpy as np
import pytest

from bedl import layers as L
from bedl import oracle
from bedl import tensor as T
from bedl.oracle import make_rng, sample_forward

from conftest import (check_grads, elementwise, finite_diff_grad, gaussian_activation_quadrature,
                      weighted_sum)

rng = np.random.default_rng(11)


def _weights(fan_in, fan_out, log_var=-3.0, r=rng):
    mean = T.Parameter(r.normal(size=(fan_in, fan_out)))
    lv = T.Parameter(np.full((fan_in, fan_out), log_var))
    return L.WeightDistribution(
        mean, lv, T.Parameter(r.normal(size=fan_out)), T.Parameter(np.full(fan_out, log_var))
    )


def _gauss(mean, var):
    return L.GaussianActivation(T.Tensor(mean), T.Tensor(var))


def test_dense_moments_closed_form():
    w = _weights(3, 2)
    hm = rng.normal(size=(4, 3))
    hv = rng.uniform(0.1, 1.0, size=(4, 3))
    out = L.dense_moments(w, T.Tensor(hm), T.Tensor(hv), L.WeightMoments.of(w, True))
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
    out = L.dense_moments(w, T.Tensor(x), None, L.WeightMoments.of(w, False))
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


def test_elu_moments_vs_quadrature():
    for mu in (-4.0, -1.0, 0.0, 1.2, 5.0):
        for sigma in (0.05, 0.9, 3.0):
            out = L.elu_moments(_gauss(np.array([[mu]]), np.array([[sigma**2]])))
            qm, qv = gaussian_activation_quadrature("elu", mu, sigma)
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


def test_forward_with_weight_moments_given_equals_forward_bitwise():
    # evaluation hands forward the moments of its fixed weights once per
    # pass; a conv -> conv -> dense net reads E[w^2] from its second layer on
    specs = [
        L.LayerSpec("conv2d", in_channels=1, out_channels=3, kernel=3, activation="relu"),
        L.LayerSpec("conv2d", in_channels=3, out_channels=2, kernel=3, stride=2,
                    activation="elu"),
        L.LayerSpec("dense", fan_in=2 * 2 * 2, fan_out=4, activation="relu"),
        L.LayerSpec("dense", fan_in=4, fan_out=2),
    ]
    net = L.build_network(specs, np.random.default_rng(2), log_var_mean=-3.0, log_var_var=0.1)
    moments = net.weight_moments()
    assert [m.second is None for m in moments] == [True, False, False, False]
    x = rng.uniform(size=(3, 7, 7, 1))
    given, computed = net.forward(x, moments), net.forward(x)
    np.testing.assert_array_equal(given.mean.data, computed.mean.data)
    np.testing.assert_array_equal(given.var.data, computed.var.data)


def test_forward_is_differentiable_end_to_end():
    specs = [
        L.LayerSpec("dense", fan_in=2, fan_out=3, activation="elu"),
        L.LayerSpec("dense", fan_in=3, fan_out=2, activation="identity"),
    ]
    net = L.build_network(specs, np.random.default_rng(2), log_var_mean=-2.0, log_var_var=0.1)
    x = rng.normal(size=(4, 2))

    def f():
        out = net.forward(x)
        return weighted_sum((out.mean, 1.0), (elementwise(out.var, np.log, lambda v: 1.0 / v), 1.0))

    check_grads(f, net.parameters(), rel_tol=1e-5)


def _weighted_moments(out: L.GaussianActivation):
    # a scalar that depends on every output mean and variance differently
    r = np.random.default_rng(out.mean.size)
    return weighted_sum((out.mean, r.normal(size=out.mean.shape)),
                        (out.var, r.normal(size=out.var.shape)))


@pytest.mark.parametrize(
    "input_var,rows",
    [(True, (3,)), (False, (3,)),
     (True, (2, 1, 3))],  # (N, H, W, C) rows, as a conv layer gives them
    ids=["True-True", "False-True", "4d-rows"],  # input variance, then a bias
)
def test_dense_moments_gradcheck(input_var, rows):
    # the 4-D case has its own generator: the tests after it see the draws they always saw
    r = rng if len(rows) == 1 else np.random.default_rng(12)
    w = _weights(int(np.prod(rows)), 2, log_var=-1.0, r=r)
    mean = T.Parameter(r.normal(size=(4, *rows)))
    var = T.Parameter(r.uniform(0.1, 1.0, size=(4, *rows))) if input_var else None
    params = w.parameters() + [mean] + ([var] if input_var else [])
    check_grads(lambda: _weighted_moments(
        L.dense_moments(w, mean, var, L.WeightMoments.of(w, var is not None))),
        params, rel_tol=1e-6)


def test_dense_moments_of_image_rows_equal_flattened_rows():
    # flattening inside the two nodes gives the bits of flat input rows
    r = np.random.default_rng(13)
    w = _weights(12, 3, log_var=-1.0, r=r)
    mean = r.normal(size=(4, 2, 2, 3))
    var = r.uniform(0.1, 1.0, size=(4, 2, 2, 3))
    runs = []
    for rows in ((mean, var), (mean.reshape(4, -1), var.reshape(4, -1))):
        inputs = [T.Parameter(a) for a in rows]
        for p in w.parameters():
            p.grad = None
        out = L.dense_moments(w, *inputs, L.WeightMoments.of(w, True))
        _weighted_moments(out).backward()
        runs.append([out.mean.data, out.var.data] + [p.grad for p in w.parameters()]
                    + [p.grad.reshape(mean.shape) for p in inputs])
    for direct, flat in zip(*runs):
        np.testing.assert_array_equal(direct, flat)


@pytest.mark.parametrize("shape,layer,needs", [
    ((2, 9, 9, 2), 0, "(H, W, 1) images at least 3 high and wide"),  # one channel too many
    ((2, 2, 2, 1), 0, "(H, W, 1) images at least 3 high and wide"),  # smaller than the kernel
    # the first layer's 2x2 output is smaller than the second kernel
    ((2, 4, 4, 1), 1, "(H, W, 4) images at least 3 high and wide"),
    ((2, 11, 11, 1), 2, "rows of 27 values"),  # 4x4x3 values for a dense layer that takes 27
    ((2, 81), 0, "(H, W, 1) images at least 3 high and wide"),  # not images
], ids=["channels", "below-kernel", "below-second-kernel", "flat-width", "flat-rows"])
def test_forward_names_the_layer_that_rows_do_not_fit(shape, layer, needs):
    # the message names the layer and what it needs, not the shape it gets
    specs = [L.LayerSpec("conv2d", in_channels=1, out_channels=4, kernel=3, activation="relu"),
             L.LayerSpec("conv2d", in_channels=4, out_channels=3, kernel=3, stride=2),
             L.LayerSpec("dense", fan_in=27, fan_out=3)]
    net = L.build_network(specs, np.random.default_rng(0))
    kind = specs[layer].kind
    message = f"fit layer {layer} ({kind}), which needs {needs}"
    with pytest.raises(ValueError, match=re.escape(message)):
        net.forward(np.zeros(shape))
    assert net.forward(np.zeros((2, 9, 9, 1))).mean.shape == (2, 3)


def _check_grads_fourth_order(fn, params, rel_tol, h=1e-3):
    """check_grads against the fourth-order central difference
    (8 (f(x+h) - f(x-h)) - (f(x+2h) - f(x-2h))) / 12h, that is 4/3 D(h) - 1/3 D(2h)
    for the two-point difference D. Its truncation error is O(h^4), so a step
    of 1e-3 keeps both it and the roundoff of f far below rel_tol, which the
    two-point difference at its 1e-5 step does not on every draw."""
    for p in params:
        p.grad = None
    fn().backward()
    analytic = [p.grad.copy() for p in params]
    near, far = (finite_diff_grad(lambda: fn().item(), params, step) for step in (h, 2 * h))
    for a, d_h, d_2h in zip(analytic, near, far):
        numeric = (4.0 * d_h - d_2h) / 3.0
        worst = float(np.max(np.abs(a - numeric) / np.maximum(np.abs(numeric), 1e-6)))
        assert worst < rel_tol, f"gradient mismatch: worst rel err {worst:.3g}"


@pytest.mark.parametrize(
    "kernel,stride,size,input_var",
    [(2, 2, (5, 5), True),  # windows that never overlap
     (3, 1, (5, 5), True),  # overlapping windows: col2im sums several terms per input
     (3, 2, (6, 7), True),  # the last input row lies in no window
     (3, 1, (5, 6), False)],  # a first layer: deterministic input
    ids=["k2-s2", "k3-s1", "k3-s2-edge", "first-layer"],
)
def test_conv2d_moments_gradcheck(kernel, stride, size, input_var):
    w = _weights(kernel * kernel * 2, 3, log_var=-1.0)
    mean = T.Parameter(rng.normal(size=(2, *size, 2)))
    var = T.Parameter(rng.uniform(0.1, 1.0, size=(2, *size, 2))) if input_var else None

    def f():
        moments = L.WeightMoments.of(w, var is not None)
        return _weighted_moments(L.conv2d_moments(w, mean, var, kernel, stride, moments))

    _check_grads_fourth_order(f, w.parameters() + [mean] + ([var] if input_var else []),
                              rel_tol=1e-6)


@pytest.mark.parametrize(
    "kernel,stride,size",
    [(2, 2, (5, 5)), (3, 1, (5, 5)), (3, 2, (6, 7)), (5, 2, (9, 8)), (1, 1, (3, 4))],
    ids=["k2-s2", "k3-s1", "k3-s2-edge", "k5-s2", "k1-s1"],
)
def test_receptive_fields_match_oracle_patches(kernel, stride, size):
    x = rng.normal(size=(2, *size, 3))
    fields = L._receptive_fields(x, kernel, stride)
    ref = oracle._conv_patches(x, kernel, stride)  # (N, OH, OW, kernel*kernel*C)
    np.testing.assert_array_equal(fields, ref.reshape(-1, kernel * kernel * 3))


@pytest.mark.parametrize("kernel,stride", [(3, 1), (3, 2), (2, 3)], ids=["k3-s1", "k3-s2", "k2-s3"])
def test_receptive_fields_fold_gradcheck(kernel, stride):
    # the fold is the vjp of x -> receptive_fields(x) @ w, including inputs
    # in several windows and inputs in none
    p = T.Parameter(rng.normal(size=(2, 6, 7, 2)))
    w = rng.normal(size=(kernel * kernel * 2, 3))

    def f():
        z = T.fused(L._receptive_fields(p.data, kernel, stride) @ w, (p,),
                    lambda g: (L._fold_receptive_fields(g, w, p.shape, kernel, stride),), "conv")
        return weighted_sum((elementwise(z, np.square, lambda v: 2.0 * v), 1.0))

    check_grads(f, [p], rel_tol=1e-6)


@pytest.mark.parametrize("act", ["relu", "elu"])
def test_activation_moments_gradcheck(act):
    # ordinary units; units at the SIGMA2_MIN fallback (log-variance -40
    # stays below the floor under the finite-difference step); and, for
    # ReLU, units far below 0 where E[a^2] - E^2 is clamped at 0
    mu = T.Parameter(np.array([[-1.2, 0.0, 0.4, 2.5, 0.7, -0.3, -60.0, -45.0]]))
    log_var = T.Parameter(np.array([[0.3, -1.0, -2.0, 0.5, -40.0, -40.0, -3.0, 0.0]]))

    def f():
        g = L.GaussianActivation(mu, elementwise(log_var, np.exp, np.exp))
        out = L.relu_moments(g) if act == "relu" else L.elu_moments(g)
        return _weighted_moments(out)

    check_grads(f, [mu, log_var], rel_tol=1e-5)
    assert log_var.grad[0, 4] == 0.0 and log_var.grad[0, 5] == 0.0
    if act == "relu":
        out = L.relu_moments(L.GaussianActivation(mu, elementwise(log_var, np.exp, np.exp)))
        assert out.var.data[0, 6] == 0.0 and out.var.data[0, 7] == 0.0


@pytest.mark.parametrize("act", ["relu", "elu"])
def test_units_at_the_variance_floor_leave_the_other_rows_bitwise_unchanged(act):
    # the deterministic-limit and floor selects run only for a batch with a
    # unit at or below SIGMA2_MIN: appending a row below the floor, one at it
    # and one whose E2 - E^2 cancels to <= 0 switches them on, and the
    # other rows keep the bits of their moments and input gradients
    r = np.random.default_rng(8)
    mu, var = r.normal(size=(6, 5)), r.uniform(0.05, 2.0, size=(6, 5))
    floor_mu = np.concatenate([r.normal(size=(2, 5)), np.full((1, 5), 1e4)])
    floor_var = np.array([[0.25], [1.0], [2.0]]) * np.full((3, 5), L.SIGMA2_MIN)
    moments = L.relu_moments if act == "relu" else L.elu_moments
    weights = r.normal(size=(2, 9, 5))

    def run(m, v):
        pm, pv = T.Parameter(m), T.Parameter(v)
        out = moments(L.GaussianActivation(pm, pv))
        n = len(m)
        weighted_sum((out.mean, weights[0, :n]), (out.var, weights[1, :n])).backward()
        return out.mean.data, out.var.data, pm.grad, pv.grad

    base = run(mu, var)
    full = run(np.concatenate([mu, floor_mu]), np.concatenate([var, floor_var]))
    for b, f in zip(base, full):
        assert b.tobytes() == f[:6].tobytes()
    mean, out_var, g_mu, g_var = full
    det_mean = np.maximum(floor_mu[0], 0.0) if act == "relu" else np.where(
        floor_mu[0] > 0.0, floor_mu[0], np.exp(np.minimum(floor_mu[0], 0.0)) - 1.0)
    assert mean[6].tobytes() == det_mean.tobytes()
    assert (out_var[6] == 0.0).all() and (out_var[8] == 0.0).all()
    # no gradient reaches a variance at or below the floor
    assert (g_var[6:8] == 0.0).all()


def test_network_lays_its_parameters_out_in_one_flat_buffer():
    # layer by layer: weight mean, log-variance, bias mean, bias
    # log-variance, each a view of net.data; without a gradient buffer they
    # are plain tensors that record no tape
    specs = [L.LayerSpec("dense", fan_in=3, fan_out=2, activation="relu"),
             L.LayerSpec("dense", fan_in=2, fan_out=1)]
    data = np.arange(22.0)
    net = L.MomentNetwork(specs, data)
    params = net.parameters()
    assert [p.shape for p in params] == [(3, 2), (3, 2), (2,), (2,), (2, 1), (2, 1), (1,), (1,)]
    np.testing.assert_array_equal(np.concatenate([p.data.ravel() for p in params]), data)
    assert all(np.shares_memory(p.data, data) and not p.requires_grad for p in params)
    out = net.forward(np.ones((4, 3)))
    assert not out.mean.requires_grad and out.mean._parents == ()
    for bad in (np.arange(21.0), np.arange(23.0)):
        with pytest.raises(ValueError, match=f"{bad.size} values where the layer specs need 22"):
            L.MomentNetwork(specs, bad)
    with pytest.raises(ValueError, match="no layers"):
        L.MomentNetwork([], np.zeros(0))


def test_init_weights_statistics():
    spec = L.LayerSpec("dense", fan_in=400, fan_out=300, activation="relu")
    mean, log_var, bias_mean, bias_log_var = L.init_weights(spec, np.random.default_rng(3))
    assert mean.shape == log_var.shape == (400, 300) and bias_log_var.shape == (300,)
    assert abs(mean.std() - np.sqrt(2.0 / 400)) < 0.005
    assert abs(log_var.mean() + 9.0) < 0.01
    np.testing.assert_allclose(bias_mean, 0.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        L.LayerSpec("pool", fan_in=2, fan_out=2)
    with pytest.raises(ValueError):
        L.LayerSpec("dense", fan_in=2, fan_out=2, activation="tanh")
    with pytest.raises(ValueError):
        L.LayerSpec("conv2d", in_channels=1, out_channels=1, kernel=3, stride=0)
    for bad in ({"kind": "dense", "fan_in": 2, "fan_out": 0},
                {"kind": "dense", "fan_in": -1, "fan_out": 2},
                {"kind": "conv2d", "in_channels": 1, "out_channels": 1, "kernel": 0},
                {"kind": "conv2d", "in_channels": 0, "out_channels": 1, "kernel": 3},
                # sizes are integers, not floats or bools, whatever the layer kind
                {"kind": "conv2d", "in_channels": 1, "out_channels": 1, "kernel": 3.0},
                {"kind": "conv2d", "in_channels": 1, "out_channels": 1, "kernel": 3, "stride": 1.0},
                {"kind": "dense", "fan_in": 2, "fan_out": True},
                {"kind": "dense", "fan_in": 2, "fan_out": 2, "kernel": 3.0}):
        with pytest.raises(ValueError):
            L.LayerSpec(**bad)
