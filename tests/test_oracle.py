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


def _conv(c_in, c_out, kernel, stride=1, activation="identity"):
    return L.LayerSpec("conv2d", in_channels=c_in, out_channels=c_out, kernel=kernel,
                       stride=stride, activation=activation)


# Conv nets whose diagonal propagation is exact: one conv layer on fixed
# inputs, and 1x1 convs, whose second layer sums the channels of one pixel,
# which have independent kernels. A conv into a dense layer is not exact:
# the pixels of one channel share that channel's kernel, so they are
# correlated and the dense layer's sum drops their covariances.
_EXACT_CONV_NETS = {
    "conv3x3-stride2": ([_conv(1, 4, 3, stride=2)], (7, 7, 1)),
    "conv1x1-relu-conv1x1": ([_conv(2, 6, 1, activation="relu"), _conv(6, 3, 1)], (3, 3, 2)),
    "conv1x1-elu-conv1x1": ([_conv(2, 6, 1, activation="elu"), _conv(6, 3, 1)], (3, 3, 2)),
}


@pytest.mark.parametrize("name", sorted(_EXACT_CONV_NETS))
def test_conv_moments_match_the_oracle_where_the_diagonal_is_exact(name):
    # criterion 1's tolerances: every output mean within 5 standard errors
    # and every variance within 10% of 10^5 weight draws, at criterion 1's
    # log-variances and on two N(0, 1) inputs
    specs, shape = _EXACT_CONV_NETS[name]
    r = np.random.default_rng(sorted(_EXACT_CONV_NETS).index(name))
    net = L.build_network(specs, r, log_var_mean=-4.0, log_var_var=0.25)
    x = r.normal(size=(2, *shape))
    mm = net.forward(x)
    est = oracle.sample_forward(net, x, oracle.make_rng(9100, 0), 100_000)
    z = np.abs(mm.mean.data - est.mean) / est.mean_se
    rel_var_err = np.abs(mm.var.data - est.var) / est.var
    assert z.max() < 5.0 and rel_var_err.max() < 0.10, (z.max(), rel_var_err.max())


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
    y = np.array([0, 2])
    est = oracle.sample_marginal_likelihood(net, x, y, None, oracle.make_rng(0, 2), 200)
    f = x @ net.weights[0].mean.data + net.weights[0].bias_mean.data
    logp = f - np.log(np.exp(f).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(est.value, logp[[0, 1], y], atol=1e-6)



def test_marginal_likelihood_needs_one_admissible_target_per_datum():
    # one regression target for 4 rows was broadcast to 4 values, and label
    # -1 read the last class; the heads refuse both
    from bedl.data import DataError

    x = np.zeros((4, 3))
    cases = [(_linear_net(), np.array([0.5]), 100.0, ValueError, "one target per datum"),
             (_linear_net(fan_out=3), np.array([0, 2]), None, ValueError, "one target per datum"),
             (_linear_net(fan_out=3), np.array([0, -1, 2, 1]), None, DataError, "outside the 3"),
             (_linear_net(fan_out=3), np.array([0, 1.5, 2, 1]), None, DataError, "not an integer")]
    for net, y, beta, error, message in cases:
        with pytest.raises(error, match=message):
            oracle.sample_marginal_likelihood(net, x, y, beta, oracle.make_rng(0, 3), 200)


def test_sampler_draws_at_most_sample_bytes_of_weights_per_pass(monkeypatch):
    # a 5x5x16 conv into dense(10) on 28x28 images has 92,160 dense weights:
    # 20,000 draws of them at once would take 14.7 GB. The patched
    # draw_weights records how many draws it is asked for and raises
    # before allocating any
    asked = []

    def record(net, rng, n):
        asked.append(n)
        raise RuntimeError("recorded")

    monkeypatch.setattr(oracle, "draw_weights", record)
    wide = L.build_network([_conv(1, 16, 5, activation="relu"),
                            L.LayerSpec("dense", fan_in=24 * 24 * 16, fan_out=10)],
                           np.random.default_rng(0))
    for net, x in ((_linear_net(), np.zeros((1, 3))), (wide, np.zeros((1, 28, 28, 1)))):
        with pytest.raises(RuntimeError, match="recorded"):
            oracle.sample_forward(net, x, oracle.make_rng(0, 0), 20_000)
    small, big = asked
    assert small == oracle.SAMPLE_CHUNK  # a net the size of criterion 1's draws as before
    assert 8 * big * (wide.data.size // 2) <= oracle.SAMPLE_BYTES
    assert big == 362
