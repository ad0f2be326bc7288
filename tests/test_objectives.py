import math

import numpy as np
import pytest
from scipy import stats

from bedl import layers as L
from bedl import objectives as O
from bedl import tensor as T

from conftest import check_grads, elementwise, gauss_hermite_class_marginal, weighted_sum

rng = np.random.default_rng(21)


def _exp(x):
    return elementwise(x, np.exp, np.exp)


def _moments(mean, var):
    return L.GaussianActivation(T.Tensor(np.asarray(mean, float)), T.Tensor(np.asarray(var, float)))


# -- regression head ---------------------------------------------------------


def test_regression_log_marginal_closed_form():
    m = np.array([[0.3, -1.0], [1.2, 0.5]])
    s2 = np.array([[0.04, 0.02], [0.1, 0.3]])
    y = np.array([0.5, 0.0])
    out = O.regression_log_marginal(_moments(m, s2), y, 100.0)
    v = 1.0 / 100.0 + s2[:, 0] + np.exp(m[:, 1] + 0.5 * s2[:, 1])
    expected = stats.norm.logpdf(y, loc=m[:, 0], scale=np.sqrt(v))
    np.testing.assert_allclose(out.data, expected, rtol=1e-12)


def test_regression_head_requires_two_units():
    with pytest.raises(ValueError):
        O.regression_log_marginal(_moments(np.zeros((2, 3)), np.ones((2, 3))), np.zeros(2), 100.0)


def test_regression_floor_at_perfect_fit():
    # residual 0, vanishing latent variance: log N(0 | 0, 1/beta)
    out = O.regression_log_marginal(_moments([[0.0, -40.0]], [[0.0, 0.0]]), np.array([0.0]), 100.0)
    np.testing.assert_allclose(out.data[0], -0.5 * math.log(2 * math.pi / 100.0), rtol=1e-9)
    assert abs(out.data[0] - 1.38364) < 1e-4


# -- classification head -----------------------------------------------------


def test_classification_marginal_zero_variance_is_log_softmax():
    m = rng.normal(size=(5, 3))
    y = np.eye(3)[rng.integers(0, 3, size=5)]
    eps = rng.standard_normal((4, 5, 3))
    out = O.classification_log_marginal(_moments(m, np.zeros_like(m)), y, eps=eps)
    logp = m - np.log(np.exp(m).sum(axis=1, keepdims=True))
    np.testing.assert_allclose(out.data, (logp * y).sum(axis=1), rtol=1e-10)


def test_classification_marginal_saturated_and_uniform():
    y = np.array([[1.0, 0.0]])
    sat = O.classification_log_marginal(_moments([[50.0, -50.0]], [[0.0, 0.0]]), y,
                                        eps=rng.standard_normal((3, 1, 2)))
    assert sat.data[0] > -1e-12  # prob -> 1 under the logit clamp
    uni = O.classification_log_marginal(_moments([[0.0, 0.0]], [[0.0, 0.0]]), y,
                                        eps=rng.standard_normal((3, 1, 2)))
    np.testing.assert_allclose(uni.data[0], math.log(0.5), rtol=1e-12)


def test_classification_marginal_vs_gauss_hermite():
    n_samples = 4000
    m = np.array([[0.4, -0.2, 1.1]])
    s2 = np.array([[0.5, 0.8, 0.3]])
    y = np.array([[0.0, 0.0, 1.0]])
    eps = np.random.default_rng(5).standard_normal((n_samples, 1, 3))
    est = O.classification_log_marginal(_moments(m, s2), y, eps=eps).data[0]
    # same-eps per-sample probabilities for the standard error
    f = m[None] + np.sqrt(s2)[None] * eps
    p = np.exp(f - f.max(-1, keepdims=True))
    p = (p / p.sum(-1, keepdims=True))[:, 0, 2]
    se_log = p.std() / (p.mean() * math.sqrt(n_samples))
    exact = math.log(gauss_hermite_class_marginal(m[0], s2[0], 2))
    assert abs(est - exact) < 3 * se_log


def test_onehot_validation():
    # the one-hot check fails before the draws are read
    with pytest.raises(ValueError):
        O.classification_log_marginal(_moments(np.zeros((1, 3)), np.zeros((1, 3))),
                                      np.array([[0.5, 0.5, 0.0]]), eps=np.zeros((2, 1, 3)))


# -- divergences -------------------------------------------------------------


def test_kl_dirichlet_uniform_known_value():
    out = O.kl_dirichlet_uniform(T.Tensor(np.array([[2.0, 1.0]])))
    np.testing.assert_allclose(out.data[0], math.log(2.0) - 0.5, atol=1e-12)


def test_kl_dirichlet_uniform_zero_at_prior():
    out = O.kl_dirichlet_uniform(T.Tensor(np.ones((3, 4))))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_kl_dirichlet_uniform_vs_numeric_integral():
    # KL for Beta(a, b) vs Beta(1, 1) via direct expectation under Beta(a, b)
    a, b = 3.0, 1.7
    out = O.kl_dirichlet_uniform(T.Tensor(np.array([[a, b]]))).data[0]
    from scipy import integrate

    kl = integrate.quad(
        lambda t: stats.beta.pdf(t, a, b) * stats.beta.logpdf(t, a, b), 1e-12, 1 - 1e-12
    )[0]
    np.testing.assert_allclose(out, kl, atol=1e-8)


def _kl_dirichlet_mpmath(mpmath, alpha) -> float:
    with mpmath.workdps(50):
        a = [mpmath.mpf(float(x)) for x in alpha]
        a0 = sum(a)
        kl = mpmath.loggamma(a0) - sum(mpmath.loggamma(x) for x in a) - mpmath.loggamma(len(a))
        kl += sum((x - 1) * (mpmath.digamma(x) - mpmath.digamma(a0)) for x in a)
        return float(kl)


def test_kl_dirichlet_uniform_at_the_logit_clamp_vs_mpmath():
    # one strength at e^30, the largest the clamped head produces: the
    # lgamma and digamma terms are near 3e14 each, and plain float64
    # differences of them lose three digits (57.4645 for the first case)
    mpmath = pytest.importorskip("mpmath")
    cases = [np.exp([30.0, 0.1, -0.2])]
    r = np.random.default_rng(12)
    for c in (2, 3, 5, 10, 10):
        f = r.uniform(-30.0, 10.0, size=c)
        f[r.integers(c)] = 30.0
        cases.append(np.exp(f))
    for alpha in cases:
        out = O.kl_dirichlet_uniform(T.Tensor(alpha[None])).data[0]
        np.testing.assert_allclose(out, _kl_dirichlet_mpmath(mpmath, alpha), rtol=1e-11)
    np.testing.assert_allclose(O.kl_dirichlet_uniform(T.Tensor(cases[0][None])).data[0],
                               57.42407974, rtol=1e-9)


def _kl_dirichlet_grad_mpmath(mpmath, alpha) -> np.ndarray:
    with mpmath.workdps(50):
        a = [mpmath.mpf(float(x)) for x in alpha]
        a0, c = sum(a), len(a)
        return np.array([float((x - 1) * mpmath.psi(1, x) - (a0 - c) * mpmath.psi(1, a0))
                         for x in a])


def test_kl_dirichlet_uniform_with_several_strengths_near_the_clamp_vs_mpmath():
    # two or three strengths near e^30: -log B(alpha) and the digamma sum
    # are each about 1e13, and the plain forms gave 28.8535 for the first
    # case and 14.406 for the second; rows with no strength above 1e6 keep
    # their bits
    mpmath = pytest.importorskip("mpmath")
    cases = [np.exp([29.62462122, 28.95279148, 27.1513713]), np.exp([29.62, 28.95]),
             np.exp([30.0, 30.0])]
    r = np.random.default_rng(21)
    for c, n_big in ((2, 2), (3, 2), (3, 3), (10, 2), (10, 3)):
        f = r.uniform(-5.0, 5.0, size=c)
        f[r.choice(c, n_big, replace=False)] = r.uniform(27.0, 30.0, size=n_big)
        cases.append(np.exp(f))
    for alpha in cases:
        value, grad = O._kl_dirichlet(alpha[None])
        np.testing.assert_allclose(value[0], _kl_dirichlet_mpmath(mpmath, alpha), rtol=1e-9)
        np.testing.assert_allclose(grad()[0], _kl_dirichlet_grad_mpmath(mpmath, alpha),
                                   rtol=1e-9)
    small = np.exp([[1.0, 2.0, 0.5], [13.0, 12.0, -3.0]])
    mixed = O._kl_dirichlet(np.concatenate([small, cases[0][None]]))[0]
    assert mixed[:2].tolist() == O._kl_dirichlet(small)[0].tolist()


def test_kl_dirichlet_uniform_gradcheck():
    # in log-strengths, as the head uses it. Rows 1 and 3 have a strength
    # above 1e6, whose digamma difference and gradient come from the series;
    # each is over 1e6 times the rest, where betaln(m, r) is accurate too
    log_alpha = T.Parameter(np.log([[0.3, 1.7, 4.0], [1.5e6, 0.8, 0.3], [1.0, 1.0, 1.0],
                                    [np.exp(20.0), 2.0, 0.01]]))

    def f():
        kl = O.kl_dirichlet_uniform(_exp(log_alpha))
        return weighted_sum((kl, np.array([1.0, -0.5, 0.7, 0.4])))

    check_grads(f, [log_alpha], rel_tol=1e-6)


def test_kl_gaussian_identity_and_value():
    # against the standard normal prior
    zero, _, _ = O._kl_gaussian(np.array([0.0]), np.array([1.0]))
    np.testing.assert_allclose(zero, 0.0, atol=1e-12)
    out, _, _ = O._kl_gaussian(np.array([1.0]), np.array([0.5]))
    expected = 0.5 * (math.log(1.0 / 0.5) + 0.5 + 1.0 - 1.0)
    np.testing.assert_allclose(out[0], expected, rtol=1e-12)


# -- objectives --------------------------------------------------------------


def test_pac_objective_with_zero_kl():
    lm = T.Tensor(np.array([-1.0, -3.0]))
    kl = T.Tensor(np.zeros(2))
    rep = O.pac_objective(lm, kl, 100, 0.05, 1.0)
    expected_bound = math.sqrt(-math.log(0.05) / 100.0 + 1.0)
    np.testing.assert_allclose(rep.nll, 2.0)
    np.testing.assert_allclose(rep.regularizer, expected_bound, rtol=1e-12)
    np.testing.assert_allclose(rep.total.item(), 2.0 + expected_bound, rtol=1e-12)


def test_bedl_objective_is_mean_nll():
    lm = T.Tensor(np.array([-1.0, -2.0, -3.0]))
    rep = O.bedl_objective(lm)
    np.testing.assert_allclose(rep.total.item(), 2.0)
    assert rep.regularizer == 0.0


def test_edl_loss_hand_computed():
    alpha = T.Tensor(np.array([[3.0, 1.0]]))
    y = np.array([[1.0, 0.0]])
    rep = O.edl_loss(alpha, y)
    p = np.array([0.75, 0.25])
    var = p * (1 - p) / 5.0
    fit = 0.5 * 100.0 * (((y[0] - p) ** 2) + var).sum()
    kl = O.kl_dirichlet_uniform(T.Tensor(np.array([[3.0, 1.0]]))).data[0]
    np.testing.assert_allclose(rep.total.item(), fit + kl, rtol=1e-12)


def test_edl_loss_decreases_with_evidence_for_true_class():
    y = np.array([[1.0, 0.0, 0.0]])
    fits = []
    for a in (1.5, 3.0, 10.0, 40.0):
        rep = O.edl_loss(T.Tensor(np.array([[a, 1.0, 1.0]])), y)
        fits.append(rep.nll)
    assert all(x > y_ for x, y_ in zip(fits, fits[1:]))


def test_hyperprior_penalty_matches_scipy_logpdfs():
    w = L.WeightDistribution(*(T.Parameter(rng.normal(size=s)) for s in [(2, 2)] * 2 + [2] * 2))
    out = O.hyperprior_penalty([w]).item()
    lp = 0.0
    for mean, log_var in ((w.mean, w.log_var), (w.bias_mean, w.bias_log_var)):
        lp += stats.norm.logpdf(mean.data, 0.0, 1.0).sum()
        lp += stats.invgamma.logpdf(np.exp(log_var.data), 2.0, scale=1.0).sum()
    # the penalty is over sigma^2 (not rho), no jacobian term
    np.testing.assert_allclose(out, -lp, rtol=1e-10)


# -- gradient integrity on small nets ---------------------------------------


def _small_net(sizes, acts, seed):
    specs = [
        L.LayerSpec("dense", fan_in=i, fan_out=o, activation=a)
        for (i, o), a in zip(zip(sizes[:-1], sizes[1:]), acts)
    ]
    return L.build_network(specs, np.random.default_rng(seed), log_var_mean=-2.0, log_var_var=0.1)


def test_regression_objective_gradcheck():
    net = _small_net((2, 3, 2), ("relu", "identity"), 4)
    x = rng.normal(size=(4, 2))
    y = rng.normal(size=4)

    def f():
        mm = net.forward(x)
        lm = O.regression_log_marginal(mm, y, 100.0)
        kl = O.regression_kl(mm)
        return O.pac_objective(lm, kl, 4, 0.05, 100.0 / (2 * math.pi)).total

    check_grads(f, net.parameters(), rel_tol=1e-4)


def test_classification_objective_gradcheck():
    net = _small_net((2, 4, 3), ("elu", "identity"), 5)
    x = rng.normal(size=(4, 2))
    y = np.eye(3)[rng.integers(0, 3, size=4)]
    eps = np.random.default_rng(6).standard_normal((3, 4, 3))

    def f():
        mm = net.forward(x)
        lm = O.classification_log_marginal(mm, y, eps=eps)
        kl = O.classification_kl(mm, eps=eps)
        return O.pac_objective(lm, kl, 4, 0.05, 1.0).total

    check_grads(f, net.parameters(), rel_tol=1e-4)


def test_hyperprior_gradcheck():
    net = _small_net((2, 3, 2), ("relu", "identity"), 7)

    def f():
        return O.hyperprior_penalty(net.weights)

    check_grads(f, net.parameters(), rel_tol=1e-5)


def test_regression_head_gradcheck_past_exponent_clamp():
    # datum 2 has m2 + s2^2/2 > 60: its latent variance is held at exp(60)
    # and passes no gradient to m2 or s2^2 (without the clamp, dL/dm2 is
    # about -0.5 there)
    mean = T.Parameter(np.array([[0.3, -1.0], [1.2, 0.5], [-0.4, 61.0]]))
    log_var = T.Parameter(np.array([[-2.0, -1.0], [-1.0, -3.0], [-2.0, -1.0]]))
    y = np.array([0.5, 0.0, 1.0])

    def f():
        mm = L.GaussianActivation(mean, _exp(log_var))
        return weighted_sum((O.regression_log_marginal(mm, y, 100.0), np.array([1.0, -0.7, 0.4])))

    check_grads(f, [mean, log_var], rel_tol=1e-5)
    assert mean.grad[2, 1] == 0.0 and log_var.grad[2, 1] == 0.0


def test_regression_kl_and_pac_gradcheck():
    mean = T.Parameter(np.array([[0.3, -1.0], [1.2, 0.5], [-0.4, 0.2]]))
    log_var = T.Parameter(np.array([[-2.0, -1.0], [-1.0, -3.0], [-2.0, -1.0]]))
    y = np.array([0.5, 0.0, 1.0])

    def f():
        mm = L.GaussianActivation(mean, _exp(log_var))
        kl = O.regression_kl(mm)
        lm = O.regression_log_marginal(mm, y, 100.0)
        pac = O.pac_objective(lm, kl, 30, 0.05, 100.0 / (2 * math.pi))
        return weighted_sum((pac.total, 1.0), (kl, np.array([0.3, -0.2, 0.1])))

    check_grads(f, [mean, log_var], rel_tol=1e-5)


def test_batched_classification_head_and_kl_gradcheck():
    # the S draws are one (S, N, C) node. Datum 0 sits past the logit clamp
    # in the head only: its KL, with alpha = exp(30), loses to cancellation
    # far more than the finite-difference step. So its moments are
    # parameters of their own, and the head takes the rows in two nodes
    mean = np.vstack([[40.0, 0.1, -0.2], rng.normal(size=(4, 3))])
    log_var = np.vstack([[-6.0, -1.0, -1.0], rng.uniform(-2.0, 0.0, size=(4, 3))])
    params = [T.Parameter(a) for a in (mean[:1], log_var[:1], mean[1:], log_var[1:])]
    y = np.eye(3)[[0, 1, 2, 0, 1]]
    eps = np.random.default_rng(8).standard_normal((4, 5, 3))
    weights = np.linspace(-1.0, 1.0, 5)

    def f():
        mean_0, log_var_0, mean_rest, log_var_rest = params
        rest = L.GaussianActivation(mean_rest, _exp(log_var_rest))
        lm_0 = O.classification_log_marginal(L.GaussianActivation(mean_0, _exp(log_var_0)), y[:1],
                                             eps=eps[:, :1])
        lm = O.classification_log_marginal(rest, y[1:], eps=eps[:, 1:])
        kl = O.classification_kl(rest, eps=eps[:, 1:])
        assert lm.shape == (4,) and kl.shape == (4,)
        pac = O.pac_objective(lm, kl, 50, 0.05, 1.0)
        return weighted_sum((pac.total, 1.0), (lm_0, weights[:1]), (lm, weights[1:]))

    check_grads(f, params, rel_tol=1e-5)
    assert params[0].grad[0, 0] == 0.0


def test_classification_kl_gradcheck_at_the_logit_clamp():
    # datum 0 sits past the logit clamp and enters the KL, whose value
    # must be accurate to far below the finite-difference step there
    r = np.random.default_rng(9)
    mean = T.Parameter(np.vstack([[40.0, 0.1, -0.2], r.normal(size=(2, 3))]))
    log_var = T.Parameter(np.vstack([[-6.0, -1.0, -1.0], r.uniform(-2.0, 0.0, size=(2, 3))]))
    eps = r.standard_normal((4, 3, 3))

    def f():
        kl = O.classification_kl(L.GaussianActivation(mean, _exp(log_var)), eps=eps)
        return weighted_sum((kl, np.array([1.0, -0.6, 0.3])))

    check_grads(f, [mean, log_var], rel_tol=1e-6)
    assert mean.grad[0, 0] == 0.0
