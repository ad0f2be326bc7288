import math
import tracemalloc

import numpy as np
import pytest

from bedl import uncertainty
from bedl.uncertainty import decompose, ecdf_auc

rng = np.random.default_rng(31)


def _reference_decompose(mean, var, n_samples, rng):
    """decompose as it was written before it worked in one buffer: the
    value every field of decompose must equal bit for bit."""
    eps = rng.standard_normal((len(mean), n_samples) + mean.shape[1:])
    f = mean[:, None] + np.sqrt(var[:, None]) * eps
    z = f - f.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)
    pred = p.mean(axis=1)
    epistemic = p.var(axis=1)
    aleatoric = (p * (1.0 - p)).mean(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(pred > 0, pred * np.log(pred), 0.0)
    return uncertainty.UncertaintyReport(pred, epistemic, aleatoric, epistemic + aleatoric,
                                         -plogp.sum(axis=-1))


def _moments(n_classes, seed=0):
    """Rows of ordinary moments, rows with zero variance, and rows with
    means near the +-30 logit clamp."""
    r = np.random.default_rng(seed)
    mean = r.normal(size=(24, n_classes))
    var = r.uniform(0.0, 3.0, size=mean.shape)
    var[8:12] = 0.0
    mean[12:18] = 30.0 - r.uniform(0.0, 1.0, size=(6, n_classes))
    mean[18:] = -30.0 + r.uniform(0.0, 1.0, size=(6, n_classes))
    var[20:] = 0.0
    return mean, var


@pytest.mark.parametrize("n_samples", [2, 100])
@pytest.mark.parametrize("n_classes", [1, 2, 10])
def test_decompose_matches_the_reference_bitwise(n_classes, n_samples):
    mean, var = _moments(n_classes)
    got = decompose(mean, var, n_samples, np.random.default_rng(4))
    want = _reference_decompose(mean, var, n_samples, np.random.default_rng(4))
    for name in ("predictive_mean", "epistemic", "aleatoric", "total", "entropy"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


def test_decompose_peak_memory_is_at_most_two_and_a_half_draw_buffers():
    # the draws become the probabilities in place, and one scratch buffer
    # serves both variance parts; the reference peaked at 5.2 buffers
    n, s, c = 64, 100, 10
    mean, var = _moments(c)
    mean, var = np.resize(mean, (n, c)), np.resize(var, (n, c))
    tracemalloc.start()
    try:
        decompose(mean, var, s, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * n * s * c * 8


def test_decompose_zero_variance_is_deterministic_softmax():
    m = rng.normal(size=(6, 4))
    rep = decompose(m, np.zeros_like(m), n_samples=50, rng=rng)
    p = np.exp(m) / np.exp(m).sum(axis=1, keepdims=True)
    np.testing.assert_allclose(rep.predictive_mean, p, rtol=1e-12)
    np.testing.assert_allclose(rep.epistemic, 0.0, atol=1e-15)
    np.testing.assert_allclose(rep.aleatoric, p * (1 - p), rtol=1e-12)
    np.testing.assert_allclose(rep.entropy, -(p * np.log(p)).sum(axis=1), rtol=1e-12)


def test_decompose_total_is_sum_of_parts():
    m = rng.normal(size=(3, 5))
    v = rng.uniform(0.1, 2.0, size=(3, 5))
    rep = decompose(m, v, n_samples=200, rng=rng)
    np.testing.assert_allclose(rep.total, rep.epistemic + rep.aleatoric, rtol=1e-12)
    assert np.all(rep.epistemic >= 0) and np.all(rep.aleatoric >= 0)
    np.testing.assert_allclose(rep.predictive_mean.sum(axis=1), 1.0, rtol=1e-12)


def test_decompose_epistemic_grows_with_weight_variance():
    m = np.zeros((1, 3))
    low = decompose(m, np.full((1, 3), 0.01), n_samples=2000, rng=np.random.default_rng(0))
    high = decompose(m, np.full((1, 3), 4.0), n_samples=2000, rng=np.random.default_rng(0))
    assert high.epistemic.mean() > 10 * low.epistemic.mean()


def test_decompose_validation():
    with pytest.raises(ValueError):
        decompose(np.zeros((2, 3)), -np.ones((2, 3)), n_samples=10, rng=rng)
    with pytest.raises(ValueError):
        decompose(np.zeros((2, 3)), np.zeros((2, 3)), n_samples=1, rng=rng)


def test_ecdf_auc_fixtures():
    log_c = math.log(4)
    # maximally uncertain everywhere -> 0
    assert ecdf_auc(np.full(10, log_c), 4) == pytest.approx(0.0, abs=1e-12)
    # fully confident everywhere -> log C
    assert ecdf_auc(np.zeros(10), 4) == pytest.approx(log_c, abs=1e-12)
    # half and half -> log C / 2
    assert ecdf_auc(np.array([0.0] * 5 + [log_c] * 5), 4) == pytest.approx(log_c / 2, abs=1e-12)


def test_ecdf_auc_rejects_out_of_range():
    with pytest.raises(ValueError):
        ecdf_auc(np.array([2.0]), 4)  # > log 4
    with pytest.raises(ValueError):
        ecdf_auc(np.array([-0.5]), 4)
    with pytest.raises(ValueError):
        ecdf_auc(np.array([]), 4)


def test_test_error():
    p = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4], [0.3, 0.7]])
    assert uncertainty.test_error(p, np.array([0, 1, 1, 1])) == pytest.approx(25.0)
    with pytest.raises(ValueError):
        uncertainty.test_error(p, np.array([0, 1]))
