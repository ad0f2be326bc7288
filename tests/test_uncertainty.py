import math

import numpy as np
import pytest

from bedl import uncertainty
from bedl.uncertainty import decompose, ecdf_auc

rng = np.random.default_rng(31)


def _reference_decompose(mean, var, n_samples, rng, chunk=2_000):
    """E[p] and Var[p] for p = softmax(f), f ~ N(mean, diag var), by
    sampling: ``chunk`` draws per row at a time, so memory stays bounded,
    summed as differences from softmax(mean) so that the variance does not
    cancel. The means must be small enough that exp(f) does not overflow."""
    p0 = np.exp(mean)
    p0 /= p0.sum(axis=-1, keepdims=True)
    s1, s2, sd = np.zeros_like(mean), np.zeros_like(mean), np.sqrt(var)[:, None]
    for start in range(0, n_samples, chunk):
        f = rng.standard_normal((len(mean), min(chunk, n_samples - start), mean.shape[1]))
        f *= sd
        f += mean[:, None]
        np.exp(f, out=f)
        f /= f.sum(axis=-1, keepdims=True)
        f -= p0[:, None]
        s1 += f.sum(axis=1)
        f *= f
        s2 += f.sum(axis=1)
    shift = s1 / n_samples
    return p0 + shift, s2 / n_samples - shift * shift


def _entropy(p):
    return -(p * np.log(p)).sum(axis=-1)


LEVELS = (0.0, 1e-3, 1e-2, 0.1, 0.3)  # output variances s^2 of the oracle grid
ROWS = 8  # of means m ~ N(0, 2^2) per class count and variance


@pytest.mark.parametrize("n_classes", [2, 3, 10])
def test_decompose_is_closer_to_the_oracle_than_100_draws(n_classes):
    # against 1e5 draws, per variance level: the closed form's mean absolute
    # error is below half that of a 100-draw estimate in the predictive mean
    # and its entropy up to s^2 = 0.3 (worst ratio on this grid 0.35), and
    # below it in the epistemic part up to s^2 = 0.1 (worst 0.82). Past that
    # the first-order variance falls behind, 1.3-2.6 times the 100-draw
    # error at s^2 = 0.3, and at s^2 = 1 the mean is on a par (0.9-1.7)
    r = np.random.default_rng(n_classes)
    mean = r.normal(0.0, 2.0, size=(len(LEVELS) * ROWS, n_classes))
    var = np.repeat(LEVELS, ROWS)[:, None] * np.ones(n_classes)
    rep = decompose(mean, var)
    oracle = _reference_decompose(mean, var, 100_000, np.random.default_rng(1))
    draws = _reference_decompose(mean, var, 100, np.random.default_rng(2))
    for k, s2 in enumerate(LEVELS):
        rows = slice(k * ROWS, (k + 1) * ROWS)

        def error(got, want):
            return np.abs(got[rows] - want[rows]).mean()

        closed = (error(rep.predictive_mean, oracle[0]),
                  error(rep.entropy, _entropy(oracle[0])), error(rep.epistemic, oracle[1]))
        sampled = (error(draws[0], oracle[0]), error(_entropy(draws[0]), _entropy(oracle[0])),
                   error(draws[1], oracle[1]))
        if s2 == 0.0:
            assert max(closed) < 1e-12, closed
            continue
        assert closed[0] < 0.5 * sampled[0] and closed[1] < 0.5 * sampled[1], (s2, closed, sampled)
        if s2 <= 0.1:
            assert closed[2] < sampled[2], (s2, closed, sampled)


def test_decompose_zero_variance_is_deterministic_softmax():
    m = rng.normal(size=(6, 4))
    rep = decompose(m, np.zeros_like(m))
    p = np.exp(m - m.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    assert rep.predictive_mean.tobytes() == p.tobytes()
    assert not rep.epistemic.any()
    np.testing.assert_allclose(rep.aleatoric, p * (1 - p), rtol=1e-12)
    np.testing.assert_allclose(rep.entropy, -(p * np.log(p)).sum(axis=1), rtol=1e-12)


def test_decompose_total_is_sum_of_parts():
    m = rng.normal(size=(3, 5))
    v = rng.uniform(0.1, 2.0, size=(3, 5))
    rep = decompose(m, v)
    np.testing.assert_allclose(rep.total, rep.epistemic + rep.aleatoric, rtol=1e-12)
    assert np.all(rep.epistemic >= 0) and np.all(rep.aleatoric >= 0)
    np.testing.assert_allclose(rep.predictive_mean.sum(axis=1), 1.0, rtol=1e-12)


def test_decompose_epistemic_grows_with_weight_variance():
    m = np.zeros((1, 3))
    parts = [decompose(m, np.full((1, 3), s2)).epistemic.mean()
             for s2 in (0.0, 1e-3, 0.01, 0.1, 0.3, 1.0)]
    assert parts[0] == 0.0 and all(lo < hi for lo, hi in zip(parts, parts[1:])), parts


def test_decompose_of_large_variances_is_a_valid_report():
    # the expansion leaves [0, 1] from s^2 of about 1; clipping keeps every
    # field a probability, variance or entropy in range, up to s^2 = 1e3,
    # and the sums stay finite for variances up to the largest float
    r = np.random.default_rng(3)
    for n_classes in (2, 3, 10):
        mean = r.normal(0.0, 5.0, size=(200, n_classes))
        var = 10.0 ** r.uniform(-3.0, 3.0, size=mean.shape)
        var[:20] = r.uniform(0.0, np.finfo(float).max, size=(20, n_classes))
        rep = decompose(mean, var)
        assert np.all(rep.predictive_mean >= 0.0)
        np.testing.assert_allclose(rep.predictive_mean.sum(axis=1), 1.0, rtol=1e-12)
        assert np.all((0.0 <= rep.epistemic) & (rep.epistemic <= rep.total))
        assert np.all(rep.aleatoric >= 0.0)
        assert np.all((0.0 <= rep.entropy) & (rep.entropy <= math.log(n_classes) + 1e-12))
        assert 0.0 <= ecdf_auc(rep.entropy, n_classes) <= math.log(n_classes)


def test_decompose_validation():
    with pytest.raises(ValueError):
        decompose(np.zeros((2, 3)), -np.ones((2, 3)))
    with pytest.raises(ValueError):
        decompose(np.zeros((2, 3)), np.zeros((2, 4)))


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
