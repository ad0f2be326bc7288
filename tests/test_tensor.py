import numpy as np
import pytest
from scipy import stats

from bedl import gaussian as G
from bedl import tensor as T

from conftest import check_grads

rng = np.random.default_rng(7)


def _param(shape):
    return T.Parameter(rng.normal(size=shape))


def test_forward_values_match_numpy():
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(3, 4)) + 3.0
    ta, tb = T.constant(a), T.constant(b)
    np.testing.assert_allclose((ta + tb).data, a + b)
    np.testing.assert_allclose((ta * tb).data, a * b)
    np.testing.assert_allclose(T.exp(ta).data, np.exp(a))
    np.testing.assert_allclose(T.log(tb).data, np.log(b))
    np.testing.assert_allclose(T.tsum(ta, axis=1).data, a.sum(axis=1))
    np.testing.assert_allclose(ta[1:, 2].data, a[1:, 2])


def test_gaussian_cdf_pdf_match_scipy():
    x = rng.normal(size=(3, 4)) * 3.0
    np.testing.assert_allclose(G.cdf(x), stats.norm.cdf(x), atol=1e-14)
    np.testing.assert_allclose(G.pdf(x), stats.norm.pdf(x), atol=1e-14)


def test_exp_scaled_cdf_matches_definition():
    # exp(a) * Phi(-b), checked where the naive form is still finite
    a = np.array([0.5, -2.0, 3.0])
    b = np.array([1.0, -1.5, 4.0])
    out = G.exp_scaled_cdf(a, b)
    np.testing.assert_allclose(out, np.exp(a) * stats.norm.cdf(-b), rtol=1e-12)


def test_exp_scaled_cdf_no_overflow():
    # elu-moment regime: a huge but a - b^2/2 <= 0
    out = G.exp_scaled_cdf(np.array(500.0), np.array(40.0))
    assert np.isfinite(out)
    # log of exp(500)*Phi(-40) via log of Mills-ratio form
    expected = 500.0 + stats.norm.logcdf(-40.0)
    np.testing.assert_allclose(np.log(out), expected, rtol=1e-10)


def test_composite_gradcheck():
    p = _param((3, 4))
    q = _param((3, 4))

    def f():
        z = T.exp(0.3 * p) * q * q + p * (q + 1.0)
        return T.tsum(T.log(z * z + 2.0)) + T.tsum(T.exp(p + q))

    check_grads(f, [p, q], rel_tol=1e-6)


def test_broadcast_gradcheck():
    p = T.Parameter(rng.normal(size=(1, 4)))
    q = T.Parameter(rng.normal(size=(3, 1)))

    def f():
        z = p * q + p + q * -1.0
        return T.tsum(z * z)

    check_grads(f, [p, q], rel_tol=1e-6)


def test_reshape_take_gradcheck():
    p = _param((3, 4))

    def f():
        z = T.reshape(p, (2, 6))
        w = z[0] * 2.0 + z[1]  # integer indices
        band = z[:, 1:4]  # slices
        return T.tsum(w * w) + T.tsum(band * band)

    check_grads(f, [p], rel_tol=1e-6)


def test_domain_errors():
    with pytest.raises(ValueError):
        T.log(T.constant(-1.0))
    with pytest.raises(ValueError):
        T.log(T.constant(0.0))


def test_nonfinite_result_raises_numerics_error():
    with np.errstate(over="ignore"), pytest.raises(T.NumericsError):
        T.exp(T.constant(1000.0))


def test_backward_requires_scalar_and_single_use():
    p = _param((3,))
    out = T.tsum(p)
    with pytest.raises(ValueError):
        (p * p).backward()  # non-scalar root
    out.backward()
    with pytest.raises(RuntimeError):
        out.backward()


def test_grad_accumulates_across_tapes_until_zeroed():
    p = T.Parameter(np.array([2.0]))
    T.tsum(p * p).backward()
    T.tsum(p * p).backward()
    np.testing.assert_allclose(p.grad, [8.0])
    p.zero_grad()
    assert p.grad is None


def test_diamond_graph_gradient():
    # y = x*x reused on both branches: d/dx (x^2 + 3x^2) = 8x
    p = T.Parameter(np.array([1.5]))
    z = p * p
    (T.tsum(z + 3.0 * z)).backward()
    np.testing.assert_allclose(p.grad, [12.0])


def test_first_gradient_is_copied():
    # add hands one gradient array to both parents; a's later gradient
    # must not leak into b's through a shared array
    for order in (0, 1):
        a = T.Parameter(np.array([1.0, 2.0]))
        b = T.Parameter(np.array([3.0, 4.0]))
        terms = [a + b, 3.0 * a]
        T.tsum(terms[order] + terms[1 - order]).backward()
        np.testing.assert_array_equal(a.grad, [4.0, 4.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])


def test_fused_node():
    p = T.Parameter(np.array([0.5, 2.0]))
    c = T.constant(np.array([1.0, -1.0]))
    out = T.fused(p.data * c.data, (p, None, c), lambda g: (g * c.data, None, None), "prod")
    assert out._parents == (p,)
    T.tsum(out).backward()
    np.testing.assert_array_equal(p.grad, c.data)
    # no parent requires a gradient: a plain tensor, no closure recorded
    plain = T.fused(2.0 * c.data, (c,), lambda g: (g * 2.0,), "double")
    assert plain._backward_fn is None and plain._parents == () and not plain.requires_grad
    with pytest.raises(T.NumericsError):
        T.fused(np.array([np.inf]), (p,), lambda g: (g,), "bad")
