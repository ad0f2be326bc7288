import numpy as np
import pytest
from scipy import stats

from bedl import gaussian as G
from bedl import tensor as T

from conftest import check_grads, elementwise, weighted_sum

rng = np.random.default_rng(7)


def _param(shape):
    return T.Parameter(rng.normal(size=shape))


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


def _square(p):
    return elementwise(p, np.square, lambda v: 2.0 * v)


def test_broadcast_gradcheck():
    # add sums a broadcast gradient back to each operand's shape, leading
    # axes included
    p = T.Parameter(rng.normal(size=(1, 4)))
    q = T.Parameter(rng.normal(size=(3, 1)))
    r = T.Parameter(rng.normal(size=(4,)))
    check_grads(lambda: weighted_sum((_square(T.add(T.add(p, q), r)), 1.0)), [p, q, r],
                rel_tol=1e-6)


def test_nonfinite_result_raises_numerics_error():
    with np.errstate(over="ignore"), pytest.raises(T.NumericsError):
        elementwise(T.Tensor(1000.0), np.exp, np.exp)


def test_backward_requires_scalar_and_single_use():
    p = _param((3,))
    out = weighted_sum((p, 1.0))
    with pytest.raises(ValueError):
        _square(p).backward()  # non-scalar root
    out.backward()
    with pytest.raises(RuntimeError):
        out.backward()


def test_grad_accumulates_across_tapes_until_zeroed():
    p = T.Parameter(np.array([2.0]))
    weighted_sum((_square(p), 1.0)).backward()
    weighted_sum((_square(p), 1.0)).backward()
    np.testing.assert_allclose(p.grad, [8.0])
    p.grad = None  # zeroed: the next tape starts afresh
    weighted_sum((_square(p), 1.0)).backward()
    np.testing.assert_allclose(p.grad, [4.0])


def test_diamond_graph_gradient():
    # z = x*x feeds two branches: d/dx (z + 3z) = 8x
    p = T.Parameter(np.array([1.5]))
    z = _square(p)
    once = elementwise(z, lambda v: v, lambda v: 1.0)
    thrice = elementwise(z, lambda v: 3.0 * v, lambda v: 3.0)
    weighted_sum((once, 1.0), (thrice, 1.0)).backward()
    np.testing.assert_allclose(p.grad, [12.0])


def test_first_gradient_is_copied():
    # one node hands its gradient array to both parents; a's later
    # gradient must not leak into b's through a shared array
    for order in (0, 1):
        a = T.Parameter(np.array([1.0, 2.0]))
        b = T.Parameter(np.array([3.0, 4.0]))
        terms = [(T.fused(a.data + b.data, (a, b), lambda g: (g, g), "both"), 1.0),
                 (elementwise(a, lambda v: 3.0 * v, lambda v: 3.0), 1.0)]
        weighted_sum(terms[order], terms[1 - order]).backward()
        np.testing.assert_array_equal(a.grad, [4.0, 4.0])
        np.testing.assert_array_equal(b.grad, [1.0, 1.0])


def test_fused_node():
    p = T.Parameter(np.array([0.5, 2.0]))
    c = T.Tensor(np.array([1.0, -1.0]))
    out = T.fused(p.data * c.data, (p, None, c), lambda g: (g * c.data, None, None), "prod")
    assert out._parents == (p,)
    weighted_sum((out, 1.0)).backward()
    np.testing.assert_array_equal(p.grad, c.data)
    # no parent requires a gradient: a plain tensor, no closure recorded
    plain = T.fused(2.0 * c.data, (c,), lambda g: (g * 2.0,), "double")
    assert plain._backward_fn is None and plain._parents == () and not plain.requires_grad
    with pytest.raises(T.NumericsError):
        T.fused(np.array([np.inf]), (p,), lambda g: (g,), "bad")
