"""Central-difference stencils: exactness on quadratics, O(h^2) otherwise.

Stencils call f once on a stack of points, so the test functions take
points (..., n)."""

import numpy as np
import pytest

from cayley4 import _fd

RNG = np.random.default_rng(11)
N = 8
Q = RNG.standard_normal((N, N, 2, 3))
Q = Q + Q.transpose(1, 0, 2, 3)                 # symmetric in the point axes
B = RNG.standard_normal((N, 2, 3))
C = RNG.standard_normal((2, 3))
X0 = RNG.uniform(-1.0, 1.0, N)


def _quadratic(x):
    return (0.5 * np.einsum("...i,...j,ijkl->...kl", x, x, Q)
            + np.einsum("...i,ikl->...kl", x, B) + C)


def test_quadratic_with_array_output_is_exact():
    grad = _fd.jet(_quadratic, X0, 0.1)[1]
    hess = _fd.hessian(_quadratic, X0, 0.1)
    assert grad.shape == (N, 2, 3)
    assert hess.shape == (N, N, 2, 3)
    np.testing.assert_allclose(grad, np.einsum("ijkl,j->ikl", Q, X0) + B,
                               rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(hess, Q, rtol=0.0, atol=1e-11)


def test_scalar_output_and_differences():
    a = RNG.standard_normal(N)

    def f(x):
        return np.sin(np.sum(x * a, axis=-1))

    h = 1e-2
    d = _fd.differences(f, X0, h)
    assert d.shape == (N,)
    for i in range(N):
        e = np.zeros(N)
        e[i] = h
        assert d[i] == f(X0 + e) - f(X0 - e)
    np.testing.assert_array_equal(_fd.jet(f, X0, h)[1], d / (2.0 * h))
    hess = _fd.hessian(f, X0, h)
    assert hess.shape == (N, N)
    np.testing.assert_array_equal(hess, hess.T)


def _smooth(x):
    return np.stack([np.exp(np.sin(x[..., 0] + 2.0 * x[..., 1]) * x[..., 2]),
                     np.cos(np.sum(x * x, axis=-1))], axis=-1)


def _smooth_derivatives(x):
    s = x[0] + 2.0 * x[1]
    u = np.sin(s) * x[2]
    du = np.array([np.cos(s) * x[2], 2.0 * np.cos(s) * x[2], np.sin(s)])
    ddu = np.zeros((3, 3))
    ddu[:2, :2] = -np.sin(s) * x[2] * np.outer([1.0, 2.0], [1.0, 2.0])
    ddu[:2, 2] = ddu[2, :2] = np.cos(s) * np.array([1.0, 2.0])
    e = np.exp(u)
    grad = np.zeros((3, 2))
    grad[:, 0] = e * du
    grad[:, 1] = -np.sin(x @ x) * 2.0 * x
    hess = np.zeros((3, 3, 2))
    hess[:, :, 0] = e * (np.outer(du, du) + ddu)
    hess[:, :, 1] = (-np.cos(x @ x) * 4.0 * np.outer(x, x)
                     - np.sin(x @ x) * 2.0 * np.eye(3))
    return grad, hess


@pytest.mark.parametrize("which", [0, 1])
def test_error_quarters_under_step_halving(which):
    x = np.array([0.3, -0.2, 0.7])
    exact = _smooth_derivatives(x)[which]
    stencil = (lambda f, x, h: _fd.jet(f, x, h)[1], _fd.hessian)[which]
    errs = [np.max(np.abs(stencil(_smooth, x, h) - exact)) for h in (2e-2, 1e-2)]
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


@pytest.mark.parametrize("second", [False, True])
@pytest.mark.parametrize("n", [1, 4, 8])
def test_stencil_rows_counts_the_points_of_one_jet_call(n, second):
    calls = []

    def f(x):
        calls.append(x.shape)
        return np.sum(x * x, axis=-1)

    _fd.jet(f, np.zeros((3, n)), 0.1, second)
    assert calls == [(_fd.stencil_rows(n, second), 3, n)]
