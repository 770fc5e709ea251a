"""Second-order central differences along the coordinate axes of points.

Every axis-aligned derivative stencil of the package goes through here
(weights as in Fornberg, Math. Comp. 51, 1988).  `x` is a point of
shape (n,) or a stack of points (..., n); `f` maps a stack of points
(k, ..., n) to values (k, ..., *out) and is called once per stencil on
all of its points.  Derivative axes follow the stack axes of `x` in each
result, then the value shape `out`.  Offsets and terms are combined in
one fixed order (x + e_i + e_j, x + e_i - e_j, ...), so a derivative is
the same to the last bit for every caller.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

import numpy as np


def stencil_rows(n: int, second: bool = False) -> int:
    """Points of one `jet` stencil in n dimensions: 1 + 2n, and 2n(n - 1)
    more for the mixed second differences (9 and 33 for n = 4)."""
    return 1 + 2 * n + (2 * n * (n - 1) if second else 0)


@lru_cache(maxsize=None)
def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """np.triu_indices(n, 1), read-only: the axis pairs i < j of the mixed
    stencil."""
    iu, ju = np.triu_indices(n, 1)
    iu.flags.writeable = ju.flags.writeable = False
    return iu, ju


def _axis_offsets(x: np.ndarray, h: float) -> np.ndarray:
    """h e_i for every axis i, shaped (n, 1, ..., 1, n) to broadcast over x."""
    n = x.shape[-1]
    return (h * np.eye(n)).reshape((n,) + (1,) * (x.ndim - 1) + (n,))


def _lead(values: np.ndarray, x: np.ndarray, k: int) -> np.ndarray:
    """Move the k stencil axes of values behind the stack axes of x."""
    s = x.ndim - 1
    return values.transpose((*range(k, k + s), *range(k), *range(k + s, values.ndim)))


def differences(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    """f(x + h e_i) - f(x - h e_i) for every axis i."""
    x = np.asarray(x, dtype=float)
    e = _axis_offsets(x, h)
    n = x.shape[-1]
    vals = f(np.concatenate([x + e, x - e]))
    return _lead(vals[:n] - vals[n:], x, 1)


def jet(f: Callable, x: np.ndarray, h: float, second: bool = False):
    """(f(x), gradient) or, with second, (f(x), gradient, Hessian) from one
    call of f on the stacked stencil points.

    The gradient is the central difference (f(x + h e_i) - f(x - h e_i)) / 2h.
    The Hessian uses the three-point stencil on the diagonal and the
    four-point mixed stencil off it.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    e = _axis_offsets(x, h)
    xp, xm = x + e, x - e
    stacks = [x[None], xp, xm]
    if second:
        iu, ju = _pairs(n)
        stacks += [xp[iu] + e[ju], xp[iu] - e[ju], xm[iu] + e[ju], xm[iu] - e[ju]]
    vals = f(np.concatenate(stacks))
    f0, fp, fm = vals[0], vals[1:n + 1], vals[n + 1:2 * n + 1]
    # finite but huge values may overflow to inf: a result for the caller
    # to test (as patches._point_geometry does), not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        grad = fp - fm
        grad /= 2.0 * h
        if not second:
            return f0, _lead(grad, x, 1)
        m = len(iu)
        fpp, fpm, fmp, fmm = (vals[2 * n + 1 + k * m:2 * n + 1 + (k + 1) * m] for k in range(4))
        hess = np.empty((n, n) + f0.shape)
        hess[np.arange(n), np.arange(n)] = (fp - 2.0 * f0 + fm) / (h * h)
        hess[iu, ju] = hess[ju, iu] = (fpp - fpm - fmp + fmm) / (4.0 * h * h)
    return f0, _lead(grad, x, 1), _lead(hess, x, 2)


def hessian(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    """d_i d_j f(x) (see `jet`)."""
    return jet(f, x, h, second=True)[2]
