"""Second-order central differences along the coordinate axes of a point.

Every axis-aligned derivative stencil of the package goes through here
(weights as in Fornberg, Math. Comp. 51, 1988).  `f` maps a point shaped
like `x` to a scalar or an array; derivative axes come first in each
result, then the shape of f(x).  Offsets and terms are combined in one
fixed order, so a derivative is the same to the last bit for every caller.
"""

from __future__ import annotations

from typing import Callable

import numpy as np


def _offset(n: int, i: int, h: float) -> np.ndarray:
    e = np.zeros(n)
    e[i] = h
    return e


def differences(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    """f(x + h e_i) - f(x - h e_i) for every axis i, along axis 0."""
    x = np.asarray(x, dtype=float)
    out = None
    for i in range(x.size):
        e = _offset(x.size, i, h)
        d = f(x + e) - f(x - e)
        if out is None:
            out = np.empty((x.size,) + np.shape(d))
        out[i] = d
    return out


def gradient(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    """d_i f(x) ~ (f(x + h e_i) - f(x - h e_i)) / 2h, along axis 0."""
    d = differences(f, x, h)
    d /= 2.0 * h
    return d


def hessian(f: Callable, x: np.ndarray, h: float) -> np.ndarray:
    """d_i d_j f(x) along axes 0 and 1: the three-point stencil on the
    diagonal and the four-point mixed stencil off it."""
    x = np.asarray(x, dtype=float)
    n = x.size
    f0 = f(x)
    out = np.empty((n, n) + np.shape(f0))
    for i in range(n):
        e = _offset(n, i, h)
        out[i, i] = (f(x + e) - 2.0 * f0 + f(x - e)) / (h * h)
    for i in range(n):
        ei = _offset(n, i, h)
        for j in range(i + 1, n):
            ej = _offset(n, j, h)
            out[i, j] = out[j, i] = (f(x + ei + ej) - f(x + ei - ej)
                                     - f(x - ei + ej) + f(x - ei - ej)
                                     ) / (4.0 * h * h)
    return out
