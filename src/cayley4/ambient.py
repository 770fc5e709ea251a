"""Kaehler charts on C^4 given by a potential, with derived geometry.

A chart is a coordinate ball in C^4 ~ R^8 (same coordinate order as the
flat model, J constant standard) carrying a real potential K.  The
Hermitian block is h_{j kbar} = d^2 K / dz_j dzbar_k, the real metric is

    g = (Hess K + J^T Hess K J) / 2,

(the J-invariant part of the real Hessian; with K = |z|^2 / 2 this gives
the identity), and the Kaehler form matrix is omega = J^T g.  The Ricci
form is

    rho = - i d dbar log det(h),

realized as a central-difference Hessian of log det(h) (step h_curv); the
sign is the one that makes the Fubini-Study chart Einstein with positive
s (rho = (5/c) omega for the potential c log(1 + |z|^2)).  Christoffel
symbols difference the metric with step h_metric; all stencils are those
of the private `_fd` module.

Built-in charts supply the Hermitian block in closed form; charts defined
only by a potential fall back to central differences for it (step
h_metric), at the cost of less accurate curvature.  Non-finite points
and points outside the chart ball raise ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _fd
from .multilinear import DIM
from .hermitian import standard_structure

__all__ = [
    "KahlerChart",
    "EinsteinReport",
    "flat_chart",
    "fubini_study_chart",
    "covariant_derivative",
    "einstein_report",
]

H_METRIC_DEFAULT = 1e-4
H_CURV_DEFAULT = 1e-3


def metric_from_hermitian(h: np.ndarray) -> np.ndarray:
    """Real 8x8 metric assembled from the Hermitian block."""
    g = np.zeros((DIM, DIM))
    g[0::2, 0::2] = 2.0 * h.real
    g[1::2, 1::2] = 2.0 * h.real
    g[0::2, 1::2] = 2.0 * h.imag
    g[1::2, 0::2] = -2.0 * h.imag
    return g


@dataclass(frozen=True)
class KahlerChart:
    name: str
    potential: Callable[[np.ndarray], float]
    hermitian: Callable[[np.ndarray], np.ndarray] | None = None
    radius: float | None = None
    h_metric: float = H_METRIC_DEFAULT
    h_curv: float = H_CURV_DEFAULT

    def check_inside(self, p: np.ndarray) -> None:
        # cheaper than isfinite().all(); only a sum past 1e308 misfires
        if not math.isfinite(np.add.reduce(p)):
            raise ValueError("point has non-finite coordinates")
        if self.radius is not None and np.linalg.norm(p) >= self.radius:
            raise ValueError(
                f"point with |p| = {np.linalg.norm(p):.4f} is outside the "
                f"chart ball of radius {self.radius}")

    # -- Hermitian block and real metric ---------------------------------

    def _hermitian_fd(self, p: np.ndarray) -> np.ndarray:
        """h_{j kbar} from the real Hessian of the potential (central diffs)."""
        hess = _fd.hessian(self.potential, p, self.h_metric)
        sxx = hess[0::2, 0::2]
        syy = hess[1::2, 1::2]
        sxy = hess[0::2, 1::2]
        syx = hess[1::2, 0::2]
        return 0.25 * ((sxx + syy) + 1j * (sxy - syx))

    def hermitian_at(self, p: np.ndarray) -> np.ndarray:
        self.check_inside(p)
        if self.hermitian is not None:
            return self.hermitian(np.asarray(p, dtype=float))
        return self._hermitian_fd(p)

    def metric_at(self, p: np.ndarray) -> np.ndarray:
        return metric_from_hermitian(self.hermitian_at(p))

    def omega_mat_at(self, p: np.ndarray) -> np.ndarray:
        j = standard_structure().j
        return j.T @ self.metric_at(p)

    # -- Connection and curvature ----------------------------------------

    def metric_derivatives(self, p: np.ndarray, step: float | None = None) -> np.ndarray:
        """dg[c, a, b] = d g_ab / d p_c by central differences."""
        h = self.h_metric if step is None else step
        return _fd.gradient(self.metric_at, p, h)

    def christoffel_at(self, p: np.ndarray, step: float | None = None) -> np.ndarray:
        """Gamma[a, b, c] = Gamma^a_{bc} of the Levi-Civita connection."""
        g = self.metric_at(p)
        dg = self.metric_derivatives(p, step)
        ginv = np.linalg.inv(g)
        # S[d, b, c] = d_b g_dc + d_c g_db - d_d g_bc
        s = dg.transpose(1, 0, 2) + dg.transpose(1, 2, 0) - dg
        return 0.5 * np.einsum("ad,dbc->abc", ginv, s)

    def log_det_h(self, p: np.ndarray) -> float:
        sign, logdet = np.linalg.slogdet(self.hermitian_at(p))
        if sign.real <= 0:
            raise ValueError("Hermitian block is not positive definite here")
        return float(logdet.real)

    def ricci_form_at(self, p: np.ndarray, step: float | None = None) -> np.ndarray:
        """Ricci form matrix rho(e_a, e_b) = -(i d dbar log det h)(e_a, e_b)."""
        h = self.h_curv if step is None else step
        hess = _fd.hessian(self.log_det_h, p, h)
        j = standard_structure().j
        ginv_part = 0.5 * (hess + j.T @ hess @ j)
        return -(j.T @ ginv_part)


@dataclass(frozen=True)
class EinsteinReport:
    scalar: float
    max_deviation: float
    n_points: int

    def to_json(self) -> dict:
        return {
            "einstein_constant": self.scalar,
            "max_relative_deviation": self.max_deviation,
            "n_points": self.n_points,
        }


def flat_chart() -> KahlerChart:
    def potential(p):
        return 0.5 * float(p @ p)

    def hermitian(p):
        return 0.5 * np.eye(4, dtype=complex)

    return KahlerChart(name="flat", potential=potential, hermitian=hermitian)


def fubini_study_chart(scale: float = 1.0, radius: float = 2.0) -> KahlerChart:
    """Chart potential scale * log(1 + |z|^2) on the ball |z| < radius."""

    def potential(p):
        return scale * float(np.log1p(p @ p))

    def hermitian(p):
        z = p[0::2] + 1j * p[1::2]
        d = 1.0 + float(p @ p)
        h = (np.eye(4, dtype=complex) * d - np.outer(np.conj(z), z)) / (d * d)
        return scale * h

    return KahlerChart(name="fubini-study", potential=potential,
                       hermitian=hermitian, radius=radius)


def covariant_derivative(chart: KahlerChart, curve: Callable[[float], np.ndarray],
                         field: Callable[[float], np.ndarray], t: float,
                         step: float = 1e-4) -> np.ndarray:
    """Levi-Civita derivative of a vector field along a curve at parameter t."""
    p = np.asarray(curve(t), dtype=float)
    v = np.asarray(field(t), dtype=float)
    dv = (np.asarray(field(t + step)) - np.asarray(field(t - step))) / (2.0 * step)
    dp = (np.asarray(curve(t + step)) - np.asarray(curve(t - step))) / (2.0 * step)
    gamma = chart.christoffel_at(p)
    return dv + np.einsum("abc,b,c->a", gamma, dp, v)


def einstein_report(chart: KahlerChart, n_points: int = 100, seed: int = 0,
                    sample_radius: float | None = None) -> EinsteinReport:
    """Einstein constant at the origin and worst pointwise deviation."""
    rng = np.random.default_rng(seed)
    rho0 = chart.ricci_form_at(np.zeros(DIM))
    om0 = chart.omega_mat_at(np.zeros(DIM))
    s = float(rho0[0, 1] / om0[0, 1])
    rad = sample_radius
    if rad is None:
        rad = 0.75 * chart.radius if chart.radius is not None else 1.0
    worst = 0.0
    for _ in range(n_points):
        p = rng.uniform(-1.0, 1.0, size=DIM)
        p *= rad * rng.random() ** 0.125 / np.linalg.norm(p)
        rho = chart.ricci_form_at(p)
        om = chart.omega_mat_at(p)
        dev = np.linalg.norm(rho - s * om) / np.linalg.norm(om)
        worst = max(worst, float(dev))
    return EinsteinReport(scalar=s, max_deviation=worst, n_points=n_points)
