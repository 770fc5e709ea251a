"""Kaehler charts on C^4 given by a potential, with derived geometry.

A chart is a coordinate ball in C^4 ~ R^8 (same coordinate order as the
flat model, J constant standard) carrying a real potential K and its
Hermitian block h_{j kbar} = d^2 K / dz_j dzbar_k in closed form.  The
real metric is

    g = (Hess K + J^T Hess K J) / 2,

(the J-invariant part of the real Hessian; with K = |z|^2 / 2 this gives
the identity), and the Kaehler form matrix is omega = J^T g.  The Ricci
form is

    rho = - i d dbar log det(h),

realized as a central-difference Hessian of log det(h) (step H_CURV); the
sign is the one that makes the Fubini-Study chart Einstein with positive
s (rho = (5/c) omega for the potential c log(1 + |z|^2)).  Christoffel
symbols come from the Hermitian block by the Kaehler formula
Gamma^l_ij = h^{l kbar} d_i h_{j kbar}, with d_i h one central difference
(step H_METRIC); both steps are module constants, and all stencils are
those of `_fd`.  The flat chart (KahlerChart.is_flat) differences
nothing: its Hermitian block is the constant I/2, so its Christoffel
symbols and Ricci form are exact zeros.

Every point-level method takes a point (8,) or a stack of points
(..., 8) and returns its result with the same leading axes; potentials
and Hermitian blocks follow the same contract.  The Hermitian block is a
required field: differencing a potential for it, under the further
differences of the Ricci form, amplifies rounding past any useful
curvature accuracy.  Non-finite points and points outside the chart ball
raise ChartDomainError, a ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _fd
from .multilinear import DIM
from .hermitian import standard_structure

__all__ = [
    "KahlerChart",
    "ChartDomainError",
    "EinsteinReport",
    "flat_chart",
    "fubini_study_chart",
    "CHARTS",
    "einstein_report",
]

H_METRIC = 1e-4
H_CURV = 1e-3
FS_RADIUS = 2.0        # radius of the Fubini-Study chart ball
SAMPLE_SHRINK = 0.75   # einstein_report samples within this share of the chart radius


class ChartDomainError(ValueError):
    """A point is not finite or lies outside the chart ball."""


def _sq_norms(p: np.ndarray) -> np.ndarray:
    return np.einsum("...i,...i->...", p, p)


def metric_from_hermitian(h: np.ndarray) -> np.ndarray:
    """Real 8x8 metrics (..., 8, 8) assembled from Hermitian blocks (..., 4, 4)."""
    g = np.empty(h.shape[:-2] + (DIM, DIM))
    g[..., 0::2, 0::2] = 2.0 * h.real
    g[..., 1::2, 1::2] = 2.0 * h.real
    g[..., 0::2, 1::2] = 2.0 * h.imag
    g[..., 1::2, 0::2] = -2.0 * h.imag
    return g


@dataclass(frozen=True)
class KahlerChart:
    name: str
    potential: Callable[[np.ndarray], np.ndarray]          # (..., 8) -> (...)
    hermitian: Callable[[np.ndarray], np.ndarray]          # (..., 8) -> (..., 4, 4)
    radius: float | None = None

    @property
    def is_flat(self) -> bool:
        """Whether this is the flat chart, whose Hermitian block is the
        constant I/2: its metric is I and its connection and curvature vanish."""
        return self.name == "flat"

    def check_inside(self, p: np.ndarray) -> None:
        p = np.asarray(p, dtype=float)
        if not np.isfinite(p).all():
            raise ChartDomainError("point has non-finite coordinates")
        if self.radius is not None:
            r = float(np.sqrt(np.max(_sq_norms(p))))
            if r >= self.radius:
                raise ChartDomainError(
                    f"point with |p| = {r:.4f} is outside the "
                    f"chart ball of radius {self.radius}")

    # -- Hermitian block and real metric ---------------------------------

    def hermitian_at(self, p: np.ndarray) -> np.ndarray:
        p = np.asarray(p, dtype=float)
        self.check_inside(p)
        return self.hermitian(p)

    def metric_at(self, p: np.ndarray) -> np.ndarray:
        return metric_from_hermitian(self.hermitian_at(p))

    def omega_mat_at(self, p: np.ndarray) -> np.ndarray:
        j = standard_structure().j
        return j.T @ self.metric_at(p)

    # -- Connection and curvature ----------------------------------------

    def christoffel_at(self, p: np.ndarray) -> np.ndarray:
        """Gamma[..., a, b, c] = Gamma^a_{bc} of the Levi-Civita connection.

        A Kaehler connection has pure type, so the complex symbols

            Gamma^l_ij = h^{l kbar} d_i h_{j kbar} = (d_i h . h^-1)_jl,
            d_i = d/dz_i = (d/dx_i - i d/dy_i) / 2,

        carry all of it: grad_{x_i} x_j = Re Gamma^l_ij x_l + Im Gamma^l_ij y_l,
        and the y-rows and y-columns follow from J being parallel.  d_i h
        is one central difference of the Hermitian block (step H_METRIC),
        on its real and imaginary parts, and Gamma is symmetrized in i, j,
        which the Kaehler condition d_i h_{j kbar} = d_j h_{i kbar} makes
        exact in the limit.  On the flat chart Gamma is exactly zero, with
        no stencil.
        """
        if self.is_flat:
            self.check_inside(p)
            return np.zeros(np.shape(p)[:-1] + (DIM, DIM, DIM))
        # h (..., 4, 4) and dh[..., c, j, k] = d h_{j kbar} / d p_c, as real views
        hr, dhr = _fd.jet(
            lambda q: np.ascontiguousarray(self.hermitian_at(q), dtype=complex).view(float),
            p, H_METRIC)
        h, dh = hr.view(complex), dhr.view(complex)
        dz = 0.5 * (dh[..., 0::2, :, :] - 1j * dh[..., 1::2, :, :])
        cg = dz @ np.linalg.inv(h)[..., None, :, :]           # cg[..., i, j, l]
        cg = np.moveaxis(0.5 * (cg + np.swapaxes(cg, -3, -2)), -1, -3)
        re, im = cg.real, cg.imag
        # 0 - x is -x, except that it keeps a zero +0.0 (the flat chart's Gamma)
        nre, nim = 0.0 - re, 0.0 - im
        gamma = np.empty(cg.shape[:-3] + (DIM, DIM, DIM))
        gamma[..., 0::2, 0::2, 0::2] = re
        gamma[..., 1::2, 0::2, 0::2] = im
        gamma[..., 0::2, 0::2, 1::2] = nim
        gamma[..., 1::2, 0::2, 1::2] = re
        gamma[..., 0::2, 1::2, 0::2] = nim
        gamma[..., 1::2, 1::2, 0::2] = re
        gamma[..., 0::2, 1::2, 1::2] = nre
        gamma[..., 1::2, 1::2, 1::2] = nim
        return gamma

    def log_det_h(self, p: np.ndarray) -> np.ndarray:
        sign, logdet = np.linalg.slogdet(self.hermitian_at(p))
        if np.any(sign.real <= 0):
            raise ValueError("Hermitian block is not positive definite here")
        return logdet.real

    def ricci_form_at(self, p: np.ndarray) -> np.ndarray:
        """Ricci form matrix rho(e_a, e_b) = -(i d dbar log det h)(e_a, e_b);
        exactly zero, with no stencil, on the flat chart."""
        if self.is_flat:
            self.check_inside(p)
            return np.zeros(np.shape(p)[:-1] + (DIM, DIM))
        hess = _fd.hessian(self.log_det_h, p, H_CURV)
        j = standard_structure().j
        ginv_part = 0.5 * (hess + j.T @ hess @ j)
        return -(j.T @ ginv_part)


@dataclass(frozen=True)
class EinsteinReport:
    scalar: float
    max_deviation: float
    n_points: int


def flat_chart() -> KahlerChart:
    def potential(p):
        return 0.5 * _sq_norms(p)

    def hermitian(p):
        return np.broadcast_to(0.5 * np.eye(4, dtype=complex), p.shape[:-1] + (4, 4)).copy()

    return KahlerChart(name="flat", potential=potential, hermitian=hermitian)


def fubini_study_chart(scale: float = 1.0) -> KahlerChart:
    """Chart potential scale * log(1 + |z|^2) on the ball |z| < FS_RADIUS."""

    def potential(p):
        return scale * np.log1p(_sq_norms(p))

    def hermitian(p):
        # (d I - conj(z) z^T) / d^2 with d = 1 + |z|^2, built in place
        z = p[..., 0::2] + 1j * p[..., 1::2]
        d = 1.0 + _sq_norms(p)
        h = np.conj(z)[..., :, None] * z[..., None, :]
        np.negative(h, out=h)
        for k in range(4):
            h[..., k, k] += d
        h /= (d * d)[..., None, None]
        h *= scale
        return h

    return KahlerChart(name="fubini-study", potential=potential,
                       hermitian=hermitian, radius=FS_RADIUS)


# The charts a patch spec or the CLI can name, each by its KahlerChart.name.
CHARTS = {"flat": flat_chart, "fubini-study": fubini_study_chart}


def einstein_report(chart: KahlerChart, n_points: int = 100, seed: int = 0) -> EinsteinReport:
    """Einstein constant at the origin and worst pointwise deviation.

    The constant s is the least-squares fit of rho = s omega over all
    entries at the origin, <rho, omega>_F / <omega, omega>_F.  The origin
    and the n_points samples go through one batched Ricci evaluation.
    """
    rng = np.random.default_rng(seed)
    rad = SAMPLE_SHRINK * chart.radius if chart.radius is not None else 1.0
    pts = np.zeros((n_points + 1, DIM))
    for k in range(1, n_points + 1):
        p = rng.uniform(-1.0, 1.0, size=DIM)
        pts[k] = p * (rad * rng.random() ** 0.125 / np.linalg.norm(p))
    rho = chart.ricci_form_at(pts)
    om = chart.omega_mat_at(pts)
    s = float(np.sum(rho[0] * om[0]) / np.sum(om[0] * om[0]))
    dev = (np.linalg.norm(rho[1:] - s * om[1:], axis=(-2, -1))
           / np.linalg.norm(om[1:], axis=(-2, -1)))
    worst = float(np.max(dev, initial=0.0))
    return EinsteinReport(scalar=s, max_deviation=worst, n_points=n_points)
