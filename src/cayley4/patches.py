"""Parametrized 4-submanifold patches and finite-difference verification.

A patch is a smooth map F from a parameter box in R^4 into a Kaehler
chart, given as a closure, so derivative stencils can be evaluated
anywhere (in particular right up to the box edge).  Per point the module
computes the tangent plane (reported in a unitary ambient frame so the
flat-model plane analysis applies verbatim), the second fundamental form
h, the mean curvature H, and the 1-form

    gamma(X) = omega(X, H) / (lambda^2 - 1)          (variant A)
             = sum_k g(nabla_X u_k, J u_k)           (variant B)

where u_k is a smooth unitary frame adapted to the patch; variant B
transports the frame from a seed point at the box centre so the two
routes stay genuinely independent.  The verification entry points check
the submanifold identities for h, the identity d(gamma) = rho restricted
to the patch, the calibrated/minimal dichotomies, and the quadrature
identity int lambda^2 dvol = (1/2) int omega^2.

Patch results are stacks: point_report and gamma_form take points (N, 4)
and every field of their results leads with N, so one point is a stack
of one; only verify_h_symmetry, coclosure_residual and tangent_plane_at,
whose results are a single plane or scalars, take a single point (4,).
Theorems I and II read one PointReport, over the grid unless the caller
passes one.  A patch map takes parameter points (..., 4) to
chart points (..., 8) (Patch.evaluate rejects any other output shape); a
derivative stencil calls it once on all of its points, and grid-wide
checks run CHUNK points per batch to bound memory.  gamma_form computes
the geometry of its points once, a batch at a time; the frame transport
moves all of its targets in lockstep, and each axis leg is one geometry
batch over the distinct path prefixes of the targets; Theorem III
evaluates all probes of a step-halving level in one pass, and the Ricci
form at the probes once per run.

All finite differencing is central (the `_fd` stencils) with the patch's
fd_step, its only step: dataclasses.replace(patch, fd_step=h) gives the
same patch with another.  Halving the step should show O(h^2)
behaviour, and the convergence reports implement exactly that check.
Residuals that sit at the rounding floor on every level (this happens for
product tori, whose truncation error is closed by symmetry) are reported
as converged rather than fitted for an order; a level pair with no usable
order (finer residual at the floor, or coarser one exactly 0) gets inf,
written as null in JSON reports.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from typing import Callable

import numpy as np

from . import _fd
from .multilinear import (DIM, OrientedPlane4, hodge_star_plane, pfaffian4, require_orthonormal,
                          restrict_matrix)
from .hermitian import (_phase_combination, complexify, omega0_values, realify,
                        standard_structure, wirtinger_values)
from .planes import batch_kahler_cosines, canonical_form, unitary_gauge
from .ambient import CHARTS, KahlerChart, einstein_report, metric_from_hermitian

__all__ = [
    "Patch",
    "PointReport",
    "RankError",
    "tangent_plane_at",
    "point_report",
    "gamma_form",
    "UnitaryFrameField",
    "verify_h_symmetry",
    "coclosure_residual",
    "verify_theorem_iii",
    "verify_theorem_i",
    "verify_theorem_ii",
    "l2_lambda_invariant",
    "builtin_patch",
    "patch_from_spec",
    "BUILTIN_PATCHES",
]

# Tangent frames flatter than this smallest singular value are rejected.
RANK_TOL = 1e-6

# lambda above 1 - LAMBDA_GUARD has no totally real gauge; gamma is undefined.
LAMBDA_GUARD = 1e-4

# Fixed settings of the checks; no routine takes them as arguments.
FD_STEP = 1e-2          # default Patch.fd_step
MINIMAL_TOL = 1e-4      # mean curvature norm up to which a patch is minimal (Theorems I, II)
BRANCH_TOL = 1e-4       # Theorem II: lambda within this of 0 (1) is Lagrangian (complex)
N_PHASES = 16           # Theorem I: phases alpha of Phi_alpha, equally spaced
EINSTEIN_SAMPLES = 25   # Theorem II: chart points of the Einstein check, besides the origin
FD_LEVELS = 3           # Theorem III: step-halving levels
MIN_ORDER = 1.8         # Theorem III: order each level pair must show above the floor
TRIPLE_SEED = 0         # verify_h_symmetry: seed of the random coordinate combinations

# Residuals below this floor count as converged in order fits.
RESIDUAL_FLOOR = 1e-9

# Parameter points per batch in grid-wide routines.  Bounds the memory of
# the stencil and chart intermediates: 64 points cost about 1.6 MiB of
# peak memory and run as fast as one batch of a whole 5^4 grid.
CHUNK = 64

# Steps per parameter axis of the frame transport paths.
FRAME_STEPS = 12


class RankError(ValueError):
    pass


def default_cayley_tol(h: float) -> float:
    """Cayley-deviation tolerance matching the O(h^2) stencil error."""
    return 100.0 * h * h + 1e-9


@dataclass(frozen=True)
class Patch:
    name: str
    chart: KahlerChart
    map_fn: Callable[[np.ndarray], np.ndarray]
    box: np.ndarray                       # (4, 2) rows (lo, hi)
    grid_n: tuple[int, int, int, int] = (9, 9, 9, 9)
    periodic: tuple[bool, bool, bool, bool] = (False, False, False, False)
    fd_step: float = FD_STEP

    def __post_init__(self):
        b = np.asarray(self.box, dtype=float)
        if b.shape != (4, 2):
            raise ValueError("box must be (4, 2)")
        object.__setattr__(self, "box", b)
        h = self.fd_step
        if not (math.isfinite(h) and h > 0):
            raise ValueError(f"finite-difference step must be finite and > 0, got {h}")
        if len(self.grid_n) != 4 or not all(
                isinstance(n, (int, np.integer)) and not isinstance(n, bool)
                for n in self.grid_n):
            raise ValueError(f"grid_n must hold 4 integers, got {list(self.grid_n)!r}")
        for n, per in zip(self.grid_n, self.periodic):
            if n < (1 if per else 2):
                raise ValueError(f"grid_n {tuple(self.grid_n)} needs at least 2 "
                                 "points per open axis and 1 per periodic axis")

    def evaluate(self, t: np.ndarray) -> np.ndarray:
        """F at parameter points t (..., 4); values (..., 8)."""
        t = np.asarray(t, dtype=float)
        p = np.asarray(self.map_fn(t), dtype=float)
        if p.shape != t.shape[:-1] + (DIM,):
            raise ValueError(f"map of patch '{self.name}' gave shape {p.shape} for points "
                             f"{t.shape}; maps must take (..., 4) to (..., 8)")
        return p

    def spacings(self) -> np.ndarray:
        lens = self.box[:, 1] - self.box[:, 0]
        n = np.asarray(self.grid_n, dtype=float)
        per = np.asarray(self.periodic)
        return lens / np.where(per, n, n - 1)

    def grid_points(self) -> np.ndarray:
        """Lattice over the box; periodic axes drop the duplicate endpoint."""
        axes = []
        for a in range(4):
            lo, hi = self.box[a]
            n = self.grid_n[a]
            if self.periodic[a]:
                axes.append(lo + (hi - lo) * np.arange(n) / n)
            else:
                axes.append(np.linspace(lo, hi, n))
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def probe_points(self, per_axis: int = 3, shrink: float = 0.6) -> np.ndarray:
        """Small centered sub-lattice used by the expensive verifications."""
        mid = 0.5 * (self.box[:, 0] + self.box[:, 1])
        half = 0.5 * (self.box[:, 1] - self.box[:, 0]) * shrink
        axes = [mid[a] + half[a] * np.linspace(-1.0, 1.0, per_axis) for a in range(4)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def cell_volume(self) -> float:
        return float(np.prod(self.spacings()))


# ---------------------------------------------------------------------------
# Point-level geometry
# ---------------------------------------------------------------------------

def _second_derivatives(patch: Patch, t: np.ndarray, h: float) -> np.ndarray:
    """Hessian of the map at parameter points (..., 4): (..., 4, 4, 8)."""
    return _fd.hessian(patch.evaluate, t, h)


def _gram_schmidt(vectors: np.ndarray, gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Metric Gram-Schmidt of the rows of each (..., 4, 8) stack, given
    their Gram matrices: E = C @ vectors, C lower triangular.

    Gram-Schmidt in the metric is the Cholesky factorization L L^T of the
    Gram matrix with C = L^-1; the diagonal of L holds the residual norms.
    """
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise RankError("tangent frame is rank deficient (Gram matrix not positive definite)")
    n = np.diagonal(low, axis1=-2, axis2=-1)
    if (n < RANK_TOL).any():
        raise RankError(f"tangent frame is rank deficient (residual {n.min():.3e})")
    c = np.linalg.inv(low)
    return c @ vectors, c


@dataclass
class _PointGeometry:
    """Geometry at parameter points; every field leads with the axes of t."""
    t: np.ndarray
    p: np.ndarray
    tangents: np.ndarray          # (..., 4, 8) coordinate tangents dF/dt_i
    g: np.ndarray
    omega: np.ndarray             # omega matrix at p
    frame: np.ndarray             # (..., 4, 8) g-orthonormal tangent frame
    gs_coeff: np.ndarray          # frame = gs_coeff @ tangents
    model_frame: np.ndarray       # same frame in the flat model
    cos1: np.ndarray
    cos2: np.ndarray
    lam: np.ndarray
    cayley_dev: np.ndarray        # ||*omega|_xi - omega|_xi||_F in the model
    sec: np.ndarray | None        # (..., 4, 4, 8) second derivatives, if asked for

    def __getitem__(self, k) -> "_PointGeometry":
        return _PointGeometry(**{n: v if v is None else v[k] for n, v in vars(self).items()})

    def tangential(self, w: np.ndarray) -> np.ndarray:
        """Tangential part of vectors w (..., m..., 8) at each point."""
        lead = self.frame.shape[:-2]
        coefs = w.reshape(lead + (-1, DIM)) @ np.swapaxes(self.frame @ self.g, -1, -2)
        return (coefs @ self.frame).reshape(w.shape)

    def normal(self, w: np.ndarray) -> np.ndarray:
        return w - self.tangential(w)


def _point_geometry(patch: Patch, t: np.ndarray, h: float,
                    second: bool = False) -> _PointGeometry:
    """Geometry at parameter points t (..., 4) from one map call on the
    stacked stencil: 9 points per parameter point, or 33 with second, whose
    Hessian then feeds the second fundamental form.  On the flat chart the
    metric g is I (a read-only view) and the model frame is the frame itself:
    neither may be written in place."""
    t = np.asarray(t, dtype=float)
    p, tang, *sec = _fd.jet(patch.evaluate, t, h, second)
    flat = patch.chart.is_flat
    if flat:
        patch.chart.check_inside(p)
        g = np.broadcast_to(np.eye(DIM), p.shape[:-1] + (DIM, DIM))
    else:
        hmat = patch.chart.hermitian_at(p)
        g = metric_from_hermitian(hmat)
    with np.errstate(over="ignore", invalid="ignore"):
        gram = restrict_matrix(g, tang)
    if not np.isfinite(gram).all():
        raise RankError("tangent Gram matrix is not finite (dF overflows the metric)")
    # the smallest singular value of dF is below RANK_TOL exactly when
    # gram - RANK_TOL^2 I is not positive definite
    try:
        np.linalg.cholesky(gram - RANK_TOL * RANK_TOL * np.eye(4))
    except np.linalg.LinAlgError:
        raise RankError("dF loses rank at this point")
    if sec and not np.isfinite(sec[0]).all():
        raise RankError("second derivatives of the map are not finite (d^2F overflows)")
    frame, coeff = _gram_schmidt(tang, gram)
    # v -> L.T @ complexify(v), L = chol(2 h), is an isometry of the chart
    # metric onto the model; on the flat chart L = I
    model = frame if flat else realify(complexify(frame) @ np.linalg.cholesky(2.0 * hmat))
    st = standard_structure()
    omega = st.j.T @ g
    a = restrict_matrix(st.omega_mat, model)
    c1, c2 = batch_kahler_cosines(model)
    dev = np.linalg.norm(hodge_star_plane(a) - a, axis=(-2, -1))
    return _PointGeometry(
        t=t, p=p, tangents=tang, g=g, omega=omega, frame=frame, gs_coeff=coeff,
        model_frame=model, cos1=c1, cos2=c2, lam=0.5 * (c1 + c2), cayley_dev=dev,
        sec=sec[0] if sec else None,
    )


@dataclass(frozen=True)
class PointReport:
    """Report at a stack of N parameter points; every field leads with N.

    tangent_plane is the (N, 4, 8) stack of model frames and gamma an (N, 4)
    array whose undefined rows are NaN.
    """
    t: np.ndarray
    point: np.ndarray
    tangent_plane: np.ndarray              # in the unitary ambient frame
    frame_chart: np.ndarray
    cos1: np.ndarray
    cos2: np.ndarray
    lam: np.ndarray
    cayley_dev: np.ndarray
    h_tensor: np.ndarray                   # (N, 4, 4, 8), frame arguments, chart values
    mean_curvature: np.ndarray
    mean_curvature_norm: np.ndarray
    h_symmetry_dev: np.ndarray
    gamma: np.ndarray                      # parameter coframe, variant A

    def to_json(self) -> dict:
        return {
            "t": self.t.tolist(),
            "point": self.point.tolist(),
            "cos_theta1": self.cos1.tolist(),
            "cos_theta2": self.cos2.tolist(),
            "lambda": self.lam.tolist(),
            "cayley_deviation": self.cayley_dev.tolist(),
            "mean_curvature_norm": self.mean_curvature_norm.tolist(),
            "gamma": [None if np.isnan(row).any() else row.tolist() for row in self.gamma],
        }


def _second_fundamental(patch: Patch, geo: _PointGeometry):
    """(h-tensor in the orthonormal frame, nabla and h of coordinate fields,
    Christoffel symbols at the points); geo must carry second derivatives."""
    gamma_chr = patch.chart.christoffel_at(geo.p)
    tang = geo.tangents
    lead = tang.shape[:-2]
    # Gamma(d_i F, d_j F)^a as batched matrix products:
    # half[a, b, j] = Gamma^a_bc T[j, c], then [a, i, j] = T[i, b] half[a, b, j]
    half = gamma_chr.reshape(lead + (DIM * DIM, DIM)) @ np.swapaxes(tang, -1, -2)
    corr = tang[..., None, :, :] @ half.reshape(lead + (DIM, DIM, 4))
    nab = geo.sec + np.moveaxis(corr, -3, -1)
    ii = geo.normal(nab)
    # h[a, b] = C[a, i] C[b, j] ii[i, j]
    rows = (geo.gs_coeff @ ii.reshape(lead + (4, 4 * DIM))).reshape(ii.shape)
    h_frame = geo.gs_coeff[..., None, :, :] @ rows
    return h_frame, nab, ii, gamma_chr


def _mean(h_frame: np.ndarray) -> np.ndarray:
    """Mean curvature vectors, the traces of h-tensors (n, 4, 4, 8)."""
    return h_frame[:, 0, 0] + h_frame[:, 1, 1] + h_frame[:, 2, 2] + h_frame[:, 3, 3]


def _gamma_a(geo: _PointGeometry, mean: np.ndarray) -> np.ndarray:
    """Variant-A gamma omega(d_i F, H) / (lambda^2 - 1) at a stack of n
    points, (n, 4); NaN rows where lambda is too close to 1."""
    denom = np.where(geo.lam <= 1.0 - LAMBDA_GUARD, geo.lam * geo.lam - 1.0, np.nan)
    return np.einsum("nia,nab,nb->ni", geo.tangents, geo.omega, mean) / denom[:, None]


def tangent_plane_at(patch: Patch, t: np.ndarray) -> OrientedPlane4:
    """Oriented tangent plane in a unitary ambient frame at the point."""
    geo = _point_geometry(patch, t, patch.fd_step)
    return OrientedPlane4(geo.model_frame)


def _stack_of_points(t: np.ndarray) -> np.ndarray:
    """t as a float stack (N, 4) with N >= 1; any other shape is a ValueError."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 2 or t.shape[1] != 4 or len(t) == 0:
        raise ValueError(f"t must be a stack of points (N, 4) with N >= 1, got shape {t.shape}")
    return t


def _single_point(t: np.ndarray) -> np.ndarray:
    """t as a float point (4,); any other shape is a ValueError."""
    t = np.asarray(t, dtype=float)
    if t.shape != (4,):
        raise ValueError(f"t must be a single point (4,), got shape {t.shape}")
    return t


def _report_fields(patch: Patch, t: np.ndarray) -> dict:
    """PointReport fields, each with a leading axis, at a stack t (n, 4)."""
    geo = _point_geometry(patch, t, patch.fd_step, second=True)
    h_frame = _second_fundamental(patch, geo)[0]
    mean = _mean(h_frame)
    return dict(
        t=geo.t, point=geo.p, tangent_plane=geo.model_frame, frame_chart=geo.frame,
        cos1=geo.cos1, cos2=geo.cos2, lam=geo.lam, cayley_dev=geo.cayley_dev,
        h_tensor=h_frame, mean_curvature=mean,
        mean_curvature_norm=np.sqrt(np.einsum("na,nab,nb->n", mean, geo.g, mean)),
        h_symmetry_dev=np.max(np.abs(h_frame - h_frame.transpose(0, 2, 1, 3)), axis=(1, 2, 3)),
        gamma=_gamma_a(geo, mean),
    )


def point_report(patch: Patch, t: np.ndarray) -> PointReport:
    """Tangent plane, angles, second fundamental form and variant-A gamma at
    a stack of parameter points t (N, 4), computed CHUNK points at a time."""
    t = _stack_of_points(t)
    f: dict = {}
    for start in range(0, len(t), CHUNK):
        for k, v in _report_fields(patch, t[start:start + CHUNK]).items():
            if k not in f:
                f[k] = np.empty((len(t),) + v.shape[1:])
            f[k][start:start + CHUNK] = v
    require_orthonormal(f["tangent_plane"])
    return PointReport(**f)


# ---------------------------------------------------------------------------
# Smooth unitary frame field (variant B of gamma)
# ---------------------------------------------------------------------------

class UnitaryFrameField:
    """Cayley frame field transported from a seed point.

    The seed frame comes from the canonical form at the anchor, the centre
    of the parameter box, which must be Cayley within the patch's Cayley
    tolerance (default_cayley_tol).  Moving to a neighbouring parameter
    point, e1 and e3 are projected onto the new tangent space and
    re-orthonormalized; for lambda bounded away from 0 their j-partners are
    regenerated through j = B / lambda, otherwise (Lagrangian regime) a
    plain metric Gram-Schmidt is used, which is a valid adapted frame when
    the restricted Kaehler form vanishes.  Paths are axis-ordered with
    FRAME_STEPS steps per axis, so the frame depends smoothly on the target
    point.  All targets of a call move in lockstep.  Leg a of a path
    depends only on the target's coordinates 0..a, so each axis leg is one
    geometry batch over the distinct prefixes of the targets (the last one
    also holds the targets), and each step re-orthonormalizes one frame
    per prefix.  Stencils use the patch's fd_step.
    """

    def __init__(self, patch: Patch, gauge: float = 0.0):
        self.patch = patch
        self.anchor = 0.5 * (patch.box[:, 0] + patch.box[:, 1])
        self.gauge = float(gauge)
        geo = _point_geometry(patch, self.anchor, patch.fd_step)
        if not geo.cayley_dev <= default_cayley_tol(patch.fd_step):
            raise ValueError("frame field needs a Cayley anchor point")
        self.lagrangian_mode = bool(geo.lam <= 0.05)
        rep = canonical_form(OrientedPlane4(geo.model_frame))
        # canonical tangent frame back in chart coordinates; model_frame rows
        # are orthonormal, so the coefficient matrix is a plain projection
        coords = rep.canonical_tangent_frame @ geo.model_frame.T
        self._seed = self._orthonormalize(coords @ geo.frame, geo)

    def _orthonormalize(self, frame: np.ndarray, geo: _PointGeometry) -> np.ndarray:
        """Re-orthonormalize frames (..., 4, 8) at the points of geo."""
        if self.lagrangian_mode:
            v = geo.tangential(frame)
            return _gram_schmidt(v, restrict_matrix(geo.g, v))[0]
        if np.any(geo.lam < 0.01):
            raise ValueError("lambda dropped below the Cayley-frame regime")
        j = standard_structure().j
        lam = geo.lam[..., None]

        def norm(v):
            return np.sqrt(_vmv(v, geo.g, v))[..., None]

        def jop(v):
            return geo.tangential(v @ j.T) / lam

        e1 = geo.tangential(frame[..., 0, :])
        e1 /= norm(e1)
        e2 = jop(e1)
        e3 = geo.tangential(frame[..., 2, :])
        for w in (e1, e2):
            e3 = e3 - _vmv(w, geo.g, e3)[..., None] * w
        e3 /= norm(e3)
        return np.stack([e1, e2, e3, jop(e3)], axis=-2)

    def _transport(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gauged Cayley frames (..., 4, 8) at parameter points t (..., 4),
        and lambda (...) there."""
        targets = t.reshape(-1, 4)
        delta = (targets - self.anchor) / FRAME_STEPS
        steps = np.arange(1, FRAME_STEPS + 1)[:, None]
        ends = self.anchor + FRAME_STEPS * delta          # where each leg leaves its axis
        # prefixes are compared bit for bit, which keeps 0.0 and -0.0 apart
        bits = np.ascontiguousarray(targets).view(np.int64)
        frame = self._seed[None]
        group = np.zeros(len(targets), dtype=int)         # prefix of each target
        for a in range(4):
            _, first, inverse = np.unique(bits[:, :a + 1], axis=0, return_index=True,
                                          return_inverse=True)
            frame = frame[group[first]]
            group = inverse.reshape(-1)
            # leg[s - 1]: earlier axes at the end of their leg, axis a at step s
            leg = np.empty((FRAME_STEPS, len(first), 4))
            leg[:] = np.where(np.arange(4) < a, ends[first], self.anchor)
            leg[:, :, a] = self.anchor[a] + steps * delta[first, a]
            if a == 3:
                leg = np.concatenate([leg, targets[first][None]])
            geo = _point_geometry(self.patch, leg, self.patch.fd_step)
            # a path that does not move along this axis keeps its frame
            moved = (delta[first, a] != 0)[:, None, None]
            for s in range(FRAME_STEPS):
                frame = np.where(moved, self._orthonormalize(frame, geo[s]), frame)
        lead = t.shape[:-1]
        return (self._apply_gauge(frame[group].reshape(lead + (4, DIM))),
                geo.lam[-1][group].reshape(lead))

    def cayley_frame(self, t: np.ndarray) -> np.ndarray:
        """Transported Cayley frames at parameter points (..., 4): (..., 4, 8)."""
        return self._transport(np.asarray(t, dtype=float))[0]

    def _apply_gauge(self, frame: np.ndarray) -> np.ndarray:
        if self.gauge == 0.0:
            return frame
        c, s = math.cos(self.gauge), math.sin(self.gauge)
        e1, e2, e3, e4 = (frame[..., k, :] for k in range(4))
        return np.stack([c * e1 + s * e3, c * e2 + s * e4,
                         -s * e1 + c * e3, -s * e2 + c * e4], axis=-2)

    def unitary_frame(self, t: np.ndarray) -> np.ndarray:
        """Unitary gauge of the transported frame at parameter points (..., 4)."""
        frames, lam = self._transport(np.asarray(t, dtype=float))
        if np.any(lam >= 1.0 - LAMBDA_GUARD):
            raise ValueError("near-complex point: no unitary gauge")
        return unitary_gauge(frames, lam)


def gamma_form(patch: Patch, t: np.ndarray, gauge: float = 0.0) -> dict:
    """Both routes to gamma at a stack of parameter points t (N, 4), in the
    parameter coframe.

    Variant A is omega(., H) / (lambda^2 - 1); variant B differentiates the
    unitary frame of a UnitaryFrameField with the given gauge.  Totally
    real Cayley points only.  gamma_a and gamma_b are (N, 4), lambda (N,);
    max_abs_diff is the largest gap over all points.  Each point moves 9
    transport targets (its frame stencil), so points run CHUNK // 9 at a
    time.
    """
    t = _stack_of_points(t)
    gamma_a, gamma_b, lam = np.empty_like(t), np.empty_like(t), np.empty(len(t))
    field = None
    for start in range(0, len(t), CHUNK // 9):
        part = slice(start, start + CHUNK // 9)
        geo = _point_geometry(patch, t[part], patch.fd_step, second=True)
        h_frame, _, _, gamma_chr = _second_fundamental(patch, geo)
        gamma_a[part] = _gamma_a(geo, _mean(h_frame))
        if np.isnan(gamma_a[part]).any():
            raise ValueError("gamma needs lambda bounded away from 1")
        field = field or UnitaryFrameField(patch, gauge)
        u0, du = _fd.jet(field.unitary_frame, t[part], patch.fd_step)
        ju = u0 @ standard_structure().j.T
        # nabla_{d_a} u_k = d_a u_k + Gamma(d_a F, u_k)
        nab = du + np.einsum("nxbc,nab,nkc->nakx", gamma_chr, geo.tangents, u0)
        # the frame trace computes the phase derivative of the complex volume
        # form along the patch; gamma is its negative
        gamma_b[part] = -np.einsum("nakx,nxy,nky->na", nab, geo.g, ju)
        lam[part] = geo.lam
    return {
        "gamma_a": gamma_a,
        "gamma_b": gamma_b,
        "lambda": lam,
        "max_abs_diff": float(np.max(np.abs(gamma_a - gamma_b))),
    }


# ---------------------------------------------------------------------------
# Submanifold identity checks
# ---------------------------------------------------------------------------

def _pair(first: np.ndarray, m: np.ndarray, second: np.ndarray) -> np.ndarray:
    """first_k @ m_k @ second_k over the rows k (m may be shared)."""
    return np.einsum("...a,...ab,...b->...", first, m, second)


def _vmv(v: np.ndarray, m: np.ndarray, w: np.ndarray) -> np.ndarray:
    """v @ m @ w over stacks of vectors (..., 8), rounded exactly as for one
    pair of vectors (a vector-matrix product, then a dot product); the
    einsum of `_pair` sums in another order."""
    return (v[..., None, :] @ m @ w[..., None])[..., 0, 0]


def verify_h_symmetry(patch: Patch, t: np.ndarray, n_triples: int = 8) -> dict:
    """Residuals of the two mean-curvature identities at a point.

    Identity 1:  g(h(X,Y), JZ) - g(h(X,Z), JY) = (D_X omega)(Z, Y)
    Identity 2:  omega(X, H) = sum_i g(h(X, e_i), J e_i)

    X, Y, Z run over random constant-coefficient combinations of the
    coordinate fields.  Identity 1 holds for any submanifold; identity 2
    uses coclosure of the restricted Kaehler form, so it is only checked
    when the point is Cayley within default_cayley_tol (None otherwise).
    """
    h = patch.fd_step
    t = _single_point(t)
    rng = np.random.default_rng(TRIPLE_SEED)
    geo = _point_geometry(patch, t, h, second=True)
    st = standard_structure()
    tang, g, om = geo.tangents, geo.g, geo.omega
    h_frame, nab, ii, _ = _second_fundamental(patch, geo)
    # the tangential connection on coordinate fields
    dtang = geo.tangential(nab)

    x, y, z = rng.standard_normal((n_triples, 3, 4)).transpose(1, 0, 2)
    hxy = np.einsum("ki,kj,ijc->kc", x, y, ii)
    hxz = np.einsum("ki,kj,ijc->kc", x, z, ii)
    yv, zv = y @ tang, z @ tang
    lhs = _pair(hxy, g, zv @ st.j.T) - _pair(hxz, g, yv @ st.j.T)
    # omega(Z, Y) at t +- h X, one geometry batch for all triples
    side = _point_geometry(patch, np.concatenate([t + h * x, t - h * x]), h)
    zz, yy = np.concatenate([z, z]), np.concatenate([y, y])
    pair = _pair(np.einsum("ki,kia->ka", zz, side.tangents), side.omega,
                 np.einsum("ki,kia->ka", yy, side.tangents))
    d_along = (pair[:n_triples] - pair[n_triples:]) / (2.0 * h)
    dxz = np.einsum("ki,kj,ijc->kc", x, z, dtang)
    dxy = np.einsum("ki,kj,ijc->kc", x, y, dtang)
    rhs = d_along - _pair(dxz, om, yv) - _pair(zv, om, dxy)
    res1 = np.abs(lhs - rhs)

    identity2_max = None
    if geo.cayley_dev <= default_cayley_tol(h):
        mean = _mean(h_frame[None])[0]
        xv = rng.standard_normal((n_triples, 4)) @ tang
        xcoef = xv @ (geo.frame @ g).T               # X in the orthonormal frame
        hxe = np.einsum("ki,iac->kac", xcoef, h_frame)
        total = np.einsum("kac,cd,ad->k", hxe, g, geo.frame @ st.j.T)
        identity2_max = float(np.max(np.abs(_pair(xv, om, mean) - total)))

    return {
        "identity1_max": float(np.max(res1)),
        "identity2_max": identity2_max,
        "h_symmetry_dev": float(np.max(np.abs(h_frame - h_frame.transpose(1, 0, 2)))),
        "cayley_deviation": float(geo.cayley_dev),
        "fd_step": h,
    }


def coclosure_residual(patch: Patch, t: np.ndarray) -> float:
    """Max over X of |d*(omega|_N)(X)| = |sum_a (D_{e_a} omega)(e_a, X)|."""
    h = patch.fd_step
    t = _single_point(t)
    geo = _point_geometry(patch, t, h, second=True)
    _, nab, _, gamma_chr = _second_fundamental(patch, geo)
    w = geo.gs_coeff                        # e_a in parameter coordinates (rows)
    side = _point_geometry(patch, np.concatenate([t + h * w, t - h * w]), h)
    a = np.arange(4)
    gp, gm = side[:4], side[4:]
    fp_a, fm_a = gp.frame[a, a], gm.frame[a, a]          # e_a at t +- h e_a
    # D_{e_a} e_a, with the Gram-Schmidt frame as the frame field
    dframe = (fp_a - fm_a) / (2.0 * h)
    wamb = w @ geo.tangents
    d_ea = geo.tangential(dframe + np.einsum("xbc,ab,ac->ax", gamma_chr, wamb, geo.frame))
    fp = np.einsum("ax,axy,aby->ab", fp_a, gp.omega, gp.tangents)
    fm = np.einsum("ax,axy,aby->ab", fm_a, gm.omega, gm.tangents)
    d_along = (fp - fm) / (2.0 * h)
    d_x = geo.tangential(np.einsum("ai,ijc->ajc", w, nab))
    terms = (d_along
             - np.einsum("ax,xy,by->ab", d_ea, geo.omega, geo.tangents)
             - np.einsum("ax,xy,aby->ab", geo.frame, geo.omega, d_x))
    return float(np.max(np.abs(terms.sum(axis=0))))


# ---------------------------------------------------------------------------
# Theorem-level verification
# ---------------------------------------------------------------------------

def _gamma_a_at(patch: Patch, t: np.ndarray, h: float) -> np.ndarray:
    """Variant-A gamma at a stack of parameter points (N, 4), with step h."""
    rep = point_report(replace(patch, fd_step=h), t)
    if np.isnan(rep.gamma).any():
        raise ValueError("gamma undefined (lambda too close to 1)")
    return rep.gamma


def _dgamma_residual(patch: Patch, t: np.ndarray, h: float,
                     cayley_tol: float, rho: np.ndarray) -> np.ndarray:
    """max_{i<j} |(d gamma - rho|_N)(d_i, d_j)| at each probe of t (P, 4),
    given the Ricci forms rho (P, 8, 8) there; NaN masks a probe."""
    geo = _point_geometry(patch, t, h)
    keep = ~((geo.cayley_dev > cayley_tol) | (geo.lam > 1.0 - LAMBDA_GUARD))
    out = np.full(len(t), np.nan)
    if not keep.any():
        return out
    geo, rho = geo[keep], rho[keep]
    # d[n, i, j] = gamma_j(t_n + h e_i) - gamma_j(t_n - h e_i)
    d = _fd.differences(lambda s: _gamma_a_at(patch, s.reshape(-1, 4), h).reshape(s.shape),
                        geo.t, h)
    dg = (d - np.swapaxes(d, -1, -2)) / (2.0 * h)
    tang = geo.tangents
    pull = _vmv(tang[:, :, None, :], rho[:, None, None], tang[:, None, :, :])
    iu, ju = np.triu_indices(4, 1)
    out[keep] = np.max(np.abs(dg - pull)[:, iu, ju], axis=-1)
    return out


@dataclass(frozen=True)
class ConvergenceReport:
    residuals: tuple[float, ...]
    orders: tuple[float, ...]
    converged_at_floor: bool
    final_residual: float
    n_probes: int = 0
    n_masked: int = 0

    def passes(self, tol: float) -> bool:
        """Final residual within tol, decaying at the expected order.

        Residuals that sit at the rounding floor carry no usable order
        information (the printed order would be noise), so the floor
        clause stands in for the order check there.
        """
        if self.final_residual > tol:
            return False
        if self.final_residual <= RESIDUAL_FLOOR:
            return True
        return all(o >= MIN_ORDER or not math.isfinite(o) for o in self.orders)

    def to_json(self) -> dict:
        return {
            "residuals": list(self.residuals),
            "orders": [o if math.isfinite(o) else None for o in self.orders],
            "converged_at_floor": self.converged_at_floor,
            "final_residual": self.final_residual,
            "n_probes": self.n_probes,
            "n_masked": self.n_masked,
        }


def verify_theorem_iii(patch: Patch, probes: np.ndarray | None = None,
                       cayley_tol: float | None = None) -> ConvergenceReport:
    """Residual of d(gamma) = rho|_N, halving the patch's fd_step per level.

    Probes that are not Cayley within tolerance, or are near complex, are
    masked out of the report (the identity is not asserted there).
    """
    if probes is None:
        probes = patch.probe_points(per_axis=2, shrink=0.5)
    probes = np.asarray(probes, dtype=float)
    # rho depends on the chart point only, not on the step of the level
    rho = patch.chart.ricci_form_at(patch.evaluate(probes))
    residuals = []
    masked = 0
    for k in range(FD_LEVELS):
        h = patch.fd_step / (2 ** k)
        tol_here = cayley_tol if cayley_tol is not None else default_cayley_tol(h)
        r = _dgamma_residual(patch, probes, h, tol_here, rho)
        unmasked = ~np.isnan(r)
        if not unmasked.any():
            raise ValueError("every probe point was masked; nothing to verify")
        masked = max(masked, len(probes) - int(unmasked.sum()))
        residuals.append(float(np.max(r, where=unmasked, initial=0.0)))
    orders = []
    for k in range(len(residuals) - 1):
        lo, hi = residuals[k + 1], residuals[k]
        if lo <= RESIDUAL_FLOOR or hi == 0.0:
            # no order to fit: the finer level is at the floor, or the
            # coarser one is exactly 0 (log2(0) is undefined)
            orders.append(float("inf"))
        else:
            orders.append(math.log2(hi / lo))
    at_floor = all(r <= RESIDUAL_FLOOR for r in residuals)
    return ConvergenceReport(
        residuals=tuple(residuals),
        orders=tuple(orders),
        converged_at_floor=at_floor,
        final_residual=residuals[-1],
        n_probes=len(probes),
        n_masked=masked,
    )


def _wrap_angle(a: np.ndarray) -> np.ndarray:
    return np.angle(np.exp(1j * a))


@dataclass(frozen=True)
class CalibrationReport:
    minimal: bool
    max_mean_curvature: float
    branch: str
    best_alpha: float | None
    calibration_defect: float | None       # max |Phi_{alpha*} - 1| when minimal
    phase_deviation: float | None
    max_min_phi: float | None              # max_alpha min_points Phi_alpha otherwise
    n_points: int

    def to_json(self) -> dict:
        return asdict(self)


def verify_theorem_i(patch: Patch, report: PointReport | None = None) -> CalibrationReport:
    """Calibrated/minimal dichotomy for pointwise Cayley patches (flat chart).

    Minimal patches must be calibrated by a single phase (complex patches by
    every phase); non-minimal ones must fail every phase somewhere.  The
    points are those of report, the PointReport over the whole grid unless
    the caller passes one it already holds.
    """
    rep = point_report(patch, patch.grid_points()) if report is None else report
    hmax = float(np.max(rep.mean_curvature_norm))
    frames = rep.tangent_plane
    w = omega0_values(frames)
    pf = wirtinger_values(frames)
    alphas = np.linspace(0.0, 2.0 * np.pi, N_PHASES, endpoint=False)
    phi = _phase_combination(w, pf, alphas)

    minimal = hmax <= MINIMAL_TOL
    if not minimal:
        max_min = float(np.max(np.min(phi, axis=1)))
        return CalibrationReport(
            minimal=False, max_mean_curvature=hmax, branch="not_minimal",
            best_alpha=None, calibration_defect=None, phase_deviation=None,
            max_min_phi=max_min, n_points=len(rep.t),
        )
    # complex points carry no phase information (Omega vanishes on them)
    wabs = np.abs(w)
    if np.all(wabs < 1e-12):
        defect = float(np.max(np.abs(phi - 1.0)))
        return CalibrationReport(
            minimal=True, max_mean_curvature=hmax, branch="complex_all_alpha",
            best_alpha=None, calibration_defect=defect, phase_deviation=0.0,
            max_min_phi=None, n_points=len(rep.t),
        )
    alpha_xi = -np.angle(w)
    mean_dir = np.mean(np.exp(1j * alpha_xi))
    alpha_star = float(np.angle(mean_dir))
    phase_dev = float(np.max(np.abs(_wrap_angle(alpha_xi - alpha_star))))
    phi_star = _phase_combination(w, pf, alpha_star)
    defect = float(np.max(np.abs(phi_star - 1.0)))
    return CalibrationReport(
        minimal=True, max_mean_curvature=hmax, branch="calibrated",
        best_alpha=alpha_star, calibration_defect=defect,
        phase_deviation=phase_dev, max_min_phi=None, n_points=len(rep.t),
    )


@dataclass(frozen=True)
class EinsteinDichotomyReport:
    preconditions_met: bool
    failed_precondition: str | None
    branch: str | None
    einstein_constant: float
    max_mean_curvature: float
    max_cayley_deviation: float
    lambda_min: float
    lambda_max: float
    n_points: int

    def to_json(self) -> dict:
        return asdict(self)


def verify_theorem_ii(patch: Patch, report: PointReport | None = None) -> EinsteinDichotomyReport:
    """Minimal Cayley patches of a nonflat Einstein chart must be complex
    or Lagrangian; precondition failures are reported, never asserted over.

    Preconditions, in order: the chart is Einstein with nonzero constant,
    every point of report is Cayley within tolerance, the patch is minimal.
    report is as in verify_theorem_i.
    """
    ein = einstein_report(patch.chart, n_points=EINSTEIN_SAMPLES)
    rep = point_report(patch, patch.grid_points()) if report is None else report
    hmax = float(np.max(rep.mean_curvature_norm))
    devmax = float(np.max(rep.cayley_dev))
    lmin, lmax = float(np.min(rep.lam)), float(np.max(rep.lam))

    def result(met, failed, branch):
        return EinsteinDichotomyReport(
            preconditions_met=met, failed_precondition=failed, branch=branch,
            einstein_constant=ein.scalar, max_mean_curvature=hmax,
            max_cayley_deviation=devmax, lambda_min=lmin, lambda_max=lmax,
            n_points=len(rep.t))

    if abs(ein.scalar) < 1e-3 or ein.max_deviation > 1e-4:
        return result(False, "einstein_chart", None)
    if devmax > default_cayley_tol(patch.fd_step):
        return result(False, "pointwise_cayley", None)
    if hmax > MINIMAL_TOL:
        return result(False, "minimal", None)
    if lmax <= BRANCH_TOL:
        branch = "lagrangian"
    elif lmin >= 1.0 - BRANCH_TOL:
        branch = "complex"
    else:
        branch = "violation"
    return result(True, None, branch)


def _lambda_sq_terms(patch: Patch, points: np.ndarray) -> np.ndarray:
    """Rows (lambda^2, volume density, Pfaffian of the pulled-back omega)
    over the points (N, 4), computed CHUNK points at a time."""
    parts = []
    for start in range(0, len(points), CHUNK):
        geo = _point_geometry(patch, points[start:start + CHUNK], patch.fd_step)
        dvol = np.sqrt(np.maximum(np.linalg.det(restrict_matrix(geo.g, geo.tangents)), 0.0))
        parts.append([geo.lam ** 2, dvol, pfaffian4(restrict_matrix(geo.omega, geo.tangents))])
    return np.concatenate(parts, axis=1)


def l2_lambda_invariant(patch: Patch) -> dict:
    """Quadrature of lambda^2 dvol against (1/2) the squared Kaehler form.

    The patch must be closed (all axes periodic); the two integrands are
    computed by independent routes (angle extraction vs Pfaffian of the
    pulled-back form).
    """
    if not all(patch.periodic):
        raise ValueError("the quadrature identity needs a closed (periodic) patch")
    pts = patch.grid_points()
    cell = patch.cell_volume()
    lam_sq, dvol, pf = _lambda_sq_terms(patch, pts)
    lhs = float(np.sum(lam_sq * dvol)) * cell
    rhs = float(np.sum(pf)) * cell
    return {
        "lambda_sq_integral": lhs,
        "half_omega_sq_integral": rhs,
        "difference": abs(lhs - rhs),
        "n_points": len(pts),
    }


# ---------------------------------------------------------------------------
# Built-in patch families
# ---------------------------------------------------------------------------

def _finite_array(value, shape: tuple, what: str) -> np.ndarray | float:
    """value as a float array of the given shape with finite entries, or a
    float when shape is (); bools and strings are not numbers."""
    try:
        entries = np.asarray(value, dtype=object)
        numbers = entries.shape == shape and all(
            isinstance(x, (int, float, np.integer, np.floating)) and not isinstance(x, bool)
            for x in entries.flat)
        out = entries.astype(float) if numbers else None
    except (ValueError, OverflowError):      # ragged nesting, an int beyond the doubles
        out = None
    if out is None or not np.isfinite(out).all():
        raise ValueError(f"{what} must be {' x '.join(map(str, shape)) or 'a'} finite "
                         f"number{'s' if shape else ''}")
    return out if shape else float(out)


def _affine_patch(frame=None, theta1=0.5 * math.pi, theta2=None, offset=(0.0,) * DIM):
    if frame is None:
        # default is the real-axes (special Lagrangian) plane
        from .planes import build_plane
        u = realify(np.eye(4, dtype=complex))
        frame = build_plane(u, theta1, theta1 if theta2 is None else theta2).frame

    def fmap(t):
        # summed term by term so that every row rounds the same way
        out = offset + t[..., 0, None] * frame[0]
        for i in range(1, 4):
            out = out + t[..., i, None] * frame[i]
        return out

    return fmap


def _complex_graph(a=0.3, b=0.2, c=0.25, d=0.15):
    def term(coef, u, v):
        # coef * u * v in real arithmetic: complex array products may fuse
        # multiply-adds, which would round rows of a stack differently
        ur, ui = coef * u[0], coef * u[1]
        return ur * v[0] - ui * v[1], ur * v[1] + ui * v[0]

    def fmap(t):
        z1 = t[..., 0], t[..., 1]
        z2 = t[..., 2], t[..., 3]
        z3 = [p + q for p, q in zip(term(a, z1, z1), term(b, z1, z2))]
        z4 = [p + q for p, q in zip(term(c, z2, z2), term(d, z1, z2))]
        return np.stack([*z1, *z2, *z3, *z4], axis=-1)

    return fmap


def _lagrangian_graph(amp=0.1, beta=0.5):
    def grad_f(t):
        s = np.sum(t * t, axis=-1, keepdims=True)
        g = 4.0 * amp * s * t
        for k in range(4):
            others = np.prod(np.delete(t, k, axis=-1), axis=-1)
            g[..., k] += amp * beta * others
        return g

    def fmap(t):
        out = np.empty(t.shape[:-1] + (DIM,))
        out[..., 0::2] = t
        out[..., 1::2] = grad_f(t)
        return out

    return fmap


def _circles(radii: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Product of circles of the given radii at angles t."""
    out = np.empty(t.shape[:-1] + (DIM,))
    out[..., 0::2] = radii * np.cos(t)
    out[..., 1::2] = radii * np.sin(t)
    return out


def _real_plane(t: np.ndarray) -> np.ndarray:
    """The real coordinate 4-plane R^4, t at the real parts."""
    out = np.zeros(t.shape[:-1] + (DIM,))
    out[..., 0::2] = t
    return out


def _complex_plane(t: np.ndarray) -> np.ndarray:
    """The coordinate complex 2-plane C^2 x {0}."""
    out = np.zeros(t.shape[:-1] + (DIM,))
    out[..., :4] = t
    return out


def _angle_sum_shift(t: np.ndarray) -> np.ndarray:
    """d_m Psi for Psi = cos(phi1 + phi2): (-sin, -sin, 0, 0)."""
    out = np.zeros(t.shape)
    out[..., 0] = out[..., 1] = -np.sin(t[..., 0] + t[..., 1])
    return out


def _product_torus(radii=(1.0, 1.0, 1.0, 1.0)):
    def fmap(t):
        return _circles(radii, t)

    return fmap


def _perturbed_lagrangian_torus(r=1.0, eps=0.05):
    # radii r_m with r_m^2 = r^2 + eps * d_m Psi, Psi = cos(phi1 + phi2):
    # the 1-form sum r_m^2 dphi_m stays closed, so the torus stays Lagrangian.

    def fmap(t):
        return _circles(np.sqrt(r * r + eps * _angle_sum_shift(t)), t)

    return fmap


def _fs_lagrangian_torus(kappa=(0.08, 0.1, 0.12, 0.09), eps=0.02):
    # In moment coordinates mu_m = R_m^2 / (1 + sum R^2) the restriction of
    # the chart Kaehler form to a torus section R(phi) is the antisymmetric
    # part of d(mu_m) dphi_m, so sections with mu_m = kappa_m + eps * d_m Psi
    # (a closed perturbation) are exactly Lagrangian.  eps = 0 gives the
    # product torus; eps > 0 couples the angles, which keeps finite
    # differences honest.

    def fmap(t):
        mu = kappa + eps * _angle_sum_shift(t)
        # sum(mu) >= 1 is past the chart: NaN or inf, which the chart rejects
        with np.errstate(invalid="ignore", divide="ignore"):
            return _circles(np.sqrt(mu / (1.0 - np.sum(mu, axis=-1, keepdims=True))), t)

    return fmap


def _perturbed_real_slice(eps=0.05):
    def fmap(t):
        out = _real_plane(t)
        out[..., 1] = eps * np.sin(t[..., 1]) * np.cos(t[..., 2])
        out[..., 3] = eps * np.sin(t[..., 2] + t[..., 3])
        return out

    return fmap


# One row per builtin: (maker, default chart, axis box [lo, hi], periodic,
# parameter shapes).  maker(**params) gives the map, its keyword defaults
# are the parameter defaults, and a shape () is a number.  Every axis has
# the same box and periodicity.
_OPEN5, _OPEN6, _TORUS = (-0.5, 0.5), (-0.6, 0.6), (0.0, 2.0 * math.pi)
BUILTIN_PATCHES = {
    "affine": (_affine_patch, "flat", _OPEN5, False,
               {"frame": (4, DIM), "theta1": (), "theta2": (), "offset": (DIM,)}),
    "complex-graph": (_complex_graph, "flat", _OPEN6, False, dict.fromkeys("abcd", ())),
    "lagrangian-graph": (_lagrangian_graph, "flat", _OPEN5, False, {"amp": (), "beta": ()}),
    "product-torus": (_product_torus, "flat", _TORUS, True, {"radii": (4,)}),
    "perturbed-lagrangian-torus": (_perturbed_lagrangian_torus, "flat", _TORUS, True,
                                   {"r": (), "eps": ()}),
    "complex-torus": (lambda: _complex_plane, "flat", _TORUS, True, {}),
    "fs-real-slice": (lambda: _real_plane, "fubini-study", _OPEN6, False, {}),
    "fs-complex-slice": (lambda: _complex_plane, "fubini-study", _OPEN6, False, {}),
    "fs-lagrangian-torus": (_fs_lagrangian_torus, "fubini-study", _TORUS, True,
                            {"kappa": (4,), "eps": ()}),
    "perturbed-real-slice": (_perturbed_real_slice, "fubini-study", _OPEN6, False, {"eps": ()}),
}


def builtin_patch(name: str, params: dict | None = None,
                  chart: KahlerChart | None = None,
                  grid_n: tuple[int, int, int, int] | None = None,
                  fd_step: float = FD_STEP) -> Patch:
    """The builtin patch of that name; params are checked against its
    row of BUILTIN_PATCHES before the map is made."""
    if name not in BUILTIN_PATCHES:
        raise KeyError(f"unknown patch '{name}'; known: {sorted(BUILTIN_PATCHES)}")
    maker, chart_name, box, periodic, shapes = BUILTIN_PATCHES[name]
    values = {}
    for key, value in (params or {}).items():
        if key not in shapes:
            raise ValueError(f"unknown parameter {key!r} of patch '{name}'; "
                             f"known: {sorted(shapes)}")
        values[key] = _finite_array(value, shapes[key],
                                    f"parameter {key!r} of patch '{name}'")
    return Patch(
        name=name, chart=CHARTS[chart_name]() if chart is None else chart,
        map_fn=maker(**values), box=np.array([box] * 4),
        grid_n=(9, 9, 9, 9) if grid_n is None else grid_n, periodic=(periodic,) * 4,
        fd_step=fd_step,
    )


def patch_from_spec(spec: dict) -> Patch:
    """Build a patch from its JSON description.

    Schema: {"name": str, "params": {...}, "grid": {"n": [4 ints]},
             "ambient": "flat" | "fubini-study", "fd_step": float}.
    """
    name = spec["name"]
    if not isinstance(name, str):
        raise ValueError("name must be a string")
    chart_name = spec.get("ambient")
    if chart_name not in (None, *CHARTS):
        raise ValueError(f"unknown ambient chart '{chart_name}'")
    chart = None if chart_name is None else CHARTS[chart_name]()
    params = spec.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("params must be an object")
    grid = spec.get("grid", {})
    if not isinstance(grid, dict) or not isinstance(grid.get("n", []), list):
        raise ValueError('grid must be an object {"n": [4 integers]}')
    grid_n = tuple(grid.get("n", (9, 9, 9, 9)))
    fd_step = _finite_array(spec.get("fd_step", FD_STEP), (), "fd_step")
    return builtin_patch(name, params, chart, grid_n, fd_step)
