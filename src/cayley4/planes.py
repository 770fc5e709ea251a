"""Kaehler angles, canonical forms and the Cayley condition for 4-planes.

An oriented 4-plane xi in Hermitian R^8 restricts the Kaehler form to an
antisymmetric 4x4 matrix A in any oriented orthonormal frame.  There is an
in-plane rotation bringing A to

    cos(theta1) e^12 + cos(theta2) e^34,
    0 <= theta1 <= pi/2,  theta1 <= theta2 <= pi,

and the plane itself can be written against a unitary basis (u1, .., u4) as

    xi = u1 ^ (cos(theta1) J u1 + sin(theta1) u2)
            ^ u3 ^ (cos(theta2) J u3 + sin(theta2) u4).

The angle pair satisfying the constraints above is not quite unique: when
theta2 > pi/2 the same oriented plane also admits the representative
(pi - theta2, pi - theta1) (flip the orientation of both invariant
2-planes, which preserves the product orientation).  The extraction below
therefore lands in the fundamental domain

    theta1 + theta2 <= pi,

equivalently cos(theta1) = (|u + v| + |u - v|) / 2 and cos(theta2) =
(|u + v| - |u - v|) / 2, where u + v and u - v, for u = (A01, A02, A03)
and v = (A23, A31, A12), are the self-dual and anti-self-dual parts of
A: their norms are rotation invariant, and on the normal form they are
cos(theta1) + cos(theta2) and cos(theta1) - cos(theta2), both >= 0.
The round-trip tests pin this down.

A plane is Cayley when theta1 = theta2; the common cosine is written
lambda.  Equivalent characterizations (restriction of omega self-dual;
B^2 = -lambda^2 id for the tangential part B of J) are implemented as
independent predicates and compared in the test suite.  Note that
B^2 = -lambda^2 id alone is also satisfied by anti-self-dual planes with
theta1 + theta2 = pi, a measure-zero set kept out of the equivalence by
the self-duality predicate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .multilinear import (
    DIM,
    OrientedPlane4,
    hodge_star_plane,
    restrict_matrix,
)
from .hermitian import (
    complexify,
    omega0_values,
    phi_values,
    realify,
    standard_structure,
)

__all__ = [
    "AngleReport",
    "BOperator",
    "OmegaXi",
    "NearComplexError",
    "PartiallyComplexError",
    "NotCayleyError",
    "b_operator",
    "kahler_angles",
    "canonical_form",
    "is_cayley",
    "cayley_basis",
    "unitary_from_cayley",
    "omega_xi",
    "calibration_value",
    "build_plane",
    "normalize_angle_pair",
    "random_unitary_basis",
    "batch_kahler_cosines",
]

Classification = Literal[
    "complex",
    "lagrangian",
    "cayley_totally_real",
    "totally_real_non_cayley",
    "partially_complex",
]

# sin(theta) below this counts as a degenerate (complex) factor.
DEGENERATE_SIN = 1e-8

# Planes with lambda >= 1 - NEAR_COMPLEX_GUARD have no usable unitary gauge.
NEAR_COMPLEX_GUARD = 1e-8

# Angle gaps, Lagrangian cosines and self-duality defects up to this are 0.
CAYLEY_TOL = 1e-10

# Singular values of a restricted Kaehler form up to this count as 0.
SIGMA_FLOOR = 1e-12


class NearComplexError(ValueError):
    """Raised when a construction needs sin(theta) bounded away from 0."""


class PartiallyComplexError(ValueError):
    """Raised when a plane with a complex factor reaches a totally real op."""


class NotCayleyError(ValueError):
    """Raised when a Cayley-only construction meets a non-Cayley plane."""


@dataclass(frozen=True)
class BOperator:
    """Tangential part of J on a plane, as a matrix in the frame basis."""

    matrix: np.ndarray


@dataclass(frozen=True)
class OmegaXi:
    """Phase and value of the adapted complex volume form on a plane."""

    alpha: float
    value: float


@dataclass(frozen=True)
class AngleReport:
    theta1: float
    theta2: float
    classification: Classification
    lam: float | None = None
    unitary_basis: np.ndarray | None = None
    canonical_tangent_frame: np.ndarray | None = None
    degenerate_factors: tuple[bool, bool] = (False, False)
    degenerate_spectrum: bool = False

    def cosines(self) -> tuple[float, float]:
        return float(np.cos(self.theta1)), float(np.cos(self.theta2))

    def to_json(self) -> dict:
        out = {
            "theta1": self.theta1,
            "theta2": self.theta2,
            "classification": self.classification,
            "lambda": self.lam,
            "degenerate_factors": list(self.degenerate_factors),
            "degenerate_spectrum": self.degenerate_spectrum,
        }
        if self.unitary_basis is not None:
            out["canonical_unitary_basis"] = self.unitary_basis.tolist()
        return out


def b_operator(plane: OrientedPlane4) -> BOperator:
    """B = (tangential projection) o J restricted to the plane.

    Entry (i, j) is g(J frame_j, frame_i), so that matrix-vector products
    act on frame coordinates.
    """
    return BOperator(matrix=restrict_matrix(standard_structure().j, plane.frame))


def _omega_restriction(plane: OrientedPlane4) -> np.ndarray:
    return restrict_matrix(standard_structure().omega_mat, plane.frame)


def _complete_orthonormal(known: list[np.ndarray], pool: np.ndarray,
                          min_norm: float = 0.3) -> list[np.ndarray]:
    """Extend the orthonormal vectors `known` by the rows of `pool`.

    Modified Gram-Schmidt in the Hermitian product (the Euclidean one for
    real input): each candidate is projected off the vectors kept so far
    and kept, normalized, when its residual norm exceeds min_norm.
    """
    out = list(known)
    for cand in pool:
        v = cand.copy()        # contiguous, as BLAS rounding depends on layout
        for w in out:
            v = v - (w.conj() @ v) * w
        n = np.linalg.norm(v)
        if n > min_norm:
            out.append(v / n)
    return out


def _canonical_pairs(a: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Rotate a skew 4x4 form to c1*e^12 + c2*e^34 with c1 = sigma1 >= |c2|.

    Returns (r, c1, c2) with r in SO(4), columns holding the new frame in
    old-frame coordinates, and r.T @ a @ r in the canonical shape.  Ties
    sigma1 = sigma2 are resolved by an arbitrary invariant splitting.
    """
    evals, vecs = np.linalg.eigh(-a @ a)          # ascending sigma^2 pairs
    s1 = float(np.sqrt(max(evals[3], 0.0)))
    s2 = float(np.sqrt(max(evals[0], 0.0)))
    if s1 <= SIGMA_FLOOR:
        return np.eye(4), 0.0, 0.0

    v = vecs[:, 3]
    av = a @ v
    p1 = av / np.linalg.norm(av)
    p2 = v                                        # omega(p1, p2) = +sigma1
    rest = _complete_orthonormal([p1, p2], vecs[:, ::-1].T)
    q = rest[2]
    aq = a @ q
    if np.linalg.norm(aq) <= SIGMA_FLOOR:
        q1, q2 = q, rest[3]
        c2 = 0.0
    else:
        q1 = aq / np.linalg.norm(aq)
        q2 = q                                    # omega(q1, q2) = +sigma2
        c2 = s2
    r = np.column_stack([p1, p2, q1, q2])
    if np.linalg.det(r) < 0:
        r[:, 3] = -r[:, 3]
        c2 = -c2
    return r, s1, c2


def normalize_angle_pair(theta1: float, theta2: float) -> tuple[float, float]:
    """Map an admissible angle pair to its ordered theta1 + theta2 <= pi form."""
    lo, hi = sorted((float(theta1), float(theta2)))
    if lo + hi > np.pi:
        return float(np.pi - hi), float(np.pi - lo)
    return lo, hi


def _classify(theta1: float, theta2: float) -> Classification:
    s1, s2 = np.sin(theta1), np.sin(theta2)
    n_deg = int(s1 <= DEGENERATE_SIN) + int(s2 <= DEGENERATE_SIN)
    if n_deg == 2:
        return "complex"
    if n_deg == 1:
        return "partially_complex"
    if abs(np.cos(theta1)) <= CAYLEY_TOL and abs(np.cos(theta2)) <= CAYLEY_TOL:
        return "lagrangian"
    if abs(theta1 - theta2) <= CAYLEY_TOL:
        return "cayley_totally_real"
    return "totally_real_non_cayley"


def _angles_from_cosines(c1: float, c2: float) -> tuple[float, float]:
    t1 = float(np.arccos(np.clip(c1, -1.0, 1.0)))
    t2 = float(np.arccos(np.clip(c2, -1.0, 1.0)))
    return t1, t2


def _angle_report(c1: float, c2: float, **basis) -> AngleReport:
    """Report for the canonical cosines; `basis` carries canonical_form's fields."""
    t1, t2 = _angles_from_cosines(c1, c2)
    lam = 0.5 * (c1 + c2) if abs(t1 - t2) <= CAYLEY_TOL else None
    return AngleReport(
        theta1=t1,
        theta2=t2,
        classification=_classify(t1, t2),
        lam=None if lam is None else float(np.clip(lam, 0.0, 1.0)),
        degenerate_spectrum=bool(abs(c1 - abs(c2)) <= 1e-9),
        **basis,
    )


def kahler_angles(plane: OrientedPlane4) -> AngleReport:
    """Angle extraction without the canonical basis (cheap path)."""
    c1, c2 = batch_kahler_cosines(plane.frame[None])
    return _angle_report(float(c1[0]), float(c2[0]))


def _unitary_gram_dev(u: np.ndarray) -> float:
    """Deviation of a real 4x8 row set from being a unitary C^4 basis."""
    z = complexify(u)
    return float(np.linalg.norm(z @ z.conj().T - np.eye(4)))


def canonical_form(plane: OrientedPlane4) -> AngleReport:
    """Full canonical data: angles, in-plane canonical frame, unitary basis.

    Degenerate (complex) factors get an arbitrary unitary completion and a
    flag; rebuilding the plane from the returned data reproduces the input
    blade either way.
    """
    st = standard_structure()
    a = _omega_restriction(plane)
    r, c1, c2 = _canonical_pairs(a)
    t1, t2 = _angles_from_cosines(c1, c2)
    p = r.T @ plane.frame                          # canonical tangent vectors
    s1, s2 = np.sin(t1), np.sin(t2)

    deg1 = bool(s1 <= DEGENERATE_SIN)
    deg2 = bool(s2 <= DEGENERATE_SIN)

    u1 = p[0]
    u3 = p[2]
    known: list[np.ndarray] = [u1, u3]
    u2 = None if deg1 else (p[1] - c1 * (st.j @ p[0])) / s1
    u4 = None if deg2 else (p[3] - c2 * (st.j @ p[2])) / s2
    if u2 is not None:
        known.insert(1, u2)
    if u4 is not None:
        known.append(u4)

    if deg1 or deg2:
        known_z = [complexify(v) for v in known]
        filled = _complete_orthonormal(known_z, np.eye(4, dtype=complex))
        extras = [realify(z) for z in filled[len(known_z):]]
        if u2 is None:
            u2 = extras.pop(0)
        if u4 is None:
            u4 = extras.pop(0)

    u = np.vstack([u1, u2, u3, u4])
    dev = _unitary_gram_dev(u)
    if dev > 1e-12:
        # tiny sin(theta) amplifies rounding in the u2/u4 quotients; a
        # hermitian re-orthonormalization costs O(dev) which the rebuild
        # multiplies back down by sin(theta); every row is kept, as near
        # complex planes leave residuals below the completion threshold
        u = realify(_complete_orthonormal([], complexify(u), min_norm=0.0))
        dev = _unitary_gram_dev(u)
    if dev > 1e-9:
        raise RuntimeError(f"canonical basis failed unitarity check: {dev:.3e}")

    return _angle_report(c1, c2, unitary_basis=u, canonical_tangent_frame=p,
                         degenerate_factors=(deg1, deg2))


def build_plane(unitary_basis: np.ndarray, theta1: float, theta2: float) -> OrientedPlane4:
    """Assemble the plane with given angles over a unitary basis."""
    u = np.asarray(unitary_basis, dtype=float)
    dev = _unitary_gram_dev(u)
    if dev > 1e-9:
        raise ValueError(f"basis is not unitary: deviation {dev:.3e}")
    st = standard_structure()
    c1, s1 = np.cos(theta1), np.sin(theta1)
    c2, s2 = np.cos(theta2), np.sin(theta2)
    f = np.vstack([
        u[0],
        c1 * (st.j @ u[0]) + s1 * u[1],
        u[2],
        c2 * (st.j @ u[2]) + s2 * u[3],
    ])
    return OrientedPlane4(f)


def is_cayley(plane: OrientedPlane4) -> tuple[bool, float | None]:
    """Self-duality test of the restricted Kaehler form.

    Returns (flag, lambda); lambda = (cos(theta1) + cos(theta2)) / 2 clamped
    to [0, 1] when the flag is set, None otherwise.  The result is
    cross-checked against B^2 = -lambda^2 id.
    """
    a = _omega_restriction(plane)
    dev = float(np.linalg.norm(hodge_star_plane(a) - a))
    if dev > CAYLEY_TOL:
        return False, None
    c1, c2 = batch_kahler_cosines(plane.frame[None])
    lam = float(np.clip(0.5 * (c1[0] + c2[0]), 0.0, 1.0))
    b = b_operator(plane).matrix
    cross = float(np.linalg.norm(b @ b + lam * lam * np.eye(4)))
    if cross > max(100 * CAYLEY_TOL, 1e-8):
        raise RuntimeError(
            f"self-dual restriction but B^2 + lambda^2 id = {cross:.3e}; "
            "inconsistent plane data")
    return True, lam


def cayley_basis(plane: OrientedPlane4) -> np.ndarray:
    """Frame (e1, j e1, e3, j e3) adapted to a Cayley plane, j = B / lambda.

    For lambda = 0 every orthonormal frame qualifies and the input frame is
    returned unchanged.  Non-Cayley planes are rejected.
    """
    ok, lam = is_cayley(plane)
    if not ok:
        raise NotCayleyError("cayley_basis needs a Cayley plane")
    if lam <= CAYLEY_TOL:
        return plane.frame.copy()
    jmat = b_operator(plane).matrix / lam          # frame-coordinate j, j^2 = -id
    f = plane.frame
    e1c = np.array([1.0, 0.0, 0.0, 0.0])
    e2c = jmat @ e1c
    # the other three axes carry squared residual 2 in total, so one of
    # them always clears the completion threshold
    e3c = _complete_orthonormal([e1c, e2c], np.eye(4)[1:])[2]
    e4c = jmat @ e3c
    coords = np.column_stack([e1c, e2c, e3c, e4c])
    if np.linalg.det(coords) < 0:  # pragma: no cover - Pf(j) = +1 forbids this
        raise RuntimeError("Cayley frame came out negatively oriented")
    return coords.T @ f


def unitary_gauge(frame: np.ndarray, lam: float | np.ndarray) -> np.ndarray:
    """u_{2k} = (e_{2k} - lam J e_{2k-1}) / s, s = sqrt(1 - lam^2), on the rows
    of Cayley frames (..., 4, 8) = (e1, j e1, e3, j e3) with lam of shape
    (...); callers keep lam away from 1."""
    j = standard_structure().j
    lam = np.asarray(lam, dtype=float)[..., None, None]
    s = np.sqrt(1.0 - lam * lam)
    u = frame.copy()
    u[..., 1::2, :] = (frame[..., 1::2, :] - lam * (frame[..., 0::2, :] @ j.T)) / s
    return u


def unitary_from_cayley(frame: np.ndarray, lam: float) -> np.ndarray:
    """Unitary basis from a Cayley frame: u_{2k} = (e_{2k} - lam J e_{2k-1}) / s."""
    if lam >= 1.0 - NEAR_COMPLEX_GUARD:
        raise NearComplexError("near_complex: no unitary gauge at lambda ~ 1")
    u = unitary_gauge(np.asarray(frame, dtype=float), lam)
    dev = _unitary_gram_dev(u)
    if dev > 1e-10:
        raise ValueError(f"input is not a Cayley frame: unitarity deviation {dev:.3e}")
    return u


def omega_xi(plane: OrientedPlane4) -> OmegaXi:
    """Adapted volume-form phase of a totally real plane.

    alpha is fixed by Omega_alpha(u1, .., u4) = 1 for a canonical unitary
    basis; the value of Omega_alpha on the plane itself is
    sin(theta1) sin(theta2).  Planes with a complex factor are rejected.
    """
    rep = canonical_form(plane)
    if rep.degenerate_factors[0] or rep.degenerate_factors[1]:
        raise PartiallyComplexError("omega_xi needs a totally real plane")
    det = omega0_values(rep.unitary_basis[None])[0]
    alpha = float(-np.angle(det))
    value = float(np.sin(rep.theta1) * np.sin(rep.theta2))
    return OmegaXi(alpha=alpha, value=value)


def calibration_value(plane: OrientedPlane4, alpha: float) -> float:
    """Phi_alpha evaluated on the plane via the closed form.

    For totally real planes this equals
    cos(alpha - alpha_xi) sin(theta1) sin(theta2) + cos(theta1) cos(theta2).
    """
    return float(phi_values(plane.frame[None], alpha)[0])


def random_unitary_basis(rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary basis of C^4, returned as real row vectors."""
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return realify(q.T)


def batch_kahler_cosines(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (cos(theta1), cos(theta2)) for frames of shape (n, 4, 8).

    Self-dual split of the restricted Kaehler form (module docstring); the
    anti-self-dual norm |u - v| is the Cayley defect cos(theta1) -
    cos(theta2) itself, so a tiny angle gap is resolved to full precision.
    """
    a = restrict_matrix(standard_structure().omega_mat, frames)
    u = a[..., 0, 1:]                              # (A01, A02, A03)
    v = a[..., [2, 3, 1], [3, 1, 2]]               # (A23, A31, A12)
    sd = np.linalg.norm(u + v, axis=-1)
    asd = np.linalg.norm(u - v, axis=-1)
    return 0.5 * (sd + asd), 0.5 * (sd - asd)
