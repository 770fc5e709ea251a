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

The same split gives the canonical frame in closed form, and the angles
are atan2(sin, cos) with the sines read off the normal parts of J.

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
    _BLOCK,
    _component_major,
    complexify,
    omega0_values,
    realify,
    standard_structure,
)

__all__ = [
    "AngleReport",
    "OmegaXi",
    "NearComplexError",
    "PartiallyComplexError",
    "NotCayleyError",
    "b_operator",
    "canonical_form",
    "is_cayley",
    "cayley_basis",
    "unitary_from_cayley",
    "omega_xi",
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


def b_operator(plane: OrientedPlane4) -> np.ndarray:
    """B = (tangential projection) o J restricted to the plane, as a matrix
    in the frame basis.

    Entry (i, j) is g(J frame_j, frame_i), so that matrix-vector products
    act on frame coordinates.
    """
    return restrict_matrix(standard_structure().j, plane.frame)


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


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Self-dual and anti-self-dual parts u + v and u - v of skew forms (..., 4, 4)."""
    u = a[..., 0, 1:]                              # (A01, A02, A03)
    v = a[..., [2, 3, 1], [3, 1, 2]]               # (A23, A31, A12)
    return u + v, u - v


def _unit_structure(x: np.ndarray, part: int) -> np.ndarray:
    """Unit complex structure along the part x of _split: u = x / |x| and v = u
    (part 0, self-dual) or v = -u (part 1, anti-self-dual).  A part at or
    below SIGMA_FLOOR takes the first axis as its direction."""
    n = np.linalg.norm(x)
    x = x / n if n > SIGMA_FLOOR else np.array([1.0, 0.0, 0.0])
    y = -x if part else x
    return np.array([[0.0, x[0], x[1], x[2]],
                     [-x[0], 0.0, y[2], -y[1]],
                     [-x[1], -y[2], 0.0, y[0]],
                     [-x[2], y[1], -y[0], 0.0]])


def _normal_gram(frame: np.ndarray) -> np.ndarray:
    """Gram matrix of the normal parts of J on a plane, J f_i minus its
    projection onto the plane.  Formed from those vectors, not as I + A^2, so
    that a small sine keeps its relative precision."""
    jf = frame @ standard_structure().j.T
    n = jf - (jf @ frame.T) @ frame
    return n @ n.T


def _canonical_rotation(a: np.ndarray, g: np.ndarray) -> np.ndarray:
    """r in SO(4) with r.T @ a @ r = c1 e^12 + c2 e^34, (c1, c2) as
    batch_kahler_cosines gives them, for a restricted Kaehler form a and the
    _normal_gram g in the same frame; r = I at a = 0.

    a = (|u + v| M+ + |u - v| M-) / 2 with unit complex structures M+ and M-
    of either duality.  They commute, so M+ M- is a symmetric involution; on
    its -1 eigenplane a = c1 M+, on its +1 eigenplane a = c2 M+.  Each plane
    gets the normalized longest column of its projector and its image under
    -M+.  The smaller part has the direction of the same part of -M g0, for
    g0 = (s2^2 - s1^2) / 2 M+ M- the traceless part of g and M the larger
    part's structure, and that part of -M g0 / sqrt(tr g) is |larger part| /
    sqrt(tr g) times as long.  Entries of a carry rounding of order eps and
    those of g of order eps sqrt(tr g), so the direction comes from g when
    the larger part is longer than sqrt(tr g): near a complex factor c1 =
    +-c2 to rounding while the sines still differ.  A direction at or below
    SIGMA_FLOOR gives the first axis.
    """
    parts = list(_split(a))
    norms = [np.linalg.norm(x) for x in parts]
    small = int(norms[1] <= norms[0])
    scale = np.sqrt(np.trace(g))
    if 0.0 < scale < norms[1 - small]:
        m_big = _unit_structure(parts[1 - small], 1 - small)
        parts[small] = _split(-m_big @ (g - 0.25 * np.trace(g) * np.eye(4)))[small] / scale
    m_plus = _unit_structure(parts[0], 0)
    q = m_plus @ _unit_structure(parts[1], 1)
    r = np.empty((4, 4))
    for k, proj in ((0, 0.5 * (np.eye(4) - q)), (2, 0.5 * (np.eye(4) + q))):
        col = proj[:, np.argmax(np.diagonal(proj))]    # |P e_i|^2 = P_ii
        r[:, k] = col / np.linalg.norm(col)
        r[:, k + 1] = -m_plus @ r[:, k]
    return r


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


def _unitary_gram_dev(u: np.ndarray) -> float:
    """Deviation of a real 4x8 row set from being a unitary C^4 basis."""
    z = complexify(u)
    return float(np.linalg.norm(z @ z.conj().T - np.eye(4)))


def canonical_form(plane: OrientedPlane4) -> AngleReport:
    """Full canonical data: angles, in-plane canonical frame, unitary basis.

    The cosines are those of batch_kahler_cosines and the sines the norms of
    the normal parts of the canonical frame, so theta = atan2(sin, cos) is
    exact at both ends.  Degenerate (complex) factors get an arbitrary
    unitary completion and a flag; rebuilding the plane from the returned
    data reproduces the input blade either way.
    """
    st = standard_structure()
    c1, c2 = (float(c[0]) for c in batch_kahler_cosines(plane.frame[None]))
    r = _canonical_rotation(_omega_restriction(plane), _normal_gram(plane.frame))
    p = r.T @ plane.frame                          # canonical tangent vectors
    w2 = p[1] - c1 * (st.j @ p[0])                 # sin(theta1) u2
    w4 = p[3] - c2 * (st.j @ p[2])                 # sin(theta2) u4
    s1, s2 = float(np.linalg.norm(w2)), float(np.linalg.norm(w4))
    t1, t2 = float(np.arctan2(s1, c1)), float(np.arctan2(s2, c2))

    deg1 = bool(np.sin(t1) <= DEGENERATE_SIN)
    deg2 = bool(np.sin(t2) <= DEGENERATE_SIN)

    u1, u3 = p[0], p[2]
    u2 = None if deg1 else w2 / s1
    u4 = None if deg2 else w4 / s2
    if deg1 or deg2:
        known = [complexify(v) for v in (u1, u2, u3, u4) if v is not None]
        filled = _complete_orthonormal(known, np.eye(4, dtype=complex))
        extras = [realify(z) for z in filled[len(known):]]
        u2 = extras.pop(0) if deg1 else u2
        u4 = extras.pop(0) if deg2 else u4

    u = np.vstack([u1, u2, u3, u4])
    dev = _unitary_gram_dev(u)
    if dev > 1e-12:
        # tiny sin(theta) amplifies rounding in the u2/u4 quotients; a
        # hermitian re-orthonormalization costs O(dev) which the rebuild
        # multiplies back down by sin(theta) if the plane's own u1, u3 go
        # first; every row is kept, as near complex planes leave residuals
        # below the completion threshold
        order = [0, 2, 1, 3]                       # its own inverse
        u = realify(_complete_orthonormal([], complexify(u[order]), min_norm=0.0))[order]
        dev = _unitary_gram_dev(u)
    if dev > 1e-9:
        raise RuntimeError(f"canonical basis failed unitarity check: {dev:.3e}")

    return AngleReport(
        theta1=t1,
        theta2=t2,
        classification=_classify(t1, t2),
        lam=(float(np.clip(0.5 * (c1 + c2), 0.0, 1.0))
             if abs(t1 - t2) <= CAYLEY_TOL else None),
        unitary_basis=u,
        canonical_tangent_frame=p,
        degenerate_factors=(deg1, deg2),
        degenerate_spectrum=bool(abs(c1 - abs(c2)) <= 1e-9),
    )


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
    b = b_operator(plane)
    cross = float(np.linalg.norm(b @ b + lam * lam * np.eye(4)))
    if cross > max(100 * CAYLEY_TOL, 1e-8):
        raise RuntimeError(
            f"self-dual restriction but B^2 + lambda^2 id = {cross:.3e}; "
            "inconsistent plane data")
    return True, lam


def cayley_basis(plane: OrientedPlane4) -> np.ndarray:
    """Frame (e1, j e1, e3, j e3) adapted to a Cayley plane, j = B / lambda.

    This is the canonical frame of the self-dual split (_canonical_rotation),
    a deterministic function of the plane's frame.  For lambda = 0, where the
    restricted Kaehler form vanishes to rounding, the rotation is the
    identity and the input frame comes back unchanged.  Non-Cayley planes
    are rejected.
    """
    ok, _ = is_cayley(plane)
    if not ok:
        raise NotCayleyError("cayley_basis needs a Cayley plane")
    r = _canonical_rotation(_omega_restriction(plane), _normal_gram(plane.frame))
    return r.T @ plane.frame


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


def random_unitary_basis(rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary basis of C^4, returned as real row vectors."""
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return realify(q.T)


def _norm3(d) -> np.ndarray:
    """|d| for the three components d[0], d[1], d[2] of a vector field;
    equal to np.linalg.norm over a last axis of length 3, bit for bit."""
    return np.sqrt(d[0] * d[0] + d[1] * d[1] + d[2] * d[2])


def _split_norms(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """|u + v| and |u - v| of _split on a block of frames (m, 4, 8), without
    forming the restricted forms: p[a, b] = sum_k x[a, 2k] x[b, 2k+1] over
    contiguous vectors of m frames, and omega(f_a, f_b) = p[a, b] - p[b, a].
    """
    x = _component_major(block)
    p = np.einsum("akm,bkm->abm", x[:, 0::2], x[:, 1::2])
    u = (p[0, 1] - p[1, 0], p[0, 2] - p[2, 0], p[0, 3] - p[3, 0])
    v = (p[2, 3] - p[3, 2], p[3, 1] - p[1, 3], p[1, 2] - p[2, 1])
    return _norm3([a + b for a, b in zip(u, v)]), _norm3([a - b for a, b in zip(u, v)])


def batch_kahler_cosines(frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized (cos(theta1), cos(theta2)) for frames of shape (..., 4, 8).

    Self-dual split of the restricted Kaehler form (module docstring); the
    anti-self-dual norm |u - v| is the Cayley defect cos(theta1) -
    cos(theta2) itself, so a tiny angle gap is resolved to full precision.
    The frames are taken in blocks of _BLOCK, as omega0_values takes them,
    and every block by the one kernel of _split_norms, so a frame's cosines
    do not depend on the stack it arrives in.
    """
    frames = np.asarray(frames, dtype=float)
    f = frames.reshape(-1, 4, DIM)
    sd, asd = np.empty(len(f)), np.empty(len(f))
    for s in range(0, len(f), _BLOCK):
        sd[s:s + _BLOCK], asd[s:s + _BLOCK] = _split_norms(f[s:s + _BLOCK])
    lead = frames.shape[:-2]
    return (0.5 * (sd + asd)).reshape(lead)[()], (0.5 * (sd - asd)).reshape(lead)[()]
