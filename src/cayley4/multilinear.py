"""Exterior algebra over R^8 with a fixed index convention.

Conventions used throughout the package:

* Coordinates on R^8 are ordered (x1, y1, x2, y2, x3, y3, x4, y4);
  basis vectors are e_0..e_7 and e^i denotes the dual covector.
* Wedge products follow the determinant convention, without
  combinatorial prefactors:

      (e^1 ^ e^2)(e_1, e_2) = 1,
      e^I(v_1, ..., v_k) = det( v_a[i_b] )  for I = (i_1 < ... < i_k).

* A k-form stores one float per strictly increasing k-tuple of
  indices, in lexicographic order; antisymmetry is structural, never
  stored redundantly.
* An oriented 4-plane is represented by an ordered orthonormal frame;
  the orientation is the order of the rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from typing import Iterable

import numpy as np

DIM = 8

# Orthonormality tolerance for plane frames (Gram deviation, Frobenius).
ORTHONORMAL_TOL = 1e-12

# Generic algebraic identity tolerance used by the test harness.
ALGEBRA_TOL = 1e-10


@lru_cache(maxsize=None)
def index_tuples(k: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing k-tuples from range(8), lexicographic."""
    return tuple(combinations(range(DIM), k))


@lru_cache(maxsize=None)
def index_rank(k: int) -> dict[tuple[int, ...], int]:
    return {t: i for i, t in enumerate(index_tuples(k))}


def _sort_sign(seq: Iterable[int]) -> int:
    s = tuple(seq)
    inv = sum(1 for a in range(len(s)) for b in range(a + 1, len(s)) if s[a] > s[b])
    return -1 if inv % 2 else 1


@lru_cache(maxsize=None)
def _wedge_table(k: int, l: int):
    """Index/sign arrays realizing the shuffle sum for a (k,l) wedge."""
    src_a, src_b, dst, sgn = [], [], [], []
    rank = index_rank(k + l)
    for ia, I in enumerate(index_tuples(k)):
        set_i = set(I)
        for ib, J in enumerate(index_tuples(l)):
            if set_i & set(J):
                continue
            merged = I + J
            src_a.append(ia)
            src_b.append(ib)
            dst.append(rank[tuple(sorted(merged))])
            sgn.append(_sort_sign(merged))
    return (np.asarray(src_a), np.asarray(src_b), np.asarray(dst),
            np.asarray(sgn, dtype=float))


@lru_cache(maxsize=None)
def _interior_table(k: int):
    """Triples (src_rank, dst_rank, coordinate, sign) for contraction."""
    src, dst, coord, sgn = [], [], [], []
    rank = index_rank(k - 1)
    for ia, I in enumerate(index_tuples(k)):
        for pos, i in enumerate(I):
            J = I[:pos] + I[pos + 1:]
            src.append(ia)
            dst.append(rank[J])
            coord.append(i)
            sgn.append(-1.0 if pos % 2 else 1.0)
    return (np.asarray(src), np.asarray(dst), np.asarray(coord),
            np.asarray(sgn, dtype=float))


@dataclass(frozen=True)
class KForm:
    """Alternating k-form on R^8, coefficients over increasing tuples."""

    degree: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not 0 <= self.degree <= DIM:
            raise ValueError(f"degree {self.degree} out of range")
        c = np.asarray(self.coeffs, dtype=float)
        n = len(index_tuples(self.degree))
        if c.shape != (n,):
            raise ValueError(f"degree-{self.degree} form needs {n} coefficients, "
                             f"got shape {c.shape}")
        object.__setattr__(self, "coeffs", c)

    @classmethod
    def zero(cls, degree: int) -> "KForm":
        return cls(degree, np.zeros(len(index_tuples(degree))))

    @classmethod
    def basis(cls, indices: tuple[int, ...]) -> "KForm":
        """e^{i1...ik} for an increasing index tuple."""
        k = len(indices)
        c = np.zeros(len(index_tuples(k)))
        c[index_rank(k)[tuple(indices)]] = 1.0
        return cls(k, c)

    def __add__(self, other: "KForm") -> "KForm":
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degree")
        return KForm(self.degree, self.coeffs + other.coeffs)

    def __sub__(self, other: "KForm") -> "KForm":
        if self.degree != other.degree:
            raise ValueError("cannot subtract forms of different degree")
        return KForm(self.degree, self.coeffs - other.coeffs)

    def __mul__(self, scale: float) -> "KForm":
        return KForm(self.degree, self.coeffs * float(scale))

    __rmul__ = __mul__


def wedge(a: KForm, b: KForm) -> KForm:
    """Graded-anticommutative wedge product; errors if the degree exceeds 8."""
    k, l = a.degree, b.degree
    if k + l > DIM:
        raise ValueError(f"wedge of degrees {k} and {l} exceeds the ambient "
                         f"dimension {DIM}")
    src_a, src_b, dst, sgn = _wedge_table(k, l)
    out = np.zeros(len(index_tuples(k + l)))
    if len(dst):
        np.add.at(out, dst, sgn * a.coeffs[src_a] * b.coeffs[src_b])
    return KForm(k + l, out)


def interior_product(form: KForm, v: np.ndarray) -> KForm:
    """Contraction i_v(form): (i_v f)(w2..wk) = f(v, w2, ..., wk)."""
    if form.degree == 0:
        raise ValueError("cannot contract a 0-form")
    src, dst, coord, sgn = _interior_table(form.degree)
    v = np.asarray(v, dtype=float)
    out = np.zeros(len(index_tuples(form.degree - 1)))
    np.add.at(out, dst, sgn * v[coord] * form.coeffs[src])
    return KForm(form.degree - 1, out)


# Column index table for the 70 row-minors of an (8, 4) matrix.
_MINOR_ROWS = np.asarray(index_tuples(4))


def _minors4(factors: np.ndarray) -> np.ndarray:
    """All 70 minors det(factors[:, I]) for batched (..., 4, 8) inputs."""
    sub = factors[..., _MINOR_ROWS]                # (..., 4, 70, 4)
    sub = np.swapaxes(sub, -3, -2)                 # (..., 70, 4, 4)
    return np.linalg.det(sub)


@dataclass(frozen=True)
class Blade4:
    """Decomposable 4-vector given by ordered factors (rows)."""

    factors: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.factors, dtype=float)
        if f.shape != (4, DIM):
            raise ValueError(f"Blade4 needs shape (4, {DIM}), got {f.shape}")
        object.__setattr__(self, "factors", f)

    def coords(self) -> np.ndarray:
        """The 70 Pluecker coordinates (4x4 minors, increasing row sets)."""
        return _minors4(self.factors)


def evaluate(form: KForm, blade: Blade4) -> float:
    """Pair a 4-form with a 4-blade: sum of coefficients times minors."""
    if form.degree != 4:
        raise ValueError("evaluate expects a 4-form")
    return float(form.coeffs @ blade.coords())


def evaluate_frames(form: KForm, frames: np.ndarray) -> np.ndarray:
    """Batched evaluate on frames of shape (..., 4, 8)."""
    if form.degree != 4:
        raise ValueError("evaluate_frames expects a 4-form")
    return _minors4(np.asarray(frames, dtype=float)) @ form.coeffs


def require_orthonormal(frames: np.ndarray) -> None:
    """Raise ValueError unless every frame (..., 4, 8) is finite with
    orthonormal rows to ORTHONORMAL_TOL (Gram deviation, Frobenius)."""
    if not np.isfinite(frames).all():
        raise ValueError("frame has non-finite entries")
    gram = frames @ np.swapaxes(frames, -1, -2)
    dev = float(np.max(np.linalg.norm(gram - np.eye(4), axis=(-2, -1))))
    if dev > ORTHONORMAL_TOL:
        raise ValueError(f"frame is not orthonormal: Gram deviation {dev:.3e} "
                         f"exceeds {ORTHONORMAL_TOL:.1e}")


@dataclass(frozen=True)
class OrientedPlane4:
    """Oriented 4-plane through the origin, as an ordered orthonormal frame.

    The frame rows must be orthonormal to ORTHONORMAL_TOL; violations are
    signalled, never silently repaired.
    """

    frame: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frame, dtype=float)
        if f.shape != (4, DIM):
            raise ValueError(f"frame must have shape (4, {DIM}), got {f.shape}")
        require_orthonormal(f)
        object.__setattr__(self, "frame", f)

    @classmethod
    def from_span(cls, vectors: np.ndarray) -> "OrientedPlane4":
        """Gram-Schmidt the rows (orientation-preserving) and wrap."""
        v = np.asarray(vectors, dtype=float)
        q, r = np.linalg.qr(v.T)
        q = q * np.sign(np.diag(r))
        return cls(q.T)

    def blade_coords(self) -> np.ndarray:
        return _minors4(self.frame)

    def reversed(self) -> "OrientedPlane4":
        """Same plane, opposite orientation (swap the first two factors)."""
        f = self.frame.copy()
        f[[0, 1]] = f[[1, 0]]
        return OrientedPlane4(f)


def blade_distance(a, b) -> float:
    """Euclidean distance between Pluecker coordinate vectors.

    Accepts oriented planes or raw coordinate vectors of length 70.
    """
    ca = a.blade_coords() if isinstance(a, OrientedPlane4) else np.asarray(a)
    cb = b.blade_coords() if isinstance(b, OrientedPlane4) else np.asarray(b)
    return float(np.linalg.norm(ca - cb))


def form_to_matrix(form: KForm) -> np.ndarray:
    """Dense antisymmetric 8x8 matrix of a 2-form, M[i, j] = form(e_i, e_j)."""
    if form.degree != 2:
        raise ValueError("form_to_matrix expects a 2-form")
    m = np.zeros((DIM, DIM))
    for r, (i, j) in enumerate(index_tuples(2)):
        m[i, j] = form.coeffs[r]
        m[j, i] = -form.coeffs[r]
    return m


def matrix_to_form(m: np.ndarray) -> KForm:
    """Inverse of form_to_matrix; the antisymmetric part of m is used."""
    m = np.asarray(m, dtype=float)
    a = 0.5 * (m - m.T)
    c = np.array([a[i, j] for (i, j) in index_tuples(2)])
    return KForm(2, c)


def restrict_matrix(m: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """Batched restriction of a dense 2-form matrix to frames (..., 4, 8)."""
    return frames @ m @ np.swapaxes(frames, -1, -2)


def hodge_star_plane(a: np.ndarray) -> np.ndarray:
    """Hodge star on 2-forms of an oriented 4-plane, in frame coordinates.

    With the frame orientation as volume, *(e^12) = e^34, *(e^13) = e^42,
    *(e^14) = e^23; the map is an involution.
    """
    a = np.asarray(a, dtype=float)
    out = np.zeros_like(a)
    pairs = (((0, 1), (2, 3), 1.0), ((0, 2), (1, 3), -1.0), ((0, 3), (1, 2), 1.0))
    for (i, j), (k, l), s in pairs:
        out[..., i, j] = s * a[..., k, l]
        out[..., j, i] = -out[..., i, j]
        out[..., k, l] = s * a[..., i, j]
        out[..., l, k] = -out[..., k, l]
    return out


def pfaffian4(a: np.ndarray) -> np.ndarray:
    """Pfaffian of a 4x4 antisymmetric matrix (batched over leading axes)."""
    a = np.asarray(a, dtype=float)
    return (a[..., 0, 1] * a[..., 2, 3]
            - a[..., 0, 2] * a[..., 1, 3]
            + a[..., 0, 3] * a[..., 1, 2])
