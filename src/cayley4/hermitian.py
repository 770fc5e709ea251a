"""Standard Hermitian structure on R^8 and the associated calibrations.

The complex structure J acts on the coordinate order (x1, y1, ..., x4, y4)
by J x_k = y_k, the metric g is the Euclidean one, and the Kaehler form is
omega(X, Y) = g(JX, Y).  The reference complex volume form is

    Omega_0 = dz1 ^ dz2 ^ dz3 ^ dz4,   z_k = x_k + i y_k,

stored as a (real part, imaginary part) pair of real 4-forms.  The phase
family is Omega_alpha = e^{i alpha} Omega_0, and the degree-4 calibrations
considered here are

    Phi_alpha = Re(Omega_alpha) + omega^2 / 2.

Normalization sanity: omega^4 / 4! equals the volume form, which also
equals (i/2)^4 Omega ^ conj(Omega); both are checked in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

import numpy as np

from .multilinear import (
    DIM,
    KForm,
    _sort_sign,
    evaluate_frames,
    index_tuples,
    interior_product,
    pfaffian4,
    restrict_matrix,
    wedge,
)

__all__ = [
    "HermitianStructure",
    "standard_structure",
    "cayley_calibration",
    "complexify",
    "realify",
    "omega0_values",
    "wirtinger_values",
    "phi_values",
    "comass",
    "comass_detail",
    "haar_frames",
]


def _standard_j() -> np.ndarray:
    j = np.zeros((DIM, DIM))
    for k in range(4):
        j[2 * k + 1, 2 * k] = 1.0
        j[2 * k, 2 * k + 1] = -1.0
    return j


@dataclass(frozen=True)
class HermitianStructure:
    """The flat model (R^8, g = id, J, omega)."""

    j: np.ndarray
    omega: KForm
    omega_mat: np.ndarray

    def __post_init__(self):
        dev = float(np.linalg.norm(self.j @ self.j + np.eye(DIM)))
        if dev > 1e-14:
            raise ValueError(f"J^2 deviates from -id by {dev:.3e}")


@lru_cache(maxsize=1)
def standard_structure() -> HermitianStructure:
    j = _standard_j()
    coeffs_pairs = [(2 * k, 2 * k + 1) for k in range(4)]
    omega = KForm.zero(2)
    for pair in coeffs_pairs:
        omega = omega + KForm.basis(pair)
    # omega(e_a, e_b) = g(J e_a, e_b) = J[b, a]
    return HermitianStructure(j=j, omega=omega, omega_mat=j.T.copy())


def complexify(vectors: np.ndarray) -> np.ndarray:
    """(..., 8) real -> (..., 4) complex, z_k = v[2k] + i v[2k+1]."""
    v = np.asarray(vectors, dtype=float)
    return v[..., 0::2] + 1j * v[..., 1::2]


def realify(zvecs: np.ndarray) -> np.ndarray:
    """(..., 4) complex -> (..., 8) real, inverse of complexify."""
    z = np.asarray(zvecs, dtype=complex)
    out = np.empty(z.shape[:-1] + (DIM,), dtype=float)
    out[..., 0::2] = z.real
    out[..., 1::2] = z.imag
    return out


@lru_cache(maxsize=1)
def _omega0_parts() -> tuple[KForm, KForm]:
    """Real and imaginary parts of dz1^dz2^dz3^dz4 as real 4-forms."""
    re = KForm(0, np.array([1.0]))
    im = KForm.zero(0)
    for k in range(4):
        a = KForm.basis((2 * k,))
        b = KForm.basis((2 * k + 1,))
        re, im = wedge(re, a) - wedge(im, b), wedge(re, b) + wedge(im, a)
    return re, im


@lru_cache(maxsize=1)
def _wirtinger_form() -> KForm:
    omega = standard_structure().omega
    return 0.5 * wedge(omega, omega)


def cayley_calibration(alpha: float = 0.0) -> KForm:
    """Phi_alpha = Re(e^{i alpha} Omega_0) + omega^2/2; comass 1 (verified,
    not assumed)."""
    re0, im0 = _omega0_parts()
    c, s = np.cos(alpha), np.sin(alpha)
    return (c * re0 - s * im0) + _wirtinger_form()


# ---------------------------------------------------------------------------
# Fast closed-form evaluation on frames.
#
# For an orthonormal frame F with rows f_a and Z = complexify(F):
#   Omega_0(f_1 ^ .. ^ f_4) = det_C(Z)        (determinant of dz_j(f_a))
#   (omega^2/2)(f_1 ^ ..)   = Pf(omega|_F)    (Pfaffian of the restriction)
# Both identities are cross-checked against the generic 70-minor route in
# the test suite before being relied on anywhere.
# ---------------------------------------------------------------------------

# Frames per block of the component-major kernels below: 4096 frames are
# 1 MiB of doubles, so each block's vector operations stay in cache.
_BLOCK = 4096


def _component_major(block: np.ndarray) -> np.ndarray:
    """A block of frames (m, 4, 8) as x[a, i] (4, 8, m), contiguous over frames.

    A block whose frame axis is already contiguous, as in the blocks of
    _haar_blocks, is not copied."""
    x = np.moveaxis(block, 0, -1)
    return x if x.strides[-1] == x.itemsize else np.ascontiguousarray(x)


def omega0_values(frames: np.ndarray) -> np.ndarray:
    """Omega_0 evaluated on frames (..., 4, 8); complex result.

    det_C(Z) of Z = complexify(frames) by Laplace expansion along Z's first
    two rows: six products of 2x2 minors, accumulated one at a time on
    component-major blocks of frames, with no per-matrix LAPACK call.
    """
    f = np.reshape(np.asarray(frames, dtype=float), (-1, 4, DIM))
    out = np.empty(len(f), dtype=complex)
    for s in range(0, len(f), _BLOCK):
        x = _component_major(f[s:s + _BLOCK])
        z = x[:, 0::2] + 1j * x[:, 1::2]           # z[r, a] = dz_a(f_r), contiguous

        def minor(r, a, b):                        # rows r, r + 1; columns a, b
            return z[r, a] * z[r + 1, b] - z[r, b] * z[r + 1, a]

        acc = minor(0, 0, 1) * minor(2, 2, 3)
        acc -= minor(0, 0, 2) * minor(2, 1, 3)
        acc += minor(0, 0, 3) * minor(2, 1, 2)
        acc += minor(0, 1, 2) * minor(2, 0, 3)
        acc -= minor(0, 1, 3) * minor(2, 0, 2)
        acc += minor(0, 2, 3) * minor(2, 0, 1)
        out[s:s + _BLOCK] = acc
    return out.reshape(np.shape(frames)[:-2])[()]


def wirtinger_values(frames: np.ndarray) -> np.ndarray:
    """(omega^2/2) evaluated on frames (..., 4, 8)."""
    a = restrict_matrix(standard_structure().omega_mat, frames)
    return pfaffian4(a)


def phi_values(frames: np.ndarray, alphas: np.ndarray | float) -> np.ndarray:
    """Phi_alpha on frames; result shape = alphas.shape + frames.shape[:-2]."""
    p = wirtinger_values(frames)          # its (n, 4, 8) temporary is freed before phi exists
    return _phase_combination(omega0_values(frames), p, alphas)


def _phase_combination(w: np.ndarray, p: np.ndarray, alphas: np.ndarray | float) -> np.ndarray:
    """Phi_alpha from w = Omega_0 and p = (omega^2/2) on the same planes.

    Re(e^{i alpha} Omega_0) = cos(alpha) Re Omega_0 - sin(alpha) Im Omega_0 is
    accumulated in place, so no complex (alphas x frames) array is formed.
    """
    alphas = np.asarray(alphas, dtype=float)
    phi = np.multiply.outer(np.cos(alphas), w.real)
    phi -= np.multiply.outer(np.sin(alphas), w.imag)
    phi += p
    return phi


# ---------------------------------------------------------------------------
# Comass estimation: Haar sampling plus projected gradient ascent on the
# Stiefel manifold of orthonormal 4-frames (retraction by thin QR), all
# starts ascending in lockstep.  The estimate is a lower bound by
# construction.
# ---------------------------------------------------------------------------

def _qr_rows(cols: np.ndarray) -> np.ndarray:
    """Rows (n, 4, 8) of Q in the thin QR of columns (n, 8, 4), R's diagonal > 0."""
    q, r = np.linalg.qr(cols)
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    return np.swapaxes(q, -1, -2)


def _haar_blocks(rng: np.random.Generator, n: int):
    """Yield n Haar-random orthonormal 4-frames in R^8 as (m, 4, 8) blocks of
    m <= _BLOCK frames.

    Each block draws its own rng.standard_normal((m, 8, 4)); the draws
    continue one random stream, so the blocks concatenate to haar_frames(rng,
    n) bit for bit.  Row a of frame k is column a of Q in the thin QR of the
    Gaussian matrix of frame k, with R's diagonal > 0, which makes Q
    Haar-distributed (Mezzadri, Notices AMS 54, 2007).  Q comes from
    classical Gram-Schmidt with one re-orthogonalisation pass ("twice is
    enough": Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 2005), run
    in place on a component-major (8, 4, m) copy, so that every operation is
    on a contiguous vector over frames.  It agrees with LAPACK's QR to
    rounding level.  Each block is a view of that (8, 4, m) array, so the
    component-major kernels (omega0_values, batch_kahler_cosines) read it
    without a copy.
    """
    for s in range(0, n, _BLOCK):
        g = rng.standard_normal((min(_BLOCK, n - s), DIM, 4))
        w = np.transpose(g, (1, 2, 0)).copy()      # w[i, a]: entry i of column a
        for a in range(4):
            v = w[:, a]
            for _ in range(2 if a else 0):
                r = [np.einsum("in,in->n", w[:, b], v) for b in range(a)]
                for b in range(a):
                    v -= r[b] * w[:, b]
            v /= np.sqrt(np.einsum("in,in->n", v, v))
        yield np.transpose(w, (2, 1, 0))


def haar_frames(rng: np.random.Generator, n: int) -> np.ndarray:
    """n Haar-random orthonormal 4-frames in R^8, shape (n, 4, 8): the blocks
    of _haar_blocks(rng, n) put together, in the same column layout."""
    cols = np.empty((n, DIM, 4))
    s = 0
    for block in _haar_blocks(rng, n):
        cols[s:s + len(block)] = np.swapaxes(block, -1, -2)
        s += len(block)
    return np.swapaxes(cols, -1, -2)


@lru_cache(maxsize=1)
def _triple_slots() -> tuple[np.ndarray, np.ndarray]:
    """Flat positions in a dense (8, 8, 8) tensor of the 6 orderings of each
    of the 56 increasing index triples, shape (56, 6), and the orderings'
    signs (6,)."""
    perms = list(permutations(range(3)))
    idx = np.asarray(index_tuples(3))[:, perms]            # (56, 6, 3)
    slots = np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)), (DIM,) * 3)
    return slots, np.array([_sort_sign(p) for p in perms], dtype=float)


def _dense_tensor(form: KForm) -> np.ndarray:
    """T[i, j, k, l] = form(e_i, e_j, e_k, e_l) as a (64, 64) matrix T[ij, kl].

    Row i is the 3-form i_{e_i} form, whose coefficients go to every ordering
    of their index triples, with its sign, in one indexed assignment."""
    slots, signs = _triple_slots()
    rows = np.array([interior_product(form, e).coeffs for e in np.eye(DIM)])
    t = np.zeros((DIM, DIM ** 3))
    t[:, slots] = rows[:, :, None] * signs
    return t.reshape(DIM * DIM, -1)


def _values_and_gradients(t: np.ndarray, frames: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """form(x0 ^ .. ^ x3) (n,) and its gradients in the rows (n, 4, 8) from
    t = _dense_tensor(form).  Row a's gradient is the form with slot a left
    free; two stages, S01 = (x0 (x) x1) T and S23 = T (x2 (x) x3), give all
    four by batched mat-vecs."""
    n = len(frames)
    x0, x1, x2, x3 = (frames[:, a] for a in range(4))
    s01 = ((x0[:, :, None] * x1[:, None, :]).reshape(n, -1) @ t).reshape(n, DIM, DIM)
    s23 = ((x2[:, :, None] * x3[:, None, :]).reshape(n, -1) @ t.T).reshape(n, DIM, DIM)
    grads = np.empty_like(frames)
    grads[:, 0] = (s23 @ x1[:, :, None])[..., 0]
    grads[:, 1] = (x0[:, None, :] @ s23)[:, 0]
    grads[:, 2] = (s01 @ x3[:, :, None])[..., 0]
    grads[:, 3] = (x2[:, None, :] @ s01)[:, 0]
    return np.einsum("ni,ni->n", grads[:, 0], x0), grads


def comass_detail(form: KForm, n_samples: int = 100, refine_steps: int = 400,
                  seed: int = 0) -> dict:
    """Per-sample ascent results backing the comass estimate.  Each start
    keeps its own step size tau.  A start stops once its first-order
    predicted gain tau ||rg||^2 (rg: the Riemannian gradient) is at most
    eps |f|, where any ascent could only be rounding noise; the test
    ||rg|| >= 1e-13 and a cap of 40 halvings without ascent per step stay
    as backstops.  The starts still ascending step together, as one batch."""
    rng = np.random.default_rng(seed)
    starts = haar_frames(rng, n_samples)
    start_vals = evaluate_frames(form, starts)
    t = _dense_tensor(form)
    x, f, grad = starts.copy(), start_vals.copy(), _values_and_gradients(t, starts)[1]
    tau = np.full(n_samples, 0.25)
    eps = np.finfo(float).eps
    live = np.arange(n_samples)
    for _ in range(refine_steps):
        xs, g = x[live], grad[live]
        sym = 0.5 * (xs @ np.swapaxes(g, -1, -2) + g @ np.swapaxes(xs, -1, -2))
        rg = g - sym @ xs                          # tangent projection on the Stiefel
        rn2 = np.einsum("nab,nab->n", rg, rg)
        moving = (np.sqrt(rn2) >= 1e-13) & (tau[live] * rn2 > eps * np.abs(f[live]))
        live, k, xs, rg, rn2 = live[moving], live[moving], xs[moving], rg[moving], rn2[moving]
        for _ in range(40):
            if not k.size:
                break
            y = _qr_rows(np.swapaxes(xs + tau[k, None, None] * rg, -1, -2))
            fy, gy = _values_and_gradients(t, y)
            up = fy > f[k]
            x[k[up]], f[k[up]], grad[k[up]] = y[up], fy[up], gy[up]
            tau[k] = np.where(up, np.minimum(tau[k] * 1.4, 1.0), 0.5 * tau[k])
            # a start whose halved step predicts no gain above rounding stays
            # live and is dropped by the test at the top of the next step
            retry = ~up & (tau[k] * rn2 > eps * np.abs(f[k]))
            k, xs, rg, rn2 = k[retry], xs[retry], rg[retry], rn2[retry]
        live = np.setdiff1d(live, k)               # k: 40 halvings without ascent
        if not live.size:
            break
    best = int(np.argmax(f))
    return {
        "value": float(f[best]),
        "best_frame": x[best],
        "start_values": start_vals,
        "final_values": f,
    }


def comass(form: KForm, n_samples: int = 100, refine_steps: int = 400,
           seed: int = 0) -> float:
    """Estimated comass: max of form over sampled and refined oriented planes.

    Deterministic for a fixed seed; all samples ascend in lockstep.
    """
    if n_samples <= 0:
        raise ValueError("n_samples must be positive")
    if form.degree != 4:
        raise ValueError("comass is implemented for 4-forms")
    if not np.any(form.coeffs):
        return 0.0
    return comass_detail(form, n_samples, refine_steps, seed)["value"]
