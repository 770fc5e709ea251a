import tracemalloc
from itertools import permutations

import numpy as np
import pytest

from cayley4 import hermitian
from cayley4.hermitian import (
    _dense_tensor,
    _omega0_parts,
    _values_and_gradients,
    cayley_calibration,
    comass,
    comass_detail,
    complexify,
    haar_frames,
    omega0_values,
    phi_values,
    realify,
    standard_structure,
)
from cayley4.multilinear import (
    DIM,
    Blade4,
    KForm,
    _sort_sign,
    evaluate,
    evaluate_frames,
    index_tuples,
    interior_product,
    wedge,
)


def test_complex_structure_squares_to_minus_one():
    st = standard_structure()
    assert np.allclose(st.j @ st.j, -np.eye(8))
    # omega(X, Y) = g(JX, Y) with the Euclidean metric
    x = np.zeros(8)
    x[0] = 1.0
    y = np.zeros(8)
    y[1] = 1.0
    assert st.omega_mat[0, 1] == 1.0
    assert float(x @ st.omega_mat @ y) == 1.0


def test_complexify_round_trip():
    rng = np.random.default_rng(0)
    v = rng.standard_normal((5, 8))
    assert np.allclose(realify(complexify(v)), v)
    # J acts as multiplication by i
    st = standard_structure()
    assert np.allclose(complexify((st.j @ v.T).T), 1j * complexify(v))


def test_volume_normalizations_exact():
    # rebuild omega from its matrix to stay independent of the cached path
    from cayley4.multilinear import matrix_to_form

    st = standard_structure()
    omega = matrix_to_form(st.omega_mat)
    w2 = wedge(omega, omega)
    w4 = wedge(w2, w2)
    # omega^4 = 24 vol: the single top coefficient is exactly 4!
    assert w4.coeffs[0] == 24.0
    # (1/16) Omega ^ conj(Omega) = vol: the real part of the product is
    # re ^ re + im ^ im since 4-forms commute
    re, im = _omega0_parts()
    total = wedge(re, re).coeffs[0] + wedge(im, im).coeffs[0]
    assert total == 16.0


def test_fast_evaluators_match_exterior_algebra():
    rng = np.random.default_rng(1)
    frames = haar_frames(rng, 40)
    alphas = np.linspace(0, 2 * np.pi, 7, endpoint=False)
    phi = phi_values(frames, alphas)
    for k, alpha in enumerate(alphas):
        cal = cayley_calibration(alpha)
        for n in range(frames.shape[0]):
            slow = evaluate(cal, Blade4(frames[n]))
            assert abs(phi[k, n] - slow) < 1e-12


def test_phi_on_reference_planes():
    st = standard_structure()
    real_axes = realify(np.eye(4, dtype=complex))
    complex_plane = np.zeros((4, 8))
    complex_plane[0, 0] = 1.0
    complex_plane[1, 1] = 1.0
    complex_plane[2, 2] = 1.0
    complex_plane[3, 3] = 1.0
    alphas = np.array([0.0, np.pi / 2, np.pi])
    phi_real = phi_values(real_axes[None], alphas)[:, 0]
    assert np.allclose(phi_real, [1.0, 0.0, -1.0], atol=1e-14)
    phi_cx = phi_values(complex_plane[None], alphas)[:, 0]
    assert np.allclose(phi_cx, [1.0, 1.0, 1.0], atol=1e-14)


def test_calibration_bound_on_haar_sample():
    rng = np.random.default_rng(2)
    frames = haar_frames(rng, 20000)
    alphas = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    phi = phi_values(frames, alphas)
    assert np.max(phi) <= 1.0 + 1e-9


def test_haar_frames_orthonormal():
    rng = np.random.default_rng(3)
    frames = haar_frames(rng, 100)
    gram = np.einsum("nik,njk->nij", frames, frames)
    assert np.max(np.abs(gram - np.eye(4))) < 1e-12


def _lapack_haar_frames(rng, n):
    """Reference: LAPACK's QR of the same Gaussian draw, R's diagonal made > 0."""
    q, r = np.linalg.qr(rng.standard_normal((n, 8, 4)))
    q = q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[:, None, :]
    return np.swapaxes(q, -1, -2)


@pytest.mark.parametrize("n", [1, 100_000])
def test_haar_frames_match_lapack_qr(n):
    frames = haar_frames(np.random.default_rng(31), n)
    assert frames.shape == (n, 4, 8)
    assert np.max(np.abs(frames - _lapack_haar_frames(np.random.default_rng(31), n))) <= 1e-13
    gram = frames @ np.swapaxes(frames, -1, -2)
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-14


def test_haar_frames_memory_is_bounded():
    # the frames are 24.4 MiB; each block adds its own draw and copies, 1 MiB each
    rng = np.random.default_rng(32)
    tracemalloc.start()
    try:
        haar_frames(rng, 10**5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 2**20


@pytest.mark.parametrize("n", [1, 4096, 4097])
def test_haar_blocks_concatenate_to_haar_frames(n):
    blocks = list(hermitian._haar_blocks(np.random.default_rng(34), n))
    assert [len(b) for b in blocks] == [min(4096, n - s) for s in range(0, n, 4096)]
    frames = haar_frames(np.random.default_rng(34), n)
    assert np.array_equal(np.concatenate(blocks), frames)


def test_omega0_values_match_determinant():
    rng = np.random.default_rng(33)
    stack = haar_frames(rng, 6).reshape(2, 3, 4, 8)
    lagrangian = realify(np.eye(4, dtype=complex))
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    special = np.array([np.eye(8)[:4], lagrangian, realify(q.T)])   # complex, Lagrangian x2
    for frames in (stack, special, haar_frames(rng, 10_000)):
        values = omega0_values(frames)
        assert values.shape == frames.shape[:-2]
        ref = np.linalg.det(complexify(frames))
        assert np.max(np.abs(values - ref)) <= 1e-14
    assert np.abs(omega0_values(special)) == pytest.approx([0.0, 1.0, 1.0], abs=1e-15)


def test_comass_of_wirtinger_square_is_one():
    # omega^2/2 has comass 1, attained on complex planes
    from cayley4.hermitian import _wirtinger_form

    value = comass(_wirtinger_form(), n_samples=40, refine_steps=200, seed=0)
    assert abs(value - 1.0) < 1e-6


def test_comass_of_cayley_calibration_is_one():
    value = comass(cayley_calibration(0.7), n_samples=40,
                   refine_steps=300, seed=1)
    assert abs(value - 1.0) < 1e-6


def test_comass_refinement_success_rate():
    detail = comass_detail(cayley_calibration(0.0), n_samples=50,
                           refine_steps=400, seed=2)
    finals = np.asarray(detail["final_values"])
    assert np.mean(finals >= 1.0 - 1e-6) >= 0.95
    assert detail["value"] <= 1.0 + 1e-9


def test_comass_starts_stop_once_no_gain_above_rounding_is_left(monkeypatch):
    calls = []

    def counted(t, frames):
        calls.append(len(frames))
        return _values_and_gradients(t, frames)

    monkeypatch.setattr(hermitian, "_values_and_gradients", counted)
    detail = comass_detail(cayley_calibration(0.5), n_samples=50,
                           refine_steps=400, seed=2)
    assert len(calls) <= 100
    assert abs(detail["value"] - 1.0) <= 1e-14
    # the maximum on a generic form is kept to rounding level
    generic = comass_detail(_generic_form(8), n_samples=12, refine_steps=150, seed=3)
    assert abs(generic["value"] - 6.107485162871404) <= 1e-13


def test_comass_zero_form():
    assert comass(KForm(4, np.zeros(70)), n_samples=5, refine_steps=10) == 0.0


def _generic_form(seed):
    return KForm(4, np.random.default_rng(seed).standard_normal(70))


def test_dense_tensor_values_match_minors():
    form = _generic_form(3)
    frames = haar_frames(np.random.default_rng(4), 200)
    values, _ = _values_and_gradients(_dense_tensor(form), frames)
    assert np.max(np.abs(values - evaluate_frames(form, frames))) <= 1e-13


def _dense_tensor_by_contractions(form):
    """Reference tensor: one triple contraction per increasing (i, j, k),
    spread over the orderings of (i, j, k) with their signs."""
    e = np.eye(DIM)
    t = np.zeros((DIM,) * 4)
    for i, j, k in index_tuples(3):
        row = interior_product(interior_product(interior_product(form, e[i]), e[j]), e[k])
        for perm in permutations((i, j, k)):
            t[perm] = _sort_sign(perm) * row.coeffs
    return t.reshape(DIM * DIM, -1)


@pytest.mark.parametrize("form", [cayley_calibration(a) for a in (0.0, 0.5, 1.234, 3.0)]
                         + [_generic_form(9)], ids=["phi-0", "phi-0.5", "phi-1.234", "phi-3",
                                                    "random"])
def test_dense_tensor_matches_the_contraction_construction(form):
    assert np.array_equal(_dense_tensor(form), _dense_tensor_by_contractions(form))


def test_dense_tensor_gradients_match_central_differences():
    form = _generic_form(6)
    t = _dense_tensor(form)
    h = 1e-3
    for frame in haar_frames(np.random.default_rng(7), 3):
        _, grads = _values_and_gradients(t, frame[None])
        fd = np.empty((4, 8))
        for a in range(4):
            for i in range(8):
                step = np.zeros((4, 8))
                step[a, i] = h
                fd[a, i] = (evaluate_frames(form, frame + step)
                            - evaluate_frames(form, frame - step)) / (2 * h)
        # the form is linear in each entry, so only rounding separates them
        assert np.max(np.abs(grads[0] - fd)) <= 1e-9


def test_comass_detail_on_a_generic_form():
    form = _generic_form(8)
    detail = comass_detail(form, n_samples=12, refine_steps=150, seed=3)
    assert np.all(detail["final_values"] >= detail["start_values"])
    assert detail["value"] == np.max(detail["final_values"])
    assert detail["value"] > np.max(detail["start_values"])
    again = comass_detail(form, n_samples=12, refine_steps=150, seed=3)
    for key in ("final_values", "best_frame"):
        np.testing.assert_array_equal(again[key], detail[key])
    assert again["value"] == detail["value"]
    still = comass_detail(form, n_samples=12, refine_steps=0, seed=3)
    np.testing.assert_array_equal(still["final_values"], still["start_values"])
    starts = haar_frames(np.random.default_rng(3), 12)
    np.testing.assert_array_equal(still["best_frame"],
                                  starts[np.argmax(still["start_values"])])


def test_calibrated_plane_is_cayley_with_matching_phase():
    # Phi_alpha(xi) = 1 forces xi Cayley; check on constructed maximizers
    from cayley4.planes import build_plane, is_cayley, omega_xi, random_unitary_basis

    rng = np.random.default_rng(4)
    for _ in range(5):
        u = random_unitary_basis(rng)
        theta = rng.uniform(0.3, 1.2)
        plane = build_plane(u, theta, theta)
        ox = omega_xi(plane)
        val = phi_values(plane.frame[None], np.array([ox.alpha]))[0, 0]
        assert abs(val - 1.0) < 1e-12
        ok, lam = is_cayley(plane)
        assert ok and abs(lam - np.cos(theta)) < 1e-12
