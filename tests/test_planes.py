"""Angle extraction, canonical frames, and the Cayley predicates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cayley4 import (
    NotCayleyError,
    PartiallyComplexError,
    batch_kahler_cosines,
    b_operator,
    blade_distance,
    build_plane,
    canonical_form,
    cayley_basis,
    haar_frames,
    is_cayley,
    normalize_angle_pair,
    omega_xi,
    realify,
    standard_structure,
)
from cayley4 import hermitian
from cayley4.hermitian import _BLOCK, phi_values, wirtinger_values
from cayley4.multilinear import OrientedPlane4, restrict_matrix
from cayley4.planes import (
    _canonical_rotation,
    _normal_gram,
    _split,
    random_unitary_basis,
    unitary_gauge,
)


def _real_axes():
    return realify(np.eye(4, dtype=complex))


def test_normalize_angle_pair_fundamental_domain():
    # both representatives of the dihedral orbit collapse to the same pair
    assert normalize_angle_pair(0.4, 1.1) == pytest.approx((0.4, 1.1))
    assert normalize_angle_pair(1.1, 0.4) == pytest.approx((0.4, 1.1))
    t1, t2 = normalize_angle_pair(np.pi - 1.1, np.pi - 0.4)
    assert (t1, t2) == pytest.approx((0.4, 1.1))
    # boundary pair theta1 + theta2 = pi is its own partner
    t1, t2 = normalize_angle_pair(1.0, np.pi - 1.0)
    assert (t1, t2) == pytest.approx((1.0, np.pi - 1.0))


@pytest.mark.parametrize("angles,expected", [
    ((0.0, 0.0), "complex"),
    ((np.pi / 2, np.pi / 2), "lagrangian"),
    ((0.7, 0.7), "cayley_totally_real"),
    ((np.pi / 6, np.pi / 3), "totally_real_non_cayley"),
    ((0.0, 0.9), "partially_complex"),
])
def test_classification_table(angles, expected):
    pl = build_plane(_real_axes(), *angles)
    rep = canonical_form(pl)
    assert rep.classification == expected
    want1, want2 = normalize_angle_pair(*angles)
    assert rep.theta1 == pytest.approx(want1, abs=1e-9)
    assert rep.theta2 == pytest.approx(want2, abs=1e-9)


def test_lambda_values_on_cayley_family():
    for theta in (0.0, 0.3, 0.7, np.pi / 2):
        pl = build_plane(_real_axes(), theta, theta)
        ok, lam = is_cayley(pl)
        assert ok
        assert lam == pytest.approx(np.cos(theta), abs=1e-12)


def test_is_cayley_rejects_unequal_angles():
    pl = build_plane(_real_axes(), np.pi / 6, np.pi / 3)
    ok, lam = is_cayley(pl)
    assert not ok and lam is None


def test_round_trip_haar_sample():
    # angles land in the fundamental domain and the rebuilt blade matches
    rng = np.random.default_rng(7)
    frames = haar_frames(rng, 200)
    for f in frames:
        pl = OrientedPlane4(f)
        rep = canonical_form(pl)
        assert 0.0 <= rep.theta1 <= rep.theta2 <= np.pi
        assert rep.theta1 + rep.theta2 <= np.pi + 1e-12
        rebuilt = build_plane(rep.unitary_basis, rep.theta1, rep.theta2)
        assert blade_distance(pl, rebuilt) < 1e-9


def test_round_trip_recovers_prescribed_angles():
    rng = np.random.default_rng(3)
    for _ in range(50):
        u = random_unitary_basis(rng)
        t1, t2 = np.sort(rng.uniform(0.1, np.pi / 2 - 0.05, size=2))
        pl = build_plane(u, t1, t2)
        rep = canonical_form(pl)
        want = normalize_angle_pair(t1, t2)
        assert rep.theta1 == pytest.approx(want[0], abs=1e-9)
        assert rep.theta2 == pytest.approx(want[1], abs=1e-9)


def test_b_operator_spectrum_and_norm():
    pl = build_plane(_real_axes(), 0.4, 1.2)
    b = b_operator(pl)
    assert np.allclose(b, -b.T, atol=1e-12)
    ev = np.sort(np.linalg.eigvals(b).imag)
    want = np.sort([-np.cos(0.4), -np.cos(1.2), np.cos(1.2), np.cos(0.4)])
    assert np.allclose(ev, want, atol=1e-10)


def test_b_squared_characterizes_cayley():
    pl = build_plane(_real_axes(), 0.7, 0.7)
    b = b_operator(pl)
    lam = np.cos(0.7)
    assert np.linalg.norm(b @ b + lam * lam * np.eye(4)) < 1e-12
    # unequal angles leave a gap that scales with cos(t1) - cos(t2)
    pl2 = build_plane(_real_axes(), 0.4, 1.2)
    b2 = b_operator(pl2)
    lam2 = 0.5 * (np.cos(0.4) + np.cos(1.2))
    assert np.linalg.norm(b2 @ b2 + lam2 * lam2 * np.eye(4)) > 1e-2


def test_cayley_basis_adapted_to_b():
    rng = np.random.default_rng(11)
    for theta in (0.3, 0.7, 1.2):
        u = random_unitary_basis(rng)
        pl = build_plane(u, theta, theta)
        cb = cayley_basis(pl)
        assert np.allclose(cb @ cb.T, np.eye(4), atol=1e-10)
        # same span, and J maps e1 -> lam e2 + normal part
        sub = OrientedPlane4.from_span(cb)
        assert blade_distance(pl, sub) < 1e-9 or blade_distance(pl.reversed(), sub) < 1e-9
        st_ = standard_structure()
        lam = np.cos(theta)
        assert (st_.j @ cb[0]) @ cb[1] == pytest.approx(lam, abs=1e-10)
        assert (st_.j @ cb[2]) @ cb[3] == pytest.approx(lam, abs=1e-10)
    # lambda = 0: every orthonormal frame is adapted, and the input comes back
    lagrangian = build_plane(random_unitary_basis(rng), np.pi / 2, np.pi / 2)
    np.testing.assert_array_equal(cayley_basis(lagrangian), lagrangian.frame)


def test_unitary_from_cayley_round_trip():
    rng = np.random.default_rng(5)
    theta = 0.9
    u = random_unitary_basis(rng)
    pl = build_plane(u, theta, theta)
    cb = cayley_basis(pl)
    ub = unitary_gauge(cb, np.cos(theta))
    rebuilt = build_plane(ub, theta, theta)
    d = min(blade_distance(pl, rebuilt), blade_distance(pl.reversed(), rebuilt))
    assert d < 1e-9


def test_cayley_basis_rejects_non_cayley():
    pl = build_plane(_real_axes(), 0.4, 1.2)
    with pytest.raises(NotCayleyError):
        cayley_basis(pl)


def test_omega_xi_rejects_complex_factor():
    pl = build_plane(_real_axes(), 0.0, 0.9)
    with pytest.raises(PartiallyComplexError):
        omega_xi(pl)


def test_omega_xi_phase_and_value():
    # over the real axes the adapted phase is zero and the value is
    # sin(t1) sin(t2); a constant-phase unitary twist shifts alpha by -4 phi
    pl = build_plane(_real_axes(), np.pi / 6, np.pi / 3)
    ox = omega_xi(pl)
    assert ox.alpha == pytest.approx(0.0, abs=1e-12)
    assert ox.value == pytest.approx(np.sin(np.pi / 6) * np.sin(np.pi / 3), abs=1e-12)

    phi = 0.2
    twisted = realify(np.exp(1j * phi) * np.eye(4, dtype=complex))
    ox2 = omega_xi(build_plane(twisted, np.pi / 6, np.pi / 3))
    assert ox2.alpha == pytest.approx(-4 * phi, abs=1e-10)
    assert ox2.value == pytest.approx(ox.value, abs=1e-12)


def test_omega_xi_maximizes_calibration():
    # Phi_alpha at alpha = alpha_xi hits cos(t1 - t2); elsewhere it is lower
    rng = np.random.default_rng(23)
    for _ in range(10):
        u = random_unitary_basis(rng)
        t1, t2 = 0.5, 0.9
        pl = build_plane(u, t1, t2)
        ox = omega_xi(pl)
        top = phi_values(pl.frame[None], ox.alpha)[0]
        assert top == pytest.approx(np.cos(t1 - t2), abs=1e-10)
        for off in (0.5, 1.5, 3.0):
            assert phi_values(pl.frame[None], ox.alpha + off)[0] < top + 1e-12


def test_anti_cayley_boundary_reverses_to_cayley():
    # theta1 + theta2 = pi: the restricted form is anti-self-dual, so the
    # orientation-reversed plane is the Cayley one
    pl = build_plane(_real_axes(), np.pi / 3, 2 * np.pi / 3)
    ok, _ = is_cayley(pl)
    assert not ok
    ok_rev, lam = is_cayley(pl.reversed())
    assert ok_rev
    assert lam == pytest.approx(0.5, abs=1e-10)
    rep = canonical_form(pl.reversed())
    assert rep.theta1 == pytest.approx(np.pi / 3, abs=1e-9)
    assert rep.theta2 == pytest.approx(np.pi / 3, abs=1e-9)


def test_batch_cosines_match_per_plane():
    rng = np.random.default_rng(17)
    frames = haar_frames(rng, 64)
    c1, c2 = batch_kahler_cosines(frames)
    for k, f in enumerate(frames):
        rep = canonical_form(OrientedPlane4(f))
        assert c1[k] == pytest.approx(np.cos(rep.theta1), abs=1e-10)
        assert c2[k] == pytest.approx(abs(np.cos(rep.theta2)), abs=1e-10) \
            or c2[k] == pytest.approx(np.cos(rep.theta2), abs=1e-10)


def _svd_cosines(frames):
    """Reference cosines: paired singular values of the restricted Kaehler
    form, the Pfaffian fixing the sign of the second."""
    a = frames @ standard_structure().omega_mat @ np.swapaxes(frames, -1, -2)
    s = np.linalg.svd(a, compute_uv=False)
    pf = a[..., 0, 1] * a[..., 2, 3] - a[..., 0, 2] * a[..., 1, 3] + a[..., 0, 3] * a[..., 1, 2]
    sig2 = 0.5 * (s[..., 2] + s[..., 3])
    return 0.5 * (s[..., 0] + s[..., 1]), np.where(pf >= 0, sig2, -sig2)


def _haar_and_special_frames():
    """10^4 Haar frames followed by six special planes."""
    rng = np.random.default_rng(23)
    u = random_unitary_basis(rng)
    special = [build_plane(u, *angles).frame for angles in (
        (0.0, 0.0),                       # complex
        (np.pi / 2, np.pi / 2),           # Lagrangian
        (0.0, 1.1),                       # partially complex
        (0.4, 2.0),                       # second cosine negative
        (np.pi / 3, 2 * np.pi / 3),       # anti-self-dual, theta1 + theta2 = pi
    )] + [np.eye(8)[::2]]                 # the restricted form is exactly 0
    return np.concatenate([haar_frames(rng, 10_000), np.array(special)])


def test_split_cosines_match_svd_reference():
    frames = _haar_and_special_frames()
    c1, c2 = batch_kahler_cosines(frames)
    r1, r2 = _svd_cosines(frames)
    assert np.max(np.abs(c1 - r1)) <= 1e-12
    assert np.max(np.abs(c2 - r2)) <= 1e-12
    assert c1[-2] == pytest.approx(0.5, abs=1e-12)
    assert c2[-2] == pytest.approx(-0.5, abs=1e-12)
    assert c1[-1] == c2[-1] == 0.0


def test_wirtinger_value_is_the_product_of_the_cosines():
    # Pf(omega|xi) = u . v = c1 c2, across the hermitian and planes layers
    frames = _haar_and_special_frames()
    c1, c2 = batch_kahler_cosines(frames)
    assert np.max(np.abs(wirtinger_values(frames) - c1 * c2)) <= 1e-14


@pytest.mark.parametrize("theta", [0.3, 0.9, 1.3])
def test_split_cosines_resolve_a_tiny_angle_gap(theta):
    gap = 1e-12
    u = random_unitary_basis(np.random.default_rng(5))
    frame = build_plane(u, theta, theta + gap).frame
    for n in (1, 256):
        c1, c2 = batch_kahler_cosines(np.repeat(frame[None], n, axis=0))
        assert np.arccos(c2) - np.arccos(c1) == pytest.approx(np.full(n, gap), rel=0.01)
        assert c1 - c2 == pytest.approx(np.full(n, np.sin(theta) * gap), rel=0.01)


def _restricted_cosines(frames):
    """The restriction route: _split of restrict_matrix, then the two norms."""
    sd, asd = _split(restrict_matrix(standard_structure().omega_mat, frames))
    sd, asd = np.linalg.norm(sd, axis=-1), np.linalg.norm(asd, axis=-1)
    return 0.5 * (sd + asd), 0.5 * (sd - asd)


def test_streamed_cosines_match_the_restriction_route():
    frames = _haar_and_special_frames()
    for n in (1, 7, 255, len(frames)):                 # each stack ends with the special planes
        c1, c2 = batch_kahler_cosines(frames[-n:])
        r1, r2 = _restricted_cosines(frames[-n:])
        assert np.max(np.abs(c1 - r1)) <= 1e-15
        assert np.max(np.abs(c2 - r2)) <= 1e-15
        assert c1[-1] == c2[-1] == 0.0                 # the restricted form is exactly 0


def test_cosine_bits_do_not_depend_on_the_stack_size():
    # each frame alone, then inside stacks on both sides of 256 frames and of
    # one _BLOCK, in C order and as a view contiguous over frames
    frames = _haar_and_special_frames()
    pool = np.concatenate([frames[-6:], frames[:4091]])    # special planes first
    alone = np.array([batch_kahler_cosines(f[None]) for f in pool])[..., 0]
    for n in (7, 255, 256, 4097):
        stack = pool[:n]
        view = np.moveaxis(np.ascontiguousarray(np.moveaxis(stack, 0, -1)), -1, 0)
        for layout in (stack, view):
            got = np.array(batch_kahler_cosines(layout)).T
            assert np.array_equal(got, alone[:n]), (n, layout.flags.c_contiguous)


@pytest.mark.parametrize("n", [4097, 2 * 4096 + 1100])
def test_cosine_bits_do_not_depend_on_layout_or_blocking(n):
    # generator blocks (views of a component-major array), the whole stack in
    # haar_frames' column layout, a C-contiguous copy and _BLOCK slices of it
    blocks = list(hermitian._haar_blocks(np.random.default_rng(42), n))
    frames = haar_frames(np.random.default_rng(42), n)
    ref = batch_kahler_cosines(frames)
    routes = {
        "generator blocks": [batch_kahler_cosines(b) for b in blocks],
        "contiguous copy": [batch_kahler_cosines(np.ascontiguousarray(frames))],
        "block slices": [batch_kahler_cosines(frames[s:s + _BLOCK])
                         for s in range(0, n, _BLOCK)],
    }
    for name, parts in routes.items():
        for k in range(2):
            assert np.array_equal(np.concatenate([p[k] for p in parts]), ref[k]), name


def test_canonical_rotation_brings_every_form_to_normal_shape():
    # r in SO(4) and r.T a r = c1 e^12 + c2 e^34 with the split cosines, also
    # on the complex, Lagrangian, anti-self-dual and zero special planes
    frames = _haar_and_special_frames()
    c1, c2 = batch_kahler_cosines(frames)
    forms = restrict_matrix(standard_structure().omega_mat, frames)
    for k, a in enumerate(forms):
        r = _canonical_rotation(a, _normal_gram(frames[k]))
        assert np.max(np.abs(r.T @ r - np.eye(4))) <= 1e-14
        assert np.linalg.det(r) > 0
        want = np.zeros((4, 4))
        want[0, 1], want[2, 3] = c1[k], c2[k]
        assert np.max(np.abs(r.T @ a @ r - (want - want.T))) <= 1e-14
    np.testing.assert_array_equal(_canonical_rotation(forms[-1], _normal_gram(frames[-1])),
                                  np.eye(4))


def test_exactly_complex_planes_are_complex():
    # theta = atan2(sin, cos) with the sine from the normal part: a cosine
    # within rounding of 1 still gives theta at rounding level, not sqrt(eps)
    rng = np.random.default_rng(0)
    for _ in range(200):
        u = random_unitary_basis(rng)
        theta = rng.uniform(0.05, np.pi - 0.05)
        for angles, want in (((0.0, 0.0), "complex"), ((0.0, theta), "partially_complex")):
            pl = build_plane(u, *angles)
            rep = canonical_form(pl)
            assert rep.classification == want
            assert rep.degenerate_factors == (True, want == "complex")
            rebuilt = build_plane(rep.unitary_basis, rep.theta1, rep.theta2)
            assert blade_distance(pl, rebuilt) <= 1e-12
    rep = canonical_form(build_plane(u, np.pi / 2, np.pi / 2))
    assert rep.classification == "lagrangian"


@pytest.mark.parametrize("k", range(3, 10))
def test_tiny_and_near_anti_complex_angles_rebuild(k):
    # small sines amplify rounding in u2 = w2 / sin(theta1), and near a
    # complex factor c1 = +-c2 to rounding, so the normal parts must split
    # the plane; each plane is checked in its built frame, which is already
    # canonical, and in a random oriented frame of the same plane.  From
    # k = 8 on, sin(delta) is at DEGENERATE_SIN and a factor is completed
    # as a complex one, which the rebuild sees at first order in delta
    rng = np.random.default_rng(k)
    delta = 10.0 ** -k
    rebuild_tol = 1e-13 if k <= 7 else 1e-7
    for _ in range(20):
        u = random_unitary_basis(rng)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        q[:, 0] *= np.sign(np.linalg.det(q))
        for angles in ((delta, delta), (delta, 2 * delta), (0.0, delta), (0.0, np.pi - delta),
                       (delta, np.pi - 2 * delta)):
            pl = build_plane(u, *angles)
            for plane in (pl, OrientedPlane4(q.T @ pl.frame)):
                rep = canonical_form(plane)
                assert rep.theta1 == pytest.approx(angles[0], abs=1e-13)
                assert rep.theta2 == pytest.approx(angles[1], abs=1e-13)
                rebuilt = build_plane(rep.unitary_basis, rep.theta1, rep.theta2)
                assert blade_distance(plane, rebuilt) <= rebuild_tol


def test_lambda_continuity_near_complex():
    # lambda stays close to 1 for small angles instead of jumping
    for eps in (1e-3, 1e-5):
        pl = build_plane(_real_axes(), eps, eps)
        ok, lam = is_cayley(pl)
        assert ok
        assert abs(lam - 1.0) < eps * eps


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_angles_always_in_fundamental_domain(seed):
    rng = np.random.default_rng(seed)
    f = haar_frames(rng, 1)[0]
    rep = canonical_form(OrientedPlane4(f))
    assert -1e-12 <= rep.theta1 <= rep.theta2 <= np.pi + 1e-12
    assert rep.theta1 + rep.theta2 <= np.pi + 1e-10
    rebuilt = build_plane(rep.unitary_basis, rep.theta1, rep.theta2)
    assert blade_distance(OrientedPlane4(f), rebuilt) < 1e-8
