import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cayley4.multilinear import (
    Blade4,
    KForm,
    OrientedPlane4,
    blade_distance,
    evaluate,
    form_to_matrix,
    hodge_star_plane,
    index_tuples,
    interior_product,
    matrix_to_form,
    pfaffian4,
    wedge,
)

RNG = np.random.default_rng(20240811)


def random_form(k, rng=RNG):
    return KForm(k, rng.standard_normal(len(index_tuples(k))))


def test_basis_wedge_orientation():
    # e1 ^ e2 evaluated on (e1, e2) is 1 in the determinant convention
    e = np.eye(8)
    a = KForm.basis((0,))
    b = KForm.basis((1,))
    ab = wedge(a, b)
    idx = index_tuples(2).index((0, 1))
    assert ab.coeffs[idx] == 1.0
    # and the full 8-form on the standard basis is the determinant
    top = KForm.basis(tuple(range(8)))
    assert top.degree == 8


@given(st.integers(0, 3), st.integers(0, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_wedge_graded_anticommutative(k, l, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = random_form(k, rng)
    b = random_form(l, rng)
    ab = wedge(a, b)
    ba = wedge(b, a)
    sign = (-1.0) ** (k * l)
    assert np.allclose(ab.coeffs, sign * ba.coeffs, atol=1e-12)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_wedge_associative(data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = random_form(1, rng)
    b = random_form(2, rng)
    c = random_form(1, rng)
    left = wedge(wedge(a, b), c)
    right = wedge(a, wedge(b, c))
    assert np.allclose(left.coeffs, right.coeffs, atol=1e-12)


def test_wedge_beyond_top_degree_rejected():
    a = random_form(4)
    b = random_form(8)
    with pytest.raises(ValueError):
        wedge(a, b)


def test_interior_product_adjoint_to_wedge():
    # <i_v a, b> = <a, v ^ b> for a 2-form a, 1-form b
    rng = np.random.default_rng(7)
    v = rng.standard_normal(8)
    a = random_form(2, rng)
    b = random_form(1, rng)
    vform = KForm(1, v)
    lhs = float(interior_product(a, v).coeffs @ b.coeffs)
    rhs = float(a.coeffs @ wedge(vform, b).coeffs)
    assert abs(lhs - rhs) < 1e-12


def test_interior_product_nilpotent():
    rng = np.random.default_rng(8)
    v = rng.standard_normal(8)
    a = random_form(3, rng)
    twice = interior_product(interior_product(a, v), v)
    assert np.max(np.abs(twice.coeffs)) < 1e-12


def test_blade_evaluation_matches_minor():
    rng = np.random.default_rng(9)
    factors = rng.standard_normal((4, 8))
    blade = Blade4(factors)
    # the (0,1,2,3) coefficient is the determinant of those columns
    coords = blade.coords()
    idx = index_tuples(4).index((0, 1, 2, 3))
    assert np.isclose(coords[idx], np.linalg.det(factors[:, :4]))
    form = KForm(4, coords)
    # the blade pairs with its own coordinate form to its Gram determinant
    gram = factors @ factors.T
    assert np.isclose(evaluate(form, blade), np.linalg.det(gram))


def test_oriented_plane_rejects_non_orthonormal():
    rng = np.random.default_rng(10)
    with pytest.raises(ValueError):
        OrientedPlane4(rng.standard_normal((4, 8)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_oriented_plane_rejects_non_finite_frames(bad):
    # a NaN Gram deviation compares False against the tolerance, so the
    # check must reject non-finite entries explicitly
    frame = np.eye(4, 8)
    frame[1, 5] = bad
    with pytest.raises(ValueError):
        OrientedPlane4(frame)


def test_from_span_preserves_span_and_orientation():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((4, 8))
    plane = OrientedPlane4.from_span(m)
    assert np.allclose(plane.frame @ plane.frame.T, np.eye(4), atol=1e-12)
    # same span: blades proportional with positive factor
    d = blade_distance(plane.blade_coords(),
                       Blade4(m).coords() / np.linalg.norm(Blade4(m).coords()))
    assert d < 1e-10


def test_reversed_flips_blade_sign():
    rng = np.random.default_rng(12)
    plane = OrientedPlane4.from_span(rng.standard_normal((4, 8)))
    assert np.allclose(plane.reversed().blade_coords(), -plane.blade_coords(),
                       atol=1e-12)


def test_hodge_star_plane_involution_and_signs():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((4, 4))
    a = a - a.T
    assert np.allclose(hodge_star_plane(hodge_star_plane(a)), a, atol=1e-12)
    # the star swaps the two complementary index pairs
    basis01 = np.zeros((4, 4))
    basis01[0, 1] = 1.0
    basis01[1, 0] = -1.0
    star = hodge_star_plane(basis01)
    assert star[2, 3] == 1.0 and star[0, 1] == 0.0


def test_pfaffian_squares_to_determinant():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((4, 4))
    a = a - a.T
    assert np.isclose(pfaffian4(a) ** 2, np.linalg.det(a), atol=1e-10)


def test_two_form_matrix_round_trip():
    rng = np.random.default_rng(15)
    f = random_form(2, rng)
    assert np.allclose(matrix_to_form(form_to_matrix(f)).coeffs, f.coeffs)

