"""Curved-patch analysis: frames, curvature identities, and the theorems."""

import json
from dataclasses import replace

import numpy as np
import pytest

from cayley4.hermitian import standard_structure
from cayley4.multilinear import blade_distance, restrict_matrix
from cayley4.patches import (
    BUILTIN_PATCHES,
    CHUNK,
    Patch,
    RankError,
    UnitaryFrameField,
    _lambda_sq_terms,
    _point_geometry,
    builtin_patch,
    coclosure_residual,
    gamma_form,
    l2_lambda_invariant,
    patch_from_spec,
    point_report,
    tangent_plane_at,
    verify_h_symmetry,
    verify_theorem_i,
    verify_theorem_ii,
    verify_theorem_iii,
)
from cayley4.planes import _canonical_rotation, _normal_gram

T0 = np.array([0.12, -0.2, 0.25, 0.05])
MIXED_RADII = [1.0, 0.8, 1.3, 0.6]


# ---------------------------------------------------------------- pointwise


def test_affine_patch_tangent_plane_is_constant():
    af = builtin_patch("affine", params={"theta1": 0.7, "theta2": 0.7})
    p1 = tangent_plane_at(af, np.zeros(4))
    p2 = tangent_plane_at(af, np.array([0.3, -0.2, 0.1, 0.4]))
    assert blade_distance(p1, p2) < 1e-12


def test_affine_cayley_report():
    af = builtin_patch("affine", params={"theta1": 0.7, "theta2": 0.7})
    rep = point_report(af, T0[None])
    assert rep.lam[0] == pytest.approx(np.cos(0.7), abs=1e-12)
    assert rep.cayley_dev[0] < 1e-12
    assert rep.mean_curvature_norm[0] < 1e-10


def test_complex_graph_is_minimal_complex():
    cg = builtin_patch("complex-graph")
    rep = point_report(cg, T0[None])
    assert rep.lam[0] == pytest.approx(1.0, abs=1e-12)
    assert rep.cayley_dev[0] < 1e-12
    assert rep.mean_curvature_norm[0] < 1e-10
    assert np.isnan(rep.gamma[0]).all()  # no phase form over complex points


def test_product_torus_mean_curvature_norm():
    # each circle factor contributes curvature 1/r_k, orthogonal directions
    pt = builtin_patch("product-torus", params={"radii": MIXED_RADII})
    rep = point_report(pt, np.array([0.3, 1.1, -0.4, 2.0])[None])
    want = np.sqrt(sum(1.0 / r**2 for r in MIXED_RADII))
    assert rep.mean_curvature_norm[0] == pytest.approx(want, rel=1e-4)
    assert rep.lam[0] == pytest.approx(0.0, abs=1e-10)

    unit = builtin_patch("product-torus")
    rep_u = point_report(unit, np.array([0.5, 0.5, 0.5, 0.5])[None])
    assert rep_u.mean_curvature_norm[0] == pytest.approx(2.0, rel=1e-4)


def test_degenerate_map_raises():
    lg = builtin_patch("lagrangian-graph")
    bad = Patch(name="collapsed", chart=lg.chart,
                map_fn=lambda t: np.concatenate(
                    [t[..., :3], t[..., :1], np.zeros(t.shape[:-1] + (4,))], axis=-1),
                box=np.array([[-0.5, 0.5]] * 4))
    with pytest.raises(RankError):
        point_report(bad, T0[None])


@pytest.mark.parametrize("s, full_rank", [(0.9e-6, False), (1.1e-6, True)])
def test_rank_threshold_is_the_smallest_singular_value(s, full_rank):
    # on the flat chart dF has singular values (1, 1, 1, s), against RANK_TOL = 1e-6
    thin = Patch(name="thin", chart=builtin_patch("affine").chart,
                 map_fn=lambda t: np.concatenate(
                     [t[..., :3], s * t[..., 3:], np.zeros(t.shape[:-1] + (4,))], axis=-1),
                 box=np.array([[-0.5, 0.5]] * 4))
    if full_rank:
        point_report(thin, T0[None])
    else:
        with pytest.raises(RankError):
            point_report(thin, T0[None])


def test_patch_from_spec_round_trip_and_validation():
    p = patch_from_spec({"name": "product-torus",
                         "params": {"radii": MIXED_RADII},
                         "grid": {"n": [6, 6, 6, 6]},
                         "ambient": "flat"})
    assert p.grid_n == (6, 6, 6, 6)
    assert all(p.periodic)
    with pytest.raises(KeyError):
        patch_from_spec({"name": "bogus"})
    with pytest.raises(KeyError):
        patch_from_spec({"params": {}})


# ------------------------------------------------- second fundamental form


@pytest.mark.parametrize("name", ["lagrangian-graph", "complex-graph"])
def test_h_identities_flat_graphs(name):
    # flat ambient: both identity residuals sit at rounding level
    p = builtin_patch(name)
    out = verify_h_symmetry(p, T0, n_triples=6)
    assert out["h_symmetry_dev"] < 1e-9
    assert out["identity1_max"] < 1e-10
    assert out["identity2_max"] < 1e-10


def test_h_identity_one_holds_off_cayley():
    # curved, non-Cayley patch: identity 1 still holds with O(h^2) residual,
    # identity 2 is not asserted there
    ps = builtin_patch("perturbed-real-slice")
    t = np.array([0.1, -0.15, 0.2, 0.08])
    r1 = verify_h_symmetry(replace(ps, fd_step=1e-2), t, n_triples=6)
    r2 = verify_h_symmetry(replace(ps, fd_step=5e-3), t, n_triples=6)
    r3 = verify_h_symmetry(replace(ps, fd_step=2.5e-3), t, n_triples=6)
    assert r1["identity2_max"] is None
    assert r1["identity1_max"] < 2e-3
    assert r2["identity1_max"] < 0.30 * r1["identity1_max"]
    assert r3["identity1_max"] < 0.30 * r2["identity1_max"]


def test_coclosure_on_cayley_patches():
    assert coclosure_residual(builtin_patch("lagrangian-graph"), T0) < 1e-10
    assert coclosure_residual(builtin_patch("complex-graph"), T0) < 1e-4


# ----------------------------------------------------------- gamma variants


def test_torus_gamma_is_minus_one_per_angle():
    # gamma(d/dphi_k) = -1 for every radius assignment, not only unit radii
    for radii in ([1.0, 1.0, 1.0, 1.0], MIXED_RADII):
        pt = builtin_patch("product-torus", params={"radii": radii})
        out = gamma_form(pt, np.array([0.3, 1.1, -0.4, 2.0])[None])
        assert np.allclose(out["gamma_a"], -1.0, atol=1e-4)
        assert out["max_abs_diff"] < 1e-4


def test_gamma_variants_agree_on_curved_graph():
    lg = builtin_patch("lagrangian-graph")
    out = gamma_form(lg, T0[None])
    assert out["lambda"][0] == pytest.approx(0.0, abs=1e-8)
    assert out["max_abs_diff"] < 1e-4
    assert np.abs(out["gamma_a"]).max() > 0.3  # the form is genuinely nonzero


def test_gamma_b_gauge_independent():
    pt = builtin_patch("product-torus", params={"radii": MIXED_RADII})
    t = np.array([0.3, 1.1, -0.4, 2.0])[None]
    base = gamma_form(pt, t, gauge=0.0)
    rot = gamma_form(pt, t, gauge=0.6)
    gap = np.abs(np.array(base["gamma_b"]) - np.array(rot["gamma_b"])).max()
    assert gap < 1e-6


@pytest.mark.parametrize("name, params", [("lagrangian-graph", {}),
                                          ("affine", {"theta1": 0.7, "theta2": 0.7})])
def test_gamma_form_stack_matches_single_points(name, params):
    # both frame branches: Lagrangian Gram-Schmidt, j = B / lambda
    p = builtin_patch(name, params)
    probes = p.probe_points(per_axis=2, shrink=0.5)[:4]
    stack = gamma_form(p, probes)
    assert stack["gamma_a"].shape == stack["gamma_b"].shape == (4, 4)
    assert stack["lambda"].shape == (4,)
    singles = [gamma_form(p, t[None]) for t in probes]
    for key in ("gamma_a", "gamma_b", "lambda"):
        np.testing.assert_array_equal(stack[key], [one[key][0] for one in singles])
    assert stack["max_abs_diff"] == max(one["max_abs_diff"] for one in singles)
    assert singles[0]["lambda"].shape == (1,)


def test_gamma_form_chunks_match_one_batch(monkeypatch):
    import cayley4.patches as patches_module

    lg = builtin_patch("lagrangian-graph")
    pts = lg.probe_points()
    assert len(pts) > CHUNK
    chunked = gamma_form(lg, pts)
    # all 81 points, and their 9 * 81 transport targets, in one batch
    monkeypatch.setattr(patches_module, "CHUNK", 10 ** 6)
    whole = gamma_form(lg, pts)
    for key in ("gamma_a", "gamma_b", "lambda"):
        assert np.array_equal(chunked[key], whole[key])
    assert chunked["max_abs_diff"] == whole["max_abs_diff"]


def test_gamma_form_memory_is_bounded_by_the_chunk():
    import tracemalloc

    lg = builtin_patch("lagrangian-graph")
    pts = lg.probe_points()
    tracemalloc.start()
    try:
        gamma_form(lg, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one batch of all 81 points peaked at 54 MiB
    assert peak < 12 * 2 ** 20


# ----------------------------------------------------------------- theorems


def test_theorem_i_calibrated_branch():
    af = builtin_patch("affine", params={"theta1": 0.7, "theta2": 0.7})
    rep = verify_theorem_i(af)
    assert rep.minimal
    assert rep.branch == "calibrated"
    assert rep.calibration_defect < 1e-6
    assert rep.phase_deviation < 1e-6


def test_theorem_i_complex_branch():
    cg = builtin_patch("complex-graph")
    rep = verify_theorem_i(cg)
    assert rep.minimal
    assert rep.branch == "complex_all_alpha"
    assert rep.calibration_defect < 1e-6


def test_theorem_i_non_minimal_branch():
    pt = builtin_patch("product-torus")
    rep = verify_theorem_i(pt)
    assert not rep.minimal
    assert rep.branch == "not_minimal"
    assert rep.max_min_phi < 0.9


def test_theorem_ii_lagrangian_branch():
    fsr = builtin_patch("fs-real-slice")
    rep = verify_theorem_ii(fsr)
    assert rep.preconditions_met
    assert rep.branch == "lagrangian"
    assert rep.einstein_constant == pytest.approx(5.0, abs=1e-3)
    assert rep.lambda_max < 1e-4


def test_theorem_ii_complex_branch():
    fsc = builtin_patch("fs-complex-slice")
    rep = verify_theorem_ii(fsc)
    assert rep.preconditions_met
    assert rep.branch == "complex"
    assert rep.lambda_min > 1.0 - 1e-4


def test_theorem_ii_guards():
    # curved Lagrangian torus in FS: Cayley but not minimal
    fst = builtin_patch("fs-lagrangian-torus")
    rep = verify_theorem_ii(fst)
    assert not rep.preconditions_met
    assert rep.failed_precondition == "minimal"
    # perturbed slice: not pointwise Cayley
    ps = builtin_patch("perturbed-real-slice")
    rep2 = verify_theorem_ii(ps)
    assert not rep2.preconditions_met
    assert rep2.failed_precondition == "pointwise_cayley"


def test_theorem_ii_needs_an_einstein_chart():
    from test_ambient import _cp1_x_c3_chart

    # CP^1 x C^3 is Kaehler but not Einstein: rho is 2 omega on one factor only
    p = replace(builtin_patch("fs-real-slice", grid_n=(3, 3, 3, 3)), chart=_cp1_x_c3_chart())
    rep = verify_theorem_ii(p)
    assert not rep.preconditions_met
    assert rep.failed_precondition == "einstein_chart"
    assert rep.branch is None


def test_theorem_ii_reports_a_violation():
    # negative control: a minimal Cayley report with lambda strictly inside (0, 1)
    p = builtin_patch("fs-complex-slice", grid_n=(3, 3, 3, 3))
    rep = point_report(p, p.grid_points())
    forged = replace(rep, lam=np.full_like(rep.lam, 0.5))
    out = verify_theorem_ii(p, report=forged)
    assert out.preconditions_met
    assert out.branch == "violation"


@pytest.mark.parametrize("verify, name", [(verify_theorem_i, "complex-graph"),
                                          (verify_theorem_i, "product-torus"),
                                          (verify_theorem_ii, "fs-complex-slice"),
                                          (verify_theorem_ii, "fs-lagrangian-torus")])
def test_theorem_report_argument_gives_the_same_result(verify, name):
    # the default report is the one over the grid; a coarse grid keeps it cheap
    p = builtin_patch(name, grid_n=(3, 3, 3, 3))
    rep = point_report(p, p.grid_points())
    assert verify(p, report=rep).to_json() == verify(p).to_json()
    probes = p.probe_points(per_axis=2, shrink=0.5)
    assert verify(p, report=point_report(p, probes)).n_points == len(probes)


@pytest.mark.parametrize("name", ["product-torus", "lagrangian-graph"])
def test_theorem_iii_flat_families_hit_floor(name):
    p = builtin_patch(name)
    rep = verify_theorem_iii(p)
    assert rep.passes(1e-4)
    assert rep.final_residual < 1e-8


def test_theorem_iii_genuine_second_order():
    # coupled Lagrangian torus in FS: discrete closedness fails at finite h,
    # decays at second order
    fst = builtin_patch("fs-lagrangian-torus")
    rep = verify_theorem_iii(fst)
    assert rep.passes(1e-4)
    assert not rep.converged_at_floor
    assert rep.final_residual < 1e-6
    assert all(o >= 1.8 for o in rep.orders)


def test_theorem_iii_all_masked_raises():
    cg = builtin_patch("complex-graph")
    with pytest.raises(ValueError):
        verify_theorem_iii(cg)


# --------------------------------------------------------------- invariants


def test_l2_lambda_invariant_product_torus():
    pt = builtin_patch("product-torus", grid_n=(6, 6, 6, 6))
    out = l2_lambda_invariant(pt)
    assert abs(out["lambda_sq_integral"]) < 1e-8
    assert abs(out["half_omega_sq_integral"]) < 1e-8


def test_l2_lambda_invariant_complex_torus():
    ct = builtin_patch("complex-torus", grid_n=(6, 6, 6, 6))
    out = l2_lambda_invariant(ct)
    assert out["lambda_sq_integral"] > 1.0
    assert out["lambda_sq_integral"] == pytest.approx(
        out["half_omega_sq_integral"], abs=1e-6)


def test_l2_lambda_invariant_perturbed_torus():
    p = builtin_patch("perturbed-lagrangian-torus", grid_n=(8, 8, 8, 8))
    out = l2_lambda_invariant(p)
    assert out["lambda_sq_integral"] == pytest.approx(
        out["half_omega_sq_integral"], abs=1e-4)


def test_l2_lambda_invariant_needs_periodic_patch():
    lg = builtin_patch("lagrangian-graph")
    with pytest.raises(ValueError):
        l2_lambda_invariant(lg)


def _lambda_sq_by_two_routes(patch):
    """lambda^2 from the angle cosines and as Pf / dvol, over the grid."""
    from_angles, dvol, pf = _lambda_sq_terms(patch, patch.grid_points())
    return from_angles, pf / dvol


def test_lambda_square_field_consistency():
    af = builtin_patch("affine", params={"theta1": 0.9, "theta2": 0.9},
                       grid_n=(4, 4, 4, 4))
    from_angles, from_pfaffian = _lambda_sq_by_two_routes(af)
    assert np.max(np.abs(from_angles - from_pfaffian)) < 1e-10
    assert np.min(from_pfaffian) == pytest.approx(np.cos(0.9) ** 2, abs=1e-10)
    assert np.max(from_pfaffian) == pytest.approx(np.cos(0.9) ** 2, abs=1e-10)

    ct = builtin_patch("complex-torus", grid_n=(4, 4, 4, 4))
    from_angles, from_pfaffian = _lambda_sq_by_two_routes(ct)
    assert np.min(from_pfaffian) == pytest.approx(1.0, abs=1e-10)
    assert np.max(np.abs(from_angles - from_pfaffian)) < 1e-8


# ------------------------------------------------------------ bad input


@pytest.mark.parametrize("fields", [
    {"fd_step": 0.0},
    {"fd_step": -1e-2},
    {"fd_step": float("nan")},
    {"fd_step": float("inf")},
    {"grid_n": (1, 5, 5, 5)},
    {"grid_n": (5, 5, 5, 0), "periodic": (False, False, False, True)},
])
def test_patch_rejects_bad_step_and_grid(fields):
    lg = builtin_patch("lagrangian-graph")
    with pytest.raises(ValueError):
        Patch(name="bad", chart=lg.chart, map_fn=lg.map_fn, box=lg.box, **fields)


@pytest.mark.parametrize("grid_n", [(True, 3, 3, 3), (2.5, 3, 3, 3), ("a", 3, 3, 3),
                                    (3, 3, 3), ()])
def test_patch_rejects_grid_that_is_not_four_integers(grid_n):
    lg = builtin_patch("lagrangian-graph")
    with pytest.raises(ValueError, match="4 integers"):
        Patch(name="bad", chart=lg.chart, map_fn=lg.map_fn, box=lg.box, grid_n=grid_n)
    # numpy integers are integers
    Patch(name="ok", chart=lg.chart, map_fn=lg.map_fn, box=lg.box,
          grid_n=tuple(np.arange(3, 7)))


@pytest.mark.parametrize("name, params", [
    ("affine", {"frame": np.eye(2).tolist()}),
    ("affine", {"frame": np.full((4, 8), np.nan).tolist()}),
    ("affine", {"frame": "frame"}),
    ("affine", {"offset": [1.0, 2.0]}),
    ("product-torus", {"radii": [1.0, 2.0]}),
    ("fs-lagrangian-torus", {"kappa": [0.1] * 5}),
])
def test_array_params_are_checked_when_the_patch_is_built(name, params):
    with pytest.raises(ValueError, match="finite numbers"):
        builtin_patch(name, params)


def test_periodic_axis_allows_a_single_point():
    pt = builtin_patch("product-torus", grid_n=(1, 1, 1, 1))
    assert pt.grid_points().shape == (1, 4)


def test_periodic_axis_with_one_point_spans_the_box():
    # a periodic axis divides by n, so n - 1 = 0 is never a divisor
    pt = builtin_patch("product-torus", grid_n=(1, 1, 1, 1))
    np.testing.assert_array_equal(pt.spacings(), np.full(4, 2.0 * np.pi))


@pytest.mark.parametrize("h", [0.0, -1e-2])
def test_explicit_nonpositive_step_is_rejected(h):
    lg = builtin_patch("lagrangian-graph")
    with pytest.raises(ValueError):
        replace(lg, fd_step=h)


# ------------------------------------------- theorem III order bookkeeping


def _no_nan_json(rep):
    return "NaN" not in json.dumps(rep.to_json())


def test_theorem_iii_zero_coarse_residual_reproducer():
    # residuals sit at the rounding floor; a level can come out exactly 0
    p = builtin_patch("affine", {"theta1": 0.9, "theta2": 0.9}, grid_n=(5, 5, 5, 5))
    rep = verify_theorem_iii(p)
    assert _no_nan_json(rep)
    for k, order in enumerate(rep.orders):
        if rep.residuals[k] == 0.0:
            assert order == float("inf")


def test_theorem_iii_order_after_exact_zero_is_inf(monkeypatch):
    p = builtin_patch("affine", {"theta1": 0.9, "theta2": 0.9}, grid_n=(5, 5, 5, 5))
    by_level = {p.fd_step: 2.2e-11, p.fd_step / 2: 0.0, p.fd_step / 4: 1.4e-9}
    monkeypatch.setattr("cayley4.patches._dgamma_residual",
                        lambda patch, t, h, tol, rho: np.full(len(t), by_level[h]))
    rep = verify_theorem_iii(p)
    assert rep.residuals == (2.2e-11, 0.0, 1.4e-9)
    assert rep.orders == (float("inf"), float("inf"))
    assert rep.passes(1e-4)
    assert not rep.passes(1e-9)
    assert _no_nan_json(rep)


def test_theorem_iii_batch_matches_single_probes():
    # Cayley deviations of these probes lie in [0.118, 0.167] at every
    # level, so a tolerance of 0.15 masks the same 8 of 16 at each one
    p = builtin_patch("perturbed-real-slice")
    probes = p.probe_points(per_axis=2, shrink=0.5)
    batch = verify_theorem_iii(p, probes, cayley_tol=0.15)
    singles, masked = [], 0
    for t in probes:
        try:
            singles.append(verify_theorem_iii(p, [t], cayley_tol=0.15))
        except ValueError as exc:
            assert "every probe point was masked" in str(exc)
            masked += 1
    assert 0 < masked < len(probes)
    assert batch.n_masked == masked + sum(s.n_masked for s in singles)
    for k, res in enumerate(batch.residuals):
        assert res == max(s.residuals[k] for s in singles)


# ------------------------------------------------------------ batch contract


@pytest.mark.parametrize("name, params", [("lagrangian-graph", {}),
                                          ("affine", {"theta1": 0.7, "theta2": 0.7})])
def test_cayley_frame_stack_matches_single_targets(name, params):
    # both re-orthonormalization branches: Lagrangian Gram-Schmidt, j = B / lambda
    p = builtin_patch(name, params)
    ff = UnitaryFrameField(p)
    assert ff.lagrangian_mode == (name == "lagrangian-graph")
    moves = np.array([[0.0, 0.0, 0.0, 0.0], [0.1, 0.0, 0.05, 0.0],
                      [0.0, -0.2, 0.0, 0.15], [0.12, -0.2, 0.25, 0.05]])
    targets = (ff.anchor + moves).reshape(2, 2, 4)
    stack = ff.cayley_frame(targets)
    assert stack.shape == (2, 2, 4, 8)
    for k, t in enumerate(targets.reshape(-1, 4)):
        np.testing.assert_array_equal(stack.reshape(-1, 4, 8)[k], ff.cayley_frame(t))
    np.testing.assert_array_equal(stack[0, 0], ff._seed)


def test_seed_rotation_is_stable_at_a_near_lagrangian_anchor():
    # lambda = 8.6e-7 at the fs-lagrangian-torus anchor: both parts of the
    # self-dual split are small, yet their directions are defined, so
    # last-bit changes of the restricted Kaehler form barely move the frame
    p = builtin_patch("fs-lagrangian-torus")
    anchor = 0.5 * (p.box[:, 0] + p.box[:, 1])
    frame = _point_geometry(p, anchor, p.fd_step).model_frame
    a = restrict_matrix(standard_structure().omega_mat, frame)
    g = _normal_gram(frame)
    r = _canonical_rotation(a, g)
    rng = np.random.default_rng(0)
    for ulps in [np.full((4, 4), 2), np.full((4, 4), -2)] + [
            rng.integers(-2, 3, size=(4, 4)) for _ in range(8)]:
        moved = _canonical_rotation(a + ulps * np.spacing(a), g)
        assert np.max(np.abs(moved - r)) <= 1e-12


@pytest.mark.parametrize("name, params", [("lagrangian-graph", {}),
                                          ("affine", {"theta1": 0.6, "theta2": 0.6})])
def test_transport_runs_each_leg_once_per_path_prefix(name, params, monkeypatch):
    import cayley4.patches as patches_module

    p = builtin_patch(name, params)
    ff = UnitaryFrameField(p)
    assert ff.lagrangian_mode == (name == "lagrangian-graph")
    # the 9-point frame stencils of the CLI's four gamma probes: 36 targets
    probes = p.probe_points(per_axis=2, shrink=0.5)[:4]
    offsets = p.fd_step * np.eye(4)[:, None, :]
    targets = np.concatenate([probes[None], probes + offsets, probes - offsets]).reshape(-1, 4)
    rows = []

    def counted(patch, t, h, second=False):
        rows.append(int(np.prod(np.shape(t)[:-1])))
        return geometry(patch, t, h, second)

    geometry = patches_module._point_geometry
    monkeypatch.setattr(patches_module, "_point_geometry", counted)
    stack = ff.cayley_frame(targets)
    # 3, 5, 14 and 36 distinct prefixes; the last leg also holds the targets
    assert rows == [36, 60, 168, 468]
    for k, t in enumerate(targets):
        assert np.array_equal(stack[k], ff.cayley_frame(t))


@pytest.mark.parametrize("name", sorted(BUILTIN_PATCHES))
def test_builtin_maps_are_exact_row_by_row(name):
    p = builtin_patch(name, grid_n=(3, 3, 3, 3))
    pts = p.grid_points()
    stacked = p.evaluate(pts)
    assert stacked.shape == (len(pts), 8)
    rows = np.array([p.evaluate(t) for t in pts])
    np.testing.assert_array_equal(stacked, rows)
    np.testing.assert_array_equal(p.evaluate(pts.reshape(3, -1, 4)),
                                  stacked.reshape(3, -1, 8))


@pytest.mark.parametrize("name", ["perturbed-real-slice", "fs-lagrangian-torus"])
def test_point_report_batch_matches_single_points(name):
    p = builtin_patch(name)
    pts = p.grid_points()[:CHUNK + 13]           # not a multiple of the chunk
    batch = point_report(p, pts)
    assert batch.lam.shape == (len(pts),)
    assert batch.tangent_plane.shape == (len(pts), 4, 8)
    for k in (0, CHUNK - 1, CHUNK, len(pts) - 1):
        one = point_report(p, pts[k][None])
        assert one.lam.shape == (1,)
        for field in ("point", "frame_chart", "lam", "cos1", "cos2", "cayley_dev",
                      "h_tensor", "mean_curvature", "mean_curvature_norm",
                      "h_symmetry_dev", "tangent_plane"):
            np.testing.assert_allclose(getattr(batch, field)[k], getattr(one, field)[0],
                                       rtol=0, atol=1e-12, err_msg=field)
        if np.isnan(one.gamma[0]).any():
            assert np.isnan(batch.gamma[k]).all()
        else:
            np.testing.assert_allclose(batch.gamma[k], one.gamma[0], rtol=0, atol=1e-12)
    assert json.dumps(batch.to_json())           # undefined gamma rows are null


@pytest.mark.parametrize("name", ["lagrangian-graph", "product-torus"])
def test_flat_chart_matches_its_differencing_route(name):
    """The flat chart's exact zeros, metric I and model frame give the same
    results as differencing its constant Hermitian block, which a chart of
    the same potential and block under another name does."""
    flat = builtin_patch(name, grid_n=(3, 3, 3, 3))
    ref = replace(flat, chart=replace(flat.chart, name="flat-by-differences"))
    assert flat.chart.is_flat and not ref.chart.is_flat
    probes = flat.probe_points(per_axis=2, shrink=0.5)
    got, want = point_report(flat, probes), point_report(ref, probes)
    for field in vars(want):
        assert np.array_equal(getattr(got, field), getattr(want, field), equal_nan=True), field
    got, want = gamma_form(flat, probes[:4]), gamma_form(ref, probes[:4])
    for key in want:
        assert np.array_equal(got[key], want[key]), key
    assert verify_theorem_iii(flat).residuals == verify_theorem_iii(ref).residuals
    if all(flat.periodic):
        assert l2_lambda_invariant(flat) == l2_lambda_invariant(ref)


def test_row_only_map_is_rejected_with_one_line_error():
    lg = builtin_patch("lagrangian-graph")
    row_only = Patch(name="row-only", chart=lg.chart, box=lg.box,
                     map_fn=lambda t: np.concatenate([t, t]))
    with pytest.raises(ValueError, match=r"\(\.\.\., 4\) to \(\.\.\., 8\)") as info:
        point_report(row_only, T0[None])
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("route", [point_report, gamma_form])
@pytest.mark.parametrize("t", [T0, np.zeros((2, 3)), np.zeros((0, 4))],
                         ids=["one-point", "three-columns", "empty-stack"])
def test_patch_results_take_a_stack_of_points(route, t):
    lg = builtin_patch("lagrangian-graph")
    with pytest.raises(ValueError, match=r"stack of points \(N, 4\)") as info:
        route(lg, t)
    assert "\n" not in str(info.value)


@pytest.mark.parametrize("route", [verify_h_symmetry, coclosure_residual])
@pytest.mark.parametrize("t", [np.zeros((2, 4)), np.zeros((1, 4)), np.zeros(3)],
                         ids=["stack", "one-row-stack", "three-coordinates"])
def test_single_point_checks_take_one_point(route, t):
    with pytest.raises(ValueError, match=r"single point \(4,\)") as info:
        route(builtin_patch("affine"), t)
    assert "\n" not in str(info.value)
