"""Acceptance gate: nine numbered end-to-end checks with pinned tolerances.

Each test prints one PASS/FAIL line so the suite output doubles as a
checklist.  Tolerances here are contractual; do not loosen them to make a
failing build green.
"""

import numpy as np

from cayley4 import (
    Blade4,
    b_operator,
    blade_distance,
    build_plane,
    builtin_patch,
    canonical_form,
    cayley_calibration,
    comass_detail,
    einstein_report,
    evaluate,
    fubini_study_chart,
    haar_frames,
    l2_lambda_invariant,
    normalize_angle_pair,
    omega_xi,
    tangent_plane_at,
    verify_theorem_i,
    verify_theorem_ii,
    verify_theorem_iii,
)
from cayley4.hermitian import phi_values
from cayley4.multilinear import OrientedPlane4, hodge_star_plane
from cayley4.planes import _omega_restriction, random_unitary_basis

ALPHAS = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)


def _verdict(n: int, ok: bool, detail: str):
    print(f"CRITERION {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


def _admissible_pairs(rng, n):
    raw = rng.uniform(0.0, np.pi, size=(n, 2))
    return np.array([normalize_angle_pair(a, b) for a, b in raw])


def test_criterion_1_canonical_round_trip():
    rng = np.random.default_rng(101)
    n = 10_000
    pairs = _admissible_pairs(rng, n)
    worst_angle = 0.0
    worst_blade = 0.0
    for t1, t2 in pairs:
        u = random_unitary_basis(rng)
        pl = build_plane(u, t1, t2)
        rep = canonical_form(pl)
        worst_angle = max(worst_angle,
                          abs(rep.theta1 - t1), abs(rep.theta2 - t2))
        rebuilt = build_plane(rep.unitary_basis, rep.theta1, rep.theta2)
        worst_blade = max(worst_blade, blade_distance(pl, rebuilt))
    ok = worst_angle <= 1e-9 and worst_blade <= 1e-9
    _verdict(1, ok, f"{n} round trips, max angle error {worst_angle:.2e}, "
                    f"max blade error {worst_blade:.2e}")


def test_criterion_2_calibration_bound_and_comass():
    rng = np.random.default_rng(102)
    frames = haar_frames(rng, 100_000)
    phi = phi_values(frames, ALPHAS)
    max_phi = float(phi.max())
    bound_ok = max_phi <= 1.0 + 1e-9

    det = comass_detail(cayley_calibration(0.5),
                        n_samples=100, refine_steps=400, seed=102)
    success = float(np.mean(det["final_values"] >= 1.0 - 1e-6))
    refine_ok = success >= 0.95
    _verdict(2, bound_ok and refine_ok,
             f"max Phi over 10^5 planes x 16 phases = {max_phi:.12f}, "
             f"refinement success rate {success:.2f}")


def _predicate_triple(frame):
    pl = OrientedPlane4(frame)
    rep = canonical_form(pl)
    p_angle = abs(rep.theta1 - rep.theta2) <= 1e-8
    a = _omega_restriction(pl)
    p_star = float(np.linalg.norm(hodge_star_plane(a) - a)) <= 1e-10
    b = b_operator(pl)
    bsq = b @ b
    lam_sq = float(np.clip(-np.trace(bsq) / 4.0, 0.0, 1.0))
    p_bsq = float(np.linalg.norm(bsq + lam_sq * np.eye(4))) <= 1e-9
    return p_angle, p_star, p_bsq


def test_criterion_3_cayley_characterizations_agree():
    rng = np.random.default_rng(103)
    frames = list(haar_frames(rng, 4000))
    # constructed members keep the predicates exercised on both outcomes:
    # equal-angle planes (all true) and well-separated angles (all false)
    for _ in range(3000):
        u = random_unitary_basis(rng)
        theta = rng.uniform(0.2, np.pi / 2)
        frames.append(build_plane(u, theta, theta).frame)
    for _ in range(3000):
        u = random_unitary_basis(rng)
        t1 = rng.uniform(0.1, np.pi / 2 - 0.2)
        t2 = t1 + rng.uniform(1e-3, np.pi / 2 - t1 - 0.1)
        frames.append(build_plane(u, t1, t2).frame)
    n_true = 0
    mismatches = 0
    for f in frames:
        pa, ps, pb = _predicate_triple(f)
        if pa != ps or ps != pb:
            mismatches += 1
        n_true += int(pa)
    ok = mismatches == 0 and 2500 < n_true < 3500
    _verdict(3, ok, f"{len(frames)} planes, {mismatches} predicate "
                    f"discrepancies, {n_true} Cayley members")


def test_criterion_4_phi_value_formula():
    rng = np.random.default_rng(104)
    forms = [cayley_calibration(a) for a in ALPHAS]
    worst = 0.0
    for _ in range(1000):
        u = random_unitary_basis(rng)
        t1 = rng.uniform(0.15, np.pi - 0.3)
        t2 = rng.uniform(0.15, min(np.pi - t1, np.pi) - 0.15)
        t1, t2 = normalize_angle_pair(t1, t2)
        pl = build_plane(u, t1, t2)
        ax = omega_xi(pl).alpha
        closed = (np.cos(ALPHAS - ax) * np.sin(t1) * np.sin(t2)
                  + np.cos(t1) * np.cos(t2))
        direct = np.array([evaluate(fm, Blade4(pl.frame)) for fm in forms])
        worst = max(worst, float(np.abs(direct - closed).max()))
    ok = worst <= 1e-10
    _verdict(4, ok, f"1000 totally real planes x 16 phases, "
                    f"max |direct - closed form| = {worst:.2e}")


def test_criterion_5_phase_form_derivative_convergence():
    flat_ok = True
    details = []
    for name in ("product-torus", "lagrangian-graph"):
        rep = verify_theorem_iii(builtin_patch(name))
        flat_ok = flat_ok and rep.passes(1e-4) and rep.final_residual <= 1e-4
        details.append(f"{name} final {rep.final_residual:.2e}")
    fs_rep = verify_theorem_iii(builtin_patch("fs-real-slice"))
    fs_ok = fs_rep.final_residual <= 1e-3
    details.append(f"fs-real-slice final {fs_rep.final_residual:.2e}")
    # the coupled FS torus leaves the rounding floor and shows the order
    curved = verify_theorem_iii(builtin_patch("fs-lagrangian-torus"))
    order_ok = curved.passes(1e-4) and all(o >= 1.8 for o in curved.orders)
    details.append(f"fs-lagrangian-torus orders "
                   + ",".join(f"{o:.2f}" for o in curved.orders))
    _verdict(5, flat_ok and fs_ok and order_ok, "; ".join(details))


def test_criterion_6_calibration_dichotomy():
    from cayley4.patches import _second_derivatives

    cg = builtin_patch("complex-graph")
    rep_c = verify_theorem_i(cg)
    # curvature scale of the embedding bounds the discretization error in H
    probes = cg.probe_points(3)
    curv = max(np.linalg.norm(_second_derivatives(cg, t, cg.fd_step))
               for t in probes)
    h_bound = 5.0 * cg.fd_step ** 2 * max(curv, 1.0)
    complex_ok = (rep_c.minimal and rep_c.branch == "complex_all_alpha"
                  and rep_c.calibration_defect <= 1e-6
                  and rep_c.max_mean_curvature <= h_bound)

    rep_t = verify_theorem_i(builtin_patch("product-torus"))
    torus_ok = (not rep_t.minimal) and rep_t.max_min_phi <= 0.9

    slag = builtin_patch("affine")  # lagrangian plane with its real axes
    phases = [omega_xi(tangent_plane_at(slag, t)).alpha
              for t in slag.probe_points(3)]
    spread = float(np.ptp(phases))
    slag_ok = spread <= 1e-6
    _verdict(6, complex_ok and torus_ok and slag_ok,
             f"complex graph defect {rep_c.calibration_defect:.2e} "
             f"(|H| {rep_c.max_mean_curvature:.2e} <= {h_bound:.2e}); "
             f"torus max-min Phi {rep_t.max_min_phi:.3f}; "
             f"lagrangian phase spread {spread:.2e}")


def test_criterion_7_einstein_dichotomy():
    out = []
    ok = True
    for name, branch, lam_target in (("fs-complex-slice", "complex", 1.0),
                                     ("fs-real-slice", "lagrangian", 0.0)):
        patch = builtin_patch(name)
        rep = verify_theorem_ii(patch)
        lam_dev = max(abs(rep.lambda_min - lam_target),
                      abs(rep.lambda_max - lam_target))
        h_small = rep.max_mean_curvature <= 5.0 * patch.fd_step ** 2
        ok = ok and rep.preconditions_met and rep.branch == branch
        ok = ok and lam_dev <= 1e-4 and h_small
        out.append(f"{name}: branch {rep.branch}, lambda dev {lam_dev:.1e}, "
                   f"|H| {rep.max_mean_curvature:.1e}")
    _verdict(7, ok, "; ".join(out))


def test_criterion_8_homology_invariant():
    ct = l2_lambda_invariant(builtin_patch("complex-torus", grid_n=(6, 6, 6, 6)))
    diff = abs(ct["lambda_sq_integral"] - ct["half_omega_sq_integral"])
    complex_ok = diff <= 1e-6

    pt = l2_lambda_invariant(builtin_patch("product-torus", grid_n=(6, 6, 6, 6)))
    lag_ok = (abs(pt["lambda_sq_integral"]) <= 1e-8
              and abs(pt["half_omega_sq_integral"]) <= 1e-8)
    _verdict(8, complex_ok and lag_ok,
             f"complex torus gap {diff:.2e}; lagrangian torus integrals "
             f"{pt['lambda_sq_integral']:.2e}, {pt['half_omega_sq_integral']:.2e}")


def test_criterion_9_einstein_constant_check():
    fs = fubini_study_chart()
    reps = [einstein_report(fs, n_points=100, seed=s) for s in (0, 1, 2)]
    dev = max(r.max_deviation for r in reps)
    spread = max(r.scalar for r in reps) - min(r.scalar for r in reps)
    ok = dev <= 1e-5 and spread <= 1e-6
    _verdict(9, ok, f"max relative deviation {dev:.2e} over 3 seeds x 100 "
                    f"points, constant spread {spread:.2e}")
