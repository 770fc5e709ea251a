"""Command-line front end with JSON reports.

Subcommands: analyze-plane, scan, comass, verify-patch, invariant-suite.
All randomness is seeded, so a fixed invocation produces byte-identical
output except for the top-level "timestamp" field.  Reports are strict
JSON, with no NaN or Infinity.  Exit codes: 0 all checks passed, 1 at
least one check failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import ambient, hermitian, patches, planes
from .multilinear import OrientedPlane4

USAGE_ERROR = 2
CHECK_FAILURE = 1

# frames whose Gram matrix deviates by more than this cannot be repaired
REPAIR_TOL = 1e-6


class InputError(Exception):
    pass


def _emit(report: dict, out: str | None) -> None:
    report = dict(report)
    report["timestamp"] = datetime.now(timezone.utc).isoformat()
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _phase_grid(n: int) -> np.ndarray:
    if n < 1:
        raise InputError(f"--phases must be >= 1, got {n}")
    return np.linspace(0.0, 2.0 * np.pi, n, endpoint=False)


def _load_frame(path: str) -> np.ndarray:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read plane JSON: {exc}")
    try:
        frame = np.asarray(data["frame"], dtype=float)
    except (KeyError, TypeError, ValueError):
        raise InputError('plane JSON must contain "frame": 4 rows of 8 numbers')
    if frame.shape != (4, 8):
        raise InputError(f"frame must be 4x8, got {frame.shape}")
    if not np.all(np.isfinite(frame)):
        raise InputError("frame entries must be finite numbers")
    dev = float(np.max(np.abs(frame @ frame.T - np.eye(4))))
    if dev > REPAIR_TOL:
        raise InputError(f"frame Gram deviation {dev:.2e} exceeds repair "
                         f"tolerance {REPAIR_TOL:.0e}")
    if dev > 1e-13:
        # symmetric orthogonalization: closest orthonormal frame, keeps
        # orientation for small deviations
        u, _, vt = np.linalg.svd(frame, full_matrices=False)
        frame = u @ vt
    return frame


def cmd_analyze_plane(args) -> int:
    alphas = _phase_grid(args.phases)
    frame = _load_frame(args.input)
    plane = OrientedPlane4(frame)
    rep = planes.canonical_form(plane)
    phi = hermitian.phi_values(frame[None], alphas)[:, 0]
    report = {
        "angle_report": rep.to_json(),
        "phi_values": {f"{a:.6f}": float(v) for a, v in zip(alphas, phi)},
        "max_phi": float(np.max(phi)),
    }
    if rep.classification in ("totally_real_non_cayley", "cayley_totally_real",
                              "lagrangian"):
        ox = planes.omega_xi(plane)
        report["alpha_xi"] = ox.alpha
        report["omega_xi_value"] = ox.value
    _emit(report, args.out)
    return 0


def cmd_scan(args) -> int:
    if args.n < 1:
        raise InputError("scan needs n >= 1")
    if not (math.isfinite(args.tol) and args.tol > 0):
        raise InputError(f"--tol must be finite and > 0, got {args.tol}")
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    alphas = _phase_grid(args.phases)
    rng = np.random.default_rng(args.seed)
    # one block of frames at a time, each restricted once: (omega^2/2)(xi) =
    # Pf(omega|xi) = cos(theta1) cos(theta2) needs no second restriction
    c1, c2 = np.empty(args.n), np.empty(args.n)
    max_phi, s = -np.inf, 0
    for block in hermitian._haar_blocks(rng, args.n):
        e = s + len(block)
        c1[s:e], c2[s:e] = planes.batch_kahler_cosines(block)
        phi = hermitian._phase_combination(hermitian.omega0_values(block),
                                           c1[s:e] * c2[s:e], alphas)
        max_phi, s = max(max_phi, float(np.max(phi))), e
    theta1 = np.arccos(np.clip(c1, -1.0, 1.0))
    theta2 = np.arccos(np.clip(c2, -1.0, 1.0))
    gap = np.abs(theta1 - theta2)
    cayley_mask = gap <= args.tol
    near_mask = gap <= 0.02          # fixed documentation-level bucket
    lam = 0.5 * (c1 + c2)
    near = np.sort(lam[near_mask])
    if near.size:
        q = [float(np.quantile(near, x)) for x in (0.0, 0.25, 0.5, 0.75, 1.0)]
    else:
        q = []
    h1, edges1 = np.histogram(theta1, bins=12, range=(0.0, np.pi / 2))
    h2, edges2 = np.histogram(theta2, bins=12, range=(0.0, np.pi))
    report = {
        "n": args.n,
        "seed": args.seed,
        "theta1_histogram": {"counts": h1.tolist(), "edges": edges1.tolist()},
        "theta2_histogram": {"counts": h2.tolist(), "edges": edges2.tolist()},
        "cayley_tolerance": args.tol,
        "cayley_fraction": float(np.mean(cayley_mask)),
        "near_cayley_count": int(np.sum(near_mask)),
        "lambda_near_cayley_quantiles": q,
        "max_phi": max_phi,
        "calibration_bound_ok": bool(max_phi <= 1.0 + 1e-9),
    }
    _emit(report, args.out)
    return 0 if report["calibration_bound_ok"] else CHECK_FAILURE


def cmd_comass(args) -> int:
    if args.samples < 1:
        raise InputError(f"--samples must be >= 1, got {args.samples}")
    if args.steps < 0:
        raise InputError(f"--steps must be >= 0, got {args.steps}")
    if not math.isfinite(args.alpha):
        raise InputError(f"--alpha must be finite, got {args.alpha}")
    if args.seed < 0:
        raise InputError(f"--seed must be >= 0, got {args.seed}")
    form = hermitian.cayley_calibration(args.alpha)
    detail = hermitian.comass_detail(form, n_samples=args.samples,
                                     refine_steps=args.steps, seed=args.seed)
    finals = np.asarray(detail["final_values"])
    success = float(np.mean(finals >= 1.0 - 1e-6))
    report = {
        "alpha": args.alpha,
        "comass": detail["value"],
        "abs_error_from_one": abs(detail["value"] - 1.0),
        "n_starts": args.samples,
        "refine_steps": args.steps,
        "success_rate": success,
        "bound_ok": bool(detail["value"] <= 1.0 + 1e-9),
        "refinement_ok": bool(success >= 0.95),
    }
    _emit(report, args.out)
    return 0 if report["bound_ok"] and report["refinement_ok"] else CHECK_FAILURE


def _patch_from_args(args) -> patches.Patch:
    if args.spec:
        try:
            with open(args.spec) as fh:
                spec = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read patch spec: {exc}")
        if not isinstance(spec, dict):
            raise InputError("invalid patch spec: expected a JSON object")
    elif args.name:
        spec = {"name": args.name}
    else:
        raise InputError("verify-patch needs --spec or --name")
    # --grid and --ambient override the spec's own fields
    if args.grid:
        spec["grid"] = {"n": list(args.grid)}
    if args.ambient:
        spec["ambient"] = args.ambient
    try:
        return patches.patch_from_spec(spec)
    except (KeyError, ValueError) as exc:
        raise InputError(f"invalid patch spec: {exc}")


def _run_patch_checks(patch: patches.Patch, tol: float) -> list[dict]:
    checks: list[dict] = []
    flat = patch.chart.is_flat
    probes = patch.probe_points(per_axis=2, shrink=0.5)
    rep = patches.point_report(patch, probes)
    cayley_tol = patches.default_cayley_tol(patch.fd_step)
    all_cayley = bool(np.all(rep.cayley_dev <= cayley_tol))
    all_real = bool(np.all(rep.lam <= 1.0 - patches.LAMBDA_GUARD))

    hs_dev = float(np.max(rep.h_symmetry_dev))
    checks.append({"name": "h_symmetric", "passed": bool(hs_dev <= 1e-6),
                   "max_deviation": hs_dev})

    mid = 0.5 * (patch.box[:, 0] + patch.box[:, 1])
    hs = patches.verify_h_symmetry(patch, mid + 0.05 * (patch.box[:, 1] - mid))
    ok1 = hs["identity1_max"] <= tol
    ok2 = hs["identity2_max"] is None or hs["identity2_max"] <= tol
    checks.append({"name": "h_identities", "passed": bool(ok1 and ok2), **hs})

    if all_cayley:
        cres = patches.coclosure_residual(patch, mid)
        checks.append({"name": "coclosure", "passed": bool(cres <= tol),
                       "residual": cres})

    if all_cayley and all_real:
        try:
            gap = patches.gamma_form(patch, probes[:4])["max_abs_diff"]
            checks.append({"name": "gamma_variants_agree", "passed": bool(gap <= 1e-4),
                           "max_gap": gap})
        except ambient.ChartDomainError:
            raise
        except ValueError as exc:
            # a numerical breakdown of the check is a failure, not a skip
            checks.append({"name": "gamma_variants_agree", "passed": False,
                           "error": str(exc)})
        try:
            rep3 = patches.verify_theorem_iii(patch)
            checks.append({"name": "theorem_iii", "passed": rep3.passes(tol),
                           **rep3.to_json()})
        except (ambient.ChartDomainError, patches.RankError):
            raise
        except ValueError as exc:
            # a run that verified nothing (every probe masked) did not pass
            checks.append({"name": "theorem_iii", "passed": False, "error": str(exc)})

    if flat and all_cayley:
        rep1 = patches.verify_theorem_i(patch, report=rep)
        if rep1.minimal:
            ok = (rep1.branch == "complex_all_alpha"
                  or (rep1.calibration_defect is not None
                      and rep1.calibration_defect <= 1e-6))
        else:
            ok = rep1.max_min_phi is not None and rep1.max_min_phi <= 0.9
        checks.append({"name": "theorem_i", "passed": bool(ok), **rep1.to_json()})

    if not flat:
        rep2 = patches.verify_theorem_ii(patch, report=rep)
        if rep2.preconditions_met:
            ok = rep2.branch in ("complex", "lagrangian")
            note = None
        else:
            ok = True
            note = "preconditions not met; theorem makes no assertion"
        entry = {"name": "theorem_ii", "passed": bool(ok), **rep2.to_json()}
        if note:
            entry["note"] = note
        checks.append(entry)

    if all(patch.periodic):
        inv = patches.l2_lambda_invariant(patch)
        checks.append({"name": "l2_lambda_invariant",
                       "passed": bool(inv["difference"] <= max(tol, 1e-4)),
                       **inv})

    if not all_real:
        checks.append({"name": "gamma_masking",
                       "passed": True,
                       "note": "near-complex points present; gamma checks masked"})
    return checks


def cmd_verify_patch(args) -> int:
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        raise InputError(f"--tol must be finite and > 0, got {args.tol}")
    patch = _patch_from_args(args)
    tol = args.tol if args.tol is not None else (1e-4 if patch.chart.is_flat
                                                 else 1e-3)
    try:
        checks = _run_patch_checks(patch, tol)
    except ambient.ChartDomainError as exc:
        raise InputError(f"patch leaves its chart: {exc}")
    except patches.RankError as exc:
        raise InputError(f"patch map loses rank: {exc}")
    failed = [c["name"] for c in checks if not c["passed"]]
    report = {
        "patch": patch.name,
        "chart": patch.chart.name,
        "tolerance": tol,
        "checks": checks,
        "failed": failed,
        "all_passed": not failed,
    }
    _emit(report, args.out)
    return 0 if not failed else CHECK_FAILURE


def cmd_invariant_suite(args) -> int:
    cases = [
        ("complex-torus", {}, 1e-6),
        ("product-torus", {"radii": [1.0, 1.0, 1.0, 1.0]}, 1e-8),
        ("perturbed-lagrangian-torus", {}, 1e-4),
    ]
    grid = tuple(args.grid) if args.grid else (6, 6, 6, 6)
    results = []
    for name, params, tol in cases:
        try:
            patch = patches.builtin_patch(name, params, grid_n=grid)
        except ValueError as exc:
            raise InputError(str(exc))
        try:
            inv = patches.l2_lambda_invariant(patch)
        except ambient.ChartDomainError as exc:
            raise InputError(f"patch leaves its chart: {exc}")
        entry = {"patch": name, "tolerance": tol, **inv}
        if name == "product-torus":
            # Lagrangian case: both integrals vanish individually
            entry["passed"] = bool(abs(inv["lambda_sq_integral"]) <= tol
                                   and abs(inv["half_omega_sq_integral"]) <= tol)
        else:
            entry["passed"] = bool(inv["difference"] <= tol)
        results.append(entry)
    failed = [r["patch"] for r in results if not r["passed"]]
    report = {"cases": results, "failed": failed, "all_passed": not failed}
    _emit(report, args.out)
    return 0 if not failed else CHECK_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cayley4",
        description="Cayley 4-plane analysis and submanifold verification")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze-plane", help="angle report for one plane")
    pa.add_argument("--in", dest="input", required=True,
                    help='JSON file with {"frame": [[8 floats] x 4]}')
    pa.add_argument("--phases", type=int, default=16)
    pa.add_argument("--out")
    pa.set_defaults(func=cmd_analyze_plane)

    ps = sub.add_parser("scan", help="Haar-random plane statistics")
    ps.add_argument("--n", type=int, required=True)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--tol", type=float, default=1e-8)
    ps.add_argument("--phases", type=int, default=16)
    ps.add_argument("--out")
    ps.set_defaults(func=cmd_scan)

    pc = sub.add_parser("comass", help="comass of a Cayley calibration")
    pc.add_argument("--alpha", type=float, default=0.0)
    pc.add_argument("--samples", type=int, default=100)
    pc.add_argument("--steps", type=int, default=400)
    pc.add_argument("--seed", type=int, default=0)
    pc.add_argument("--out")
    pc.set_defaults(func=cmd_comass)

    pv = sub.add_parser("verify-patch", help="run all applicable patch checks")
    pv.add_argument("--spec", help="patch spec JSON path")
    pv.add_argument("--name", help="builtin patch name")
    pv.add_argument("--ambient", choices=list(ambient.CHARTS))
    pv.add_argument("--grid", type=int, nargs=4, metavar="N")
    pv.add_argument("--tol", type=float)
    pv.add_argument("--out")
    pv.set_defaults(func=cmd_verify_patch)

    pi = sub.add_parser("invariant-suite", help="closed-patch quadrature identity")
    pi.add_argument("--grid", type=int, nargs=4, metavar="N")
    pi.add_argument("--out")
    pi.set_defaults(func=cmd_invariant_suite)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and shared by every later call."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
