"""Command line interface: schemas, determinism, exit codes."""

import json
import tracemalloc

import numpy as np
import pytest

from cayley4 import build_plane, realify
from cayley4.cli import CHECK_FAILURE, USAGE_ERROR, main
from cayley4.hermitian import haar_frames, phi_values
from cayley4.planes import batch_kahler_cosines


@pytest.fixture
def plane_file(tmp_path):
    u = realify(np.eye(4, dtype=complex))
    pl = build_plane(u, np.pi / 6, np.pi / 3)
    path = tmp_path / "plane.json"
    path.write_text(json.dumps({"frame": pl.frame.tolist()}))
    return str(path)


def _run_json(argv, tmp_path, name="out.json"):
    out = tmp_path / name
    rc = main(argv + ["--out", str(out)])
    return rc, json.loads(out.read_text())


def test_analyze_plane_recovers_angles(plane_file, tmp_path):
    rc, out = _run_json(["analyze-plane", "--in", plane_file], tmp_path)
    assert rc == 0
    rep = out["angle_report"]
    assert rep["theta1"] == pytest.approx(np.pi / 6, abs=1e-9)
    assert rep["theta2"] == pytest.approx(np.pi / 3, abs=1e-9)
    assert rep["classification"] == "totally_real_non_cayley"
    assert out["alpha_xi"] == pytest.approx(0.0, abs=1e-9)
    assert out["omega_xi_value"] == pytest.approx(
        np.sin(np.pi / 6) * np.sin(np.pi / 3), abs=1e-9)
    # best phase aligns with alpha_xi: Phi there is cos(theta1 - theta2)
    assert out["max_phi"] == pytest.approx(np.cos(np.pi / 6), abs=1e-6)
    assert len(out["phi_values"]) == 16


def test_analyze_plane_repairs_small_gram_drift(plane_file, tmp_path):
    data = json.loads(open(plane_file).read())
    frame = np.asarray(data["frame"])
    frame[0] *= 1.0 + 3e-8  # below the repair tolerance
    noisy = tmp_path / "noisy.json"
    noisy.write_text(json.dumps({"frame": frame.tolist()}))
    rc, out = _run_json(["analyze-plane", "--in", str(noisy)], tmp_path)
    assert rc == 0
    assert out["angle_report"]["theta1"] == pytest.approx(np.pi / 6, abs=1e-6)


def test_scan_output_schema_and_determinism(tmp_path):
    rc1, out1 = _run_json(["scan", "--n", "300", "--seed", "5"], tmp_path, "s1.json")
    rc2, out2 = _run_json(["scan", "--n", "300", "--seed", "5"], tmp_path, "s2.json")
    assert rc1 == rc2 == 0
    out1.pop("timestamp")
    out2.pop("timestamp")
    assert out1 == out2
    assert out1["n"] == 300
    assert out1["calibration_bound_ok"] is True
    assert sum(out1["theta1_histogram"]["counts"]) == 300
    assert 0.0 <= out1["cayley_fraction"] <= 1.0
    assert out1["max_phi"] <= 1.0 + 1e-9


def test_scan_different_seed_changes_sample(tmp_path):
    _, out1 = _run_json(["scan", "--n", "300", "--seed", "5"], tmp_path, "a.json")
    _, out2 = _run_json(["scan", "--n", "300", "--seed", "6"], tmp_path, "b.json")
    assert out1["max_phi"] != out2["max_phi"]


@pytest.mark.parametrize("seed", [5, 4])       # seed 4 draws one near-Cayley plane
def test_scan_over_blocks_matches_the_whole_array_route(seed, tmp_path):
    # 4097 frames: one full 4096-frame block and a last block of one frame
    rc, out = _run_json(["scan", "--n", "4097", "--seed", str(seed)], tmp_path)
    assert rc == 0
    frames = haar_frames(np.random.default_rng(seed), 4097)
    c1, c2 = batch_kahler_cosines(frames)
    theta1, theta2 = np.arccos(np.clip(c1, -1, 1)), np.arccos(np.clip(c2, -1, 1))
    gap = np.abs(theta1 - theta2)
    near = (0.5 * (c1 + c2))[gap <= 0.02]
    assert out["theta1_histogram"]["counts"] == np.histogram(
        theta1, bins=12, range=(0.0, np.pi / 2))[0].tolist()
    assert out["theta2_histogram"]["counts"] == np.histogram(
        theta2, bins=12, range=(0.0, np.pi))[0].tolist()
    assert out["cayley_fraction"] == float(np.mean(gap <= 1e-8))
    assert out["near_cayley_count"] == near.size
    assert out["lambda_near_cayley_quantiles"] == (
        [float(np.quantile(near, x)) for x in (0.0, 0.25, 0.5, 0.75, 1.0)] if near.size else [])
    phi = phi_values(frames, np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False))
    assert abs(out["max_phi"] - float(np.max(phi))) <= 1e-15


def test_scan_memory_does_not_grow_with_a_frame_stack(tmp_path):
    # blocks of 4096 frames: no (n, 4, 8) stack or (16, n) Phi array, only
    # the two (n,) cosine arrays (0.8 MiB each at n = 10^5)
    tracemalloc.start()
    try:
        rc = main(["scan", "--n", "100000", "--seed", "2", "--out", str(tmp_path / "s.json")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert peak <= 16 * 2**20


def test_comass_gates(tmp_path):
    rc, out = _run_json(["comass", "--alpha", "0.3", "--samples", "40"], tmp_path)
    assert rc == 0
    assert out["bound_ok"] is True
    assert out["refinement_ok"] is True
    assert out["comass"] == pytest.approx(1.0, abs=1e-6)
    assert out["success_rate"] >= 0.95


def test_verify_patch_schema(tmp_path):
    rc, out = _run_json(
        ["verify-patch", "--name", "product-torus", "--tol", "1e-4"], tmp_path)
    assert rc == 0
    assert out["all_passed"] is True
    names = [c["name"] for c in out["checks"]]
    assert "h_symmetric" in names
    assert "theorem_iii" in names
    assert "l2_lambda_invariant" in names
    for c in out["checks"]:
        assert isinstance(c["passed"], bool)


def test_verify_patch_runs_gamma_check_on_fs_lagrangian_torus(tmp_path):
    # the finite-difference anchor plane is Cayley only to O(fd_step^2)
    rc, out = _run_json(["verify-patch", "--name", "fs-lagrangian-torus",
                         "--grid", "5", "5", "5", "5"], tmp_path)
    assert rc == 0
    check = next(c for c in out["checks"] if c["name"] == "gamma_variants_agree")
    assert "skipped" not in check
    assert check["passed"] is True
    assert 0.0 < check["max_gap"] < 1e-4


def test_gamma_check_error_is_a_failure(tmp_path, monkeypatch):
    import cayley4.patches as patches_mod

    def breakdown(*args, **kwargs):
        raise ValueError("lambda dropped below the Cayley-frame regime")

    monkeypatch.setattr(patches_mod, "gamma_form", breakdown)
    rc, out = _run_json(["verify-patch", "--name", "lagrangian-graph"], tmp_path)
    assert rc == CHECK_FAILURE
    check = next(c for c in out["checks"] if c["name"] == "gamma_variants_agree")
    assert check["passed"] is False
    assert check["error"] == "lambda dropped below the Cayley-frame regime"
    assert "gamma_variants_agree" in out["failed"]


def test_theorem_iii_with_every_probe_masked_is_a_failure(tmp_path):
    # eps = 0.002 leaves the patch Cayley at fd_step 1e-2 but not at the
    # halved steps of Theorem III, whose tolerance shrinks as h^2
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "perturbed-real-slice", "params": {"eps": 0.002}}))
    rc, out = _run_json(["verify-patch", "--spec", str(spec)], tmp_path)
    assert rc == CHECK_FAILURE
    check = next(c for c in out["checks"] if c["name"] == "theorem_iii")
    assert check == {"name": "theorem_iii", "passed": False,
                     "error": "every probe point was masked; nothing to verify"}
    assert "theorem_iii" in out["failed"]
    assert out["all_passed"] is False


def test_verify_patch_tight_tolerance_fails(tmp_path):
    rc, out = _run_json(
        ["verify-patch", "--name", "product-torus", "--tol", "1e-16"], tmp_path)
    assert rc == CHECK_FAILURE
    assert out["all_passed"] is False


def test_verify_patch_from_spec_file(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({
        "name": "product-torus",
        "params": {"radii": [1.0, 0.8, 1.3, 0.6]},
        "grid": {"n": [6, 6, 6, 6]},
        "ambient": "flat",
    }))
    rc, out = _run_json(["verify-patch", "--spec", str(spec)], tmp_path)
    assert rc == 0
    assert out["all_passed"] is True


def test_invariant_suite_passes(tmp_path):
    rc, out = _run_json(["invariant-suite"], tmp_path)
    assert rc == 0
    assert out["all_passed"] is True
    assert out["failed"] == []
    assert len(out["cases"]) == 3


def test_stdout_emission(capsys):
    rc = main(["scan", "--n", "50", "--seed", "1"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["n"] == 50


@pytest.mark.parametrize("argv", [
    ["scan", "--n", "0"],
    ["verify-patch", "--name", "bogus"],
])
def test_usage_errors(argv, capsys):
    assert main(argv) == USAGE_ERROR
    assert "error:" in capsys.readouterr().err


def test_bad_frame_inputs(tmp_path, capsys):
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert main(["analyze-plane", "--in", str(garbled)]) == USAGE_ERROR

    wrong_shape = tmp_path / "shape.json"
    wrong_shape.write_text(json.dumps({"frame": [[1.0] * 8] * 3}))
    assert main(["analyze-plane", "--in", str(wrong_shape)]) == USAGE_ERROR

    skewed = tmp_path / "skewed.json"
    frame = np.eye(4, 8)
    frame[1, 0] = 0.5  # Gram deviation far beyond repair
    skewed.write_text(json.dumps({"frame": frame.tolist()}))
    assert main(["analyze-plane", "--in", str(skewed)]) == USAGE_ERROR
    capsys.readouterr()


def _one_line_error(capsys):
    err = capsys.readouterr().err
    return err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["scan", "--n", "10", "--phases", "0"],
    ["scan", "--n", "10", "--tol", "nan"],
    ["scan", "--n", "10", "--tol", "inf"],
    ["scan", "--n", "10", "--tol", "0"],
    ["scan", "--n", "10", "--tol=-1e-8"],
    ["analyze-plane", "--in", "PLANE", "--phases", "0"],
    ["comass", "--samples", "0"],
    ["comass", "--steps", "-1"],
    ["comass", "--alpha", "nan", "--samples", "2", "--steps", "2"],
    ["comass", "--alpha", "inf", "--samples", "2", "--steps", "2"],
    ["comass", "--alpha=-inf", "--samples", "2", "--steps", "2"],
    ["verify-patch", "--name", "affine", "--tol", "nan"],
    ["verify-patch", "--name", "affine", "--tol", "inf"],
    ["verify-patch", "--name", "affine", "--tol", "0"],
    ["scan", "--n", "10", "--seed", "-1"],
    ["comass", "--samples", "2", "--steps", "2", "--seed", "-1"],
])
def test_bad_numeric_arguments_exit_2(argv, plane_file, capsys):
    argv = [plane_file if a == "PLANE" else a for a in argv]
    assert main(argv) == USAGE_ERROR
    assert _one_line_error(capsys)


@pytest.mark.parametrize("spec", [
    {"name": "affine", "fd_step": 0},
    {"name": "affine", "fd_step": -0.01},
    {"name": "affine", "fd_step": float("nan")},
    {"name": "affine", "grid": {"n": [1, 5, 5, 5]}},
    # finite map and tangents (up to ~6e299) whose metric Gram matrix overflows
    {"name": "complex-graph", "params": {"a": 1e300}},
    # second differences overflow too, which must not warn on stderr
    {"name": "complex-graph", "params": {"a": 1e308}},
    # finite map and tangents whose second differences overflow (2 F(t) does)
    {"name": "affine", "params": {"offset": [0, 9e307, 0, 0, 0, 0, 0, 0]}},
])
def test_bad_patch_spec_exits_2(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["verify-patch", "--spec", str(path)]) == USAGE_ERROR
    assert _one_line_error(capsys)


@pytest.mark.parametrize("spec", [
    {"name": "affine", "params": {"frame": [[1, 0], [0, 1]]}},
    {"name": "affine", "params": {"offset": [1, 2]}},
    {"name": "affine", "params": [1, 2]},
    {"name": "affine", "grid": 5},
    {"name": "affine", "grid": {"n": 5}},
    {"name": "affine", "grid": {"n": ["a", 3, 3, 3]}},
    {"name": "affine", "grid": {"n": [2.5, 3, 3, 3]}},
    {"name": ["affine"]},
    {"name": "affine", "fd_step": [0.01]},
    {"name": "complex-graph", "params": {"a": [0.3]}},
    {"name": "product-torus", "params": {"radii": [1, 2]}},
    {"name": "affine", "ambient": "kahler"},
    {"name": "affine", "ambient": ["flat"]},
    {"name": "affine", "params": {"thet1": 0.3}},
    {"name": "complex-torus", "params": {"r": 5}},
    {"name": "complex-graph", "params": {"a": "0.3"}},
    {"name": "complex-graph", "params": {"a": True}},
    {"name": "affine", "params": {"offset": [0, 0, 0, 0, 0, 0, 0, True]}},
    {"name": "affine", "params": {"theta1": 1e400}},      # inf, written Infinity
    {"name": "lagrangian-graph", "params": {"amp": float("inf")}},
    {"name": "affine", "params": {"theta1": 10 ** 400}},   # an integer beyond the doubles
    {"name": "affine", "fd_step": "0.01"},
    {"name": "affine", "fd_step": True},
    {"name": "affine", "params": {"frame": np.eye(8)[::2].tolist(), "theta1": 0.3, "theta2": 1.2}},
])
def test_malformed_patch_spec_exits_2(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["verify-patch", "--spec", str(path)]) == USAGE_ERROR
    assert _one_line_error(capsys)


def test_bad_grid_on_name_path_exits_2(capsys):
    assert main(["verify-patch", "--name", "affine", "--grid", "1", "5", "5", "5"]) \
        == USAGE_ERROR
    assert _one_line_error(capsys)


def test_invariant_suite_bad_grid_exits_2(capsys):
    assert main(["invariant-suite", "--grid", "0", "5", "5", "5"]) == USAGE_ERROR
    assert _one_line_error(capsys)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_non_finite_frame_exits_2(bad, plane_file, tmp_path, capsys):
    frame = np.asarray(json.loads(open(plane_file).read())["frame"])
    frame[2, 5] = bad
    path = tmp_path / "nonfinite.json"
    path.write_text(json.dumps({"frame": frame.tolist()}))
    assert main(["analyze-plane", "--in", str(path)]) == USAGE_ERROR
    assert _one_line_error(capsys)


def test_spec_path_applies_grid_and_ambient_overrides(tmp_path, monkeypatch):
    import cayley4.cli as cli_mod

    seen = {}

    def record(patch, tol):
        seen["patch"] = patch
        return []

    monkeypatch.setattr(cli_mod, "_run_patch_checks", record)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"name": "product-torus", "grid": {"n": [9, 9, 9, 9]},
                                "ambient": "flat"}))
    rc, _ = _run_json(["verify-patch", "--spec", str(spec), "--grid", "3", "3", "3", "3",
                       "--ambient", "fubini-study"], tmp_path)
    assert rc == 0
    assert seen["patch"].grid_n == (3, 3, 3, 3)
    assert seen["patch"].chart.name == "fubini-study"
    # without the flags the spec's own fields stand
    _run_json(["verify-patch", "--spec", str(spec)], tmp_path)
    assert seen["patch"].grid_n == (9, 9, 9, 9)
    assert seen["patch"].chart.name == "flat"
    # --name is the spec {"name": ...}, overridden the same way
    _run_json(["verify-patch", "--name", "product-torus", "--grid", "3", "3", "3", "3",
               "--ambient", "fubini-study"], tmp_path)
    assert seen["patch"].grid_n == (3, 3, 3, 3)
    assert seen["patch"].chart.name == "fubini-study"


def test_patch_leaving_its_chart_exits_2(tmp_path, capsys):
    # sum(kappa) >= 1 puts the torus section outside the Fubini-Study chart
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"name": "fs-lagrangian-torus",
                                "params": {"kappa": [0.3, 0.3, 0.3, 0.2]},
                                "grid": {"n": [5, 5, 5, 5]}}))
    assert main(["verify-patch", "--spec", str(path)]) == USAGE_ERROR
    assert _one_line_error(capsys)


RANK_DEFICIENT_SPEC = {"name": "affine", "params": {"frame": [
    [1, 0, 0, 0, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0, 0, 0],
    [0, 0, 1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 1, 0, 0, 0]]}}


def test_rank_deficient_patch_exits_2(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(RANK_DEFICIENT_SPEC))
    assert main(["verify-patch", "--spec", str(path)]) == USAGE_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: patch map loses rank")
    assert err.count("\n") == 1


def _check(report: dict, name: str) -> dict:
    return next(c for c in report["checks"] if c["name"] == name)


def test_verify_patch_theorem_i_calibrated_passes(tmp_path):
    rc, out = _run_json(["verify-patch", "--name", "affine", "--grid", "3", "3", "3", "3"],
                        tmp_path)
    assert rc == 0
    check = _check(out, "theorem_i")
    assert check["passed"] is True
    assert check["branch"] == "calibrated"
    assert check["calibration_defect"] <= 1e-6


def test_verify_patch_theorem_ii_complex_passes_and_masks_gamma(tmp_path):
    rc, out = _run_json(["verify-patch", "--name", "fs-complex-slice",
                         "--grid", "3", "3", "3", "3"], tmp_path)
    assert rc == 0
    check = _check(out, "theorem_ii")
    assert check["passed"] is True
    assert check["preconditions_met"] is True
    assert check["branch"] == "complex"
    assert "note" not in check
    assert _check(out, "gamma_masking")["passed"] is True
    assert "gamma_variants_agree" not in [c["name"] for c in out["checks"]]


def test_calls_in_one_process_share_the_parser_and_nothing_else(plane_file, tmp_path,
                                                                capsys):
    import cayley4.cli as cli_mod

    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(RANK_DEFICIENT_SPEC))
    first = tmp_path / "first.json"
    assert main(["verify-patch", "--spec", str(spec), "--out", str(first)]) == USAGE_ERROR
    capsys.readouterr()
    # the second call writes to stdout: no option of the first call carries over
    assert main(["analyze-plane", "--in", plane_file, "--phases", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["angle_report"]["theta1"] == pytest.approx(np.pi / 6, abs=1e-9)
    assert len(out["phi_values"]) == 4
    assert not first.exists()
    assert cli_mod._parser() is cli_mod._parser()
