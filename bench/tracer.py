"""Span tracing of cayley4 from outside the package.

`Tracer.install` replaces each public function or method named in LAYERS
with a wrapper, in every cayley4 module namespace that binds it (names
brought in by `from .x import y` are separate bindings), and `uninstall`
puts the originals back.  Nothing inside the package changes.

Kinds of wrapped name:
  span   a span record (name, label, start, end, parent span, job) kept in
         memory, plus calls and self time;
  timed  calls and self time only, for leaves called tens of thousands of
         times a pass;
  count  calls (and rows) only.
Self time is a call's duration minus the time of the wrapped calls directly
inside it, so the self times of one pass add up to the time spent inside
wrapped calls.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = {
    "multilinear": [("interior_product", "timed"), ("evaluate_frames", "timed"),
                    ("hodge_star_plane", "span"), ("restrict_matrix", "count")],
    "hermitian": [("haar_frames", "span"), ("phi_values", "span"),
                  ("omega0_values", "span"), ("wirtinger_values", "span"),
                  ("comass_detail", "span")],
    "planes": [("batch_kahler_cosines", "span"), ("canonical_form", "span"),
               ("omega_xi", "span")],
    "ambient": [("KahlerChart.hermitian_at", "count"),
                ("KahlerChart.christoffel_at", "span"),
                ("KahlerChart.ricci_form_at", "span"), ("einstein_report", "span")],
    "patches": [("Patch.evaluate", "count"), ("_point_geometry", "span"),
                ("point_report", "span"), ("gamma_form", "span"),
                ("UnitaryFrameField.unitary_frame", "span"),
                ("verify_h_symmetry", "span"), ("coclosure_residual", "span"),
                ("verify_theorem_i", "span"), ("verify_theorem_ii", "span"),
                ("verify_theorem_iii", "span"), ("l2_lambda_invariant", "span")],
    "cli": [("main", "span"), ("_emit", "span")],
}

# Names each workload must call at least once (the layer predictions in
# NOTES.md); the coverage check fails a traced run that misses one.
_PATCH_GRID = {"patches.evaluate", "patches._point_geometry", "patches.point_report",
               "ambient.hermitian_at", "ambient.christoffel_at",
               "planes.batch_kahler_cosines", "multilinear.hodge_star_plane",
               "multilinear.restrict_matrix", "hermitian.omega0_values",
               "hermitian.wirtinger_values", "cli.main", "cli._emit"}
EXPECTED_ACTIVE = {
    "grid-sweep": _PATCH_GRID | {"patches.verify_theorem_i", "patches.verify_theorem_ii",
                                 "patches.l2_lambda_invariant", "ambient.ricci_form_at",
                                 "ambient.einstein_report"},
    "verify-suite": _PATCH_GRID | {f"patches.{n}" for n in (
        "gamma_form", "unitary_frame", "verify_h_symmetry", "coclosure_residual",
        "verify_theorem_i", "verify_theorem_ii", "verify_theorem_iii",
        "l2_lambda_invariant")} | {"ambient.ricci_form_at", "ambient.einstein_report",
                                   "planes.canonical_form"},
    "plane-stats": {"multilinear.interior_product", "multilinear.evaluate_frames",
                    "multilinear.restrict_matrix", "hermitian.haar_frames",
                    "hermitian.phi_values", "hermitian.omega0_values",
                    "hermitian.wirtinger_values", "hermitian.comass_detail",
                    "planes.batch_kahler_cosines", "planes.canonical_form",
                    "planes.omega_xi", "cli.main", "cli._emit"},
}

# Success criterion of a comass ascent start, as the comass subcommand uses it.
COMASS_SUCCESS_LEVEL = 1.0 - 1e-6


def short_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.rsplit('.', 1)[-1]}"


def _leading_rows(x, trailing: int) -> int:
    shape = np.shape(x)
    return int(np.prod(shape[:-trailing])) if len(shape) > trailing else 1


# Work units beyond calls, taken from (args, kwargs, result) of a call.
def _units_evaluate(args, kwargs, result):
    return {"rows": _leading_rows(args[1] if len(args) > 1 else kwargs["t"], 1)}


def _units_frames(args, kwargs, result):
    return {"frames": _leading_rows(args[0] if args else kwargs["frames"], 2)}


def _units_comass(args, kwargs, result):
    finals = np.asarray(result["final_values"])
    return {"starts": int(finals.size),
            "successes": int(np.sum(finals >= COMASS_SUCCESS_LEVEL))}


def _units_theorem_iii(args, kwargs, result):
    return {"probes": result.n_probes, "masked": result.n_masked}


UNITS = {
    "patches.evaluate": _units_evaluate,
    "planes.batch_kahler_cosines": _units_frames,
    "hermitian.phi_values": _units_frames,
    "hermitian.comass_detail": _units_comass,
    "patches.verify_theorem_iii": _units_theorem_iii,
}


class PassStats:
    """Calls, self and inclusive time, and work units of one traced pass."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.units = defaultdict(int)            # "<name>.<unit>" -> count
        self.spans: list[list] = []
        self.wall_s = 0.0


class Tracer:
    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self._stack: list[list] = []             # [start, child time, span id]
        self.stats = PassStats()
        self.job = ""
        self._unitary_depth = 0

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = {n: m for n, m in sys.modules.items()
                if n == "cayley4" or n.startswith("cayley4.")}
        for layer, entries in LAYERS.items():
            module = mods[f"cayley4.{layer}"]
            for attr, kind in entries:
                name = short_name(layer, attr)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    orig = cls.__dict__[meth]
                    self._replace(cls, meth, self._wrap(name, kind, orig))
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(name, kind, orig)
                for mod in mods.values():
                    for binding, value in list(vars(mod).items()):
                        if value is orig:
                            self._replace(mod, binding, wrapper)

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def new_pass(self) -> PassStats:
        self.stats = PassStats()
        return self.stats

    # -- wrappers --------------------------------------------------------------

    def _wrap(self, name: str, kind: str, fn):
        units = UNITS.get(name)
        if kind == "count":
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                st = self.stats
                st.calls[name] += 1
                if units is not None:
                    for unit, n in units(args, kwargs, None).items():
                        st.units[f"{name}.{unit}"] += n
                return fn(*args, **kwargs)
            return counted

        keep_span = kind == "span"
        is_unitary = name == "patches.unitary_frame"
        is_geometry = name == "patches._point_geometry"
        is_main = name == "cli.main"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = self.stats
            stack = self._stack
            if is_geometry and self._unitary_depth:
                st.units["patches.unitary_frame.geometry"] += 1
            span_id = -1
            if keep_span:
                parent = next((f[2] for f in reversed(stack) if f[2] >= 0), -1)
                label = str(args[0][0]) if is_main and args and args[0] else ""
                span_id = len(st.spans)
                st.spans.append([name, label, 0.0, 0.0, parent, self.job])
            if is_unitary:
                self._unitary_depth += 1
            frame = [time.perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if is_unitary:
                    self._unitary_depth -= 1
                dur = end - frame[0]
                st.calls[name] += 1
                st.total_s[name] += dur
                st.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if keep_span:
                    st.spans[span_id][2:4] = [frame[0], end]
            if units is not None:
                for unit, n in units(args, kwargs, result).items():
                    st.units[f"{name}.{unit}"] += n
            return result
        return traced


# ---------------------------------------------------------------------------
# Per-layer metrics from traced passes
# ---------------------------------------------------------------------------

def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def all_names() -> list[tuple[str, str]]:
    return [(short_name(layer, attr), kind)
            for layer, entries in LAYERS.items() for attr, kind in entries]


WORK_COUNTS = ("patches.evaluate.calls", "patches.evaluate.rows",
               "ambient.hermitian_at.calls", "patches._point_geometry.calls",
               "patches.point_report.calls", "hermitian.comass_detail.starts",
               "planes.batch_kahler_cosines.frames")


def per_layer_metrics(passes: list[PassStats], untraced_wall: list[float]) -> dict:
    """Counts from the first traced pass, times as medians over the passes."""
    first = passes[0]
    m: dict[str, tuple[float, str]] = {}
    for name, kind in all_names():
        m[f"{name}.calls"] = (first.calls[name], "count")
        if kind != "count":
            m[f"{name}.self_s"] = (_median([p.self_s[name] for p in passes]), "s")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (_median([
            sum(v for k, v in p.self_s.items() if k.startswith(layer + "."))
            for p in passes]), "s")

    def total(name):
        return _median([p.total_s[name] for p in passes])

    u = first.units
    m["patches.evaluate.rows"] = (u["patches.evaluate.rows"], "count")
    m["patches.point_report.us_per_call"] = (
        1e6 * _ratio(total("patches.point_report"), first.calls["patches.point_report"]), "us")
    m["patches.unitary_frame.geometry_per_call"] = (
        _ratio(u["patches.unitary_frame.geometry"], first.calls["patches.unitary_frame"]),
        "count")
    m["patches.verify_theorem_iii.masked_ratio"] = (
        _ratio(u["patches.verify_theorem_iii.masked"], u["patches.verify_theorem_iii.probes"]),
        "ratio")
    m["ambient.christoffel_at.us_per_call"] = (
        1e6 * _ratio(total("ambient.christoffel_at"), first.calls["ambient.christoffel_at"]),
        "us")
    m["planes.batch_kahler_cosines.frames"] = (u["planes.batch_kahler_cosines.frames"], "count")
    m["planes.batch_kahler_cosines.us_per_frame"] = (
        1e6 * _ratio(total("planes.batch_kahler_cosines"),
                     u["planes.batch_kahler_cosines.frames"]), "us")
    m["hermitian.phi_values.us_per_frame"] = (
        1e6 * _ratio(total("hermitian.phi_values"), u["hermitian.phi_values.frames"]), "us")
    m["hermitian.comass_detail.starts"] = (u["hermitian.comass_detail.starts"], "count")
    m["hermitian.comass_detail.s_per_start"] = (
        _ratio(total("hermitian.comass_detail"), u["hermitian.comass_detail.starts"]), "s")
    m["hermitian.comass_detail.success_ratio"] = (
        _ratio(u["hermitian.comass_detail.successes"], u["hermitian.comass_detail.starts"]),
        "ratio")
    m["trace.spans"] = (len(first.spans), "count")
    m["trace.overhead_s"] = (
        _median([p.wall_s for p in passes]) - _median(untraced_wall), "s")
    return {k: {"value": float(v), "unit": unit} for k, (v, unit) in m.items()}


def coverage_problems(workload: str, passes: list[PassStats]) -> list[str]:
    expected = EXPECTED_ACTIVE[workload]
    known = {name for name, _ in all_names()}
    problems = [f"{n} is not a wrapped name" for n in sorted(expected - known)]
    problems += [f"{n} recorded no call" for n in sorted(expected & known)
                 if passes[0].calls[n] == 0]
    return problems


def _work_count(p: PassStats, key: str) -> int:
    if key.endswith(".calls"):
        return p.calls[key.removesuffix(".calls")]
    return p.units[key]


def work_count_mismatches(passes: list[PassStats]) -> list[str]:
    return [f"{key}: pass 1 {_work_count(passes[0], key)}, pass {k} {_work_count(p, key)}"
            for k, p in enumerate(passes[1:], start=2) for key in WORK_COUNTS
            if _work_count(p, key) != _work_count(passes[0], key)]


def write_spans(path: Path, passes: list[PassStats]) -> None:
    """One JSON line per span: pass, name, label, start, end, parent, job."""
    with open(path, "w") as fh:
        for k, p in enumerate(passes, start=1):
            for name, label, start, end, parent, job in p.spans:
                fh.write(json.dumps([k, name, label, start, end, parent, job]) + "\n")
