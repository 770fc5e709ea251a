"""cayley4 benchmark: closed-loop workloads with checked outputs.

Usage, from the repository root:

    python3 bench/run.py --workload grid-sweep --seed 1 --seconds 40 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 40 --trace 0

One process runs one workload on one thread, one job at a time.  The run
sets up its inputs several times (setup_s is the median), then repeats
passes over the workload's jobs for about --seconds and reports the
median pass.  A fixed probe is timed ten times a second throughout, and
every reported time is scaled to a host on which that probe takes
hostspeed.PROBE_REF_S (see "Host-speed scaling" in bench/NOTES.md).
With --trace 1 untraced and traced passes alternate and the run reports
the per-layer metrics instead.  The last line of standard output is the
JSON result; per-run files (result with provenance, spans) go to
.bench_run/ at the repository root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_run"

# One BLAS thread: every workload is a single-threaded closed loop.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in BLAS_THREAD_VARS:         # before numpy loads
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402

SETUP_REPEATS = 30
MIN_PASSES = 2
END_TO_END_UNITS = {"wall_s": "s", "slowest_job_s": "s", "setup_s": "s",
                    "peak_rss_mib": "MiB"}


def _import_package() -> SimpleNamespace:
    for name in [n for n in sys.modules if n == "cayley4" or n.startswith("cayley4.")]:
        del sys.modules[name]
    importlib.import_module("cayley4")
    return SimpleNamespace(**{m: importlib.import_module(f"cayley4.{m}")
                              for m in ("cli", "patches", "ambient", "planes",
                                        "hermitian", "multilinear")})


def setup(workload: str, seed: int, work: Path):
    """Import cayley4 afresh, then draw and write the workload's inputs."""
    from workloads import make_jobs
    mods = _import_package()
    tmp = Path(tempfile.mkdtemp(dir=work))
    return make_jobs(workload, seed, mods, tmp)


def run_pass(jobs, host, tracer=None, pass_no: int = 0) -> dict:
    """Run every job once; returns per-job times and outcomes.

    A job's seconds leave out the time the host-speed probe took during it;
    start and end are its perf_counter interval, for scaling.
    """
    results = []
    for job in jobs:
        if tracer is not None:
            tracer.job = f"p{pass_no}:{job.name}"
        mark = host.mark()
        try:
            rc, payload = job.run()
            problems = job.check(rc, payload)
        except SystemExit as exc:
            rc, payload, problems = exc.code, {}, [f"exited {exc.code}"]
        except Exception as exc:       # a job that raises counts as failed
            rc, payload, problems = None, {}, [f"raised {type(exc).__name__}: {exc}"]
        results.append({"job": job.name, "seconds": host.since(mark), "start": mark[0],
                        "end": time.perf_counter(), "exit": rc, "problems": problems,
                        "payload": json.dumps(payload, sort_keys=True)})
    return {"wall_s": sum(r["seconds"] for r in results), "jobs": results}


def run_passes(jobs, host, budget: float, min_passes: int, tracer=None) -> list[dict]:
    """Passes until another one would overrun the budget (at least min_passes).

    With a tracer, passes alternate untraced / traced, starting untraced, so
    both kinds see the same warm caches and the same drift of the host.  The
    host-speed probe runs only in untraced passes.
    """
    passes = []
    t0 = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            stats = tracer.new_pass()
            tracer.install()
            try:
                p = run_pass(jobs, host, tracer, len(passes) + 1)
            finally:
                tracer.uninstall()
            stats.wall_s = p["wall_s"]
            p["stats"] = stats
        else:
            with host:
                p = run_pass(jobs, host)
        passes.append(p)
        elapsed = time.perf_counter() - t0
        typical = statistics.median(q["wall_s"] for q in passes)
        if len(passes) >= min_passes and elapsed + typical > budget:
            return passes


def judge(passes: list[dict]) -> tuple[int, int, list[str], list[dict]]:
    """(attempted, failed, unexpected problems, failures) over all passes."""
    from workloads import KNOWN_DEFECTS
    attempted = failed = 0
    unexpected, failures = [], []
    for k, p in enumerate(passes, start=1):
        for r in p["jobs"]:
            attempted += 1
            if not r["problems"]:
                continue
            failed += 1
            failures.append({"pass": k, "job": r["job"], "problems": r["problems"]})
            if r["problems"] != KNOWN_DEFECTS.get(r["job"]):
                unexpected.append(f"pass {k} {r['job']}: {'; '.join(r['problems'])}")
    return attempted, failed, unexpected, failures


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int, sizes: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):      # numpy without the dict form of show_config
        blas_name = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_name,
            "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
            "git_commit": _git_commit(), "seed": seed, "inputs": sizes}


def job_medians(passes: list[dict], key) -> dict:
    names = [r["job"] for r in passes[0]["jobs"]]
    return {n: statistics.median(key(p["jobs"][i]) for p in passes)
            for i, n in enumerate(names)}


def end_to_end_metrics(passes: list[dict], setup_s: float, peak_rss_mib: float) -> dict:
    """Medians over the passes of the scaled pass and slowest-job times."""
    job_s = [[r["scaled_s"] for r in p["jobs"]] for p in passes]
    values = {
        "wall_s": statistics.median(sum(js) for js in job_s),
        "slowest_job_s": statistics.median(max(js) for js in job_s),
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def run_workload(args) -> int:
    import tracer as tr
    OUT_DIR.mkdir(exist_ok=True)
    budget = float(args.seconds)
    host = HostSpeed()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as work:
        setups = []                          # (seconds, start, end)
        with host:
            for _ in range(SETUP_REPEATS):   # keep only the last set-up's jobs
                mark = host.mark()
                jobs, sizes = setup(args.workload, args.seed, Path(work))
                setups.append((host.since(mark), mark[0], time.perf_counter()))
        tracer = tr.Tracer() if args.trace else None
        passes = run_passes(jobs, host, budget,
                            2 * MIN_PASSES if args.trace else MIN_PASSES, tracer)
    setup_s = statistics.median(host.scaled(*s) for s in setups)
    for p in passes:
        for r in p["jobs"]:
            r["scaled_s"] = host.scaled(r["seconds"], r["start"], r["end"])
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, unexpected, failures = judge(passes)
    if args.trace:
        untraced, traced = passes[0::2], passes[1::2]
        stats = [p["stats"] for p in traced]
        reference = [r["payload"] for r in untraced[0]["jobs"]]
        for p in traced:
            for r, ref in zip(p["jobs"], reference):
                if r["payload"] != ref:
                    unexpected.append(f"traced {r['job']}: output differs from the "
                                      "untraced run")
        unexpected += [f"coverage: {c}" for c in tr.coverage_problems(args.workload, stats)]
        for c in tr.work_count_mismatches(stats):
            print(f"note: work count differs between traced passes: {c}", file=sys.stderr)
        metrics = tr.per_layer_metrics(stats, [p["wall_s"] for p in untraced])
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tr.write_spans(spans_path, stats)
    else:
        metrics = end_to_end_metrics(passes, setup_s, peak_rss_mib)

    for problem in unexpected:
        print(f"INCORRECT: {problem}", file=sys.stderr)
    prov = provenance(args.seed, sizes)
    detail = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "provenance": prov, "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_scaled_s": [sum(r["scaled_s"] for r in p["jobs"]) for p in passes],
        "pass_jobs": [[(r["seconds"], r["start"], r["end"]) for r in p["jobs"]]
                      for p in passes],
        "setups": setups,
        "probes": list(zip(host.times, host.durations)),
        "job_median_s": job_medians(passes, lambda r: r["seconds"]),
        "job_median_scaled_s": job_medians(passes, lambda r: r["scaled_s"]),
        "failures": failures, "unexpected": unexpected, "metrics": metrics,
    }
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1))

    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"passes: {len(passes)}  median pass, unscaled: "
          f"{statistics.median(p['wall_s'] for p in passes):.4f} s  probe: "
          f"{1e3 * statistics.median(host.durations):.3f} ms  "
          f"failed_frac: {failed / attempted:.4f} ({failed} of {attempted} jobs failed)")
    for job, problems in {f["job"]: f["problems"] for f in failures}.items():
        print(f"failed job: {job}: {'; '.join(problems)}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not unexpected, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, so peak_rss_mib is per workload."""
    from workloads import WORKLOADS
    correct, attempted, failed, metrics = True, 0, 0, {}
    for w in WORKLOADS:
        print(f"== {w}", flush=True)
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            print(f"{w} exited {proc.returncode}", file=sys.stderr)
            return 1
        res = json.loads(lines[-1])
        correct &= res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        metrics.update({f"{w}/{k}": v for k, v in res["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["grid-sweep", "verify-suite", "plane-stats", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "cayley4" / "__init__.py").is_file():
        print(f"error: no cayley4 sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(Path(__file__).resolve().parent)]
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
