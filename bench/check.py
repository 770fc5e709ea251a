"""Steadiness and repeatability check for the cayley4 benchmark.

Usage, from the repository root:

    python3 bench/check.py [--seeds 10] [--seconds N] [--workload verify-suite ...]

For each workload it runs bench/run.py untraced once per seed and prints,
for every end-to-end metric, the median and the quartile spread
(Q3 - Q1) / median over the seeds, as statistics.quantiles(n=4) gives the
quartiles, beside a third of the metric's bound in BENCHMARK.json.  It then
runs the traced benchmark twice at the first seed and checks that the work
counts agree exactly between the two processes.  Seeds are 1..--seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import WORK_COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int,
                        help="run length (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    ok = True
    for w in args.workload or WORKLOADS:
        seeds = range(1, args.seeds + 1)
        results = [run(w, s, seconds, 0) for s in seeds]
        if not all(r["correct"] for r in results):
            print(f"{w}: INCORRECT on seeds "
                  f"{[s for s, r in zip(seeds, results) if not r['correct']]}")
            ok = False
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            sp = spread(values)
            steady = sp < bound / 3
            ok &= steady or name == "setup_s"
            print(f"{w:13s} {name:14s} median {statistics.median(values):10.5g}  "
                  f"spread {sp:6.3f}  bound/3 {bound / 3:6.3f}  "
                  f"{'ok' if steady else 'WIDE'}  values {[round(v, 4) for v in values]}",
                  flush=True)
        a, b = (run(w, 1, seconds, 1) for _ in range(2))
        diff = [k for k in WORK_COUNTS if a["metrics"][k] != b["metrics"][k]]
        ok &= not diff and a["correct"] and b["correct"]
        counts = {k: a["metrics"][k]["value"] for k in WORK_COUNTS}
        print(f"{w:13s} work counts {'repeat exactly' if not diff else 'DIFFER: ' + str(diff)}"
              f"  {counts}", flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
