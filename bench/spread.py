"""Run a workload once per seed and report each metric's spread across the runs.

    python3 bench/spread.py --workload sim-long --seeds 1 2 3 4 5
    python3 bench/spread.py --workload all --seeds 1 2 3 4 5 6 7 8 9 10

Each run is ``bench/run.py`` with BENCHMARK.json's ``run_seconds``.  For
every end-to-end metric the table gives the median and quartiles of the
runs, the spread (q3 - q1) / median, and the metric's bound; a spread at or
under a third of its bound is steady.  The runs and the table also go to
``bench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    args = parser.parse_args(argv)

    OUT.mkdir(exist_ok=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in names if args.workload == "all" else [args.workload]:
        runs = []
        for seed in args.seeds:
            cmd = ["python3", *spec["command"][1:], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return 1
            result = json.loads(done.stdout.splitlines()[-1])
            runs.append({"seed": seed, **result})
            print(f"{workload} seed {seed}: failed {result['failed']} of {result['attempted']}, "
                  + ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                  flush=True)
        table = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / q2 if q2 else float("nan")
            bound = bounds.get(name)
            table[name] = {"q1": q1, "median": q2, "q3": q3, "spread": spread, "bound": bound}
            verdict = ""
            if bound is not None and name != "setup_s":
                verdict = ("steady" if spread <= bound / 3
                           else "within bound" if spread <= bound else "TOO WIDE")
                steady = steady and spread <= bound
            print(f"  {workload:12s} {name:36s} median {q2:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  "
                  f"spread {spread:7.4f}  bound {bound}  {verdict}")
        (OUT / f"spread-{workload}.json").write_text(
            json.dumps({"runs": runs, "table": table}, indent=1))
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
