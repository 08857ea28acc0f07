"""Measure the run-to-run spread of every end-to-end metric.

Runs ``perfbench/run.py`` once per seed on each workload (one process at
a time), then reports, per workload and metric, the median of the runs
and the distance between their first and third quartiles as a share of
that median (``statistics.quantiles(values, n=4)``), next to the bound
``BENCHMARK.json`` fixes.  The same figures of the unscaled wall time
(``records_per_s`` and ``setup_s``, printed by ``run.py`` on a line of
its own) are recorded under ``unscaled``, so the reference scaling of
``perfbench/clock.py`` can be judged against plain wall clock.  The
figures are written as JSON.

    python3 perfbench/spread.py --seeds 10 --out perfbench/spread.json
    python3 perfbench/spread.py --workload geo-social --seeds 5
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __package__ in (None, ""):
    sys.path.insert(0, str(ROOT))

from perfbench.run import UNSCALED_PREFIX  # noqa: E402


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    """The run's result object and its unscaled wall figures."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed "
                           f"(exit {completed.returncode}):\n"
                           f"{completed.stdout}{completed.stderr}")
    unscaled = [line[len(UNSCALED_PREFIX):] for line in lines
                if line.startswith(UNSCALED_PREFIX)]
    return json.loads(lines[-1]), json.loads(unscaled[-1])


def spread(values: list[float]) -> dict:
    first, median, third = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return {"median": middle, "q1": first, "q3": third,
            "iqr_share": (third - first) / middle if middle else 0.0,
            "values": values}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append",
                        help="workload name (repeatable; default: all)")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    bounds = {metric["name"]: metric["bound"]
              for metric in benchmark["end_to_end"]}
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    seeds = range(1, args.seeds + 1)
    report = {"python": platform.python_version(), "nproc": os.cpu_count(),
              "run_seconds": benchmark["run_seconds"],
              "seeds": list(seeds), "workloads": {}}
    worst = 0.0
    for workload in workloads:
        runs = [run_once(workload, seed, benchmark["run_seconds"])
                for seed in seeds]
        figures = {}
        for name in bounds:
            figures[name] = spread(
                [result["metrics"][name]["value"] for result, _ in runs])
            share = figures[name]["iqr_share"]
            print(f"{workload:16s} {name:14s} median "
                  f"{figures[name]['median']:12.6g}  IQR/median "
                  f"{share:6.3f}  bound {bounds[name]:.2f}", flush=True)
            if name != "setup_s":
                worst = max(worst, share / bounds[name])
        figures["unscaled"] = {
            name: spread([unscaled[name] for _, unscaled in runs])
            for name in runs[0][1]}
        for name, figure in figures["unscaled"].items():
            print(f"{workload:16s} {name:14s} unscaled median "
                  f"{figure['median']:12.6g}  IQR/median "
                  f"{figure['iqr_share']:6.3f}", flush=True)
        report["workloads"][workload] = figures
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1, sort_keys=True)
                            + "\n", encoding="utf-8")
    print(f"widest spread / bound (setup_s excluded): {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
