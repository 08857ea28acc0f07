"""Run one benchmark workload through the SenSocial program and print
its metrics by name, with units, after checking the outputs.

    python3 perfbench/run.py --workload spine-durable --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced reps.
``--trace 1`` alternates untraced and traced reps of the same seed and
reports the per-layer metrics of the traced ones, the tracing overhead,
and fails if a traced rep's outputs differ from an untraced rep's.

A rep builds the deployment from nothing, runs the workload's fixed
input to its virtual horizon and checks the outputs.  After one small
warm-up rep that pays one-off costs (imports, cached oracles), reps
repeat while one more, as long as the last, ends within ``--seconds``
(at least ``MIN_REPS``), so a run's length hardly depends on the host.  Timings
are reference-scaled (see ``perfbench/clock.py``) medians over the reps;
set-up is timed in separate samples after the reps.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if __package__ in (None, ""):
    # Run as a script: make the benchmark package importable.
    sys.path.insert(0, str(ROOT))

from perfbench.clock import ScaledClock  # noqa: E402

#: Reps (or traced pairs) measured at least, however long they take.
MIN_REPS = 2
#: Set-up samples per run, each building back-to-back as many
#: deployments as fill ``SETUP_SAMPLE_S`` (one, for the testbeds): a
#: sub-millisecond build timed alone measures mostly cold caches.
SETUP_SAMPLES = 25
SETUP_SAMPLE_S = 0.02
#: Spans kept (the first ones of the last traced rep) and written out.
KEEP_SPANS = 20_000
SPANS_DIR = HERE / "out"

END_TO_END_UNITS = {"records_per_s": "records/s", "setup_s": "s",
                    "peak_rss_mb": "MiB"}
#: Deterministic end-to-end figures, reported with the per-layer
#: metrics: equal on every run of a seed, and 0 where a workload has no
#: failures or no delivery latency, so they cannot be bounded like the
#: timed metrics.
#: Starts the line holding the unscaled wall figures of ``--trace 0``.
UNSCALED_PREFIX = "# unscaled wall "
E2E_UNITS = {"e2e.failed_ratio": "fraction", "e2e.delivery_samples": "count",
             "e2e.delivery_p50_s": "s", "e2e.delivery_p99_s": "s"}


def _commit() -> str:
    """The checkout's commit, or "unknown" outside a git repository."""
    try:
        completed = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    commit = completed.stdout.strip()
    return commit if completed.returncode == 0 and commit else "unknown"


class Tracing:
    """The recorder and wrappers of one traced rep."""

    def __init__(self):
        from perfbench import layers
        from perfbench.trace import Instrumentation, SpanRecorder

        self.recorder = SpanRecorder(keep_spans=KEEP_SPANS)
        self.world = None
        self.instrumentation = Instrumentation(self.recorder,
                                               layers.layer_of_module)
        layers.install(self.instrumentation, lambda: self.world.now)


def _rep(workload, seed: int, params: dict,
         tracing: Tracing | None = None) -> dict:
    """Build, run and check one rep."""
    from perfbench.workloads import LEVEL_COUNTERS

    gc.collect()
    setup_started = time.perf_counter()
    run = workload.build(seed, params)
    setup_wall_s = time.perf_counter() - setup_started
    before = run.counters()
    if tracing is not None:
        tracing.world = run.world
        tracing.recorder.reset()
    clock = ScaledClock()
    clock.start()
    run.execute(clock)
    clock.tick()
    rep = {"setup_wall_s": setup_wall_s, "run_s": clock.scaled,
           "run_wall_s": clock.wall}
    if tracing is not None:
        # The checks below (replay verification, fingerprints) are not
        # the workload's work: unwrap before running them.
        tracing.instrumentation.restore()
    after = run.counters()
    rep["counters"] = {name: value if name in LEVEL_COUNTERS
                       else value - before.get(name, 0)
                       for name, value in after.items()}
    rep["outcome"] = run.outcome()
    return rep


def _check(reps: list[dict], reference: dict) -> list[str]:
    """Every rep's own checks, and identical outputs for the seed."""
    problems = []
    for index, rep in enumerate(reps):
        outcome = rep["outcome"]
        problems += [f"rep {index}: {problem}"
                     for problem in outcome.problems]
        if outcome.fingerprint != reference["outcome"].fingerprint:
            problems.append(
                f"rep {index}: outputs differ from another rep of the same "
                f"seed ({outcome.fingerprint} != "
                f"{reference['outcome'].fingerprint})")
    return problems


def _delivery(outcome) -> dict[str, float]:
    """Deterministic end-to-end figures of one rep's outputs."""
    from perfbench.layers import percentile

    return {"e2e.failed_ratio": (outcome.failed / outcome.emitted
                                 if outcome.emitted else 0.0),
            "e2e.delivery_samples": float(len(outcome.latencies)),
            "e2e.delivery_p50_s": percentile(outcome.latencies, 0.50),
            "e2e.delivery_p99_s": percentile(outcome.latencies, 0.99)}


def _setup_samples(workload, seed: int,
                   one_build_s: float) -> list[tuple[float, float]]:
    """(scaled, wall) seconds per deployment of each set-up sample."""
    builds = max(1, math.ceil(SETUP_SAMPLE_S / one_build_s))
    samples = []
    for _ in range(SETUP_SAMPLES):
        gc.collect()
        setup = ScaledClock()
        setup.start()
        for _ in range(builds):
            workload.build(seed, workload.params)
        setup.tick()
        samples.append((setup.scaled / builds, setup.wall / builds))
    return samples


def _repeat(seconds: float, once) -> list:
    """Results of ``once()``, called ``MIN_REPS`` times and then again
    while a call as long as the last one still ends within ``seconds``."""
    results = []
    started = time.perf_counter()
    last = 0.0
    while (len(results) < MIN_REPS
           or time.perf_counter() - started + last <= seconds):
        mark = time.perf_counter()
        results.append(once())
        last = time.perf_counter() - mark
    return results


def run_untraced(workload, seed: int, seconds: float) -> dict:
    _rep(workload, seed, dict(workload.params, **workload.warmup))
    reps = _repeat(seconds, lambda: _rep(workload, seed, workload.params))
    setups = _setup_samples(workload, seed, statistics.median(
        rep["setup_wall_s"] for rep in reps))
    metrics = {
        "records_per_s": statistics.median(
            rep["outcome"].delivered / rep["run_s"] for rep in reps),
        "setup_s": statistics.median(scaled for scaled, _ in setups),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall = {
        "records_per_s": statistics.median(
            rep["outcome"].delivered / rep["run_wall_s"] for rep in reps),
        "setup_s": statistics.median(wall for _, wall in setups),
    }
    return {"reps": reps, "problems": _check(reps, reps[0]),
            "metrics": metrics, "wall": wall}


def run_traced(workload, seed: int, seconds: float) -> dict:
    from perfbench import layers

    _rep(workload, seed, dict(workload.params, **workload.warmup))

    def pair() -> tuple[dict, dict]:
        plain = _rep(workload, seed, workload.params)
        tracing = Tracing()
        with tracing.instrumentation:
            traced = _rep(workload, seed, workload.params, tracing)
        traced["recorder"] = tracing.recorder
        return plain, traced

    pairs = _repeat(seconds, pair)
    plain = [rep for rep, _ in pairs]
    traced = [rep for _, rep in pairs]
    per_rep = [layers.layer_metrics(rep["recorder"], rep["counters"],
                                    rep["run_wall_s"] * 1e9,
                                    rep["run_s"] / rep["run_wall_s"])
               for rep in traced]
    metrics = {name: statistics.median(values[name] for values in per_rep)
               for name in per_rep[0]}
    metrics["trace.overhead"] = (
        statistics.median(rep["run_s"] for rep in traced)
        / statistics.median(rep["run_s"] for rep in plain))
    metrics.update(_delivery(plain[0]["outcome"]))
    return {"reps": plain + traced,
            "problems": _check(plain + traced, plain[0]),
            "metrics": metrics, "spans": traced[-1]["recorder"].spans}


def _write_spans(spans: list[tuple], path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for span_id, parent, layer, name, start, end, self_ns in spans:
            handle.write(json.dumps(
                {"id": span_id, "parent": parent, "layer": layer,
                 "name": name, "start_ns": start, "end_ns": end,
                 "self_ns": self_ns}) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        print(f"no SenSocial sources under {source}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(source), str(ROOT)]
    from perfbench.layers import per_layer_units
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    provenance = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "params": workload.params, "horizon_s": workload.horizon_s,
        "loads": workload.loads, "bypasses": workload.bypasses,
        "commit": _commit(), "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }
    print("# run " + json.dumps(provenance, sort_keys=True))
    if args.trace:
        result = run_traced(workload, args.seed, args.seconds)
        units = per_layer_units() | E2E_UNITS
        _write_spans(result["spans"], SPANS_DIR /
                     f"{workload.name}-seed{args.seed}.spans.jsonl")
    else:
        result = run_untraced(workload, args.seed, args.seconds)
        units = END_TO_END_UNITS

    reps = result["reps"]
    first = reps[0]["outcome"]
    figures = _delivery(first)
    print(f"reps {len(reps)}: {first.emitted} records emitted, "
          f"{first.delivered} delivered per rep; failures "
          + json.dumps(first.breakdown, sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"{name:36s} {value:14.6g} {units[name]}")
    if not args.trace:
        # One parseable line, read by spread.py next to the scaled
        # figures of the last line.
        print(UNSCALED_PREFIX + json.dumps(result["wall"]))
        if first.latencies:
            for name in ("e2e.delivery_p50_s", "e2e.delivery_p99_s"):
                print(f"{name[4:]:36s} {figures[name]:14.6g} virtual s "
                      f"({len(first.latencies)} samples)")
        print(f"{'failed_ratio':36s} {figures['e2e.failed_ratio']:14.6g} "
              f"fraction ({first.failed} of {first.emitted})")
    problems = result["problems"]
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print("checks " + ("ok" if not problems else f"{len(problems)} failed"))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(rep["outcome"].emitted for rep in reps),
        "failed": sum(rep["outcome"].failed for rep in reps),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
