"""The benchmark's own guarantees: traced reps observe without perturbing,
and ``BENCHMARK.json`` names exactly what ``run.py`` prints.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json

import pytest

from perfbench import run
from perfbench.layers import LAYERS, per_layer_units
from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_rep_matches_untraced(name):
    workload = WORKLOADS[name]
    params = dict(workload.params, **workload.warmup)
    plain = run._rep(workload, 3, params)
    tracing = run.Tracing()
    with tracing.instrumentation:
        traced = run._rep(workload, 3, params, tracing)
    assert plain["outcome"].problems == []
    assert traced["outcome"].fingerprint == plain["outcome"].fingerprint
    assert traced["counters"] == plain["counters"]
    layer_self = tracing.recorder.layer_self()
    assert layer_self.get("simkit", 0) > 0
    assert set(layer_self) <= set(LAYERS) | {"bench", "faults"}


def test_benchmark_json_matches_the_runner():
    document = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    assert set(document) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert [w["name"] for w in document["workloads"]] == list(WORKLOADS)
    for entry in document["workloads"]:
        workload = WORKLOADS[entry["name"]]
        assert len(entry["why"]) <= 200
        assert entry["why"].endswith(
            f"; loads {workload.loads}; bypasses {workload.bypasses}")
    assert {m["name"]: m["unit"] for m in document["end_to_end"]} \
        == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in document["per_layer"]} \
        == per_layer_units() | run.E2E_UNITS
    assert all(0 < m["bound"] <= 0.25 for m in document["end_to_end"])
