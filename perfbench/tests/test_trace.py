"""Self-time and nesting arithmetic of the span recorder, against a
scripted clock, and how the instrumentation wraps and restores.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import pytest

from perfbench.layers import layer_of_module
from perfbench.trace import Instrumentation, SpanRecorder


class ScriptedClock:
    """Returns the scripted readings in order; fails when they run out."""

    def __init__(self, readings):
        self._readings = list(readings)

    def __call__(self) -> int:
        if not self._readings:
            raise AssertionError("clock read more often than scripted")
        return self._readings.pop(0)


def recorder_with(readings, keep_spans=100):
    return SpanRecorder(clock=ScriptedClock(readings), keep_spans=keep_spans)


def test_self_time_excludes_children():
    # a [0, 100) contains b [10, 40) and c [50, 90); c contains d [60, 70)
    recorder = recorder_with([0, 10, 40, 50, 60, 70, 90, 100])
    recorder.enter("server", "a")
    recorder.enter("docstore", "b")
    recorder.exit()
    recorder.enter("journal", "c")
    recorder.enter("docstore", "d")
    recorder.exit()
    recorder.exit()
    recorder.exit()
    assert recorder.self_time("server", "a") == 100 - 30 - 40
    assert recorder.self_time("docstore", "b") == 30
    assert recorder.self_time("journal", "c") == 40 - 10
    assert recorder.self_time("docstore", "d") == 10
    assert recorder.layer_self() == {"server": 30, "docstore": 40,
                                     "journal": 30}
    # Self times partition the top-level span exactly.
    assert sum(recorder.layer_self().values()) == recorder.covered == 100


def test_parent_links_and_span_records():
    recorder = recorder_with([0, 5, 7, 9])
    recorder.enter("mqtt", "route")
    recorder.enter("net", "send")
    recorder.exit()
    recorder.exit()
    child, parent = recorder.spans
    assert parent[:4] == (1, 0, "mqtt", "route")
    assert child[:4] == (2, 1, "net", "send")
    assert (child[4], child[5], child[6]) == (5, 7, 2)
    assert (parent[4], parent[5], parent[6]) == (0, 9, 7)


def test_kept_spans_are_bounded():
    recorder = recorder_with(range(8), keep_spans=2)
    for _ in range(4):
        recorder.enter("simkit", "pop")
        recorder.exit()
    assert len(recorder.spans) == 2
    assert recorder.span_count == 4
    assert recorder.calls("simkit", "pop") == 4


def test_directly_nested_same_operation_counts_once():
    # find_one -> find: one query, two spans of the same name.
    recorder = recorder_with([0, 2, 8, 10, 20, 25])
    recorder.enter("docstore", "find")
    recorder.enter("docstore", "find")
    recorder.exit()
    recorder.exit()
    recorder.enter("docstore", "find")
    recorder.exit()
    assert recorder.calls("docstore", "find") == 2
    assert recorder.self_time("docstore", "find") == 10 + 5


def test_top_level_spans_sum_into_covered():
    recorder = recorder_with([0, 4, 10, 13])
    recorder.enter("net", "send")
    recorder.exit()
    recorder.enter("device", "read")
    recorder.exit()
    assert recorder.covered == 4 + 3


def test_reset_refuses_open_spans():
    recorder = recorder_with([0])
    recorder.enter("simkit", "pop")
    with pytest.raises(RuntimeError):
        recorder.reset()


class Store:
    def insert(self, document):
        return self.index(document) + 1

    def index(self, document):
        return len(document)

    def scan(self, items):
        yield from items


class Fast(Store):
    pass


def test_wraps_time_calls_and_restore_originals():
    recorder = recorder_with([0, 1, 3, 6, 10, 11, 12, 13, 14, 15])
    originals = dict(Store.__dict__)
    with Instrumentation(recorder, layer_of_module) as wrapped:
        wrapped.wrap(Store, "insert", "docstore")
        wrapped.wrap(Store, "index", "docstore", "index")
        wrapped.wrap(Fast, "insert", "server", "fast_insert")
        assert Store().insert({"a": 1}) == 2       # reads 0, 1, 3, 6
        # Fast.insert wraps the already wrapped Store.insert, so the
        # chain is server -> docstore insert -> docstore index.
        assert Fast().insert({}) == 1              # reads 10..15
    assert recorder.self_time("docstore", "index") == 2 + 1
    assert recorder.self_time("docstore", "insert") == (6 - 2) + (3 - 1)
    assert recorder.self_time("server", "fast_insert") == 5 - 3
    assert dict(Store.__dict__) == originals
    assert "insert" not in Fast.__dict__


def test_iterator_resumes_are_spans():
    recorder = recorder_with(range(100))
    with Instrumentation(recorder, layer_of_module) as wrapped:
        wrapped.wrap_iterator(Store, "scan", "docstore", "cursor",
                              count="results")
        assert list(Store().scan([1, 2, 3])) == [1, 2, 3]
    # Three yields plus the final StopIteration resume.
    assert recorder.calls("docstore", "cursor") == 4
    assert recorder.counts == {"results": 3}
    assert recorder.depth == 0


def test_callbacks_take_the_layer_of_their_module():
    from repro.simkit.world import World

    recorder = SpanRecorder()
    fired = []
    with Instrumentation(recorder, layer_of_module) as wrapped:
        from repro.simkit.scheduler import Scheduler
        wrapped.wrap_registration(Scheduler, "schedule_at", 2,
                                  layer="simkit")
        world = World(seed=1)
        world.scheduler.schedule_at(1.0, fired.append, "x")
        world.scheduler.every(5.0, lambda: fired.append("tick"))
        world.run_until(6.0)
    assert fired == ["tick", "x", "tick"]
    names = {name for (_layer, name) in recorder.stats}
    assert "schedule_at" in names
    assert recorder.calls("bench", "list.append") == 1
    # A periodic task's firing is attributed to its callback's module.
    tick = [key for key in recorder.stats if "<lambda>" in key[1]]
    assert tick and tick[0][0] == "bench"
    assert not hasattr(Scheduler.schedule_at, "__wrapped__")


def test_layer_of_module_prefers_longest_prefix():
    assert layer_of_module("repro.core.server.dedup") == "dedup"
    assert layer_of_module("repro.core.server.manager") == "server"
    assert layer_of_module("repro.durability.journal") == "journal"
    assert layer_of_module("repro.durability.controller") == "durability"
    assert layer_of_module("repro.sensing.manager") == "device"
    assert layer_of_module("perfbench.workloads") == "bench"
