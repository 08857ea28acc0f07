"""Span recorder and per-layer ledger, attached to the program from outside.

The recorder keeps a stack of open spans.  Closing a span charges its
duration to its parent, so each span's *self time* is its duration
minus the time covered by its child spans, and the self times of all
spans sum to the time covered by the top-level spans.  The clock is
injectable (``perf_counter_ns`` by default) so the arithmetic can be
tested against a scripted clock.

:class:`Instrumentation` wraps public entry points of the program's
classes (and the callbacks handed to registration points such as
``Scheduler.schedule_at``) so that every call opens a span for the
wrapped layer.  It restores every attribute it replaced on exit; the
program itself is never edited and never reads the recorder.
"""

from __future__ import annotations

import time
from typing import Any, Callable

_MISSING = object()


class SpanRecorder:
    """Nested spans with parent links and self-time accounting."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns,
                 keep_spans: int = 0):
        self.clock = clock
        #: How many closed spans to keep as records (the first ones).
        self.keep_spans = keep_spans
        self.reset()

    def reset(self) -> None:
        """Forget all totals and kept spans (no span may be open)."""
        if getattr(self, "_stack", None):
            raise RuntimeError("cannot reset with open spans")
        #: Open frames: [layer, name, start, child_time, span_id, parent_id].
        self._stack: list[list] = []
        self._next_id = 0
        #: (layer, name) -> [calls, self_time]; a call nested directly
        #: in a span of the same (layer, name) is not counted again.
        self.stats: dict[tuple[str, str], list[int]] = {}
        #: Sum of top-level span durations (== sum of all self times).
        self.covered = 0
        self.span_count = 0
        #: Kept spans: (span_id, parent_id, layer, name, start, end, self).
        self.spans: list[tuple] = []
        #: Extra counts that probes add (e.g. ids per dedup batch).
        self.counts: dict[str, int] = {}
        #: Virtual-time samples that probes add (e.g. queue waits).
        self.samples: dict[str, list[float]] = {}

    @property
    def depth(self) -> int:
        return len(self._stack)

    def enter(self, layer: str, name: str) -> None:
        self._next_id += 1
        stack = self._stack
        parent_id = stack[-1][4] if stack else 0
        stack.append([layer, name, self.clock(), 0, self._next_id,
                      parent_id])

    def exit(self) -> None:
        end = self.clock()
        stack = self._stack
        frame = stack.pop()
        layer, name, start, child, span_id, parent_id = frame
        duration = end - start
        self_time = duration - child
        nested = False
        if stack:
            parent = stack[-1]
            parent[3] += duration
            nested = parent[0] == layer and parent[1] == name
        else:
            self.covered += duration
        key = (layer, name)
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0]
        if not nested:
            entry[0] += 1
        entry[1] += self_time
        self.span_count += 1
        if len(self.spans) < self.keep_spans:
            self.spans.append((span_id, parent_id, layer, name, start, end,
                               self_time))

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # -- reading the ledger --------------------------------------------

    def layer_self(self) -> dict[str, int]:
        """Self time per layer, in clock units."""
        totals: dict[str, int] = {}
        for (layer, _name), (_calls, self_time) in self.stats.items():
            totals[layer] = totals.get(layer, 0) + self_time
        return totals

    def calls(self, layer: str, name: str) -> int:
        entry = self.stats.get((layer, name))
        return entry[0] if entry is not None else 0

    def self_time(self, layer: str, name: str) -> int:
        entry = self.stats.get((layer, name))
        return entry[1] if entry is not None else 0


class Instrumentation:
    """Wraps class attributes with span-recording shims; a context
    manager that restores every wrapped attribute on exit."""

    def __init__(self, recorder: SpanRecorder,
                 layer_of_module: Callable[[str], str]):
        self.recorder = recorder
        self._layer_of_module = layer_of_module
        self._saved: list[tuple[type, str, Any]] = []
        self._callback_names: dict[Any, tuple[str, str]] = {}

    # -- lifetime ------------------------------------------------------

    def __enter__(self) -> "Instrumentation":
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Put back every original attribute, newest wrap first."""
        while self._saved:
            cls, attr, original = self._saved.pop()
            if original is _MISSING:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)

    def _replace(self, cls: type, attr: str, wrapper: Any) -> None:
        self._saved.append((cls, attr, cls.__dict__.get(attr, _MISSING)))
        setattr(cls, attr, wrapper)

    # -- method wrappers -----------------------------------------------

    def wrap(self, cls: type, attr: str, layer: str, name: str | None = None,
             probe: Callable[..., None] | None = None) -> None:
        """Time every call of ``cls.attr`` as a ``layer`` span.

        ``probe(recorder, args, result)`` runs inside the span after a
        successful call, to add counts or samples to the recorder."""
        original = getattr(cls, attr)
        name = name or attr
        recorder = self.recorder
        enter, exit_ = recorder.enter, recorder.exit

        if probe is None:
            def wrapper(*args, **kwargs):
                enter(layer, name)
                try:
                    return original(*args, **kwargs)
                finally:
                    exit_()
        else:
            def wrapper(*args, **kwargs):
                enter(layer, name)
                try:
                    result = original(*args, **kwargs)
                    probe(recorder, args, result)
                    return result
                finally:
                    exit_()
        wrapper.__wrapped__ = original
        self._replace(cls, attr, wrapper)

    def wrap_iterator(self, cls: type, attr: str, layer: str, name: str,
                      count: str | None = None) -> None:
        """Time each resume of a generator method (a lazy cursor's work
        happens while it is iterated, not when it is created).  Spans
        open and close within one resume, so they nest correctly."""
        original = getattr(cls, attr)
        recorder = self.recorder
        enter, exit_ = recorder.enter, recorder.exit

        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                enter(layer, name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    exit_()
                if count is not None:
                    recorder.count(count)
                yield item
        wrapper.__wrapped__ = original
        self._replace(cls, attr, wrapper)

    # -- callbacks -----------------------------------------------------

    def callback_name(self, fn: Callable) -> tuple[str, str]:
        """(layer, name) of a callback, from the module that defines it."""
        target = fn
        owner = getattr(fn, "__self__", None)
        if owner is not None and type(owner).__name__ == "PeriodicTask":
            # A periodic task's firing shim does the callback's work.
            target = owner._fn
        target = getattr(target, "__func__", target)
        key = getattr(target, "__code__", target)
        names = self._callback_names.get(key)
        if names is None:
            module = getattr(target, "__module__", None) \
                or type(target).__module__
            qualname = getattr(target, "__qualname__", None) \
                or type(target).__qualname__
            names = (self._layer_of_module(module), qualname)
            self._callback_names[key] = names
        return names

    def bind(self, fn: Callable) -> Callable:
        """``fn`` wrapped so that calling it opens its layer's span."""
        layer, name = self.callback_name(fn)
        recorder = self.recorder
        enter, exit_ = recorder.enter, recorder.exit

        def traced(*args, **kwargs):
            enter(layer, name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()
        return traced

    def wrap_registration(self, cls: type, attr: str, position: int,
                          layer: str | None = None) -> None:
        """Wrap the callback argument at ``position`` (counting ``self``
        as 0) of ``cls.attr`` with :meth:`bind`.  With ``layer`` given,
        the registration call itself is also timed as a span."""
        original = getattr(cls, attr)
        bind = self.bind
        enter, exit_ = self.recorder.enter, self.recorder.exit

        if layer is None:
            def wrapper(*args, **kwargs):
                args = (args[:position] + (bind(args[position]),)
                        + args[position + 1:])
                return original(*args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                # Bind outside the span: the recorder's own work is not
                # the registering layer's.
                args = (args[:position] + (bind(args[position]),)
                        + args[position + 1:])
                enter(layer, attr)
                try:
                    return original(*args, **kwargs)
                finally:
                    exit_()
        wrapper.__wrapped__ = original
        self._replace(cls, attr, wrapper)
