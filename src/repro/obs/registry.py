"""The telemetry registry: named counters, gauges and histograms.

Every metric is identified by a name plus a sorted label set, so one
logical series ("records_transmitted") fans out into labeled children
(per device, per modality, per topic) without the call sites managing
dictionaries themselves.  All metrics are plain Python objects with
O(1) update paths — cheap enough to leave enabled — and time always
comes from the caller (the virtual clock), never the wall clock, so
instrumented runs stay deterministic.
"""

from __future__ import annotations

import re
from typing import Iterator

#: Label sets are canonicalised to sorted tuples so the same labels in
#: any order address the same series.
LabelSet = tuple[tuple[str, str], ...]

_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Quantiles reported by histogram summaries and the Prometheus dump.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


def _labelset(labels: dict[str, object]) -> LabelSet:
    return tuple(sorted((key, str(value)) for key, value in labels.items()))


def _prom_name(name: str) -> str:
    return _PROM_NAME_RE.sub("_", name)


def escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus exposition format.

    Backslash, double-quote and newline are the three characters the
    format reserves inside a quoted label value; anything else passes
    through verbatim.  Order matters: the backslash must be doubled
    first or the escapes it introduces would themselves be escaped.
    """
    return (value.replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _prom_labels(labels: LabelSet, extra: tuple[tuple[str, str], ...] = ()) -> str:
    items = labels + extra
    if not items:
        return ""
    body = ",".join(f'{_prom_name(key)}="{escape_label_value(value)}"'
                    for key, value in items)
    return "{" + body + "}"


class Metric:
    """Base class: a named, labeled series in the registry."""

    kind = "metric"

    def __init__(self, name: str, labels: LabelSet):
        self.name = name
        self.labels = labels

    def label_dict(self) -> dict[str, str]:
        return dict(self.labels)


class Counter(Metric):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name: str, labels: LabelSet):
        super().__init__(name, labels)
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        self.value += amount


class Gauge(Metric):
    """A value that can go up and down (queue depths, connections).

    The high-water mark (``peak``) is tracked alongside the current
    value: sampled gauges like ``cluster_work_skew`` are only as
    current as their last update, and capacity decisions (did a shard
    ever run hot?) need the worst value seen, not the final one.
    """

    kind = "gauge"

    def __init__(self, name: str, labels: LabelSet):
        super().__init__(name, labels)
        self.value = 0.0
        self.peak = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.peak:
            self.peak = value

    def inc(self, amount: float = 1.0) -> None:
        self.set(self.value + amount)

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def read_and_reset_peak(self) -> float:
        """Return the high-water mark and reset it to the current value.

        Periodic samplers (the SLO evaluator, capacity dashboards) call
        this once per window so each window sees its *own* worst value
        instead of a peak that only ever grows for the lifetime of the
        run.  The peak can never fall below the current value, so the
        reset floor is ``value``, not zero.
        """
        peak = self.peak
        self.peak = self.value
        return peak


class Histogram(Metric):
    """A distribution of observed values with quantile summaries.

    Observations are kept so per-run reports can compute real
    percentiles rather than bucket approximations.  Past
    ``max_samples`` the retained set is thinned by a deterministic
    stride: every second retained sample is dropped and from then on
    only every ``stride``-th observation (a power of two) is kept, so
    the samples still span the whole stream and the quantiles stay
    close to exact.  count/sum/min/max are always exact.
    """

    kind = "histogram"

    #: Cap on retained samples; reaching past it halves the retained
    #: set and doubles the stride (``truncated`` counts the discards).
    max_samples = 65536

    def __init__(self, name: str, labels: LabelSet):
        super().__init__(name, labels)
        self.count = 0
        self.sum = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self._values: list[float] = []
        #: Observation ``i`` (0-based) is retained iff ``i % _stride``
        #: is 0; the retained list always holds exactly those.
        self._stride = 1
        self.truncated = 0

    def observe(self, value: float) -> None:
        value = float(value)
        index = self.count
        self.count += 1
        self.sum += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if index % self._stride:
            self.truncated += 1
            return
        self._values.append(value)
        if len(self._values) > self.max_samples:
            self.truncated += len(self._values) // 2
            del self._values[1::2]
            self._stride *= 2

    def percentile(self, q: float) -> float | None:
        """The ``q``-quantile (0..1) of the retained samples."""
        if not self._values:
            return None
        ordered = sorted(self._values)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    def summary(self) -> dict[str, float | int | None]:
        doc: dict[str, float | int | None] = {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }
        for q in SUMMARY_QUANTILES:
            doc[f"p{int(q * 100)}"] = self.percentile(q)
        return doc


class Timer(Histogram):
    """A histogram of durations measured on the virtual clock.

    Usage: ``start = timer.start(world.now)`` … later …
    ``timer.stop(start, world.now)``.  The timer never reads a clock
    itself; it only subtracts the instants its caller hands it, which
    keeps instrumentation free of wall-clock nondeterminism.
    """

    kind = "timer"

    @staticmethod
    def start(now: float) -> float:
        return now

    def stop(self, started_at: float, now: float) -> float:
        elapsed = now - started_at
        self.observe(elapsed)
        return elapsed


class Telemetry:
    """The registry: hands out metrics by (kind, name, labels)."""

    _KINDS = {"counter": Counter, "gauge": Gauge,
              "histogram": Histogram, "timer": Timer}

    def __init__(self):
        self._metrics: dict[tuple[str, str, LabelSet], Metric] = {}

    def _get(self, kind: str, name: str, labels: dict[str, object]) -> Metric:
        key = (kind, name, _labelset(labels))
        metric = self._metrics.get(key)
        if metric is None:
            metric = self._KINDS[kind](name, key[2])
            self._metrics[key] = metric
        return metric

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)  # type: ignore[return-value]

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)  # type: ignore[return-value]

    def histogram(self, name: str, **labels) -> Histogram:
        return self._get("histogram", name, labels)  # type: ignore[return-value]

    def timer(self, name: str, **labels) -> Timer:
        return self._get("timer", name, labels)  # type: ignore[return-value]

    # -- introspection ------------------------------------------------

    def __len__(self) -> int:
        return len(self._metrics)

    def metrics(self) -> Iterator[Metric]:
        """All registered metrics, in deterministic (sorted) order."""
        for key in sorted(self._metrics):
            yield self._metrics[key]

    def series(self, name: str) -> list[Metric]:
        """Every labeled child of the logical series ``name``."""
        return [metric for metric in self.metrics() if metric.name == name]

    def total(self, name: str) -> float:
        """Sum of a counter/gauge series across all label sets."""
        return sum(metric.value for metric in self.series(name)
                   if isinstance(metric, (Counter, Gauge)))

    def snapshot(self) -> dict[str, dict[str, object]]:
        """A plain-dict dump, keyed ``name{label="v",...}``."""
        doc: dict[str, dict[str, object]] = {}
        for metric in self.metrics():
            key = metric.name + _prom_labels(metric.labels)
            if isinstance(metric, Histogram):
                doc[key] = metric.summary()
            elif isinstance(metric, Gauge):
                doc[key] = {"value": metric.value, "peak": metric.peak}
            else:
                doc[key] = {"value": metric.value}
        return doc

    # -- exporters ----------------------------------------------------

    def to_prometheus(self) -> str:
        """Prometheus text-format dump of every registered metric."""
        lines: list[str] = []
        seen_types: set[str] = set()
        for metric in self.metrics():
            name = _prom_name(metric.name)
            if isinstance(metric, Histogram):
                if name not in seen_types:
                    lines.append(f"# TYPE {name} summary")
                    seen_types.add(name)
                for q in SUMMARY_QUANTILES:
                    value = metric.percentile(q)
                    if value is None:
                        continue
                    labels = _prom_labels(metric.labels,
                                          (("quantile", str(q)),))
                    lines.append(f"{name}{labels} {value:.6g}")
                labels = _prom_labels(metric.labels)
                lines.append(f"{name}_count{labels} {metric.count}")
                lines.append(f"{name}_sum{labels} {metric.sum:.6g}")
            else:
                if name not in seen_types:
                    lines.append(f"# TYPE {name} {metric.kind}")
                    seen_types.add(name)
                labels = _prom_labels(metric.labels)
                value = metric.value
                rendered = str(value) if isinstance(value, int) else f"{value:.6g}"
                lines.append(f"{name}{labels} {rendered}")
        return "\n".join(lines) + ("\n" if lines else "")
