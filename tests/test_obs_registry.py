"""Unit tests for the observability primitives: the telemetry
registry, the shared healthcheck schema, the tracer's bookkeeping, and
the exporters (Prometheus text format, JSONL span log)."""

import json

import pytest

from repro.obs import (
    DELIVERED,
    DROPPED,
    Healthcheck,
    Observability,
    Telemetry,
    Tracer,
)
from repro.simkit.world import World


class TestTelemetry:
    def test_counter_accumulates_and_rejects_decrease(self):
        telemetry = Telemetry()
        counter = telemetry.counter("records", device="d1")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_label_order_does_not_split_series(self):
        telemetry = Telemetry()
        a = telemetry.counter("sent", device="d1", modality="location")
        b = telemetry.counter("sent", modality="location", device="d1")
        assert a is b

    def test_series_and_total_span_label_children(self):
        telemetry = Telemetry()
        telemetry.counter("sent", device="d1").inc(2)
        telemetry.counter("sent", device="d2").inc(3)
        telemetry.counter("other").inc(10)
        assert len(telemetry.series("sent")) == 2
        assert telemetry.total("sent") == 5

    def test_gauge_moves_both_ways(self):
        gauge = Telemetry().gauge("depth")
        gauge.set(7)
        gauge.inc()
        gauge.dec(3)
        assert gauge.value == 5

    def test_histogram_summary_quantiles(self):
        histogram = Telemetry().histogram("latency")
        for value in range(1, 101):
            histogram.observe(float(value))
        summary = histogram.summary()
        assert summary["count"] == 100
        assert summary["min"] == 1.0
        assert summary["max"] == 100.0
        assert 48.0 <= summary["p50"] <= 52.0
        assert 93.0 <= summary["p95"] <= 97.0

    def test_histogram_folds_but_keeps_exact_aggregates(self):
        histogram = Telemetry().histogram("big")
        histogram.max_samples = 8
        for value in range(20):
            histogram.observe(float(value))
        assert histogram.count == 20
        assert histogram.sum == sum(range(20))
        assert histogram.min == 0.0 and histogram.max == 19.0
        assert histogram.truncated > 0

    @pytest.mark.parametrize("n", [200_000, 1_000_000])
    def test_thinned_quantiles_span_the_whole_stream(self, n):
        """Past the cap the retained samples are a stride sample of the
        whole stream, not its newest tail (head truncation reported
        p50 = 181,920 for 0..199,999)."""
        histogram = Telemetry().histogram("long")
        for value in range(n):
            histogram.observe(value)
        assert histogram.count == n
        assert histogram.sum == sum(range(n))
        assert histogram.min == 0.0 and histogram.max == n - 1
        assert len(histogram._values) <= histogram.max_samples
        assert histogram.truncated == n - len(histogram._values)
        for q in (0.50, 0.95, 0.99):
            exact = q * (n - 1)
            assert abs(histogram.percentile(q) - exact) <= 0.01 * exact

    def test_below_the_cap_every_sample_is_kept(self):
        histogram = Telemetry().histogram("short")
        values = [float((index * 7919) % 1000)
                  for index in range(histogram.max_samples)]
        for value in values:
            histogram.observe(value)
        assert histogram.truncated == 0
        assert histogram._values == values
        assert histogram.percentile(0.5) == sorted(values)[
            round(0.5 * (len(values) - 1))]

    def test_timer_measures_virtual_durations(self):
        timer = Telemetry().timer("ack_delay")
        started = timer.start(10.0)
        elapsed = timer.stop(started, 12.5)
        assert elapsed == 2.5
        assert timer.summary()["count"] == 1

    def test_prometheus_dump_parses_line_per_sample(self):
        telemetry = Telemetry()
        telemetry.counter("sent", device="d1").inc(3)
        telemetry.gauge("depth").set(2)
        telemetry.timer("delay").observe(0.5)
        text = telemetry.to_prometheus()
        assert '# TYPE sent counter' in text
        assert 'sent{device="d1"} 3' in text
        assert "# TYPE delay summary" in text
        assert "delay_count 1" in text
        # every non-comment line is "name{labels} value"
        for line in text.splitlines():
            if line.startswith("#"):
                continue
            name, _, value = line.rpartition(" ")
            assert name and float(value) is not None

    def test_snapshot_is_plain_data(self):
        telemetry = Telemetry()
        telemetry.counter("sent", device="d1").inc()
        telemetry.histogram("delay").observe(1.0)
        snapshot = telemetry.snapshot()
        assert snapshot['sent{device="d1"}'] == {"value": 1}
        assert snapshot["delay"]["count"] == 1
        json.dumps(snapshot)  # must be JSON-serialisable


class TestHealthcheck:
    def test_status_mapping(self):
        assert Healthcheck.status_for(True) == "ok"
        assert Healthcheck.status_for(True, backlog=3) == "degraded"
        assert Healthcheck.status_for(False, backlog=0) == "down"

    def test_build_flattens_counters_without_shadowing_schema(self):
        doc = Healthcheck.build(
            status="ok", detail="fine",
            counters={"queued": 2, "status": 99}, device_id="d1")
        assert Healthcheck.is_uniform(doc)
        assert doc["queued"] == 2  # legacy flat surface
        assert doc["counters"]["queued"] == 2  # uniform surface
        assert doc["status"] == "ok"  # counters cannot shadow the schema
        assert doc["device_id"] == "d1"

    def test_every_manager_health_follows_the_schema(self):
        from repro.scenarios.testbed import SenSocialTestbed
        testbed = SenSocialTestbed(seed=1)
        node = testbed.add_user("alice", "Paris")
        for doc in (node.manager.health(),
                    node.manager.mqtt.client.health(),
                    testbed.server.health()):
            assert Healthcheck.is_uniform(doc)
            assert doc["status"] in ("ok", "degraded", "down")


class TestTracer:
    def _tracer(self, **kwargs):
        world = World(seed=1)
        return world, Tracer(world, **kwargs)

    def test_ids_are_deterministic_per_seed(self):
        _, first = self._tracer()
        _, second = self._tracer()
        assert first.start_trace().trace_id == second.start_trace().trace_id

    def test_exactly_one_terminal_first_wins(self):
        world, tracer = self._tracer()
        context = tracer.start_trace(device="d1")
        tracer.mark_delivered(context)
        tracer.mark_dropped(context, "outbox", "evicted_oldest")
        state = tracer.get(context.trace_id)
        assert state.terminal_kind() == DELIVERED
        assert tracer.terminal_conflicts == 1

    def test_drop_records_stage_and_reason(self):
        world, tracer = self._tracer()
        context = tracer.start_trace()
        tracer.mark_dropped(context, "outbox", "evicted_oldest")
        assert tracer.drop_taxonomy() == {("outbox", "evicted_oldest"): 1}
        assert tracer.terminal_counts()[DROPPED] == 1

    def test_unknown_context_is_ignored(self):
        world, tracer = self._tracer()
        tracer.span(None, "sense")
        tracer.mark_delivered(None)
        assert len(tracer) == 0

    def test_eviction_spares_in_flight_traces(self):
        world, tracer = self._tracer(max_traces=3)
        in_flight = tracer.start_trace()
        for _ in range(5):
            tracer.mark_delivered(tracer.start_trace())
        assert tracer.get(in_flight.trace_id) is not None
        assert tracer.evicted > 0
        assert len(tracer) <= 3 + 1  # bound plus the newest insert

    def test_jsonl_round_trips(self):
        world, tracer = self._tracer()
        context = tracer.start_trace(device="d1")
        tracer.span(context, "sense", start=0.0, end=0.1)
        tracer.event(context, "transmit", attempt=1)
        tracer.mark_delivered(context)
        docs = [json.loads(line) for line in tracer.to_jsonl_lines()]
        kinds = [doc["kind"] for doc in docs]
        assert kinds == ["trace", "span", "event"]
        assert docs[0]["terminal"]["kind"] == DELIVERED
        assert docs[0]["baggage"] == {"device": "d1"}


class TestObservabilityHub:
    def test_install_is_idempotent(self):
        world = World(seed=0)
        hub = Observability.install(world)
        assert Observability.install(world) is hub
        assert Observability.of(world) is hub

    def test_absent_hub_resolves_to_none(self):
        assert Observability.of(World(seed=0)) is None

    def test_report_snapshot(self):
        world = World(seed=0)
        hub = Observability.install(world)
        context = hub.tracer.start_trace()
        hub.tracer.mark_dropped(context, "outbox", "evicted_oldest")
        report = hub.report(queue_depths={"outbox:a": 2})
        assert report.records_dropped == 1
        assert report.queue_depths == {"outbox:a": 2}
        assert report.drops[0]["stage"] == "outbox"
        json.dumps(report.to_dict())
        assert "drop taxonomy" in report.format()
