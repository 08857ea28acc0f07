"""The program's layers, the entry points the traced run wraps, and
the per-layer metrics read from the recorder and the program's own
public counters.

Layers are named after the modules (``repro.<module>``).  A callback
is attributed to the layer of the module that defines it.
"""

from __future__ import annotations

from perfbench.trace import Instrumentation, SpanRecorder

#: Module prefix -> layer, longest prefix first.
_MODULE_LAYERS = (
    ("repro.core.server.dedup", "dedup"),
    ("repro.core.server.trigger", "osn"),
    ("repro.core.server", "server"),
    ("repro.core.mobile", "mobile"),
    ("repro.core.common", "server"),
    ("repro.durability.journal", "journal"),
    ("repro.durability.codec", "journal"),
    ("repro.durability.recovery", "journal"),
    ("repro.durability", "durability"),
    ("repro.docstore", "docstore"),
    ("repro.simkit", "simkit"),
    ("repro.scenarios", "scenarios"),
    ("repro.device", "device"),
    ("repro.sensing", "device"),
    ("repro.classify", "classify"),
    ("repro.net", "net"),
    ("repro.mqtt", "mqtt"),
    ("repro.osn", "osn"),
    ("repro.plugins", "osn"),
    ("repro.obs", "obs"),
    ("repro.faults", "faults"),
)

#: The layers the benchmark reports; time in any other span (fault
#: injection, the benchmark's own listeners) counts as unattributed.
LAYERS = ("simkit", "scenarios", "device", "classify", "mobile", "net",
          "mqtt", "server", "dedup", "durability", "journal", "docstore",
          "osn", "obs")

def layer_of_module(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "bench"


def _count_batch_ids(recorder: SpanRecorder, args, result) -> None:
    recorder.count("dedup.checks", len(args[1]))


def _count_one(recorder: SpanRecorder, args, result) -> None:
    recorder.count("dedup.checks")


def install(instrumentation: Instrumentation, virtual_now) -> None:
    """Wrap every layer's public entry points.

    ``virtual_now()`` reads the simulation clock (for queue waits).
    """
    from repro.classify.base import Classifier
    from repro.core.mobile.manager import MobileSenSocialManager
    from repro.core.mobile.outbox import Outbox
    from repro.core.server.dedup import RecordDeduper
    from repro.core.server.filter_manager import ServerFilterManager
    from repro.core.server.manager import ServerSenSocialManager
    from repro.core.server.multicast import MulticastStream
    from repro.core.server.trigger import TriggerManager
    from repro.device.phone import Smartphone
    from repro.device.sensors.base import Sensor
    from repro.docstore.collection import Collection, Cursor
    from repro.docstore.journaled import JournaledCollection
    from repro.durability.admission import AdmissionController
    from repro.durability.controller import ServerDurability
    from repro.durability.fair import FairAdmissionController
    from repro.durability.journal import StorageMedium, WriteAheadJournal
    from repro.mqtt.broker import MqttBroker
    from repro.mqtt.client import MqttClient
    from repro.net.network import Network
    from repro.obs.registry import Counter, Gauge, Histogram, Telemetry
    from repro.obs.trace import Tracer
    from repro.osn.service import OsnService
    from repro.plugins.base import OsnPlugin
    from repro.scenarios.engine import StatsSink
    from repro.scenarios.population import HibernationStore, Population
    from repro.sensing.manager import ESSensorManager
    from repro.simkit.scheduler import HeapEventQueue, Scheduler
    from repro.simkit.wheel import CalendarEventQueue

    wrap = instrumentation.wrap
    register = instrumentation.wrap_registration

    def queue_wait(recorder, args, item):
        if item is not None:
            recorder.sample("durability.queue_wait",
                            virtual_now() - item.enqueued_at)

    # simkit: event-queue push/pop and scheduling; every scheduled
    # callback runs in a span of the layer that defined it.
    register(Scheduler, "schedule_at", 2, layer="simkit")
    for queue in (HeapEventQueue, CalendarEventQueue):
        wrap(queue, "push", "simkit")
        wrap(queue, "pop", "simkit")
        wrap(queue, "peek", "simkit")
    # scenarios: the population substrate.
    wrap(HibernationStore, "hibernate", "scenarios")
    wrap(HibernationStore, "rehydrate", "scenarios")
    wrap(HibernationStore, "append_initial", "scenarios")
    wrap(Population, "initial_state", "scenarios")
    wrap(StatsSink, "deliver", "scenarios")
    # device: sensors, sensing manager and the phone endpoint.
    wrap(Sensor, "sample", "device", "read")
    register(ESSensorManager, "sense_once", 2, layer="device")
    register(ESSensorManager, "subscribe", 3, layer="device")
    register(Smartphone, "on_protocol", 2)
    wrap(Smartphone, "send", "device")
    wrap(Smartphone, "deliver", "device")
    # classify
    wrap(Classifier, "classify", "classify")
    # mobile middleware
    wrap(MobileSenSocialManager, "handle_trigger", "mobile")
    wrap(MobileSenSocialManager, "handle_config_xml", "mobile")
    wrap(Outbox, "put", "mobile")
    wrap(Outbox, "ack", "mobile")
    wrap(Outbox, "due", "mobile")
    # net
    wrap(Network, "send", "net")
    # mqtt
    wrap(MqttBroker, "deliver", "mqtt")
    wrap(MqttBroker, "route", "mqtt")
    wrap(MqttClient, "deliver", "mqtt")
    wrap(MqttClient, "publish", "mqtt")
    wrap(MqttClient, "publish_batch", "mqtt")
    register(MqttClient, "subscribe", 2)
    # server
    wrap(ServerSenSocialManager, "deliver", "server")
    # Application listeners (the benchmark's own) take their own layer.
    register(ServerSenSocialManager, "register_listener", 1)
    register(MulticastStream, "add_listener", 1)
    wrap(ServerSenSocialManager, "select_users", "server")
    wrap(MulticastStream, "refresh", "server", "multicast_refresh")
    for attr in ("observe_record", "observe_batch", "observe_location",
                 "mark_osn_active", "stream_allows"):
        wrap(ServerFilterManager, attr, "server")
    register(OsnPlugin, "add_listener", 1)
    # dedup
    wrap(RecordDeduper, "seen", "dedup", probe=_count_one)
    wrap(RecordDeduper, "__contains__", "dedup", "contains",
         probe=_count_one)
    wrap(RecordDeduper, "check_batch", "dedup", probe=_count_batch_ids)
    # durability: intake, admission, the drain pump (a callback)
    wrap(ServerDurability, "submit", "durability")
    wrap(ServerDurability, "submit_batch", "durability")
    for admission in (AdmissionController, FairAdmissionController):
        wrap(admission, "admit", "durability")
        wrap(admission, "pop", "durability", probe=queue_wait)
    # journal
    wrap(StorageMedium, "append", "journal")
    wrap(WriteAheadJournal, "checkpoint", "journal")
    # docstore: writes, and reads including lazy cursor iteration
    for collection in (Collection, JournaledCollection):
        for attr in ("insert_one", "insert_many"):
            wrap(collection, attr, "docstore", "insert")
        for attr in ("update_one", "update_many"):
            wrap(collection, attr, "docstore", "update")
    wrap(Collection, "find", "docstore", "find")
    wrap(Collection, "find_one", "docstore", "find")
    # A resume is not a new query: cursor work has its own span name.
    instrumentation.wrap_iterator(Cursor, "__iter__", "docstore", "cursor",
                                  count="docstore.results")
    wrap(Cursor, "count", "docstore", "cursor")
    # osn: platform, plug-ins (callbacks) and trigger manager
    wrap(OsnService, "perform_action", "osn", "action")
    wrap(TriggerManager, "send_action_trigger", "osn", "trigger")
    wrap(TriggerManager, "push_config", "osn", "config_push")
    # obs: the program's own tracer and telemetry
    for attr in ("start_trace", "span", "event", "mark_delivered",
                 "mark_dropped"):
        wrap(Tracer, attr, "obs")
    for attr in ("counter", "gauge", "histogram", "timer"):
        wrap(Telemetry, attr, "obs")
    wrap(Counter, "inc", "obs")
    wrap(Gauge, "set", "obs")
    wrap(Histogram, "observe", "obs")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (0 when empty); ``q`` in
    [0, 1]."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def layer_metrics(recorder: SpanRecorder, counters: dict[str, float],
                  wall_ns: float, scale: float = 1.0) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    ``counters`` holds deltas of the program's public counters over the
    timed run (see ``TestbedRun.counters``); ``wall_ns`` is the traced
    run's wall time in the recorder's clock units (nanoseconds), and
    ``scale`` converts its wall seconds to reference-scaled seconds.
    """
    seconds = 1e-9 * scale
    own = recorder.layer_self()

    def self_s(layer: str) -> float:
        return own.get(layer, 0) * seconds

    def counter(name: str) -> float:
        return float(counters.get(name, 0))

    # A device event is a scheduled device step, an arrival (which
    # runs the device's first step inline) or a reshare post.
    device_events = sum(
        recorder.calls("scenarios", f"ScenarioEngine.{callback}")
        for callback in ("_device_event", "_pump", "_cascade_post"))
    finds = recorder.calls("docstore", "find")
    candidates = counter("docstore.candidates_examined")
    publishes = counter("mqtt.publishes")
    gate_hits = counter("server.gate_hits")
    gate_total = gate_hits + counter("server.gate_evaluations")
    batches = counter("mobile.batches_sent")
    attributed = sum(own.get(layer, 0) for layer in LAYERS)
    metrics = {
        "simkit.events": counter("simkit.events"),
        "simkit.self_s": self_s("simkit"),
        "scenarios.self_s": self_s("scenarios"),
        "scenarios.hibernations": counter("scenarios.hibernations"),
        "scenarios.rehydrations": counter("scenarios.rehydrations"),
        "scenarios.miss_ratio": _ratio(counter("scenarios.rehydrations"),
                                       device_events),
        "scenarios.store_bytes": counter("scenarios.store_bytes"),
        "device.reads": float(recorder.calls("device", "read")),
        "device.self_s": self_s("device"),
        "classify.calls": float(recorder.calls("classify", "classify")),
        "classify.self_s": self_s("classify"),
        "mobile.self_s": self_s("mobile"),
        "mobile.outbox_enqueued": counter("mobile.outbox_enqueued"),
        "mobile.retransmissions": counter("mobile.retransmissions"),
        "mobile.batches_sent": batches,
        "mobile.records_per_batch": _ratio(
            counter("mobile.batched_records_sent"), batches),
        "net.messages": counter("net.messages"),
        "net.bytes": counter("net.bytes"),
        "net.drops": counter("net.drops"),
        "net.self_s": self_s("net"),
        "mqtt.publishes": publishes,
        "mqtt.routing_checks_per_publish": _ratio(
            counter("mqtt.routing_checks"), publishes),
        "mqtt.self_s": self_s("mqtt"),
        "server.self_s": self_s("server"),
        "server.records_ingested": counter("server.records_ingested"),
        "server.filter_gate_hit_ratio": _ratio(gate_hits, gate_total),
        "server.multicast_refreshes": float(
            recorder.calls("server", "multicast_refresh")),
        "server.select_users_self_s":
            recorder.self_time("server", "select_users") * seconds,
        "dedup.checks": float(recorder.counts.get("dedup.checks", 0)),
        "dedup.duplicates": counter("dedup.duplicates"),
        "dedup.self_s": self_s("dedup"),
        "durability.self_s": self_s("durability"),
        "durability.records_shed": counter("durability.records_shed"),
        "durability.queue_wait_p99_s": percentile(
            recorder.samples.get("durability.queue_wait", []), 0.99),
        "journal.appends": counter("journal.appends"),
        "journal.append_self_s":
            recorder.self_time("journal", "append") * seconds,
        "journal.checkpoints": counter("journal.checkpoints"),
        "journal.checkpoint_self_s":
            recorder.self_time("journal", "checkpoint") * seconds,
        "journal.log_bytes": counter("journal.log_bytes"),
        "docstore.inserts": float(recorder.calls("docstore", "insert")),
        "docstore.insert_self_s":
            recorder.self_time("docstore", "insert") * seconds,
        "docstore.finds": float(finds),
        "docstore.find_self_s":
            (recorder.self_time("docstore", "find")
             + recorder.self_time("docstore", "cursor")) * seconds,
        "docstore.updates": float(recorder.calls("docstore", "update")),
        "docstore.update_self_s":
            recorder.self_time("docstore", "update") * seconds,
        "docstore.candidates_examined": candidates,
        "docstore.results_per_candidate": _ratio(
            recorder.counts.get("docstore.results", 0), candidates),
        "osn.actions": float(recorder.calls("osn", "action")),
        "osn.triggers_sent": float(recorder.calls("osn", "trigger")),
        "osn.self_s": self_s("osn"),
        "obs.spans": float(recorder.calls("obs", "span")),
        "obs.self_s": self_s("obs"),
        "trace.unattributed_share": _ratio(wall_ns - attributed, wall_ns),
    }
    return metrics


def per_layer_units() -> dict[str, str]:
    """Unit of every per-layer metric name (``trace.overhead`` too)."""
    units = {}
    for name in layer_metrics(SpanRecorder(clock=lambda: 0), {}, 1):
        if name.endswith("_s"):
            units[name] = "s"
        elif name.endswith(("_ratio", "_share", "_per_candidate")):
            units[name] = "ratio"
        elif name.endswith("_bytes") or name == "net.bytes":
            units[name] = "bytes"
        elif name.endswith(("_per_publish", "_per_batch")):
            units[name] = "count/op"
        else:
            units[name] = "count"
    units["trace.overhead"] = "ratio"
    return units

