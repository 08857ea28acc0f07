"""The benchmark's workloads: fixed inputs generated from a seed.

Each workload is a batch job over a fixed virtual-time horizon.  Load is
open-loop in virtual time: devices sense on their duty cycles whatever
the server does, so overload shows as shed records and virtual queueing
delay, never as less offered load.  The wall-clock side is the time to
finish the fixed input.

A *rep* builds the deployment from nothing to ready (the constructor),
runs it to the horizon and drains it (``execute``, which advances the
world through a :class:`perfbench.clock.ScaledClock`), then reports an
:class:`Outcome` with the output checks already applied.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from hashlib import blake2b
from typing import Callable

CITIES = ("Paris", "Bordeaux", "London")

#: Counters that are levels (read at the end), not deltas.
LEVEL_COUNTERS = frozenset({"journal.log_bytes", "scenarios.store_bytes"})


@dataclass
class Outcome:
    """What one rep produced, and whether its outputs are correct."""

    emitted: int
    delivered: int
    failed: int
    #: Virtual seconds from sensing to server-side delivery.
    latencies: list[float]
    #: Identity of the outputs; equal for equal seeds and inputs.
    fingerprint: str
    problems: list[str] = field(default_factory=list)
    #: Failure breakdown, for the human-readable report.
    breakdown: dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """A named input shape; why each was chosen is in BENCHMARK.json,
    whose ``why`` names ``loads`` and ``bypasses`` verbatim."""

    name: str
    loads: str
    bypasses: str
    params: dict
    build: Callable[[int, dict], "object"]
    #: Parameter overrides of the small warm-up rep.
    warmup: dict

    @property
    def horizon_s(self) -> float:
        """Virtual seconds of sensing the fixed input covers."""
        return self.build.horizon_s(self.params)


# -- testbed workloads ------------------------------------------------------


class TestbedRun:
    """A deployed ``SenSocialTestbed`` with a server-side listener.

    Set-up ends in the same ready state on every testbed workload:
    users registered (``add_user`` settles each round-trip), streams and
    multicasts created, and then the world advanced until no message is
    in flight, so every CONNACK and stream-config push has landed before
    the timed run starts."""

    #: Virtual seconds per settle step at the end of set-up.
    SETTLE_STEP_S = 0.25
    #: Longest settle before set-up counts as failed.
    SETTLE_LIMIT_S = 30.0
    #: Virtual seconds per drain step after the horizon.
    DRAIN_STEP_S = 30.0
    #: Longest drain before in-flight records count as unaccounted.
    DRAIN_LIMIT_S = 900.0

    def __init__(self, seed: int, params: dict):
        from repro import SenSocialTestbed

        self.params = params
        self.rng = random.Random(seed)
        self.testbed = SenSocialTestbed(
            seed=seed, durability=params.get("durability", False),
            batching=params.get("batching", False),
            observability=params.get("observability", False),
            location_update_period_s=params.get("location_update_s", 300.0))
        self.world = self.testbed.world
        self.delivered = 0
        self.fanout = 0
        self.latencies: list[float] = []
        self._digest = blake2b(digest_size=16)
        # Equal city sizes for every seed; the seed picks who lives where.
        homes = [CITIES[index % len(CITIES)]
                 for index in range(params["users"])]
        self.rng.shuffle(homes)
        self.users = [f"u{index:03d}" for index in range(params["users"])]
        for user_id, home in zip(self.users, homes):
            self.testbed.add_user(user_id, home_city=home)
        self.testbed.server.register_listener(self._on_record)
        self.deploy(params)
        self._settle()

    @staticmethod
    def horizon_s(params: dict) -> float:
        return params["horizon_s"]

    def deploy(self, params: dict) -> None:
        """Create the workload's streams and multicasts."""

    def _settle(self) -> None:
        network = self.testbed.network
        settled = 0.0
        while (network.messages_sent - network.messages_delivered
               - network.messages_dropped):
            if settled >= self.SETTLE_LIMIT_S:
                raise RuntimeError(
                    f"set-up did not settle within {self.SETTLE_LIMIT_S} "
                    f"virtual s")
            self.world.run_for(self.SETTLE_STEP_S)
            settled += self.SETTLE_STEP_S

    def _on_record(self, record) -> None:
        self.delivered += 1
        self.latencies.append(self.world.now - record.timestamp)
        self._digest.update(
            f"{record.stream_id}|{record.timestamp!r}|{record.value}\n"
            .encode("utf-8"))

    def _on_fanout(self, record) -> None:
        self.fanout += 1

    # -- the timed part -------------------------------------------------

    def execute(self, clock) -> None:
        """Run to the horizon, stop sensing, drain every queue."""
        testbed, world = self.testbed, self.world
        clock.run_until(world, world.now + self.params["horizon_s"])
        for node in testbed.nodes.values():
            for stream_id in list(node.manager.streams):
                node.manager.destroy_stream(stream_id)
        drained = 0.0
        while not self._drained() and drained < self.DRAIN_LIMIT_S:
            clock.run_until(world, world.now + self.DRAIN_STEP_S)
            drained += self.DRAIN_STEP_S

    def _drained(self) -> bool:
        durability = self.testbed.durability
        if durability is not None and len(durability.admission):
            return False
        return all(len(node.manager.outbox) == 0
                   for node in self.testbed.nodes.values())

    # -- results --------------------------------------------------------

    def counters(self) -> dict[str, float]:
        """The program's public work counters, for per-layer metrics."""
        testbed = self.testbed
        server = testbed.server
        managers = [node.manager for node in testbed.nodes.values()]
        store = server.database.store
        counters = {
            "simkit.events": self.world.scheduler.events_processed,
            "mobile.outbox_enqueued": sum(m.outbox.enqueued for m in managers),
            "mobile.retransmissions":
                sum(m.outbox.retransmissions for m in managers),
            "mobile.batches_sent": sum(m.batches_sent for m in managers),
            "mobile.batched_records_sent":
                sum(m.batched_records_sent for m in managers),
            "net.messages": testbed.network.messages_sent,
            "net.bytes": testbed.network.bytes_sent,
            "net.drops": testbed.network.messages_dropped,
            "mqtt.publishes": testbed.broker.publishes_received,
            "mqtt.routing_checks": testbed.broker.routing_checks,
            "server.records_ingested": server.records_received,
            "server.gate_hits": server.filters.gate_cache_hits,
            "server.gate_evaluations": server.filters.gate_evaluations,
            "dedup.duplicates": server.dedup.duplicates,
            "docstore.candidates_examined": sum(
                store.collection(name).candidates_examined
                for name in store.collection_names()),
        }
        durability = testbed.durability
        if durability is not None:
            counters.update({
                "durability.records_shed": durability.records_shed,
                "journal.appends": durability.medium.appends,
                "journal.checkpoints": durability.medium.checkpoints,
                "journal.log_bytes": durability.medium.log_bytes,
            })
        return counters

    def outcome(self) -> Outcome:
        from repro.durability.codec import fingerprint_store

        testbed = self.testbed
        server = testbed.server
        problems: list[str] = []
        emitted = queued = evicted = 0
        for user_id, node in testbed.nodes.items():
            outbox, manager = node.manager.outbox, node.manager
            emitted += outbox.enqueued
            queued += len(outbox)
            evicted += outbox.dropped_oldest
            if outbox.enqueued != (manager.records_acked + len(outbox)
                                   + outbox.dropped_oldest):
                problems.append(
                    f"{user_id}: enqueued {outbox.enqueued} != acked "
                    f"{manager.records_acked} + queued {len(outbox)} + "
                    f"evicted {outbox.dropped_oldest}")
        shed = quarantined = 0
        durability = testbed.durability
        if durability is not None:
            shed = durability.records_shed
            quarantined = durability.records_quarantined
            replay = durability.verify_replay()
            if not replay["match"]:
                problems.append(
                    f"durable replay diverges: live "
                    f"{replay['live_fingerprint']} != replayed "
                    f"{replay['replayed_fingerprint']}")
        # Records a server-side filter suppressed are a correct outcome,
        # not a failure; the program's tracer counts them (obs is on
        # wherever streams carry cross-user conditions).
        filtered = 0
        if testbed.obs is not None:
            filtered = testbed.obs.tracer.drop_taxonomy().get(
                ("server_filter", "cross_user_condition"), 0)
        if self.delivered + filtered != server.records_received:
            problems.append(
                f"listener saw {self.delivered} records + {filtered} "
                f"filtered, server ingested {server.records_received}")
        failed = emitted - self.delivered - filtered
        unaccounted = failed - shed - quarantined - evicted - queued
        if unaccounted < 0:
            problems.append(
                f"{-unaccounted} more records delivered or disposed of "
                f"than emitted")
        if self.delivered == 0:
            problems.append("no record was delivered")
        fingerprint = (f"{fingerprint_store(server.database.store)}:"
                       f"{self._digest.hexdigest()}:{self.fanout}")
        return Outcome(
            emitted=emitted, delivered=self.delivered, failed=failed,
            latencies=self.latencies, fingerprint=fingerprint,
            problems=problems,
            breakdown={"filtered": filtered, "shed": shed,
                       "quarantined": quarantined,
                       "evicted": evicted, "queued_at_end": queued,
                       "unaccounted": max(0, unaccounted)})


class SpineRun(TestbedRun):
    """Every user streams classified accelerometer readings (a stream
    the device creates) and classified locations (a stream the server
    creates and pushes) on a fixed duty cycle."""

    def deploy(self, params: dict) -> None:
        from repro import Granularity, ModalityType

        settings = {"duty_cycle_s": params["duty_cycle_s"]}
        for user_id in self.users:
            self.testbed.node(user_id).manager.create_stream(
                ModalityType.ACCELEROMETER, Granularity.CLASSIFIED,
                send_to_server=True, settings=settings)
            self.testbed.server.create_stream(
                user_id, ModalityType.LOCATION, Granularity.CLASSIFIED,
                settings=settings)
        plan = params.get("flap")
        if plan is not None:
            from repro.faults import ChaosController, FaultPlan

            ChaosController(self.testbed).apply(FaultPlan("flap").flap(
                "devices", start=plan["start_s"], cycles=plan["cycles"],
                down_for=plan["down_s"], up_for=plan["up_s"]))


class GeoSocialRun(TestbedRun):
    """Geo- and OSN-selected multicasts over a moving, befriended
    population with Poisson OSN activity."""

    def deploy(self, params: dict) -> None:
        from repro import Granularity, ModalityType, MulticastQuery
        from repro.core.common.conditions import Condition, Operator
        from repro.core.common.filters import Filter
        from repro.core.common.modality import ModalityValue

        testbed, users, rng = self.testbed, self.users, self.rng
        count = len(users)
        chord = params["chord"]
        for index, user_id in enumerate(users):
            testbed.befriend(user_id, users[(index + 1) % count])
            testbed.befriend(user_id, users[(index + chord) % count])
        # Run the first location-update period so geo selections have
        # members when the multicasts are created; it is part of set-up.
        testbed.run(params["location_update_s"])
        server = testbed.server
        settings = {"duty_cycle_s": params["duty_cycle_s"]}
        multicasts = [
            server.create_multicast_stream(
                ModalityType.LOCATION, Granularity.CLASSIFIED,
                MulticastQuery(place=city), settings=settings)
            for city in CITIES]
        for person in rng.sample(users, params["near_user_multicasts"]):
            multicasts.append(server.create_multicast_stream(
                ModalityType.ACCELEROMETER, Granularity.CLASSIFIED,
                MulticastQuery(near_user=person, near_user_km=5.0),
                settings=settings))
        for person in rng.sample(users, params["friends_multicasts"]):
            actor = users[(users.index(person) + 1) % count]
            gate = Filter([Condition(ModalityType.FACEBOOK_ACTIVITY,
                                     Operator.EQUALS, ModalityValue.ACTIVE,
                                     user_id=actor)])
            multicasts.append(server.create_multicast_stream(
                ModalityType.ACCELEROMETER, Granularity.CLASSIFIED,
                MulticastQuery(friends_of=person, hops=2),
                stream_filter=gate))
        for multicast in multicasts:
            multicast.add_listener(self._on_fanout)
        testbed.workload.actions_per_hour = params["actions_per_hour"]
        testbed.workload.start_all()


# -- the population workload ------------------------------------------------


class PopulationRun:
    """A streaming ``ScenarioEngine`` population writing to a
    ``StatsSink``: the scheduler and substrate, without the middleware."""

    def __init__(self, seed: int, params: dict):
        from repro.scenarios import ScenarioEngine, get_scenario

        self.engine = ScenarioEngine(
            get_scenario(params["scenario"]), params["devices"], seed=seed,
            substrate="streaming", scheduler="wheel", sink="stats",
            events_per_device=params["events_per_device"],
            active_cap=params["active_cap"])
        self.engine.start()
        self.world = self.engine.world
        self.report: dict | None = None

    @staticmethod
    def horizon_s(params: dict) -> float:
        from repro.scenarios import get_scenario

        return get_scenario(params["scenario"]).horizon_s

    def execute(self, clock) -> None:
        from repro.scenarios.engine import DRAIN_S

        clock.run_until(self.world, self.engine.horizon + DRAIN_S)
        self.report = self.engine.report()

    def counters(self) -> dict[str, float]:
        engine = self.engine
        return {
            "simkit.events": engine.world.scheduler.events_processed,
            "scenarios.hibernations": engine.store.hibernations,
            "scenarios.rehydrations": engine.store.rehydrations,
            "scenarios.store_bytes": engine.store.nbytes(),
        }

    def outcome(self) -> Outcome:
        report = self.report
        problems = list(self.engine.verify())
        failed = report["dropped"] + report["buffered_residual"]
        if report["delivered"] == 0:
            problems.append("no record was delivered")
        return Outcome(
            emitted=report["emitted"], delivered=report["delivered"],
            failed=failed, latencies=[],
            fingerprint=report["delivery_fingerprint"], problems=problems,
            breakdown={"dropped": report["dropped"],
                       "buffered_at_end": report["buffered_residual"]})


WORKLOADS: dict[str, Workload] = {workload.name: workload for workload in (
    Workload(
        name="spine-durable",
        loads="simkit device classify mobile net mqtt server dedup "
              "durability journal docstore",
        bypasses="scenarios osn obs",
        params={"users": 40, "horizon_s": 600.0, "duty_cycle_s": 10.0,
                "durability": True},
        build=SpineRun,
        warmup={"users": 4, "horizon_s": 120.0}),
    Workload(
        name="spine-reconnect",
        loads="simkit device classify mobile net mqtt server dedup "
              "durability journal docstore",
        bypasses="scenarios osn obs",
        params={"users": 40, "horizon_s": 600.0, "duty_cycle_s": 10.0,
                "durability": True, "batching": 64,
                "flap": {"start_s": 60.0, "cycles": 3, "down_s": 120.0,
                         "up_s": 60.0}},
        build=SpineRun,
        warmup={"users": 4, "horizon_s": 120.0}),
    Workload(
        name="geo-social",
        loads="simkit device classify mobile net mqtt server docstore "
              "osn obs",
        bypasses="scenarios dedup durability journal",
        params={"users": 30, "horizon_s": 900.0, "duty_cycle_s": 30.0,
                "location_update_s": 120.0, "observability": True,
                "chord": 7, "near_user_multicasts": 3,
                "friends_multicasts": 2, "actions_per_hour": 6.0},
        build=GeoSocialRun,
        warmup={"users": 8, "horizon_s": 240.0, "near_user_multicasts": 1,
                "friends_multicasts": 1}),
    Workload(
        name="city-day-100k",
        loads="simkit scenarios",
        bypasses="device classify mobile net mqtt server dedup "
                 "durability journal docstore osn obs",
        params={"scenario": "city-day", "devices": 100_000,
                "events_per_device": 1.0, "active_cap": 4096},
        build=PopulationRun,
        warmup={"devices": 2000}),
)}
