"""The scenario engine: runs a named scenario over a streaming population.

One engine = one world + one :class:`Population` + one record sink.
Devices are admitted in index order by a single arrival pump; from then
on a device *is* its row in the :class:`HibernationStore` — seven
scalars (splitmix state, position, online flag, record counters) that
every event handler reads and writes in place.  No per-device object
exists at any point, so resident state is the 49 B/device columns plus
one pending event per device.

Every device event draws only from that device's own splitmix64 state
(bearing, step, the connectivity draw when the scenario has one, the
next gap, in that order) and writes the state back once, so runs are
deterministic per ``(scenario, devices, seed)`` and identical on the
heap and on the calendar wheel.  ``tests/test_population.py`` pins the
docstore fingerprint, the delivery order and the record counters of
every scenario.

The engine's accounting invariant, checked by :meth:`verify`::

    emitted == delivered + buffered_residual + dropped
"""

from __future__ import annotations

import math
import time
from hashlib import blake2b

from repro.scenarios.library import ScenarioSpec
from repro.scenarios.population import (
    _GOLDEN,
    _MASK64,
    DeviceRng,
    HibernationStore,
    Population,
    hash64,
    hash_unit,
    mix64,
)
from repro.simkit.errors import SimulationError
from repro.simkit.world import World

#: How far a device may drift from its initial position, degrees.
MAX_ROAM_DEG = 0.05
#: Per-event random-walk step, degrees.
STEP_DEG = 0.004
#: Extra virtual time after the horizon for in-flight deliveries.
DRAIN_S = 60.0

_TWO_PI = 2.0 * math.pi
_UNIT = 2.0 ** 64


class StatsSink:
    """Counting sink: rolling blake2b over delivered record ids.

    The 100k-scale sink — O(1) memory, yet the digest still pins the
    exact delivery order for cross-run comparisons.
    """

    kind = "stats"

    def __init__(self):
        self.delivered = 0
        self._digest = blake2b(digest_size=16)

    def deliver(self, record_id: str, user_id: str, timestamp: float,
                modality: str, value: dict) -> None:
        self.delivered += 1
        self._digest.update(record_id.encode("utf-8"))

    def fingerprint(self) -> str:
        return self._digest.copy().hexdigest()

    def report(self) -> dict:
        return {"sink": self.kind, "sink_delivered": self.delivered,
                "delivery_fingerprint": self.fingerprint()}


class ServerSink:
    """Full-fidelity sink: records ride the simulated network into a
    real :class:`ServerSenSocialManager` (ingest, dedup, docstore).

    Used by the identity tests: the docstore fingerprint and the
    server-side delivery order are the strongest available witnesses
    that two runs were bit-identical.
    """

    kind = "server"
    GATEWAY = "population-gateway"

    def __init__(self, world: World):
        from repro.core.server.manager import ServerSenSocialManager
        from repro.net.network import Network

        self.network = Network(world)
        self.server = ServerSenSocialManager(world, self.network)
        self.delivered = 0
        self.acks = 0
        self.delivery_order: list[str] = []
        self.network.register(self.GATEWAY, self._on_message)
        self.server.register_listener(
            lambda record: self.delivery_order.append(
                record.details.get("record_id", "")))

    def _on_message(self, message) -> None:
        if message.headers.get("protocol") == "stream-batch-ack":
            self.acks += len(message.payload["record_ids"])

    def deliver(self, record_id: str, user_id: str, timestamp: float,
                modality: str, value: dict) -> None:
        from repro.core.common.batch import envelope

        self.delivered += 1
        document = {"stream_id": f"scn-{user_id}", "user_id": user_id,
                    "device_id": f"dev-{user_id}", "modality": modality,
                    "granularity": "classified", "timestamp": timestamp,
                    "value": value, "details": {"record_id": record_id},
                    "osn_action": None, "record_id": record_id}
        self.network.send(
            self.GATEWAY, self.server.address,
            envelope(document["device_id"], [document]),
            headers={"protocol": "stream-batch"})

    def fingerprint(self) -> str:
        digest = blake2b(digest_size=16)
        for record_id in self.delivery_order:
            digest.update(record_id.encode("utf-8"))
        return digest.hexdigest()

    def docstore_fingerprint(self) -> str:
        from repro.durability.codec import fingerprint_store
        return fingerprint_store(self.server.database.store)

    def report(self) -> dict:
        return {"sink": self.kind, "sink_delivered": self.delivered,
                "acks": self.acks,
                "server_received": self.server.records_received,
                "delivery_fingerprint": self.fingerprint(),
                "docstore_fingerprint": self.docstore_fingerprint()}


class ScenarioEngine:
    """Execute one :class:`ScenarioSpec` over a device population.

    ``substrate`` and ``active_cap`` are accepted for compatibility and
    have no effect: ``"streaming"`` is the only substrate, and no
    resident device set exists to cap.
    """

    def __init__(self, spec: ScenarioSpec, devices: int, *, seed: int = 0,
                 substrate: str = "streaming", scheduler: str = "heap",
                 sink: str = "stats", sim_seconds: float | None = None,
                 events_per_device: float | None = None,
                 active_cap: int = 4096, chaos: bool = False):
        if substrate == "eager":
            raise SimulationError(
                "the eager substrate was removed: device state lives only "
                "in the columnar store; use substrate='streaming'")
        if substrate != "streaming":
            raise SimulationError(
                f"unknown substrate {substrate!r}; expected 'streaming'")
        if chaos and spec.chaos is None:
            raise SimulationError(
                f"scenario {spec.name!r} has no chaos episode")
        self.spec = spec
        self.scheduler_kind = scheduler
        self.seed = seed
        self.chaos = chaos
        self.horizon = float(sim_seconds or spec.horizon_s)
        self.events_per_device = float(
            events_per_device or spec.events_per_device)
        self.world = World(seed=seed, scheduler=scheduler)
        self.population = Population(devices, seed)
        self.store = HibernationStore()
        self._admitted = 0
        self.delivered = 0
        self.flushes = 0
        self.cascade_actions = 0
        self.cascade_skipped = 0
        self._infected: bytearray | None = None
        self._cascade_rng = DeviceRng(hash64(seed, 0xCA5C))
        if sink == "stats":
            self.sink: StatsSink | ServerSink = StatsSink()
        elif sink == "server":
            self.sink = ServerSink(self.world)
        else:
            raise SimulationError(
                f"unknown sink {sink!r}; expected 'stats' or 'server'")
        self._mean_gap = self.horizon / self.events_per_device
        # One bound method shared by every pending device event.
        self._device_event = self._device_event
        self._started = False

    # -- the arrival pump ----------------------------------------------

    def start(self) -> "ScenarioEngine":
        if self._started:
            return self
        self._started = True
        self.world.scheduler.schedule_at(
            self.spec.arrival_time(0, self.population.size, self.horizon),
            self._pump, 0)
        if self.spec.cascade is not None:
            self.world.scheduler.schedule_at(
                self.horizon * self.spec.cascade.at_frac, self._cascade_seed)
        return self

    def _pump(self, index: int) -> None:
        """Admit device ``index`` and fire its first event — then chain
        to the next arrival.  One pump event per device, in index
        order, so the device's row is appended at ``index``."""
        self.store.append_initial(*self.population.initial_state(index))
        self._admitted += 1
        self._device_event(index)
        nxt = index + 1
        if nxt < self.population.size:
            self.world.scheduler.schedule_at(
                self.spec.arrival_time(nxt, self.population.size,
                                       self.horizon),
                self._pump, nxt)

    # -- per-device dynamics -------------------------------------------

    def _in_burst(self, index: int, now: float) -> bool:
        burst = self.spec.burst
        if burst is None:
            return False
        phase = now / self.horizon
        if not (burst.start_frac <= phase < burst.end_frac):
            return False
        return hash_unit(self.seed, 0xF1A5, index) \
            < burst.participant_fraction

    def _chaos_partitioned(self, index: int, now: float) -> bool:
        episode = self.spec.chaos
        if not self.chaos or episode is None:
            return False
        phase = now / self.horizon
        if not (episode.start_frac <= phase < episode.end_frac):
            return False
        return hash_unit(self.seed, 0xC4A0, index) < episode.fraction

    def _emit(self, index: int, now: float, modality: str,
              value: dict) -> None:
        store = self.store
        emitted = store._emitted[index]
        store._emitted[index] = emitted + 1
        record_id = f"r{index}-{emitted}"
        if store._online[index]:
            self.delivered += 1
            self.sink.deliver(record_id, self.population.user_id(index),
                              now, modality, value)
            return
        buffered = store._buffered[index] + 1
        cap = self.spec.connectivity.buffer_cap \
            if self.spec.connectivity is not None else 0
        if cap and buffered > cap:
            # Store-carry-forward with a bounded buffer: the oldest
            # record falls off; ids stay contiguous because the
            # buffer is always [emitted - buffered, emitted).
            buffered = cap
            store._dropped[index] += 1
        store._buffered[index] = buffered

    def _flush(self, index: int, now: float) -> None:
        """Deliver the carried buffer in emission order."""
        store = self.store
        buffered = store._buffered[index]
        if buffered == 0:
            return
        emitted = store._emitted[index]
        user_id = self.population.user_id(index)
        for seq in range(emitted - buffered, emitted):
            self.delivered += 1
            self.sink.deliver(f"r{index}-{seq}", user_id, now,
                              "location", {"carried": True})
        store._buffered[index] = 0
        self.flushes += 1

    def _device_event(self, index: int) -> None:
        now = self.world.now
        store = self.store
        # Splitmix64 draws, advanced inline: state += golden, then mix.
        state = (store._rng[index] + _GOLDEN) & _MASK64
        bearing = _TWO_PI * (mix64(state) / _UNIT)
        state = (state + _GOLDEN) & _MASK64
        step = mix64(state) / _UNIT * STEP_DEG
        # Mobility: a bounded random walk around the home position.
        home_lon, home_lat = self.population.home(index)
        lon = store._lon[index] + step * math.cos(bearing)
        lat = store._lat[index] + step * math.sin(bearing)
        if abs(lon - home_lon) < MAX_ROAM_DEG:
            store._lon[index] = lon
        if abs(lat - home_lat) < MAX_ROAM_DEG:
            store._lat[index] = lat
        # Link state.  One draw per event regardless of state keeps the
        # device's sequence a function of its event count alone.
        spec = self.spec.connectivity
        online = store._online[index]
        came_online = False
        if spec is not None:
            state = (state + _GOLDEN) & _MASK64
            draw = mix64(state) / _UNIT
            if online:
                if draw < spec.offline_probability:
                    online = 0
            elif draw < spec.reconnect_probability:
                online = 1
                came_online = True
        if self._chaos_partitioned(index, now):
            came_online = False
            online = 0
        elif self.chaos and not online and spec is not None \
                and now / self.horizon >= self.spec.chaos.end_frac:
            # The partition window is over: partitioned devices rejoin
            # at their first event past the window.
            online = 1
            came_online = True
        store._online[index] = online
        if came_online:
            self._flush(index, now)
        self._emit(index, now, "location",
                   {"lon": store._lon[index], "lat": store._lat[index]})
        # Next occurrence: exponential gap shaped by the rate profile
        # and any burst the device participates in.  1 - u is in
        # (0, 1]: log never sees zero.
        rate = self.spec.rate(now / self.horizon)
        if self._in_burst(index, now):
            rate *= self.spec.burst.rate_multiplier
        state = (state + _GOLDEN) & _MASK64
        gap = -(self._mean_gap / rate) * math.log(1.0 - mix64(state) / _UNIT)
        store._rng[index] = state
        nxt = now + gap
        if nxt <= self.horizon:
            self.world.scheduler.schedule_at(nxt, self._device_event, index)

    # -- the reshare cascade -------------------------------------------

    def _cascade_seed(self) -> None:
        cascade = self.spec.cascade
        size = self.population.size
        self._infected = bytearray(size)
        now = self.world.now
        planted = 0
        attempt = 0
        while planted < self.spec.seeds(size) and attempt < size:
            index = hash64(self.seed, 0x5EED, attempt) % size
            attempt += 1
            if self._infected[index]:
                continue
            self._infected[index] = 1
            planted += 1
            delay = self._cascade_rng.uniform(0.0, cascade.min_delay_s)
            self.world.scheduler.schedule_at(
                now + delay, self._cascade_post, index, cascade.max_depth)

    def _cascade_post(self, index: int, depth: int) -> None:
        if index >= self._admitted:
            # The reshare reached a device that has not arrived yet —
            # count it rather than conjuring state out of order.
            self.cascade_skipped += 1
            return
        now = self.world.now
        self.cascade_actions += 1
        self._emit(index, now, "facebook_activity",
                   {"action": "reshare", "depth": depth})
        cascade = self.spec.cascade
        if depth > 0:
            for friend in self.population.friends(index):
                if self._cascade_rng.random() < cascade.reshare_probability \
                        and not self._infected[friend]:
                    self._infected[friend] = 1
                    nxt = now + self._cascade_rng.uniform(
                        cascade.min_delay_s, cascade.max_delay_s)
                    if nxt <= self.horizon:
                        self.world.scheduler.schedule_at(
                            nxt, self._cascade_post, friend, depth - 1)

    # -- run & report --------------------------------------------------

    def run(self) -> dict:
        """Run the scenario to its horizon and return the report."""
        self.start()
        wall_start = time.perf_counter()
        self.world.run_until(self.horizon + DRAIN_S)
        wall = time.perf_counter() - wall_start
        return self.report(wall_s=wall)

    def report(self, wall_s: float | None = None) -> dict:
        events = self.world.scheduler.events_processed
        report = {
            "scenario": self.spec.name,
            "scheduler": self.scheduler_kind,
            "devices": self.population.size,
            "horizon_s": self.horizon,
            "chaos": self.chaos,
            "events": events,
            "activated": self._admitted,
            "emitted": self.store.emitted_total(),
            "delivered": self.delivered,
            "buffered_residual": self.store.buffered_total(),
            "dropped": self.store.dropped_total(),
            "flushes": self.flushes,
            "cascade_actions": self.cascade_actions,
            "cascade_skipped": self.cascade_skipped,
            "store_bytes": self.store.nbytes(),
            "store_bytes_per_device": self.store.nbytes()
            / max(1, len(self.store)),
        }
        report.update(self.sink.report())
        if wall_s is not None:
            report["wall_s"] = wall_s
            report["events_per_wall_s"] = events / wall_s if wall_s else 0.0
        return report

    def verify(self) -> list[str]:
        """Accounting invariants; an empty list means all hold."""
        problems = []
        emitted = self.store.emitted_total()
        buffered = self.store.buffered_total()
        dropped = self.store.dropped_total()
        if emitted != self.delivered + buffered + dropped:
            problems.append(
                f"record accounting broken: emitted {emitted} != "
                f"delivered {self.delivered} + buffered {buffered} + "
                f"dropped {dropped}")
        if self._admitted != self.population.size:
            problems.append(
                f"arrival pump incomplete: admitted {self._admitted} of "
                f"{self.population.size}")
        if self.delivered != self.sink.delivered:
            problems.append(
                f"sink saw {self.sink.delivered} deliveries, engine "
                f"counted {self.delivered}")
        return problems


def run_scenario(name: str, devices: int, **kwargs) -> dict:
    """Build, run and verify a named scenario; returns its report.

    The report gains a ``verify_problems`` list — empty on a clean run.
    """
    from repro.scenarios.library import get_scenario

    engine = ScenarioEngine(get_scenario(name), devices, **kwargs)
    report = engine.run()
    report["verify_problems"] = engine.verify()
    return report
