"""Population substrate: columns-as-state, golden outcomes, hashing.

A device is its row in the columnar store; the engine reads and writes
those columns in place.  The golden pins below were captured while an
eager substrate (every device object resident) and a resident LRU
(devices hibernated to and rehydrated from the columns) still existed
and agreed bit for bit; the column engine must reproduce them exactly.
Witnessed through the strongest channel available: records ride the
simulated network into a real server manager, and the docstore
fingerprint plus the server-side delivery order are compared, on the
heap and on the wheel.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, strategies as st

from repro.scenarios import (
    SCENARIOS,
    HibernationStore,
    Population,
    ScenarioEngine,
    ScenarioSpec,
    get_scenario,
    run_scenario,
)
from repro.scenarios.population import (
    ActiveDevice,
    DeviceRng,
    hash64,
    keyed_hash64,
    splitmix64,
)
from repro.simkit.errors import SimulationError


class TestDeviceRng:
    def test_sequence_depends_only_on_state(self):
        a, b = DeviceRng(12345), DeviceRng(12345)
        assert [a.random() for _ in range(20)] \
            == [b.random() for _ in range(20)]

    def test_state_roundtrip_resumes_sequence(self):
        rng = DeviceRng(999)
        rng.random()
        saved = rng.state
        tail = [rng.random() for _ in range(10)]
        resumed = DeviceRng(saved)
        assert [resumed.random() for _ in range(10)] == tail

    def test_splitmix_known_vector(self):
        # splitmix64(0) first output, per the reference implementation.
        _, out = splitmix64(0)
        assert out == 0xE220A8397B1DCDAF

    def test_uniform_in_range(self):
        rng = DeviceRng(7)
        draws = [rng.uniform(2.0, 5.0) for _ in range(200)]
        assert all(2.0 <= value < 5.0 for value in draws)

    def test_expovariate_positive(self):
        rng = DeviceRng(8)
        assert all(rng.expovariate(10.0) >= 0.0 for _ in range(200))


def _reference_hash64(*parts: int) -> int:
    """``hash64`` as first written: a full splitmix64 step, output mix
    included, per part (the outputs were discarded)."""
    state = 0x5851F42D4C957F2D
    for part in parts:
        state, _ = splitmix64(state ^ (part & (2 ** 64 - 1)))
    _, out = splitmix64(state)
    return out


class TestHash64:
    @given(st.lists(st.integers(min_value=-2 ** 70, max_value=2 ** 70),
                    min_size=1, max_size=5))
    def test_one_mix_fold_matches_reference(self, parts):
        assert hash64(*parts) == _reference_hash64(*parts)
        assert keyed_hash64(*parts[:-1])(parts[-1]) == hash64(*parts)


class TestPopulationGraph:
    def test_friends_symmetric_and_irreflexive(self):
        population = Population(200, seed=5)
        for index in range(200):
            for friend in population.friends(index):
                assert index != friend
                assert index in population.friends(friend), \
                    f"edge {index}->{friend} not symmetric"

    def test_friends_deterministic_without_state(self):
        # Two independent Population objects agree edge-for-edge:
        # nothing about the graph is stored, everything is derived.
        a, b = Population(300, seed=9), Population(300, seed=9)
        for index in range(0, 300, 7):
            assert a.friends(index) == b.friends(index)

    def test_communities_draw_independent_edge_patterns(self):
        population = Population(16_000, seed=0)
        size = population.community_size
        patterns = {
            tuple(population._edge(start + i, start + j)
                  for i in range(size) for j in range(i + 1, size))
            for start in range(0, 1000 * size, size)}
        assert len(patterns) >= 990

    def test_ring_keeps_every_member_connected(self):
        population = Population(64, seed=1)
        for index in range(64):
            assert population.friends(index), f"device {index} isolated"

    def test_initial_state_deterministic(self):
        a, b = Population(50, seed=3), Population(50, seed=3)
        assert [a.initial_state(i) for i in range(50)] \
            == [b.initial_state(i) for i in range(50)]

    def test_home_city_from_shared_registry(self):
        population = Population(40, seed=2)
        names = set(population.cities.names())
        assert {population.home_city(i).name for i in range(40)} <= names

    def test_rejects_bad_sizes(self):
        with pytest.raises(SimulationError):
            Population(0)
        with pytest.raises(SimulationError):
            Population(10, community_size=1)


class TestHibernationRoundtrip:
    def test_exact_scalar_roundtrip(self):
        store = HibernationStore()
        store.append_initial(0xDEADBEEF, 2.34567891234, 48.87654321)
        device = store.rehydrate(0)
        device.rng.random()
        device.lon += 0.0123456789
        device.online = False
        device.emitted, device.buffered, device.dropped = 17, 5, 2
        saved = (device.rng.state, device.lon, device.lat, device.online,
                 device.emitted, device.buffered, device.dropped)
        store.hibernate(device)
        back = store.rehydrate(0)
        assert (back.rng.state, back.lon, back.lat, back.online,
                back.emitted, back.buffered, back.dropped) == saved

    def test_rng_sequence_survives_hibernation(self):
        store = HibernationStore()
        store.append_initial(424242, 0.0, 0.0)
        straight = store.rehydrate(0)
        expected = [straight.rng.random() for _ in range(6)]
        churned = store.rehydrate(0)
        values = []
        for _ in range(6):
            values.append(churned.rng.random())
            store.writeback(churned)
            churned = store.rehydrate(0)
        assert values == expected

    def test_store_bytes_are_columnar(self):
        store = HibernationStore()
        for index in range(1000):
            store.append_initial(index, 0.0, 0.0)
        # 3x8B (rng/lon/lat) + 1B flag + 3x8B counters = 49 B/device.
        assert store.nbytes() == 1000 * 49

    def test_active_device_is_slotted(self):
        device = ActiveDevice(0, 1, 2.0, 3.0)
        with pytest.raises(AttributeError):
            device.surprise = 1


def _tight_dtn() -> ScenarioSpec:
    """``dtn-partition`` with a two-record carry buffer: the one spec
    here whose buffers overflow, so its pin covers the drop path."""
    spec = get_scenario("dtn-partition")
    return dataclasses.replace(spec, connectivity=dataclasses.replace(
        spec.connectivity, buffer_cap=2))


#: Golden outcome of each scenario at 50 devices, seed 9, into the
#: server sink: delivery fingerprint, docstore fingerprint, emitted,
#: delivered, buffered_residual, dropped, flushes, cascade_actions and
#: acks.  Captured while the eager substrate and the resident LRU still
#: existed; the eager run and the streaming runs at ``active_cap`` 2 and
#: 4096 all produced these values, on the heap and on the wheel.
GOLDEN = {
    "city-day": (
        "260f6af11a29a115f96e34ea13710693",
        "084da4923ef085d8142263dc416188e4", 303, 303, 0, 0, 0, 0, 303),
    "flash-crowd": (
        "40a936222283d3f68267addd95388c6e",
        "32d1aa511ab5acf2f4cf6a5cae0d3f15", 317, 317, 0, 0, 0, 0, 317),
    "flash-crowd+chaos": (
        "6c6b97e715df30c1a3434b3412146c83",
        "4b8cbb9328f2b65be2dcd8b0148133f3", 317, 313, 4, 0, 7, 0, 313),
    # Re-captured when edge draws began hashing the pair as one part.
    "viral-cascade": (
        "f16d6f79c11935dbd1e7f98f9ad6e7fb",
        "18ed6e3e41e8687f89d90207b12f8a03", 176, 176, 0, 0, 0, 46, 176),
    "dtn-partition": (
        "81c254ca8e00558932c71ca0df09a5c4",
        "d98762d777615febb03bc5ff521d14e1", 284, 249, 35, 0, 20, 0, 249),
    "dtn-partition+tight": (
        "b48e26f67c664fbe51672d82e53cf5de",
        "b7151292bbb7526d22afcfec1b5b7190", 284, 239, 27, 18, 20, 0, 239),
}


def _observed(label: str, scheduler: str = "heap", **kwargs) -> tuple:
    """Run the pinned configuration ``label`` and return its outcome in
    :data:`GOLDEN`'s field order."""
    spec = _tight_dtn() if label == "dtn-partition+tight" \
        else get_scenario(label.split("+")[0])
    engine = ScenarioEngine(spec, 50, seed=9, scheduler=scheduler,
                            sink="server", chaos=label.endswith("+chaos"),
                            **kwargs)
    report = engine.run()
    assert engine.verify() == []
    return (report["delivery_fingerprint"], report["docstore_fingerprint"],
            report["emitted"], report["delivered"],
            report["buffered_residual"], report["dropped"],
            report["flushes"], report["cascade_actions"], report["acks"])


class TestSubstrateIdentity:
    """Every scenario, on heap and on wheel, against its golden pin."""

    def test_city_day_eager_equals_streaming(self):
        # The pin is what the eager substrate produced.
        assert _observed("city-day") == GOLDEN["city-day"]

    def test_streaming_identical_under_residency_pressure(self):
        # cap=2 once forced hibernation churn on nearly every event; the
        # argument is now inert and must stay so.
        assert _observed("city-day", active_cap=2) == GOLDEN["city-day"]

    def test_wheel_equals_heap_on_scenario(self):
        assert _observed("city-day", scheduler="wheel") == GOLDEN["city-day"]

    @pytest.mark.parametrize("scheduler", ["heap", "wheel"])
    def test_flash_crowd_matches_golden(self, scheduler):
        for label in ("flash-crowd", "flash-crowd+chaos"):
            assert _observed(label, scheduler) == GOLDEN[label], label

    def test_dtn_buffering_identical_across_substrates(self):
        for label in ("dtn-partition", "dtn-partition+tight"):
            for scheduler in ("heap", "wheel"):
                assert _observed(label, scheduler) == GOLDEN[label], \
                    (label, scheduler)

    def test_cascade_identical_across_substrates(self):
        for scheduler in ("heap", "wheel"):
            assert _observed("viral-cascade", scheduler) \
                == GOLDEN["viral-cascade"], scheduler


class TestScenarioLibrary:
    def test_four_named_scenarios_ship(self):
        assert {"city-day", "flash-crowd", "viral-cascade",
                "dtn-partition"} <= set(SCENARIOS)

    def test_unknown_scenario_lists_available(self):
        with pytest.raises(SimulationError, match="city-day"):
            get_scenario("block-party")

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_every_scenario_runs_clean(self, name):
        report = run_scenario(name, 150, seed=4)
        assert report["verify_problems"] == []
        assert report["activated"] == 150
        assert report["emitted"] == report["delivered"] \
            + report["buffered_residual"] + report["dropped"]
        assert report["events"] > 150

    def test_arrival_times_monotone(self):
        for spec in SCENARIOS.values():
            times = [spec.arrival_time(i, 1000, spec.horizon_s)
                     for i in range(0, 1000, 13)]
            assert times == sorted(times)
            assert all(0.0 <= t <= spec.horizon_s for t in times)

    def test_flash_crowd_burst_raises_event_rate(self):
        flat = run_scenario("city-day", 200, seed=6)
        crowd = run_scenario("flash-crowd", 200, seed=6)
        # Same population; the burst window multiplies the crowd's
        # sensing rate, so flash-crowd emits measurably more per
        # horizon-hour than the diurnal day does.
        flat_rate = flat["emitted"] / flat["horizon_s"]
        crowd_rate = crowd["emitted"] / crowd["horizon_s"]
        assert crowd_rate > flat_rate

    def test_cascade_emits_osn_actions(self):
        report = run_scenario("viral-cascade", 400, seed=2)
        assert report["cascade_actions"] > 0
        assert report["cascade_skipped"] == 0

    def test_dtn_partition_buffers_and_flushes(self):
        report = run_scenario("dtn-partition", 200, seed=8)
        assert report["flushes"] > 0
        assert report["emitted"] == report["delivered"] \
            + report["buffered_residual"] + report["dropped"]

    def test_chaos_requires_an_episode(self):
        with pytest.raises(SimulationError, match="chaos"):
            ScenarioEngine(get_scenario("city-day"), 10, chaos=True)

    def test_flash_crowd_chaos_partitions_and_recovers(self):
        report = run_scenario("flash-crowd", 300, seed=1, chaos=True)
        assert report["verify_problems"] == []
        assert report["flushes"] > 0  # partitioned devices rejoined


class TestResidencyBounds:
    def test_streaming_respects_active_cap(self):
        # No device is ever resident: whatever the cap, no device is
        # copied out of the columns and the pin still holds.
        assert _observed("city-day", active_cap=16) == GOLDEN["city-day"]
        engine = ScenarioEngine(get_scenario("city-day"), 300, seed=3,
                                active_cap=16)
        engine.run()
        assert engine.store.hibernations == engine.store.rehydrations == 0
        assert len(engine.store) == 300
        assert engine.verify() == []

    def test_eager_substrate_is_rejected(self):
        with pytest.raises(SimulationError, match="eager substrate was "
                                                  "removed"):
            ScenarioEngine(get_scenario("city-day"), 10, substrate="eager")

    def test_cold_bytes_per_device_constant(self):
        small = ScenarioEngine(get_scenario("city-day"), 100, seed=1)
        big = ScenarioEngine(get_scenario("city-day"), 1000, seed=1)
        small.run()
        big.run()
        assert small.report()["store_bytes_per_device"] \
            == big.report()["store_bytes_per_device"] == 49.0
