"""Memory gate: traced bytes per device stay bounded at scale.

The scale wall the population substrate breaks is a *memory* wall:
eagerly materialized devices cost kilobytes each (objects, Mersenne
RNGs, per-device periodic tasks), so 100k devices used to mean
hundreds of megabytes before the first event fired.  Here a device is
its row in the columnar store and nothing else:

* each device costs exactly 49 bytes of columns (asserted exactly —
  it's arithmetic, not timing);
* the traced peak per device stays under a fixed ceiling at 10k and at
  100k devices, so no per-device object can creep back in unnoticed.

Measured with ``tracemalloc`` (Python-level allocations, deterministic
across machines — no RSS noise) over compressed ``city-day`` runs.
"""

from __future__ import annotations

import tracemalloc

import pytest

from repro.scenarios import ScenarioEngine, get_scenario

#: Exact column cost: 3x8B (rng state, lon, lat) + 1B flags
#: + 3x8B counters per device.
COLD_BYTES_PER_DEVICE = 49

#: Ceiling on traced peak bytes per device at every gated size.  The
#: linear terms are the 49 B of columns and each device's single
#: pending EventHandle (~150 B); 400 B/device means something resident
#: scales with the population again.
MAX_PEAK_BYTES_PER_DEVICE = 400.0


def _traced_run(devices: int) -> tuple[int, dict]:
    """Peak tracemalloc bytes over a compressed city-day run."""
    engine = ScenarioEngine(get_scenario("city-day"), devices, seed=0,
                            scheduler="wheel", events_per_device=1.0)
    tracemalloc.start()
    try:
        report = engine.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert engine.verify() == []
    return peak, report


@pytest.mark.parametrize("devices", [10_000, 100_000])
def test_population_memory_per_device_bounded(devices):
    peak, report = _traced_run(devices)

    # Devices cost exactly their columnar scalars.
    assert report["store_bytes_per_device"] == COLD_BYTES_PER_DEVICE

    per_device = peak / devices
    assert per_device <= MAX_PEAK_BYTES_PER_DEVICE, (
        f"{per_device:.0f} traced B/device at {devices:,} devices")

    print(f"\npopulation memory: {devices:,} devices -> {peak:,} B peak "
          f"({per_device:.1f} B/device)")
