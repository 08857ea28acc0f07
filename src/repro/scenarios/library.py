"""Named population-scale scenarios.

Each scenario is a declarative :class:`ScenarioSpec` — arrival curve,
sensing-rate profile and optional burst / cascade / connectivity
dynamics — executed by :class:`repro.scenarios.engine.ScenarioEngine`
over a streaming :class:`repro.scenarios.population.Population`.  The
library ships four:

``city-day``
    A compressed urban day: staggered morning arrivals and a diurnal
    sensing-rate curve (quiet at the edges of the horizon, peak in the
    middle).  The scale workhorse — this is what the 100k-device CI
    smoke runs.
``flash-crowd``
    Uniform background load, then a stadium-size fraction of the
    population multiplies its sensing rate inside a narrow window.
    Carries a partition episode for chaos runs: half the crowd loses
    connectivity mid-burst and must buffer-and-flush.
``viral-cascade``
    An OSN action resharing cascade over the streamed social graph —
    the paper's Table 4 measured the middleware under bursts of tens
    of OSN actions; seeded across a 100k population the cascade
    replays that burst at three orders of magnitude more actions.
``dtn-partition``
    Store-carry-forward: devices stochastically lose connectivity,
    keep sensing into a bounded local buffer (oldest records dropped
    on overflow), and flush in order on reconnect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.simkit.errors import SimulationError


@dataclass(frozen=True)
class BurstSpec:
    """A rate burst over a window of the horizon."""

    start_frac: float
    end_frac: float
    participant_fraction: float
    rate_multiplier: float


@dataclass(frozen=True)
class CascadeSpec:
    """A reshare cascade seeded over the social graph."""

    at_frac: float            #: when (fraction of horizon) seeds post
    seed_fraction: float      #: fraction of the population seeded
    min_seeds: int            #: floor so tiny runs still cascade
    reshare_probability: float
    max_depth: int
    min_delay_s: float        #: reshare latency window
    max_delay_s: float


@dataclass(frozen=True)
class ConnectivitySpec:
    """Stochastic DTN connectivity: offline episodes with buffering."""

    offline_probability: float   #: P(go offline) per event while online
    reconnect_probability: float  #: P(reconnect) per event while offline
    buffer_cap: int              #: max buffered records per device


@dataclass(frozen=True)
class ChaosSpec:
    """A forced partition window (``repro chaos`` runs only)."""

    start_frac: float
    end_frac: float
    fraction: float   #: fraction of the population partitioned


def _flat(phase: float) -> float:
    return 1.0


def _diurnal(phase: float) -> float:
    """Quiet at the horizon edges (night), peaking mid-horizon."""
    return 0.3 + 1.4 * math.sin(math.pi * min(1.0, max(0.0, phase))) ** 2


@dataclass(frozen=True)
class ScenarioSpec:
    """A named, declarative population scenario."""

    name: str
    description: str
    horizon_s: float
    #: Mean sense events per device across the horizon at rate 1.0.
    events_per_device: float
    #: Arrivals are spread over the first ``arrival_fraction`` of the
    #: horizon; ``arrival_exponent`` < 1 front-loads them.
    arrival_fraction: float = 0.5
    arrival_exponent: float = 1.0
    rate_profile: str = "flat"   #: "flat" or "diurnal"
    burst: BurstSpec | None = None
    cascade: CascadeSpec | None = None
    connectivity: ConnectivitySpec | None = None
    chaos: ChaosSpec | None = None

    def arrival_time(self, index: int, size: int, horizon: float) -> float:
        """Activation instant of device ``index`` — monotone in index,
        so device index *is* arrival rank (the property the device
        columns are indexed by)."""
        quantile = (index + 0.5) / size
        return horizon * self.arrival_fraction \
            * quantile ** self.arrival_exponent

    def rate(self, phase: float) -> float:
        profile = _diurnal if self.rate_profile == "diurnal" else _flat
        return profile(phase)

    def seeds(self, size: int) -> int:
        if self.cascade is None:
            return 0
        return max(self.cascade.min_seeds,
                   int(size * self.cascade.seed_fraction))


SCENARIOS: dict[str, ScenarioSpec] = {
    spec.name: spec for spec in (
        ScenarioSpec(
            name="city-day",
            description="Compressed urban day: staggered arrivals, "
                        "diurnal sensing curve.",
            horizon_s=86_400.0,
            events_per_device=6.0,
            arrival_fraction=0.5,
            arrival_exponent=0.7,
            rate_profile="diurnal",
        ),
        ScenarioSpec(
            name="flash-crowd",
            description="A crowd fraction multiplies its sensing rate "
                        "in a narrow window; chaos variant partitions "
                        "half the crowd mid-burst.",
            horizon_s=3_600.0,
            events_per_device=4.0,
            arrival_fraction=0.25,
            burst=BurstSpec(start_frac=0.4, end_frac=0.6,
                            participant_fraction=0.3,
                            rate_multiplier=12.0),
            chaos=ChaosSpec(start_frac=0.45, end_frac=0.55, fraction=0.5),
            connectivity=ConnectivitySpec(
                offline_probability=0.0, reconnect_probability=1.0,
                buffer_cap=256),
        ),
        ScenarioSpec(
            name="viral-cascade",
            description="Reshare cascade over the streamed social "
                        "graph — Table 4's OSN action burst scaled "
                        "~x1000.",
            horizon_s=7_200.0,
            events_per_device=2.0,
            arrival_fraction=0.3,
            cascade=CascadeSpec(at_frac=0.35, seed_fraction=0.002,
                                min_seeds=3, reshare_probability=0.45,
                                max_depth=12, min_delay_s=2.0,
                                max_delay_s=45.0),
        ),
        ScenarioSpec(
            name="dtn-partition",
            description="Store-carry-forward: stochastic offline "
                        "episodes, bounded buffers, in-order flush "
                        "on reconnect.",
            horizon_s=14_400.0,
            events_per_device=6.0,
            arrival_fraction=0.4,
            connectivity=ConnectivitySpec(
                offline_probability=0.18, reconnect_probability=0.3,
                buffer_cap=64),
        ),
    )
}


def get_scenario(name: str) -> ScenarioSpec:
    try:
        return SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise SimulationError(
            f"unknown scenario {name!r}; available: {known}") from None
