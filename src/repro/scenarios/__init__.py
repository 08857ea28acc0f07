"""Canned simulation worlds used by examples, tests and benchmarks.

Two families live here:

* The *testbed* (:class:`SenSocialTestbed`, :func:`build_paris_scenario`)
  — small, fully materialized worlds with real phones, sensors and OSN
  plumbing, used by the paper-figure reproductions.
* The *population substrate* (:class:`Population`,
  :class:`ScenarioEngine`, :data:`SCENARIOS`) — streaming 100k-device
  scenarios where devices are generated lazily from seeds and live
  only as rows of a columnar store that event handlers update in place.
"""

from repro.scenarios.testbed import MobileNode, SenSocialTestbed
from repro.scenarios.paris import build_paris_scenario
from repro.scenarios.population import (
    DeviceRng,
    HibernationStore,
    Population,
)
from repro.scenarios.library import SCENARIOS, ScenarioSpec, get_scenario
from repro.scenarios.engine import (
    ScenarioEngine,
    ServerSink,
    StatsSink,
    run_scenario,
)

__all__ = [
    "DeviceRng",
    "HibernationStore",
    "MobileNode",
    "Population",
    "SCENARIOS",
    "ScenarioEngine",
    "ScenarioSpec",
    "SenSocialTestbed",
    "ServerSink",
    "StatsSink",
    "build_paris_scenario",
    "get_scenario",
    "run_scenario",
]
