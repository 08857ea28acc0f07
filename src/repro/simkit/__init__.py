"""Discrete-event simulation kernel.

Everything in the reproduction runs on top of this kernel: a virtual
clock, a deterministic event scheduler, named seeded random streams and
a :class:`World` container that wires components together.  The kernel
is deliberately small and dependency-free so that every higher layer
(network, MQTT broker, devices, middleware) shares one notion of time.

Pending events live in one binary heap of ``(time, seq, handle)``
tuples (:class:`HeapEventQueue`), which fires the ``(time, seq)``
total order.  ``tests/test_simkit_scheduler.py`` checks that order
against a reference queue over randomized event programs.
"""

from repro.simkit.errors import SimulationError, SchedulingError
from repro.simkit.scheduler import (
    EventHandle,
    HeapEventQueue,
    PeriodicTask,
    Scheduler,
)
from repro.simkit.randomness import RandomStreams
from repro.simkit.world import World

__all__ = [
    "EventHandle",
    "HeapEventQueue",
    "PeriodicTask",
    "RandomStreams",
    "Scheduler",
    "SchedulingError",
    "SimulationError",
    "World",
]
