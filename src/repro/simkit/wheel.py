"""Name kept for the benchmark's layer wrapping; there is no wheel.

The scheduler has one event queue, :class:`HeapEventQueue`.
``perfbench/layers.py`` still imports ``CalendarEventQueue`` from here
and wraps its ``push``/``pop``/``peek``.  A subclass, unlike an alias,
gives that wrapping its own class to patch, so ``HeapEventQueue``'s
methods are wrapped once.
"""

from repro.simkit.scheduler import HeapEventQueue


class CalendarEventQueue(HeapEventQueue):
    """Never instantiated; see the module docstring."""
