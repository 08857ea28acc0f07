"""Wall time scaled to a reference machine speed.

A shared host's speed can swing by ±20% within seconds and between
minutes, and process time then tracks wall time exactly, so neither is
a steady denominator.  This clock cuts a timed region into
slices of about ``SLICE_S`` of wall time and runs a fixed reference
kernel between slices (outside the timed region).  Each slice's wall
time is scaled by ``NOMINAL_S`` / (mean time of the two kernels around
it), so a slice that ran while the host was slow counts as the time it
would have taken at the reference speed.  ``wall`` keeps the raw sum.

The kernel is the benchmark's own code and never changes with the
program, so a faster program still reads faster.  Slicing a simulation
run is invisible to the program: ``run_until(a)`` then ``run_until(b)``
processes exactly the events ``run_until(b)`` would.
"""

from __future__ import annotations

import gc
import heapq
import time

#: Loop rounds of the reference kernel; ``NOMINAL_S`` is calibrated to it.
KERNEL_ROUNDS = 1500
#: Reference kernel time at the reference speed (2 vCPU, CPython 3.11).
NOMINAL_S = 0.0025
#: Target wall time of one slice.
SLICE_S = 0.02


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: float):
        self.key = key
        self.value = value


def reference_kernel() -> float:
    """Seconds one fixed interpreter workload takes right now: object
    allocation, attribute and dict access, a bounded heap, string
    formatting — the simulation's own mix.

    The cyclic collector is paused meanwhile: the kernel's garbage is
    acyclic and freed by reference counting, and a collection of the
    program's heap must not be timed as host slowness."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        heap: list = []
        table: dict = {}
        total = 0.0
        for index in range(KERNEL_ROUNDS):
            item = _Item(f"k{index % 97}", index * 0.5)
            heapq.heappush(heap, (item.value % 13.0, index, item))
            table[item.key] = table.get(item.key, 0) + 1
            if len(heap) > 64:
                _, _, popped = heapq.heappop(heap)
                total += popped.value * table[popped.key]
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class ScaledClock:
    """Accumulates raw and reference-scaled wall time over slices."""

    def __init__(self):
        self.wall = 0.0
        self.scaled = 0.0
        self._reference = 0.0
        self._mark = 0.0

    def start(self) -> None:
        self._reference = reference_kernel()
        self._mark = time.perf_counter()

    def tick(self) -> None:
        """Close the current slice and open the next one."""
        elapsed = time.perf_counter() - self._mark
        reference = reference_kernel()
        self.wall += elapsed
        self.scaled += elapsed * NOMINAL_S / (
            (self._reference + reference) / 2.0)
        self._reference = reference
        self._mark = time.perf_counter()

    def run_until(self, world, until: float) -> None:
        """``world.run_until(until)`` in slices of about ``SLICE_S``."""
        step = 1.0
        while True:
            target = min(until, world.now + step)
            started = time.perf_counter()
            world.run_until(target)
            elapsed = time.perf_counter() - started
            self.tick()
            if target >= until:
                return
            step *= min(4.0, SLICE_S / max(elapsed, 1e-6))
