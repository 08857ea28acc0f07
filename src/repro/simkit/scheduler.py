"""Deterministic discrete-event scheduler.

The scheduler owns the virtual clock.  Events are ``(time, seq, fn)``
triples; ``seq`` is a monotonically increasing counter so that two
events scheduled for the same instant always fire in scheduling order,
making every run bit-for-bit reproducible.

Pending events live in one binary heap of ``(time, seq, handle)``
tuples (:class:`HeapEventQueue`).  ``seq`` is unique, so ``heapq``
settles every comparison on the float and the int in C and never
reaches the handle.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.simkit.errors import SchedulingError


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is *lazy*: the entry stays in the queue but is skipped
    when popped, which keeps cancellation O(1).  The owning queue is
    notified so it can compact once cancelled entries dominate (see
    :meth:`HeapEventQueue.note_cancel`).
    """

    __slots__ = ("time", "seq", "fn", "args", "cancelled", "queue")

    def __init__(self, time: float, seq: int, fn: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False
        self.queue: "HeapEventQueue | None" = None

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self.cancelled:
            return
        self.cancelled = True
        if self.queue is not None:
            self.queue.note_cancel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<EventHandle t={self.time:.3f} seq={self.seq} {state}>"


class HeapEventQueue:
    """One binary heap of ``(time, seq, handle)`` entries.

    :meth:`pop` returns the live handle with the smallest ``(time,
    seq)`` — a *total* order, so firing order is fixed by the program
    alone.  Cancelled entries are skipped lazily at the top; a
    compaction sweep rebuilds the heap whenever cancelled entries
    outnumber live ones (they used to accumulate without bound when
    long runs churned periodic tasks — the ``EventHandle``
    lazy-cancellation leak).
    """

    __slots__ = ("_heap", "_cancelled", "compactions")

    #: Queues smaller than this skip compaction entirely — rebuilding a
    #: tiny queue costs more than the dead entries it would reclaim.
    COMPACT_MIN = 64

    def __init__(self):
        self._heap: list[tuple[float, int, EventHandle]] = []
        #: Cancelled entries still physically present in the heap.
        self._cancelled = 0
        self.compactions = 0

    def push(self, handle: EventHandle) -> None:
        handle.queue = self
        heapq.heappush(self._heap, (handle.time, handle.seq, handle))

    def pop(self) -> EventHandle | None:
        """Remove and return the minimum live handle, or ``None``."""
        self._drop_cancelled()
        if not self._heap:
            return None
        handle = heapq.heappop(self._heap)[2]
        handle.queue = None
        return handle

    def peek(self) -> EventHandle | None:
        """The minimum live handle without removing it, or ``None``."""
        self._drop_cancelled()
        return self._heap[0][2] if self._heap else None

    def live_count(self) -> int:
        return len(self._heap) - self._cancelled

    def note_cancel(self) -> None:
        """Called once per handle when it is cancelled while queued."""
        self._cancelled += 1
        if (self._cancelled * 2 > len(self._heap)
                and len(self._heap) >= self.COMPACT_MIN):
            self._compact()

    def _compact(self) -> None:
        """Drop every cancelled entry and re-heapify.

        A heap of the same live elements pops in the same ``(time,
        seq)`` order, so compaction is invisible to the simulation."""
        self._heap = [entry for entry in self._heap if not entry[2].cancelled]
        heapq.heapify(self._heap)
        self._cancelled = 0
        self.compactions += 1

    def _drop_cancelled(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)[2].queue = None
            self._cancelled -= 1


class PeriodicTask:
    """A repeating event with a fixed period.

    The next occurrence is scheduled only after the current one has
    fired, so cancelling from inside the callback works and a slow
    callback never causes events to pile up at the same instant.
    """

    __slots__ = ("_scheduler", "interval", "_fn", "_args", "_handle",
                 "_cancelled", "fire_count")

    def __init__(self, scheduler: "Scheduler", interval: float,
                 fn: Callable[..., Any], args: tuple):
        if not interval > 0:
            raise SchedulingError(f"periodic interval must be > 0, got {interval}")
        self._scheduler = scheduler
        self.interval = interval
        self._fn = fn
        self._args = args
        self._handle: EventHandle | None = None
        self._cancelled = False
        self.fire_count = 0

    def start(self, delay: float = 0.0) -> "PeriodicTask":
        """Arm the task; the first firing happens after ``delay`` seconds."""
        if not self._cancelled and self._handle is None:
            self._handle = self._scheduler.schedule(delay, self._fire)
        return self

    def cancel(self) -> None:
        """Stop the task; safe to call from inside the callback."""
        self._cancelled = True
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def _fire(self) -> None:
        if self._cancelled:
            return
        self.fire_count += 1
        self._fn(*self._args)
        if not self._cancelled:
            self._handle = self._scheduler.schedule(self.interval, self._fire)


class Scheduler:
    """The event loop: a virtual clock plus a queue of pending events."""

    def __init__(self, start_time: float = 0.0):
        self._now = float(start_time)
        self._queue = HeapEventQueue()
        self._seq = 0
        self.events_processed = 0

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    @property
    def queue(self) -> HeapEventQueue:
        """The backing event queue."""
        return self._queue

    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` after ``delay`` simulated seconds."""
        if not delay >= 0:  # also rejects NaN
            raise SchedulingError(f"delay must be >= 0 s, got {delay!r}")
        return self.schedule_at(self._now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Run ``fn(*args)`` at the absolute simulated instant ``time``."""
        if not time >= self._now:  # also rejects NaN
            raise SchedulingError(
                f"cannot schedule at t={time:.6f}, clock already at {self._now:.6f}")
        handle = EventHandle(time, self._seq, fn, args)
        self._seq += 1
        self._queue.push(handle)
        return handle

    def every(self, interval: float, fn: Callable[..., Any], *args: Any,
              delay: float = 0.0) -> PeriodicTask:
        """Create and start a :class:`PeriodicTask`."""
        return PeriodicTask(self, interval, fn, args).start(delay)

    def peek_time(self) -> float | None:
        """Time of the next live event, or ``None`` if the queue is empty."""
        handle = self._queue.peek()
        return handle.time if handle is not None else None

    def step(self) -> bool:
        """Process a single event.  Returns ``False`` when nothing is pending."""
        handle = self._queue.pop()
        if handle is None:
            return False
        self._now = handle.time
        self.events_processed += 1
        handle.fn(*handle.args)
        return True

    def run_until(self, time: float) -> None:
        """Process events up to and including instant ``time``.

        The clock is left exactly at ``time`` even if the queue drains
        early, so back-to-back ``run_until`` calls compose naturally.
        """
        if not time >= self._now:  # also rejects NaN
            raise SchedulingError(
                f"cannot run to t={time:.6f}, clock already at {self._now:.6f}")
        while True:
            next_time = self.peek_time()
            if next_time is None or next_time > time:
                break
            self.step()
        self._now = time

    def run_for(self, duration: float) -> None:
        """Process events for ``duration`` simulated seconds from now."""
        self.run_until(self._now + duration)

    def run(self, max_events: int | None = None) -> int:
        """Drain the queue (optionally capped); returns events processed."""
        count = 0
        while max_events is None or count < max_events:
            if not self.step():
                break
            count += 1
        return count

    def pending_count(self) -> int:
        """Number of live (non-cancelled) events in the queue."""
        return self._queue.live_count()
