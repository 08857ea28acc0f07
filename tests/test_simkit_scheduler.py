"""Unit tests for the discrete-event scheduler.

The load-bearing property is the firing order: pending events fire in
``(time, seq)`` order under every scheduler behaviour — nested
schedules, exact-time ties, cancellation (including compaction sweeps)
and periodic churn.  :class:`TestOrderingOracle` drives randomized
event programs through the real :class:`Scheduler` and through one
backed by :class:`ReferenceQueue`, a list scanned with ``min()``, and
compares the complete logs.
"""

import math
import random

import pytest

from repro.simkit import Scheduler, SchedulingError, World


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Scheduler().now == 0.0

    def test_clock_starts_at_custom_time(self):
        assert Scheduler(start_time=100.0).now == 100.0

    def test_event_fires_at_scheduled_time(self):
        scheduler = Scheduler()
        fired_at = []
        scheduler.schedule(5.0, lambda: fired_at.append(scheduler.now))
        scheduler.run()
        assert fired_at == [5.0]

    def test_events_fire_in_time_order(self):
        scheduler = Scheduler()
        order = []
        scheduler.schedule(3.0, order.append, "c")
        scheduler.schedule(1.0, order.append, "a")
        scheduler.schedule(2.0, order.append, "b")
        scheduler.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_scheduling_order(self):
        scheduler = Scheduler()
        order = []
        for label in ["first", "second", "third"]:
            scheduler.schedule(1.0, order.append, label)
        scheduler.run()
        assert order == ["first", "second", "third"]

    def test_negative_delay_rejected(self):
        with pytest.raises(SchedulingError):
            Scheduler().schedule(-1.0, lambda: None)

    def test_schedule_at_past_rejected(self):
        scheduler = Scheduler()
        scheduler.schedule(2.0, lambda: None)
        scheduler.run()
        with pytest.raises(SchedulingError):
            scheduler.schedule_at(1.0, lambda: None)

    def test_events_can_schedule_events(self):
        scheduler = Scheduler()
        seen = []

        def chain(depth):
            seen.append(scheduler.now)
            if depth > 0:
                scheduler.schedule(1.0, chain, depth - 1)

        scheduler.schedule(0.0, chain, 3)
        scheduler.run()
        assert seen == [0.0, 1.0, 2.0, 3.0]

    def test_run_until_advances_clock_even_when_idle(self):
        scheduler = Scheduler()
        scheduler.run_until(50.0)
        assert scheduler.now == 50.0

    def test_run_until_does_not_fire_later_events(self):
        scheduler = Scheduler()
        fired = []
        scheduler.schedule(10.0, fired.append, True)
        scheduler.run_until(5.0)
        assert fired == []
        scheduler.run_until(10.0)
        assert fired == [True]

    def test_run_until_backwards_rejected(self):
        scheduler = Scheduler()
        scheduler.run_until(10.0)
        with pytest.raises(SchedulingError):
            scheduler.run_until(5.0)

    def test_run_for_is_relative(self):
        scheduler = Scheduler()
        scheduler.run_for(3.0)
        scheduler.run_for(4.0)
        assert scheduler.now == 7.0

    def test_run_caps_events(self):
        scheduler = Scheduler()
        for _ in range(10):
            scheduler.schedule(1.0, lambda: None)
        assert scheduler.run(max_events=4) == 4
        assert scheduler.pending_count() == 6

    def test_events_processed_counter(self):
        scheduler = Scheduler()
        scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(2.0, lambda: None)
        scheduler.run()
        assert scheduler.events_processed == 2


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        scheduler = Scheduler()
        fired = []
        handle = scheduler.schedule(1.0, fired.append, True)
        handle.cancel()
        scheduler.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        scheduler = Scheduler()
        handle = scheduler.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert scheduler.pending_count() == 0

    def test_pending_count_excludes_cancelled(self):
        scheduler = Scheduler()
        keep = scheduler.schedule(1.0, lambda: None)
        drop = scheduler.schedule(2.0, lambda: None)
        drop.cancel()
        assert scheduler.pending_count() == 1
        keep.cancel()
        assert scheduler.pending_count() == 0

    def test_peek_time_skips_cancelled(self):
        scheduler = Scheduler()
        early = scheduler.schedule(1.0, lambda: None)
        scheduler.schedule(5.0, lambda: None)
        early.cancel()
        assert scheduler.peek_time() == 5.0


class TestPeriodicTasks:
    def test_periodic_fires_repeatedly(self):
        scheduler = Scheduler()
        times = []
        scheduler.every(10.0, lambda: times.append(scheduler.now))
        scheduler.run_until(35.0)
        assert times == [0.0, 10.0, 20.0, 30.0]

    def test_periodic_with_delay(self):
        scheduler = Scheduler()
        times = []
        scheduler.every(10.0, lambda: times.append(scheduler.now), delay=5.0)
        scheduler.run_until(30.0)
        assert times == [5.0, 15.0, 25.0]

    def test_periodic_cancel_stops_firing(self):
        scheduler = Scheduler()
        times = []
        task = scheduler.every(10.0, lambda: times.append(scheduler.now))
        scheduler.run_until(15.0)
        task.cancel()
        scheduler.run_until(100.0)
        assert times == [0.0, 10.0]

    def test_periodic_cancel_from_inside_callback(self):
        scheduler = Scheduler()
        count = []

        def fire():
            count.append(1)
            if len(count) == 3:
                task.cancel()

        task = scheduler.every(1.0, fire)
        scheduler.run_until(100.0)
        assert len(count) == 3

    def test_fire_count(self):
        scheduler = Scheduler()
        task = scheduler.every(1.0, lambda: None, delay=1.0)
        scheduler.run_until(5.0)
        assert task.fire_count == 5

    def test_zero_interval_rejected(self):
        import pytest
        from repro.simkit.scheduler import PeriodicTask
        with pytest.raises(SchedulingError):
            PeriodicTask(Scheduler(), 0.0, lambda: None, ())


class TestNanRejected:
    """NaN compares false with everything, so a ``< 0`` guard lets it
    through; once a NaN event fires the clock reads NaN for good."""

    def test_nan_delay_rejected(self):
        with pytest.raises(SchedulingError, match="nan"):
            Scheduler().schedule(math.nan, lambda: None)

    def test_nan_time_rejected(self):
        with pytest.raises(SchedulingError, match="nan"):
            Scheduler().schedule_at(math.nan, lambda: None)

    def test_nan_periodic_interval_rejected(self):
        with pytest.raises(SchedulingError):
            Scheduler().every(math.nan, lambda: None)

    def test_nan_run_until_rejected(self):
        scheduler = Scheduler()
        with pytest.raises(SchedulingError):
            scheduler.run_until(math.nan)
        with pytest.raises(SchedulingError):
            scheduler.run_for(math.nan)
        assert scheduler.now == 0.0

    def test_clock_and_order_survive_a_rejected_nan(self):
        scheduler = Scheduler()
        fired = []
        for at in (6.0, 5.0):
            scheduler.schedule_at(at, lambda: fired.append(scheduler.now))
        with pytest.raises(SchedulingError):
            scheduler.schedule(math.nan, lambda: fired.append("nan"))
        scheduler.run()
        assert fired == [5.0, 6.0]
        with pytest.raises(SchedulingError):
            scheduler.schedule_at(1.0, lambda: None)  # the past still is


class TestWorld:
    def test_component_registry_round_trip(self):
        world = World()
        component = object()
        world.attach("thing", component)
        assert world.component("thing") is component
        assert world.has_component("thing")

    def test_duplicate_attach_rejected(self):
        from repro.simkit import SimulationError
        world = World()
        world.attach("thing", object())
        with pytest.raises(SimulationError):
            world.attach("thing", object())

    def test_missing_component_rejected(self):
        from repro.simkit import SimulationError
        with pytest.raises(SimulationError):
            World().component("ghost")

    def test_detach_removes(self):
        world = World()
        world.attach("thing", object())
        world.detach("thing")
        assert not world.has_component("thing")

    def test_rng_streams_are_independent_of_creation_order(self):
        world_a = World(seed=9)
        first = world_a.rng("alpha").random()
        world_b = World(seed=9)
        world_b.rng("beta").random()  # extra consumer must not perturb alpha
        assert world_b.rng("alpha").random() == first

    def test_rng_streams_differ_by_name(self):
        world = World(seed=9)
        assert world.rng("a").random() != world.rng("b").random()

    def test_rng_streams_differ_by_seed(self):
        assert World(seed=1).rng("x").random() != World(seed=2).rng("x").random()

    def test_fork_produces_independent_streams(self):
        world = World(seed=5)
        forked = world.randoms.fork("child")
        assert forked.stream("x").random() != world.rng("x").random()


class ReferenceQueue:
    """Pending handles in a plain list; each pop scans it with
    ``min()`` over ``(time, seq)``.  Deliberately not a heap.  ``push``
    leaves ``handle.queue`` unset, so a cancel never calls back here."""

    def __init__(self):
        self.pending = []

    def push(self, handle):
        self.pending.append(handle)

    def peek(self):
        self.pending = [handle for handle in self.pending
                        if not handle.cancelled]
        return min(self.pending, key=lambda handle: (handle.time, handle.seq),
                   default=None)

    def pop(self):
        handle = self.peek()
        if handle is not None:
            self.pending.remove(handle)
        return handle

    def live_count(self):
        return sum(not handle.cancelled for handle in self.pending)


def _reference_scheduler() -> Scheduler:
    scheduler = Scheduler()
    scheduler._queue = ReferenceQueue()
    return scheduler


def _drive_program(scheduler: Scheduler, seed: int, ops: int) -> list:
    """One randomized event program, logged as (clock, label) pairs.

    The program exercises everything the scheduler contract promises:
    nested scheduling from inside callbacks, same-instant ties (fire in
    scheduling order), cancellation (including cancel-after-pop no-ops
    and periodic churn that leaks cancelled entries), and interleaved
    ``run_until`` clock reads.
    """
    rng = random.Random(seed)
    log: list = []
    handles: list = []
    periodics = []

    def fire(label: int, depth: int) -> None:
        log.append((scheduler.now, label))
        if depth > 0 and rng.random() < 0.6:
            # Nested schedules, sometimes at the exact current instant
            # (a zero delay) to force (time, seq) tie-breaking.
            delay = 0.0 if rng.random() < 0.2 else rng.uniform(0.0, 40.0)
            handles.append(scheduler.schedule(
                delay, fire, rng.randrange(1000), depth - 1))
        if handles and rng.random() < 0.3:
            handles.pop(rng.randrange(len(handles))).cancel()

    for index in range(ops):
        # A third of the top-level events land on a 5 s grid, so
        # many share an instant and only ``seq`` orders them.
        at = float(rng.randrange(0, 250, 5)) if rng.random() < 0.3 \
            else rng.uniform(0.0, 250.0)
        handles.append(scheduler.schedule_at(at, fire, index, 2))
        if rng.random() < 0.15:
            periodics.append(scheduler.every(
                rng.uniform(0.5, 20.0), fire, 10_000 + index, 0,
                delay=rng.uniform(0.0, 30.0)))
        if periodics and rng.random() < 0.25:
            periodics.pop(rng.randrange(len(periodics))).cancel()
        if rng.random() < 0.1:
            log.append(("peek", scheduler.peek_time()))
    horizon = 0.0
    while scheduler.pending_count() and horizon < 400.0:
        horizon += rng.uniform(5.0, 50.0)
        scheduler.run_until(horizon)
        log.append(("clock", scheduler.now, scheduler.pending_count()))
    for task in periodics:
        task.cancel()
    # Drain through ``run`` (pop without a peek first) after cancelling
    # every other tracked handle, so cancelled heads meet ``pop``.
    scheduler.schedule(60.0, fire, -1, 2)
    for handle in handles[::2]:
        handle.cancel()
    log.append(("drained", scheduler.run()))
    log.append(("end", scheduler.now, scheduler.events_processed))
    return log


class TestOrderingOracle:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_programs_fire_identically(self, seed):
        scheduler = Scheduler()
        log = _drive_program(scheduler, seed, ops=250)
        assert len(log) > 100  # the program actually ran
        assert log == _drive_program(_reference_scheduler(), seed, ops=250)


class TestHeapCompactionSweep:
    def test_cancelled_majority_triggers_sweep(self):
        scheduler = Scheduler()
        queue = scheduler.queue
        handles = [scheduler.schedule_at(float(index), lambda: None)
                   for index in range(128)]
        for handle in handles[:100]:
            handle.cancel()
        assert queue.compactions >= 1
        # The sweep reclaimed the bulk of the dead entries: the heap
        # shrank well below its 128-entry physical peak.
        assert queue.live_count() == 28
        assert len(queue._heap) < 128
        # Residual dead entries are bounded: below COMPACT_MIN the
        # sweep doesn't bother, so the slack never exceeds that floor.
        assert len(queue._heap) - queue.live_count() <= queue.COMPACT_MIN

    def test_small_queues_skip_compaction(self):
        scheduler = Scheduler()
        handles = [scheduler.schedule_at(float(index), lambda: None)
                   for index in range(10)]
        for handle in handles:
            handle.cancel()
        assert scheduler.queue.compactions == 0  # below COMPACT_MIN

    def test_periodic_churn_stays_bounded(self):
        # The original leak: cancelling periodic tasks left their
        # pending occurrences in the heap forever.
        scheduler = Scheduler()
        queue = scheduler.queue
        for round_index in range(300):
            task = scheduler.every(1.0, lambda: None, delay=500.0)
            scheduler.schedule_at(float(round_index), lambda: None)
            task.cancel()
        assert len(queue._heap) <= 2 * queue.live_count() + queue.COMPACT_MIN

    def test_firing_order_unaffected_by_sweep(self):
        def run(with_cancels):
            scheduler = Scheduler()
            fired = []
            for i in range(0, 200, 4):
                scheduler.schedule_at(float(i), fired.append, i)
            dead = [scheduler.schedule_at(float(i), fired.append, i)
                    for i in range(200) if i % 4]
            if with_cancels:
                for handle in dead:
                    handle.cancel()
                assert scheduler.queue.compactions >= 1
            scheduler.run()
            return [label for label in fired if label % 4 == 0]
        assert run(True) == run(False) == list(range(0, 200, 4))


#: ``(events_processed, fingerprint_store)`` of the two-phone testbed
#: below (seed 11, 600 sim-s).  Captured while a calendar-queue wheel
#: and the earlier heap of handles both still existed and agreed.
TESTBED_GOLDEN = (460, "6c6fa6472905b55dac7b9578e7c3d2cd")


class TestFullTestbed:
    def test_testbed_matches_golden(self):
        """The strongest end-to-end witness: a full SenSocial testbed
        (phones, MQTT, server ingest) produces the pinned event count
        and docstore fingerprint."""
        from repro import Granularity, ModalityType, SenSocialTestbed
        from repro.durability.codec import fingerprint_store

        testbed = SenSocialTestbed(seed=11)
        for index, city in enumerate(("Paris", "Bordeaux")):
            node = testbed.add_user(f"user{index}", home_city=city)
            node.manager.create_stream(ModalityType.ACCELEROMETER,
                                       Granularity.CLASSIFIED,
                                       send_to_server=True)
        testbed.run(600.0)
        assert (testbed.world.scheduler.events_processed,
                fingerprint_store(testbed.server.database.store)) \
            == TESTBED_GOLDEN
