"""Envelope size must be an invisible optimization.

Records move phone→server only as ``stream-batch`` record envelopes;
``batching=N`` only raises the envelope cap from one record to N (one
message, one journal frame, one index pass, one ack per envelope).
For the same seed and workload every cap must produce the golden
outputs pinned below:

* the canonical store fingerprints (one per shard),
* the stream delivery order at server applications (as a digest),
* the ingest and duplicate counters,
* the trace terminal accounting (delivered/dropped taxonomy),

and journal replays that re-derive the store exactly
(``repro replay --verify``'s oracle, ``verify_replay()``) — on the
monolithic server AND on a sharded cluster, through faults, including
a server crash landing mid-envelope, where in-flight envelopes die and
outboxes retransmit their members after the restart.

The golden values were captured from the former per-record transport
(one ``stream-data`` message per record) before it was removed, so
these runs still prove that envelopes of any size reproduce it.
"""

from __future__ import annotations

from hashlib import blake2b

import pytest

from repro.core.common import Granularity, ModalityType
from repro.durability.codec import fingerprint_store
from repro.faults import ChaosController, FaultPlan
from repro.scenarios.testbed import SenSocialTestbed

USERS = ("alice", "bob")

#: Main sensing window; faults land inside it, the tail drains after.
HORIZON_S = 500.0
DRAIN_S = 120.0

#: Terminal counts of the traced runs: every record delivered.
ALL_DELIVERED = {"delivered": 22, "delivered_local": 0, "dropped": 0,
                 "in_flight": 0}

#: Golden outputs per run: store fingerprints, delivery-order digest
#: and ``(records ingested, duplicates dropped)``.
GOLDEN = {
    "mono-7": (["ab6235ff526b4b3a7cc6f437d25fd6fc"],
               "236caafd37add2204b3b81075857d0a1", (22, 0)),
    "mono-21": (["1b7abb1ad78fab1cce0f3a1a23866724"],
                "f5972ffb0a6767fce06e56c96d828755", (22, 0)),
    "volatile": (["ab6235ff526b4b3a7cc6f437d25fd6fc"],
                 "236caafd37add2204b3b81075857d0a1", (22, 0)),
    "sharded": (["4555be6bac8e2418c47bb25061aa08df",
                 "24f8bda96a16f79a600a82554429053e"],
                "81ff1ab9ef5148eec20dea9d566b9bbf", (22, 0)),
    "crash": (["8d48191c594983d5b59ff4e689959eb2"],
              "d41ef24c147d648f9cb199990ff9cb9a", (22, 0)),
    "partition-crash": (["e4a2cef1e134f1c6776ee248205e9c54"],
                        "d1b93802fb22a70583dc5d4f61b9f3ab", (22, 0)),
    "sharded-crash": (["10e479afabae925582d053d08eaa773a",
                       "6a1dfb44457f1c145876131b9541855a"],
                      "9e9883201b9152eafb1550bf73f72fc8", (22, 0)),
}


def run_deployment(seed: int, *, batching, durability=True, shards=None,
                   observability=False, plan: FaultPlan | None = None):
    """One full deployment; returns ``(testbed, delivery_order)``."""
    testbed = SenSocialTestbed(seed=seed, durability=durability,
                               shards=shards, observability=observability,
                               batching=batching)
    delivered: list[tuple] = []
    testbed.server.register_listener(
        lambda record: delivered.append(
            (record.user_id, record.timestamp, record.modality.value,
             record.value)))
    for user_id in USERS:
        node = testbed.add_user(user_id, "Paris")
        node.manager.create_stream(ModalityType.ACCELEROMETER,
                                   Granularity.CLASSIFIED,
                                   send_to_server=True)
    if plan is not None:
        ChaosController(testbed).apply(plan)
    testbed.run(HORIZON_S)
    testbed.run(DRAIN_S)
    return testbed, delivered


def store_fingerprints(testbed) -> list[str]:
    """Canonical digests of every server-side store (one per shard)."""
    if testbed.shards is None:
        return [fingerprint_store(testbed.server.database.store)]
    return [fingerprint_store(worker.database.store)
            for worker in testbed.server.shard_workers()]


def order_digest(delivered: list[tuple]) -> str:
    """Digest of the delivery order (``repr`` of each entry, in order)."""
    digest = blake2b(digest_size=16)
    for entry in delivered:
        digest.update(repr(entry).encode("utf-8"))
    return digest.hexdigest()


def replay_matches(testbed) -> list[bool]:
    """``repro replay --verify``'s oracle for every journal."""
    controllers = (testbed.durabilities if testbed.durabilities is not None
                   else [testbed.durability])
    return [controller.verify_replay()["match"]
            for controller in controllers]


def ingest_counters(testbed) -> tuple[int, int]:
    """(records ingested, duplicates dropped), mono or cluster-summed."""
    counters = testbed.server.health()["counters"]
    return (int(counters["records_received"]),
            int(counters["duplicates_dropped"]))


def assert_golden(name: str, run) -> None:
    """A ``run_deployment`` result reproduces the golden outputs."""
    testbed, delivered = run
    stores, order, counters = GOLDEN[name]
    assert store_fingerprints(testbed) == stores
    assert order_digest(delivered) == order
    assert ingest_counters(testbed) == counters


def assert_all_delivered(testbed) -> None:
    """Trace terminal accounting of a traced golden run."""
    assert testbed.obs.tracer.terminal_counts() == ALL_DELIVERED
    assert testbed.obs.tracer.drop_taxonomy() == {}


class TestPlainIdentity:
    @pytest.mark.parametrize("seed", [7, 21])
    def test_durable_mono(self, seed):
        for batching in (None, 4):
            run = run_deployment(seed, batching=batching)
            assert_golden(f"mono-{seed}", run)
            assert replay_matches(run[0]) == [True]

    def test_volatile_mono(self):
        """No durability: the volatile ``_on_stream_batch`` path."""
        for batching in (None, 8):
            assert_golden("volatile", run_deployment(
                7, batching=batching, durability=False))

    def test_durable_sharded(self):
        for batching in (None, 16):
            run = run_deployment(11, batching=batching, shards=2)
            assert_golden("sharded", run)
            assert replay_matches(run[0]) == [True, True]


class TestIdentityUnderFaults:
    def test_server_crash_mid_batch(self):
        """A crash lands while envelopes are in flight: the members die
        un-acked, outboxes retransmit them after the restart, and the
        replayed journal still re-derives the exact same store."""
        for batching in (None, 8):
            plan = FaultPlan("crash").server_crash(at=400.0, downtime=60.0)
            run = run_deployment(13, batching=batching, observability=True,
                                 plan=plan)
            assert_golden("crash", run)
            assert replay_matches(run[0]) == [True]
            assert_all_delivered(run[0])

    def test_partition_plus_crash_flushes_real_batches(self):
        """A partition backs the outbox up, so the reconnect flush
        sends genuinely multi-record envelopes — then a crash forces
        retransmission through the durable path.  The golden outputs
        must hold AND the batched run must prove batches flowed."""
        for batching in (None, 8):
            plan = (FaultPlan("partition-crash")
                    .partition("device:alice", start=120.0, duration=180.0)
                    .server_crash(at=500.0, downtime=60.0))
            run = run_deployment(17, batching=batching, observability=True,
                                 plan=plan)
            assert_golden("partition-crash", run)
            assert replay_matches(run[0]) == [True]
            assert_all_delivered(run[0])
            # The publish-stage envelope-size histogram: envelopes of
            # one without a cap, a multi-record flush with one.
            histogram = run[0].obs.telemetry.histogram(
                "batch_size", stage="publish")
            assert histogram.count > 0
            if batching is None:
                assert histogram.max == 1
            else:
                assert histogram.max > 1

    def test_sharded_crash(self):
        """Same contract on a 2-shard cluster with a mid-run crash."""
        for batching in (None, 8):
            plan = FaultPlan("crash").server_crash(at=300.0, downtime=45.0)
            run = run_deployment(23, batching=batching, shards=2, plan=plan)
            assert_golden("sharded-crash", run)
            assert all(replay_matches(run[0]))
