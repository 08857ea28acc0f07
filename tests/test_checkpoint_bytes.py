"""Pinned durable bytes: the checkpoints and journal log of a small
durable deployment are fixed byte for byte.

A checkpoint encodes the live store (``Collection.snapshot`` is a view,
not a copy), so the snapshot frame, the log, the checkpoint count and
the store fingerprint must equal constants that were captured while
snapshots were still deep copies.  The run crosses several interval
checkpoints, location-update periods (``users`` documents are updated
in place, not only inserted) and one crash whose recovery checkpoints
again.
"""

from hashlib import blake2b

from repro.core.common import Granularity, ModalityType
from repro.docstore import JournaledDocumentStore
from repro.durability import (
    DurabilityConfig,
    StorageMedium,
    WriteAheadJournal,
    codec,
    fingerprint_store,
)
from repro.faults import ChaosController, FaultPlan
from repro.scenarios.testbed import SenSocialTestbed

USERS = ("u0", "u1", "u2", "u3", "u4", "u5")
CHECKPOINT_INTERVAL = 64
LOCATION_PERIOD_S = 120.0
CRASH_AT = 700.0
DOWNTIME_S = 30.0
HORIZON_S = 1500.0

#: Captured from deep-copied snapshots.
GOLDEN_SNAPSHOT_DIGEST = "2d27d690642b3625ae406b5a529d1cb4"
GOLDEN_LOG_DIGEST = "a1b60df2bc71dde0f4101bcd804b19f3"
GOLDEN_CHECKPOINTS = 6
GOLDEN_STORE_FINGERPRINT = "f1d7cdd4be25dabdf148e67b9a128158"


def digest(data: bytes) -> str:
    return blake2b(data, digest_size=16).hexdigest()


def logged_ops(log: bytes) -> list[str]:
    """The op of every frame on the log, history included."""
    ops, offset = [], 0
    while offset < len(log):
        _status, body, offset = codec.read_frame(log, offset)
        ops.append(codec.decode_entry(body).op)
    return ops


def run_durable_deployment():
    testbed = SenSocialTestbed(
        seed=5, location_update_period_s=LOCATION_PERIOD_S,
        durability=DurabilityConfig(checkpoint_interval=CHECKPOINT_INTERVAL))
    for user_id in USERS:
        node = testbed.add_user(user_id, "Paris")
        node.manager.create_stream(ModalityType.ACCELEROMETER,
                                   Granularity.CLASSIFIED,
                                   send_to_server=True)
        node.manager.create_stream(ModalityType.LOCATION,
                                   Granularity.RAW, send_to_server=True)
    ChaosController(testbed).apply(FaultPlan("server-crash").server_crash(
        at=CRASH_AT, downtime=DOWNTIME_S))
    testbed.run(HORIZON_S)
    return testbed


class TestPinnedDurableBytes:
    def test_checkpoint_and_log_bytes_are_pinned(self):
        testbed = run_durable_deployment()
        durability = testbed.durability
        medium = durability.medium
        # Interval checkpoints fired besides the recovery one, and
        # location updates rewrote ``users`` documents in place.
        assert durability.recoveries == 1
        assert "update_one" in logged_ops(medium.log_view())
        assert digest(codec.dumps(medium.load_snapshot())) \
            == GOLDEN_SNAPSHOT_DIGEST
        assert digest(medium.log_view()) == GOLDEN_LOG_DIGEST
        assert medium.checkpoints == GOLDEN_CHECKPOINTS
        assert fingerprint_store(durability.store) \
            == GOLDEN_STORE_FINGERPRINT

    def test_checkpoint_keeps_the_state_before_a_later_write(self):
        medium = StorageMedium()
        journal = WriteAheadJournal(medium, 1_000_000)
        store = JournaledDocumentStore(journal)
        journal.state_provider = lambda: {"store": store.snapshot()}
        users = store["users"]
        users.insert_one({"user_id": "a", "place": {"city": "Paris"}})
        users.insert_one({"user_id": "b", "place": {"city": "Rome"}})
        journal.checkpoint()
        before = codec.dumps(medium.load_snapshot())
        users.update_one({"user_id": "a"},
                         {"$set": {"place.city": "Oslo"}})
        users.delete_one({"user_id": "b"})
        assert codec.dumps(medium.load_snapshot()) == before
        documents = medium.load_snapshot()["store"]["collections"][
            "users"]["documents"]
        assert [(doc["user_id"], doc["place"]["city"])
                for doc in documents] == [("a", "Paris"), ("b", "Rome")]
