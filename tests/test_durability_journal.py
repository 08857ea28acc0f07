"""Write-ahead journal unit tests: append-before-apply, nested-op
suppression, checkpoints, replay equivalence, and fault injection."""

import pytest

from repro.core.common.records import StreamRecord
from repro.docstore import DocumentStore, JournaledDocumentStore
from repro.docstore.errors import DuplicateKeyError
from repro.durability import (
    DurabilityError,
    JournalEntry,
    StorageMedium,
    StorageWriteError,
    WriteAheadJournal,
    fingerprint_store,
    replay,
)


def make_store(checkpoint_interval=1_000_000):
    medium = StorageMedium()
    journal = WriteAheadJournal(medium, checkpoint_interval)
    store = JournaledDocumentStore(journal)
    journal.state_provider = lambda: {"store": store.snapshot()}
    return medium, journal, store


def recover(medium):
    """Fresh store rebuilt from the medium: snapshot + journal tail."""
    fresh_medium = StorageMedium()
    journal = WriteAheadJournal(fresh_medium, 1_000_000)
    store = JournaledDocumentStore(journal)
    snapshot = medium.load_snapshot()
    with journal.suspended():
        if snapshot is not None:
            store.restore(snapshot["store"])
        result = replay(store, list(medium.entries))
    return store, result


def wire_document(value, **extra):
    """A record's wire document as the mobile outbox sends it."""
    return {"stream_id": "s1", "user_id": "u1", "device_id": "d1",
            "modality": "accelerometer", "granularity": "classified",
            "timestamp": 1.0, "value": value, "details": {},
            "osn_action": None, **extra}


class TestJournaling:
    def test_append_before_apply(self):
        medium, journal, store = make_store()
        store["users"].insert_one({"user_id": "a"})
        assert [entry.op for entry in medium.entries][-1] == "insert_one"

    def test_every_mutating_op_journaled(self):
        medium, journal, store = make_store()
        users = store["users"]
        users.create_index("user_id", unique=True)
        users.insert_one({"user_id": "a"})
        users.update_one({"user_id": "a"}, {"$set": {"x": 1}})
        users.update_many({}, {"$set": {"y": 2}})
        users.delete_one({"user_id": "missing"})
        users.delete_many({"user_id": "missing"})
        ops = [entry.op for entry in medium.entries]
        assert ops == ["create_index", "insert_one", "update_one",
                       "update_many", "delete_one", "delete_many"]

    def test_upsert_journals_one_entry(self):
        medium, journal, store = make_store()
        store["users"].update_one({"user_id": "a"},
                                  {"$set": {"x": 1}}, upsert=True)
        # The upsert's internal insert is suppressed by the depth guard.
        assert [entry.op for entry in medium.entries] == ["update_one"]

    def test_index_recreation_not_journaled(self):
        medium, journal, store = make_store()
        store["users"].create_index("user_id")
        store["users"].create_index("user_id")
        assert [entry.op for entry in medium.entries] == ["create_index"]

    def test_suspended_ops_not_journaled(self):
        medium, journal, store = make_store()
        with journal.suspended():
            store["users"].insert_one({"user_id": "a"})
        assert len(medium.entries) == 0
        assert store["users"].count() == 1

    def test_payload_deep_copied(self):
        medium, journal, store = make_store()
        doc = {"user_id": "a", "tags": ["x"]}
        store["users"].insert_one(doc)
        doc["tags"].append("y")
        assert medium.entries[0].payload["document"]["tags"] == ["x"]


class TestReplay:
    def test_replay_reproduces_state(self):
        medium, journal, store = make_store()
        users = store["users"]
        users.create_index("user_id", unique=True)
        users.insert_one({"user_id": "a", "n": 0})
        users.update_one({"user_id": "a"}, {"$inc": {"n": 5}})
        users.update_one({"user_id": "b"}, {"$set": {"n": 9}}, upsert=True)
        users.delete_one({"user_id": "a"})
        recovered, result = recover(medium)
        assert result.failed == 0
        assert sorted(d["user_id"] for d in recovered["users"].find()) == ["b"]
        assert recovered["users"].find_one({"user_id": "b"})["n"] == 9

    def test_replay_preserves_ids(self):
        medium, journal, store = make_store()
        store["users"].insert_one({"user_id": "a"})
        store["users"].insert_one({"user_id": "b"})
        original = {d["user_id"]: d["_id"] for d in store["users"].find()}
        recovered, _ = recover(medium)
        assert {d["user_id"]: d["_id"]
                for d in recovered["users"].find()} == original

    def test_failed_op_fails_identically_on_replay(self):
        medium, journal, store = make_store()
        users = store["users"]
        users.create_index("user_id", unique=True)
        users.insert_one({"user_id": "a"})
        with pytest.raises(DuplicateKeyError):
            users.insert_one({"user_id": "a"})
        recovered, result = recover(medium)
        assert result.failed == 1
        assert recovered["users"].count() == 1

    def test_ingest_entry_restores_dedup_ids(self):
        medium, journal, store = make_store()
        trace = {"trace_id": "t1", "span_id": "p1"}
        members = [wire_document(1, trace=trace, record_id="r1"),
                   wire_document(2)]  # id-less: stored, never deduped
        documents = [StreamRecord.from_dict(member).to_dict()
                     for member in members]
        with journal.op("ingest_batch", "records", records=members):
            store["records"].insert_many(documents)
        recovered, result = recover(medium)
        assert result.dedup_ids == ["r1"]
        assert result.traces == [("r1", trace)]
        # Replay stores each member's record document, without its id.
        assert ([{k: v for k, v in doc.items() if k != "_id"}
                 for doc in recovered["records"].find()] == documents)

    def test_unknown_op_raises(self):
        store = DocumentStore()
        entry = JournalEntry(seq=0, op="explode", collection="x")
        with pytest.raises(DurabilityError):
            replay(store, [entry])


class TestCheckpoints:
    def test_checkpoint_truncates_and_recovery_survives(self):
        medium, journal, store = make_store(checkpoint_interval=3)
        for index in range(7):
            store["users"].insert_one({"n": index})
        assert medium.checkpoints >= 1
        assert len(medium.entries) < 7
        recovered, _ = recover(medium)
        assert recovered["users"].count() == 7

    def test_lag_returns_to_zero_after_checkpoint(self):
        medium, journal, store = make_store()
        store["users"].insert_one({"n": 1})
        assert journal.lag == 1
        journal.checkpoint()
        assert journal.lag == 0
        recovered, _ = recover(medium)
        assert recovered["users"].count() == 1

    def test_checkpoint_without_provider_raises(self):
        journal = WriteAheadJournal(StorageMedium(), 10)
        with pytest.raises(DurabilityError):
            journal.checkpoint()


class TestSnapshotRestore:
    def test_collection_roundtrip_preserves_next_id(self):
        store = DocumentStore()
        store["users"].create_index("user_id", unique=True)
        store["users"].insert_one({"user_id": "a"})
        state = store.snapshot()
        other = DocumentStore()
        other.restore(state)
        # The id allocator position must survive: the next insert on
        # the restored store gets the same _id the original would.
        original_id = store["users"].insert_one({"user_id": "b"})
        restored_id = other["users"].insert_one({"user_id": "b"})
        assert original_id == restored_id
        with pytest.raises(DuplicateKeyError):
            other["users"].insert_one({"user_id": "a"})

    def test_restored_store_shares_no_documents(self):
        """A snapshot is a view of the live documents; ``restore`` is
        the side that copies, so writes on either store after a round
        trip never show through in the other."""
        store = DocumentStore()
        users = store["users"]
        users.insert_one({"user_id": "a", "place": {"city": "Paris"}})
        users.insert_one({"user_id": "b", "tags": ["x"]})
        other = DocumentStore()
        other.restore(store.snapshot())

        def view(target):
            return (list(target["users"].find()),
                    fingerprint_store(target))

        frozen = view(other)
        store["users"].update_one({"user_id": "a"},
                                  {"$set": {"place.city": "Oslo"}})
        store["users"].update_one({"user_id": "b"},
                                  {"$push": {"tags": "y"}})
        store["users"].delete_one({"user_id": "b"})
        assert view(other) == frozen
        frozen = view(store)
        other["users"].update_one({"user_id": "a"},
                                  {"$set": {"place.city": "Rome"}})
        other["users"].delete_one({"user_id": "b"})
        assert view(store) == frozen


class TestWriteFaults:
    def test_strict_failure_raises_without_apply(self):
        medium, journal, store = make_store()
        medium.inject_write_failures(1)
        with pytest.raises(StorageWriteError):
            with journal.op("ingest_batch", "records", strict=True,
                            records=[{"v": 1, "record_id": "r1"}]):
                raise AssertionError("body must not run")
        assert store["records"].count() == 0
        assert medium.append_failures == 1

    def test_nonstrict_failure_applies_in_memory_only(self):
        medium, journal, store = make_store()
        medium.inject_write_failures(1)
        store["users"].insert_one({"user_id": "a"})
        assert store["users"].count() == 1  # dirty write, visible now
        assert journal.lost_appends == 1
        recovered, _ = recover(medium)
        assert recovered["users"].count() == 0  # ...and lost by a crash

    def test_failures_burn_down(self):
        medium = StorageMedium()
        medium.inject_write_failures(2)
        for _ in range(2):
            with pytest.raises(StorageWriteError):
                medium.append(JournalEntry(0, "insert_one", "x"))
        medium.append(JournalEntry(0, "insert_one", "x", {"document": {}}))
        assert medium.pending_write_failures == 0
        assert len(medium.entries) == 1


class TestApplyCoverage:
    """Replay coverage for the less-travelled ``_apply`` branches."""

    def test_drop_collection_replays(self):
        medium, journal, store = make_store()
        store["users"].insert_one({"user_id": "a"})
        store["stale"].insert_one({"user_id": "b"})
        store.drop_collection("stale")
        recovered, result = recover(medium)
        assert result.failed == 0
        assert "stale" not in recovered.collection_names()
        assert recovered["users"].count() == 1

    def test_drop_replays_and_leaves_collection_usable(self):
        medium, journal, store = make_store()
        store["users"].insert_one({"user_id": "a"})
        store["users"].drop()
        store["users"].insert_one({"user_id": "b"})
        recovered, result = recover(medium)
        assert result.failed == 0
        assert [d["user_id"] for d in recovered["users"].find()] == ["b"]
        # The id allocator restarted with the drop on both sides.
        assert ({d["_id"] for d in recovered["users"].find()}
                == {d["_id"] for d in store["users"].find()})

    def test_create_index_replays_with_uniqueness(self):
        medium, journal, store = make_store()
        store["users"].create_index("user_id", unique=True)
        store["users"].insert_one({"user_id": "a"})
        recovered, result = recover(medium)
        assert result.failed == 0
        with pytest.raises(DuplicateKeyError):
            recovered["users"].insert_one({"user_id": "a"})

    def test_unknown_op_identifies_itself(self):
        store = DocumentStore()
        entry = JournalEntry(seq=3, op="explode", collection="x")
        with pytest.raises(DurabilityError, match="explode"):
            replay(store, [entry])

    def test_failed_entry_taxonomy_and_replay_idempotence(self):
        medium, journal, store = make_store()
        users = store["users"]
        users.create_index("user_id", unique=True)
        users.insert_one({"user_id": "a"})
        with pytest.raises(DuplicateKeyError):
            users.insert_one({"user_id": "a"})
        users.insert_one({"user_id": "b"})  # life goes on after the fail
        recovered, result = recover(medium)
        # The failed entry fails identically on replay and is skipped...
        assert result.failed == 1
        assert sorted(d["user_id"]
                      for d in recovered["users"].find()) == ["a", "b"]
        # ...and the taxonomy names the op, collection and error.
        [failure] = result.failures
        assert failure["op"] == "insert_one"
        assert failure["collection"] == "users"
        assert failure["seq"] == 2  # create_index=0, insert a=1, dup=2
        assert "DuplicateKeyError" in failure["error"]
        # Replaying the same journal twice is deterministic: identical
        # taxonomy, identical state.
        recovered2, result2 = recover(medium)
        assert result2.failures == result.failures
        assert recovered2.snapshot() == recovered.snapshot()
