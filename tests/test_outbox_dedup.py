"""Tests for the store-and-forward outbox, the server's dedup window,
and the record-id/ack loop that makes ingest exactly-once."""

import pytest

from repro.core.common import Granularity, ModalityType
from repro.core.common.batch import envelope
from repro.core.mobile.outbox import Outbox
from repro.core.server.dedup import RecordDeduper
from repro.scenarios.testbed import SenSocialTestbed


class TestOutbox:
    def test_put_and_ack(self):
        outbox = Outbox()
        outbox.put("r1", {"v": 1}, 100, now=0.0)
        assert len(outbox) == 1
        assert outbox.ack("r1")
        assert len(outbox) == 0
        assert outbox.acked == 1

    def test_ack_is_idempotent(self):
        outbox = Outbox()
        outbox.put("r1", {}, 10, now=0.0)
        assert outbox.ack("r1")
        assert not outbox.ack("r1")
        assert not outbox.ack("never-seen")
        assert outbox.acked == 1

    def test_full_outbox_evicts_oldest_and_counts(self):
        outbox = Outbox(capacity=3)
        for index in range(5):
            outbox.put(f"r{index}", {}, 10, now=float(index))
        assert len(outbox) == 3
        assert outbox.pending_ids() == ["r2", "r3", "r4"]
        assert outbox.dropped_oldest == 2
        assert outbox.enqueued == 5

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            Outbox(capacity=0)

    def test_due_never_sent_and_stale(self):
        outbox = Outbox()
        outbox.put("fresh", {}, 10, now=0.0)
        outbox.put("stale", {}, 10, now=0.0)
        outbox.put("unsent", {}, 10, now=0.0)
        outbox.mark_sent("fresh", now=95.0)
        outbox.mark_sent("stale", now=10.0)
        due = {entry.record_id for entry in outbox.due(100.0, retry_after=20.0)}
        assert due == {"stale", "unsent"}
        everything = {entry.record_id
                      for entry in outbox.due(100.0, 20.0, force=True)}
        assert everything == {"fresh", "stale", "unsent"}

    def test_retransmissions_counted(self):
        outbox = Outbox()
        outbox.put("r1", {}, 10, now=0.0)
        outbox.mark_sent("r1", now=1.0)
        outbox.mark_sent("r1", now=30.0)
        outbox.mark_sent("r1", now=60.0)
        assert outbox.retransmissions == 2
        assert outbox.stats()["retransmissions"] == 2


class TestRecordDeduper:
    def test_first_sighting_is_fresh(self):
        dedup = RecordDeduper()
        assert not dedup.seen("a")
        assert dedup.seen("a")
        assert dedup.duplicates == 1

    def test_window_bounds_memory(self):
        dedup = RecordDeduper(window=3)
        for record_id in "abcd":
            dedup.seen(record_id)
        assert len(dedup) == 3
        assert "a" not in dedup
        # Beyond the window, an old id reads as fresh again — the
        # documented (and harmless, at window=4096) failure mode.
        assert not dedup.seen("a")

    def test_duplicate_refreshes_recency(self):
        dedup = RecordDeduper(window=2)
        dedup.seen("a")
        dedup.seen("b")
        dedup.seen("a")  # duplicate: 'a' becomes most recent
        dedup.seen("c")  # evicts 'b', not 'a'
        assert "a" in dedup
        assert "b" not in dedup

    def test_window_validated(self):
        with pytest.raises(ValueError):
            RecordDeduper(window=0)


class TestIdempotentIngest:
    def test_records_carry_ids_and_get_acked(self):
        testbed = SenSocialTestbed(seed=11)
        node = testbed.add_user("alice", "Paris")
        node.manager.create_stream(ModalityType.ACCELEROMETER,
                                   Granularity.CLASSIFIED,
                                   send_to_server=True)
        testbed.run(300.0)
        health = node.manager.health()
        assert health["enqueued"] > 0
        assert health["queued"] == 0  # every record acked and forgotten
        assert health["acked"] == health["enqueued"]
        assert testbed.server.records_received == health["enqueued"]
        assert testbed.server.acks_sent >= health["acked"]

    def test_replayed_record_ingested_once(self):
        testbed = SenSocialTestbed(seed=11)
        node = testbed.add_user("alice", "Paris")
        node.manager.create_stream(ModalityType.ACCELEROMETER,
                                   Granularity.CLASSIFIED,
                                   send_to_server=True)
        testbed.run(120.0)
        received = testbed.server.records_received
        assert received > 0
        # Simulate a lost ack: the device re-sends a record the server
        # has already ingested.
        payload = dict(testbed.server.database.records_of("alice")[0])
        payload["record_id"] = "alice-device-r1"
        testbed.server.dedup.seen("alice-device-r1")
        before = testbed.server.records_received
        node.phone.send(testbed.server.address, "stream-batch",
                        envelope(node.phone.device_id, [payload]))
        testbed.run(5.0)
        assert testbed.server.records_received == before
        assert testbed.server.records_duplicate >= 1

    def test_outbox_absorbs_partition_and_flushes(self):
        testbed = SenSocialTestbed(seed=13)
        node = testbed.add_user("alice", "Paris")
        node.manager.create_stream(ModalityType.ACCELEROMETER,
                                   Granularity.CLASSIFIED,
                                   send_to_server=True)
        testbed.run(120.0)
        testbed.network.set_down(node.phone.address)
        testbed.network.set_down(node.manager.mqtt.client.address)
        testbed.run(180.0)
        assert node.manager.health()["queued"] > 0  # storing, not losing
        testbed.network.set_down(node.phone.address, False)
        testbed.network.set_down(node.manager.mqtt.client.address, False)
        testbed.run(180.0)
        health = node.manager.health()
        assert health["queued"] == 0
        assert health["acked"] == health["enqueued"]
        # At-least-once underneath, exactly-once on top.
        assert testbed.server.records_received == health["enqueued"]
