"""Corruption-tolerant recovery tests: scan classification (torn tail,
mid-log bit rot, snapshot rot), full-history fallback, the replay
divergence oracle, bounded backfill, and the chaos plans that inject
each damage class end to end."""

import types

import pytest

from repro.core.common import Granularity, ModalityType
from repro.durability import (
    JournalEntry,
    StorageMedium,
    fingerprint_store,
    run_recovery_scan,
)
from repro.durability.recovery import BackfillCheckpoint, JournalBackfill
from repro.faults import ChaosController, FaultPlan
from repro.faults.plans import bitrot_plan, torn_tail_plan
from repro.scenarios.testbed import SenSocialTestbed

from tests.test_durability_journal import make_store, recover


def seed_entries(medium, count, *, start=0, collection="records"):
    for index in range(start, start + count):
        medium.append(JournalEntry(
            seq=index, op="ingest_batch", collection=collection,
            payload={"records": [{"user_id": f"u{index % 3}", "n": index,
                                  "record_id": f"r{index}"}]}))


class TestScanClassification:
    def test_clean_log_scans_clean(self):
        medium = StorageMedium()
        seed_entries(medium, 5)
        scan = run_recovery_scan(medium)
        assert scan.clean
        assert scan.scanned_frames == 5
        assert len(scan.entries) == 5
        assert (scan.torn_frames, scan.quarantined_frames) == (0, 0)

    def test_torn_tail_truncated_and_accounted(self):
        medium = StorageMedium()
        seed_entries(medium, 4)
        before = medium.log_bytes
        lost = medium.simulate_torn_append()
        scan = run_recovery_scan(medium, repair=True)
        # The torn frame was never acked: clean, but fully accounted.
        assert scan.clean
        assert scan.torn_frames == 1
        assert scan.truncated_bytes == lost
        assert len(scan.entries) == 4
        # Repair put the log back on a frame boundary.
        assert medium.log_bytes == before
        seed_entries(medium, 1, start=4)
        assert [entry.seq for entry in medium.entries] == [0, 1, 2, 3, 4]

    def test_verify_path_leaves_torn_tail_in_place(self):
        medium = StorageMedium()
        seed_entries(medium, 2)
        medium.simulate_torn_append()
        torn_size = medium.log_bytes
        scan = run_recovery_scan(medium, repair=False)
        assert scan.torn_frames == 1
        assert medium.log_bytes == torn_size  # untouched

    def test_midlog_corruption_quarantines_and_keeps_prefix(self):
        medium = StorageMedium()
        seed_entries(medium, 7)
        assert medium.corrupt_frame()
        scan = run_recovery_scan(medium)
        assert not scan.clean
        assert scan.quarantined_frames == 1
        # Longest valid prefix only; intact frames beyond the damage
        # are discarded (their effects may depend on the lost one).
        assert scan.discarded_frames >= 1
        assert (len(scan.entries) + scan.quarantined_frames
                + scan.discarded_frames == 7)
        seqs = [entry.seq for entry in scan.entries]
        assert seqs == list(range(len(seqs)))
        kinds = {issue.kind for issue in scan.issues}
        assert "crc_mismatch" in kinds

    def test_snapshot_rot_with_full_history_replays_from_genesis(self):
        medium, journal, store = make_store()
        store["users"].insert_one({"user_id": "a"})
        journal.checkpoint()
        store["users"].insert_one({"user_id": "b"})
        medium.corrupt_snapshot()
        scan = run_recovery_scan(medium)
        assert scan.clean
        assert scan.used_full_history
        assert scan.snapshot is None
        # Both inserts are still there: checkpoints retain history.
        assert [entry.op for entry in scan.entries] == ["insert_one"] * 2

    def test_snapshot_rot_without_history_is_unrecoverable(self):
        medium, journal, store = make_store()
        store["users"].insert_one({"user_id": "a"})
        medium.mark_history_incomplete()
        journal.checkpoint()
        store["users"].insert_one({"user_id": "b"})
        medium.corrupt_snapshot()
        scan = run_recovery_scan(medium)
        assert not scan.clean
        assert scan.snapshot_unrecoverable
        # Best-effort: the tail after the checkpoint still replays.
        assert len(scan.entries) == 1


class TestBackfill:
    def make_medium(self):
        medium = StorageMedium()
        seed_entries(medium, 6)
        medium.append(JournalEntry(seq=6, op="create_index",
                                   collection="records",
                                   payload={"key": "n"}))
        seed_entries(medium, 3, start=7, collection="events")
        return medium

    def test_window_filters_op_and_collection(self):
        medium = self.make_medium()
        backfill = JournalBackfill(medium, ops=("ingest_batch",),
                                   collection="records")
        assert [e.seq for e in backfill.window()] == [0, 1, 2, 3, 4, 5]
        assert [e.seq for e in backfill.window(2, 5)] == [2, 3, 4]

    def test_checkpoints_hide_nothing(self):
        medium, journal, store = make_store()
        store["records"].insert_one({"n": 1})
        journal.checkpoint()
        store["records"].insert_one({"n": 2})
        backfill = JournalBackfill(medium, ops=("insert_one",))
        assert len(backfill.window()) == 2  # full retained history

    def test_bounded_batches_resume_without_duplicates(self):
        medium = self.make_medium()
        backfill = JournalBackfill(medium, ops=("ingest_batch",),
                                   collection="records")
        published = []
        checkpoint = None
        rounds = 0
        while checkpoint is None or not checkpoint.exhausted:
            checkpoint = backfill.run(published.append, limit=2,
                                      checkpoint=checkpoint)
            rounds += 1
            assert rounds < 10
        assert [e.seq for e in published] == [0, 1, 2, 3, 4, 5]
        assert checkpoint.published == 6
        assert checkpoint.skipped == 4  # index + 3 foreign-collection
        # Idempotent: re-running an exhausted checkpoint publishes none.
        again = backfill.run(published.append, checkpoint=checkpoint)
        assert again.published == 6 and len(published) == 6

    def test_checkpoint_round_trips_as_dict(self):
        checkpoint = BackfillCheckpoint(next_seq=4, published=3, skipped=1)
        assert (BackfillCheckpoint.from_dict(checkpoint.to_dict())
                == checkpoint)

    def test_negative_limit_rejected(self):
        backfill = JournalBackfill(StorageMedium())
        with pytest.raises(ValueError):
            backfill.run(lambda entry: None, limit=-1)


HORIZON_S = 1200.0
DRAIN_S = 180.0


def run_durable_scenario(plan, *, seed=11, shards=None):
    testbed = SenSocialTestbed(seed=seed, durability=True, shards=shards)
    for user_id in ("alice", "bob"):
        node = testbed.add_user(user_id, "Paris")
        node.manager.create_stream(ModalityType.ACCELEROMETER,
                                   Granularity.CLASSIFIED,
                                   send_to_server=True)
    controller = ChaosController(testbed)
    if plan is not None:
        controller.apply(plan)
    testbed.run(HORIZON_S)
    testbed.run(DRAIN_S)
    return testbed, controller


class TestChaosPlans:
    def test_torn_tail_zero_acked_loss(self):
        plan = torn_tail_plan(HORIZON_S)
        testbed, controller = run_durable_scenario(plan)
        report = controller.report()
        assert report.records_lost == 0
        counters = testbed.durability.health()["counters"]
        for name, want in plan.expected_recovery().items():
            assert counters[name] == want, name
        assert counters["journal_frames_torn"] == 1
        assert counters["journal_bytes_truncated"] > 0
        # Torn tails are clean damage: health recovers fully.
        assert not testbed.durability.corruption_detected
        # The recovered store still replays bit-identically.
        assert testbed.durability.verify_replay()["match"]

    def test_torn_tail_recovery_matches_clean_run(self):
        clean, _ = run_durable_scenario(None)
        torn, _ = run_durable_scenario(torn_tail_plan(HORIZON_S))
        assert (fingerprint_store(torn.durability.store)
                == fingerprint_store(clean.durability.store))

    def test_bitrot_accounted_and_loudly_degraded(self):
        plan = bitrot_plan(HORIZON_S)
        testbed, controller = run_durable_scenario(plan)
        report = controller.report()
        assert report.records_lost == 0
        counters = testbed.durability.health()["counters"]
        for name, want in plan.expected_recovery().items():
            assert counters[name] == want, name
        assert counters["journal_snapshot_fallbacks"] == 1
        assert counters["journal_frames_quarantined"] == 1
        # Acked data may be gone: sticky degraded health.
        health = testbed.durability.health()
        assert health["status"] == "degraded"
        assert health["counters"]["corruption_detected"] is True

    def test_undeclared_corruption_fails_accounting(self):
        from repro.cli import _check_recovery_expectations

        plan = torn_tail_plan(HORIZON_S)
        testbed, controller = run_durable_scenario(plan)
        report = controller.report()
        assert _check_recovery_expectations(plan, report) is False
        # The same damage against a plan that never declared it: the
        # all-zero derived expectations catch the stray torn frame.
        innocent = FaultPlan("innocent")
        assert _check_recovery_expectations(innocent, report) is True

    def test_accounting_ignores_non_durable_reports(self):
        from repro.cli import _check_recovery_expectations

        report = types.SimpleNamespace(server={})
        assert _check_recovery_expectations(FaultPlan(), report) is False


class TestReplayOracle:
    def test_clean_run_matches(self):
        testbed, _ = run_durable_scenario(None)
        verdict = testbed.durability.verify_replay()
        assert verdict["match"]
        assert verdict["live_fingerprint"] == verdict["replayed_fingerprint"]
        assert verdict["lost_appends"] == 0
        assert verdict["scan"]["clean"]

    def test_dirty_write_diverges(self):
        testbed, _ = run_durable_scenario(None)
        durability = testbed.durability
        # A mutation the journal never saw: the canonical failure the
        # oracle exists to catch.
        with durability.journal.suspended():
            durability.store["records"].insert_one({"smuggled": True})
        verdict = durability.verify_replay()
        assert not verdict["match"]

    def test_cluster_verifies_per_shard(self):
        testbed, _ = run_durable_scenario(None, shards=3)
        verdict = testbed.server.verify_replay()
        assert verdict["match"]
        assert verdict["shards_verified"] == 3
        assert all(doc["match"] for doc in verdict["shards"].values())

    def test_unit_replay_matches_journal_recover(self):
        medium, journal, store = make_store()
        store["users"].insert_one({"user_id": "a"})
        journal.checkpoint()
        store["users"].insert_one({"user_id": "b"})
        recovered, _ = recover(medium)
        scan = run_recovery_scan(medium, repair=False)
        assert scan.snapshot is not None
        assert recovered.snapshot() != {}  # sanity: state exists
