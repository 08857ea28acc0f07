"""Malformed record envelopes are quarantined, never fatal.

The ``stream-batch`` record envelope is the server's only record
intake, so its decode failures must be handled the way a poison record
is: an unreadable envelope (unknown wire version, no ``records`` list)
becomes one ``invalid`` dead letter, and a member that
``StreamRecord.from_dict`` rejects is quarantined as ``invalid``,
remembered in the dedup window and acked — while the good members of
the same envelope still ingest.  Every case runs on the durable and
the volatile server.
"""

from __future__ import annotations

import pytest

from repro.core.common.batch import envelope
from repro.core.server.manager import ServerSenSocialManager
from repro.durability import ServerDurability
from repro.net.network import Network
from repro.simkit.world import World

DEVICE = "intake-device"


class Rig:
    """A server plus a bare device endpoint that counts acked ids."""

    def __init__(self, durable: bool):
        self.world = World(seed=3)
        self.network = Network(self.world)
        self.durability = ServerDurability(self.world) if durable else None
        self.server = ServerSenSocialManager(self.world, self.network,
                                             durability=self.durability)
        self.acked: list[str] = []
        self.network.register(DEVICE, self._on_message)

    def _on_message(self, message) -> None:
        if message.headers.get("protocol") == "stream-batch-ack":
            self.acked.extend(message.payload["record_ids"])

    def send(self, payload) -> None:
        self.network.send(DEVICE, self.server.address, payload,
                          headers={"protocol": "stream-batch"})
        self.world.run_for(5.0)  # transport, intake drain, ack

    def stored_ids(self) -> list[str]:
        return [doc["details"]["id"]
                for doc in self.server.database.records.find()]


def member(record_id: str, *, modality: str = "accelerometer") -> dict:
    return {"stream_id": "s1", "user_id": "u1", "device_id": DEVICE,
            "modality": modality, "granularity": "classified",
            "timestamp": 1.0, "value": "walking",
            "details": {"id": record_id}, "osn_action": None,
            "record_id": record_id}


@pytest.fixture(params=["durable", "volatile"])
def rig(request):
    return Rig(durable=request.param == "durable")


class TestUnreadableEnvelope:
    @pytest.mark.parametrize("payload", [
        {"batch_wire": 1, "record_ids": ("r2",)},  # the old column form
        {"batch_wire": 3, "device_id": DEVICE, "records": []},
    ], ids=["v1", "v3"])
    def test_unknown_version_is_one_dead_letter(self, rig, payload):
        rig.send(payload)
        assert rig.server.quarantine.reasons() == {"invalid": 1}
        assert rig.server.quarantine.items()[0]["payload"] is payload
        assert rig.server.records_received == 0
        assert rig.acked == []  # no ids it could trust to ack
        # The server keeps serving: the next envelope ingests.
        rig.send(envelope(DEVICE, [member("r1")]))
        assert rig.stored_ids() == ["r1"]
        assert rig.acked == ["r1"]

    def test_missing_records_is_one_dead_letter(self, rig):
        rig.send({"batch_wire": 2, "device_id": DEVICE})
        assert rig.server.quarantine.reasons() == {"invalid": 1}
        assert rig.server.records_received == 0
        assert rig.acked == []
        rig.send(envelope(DEVICE, [member("r1")]))
        assert rig.stored_ids() == ["r1"]


class TestPoisonMember:
    def test_bad_member_quarantined_good_members_ingest(self, rig):
        rig.send(envelope(DEVICE, [
            member("r1"), member("r2", modality="antigravity"),
            member("r3")]))
        assert rig.stored_ids() == ["r1", "r3"]
        assert rig.server.records_received == 2
        items = rig.server.quarantine.items()
        assert [(item["record_id"], item["reason"]) for item in items] \
            == [("r2", "invalid")]
        assert sorted(rig.acked) == ["r1", "r2", "r3"]
        assert "r2" in rig.server.dedup
        if rig.durability is not None:
            assert rig.durability.records_quarantined == 1
            assert rig.durability.verify_replay()["match"]
        # A retransmission of the poison member dedups quietly.
        rig.send(envelope(DEVICE, [member("r2", modality="antigravity")]))
        assert len(rig.server.quarantine.items()) == 1
        assert rig.server.records_duplicate == 1
        assert rig.acked.count("r2") == 2

    def test_non_dict_member_quarantined(self, rig):
        rig.send(envelope(DEVICE, ["not-a-record", member("r1")]))
        assert rig.stored_ids() == ["r1"]
        assert rig.server.quarantine.reasons() == {"invalid": 1}
        assert rig.acked == ["r1"]
