"""Durable wire-format tests: canonical value round-trips, frame
classification, and fingerprint behaviour."""

import zlib

import pytest

from repro.core.common.batch import envelope, members
from repro.durability import codec
from repro.durability.errors import CodecError
from repro.durability.journal import JournalEntry


ROUND_TRIP_VALUES = [
    None,
    True,
    False,
    0,
    1,
    -1,
    127,
    128,
    -128,
    -129,
    2 ** 80,            # arbitrary precision survives
    -(2 ** 80),
    0.0,
    -0.0,
    3.141592653589793,
    float("inf"),
    float("-inf"),
    "",
    "hello",
    "naïve café ☕",
    b"",
    b"\x00\xff\xd7j",
    [],
    [1, "two", None],
    (),
    (1, 2.5),
    {},
    {"a": 1, "b": [True, {"nested": (1, 2)}]},
]


class TestValueCodec:
    @pytest.mark.parametrize("value", ROUND_TRIP_VALUES,
                             ids=[repr(v)[:40] for v in ROUND_TRIP_VALUES])
    def test_round_trip_exact(self, value):
        decoded = codec.loads(codec.dumps(value))
        assert decoded == value
        assert type(decoded) is type(value)

    def test_tuples_stay_tuples_inside_containers(self):
        value = {"point": (48.85, 2.35), "path": [(0, 0), (1, 1)]}
        decoded = codec.loads(codec.dumps(value))
        assert decoded["point"] == (48.85, 2.35)
        assert all(type(p) is tuple for p in decoded["path"])

    def test_dict_insertion_order_preserved(self):
        value = {"z": 1, "a": 2, "m": 3}
        assert list(codec.loads(codec.dumps(value))) == ["z", "a", "m"]

    def test_bools_do_not_collapse_to_ints(self):
        decoded = codec.loads(codec.dumps([True, 1, False, 0]))
        assert [type(v) for v in decoded] == [bool, int, bool, int]

    def test_negative_zero_float_preserved(self):
        import math
        assert math.copysign(1.0, codec.loads(codec.dumps(-0.0))) == -1.0

    def test_unsupported_type_raises(self):
        with pytest.raises(CodecError, match="object"):
            codec.dumps({"bad": object()})

    def test_trailing_garbage_rejected(self):
        with pytest.raises(CodecError, match="trailing"):
            codec.loads(codec.dumps(1) + b"x")

    def test_truncated_encoding_rejected(self):
        data = codec.dumps("hello world")
        with pytest.raises(CodecError):
            codec.loads(data[:-3])

    def test_canonical_same_value_same_bytes(self):
        value = {"user": "a", "v": [1, 2.5, ("x", None)]}
        assert codec.dumps(value) == codec.dumps(dict(value))


class TestFraming:
    def test_frame_round_trip(self):
        body = codec.dumps({"n": 42})
        status, out, end = codec.read_frame(codec.frame(body), 0)
        assert status == codec.FRAME_OK
        assert out == body
        assert end == codec.FRAME_HEADER.size + len(body)

    def test_torn_frame_classified(self):
        data = codec.frame(codec.dumps({"n": 42}))
        for cut in (1, codec.FRAME_HEADER.size + 1, len(data) - 1):
            status, _, end = codec.read_frame(data[:cut], 0)
            assert status == codec.FRAME_TORN
            assert end == cut

    def test_flipped_bit_classified_corrupt(self):
        data = bytearray(codec.frame(codec.dumps({"n": 42})))
        data[codec.FRAME_HEADER.size + 2] ^= 0xFF
        status, _, end = codec.read_frame(data, 0)
        assert status == codec.FRAME_CORRUPT
        assert end == len(data)  # frame boundary still known: resyncable

    def test_bad_magic_classified_corrupt(self):
        data = bytearray(codec.frame(b"body"))
        data[0] ^= 0xFF
        status, _, _ = codec.read_frame(data, 0)
        assert status == codec.FRAME_CORRUPT

    def test_crc_actually_covers_body(self):
        body = codec.dumps({"n": 42})
        framed = codec.frame(body)
        _, _, crc = codec.FRAME_HEADER.unpack_from(framed, 0)
        assert crc == zlib.crc32(body)

    def test_consecutive_frames_scan(self):
        log = b"".join(codec.frame(codec.dumps(i)) for i in range(5))
        offset, seen = 0, []
        while offset < len(log):
            status, body, offset = codec.read_frame(log, offset)
            assert status == codec.FRAME_OK
            seen.append(codec.loads(body))
        assert seen == [0, 1, 2, 3, 4]


class TestEntryCodec:
    def test_entry_round_trip(self):
        entry = JournalEntry(seq=7, op="ingest_batch", collection="records",
                             payload={"records": [{"v": (1, 2),
                                                   "record_id": "r1"}]})
        decoded = codec.decode_entry(
            codec.read_frame(codec.encode_entry(entry), 0)[1])
        assert decoded == entry

    def test_from_dict_pairs_to_dict(self):
        entry = JournalEntry(seq=1, op="drop", collection="x")
        assert JournalEntry.from_dict(entry.to_dict()) == entry


def _sample_batch(n: int, offset: int = 0) -> dict:
    """A record envelope of ``n`` wire documents."""
    return envelope("d1", [
        {"stream_id": "s1", "user_id": "u1", "device_id": "d1",
         "modality": "accelerometer", "granularity": "classified",
         "timestamp": float(offset + i), "value": {"x": offset + i},
         "details": {}, "osn_action": None,
         "record_id": f"r{offset + i}"}
        for i in range(n)])


class TestBatchFrames:
    """The ``ingest_batch`` journal frame: one record envelope's
    members, whose replay yields each stored document and dedup id."""

    def test_batch_envelope_round_trips_canonically(self):
        batch = _sample_batch(5)
        decoded = codec.loads(codec.dumps(batch))
        assert decoded == batch
        assert members(decoded) == members(batch)
        # Canonical: same envelope, same bytes (usable as a fingerprint).
        assert codec.dumps(_sample_batch(5)) == codec.dumps(batch)

    def test_ingest_batch_entry_round_trip(self):
        batch = _sample_batch(3)
        entry = JournalEntry(seq=9, op="ingest_batch",
                             collection="records",
                             payload={"records": members(batch)})
        decoded = codec.decode_entry(
            codec.read_frame(codec.encode_entry(entry), 0)[1])
        assert decoded == entry
        replayed = decoded.payload["records"]
        assert replayed == members(batch)
        assert ([member["record_id"] for member in replayed]
                == ["r0", "r1", "r2"])

    def test_torn_tail_truncates_on_batch_boundary(self):
        """A crash mid-append tears the *last* frame only: the scan
        keeps every whole batch before it and classifies the partial
        one torn — a batch is atomic on the medium, never half-kept."""
        entries = [
            JournalEntry(seq=seq, op="ingest_batch", collection="records",
                         payload={"records": members(
                             _sample_batch(4, offset=4 * seq))})
            for seq in range(3)
        ]
        frames = [codec.encode_entry(entry) for entry in entries]
        log = b"".join(frames)
        for cut in (len(log) - 1,                       # tail ragged
                    len(frames[0]) + len(frames[1]) + 5):  # mid-header
            data, offset, recovered = log[:cut], 0, []
            statuses = []
            while offset < len(data):
                status, body, offset = codec.read_frame(data, offset)
                statuses.append(status)
                if status == codec.FRAME_OK:
                    recovered.append(codec.decode_entry(body))
            # Every complete frame survives; the torn one vanishes
            # whole — recovery resumes exactly at a batch boundary.
            assert statuses[:-1] == [codec.FRAME_OK] * (len(statuses) - 1)
            assert statuses[-1] == codec.FRAME_TORN
            assert recovered == entries[:len(recovered)]
            assert all(len(entry.payload["records"]) == 4
                       for entry in recovered)


class TestFingerprint:
    def test_equal_values_equal_fingerprints(self):
        a = {"users": [{"_id": 1, "name": "a"}]}
        assert codec.fingerprint(a) == codec.fingerprint(dict(a))

    def test_any_difference_changes_fingerprint(self):
        base = {"users": [{"_id": 1, "n": 1}]}
        for other in ({"users": [{"_id": 1, "n": 2}]},
                      {"users": [{"_id": 2, "n": 1}]},
                      {"users": [{"_id": 1, "n": 1.0}]},  # type change
                      {"users": [{"n": 1, "_id": 1}]}):   # key order
            assert codec.fingerprint(base) != codec.fingerprint(other)

    def test_store_fingerprint_tracks_state(self):
        from repro.docstore import DocumentStore
        store, twin = DocumentStore(), DocumentStore()
        for target in (store, twin):
            target["users"].insert_one({"user_id": "a"})
        assert (codec.fingerprint_store(store)
                == codec.fingerprint_store(twin))
        store["users"].insert_one({"user_id": "b"})
        assert (codec.fingerprint_store(store)
                != codec.fingerprint_store(twin))