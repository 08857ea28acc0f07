"""Durable wire format: canonical value encoding, CRC frames,
fingerprints.

The journal's :class:`~repro.durability.journal.StorageMedium` stores
*bytes*, not Python objects, so a journal entry survives exactly what a
real fsync'd log file would survive — and is damaged by exactly what
damages one (torn tails, flipped bits).  This module owns the format:

- **Canonical value encoding** (``encode_value``/``decode_value``): a
  tagged, length-prefixed binary encoding of the JSON-ish values the
  docstore holds, plus tuples and bytes.  It is *canonical*: the same
  value always encodes to the same bytes (dicts keep insertion order,
  ints are minimal big-endian, floats are raw IEEE-754), so a byte
  digest of an encoding is a usable state fingerprint.  It is *exact*:
  decode(encode(v)) reproduces types and order bit-for-bit — tuples
  stay tuples, which JSON would silently listify and thereby change
  replayed state.
- **Framing** (``frame``/``read_frame``): ``MAGIC | length | crc32 |
  body``.  ``read_frame`` never raises on bad bytes — it classifies
  them (:data:`FRAME_OK`, :data:`FRAME_TORN`, :data:`FRAME_CORRUPT`)
  so the recovery scan in :mod:`repro.durability.recovery` can decide
  policy per damage class.
- **Fingerprints** (``fingerprint``): blake2b over the canonical
  encoding — the divergence oracle ``repro replay --verify`` compares
  between a live store and an offline re-derivation.
"""

from __future__ import annotations

import struct
import zlib
from hashlib import blake2b
from typing import Any

from repro.durability.errors import CodecError

#: Frame marker: lets the scanner resync after damaged length fields.
MAGIC = b"\xd7j"
#: ``MAGIC | body length (u32 BE) | crc32(body) (u32 BE)``.
FRAME_HEADER = struct.Struct(">2sII")
_F64 = struct.Struct(">d")
_U32 = struct.Struct(">I")

#: ``read_frame`` statuses.
FRAME_OK = "ok"
#: The buffer ends before the frame does (a crash mid-append).
FRAME_TORN = "torn"
#: Complete frame whose body fails its CRC, or a broken header.
FRAME_CORRUPT = "corrupt"


# -- canonical value encoding -----------------------------------------

#: Encodings of dict keys seen so far.  Journal frames repeat the same
#: few document field names once per record; looking their bytes up
#: saves re-encoding each.  The cache holds pure results, so it cannot
#: change any output, and it stops growing at ``_ENCODED_KEYS_MAX``.
_ENCODED_KEYS: dict[str, bytes] = {}
_ENCODED_KEYS_MAX = 4096


def encode_value(value: Any, out: bytearray) -> None:
    """Append the canonical encoding of ``value`` to ``out``."""
    if value is None:
        out += b"N"
    elif value is True:
        out += b"T"
    elif value is False:
        out += b"F"
    elif type(value) is int:
        body = value.to_bytes((value.bit_length() + 8) // 8 or 1,
                              "big", signed=True)
        out += b"I"
        out += _U32.pack(len(body))
        out += body
    elif type(value) is float:
        out += b"f"
        out += _F64.pack(value)
    elif type(value) is str:
        body = value.encode("utf-8")
        out += b"s"
        out += _U32.pack(len(body))
        out += body
    elif type(value) is bytes:
        out += b"b"
        out += _U32.pack(len(value))
        out += value
    elif type(value) is list:
        out += b"l"
        out += _U32.pack(len(value))
        # Inlined str case: container elements are overwhelmingly
        # strings (journal batch columns, document keys), and the
        # recursive call per element dominates their encode cost.
        for item in value:
            if type(item) is str:
                body = item.encode("utf-8")
                out += b"s"
                out += _U32.pack(len(body))
                out += body
            else:
                encode_value(item, out)
    elif type(value) is tuple:
        out += b"t"
        out += _U32.pack(len(value))
        for item in value:
            if type(item) is str:
                body = item.encode("utf-8")
                out += b"s"
                out += _U32.pack(len(body))
                out += body
            else:
                encode_value(item, out)
    elif type(value) is dict:
        out += b"d"
        out += _U32.pack(len(value))
        for key, item in value.items():
            if type(key) is str:
                encoded = _ENCODED_KEYS.get(key)
                if encoded is None:
                    body = key.encode("utf-8")
                    encoded = b"s" + _U32.pack(len(body)) + body
                    if len(_ENCODED_KEYS) < _ENCODED_KEYS_MAX:
                        _ENCODED_KEYS[key] = encoded
                out += encoded
            else:
                encode_value(key, out)
            # Inlined str/float/None cases: the bulk of a record
            # document's values (ids, enum values, timestamps).
            kind = type(item)
            if kind is str:
                body = item.encode("utf-8")
                out += b"s"
                out += _U32.pack(len(body))
                out += body
            elif kind is float:
                out += b"f"
                out += _F64.pack(item)
            elif item is None:
                out += b"N"
            else:
                encode_value(item, out)
    else:
        raise CodecError(
            f"cannot durably encode {type(value).__name__}: {value!r}")


def dumps(value: Any) -> bytes:
    """Canonical encoding of ``value`` as bytes."""
    out = bytearray()
    encode_value(value, out)
    return bytes(out)


def decode_value(data: bytes, offset: int) -> tuple[Any, int]:
    """Decode one value at ``offset``; return ``(value, next_offset)``."""
    try:
        tag = data[offset:offset + 1]
        offset += 1
        if tag == b"N":
            return None, offset
        if tag == b"T":
            return True, offset
        if tag == b"F":
            return False, offset
        if tag == b"I":
            (length,) = _U32.unpack_from(data, offset)
            offset += 4
            body = data[offset:offset + length]
            if len(body) != length:
                raise CodecError("truncated int")
            return int.from_bytes(body, "big", signed=True), offset + length
        if tag == b"f":
            (value,) = _F64.unpack_from(data, offset)
            return value, offset + 8
        if tag == b"s":
            (length,) = _U32.unpack_from(data, offset)
            offset += 4
            body = data[offset:offset + length]
            if len(body) != length:
                raise CodecError("truncated str")
            return body.decode("utf-8"), offset + length
        if tag == b"b":
            (length,) = _U32.unpack_from(data, offset)
            offset += 4
            body = data[offset:offset + length]
            if len(body) != length:
                raise CodecError("truncated bytes")
            return bytes(body), offset + length
        if tag in (b"l", b"t"):
            (count,) = _U32.unpack_from(data, offset)
            offset += 4
            items = []
            for _ in range(count):
                item, offset = decode_value(data, offset)
                items.append(item)
            return (tuple(items) if tag == b"t" else items), offset
        if tag == b"d":
            (count,) = _U32.unpack_from(data, offset)
            offset += 4
            doc: dict[Any, Any] = {}
            for _ in range(count):
                key, offset = decode_value(data, offset)
                item, offset = decode_value(data, offset)
                doc[key] = item
            return doc, offset
    except CodecError:
        raise
    except Exception as exc:
        raise CodecError(f"malformed encoding at offset {offset}: "
                         f"{exc}") from exc
    raise CodecError(f"unknown type tag {tag!r} at offset {offset - 1}")


def loads(data: bytes) -> Any:
    """Decode one canonical value; the bytes must contain exactly one."""
    value, end = decode_value(data, 0)
    if end != len(data):
        raise CodecError(
            f"{len(data) - end} trailing bytes after decoded value")
    return value


# -- framing ----------------------------------------------------------

def frame(body: bytes) -> bytes:
    """Wrap ``body`` as ``MAGIC | length | crc32 | body``."""
    return FRAME_HEADER.pack(MAGIC, len(body), zlib.crc32(body)) + body


def read_frame(data: bytes, offset: int) -> tuple[str, bytes, int]:
    """Classify and read the frame at ``offset``.

    Returns ``(status, body, next_offset)``.  ``FRAME_OK`` yields the
    verified body and the offset just past the frame.  ``FRAME_TORN``
    means the buffer ends mid-frame (body is the partial bytes;
    next_offset is the buffer end).  ``FRAME_CORRUPT`` means the frame
    is complete but fails its CRC or has a broken header; next_offset
    skips the frame when the header was parseable, else the buffer end.
    """
    remaining = len(data) - offset
    if remaining < FRAME_HEADER.size:
        return FRAME_TORN, bytes(data[offset:]), len(data)
    magic, length, crc = FRAME_HEADER.unpack_from(data, offset)
    body_start = offset + FRAME_HEADER.size
    if magic != MAGIC:
        return FRAME_CORRUPT, b"", len(data)
    if len(data) - body_start < length:
        return FRAME_TORN, bytes(data[body_start:]), len(data)
    body = bytes(data[body_start:body_start + length])
    if zlib.crc32(body) != crc:
        return FRAME_CORRUPT, body, body_start + length
    return FRAME_OK, body, body_start + length


# -- entries and snapshots --------------------------------------------

def encode_entry(entry) -> bytes:
    """One :class:`JournalEntry` as a durable frame."""
    return frame(dumps(entry.to_dict()))


def decode_entry(body: bytes):
    """Rebuild a :class:`JournalEntry` from a verified frame body."""
    from repro.durability.journal import JournalEntry
    return JournalEntry.from_dict(loads(body))


def encode_snapshot(state: dict[str, Any]) -> bytes:
    """One checkpoint state dict as a durable frame."""
    return frame(dumps(state))


def decode_snapshot(body: bytes) -> dict[str, Any]:
    return loads(body)


# -- fingerprints -----------------------------------------------------

def fingerprint(value: Any) -> str:
    """Canonical digest of ``value`` — equal iff the values are equal
    including types, dict insertion order and document order."""
    return blake2b(dumps(value), digest_size=16).hexdigest()


def fingerprint_store(store) -> str:
    """The divergence-oracle digest of a document store's full state,
    hashed straight from the store's snapshot view (no copy)."""
    return fingerprint(store.snapshot())
