"""The record envelope: the one wire form of sensed records.

Every server-bound record travels phone → server → journal inside an
envelope of one or more records.  A fresh record on a connected link
leaves as an envelope of one; backlog (reconnect flushes, retry
sweeps) leaves in envelopes of up to ``batch_max``.  Per-message costs
— transport, scheduling, journal frames, index passes, acks — amortize
across the members, while every per-record outcome stays the same.

The envelope is row-shaped::

    {"batch_wire": 2, "device_id": "<device>",
     "records": [<wire document>, ...]}

Each member is the wire document the mobile outbox already holds:
:meth:`StreamRecord.to_dict` plus a trailing ``record_id`` key (the
dedup/ack id; absent or ``None`` for id-less payloads, which are never
deduped or acked).  The server screens members one by one with
:meth:`StreamRecord.from_dict`, and the journal appends the admitted
members as one ``ingest_batch`` frame.

Wire payloads are plain dict/list/scalar trees, so they ride the
in-sim network by reference and the canonical codec
(:mod:`repro.durability.codec`) losslessly.  Receivers never mutate a
member: it is still the sender's outbox entry.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.common.records import StreamRecord
from repro.net.message import estimate_size

#: Version stamped into every envelope under :data:`BATCH_MARKER`.
#: Bump when the member layout changes; decoders reject versions they
#: do not speak instead of misreading them.
BATCH_WIRE_VERSION = 2

#: Payload key whose presence marks a dict as an envelope (value =
#: wire version).
BATCH_MARKER = "batch_wire"

#: What ``from_dict`` raises on a malformed document: a missing key, a
#: wrong container type or an unknown enum value.
_MALFORMED = (KeyError, TypeError, ValueError, AttributeError)


def envelope(device_id: str | None,
             documents: list[dict[str, Any]]) -> dict[str, Any]:
    """The versioned wire envelope carrying ``documents`` in order (the
    list itself, not a copy)."""
    return {BATCH_MARKER: BATCH_WIRE_VERSION, "device_id": device_id,
            "records": documents}


def members(payload: Any) -> list[dict[str, Any]]:
    """The member documents of an envelope.

    Raises ``ValueError`` for anything that is not an envelope this
    decoder speaks: a non-dict, a missing or unknown version, or a
    missing ``records`` list.  Members themselves are not checked here;
    the server screens each with :meth:`StreamRecord.from_dict`.
    """
    if not isinstance(payload, dict):
        raise ValueError("record envelope must be a dict")
    version = payload.get(BATCH_MARKER)
    if version != BATCH_WIRE_VERSION:
        raise ValueError(f"unsupported batch wire version {version!r} "
                         f"(decoder speaks {BATCH_WIRE_VERSION})")
    records = payload.get("records")
    if not isinstance(records, list):
        raise ValueError("record envelope has no 'records' list")
    return records


def member_id(member: Any) -> str | None:
    """A member's dedup/ack id (``None`` when it carries none)."""
    return member.get("record_id") if isinstance(member, dict) else None


def screen(member: Any) -> StreamRecord | None:
    """The member as a record, or ``None`` when it is poison — a
    non-dict, a missing field or an unknown enum value."""
    try:
        return StreamRecord.from_dict(member)
    except _MALFORMED:
        return None


def member_trace(member: Any):
    """The trace context a member carries, or ``None`` (untraced or
    unreadable — a poison member still needs its drop attributed)."""
    trace = member.get("trace") if isinstance(member, dict) else None
    if trace is None:
        return None
    from repro.obs.trace import TraceContext
    try:
        return TraceContext.from_dict(trace)
    except _MALFORMED:
        return None


# estimate_size({"record_id": x}) - estimate_size(x): the framing a
# one-id ack dict adds around its record id — dict wrapper, key and
# separator.  Computed once so ack accounting never walks N throwaway
# dicts.
_ACK_OVERHEAD = (estimate_size({"record_id": ""}) - estimate_size(""))


def ack_size(record_ids: Iterable[str]) -> int:
    """Wire bytes of an ack envelope: the sum of one
    ``{"record_id": id}`` estimate per acked id, so an envelope's ack
    costs the same bytes however its members were grouped."""
    return sum(_ACK_OVERHEAD + estimate_size(record_id)
               for record_id in record_ids)
