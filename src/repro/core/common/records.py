"""Stream records: the data items delivered to listeners.

A record couples one sensing result (raw window or classified label)
with its provenance — and, for social-event-based streams, with the
OSN action that triggered it, which is the paper's headline feature.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.common.granularity import Granularity
from repro.core.common.modality import ModalityType

#: Wire value -> enum member.  ``from_dict`` screens every record the
#: server ingests, and a dict hit costs a tenth of an ``Enum`` call;
#: anything else falls through to the ``Enum`` call and its errors.
_MODALITY_OF = {modality.value: modality for modality in ModalityType}
_GRANULARITY_OF = {granularity.value: granularity
                   for granularity in Granularity}


@dataclass
class StreamRecord:
    """One delivered stream element."""

    stream_id: str
    user_id: str
    device_id: str
    modality: ModalityType
    granularity: Granularity
    timestamp: float
    value: Any
    details: dict[str, Any] = field(default_factory=dict)
    #: The OSN action coupled with this sample, when the stream is
    #: social-event-based (``None`` for plain continuous samples).
    osn_action: dict[str, Any] | None = None
    wire_bytes: int = 0
    #: Observability trace context (:class:`repro.obs.TraceContext`)
    #: riding the record phone→server; ``None`` when tracing is off,
    #: and then absent from the wire document too — untraced runs stay
    #: bit-identical.
    trace: Any = None

    def to_dict(self) -> dict[str, Any]:
        document = {
            "stream_id": self.stream_id,
            "user_id": self.user_id,
            "device_id": self.device_id,
            "modality": self.modality.value,
            "granularity": self.granularity.value,
            "timestamp": self.timestamp,
            "value": self.value,
            "details": dict(self.details),
            "osn_action": dict(self.osn_action) if self.osn_action else None,
        }
        if self.trace is not None:
            document["trace"] = self.trace.to_dict()
        return document

    @classmethod
    def from_dict(cls, document: dict[str, Any]) -> "StreamRecord":
        trace = document.get("trace")
        if trace is not None:
            from repro.obs.trace import TraceContext
            trace = TraceContext.from_dict(trace)
        modality = _MODALITY_OF.get(document["modality"])
        if modality is None:
            modality = ModalityType(document["modality"])
        granularity = _GRANULARITY_OF.get(document["granularity"])
        if granularity is None:
            granularity = Granularity(document["granularity"])
        return cls(
            stream_id=document["stream_id"],
            user_id=document["user_id"],
            device_id=document["device_id"],
            modality=modality,
            granularity=granularity,
            timestamp=document["timestamp"],
            value=document["value"],
            details=dict(document.get("details", {})),
            osn_action=document.get("osn_action"),
            trace=trace,
        )
