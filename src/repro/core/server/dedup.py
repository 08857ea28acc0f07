"""Idempotent-ingest support: a sliding dedup window of record ids.

QoS-1 transport and the mobile outbox both guarantee *at-least-once*
delivery; the server turns that into *exactly-once* ingest by
remembering the last N record ids and discarding re-appearances.  The
window is bounded (memory stays flat under heavy traffic) and N is
sized far above any plausible retransmission horizon: a replay only
slips through if more than ``window`` fresh records arrived in
between, by which point every QoS layer has long given up retrying.
"""

from __future__ import annotations

from collections import OrderedDict


class RecordDeduper:
    """Sliding-window set of recently seen record ids."""

    def __init__(self, window: int = 4096):
        if window <= 0:
            raise ValueError(f"dedup window must be > 0, got {window}")
        self.window = window
        self._seen: "OrderedDict[str, None]" = OrderedDict()
        self.duplicates = 0
        #: Ids folded in from other shards and retained by the bound.
        self.replicated = 0

    def seen(self, record_id: str) -> bool:
        """Record ``record_id``; True when it is a duplicate."""
        if record_id in self._seen:
            self._seen.move_to_end(record_id)
            self.duplicates += 1
            return True
        self._seen[record_id] = None
        self._evict_overflow(self._seen)
        return False

    def check_batch(self, record_ids) -> list[bool]:
        """Per-id duplicate flags: the window run over a whole batch."""
        # Semantically identical to calling ``seen`` per id in order
        # (same counters, same final window contents, same flags) —
        # the volatile envelope ingest uses it so one call replaces N,
        # with the dict lookups and the eviction bound hoisted out of
        # the hot loop.  ``None`` ids (id-less payloads) are never
        # deduped and flag fresh.
        window = self._seen
        flags = []
        for record_id in record_ids:
            duplicate = record_id is not None and record_id in window
            if duplicate:
                window.move_to_end(record_id)
                self.duplicates += 1
            elif record_id is not None:
                window[record_id] = None
                # Evict inline (not once at the end): a batch larger
                # than the window's free slack must age out ids *as it
                # inserts*, exactly as N sequential ``seen`` calls
                # would, so a late duplicate of an id the batch itself
                # evicted flags fresh.
                self._evict_overflow(window)
            flags.append(duplicate)
        return flags

    def remember(self, record_id: str) -> None:
        """Insert ``record_id`` without counting a duplicate.

        Used when restoring the window after a crash (journal replay)
        and when a record is terminally disposed without ingest (shed
        or quarantined) — a later retransmission must dedup, but the
        insertion itself is not a duplicate sighting.
        """
        if record_id in self._seen:
            self._seen.move_to_end(record_id)
            return
        self._seen[record_id] = None
        self._evict_overflow(self._seen)

    def merge_replicated(self, record_ids) -> int:
        """Fold another shard's window into this one, bounded.

        Cluster rebalances and drains replicate a departing shard's
        dedup ids onto the survivors so a retransmission of a record
        the departed shard acknowledged is absorbed, not re-ingested.
        Replicated ids enter as the *oldest* entries: they evict before
        this shard's own recent ids, and the merged window obeys the
        same size bound as local inserts — repeated rebalances can
        never grow a survivor's window past ``window``.

        Returns how many replicated ids the bounded window retained.
        """
        fresh = [record_id for record_id in record_ids
                 if record_id not in self._seen]
        if not fresh:
            return 0
        merged: "OrderedDict[str, None]" = OrderedDict()
        for record_id in fresh:
            merged[record_id] = None
        merged.update(self._seen)
        self._evict_overflow(merged)
        retained = sum(1 for record_id in fresh if record_id in merged)
        self._seen = merged
        self.replicated += retained
        return retained

    def _evict_overflow(self, window: "OrderedDict[str, None]") -> None:
        """The one bounded-eviction path: oldest-first to the bound."""
        # ``seen``/``remember``/``check_batch``/``merge_replicated``
        # all funnel through here so the bound can never drift between
        # the per-id, batch and replication paths.
        limit = self.window
        while len(window) > limit:
            window.popitem(last=False)

    def snapshot(self) -> list[str]:
        """Window contents oldest-first, for checkpoint persistence."""
        return list(self._seen)

    def __len__(self) -> int:
        return len(self._seen)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._seen


#: The batch-ingest spec names the window ``DedupWindow``; keep both
#: names pointing at the one implementation.
DedupWindow = RecordDeduper
