"""Translation lookaside buffers with address-space numbers (ASNs).

The Alpha tags TLB entries with an ASN so that multiple address spaces can
share the TLB without flushing on context switch.  On an SMT the TLB is
shared *simultaneously* by all hardware contexts -- the very property that
forced the paper's OS modifications -- so entries here are keyed by
``(asn, vpn)`` and carry the same ownership history as cache lines for miss
classification and constructive-sharing accounting.

Unlike the caches, a TLB miss is handled by *software* (PAL code): the probe
and the fill are therefore separate operations, with the kernel's refill
handler running in between.
"""

from __future__ import annotations

from repro.isa.data import PAGE_SHIFT
from repro.memory.classify import MissCause, MissStats

#: ASN used for kernel global mappings, shared by every thread.
KERNEL_ASN = 0

_INVALIDATED = -2


class _Entry:
    __slots__ = ("filler_tid", "filler_kind", "touched")

    def __init__(self, filler_tid: int, filler_kind: int) -> None:
        self.filler_tid = filler_tid
        self.filler_kind = filler_kind
        self.touched = 1 << filler_tid


class TLB:
    """Fully associative, LRU, ASN-tagged translation buffer."""

    def __init__(self, name: str, entries: int) -> None:
        if entries < 1:
            raise ValueError(f"{name}: need at least one entry")
        self.name = name
        self.capacity = entries
        # Insertion-ordered: LRU entry at the front.
        self._entries: dict[tuple[int, int], _Entry] = {}
        self._evicted: dict[tuple[int, int], tuple[int, int]] = {}
        self._seen: set[tuple[int, int]] = set()
        self.stats = MissStats()
        self.asn_flushes = 0

    def probe(self, vpn: int, asn: int, tid: int, kind: int) -> bool:
        """Look up a translation; record the access.  True on hit.

        A miss is classified immediately but **not** filled: on real
        hardware the PAL refill handler runs first, then installs the entry
        via :meth:`fill`.
        """
        key = (asn, vpn)
        entry = self._entries.get(key)
        stats = self.stats
        stats.accesses[kind] += 1
        if entry is not None:
            del self._entries[key]
            self._entries[key] = entry
            bit = 1 << tid
            if not entry.touched & bit:
                stats.record_avoided(kind, entry.filler_kind)
                entry.touched |= bit
            return True
        self._classify_miss(key, tid, kind)
        return False

    def lookup(self, vpn: int, asn: int) -> bool:
        """Presence check without stats or LRU effects."""
        return (asn, vpn) in self._entries

    def fill(self, vpn: int, asn: int, tid: int, kind: int) -> None:
        """Install a translation (the tail end of the miss handler)."""
        key = (asn, vpn)
        if key in self._entries:
            return
        if len(self._entries) >= self.capacity:
            victim_key = next(iter(self._entries))
            del self._entries[victim_key]
            self._evicted[victim_key] = (tid, kind)
        self._entries[key] = _Entry(tid, kind)
        self._seen.add(key)

    def _classify_miss(self, key: tuple[int, int], tid: int, kind: int) -> None:
        stats = self.stats
        if key not in self._seen:
            stats.record_miss(kind, MissCause.COMPULSORY)
            return
        record = self._evicted.get(key)
        if record is None:
            stats.record_miss(kind, MissCause.INVALIDATION)
            return
        evictor_tid, evictor_kind = record
        if evictor_tid == _INVALIDATED:
            stats.record_miss(kind, MissCause.INVALIDATION)
        elif kind != evictor_kind:
            stats.record_miss(kind, MissCause.USER_KERNEL)
        elif tid == evictor_tid:
            stats.record_miss(kind, MissCause.INTRATHREAD)
        else:
            stats.record_miss(kind, MissCause.INTERTHREAD)

    # -- OS-visible operations ------------------------------------------------

    def flush_asn(self, asn: int) -> int:
        """Invalidate every entry tagged with *asn* (ASN recycling).

        Returns the number of entries dropped; later re-misses classify as
        OS invalidations.
        """
        victims = [key for key in self._entries if key[0] == asn]
        for key in victims:
            del self._entries[key]
            self._evicted[key] = (_INVALIDATED, 0)
        if victims:
            self.asn_flushes += 1
        return len(victims)

    def flush_all(self) -> int:
        """Invalidate the entire TLB."""
        n = len(self._entries)
        for key in self._entries:
            self._evicted[key] = (_INVALIDATED, 0)
        self._entries.clear()
        if n:
            self.asn_flushes += 1
        return n

    def content_state(self) -> list:
        """Deterministic content summary for the state digests that
        ``tests/test_engine.py::test_fast_tier_state_is_pinned`` pins:
        the resident translations in LRU order."""
        return [
            [asn, vpn, e.filler_tid, e.filler_kind]
            for (asn, vpn), e in self._entries.items()
        ]

    # -- observability -----------------------------------------------------

    def register_probes(self, registry, prefix: str) -> None:
        """Expose this TLB's counters as derived registry probes."""
        from repro.obs.registry import register_miss_stats

        register_miss_stats(registry, prefix, self.stats)
        registry.derive(f"{prefix}.asn_flushes", lambda: self.asn_flushes)

    @property
    def occupancy(self) -> int:
        """Number of valid entries."""
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TLB {self.name} {self.occupancy}/{self.capacity} "
            f"miss rate {self.stats.miss_rate():.3%}>"
        )
