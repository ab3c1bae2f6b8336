"""Set-associative cache with LRU replacement, miss classification, and
constructive-sharing tracking.

The cache is a *behavioral* model: an access either hits or misses, and the
caller (the hierarchy) turns that into latency.  What the paper's analysis
needs from it -- and what this class provides -- is faithful replacement
behavior plus per-line ownership history:

* each resident line remembers who filled it and which threads have touched
  it since the fill, so a hit by a thread that never touched the line counts
  as a miss *avoided by interthread prefetching* (Table 8);
* each evicted line address remembers who evicted it, so a later re-miss can
  be classified as an intrathread / interthread / user-kernel conflict or an
  OS invalidation (Tables 3 and 7).
"""

from __future__ import annotations

from collections import defaultdict

from repro.memory.classify import MissCause, MissStats

#: Sentinel evictor thread id meaning "removed by an explicit OS flush".
_INVALIDATED = -2

#: Set-index scramble (Fibonacci hashing with a high-bit fold).  The
#: simulator feeds *virtual* addresses to the caches, and every address
#: space is laid out at a power-of-two-aligned base -- so with plain modular
#: indexing all processes would alias into the same sets, something physical
#: page allocation prevents on real machines.  The multiply-and-fold below
#: models pseudo-random physical placement; the fold is what makes the
#: *high* address bits (where address spaces differ) reach the set index.
_PLACEMENT_MULT = 0x9E3779B97F4A7C15


def placement_index(line: int) -> int:
    """Pseudo-random but deterministic line -> placement key."""
    x = line * _PLACEMENT_MULT
    return (x >> 32) ^ x


class _Line:
    """Resident cache line state."""

    __slots__ = ("filler_tid", "filler_kind", "touched")

    def __init__(self, filler_tid: int, filler_kind: int) -> None:
        self.filler_tid = filler_tid
        self.filler_kind = filler_kind
        # Bitmask of thread ids that referenced the line since the fill.
        self.touched = 1 << filler_tid


class Cache:
    """An LRU set-associative cache keyed by line address.

    Parameters
    ----------
    name:
        Diagnostic label ("L1I", "L1D", "L2").
    size:
        Capacity in bytes.
    assoc:
        Ways per set (use ``1`` for the paper's direct-mapped L2).
    line_size:
        Line size in bytes (the paper uses 64 everywhere).
    """

    def __init__(self, name: str, size: int, assoc: int, line_size: int = 64) -> None:
        if size % (assoc * line_size):
            raise ValueError(f"{name}: size must be a multiple of assoc*line_size")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.n_sets = size // (assoc * line_size)
        if self.n_sets & (self.n_sets - 1):
            raise ValueError(f"{name}: number of sets must be a power of two")
        self._set_mask = self.n_sets - 1
        self._line_shift = line_size.bit_length() - 1
        if (1 << self._line_shift) != line_size:
            raise ValueError(f"{name}: line size must be a power of two")
        # One insertion-ordered dict per set: line_addr -> _Line (LRU at
        # front), keyed by set index and created by the set's first fill:
        # a run touches a small share of a large L2's sets.  Lookups that
        # must not fill read it with ``.get``.
        self._sets: defaultdict[int, dict[int, _Line]] = defaultdict(dict)
        # Eviction history: line_addr -> (evictor_tid, evictor_kind).
        self._evicted: dict[int, tuple[int, int]] = {}
        # Every line address ever referenced (for compulsory classification).
        self._seen: set[int] = set()
        self.stats = MissStats()
        self.flushes = 0

    # -- core operation -----------------------------------------------------

    def access(self, addr: int, tid: int, kind: int, write: bool = False) -> bool:
        """Reference *addr*; fill on miss.  Returns True on hit.

        ``kind`` is a :class:`~repro.memory.classify.ModeKind` value (user /
        kernel).  ``write`` is accepted for interface symmetry; this model is
        write-allocate and does not distinguish dirtiness.
        """
        line = addr >> self._line_shift
        s = self._sets[placement_index(line) & self._set_mask]
        entry = s.get(line)
        stats = self.stats
        stats.accesses[kind] += 1
        if entry is not None:
            # LRU update: move to the back of the insertion order.
            del s[line]
            s[line] = entry
            bit = 1 << tid
            if not entry.touched & bit:
                # First touch by this thread since the fill: the fill by
                # another thread prefetched the line for us.
                stats.record_avoided(kind, entry.filler_kind)
                entry.touched |= bit
            return True
        # Miss: classify, then fill.
        self._classify_miss(line, tid, kind)
        if len(s) >= self.assoc:
            victim_line = next(iter(s))
            del s[victim_line]
            self._evicted[victim_line] = (tid, kind)
        s[line] = _Line(tid, kind)
        self._seen.add(line)
        return False

    def probe(self, addr: int) -> bool:
        """Non-destructive presence check (no stats, no LRU update)."""
        line = addr >> self._line_shift
        return line in self._sets.get(placement_index(line) & self._set_mask, ())

    def _classify_miss(self, line: int, tid: int, kind: int) -> None:
        stats = self.stats
        if line not in self._seen:
            stats.record_miss(kind, MissCause.COMPULSORY)
            return
        record = self._evicted.get(line)
        if record is None:
            # Referenced before but no eviction record (e.g. cleared by a
            # full flush that pre-dates history): treat as invalidation.
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

    def flush_all(self) -> int:
        """Explicit OS flush of the whole cache (Alpha IMB-style).

        Every resident line is discarded and will classify a later re-miss
        as :data:`MissCause.INVALIDATION`.  Returns the number of lines
        discarded.
        """
        dropped = 0
        for s in self._sets.values():
            for line in s:
                self._evicted[line] = (_INVALIDATED, 0)
                dropped += 1
            s.clear()
        self.flushes += 1
        return dropped

    def flush_address(self, addr: int) -> bool:
        """Invalidate the single line containing *addr* if present."""
        line = addr >> self._line_shift
        s = self._sets.get(placement_index(line) & self._set_mask, ())
        if line in s:
            del s[line]
            self._evicted[line] = (_INVALIDATED, 0)
            return True
        return False

    # -- observability -----------------------------------------------------

    def content_state(self) -> list:
        """Deterministic content summary for the state digests that
        ``tests/test_engine.py::test_fast_tier_state_is_pinned`` pins:
        per set, the resident lines in LRU order with their filler
        attribution and sharing mask, for all ``n_sets`` sets in index
        order, whether or not a set was ever filled."""
        sets = self._sets
        return [
            [[line, e.filler_tid, e.filler_kind, e.touched]
             for line, e in sets.get(index, {}).items()]
            for index in range(self.n_sets)
        ]

    def register_probes(self, registry, prefix: str) -> None:
        """Expose this cache's counters in a probe registry (derived
        probes only: the access hot path is untouched)."""
        from repro.obs.registry import register_miss_stats

        register_miss_stats(registry, prefix, self.stats)
        registry.derive(f"{prefix}.flushes", lambda: self.flushes)

    # -- introspection -----------------------------------------------------

    @property
    def resident_lines(self) -> int:
        """Number of lines currently resident."""
        return sum(map(len, self._sets.values()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Cache {self.name} {self.size // 1024}KB {self.assoc}-way "
            f"{self.n_sets} sets, miss rate {self.stats.miss_rate():.3%}>"
        )
