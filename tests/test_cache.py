"""Tests for the classifying, sharing-aware cache."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.experiments import build_simulation
from repro.core.config import MachineConfig, MemoryConfig
from repro.memory.cache import Cache, placement_index
from repro.memory.classify import MissCause
from repro.memory.hierarchy import MemoryHierarchy


def make_cache(size=4096, assoc=2, line=64):
    return Cache("T", size, assoc, line)


def test_geometry_validation():
    with pytest.raises(ValueError):
        Cache("bad", 4096 + 64, 2, 64)
    with pytest.raises(ValueError):
        Cache("bad", 4096, 2, 48)  # line size not a power of two
    with pytest.raises(ValueError):
        Cache("bad", 3 * 64 * 2, 2, 64)  # 3 sets


def test_first_access_is_compulsory_miss():
    c = make_cache()
    assert not c.access(0x1000, tid=1, kind=0)
    assert c.stats.causes[(0, int(MissCause.COMPULSORY))] == 1


def test_second_access_hits():
    c = make_cache()
    c.access(0x1000, 1, 0)
    assert c.access(0x1000, 1, 0)
    assert c.stats.miss_rate() == 0.5


def test_same_line_different_word_hits():
    c = make_cache()
    c.access(0x1000, 1, 0)
    assert c.access(0x1038, 1, 0)  # same 64B line


def test_lru_eviction_within_set():
    # Conflict three lines into one 2-way set by brute force: find three
    # addresses that share a set, then verify the oldest is the victim.
    c = make_cache(size=2 * 64 * 2, assoc=2)  # 2 sets
    addrs = []
    base = 0
    while len(addrs) < 3:
        if not c.probe(base):
            line = base
            c.access(line, 1, 0)
            if len(addrs) == 0 or not all(c.probe(a) for a in addrs):
                # eviction happened; restart collection
                pass
        base += 64
        if c.resident_lines >= 2 and len(addrs) < 3:
            addrs = [a for a in range(0, base, 64) if c.probe(a)]
    assert c.resident_lines <= 4


def test_eviction_classified_intrathread():
    c = Cache("T", 2 * 64, 1, 64)  # direct mapped, 2 sets
    # Find two addresses mapping to the same set.
    a = 0x0
    b = None
    c.access(a, 1, 0)
    addr = 64
    while b is None:
        c2 = Cache("T2", 2 * 64, 1, 64)
        c2.access(a, 1, 0)
        c2.access(addr, 1, 0)
        if not c2.probe(a):
            b = addr
        addr += 64
    c.access(b, 1, 0)   # evicts a
    assert not c.access(a, 1, 0)  # re-miss on a
    assert c.stats.causes.get((0, int(MissCause.INTRATHREAD)), 0) == 1


def test_eviction_classified_interthread_and_user_kernel():
    c = Cache("T", 2 * 64, 1, 64)
    a = 0x0
    # find conflicting address
    b = None
    addr = 64
    while b is None:
        probe_cache = Cache("P", 2 * 64, 1, 64)
        probe_cache.access(a, 1, 0)
        probe_cache.access(addr, 1, 0)
        if not probe_cache.probe(a):
            b = addr
        addr += 64
    # Interthread: same kind, different thread evicts.
    c.access(a, 1, 0)
    c.access(b, 2, 0)
    c.access(a, 1, 0)
    assert c.stats.causes.get((0, int(MissCause.INTERTHREAD)), 0) == 1
    # User/kernel: kernel evicts, user re-misses.
    c.access(b, 3, 1)   # kernel brings b back (evicting a)
    c.access(a, 1, 0)
    assert c.stats.causes.get((0, int(MissCause.USER_KERNEL)), 0) >= 1


def test_flush_all_marks_invalidation():
    c = make_cache()
    c.access(0x1000, 1, 0)
    dropped = c.flush_all()
    assert dropped == 1
    assert not c.access(0x1000, 1, 0)
    assert c.stats.causes.get((0, int(MissCause.INVALIDATION)), 0) == 1
    assert c.flushes == 1


def test_flush_address_single_line():
    c = make_cache()
    c.access(0x1000, 1, 0)
    c.access(0x2000, 1, 0)
    assert c.flush_address(0x1000)
    assert not c.probe(0x1000)
    assert c.probe(0x2000)
    assert not c.flush_address(0x9000)


def test_constructive_sharing_detected():
    c = make_cache()
    c.access(0x1000, 1, 1)          # kernel thread 1 fills
    assert c.access(0x1000, 2, 0)   # user thread 2 hits: avoided miss
    assert c.stats.avoided[(0, 1)] == 1
    # Second touch by thread 2 is not counted again.
    c.access(0x1000, 2, 0)
    assert c.stats.avoided[(0, 1)] == 1


def test_sharing_not_counted_for_filler():
    c = make_cache()
    c.access(0x1000, 1, 0)
    c.access(0x1000, 1, 0)
    assert not c.stats.avoided


def test_accesses_counted_by_kind():
    c = make_cache()
    c.access(0x1000, 1, 0)
    c.access(0x2000, 1, 1)
    assert c.stats.accesses == [1, 1]


def test_probe_has_no_side_effects():
    c = make_cache()
    c.probe(0x1000)
    assert c.stats.accesses == [0, 0]
    assert c.resident_lines == 0


@settings(max_examples=30, deadline=None)
@given(addrs=st.lists(st.integers(0, 1 << 20), min_size=1, max_size=300),
       assoc=st.sampled_from([1, 2, 4]))
def test_resident_lines_never_exceed_capacity(addrs, assoc):
    c = Cache("H", 16 * 64 * assoc, assoc, 64)
    for i, addr in enumerate(addrs):
        c.access(addr, i % 4, i % 2)
    assert c.resident_lines <= 16 * assoc


@settings(max_examples=30, deadline=None)
@given(addrs=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200))
def test_miss_causes_sum_to_misses(addrs):
    c = Cache("H", 8 * 64 * 2, 2, 64)
    for i, addr in enumerate(addrs):
        c.access(addr, i % 3, 0)
    assert sum(c.stats.causes.values()) == sum(c.stats.misses)


@settings(max_examples=30, deadline=None)
@given(addrs=st.lists(st.integers(0, 1 << 16), min_size=1, max_size=200))
def test_hits_plus_misses_equals_accesses(addrs):
    c = Cache("H", 8 * 64 * 2, 2, 64)
    hits = 0
    for addr in addrs:
        hits += c.access(addr, 0, 0)
    assert hits + sum(c.stats.misses) == sum(c.stats.accesses)


# -- lazy sets ----------------------------------------------------------------

def _touched_sets(cache) -> set[int]:
    """Set indices of every line the cache was ever asked for."""
    return {placement_index(line) & (cache.n_sets - 1) for line in cache._seen}


class _EagerCache(Cache):
    """The same cache with every set created up front."""

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self._sets = {index: {} for index in range(self.n_sets)}


def test_fresh_l2_materializes_no_set():
    l2 = MemoryHierarchy(MemoryConfig()).l2
    assert l2.n_sets == 32_768
    assert not l2._sets
    assert len(l2.content_state()) == l2.n_sets


def test_paper_scale_hierarchy_builds_no_l2_set():
    l2 = MemoryHierarchy(MachineConfig.paper_scale().memory).l2
    assert l2.n_sets == 262_144
    assert not l2._sets


def test_probe_and_flush_address_create_no_set():
    c = make_cache()
    c.access(0x1000, 1, 0)
    for addr in range(0x2000, 0x2000 + 64 * 64, 64):
        assert not c.probe(addr)
        assert not c.flush_address(addr)
    assert set(c._sets) == _touched_sets(c) and len(c._sets) == 1


def test_short_run_materializes_exactly_the_touched_sets():
    sim = build_simulation("specint", "smt", "full", seed=11)
    sim.run(max_instructions=3_000)
    hierarchy = sim.hierarchy
    for cache in (hierarchy.l1i, hierarchy.l1d, hierarchy.l2):
        assert set(cache._sets) == _touched_sets(cache), cache.name
    assert 0 < len(hierarchy.l2._sets) < hierarchy.l2.n_sets


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(st.tuples(st.sampled_from("aaaaapf*"),
                              st.integers(0, 1 << 14)), max_size=300),
       assoc=st.sampled_from([1, 2, 4]))
def test_lazy_sets_agree_with_eager_sets(ops, assoc):
    lazy = Cache("L", 16 * 64 * assoc, assoc, 64)
    eager = _EagerCache("E", 16 * 64 * assoc, assoc, 64)
    for i, (op, addr) in enumerate(ops):
        if op == "a":
            outcomes = [c.access(addr, i % 3, i % 2) for c in (lazy, eager)]
        elif op == "p":
            outcomes = [c.probe(addr) for c in (lazy, eager)]
        elif op == "f":
            outcomes = [c.flush_address(addr) for c in (lazy, eager)]
        else:
            outcomes = [c.flush_all() for c in (lazy, eager)]
        assert outcomes[0] == outcomes[1]
        assert lazy.resident_lines == eager.resident_lines
    assert lazy.content_state() == eager.content_state()
    assert lazy.flush_all() == eager.flush_all()
    assert lazy.stats.causes == eager.stats.causes
    assert set(lazy._sets) == _touched_sets(lazy)
