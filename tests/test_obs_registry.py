"""Tests for the hierarchical probe registry (repro.obs.registry)."""

import pytest

from repro.obs.registry import (
    CounterGroup,
    Histogram,
    ProbeRegistry,
    register_miss_stats,
)


# -- counters ---------------------------------------------------------------

def test_counter_register_bump_snapshot_round_trip():
    reg = ProbeRegistry()
    c = reg.counter("os.syscall.read.count")
    c.add()
    c.add(4)
    c.inc()
    assert reg.snapshot() == {"os.syscall.read.count": 6}


def test_counter_registration_is_idempotent():
    reg = ProbeRegistry()
    a = reg.counter("mem.l1d.flushes")
    b = reg.counter("mem.l1d.flushes")
    assert a is b
    a.add()
    assert reg.snapshot()["mem.l1d.flushes"] == 1


def test_invalid_names_rejected():
    reg = ProbeRegistry()
    for bad in ("", "Mem.l1d", "mem..l1d", ".mem", "mem l1d",
                "bogus.cache.hits"):
        with pytest.raises(ValueError):
            reg.counter(bad)


def test_cross_flavor_duplicate_rejected():
    reg = ProbeRegistry()
    reg.counter("os.ticks")
    with pytest.raises(ValueError):
        reg.derive("os.ticks", lambda: 0)
    with pytest.raises(ValueError):
        reg.histogram("os.ticks")


# -- derived probes ---------------------------------------------------------

def test_derived_probe_evaluated_at_snapshot_time():
    reg = ProbeRegistry()
    box = {"hits": 0}
    reg.derive("mem.l2.hits", lambda: box["hits"])
    assert reg.snapshot()["mem.l2.hits"] == 0
    box["hits"] = 7
    assert reg.snapshot()["mem.l2.hits"] == 7


def test_derive_map_expands_dynamic_keys():
    reg = ProbeRegistry()
    counts = {}
    reg.derive_map("os.syscall", lambda: {f"{n}.count": v
                                          for n, v in counts.items()})
    assert reg.snapshot() == {}
    counts["read"] = 3
    counts["write"] = 1
    snap = reg.snapshot()
    assert snap["os.syscall.read.count"] == 3
    assert snap["os.syscall.write.count"] == 1
    with pytest.raises(ValueError):
        reg.derive_map("os.syscall", lambda: {})


def test_snapshot_prefix_filter_and_sorted_keys():
    reg = ProbeRegistry()
    reg.counter("mem.l1d.flushes").add()
    reg.counter("branch.cond.predictions").add(2)
    reg.derive("mem.l2.hits", lambda: 5)
    snap = reg.snapshot()
    assert list(snap) == sorted(snap)
    assert set(reg.snapshot(prefix="mem.")) == {"mem.l1d.flushes",
                                                "mem.l2.hits"}
    assert reg.names() == sorted(snap)


# -- histograms -------------------------------------------------------------

def test_histogram_buckets_and_overflow():
    h = Histogram("os.syscall_latency_cycles", bounds=(10, 100))
    for v in (1, 10, 11, 100, 5000):
        h.observe(v)
    snap = h.snapshot()
    assert snap["count"] == 5
    assert snap["sum"] == 5122
    assert snap["buckets"] == [2, 2, 1]  # <=10, <=100, overflow
    assert snap["bounds"] == [10, 100]  # self-describing for percentiles


def test_histogram_bounds_must_ascend():
    with pytest.raises(ValueError):
        Histogram("x", bounds=(10, 5))
    with pytest.raises(ValueError):
        Histogram("x", bounds=())


def test_histogram_through_registry_snapshot():
    reg = ProbeRegistry()
    h = reg.histogram("os.syscall_latency_cycles", bounds=(10,))
    h.observe(3)
    snap = reg.snapshot()["os.syscall_latency_cycles"]
    assert snap == {"count": 1, "sum": 3, "bounds": [10], "buckets": [1, 0]}


def test_histogram_percentiles():
    h = Histogram("os.syscall_latency_cycles", bounds=(10, 100, 1000))
    for v in (5,) * 50 + (50,) * 40 + (500,) * 9 + (5000,):
        h.observe(v)
    # p50 falls exactly at the end of the first bucket (50 of 100 obs).
    assert h.p50 == pytest.approx(10.0)
    # p95: rank 95 is the 5th of 9 observations in (100, 1000].
    assert h.p95 == pytest.approx(100 + 900 * 5 / 9)
    assert h.p99 == pytest.approx(1000.0)
    assert h.percentile(1.0) == pytest.approx(1000.0)  # overflow clips
    with pytest.raises(ValueError):
        h.percentile(0.0)
    assert Histogram("x", bounds=(4,)).p95 == 0.0  # empty histogram


def test_snapshot_percentile_matches_live_histogram():
    from repro.obs.registry import snapshot_percentile

    h = Histogram("os.syscall_latency_cycles")
    for v in (3, 17, 40, 900, 20000):
        h.observe(v)
    snap = h.snapshot()
    for q in (0.5, 0.95, 0.99):
        assert snapshot_percentile(snap, q) == pytest.approx(h.percentile(q))
    # Pre-v3 snapshots (no bounds) fall back to the default buckets.
    legacy = {k: v for k, v in snap.items() if k != "bounds"}
    assert snapshot_percentile(legacy, 0.5) == pytest.approx(h.p50)


# -- CounterGroup -----------------------------------------------------------

def test_counter_group_preserves_dict_idiom():
    reg = ProbeRegistry()
    grp = CounterGroup(reg, "os", ("spin_instructions", "icache_flushes"))
    grp["spin_instructions"] += 3
    grp["icache_flushes"] = 2
    assert dict(grp) == {"spin_instructions": 3, "icache_flushes": 2}
    assert reg.snapshot()["os.spin_instructions"] == 3
    with pytest.raises(KeyError):
        grp["unknown"]
    with pytest.raises(TypeError):
        del grp["spin_instructions"]


# -- miss-stats bridge ------------------------------------------------------

def test_register_miss_stats_exposes_live_structure():
    from repro.memory.classify import MissStats

    stats = MissStats()
    reg = ProbeRegistry()
    register_miss_stats(reg, "mem.l1d", stats)
    assert reg.snapshot()["mem.l1d.accesses.user"] == 0
    stats.accesses[0] += 9
    stats.misses[1] += 2
    snap = reg.snapshot()
    assert snap["mem.l1d.accesses.user"] == 9
    assert snap["mem.l1d.miss.kernel"] == 2
