"""Tests for the event bus, trace exporters, and the self-profiler."""

import json

import pytest

from repro.core.simulator import Simulation
from repro.obs.events import BEGIN, END, EventBus, SimEvent
from repro.obs.export import (
    PID_CONTEXTS,
    PID_SERVICES,
    PID_THREADS,
    to_chrome_trace,
    to_jsonl,
    write_chrome_trace,
)
from repro.obs.profile import ScopeProfiler, profile_simulation
from repro.workloads.apache import ApacheWorkload
from repro.workloads.specint import SpecIntWorkload


# -- event bus --------------------------------------------------------------

def test_bus_records_and_counts():
    bus = EventBus(capacity=10)
    bus.emit(5, "cache", "l1d_miss", tid=1)
    bus.emit(9, "syscall", "read", phase=BEGIN, service="syscall:read")
    assert len(bus) == 2
    assert bus.counts() == {"cache": 1, "syscall": 1}
    assert [e.name for e in bus.by_kind("cache")] == ["l1d_miss"]
    assert [e.ts for e in bus.window(6, 10)] == [9]


def test_bus_ring_drops_oldest():
    bus = EventBus(capacity=3)
    for i in range(5):
        bus.emit(i, "pipeline", "squash")
    assert len(bus) == 3
    assert bus.dropped == 2
    assert bus.recorded == 5
    assert bus.events[0].ts == 2


def test_bus_kind_filter():
    bus = EventBus(kinds=("syscall",))
    bus.emit(0, "cache", "l1d_miss")
    bus.emit(1, "syscall", "read")
    assert [e.kind for e in bus.events] == ["syscall"]


def test_bus_capacity_validation():
    with pytest.raises(ValueError):
        EventBus(capacity=0)


# -- exporters --------------------------------------------------------------

def _sample_events():
    return [
        SimEvent(10, "pipeline", "syscall:read", BEGIN, ctx=0),
        SimEvent(12, "cache", "l2_miss", tid=3),
        SimEvent(30, "pipeline", "syscall:read", END, ctx=0),
        SimEvent(40, "syscall", "read", BEGIN, tid=3, service="syscall:read"),
        SimEvent(55, "syscall", "read", END, tid=3, service="syscall:read"),
        SimEvent(60, "interrupt", "timer", ctx=2),
    ]


def test_jsonl_is_one_object_per_line():
    lines = to_jsonl(_sample_events()).splitlines()
    assert len(lines) == 6
    first = json.loads(lines[0])
    assert first == {"ts": 10, "kind": "pipeline", "name": "syscall:read",
                     "phase": "B", "ctx": 0}


def test_chrome_trace_is_valid_json_with_monotonic_timestamps():
    payload = to_chrome_trace(_sample_events(), n_contexts=4)
    text = json.dumps(payload)
    reloaded = json.loads(text)
    stamps = [e["ts"] for e in reloaded["traceEvents"] if "ts" in e]
    assert stamps == sorted(stamps)
    assert reloaded["displayTimeUnit"] == "ms"


def test_chrome_trace_one_track_per_context_and_service():
    # contexts carry pipeline occupancy and their instants, services the
    # context-less instants, software threads their kernel spans
    payload = to_chrome_trace(_sample_events(), n_contexts=4)
    events = payload["traceEvents"]
    thread_meta = [e for e in events
                   if e["ph"] == "M" and e["name"] == "thread_name"]
    ctx_tracks = {(e["pid"], e["tid"]): e["args"]["name"]
                  for e in thread_meta if e["pid"] == PID_CONTEXTS}
    assert ctx_tracks == {(PID_CONTEXTS, i): f"ctx{i}" for i in range(4)}
    svc_tracks = {e["args"]["name"] for e in thread_meta
                  if e["pid"] == PID_SERVICES}
    assert svc_tracks == {"l2_miss"}
    thread_tracks = {(e["tid"], e["args"]["name"]) for e in thread_meta
                     if e["pid"] == PID_THREADS}
    assert thread_tracks == {(3, "tid 3")}
    # every non-metadata event sits on a declared track
    declared = {(e["pid"], e["tid"]) for e in thread_meta}
    used = {(e["pid"], e["tid"]) for e in events if e["ph"] != "M"}
    assert used <= declared


def test_chrome_trace_pairs_spans_into_complete_events():
    payload = to_chrome_trace(_sample_events(), n_contexts=4)
    spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    by_name = {(e["pid"], e["name"]): e for e in spans}
    ctx_span = by_name[(PID_CONTEXTS, "syscall:read")]
    assert (ctx_span["ts"], ctx_span["dur"]) == (10, 20)
    thread_span = by_name[(PID_THREADS, "read")]
    assert (thread_span["tid"], thread_span["ts"], thread_span["dur"]) \
        == (3, 40, 15)


def _slices(payload):
    return sorted((e["pid"], e["tid"], e["cat"], e["name"], e["ts"], e["dur"])
                  for e in payload["traceEvents"] if e["ph"] == "X")


def test_chrome_trace_pairs_per_thread_and_kind():
    # Two threads' syscall:read spans interleave in time, and on context
    # 0 a pipeline span ends inside the CPU pseudo-thread's sched span:
    # each span keeps its own begin and end.
    events = [
        SimEvent(10, "syscall", "read", BEGIN, tid=1, service="syscall:read"),
        SimEvent(20, "syscall", "read", BEGIN, tid=2, service="syscall:read"),
        SimEvent(30, "syscall", "read", END, tid=1, service="syscall:read"),
        SimEvent(50, "syscall", "read", END, tid=2, service="syscall:read"),
        SimEvent(90, "pipeline", "user", BEGIN, ctx=0, service="user"),
        SimEvent(100, "sched", "dispatch:p", BEGIN, ctx=0, tid=900,
                 service="sched"),
        SimEvent(110, "pipeline", "user", END, ctx=0, service="user"),
        SimEvent(110, "pipeline", "sched", BEGIN, ctx=0, service="sched"),
        SimEvent(140, "sched", "dispatch:p", END, ctx=0, tid=900,
                 service="sched"),
        SimEvent(150, "pipeline", "sched", END, ctx=0, service="sched"),
    ]
    assert _slices(to_chrome_trace(events, n_contexts=1)) == [
        (PID_CONTEXTS, 0, "pipeline", "sched", 110, 40),
        (PID_CONTEXTS, 0, "pipeline", "user", 90, 20),
        (PID_THREADS, 1, "syscall", "read", 10, 20),
        (PID_THREADS, 2, "syscall", "read", 20, 30),
        (PID_THREADS, 900, "sched", "dispatch:p", 100, 40),
    ]


def test_chrome_trace_kernel_spans_match_per_thread_pairing():
    # On a real trace, the exported kernel spans are exactly the per-
    # thread LIFO pairing of the event log (open ones end at the last
    # timestamp), and their slices nest on every track.
    sim = Simulation(ApacheWorkload(), seed=11)
    bus = EventBus()
    sim.attach_events(bus)
    sim.run(max_instructions=60_000)
    assert bus.dropped == 0
    events = list(bus.events)
    last_ts = max(e.ts for e in events)
    stacks: dict = {}
    expected = []
    for ev in events:
        if ev.kind == "pipeline" or ev.phase not in (BEGIN, END):
            continue
        stack = stacks.setdefault(ev.tid, [])
        if ev.phase == BEGIN:
            stack.append(ev)
        else:
            begin = stack.pop()
            assert (begin.kind, begin.name) == (ev.kind, ev.name)
            expected.append((PID_THREADS, ev.tid, ev.kind, ev.name,
                             begin.ts, ev.ts - begin.ts))
    for tid, stack in stacks.items():
        expected += [(PID_THREADS, tid, b.kind, b.name, b.ts, last_ts - b.ts)
                     for b in stack]
    payload = to_chrome_trace(events, n_contexts=sim.machine.cpu.n_contexts)
    kernel = [s for s in _slices(payload) if s[2] != "pipeline"]
    assert {s[2] for s in kernel} == {"syscall", "tlb", "interrupt", "sched"}
    assert kernel == sorted(expected)
    # slices on one track nest: none starts inside another and ends
    # beyond it
    tracks: dict = {}
    for pid, tid, _, _, ts, dur in _slices(payload):
        tracks.setdefault((pid, tid), []).append((ts, ts + dur))
    for spans in tracks.values():
        open_ends: list = []
        for start, end in sorted(spans, key=lambda s: (s[0], -s[1])):
            while open_ends and open_ends[-1] <= start:
                open_ends.pop()
            assert not open_ends or end <= open_ends[-1]
            open_ends.append(end)


def test_chrome_trace_instants_keep_thread_and_service():
    # An instant's track is its context or its service, so the software
    # thread and service it was emitted with travel in its args.
    events = [
        SimEvent(12, "cache", "l2_miss", tid=3),
        SimEvent(20, "tlb", "dtlb_refill", tid=4, service="tlb:refill"),
        SimEvent(25, "vm", "page_fault", service="vm:page_fault"),
        SimEvent(30, "pipeline", "squash", ctx=1, service="user",
                 args={"count": 2}),
        SimEvent(40, "sched", "dispatch:p", ctx=0, tid=5),
    ]
    payload = to_chrome_trace(events, n_contexts=2)
    got = {e["name"]: (e["pid"], e["args"])
           for e in payload["traceEvents"] if e["ph"] == "i"}
    assert got == {
        "l2_miss": (PID_SERVICES, {"tid": 3}),
        "dtlb_refill": (PID_SERVICES, {"tid": 4, "service": "tlb:refill"}),
        "page_fault": (PID_SERVICES, {"service": "vm:page_fault"}),
        "squash": (PID_CONTEXTS, {"count": 2, "service": "user"}),
        "dispatch:p": (PID_CONTEXTS, {"tid": 5}),
    }
    assert events[3].args == {"count": 2}  # the recording is not mutated


def test_chrome_trace_closes_unmatched_begins():
    events = [SimEvent(5, "syscall", "read", BEGIN, service="syscall:read"),
              SimEvent(50, "cache", "l1d_miss", ctx=0)]
    payload = to_chrome_trace(events)
    spans = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    assert len(spans) == 1
    assert spans[0]["ts"] == 5 and spans[0]["dur"] == 45


def test_chrome_trace_drops_end_without_begin():
    payload = to_chrome_trace([SimEvent(5, "syscall", "read", END,
                                        service="syscall:read")])
    assert [e for e in payload["traceEvents"] if e["ph"] == "X"] == []


def test_write_chrome_trace_to_disk(tmp_path):
    path = tmp_path / "trace.json"
    write_chrome_trace(path, _sample_events(), n_contexts=4)
    reloaded = json.loads(path.read_text())
    assert {"traceEvents", "displayTimeUnit", "otherData"} <= set(reloaded)


# -- simulation wiring ------------------------------------------------------

def test_simulation_emits_events_across_layers():
    sim = Simulation(SpecIntWorkload(), seed=55)
    bus = EventBus()
    sim.attach_events(bus)
    sim.run(max_instructions=20_000)
    kinds = set(bus.counts())
    assert {"pipeline", "cache", "tlb", "sched"} <= kinds
    payload = to_chrome_trace(bus.events,
                              n_contexts=sim.machine.cpu.n_contexts)
    stamps = [e["ts"] for e in payload["traceEvents"] if "ts" in e]
    assert stamps == sorted(stamps)
    assert len(stamps) > 0


def test_unattached_simulation_has_no_bus():
    sim = Simulation(SpecIntWorkload(), seed=55)
    assert sim.events is None
    assert sim.processor.events is None
    assert sim.hierarchy.events is None
    assert sim.os.events is None


def test_squash_events_count_every_squashed_instruction():
    # One pipeline/squash instant per squash, carrying the victim count:
    # over a whole run the counts add up to the squash statistic.
    sim = Simulation(SpecIntWorkload(), seed=55)
    bus = EventBus(kinds=("pipeline",))
    sim.attach_events(bus)
    sim.run(max_instructions=20_000)
    assert bus.dropped == 0
    assert sim.stats.squashed > 0
    counts = [e.args["count"] for e in bus.events if e.name == "squash"]
    assert sum(counts) == sim.stats.squashed


# -- self-profiler ----------------------------------------------------------

def test_profiler_nesting_charges_self_time():
    prof = ScopeProfiler()
    with prof("outer"):
        with prof("inner"):
            pass
    rows = {r["scope"]: r for r in prof.report()}
    assert rows["outer"]["calls"] == 1
    assert rows["inner"]["calls"] == 1
    assert rows["outer"]["self_s"] <= rows["outer"]["total_s"]
    assert "outer" in prof.render()


def test_profile_simulation_restores_instance_methods():
    sim = Simulation(SpecIntWorkload(), seed=55)
    prof = profile_simulation(sim, max_instructions=5_000)
    scopes = {r["scope"] for r in prof.report()}
    assert {"sim.run", "os.tick", "core.cycle", "core.fetch",
            "mem.data_access"} <= scopes
    # shadowing was per-instance and is fully undone
    assert "data_access" not in vars(sim.hierarchy)
    assert "_fetch" not in vars(sim.processor)
    assert "cycle" not in vars(sim.processor)
    assert "tick" not in vars(sim.os)
    assert sim.stats.retired >= 5_000
