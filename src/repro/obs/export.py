"""Event-recording exporters: JSONL and Chrome ``trace_event`` JSON.

The Chrome exporter lays a recording out the way the paper reads a
machine: process 0 ("hardware contexts") carries one track per hardware
context showing what service each context is occupied by over time plus
per-context instants (squashes, application-only scheduler dispatches);
process 1 ("kernel services") carries one track per service for the
instants bound to no context (cache misses, instant TLB refills, VM
incursions); process 2 ("software threads") carries one track per
software thread with its syscall, TLB-refill, interrupt and scheduler
spans, which nest as the call paths ``repro flame`` folds (interrupts
and dispatches run on the per-context CPU pseudo-threads, tid
``900 + ctx``).  An instant's track names its context or its service,
not its software thread, so its args carry the event's ``tid`` and,
where set, its ``service`` beside the event's own args.  The output is
the stable JSON-object form of the trace-event format, so ``repro trace
--out trace.json`` opens directly in ``chrome://tracing`` or
https://ui.perfetto.dev.  One simulated cycle maps to one microsecond of
trace time.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from repro.obs.events import BEGIN, END, INSTANT, PIPELINE, SimEvent

#: Synthetic pids of the three exported processes.
PID_CONTEXTS = 0
PID_SERVICES = 1
PID_THREADS = 2


def to_jsonl(events: Iterable[SimEvent]) -> str:
    """One compact JSON object per line, in recording order."""
    return "\n".join(
        json.dumps(e.to_json_dict(), sort_keys=True, separators=(",", ":"))
        for e in events)


def _metadata(pid: int, process_name: str,
              threads: dict[int, str]) -> list[dict]:
    out = [{"ph": "M", "pid": pid, "tid": 0, "name": "process_name",
            "args": {"name": process_name}}]
    for tid, name in sorted(threads.items()):
        out.append({"ph": "M", "pid": pid, "tid": tid, "name": "thread_name",
                    "args": {"name": name}})
    return out


def to_chrome_trace(events: Iterable[SimEvent],
                    n_contexts: int | None = None) -> dict:
    """Render a recording as a Chrome ``trace_event`` JSON object.

    Span events (phase ``B``/``E``) are paired into complete (``X``)
    events: each E closes the latest open B of the same kind on the same
    track -- the same hardware context for pipeline occupancy, the same
    software thread for every other span -- so slices on one track
    always nest.  Perfetto renders those robustly even when a span is
    still open at the end of the recording (unmatched begins are closed
    at the last timestamp).  Timestamps are emitted in ascending order.
    """
    ctx_tids: set[int] = set(range(n_contexts)) if n_contexts else set()
    service_tids: dict[str, int] = {}
    thread_tids: set[int] = set()
    open_spans: dict[tuple[int, int, str], list[SimEvent]] = {}
    trace: list[dict] = []

    def service_tid(service: str) -> int:
        tid = service_tids.get(service)
        if tid is None:
            tid = service_tids[service] = len(service_tids)
        return tid

    def track_of(event: SimEvent) -> tuple[int, int]:
        if event.phase != INSTANT and event.kind != PIPELINE \
                and event.tid is not None:
            thread_tids.add(event.tid)
            return PID_THREADS, event.tid
        if event.ctx is not None:
            ctx_tids.add(event.ctx)
            return PID_CONTEXTS, event.ctx
        return PID_SERVICES, service_tid(event.service or event.name)

    def emit_span(pid: int, tid: int, begin: SimEvent, end_ts: int) -> None:
        trace.append({
            "ph": "X", "pid": pid, "tid": tid, "ts": begin.ts,
            "dur": max(0, end_ts - begin.ts), "name": begin.name,
            "cat": begin.kind, "args": begin.args or {},
        })

    last_ts = 0
    for event in sorted(events, key=lambda e: e.ts):
        last_ts = event.ts
        pid, tid = track_of(event)
        if event.phase == BEGIN:
            open_spans.setdefault((pid, tid, event.kind), []).append(event)
        elif event.phase == END:
            stack = open_spans.get((pid, tid, event.kind))
            if stack:
                emit_span(pid, tid, stack.pop(), event.ts)
            # An end without a begin (span opened before recording
            # started) carries no start point; drop it.
        else:
            args = dict(event.args or {})
            if event.tid is not None:
                args["tid"] = event.tid
            if event.service is not None:
                args["service"] = event.service
            trace.append({
                "ph": "i", "s": "t", "pid": pid, "tid": tid, "ts": event.ts,
                "name": event.name, "cat": event.kind, "args": args,
            })
    for (pid, tid, _), stack in open_spans.items():
        for begin in stack:
            emit_span(pid, tid, begin, last_ts)

    # A parent slice precedes the children that start with it, so
    # viewers nest slices that share a start time.
    trace.sort(key=lambda e: (e["ts"], -e.get("dur", 0)))
    meta = _metadata(PID_CONTEXTS, "hardware contexts",
                     {tid: f"ctx{tid}" for tid in sorted(ctx_tids)})
    meta += _metadata(PID_SERVICES, "kernel services",
                      {tid: name for name, tid in service_tids.items()})
    meta += _metadata(PID_THREADS, "software threads",
                      {tid: f"tid {tid}" for tid in sorted(thread_tids)})
    return {
        "traceEvents": meta + trace,
        "displayTimeUnit": "ms",
        "otherData": {"time_unit": "1 trace us = 1 simulated cycle"},
    }


def write_chrome_trace(path, events: Iterable[SimEvent],
                       n_contexts: int | None = None) -> dict:
    """Write the Chrome trace JSON to *path*; returns the trace object."""
    payload = to_chrome_trace(events, n_contexts)
    with open(path, "w") as f:
        json.dump(payload, f)
        f.write("\n")
    return payload
