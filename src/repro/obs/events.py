"""Structured event bus (observability layer 2).

One :class:`EventBus` per simulation collects *typed* events from every
layer -- pipeline service occupancy and squashes, cache misses, TLB
fills, syscall enter/exit, interrupts, scheduler dispatches -- into a
single bounded ring buffer.  It is the simulator's one event path.

Producers hold an ``Optional[EventBus]`` (default ``None``) and guard
each emission with one ``is not None`` check, so a simulation that never
attaches a bus pays nothing.  Attach one with
:meth:`repro.core.simulator.Simulation.attach_events`.

Timestamps are simulation cycles.  :mod:`repro.obs.export` renders a
recording as JSONL or as Chrome ``trace_event`` JSON for
``chrome://tracing`` / Perfetto (one track per hardware context, kernel
service and software thread).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

# -- event kinds (the `cat` column of exported traces) ---------------------

PIPELINE = "pipeline"
CACHE = "cache"
TLB = "tlb"
SYSCALL = "syscall"
INTERRUPT = "interrupt"
SCHED = "sched"
#: Kernel memory-management incursions (page allocation, mmap/unmap,
#: faults) posted by :class:`repro.os_model.vm.VMSystem`.
VM = "vm"
#: Run-engine lifecycle events (submits, claims, retries, breaker moves,
#: quarantines); ``ts`` is a monotonically increasing step counter, not
#: a simulation cycle, since the engine runs outside any simulation.
ENGINE = "engine"

#: The closed registry of event kinds.  Every ``EventBus.emit`` call
#: must use one of these (``repro lint`` rule E102 checks literal call
#: sites statically); exporters and kind filters key off the same set.
KINDS = (PIPELINE, CACHE, TLB, SYSCALL, INTERRUPT, SCHED, VM, ENGINE)

# -- phases (Chrome trace_event vocabulary subset) -------------------------

BEGIN = "B"
END = "E"
INSTANT = "i"


@dataclass(frozen=True)
class SimEvent:
    """One structured event.

    ``ts`` is the simulation cycle; ``kind`` is one of the module's kind
    constants; ``phase`` is ``B``/``E`` for spans and ``i`` for instants;
    ``ctx`` is the hardware context (``None`` when the event is not bound
    to one, e.g. a syscall span attributed to a kernel-service track);
    ``tid`` is the software thread; ``service`` is the kernel-service
    attribution label (``syscall:read``, ``netisr``, ``user``, ...).
    """

    ts: int
    kind: str
    name: str
    phase: str = INSTANT
    ctx: int | None = None
    tid: int | None = None
    service: str | None = None
    args: dict | None = None

    def to_json_dict(self) -> dict:
        out = {"ts": self.ts, "kind": self.kind, "name": self.name,
               "phase": self.phase}
        if self.ctx is not None:
            out["ctx"] = self.ctx
        if self.tid is not None:
            out["tid"] = self.tid
        if self.service is not None:
            out["service"] = self.service
        if self.args:
            out["args"] = self.args
        return out


class EventBus:
    """Bounded ring buffer of :class:`SimEvent` shared by all layers.

    Parameters
    ----------
    capacity:
        Maximum retained events; the oldest are dropped first (and
        counted in :attr:`dropped`).
    kinds:
        When given, only these event kinds are recorded.
    """

    def __init__(self, capacity: int = 200_000,
                 kinds: tuple[str, ...] | None = None) -> None:
        if capacity < 1:
            raise ValueError("event bus capacity must be positive")
        self.capacity = capacity
        self.kinds = frozenset(kinds) if kinds is not None else None
        self.events: deque[SimEvent] = deque(maxlen=capacity)
        self.recorded = 0
        self.dropped = 0

    def emit(self, ts: int, kind: str, name: str, phase: str = INSTANT,
             ctx: int | None = None, tid: int | None = None,
             service: str | None = None, args: dict | None = None) -> None:
        """Record one event (no-op when its kind is filtered out)."""
        if self.kinds is not None and kind not in self.kinds:
            return
        if len(self.events) == self.capacity:
            self.dropped += 1
        self.events.append(SimEvent(ts, kind, name, phase, ctx, tid,
                                    service, args))
        self.recorded += 1

    # -- queries -----------------------------------------------------------

    def by_kind(self, kind: str) -> list[SimEvent]:
        return [e for e in self.events if e.kind == kind]

    def counts(self) -> dict[str, int]:
        """Retained-event count per kind."""
        out: dict[str, int] = {}
        for e in self.events:
            out[e.kind] = out.get(e.kind, 0) + 1
        return out

    def window(self, start_ts: int, end_ts: int) -> list[SimEvent]:
        return [e for e in self.events if start_ts <= e.ts < end_ts]

    def __len__(self) -> int:
        return len(self.events)
