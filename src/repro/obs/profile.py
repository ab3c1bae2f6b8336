"""Simulator self-profiling (observability layer 3).

A :class:`ScopeProfiler` measures where *host* wall-clock goes while the
simulator runs -- the measurement baseline for every optimization PR.
Scopes nest; each records call count, inclusive time, and self time
(inclusive minus time spent in child scopes)::

    prof = ScopeProfiler()
    with prof("memory.access"):
        ...

:func:`profile_simulation` wires a profiler through one simulation: the
per-cycle steps (``os.tick``, ``core.cycle``) and the hot component
entry points (hierarchy accesses, branch prediction, the four pipeline
stages) are wrapped so the report attributes Python time per simulated
component.  Profiling is strictly opt-in -- an unprofiled run executes
the original unwrapped code paths, and the run loop has no profiler
branch.
"""

from __future__ import annotations

import time
from typing import Callable


class _Scope:
    """Context manager for one named scope."""

    __slots__ = ("_profiler", "_name")

    def __init__(self, profiler: "ScopeProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name

    def __enter__(self):
        self._profiler._enter(self._name)
        return self

    def __exit__(self, *exc):
        self._profiler._exit()
        return False


class ScopeProfiler:
    """Nested host-time scope accumulator.

    ``stats`` maps scope name to ``[calls, inclusive_seconds,
    child_seconds]``; :meth:`report` derives self time.  Calling the
    profiler returns a context manager for the named scope (hot code
    goes through :meth:`wrap`, which allocates nothing per call).
    """

    def __init__(self) -> None:
        self.stats: dict[str, list] = {}
        self._stack: list[list] = []  # [name, start, child_seconds]

    def __call__(self, name: str) -> _Scope:
        return _Scope(self, name)

    def _enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        elapsed = time.perf_counter() - start
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += child
        if self._stack:
            self._stack[-1][2] += elapsed

    def wrap(self, fn: Callable, name: str) -> Callable:
        """Wrap *fn* so every call runs inside the named scope."""

        def wrapper(*args, **kwargs):
            self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reporting ---------------------------------------------------------

    def report(self) -> list[dict]:
        """Per-scope rows, sorted by self time (descending)."""
        total_self = sum(max(0.0, t - c) for _, t, c in self.stats.values()) or 1.0
        rows = []
        for name, (calls, incl, child) in self.stats.items():
            self_s = max(0.0, incl - child)
            rows.append({
                "scope": name,
                "calls": calls,
                "total_s": incl,
                "self_s": self_s,
                "self_share": self_s / total_self,
            })
        rows.sort(key=lambda r: r["self_s"], reverse=True)
        return rows

    def render(self) -> str:
        """The report as a fixed-width text table."""
        header = (f"{'scope':<24s} {'calls':>12s} {'total s':>10s} "
                  f"{'self s':>10s} {'self %':>7s}")
        lines = [header, "-" * len(header)]
        for row in self.report():
            lines.append(
                f"{row['scope']:<24s} {row['calls']:>12,d} "
                f"{row['total_s']:>10.3f} {row['self_s']:>10.3f} "
                f"{row['self_share'] * 100:>6.1f}%")
        return "\n".join(lines)


#: (attribute path, scope name) pairs instrumented by profile_simulation.
_COMPONENT_SCOPES = (
    (("os", "tick"), "os.tick"),
    (("processor", "cycle"), "core.cycle"),
    (("hierarchy", "data_access"), "mem.data_access"),
    (("hierarchy", "inst_access"), "mem.inst_access"),
    (("processor", "_resolve"), "core.resolve"),
    (("processor", "_retire"), "core.retire"),
    (("processor", "_issue"), "core.issue"),
    (("processor", "_fetch"), "core.fetch"),
)


def profile_simulation(sim, max_instructions: int,
                       profiler: ScopeProfiler | None = None) -> ScopeProfiler:
    """Run *sim* under a scope profiler; returns the filled profiler.

    The per-cycle steps (``os.tick``, ``core.cycle``) and component
    entry points are shadowed with timing wrappers on the *instances*
    (the classes stay untouched; the run loop binds them when it
    starts) and restored afterwards.  Branch prediction is profiled via
    the branch unit's ``predict``.
    """
    prof = profiler or ScopeProfiler()
    shadowed: list[tuple[object, str]] = []
    try:
        for (owner_name, attr), scope in _COMPONENT_SCOPES:
            owner = getattr(sim, owner_name)
            setattr(owner, attr, prof.wrap(getattr(owner, attr), scope))
            shadowed.append((owner, attr))
        unit = sim.processor.branch_unit
        unit.predict = prof.wrap(unit.predict, "branch.predict")
        shadowed.append((unit, "predict"))
        with prof("sim.run"):
            sim.run(max_instructions=max_instructions)
    finally:
        for owner, attr in shadowed:
            delattr(owner, attr)  # drop the instance shadow
    return prof
