"""Host-time spans around the simulator's layers (``--trace 1``).

:data:`LAYERS` maps each layer name to the methods and module functions
that are its entry points.  :meth:`Tracer.install` wraps them on their
classes and modules -- so objects built later are traced too -- with a
span that counts calls and accumulates self time: the span's duration
minus the time covered by spans nested inside it.  Host time that no
layer span covers (the detailed and fast run loops, plan and service
control flow) is reported as :data:`LOOP`.

Entry points that no longer exist are skipped, so a refactor that
renames one shows up as a layer whose calls drop to zero instead of a
benchmark that cannot run.
"""

from __future__ import annotations

import importlib
import sys
import time

_PROCESSOR = "repro.core.processor"
_KERNEL = "repro.os_model.kernel"
_STREAM = "repro.os_model.stream"
_HIERARCHY = "repro.memory.hierarchy"
_STATS = "repro.core.stats"
_SNAPSHOT = "repro.analysis.snapshot"
_ARTIFACT = "repro.analysis.artifact"

#: layer -> [(module, class or None for a module function, attribute)].
LAYERS: dict[str, list[tuple[str, str | None, str]]] = {
    "build": [("repro.analysis.experiments", None, "build_simulation")],
    "os.stream": [(_STREAM, "ContextStream", "next_instruction"),
                  (_STREAM, "ContextStream", "next_fast")],
    "isa": [("repro.isa.code", "CodeWalker", "next_instruction")],
    "os.kernel": [(_KERNEL, "MiniDUX", "dispatch"),
                  (_KERNEL, "MiniDUX", "handle_dtlb_miss"),
                  (_KERNEL, "MiniDUX", "handle_itlb_miss")],
    "os.tick": [(_KERNEL, "MiniDUX", "tick")],
    "core.fetch": [(_PROCESSOR, "Processor", "_fetch")],
    "core.issue": [(_PROCESSOR, "Processor", "_issue")],
    "core.retire": [(_PROCESSOR, "Processor", "_retire")],
    "core.resolve": [(_PROCESSOR, "Processor", "_resolve")],
    "mem": [(_HIERARCHY, "MemoryHierarchy", name)
            for name in ("data_access", "inst_access", "store_complete",
                         "warm_inst", "warm_data")],
    "branch": [("repro.branch.unit", "BranchUnit", "predict"),
               ("repro.branch.unit", "BranchUnit", "resolve")],
    "stats": [(_STATS, "SimStats", name)
              for name in ("retire", "retire_bulk", "charge_cycle",
                           "charge_cycles")],
    "telemetry": [("repro.obs.timeline", "ProbeTimeline", "tick"),
                  (_STATS, "Attribution", "switch"),
                  (_STATS, "Attribution", "path_of")],
    "artifact": [(_SNAPSHOT, None, "capture"),
                 (_SNAPSHOT, None, "diff"),
                 (_SNAPSHOT, None, "merge_windows"),
                 ("repro.core.simulator", "Simulation", "to_artifact"),
                 (_ARTIFACT, "RunArtifact", "to_json_dict"),
                 (_ARTIFACT, "RunArtifact", "from_json_dict")],
    "store": [("repro.analysis.store", "RunStore", name)
              for name in ("get", "put", "get_checkpoint", "put_checkpoint")],
    "service.queue": [("repro.analysis.queue", "JobQueue", name)
                      for name in ("submit", "claim", "complete", "requeue",
                                   "mark_shutdown")],
}

#: Pseudo-layer for traced host time outside every layer span.
LOOP = "loop"


class Tracer:
    """Per-layer call counts and self seconds over one traced window."""

    def __init__(self) -> None:
        #: layer -> [calls, self seconds]
        self.cells: dict[str, list] = {name: [0, 0.0] for name in LAYERS}
        # Child-time accumulators of the open spans; the bottom entry
        # collects the time covered by outermost spans.
        self._stack: list[float] = [0.0]
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, layer: str, fn):
        cell = self.cells[layer]
        stack = self._stack
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                child = stack.pop()
                stack[-1] += elapsed
                cell[0] += 1
                cell[1] += elapsed - child

        span.__wrapped__ = fn
        return span

    def install(self) -> None:
        """Wrap every layer entry point (undone by :meth:`uninstall`)."""
        for layer, points in LAYERS.items():
            for module_name, class_name, attr in points:
                module = importlib.import_module(module_name)
                if class_name is None:
                    self._wrap_function(module, attr, layer)
                else:
                    self._wrap_method(getattr(module, class_name, None),
                                      attr, layer)

    def _wrap_method(self, cls, attr: str, layer: str) -> None:
        raw = vars(cls).get(attr) if cls is not None else None
        if raw is None:
            return
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self._span(layer, raw.__func__))
        else:
            wrapped = self._span(layer, raw)
        self._restore.append((cls, attr, raw))
        setattr(cls, attr, wrapped)

    def _wrap_function(self, module, attr: str, layer: str) -> None:
        original = getattr(module, attr, None)
        if original is None:
            return
        wrapped = self._span(layer, original)
        # `from module import name` copies the binding: rebind it in every
        # loaded repro module that holds the original function.
        for name, mod in sorted(sys.modules.items()):
            if (name == "repro" or name.startswith("repro.")) \
                    and getattr(mod, attr, None) is original:
                self._restore.append((mod, attr, original))
                setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def totals(self) -> list[tuple[int, float]]:
        """``(calls, self seconds)`` so far, in :data:`LAYERS` order."""
        return [(cell[0], cell[1]) for cell in self.cells.values()]
