"""Unified observability layer.

Cooperating pieces; all but the probe registry are optional and cheap
when unused:

* :mod:`repro.obs.registry` -- a hierarchical probe/counter registry.
  Components register named counters and histograms once
  (``mem.l1d.miss.interthread``, ``os.syscall.read.count``, ...) and bump
  them cheaply; the registry snapshots into one flat, queryable tree that
  is folded into every :class:`~repro.analysis.artifact.RunArtifact`.
* :mod:`repro.obs.events` -- a typed structured-event bus shared by all
  layers (pipeline service occupancy, cache misses, TLB fills, syscall
  enter/exit, interrupts, scheduler dispatch) with one bounded recorder.
  :mod:`repro.obs.export` renders a recording as JSONL or Chrome
  ``trace_event`` JSON for ``chrome://tracing`` / Perfetto.
* :mod:`repro.obs.profile` -- a host-wall-clock scope profiler showing
  where simulator (Python) time goes per simulated component.
* :mod:`repro.obs.diff` -- structural diffing of two stored runs' probe
  trees, with top-mover ranking and repeated-seed noise filtering
  (``repro diff``, ``repro counters --against``).
* :mod:`repro.obs.baseline` -- standardized perf scenarios, the
  ``BENCH_<scenario>.json`` trajectory files, and the ``repro bench
  --check`` regression gate.
* :mod:`repro.obs.live` -- heartbeat telemetry for running simulations:
  live progress lines, JSONL heartbeats, and per-worker aggregation in
  the run engine.

See ``docs/observability.md`` for the probe naming scheme and worked
examples.
"""

from repro.obs.diff import DiffReport, ProbeDelta, diff_artifacts, diff_runs
from repro.obs.events import EventBus, SimEvent
from repro.obs.live import Heartbeat, ProgressAggregator
from repro.obs.profile import ScopeProfiler, profile_simulation
from repro.obs.registry import (
    Counter,
    CounterGroup,
    Histogram,
    ProbeRegistry,
    snapshot_percentile,
)

__all__ = [
    "Counter",
    "CounterGroup",
    "DiffReport",
    "EventBus",
    "Heartbeat",
    "Histogram",
    "ProbeDelta",
    "ProbeRegistry",
    "ProgressAggregator",
    "ScopeProfiler",
    "SimEvent",
    "diff_artifacts",
    "diff_runs",
    "profile_simulation",
    "snapshot_percentile",
]
