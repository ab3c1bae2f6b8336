"""Counter snapshots and window differencing.

``capture`` flattens every monotonically-increasing counter of a live
simulation into a nested dict of plain numbers; ``diff`` subtracts two
captures to yield the counters of the *window* between them.  All derived
metrics (rates, shares, averages) are computed from windows, which is how
the paper's start-up vs steady-state columns are produced from one run.

A window holds five keys: ``cycles``, ``retired``, ``service_cycles``,
``attribution`` and ``probes``.  Everything else -- cache and TLB miss
causes, the instruction mix, the mode-class cycle split -- is a probe
or a fold of one (:mod:`repro.analysis.metrics`).
"""

from __future__ import annotations

from repro.core.simulator import Simulation


def capture(sim: Simulation) -> dict:
    """Snapshot every counter of *sim* into plain data.

    The probe tree is the window's one counter record: every exhibit
    reads its inputs from it by name.  Beside it sit the two machine
    totals, the per-service cycle fold that run checks reconcile against
    the call-path account, and that account itself.
    """
    stats = sim.stats
    return {
        "cycles": stats.cycles,
        "retired": stats.retired,
        "service_cycles": stats.service_cycles,
        # The full hierarchical probe tree (mem.* / branch.* / os.* /
        # core.*), flattened and sorted: every window of a stored artifact
        # carries full counter detail (see `repro counters`).
        "probes": sim.obs.snapshot(),
        # Call-path cycle attribution (schema v6): context-cycles per
        # ";"-joined span chain; ``diff`` windows it like any counter dict
        # and repro.obs.flame folds it into flamegraph output.
        "attribution": sim.attrib.snapshot(),
    }


def merge_windows(windows: list[dict]) -> dict:
    """Sum a list of counter windows into one combined window.

    The sampled tier's steady window is the union of its detailed
    measurement legs: every counter adds, histogram ``bounds`` metadata
    is carried from the first window that has it.  Keys missing from
    some windows contribute zero.
    """
    if not windows:
        return {}
    out: dict = {}
    for window in windows:
        _merge_into(out, window)
    return out


def _merge_into(out: dict, window: dict) -> None:
    for key, value in window.items():
        if key == "bounds" and isinstance(value, list):
            out.setdefault(key, list(value))
        elif isinstance(value, dict):
            _merge_into(out.setdefault(key, {}), value)
        elif isinstance(value, list):
            prev = out.get(key)
            if isinstance(prev, list) and len(prev) == len(value):
                out[key] = [p + v for p, v in zip(prev, value)]
            else:
                out[key] = list(value)
        elif isinstance(value, (int, float)):
            prev = out.get(key)
            out[key] = (prev if isinstance(prev, (int, float)) else 0) + value
        else:  # pragma: no cover - no other types are captured
            out.setdefault(key, value)
    return


def diff(after: dict, before: dict) -> dict:
    """Recursively subtract *before* from *after* (window extraction).

    Keys present only in *after* are kept as-is (counters that first
    appeared inside the window); keys only in *before* are dropped.
    """
    out: dict = {}
    for key, a_val in after.items():
        b_val = before.get(key)
        if key == "bounds" and isinstance(a_val, list):
            # Histogram bucket bounds are metadata, not a counter: carry
            # them through so windows stay self-describing (percentiles
            # are computed from windows, see repro.obs.registry).
            out[key] = list(a_val)
        elif isinstance(a_val, dict):
            out[key] = diff(a_val, b_val if isinstance(b_val, dict) else {})
        elif isinstance(a_val, list):
            if isinstance(b_val, list) and len(b_val) == len(a_val):
                out[key] = [a - b for a, b in zip(a_val, b_val)]
            else:
                out[key] = list(a_val)
        elif isinstance(a_val, (int, float)):
            out[key] = a_val - (b_val if isinstance(b_val, (int, float)) else 0)
        else:  # pragma: no cover - no other types are captured
            out[key] = a_val
    return out
