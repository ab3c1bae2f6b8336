"""Counter snapshots and window differencing.

``capture`` flattens every monotonically-increasing counter of a live
simulation into a nested dict of plain numbers; ``diff`` subtracts two
captures to yield the counters of the *window* between them.  All derived
metrics (rates, shares, averages) are computed from windows, which is how
the paper's start-up vs steady-state columns are produced from one run.
"""

from __future__ import annotations

from repro.core.simulator import Simulation


def _miss_stats(stats) -> dict:
    return {
        "accesses": list(stats.accesses),
        "misses": list(stats.misses),
        "causes": {f"{int(kind)}:{int(cause)}": v for (kind, cause), v in stats.causes.items()},
        "avoided": {f"{int(kind)}:{int(filler)}": v for (kind, filler), v in stats.avoided.items()},
    }


def capture(sim: Simulation) -> dict:
    """Snapshot every counter of *sim* into plain data."""
    stats = sim.stats
    hierarchy = sim.hierarchy
    unit = sim.processor.branch_unit
    os_ = sim.os
    now = sim._now
    snap = {
        "now": now,
        "cycles": stats.cycles,
        "retired": stats.retired,
        "fetched": stats.fetched,
        "squashed": stats.squashed,
        "zero_fetch_cycles": stats.zero_fetch_cycles,
        "zero_issue_cycles": stats.zero_issue_cycles,
        "max_issue_cycles": stats.max_issue_cycles,
        "fetchable_context_sum": stats.fetchable_context_sum,
        # Folds of the call-path account below (sorted by service).
        "class_cycles": stats.class_cycles,
        "service_cycles": stats.service_cycles,
        "retired_by_mode": list(stats.retired_by_mode),
        "itype_by_mode": {
            f"{int(mode)}:{int(itype)}": v for (mode, itype), v in stats.itype_by_mode.items()
        },
        "mem_by_mode": list(stats.mem_by_mode),
        "phys_mem_by_mode": list(stats.phys_mem_by_mode),
        "cond_by_mode": list(stats.cond_by_mode),
        "cond_taken_by_mode": list(stats.cond_taken_by_mode),
        "retired_by_service": dict(stats.retired_by_service),
        "caches": {
            name: _miss_stats(cache.stats)
            for name, cache in (
                ("L1I", hierarchy.l1i), ("L1D", hierarchy.l1d), ("L2", hierarchy.l2))
        },
        "tlbs": {
            name: _miss_stats(tlb.stats)
            for name, tlb in (("ITLB", hierarchy.itlb), ("DTLB", hierarchy.dtlb))
        },
        "btb": _miss_stats(unit.btb.stats),
        "btb_target_mispredicts": list(unit.btb.target_mispredicts),
        "cond_predictions": list(unit.cond_predictions),
        "cond_mispredicts": list(unit.cond_mispredicts),
        "mshr_integrals": {
            "L1I": hierarchy.l1i_mshr.integral_at(now),
            "L1D": hierarchy.l1d_mshr.integral_at(now),
            "L2": hierarchy.l2_mshr.integral_at(now),
        },
        "syscall_counts": dict(os_.syscall_counts),
        "vm_incursions": dict(os_.vm.incursions),
        "os_counters": dict(os_.counters),
        "sched": {
            "switches": os_.scheduler.switches,
            "asn_recycles": os_.scheduler.asn_recycles,
        },
        "lock_contentions": dict(os_.locks.contentions),
        "lock_acquisitions": dict(os_.locks.acquisitions),
        "icache_flushes": hierarchy.l1i.flushes,
        "bus": {
            "l1l2_transactions": hierarchy.l1l2_bus.transactions,
            "l1l2_wait": hierarchy.l1l2_bus.total_wait,
            "mem_transactions": hierarchy.mem_bus.transactions,
            "mem_wait": hierarchy.mem_bus.total_wait,
        },
        # The full hierarchical probe tree (mem.* / branch.* / os.* /
        # core.*), flattened and sorted: every window of a stored artifact
        # carries full counter detail (see `repro counters`).
        "probes": sim.obs.snapshot(),
        # Call-path cycle attribution (schema v6): context-cycles per
        # ";"-joined span chain; ``diff`` windows it like any counter dict
        # and repro.obs.flame folds it into flamegraph output.
        "attribution": sim.attrib.snapshot(),
    }
    return snap


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
