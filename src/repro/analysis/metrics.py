"""Derived metrics over counter windows.

All functions take a *window* -- the dict produced by
:func:`repro.analysis.snapshot.diff` (or a full capture, which is the
window from machine boot) -- and return the quantities the paper reports.
Windows are plain data, so these metrics apply equally to a live capture
and to the ``startup``/``steady``/``total`` windows of a stored
:class:`~repro.analysis.artifact.RunArtifact`.

Every input is a named probe of the window's ``probes`` tree (or the
window's ``cycles``/``retired``/``service_cycles`` totals), so each
exhibit cell traces back to the probes it divides, and a sampled run's
extrapolated estimates (:func:`repro.core.engine.extrapolate`) cover
every one of them.
"""

from __future__ import annotations

from repro.core.stats import CLASS_NAMES, ITYPE_NAMES, MODE_NAMES, service_class
from repro.isa.types import InstrType, Mode
from repro.memory.classify import MissCause
from repro.os_model.syscalls import SYSCALL_CATALOG

#: The user/kernel accessor kinds of the miss tables, as probe-name
#: segments (index = :class:`~repro.memory.classify.ModeKind`).
_KINDS = ("user", "kernel")

# -- utilization -----------------------------------------------------------


def ipc(window: dict) -> float:
    """Retired instructions per cycle."""
    return window["retired"] / window["cycles"] if window["cycles"] else 0.0


def squash_fraction(window: dict) -> float:
    """Squashed instructions as a fraction of instructions fetched."""
    probes = window["probes"]
    fetched = probes["core.fetched"]
    return probes["core.squashed"] / fetched if fetched else 0.0


def _per_cycle(window: dict, probe: str) -> float:
    cycles = window["cycles"]
    return window["probes"][probe] / cycles if cycles else 0.0


def avg_fetchable_contexts(window: dict) -> float:
    return _per_cycle(window, "core.fetchable_context_sum")


def zero_fetch_share(window: dict) -> float:
    return _per_cycle(window, "core.zero_fetch_cycles")


def zero_issue_share(window: dict) -> float:
    return _per_cycle(window, "core.zero_issue_cycles")


def max_issue_share(window: dict) -> float:
    return _per_cycle(window, "core.max_issue_cycles")


def avg_outstanding_misses(window: dict, level: str) -> float:
    """Time-averaged outstanding misses for 'L1I' / 'L1D' / 'L2'."""
    return _per_cycle(window, f"mem.mshr.{level.lower()}.occupancy_cycles")


# -- memory structures ----------------------------------------------------------

#: Probe prefix of each structure the miss tables report.
_STRUCTURES = {"L1I": "mem.l1i", "L1D": "mem.l1d", "L2": "mem.l2",
               "ITLB": "mem.itlb", "DTLB": "mem.dtlb", "BTB": "branch.btb"}


def _kinds(kind: int | None) -> tuple[str, ...]:
    """Both accessor kinds, or the one *kind* names."""
    return _KINDS if kind is None else (_KINDS[kind],)


def _count(window: dict, name: str, counter: str,
           kind: int | None = None) -> int:
    """One structure's *counter* probes, summed over the accessor kinds
    (or for one *kind*)."""
    probes = window["probes"]
    prefix = _STRUCTURES[name]
    return sum(probes[f"{prefix}.{counter}.{k}"] for k in _kinds(kind))


def miss_rate(window: dict, name: str, kind: int | None = None) -> float:
    """Miss rate of a structure, overall or for one accessor kind.

    BTB target mispredictions on hits count as BTB misses."""
    acc = _count(window, name, "accesses", kind)
    mis = _count(window, name, "miss", kind)
    if name == "BTB":
        mis += _count(window, name, "target_mispredict", kind)
    return mis / acc if acc else 0.0


def itlb_miss_per_instruction(window: dict, kind: int | None = None) -> float:
    """ITLB misses per retired instruction (the comparable denominator --
    the simulator only probes the ITLB on PC page changes)."""
    misses = _count(window, "ITLB", "miss", kind)
    return misses / window["retired"] if window["retired"] else 0.0


def cause_distribution(window: dict, name: str) -> dict[tuple[int, int], float]:
    """(accessor kind, cause) -> share of all misses (the lower halves of
    the paper's Tables 3 and 7; sums to 1)."""
    total = _count(window, name, "miss")
    if not total:
        return {}
    probes = window["probes"]
    prefix = _STRUCTURES[name]
    return {(k, int(cause)):
            probes[f"{prefix}.miss.{cause.name.lower()}.{kind}"] / total
            for k, kind in enumerate(_KINDS) for cause in MissCause}


def avoided_distribution(window: dict, name: str) -> dict[tuple[int, int], float]:
    """(misser kind, prefetcher kind) -> avoided misses as a share of all
    actual misses (the paper's Table 8)."""
    total = _count(window, name, "miss")
    if not total:
        return {}
    probes = window["probes"]
    prefix = _STRUCTURES[name]
    return {(k, f): probes[f"{prefix}.avoided.{kind}_fill_{filler}"] / total
            for k, kind in enumerate(_KINDS)
            for f, filler in enumerate(_KINDS)}


# -- branches -------------------------------------------------------------------


def cond_mispredict_rate(window: dict, kind: int | None = None) -> float:
    probes = window["probes"]
    kinds = _kinds(kind)
    preds = sum(probes[f"branch.cond.predictions.{k}"] for k in kinds)
    bad = sum(probes[f"branch.cond.mispredicts.{k}"] for k in kinds)
    return bad / preds if preds else 0.0


# -- time attribution --------------------------------------------------------------


def class_cycles(window: dict) -> list[int]:
    """Context-cycles per mode class (user/kernel/pal/idle): the
    per-service cycles folded by :func:`~repro.core.stats.service_class`."""
    out = [0, 0, 0, 0]
    for service, cycles in window["service_cycles"].items():
        out[service_class(service)] += cycles
    return out


def class_shares(window: dict) -> dict[str, float]:
    """user/kernel/pal/idle shares of context-cycles."""
    classes = class_cycles(window)
    total = sum(classes)
    if not total:
        return {n: 0.0 for n in CLASS_NAMES}
    return {n: classes[i] / total for i, n in enumerate(CLASS_NAMES)}


def os_cycle_share(window: dict) -> float:
    """The OS (kernel + PAL) share of context-cycles -- the quantity behind
    Figures 1 and 5 and the paper's '% of cycles in the OS' claims."""
    shares = class_shares(window)
    return shares["kernel"] + shares["pal"]


def service_shares(window: dict) -> dict[str, float]:
    """Every attribution label's share of context-cycles."""
    total = sum(window["service_cycles"].values())
    if not total:
        return {}
    return {k: v / total for k, v in window["service_cycles"].items()}


#: Kernel-activity grouping used for the paper's Figures 2 and 6.
KERNEL_CATEGORIES = {
    "tlb handling": ("tlb:refill", "pal:dtlb", "pal:itlb"),
    "memory management": ("vm:",),
    "system calls": ("syscall:", "pal:callsys"),
    "interrupts": ("intr:", "pal:intr"),
    "netisr": ("netisr",),
    "scheduler": ("sched", "pal:swpctx"),
    "synchronization": ("spinlock",),
    "other pal": ("pal:rti", "pal:setipl", "pal"),
}


def kernel_category_shares(window: dict) -> dict[str, float]:
    """Kernel-time categories as shares of *all* context-cycles (Figure 2/6
    style: the bars are percentages of total execution cycles)."""
    shares = service_shares(window)
    out = {cat: 0.0 for cat in KERNEL_CATEGORIES}
    for service, share in shares.items():
        if service in ("user", "idle"):
            continue
        for cat, prefixes in KERNEL_CATEGORIES.items():
            if any(service == p or service.startswith(p) for p in prefixes):
                out[cat] += share
                break
        else:
            out.setdefault("other", 0.0)
            out["other"] += share
    return out


def syscall_cycle_shares(window: dict) -> dict[str, float]:
    """Per-syscall share of all context-cycles, by display name (Figure 7
    left).  The kernel preamble is reported as its own entry."""
    shares = service_shares(window)
    out: dict[str, float] = {}
    for service, share in sorted(shares.items()):
        if not service.startswith("syscall:"):
            continue
        name = service.split(":", 1)[1]
        if name == "preamble":
            out["kernel preamble"] = out.get("kernel preamble", 0.0) + share
            continue
        spec = SYSCALL_CATALOG.get(name)
        display = spec.display_name if spec is not None else name
        out[display] = out.get(display, 0.0) + share
    return out


def syscall_category_shares(window: dict) -> dict[str, float]:
    """Per-resource-category share of all context-cycles (Figure 7 right)."""
    shares = service_shares(window)
    out: dict[str, float] = {}
    for service, share in sorted(shares.items()):
        if not service.startswith("syscall:"):
            continue
        name = service.split(":", 1)[1]
        if name == "preamble":
            out["kernel preamble"] = out.get("kernel preamble", 0.0) + share
            continue
        spec = SYSCALL_CATALOG.get(name)
        cat = spec.category.value if spec is not None else "other"
        out[cat] = out.get(cat, 0.0) + share
    return out


# -- instruction mix ----------------------------------------------------------------


def instruction_mix(window: dict, mode: Mode | None = None) -> dict[str, float]:
    """The paper's Table 2/5 rows for one mode (or overall when None).

    Returns percentages: load, store, branch (plus branch-subtype shares of
    all branches), remaining integer, floating point, and the parenthetical
    qualifiers: physical-address share of memory ops and conditional-taken
    share.
    """
    # The paper's mix tables fold PAL code into the kernel column (PAL
    # call/return appears among the kernel's branch subtypes).
    if mode is None:
        modes = MODE_NAMES
    elif mode is Mode.KERNEL:
        modes = (MODE_NAMES[Mode.KERNEL], MODE_NAMES[Mode.PAL])
    else:
        modes = (MODE_NAMES[mode],)
    probes = window["probes"]
    counts = {itype: sum(probes.get(f"core.mix.{m}.{ITYPE_NAMES[itype]}", 0)
                         for m in modes)
              for itype in InstrType}
    total = sum(counts.values())
    if not total:
        return {}

    def share(*itypes: InstrType) -> float:
        return sum(counts[t] for t in itypes) / total

    branches = (
        InstrType.COND_BRANCH, InstrType.UNCOND_BRANCH, InstrType.INDIRECT_JUMP,
        InstrType.CALL, InstrType.RETURN, InstrType.PAL_CALL, InstrType.PAL_RETURN,
    )
    branch_total = sum(counts[t] for t in branches)

    def branch_share(*itypes: InstrType) -> float:
        if not branch_total:
            return 0.0
        return sum(counts[t] for t in itypes) / branch_total

    mem = counts[InstrType.LOAD] + counts[InstrType.STORE] + counts[InstrType.SYNC]
    phys = sum(probes[f"core.phys_mem.{m}"] for m in modes)
    cond = counts[InstrType.COND_BRANCH]
    taken = sum(probes[f"core.cond_taken.{m}"] for m in modes)

    return {
        "load": share(InstrType.LOAD) * 100,
        "store": share(InstrType.STORE, InstrType.SYNC) * 100,
        "branch": share(*branches) * 100,
        "conditional": branch_share(InstrType.COND_BRANCH) * 100,
        "unconditional": branch_share(InstrType.UNCOND_BRANCH, InstrType.CALL) * 100,
        "indirect": branch_share(InstrType.INDIRECT_JUMP, InstrType.RETURN) * 100,
        "pal_call_return": branch_share(InstrType.PAL_CALL, InstrType.PAL_RETURN) * 100,
        "remaining_integer": share(InstrType.INT_ALU) * 100,
        "floating_point": share(InstrType.FP_ALU) * 100,
        "phys_mem_pct": (phys / mem * 100) if mem else 0.0,
        "cond_taken_pct": (taken / cond * 100) if cond else 0.0,
    }


# -- convenience groups ------------------------------------------------------------


def table4_metrics(window: dict, n_contexts: int) -> dict[str, float]:
    """The metric rows of the paper's Tables 4 and 6 for one run window."""
    return {
        "ipc": ipc(window),
        "avg_fetchable_contexts": avg_fetchable_contexts(window),
        "branch_mispredict_pct": cond_mispredict_rate(window) * 100,
        "squashed_pct": squash_fraction(window) * 100,
        "l1i_miss_pct": miss_rate(window, "L1I") * 100,
        "l1d_miss_pct": miss_rate(window, "L1D") * 100,
        "l2_miss_pct": miss_rate(window, "L2") * 100,
        "itlb_miss_pct": itlb_miss_per_instruction(window) * 100,
        "dtlb_miss_pct": miss_rate(window, "DTLB") * 100,
        "btb_miss_pct": miss_rate(window, "BTB") * 100,
        "zero_fetch_pct": zero_fetch_share(window) * 100,
        "zero_issue_pct": zero_issue_share(window) * 100,
        "max_issue_pct": max_issue_share(window) * 100,
        "outstanding_l1i": avg_outstanding_misses(window, "L1I"),
        "outstanding_l1d": avg_outstanding_misses(window, "L1D"),
        "outstanding_l2": avg_outstanding_misses(window, "L2"),
    }
