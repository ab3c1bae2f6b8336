"""Builders for the paper's Figures 1-7 (text renderings + data).

Each builder takes the plain-data :class:`~repro.analysis.artifact.RunArtifact`
objects it needs -- the probe timeline, phase marks, and counter windows
all travel inside the artifact, so a stored run renders identically to a
live one.  Rows that tie on share keep the service-key order a stored
window has, whatever order a live window was filled in.
"""

from __future__ import annotations

from repro.analysis import metrics as M
from repro.analysis.artifact import RunArtifact
from repro.analysis.render import format_bars, format_timeline
from repro.core.stats import CLASS_NAMES
from repro.obs.timeline import class_share_series


#: Tie-break rank for Figures 2 and 6: the KERNEL_CATEGORIES order, with
#: any other category (``other``) after them.
_CATEGORY_RANK = {cat: rank for rank, cat in enumerate(M.KERNEL_CATEGORIES)}


def _by_share(share: dict[str, float], names: list[str]) -> list[str]:
    """*names* by descending *share*.  Equal shares keep the
    KERNEL_CATEGORIES order and then sort by name, so the row order never
    depends on set iteration order (``PYTHONHASHSEED``)."""
    last = len(_CATEGORY_RANK)
    return sorted(names, key=lambda c: (-share.get(c, 0),
                                        _CATEGORY_RANK.get(c, last), c))


def fig1(specint_smt: RunArtifact) -> dict:
    """SPECInt execution-cycle breakdown over time (Figure 1)."""
    samples = class_share_series(specint_smt.probe_timeline)
    boundary = specint_smt.steady_boundary
    startup_kernel = M.os_cycle_share(specint_smt.startup)
    steady_kernel = M.os_cycle_share(specint_smt.steady)
    data = {
        "samples": samples,
        "boundary": boundary,
        "startup_os_share": startup_kernel,
        "steady_os_share": steady_kernel,
    }
    text = format_timeline(
        "Figure 1: SPECInt cycles by mode class over time (SMT)",
        samples, CLASS_NAMES, boundary=boundary,
        note=(f"OS (kernel+PAL) share: start-up {startup_kernel * 100:.1f}%, "
              f"steady state {steady_kernel * 100:.1f}% "
              "(paper: ~18% falling to ~5%)."),
    )
    return {"title": "Figure 1", "data": data, "text": text}


def fig2(specint_smt: RunArtifact) -> dict:
    """Kernel-time breakdown for SPECInt, start-up vs steady (Figure 2)."""
    startup = M.kernel_category_shares(specint_smt.startup)
    steady = M.kernel_category_shares(specint_smt.steady)
    names = sorted(set(startup) | set(steady))
    both = {c: startup.get(c, 0) + steady.get(c, 0) for c in names}
    items = []
    for cat in _by_share(both, names):
        items.append((f"start-up  {cat}", startup.get(cat, 0.0) * 100))
        items.append((f"steady    {cat}", steady.get(cat, 0.0) * 100))
    text = format_bars(
        "Figure 2: SPECInt kernel-activity breakdown (% of all cycles)",
        items,
        note=("Paper shape: start-up OS time dominated by TLB handling and "
              "file reads; steady state keeps the TLB-dominated proportions "
              "at a far lower level."),
    )
    return {"title": "Figure 2", "data": {"startup": startup, "steady": steady}, "text": text}


def _vm_incursions(window: dict) -> dict[str, int]:
    """Entries into kernel memory management by kind: the
    ``os.vm.incursion.<kind>`` probes, sorted by kind."""
    prefix = "os.vm.incursion."
    return {name[len(prefix):]: v for name, v in window["probes"].items()
            if name.startswith(prefix)}


def fig3(specint_smt: RunArtifact) -> dict:
    """Incursions into kernel memory-management code (Figure 3)."""
    def counts(window):
        inc = _vm_incursions(window)
        total = sum(inc.values()) or 1
        return {k: v / total for k, v in sorted(inc.items()) if v}

    startup = counts(specint_smt.startup)
    steady = counts(specint_smt.steady)
    items = [(f"start-up  {k}", v * 100) for k, v in sorted(startup.items(), key=lambda x: -x[1])]
    items += [(f"steady    {k}", v * 100) for k, v in sorted(steady.items(), key=lambda x: -x[1])]
    text = format_bars(
        "Figure 3: Kernel memory-management incursions by type (% of entries)",
        items,
        note="Paper: page allocation is the majority of MM entries.",
    )
    return {
        "title": "Figure 3",
        "data": {"startup": startup, "steady": steady,
                 "raw": _vm_incursions(specint_smt.total)},
        "text": text,
    }


def fig4(specint_smt: RunArtifact) -> dict:
    """System calls as a percentage of execution cycles (Figure 4)."""
    startup = M.syscall_cycle_shares(specint_smt.startup)
    steady = M.syscall_cycle_shares(specint_smt.steady)
    items = [(f"start-up  {k}", v * 100)
             for k, v in sorted(startup.items(), key=lambda x: -x[1])[:10]]
    items += [(f"steady    {k}", v * 100)
              for k, v in sorted(steady.items(), key=lambda x: -x[1])[:6]]
    text = format_bars(
        "Figure 4: SPECInt system calls (% of all execution cycles)",
        items,
        note=("Paper: file reads dominate start-up syscall time (~3.5% of "
              "cycles); steady-state syscall time is small."),
    )
    return {"title": "Figure 4", "data": {"startup": startup, "steady": steady}, "text": text}


def fig5(apache_smt: RunArtifact) -> dict:
    """Apache kernel/user cycles over time (Figure 5)."""
    samples = class_share_series(apache_smt.probe_timeline)
    shares = M.class_shares(apache_smt.steady)
    kernel_share = shares["kernel"] + shares["pal"]
    text = format_timeline(
        "Figure 5: Apache cycles by mode class over time (SMT)",
        samples, CLASS_NAMES,
        note=(f"Steady-state OS share {kernel_share * 100:.1f}% of cycles "
              "(paper: >75%); essentially no start-up phase."),
    )
    return {
        "title": "Figure 5",
        "data": {"samples": samples, "kernel_share": kernel_share, "shares": shares},
        "text": text,
    }


def fig6(apache_smt: RunArtifact, specint_smt: RunArtifact) -> dict:
    """Apache kernel-activity breakdown vs SPECInt (Figure 6)."""
    apache = M.kernel_category_shares(apache_smt.steady)
    spec_start = M.kernel_category_shares(specint_smt.startup)
    spec_steady = M.kernel_category_shares(specint_smt.steady)
    items = []
    for cat in _by_share(apache, sorted(set(apache) | set(spec_start))):
        items.append((f"Apache       {cat}", apache.get(cat, 0.0) * 100))
        items.append((f"SPEC startup {cat}", spec_start.get(cat, 0.0) * 100))
        items.append((f"SPEC steady  {cat}", spec_steady.get(cat, 0.0) * 100))
    kernel_total = sum(apache.values()) or 1
    syscall_frac = apache.get("system calls", 0) / kernel_total
    netintr_frac = (apache.get("netisr", 0) + apache.get("interrupts", 0)) / kernel_total
    tlb_frac = (apache.get("tlb handling", 0) + apache.get("memory management", 0)) / kernel_total
    text = format_bars(
        "Figure 6: Kernel-activity breakdown, Apache vs SPECInt "
        "(% of all cycles)",
        items,
        note=(f"Of Apache kernel time: syscalls {syscall_frac * 100:.0f}% "
              f"(paper 57%), interrupts+netisr {netintr_frac * 100:.0f}% "
              f"(paper 34%), TLB+VM {tlb_frac * 100:.0f}% (paper ~13%)."),
    )
    return {
        "title": "Figure 6",
        "data": {"apache": apache, "spec_startup": spec_start,
                 "spec_steady": spec_steady,
                 "apache_kernel_fracs": {
                     "syscalls": syscall_frac,
                     "interrupts+netisr": netintr_frac,
                     "tlb+vm": tlb_frac,
                 }},
        "text": text,
    }


def fig7(apache_smt: RunArtifact) -> dict:
    """Apache system calls by name and by resource category (Figure 7)."""
    by_name = M.syscall_cycle_shares(apache_smt.steady)
    by_cat = M.syscall_category_shares(apache_smt.steady)
    items = [(f"{k}", v * 100) for k, v in sorted(by_name.items(), key=lambda x: -x[1])]
    text_left = format_bars(
        "Figure 7 (left): Apache system calls by name (% of all cycles)",
        items,
        note="Paper: stat ~10%, read/write/writev ~19%, open/close ~10%.",
    )
    items_cat = [(k, v * 100) for k, v in sorted(by_cat.items(), key=lambda x: -x[1])]
    text_right = format_bars(
        "Figure 7 (right): Apache system calls by activity (% of all cycles)",
        items_cat,
        note=("Paper: network read/write largest (~17% of cycles); network "
              "and file services roughly balanced overall."),
    )
    return {
        "title": "Figure 7",
        "data": {"by_name": by_name, "by_category": by_cat},
        "text": text_left + "\n\n" + text_right,
    }
