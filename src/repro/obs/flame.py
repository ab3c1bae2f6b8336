"""Simulated-cycle flamegraphs: folding and diffing call-path attribution.

Every counter window carries an ``attribution`` section mapping each
``;``-joined call path (the chain of open kernel-service spans with the
charged service as the leaf -- see
:class:`repro.core.stats.Attribution`) to the context-cycles charged to
it.  This module renders that table as folded-stack output (the
``stack;frames count`` format flamegraph.pl and speedscope import
directly), folds it by leaf (:func:`~repro.core.stats.leaf_totals`, the
same fold that yields the flat per-service cycle counters), and diffs
two runs' call-path trees through the same noise-band machinery as probe
diffs -- so "the kernel got slower" decomposes into ranked paths like
``syscall:read;tlb:refill;pal:dtlb``.

``repro flame <run>`` and ``repro diff --flame`` are the CLI entry
points; both resolve runs through the normal memo/store layers.
"""

from __future__ import annotations

from repro.core.stats import leaf_totals  # noqa: F401  (re-exported fold)
from repro.obs.diff import compile_grep


def flame_paths(window: dict) -> dict[str, float]:
    """The attribution table of one counter window.

    A window that spans no cycles (the startup window of a run without
    warm-up) charges no paths, so its table is empty; so is a window
    without an ``attribution`` section.
    """
    paths = window.get("attribution")
    return dict(paths) if isinstance(paths, dict) else {}


def fold(paths: dict[str, float], grep: str | None = None) -> str:
    """Render ``{path: cycles}`` as folded-stack lines.

    One line per path -- ``frame;frame;... count`` -- sorted by path so
    equal tables fold byte-identically.  Counts are rounded to integers
    and non-positive entries dropped (flamegraph.pl requires positive
    integer sample counts).  *grep* is the CLI's shared regex filter
    (:func:`repro.obs.diff.compile_grep`), matched against the whole
    ``;``-joined path.
    """
    pattern = compile_grep(grep)
    lines = []
    for path in sorted(paths):
        if pattern is not None and not pattern.search(path):
            continue
        count = int(round(paths[path]))
        if count > 0:
            lines.append(f"{path} {count}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_table(paths: dict[str, float], top: int = 30,
                 grep: str | None = None) -> str:
    """Human-readable call-path table: cycles, share, path (widest first)."""
    pattern = compile_grep(grep)
    rows = [(cycles, path) for path, cycles in paths.items()
            if pattern is None or pattern.search(path)]
    total = sum(c for c, _ in rows)
    rows.sort(key=lambda r: (-r[0], r[1]))
    shown = rows[:top]
    lines = [f"  {'cycles':>14s} {'share':>7s}  path"]
    for cycles, path in shown:
        share = cycles / total if total else 0.0
        lines.append(f"  {int(round(cycles)):>14,d} {share * 100:>6.2f}%  {path}")
    summary = f"{len(rows)} path(s), {int(round(total)):,} context-cycles"
    if len(rows) > len(shown):
        summary += f"; showing top {len(shown)}"
    lines.append(summary)
    return "\n".join(lines)


# -- diffing call-path trees --------------------------------------------------


def flame_flat(art, window: str = "steady",
               per_kilo: bool = False) -> dict[str, float]:
    """One artifact's call-path table, optionally per-1,000-retired
    normalized: the flame view of :func:`repro.obs.diff.diff_seeds`,
    whose deltas are then named by whole ``;``-joined paths."""
    counters = art.window(window)
    flat = flame_paths(counters)
    retired = counters.get("retired", 0)
    if per_kilo and retired:
        scale = 1000.0 / retired
        flat = {path: value * scale for path, value in flat.items()}
    return flat
