"""Simulated-cycle flamegraphs: folding and diffing call-path attribution.

Schema-v6 counter windows carry an ``attribution`` section mapping each
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
from repro.obs.diff import (
    DiffReport,
    compile_grep,
    diff_flat,
    flat_mean_and_band,
    seed_specs,
)


def flame_paths(window: dict) -> dict[str, float]:
    """The attribution table of one counter window.

    Pre-v6 windows (no ``attribution`` section) yield an empty table
    rather than failing, so tooling degrades gracefully on old stores.
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


# -- seed fan-out statistics --------------------------------------------------


def _flat_attribution(window: dict, per_kilo: bool = False) -> dict[str, float]:
    """One window's path table, optionally per-1,000-retired normalized."""
    flat = flame_paths(window)
    if per_kilo:
        retired = window.get("retired", 0)
        if retired:
            scale = 1000.0 / retired
            flat = {path: value * scale for path, value in flat.items()}
    return flat


def attribution_mean_and_band(
    windows: list[dict], per_kilo: bool = False,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-path mean and 2-sigma half-width across seed repeats (the
    flame analogue of :func:`repro.obs.diff.mean_and_band`)."""
    return flat_mean_and_band(
        [_flat_attribution(w, per_kilo) for w in windows])


# -- diffing call-path trees --------------------------------------------------


def diff_flame_artifacts(
    art_a, art_b, window: str = "steady", grep: str | None = None,
    per_kilo: bool = False,
) -> DiffReport:
    """Diff the call-path tables of two resolved artifacts (no noise
    model); each delta's ``name`` is a whole ``;``-joined path."""
    flat_a = _flat_attribution(art_a.window(window), per_kilo)
    flat_b = _flat_attribution(art_b.window(window), per_kilo)
    return DiffReport(
        a_label=art_a.label, b_label=art_b.label,
        a_fingerprint=art_a.fingerprint, b_fingerprint=art_b.fingerprint,
        window=window, grep=grep, per_kilo=per_kilo,
        deltas=diff_flat(flat_a, flat_b, grep=grep))


def diff_flame_runs(
    spec_a: dict,
    spec_b: dict,
    window: str = "steady",
    grep: str | None = None,
    seeds: int = 1,
    per_kilo: bool = False,
    max_workers: int | None = None,
) -> DiffReport:
    """Diff two run specs' call-path trees with seed-repeat noise bands.

    The flame twin of :func:`repro.obs.diff.diff_runs`: each side runs
    under ``seeds`` consecutive seeds (parallel fan-out, store-warm on
    repeat), sides compare mean-vs-mean per path, and deltas inside the
    combined 2-sigma band are marked insignificant -- so a ranked
    top-movers listing attributes a cycle delta to call paths that move
    beyond seed noise.
    """
    from repro.analysis import experiments
    from repro.analysis.artifact import run_fingerprint
    from repro.analysis.service import run_artifacts

    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    fan = seed_specs(spec_a, seeds) + seed_specs(spec_b, seeds)
    arts = run_artifacts(fan, max_workers=max_workers)
    arts_a, arts_b = arts[:seeds], arts[seeds:]
    mean_a, band_a = attribution_mean_and_band(
        [a.window(window) for a in arts_a], per_kilo=per_kilo)
    mean_b, band_b = attribution_mean_and_band(
        [b.window(window) for b in arts_b], per_kilo=per_kilo)
    bands = {name: band_a.get(name, 0.0) + band_b.get(name, 0.0)
             for name in sorted(set(band_a) | set(band_b))}

    def _identity(spec: dict) -> tuple[str, str]:
        label = "-".join((spec["workload"], spec["cpu"],
                          spec.get("os_mode", "full")))
        resolved = experiments.run_spec(
            spec["workload"], spec["cpu"], spec.get("os_mode", "full"),
            spec.get("instructions"), spec.get("seed", 11))
        return label, run_fingerprint(resolved)

    (label_a, fp_a), (label_b, fp_b) = _identity(spec_a), _identity(spec_b)
    return DiffReport(
        a_label=label_a, b_label=label_b,
        a_fingerprint=fp_a, b_fingerprint=fp_b,
        window=window, grep=grep, seeds=seeds, per_kilo=per_kilo,
        deltas=diff_flat(mean_a, mean_b, grep=grep, bands=bands))
