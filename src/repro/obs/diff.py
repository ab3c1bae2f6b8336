"""Differential observability: structural diffing of stored runs.

The paper's contribution is comparative measurement -- SMT vs.
superscalar, with and without the OS (Tables 4 and 9) -- so *differences
between runs* deserve to be first-class objects, not numbers eyeballed
across two ``repro counters`` printouts.  This module turns any two run
artifacts (or any two windows of them) into a :class:`DiffReport`:

* every probe of the flattened registry tree is compared -- histograms
  expand into ``.count`` / ``.sum`` / ``.mean`` / ``.p50`` / ``.p95`` /
  ``.p99`` scalars, and the pseudo-probes ``derived.ipc`` /
  ``derived.cycles`` / ``derived.retired`` are added from the window
  totals so headline metrics diff alongside raw counts;
* each comparison carries the absolute delta and the relative delta,
  with top-mover ranking by either;
* optional noise filtering: with ``seeds=N`` each side is re-run under
  ``N`` consecutive seeds (fanned out through the run engine,
  :mod:`repro.analysis.service`, so repeats execute in parallel and hit
  the store on later calls), sides compare mean-vs-mean, and a delta
  smaller than the combined confidence band (2 standard deviations per
  side) is flagged insignificant;
* ``per_kilo=True`` normalizes counts to *per 1,000 retired
  instructions* of their own side, so runs with different instruction
  budgets (e.g. the SMT and superscalar canonical budgets) compare on
  rates instead of raw volume.

``repro diff <runA> <runB>`` and ``repro counters --against <run>`` are
the CLI entry points; both resolve runs through the normal memo/store
layers, so diffing two stored artifacts never re-simulates.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import partial

from repro.obs.registry import snapshot_percentile

#: Percentile scalars expanded from every histogram probe.
_PERCENTILES = ((0.50, "p50"), (0.95, "p95"), (0.99, "p99"))

#: Flattened-probe suffixes that are averages/quantiles, not counts:
#: exempt from per-kilo normalization.
_RATE_SUFFIXES = (".mean", ".p50", ".p95", ".p99")


def flatten_window(window: dict) -> dict[str, float]:
    """One counter window as a flat ``{probe: scalar}`` dict.

    Histogram snapshots expand into count/sum/mean/percentile scalars;
    the window's own totals surface as ``derived.*`` pseudo-probes.
    """
    flat: dict[str, float] = {}
    for name, value in window.get("probes", {}).items():
        if isinstance(value, dict):  # histogram snapshot
            count = value.get("count", 0)
            flat[f"{name}.count"] = count
            flat[f"{name}.sum"] = value.get("sum", 0)
            if count:
                flat[f"{name}.mean"] = value.get("sum", 0) / count
                for q, tag in _PERCENTILES:
                    flat[f"{name}.{tag}"] = snapshot_percentile(value, q)
        else:
            flat[name] = value
    cycles = window.get("cycles", 0)
    retired = window.get("retired", 0)
    flat["derived.cycles"] = cycles
    flat["derived.retired"] = retired
    if cycles:
        flat["derived.ipc"] = retired / cycles
    return flat


def compile_grep(pattern: str | None):
    """Compile a ``--grep`` pattern, or None when no filtering is wanted.

    The pattern is a Python regex matched with *unanchored*
    :func:`re.search` -- the semantics shared by every ``--grep`` in the
    CLI (``counters``, ``diff``, ``flame``).  A plain prefix like
    ``mem.l2`` therefore still matches everything it used to (the dot
    matches itself among other characters); anchor explicitly with
    ``^``/``$`` to pin the match to a name boundary.  A malformed regex
    raises ``ValueError`` with the original ``re.error`` message.
    """
    if not pattern:
        return None
    try:
        return re.compile(pattern)
    except re.error as exc:
        raise ValueError(f"bad --grep pattern {pattern!r}: {exc}") from exc


def _is_rate(name: str) -> bool:
    return name.startswith("derived.ipc") or name.endswith(_RATE_SUFFIXES)


def _per_kilo(flat: dict[str, float]) -> dict[str, float]:
    """Scale count probes to per-1,000-retired-instructions of this side."""
    retired = flat.get("derived.retired", 0)
    if not retired:
        return dict(flat)
    scale = 1000.0 / retired
    return {name: value if _is_rate(name) else value * scale
            for name, value in flat.items()}


@dataclass(frozen=True)
class ProbeDelta:
    """One probe compared across two runs (``delta = b - a``)."""

    name: str
    a: float
    b: float
    delta: float
    rel: float | None  # delta / a; None when the probe appeared (a == 0)
    band: float = 0.0  # noise half-width from seed repeats (0 = unknown)
    significant: bool = True

    def to_json_dict(self) -> dict:
        return {"name": self.name, "a": self.a, "b": self.b,
                "delta": self.delta, "rel": self.rel, "band": self.band,
                "significant": self.significant}


def diff_flat(
    flat_a: dict[str, float],
    flat_b: dict[str, float],
    grep: str | None = None,
    bands: dict[str, float] | None = None,
) -> list[ProbeDelta]:
    """Compare two flattened windows probe by probe, sorted by name.

    Probes present on only one side compare against 0 (they appeared or
    vanished); probes that are 0 on both sides are dropped.  *grep* is a
    regex filter (see :func:`compile_grep`).  With *bands* (probe name ->
    noise half-width), a delta inside the band is kept but marked
    insignificant.
    """
    bands = bands or {}
    pattern = compile_grep(grep)
    out = []
    for name in sorted(set(flat_a) | set(flat_b)):
        if pattern is not None and not pattern.search(name):
            continue
        a = flat_a.get(name, 0)
        b = flat_b.get(name, 0)
        if a == 0 and b == 0:
            continue
        delta = b - a
        band = bands.get(name, 0.0)
        out.append(ProbeDelta(
            name=name, a=a, b=b, delta=delta,
            rel=(delta / a) if a else None, band=band,
            significant=abs(delta) > band))
    return out


def _mover_key(kind: str):
    if kind == "abs":
        return lambda d: (abs(d.delta), d.name)
    if kind == "rel":
        return lambda d: (float("inf") if d.rel is None else abs(d.rel),
                          abs(d.delta), d.name)
    raise ValueError(f"unknown ranking {kind!r} (want 'abs' or 'rel')")


@dataclass
class DiffReport:
    """The structural diff of one window across two runs."""

    a_label: str
    b_label: str
    a_fingerprint: str
    b_fingerprint: str
    window: str
    deltas: list[ProbeDelta]
    seeds: int = 1
    per_kilo: bool = False
    grep: str | None = field(default=None)

    @property
    def changed(self) -> list[ProbeDelta]:
        return [d for d in self.deltas if d.delta != 0]

    @property
    def significant(self) -> list[ProbeDelta]:
        return [d for d in self.changed if d.significant]

    def delta(self, name: str) -> ProbeDelta | None:
        """The comparison for one probe, or None if it never appeared."""
        for d in self.deltas:
            if d.name == name:
                return d
        return None

    def top_movers(self, n: int = 20, key: str = "abs",
                   significant_only: bool = True) -> list[ProbeDelta]:
        """The *n* largest changes, ranked by absolute or relative delta."""
        pool = self.significant if significant_only else self.changed
        return sorted(pool, key=_mover_key(key), reverse=True)[:n]

    # -- rendering ---------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "a": {"label": self.a_label, "fingerprint": self.a_fingerprint},
            "b": {"label": self.b_label, "fingerprint": self.b_fingerprint},
            "window": self.window,
            "seeds": self.seeds,
            "per_kilo": self.per_kilo,
            "grep": self.grep,
            "deltas": [d.to_json_dict() for d in self.deltas],
        }

    def render(self, n: int = 20, key: str = "abs",
               show_all: bool = False) -> str:
        rows = (self.changed if show_all
                else self.top_movers(n, key=key))
        width = max([len(d.name) for d in rows], default=5)
        lines = [f"  {'probe':<{width}s} {'a':>14s} {'b':>14s} "
                 f"{'delta':>14s} {'rel':>9s}"]
        for d in rows:
            rel = "new" if d.rel is None else f"{d.rel * 100:+.1f}%"
            mark = " " if d.significant else "~"
            lines.append(f"{mark} {d.name:<{width}s} {_num(d.a):>14s} "
                         f"{_num(d.b):>14s} {_num(d.delta):>14s} {rel:>9s}")
        changed = self.changed
        noise = len(changed) - len(self.significant)
        summary = (f"{len(changed)} probe(s) differ"
                   f" [{self.window} window] a={self.a_label} b={self.b_label}")
        if self.seeds > 1:
            summary += (f"; {noise} within the noise band of {self.seeds} "
                        "seeds (marked ~)" if show_all else
                        f"; {noise} filtered as noise ({self.seeds} seeds)")
        if self.per_kilo:
            summary += "; counts per 1,000 retired instructions"
        if not show_all and len(changed) > len(rows):
            summary += f"; showing top {len(rows)} by |{key}|"
        lines.append(summary)
        return "\n".join(lines)


def _num(x: float) -> str:
    if isinstance(x, float) and not x.is_integer():
        return f"{x:,.3f}"
    return f"{int(x):,}"


# -- noise bands from repeated-seed runs ------------------------------------


def seed_specs(spec: dict, seeds: int) -> list[dict]:
    """*seeds* copies of one run spec under consecutive seeds."""
    base = spec.get("seed", 11)
    return [dict(spec, seed=base + i) for i in range(seeds)]


def mean_and_band(
    windows: list[dict], per_kilo: bool = False,
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-probe mean and confidence half-width across repeated runs
    (see :func:`flat_mean_and_band`)."""
    return flat_mean_and_band(
        [_per_kilo(flatten_window(w)) if per_kilo else flatten_window(w)
         for w in windows])


def flat_mean_and_band(
    flats: list[dict[str, float]],
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-name mean and 2-sigma half-width across repeated flat maps.

    A name missing from a map counts as 0.  The band is twice the sample
    standard deviation; a single map yields zero bands.  Both sums are
    ``math.fsum`` (the deviations in a second pass), which rounds
    correctly on every Python version -- the built-in float ``sum``
    became compensated in 3.12, so ``sum(values) / n`` stored different
    last digits under different interpreters.
    """
    names = sorted(set().union(*flats)) if flats else []
    n = len(flats)
    mean: dict[str, float] = {}
    band: dict[str, float] = {}
    for name in names:
        values = [f.get(name, 0) for f in flats]
        mu = math.fsum(values) / n
        mean[name] = mu
        band[name] = (
            2.0 * math.sqrt(math.fsum((v - mu) ** 2 for v in values)
                            / (n - 1))
            if n > 1 else 0.0)
    return mean, band


# -- top-level entry points -------------------------------------------------


def probe_flat(art, window: str = "steady",
               per_kilo: bool = False) -> dict[str, float]:
    """One artifact's counter window as flat probe scalars: the plain
    probe view of :func:`diff_seeds`."""
    flat = flatten_window(art.window(window))
    return _per_kilo(flat) if per_kilo else flat


def diff_seeds(arts_a: list, arts_b: list, flatten, window: str = "steady",
               grep: str | None = None, per_kilo: bool = False) -> DiffReport:
    """Diff two sides, each a list of seed repeats of one run.

    *flatten* is the view: it maps one artifact to the flat
    ``{name: value}`` map compared, or to None when the artifact has
    nothing to compare (a run without a probe timeline).  Such artifacts
    are left out, and a side left with none yields an empty report.  One
    repeat per side compares the two maps as they are; more compare
    mean against mean, and a delta inside the sum of the two sides'
    2-sigma bands is marked insignificant.  Each side is labelled by its
    first repeat.
    """
    flats_a = [f for f in map(flatten, arts_a) if f is not None]
    flats_b = [f for f in map(flatten, arts_b) if f is not None]
    seeds = len(arts_a)
    if not (flats_a and flats_b):
        deltas: list[ProbeDelta] = []
    elif seeds == 1:
        deltas = diff_flat(flats_a[0], flats_b[0], grep=grep)
    else:
        mean_a, band_a = flat_mean_and_band(flats_a)
        mean_b, band_b = flat_mean_and_band(flats_b)
        bands = {name: band_a.get(name, 0.0) + band_b.get(name, 0.0)
                 for name in sorted(set(band_a) | set(band_b))}
        deltas = diff_flat(mean_a, mean_b, grep=grep, bands=bands)
    art_a, art_b = arts_a[0], arts_b[0]
    return DiffReport(
        a_label=art_a.label, b_label=art_b.label,
        a_fingerprint=art_a.fingerprint, b_fingerprint=art_b.fingerprint,
        window=window, grep=grep, seeds=seeds, per_kilo=per_kilo,
        deltas=deltas)


def seed_fanout(spec_a: dict, spec_b: dict, seeds: int,
                max_workers: int | None = None) -> tuple[list, list]:
    """Both sides' artifacts under *seeds* consecutive seeds each, for
    :func:`diff_seeds`.

    *spec_a* and *spec_b* are ``{workload, cpu, os_mode[, instructions,
    seed]}``; every run resolves through the run engine, so missing
    repeats execute in parallel and warm ones load from the store.
    """
    from repro.analysis.service import run_artifacts

    if seeds < 1:
        raise ValueError(f"seeds must be >= 1, got {seeds}")
    fan = seed_specs(spec_a, seeds) + seed_specs(spec_b, seeds)
    arts = run_artifacts(fan, max_workers=max_workers)
    return arts[:seeds], arts[seeds:]


def diff_artifacts(
    art_a, art_b, window: str = "steady", grep: str | None = None,
    per_kilo: bool = False,
) -> DiffReport:
    """Diff one window of two already-resolved artifacts (no noise model)."""
    return diff_seeds([art_a], [art_b],
                      partial(probe_flat, window=window, per_kilo=per_kilo),
                      window=window, grep=grep, per_kilo=per_kilo)


def diff_runs(
    spec_a: dict,
    spec_b: dict,
    window: str = "steady",
    grep: str | None = None,
    seeds: int = 1,
    per_kilo: bool = False,
    max_workers: int | None = None,
) -> DiffReport:
    """Diff one window of two run *specs* across *seeds* repeats each
    (see :func:`seed_fanout` and :func:`diff_seeds`)."""
    arts_a, arts_b = seed_fanout(spec_a, spec_b, seeds, max_workers)
    return diff_seeds(arts_a, arts_b,
                      partial(probe_flat, window=window, per_kilo=per_kilo),
                      window=window, grep=grep, per_kilo=per_kilo)
