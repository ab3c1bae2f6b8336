"""Interval telemetry: per-interval probe time series over simulated time.

The paper's headline numbers are whole-window *averages* (Table 4's
zero-fetch shares, the kernel/user breakdowns); this module records how
those quantities *evolve*: a :class:`ProbeTimeline`
attached to a :class:`~repro.core.simulator.Simulation` snapshots a
configurable probe subset every ``2^k`` simulated cycles -- in both
execution tiers, with samples landing on exactly the same cycle
boundaries whether an interval was simulated in detail or fast-forwarded
-- and delta-encodes the samples into a compact columnar record stored
on the run artifact (``RunArtifact.probe_timeline``, schema v7).

The record is plain data::

    {"interval": 8192, "samples": 57, "dropped": 0,
     "columns": {"core.retired": [d0, d1, ...],
                 "svc.syscall:read": [...], ...}}

Column ``columns[name][i]`` is the probe's *delta* over sample interval
``i``, which covers cycles ``(i*interval, (i+1)*interval]``.  Besides
the configured registry probes, every record carries one ``svc.<leaf>``
column of context-cycles per charged service (the leaf fold of the
call-path cycle account, :class:`repro.core.stats.Attribution`; columns
appearing mid-run are back-filled with zeros so all columns stay
equal-length).

This is the run's only time series.  On top of the record this module
derives, at read time, the mode-class share rows behind Figures 1 and 5
(:func:`class_share_series`, the ``svc.*`` columns folded by
:func:`~repro.core.stats.service_class`), headline series
(:func:`derived_series`: interval IPC, kernel-cycle share, zero-fetch /
zero-issue shares, ``mem.*`` miss rates, fast-tier share), detects phase
changes (:func:`detect_phases`: windowed mean shift on IPC and kernel
share, emitted as ``marks``-style boundaries sampled-mode window
placement can consume -- see :func:`suggest_warmup`), and diffs two
runs' timelines interval by interval through the same
:func:`~repro.obs.diff.diff_seeds` machinery as probe diffs
(:func:`timeline_view`).

``repro timeline <run>`` and ``repro diff --timeline`` are the CLI entry
points.  Every :class:`~repro.core.simulator.Simulation` builds a
default sampler (the per-cycle cost is one mask test; samples are ~30
dict reads every ``interval`` cycles).  Like the heartbeat and
watchdog, telemetry never enters the configuration fingerprint: a
caller that wants another interval or probe set assigns its own
:class:`ProbeTimeline` to ``sim.probe_timeline`` before running, and
the run keeps its store key.
"""

from __future__ import annotations

from repro.core.stats import service_class
from repro.obs.diff import DiffReport, compile_grep, diff_seeds

#: Default sampling interval in simulated cycles (power of two: the run
#: loops test ``now & mask == 0``, the same pattern as the heartbeat).
DEFAULT_TIMELINE_INTERVAL = 8192

#: Default sample cap.  Beyond it the recorded prefix is kept and later
#: intervals are counted in ``dropped`` (mirroring the event ring's
#: ``core.events.dropped``), so a runaway run cannot grow an artifact
#: without bound.  4096 samples cover 33.5M cycles at the default
#: interval -- far past every canonical budget.
DEFAULT_MAX_SAMPLES = 4096

#: Registry probes sampled by default: the inputs of the headline
#: derived series (IPC, zero-fetch/zero-issue shares, mem.* miss rates,
#: fast-tier share).  All are cheap scalar reads (counters or derived
#: attribute getters); histograms and derived families are not
#: sampleable (see :meth:`ProbeTimeline.__init__`).
DEFAULT_TIMELINE_PROBES = (
    "core.retired",
    "core.zero_fetch_cycles",
    "core.zero_issue_cycles",
    "core.mode.fast_cycles",
    "mem.l1i.accesses.user", "mem.l1i.accesses.kernel",
    "mem.l1i.miss.user", "mem.l1i.miss.kernel",
    "mem.l1d.accesses.user", "mem.l1d.accesses.kernel",
    "mem.l1d.miss.user", "mem.l1d.miss.kernel",
    "mem.l2.accesses.user", "mem.l2.accesses.kernel",
    "mem.l2.miss.user", "mem.l2.miss.kernel",
    "mem.itlb.accesses.user", "mem.itlb.accesses.kernel",
    "mem.itlb.miss.user", "mem.itlb.miss.kernel",
    "mem.dtlb.accesses.user", "mem.dtlb.accesses.kernel",
    "mem.dtlb.miss.user", "mem.dtlb.miss.kernel",
)


class ProbeTimeline:
    """Interval sampler for one running simulation.

    ``interval`` rounds up to a power of two; the run loops sample when
    ``now & mask == 0`` (detailed tier) and clip fast-forward jump
    blocks at the same boundaries, so a sample always lands at an exact
    multiple of the interval whatever mix of tiers executed it --
    :meth:`tick` verifies that alignment and raises if a loop edit ever
    breaks it.  Sampling is pure observation: no RNG draws, no timing
    effects, so the simulated trajectory is byte-identical under any
    sampler configuration.
    """

    def __init__(self, sim, interval: int = DEFAULT_TIMELINE_INTERVAL,
                 probes: tuple[str, ...] | None = None,
                 max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if interval < 1:
            raise ValueError(f"timeline interval must be >= 1, got {interval}")
        if max_samples < 1:
            raise ValueError(
                f"timeline max_samples must be >= 1, got {max_samples}")
        self.interval = 1 << max(0, (interval - 1).bit_length())
        self.mask = self.interval - 1
        self.max_samples = max_samples
        self.probes = tuple(probes if probes is not None
                            else DEFAULT_TIMELINE_PROBES)
        self._stats = sim.stats
        self._readers = []
        for name in self.probes:
            read = sim.obs.reader(name)
            if read is None:
                raise ValueError(
                    f"cannot sample probe {name!r}: not a scalar counter or "
                    "derived probe (histograms and derived families are not "
                    "timeline-sampleable)")
            self._readers.append((name, read))
        self.samples = 0
        self.dropped = 0
        self.columns: dict[str, list[int]] = {n: [] for n, _ in self._readers}
        self._prev: dict[str, int] = {name: 0 for name in self.columns}
        start = getattr(sim, "_now", 0)
        self._expect = (start // self.interval + 1) * self.interval

    def tick(self, now: int) -> None:
        """Record one sample (called by both run loops at ``2^k`` cycles)."""
        if now != self._expect:
            raise RuntimeError(
                f"probe-timeline sample at cycle {now:,} but expected "
                f"{self._expect:,}: a run loop stopped clipping at "
                "interval boundaries (fast/full alignment broken)")
        self._expect = now + self.interval
        if self.samples >= self.max_samples:
            self.dropped += 1
            return
        prev = self._prev
        columns = self.columns
        for name, read in self._readers:
            value = read()
            columns[name].append(value - prev[name])
            prev[name] = value
        for svc, value in self._stats.service_cycles.items():
            name = f"svc.{svc}"
            column = columns.get(name)
            if column is None:
                # A service first charged mid-run: back-fill the earlier
                # intervals with zeros so every column stays equal-length.
                column = columns[name] = [0] * self.samples
                prev[name] = 0
            column.append(value - prev[name])
            prev[name] = value
        self.samples += 1

    def latest(self) -> dict | None:
        """Headline values of the newest interval (for live heartbeats).

        Returns ``{"sim_ipc": ..., "kernel_share": ...}`` -- the last
        interval's simulated IPC and kernel-cycle share -- or None
        before the first sample.
        """
        if not self.samples:
            return None
        retired = self.columns["core.retired"][-1]
        class_deltas = [0, 0, 0, 0]
        for name, column in self.columns.items():
            if name.startswith("svc."):
                class_deltas[service_class(name[4:])] += column[-1]
        total = sum(class_deltas) or 1
        return {
            "sim_ipc": round(retired / self.interval, 4),
            "kernel_share": round(class_deltas[1] / total, 4),
        }

    def to_record(self) -> dict:
        """Freeze the sampled series into the artifact's plain-data form."""
        return {
            "interval": self.interval,
            "samples": self.samples,
            "dropped": self.dropped,
            "columns": {name: list(self.columns[name])
                        for name in sorted(self.columns)},
        }


# -- reading records ---------------------------------------------------------


def sample_cycles(record: dict) -> list[int]:
    """The end cycle of every sample interval: ``[I, 2I, 3I, ...]``."""
    interval = record["interval"]
    return [(i + 1) * interval for i in range(record["samples"])]


def _column(record: dict, name: str) -> list[int] | None:
    return record.get("columns", {}).get(name)


def _class_split(record: dict) -> tuple[list[list[int]], list[int]] | None:
    """The ``svc.*`` columns folded into four user/kernel/pal/idle
    context-cycle columns by :func:`~repro.core.stats.service_class`,
    and their per-interval totals (1 for an empty interval), or None
    when the record has no ``svc.*`` columns."""
    k = record["samples"]
    columns = [[0] * k for _ in range(4)]
    folded = False
    for name, column in record.get("columns", {}).items():
        if name.startswith("svc."):
            folded = True
            fold = columns[service_class(name[4:])]
            for i, value in enumerate(column):
                fold[i] += value
    if not folded:
        return None
    totals = [sum(c[i] for c in columns) or 1 for i in range(k)]
    return columns, totals


def class_share_series(record: dict | None) -> list[list]:
    """Mode-class shares per interval: ``[[cycle, [user, kernel, pal,
    idle]], ...]``, the rows Figures 1 and 5 plot.

    Each row is one interval's context-cycles split by mode class, with
    the same arithmetic as :func:`derived_series`' ``kernel_share``.  An
    artifact without a probe timeline has no rows.
    """
    split = _class_split(record) if record is not None else None
    if split is None:
        return []
    columns, totals = split
    return [[cycle, [c[i] / totals[i] for c in columns]]
            for i, cycle in enumerate(sample_cycles(record))]


def _share(numer: list[int], denom_total: int) -> list[float]:
    return [v / denom_total for v in numer]


def _miss_rate(record: dict, level: str) -> list[float] | None:
    cols = record.get("columns", {})
    try:
        acc = [cols[f"mem.{level}.accesses.user"][i]
               + cols[f"mem.{level}.accesses.kernel"][i]
               for i in range(record["samples"])]
        miss = [cols[f"mem.{level}.miss.user"][i]
                + cols[f"mem.{level}.miss.kernel"][i]
                for i in range(record["samples"])]
    except KeyError:
        return None
    return [(m / a) if a else 0.0 for m, a in zip(miss, acc)]


def derived_series(record: dict) -> dict[str, list[float]]:
    """Headline series derived from a record's delta columns.

    ``ipc`` (retired / interval), ``kernel_share`` (of context-cycles),
    ``zero_fetch_share`` / ``zero_issue_share`` (of machine cycles;
    counted only while the detailed tier runs, so fast-forwarded
    intervals read 0 -- ``fast_share`` identifies them), and ``miss.*``
    rates per memory level.  Series whose input columns were not
    sampled are omitted.
    """
    interval = record["interval"]
    k = record["samples"]
    out: dict[str, list[float]] = {}
    retired = _column(record, "core.retired")
    if retired is not None:
        out["ipc"] = [v / interval for v in retired]
    split = _class_split(record)
    if split is not None:
        columns, totals = split
        out["kernel_share"] = [columns[1][i] / totals[i] for i in range(k)]
    for key, probe in (("zero_fetch_share", "core.zero_fetch_cycles"),
                       ("zero_issue_share", "core.zero_issue_cycles"),
                       ("fast_share", "core.mode.fast_cycles")):
        column = _column(record, probe)
        if column is not None:
            out[key] = _share(column, interval)
    for level in ("l1i", "l1d", "l2", "itlb", "dtlb"):
        rates = _miss_rate(record, level)
        if rates is not None:
            out[f"miss.{level}"] = rates
    return out


def service_share_series(record: dict) -> dict[str, list[float]]:
    """Every ``svc.<leaf>`` column as a share of interval context-cycles."""
    k = record["samples"]
    split = _class_split(record)
    if split is None:
        return {}
    totals = split[1]
    out: dict[str, list[float]] = {}
    for name in sorted(record.get("columns", {})):
        if name.startswith("svc."):
            column = record["columns"][name]
            out[name] = [column[i] / totals[i] for i in range(k)]
    return out


# -- phase detection ---------------------------------------------------------


def detect_phases(record: dict, window: int = 8, min_rel: float = 0.25,
                  min_share: float = 0.08) -> list[dict]:
    """Phase boundaries from a windowed mean shift on IPC + kernel share.

    Slides a change-point test over the per-interval series: at each
    candidate sample ``i`` the means of the ``window`` samples before
    and after are compared, and a boundary is emitted when interval IPC
    moves by more than ``min_rel`` relatively (with a small absolute
    floor, so idle-vs-idle jitter never triggers) or the kernel-cycle
    share moves by more than ``min_share`` absolutely.  After a hit the
    scan skips a full window, so one transition yields one boundary.

    Returns ``[{"index", "cycle", "metric", "before", "after"}, ...]``
    sorted by cycle; ``cycle`` is the exact interval boundary
    ``index * interval``, directly usable as a mark.  Purely a function
    of the stored record (nothing is persisted), so thresholds can be
    re-tuned against old artifacts.
    """
    if window < 1:
        raise ValueError(f"phase window must be >= 1, got {window}")
    series = derived_series(record)
    interval = record["interval"]
    k = record["samples"]
    tests = []
    if "ipc" in series:
        tests.append(("ipc", series["ipc"], "rel"))
    if "kernel_share" in series:
        tests.append(("kernel_share", series["kernel_share"], "abs"))
    boundaries: list[dict] = []
    i = window
    while i <= k - window:
        hit = None
        for metric, values, kind in tests:
            before = sum(values[i - window:i]) / window
            after = sum(values[i:i + window]) / window
            shift = abs(after - before)
            if kind == "rel":
                floor = max(min_rel * max(abs(before), abs(after)), 0.05)
                triggered = shift > floor
            else:
                triggered = shift > min_share
            if triggered:
                hit = {"index": i, "cycle": i * interval, "metric": metric,
                       "before": round(before, 6), "after": round(after, 6)}
                break
        if hit is not None:
            boundaries.append(hit)
            i += window
        else:
            i += 1
    return boundaries


def phase_marks(record: dict, **kwargs) -> list[list]:
    """Detected boundaries in the artifact ``marks`` shape:
    ``[["timeline", "phase", cycle], ...]``."""
    return [["timeline", "phase", b["cycle"]]
            for b in detect_phases(record, **kwargs)]


def suggest_warmup(record: dict, **kwargs) -> int | None:
    """Retired-instruction count at the first phase boundary, or None.

    The sampled-mode consumer: pass this as ``--warmup`` so measurement
    windows start after the run's first behavioral transition instead
    of at an arbitrary instruction count (docs/execution-modes.md).
    """
    boundaries = detect_phases(record, **kwargs)
    retired = _column(record, "core.retired")
    if not boundaries or retired is None:
        return None
    index = boundaries[0]["index"]
    return int(sum(retired[:index]))


# -- diffing timelines -------------------------------------------------------


def timeline_record(artifact) -> dict | None:
    """The probe-timeline record of an artifact, or None when it has no
    samples (see :func:`missing_timeline_cause`)."""
    record = getattr(artifact, "probe_timeline", None)
    if not isinstance(record, dict) or not record.get("samples"):
        return None
    return record


def missing_timeline_cause(artifact) -> str:
    """Why :func:`timeline_record` returns None for *artifact*."""
    record = getattr(artifact, "probe_timeline", None)
    if not isinstance(record, dict):
        return "the artifact was built without one"
    return (f"the run lasted {artifact.cycles:,} cycles, less than one "
            f"{record['interval']:,}-cycle sample interval")


def flatten_timeline(record: dict, limit: int | None = None) -> dict[str, float]:
    """One record as flat ``{"series@cycle": value}`` pairs.

    Entries are the derived headline series plus the per-service
    context-cycle shares -- all rates, so two runs with different
    budgets compare interval-for-interval without normalization.
    *limit* truncates to the first N samples (diffs align on the cycle
    axis over the shared prefix of both runs).
    """
    cycles = sample_cycles(record)
    if limit is not None:
        cycles = cycles[:limit]
    flat: dict[str, float] = {}
    series = dict(derived_series(record))
    series.update(service_share_series(record))
    for name in sorted(series):
        values = series[name]
        for cycle, value in zip(cycles, values):
            flat[f"{name}@{cycle}"] = value
    return flat


def timeline_view(arts: list):
    """The timeline view of :func:`repro.obs.diff.diff_seeds` over the
    artifacts *arts* of both sides.

    Each artifact flattens to ``series@cycle`` entries, truncated to the
    sample prefix every record in *arts* shares, so each compared entry
    describes the same slice of simulated time on both machines; an
    artifact without a timeline flattens to None.
    """
    limit = min((r["samples"] for r in map(timeline_record, arts) if r),
                default=0)

    def flatten(art) -> dict[str, float] | None:
        record = timeline_record(art)
        return None if record is None else flatten_timeline(record, limit)
    return flatten


def diff_timeline_artifacts(art_a, art_b,
                            grep: str | None = None) -> DiffReport:
    """Diff two artifacts' probe timelines interval by interval (see
    :func:`timeline_view`); an artifact without a timeline yields an
    empty report."""
    return diff_seeds([art_a], [art_b], timeline_view([art_a, art_b]),
                      window="timeline", grep=grep)


def filter_series(series: dict[str, list[float]],
                  grep: str | None) -> dict[str, list[float]]:
    """Apply the CLI's shared unanchored regex filter to a series dict."""
    pattern = compile_grep(grep)
    if pattern is None:
        return series
    return {name: values for name, values in series.items()
            if pattern.search(name)}
