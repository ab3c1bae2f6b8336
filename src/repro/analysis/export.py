"""Export measured windows and metrics to JSON / CSV.

The table and figure builders render the paper's exhibits as text; this
module serializes the underlying numbers so they can be plotted or diffed
across runs:

::

    from repro.analysis.experiments import get_run
    from repro.analysis.export import probe_timeline_to_csv, window_to_json

    rec = get_run("apache", "smt", "full")
    window_to_json(rec.steady, "apache_steady.json")
    probe_timeline_to_csv(rec, "apache_timeline.csv")

:func:`probe_timeline_to_csv` writes the run's interval probe record
(:mod:`repro.obs.timeline`), whose ``svc.*`` columns, folded by mode
class, are the data behind Figures 1/5.
"""

from __future__ import annotations

import csv
import json
import pathlib

from repro.analysis import metrics as M
from repro.analysis.artifact import RunArtifact


def summarize_window(window: dict, n_contexts: int = 8) -> dict:
    """Flatten one counter window into a plain metrics dict."""
    summary = {
        "instructions": window["retired"],
        "cycles": window["cycles"],
        "ipc": M.ipc(window),
        "squash_fraction": M.squash_fraction(window),
        "avg_fetchable_contexts": M.avg_fetchable_contexts(window),
        "zero_fetch_share": M.zero_fetch_share(window),
        "zero_issue_share": M.zero_issue_share(window),
        "max_issue_share": M.max_issue_share(window),
        "cond_mispredict_rate": M.cond_mispredict_rate(window),
        "class_shares": M.class_shares(window),
        "kernel_categories": M.kernel_category_shares(window),
        "syscall_cycle_shares": M.syscall_cycle_shares(window),
        "miss_rates": {
            name: M.miss_rate(window, name)
            for name in ("L1I", "L1D", "L2", "DTLB", "ITLB", "BTB")
        },
        "miss_causes": {
            name: {f"{kind}:{cause}": share
                   for (kind, cause), share in
                   M.cause_distribution(window, name).items()}
            for name in ("L1I", "L1D", "L2", "DTLB", "BTB")
        },
        "avoided_shares": {
            name: {f"{kind}:{filler}": share
                   for (kind, filler), share in
                   M.avoided_distribution(window, name).items()}
            for name in ("L1I", "L1D", "L2", "DTLB")
        },
    }
    return summary


def window_to_json(window: dict, path, n_contexts: int = 8) -> pathlib.Path:
    """Write a window's summarized metrics as JSON; returns the path."""
    path = pathlib.Path(path)
    path.write_text(json.dumps(summarize_window(window, n_contexts),
                               indent=2, sort_keys=True) + "\n")
    return path


def record_to_json(record: RunArtifact, path) -> pathlib.Path:
    """Write a run artifact's start-up/steady/total summaries as JSON."""
    n = record.n_contexts
    payload = {
        "spec": record.spec,
        "fingerprint": record.fingerprint,
        "startup": summarize_window(record.startup, n),
        "steady": summarize_window(record.steady, n),
        "total": summarize_window(record.total, n),
    }
    path = pathlib.Path(path)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def probe_timeline_to_csv(record, path) -> pathlib.Path:
    """Write the *interval probe* timeline as CSV (one row per sample).

    ``record`` is a :class:`RunArtifact` or a raw probe-timeline record
    dict (see :func:`repro.obs.timeline.timeline_record`).  Rows carry the
    end-of-interval cycle stamp plus the raw per-interval delta for every
    column, in sorted column order.  Raises :class:`ValueError` naming the
    cause when there are no samples to write (the artifact carries no
    timeline, or the run ended within its first sample interval).
    """
    from repro.obs.timeline import (missing_timeline_cause, sample_cycles,
                                    timeline_record)

    rec = timeline_record(record) if isinstance(record, RunArtifact) else record
    if not rec or not rec.get("columns"):
        cause = (missing_timeline_cause(record)
                 if isinstance(record, RunArtifact)
                 else "the record holds no samples")
        raise ValueError(f"run has no probe timeline: {cause}")
    names = sorted(rec["columns"])
    cycles = sample_cycles(rec)
    path = pathlib.Path(path)
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["cycle"] + names)
        for i, cycle in enumerate(cycles):
            writer.writerow([cycle] + [rec["columns"][n][i] for n in names])
    return path


def sweep_to_csv(sweep, path) -> pathlib.Path:
    """Write a :class:`~repro.analysis.sweeps.Sweep` as CSV."""
    path = pathlib.Path(path)
    if not sweep.points:
        raise ValueError("sweep has no points")
    metric_names = sorted(sweep.points[0].metrics)
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow([sweep.parameter] + metric_names)
        for point in sweep.points:
            writer.writerow([point.value]
                            + [f"{point.metrics[m]:.6f}" for m in metric_names])
    return path
