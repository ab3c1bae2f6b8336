"""Measurement and reporting layer.

The paper extracts every table and figure from a handful of long
simulations.  This package does the same, as three explicit layers:

* **artifact** -- :class:`~repro.analysis.artifact.RunArtifact`, the
  versioned plain-data record of one finished run (config fingerprint,
  counter windows, timeline, phase marks);
* **store** -- :class:`~repro.analysis.store.RunStore`, a content-addressed
  on-disk cache (default ``.repro_cache/``) that persists the eight
  canonical runs across processes and invalidates on any config, schema,
  or code-version change;
* **service** -- the run engine (:mod:`repro.analysis.service`): supervised
  worker processes fed by a job queue, behind ``repro prefetch`` and
  ``repro serve``.  It is not imported here, so loading the package does
  not pull in the multiprocessing machinery.

:mod:`repro.analysis.experiments` resolves runs through memo -> store ->
execute; the table/figure modules compute the paper's exact rows from an
artifact's windowed counters.
"""

from repro.analysis.artifact import RunArtifact
from repro.analysis.experiments import clear_cache, get_run
from repro.analysis.snapshot import capture, diff
from repro.analysis.store import RunStore
from repro.analysis import export, figures, metrics, paper, report, sweeps, tables

__all__ = [
    "capture",
    "diff",
    "RunArtifact",
    "RunStore",
    "get_run",
    "clear_cache",
    "export",
    "figures",
    "metrics",
    "paper",
    "report",
    "sweeps",
    "tables",
]
