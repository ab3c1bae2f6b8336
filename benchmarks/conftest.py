"""Shared fixtures for the reproduction benchmarks.

Each benchmark regenerates one of the paper's tables or figures.  All of
them draw on the same canonical run artifacts (see
``repro.analysis.experiments``): a session-scoped fixture warms the
on-disk run store once -- executing any missing canonical runs in
parallel, one process per core -- and every benchmark then loads stored
artifacts.  A second benchmark session on the same configuration is
therefore simulation-free.  Set ``REPRO_BUDGET_MULT=0.25`` for a quick
smoke pass (budgets are part of the store key), or
``REPRO_BENCH_NO_PREFETCH=1`` to skip the warm-up (e.g. for the ablation
benchmarks, which build their own simulations), or
``REPRO_BENCH_PROGRESS=1`` to watch the warm-up's aggregate live
progress line while cold runs execute (see ``repro.obs.live``).

Every benchmark writes its rendered output to ``benchmarks/output/`` and
prints it (visible with ``pytest -s``).
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

OUTPUT_DIR = pathlib.Path(__file__).parent / "output"


@pytest.fixture(scope="session", autouse=True)
def warm_run_store():
    """Warm the canonical-run store once, in parallel, for the session."""
    if os.environ.get("REPRO_BENCH_NO_PREFETCH"):
        return
    from repro.analysis.service import prefetch_all

    prefetch_all(progress=bool(os.environ.get("REPRO_BENCH_PROGRESS")))


@pytest.fixture(scope="session")
def output_dir() -> pathlib.Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


def _run_metrics(run) -> dict:
    """The stable metrics record of one run artifact: identity plus the
    probe tree of each counter window, all deterministically sorted."""
    return {
        "label": run.label,
        "fingerprint": run.fingerprint,
        "schema_version": run.schema_version,
        "probes": {window: run.window(window).get("probes", {})
                   for window in ("startup", "steady", "total")},
    }


@pytest.fixture(scope="session")
def emit(output_dir):
    """Write a rendered table/figure to disk and echo it.

    With *runs* (the artifact(s) an exhibit was built from), also write
    ``<name>.metrics.json``: per-run probe snapshots for every counter
    window, so each bench output carries a machine-readable metrics
    section that is stable across re-renders of the same artifacts.
    """

    def _emit(name: str, text: str, runs=None) -> None:
        path = output_dir / f"{name}.txt"
        path.write_text(text + "\n")
        if runs is not None:
            if not isinstance(runs, (list, tuple)):
                runs = (runs,)
            payload = {"exhibit": name,
                       "runs": [_run_metrics(r) for r in runs]}
            (output_dir / f"{name}.metrics.json").write_text(
                json.dumps(payload, sort_keys=True, indent=2) + "\n")
        print()
        print(text)

    return _emit
