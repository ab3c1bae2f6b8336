"""Full-report builder: every exhibit, the shape comparison, and run
summaries in one structured object.

Used by ``python -m repro report`` and reusable programmatically::

    from repro.analysis.report import build_report

    report = build_report()
    print(report.text)
    report.write("report.txt", exhibits_dir="exhibits/")
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field

from repro.analysis import figures, tables
from repro.analysis.artifact import parse_run_label
from repro.analysis.experiments import get_run
from repro.analysis.paper import build_comparison, render_markdown

_SPEC = "specint-smt-full"
_APACHE = "apache-smt-full"

#: Every exhibit the report renders: name -> (builder, the canonical run
#: labels it reads, in argument order).  ``repro table``, ``repro
#: figure`` and :func:`build_report` all build from this one table.
EXHIBITS = {
    "fig1": (figures.fig1, (_SPEC,)),
    "fig2": (figures.fig2, (_SPEC,)),
    "fig3": (figures.fig3, (_SPEC,)),
    "fig4": (figures.fig4, (_SPEC,)),
    "fig5": (figures.fig5, (_APACHE,)),
    "fig6": (figures.fig6, (_APACHE, _SPEC)),
    "fig7": (figures.fig7, (_APACHE,)),
    "tab2": (tables.table2, (_SPEC,)),
    "tab3": (tables.table3, (_SPEC,)),
    "tab4": (tables.table4, ("specint-smt-app", _SPEC, "specint-ss-app",
                             "specint-ss-full")),
    "tab5": (tables.table5, (_APACHE,)),
    "tab6": (tables.table6, (_APACHE, _SPEC, "apache-ss-full")),
    "tab7": (tables.table7, (_APACHE,)),
    "tab8": (tables.table8, (_APACHE, "apache-ss-full")),
    "tab9": (tables.table9, ("apache-smt-omit", _APACHE, "apache-ss-omit",
                             "apache-ss-full")),
}

#: The canonical runs the paper-vs-measured shape comparison reads
#: (:func:`repro.analysis.paper.build_comparison`).
COMPARISON_RUNS = ("specint-smt-full", "specint-smt-app", "specint-ss-full",
                   "specint-ss-app", "apache-smt-full", "apache-ss-full",
                   "apache-smt-omit")


def _canonical_run(label: str):
    """The canonical run named ``workload-cpu-os_mode``, through
    :func:`~repro.analysis.experiments.get_run`."""
    return get_run(**parse_run_label(label))


def build_exhibit(name: str) -> dict:
    """Build one exhibit of :data:`EXHIBITS` from its canonical runs."""
    builder, labels = EXHIBITS[name]
    return builder(*map(_canonical_run, labels))


def comparison_rows() -> list:
    """The paper-vs-measured shape criteria over :data:`COMPARISON_RUNS`."""
    return build_comparison({label: _canonical_run(label)
                             for label in COMPARISON_RUNS})


@dataclass
class Report:
    """A fully-rendered reproduction report."""

    exhibits: dict[str, dict] = field(default_factory=dict)
    comparison_markdown: str = ""
    shape_criteria_held: int = 0
    shape_criteria_total: int = 0

    @property
    def text(self) -> str:
        parts = [ex["text"] for _, ex in sorted(self.exhibits.items())]
        parts.append("Paper-vs-measured shape criteria "
                     f"({self.shape_criteria_held}/{self.shape_criteria_total} hold):")
        parts.append(self.comparison_markdown)
        return "\n\n\n".join(parts) + "\n"

    def write(self, path, exhibits_dir=None) -> pathlib.Path:
        """Write the combined report (and optionally one file per exhibit)."""
        path = pathlib.Path(path)
        path.write_text(self.text)
        if exhibits_dir is not None:
            directory = pathlib.Path(exhibits_dir)
            directory.mkdir(parents=True, exist_ok=True)
            for name, exhibit in self.exhibits.items():
                (directory / f"{name}.txt").write_text(exhibit["text"] + "\n")
        return path


def build_report(include_comparison: bool = True,
                 max_workers: int | None = None) -> Report:
    """Run (or reuse) the canonical simulations and build every exhibit.

    ``max_workers`` > 1 warms the run store concurrently (one process per
    worker, through :func:`repro.analysis.service.prefetch_all`) before
    the exhibits are built; the default resolves each run serially
    through memo -> store -> execute.
    """
    if max_workers is not None and max_workers > 1:
        from repro.analysis.service import prefetch_all

        prefetch_all(max_workers=max_workers)
    report = Report()
    report.exhibits = {name: build_exhibit(name) for name in EXHIBITS}
    if include_comparison:
        rows = comparison_rows()
        report.comparison_markdown = render_markdown(rows)
        report.shape_criteria_total = len(rows)
        report.shape_criteria_held = sum(r.holds for r in rows)
    return report
