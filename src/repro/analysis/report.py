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
from repro.analysis.experiments import get_run
from repro.analysis.paper import build_comparison, render_markdown


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
    spec = get_run("specint", "smt", "full")
    spec_app = get_run("specint", "smt", "app")
    spec_ss = get_run("specint", "ss", "full")
    spec_ss_app = get_run("specint", "ss", "app")
    apache = get_run("apache", "smt", "full")
    apache_ss = get_run("apache", "ss", "full")
    apache_omit = get_run("apache", "smt", "omit")
    apache_ss_omit = get_run("apache", "ss", "omit")

    report = Report()
    report.exhibits = {
        "fig1": figures.fig1(spec),
        "fig2": figures.fig2(spec),
        "fig3": figures.fig3(spec),
        "fig4": figures.fig4(spec),
        "fig5": figures.fig5(apache),
        "fig6": figures.fig6(apache, spec),
        "fig7": figures.fig7(apache),
        "tab2": tables.table2(spec),
        "tab3": tables.table3(spec),
        "tab4": tables.table4(spec_app, spec, spec_ss_app, spec_ss),
        "tab5": tables.table5(apache),
        "tab6": tables.table6(apache, spec, apache_ss),
        "tab7": tables.table7(apache),
        "tab8": tables.table8(apache, apache_ss),
        "tab9": tables.table9(apache_omit, apache, apache_ss_omit, apache_ss),
    }
    if include_comparison:
        rows = build_comparison({
            "specint-smt-full": spec,
            "specint-smt-app": spec_app,
            "specint-ss-full": spec_ss,
            "specint-ss-app": spec_ss_app,
            "apache-smt-full": apache,
            "apache-ss-full": apache_ss,
            "apache-smt-omit": apache_omit,
        })
        report.comparison_markdown = render_markdown(rows)
        report.shape_criteria_total = len(rows)
        report.shape_criteria_held = sum(r.holds for r in rows)
    return report
