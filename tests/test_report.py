"""Tests for the full-report builder."""

import pytest

from repro import cli
from repro.analysis import experiments
from repro.analysis.report import Report, build_report


@pytest.fixture(autouse=True)
def tiny(monkeypatch):
    monkeypatch.setenv("REPRO_BUDGET_MULT", "0.02")
    experiments.clear_cache()
    yield
    experiments.clear_cache()


def test_build_report_contains_all_exhibits():
    report = build_report()
    assert set(report.exhibits) == {
        "fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
        "tab2", "tab3", "tab4", "tab5", "tab6", "tab7", "tab8", "tab9",
    }
    assert report.shape_criteria_total > 10
    assert 0 <= report.shape_criteria_held <= report.shape_criteria_total
    assert "Table 6" in report.text


def test_report_write(tmp_path):
    report = Report(
        exhibits={"tab2": {"text": "Table 2 body"}},
        comparison_markdown="| a |",
        shape_criteria_held=1,
        shape_criteria_total=1,
    )
    out = report.write(tmp_path / "r.txt", exhibits_dir=tmp_path / "ex")
    assert "Table 2 body" in out.read_text()
    assert (tmp_path / "ex" / "tab2.txt").exists()


def test_cli_exhibits_print_the_report_text(capsys):
    # `repro table N` / `repro figure N` and the report build every
    # exhibit from one table, so each prints exactly the report's text.
    report = build_report(include_comparison=False)
    for command, prefix, numbers in (("table", "tab", range(2, 10)),
                                     ("figure", "fig", range(1, 8))):
        for number in numbers:
            assert cli.main([command, str(number)]) == 0
            printed = capsys.readouterr().out
            assert printed == report.exhibits[f"{prefix}{number}"]["text"] + "\n"
