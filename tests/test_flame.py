"""Tests for call-path attribution and the flame tooling.

Covers the reconciliation invariant (folded paths grouped by leaf ==
the flat per-service cycle counters), span nesting discipline across
execution tiers, fold determinism, and the ``repro flame`` /
``repro diff --flame`` CLI surface.
"""

import pytest

from repro import cli
from repro.analysis import experiments
from repro.analysis.snapshot import capture
from repro.core.simulator import Simulation
from repro.obs import flame
from repro.obs.diff import compile_grep
from repro.obs.events import BEGIN, END, EventBus
from repro.workloads.apache import ApacheWorkload
from repro.workloads.specint import SpecIntWorkload


# -- folding ----------------------------------------------------------------


def test_fold_format_sorted_and_positive():
    paths = {"syscall:read;tlb:refill": 42.4, "user": 100.0,
             "idle": 0.0, "sched": -1.0}
    folded = flame.fold(paths)
    assert folded == "syscall:read;tlb:refill 42\nuser 100\n"
    assert flame.fold({}) == ""


def test_fold_grep_matches_whole_path():
    paths = {"syscall:read;tlb:refill": 10, "tlb:refill": 5, "user": 7}
    folded = flame.fold(paths, grep="tlb")
    assert folded == "syscall:read;tlb:refill 10\ntlb:refill 5\n"
    # anchoring is explicit: ^ pins to the path start
    assert flame.fold(paths, grep="^tlb") == "tlb:refill 5\n"


def test_leaf_totals_groups_by_charged_service():
    paths = {"syscall:read;tlb:refill": 10, "sched;tlb:refill": 5,
             "tlb:refill": 2, "user": 7}
    assert flame.leaf_totals(paths) == {"tlb:refill": 17, "user": 7}


def test_render_table_ranks_and_truncates():
    paths = {f"svc{i}": float(i) for i in range(1, 6)}
    text = flame.render_table(paths, top=2)
    assert "svc5" in text and "svc4" in text and "svc1" not in text
    assert "5 path(s)" in text and "showing top 2" in text


def test_flame_paths_tolerates_pre_v6_window():
    assert flame.flame_paths({"probes": {}}) == {}


# -- grep regex semantics ---------------------------------------------------


def test_compile_grep_is_unanchored_regex():
    pattern = compile_grep("mem.l2")
    assert pattern.search("mem.l2.miss.user")
    # unanchored: matches anywhere, and "." is a regex wildcard
    assert pattern.search("os.mem1l2.x")
    assert compile_grep("miss|refill").search("tlb.refill.kernel")
    assert compile_grep(None) is None
    with pytest.raises(ValueError, match="bad --grep pattern"):
        compile_grep("[unclosed")


def test_cli_grep_rejects_bad_regex(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BUDGET_MULT", "0.02")
    experiments.clear_cache()
    with pytest.raises(SystemExit, match="bad --grep"):
        cli.main(["counters", "specint", "--grep", "[unclosed"])
    with pytest.raises(SystemExit, match="bad --grep"):
        cli.main(["diff", "specint-smt-full", "specint-ss-full",
                  "--grep", "(open"])


# -- reconciliation invariant -----------------------------------------------


def _reconcile(window):
    """Assert sum-over-paths-grouped-by-leaf == flat service counters."""
    attr = flame.flame_paths(window)
    svc = window["service_cycles"]
    leaves = flame.leaf_totals(attr)
    for name in sorted(set(leaves) | set(svc)):
        assert leaves.get(name, 0) == pytest.approx(svc.get(name, 0)), name
    assert sum(attr.values()) == pytest.approx(sum(svc.values()))
    return attr


def test_attribution_reconciles_with_service_cycles_detailed():
    sim = Simulation(ApacheWorkload(), seed=11)
    sim.run(max_instructions=40_000)
    snap = capture(sim)
    attr = _reconcile(snap)
    # kernel services really nest: at least one multi-frame path exists
    nested = [p for p in attr if ";" in p]
    assert nested, "expected nested call paths on an apache run"
    # and every component of every path is a known service-style label
    for path in attr:
        assert all(frag for frag in path.split(";"))


def test_attribution_reconciles_across_tiers():
    for kwargs in ({"mode": "fast"},
                   {"mode": "sampled", "warmup": 8_000,
                    "sample": (8_000, 4_000)}):
        spec = experiments.run_spec("apache", "smt", "full", 30_000, 11,
                                    **kwargs)
        rec = experiments.execute_spec(spec)
        for window in ("steady", "total"):
            _reconcile(rec.window(window))


def test_attribution_total_covers_all_context_cycles():
    sim = Simulation(SpecIntWorkload(), seed=7)
    sim.run(max_instructions=20_000)
    snap = capture(sim)
    attr = snap["attribution"]
    n_ctx = sim.machine.cpu.n_contexts
    assert sum(attr.values()) == snap["cycles"] * n_ctx


# -- span nesting discipline ------------------------------------------------

#: Kinds emitted as nested kernel-service spans (pipeline occupancy
#: spans interleave across contexts by design and are excluded).
SPAN_KINDS = ("syscall", "tlb", "interrupt", "sched")


def _assert_spans_well_nested(sim, events):
    """Every B has a matching E in LIFO order, per software thread, and
    every thread's open span stack is its unmatched B events, in order
    (so no span was popped under the wrong label)."""
    stacks: dict = {}
    checked = 0
    for ev in events:
        if ev.kind not in SPAN_KINDS or ev.phase not in (BEGIN, END):
            continue
        stack = stacks.setdefault(ev.tid, [])
        if ev.phase == BEGIN:
            stack.append(ev.service)
        else:
            assert stack, f"E without B: {ev}"
            assert stack[-1] == ev.service, (
                f"crossed spans on tid {ev.tid}: "
                f"open {stack[-1]!r}, closing {ev.service!r}")
            stack.pop()
            checked += 1
    assert checked > 0, "run emitted no service spans"
    for tid, thread in sim.os.threads_by_tid.items():
        assert thread.spans == stacks.get(tid, []), thread.name
    assert set(stacks) <= set(sim.os.threads_by_tid)
    return stacks


@pytest.mark.parametrize("workload,os_mode", [
    ("apache", "full"), ("apache", "app"),
    ("specint", "full"), ("specint", "app"),
])
def test_detailed_run_spans_never_cross(workload, os_mode):
    sim = experiments.build_simulation(workload, "smt", os_mode, seed=11)
    bus = EventBus()
    sim.attach_events(bus)
    sim.run(max_instructions=30_000)
    assert bus.dropped == 0
    _assert_spans_well_nested(sim, bus.events)


@pytest.mark.parametrize("workload", ["apache", "specint"])
def test_sampled_run_spans_never_cross_or_orphan(workload):
    from repro.core.engine import build_plan, run_plan

    sim = experiments.build_simulation(workload, "smt", "full", seed=11)
    bus = EventBus()
    sim.attach_events(bus)
    plan = build_plan("sampled", 30_000, warmup=8_000, sample=(8_000, 4_000))
    run_plan(sim, plan)
    assert bus.dropped == 0
    stacks = _assert_spans_well_nested(sim, bus.events)
    # Tier transitions must not strand open spans beyond the plausible
    # in-flight depth of one nested kernel service chain per thread.
    for tid, stack in stacks.items():
        assert len(stack) <= 4, f"orphaned spans on tid {tid}: {stack}"


def test_app_only_mode_still_reconciles():
    spec = experiments.run_spec("specint", "smt", "app", 20_000, 11)
    rec = experiments.execute_spec(spec)
    _reconcile(rec.window("total"))


# -- determinism ------------------------------------------------------------


def test_same_seed_folds_byte_identical():
    folds = []
    for _ in range(2):
        sim = Simulation(ApacheWorkload(), seed=23)
        sim.run(max_instructions=20_000)
        folds.append(flame.fold(capture(sim)["attribution"]))
    assert folds[0] == folds[1]


# -- CLI surface ------------------------------------------------------------


@pytest.fixture
def small_budgets(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BUDGET_MULT", "0.02")
    experiments.clear_cache()
    yield
    experiments.clear_cache()


def test_cli_flame_writes_folded_and_table(small_budgets, tmp_path, capsys):
    out = tmp_path / "apache.folded"
    assert cli.main(["flame", "apache-smt-full", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "wrote" in text and "path(s)" in text
    assert "context-cycles" in text
    lines = out.read_text().splitlines()
    assert lines
    for line in lines:
        path, count = line.rsplit(" ", 1)
        assert path and int(count) > 0
    # folded output is sorted by path (byte-stable)
    assert lines == sorted(lines)

    with pytest.raises(SystemExit, match="refusing to overwrite"):
        cli.main(["flame", "apache-smt-full", "--out", str(out)])


def test_cli_flame_grep_and_json(small_budgets, tmp_path, capsys):
    import json

    jpath = tmp_path / "flame.json"
    assert cli.main(["flame", "apache-smt-full", "--grep", "syscall|sched",
                     "--json", str(jpath)]) == 0
    out = capsys.readouterr().out
    table_rows = [ln for ln in out.splitlines()
                  if ln.startswith("  ") and "path" not in ln]
    assert table_rows
    payload = json.loads(jpath.read_text())
    assert payload["window"] == "steady"
    assert payload["attribution"]

    assert cli.main(["flame", "apache-smt-full",
                     "--grep", "nosuchservice"]) == 1
    assert "no call paths match" in capsys.readouterr().out


def test_cli_diff_flame_ranks_call_paths(small_budgets, tmp_path, capsys):
    import json

    jpath = tmp_path / "flame-diff.json"
    assert cli.main(["diff", "apache-ss-full", "apache-smt-full",
                     "--flame", "--json", str(jpath)]) == 0
    out = capsys.readouterr().out
    assert "apache-ss-full" in out and "apache-smt-full" in out
    payload = json.loads(jpath.read_text())
    names = [d["name"] for d in payload["deltas"]]
    assert names
    # deltas are whole call paths, not flat probe names
    assert any(";" in n for n in names)


def test_cli_diff_flame_seeded_noise_bands(small_budgets, capsys):
    assert cli.main(["diff", "specint-ss-full", "specint-smt-full",
                     "--flame", "--seeds", "2", "--workers", "2"]) == 0
    out = capsys.readouterr().out
    assert "seeds" in out


def test_cli_counters_grep_is_regex(small_budgets, capsys):
    assert cli.main(["counters", "specint", "--grep",
                     r"mem\.(l1d|l2)\.miss"]) == 0
    out = capsys.readouterr().out
    names = [line.split()[0] for line in out.splitlines()
             if line.startswith("  ")]
    assert names
    assert all(n.startswith(("mem.l1d.miss", "mem.l2.miss")) for n in names)


def test_cli_flame_warns_on_dropped_events(small_budgets, capsys,
                                           monkeypatch):
    # Fabricate a window whose probe snapshot records ring overflow.
    rec = experiments.get_run("specint", "smt", "full")
    window = dict(rec.steady)
    window["probes"] = dict(window.get("probes", {}))
    window["probes"]["core.events.dropped"] = 17
    monkeypatch.setattr(type(rec), "window", lambda self, phase: window)
    monkeypatch.setattr(cli, "_resolve_run_arg",
                        lambda text, instructions, seed: rec)
    assert cli.main(["flame", "specint-smt-full"]) == 0
    out = capsys.readouterr().out
    assert "dropped 17 event(s)" in out and "truncated" in out


def test_cli_flame_names_why_a_window_is_empty(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    experiments.clear_cache()
    art = experiments.get_run("specint", "smt", "full", instructions=20_000,
                              mode="fast")
    experiments.clear_cache()
    path = tmp_path / "fast.json"
    path.write_text(art.dumps())
    assert cli.main(["flame", str(path), "--window", "startup"]) == 1
    assert capsys.readouterr().out == (
        "specint-smt-full: the startup window carries no call paths: it "
        "spans 0 cycles (the run had no warm-up)\n")
    assert cli.main(["flame", str(path), "--window", "steady"]) == 0
