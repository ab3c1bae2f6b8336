"""Tests for interval telemetry (repro.obs.timeline).

Covers record determinism (same config+seed => byte-identical
``probe_timeline``), both-tier alignment (``svc.*`` column conservation
in the detailed and fast tiers; sampled-mode fast/full leg boundaries
reconstructed from the leg records), truncation at the sample cap,
fingerprint neutrality of telemetry options, phase detection, the
diff/flatten layer, CSV export, and the ``repro timeline`` /
``repro diff --timeline`` CLI surface.
"""

import json

import pytest

from repro import cli
from repro.analysis import experiments
from repro.analysis.artifact import canonical_json
from repro.analysis.export import probe_timeline_to_csv
from repro.analysis.render import sparkline
from repro.core.simulator import Simulation
from repro.obs import timeline as tl
from repro.workloads.apache import ApacheWorkload
from repro.workloads.specint import SpecIntWorkload

INTERVAL = 2048  # small so short test runs produce many samples


def _sim(workload=SpecIntWorkload, seed=11, **kwargs):
    sim = Simulation(workload(), seed=seed)
    sim.probe_timeline = tl.ProbeTimeline(sim, interval=INTERVAL, **kwargs)
    return sim


def _artifact(sim):
    """Freeze *sim* with trivial (identical) counter windows."""
    from repro.analysis.snapshot import capture, diff

    window = diff(capture(sim), capture(sim))
    return sim.to_artifact(window, window, window)


# -- record basics -----------------------------------------------------------


def test_interval_rounds_up_to_power_of_two():
    sim = Simulation(SpecIntWorkload(), seed=11)
    probe_tl = tl.ProbeTimeline(sim, interval=3000)
    assert probe_tl.interval == 4096
    assert probe_tl.mask == 4095
    with pytest.raises(ValueError, match="interval"):
        tl.ProbeTimeline(sim, interval=0)
    with pytest.raises(ValueError, match="max_samples"):
        tl.ProbeTimeline(sim, max_samples=0)


def test_unsampleable_probe_rejected():
    sim = Simulation(SpecIntWorkload(), seed=11)
    with pytest.raises(ValueError, match="not a scalar"):
        tl.ProbeTimeline(sim, probes=("no.such.probe",))


def test_record_shape_and_class_conservation_detailed_tier():
    sim = _sim()
    sim.run(max_instructions=40_000)
    rec = sim.probe_timeline.to_record()
    assert rec["interval"] == INTERVAL
    assert rec["samples"] >= 4
    assert rec["dropped"] == 0
    n = sim.machine.cpu.n_contexts
    cols = rec["columns"]
    lengths = {len(c) for c in cols.values()}
    assert lengths == {rec["samples"]}
    # the mode classes are folded at read time, never stored
    assert not any(name.startswith("class.") for name in cols)
    # every interval's service deltas account for every context-cycle
    for i in range(rec["samples"]):
        total = sum(c[i] for name, c in cols.items()
                    if name.startswith("svc."))
        assert total == INTERVAL * n
    for _, shares in tl.class_share_series(rec):
        assert sum(shares) == pytest.approx(1.0)


def test_class_conservation_fast_tier():
    from repro.core.engine import fast_forward

    sim = Simulation(SpecIntWorkload(), seed=11)
    # the fast tier retires ~width instructions per cycle, so shrink the
    # interval to still get several samples from a short run
    sim.probe_timeline = tl.ProbeTimeline(sim, interval=512)
    fast_forward(sim, max_instructions=40_000)
    rec = sim.probe_timeline.to_record()
    interval = rec["interval"]
    assert rec["samples"] >= 4
    n = sim.machine.cpu.n_contexts
    cols = rec["columns"]
    for i in range(rec["samples"]):
        total = sum(c[i] for name, c in cols.items()
                    if name.startswith("svc."))
        assert total == interval * n
    # the whole run was fast-forwarded: every interval is 100% fast tier
    assert all(v == interval for v in cols["core.mode.fast_cycles"])


def test_same_seed_records_byte_identical():
    records = []
    for _ in range(2):
        sim = _sim(workload=ApacheWorkload, seed=23)
        sim.run(max_instructions=30_000)
        records.append(canonical_json(sim.probe_timeline.to_record()))
    assert records[0] == records[1]


def test_telemetry_config_does_not_perturb_trajectory_or_fingerprint():
    base = Simulation(SpecIntWorkload(), seed=7)
    base.run(max_instructions=20_000)
    weird = Simulation(SpecIntWorkload(), seed=7)
    weird.probe_timeline = tl.ProbeTimeline(weird, interval=256,
                                            probes=("core.retired",))
    weird.run(max_instructions=20_000)
    assert base.params == weird.params
    assert (base.stats.retired, base.stats.cycles) \
        == (weird.stats.retired, weird.stats.cycles)


def test_timeline_samples_mshr_occupancy_at_the_live_clock():
    # The MSHR occupancy integrals advance to the cycle account's clock,
    # which the run loops keep current, so a timeline sampling one
    # records every interval's delta -- and the extra advances leave
    # the trajectory unchanged.
    from repro.analysis.snapshot import capture

    probe = "mem.mshr.l1d.occupancy_cycles"
    sampled = _sim(probes=tl.DEFAULT_TIMELINE_PROBES + (probe,))
    plain = _sim()
    for sim in (sampled, plain):
        sim.run(max_instructions=10**9, max_cycles=8 * INTERVAL)
    column = sampled.probe_timeline.to_record()["columns"][probe]
    assert len(column) == 8 and sum(column) > 0
    assert sum(column) == capture(sampled)["probes"][probe]
    assert capture(sampled)["probes"] == capture(plain)["probes"]


def test_sample_cap_counts_dropped_intervals():
    sim = _sim(max_samples=2)
    sim.run(max_instructions=40_000)
    probe_tl = sim.probe_timeline
    assert probe_tl.samples == 2
    assert probe_tl.dropped >= 1
    art = _artifact(sim)
    assert "timeline_truncated" in art.flags
    assert art.probe_timeline["dropped"] == probe_tl.dropped


def test_alignment_guard_rejects_off_boundary_tick():
    sim = _sim()
    with pytest.raises(RuntimeError, match="alignment"):
        sim.probe_timeline.tick(INTERVAL + 1)


# -- sampled mode ------------------------------------------------------------


def test_sampled_legs_reconstruct_fast_cycles_column():
    from repro.core.engine import build_plan, run_plan

    sim = _sim(workload=ApacheWorkload)
    plan = build_plan("sampled", 60_000, warmup=10_000, sample=(8_000, 8_000))
    records, _ = run_plan(sim, plan)
    rec = sim.probe_timeline.to_record()
    assert rec["samples"] >= 2
    # rebuild each interval's fast-tier cycle count from the leg records
    spans = []
    start = 0
    for leg in records:
        end = start + leg["cycles"]
        if leg["mode"] == "fast":
            spans.append((start, end))
        start = end
    fast_col = rec["columns"]["core.mode.fast_cycles"]
    for i, measured in enumerate(fast_col):
        lo, hi = i * rec["interval"], (i + 1) * rec["interval"]
        overlap = sum(max(0, min(hi, b) - max(lo, a)) for a, b in spans)
        assert measured == overlap, f"sample {i}: {measured} != {overlap}"


# -- derived series and phases ----------------------------------------------


def _synthetic_record(ipc_halves=(4.0, 1.0), samples=24, interval=1024,
                      kernel=0.2):
    half = samples // 2
    retired = [int(ipc_halves[0] * interval)] * half \
        + [int(ipc_halves[1] * interval)] * (samples - half)
    n = 8
    kern = int(kernel * interval * n)
    columns = {
        "core.retired": retired,
        "svc.user": [interval * n - kern] * samples,
        "svc.syscall:read": [kern] * samples,
    }
    return {"interval": interval, "samples": samples, "dropped": 0,
            "columns": columns}


def test_derived_series_values():
    rec = _synthetic_record()
    series = tl.derived_series(rec)
    assert series["ipc"][0] == pytest.approx(4.0)
    assert series["ipc"][-1] == pytest.approx(1.0)
    assert series["kernel_share"][0] == pytest.approx(0.2, rel=1e-2)
    # miss.* omitted: no mem columns in the synthetic record
    assert not any(name.startswith("miss.") for name in series)


def test_detect_phases_finds_midpoint_shift():
    rec = _synthetic_record(ipc_halves=(4.0, 1.0), samples=24)
    phases = tl.detect_phases(rec, window=4)
    assert phases, "expected one IPC phase boundary"
    first = phases[0]
    assert first["metric"] == "ipc"
    # the shift straddles sample 12; the windowed test fires as soon as
    # the after-window starts to overlap it
    assert 8 <= first["index"] <= 16
    assert first["cycle"] == first["index"] * rec["interval"]
    marks = tl.phase_marks(rec, window=4)
    assert marks[0] == ["timeline", "phase", first["cycle"]]
    warmup = tl.suggest_warmup(rec, window=4)
    assert warmup == sum(rec["columns"]["core.retired"][:first["index"]])


def test_detect_phases_quiet_on_flat_series():
    rec = _synthetic_record(ipc_halves=(2.0, 2.0))
    assert tl.detect_phases(rec, window=4) == []


def test_real_run_has_timeline_on_artifact():
    sim = _sim()
    sim.run(max_instructions=40_000)
    art = _artifact(sim)
    rec = tl.timeline_record(art)
    assert rec is not None
    series = tl.derived_series(rec)
    assert set(series) >= {"ipc", "kernel_share", "zero_fetch_share",
                           "zero_issue_share", "fast_share", "miss.l1d"}
    assert tl.timeline_record(object()) is None


# -- flatten / diff ----------------------------------------------------------


def test_flatten_uses_cycle_stamps_and_limit():
    rec = _synthetic_record(samples=4, interval=1024)
    flat = tl.flatten_timeline(rec)
    assert flat["ipc@1024"] == pytest.approx(4.0)
    assert flat["ipc@4096"] == pytest.approx(1.0)
    limited = tl.flatten_timeline(rec, limit=2)
    assert set(limited) == {"ipc@1024", "ipc@2048",
                            "kernel_share@1024", "kernel_share@2048",
                            "svc.user@1024", "svc.user@2048",
                            "svc.syscall:read@1024", "svc.syscall:read@2048"}
    assert limited["svc.syscall:read@1024"] == pytest.approx(0.2, rel=1e-2)


def test_diff_timeline_artifacts_shared_prefix():
    sims = []
    for budget, seed in ((30_000, 11), (50_000, 23)):
        sim = _sim(workload=ApacheWorkload, seed=seed)
        sim.run(max_instructions=budget)
        sims.append(_artifact(sim))
    short_rec = tl.timeline_record(sims[0])
    report = tl.diff_timeline_artifacts(sims[0], sims[1])
    assert report.window == "timeline"
    max_cycle = max(int(d.name.rsplit("@", 1)[1]) for d in report.deltas)
    assert max_cycle <= short_rec["samples"] * short_rec["interval"]


def test_diff_timeline_handles_missing_record():
    sim = _sim()
    sim.run(max_instructions=20_000)
    art = _artifact(sim)
    bare = _artifact(sim)
    bare.probe_timeline = None
    report = tl.diff_timeline_artifacts(art, bare)
    assert report.deltas == []


# -- exports and rendering ---------------------------------------------------


def test_probe_timeline_to_csv_round_trip(tmp_path):
    sim = _sim()
    sim.run(max_instructions=30_000)
    art = _artifact(sim)
    path = probe_timeline_to_csv(art, tmp_path / "tl.csv")
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "cycle"
    assert header[1:] == sorted(art.probe_timeline["columns"])
    assert len(lines) == 1 + art.probe_timeline["samples"]
    first = lines[1].split(",")
    assert int(first[0]) == art.probe_timeline["interval"]
    retired_at = header.index("core.retired")
    assert int(first[retired_at]) \
        == art.probe_timeline["columns"]["core.retired"][0]
    art.probe_timeline = None
    with pytest.raises(ValueError, match="no probe timeline"):
        probe_timeline_to_csv(art, tmp_path / "tl2.csv")


def test_sparkline_resamples_and_handles_edges():
    assert sparkline([]) == ""
    assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
    line = sparkline([0.0, 1.0])
    assert line[0] == "▁" and line[-1] == "█"
    assert len(sparkline(list(range(1000)), width=32)) == 32


# -- mode-class series (Figures 1 and 5) -------------------------------------


def test_class_share_series_matches_per_cycle_reference():
    from repro.core.stats import service_class

    sim = _sim()
    contexts = sim.processor.contexts
    step = sim.processor.cycle
    per_cycle = []

    def cycle(now):
        # The service a context has open at the end of a cycle is the
        # one that cycle is charged to.
        step(now)
        counts = [0, 0, 0, 0]
        for c in contexts:
            counts[service_class(c.current_service)] += 1
        per_cycle.append(counts)

    sim.processor.cycle = cycle
    sim.run(max_instructions=60_000)
    rows = tl.class_share_series(sim.probe_timeline.to_record())
    assert len(rows) >= 4
    assert any(shares[0] for _, shares in rows)  # user cycles covered
    for i, (end, shares) in enumerate(rows):
        assert end == (i + 1) * INTERVAL
        window = per_cycle[i * INTERVAL:end]
        totals = [sum(column) for column in zip(*window)]
        assert shares == [t / sum(totals) for t in totals]


def test_figures_1_and_5_render_without_probe_timeline():
    from repro.analysis import figures

    sim = Simulation(SpecIntWorkload(), seed=11)
    sim.run(max_instructions=5_000)
    art = _artifact(sim)
    art.probe_timeline = None  # an artifact built without one
    assert tl.class_share_series(art.probe_timeline) == []
    for build in (figures.fig1, figures.fig5):
        out = build(art)
        assert out["data"]["samples"] == []
        assert out["text"].startswith("Figure")


# -- artifact round trip -----------------------------------------------------


def test_artifact_json_round_trip_preserves_record():
    from repro.analysis.artifact import RunArtifact

    sim = _sim()
    sim.run(max_instructions=30_000)
    art = _artifact(sim)
    again = RunArtifact.loads(art.dumps())
    assert again.probe_timeline == art.probe_timeline


# -- live heartbeat merge ----------------------------------------------------


def test_heartbeat_carries_latest_interval_sample():
    from repro.obs.live import Heartbeat, render_sample

    sim = _sim()
    samples = []
    sim.attach_heartbeat(Heartbeat(samples.append, interval=INTERVAL))
    sim.run(max_instructions=40_000)
    merged = [s for s in samples if "sim_ipc" in s]
    assert merged, "no heartbeat sample carried interval telemetry"
    line = render_sample(merged[-1])
    assert "krn" in line
    assert f"IPC {merged[-1]['sim_ipc']:.2f}" in line


# -- CLI ---------------------------------------------------------------------


@pytest.fixture
def small_budgets(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BUDGET_MULT", "0.2")
    experiments.clear_cache()
    yield
    experiments.clear_cache()


def test_cli_timeline_renders_series(small_budgets, capsys):
    assert cli.main(["timeline", "specint-smt-full"]) == 0
    out = capsys.readouterr().out
    assert "ipc" in out and "kernel_share" in out
    assert "sample(s)" in out
    assert any(glyph in out for glyph in "▁▂▃▄▅▆▇█")


def test_cli_timeline_probe_filter_and_exports(small_budgets, tmp_path,
                                               capsys):
    csv_path = tmp_path / "tl.csv"
    json_path = tmp_path / "tl.json"
    assert cli.main(["timeline", "specint-smt-full",
                     "--probe", "ipc", "--csv", str(csv_path),
                     "--json", str(json_path)]) == 0
    out = capsys.readouterr().out
    assert "ipc" in out and "miss.l1d" not in out
    assert csv_path.exists()
    payload = json.loads(json_path.read_text())
    assert payload["record"]["samples"] >= 1
    assert "phases" in payload
    # overwrite guard
    with pytest.raises(SystemExit, match="refusing to overwrite"):
        cli.main(["timeline", "specint-smt-full", "--csv", str(csv_path)])
    with pytest.raises(SystemExit, match="unknown timeline series"):
        cli.main(["timeline", "specint-smt-full", "--probe", "nope"])


def test_cli_timeline_warns_on_truncation(tmp_path, capsys):
    sim = _sim(max_samples=2)
    sim.run(max_instructions=40_000)
    path = tmp_path / "trunc.json"
    path.write_text(_artifact(sim).dumps())
    assert cli.main(["timeline", str(path)]) == 0
    out = capsys.readouterr().out
    assert "sample cap hit" in out and "truncated" in out


def test_cli_diff_timeline_ranks_interval_movers(small_budgets, capsys):
    assert cli.main(["diff", "specint-ss-full", "specint-smt-full",
                     "--timeline"]) == 0
    out = capsys.readouterr().out
    assert "timeline window" in out
    assert "@" in out  # series@cycle entries


def test_cli_diff_timeline_flag_conflicts(small_budgets):
    with pytest.raises(SystemExit, match="mutually exclusive"):
        cli.main(["diff", "a-b-c", "d-e-f", "--timeline", "--flame"])
    with pytest.raises(SystemExit, match="per-kilo"):
        cli.main(["diff", "a-b-c", "d-e-f", "--timeline", "--per-kilo"])


def test_cli_diff_timeline_seeded_noise_bands(small_budgets, tmp_path,
                                             capsys):
    jpath = tmp_path / "tl-diff.json"
    assert cli.main(["diff", "specint-ss-full", "specint-smt-full",
                     "--timeline", "--seeds", "2", "--instructions", "40000",
                     "--workers", "1", "--json", str(jpath)]) == 0
    out = capsys.readouterr().out
    assert "timeline window" in out and "(2 seeds)" in out
    payload = json.loads(jpath.read_text())
    assert payload["seeds"] == 2 and payload["window"] == "timeline"
    deltas = payload["deltas"]
    assert deltas and all("@" in d["name"] for d in deltas)
    assert any(d["band"] > 0 for d in deltas)
    # every entry lies in the sample prefix all four runs share
    records = [tl.timeline_record(experiments.get_run(
        "specint", cpu, "full", instructions=40_000, seed=seed))
        for cpu in ("ss", "smt") for seed in (11, 12)]
    shared = min(r["samples"] for r in records) * records[0]["interval"]
    assert max(int(d["name"].rsplit("@", 1)[1]) for d in deltas) == shared


def test_cli_timeline_names_why_a_run_has_no_samples(tmp_path, monkeypatch,
                                                    capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    experiments.clear_cache()
    art = experiments.get_run("specint", "smt", "full", instructions=20_000,
                              mode="fast")
    experiments.clear_cache()
    assert art.cycles < tl.DEFAULT_TIMELINE_INTERVAL
    path = tmp_path / "short.json"
    path.write_text(art.dumps())
    cause = (f"the run lasted {art.cycles:,} cycles, less than one "
             "8,192-cycle sample interval")
    assert cli.main(["timeline", str(path)]) == 1
    out = capsys.readouterr().out
    assert out == f"specint-smt-full carries no probe timeline: {cause}\n"
    assert cli.main(["diff", str(path), str(path), "--timeline"]) == 0
    out = capsys.readouterr().out
    assert out.count(f"carries no probe timeline: {cause}") == 2
    with pytest.raises(ValueError, match=cause):
        probe_timeline_to_csv(art, path.with_suffix(".csv"))
    art.probe_timeline = None
    assert tl.missing_timeline_cause(art) \
        == "the artifact was built without one"
