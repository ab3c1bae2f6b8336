"""Tests for live run telemetry (repro.obs.live): heartbeats, sinks, and
sweep-progress aggregation."""

import io
import json

import pytest

from repro.analysis import experiments, service
from repro.analysis.snapshot import capture
from repro.obs.live import (
    Heartbeat,
    JsonlSink,
    ProgressAggregator,
    StateFileSink,
    TtyProgressSink,
    render_sample,
)


@pytest.fixture(autouse=True)
def _tiny_isolated(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.setenv("REPRO_BUDGET_MULT", "0.005")
    experiments.clear_cache()
    yield
    experiments.clear_cache()


class _Stats:
    def __init__(self, retired):
        self.retired = retired


# -- Heartbeat --------------------------------------------------------------

def test_heartbeat_interval_rounds_up_to_power_of_two():
    beats = []
    hb = Heartbeat(beats.append, interval=3)
    assert hb.interval == 4 and hb.mask == 3
    assert Heartbeat(beats.append, interval=1024).interval == 1024
    assert Heartbeat(beats.append, interval=1).interval == 1
    with pytest.raises(ValueError):
        Heartbeat(beats.append, interval=0)


def test_heartbeat_sample_fields_and_rolling_rates():
    beats = []
    hb = Heartbeat(beats.append, interval=64, target_instructions=1000,
                   label="specint-smt-full")
    hb.beat(64, _Stats(128))
    hb.beat(128, _Stats(400))
    first, second = beats
    assert first["label"] == "specint-smt-full"
    assert first["cycle"] == 64 and first["retired"] == 128
    assert first["ipc"] == pytest.approx(2.0)
    assert first["pct"] == pytest.approx(12.8)
    assert first["target"] == 1000
    # The rolling window covers only the beats since the last sample.
    assert second["ipc"] == pytest.approx(400 / 128)
    assert second["rolling_ipc"] == pytest.approx((400 - 128) / 64)
    assert hb.beats == 2


def test_heartbeat_close_is_safe_without_sink_close():
    hb = Heartbeat(lambda s: None)
    hb.close()  # plain callables have no close(); must not raise

    closed = []

    class Sink:
        def __call__(self, sample):
            pass

        def close(self):
            closed.append(True)

    Heartbeat(Sink()).close()
    assert closed == [True]


def test_render_sample_is_human_readable():
    line = render_sample({"label": "apache-smt-full", "cycle": 2048,
                          "retired": 4096, "target": 10000, "pct": 41.0,
                          "rolling_ipc": 2.5, "ips": 1_500_000.0,
                          "eta_s": 75.0, "elapsed_s": 1.0})
    assert "apache-smt-full" in line
    assert "4,096/10,000 instr" in line
    assert "IPC 2.50" in line
    assert "1.5M instr/s" in line
    assert "ETA 01:15" in line


# -- attached to a real simulation ------------------------------------------

def test_heartbeat_does_not_perturb_simulation_results():
    from repro.analysis.experiments import build_simulation

    plain = build_simulation("specint", "smt", "full", seed=7)
    plain.run(max_instructions=4_000)

    beats = []
    observed = build_simulation("specint", "smt", "full", seed=7)
    observed.attach_heartbeat(Heartbeat(beats.append, interval=256))
    observed.run(max_instructions=4_000)

    assert beats  # the heartbeat actually fired
    assert capture(observed) == capture(plain)


def test_execute_spec_with_heartbeat_sets_target_and_closes():
    sink_closed = []

    class Sink:
        def __init__(self):
            self.samples = []

        def __call__(self, sample):
            self.samples.append(sample)

        def close(self):
            sink_closed.append(True)

    sink = Sink()
    hb = Heartbeat(sink, interval=256)
    spec = experiments.run_spec("specint", "smt", "full")
    art = experiments.execute_spec(spec, heartbeat=hb)
    assert hb.target == spec["instructions"]
    assert sink.samples and sink_closed == [True]
    assert art.fingerprint  # a real artifact came back


# -- sinks ------------------------------------------------------------------

def test_jsonl_sink_appends_one_object_per_beat(tmp_path):
    path = tmp_path / "beats.jsonl"
    sink = JsonlSink(path)
    sink({"cycle": 1})
    sink({"cycle": 2})
    sink.close()
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines == [{"cycle": 1}, {"cycle": 2}]


def test_state_file_sink_keeps_only_latest_sample(tmp_path):
    path = tmp_path / "state.json"
    refreshes = []
    sink = StateFileSink(path, on_write=lambda: refreshes.append(1))
    sink({"cycle": 1, "retired": 10})
    sink({"cycle": 2, "retired": 20})
    assert json.loads(path.read_text()) == {"cycle": 2, "retired": 20}
    assert len(refreshes) == 2


def test_tty_sink_overwrites_with_carriage_returns():
    buf = io.StringIO()
    sink = TtyProgressSink(buf)
    sink.write_line("long first line")
    sink.write_line("short")
    sink.close()
    text = buf.getvalue()
    assert text.startswith("\rlong first line")
    # The shorter second line pads over the first one's remains.
    assert "\rshort" + " " * (len("long first line") - len("short")) in text
    assert text.endswith("\n")


# -- sweep aggregation ------------------------------------------------------

def test_progress_aggregator_folds_worker_states(tmp_path):
    buf = io.StringIO()
    agg = ProgressAggregator(tmp_path, total_runs=3,
                             total_instructions=3000, stream=buf)
    StateFileSink(agg.path_for(0))({"retired": 500, "ips": 100.0})
    StateFileSink(agg.path_for(2))({"retired": 1000, "ips": 200.0})
    (tmp_path / "worker-1.json").write_text("{torn write")  # skipped

    combined = agg.aggregate()
    assert combined["active"] == 2 and combined["runs"] == 3
    assert combined["retired"] == 1500
    assert combined["ips"] == pytest.approx(300.0)
    assert combined["pct"] == pytest.approx(50.0)

    line = agg.render()
    assert "2/3 runs" in line and "1,500/3,000 instr" in line
    agg.refresh(final=True)
    assert buf.getvalue().endswith("\n")


def test_aggregator_marks_dead_workers_stale(tmp_path):
    import os

    agg = ProgressAggregator(tmp_path, total_runs=2,
                             total_instructions=2000, stale_after=30.0)
    StateFileSink(agg.path_for(0))({"retired": 500, "ips": 100.0})
    StateFileSink(agg.path_for(1))({"retired": 200, "ips": 50.0})
    # Backdate worker 1's heartbeat file: the worker died mid-run.
    dead = agg.path_for(1)
    os.utime(dead, (os.stat(dead).st_atime, os.stat(dead).st_mtime - 120))

    combined = agg.aggregate()
    assert combined["active"] == 1 and combined["stale"] == 1
    # Persisted work still counts toward progress; the dead worker's
    # throughput does not.
    assert combined["retired"] == 700
    assert combined["ips"] == pytest.approx(100.0)
    assert "1 stalled" in agg.render()


def test_aggregator_staleness_can_be_disabled(tmp_path):
    import os

    agg = ProgressAggregator(tmp_path, total_runs=1,
                             total_instructions=1000, stale_after=None)
    StateFileSink(agg.path_for(0))({"retired": 100, "ips": 10.0})
    path = agg.path_for(0)
    os.utime(path, (os.stat(path).st_atime, os.stat(path).st_mtime - 3600))
    combined = agg.aggregate()
    assert combined["active"] == 1 and combined["stale"] == 0
    assert "stalled" not in agg.render()


def test_aggregator_finished_runs_count_but_never_stall(tmp_path):
    import os

    agg = ProgressAggregator(tmp_path, total_runs=2,
                             total_instructions=2000, stale_after=30.0)
    agg.finish("a", 1000)
    StateFileSink(agg.path_for("b"))({"retired": 400, "ips": 50.0})
    done = agg.path_for("a")
    os.utime(done, (os.stat(done).st_atime, os.stat(done).st_mtime - 120))

    combined = agg.aggregate()
    assert combined["active"] == 1 and combined["stale"] == 0
    assert combined["retired"] == 1400 and combined["pct"] == 70.0
    assert "1/2 runs" in agg.render() and "stalled" not in agg.render()


def _final_line(err: str) -> str:
    return err.rstrip("\n").split("\r")[-1]


def test_run_many_progress_serial_path(capsys):
    result = service.run_many([("specint", "smt", "full")], max_workers=1,
                              isolation="inline", progress=True)
    assert set(result) == {"specint-smt-full"}
    target = result["specint-smt-full"].spec["instructions"]
    # The aggregate line went to stderr and was finished with a newline;
    # its last state shows the sweep's totals, all of them done.
    err = capsys.readouterr().err
    assert err.endswith("\n")
    line = _final_line(err)
    assert line.startswith("0/1 runs | 100.0% | ")
    assert f"{target:,}/{target:,} instr" in line


@pytest.mark.skipif(not service.processes_available(),
                    reason="no worker processes here")
def test_run_many_progress_keeps_finished_runs(capsys):
    # Two runs share one worker slot: the first run's work must still
    # count once the second one has started.
    specs = [("specint", "smt", "app"), ("specint", "ss", "app")]
    result = service.run_many(specs, max_workers=1, isolation="process",
                              progress=True)
    assert all(r.ok and r.attempts == 1 for r in result.values())
    target = sum(r.spec["instructions"] for r in result.values())
    line = _final_line(capsys.readouterr().err)
    assert line.startswith("0/2 runs | 100.0% | ")
    assert f"{target:,}/{target:,} instr" in line


def test_aggregator_prune_removes_previous_incarnation_files(tmp_path):
    agg = ProgressAggregator(tmp_path, total_runs=2,
                             total_instructions=2000)
    StateFileSink(agg.path_for(0))({"retired": 500, "ips": 100.0})
    (tmp_path / "worker-7.json").write_text("{}")  # dead incarnation's
    (tmp_path / "journal.jsonl").write_text("keep")  # not a worker file
    removed = agg.prune()
    assert removed == ["worker-0.json", "worker-7.json"]
    assert (tmp_path / "journal.jsonl").exists()
    assert agg.aggregate()["active"] == 0
    assert agg.prune() == []  # idempotent
