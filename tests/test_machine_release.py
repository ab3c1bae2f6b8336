"""A finished machine is freed by reference counting.

A :class:`~repro.core.simulator.Simulation` drops its machine's
reference cycles (:meth:`~repro.core.simulator.Simulation.close`) when
its last reference goes, and a job also closes it explicitly.  These
tests run each job with the cyclic garbage collector disabled: once the
job returns, the machine, its L2 cache and its kernel code model must
already be gone, and a collection must find no simulator object left
for it.  A new reference to the ``Simulation`` from inside the machine
(a probe closure over it, a stored bound method) would keep it alive
and fail them.
"""

import gc
import os
import pathlib
import subprocess
import sys
import weakref

import pytest

from repro import cli, faults
from repro.analysis import experiments, sweeps
from repro.analysis.snapshot import capture, diff
from repro.core.engine import fast_forward
from repro.core.simulator import NoProgressError, Simulation
from repro.net.packets import Packet
from repro.workloads.specint import SpecIntWorkload


@pytest.fixture(autouse=True)
def _disarmed():
    faults.clear()
    yield
    faults.clear()


def _machine_refs(sim) -> list:
    return [weakref.ref(obj) for obj in
            (sim, sim.hierarchy.l2, sim.os.kernel_text)]


@pytest.fixture
def built(monkeypatch):
    """Weak references to every machine ``execute_spec`` builds."""
    refs: list = []
    build = experiments.build_simulation

    def watched(*args, **kwargs):
        sim = build(*args, **kwargs)
        refs.append(_machine_refs(sim))
        return sim

    monkeypatch.setattr(experiments, "build_simulation", watched)
    return refs


def _run_uncollected(job, refs: list) -> list[str]:
    """Run *job* with the collector off and check that every machine in
    *refs* died with it; return the simulator types a collection then
    finds unreachable."""
    gc.collect()
    gc.disable()
    try:
        job()
        assert refs
        for machine in refs:
            assert [ref() is None for ref in machine] == [True] * 3
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
    finally:
        gc.set_debug(0)
        gc.enable()
    garbage = {type(obj) for obj in gc.garbage}
    gc.garbage.clear()
    return sorted(f"{t.__module__}.{t.__qualname__}" for t in garbage
                  if t.__module__.startswith("repro"))


@pytest.mark.parametrize("workload,cpu,os_mode", [
    ("apache", "smt", "full"),
    ("specint", "smt", "full"),
    ("specint", "smt", "app"),
    ("apache", "smt", "omit"),
    ("apache", "ss", "full"),
])
def test_detailed_job_frees_its_machine(built, workload, cpu, os_mode):
    spec = experiments.run_spec(workload, cpu, os_mode, 4_000, 11)
    assert _run_uncollected(lambda: experiments.execute_spec(spec),
                            built) == []


def test_sampled_job_frees_its_machine(built):
    spec = experiments.run_spec("specint", "smt", "full", 8_000, 11,
                                mode="sampled", warmup=3_000,
                                sample=(2_000, 1_000))
    assert _run_uncollected(lambda: experiments.execute_spec(spec),
                            built) == []


def test_stalled_job_frees_its_machine(built):
    spec = experiments.run_spec("specint", "smt", "app", 2_000, 31)
    faults.install(faults.FaultPlan(
        sites=(faults.FaultSite("sim.stall", arg=2_000),)), env=False)
    raised = []

    def job():
        try:
            experiments.execute_spec(spec)
        except NoProgressError:
            raised.append(True)

    assert _run_uncollected(job, built) == []
    assert raised == [True]


def test_sweep_point_frees_its_machine():
    refs: list = []

    def build(n):
        sim = sweeps.build_context_sim("apache", n)
        refs.append(_machine_refs(sim))
        return sim

    points = []

    def job():
        sweep = sweeps.run_sweep("release", "contexts", (2,), build,
                                 instructions=3_000)
        points.extend(sweep.points)

    assert _run_uncollected(job, refs) == []
    assert points[0].metrics["ipc"] > 0


def test_pending_interrupt_does_not_keep_a_closed_machine():
    # A posted interrupt waits in the kernel's queue until a context can
    # take it, and its effect closes over the device, which points at
    # the kernel.  Here one is caught between the NIC's post and the
    # kernel's dispatch.
    sim = experiments.build_simulation("apache", "smt", "full")
    sim.run(max_instructions=2_000)
    nic = sim.workload.stack.nic
    nic.inject(Packet(1, 40, "ack"))
    nic.tick(1 << 40)  # posts; only the kernel's next tick delivers
    assert sim.os.interrupts.pending
    refs = [_machine_refs(sim)]
    machines = [sim]
    del sim, nic
    assert _run_uncollected(lambda: machines.pop().close(), refs) == []


def test_close_is_idempotent_and_a_closed_machine_cannot_run():
    sim = experiments.build_simulation("specint", "smt", "full")
    result = sim.run(max_instructions=500)
    sim.close()
    sim.close()
    assert sim.closed
    assert result.stats.retired >= 500  # counters stay readable
    with pytest.raises(RuntimeError, match="closed"):
        sim.run(max_instructions=1_000)
    with pytest.raises(RuntimeError, match="closed"):
        fast_forward(sim, 1_000)


def _detailed_pass(workload: str, warmup: int):
    """One pass shaped like perfbench's specint and apache passes: build,
    fast-forward, run slices, freeze the artifact, and never close."""
    sim = experiments.build_simulation(workload, "smt", "full", seed=1)
    if warmup:
        fast_forward(sim, warmup)
    start = capture(sim)
    base = sim.stats.retired
    for s in range(1, 4):
        sim.run(max_instructions=base + s * 1_000)
    total = diff(capture(sim), start)
    return sim.to_artifact(total, total, total,
                           spec_extra={"workload": workload})


@pytest.mark.parametrize("workload,warmup", [("specint", 20_000),
                                             ("apache", 0)])
def test_dropped_machine_frees_itself(built, workload, warmup):
    artifacts = []
    assert _run_uncollected(
        lambda: artifacts.append(_detailed_pass(workload, warmup)),
        built) == []
    assert artifacts[0].total["retired"] >= 3_000


@pytest.mark.parametrize("command,printed", [
    (["trace", "--out", "{out}"], "wrote"),
    (["profile"], "instructions in"),
], ids=["trace", "profile"])
def test_cli_trace_and_profile_free_their_machine(built, tmp_path, capsys,
                                                  command, printed):
    argv = [arg.format(out=tmp_path / "trace.json") for arg in command]
    argv += ["apache", "--instructions", "2000"]
    codes = []
    assert _run_uncollected(lambda: codes.append(cli.main(argv)),
                            built) == []
    assert codes == [0]
    assert printed in capsys.readouterr().out


def test_rebinding_frees_the_previous_machine(built):
    def job():
        sim = experiments.build_simulation("specint", "smt", "full", seed=1)
        sim.run(max_instructions=1_000)
        sim = experiments.build_simulation("specint", "smt", "full", seed=2)
        first, second = built
        assert [ref() is None for ref in first] == [True] * 3
        assert [ref() is None for ref in second] == [False] * 3
        sim.run(max_instructions=1_000)

    assert _run_uncollected(job, built) == []
    assert len(built) == 2


def test_one_liner_result_stays_readable_after_release():
    gc.collect()
    gc.disable()
    try:
        result = Simulation(SpecIntWorkload(), seed=3).run(
            max_instructions=1_000)
        # The machine is already released: the kernel holds no link
        # back to itself, yet every counter still reads.
        assert all(stream.os is None for stream in result.os.streams)
        assert result.stats.retired >= 1_000 and result.cycles > 0
        assert 0 < result.ipc == result.stats.retired / result.stats.cycles
        assert sum(result.hierarchy.l2.stats.accesses) > 0
        assert result.os.threads_by_tid
        refs = [weakref.ref(obj) for obj in
                (result.os, result.hierarchy.l2, result.os.kernel_text)]
        del result
        assert [ref() is None for ref in refs] == [True] * 3
    finally:
        gc.enable()


def test_machine_in_a_module_global_is_released_cleanly_at_exit():
    # At interpreter exit the finalizer releases a machine that is still
    # alive, before modules are torn down; under -X dev a failure there
    # would print "Exception ignored" on stderr.
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    script = ("from repro.analysis import experiments\n"
              "SIM = experiments.build_simulation('apache', 'smt', 'full')\n"
              "SIM.run(max_instructions=1_000)\n")
    proc = subprocess.run([sys.executable, "-X", "dev", "-c", script],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert (proc.returncode, proc.stderr) == (0, "")
