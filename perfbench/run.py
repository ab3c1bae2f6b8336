"""Repository benchmark: host speed of the simulator on the paths people run.

Run from the repository root::

    python3 perfbench/run.py --workload specint --seed 1 --seconds 20 --trace 0

Every input is derived from ``--seed``.  Workloads:

``specint``, ``apache``
    ``repro run`` of one detailed SMT simulation with the OS executed, on
    a cache miss: fixed slices of retired instructions through the
    pipeline, then the artifact freeze and store put.  The two simulate
    opposite mixes: specint is timed in its steady state, which is
    mostly user code (the machine is first fast-forwarded past its
    start-up, untimed), apache from boot, where ~90% of simulated cycles
    are kernel and network-stack code.
``sampled``
    A cold sampled specint run (``repro run --mode sampled``): build,
    fast functional warm-up, 95:5 interval sampling, extrapolation, store
    put.  Most instructions go through the fast tier, not the pipeline.
``sweep``
    A ``repro serve`` sweep of the eight canonical configurations at a
    small budget into a fresh store: job journal, store lookups and
    writes, building and running short simulations, freezing artifacts.
    Jobs run inline, so one tracer sees every layer.

How it times: one *pass* is a fixed list of timed units -- a build, a
slice, a freeze, a sampled run, a sweep job -- and passes of identical
work repeat until ``--seconds`` are up (at least ``MIN_PASSES``).  The
host is shared: other tenants slow one CPU or both for a fraction of a
second to tens of seconds, and the whole host drifts by ~10% over
minutes.  Before each unit the process moves off a CPU that probes slow
(``placement.py``), and each unit is charged its fastest time over the
passes.  ``sim_kips`` is one pass's simulated instructions over the sum
of those times.

Host times are reported as they would read on a host whose probe loop
takes ``REF_PROBE_S``: each is multiplied by ``REF_PROBE_S`` over the
probe's typical time in this run.  On the 2-vCPU host the benchmark was
built on, that halved the run-to-run spread of ``sim_kips`` (from 5-7%
to 2.5-3% over ten seeds); the unscaled speed is printed on standard
error.

``setup_s`` is the median of ``SETUP_REPEATS`` cold starts, each a fresh
interpreter importing the ``repro`` command line and building the
workload's machine (``coldstart.py``).  ``peak_rss_mb`` is the peak
resident memory of the benchmark process.

``--trace 1`` wraps the layers listed in ``layers.py`` in host-time spans
and prints per-layer metrics instead: each layer's calls and self time
per thousand simulated instructions.

Outputs are checked after the timed part: every pass retires its budget
and stores artifacts identical to the first pass's, stored artifacts
read back unchanged, call-path attribution reconciles with the
per-service cycle counters, and a finished sweep resubmitted runs
nothing.  The last line of standard output is one JSON object with
``correct``, ``attempted`` (timed units), ``failed`` (quarantined sweep
jobs) and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
import time

from placement import Placement

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

#: Scratch directory (inside the checkout) for stores and journals.
WORK_DIR = ".perfbench_work"

WORKLOADS = ("specint", "apache", "sampled", "sweep")

#: Passes of identical work run at least this often, whatever the time.
MIN_PASSES = 3

#: Cold starts per run; their median is ``setup_s``.
SETUP_REPEATS = 9

#: Host times are scaled to a host on which the placement probe takes
#: this long (see ``placement.py``).
REF_PROBE_S = 60e-6

#: One detailed pass: build the machine and fast-forward it (untimed),
#: then time slices of retired instructions and the artifact freeze.
#: specint is fast-forwarded past its kernel-heavy start-up into its
#: user-dominated steady state; apache starts from boot, as its start-up
#: is as kernel-heavy as its steady state and warming it takes seconds.
WARMUP = {"specint": 400_000, "apache": 0}
SLICE = 5_000
SLICES = 30

#: One sampled pass: a cold sampled run, a fast warm-up and then 95:5
#: fast:detailed legs.
SAMPLED_INSTRUCTIONS = 800_000
SAMPLED_WARMUP = 50_000
SAMPLED_LEGS = (19_000, 1_000)

#: The eight canonical (workload, cpu, os_mode) configurations behind
#: the paper's tables and figures, each swept at a small budget.
SWEEP_CONFIGS = (
    ("specint", "smt", "full"), ("specint", "smt", "app"),
    ("specint", "ss", "full"), ("specint", "ss", "app"),
    ("apache", "smt", "full"), ("apache", "smt", "omit"),
    ("apache", "ss", "full"), ("apache", "ss", "omit"),
)
SWEEP_INSTRUCTIONS = 12_000


class Bench:
    """Unit times, layer totals and failed checks of one run."""

    def __init__(self, placement, tracer=None) -> None:
        self.placement = placement
        self.tracer = tracer
        #: Seconds of each timed unit, one list per pass.
        self.passes: list[list[float]] = []
        #: Per-layer calls and self seconds inside timed units.
        self.calls = [0] * len(tracer.cells) if tracer else []
        self.self_s = [0.0] * len(tracer.cells) if tracer else []
        self.failed = 0
        self.errors: list[str] = []
        self._since = 0.0
        self._layers: list | None = None

    def start(self) -> None:
        """Open a timed unit (on the fastest CPU)."""
        self.placement.check()
        self._layers = self.tracer.totals() if self.tracer else None
        self._since = time.perf_counter()

    def close(self) -> None:
        """Close the open unit."""
        self.passes[-1].append(time.perf_counter() - self._since)
        if self.tracer is not None:
            layers = self.tracer.totals()
            for k, ((c0, s0), (c1, s1)) in enumerate(zip(self._layers,
                                                         layers)):
                self.calls[k] += c1 - c0
                self.self_s[k] += s1 - s0

    def mark(self) -> None:
        """Close the open unit and open the next one."""
        self.close()
        self.start()

    def timed(self, fn, *args, **kwargs):
        """Run ``fn`` as one timed unit and return its result."""
        self.start()
        result = fn(*args, **kwargs)
        self.close()
        return result

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.errors.append(message)

    def fastest_pass(self) -> float:
        """Seconds of one pass with every unit at its fastest."""
        return sum(min(unit) for unit in zip(*self.passes))


def repeat(bench: Bench, seconds: float, one_pass) -> list:
    """Run ``one_pass(k)`` for k = 0, 1, ... until *seconds* are up and
    at least ``MIN_PASSES`` passes ran.  Every pass must time the same
    units and return the same artifacts; returns the first pass's."""
    first: list = []
    expected = None
    deadline = time.perf_counter() + seconds
    while len(bench.passes) < MIN_PASSES or time.perf_counter() < deadline:
        k = len(bench.passes)
        bench.passes.append([])
        artifacts = one_pass(k)
        dump = [a.to_json_dict() for a in artifacts]
        if expected is None:
            first, expected = artifacts, dump
        else:
            bench.check(dump == expected,
                        f"pass {k} did not reproduce the first pass's "
                        "artifacts")
    bench.check(len(set(map(len, bench.passes))) == 1,
                "passes timed different numbers of units")
    return first


def check_attribution(bench: Bench, window: dict, label: str) -> None:
    """Call-path cycles grouped by leaf service must equal the flat
    per-service cycle counters of the same window."""
    leaves: dict[str, int] = {}
    for path, cycles in window["attribution"].items():
        leaf = path.rsplit(";", 1)[-1]
        leaves[leaf] = leaves.get(leaf, 0) + cycles
    flat = {k: v for k, v in window["service_cycles"].items() if v}
    bench.check({k: v for k, v in leaves.items() if v} == flat,
                f"{label}: call-path attribution does not reconcile with "
                "the per-service cycle counters")


def check_stored(bench: Bench, store, artifact, label: str) -> None:
    stored = store.get(artifact.fingerprint)
    bench.check(stored is not None
                and stored.to_json_dict() == artifact.to_json_dict(),
                f"{label}: the stored artifact does not read back unchanged")


def detailed(bench: Bench, workload: str, seed: int, seconds: float,
             work: pathlib.Path) -> list:
    from repro.analysis import experiments
    from repro.analysis.snapshot import capture, diff
    from repro.analysis.store import RunStore
    from repro.core.engine import fast_forward

    warmup = WARMUP[workload]

    def one_pass(k: int) -> list:
        sim = experiments.build_simulation(workload, "smt", "full",
                                           seed=seed)
        if warmup:
            fast_forward(sim, warmup)
        start = capture(sim)
        base = sim.stats.retired  # a fast-forward may overshoot *warmup*
        for s in range(1, SLICES + 1):
            bench.timed(sim.run, max_instructions=base + s * SLICE)

        def freeze():
            total = diff(capture(sim), start)
            artifact = sim.to_artifact(total, total, total, spec_extra={
                "workload": workload, "cpu": "smt", "os_mode": "full",
                "instructions": SLICES * SLICE, "seed": seed,
                "warmup": warmup})
            RunStore(work / f"pass-{k}").put(artifact)
            return artifact

        return [bench.timed(freeze)]

    artifacts = repeat(bench, seconds, one_pass)
    (artifact,) = artifacts
    bench.check(artifact.total["retired"] >= SLICES * SLICE,
                f"retired {artifact.total['retired']} < {SLICES * SLICE}")
    check_stored(bench, RunStore(work / "pass-0"), artifact, workload)
    check_attribution(bench, artifact.total, workload)
    return artifacts


def sampled(bench: Bench, seed: int, seconds: float,
            work: pathlib.Path) -> list:
    from repro.analysis import experiments
    from repro.analysis.store import RunStore
    from repro.core import engine
    from repro.core.simulator import Simulation

    spec = experiments.run_spec(
        "specint", "smt", "full", SAMPLED_INSTRUCTIONS, seed,
        mode="sampled", warmup=SAMPLED_WARMUP, sample=SAMPLED_LEGS)

    # Every leg of the run's plan starts a new timed unit, so that the
    # run is timed in pieces of ~50 ms rather than as one.
    legs = [(engine, "fast_forward"), (Simulation, "run")]
    originals = [getattr(owner, name) for owner, name in legs]

    def at_leg(fn):
        def leg(*args, **kwargs):
            bench.mark()
            return fn(*args, **kwargs)
        return leg

    def one_pass(k: int) -> list:
        store = RunStore(work / f"pass-{k}")

        def one_run():
            artifact = experiments.execute_spec(spec)
            store.put(artifact)
            return artifact

        return [bench.timed(one_run)]

    for (owner, name), fn in zip(legs, originals):
        setattr(owner, name, at_leg(fn))
    try:
        artifacts = repeat(bench, seconds, one_pass)
    finally:
        for (owner, name), fn in zip(legs, originals):
            setattr(owner, name, fn)
    (artifact,) = artifacts
    budget = SAMPLED_WARMUP + SAMPLED_INSTRUCTIONS
    retired = artifact.total["retired"]
    bench.check(retired >= budget, f"sampled run retired {retired} < {budget}")
    bench.check(bool((artifact.sampling or {}).get("extrapolated")),
                "the sampled run has no extrapolation")
    check_attribution(bench, artifact.steady, "sampled steady window")
    check_attribution(bench, artifact.total, "sampled total window")
    check_stored(bench, RunStore(work / "pass-0"), artifact, "sampled")
    return artifacts


def sweep(bench: Bench, seed: int, seconds: float,
          work: pathlib.Path) -> list:
    from repro.analysis import experiments
    from repro.analysis.artifact import run_fingerprint
    from repro.analysis.service import run_service
    from repro.analysis.store import RunStore

    specs = [experiments.run_spec(wl, cpu, os_mode, SWEEP_INSTRUCTIONS,
                                  seed * 1_000 + j)
             for j, (wl, cpu, os_mode) in enumerate(SWEEP_CONFIGS)]

    def one_pass(k: int) -> list:
        store = RunStore(work / f"pass-{k}")
        # Units: service start-up plus the first job, each later job,
        # and the shutdown after the last one.
        bench.start()
        report = run_service(specs, store=store, isolation="inline",
                             on_complete=lambda job: bench.mark())
        bench.close()
        # Each pass stands for one `repro serve` process.
        experiments.clear_cache()
        bench.failed += report.counts.get("quarantined", 0)
        bench.check(report.counts.get("done") == len(specs),
                    f"sweep pass {k} finished {report.counts}")
        artifacts = [store.get(run_fingerprint(spec)) for spec in specs]
        bench.check(None not in artifacts,
                    f"sweep pass {k} left a job without a readable artifact")
        return [a for a in artifacts if a is not None]

    artifacts = repeat(bench, seconds, one_pass)
    for spec, artifact in zip(specs, artifacts):
        label = f"{spec['workload']}-{spec['cpu']}-{spec['os_mode']}"
        retired = artifact.total["retired"]
        bench.check(retired >= SWEEP_INSTRUCTIONS,
                    f"{label} retired {retired} < {SWEEP_INSTRUCTIONS}")
        check_attribution(bench, artifact.total, label)

    # A second incarnation over a finished journal must execute nothing.
    rerun: list = []
    report = run_service(specs, store=RunStore(work / "pass-0"),
                         isolation="inline", on_complete=rerun.append)
    bench.check(not rerun and report.counts.get("done") == len(specs),
                "resubmitting a finished sweep executed work again")
    return artifacts


def cold_starts(placement, workload: str, seed: int) -> list[float]:
    machine = workload if workload in ("specint", "apache") else "specint"
    times = []
    for _ in range(SETUP_REPEATS):
        placement.check()  # the child inherits this process's CPU
        out = subprocess.run(
            [sys.executable, str(HERE / "coldstart.py"), machine, str(seed)],
            cwd=ROOT, capture_output=True, text=True, check=True,
            timeout=60)
        times.append(float(out.stdout.split()[-1]))
    return times


def end_to_end_metrics(bench: Bench, instructions: int, to_ref: float,
                       setup: list[float]) -> dict:
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "sim_kips": {"value": instructions / (bench.fastest_pass() * to_ref)
                     / 1e3, "unit": "kinstr/s"},
        "setup_s": {"value": statistics.median(setup) * to_ref, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_kb / 1024, "unit": "MB"},
    }


def layer_metrics(bench: Bench, instructions: int, to_ref: float) -> dict:
    """Each layer's calls and self time per simulated kinstr.

    Calls are summed over all passes.  Self time splits the traced cost
    per kinstr (units at their fastest and scaled, as for ``sim_kips``)
    by each layer's share of all traced unit time; host time outside
    every layer span is reported as ``loop``.
    """
    from layers import LAYERS, LOOP

    kinstr = instructions * len(bench.passes) / 1e3
    wall = sum(map(sum, bench.passes))
    us_per_kinstr = bench.fastest_pass() * to_ref * 1e9 / instructions
    shares = {layer: self_s / wall
              for layer, self_s in zip(LAYERS, bench.self_s)}
    shares[LOOP] = max(0.0, 1.0 - sum(shares.values()))
    metrics = {f"{layer}.us_per_kinstr": {"value": share * us_per_kinstr,
                                          "unit": "us/kinstr"}
               for layer, share in shares.items()}
    for layer, calls in zip(LAYERS, bench.calls):
        metrics[f"{layer}.calls_per_kinstr"] = {"value": calls / kinstr,
                                                "unit": "calls/kinstr"}
    return metrics


def measure(args, placement, work: pathlib.Path) -> dict:
    # Set-up first, while this process is idle; a traced run skips it.
    setup = ([] if args.trace
             else cold_starts(placement, args.workload, args.seed))
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    bench = Bench(placement, tracer)
    if args.workload in ("specint", "apache"):
        outputs = detailed(bench, args.workload, args.seed, args.seconds,
                           work)
    elif args.workload == "sampled":
        outputs = sampled(bench, args.seed, args.seconds, work)
    else:
        outputs = sweep(bench, args.seed, args.seconds, work)
    if tracer is not None:
        tracer.uninstall()
    instructions = sum(a.total["retired"] for a in outputs)
    to_ref = REF_PROBE_S / placement.probe_time()
    totals = [sum(p) for p in bench.passes]
    print(f"perfbench: {len(totals)} passes of {len(bench.passes[0])} units "
          f"and {instructions} instructions; pass seconds "
          f"{min(totals):.2f}..{max(totals):.2f}, fastest units "
          f"{bench.fastest_pass():.2f}, unscaled "
          f"{instructions / bench.fastest_pass() / 1e3:.2f} kinstr/s; "
          f"{placement.moves} CPU moves, probe "
          f"{placement.probe_time() * 1e6:.1f} us", file=sys.stderr)
    for message in bench.errors:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    return {
        "correct": not bench.errors and bench.failed == 0,
        "attempted": sum(map(len, bench.passes)),
        "failed": bench.failed,
        "metrics": (layer_metrics(bench, instructions, to_ref) if tracer
                    else end_to_end_metrics(bench, instructions, to_ref,
                                            setup)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure the simulator's host speed on one workload.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # Inputs come from --seed alone: ignore budget scaling and fault plans
    # inherited from the environment, and keep every store in the checkout.
    for name in ("REPRO_BUDGET_MULT", "REPRO_FAULT_PLAN"):
        os.environ.pop(name, None)
    work = ROOT / WORK_DIR / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(work / "store")
    sys.path.insert(0, str(ROOT / "src"))
    placement = Placement()
    try:
        result = measure(args, placement, work)
    finally:
        placement.release()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's directory is still in use
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
