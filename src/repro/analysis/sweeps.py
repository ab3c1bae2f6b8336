"""Parameter sweeps over simulations.

A :class:`Sweep` runs one simulation per parameter point and collects a
chosen set of metrics, producing the series behind scaling studies like the
context-count ablation (how Apache throughput grows from the superscalar's
one context to the paper's eight).

::

    from repro.analysis.sweeps import Sweep, context_sweep

    sweep = context_sweep("apache", (1, 2, 4, 8), instructions=200_000)
    for point in sweep.points:
        print(point.value, point.metrics["ipc"])
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis import metrics as M
from repro.analysis.snapshot import capture
from repro.core.config import CPUConfig, MachineConfig
from repro.core.simulator import Simulation
from repro.workloads.apache import ApacheWorkload
from repro.workloads.specint import SpecIntWorkload

#: Metrics collected at every sweep point: name -> fn(window).
DEFAULT_METRICS: dict[str, Callable[[dict], float]] = {
    "ipc": M.ipc,
    "l1i_miss": lambda w: M.miss_rate(w, "L1I"),
    "l1d_miss": lambda w: M.miss_rate(w, "L1D"),
    "l2_miss": lambda w: M.miss_rate(w, "L2"),
    "dtlb_miss": lambda w: M.miss_rate(w, "DTLB"),
    "mispredict": M.cond_mispredict_rate,
    "squash": M.squash_fraction,
    "zero_fetch": M.zero_fetch_share,
}


@dataclass(frozen=True)
class SweepPoint:
    """One parameter value and its measured metrics."""

    value: object
    metrics: dict[str, float]


@dataclass
class Sweep:
    """A completed sweep: label, parameter name, and its points."""

    label: str
    parameter: str
    points: list[SweepPoint] = field(default_factory=list)

    def series(self, metric: str) -> list[tuple[object, float]]:
        """(value, metric) pairs across the sweep."""
        return [(p.value, p.metrics[metric]) for p in self.points]

    def render(self, metric: str = "ipc") -> str:
        """Simple text rendering of one metric's series."""
        lines = [f"{self.label}: {metric} vs {self.parameter}",
                 "-" * 40]
        for value, m in self.series(metric):
            lines.append(f"  {self.parameter}={value}: {m:.3f}")
        return "\n".join(lines)


def run_sweep(
    label: str,
    parameter: str,
    values,
    build: Callable[[object], Simulation],
    instructions: int = 150_000,
    metric_fns: dict[str, Callable[[dict], float]] | None = None,
) -> Sweep:
    """Run ``build(value)`` for every value and collect metrics.

    ``build`` must return a fresh, un-run :class:`Simulation`.
    """
    fns = metric_fns or DEFAULT_METRICS
    sweep = Sweep(label, parameter)
    for value in values:
        sim = build(value)
        sim.run(max_instructions=instructions)
        window = capture(sim)
        sweep.points.append(
            SweepPoint(value, {name: fn(window) for name, fn in fns.items()}))
    return sweep


def _workload(name: str):
    if name == "specint":
        return SpecIntWorkload()
    if name == "apache":
        return ApacheWorkload()
    raise ValueError(f"unknown workload {name!r}")


def build_context_sim(workload: str, n, seed: int = 11) -> Simulation:
    """One context-scaling sweep point."""
    cpu = CPUConfig(
        n_contexts=n,
        fetch_contexts=min(2, n),
        pipeline_stages=7 if n == 1 else 9,
    )
    return Simulation(_workload(workload), machine=MachineConfig(cpu=cpu),
                      seed=seed)


def build_quantum_sim(workload: str, q, seed: int = 11) -> Simulation:
    """One scheduler-quantum sweep point."""
    return Simulation(_workload(workload), seed=seed, quantum=q)


def build_cache_scale_sim(workload: str, scale, seed: int = 11) -> Simulation:
    """One L1/L2-capacity sweep point."""
    from repro.memory.hierarchy import MemoryConfig

    base = MemoryConfig()
    memory = MemoryConfig(
        l1i_size=int(base.l1i_size * scale),
        l1d_size=int(base.l1d_size * scale),
        l2_size=int(base.l2_size * scale),
    )
    return Simulation(_workload(workload),
                      machine=MachineConfig(memory=memory), seed=seed)


def context_sweep(workload: str, contexts=(1, 2, 4, 8),
                  instructions: int = 150_000, seed: int = 11) -> Sweep:
    """Throughput and miss rates vs hardware context count."""
    return run_sweep(f"{workload} context scaling", "contexts", contexts,
                     lambda n: build_context_sim(workload, n, seed),
                     instructions)


def quantum_sweep(workload: str, quanta=(5_000, 20_000, 80_000),
                  instructions: int = 150_000, seed: int = 11) -> Sweep:
    """Scheduler time-slice sensitivity."""
    return run_sweep(f"{workload} quantum", "quantum", quanta,
                     lambda q: build_quantum_sim(workload, q, seed),
                     instructions)


def cache_scale_sweep(workload: str, scales=(0.5, 1.0, 2.0),
                      instructions: int = 150_000, seed: int = 11) -> Sweep:
    """L1 capacity sensitivity (scales the default scaled geometry)."""
    return run_sweep(f"{workload} cache scale", "scale", scales,
                     lambda x: build_cache_scale_sim(workload, x, seed),
                     instructions)
