"""Workload protocol."""

from __future__ import annotations

import abc
import random

from repro.memory.hierarchy import MemoryHierarchy
from repro.os_model.kernel import MiniDUX


class Workload(abc.ABC):
    """Something that can be booted onto a simulated machine.

    ``setup`` creates processes, kernel threads, and devices on the given
    MiniDUX instance.  A workload instance must not be shared between
    simulations -- construct a fresh one per :class:`~repro.core.Simulation`.
    """

    name: str = "workload"

    @abc.abstractmethod
    def setup(self, os: MiniDUX, hierarchy: MemoryHierarchy, rng: random.Random) -> None:
        """Instantiate the workload on *os*."""

    def warmed_up(self, os: MiniDUX) -> bool:
        """True once the workload has left its start-up phase.

        The analysis layer snapshots counters at this boundary to produce
        the paper's start-up vs steady-state windows.
        """
        return True

    def close(self) -> None:
        """Drop the references between this workload's own objects that
        form reference cycles, once its machine is done (see
        :meth:`repro.core.simulator.Simulation.close`).  The kernel
        releases the threads and devices; most workloads hold nothing
        else."""
