"""Fixture: process-boundary callables (F102) and env reads (F103)."""

import os
from multiprocessing import Process


def job(spec):
    seed = os.environ.get("REPRO_SEED", "0")  # forwarded namespace: clean
    user = os.environ.get("USER", "")         # F103: host-only env var
    return seed, user


def run(pool, spec):
    pool.submit(job, spec)              # module-level function: clean
    pool.submit(lambda: 1)              # F102: lambda across the boundary
    return Process(target=job, args=(spec,))


def coordinator():
    # Coordinator-side reads are F103 too: workers inherit the environment.
    return os.environ.get("HOME", "")
