"""Hierarchical probe/counter registry (observability layer 1).

A :class:`ProbeRegistry` holds every named probe of one simulated machine
in a single queryable tree.  Probe names are lowercase dotted paths whose
first segment is the owning layer (one of :data:`HIERARCHY_ROOTS`;
registration rejects any other)::

    mem.l1d.miss.interthread.user      os.syscall.read.count
    branch.btb.accesses.kernel         core.retired

Three probe flavors cover every counter in the simulator:

* :class:`Counter` -- a plain monotonic count that a component bumps
  inline (``c.add()``).  Used for event-frequency counters (syscalls,
  flushes, interrupts) where a method call costs nothing measurable.
* :class:`Histogram` -- a fixed-bucket distribution (``h.observe(v)``),
  e.g. syscall wall-clock latency.
* **derived probes** -- a callable evaluated only at snapshot time
  (:meth:`ProbeRegistry.derive` / :meth:`ProbeRegistry.derive_map`).
  Hot structures (caches, TLBs, the BTB) keep their existing list/dict
  counters -- the cheapest bump Python offers -- and expose them through
  the registry with *zero* steady-state cost.

``snapshot()`` flattens the whole tree into ``{name: number-or-dict}``
with deterministically sorted keys; :func:`repro.analysis.snapshot.capture`
embeds it in every counter window, which is how probe values end up inside
stored :class:`~repro.analysis.artifact.RunArtifact` objects and diff
cleanly across windows.
"""

from __future__ import annotations

import re
from collections.abc import MutableMapping
from typing import Callable

_NAME_RE = re.compile(r"^[a-z0-9_]+(\.[a-z0-9_:-]+)*$")

#: The first segment of every probe name: the owning layer.
HIERARCHY_ROOTS = ("mem", "branch", "os", "core")

#: Default histogram bucket upper bounds (powers of four; cycles/latency
#: oriented).  Values above the last bound land in the overflow bucket.
DEFAULT_BUCKETS = (4, 16, 64, 256, 1024, 4096, 16384, 65536)


class Counter:
    """A monotonically increasing named count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, n: int = 1) -> None:
        self.value += n

    inc = add

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Histogram:
    """Fixed-bucket distribution of observed values.

    ``snapshot()`` renders as plain data -- ``count``, ``sum``, the bucket
    ``bounds``, and one bucket list ``[counts per bound..., overflow]`` --
    so histogram windows subtract elementwise like every other counter
    (the bounds themselves are carried through window differencing
    unchanged; see :func:`repro.analysis.snapshot.diff`).
    """

    __slots__ = ("name", "bounds", "counts", "count", "sum")

    def __init__(self, name: str, bounds: tuple[int, ...] = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError(f"{name}: bucket bounds must be ascending and non-empty")
        self.name = name
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(bounds) + 1)  # last slot = overflow
        self.count = 0
        self.sum = 0

    def observe(self, value: float) -> None:
        self.count += 1
        self.sum += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def snapshot(self) -> dict:
        return {"count": self.count, "sum": self.sum,
                "bounds": list(self.bounds), "buckets": list(self.counts)}

    # -- percentiles -------------------------------------------------------

    def percentile(self, q: float) -> float:
        """The *q*-quantile (``0 < q <= 1``) estimated from the buckets."""
        return bucket_percentile(self.counts, self.bounds, q)

    @property
    def p50(self) -> float:
        return self.percentile(0.50)

    @property
    def p95(self) -> float:
        return self.percentile(0.95)

    @property
    def p99(self) -> float:
        return self.percentile(0.99)


def bucket_percentile(counts, bounds, q: float) -> float:
    """Percentile estimate from bucket counts, linearly interpolated.

    Values inside a bucket are assumed uniform between its lower and
    upper bound; the overflow bucket is clipped to the last bound (a
    histogram cannot see past it).  An empty histogram yields 0.0.
    """
    if not 0.0 < q <= 1.0:
        raise ValueError(f"percentile must be in (0, 1], got {q}")
    total = sum(counts)
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for i, n in enumerate(counts):
        if n == 0:
            continue
        if cumulative + n >= rank:
            if i >= len(bounds):  # overflow bucket: clip to the last bound
                return float(bounds[-1])
            lo = bounds[i - 1] if i > 0 else 0
            hi = bounds[i]
            return lo + (hi - lo) * (rank - cumulative) / n
        cumulative += n
    return float(bounds[-1])  # pragma: no cover - rank <= total always hits


def snapshot_percentile(snap: dict, q: float) -> float:
    """Percentile of a histogram *snapshot* dict (``repro counters``, the
    diff engine, and the perf baselines all read stored snapshots).

    Snapshots written before the bounds were embedded (schema < 3) fall
    back to :data:`DEFAULT_BUCKETS`.
    """
    bounds = tuple(snap.get("bounds") or DEFAULT_BUCKETS)
    return bucket_percentile(snap.get("buckets", []), bounds, q)


class ProbeRegistry:
    """One machine's probe tree: counters, histograms, derived probes."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}
        self._derived: dict[str, Callable[[], float]] = {}
        self._derived_maps: dict[str, Callable[[], dict]] = {}

    # -- registration ------------------------------------------------------

    @staticmethod
    def _check_name(name: str) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid probe name {name!r} "
                             "(want lowercase dotted segments)")
        if name.split(".", 1)[0] not in HIERARCHY_ROOTS:
            raise ValueError(f"invalid probe name {name!r} (first segment "
                             f"must be one of {'/'.join(HIERARCHY_ROOTS)})")

    def counter(self, name: str) -> Counter:
        """Register (or fetch) the counter *name*.  Idempotent."""
        probe = self._counters.get(name)
        if probe is None:
            self._check_name(name)
            self._reserve(name)
            probe = self._counters[name] = Counter(name)
        return probe

    def histogram(self, name: str,
                  bounds: tuple[int, ...] = DEFAULT_BUCKETS) -> Histogram:
        """Register (or fetch) the histogram *name*.  Idempotent."""
        probe = self._histograms.get(name)
        if probe is None:
            self._check_name(name)
            self._reserve(name)
            probe = self._histograms[name] = Histogram(name, bounds)
        return probe

    def derive(self, name: str, fn: Callable[[], float]) -> None:
        """Register a probe whose value is computed at snapshot time."""
        self._check_name(name)
        self._reserve(name)
        self._derived[name] = fn

    def derive_map(self, prefix: str, fn: Callable[[], dict]) -> None:
        """Register a *family* of derived probes under one prefix.

        *fn* returns ``{suffix: number}`` at snapshot time; each entry
        becomes the probe ``prefix.suffix``.  Used for dynamically keyed
        counter dicts (per-syscall counts, per-lock contention) whose key
        sets are not known at registration time.
        """
        self._check_name(prefix)
        if prefix in self._derived_maps:
            raise ValueError(f"duplicate probe family {prefix!r}")
        self._reserve(prefix)
        self._derived_maps[prefix] = fn

    def _reserve(self, name: str) -> None:
        owners = (self._counters, self._histograms, self._derived,
                  self._derived_maps)
        if sum(name in d for d in owners) > 0:
            raise ValueError(f"probe name {name!r} already registered "
                             "with a different flavor")

    # -- querying ----------------------------------------------------------

    def snapshot(self, prefix: str | None = None) -> dict:
        """Flatten every probe into ``{name: value}``, sorted by name.

        Counter values are ints, histograms nest as plain dicts, derived
        probes are evaluated now.  With *prefix*, only probes whose name
        starts with it are included.
        """
        out: dict[str, object] = {}
        for name, c in self._counters.items():
            out[name] = c.value
        for name, h in self._histograms.items():
            out[name] = h.snapshot()
        for name, fn in self._derived.items():
            out[name] = fn()
        for family, fn in self._derived_maps.items():
            for suffix, value in fn().items():
                out[f"{family}.{suffix}"] = value
        if prefix is not None:
            out = {k: v for k, v in out.items() if k.startswith(prefix)}
        return dict(sorted(out.items()))

    def reader(self, name: str) -> Callable[[], float] | None:
        """A zero-arg getter for one *scalar* probe, or None.

        Counters and derived probes read in O(1) without building a full
        snapshot -- the hot path of interval telemetry
        (:mod:`repro.obs.timeline`).  Histograms and derived-family
        members have no scalar value and yield None.
        """
        counter = self._counters.get(name)
        if counter is not None:
            return lambda c=counter: c.value
        return self._derived.get(name)

    def names(self) -> list[str]:
        """Every registered probe name, sorted; evaluates nothing, so the
        members of derived families are left out (see :meth:`families`)."""
        return sorted([*self._counters, *self._histograms, *self._derived])

    def families(self) -> list[str]:
        """The prefix of every derived-probe family, sorted."""
        return sorted(self._derived_maps)

    def __len__(self) -> int:
        return len(self.snapshot())


class CounterGroup(MutableMapping):
    """Dict-compatible facade over a family of registry counters.

    Lets legacy call sites keep their idiom (``counters["x"] += 1``,
    ``dict(counters)``) while the underlying counts live in the registry
    tree.  The key set is fixed at construction.
    """

    def __init__(self, registry: ProbeRegistry, prefix: str,
                 names: tuple[str, ...]) -> None:
        self._counters = {n: registry.counter(f"{prefix}.{n}") for n in names}

    def raw(self, key: str) -> Counter:
        """The underlying :class:`Counter` (for hot call sites that keep
        a direct handle instead of paying the mapping protocol per bump)."""
        return self._counters[key]

    def __getitem__(self, key: str) -> int:
        return self._counters[key].value

    def __setitem__(self, key: str, value: int) -> None:
        self._counters[key].value = value

    def __delitem__(self, key: str) -> None:
        raise TypeError("CounterGroup keys are fixed at construction")

    def __iter__(self):
        return iter(self._counters)

    def __len__(self) -> int:
        return len(self._counters)


def register_miss_stats(registry: ProbeRegistry, prefix: str, stats) -> None:
    """Expose one :class:`~repro.memory.classify.MissStats` as derived probes.

    Registers, under *prefix* (e.g. ``mem.l1d``)::

        <prefix>.accesses.{user,kernel}
        <prefix>.miss.{user,kernel}
        <prefix>.miss.<cause>.{user,kernel}     (5 causes)
        <prefix>.avoided.{user,kernel}_fill_{user,kernel}

    The probes read the structure's live counters at snapshot time, so
    the structure's hot path is untouched.
    """
    from repro.memory.classify import MissCause

    kinds = ("user", "kernel")
    for k, kind in enumerate(kinds):
        registry.derive(f"{prefix}.accesses.{kind}",
                        lambda s=stats, k=k: s.accesses[k])
        registry.derive(f"{prefix}.miss.{kind}",
                        lambda s=stats, k=k: s.misses[k])
        for cause in MissCause:
            registry.derive(
                f"{prefix}.miss.{cause.name.lower()}.{kind}",
                lambda s=stats, key=(k, int(cause)): s.causes.get(key, 0))
        for f, filler in enumerate(kinds):
            registry.derive(
                f"{prefix}.avoided.{kind}_fill_{filler}",
                lambda s=stats, key=(k, f): s.avoided.get(key, 0))
