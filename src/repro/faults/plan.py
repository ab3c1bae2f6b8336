"""Deterministic fault plans (the configuration half of fault injection).

A :class:`FaultPlan` names which fault *sites* should fire, how often,
and under which conditions.  Sites are string identifiers compiled into
the hot paths (see :data:`KNOWN_SITES`); a site that is not armed costs
one ``None`` check.  Plans are plain data: they serialize to JSON so a
parent process can arm faults in pool workers through the
``REPRO_FAULT_PLAN`` environment variable, and they carry a seed so any
randomized corruption is a pure function of (plan, site) -- the same
plan always injects the same bytes, which is what makes chaos runs
reproducible and lets them pass the D-rule lint.

Nothing in this module touches the wall clock or global ``random``
state; firing decisions are pure counter arithmetic.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field

#: Environment variable carrying a serialized plan into worker processes.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: Every fault site compiled into the tree.  Arming an unknown site is a
#: config error (caught at plan construction), not a silent no-op.
KNOWN_SITES: tuple[str, ...] = (
    "store.get.corrupt",    # flip bytes of a store file as it is read
    "store.put.torn",       # crash after the temp write, before the rename
    "store.put.disk_full",  # ENOSPC before any write
    "worker.crash",         # exception during worker startup
    "worker.exit",          # worker process hard-exits without a traceback
    "sim.exception",        # raise mid-simulation at cycle `arg`
    "sim.hang",             # worker never returns (exercises timeouts)
    "sim.stall",            # core retires nothing (exercises the watchdog)
    "heartbeat.stall",      # progress sink goes silent after `arg` beats
    "queue.journal.torn",   # crash mid-append of a journal record
    "queue.claim.orphan",   # worker vanishes between claim and tracking
    "service.worker.lost",  # SIGKILL a launched service worker
    "store.breaker.trip",   # force the store circuit breaker open
)


class InjectedFault(RuntimeError):
    """An injected failure, distinguishable from organic bugs.

    ``transient`` feeds the run engine's error taxonomy (transient
    faults are retried, permanent ones are not); ``snapshot`` may carry
    a probe-tree snapshot for diagnostics.
    """

    def __init__(self, site: str, message: str, *, transient: bool = True,
                 snapshot: dict | None = None) -> None:
        super().__init__(message)
        self.site = site
        self.transient = transient
        self.snapshot = snapshot


@dataclass(frozen=True)
class FaultSite:
    """One armed site within a plan.

    ``times`` bounds how often the site fires (0 = unlimited); ``skip``
    lets the first N invocations pass; ``match`` restricts firing to
    invocations whose context string contains it (e.g. a run label);
    ``attempt`` restricts firing to one supervised attempt number, which
    is how a chaos scenario injects "fail once, then recover"; ``arg``
    is site-specific (a cycle for ``sim.exception``, a beat count for
    ``heartbeat.stall``).
    """

    site: str
    times: int = 1
    skip: int = 0
    match: str = ""
    attempt: int | None = None
    arg: int | None = None

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ValueError(
                f"unknown fault site {self.site!r} "
                f"(known: {', '.join(KNOWN_SITES)})")


@dataclass
class FaultPlan:
    """A seeded set of armed fault sites.

    Firing state (per-site invocation and fired counters) lives on the
    instance, not in the frozen sites, so one plan can be reused across
    supervised attempts by resetting it (:meth:`reset`).
    """

    sites: tuple[FaultSite, ...] = ()
    seed: int = 0
    _invoked: dict = field(default_factory=dict, repr=False, compare=False)
    _fired: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.sites = tuple(
            s if isinstance(s, FaultSite) else FaultSite(**s)
            for s in self.sites)

    # -- firing ------------------------------------------------------------

    def fire(self, site_name: str, context: str = "",
             attempt: int | None = None) -> FaultSite | None:
        """Should *site_name* fail now?  Returns the armed site, or None.

        Purely counter-driven: the Nth invocation of a site under the
        same plan always decides the same way, regardless of host timing.
        """
        for index, site in enumerate(self.sites):
            if site.site != site_name:
                continue
            if site.match and site.match not in context:
                continue
            if site.attempt is not None and attempt != site.attempt:
                continue
            self._invoked[index] = self._invoked.get(index, 0) + 1
            if self._invoked[index] <= site.skip:
                continue
            if site.times and self._fired.get(index, 0) >= site.times:
                continue
            self._fired[index] = self._fired.get(index, 0) + 1
            return site
        return None

    def reset(self) -> None:
        """Forget firing history (each supervised attempt starts fresh)."""
        self._invoked.clear()
        self._fired.clear()

    def rng(self, site_name: str) -> random.Random:
        """A seeded generator private to (plan seed, site)."""
        return random.Random(f"{self.seed}:{site_name}")

    # -- serialization (cross-process arming) ------------------------------

    def to_json_dict(self) -> dict:
        return {"seed": self.seed,
                "sites": [asdict(site) for site in self.sites]}

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, payload: dict) -> "FaultPlan":
        return cls(sites=tuple(FaultSite(**s)
                               for s in payload.get("sites", ())),
                   seed=int(payload.get("seed", 0)))

    @classmethod
    def loads(cls, text: str) -> "FaultPlan":
        return cls.from_json_dict(json.loads(text))


def corrupt_bytes(data: bytes, rng: random.Random) -> bytes:
    """Deterministically garble *data* (used by ``store.get.corrupt``).

    Overwrites a slice at a seeded position with seeded bytes; the
    result differs from the input (so checksums must mismatch) while
    remaining a pure function of (data, rng state).
    """
    if not data:
        return b"\x00"
    width = min(16, len(data))
    pos = rng.randrange(max(1, len(data) - width + 1))
    garble = bytes(rng.randrange(256) for _ in range(width))
    out = data[:pos] + garble + data[pos + width:]
    if out == data:  # pragma: no cover - 2^-128 per try
        out = data[:pos] + bytes((garble[0] ^ 0xFF,)) + data[pos + 1:]
    return out
