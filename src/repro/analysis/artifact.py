"""Serializable run artifacts (layer 1 of the run engine).

A :class:`RunArtifact` is the plain-data record of one finished canonical
run: the full configuration fingerprint of the simulation that produced it,
the three counter windows (*startup*, *steady*, *total*) from
:mod:`repro.analysis.snapshot`, the interval probe timeline, and the
workload phase marks.  It carries everything the table/figure/metric builders
consume and nothing else -- no live handles to the machine -- so it can be
serialized to JSON, stored on disk (:mod:`repro.analysis.store`), produced
in a worker process (:mod:`repro.analysis.service`), and compared for
equality across process boundaries.

The identity of an artifact is its *fingerprint*: a SHA-256 over the
schema version, a code-version tag, and the canonical JSON of the run
spec (workload, cpu, os_mode, instruction budget, seed, and every
simulator knob including the machine geometry).  Bumping
``SCHEMA_VERSION`` or ``CODE_VERSION`` therefore invalidates every stored
artifact, and two runs whose configurations differ in *any* knob can
never collide.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

#: Version of the artifact data layout.  Bump when the window/timeline/
#: marks structure changes; old stored artifacts then miss and re-run.
#: v2: counter windows carry the flattened probe-registry tree under
#: ``probes`` (see repro.obs.registry).
#: v3: histogram probe snapshots embed their bucket ``bounds`` so stored
#: windows are self-describing for percentile computation.
#: v4: artifacts carry a ``flags`` list marking degraded provenance
#: (e.g. ``"truncated"`` when a max-cycle budget cut the run short).
#: v5: artifacts carry the execution ``mode`` ("full" / "fast" /
#: "sampled") and, for tiered runs, a ``sampling`` record (leg records,
#: extrapolated probe estimates with error bars, checkpoint provenance).
#: v6: counter windows carry a call-path ``attribution`` section
#: (``;``-joined span chain -> context-cycles; see repro.obs.flame).
#: v7: artifacts carry a ``probe_timeline`` record (delta-encoded
#: per-interval probe columns; see repro.obs.timeline) and the
#: ``timeline_truncated`` flag when its sample cap was hit.
#: v8: the mode-class ``timeline`` is gone; Figures 1/5 draw from the
#: ``class.*`` columns of ``probe_timeline``.
#: v9: counter windows hold five keys (``cycles``, ``retired``,
#: ``service_cycles``, ``attribution``, ``probes``); the instruction mix,
#: per-mode physical memory ops and taken branches, and the MSHR
#: occupancy integrals are probes, and ``probe_timeline`` drops its
#: ``class.*`` columns (Figures 1/5 fold the ``svc.*`` ones).
SCHEMA_VERSION = 9

#: Coarse code-version tag folded into every fingerprint.  Bump when the
#: *simulator's* behavior changes (new counters, different scheduling,
#: recalibrated workloads) so stale artifacts are not mistaken for current
#: measurements.
CODE_VERSION = "2026.10"


class ArtifactError(ValueError):
    """Raised when a payload does not parse as a current-schema artifact."""


def canonical_json(payload) -> str:
    """Deterministic JSON used for hashing (sorted keys, no whitespace)."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def run_fingerprint(spec: dict) -> str:
    """Content hash identifying a run: schema + code version + full spec."""
    payload = {"schema": SCHEMA_VERSION, "code": CODE_VERSION, "spec": spec}
    return hashlib.sha256(canonical_json(payload).encode()).hexdigest()


#: Spec keys that name a run, in label order.
_LABEL_KEYS = ("workload", "cpu", "os_mode")


def run_label(spec) -> str:
    """The ``workload-cpu-os_mode`` label of a run spec, e.g.
    ``apache-smt-full``; keys the spec lacks are left out, and a spec
    with none of them (or no spec) is ``run``."""
    if not isinstance(spec, dict):
        return "run"
    parts = [str(spec[k]) for k in _LABEL_KEYS if spec.get(k) is not None]
    return "-".join(parts) or "run"


def parse_run_label(text: str) -> dict | None:
    """The ``workload``/``cpu``/``os_mode`` a run label names, or None
    when *text* is not three ``-``-separated parts."""
    parts = text.split("-")
    return dict(zip(_LABEL_KEYS, parts)) if len(parts) == 3 else None


def _plain(value):
    """Recursively normalize to JSON-native types (tuples become lists,
    dict keys become strings) so round-tripped artifacts compare equal."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


@dataclass
class RunArtifact:
    """One finished run as plain data.

    ``spec`` is the full run specification (labels plus the simulator's
    config fingerprint params); ``startup``/``steady``/``total`` are the
    counter windows; ``marks`` is a list of ``[thread, label, cycle]``
    phase marks.  ``flags`` marks degraded provenance
    (``"timeline_truncated"`` when the interval telemetry hit its sample
    cap); a normal run's flags are empty.  ``mode`` is the execution
    tier the run used (see :mod:`repro.core.engine`) and ``sampling``
    records a tiered run's leg plan and extrapolated probe estimates;
    plain detailed runs carry ``mode="full"`` and no sampling record.
    A record stored by an older tree may hold a further key, which
    still loads and which nothing reads.

    Each window holds the machine's ``cycles`` and ``retired`` totals,
    the per-service cycle fold ``service_cycles``, the call-path
    ``attribution`` it folds, and the flattened probe tree ``probes``,
    from which every exhibit reads its inputs by probe name.

    ``probe_timeline`` is the run's one time series: delta-encoded
    columns of headline probes and of the per-service cycle fold,
    captured every N simulated cycles by :mod:`repro.obs.timeline`.
    Figures 1/5 fold its ``svc.*`` columns by mode class, and
    ``repro timeline`` renders it.  Every simulation records one; an
    artifact built by hand may carry ``None``.
    """

    spec: dict
    n_contexts: int
    cycles: int
    marks: list
    startup: dict
    steady: dict
    total: dict
    flags: list = field(default_factory=list)
    mode: str = "full"
    sampling: dict | None = None
    probe_timeline: dict | None = None
    schema_version: int = SCHEMA_VERSION
    fingerprint: str = field(default="")

    def __post_init__(self) -> None:
        self.spec = _plain(self.spec)
        self.marks = _plain(self.marks)
        self.startup = _plain(self.startup)
        self.steady = _plain(self.steady)
        self.total = _plain(self.total)
        self.flags = _plain(self.flags)
        if self.sampling is not None:
            self.sampling = _plain(self.sampling)
        if self.probe_timeline is not None:
            self.probe_timeline = _plain(self.probe_timeline)
        if not self.fingerprint:
            self.fingerprint = run_fingerprint(self.spec)

    # -- identity ----------------------------------------------------------

    @property
    def label(self) -> str:
        """Human-readable run label, e.g. ``apache-smt-full``."""
        return run_label(self.spec)

    # -- derived views -----------------------------------------------------

    @property
    def steady_boundary(self) -> int | None:
        """Cycle at which the last workload thread reached steady state."""
        cycles = [cycle for _, label, cycle in self.marks if label == "steady"]
        return max(cycles) if cycles else None

    def window(self, phase: str) -> dict:
        """Fetch one counter window by name: startup / steady / total."""
        if phase not in ("startup", "steady", "total"):
            raise ValueError(f"unknown window {phase!r}")
        return getattr(self, phase)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "fingerprint": self.fingerprint,
            "spec": self.spec,
            "n_contexts": self.n_contexts,
            "cycles": self.cycles,
            "marks": self.marks,
            "startup": self.startup,
            "steady": self.steady,
            "total": self.total,
            "flags": self.flags,
            "mode": self.mode,
            "sampling": self.sampling,
            "probe_timeline": self.probe_timeline,
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "RunArtifact":
        if not isinstance(payload, dict):
            raise ArtifactError("artifact payload is not an object")
        version = payload.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ArtifactError(
                f"artifact schema {version!r} != current {SCHEMA_VERSION}")
        try:
            return cls(
                spec=payload["spec"],
                n_contexts=payload["n_contexts"],
                cycles=payload["cycles"],
                marks=payload["marks"],
                startup=payload["startup"],
                steady=payload["steady"],
                total=payload["total"],
                flags=payload.get("flags") or [],
                mode=payload.get("mode") or "full",
                sampling=payload.get("sampling"),
                probe_timeline=payload.get("probe_timeline"),
                schema_version=version,
                fingerprint=payload["fingerprint"],
            )
        except KeyError as exc:  # missing field -> not a valid artifact
            raise ArtifactError(f"artifact payload missing {exc}") from exc

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def loads(cls, text: str) -> "RunArtifact":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ArtifactError(f"artifact is not valid JSON: {exc}") from exc
        return cls.from_json_dict(payload)
