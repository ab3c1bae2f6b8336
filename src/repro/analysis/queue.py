"""Durable job queue: an append-only write-ahead journal for sweeps.

A :class:`JobQueue` records every job-state transition -- submit, claim,
complete, requeue, quarantine, shutdown -- as one checksummed JSON
line in ``<store_root>/queue/journal.jsonl`` *before* acting on it, so
the queue's state survives any crash of the service process: a new
incarnation replays the journal and resumes exactly where the dead one
stopped.  The journal is the source of truth; in-memory state is only a
replayable view of it.

Durability contract:

* **Append-only, checksummed records.**  Every record carries a ``seq``
  number and a ``check`` field (sha256 over the canonical JSON of the
  record body).  A record that fails its checksum -- a torn tail from a
  crash mid-append, or on-disk rot -- invalidates itself and everything
  after it: replay keeps the longest valid prefix and atomically
  rewrites the journal to it, so one torn byte can never poison
  recovery (the ``queue.journal.torn`` fault site exercises this).
* **Identity = artifact fingerprint.**  A job's id is its run spec's
  content fingerprint, so identical in-flight specs coalesce to one run
  (duplicate submits are journaled as ``coalesced`` and share the
  winner's outcome) and a resumed sweep can never execute -- or store --
  the same work twice.
* **Leases, not locks.**  A claim names a worker and a lease duration.
  Claims are *leases*: a claimed job whose worker the service no longer
  tracks (process died, service restarted, heartbeat expired) is
  requeued, never lost (``queue.claim.orphan`` injects exactly that).
* **Bounded admission.**  ``limit`` caps the pending backlog; a submit
  beyond it is *shed* (journaled, reported, never silently dropped).
  Priorities order claims (higher first, FIFO within a priority).

Nothing in a journal record reads the wall clock, so replaying the same
journal always rebuilds the same state and the queue's canonical
:meth:`ledger` is byte-comparable across incarnations -- the property
the kill-and-resume chaos scenarios assert.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
from dataclasses import dataclass, field

from repro import faults
from repro.analysis.artifact import canonical_json, run_fingerprint, run_label

#: Subdirectory of the store root holding the journal and worker
#: heartbeat files.
QUEUE_DIR = "queue"

#: Journal filename inside the queue directory.
JOURNAL_NAME = "journal.jsonl"

#: Journal format version (bumped on incompatible record changes; a
#: stale journal refuses to replay rather than guessing).
JOURNAL_VERSION = 1

#: Default pending-backlog bound (admission control).
DEFAULT_LIMIT = 256

#: Default claim lease in seconds: a claimed worker whose heartbeat file
#: is older than this is presumed lost and its job is requeued.
DEFAULT_LEASE_S = 60.0

#: Hex digits of the record checksum kept in the journal.
_CHECK_LEN = 16

#: Job states (journal-visible).
PENDING = "pending"
CLAIMED = "claimed"
DONE = "done"
QUARANTINED = "quarantined"


class JournalError(RuntimeError):
    """The journal cannot be replayed (version drift, unreadable file)."""


def record_check(body: dict) -> str:
    """Checksum of one journal record body (without its ``check`` key)."""
    trimmed = {k: v for k, v in body.items() if k != "check"}
    digest = hashlib.sha256(canonical_json(trimmed).encode()).hexdigest()
    return digest[:_CHECK_LEN]


def job_label(spec: dict) -> str:
    """Deterministic display label for a spec: ``workload-cpu-os_mode-s<seed>``."""
    label = run_label(spec)
    seed = spec.get("seed")
    return f"{label}-s{seed}" if seed is not None else label


@dataclass
class Job:
    """One unit of queued work, keyed by its artifact fingerprint."""

    id: str
    label: str
    spec: dict
    fingerprint: str
    priority: int = 0
    state: str = PENDING
    attempts: int = 0
    submit_seq: int = 0
    worker: str | None = None
    error: str | None = None
    from_store: bool = False
    #: How many duplicate submits coalesced onto this job.
    coalesced: int = 0

    def to_public_dict(self) -> dict:
        return {"id": self.id, "label": self.label, "state": self.state,
                "fingerprint": self.fingerprint, "priority": self.priority,
                "attempts": self.attempts, "error": self.error,
                "from_store": self.from_store, "coalesced": self.coalesced}


@dataclass
class ReplaySummary:
    """What :meth:`JobQueue.replay` found in the journal."""

    records: int = 0
    torn_records: int = 0
    orphans: list = field(default_factory=list)  # claimed job ids
    clean_shutdown: bool = False
    drained: bool = False

    def to_json_dict(self) -> dict:
        return {"records": self.records, "torn_records": self.torn_records,
                "orphans": sorted(self.orphans),
                "clean_shutdown": self.clean_shutdown,
                "drained": self.drained}


class JobQueue:
    """Write-ahead-journaled job queue rooted at one directory.

    Construction replays any existing journal (see :meth:`replay`); the
    result is available as :attr:`replayed`.  All mutating operations
    journal first, then update the in-memory view.
    """

    def __init__(self, root: str | os.PathLike, *,
                 limit: int = DEFAULT_LIMIT,
                 lease_s: float = DEFAULT_LEASE_S) -> None:
        if limit < 1:
            raise ValueError(f"queue limit must be >= 1, got {limit}")
        self.root = pathlib.Path(root)
        self.journal_path = self.root / JOURNAL_NAME
        self.limit = limit
        self.lease_s = lease_s
        self.jobs: dict[str, Job] = {}
        self._seq = 0
        self.shed_count = 0
        self.replayed = self.replay()

    # -- journal I/O -------------------------------------------------------

    def _append(self, op: str, **fields) -> dict:
        """Durably journal one record; returns it.

        The ``queue.journal.torn`` fault site simulates a crash
        mid-append: half the encoded record reaches the disk, no
        newline, and the writing process "dies" (an
        :class:`~repro.faults.InjectedFault` unwinds the caller).  The
        next incarnation's replay must drop the torn tail.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        self._seq += 1
        body = {"seq": self._seq, "op": op, "v": JOURNAL_VERSION}
        body.update(fields)
        body["check"] = record_check(body)
        line = json.dumps(body, sort_keys=True)
        if faults.fire("queue.journal.torn", op) is not None:
            with open(self.journal_path, "a") as f:
                f.write(line[: max(1, len(line) // 2)])
                f.flush()
            raise faults.InjectedFault(
                "queue.journal.torn",
                f"injected crash mid-append of journal record #{self._seq} "
                f"({op})")
        with open(self.journal_path, "a") as f:
            f.write(line + "\n")
            f.flush()
            os.fsync(f.fileno())
        return body

    def _read_valid_prefix(self) -> tuple[list[dict], int, bool]:
        """(valid records, torn/corrupt record count, needs_rewrite)."""
        try:
            raw = self.journal_path.read_text()
        except FileNotFoundError:
            return [], 0, False
        except OSError as exc:
            raise JournalError(f"cannot read journal: {exc}")
        records: list[dict] = []
        lines = raw.split("\n")
        total_nonempty = sum(1 for line in lines if line)
        for line in lines:
            if not line:
                continue
            try:
                body = json.loads(line)
            except ValueError:
                break
            if not isinstance(body, dict) \
                    or body.get("check") != record_check(body):
                break
            if body.get("v") != JOURNAL_VERSION:
                raise JournalError(
                    f"journal record #{body.get('seq')} has version "
                    f"{body.get('v')!r}, this code expects "
                    f"{JOURNAL_VERSION} (refusing to guess)")
            records.append(body)
        torn = total_nonempty - len(records)
        return records, torn, torn > 0

    def _rewrite(self, records: list[dict]) -> None:
        """Atomically rewrite the journal to exactly *records*."""
        self.root.mkdir(parents=True, exist_ok=True)
        tmp = self.journal_path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w") as f:
            for body in records:
                f.write(json.dumps(body, sort_keys=True) + "\n")
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, self.journal_path)

    # -- replay ------------------------------------------------------------

    def replay(self) -> ReplaySummary:
        """Rebuild queue state from the journal (longest valid prefix).

        Torn or corrupt records invalidate themselves and everything
        after them; the journal is rewritten to the valid prefix so the
        next append cannot concatenate onto garbage.  Jobs left in the
        ``claimed`` state belong to workers of a dead incarnation --
        they are reported as orphans for the service to requeue (the
        artifact may still have landed in the store; requeueing is
        dedup-safe either way).
        """
        records, torn, needs_rewrite = self._read_valid_prefix()
        if needs_rewrite:
            self._rewrite(records)
        summary = ReplaySummary(records=len(records), torn_records=torn)
        self.jobs.clear()
        self.shed_count = 0
        self._seq = records[-1]["seq"] if records else 0
        for body in records:
            self._apply(body, summary)
        summary.orphans = [job.id for job in self.jobs.values()
                           if job.state == CLAIMED]
        return summary

    def _apply(self, body: dict, summary: ReplaySummary) -> None:
        op = body["op"]
        job = self.jobs.get(body.get("job", ""))
        if op == "submit":
            outcome = body.get("outcome", "queued")
            if outcome == "queued":
                self.jobs[body["job"]] = Job(
                    id=body["job"], label=body["label"], spec=body["spec"],
                    fingerprint=body["fingerprint"],
                    priority=body.get("priority", 0),
                    submit_seq=body["seq"])
            elif outcome == "coalesced" and job is not None:
                job.coalesced += 1
            elif outcome == "shed":
                self.shed_count += 1
        elif job is None:
            pass  # transition for an unknown job: tolerated, not trusted
        elif op == "claim":
            job.state = CLAIMED
            job.worker = body.get("worker")
            job.attempts = body.get("attempt", job.attempts + 1)
        elif op == "requeue":
            job.state = PENDING
            job.worker = None
            if body.get("reason") == "resubmit":
                # The live resubmit path (submit of a quarantined job)
                # clears the stale quarantine error; replay must too or
                # a resumed incarnation diverges from the live state.
                job.error = None
        elif op == "complete":
            job.state = DONE
            job.worker = None
            job.from_store = bool(body.get("from_store"))
            job.error = None
        elif op == "quarantine":
            job.state = QUARANTINED
            job.worker = None
            job.error = body.get("error")
        if op == "shutdown":
            summary.clean_shutdown = bool(body.get("clean"))
            summary.drained = bool(body.get("drained"))

    # -- submission (admission control) ------------------------------------

    def submit(self, spec: dict, *,
               priority: int = 0) -> tuple[Job | None, str]:
        """Admit one run spec; returns ``(job, outcome)``.

        Outcomes: ``queued`` (new job), ``coalesced`` (identical spec
        already pending/claimed -- the submit rides the in-flight run),
        ``done`` (identical spec already completed this journal),
        ``shed`` (backlog at ``limit``; job refused, ``job is None``).
        """
        fingerprint = run_fingerprint(spec)
        job_id = fingerprint[:16]
        label = job_label(spec)
        existing = self.jobs.get(job_id)
        if existing is not None:
            if existing.state in (PENDING, CLAIMED):
                self._append("submit", job=job_id, label=label,
                             outcome="coalesced")
                existing.coalesced += 1
                return existing, "coalesced"
            if existing.state == DONE:
                return existing, "done"
            # Quarantined: an explicit resubmit re-opens the job.
            self._append("requeue", job=job_id, reason="resubmit")
            existing.state = PENDING
            existing.error = None
            return existing, "queued"
        if self.pending_count() >= self.limit:
            self._append("submit", job=job_id, label=label, outcome="shed")
            self.shed_count += 1
            return None, "shed"
        body = self._append("submit", job=job_id, label=label, spec=spec,
                            fingerprint=fingerprint, priority=priority,
                            outcome="queued")
        job = Job(id=job_id, label=label, spec=spec, fingerprint=fingerprint,
                  priority=priority, submit_seq=body["seq"])
        self.jobs[job_id] = job
        return job, "queued"

    # -- claims / transitions ----------------------------------------------

    def pending_jobs(self) -> list[Job]:
        """Pending jobs in claim order: priority desc, then submit order."""
        pending = [j for j in self.jobs.values() if j.state == PENDING]
        return sorted(pending, key=lambda j: (-j.priority, j.submit_seq))

    def pending_count(self) -> int:
        return sum(1 for j in self.jobs.values() if j.state == PENDING)

    def claim(self, worker: str) -> Job | None:
        """Lease the next pending job to *worker* (None when empty).

        The ``queue.claim.orphan`` fault site models a worker that
        vanishes between the journaled claim and the service tracking
        it: the claim is durably recorded, but the caller receives
        ``None`` -- exactly what a crash at that instant leaves behind.
        The job must be recovered by orphan reaping, not lost.
        """
        for job in self.pending_jobs():
            job.attempts += 1
            self._append("claim", job=job.id, worker=worker,
                         attempt=job.attempts, lease_s=self.lease_s)
            job.state = CLAIMED
            job.worker = worker
            if faults.fire("queue.claim.orphan", job.label) is not None:
                return None
            return job
        return None

    def requeue(self, job_id: str, reason: str) -> None:
        job = self.jobs[job_id]
        self._append("requeue", job=job_id, reason=reason)
        job.state = PENDING
        job.worker = None

    def complete(self, job_id: str, *, from_store: bool = False) -> None:
        job = self.jobs[job_id]
        self._append("complete", job=job_id, fingerprint=job.fingerprint,
                     from_store=from_store)
        job.state = DONE
        job.worker = None
        job.from_store = from_store
        job.error = None

    def quarantine(self, job_id: str, error: str) -> None:
        job = self.jobs[job_id]
        self._append("quarantine", job=job_id, error=error)
        job.state = QUARANTINED
        job.worker = None
        job.error = error

    def mark_shutdown(self, *, clean: bool, drained: bool) -> None:
        """Journal a shutdown marker (the graceful-drain receipt)."""
        self._append("shutdown", clean=clean, drained=drained)

    # -- reporting ---------------------------------------------------------

    def counts(self) -> dict:
        out = {PENDING: 0, CLAIMED: 0, DONE: 0, QUARANTINED: 0}
        for job in self.jobs.values():
            out[job.state] += 1
        out["shed"] = self.shed_count
        return out

    def ledger(self) -> str:
        """Canonical byte-comparable queue outcome.

        One JSON document of ``(label, fingerprint, state)`` sorted by
        fingerprint -- deliberately free of sequence numbers, attempt
        counts, worker names, and wall-clock values, so an interrupted-
        then-resumed sweep and an uninterrupted one produce *identical
        bytes* when they did the same work.  The kill-and-resume chaos
        scenario and CI both compare this string directly.
        """
        rows = sorted(
            [[j.label, j.fingerprint, j.state] for j in self.jobs.values()],
            key=lambda r: r[1])
        return canonical_json({"jobs": rows})


def queue_root(store_root: str | os.PathLike) -> pathlib.Path:
    """The queue directory under one store root."""
    return pathlib.Path(store_root) / QUEUE_DIR
