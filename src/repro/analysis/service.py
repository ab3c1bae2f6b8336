"""The run engine: queue-fed supervised execution with admission
control, circuit breaking, and crash-recoverable sweeps.

:class:`ReproService` is the one place run specs are sent to workers.
It drains a :class:`~repro.analysis.queue.JobQueue`: ``repro serve``
hands it the durable queue under ``<store>/queue``, while
:func:`run_many` / :func:`prefetch_all` (``repro prefetch``, ``report
--workers``, ``run --retries``, the ``--seeds`` fan-outs) hand it a
throwaway queue in a temporary directory and return one
:class:`RunResult` per spec.  Every sweep gets the same machinery:

* **Submit** admits run specs through the queue's write-ahead journal
  (dedup by artifact fingerprint, priority ordering, bounded backlog
  with load-shedding); specs whose artifact is already in the memo or
  the store are served warm without consuming a worker.
* **Claim/lease** hands pending jobs to worker processes, one process
  per attempt, and results come back through the store only -- a
  worker that dies mid-run can never deliver a torn result.  An error
  taxonomy decides what is retried: transient errors (worker death,
  timeouts, injected faults, I/O trouble) requeue the job with
  deterministic exponential backoff, permanent ones (spec bugs:
  ``ValueError``/``TypeError``/...) do not.  A worker that dies, hangs
  past its timeout, or stops heartbeating past its lease is killed and
  its job requeued; retry exhaustion quarantines the job, never the
  sweep.  Hosts without usable worker processes run attempts inline
  with the same retry/quarantine semantics (timeouts and leases are
  then best-effort: nothing can preempt a hung in-process run).
* **Circuit breaker**: repeated store-write failures (ENOSPC, torn
  writes, checksum rot) trip the breaker from CLOSED to OPEN -- the
  service degrades to read-only (warm hits still served, no new
  launches).  Cooldown is counted in *denied operations*, not seconds,
  so breaker transcripts are deterministic; every ``cooldown`` denials
  one HALF_OPEN probe launch is allowed, and its outcome closes or
  re-opens the circuit.
* **Drain**: :meth:`ReproService.request_drain` (wired to SIGTERM by
  the CLI) stops new claims, finishes the active legs, journals a clean
  shutdown marker, and exits 0.  A SIGKILLed service loses nothing: the
  next ``repro serve --resume`` replays the journal, completes orphaned
  claims whose artifact already landed, requeues the rest, and the
  final :meth:`~repro.analysis.queue.JobQueue.ledger` is byte-identical
  to an uninterrupted run.

The service emits ``service.*`` engine events on an event bus; its
transcript, report and ledger are its record of what it did.  It is
host-side machinery (timeouts, leases, backoff sleeps) and sits on the
D102 wall-clock allowlist; its transcripts and report are
wall-clock-free so chaos reports stay byte-identical.
"""

from __future__ import annotations

import json
import multiprocessing
import multiprocessing.connection
import os
import signal
import tempfile
import time
from dataclasses import dataclass, field

from repro import faults
from repro.analysis import experiments
from repro.analysis import queue as jobqueue
from repro.analysis.artifact import RunArtifact, run_label
from repro.analysis.experiments import CANONICAL_SPECS
from repro.analysis.queue import Job, JobQueue, queue_root
from repro.analysis.store import RunStore

#: Error taxonomy: transient errors are retried, permanent ones are not.
TRANSIENT = "transient"
PERMANENT = "permanent"

#: Exception type names that retrying cannot fix (bugs in the spec or
#: the code, not in the environment).
PERMANENT_ERRORS = frozenset({
    "ValueError", "TypeError", "KeyError", "AttributeError",
    "AssertionError", "ArtifactError",
})

DEFAULT_RETRIES = 2
DEFAULT_BACKOFF_BASE = 0.25
BACKOFF_CAP = 8.0

#: Seconds the main loop waits for a worker exit before it checks
#: deadlines and leases again (and its sleep while every job backs off
#: or the breaker is open).
POLL_INTERVAL = 0.05

#: Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"

#: Consecutive store failures that trip the breaker.
DEFAULT_BREAKER_THRESHOLD = 3

#: Denied operations between half-open probes while the breaker is open.
DEFAULT_BREAKER_COOLDOWN = 8

#: Substrings identifying a worker failure as store trouble (feeding the
#: breaker rather than only the per-job retry budget).
_STORE_FAILURE_MARKERS = (
    "store.put.disk_full", "store.put.torn", "disk full", "no space left",
    "enospc", "checksum",
)


def classify_error(type_name: str, transient_hint=None) -> str:
    """Transient or permanent?  An explicit hint (e.g. an
    :class:`~repro.faults.InjectedFault`'s ``transient`` flag) wins;
    otherwise the type name decides."""
    if transient_hint is not None:
        return TRANSIENT if transient_hint else PERMANENT
    return PERMANENT if type_name in PERMANENT_ERRORS else TRANSIENT


def backoff_delay(attempt: int, base: float = DEFAULT_BACKOFF_BASE,
                  cap: float = BACKOFF_CAP) -> float:
    """Seconds to wait before *attempt* (>= 2).  Pure exponential, no
    jitter: the delay sequence is part of the deterministic transcript."""
    return min(cap, base * (2 ** max(0, attempt - 2)))


# -- specs and results -----------------------------------------------------


def default_workers() -> int:
    """Worker slots: one per core, capped at the canonical run count."""
    return max(1, min(len(CANONICAL_SPECS), os.cpu_count() or 1))


def resolve_item(item) -> dict:
    """One run_many item -- a (workload, cpu, os_mode) triple or a dict
    with optional ``instructions``/``seed`` and execution-tier overrides
    (``mode``/``warmup``/``sample``/``stride``, see
    :mod:`repro.core.engine`) -- as a full resolved spec."""
    if isinstance(item, dict):
        return experiments.run_spec(
            item["workload"], item["cpu"], item.get("os_mode", "full"),
            item.get("instructions"), item.get("seed", 11),
            mode=item.get("mode", "full"),
            warmup=item.get("warmup", 0),
            sample=item.get("sample"),
            stride=item.get("stride"))
    wl, cpu, mode = item
    return experiments.run_spec(wl, cpu, mode)


def labels_for(items: list, resolved: list[dict]) -> list[str]:
    """Result-dict keys for run_many items: ``workload-cpu-os_mode``,
    plus ``-s<seed>`` for dict-form items and ``#n`` on the n-th
    collision (``x``, ``x#2``, ``x#3``, ...)."""
    labels: list[str] = []
    for item, spec in zip(items, resolved):
        base = run_label(spec)
        if isinstance(item, dict):
            base += f"-s{spec['seed']}"
        label, n = base, 2
        while label in labels:
            label = f"{base}#{n}"
            n += 1
        labels.append(label)
    return labels


@dataclass
class RunResult:
    """Outcome of one spec of a :func:`run_many` sweep.

    ``attempts`` counts executions (0 when served from the memo or the
    store); ``quarantined`` marks a spec that failed for good, with its
    ``error`` and ``error_kind`` (transient or permanent).
    ``transcript`` is the job's own deterministic log (no wall-clock
    values, no worker slots) used by ``repro chaos``.
    """

    label: str
    spec: dict
    ok: bool
    artifact: RunArtifact | None = None
    error: str | None = None
    error_kind: str | None = None
    attempts: int = 0
    quarantined: bool = False
    from_store: bool = False
    transcript: list = field(default_factory=list)


# -- attempt bodies --------------------------------------------------------


class _StallingSink:
    """Wraps a heartbeat sink and goes silent after N beats (the
    ``heartbeat.stall`` fault: a live worker whose telemetry died)."""

    def __init__(self, inner, after_beats: int) -> None:
        self.inner = inner
        self.after = after_beats
        self.beats = 0

    def __call__(self, sample: dict) -> None:
        if self.beats >= self.after:
            return
        self.beats += 1
        self.inner(sample)


def _run_attempt(spec: dict, store_root: str, attempt: int, *,
                 progress_path: str | None = None, on_beat=None,
                 allow_exit: bool = False) -> RunArtifact:
    """One attempt's body, shared by worker processes and inline
    attempts: fire worker-level fault sites, execute, store.

    With *progress_path*, a heartbeat overwrites that file with the
    latest progress sample (*on_beat* runs after each write).
    """
    faults.set_attempt(attempt)
    faults.reset_fired()
    label = run_label(spec)
    if faults.fire("worker.crash", label) is not None:
        raise faults.InjectedFault(
            "worker.crash",
            f"injected worker startup crash ({label}, attempt {attempt})")
    if faults.fire("worker.exit", label) is not None:
        if allow_exit:
            os._exit(13)
        raise faults.InjectedFault(
            "worker.exit", f"injected worker hard-exit ({label})")
    heartbeat = None
    if progress_path is not None:
        from repro.obs.live import Heartbeat, StateFileSink

        sink = StateFileSink(progress_path, on_write=on_beat)
        stall = faults.fire("heartbeat.stall", label)
        if stall is not None:
            sink = _StallingSink(sink, after_beats=stall.arg or 1)
        heartbeat = Heartbeat(sink, target_instructions=spec["instructions"],
                              label=label)
    artifact = experiments.execute_spec(spec, heartbeat=heartbeat)
    RunStore(store_root).put(artifact)
    return artifact


def _supervised_worker(spec: dict, store_root: str, attempt: int,
                       err_path: str, progress_path=None) -> None:
    """Process target: run one attempt, report failure via *err_path*.

    Success is signalled by exit code 0 plus the artifact being present
    in the store; any failure writes a small JSON error record and exits
    nonzero (without the multiprocessing traceback noise).
    """
    try:
        _run_attempt(spec, store_root, attempt, progress_path=progress_path,
                     allow_exit=True)
    except BaseException as exc:  # noqa: BLE001 - report, then die
        record = {"type": type(exc).__name__, "message": str(exc),
                  "transient": getattr(exc, "transient", None)}
        try:
            with open(err_path, "w") as f:
                json.dump(record, f)
        except OSError:  # pragma: no cover - scratch dir vanished
            pass
        raise SystemExit(1)


def _unlink(path: str) -> None:
    try:
        os.unlink(path)
    except OSError:
        pass


def _read_error(err_path: str) -> dict | None:
    try:
        with open(err_path) as f:
            record = json.load(f)
    except (OSError, ValueError):
        return None
    os.unlink(err_path)
    return record if isinstance(record, dict) else None


def _kill(proc) -> None:
    proc.terminate()
    proc.join(1.0)
    if proc.is_alive():  # pragma: no cover - SIGTERM ignored
        proc.kill()
        proc.join(5.0)


def _noop() -> None:  # pragma: no cover - runs in a probe child
    pass


_PROC_AVAILABLE: bool | None = None


def processes_available() -> bool:
    """Can this host run worker processes?  Cached probe."""
    global _PROC_AVAILABLE
    if _PROC_AVAILABLE is None:
        try:
            p = multiprocessing.get_context().Process(target=_noop)
            p.start()
            p.join(10)
            _PROC_AVAILABLE = p.exitcode == 0
        except (OSError, PermissionError, NotImplementedError):
            _PROC_AVAILABLE = False
    return _PROC_AVAILABLE


# -- the service -----------------------------------------------------------


class ServiceError(RuntimeError):
    """Service-level misuse (e.g. unfinished journal without --resume)."""


class CircuitBreaker:
    """Deterministic store circuit breaker (CLOSED / OPEN / HALF_OPEN).

    ``threshold`` consecutive failures open the circuit.  While OPEN,
    :meth:`allow` denies; every ``cooldown`` denials it lets one probe
    through and moves to HALF_OPEN.  The probe's outcome closes the
    circuit (success) or re-opens it (failure).  All state changes are
    pure counter arithmetic -- no wall clock -- so a chaos transcript of
    breaker activity is byte-identical run over run.
    """

    def __init__(self, threshold: int = DEFAULT_BREAKER_THRESHOLD,
                 cooldown: int = DEFAULT_BREAKER_COOLDOWN,
                 on_transition=None) -> None:
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        if cooldown < 1:
            raise ValueError(f"cooldown must be >= 1, got {cooldown}")
        self.threshold = threshold
        self.cooldown = cooldown
        self.on_transition = on_transition
        self.state = CLOSED
        self.failures = 0  # consecutive
        self.trips = 0
        self._denied = 0

    def _move(self, state: str, why: str) -> None:
        if state == self.state:
            return
        old, self.state = self.state, state
        if state == OPEN:
            self.trips += 1
        if self.on_transition is not None:
            self.on_transition(old, state, why)

    def allow(self) -> bool:
        """May a store-writing operation proceed right now?"""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            self._denied += 1
            if self._denied >= self.cooldown:
                self._denied = 0
                self._move(HALF_OPEN, "cooldown elapsed; probing")
                return True
            return False
        # HALF_OPEN: one probe is already in flight; hold the rest back.
        return False

    def record_success(self) -> None:
        self.failures = 0
        if self.state != CLOSED:
            self._move(CLOSED, "probe succeeded")

    def record_failure(self, why: str) -> None:
        self.failures += 1
        if self.state == HALF_OPEN:
            self._move(OPEN, f"probe failed: {why}")
        elif self.state == CLOSED and self.failures >= self.threshold:
            self._move(OPEN, f"{self.failures} consecutive store "
                             f"failures; last: {why}")

    def trip(self, why: str) -> None:
        """Force the circuit open (the ``store.breaker.trip`` fault)."""
        self.failures = max(self.failures, self.threshold)
        self._denied = 0
        self._move(OPEN, why)

    def to_json_dict(self) -> dict:
        return {"state": self.state, "trips": self.trips,
                "threshold": self.threshold, "cooldown": self.cooldown}


@dataclass
class ServiceReport:
    """Outcome of one service incarnation (deterministic, JSON-safe)."""

    jobs: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    replay: dict = field(default_factory=dict)
    breaker: dict = field(default_factory=dict)
    transcript: list = field(default_factory=list)
    warm_hits: int = 0
    drained: bool = False
    clean: bool = False
    ledger: str = ""

    @property
    def ok(self) -> bool:
        return self.counts.get(jobqueue.QUARANTINED, 0) == 0

    def to_json_dict(self) -> dict:
        return {"jobs": self.jobs, "counts": self.counts,
                "replay": self.replay, "breaker": self.breaker,
                "transcript": self.transcript, "warm_hits": self.warm_hits,
                "drained": self.drained, "clean": self.clean,
                "ledger": self.ledger}

    def render(self) -> str:
        lines = ["service report", "=" * 14]
        for job in self.jobs:
            mark = {jobqueue.DONE: "ok", jobqueue.QUARANTINED: "QUAR",
                    jobqueue.PENDING: "pend",
                    jobqueue.CLAIMED: "orph"}.get(job["state"], "?")
            note = " (store)" if job.get("from_store") else ""
            if job.get("coalesced"):
                note += f" (+{job['coalesced']} coalesced)"
            err = f" -- {job['error']}" if job.get("error") else ""
            lines.append(f"  [{mark:>4}] {job['label']}"
                         f" x{job['attempts']}{note}{err}")
        counted = ", ".join(f"{k}={v}" for k, v in sorted(self.counts.items())
                            if v)
        lines.append(f"counts: {counted or 'empty'}")
        lines.append(f"breaker: {self.breaker.get('state')} "
                     f"(trips={self.breaker.get('trips', 0)})")
        if self.replay.get("records"):
            lines.append(
                f"journal: {self.replay['records']} records replayed, "
                f"{self.replay.get('torn_records', 0)} torn, "
                f"{len(self.replay.get('orphans', []))} orphans")
        if self.drained:
            lines.append("drained: clean shutdown (journal marker written)")
        return "\n".join(lines)


class _Leg:
    """One in-flight claimed job inside this incarnation."""

    def __init__(self, job: Job, slot: int, proc=None, deadline=None,
                 err_path: str | None = None,
                 progress_path: str | None = None) -> None:
        self.job = job
        self.slot = slot
        self.proc = proc
        self.deadline = deadline
        self.err_path = err_path
        self.progress_path = progress_path


class ReproService:
    """Queue-fed supervised run engine (one incarnation).

    Construction opens *queue* -- by default the durable queue under
    *store*'s root, replayed from its journal; :meth:`submit` admits
    work; :meth:`run` executes until the queue is empty or a drain
    completes.  *workers* bounds concurrent attempts, *retries* the
    extra attempts per job, *timeout* each attempt's seconds (None =
    unlimited); the queue's ``lease_s`` bounds how long a claimed
    worker may go without a heartbeat before its lease is revoked.
    *isolation* is ``"auto"`` (worker processes when available),
    ``"process"``, or ``"inline"``.  *on_complete* is
    called with each finished :class:`~repro.analysis.queue.Job` (used
    by chaos scenarios to trigger drains mid-sweep).
    """

    def __init__(self, store: RunStore | None = None,
                 queue: JobQueue | None = None, *,
                 workers: int = 1, retries: int = DEFAULT_RETRIES,
                 timeout: float | None = None,
                 backoff_base: float = DEFAULT_BACKOFF_BASE,
                 isolation: str = "auto",
                 breaker_cooldown: int = DEFAULT_BREAKER_COOLDOWN,
                 events=None, on_complete=None,
                 progress: bool = False) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if isolation not in ("auto", "process", "inline"):
            raise ValueError(f"unknown isolation {isolation!r}")
        self.store = store or RunStore()
        self.queue = (queue if queue is not None
                      else JobQueue(queue_root(self.store.root)))
        self.workers = workers
        self.retries = retries
        self.timeout = timeout
        self.backoff_base = backoff_base
        self.isolation = isolation
        self.events = events
        self.on_complete = on_complete
        self.progress = progress
        self.breaker = CircuitBreaker(cooldown=breaker_cooldown,
                                      on_transition=self._breaker_moved)
        self._breaker_fault_seen = False
        self.draining = False
        self.warm_hits = 0
        self.transcript: list = []
        #: Job id -> that job's own transcript lines (no claim lines:
        #: which worker slot a job lands on depends on timing).
        self.job_notes: dict[str, list] = {}
        #: Job id -> error kind of a quarantined job.
        self.error_kinds: dict[str, str] = {}
        self._step = 0
        self._not_before: dict[str, float] = {}
        self._active: dict[str, _Leg] = {}  # job id -> leg
        self._free_slots = list(range(workers))
        self._init_progress_dir()
        if self.queue.replayed.records:
            self.transcript.append(
                f"journal replayed: {self.queue.replayed.records} records, "
                f"{self.queue.replayed.torn_records} torn, "
                f"{len(self.queue.replayed.orphans)} orphaned claims")
            self._emit("service.resume", "journal",
                       f"{self.queue.replayed.records} records")

    # -- wiring ------------------------------------------------------------

    def _init_progress_dir(self) -> None:
        """Per-job heartbeat files under the queue root (the sweep's
        totals are set when :meth:`run` starts).

        A durable queue's progress dir survives incarnations -- so stale
        ``worker-*.json`` from a dead service must be pruned at startup
        or the aggregator would report them as stalled forever.
        """
        from repro.obs.live import ProgressAggregator

        directory = self.queue.root / "progress"
        directory.mkdir(parents=True, exist_ok=True)
        self._aggregator = ProgressAggregator(
            directory, total_runs=0, stale_after=self.queue.lease_s)
        pruned = self._aggregator.prune()
        if pruned:
            self.transcript.append(
                f"pruned {len(pruned)} stale worker state files "
                f"from a previous incarnation")

    def _emit(self, name: str, label: str, detail: str = "") -> None:
        if self.events is None:
            return
        from repro.obs.events import ENGINE

        self._step += 1
        self.events.emit(self._step, ENGINE, name, service=label,
                         args={"detail": detail} if detail else None)

    def _note(self, line: str, job: Job | None = None) -> None:
        """One transcript line; with *job*, also one of that job's."""
        self.transcript.append(line)
        if job is not None:
            self.job_notes.setdefault(job.id, []).append(line)

    def _breaker_moved(self, old: str, new: str, why: str) -> None:
        self.transcript.append(f"breaker {old} -> {new}: {why}")
        if new == OPEN:
            self._emit("service.breaker.open", "store", why)
        elif new == CLOSED:
            self._emit("service.breaker.close", "store", why)

    # -- admission ---------------------------------------------------------

    def submit(self, spec: dict, *, priority: int = 0,
               force: bool = False) -> tuple[Job | None, str]:
        """Admit one resolved run spec.

        Returns ``(job, outcome)`` where outcome extends the queue's
        (``queued``/``coalesced``/``done``/``shed``) with ``warm``: the
        artifact already sits in the memo or the store, so the job is
        journaled and completed immediately without consuming a worker
        (load-shedding of duplicate work); *force* skips that check.
        Store *reads* stay allowed even when the breaker is open --
        degraded mode is read-only, not dead.
        """
        job, outcome = self.queue.submit(spec, priority=priority)
        if outcome == "shed":
            self._emit("service.shed", jobqueue.job_label(spec),
                       f"backlog at limit {self.queue.limit}")
            self.transcript.append(
                f"shed {jobqueue.job_label(spec)}: backlog at "
                f"limit {self.queue.limit}")
            return job, outcome
        assert job is not None
        if outcome == "coalesced":
            self._emit("service.submit", job.label, "coalesced")
            return job, outcome
        if outcome == "done":
            return job, outcome
        self._emit("service.submit", job.label, f"priority {priority}")
        if not force:
            artifact = self._store_get(job, memo=True)
            if artifact is not None:
                self.queue.complete(job.id, from_store=True)
                self.warm_hits += 1
                self._emit("service.complete", job.label, "warm store hit")
                self._note(f"warm hit {job.label}", job)
                return job, "warm"
        return job, outcome

    def _store_get(self, job: Job, memo: bool = False):
        """Breaker-guarded read of *job*'s artifact (the read path
        never blocks on OPEN, but its failures feed the breaker).  With
        *memo*, this process's memo is consulted first; a worker's fresh
        result must come from the store.  Corrupt files the store
        quarantines on the way are noted in the job's transcript."""
        seen = len(self.store.quarantined)
        try:
            artifact = (experiments.cached_artifact(job.fingerprint,
                                                    self.store)
                        if memo else self.store.get(job.fingerprint))
        except OSError as exc:
            self.breaker.record_failure(f"store read: {exc}")
            artifact = None
        for name, reason in self.store.quarantined[seen:]:
            self._emit("store.quarantine", name, reason)
            self._note(f"store quarantined {name}: {reason}", job)
        return artifact

    # -- drain / recovery --------------------------------------------------

    def request_drain(self) -> None:
        """Stop claiming; finish active legs; journal a clean shutdown."""
        if self.draining:
            return
        self.draining = True
        self._emit("service.drain", "service",
                   f"{len(self._active)} active legs")
        self.transcript.append(
            f"drain requested: finishing {len(self._active)} active legs, "
            f"{self.queue.pending_count()} jobs stay queued")

    def _reconcile_orphans(self) -> None:
        """Startup recovery: claims journaled by a dead incarnation.

        An orphaned claim's worker may have finished the run before
        dying -- the store, not the journal, is the source of truth for
        the artifact -- so each orphan is either completed from the
        store or requeued.  Requeueing is dedup-safe: identity is the
        artifact fingerprint.
        """
        orphans = [self.queue.jobs[jid] for jid in self.queue.replayed.orphans
                   if jid in self.queue.jobs]
        for job in sorted(orphans, key=lambda j: j.submit_seq):
            if job.state != jobqueue.CLAIMED:
                continue
            artifact = self._store_get(job)
            if artifact is not None:
                experiments.register_artifact(artifact)
                self.queue.complete(job.id, from_store=True)
                self._emit("service.complete", job.label,
                           "orphan: artifact already stored")
                self._note(f"orphan {job.label}: dead worker had stored "
                           f"the artifact; completed", job)
            else:
                self.queue.requeue(job.id, "orphan")
                self._emit("service.requeue", job.label, "orphaned claim")
                self._note(f"orphan {job.label}: requeued (no artifact "
                           f"stored)", job)

    # -- main loop ---------------------------------------------------------

    def run(self) -> ServiceReport:
        """Execute until the queue is empty or a drain completes."""
        self._reconcile_orphans()
        todo = self.queue.pending_jobs()
        self._aggregator.total_runs = len(todo)
        self._aggregator.total_instructions = sum(
            job.spec["instructions"] for job in todo)
        # Nothing to execute (every job served warm): skip the probe,
        # which forks a child the first time.
        use_processes = bool(todo) and (
            self.isolation == "process"
            or (self.isolation == "auto" and processes_available()))
        if todo and not use_processes and self.timeout is not None:
            self.transcript.append(
                "inline fallback: per-run timeouts and leases are "
                "best-effort only (no process isolation available)")
        while True:
            # One-shot guard: inline attempts reset fault counters
            # (workers normally re-arm in their own process), so without
            # it a times=1 trip would re-fire after every inline run.
            if not self._breaker_fault_seen \
                    and faults.fire("store.breaker.trip", "service") is not None:
                self._breaker_fault_seen = True
                self.breaker.trip("injected store failure storm")
            launched = self._launch_phase(use_processes)
            if self._active:
                self._reap()
            elif not launched:
                runnable, soonest = self._runnable()
                if self.draining or not runnable:
                    break
                if soonest is not None:
                    time.sleep(min(max(0.0, soonest - time.monotonic()),
                                   POLL_INTERVAL * 4))
                else:
                    # Breaker open: denials are counted per pass, and
                    # every `cooldown` of them admits a half-open probe.
                    time.sleep(POLL_INTERVAL)
            if self.progress:
                self._aggregator.refresh()
        if self.progress:
            self._aggregator.refresh(final=True)
        # No leg is active: a clean exit leaves no heartbeat files for
        # the next incarnation to prune.
        self._aggregator.prune()
        clean_drain = self.draining
        self.queue.mark_shutdown(clean=True, drained=clean_drain)
        if clean_drain:
            self.transcript.append("clean shutdown marker journaled "
                                   "(drained)")
        return self.report(drained=clean_drain)

    def _runnable(self) -> tuple[bool, float | None]:
        """(any pending job left, soonest backoff deadline or None)."""
        pending = self.queue.pending_jobs()
        if not pending:
            return False, None
        deadlines = [self._not_before[j.id] for j in pending
                     if j.id in self._not_before]
        if len(deadlines) == len(pending):
            return True, min(deadlines)
        return True, None

    def _launch_phase(self, use_processes: bool) -> bool:
        """Claim and start as many pending jobs as slots/policy allow."""
        launched = False
        now = time.monotonic()
        # Re-check draining inside the loop: an inline leg settles
        # synchronously, and its on_complete hook may request a drain
        # that must stop the very next claim.
        while self._free_slots and not self.draining:
            ready = [j for j in self.queue.pending_jobs()
                     if self._not_before.get(j.id, 0.0) <= now]
            if not ready:
                break
            if not self.breaker.allow():
                break
            job = self.queue.claim(f"w{self._free_slots[0]}")
            if job is None:
                # queue.claim.orphan fired: the claim is journaled but
                # this incarnation lost track of it -- exactly a worker
                # vanishing post-claim.  Recovery happens on resume.
                self._probe_lost("claimed job orphaned before tracking")
                self.transcript.append(
                    "claimed job lost before tracking (orphaned; "
                    "a resume will recover it)")
                break
            self._not_before.pop(job.id, None)
            leg = self._start_leg(job, use_processes)
            launched = True
            if leg is None:
                continue  # inline mode settles synchronously
        return launched

    def _start_leg(self, job: Job, use_processes: bool) -> _Leg | None:
        slot = self._free_slots.pop(0)
        self._emit("service.claim", job.label,
                   f"worker w{slot}, attempt {job.attempts}")
        self.transcript.append(
            f"claim w{slot} {job.label} attempt {job.attempts}")
        # A previous attempt's heartbeat must not be read as this one's:
        # the lease starts from this attempt's own first beat.
        progress_path = self._aggregator.path_for(job.id)
        _unlink(progress_path)
        if not use_processes:
            self._free_slots.insert(0, slot)
            self._run_inline(job, progress_path)
            return None
        ctx = multiprocessing.get_context()
        err_path = str(self.queue.root / f"err-{slot}.json")
        _unlink(err_path)  # a dead incarnation's stale error record
        proc = ctx.Process(
            target=_supervised_worker,
            args=(job.spec, str(self.store.root), job.attempts, err_path,
                  progress_path),
            daemon=True)
        proc.start()
        if faults.fire("service.worker.lost", job.label) is not None:
            # The host running this worker vanished: SIGKILL, no
            # cleanup, no error record.  The reap path must classify
            # the bare nonzero exit as transient and retry.
            proc.kill()
        deadline = time.monotonic() + self.timeout if self.timeout else None
        leg = _Leg(job, slot, proc=proc, deadline=deadline,
                   err_path=err_path, progress_path=progress_path)
        self._active[job.id] = leg
        return leg

    # -- settling ----------------------------------------------------------

    def _reap(self) -> None:
        sentinels = {leg.proc.sentinel: jid
                     for jid, leg in self._active.items()}
        try:
            ready = multiprocessing.connection.wait(
                list(sentinels), timeout=POLL_INTERVAL)
        except OSError:  # pragma: no cover - sentinel raced closed
            ready = []
        for sentinel in ready:
            leg = self._active.pop(sentinels[sentinel])
            leg.proc.join()
            self._free_slots.append(leg.slot)
            self._free_slots.sort()
            self._settle_exit(leg)
        now = time.monotonic()
        for jid, leg in list(self._active.items()):
            if not leg.proc.is_alive():
                continue
            if leg.deadline is not None and now >= leg.deadline:
                self._revoke(leg, f"timed out after {self.timeout:g}s; "
                                  f"worker terminated")
            elif self._lease_expired(leg):
                self._revoke(leg, f"lease expired: no heartbeat for "
                                  f"{self.queue.lease_s:g}s; worker "
                                  f"terminated")

    def _lease_expired(self, leg: _Leg) -> bool:
        if leg.progress_path is None:
            return False
        try:
            # Heartbeat mtimes are wall-clock epoch seconds (the clock
            # ProgressAggregator.samples() reads), so the age must be
            # measured against time.time(), not the monotonic clock the
            # deadline checks use.
            age = time.time() - os.stat(leg.progress_path).st_mtime
        except OSError:
            return False  # no heartbeat written yet: the timeout governs
        return age > self.queue.lease_s

    def _revoke(self, leg: _Leg, error: str) -> None:
        _kill(leg.proc)
        self._active.pop(leg.job.id, None)
        self._free_slots.append(leg.slot)
        self._free_slots.sort()
        self._probe_lost(error)
        self._retry_or_quarantine(leg.job, error, TRANSIENT)

    def _settle_exit(self, leg: _Leg) -> None:
        job = leg.job
        if leg.proc.exitcode == 0:
            artifact = self._store_get(job)
            if artifact is not None:
                self._complete(job, artifact)
                return
            error, kind = ("worker exited cleanly but stored no artifact",
                           TRANSIENT)
        else:
            record = _read_error(leg.err_path)
            if record is not None:
                error = f"{record.get('type')}: {record.get('message')}"
                kind = classify_error(record.get("type", ""),
                                      record.get("transient"))
            else:
                error = f"worker lost (exit code {leg.proc.exitcode})"
                kind = TRANSIENT
        self._note_store_failure(error)
        self._probe_lost(error)
        self._retry_or_quarantine(job, error, kind)

    def _run_inline(self, job: Job, progress_path: str) -> None:
        """Serial in-process attempt (no isolation available)."""
        beats = {}
        if self.progress:
            beats = {"progress_path": progress_path,
                     "on_beat": self._aggregator.refresh}
        try:
            if faults.fire("service.worker.lost", job.label) is not None:
                raise faults.InjectedFault(
                    "service.worker.lost",
                    f"injected worker loss ({job.label})")
            artifact = _run_attempt(
                job.spec, str(self.store.root), job.attempts, **beats)
        except Exception as exc:  # noqa: BLE001 - taxonomy below
            error = f"{type(exc).__name__}: {exc}"
            kind = classify_error(type(exc).__name__,
                                  getattr(exc, "transient", None))
            self._note_store_failure(error)
            self._probe_lost(error)
            self._retry_or_quarantine(job, error, kind)
            return
        finally:
            faults.set_attempt(1)
        self._complete(job, artifact)

    def _probe_lost(self, why: str) -> None:
        """A half-open probe ended without a store verdict.

        The only exits from HALF_OPEN are an explicit success or
        failure, but a probe can also be revoked (timeout/lease),
        orphaned at claim time, or fail with a non-store-shaped error.
        Any of those must re-open the circuit -- leaving it HALF_OPEN
        would deny every later :meth:`CircuitBreaker.allow` and livelock
        the service while pending jobs remain.
        """
        if self.breaker.state == HALF_OPEN:
            self.breaker.record_failure(f"probe lost: {why}")

    def _note_store_failure(self, error: str) -> None:
        # Only store-shaped errors accumulate toward the trip threshold.
        lowered = error.lower()
        if any(marker in lowered for marker in _STORE_FAILURE_MARKERS):
            self.breaker.record_failure(error)

    def _complete(self, job: Job, artifact) -> None:
        experiments.register_artifact(artifact)
        self.queue.complete(job.id)
        if self.progress:
            self._aggregator.finish(job.id, job.spec["instructions"])
        self.breaker.record_success()
        self._emit("service.complete", job.label,
                   f"attempt {job.attempts}")
        self._note(f"complete {job.label} attempt {job.attempts}", job)
        if self.on_complete is not None:
            self.on_complete(job)

    def _retry_or_quarantine(self, job: Job, error: str, kind: str) -> None:
        if kind == TRANSIENT and job.attempts <= self.retries:
            delay = backoff_delay(job.attempts + 1, self.backoff_base)
            self.queue.requeue(job.id, "retry")
            self._not_before[job.id] = time.monotonic() + delay
            self._emit("service.requeue", job.label, error)
            self._note(f"requeue {job.label} attempt {job.attempts}: "
                       f"[{kind}] {error}; retrying in {delay:g}s", job)
        else:
            self._quarantine(job, error, kind)

    def _quarantine(self, job: Job, error: str, kind: str) -> None:
        self.queue.quarantine(job.id, error)
        # Its partial work will never finish: drop it from the progress.
        _unlink(self._aggregator.path_for(job.id))
        self.error_kinds[job.id] = kind
        self._emit("service.quarantine", job.label, error)
        self._note(f"quarantine {job.label} attempt {job.attempts}: "
                   f"[{kind}] {error}", job)

    # -- reporting ---------------------------------------------------------

    def report(self, drained: bool = False) -> ServiceReport:
        jobs = sorted(self.queue.jobs.values(), key=lambda j: j.submit_seq)
        return ServiceReport(
            jobs=[j.to_public_dict() for j in jobs],
            counts=self.queue.counts(),
            replay=self.queue.replayed.to_json_dict(),
            breaker=self.breaker.to_json_dict(),
            transcript=list(self.transcript),
            warm_hits=self.warm_hits,
            drained=drained,
            clean=True,
            ledger=self.queue.ledger())

    def result(self, label: str, job: Job) -> RunResult:
        """*job*'s outcome as a :class:`RunResult` keyed by *label*."""
        ok = job.state == jobqueue.DONE
        return RunResult(
            label, job.spec, ok=ok,
            artifact=(experiments.cached_artifact(job.fingerprint, self.store)
                      if ok else None),
            error=None if ok else job.error or f"job left {job.state}",
            error_kind=self.error_kinds.get(job.id),
            attempts=job.attempts,
            quarantined=job.state == jobqueue.QUARANTINED,
            from_store=job.from_store,
            transcript=list(self.job_notes.get(job.id, ())))


# -- entry points ----------------------------------------------------------


def run_service(specs=None, *, store: RunStore | None = None,
                resume: bool = False, workers: int = 1,
                retries: int = DEFAULT_RETRIES,
                timeout: float | None = None,
                lease_s: float = jobqueue.DEFAULT_LEASE_S,
                queue_limit: int = jobqueue.DEFAULT_LIMIT,
                priority: int = 0,
                backoff_base: float = DEFAULT_BACKOFF_BASE,
                isolation: str = "auto", force: bool = False,
                events=None, on_complete=None,
                progress: bool = False, sigterm_drain: bool = False,
                breaker_cooldown: int = DEFAULT_BREAKER_COOLDOWN
                ) -> ServiceReport:
    """One ``repro serve`` incarnation: admit *specs*, run to empty/drain.

    The service drains the durable queue under ``<store>/queue``.
    Without *resume*, an existing journal with unfinished jobs is an
    error -- it means a previous incarnation died (or was killed) and
    its work would be silently re-judged; ``--resume`` makes recovery
    explicit.  Submitting the same specs again under resume is
    harmless: fingerprint identity coalesces them onto the journaled
    jobs.  *sigterm_drain* wires SIGTERM to a graceful drain.
    """
    store = store or RunStore()
    service = ReproService(
        store, JobQueue(queue_root(store.root), limit=queue_limit,
                        lease_s=lease_s),
        workers=workers, retries=retries, timeout=timeout,
        backoff_base=backoff_base, isolation=isolation,
        breaker_cooldown=breaker_cooldown, events=events,
        on_complete=on_complete, progress=progress)
    unfinished = (service.queue.counts()[jobqueue.PENDING]
                  + service.queue.counts()[jobqueue.CLAIMED])
    if unfinished and not resume:
        raise ServiceError(
            f"journal at {service.queue.journal_path} has {unfinished} "
            f"unfinished jobs from a previous incarnation; "
            f"rerun with --resume to recover them")
    if sigterm_drain:
        try:
            signal.signal(signal.SIGTERM,
                          lambda signum, frame: service.request_drain())
        except ValueError:  # pragma: no cover - non-main thread
            pass
    items = list(specs) if specs is not None else list(CANONICAL_SPECS)
    for item in items:
        service.submit(resolve_item(item), priority=priority, force=force)
    return service.run()


def run_many(specs=None, *, max_workers: int | None = None,
             force: bool = False, store: RunStore | None = None,
             progress: bool = False, **options) -> dict[str, RunResult]:
    """Run many specs through a service draining a throwaway queue.

    ``specs`` is an iterable of ``(workload, cpu, os_mode)`` triples or
    dicts carrying ``instructions``/``seed``/tier overrides (the diff
    engine's seed fan-out uses the dict form); the default is the eight
    canonical runs.  Returns one :class:`RunResult` per spec in input
    order, keyed by :func:`labels_for`.  Runs already in the memo or the
    store are served without executing unless *force* is set; failures
    come back as quarantined results, never as exceptions.
    *max_workers* caps the worker slots (default: one per core).
    With *progress*, executing misses renders a live aggregate line.
    *options* are :class:`ReproService` keyword arguments (``retries``,
    ``timeout``, ``isolation``, ``backoff_base``, ...).
    """
    items = list(specs) if specs is not None else list(CANONICAL_SPECS)
    resolved = [resolve_item(item) for item in items]
    workers = max_workers if max_workers is not None else default_workers()
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as scratch:
        service = ReproService(
            store, JobQueue(scratch, limit=max(1, len(items))),
            workers=max(1, min(workers, len(items))), progress=progress,
            **options)
        jobs = [service.submit(spec, force=force)[0] for spec in resolved]
        service.run()
    return {label: service.result(label, job)
            for label, job in zip(labels_for(items, resolved), jobs)}


def prefetch_all(**kwargs) -> dict[str, RunResult]:
    """Warm the store with all eight canonical runs (the ``repro
    prefetch`` entry point); *kwargs* as for :func:`run_many`."""
    return run_many(CANONICAL_SPECS, **kwargs)


def run_artifacts(specs, **kwargs) -> list[RunArtifact]:
    """:func:`run_many`'s artifacts in input order, for fan-outs that
    need every run; raises :class:`RuntimeError` naming each run that
    ended quarantined."""
    results = run_many(specs, **kwargs).values()
    failed = [f"{r.label}: {r.error}" for r in results if not r.ok]
    if failed:
        raise RuntimeError("run(s) failed: " + "; ".join(failed))
    return [r.artifact for r in results]
