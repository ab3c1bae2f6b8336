"""Chaos harness: the end-to-end fault matrix behind ``repro chaos``.

Each scenario arms one :class:`~repro.faults.plan.FaultPlan`, runs a
small real sweep through the run engine (:mod:`repro.analysis.service`:
a one-shot :func:`~repro.analysis.service.run_many` sweep, or a
``repro serve`` incarnation on the durable queue -- torn journals,
orphaned claims, lost workers, breaker trips, graceful drains, and
SIGKILL-then-resume), and asserts the recovery contract: the sweep
completes (with partial results where the scenario demands it),
retries are bounded, corrupt data lands in quarantine, and -- checked
after every scenario -- the store still verifies clean, so no injected
fault ever corrupts a *stored* artifact.

Everything here is deterministic: fault plans are seeded and
counter-driven, run transcripts carry attempt numbers and configured
backoff delays but no wall-clock readings (and one-shot sweeps record
each run's own transcript, so parallel workers cannot interleave them),
and scenarios run in a fixed order against per-scenario sub-stores.
Running the matrix twice with the same seed produces the same
transcript, which is what makes a chaos failure in CI reproducible
locally.

The harness arms and clears the process-wide fault plan (including the
``REPRO_FAULT_PLAN`` environment variable), so it should not run
concurrently with other engine work in the same process.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Any

from repro import faults
from repro.analysis import experiments
from repro.analysis.service import RunResult, processes_available, run_many
from repro.analysis.store import RunStore

#: Instruction budget per chaos run: big enough to exercise the real
#: pipeline and windowed execution, small enough that the whole matrix
#: (with its retries and one deliberate hang) stays interactive.
DEFAULT_INSTRUCTIONS = 1_500

DEFAULT_TIMEOUT = 20.0

#: Timeout for the hung-run scenario: the worker never returns, so the
#: sweep *must* wait this out once before the retry succeeds.
HANG_TIMEOUT = 3.0


@dataclass
class ScenarioResult:
    """One scenario's verdict: its checks, and the sweep transcript."""

    name: str
    survived: bool
    skipped: bool = False
    reason: str = ""
    checks: list = field(default_factory=list)
    transcript: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {"name": self.name, "survived": self.survived,
                "skipped": self.skipped, "reason": self.reason,
                "checks": self.checks, "transcript": self.transcript}


@dataclass
class ChaosReport:
    """The full matrix outcome (``repro chaos`` renders/serializes this)."""

    seed: int
    scenarios: list = field(default_factory=list)

    @property
    def survived(self) -> bool:
        return all(s.survived or s.skipped for s in self.scenarios)

    def to_json_dict(self) -> dict:
        return {"seed": self.seed, "survived": self.survived,
                "scenarios": [s.to_json_dict() for s in self.scenarios]}

    def render(self) -> str:
        ran = [s for s in self.scenarios if not s.skipped]
        lines = [f"chaos matrix (seed {self.seed}): "
                 f"{sum(1 for s in ran if s.survived)}/{len(ran)} scenarios "
                 f"survived, {len(self.scenarios) - len(ran)} skipped"]
        for s in self.scenarios:
            verdict = ("skipped" if s.skipped
                       else "survived" if s.survived else "FAILED")
            lines.append(f"  {s.name:22s} {verdict}"
                         + (f"  ({s.reason})" if s.reason else ""))
            for check in s.checks:
                mark = "+" if check["ok"] else "!"
                detail = f"  [{check['detail']}]" if check["detail"] else ""
                lines.append(f"    {mark} {check['name']}{detail}")
            if not s.survived and not s.skipped:
                for line in s.transcript:
                    lines.append(f"      {line}")
        return "\n".join(lines)


class _Ctx:
    """Per-scenario workbench: a private sub-store, a spec factory, and
    sweep helpers that arm/clear the fault plan."""

    def __init__(self, root: pathlib.Path, name: str, seed: int,
                 instructions: int, timeout: float, retries: int,
                 max_workers: int, backoff_base: float,
                 isolation: str) -> None:
        self.store = RunStore(root / name)
        self.seed = seed
        self.instructions = instructions
        self.timeout = timeout
        self.retries = retries
        self.max_workers = max_workers
        self.backoff_base = backoff_base
        self.isolation = isolation
        self.processes = (isolation == "process"
                          or (isolation == "auto" and processes_available()))
        self.checks: list = []
        self.lines: list = []
        self.skip_reason: str | None = None

    def spec(self, cpu: str = "smt", seed: int | None = None) -> dict:
        """A small canonical-shaped run spec (app-only: cheapest mode)."""
        return {"workload": "specint", "cpu": cpu, "os_mode": "app",
                "instructions": self.instructions,
                "seed": self.seed if seed is None else seed}

    def serve(self, specs: list[dict], plan: faults.FaultPlan | None,
              resume: bool = False, **overrides: Any) -> Any:
        """One service incarnation under *plan* (cleared afterwards).

        Service scenarios run inline regardless of the matrix isolation
        setting: a serial service settles jobs in a deterministic order,
        which is what keeps the scenario transcript byte-identical.
        """
        from repro.analysis.service import run_service

        experiments.clear_cache()
        if plan is not None:
            faults.install(plan)
        else:
            faults.clear()
        kwargs: dict[str, Any] = dict(
            store=self.store, retries=self.retries,
            backoff_base=self.backoff_base, isolation="inline")
        kwargs.update(overrides)
        try:
            report = run_service(specs, resume=resume, **kwargs)
        finally:
            faults.clear()
        for line in report.transcript:
            self.lines.append(line)
        return report

    def plan(self, *sites: faults.FaultSite) -> faults.FaultPlan:
        return faults.FaultPlan(sites=tuple(sites), seed=self.seed)

    def supervise(self, specs: list[dict], plan: faults.FaultPlan | None,
                  **overrides: Any) -> dict[str, RunResult]:
        """One :func:`run_many` sweep under *plan* (cleared afterwards);
        each run's own transcript joins the scenario's, in spec order."""
        experiments.clear_cache()
        if plan is not None:
            faults.install(plan)
        else:
            faults.clear()
        kwargs: dict[str, Any] = dict(
            retries=self.retries, timeout=self.timeout,
            max_workers=self.max_workers, backoff_base=self.backoff_base,
            isolation=self.isolation)
        kwargs.update(overrides)
        try:
            results = run_many(specs, store=self.store, **kwargs)
        finally:
            faults.clear()
        for result in results.values():
            self.lines.extend(result.transcript)
        return results

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return ok

    def check_store_clean(self) -> None:
        bad = [r for r in self.store.verify()
               if r["status"] not in ("ok", "SKIP")]
        self.check("store verifies clean after faults", not bad,
                   "; ".join(f"{r['status']}: {r['detail']}" for r in bad))

    def skip(self, reason: str) -> None:
        self.skip_reason = reason


# -- scenarios -------------------------------------------------------------


def _worker_crash(ctx: _Ctx) -> None:
    """A worker dies during startup; the retry succeeds."""
    plan = ctx.plan(faults.FaultSite("worker.crash", attempt=1))
    (r,) = ctx.supervise([ctx.spec()], plan).values()
    ctx.check("run recovered after crash", r.ok and not r.from_store)
    ctx.check("exactly one retry", r.attempts == 2, f"attempts={r.attempts}")
    ctx.check("transcript records backoff",
              any("retrying in" in line for line in r.transcript))


def _mid_sim_exception(ctx: _Ctx) -> None:
    """The simulation itself raises partway through; the retry succeeds."""
    plan = ctx.plan(faults.FaultSite("sim.exception", attempt=1, arg=1_000))
    (r,) = ctx.supervise([ctx.spec()], plan).values()
    ctx.check("run recovered after mid-sim exception", r.ok)
    ctx.check("exactly one retry", r.attempts == 2, f"attempts={r.attempts}")
    ctx.check("fault carried the injection site",
              any("mid-simulation" in line for line in r.transcript))


def _watchdog_stall(ctx: _Ctx) -> None:
    """The core stops retiring; the watchdog converts the silent spin
    into a diagnostic error and the retry succeeds."""
    plan = ctx.plan(faults.FaultSite("sim.stall", attempt=1, arg=4_000))
    (r,) = ctx.supervise([ctx.spec()], plan).values()
    ctx.check("run recovered after stall", r.ok)
    ctx.check("watchdog diagnosed the stall",
              any("NoProgressError" in line for line in r.transcript))
    ctx.check("exactly one retry", r.attempts == 2, f"attempts={r.attempts}")


def _hung_run(ctx: _Ctx) -> None:
    """The worker never returns; the engine times it out, terminates
    it, and the retry succeeds.  Needs real process isolation."""
    if not ctx.processes:
        ctx.skip("no process isolation: a hung in-process run "
                 "cannot be preempted")
        return
    plan = ctx.plan(faults.FaultSite("sim.hang", attempt=1))
    (r,) = ctx.supervise([ctx.spec()], plan,
                         timeout=min(ctx.timeout, HANG_TIMEOUT)).values()
    ctx.check("run recovered after hang", r.ok)
    ctx.check("hang was timed out",
              any("timed out" in line for line in r.transcript))
    ctx.check("exactly one retry", r.attempts == 2, f"attempts={r.attempts}")


def _torn_write(ctx: _Ctx) -> None:
    """A worker dies between the temp write and the atomic rename: the
    store never sees a half-written artifact, the retry succeeds, and
    ``cache gc`` reclaims the stranded temp file."""
    plan = ctx.plan(faults.FaultSite("store.put.torn", attempt=1))
    (r,) = ctx.supervise([ctx.spec()], plan).values()
    ctx.check("run recovered after torn write", r.ok and r.attempts == 2,
              f"attempts={r.attempts}")
    # Demonstrate reclamation with a direct torn put: under inline
    # isolation both attempts share one pid, so the retry's own rename
    # would otherwise sweep the stranded temp file away.
    faults.install(ctx.plan(faults.FaultSite("store.put.torn")), env=False)
    try:
        ctx.store.put(r.artifact)
    except faults.InjectedFault:
        pass
    finally:
        faults.clear()
    stranded = ctx.store.collect_tmp(dry_run=True)
    ctx.check("stranded temp file found", len(stranded) >= 1,
              f"{len(stranded)} file(s)")
    ctx.store.collect_tmp()
    ctx.check("temp files reclaimed",
              not ctx.store.collect_tmp(dry_run=True))


def _disk_full(ctx: _Ctx) -> None:
    """The store write hits ENOSPC; classified transient and retried."""
    plan = ctx.plan(faults.FaultSite("store.put.disk_full", attempt=1))
    (r,) = ctx.supervise([ctx.spec()], plan).values()
    ctx.check("run recovered after ENOSPC", r.ok and r.attempts == 2,
              f"attempts={r.attempts}")
    ctx.check("error surfaced as ENOSPC",
              any("ENOSPC" in line for line in r.transcript))


def _corrupt_entry(ctx: _Ctx) -> None:
    """A stored artifact rots on disk: the checksum catches it on read,
    the file is quarantined (not served, not crashed on), and the run
    transparently re-executes."""
    (w,) = ctx.supervise([ctx.spec()], None).values()
    ctx.check("warm run stored", w.ok and w.attempts == 1)
    plan = ctx.plan(faults.FaultSite("store.get.corrupt", times=1))
    (r,) = ctx.supervise([ctx.spec()], plan).values()
    ctx.check("corrupt entry re-executed, not served",
              r.ok and not r.from_store and r.attempts == 1,
              f"from_store={r.from_store} attempts={r.attempts}")
    entries = ctx.store.quarantine_entries()
    # Which layer catches the rot depends on where the bytes landed:
    # mid-structure garbling fails the JSON parse, value garbling that
    # stays syntactically valid fails the checksum.  Both must quarantine.
    ctx.check("corrupt file quarantined with reason",
              len(entries) == 1 and entries[0].reason in
              ("unparsable JSON", "content checksum mismatch"),
              entries[0].reason if entries else "no quarantine entry")
    ctx.check("sweep transcript notes the quarantine",
              any("store quarantined" in line for line in r.transcript))


def _quarantine_permanent(ctx: _Ctx) -> None:
    """One spec fails every attempt: it is quarantined after bounded
    retries while the healthy spec completes -- partial results, not a
    dead sweep."""
    plan = ctx.plan(faults.FaultSite("worker.crash", times=0, match="-ss-"))
    results = ctx.supervise([ctx.spec("smt"), ctx.spec("ss")], plan)
    ok = [r for r in results.values() if r.ok]
    bad = [r for r in results.values() if not r.ok]
    ctx.check("healthy spec completed", len(ok) == 1 and "smt" in ok[0].label)
    ctx.check("failing spec quarantined",
              len(bad) == 1 and bad[0].quarantined)
    ctx.check("retries bounded", bad[0].attempts == ctx.retries + 1,
              f"attempts={bad[0].attempts} retries={ctx.retries}")
    ctx.check("partial results returned", len(results) == 2)


def _torn_journal(ctx: _Ctx) -> None:
    """The service dies mid-append of a journal record (half a line on
    disk, no newline); the resumed incarnation truncates the torn tail,
    recovers the orphaned claim from the store, and finishes the sweep."""
    specs = [ctx.spec(seed=1), ctx.spec(seed=2)]
    plan = ctx.plan(faults.FaultSite("queue.journal.torn", match="complete"))
    died = False
    try:
        ctx.serve(specs, plan)
    except faults.InjectedFault:
        died = True
    ctx.check("service died mid-append of a completion record", died)
    report = ctx.serve(specs, None, resume=True)
    ctx.check("torn record dropped on replay",
              report.replay["torn_records"] == 1,
              f"torn_records={report.replay['torn_records']}")
    ctx.check("orphaned claim completed from the store, not re-run",
              any(j["state"] == "done" and j["from_store"]
                  for j in report.jobs))
    ctx.check("sweep completed after resume",
              report.counts["done"] == 2 and not report.counts["pending"],
              f"counts={report.counts}")
    followup = ctx.serve(specs, None, resume=True)
    ctx.check("rewritten journal replays clean",
              followup.replay["torn_records"] == 0
              and followup.replay["clean_shutdown"])


def _orphan_claim(ctx: _Ctx) -> None:
    """A worker vanishes between the journaled claim and the service
    tracking it; the claim is orphaned, and the next incarnation
    requeues and finishes it -- never lost, never duplicated."""
    specs = [ctx.spec(seed=1), ctx.spec(seed=2)]
    plan = ctx.plan(faults.FaultSite("queue.claim.orphan", match="-s1"))
    report = ctx.serve(specs, plan)
    ctx.check("claim orphaned, sweep continued",
              report.counts["claimed"] == 1 and report.counts["done"] == 1,
              f"counts={report.counts}")
    resumed = ctx.serve(specs, None, resume=True)
    ctx.check("orphan requeued on resume",
              any("requeued (no artifact stored)" in line
                  for line in resumed.transcript))
    ctx.check("orphan executed exactly once more",
              resumed.counts["done"] == 2
              and all(j["attempts"] <= 2 for j in resumed.jobs),
              f"counts={resumed.counts}")


def _service_worker_lost(ctx: _Ctx) -> None:
    """A launched service worker is lost (SIGKILL-shaped: no error
    record, no cleanup); the lease/exit machinery requeues the job and
    the retry succeeds."""
    plan = ctx.plan(faults.FaultSite("service.worker.lost", match="-s1"))
    report = ctx.serve([ctx.spec(seed=1)], plan)
    ctx.check("job recovered after worker loss",
              report.counts["done"] == 1, f"counts={report.counts}")
    ctx.check("exactly one retry",
              report.jobs[0]["attempts"] == 2,
              f"attempts={report.jobs[0]['attempts']}")
    ctx.check("transcript records the requeue",
              any("requeue" in line for line in report.transcript))


def _breaker_trip(ctx: _Ctx) -> None:
    """The store circuit breaker is forced open: launches are denied
    (read-only degraded mode), a half-open probe goes through after the
    cooldown, and its success closes the circuit -- the sweep still
    completes every job."""
    plan = ctx.plan(faults.FaultSite("store.breaker.trip"))
    report = ctx.serve([ctx.spec(seed=1), ctx.spec(seed=2)], plan,
                       breaker_cooldown=2)
    ctx.check("breaker tripped exactly once",
              report.breaker["trips"] == 1,
              f"trips={report.breaker['trips']}")
    ctx.check("half-open probe closed the circuit",
              report.breaker["state"] == "closed"
              and any("half-open -> closed" in line
                      for line in report.transcript))
    ctx.check("sweep completed despite the trip",
              report.counts["done"] == 2, f"counts={report.counts}")


def _graceful_drain(ctx: _Ctx) -> None:
    """A drain request lands after the first completion: no new claims,
    active legs finish, a clean shutdown marker is journaled, and the
    next incarnation completes the remainder."""
    from repro.analysis.service import ReproService, resolve_item

    experiments.clear_cache()
    faults.clear()
    holder: dict[str, Any] = {}
    service = ReproService(
        ctx.store, isolation="inline", retries=ctx.retries,
        backoff_base=ctx.backoff_base,
        on_complete=lambda job: holder["service"].request_drain())
    holder["service"] = service
    specs = [ctx.spec(seed=1), ctx.spec(seed=2), ctx.spec(seed=3)]
    for spec in specs:
        service.submit(resolve_item(spec))
    report = service.run()
    for line in report.transcript:
        ctx.lines.append(line)
    ctx.check("drain stopped new claims",
              report.counts["done"] == 1 and report.counts["pending"] == 2,
              f"counts={report.counts}")
    ctx.check("drained cleanly", report.drained)
    resumed = ctx.serve(specs, None, resume=True)
    ctx.check("journal recorded the clean drain",
              resumed.replay["clean_shutdown"] and resumed.replay["drained"])
    ctx.check("resume completed the drained sweep",
              resumed.counts["done"] == 3, f"counts={resumed.counts}")


def _kill_resume(ctx: _Ctx) -> None:
    """A live ``repro serve`` subprocess is SIGKILLed mid-sweep; a
    resumed incarnation must converge on exactly the artifact set of an
    uninterrupted run -- no lost work, no duplicates.

    Check details are timing-independent (the kill lands wherever the
    host schedules it), so the passing report stays byte-identical; the
    journal guarantees the *outcome* is identical regardless of where
    the kill hit.
    """
    if not ctx.processes:
        ctx.skip("no process isolation: cannot SIGKILL a service")
        return
    import json
    import os
    import subprocess
    import sys
    import time

    from repro.analysis.service import run_service

    specs = [ctx.spec(seed=s) for s in (1, 2, 3, 4)]
    baseline_store = RunStore(ctx.store.root.parent / "kill-resume-baseline")
    experiments.clear_cache()
    faults.clear()
    baseline = run_service(specs, store=baseline_store, isolation="inline",
                           retries=ctx.retries,
                           backoff_base=ctx.backoff_base)
    spec_file = ctx.store.root.parent / "kill-resume-sweep.json"
    spec_file.write_text(json.dumps(specs))
    env = dict(os.environ)
    env["REPRO_CACHE_DIR"] = str(ctx.store.root)
    env.pop(faults.FAULT_PLAN_ENV, None)
    journal = ctx.store.root / "queue" / "journal.jsonl"
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--spec-file",
         str(spec_file), "--isolation", "inline"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline and proc.poll() is None:
            try:
                if journal.read_text().count('"op": "complete"') >= 1:
                    break
            except OSError:
                pass
            time.sleep(0.005)
        if proc.poll() is None:
            proc.kill()
    finally:
        proc.wait()
    experiments.clear_cache()
    resumed = run_service(specs, store=ctx.store, isolation="inline",
                          resume=True, retries=ctx.retries,
                          backoff_base=ctx.backoff_base)
    ok = True
    ok &= ctx.check("resumed sweep completed every job",
                    resumed.counts["done"] == len(specs)
                    and not resumed.counts["pending"]
                    and not resumed.counts["claimed"])
    ok &= ctx.check("no lost or duplicated runs (ledger byte-identical "
                    "to the uninterrupted sweep)",
                    resumed.ledger == baseline.ledger)
    ok &= ctx.check("stored artifact fingerprints match the "
                    "uninterrupted run",
                    sorted(e.fingerprint for e in ctx.store.entries())
                    == sorted(e.fingerprint for e in
                              baseline_store.entries()))
    if not ok:  # keep the passing report timing-independent
        for line in resumed.transcript:
            ctx.lines.append(line)


#: The matrix, in execution order.  Names are the ``--scenario`` values.
SCENARIOS: tuple[tuple[str, object], ...] = (
    ("worker-crash", _worker_crash),
    ("mid-sim-exception", _mid_sim_exception),
    ("watchdog-stall", _watchdog_stall),
    ("hung-run", _hung_run),
    ("torn-write", _torn_write),
    ("disk-full", _disk_full),
    ("corrupt-entry", _corrupt_entry),
    ("quarantine-permanent", _quarantine_permanent),
    ("torn-journal", _torn_journal),
    ("orphan-claim", _orphan_claim),
    ("service-worker-lost", _service_worker_lost),
    ("breaker-trip", _breaker_trip),
    ("graceful-drain", _graceful_drain),
    ("kill-resume", _kill_resume),
)


def scenario_names() -> list[str]:
    return [name for name, _ in SCENARIOS]


def run_matrix(store_root: str | pathlib.Path, seed: int = 11,
               names: list[str] | None = None,
               timeout: float = DEFAULT_TIMEOUT, retries: int = 2,
               max_workers: int = 2,
               instructions: int = DEFAULT_INSTRUCTIONS,
               backoff_base: float = 0.05,
               isolation: str = "auto") -> ChaosReport:
    """Run the fault matrix against sub-stores of *store_root*.

    *names* restricts which scenarios run (default: all, in order).
    *backoff_base* defaults low so the matrix's deliberate retries cost
    milliseconds; the delays still appear, deterministically, in each
    transcript.
    """
    root = pathlib.Path(store_root)
    wanted = scenario_names() if names is None else list(names)
    unknown = [n for n in wanted if n not in scenario_names()]
    if unknown:
        raise ValueError(f"unknown scenario(s): {', '.join(unknown)} "
                         f"(known: {', '.join(scenario_names())})")
    report = ChaosReport(seed=seed)
    for name, fn in SCENARIOS:
        if name not in wanted:
            continue
        ctx = _Ctx(root, name, seed=seed, instructions=instructions,
                   timeout=timeout, retries=retries, max_workers=max_workers,
                   backoff_base=backoff_base, isolation=isolation)
        fn(ctx)
        if ctx.skip_reason is not None:
            report.scenarios.append(ScenarioResult(
                name=name, survived=True, skipped=True,
                reason=ctx.skip_reason))
            continue
        ctx.check_store_clean()
        report.scenarios.append(ScenarioResult(
            name=name,
            survived=all(c["ok"] for c in ctx.checks),
            checks=ctx.checks, transcript=ctx.lines))
    experiments.clear_cache()
    return report
