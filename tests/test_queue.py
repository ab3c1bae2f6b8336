"""Tests for the durable job queue (repro.analysis.queue): journal
append/replay, checksums, torn-tail recovery, dedup, priorities,
admission control, and the byte-comparable ledger."""

import json

import pytest

from repro import faults
from repro.analysis import queue as jobqueue
from repro.analysis.queue import JobQueue, JournalError, record_check


@pytest.fixture(autouse=True)
def _disarmed():
    faults.clear()
    yield
    faults.clear()


def _spec(seed=1, instructions=1000):
    return {"workload": "specint", "cpu": "smt", "os_mode": "full",
            "instructions": instructions, "seed": seed}


def _records(q):
    return [json.loads(line)
            for line in q.journal_path.read_text().splitlines() if line]


# -- lifecycle + persistence ------------------------------------------------

def test_submit_claim_complete_lifecycle(tmp_path):
    q = JobQueue(tmp_path / "q")
    job, outcome = q.submit(_spec())
    assert outcome == "queued"
    assert job.state == jobqueue.PENDING
    claimed = q.claim("w0")
    assert claimed is job and job.state == jobqueue.CLAIMED
    assert job.worker == "w0" and job.attempts == 1
    q.complete(job.id)
    assert job.state == jobqueue.DONE
    assert q.counts()[jobqueue.DONE] == 1


def test_state_survives_reconstruction(tmp_path):
    q = JobQueue(tmp_path / "q")
    a, _ = q.submit(_spec(1))
    b, _ = q.submit(_spec(2))
    q.claim("w0")
    q.complete(a.id)

    q2 = JobQueue(tmp_path / "q")
    assert q2.replayed.records == 4
    assert q2.jobs[a.id].state == jobqueue.DONE
    assert q2.jobs[b.id].state == jobqueue.PENDING
    assert q2.ledger() == q.ledger()


def test_journal_records_carry_valid_checksums(tmp_path):
    q = JobQueue(tmp_path / "q")
    q.submit(_spec())
    for body in _records(q):
        assert body["check"] == record_check(body)


def test_journal_is_wall_clock_free(tmp_path):
    q = JobQueue(tmp_path / "q")
    job, _ = q.submit(_spec())
    q.claim("w0")
    q.complete(job.id)
    q.mark_shutdown(clean=True, drained=False)
    for body in _records(q):
        for key in body:
            assert key not in ("time", "ts", "timestamp", "pid", "mtime")


# -- torn / corrupt tails ---------------------------------------------------

def test_torn_tail_truncated_on_replay(tmp_path):
    q = JobQueue(tmp_path / "q")
    a, _ = q.submit(_spec(1))
    q.submit(_spec(2))
    # Simulate a crash mid-append: half a record, no newline.
    with open(q.journal_path, "a") as f:
        f.write('{"seq": 3, "op": "cla')

    q2 = JobQueue(tmp_path / "q")
    assert q2.replayed.records == 2
    assert q2.replayed.torn_records == 1
    # The journal was rewritten to the valid prefix...
    assert len(_records(q2)) == 2
    # ...and appending picks up a fresh, valid sequence number.
    q2.claim("w0")
    q3 = JobQueue(tmp_path / "q")
    assert q3.replayed.torn_records == 0
    assert q3.jobs[a.id].state == jobqueue.CLAIMED


def test_tampered_record_invalidates_itself_and_the_suffix(tmp_path):
    q = JobQueue(tmp_path / "q")
    a, _ = q.submit(_spec(1))
    b, _ = q.submit(_spec(2))
    q.claim("w0")
    lines = q.journal_path.read_text().splitlines()
    lines[1] = lines[1].replace('"outcome": "queued"',
                                '"outcome": "doctored"')
    q.journal_path.write_text("\n".join(lines) + "\n")

    q2 = JobQueue(tmp_path / "q")
    # Record 2 fails its checksum: it AND the valid-looking claim after
    # it are dropped (a prefix log never trusts anything past a tear).
    assert q2.replayed.records == 1
    assert q2.replayed.torn_records == 2
    assert a.id in q2.jobs and b.id not in q2.jobs
    assert q2.jobs[a.id].state == jobqueue.PENDING


def test_version_drift_refuses_to_replay(tmp_path):
    q = JobQueue(tmp_path / "q")
    q.submit(_spec())
    body = _records(q)[0]
    body["v"] = 999
    body["check"] = record_check(body)
    q.journal_path.write_text(json.dumps(body, sort_keys=True) + "\n")
    with pytest.raises(JournalError, match="version"):
        JobQueue(tmp_path / "q")


def test_older_journal_with_deadlines_and_fail_records_replays(tmp_path):
    # Version-1 journals written before per-job deadlines and the fail op
    # were removed carry a deadline_s field and may hold fail records.
    q = JobQueue(tmp_path / "q")
    a, _ = q.submit(_spec())
    q.claim("w0")
    q.requeue(a.id, "retry")
    records = _records(q)
    records[0]["deadline_s"] = 30.0
    records.insert(2, {"seq": 0, "op": "fail", "v": 1, "job": a.id,
                       "error": "flaky", "kind": "transient", "attempt": 1})
    for seq, body in enumerate(records, 1):
        body["seq"] = seq
        body["check"] = record_check(body)
    q.journal_path.write_text(
        "".join(json.dumps(body, sort_keys=True) + "\n" for body in records))
    q2 = JobQueue(tmp_path / "q")
    assert q2.replayed.records == 4 and q2.replayed.torn_records == 0
    assert q2.jobs[a.id].to_public_dict() == a.to_public_dict()
    assert q2.ledger() == q.ledger()


# -- dedup / admission ------------------------------------------------------

def test_identical_spec_coalesces(tmp_path):
    q = JobQueue(tmp_path / "q")
    a, first = q.submit(_spec())
    b, second = q.submit(_spec())
    assert first == "queued" and second == "coalesced"
    assert a is b and a.coalesced == 1
    assert q.pending_count() == 1


def test_completed_spec_reports_done(tmp_path):
    q = JobQueue(tmp_path / "q")
    a, _ = q.submit(_spec())
    q.claim("w0")
    q.complete(a.id)
    again, outcome = q.submit(_spec())
    assert outcome == "done" and again is a


def test_quarantined_spec_reopens_on_resubmit(tmp_path):
    q = JobQueue(tmp_path / "q")
    a, _ = q.submit(_spec())
    q.claim("w0")
    q.quarantine(a.id, "boom")
    again, outcome = q.submit(_spec())
    assert outcome == "queued" and again.state == jobqueue.PENDING
    assert again.error is None
    # Replay rebuilds the same state: the resubmit also clears the
    # stale quarantine error in the journaled incarnation.
    replayed = JobQueue(tmp_path / "q").jobs[a.id]
    assert replayed.state == jobqueue.PENDING and replayed.error is None
    assert replayed.to_public_dict() == again.to_public_dict()
    # An ordinary retry requeue replays to the same state too.
    q.claim("w0")
    q.requeue(a.id, "retry")
    replayed = JobQueue(tmp_path / "q").jobs[a.id]
    assert replayed.to_public_dict() == q.jobs[a.id].to_public_dict()


def test_backlog_limit_sheds(tmp_path):
    q = JobQueue(tmp_path / "q", limit=2)
    q.submit(_spec(1))
    q.submit(_spec(2))
    job, outcome = q.submit(_spec(3))
    assert outcome == "shed" and job is None
    assert q.shed_count == 1
    # The shed is durable: a new incarnation still knows about it.
    assert JobQueue(tmp_path / "q", limit=2).shed_count == 1
    # Duplicates of queued work coalesce instead of shedding.
    _, outcome = q.submit(_spec(1))
    assert outcome == "coalesced"


def test_priority_orders_claims_fifo_within_priority(tmp_path):
    q = JobQueue(tmp_path / "q")
    low1, _ = q.submit(_spec(1), priority=0)
    high, _ = q.submit(_spec(2), priority=5)
    low2, _ = q.submit(_spec(3), priority=0)
    order = [q.claim("w0").id for _ in range(3)]
    assert order == [high.id, low1.id, low2.id]


# -- recovery ---------------------------------------------------------------

def test_claimed_jobs_reported_as_orphans_on_replay(tmp_path):
    q = JobQueue(tmp_path / "q")
    a, _ = q.submit(_spec(1))
    q.submit(_spec(2))
    q.claim("w0")

    q2 = JobQueue(tmp_path / "q")
    assert q2.replayed.orphans == [a.id]
    q2.requeue(a.id, "orphan")
    assert q2.jobs[a.id].state == jobqueue.PENDING
    assert q2.claim("w0").attempts == 2  # attempt count survived


def test_shutdown_marker_survives_replay(tmp_path):
    q = JobQueue(tmp_path / "q")
    q.submit(_spec())
    q.mark_shutdown(clean=True, drained=True)
    q2 = JobQueue(tmp_path / "q")
    assert q2.replayed.clean_shutdown and q2.replayed.drained


def test_ledger_is_order_independent_and_stateful(tmp_path):
    qa = JobQueue(tmp_path / "a")
    qa.submit(_spec(1))
    qa.submit(_spec(2))
    qb = JobQueue(tmp_path / "b")
    qb.submit(_spec(2))
    qb.submit(_spec(1))
    assert qa.ledger() == qb.ledger()
    qa.complete(qa.claim("w0").id)
    assert qa.ledger() != qb.ledger()  # state is part of the ledger
    qa.complete(qa.claim("w0").id)
    for _ in range(2):
        qb.complete(qb.claim("w9").id)
    # Claim order and worker names are not part of the ledger.
    assert qa.ledger() == qb.ledger()


# -- fault sites ------------------------------------------------------------

def test_torn_journal_fault_leaves_half_a_record(tmp_path):
    q = JobQueue(tmp_path / "q")
    q.submit(_spec(1))
    faults.install(faults.FaultPlan(
        sites=(faults.FaultSite("queue.journal.torn", times=1),)), env=False)
    with pytest.raises(faults.InjectedFault, match="mid-append"):
        q.submit(_spec(2))
    faults.clear()
    raw = q.journal_path.read_text()
    assert not raw.endswith("\n")  # the tear really is torn
    q2 = JobQueue(tmp_path / "q")
    assert q2.replayed.records == 1 and q2.replayed.torn_records == 1


def test_orphan_claim_fault_journals_but_returns_none(tmp_path):
    q = JobQueue(tmp_path / "q")
    a, _ = q.submit(_spec())
    faults.install(faults.FaultPlan(
        sites=(faults.FaultSite("queue.claim.orphan", times=1),)), env=False)
    assert q.claim("w0") is None
    faults.clear()
    assert a.state == jobqueue.CLAIMED  # durably claimed, nobody tracking
    q2 = JobQueue(tmp_path / "q")
    assert q2.replayed.orphans == [a.id]


def test_queue_limit_validation(tmp_path):
    with pytest.raises(ValueError, match="limit"):
        JobQueue(tmp_path / "q", limit=0)
