"""Content-addressed on-disk run store (layer 2 of the run engine).

A :class:`RunStore` persists :class:`~repro.analysis.artifact.RunArtifact`
objects as JSON files named by their content fingerprint, so canonical
runs survive across processes: the first ``repro report``, pytest session,
or benchmark pass pays the simulation cost and every later one loads the
stored artifact instead.  Invalidation is automatic -- the fingerprint
covers the artifact schema version, a code-version tag, and the full
simulation config -- so changing any knob, the counter layout, or the
simulator itself simply produces a different key and a cache miss.

The store root defaults to ``.repro_cache/`` in the current directory and
can be redirected with the ``REPRO_CACHE_DIR`` environment variable
(tests point it at a temporary directory).  Files are written atomically
(temp file + rename) and carry a whole-payload ``content_hash``; on read
that checksum is re-verified, and a corrupt entry is moved aside into
``<root>/quarantine/`` (with a ``.why`` sidecar naming the reason) and
treated as a miss -- never as an error.  Stale entries (see
:func:`_stale_reason`) stay in place as plain misses (``cache gc``
collects them, and quarantines any unreadable file it finds), and
interrupted atomic writes leave ``*.tmp.<pid>`` files that
:meth:`RunStore.collect_tmp` (``repro cache gc``) reclaims.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import pathlib
import re
from dataclasses import dataclass

from repro import faults
from repro.analysis.artifact import (SCHEMA_VERSION, ArtifactError,
                                     RunArtifact, canonical_json,
                                     run_fingerprint, run_label)

#: Default store directory, relative to the working directory.
DEFAULT_STORE_DIR = ".repro_cache"

#: Environment variable overriding the store location.
STORE_DIR_ENV = "REPRO_CACHE_DIR"

#: Subdirectory corrupt entries are moved into (never deleted: a corrupt
#: file is evidence worth keeping for diagnosis).
QUARANTINE_DIR = "quarantine"

#: Hex digits of the fingerprint embedded in each filename.
_NAME_HASH_LEN = 20


def content_hash(payload: dict) -> str:
    """Whole-payload checksum stored under ``content_hash`` on put and
    re-verified on get (the payload is hashed without that key)."""
    body = {k: v for k, v in payload.items() if k != "content_hash"}
    return hashlib.sha256(canonical_json(body).encode()).hexdigest()


def store_root() -> pathlib.Path:
    """The configured store directory (env override or the default)."""
    return pathlib.Path(os.environ.get(STORE_DIR_ENV) or DEFAULT_STORE_DIR)


def _slug(spec: dict) -> str:
    """Readable filename prefix: labels if present, else just 'run'."""
    parts = []
    for key in ("workload", "cpu", "os_mode", "seed", "instructions"):
        value = spec.get(key)
        if value is not None:
            parts.append(str(value))
    text = "-".join(parts) or "run"
    return re.sub(r"[^A-Za-z0-9._-]+", "_", text)


#: File-name prefix of the warm-up replay files that older trees stored
#: next to runs.  Nothing reads them any more, so they are stale at any
#: schema.
_LEFTOVER_PREFIX = "ckpt-"


def _stale_reason(path: pathlib.Path, schema_version) -> str:
    """Why the stored file *path* can never be served, or ``""`` when it
    is current: a leftover ``ckpt-*`` file, or a schema behind
    :data:`~repro.analysis.artifact.SCHEMA_VERSION`.  Reads, listings,
    ``cache ls --verify`` and ``cache gc`` all judge staleness here."""
    if path.name.startswith(_LEFTOVER_PREFIX):
        return "leftover ckpt- file, no longer read"
    if schema_version != SCHEMA_VERSION:
        return f"stale schema v{schema_version}"
    return ""


@dataclass(frozen=True)
class StoreEntry:
    """One stored file, as listed by ``repro cache ls``.

    ``schema_version`` is the artifact schema the payload recorded, so
    stale entries can show why they miss.  ``created`` is the file's
    mtime as an ISO-8601 timestamp.
    """

    path: pathlib.Path
    fingerprint: str
    label: str
    size: int
    schema_version: int | None = None
    created: str = ""
    flags: tuple = ()

    @property
    def stale(self) -> str:
        """Why this entry is never served (see :func:`_stale_reason`), or
        ``""`` when it is current."""
        return _stale_reason(self.path, self.schema_version)


@dataclass(frozen=True)
class QuarantineEntry:
    """One corrupt file moved aside by the store, with its reason."""

    path: pathlib.Path
    size: int
    reason: str


class RunStore:
    """Content-addressed artifact store rooted at one directory."""

    def __init__(self, root: str | os.PathLike | None = None) -> None:
        self.root = pathlib.Path(root) if root is not None else store_root()
        #: (quarantined file name, reason) for each corrupt file this
        #: handle moved aside, in order.
        self.quarantined: list[tuple[str, str]] = []

    # -- read --------------------------------------------------------------

    def get(self, fingerprint: str) -> RunArtifact | None:
        """Load the artifact with this fingerprint, or None on any miss.

        Misses are never errors: an absent, unreadable or stale file is
        a plain miss, while an unparsable, checksum-failing or invalid
        file is *quarantined* (moved to ``<root>/quarantine/`` with a
        ``.why`` sidecar) and then treated as a miss, so one corrupt
        entry can never crash a sweep or be silently served as data.
        """
        if not self.root.is_dir():
            return None
        pattern = f"*-{fingerprint[:_NAME_HASH_LEN]}.json"
        for path in sorted(self.root.glob(pattern)):
            try:
                data = path.read_bytes()
            except OSError:
                continue
            hit = faults.fire("store.get.corrupt", path.name)
            if hit is not None:
                plan = faults.active()
                data = faults.corrupt_bytes(data, plan.rng("store.get.corrupt"))
                try:
                    path.write_bytes(data)
                except OSError:  # pragma: no cover - read-only store
                    pass
            try:
                payload = json.loads(data)
            except ValueError:
                self._quarantine(path, "unparsable JSON")
                continue
            if not isinstance(payload, dict):
                self._quarantine(path, "payload is not an object")
                continue
            if _stale_reason(path, payload.get("schema_version")):
                continue  # a plain miss, collected by gc
            if payload.get("content_hash") != content_hash(payload):
                self._quarantine(path, "content checksum mismatch")
                continue
            if payload.get("fingerprint") != fingerprint:
                continue
            try:
                return RunArtifact.from_json_dict(payload)
            except ArtifactError as exc:
                self._quarantine(path, f"invalid artifact payload: {exc}")
                return None
        return None

    def __contains__(self, fingerprint: str) -> bool:
        return self.get(fingerprint) is not None

    # -- write -------------------------------------------------------------

    def put(self, artifact: RunArtifact) -> pathlib.Path:
        """Persist one artifact atomically -- a temp file, then a rename,
        so readers see all or nothing -- with its ``content_hash``;
        returns its path."""
        payload = artifact.to_json_dict()
        self.root.mkdir(parents=True, exist_ok=True)
        path = self.root / (f"{_slug(artifact.spec)}"
                            f"-{artifact.fingerprint[:_NAME_HASH_LEN]}.json")
        if faults.fire("store.put.disk_full", path.name) is not None:
            raise OSError(28, f"injected ENOSPC writing {path.name}")
        body = dict(payload, content_hash=content_hash(payload))
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_text(json.dumps(body, sort_keys=True) + "\n")
        if faults.fire("store.put.torn", path.name) is not None:
            raise faults.InjectedFault(
                "store.put.torn",
                f"injected crash between temp write and rename of {path.name}")
        os.replace(tmp, path)
        return path

    # -- quarantine --------------------------------------------------------

    def _quarantine(self, path: pathlib.Path, reason: str) -> pathlib.Path | None:
        """Move a corrupt file into ``quarantine/`` (best effort: any
        filesystem trouble degrades to leaving the file where it is,
        which the caller already treats as a miss)."""
        qdir = self.root / QUARANTINE_DIR
        try:
            qdir.mkdir(parents=True, exist_ok=True)
            target = qdir / path.name
            n = 2
            while target.exists():
                target = qdir / f"{path.stem}.{n}{path.suffix}"
                n += 1
            os.replace(path, target)
            pathlib.Path(f"{target}.why").write_text(reason + "\n")
            self.quarantined.append((target.name, reason))
            return target
        except OSError:  # pragma: no cover - quarantine must never raise
            return None

    def quarantine_entries(self) -> list[QuarantineEntry]:
        """Everything in ``quarantine/``, with recorded reasons."""
        qdir = self.root / QUARANTINE_DIR
        if not qdir.is_dir():
            return []
        out = []
        for path in sorted(qdir.glob("*.json")):
            try:
                size = path.stat().st_size
            except OSError:  # pragma: no cover - racing deletion
                continue
            try:
                reason = pathlib.Path(f"{path}.why").read_text().strip()
            except OSError:
                reason = "?"
            out.append(QuarantineEntry(path=path, size=size, reason=reason))
        return out

    # -- integrity audit ---------------------------------------------------

    def verify(self) -> list[dict]:
        """Re-check every stored file: identity, schema, and checksum.

        Returns one record per file -- ``{"label", "status", "detail",
        "path"}`` with status ``ok`` / ``SKIP`` (stale schema) /
        ``UNREADABLE`` / ``MISMATCH`` (identity drift) / ``CHECKSUM``
        (bit rot) -- sorted by path.  ``repro cache ls --verify`` renders
        these; the chaos harness asserts none are bad after a fault run.
        """
        records = []
        if not self.root.is_dir():
            return records
        for path in sorted(self.root.glob("*.json")):
            records.append(self._verify_one(path))
        return records

    def _verify_one(self, path: pathlib.Path) -> dict:
        def record(label, status, detail=""):
            return {"label": label, "status": status, "detail": detail,
                    "path": path}

        try:
            payload = json.loads(path.read_text())
        except (OSError, ValueError) as exc:
            return record("?", "UNREADABLE",
                          f"not parseable as an artifact ({exc})")
        if not isinstance(payload, dict):
            return record("?", "UNREADABLE", "payload is not an object")
        label = run_label(payload.get("spec"))
        reason = _stale_reason(path, payload.get("schema_version"))
        if reason:
            return record(label, "SKIP", reason)
        try:
            expected = run_fingerprint(RunArtifact.from_json_dict(payload).spec)
        except ArtifactError as exc:
            return record(label, "UNREADABLE", str(exc))
        fingerprint = payload.get("fingerprint")
        if fingerprint != expected:
            return record(label, "MISMATCH",
                          f"stored {str(fingerprint)[:16]} != recomputed "
                          f"{expected[:16]}")
        name_hash = path.stem.rsplit("-", 1)[-1]
        if name_hash != expected[:_NAME_HASH_LEN]:
            return record(label, "MISMATCH",
                          "filename/payload fingerprint disagree")
        if payload.get("content_hash") != content_hash(payload):
            return record(label, "CHECKSUM", "content checksum mismatch")
        return record(label, "ok", expected[:16])

    # -- maintenance -------------------------------------------------------

    def entries(self) -> list[StoreEntry]:
        """All parseable stored files, sorted by filename.

        Stale entries are still listed (with their recorded
        ``schema_version``) so ``repro cache ls`` can explain why a run
        re-simulated instead of hitting; only unreadable files are
        skipped.
        """
        return self.scan()[0]

    def scan(self) -> tuple[list[StoreEntry], list[tuple[pathlib.Path, str]]]:
        """One pass over the stored files: the :meth:`entries`, and
        ``(path, reason)`` for each file that does not parse or whose
        payload is not an object -- a file :meth:`get` would quarantine
        on sight, with the reason it would record."""
        out: list[StoreEntry] = []
        unreadable: list[tuple[pathlib.Path, str]] = []
        if not self.root.is_dir():
            return out, unreadable
        for path in sorted(self.root.glob("*.json")):
            try:
                payload = json.loads(path.read_text())
            except OSError:
                continue
            except ValueError:
                unreadable.append((path, "unparsable JSON"))
                continue
            if not isinstance(payload, dict):
                unreadable.append((path, "payload is not an object"))
                continue
            fingerprint = payload.get("fingerprint")
            if not isinstance(fingerprint, str):
                continue
            try:
                stat = path.stat()
            except OSError:
                continue
            version = payload.get("schema_version")
            created = datetime.datetime.fromtimestamp(
                stat.st_mtime).isoformat(timespec="seconds")
            flags = payload.get("flags")
            out.append(StoreEntry(
                path=path, fingerprint=fingerprint,
                label=run_label(payload.get("spec")), size=stat.st_size,
                schema_version=version if isinstance(version, int) else None,
                created=created,
                flags=tuple(flags) if isinstance(flags, list) else ()))
        return out, unreadable

    def gc(self, dry_run: bool = False
           ) -> tuple[list[StoreEntry], list[tuple[pathlib.Path, str]]]:
        """Delete stale entries (the ones ``cache ls`` flags) and move
        unreadable files into ``quarantine/``.

        A schema bump turns every stored artifact into a permanent miss;
        without collection those files leak disk forever.  An unreadable
        file (see :meth:`scan`) is kept as evidence, as :meth:`get`
        keeps it.  Returns the stale entries and the unreadable
        ``(path, reason)`` pairs (collected, or merely found with
        *dry_run*).  Current entries are never touched.
        """
        entries, unreadable = self.scan()
        stale = [entry for entry in entries if entry.stale]
        if not dry_run:
            for entry in stale:
                try:
                    entry.path.unlink()
                except OSError:  # pragma: no cover - racing deletion
                    pass
            for path, reason in unreadable:
                self._quarantine(path, reason)
        return stale, unreadable

    def collect_tmp(self, dry_run: bool = False) -> list[tuple[pathlib.Path, int]]:
        """Reclaim ``*.tmp.<pid>`` files stranded by interrupted writes.

        :meth:`put` stages each payload in a temp file before the
        atomic rename; a worker killed in that window leaves the temp
        file behind forever.  Returns ``(path, size)`` pairs (removed,
        or merely found with *dry_run*).

        The listing sorts on (base name, numeric pid), not the raw
        filename: lexicographic order ranks ``.tmp.100`` before
        ``.tmp.99``, so a retried sweep whose workers got different
        pids would reorder the ``cache gc`` transcript.
        """
        if not self.root.is_dir():
            return []

        def order(path: pathlib.Path) -> tuple[str, int]:
            base, _, pid = path.name.rpartition(".")
            return (base, int(pid) if pid.isdigit() else -1)

        found = []
        for path in sorted(self.root.glob("*.tmp.*"), key=order):
            try:
                size = path.stat().st_size
            except OSError:  # pragma: no cover - racing deletion
                continue
            found.append((path, size))
            if not dry_run:
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - racing deletion
                    pass
        return found

    def clear(self) -> int:
        """Delete every stored file; returns how many were removed."""
        removed = 0
        if not self.root.is_dir():
            return removed
        for path in sorted(self.root.glob("*.json")):
            try:
                path.unlink()
            except OSError:  # pragma: no cover - racing deletion
                continue
            removed += 1
        return removed
