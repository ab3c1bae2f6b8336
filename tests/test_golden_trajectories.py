"""Golden trajectories: pinned digests of short canonical runs.

``test_determinism`` compares a run with itself, so a change that moves
every run the same way passes it.  These tests pin the sha256 of each
artifact's canonical JSON instead, so any change to what a run simulates
or stores fails here.  They are the repository's one drift check for
stored artifacts: a new config field or knob, a changed default, a key
added to a snapshot, or a different trajectory all move the digests.

When a digest moves on purpose, bump the version that retires the old
artifacts (``repro.analysis.artifact``), then re-pin the digests in the
same change:

* ``SCHEMA_VERSION`` when the artifact layout changed -- keys were
  added to or removed from the record, its counter windows or its
  snapshots;
* ``CODE_VERSION`` otherwise -- the same layout holding different
  values (what is simulated, a config field or knob, a default).

A refactor that keeps every digest needs no bump: nothing stored
changed, and a bump would only orphan every stored artifact.

The runs cover the detailed pipeline on both workloads and both cores,
the APP_ONLY and omit-kernel-references modes, the fast functional tier,
and a small sampled plan (whose extrapolated floats exercise the
noise-band arithmetic).  The digests are identical under Python 3.10,
3.11 and 3.12.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

from repro.analysis.artifact import canonical_json
from repro.analysis.experiments import execute_spec, run_spec

GOLDEN = {
    "specint-smt-full": (
        dict(workload="specint", cpu="smt", os_mode="full",
             instructions=20_000),
        "de810247eb49551f9467d8bd310b0ee3a18e44ed3208118a1e417befab8ac993"),
    "apache-smt-full": (
        dict(workload="apache", cpu="smt", os_mode="full",
             instructions=20_000),
        "b4802dc57dbad332f689423d68039d7a7c2f48d501417309d0f66da24fef0646"),
    "specint-ss-app": (
        dict(workload="specint", cpu="ss", os_mode="app",
             instructions=20_000),
        "63fabac3fbfc75fac7e396dbc03b869c737b707466e2976147afd90f47a0c191"),
    "apache-smt-omit": (
        dict(workload="apache", cpu="smt", os_mode="omit",
             instructions=20_000),
        "cdc0f6423a869d11d5cbd5c47a7a6f2221d06b32f3abef4131e1ef5dd7dd84e0"),
    "specint-smt-fast": (
        dict(workload="specint", cpu="smt", os_mode="full",
             instructions=150_000, mode="fast"),
        "c8f80c625c64c3387bbcf26bfd509f907adbb227810750c483b6445ccd2262bd"),
    "apache-smt-sampled": (
        dict(workload="apache", cpu="smt", os_mode="full",
             instructions=40_000, mode="sampled", warmup=10_000,
             sample=(6_000, 2_000)),
        "8979b6f5d982698efaca74d5fe1445f4e3fd617aff4131fe058ad5da42d7a502"),
}


def artifact_digest(kwargs: dict) -> str:
    artifact = execute_spec(run_spec(**kwargs))
    text = canonical_json(artifact.to_json_dict())
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_matches_golden_digest(name):
    kwargs, expected = GOLDEN[name]
    assert artifact_digest(kwargs) == expected, (
        f"{name}: what this run simulates or stores changed.  If that is "
        "intended, bump SCHEMA_VERSION when the artifact layout changed "
        "(keys added or removed) and CODE_VERSION otherwise "
        "(repro.analysis.artifact), then re-pin the digests")


# -- the digests see edits to a copied tree ----------------------------------

REPO = pathlib.Path(__file__).resolve().parent.parent


def edited_copy_digest(tmp_path, name, relpath=None, old="", new=""):
    """The *name* digest, computed in a subprocess that imports a copy
    of the package with *old* replaced by *new* in *relpath*."""
    dest = tmp_path / "repro"
    shutil.copytree(REPO / "src" / "repro", dest)
    if relpath is not None:
        target = dest / relpath
        text = target.read_text()
        assert old in text, f"{relpath} no longer contains {old!r}"
        target.write_text(text.replace(old, new, 1))
    kwargs, _expected = GOLDEN[name]
    script = (
        "import repro\n"
        f"assert repro.__file__.startswith({str(dest)!r}), repro.__file__\n"
        "from tests.test_golden_trajectories import artifact_digest\n"
        f"print(artifact_digest({kwargs!r}))\n")
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        cwd=tmp_path,
        env={**os.environ,
             "PYTHONPATH": os.pathsep.join((str(tmp_path), str(REPO))),
             "REPRO_CACHE_DIR": str(tmp_path / "store")})
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout.strip()


def test_unedited_copy_reproduces_golden_digest(tmp_path):
    assert edited_copy_digest(tmp_path, "apache-smt-full") \
        == GOLDEN["apache-smt-full"][1]


def test_new_config_field_moves_golden_digest(tmp_path):
    # a new machine knob enters the spec, so the stored run changes
    digest = edited_copy_digest(
        tmp_path, "apache-smt-full", "core/config.py",
        "n_contexts: int = 8", "n_contexts: int = 8\n    rob_entries: int = 64")
    assert digest != GOLDEN["apache-smt-full"][1]


def test_snapshot_layout_change_moves_golden_digest(tmp_path):
    # every stored histogram probe gains a key: a layout change
    digest = edited_copy_digest(
        tmp_path, "apache-smt-full", "obs/registry.py",
        '"buckets": list(self.counts)}',
        '"buckets": list(self.counts), "max": 0}')
    assert digest != GOLDEN["apache-smt-full"][1]
