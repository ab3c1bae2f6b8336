"""Golden trajectories: pinned digests of short canonical runs.

``test_determinism`` compares a run with itself, so a change that moves
every run the same way passes it.  These tests pin the sha256 of each
artifact's canonical JSON instead, so any change to what a run simulates
or stores fails here.  A digest changes only together with a
``CODE_VERSION`` bump (``repro.analysis.artifact``), which is what
retires every stored artifact of the old trajectory; update the digests
in the same change.

The runs cover the detailed pipeline on both workloads and both cores,
the APP_ONLY and omit-kernel-references modes, the fast functional tier,
and a small sampled plan (whose extrapolated floats exercise the
noise-band arithmetic).  The digests are identical under Python 3.10,
3.11 and 3.12.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.analysis.artifact import canonical_json
from repro.analysis.experiments import execute_spec, run_spec

GOLDEN = {
    "specint-smt-full": (
        dict(workload="specint", cpu="smt", os_mode="full",
             instructions=20_000),
        "4fb87759c4bc33c286cb2bb5eed5aa0dfbaee44a0911df25eaf14e928e567c53"),
    "apache-smt-full": (
        dict(workload="apache", cpu="smt", os_mode="full",
             instructions=20_000),
        "0054a09beb168220a53f12347bc45e1e6b1e3ba08c9003519160bf05bddd360e"),
    "specint-ss-app": (
        dict(workload="specint", cpu="ss", os_mode="app",
             instructions=20_000),
        "44e7299c9f5e8a1e6c7662cb5a458a6c9ad412f67e8aaa6f5bf3ff814ab49dd6"),
    "apache-smt-omit": (
        dict(workload="apache", cpu="smt", os_mode="omit",
             instructions=20_000),
        "09b40313e5c62f5e4bc2c9e6dd03332a64e68e91b835ed46628b381329e7652d"),
    "specint-smt-fast": (
        dict(workload="specint", cpu="smt", os_mode="full",
             instructions=150_000, mode="fast"),
        "cb554fdd31b85a66d1b2b721764f0ed81c57125f346512d1e29d0a1ca91e1044"),
    "apache-smt-sampled": (
        dict(workload="apache", cpu="smt", os_mode="full",
             instructions=40_000, mode="sampled", warmup=10_000,
             sample=(6_000, 2_000)),
        "0179ea613e19fb000bdce75dcfbec74dd7a05041130a91cfe4f6aefdd449c436"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_matches_golden_digest(name):
    kwargs, expected = GOLDEN[name]
    artifact = execute_spec(run_spec(**kwargs))
    text = canonical_json(artifact.to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == expected, (
        f"{name}: the simulated trajectory changed; if that is intended, "
        "bump CODE_VERSION and re-pin the digests")
