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
        "322fa6caa007948e0b1098a1075849f712e87f2b656b76fdaf7a9a252abe3f51"),
    "apache-smt-full": (
        dict(workload="apache", cpu="smt", os_mode="full",
             instructions=20_000),
        "95b8e59ced5dbcea20245c167b4c441a25512e60d7001fe4571ae9e760c7d1c9"),
    "specint-ss-app": (
        dict(workload="specint", cpu="ss", os_mode="app",
             instructions=20_000),
        "a908e7d35905f06eaec646145fc13c69f7e6eaa9722bfee4a64c21846c3ed008"),
    "apache-smt-omit": (
        dict(workload="apache", cpu="smt", os_mode="omit",
             instructions=20_000),
        "d5101d9e0c40a90108db9a4733748d9e38f0527ad716606e5b4bf8e2d00984ad"),
    "specint-smt-fast": (
        dict(workload="specint", cpu="smt", os_mode="full",
             instructions=150_000, mode="fast"),
        "5526632be7bc1ec0cf75eaedf103aa027749eb10ff5a30f213cc764a6fa2c4bc"),
    "apache-smt-sampled": (
        dict(workload="apache", cpu="smt", os_mode="full",
             instructions=40_000, mode="sampled", warmup=10_000,
             sample=(6_000, 2_000)),
        "435eddbd3be27f64249d4902f812077b76662aa0de34355ff7ae7cfea490852b"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_artifact_matches_golden_digest(name):
    kwargs, expected = GOLDEN[name]
    artifact = execute_spec(run_spec(**kwargs))
    text = canonical_json(artifact.to_json_dict())
    assert hashlib.sha256(text.encode()).hexdigest() == expected, (
        f"{name}: the simulated trajectory changed; if that is intended, "
        "bump CODE_VERSION and re-pin the digests")
