"""``repro lint``: AST-based invariant checking for the reproduction.

Generic linters keep Python honest; this package keeps the *simulator*
honest.  Five rule families guard the guarantees the run engine and the
observability layer rely on:

* **D-rules** (:mod:`repro.lint.rules_determinism`) -- no host
  nondeterminism in simulation code paths, so the same config+seed keeps
  producing byte-identical probe snapshots.
* **E-rule** (:mod:`repro.lint.rules_events`) -- emitted event kinds
  exist in the kind registry.  (Kernel spans need no rule: they pair
  by construction in ``MiniDUX._push_span``.)
* **F-rules** (:mod:`repro.lint.rules_faults`) -- fault-site names,
  picklable process-boundary callables, and environment reads outside
  the ``REPRO_*`` namespace.
* **P-rules** (:mod:`repro.lint.rules_probes`) -- probe-name reads
  against the committed manifest of the 179 registered probes, where a
  typo'd name silently creates a fresh zero counter instead of failing.
* **S-rules** (:mod:`repro.lint.rules_schema`) -- the artifact
  fingerprint must cover every configuration knob, or runs that differ
  only in it share one key of the content-addressed run store.  A
  change to what runs simulate or store is caught by the golden
  digests of ``tests/test_golden_trajectories.py``, not by a rule.

Checking is pure :mod:`ast` analysis over the source tree; no simulator
code is imported or executed.  Only ``repro lint --update`` builds the
canonical machines, to dump their live probe registries into the
committed manifest.  See ``docs/static-analysis.md`` for the rule
catalogue and workflow.
"""
