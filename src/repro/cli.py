"""Command-line interface.

::

    python -m repro prefetch --workers 4          # warm the run store
    python -m repro run specint --cpu smt --instructions 200000 --progress
    python -m repro run specint --mode fast --stride 8
    python -m repro run specint --mode sampled --warmup 100000 \
        --sample 180000:20000
    python -m repro table 4
    python -m repro figure 6
    python -m repro report --out EXPERIMENTS_GENERATED.md
    python -m repro prefetch --retries 2 --timeout 600
    python -m repro cache ls
    python -m repro cache ls --verify
    python -m repro cache gc --dry-run
    python -m repro cache clear
    python -m repro chaos --json chaos.json
    python -m repro serve --spec-file sweep.json --workers 4
    python -m repro serve --resume
    python -m repro lint --json findings.json
    python -m repro list
    python -m repro counters specint --grep mem.l2
    python -m repro counters specint --against specint-ss-full
    python -m repro diff specint-smt-app specint-smt-full --seeds 3
    python -m repro flame apache-smt-full --out apache.folded
    python -m repro diff apache-ss-full apache-smt-full --flame
    python -m repro bench --check
    python -m repro trace specint --out trace.json
    python -m repro profile specint

``table`` and ``figure`` regenerate one of the paper's exhibits from the
canonical runs.  ``counters`` reads the hierarchical probe tree out of a
stored artifact (``--against`` diffs it against a second stored run);
``diff`` structurally compares two runs probe by probe, with optional
repeated-seed noise filtering (``--flame`` compares call-path
attribution tables instead); ``flame`` folds a run's call-path cycle
attribution into flamegraph.pl/speedscope input; ``bench`` measures the
simulator's own
speed on standardized scenarios, writes ``BENCH_<scenario>.json``
trajectory files, and gates regressions with ``--check``; ``trace``
re-runs a workload with the event bus attached and exports a Chrome
``trace_event`` file (open in Perfetto / ``chrome://tracing``);
``profile`` times the simulator's own components (see
``docs/observability.md``); ``lint`` runs the AST-based invariant
checks -- determinism, probe hygiene, fingerprint coverage -- and
``cache ls --verify`` re-fingerprints every stored artifact (see
``docs/static-analysis.md``); ``chaos`` runs the deterministic
fault-injection matrix against the run engine.  Every sweep goes through
one engine (:mod:`repro.analysis.service`): each attempt runs in its own
worker process with ``--timeout``, transient failures retry up to
``--retries`` times with backoff, and a run that still fails is
quarantined while the rest of the sweep finishes.  ``serve`` runs
sweeps as a resilient service -- every job transition goes through a
checksummed write-ahead journal under the store, so a killed sweep
resumes with ``--resume`` instead of restarting, duplicate submits
coalesce by artifact fingerprint, a circuit breaker degrades the
service to read-only under store failures, and SIGTERM drains
gracefully (see ``docs/robustness.md``).  Runs resolve through the content-addressed
on-disk store (default ``.repro_cache/``, override with
``REPRO_CACHE_DIR``), so only the first invocation *anywhere* pays the
simulation cost; ``REPRO_BUDGET_MULT`` scales the instruction budgets
(and is part of the store key).  ``prefetch`` executes all eight
canonical runs concurrently, one process per core (``--progress`` shows
an aggregate live line), prints each run's outcome, and exits nonzero
if any run failed; ``report`` regenerates every exhibit and writes a
combined report.
"""

from __future__ import annotations

import argparse
import functools
import sys

from repro.analysis import metrics
from repro.analysis.artifact import parse_run_label, run_label
from repro.analysis.experiments import CANONICAL_SPECS, get_run

#: Whole-run estimates a sampled run's summary prints, as named in the
#: extrapolated flat window (:func:`repro.obs.diff.flatten_window`).
SAMPLED_SUMMARY_PROBES = ("core.retired", "derived.cycles",
                          "mem.l1d.miss.user", "mem.l1d.miss.kernel",
                          "mem.l2.miss.kernel")


def _parse_sample(text: str | None) -> tuple[int, int] | None:
    """``--sample N:M`` -> (skip, measure) instruction counts."""
    if text is None:
        return None
    parts = text.split(":")
    if len(parts) != 2:
        raise SystemExit(f"bad --sample {text!r}: want N:M "
                         "(e.g. 180000:20000)")
    try:
        skip, measure = int(parts[0]), int(parts[1])
    except ValueError:
        raise SystemExit(f"bad --sample {text!r}: N and M must be integers")
    return skip, measure


def _tier_kwargs(args) -> dict:
    """The execution-tier keyword arguments of a run command."""
    return {"mode": args.mode, "warmup": args.warmup,
            "sample": _parse_sample(args.sample), "stride": args.stride}


def _cmd_run(args) -> int:
    tier = _tier_kwargs(args)
    if args.retries is not None or args.timeout is not None:
        if args.progress_out:
            raise SystemExit(
                "--progress-out cannot be combined with --retries/--timeout")
        from repro.analysis.service import DEFAULT_RETRIES, run_many

        item = {"workload": args.workload, "cpu": args.cpu,
                "os_mode": args.os_mode, "seed": args.seed}
        if args.instructions is not None:
            item["instructions"] = args.instructions
        item.update({k: v for k, v in tier.items()
                     if v not in (None, "full", 0)})
        retries = args.retries if args.retries is not None else DEFAULT_RETRIES
        (result,) = run_many(
            [item], retries=retries, timeout=args.timeout,
            force=args.progress, progress=args.progress).values()
        if not result.ok:
            for line in result.transcript:
                print(f"  {line}")
            print(f"run failed after {result.attempts} attempt(s): "
                  f"{result.error}")
            return 1
        rec = result.artifact
    elif args.progress or args.progress_out:
        from repro.analysis import experiments
        from repro.analysis.store import RunStore
        from repro.obs.live import Heartbeat, JsonlSink, TtyProgressSink

        spec = experiments.run_spec(args.workload, args.cpu, args.os_mode,
                                    args.instructions, args.seed, **tier)
        sink = (JsonlSink(args.progress_out) if args.progress_out
                else TtyProgressSink())
        heartbeat = Heartbeat(
            sink, target_instructions=spec["instructions"],
            label=run_label(spec))
        rec = experiments.execute_spec(spec, heartbeat=heartbeat)
        RunStore().put(rec)
        experiments.register_artifact(rec)
    else:
        rec = get_run(args.workload, args.cpu, args.os_mode,
                      instructions=args.instructions, seed=args.seed, **tier)
    w = rec.steady
    shares = metrics.class_shares(w)
    print(f"workload={args.workload} cpu={args.cpu} os_mode={args.os_mode}")
    if rec.mode != "full":
        print(f"execution mode      {rec.mode}")
    print(f"steady-state window: {w['retired']:,} instructions, "
          f"{w['cycles']:,} cycles")
    print(f"IPC                 {metrics.ipc(w):.2f}")
    print("cycles by class     " + "  ".join(
        f"{k}={v * 100:.1f}%" for k, v in shares.items()))
    print(f"L1I miss            {metrics.miss_rate(w, 'L1I') * 100:.2f}%")
    print(f"L1D miss            {metrics.miss_rate(w, 'L1D') * 100:.2f}%")
    print(f"L2 miss             {metrics.miss_rate(w, 'L2') * 100:.2f}%")
    print(f"DTLB miss           {metrics.miss_rate(w, 'DTLB') * 100:.2f}%")
    print(f"branch mispredict   {metrics.cond_mispredict_rate(w) * 100:.2f}%")
    print(f"squashed            {metrics.squash_fraction(w) * 100:.1f}% of fetched")
    _print_sampling(rec)
    return 0


def _print_sampling(rec) -> None:
    """Tiered-run provenance: leg plan and -- for sampled runs -- the
    whole-run extrapolation with its error bars."""
    sampling = rec.sampling
    if not sampling:
        return
    legs = ", ".join(f"{leg['mode']}:{leg['retired']:,}"
                     for leg in sampling.get("plan", []))
    print(f"leg plan            {legs} (stride {sampling.get('stride')})")
    extra = sampling.get("extrapolated")
    if not extra:
        return
    measured = extra.get("measured_instructions", 0)
    total = rec.total.get("retired", 0) or 1
    print(f"sampled windows     {extra.get('windows')} "
          f"({measured:,} measured instructions, "
          f"{measured / total * 100:.1f}% of run)")
    probes = extra.get("probes", {})
    for name in SAMPLED_SUMMARY_PROBES:
        if name in probes:
            estimate, band = probes[name]
            print(f"  ~{name:<18s} {estimate:>14,.1f} +/- {band:,.1f}")


def _print_exhibit(name: str, missing: str) -> int:
    """Print one exhibit of :data:`repro.analysis.report.EXHIBITS`, or
    exit with *missing* when there is no exhibit *name*."""
    from repro.analysis.report import EXHIBITS, build_exhibit

    if name not in EXHIBITS:
        raise SystemExit(missing)
    print(build_exhibit(name)["text"])
    return 0


def _cmd_table(args) -> int:
    return _print_exhibit(
        f"tab{args.number}",
        f"no such table: {args.number} (the paper has Tables 2-9)")


def _cmd_figure(args) -> int:
    return _print_exhibit(
        f"fig{args.number}",
        f"no such figure: {args.number} (the paper has Figures 1-7)")


def _cmd_prefetch(args) -> int:
    """``repro prefetch``: run the eight canonical runs through the
    engine and print each one's outcome.  A run that fails for good is
    quarantined, the others still finish, and the exit code is 1."""
    from repro.analysis.service import prefetch_all
    from repro.analysis.store import RunStore

    results = prefetch_all(max_workers=args.workers, force=args.force,
                           progress=args.progress, retries=args.retries,
                           timeout=args.timeout)
    failed = 0
    for label in sorted(results):
        r = results[label]
        if r.ok:
            src = "store" if r.from_store else f"{r.attempts} attempt(s)"
            print(f"  {label:20s} {r.artifact.total['retired']:>12,} "
                  f"instructions ({r.artifact.fingerprint[:12]}, {src})")
        else:
            failed += 1
            print(f"  {label:20s} FAILED [{r.error_kind}]: {r.error}")
    print(f"{len(results) - failed}/{len(results)} canonical runs ready "
          f"(store: {RunStore().root})")
    return 1 if failed else 0


def _cmd_cache(args) -> int:
    from repro.analysis.store import RunStore

    store = RunStore()
    if args.cache_command == "clear":
        print(f"removed {store.clear()} stored file(s) from {store.root}")
        return 0
    if args.cache_command == "ls" and args.verify:
        return _cache_verify(store)
    if args.cache_command == "gc":
        stale, unreadable = store.gc(dry_run=args.dry_run)
        tmp = store.collect_tmp(dry_run=args.dry_run)
        if not stale and not unreadable and not tmp:
            print(f"no stale entries, unreadable files or stranded temp "
                  f"files in {store.root}")
            return 0
        verb = "would remove" if args.dry_run else "removed"
        for entry in stale:
            version = ("?" if entry.schema_version is None
                       else f"v{entry.schema_version}")
            print(f"  {entry.label:24s} {version:<4s} {entry.size:>10,} B  "
                  f"{entry.path.name}")
        if stale:
            print(f"{verb} {len(stale)} stale run(s), "
                  f"{sum(e.size for e in stale):,} bytes from {store.root}")
        for path, reason in unreadable:
            print(f"  {'(unreadable)':24s} {path.name}: {reason}")
        if unreadable:
            print(f"{'would move' if args.dry_run else 'moved'} "
                  f"{len(unreadable)} unreadable file(s) into "
                  f"{store.root / 'quarantine'}")
        for path, size in tmp:
            print(f"  {'(interrupted write)':24s} {'':4s} {size:>10,} B  "
                  f"{path.name}")
        if tmp:
            print(f"{verb} {len(tmp)} stranded temp file(s), "
                  f"{sum(size for _, size in tmp):,} bytes "
                  f"from {store.root}")
        return 0
    entries, unreadable = store.scan()
    quarantined = store.quarantine_entries()
    if not entries and not unreadable:
        print(f"store {store.root} is empty")
        if quarantined:
            print(f"[{len(quarantined)} quarantined corrupt file(s) in "
                  f"{store.root / 'quarantine'}]")
        return 0
    total = 0
    stale = 0
    for entry in entries:
        total += entry.size
        version = ("?" if entry.schema_version is None
                   else f"v{entry.schema_version}")
        if entry.stale:
            stale += 1
            version += "*"
        flags = f"  [{','.join(entry.flags)}]" if entry.flags else ""
        print(f"  {entry.label:24s} {version:<4s} "
              f"{entry.created:19s} {entry.size:>10,} B  "
              f"{entry.fingerprint[:16]}  {entry.path.name}{flags}")
    for path, reason in unreadable:
        print(f"  {'(unreadable)':24s} {path.name}: {reason}")
    summary = (f"{len(entries) - stale} stored run(s), {total:,} bytes "
               f"in {store.root}")
    if stale:
        summary += (f"  [{stale} stale: never served, "
                    "`repro cache gc` removes them]")
    if unreadable:
        summary += (f"  [{len(unreadable)} unreadable: `repro cache gc` "
                    "quarantines them]")
    if quarantined:
        summary += (f"  [{len(quarantined)} quarantined corrupt file(s) in "
                    f"{store.root / 'quarantine'}]")
    print(summary)
    return 0


def _cache_verify(store) -> int:
    """``repro cache ls --verify``: re-check every stored entry.

    The runtime companion to lint rule S101, rendered from
    :meth:`~repro.analysis.store.RunStore.verify`: each current-schema
    artifact is re-loaded, its spec re-fingerprinted (MISMATCH = stored
    identity no longer matches its config), and its whole-payload
    checksum re-computed (CHECKSUM = bit rot).  Exits nonzero when any
    entry is bad.
    """
    records = store.verify()
    if not records:
        print(f"store {store.root} is empty")
        return 0
    bad = 0
    checked = 0
    for rec in records:
        status, name = rec["status"], rec["path"].name
        if status == "ok":
            checked += 1
            print(f"  {rec['label']:24s} ok        {rec['detail']}")
        elif status == "SKIP":
            print(f"  {rec['label']:24s} SKIP      {rec['detail']} ({name})")
        else:
            bad += 1
            if status in ("MISMATCH", "CHECKSUM"):
                checked += 1
            print(f"  {rec['label']:24s} {status}  {rec['detail']}  "
                  f"({name})")
    print(f"{checked} verified, {bad} problem(s) in {store.root}")
    return 1 if bad else 0


def _cmd_chaos(args) -> int:
    """``repro chaos``: run the deterministic fault matrix end to end."""
    from repro.faults import chaos

    if args.list:
        for name in chaos.scenario_names():
            print(name)
        return 0
    kwargs = {"seed": args.seed, "names": args.scenario or None}
    for key in ("timeout", "retries", "workers", "instructions"):
        value = getattr(args, key)
        if value is not None:
            kwargs["max_workers" if key == "workers" else key] = value
    try:
        if args.store:
            report = chaos.run_matrix(args.store, **kwargs)
        else:
            import tempfile

            with tempfile.TemporaryDirectory(prefix="repro-chaos-") as tmp:
                report = chaos.run_matrix(tmp, **kwargs)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.json:
        _write_json(args.json, report.to_json_dict(), args.force)
    print(report.render())
    return 0 if report.survived else 1


def _cmd_serve(args) -> int:
    """``repro serve``: queue-fed resilient sweep service."""
    from repro.analysis.service import ServiceError, run_service

    specs = None
    if args.spec_file:
        import json as _json

        try:
            with open(args.spec_file) as f:
                specs = _json.load(f)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"cannot read spec file: {exc}")
        if not isinstance(specs, list) or not specs:
            raise SystemExit("spec file must hold a non-empty JSON list "
                             "of run specs")
    try:
        report = run_service(
            specs, resume=args.resume, workers=args.workers,
            retries=args.retries, timeout=args.timeout,
            lease_s=args.lease, queue_limit=args.queue_limit,
            priority=args.priority,
            isolation=args.isolation, progress=args.progress,
            sigterm_drain=True)
    except ServiceError as exc:
        raise SystemExit(str(exc))
    if args.json:
        _write_json(args.json, report.to_json_dict(), args.force)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_counters(args) -> int:
    rec = _load_artifact_file(args.run)
    if rec is None:
        if args.run not in ("specint", "apache"):
            raise SystemExit(f"bad run {args.run!r}: want specint, apache "
                             "or a path to an artifact .json")
        rec = get_run(args.run, args.cpu, args.os_mode,
                      instructions=args.instructions, seed=args.seed)
    if args.against:
        return _counters_against(args, rec)
    probes = rec.window(args.window).get("probes", {})
    if args.grep:
        pattern = _compile_grep_or_exit(args.grep)
        probes = {k: v for k, v in probes.items() if pattern.search(k)}
    if not probes:
        print(f"no probes match regex {args.grep!r}" if args.grep
              else f"{rec.label}: the {args.window} window records no "
                   "probes")
        return 1
    import json as _json

    from repro.obs.registry import snapshot_percentile

    width = max(len(name) for name in probes)
    for name in sorted(probes):
        value = probes[name]
        if isinstance(value, dict):  # histogram snapshot
            pct = "  ".join(
                f"p{int(q * 100)}={snapshot_percentile(value, q):.1f}"
                for q in (0.50, 0.95, 0.99))
            print(f"  {name:<{width}s} {pct}  "
                  f"{_json.dumps(value, sort_keys=True)}")
        elif isinstance(value, float):
            print(f"  {name:<{width}s} {value:>14.3f}")
        else:
            print(f"  {name:<{width}s} {value:>14,}")
    print(f"{len(probes)} probe(s) [{args.window} window] "
          f"{rec.label} ({rec.fingerprint[:12]})")
    return 0


def _counters_against(args, rec) -> int:
    """``repro counters --against``: side-by-side probe deltas."""
    from repro.obs.diff import diff_artifacts

    other = _resolve_run_arg(args.against, args.instructions, args.seed)
    report = diff_artifacts(other, rec, window=args.window, grep=args.grep)
    if not report.deltas:
        print(f"no probes match regex {args.grep!r}" if args.grep
              else "no probes to compare")
        return 1
    print(report.render(show_all=True))
    return 0


def _compile_grep_or_exit(pattern: str):
    """Compile a ``--grep`` regex, turning ``re.error`` into a CLI error.

    Grep patterns are unanchored regexes matched with ``re.search``
    (:func:`repro.obs.diff.compile_grep`): plain prefixes like ``mem.l2``
    keep working, and ``^``/``$`` anchor explicitly when needed.
    """
    from repro.obs.diff import compile_grep

    try:
        return compile_grep(pattern)
    except ValueError as exc:
        raise SystemExit(f"bad --grep: {exc}")


def _load_artifact_file(text: str):
    """The stored artifact at path *text*, or ``None`` if *text* is no path."""
    import os as _os

    from repro.analysis.artifact import ArtifactError, RunArtifact

    if not (text.endswith(".json") or _os.sep in text):
        return None
    try:
        return RunArtifact.loads(open(text).read())
    except (OSError, ArtifactError) as exc:
        raise SystemExit(f"cannot load artifact file {text!r}: {exc}")


def _resolve_run_arg(text: str, instructions, seed):
    """A diff-side argument as an artifact.

    Accepts a ``workload-cpu-os_mode`` label (resolved through the
    memo/store/execute layers) or a path to a stored artifact JSON file.
    """
    rec = _load_artifact_file(text)
    if rec is not None:
        return rec
    run = parse_run_label(text)
    if run is None:
        raise SystemExit(
            f"bad run {text!r}: want workload-cpu-os_mode "
            "(e.g. specint-smt-full) or a path to an artifact .json")
    return get_run(**run, instructions=instructions, seed=seed)


def _cmd_diff(args) -> int:
    from repro.obs.diff import diff_seeds, probe_flat, seed_fanout
    from repro.obs.flame import flame_flat
    from repro.obs.timeline import (missing_timeline_cause, timeline_record,
                                    timeline_view)

    if args.timeline and args.flame:
        raise SystemExit("--timeline and --flame are mutually exclusive")
    if args.timeline and args.per_kilo:
        raise SystemExit(
            "--per-kilo does not apply to --timeline: timeline entries "
            "are already rates (shares and per-interval IPC)")
    if args.grep:
        _compile_grep_or_exit(args.grep)
    if args.seeds > 1:
        for text in (args.run_a, args.run_b):
            if text.endswith(".json"):
                raise SystemExit(
                    "--seeds needs run labels, not artifact files "
                    f"(cannot re-seed {text!r})")

        def _side(text):
            run = parse_run_label(text)
            if run is None:
                raise SystemExit(
                    f"bad run {text!r}: want workload-cpu-os_mode")
            return {**run, "instructions": args.instructions,
                    "seed": args.seed}

        arts_a, arts_b = seed_fanout(_side(args.run_a), _side(args.run_b),
                                     args.seeds, max_workers=args.workers)
    else:
        arts_a = [_resolve_run_arg(args.run_a, args.instructions, args.seed)]
        arts_b = [_resolve_run_arg(args.run_b, args.instructions, args.seed)]
    if args.timeline:
        flatten, window = timeline_view(arts_a + arts_b), "timeline"
    else:
        flatten = functools.partial(flame_flat if args.flame else probe_flat,
                                    window=args.window, per_kilo=args.per_kilo)
        window = args.window
    report = diff_seeds(arts_a, arts_b, flatten, window=window,
                        grep=args.grep, per_kilo=args.per_kilo)
    if args.timeline and not report.deltas:
        for art in (arts_a[0], arts_b[0]):
            if timeline_record(art) is None:
                print(f"note: {art.label} carries no probe timeline: "
                      f"{missing_timeline_cause(art)}")
    if args.json:
        _write_json(args.json, report.to_json_dict(), args.force)
    print(report.render(n=args.top, key=args.sort, show_all=args.all))
    return 0


def _cmd_flame(args) -> int:
    """``repro flame``: fold one run's call-path attribution table.

    Prints a ranked call-path table; ``--out`` additionally writes the
    folded-stack file (``path;frames count`` lines) that flamegraph.pl
    and speedscope import directly.
    """
    from repro.obs import flame

    if args.grep:
        _compile_grep_or_exit(args.grep)
    rec = _resolve_run_arg(args.run, args.instructions, args.seed)
    window = rec.window(args.window)
    paths = flame.flame_paths(window)
    if not paths:
        cause = f"it spans {window.get('cycles', 0):,} cycles"
        if args.window == "startup" and not window.get("cycles"):
            cause += " (the run had no warm-up)"
        print(f"{rec.label}: the {args.window} window carries no call "
              f"paths: {cause}")
        return 1
    folded = flame.fold(paths, grep=args.grep)
    if args.grep and not folded:
        print(f"no call paths match regex {args.grep!r}")
        return 1
    if args.out:
        _guard_overwrite(args.out, args.force)
        with open(args.out, "w") as f:
            f.write(folded)
        print(f"wrote {args.out} ({folded.count(chr(10))} folded path(s))")
    if args.json:
        _write_json(args.json, {
            "label": rec.label, "fingerprint": rec.fingerprint,
            "window": args.window, "grep": args.grep,
            "attribution": {k: v for k, v in sorted(paths.items())}},
            args.force)
    print(flame.render_table(paths, top=args.top, grep=args.grep))
    print(f"[{args.window} window] {rec.label} ({rec.fingerprint[:12]})")
    dropped = window.get("probes", {}).get("core.events.dropped", 0)
    if dropped:
        print(f"warning: event ring dropped {dropped} event(s) during this "
              "run; span-derived paths may be truncated")
    return 0


def _cmd_timeline(args) -> int:
    """``repro timeline``: render a stored run's interval probe series.

    One sparkline row per derived headline series (interval IPC,
    kernel-cycle share, miss rates, ...), detected phase boundaries, and
    optional CSV/JSON exports of the raw record.
    """
    from repro.analysis.export import probe_timeline_to_csv
    from repro.analysis.render import sparkline
    from repro.obs import timeline as tl

    if args.grep:
        _compile_grep_or_exit(args.grep)
    rec = _resolve_run_arg(args.run, args.instructions, args.seed)
    record = tl.timeline_record(rec)
    if record is None:
        print(f"{rec.label} carries no probe timeline: "
              f"{tl.missing_timeline_cause(rec)}")
        return 1
    if args.csv:
        _guard_overwrite(args.csv, args.force)
        probe_timeline_to_csv(record, args.csv)
        print(f"wrote {args.csv} ({record['samples']} sample(s), "
              f"{len(record['columns'])} column(s))")
    if args.json:
        _write_json(args.json, {
            "label": rec.label, "fingerprint": rec.fingerprint,
            "record": record, "phases": tl.detect_phases(record)},
            args.force)

    series = dict(tl.derived_series(record))
    series.update(tl.service_share_series(record))
    if args.probe:
        missing = [p for p in args.probe if p not in series]
        if missing:
            raise SystemExit(
                f"unknown timeline series {missing}; "
                f"available: {', '.join(sorted(series))}")
        series = {name: series[name] for name in args.probe}
    series = tl.filter_series(series, args.grep)
    if not series:
        print(f"no timeline series match regex {args.grep!r}")
        return 1

    interval = record["interval"]
    span = record["samples"] * interval
    print(f"{rec.label} ({rec.fingerprint[:12]})  "
          f"{record['samples']} sample(s) x {interval:,} cycles "
          f"= {span:,} cycles")
    label_w = max(len(name) for name in series)
    for name in sorted(series):
        values = series[name]
        line = sparkline(values, width=args.width)
        lo, hi = min(values), max(values)
        print(f"{name.ljust(label_w)}  {line}  "
              f"min {lo:.3f}  max {hi:.3f}  last {values[-1]:.3f}")
    phases = tl.detect_phases(record)
    if phases:
        print()
        for b in phases:
            print(f"phase @ cycle {b['cycle']:,}: {b['metric']} "
                  f"{b['before']:.3f} -> {b['after']:.3f}")
        warmup = tl.suggest_warmup(record)
        if warmup is not None:
            print(f"suggested sampled-mode warm-up: {warmup:,} instructions "
                  "(first phase boundary)")
    if record["dropped"]:
        print(f"warning: sample cap hit; the last {record['dropped']} "
              "interval(s) were not recorded and the series is truncated "
              "(a ProbeTimeline with a larger max_samples or a wider "
              "interval records them)")
    return 0


def _cmd_bench(args) -> int:
    from repro.obs import baseline

    scenarios = args.scenarios or list(baseline.DEFAULT_SCENARIOS)
    unknown = [s for s in scenarios if s not in baseline.SCENARIOS]
    if unknown:
        raise SystemExit(f"unknown scenario(s) {unknown} "
                         f"(want one of {sorted(baseline.SCENARIOS)})")
    tolerance = (args.tolerance if args.tolerance is not None
                 else baseline.DEFAULT_TOLERANCE)
    exit_code = 0
    for name in scenarios:
        measured = baseline.measure_isolated(name,
                                             instructions=args.instructions)
        host = measured["host"]
        stats = "  ".join(f"{k}={v:,}" for k, v in sorted(host.items()))
        if not args.check:
            path = baseline.write_baseline(measured, args.dir)
            print(f"{name}: {stats}  -> {path}")
            continue
        stored = baseline.load_baseline(name, args.dir)
        if stored is None:
            path = baseline.write_baseline(measured, args.dir)
            print(f"{name}: no baseline to check against; seeded {path}")
            continue
        regressions, notes = baseline.check(measured, stored,
                                            tolerance=tolerance)
        for note in notes:
            print(f"{name}: note: {note}")
        if regressions:
            exit_code = 1
            print(f"{name}: REGRESSION  {stats}")
            for item in regressions:
                print(f"  {item}")
        else:
            print(f"{name}: ok  {stats}")
            if args.update:
                baseline.write_baseline(measured, args.dir)
    return exit_code


def _guard_overwrite(path: str, force: bool) -> None:
    """Refuse to clobber an existing output file unless --force is given."""
    import os as _os

    if _os.path.exists(path) and not force:
        raise SystemExit(
            f"refusing to overwrite existing {path!r} (use --force)")


def _write_json(path: str, payload, force: bool) -> None:
    """Write a command's ``--json`` output: the overwrite guard, indented
    sorted JSON with a trailing newline, and a ``wrote`` line."""
    import json as _json

    _guard_overwrite(path, force)
    with open(path, "w") as f:
        _json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {path}")


def _cmd_trace(args) -> int:
    from repro.analysis.experiments import build_simulation
    from repro.obs.events import EventBus
    from repro.obs.export import to_jsonl, write_chrome_trace

    _guard_overwrite(args.out, args.force)
    sim = build_simulation(args.workload, args.cpu, args.os_mode,
                           seed=args.seed)
    bus = EventBus(capacity=args.capacity)
    sim.attach_events(bus)
    sim.run(max_instructions=args.instructions)
    if args.jsonl:
        with open(args.out, "w") as f:
            f.write(to_jsonl(bus.events) + "\n")
    else:
        write_chrome_trace(args.out, bus.events,
                           n_contexts=sim.machine.cpu.n_contexts)
    kinds = ", ".join(f"{k}={v}" for k, v in sorted(bus.counts().items()))
    print(f"wrote {args.out} ({len(bus)} events: {kinds}; "
          f"{bus.dropped} dropped)")
    if bus.dropped:
        print(f"warning: event ring overflowed; the oldest {bus.dropped} "
              f"event(s) were dropped and the profile is truncated "
              f"(raise --capacity, currently {args.capacity})")
    return 0


def _cmd_profile(args) -> int:
    from repro.analysis.experiments import build_simulation
    from repro.obs.profile import profile_simulation

    if args.out:
        _guard_overwrite(args.out, args.force)
    sim = build_simulation(args.workload, args.cpu, args.os_mode,
                           seed=args.seed)
    prof = profile_simulation(sim, args.instructions)
    text = (prof.render()
            + f"\n\n{sim.stats.retired:,} instructions in "
            f"{sim.stats.cycles:,} cycles "
            f"({args.workload}/{args.cpu}/{args.os_mode})")
    if args.out:
        with open(args.out, "w") as f:
            f.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_report(args) -> int:
    from repro.analysis.report import build_report

    report = build_report(max_workers=args.workers)
    if args.out:
        report.write(args.out, exhibits_dir=args.exhibits_dir)
        print(f"wrote {args.out} "
              f"({report.shape_criteria_held}/{report.shape_criteria_total} "
              "shape criteria hold)")
    else:
        print(report.text)
    return 0


def _cmd_compare(args) -> int:
    from repro.analysis.paper import render_markdown
    from repro.analysis.report import comparison_rows

    rows = comparison_rows()
    body = render_markdown(rows)
    if args.out:
        with open(args.out, "w") as f:
            f.write(body + "\n")
        print(f"wrote {args.out}")
    else:
        print(body)
    failed = [r for r in rows if not r.holds]
    print(f"\n{len(rows) - len(failed)}/{len(rows)} shape criteria hold")
    return 1 if failed and args.strict else 0


def _cmd_list(args) -> int:
    print("Canonical runs (workload x cpu x os_mode):")
    for wl, cpu, mode in CANONICAL_SPECS:
        print(f"  {wl:8s} {cpu:4s} {mode}")
    print("\nExhibits: figures 1-7, tables 2-9 "
          "(Table 1 is the machine configuration; see repro.core.config).")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Reproduction of 'An Analysis of Operating System "
                     "Behavior on a Simultaneous Multithreaded Architecture' "
                     "(ASPLOS 2000)"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one canonical simulation")
    p_run.add_argument("workload", choices=["specint", "apache"])
    p_run.add_argument("--cpu", choices=["smt", "ss"], default="smt")
    p_run.add_argument("--os-mode", choices=["full", "app", "omit"],
                       default="full", dest="os_mode")
    p_run.add_argument("--instructions", type=int, default=None)
    p_run.add_argument("--seed", type=int, default=11)
    p_run.add_argument("--mode", choices=["full", "fast", "sampled"],
                       default="full",
                       help="execution tier: full detail, fast-functional, "
                            "or interval sampling (docs/execution-modes.md)")
    p_run.add_argument("--warmup", type=int, default=0, metavar="N",
                       help="fast-forward the first N instructions before "
                            "the main phase (cache/TLB/predictor warm-up)")
    p_run.add_argument("--sample", default=None, metavar="N:M",
                       help="sampled mode interval: fast-forward N, then "
                            "measure M in detail, repeating")
    p_run.add_argument("--stride", type=int, default=None, metavar="S",
                       help="fast-mode frame subsampling stride "
                            "(default 8; 1 = materialize everything)")
    p_run.add_argument("--progress", action="store_true",
                       help="execute fresh (even if stored) with a live "
                            "progress line")
    p_run.add_argument("--progress-out", default=None, dest="progress_out",
                       metavar="FILE",
                       help="write JSONL heartbeat samples to FILE instead "
                            "of a progress line (headless runs)")
    p_run.add_argument("--retries", type=int, default=None,
                       help="supervised execution: retry a failed run up "
                            "to N times with backoff")
    p_run.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="supervised execution: terminate the run after "
                            "S seconds per attempt")
    p_run.set_defaults(func=_cmd_run)

    p_table = sub.add_parser("table", help="regenerate one paper table (2-9)")
    p_table.add_argument("number", type=int)
    p_table.set_defaults(func=_cmd_table)

    p_fig = sub.add_parser("figure", help="regenerate one paper figure (1-7)")
    p_fig.add_argument("number", type=int)
    p_fig.set_defaults(func=_cmd_figure)

    p_rep = sub.add_parser("report", help="regenerate every table and figure")
    p_rep.add_argument("--out", default=None)
    p_rep.add_argument("--exhibits-dir", default=None, dest="exhibits_dir",
                       help="also write one file per exhibit here")
    p_rep.add_argument("--workers", type=int, default=None,
                       help="warm missing canonical runs with this many "
                            "processes first")
    p_rep.set_defaults(func=_cmd_report)

    p_pre = sub.add_parser(
        "prefetch",
        help="execute all eight canonical runs in parallel and store them")
    p_pre.add_argument("--workers", type=int, default=None,
                       help="process count (default: one per core)")
    p_pre.add_argument("--force", action="store_true",
                       help="re-run even when the store already has a run")
    p_pre.add_argument("--progress", action="store_true",
                       help="show one aggregate live line while runs execute")
    p_pre.add_argument("--retries", type=int, default=2,
                       help="retry each transiently failing run up to N "
                            "times with backoff (default 2)")
    p_pre.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="terminate a run after S seconds per attempt")
    p_pre.set_defaults(func=_cmd_prefetch)

    p_cache = sub.add_parser(
        "cache", help="inspect, garbage-collect, or clear the run store")
    p_cache.add_argument("cache_command", choices=["ls", "gc", "clear"])
    p_cache.add_argument("--dry-run", action="store_true", dest="dry_run",
                         help="gc: list stale entries without deleting them")
    p_cache.add_argument("--verify", action="store_true",
                         help="ls: re-fingerprint every entry and flag "
                              "config/fingerprint mismatches")
    p_cache.set_defaults(func=_cmd_cache)

    p_chaos = sub.add_parser(
        "chaos",
        help="run the deterministic fault-injection matrix end to end")
    p_chaos.add_argument("--scenario", action="append", default=None,
                         metavar="NAME",
                         help="run only this scenario (repeatable; "
                              "see --list)")
    p_chaos.add_argument("--list", action="store_true",
                         help="list scenario names and exit")
    p_chaos.add_argument("--seed", type=int, default=11,
                         help="fault-plan seed (same seed => same "
                              "transcript)")
    p_chaos.add_argument("--store", default=None, metavar="DIR",
                         help="root for per-scenario sub-stores "
                              "(default: a temp dir)")
    p_chaos.add_argument("--timeout", type=float, default=None, metavar="S",
                         help="per-attempt timeout inside scenarios")
    p_chaos.add_argument("--retries", type=int, default=None,
                         help="retry budget inside scenarios (default 2)")
    p_chaos.add_argument("--workers", type=int, default=None,
                         help="worker processes per scenario (default 2)")
    p_chaos.add_argument("--instructions", type=int, default=None,
                         help="instruction budget per chaos run")
    p_chaos.add_argument("--json", default=None, metavar="FILE",
                         help="also write the machine-readable report here")
    p_chaos.add_argument("--force", action="store_true",
                         help="overwrite an existing --json file")
    p_chaos.set_defaults(func=_cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="resilient sweep service: durable job queue, circuit "
             "breaker, graceful drain, crash recovery")
    p_serve.add_argument("--spec-file", default=None, metavar="FILE",
                         help="JSON list of run specs to admit (default: "
                              "the eight canonical runs)")
    p_serve.add_argument("--resume", action="store_true",
                         help="replay the journal of a dead incarnation: "
                              "complete orphaned claims whose artifact "
                              "landed, requeue the rest")
    p_serve.add_argument("--workers", type=int, default=1,
                         help="worker process slots (default 1)")
    p_serve.add_argument("--retries", type=int, default=2,
                         help="retry budget per job (default 2)")
    p_serve.add_argument("--timeout", type=float, default=None, metavar="S",
                         help="terminate a run after S seconds per attempt")
    p_serve.add_argument("--lease", type=float, default=60.0, metavar="S",
                         help="revoke a claim whose worker has not "
                              "heartbeat for S seconds (default 60)")
    p_serve.add_argument("--queue-limit", type=int, default=256,
                         dest="queue_limit", metavar="N",
                         help="pending-backlog bound; submits beyond it "
                              "are shed (default 256)")
    p_serve.add_argument("--priority", type=int, default=0,
                         help="priority for this batch of submits "
                              "(higher claims first)")
    p_serve.add_argument("--isolation",
                         choices=("auto", "process", "inline"),
                         default="auto",
                         help="worker isolation (default: processes when "
                              "available)")
    p_serve.add_argument("--progress", action="store_true",
                         help="show one aggregate live line while the "
                              "service runs")
    p_serve.add_argument("--json", default=None, metavar="FILE",
                         help="also write the service report here")
    p_serve.add_argument("--force", action="store_true",
                         help="overwrite an existing --json file")
    p_serve.set_defaults(func=_cmd_serve)

    p_cnt = sub.add_parser(
        "counters",
        help="print the hierarchical probe tree of a stored run")
    p_cnt.add_argument("run", metavar="run",
                       help="specint, apache, or a stored artifact .json "
                            "(--cpu, --os-mode, --instructions and --seed "
                            "apply to a workload name)")
    p_cnt.add_argument("--cpu", choices=["smt", "ss"], default="smt")
    p_cnt.add_argument("--os-mode", choices=["full", "app", "omit"],
                       default="full", dest="os_mode")
    p_cnt.add_argument("--instructions", type=int, default=None)
    p_cnt.add_argument("--seed", type=int, default=11)
    p_cnt.add_argument("--window", choices=["startup", "steady", "total"],
                       default="total")
    p_cnt.add_argument("--grep", default=None, metavar="REGEX",
                       help="only probes whose name matches REGEX "
                            "(unanchored search: plain prefixes like "
                            "mem.l2 or os.syscall still work)")
    p_cnt.add_argument("--against", default=None, metavar="RUN",
                       help="diff against a second run "
                            "(workload-cpu-os_mode label or artifact path)")
    p_cnt.set_defaults(func=_cmd_counters)

    p_diff = sub.add_parser(
        "diff",
        help="structural probe-tree diff of two stored runs")
    p_diff.add_argument("run_a", metavar="runA",
                        help="workload-cpu-os_mode label or artifact .json")
    p_diff.add_argument("run_b", metavar="runB")
    p_diff.add_argument("--window", choices=["startup", "steady", "total"],
                        default="steady")
    p_diff.add_argument("--grep", default=None, metavar="REGEX",
                        help="only probes (or call paths with --flame) "
                             "matching REGEX (unanchored search)")
    p_diff.add_argument("--flame", action="store_true",
                        help="diff call-path attribution tables instead of "
                             "flat probes: ranked ;-joined span-chain "
                             "movers with the same noise bands")
    p_diff.add_argument("--timeline", action="store_true",
                        help="diff interval probe timelines instead of "
                             "flat probes: ranked series@cycle movers over "
                             "the shared sample prefix, same noise bands")
    p_diff.add_argument("--seeds", type=int, default=1, metavar="N",
                        help="run each side under N consecutive seeds and "
                             "filter deltas inside the noise band")
    p_diff.add_argument("--instructions", type=int, default=None,
                        help="instruction budget for label-resolved runs")
    p_diff.add_argument("--seed", type=int, default=11,
                        help="base seed for label-resolved runs")
    p_diff.add_argument("--per-kilo", action="store_true", dest="per_kilo",
                        help="normalize counts per 1,000 retired "
                             "instructions of each side")
    p_diff.add_argument("--top", type=int, default=20,
                        help="show the N largest movers (default 20)")
    p_diff.add_argument("--all", action="store_true",
                        help="show every changed probe")
    p_diff.add_argument("--sort", choices=["abs", "rel"], default="abs",
                        help="rank movers by absolute or relative delta")
    p_diff.add_argument("--json", default=None, metavar="FILE",
                        help="also write the machine-readable report here")
    p_diff.add_argument("--force", action="store_true",
                        help="overwrite an existing --json file")
    p_diff.add_argument("--workers", type=int, default=None,
                        help="process count for seed fan-out")
    p_diff.set_defaults(func=_cmd_diff)

    p_flame = sub.add_parser(
        "flame",
        help="fold a stored run's call-path attribution into "
             "flamegraph input")
    p_flame.add_argument("run", metavar="run",
                         help="workload-cpu-os_mode label or artifact .json")
    p_flame.add_argument("--window", choices=["startup", "steady", "total"],
                         default="steady")
    p_flame.add_argument("--instructions", type=int, default=None,
                         help="instruction budget for label-resolved runs")
    p_flame.add_argument("--seed", type=int, default=11,
                         help="seed for label-resolved runs")
    p_flame.add_argument("--grep", default=None, metavar="REGEX",
                         help="only call paths matching REGEX "
                              "(unanchored search over the whole "
                              ";-joined path)")
    p_flame.add_argument("--out", default=None, metavar="FILE",
                         help="write folded-stack lines here "
                              "(flamegraph.pl / speedscope input)")
    p_flame.add_argument("--json", default=None, metavar="FILE",
                         help="also write the raw attribution table here")
    p_flame.add_argument("--top", type=int, default=30,
                         help="table rows to print (default 30)")
    p_flame.add_argument("--force", action="store_true",
                         help="overwrite existing --out/--json files")
    p_flame.set_defaults(func=_cmd_flame)

    p_tl = sub.add_parser(
        "timeline",
        help="render a stored run's per-interval probe time series")
    p_tl.add_argument("run", metavar="run",
                      help="workload-cpu-os_mode label or artifact .json")
    p_tl.add_argument("--probe", action="append", default=None,
                      metavar="SERIES",
                      help="show only this series (repeatable; exact names "
                           "like ipc, kernel_share, miss.l1d, svc.<leaf>)")
    p_tl.add_argument("--grep", default=None, metavar="REGEX",
                      help="only series matching REGEX (unanchored search)")
    p_tl.add_argument("--csv", default=None, metavar="FILE",
                      help="write the raw delta columns as CSV")
    p_tl.add_argument("--json", default=None, metavar="FILE",
                      help="write the record plus detected phases as JSON")
    p_tl.add_argument("--width", type=int, default=64,
                      help="sparkline width in glyphs (default 64)")
    p_tl.add_argument("--instructions", type=int, default=None,
                      help="instruction budget for label-resolved runs")
    p_tl.add_argument("--seed", type=int, default=11,
                      help="seed for label-resolved runs")
    p_tl.add_argument("--force", action="store_true",
                      help="overwrite existing --csv/--json files")
    p_tl.set_defaults(func=_cmd_timeline)

    p_bench = sub.add_parser(
        "bench",
        help="measure simulator speed, each scenario in a fresh "
             "interpreter; write/check BENCH_<scenario>.json")
    p_bench.add_argument("scenarios", nargs="*",
                         help="scenarios to run: specint, apache, fast, "
                              "sampled, report "
                              "(default: specint apache fast sampled)")
    p_bench.add_argument("--check", action="store_true",
                         help="compare against the stored baseline and exit "
                              "nonzero on regression")
    p_bench.add_argument("--tolerance", type=float, default=None,
                         help="relative noise band for --check "
                              "(default 0.25 = 25%%)")
    p_bench.add_argument("--dir", default=".",
                         help="directory holding BENCH_*.json (default: .)")
    p_bench.add_argument("--instructions", type=int, default=None,
                         help="instruction budget for the simulation "
                              "scenarios (default 400,000)")
    p_bench.add_argument("--update", action="store_true",
                         help="with --check: rewrite the baseline after a "
                              "passing comparison")
    p_bench.set_defaults(func=_cmd_bench)

    p_trace = sub.add_parser(
        "trace",
        help="re-run a workload with event tracing and export the trace")
    p_trace.add_argument("workload", choices=["specint", "apache"])
    p_trace.add_argument("--cpu", choices=["smt", "ss"], default="smt")
    p_trace.add_argument("--os-mode", choices=["full", "app", "omit"],
                         default="full", dest="os_mode")
    p_trace.add_argument("--instructions", type=int, default=100_000)
    p_trace.add_argument("--seed", type=int, default=11)
    p_trace.add_argument("--out", default="trace.json",
                         help="output path (default: trace.json)")
    p_trace.add_argument("--jsonl", action="store_true",
                         help="write raw JSONL events instead of Chrome "
                              "trace_event JSON")
    p_trace.add_argument("--capacity", type=int, default=200_000,
                         help="event ring size (oldest dropped beyond this)")
    p_trace.add_argument("--force", action="store_true",
                         help="overwrite an existing --out file")
    p_trace.set_defaults(func=_cmd_trace)

    p_prof = sub.add_parser(
        "profile",
        help="profile the simulator's own components on one run")
    p_prof.add_argument("workload", choices=["specint", "apache"])
    p_prof.add_argument("--cpu", choices=["smt", "ss"], default="smt")
    p_prof.add_argument("--os-mode", choices=["full", "app", "omit"],
                        default="full", dest="os_mode")
    p_prof.add_argument("--instructions", type=int, default=100_000)
    p_prof.add_argument("--seed", type=int, default=11)
    p_prof.add_argument("--out", default=None,
                        help="write the profile table here instead of stdout")
    p_prof.add_argument("--force", action="store_true",
                        help="overwrite an existing --out file")
    p_prof.set_defaults(func=_cmd_profile)

    p_cmp = sub.add_parser(
        "compare", help="paper-vs-measured shape comparison (EXPERIMENTS.md)")
    p_cmp.add_argument("--out", default=None)
    p_cmp.add_argument("--strict", action="store_true",
                       help="exit nonzero when a shape criterion fails")
    p_cmp.set_defaults(func=_cmd_compare)

    p_list = sub.add_parser("list", help="list runs and exhibits")
    p_list.set_defaults(func=_cmd_list)

    from repro.lint.cli import add_parser as _add_lint_parser

    _add_lint_parser(sub)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
