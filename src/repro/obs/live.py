"""Live run telemetry: heartbeats, progress rendering, pool aggregation.

A multi-million-instruction simulation is a silent busy loop; this
module gives it a pulse.  A :class:`Heartbeat` attached via
:meth:`repro.core.simulator.Simulation.attach_heartbeat` samples the
machine every ``2^k`` cycles (the run loop's check is a single mask
test, so the 2%-overhead budget holds) and feeds each sample to a sink:

* :class:`TtyProgressSink` -- one self-overwriting ``\\r`` status line
  (percent done, cycle, retired, simulated IPC and kernel-cycle share
  from the interval probe timeline when one is attached, host
  instr/sec, ETA) for ``repro run --progress``;
* :class:`JsonlSink` -- one JSON object per beat, for headless runs and
  offline analysis (``repro run --progress-out beats.jsonl``);
* :class:`StateFileSink` -- atomically overwrites one small file with
  the *latest* sample.  The run engine gives each worker slot a state
  file and the parent's :class:`ProgressAggregator` folds them into one
  fleet-wide line (``repro prefetch --progress``); the file's age is
  also the worker's lease heartbeat.

Samples are plain dicts (JSON-safe) with both cumulative and rolling
rates; rolling values cover the window since the previous beat, which
is what makes stalls visible while cumulative averages still look fine.
"""

from __future__ import annotations

import json
import os
import sys
import time


class Heartbeat:
    """Periodic sampler for one running simulation.

    ``interval`` rounds up to a power of two; the run loop beats when
    ``now & mask == 0``.  ``target_instructions`` enables percent-done
    and ETA fields.  The same heartbeat survives chunked ``run()`` calls
    (the windowed runner executes one budget in warm-up chunks).
    """

    def __init__(self, sink, interval: int = 1 << 16,
                 target_instructions: int | None = None,
                 label: str = "") -> None:
        if interval < 1:
            raise ValueError(f"heartbeat interval must be >= 1, got {interval}")
        self.interval = 1 << max(0, (interval - 1).bit_length())
        self.mask = self.interval - 1
        self.sink = sink
        self.target = target_instructions
        self.label = label
        #: Optional ProbeTimeline whose latest interval sample is merged
        #: into every beat (simulated IPC + kernel-cycle share); set by
        #: Simulation.attach_heartbeat.
        self.timeline = None
        self.beats = 0
        self._t0 = time.perf_counter()
        self._last = (self._t0, 0, 0)  # (host time, cycle, retired)

    def beat(self, now: int, stats) -> None:
        """Record one sample (called by the run loop, every 2^k cycles)."""
        t = time.perf_counter()
        last_t, last_cycle, last_retired = self._last
        dt = t - last_t
        retired = stats.retired
        d_cycles = now - last_cycle
        d_retired = retired - last_retired
        elapsed = t - self._t0
        sample = {
            "label": self.label,
            "cycle": now,
            "retired": retired,
            "elapsed_s": round(elapsed, 3),
            "ipc": round(retired / now, 4) if now else 0.0,
            "rolling_ipc": round(d_retired / d_cycles, 4) if d_cycles else 0.0,
            "ips": round(d_retired / dt, 1) if dt > 0 else 0.0,
            "cps": round(d_cycles / dt, 1) if dt > 0 else 0.0,
        }
        if self.timeline is not None:
            latest = self.timeline.latest()
            if latest is not None:
                sample.update(latest)
        if self.target:
            sample["target"] = self.target
            sample["pct"] = round(100.0 * retired / self.target, 1)
            if sample["ips"] > 0:
                sample["eta_s"] = round(
                    max(0, self.target - retired) / sample["ips"], 1)
        self.beats += 1
        self._last = (t, now, retired)
        self.sink(sample)

    def close(self) -> None:
        close = getattr(self.sink, "close", None)
        if close is not None:
            close()


def render_sample(sample: dict) -> str:
    """One heartbeat sample as a human-readable status line."""
    parts = []
    label = sample.get("label")
    if label:
        parts.append(label)
    if "pct" in sample:
        parts.append(f"{sample['pct']:5.1f}%")
    parts.append(f"cycle {sample['cycle']:,}")
    retired = f"{sample['retired']:,}"
    if sample.get("target"):
        retired += f"/{sample['target']:,}"
    parts.append(f"{retired} instr")
    # Prefer the interval-telemetry IPC (exact over the last timeline
    # sample) over the beat-window rolling IPC when a timeline is wired.
    parts.append(f"IPC {sample.get('sim_ipc', sample['rolling_ipc']):.2f}")
    if "kernel_share" in sample:
        parts.append(f"krn {sample['kernel_share'] * 100:.0f}%")
    parts.append(f"{_si(sample['ips'])} instr/s")
    if "eta_s" in sample:
        parts.append(f"ETA {_hms(sample['eta_s'])}")
    return " | ".join(parts)


def _si(value: float) -> str:
    for bound, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if value >= bound:
            return f"{value / bound:.1f}{suffix}"
    return f"{value:.0f}"


def _hms(seconds: float) -> str:
    seconds = int(seconds)
    if seconds >= 3600:
        return f"{seconds // 3600}:{seconds % 3600 // 60:02d}:{seconds % 60:02d}"
    return f"{seconds // 60:02d}:{seconds % 60:02d}"


class TtyProgressSink:
    """Self-overwriting single-line progress display (``\\r`` rewrite)."""

    def __init__(self, stream=None) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self._width = 0

    def __call__(self, sample: dict) -> None:
        self.write_line(render_sample(sample))

    def write_line(self, line: str) -> None:
        pad = max(0, self._width - len(line))
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()
        self._width = len(line)

    def close(self) -> None:
        if self._width:
            self.stream.write("\n")
            self.stream.flush()
            self._width = 0


class JsonlSink:
    """Appends every sample as one JSON line (headless telemetry)."""

    def __init__(self, path_or_stream) -> None:
        if hasattr(path_or_stream, "write"):
            self._stream, self._owned = path_or_stream, False
        else:
            self._stream, self._owned = open(path_or_stream, "w"), True

    def __call__(self, sample: dict) -> None:
        self._stream.write(json.dumps(sample, sort_keys=True) + "\n")
        self._stream.flush()

    def close(self) -> None:
        if self._owned:
            self._stream.close()


class StateFileSink:
    """Atomically overwrites one file with the latest sample.

    This is the worker half of sweep progress aggregation: readers never
    see a torn write (temp file + rename), and the file stays one sample
    small no matter how long the run is.  *on_write* lets inline
    (in-process) attempts piggyback a refresh after every beat.
    """

    def __init__(self, path, on_write=None) -> None:
        self.path = str(path)
        self.on_write = on_write

    def __call__(self, sample: dict) -> None:
        tmp = f"{self.path}.tmp.{os.getpid()}"
        with open(tmp, "w") as f:
            f.write(json.dumps(sample, sort_keys=True))
        os.replace(tmp, self.path)
        if self.on_write is not None:
            self.on_write()


class ProgressAggregator:
    """Folds per-run state files into one fleet-wide progress line.

    The parent process creates one aggregator over a (temporary)
    directory, hands ``path_for(key)`` to each run's
    :class:`StateFileSink`, and calls :meth:`refresh` while it waits;
    ``refresh(final=True)`` finishes the line with a newline.  Every
    ``worker-*.json`` in the directory is one run; :meth:`finish` marks
    a run done, so its work keeps counting toward progress after its
    worker is gone.  *total_runs* and *total_instructions* are the
    sweep's totals (the line's denominators).
    """

    def __init__(self, directory, total_runs: int,
                 total_instructions: int | None = None,
                 stream=None, stale_after: float | None = 30.0) -> None:
        self.directory = str(directory)
        self.total_runs = total_runs
        self.total_instructions = total_instructions
        self.stale_after = stale_after
        self._tty = TtyProgressSink(stream)
        self._t0 = time.perf_counter()

    def path_for(self, key) -> str:
        return os.path.join(self.directory, f"worker-{key}.json")

    def finish(self, key, retired: int) -> None:
        """Record *key*'s run as done with *retired* instructions: no
        longer active, and never stalled however old its file gets."""
        StateFileSink(self.path_for(key))({"retired": retired, "done": True})

    def _names(self) -> list[str]:
        """The directory's ``worker-*.json`` names, sorted."""
        try:
            return sorted(name for name in os.listdir(self.directory)
                          if name.startswith("worker-")
                          and name.endswith(".json"))
        except OSError:
            return []

    def prune(self) -> list[str]:
        """Remove leftover ``worker-*.json`` from a previous incarnation.

        A long-lived service keeps its progress directory across
        restarts, so state files written by a dead incarnation's
        workers would otherwise sit there forever -- old enough to be
        "stale", and therefore reported as stalled workers on every
        aggregate.  Call this once at startup, before any worker
        writes.  Returns the removed names (sorted, for deterministic
        transcripts).
        """
        removed = []
        for name in self._names():
            try:
                os.unlink(os.path.join(self.directory, name))
            except OSError:  # pragma: no cover - racing deletion
                continue
            removed.append(name)
        return removed

    def samples(self) -> list[dict]:
        """Every run's latest sample (unreadable/in-flight files skipped).

        Each sample gains an ``age_s`` field: seconds since the worker
        last rewrote its state file.  A crashed worker stops rewriting
        but its last sample stays on disk, so file age -- not sample
        content -- is what distinguishes a live worker from a dead one.
        """
        out = []
        now = time.time()
        for name in self._names():
            path = os.path.join(self.directory, name)
            try:
                with open(path) as f:
                    payload = json.load(f)
                age = max(0.0, now - os.stat(path).st_mtime)
            except (OSError, ValueError):
                continue
            if isinstance(payload, dict):
                payload["age_s"] = round(age, 1)
                out.append(payload)
        return out

    def _is_stale(self, sample: dict) -> bool:
        return (self.stale_after is not None
                and sample.get("age_s", 0.0) > self.stale_after)

    def aggregate(self) -> dict:
        """One combined sample: sums of retired/ips, overall percent.

        Running workers whose state file has not been rewritten for
        ``stale_after`` seconds are counted in ``stale`` instead of
        ``active`` and excluded from the rate sum (their last-known
        retired counts still contribute to progress -- that work is
        done and persisted).  Finished runs count toward progress only.
        """
        samples = self.samples()
        running = [s for s in samples if not s.get("done")]
        fresh = [s for s in running if not self._is_stale(s)]
        retired = sum(s.get("retired", 0) for s in samples)
        agg = {
            "runs": self.total_runs,
            "active": len(fresh),
            "stale": len(running) - len(fresh),
            "retired": retired,
            "ips": round(sum(s.get("ips", 0.0) for s in fresh), 1),
            "elapsed_s": round(time.perf_counter() - self._t0, 3),
        }
        if self.total_instructions:
            agg["target"] = self.total_instructions
            agg["pct"] = round(100.0 * retired / self.total_instructions, 1)
        return agg

    def render(self) -> str:
        agg = self.aggregate()
        parts = [f"{agg['active']}/{agg['runs']} runs"]
        if agg.get("stale"):
            parts.append(f"{agg['stale']} stalled")
        if "pct" in agg:
            parts.append(f"{agg['pct']:5.1f}%")
        retired = f"{agg['retired']:,}"
        if agg.get("target"):
            retired += f"/{agg['target']:,}"
        parts.append(f"{retired} instr")
        parts.append(f"{_si(agg['ips'])} instr/s")
        parts.append(f"{_hms(agg['elapsed_s'])} elapsed")
        return " | ".join(parts)

    def refresh(self, final: bool = False) -> None:
        self._tty.write_line(self.render())
        if final:
            self._tty.close()
