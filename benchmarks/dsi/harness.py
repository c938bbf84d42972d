"""One measured run of one workload: set-up, warm-up, timed units, oracles.

A workload is a class with ``setup()`` (input construction, timed as
``setup_s``) and ``run_unit(index, recorder, watch)`` (one unit of work,
which puts its timed region inside ``with watch:`` and returns what it
produced).  Every unit of a workload is the same deterministic function
of the seed, so a run repeats units until ``--seconds`` of timed work
have passed, while every count, byte total and output digest is read per
unit and must be identical from unit to unit: the amount of work a
machine fits into the run never leaks into an exact metric.

Rates come from the fastest unit.  The units are identical work, and on
a shared host interference only ever adds time, in phases that last
longer than a run: the fastest of a dozen units moved half as much as
their median between a quiet and a noisy phase.

An untraced run (``trace=False``) gives the end-to-end metrics.  A
traced run alternates traced and untraced units, so the same process
yields the per-layer self times, the tracing overhead, and a check that
tracing changed no output.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field

from .catalogue import END_TO_END, PER_LAYER, SPANS
from .spans import NullRecorder, SpanRecorder

#: Bump when the harness or a workload changes what it measures: every
#: ``workload_id`` changes with it, starting new series.
VERSION = 1

WARMUP_SCALE = 0.05
MIN_UNITS = 2
SETUP_REPEATS = (3, 15)  # at least, at most
SETUP_REPEAT_BUDGET_S = 1.0

_NULL = NullRecorder()


@dataclass
class UnitOutcome:
    """What one unit of work produced (all exact for a seed)."""

    items: int
    attempted: int
    failed: int
    bytes_moved: int
    digest: str
    counts: dict[str, float] = field(default_factory=dict)
    #: Measured, not exact: excluded from the unit-to-unit equality check.
    noisy_counts: dict[str, float] = field(default_factory=dict)

    def exact(self) -> tuple:
        return (
            self.items,
            self.attempted,
            self.failed,
            self.digest,
            sorted(self.counts.items()),
        )


def digest_of(*chunks) -> str:
    """Short SHA-256 over byte-like chunks (outputs of one unit)."""
    sha = hashlib.sha256()
    for chunk in chunks:
        sha.update(chunk)
    return sha.hexdigest()[:16]


def workload_id(workload) -> str:
    """Hash of a workload's frozen parameters and the benchmark version."""
    blob = json.dumps(
        {"version": VERSION, "name": workload.name, "params": workload.params},
        sort_keys=True,
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _cpu_seconds() -> float:
    # The process itself at full resolution, reaped pool workers in ticks.
    times = os.times()
    return time.process_time() + times.children_user + times.children_system


class Stopwatch:
    """Wall and CPU seconds of the ``with`` block: a unit's timed region."""

    def __enter__(self) -> "Stopwatch":
        self._cpu = _cpu_seconds()
        self._wall = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = time.perf_counter() - self._wall
        self.cpu_s = _cpu_seconds() - self._cpu


def _peak_rss_mb() -> float:
    # ru_maxrss is KiB on Linux; children's is the largest reaped child.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pool = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + pool) / 1024.0


def _import_seconds(repeats: int = 3) -> float:
    """Start a fresh interpreter that imports the program and the
    benchmark; the fastest of *repeats*, like every other timing here."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import benchmarks.dsi.suite"], env=env, check=True
        )
        times.append(time.perf_counter() - start)
    return min(times)


def _timed_setup(factory):
    """Set up several times; returns the last instance and the median time."""
    least, most = SETUP_REPEATS
    times: list[float] = []
    workload = None
    while len(times) < least or (
        len(times) < most and sum(times) < SETUP_REPEAT_BUDGET_S
    ):
        workload = None  # free the previous inputs before building again
        workload = factory()
        start = time.perf_counter()
        workload.setup()
        times.append(time.perf_counter() - start)
    return workload, statistics.median(times)


@dataclass
class RunResult:
    workload: str
    workload_id: str
    seed: int
    trace: bool
    correct: bool
    attempted: int
    failed: int
    units: int
    problems: list[str]
    metrics: dict[str, dict]  # name -> {"value", "unit"}

    def contract_line(self) -> str:
        """The one-line JSON object the driver reads."""
        return json.dumps(
            {
                "correct": self.correct,
                "attempted": self.attempted,
                "failed": self.failed,
                "metrics": self.metrics,
            }
        )


def run_workload(
    cls,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    scratch_root: pathlib.Path | None = None,
    trace_out: pathlib.Path | None = None,
    count_import: bool = False,
) -> RunResult:
    """Run *cls* once and return its metrics for the requested mode.

    With *count_import*, ``setup_s`` includes what starting an interpreter
    and importing the program and the benchmark costs, so work moved to
    import time shows there.
    """
    root = pathlib.Path.cwd() if scratch_root is None else scratch_root
    with tempfile.TemporaryDirectory(prefix=".dsi_bench_", dir=root) as tmp:
        scratch = pathlib.Path(tmp)
        workload, setup_s = _timed_setup(lambda: cls(seed, scale, scratch))

        warm = cls(seed, scale * WARMUP_SCALE, scratch)
        warm.setup()
        warm.run_unit(0, _NULL, Stopwatch())
        del warm

        recorder = SpanRecorder(cls.name)
        seconds_by_mode: dict[bool, list[float]] = {True: [], False: []}
        cpu_s: list[float] = []
        outcomes: list[UnitOutcome] = []
        timed = 0.0
        index = 0
        while timed < seconds or index < MIN_UNITS:
            traced_unit = trace and index % 2 == 0
            watch = Stopwatch()
            outcomes.append(
                workload.run_unit(index, recorder if traced_unit else _NULL, watch)
            )
            cpu_s.append(watch.cpu_s)
            seconds_by_mode[traced_unit].append(watch.wall_s)
            timed += watch.wall_s
            index += 1

        first = outcomes[0]
        problems = []
        if any(outcome.exact() != first.exact() for outcome in outcomes[1:]):
            problems.append("units of one seed produced different outputs or counts")
        if first.failed:
            problems.append(f"{first.failed} of {first.attempted} operations failed")
        if first.items <= 0:
            problems.append("a unit completed no items")

        if trace:
            values = _layer_metrics(
                workload, recorder, seconds_by_mode, first, problems
            )
            catalogue = {m.name: m.unit for m in PER_LAYER}
            if trace_out is not None:
                recorder.write_chrome_trace(trace_out)
        else:
            values = {
                # Peak memory first: the import probes are children too.
                "peak_rss_mb": _peak_rss_mb(),
                "setup_s": setup_s + (_import_seconds() if count_import else 0.0),
                "items_per_s": first.items / min(seconds_by_mode[False]),
                "cpu_ms_per_item": 1e3 * min(cpu_s) / first.items,
                "bytes_per_item": first.bytes_moved / first.items,
            }
            catalogue = {m.name: m.unit for m in END_TO_END}
        unknown = sorted(values.keys() - catalogue.keys())
        if unknown:
            problems.append(f"metrics outside the catalogue: {unknown}")

    return RunResult(
        workload=cls.name,
        workload_id=workload_id(workload),
        seed=seed,
        trace=trace,
        correct=not problems,
        attempted=first.attempted * len(outcomes),
        failed=sum(outcome.failed for outcome in outcomes),
        units=len(outcomes),
        problems=problems,
        metrics={
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in catalogue.items()
        },
    )


def _layer_metrics(workload, recorder, seconds_by_mode, first, problems) -> dict:
    """Per-layer values of a traced run, per unit of work."""
    traced_units = len(seconds_by_mode[True])
    traced_wall = sum(seconds_by_mode[True])
    self_times = recorder.self_times()
    values: dict[str, float] = {}
    for span in SPANS:
        self_s = self_times.pop(span.name, 0.0)
        values[f"{span.name}_s"] = self_s / traced_units
        values[f"{span.name}_share"] = self_s / traced_wall
    if self_times:
        problems.append(f"spans outside the catalogue: {sorted(self_times)}")
    total_share = sum(values[f"{span.name}_share"] for span in SPANS)
    if abs(total_share - 1.0) > 0.02:
        problems.append(f"layer shares sum to {total_share:.3f}, not 1")
    values["dpp.extract_s"] = values["tectonic.fetch_s"] + values["dwrf.decode_s"]
    values["serving.run_s"] = (
        recorder.inclusive_time("serving.kernel_self") / traced_units
    )
    values.update(first.counts)
    values.update(first.noisy_counts)
    traced, untraced = (min(seconds_by_mode[mode]) for mode in (True, False))
    values["trace_overhead_share"] = (traced - untraced) / untraced
    values.update(workload.probes(values))
    return values
