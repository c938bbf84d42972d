"""Sim-time tracing: spans, instants, and counter samples.

Every event is stamped with *virtual* time — :class:`SimClock` seconds
for the fleet and timed-DPP planes, the round index for the chaos
plane — never wall-clock.  That one rule is what makes traces
first-class artifacts: the same scenario at the same seed produces a
byte-identical trace whether it ran inline, under ``--jobs 8``, or on a
different machine, so traces diff and archive exactly like reports.

The recorder comes in two shapes:

* :class:`Tracer` — the real thing.  Per-actor span stacks (an actor is
  a logical thread: ``"fleet"``, ``"job-7"``, ``"worker-0"``), a
  rebindable time source (each scenario kind binds its own clock), and
  a deterministic run id derived from ``stable_hash(scenario, seed)``.
  Every event it records lands in the one :class:`Trace` artifact.
* :data:`NULL_TRACER` — one shared disabled recorder.  Instrumented
  code guards every use of its tracer with ``if tracer.enabled:``, so
  a disabled telemetry plane costs a single attribute check per site;
  the null tracer has no method at all, so a site that forgets the
  guard raises instead of passing silently.

:meth:`Tracer.freeze` closes any dangling spans and packages the event
stream as a :class:`Trace` — a :class:`ReportBase` subclass (kind
``"trace"``) whose ``merge`` appends whole processes, which is how the
experiment runner folds per-scenario traces from a parallel fan-out
into one bundle.  Export to the Chrome trace-event format lives in
:mod:`repro.telemetry.chrome`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from ..common.errors import ConfigError
from ..common.hashing import stable_hash
from ..common.serialization import (
    FormatError,
    ReportBase,
    _exactly,
    require_keys,
    revive_float,
)

#: Event phases — a deliberate subset of the Chrome trace-event phases.
PHASE_SPAN = "X"
PHASE_INSTANT = "I"
PHASE_COUNTER = "C"
_PHASES = (PHASE_SPAN, PHASE_INSTANT, PHASE_COUNTER)

#: A rebindable virtual-clock read, e.g. ``lambda: clock.now``.
TimeSource = Callable[[], float]


def _freeze_args(args: Mapping[str, Any]) -> tuple:
    """Canonicalize event args: sorted keys, scalar finite values."""
    if not args:
        return ()
    for key, value in args.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(
                f"trace arg {key!r} must be finite, got {value!r}"
            )
        if not isinstance(value, (str, int, float)):
            raise ConfigError(
                f"trace arg {key!r} must be a str/int/float scalar, "
                f"got {type(value).__name__}"
            )
    return tuple(sorted(args.items()))


# -- loading: a row holds only what the recorder could have written ----------


def _read(row: Mapping[str, Any], key: str, context: str, revive) -> Any:
    """``revive(row[key])``, a refusal naming *context* and *key*."""
    try:
        return revive(row[key])
    except (ConfigError, FormatError) as error:
        raise FormatError(f"{context}: key {key!r}: {error}") from None


_text = _exactly(str)
_rows = _exactly(list)


def _seconds(value: Any) -> float:
    seconds = revive_float(value)
    if not math.isfinite(seconds):
        raise FormatError(f"expected a finite float, got {value!r}")
    return seconds


def _args(value: Any) -> tuple:
    if type(value) is not dict:
        raise FormatError(f"expected an object, got {type(value).__name__}")
    return _freeze_args(value)


@dataclass(frozen=True)
class TraceEvent:
    """One recorded point or interval, in sim-time seconds."""

    phase: str  # "X" span, "I" instant, "C" counter sample
    name: str
    actor: str
    time_s: float  # span start, or the instant/sample timestamp
    dur_s: float = 0.0  # spans only
    args: tuple = ()  # sorted (key, scalar) pairs

    def to_row(self) -> dict:
        return {
            "ph": self.phase,
            "name": self.name,
            "actor": self.actor,
            "t": self.time_s,
            "dur": self.dur_s,
            "args": {key: value for key, value in self.args},
        }

    @classmethod
    def from_row(cls, row: Mapping[str, Any]) -> "TraceEvent":
        context = "trace event"
        require_keys(
            row, ("ph", "name", "actor", "t", "dur", "args"), context=context
        )
        if row["ph"] not in _PHASES:
            raise FormatError(
                f"trace event phase {row['ph']!r} not in {_PHASES}"
            )
        return cls(
            phase=row["ph"],
            name=_read(row, "name", context, _text),
            actor=_read(row, "actor", context, _text),
            time_s=_read(row, "t", context, _seconds),
            dur_s=_read(row, "dur", context, _seconds),
            args=_read(row, "args", context, _args),
        )


@dataclass
class TraceProcess:
    """One traced run (one scenario execution) — a Chrome ``pid``."""

    name: str
    run_id: str
    events: list[TraceEvent] = field(default_factory=list)

    def to_row(self) -> dict:
        return {
            "name": self.name,
            "run_id": self.run_id,
            "events": [event.to_row() for event in self.events],
        }

    @classmethod
    def from_row(cls, row: Mapping[str, Any]) -> "TraceProcess":
        context = "trace process"
        require_keys(row, ("name", "run_id", "events"), context=context)
        return cls(
            name=_read(row, "name", context, _text),
            run_id=_read(row, "run_id", context, _text),
            events=[
                TraceEvent.from_row(event)
                for event in _read(row, "events", context, _rows)
            ],
        )


class Trace(ReportBase):
    """A bundle of traced processes, archivable like any report."""

    report_kind = "trace"

    def __init__(self, processes: list[TraceProcess] | None = None) -> None:
        self.processes = list(processes or [])
        self._check_unique()
        self.processes.sort(key=lambda process: process.name)

    def _check_unique(self) -> None:
        names = [process.name for process in self.processes]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigError(
                f"trace process names must be unique; duplicated: {dupes}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Trace):
            return NotImplemented
        return self.to_json() == other.to_json()

    def payload(self) -> dict:
        return {
            "processes": [process.to_row() for process in self.processes]
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "Trace":
        require_keys(payload, ("processes",), context="trace")
        processes = [
            TraceProcess.from_row(row)
            for row in _read(payload, "processes", "trace", _rows)
        ]
        try:
            return cls(processes=processes)
        except ConfigError as error:  # duplicated process names
            raise FormatError(f"trace: key 'processes': {error}") from None

    def metrics(self) -> dict[str, float]:
        events = [e for p in self.processes for e in p.events]
        spans = [e for e in events if e.phase == PHASE_SPAN]
        return {
            "trace.processes": float(len(self.processes)),
            "trace.events": float(len(events)),
            "trace.spans": float(len(spans)),
            "trace.instants": float(
                sum(1 for e in events if e.phase == PHASE_INSTANT)
            ),
            "trace.counters": float(
                sum(1 for e in events if e.phase == PHASE_COUNTER)
            ),
            "trace.span_time_s": sum(e.dur_s for e in spans),
        }

    def merge(self, other: "ReportBase") -> "Trace":
        """Append *other*'s processes; names must stay disjoint."""
        if not isinstance(other, Trace):
            raise ConfigError("can only merge a trace into a trace")
        self.processes.extend(other.processes)
        self._check_unique()
        self.processes.sort(key=lambda process: process.name)
        return self


def merge_traces(traces) -> Trace:
    """Fold per-scenario traces (in input order) into one bundle."""
    merged = Trace()
    for trace in traces:
        if trace is not None:
            merged.merge(trace)
    return merged


class NullTracer:
    """The shared disabled recorder.

    Instrumented code holds a tracer unconditionally and guards every
    use of it with ``tracer.enabled``, so this class has nothing but
    that flag: a missing guard raises ``AttributeError`` instead of
    recording nothing.
    """

    __slots__ = ()
    enabled = False


NULL_TRACER = NullTracer()


class Tracer:
    """Records sim-time spans, instants, and counter samples.

    One tracer traces one scenario run.  The run id is derived from
    ``(scenario, seed)`` via :func:`stable_hash`, so re-running the
    same cell — in any process — yields the same id and a comparable
    trace.  The time source starts at a constant ``0.0`` and is
    rebound by whichever plane owns the clock (:class:`FleetSimulator`
    binds ``clock.now``, :class:`ChaosRunner` its round index, ...).
    """

    enabled = True

    def __init__(self, scenario: str = "", seed: int = 0) -> None:
        self.scenario = scenario
        self.seed = seed
        self.run_id = format(stable_hash("trace", scenario, seed), "016x")
        self._time: TimeSource = lambda: 0.0
        self._events: list[TraceEvent] = []
        self._stacks: dict[str, list[tuple[str, float, tuple]]] = {}

    # -- the clock -------------------------------------------------------------

    def bind_clock(self, time_fn: TimeSource) -> None:
        """Point the tracer at the owning plane's virtual clock."""
        self._time = time_fn

    # -- recording -------------------------------------------------------------

    def begin(self, name: str, actor: str = "main", **args) -> None:
        """Open a span on *actor*'s stack (closed by :meth:`end`)."""
        stack = self._stacks.get(actor)
        if stack is None:
            stack = self._stacks[actor] = []
        stack.append((name, self._time(), _freeze_args(args)))

    def end(self, actor: str = "main") -> None:
        """Close *actor*'s innermost open span and emit it."""
        stack = self._stacks.get(actor)
        if not stack:
            raise ConfigError(f"no open span to end for actor {actor!r}")
        name, start, args = stack.pop()
        now = self._time()
        self._events.append(
            TraceEvent(
                PHASE_SPAN, name, actor, start, max(0.0, now - start), args
            )
        )

    def emit_span(
        self,
        name: str,
        actor: str,
        start_s: float,
        dur_s: float,
        args: tuple = (),
    ) -> None:
        """Append an already-closed span — the hot-loop shortcut.

        For a caller that knows the span's bounds up front this is
        :meth:`begin` + :meth:`end` minus the actor-stack traffic and
        kwargs freezing; it emits the identical :class:`TraceEvent`.
        *args* must already be in frozen ``(key, value)`` tuple form.
        """
        self._events.append(
            TraceEvent(PHASE_SPAN, name, actor, start_s, dur_s, args)
        )

    def instant(self, name: str, actor: str = "main", **args) -> None:
        """A point event (fault injected, job admitted, ...)."""
        self._events.append(
            TraceEvent(
                PHASE_INSTANT, name, actor, self._time(), 0.0,
                _freeze_args(args),
            )
        )

    def counter(self, name: str, value: float, actor: str = "main") -> None:
        """Sample a time series (queue depth, granted bandwidth, ...)."""
        self._events.append(
            TraceEvent(
                PHASE_COUNTER, name, actor, self._time(), 0.0,
                (("value", float(value)),),
            )
        )

    # -- packaging -------------------------------------------------------------

    def freeze(self, process_name: str | None = None) -> Trace:
        """Close dangling spans at the current time and package a Trace."""
        for actor in sorted(self._stacks):
            while self._stacks[actor]:
                self.end(actor)
        name = process_name or self.scenario or "trace"
        return Trace(
            processes=[
                TraceProcess(
                    name=name, run_id=self.run_id, events=list(self._events)
                )
            ]
        )
