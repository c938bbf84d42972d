"""Run journals: append-only crash logs that make sweeps resumable.

A 100k-cell overnight campaign must survive the process dying — OOM
killer, preempted node, Ctrl-C — without losing the cells it already
paid for.  The journal is the smallest mechanism with that property,
following the incremental-load/resume discipline of dataloader recipe
systems: one JSONL file per sweep, written strictly append-only, every
record fsync'd before the cell counts as done.  It is the sweep plane's
only recovery path — the pool retries nothing — so it is the cursor a
killed, crashed or interrupted sweep picks up from.

Layout (every line is a record's canonical JSON — sorted keys, no
spaces — with a ``"crc"`` member appended last: the CRC32 of those
canonical bytes)::

    {"cells":...,"magic":"repro-run-journal","version":2,...,"crc":...}
    {"name":"...","result":{<flat metrics>},"spec_hash":"...","crc":...}
    {"name":"...","result":{...},"spec_hash":"...","crc":...}
    ...

* The **header** carries the identity of the whole run: the scenario
  kind, the cell count, and a :func:`~repro.common.hashing.stable_hash`
  over every cell's ``(name, spec_hash)`` identity — where a cell's
  ``spec_hash`` hashes the scenario's canonical JSON (so axes, seeds,
  durations, and fault schedules are all covered).
* Each **record** is one completed cell: its name, its spec hash, and
  its flat :class:`~repro.experiments.report.ScenarioResult` row
  (quarantined cells journal too — resuming must not retry a poison
  cell the previous run already isolated).

Recovery (:meth:`RunJournal.resume_or_create`) is torn-tail tolerant:
a SIGKILL mid-append leaves a final line without a newline, which is
dropped; that cell simply recomputes.  Validation is per *cell*, not
per file: every journaled record must name a cell of the *current*
grid with an identical spec hash — so a grid that **grew** resumes
incrementally (old cells skipped, new cells computed), while a grid
whose overlapping cells changed is rejected loudly (recovering wrong
numbers silently would poison the paper's surfaces).  A
newline-terminated line whose CRC does not match its bytes, or that
has none, means real corruption, not a crash artifact, and is also
rejected.  There is no reader for version 1: a journal is a
crash-resume artifact, not an archive.

The determinism contract extends through here: a journaled result is
restored bit-for-bit (the row round-trips the repo's strict JSON
dialect), so "SIGKILL'd and resumed" and "never killed" produce
byte-identical reports.

What the journal does **not** protect against:

* a deliberate edit — CRC32 catches accidental damage (every single
  flipped bit, ``tests/experiments/test_runner_contract.py`` flips
  each byte), but anyone can rewrite a record and its CRC;
* a change of *code* between a run and its resume — ``spec_hash``
  covers the scenario, not the simulator, so resuming with a build
  that computes a cell differently mixes two builds' numbers;
* damage to the last line's newline, which reads as a crash: that
  record is dropped and its cell recomputes, to the same bytes.
"""

from __future__ import annotations

import json
import os
import pathlib
import re
import zlib
from dataclasses import dataclass
from typing import IO, Iterable

from ..common.errors import ConfigError, FormatError
from ..common.hashing import stable_hash
from ..common.serialization import null_specials
from .base import Scenario
from .grid import ScenarioGrid
from .report import ScenarioResult

JOURNAL_MAGIC = "repro-run-journal"
JOURNAL_VERSION = 2

#: The last member of every record line: the CRC32 of the line's
#: canonical bytes, that is, of the line with this member cut out.
_CRC_MEMBER = re.compile(rb',"crc":(\d+)\}$')


def _record_line(record: dict) -> str:
    """*record*'s canonical JSON with its CRC appended, newline-ended."""
    body = json.dumps(null_specials(record), sort_keys=True, separators=(",", ":"))
    return f'{body[:-1]},"crc":{zlib.crc32(body.encode())}}}\n'


def spec_hash(scenario: Scenario) -> str:
    """Process-stable identity of one fully-resolved scenario.

    Hashes the scenario's canonical JSON document, so *any* parameter
    drift — a different seed, duration, mix override, fault schedule —
    changes the hash and disqualifies stale journal records.
    """
    return f"{stable_hash(scenario.to_json()):016x}"


def cell_identities(grid: ScenarioGrid) -> list[tuple[str, str]]:
    """``(name, spec_hash)`` per cell, in the grid's expansion order
    (position *i* is ``grid.scenario_at(i)``)."""
    return [(scenario.name, spec_hash(scenario)) for scenario in grid.expand()]


def grid_hash(identities: list[tuple[str, str]]) -> str:
    """One stable hash over every cell identity: the whole-grid tag the
    journal header carries."""
    return f"{stable_hash(tuple(identities)):016x}"


@dataclass
class JournalContents:
    """What :func:`load_journal` recovered from disk."""

    header: dict | None  # None: empty file or torn header line
    records: list[dict]  # complete, parsed cell records in file order
    torn: bool  # a trailing partial line was dropped


def load_journal(path: str | pathlib.Path) -> JournalContents:
    """Parse a journal, tolerating exactly the damage a crash can cause.

    Only newline-terminated lines count — a SIGKILL mid-append leaves
    an unterminated tail, which is dropped (``torn=True``) and its cell
    recomputed.  A *terminated* line without its CRC, with a CRC that
    does not match its bytes, or a header with the wrong magic/version,
    is genuine corruption and raises
    :class:`~repro.common.errors.FormatError`: resuming from a file we
    cannot trust would silently produce wrong science.
    """
    raw = pathlib.Path(path).read_bytes()
    torn = len(raw) > 0 and not raw.endswith(b"\n")
    lines = raw.split(b"\n")
    if torn:
        lines = lines[:-1]  # the crash artifact; recompute that cell
    lines = [line for line in lines if line.strip()]
    if not lines:
        return JournalContents(header=None, records=[], torn=torn)
    parsed = []
    for number, line in enumerate(lines, start=1):
        crc = _CRC_MEMBER.search(line)
        body = line[: crc.start()] + b"}" if crc else b""
        if crc is None or zlib.crc32(body) != int(crc.group(1)):
            raise FormatError(
                f"journal {path} line {number} is corrupt (not a crash "
                "artifact — the line is newline-terminated): "
                + ("its CRC does not match" if crc else "it carries no CRC")
            )
        parsed.append(json.loads(body))
    header = parsed[0]
    if header.get("magic") != JOURNAL_MAGIC:
        raise FormatError(
            f"{path} is not a run journal (missing magic header)"
        )
    if header.get("version") != JOURNAL_VERSION:
        raise FormatError(
            f"journal {path} has version {header.get('version')!r}; "
            f"this build reads version {JOURNAL_VERSION}"
        )
    return JournalContents(header=header, records=parsed[1:], torn=torn)


class RunJournal:
    """An open, append-mode run journal for one sweep.

    Construction goes through :meth:`create` (fresh journal) or
    :meth:`resume_or_create` (recover what a previous run completed,
    then continue appending to the same file).  :meth:`append_results`
    writes a chunk of cells under one flush and one fsync, which is how
    the sweep runner journals at chunk granularity.
    """

    def __init__(
        self, path: pathlib.Path, stream: IO[str], identities: list[tuple[str, str]]
    ) -> None:
        self.path = path
        self._stream = stream
        # The grid's cell_identities, hashed once per open journal: the
        # header or the resume check used them, appenders read them here.
        self.identities = identities

    # -- construction ----------------------------------------------------------

    @classmethod
    def create(
        cls, path: str | pathlib.Path, grid: ScenarioGrid, grid_name: str
    ) -> "RunJournal":
        """Start a fresh journal (truncating any previous file)."""
        target = pathlib.Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        identities = cell_identities(grid)
        header = {
            "magic": JOURNAL_MAGIC,
            "version": JOURNAL_VERSION,
            "kind": "fleet",
            "grid_name": grid_name,
            "grid_hash": grid_hash(identities),
            "cells": len(identities),
        }
        stream = open(target, "w")
        journal = cls(target, stream, identities)
        journal._write_lines([header])
        return journal

    @classmethod
    def resume_or_create(
        cls, path: str | pathlib.Path, grid: ScenarioGrid, grid_name: str
    ) -> tuple["RunJournal", dict[int, ScenarioResult]]:
        """Open *path* for resumption, creating it when absent or empty.

        Returns the open journal plus ``{grid index: restored result}``
        for every journaled cell that belongs to the current grid.
        Every record must match a current cell's spec hash exactly;
        cells the grid *gained* since the journal started are simply
        not in the map (they compute fresh, and journal into the same
        file).  Duplicate records for one cell keep the latest.
        """
        target = pathlib.Path(path)
        if not target.exists():
            return cls.create(target, grid, grid_name), {}
        contents = load_journal(target)
        if contents.header is None:
            # Nothing durable made it to disk: start over in place.
            return cls.create(target, grid, grid_name), {}
        identities = cell_identities(grid)
        index_of = {name: index for index, (name, _) in enumerate(identities)}
        hash_of = dict(identities)
        current_hash = grid_hash(identities)
        journaled_hash = contents.header.get("grid_hash")
        restored: dict[int, ScenarioResult] = {}
        for record in contents.records:
            if "name" not in record or "result" not in record:
                raise FormatError(
                    f"journal {target} carries a malformed cell record: "
                    f"{sorted(record)}"
                )
            name = record["name"]
            index = index_of.get(name)
            if index is None or hash_of[name] != record.get("spec_hash"):
                raise ConfigError(
                    f"journal {target} does not match this grid: cell "
                    f"{name!r} diverged (journal grid hash {journaled_hash}, "
                    f"current grid hash {current_hash}); resuming would mix "
                    "results from different experiments — pass a fresh "
                    "--journal path instead"
                )
            restored[index] = ScenarioResult.from_row(record["result"])
        if contents.torn:
            # Cut the crash artifact off, or the first record appended
            # would be glued onto it: one terminated, unparseable line,
            # which the *next* resume must refuse as corruption.
            with open(target, "r+b") as damaged:
                damaged.truncate(damaged.read().rfind(b"\n") + 1)
        stream = open(target, "a")
        return cls(target, stream, identities), restored

    # -- appending -------------------------------------------------------------

    def _write_lines(self, records: Iterable[dict]) -> None:
        """Write *records* in order, then flush and fsync once."""
        wrote = False
        for record in records:
            self._stream.write(_record_line(record))
            wrote = True
        if wrote:
            self._stream.flush()
            os.fsync(self._stream.fileno())

    def append_results(
        self, pairs: Iterable[tuple[str, ScenarioResult]]
    ) -> None:
        """Durably record a batch of completed (or quarantined) cells.

        The batch becomes durable together, at one disk round trip
        instead of one per cell.  Once the call returns, those cells
        survive any crash.
        """
        self._write_lines(
            {
                "name": result.name,
                "spec_hash": cell_hash,
                "result": result.to_row(),
            }
            for cell_hash, result in pairs
        )

    def close(self) -> None:
        if not self._stream.closed:
            self._stream.close()
