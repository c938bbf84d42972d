"""The generated resume contract: the journal is the sweep plane's one
recovery path.

Nothing inside a run retries — a cell that raises is quarantined where
it ran, and a host fault ends the run — so everything a recovery needs
is in the journal.  Drawn here: a grid, a fan-out width and a chunk
size; the cells that raise while the journal is written (any, or
none); a journal written for a *stale* grid (same cell names, other
horizon) or the right one; and that finished journal cut at a drawn
byte — a drawn share of its lines lost from the end, then a drawn
share of the line that follows — with or without one flipped bit.
Resuming from that file, with the faults gone, has exactly one right
outcome:

* ``FormatError`` when the flip landed inside the whole lines that
  survived the cut;
* else ``ConfigError`` when the journal is the stale grid's and one of
  its records survived;
* else the serial run's ``deterministic_json()``, in which a poisoned
  cell is quarantined exactly when its journal record survived: a
  restored record keeps its status, a missing one computes afresh.

Before the cut, the finished journal must hold one record per cell,
quarantined ones included.  After the resume, a second resume of the
same file computes nothing and returns the same bytes: the first
resume cut the torn tail off before appending.
"""

import dataclasses
import json
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.experiments.runner as runner_module
from repro.common.errors import ConfigError, FormatError
from repro.experiments import SweepRunner, fork_available, load_journal

from .faults import raise_on_cells
from .test_runner_contract import grids

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="the pooled arms require fork"
)


@settings(max_examples=120, deadline=None)
@given(
    grid=grids,
    jobs=st.sampled_from([1, 2, 3]),
    chunk=st.sampled_from([None, 1, 2, 3]),
    poison=st.sets(st.integers(0, 11), max_size=4),
    stale=st.booleans(),
    lost=st.floats(0.0, 1.0),
    tear=st.floats(0.0, 1.0, exclude_max=True),
    flip=st.tuples(st.integers(0, 2**32), st.integers(0, 7)) | st.none(),
)
def test_a_cut_journal_resumes_to_the_serial_run_or_refuses(
    tmp_path_factory, grid, jobs, chunk, poison, stale, lost, tear, flip
):
    path = tmp_path_factory.mktemp("resume") / "run.journal.jsonl"
    written = dataclasses.replace(grid, horizon_s=1_200.0) if stale else grid
    victims = {grid.scenario_at(index % len(grid)).name for index in poison}
    with raise_on_cells(*victims):
        SweepRunner(written, jobs=jobs, chunk_cells=chunk).run(
            "contract", journal_path=path
        )
    # A finished journal holds every cell, a quarantined one included.
    assert len(load_journal(path).records) == len(grid)
    # The cut: whole lines up to the lost share, then part of the next.
    lines = path.read_bytes().splitlines(keepends=True) + [b""]
    kept = round((1 - lost) * (len(lines) - 1))
    data = bytearray(b"".join(lines[:kept]))
    data += lines[kept][: int(tear * len(lines[kept]))]
    if flip is not None and data:
        offset = flip[0] % len(data)
        data[offset] ^= 1 << flip[1]
    path.write_bytes(data)
    whole = data[: data.rfind(b"\n") + 1]  # what a torn tail leaves

    runner = SweepRunner(grid, jobs=jobs, chunk_cells=chunk)
    if flip is not None and data and offset < len(whole):
        with pytest.raises(FormatError):
            runner.run("contract", journal_path=path, resume=True)
        return
    # Undamaged lines are plain JSON: the CRC is one more member.
    survivors = [json.loads(line)["name"] for line in whole.splitlines()[1:]]
    if stale and survivors:
        with pytest.raises(ConfigError, match="does not match this grid"):
            runner.run("contract", journal_path=path, resume=True)
        return
    resumed = runner.run("contract", journal_path=path, resume=True)
    with raise_on_cells(*victims.intersection(survivors)):
        expected = SweepRunner(grid, jobs=1).run("contract").deterministic_json()
    assert resumed.deterministic_json() == expected

    # The journal is now complete: a second resume restores every cell,
    # and any cell it tried to compute would raise.
    assert len(load_journal(path).records) == len(grid)
    with mock.patch.object(
        runner_module, "run_scenario_spec", side_effect=AssertionError("recomputed")
    ):
        again = SweepRunner(grid, jobs=1, quarantine=False).run(
            "contract", journal_path=path, resume=True
        )
    assert again.deterministic_json() == expected
