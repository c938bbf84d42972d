"""Cross-commit byte-identity pins for the experiment plane.

The determinism suites compare serial against pooled *within* one
commit; nothing there notices a change that moves both the same way.
These pins were recorded at the commit before ``fan_out`` became the one
execution engine (running this file as a script against that commit's
``src/``, with ``run(trace=True)`` spelled ``run_traced()``, prints the
JSON stored in ``golden/experiment_pins.json``).  They hold the
deterministic bytes of a quick-grid sweep at ``jobs`` 1 and 2, of its
journal, of a traced sweep's report and merged trace, of a three-kind
``ExperimentRunner`` batch's report and trace, of a sweep with one
injected poison cell (the quarantine record included), and the option
strings of every CLI subcommand.

Re-recorded on purpose since: ``journal_sha256`` for journal version 2
(a CRC per record) and ``cli_options`` for the loss of
``--chunk-timeout`` and then of ``-v``/``--verbose``.  The poisoned sweep now raises inside its cell, not
at the start of the chunk holding it, and keeps its bytes.
"""

import hashlib
import json
import pathlib
import re
import tempfile
import zlib
from unittest import mock

import pytest

from repro.experiments import (
    ExperimentRunner,
    SweepRunner,
    build_scenario,
    fork_available,
    quick_grid,
)
from repro.experiments.__main__ import build_parser
import repro.experiments.runner as runner_module

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "experiment_pins.json"
SEEDS = (0, 1)
BATCH = ("fleet/storm", "chaos/seeded", "dpp/worker-churn")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def batch() -> list:
    return [build_scenario(name, seed) for name in BATCH for seed in SEEDS]


def sweep_pin(jobs: int) -> str:
    report = SweepRunner(quick_grid(SEEDS), jobs=jobs).run("pins")
    return _sha(report.deterministic_json())


def journal_pin() -> str:
    """A serial run's journal, byte for byte, wall clock digits aside.

    A record's CRC covers its wall clock: each line's CRC is checked
    against the line, then recomputed, by the same rule, over the line
    with the wall clock zeroed.
    """
    with tempfile.TemporaryDirectory() as scratch:
        path = pathlib.Path(scratch) / "pins.journal.jsonl"
        SweepRunner(quick_grid(SEEDS), jobs=1).run("pins", journal_path=path)
        lines = path.read_text().splitlines()
    framed = []
    for line in lines:
        crc = re.search(r',"crc":(\d+)\}$', line)
        body = line[: crc.start()] + "}"
        assert zlib.crc32(body.encode()) == int(crc.group(1)), line
        body = re.sub(r'"wall_s":[^,}]+', '"wall_s":0', body)
        framed.append(f'{body[:-1]},"crc":{zlib.crc32(body.encode())}}}\n')
    return _sha("".join(framed))


def traced_sweep_pin(jobs: int) -> dict:
    report, trace = SweepRunner(quick_grid(SEEDS), jobs=jobs).run(
        "pins", trace=True
    )
    return {
        "report_sha256": _sha(report.deterministic_json()),
        "trace_sha256": _sha(trace.to_json()),
    }


def batch_pin(jobs: int) -> dict:
    plain = ExperimentRunner(batch(), jobs=jobs).run("pins")
    report, trace = ExperimentRunner(batch(), jobs=jobs).run("pins", trace=True)
    return {
        "report_sha256": _sha(plain.deterministic_json()),
        "traced_report_sha256": _sha(report.deterministic_json()),
        "trace_sha256": _sha(trace.to_json()),
    }


def poison_pin() -> str:
    """Cell 5 raises wherever it runs: the patch precedes the fork."""
    grid = quick_grid(SEEDS)
    victim = grid.scenario_at(5).name
    real = runner_module.run_scenario_spec

    def poisoned(spec, tracer=None):
        if spec.name == victim:
            raise RuntimeError("injected poison cell")
        return real(spec, tracer)

    with mock.patch.object(runner_module, "run_scenario_spec", poisoned):
        report = SweepRunner(grid, jobs=2, chunk_cells=2).run("pins")
    assert [r.name for r in report.quarantined] == ["busy/base/none/seed1"]
    return _sha(report.deterministic_json())


def cli_options() -> dict[str, list[str]]:
    """Positional names and option strings per subcommand (not the
    ``--help`` text, which wraps at the terminal's width)."""
    commands = build_parser()._subparsers._group_actions[0].choices
    return {
        name: sorted(
            option
            for action in parser._actions
            for option in (action.option_strings or [action.dest])
        )
        for name, parser in sorted(commands.items())
    }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


needs_fork = pytest.mark.skipif(
    not fork_available(), reason="the pooled arm requires fork"
)


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
def test_sweep_produces_the_same_bytes(jobs, golden):
    assert sweep_pin(jobs) == golden["sweep_sha256"]


def test_journal_holds_the_same_bytes(golden):
    assert journal_pin() == golden["journal_sha256"]


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
def test_traced_sweep_produces_the_same_bytes(jobs, golden):
    assert traced_sweep_pin(jobs) == golden["traced_sweep"]


@pytest.mark.parametrize("jobs", [1, pytest.param(2, marks=needs_fork)])
def test_three_kind_batch_produces_the_same_bytes(jobs, golden):
    assert batch_pin(jobs) == golden["batch"]


@needs_fork
def test_poisoned_sweep_quarantines_to_the_same_bytes(golden):
    assert poison_pin() == golden["poisoned_sweep_sha256"]


def test_cli_takes_the_same_options(golden):
    assert cli_options() == golden["cli_options"]


if __name__ == "__main__":
    assert sweep_pin(1) == sweep_pin(2)
    assert traced_sweep_pin(1) == traced_sweep_pin(2)
    assert batch_pin(1) == batch_pin(2)
    print(
        json.dumps(
            {
                "sweep_sha256": sweep_pin(1),
                "journal_sha256": journal_pin(),
                "traced_sweep": traced_sweep_pin(1),
                "batch": batch_pin(1),
                "poisoned_sweep_sha256": poison_pin(),
                "cli_options": cli_options(),
            },
            indent=1,
        )
    )
