"""CI's one measuring step, ``python -m benchmarks.dsi suite``, gates by raising:
a child that exits non-zero, prints nothing or fails its oracles stops the suite,
and so does an exact end-to-end metric that differs across repeats.  Nothing is
measured here — ``subprocess.run`` is faked."""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from benchmarks.dsi import __main__ as cli
from benchmarks.dsi import suite as suite_module
from benchmarks.dsi.catalogue import END_TO_END, PER_LAYER, SWEEP, TRAIN, WORKLOADS
from benchmarks.dsi.harness import VERSION, workload_id
from benchmarks.dsi.suite import CHILD_TIMEOUT_S, ROOT, WORKLOAD_CLASSES, render, run_suite

EXACT_ON = {m.name: m.exact_on for m in END_TO_END}


def _contract(trace: bool, correct: bool = True, failed: int = 0, **values) -> dict:
    catalogue = PER_LAYER if trace else END_TO_END
    metrics = {m.name: {"value": values.get(m.name, 1.0), "unit": m.unit} for m in catalogue}
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics}


class FakeChildren:
    """``subprocess.run`` stand-in: pops scripted outcomes per (workload, trace)."""

    def __init__(self, script):
        self.script, self.calls = script, []

    def __call__(self, command, **kwargs):
        self.calls.append((command, kwargs))
        key = (command[5], command[11] == "1")
        outcome = (self.script.get(key) or [_contract(key[1])]).pop(0)
        if isinstance(outcome, subprocess.CompletedProcess):
            return outcome
        return subprocess.CompletedProcess(command, 0, f"header\n{json.dumps(outcome)}\n", "")

    @property
    def modes(self) -> list[tuple[str, bool]]:
        return [(command[5], command[11] == "1") for command, _ in self.calls]


@pytest.fixture
def children(monkeypatch):
    def install(script=None) -> FakeChildren:
        fake = FakeChildren(script or {})
        monkeypatch.setattr(suite_module.subprocess, "run", fake)
        return fake

    return install


class TestChild:
    def test_runs_one_run_command_in_the_checkout(self, children):
        fake = children()
        assert suite_module._child(TRAIN, 7, 5, trace=True) == _contract(True)
        [(command, kwargs)] = fake.calls
        assert command == [
            sys.executable, "-m", "benchmarks.dsi", "run",
            "--workload", TRAIN, "--seed", "7", "--seconds", "5", "--trace", "1",
        ]  # fmt: skip
        assert (kwargs["cwd"], kwargs["timeout"]) == (ROOT, CHILD_TIMEOUT_S)

    def test_non_zero_exit_raises_with_the_childs_output(self, children):
        children({(TRAIN, False): [subprocess.CompletedProcess([], 1, "partial", "Traceback")]})
        with pytest.raises(RuntimeError, match="exited 1:\npartial\nTraceback"):
            suite_module._child(TRAIN, 0, 5, trace=False)

    def test_silent_child_raises(self, children):
        children({(TRAIN, False): [subprocess.CompletedProcess([], 0, "\n", "")]})
        with pytest.raises(RuntimeError, match="exited 0"):
            suite_module._child(TRAIN, 0, 5, trace=False)

    def test_failed_oracle_raises_even_on_a_clean_exit(self, children):
        children({(TRAIN, False): [_contract(False, correct=False)]})
        with pytest.raises(RuntimeError, match="failed its oracles"):
            suite_module._child(TRAIN, 0, 5, trace=False)


class TestRunSuite:
    def test_repeats_untraced_then_one_traced_child_per_workload(self, children):
        fake = children()
        run_suite([TRAIN, SWEEP], seed=0, seconds=5, repeats=3)
        assert fake.modes == [(w, t) for w in (TRAIN, SWEEP) for t in (False,) * 3 + (True,)]

    def test_an_oracle_failure_stops_the_suite(self, children):
        fake = children({(TRAIN, False): [_contract(False), _contract(False, correct=False)]})
        with pytest.raises(RuntimeError, match="failed its oracles"):
            run_suite([TRAIN, SWEEP], seed=0, seconds=5, repeats=3)
        assert fake.modes == [(TRAIN, False)] * 2

    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_bytes_per_item_is_exact_where_the_catalogue_says(self, children, workload):
        runs = [_contract(False, bytes_per_item=b) for b in (100.0, 101.0)]
        children({(workload, False): runs})
        if workload in EXACT_ON["bytes_per_item"]:
            with pytest.raises(RuntimeError, match="exact bytes_per_item differs"):
                run_suite([workload], seed=0, seconds=5, repeats=2)
        else:
            suite = run_suite([workload], seed=0, seconds=5, repeats=2)
            row = suite["workloads"][workload]["end_to_end"]["bytes_per_item"]
            assert (row["min"], row["max"]) == (100.0, 101.0)

    def test_timed_metrics_summarise_as_median_and_range(self, children):
        children({(TRAIN, False): [_contract(False, items_per_s=v) for v in (30.0, 10.0, 20.0)]})
        suite = run_suite([TRAIN], seed=0, seconds=5, repeats=3)
        end_to_end = suite["workloads"][TRAIN]["end_to_end"]
        assert set(end_to_end) == set(EXACT_ON)
        assert end_to_end["items_per_s"] == dict(
            unit="1/s", median=20.0, min=10.0, max=30.0, n=3, values=[30.0, 10.0, 20.0]
        )

    def test_per_layer_comes_from_the_traced_child_and_its_own_layers(self, children):
        children({(SWEEP, True): [_contract(True, **{"fleet.events_per_s": 5e5})]})
        suite = run_suite([SWEEP], seed=0, seconds=5, repeats=1)
        per_layer = suite["workloads"][SWEEP]["per_layer"]
        assert set(per_layer) == {m.name for m in PER_LAYER if SWEEP in m.workloads}
        assert per_layer["fleet.events_per_s"] == {"value": 5e5, "unit": "1/s"}

    def test_records_the_run_and_the_frozen_workload(self, children):
        children({(TRAIN, False): [_contract(False), _contract(False, failed=2)]})
        suite = run_suite([TRAIN], seed=4, seconds=5, repeats=2)
        header = ("benchmark", "version", "seed", "seconds", "repeats")
        assert [suite[k] for k in header] == ["benchmarks.dsi", VERSION, 4, 5, 2]
        entry, frozen = suite["workloads"][TRAIN], WORKLOAD_CLASSES[TRAIN](4, 1.0, None)
        assert (entry["workload_id"], entry["params"]) == (workload_id(frozen), frozen.params)
        assert (entry["attempted"], entry["failed"]) == ([10, 10], [0, 2])


class TestRender:
    def test_names_every_metric_of_every_workload(self, children):
        children()
        suite = run_suite([TRAIN, SWEEP], seed=0, seconds=5, repeats=2)
        table = render(suite)
        assert table.startswith(f"benchmarks.dsi v{VERSION}  seed 0  5 s x 2 repeats + 1 traced")
        for entry in suite["workloads"].values():
            for name in list(entry["end_to_end"]) + list(entry["per_layer"]):
                assert f"  {name} " in table

    def test_failed_operations_are_summed_over_repeats(self, children):
        children({(TRAIN, False): [_contract(False, failed=3)] * 2})
        assert "failed 6 of 20" in render(run_suite([TRAIN], seed=0, seconds=5, repeats=2))


class TestSuiteCommand:
    def test_writes_the_artifact_and_prints_the_table(self, children, tmp_path, capsys):
        fake = children()
        out = tmp_path / "BENCH_dsi.json"
        assert cli.main(["suite", "--seconds", "5", "--repeats", "1", "--out", str(out)]) == 0
        suite = json.loads(out.read_text())
        assert capsys.readouterr().out.strip() == render(suite)
        assert fake.modes == [(name, trace) for name in WORKLOADS for trace in (False, True)]

    def test_a_failed_oracle_fails_the_command(self, children, tmp_path):
        children({(SWEEP, True): [_contract(True, correct=False)]})
        out = tmp_path / "BENCH_dsi.json"
        with pytest.raises(RuntimeError, match="failed its oracles"):
            cli.main(["suite", "--workload", SWEEP, "--repeats", "1", "--out", str(out)])
        assert not out.exists()
