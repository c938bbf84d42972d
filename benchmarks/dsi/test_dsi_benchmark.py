"""Tier-1 smoke test of the DSI benchmark (in-process, ``scale=0.02``).

Holds ``BENCHMARK.json`` and the catalogue in step, runs every workload
in both modes at a fiftieth of its size, and guards the benchmark's
self-containment.  Nothing measured here is ever written anywhere.
"""

from __future__ import annotations

import ast
import json
import pathlib
import re
import sys

import pytest

from benchmarks.dsi import compare as compare_module
from benchmarks.dsi.catalogue import END_TO_END, PER_LAYER, SPANS, WORKLOADS
from benchmarks.dsi.harness import run_workload, workload_id
from benchmarks.dsi.spans import NullRecorder, SpanRecorder
from benchmarks.dsi.suite import WORKLOAD_CLASSES

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 0.02


class TestManifest:
    def test_has_exactly_the_contract_keys(self):
        assert set(MANIFEST) == {
            "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
        }  # fmt: skip
        assert MANIFEST["paths"] == ["benchmarks/dsi"]
        assert 1 <= MANIFEST["run_seconds"] <= 60

    def test_workloads_match_the_catalogue(self):
        assert {w["name"]: w["why"] for w in MANIFEST["workloads"]} == WORKLOADS
        assert set(WORKLOADS) == set(WORKLOAD_CLASSES)
        assert all(len(why) <= 200 and "\n" not in why for why in WORKLOADS.values())

    def test_metrics_match_the_catalogue(self):
        assert MANIFEST["end_to_end"] == [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ]
        assert MANIFEST["per_layer"] == [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ]

    def test_names_and_units_are_within_the_contract(self):
        names = [m.name for m in END_TO_END + PER_LAYER] + list(WORKLOADS)
        assert len(set(names)) == len(names)
        assert all(re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", n) for n in names)
        units = {m.unit for m in END_TO_END + PER_LAYER}
        assert all(re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit) for unit in units)
        assert len(PER_LAYER) <= 128 and len(END_TO_END) <= 16
        assert any(m.name == "setup_s" and m.unit == "s" for m in END_TO_END)
        assert all(0 < m.bound <= 0.25 for m in END_TO_END)


@pytest.fixture(scope="module", params=sorted(WORKLOAD_CLASSES))
def runs(request, tmp_path_factory):
    """One untraced and one traced run of a workload at smoke scale."""
    cls = WORKLOAD_CLASSES[request.param]
    scratch = tmp_path_factory.mktemp(request.param)
    return {
        trace: run_workload(
            cls, seed=3, seconds=0.0, trace=trace, scale=SCALE, scratch_root=scratch
        )
        for trace in (False, True)
    }


class TestEveryWorkload:
    def test_oracles_pass_and_no_operation_fails(self, runs):
        for result in runs.values():
            assert result.correct, result.problems
            assert result.failed == 0 and result.attempted >= 1

    def test_every_catalogue_metric_is_emitted_with_its_unit(self, runs):
        assert {n: m["unit"] for n, m in runs[False].metrics.items()} == {
            m.name: m.unit for m in END_TO_END
        }
        assert {n: m["unit"] for n, m in runs[True].metrics.items()} == {
            m.name: m.unit for m in PER_LAYER
        }
        assert all(m["value"] > 0 for m in runs[False].metrics.values())

    def test_layer_shares_sum_to_one(self, runs):
        metrics = runs[True].metrics
        shares = sum(metrics[f"{span.name}_share"]["value"] for span in SPANS)
        assert shares == pytest.approx(1.0, abs=0.02)

    def test_only_the_workloads_own_layers_are_live(self, runs):
        name = runs[True].workload
        for metric in PER_LAYER:
            if name not in metric.workloads:
                assert runs[True].metrics[metric.name]["value"] == 0.0, metric.name

    def test_contract_line_is_one_json_object(self, runs):
        line = json.loads(runs[False].contract_line())
        assert set(line) == {"correct", "attempted", "failed", "metrics"}


class TestWorkloadId:
    @pytest.mark.parametrize("name", sorted(WORKLOAD_CLASSES))
    def test_changes_with_a_parameter_but_not_with_the_seed(self, name):
        cls = WORKLOAD_CLASSES[name]
        assert workload_id(cls(0, 1.0, None)) == workload_id(cls(9, 1.0, None))
        assert workload_id(cls(0, 1.0, None)) != workload_id(cls(0, 0.5, None))


def test_serving_plane_is_the_library_scenarios_plane():
    workload = WORKLOAD_CLASSES["serving_burst"](5, SCALE, None)
    workload.setup()
    ours = workload.build_plane(NullRecorder()).run()
    assert ours.to_json() == workload.scenario.run().to_json()


def test_self_time_is_a_span_minus_its_children():
    recorder = SpanRecorder("test")
    with recorder.span("outer"):
        with recorder.span("inner"):
            pass
        with recorder.span("inner"):
            pass
    spans = {name: (start, end) for name, start, end, _p, _j in recorder.spans}
    total = spans["outer"][1] - spans["outer"][0]
    self_times = recorder.self_times()
    assert self_times["outer"] + self_times["inner"] == pytest.approx(total)
    assert recorder.inclusive_time("outer") == pytest.approx(total)
    assert [parent for *_rest, parent, _job in recorder.spans] == [-1, 0, 0]


class TestCompare:
    @staticmethod
    def suite(items_per_s, bytes_per_item=(100.0, 100.0, 100.0)):
        def row(values):
            ordered = sorted(values)
            return {
                "median": ordered[len(ordered) // 2],
                "min": ordered[0],
                "max": ordered[-1],
                "values": list(values),
            }

        steady = row((1.0, 1.0, 1.0))
        return {
            "workloads": {
                "train_read": {
                    "workload_id": "abc",
                    "attempted": [10],
                    "failed": [0],
                    "end_to_end": {
                        m.name: steady for m in END_TO_END
                    } | {
                        "items_per_s": row(items_per_s),
                        "bytes_per_item": row(bytes_per_item),
                    },
                    "per_layer": {
                        m.name: {"value": 1.0}
                        for m in PER_LAYER
                        if "train_read" in m.workloads
                    },
                }
            }
        }

    def verdicts(self, a, b):
        rows, any_worse = compare_module.compare(a, b)
        found = {
            row.split()[1]: row.split()[-1] for row in rows[1:] if "train_read" in row
        }
        return found, any_worse

    def test_same_results_are_unchanged(self):
        base = self.suite((100.0, 101.0, 102.0))
        found, any_worse = self.verdicts(base, base)
        assert set(found.values()) == {"unchanged"} and not any_worse

    def test_a_slower_median_beyond_the_bound_is_worse(self):
        found, any_worse = self.verdicts(
            self.suite((100.0, 101.0, 102.0)), self.suite((60.0, 61.0, 62.0))
        )
        assert found["items_per_s"] == "worse" and any_worse

    def test_a_faster_median_beyond_the_bound_is_improved(self):
        found, any_worse = self.verdicts(
            self.suite((100.0, 101.0, 102.0)), self.suite((160.0, 161.0, 162.0))
        )
        assert found["items_per_s"] == "improved" and not any_worse

    def test_wide_interleaved_spread_is_unresolved(self):
        found, any_worse = self.verdicts(
            self.suite((80.0, 100.0, 120.0)), self.suite((70.0, 85.0, 125.0))
        )
        assert found["items_per_s"] == "unresolved" and not any_worse

    def test_an_exact_metric_must_repeat_digit_for_digit(self):
        found, any_worse = self.verdicts(
            self.suite((100.0, 100.0, 100.0)),
            self.suite((100.0, 100.0, 100.0), bytes_per_item=(100.5, 100.5, 100.5)),
        )
        assert found["bytes_per_item"] == "worse" and any_worse


class TestSelfContainment:
    """A later PR must not be able to change what the benchmark measures
    by editing a file outside ``benchmarks/dsi/``."""

    MODULES = sorted(p for p in HERE.glob("*.py") if not p.name.startswith("test_"))

    @staticmethod
    def allowed(module: str) -> bool:
        top = module.split(".")[0]
        if top == "repro":
            return not any(part.startswith("_") for part in module.split("."))
        return top == "numpy" or top in sys.stdlib_module_names

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_imports_only_stdlib_numpy_and_public_repro(self, path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                assert all(self.allowed(alias.name) for alias in node.names), path
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # a sibling module of this package
                    assert (HERE / f"{node.module}.py").exists(), node.module
                    continue
                assert self.allowed(node.module), (path, node.module)
                if node.module.startswith("repro"):
                    assert not any(a.name.startswith("_") for a in node.names)

    @pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
    def test_sets_no_attribute_on_anything_but_self(self, path):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                assert node.func.id not in ("setattr", "delattr"), path
            targets = []
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            for target in targets:
                for leaf in ast.walk(target):
                    if isinstance(leaf, ast.Attribute) and isinstance(
                        leaf.ctx, (ast.Store, ast.Del)
                    ):
                        assert (
                            isinstance(leaf.value, ast.Name) and leaf.value.id == "self"
                        ), f"{path.name}:{leaf.lineno} assigns to a foreign attribute"
