"""The record codec against the hand-written bodies it replaced.

Every converted scenario and report is drawn from its field annotations
(``tests/common/records.py``) and written and read both ways: through
its own ``params``/``payload``/``to_row`` and loader, which now go
through ``record_row``/``record_from_row``, and through the hand-written
bodies kept in ``tests/common/oracles.py``.  The two must write the
same body and the same document bytes; each loader must accept the
other's body and rebuild the same record; and dropping any one key,
at any depth, must be refused by exactly the loaders that refuse it.
"""

import copy
import math
from typing import Callable, NamedTuple

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos.report import ChaosReport
from repro.cluster.job import JobKind
from repro.common.errors import FormatError
from repro.common.serialization import (
    build_envelope,
    dump_json,
    null_specials,
    record_from_row,
    record_row,
)
from repro.dpp.simulation import SimulationResult
from repro.experiments.base import scenario_from_json
from repro.experiments.report import ScenarioResult
from repro.experiments.scenarios import (
    ChaosSessionScenario,
    DppTimelineScenario,
    FleetRegionScenario,
)
from repro.fleet.jobs import FleetJobSpec
from repro.fleet.report import FleetReport, JobOutcome
from repro.serving.report import QueueStats, ServingReport
from repro.serving.scenario import ServingScenario
from repro.trainer.stalls import StallReport
from repro.transforms.cost import CostReport
from repro.workloads.models import RM1

from . import oracles
from .records import records


class Subject(NamedTuple):
    cls: type
    envelope: str | None  # "scenario" / "report", or None for a bare row
    oracle_encode: Callable
    oracle_decode: Callable

    def encode(self, record):
        if self.envelope == "scenario":
            return record.params()
        if self.envelope == "report":
            return record.payload()
        return record.to_row()

    def decode(self, row):
        if self.envelope == "scenario":
            return self.cls.from_params(row)
        if self.envelope == "report":
            return self.cls.from_payload(row)
        return self.cls.from_row(row)

    def document(self, row) -> str:
        """The bytes a body is archived as."""
        if self.envelope is not None:
            tag = self.cls.kind if self.envelope == "scenario" else self.cls.report_kind
            row = build_envelope(self.envelope, tag, 1, row)
        return dump_json(null_specials(row))


SUBJECTS = [
    Subject(
        FleetRegionScenario,
        "scenario",
        oracles.fleet_scenario_params,
        oracles.fleet_scenario_from_params,
    ),
    Subject(
        ChaosSessionScenario,
        "scenario",
        oracles.chaos_scenario_params,
        oracles.chaos_scenario_from_params,
    ),
    Subject(
        DppTimelineScenario,
        "scenario",
        oracles.dpp_scenario_params,
        oracles.dpp_scenario_from_params,
    ),
    Subject(
        ServingScenario,
        "scenario",
        oracles.serving_scenario_params,
        oracles.serving_scenario_from_params,
    ),
    Subject(
        ServingReport,
        "report",
        oracles.serving_report_payload,
        oracles.serving_report_from_payload,
    ),
    Subject(
        FleetReport,
        "report",
        oracles.fleet_report_payload,
        oracles.fleet_report_from_payload,
    ),
    Subject(
        JobOutcome,
        None,
        oracles.job_outcome_to_row,
        oracles.job_outcome_from_row,
    ),
    Subject(
        SimulationResult,
        "report",
        oracles.simulation_result_payload,
        oracles.simulation_result_from_payload,
    ),
    Subject(
        ScenarioResult,
        None,
        oracles.scenario_result_to_row,
        oracles.scenario_result_from_row,
    ),
    Subject(
        StallReport,
        "report",
        oracles.stall_report_payload,
        oracles.stall_report_from_payload,
    ),
    Subject(
        ChaosReport,
        "report",
        oracles.chaos_report_payload,
        oracles.chaos_report_from_payload,
    ),
    Subject(
        CostReport,
        "report",
        oracles.cost_report_payload,
        oracles.cost_report_from_payload,
    ),
]

parametrized = pytest.mark.parametrize(
    "subject", SUBJECTS, ids=[subject.cls.__name__ for subject in SUBJECTS]
)
generated = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def key_paths(node, path=()):
    """The path of every key of every object in a JSON-like tree."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from key_paths(value, path + (key,))
    elif isinstance(node, (list, tuple)):
        for index, value in enumerate(node):
            yield from key_paths(value, path + (index,))


def without(row, path):
    row = copy.deepcopy(row)
    node = row
    for step in path[:-1]:
        node = node[step]
    del node[path[-1]]
    return row


def refuses(decode, row) -> bool:
    try:
        decode(row)
    except Exception:
        return True
    return False


@parametrized
@generated
@given(data=st.data())
def test_both_bodies_write_the_same_bytes(subject, data):
    record = data.draw(records(subject.cls))
    mine = subject.encode(record)
    theirs = subject.oracle_encode(record)
    assert set(mine) == set(theirs)
    assert subject.document(mine) == subject.document(theirs)
    if subject.envelope is not None:
        assert record.to_json() == subject.document(theirs)


@parametrized
@generated
@given(data=st.data())
def test_each_loader_reads_the_others_body(subject, data):
    record = data.draw(records(subject.cls))
    mine = subject.encode(record)
    theirs = subject.oracle_encode(record)
    expected = subject.document(mine)
    for decode in (subject.decode, subject.oracle_decode):
        for row in (copy.deepcopy(mine), copy.deepcopy(theirs)):
            assert subject.document(subject.encode(decode(row))) == expected
    if subject.envelope is not None:
        text = record.to_json()
        revive = (
            scenario_from_json
            if subject.envelope == "scenario"
            else subject.cls.from_json
        )
        assert revive(text).to_json() == text


@parametrized
@generated
@given(data=st.data())
def test_a_dropped_key_is_refused_where_the_oracle_refuses_it(subject, data):
    record = data.draw(records(subject.cls))
    row = subject.encode(record)
    for path in key_paths(row):
        cut = without(row, path)
        assert refuses(subject.decode, cut) == refuses(
            subject.oracle_decode, copy.deepcopy(cut)
        ), path


class TestCodec:
    """The rule itself, on a record made for it."""

    def test_row_is_one_key_per_field_in_field_order(self):
        stats = QueueStats(name="fetch", peak_depth=3, mean_depth=1.5)
        assert list(record_row(stats)) == [
            "name",
            "peak_depth",
            "mean_depth",
            "total_enqueued",
        ]

    def test_encode_converter_and_list_copy(self):
        report = SimulationResult(samples=[], scaling_decisions=["a"])
        row = record_row(report, samples=lambda samples: "converted")
        assert row == {"samples": "converted", "scaling_decisions": ["a"]}
        assert row["scaling_decisions"] is not report.scaling_decisions

    def test_optional_lets_only_defaulted_fields_be_absent(self):
        revived = record_from_row(
            QueueStats, {"name": "q"}, "queue stats", optional=True
        )
        assert revived == QueueStats(name="q")
        with pytest.raises(FormatError, match="missing required key"):
            record_from_row(QueueStats, {"peak_depth": 1}, "q", optional=True)
        with pytest.raises(FormatError, match="missing required key"):
            record_from_row(QueueStats, {"name": "q"}, "queue stats")

    def test_a_null_float_slot_revives_as_nan(self):
        revived = record_from_row(
            QueueStats,
            {"name": "q", "peak_depth": 0, "mean_depth": None, "total_enqueued": 0},
            "queue stats",
        )
        assert math.isnan(revived.mean_depth)

    def test_optional_slot_keeps_null_as_none(self):
        spec = FleetJobSpec(
            job_id=1,
            model=RM1,
            kind=JobKind.COMBO,
            arrival_s=0.0,
            trainer_nodes=2,
            target_samples=10.0,
        )
        row = JobOutcome(spec=spec, admitted_s=1.0).to_row()
        assert row["completed_s"] is None
        assert JobOutcome.from_row(row).completed_s is None

    def test_a_field_without_a_converter_is_a_programming_error(self):
        with pytest.raises(TypeError, match="needs a converter"):
            record_from_row(
                SimulationResult,
                {"samples": [], "scaling_decisions": []},
                "dpp simulation report",
            )
