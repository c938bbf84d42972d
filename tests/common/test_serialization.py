"""The shared JSON dialect and ReportBase envelope (ISSUE 5)."""

import math

import pytest

from repro.common.errors import FormatError
from repro.common.serialization import (
    ReportBase,
    atomic_write_text,
    dump_json,
    load_json,
    null_specials,
    percentile,
    percentile_summary,
    report_from_json,
    require_keys,
    revive_float,
)

from .oracles import revive_floats


class TestDialect:
    def test_dump_is_stable_and_newline_terminated(self):
        text = dump_json({"b": 1, "a": [1, 2]})
        assert text.endswith("\n")
        assert text.index('"a"') < text.index('"b"')
        assert dump_json({"a": [1, 2], "b": 1}) == text

    def test_load_rejects_non_object(self):
        with pytest.raises(FormatError):
            load_json("[1, 2]")
        with pytest.raises(FormatError):
            load_json("{not json")

    def test_null_specials_encodes_non_finite(self):
        encoded = null_specials(
            {"a": math.nan, "b": [math.inf, -math.inf, 1.5], "c": (2.0,)}
        )
        assert encoded == {"a": None, "b": ["Infinity", "-Infinity", 1.5], "c": [2.0]}

    def test_null_specials_is_idempotent(self):
        once = null_specials({"a": math.nan, "b": math.inf})
        assert null_specials(once) == once

    def test_revive_float_round_trips_specials(self):
        for value in (math.inf, -math.inf, 0.0, -3.25):
            assert revive_float(null_specials(value)) == value
        assert math.isnan(revive_float(null_specials(math.nan)))
        with pytest.raises(FormatError):
            revive_float("not-a-float")
        with pytest.raises(FormatError):
            revive_float(True)

    def test_revive_floats_only_touches_named_fields(self):
        row = {"x": None, "label": None, "y": "Infinity"}
        revived = revive_floats(row, ("x", "y"))
        assert math.isnan(revived["x"])
        assert revived["y"] == math.inf
        assert revived["label"] is None


class TestRequireKeys:
    def test_unknown_key_rejected_with_context(self):
        with pytest.raises(FormatError, match="my row.*bogus"):
            require_keys({"a": 1, "bogus": 2}, required=("a",), context="my row")

    def test_missing_key_rejected(self):
        with pytest.raises(FormatError, match="missing"):
            require_keys({"a": 1}, required=("a", "b"))

    def test_optional_keys_allowed_but_not_required(self):
        require_keys({"a": 1}, required=("a",), optional=("b",))
        require_keys({"a": 1, "b": 2}, required=("a",), optional=("b",))


class TestPercentiles:
    def test_ceiling_index_convention(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50.0) == 3.0
        assert percentile(values, 100.0) == 4.0
        assert math.isnan(percentile([], 90.0))

    def test_summary_skips_nan(self):
        summary = percentile_summary([1.0, math.nan, 3.0])
        assert set(summary) == {"p50", "p90", "p100", "mean"}
        assert summary["mean"] == 2.0
        assert summary["p100"] == 3.0

    def test_all_nan_summary_is_nan(self):
        summary = percentile_summary([math.nan])
        assert all(math.isnan(v) for v in summary.values())


class _ToyReport(ReportBase):
    report_kind = "toy-serialization-test"

    def __init__(self, value: float = 1.0) -> None:
        self.value = value

    def payload(self) -> dict:
        return {"value": self.value}

    @classmethod
    def from_payload(cls, payload: dict) -> "_ToyReport":
        require_keys(payload, required=("value",), context="toy report")
        return cls(value=revive_float(payload["value"]))

    def metrics(self) -> dict:
        return {"toy.value": self.value}


def archived_kinds():
    """The six report kinds the repo archives and CI revives."""
    from repro.chaos.report import ChaosReport
    from repro.dpp.simulation import SimulationResult
    from repro.experiments.report import SweepReport
    from repro.fleet.report import FleetReport
    from repro.serving.report import ServingReport
    from repro.telemetry.tracer import Trace

    return (
        FleetReport,
        ChaosReport,
        SimulationResult,
        ServingReport,
        SweepReport,
        Trace,
    )


class TestArchivedKinds:
    def test_the_six_kinds_are_unique(self):
        tags = [cls.report_kind for cls in archived_kinds()]
        assert len(set(tags)) == len(tags) == 6

    def test_unknown_tag_names_the_known_kinds(self):
        # A ReportBase subclass outside the table is not revived by tag.
        known = sorted(cls.report_kind for cls in archived_kinds())
        with pytest.raises(FormatError) as error:
            report_from_json(_ToyReport().to_json())
        assert str(error.value) == (
            f"unknown report kind 'toy-serialization-test'; known: {known}"
        )


def empty_documents():
    """One empty-run document per archived kind, as its writer emits it."""
    from repro.chaos.report import ChaosReport
    from repro.dpp.simulation import SimulationResult
    from repro.experiments.report import SweepReport
    from repro.fleet.report import FleetReport
    from repro.serving.report import ServingReport
    from repro.telemetry.tracer import Trace

    reports = (
        FleetReport(outcomes=[], samples=[], storage_bandwidth_bytes_per_s=1e9),
        ChaosReport(scenario="empty", rounds=0, allow_replays=False),
        SimulationResult(samples=[], scaling_decisions=[]),
        ServingReport(),
        SweepReport(results=[], grid_name="void"),
        Trace(),
    )
    return {type(report): report.to_json() for report in reports}


DOCUMENTS = empty_documents()


@pytest.mark.parametrize(
    "reader, writer",
    [(r, w) for r in DOCUMENTS for w in DOCUMENTS if r is not w],
    ids=lambda cls: cls.__name__,
)
def test_a_kind_refuses_another_kinds_document(reader, writer):
    with pytest.raises(FormatError) as error:
        reader.from_json(DOCUMENTS[writer])
    assert str(error.value) == (
        f"expected a {reader.report_kind!r} report, got {writer.report_kind!r}"
    )


@pytest.mark.parametrize("cls", list(DOCUMENTS), ids=lambda cls: cls.__name__)
def test_report_from_json_revives_each_archived_kind(cls):
    revived = report_from_json(DOCUMENTS[cls])
    assert type(revived) is cls
    assert revived.to_json() == DOCUMENTS[cls]


class TestReportBase:
    def test_kind_mismatch_rejected(self):
        with pytest.raises(FormatError, match="expected"):
            _ToyReport.from_json('{"report": "fleet", "version": 1}')

    def test_unknown_kind_rejected(self):
        with pytest.raises(FormatError, match="unknown report kind"):
            report_from_json('{"report": "no-such-kind", "version": 1}')

    def test_unsupported_version_rejected(self):
        with pytest.raises(FormatError, match="version"):
            _ToyReport.from_json(
                '{"report": "toy-serialization-test", "version": 99, "value": 1}'
            )

    def test_unknown_payload_key_rejected(self):
        with pytest.raises(FormatError, match="toy report"):
            _ToyReport.from_json(
                '{"report": "toy-serialization-test", "version": 1, '
                '"value": 1, "smuggled": 2}'
            )

    def test_non_finite_value_round_trips(self):
        revived = _ToyReport.from_json(_ToyReport(math.inf).to_json())
        assert revived.value == math.inf
        assert math.isnan(
            _ToyReport.from_json(_ToyReport(math.nan).to_json()).value
        )

    def test_describe_mentions_metrics(self):
        assert "toy.value" in _ToyReport(7.0).describe()

    def test_reserved_payload_key_rejected(self):
        class _Sneaky(ReportBase):
            report_kind = "sneaky-serialization-test"

            def payload(self) -> dict:
                return {"report": "x"}

        with pytest.raises(FormatError, match="reserved"):
            _Sneaky().to_json()


class TestAtomicWrite:
    def test_writes_and_returns_the_target(self, tmp_path):
        target = tmp_path / "artifact.json"
        assert atomic_write_text(target, "hello\n") == target
        assert target.read_text() == "hello\n"

    def test_overwrites_atomically_without_temp_litter(self, tmp_path):
        target = tmp_path / "artifact.json"
        target.write_text("old")
        atomic_write_text(target, "new")
        assert target.read_text() == "new"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]

    def test_failure_leaves_the_old_artifact_intact(self, tmp_path, monkeypatch):
        import os as os_module

        import repro.common.serialization as serialization_module

        target = tmp_path / "artifact.json"
        target.write_text("precious")

        def exploding_replace(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(
            serialization_module.os, "replace", exploding_replace
        )
        with pytest.raises(OSError, match="disk on fire"):
            atomic_write_text(target, "half-written garbage")
        monkeypatch.undo()
        assert target.read_text() == "precious"
        # The aborted temp file was cleaned up, not left beside it.
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]
        assert os_module.path.exists(target)

    def test_report_write_is_atomic(self, tmp_path, monkeypatch):
        import repro.common.serialization as serialization_module

        target = tmp_path / "toy.json"
        _ToyReport(1.0).write(target)
        before = target.read_text()

        def exploding_replace(src, dst):
            raise OSError("disk on fire")

        monkeypatch.setattr(
            serialization_module.os, "replace", exploding_replace
        )
        with pytest.raises(OSError):
            _ToyReport(2.0).write(target)
        monkeypatch.undo()
        assert target.read_text() == before
