"""Report round-trips through the shared telemetry schema (ISSUE 5).

The satellite contract: ``FleetReport``, ``ChaosReport``, and
``SweepReport`` each survive ``to_json → from_json`` *byte-identically*
— including non-finite floats and empty runs — and the dpp simulation
result round-trips too.
"""

import math

import pytest

from repro.chaos.report import ChaosReport, DeliveryRecord
from repro.chaos.invariants import Violation
from repro.common import ReportBase, report_from_json
from repro.common.errors import FormatError
from repro.experiments import (
    ScenarioResult,
    SweepReport,
    build_scenario,
    run_scenario_spec,
)
from repro.fleet.report import FleetReport, FleetSample, JobOutcome


def assert_byte_identical_round_trip(report):
    text = report.to_json()
    revived = type(report).from_json(text)
    assert revived.to_json() == text
    # The kind-dispatching path agrees with the typed path.
    dispatched = report_from_json(text)
    assert type(dispatched) is type(report)
    assert dispatched.to_json() == text
    return revived


def make_fleet_report() -> FleetReport:
    return build_scenario("fleet/storm", seed=3).run()


class TestFleetReport:
    def test_real_run_round_trips_byte_identically(self):
        report = make_fleet_report()
        assert report.outcomes, "scenario produced no jobs"
        revived = assert_byte_identical_round_trip(report)
        assert (
            revived.aggregates()["jobs_submitted"]
            == report.aggregates()["jobs_submitted"]
        )
        assert revived.metrics() == report.metrics()

    def test_empty_run_round_trips(self):
        report = FleetReport(
            outcomes=[], samples=[], storage_bandwidth_bytes_per_s=1e9
        )
        revived = assert_byte_identical_round_trip(report)
        assert revived.aggregates()["jobs_submitted"] == 0

    def test_non_finite_and_unfinished_fields_survive(self):
        base = make_fleet_report()
        outcome = base.outcomes[0]
        outcome.completed_s = None  # an unfinished job
        outcome.stall_s = math.inf
        report = FleetReport(
            outcomes=[outcome],
            samples=[
                FleetSample(
                    time_s=0.0,
                    active_jobs=1,
                    queued_jobs=0,
                    live_workers=3,
                    pending_workers=0,
                    supply_samples_per_s=math.nan,
                    demand_samples_per_s=math.inf,
                    granted_bytes_per_s=-math.inf,
                    storage_utilization=0.5,
                    power_watts=1.0,
                )
            ],
            storage_bandwidth_bytes_per_s=1e9,
            unadmitted_queue_delays_s=[12.5],
        )
        revived = assert_byte_identical_round_trip(report)
        assert revived.outcomes[0].completed_s is None
        assert revived.outcomes[0].stall_s == math.inf
        sample = revived.samples[0]
        assert math.isnan(sample.supply_samples_per_s)
        assert sample.demand_samples_per_s == math.inf
        assert sample.granted_bytes_per_s == -math.inf

    def test_unknown_outcome_key_rejected(self):
        report = make_fleet_report()
        text = report.to_json().replace('"admitted_s"', '"admitted_zzz"', 1)
        with pytest.raises(FormatError, match="fleet job outcome"):
            FleetReport.from_json(text)

class TestChaosReport:
    def test_real_run_round_trips_byte_identically(self):
        report = build_scenario("chaos/worst-case", seed=2).run()
        assert report.records
        revived = assert_byte_identical_round_trip(report)
        assert revived.ok == report.ok
        assert revived.delivered_batches == report.delivered_batches

    def test_empty_run_round_trips(self):
        report = ChaosReport(scenario="empty", rounds=0, allow_replays=False)
        revived = assert_byte_identical_round_trip(report)
        assert revived.delivered_batches == 0

    def test_violations_and_records_survive(self):
        report = ChaosReport(
            scenario="forged",
            rounds=2,
            allow_replays=True,
            faults_injected=["round 1: worker_crash (x1)"],
            records=[
                DeliveryRecord(
                    round_index=0,
                    client_id="client-0",
                    split_id=4,
                    sequence=1,
                    n_rows=32,
                )
            ],
            violations=[Violation(invariant="delivery", detail="lost (4, 2)")],
            expected_batches=2,
        )
        revived = assert_byte_identical_round_trip(report)
        assert not revived.ok
        assert revived.records[0].client_id == "client-0"
        assert revived.violations[0].invariant == "delivery"

class TestSweepReport:
    @pytest.fixture(scope="class")
    def report(self):
        from repro.experiments import SweepRunner, quick_grid

        return SweepRunner(quick_grid((0, 1)), jobs=1).run(grid_name="rt")

    def test_real_sweep_round_trips_byte_identically(self, report):
        revived = assert_byte_identical_round_trip(report)
        assert revived.cells == report.cells
        assert [r.name for r in revived.results] == [
            r.name for r in report.results
        ]

    def test_empty_sweep_round_trips(self):
        report = SweepReport(results=[], grid_name="void")
        revived = assert_byte_identical_round_trip(report)
        assert revived.results == []

    def test_nan_results_round_trip(self):
        empty = ScenarioResult.blank("cell/seed0", "cell", 0, wall_s=0.25)
        report = SweepReport(results=[empty], grid_name="nan-run")
        revived = assert_byte_identical_round_trip(report)
        assert math.isnan(revived.results[0].aggregate_samples_per_s)
        assert math.isnan(revived.results[0].mean_slowdown)

    def test_unknown_scenario_key_rejected(self, report):
        text = report.to_json().replace('"wall_s"', '"wall_zzz"', 1)
        with pytest.raises(FormatError, match="scenario result"):
            SweepReport.from_json(text)

    def test_quarantined_result_round_trips(self):
        failed = ScenarioResult.blank(
            "cell/seed0",
            "cell",
            0,
            status="quarantined",
            error="worker died with exit code 9",
        )
        report = SweepReport(results=[failed], grid_name="poisoned")
        revived = assert_byte_identical_round_trip(report)
        assert revived.results[0].status == "quarantined"
        assert revived.results[0].error == "worker died with exit code 9"
        assert revived.quarantined == revived.results
        assert revived.metrics()["sweep.quarantined"] == 1.0

    @pytest.mark.parametrize("key", ["status", "error"])
    def test_a_row_without_status_or_error_is_refused(self, report, key):
        # Every row this code writes carries both keys, so a row read
        # back without one is malformed, not an older artifact.
        payload = report.payload()
        payload["scenarios"][0].pop(key)
        with pytest.raises(FormatError, match=rf"missing required key\(s\) \['{key}'\]"):
            SweepReport.from_payload(payload)


class TestOtherKinds:
    def test_dpp_simulation_result_round_trips(self):
        report = build_scenario("dpp/worker-churn", seed=0).run()
        revived = assert_byte_identical_round_trip(report)
        assert revived.stall_fraction == report.stall_fraction
        assert revived.scaling_decisions == report.scaling_decisions
