"""Report round-trips through the shared telemetry schema (ISSUE 5).

The satellite contract: ``FleetReport``, ``ChaosReport``, and
``SweepReport`` each survive ``to_json → from_json`` *byte-identically*
— including non-finite floats and empty runs — and the other adopted
kinds (stall, cost, dpp) round-trip too.
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
        assert revived.jobs_submitted == report.jobs_submitted
        assert revived.metrics() == report.metrics()

    def test_empty_run_round_trips(self):
        report = FleetReport(
            outcomes=[], samples=[], storage_bandwidth_bytes_per_s=1e9
        )
        revived = assert_byte_identical_round_trip(report)
        assert revived.jobs_submitted == 0

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

    def test_merge_concatenates_seed_batches(self, report):
        from repro.experiments import SweepRunner, quick_grid

        other = SweepRunner(quick_grid((2,)), jobs=1).run(grid_name="rt")
        total = len(report.results) + len(other.results)
        merged = SweepReport.from_json(report.to_json()).merge(other)
        assert len(merged.results) == total
        names = [r.name for r in merged.results]
        assert names == sorted(names)

    def test_merge_rejects_rerun_scenarios(self, report):
        clone = SweepReport.from_json(report.to_json())
        with pytest.raises(Exception, match="re-running"):
            clone.merge(report)

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

    def test_pre_quarantine_artifact_still_revives(self, report):
        # Artifacts written before the status/error fields existed must
        # load with the defaults, not be rejected as missing keys.
        payload = report.payload()
        for row in payload["scenarios"]:
            row.pop("status")
            row.pop("error")
        revived = SweepReport.from_payload(payload)
        assert all(r.status == "ok" and r.error == "" for r in revived.results)


class TestFailureReport:
    def test_round_trips_and_dispatches(self):
        from repro.experiments import FailureReport

        report = FailureReport(
            scenario="fleet/busy/seed3",
            error="RuntimeError: injected poison cell",
        )
        revived = assert_byte_identical_round_trip(report)
        assert revived.scenario == "fleet/busy/seed3"
        assert "poison" in revived.render()
        assert revived.metrics() == {"failure.scenarios": 1.0}

    def test_quarantined_experiment_entry_round_trips(self):
        from repro.experiments import ExperimentRunner, PoolPolicy
        import repro.experiments.runner as runner_module

        scenarios = [
            build_scenario("dpp/steady-state", seed=seed) for seed in (0, 1)
        ]
        victim = scenarios[1].name
        real = runner_module.run_experiment

        def flaky(scenario):
            if scenario.name == victim:
                raise ValueError("exploded")
            return real(scenario)

        runner = ExperimentRunner(
            scenarios, jobs=1, policy=PoolPolicy(), quarantine=True
        )
        original = runner_module.run_experiment
        runner_module.run_experiment = flaky
        try:
            report = runner.run("casualties")
        finally:
            runner_module.run_experiment = original
        assert [e.name for e in report.quarantined] == [victim]
        entry = report.quarantined[0]
        assert entry.report.report_kind == "failure"
        assert entry.report.error == "ValueError: exploded"
        revived = assert_byte_identical_round_trip(report)
        assert revived.quarantined[0].status == "quarantined"
        assert revived.metrics()["experiments.quarantined"] == 1.0


class TestOtherKinds:
    def test_stall_report_round_trips(self):
        from repro.trainer import StallReport, on_host_preprocessing_study
        from repro.trainer.gpu import GpuDemand
        from repro.workloads.hardware import V100_TRAINER
        from repro.workloads.models import RM1

        report = on_host_preprocessing_study(RM1, V100_TRAINER, GpuDemand(RM1))
        revived = assert_byte_identical_round_trip(report)
        assert revived.model is RM1
        assert revived.gpu_stall_fraction == report.gpu_stall_fraction

    def test_cost_report_round_trips(self):
        from repro.transforms import (
            FirstX,
            Logit,
            TransformDag,
            execute_with_cost,
        )
        from tests.transforms.test_dag import make_batch, D, S

        dag = TransformDag().add(100, Logit(D)).add(101, FirstX(S, 2))
        report = execute_with_cost(dag, make_batch())
        revived = assert_byte_identical_round_trip(report)
        assert revived.class_shares() == report.class_shares()

    def test_dpp_simulation_result_round_trips(self):
        report = build_scenario("dpp/worker-churn", seed=0).run()
        revived = assert_byte_identical_round_trip(report)
        assert revived.stall_fraction == report.stall_fraction
        assert revived.scaling_decisions == report.scaling_decisions


def _sweep_with(name, extras):
    result = ScenarioResult.blank(f"{name}/seed0", name, 0, wall_s=0.0)
    return SweepReport(results=[result], extras=extras)


def _experiment_with(name, extras):
    from repro.experiments import ExperimentEntry, ExperimentReport, FailureReport

    entry = ExperimentEntry(
        name=name,
        scenario_kind="fleet",
        wall_s=0.0,
        report=FailureReport(scenario=name, error="x"),
    )
    return ExperimentReport(entries=[entry], extras=extras)


@pytest.mark.parametrize("make", (_sweep_with, _experiment_with))
class TestMergedPoolIncidents:
    """Merging reports adds the pool's incident counters key by key."""

    def test_counters_sum(self, make):
        a = make("a", {"fault_tolerance": {"requeues": 2, "respawns": 1}})
        b = make("b", {"fault_tolerance": {"requeues": 1}, "note": "b"})
        merged = a.merge(b)
        assert merged.extras == {
            "fault_tolerance": {"requeues": 3, "respawns": 1},
            "note": "b",  # any other key: the later report's value
        }
        # The argument is left as it was.
        assert b.extras["fault_tolerance"] == {"requeues": 1}

    def test_one_side_without_the_block(self, make):
        incidents = {"quarantined_cells": 1, "requeues": 2}
        clean = make("a", {})
        assert clean.merge(make("b", {"fault_tolerance": dict(incidents)})).extras == {
            "fault_tolerance": incidents
        }
        noisy = make("c", {"fault_tolerance": dict(incidents)})
        assert noisy.merge(make("d", {})).extras == {"fault_tolerance": incidents}
        assert make("e", {}).merge(make("f", {})).extras == {}
