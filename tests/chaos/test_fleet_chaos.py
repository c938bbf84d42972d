"""Fleet-scale chaos: worker churn and degraded Tectonic bandwidth."""

import pytest

from repro.chaos import FaultEvent, FaultKind, schedule_fleet_faults
from repro.cluster.job import JobKind
from repro.common.errors import ConfigError
from repro.fleet import (
    FleetConfig,
    FleetJobSpec,
    FleetSimulator,
    PoolConfig,
    StorageFabric,
)
from repro.telemetry import Tracer
from repro.workloads.models import RM1


def make_job(job_id, arrival_s=0.0, nodes=2, hours=0.5):
    demand = nodes * RM1.samples_per_s_per_trainer
    return FleetJobSpec(
        job_id=job_id,
        model=RM1,
        kind=JobKind.EXPLORATORY,
        arrival_s=arrival_s,
        trainer_nodes=nodes,
        target_samples=hours * 3600 * demand,
    )


def make_simulator(n_jobs=2, tracer=None):
    config = FleetConfig(
        fabric=StorageFabric(n_hdd_nodes=60, n_ssd_cache_nodes=4),
        n_trainer_nodes=32,
        pool=PoolConfig(max_workers=2_000),
    )
    return FleetSimulator(
        config, [make_job(i) for i in range(n_jobs)], tracer=tracer
    )


class TestFleetChaos:
    def test_worker_crashes_do_not_lose_samples(self):
        tracer = Tracer(scenario="crashes")
        simulator = make_simulator(tracer=tracer)
        faults = [
            FaultEvent(600, FaultKind.WORKER_CRASH, magnitude=4),
            FaultEvent(1200, FaultKind.WORKER_CRASH, magnitude=4),
        ]
        schedule_fleet_faults(simulator, faults, job_ids=[0, 1])
        report = simulator.run()
        (process,) = tracer.freeze().processes
        crashes = [e for e in process.events if e.name == "fault.worker_crash"]
        assert [dict(e.args)["job_id"] for e in crashes] == [0, 1]
        for outcome in report.outcomes:
            assert outcome.finished
            assert outcome.samples_done == pytest.approx(
                outcome.spec.target_samples, rel=1e-6
            )

    def test_degraded_storage_slows_then_recovers(self):
        baseline = make_simulator().run()
        degraded = make_simulator()
        faults = [
            FaultEvent(300, FaultKind.DEGRADE_STORAGE, magnitude=0.25),
            FaultEvent(3600, FaultKind.RESTORE_STORAGE),
        ]
        schedule_fleet_faults(degraded, faults, job_ids=[0])
        report = degraded.run()
        # Jobs still finish with every sample accounted for, but the
        # brownout costs wall-clock time.
        assert all(o.finished for o in report.outcomes)
        assert report.makespan_s > baseline.makespan_s

    def test_crash_on_finished_job_is_noop(self):
        simulator = make_simulator(n_jobs=1)
        assert simulator.inject_worker_crash(job_id=99) == 0

    def test_unsupported_kind_rejected(self):
        simulator = make_simulator()
        with pytest.raises(ConfigError):
            schedule_fleet_faults(
                simulator, [FaultEvent(0, FaultKind.MASTER_FAILOVER)], job_ids=[0]
            )

    def test_derate_validation(self):
        simulator = make_simulator()
        with pytest.raises(Exception):
            simulator.degrade_storage(0.0)
