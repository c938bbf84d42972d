"""The fleet orchestration plane end to end (fluid path)."""

import pytest

from repro.cluster.job import JobKind
from repro.common.errors import SchedulingError
from repro.common.simclock import SimClock
from repro.fleet import (
    FleetConfig,
    FleetJobSpec,
    FleetScenario,
    FleetSimulator,
    PoolConfig,
    StorageFabric,
    run_scenario,
)
from repro.workloads.models import RM1, RM2

from .oracles import ReferenceFleetSimulator


def make_job(job_id, model=RM1, arrival_s=0.0, nodes=2, hours=1.0,
             kind=JobKind.EXPLORATORY):
    demand = nodes * model.samples_per_s_per_trainer
    return FleetJobSpec(
        job_id=job_id,
        model=model,
        kind=kind,
        arrival_s=arrival_s,
        trainer_nodes=nodes,
        target_samples=hours * 3600 * demand,
    )


def make_config(n_hdd=60, n_ssd=4, trainers=32, **overrides):
    return FleetConfig(
        fabric=StorageFabric(n_hdd_nodes=n_hdd, n_ssd_cache_nodes=n_ssd),
        n_trainer_nodes=trainers,
        pool=PoolConfig(max_workers=2_000),
        **overrides,
    )


class TestSingleJob:
    def test_uncontended_job_runs_near_ideal(self):
        report = FleetSimulator(make_config(), [make_job(0)]).run()
        (outcome,) = report.outcomes
        assert outcome.finished
        assert outcome.queue_delay_s == 0.0
        assert outcome.slowdown < 1.1
        assert outcome.stall_fraction < 0.1

    def test_samples_complete_to_target(self):
        job = make_job(0, hours=0.5)
        report = FleetSimulator(make_config(), [job]).run()
        assert report.outcomes[0].samples_done == pytest.approx(
            job.target_samples, rel=1e-6
        )


class TestContention:
    def test_shared_storage_degrades_per_job_throughput(self):
        config = make_config()
        solo = FleetSimulator(config, [make_job(0)]).run()
        crowd = FleetSimulator(
            config, [make_job(i) for i in range(8)]
        ).run()
        solo_tput = solo.throughput_by_job()[0]
        crowd_tputs = crowd.throughput_by_job()
        assert crowd.peak_concurrency == 8
        assert all(tput < solo_tput for tput in crowd_tputs.values())
        assert crowd.mean_slowdown > 1.5 * solo.mean_slowdown

    def test_contention_saturates_fabric(self):
        report = FleetSimulator(
            make_config(), [make_job(i) for i in range(8)]
        ).run()
        assert report.peak_storage_utilization > 0.95

    def test_aggregate_exceeds_single_job(self):
        # The fleet serves more total samples/s than one job alone even
        # though each individual job is slower.
        config = make_config()
        solo = FleetSimulator(config, [make_job(0)]).run()
        crowd = FleetSimulator(config, [make_job(i) for i in range(8)]).run()
        assert crowd.aggregate_samples_per_s > solo.aggregate_samples_per_s


class TestAdmission:
    def test_jobs_queue_for_trainer_capacity(self):
        config = make_config(trainers=4)
        jobs = [make_job(i, nodes=4, hours=0.5) for i in range(3)]
        report = FleetSimulator(config, jobs).run()
        delays = sorted(o.queue_delay_s for o in report.outcomes)
        assert delays[0] == 0.0
        assert delays[1] > 0.0
        assert delays[2] > delays[1]
        assert report.peak_concurrency == 1

    def test_queue_growth_inside_a_steady_stretch_matches_the_reference(self):
        # Arrivals that must wait while the running job sits at a fixed
        # point: stretch ticks record the grown queue, tick by tick.
        config = make_config(trainers=1)
        jobs = [
            make_job(0, nodes=1, hours=2.0),
            make_job(1, arrival_s=2_000.0, nodes=1, hours=0.1),
            make_job(2, arrival_s=4_000.0, nodes=1, hours=0.1),
        ]
        production = FleetSimulator(config, list(jobs)).run()
        reference = ReferenceFleetSimulator(config, list(jobs)).run()
        assert {s.queued_jobs for s in production.samples} == {0, 1, 2}
        assert production.samples == reference.samples
        assert production == reference

    def test_oversized_job_rejected_upfront(self):
        with pytest.raises(SchedulingError):
            FleetSimulator(make_config(trainers=2), [make_job(0, nodes=4)])


class TestPowerBudget:
    def test_power_cap_limits_worker_pool(self):
        config = make_config()
        capped = make_config(
            power_budget_watts=config.fabric.total_watts
            + 8 * 3_200.0  # trainers for all jobs
            + 40 * 150.0,  # …but only 40 workers' worth of watts
        )
        jobs = [make_job(i) for i in range(4)]
        free = FleetSimulator(config, jobs).run()
        squeezed = FleetSimulator(capped, jobs).run()
        assert max(s.live_workers for s in squeezed.samples) <= 40
        assert squeezed.mean_slowdown > free.mean_slowdown
        assert max(s.power_watts for s in squeezed.samples) <= (
            capped.power_budget_watts + 1e-6
        )


class TestPriorities:
    def test_release_candidate_outruns_exploratory_peers(self):
        # Same shape, same arrival; the RC gets workers first.
        config = make_config(n_hdd=200)  # storage-rich: pool is the bottleneck
        config = FleetConfig(
            fabric=config.fabric,
            n_trainer_nodes=config.n_trainer_nodes,
            pool=PoolConfig(max_workers=60),
        )
        jobs = [
            make_job(0, kind=JobKind.EXPLORATORY),
            make_job(1, kind=JobKind.RELEASE_CANDIDATE),
            make_job(2, kind=JobKind.EXPLORATORY),
        ]
        report = FleetSimulator(config, jobs).run()
        tput = report.throughput_by_job()
        assert tput[1] > tput[0]
        assert tput[1] > tput[2]


class TestSharedClock:
    def test_runs_on_external_clock(self):
        clock = SimClock(start=500.0)
        witnessed = []
        clock.schedule(1_000.0, lambda: witnessed.append(clock.now))
        simulator = FleetSimulator(make_config(), [make_job(0)], clock=clock)
        report = simulator.run()
        assert witnessed == [1_500.0]  # foreign event interleaved
        assert report.outcomes[0].admitted_s == pytest.approx(500.0)

    def test_horizon_leaves_unfinished_jobs_running(self):
        simulator = FleetSimulator(make_config(), [make_job(0, hours=10.0)])
        report = simulator.run(horizon_s=600.0)
        assert not report.outcomes[0].finished
        assert report.jobs_completed == 0

    def test_run_leaves_foreign_future_events_for_the_driver(self):
        # A co-simulated process scheduled beyond the fleet's work must
        # survive run(): the fleet stops stepping once its jobs finish.
        clock = SimClock()
        foreign = []
        clock.schedule(100 * 3600.0, lambda: foreign.append(clock.now))
        simulator = FleetSimulator(make_config(), [make_job(0)], clock=clock)
        report = simulator.run()
        assert report.jobs_completed == 1
        assert foreign == []  # not drained by the fleet
        # The foreign event survives for the external driver (alongside
        # at most harmless leftover fleet chain events that no-op).
        assert clock.pending >= 1
        clock.run()
        assert foreign == [100 * 3600.0]

    def test_render_survives_horizon_before_first_tick(self):
        # A horizon shorter than one tick yields zero samples and zero
        # makespan; the report must render, not raise.
        report = FleetSimulator(make_config(), [make_job(0)]).run(horizon_s=30.0)
        text = report.render()
        assert "1 submitted" in text
        assert "aggregate" not in text  # no makespan yet, line omitted

    def test_queued_jobs_counted_in_horizon_report(self):
        # Two 4-node jobs on a 4-trainer region: the second is still
        # queued when the horizon cuts, but its wait must show up.
        config = make_config(trainers=4)
        jobs = [make_job(i, nodes=4, hours=2.0) for i in range(2)]
        report = FleetSimulator(config, jobs).run(horizon_s=1800.0)
        assert report.jobs_submitted == 2
        assert len(report.outcomes) == 1
        assert report.unadmitted_queue_delays_s == [pytest.approx(1800.0)]
        assert report.p95_queue_delay_s == pytest.approx(1800.0)
        assert "never admitted" in report.render()


class TestScenarioRunner:
    def test_run_scenario_and_render(self):
        scenario = FleetScenario(
            name="smoke",
            config=make_config(),
            jobs=(make_job(0), make_job(1, model=RM2)),
        )
        report = run_scenario(scenario)
        text = report.render(title="smoke")
        assert "smoke" in text
        assert "RM1" in text and "RM2" in text
        assert "aggregate DPP throughput" in text
        assert report.jobs_completed == 2
