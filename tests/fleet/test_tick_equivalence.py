"""The fleet tick is bit-identical to the per-callback reference.

The production hot path (one columnar pass, steady stretches, the
allocation replay cache) must be a *pure* optimization: for any job
trace and any mid-run fault injection, it and the reference oracle
(:class:`tests.fleet.oracles.ReferenceFleetSimulator`) produce
byte-identical :class:`~repro.fleet.report.FleetReport`\\ s — every
outcome float, every tick sample, exactly equal.  Dataclass equality
compares all of that with exact ``==`` floats, so one drifted ULP
anywhere fails.
"""

import dataclasses

import pytest

from repro.cluster.job import JobKind
from repro.fleet import (
    FleetConfig,
    FleetJobSpec,
    FleetMix,
    FleetSimulator,
    JobGenerator,
    PoolConfig,
    StorageFabric,
)
from repro.workloads.models import RM1, RM2, RM3

from .oracles import ReferenceFleetSimulator

MODELS = (RM1, RM2, RM3)

EQUIVALENCE_SEEDS = (0, 1, 2, 3, 4)


def make_config(**overrides):
    defaults = dict(
        fabric=StorageFabric(n_hdd_nodes=40, n_ssd_cache_nodes=4),
        n_trainer_nodes=32,
        pool=PoolConfig(max_workers=2_000),
    )
    defaults.update(overrides)
    return FleetConfig(**defaults)


def generated_jobs(seed, duration_s=3.0 * 3600):
    mix = FleetMix(combo_wave_starts_s=(1_800.0,), combo_jobs_per_wave=4)
    return JobGenerator(mix, seed=seed).generate(duration_s)


def run_engine(engine, config, jobs, faults=None, horizon_s=None):
    simulator = engine(config, list(jobs))
    if faults:
        simulator.schedule()
        for at_s, action in faults:
            simulator.clock.schedule_at(
                at_s, lambda a=action, s=simulator: a(s)
            )
    return simulator.run(horizon_s=horizon_s)


def assert_identical(report_a, report_b):
    # Dataclass equality is exact — but compare piecewise first so a
    # failure names the diverging section instead of dumping both trees.
    assert len(report_a.outcomes) == len(report_b.outcomes)
    for lhs, rhs in zip(report_a.outcomes, report_b.outcomes):
        assert dataclasses.asdict(lhs) == dataclasses.asdict(rhs), (
            f"job {lhs.spec.job_id} outcome diverged"
        )
    assert report_a.samples == report_b.samples, "tick trace diverged"
    assert report_a == report_b


class TestTickEquivalence:
    @pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS)
    def test_generated_traces_bit_identical(self, seed):
        config = make_config()
        jobs = generated_jobs(seed)
        production = run_engine(FleetSimulator, config, jobs)
        reference = run_engine(ReferenceFleetSimulator, config, jobs)
        assert_identical(production, reference)
        assert production.jobs_completed > 0

    @pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS)
    def test_chaos_injection_bit_identical(self, seed):
        """Mid-run worker crashes and a storage brownout+recovery."""
        config = make_config()
        jobs = generated_jobs(seed)
        crash_targets = [job.job_id for job in jobs[:3]]
        faults = [
            (1_200.0, lambda s, j=crash_targets[0]: s.inject_worker_crash(j, 4)),
            (2_400.0, lambda s: s.degrade_storage(0.25)),
            (3_000.0, lambda s, j=crash_targets[-1]: s.inject_worker_crash(j, 2)),
            (4_800.0, lambda s: s.degrade_storage(1.0)),
        ]
        production = run_engine(FleetSimulator, config, jobs, faults=faults)
        reference = run_engine(ReferenceFleetSimulator, config, jobs, faults=faults)
        assert_identical(production, reference)

    def test_wide_region_bit_identical(self):
        """Concurrency well past anything the sweep grids reach."""
        n_jobs = 40
        config = make_config(
            fabric=StorageFabric(n_hdd_nodes=200, n_ssd_cache_nodes=16),
            n_trainer_nodes=2 * n_jobs,
            pool=PoolConfig(max_workers=8_000),
        )
        jobs = [
            FleetJobSpec(
                job_id=i,
                model=MODELS[i % 3],
                kind=JobKind.EXPLORATORY,
                arrival_s=0.0,
                trainer_nodes=2,
                target_samples=0.4
                * 3600
                * 2
                * MODELS[i % 3].samples_per_s_per_trainer,
            )
            for i in range(n_jobs)
        ]
        production = run_engine(FleetSimulator, config, jobs)
        reference = run_engine(ReferenceFleetSimulator, config, jobs)
        assert production.peak_concurrency >= 32
        assert_identical(production, reference)

    def test_horizon_cut_bit_identical(self):
        """Reports snapshotted mid-flight (unfinished jobs) also agree."""
        config = make_config(n_trainer_nodes=4)
        jobs = generated_jobs(7)
        production = run_engine(FleetSimulator, config, jobs, horizon_s=2_400.0)
        reference = run_engine(ReferenceFleetSimulator, config, jobs, horizon_s=2_400.0)
        assert_identical(production, reference)


class TestChaosInvariants:
    """Fault injection on the production tick keeps the fleet's books closed."""

    @pytest.mark.parametrize("seed", EQUIVALENCE_SEEDS)
    def test_crashes_lose_rate_not_samples(self, seed):
        config = make_config()
        jobs = generated_jobs(seed, duration_s=2.0 * 3600)
        faults = [
            (900.0, lambda s, j=jobs[0].job_id: s.inject_worker_crash(j, 8)),
            (1_800.0, lambda s: s.degrade_storage(0.5)),
            (3_600.0, lambda s: s.degrade_storage(1.0)),
        ]
        report = run_engine(FleetSimulator, config, jobs, faults=faults)
        for outcome in report.finished_outcomes():
            assert outcome.samples_done == pytest.approx(
                outcome.spec.target_samples, rel=1e-6
            )
        # Worker accounting in the tick trace never goes negative and
        # the books stay integral under churn.
        for sample in report.samples:
            assert sample.live_workers >= 0
            assert sample.pending_workers >= 0
