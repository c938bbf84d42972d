"""The flat summary reduction is bit-identical to the report path.

``FleetSimulator.run_summary`` / ``result_summary`` skip the
``FleetReport`` envelope entirely; every aggregate they emit must be
the exact float the report-mediated reduction
(``oracles.result_from_fleet_report`` over ``run()``'s report) would
produce — same operands, same accumulation order, one drifted ULP
fails.  ``FleetReport``'s own aggregates and ``metrics()`` read the
same reduction and are held to the same oracle.
"""

import math

import pytest

from repro.fleet import (
    FleetConfig,
    FleetMix,
    FleetSimulator,
    JobGenerator,
    PoolConfig,
    StorageFabric,
)

from .oracles import SUMMARY_FIELDS, result_from_fleet_report


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


def reduce_via_report(config, jobs, horizon_s=None):
    simulator = FleetSimulator(config, list(jobs))
    report = simulator.run(horizon_s=horizon_s)
    reduced = result_from_fleet_report(
        name="n", cell="c", trace_seed=0, report=report,
        events_fired=0, wall_s=0.0,
    )
    return {name: getattr(reduced, name) for name in SUMMARY_FIELDS}


def reduce_flat(config, jobs, horizon_s=None):
    simulator = FleetSimulator(config, list(jobs))
    return simulator.run_summary(horizon_s=horizon_s)


def assert_identical(flat, via_report):
    assert set(flat) == set(SUMMARY_FIELDS)
    for name in SUMMARY_FIELDS:
        lhs, rhs = flat[name], via_report[name]
        if isinstance(rhs, float) and math.isnan(rhs):
            assert math.isnan(lhs), f"{name}: {lhs!r} != nan"
        else:
            assert lhs == rhs, f"{name}: {lhs!r} != {rhs!r}"
            assert type(lhs) is type(rhs), name


class TestFlatSummary:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    def test_generated_traces_bit_identical(self, seed):
        config = make_config()
        jobs = generated_jobs(seed)
        flat = reduce_flat(config, jobs)
        via_report = reduce_via_report(config, jobs)
        assert via_report["jobs_completed"] > 0
        assert_identical(flat, via_report)

    def test_horizon_cut_with_queued_jobs(self):
        # A starved horizon leaves unfinished and never-admitted jobs:
        # the nan guards and the unadmitted queue-delay tail must match.
        config = make_config(n_trainer_nodes=16)
        jobs = generated_jobs(3)
        flat = reduce_flat(config, jobs, horizon_s=2_000.0)
        via_report = reduce_via_report(config, jobs, horizon_s=2_000.0)
        assert via_report["jobs_completed"] < via_report["jobs_submitted"]
        assert_identical(flat, via_report)

    @pytest.mark.parametrize("horizon_s", (None, 2_000.0))
    def test_report_aggregates_match_oracle(self, horizon_s):
        # FleetReport's properties and metrics() read reduce_run over
        # FleetSample objects: the same floats as the oracle's
        # per-aggregate arithmetic, in both the flat and fleet.* spelling.
        config = make_config(n_trainer_nodes=16)
        report = FleetSimulator(config, list(generated_jobs(3))).run(
            horizon_s=horizon_s
        )
        oracle = result_from_fleet_report(
            name="n", cell="c", trace_seed=0, report=report,
            events_fired=0, wall_s=0.0,
        )
        expected = {name: getattr(oracle, name) for name in SUMMARY_FIELDS}
        assert_identical(report.aggregates(), expected)
        metrics = report.metrics()
        assert list(metrics) == [f"fleet.{name}" for name in SUMMARY_FIELDS]
        assert_identical(
            {name: metrics[f"fleet.{name}"] for name in SUMMARY_FIELDS},
            {name: float(value) for name, value in expected.items()},
        )
        for name in ("jobs_completed", "peak_concurrency",
                     "mean_storage_utilization", "peak_storage_utilization"):
            assert getattr(report, name) == expected[name], name

    def test_summary_after_mid_run_snapshot(self):
        # result_summary on a live simulator must settle any open
        # stretch and flush columns exactly like report() does.
        config = make_config()
        jobs = generated_jobs(0)
        simulator = FleetSimulator(config, list(jobs))
        simulator.schedule()
        simulator.clock.run_until(4_000.0)
        flat = simulator.result_summary()
        report = simulator.report()
        reduced = result_from_fleet_report(
            name="n", cell="c", trace_seed=0, report=report,
            events_fired=0, wall_s=0.0,
        )
        via_report = {name: getattr(reduced, name) for name in SUMMARY_FIELDS}
        assert_identical(flat, via_report)
