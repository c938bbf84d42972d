"""Fleet simulation: many training jobs on one shared datacenter region.

Runs the same region twice on the discrete-event fleet plane:

1. a *baseline* with one RM1 job that has the storage fabric and the
   DPP worker pool to itself;
2. a *contended* fleet of 10 concurrent jobs (a mix of RM1/RM2/RM3
   exploratory, combo, and release-candidate work) arbitrated by the
   StorageBroker and the shared worker-pool allocation round on one
   SimClock.

The FleetReport shows per-job throughput degrading under contention —
the paper's core argument for provisioning storage and ingestion
fleet-wide — while aggregate throughput rises and the fabric saturates.

Run:  python examples/fleet_simulation.py
"""

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


def job(job_id, model, kind, arrival_s, nodes, hours):
    demand = nodes * model.samples_per_s_per_trainer
    return FleetJobSpec(
        job_id=job_id,
        model=model,
        kind=kind,
        arrival_s=arrival_s,
        trainer_nodes=nodes,
        target_samples=hours * 3600 * demand,
    )


def main() -> None:
    # One region: 72 HDD storage nodes plus a 6-node SSD cache tier,
    # 48 trainer nodes, a 2000-worker DPP pool under a power budget.
    fabric = StorageFabric(n_hdd_nodes=72, n_ssd_cache_nodes=6)
    config = FleetConfig(
        fabric=fabric,
        n_trainer_nodes=48,
        pool=PoolConfig(max_workers=2_000),
        power_budget_watts=600_000.0,
    )
    print(
        f"region: {fabric.n_hdd_nodes} HDD + {fabric.n_ssd_cache_nodes} SSD-cache "
        f"storage nodes ({fabric.total_bandwidth / 1e9:.0f} GB/s, "
        f"{fabric.cache_capacity_bytes / 1e12:.0f} TB cache), "
        f"{config.n_trainer_nodes} trainer nodes, "
        f"{config.pool.max_workers}-worker DPP pool, "
        f"{config.power_budget_watts / 1e3:.0f} kW budget\n"
    )

    # -- baseline: one job owns the region --------------------------------
    baseline = FleetSimulator(
        config, [job(0, RM1, JobKind.EXPLORATORY, 0.0, 2, 2.0)]
    ).run()
    print(baseline.render("Baseline: single RM1 job, uncontended"))
    solo_throughput = baseline.throughput_by_job()[0]

    # -- contended: ten concurrent jobs on the same plant -------------------
    mixed = (
        [job(i, RM1, JobKind.EXPLORATORY, 0.0, 2, 2.0) for i in range(4)]
        + [job(4 + i, RM2, JobKind.EXPLORATORY, 0.0, 2, 2.0) for i in range(3)]
        + [job(7, RM3, JobKind.EXPLORATORY, 0.0, 2, 2.0)]
        + [job(8, RM1, JobKind.COMBO, 600.0, 8, 3.0)]
        + [job(9, RM2, JobKind.RELEASE_CANDIDATE, 600.0, 8, 3.0)]
    )
    contended = FleetSimulator(config, mixed).run()
    print()
    print(contended.render("Contended: 10 concurrent jobs, shared fabric"))

    rm1_exploratory = [
        o
        for o in contended.finished_outcomes()
        if o.spec.model is RM1 and o.spec.kind is JobKind.EXPLORATORY
    ]
    degraded = sum(o.achieved_samples_per_s for o in rm1_exploratory) / len(
        rm1_exploratory
    )
    print(
        f"\ncontention effect on the baseline job shape (2-trainer RM1): "
        f"{solo_throughput / 1e6:.3f} -> {degraded / 1e6:.3f} Msamples/s "
        f"({degraded / solo_throughput:.0%} of uncontended throughput)"
    )
    # Every job runs well below the throughput it would get alone
    # (slowdown is throughput relative to each job's own uncontended
    # ideal, so it compares across models with different sample sizes).
    assert contended.peak_concurrency >= 8
    assert all(
        o.slowdown > baseline.mean_slowdown * 1.5
        for o in contended.finished_outcomes()
    )
    assert degraded < solo_throughput

    # -- flavor: a generated diurnal trace through the same region ----------
    trace = JobGenerator(
        FleetMix(
            exploratory_per_day=36.0,
            combo_wave_starts_s=(6 * 3600.0,),
            combo_jobs_per_wave=6,
            combo_nodes=4,
            combo_duration_median_s=2 * 3600.0,
        ),
        seed=11,
    ).generate(12 * 3600.0)
    diurnal = FleetSimulator(config, trace).run(horizon_s=24 * 3600.0)
    print(
        f"\ndiurnal trace: {len(trace)} arrivals over 12h -> "
        f"{diurnal.jobs_completed} completed in 24h, "
        f"peak concurrency {diurnal.peak_concurrency}, "
        f"storage {diurnal.mean_storage_utilization:.0%} mean / "
        f"{diurnal.peak_storage_utilization:.0%} peak, "
        f"p95 queue delay {diurnal.p95_queue_delay_s:.0f} s"
    )


if __name__ == "__main__":
    main()
