"""Generated regions × fault programs: production == reference, exactly.

``test_tick_equivalence.py`` holds the production tick to the reference
oracle on hand-picked traces.  Here hypothesis draws the region (width,
models, job kinds, arrival pattern, plant sizes from starved to idle,
tick and control periods that do and do not divide each other), a fault
program (crashes, brownouts, recoveries, mid-run ``report()`` snapshots)
and a horizon cut, and the two engines must agree on every byte they
expose: the final report, every mid-run snapshot, the allocator's round
history and the flat summary — and that flat summary must equal the
oracle's report-mediated reduction of the reference run.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.job import JobKind
from repro.common.errors import SchedulingError
from repro.fleet import (
    FleetConfig,
    FleetJobSpec,
    FleetSimulator,
    PoolConfig,
    StorageFabric,
)
from repro.workloads.models import RM1, RM2, RM3

from .oracles import (
    SUMMARY_FIELDS,
    ReferenceFleetSimulator,
    result_from_fleet_report,
    rounds_of,
)

MODELS = (RM1, RM2, RM3)
KINDS = tuple(JobKind)

#: Event budget of a no-horizon run: a starved region never finishes, and
#: both engines must then give up at the same event.
MAX_EVENTS = 4_000


@st.composite
def regions(draw):
    """A ``(FleetConfig, [FleetJobSpec])`` pair."""
    n_trainers = draw(st.sampled_from((4, 16, 64, 128)))
    config = FleetConfig(
        fabric=StorageFabric(
            n_hdd_nodes=draw(st.sampled_from((1, 4, 20, 40, 200, 1_000))),
            n_ssd_cache_nodes=draw(st.sampled_from((0, 1, 4, 16))),
        ),
        n_trainer_nodes=n_trainers,
        pool=PoolConfig(
            max_workers=draw(st.sampled_from((3, 40, 500, 5_000))),
            spinup_s=draw(st.sampled_from((0.0, 45.0, 120.0, 400.0))),
        ),
        tick_s=draw(st.sampled_from((20.0, 45.0, 60.0))),
        control_period_s=draw(st.sampled_from((60.0, 100.0, 300.0))),
        buffer_capacity_s=draw(st.sampled_from((15.0, 60.0, 240.0))),
    )
    n_jobs = draw(st.integers(1, 48))
    # Simultaneous arrivals (gap 0) open one wide epoch; staggered ones
    # make every admission its own epoch.
    gap_s = draw(st.sampled_from((0.0, 0.0, 30.0, 90.0, 700.0)))
    # Small jobs fill a big region tens wide; big ones queue for it.
    max_nodes = min(n_trainers, draw(st.sampled_from((1, 2, 8))))
    jobs = []
    for job_id in range(n_jobs):
        model = draw(st.sampled_from(MODELS))
        nodes = draw(st.integers(1, max_nodes))
        hours = draw(st.sampled_from((0.02, 0.1, 0.5)))
        jobs.append(
            FleetJobSpec(
                job_id=job_id,
                model=model,
                kind=draw(st.sampled_from(KINDS)),
                arrival_s=gap_s * job_id,
                trainer_nodes=nodes,
                target_samples=hours
                * 3600
                * nodes
                * model.samples_per_s_per_trainer,
            )
        )
    return config, jobs


#: One fault: ``(at_s, kind, job index, magnitude)``.
faults = st.tuples(
    st.floats(0.0, 9_000.0, allow_nan=False),
    st.sampled_from(("crash", "degrade", "restore", "report")),
    st.integers(0, 47),
    st.integers(1, 20),
)


def run_engine(engine, config, jobs, program, horizon_s):
    """Everything observable about one run of *engine*."""
    simulator = engine(config, list(jobs))
    simulator.schedule()
    snapshots = []
    for at_s, kind, index, magnitude in program:
        job_id = jobs[index % len(jobs)].job_id
        action = {
            "crash": lambda j=job_id, m=magnitude: simulator.inject_worker_crash(j, m),
            "degrade": lambda m=magnitude: simulator.degrade_storage(m / 20.0),
            "restore": lambda: simulator.degrade_storage(1.0),
            "report": lambda: snapshots.append(simulator.report()),
        }[kind]
        simulator.clock.schedule_at(at_s, action)
    try:
        report = simulator.run(horizon_s=horizon_s, max_events=MAX_EVENTS)
        runaway = False
    except SchedulingError:
        report = simulator.report()
        runaway = True
    return {
        "runaway": runaway,
        "report": report,
        "snapshots": snapshots,
        "rounds": rounds_of(simulator),
        # repr spells nan, which == would refuse to match.
        "summary": repr(sorted(simulator.result_summary().items())),
        "events_fired": simulator.clock.fired,
    }


@settings(deadline=None)
@given(
    region=regions(),
    program=st.lists(faults, max_size=6),
    horizon_s=st.one_of(st.floats(300.0, 20_000.0), st.none()),
)
def test_production_tick_matches_reference(region, program, horizon_s):
    config, jobs = region
    production = run_engine(FleetSimulator, config, jobs, program, horizon_s)
    reference = run_engine(
        ReferenceFleetSimulator, config, jobs, program, horizon_s
    )
    for key in production:
        assert production[key] == reference[key], f"{key} diverged"
    # The flat summary is reduce_run; the oracle reduces the reference
    # tick's report with its own per-aggregate arithmetic.
    oracle = result_from_fleet_report(
        "n", "c", 0, reference["report"], events_fired=0, wall_s=0.0
    )
    assert production["summary"] == repr(
        sorted((name, getattr(oracle, name)) for name in SUMMARY_FIELDS)
    ), "summary diverged from the report-mediated oracle"
