"""The reference fleet dynamics the production tick is tested against.

:class:`ReferenceFleetSimulator` is the per-callback structure
``repro.fleet.simulator`` shipped behind ``fused=False`` until the
simulator kept a single engine: the tick and proposal bodies moved here
(the per-job controller now lives in a dict on the oracle instead of on
``_ActiveJob``, and the round goes through :func:`allocate_requests`'s
:class:`WorkerRequest` objects rather than cached tuple rows).  It
shares the lifecycle — arrival, admission, finish, fault injection,
sampling, reporting — with
production and replaces only the two passes under test, with every fast
path left out: no epoch columns, no steady stretches, no allocation
replay cache, one :class:`BandwidthGrant` per job per tick (from
:func:`apportion`, the broker's per-job entry until the tick became its
one caller), one controller decision per job per round, and the pool
limit recomputed and the round run (through the validating
:func:`allocate_requests`, its request-object entry until the same
change) every round.

:func:`observe_grants` records each control round's grants from
outside, since neither engine keeps a history of its rounds.

:func:`result_from_fleet_report` is the report-mediated reduction of a
run to a sweep's flat row — ``ScenarioResult.from_fleet_report`` until
sweeps stopped building a ``FleetReport`` per cell — with the report
properties' former per-aggregate arithmetic as its own body: the oracle
for ``repro.fleet.report.reduce_run`` behind ``FleetSimulator.run_summary``
and ``FleetReport``'s aggregates alike.
"""

import math
from dataclasses import dataclass

from repro.experiments.report import ScenarioResult
from repro.cluster.job import JobKind
from repro.common.errors import ConfigError, SchedulingError, StorageError
from repro.fleet import FleetSimulator, StorageBroker
from repro.fleet.allocator import KIND_PRIORITY, allocate

from ..dpp.oracles import OracleAutoscalingController

_EPS = 1e-9


@dataclass(frozen=True)
class WorkerRequest:
    """One session's ask for an allocation round."""

    job_id: int
    kind: JobKind
    desired: int
    minimum: int = 1

    def __post_init__(self) -> None:
        if self.minimum < 0 or self.desired < self.minimum:
            raise ConfigError("desired must be at least minimum (both >= 0)")


def allocate_requests(requests: list[WorkerRequest], pool: int) -> dict[int, int]:
    """An allocation round from request objects: the validating entry
    the allocator had beside its tuple-row path until the fleet control
    loop became its one caller."""
    if len({r.job_id for r in requests}) != len(requests):
        raise SchedulingError("duplicate job in allocation round")
    return allocate(
        [(KIND_PRIORITY[r.kind], r.job_id, r.desired, r.minimum) for r in requests],
        pool,
    )


@dataclass(frozen=True)
class BandwidthGrant:
    """One control interval's storage award to one job."""

    job_id: int
    demand_bytes_per_s: float
    hdd_bytes_per_s: float
    ssd_bytes_per_s: float
    cache_absorbed_fraction: float

    @property
    def total_bytes_per_s(self) -> float:
        """Granted read bandwidth across both tiers."""
        return self.hdd_bytes_per_s + self.ssd_bytes_per_s

    @property
    def satisfied(self) -> bool:
        """Whether the grant covers the declared demand."""
        return self.total_bytes_per_s >= self.demand_bytes_per_s - 1e-6


def apportion(
    broker: StorageBroker, demands: dict[int, float]
) -> dict[int, BandwidthGrant]:
    """Split fabric bandwidth across registered jobs' declared demands.

    Each job's demand divides between tiers by its cache-absorbed
    fraction, in ascending job-id order; both tiers then go through
    :meth:`StorageBroker.water_fill`.
    """
    unknown = set(demands) - set(broker._sessions)
    if unknown:
        raise StorageError(f"unregistered jobs in demand set: {sorted(unknown)}")
    ids = sorted(demands)
    absorbed = [broker.cache_absorbed_fraction(i) for i in ids]
    ssd_grants, hdd_grants = broker.water_fill(
        [demands[i] * a for i, a in zip(ids, absorbed)],
        [demands[i] * (1.0 - a) for i, a in zip(ids, absorbed)],
    )
    return {
        job_id: BandwidthGrant(
            job_id=job_id,
            demand_bytes_per_s=demands[job_id],
            hdd_bytes_per_s=hdd_grants[position],
            ssd_bytes_per_s=ssd_grants[position],
            cache_absorbed_fraction=absorbed[position],
        )
        for position, job_id in enumerate(ids)
    }


def observe_grants(simulator: FleetSimulator) -> list[tuple]:
    """Record every control round's grants while *simulator* runs.

    Wraps the instance's ``_control`` (admission-time and periodic
    rounds both call it through the instance) so that after each round
    the returned list gains ``(time_s, [(job_id, workers), ...])``: each
    active job's ``live_workers + pending_count`` in job-id order, which
    is the round's grant once it has been applied.  The simulator keeps
    no history of its own.
    """
    grants: list[tuple] = []
    control = simulator._control
    active = simulator._active

    def observed() -> None:
        control()
        grants.append(
            (
                simulator.clock.now,
                sorted(
                    (job_id, job.live_workers + job.pending_count)
                    for job_id, job in active.items()
                ),
            )
        )

    simulator._control = observed
    return grants


#: The eleven run aggregates, in ``ScenarioResult`` field order.
SUMMARY_FIELDS = (
    "jobs_submitted",
    "jobs_completed",
    "peak_concurrency",
    "makespan_s",
    "aggregate_samples_per_s",
    "mean_slowdown",
    "mean_stall_fraction",
    "p95_queue_delay_s",
    "mean_storage_utilization",
    "peak_storage_utilization",
    "peak_power_watts",
)


def result_from_fleet_report(
    name: str,
    cell: str,
    trace_seed: int,
    report,
    events_fired: int,
    wall_s: float,
) -> ScenarioResult:
    """Reduce a FleetReport field by field, guarding the undefined ones.

    Each aggregate is the expression ``FleetReport``'s own property held
    before every reduction went through ``repro.fleet.report.reduce_run``
    — one generator sweep per aggregate instead of one pass — so
    ``reduce_run`` is held against an independent body.
    """
    outcomes = report.outcomes
    samples = report.samples
    makespan_s = report.makespan_s
    finished = [o for o in outcomes if o.finished]
    busy = [s for s in samples if s.active_jobs > 0]
    delays = sorted(
        [o.queue_delay_s for o in outcomes]
        + list(report.unadmitted_queue_delays_s)
    )
    return ScenarioResult(
        name=name,
        cell=cell,
        trace_seed=trace_seed,
        jobs_submitted=len(outcomes) + len(report.unadmitted_queue_delays_s),
        jobs_completed=len(finished),
        peak_concurrency=max((s.active_jobs for s in samples), default=0),
        makespan_s=makespan_s,
        aggregate_samples_per_s=(
            sum(o.samples_done for o in outcomes) / makespan_s
            if makespan_s > 0
            else math.nan
        ),
        mean_slowdown=(
            sum(o.slowdown for o in finished) / len(finished)
            if finished
            else math.nan
        ),
        mean_stall_fraction=(
            sum(o.stall_fraction for o in finished) / len(finished)
            if finished
            else math.nan
        ),
        p95_queue_delay_s=(
            delays[math.ceil(0.95 * (len(delays) - 1))] if delays else math.nan
        ),
        mean_storage_utilization=(
            sum(s.storage_utilization for s in busy) / len(busy)
            if busy
            else 0.0
        ),
        peak_storage_utilization=max(
            (s.storage_utilization for s in samples), default=0.0
        ),
        peak_power_watts=max((s.power_watts for s in samples), default=0.0),
        events_fired=events_fired,
        wall_s=wall_s,
    )


class ReferenceFleetSimulator(FleetSimulator):
    """One Python loop per phase over the job objects."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._controllers: dict[int, OracleAutoscalingController] = {}

    # -- control loop ---------------------------------------------------------

    def _control(self) -> None:
        """Per-job autoscalers propose; the allocation round disposes."""
        requests = [
            WorkerRequest(
                job_id=job.spec.job_id,
                kind=job.spec.kind,
                desired=self._desired_workers(job),
            )
            for job in self._active.values()
        ]
        pool = self.config.pool.max_workers
        budget = self.config.power_budget()
        if budget is not None:
            active_trainers = self.config.n_trainer_nodes - self._free_trainers
            pool = min(pool, budget.worker_cap(active_trainers))
        granted = allocate_requests(requests, pool)
        for job in self._active.values():
            self._apply_grant(job, granted.get(job.spec.job_id, 0))

    def _desired_workers(self, job) -> int:
        """Evolve the job's ask with its per-job autoscaling controller.

        The fluid state maps onto the controller's aggregate inputs:
        buffered *seconds of demand* stand in for buffered batches, and
        achieved rate over worker capacity for CPU utilization.
        """
        controller = self._controllers.get(job.spec.job_id)
        if controller is None:
            controller = OracleAutoscalingController(self.config.autoscaler)
            self._controllers[job.spec.job_id] = controller
        buffered_s = job.buffer_samples / job.demand_sps
        supply = job.live_workers * job.worker_qps
        utilization = min(1.0, job.last_rate / supply) if supply > 0 else 1.0
        delta = controller.evaluate_uniform(
            job.live_workers, int(buffered_s), utilization
        ).delta
        ceiling = max(1, 2 * job.base_workers)
        job.requested = max(1, min(ceiling, job.requested + delta))
        return job.requested

    # -- dynamics -------------------------------------------------------------

    def _tick(self) -> None:
        """Per-callback dynamics: one Python pass per phase, per job."""
        now = self.clock.now
        tick = self.config.tick_s
        for job in self._active.values():
            matured = job.mature_pending(now)
            self._live_total += matured
            self._pending_total -= matured

        # Declare storage demand: workers refill buffers whenever there
        # is headroom, so demand reflects what the job *could* read.
        demands: dict[int, float] = {}
        for job_id, job in self._active.items():
            supply = job.live_workers * job.worker_qps
            cap = job.buffer_cap_samples
            wanted = supply if job.buffer_samples < cap else min(
                supply, job.demand_sps
            )
            demands[job_id] = wanted * job.rx_bytes_per_sample
        grants = apportion(self.broker, demands) if demands else {}

        total_rate = 0.0
        total_demand = 0.0
        granted_bps = 0.0
        finished = []
        for job_id, job in self._active.items():
            spec = job.spec
            grant = grants[job_id]
            supply = job.live_workers * job.worker_qps
            rate = min(
                supply, grant.total_bytes_per_s / job.rx_bytes_per_sample
            )
            job.last_rate = rate
            produced = rate * tick
            available = job.buffer_samples + produced
            need = min(
                job.demand_sps * tick,
                spec.target_samples - job.outcome.samples_done,
            )
            consumed = min(need, available)
            if need > _EPS and consumed < need - _EPS:
                job.outcome.stall_s += tick * (1.0 - consumed / need)
            job.buffer_samples = min(available - consumed, job.buffer_cap_samples)
            job.outcome.samples_done += consumed
            job.outcome.worker_seconds += job.live_workers * tick
            job.outcome.granted_bytes += grant.total_bytes_per_s * tick
            total_rate += rate
            total_demand += job.demand_sps
            granted_bps += grant.total_bytes_per_s
            if job.outcome.samples_done >= spec.target_samples - _EPS:
                finished.append(job)
        for job in finished:
            self._finish(job)

        self._sample(
            now, self._row_tail(total_rate, total_demand, granted_bps)
        )
