"""The reference fleet dynamics the production tick is tested against.

:class:`ReferenceFleetSimulator` is the per-callback structure
``repro.fleet.simulator`` shipped behind ``fused=False`` until the
simulator kept a single engine: the tick and proposal bodies moved here
(the per-job controller now lives in a dict on the oracle instead of on
``_ActiveJob``, and the round goes through ``allocate`` rather than the
tuple-row fast path).  It shares the lifecycle — arrival,
admission, finish, fault injection, sampling, reporting — with
production and replaces only the two passes under test, with every fast
path left out: no epoch columns, no steady stretches, no allocation
replay cache, one :class:`~repro.fleet.broker.BandwidthGrant` per job
per tick, one controller decision per job per round, and the allocator
called (through its validating :meth:`allocate` entry) every round.

:func:`result_from_fleet_report` is the report-mediated reduction of a
run to a sweep's flat row — ``ScenarioResult.from_fleet_report`` until
sweeps stopped building a ``FleetReport`` per cell — kept as the oracle
for ``FleetSimulator.run_summary``.
"""

import math

from repro.dpp.autoscaler import AutoscalingController
from repro.experiments.report import ScenarioResult
from repro.fleet import FleetSimulator, WorkerRequest

_EPS = 1e-9


def rounds_of(simulator: FleetSimulator) -> list[tuple]:
    """The allocator's history as plain comparable rows."""
    return [
        (r.time_s, r.pool_limit, sorted(r.granted.items()))
        for r in simulator.allocator.rounds
    ]


def result_from_fleet_report(
    name: str,
    cell: str,
    trace_seed: int,
    report,
    events_fired: int,
    wall_s: float,
) -> ScenarioResult:
    """Reduce a FleetReport (guarding its raising aggregates)."""
    finished = report.finished_outcomes()
    return ScenarioResult(
        name=name,
        cell=cell,
        trace_seed=trace_seed,
        jobs_submitted=report.jobs_submitted,
        jobs_completed=len(finished),
        peak_concurrency=report.peak_concurrency,
        makespan_s=report.makespan_s,
        aggregate_samples_per_s=(
            report.aggregate_samples_per_s if report.makespan_s > 0 else math.nan
        ),
        mean_slowdown=report.mean_slowdown if finished else math.nan,
        mean_stall_fraction=(
            sum(o.stall_fraction for o in finished) / len(finished)
            if finished
            else math.nan
        ),
        p95_queue_delay_s=(
            report.p95_queue_delay_s if report.jobs_submitted else math.nan
        ),
        mean_storage_utilization=report.mean_storage_utilization,
        peak_storage_utilization=report.peak_storage_utilization,
        peak_power_watts=max(
            (s.power_watts for s in report.samples), default=0.0
        ),
        events_fired=events_fired,
        wall_s=wall_s,
    )


class ReferenceFleetSimulator(FleetSimulator):
    """One Python loop per phase over the job objects."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._controllers: dict[int, AutoscalingController] = {}

    # -- control loop ---------------------------------------------------------

    def _control(self) -> None:
        """Per-job autoscalers propose; the global allocator disposes."""
        requests = [
            WorkerRequest(
                job_id=job.spec.job_id,
                kind=job.spec.kind,
                desired=self._desired_workers(job),
            )
            for job in self._active.values()
        ]
        active_trainers = self.config.n_trainer_nodes - self._free_trainers
        granted = self.allocator.allocate(
            requests, active_trainers, self.clock.now
        )
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
            controller = AutoscalingController(self.config.autoscaler)
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
        grants = self.broker.apportion(demands) if demands else {}

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

        self._sample(now, total_rate, total_demand, granted_bps)
