"""The fleet orchestration plane: many jobs, one clock, shared everything.

:class:`FleetSimulator` runs a multi-tenant region as a discrete-event
simulation on a single :class:`~repro.common.simclock.SimClock`:

* jobs arrive from a trace (:mod:`repro.fleet.jobs`) and queue FCFS for
  trainer capacity (the admission story of Section 4.2);
* active sessions' preprocessing is a fluid model per job — workers
  produce at their model's achievable QPS, trainers consume at GPU
  demand, a bounded buffer absorbs transients — the fleet
  generalization of :class:`~repro.dpp.simulation.TimedDppSimulation`;
* every tick the :class:`~repro.fleet.broker.StorageBroker` apportions
  shared Tectonic bandwidth and cache across sessions, capping each
  job's achievable rate;
* every control period each job's autoscaling controller proposes a
  fleet size and :func:`~repro.fleet.allocator.allocate` arbitrates all
  proposals against one power-bounded worker pool; the round keeps no
  history, only a memo of the last round's grants.

The tick dynamics are one coalesced scalar pass over per-epoch column
lists (demand declaration, grant application, consumption, stall
accrual) at every fleet width, plus steady stretches that defer the
accumulator work of proven fixed-point ticks.  Every tick, full or
fast, records its sample row as it fires, through one row builder
whose power term is
:meth:`~repro.fleet.allocator.FleetPowerBudget.draw_watts`.  The
one-Python-loop-per-phase reference it must match bit for bit lives in
``tests/fleet/oracles.py``; the differential suites there
(``test_tick_equivalence.py``, ``test_tick_differential.py``) hold this
pass to byte-identical :class:`~repro.fleet.report.FleetReport`\\ s.

The result is a :class:`~repro.fleet.report.FleetReport`: per-job
throughput, contention slowdown, queue delay, and shared-resource
utilization traces.  :meth:`FleetSimulator.run_summary` reduces the
same run straight to its eleven aggregates through
:func:`~repro.fleet.report.reduce_run`, the reduction the report's own
aggregates use.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from ..common.errors import ConfigError, SchedulingError
from ..common.simclock import EventCallback, EventHandle, SimClock
from ..dpp.analytical import worker_throughput
from ..telemetry.tracer import NULL_TRACER, Tracer
from ..dpp.autoscaler import AutoscalerConfig, scaling_decision
from ..workloads.hardware import V100_TRAINER, TrainerNodeSpec
from .allocator import KIND_PRIORITY, FleetPowerBudget, PoolConfig, allocate
from .broker import StorageBroker, StorageFabric
from .jobs import FleetJobSpec
from .report import FleetReport, FleetSample, JobOutcome, reduce_run

_EPS = 1e-9

#: A sample row's ``(active_jobs, storage_utilization, power_watts)``.
_OBSERVED = itemgetter(1, 8, 9)


def _fleet_autoscaler_config() -> AutoscalerConfig:
    """Per-job controller thresholds in buffered *seconds of demand*."""
    return AutoscalerConfig(
        min_buffered_per_worker=5.0,
        drain_buffered_per_worker=30.0,
        low_utilization=0.5,
        scale_up_step=4,
        drain_step=2,
        min_workers=1,
        max_workers=1_000_000,
    )


@dataclass(frozen=True)
class FleetConfig:
    """One region's shared plant and control-loop settings."""

    fabric: StorageFabric
    n_trainer_nodes: int = 64
    trainer_node: TrainerNodeSpec = V100_TRAINER
    pool: PoolConfig = field(default_factory=PoolConfig)
    autoscaler: AutoscalerConfig = field(default_factory=_fleet_autoscaler_config)
    power_budget_watts: float | None = None
    tick_s: float = 60.0
    control_period_s: float = 300.0
    buffer_capacity_s: float = 60.0  # seconds of demand a job may buffer

    def __post_init__(self) -> None:
        if self.n_trainer_nodes < 1:
            raise ConfigError("region needs at least one trainer node")
        if self.tick_s <= 0 or self.control_period_s <= 0:
            raise ConfigError("time steps must be positive")
        if self.buffer_capacity_s <= 0:
            raise ConfigError("buffer capacity must be positive")

    def power_budget(self) -> FleetPowerBudget | None:
        """The power coupling, when a budget is set."""
        if self.power_budget_watts is None:
            return None
        return FleetPowerBudget(
            budget_watts=self.power_budget_watts,
            storage_watts=self.fabric.total_watts,
            trainer_node_watts=self.trainer_node.total_watts,
            worker_node_watts=self.pool.worker_node.watts,
        )


@dataclass
class _ActiveJob:
    """Fluid state of one admitted session.

    Spec-derived rates are resolved once at admission: the tick loop
    reads them every virtual minute, and walking the model-config
    property chains per tick per job was measurable overhead.
    """

    spec: FleetJobSpec
    outcome: JobOutcome
    worker_qps: float
    requested: int
    # Cached spec constants (admission-time resolution).
    demand_sps: float = 0.0
    rx_bytes_per_sample: float = 0.0
    buffer_cap_samples: float = 0.0
    base_workers: int = 1
    priority: int = 0  # KIND_PRIORITY rank, resolved once
    live_workers: int = 0
    # In-flight launches, (ready_s, count), ascending ready time: new
    # launches mature last and sheds cancel from the right, so the
    # deque matures strictly from the left.
    pending: deque[tuple[float, int]] = field(default_factory=deque)
    pending_count: int = 0
    buffer_samples: float = 0.0
    last_rate: float = 0.0

    def mature_pending(self, now: float) -> int:
        """Promote launches whose spin-up completed by *now*.

        Returns how many matured (the simulator keeps fleet-wide
        worker totals, so callers fold the count in).
        """
        pending = self.pending
        if not pending:
            return 0
        matured = 0
        while pending and pending[0][0] <= now:
            matured += pending.popleft()[1]
        if matured:
            self.live_workers += matured
            self.pending_count -= matured
        return matured


class _EpochColumns:
    """Membership-epoch columnar state for the tick and control passes.

    Allocated once per membership epoch (the active-job set changing is
    the only boundary) and mutated in place every tick, so the hot loop
    is pure list arithmetic with no per-tick re-materialization and no
    Python-object attribute traffic.  Two groups live here:

    * **static columns** — rates, caps, targets, cache absorption —
      resolved once at epoch build;
    * **state columns** — live workers, buffer depth, samples done,
      stall, worker-seconds, granted bytes, last rate — the *truth*
      for the epoch's duration.  The owning :class:`_ActiveJob` /
      :class:`~repro.fleet.report.JobOutcome` objects go stale between
      flushes; :meth:`FleetSimulator._flush_columns` writes them back
      at every epoch boundary (admission, finish, report snapshot), so
      nothing outside the simulator ever observes the staleness.  The
      ``live`` column is the one exception: ``job.live_workers`` stays
      authoritative (control grants, crashes, and maturation mutate
      it) and the column mirrors it at each of those points.
    """

    __slots__ = (
        "jobs", "index_of",
        "qps", "demand", "rx", "cap", "target", "absorbed", "one_minus",
        "total_demand",
        "live", "buffer", "done", "stall", "wsec", "gbytes", "rate",
        "supplies", "ssd_in", "hdd_in",
        "done_d", "stall_d", "wsec_d", "gbytes_d",
    )


class _SteadyStretch:
    """A proven fixed point of the fluid dynamics, exploited lazily.

    When a tick leaves every job's buffer exactly where it found it —
    and no launches are in flight — the next tick is provably
    identical: supplies, declared demand, water-fill grants, rates,
    and consumption are all pure functions of state that did not
    change.  The only evolution is four per-job accumulators (samples
    done, stall, worker-seconds, granted bytes) advancing by a
    *constant* per-tick delta.

    A stretch defers those accumulations: fast ticks count themselves
    and record their sample row from the cached ``row_tail`` (every
    field after ``time_s``, built once by
    :meth:`FleetSimulator._row_tail`), and settling replays the
    deferred count as one ``acc += delta`` per tick over a stacked
    ``(4, n)`` float64 array — the exact same IEEE-754 addition
    sequence the full tick would have executed job by job.
    ``remaining`` bounds the stretch so no job can cross its
    completion threshold (or bend its consumption clamp) inside it;
    any state mutation (grant change, crash, derate, membership
    change, report snapshot) settles first.  Queue growth is the one
    tail field a stretch does not pin: an arrival that is not admitted
    rebuilds the tail (see :meth:`FleetSimulator._arrive`).
    """

    __slots__ = (
        "remaining", "deferred", "delta",
        "total_rate", "total_demand", "granted_bps", "control_steady",
        "row_tail",
    )

    def __init__(
        self,
        remaining: int,
        delta: np.ndarray,
        total_rate: float,
        total_demand: float,
        granted_bps: float,
        row_tail: tuple,
    ) -> None:
        self.remaining = remaining
        self.deferred = 0
        self.delta = delta
        self.total_rate = total_rate
        self.total_demand = total_demand
        self.granted_bps = granted_bps
        self.control_steady = False
        self.row_tail = row_tail


#: Stretch length used when no job makes progress (fully starved
#: fleet): effectively unbounded — only an external event ends it.
_STRETCH_UNBOUNDED = 0x7FFFFFFFFFFFFFFF


class FleetSimulator:
    """Discrete-event, multi-tenant datacenter-region simulator."""

    def __init__(
        self,
        config: FleetConfig,
        jobs: list[FleetJobSpec],
        tracer: Tracer | None = None,
    ) -> None:
        if not jobs:
            raise ConfigError("fleet needs at least one job")
        oversized = [j for j in jobs if j.trainer_nodes > config.n_trainer_nodes]
        if oversized:
            raise SchedulingError(
                f"{len(oversized)} job(s) need more trainers than the region has"
            )
        if len({j.job_id for j in jobs}) != len(jobs):
            raise ConfigError("job ids must be unique")
        self.config = config
        self.clock = SimClock()
        self.broker = StorageBroker(config.fabric)
        # One budget object serves both the control round's pool cap
        # (when configured) and the per-tick power accounting; an
        # unbudgeted fleet still meters its draw against an unbounded
        # budget so the report's power trace uses one formula.
        self._budget = config.power_budget()
        self._power_meter = self._budget or FleetPowerBudget(
            budget_watts=math.inf,
            storage_watts=config.fabric.total_watts,
            trainer_node_watts=config.trainer_node.total_watts,
            worker_node_watts=config.pool.worker_node.watts,
        )
        self.jobs = sorted(jobs, key=lambda j: (j.arrival_s, j.job_id))
        self._pending_arrivals = len(self.jobs)
        self._queue: list[FleetJobSpec] = []
        self._active: dict[int, _ActiveJob] = {}
        self._free_trainers = config.n_trainer_nodes
        self._outcomes: dict[int, JobOutcome] = {}
        # Samples accumulate columnar (one tuple per tick) and
        # materialize into FleetSample objects only in report() —
        # dataclass construction per tick was measurable.
        self._sample_rows: list[tuple] = []
        self._qps_cache: dict[str, float] = {}
        self._fabric_bandwidth = config.fabric.total_bandwidth
        # Tick-loop constant hoisted out of the per-event path.
        self._tick_s = config.tick_s
        # Last allocation round memo, (pool, rows, granted): steady-state
        # control periods re-present identical asks against the same
        # pool, and the water-fill is pure in them — replay the grants.
        self._alloc_cache: tuple[int, list, dict[int, int]] | None = None
        # Fleet-wide worker totals, maintained at every mutation point
        # (launch, maturation, shed, crash, finish) so the per-tick
        # sample is O(1) instead of a sum over active jobs.
        self._live_total = 0
        self._pending_total = 0
        # Membership-epoch columnar state: rebuilt only when a job is
        # admitted or finishes, not every tick.
        self._static: _EpochColumns | None = None
        # Open steady-state stretch (fixed-point fast path), if any.
        self._stretch: _SteadyStretch | None = None
        # One-shot events this fleet holds on the clock (arrivals and
        # pinned faults); None once a run has taken them off it.
        self._pinned: list[EventHandle] | None = []
        self._tick_handle = None
        self._control_handle = None
        # Telemetry: the tracer rides the simulation clock.  Disabled
        # (the shared NULL_TRACER) every hot-path site costs one
        # `tracer.enabled` check; enabled, the tick emits spans plus
        # counter samples.
        self.tracer = tracer or NULL_TRACER
        # Hoisted once: every per-event site guards on this plain bool
        # instead of an attribute chain through the tracer object.
        self._traced = self.tracer.enabled
        if self._traced:
            clock = self.clock  # the tracer must not hold the fleet
            self.tracer.bind_clock(lambda: clock.now)
            self.broker.attach_tracer(self.tracer)

    # -- lifecycle -------------------------------------------------------------

    def _worker_qps(self, spec: FleetJobSpec) -> float:
        model = spec.model
        if model.name not in self._qps_cache:
            self._qps_cache[model.name] = worker_throughput(
                model, self.config.pool.worker_node
            ).qps
        return self._qps_cache[model.name]

    def _arrive(self, spec: FleetJobSpec) -> None:
        self._pending_arrivals -= 1
        self._queue.append(spec)
        if self._traced:
            self.tracer.begin(
                "job.queued", actor=f"job-{spec.job_id}", job_id=spec.job_id
            )
        self._admit_queued()
        # An admission settles any open stretch; one that survives saw
        # the queue grow, which its cached row tail must now show.
        stretch = self._stretch
        if stretch is not None:
            stretch.row_tail = self._row_tail(
                stretch.total_rate, stretch.total_demand, stretch.granted_bps
            )

    def _admit_queued(self) -> None:
        """FCFS admission with head-of-line blocking (Section 4.2)."""
        admitted = False
        while self._queue and self._queue[0].trainer_nodes <= self._free_trainers:
            spec = self._queue.pop(0)
            self._free_trainers -= spec.trainer_nodes
            outcome = JobOutcome(spec=spec, admitted_s=self.clock.now)
            self._outcomes[spec.job_id] = outcome
            worker_qps = self._worker_qps(spec)
            demand = spec.demand_samples_per_s
            job = _ActiveJob(
                spec=spec,
                outcome=outcome,
                worker_qps=worker_qps,
                requested=0,
                demand_sps=demand,
                rx_bytes_per_sample=spec.storage_rx_bytes_per_sample,
                buffer_cap_samples=self.config.buffer_capacity_s * demand,
                base_workers=max(1, math.ceil(demand / worker_qps)),
                priority=KIND_PRIORITY[spec.kind],
            )
            job.requested = job.base_workers
            self._active[spec.job_id] = job
            self._invalidate_static()  # membership changed
            if self._traced:
                actor = f"job-{spec.job_id}"
                self.tracer.end(actor=actor)  # closes job.queued
                self.tracer.begin(
                    "job.running",
                    actor=actor,
                    job_id=spec.job_id,
                    trainer_nodes=spec.trainer_nodes,
                )
            self.broker.register(
                spec.job_id,
                dataset_bytes=spec.model.table_sizes.used_partitions,
                popularity_bytes_for_80pct=spec.model.popularity_bytes_for_80pct,
            )
            admitted = True
        if admitted:
            # Newly admitted jobs should not idle until the next control
            # period: run an allocation round now.
            self._control()

    def _finish(self, job: _ActiveJob) -> None:
        job.outcome.completed_s = self.clock.now
        if self._traced:
            actor = f"job-{job.spec.job_id}"
            self.tracer.end(actor=actor)  # closes job.running
            self.tracer.instant(
                "job.finish",
                actor=actor,
                job_id=job.spec.job_id,
                stall_s=job.outcome.stall_s,
            )
        self._free_trainers += job.spec.trainer_nodes
        self._live_total -= job.live_workers
        self._pending_total -= job.pending_count
        self.broker.unregister(job.spec.job_id)
        del self._active[job.spec.job_id]
        self._invalidate_static()  # membership changed
        self._admit_queued()
        if not (self._active or self._queue or self._pending_arrivals):
            # The fleet is done: stop the tick periodic (the control
            # periodic cancels itself from its own wrapper, preserving
            # the old chains' one stale round inside a horizon, or at
            # the end of the drive).
            handle = self._tick_handle
            if handle is not None:
                handle.cancel()

    # -- fault injection ------------------------------------------------------

    def inject_worker_crash(self, job_id: int, count: int = 1) -> int:
        """Kill up to *count* of a job's live DPP workers (chaos plane).

        Returns how many actually died.  Workers are stateless, so the
        job loses rate, not data; its controller re-requests and the
        next control round re-grants.  A job not currently active
        absorbs nothing.
        """
        if count < 1:
            raise ConfigError("must crash at least one worker")
        job = self._active.get(job_id)
        if job is None:
            return 0
        # A crash changes live workers, which every stretch delta is
        # conditioned on: settle the deferred ticks first.
        self._settle_stretch()
        died = min(count, job.live_workers)
        job.live_workers -= died
        self._live_total -= died
        static = self._static
        if static is not None:
            static.live[static.index_of[job_id]] = job.live_workers
        if self._traced:
            self.tracer.instant(
                "fault.worker_crash", actor="fleet", job_id=job_id, died=died
            )
        return died

    def degrade_storage(self, fraction: float) -> None:
        """Degrade the shared Tectonic fabric to *fraction* of nominal
        bandwidth; 1.0 restores it.  Takes effect from the next tick's
        apportionment."""
        self._settle_stretch()  # grants change from here on
        self.broker.set_bandwidth_derate(fraction)

    # -- control loop ---------------------------------------------------------

    def _control(self) -> None:
        """Per-job autoscalers propose; :func:`allocate` disposes.

        The proposal pass reads the fluid state straight from the
        epoch's columns (building them first when the round opens the
        epoch, as an admission-time round does) and evaluates each job
        with :func:`~repro.dpp.autoscaler.scaling_decision`.  The fluid
        state maps onto the rule's inputs as whole buffered *seconds of
        demand* for buffered batches and achieved rate over worker
        capacity for CPU utilization (the rule only compares it with a
        threshold below 1, so a rate above capacity needs no clamp).  The
        pool is :attr:`PoolConfig.max_workers`, capped by the power
        budget's :meth:`~FleetPowerBudget.worker_cap` when one is set.

        During a steady stretch whose previous control round was a
        fixed point (cache hit *and* every grant a no-op), the whole
        round is provably identical — the controller inputs are
        constant and the cached rows equalling this round's rows means
        ``requested`` maps to itself under the policy, so it stays
        fixed inductively.  Such rounds do nothing.
        """
        stretch = self._stretch
        if stretch is not None and stretch.control_steady:
            return
        static = self._static
        if static is None:
            static = self._build_columns()
        jobs = static.jobs
        live = static.live
        buffer = static.buffer
        rate = static.rate
        demand = static.demand
        qps = static.qps
        scaler = self.config.autoscaler
        rows = []
        append = rows.append
        for i, job in enumerate(jobs):
            n_live = live[i]
            supply = n_live * qps[i]
            delta = scaling_decision(
                scaler,
                n_live,
                int(buffer[i] / demand[i]),
                rate[i] / supply if supply > 0 else 1.0,
            ).delta
            requested = job.requested + delta
            ceiling = 2 * job.base_workers
            if ceiling < 1:
                ceiling = 1
            if requested > ceiling:
                requested = ceiling
            if requested < 1:
                requested = 1
            job.requested = requested
            append((job.priority, job.spec.job_id, requested, 1))
        pool = self.config.pool.max_workers
        if self._budget is not None:
            active_trainers = self.config.n_trainer_nodes - self._free_trainers
            pool = min(pool, self._budget.worker_cap(active_trainers))
        cache = self._alloc_cache
        hit = cache is not None and cache[0] == pool and cache[1] == rows
        if hit:
            # Steady state: the same asks against the same pool, and the
            # water-fill is pure in them — replay the grants, which this
            # round only reads.
            granted = cache[2]
        else:
            granted = allocate(rows, pool)
            self._alloc_cache = (pool, rows, granted)
        changed = False
        for index, job in enumerate(jobs):
            target = granted.get(job.spec.job_id, 0)
            # An exact-size grant is a no-op in _apply_grant; skip
            # the call (and track whether anything moved — the
            # stretch, if open, survives only no-op rounds).
            if target != job.live_workers + job.pending_count:
                changed = True
                self._apply_grant(job, target)
                live[index] = job.live_workers
        if stretch is not None:
            if changed:
                self._settle_stretch()
            elif hit:
                stretch.control_steady = True

    def _apply_grant(self, job: _ActiveJob, target: int) -> None:
        """Reshape a job's worker fleet toward its granted size."""
        current = job.live_workers + job.pending_count
        if target > current:
            job.pending.append(
                (self.clock.now + self.config.pool.spinup_s, target - current)
            )
            job.pending_count += target - current
            self._pending_total += target - current
        elif target < current:
            shed = current - target
            # In-flight launches are cancelled first (free), then live
            # workers drain back to the shared pool.
            while shed > 0 and job.pending:
                ready, count = job.pending.pop()
                keep = max(0, count - shed)
                removed = count - keep
                shed -= removed
                job.pending_count -= removed
                self._pending_total -= removed
                if keep:
                    job.pending.append((ready, keep))
            if shed > 0:
                drained = min(shed, job.live_workers)
                job.live_workers -= drained
                self._live_total -= drained

    # -- membership-epoch columns ----------------------------------------------

    def _build_columns(self) -> _EpochColumns:
        """Materialize the epoch's columns from the active-job objects.

        Runs once per membership epoch — the *only* per-epoch
        materialization cost; every tick thereafter mutates these
        columns (plain lists at every width) in place.
        """
        jobs = tuple(self._active.values())
        n = len(jobs)
        static = _EpochColumns()
        static.jobs = jobs
        static.index_of = {job.spec.job_id: i for i, job in enumerate(jobs)}
        static.qps = [j.worker_qps for j in jobs]
        demand = [j.demand_sps for j in jobs]
        static.demand = demand
        static.rx = [j.rx_bytes_per_sample for j in jobs]
        static.cap = [j.buffer_cap_samples for j in jobs]
        static.target = [float(j.spec.target_samples) for j in jobs]
        absorbed = [
            self.broker.cache_absorbed_fraction(j.spec.job_id) for j in jobs
        ]
        static.absorbed = absorbed
        static.one_minus = [1.0 - a for a in absorbed]
        # The same left-to-right `+=` the per-job loop would run every
        # tick of this epoch: same operands, same order.
        total_demand = 0.0
        for value in demand:
            total_demand += value
        static.total_demand = total_demand
        static.supplies = [0.0] * n
        static.ssd_in = [0.0] * n
        static.hdd_in = [0.0] * n
        static.live = [j.live_workers for j in jobs]
        static.buffer = [j.buffer_samples for j in jobs]
        static.done = [j.outcome.samples_done for j in jobs]
        static.stall = [j.outcome.stall_s for j in jobs]
        static.wsec = [j.outcome.worker_seconds for j in jobs]
        static.gbytes = [j.outcome.granted_bytes for j in jobs]
        static.rate = [j.last_rate for j in jobs]
        # Per-tick accumulator deltas, captured by the tick loop so a
        # fixed-point tick can open a steady stretch.
        static.done_d = [0.0] * n
        static.stall_d = [0.0] * n
        static.wsec_d = [0.0] * n
        static.gbytes_d = [0.0] * n
        self._static = static
        return static

    def _flush_columns(self, static: _EpochColumns) -> None:
        """Write the epoch's state columns back to the job objects.

        Anything observing jobs through the object graph (reports,
        the next epoch's column build) runs after a flush, so the
        columnar staleness is invisible outside the tick.  ``live`` is
        skipped: ``job.live_workers`` is authoritative and the column
        only mirrors it.
        """
        buffer = static.buffer
        done = static.done
        stall = static.stall
        wsec = static.wsec
        gbytes = static.gbytes
        rate = static.rate
        for i, job in enumerate(static.jobs):
            job.buffer_samples = buffer[i]
            job.last_rate = rate[i]
            outcome = job.outcome
            outcome.samples_done = done[i]
            outcome.stall_s = stall[i]
            outcome.worker_seconds = wsec[i]
            outcome.granted_bytes = gbytes[i]

    def _settle_stretch(self) -> None:
        """Replay an open stretch's deferred accumulator ticks.

        Each deferred tick is one ``acc += delta`` over the stacked
        ``(4, n)`` accumulator — the same per-job IEEE-754 additions,
        in the same tick order, that the full tick would have executed,
        so the settled columns are bit-identical to never having
        deferred at all.  ``ufunc.accumulate`` along a stacked step axis
        runs them at C speed: it is defined left-to-right, with no
        pairwise reassociation.
        """
        stretch = self._stretch
        if stretch is None:
            return
        self._stretch = None
        k = stretch.deferred
        if not k:
            return
        static = self._static
        delta = stretch.delta
        steps = np.empty((k + 1,) + delta.shape)
        steps[0] = (static.done, static.stall, static.wsec, static.gbytes)
        steps[1:] = delta
        np.add.accumulate(steps, axis=0, out=steps)
        done_row, stall_row, wsec_row, gbytes_row = steps[k].tolist()
        static.done[:] = done_row
        static.stall[:] = stall_row
        static.wsec[:] = wsec_row
        static.gbytes[:] = gbytes_row

    def _sync_jobs(self) -> None:
        """Land deferred stretch ticks and the state columns on the job
        objects; the epoch stays alive (the columns remain the truth for
        the next tick)."""
        static = self._static
        if static is not None:
            self._settle_stretch()
            self._flush_columns(static)

    def _invalidate_static(self) -> None:
        """Close the membership epoch: settle, flush columns, drop them."""
        self._sync_jobs()
        self._static = None

    def _retire(self, static: _EpochColumns, indices: list[int]) -> None:
        """Finish the tick's completed jobs (closing the epoch first).

        The flush must precede the first :meth:`_finish`: a finish can
        trigger admission and an allocation round, which builds the next
        epoch's columns from the survivor job objects.
        """
        jobs = static.jobs
        self._flush_columns(static)
        self._static = None
        for index in indices:
            self._finish(jobs[index])

    # -- dynamics -------------------------------------------------------------

    def _tick(self) -> None:
        """The tick dynamics: one coalesced pass over the epoch's columns.

        The per-tier demand columns go to
        :meth:`~repro.fleet.broker.StorageBroker.water_fill` in epoch
        order (no per-job grant objects, no sorted-id permutation —
        ``max_min_share`` grants depend only on the demand multiset, not
        input order), and both the constants
        and the fluid state come from the membership-epoch columns — no
        per-tick re-materialization, no Python-object attribute traffic
        in the inner loops.  The pass executes the same IEEE-754
        operations per job as the per-phase reference loop in
        ``tests/fleet/oracles.py``, so both produce bit-identical
        reports.

        When a previous tick proved a fixed point (see
        :class:`_SteadyStretch`), the tick collapses to counting one
        deferred delta application and recording the stretch's cached
        sample row — the accumulators are replayed exactly at the next
        state-observing boundary.
        """
        stretch = self._stretch
        if stretch is not None:
            if stretch.remaining > 0:
                stretch.remaining -= 1
                stretch.deferred += 1
                self._sample(self.clock.now, stretch.row_tail)
                return
            self._settle_stretch()
        now = self.clock.now
        tick = self._tick_s
        static = self._static
        if static is None:
            static = self._build_columns()
        jobs = static.jobs
        n = len(jobs)
        if not n:
            self._sample(now, self._row_tail(0.0, 0.0, 0.0))
            return

        # Phase 1: mature in-flight launches.  Maturation is the one
        # tick-path mutation of live_workers, so the mirror column is
        # refreshed here; the fleet-wide pending total gates the whole
        # loop (zero in steady state).
        live = static.live
        if self._pending_total:
            for index, job in enumerate(jobs):
                if job.pending:
                    matured = job.mature_pending(now)
                    if matured:
                        self._live_total += matured
                        self._pending_total -= matured
                        live[index] = job.live_workers

        # Phase 2: declared demand, split per tier by cache absorption.
        # Pure column arithmetic; ``min`` is spelled as a conditional
        # expression — same IEEE-754 result, no builtin call per phase
        # per job.
        qps = static.qps
        demand = static.demand
        rx = static.rx
        cap = static.cap
        buffer = static.buffer
        supplies = static.supplies
        ssd_in = static.ssd_in
        hdd_in = static.hdd_in
        absorbed = static.absorbed
        one_minus = static.one_minus
        for index in range(n):
            supply = live[index] * qps[index]
            supplies[index] = supply
            if buffer[index] < cap[index]:
                wanted = supply
            else:
                demand_sps = demand[index]
                wanted = demand_sps if demand_sps < supply else supply
            declared = wanted * rx[index]
            ssd_in[index] = declared * absorbed[index]
            hdd_in[index] = declared * one_minus[index]

        # Phase 3: produce at the granted rate, consume trainer demand,
        # accrue stalls, cap the buffer — all into the state columns.
        ssd_grants, hdd_grants = self.broker.water_fill(ssd_in, hdd_in)
        target = static.target
        done = static.done
        stall = static.stall
        wsec = static.wsec
        gbytes = static.gbytes
        rate = static.rate
        done_d = static.done_d
        stall_d = static.stall_d
        wsec_d = static.wsec_d
        gbytes_d = static.gbytes_d
        total_rate = 0.0
        granted_bps = 0.0
        steady = True
        finished: list[int] | None = None
        for index in range(n):
            grant = hdd_grants[index] + ssd_grants[index]
            reachable = grant / rx[index]
            supply = supplies[index]
            job_rate = reachable if reachable < supply else supply
            rate[index] = job_rate
            old_buffer = buffer[index]
            available = old_buffer + job_rate * tick
            need = demand[index] * tick
            headroom = target[index] - done[index]
            if headroom < need:
                need = headroom
            consumed = available if available < need else need
            if need > _EPS and consumed < need - _EPS:
                stall_inc = tick * (1.0 - consumed / need)
                stall[index] += stall_inc
            else:
                stall_inc = 0.0
            leftover = available - consumed
            ceiling = cap[index]
            new_buffer = ceiling if ceiling < leftover else leftover
            if new_buffer != old_buffer:
                steady = False
            buffer[index] = new_buffer
            done[index] += consumed
            wsec_inc = live[index] * tick
            wsec[index] += wsec_inc
            gbytes_inc = grant * tick
            gbytes[index] += gbytes_inc
            done_d[index] = consumed
            stall_d[index] = stall_inc
            wsec_d[index] = wsec_inc
            gbytes_d[index] = gbytes_inc
            total_rate += job_rate
            granted_bps += grant
            if done[index] >= target[index] - _EPS:
                if finished is None:
                    finished = []
                finished.append(index)
        total_demand = static.total_demand
        remaining = 0
        if finished is not None:
            self._retire(static, finished)
        elif steady and not self._pending_total:
            # Fixed point: every buffer is exactly where it started and
            # no launches are in flight, so subsequent ticks are pure
            # accumulator advances.  Bound the stretch so no job can
            # reach its completion threshold (or engage the headroom
            # clamp) inside it; a negative margin (clamp already
            # engaged) simply yields no stretch.
            remaining = _STRETCH_UNBOUNDED
            for index in range(n):
                dd = done_d[index]
                if dd > 0.0:
                    floor = demand[index] * tick
                    if floor < _EPS:
                        floor = _EPS
                    k = int((target[index] - floor - done[index]) / dd) - 4
                    if k < remaining:
                        remaining = k
        tail = self._row_tail(total_rate, total_demand, granted_bps)
        if remaining > 0:
            self._stretch = _SteadyStretch(
                remaining,
                np.array([done_d, stall_d, wsec_d, gbytes_d]),
                total_rate,
                total_demand,
                granted_bps,
                tail,
            )
        self._sample(now, tail)

    def _row_tail(
        self, total_rate: float, total_demand: float, granted_bps: float
    ) -> tuple:
        """A tick's sample row after ``time_s``, from the fleet counters.

        The fields follow :class:`FleetSample` order (rows materialize
        in :meth:`report`), and the power draw is
        :meth:`FleetPowerBudget.draw_watts` of the current occupancy.
        """
        live = self._live_total
        pending = self._pending_total
        return (
            len(self._active),
            len(self._queue),
            live,
            pending,
            total_rate,
            total_demand,
            granted_bps,
            granted_bps / self._fabric_bandwidth,
            self._power_meter.draw_watts(
                self.config.n_trainer_nodes - self._free_trainers,
                live + pending,
            ),
        )

    def _sample(self, now: float, tail: tuple) -> None:
        """Record one tick's observation of the shared plane.

        Every tick records its row as it fires — a steady-stretch fast
        tick with the stretch's cached tail — so traced counters reach
        the trace in event order.
        """
        self._sample_rows.append((now,) + tail)
        if self._traced:
            tracer = self.tracer
            tracer.counter("fleet.live_workers", float(tail[2]), actor="fleet")
            tracer.counter("fleet.queued_jobs", float(tail[1]), actor="fleet")
            tracer.counter(
                "fleet.granted_bytes_per_s", tail[6], actor="fleet"
            )

    # -- driver ---------------------------------------------------------------

    def _work_remaining(self) -> bool:
        return bool(self._active or self._queue or self._pending_arrivals)

    def _tick_event(self) -> None:
        """Traced flavor of the periodic tick occurrence.

        Untraced fleets bind the periodic callback straight to the
        dynamics (:meth:`_tick`) with no wrapper at all — the
        disabled-tracer overhead on the tick path is zero.  This
        wrapper records the span bounds itself and emits the finished
        span directly (:meth:`~repro.telemetry.tracer.Tracer.
        emit_span`): no per-tick actor-stack push/pop, same event,
        same order (after the tick's counter samples).  Cancellation
        lives in :meth:`_finish` for both flavors.
        """
        start = self.clock.now
        self._tick()
        self.tracer.emit_span("fleet.tick", "fleet", start, 0.0)

    def _control_event(self) -> None:
        self._control()
        if not self._work_remaining():
            self._control_handle.cancel()

    def pin(self, when_s: float, action: EventCallback) -> None:
        """Run *action* at virtual time *when_s* on the fleet's clock,
        for as long as the fleet runs (the chaos plane pins its faults
        here): the end of a run takes it off the clock."""
        if self._pinned is None:
            raise SchedulingError("fleet already ran; pin events before run()")
        self._pinned.append(self.clock.schedule_at(when_s, action))

    def schedule(self) -> None:
        """Register arrivals and control processes on the fleet's clock."""
        if self._tick_handle is not None:
            raise SchedulingError("fleet already scheduled")
        for spec in self.jobs:
            self.pin(spec.arrival_s, lambda s=spec: self._arrive(s))
        # Periodic processes ride the clock's heap-free side list; each
        # is cancelled once the fleet has no work left, matching the
        # old self-rescheduling chains occurrence for occurrence.
        tick_callback = self._tick_event if self._traced else self._tick
        self._tick_handle = self.clock.every(self.config.tick_s, tick_callback)
        self._control_handle = self.clock.every(
            self.config.control_period_s, self._control_event
        )

    def _drive(self, horizon_s: float | None, max_events: int) -> None:
        """Advance the clock to completion (or *horizon_s*).

        Without a horizon the clock is stepped only while fleet work
        remains.

        A run is one-shot: however it ends (done, cut by its horizon,
        or runaway), it takes every event of the fleet off the clock —
        recurrences, pending arrivals and pinned faults — so nothing
        there points back at the simulator, which refcounting then
        frees without the cycle collector.  A second run is refused.
        """
        if self._pinned is None:
            raise SchedulingError(
                "fleet already ran; a run is one-shot, so build a new "
                "simulator to run again"
            )
        if self._tick_handle is None:
            self.schedule()
        try:
            if horizon_s is not None:
                self.clock.run_until(self.clock.now + horizon_s)
            else:
                fired = self.clock.run_while(
                    self._work_remaining, max_events=max_events
                )
                if fired >= max_events:
                    raise SchedulingError(
                        f"fleet exceeded {max_events} events (starved jobs "
                        "never finish; pass horizon_s to bound such runs)"
                    )
        finally:
            self._tick_handle.cancel()
            self._control_handle.cancel()
            for handle in self._pinned:
                handle.cancel()
            self._pinned = None

    def run(
        self, horizon_s: float | None = None, max_events: int = 5_000_000
    ) -> FleetReport:
        """Run to completion (or *horizon_s*) and build the report."""
        self._drive(horizon_s, max_events)
        return self.report()

    def run_summary(
        self, horizon_s: float | None = None, max_events: int = 5_000_000
    ) -> dict:
        """Run to completion and reduce straight to summary metrics.

        Same driver as :meth:`run`, but the reduction skips the
        :class:`FleetReport` envelope entirely — no
        :class:`~repro.fleet.report.FleetSample` materialization.
        Sweeps, which only keep eleven aggregate numbers per cell, use
        this path; the values are bit-identical to reducing
        :meth:`run`'s report (see ``tests/fleet/test_flat_summary.py``).
        """
        self._drive(horizon_s, max_events)
        return self.result_summary()

    def _settled_run(self) -> tuple[list[JobOutcome], list[float], float]:
        """Settle, then the run's outcomes (job-id order), the waits of
        jobs still queued, and the makespan: first busy tick to the end
        of the last one."""
        self._sync_jobs()  # mid-run snapshots must see current fluid state
        # Row index 0 is time_s, index 1 active_jobs.
        busy_times = [row[0] for row in self._sample_rows if row[1] > 0]
        makespan = (
            busy_times[-1] - busy_times[0] + self.config.tick_s
            if busy_times
            else 0.0
        )
        now = self.clock.now
        return (
            sorted(self._outcomes.values(), key=lambda o: o.spec.job_id),
            [now - spec.arrival_s for spec in self._queue],
            makespan,
        )

    def result_summary(self) -> dict:
        """The run's eleven aggregates straight from the sample rows —
        the same :func:`~repro.fleet.report.reduce_run` over the same
        operands as the report's aggregates, without materializing
        :class:`FleetSample` objects."""
        outcomes, unadmitted, makespan = self._settled_run()
        return reduce_run(
            map(_OBSERVED, self._sample_rows), outcomes, unadmitted, makespan
        )

    def report(self) -> FleetReport:
        """Snapshot the current outcome set as a report."""
        outcomes, unadmitted, makespan = self._settled_run()
        return FleetReport(
            outcomes=outcomes,
            samples=[FleetSample(*row) for row in self._sample_rows],
            storage_bandwidth_bytes_per_s=self.config.fabric.total_bandwidth,
            makespan_s=makespan,
            # Jobs that arrived but never won trainer capacity: their
            # waits (still growing at snapshot time) must not vanish
            # from the queue-delay tail.
            unadmitted_queue_delays_s=unadmitted,
        )
