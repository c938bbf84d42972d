"""The live DPP service plane: role-split pools behind bounded queues.

This is the paper's disaggregation story made executable under load.
The synchronous :class:`~repro.dpp.service.DppSession` pump runs
extract → transform → load inside one worker per round; the plane
splits those phases across *independent* pools —

* the **feeder** pulls splits from the (replicated) master and
  enqueues extraction work, looping epochs over the table so a finite
  dataset feeds an unbounded open-loop fetch stream;
* **extraction workers** decode splits into feature batches and hand
  each to the transform queue as a linked child item (split/epoch/
  sequence provenance carried along);
* **transform workers** run the session DAG, tensorize, and deposit
  into the bounded ready queue;
* the **dispatcher** pairs trainer fetch requests with ready tensor
  batches, measuring per-request fetch latency in virtual time;
* an **admission controller** gates the trainer-facing fetch queue:
  a full backlog sheds the request or schedules a retry with
  exponential backoff, per the configured policy.

Each pool autoscales independently through
:func:`~repro.dpp.autoscaler.scaling_decision`, keyed on its own
*output* queue: a starved downstream queue means this stage is the
bottleneck (launch); a full one with idle workers means excess
capacity (drain).  Every queue hop, work item, and control decision is
driven by the deterministic kernel, so a run is a pure function of
(config, seed).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ..common.errors import ConfigError
from ..common.simclock import SimClock
from ..datagen.serving import request_id_base
from ..dpp.autoscaler import AutoscalerConfig, scaling_decision
from ..dpp.master import ReplicatedMaster
from ..dpp.worker import DppWorker
from ..telemetry.tracer import NULL_TRACER, Tracer
from ..transforms.batch import FeatureBatch
from .kernel import Kernel, Queue, Task
from .report import PoolStats, QueueStats, ServingReport

#: The feeder's master registration (splits are requested and completed
#: under this id; extraction workers act on its behalf).
FEEDER_ID = "feeder"

ARRIVAL_MIXES = ("steady", "bursty")
FETCH_POLICIES = ("shed", "retry")

#: Bursty mix: the arrival rate alternates between these multipliers on
#: a fixed phase, modelling synchronized trainer step boundaries.
_BURST_HIGH = 1.8
_BURST_LOW = 0.4
_BURST_PHASE_S = 5.0


@dataclass(frozen=True)
class PlaneConfig:
    """Every serving-plane knob, in one frozen bundle."""

    seed: int = 0
    host: str = "serving-plane"
    arrival_mix: str = "steady"
    rate_per_s: float = 200.0
    n_requests: int = 2_000
    fetch_policy: str = "shed"
    max_retries: int = 3
    retry_backoff_s: float = 0.05
    backoff_multiplier: float = 2.0
    fetch_queue_bound: int = 64
    extract_queue_bound: int = 8
    transform_queue_bound: int = 16
    ready_queue_bound: int = 32
    extract_workers: int = 2
    transform_workers: int = 1
    autoscale: bool = True
    max_pool_workers: int = 8
    control_period_s: float = 1.0
    cycles_per_s: float = 5.0e6
    feeder_poll_s: float = 0.01

    def __post_init__(self) -> None:
        if self.arrival_mix not in ARRIVAL_MIXES:
            raise ConfigError(
                f"arrival mix must be one of {ARRIVAL_MIXES}, "
                f"got {self.arrival_mix!r}"
            )
        if self.fetch_policy not in FETCH_POLICIES:
            raise ConfigError(
                f"fetch policy must be one of {FETCH_POLICIES}, "
                f"got {self.fetch_policy!r}"
            )
        # Written as `not x > 0` so that nan fails the checks too.
        if not self.rate_per_s > 0 or self.n_requests < 1:
            raise ConfigError("serving needs a positive rate and request count")
        if self.extract_workers < 1 or self.transform_workers < 1:
            raise ConfigError("each pool needs at least one worker")
        if not self.cycles_per_s > 0:
            raise ConfigError("cycles_per_s must be positive")
        if self.max_retries < 0 or not self.retry_backoff_s > 0:
            raise ConfigError("retry policy needs backoff > 0 and retries >= 0")


# -- work items ----------------------------------------------------------------


@dataclass
class FetchRequest:
    """One trainer fetch: arrival-stamped, retry-counted."""

    request_id: int
    arrival_s: float
    attempts: int = 0


@dataclass
class ExtractTask:
    """Parent work item: one split of one epoch, bound for extraction."""

    task_id: str
    epoch: int
    split: object  # dpp.split.Split


@dataclass
class TransformTask:
    """Child work item: one extracted batch, carrying its provenance."""

    task_id: str
    parent_id: str
    epoch: int
    split_id: int
    sequence: int
    batch: FeatureBatch


# -- worker pools --------------------------------------------------------------


class _Member:
    """One pool worker: a DppWorker plus its coroutine's lifecycle."""

    __slots__ = ("name", "worker", "task", "busy", "draining", "retired")

    def __init__(self, name: str, worker: DppWorker) -> None:
        self.name = name
        self.worker: DppWorker | None = worker
        self.task: Task | None = None
        self.busy = False
        self.draining = False
        self.retired = False


class WorkerPool:
    """A role-split pool that autoscales on its own output queue.

    Each control period the pool feeds its size, its *output* queue
    depth per worker and its busy share to the DPP scaling rule:
    starved output means this stage bottlenecks the pipeline (launch);
    a full output queue with mostly-idle workers means excess capacity
    (drain).  Draining is graceful — the member finishes its current
    item; an idle (parked) member is cancelled outright, which is safe
    because ``busy`` is only False between items.
    """

    def __init__(
        self, plane: "ServingPlane", role: str, autoscaler: AutoscalerConfig
    ) -> None:
        self.plane = plane
        self.role = role
        self.autoscaler = autoscaler
        self.members: list[_Member] = []
        self.stats = PoolStats(role=role)
        self._ids = itertools.count()

    @property
    def active(self) -> list[_Member]:
        """Members still pulling work (launched, not draining/retired)."""
        return [
            m for m in self.members if not m.retired and not m.draining
        ]

    @property
    def size(self) -> int:
        return len(self.active)

    def launch(self) -> _Member:
        name = f"{self.role}-{next(self._ids)}"
        member = _Member(name, self.plane.build_worker(name))
        self.members.append(member)
        member.task = self.plane.kernel.spawn(
            self.plane.pool_loop(self, member), name
        )
        self.stats.launches += 1
        self.stats.peak = max(self.stats.peak, self.size)
        return member

    def drain_one(self) -> None:
        # Drain the youngest member (LIFO), matching scale-up order.
        for member in reversed(self.active):
            member.draining = True
            self.stats.drains += 1
            if not member.busy and member.task is not None:
                member.task.cancel()
                member.retired = True
            return

    def release(self) -> None:
        """Let go of every member's worker and task (plane teardown);
        the flags ``size`` counts from stay."""
        for member in self.members:
            member.worker = member.task = None

    def autoscale_tick(self, output_queue: Queue) -> int:
        n = self.size
        busy = sum(1 for m in self.active if m.busy)
        per_worker = output_queue.depth / n if n else 0.0
        utilization = busy / n if n else 0.0
        decision = scaling_decision(self.autoscaler, n, per_worker, utilization)
        if decision.delta > 0:
            for _ in range(decision.delta):
                self.launch()
        elif decision.delta < 0:
            for _ in range(-decision.delta):
                self.drain_one()
        if decision.delta and self.plane.tracer.enabled:
            self.plane.tracer.instant(
                "pool.scale",
                actor="plane",
                role=self.role,
                delta=decision.delta,
                action=decision.action,
            )
        return decision.delta


# -- the plane -----------------------------------------------------------------


class ServingPlane:
    """One open-loop serving load test over a published table."""

    def __init__(
        self,
        config: PlaneConfig,
        master: ReplicatedMaster,
        worker_factory,
        clock: SimClock | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config
        self.master = master
        self._worker_factory = worker_factory
        self.kernel = Kernel(clock)
        self.clock = self.kernel.clock
        self.tracer = tracer or NULL_TRACER
        if self.tracer.enabled:
            self.tracer.bind_clock(lambda: self.clock.now)
            master.attach_tracer(self.tracer)
        master.register_worker(FEEDER_ID)

        kernel = self.kernel
        self.fetch_queue = Queue(kernel, config.fetch_queue_bound, "fetch")
        self.extract_queue = Queue(kernel, config.extract_queue_bound, "extract")
        self.transform_queue = Queue(
            kernel, config.transform_queue_bound, "transform"
        )
        self.ready_queue = Queue(kernel, config.ready_queue_bound, "ready")
        self._queues = (
            self.fetch_queue,
            self.extract_queue,
            self.transform_queue,
            self.ready_queue,
        )
        self._depth_sums = {q.name: 0.0 for q in self._queues}
        self._depth_samples = 0

        pool_autoscaler = AutoscalerConfig(
            max_workers=config.max_pool_workers,
            scale_up_step=1,
        )
        self.extract_pool = WorkerPool(self, "extract", pool_autoscaler)
        self.transform_pool = WorkerPool(self, "transform", pool_autoscaler)

        # Outcome counters (all virtual-time; the report is pure).
        self.arrivals = 0
        self.served = 0
        self.shed = 0
        self.retries = 0
        self.epochs = 1
        self.batches_produced = 0
        self.latencies_s: list[float] = []
        self._done = False
        self._request_base = request_id_base(config.host)

    # -- construction hooks ----------------------------------------------------

    def build_worker(self, name: str) -> DppWorker:
        worker = self._worker_factory(name)
        worker.tracer = self.tracer
        return worker

    def pool_loop(self, pool: WorkerPool, member: _Member):
        if pool.role == "extract":
            return self._extract_loop(member)
        return self._transform_loop(member)

    # -- arrivals and admission ------------------------------------------------

    def _gap_s(self, rng: np.random.Generator) -> float:
        rate = self.config.rate_per_s
        if self.config.arrival_mix == "bursty":
            phase = (self.clock.now / _BURST_PHASE_S) % 2.0
            rate *= _BURST_HIGH if phase < 1.0 else _BURST_LOW
        return float(rng.exponential(1.0 / rate))

    async def _arrival_loop(self):
        rng = np.random.default_rng(self.config.seed)
        for index in range(self.config.n_requests):
            await self.kernel.sleep(self._gap_s(rng))
            self.arrivals += 1
            request = FetchRequest(
                request_id=self._request_base + index,
                arrival_s=self.clock.now,
            )
            self._admit(request)

    def _admit(self, request: FetchRequest) -> None:
        """Admission control: enqueue, retry with backoff, or shed."""
        if self.fetch_queue.try_put(request):
            return
        config = self.config
        if (
            config.fetch_policy == "retry"
            and request.attempts < config.max_retries
        ):
            delay = config.retry_backoff_s * (
                config.backoff_multiplier**request.attempts
            )
            request.attempts += 1
            self.retries += 1
            if self.tracer.enabled:
                self.tracer.instant(
                    "fetch.retry",
                    actor="admission",
                    request_id=request.request_id,
                    attempt=request.attempts,
                )
            self.clock.schedule(delay, lambda: self._admit(request))
            return
        self.shed += 1
        if self.tracer.enabled:
            self.tracer.instant(
                "fetch.shed",
                actor="admission",
                request_id=request.request_id,
                attempts=request.attempts,
            )
        self._check_done()

    # -- the data plane --------------------------------------------------------

    async def _feeder_loop(self):
        """Pull splits and enqueue extraction work, looping epochs."""
        while True:
            split = self.master.request_split(FEEDER_ID)
            if split is None:
                if self.master.done:
                    self.master.begin_epoch()
                    self.epochs += 1
                    continue
                # Splits are all in flight; wait for completions.
                await self.kernel.sleep(self.config.feeder_poll_s)
                continue
            task = ExtractTask(
                task_id=f"e{self.epochs}-s{split.split_id}",
                epoch=self.epochs,
                split=split,
            )
            await self.extract_queue.put(task)

    async def _charge(self, worker: DppWorker, cycles_before: float) -> float:
        """Advance virtual time by the cycles charged since *before*."""
        cycles = worker.stats.usage.cpu_cycles
        delta = cycles - cycles_before
        if delta > 0:
            await self.kernel.sleep(delta / self.config.cycles_per_s)
        return cycles

    async def _extract_loop(self, member: _Member):
        worker = member.worker
        traced = self.tracer.enabled
        while not member.draining:
            task = await self.extract_queue.get()
            member.busy = True
            if traced:
                self.tracer.begin(
                    "extract.split",
                    actor=member.name,
                    task_id=task.task_id,
                    split_id=task.split.split_id,
                    epoch=task.epoch,
                )
            cycles = worker.stats.usage.cpu_cycles
            sequence = 0
            for batch in worker.extract_batches(task.split):
                cycles = await self._charge(worker, cycles)
                child = TransformTask(
                    task_id=f"{task.task_id}-b{sequence}",
                    parent_id=task.task_id,
                    epoch=task.epoch,
                    split_id=task.split.split_id,
                    sequence=sequence,
                    batch=batch,
                )
                sequence += 1
                await self.transform_queue.put(child)
            if traced:
                self.tracer.end(actor=member.name)
            # Completion is reported under the feeder's registration:
            # extraction workers act on the feeder's split lease.
            self.master.complete_split(FEEDER_ID, task.split.split_id)
            member.busy = False
        member.retired = True

    async def _transform_loop(self, member: _Member):
        worker = member.worker
        traced = self.tracer.enabled
        while not member.draining:
            item = await self.transform_queue.get()
            member.busy = True
            if traced:
                self.tracer.begin(
                    "transform.batch",
                    actor=member.name,
                    task_id=item.task_id,
                    parent_id=item.parent_id,
                    split_id=item.split_id,
                    sequence=item.sequence,
                )
            cycles = worker.stats.usage.cpu_cycles
            worker.transform_batch(item.batch)
            await self._charge(worker, cycles)
            tensors = worker.tensorize(item.batch, item.split_id, item.sequence)
            if traced:
                self.tracer.end(actor=member.name)
            self.batches_produced += 1
            await self.ready_queue.put(tensors)
            member.busy = False
        member.retired = True

    async def _dispatch_loop(self):
        """Pair admitted fetch requests with ready tensor batches."""
        traced = self.tracer.enabled
        while True:
            request = await self.fetch_queue.get()
            await self.ready_queue.get()
            latency = self.clock.now - request.arrival_s
            self.latencies_s.append(latency)
            self.served += 1
            if traced:
                self.tracer.instant(
                    "fetch.serve",
                    actor="dispatcher",
                    request_id=request.request_id,
                    latency_ms=1_000.0 * latency,
                )
            self._check_done()

    def _check_done(self) -> None:
        if (
            not self._done
            and self.arrivals == self.config.n_requests
            and self.served + self.shed == self.config.n_requests
        ):
            self._done = True

    # -- the control loop ------------------------------------------------------

    def _control_tick(self) -> None:
        if self._done:
            return
        self._depth_samples += 1
        traced = self.tracer.enabled
        for queue in self._queues:
            self._depth_sums[queue.name] += queue.depth
            if traced:
                self.tracer.counter(
                    f"serving.{queue.name}_queue.depth", queue.depth,
                    actor="plane",
                )
        if self.config.autoscale:
            self.extract_pool.autoscale_tick(self.transform_queue)
            self.transform_pool.autoscale_tick(self.ready_queue)

    # -- execution -------------------------------------------------------------

    def run(self) -> ServingReport:
        """Drive the load test to completion and seal the report."""
        config = self.config
        kernel = self.kernel
        for _ in range(config.extract_workers):
            self.extract_pool.launch()
        for _ in range(config.transform_workers):
            self.transform_pool.launch()
        self.extract_pool.stats.initial = config.extract_workers
        self.transform_pool.stats.initial = config.transform_workers
        kernel.spawn(self._feeder_loop(), "feeder")
        kernel.spawn(self._dispatch_loop(), "dispatcher")
        kernel.spawn(self._arrival_loop(), "arrivals")
        control = self.clock.every(config.control_period_s, self._control_tick)
        try:
            kernel.run(until=lambda: self._done)
        finally:
            control.cancel()
            # Release what a finished plane no longer needs, so workers,
            # readers and queued batches go when the caller lets go and
            # not when the cycle collector next runs.  What _seal reads
            # (pool sizes and stats, queue peaks, latencies) stays.
            kernel.cancel_all()
            for queue in self._queues:
                queue.clear()
            self.extract_pool.release()
            self.transform_pool.release()
        return self._seal()

    def _seal(self) -> ServingReport:
        duration = self.clock.now
        samples = self._depth_samples
        queues = [
            QueueStats(
                name=queue.name,
                peak_depth=queue.peak_depth,
                mean_depth=(
                    self._depth_sums[queue.name] / samples if samples else 0.0
                ),
                total_enqueued=queue.total_enqueued,
            )
            for queue in self._queues
        ]
        for pool in (self.extract_pool, self.transform_pool):
            pool.stats.final = pool.size
            pool.stats.peak = max(pool.stats.peak, pool.size)
        return ServingReport.from_latencies(
            self.latencies_s,
            arrivals=self.arrivals,
            served=self.served,
            shed=self.shed,
            retries=self.retries,
            epochs=self.epochs,
            batches_produced=self.batches_produced,
            duration_s=duration,
            requests_per_s=self.served / duration if duration > 0 else 0.0,
            queues=queues,
            pools=[self.extract_pool.stats, self.transform_pool.stats],
        )
