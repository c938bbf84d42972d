"""Closed-loop DPP simulation: the auto-scaler against live demand.

The executable session (:mod:`repro.dpp.service`) is untimed — a fair
round-robin pump. This module adds the *temporal* half of Section
3.2.1: workers produce tensor batches at their model's achievable QPS,
trainers consume at GPU demand, a shared buffer absorbs transients, and
the controller evaluates periodically on virtual time.  It answers the
questions the paper's controller was built for: how fast do stalls
disappear after a scale-up, and how much capacity does right-sizing
save versus worst-case provisioning.

Worker launches take time (container scheduling + transform-module
pull), so scale-ups do not help instantly — the reason workers keep "a
small buffer of tensors" in memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ..common.errors import DppError
from ..common.serialization import (
    ReportBase,
    record_from_row,
    record_row,
    record_rows,
    rows_of,
)
from ..common.simclock import SimClock
from ..telemetry.tracer import NULL_TRACER, Tracer
from .autoscaler import AutoscalerConfig, scaling_decision


@dataclass(frozen=True)
class SimulationConfig:
    """Rates and control-loop settings for a timed session."""

    worker_batches_per_s: float  # one worker's steady output
    trainer_batches_per_s: float  # the GPU fleet's consumption demand
    initial_workers: int = 1
    worker_spinup_s: float = 30.0
    controller_period_s: float = 10.0
    tick_s: float = 1.0
    buffer_capacity_batches: int = 10_000
    autoscaler: AutoscalerConfig = field(default_factory=AutoscalerConfig)

    def __post_init__(self) -> None:
        if self.worker_batches_per_s <= 0 or self.trainer_batches_per_s <= 0:
            raise DppError("rates must be positive")
        if self.initial_workers < 1:
            raise DppError("need at least one initial worker")
        if self.tick_s <= 0 or self.controller_period_s <= 0:
            raise DppError("time steps must be positive")

    @property
    def workers_required(self) -> float:
        """Fleet size that exactly matches trainer demand."""
        return self.trainer_batches_per_s / self.worker_batches_per_s


@dataclass
class SimTickSample:
    """One tick's observation of the closed loop."""

    time_s: float
    live_workers: int
    pending_workers: int
    buffered_batches: float
    produced: float
    consumed: float
    stalled: bool


@dataclass
class SimulationResult(ReportBase):
    """Full trace plus summary statistics."""

    report_kind = "dpp"

    samples: list[SimTickSample]
    scaling_decisions: list[str]

    def payload(self) -> dict:
        return record_row(self, samples=record_rows)

    @classmethod
    def from_payload(cls, payload: dict) -> "SimulationResult":
        return record_from_row(
            cls,
            payload,
            "dpp simulation report",
            samples=rows_of(SimTickSample, "dpp tick sample"),
        )

    def metrics(self) -> dict[str, float]:
        return {
            "dpp.ticks": float(len(self.samples)),
            "dpp.stall_fraction": (
                self.stall_fraction if self.samples else math.nan
            ),
            "dpp.peak_workers": (
                float(self.peak_workers) if self.samples else math.nan
            ),
            "dpp.final_workers": (
                float(self.final_workers) if self.samples else math.nan
            ),
            "dpp.scaling_decisions": float(len(self.scaling_decisions)),
        }

    @property
    def stall_fraction(self) -> float:
        """Fraction of ticks in which trainers were starved."""
        if not self.samples:
            raise DppError("empty simulation")
        return sum(1 for s in self.samples if s.stalled) / len(self.samples)

    def stall_fraction_after(self, time_s: float) -> float:
        """Stall fraction over ticks at or after *time_s*."""
        tail = [s for s in self.samples if s.time_s >= time_s]
        if not tail:
            raise DppError("no samples after requested time")
        return sum(1 for s in tail if s.stalled) / len(tail)

    @property
    def peak_workers(self) -> int:
        """Largest live fleet seen."""
        return max(s.live_workers for s in self.samples)

    @property
    def final_workers(self) -> int:
        """Fleet size at the end of the run."""
        return self.samples[-1].live_workers


class TimedDppSimulation:
    """Fluid-flow simulation of one session's buffer dynamics.

    By default each simulation owns a private :class:`SimClock`; a
    fleet-level harness can instead pass a *shared* clock so many
    sessions advance in lockstep on one event heap (see
    :mod:`repro.fleet`), scheduling via :meth:`schedule` and driving
    the clock itself.
    """

    def __init__(
        self,
        config: SimulationConfig,
        clock: SimClock | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.config = config
        self.clock = clock or SimClock()
        self.tracer = tracer or NULL_TRACER
        if self.tracer.enabled:
            clock = self.clock  # not self: a tracer outlives its run
            self.tracer.bind_clock(lambda: clock.now)
        self._live_workers = config.initial_workers
        self._pending: list[float] = []  # spin-up completion times
        self._buffer = 0.0
        self._samples: list[SimTickSample] = []
        self._decisions: list[str] = []

    # -- dynamics ------------------------------------------------------------

    def _tick(self) -> None:
        config = self.config
        now = self.clock.now
        # Complete any worker launches that finished spinning up (skip
        # the rebuild entirely on the common no-launches-in-flight tick).
        if self._pending:
            ready = [t for t in self._pending if t <= now]
            if ready:
                self._pending = [t for t in self._pending if t > now]
                self._live_workers += len(ready)

        produced = self._live_workers * config.worker_batches_per_s * config.tick_s
        demand = config.trainer_batches_per_s * config.tick_s
        available = self._buffer + produced
        consumed = min(demand, available)
        stalled = consumed < demand - 1e-9
        self._buffer = min(
            available - consumed, float(config.buffer_capacity_batches)
        )
        self._samples.append(
            SimTickSample(
                time_s=now,
                live_workers=self._live_workers,
                pending_workers=len(self._pending),
                buffered_batches=self._buffer,
                produced=produced,
                consumed=consumed,
                stalled=stalled,
            )
        )
        tracer = self.tracer
        if tracer.enabled:
            tracer.counter("dpp.buffered_batches", self._buffer, actor="session")
            tracer.counter("dpp.live_workers", self._live_workers, actor="session")
            if stalled:
                tracer.instant(
                    "trainer.stall", actor="session", shortfall=demand - consumed
                )

    def _controller_step(self) -> None:
        config = self.config
        per_worker_buffer = (
            self._buffer / self._live_workers if self._live_workers else 0.0
        )
        utilization = min(
            1.0,
            config.trainer_batches_per_s
            / max(self._live_workers * config.worker_batches_per_s, 1e-9),
        )
        decision = scaling_decision(
            config.autoscaler,
            self._live_workers,
            int(per_worker_buffer),
            utilization,
        )
        if decision.delta > 0:
            # The controller caps on live workers; in-flight launches
            # also count against the fleet ceiling.
            headroom = config.autoscaler.max_workers - (
                self._live_workers + len(self._pending)
            )
            launched = min(decision.delta, max(0, headroom))
            for _ in range(launched):
                self._pending.append(self.clock.now + config.worker_spinup_s)
            self._decisions.append(
                f"t={self.clock.now:.0f}s launch {decision.delta}: {decision.reason}"
            )
            if self.tracer.enabled:
                self.tracer.instant(
                    "session.scale", actor="session", delta=launched
                )
        elif decision.delta < 0:
            drain = min(-decision.delta, self._live_workers - 1)
            self._live_workers -= drain
            if drain:
                self._decisions.append(
                    f"t={self.clock.now:.0f}s drain {drain}: {decision.reason}"
                )
                if self.tracer.enabled:
                    self.tracer.instant(
                        "session.scale", actor="session", delta=-drain
                    )

    # -- fault injection -------------------------------------------------------

    def inject_worker_loss(self, count: int) -> None:
        """Kill *count* live workers instantly (chaos-plane churn).

        The controller sees the shrunken fleet at its next evaluation
        and relaunches — the closed loop's recovery-time question.  At
        least one worker always survives so the loop stays defined.
        """
        if count < 0:
            raise DppError("cannot lose a negative number of workers")
        lost = self._live_workers - max(1, self._live_workers - count)
        self._live_workers -= lost
        if self.tracer.enabled:
            self.tracer.instant("worker.loss", actor="session", lost=lost)

    # -- driver ----------------------------------------------------------------

    def schedule(self, duration_s: float) -> None:
        """Register this session's processes on the clock without running.

        Used when the clock is shared: each session schedules its tick
        and controller processes, then one external driver advances the
        common clock.  The processes stop ``duration_s`` after the
        current virtual time.
        """
        config = self.config
        until = self.clock.now + duration_s
        self.clock.every(config.tick_s, self._tick, until=until)
        self.clock.every(
            config.controller_period_s, self._controller_step, until=until
        )

    def result(self) -> SimulationResult:
        """The trace accumulated so far (for externally driven clocks)."""
        return SimulationResult(self._samples, self._decisions)

    def run(self, duration_s: float) -> SimulationResult:
        """Run the closed loop for *duration_s* of virtual time."""
        deadline = self.clock.now + duration_s
        self.schedule(duration_s)
        self.clock.run_until(deadline)
        return self.result()
