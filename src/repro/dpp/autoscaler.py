"""The auto-scaling rule of the DPP Master.

Section 3.2.1: the controller "collects utilization (CPU, memory, and
network) statistics and the number of buffered tensors from each DPP
Worker.  It then periodically evaluates scaling decisions, calculating
the number of DPP Workers to either drain or launch with the goal of
maintaining a non-zero number of buffered tensors ... and maximum CPU,
network, and memory utilization."

:func:`scaling_decision` is that evaluation, over a pool's aggregates:
its live-worker count, its buffered tensors per worker and its mean
utilization.  Every plane calls it once per control period — the
session, the serving pools, the timed simulation and the fleet.  The
executable session measures only CPU (cycles relative to its busiest
worker); no plane models memory or network utilization, so the mean
utilization is the mean CPU utilization.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..common.errors import DppError


@dataclass(frozen=True)
class AutoscalerConfig:
    """Controller policy knobs.

    The controller scales *up* when buffers run dry (trainers are about
    to stall) and *drains* workers when buffers are comfortably full
    while the fleet runs underutilized (wasted capacity).
    """

    min_buffered_per_worker: float = 1.0
    drain_buffered_per_worker: float = 6.0
    low_utilization: float = 0.5
    scale_up_step: int = 2
    drain_step: int = 1
    min_workers: int = 1
    max_workers: int = 1_000

    def __post_init__(self) -> None:
        if self.min_buffered_per_worker < 0:
            raise DppError("min_buffered_per_worker cannot be negative")
        if self.drain_buffered_per_worker <= self.min_buffered_per_worker:
            raise DppError("drain threshold must exceed the scale-up threshold")
        if not 0 < self.low_utilization < 1:
            raise DppError("low_utilization must be in (0, 1)")
        if self.min_workers < 1 or self.max_workers < self.min_workers:
            raise DppError("invalid worker count bounds")
        if self.scale_up_step < 1 or self.drain_step < 1:
            raise DppError("steps must be at least 1")


@dataclass(frozen=True)
class ScalingDecision:
    """Outcome of one controller evaluation."""

    delta: int  # >0 launch, <0 drain, 0 hold
    reason: str

    @property
    def action(self) -> str:
        """'launch', 'drain', or 'hold'."""
        if self.delta > 0:
            return "launch"
        if self.delta < 0:
            return "drain"
        return "hold"


#: The steady-state outcome, shared across evaluations (immutable).
_HOLD = ScalingDecision(0, "buffers and utilization in band")


def scaling_decision(
    config: AutoscalerConfig,
    n_workers: int,
    buffered_per_worker: float,
    utilization: float,
) -> ScalingDecision:
    """One control-loop evaluation of a pool's aggregates.

    Launch when buffers run dry (up to ``max_workers``: a pool at or
    above its cap holds), drain when buffers are full while the pool
    runs underutilized (down to ``min_workers``), hold otherwise.  A
    negative *utilization* counts as zero.
    """
    if n_workers <= 0:
        return ScalingDecision(config.scale_up_step, "no live workers")
    utilization = max(utilization, 0.0)
    if (
        buffered_per_worker >= config.min_buffered_per_worker
        and (
            buffered_per_worker <= config.drain_buffered_per_worker
            or utilization >= config.low_utilization
            or n_workers <= config.min_workers
        )
    ):
        # Steady state: every healthy pool takes this branch on almost
        # every evaluation, so it shares one immutable decision instead
        # of formatting a fresh one each period.
        return _HOLD
    if buffered_per_worker < config.min_buffered_per_worker:
        return ScalingDecision(
            min(config.scale_up_step, max(0, config.max_workers - n_workers)),
            f"buffers low ({buffered_per_worker:.2f}/worker): trainers at risk of stalls",
        )
    return ScalingDecision(
        -min(config.drain_step, n_workers - config.min_workers),
        f"buffers full ({buffered_per_worker:.2f}/worker) and fleet "
        f"underutilized ({utilization:.0%})",
    )
