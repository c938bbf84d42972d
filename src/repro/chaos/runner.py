"""Scenario runners: drive sessions through fault schedules.

:class:`ChaosRunner` drives a session one
:meth:`~repro.dpp.service.DppSession.pump_round` at a time — the same
fair round-robin scheduler :meth:`~repro.dpp.service.DppSession.pump`
runs — injecting the schedule's due faults before each round and
recording every delivered batch's provenance.  After the run it
evaluates the delivery invariants (:mod:`repro.chaos.invariants`) and
returns a :class:`~repro.chaos.report.ChaosReport`.

:func:`schedule_fleet_faults` is the fleet-scale counterpart: it pins
fault events to virtual time on a :class:`~repro.fleet.simulator.FleetSimulator`'s
clock — worker churn inside tenant jobs, region-wide Tectonic
degradation — using the simulator's public fault-injection hooks.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING

from ..common.errors import ConfigError, DppError
from ..dpp.service import DppSession
from ..telemetry.tracer import NULL_TRACER, Tracer
from .faults import FLEET_FAULT_KINDS, FaultEvent, FaultKind, FaultSchedule
from .invariants import (
    check_checkpoint_agreement,
    check_delivery,
    check_no_stranded,
    check_split_set_determinism,
    expected_deliveries,
)
from .report import ChaosReport, DeliveryRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..fleet.simulator import FleetSimulator


class ChaosRunner:
    """Runs one DPP session to completion under a fault schedule."""

    def __init__(
        self,
        session: DppSession,
        schedule: FaultSchedule,
        scenario: str = "chaos",
        allow_replays: bool | None = None,
        seed: int = 0,
        max_rounds: int = 100_000,
        client_batches_per_round: int | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        """*allow_replays* defaults to whatever the schedule implies:
        crash and restart faults legitimately replay batches
        (at-least-once); drain/failover/scale schedules must stay
        exactly-once.  *seed* only randomizes victim selection.

        *client_batches_per_round* throttles consumption (slow
        trainers): buffers stay backlogged across rounds, so crashes
        land on workers holding completed-but-unserved batches — the
        stranding scenario the provenance requeue exists for.
        Unthrottled clients drain everything each round and crashes
        mostly hit empty buffers.
        """
        if client_batches_per_round is not None and client_batches_per_round < 1:
            raise DppError("client_batches_per_round must be positive")
        self.session = session
        self.schedule = schedule
        self.scenario = scenario
        self.allow_replays = (
            schedule.allows_replays() if allow_replays is None else allow_replays
        )
        self.max_rounds = max_rounds
        self.client_batches_per_round = client_batches_per_round
        self._rng = random.Random(seed)
        # The chaos pump has no wall clock; its virtual time axis is
        # the round index, so spans span whole rounds.
        self._round = 0
        self.tracer = tracer or NULL_TRACER
        if self.tracer.enabled:
            self.tracer.bind_clock(lambda: float(self._round))
            session.attach_tracer(self.tracer)

    # -- fault application ----------------------------------------------------

    def _survivors(self) -> list:
        """Live workers with no crash pending — armed workers are dead
        workers walking and must not count toward the keep-one-alive
        guard, or an armed crash firing after a direct kill could
        leave the session with zero live workers."""
        return [w for w in self.session.live_workers if not w.crash_armed]

    def _apply(self, event: FaultEvent, report: ChaosReport) -> None:
        session = self.session
        kind = event.kind
        note = event.describe()
        if kind is FaultKind.WORKER_CRASH:
            victims = self._survivors()
            if len(victims) > 1:
                self._rng.choice(victims).fail()
            else:
                note += " [skipped: last live worker]"
        elif kind is FaultKind.WORKER_CRASH_MID_SPLIT:
            victims = self._survivors()
            if len(victims) > 1:
                self._rng.choice(victims).inject_crash(
                    after_batches=max(1, int(event.magnitude))
                )
            else:
                note += " [skipped: last live worker]"
        elif kind is FaultKind.WORKER_DRAIN:
            count = min(int(event.magnitude), len(self._survivors()) - 1)
            if count > 0:
                session.scale(-count)
            else:
                note += " [skipped: last live worker]"
        elif kind is FaultKind.SCALE_UP:
            session.scale(+max(1, int(event.magnitude)))
        elif kind is FaultKind.MASTER_FAILOVER:
            session.master.fail_over()
        elif kind is FaultKind.MASTER_RESTART:
            self._restart_master(report)
        elif kind in (FaultKind.DEGRADE_STORAGE, FaultKind.RESTORE_STORAGE):
            # A session reads its filesystem at no granted rate; storage
            # degradation is a fleet-plane fault (schedule_fleet_faults).
            note += " [skipped: filesystem is not rate-limited]"
        else:  # pragma: no cover - exhaustive over FaultKind
            raise DppError(f"unhandled fault kind {kind}")
        report.faults_injected.append(note)
        if self.tracer.enabled:
            self.tracer.instant(
                "fault.inject", actor="chaos", kind=kind.value, note=note
            )

    def _restart_master(self, report: ChaosReport) -> None:
        """Simulate a master-process restart and verify recovery
        determinism: the rebuilt master must replan the identical split
        set and agree byte-for-byte with the checkpoint it restored."""
        session = self.session
        before = session.master.primary
        checkpoint = session.master.checkpoint()
        session.restart_master()
        report.violations.extend(
            check_split_set_determinism(before, session.master.primary)
        )
        report.violations.extend(
            check_checkpoint_agreement(session.master.primary, checkpoint)
        )

    # -- the run --------------------------------------------------------------

    def run(self) -> ChaosReport:
        """Drive the session to completion, injecting and checking."""
        session = self.session
        expected = expected_deliveries(session)
        report = ChaosReport(
            scenario=self.scenario,
            rounds=0,
            allow_replays=self.allow_replays,
            expected_batches=len(expected),
        )
        records = report.records
        tracer = self.tracer
        traced = tracer.enabled
        for round_index in range(self.max_rounds):
            self._round = round_index
            if traced:
                tracer.begin("chaos.round", actor="chaos", round=round_index)
            for event in self.schedule.due(round_index):
                self._apply(event, report)
            deliveries = session.pump_round(self.client_batches_per_round)
            if deliveries is None:
                report.rounds = round_index
                if traced:
                    # Completion check only — a zero-duration round.
                    tracer.end(actor="chaos")
                break
            for client_id, batch in deliveries:
                if batch.split_id is None:
                    raise DppError("delivered batch lacks split provenance")
                records.append(
                    DeliveryRecord(
                        round_index=round_index,
                        client_id=client_id,
                        split_id=batch.split_id,
                        sequence=batch.sequence,
                        n_rows=batch.n_rows,
                    )
                )
            if traced:
                tracer.counter("chaos.delivered", len(records), actor="chaos")
                self._round = round_index + 1
                tracer.end(actor="chaos")
        else:
            raise DppError("chaos run exceeded max_rounds")
        report.violations.extend(
            check_delivery(expected, records, self.allow_replays)
        )
        report.violations.extend(check_no_stranded(session))
        return report


# -- fleet-scale chaos ---------------------------------------------------------


def schedule_fleet_faults(
    simulator: "FleetSimulator",
    faults: list[FaultEvent],
    job_ids: list[int],
) -> None:
    """Pin fault events to a fleet simulator's virtual clock.

    ``round_index`` is reinterpreted as *seconds* of virtual time from
    now.  Worker crashes hit the job drawn round-robin from *job_ids*;
    storage events hit the shared fabric.  A traced run records each
    one as it fires (``fault.worker_crash`` and ``broker.derate``
    instants).

    Only :data:`FLEET_FAULT_KINDS` are accepted: per-session faults
    (drains, failovers, restarts) belong to :class:`ChaosRunner`.
    """
    unsupported = {f.kind for f in faults} - FLEET_FAULT_KINDS
    if unsupported:
        raise ConfigError(
            f"fleet chaos supports {sorted(k.value for k in FLEET_FAULT_KINDS)}; "
            f"got {sorted(k.value for k in unsupported)}"
        )
    if not job_ids:
        raise ConfigError("fleet chaos needs at least one target job id")

    def fire(fault: FaultEvent, target_job: int) -> None:
        if fault.kind is FaultKind.WORKER_CRASH:
            simulator.inject_worker_crash(target_job, max(1, int(fault.magnitude)))
        elif fault.kind is FaultKind.DEGRADE_STORAGE:
            simulator.degrade_storage(fault.magnitude)
        else:
            simulator.degrade_storage(1.0)

    for index, fault in enumerate(faults):
        target = job_ids[index % len(job_ids)]
        simulator.pin(
            simulator.clock.now + fault.round_index,
            lambda f=fault, j=target: fire(f, j),
        )
