"""Unit coverage for fault schedules and invariant checkers."""

from types import SimpleNamespace

import pytest

from repro.chaos import (
    FaultEvent,
    FaultKind,
    FaultSchedule,
    check_delivery,
    check_no_stranded,
    seeded_schedule,
)
from repro.chaos.report import DeliveryRecord
from repro.common.errors import DppError


def record(split_id, sequence, n_rows=64):
    return DeliveryRecord(
        round_index=0,
        client_id="c0",
        split_id=split_id,
        sequence=sequence,
        n_rows=n_rows,
    )


class TestFaultSchedule:
    def test_events_sorted_by_round(self):
        schedule = FaultSchedule(
            [
                FaultEvent(5, FaultKind.SCALE_UP),
                FaultEvent(1, FaultKind.WORKER_CRASH),
            ]
        )
        assert [e.round_index for e in schedule.events] == [1, 5]
        assert schedule.events[-1].round_index == 5
        assert len(schedule.due(1)) == 1
        assert not schedule.due(2)

    def test_replay_classification(self):
        assert FaultSchedule([FaultEvent(0, FaultKind.WORKER_CRASH)]).allows_replays()
        assert not FaultSchedule(
            [FaultEvent(0, FaultKind.WORKER_DRAIN)]
        ).allows_replays()

    def test_validation(self):
        with pytest.raises(DppError):
            FaultEvent(-1, FaultKind.SCALE_UP)
        with pytest.raises(DppError):
            FaultEvent(0, FaultKind.DEGRADE_STORAGE, magnitude=1.5)

    def test_seeded_schedule_is_deterministic(self):
        assert seeded_schedule(7).events == seeded_schedule(7).events
        assert seeded_schedule(7).events != seeded_schedule(8).events

    def test_seeded_schedule_validation(self):
        with pytest.raises(DppError):
            seeded_schedule(0, n_faults=0)


class TestDeliveryChecker:
    EXPECTED = {(0, 0): 64, (0, 1): 32, (1, 0): 64}

    def test_clean_exactly_once(self):
        records = [record(0, 0), record(0, 1, 32), record(1, 0)]
        assert check_delivery(self.EXPECTED, records, allow_replays=False) == []

    def test_lost_batch_detected(self):
        records = [record(0, 0), record(1, 0)]
        violations = check_delivery(self.EXPECTED, records, allow_replays=True)
        assert [v.invariant for v in violations] == ["lost-batch"]

    def test_duplicate_detected_only_when_exactly_once(self):
        records = [record(0, 0), record(0, 0), record(0, 1, 32), record(1, 0)]
        strict = check_delivery(self.EXPECTED, records, allow_replays=False)
        assert [v.invariant for v in strict] == ["duplicate-delivery"]
        assert check_delivery(self.EXPECTED, records, allow_replays=True) == []

    def test_phantom_and_row_count_detected(self):
        records = [
            record(9, 9),
            record(0, 0, n_rows=1),
            record(0, 1, 32),
            record(1, 0),
        ]
        violations = check_delivery(self.EXPECTED, records, allow_replays=True)
        assert {v.invariant for v in violations} == {"phantom-batch", "row-count"}


class TestCheckpointAgreement:
    def test_dangling_checkpoint_detected(self, published):
        """Regression: a checkpoint referencing a split the restored
        master never planned must raise the dangling-checkpoint
        violation (the salted-hash drift signature)."""
        from repro.chaos import check_checkpoint_agreement
        from repro.dpp.master import DppMaster, MasterCheckpoint

        from ..dpp.test_split_master import path_spec_and_files

        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers)
        master = DppMaster(spec, files)
        dangling = MasterCheckpoint(
            spec.table_name, frozenset({max(master.split_ids) + 99})
        )
        violations = check_checkpoint_agreement(master, dangling)
        assert "dangling-checkpoint" in {v.invariant for v in violations}

    def test_agreeing_restore_passes(self, published):
        from repro.chaos import check_checkpoint_agreement
        from repro.dpp.master import DppMaster

        from ..dpp.test_split_master import path_spec_and_files

        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers)
        master = DppMaster(spec, files)
        master.register_worker("w0")
        split = master.request_split("w0")
        master.complete_split("w0", split.split_id)
        checkpoint = master.checkpoint()
        fresh = DppMaster(spec, files)
        fresh.restore(checkpoint)
        assert check_checkpoint_agreement(fresh, checkpoint) == []


class TestStrandingChecker:
    @staticmethod
    def worker(worker_id, alive=True, draining=False, buffered=0):
        return SimpleNamespace(
            worker_id=worker_id,
            alive=alive,
            draining=draining,
            buffer=[object()] * buffered,
        )

    def test_dead_worker_with_buffer_flagged(self):
        session = SimpleNamespace(
            workers=[self.worker("w0", alive=False, buffered=2)]
        )
        violations = check_no_stranded(session)
        assert [v.invariant for v in violations] == ["stranded-buffer"]

    def test_draining_worker_with_buffer_flagged(self):
        session = SimpleNamespace(
            workers=[self.worker("w0", draining=True, buffered=1)]
        )
        assert check_no_stranded(session)

    def test_clean_fleet_passes(self):
        session = SimpleNamespace(
            workers=[
                self.worker("w0"),
                self.worker("w1", alive=False),
                self.worker("w2", alive=True, buffered=3),
            ]
        )
        assert check_no_stranded(session) == []
