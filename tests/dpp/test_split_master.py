"""Split planning and the DPP master's control plane."""

import pytest
from hypothesis import given, strategies as st

from repro.common.errors import DppError
from repro.dpp import DppMaster, ReplicatedMaster, SplitState, plan_splits
from repro.dpp.split import Split
from repro.warehouse import partition_file_name

from .conftest import make_spec


def path_spec_and_files(schema, footers, **overrides):
    """Translate the partition-named fixture into path-keyed form."""
    spec = make_spec(schema, **overrides)
    files = {
        partition_file_name(spec.table_name, p): footers[p] for p in spec.partitions
    }
    path_spec = make_spec(
        schema,
        partitions=tuple(partition_file_name(spec.table_name, p) for p in spec.partitions),
        **{k: v for k, v in overrides.items() if k != "partitions"},
    )
    return path_spec, files


class TestSplitPlanning:
    def test_splits_cover_all_rows_once(self, published):
        _, schema, footers, table = published
        spec, files = path_spec_and_files(schema, footers)
        splits = plan_splits(files, split_stripes=1)
        assert sum(s.row_count for s in splits) == table.total_rows()
        ids = [s.split_id for s in splits]
        assert ids == sorted(set(ids))

    def test_stripe_ranges_disjoint_within_file(self, published):
        _, schema, footers, _ = published
        _, files = path_spec_and_files(schema, footers)
        splits = plan_splits(files, split_stripes=2)
        by_file: dict[str, list[Split]] = {}
        for split in splits:
            by_file.setdefault(split.file_name, []).append(split)
        for file_splits in by_file.values():
            cursor = 0
            for split in file_splits:
                assert split.stripe_start == cursor
                cursor = split.stripe_end

    @given(st.integers(min_value=1, max_value=10))
    def test_any_granularity_covers_everything(self, stripes_per_split):
        # Build synthetic footers via the real fixture machinery is
        # heavy under hypothesis; validate invariants on Split instead.
        split = Split(0, "f", 0, stripes_per_split, stripes_per_split * 10)
        assert split.stripe_end - split.stripe_start == stripes_per_split

    def test_invalid_split_rejected(self):
        with pytest.raises(DppError):
            Split(0, "f", 2, 2, 10)
        with pytest.raises(DppError):
            Split(0, "f", 0, 1, 0)


class TestMasterProtocol:
    def test_lifecycle(self, published):
        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers)
        master = DppMaster(spec, files)
        master.register_worker("w0")
        done = 0
        while True:
            split = master.request_split("w0")
            if split is None:
                break
            master.complete_split("w0", split.split_id)
            done += 1
        assert done == master.total_splits
        assert master.done
        assert master.progress == 1.0

    def test_unregistered_worker_rejected(self, published):
        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers)
        master = DppMaster(spec, files)
        with pytest.raises(DppError):
            master.request_split("ghost")

    def test_completion_requires_ownership(self, published):
        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers)
        master = DppMaster(spec, files)
        master.register_worker("w0")
        master.register_worker("w1")
        split = master.request_split("w0")
        with pytest.raises(DppError):
            master.complete_split("w1", split.split_id)

    def test_missing_partition_rejected(self, published):
        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers)
        with pytest.raises(DppError):
            DppMaster(spec, dict(list(files.items())[:1]))

    def test_worker_failure_requeues_in_flight(self, published):
        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers)
        master = DppMaster(spec, files)
        master.register_worker("w0")
        split = master.request_split("w0")
        assert master.assigned_splits == 1
        requeued = master.worker_failed("w0")
        assert requeued == [split.split_id]
        assert master.assigned_splits == 0
        # Another worker picks the same split back up.
        master.register_worker("w1")
        again = master.request_split("w1")
        assert again.split_id == split.split_id

    def test_completed_splits_survive_worker_failure(self, published):
        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers)
        master = DppMaster(spec, files)
        master.register_worker("w0")
        split = master.request_split("w0")
        master.complete_split("w0", split.split_id)
        master.worker_failed("w0")
        assert master.completed_splits == 1

    def test_stranded_completed_splits_reopen(self, published):
        """A completed split whose batches died unserved in the
        worker's buffer is reopened, not lost (ISSUE 3 tentpole)."""
        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers)
        master = DppMaster(spec, files)
        master.register_worker("w0")
        served = master.request_split("w0")
        master.complete_split("w0", served.split_id)
        stranded = master.request_split("w0")
        master.complete_split("w0", stranded.split_id)
        requeued = master.worker_failed(
            "w0", stranded_split_ids=[stranded.split_id]
        )
        assert requeued == [stranded.split_id]
        assert master.completed_splits == 1
        master.register_worker("w1")
        assert master.request_split("w1").split_id == stranded.split_id

    def test_stranded_ids_tolerate_non_completed_states(self, published):
        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers)
        master = DppMaster(spec, files)
        master.register_worker("w0")
        assigned = master.request_split("w0")
        # Reporting an ASSIGNED split as stranded must not double-requeue.
        requeued = master.worker_failed(
            "w0", stranded_split_ids=[assigned.split_id]
        )
        assert requeued == [assigned.split_id]
        assert master.pending_splits == master.total_splits


class TestCheckpointing:
    def test_checkpoint_restore_round_trip(self, published):
        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers)
        master = DppMaster(spec, files)
        master.register_worker("w0")
        for _ in range(2):
            split = master.request_split("w0")
            master.complete_split("w0", split.split_id)
        checkpoint = master.checkpoint()

        fresh = DppMaster(spec, files)
        fresh.restore(checkpoint)
        assert fresh.completed_splits == 2
        assert fresh.pending_splits == fresh.total_splits - 2

    def test_restore_requeues_in_flight(self, published):
        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers)
        master = DppMaster(spec, files)
        master.register_worker("w0")
        master.request_split("w0")  # in flight, never completed
        checkpoint = master.checkpoint()
        master.restore(checkpoint)
        assert master.assigned_splits == 0
        assert master.pending_splits == master.total_splits

    def test_foreign_checkpoint_rejected(self, published):
        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers)
        master = DppMaster(spec, files)
        checkpoint = master.checkpoint()
        other = DppMaster(
            make_spec(schema, table_name="other",
                      partitions=tuple(files)), files
        )
        with pytest.raises(DppError):
            other.restore(checkpoint)


class TestReplicatedMaster:
    def test_failover_preserves_completed_state(self, published):
        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers)
        replicated = ReplicatedMaster(spec, files)
        replicated.register_worker("w0")
        split = replicated.request_split("w0")
        replicated.complete_split("w0", split.split_id)
        in_flight = replicated.request_split("w0")

        replicated.fail_over()
        assert replicated.failovers == 1
        assert replicated.primary.completed_splits == 1
        # The in-flight split was requeued, not lost.
        reassigned = replicated.request_split("w0")
        assert reassigned.split_id == in_flight.split_id

    def test_session_completes_across_failover(self, published):
        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers)
        replicated = ReplicatedMaster(spec, files)
        replicated.register_worker("w0")
        half = replicated.primary.total_splits // 2
        for _ in range(half):
            split = replicated.request_split("w0")
            replicated.complete_split("w0", split.split_id)
        replicated.fail_over()
        while not replicated.done:
            split = replicated.request_split("w0")
            replicated.complete_split("w0", split.split_id)
        assert replicated.primary.completed_splits == replicated.primary.total_splits

    def test_stranded_reopen_is_replicated(self, published):
        """Reopening a stranded split must reship the standby
        checkpoint, or a later failover resurrects lost data."""
        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers)
        replicated = ReplicatedMaster(spec, files)
        replicated.register_worker("w0")
        split = replicated.request_split("w0")
        replicated.complete_split("w0", split.split_id)
        replicated.worker_failed("w0", stranded_split_ids=[split.split_id])
        replicated.fail_over()
        # The promoted replica agrees: the split is pending, not done.
        assert replicated.primary.completed_splits == 0
        replicated.register_worker("w1")
        assert replicated.request_split("w1").split_id == split.split_id


class TestSampledRecovery:
    """fail_over + restore with row_sample_rate < 1.0 — the case the
    salted builtin hash() silently broke (ISSUE 3)."""

    RATE = 0.5

    def sampled_master(self, published):
        _, schema, footers, _ = published
        spec, files = path_spec_and_files(schema, footers, row_sample_rate=self.RATE)
        return spec, files, ReplicatedMaster(spec, files)

    def test_failover_preserves_sampled_split_set(self, published):
        spec, files, replicated = self.sampled_master(published)
        before = replicated.primary.split_ids
        assert 0 < len(before) < len(plan_splits(files, spec.split_stripes))
        replicated.register_worker("w0")
        split = replicated.request_split("w0")
        replicated.complete_split("w0", split.split_id)
        replicated.fail_over()
        assert replicated.primary.split_ids == before
        assert replicated.primary.completed_splits == 1

    def test_restore_into_freshly_planned_master_resolves_all_ids(self, published):
        spec, files, replicated = self.sampled_master(published)
        replicated.register_worker("w0")
        for _ in range(2):
            split = replicated.request_split("w0")
            replicated.complete_split("w0", split.split_id)
        checkpoint = replicated.checkpoint()

        # A restarted master process replans from spec + files; stable
        # sampling guarantees every checkpointed ID still exists.
        fresh = ReplicatedMaster(spec, files)
        assert checkpoint.completed_split_ids <= fresh.primary.split_ids
        fresh.restore(checkpoint)
        assert fresh.checkpoint() == checkpoint
        assert fresh.primary.completed_splits == 2

    def test_session_completes_after_sampled_failover(self, published):
        _, _, replicated = self.sampled_master(published)
        replicated.register_worker("w0")
        replicated.fail_over()
        while not replicated.done:
            split = replicated.request_split("w0")
            replicated.complete_split("w0", split.split_id)
        assert replicated.primary.progress == 1.0
