"""End-to-end DPP sessions: the pump, scaling, and fault injection."""

import dataclasses

import pytest

from repro.common.errors import DppError
from repro.dpp import AutoscalerConfig, DppSession, SessionSpec, WorkerConfig
from repro.transforms import TransformDag
from repro.warehouse.publish import partition_file_name

from .conftest import make_spec
from .oracles import OracleAutoscalingController, OracleWorkerTelemetry


def make_session(published, **kwargs):
    filesystem, schema, footers, _ = published
    spec_overrides = kwargs.pop("spec_overrides", {})
    spec = make_spec(schema, **spec_overrides)
    return DppSession(spec, filesystem, schema, footers, **kwargs)


class TestStepApi:
    """pump() is a thin adapter over the non-blocking round API."""

    def test_pump_equals_explicit_rounds_byte_identically(self, published):
        pumped = make_session(published, n_workers=2).pump()

        stepped_session = make_session(published, n_workers=2)
        stepped_session.begin_rounds()
        rounds = 0
        while stepped_session.pump_round() is not None:
            rounds += 1
        stepped = stepped_session.finish_rounds()
        assert rounds > 0
        assert dataclasses.asdict(stepped) == dataclasses.asdict(pumped)

    def test_rounds_can_be_observed_midway(self, published):
        # The non-blocking API exists so an external loop (the serving
        # plane, a chaos schedule) can interleave work between rounds.
        session = make_session(published, n_workers=2)
        session.begin_rounds()
        assert session.pump_round() is not None
        assert not session.master.done  # mid-flight, by construction
        while session.pump_round() is not None:
            pass
        report = session.finish_rounds()
        assert session.master.done
        assert report.rows_processed > 0

    def test_round_hands_back_its_deliveries_under_a_quota(self, published):
        # A per-client quota (a slow trainer) caps each round's pull;
        # the round names every batch's client, in pull order.
        session = make_session(published, n_workers=3, n_clients=2)
        session.begin_rounds()
        delivered = 0
        while (deliveries := session.pump_round(1)) is not None:
            client_ids = [client_id for client_id, _ in deliveries]
            assert len(client_ids) == len(set(client_ids))
            assert set(client_ids) <= {"client-0", "client-1"}
            delivered += len(deliveries)
        report = session.finish_rounds()
        assert delivered == report.batches_delivered
        assert report.batches_delivered == make_session(
            published, n_workers=3, n_clients=2
        ).pump().batches_delivered


class TestSessionSpec:
    def test_session_keys_partitions_by_path_and_keeps_every_other_field(
        self, published
    ):
        filesystem, schema, footers, _ = published
        # Every field off its default, so a dropped field shows.
        spec = make_spec(
            schema, split_stripes=2, coalesce_window=3, row_sample_rate=0.5
        )
        session = DppSession(spec, filesystem, schema, footers)
        planned = session.master.primary.spec
        for field in dataclasses.fields(SessionSpec):
            if field.name == "partitions":
                assert planned.partitions == tuple(
                    partition_file_name(spec.table_name, partition)
                    for partition in spec.partitions
                )
            else:
                assert getattr(planned, field.name) == getattr(
                    spec, field.name
                ), field.name

    def test_validation(self, published):
        _, schema, _, _ = published
        with pytest.raises(DppError):
            make_spec(schema, partitions=())
        with pytest.raises(DppError):
            make_spec(schema, batch_size=0)
        with pytest.raises(DppError):
            make_spec(schema, split_stripes=0)

    def test_dag_inputs_must_be_projected(self, published):
        _, schema, _, _ = published
        from repro.transforms import Logit

        dag = TransformDag().add(999, Logit(123_456))
        with pytest.raises(DppError):
            SessionSpec(
                table_name="t", partitions=("p",), projection=frozenset({1}), dag=dag
            )

    def test_effective_outputs_default_to_dag(self, published):
        _, schema, _, _ = published
        spec = make_spec(schema, output_ids=())
        assert spec.effective_output_ids() == spec.dag.output_ids()


class TestPump:
    def test_processes_every_row_exactly_once(self, published):
        _, _, _, table = published
        session = make_session(published, n_workers=3, n_clients=2)
        report = session.pump()
        assert report.rows_processed == table.total_rows()

    def test_delivered_batches_cover_all_rows(self, published):
        _, _, _, table = published
        session = make_session(published, n_workers=2)
        report = session.pump()
        assert report.batches_delivered > 0
        produced = sum(w.stats.batches_produced for w in session.workers)
        assert report.batches_delivered == produced

    def test_single_worker_single_client(self, published):
        _, _, _, table = published
        session = make_session(published, n_workers=1, n_clients=1)
        report = session.pump()
        assert report.rows_processed == table.total_rows()

    def test_session_requires_workers(self, published):
        with pytest.raises(DppError):
            make_session(published, n_workers=0)

    def test_report_accounting(self, published):
        session = make_session(published)
        report = session.pump()
        assert report.storage_rx_bytes > 0
        assert report.tensor_bytes_delivered > 0
        assert report.peak_workers >= 2


class TestFaultTolerance:
    def test_worker_death_mid_session(self, published):
        _, _, _, table = published
        session = make_session(published, n_workers=3)
        victim = session.workers[0]
        victim.process_one_split()
        rows_before_death = victim.stats.rows_processed
        victim.fail()
        report = session.pump()
        # The dead worker's buffered work was requeued: every row is
        # still processed (its pre-death rows were re-extracted).
        assert report.rows_processed >= table.total_rows()
        assert rows_before_death > 0

    def test_master_failover_mid_session(self, published):
        _, _, _, table = published
        session = make_session(published, n_workers=2)
        for worker in session.workers:
            worker.process_one_split()
        session.master.fail_over()
        report = session.pump()
        assert report.rows_processed >= table.total_rows()
        assert session.master.done

    def test_all_workers_dead_stalls(self, published):
        session = make_session(published, n_workers=1)
        session.workers[0].fail()
        with pytest.raises(DppError):
            session.pump()


class TestDrainServeOut:
    def test_batches_delivered_invariant_under_mid_session_drains(self, published):
        """Scale-down must not strand buffered batches (ISSUE 3): a
        drained worker serves out its buffer before retiring, so the
        delivered-batch count matches an undisturbed run exactly."""
        baseline = make_session(published, n_workers=4).pump()

        drained = make_session(published, n_workers=4)
        # Fill buffers first so the drained workers hold real tensors.
        for worker in drained.workers:
            worker.process_one_split()
        drained.scale(-2)
        report = drained.pump()
        assert report.batches_delivered == baseline.batches_delivered
        assert report.rows_processed == baseline.rows_processed

    def test_drained_worker_serves_out_then_retires(self, published):
        session = make_session(published, n_workers=2)
        victim = session.workers[0]
        victim.process_one_split()
        assert victim.buffered_batches > 0
        session.scale(-1)
        assert victim.draining and victim.alive
        assert not victim.wants_work
        session.pump()
        # Retired only after its buffer was fully served.
        assert not victim.alive and not victim.buffer
        assert victim.stats.batches_served > 0

    def test_drain_never_reprocesses(self, published):
        """Graceful drains are exactly-once: total splits completed
        across the fleet equals the session's split count."""
        session = make_session(published, n_workers=3)
        for worker in session.workers:
            worker.process_one_split()
        session.scale(-1)
        session.pump()
        completed = sum(w.stats.splits_completed for w in session.workers)
        assert completed == session.master.primary.total_splits

    def test_retire_with_buffer_rejected(self, published):
        session = make_session(published, n_workers=2)
        worker = session.workers[0]
        worker.process_one_split()
        worker.drain()
        with pytest.raises(DppError):
            worker.retire()


class TestMasterRestart:
    def test_restart_mid_session_completes(self, published):
        _, _, _, table = published
        session = make_session(published, n_workers=2)
        for worker in session.workers:
            worker.process_one_split()
        old_master = session.master
        session.restart_master()
        assert session.master is not old_master
        assert all(w.master is session.master for w in session.workers)
        report = session.pump()
        assert report.rows_processed >= table.total_rows()

    def test_restart_preserves_completed_split_set(self, published):
        session = make_session(published, n_workers=2)
        session.workers[0].process_one_split()
        before = session.master.checkpoint()
        session.restart_master()
        assert session.master.checkpoint() == before
        assert session.master.primary.split_ids


class TestScaling:
    def test_manual_scale_up(self, published):
        session = make_session(published, n_workers=1)
        session.scale(+2)
        assert len(session.live_workers) == 3
        report = session.pump()
        assert report.peak_workers == 3

    def test_manual_drain(self, published):
        session = make_session(published, n_workers=3)
        session.scale(-2)
        assert len(session.live_workers) == 1
        session.pump()  # still completes with one worker

    def test_autoscaler_launches_on_empty_buffers(self, published):
        session = make_session(
            published,
            n_workers=1,
            autoscaler_config=AutoscalerConfig(scale_up_step=2),
        )
        delta = session.run_autoscaler()
        assert delta == 2
        assert len(session.live_workers) == 3
        assert session.report.scaling_events

    def test_autoscaler_event_log(self, published):
        session = make_session(published, n_workers=1)
        session.run_autoscaler()
        assert any("launch" in event for event in session.report.scaling_events)

    def test_autoscaler_sees_the_live_workers_means(self, published):
        # Any buffer over 0.5 per worker at a mean utilization under 99%
        # drains, and the drain reason prints both means: the session's
        # aggregates must be what the per-worker list entry averaged.
        config = AutoscalerConfig(
            min_buffered_per_worker=0.0,
            drain_buffered_per_worker=0.5,
            low_utilization=0.99,
        )
        session = make_session(published, n_workers=3, autoscaler_config=config)
        session.begin_rounds()
        session.pump_round(1)
        live = session.live_workers
        peak = max(w.stats.usage.cpu_cycles for w in live)
        expected = OracleAutoscalingController(config).evaluate(
            [
                OracleWorkerTelemetry(
                    w.worker_id,
                    w.buffered_batches,
                    w.stats.usage.cpu_cycles / peak,
                    0.0,
                    0.0,
                )
                for w in live
            ]
        )
        assert expected.action == "drain"
        assert session.run_autoscaler() == expected.delta
        assert session.report.scaling_events == [
            f"drain {-expected.delta}: {expected.reason}"
        ]
