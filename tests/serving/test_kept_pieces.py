"""A kept stripe's transformed pieces, seen through one serving plane.

Extraction and transformation run on different pool workers with a
queue between them, so what a transform worker reuses must arrive with
the piece.  Counted over a whole ``ServingPlane`` run: the DAG executes
for each piece of an extract worker's first and second read of a
stripe and for no piece of a later read; the output columns a later
read gets are read-only; and a caller that scribbles on the
``CostReport`` it is handed changes no later charge, because a kept
piece's report is handed out as a copy.
"""

import collections
import dataclasses

import pytest

from repro.dpp import DppWorker
from repro.dpp import worker as worker_module
from repro.serving import ServingScenario

PIECES = 4  # 64-row stripes cut into batches of 16


def scenario() -> ServingScenario:
    """The benchmark's bursty shape, smaller: the extract pool scales out,
    so stripes are read by several extract workers."""
    return ServingScenario(
        name="test/kept-pieces",
        seed=3,
        arrival_mix="bursty",
        fetch_policy="retry",
        max_retries=10,
        batch_size=16,
        n_requests=1_000,
        rate_per_s=1_000.0,
    )


def scribble(report) -> None:
    report.cycles *= 7.0
    report.mem_bytes += 1.0
    report.elements += 3
    for op_class in report.cycles_by_class:
        report.cycles_by_class[op_class] += 1.0


@dataclasses.dataclass
class CountedRun:
    """One plane run, every piece named (extract worker, reader, stripe,
    read number, piece index) by where it was cut."""

    reads: collections.Counter  # (extract worker, reader, stripe) -> reads
    executed: list  # the piece of each DAG execution
    transformed: list  # the piece of each transform_batch call
    crossings: set  # (worker that filled a holder, worker that replayed it)
    readonly_checked: bool
    report_json: str
    stats: list  # (worker id, stats as a dict), every worker the run made


def run_counted(monkeypatch, mutate: bool) -> CountedRun:
    reads = collections.Counter()
    executed, transformed, workers = [], [], []
    filled_by, crossings = {}, set()
    readonly_checked = False

    real_init = DppWorker.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        workers.append(self)

    real_read = DppWorker._read_stripe_columnar

    def read(self, reader, stripe_index):
        key = (self.worker_id, reader, stripe_index)
        reads[key] += 1
        self.last_read = (key, reads[key])
        return real_read(self, reader, stripe_index)

    real_rebatch = DppWorker._rebatch

    def rebatch(self, batch):
        for index, piece in enumerate(real_rebatch(self, batch)):
            piece.origin = (*self.last_read, index)
            yield piece

    real_execute = worker_module.execute_with_cost

    def execute(dag, batch):
        executed.append(batch.origin)
        return real_execute(dag, batch)

    real_transform = DppWorker.transform_batch

    def transform(self, batch):
        nonlocal readonly_checked
        report = real_transform(self, batch)
        transformed.append(batch.origin)
        read_number = batch.origin[1]
        if read_number >= 2:
            (held,) = batch.transformed
            filler = filled_by.setdefault(id(held), self.worker_id)
        if read_number >= 3:
            crossings.add((filler, self.worker_id))
            assert report is not held.report
            assert report == held.report
            if not readonly_checked:
                for fid in self.spec.dag.output_ids():
                    for array in vars(batch.columns[fid]).values():
                        if array is not None:
                            assert not array.flags.writeable
                            with pytest.raises(ValueError, match="read-only"):
                                array[...] = 0
                readonly_checked = True
        if mutate:
            scribble(report)
        return report

    monkeypatch.setattr(DppWorker, "__init__", init)
    monkeypatch.setattr(DppWorker, "_read_stripe_columnar", read)
    monkeypatch.setattr(DppWorker, "_rebatch", rebatch)
    monkeypatch.setattr(DppWorker, "transform_batch", transform)
    monkeypatch.setattr(worker_module, "execute_with_cost", execute)
    report = scenario().run()
    monkeypatch.undo()
    return CountedRun(
        reads,
        executed,
        transformed,
        crossings,
        readonly_checked,
        report.to_json(),
        [(worker.worker_id, dataclasses.asdict(worker.stats)) for worker in workers],
    )


def test_the_dag_runs_for_the_first_two_reads_of_a_stripe_and_never_after(monkeypatch):
    run = run_counted(monkeypatch, mutate=False)
    assert len(run.executed) == len(set(run.executed))  # once per piece per read
    assert all(read_number <= 2 for _, read_number, _ in run.executed)
    # Every piece of every first and second read reached a transform
    # worker and ran the DAG there, and the plane ran well past them.
    assert set(run.executed) == {
        (key, read_number, piece)
        for key, count in run.reads.items()
        for read_number in range(1, min(count, 2) + 1)
        for piece in range(PIECES)
    }
    assert len(run.transformed) > 5 * len(run.executed)
    assert len({worker_id for worker_id, _, _ in run.reads}) > 2  # the pool grew
    assert run.readonly_checked
    # Filled by one transform worker, replayed by another: the result
    # travels with the piece, not in a transform worker's own cache.
    assert any(filler != replayer for filler, replayer in run.crossings)


def test_a_scribbled_report_changes_no_later_charge(monkeypatch):
    plain = run_counted(monkeypatch, mutate=False)
    scribbled = run_counted(monkeypatch, mutate=True)
    assert scribbled.report_json == plain.report_json
    assert scribbled.stats == plain.stats  # every worker's usage and reports
    assert scenario().run().to_json() == plain.report_json
