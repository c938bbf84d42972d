"""The counting master against the scanning one it replaced.

``DppMaster`` keeps per-state counts, a lowest-possibly-pending cursor
and (in ``ReplicatedMaster``) the standby's completed set up to date at
each state change; ``tests/dpp/oracles.py`` holds the bodies that found
the same answers by scanning every record.  Any program of requests,
completions, worker failures (with stranded splits), new epochs,
fail-overs, checkpoints and restores must hand out the same splits in
the same order, count the same, checkpoint the same, trace the same and
refuse the same calls in the same words.

What the bookkeeping buys is held by a count of Python lines, the same
on every machine: the 1 000th split of a session costs what the 10th
does.
"""

import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import DppError
from repro.dpp import DppMaster, ReplicatedMaster, SessionSpec
from repro.dpp import master as master_module
from repro.dpp.master import MasterCheckpoint, SplitState
from repro.dwrf import EncodingOptions
from repro.dwrf.layout import FileFooter, StripeMeta
from repro.telemetry.tracer import Tracer

from .oracles import OracleDppMaster, OracleReplicatedMaster

WORKERS = ("w0", "w1", "w2")


def session(stripes_per_file, sample_rate=1.0):
    """A spec and footers of empty one-row stripes: all a master reads."""
    files = {
        f"p{index}": FileFooter(EncodingOptions(), (1,), [StripeMeta(1, ())] * n)
        for index, n in enumerate(stripes_per_file)
    }
    spec = SessionSpec(
        "t", tuple(files), frozenset({1}), row_sample_rate=sample_rate
    )
    return spec, files


def outcome(call):
    try:
        return call()
    except DppError as refusal:
        return f"DppError: {refusal}"


def pending(master):
    return master._counts[SplitState.PENDING]


def assigned(master):
    return master._counts[SplitState.ASSIGNED]


def progress_of(master):
    if isinstance(master, OracleDppMaster):
        counts = (master.pending_splits, master.assigned_splits, master.workers)
    else:  # the counts the master keeps, against the oracle's scans
        counts = (pending(master), assigned(master), set(master._registered_workers))
    return (
        master.completed_splits,
        master.total_splits,
        master.done,
        *counts,
        master.checkpoint(),
    )


workers = st.sampled_from(WORKERS)
split_ids = st.integers(-1, 14)  # the sessions below have at most 12 splits
steps = st.one_of(
    st.tuples(st.just("register_worker"), workers),
    st.tuples(st.just("request_split"), workers),
    st.tuples(st.just("request_split"), workers),
    # The k-th split the worker holds (the usual call), or any id at all.
    st.tuples(st.just("complete_held"), workers, st.integers(0, 3)),
    st.tuples(st.just("complete_split"), workers, split_ids),
    st.tuples(st.just("worker_failed"), workers, st.lists(split_ids, max_size=3)),
    st.tuples(st.just("begin_epoch")),
    st.tuples(st.just("fail_over")),
    st.tuples(st.just("checkpoint")),
    st.tuples(st.just("restore"), st.integers(0, 3)),
)


@settings(deadline=None, max_examples=200)
@given(
    st.lists(st.integers(1, 4), min_size=1, max_size=3),
    st.sampled_from((1.0, 0.5)),
    st.lists(steps, max_size=60),
)
def test_any_program_runs_alike_on_the_counting_and_the_scanning_master(
    stripes_per_file, sample_rate, program
):
    spec, files = session(stripes_per_file, sample_rate)
    ours, theirs = ReplicatedMaster(spec, files), OracleReplicatedMaster(spec, files)
    ours.attach_tracer(Tracer("t"))
    theirs.attach_tracer(Tracer("t"))
    assert ours.primary.splits == theirs.primary.splits
    held = {worker: [] for worker in WORKERS}  # by the oracle's account
    # One that cannot be restored (foreign table), then whatever is taken.
    checkpoints = [MasterCheckpoint("other", frozenset())]
    for step, *arguments in program:
        if step == "complete_held":
            worker, k = arguments
            step = "complete_split"
            arguments = [worker, held[worker][k] if k < len(held[worker]) else k]
        elif step == "restore":
            arguments = [checkpoints[arguments[0] % len(checkpoints)]]
        result = outcome(lambda: getattr(ours, step)(*arguments))
        assert result == outcome(lambda: getattr(theirs, step)(*arguments))
        if step == "checkpoint":
            checkpoints.append(result)
            # ...and one naming a split the session does not have.
            checkpoints.append(
                MasterCheckpoint("t", result.completed_split_ids | {999})
            )
        assert progress_of(ours.primary) == progress_of(theirs.primary)
        assert ours.done == theirs.done and ours.failovers == theirs.failovers
        # What a fail-over would promote, were it to happen now.
        assert (
            ours._standby_completed
            == theirs._standby_checkpoint.completed_split_ids
        )
        held = {
            worker: [
                split_id
                for split_id, record in theirs.primary._records.items()
                if record.assigned_to == worker
            ]
            for worker in WORKERS
        }
    assert ours.tracer._events == theirs.tracer._events


@settings(deadline=None)
@given(st.lists(steps, max_size=40))
def test_the_bare_master_runs_alike_too(program):
    """No standby in between: ``restore`` with splits in flight, and the
    cursor after it, on ``DppMaster`` itself."""
    spec, files = session((4, 3))
    ours, theirs = DppMaster(spec, files), OracleDppMaster(spec, files)
    checkpoints = [ours.checkpoint()]
    for step, *arguments in program:
        if step in ("fail_over", "complete_held"):
            continue
        if step == "restore":
            arguments = [checkpoints[arguments[0] % len(checkpoints)]]
        result = outcome(lambda: getattr(ours, step)(*arguments))
        assert result == outcome(lambda: getattr(theirs, step)(*arguments))
        if step == "checkpoint":
            checkpoints.append(result)
        assert progress_of(ours) == progress_of(theirs)


# -- cost ----------------------------------------------------------------------


def lines_executed(call) -> int:
    """Lines of ``repro.dpp.master`` run by *call* (that module alone:
    a garbage collection landing mid-call runs other people's lines)."""
    count = 0

    def tracer(frame, event, arg):
        nonlocal count
        if frame.f_code.co_filename != master_module.__file__:
            return None
        if event == "line":
            count += 1
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(previous)
    return count


@pytest.mark.parametrize("master_type", [DppMaster, ReplicatedMaster])
def test_the_thousandth_split_costs_what_the_tenth_does(master_type):
    master = master_type(*session((1_200,)))
    master.register_worker("w0")
    primary = getattr(master, "primary", master)

    def one_split():
        split = master.request_split("w0")
        master.complete_split("w0", split.split_id)
        assert not master.done
        assert primary.completed_splits + pending(primary) == 1_200
        assert assigned(primary) == 0

    costs = [lines_executed(one_split) for _ in range(1_000)]
    assert costs[9] == costs[999]
    assert len(set(costs[1:])) == 1, sorted(set(costs))


def test_a_requeued_split_is_found_without_rescanning_the_completed_ones():
    """The cursor goes back only as far as the reopened split, which is
    therefore handed out next at the usual cost; the request after it
    walks back up over the completed stretch, once, and from then on a
    request costs what it did before."""
    master = DppMaster(*session((1_200,)))
    master.register_worker("w0")
    master.register_worker("w1")
    for _ in range(1_000):
        master.complete_split("w0", master.request_split("w0").split_id)
    first = lines_executed(lambda: master.request_split("w0"))
    assert master.worker_failed("w1", stranded_split_ids=[5]) == [5]
    again = lines_executed(lambda: master.request_split("w0"))
    assert assigned(master) == 2 and again == first
    # The next request walks back up over the completed stretch once...
    assert master.request_split("w0").split_id == 1_001
    # ...and the one after that costs what any request does.
    assert lines_executed(lambda: master.request_split("w0")) == first
