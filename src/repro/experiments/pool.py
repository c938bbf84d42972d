"""The persistent fork-pool engine.

:func:`~repro.experiments.runner.fan_out` is the only code that
decides between running inline and running here, and
:class:`~repro.experiments.runner.SweepRunner`, the one batch runner,
calls it.

:func:`run_chunked` keeps long-lived ``fork``\\ ed workers draining
*chunks* (contiguous ``[start, stop)`` index ranges) assigned one at a
time over per-worker pipes.  Work definitions are inherited by the
fork, never pickled; only a small task tuple crosses to a worker, and
the chunk's results come back pickled, once per chunk, in the chunk's
``ok`` message.  The parent waits on worker pipes and process sentinels
together, so a worker that dies mid-chunk (segfault, ``os._exit``, OOM
kill) is noticed at once and ends the run with an error naming the
chunk it held.

There is no retry.  Every cell seeds itself, so a cell that raised
raises again: the caller's per-item body catches a cell's exception
inside the worker and returns its quarantine record as the cell's
value.  What is left is a *host* fault, and the run journal
(:mod:`repro.experiments.journal`) is the one recovery path for it —
every chunk finished before the fault is already journaled, and
``--resume <journal>`` computes only the rest, to identical bytes.

The engine requires the ``fork`` start method (Linux/macOS CPython);
:func:`~repro.experiments.runner.fan_out`, the one caller, executes
inline where ``fork`` is unavailable.

Determinism: chunking only partitions the index space.  Every scenario
seeds itself and a chunk's results land at its index range, so serial,
any ``jobs`` and any chunk size produce byte-identical artifacts
(modulo wall clock).
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pickle
import signal
from collections import deque
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable

from ..common.errors import ConfigError

#: ``work(start, stop, cell_done)`` over one chunk of the index space;
#: ``cell_done`` (when not None) must be called once per finished cell.
ChunkWork = Callable[[int, int, Callable[[], None] | None], Any]

#: Upper bound on auto-tuned chunk sizes: beyond this, bigger batches
#: stop amortizing anything and only worsen tail imbalance.
_MAX_AUTO_CHUNK = 32


def fork_available() -> bool:
    """Whether the persistent engine can run here."""
    return "fork" in multiprocessing.get_all_start_methods()


def auto_chunk_size(n_items: int, jobs: int) -> int:
    """Cells per chunk, tuned from grid size and fan-out width.

    Four chunks per worker balances queue amortization against tail
    latency on uneven scenario durations; the cap keeps progress
    reporting and rebalancing responsive on huge grids.
    """
    if n_items < 1 or jobs < 1:
        raise ConfigError("chunk tuning needs positive items and jobs")
    return max(1, min(_MAX_AUTO_CHUNK, math.ceil(n_items / (jobs * 4))))


# -- the worker loop -----------------------------------------------------------


def _worker_main(work: ChunkWork, conn, want_cells: bool) -> None:
    """Worker loop: serve chunks off the pipe until the ``None`` sentinel.

    Everything this needs — *work* and whatever it closes over —
    arrived via fork, not pickle.  An exception that escapes *work* is
    shipped back (the original exception when picklable, a description
    otherwise) for the parent to re-raise.  SIGINT is ignored:
    interactive Ctrl-C belongs to the parent, which shuts workers down
    deterministically (and journals first).

    A SIGKILLed parent cannot clean up, and pipe EOF alone is not a
    reliable death signal here: later-forked siblings inherit this
    worker's parent-side pipe end, holding it open indefinitely.  So
    the idle loop polls for re-parenting (``getppid`` changing) and
    exits instead of blocking forever as an orphan.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_pid = os.getppid()

    def cell_done() -> None:
        conn.send(("cell",))

    sender = cell_done if want_cells else None
    while True:
        try:
            while not conn.poll(1.0):
                if os.getppid() != parent_pid:
                    return  # orphaned: the parent was killed uncleanly
            task = conn.recv()
        except (EOFError, OSError):
            return  # parent is gone; nothing sensible left to do
        if task is None:
            return
        start, stop = task
        try:
            message = ("ok", work(start, stop, sender))
        except BaseException as exc:  # ship it back; the parent re-raises
            try:
                body = pickle.dumps(exc)
            except Exception:
                body = None
            message = ("err", body, f"{type(exc).__name__}: {exc}")
        try:
            conn.send(message)
        except (BrokenPipeError, OSError):
            return


def _revive_exception(body: bytes | None, detail: str) -> BaseException:
    """The worker's exception, or a RuntimeError carrying its repr."""
    if body is not None:
        try:
            return pickle.loads(body)
        except Exception:
            pass
    return RuntimeError(f"sweep worker failed: {detail}")


# -- the parent ----------------------------------------------------------------


class _Seat:
    """One worker: its process, its pipe and the chunk it holds."""

    __slots__ = ("process", "conn", "chunk")

    def __init__(self, process, conn) -> None:
        self.process = process
        self.conn = conn
        self.chunk: tuple[int, int] | None = None


def run_chunked(
    work: ChunkWork,
    n_items: int,
    *,
    jobs: int,
    chunk_size: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    on_chunk: Callable[[int, int, Any], None],
) -> None:
    """Run *work* over ``[0, n_items)`` across forked workers.

    Each finished chunk is handed to *on_chunk* once, as
    ``on_chunk(start, stop, payload)`` with what *work* returned for it,
    in completion order — the once-per-chunk journal append point.
    *progress* is called per finished cell with monotonic counts (a
    worker reports its cells before its chunk on the same pipe).

    Failures end the run, after every chunk already received has been
    handed over:

    * an exception escaping *work* re-raises here with its original
      type;
    * a worker that dies raises a ``RuntimeError`` naming the chunk it
      held.  Nothing is retried: a journaled sweep recovers with
      ``--resume``.
    """
    if not fork_available():  # pragma: no cover - platform-dependent
        raise ConfigError("persistent pool requires the fork start method")
    if jobs < 1:
        raise ConfigError("the pool needs at least one worker process")
    if n_items <= 0:
        return
    size = chunk_size if chunk_size is not None else auto_chunk_size(n_items, jobs)
    if size < 1:
        raise ConfigError("chunk size must be at least one cell")
    queue = deque(
        (start, min(start + size, n_items)) for start in range(0, n_items, size)
    )
    pending = len(queue)  # chunks not yet handed to on_chunk
    finished = 0  # cells reported to progress
    context = multiprocessing.get_context("fork")
    seats: list[_Seat] = []
    try:
        for _ in range(min(jobs, len(queue))):
            parent_conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(work, child_conn, progress is not None),
                daemon=True,
            )
            process.start()
            child_conn.close()
            seats.append(_Seat(process, parent_conn))
        while pending:
            for seat in seats:
                if seat.chunk is None and queue:
                    seat.chunk = queue.popleft()
                    try:
                        seat.conn.send(seat.chunk)
                    except (BrokenPipeError, OSError):
                        pass  # the death check below names the chunk
            _connection_wait(
                [seat.conn for seat in seats]
                + [seat.process.sentinel for seat in seats]
            )
            for seat in seats:
                while seat.chunk is not None:
                    try:
                        if not seat.conn.poll():
                            break
                        message = seat.conn.recv()
                    except (EOFError, OSError):
                        break
                    if message[0] == "cell":
                        finished += 1
                        progress(finished, n_items)
                    elif message[0] == "ok":
                        start, stop = seat.chunk
                        seat.chunk = None
                        pending -= 1
                        on_chunk(start, stop, message[1])
                    else:  # "err": an exception escaped the chunk
                        raise _revive_exception(message[1], message[2])
            for seat in seats:
                if seat.process.exitcode is not None:
                    held = (
                        "between chunks"
                        if seat.chunk is None
                        else f"while running items [{seat.chunk[0]}, {seat.chunk[1]})"
                    )
                    raise RuntimeError(
                        f"sweep worker died with exit code "
                        f"{seat.process.exitcode} {held}; a journaled sweep "
                        "keeps every chunk finished before it, and "
                        "--resume <journal> computes only the rest"
                    )
        for seat in seats:
            try:
                seat.conn.send(None)
            except (BrokenPipeError, OSError):
                pass
        for seat in seats:
            seat.process.join(timeout=1)
    finally:
        for seat in seats:
            if seat.process.is_alive():
                seat.process.terminate()
        for seat in seats:
            seat.process.join(timeout=5)
            seat.conn.close()
