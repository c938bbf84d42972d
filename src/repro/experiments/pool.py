"""Self-healing persistent fork-pool engine.

One engine, two front-ends: :func:`~repro.experiments.runner.fan_out`
is the only code that decides between running inline and running here,
and both runners (:class:`~repro.experiments.runner.SweepRunner`,
:class:`~repro.experiments.runner.ExperimentRunner`) are calls to it.
Inputs are never pickled, workers outlive their chunks, and — since one
dead worker must never sink a 100k-cell overnight campaign — the pool
is supervised:

* :func:`run_chunked` — long-lived ``fork``\\ ed workers drain *chunks*
  (contiguous ``[start, stop)`` index ranges) assigned one at a time
  over per-worker pipes.  Work definitions are inherited by the fork,
  never pickled; only a small task tuple crosses to a worker, and the
  chunk's results come back pickled, once per chunk, in the chunk's
  ``ok`` message.  A supervisor in the parent multiplexes worker pipes
  against process sentinels, so a worker that dies mid-chunk (segfault,
  ``os._exit``, OOM kill) is detected immediately: its in-flight chunk
  is requeued and the worker respawned with capped exponential
  backoff.  A chunk that *keeps* killing workers is bisected until the
  poison cell is isolated; depending on policy the cell is then
  quarantined (reported to the caller, sweep continues) or raised.
  Optional per-chunk wall-clock timeouts catch stuck cells the same
  way — the hung worker is killed and supervised like any other death.
* :class:`PoolPolicy` / :class:`PoolStats` — the supervision knobs
  (retry budget, backoff, timeout, fault injection) and the incident
  counters (requeues, respawns, bisections, timeouts, quarantined
  cells) surfaced in sweep artifacts.

The engine requires the ``fork`` start method (Linux/macOS CPython);
:func:`~repro.experiments.runner.fan_out`, the one caller, executes
inline where ``fork`` is unavailable.

Determinism: chunking only partitions the index space.  Every scenario
seeds itself, a chunk's results land at its index range, retried chunks
recompute identical values, and per-cell completions are deduplicated
across retries — so serial, any ``jobs``, any chunk size, and any
crash/retry history produce byte-identical artifacts (modulo wall
clock).  Quarantine details carry no process identifiers for the same
reason: a poison cell quarantines to the same record on every run.

Fault injection: :attr:`PoolPolicy.fault_hook` runs *inside each
worker* at deterministic points (``("chunk", start, stop)`` before a
chunk executes).  :func:`fault_kill_on_cell` /
:func:`fault_raise_on_cell` build the standard chaos hooks — kill the
worker holding a given cell (once, via a marker file, or every time)
or raise inside it — which is how the fault-tolerance suite proves
requeue, bisection, and quarantine without patching the engine.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import pathlib
import pickle
import signal
import time
from collections import deque
from dataclasses import asdict, dataclass
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Callable

from ..common.errors import ConfigError

#: ``work(start, stop, cell_done)`` over one chunk of the index space;
#: ``cell_done`` (when not None) must be called once per finished cell
#: as ``cell_done(index)`` — the index keys progress deduplication
#: across chunk retries.
ChunkWork = Callable[[int, int, Callable[[int], None] | None], Any]

#: Worker-side fault-injection hook: ``hook(event, start, stop)``;
#: the only event today is ``"chunk"``, fired before a chunk executes.
FaultHook = Callable[[str, int, int], None]

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


# -- supervision policy and counters -------------------------------------------


@dataclass(frozen=True)
class PoolPolicy:
    """Supervision knobs for the self-healing pool.

    *max_chunk_retries* same-size retries are granted before a failing
    chunk is bisected; a single-cell chunk out of retries is the
    isolated poison cell (quarantined or raised, per the caller's
    ``on_cell_failed``).  Dead workers respawn after
    ``min(backoff_cap_s, backoff_base_s * 2**(deaths-1))`` seconds of
    per-slot backoff (reset by any successfully completed chunk).
    *chunk_timeout_s* kills and supervises workers whose chunk exceeds
    the wall-clock budget; ``None`` disables the watchdog.
    *fault_hook* is the deterministic chaos hook run inside workers
    (see :data:`FaultHook`); it crosses into workers via fork, so
    closures are fine.
    """

    max_chunk_retries: int = 1
    backoff_base_s: float = 0.02
    backoff_cap_s: float = 1.0
    chunk_timeout_s: float | None = None
    fault_hook: FaultHook | None = None

    def __post_init__(self) -> None:
        if self.max_chunk_retries < 0:
            raise ConfigError("max_chunk_retries cannot be negative")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigError("backoff times cannot be negative")
        if self.chunk_timeout_s is not None and self.chunk_timeout_s <= 0:
            raise ConfigError("chunk_timeout_s must be positive when set")


@dataclass
class PoolStats:
    """Incident counters from one supervised pool run."""

    requeues: int = 0  # chunks re-shipped after a failure
    respawns: int = 0  # workers relaunched after a death
    bisections: int = 0  # chunks split to isolate a poison cell
    timeouts: int = 0  # chunks killed by the wall-clock watchdog
    quarantined_cells: int = 0  # isolated poison cells handed to the caller

    def any(self) -> bool:
        """Whether anything noteworthy happened."""
        return any(self.as_dict().values())

    def as_dict(self) -> dict[str, int]:
        """JSON-ready counter block (stable key order via sort)."""
        return dict(sorted(asdict(self).items()))


# -- deterministic fault-injection hooks ---------------------------------------


def fault_kill_on_cell(
    cell: int, *, exit_code: int = 9, once_marker: str | os.PathLike | None = None
):
    """A :data:`FaultHook` that kills the worker holding *cell*.

    With *once_marker* (a path on a filesystem shared by the workers)
    the first worker to reach the cell creates the marker and dies;
    retries find the marker and survive — the transient-crash drill.
    Without a marker every attempt dies — the persistent poison cell.
    """

    def hook(event: str, start: int, stop: int) -> None:
        if event != "chunk" or not start <= cell < stop:
            return
        if once_marker is not None:
            marker = pathlib.Path(once_marker)
            if marker.exists():
                return
            marker.touch()
        os._exit(exit_code)

    return hook


def fault_raise_on_cell(
    cell: int,
    message: str = "injected poison cell",
    *,
    once_marker: str | os.PathLike | None = None,
):
    """A :data:`FaultHook` raising inside any chunk holding *cell*.

    Bisection narrows the failure to the single-cell chunk, so the
    quarantined cell is exactly *cell* regardless of chunk size.  The
    raised message is deterministic — it lands verbatim in the
    quarantine record.
    """

    def hook(event: str, start: int, stop: int) -> None:
        if event != "chunk" or not start <= cell < stop:
            return
        if once_marker is not None:
            marker = pathlib.Path(once_marker)
            if marker.exists():
                return
            marker.touch()
        raise RuntimeError(message)

    return hook


# -- the worker loop -----------------------------------------------------------


def _worker_main(
    work: ChunkWork, conn, fault_hook: FaultHook | None, want_cells: bool
) -> None:
    """Worker loop: serve chunks off the pipe until the ``None`` sentinel.

    Everything this needs — *work* and whatever it closes over —
    arrived via fork, not pickle.  Exceptions are shipped back per
    chunk (the original exception when picklable, a description
    otherwise) so the parent can retry, quarantine, or re-raise.
    SIGINT is ignored: interactive Ctrl-C belongs to the parent, which
    shuts workers down deterministically (and journals first).

    A SIGKILLed parent cannot clean up, and pipe EOF alone is not a
    reliable death signal here: later-forked siblings inherit this
    worker's parent-side pipe end, holding it open indefinitely.  So
    the idle loop polls for re-parenting (``getppid`` changing) and
    exits instead of blocking forever as an orphan.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    parent_pid = os.getppid()

    def cell_done(index: int) -> None:
        conn.send(("cell", index))

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
            if fault_hook is not None:
                fault_hook("chunk", start, stop)
            payload = work(start, stop, sender)
        except BaseException as exc:  # ship it back; the parent decides
            try:
                body = pickle.dumps(exc)
            except Exception:
                body = None
            message = ("err", body, f"{type(exc).__name__}: {exc}")
        else:
            message = ("ok", payload)
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


# -- the supervisor ------------------------------------------------------------


class _Chunk:
    """One ``[start, stop)`` work range and its failure history."""

    __slots__ = ("start", "stop", "failures")

    def __init__(self, start: int, stop: int) -> None:
        self.start = start
        self.stop = stop
        self.failures = 0


class _Slot:
    """One supervised worker seat: process, pipe, and backoff state."""

    __slots__ = (
        "process",
        "conn",
        "chunk",
        "deadline",
        "deaths",
        "respawn_at",
        "timed_out",
    )

    def __init__(self) -> None:
        self.process = None
        self.conn = None
        self.chunk: _Chunk | None = None
        self.deadline: float | None = None
        self.deaths = 0  # consecutive; reset by a completed chunk
        self.respawn_at = 0.0
        self.timed_out = False


def run_chunked(
    work: ChunkWork,
    n_items: int,
    *,
    jobs: int,
    chunk_size: int | None = None,
    progress: Callable[[int, int], None] | None = None,
    policy: PoolPolicy | None = None,
    on_cell_failed: Callable[[int, str], None] | None = None,
    on_chunk: Callable[[int, int, Any], None],
    stats: PoolStats | None = None,
) -> None:
    """Run *work* over ``[0, n_items)`` across supervised forked workers.

    Each successfully completed chunk is handed to *on_chunk* once, as
    ``on_chunk(start, stop, payload)`` with what *work* returned for it
    (bisected chunks arrive as their sub-ranges), in completion order.
    The supervisor multiplexes per-worker pipes against process sentinels:

    * a worker that dies mid-chunk (segfault, ``os._exit``, SIGKILL,
      watchdog timeout) has its chunk requeued and is respawned with
      capped exponential backoff — the sweep continues;
    * a chunk that keeps failing is bisected until the poison cell is
      isolated.  With *on_cell_failed* the cell is quarantined —
      ``on_cell_failed(index, detail)`` records it (with a
      deterministic, pid-free detail string) and the run completes;
      without it the isolated cell raises (the original exception for
      in-chunk raises, a ``RuntimeError`` for worker deaths);
    * *on_chunk* runs after every cell in the range is done (a worker
      reports cells before its chunk ``ok`` on the same pipe) — the
      once-per-chunk journal append point.  Quarantined cells are never
      covered by an *on_chunk* range: bisection isolates the poison
      into a single-cell chunk that fails rather than completes;
    * *progress* is called per resolved cell with monotonic counts.

    *stats*, when provided, accumulates the incident counters.
    """
    if not fork_available():  # pragma: no cover - platform-dependent
        raise ConfigError("persistent pool requires the fork start method")
    if jobs < 1:
        raise ConfigError("the pool needs at least one worker process")
    if n_items <= 0:
        return
    policy = policy if policy is not None else PoolPolicy()
    stats = stats if stats is not None else PoolStats()
    size = chunk_size if chunk_size is not None else auto_chunk_size(n_items, jobs)
    if size < 1:
        raise ConfigError("chunk size must be at least one cell")
    queue: deque[_Chunk] = deque(
        _Chunk(start, min(start + size, n_items))
        for start in range(0, n_items, size)
    )
    active = len(queue)  # chunks not yet completed or quarantined
    seen: set[int] = set()  # resolved cell indices (dedup across retries)
    context = multiprocessing.get_context("fork")
    want_cells = progress is not None
    slots = [_Slot() for _ in range(min(jobs, len(queue)))]

    def resolve_cell(index: int) -> None:
        if index in seen:
            return  # a retried chunk re-reporting an already-done cell
        seen.add(index)
        if progress is not None:
            progress(len(seen), n_items)

    def chunk_failed(chunk: _Chunk, detail: str) -> None:
        nonlocal active
        chunk.failures += 1
        if chunk.failures <= policy.max_chunk_retries:
            stats.requeues += 1
            queue.append(chunk)
            return
        if chunk.stop - chunk.start > 1:
            # Out of retries at this size: split to isolate the poison.
            middle = (chunk.start + chunk.stop) // 2
            stats.bisections += 1
            queue.append(_Chunk(chunk.start, middle))
            queue.append(_Chunk(middle, chunk.stop))
            active += 1
            return
        index = chunk.start
        if on_cell_failed is None:
            raise RuntimeError(f"poison cell {index}: {detail}")
        stats.quarantined_cells += 1
        on_cell_failed(index, detail)
        resolve_cell(index)
        active -= 1

    def drain(slot: _Slot) -> None:
        nonlocal active
        while True:
            try:
                if not slot.conn.poll():
                    return
                message = slot.conn.recv()
            except (EOFError, OSError):
                return
            kind = message[0]
            if kind == "cell":
                resolve_cell(message[1])
            elif kind == "ok":
                chunk = slot.chunk
                slot.chunk = None
                slot.deadline = None
                slot.deaths = 0
                on_chunk(chunk.start, chunk.stop, message[1])
                active -= 1
            else:  # "err": the chunk raised, the worker survived
                chunk = slot.chunk
                slot.chunk = None
                slot.deadline = None
                if on_cell_failed is None:
                    # Legacy fail-fast contract: in-chunk exceptions
                    # re-raise with their original type immediately.
                    raise _revive_exception(message[1], message[2])
                chunk_failed(chunk, message[2])

    def spawn(slot: _Slot) -> None:
        parent_conn, child_conn = context.Pipe()
        process = context.Process(
            target=_worker_main,
            args=(work, child_conn, policy.fault_hook, want_cells),
            daemon=True,
        )
        process.start()
        child_conn.close()
        slot.process = process
        slot.conn = parent_conn
        slot.chunk = None
        slot.deadline = None
        slot.timed_out = False

    try:
        while active > 0:
            now = time.monotonic()
            # 1) Harvest dead workers: drain what they managed to send,
            #    then requeue whatever they were holding.
            for slot in slots:
                process = slot.process
                if process is None or process.is_alive():
                    continue
                drain(slot)  # completions that beat the crash still count
                process.join()
                slot.conn.close()
                slot.process = None
                slot.conn = None
                chunk = slot.chunk
                slot.chunk = None
                slot.deadline = None
                if chunk is not None:
                    slot.deaths += 1
                    slot.respawn_at = now + min(
                        policy.backoff_cap_s,
                        policy.backoff_base_s * (2 ** (slot.deaths - 1)),
                    )
                    if slot.timed_out:
                        stats.timeouts += 1
                        detail = (
                            "chunk timed out after "
                            f"{policy.chunk_timeout_s:g}s"
                        )
                    else:
                        detail = (
                            f"worker died with exit code {process.exitcode}"
                        )
                    slot.timed_out = False
                    chunk_failed(chunk, detail)
                else:
                    slot.timed_out = False
            if active <= 0:
                break
            # 2) (Re)spawn seats while there is queued work to serve.
            for slot in slots:
                if slot.process is None and queue and now >= slot.respawn_at:
                    if slot.deaths:
                        stats.respawns += 1
                    spawn(slot)
            # 3) Assign queued chunks to idle live workers.
            for slot in slots:
                if not queue:
                    break
                if slot.process is None or slot.chunk is not None:
                    continue
                chunk = queue.popleft()
                try:
                    slot.conn.send((chunk.start, chunk.stop))
                except (BrokenPipeError, OSError):
                    queue.appendleft(chunk)  # death handled next pass
                    continue
                slot.chunk = chunk
                if policy.chunk_timeout_s is not None:
                    slot.deadline = time.monotonic() + policy.chunk_timeout_s
            # 4) Wait for a message, a death, a timeout, or a respawn.
            handles = []
            deadline: float | None = None
            for slot in slots:
                if slot.process is None:
                    if queue:
                        deadline = (
                            slot.respawn_at
                            if deadline is None
                            else min(deadline, slot.respawn_at)
                        )
                    continue
                handles.append(slot.conn)
                handles.append(slot.process.sentinel)
                if slot.deadline is not None:
                    deadline = (
                        slot.deadline
                        if deadline is None
                        else min(deadline, slot.deadline)
                    )
            timeout = (
                None
                if deadline is None
                else max(0.0, deadline - time.monotonic())
            )
            if handles:
                _connection_wait(handles, timeout)
            elif timeout is not None:
                time.sleep(min(timeout, 0.1))
            else:  # pragma: no cover - bookkeeping invariant
                raise RuntimeError(
                    "worker pool stalled: live chunks but no runnable work"
                )
            # 5) Drain live workers.
            for slot in slots:
                if slot.process is not None:
                    drain(slot)
            # 6) Enforce the chunk watchdog: kill overdue workers; the
            #    death is then supervised like any other crash.
            if policy.chunk_timeout_s is not None:
                now = time.monotonic()
                for slot in slots:
                    if (
                        slot.process is not None
                        and slot.chunk is not None
                        and slot.deadline is not None
                        and now >= slot.deadline
                        and slot.process.is_alive()
                    ):
                        slot.timed_out = True
                        slot.process.kill()
        # Graceful shutdown: all chunks resolved.
        for slot in slots:
            if slot.process is not None and slot.process.is_alive():
                try:
                    slot.conn.send(None)
                except (BrokenPipeError, OSError):
                    pass
        for slot in slots:
            if slot.process is not None:
                slot.process.join(timeout=1)
    finally:
        for slot in slots:
            if slot.process is not None and slot.process.is_alive():
                slot.process.terminate()
        for slot in slots:
            if slot.process is not None:
                slot.process.join(timeout=5)
            if slot.conn is not None:
                slot.conn.close()

