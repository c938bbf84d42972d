"""A deterministic cooperative async kernel over :class:`SimClock`.

The serving plane hosts long-running coroutines — arrival generators,
split feeders, role-split worker pools, a fetch dispatcher — that block
on queues and timers.  Stdlib ``asyncio`` cannot drive them: its event
loop runs on the wall clock and its ready-queue ordering is not part of
its contract, so two runs of the same seed could interleave
differently and break the repo's byte-identical determinism contract.

This kernel is the minimal replacement: plain ``async def`` coroutines
awaiting *trap* objects, advanced by an explicit run loop in strict
FIFO order, with every timer an event on the shared discrete-event
clock.  Execution order is a pure function of (spawn order, queue
arrival order, virtual timestamps), so serial and pooled runs of the
same scenario replay identically.

The bounded :class:`Queue` is the backpressure primitive: ``put``
parks the producer when the queue is full, ``try_put`` is the
non-blocking admission-control variant, and depth/peak counters feed
the per-queue telemetry gauges.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Coroutine

from ..common.errors import ReproError
from ..common.simclock import EventHandle, SimClock


class KernelError(ReproError):
    """A cooperative-scheduling invariant was violated (deadlock, ...)."""


class Task:
    """One spawned coroutine and its lifecycle flags."""

    __slots__ = ("coro", "name", "finished", "cancelled", "result", "timer")

    def __init__(self, coro: Coroutine, name: str) -> None:
        self.coro = coro
        self.name = name
        self.finished = False
        self.cancelled = False
        self.result: Any = None
        self.timer: EventHandle | None = None  # the sleep it last took

    def cancel(self) -> None:
        """Stop the task; its ``finally`` blocks run, then it is done.

        Safe on finished tasks (no-op).  A sleeping task takes its
        timer with it; a task parked on a queue is simply never resumed
        again: the queues skip finished tasks.
        """
        if self.finished:
            return
        self.finished = True
        self.cancelled = True
        if self.timer is not None:
            self.timer.cancel()  # a no-op if it has fired
        self.coro.close()


class _Sleep:
    """Awaitable: park the task until *delay* virtual seconds pass."""

    __slots__ = ("delay",)

    def __init__(self, delay: float) -> None:
        self.delay = delay

    def __await__(self):
        return (yield self)

    def block(self, kernel: "Kernel", task: Task) -> None:
        task.timer = kernel.clock.schedule(self.delay, lambda: kernel.resume(task))


class _Park:
    """Awaitable: append the task to a waiter deque; woken externally."""

    __slots__ = ("waiters",)

    def __init__(self, waiters: deque) -> None:
        self.waiters = waiters

    def __await__(self):
        return (yield self)

    def block(self, kernel: "Kernel", task: Task) -> None:
        self.waiters.append(task)


class Kernel:
    """FIFO cooperative scheduler married to a discrete-event clock.

    The run loop drains the ready deque before firing the next clock
    event, so all consequences of one virtual instant settle before
    time advances — the async analogue of the clock's same-timestamp
    batched drain.
    """

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock or SimClock()
        self.tasks: list[Task] = []
        self._ready: deque[tuple[Task, Any]] = deque()

    # -- task management -------------------------------------------------------

    def spawn(self, coro: Coroutine, name: str) -> Task:
        """Register *coro* and schedule its first step."""
        task = Task(coro, name)
        self.tasks.append(task)
        self._ready.append((task, None))
        return task

    def resume(self, task: Task, value: Any = None) -> None:
        """Make a parked task runnable again (skips finished tasks)."""
        if not task.finished:
            self._ready.append((task, value))

    def sleep(self, delay: float) -> _Sleep:
        """Awaitable virtual-time sleep: ``await kernel.sleep(0.25)``."""
        return _Sleep(delay)

    # -- the run loop ----------------------------------------------------------

    def _advance(self, task: Task, value: Any) -> None:
        try:
            trap = task.coro.send(value)
        except StopIteration as stop:
            task.finished = True
            task.result = stop.value
            return
        trap.block(self, task)

    def run(self, until: Callable[[], bool] | None = None) -> None:
        """Drive tasks and clock until *until()* holds (or all finish).

        Raises :class:`KernelError` when tasks are parked but no clock
        event can ever wake them — a real deadlock (e.g. every producer
        blocked on a full queue whose consumers all exited).
        """
        ready = self._ready
        clock = self.clock
        while True:
            if until is not None and until():
                return
            if ready:
                task, value = ready.popleft()
                if not task.finished:
                    self._advance(task, value)
                continue
            if until is None and all(task.finished for task in self.tasks):
                return
            if not clock.step():
                parked = [t.name for t in self.tasks if not t.finished]
                if parked:
                    raise KernelError(
                        "deadlock: tasks parked with no pending events: "
                        f"{parked}"
                    )
                return

    def cancel_all(self) -> None:
        """Cancel every unfinished task and forget them all (plane
        teardown): nothing the tasks held stays reachable from here."""
        for task in self.tasks:
            task.cancel()
        self.tasks.clear()
        self._ready.clear()


class Queue:
    """A bounded FIFO queue with parking producers and consumers.

    ``put``/``get`` are the blocking (backpressuring) endpoints;
    ``try_put`` is the admission-control edge: it never parks, it
    reports a full backlog to the caller, who sheds or schedules a
    retry.  Wakeups are FIFO and spurious-wakeup-safe (woken tasks
    re-check the predicate), so contention resolves deterministically.
    """

    def __init__(self, kernel: Kernel, capacity: int, name: str) -> None:
        if capacity < 1:
            raise KernelError(f"queue {name!r} needs capacity >= 1")
        self.kernel = kernel
        self.capacity = capacity
        self.name = name
        self._items: deque = deque()
        self._getters: deque[Task] = deque()
        self._putters: deque[Task] = deque()
        self.total_enqueued = 0
        self.peak_depth = 0
        self.shed = 0  # try_put rejections (admission-control drops)

    # -- observability ---------------------------------------------------------

    @property
    def depth(self) -> int:
        """Items currently queued (the backlog gauge)."""
        return len(self._items)

    def clear(self) -> None:
        """Drop queued items and parked waiters (plane teardown); the
        lifetime counters stay."""
        self._items.clear()
        self._getters.clear()
        self._putters.clear()

    # -- the endpoints ---------------------------------------------------------

    def _wake_one(self, waiters: deque[Task]) -> None:
        while waiters:
            task = waiters.popleft()
            if not task.finished:
                self.kernel.resume(task)
                return

    def _accept(self, item: Any) -> None:
        self._items.append(item)
        self.total_enqueued += 1
        if len(self._items) > self.peak_depth:
            self.peak_depth = len(self._items)
        self._wake_one(self._getters)

    def try_put(self, item: Any) -> bool:
        """Enqueue unless the backlog is at capacity; never parks."""
        if len(self._items) >= self.capacity:
            self.shed += 1
            return False
        self._accept(item)
        return True

    async def put(self, item: Any) -> None:
        """Enqueue, parking (backpressure) while the queue is full."""
        while len(self._items) >= self.capacity:
            await _Park(self._putters)
        self._accept(item)

    async def get(self) -> Any:
        """Dequeue the oldest item, parking while the queue is empty."""
        while not self._items:
            await _Park(self._getters)
        item = self._items.popleft()
        self._wake_one(self._putters)
        return item
