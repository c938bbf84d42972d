"""A small discrete-event simulation kernel.

Several parts of the library (the DPP auto-scaler, the storage cluster,
the fleet utilization traces, the scenario-sweep runner) need to
advance virtual time and run callbacks in timestamp order.  The kernel
is built for throughput: heap entries are plain ``(time, seq, slot)``
tuples (tuple comparison is the fastest ordering CPython offers), and
callbacks live in a slot-indexed array on the side rather than inside
the heap entries.  Cancellation is *lazy* — a cancelled event's slot is
nulled and the heap entry is discarded whenever it surfaces — with a
compaction pass that rebuilds the heap once dead entries outnumber live
ones, so heavy cancel traffic (fleet worker-launch reshaping) cannot
bloat the queue.

Periodic processes (:meth:`SimClock.every`) are the fleet hot path — a
region simulation is overwhelmingly tick + control recurrences — so
they bypass the heap entirely: each lives in a side list holding its
closed-form next fire time, and every driver merge-fires the earliest
of (heap head, due periodic) in one batched drain loop.  A periodic
occurrence costs no heap push/pop; its reschedule is one float add.
Next fire times chain as ``now + interval`` (not ``t0 + k*interval``)
because the fleet's byte-identity pins and reference-oracle suites
require the exact IEEE-754 sums the self-rescheduling formulation
produced.

Deterministic FIFO tie-breaking at equal timestamps is preserved: the
monotonically increasing ``seq`` orders heap events and periodic
occurrences alike, and a periodic consumes a fresh seq exactly when it
reschedules — the same program points at which the old
schedule-per-occurrence formulation consumed them.
"""

from __future__ import annotations

import heapq
from typing import Callable

EventCallback = Callable[[], None]

#: Compaction below this many dead entries is not worth the heapify.
_COMPACT_MIN_DEAD = 64

_INF = float("inf")


class EventHandle:
    """Handle returned by :meth:`SimClock.schedule`, usable to cancel."""

    __slots__ = ("_clock", "_slot", "_seq", "_time")

    def __init__(self, clock: "SimClock", slot: int, seq: int, time: float) -> None:
        self._clock = clock
        self._slot = slot
        self._seq = seq
        self._time = time

    def cancel(self) -> None:
        """Prevent the event from firing if it has not fired yet.

        Slots are recycled once their event leaves the heap, so the
        handle's ``seq`` acts as a generation check: a late cancel on a
        fired (or already-cancelled) event is a harmless no-op even if
        the slot now hosts a different event.
        """
        clock = self._clock
        slot = self._slot
        if clock._slot_seq[slot] != self._seq or clock._callbacks[slot] is None:
            return
        clock._callbacks[slot] = None
        clock._live -= 1
        clock._dead += 1
        clock._maybe_compact()

    @property
    def time(self) -> float:
        """The virtual time the event is scheduled for."""
        return self._time


class _Periodic:
    """A recurring process in the clock's side list (no heap entries).

    ``next_time`` is the pending occurrence (``inf`` = none pending:
    stopped, exhausted past ``until``, or currently executing); ``seq``
    is the occurrence's FIFO tie-break against heap events, refreshed
    from the clock's counter at every reschedule.
    """

    __slots__ = ("interval", "callback", "until", "next_time", "seq", "stopped")

    def __init__(
        self,
        interval: float,
        callback: EventCallback,
        until: float | None,
        next_time: float,
        seq: int,
    ) -> None:
        self.interval = interval
        self.callback = callback
        self.until = until
        self.next_time = next_time
        self.seq = seq
        self.stopped = False


class PeriodicHandle:
    """Handle returned by :meth:`SimClock.every`, usable to stop the tick."""

    __slots__ = ("_clock", "_periodic")

    def __init__(self, clock: "SimClock", periodic: _Periodic) -> None:
        self._clock = clock
        self._periodic = periodic

    def cancel(self) -> None:
        """Stop the recurrence; the pending occurrence never fires."""
        periodic = self._periodic
        periodic.stopped = True
        periodic.next_time = _INF
        registry = self._clock._periodics
        if periodic in registry:
            registry.remove(periodic)

    @property
    def active(self) -> bool:
        """Whether the periodic process still has a pending occurrence."""
        periodic = self._periodic
        return not periodic.stopped and periodic.next_time < _INF


class SimClock:
    """Discrete-event clock with deterministic execution order."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = start
        self._heap: list[tuple[float, int, int]] = []
        self._next_seq = 0
        # Slot-indexed side arrays: the callback (None = cancelled or
        # fired) and the seq of the slot's current occupant (handles'
        # generation check).  Freed slots are recycled via a free list
        # so long runs do not grow the arrays without bound.
        self._callbacks: list[EventCallback | None] = []
        self._slot_seq: list[int] = []
        self._free_slots: list[int] = []
        # Recurring processes: scanned (it stays tiny — a fleet region
        # carries two) instead of heaped, so each occurrence fires and
        # reschedules without touching the heap.
        self._periodics: list[_Periodic] = []
        self._live = 0  # scheduled, not yet fired or cancelled
        self._dead = 0  # cancelled entries still sitting in the heap
        self._fired = 0  # events executed over the clock's lifetime
        # Optional telemetry hook, called as hook(time, callback) right
        # before each event fires.  Hoisted to a local by the drain
        # loop, so the disabled cost is one None check per event.
        self._trace_hook: Callable[[float, EventCallback], None] | None = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def set_trace_hook(
        self, hook: Callable[[float, EventCallback], None] | None
    ) -> None:
        """Install (or clear, with ``None``) the per-event telemetry hook.

        The hook must not schedule or cancel events.  The drain loop
        reads it once on entry, so installing mid-drain takes effect on
        the next :meth:`run`/:meth:`run_until`/:meth:`step` call.  For
        periodic events the hook receives the user callback itself.
        """
        self._trace_hook = hook

    def schedule(self, delay: float, callback: EventCallback) -> EventHandle:
        """Run *callback* after *delay* seconds of virtual time."""
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        seq = self._next_seq
        self._next_seq = seq + 1
        time = self._now + delay
        if self._free_slots:
            slot = self._free_slots.pop()
            self._callbacks[slot] = callback
            self._slot_seq[slot] = seq
        else:
            slot = len(self._callbacks)
            self._callbacks.append(callback)
            self._slot_seq.append(seq)
        heapq.heappush(self._heap, (time, seq, slot))
        self._live += 1
        return EventHandle(self, slot, seq, time)

    def schedule_at(self, when: float, callback: EventCallback) -> EventHandle:
        """Run *callback* at absolute virtual time *when*."""
        return self.schedule(when - self._now, callback)

    def every(
        self,
        interval: float,
        callback: EventCallback,
        *,
        until: float | None = None,
    ) -> PeriodicHandle:
        """Run *callback* every *interval* seconds, optionally until *until*.

        The callback runs first at ``now + interval``.  A callback that
        raises stops its own recurrence (the occurrence is consumed
        before the call and only restored after a clean return).  The
        returned :class:`PeriodicHandle` cancels the recurrence from
        outside.
        """
        if interval <= 0:
            raise ValueError("interval must be positive")
        first = self._now + interval
        periodic = _Periodic(interval, callback, until, first, 0)
        if until is None or first <= until:
            periodic.seq = self._next_seq
            self._next_seq += 1
            self._periodics.append(periodic)
        else:
            periodic.next_time = _INF
        return PeriodicHandle(self, periodic)

    # -- dead-entry hygiene ----------------------------------------------------

    def _maybe_compact(self) -> None:
        """Rebuild the heap once dead entries outnumber live ones.

        Lazy deletion alone lets a cancel-heavy workload carry a heap
        mostly full of corpses, inflating every push/pop.  Rebuilding is
        O(n) and amortizes to O(1) per cancel; the heap list is mutated
        in place because the batched drain loop holds a local alias.
        """
        if self._dead < _COMPACT_MIN_DEAD or self._dead * 2 <= len(self._heap):
            return
        callbacks = self._callbacks
        survivors = []
        free = self._free_slots
        for entry in self._heap:
            if callbacks[entry[2]] is not None:
                survivors.append(entry)
            else:
                free.append(entry[2])
        self._heap[:] = survivors
        heapq.heapify(self._heap)
        self._dead = 0

    # -- drivers ---------------------------------------------------------------

    def _drain(
        self,
        deadline: float,
        condition: Callable[[], bool] | None,
        max_events: int,
    ) -> int:
        """The one batched drain loop behind every driver.

        Merge-fires the earliest of (live heap head, due periodic) —
        FIFO at timestamp ties via seq — until the deadline, condition,
        event budget, or queue exhaustion stops it.  Returns the number
        of events fired (corpse discards excluded).
        """
        heap = self._heap
        callbacks = self._callbacks
        free = self._free_slots
        pop = heapq.heappop
        periodics = self._periodics
        trace = self._trace_hook
        fired = 0
        while True:
            # Fast lane: no recurrences registered, so the drain is a
            # pure heap pop loop with none of the merge bookkeeping.
            # A callback may register one mid-drain (the list alias
            # sees it), which drops us to the merge lane below.
            while not periodics:
                if fired >= max_events or not heap:
                    return fired
                head = heap[0]
                slot = head[2]
                callback = callbacks[slot]
                if callback is None:
                    pop(heap)
                    self._dead -= 1
                    free.append(slot)
                    continue
                time = head[0]
                if time > deadline:
                    return fired
                if condition is not None and not condition():
                    return fired
                pop(heap)
                callbacks[slot] = None
                free.append(slot)
                self._live -= 1
                self._fired += 1
                self._now = time
                if trace is not None:
                    trace(time, callback)
                callback()
                fired += 1
            # Merge lane: fire the earlier of (live heap head, due
            # periodic), FIFO at timestamp ties via seq.
            if fired >= max_events:
                return fired
            # Discard dead heap heads first: the *live* head is what
            # competes with periodics and the deadline.
            while heap:
                slot = heap[0][2]
                if callbacks[slot] is not None:
                    break
                pop(heap)
                self._dead -= 1
                free.append(slot)
            # Earliest pending periodic occurrence (linear scan: the
            # list is a handful of recurrences at most).
            due = None
            for periodic in periodics:
                if due is None or periodic.next_time < due.next_time or (
                    periodic.next_time == due.next_time
                    and periodic.seq < due.seq
                ):
                    due = periodic
            if due is not None and due.next_time == _INF:
                due = None
            if heap:
                head = heap[0]
                time = head[0]
                if due is not None and (
                    due.next_time < time
                    or (due.next_time == time and due.seq < head[1])
                ):
                    head = None
                    time = due.next_time
            elif due is not None:
                head = None
                time = due.next_time
            else:
                return fired
            if time > deadline:
                return fired
            if condition is not None and not condition():
                return fired
            if head is None:
                # Consume the occurrence before the callback so an
                # exception stops the recurrence; reschedule (and
                # consume a fresh seq) only on a clean return.
                due.next_time = _INF
                self._fired += 1
                self._now = time
                callback = due.callback
                if trace is not None:
                    trace(time, callback)
                callback()
                fired += 1
                if due.stopped:
                    continue
                next_time = self._now + due.interval
                if due.until is not None and next_time > due.until:
                    periodics.remove(due)
                    continue
                due.next_time = next_time
                due.seq = self._next_seq
                self._next_seq += 1
                # Bulk sublane: while this recurrence is provably the
                # sole runnable event, its occurrences fire in a tight
                # loop with the merge arbitration hoisted out.  The
                # window closes at the earliest *other* contender
                # (``>=``: at a timestamp tie the other side's older
                # seq wins, so arbitration must rerun), and any
                # callback mutation of the pending set — schedule,
                # cancel-compaction, every(), periodic cancel — moves
                # a list length and drops us back to the merge lane.
                # Occurrence timestamps, seq consumption, ``fired``,
                # and the per-event condition check are exactly the
                # merge lane's.
                h0 = len(heap)
                p0 = len(periodics)
                contest = _INF
                for other in periodics:
                    if other is not due and other.next_time < contest:
                        contest = other.next_time
                if heap and heap[0][0] < contest:
                    contest = heap[0][0]
                while fired < max_events:
                    time = due.next_time
                    if time >= contest or time > deadline:
                        break
                    if condition is not None and not condition():
                        return fired
                    due.next_time = _INF
                    self._fired += 1
                    self._now = time
                    if trace is not None:
                        trace(time, callback)
                    callback()
                    fired += 1
                    if due.stopped:
                        break
                    next_time = self._now + due.interval
                    if due.until is not None and next_time > due.until:
                        periodics.remove(due)
                        break
                    due.next_time = next_time
                    due.seq = self._next_seq
                    self._next_seq += 1
                    if len(heap) != h0 or len(periodics) != p0:
                        break
            else:
                pop(heap)
                slot = head[2]
                callback = callbacks[slot]
                callbacks[slot] = None
                free.append(slot)
                self._live -= 1
                self._fired += 1
                self._now = time
                if trace is not None:
                    trace(time, callback)
                callback()
                fired += 1

    def step(self) -> bool:
        """Fire the next pending event.  Returns False if none remain."""
        return self._drain(_INF, None, 1) == 1

    def run_until(self, deadline: float) -> None:
        """Fire events in order until virtual time reaches *deadline*.

        Batched drain: same-timestamp runs (a fleet's tick + control
        landing together, a burst of arrivals) fire back to back in one
        inline loop without re-entering :meth:`step`.  Events at
        exactly *deadline* fire; later ones stay queued.
        """
        self._drain(deadline, None, 0x7FFFFFFFFFFFFFFF)
        self._now = max(self._now, deadline)

    def run_while(
        self, condition: Callable[[], bool], max_events: int = 1_000_000
    ) -> int:
        """Drain events inline while *condition()* holds; returns fired count.

        The batched counterpart of a ``while condition() and clock.step()``
        driver loop: *condition* is consulted once per live event, but the
        heap/callback plumbing stays in one tight loop instead of paying
        :meth:`step`'s re-entry (attribute reads, bound-method call) per
        event.  Event order, timestamps, and the fired count are identical
        to the step-driven loop — this is the fleet hot path's drain.
        """
        return self._drain(_INF, condition, max_events)

    def run(self, max_events: int = 1_000_000) -> int:
        """Drain the event queue; returns the number of events fired.

        *max_events* guards against runaway self-rescheduling processes.
        """
        fired = self._drain(_INF, None, max_events)
        # Guard on live events, not the physical heap: lazily-deleted
        # corpses below the compaction threshold may outlast the last
        # real event.
        if fired >= max_events and self.pending:
            raise RuntimeError(f"simulation exceeded {max_events} events")
        return fired

    @property
    def pending(self) -> int:
        """Number of scheduled (uncancelled) events still in the queue."""
        live = self._live
        for periodic in self._periodics:
            # An entry with no pending occurrence (mid-callback, or a
            # recurrence killed by its own exception) is not an event.
            if periodic.next_time < _INF:
                live += 1
        return live

    @property
    def fired(self) -> int:
        """Events executed over the clock's lifetime (cancellations
        excluded) — the denominator of events-per-second metrics."""
        return self._fired
