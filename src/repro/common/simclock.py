"""A small discrete-event simulation kernel.

Several parts of the library (the DPP auto-scaler, the storage cluster,
the fleet utilization traces, the scenario-sweep runner) need to
advance virtual time and run callbacks in timestamp order.  One-shot
events live in a binary heap of mutable ``[time, seq, callback]``
entries; the :class:`EventHandle` returned by :meth:`SimClock.schedule`
holds its entry.  Cancellation is *lazy* — a cancelled entry's callback
is nulled and the entry is discarded whenever it surfaces — and a fired
entry is nulled the same way, so a late cancel is a no-op.  Once dead
entries outnumber live ones the heap is filtered and rebuilt, so heavy
cancel traffic (fleet worker-launch reshaping) cannot bloat the queue.

Periodic processes (:meth:`SimClock.every`) — a fleet region is
overwhelmingly tick + control recurrences — bypass the heap: each lives
in a small side list holding its next fire time, and the one drain loop
fires the earlier of (live heap head, due periodic).  A periodic
occurrence costs no heap push/pop; its reschedule is one float add.
Next fire times chain as ``now + interval`` (not ``t0 + k*interval``)
because the fleet's byte-identity pins and reference-oracle suites
require the exact IEEE-754 sums the self-rescheduling formulation
produced.

Deterministic FIFO tie-breaking at equal timestamps is preserved: the
monotonically increasing ``seq`` orders heap events and periodic
occurrences alike, and a periodic consumes a fresh seq exactly when it
reschedules — the same program points at which a
schedule-per-occurrence formulation would consume them.
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

    __slots__ = ("_clock", "_entry")

    def __init__(self, clock: "SimClock", entry: list) -> None:
        self._clock = clock
        self._entry = entry

    def cancel(self) -> None:
        """Prevent the event from firing if it has not fired yet.

        A fired (or already-cancelled) entry's callback is ``None``, so
        a late cancel is a harmless no-op.
        """
        entry = self._entry
        if entry[2] is None:
            return
        entry[2] = None
        clock = self._clock
        clock._live -= 1
        clock._dead += 1
        clock._maybe_compact()

    @property
    def time(self) -> float:
        """The virtual time the event is scheduled for."""
        return self._entry[0]


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
        """Stop the recurrence; the pending occurrence never fires, and
        the callback is released."""
        periodic = self._periodic
        periodic.stopped = True
        periodic.next_time = _INF
        periodic.callback = None
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
        # [time, seq, callback] entries; callback None = cancelled/fired.
        self._heap: list[list] = []
        self._next_seq = 0
        # Recurring processes: scanned (it stays tiny — a fleet region
        # carries two) instead of heaped, so each occurrence fires and
        # reschedules without touching the heap.
        self._periodics: list[_Periodic] = []
        self._live = 0  # scheduled, not yet fired or cancelled
        self._dead = 0  # cancelled entries still sitting in the heap
        self._fired = 0  # events executed over the clock's lifetime

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    def schedule(self, delay: float, callback: EventCallback) -> EventHandle:
        """Run *callback* after *delay* seconds of virtual time."""
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        seq = self._next_seq
        self._next_seq = seq + 1
        entry = [self._now + delay, seq, callback]
        heapq.heappush(self._heap, entry)
        self._live += 1
        return EventHandle(self, entry)

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
        in place because the drain loop holds a local alias.
        """
        if self._dead < _COMPACT_MIN_DEAD or self._dead * 2 <= len(self._heap):
            return
        self._heap[:] = [entry for entry in self._heap if entry[2] is not None]
        heapq.heapify(self._heap)
        self._dead = 0

    # -- drivers ---------------------------------------------------------------

    def _drain(
        self,
        deadline: float,
        condition: Callable[[], bool] | None,
        max_events: int,
    ) -> int:
        """The one drain loop behind every driver.

        Fires the earliest of (live heap head, due periodic) — FIFO at
        timestamp ties via seq — until the deadline, condition, event
        budget, or queue exhaustion stops it.  Returns the number of
        events fired (corpse discards excluded).
        """
        heap = self._heap
        pop = heapq.heappop
        periodics = self._periodics
        fired = 0
        while fired < max_events:
            # Discard dead heap heads first: the *live* head is what
            # competes with periodics and the deadline.
            while heap and heap[0][2] is None:
                pop(heap)
                self._dead -= 1
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
                entry = heap[0]
                time = entry[0]
                if due is not None and (
                    due.next_time < time
                    or (due.next_time == time and due.seq < entry[1])
                ):
                    entry = None
                    time = due.next_time
            elif due is not None:
                entry = None
                time = due.next_time
            else:
                return fired
            if time > deadline:
                return fired
            if condition is not None and not condition():
                return fired
            if entry is None:
                # Consume the occurrence before the callback so an
                # exception stops the recurrence; reschedule (and
                # consume a fresh seq) only on a clean return.
                due.next_time = _INF
                callback = due.callback
            else:
                pop(heap)
                callback = entry[2]
                entry[2] = None
                self._live -= 1
            self._fired += 1
            self._now = time
            callback()
            fired += 1
            if entry is not None or due.stopped:
                continue
            next_time = self._now + due.interval
            if due.until is not None and next_time > due.until:
                periodics.remove(due)
                continue
            due.next_time = next_time
            due.seq = self._next_seq
            self._next_seq += 1
        return fired

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
