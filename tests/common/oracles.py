"""Reference implementations the common kernels are tested against.

``OracleSimClock`` is ``repro.common.simclock.SimClock`` written the
plainest way: every pending occurrence — a one-shot event or the next
occurrence of a recurrence — sits in one list, and each firing sorts
that list by ``(time, seq)`` and takes the head.  No heap, no lazy
deletion or compaction, no periodic side list.  What it must share with
the production clock is the contract: FIFO at equal times by one
sequence counter, which a recurrence consumes whenever it
(re)schedules; times as the exact sums
``now + delay`` and ``now + interval``; an occurrence consumed before
its callback runs, so a raising callback is still counted as fired and
a raising recurrence stops; and where ``step``, ``run``, ``run_until``
and ``run_while`` each stop.
"""

_INF = float("inf")


class _Entry:
    """One pending occurrence; ``interval`` is None for a one-shot event."""

    def __init__(self, time, seq, callback, interval=None, until=None):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.interval = interval
        self.until = until
        self.pending = False
        self.stopped = False


class OracleEventHandle:
    def __init__(self, clock, entry):
        self._clock = clock
        self._entry = entry

    def cancel(self):
        if self._entry.pending:
            self._clock._remove(self._entry)

    @property
    def time(self):
        return self._entry.time


class OraclePeriodicHandle:
    def __init__(self, clock, entry):
        self._clock = clock
        self._entry = entry

    def cancel(self):
        self._entry.stopped = True
        if self._entry.pending:
            self._clock._remove(self._entry)

    @property
    def active(self):
        return not self._entry.stopped and self._entry.pending


class OracleSimClock:
    """Discrete-event clock: one list, sorted at every firing."""

    def __init__(self, start=0.0):
        self.now = start
        self.fired = 0
        self._seq = 0
        self._entries = []

    def _next_seq(self):
        seq = self._seq
        self._seq += 1
        return seq

    def _add(self, entry):
        entry.pending = True
        self._entries.append(entry)

    def _remove(self, entry):
        entry.pending = False
        self._entries.remove(entry)

    @property
    def pending(self):
        return len(self._entries)

    def schedule(self, delay, callback):
        if delay < 0:
            raise ValueError("cannot schedule events in the past")
        entry = _Entry(self.now + delay, self._next_seq(), callback)
        self._add(entry)
        return OracleEventHandle(self, entry)

    def schedule_at(self, when, callback):
        return self.schedule(when - self.now, callback)

    def every(self, interval, callback, *, until=None):
        if interval <= 0:
            raise ValueError("interval must be positive")
        entry = _Entry(self.now + interval, 0, callback, interval, until)
        if until is None or entry.time <= until:
            entry.seq = self._next_seq()
            self._add(entry)
        return OraclePeriodicHandle(self, entry)

    def _drain(self, deadline, condition, max_events):
        fired = 0
        while fired < max_events and self._entries:
            entry = sorted(self._entries, key=lambda e: (e.time, e.seq))[0]
            if entry.time > deadline:
                break
            if condition is not None and not condition():
                break
            self._remove(entry)
            self.fired += 1
            fired += 1
            self.now = entry.time
            entry.callback()
            if entry.interval is None or entry.stopped:
                continue
            next_time = self.now + entry.interval
            if entry.until is not None and next_time > entry.until:
                continue
            entry.time = next_time
            entry.seq = self._next_seq()
            self._add(entry)
        return fired

    def step(self):
        return self._drain(_INF, None, 1) == 1

    def run_until(self, deadline):
        self._drain(deadline, None, 0x7FFFFFFFFFFFFFFF)
        self.now = max(self.now, deadline)

    def run_while(self, condition, max_events=1_000_000):
        return self._drain(_INF, condition, max_events)

    def run(self, max_events=1_000_000):
        fired = self._drain(_INF, None, max_events)
        if fired >= max_events and self.pending:
            raise RuntimeError(f"simulation exceeded {max_events} events")
        return fired
