"""Discrete-event simulation kernel."""

import pytest

from repro.common.simclock import SimClock


class TestScheduling:
    def test_events_fire_in_time_order(self):
        clock = SimClock()
        fired = []
        clock.schedule(3.0, lambda: fired.append("c"))
        clock.schedule(1.0, lambda: fired.append("a"))
        clock.schedule(2.0, lambda: fired.append("b"))
        clock.run()
        assert fired == ["a", "b", "c"]

    def test_fifo_tie_break(self):
        clock = SimClock()
        fired = []
        for tag in "abc":
            clock.schedule(1.0, lambda t=tag: fired.append(t))
        clock.run()
        assert fired == ["a", "b", "c"]

    def test_now_advances_to_event_time(self):
        clock = SimClock()
        seen = []
        clock.schedule(5.0, lambda: seen.append(clock.now))
        clock.run()
        assert seen == [5.0]
        assert clock.now == 5.0

    def test_schedule_at_absolute_time(self):
        clock = SimClock(start=10.0)
        seen = []
        clock.schedule_at(12.5, lambda: seen.append(clock.now))
        clock.run()
        assert seen == [12.5]

    def test_negative_delay_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.schedule(-1.0, lambda: None)

    def test_events_scheduled_during_run(self):
        clock = SimClock()
        fired = []

        def first():
            fired.append("first")
            clock.schedule(1.0, lambda: fired.append("second"))

        clock.schedule(1.0, first)
        clock.run()
        assert fired == ["first", "second"]
        assert clock.now == 2.0


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        clock = SimClock()
        fired = []
        handle = clock.schedule(1.0, lambda: fired.append("x"))
        handle.cancel()
        clock.run()
        assert fired == []

    def test_cancelled_events_not_pending(self):
        clock = SimClock()
        handle = clock.schedule(1.0, lambda: None)
        clock.schedule(2.0, lambda: None)
        handle.cancel()
        assert clock.pending == 1

    def test_cancel_from_earlier_event_mid_run(self):
        # The fleet plane cancels in-flight worker launches: an event
        # already in the heap must be suppressible by an earlier event.
        clock = SimClock()
        fired = []
        victim = clock.schedule(5.0, lambda: fired.append("victim"))
        clock.schedule(1.0, lambda: victim.cancel())
        clock.schedule(6.0, lambda: fired.append("survivor"))
        clock.run()
        assert fired == ["survivor"]
        assert clock.now == 6.0

    def test_cancel_after_firing_is_harmless(self):
        clock = SimClock()
        fired = []
        handle = clock.schedule(1.0, lambda: fired.append("x"))
        clock.run()
        handle.cancel()  # no-op: already fired
        assert fired == ["x"]
        assert clock.pending == 0

    def test_double_cancel_is_idempotent(self):
        clock = SimClock()
        handle = clock.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert clock.run() == 0

    def test_handle_reports_scheduled_time(self):
        clock = SimClock(start=3.0)
        handle = clock.schedule(2.0, lambda: None)
        assert handle.time == 5.0

    def test_run_until_respects_deadline_past_cancelled_head(self):
        # A cancelled event at the heap head must not let run_until
        # fire a live event scheduled beyond the deadline.
        clock = SimClock()
        fired = []
        clock.schedule(5.0, lambda: fired.append("dead")).cancel()
        clock.schedule(50.0, lambda: fired.append("future"))
        clock.run_until(10.0)
        assert fired == []
        assert clock.now == 10.0
        clock.run()
        assert fired == ["future"]

    def test_step_skips_cancelled_to_next_live_event(self):
        clock = SimClock()
        fired = []
        clock.schedule(1.0, lambda: None).cancel()
        clock.schedule(2.0, lambda: fired.append("live"))
        assert clock.step() is True
        assert fired == ["live"]
        assert clock.now == 2.0


class TestPeriodic:
    def test_every_until_deadline(self):
        clock = SimClock()
        ticks = []
        clock.every(1.0, lambda: ticks.append(clock.now), until=5.0)
        clock.run()
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_every_requires_positive_interval(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.every(0.0, lambda: None)

    def test_run_until_stops_midway(self):
        clock = SimClock()
        ticks = []
        clock.every(1.0, lambda: ticks.append(clock.now), until=10.0)
        clock.run_until(3.5)
        assert ticks == [1.0, 2.0, 3.0]
        assert clock.now == 3.5

    def test_runaway_guard(self):
        clock = SimClock()
        clock.every(1.0, lambda: None)  # no until: infinite recurrence
        with pytest.raises(RuntimeError):
            clock.run(max_events=100)

    def test_periodic_reschedules_relative_to_fire_time(self):
        # A tick delayed past its slot (events at the same timestamp
        # run FIFO) still reschedules from *now*, keeping the cadence.
        clock = SimClock()
        ticks = []
        clock.every(2.0, lambda: ticks.append(clock.now), until=6.0)
        clock.run()
        assert ticks == [2.0, 4.0, 6.0]

    def test_raising_periodic_stops_its_own_recurrence(self):
        clock = SimClock()
        ticks = []

        def explode():
            ticks.append(clock.now)
            raise ValueError("stop")

        clock.every(1.0, explode, until=10.0)
        with pytest.raises(ValueError):
            clock.run()
        assert ticks == [1.0]
        assert clock.pending == 0  # never rescheduled

    def test_a_raised_recurrence_is_never_fired_again(self):
        # The stopped recurrence stays registered with no pending
        # occurrence: later drains fire other events and never it.
        clock = SimClock()
        fired = []

        def explode():
            fired.append(clock.now)
            raise ValueError("stop")

        clock.every(1.0, explode)
        with pytest.raises(ValueError):
            clock.run()
        clock.schedule(2.0, lambda: fired.append(clock.now))
        assert clock.run() == 1
        assert clock.run() == 0
        assert clock.step() is False
        assert fired == [1.0, 3.0]
        assert clock.now == 3.0

    def test_until_boundary_inclusive_then_stops(self):
        clock = SimClock()
        ticks = []
        clock.every(1.0, lambda: ticks.append(clock.now), until=3.0)
        clock.run()
        assert ticks == [1.0, 2.0, 3.0]
        assert clock.pending == 0

    def test_two_periodic_processes_interleave_deterministically(self):
        # Fleet tick + controller processes at a coincident timestamp
        # fire in *scheduling* order: the control event entered the
        # heap at registration (t=0), the second tick only when the
        # first fired (t=1), so control wins the t=2 tie.
        clock = SimClock()
        order = []
        clock.every(1.0, lambda: order.append("tick"), until=2.0)
        clock.every(2.0, lambda: order.append("control"), until=2.0)
        clock.run()
        assert order == ["tick", "control", "tick"]


class TestFifoTieBreaking:
    def test_ties_fire_in_schedule_order_across_sources(self):
        clock = SimClock()
        fired = []
        clock.schedule(2.0, lambda: fired.append("first-scheduled"))
        clock.schedule(1.0, lambda: clock.schedule(1.0, lambda: fired.append("nested")))
        clock.schedule(2.0, lambda: fired.append("second-scheduled"))
        clock.run()
        # Both pre-scheduled events beat the one created at t=1.0 even
        # though all three share timestamp 2.0.
        assert fired == ["first-scheduled", "second-scheduled", "nested"]

    def test_cancellation_preserves_order_of_survivors(self):
        clock = SimClock()
        fired = []
        handles = [
            clock.schedule(1.0, lambda tag=tag: fired.append(tag))
            for tag in "abcd"
        ]
        handles[1].cancel()
        handles[2].cancel()
        clock.run()
        assert fired == ["a", "d"]


class TestPeriodicHandle:
    def test_every_returns_cancellable_handle(self):
        clock = SimClock()
        ticks = []
        handle = clock.every(1.0, lambda: ticks.append(clock.now))
        clock.schedule(3.5, handle.cancel)
        clock.run()
        assert ticks == [1.0, 2.0, 3.0]
        assert clock.pending == 0

    def test_cancel_before_first_tick(self):
        clock = SimClock()
        ticks = []
        handle = clock.every(5.0, lambda: ticks.append(clock.now))
        handle.cancel()
        assert clock.run() == 0
        assert ticks == []

    def test_cancel_from_within_callback_stops_recurrence(self):
        clock = SimClock()
        ticks = []
        handle = clock.every(1.0, lambda: (ticks.append(clock.now), handle.cancel()))
        clock.run()
        assert ticks == [1.0]
        assert clock.pending == 0

    def test_handle_active_reflects_pending_occurrence(self):
        clock = SimClock()
        handle = clock.every(1.0, lambda: None, until=2.0)
        assert handle.active
        clock.run()
        assert not handle.active

    def test_cancel_is_idempotent(self):
        clock = SimClock()
        handle = clock.every(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert clock.pending == 0


class TestPendingCounter:
    def test_pending_counts_without_heap_scan(self):
        clock = SimClock()
        handles = [clock.schedule(float(i + 1), lambda: None) for i in range(100)]
        assert clock.pending == 100
        for handle in handles[::2]:
            handle.cancel()
        assert clock.pending == 50
        clock.run()
        assert clock.pending == 0

    def test_pending_tracks_fires_and_reschedules(self):
        clock = SimClock()
        clock.schedule(1.0, lambda: clock.schedule(1.0, lambda: None))
        assert clock.pending == 1
        clock.step()
        assert clock.pending == 1
        clock.step()
        assert clock.pending == 0

    def test_double_cancel_does_not_undercount(self):
        clock = SimClock()
        keep = clock.schedule(2.0, lambda: None)
        victim = clock.schedule(1.0, lambda: None)
        victim.cancel()
        victim.cancel()
        assert clock.pending == 1
        keep.cancel()
        assert clock.pending == 0


class TestStep:
    def test_step_returns_false_when_empty(self):
        assert SimClock().step() is False

    def test_step_fires_single_event(self):
        clock = SimClock()
        fired = []
        clock.schedule(1.0, lambda: fired.append(1))
        clock.schedule(2.0, lambda: fired.append(2))
        assert clock.step() is True
        assert fired == [1]


class TestLazyDeletionCompaction:
    def test_cancel_heavy_workload_compacts_heap(self):
        # Cancelling most of a large schedule must shrink the physical
        # heap (lazy deletion + compaction), not just mark corpses.
        clock = SimClock()
        handles = [clock.schedule(float(i + 1), lambda: None) for i in range(1000)]
        for handle in handles[:900]:
            handle.cancel()
        assert clock.pending == 100
        assert len(clock._heap) < 500  # compaction ran
        assert clock.run() == 100

    def test_compaction_preserves_order_and_counts(self):
        clock = SimClock()
        fired = []
        keepers = []
        for i in range(500):
            handle = clock.schedule(float(i), lambda i=i: fired.append(i))
            if i % 5:
                handle.cancel()
            else:
                keepers.append(i)
        assert clock.run() == len(keepers)
        assert fired == keepers

    def test_compaction_mid_run_from_callback(self):
        # A callback cancelling en masse triggers compaction while the
        # drain loop holds its alias to the heap list.
        clock = SimClock()
        fired = []
        victims = [clock.schedule(10.0 + i, lambda: fired.append("victim"))
                   for i in range(200)]
        clock.schedule(1.0, lambda: [v.cancel() for v in victims])
        clock.schedule(300.0, lambda: fired.append("survivor"))
        clock.run()
        assert fired == ["survivor"]

    def test_slot_reuse_does_not_cross_cancel(self):
        # A stale handle must not cancel the unrelated event scheduled
        # after its own fired.
        clock = SimClock()
        fired = []
        stale = clock.schedule(1.0, lambda: fired.append("first"))
        clock.run()
        clock.schedule(1.0, lambda: fired.append("second"))
        stale.cancel()  # no-op: its event already fired
        clock.run()
        assert fired == ["first", "second"]


class TestFiredCounter:
    def test_counts_across_drivers(self):
        clock = SimClock()
        for i in range(3):
            clock.schedule(float(i + 1), lambda: None)
        clock.step()
        assert clock.fired == 1
        clock.run_until(2.0)
        assert clock.fired == 2
        clock.run()
        assert clock.fired == 3

    def test_cancelled_events_not_counted(self):
        clock = SimClock()
        clock.schedule(1.0, lambda: None).cancel()
        clock.schedule(2.0, lambda: None)
        clock.run()
        assert clock.fired == 1

    def test_run_with_corpses_at_max_events_boundary(self):
        # Cancelled corpses below the compaction threshold outlast the
        # last live event; run() must not mistake them for livelock.
        clock = SimClock()
        for i in range(5):
            clock.schedule(float(i + 1), lambda: None)
        clock.schedule(10.0, lambda: None).cancel()
        assert clock.run(max_events=5) == 5
        assert clock.pending == 0


class TestRunWhileBatchedDrain:
    """Edge cases of the merged heap + periodic drain under run_while."""

    def test_cancel_fired_mid_batch_skips_the_corpse(self):
        # An event fired inside the batch cancels a later pending one;
        # the drain must treat the fresh corpse as dead, not fire it.
        clock = SimClock()
        fired = []
        victim = clock.schedule(5.0, lambda: fired.append("victim"))
        clock.schedule(1.0, lambda: victim.cancel())
        clock.schedule(6.0, lambda: fired.append("survivor"))
        assert clock.run_while(lambda: True) == 2
        assert fired == ["survivor"]
        assert clock.fired == 2

    def test_periodic_cancelled_mid_batch_by_heap_event(self):
        # A one-shot event at the same timestamp (earlier seq) cancels
        # the periodic's already-due occurrence: it must not fire.
        clock = SimClock()
        ticks = []
        handle = clock.every(2.0, lambda: ticks.append(clock.now))
        clock.schedule_at(4.0, handle.cancel)  # seq 1 < the t=4 tick's
        clock.run_while(lambda: True)
        assert ticks == [2.0]
        assert clock.pending == 0

    def test_zero_interval_periodic_rejected(self):
        clock = SimClock()
        with pytest.raises(ValueError):
            clock.every(0.0, lambda: None)
        with pytest.raises(ValueError):
            clock.every(-1.0, lambda: None)
        # The failed registrations leave no pending occurrence behind.
        assert clock.pending == 0
        assert clock.run_while(lambda: True) == 0

    def test_compaction_inside_batch_preserves_drain(self):
        # A callback cancelling en masse triggers heap compaction while
        # run_while holds its local alias; survivors must still fire in
        # order alongside a periodic recurrence.
        clock = SimClock()
        fired = []
        victims = [
            clock.schedule(10.0 + i, lambda: fired.append("victim"))
            for i in range(200)
        ]
        clock.schedule(1.0, lambda: [v.cancel() for v in victims])
        clock.every(100.0, lambda: fired.append(("tick", clock.now)), until=300.0)
        clock.schedule(250.0, lambda: fired.append("survivor"))
        count = clock.run_while(lambda: True)
        assert fired == [
            ("tick", 100.0), ("tick", 200.0), "survivor", ("tick", 300.0),
        ]
        assert count == 5  # the cancel event + two ticks + survivor + tick
        assert len(clock._heap) < 200  # compaction ran mid-batch

    def test_fired_counter_matches_step_loop_with_periodics(self):
        # The merged periodic+heap drain must count exactly what the
        # unbatched step() driver counts, event for event.
        def build():
            clock = SimClock()
            log = []
            clock.every(1.5, lambda: log.append(("p", clock.now)), until=9.0)
            clock.every(2.0, lambda: log.append(("q", clock.now)), until=8.0)
            for i in range(5):
                clock.schedule(float(i * 2 + 1), lambda i=i: log.append(("e", i)))
            clock.schedule(3.0, lambda: None).cancel()
            return clock, log

        stepped, step_log = build()
        steps = 0
        while stepped.step():
            steps += 1

        batched, batch_log = build()
        count = batched.run_while(lambda: True)
        assert count == steps
        assert batch_log == step_log
        assert batched.fired == stepped.fired
        assert batched.now == stepped.now
        assert batched.pending == stepped.pending == 0

    def test_condition_stops_between_periodic_occurrences(self):
        clock = SimClock()
        ticks = []
        clock.every(1.0, lambda: ticks.append(clock.now))
        assert clock.run_while(lambda: len(ticks) < 3) == 3
        assert ticks == [1.0, 2.0, 3.0]
        assert clock.pending == 1  # the recurrence is still live
        assert clock.run_while(lambda: len(ticks) < 4) == 1
        assert ticks[-1] == 4.0


class TestBulkPeriodicSublane:
    """One recurrence firing back to back as the only runnable event.

    Callbacks that mutate the pending set mid-run — schedule, cancel,
    ``every()``, exhaustion past ``until`` — must leave order,
    timestamps, and the fired counter exactly as the step loop has them.
    """

    def test_self_cancel_mid_bulk_stops_recurrence(self):
        clock = SimClock()
        ticks = []
        handle = clock.every(1.0, lambda: ticks.append(clock.now))

        def tick():
            ticks.append(clock.now)
            if len(ticks) == 5:
                handle.cancel()

        handle._periodic.callback = tick  # rebind body, keep handle
        clock.schedule(100.0, lambda: ticks.append("late"))
        clock.run_while(lambda: True)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0, "late"]
        assert clock.pending == 0

    def test_heap_event_scheduled_into_the_window_fires_in_order(self):
        # A recurrence's callback schedules a one-shot landing between
        # its upcoming occurrences: the one-shot fires at its proper
        # slot.
        clock = SimClock()
        log = []

        def tick():
            log.append(("tick", clock.now))
            if clock.now == 2.0:
                clock.schedule(1.5, lambda: log.append(("shot", clock.now)))

        clock.every(1.0, tick)
        clock.run_while(lambda: len(log) < 6)
        assert log == [
            ("tick", 1.0), ("tick", 2.0), ("tick", 3.0),
            ("shot", 3.5), ("tick", 4.0), ("tick", 5.0),
        ]

    def test_periodic_registered_mid_bulk_interleaves(self):
        clock = SimClock()
        log = []

        def tick():
            log.append(("a", clock.now))
            if clock.now == 2.0:
                clock.every(2.0, lambda: log.append(("b", clock.now)))

        clock.every(1.0, tick)
        clock.run_while(lambda: len(log) < 6)
        assert log == [
            ("a", 1.0), ("a", 2.0), ("a", 3.0),
            ("b", 4.0), ("a", 4.0), ("a", 5.0),
        ]

    def test_until_exhaustion_inside_bulk(self):
        clock = SimClock()
        ticks = []
        clock.every(1.0, lambda: ticks.append(clock.now), until=4.0)
        clock.schedule(10.0, lambda: ticks.append("late"))
        assert clock.run_while(lambda: True) == 5
        assert ticks == [1.0, 2.0, 3.0, 4.0, "late"]

    def test_timestamp_tie_at_window_edge_respects_seq(self):
        # Occurrences of two recurrences collide at t=6: the earlier
        # registration's (older-seq) occurrence must fire first even
        # though the faster periodic has been firing alone up to it.
        clock = SimClock()
        log = []
        clock.every(6.0, lambda: log.append(("slow", clock.now)))
        clock.every(2.0, lambda: log.append(("fast", clock.now)))
        clock.run_while(lambda: len(log) < 4)
        assert log == [
            ("fast", 2.0), ("fast", 4.0), ("slow", 6.0), ("fast", 6.0),
        ]

    def test_bulk_run_matches_step_loop_exactly(self):
        def build():
            clock = SimClock()
            log = []
            clock.every(1.0, lambda: log.append(("p", clock.now)), until=50.0)
            clock.schedule(17.5, lambda: log.append(("e", clock.now)))
            return clock, log

        stepped, step_log = build()
        while stepped.step():
            pass
        batched, batch_log = build()
        batched.run_while(lambda: True)
        assert batch_log == step_log
        assert batched.fired == stepped.fired
        assert batched.now == stepped.now


class TestRunWhile:
    def test_matches_step_driven_loop_exactly(self):
        def build():
            clock = SimClock()
            fired = []

            def chain(label, hops):
                def hop():
                    fired.append((clock.now, label))
                    if len([f for f in fired if f[1] == label]) < hops:
                        clock.schedule(1.0, hop)

                clock.schedule(1.0, hop)

            chain("a", 5)
            chain("b", 3)
            clock.schedule(2.5, lambda: fired.append((clock.now, "mid")))
            return clock, fired

        reference, ref_fired = build()
        steps = 0
        while len(ref_fired) < 7 and reference.step():
            steps += 1

        batched, batch_fired = build()
        count = batched.run_while(lambda: len(batch_fired) < 7)
        assert count == steps
        assert batch_fired == ref_fired
        assert batched.now == reference.now
        assert batched.fired == reference.fired

    def test_condition_checked_before_each_event(self):
        clock = SimClock()
        fired = []
        for i in range(4):
            clock.schedule(float(i + 1), lambda i=i: fired.append(i))
        assert clock.run_while(lambda: len(fired) < 2) == 2
        assert fired == [0, 1]
        assert clock.pending == 2  # untouched tail stays on the heap

    def test_max_events_bounds_the_drain(self):
        clock = SimClock()

        def reschedule():
            clock.schedule(1.0, reschedule)

        clock.schedule(1.0, reschedule)
        assert clock.run_while(lambda: True, max_events=10) == 10
        assert clock.pending == 1

    def test_skips_cancelled_corpses(self):
        clock = SimClock()
        fired = []
        clock.schedule(1.0, lambda: None).cancel()
        clock.schedule(2.0, lambda: fired.append("live"))
        assert clock.run_while(lambda: True) == 1
        assert fired == ["live"]
        assert clock.fired == 1
