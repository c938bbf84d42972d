"""``SimClock`` against a naive sorted-list clock on generated programs.

A program is a list of top-level steps — schedule, schedule_at, every,
cancel either kind of handle, or drive the clock with ``step``,
``run_until``, ``run_while`` or ``run`` — and, per callback label, what
that callback does when it fires: log ``(label, now)``, then schedule,
cancel or start recurrences itself, and possibly raise.  Both clocks
run the same program; the log (fired order and times), the return
value or exception of every call that runs the clock, ``now``,
``fired``, ``pending`` and every handle's ``time``/``active`` must be
equal after each step.  Delays and
intervals are drawn from a few values so that equal timestamps — where
FIFO order by sequence number decides — are common, and from values
like 0.1 whose sums are inexact, so the clocks must add in the same
order.  The oracle is ``tests/common/oracles.py``.
"""

from hypothesis import given, settings, strategies as st

from repro.common.simclock import SimClock

from .oracles import OracleSimClock

DELAYS = (0.0, 0.1, 0.25, 0.5, 1.0, 1.0, 2.0, 3.3)
INTERVALS = (0.1, 0.25, 0.5, 1.0, 1.5)
LABELS = 6
#: Reactions run by fired callbacks, per program run: keeps cascades finite.
REACTION_BUDGET = 60


class Boom(Exception):
    pass


def actions():
    label = st.integers(0, LABELS - 1)
    return st.one_of(
        st.tuples(st.just("schedule"), st.sampled_from(DELAYS + (-0.5,)), label),
        st.tuples(st.just("schedule_at"), st.sampled_from(DELAYS + (-1.0,)), label),
        st.tuples(
            st.just("every"),
            st.sampled_from(INTERVALS + (0.0,)),
            st.none() | st.sampled_from((0.0, 0.25, 0.5, 1.0, 2.5)),
            label,
        ),
        st.tuples(st.just("cancel"), st.integers(0, 30)),
        st.tuples(st.just("stop"), st.integers(0, 30)),
    )


def runs():
    return st.one_of(
        st.tuples(st.just("step")),
        st.tuples(st.just("run_until"), st.sampled_from((0.0, 0.5, 1.0, 2.2, 5.0))),
        st.tuples(st.just("run_while"), st.integers(0, 12), st.integers(0, 20)),
        st.tuples(st.just("run"), st.integers(0, 40)),
    )


programs = st.fixed_dictionaries(
    {
        "steps": st.lists(actions() | runs(), min_size=1, max_size=25),
        "reactions": st.lists(
            st.lists(actions(), max_size=3), min_size=LABELS, max_size=LABELS
        ),
        "raises": st.sets(st.integers(0, LABELS - 1), max_size=2),
    }
)


def observe(clock_type, program) -> list:
    """Run *program* on a fresh clock; everything an observer can see."""
    clock = clock_type(start=0.0)
    log, seen = [], []
    events, periodics = [], []
    budget = [REACTION_BUDGET]

    def callback(label):
        def fire():
            log.append((label, clock.now))
            for action in program["reactions"][label]:
                if budget[0] == 0:
                    break
                budget[0] -= 1
                act(action)
            if label in program["raises"]:
                raise Boom(label)

        return fire

    def act(action):
        kind = action[0]
        try:
            if kind == "schedule":
                events.append(clock.schedule(action[1], callback(action[2])))
            elif kind == "schedule_at":
                when = clock.now + action[1]
                events.append(clock.schedule_at(when, callback(action[2])))
            elif kind == "every":
                _, interval, until, label = action
                if until is not None:
                    until = clock.now + until
                periodics.append(clock.every(interval, callback(label), until=until))
            elif kind == "cancel" and events:
                events[action[1] % len(events)].cancel()
            elif kind == "stop" and periodics:
                periodics[action[1] % len(periodics)].cancel()
            return "ok"
        except ValueError as error:
            return f"ValueError: {error}"

    for step in program["steps"]:
        kind = step[0]
        try:
            if kind == "step":
                outcome = clock.step()
            elif kind == "run_until":
                outcome = clock.run_until(clock.now + step[1])
            elif kind == "run_while":
                stop_at = len(log) + step[1]
                outcome = clock.run_while(lambda: len(log) < stop_at, step[2])
            elif kind == "run":
                outcome = clock.run(step[1])
            else:
                outcome = act(step)
        except (Boom, RuntimeError) as error:
            outcome = f"{type(error).__name__}: {error}"
        seen.append(
            (
                kind,
                outcome,
                clock.now,
                clock.fired,
                clock.pending,
                [handle.time for handle in events],
                [handle.active for handle in periodics],
                len(log),
            )
        )
    return [log, seen]


@settings(deadline=None, max_examples=300)
@given(programs)
def test_simclock_matches_a_sorted_list_clock(program):
    assert observe(SimClock, program) == observe(OracleSimClock, program)


def test_the_programs_reach_every_lane():
    """Ties, recurrences, raising callbacks and cancellations all occur in
    one hand-written program, and the two clocks agree on it."""
    program = {
        "steps": [
            ("every", 0.5, None, 0),
            ("every", 1.0, 2.5, 1),
            ("schedule", 1.0, 2),
            ("schedule", 1.0, 3),
            ("run_until", 2.2),
            ("cancel", 0),
            ("stop", 0),
            ("run", 10),
            ("schedule_at", 0.25, 4),
            ("run_while", 1, 5),
            ("step",),
        ],
        "reactions": [[], [("schedule", 0.0, 5)], [("stop", 1)], [], [], []],
        "raises": {3},
    }
    ours = observe(SimClock, program)
    assert ours == observe(OracleSimClock, program)
    log, seen = ours
    # At t=1.0, in sequence order: recurrence 1, event 2 (stops it),
    # event 3 (raises out of run_until); recurrence 0 is still due.
    assert log[:4] == [(0, 0.5), (1, 1.0), (2, 1.0), (3, 1.0)]
    assert seen[4][:3] == ("run_until", "Boom: 3", 1.0)
    assert seen[4][6] == [True, False]
    assert (5, 1.0) in log  # scheduled with delay 0 from a callback
