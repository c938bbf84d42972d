"""Tracer semantics: spans, instants, freeze, and merge."""

import pytest

from repro.common.errors import ConfigError
from repro.common.serialization import report_from_json
from repro.telemetry import (
    NULL_TRACER,
    Trace,
    TraceEvent,
    TraceProcess,
    Tracer,
    merge_traces,
)


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0


def make_tracer(clock: FakeClock | None = None) -> Tracer:
    clock = clock or FakeClock()
    tracer = Tracer(scenario="unit", seed=3)
    tracer.bind_clock(lambda: clock.now)
    tracer._test_clock = clock
    return tracer


class TestSpans:
    def test_begin_end_emits_one_span(self):
        tracer = make_tracer()
        clock = tracer._test_clock
        tracer.begin("fleet.tick", actor="fleet", phase_no=1)
        clock.now = 2.5
        tracer.end(actor="fleet")
        trace = tracer.freeze()
        (event,) = trace.processes[0].events
        assert event.phase == "X"
        assert event.name == "fleet.tick"
        assert event.actor == "fleet"
        assert event.time_s == 0.0
        assert event.dur_s == 2.5
        assert event.args == (("phase_no", 1),)

    def test_per_actor_stacks_nest_independently(self):
        tracer = make_tracer()
        clock = tracer._test_clock
        tracer.begin("outer", actor="a")
        tracer.begin("other", actor="b")
        clock.now = 1.0
        tracer.begin("inner", actor="a")
        clock.now = 3.0
        tracer.end(actor="a")  # inner
        tracer.end(actor="a")  # outer
        tracer.end(actor="b")
        events = {
            (e.name, e.actor): e for e in tracer.freeze().processes[0].events
        }
        assert events[("inner", "a")].dur_s == 2.0
        assert events[("outer", "a")].dur_s == 3.0
        assert events[("other", "b")].dur_s == 3.0

    def test_end_without_begin_is_loud(self):
        with pytest.raises(ConfigError):
            make_tracer().end(actor="fleet")

    def test_freeze_closes_dangling_spans(self):
        tracer = make_tracer()
        tracer.begin("left.open", actor="z")
        tracer.begin("also.open", actor="a")
        trace = tracer.freeze()
        names = [e.name for e in trace.processes[0].events]
        assert sorted(names) == ["also.open", "left.open"]
        with pytest.raises(ConfigError):  # nothing left open
            tracer.end(actor="z")

    def test_args_must_be_finite_scalars(self):
        tracer = make_tracer()
        with pytest.raises(ConfigError):
            tracer.instant("bad", value=float("nan"))
        with pytest.raises(ConfigError):
            tracer.instant("bad", value=[1, 2])


class TestIdentity:
    def test_run_id_is_stable_across_instances(self):
        assert Tracer("cell/a", seed=1).run_id == Tracer("cell/a", seed=1).run_id
        assert Tracer("cell/a", seed=1).run_id != Tracer("cell/a", seed=2).run_id
        assert Tracer("cell/a", seed=1).run_id != Tracer("cell/b", seed=1).run_id

    def test_null_tracer_refuses_unguarded_events(self):
        """Every event site checks ``tracer.enabled`` first; one that
        forgets fails here instead of recording nothing."""
        assert NULL_TRACER.enabled is False
        for method in (
            "begin", "end", "instant", "counter", "bind_clock", "emit_span", "log"
        ):
            assert not hasattr(NULL_TRACER, method), method


class TestTraceReport:
    def build(self) -> Trace:
        tracer = make_tracer()
        clock = tracer._test_clock
        tracer.begin("round", actor="chaos")
        tracer.instant("fault.inject", actor="chaos", kind="worker_crash")
        tracer.counter("queue.depth", 4.0, actor="chaos")
        clock.now = 1.0
        tracer.end(actor="chaos")
        return tracer.freeze()

    def test_round_trips_byte_identically(self):
        trace = self.build()
        text = trace.to_json()
        revived = report_from_json(text)
        assert isinstance(revived, Trace)
        assert revived == trace
        assert revived.to_json() == text

    def test_metrics_summarize_the_stream(self):
        flat = self.build().metrics()
        assert flat["trace.processes"] == 1.0
        assert flat["trace.events"] == 3.0
        assert flat["trace.spans"] == 1.0
        assert flat["trace.instants"] == 1.0
        assert flat["trace.counters"] == 1.0
        assert flat["trace.span_time_s"] == 1.0

    def test_merge_requires_unique_process_names(self):
        merged = merge_traces([self.build()])
        with pytest.raises(ConfigError):
            merged.merge(self.build())

    def test_merge_sorts_processes_canonically(self):
        zeta = Trace([TraceProcess(name="zeta", run_id="z")])
        alpha = Trace([TraceProcess(name="alpha", run_id="a")])
        merged = merge_traces([zeta, alpha])
        assert [p.name for p in merged.processes] == ["alpha", "zeta"]

    def test_bad_phase_rejected_on_revival(self):
        with pytest.raises(Exception):
            TraceEvent.from_row(
                {
                    "ph": "Q",
                    "name": "x",
                    "actor": "a",
                    "t": 0.0,
                    "dur": 0.0,
                    "args": {},
                }
            )
