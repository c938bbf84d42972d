"""Chrome trace-event export: shape, validation, determinism."""

import json

import pytest

from repro.telemetry import (
    Tracer,
    to_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)


def build_trace():
    clock = [0.0]
    tracer = Tracer(scenario="cell/seed0", seed=0)
    tracer.bind_clock(lambda: clock[0])
    tracer.begin("fleet.tick", actor="fleet")
    tracer.instant("fault.inject", actor="chaos", kind="worker_crash")
    tracer.counter("fleet.queued_jobs", 3.0, actor="fleet")
    clock[0] = 1.5
    tracer.end(actor="fleet")
    return tracer.freeze()


class TestExportShape:
    def test_top_level_shape(self):
        payload = to_chrome(build_trace())
        assert set(payload) == {"traceEvents", "displayTimeUnit"}
        assert payload["displayTimeUnit"] == "ms"

    def test_metadata_names_processes_and_actors(self):
        payload = to_chrome(build_trace())
        metadata = [e for e in payload["traceEvents"] if e["ph"] == "M"]
        names = {(e["name"], e["args"]["name"]) for e in metadata}
        assert ("process_name", "cell/seed0") in names
        assert ("thread_name", "fleet") in names
        assert ("thread_name", "chaos") in names

    def test_sim_seconds_become_microseconds(self):
        payload = to_chrome(build_trace())
        (span,) = [e for e in payload["traceEvents"] if e["ph"] == "X"]
        assert span["ts"] == 0.0
        assert span["dur"] == 1.5e6

    def test_instants_are_thread_scoped(self):
        payload = to_chrome(build_trace())
        (instant,) = [e for e in payload["traceEvents"] if e["ph"] == "i"]
        assert instant["s"] == "t"
        assert instant["args"] == {"kind": "worker_crash"}

    def test_counters_carry_their_value(self):
        payload = to_chrome(build_trace())
        (counter,) = [e for e in payload["traceEvents"] if e["ph"] == "C"]
        assert counter["args"] == {"value": 3.0}


SPAN = {"ph": "X", "name": "x", "pid": 1, "tid": 1, "ts": 0.0, "dur": 1.0}
METADATA = {"ph": "M", "name": "thread_name", "pid": 1, "tid": 1, "args": {"name": "a"}}
INSTANT = {"ph": "i", "name": "x", "pid": 1, "tid": 1, "ts": 0.0, "s": "t"}
COUNTER = {"ph": "C", "name": "x", "pid": 1, "tid": 1, "ts": 0.0, "args": {"value": 1.0}}


class TestValidation:
    def test_export_validates_clean(self):
        assert validate_chrome_trace(to_chrome(build_trace())) == []

    def test_bad_payloads_are_flagged(self):
        assert validate_chrome_trace(None)
        assert validate_chrome_trace({})
        assert validate_chrome_trace({"traceEvents": []})
        bad_phase = {"traceEvents": [{"ph": "Q", "name": "x", "pid": 1, "tid": 1}]}
        assert any("bad phase" in p for p in validate_chrome_trace(bad_phase))
        negative_dur = {
            "traceEvents": [
                {
                    "ph": "X",
                    "name": "x",
                    "pid": 1,
                    "tid": 1,
                    "ts": 0.0,
                    "dur": -1.0,
                }
            ]
        }
        assert any(
            "non-negative" in p for p in validate_chrome_trace(negative_dur)
        )

    @pytest.mark.parametrize(
        "event, problem",
        [
            ("span", "traceEvents[0]: not an object"),
            ({**SPAN, "name": ""}, "traceEvents[0]: missing event name"),
            ({**SPAN, "pid": "1"}, "traceEvents[0]: missing integer 'pid'"),
            ({**SPAN, "tid": None}, "traceEvents[0]: missing integer 'tid'"),
            (
                {**METADATA, "name": "process_labels"},
                "traceEvents[0]: unknown metadata event 'process_labels'",
            ),
            ({**METADATA, "args": {}}, "traceEvents[0]: metadata needs args.name"),
            ({**SPAN, "ts": True}, "traceEvents[0]: missing numeric 'ts'"),
            ({**SPAN, "dur": "1"}, "traceEvents[0]: 'X' needs a non-negative 'dur'"),
            (
                {**INSTANT, "s": "x"},
                "traceEvents[0]: instant scope 's' must be t/p/g",
            ),
            ({**COUNTER, "args": 3.0}, "traceEvents[0]: counter needs an 'args' mapping"),
        ],
        ids=[
            "not-an-object", "name", "pid", "tid", "metadata-name", "metadata-args",
            "ts", "dur", "instant-scope", "counter-args",
        ],
    )
    def test_each_malformed_event_names_its_own_problem(self, event, problem):
        assert validate_chrome_trace({"traceEvents": [event]}) == [problem]

    def test_each_well_formed_event_alone_validates(self):
        for event in (SPAN, METADATA, INSTANT, COUNTER):
            assert validate_chrome_trace({"traceEvents": [event]}) == []

    def test_written_file_is_loadable_valid_json(self, tmp_path):
        target = write_chrome_trace(build_trace(), tmp_path / "chrome.json")
        payload = json.loads(target.read_text())
        assert validate_chrome_trace(payload) == []


class TestDeterminism:
    def test_export_is_byte_stable(self, tmp_path):
        first = write_chrome_trace(build_trace(), tmp_path / "a.json")
        second = write_chrome_trace(build_trace(), tmp_path / "b.json")
        assert first.read_text() == second.read_text()
