"""``python -m repro.telemetry`` — summarize, diff, export."""

import json

import pytest

from repro.common.errors import FormatError
from repro.telemetry import Tracer, validate_chrome_trace
from repro.telemetry.__main__ import load_trace, main
from repro.dpp.simulation import SimulationResult


def write_trace(path, *, tick_s: float = 1.0):
    clock = [0.0]
    tracer = Tracer(scenario="cli", seed=0)
    tracer.bind_clock(lambda: clock[0])
    for round_index in range(3):
        tracer.begin("round", actor="chaos")
        clock[0] += tick_s / 2
        tracer.begin("inner", actor="chaos")
        clock[0] += tick_s / 2
        tracer.end(actor="chaos")
        tracer.end(actor="chaos")
        tracer.instant("fault.inject", actor="chaos", index=round_index)
    trace = tracer.freeze()
    trace.write(path)
    return trace


def test_load_trace_rejects_other_report_kinds(tmp_path):
    target = tmp_path / "dpp.json"
    SimulationResult(samples=[], scaling_decisions=[]).write(target)
    with pytest.raises(FormatError):
        load_trace(target)


def test_cli_reports_bad_inputs_cleanly(tmp_path, capsys):
    assert main(["summarize", str(tmp_path / "missing.json")]) == 1
    dpp_path = tmp_path / "dpp.json"
    SimulationResult(samples=[], scaling_decisions=[]).write(dpp_path)
    assert main(["summarize", str(dpp_path)]) == 1
    err = capsys.readouterr().err
    assert err.count("error:") == 2
    assert "Traceback" not in err


def _list_args(payload):
    payload["processes"][0]["events"][0]["args"] = [1, 2]


def _int_events(payload):
    payload["processes"][0]["events"] = 3


def _int_event(payload):
    payload["processes"][0]["events"][0] = 3


def _shared_process_name(payload):
    payload["processes"].append(dict(payload["processes"][0]))


def _int_name(payload):
    payload["processes"][0]["events"][0]["name"] = 5


def _infinite_time(payload):
    payload["processes"][0]["events"][0]["t"] = "Infinity"


def _nested_args(payload):
    payload["processes"][0]["events"][0]["args"] = {"k": {"a": 1}}


def _int_actor(payload):
    payload["processes"][0]["events"][0]["actor"] = 7


def _int_run_id(payload):
    payload["processes"][0]["run_id"] = 7


def _infinite_dur(payload):
    payload["processes"][0]["events"][0]["dur"] = "-Infinity"


def _object_processes(payload):
    payload["processes"] = {"fleet": payload["processes"][0]}


def _null_arg(payload):
    payload["processes"][0]["events"][0]["args"] = {"k": None}


@pytest.mark.parametrize(
    "corrupt, named",
    [
        (_list_args, "key 'args'"),
        (_int_events, "key 'events'"),
        (_int_event, "trace event: expected an object"),
        (_shared_process_name, "key 'processes'"),
        (_int_name, "key 'name'"),
        (_infinite_time, "key 't'"),
        (_nested_args, "key 'args'"),
        (_int_actor, "key 'actor'"),
        (_int_run_id, "key 'run_id'"),
        (_infinite_dur, "key 'dur'"),
        (_object_processes, "key 'processes'"),
        (_null_arg, "key 'args'"),
    ],
)
def test_loader_refuses_what_the_recorder_never_writes(
    tmp_path, capsys, corrupt, named
):
    path = tmp_path / "trace.json"
    write_trace(path)
    payload = json.loads(path.read_text())
    corrupt(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(FormatError, match=named):
        load_trace(path)
    assert main(["summarize", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and named in err
    assert "Traceback" not in err


def test_summarize_ranks_by_self_time(tmp_path, capsys):
    path = tmp_path / "trace.json"
    write_trace(path)
    assert main(["summarize", str(path), "--top", "5"]) == 0
    out = capsys.readouterr().out
    assert "round" in out and "inner" in out
    # Three one-second rounds, self-time split evenly with nested spans.
    assert "1.500" in out


def test_diff_identical_traces(tmp_path, capsys):
    base = tmp_path / "base.json"
    other = tmp_path / "other.json"
    write_trace(base)
    write_trace(other)
    assert main(["diff", str(base), str(other)]) == 0
    assert "span-identical" in capsys.readouterr().out


def test_diff_reports_deltas(tmp_path, capsys):
    base = tmp_path / "base.json"
    other = tmp_path / "other.json"
    write_trace(base, tick_s=1.0)
    write_trace(other, tick_s=2.0)
    assert main(["diff", str(base), str(other)]) == 0
    out = capsys.readouterr().out
    assert "round" in out and "+1.500" in out


def test_export_writes_valid_chrome_json(tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    out_path = tmp_path / "chrome.json"
    write_trace(trace_path)
    assert main(["export", str(trace_path), str(out_path), "--validate"]) == 0
    assert "chrome trace" in capsys.readouterr().out
    payload = json.loads(out_path.read_text())
    assert validate_chrome_trace(payload) == []
