"""Telemetry tour: trace a registered experiment, profile it, export it.

Runs a registry scenario under a ``Tracer`` (``scenario.run(tracer)``,
then ``tracer.freeze()``), prints the top spans by self-time and the
recorded metrics, then exports the trace to the Chrome trace-event
format.

Run with ``python examples/traced_experiment.py``.  Open the exported
``traced_experiment_chrome.json`` in Perfetto (https://ui.perfetto.dev
→ "Open trace file") or ``chrome://tracing`` — each scenario renders
as a process, each actor (the fleet loop, every job, every DPP worker)
as a named thread.

The same flow is available without writing Python:

    python -m repro.experiments run fleet/default --trace trace.json
    python -m repro.telemetry summarize trace.json
    python -m repro.telemetry export trace.json chrome.json --validate
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.analysis.report import render_table
from repro.experiments import build_scenario
from repro.telemetry import (
    Tracer,
    top_spans,
    validate_chrome_trace,
    to_chrome,
    write_chrome_trace,
)

SCENARIO = "fleet/default"
SEED = 0


def main() -> int:
    scenario = build_scenario(SCENARIO, seed=SEED)
    print(f"tracing {scenario.describe()} ...")
    tracer = Tracer(scenario=scenario.name, seed=scenario.seed)
    start = time.perf_counter()
    scenario.run(tracer)
    print(f"ran in {time.perf_counter() - start:.2f} s wall time\n")
    trace = tracer.freeze()

    # 1. The profile view: which spans dominate sim-time?
    flat = trace.metrics()
    ranked = top_spans(trace, top=8)
    print(
        render_table(
            ["span", "count", "self s", "total s"],
            [
                [a.name, str(a.count), f"{a.self_s:.1f}", f"{a.total_s:.1f}"]
                for a in ranked
            ],
            title=(
                f"Top spans by self-time — {flat['trace.events']:.0f} "
                f"events, {flat['trace.spans']:.0f} spans"
            ),
        )
    )

    # 2. The trace is a first-class report artifact: archive it like
    #    any other (same strict-JSON dialect, byte-stable re-runs).
    trace_path = pathlib.Path("traced_experiment_trace.json")
    trace.write(trace_path)
    print(f"\ntrace artifact → {trace_path}")

    # 3. Export for Perfetto / chrome://tracing.
    problems = validate_chrome_trace(to_chrome(trace))
    assert not problems, problems
    chrome_path = write_chrome_trace(
        trace, pathlib.Path("traced_experiment_chrome.json")
    )
    print(f"chrome trace   → {chrome_path}")
    print(
        "open it at https://ui.perfetto.dev ('Open trace file') "
        "or chrome://tracing"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
