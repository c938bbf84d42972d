"""Serving tour: open-loop load tests against the live DPP plane.

Three runs against ``repro.serving``'s service plane — split-role
extract/transform worker pools behind bounded queues, with admission
control on the trainer fetch queue:

1. ``serving/steady`` — arrivals within capacity: latency stays flat,
   admission control is armed but rarely sheds.
2. A custom overload scenario — arrivals outrun the pipeline under the
   retry-with-backoff policy: watch retries, sheds, and both pools
   scale independently.
3. A traced run — ``scenario.run(tracer)``, then ``tracer.freeze()``:
   per-queue backlog gauges and per-work-item spans in sim-time,
   exported to the Chrome trace format.

Run with ``python examples/serving_loadtest.py``.  The same flows are
available without writing Python:

    python -m repro.experiments run serving/steady
    python -m repro.experiments run serving/bursty --trace trace.json
    python -m repro.telemetry export trace.json chrome.json --validate
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.experiments import build_scenario
from repro.serving import ServingScenario
from repro.telemetry import Tracer, write_chrome_trace


def main() -> int:
    # 1. The registered steady-state load test: ~200 fetches/s against
    #    a plane provisioned to keep up.
    steady = build_scenario("serving/steady", seed=0)
    print(f"running {steady.describe()} ...")
    report = steady.run()
    print(report.render())
    print()

    # 2. Overload under retry-with-backoff: 5x the arrival rate into
    #    the same pipeline. Fetches retry with exponential backoff,
    #    shed after max_retries, and both pools scale to their caps —
    #    independently, each keyed on its own queue's backlog.
    overload = ServingScenario(
        name="example/overload",
        seed=0,
        rate_per_s=1_000.0,
        n_requests=1_500,
        fetch_policy="retry",
        max_pool_workers=4,
    )
    print("running the overload scenario (retry policy) ...")
    report = overload.run()
    print(report.render())
    served_frac = report.served / report.arrivals
    print(
        f"\nadmission control: {report.retries} retries, "
        f"{report.shed} shed, {served_frac:.0%} of arrivals served"
    )
    print()

    # 3. Tracing: every work item is a span (extract.split,
    #    transform.batch), every queue a sim-time depth gauge
    #    (serving.<name>_queue.depth), every shed/retry an instant.
    bursty = build_scenario("serving/bursty", seed=0)
    tracer = Tracer(scenario=bursty.name, seed=bursty.seed)
    start = time.perf_counter()
    bursty.run(tracer)
    print(
        f"traced serving/bursty in {time.perf_counter() - start:.2f} s "
        "wall time"
    )
    trace = tracer.freeze()
    flat = trace.metrics()
    print(
        f"trace: {flat['trace.spans']:.0f} spans, "
        f"{flat['trace.counters']:.0f} queue-depth samples"
    )
    chrome_path = write_chrome_trace(
        trace, pathlib.Path("serving_loadtest_chrome.json")
    )
    print(f"chrome trace → {chrome_path}")
    print(
        "open it at https://ui.perfetto.dev ('Open trace file') "
        "or chrome://tracing"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
