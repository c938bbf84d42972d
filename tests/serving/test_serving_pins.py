"""Cross-commit byte-identity pins for the serving plane.

``tests/serving`` compares runs within one commit, and the experiment
pins' batch holds no serving scenario; ``dpp_pins.json`` pins one
(``serving/bursty``).  These pins were recorded at the commit before a
worker began keeping the flatmaps of stripes it re-reads (running this
file as a script against that commit's ``src/`` prints the JSON stored
in ``golden/serving_pins.json``).  They hold the SHA-256 of
``ServingReport.to_json()`` for every ``serving/*`` registry scenario
and for the DSI benchmark's ``serving_burst`` shape (bursty, retry,
``max_retries=10``), each at seeds 0 and 7, and of one traced serving
scenario's merged trace; its traced reports must equal the plain ones.
``traced`` was re-keyed to the trace digest alone when the mixed-kind
batch runner went (the digest unchanged).
"""

import hashlib
import json
import pathlib

import pytest

from repro.experiments import build_scenario, list_scenarios
from repro.serving import ServingScenario
from repro.telemetry import Tracer, merge_traces

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "serving_pins.json"
SEEDS = (0, 7)
BENCH = "bench/serving_burst"
TRACED = "serving/steady"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def scenario_names() -> list[str]:
    return [entry.name for entry in list_scenarios("serving")] + [BENCH]


def build(name: str, seed: int) -> ServingScenario:
    if name == BENCH:
        return ServingScenario(
            name=BENCH,
            seed=seed,
            arrival_mix="bursty",
            fetch_policy="retry",
            max_retries=10,
            n_requests=3_000,
        )
    return build_scenario(name, seed)


def report_pin(name: str, seed: int) -> str:
    return _sha(build(name, seed).run().to_json())


def traced_pin() -> tuple[dict, dict]:
    """The traced runs' report digests per seed, and their merged trace."""
    reports = {}
    traces = []
    for seed in SEEDS:
        scenario = build(TRACED, seed)
        tracer = Tracer(scenario=scenario.name, seed=scenario.seed)
        reports[str(seed)] = _sha(scenario.run(tracer).to_json())
        traces.append(tracer.freeze())
    return reports, {"trace_sha256": _sha(merge_traces(traces).to_json())}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_every_registry_serving_scenario_is_pinned(golden):
    assert sorted(golden["reports"]) == sorted(scenario_names())
    assert len(golden["reports"]) >= 4


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", scenario_names())
def test_serving_report_is_byte_identical(name, seed, golden):
    assert report_pin(name, seed) == golden["reports"][name][str(seed)]


def test_traced_serving_report_and_merged_trace_are_byte_identical(golden):
    reports, traced = traced_pin()
    assert reports == golden["reports"][TRACED]
    assert traced == golden["traced"]


if __name__ == "__main__":
    print(
        json.dumps(
            {
                "reports": {
                    name: {str(seed): report_pin(name, seed) for seed in SEEDS}
                    for name in scenario_names()
                },
                "traced": traced_pin()[1],
            },
            indent=1,
        )
    )
