"""Loading is strict about types, and range checks refuse nan.

A scalar slot holds exactly its annotation's JSON type: a string, a
float or a boolean in an ``int`` slot, a string in a ``bool`` slot, a
number in a ``str`` slot or a string in a ``float`` slot is refused with
a :class:`FormatError` naming the key — never cast into a different
value.  Every scenario kind and every report that serializes through
its fields is covered, nested rows included.  And every positivity
check on a float knob is written so that ``nan`` (which a JSON ``null``
in a float slot revives as) fails it.
"""

import copy
import dataclasses
import math
import re
import types
import typing

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chaos.report import ChaosReport
from repro.common.errors import ConfigError, FormatError
from repro.dpp.simulation import SimulationResult
from repro.experiments.report import ScenarioResult
from repro.experiments.scenarios import (
    ChaosSessionScenario,
    DppTimelineScenario,
    FleetRegionScenario,
    config_from_spec,
)
from repro.fleet.jobs import FleetMix
from repro.fleet.report import FleetReport, JobOutcome
from repro.serving.plane import PlaneConfig
from repro.serving.report import ServingReport
from repro.serving.scenario import ServingScenario
from repro.trainer.stalls import StallReport
from repro.transforms.cost import CostReport

from .records import records

SCENARIOS = (
    FleetRegionScenario,
    ChaosSessionScenario,
    DppTimelineScenario,
    ServingScenario,
)
REPORTS = (
    ServingReport,
    FleetReport,
    SimulationResult,
    StallReport,
    ChaosReport,
    CostReport,
)
ROWS = (ScenarioResult, JobOutcome)

#: Wrong JSON values for each plain slot type.
WRONG = {
    int: ["3", 2.7, True],
    float: ["1.5", True, [1.0]],
    str: [5, None, ["a"]],
    bool: ["false", 0, None],
    dict: ["x", [["a", 1]]],
}


def wrong_values(kind):
    """Values a slot annotated *kind* must refuse, or None if the codec
    does not own the slot's shape."""
    if kind in WRONG:
        return WRONG[kind]
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType) and type(None) in args:
        (inner,) = [arg for arg in args if arg is not type(None)]
        wrong = wrong_values(inner)
        return None if wrong is None else [v for v in wrong if v is not None]
    if origin is list and args[0] in WRONG:
        return ["x", [WRONG[args[0]][0]]]
    return None


def nested_class(kind):
    """The record class of a nested row (or list of rows), if any."""
    if typing.get_origin(kind) is list:
        (kind,) = typing.get_args(kind)
    return kind if dataclasses.is_dataclass(kind) else None


def plain_slots(cls, row, path=()):
    """(path, annotation) of every plain slot in *row*, a body of *cls*,
    down through nested rows whose keys are their class's fields."""
    hints = typing.get_type_hints(cls)
    for field in dataclasses.fields(cls):
        kind = hints[field.name]
        value = row.get(field.name)
        if wrong_values(kind) is not None:
            yield path + (field.name,), kind
            continue
        nested = nested_class(kind)
        if nested is None:
            continue
        names = {f.name for f in dataclasses.fields(nested)}
        if isinstance(value, dict) and set(value) == names:
            yield from plain_slots(nested, value, path + (field.name,))
        elif isinstance(value, list) and value and set(value[0]) == names:
            yield from plain_slots(nested, value[0], path + (field.name, 0))


def codec(cls):
    """(encode, decode) for a record class."""
    if cls in SCENARIOS:
        return cls.params, cls.from_params
    if cls in REPORTS:
        return cls.payload, cls.from_payload
    return cls.to_row, cls.from_row


@pytest.mark.parametrize(
    "cls", SCENARIOS + REPORTS + ROWS, ids=lambda cls: cls.__name__
)
@settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
@given(data=st.data())
def test_a_mistyped_slot_is_refused_naming_its_key(cls, data):
    encode, decode = codec(cls)
    row = encode(data.draw(records(cls)))
    path, kind = data.draw(st.sampled_from(list(plain_slots(cls, row))))
    wrong = data.draw(st.sampled_from(wrong_values(kind)))
    mistyped = copy.deepcopy(row)
    node = mistyped
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = wrong
    with pytest.raises(FormatError, match=re.escape(f"key {path[-1]!r}")):
        decode(mistyped)


@pytest.mark.parametrize(
    "load",
    [
        lambda: ServingScenario.from_params({"name": "x", "autoscale": "false"}),
        lambda: ServingScenario.from_params({"name": "x", "n_requests": 2.7}),
        lambda: ServingScenario.from_params({"name": "x", "n_requests": True}),
        lambda: ChaosSessionScenario.from_params({"name": "x", "n_workers": "3"}),
        lambda: DppTimelineScenario.from_params({"name": "x", "duration_s": "nan"}),
        lambda: ServingReport.from_payload({**ServingReport().payload(), "arrivals": "0"}),
    ],
    ids=[
        "autoscale-string",
        "n_requests-float",
        "n_requests-bool",
        "n_workers-string",
        "duration-string",
        "arrivals-string",
    ],
)
def test_values_a_cast_would_change_are_refused(load):
    with pytest.raises(FormatError):
        load()


NAN = math.nan


@pytest.mark.parametrize(
    "build",
    [
        lambda: PlaneConfig(rate_per_s=NAN),
        lambda: PlaneConfig(cycles_per_s=NAN),
        lambda: PlaneConfig(retry_backoff_s=NAN),
        lambda: ServingScenario(name="x", rate_per_s=NAN),
        lambda: DppTimelineScenario(name="x", duration_s=NAN),
        lambda: FleetRegionScenario(
            name="x",
            trace_seed=0,
            mix=FleetMix(),
            config=config_from_spec({}),
            duration_s=NAN,
        ),
        lambda: ServingScenario.from_params({"name": "x", "rate_per_s": None}),
        lambda: ServingScenario.from_params({"name": "x", "cycles_per_s": None}),
        lambda: ServingScenario.from_params({"name": "x", "retry_backoff_s": None}),
        lambda: DppTimelineScenario.from_params({"name": "x", "duration_s": None}),
        lambda: FleetRegionScenario.from_params(
            {"name": "x", "trace_seed": 0, "duration_s": None}
        ),
    ],
    ids=[
        "plane-rate",
        "plane-cycles",
        "plane-backoff",
        "serving-rate",
        "dpp-duration",
        "fleet-duration",
        "serving-rate-null",
        "serving-cycles-null",
        "serving-backoff-null",
        "dpp-duration-null",
        "fleet-duration-null",
    ],
)
def test_nan_fails_the_range_checks(build):
    with pytest.raises(ConfigError):
        build()
