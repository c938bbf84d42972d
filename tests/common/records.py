"""Hypothesis strategies for every record the record codec serializes.

:func:`records` draws an instance of a dataclass from its field
annotations: ``int``/``float``/``str``/``bool`` slots from the whole
JSON-able range (floats include ``nan`` and ``±inf``), ``X | None`` as
either, ``list[X]`` as short lists, enums from their members and nested
dataclasses recursively.  Only what an annotation cannot say is written
down here: shapes a converter owns (a model by name, a fleet mix or
config shorthand, a child report, fault rows, loss pairs, the per-class
cycle map) and the knobs a constructor validates, which draw from their
valid range.  A draw the constructor still refuses is rejected.
"""

import dataclasses
import enum
import functools
import types
import typing

from hypothesis import strategies as st

from repro.chaos.faults import FaultEvent, FaultKind
from repro.common.errors import ReproError
from repro.common.serialization import ReportBase
from repro.experiments.report import FailureReport
from repro.experiments.scenarios import (
    FLEET_FAULT_KINDS,
    ChaosSessionScenario,
    DppTimelineScenario,
    FleetRegionScenario,
    config_from_spec,
)
from repro.fleet.jobs import FleetJobSpec, FleetMix
from repro.fleet.simulator import FleetConfig
from repro.serving.plane import ARRIVAL_MIXES, FETCH_POLICIES
from repro.serving.scenario import ServingScenario
from repro.transforms.base import OpClass
from repro.transforms.cost import CostReport
from repro.workloads.models import ALL_MODELS, ModelConfig

FLOATS = st.floats(allow_nan=True, allow_infinity=True)
INTS = st.integers(-(2**40), 2**40)
TEXT = st.text(max_size=6)

#: Classes whose constructors validate their numeric knobs: ints and
#: floats draw from the positive range there.
VALIDATED = (
    ChaosSessionScenario,
    DppTimelineScenario,
    FleetJobSpec,
    FleetRegionScenario,
    ServingScenario,
)
POSITIVE = {int: st.integers(1, 2**31), float: st.floats(1e-3, 1e9)}


def fault_events(kinds):
    return st.lists(
        st.builds(
            FaultEvent,
            round_index=st.integers(0, 100),
            kind=st.sampled_from(sorted(kinds, key=lambda kind: kind.value)),
            magnitude=st.floats(0.05, 1.0),
        ),
        max_size=3,
    ).map(tuple)


#: Annotations only a converter knows, wherever they appear.
SHAPES = {
    ModelConfig: st.sampled_from(ALL_MODELS),
    FleetMix: st.sampled_from(
        [
            FleetMix(),
            FleetMix(exploratory_per_day=96.0),
            FleetMix(combo_wave_starts_s=(3_600.0,), combo_nodes=4),
        ]
    ),
    FleetConfig: st.sampled_from(
        [
            config_from_spec({}),
            config_from_spec(
                {
                    "n_hdd_nodes": 20,
                    "n_trainer_nodes": 16,
                    "power_budget_watts": 5e5,
                    "tick_s": 2.0,
                }
            ),
        ]
    ),
    ReportBase: st.deferred(
        lambda: st.one_of(records(FailureReport), records(CostReport))
    ),
    dict: st.sampled_from(
        [{}, {"fault_tolerance": {"requeues": 1}}, {"note": "x"}]
    ),
}

#: (class, field) -> strategy, where one field needs more than its type.
FIELDS = {
    (ServingScenario, "arrival_mix"): st.sampled_from(ARRIVAL_MIXES),
    (ServingScenario, "fetch_policy"): st.sampled_from(FETCH_POLICIES),
    (ServingScenario, "max_retries"): st.integers(0, 10),
    (ChaosSessionScenario, "seeded_faults"): st.integers(0, 5),
    (ChaosSessionScenario, "faults"): fault_events(FaultKind),
    (FleetRegionScenario, "faults"): fault_events(FLEET_FAULT_KINDS),
    (DppTimelineScenario, "worker_losses"): st.lists(
        st.tuples(st.floats(0.0, 1e4), st.integers(1, 10)), max_size=3
    ).map(tuple),
    (CostReport, "cycles_by_class"): st.fixed_dictionaries(
        {op_class: FLOATS for op_class in OpClass}
    ),
}


def annotated(owner, name, kind):
    """A strategy for field *name* of *owner*, annotated *kind*."""
    if (owner, name) in FIELDS:
        return FIELDS[owner, name]
    if kind in SHAPES:
        return SHAPES[kind]
    if owner in VALIDATED and kind in POSITIVE:
        return POSITIVE[kind]
    scalars = {int: INTS, float: FLOATS, str: TEXT, bool: st.booleans()}
    if kind in scalars:
        return scalars[kind]
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):
        (inner,) = [arg for arg in args if arg is not type(None)]
        return st.none() | annotated(owner, name, inner)
    if origin is list:
        return st.lists(annotated(owner, name, args[0]), max_size=3)
    if isinstance(kind, type) and issubclass(kind, enum.Enum):
        return st.sampled_from(kind)
    if dataclasses.is_dataclass(kind):
        return records(kind)
    raise TypeError(f"no strategy for {owner.__name__}.{name}: {kind!r}")


def _build(cls, kwargs):
    try:
        return cls(**kwargs)
    except ReproError:
        return None


@functools.cache
def records(cls):
    """Instances of dataclass *cls*, drawn from its field annotations."""
    hints = typing.get_type_hints(cls)
    kwargs = st.fixed_dictionaries(
        {
            field.name: annotated(cls, field.name, hints[field.name])
            for field in dataclasses.fields(cls)
        }
    )
    return kwargs.map(lambda drawn: _build(cls, drawn)).filter(
        lambda record: record is not None
    )
