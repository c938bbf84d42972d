"""The scenario protocol: one contract for every experiment kind.

A :class:`Scenario` is a *fully-resolved, declarative* description of
one experiment the repo can run — a fleet region under a workload mix,
a DPP session under a fault schedule, a timed closed-loop simulation.
The contract is deliberately narrow:

* **picklable** — scenarios are frozen dataclasses built from the
  library's own frozen config types, so they fan across process
  boundaries unchanged;
* **JSON-round-trippable** — :meth:`Scenario.to_json` /
  :func:`scenario_from_json` archive a scenario next to its report and
  revive it later through the record rule of
  :mod:`repro.common.serialization` (one key per field, unknown keys and
  mistyped values rejected loudly);
* **seeded** — :attr:`Scenario.seed` is the only source of randomness,
  so a scenario re-runs identically on any process count;
* **runnable** — :meth:`Scenario.run` produces a
  :class:`~repro.common.serialization.ReportBase`, which gives every
  kind the same telemetry surface (``to_json``, ``metrics``, ``diff``).

Kinds register themselves via ``__init_subclass__`` (the same pattern
the report layer uses), so :func:`scenario_from_json` and the CLI can
dispatch on the ``"scenario"`` tag without a hand-maintained table.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, Any, ClassVar, Mapping

from ..common.errors import FormatError, ReproError
from ..common.serialization import (
    build_envelope,
    dump_json,
    load_json,
    null_specials,
    record_from_row,
    record_row,
    split_envelope,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..common.serialization import ReportBase
    from ..telemetry.tracer import Tracer

#: Bumped when the scenario envelope changes shape.
SCENARIO_SCHEMA_VERSION = 1

#: kind tag -> Scenario subclass, filled by ``__init_subclass__``.
_SCENARIO_KINDS: dict[str, type["Scenario"]] = {}


class Scenario(abc.ABC):
    """One declaratively-described, reproducible experiment."""

    #: Short kind tag (``"fleet"``/``"chaos"``/``"dpp"``); subclasses set it.
    kind: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        tag = cls.__dict__.get("kind", "")
        if tag:
            existing = _SCENARIO_KINDS.get(tag)
            if existing is not None and existing is not cls:
                raise ReproError(
                    f"scenario kind {tag!r} already registered by "
                    f"{existing.__name__}"
                )
            _SCENARIO_KINDS[tag] = cls

    # -- the contract ----------------------------------------------------------

    #: Every concrete kind is a frozen dataclass with a ``name`` field
    #: and a ``seed`` (either a field or a property aliasing one, e.g.
    #: the fleet kind's ``trace_seed``).
    name: str
    seed: int

    @abc.abstractmethod
    def run(self, tracer: "Tracer | None" = None) -> "ReportBase":
        """Execute the experiment and return its report.

        With *tracer* the run also records spans, instants and counter
        samples into it; the report is the same either way.  The
        built-in kinds thread the tracer through their execution
        engines; a kind without instrumentation ignores it (the tracer
        captures nothing rather than failing).
        """

    def params(self) -> dict:
        """JSON-ready body capturing every constructor argument: the
        record's row (a kind with nested shapes names its converters)."""
        return record_row(self)

    @classmethod
    def from_params(cls, params: Mapping[str, Any]) -> "Scenario":
        """Rebuild from :meth:`params` output (strict keys; a field with
        a default may be absent)."""
        return record_from_row(cls, params, f"{cls.kind} scenario", optional=True)

    # -- serialization ---------------------------------------------------------

    def to_json(self) -> str:
        """The scenario as one stable, strict-JSON document."""
        envelope = build_envelope(
            "scenario", self.kind, SCENARIO_SCHEMA_VERSION, self.params()
        )
        return dump_json(null_specials(envelope))

    def describe(self) -> str:
        """One-line human summary for listings."""
        return f"{self.kind} scenario {self.name!r} (seed {self.seed})"


def scenario_kinds() -> dict[str, type[Scenario]]:
    """The registered kind → class map (a copy; read-only use)."""
    return dict(_SCENARIO_KINDS)


def scenario_from_json(text: str) -> Scenario:
    """Revive any registered scenario kind from its JSON document."""
    tag, payload = split_envelope(
        load_json(text), "scenario", SCENARIO_SCHEMA_VERSION
    )
    target = _SCENARIO_KINDS.get(tag)
    if target is None:
        raise FormatError(
            f"unknown scenario kind {tag!r}; known: {sorted(_SCENARIO_KINDS)}"
        )
    return target.from_params(payload)
