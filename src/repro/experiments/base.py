"""The scenario protocol: one contract for every experiment kind.

A :class:`Scenario` is a *fully-resolved, declarative* description of
one experiment the repo can run — a fleet region under a workload mix,
a DPP session under a fault schedule, a timed closed-loop simulation,
a serving load test.  The contract is deliberately narrow:

* **picklable** — scenarios are frozen dataclasses built from the
  library's own frozen config types, so they fan across process
  boundaries unchanged;
* **one JSON document** — :meth:`Scenario.to_json` writes the scenario
  through the record rule of :mod:`repro.common.serialization` (one key
  per field) under a ``"scenario"``/``kind`` envelope.  ``run --spec``
  prints it and the sweep journal hashes it; nothing reads it back;
* **seeded** — :attr:`Scenario.seed` is the only source of randomness,
  so a scenario re-runs identically on any process count;
* **runnable** — :meth:`Scenario.run` produces a
  :class:`~repro.common.serialization.ReportBase`, which gives every
  kind the same telemetry surface (``to_json``, ``metrics``).
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING, ClassVar

from ..common.serialization import build_envelope, dump_json, null_specials, record_row

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..common.serialization import ReportBase
    from ..telemetry.tracer import Tracer

#: Bumped when the scenario envelope changes shape.
SCENARIO_SCHEMA_VERSION = 1


class Scenario(abc.ABC):
    """One declaratively-described, reproducible experiment."""

    #: Short kind tag (``"fleet"``/``"chaos"``/``"dpp"``/``"serving"``),
    #: written into :meth:`to_json`'s envelope; subclasses set it.
    kind: ClassVar[str] = ""

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
