"""Shared report telemetry: one JSON dialect, one record rule, one report
base class.

* **The JSON dialect** — stable key order, two-space indent, trailing
  newline, strict JSON (``allow_nan=False``).  Non-finite floats are
  encoded losslessly: ``nan`` → ``null``, ``inf`` → ``"Infinity"``,
  ``-inf`` → ``"-Infinity"`` (:func:`null_specials` on the way out,
  :func:`revive_float` on the way in).
* **The record rule** — every scenario and report is a dataclass, and
  its JSON row has exactly one key per field, named after the field.
  :func:`record_row` writes that row and :func:`record_from_row` reads
  it back strictly: an unknown key is refused, every key is required
  unless the caller lets fields with a default be absent, and a scalar
  slot must hold its annotation's JSON type (``int`` a JSON integer,
  ``bool`` a JSON boolean, ``str`` a string, ``float`` whatever
  :func:`null_specials` wrote, ``X | None`` also null).  A field with
  any other shape — nested rows, an enum, a model by name — names its
  converter at the call site.  A mistyped or misnamed key fails loudly
  at load time, naming the key.
* **:class:`ReportBase`** — uniform ``to_json``/``from_json``/
  ``write``/``read``, uniform metric naming (``<kind>.<metric>``,
  snake_case) via :meth:`ReportBase.metrics`, percentile summaries via
  :func:`percentile_summary`, and generic :meth:`ReportBase.diff` plus
  accumulate-style :meth:`ReportBase.merge`.  Every subclass registers
  its ``report_kind`` automatically, so :func:`report_from_json` can
  revive *any* archived report without knowing its type up front.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import pathlib
import tempfile
import types
import typing
from typing import Any, Callable, ClassVar, Iterable, Mapping, NamedTuple

from .errors import FormatError, ReproError

#: Bumped when the shared payload envelope changes shape.
REPORT_SCHEMA_VERSION = 1

#: The percentile levels every report summary exposes, and their keys.
SUMMARY_PERCENTILES = (50.0, 90.0, 100.0)

#: report_kind -> ReportBase subclass, filled by ``__init_subclass__``.
_REPORT_KINDS: dict[str, type["ReportBase"]] = {}


# -- the JSON dialect ----------------------------------------------------------


def dump_json(payload: Mapping[str, Any]) -> str:
    """Serialize a payload in the repo's one diff-friendly JSON dialect."""
    # Specials were encoded by null_specials; allow_nan=False guards the
    # strict-JSON promise against future fields sneaking raw NaN in.
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def load_json(text: str) -> dict:
    """Parse JSON text into a payload dict, with a clear failure mode."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise FormatError(f"report is not valid JSON: {error}") from error
    if not isinstance(payload, dict):
        raise FormatError(
            f"report payload must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def null_specials(value: Any) -> Any:
    """Recursively encode non-finite floats for strict JSON.

    ``nan`` → ``None`` and ``±inf`` → ``"Infinity"``/``"-Infinity"``;
    containers are rebuilt (tuples become lists, as JSON demands).
    """
    if isinstance(value, float):
        if math.isnan(value):
            return None
        if math.isinf(value):
            return "Infinity" if value > 0 else "-Infinity"
        return value
    if isinstance(value, dict):
        return {key: null_specials(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [null_specials(item) for item in value]
    return value


def revive_float(value: Any) -> float:
    """Decode one float slot written by :func:`null_specials`."""
    if value is None:
        return math.nan
    if value == "Infinity":
        return math.inf
    if value == "-Infinity":
        return -math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise FormatError(f"expected a float slot, got {value!r}")
    return float(value)


def atomic_write_text(path: str | pathlib.Path, text: str) -> pathlib.Path:
    """Write *text* to *path* atomically: temp file in the same
    directory, flush + fsync, then ``os.replace``.

    A crash (or SIGKILL) mid-write therefore leaves either the old
    artifact or the new one on disk — never a torn JSON document.  The
    temp file lives beside the target so the rename stays on one
    filesystem, which is what makes the replace atomic.
    """
    target = pathlib.Path(path)
    handle, temp_name = tempfile.mkstemp(
        dir=target.parent, prefix=f".{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(handle, "w") as stream:
            stream.write(text)
            stream.flush()
            os.fsync(stream.fileno())
        os.replace(temp_name, target)
    except BaseException:
        try:
            os.unlink(temp_name)
        except OSError:
            pass
        raise
    return target


def require_keys(
    row: Mapping[str, Any],
    required: Iterable[str],
    optional: Iterable[str] = (),
    context: str = "payload",
) -> None:
    """Strict key validation: reject unknown and missing keys loudly."""
    if not isinstance(row, Mapping):
        raise FormatError(
            f"{context}: expected an object, got {type(row).__name__}"
        )
    have = set(row)
    want = set(required)
    allowed = want | set(optional)
    unknown = have - allowed
    if unknown:
        raise FormatError(
            f"{context}: unknown key(s) {sorted(unknown)}; "
            f"expected {sorted(allowed)}"
        )
    missing = want - have
    if missing:
        raise FormatError(f"{context}: missing required key(s) {sorted(missing)}")


# -- the record codec ----------------------------------------------------------


class _Slot(NamedTuple):
    """One dataclass field as the codec sees it."""

    name: str
    revive: Callable[[Any], Any] | None  # None: the caller names a converter
    has_default: bool


def _exactly(kind: type) -> Callable[[Any], Any]:
    """A check that a JSON value is exactly *kind* (so a bool is no int)."""

    def revive(value: Any) -> Any:
        if type(value) is not kind:
            raise FormatError(f"expected {kind.__name__}, got {value!r}")
        return value

    return revive


def _reviver(annotation: Any) -> Callable[[Any], Any] | None:
    """How to read a slot of *annotation* from JSON, or None if only a
    converter knows."""
    if annotation is float:
        return revive_float
    if annotation in (int, bool, str, dict):
        return _exactly(annotation)
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    union = origin in (typing.Union, types.UnionType) and len(args) == 2
    if union and type(None) in args:
        inner = _reviver(next(arg for arg in args if arg is not type(None)))
        if inner is not None:
            return lambda value: None if value is None else inner(value)
    if origin is list:
        item = _reviver(args[0])
        if item is not None:
            as_list = _exactly(list)
            return lambda value: [item(entry) for entry in as_list(value)]
    return None


@functools.cache
def _slots(cls: type) -> tuple[_Slot, ...]:
    """*cls*'s dataclass fields, read once per class."""
    hints = typing.get_type_hints(cls)
    return tuple(
        _Slot(
            field.name,
            _reviver(hints[field.name]),
            field.default is not dataclasses.MISSING
            or field.default_factory is not dataclasses.MISSING,
        )
        for field in dataclasses.fields(cls)
    )


def record_row(record: Any, **encode: Callable[[Any], Any]) -> dict:
    """A dataclass *record* as its JSON row: one key per field, in field
    order.  A field named in *encode* is written through that converter,
    a list is copied, every other value is written as it is."""
    row = {}
    for slot in _slots(type(record)):
        value = getattr(record, slot.name)
        convert = encode.get(slot.name)
        if convert is not None:
            value = convert(value)
        elif type(value) is list:
            value = list(value)
        row[slot.name] = value
    return row


def record_from_row(
    cls: type,
    row: Mapping[str, Any],
    context: str,
    optional: bool = False,
    **decode: Callable[[Any], Any],
) -> Any:
    """Rebuild a *cls* record from its JSON row, strictly.

    Every field is one key and no other key is allowed.  Every key is
    required, except that with *optional* a field that has a default may
    be absent and then takes that default.  A field named in *decode* is
    read through that converter; every other field is checked against
    its annotation, and a mistyped value raises :class:`FormatError`
    naming *context* and the key.
    """
    slots = _slots(cls)
    require_keys(
        row,
        required=[s.name for s in slots if not (optional and s.has_default)],
        optional=[s.name for s in slots if optional and s.has_default],
        context=context,
    )
    values = {}
    for name, revive, _ in slots:
        if name not in row:
            continue
        convert = decode.get(name)
        if convert is not None:
            values[name] = convert(row[name])
            continue
        if revive is None:
            raise TypeError(f"{cls.__name__}.{name} needs a converter")
        try:
            values[name] = revive(row[name])
        except FormatError as error:
            raise FormatError(f"{context}: key {name!r}: {error}") from None
    return cls(**values)


def record_rows(records: Iterable[Any]) -> list[dict]:
    """Each record's :func:`record_row`: the converter that writes a
    field holding a list of nested records."""
    return [record_row(record) for record in records]


def rows_of(cls: type, context: str) -> Callable[[Iterable[Any]], list]:
    """The converter that reads a field holding a list of nested *cls*
    rows, each through :func:`record_from_row` under *context*."""
    return lambda rows: [record_from_row(cls, row, context) for row in rows]


# -- tagged envelopes ----------------------------------------------------------
#
# Reports and scenarios both archive as tag-dispatched JSON objects
# (``{"report": kind, "version": N, ...}`` / ``{"scenario": kind,
# ...}``).  These two helpers are the single implementation of that
# envelope shape; the tag key is the only difference between the two
# planes.


def build_envelope(
    tag_key: str, tag: str, version: int, body: Mapping[str, Any]
) -> dict:
    """Wrap a payload body in its kind/version envelope (strictly)."""
    for reserved in (tag_key, "version"):
        if reserved in body:
            raise FormatError(
                f"{tag} payload may not use the reserved key {reserved!r}"
            )
    return {tag_key: tag, "version": version, **body}


def split_envelope(
    payload: Mapping[str, Any], tag_key: str, supported_version: int
) -> tuple[str | None, dict]:
    """Pop the tag and version off an envelope; gate the version."""
    body = dict(payload)
    tag = body.pop(tag_key, None)
    version = body.pop("version", supported_version)
    if version != supported_version:
        raise FormatError(
            f"{tag_key} schema version {version!r} is not supported "
            f"(this build reads version {supported_version})"
        )
    return tag, body


# -- percentile summaries ------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Ceiling-index percentile — the repo's tail convention: small
    populations report their worst value rather than interpolating the
    tail away.  ``nan`` on an empty population."""
    if not values:
        return math.nan
    ranked = sorted(values)
    return ranked[math.ceil(q / 100.0 * (len(ranked) - 1))]


def percentile_summary(values: Iterable[float]) -> dict[str, float]:
    """The uniform ``{"p50", "p90", "p100", "mean"}`` summary block.

    ``nan`` observations are skipped (metrics can be undefined for some
    runs); an all-``nan`` or empty population summarizes to ``nan``.
    """
    finite = [v for v in values if not math.isnan(v)]
    summary = {f"p{q:.0f}": percentile(finite, q) for q in SUMMARY_PERCENTILES}
    summary["mean"] = sum(finite) / len(finite) if finite else math.nan
    return summary


# -- the report base -----------------------------------------------------------


class ReportBase:
    """Uniform telemetry surface every report subclass speaks.

    Subclasses set ``report_kind`` (a short snake_case noun — it
    prefixes metric names and tags the JSON envelope).  A dataclass
    report whose fields are all plain slots serializes through the
    record rule as it is; one with nested rows or other shapes overrides
    :meth:`payload` / :meth:`from_payload` to name its converters.
    Everything else — the envelope, files, metric diffs — is shared here.
    """

    #: Short kind tag; subclasses must override.
    report_kind: ClassVar[str] = ""

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        kind = cls.__dict__.get("report_kind", "")
        if kind:
            existing = _REPORT_KINDS.get(kind)
            if existing is not None and existing is not cls:
                raise ReproError(
                    f"report kind {kind!r} already registered by "
                    f"{existing.__name__}"
                )
            _REPORT_KINDS[kind] = cls

    # -- subclass hooks --------------------------------------------------------

    def payload(self) -> dict:
        """JSON-ready body (before special-float encoding): the record's
        row."""
        return record_row(self)

    @classmethod
    def from_payload(cls, payload: dict) -> "ReportBase":
        """Rebuild from a body produced by :meth:`payload`."""
        return record_from_row(cls, payload, f"{cls.report_kind} report")

    def metrics(self) -> dict[str, float]:
        """Flat summary metrics under uniform ``<kind>.<name>`` keys."""
        return {}

    # -- the shared envelope ---------------------------------------------------

    def envelope(self) -> dict:
        """The kind-tagged payload (before special-float encoding).

        This is the nesting unit: composite reports embed child
        reports as envelopes so one :func:`null_specials` pass at the
        top serializes the whole tree.
        """
        return build_envelope(
            "report", self.report_kind, REPORT_SCHEMA_VERSION, self.payload()
        )

    def to_json(self) -> str:
        """The report as one stable, strict-JSON document."""
        return dump_json(null_specials(self.envelope()))

    @classmethod
    def from_envelope(cls, payload: dict) -> "ReportBase":
        """Rebuild from a (possibly JSON-decoded) envelope dict.

        Called on a concrete subclass it enforces the kind tag; called
        on :class:`ReportBase` itself it dispatches on it.
        """
        kind, payload = split_envelope(payload, "report", REPORT_SCHEMA_VERSION)
        if cls is ReportBase:
            target = _REPORT_KINDS.get(kind)
            import_errors: list[str] = []
            if target is None:
                import_errors = _import_builtin_report_modules()
                target = _REPORT_KINDS.get(kind)
            if target is None:
                detail = (
                    f"; module imports failed: {'; '.join(import_errors)}"
                    if import_errors
                    else ""
                )
                raise FormatError(
                    f"unknown report kind {kind!r}; known: "
                    f"{sorted(_REPORT_KINDS)}{detail}"
                )
            return target.from_payload(payload)
        if kind is not None and kind != cls.report_kind:
            raise FormatError(
                f"expected a {cls.report_kind!r} report, got {kind!r}"
            )
        return cls.from_payload(payload)

    @classmethod
    def from_json(cls, text: str) -> "ReportBase":
        """Rebuild a report from :meth:`to_json` output."""
        return cls.from_envelope(load_json(text))

    def write(self, path: str | pathlib.Path) -> pathlib.Path:
        """Persist the JSON artifact atomically; returns the path
        written.  See :func:`atomic_write_text` — a crash mid-write can
        never leave a torn artifact."""
        return atomic_write_text(path, self.to_json())

    @classmethod
    def read(cls, path: str | pathlib.Path) -> "ReportBase":
        """Load a report previously :meth:`write`-ten."""
        return cls.from_json(pathlib.Path(path).read_text())

    # -- comparison and combination --------------------------------------------

    def diff(self, other: "ReportBase") -> dict[str, dict[str, float]]:
        """Metric-by-metric comparison against a same-kind report.

        Returns ``{metric: {"base", "other", "delta"}}`` over the union
        of both reports' metrics (one-sided metrics diff against
        ``nan``).
        """
        if self.report_kind != other.report_kind:
            raise ReproError(
                f"cannot diff a {self.report_kind!r} report against a "
                f"{other.report_kind!r} report"
            )
        mine = self.metrics()
        theirs = other.metrics()
        out: dict[str, dict[str, float]] = {}
        for name in sorted(set(mine) | set(theirs)):
            base = mine.get(name, math.nan)
            new = theirs.get(name, math.nan)
            out[name] = {"base": base, "other": new, "delta": new - base}
        return out

    def merge(self, other: "ReportBase") -> "ReportBase":
        """Accumulate *other* into this report and return it.

        Merge is accumulate-style (mutates and returns ``self``) so hot
        paths can fold many partial reports without reallocating.  Only
        kinds with a meaningful combination override it.
        """
        raise ReproError(
            f"{self.report_kind or type(self).__name__} reports do not merge"
        )

    def describe(self) -> str:
        """Default human summary: the uniform metric block."""
        lines = [f"{self.report_kind} report"]
        for name, value in self.metrics().items():
            lines.append(f"  {name} = {value:g}")
        return "\n".join(lines)


def _import_builtin_report_modules() -> list[str]:
    """Register the repo's report kinds on first dispatch.

    Registration rides on class creation (``__init_subclass__``), so a
    process that never imported, say, the chaos plane cannot revive a
    chaos artifact.  Importing the defining modules lazily — only when
    an unknown kind is actually requested — keeps :mod:`repro.common`
    import-light while making ``report_from_json`` work anywhere.

    Returns one line per module that failed to import, so the caller's
    unknown-kind error points at a broken install instead of blaming
    the artifact.
    """
    import importlib

    failures: list[str] = []
    for module in (
        "repro.chaos.report",
        "repro.dpp.simulation",
        "repro.experiments.report",
        "repro.experiments.runner",
        "repro.fleet.report",
        "repro.serving.report",
        "repro.telemetry.tracer",
        "repro.trainer.stalls",
        "repro.transforms.cost",
    ):
        try:
            importlib.import_module(module)
        except ImportError as error:  # pragma: no cover - partial installs
            failures.append(f"{module} ({error})")
    return failures


def report_kinds() -> dict[str, type[ReportBase]]:
    """The registered kind → class map (a copy; read-only use)."""
    return dict(_REPORT_KINDS)


def report_from_json(text: str) -> ReportBase:
    """Revive any registered report kind from its JSON document."""
    return ReportBase.from_json(text)
