"""``python -m repro.telemetry`` — trace artifacts as first-class files.

Subcommands::

    # Top-N span names by self-time (the profile view)
    python -m repro.telemetry summarize trace.json --top 10

    # What changed between two traces of the same scenario?
    python -m repro.telemetry diff base_trace.json new_trace.json

    # Export to the Chrome trace-event format (Perfetto, chrome://tracing)
    python -m repro.telemetry export trace.json chrome.json --validate

Input traces are ``repro.common`` report documents of kind ``"trace"``
(what ``python -m repro.experiments run --trace PATH`` writes).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from ..common.errors import FormatError
from .chrome import to_chrome, validate_chrome_trace, write_chrome_trace
from .summary import diff_aggregates, top_spans
from .tracer import Trace


def load_trace(path: str | pathlib.Path) -> Trace:
    """Read a trace artifact; a report of another kind is refused."""
    return Trace.from_json(pathlib.Path(path).read_text())


def _cmd_summarize(args: argparse.Namespace) -> int:
    from ..analysis.report import render_table

    trace = load_trace(args.trace)
    metrics = trace.metrics()
    ranked = top_spans(trace, top=args.top)
    rows = [
        [
            a.name,
            str(a.count),
            f"{a.self_s:.3f}",
            f"{a.total_s:.3f}",
            f"{a.mean_s:.4f}",
        ]
        for a in ranked
    ]
    print(
        render_table(
            ["span", "count", "self s", "total s", "mean s"],
            rows,
            title=(
                f"Top {len(rows)} spans by self-time — "
                f"{metrics['trace.processes']:.0f} process(es), "
                f"{metrics['trace.events']:.0f} events"
            ),
        )
    )
    return 0


def _cmd_diff(args: argparse.Namespace) -> int:
    from ..analysis.report import render_table

    base = load_trace(args.base)
    other = load_trace(args.other)
    deltas = diff_aggregates(base, other)
    rows = [
        [
            name,
            f"{delta['count']:+.0f}",
            f"{delta['self_s']:+.3f}",
            f"{delta['total_s']:+.3f}",
        ]
        for name, delta in deltas.items()
        if any(delta.values())
    ]
    if not rows:
        print("traces are span-identical")
        return 0
    print(
        render_table(
            ["span", "Δcount", "Δself s", "Δtotal s"],
            rows,
            title=f"Span deltas: {args.other} vs {args.base}",
        )
    )
    return 0


def _cmd_export(args: argparse.Namespace) -> int:
    trace = load_trace(args.trace)
    payload = to_chrome(trace)
    if args.validate:
        problems = validate_chrome_trace(payload)
        if problems:
            for problem in problems:
                print(f"invalid: {problem}", file=sys.stderr)
            return 1
    target = write_chrome_trace(trace, args.out)
    events = len(payload["traceEvents"])
    print(f"chrome trace ({events} events) → {target}")
    return 0


def build_parser(prog: str = "python -m repro.telemetry") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Inspect, compare, and export sim-time trace artifacts.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    summarize = commands.add_parser(
        "summarize", help="top-N span names by self-time"
    )
    summarize.add_argument("trace", help="trace artifact (report kind 'trace')")
    summarize.add_argument(
        "--top", type=int, default=10, help="how many span names (default 10)"
    )
    summarize.set_defaults(handler=_cmd_summarize)

    diff = commands.add_parser(
        "diff", help="per-span-name deltas between two traces"
    )
    diff.add_argument("base", help="baseline trace artifact")
    diff.add_argument("other", help="comparison trace artifact")
    diff.set_defaults(handler=_cmd_diff)

    export = commands.add_parser(
        "export", help="write a Chrome trace-event JSON (Perfetto-openable)"
    )
    export.add_argument("trace", help="trace artifact to export")
    export.add_argument("out", help="output path for the Chrome JSON")
    export.add_argument(
        "--validate",
        action="store_true",
        help="schema-check the exported payload; non-zero exit on problems",
    )
    export.set_defaults(handler=_cmd_export)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
