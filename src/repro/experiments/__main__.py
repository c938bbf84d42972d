"""``python -m repro.experiments`` — the one experiment CLI.

Subcommands::

    # What can this repo run?
    python -m repro.experiments list [--kind chaos|dpp|fleet|serving]

    # Run one registered scenario (any kind), archive its report
    python -m repro.experiments run chaos/worst-case --seed 3 --out report.json

    # Fan a fleet-scenario grid across processes
    python -m repro.experiments sweep --quick --jobs 4 --out sweep.json
    python -m repro.experiments sweep --grid grid.json --seeds 0,1,2,3

    # Crash-safe campaigns: journal every completed cell, resume a
    # killed run without recomputing what already finished
    python -m repro.experiments sweep --quick --jobs 4 \\
        --resume sweep.journal.jsonl --out sweep.json

Every artifact is a :mod:`repro.common.serialization` report document:
``repro.common.report_from_json`` revives any of them.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from ..telemetry.tracer import Tracer
from .grid import ScenarioGrid, grid_from_json, quick_grid
from .registry import SCENARIOS, build_scenario, kind_of
from .runner import SweepRunner


#: ETA estimates above this are noise (one slow first cell), not signal.
_MAX_ETA_S = 360_000.0


def _format_eta(elapsed_s: float, done: int, total: int) -> str:
    """The ETA cell of a progress line, defensively.

    Until a cell completes there is nothing to extrapolate from —
    ``elapsed / done`` would be ``inf`` (or garbage on the first
    throttle window) — so render ``--:--``; afterwards, clamp so a
    pathological first sample cannot print an absurd figure.
    """
    if done <= 0:
        return "--:--"
    return f"{min(elapsed_s / done * (total - done), _MAX_ETA_S):.0f}s"


def _progress_printer(label: str, period_s: float = 1.0):
    """A ``progress(done, total)`` callback printing throttled lines.

    Writes to stderr so progress never contaminates piped artifacts.
    ETA comes from the wall clock, which is why it lives only here in
    the CLI — never in anything an artifact records.
    """
    start = time.perf_counter()
    last = [0.0]

    def progress(done: int, total: int) -> None:
        now = time.perf_counter()
        if done < total and now - last[0] < period_s:
            return
        last[0] = now
        elapsed = now - start
        print(
            f"{label}: {done}/{total} cells done, "
            f"{elapsed:.0f}s elapsed, eta {_format_eta(elapsed, done, total)}",
            file=sys.stderr,
        )

    return progress


def _cmd_list(args: argparse.Namespace) -> int:
    from ..analysis.report import render_table

    rows = [
        [name, kind_of(name), description]
        for name, (description, _) in sorted(SCENARIOS.items())
        if args.kind in (None, kind_of(name))
    ]
    print(
        render_table(
            ["scenario", "kind", "description"],
            rows,
            title=f"Registered scenarios ({len(rows)})",
        )
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = build_scenario(args.name, seed=args.seed)
    if args.spec:
        print(scenario.to_json(), end="")
        return 0
    tracer = (
        Tracer(scenario=scenario.name, seed=scenario.seed) if args.trace else None
    )
    start = time.perf_counter()
    report = scenario.run(tracer)
    wall_s = time.perf_counter() - start
    if not args.quiet:
        render = getattr(report, "render", None) or getattr(
            report, "describe"
        )
        print(render())
        print(f"wall time: {wall_s:.2f} s")
    if args.out:
        target = report.write(args.out)
        print(f"report artifact → {target}")
    if tracer is not None:
        target = tracer.freeze().write(args.trace)
        print(f"trace artifact → {target}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    seeds = (
        tuple(int(part) for part in args.seeds.split(",")) if args.seeds else None
    )
    if args.quick:
        grid = quick_grid(seeds or (0, 1, 2, 3, 4))
    else:
        grid = grid_from_json(args.grid)
        if seeds:
            grid = dataclasses.replace(grid, seeds=seeds)

    journal_path = args.resume or args.journal
    runner = SweepRunner(
        grid,
        jobs=args.jobs or None,
        chunk_cells=args.chunk,
        quarantine=not args.no_quarantine,
    )
    progress = None if args.quiet else _progress_printer(args.name)
    try:
        outcome = runner.run(
            grid_name=args.name,
            progress=progress,
            journal_path=journal_path,
            resume=bool(args.resume),
            trace=bool(args.trace),
        )
        report, trace = outcome if args.trace else (outcome, None)
        if not args.quiet:
            print(report.render())
        if args.out:
            target = report.write(args.out)
            print(f"sweep artifact → {target}")
        if trace is not None:
            target = trace.write(args.trace)
            print(f"trace artifact → {target}")
    except KeyboardInterrupt:
        # Workers are already terminated and the journal closed (every
        # append was fsync'd), so the campaign is safe to pick up.  Once
        # the cells are done, --resume only rewrites the artifacts, and
        # each is written atomically: none is left half-written.
        print("sweep interrupted", file=sys.stderr)
        if journal_path:
            print(
                f"resumable from {journal_path}: re-run with "
                f"--resume {journal_path}",
                file=sys.stderr,
            )
        return 130
    return 0


def build_parser(prog: str = "python -m repro.experiments") -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=prog,
        description="The unified experiment plane: list, run, and sweep "
        "registered scenarios.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    list_parser = commands.add_parser(
        "list", help="enumerate registered scenarios"
    )
    list_parser.add_argument(
        "--kind",
        choices=sorted({kind_of(name) for name in SCENARIOS}),
        help="only one scenario kind",
    )
    list_parser.set_defaults(handler=_cmd_list)

    run_parser = commands.add_parser(
        "run", help="run one registered scenario and archive its report"
    )
    run_parser.add_argument("name", help="registry name, e.g. fleet/busy")
    run_parser.add_argument(
        "--seed", type=int, default=None, help="scenario seed (default 0)"
    )
    run_parser.add_argument("--out", help="write the report JSON here")
    run_parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record sim-time telemetry and write the Trace report here "
        "(export to Chrome format with `python -m repro.telemetry export`)",
    )
    run_parser.add_argument(
        "--spec",
        action="store_true",
        help="print the scenario's JSON spec instead of running it",
    )
    run_parser.add_argument(
        "--quiet", action="store_true", help="suppress the rendered report"
    )
    run_parser.set_defaults(handler=_cmd_run)

    sweep_parser = commands.add_parser(
        "sweep", help="fan a fleet-scenario grid across processes"
    )
    source = sweep_parser.add_mutually_exclusive_group(required=True)
    source.add_argument(
        "--grid", help="grid spec: a JSON file path or inline JSON"
    )
    source.add_argument(
        "--quick", action="store_true", help="run the built-in smoke grid"
    )
    sweep_parser.add_argument(
        "--seeds",
        help="comma-separated seed list overriding the grid's seed axis",
    )
    sweep_parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (0 = one per CPU core; default 1, inline)",
    )
    sweep_parser.add_argument(
        "--chunk",
        type=int,
        default=None,
        metavar="CELLS",
        help="cells shipped per pool task (default: auto-tuned from grid "
        "size and --jobs; results are identical either way)",
    )
    sweep_parser.add_argument(
        "--name", default="sweep", help="grid name recorded in the artifact"
    )
    journal_group = sweep_parser.add_mutually_exclusive_group()
    journal_group.add_argument(
        "--journal",
        metavar="PATH",
        help="start a fresh run journal here (append-only JSONL, fsync'd "
        "per cell) so a killed sweep can be resumed",
    )
    journal_group.add_argument(
        "--resume",
        metavar="PATH",
        help="resume from (or start) a run journal: completed cells are "
        "restored, only the remainder computes; the final report is "
        "byte-identical to an uninterrupted run",
    )
    sweep_parser.add_argument(
        "--no-quarantine",
        action="store_true",
        help="fail fast on a cell that raises instead of quarantining it",
    )
    sweep_parser.add_argument("--out", help="write the SweepReport JSON here")
    sweep_parser.add_argument(
        "--trace",
        metavar="PATH",
        help="record per-cell sim-time telemetry and write the merged "
        "Trace report here",
    )
    sweep_parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress the rendered table and progress lines",
    )
    sweep_parser.set_defaults(handler=_cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
