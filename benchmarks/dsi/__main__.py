"""Command line of the DSI benchmark: ``run``, ``suite``, ``compare``."""

from __future__ import annotations

import argparse
import importlib.util
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _need_repro() -> None:
    """Measure this checkout's ``src/repro``; failing that an installed one."""
    source = ROOT / "src"
    if (source / "repro").is_dir():
        sys.path.insert(0, str(source))
    elif importlib.util.find_spec("repro") is None:
        sys.exit("benchmarks.dsi: the repro package is neither at src/ nor installed")


def _run(args) -> int:
    from .harness import run_workload
    from .suite import WORKLOAD_CLASSES

    result = run_workload(
        WORKLOAD_CLASSES[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        scale=args.scale,
        trace_out=args.trace_out,
        count_import=True,
    )
    print(
        f"{result.workload} [{result.workload_id}] seed {result.seed} "
        f"trace {int(result.trace)}: {result.units} units"
    )
    for name, metric in result.metrics.items():
        print(f"  {name:<34} {metric['value']:>16.6g} {metric['unit']}")
    for problem in result.problems:
        print(f"  FAILED: {problem}")
    print(result.contract_line())
    return 0 if result.correct else 1


def _suite(args) -> int:
    from .suite import WORKLOAD_CLASSES, render, run_suite

    suite = run_suite(
        args.workload or list(WORKLOAD_CLASSES), args.seed, args.seconds, args.repeats
    )
    print(render(suite))
    if args.out is not None:
        args.out.write_text(json.dumps(suite, indent=1) + "\n")
    return 0


def _compare(args) -> int:
    from .compare import compare

    rows, any_worse = compare(
        json.loads(args.a.read_text()), json.loads(args.b.read_text())
    )
    print("\n".join(rows))
    return 1 if any_worse else 0


def main(argv: list[str] | None = None) -> int:
    from .catalogue import WORKLOADS

    names = tuple(WORKLOADS)
    parser = argparse.ArgumentParser(prog="python -m benchmarks.dsi")
    commands = parser.add_subparsers(dest="command", required=True)

    run = commands.add_parser("run", help="one measured run of one workload")
    run.add_argument("--workload", required=True, choices=names)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--seconds", type=float, default=20.0)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--scale", type=float, default=1.0,
                     help="shrink every workload size (smoke tests; new workload_id)")
    run.add_argument("--trace-out", type=pathlib.Path,
                     help="write the traced run's spans as Chrome-trace JSON")
    run.set_defaults(handler=_run)

    suite = commands.add_parser("suite", help="every workload, with repeats")
    suite.add_argument("--workload", action="append", choices=names)
    suite.add_argument("--seed", type=int, default=0)
    suite.add_argument("--seconds", type=int, default=20)
    suite.add_argument("--repeats", type=int, default=3)
    suite.add_argument("--out", type=pathlib.Path)
    suite.set_defaults(handler=_suite)

    compare = commands.add_parser("compare", help="judge suite B against suite A")
    compare.add_argument("a", type=pathlib.Path)
    compare.add_argument("b", type=pathlib.Path)
    compare.set_defaults(handler=_compare)

    args = parser.parse_args(argv)
    if args.command != "compare":
        _need_repro()
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
