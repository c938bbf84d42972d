"""Which parts of ``src/repro`` the repository's own runs ever execute.

Records every code object entered (``sys.setprofile``) and every line
run (``sys.settrace``) under ``src/repro`` across

* tier-1 (``pytest``), with this module loaded as a plugin that re-arms
  both hooks before every test phase: the tests that profile with
  ``cProfile`` or count lines with their own tracer clear a global hook;
* every ``examples/*.py``;
* the CLI commands CI runs (shorter seed lists where only the number of
  sweep cells would change);
* ``python -m benchmarks.dsi suite --seconds 1``;

then prints the functions never entered and the ``if``/``except`` arms
never entered, with *refusals* (arms that only raise) apart from the
other arms.  An arm inside a function never entered, or inside another
arm never entered, is not listed again.

Usage::

    python tests/tools/reachability.py run [--out DIR]  # record, then report
    python tests/tools/reachability.py report DIR       # report on records

Every Python process of a run arms itself from a generated
``sitecustomize.py`` on ``PYTHONPATH`` and writes one JSON record into
the output directory when it exits.  Forked pool children leave
through ``os._exit``, which skips ``atexit``, so that is wrapped to
write the record first.  Line tracing stops for a code object once all
of its lines have run, which keeps tier-1 within a few times its
untraced wall time.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
ENV_VAR = "REPRO_REACHABILITY_DIR"
_PREFIX = str(SRC) + os.sep

# -- recording (runs inside every traced process) ---------------------------

_entered: set = set()  # code objects seen by the profile hook
_ran: set[tuple[str, int]] = set()  # (filename, line) under src/repro
_tracers: dict = {}  # code object -> (lines not yet run, local tracer)
_skip: set = set()  # code objects outside src/repro
_out_dir: str | None = None
_real_exit = os._exit


def _local_tracer(filename: str, todo: set[int]):
    def local(frame, event, arg):
        if event == "line":
            line = frame.f_lineno
            if line in todo:
                todo.discard(line)
                _ran.add((filename, line))
        return local

    return local


def _trace(frame, event, arg):
    code = frame.f_code
    known = _tracers.get(code)
    if known is None:
        if code in _skip:
            return None
        if not code.co_filename.startswith(_PREFIX):
            _skip.add(code)
            return None
        todo = {line for _, _, line in code.co_lines() if line is not None}
        known = _tracers[code] = (todo, _local_tracer(code.co_filename, todo))
    todo, local = known
    return local if todo else None


def _profile(frame, event, arg):
    if event == "call":
        _entered.add(frame.f_code)


def arm() -> None:
    """(Re)install both hooks for this thread and for new threads."""
    if sys.gettrace() is not _trace:
        sys.settrace(_trace)
    if sys.getprofile() is not _profile:
        sys.setprofile(_profile)
    threading.settrace(_trace)
    threading.setprofile(_profile)


def dump() -> None:
    """Write what this process recorded since its last dump."""
    if _out_dir is None:
        return
    trace, profile = sys.gettrace(), sys.getprofile()
    sys.settrace(None)
    sys.setprofile(None)
    try:
        _write_record()
    finally:
        sys.settrace(trace)
        sys.setprofile(profile)


def _write_record() -> None:
    entered = sorted(
        {
            (os.path.relpath(code.co_filename, ROOT), code.co_firstlineno, code.co_name)
            for code in _entered
            if code.co_filename.startswith(_PREFIX)
        }
    )
    ran: dict[str, list[int]] = {}
    for filename, line in _ran:
        ran.setdefault(os.path.relpath(filename, ROOT), []).append(line)
    _entered.clear()
    _ran.clear()
    handle, path = tempfile.mkstemp(suffix=".json", dir=_out_dir)
    with os.fdopen(handle, "w") as out:
        json.dump({"entered": entered, "ran": ran}, out)


def _forget_parent() -> None:
    # A forked child starts with its parent's records, which the parent
    # writes itself; the lines already run stay marked, so they are not
    # traced again.
    _entered.clear()
    _ran.clear()


def _exit(status: int) -> None:
    try:
        dump()
    finally:
        _real_exit(status)


def start(out_dir: str) -> None:
    """Arm this process: record into *out_dir* until it exits."""
    global _out_dir
    _out_dir = out_dir
    os._exit = _exit
    os.register_at_fork(after_in_child=_forget_parent)
    atexit.register(dump)
    arm()


# pytest plugin hooks (``-p reachability``): cProfile and the line-count
# tests clear the global hooks, so re-arm before every phase.


def pytest_runtest_setup(item) -> None:
    arm()


def pytest_runtest_call(item) -> None:
    arm()


def pytest_runtest_teardown(item) -> None:
    arm()


def pytest_sessionfinish(session) -> None:
    dump()


# -- running everything ------------------------------------------------------

SITECUSTOMIZE = f"""\
import os
if os.environ.get({ENV_VAR!r}):
    import reachability
    reachability.start(os.environ[{ENV_VAR!r}])
"""

RESUME_COMMAND = [
    "-m", "repro.experiments", "sweep", "--quick", "--seeds", "0,1,2,3,4,5,6,7,8,9",
    "--jobs", "4", "--resume", "sweep.journal.jsonl", "--out", "resumed.json", "--quiet",
]  # fmt: skip

_CUT_JOURNAL = """\
import os
lines = open('sweep.journal.jsonl').read().splitlines(keepends=True)
open('sweep.journal.jsonl', 'w').writelines(lines[: 1 + (len(lines) - 1) // 2])
os.remove('resumed.json')
"""

REVIVE = """\
import json
from repro.common import report_from_json
from repro.telemetry import validate_chrome_trace
for path in ('fleet.json', 'chaos.json', 'dpp.json', 'report_serving_steady.json',
             'report_serving_bursty.json', 'report_serving_overload.json'):
    text = open(path).read()
    report = report_from_json(text)
    assert report.to_json() == text, path
    report.metrics()
for slug in ('fleet_default', 'chaos_worst-case', 'dpp_cold-start'):
    assert not validate_chrome_trace(json.load(open(f'chrome_{slug}.json')))
resumed = report_from_json(open('resumed.json').read())
assert resumed.quarantined == []
resumed.deterministic_json()
assert len(json.load(open('sweep_smoke.json'))['scenarios']) == 100
"""


def _cli_commands() -> list[list[str]]:
    """The repro CLI invocations of ``.github/workflows/ci.yml``."""
    commands = [
        ["-m", "repro.experiments", "list"],
        ["-m", "repro.experiments", "list", "--kind", "chaos"],
        ["-m", "repro.experiments", "sweep", "--quick",
         "--seeds", ",".join(map(str, range(25))), "--jobs", "4",
         "--out", "sweep_smoke.json"],
    ]  # fmt: skip
    for name, out in (
        ("fleet/default", "fleet.json"),
        ("chaos/worst-case", "chaos.json"),
        ("dpp/cold-start", "dpp.json"),
    ):
        slug = name.replace("/", "_")
        trace = f"trace_{slug}.json"
        commands += [
            ["-m", "repro.experiments", "run", name, "--seed", "0", "--out", out, "--quiet"],
            ["-m", "repro.experiments", "run", name, "--seed", "0", "--quiet", "--trace", trace],
            ["-m", "repro.telemetry", "summarize", trace, "--top", "5"],
            ["-m", "repro.telemetry", "export", trace, f"chrome_{slug}.json", "--validate"],
        ]  # fmt: skip
    for name in ("serving/steady", "serving/bursty", "serving/overload"):
        slug = name.replace("/", "_")
        commands += [
            ["-m", "repro.experiments", "run", name, "--seed", "0", "--quiet",
             "--out", f"report_{slug}.json", "--trace", f"trace_{slug}.json"],
            ["-m", "repro.telemetry", "export", f"trace_{slug}.json",
             f"chrome_{slug}.json", "--validate"],
        ]  # fmt: skip
    # The resume drill without a kill: a complete journal, then the same
    # command on the journal cut back to its header and half the cells.
    commands += [RESUME_COMMAND, ["-c", _CUT_JOURNAL], RESUME_COMMAND]
    commands.append(["-c", REVIVE])
    return commands


def _run(argv: list[str], env: dict, cwd: pathlib.Path) -> int:
    print("$ python " + " ".join(argv), flush=True)
    return subprocess.run([sys.executable, *argv], env=env, cwd=cwd).returncode


def run_everything(out_dir: pathlib.Path) -> list[str]:
    """Run every stage armed; returns the commands that exited non-zero."""
    out_dir.mkdir(parents=True, exist_ok=True)
    failures = []
    with tempfile.TemporaryDirectory() as scratch:
        scratch = pathlib.Path(scratch)
        site = scratch / "site"
        site.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE)
        work = scratch / "work"
        work.mkdir()
        path = [str(site), str(pathlib.Path(__file__).parent), str(ROOT / "src"), str(ROOT)]
        if os.environ.get("PYTHONPATH"):
            path.append(os.environ["PYTHONPATH"])
        env = {**os.environ, ENV_VAR: str(out_dir), "PYTHONPATH": os.pathsep.join(path)}
        stages = [(["-m", "pytest", "-q", "-p", "reachability", "-p", "no:cacheprovider"], ROOT)]
        stages += [([str(example)], work) for example in sorted((ROOT / "examples").glob("*.py"))]
        stages += [(argv, work) for argv in _cli_commands()]
        stages.append((["-m", "benchmarks.dsi", "suite", "--seconds", "1"], ROOT))
        for argv, cwd in stages:
            if _run(argv, env, cwd) != 0:
                failures.append(" ".join(argv))
    return failures


# -- the report --------------------------------------------------------------


def _code_lines(code) -> set[int]:
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _is_stub(node: ast.FunctionDef) -> bool:
    """Abstract or null-object bodies: pass, ..., a constant return, or
    ``raise NotImplementedError`` (after an optional docstring)."""
    body = node.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if not body:
        return True
    if len(body) != 1:
        return False
    stmt = body[0]
    if isinstance(stmt, ast.Pass):
        return True
    if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
        return True
    if isinstance(stmt, ast.Return):
        return stmt.value is None or isinstance(stmt.value, ast.Constant)
    if isinstance(stmt, ast.Raise) and stmt.exc is not None:
        exc = stmt.exc.func if isinstance(stmt.exc, ast.Call) else stmt.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"
    return False


class _Audit(ast.NodeVisitor):
    """One file: its functions never entered and arms never run."""

    def __init__(self, rel: str, executable: set[int], ran: set[int], entered: set):
        self.rel = rel
        self.executable = executable
        self.ran = ran
        self.entered = entered
        self.functions = 0
        self.dead_functions: list[tuple] = []  # (line, qualname, lines, stub)
        self.dead_arms: list[tuple] = []  # (start, end, kind, refusal, lines)
        self._names: list[str] = []
        self._live = [True]

    def _lines(self, first: int, last: int) -> set[int]:
        return {line for line in self.executable if first <= line <= last}

    def _function(self, node) -> None:
        self.functions += 1
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        body = self._lines(node.body[0].lineno, node.end_lineno)
        entered = (self.rel, first, node.name) in self.entered or bool(body & self.ran)
        self._names.append(node.name)
        if self._live[-1] and not entered:
            self.dead_functions.append(
                (node.lineno, ".".join(self._names), len(body), _is_stub(node))
            )
        self._live.append(self._live[-1] and entered)
        self.generic_visit(node)
        self._live.pop()
        self._names.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _function

    def visit_ClassDef(self, node) -> None:
        self._names.append(node.name)
        self.generic_visit(node)
        self._names.pop()

    def _arm(self, kind: str, body: list) -> None:
        lines = self._lines(body[0].lineno, body[-1].end_lineno)
        live = self._live[-1]
        if live and lines and not lines & self.ran:
            refusal = all(isinstance(stmt, ast.Raise) for stmt in body)
            self.dead_arms.append(
                (body[0].lineno, body[-1].end_lineno, kind, refusal, len(lines))
            )
            live = False
        self._live.append(live)
        for stmt in body:
            self.visit(stmt)
        self._live.pop()

    def visit_If(self, node) -> None:
        self.visit(node.test)
        self._arm("if", node.body)
        orelse = node.orelse
        if len(orelse) == 1 and isinstance(orelse[0], ast.If):
            self.visit(orelse[0])  # elif: its own arms
        elif orelse:
            self._arm("else", orelse)

    def visit_Try(self, node) -> None:
        for stmt in node.body + node.orelse + node.finalbody:
            self.visit(stmt)
        for handler in node.handlers:
            self._arm("except", handler.body)

    visit_TryStar = visit_Try


def load_records(out_dir: pathlib.Path) -> tuple[set, dict[str, set[int]], int]:
    entered: set = set()
    ran: dict[str, set[int]] = {}
    records = sorted(out_dir.glob("*.json"))
    for path in records:
        record = json.loads(path.read_text())
        entered.update(tuple(key) for key in record["entered"])
        for rel, lines in record["ran"].items():
            ran.setdefault(rel, set()).update(lines)
    return entered, ran, len(records)


def report(out_dir: pathlib.Path) -> str:
    entered, ran, n_records = load_records(out_dir)
    totals = dict(functions=0, executable=0, run=0)
    dead_functions, dead_arms = [], []
    for path in sorted(SRC.rglob("*.py")):
        rel = str(path.relative_to(ROOT))
        source = path.read_text()
        executable = _code_lines(compile(source, str(path), "exec"))
        file_ran = ran.get(rel, set()) & executable
        totals["executable"] += len(executable)
        totals["run"] += len(file_ran)
        audit = _Audit(rel, executable, file_ran, entered)
        audit.visit(ast.parse(source))
        totals["functions"] += audit.functions
        dead_functions += [(rel, *entry) for entry in audit.dead_functions]
        dead_arms += [(rel, *entry) for entry in audit.dead_arms]
    refusals = [arm for arm in dead_arms if arm[4]]
    others = [arm for arm in dead_arms if not arm[4]]
    stubs = sum(1 for entry in dead_functions if entry[4])
    out = [
        f"records: {n_records}",
        f"functions: {totals['functions']}, never entered: {len(dead_functions)} "
        f"({sum(e[3] for e in dead_functions)} lines; {stubs} abstract or null-object stubs)",
        f"executable lines: {totals['executable']}, run: {totals['run']} "
        f"({100.0 * totals['run'] / max(totals['executable'], 1):.1f}%)",
        f"arms never entered: {len(others)} other ({sum(a[5] for a in others)} lines), "
        f"{len(refusals)} refusals ({sum(a[5] for a in refusals)} lines)",
        "",
        "functions never entered:",
    ]
    out += [
        f"  {rel}:{line} {name} ({n} lines){' [stub]' if stub else ''}"
        for rel, line, name, n, stub in dead_functions
    ]
    for title, arms in (("other arms never entered:", others), ("refusals never entered:", refusals)):
        out += ["", title]
        out += [f"  {rel}:{start} {kind} ({n} lines)" for rel, start, _, kind, _, n in arms]
    return "\n".join(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="record every stage, then report")
    run.add_argument("--out", type=pathlib.Path, help="record directory (default: a new temp dir)")
    show = commands.add_parser("report", help="report on a record directory")
    show.add_argument("out", type=pathlib.Path)
    args = parser.parse_args(argv)
    if args.command == "run":
        out_dir = args.out or pathlib.Path(tempfile.mkdtemp(prefix="reachability-"))
        failures = run_everything(out_dir)
        print(f"records in {out_dir}")
        print(report(out_dir))
        for command in failures:
            print(f"exited non-zero: python {command}")
        return 1 if failures else 0
    print(report(args.out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
