"""Which parts of ``src/repro`` the repository's own runs execute, and
which of them only the tests do.

Records every code object entered (``sys.setprofile``), every line run
(``sys.settrace``) and every keyword parameter bound to a value other
than its default under ``src/repro`` across

* tier-1 (``pytest``), with this module loaded as a plugin that re-arms
  both hooks before every test phase: the tests that profile with
  ``cProfile`` or count lines with their own tracer clear a global hook.
  ``--benchmark-disable`` makes each paper capture call its function
  once, outside pytest-benchmark's pause of both hooks;
* every ``examples/*.py``;
* the CLI commands CI runs (shorter seed lists where only the number of
  sweep cells would change);
* ``python -m benchmarks.dsi suite --seconds 1``;

and labels each record with its *origin*: ``tests`` (everything under
``tests/``, ``benchmarks/dsi``'s own tests, and whatever pytest runs
while collecting), ``captures`` (the paper captures, the top-level
``benchmarks/test_*.py``), ``examples``, ``cli`` and ``dsi``.  The
plugin switches origin per test item by the item's path; every other
stage names its origin in ``REPRO_REACHABILITY_ORIGIN``, which its
child processes inherit.

The report prints the functions never entered and the ``if``/``except``
arms never entered, with *refusals* (arms that only raise) apart from
the other arms; then the functions and arms entered only from
``tests``, and the keyword parameters that only ``tests`` set.  An arm
inside a function or arm already listed is not listed again.  A keyword
parameter is *set* when a call binds it to a value that is neither its
default nor equal to it; a dataclass's ``__init__`` fields count.  Once
a non-test origin has set a parameter, a process stops checking it.

Usage::

    python tests/tools/reachability.py run [--out DIR]  # record, then report
    python tests/tools/reachability.py report DIR       # report on records

Every Python process of a run arms itself from a generated
``sitecustomize.py`` on ``PYTHONPATH`` and writes one JSON record into
the output directory when it exits.  Forked pool children leave
through ``os._exit``, which skips ``atexit``, so that is wrapped to
write the record first.  Line tracing stops for a code object once all
of its lines have run under the current origin, which keeps tier-1
within a few times its untraced wall time.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import dataclasses
import json
import numbers
import os
import pathlib
import subprocess
import sys
import tempfile
import threading

ROOT = pathlib.Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
ENV_VAR = "REPRO_REACHABILITY_DIR"
ORIGIN_VAR = "REPRO_REACHABILITY_ORIGIN"
TESTS = "tests"
ORIGINS = (TESTS, "captures", "examples", "cli", "dsi")
_PREFIX = str(SRC) + os.sep

# -- recording (runs inside every traced process) ---------------------------

# Per origin: code objects seen by the profile hook, (filename, line)
# pairs run under src/repro, keyword parameters set (rel, qualname,
# name), line tracers (code -> (lines not yet run, local tracer)) and
# the keyword parameters still to check (code -> [(key, name, default)]).
_entered: dict[str, set] = {}
_ran: dict[str, set[tuple[str, int]]] = {}
_keywords: dict[str, set[tuple[str, str, str]]] = {}
_tracers: dict[str, dict] = {}
_pending: dict[str, dict] = {}
_origin = TESTS
_entered_now: set = set()
_ran_now: set = set()
_keywords_now: set = set()
_tracers_now: dict = {}
_pending_now: dict = {}

_params: dict = {}  # code object -> its defaulted parameters, () if none or not ours
_settled: set = set()  # parameter keys a non-test origin has set
_skip: set = set()  # code objects outside src/repro
_modules: dict = {}  # filename -> loaded module under src/repro
_out_dir: str | None = None
_real_exit = os._exit


def set_origin(origin: str) -> None:
    """Record into *origin*'s sets from now on, here and in children."""
    global _origin, _entered_now, _ran_now, _keywords_now, _tracers_now, _pending_now
    _origin = origin
    os.environ[ORIGIN_VAR] = origin
    _entered_now = _entered.setdefault(origin, set())
    _ran_now = _ran.setdefault(origin, set())
    _keywords_now = _keywords.setdefault(origin, set())
    _tracers_now = _tracers.setdefault(origin, {})
    _pending_now = _pending.setdefault(origin, {})


def _local_tracer(filename: str, todo: set[int], ran: set):
    def local(frame, event, arg):
        if event == "line":
            line = frame.f_lineno
            if line in todo:
                todo.discard(line)
                ran.add((filename, line))
        return local

    return local


def _trace(frame, event, arg):
    code = frame.f_code
    known = _tracers_now.get(code)
    if known is None:
        if code in _skip:
            return None
        if not code.co_filename.startswith(_PREFIX):
            _skip.add(code)
            return None
        todo = {line for _, _, line in code.co_lines() if line is not None}
        known = _tracers_now[code] = (todo, _local_tracer(code.co_filename, todo, _ran_now))
    todo, local = known
    return local if todo else None


def _function_of(code):
    """The function object of a module-level function or method *code*."""
    module = _modules.get(code.co_filename)
    if module is None:
        for name, loaded in list(sys.modules.items()):
            if name.startswith("repro"):
                _modules[getattr(loaded, "__file__", None)] = loaded
        module = _modules.get(code.co_filename)
    if module is None or "<" in code.co_qualname:
        return None
    target = module
    for part in code.co_qualname.split("."):
        target = getattr(target, "__dict__", {}).get(part)
        if target is None:
            return None
    # Unwrap static/class methods, properties and functools wrappers.
    stack = [target]
    while stack and len(stack) < 16:
        target = stack.pop()
        if getattr(target, "__code__", None) is code:
            return target
        for attribute in ("__func__", "fget", "fset", "fdel", "func", "__wrapped__"):
            inner = getattr(target, attribute, None)
            if inner is not None:
                stack.append(inner)
    return None


def _dataclass_init(code, instance) -> tuple:
    """``(function, filename, qualname)`` when *code* is the generated
    ``__init__`` of a dataclass under src/repro."""
    for cls in type(instance).__mro__:
        init = cls.__dict__.get("__init__")
        if getattr(init, "__code__", None) is code:
            filename = getattr(sys.modules.get(cls.__module__), "__file__", None) or ""
            if filename.startswith(_PREFIX) and dataclasses.is_dataclass(cls):
                return init, filename, f"{cls.__qualname__}.__init__"
            break
    return None, "", ""


def _keyword_params(frame) -> tuple:
    code = frame.f_code
    if not code.co_argcount + code.co_kwonlyargcount:
        return ()
    if code.co_filename.startswith(_PREFIX):
        function, filename, qualname = _function_of(code), code.co_filename, code.co_qualname
    elif code.co_name == "__init__" and code.co_filename == "<string>":
        function, filename, qualname = _dataclass_init(code, frame.f_locals.get("self"))
    else:
        return ()
    if function is None:
        return ()
    rel = os.path.relpath(filename, ROOT)
    positional = code.co_varnames[: code.co_argcount]
    defaults = function.__defaults__ or ()
    pairs = list(zip(positional[len(positional) - len(defaults) :], defaults))
    pairs += (function.__kwdefaults__ or {}).items()
    return tuple(((rel, qualname, name), name, default) for name, default in pairs)


def _same(value, default) -> bool:
    if value is default:
        return True
    if type(value) is not type(default) and not (
        isinstance(value, numbers.Number) and isinstance(default, numbers.Number)
    ):
        return False
    try:
        return bool(value == default)
    except Exception:
        return False


def _bind(local_vars: dict, pending: list) -> None:
    for entry in list(pending):
        key, name, default = entry
        if key in _settled:
            pending.remove(entry)
        elif not _same(local_vars.get(name, default), default):
            pending.remove(entry)
            _keywords_now.add(key)
            if _origin != TESTS:
                _settled.add(key)


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        _entered_now.add(code)
        pending = _pending_now.get(code)
        if pending is None:
            params = _params.get(code)
            if params is None:
                params = _params[code] = _keyword_params(frame)
            pending = _pending_now[code] = [p for p in params if p[0] not in _settled]
        if pending:
            _bind(frame.f_locals, pending)


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


def _clear() -> None:
    for table in (_entered, _ran, _keywords):
        for recorded in table.values():
            recorded.clear()


def _write_record() -> None:
    origins = {}
    for origin in sorted(set(_entered) | set(_ran) | set(_keywords)):
        entered = sorted(
            {
                (os.path.relpath(code.co_filename, ROOT), code.co_firstlineno, code.co_name)
                for code in _entered.get(origin, ())
                if code.co_filename.startswith(_PREFIX)
            }
        )
        ran: dict[str, list[int]] = {}
        for filename, line in _ran.get(origin, ()):
            ran.setdefault(os.path.relpath(filename, ROOT), []).append(line)
        keywords = sorted(_keywords.get(origin, ()))
        if entered or ran or keywords:
            origins[origin] = {"entered": entered, "ran": ran, "keywords": keywords}
    _clear()
    handle, path = tempfile.mkstemp(suffix=".json", dir=_out_dir)
    with os.fdopen(handle, "w") as out:
        json.dump({"origins": origins}, out)


def _forget_parent() -> None:
    # A forked child starts with its parent's records, which the parent
    # writes itself; the lines already run stay marked, so they are not
    # traced again.
    _clear()


def _exit(status: int) -> None:
    try:
        dump()
    finally:
        _real_exit(status)


def start(out_dir: str) -> None:
    """Arm this process: record into *out_dir* until it exits."""
    global _out_dir
    _out_dir = out_dir
    set_origin(os.environ.get(ORIGIN_VAR) or TESTS)
    os._exit = _exit
    os.register_at_fork(after_in_child=_forget_parent)
    atexit.register(dump)
    arm()


# pytest plugin hooks (``-p reachability``): cProfile and the line-count
# tests clear the global hooks, so re-arm before every phase, under the
# origin of the item's path.


def item_origin(path: pathlib.Path) -> str:
    """``captures`` for a top-level ``benchmarks/test_*.py``, else ``tests``."""
    return "captures" if pathlib.Path(path).parent == ROOT / "benchmarks" else TESTS


def _arm_for(item) -> None:
    set_origin(item_origin(item.path))
    arm()


def pytest_runtest_setup(item) -> None:
    _arm_for(item)


def pytest_runtest_call(item) -> None:
    _arm_for(item)


def pytest_runtest_teardown(item) -> None:
    _arm_for(item)


def pytest_sessionfinish(session) -> None:
    dump()


# -- running everything ------------------------------------------------------

SITECUSTOMIZE = f"""\
import os
if os.environ.get({ENV_VAR!r}):
    import reachability
    reachability.start(os.environ[{ENV_VAR!r}])
"""

SEEDS = ",".join(map(str, range(10)))
REFERENCE_COMMAND = [
    "-m", "repro.experiments", "sweep", "--quick", "--seeds", SEEDS,
    "--jobs", "1", "--out", "reference.json", "--quiet",
]  # fmt: skip
RESUME_COMMAND = [
    "-m", "repro.experiments", "sweep", "--quick", "--seeds", SEEDS,
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
for slug in ('fleet_default', 'chaos_worst-case', 'dpp_cold-start', 'sweep'):
    assert not validate_chrome_trace(json.load(open(f'chrome_{slug}.json')))
resumed = report_from_json(open('resumed.json').read())
reference = report_from_json(open('reference.json').read())
assert resumed.quarantined == []
assert resumed.deterministic_json() == reference.deterministic_json()
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
    commands += [
        ["-m", "repro.experiments", "sweep", "--quick", "--seeds", "0,1", "--jobs", "2",
         "--quiet", "--trace", "trace_sweep.json"],
        ["-m", "repro.telemetry", "summarize", "trace_sweep.json", "--top", "5"],
        ["-m", "repro.telemetry", "export", "trace_sweep.json", "chrome_sweep.json", "--validate"],
        ["-m", "repro.experiments", "run", "fleet/default", "--seed", "0", "--quiet",
         "--trace", "trace_fleet_default_again.json"],
        ["-m", "repro.telemetry", "diff", "trace_fleet_default.json",
         "trace_fleet_default_again.json"],
    ]  # fmt: skip
    for name in ("serving/steady", "serving/bursty", "serving/overload"):
        slug = name.replace("/", "_")
        commands += [
            ["-m", "repro.experiments", "run", name, "--seed", "0", "--quiet",
             "--out", f"report_{slug}.json", "--trace", f"trace_{slug}.json"],
            ["-m", "repro.telemetry", "export", f"trace_{slug}.json",
             f"chrome_{slug}.json", "--validate"],
        ]  # fmt: skip
    # The resume drill without a kill: a serial reference, a complete
    # journal, then the same command on the journal cut back to its
    # header and half the cells.
    commands += [REFERENCE_COMMAND, RESUME_COMMAND, ["-c", _CUT_JOURNAL], RESUME_COMMAND]
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
        pytest = ["-m", "pytest", "-q", "-p", "reachability", "-p", "no:cacheprovider",
                  "--benchmark-disable"]  # fmt: skip
        stages = [(TESTS, pytest, ROOT)]
        stages += [("examples", [str(ex)], work) for ex in sorted((ROOT / "examples").glob("*.py"))]
        stages += [("cli", argv, work) for argv in _cli_commands()]
        stages.append(("dsi", ["-m", "benchmarks.dsi", "suite", "--seconds", "1"], ROOT))
        for origin, argv, cwd in stages:
            if _run(argv, {**env, ORIGIN_VAR: origin}, cwd) != 0:
                failures.append(" ".join(argv))
    return failures


# -- the report --------------------------------------------------------------


@dataclasses.dataclass
class Coverage:
    """What one origin (or a union of origins) reached."""

    entered: set = dataclasses.field(default_factory=set)  # (rel, first line, name)
    ran: dict = dataclasses.field(default_factory=dict)  # rel -> lines run
    keywords: set = dataclasses.field(default_factory=set)  # (rel, qualname, param)

    def update(self, other: "Coverage") -> None:
        self.entered |= other.entered
        for rel, lines in other.ran.items():
            self.ran.setdefault(rel, set()).update(lines)
        self.keywords |= other.keywords


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
    """One file: its functions and arms never entered, and those entered
    only from ``tests``."""

    def __init__(self, rel: str, executable: set[int], everyone: Coverage, production: Coverage):
        self.rel = rel
        self.executable = executable
        self.views = [
            (cover.entered, cover.ran.get(rel, set()) & executable)
            for cover in (everyone, production)
        ]
        self.ran = self.views[0][1]
        self.functions = 0
        self.dead_functions: list[tuple] = []  # (line, qualname, lines, stub)
        self.dead_arms: list[tuple] = []  # (start, end, kind, refusal, lines)
        self.test_functions: list[tuple] = []  # (line, qualname, lines)
        self.test_arms: list[tuple] = []  # (start, end, kind, refusal, lines)
        self.lines: dict[str, int] = {}  # qualname -> line, functions and classes
        self._names: list[str] = []
        # Per enclosing scope: (reached at all, reached outside tests).
        self._live = [(True, True)]

    def _lines(self, first: int, last: int) -> set[int]:
        return {line for line in self.executable if first <= line <= last}

    def _scope(self, reached: list[bool]) -> tuple[bool, bool]:
        """Push a scope; returns (never entered, entered only from tests)
        for a scope not inside one already listed."""
        live, production = self._live[-1]
        anyone, outside_tests = reached
        self._live.append((live and anyone, production and outside_tests))
        return live and not anyone, production and anyone and not outside_tests

    def _function(self, node) -> None:
        self.functions += 1
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        body = self._lines(node.body[0].lineno, node.end_lineno)
        key = (self.rel, first, node.name)
        self._names.append(node.name)
        qualname = ".".join(self._names)
        self.lines[qualname] = node.lineno
        dead, tests_only = self._scope([key in seen or bool(body & ran) for seen, ran in self.views])
        if dead:
            self.dead_functions.append((node.lineno, qualname, len(body), _is_stub(node)))
        if tests_only:
            self.test_functions.append((node.lineno, qualname, len(body)))
        self.generic_visit(node)
        self._live.pop()
        self._names.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = _function

    def visit_ClassDef(self, node) -> None:
        self._names.append(node.name)
        self.lines[".".join(self._names)] = node.lineno
        self.generic_visit(node)
        self._names.pop()

    def _arm(self, kind: str, body: list) -> None:
        lines = self._lines(body[0].lineno, body[-1].end_lineno)
        dead, tests_only = self._scope([not lines or bool(lines & ran) for _, ran in self.views])
        entry = (
            body[0].lineno,
            body[-1].end_lineno,
            kind,
            all(isinstance(stmt, ast.Raise) for stmt in body),
            len(lines),
        )
        if dead:
            self.dead_arms.append(entry)
        if tests_only:
            self.test_arms.append(entry)
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


def load_records(out_dir: pathlib.Path) -> tuple[dict[str, Coverage], dict[str, int], int]:
    """Per origin, what its records reached and how many records carry
    it; and the number of records."""
    coverage: dict[str, Coverage] = {}
    counts: dict[str, int] = {}
    records = sorted(out_dir.glob("*.json"))
    for path in records:
        for origin, part in json.loads(path.read_text())["origins"].items():
            counts[origin] = counts.get(origin, 0) + 1
            coverage.setdefault(origin, Coverage()).update(
                Coverage(
                    {tuple(key) for key in part["entered"]},
                    {rel: set(lines) for rel, lines in part["ran"].items()},
                    {tuple(key) for key in part["keywords"]},
                )
            )
    return coverage, counts, len(records)


def _arm_lines(title: str, arms: list) -> list[str]:
    return ["", title] + [f"  {rel}:{start} {kind} ({n} lines)" for rel, start, _, kind, _, n in arms]


def report(out_dir: pathlib.Path, root: pathlib.Path = ROOT) -> str:
    coverage, counts, n_records = load_records(out_dir)
    everyone, production = Coverage(), Coverage()
    for origin, reached in coverage.items():
        everyone.update(reached)
        if origin != TESTS:
            production.update(reached)
    totals = dict(functions=0, executable=0, run=0)
    dead_functions, dead_arms, test_functions, test_arms, test_keywords = [], [], [], [], []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        rel = str(path.relative_to(root))
        source = path.read_text()
        executable = _code_lines(compile(source, str(path), "exec"))
        audit = _Audit(rel, executable, everyone, production)
        audit.visit(ast.parse(source))
        totals["functions"] += audit.functions
        totals["executable"] += len(executable)
        totals["run"] += len(audit.ran)
        dead_functions += [(rel, *entry) for entry in audit.dead_functions]
        dead_arms += [(rel, *entry) for entry in audit.dead_arms]
        test_functions += [(rel, *entry) for entry in audit.test_functions]
        test_arms += [(rel, *entry) for entry in audit.test_arms]
        # A keyword of a function already listed is not listed again.
        listed = {entry[1] for entry in audit.dead_functions + audit.test_functions}
        for key in sorted(everyone.keywords - production.keywords):
            key_rel, qualname, param = key
            owner = qualname.removesuffix(".__init__")
            if key_rel == rel and qualname not in listed:
                line = audit.lines.get(qualname, audit.lines.get(owner, 0))
                test_keywords.append((rel, line, qualname, param))
    refusals = [arm for arm in dead_arms if arm[4]]
    others = [arm for arm in dead_arms if not arm[4]]
    test_refusals = [arm for arm in test_arms if arm[4]]
    test_others = [arm for arm in test_arms if not arm[4]]
    stubs = sum(1 for entry in dead_functions if entry[4])
    out = [
        f"records: {n_records} "
        f"({', '.join(f'{o} {counts.get(o, 0)}' for o in ORIGINS)})",
        f"functions: {totals['functions']}, never entered: {len(dead_functions)} "
        f"({sum(e[3] for e in dead_functions)} lines; {stubs} abstract or null-object stubs)",
        f"executable lines: {totals['executable']}, run: {totals['run']} "
        f"({100.0 * totals['run'] / max(totals['executable'], 1):.1f}%)",
        f"arms never entered: {len(others)} other ({sum(a[5] for a in others)} lines), "
        f"{len(refusals)} refusals ({sum(a[5] for a in refusals)} lines)",
        f"entered only from tests: {len(test_functions)} functions "
        f"({sum(e[3] for e in test_functions)} lines), {len(test_others)} other arms "
        f"({sum(a[5] for a in test_others)} lines), {len(test_refusals)} refusals "
        f"({sum(a[5] for a in test_refusals)} lines)",
        f"keyword parameters only tests set: {len(test_keywords)}",
        "",
        "functions never entered:",
    ]
    out += [
        f"  {rel}:{line} {name} ({n} lines){' [stub]' if stub else ''}"
        for rel, line, name, n, stub in dead_functions
    ]
    out += _arm_lines("other arms never entered:", others)
    out += _arm_lines("refusals never entered:", refusals)
    out += ["", "functions entered only from tests:"]
    out += [f"  {rel}:{line} {name} ({n} lines)" for rel, line, name, n in test_functions]
    out += _arm_lines("other arms entered only from tests:", test_others)
    out += _arm_lines("refusals entered only from tests:", test_refusals)
    out += ["", "keyword parameters only tests set:"]
    out += [f"  {rel}:{line} {name}({param}=)" for rel, line, name, param in test_keywords]
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
