"""The reachability audit's report, over synthetic record directories.

No traced run: each test writes a small ``src/repro`` tree and the JSON
records a run would have left, then reads the report.  The last test
holds the tool's ``cli`` origin to the ``python -m repro.*`` commands of
``.github/workflows/ci.yml``.
"""

import json
import re
import shlex

import numpy as np
import pytest

import reachability

SOURCE = '''\
def shared(flag=False, mode="a"):
    return flag, mode


def only_tests(x=0):
    return x


def never():
    return [4]


def branchy(x):
    if x > 1:
        return "tests"
    return "anyone"
'''
REL = "src/repro/mod.py"


@pytest.fixture
def tree(tmp_path):
    """``(root, records dir, line of each def)`` for :data:`SOURCE`."""
    module = tmp_path / "src" / "repro" / "mod.py"
    module.parent.mkdir(parents=True)
    module.write_text(SOURCE)
    lines = {
        match.group(1): number
        for number, text in enumerate(SOURCE.splitlines(), start=1)
        if (match := re.match(r"def (\w+)", text))
    }
    records = tmp_path / "records"
    records.mkdir()
    return tmp_path, records, lines


def write_record(records, name, origins):
    """One process's record: per origin, functions entered, lines run
    (of :data:`REL`) and keyword parameters set."""
    payload = {
        origin: {
            "entered": [[REL, line, function] for function, line in part.get("entered", ())],
            "ran": {REL: sorted(part.get("ran", ()))},
            "keywords": [[REL, function, param] for function, param in part.get("keywords", ())],
        }
        for origin, part in origins.items()
    }
    (records / f"{name}.json").write_text(json.dumps({"origins": payload}))


def section(text, title):
    """The entries listed under *title* (up to the next blank line)."""
    lines = text.splitlines()
    start = lines.index(title) + 1
    entries = []
    for line in lines[start:]:
        if not line.strip():
            break
        entries.append(line.strip())
    return entries


def entered(lines, *names):
    return [(name, lines[name]) for name in names]


def test_a_function_entered_only_from_tests_is_listed(tree):
    root, records, lines = tree
    write_record(
        records,
        "tier1",
        {
            "tests": {"entered": entered(lines, "shared", "only_tests")},
            "captures": {"entered": entered(lines, "branchy")},
        },
    )
    write_record(records, "example", {"examples": {"entered": entered(lines, "shared")}})
    text = reachability.report(records, root=root)
    assert section(text, "functions entered only from tests:") == [
        f"{REL}:{lines['only_tests']} only_tests (1 lines)"
    ]
    assert section(text, "functions never entered:") == [f"{REL}:{lines['never']} never (1 lines)"]
    assert "records: 2 (tests 1, captures 1, examples 1, cli 0, dsi 0)" in text
    assert "entered only from tests: 1 functions (1 lines)" in text


def test_an_arm_run_only_from_tests_is_listed(tree):
    root, records, lines = tree
    arm = lines["branchy"] + 2  # return "tests"
    rest = lines["branchy"] + 3  # return "anyone"
    write_record(records, "tier1", {"tests": {"entered": entered(lines, "branchy"), "ran": {arm}}})
    write_record(records, "cli", {"cli": {"entered": entered(lines, "branchy"), "ran": {rest}}})
    text = reachability.report(records, root=root)
    assert section(text, "other arms entered only from tests:") == [f"{REL}:{arm} if (1 lines)"]
    assert section(text, "functions entered only from tests:") == []
    # Run by someone, so not never entered either.
    assert f"{REL}:{arm} if" not in section(text, "other arms never entered:")


def test_the_keyword_table_lists_what_only_tests_set(tree):
    root, records, lines = tree
    write_record(
        records,
        "tier1",
        {
            "tests": {
                "entered": entered(lines, "shared", "only_tests"),
                "keywords": [("shared", "flag"), ("shared", "mode"), ("only_tests", "x")],
            }
        },
    )
    write_record(
        records,
        "suite",
        {"dsi": {"entered": entered(lines, "shared"), "keywords": [("shared", "mode")]}},
    )
    text = reachability.report(records, root=root)
    # ``mode`` has a production origin; ``only_tests`` is listed whole.
    assert section(text, "keyword parameters only tests set:") == [
        f"{REL}:{lines['shared']} shared(flag=)"
    ]
    assert "keyword parameters only tests set: 1" in text


def test_the_report_works_on_an_empty_directory(tree):
    root, records, lines = tree
    text = reachability.report(records, root=root)
    assert text.startswith("records: 0 (tests 0, captures 0, examples 0, cli 0, dsi 0)")
    assert len(section(text, "functions never entered:")) == len(lines)
    for title in (
        "functions entered only from tests:",
        "other arms entered only from tests:",
        "refusals entered only from tests:",
        "keyword parameters only tests set:",
    ):
        assert section(text, title) == []


def test_item_origins_follow_the_path():
    root = reachability.ROOT
    assert reachability.item_origin(root / "benchmarks" / "test_fig1_power.py") == "captures"
    assert reachability.item_origin(root / "benchmarks" / "dsi" / "test_dsi_benchmark.py") == "tests"
    assert reachability.item_origin(root / "tests" / "fleet" / "test_broker.py") == "tests"


def test_a_keyword_counts_as_set_only_when_it_differs_from_its_default():
    same = reachability._same
    assert same(None, None) and same(0, 0.0) and same(np.int64(3), 3) and same("a", "a")
    assert not same(1, 0) and not same("b", "a") and not same(np.zeros(3), None)
    assert not same(np.zeros(3), np.zeros(3))  # ambiguous truth: counted as set


def test_a_method_code_object_resolves_to_its_function():
    from repro.fleet.broker import StorageBroker, StorageFabric
    from repro.tectonic.node import ServedIO

    water_fill = StorageBroker.water_fill
    assert reachability._function_of(water_fill.__code__) is water_fill
    prop = StorageFabric.hdd_bandwidth.fget  # through the property
    assert reachability._function_of(prop.__code__) is prop
    seeks = ServedIO.seeks.fget
    assert reachability._function_of(seeks.__code__) is seeks


def test_a_dataclass_init_is_named_after_its_class():
    from repro.fleet.broker import StorageFabric

    init = StorageFabric.__init__
    fabric = StorageFabric(n_hdd_nodes=1)
    function, filename, qualname = reachability._dataclass_init(init.__code__, fabric)
    assert function is init and qualname == "StorageFabric.__init__"
    assert filename.endswith("fleet/broker.py")
    # Not a dataclass of src/repro: nothing to record.
    assert reachability._dataclass_init(init.__code__, object())[0] is None


# -- the cli origin against CI ------------------------------------------------

CI = reachability.ROOT / ".github" / "workflows" / "ci.yml"


def ci_repro_commands() -> list[list[str]]:
    """Every ``python -m repro.*`` command of the workflow, with shell
    ``for`` loops over ``$name`` expanded, as argv without ``python``."""
    joined, pending = [], ""
    for line in CI.read_text().splitlines():
        stripped = line.strip()
        if stripped.endswith("\\"):
            pending += stripped[:-1] + " "
        else:
            joined.append(pending + stripped)
            pending = ""
    commands, loop = [], None
    for line in joined:
        header = re.match(r"for (\w+) in (.*); do$", line)
        if header:
            loop = (header.group(1), header.group(2).split())
        elif line == "done":
            loop = None
        elif "python -m repro." in line:
            text = line[line.index("python -m repro.") + len("python ") :].rstrip("&").strip()
            name, values = loop or ("", [None])
            for value in values:
                expanded = text if value is None else text.replace(f"${name}", value)
                commands.append(shlex.split(expanded))
    return commands


def shape(argv: list[str]) -> tuple[str, ...]:
    """A command with its file names and seed lists blanked: the tool
    runs shorter seed lists where only the number of sweep cells would
    change, and writes its own file names."""
    out = []
    for previous, token in zip([None, *argv], argv):
        if previous == "--seeds" or token.endswith((".json", ".jsonl")) or "$" in token:
            token = "*"
        out.append(token)
    return tuple(out)


def test_every_ci_repro_command_is_in_the_cli_origin():
    ci = ci_repro_commands()
    assert len(ci) >= 20  # the parser found the smoke jobs' commands
    tool = {shape(argv) for argv in reachability._cli_commands() if argv[0] == "-m"}
    missing = [" ".join(argv) for argv in ci if shape(argv) not in tool]
    assert not missing, f"ci.yml runs commands the reachability tool does not: {missing}"
