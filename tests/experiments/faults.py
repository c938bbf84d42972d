"""Deterministic cell faults for the experiment-plane tests.

A sweep cell runs ``runner.run_scenario_spec(spec)``.  Each helper
patches that module attribute for the duration of a ``with`` block, so
the fault fires wherever the named cell runs: inline, or inside any
pool worker, since workers are forked after the patch is in place and
inherit it.
"""

import contextlib
import os
from unittest import mock

import repro.experiments.runner as runner_module


@contextlib.contextmanager
def _on_cells(names, fault):
    names = frozenset(names)
    real = runner_module.run_scenario_spec

    def patched(spec, tracer=None):
        if spec.name in names:
            fault()
        return real(spec, tracer)

    with mock.patch.object(runner_module, "run_scenario_spec", patched):
        yield


def raise_on_cells(*names: str, message: str = "injected poison cell"):
    """Each cell in *names* raises ``RuntimeError(message)`` every time."""

    def fault():
        raise RuntimeError(message)

    return _on_cells(names, fault)


def kill_on_cell(name: str, exit_code: int = 9):
    """The process running cell *name* dies at once (``os._exit``), as a
    segfault or an OOM kill would end it.  Pooled runs only: inline, the
    process that dies is the caller's."""
    return _on_cells([name], lambda: os._exit(exit_code))
