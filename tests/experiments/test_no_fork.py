"""Platforms without the ``fork`` start method run inline — same bytes.

The persistent pool needs ``fork``; where it is missing the runners take
the ``jobs=1`` path instead of a second engine, so quarantine and
progress behave exactly as they do serially, while
``run_chunked`` itself still refuses loudly.
"""

import pytest

import repro.experiments.pool as pool_module
import repro.experiments.runner as runner_module
from repro.common.errors import ConfigError
from repro.experiments import SweepRunner, fan_out, quick_grid, run_chunked


@pytest.fixture
def no_fork(monkeypatch):
    """``fork`` reported missing; reaching the pool anyway is an error."""

    def unreachable(*args, **kwargs):
        raise AssertionError("the fork pool ran on a platform without fork")

    monkeypatch.setattr(runner_module, "fork_available", lambda: False)
    monkeypatch.setattr(runner_module, "run_chunked", unreachable)


def _square_or_raise(value):
    if value == 3:
        raise ValueError("poison")
    return value * value


def _fan(jobs, ticks):
    return fan_out(
        list(range(6)),
        _square_or_raise,
        jobs=jobs,
        progress=lambda done, total: ticks.append((done, total)),
        on_item_failed=lambda index, detail: ("quarantined", index, detail),
    )


def test_sweep_runner_equals_serial(no_fork):
    grid = quick_grid((0, 1))
    serial = SweepRunner(grid, jobs=1).run()
    inline = SweepRunner(grid, jobs=4).run()
    assert inline.deterministic_json() == serial.deterministic_json()
    assert inline.jobs == 4


def test_fan_out_equals_serial_quarantine_included(no_fork):
    serial_ticks, ticks = [], []
    serial = _fan(1, serial_ticks)
    assert _fan(3, ticks) == serial
    assert serial[3] == ("quarantined", 3, "ValueError: poison")
    assert ticks == serial_ticks == [(done, 6) for done in range(1, 7)]


def test_fan_out_without_hook_reraises(no_fork):
    with pytest.raises(ValueError, match="poison"):
        fan_out(list(range(6)), _square_or_raise, jobs=3)


def test_run_chunked_still_refuses_loudly(monkeypatch):
    monkeypatch.setattr(pool_module, "fork_available", lambda: False)
    with pytest.raises(ConfigError, match="fork start method"):
        run_chunked(
            lambda start, stop, done: [],
            4,
            jobs=2,
            on_chunk=lambda start, stop, values: None,
        )
