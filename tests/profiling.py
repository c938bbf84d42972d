"""Counting Python-level work without the cyclic collector's noise.

The history-independence tests count calls (``cProfile``) or executed
lines (``sys.settrace``).  A collection inside a counted block would add
the calls and lines of every ``gc.callbacks`` entry (hypothesis installs
one once any of its tests has run), at points set by the allocation
count carried into the block — not by the code under test.
"""

import contextlib
import gc


@contextlib.contextmanager
def collector_off():
    """Run the block with the cyclic collector disabled."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@contextlib.contextmanager
def profiled(profile):
    """Profile the block with *profile* (a ``cProfile.Profile``), the
    cyclic collector off."""
    with collector_off():
        profile.enable()
        try:
            yield
        finally:
            profile.disable()
