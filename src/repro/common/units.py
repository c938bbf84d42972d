"""Unit helpers for bytes and bandwidth.

All internal accounting in the library uses *bytes*, *seconds*, and
*bytes per second*.  These helpers exist so that configuration code can
say ``gigabytes(0.15)`` or ``gbps(12.5)`` instead of sprinkling magic
multipliers around.  Decimal (SI) prefixes are used for storage and
network quantities to match how the paper reports them (PB, Gbps);
``mebibytes`` serves the memory-oriented ones.
"""

from __future__ import annotations

MB = 1_000_000
GB = 1_000_000_000
TB = 1_000_000_000_000
PB = 1_000_000_000_000_000

MIB = 1 << 20


def gigabytes(n: float) -> float:
    """Return *n* decimal gigabytes expressed in bytes."""
    return n * GB


def mebibytes(n: float) -> float:
    """Return *n* binary mebibytes expressed in bytes."""
    return n * MIB


def gbps(n: float) -> float:
    """Return *n* gigabits per second expressed in bytes per second."""
    return n * GB / 8


def to_pb(n_bytes: float) -> float:
    """Express *n_bytes* in decimal petabytes."""
    return n_bytes / PB
