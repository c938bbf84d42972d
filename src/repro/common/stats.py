"""Distribution summaries and CDF points.

The paper reports most of its characterization results as distribution
summaries (Table 6) or cumulative distribution functions (Figure 7).
This module holds the shapes those results share.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np


@dataclass(frozen=True)
class DistributionSummary:
    """Summary statistics in the shape of the paper's Table 6."""

    count: int
    mean: float
    std: float
    p5: float
    p25: float
    p50: float
    p75: float
    p95: float


def summarize(values: Iterable[float]) -> DistributionSummary:
    """Compute a :class:`DistributionSummary` over *values*.

    Raises ``ValueError`` on an empty input because an empty
    characterization is always a bug in the experiment harness.
    """
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        raise ValueError("cannot summarize an empty distribution")
    p5, p25, p50, p75, p95 = np.percentile(data, [5, 25, 50, 75, 95])
    return DistributionSummary(
        count=int(data.size),
        mean=float(data.mean()),
        std=float(data.std(ddof=0)),
        p5=float(p5),
        p25=float(p25),
        p50=float(p50),
        p75=float(p75),
        p95=float(p95),
    )


@dataclass(frozen=True)
class CdfPoint:
    """One (x, y) point on a cumulative distribution curve."""

    x: float
    y: float
