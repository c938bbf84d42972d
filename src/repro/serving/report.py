"""The serving-plane load-test report.

Everything here is measured in *virtual* time, so a report is a pure
function of (scenario, seed): re-running the same load test — serially,
pooled, or on another machine — produces a byte-identical artifact.
Wall-clock throughput lives in ``benchmarks.dsi`` (``items_per_s`` on
its ``serving_burst`` workload), not here.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.serialization import (
    ReportBase,
    percentile,
    record_from_row,
    record_row,
    record_rows,
    rows_of,
)


@dataclass
class QueueStats:
    """Backlog statistics for one bounded queue."""

    name: str
    peak_depth: int = 0
    mean_depth: float = 0.0
    total_enqueued: int = 0


@dataclass
class PoolStats:
    """Sizing history for one role-split worker pool."""

    role: str
    initial: int = 0
    peak: int = 0
    final: int = 0
    launches: int = 0
    drains: int = 0


@dataclass
class ServingReport(ReportBase):
    """One open-loop serving load test, summarized.

    ``arrivals == served + shed`` always holds on a completed run: every
    generated trainer fetch either got a tensor batch or was dropped by
    admission control (possibly after retries).  Latency percentiles
    use the repo's ceiling-index tail convention (see
    :func:`~repro.common.serialization.percentile`).
    """

    report_kind = "serving"

    arrivals: int = 0
    served: int = 0
    shed: int = 0
    retries: int = 0
    epochs: int = 0
    batches_produced: int = 0
    duration_s: float = 0.0
    requests_per_s: float = 0.0
    fetch_p50_ms: float = 0.0
    fetch_p99_ms: float = 0.0
    fetch_p999_ms: float = 0.0
    fetch_mean_ms: float = 0.0
    queues: list[QueueStats] = field(default_factory=list)
    pools: list[PoolStats] = field(default_factory=list)

    @classmethod
    def from_latencies(
        cls, latencies_s: list[float], **fields: object
    ) -> "ServingReport":
        """Build with the percentile block computed from raw latencies."""
        ms = [1_000.0 * v for v in latencies_s]
        return cls(
            fetch_p50_ms=percentile(ms, 50.0),
            fetch_p99_ms=percentile(ms, 99.0),
            fetch_p999_ms=percentile(ms, 99.9),
            fetch_mean_ms=sum(ms) / len(ms) if ms else float("nan"),
            **fields,  # type: ignore[arg-type]
        )

    # -- serialization ---------------------------------------------------------

    def payload(self) -> dict:
        return record_row(self, queues=record_rows, pools=record_rows)

    @classmethod
    def from_payload(cls, payload: dict) -> "ServingReport":
        return record_from_row(
            cls,
            payload,
            "serving report",
            queues=rows_of(QueueStats, "queue stats"),
            pools=rows_of(PoolStats, "pool stats"),
        )

    # -- telemetry -------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out = {
            "serving.arrivals": float(self.arrivals),
            "serving.served": float(self.served),
            "serving.shed": float(self.shed),
            "serving.retries": float(self.retries),
            "serving.epochs": float(self.epochs),
            "serving.requests_per_s": self.requests_per_s,
            "serving.fetch_p50_ms": self.fetch_p50_ms,
            "serving.fetch_p99_ms": self.fetch_p99_ms,
            "serving.fetch_p999_ms": self.fetch_p999_ms,
        }
        for queue in self.queues:
            out[f"serving.{queue.name}_peak_depth"] = float(queue.peak_depth)
        for pool in self.pools:
            out[f"serving.{pool.role}_pool_peak"] = float(pool.peak)
        return out

    def render(self) -> str:
        """Multi-line human summary for the CLI."""
        lines = [
            "serving load test",
            f"  requests      {self.arrivals} arrived, {self.served} served, "
            f"{self.shed} shed, {self.retries} retries",
            f"  sustained     {self.requests_per_s:.1f} req/s over "
            f"{self.duration_s:.1f}s virtual ({self.epochs} epochs, "
            f"{self.batches_produced} batches)",
            f"  fetch latency p50 {self.fetch_p50_ms:.2f} ms · "
            f"p99 {self.fetch_p99_ms:.2f} ms · "
            f"p999 {self.fetch_p999_ms:.2f} ms",
        ]
        for queue in self.queues:
            lines.append(
                f"  queue {queue.name:<10} peak {queue.peak_depth:>5} "
                f"mean {queue.mean_depth:>8.2f} "
                f"enqueued {queue.total_enqueued}"
            )
        for pool in self.pools:
            lines.append(
                f"  pool  {pool.role:<10} {pool.initial} -> {pool.final} "
                f"(peak {pool.peak}, +{pool.launches}/-{pool.drains})"
            )
        return "\n".join(lines)

