"""The whole benchmark from one command: every workload, repeats, a table.

Each (workload, repeat) is one child process running the same
``run`` command the driver uses, one at a time, so peak memory is per
workload and no allocator state leaks between runs.  Per workload the
suite makes ``repeats`` untraced runs (end-to-end metrics: median and
min–max) and one traced run (per-layer metrics).
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import subprocess
import sys

from .catalogue import END_TO_END, PER_LAYER
from .fleet_sweep import FleetSweep
from .harness import VERSION, workload_id
from .ingest_write import IngestWrite
from .serving_burst import ServingBurst
from .train_read import TrainRead

WORKLOAD_CLASSES = {
    cls.name: cls for cls in (IngestWrite, TrainRead, ServingBurst, FleetSweep)
}

CHILD_TIMEOUT_S = 900
ROOT = pathlib.Path(__file__).resolve().parents[2]


def _child(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One run in a fresh process; returns the parsed contract line."""
    command = [
        sys.executable, "-m", "benchmarks.dsi", "run",
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(int(trace)),
    ]  # fmt: skip
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} (seed {seed}, trace {int(trace)}) exited "
            f"{done.returncode}:\n{done.stdout}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise RuntimeError(
            f"{workload} (seed {seed}) failed its oracles:\n{done.stdout}"
        )
    return result


def run_suite(workloads: list[str], seed: int, seconds: int, repeats: int) -> dict:
    """Run *workloads* and summarise; raises if any run fails an oracle."""
    out: dict = {
        "benchmark": "benchmarks.dsi",
        "version": VERSION,
        "nproc": os.cpu_count(),
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "workloads": {},
    }
    for name in workloads:
        cls = WORKLOAD_CLASSES[name]
        frozen = cls(seed, 1.0, None)  # never set up: parameters only
        runs = [_child(name, seed, seconds, trace=False) for _ in range(repeats)]
        traced = _child(name, seed, seconds, trace=True)
        end_to_end = {}
        for metric in END_TO_END:
            values = [run["metrics"][metric.name]["value"] for run in runs]
            if name in metric.exact_on and len(set(values)) != 1:
                raise RuntimeError(
                    f"{name}: exact {metric.name} differs across repeats: {values}"
                )
            end_to_end[metric.name] = {
                "unit": metric.unit,
                "median": statistics.median(values),
                "min": min(values),
                "max": max(values),
                "n": len(values),
                "values": values,
            }
        out["workloads"][name] = {
            "workload_id": workload_id(frozen),
            "params": frozen.params,
            "attempted": [run["attempted"] for run in runs],
            "failed": [run["failed"] for run in runs],
            "end_to_end": end_to_end,
            "per_layer": {
                metric.name: traced["metrics"][metric.name]
                for metric in PER_LAYER
                if name in metric.workloads
            },
        }
    return out


def render(suite: dict) -> str:
    """Every metric by name with unit, median and min–max over repeats."""
    lines = [
        f"benchmarks.dsi v{suite['version']}  seed {suite['seed']}  "
        f"{suite['seconds']} s x {suite['repeats']} repeats + 1 traced  "
        f"nproc {suite['nproc']}"
    ]
    for name, entry in suite["workloads"].items():
        failed = sum(entry["failed"])
        lines.append("")
        lines.append(
            f"{name}  [{entry['workload_id']}]  "
            f"failed {failed} of {sum(entry['attempted'])}"
        )
        for metric, row in entry["end_to_end"].items():
            lines.append(
                f"  {metric:<34} {row['median']:>16.6g} {row['unit']:<9}"
                f" [{row['min']:.6g} .. {row['max']:.6g}] n={row['n']}"
            )
        for metric, row in entry["per_layer"].items():
            lines.append(f"  {metric:<34} {row['value']:>16.6g} {row['unit']}")
    return "\n".join(lines)
