"""Compare two suite results: one row per (end-to-end metric, workload).

Verdicts follow the metric's fixed bound.  ``worse`` / ``improved``: the
medians differ by more than the bound.  ``unresolved``: the run-to-run
spread on either side is wider than the bound and the two sides' runs
interleave, so the bound cannot be read either way.  ``unchanged``
otherwise.  An exact metric must repeat digit for digit.  Exact
per-layer counts that differ are listed as ``changed``: informational
between commits, a failure between two sets of one commit.
"""

from __future__ import annotations

from .catalogue import END_TO_END, PER_LAYER


def _verdict(metric, workload: str, a: dict, b: dict) -> str:
    sign = 1.0 if metric.better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / a["median"]
    if workload in metric.exact_on:
        if set(b["values"]) == set(a["values"]):
            return "unchanged"
        return "worse" if worse_by > 0 else "improved"
    spread = max(
        (side["max"] - side["min"]) / side["median"] for side in (a, b)
    )
    interleaved = not (a["max"] < b["min"] or b["max"] < a["min"])
    if spread > metric.bound and interleaved:
        return "unresolved"
    if worse_by > metric.bound:
        return "worse"
    if worse_by < -metric.bound:
        return "improved"
    return "unchanged"


def compare(a: dict, b: dict) -> tuple[list[str], bool]:
    """Rows comparing suite *b* against suite *a*; True if any is worse."""
    rows = [
        f"{'workload':<14} {'metric':<16} {'A median [min .. max]':<38} "
        f"{'B median [min .. max]':<38} verdict"
    ]
    any_worse = False
    for name, entry_a in a["workloads"].items():
        entry_b = b["workloads"].get(name)
        if entry_b is None:
            continue
        if entry_a["workload_id"] != entry_b["workload_id"]:
            rows.append(
                f"{name:<14} workload_id {entry_a['workload_id']} != "
                f"{entry_b['workload_id']}: different series, not compared"
            )
            continue
        for metric in END_TO_END:
            side_a = entry_a["end_to_end"][metric.name]
            side_b = entry_b["end_to_end"][metric.name]
            verdict = _verdict(metric, name, side_a, side_b)
            any_worse |= verdict == "worse"
            cells = [
                f"{s['median']:.6g} [{s['min']:.6g} .. {s['max']:.6g}]"
                for s in (side_a, side_b)
            ]
            rows.append(
                f"{name:<14} {metric.name:<16} {cells[0]:<38} {cells[1]:<38} {verdict}"
            )
        shares = [
            sum(entry["failed"]) / sum(entry["attempted"])
            for entry in (entry_a, entry_b)
        ]
        any_worse |= shares[1] > shares[0]
        rows.append(
            f"{name:<14} {'failed_share':<16} {shares[0]:<38.6g} {shares[1]:<38.6g} "
            f"{'worse' if shares[1] > shares[0] else 'unchanged'}"
        )
        for metric in PER_LAYER:
            if not metric.exact or name not in metric.workloads:
                continue
            value_a = entry_a["per_layer"][metric.name]["value"]
            value_b = entry_b["per_layer"][metric.name]["value"]
            if value_a != value_b:
                rows.append(
                    f"{name:<14} {metric.name:<34} {value_a!r} -> {value_b!r} changed"
                )
    return rows, any_worse
