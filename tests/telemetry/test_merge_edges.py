"""merge_traces edge cases.

The sweep and experiment runners fold per-cell traces with this merge,
and a grid routinely mixes traced and untraced cells — so the edges
(nothing to merge, one side empty) must stay byte-stable, not just
"probably fine".
"""

from repro.common.serialization import report_from_json
from repro.telemetry import Trace, Tracer, merge_traces


def build_trace(scenario: str, seed: int = 0) -> Trace:
    tracer = Tracer(scenario=scenario, seed=seed)
    tracer.begin("work", actor="main", cell=scenario)
    tracer.instant("mark", actor="main")
    tracer.end(actor="main")
    tracer.counter("queue.depth", 3.0, actor="main")
    return tracer.freeze()


class TestMergeTracesEdges:
    def test_empty_list_yields_an_empty_trace(self):
        merged = merge_traces([])
        assert isinstance(merged, Trace)
        assert merged.processes == []
        flat = merged.metrics()
        assert flat["trace.processes"] == 0.0
        assert flat["trace.events"] == 0.0
        # The empty bundle is still a first-class artifact.
        revived = report_from_json(merged.to_json())
        assert revived.to_json() == merged.to_json()

    def test_merging_the_empty_bundle_is_identity(self):
        alone = build_trace("cell/a").to_json()
        merged = merge_traces([build_trace("cell/a")])
        merged.merge(merge_traces([]))
        assert merged.to_json() == alone

    def test_none_entries_are_untraced_cells(self):
        # A grid mixing traced and untraced cells hands the fold a
        # None per untraced cell: the merge must skip them and yield
        # exactly the traced-only bundle.
        mixed = merge_traces(
            [None, build_trace("cell/a"), None, build_trace("cell/b"), None]
        )
        traced_only = merge_traces(
            [build_trace("cell/a"), build_trace("cell/b")]
        )
        assert mixed.to_json() == traced_only.to_json()
        assert [p.name for p in mixed.processes] == ["cell/a", "cell/b"]

    def test_all_none_is_the_empty_trace(self):
        assert merge_traces([None, None]).to_json() == merge_traces([]).to_json()

    def test_merge_order_is_canonical(self):
        forward = merge_traces([build_trace("cell/a"), build_trace("cell/b")])
        backward = merge_traces([build_trace("cell/b"), build_trace("cell/a")])
        assert forward.to_json() == backward.to_json()

