"""StripeMeta answers stream lookups from an index; a linear scan over
the footer is the oracle."""

import json
import pathlib

import pytest

from repro.analysis import popularity_feature_order
from repro.common.errors import FormatError
from repro.dwrf.layout import EncodingOptions, FileLayout
from repro.dwrf.stream import ROW_LEVEL, StreamKind
from repro.dwrf.writer import write_table_partition
from repro.workloads import RM1, build_mini_dataset

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden" / "golden_dwrf.json").read_text()
)


@pytest.fixture(scope="module")
def footers():
    """The three golden-bytes layouts' footers."""
    dataset = build_mini_dataset(RM1, ["p0"], GOLDEN["rows"], seed=GOLDEN["seed"])
    rows = dataset.table.partition("p0").rows
    layouts = {
        "map": EncodingOptions(layout=FileLayout.MAP, stripe_rows=200),
        "flattened": EncodingOptions(layout=FileLayout.FLATTENED, stripe_rows=200),
        "flattened_reordered": EncodingOptions(
            layout=FileLayout.FLATTENED,
            stripe_rows=200,
            feature_order=popularity_feature_order(dataset),
        ),
    }
    return {
        name: write_table_partition(rows, dataset.table.schema, options).footer
        for name, options in layouts.items()
    }


def linear_stream(stripe, feature_id, kind):
    for info in stripe.streams:
        if info.feature_id == feature_id and info.kind is kind:
            return info
    return None


@pytest.mark.parametrize("layout", ["map", "flattened", "flattened_reordered"])
def test_lookups_match_a_linear_scan(layout, footers):
    footer = footers[layout]
    feature_ids = (ROW_LEVEL, *footer.feature_ids, max(footer.feature_ids) + 1)
    missing = 0
    for stripe in footer.stripes:
        assert "_stream_index" not in vars(stripe)  # writing never built it
        for feature_id in feature_ids:
            for kind in StreamKind:
                expected = linear_stream(stripe, feature_id, kind)
                assert stripe.has_stream(feature_id, kind) is (expected is not None)
                if expected is not None:
                    assert stripe.stream(feature_id, kind) is expected
                    continue
                missing += 1
                with pytest.raises(FormatError, match=rf"\({feature_id}, {kind.value}\)"):
                    stripe.stream(feature_id, kind)
    assert missing  # the FormatError arm ran
