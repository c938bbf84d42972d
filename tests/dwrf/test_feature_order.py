"""``EncodingOptions.feature_order``: each feature once, placed in one pass.

A repeated ID used to write that feature's streams twice — the reader
kept the first copy and the file was silently larger — and the stripe's
stream order rebuilt ``set(ordered)`` once per schema feature.
"""

import pytest

from repro.common.errors import FormatError
from repro.dwrf import EncodingOptions, write_table_partition
from repro.dwrf.stripe import _ordered_feature_ids
from repro.warehouse import FeatureSpec, FeatureType, Row, TableSchema


def dense_schema(n: int) -> TableSchema:
    schema = TableSchema("ordered")
    for fid in range(1, n + 1):
        schema.add_feature(FeatureSpec(fid, f"d{fid}", FeatureType.DENSE))
    return schema


@pytest.mark.parametrize("order", [(2, 2, 1), (1, 2, 1), [3, 3], (5, 1, 5, 1)])
def test_a_repeated_id_is_refused(order):
    with pytest.raises(FormatError, match="feature_order repeats"):
        EncodingOptions(feature_order=order)


def test_every_feature_is_written_once_under_any_accepted_order():
    schema = dense_schema(2)
    rows = [Row(1.0, dense={1: 0.5, 2: 1.5}), Row(0.0, dense={2: 2.5})]
    sizes = {
        order: write_table_partition(
            rows, schema, EncodingOptions(feature_order=order)
        ).size
        for order in (None, (2, 1), (2,), (2, 99, 1))
    }
    assert len(set(sizes.values())) == 1


class CountingId(int):
    """A feature ID that counts how often it is hashed."""

    hashed = 0

    def __hash__(self) -> int:
        CountingId.hashed += 1
        return int.__hash__(self)


@pytest.mark.parametrize("n_features", [8, 280])
def test_ordering_hashes_each_ordered_id_a_fixed_number_of_times(n_features):
    order = tuple(CountingId(fid) for fid in (5, 3, 8, 1))
    options = EncodingOptions(feature_order=order)
    schema = dense_schema(n_features)
    CountingId.hashed = 0
    ordered = _ordered_feature_ids(schema, options)
    assert ordered[:4] == [5, 3, 8, 1] and sorted(ordered) == schema.feature_ids()
    # Once to test membership in the schema, once to build the placed set —
    # not once more per schema feature.
    assert CountingId.hashed == 2 * len(order)
