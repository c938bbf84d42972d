"""Differential tests: the stripe builder against its per-value oracle.

The builder keeps a reference to every id and score sequence and
flattens each feature once when the stripe packs; the oracle is the body
it replaced, which copied every value as rows arrived.  Both must emit
the same streams byte for byte, refuse the same malformed rows with the
same error, and the builder must leave the caller's rows as it found
them.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import FormatError
from repro.dwrf import DwrfWriter, EncodingOptions, FileLayout
from repro.dwrf.stripe import StripeColumnarBuilder
from repro.warehouse import FeatureSpec, FeatureType, Row, TableSchema

from .oracles import PerValueStripeBuilder

DENSE_IDS = (1, 2, 3)
SPARSE_IDS = (10, 11)
SCORED_IDS = (20, 21)
OPTIONS = EncodingOptions(layout=FileLayout.FLATTENED, stripe_rows=7)


def make_schema() -> TableSchema:
    schema = TableSchema("differential")
    for fid in DENSE_IDS:
        schema.add_feature(FeatureSpec(fid, f"d{fid}", FeatureType.DENSE))
    for fid in SPARSE_IDS:
        schema.add_feature(
            FeatureSpec(fid, f"s{fid}", FeatureType.SPARSE, avg_sparse_length=3)
        )
    for fid in SCORED_IDS:
        schema.add_feature(
            FeatureSpec(fid, f"w{fid}", FeatureType.SCORED_SPARSE, avg_sparse_length=3)
        )
    return schema


id_lists = st.lists(st.integers(min_value=-(2**50), max_value=2**50), max_size=6)
floats32 = st.floats(allow_nan=False, allow_infinity=False, width=32)


@st.composite
def row_batches(draw):
    """Rows with mixed coverage; some features never appear in a batch."""
    logged = draw(
        st.sets(st.sampled_from(DENSE_IDS + SPARSE_IDS + SCORED_IDS), min_size=1)
    )
    rows = []
    for _ in range(draw(st.integers(min_value=1, max_value=24))):
        row = Row(label=float(draw(st.integers(0, 1))))
        for fid in sorted(logged):
            if not draw(st.booleans()):
                continue
            if fid in DENSE_IDS:
                row.dense[fid] = draw(floats32)
                continue
            ids = draw(id_lists)
            row.sparse[fid] = ids
            if fid in SCORED_IDS:
                row.scores[fid] = [draw(floats32) for _ in ids]
        rows.append(row)
    return rows


def streams_of(builder_class, rows, schema=None, options=OPTIONS):
    builder = builder_class(schema or make_schema(), options)
    for row in rows:
        builder.add_row(row)
    return [(s.feature_id, s.kind, s.payload) for s in builder.build()]


def stripes_of(rows, size):
    return [rows[lo : lo + size] for lo in range(0, len(rows), size)]


class TestByteEquality:
    @given(row_batches())
    @settings(max_examples=120, deadline=None)
    def test_every_stripe_packs_to_the_oracles_streams(self, rows):
        for stripe in stripes_of(rows, OPTIONS.stripe_rows):
            assert streams_of(StripeColumnarBuilder, stripe) == streams_of(
                PerValueStripeBuilder, stripe
            )

    @given(row_batches())
    @settings(max_examples=60, deadline=None)
    def test_written_file_is_the_oracles_streams_back_to_back(self, rows):
        writer = DwrfWriter(make_schema(), OPTIONS)
        writer.write_rows(rows)
        written = writer.close()
        stripes = stripes_of(rows, OPTIONS.stripe_rows)
        expected = [streams_of(PerValueStripeBuilder, stripe) for stripe in stripes]
        assert written.data == b"".join(
            payload for stripe in expected for _, _, payload in stripe
        )
        assert [meta.row_count for meta in written.footer.stripes] == [
            len(stripe) for stripe in stripes
        ]
        assert [
            [(info.feature_id, info.kind) for info in meta.streams]
            for meta in written.footer.stripes
        ] == [[(fid, kind) for fid, kind, _ in stripe] for stripe in expected]

    @given(row_batches())
    @settings(max_examples=40, deadline=None)
    def test_feature_order_option_is_honoured_alike(self, rows):
        options = EncodingOptions(
            layout=FileLayout.FLATTENED, feature_order=(21, 3, 10)
        )
        assert streams_of(
            StripeColumnarBuilder, rows, options=options
        ) == streams_of(PerValueStripeBuilder, rows, options=options)

    def test_sequences_need_not_be_lists(self):
        listed = Row(1.0, sparse={10: [4, 5], 20: [6]}, scores={20: [0.5]})
        tupled = Row(1.0, sparse={10: (4, 5), 20: (6,)}, scores={20: (0.5,)})
        assert streams_of(StripeColumnarBuilder, [tupled]) == streams_of(
            PerValueStripeBuilder, [listed]
        )


def malformed_rows():
    return {
        "dense logged sparse": [Row(0.0, sparse={1: [7]})],
        "sparse logged dense": [Row(0.0, dense={10: 1.0})],
        "scored without weights": [
            Row(1.0, sparse={20: [1]}, scores={20: [0.5]}),
            Row(0.0, sparse={10: [2], 20: [3, 4]}),
        ],
        "weights without ids": [Row(0.0, sparse={10: [1]}, scores={20: [0.5]})],
        "empty stripe": [],
    }


class TestSameRefusals:
    @pytest.mark.parametrize("case", sorted(malformed_rows()))
    def test_malformed_rows_raise_the_oracles_error(self, case):
        rows = malformed_rows()[case]
        with pytest.raises(FormatError) as expected:
            streams_of(PerValueStripeBuilder, rows)
        with pytest.raises(FormatError) as raised:
            streams_of(StripeColumnarBuilder, rows)
        assert str(raised.value) == str(expected.value)

    @pytest.mark.parametrize("case", ["scored without weights", "weights without ids"])
    def test_row_level_errors_surface_when_the_row_is_added(self, case):
        builder = StripeColumnarBuilder(make_schema(), OPTIONS)
        with pytest.raises(FormatError):
            for row in malformed_rows()[case]:
                builder.add_row(row)


class TestOwnership:
    @given(row_batches())
    @settings(max_examples=40, deadline=None)
    def test_rows_are_read_not_changed(self, rows):
        before = copy.deepcopy(rows)
        sequences = [
            seq for row in rows for seq in (*row.sparse.values(), *row.scores.values())
        ]
        streams_of(StripeColumnarBuilder, rows)
        assert rows == before
        after = [
            seq for row in rows for seq in (*row.sparse.values(), *row.scores.values())
        ]
        assert all(a is b for a, b in zip(sequences, after))
