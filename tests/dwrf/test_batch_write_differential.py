"""Differential tests: writing rows cut from batches against the per-value oracle.

The writer packs runs of batch rows by cutting the batch's arrays and
reads every other row through its maps.  Whatever mixture it is handed —
rows of several batches, in any order, repeated, interleaved with
hand-built rows, with maps already read, replaced or edited in place —
the file must be, byte for byte and footer entry for footer entry, what
``PerValueStripeBuilder`` writes from the same rows' maps as they read
at write time.  The oracle only ever sees maps; it is run second, so its
reads cannot decide which path the writer under test took.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import FormatError
from repro.dwrf import DwrfReader, DwrfWriter, EncodingOptions, FileLayout
from repro.dwrf.stripe import StripeColumnarBuilder
from repro.warehouse import (
    DatasetProfile,
    FeatureSpec,
    FeatureType,
    Row,
    SampleGenerator,
    TableSchema,
)
from repro.warehouse.row import FeatureColumn, SampleBatch

from .oracles import PerValueStripeBuilder

PROFILES = (
    DatasetProfile(n_dense=3, n_sparse=3, n_scored=2, avg_coverage=0.5,
                   avg_sparse_length=3.0),
    # Sparse coverage: features miss whole stripes and whole batches.
    DatasetProfile(n_dense=2, n_sparse=2, n_scored=1, avg_coverage=0.08,
                   avg_sparse_length=2.0),
    # IDs past int32: the 8-byte integer stream width.
    DatasetProfile(n_dense=1, n_sparse=2, n_scored=2, avg_coverage=0.7,
                   avg_sparse_length=5.0, id_vocab_size=2**40),
)
EDITS = ("none", "read", "replace", "in_place")


def write(rows, schema, options, builder=StripeColumnarBuilder):
    """The file a :class:`DwrfWriter` packing stripes with *builder* makes of *rows*."""
    with mock.patch("repro.dwrf.writer.StripeColumnarBuilder", builder):
        writer = DwrfWriter(schema, options)
        writer.write_rows(rows)
        return writer.close()


def assert_writes_like_the_oracle(rows, schema, options):
    written = write(rows, schema, options)
    expected = write(rows, schema, options, PerValueStripeBuilder)
    assert written.data == expected.data
    assert written.footer == expected.footer


def hand_built(row: Row) -> Row:
    return Row(row.label, dict(row.dense), dict(row.sparse), dict(row.scores))


def apply_edit(edit: str, row: Row, fids: list[int]) -> None:
    """Touch *row* the way a caller between generator and writer might."""
    if edit == "read":
        row.scores
    elif edit == "replace":
        row.sparse = {fid: ids for fid, ids in row.sparse.items() if fid != fids[0]}
        row.scores = {fid: ws for fid, ws in row.scores.items() if fid != fids[0]}
    elif edit == "in_place":
        dense_fid = min(fids)
        if dense_fid in row.dense:
            del row.dense[dense_fid]
        else:
            row.dense[dense_fid] = 0.125
        for ids in row.sparse.values():
            ids.reverse()


@st.composite
def write_cases(draw):
    profile = draw(st.sampled_from(PROFILES))
    generator = SampleGenerator(profile, seed=draw(st.integers(0, 2**16)))
    schema = generator.build_schema("batches")
    batches = [
        generator.generate_batch(schema, draw(st.integers(0, 24)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    pool = [row for batch in batches for row in batch.rows()]
    selection = draw(st.sampled_from(("all", "subset", "shuffled", "repeated")))
    if selection == "subset":
        rows = [row for row in pool if draw(st.booleans())]
    elif selection == "shuffled":
        rows = draw(st.permutations(pool))
    elif selection == "repeated" and pool:
        rows = draw(st.lists(st.sampled_from(pool), max_size=2 * len(pool)))
    else:
        rows = list(pool)
    if draw(st.booleans()):  # interleave rows that never belonged to a batch
        extras = [hand_built(row) for row in generator.generate_rows(schema, 6)]
        for extra in extras[: draw(st.integers(1, 6))]:
            rows.insert(draw(st.integers(0, len(rows))), extra)
    edit = draw(st.sampled_from(EDITS))
    if edit != "none" and rows:
        sparse_fids = [s.feature_id for s in schema if s.ftype is not FeatureType.DENSE]
        dense_fids = [s.feature_id for s in schema if s.ftype is FeatureType.DENSE]
        fids = dense_fids if edit == "in_place" else sparse_fids
        for row in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
            if row.batch is not None and draw(st.booleans()):
                # Through another view of the sample: the row in hand stays
                # attached to a batch whose maps are now the content.
                row = row.batch.rows()[row.index]
            apply_edit(edit, row, fids)
    fids = schema.feature_ids()
    order = draw(
        st.none()
        | st.lists(st.sampled_from(fids + [999_999]), unique=True).map(tuple)
    )
    options = EncodingOptions(
        layout=FileLayout.FLATTENED,
        stripe_rows=draw(st.sampled_from((1, 2, 5, 16, 64))),
        feature_order=order,
        compress=draw(st.booleans()),
        encrypt=draw(st.booleans()),
    )
    return rows, schema, options


class TestByteEquality:
    @given(write_cases())
    @settings(max_examples=250, deadline=None)
    def test_file_and_footer_are_the_oracles(self, case):
        assert_writes_like_the_oracle(*case)

    @pytest.mark.parametrize("stripe_rows", [1, 7, 64, 256, 1000])
    def test_untouched_table_rows_never_build_a_map(self, stripe_rows):
        generator = SampleGenerator(PROFILES[0], seed=9)
        schema = generator.build_schema("untouched")
        batch = generator.generate_batch(schema, 300)
        rows = batch.rows()
        options = EncodingOptions(stripe_rows=stripe_rows)
        written = write(rows, schema, options)
        assert not batch.maps_built
        expected = write(rows, schema, options, PerValueStripeBuilder)
        assert batch.maps_built  # the oracle's reads, after the fact
        assert (written.data, written.footer) == (expected.data, expected.footer)

    def test_full_coverage_batch_packs_all_present_columns(self):
        profile = DatasetProfile(n_dense=3, n_sparse=2, n_scored=2, avg_coverage=1.0)
        generator = SampleGenerator(profile, seed=5)
        schema = generator.build_schema("full")
        rows = generator.generate_rows(schema, 200)
        assert_writes_like_the_oracle(rows, schema, EncodingOptions(stripe_rows=64))

    def test_stale_columns_are_never_written(self):
        """Replace and edit *before* writing: the file carries the edits."""
        generator = SampleGenerator(PROFILES[0], seed=4)
        schema = generator.build_schema("edited")
        rows = generator.generate_rows(schema, 20)
        victim = SampleGenerator.DENSE_BASE
        rows[3].dense = {victim: 42.0}
        rows[7].dense[victim] = -42.0
        options = EncodingOptions(stripe_rows=8)
        written = write(rows, schema, options)
        back = list(DwrfReader.for_file(written).read_rows(schema))
        assert back[3].dense == {victim: 42.0}
        assert back[7].dense[victim] == -42.0
        assert_writes_like_the_oracle(rows, schema, options)

    def test_an_edit_through_another_view_is_written(self):
        generator = SampleGenerator(PROFILES[0], seed=4)
        schema = generator.build_schema("shared")
        batch = generator.generate_batch(schema, 20)
        rows = batch.rows()
        victim = SampleGenerator.DENSE_BASE
        batch.rows()[11].dense[victim] = 7.0
        assert all(row.batch is batch for row in rows)  # none of these was read
        options = EncodingOptions(stripe_rows=8)
        written = write(rows, schema, options)
        back = list(DwrfReader.for_file(written).read_rows(schema))
        assert back[11].dense[victim] == 7.0
        assert_writes_like_the_oracle(rows, schema, options)


def contradiction_schema() -> TableSchema:
    schema = TableSchema("contradictions")
    schema.add_feature(FeatureSpec(1, "d", FeatureType.DENSE))
    schema.add_feature(FeatureSpec(10, "s", FeatureType.SPARSE, avg_sparse_length=2))
    schema.add_feature(
        FeatureSpec(20, "w", FeatureType.SCORED_SPARSE, avg_sparse_length=2)
    )
    return schema


def dense_column():
    return FeatureColumn(np.array([0, 2]), values=np.array([0.5, 1.5]))


def sparse_column(scored: bool):
    return FeatureColumn(
        np.array([1, 2]),
        lengths=np.array([1, 2]),
        ids=np.array([4, 5, 6]),
        scores=np.array([0.1, 0.2, 0.3]) if scored else None,
    )


CONTRADICTIONS = {
    "dense feature logged sparse values": {1: sparse_column(False)},
    "sparse feature logged dense values": {10: dense_column()},
    "scored feature logged dense values": {20: dense_column()},
    "scored feature logged without score weights": {20: sparse_column(False)},
}


class TestSameRefusals:
    @pytest.mark.parametrize("case", sorted(CONTRADICTIONS))
    def test_a_column_of_the_wrong_kind_raises_the_oracles_error(self, case):
        def rows():
            return SampleBatch(np.zeros(3), dict(CONTRADICTIONS[case])).rows()

        schema = contradiction_schema()
        options = EncodingOptions(stripe_rows=3)
        with pytest.raises(FormatError) as raised:
            write(rows(), schema, options)
        with pytest.raises(FormatError) as expected:
            write(rows(), schema, options, PerValueStripeBuilder)
        assert str(raised.value) == str(expected.value)

    def test_a_contradicting_column_no_stripe_row_logged_is_not_an_error(self):
        batch = SampleBatch(np.zeros(3), dict(CONTRADICTIONS[sorted(CONTRADICTIONS)[0]]))
        rows = batch.rows()[:1]  # batch row 0 logged nothing of feature 1
        assert_writes_like_the_oracle(
            rows, contradiction_schema(), EncodingOptions(stripe_rows=3)
        )

    @pytest.mark.parametrize("step", [1, 2], ids=["consecutive", "every-other"])
    def test_an_empty_column_is_a_feature_nobody_logged(self, step):
        nobody = FeatureColumn(np.array([], dtype=np.int64), values=np.array([]))
        batch = SampleBatch(np.ones(5), {1: nobody, 10: sparse_column(False)})
        assert_writes_like_the_oracle(
            batch.rows()[::step], contradiction_schema(), EncodingOptions(stripe_rows=5)
        )

    def test_columns_the_schema_does_not_know_are_dropped_alike(self):
        batch = SampleBatch(np.ones(3), {1: dense_column(), 77: sparse_column(True)})
        assert_writes_like_the_oracle(
            batch.rows(), contradiction_schema(), EncodingOptions(stripe_rows=2)
        )

    def test_scores_on_an_unscored_feature_are_dropped_alike(self):
        batch = SampleBatch(np.ones(3), {10: sparse_column(True)})
        assert_writes_like_the_oracle(
            batch.rows(), contradiction_schema(), EncodingOptions(stripe_rows=2)
        )
