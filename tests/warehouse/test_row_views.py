"""A row cut from a batch is a row: the view keeps the whole ``Row`` contract.

Every check pairs a view with a hand-built row of the same content (the
view's own maps, deep-copied) and asks both the same question.  The
one-truth rule is checked from the row's side here: the first map read
builds the maps of the whole batch once, every view of a sample hands
out the same dict objects from then on, and assigning a map detaches the
row without touching the batch's other views.
"""

import copy
import pickle

import numpy as np
import pytest

from repro.warehouse import DatasetProfile, Row, SampleGenerator
from repro.warehouse.row import FeatureColumn, SampleBatch

from .oracles import logged_features


def make_batch(n=40, seed=3) -> SampleBatch:
    profile = DatasetProfile(
        n_dense=4, n_sparse=3, n_scored=2, avg_coverage=0.6, avg_sparse_length=3.0
    )
    generator = SampleGenerator(profile, seed=seed)
    return generator.generate_batch(generator.build_schema("views"), n)


def hand_built(row: Row) -> Row:
    return Row(
        row.label,
        dense=copy.deepcopy(row.dense),
        sparse=copy.deepcopy(row.sparse),
        scores=copy.deepcopy(row.scores),
    )


@pytest.fixture
def pairs():
    """(view, hand-built twin) for every sample of one batch."""
    twins = [hand_built(row) for row in make_batch().rows()]
    return list(zip(make_batch().rows(), twins))


class TestSameContract:
    def test_equality_both_ways_and_inequality(self, pairs):
        for view, twin in pairs:
            assert view == twin and twin == view
            assert not (view != twin)
        (first, _), (_, other) = pairs[0], pairs[1]
        assert first != other
        assert first != "a row"

    def test_rows_are_unhashable_like_any_mutable_value(self, pairs):
        with pytest.raises(TypeError):
            hash(pairs[0][0])

    def test_repr_has_the_dataclass_shape(self, pairs):
        for view, twin in pairs:
            assert repr(view) == repr(twin)
        row = Row(1.0, dense={3: 0.5}, sparse={7: [1, 2]}, scores={7: [0.25, 0.5]})
        assert repr(row) == (
            "Row(label=1.0, dense={3: 0.5}, sparse={7: [1, 2]}, "
            "scores={7: [0.25, 0.5]})"
        )

    def test_queries_agree(self, pairs):
        for view, twin in pairs:
            assert view.nominal_bytes() == twin.nominal_bytes()
            assert logged_features(view) == logged_features(twin)
            for fid in (0, 1, 100_000, 200_001, 999):
                assert view.has_feature(fid) == twin.has_feature(fid)

    def test_pickle_and_deepcopy_arrive_as_plain_rows(self, pairs):
        for view, twin in pairs[:8]:
            for clone in (pickle.loads(pickle.dumps(view)), copy.deepcopy(view)):
                assert clone == twin and clone.batch is None
                assert clone.dense is not view.dense
        plain = pairs[0][1]
        assert pickle.loads(pickle.dumps(plain)) == plain
        assert copy.deepcopy(plain) == plain

    def test_constructor_is_the_dataclass_one(self):
        assert Row(1.0) == Row(label=1.0, dense={}, sparse={}, scores={})
        row = Row(0.0, {1: 2.0}, {5: [1]}, {5: [0.5]})
        assert (row.dense, row.sparse, row.scores) == ({1: 2.0}, {5: [1]}, {5: [0.5]})
        a, b = Row(1.0), Row(1.0)
        a.dense[1] = 1.0
        assert b.dense == {}  # default maps are per row


class TestOneTruth:
    def test_labels_are_python_floats_and_assignable(self):
        batch = make_batch()
        rows = batch.rows()
        assert [type(row.label) for row in rows] == [float] * len(batch.labels)
        assert [row.label for row in rows] == batch.labels.tolist()
        rows[0].label = 0.5
        assert rows[0].label == 0.5 and not batch.maps_built

    def test_first_read_builds_every_rows_maps_once(self):
        batch = make_batch()
        rows, again = batch.rows(), batch.rows()
        assert not batch.maps_built and rows[0].batch is batch and rows[0].index == 0
        rows[5].sparse  # any map of any row
        assert batch.maps_built
        built = batch.maps()
        for index, (row, other) in enumerate(zip(rows, again)):
            assert row.dense is other.dense is built[0][index]
            assert row.sparse is other.sparse is built[1][index]
            assert row.scores is other.scores is built[2][index]
        assert batch.maps() is built

    def test_in_place_edit_shows_through_every_view(self):
        batch = make_batch()
        row, other = batch.rows()[2], batch.rows()[2]
        row.dense[77] = 1.5
        assert other.dense[77] == 1.5 and other == row

    def test_replacing_a_map_detaches_only_that_row(self):
        batch = make_batch()
        row, other = batch.rows()[4], batch.rows()[4]
        row.dense = {}  # assigned before anything was read
        assert row.batch is None and batch.maps_built
        assert row.dense == {} and row.sparse is other.sparse
        assert other.dense is batch.maps()[0][4] and other.dense is not row.dense

    def test_maps_follow_the_columns(self):
        labels = np.array([1.0, 0.0, 1.0])
        batch = SampleBatch(
            labels,
            {
                9: FeatureColumn(np.array([0, 2]), values=np.array([0.5, -1.0])),
                4: FeatureColumn(
                    np.array([1, 2]),
                    lengths=np.array([2, 0]),
                    ids=np.array([7, 8]),
                    scores=np.array([0.25, 0.75]),
                ),
            },
        )
        assert batch.rows() == [
            Row(1.0, dense={9: 0.5}),
            Row(0.0, sparse={4: [7, 8]}, scores={4: [0.25, 0.75]}),
            Row(1.0, dense={9: -1.0}, sparse={4: []}, scores={4: []}),
        ]
