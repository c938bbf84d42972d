"""The sixteen Table-11 preprocessing operators."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.common.errors import TransformError
from repro.transforms import (
    BoxCox,
    Bucketize,
    Cartesian,
    Clamp,
    ComputeScore,
    DenseColumn,
    Enumerate,
    FeatureBatch,
    FirstX,
    GetLocalHour,
    IdListTransform,
    Logit,
    MapId,
    NGram,
    Onehot,
    PositiveModulus,
    Sampling,
    SigridHash,
    SparseColumn,
    registered_ops,
    splitmix64,
)

from .oracles import column_lists

D, S, S2, SCORED = 1, 2, 3, 4


def make_batch(dense=None, sparse=None, sparse2=None, scored=None, weights=None):
    n = 3
    batch = FeatureBatch(labels=np.zeros(n, dtype=np.float32))
    batch.add_column(
        D,
        DenseColumn(
            np.array(dense or [0.25, 0.5, 0.75], dtype=np.float32),
            np.array([True, True, True]),
        ),
    )
    batch.add_column(S, SparseColumn.from_lists(sparse or [[1, 2, 3], [4, 5], [6]]))
    batch.add_column(S2, SparseColumn.from_lists(sparse2 or [[2, 9], [5], []]))
    batch.add_column(
        SCORED,
        SparseColumn.from_lists(
            scored or [[10, 11], [12], []],
            weights or [[1.0, 2.0], [3.0], []],
        ),
    )
    return batch


class TestRegistry:
    def test_all_table11_ops_registered(self):
        expected = {
            "Cartesian", "Bucketize", "ComputeScore", "Enumerate",
            "PositiveModulus", "IdListTransform", "BoxCox", "Logit",
            "MapId", "FirstX", "GetLocalHour", "SigridHash", "NGram",
            "Onehot", "Clamp", "Sampling",
        }
        assert set(registered_ops()) == expected


class TestDenseNormalization:
    def test_logit_maps_probabilities(self):
        out = Logit(D).apply(make_batch(dense=[0.5, 0.9, 0.1]))
        assert out.values[0] == pytest.approx(0.0, abs=1e-6)
        assert out.values[1] > 0
        assert out.values[2] < 0

    def test_logit_clamps_out_of_range(self):
        out = Logit(D).apply(make_batch(dense=[0.0, 1.0, 2.0]))
        assert np.all(np.isfinite(out.values))

    def test_logit_eps_validation(self):
        with pytest.raises(TransformError):
            Logit(D, eps=0.6)

    def test_boxcox_lambda_zero_is_log(self):
        out = BoxCox(D, lmbda=0.0).apply(make_batch(dense=[1.0, 2.0, 3.0]))
        # Input shifted so min is 1: log(1), log(2), log(3).
        assert out.values[0] == pytest.approx(0.0, abs=1e-6)
        assert out.values[2] == pytest.approx(np.log(3), abs=1e-5)

    def test_boxcox_monotone(self):
        out = BoxCox(D, lmbda=0.5).apply(make_batch(dense=[1.0, 5.0, 10.0]))
        assert out.values[0] < out.values[1] < out.values[2]

    def test_clamp(self):
        out = Clamp(D, 0.3, 0.6).apply(make_batch(dense=[0.25, 0.5, 0.75]))
        assert out.values.tolist() == pytest.approx([0.3, 0.5, 0.6])

    def test_clamp_rejects_inverted_range(self):
        with pytest.raises(TransformError):
            Clamp(D, 1.0, 0.0)

    def test_onehot_bucket_index(self):
        out = Onehot(D, borders=[0.3, 0.6]).apply(make_batch(dense=[0.25, 0.5, 0.75]))
        assert column_lists(out) == [[0], [1], [2]]

    def test_onehot_requires_sorted_borders(self):
        with pytest.raises(TransformError):
            Onehot(D, borders=[0.6, 0.3])

    @given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
    def test_logit_inverse_property(self, p):
        batch = make_batch(dense=[p, p, p])
        out = Logit(D).apply(batch)
        recovered = 1 / (1 + np.exp(-float(out.values[0])))
        assert recovered == pytest.approx(p, rel=1e-3)


class TestSparseNormalization:
    def test_sigridhash_range_and_determinism(self):
        op = SigridHash(S, table_size=100)
        a = op.apply(make_batch())
        b = op.apply(make_batch())
        assert np.array_equal(a.values, b.values)
        assert np.all((a.values >= 0) & (a.values < 100))

    def test_sigridhash_salt_changes_output(self):
        a = SigridHash(S, 10**9, salt=0).apply(make_batch())
        b = SigridHash(S, 10**9, salt=1).apply(make_batch())
        assert not np.array_equal(a.values, b.values)

    def test_sigridhash_preserves_structure(self):
        out = SigridHash(S, 1000).apply(make_batch())
        assert out.lengths().tolist() == [3, 2, 1]

    def test_sigridhash_validation(self):
        with pytest.raises(TransformError):
            SigridHash(S, 0)

    def test_firstx_truncates(self):
        out = FirstX(S, 2).apply(make_batch())
        assert column_lists(out) == [[1, 2], [4, 5], [6]]

    def test_firstx_zero_empties(self):
        out = FirstX(S, 0).apply(make_batch())
        assert column_lists(out) == [[], [], []]

    def test_firstx_keeps_weights(self):
        out = FirstX(SCORED, 1).apply(make_batch())
        assert out.weights.tolist() == pytest.approx([1.0, 3.0])

    def test_positive_modulus_always_non_negative(self):
        batch = make_batch(sparse=[[-7, -1], [5], [12]])
        out = PositiveModulus(S, 5).apply(batch)
        assert column_lists(out) == [[3, 4], [0], [2]]

    def test_mapid_with_default(self):
        out = MapId(S, {1: 100, 4: 400}, default=-1).apply(make_batch())
        assert column_lists(out) == [[100, -1, -1], [400, -1], [-1]]

    def test_enumerate_positions(self):
        out = Enumerate(S).apply(make_batch())
        assert column_lists(out) == [[0, 1, 2], [0, 1], [0]]

    def test_compute_score_affine(self):
        out = ComputeScore(SCORED, scale=2.0, bias=1.0).apply(make_batch())
        assert out.weights.tolist() == pytest.approx([3.0, 5.0, 7.0])
        assert column_lists(out) == [[10, 11], [12], []]

    def test_compute_score_requires_weights(self):
        with pytest.raises(TransformError):
            ComputeScore(S).apply(make_batch())

    def test_idlist_intersection(self):
        out = IdListTransform(S, S2).apply(make_batch())
        assert column_lists(out) == [[2], [5], []]

    def test_idlist_deduplicates(self):
        batch = make_batch(sparse=[[2, 2, 9], [5], []])
        out = IdListTransform(S, S2).apply(batch)
        assert column_lists(out) == [[2, 9], [5], []]


class TestFeatureGeneration:
    def test_cartesian_pair_counts(self):
        out = Cartesian(S, S2).apply(make_batch())
        assert out.lengths().tolist() == [6, 2, 0]

    def test_cartesian_max_pairs_cap(self):
        out = Cartesian(S, S2, max_pairs=3).apply(make_batch())
        assert out.lengths().tolist() == [3, 2, 0]

    def test_cartesian_deterministic(self):
        a = Cartesian(S, S2).apply(make_batch())
        b = Cartesian(S, S2).apply(make_batch())
        assert np.array_equal(a.values, b.values)

    def test_ngram_window_counts(self):
        out = NGram([S], n=2).apply(make_batch())
        # Rows of 3, 2, 1 ids produce 2, 1, 0 bigrams.
        assert out.lengths().tolist() == [2, 1, 0]

    def test_ngram_concatenates_features(self):
        out = NGram([S, S2], n=2).apply(make_batch())
        # Concatenated lengths 5, 3, 1 produce 4, 2, 0 bigrams.
        assert out.lengths().tolist() == [4, 2, 0]

    def test_ngram_unigram_is_identity_length(self):
        out = NGram([S], n=1).apply(make_batch())
        assert out.lengths().tolist() == [3, 2, 1]

    def test_ngram_validation(self):
        with pytest.raises(TransformError):
            NGram([], n=2)
        with pytest.raises(TransformError):
            NGram([S], n=0)

    def test_bucketize_dense_input(self):
        out = Bucketize(D, borders=[0.3, 0.6]).apply(make_batch(dense=[0.1, 0.4, 0.9]))
        assert column_lists(out) == [[0], [1], [2]]

    def test_bucketize_sparse_input(self):
        batch = make_batch(sparse=[[1, 100], [50], []])
        out = Bucketize(S, borders=[10.0, 75.0]).apply(batch)
        assert column_lists(out) == [[0, 2], [1], []]

    def test_get_local_hour(self):
        # 86400 = midnight UTC; offset -8 puts it at 16:00 local.
        batch = make_batch(dense=[86_400.0, 90_000.0, 0.0])
        out = GetLocalHour(D, utc_offset_hours=-8).apply(batch)
        assert out.values.tolist() == [16.0, 17.0, 16.0]

    def test_get_local_hour_range(self):
        batch = make_batch(dense=[0.0, 3_600.0 * 30, 12_345.0])
        out = GetLocalHour(D).apply(batch)
        assert np.all((out.values >= 0) & (out.values < 24))

    def test_get_local_hour_offset_bounds(self):
        with pytest.raises(TransformError):
            GetLocalHour(D, utc_offset_hours=20)


class TestSampling:
    def test_keep_mask_shape(self):
        out = Sampling(rate=0.5, seed=1).apply(make_batch())
        assert len(out.values) == 3
        assert set(np.unique(out.values)) <= {0.0, 1.0}

    def test_rate_one_keeps_all(self):
        out = Sampling(rate=1.0, seed=1).apply(make_batch())
        assert out.values.tolist() == [1.0, 1.0, 1.0]

    def test_deterministic(self):
        a = Sampling(rate=0.5, seed=9).apply(make_batch())
        b = Sampling(rate=0.5, seed=9).apply(make_batch())
        assert np.array_equal(a.values, b.values)

    def test_rate_validation(self):
        with pytest.raises(TransformError):
            Sampling(rate=0.0)
        with pytest.raises(TransformError):
            Sampling(rate=1.5)


class TestSplitmix:
    def test_well_mixed(self):
        values = splitmix64(np.arange(10_000, dtype=np.int64))
        assert len(np.unique(values)) == 10_000
        # Roughly half of the top bits set.
        top_bits = (values >> np.uint64(63)).astype(int)
        assert 0.45 < top_bits.mean() < 0.55

    @given(st.integers(min_value=0, max_value=2**62))
    def test_deterministic(self, x):
        a = splitmix64(np.array([x], dtype=np.int64))
        b = splitmix64(np.array([x], dtype=np.int64))
        assert a[0] == b[0]
