"""Reference implementations the warehouse generator is tested against.

``oracle_generate_rows`` is the body ``SampleGenerator.generate_rows``
shipped before bulk generation handed over columns, kept verbatim: it
draws every per-feature vector, turns each into Python lists at once and
scatters the values into hand-built rows' maps.  It runs on a
:class:`~repro.warehouse.SampleGenerator`'s own RNG and per-feature
statistics, so a generator driven through it and a twin driven through
``generate_rows`` must end with equal rows *and* equal RNG states.
"""

import numpy as np

from repro.warehouse import FeatureType, Row, SampleGenerator, TableSchema


def logged_features(row) -> set[int]:
    """IDs of every feature a row logged, in any of its maps."""
    return set(row.dense) | set(row.sparse) | set(row.scores)


def oracle_generate_rows(
    generator: SampleGenerator, schema: TableSchema, n: int
) -> list[Row]:
    rng = generator._rng
    rows = [Row(label=label) for label in rng.integers(0, 2, size=n).astype(float).tolist()]
    # Each row's maps, bound once: the scatter loops below run per
    # logged value and would otherwise re-resolve them every time.
    dense_of = [row.dense for row in rows]
    sparse_of = [row.sparse for row in rows]
    scores_of = [row.scores for row in rows]
    for spec in schema.logged_features():
        coverage = generator._coverages.get(spec.feature_id, spec.coverage)
        present = np.flatnonzero(rng.random(n) < coverage)
        if present.size == 0:
            continue
        fid = spec.feature_id
        if spec.ftype is FeatureType.DENSE:
            values = rng.normal(size=present.size).tolist()
            for index, value in zip(present.tolist(), values):
                dense_of[index][fid] = value
        else:
            mean_len = generator._lengths.get(fid, spec.avg_sparse_length or 1.0)
            lengths = rng.geometric(1.0 / max(mean_len, 1.0), size=present.size)
            total = int(lengths.sum())
            flat = rng.integers(0, generator.profile.id_vocab_size, size=total)
            offsets = np.concatenate([[0], np.cumsum(lengths)]).tolist()
            scored = spec.ftype is FeatureType.SCORED_SPARSE
            weights = rng.random(size=total) if scored else None
            flat_list = flat.tolist()
            weight_list = None if weights is None else weights.tolist()
            for index, lo, hi in zip(present.tolist(), offsets, offsets[1:]):
                sparse_of[index][fid] = flat_list[lo:hi]
                if scored:
                    scores_of[index][fid] = weight_list[lo:hi]
    return rows
