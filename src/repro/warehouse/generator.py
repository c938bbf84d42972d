"""Synthetic training-sample generation.

The paper's datasets are proprietary; what matters for every result are
their *statistics*: how many dense/sparse features exist (Table 5), the
per-feature coverage (fraction of samples logging the feature), the
sparse list lengths, and the categorical ID distributions.  This module
generates samples whose statistics match a declared profile, so that
downstream systems (DWRF, DPP) exercise realistic data shapes.

Bulk generation hands over columns: :meth:`SampleGenerator.generate_batch`
returns the arrays it drew as a :class:`~repro.warehouse.row.SampleBatch`
and the rows are views of it.  Under that module's one-truth rule the
arrays are what the DWRF writer packs until somebody reads a row's maps;
the maps are built then, once per batch, and are the content from there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..common.errors import ConfigError
from .row import FeatureColumn, Row, SampleBatch
from .schema import FeatureSpec, FeatureStatus, FeatureType, TableSchema
from .table import Table


@dataclass(frozen=True)
class DatasetProfile:
    """Statistical profile of a synthetic dataset.

    The defaults approximate the dataset rows of Table 5.  Coverage is
    drawn per-feature from a Beta distribution with the given mean, and
    sparse lengths per (row, feature) from a geometric distribution
    around ``avg_sparse_length``.
    """

    n_dense: int
    n_sparse: int
    n_scored: int = 0
    avg_coverage: float = 0.45
    avg_sparse_length: float = 26.0
    id_vocab_size: int = 100_000
    coverage_concentration: float = 4.0

    def __post_init__(self) -> None:
        if min(self.n_dense, self.n_sparse, self.n_scored) < 0:
            raise ConfigError("feature counts must be non-negative")
        if not 0 < self.avg_coverage <= 1:
            raise ConfigError("avg_coverage must be in (0, 1]")
        if self.avg_sparse_length <= 0:
            raise ConfigError("avg_sparse_length must be positive")
        if self.id_vocab_size <= 0:
            raise ConfigError("id_vocab_size must be positive")

    @property
    def total_features(self) -> int:
        """Total number of feature columns the profile declares."""
        return self.n_dense + self.n_sparse + self.n_scored


class SampleGenerator:
    """Generates schemas and rows matching a :class:`DatasetProfile`."""

    # Feature IDs are laid out in disjoint ranges per type so tests can
    # tell dense from sparse by ID alone.
    DENSE_BASE = 0
    SPARSE_BASE = 100_000
    SCORED_BASE = 200_000

    def __init__(self, profile: DatasetProfile, seed: int = 0) -> None:
        self.profile = profile
        self._rng = np.random.default_rng(seed)
        self._coverages: dict[int, float] = {}
        self._lengths: dict[int, float] = {}

    def build_schema(self, table_name: str) -> TableSchema:
        """Create a schema with per-feature coverage/length draws."""
        profile = self.profile
        schema = TableSchema(table_name)
        concentration = profile.coverage_concentration
        alpha = profile.avg_coverage * concentration
        beta = (1 - profile.avg_coverage) * concentration

        def draw_coverage() -> float:
            if profile.avg_coverage == 1:
                return 1.0  # every sample logs every feature; Beta(alpha, 0) is no law
            # Clamp away from 0 so every feature appears occasionally.
            return float(np.clip(self._rng.beta(alpha, beta), 0.01, 1.0))

        for i in range(profile.n_dense):
            fid = self.DENSE_BASE + i
            coverage = draw_coverage()
            self._coverages[fid] = coverage
            schema.add_feature(
                FeatureSpec(fid, f"dense_{i}", FeatureType.DENSE,
                            FeatureStatus.ACTIVE, coverage=coverage)
            )
        for i in range(profile.n_sparse):
            fid = self.SPARSE_BASE + i
            coverage = draw_coverage()
            length = float(max(1.0, self._rng.lognormal(np.log(profile.avg_sparse_length) - 0.18, 0.6)))
            self._coverages[fid] = coverage
            self._lengths[fid] = length
            schema.add_feature(
                FeatureSpec(fid, f"sparse_{i}", FeatureType.SPARSE,
                            FeatureStatus.ACTIVE, coverage=coverage,
                            avg_sparse_length=length)
            )
        for i in range(profile.n_scored):
            fid = self.SCORED_BASE + i
            coverage = draw_coverage()
            length = float(max(1.0, self._rng.lognormal(np.log(profile.avg_sparse_length) - 0.18, 0.6)))
            self._coverages[fid] = coverage
            self._lengths[fid] = length
            schema.add_feature(
                FeatureSpec(fid, f"scored_{i}", FeatureType.SCORED_SPARSE,
                            FeatureStatus.ACTIVE, coverage=coverage,
                            avg_sparse_length=length)
            )
        return schema

    def generate_row(self, schema: TableSchema) -> Row:
        """Draw one sample consistent with the schema's statistics."""
        rng = self._rng
        row = Row(label=float(rng.integers(0, 2)))
        for spec in schema.logged_features():
            if rng.random() >= self._coverages.get(spec.feature_id, spec.coverage):
                continue
            if spec.ftype is FeatureType.DENSE:
                row.dense[spec.feature_id] = float(rng.normal())
            else:
                mean_len = self._lengths.get(spec.feature_id, spec.avg_sparse_length or 1.0)
                # Geometric with the right mean; at least one element.
                p = 1.0 / max(mean_len, 1.0)
                length = int(rng.geometric(p))
                ids = rng.integers(0, self.profile.id_vocab_size, size=length)
                row.sparse[spec.feature_id] = ids.tolist()
                if spec.ftype is FeatureType.SCORED_SPARSE:
                    row.scores[spec.feature_id] = rng.random(size=length).tolist()
        return row

    def generate_batch(self, schema: TableSchema, n: int) -> SampleBatch:
        """Vectorized bulk generation of *n* samples, as columns.

        Statistically identical to *n* calls of :meth:`generate_row`
        but draws per-feature vectors across all rows at once, which is
        what makes MB-scale ablation datasets affordable.  The draws
        stay the arrays they are: nothing here leaves numpy.
        """
        _check_row_count(n)
        rng = self._rng
        labels = rng.integers(0, 2, size=n).astype(float)
        columns: dict[int, FeatureColumn] = {}
        for spec in schema.logged_features():
            coverage = self._coverages.get(spec.feature_id, spec.coverage)
            present = np.flatnonzero(rng.random(n) < coverage)
            if present.size == 0:
                continue
            fid = spec.feature_id
            if spec.ftype is FeatureType.DENSE:
                columns[fid] = FeatureColumn(
                    present, values=rng.normal(size=present.size)
                )
                continue
            mean_len = self._lengths.get(fid, spec.avg_sparse_length or 1.0)
            lengths = rng.geometric(1.0 / max(mean_len, 1.0), size=present.size)
            total = int(lengths.sum())
            ids = rng.integers(0, self.profile.id_vocab_size, size=total)
            scored = spec.ftype is FeatureType.SCORED_SPARSE
            columns[fid] = FeatureColumn(
                present,
                lengths=lengths,
                ids=ids,
                scores=rng.random(size=total) if scored else None,
            )
        return SampleBatch(labels, columns)

    def generate_rows(self, schema: TableSchema, n: int) -> list[Row]:
        """*n* samples drawn as one batch, as views of its rows."""
        return self.generate_batch(schema, n).rows()

    def iter_rows(self, schema: TableSchema, n: int, chunk: int = 256):
        """Stream *n* samples, drawing them in vectorized chunks.

        Streaming consumers (the serving simulator, long-running data
        generators) get batch-generation speed while still consuming
        one row at a time.
        """
        if chunk <= 0:
            raise ConfigError("chunk must be positive")
        _check_row_count(n)
        remaining = n
        while remaining > 0:
            block = min(chunk, remaining)
            yield from self.generate_rows(schema, block)
            remaining -= block

    def populate_table(
        self, table: Table, partition_names: list[str], rows_per_partition: int
    ) -> None:
        """Fill *table* with fresh partitions of generated samples."""
        _check_row_count(rows_per_partition)
        for name in partition_names:
            partition = table.create_partition(name)
            partition.rows.extend(self.generate_rows(table.schema, rows_per_partition))


def _check_row_count(n: int) -> None:
    if n < 0:
        raise ConfigError(f"cannot generate {n} rows")


def measured_coverage(table: Table, feature_id: int) -> float:
    """Fraction of samples in *table* that logged *feature_id*."""
    total = table.total_rows()
    if total == 0:
        raise ConfigError("cannot measure coverage of an empty table")
    logged = sum(
        1 for row in table.scan() if row.has_feature(feature_id)
    )
    return logged / total


def measured_avg_sparse_length(table: Table, feature_id: int) -> float:
    """Mean categorical-list length of a sparse feature over its loggers."""
    lengths = [
        len(row.sparse[feature_id])
        for row in table.scan()
        if feature_id in row.sparse
    ]
    if not lengths:
        raise ConfigError(f"feature {feature_id} never logged in table")
    return float(np.mean(lengths))
