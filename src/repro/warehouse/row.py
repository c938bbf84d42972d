"""Sample rows: the unit of training data in the warehouse.

A row is one training sample — the map-column representation from
Section 3.1.2 before any columnar encoding.  Feature values are stored
sparsely: a feature with coverage < 1 is simply absent from the maps of
samples that did not log it.

Generated samples are drawn a batch at a time as per-feature arrays
(:class:`SampleBatch`), and a :class:`Row` cut from a batch is a view of
one of its samples.  **One truth at a time:** a batch's arrays are its
content until somebody reads a map of any of its rows; that first read
builds the maps of all its rows, once, and from then on the maps are the
content — every view of a sample hands out the same dict objects, and
the DWRF writer reads them.  So a map edited in place or replaced is
always what gets written, never a stale column; the price is that a
batch whose rows were inspected is written from its maps, value by
value, like rows built by hand.

The rule spans the whole write path.  The serving log records the view
it served and the join relabels that view (:meth:`Row.relabeled`), so a
sample reaches the DWRF writer as the generator's columns unless
somebody — a reader of the feature log, of the labeled stream or of the
table — reads one of its batch's maps on the way; the serving host's
engagement signal (:meth:`Row.first_dense`) is read without one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(slots=True, eq=False)
class FeatureColumn:
    """One feature's logged values across the samples of a batch.

    ``rows`` lists, ascending, the batch rows that logged the feature.
    A dense column carries ``values``, one float per listed row; a
    sparse one carries ``lengths``, one per listed row, and the flat
    ``ids`` of all of them back to back, plus flat ``scores`` parallel
    to ``ids`` when the feature is scored.
    """

    rows: np.ndarray
    values: np.ndarray | None = None
    lengths: np.ndarray | None = None
    ids: np.ndarray | None = None
    scores: np.ndarray | None = None
    _starts: np.ndarray | None = field(default=None, init=False, repr=False)

    @property
    def starts(self) -> np.ndarray:
        """Offsets into ``ids``: listed row *k* owns ``ids[starts[k]:starts[k + 1]]``."""
        if self._starts is None:
            starts = np.zeros(len(self.lengths) + 1, dtype=np.int64)
            np.cumsum(self.lengths, out=starts[1:])
            self._starts = starts
        return self._starts


@dataclass(slots=True, eq=False)
class SampleBatch:
    """A batch of samples in columnar form: labels plus per-feature columns.

    ``columns`` maps feature ID → :class:`FeatureColumn` in the order
    the features were drawn; a feature no sample of the batch logged has
    no column.  See the module docstring for when the arrays stop being
    the batch's content.
    """

    labels: np.ndarray
    columns: dict[int, FeatureColumn]
    _maps: tuple[list[dict], list[dict], list[dict]] | None = field(
        default=None, init=False, repr=False
    )

    @property
    def maps_built(self) -> bool:
        """Whether the rows' maps, not the arrays, are now the content."""
        return self._maps is not None

    def rows(self) -> list["Row"]:
        """One view per sample, in batch order."""
        return [
            Row.view(self, index, label)
            for index, label in enumerate(self.labels.tolist())
        ]

    def maps(self) -> tuple[list[dict], list[dict], list[dict]]:
        """Every row's (dense, sparse, scores) maps, built on the first call."""
        if self._maps is None:
            n = len(self.labels)
            dense_of: list[dict] = [{} for _ in range(n)]
            sparse_of: list[dict] = [{} for _ in range(n)]
            scores_of: list[dict] = [{} for _ in range(n)]
            for fid, column in self.columns.items():
                present = column.rows.tolist()
                if column.values is not None:
                    for index, value in zip(present, column.values.tolist()):
                        dense_of[index][fid] = value
                    continue
                offsets = column.starts.tolist()
                flat_list = column.ids.tolist()
                scored = column.scores is not None
                weight_list = column.scores.tolist() if scored else None
                for index, lo, hi in zip(present, offsets, offsets[1:]):
                    sparse_of[index][fid] = flat_list[lo:hi]
                    if scored:
                        scores_of[index][fid] = weight_list[lo:hi]
            self._maps = (dense_of, sparse_of, scores_of)
        return self._maps


class Row:
    """One structured training sample.

    ``dense`` maps feature ID → float, ``sparse`` maps feature ID → list
    of categorical IDs, and ``scores`` maps feature ID → per-categorical
    float weights (parallel to the ID list of the same feature).

    A row that came through the serving log shares its sample with the
    logged feature record — the same batch row, or the same maps: to
    change a stored row, give it a new map (as retention does) instead
    of mutating the one it holds.

    A row cut from a :class:`SampleBatch` holds ``(batch, index)`` and
    no maps; reading or assigning any of its maps takes the sample's
    maps from the batch (building them for the whole batch if nobody
    has) and detaches the row: ``batch`` is ``None`` from then on, as
    it is for a row built by hand.
    """

    __slots__ = ("label", "batch", "index", "_dense", "_sparse", "_scores")

    def __init__(
        self,
        label: float,
        dense: dict[int, float] | None = None,
        sparse: dict[int, list[int]] | None = None,
        scores: dict[int, list[float]] | None = None,
    ) -> None:
        self.label = label
        self.batch: SampleBatch | None = None
        self.index = -1
        self._dense = {} if dense is None else dense
        self._sparse = {} if sparse is None else sparse
        self._scores = {} if scores is None else scores

    @classmethod
    def view(cls, batch: SampleBatch, index: int, label: float) -> "Row":
        """The row that is sample *index* of *batch*."""
        row = cls.__new__(cls)
        row.label = label
        row.batch = batch
        row.index = index
        return row

    def _detach(self) -> None:
        dense_of, sparse_of, scores_of = self.batch.maps()
        index = self.index
        self._dense = dense_of[index]
        self._sparse = sparse_of[index]
        self._scores = scores_of[index]
        self.batch = None

    @property
    def dense(self) -> dict[int, float]:
        if self.batch is not None:
            self._detach()
        return self._dense

    @dense.setter
    def dense(self, features: dict[int, float]) -> None:
        if self.batch is not None:
            self._detach()
        self._dense = features

    @property
    def sparse(self) -> dict[int, list[int]]:
        if self.batch is not None:
            self._detach()
        return self._sparse

    @sparse.setter
    def sparse(self, features: dict[int, list[int]]) -> None:
        if self.batch is not None:
            self._detach()
        self._sparse = features

    @property
    def scores(self) -> dict[int, list[float]]:
        if self.batch is not None:
            self._detach()
        return self._scores

    @scores.setter
    def scores(self, features: dict[int, list[float]]) -> None:
        if self.batch is not None:
            self._detach()
        self._scores = features

    def first_dense(self, default: float) -> float:
        """``next(iter(self.dense.values()), default)``, without building maps.

        While the batch's arrays are the content, the first value of the
        sample's dense map is that of the first dense column, in draw
        order, that lists the sample's row; a hand-built row, or one
        whose batch has built its maps, reads its map.
        """
        batch = self.batch
        if batch is None or batch.maps_built:
            return next(iter(self.dense.values()), default)
        index = self.index
        for column in batch.columns.values():
            if column.values is None:
                continue
            rows = column.rows
            at = rows.searchsorted(index)
            if at < len(rows) and rows[at] == index:
                return float(column.values[at])
        return default

    def relabeled(self, label: float) -> "Row":
        """This sample under *label*.

        While this row is a view, the result is a view of the same batch
        row; otherwise it is a row sharing this one's maps.
        """
        if self.batch is not None:
            return Row.view(self.batch, self.index, label)
        return Row(label, self._dense, self._sparse, self._scores)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.label, self.dense, self.sparse, self.scores) == (
            other.label,
            other.dense,
            other.sparse,
            other.scores,
        )

    def __repr__(self) -> str:
        return (
            f"Row(label={self.label!r}, dense={self.dense!r}, "
            f"sparse={self.sparse!r}, scores={self.scores!r})"
        )

    def __reduce__(self):
        # A pickled or deep-copied row is the sample, not a batch's worth
        # of arrays: it travels as its maps and arrives built by hand.
        return Row, (self.label, self.dense, self.sparse, self.scores)

    def has_feature(self, feature_id: int) -> bool:
        """Whether this sample logged the given feature."""
        return (
            feature_id in self.dense
            or feature_id in self.sparse
            or feature_id in self.scores
        )

    def nominal_bytes(self) -> int:
        """Uncompressed logical size of the sample.

        4 bytes per float or categorical ID plus 4 bytes of per-entry
        key overhead — a deliberate simplification that tracks relative
        sizes, which is what every paper result depends on.
        """
        total = 4  # label
        total += sum(8 for _ in self.dense)
        for ids in self.sparse.values():
            total += 4 + 4 * len(ids)
        for weights in self.scores.values():
            total += 4 + 8 * len(weights)
        return total
