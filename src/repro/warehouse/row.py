"""Sample rows: the unit of training data in the warehouse.

A row is one training sample — the map-column representation from
Section 3.1.2 before any columnar encoding.  Feature values are stored
sparsely: a feature with coverage < 1 is simply absent from the maps of
samples that did not log it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Row:
    """One structured training sample.

    ``dense`` maps feature ID → float, ``sparse`` maps feature ID → list
    of categorical IDs, and ``scores`` maps feature ID → per-categorical
    float weights (parallel to the ID list of the same feature).

    A row that came through the serving log shares its maps with the
    logged feature record: to change a stored row, give it a new map
    (as retention does) instead of mutating the one it holds.
    """

    label: float
    dense: dict[int, float] = field(default_factory=dict)
    sparse: dict[int, list[int]] = field(default_factory=dict)
    scores: dict[int, list[float]] = field(default_factory=dict)

    def feature_ids(self) -> set[int]:
        """IDs of every feature present on this sample."""
        return set(self.dense) | set(self.sparse) | set(self.scores)

    def has_feature(self, feature_id: int) -> bool:
        """Whether this sample logged the given feature."""
        return (
            feature_id in self.dense
            or feature_id in self.sparse
            or feature_id in self.scores
        )

    def project(self, feature_ids: set[int]) -> "Row":
        """Return a copy holding only the requested features.

        This is the row-level analogue of the column filter a training
        job applies when reading (Section 5.1).
        """
        return Row(
            label=self.label,
            dense={fid: v for fid, v in self.dense.items() if fid in feature_ids},
            sparse={fid: list(v) for fid, v in self.sparse.items() if fid in feature_ids},
            scores={fid: list(v) for fid, v in self.scores.items() if fid in feature_ids},
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
