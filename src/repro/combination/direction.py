"""Match direction and the direction-aware application of selection (Section 6.2).

COMA distinguishes directional and undirectional matching.  Given two schemas
S1 and S2 with ``|S2| <= |S1|`` (S1 the larger schema):

* ``LargeSmall`` -- elements from the larger schema S1 are ranked and selected
  with respect to each element of the smaller target S2,
* ``SmallLarge`` -- elements of the smaller schema S2 are ranked and selected
  for each S1 element,
* ``Both`` -- both directions are evaluated and a pair is only accepted if it
  is selected in both directions (the undirectional match of Section 3).

The direction strategy consumes the aggregated similarity matrix (rows = S1
paths, columns = S2 paths, in *input* order, regardless of size) together with
a :class:`~repro.combination.selection.SelectionStrategy` and produces the set
of selected ``(source path, target path, similarity)`` triples.
"""

from __future__ import annotations

import abc
from typing import List, Tuple

import numpy as np

from repro.exceptions import CombinationError
from repro.combination.matrix import NameRanks, SimilarityMatrix
from repro.combination.selection import SelectionStrategy
from repro.model.path import SchemaPath

#: One selected correspondence: source path (S1), target path (S2), similarity.
SelectedPair = Tuple[SchemaPath, SchemaPath, float]


def _select_per_source(
    values: np.ndarray, selection: SelectionStrategy, target_ranks: np.ndarray
) -> np.ndarray:
    """For each source (row) element, select candidates among the targets."""
    return selection.mask(values, target_ranks)


def _select_per_target(
    values: np.ndarray, selection: SelectionStrategy, source_ranks: np.ndarray
) -> np.ndarray:
    """For each target (column) element, select candidates among the sources."""
    return selection.mask(values.T, source_ranks).T


class DirectionStrategy(abc.ABC):
    """Base class for match direction strategies.

    A direction combines row-wise and column-wise selection masks
    (:meth:`mask`); :meth:`select_indices` orders the selected cells by
    ``(source names, target names)`` and :meth:`select_pairs` turns them into
    path triples.  A strategy that is not mask-based (stable marriage)
    overrides :meth:`select_pairs` instead.
    """

    name: str = "direction"

    def mask(
        self,
        values: np.ndarray,
        selection: SelectionStrategy,
        source_ranks: np.ndarray,
        target_ranks: np.ndarray,
    ) -> np.ndarray:
        """The ``m x n`` mask of the selected cells (ties: strict name ranks)."""
        raise NotImplementedError(f"{type(self).__name__} does not select by mask")

    def select_indices(
        self,
        values: np.ndarray,
        selection: SelectionStrategy,
        source_ranks: NameRanks,
        target_ranks: NameRanks,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Row and column indices of the selected cells, in output order."""
        keep = self.mask(values, selection, source_ranks.strict, target_ranks.strict)
        rows, columns = np.nonzero(keep)
        order = np.lexsort((target_ranks.dense[columns], source_ranks.dense[rows]))
        return rows[order], columns[order]

    def select_pairs(
        self, matrix: SimilarityMatrix, selection: SelectionStrategy
    ) -> List[SelectedPair]:
        """Apply ``selection`` in the configured direction(s) over ``matrix``."""
        values = matrix.values
        rows, columns = self.select_indices(
            values, selection, matrix.source_ranks, matrix.target_ranks
        )
        sources, targets = matrix.source_paths, matrix.target_paths
        return [
            (sources[i], targets[j], similarity)
            for i, j, similarity in zip(
                rows.tolist(), columns.tolist(), values[rows, columns].tolist()
            )
        ]

    def __call__(
        self, matrix: SimilarityMatrix, selection: SelectionStrategy
    ) -> List[SelectedPair]:
        return self.select_pairs(matrix, selection)

    def __str__(self) -> str:
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DirectionStrategy) and str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))


class LargeSmall(DirectionStrategy):
    """Rank and select elements of the larger schema for each smaller-schema element."""

    name = "LargeSmall"

    def mask(self, values, selection, source_ranks, target_ranks) -> np.ndarray:
        rows, columns = values.shape
        if rows >= columns:
            # S1 (rows) is larger: select S1 candidates for each S2 element.
            return _select_per_target(values, selection, source_ranks)
        # S2 (columns) is larger: select S2 candidates for each S1 element.
        return _select_per_source(values, selection, target_ranks)


class SmallLarge(DirectionStrategy):
    """Rank and select elements of the smaller schema for each larger-schema element."""

    name = "SmallLarge"

    def mask(self, values, selection, source_ranks, target_ranks) -> np.ndarray:
        rows, columns = values.shape
        if rows >= columns:
            return _select_per_source(values, selection, target_ranks)
        return _select_per_target(values, selection, source_ranks)


class Both(DirectionStrategy):
    """Undirectional matching: a pair must be selected in both directions."""

    name = "Both"

    def mask(self, values, selection, source_ranks, target_ranks) -> np.ndarray:
        forward = _select_per_source(values, selection, target_ranks)
        backward = _select_per_target(values, selection, source_ranks)
        return forward & backward


#: Canonical instances.
LARGE_SMALL = LargeSmall()
SMALL_LARGE = SmallLarge()
BOTH = Both()

_BY_NAME = {
    "largesmall": LARGE_SMALL,
    "smalllarge": SMALL_LARGE,
    "both": BOTH,
}


def direction_by_name(name: str) -> DirectionStrategy:
    """Resolve a direction strategy from its name."""
    try:
        return _BY_NAME[name.strip().lower()]
    except KeyError:
        raise CombinationError(
            f"unknown direction strategy {name!r}; expected one of {sorted(_BY_NAME)}"
        ) from None
